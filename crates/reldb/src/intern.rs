//! Dense-id value interning — the dictionary behind every hot key path.
//!
//! The publish-vs-graph-size gate showed fixed-delta publish latency growing
//! ~2x as the database grew 10k→160k rows, purely from DRAM/TLB misses on
//! maintenance maps keyed by owned [`Value`]s. This module is the fix: a
//! per-database dictionary that maps each distinct `Value` to a dense `u32`
//! [`Vid`], so joins, DISTINCT, catalog statistics, and the incremental
//! engine's support/bag structures can key by a machine word (often a flat
//! `Vec` index) instead of hashing and chasing heap-allocated values.
//!
//! Two usage modes share one structure:
//!
//! * **Refcounted** ([`Interner::acquire`] / [`Interner::release`]) — the
//!   catalog acquires once per cell occurrence and releases on delete. When
//!   the last reference drops, the slot goes on a free list and the next
//!   *new* value reuses it, so the dictionary's footprint tracks the live
//!   value set, not the insert history.
//! * **Grow-only** ([`Interner::intern`]) — the incremental engine interns
//!   keys it has *ever* seen (its bags hold historical multiplicities);
//!   those slots pin a reference and are never recycled.
//!
//! The forward index is a `graphgen_common::IdTable`: 8-byte slots of a
//! `Vid` and a tag from the value's FxHash, at most 3/4 full, doubling when
//! an insert would pass that. A lookup hashes the value and, on a tag
//! match, compares it with `slots[vid]`, so each value is stored once, in
//! its slot. An intern or acquire offers the table the slot a new value
//! would get (the last one freed, else the next), which it stores at the
//! end of the same probe run if the value is new. Nothing iterates the
//! index: ids are handed out by the slot vector and the free list, and the
//! codec walks the slots, so the index decides no order anywhere.
//!
//! Slot reuse is safe because a `Vid` is only ever held by structures that
//! are maintained in lockstep with the refcounts: when a slot is freed, no
//! live row, count, or support entry still names it. The codec persists
//! slots, refcounts, *and* the free list verbatim so a decoded dictionary
//! continues allocating exactly like the one that was snapshotted —
//! byte-identity across recovery depends on it.

use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_common::{fx_hash, ByteSize, FxHasher, IdTable};
use std::hash::Hasher;

/// Dense id for an interned [`Value`] — index into the dictionary's slot
/// table. `u32` keeps keys register-wide and flat tables compact.
pub type Vid = u32;

/// The [`Vid`] every interner hands out for [`Value::Null`]: NULL is
/// interned first, permanently, so engines can test "is NULL" with an
/// integer compare.
pub const NULL_VID: Vid = 0;

/// 64-bit FxHash of a row of ids — the single definition of row identity,
/// shared by DISTINCT and the catalog's whole-row index. Hashing dense
/// `u32`s instead of owned values keeps both off the heap.
pub(crate) fn hash_vids(vids: &[Vid]) -> u64 {
    let mut h = FxHasher::default();
    for &v in vids {
        h.write_u32(v);
    }
    h.finish()
}

/// A `Value` → dense [`Vid`] dictionary with refcounted slot reuse.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Forward index: the slot of each live value, keyed by its FxHash and
    /// found by comparing `slots`. Entries exist only for occupied slots.
    map: IdTable,
    /// Reverse table: slot → value. `None` marks a freed slot awaiting
    /// reuse.
    slots: Vec<Option<Value>>,
    /// Per-slot reference counts. A grow-only [`Interner::intern`] pins the
    /// slot by bumping this once and never releasing.
    refs: Vec<u64>,
    /// Freed slot indexes, reused LIFO by the next new value.
    free: Vec<Vid>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// No slots at all, not even NULL's: only a starting point for
    /// [`Interner::new`] and [`Interner::decode`].
    fn empty() -> Self {
        Interner {
            map: IdTable::new(),
            slots: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// An interner with [`Value::Null`] pre-interned at [`NULL_VID`].
    pub fn new() -> Self {
        let mut it = Self::empty();
        let vid = it.intern(&Value::Null);
        debug_assert_eq!(vid, NULL_VID);
        it
    }

    /// The slot of `value`, allocating one if it has none: the last slot
    /// freed, else a new one at the end.
    fn find_or_alloc(&mut self, value: &Value) -> Vid {
        let next = match self.free.last() {
            Some(&vid) => vid,
            None => Vid::try_from(self.slots.len()).expect("more than u32::MAX dictionary slots"),
        };
        let slots = &self.slots;
        let found = self.map.find_or_insert(fx_hash(value), next, |vid| {
            slots[vid as usize].as_ref() == Some(value)
        });
        if let Some(vid) = found {
            return vid;
        }
        if self.free.pop().is_some() {
            self.slots[next as usize] = Some(value.clone());
            self.refs[next as usize] = 0;
        } else {
            self.slots.push(Some(value.clone()));
            self.refs.push(0);
        }
        next
    }

    /// Intern `value` without tracking the reference: the slot is pinned
    /// for the interner's lifetime. Used by grow-only consumers (the
    /// incremental engine's historical key space). Idempotent — interning
    /// a pinned value again leaves the dictionary (and so its encoding)
    /// unchanged, which is what lets a bulk loader intern each distinct
    /// value once and still match a row-at-a-time replay byte for byte.
    pub fn intern(&mut self, value: &Value) -> Vid {
        let vid = self.find_or_alloc(value);
        // Pin: a count this large can never be released back to zero by
        // well-formed acquire/release pairs.
        let refs = &mut self.refs[vid as usize];
        *refs = (*refs).max(u64::MAX / 2);
        vid
    }

    /// Intern `value` and count one reference (one cell occurrence).
    /// Release with [`Interner::release`] when the occurrence is deleted.
    pub fn acquire(&mut self, value: &Value) -> Vid {
        let vid = self.find_or_alloc(value);
        self.refs[vid as usize] += 1;
        vid
    }

    /// Drop one reference to `vid`. When the count reaches zero the slot is
    /// freed and becomes reusable — callers must not hold the `Vid` past
    /// this point.
    pub fn release(&mut self, vid: Vid) {
        let i = vid as usize;
        debug_assert!(self.refs[i] > 0, "release of dead vid {vid}");
        self.refs[i] -= 1;
        if self.refs[i] == 0 {
            if let Some(value) = self.slots[i].take() {
                self.map.remove(fx_hash(&value), vid);
            }
            self.free.push(vid);
        }
    }

    /// The `Vid` for `value` if it is currently interned.
    pub fn lookup(&self, value: &Value) -> Option<Vid> {
        self.map.find(fx_hash(value), |vid| {
            self.slots[vid as usize].as_ref() == Some(value)
        })
    }

    /// The value stored in slot `vid`, if the slot is live.
    pub fn resolve(&self, vid: Vid) -> Option<&Value> {
        self.slots.get(vid as usize).and_then(|s| s.as_ref())
    }

    /// Number of live (occupied) slots.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slot-table length (live + freed). Every live `Vid` is
    /// strictly below this.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Append the dictionary's binary encoding: slot table in slot order
    /// (occupancy flag, value, refcount), then the free list. Persisting
    /// the free list verbatim means a decoded interner allocates the same
    /// `Vid`s the live one would have.
    pub fn encode_into(&self, out: &mut impl codec::Sink) {
        codec::put_len(out, self.slots.len());
        for (slot, &refs) in self.slots.iter().zip(&self.refs) {
            match slot {
                Some(value) => {
                    codec::put_u8(out, 1);
                    value.encode_into(out);
                    codec::put_u64(out, refs);
                }
                None => codec::put_u8(out, 0),
            }
        }
        codec::put_len(out, self.free.len());
        for &vid in &self.free {
            codec::put_u32(out, vid);
        }
    }

    /// Decode a dictionary (inverse of [`Interner::encode_into`]). Bytes
    /// that would break what the engines rely on are rejected: slot
    /// [`NULL_VID`] must hold [`Value::Null`] (joins test "is NULL" by id),
    /// no value may occupy two live slots (a lookup would find only one of
    /// them), and the free list must name every empty slot exactly once (a
    /// slot listed twice would be handed to two values).
    pub fn decode(r: &mut Reader<'_>) -> Result<Interner, CodecError> {
        let start = r.pos();
        let n = r.len_of(1)?;
        if Vid::try_from(n).is_err() {
            return Err(CodecError::invalid(
                start,
                "more dictionary slots than Vids",
            ));
        }
        let mut it = Interner::empty();
        it.map = IdTable::with_capacity(n);
        it.slots.reserve(n);
        it.refs.reserve(n);
        for i in 0..n {
            let at = r.pos();
            match r.u8()? {
                0 => {
                    it.slots.push(None);
                    it.refs.push(0);
                }
                1 => {
                    let value = Value::decode(r)?;
                    let refs = r.u64()?;
                    if refs == 0 {
                        return Err(CodecError::invalid(at, "live dictionary slot with 0 refs"));
                    }
                    let slots = &it.slots;
                    let held = it.map.find_or_insert(fx_hash(&value), i as Vid, |vid| {
                        slots[vid as usize].as_ref() == Some(&value)
                    });
                    if held.is_some() {
                        return Err(CodecError::invalid(
                            at,
                            "dictionary value held by two live slots",
                        ));
                    }
                    it.slots.push(Some(value));
                    it.refs.push(refs);
                }
                tag => return Err(CodecError::invalid(at, format!("bad slot tag {tag}"))),
            }
        }
        if it.resolve(NULL_VID) != Some(&Value::Null) {
            return Err(CodecError::invalid(start, "dictionary slot 0 is not NULL"));
        }
        let nfree = r.len_of(4)?;
        let mut listed = vec![false; n];
        for _ in 0..nfree {
            let at = r.pos();
            let vid = r.u32()?;
            if vid as usize >= n || it.slots[vid as usize].is_some() || listed[vid as usize] {
                return Err(CodecError::invalid(at, format!("bad free-list vid {vid}")));
            }
            listed[vid as usize] = true;
            it.free.push(vid);
        }
        // No vid is listed twice, so equality here means every empty slot
        // is listed.
        if it.free.len() != n - it.map.len() {
            return Err(CodecError::invalid(
                r.pos(),
                "free list does not cover all empty slots",
            ));
        }
        Ok(it)
    }
}

impl ByteSize for Interner {
    /// From the containers' capacities: the id table's empty slots and the
    /// vectors' spare room are held as much as entries.
    fn heap_bytes(&self) -> usize {
        self.map.heap_bytes()
            + self.slots.heap_bytes()
            + self.refs.heap_bytes()
            + self.free.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_round_trip() {
        let mut it = Interner::new();
        assert_eq!(it.lookup(&Value::Null), Some(NULL_VID));
        let a = it.intern(&Value::str("alpha"));
        let b = it.intern(&Value::int(7));
        assert_ne!(a, b);
        assert_eq!(it.intern(&Value::str("alpha")), a);
        assert_eq!(it.resolve(a), Some(&Value::str("alpha")));
        assert_eq!(it.resolve(b), Some(&Value::int(7)));
        assert_eq!(it.lookup(&Value::int(7)), Some(b));
        assert_eq!(it.lookup(&Value::int(8)), None);
        assert_eq!(it.live(), 3);
        assert_eq!(Interner::default().lookup(&Value::Null), Some(NULL_VID));
    }

    #[test]
    fn free_list_reuse_without_aliasing() {
        let mut it = Interner::new();
        let a = it.acquire(&Value::str("a"));
        let keep = it.acquire(&Value::str("keep"));
        it.release(a);
        assert_eq!(it.lookup(&Value::str("a")), None);
        // New value reuses the freed slot; the live one keeps its id.
        let b = it.acquire(&Value::str("b"));
        assert_eq!(b, a);
        assert_eq!(it.resolve(b), Some(&Value::str("b")));
        assert_eq!(it.resolve(keep), Some(&Value::str("keep")));
        // Reviving "a" now gets a fresh slot — no alias with live "b".
        let a2 = it.acquire(&Value::str("a"));
        assert_ne!(a2, b);
        assert_ne!(a2, keep);
        assert_eq!(it.resolve(a2), Some(&Value::str("a")));
        assert_eq!(it.live(), 4); // NULL, keep, b, a
    }

    #[test]
    fn refcounts_hold_slots_until_last_release() {
        let mut it = Interner::new();
        let a = it.acquire(&Value::int(1));
        let a2 = it.acquire(&Value::int(1));
        assert_eq!(a, a2);
        it.release(a);
        assert_eq!(it.lookup(&Value::int(1)), Some(a));
        it.release(a);
        assert_eq!(it.lookup(&Value::int(1)), None);
    }

    #[test]
    fn interning_a_pinned_value_again_changes_nothing() {
        let mut it = Interner::new();
        it.intern(&Value::str("k"));
        let mut once = Vec::new();
        it.encode_into(&mut once);
        it.intern(&Value::str("k"));
        it.intern(&Value::Null);
        let mut thrice = Vec::new();
        it.encode_into(&mut thrice);
        assert_eq!(once, thrice);
    }

    #[test]
    fn grow_only_slots_survive_release_pairs() {
        let mut it = Interner::new();
        let pinned = it.intern(&Value::str("pinned"));
        let v = it.acquire(&Value::str("pinned"));
        assert_eq!(pinned, v);
        it.release(v);
        assert_eq!(it.lookup(&Value::str("pinned")), Some(pinned));
    }

    #[test]
    fn codec_round_trip_continues_allocation_identically() {
        let mut it = Interner::new();
        let _a = it.acquire(&Value::str("a"));
        let b = it.acquire(&Value::str("b"));
        let c = it.acquire(&Value::int(42));
        it.release(b); // slot on the free list at snapshot time
        let mut bytes = Vec::new();
        it.encode_into(&mut bytes);
        let mut back = Interner::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.live(), it.live());
        assert_eq!(back.capacity(), it.capacity());
        assert_eq!(back.lookup(&Value::int(42)), Some(c));
        // Both the original and the decoded copy must hand the freed slot
        // to the next new value.
        let fresh_live = it.acquire(&Value::str("z"));
        let fresh_back = back.acquire(&Value::str("z"));
        assert_eq!(fresh_live, fresh_back);
        assert_eq!(fresh_back, b);
    }

    #[test]
    fn decode_rejects_corrupt_free_list() {
        let mut it = Interner::new();
        let a = it.acquire(&Value::str("a"));
        it.release(a);
        let mut bytes = Vec::new();
        it.encode_into(&mut bytes);
        // Drop the free-list entry and rewrite its count (a trailing
        // little-endian u64) from 1 to 0: the empty slot is then covered by
        // no free-list entry, which decode must reject.
        let mut clipped = bytes.clone();
        let len = clipped.len();
        clipped.truncate(len - 4);
        let count_at = clipped.len() - 8;
        clipped[count_at] = 0;
        assert!(Interner::decode(&mut Reader::new(&clipped)).is_err());
    }

    #[test]
    fn decode_rejects_non_null_slot_zero() {
        // One live slot holding 7 where NULL must be: every `NULL_VID`
        // test in the join would then treat 7 as NULL.
        let mut bytes = Vec::new();
        codec::put_len(&mut bytes, 1);
        codec::put_u8(&mut bytes, 1);
        Value::int(7).encode_into(&mut bytes);
        codec::put_u64(&mut bytes, 1);
        codec::put_len(&mut bytes, 0);
        assert!(Interner::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn decode_rejects_a_value_in_two_slots() {
        // Slots [NULL, 7, 7] and an empty free list: the free-list count
        // holds (no slot is empty), but a lookup of 7 could only ever find
        // one of the two slots.
        let mut bytes = Vec::new();
        codec::put_len(&mut bytes, 3);
        for value in [Value::Null, Value::int(7), Value::int(7)] {
            codec::put_u8(&mut bytes, 1);
            value.encode_into(&mut bytes);
            codec::put_u64(&mut bytes, 1);
        }
        codec::put_len(&mut bytes, 0);
        let err = Interner::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            err.to_string().contains("held by two live slots"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn decode_rejects_free_list_naming_a_slot_twice() {
        // Slots [NULL, empty, empty] with free list [1, 1]: the count
        // matches the two empty slots, but `alloc` would hand vid 1 to two
        // values and never reuse slot 2.
        let mut bytes = Vec::new();
        codec::put_len(&mut bytes, 3);
        codec::put_u8(&mut bytes, 1);
        Value::Null.encode_into(&mut bytes);
        codec::put_u64(&mut bytes, 1);
        codec::put_u8(&mut bytes, 0);
        codec::put_u8(&mut bytes, 0);
        codec::put_len(&mut bytes, 2);
        codec::put_u32(&mut bytes, 1);
        codec::put_u32(&mut bytes, 1);
        assert!(Interner::decode(&mut Reader::new(&bytes)).is_err());
    }
}
