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
//! The dictionary is grow-only: an id, once given, names its value for the
//! life of the database, even after every row holding the value is
//! deleted. That is what lets the maintenance state of every extracted
//! graph key by database ids: a node key kept for a later revival, or a
//! boundary value whose rows are gone, still names the value it named. The
//! price is that a value whose last row was deleted keeps its slot.
//!
//! The values live once, in a [`graphgen_common::IdMap`]: a vector in id
//! order under an index-only `IdTable` (8-byte slots of an id and a tag
//! from the value's FxHash, at most 3/4 full). Nothing iterates the index:
//! ids are handed out in first-intern order and the codec walks the
//! vector, so the index decides no order anywhere. The codec writes the
//! values in id order, so a decoded dictionary gives every value its id
//! and continues allocating exactly where the encoded one stopped —
//! byte-identity across recovery depends on it.

use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_common::{ByteSize, FxHasher, IdMap};
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

/// A grow-only `Value` → dense [`Vid`] dictionary.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every value ever interned, at its id.
    values: IdMap<Value>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// An interner with [`Value::Null`] pre-interned at [`NULL_VID`].
    pub fn new() -> Self {
        let mut values = IdMap::new();
        let vid = values.intern(Value::Null);
        debug_assert_eq!(vid, NULL_VID);
        Interner { values }
    }

    /// The id of `value`, giving it the next one if it has none. A value
    /// already present is neither cloned nor looked up twice, and
    /// interning it again leaves the dictionary (and so its encoding)
    /// unchanged.
    pub fn intern(&mut self, value: &Value) -> Vid {
        self.values.intern_cloned(value)
    }

    /// The `Vid` for `value` if it was ever interned.
    pub fn lookup(&self, value: &Value) -> Option<Vid> {
        self.values.get(value)
    }

    /// The value `vid` names, or `None` for an id at or past
    /// [`Interner::len`].
    pub fn resolve(&self, vid: Vid) -> Option<&Value> {
        self.values.try_key_of(vid)
    }

    /// Number of ids given out. Every id is strictly below this.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: NULL is interned from the start.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append the dictionary's binary encoding: the number of ids, then
    /// each value in id order.
    pub fn encode_into(&self, out: &mut impl codec::Sink) {
        codec::put_len(out, self.values.len());
        for (_, value) in self.values.iter() {
            value.encode_into(out);
        }
    }

    /// Decode a dictionary (inverse of [`Interner::encode_into`]). Bytes
    /// that would break what the engines rely on are rejected: id
    /// [`NULL_VID`] must name [`Value::Null`] (joins test "is NULL" by id),
    /// and no value may be written twice (a lookup would find only one of
    /// its ids).
    pub fn decode(r: &mut Reader<'_>) -> Result<Interner, CodecError> {
        let start = r.pos();
        let n = r.len_of(1)?;
        if Vid::try_from(n).is_err() {
            return Err(CodecError::invalid(
                start,
                "more dictionary slots than Vids",
            ));
        }
        let mut values = IdMap::with_capacity(n);
        for i in 0..n {
            let at = r.pos();
            if values.intern(Value::decode(r)?) as usize != i {
                return Err(CodecError::invalid(
                    at,
                    "dictionary value held by two live slots",
                ));
            }
        }
        if values.try_key_of(NULL_VID) != Some(&Value::Null) {
            return Err(CodecError::invalid(start, "dictionary slot 0 is not NULL"));
        }
        Ok(Interner { values })
    }
}

impl ByteSize for Interner {
    /// From the containers' capacities: the id table's empty slots and the
    /// vector's spare room are held as much as entries.
    fn heap_bytes(&self) -> usize {
        self.values.heap_bytes()
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
        assert_eq!(it.resolve(3), None);
        assert_eq!(it.lookup(&Value::int(7)), Some(b));
        assert_eq!(it.lookup(&Value::int(8)), None);
        assert_eq!(it.len(), 3);
        assert_eq!(Interner::default().lookup(&Value::Null), Some(NULL_VID));
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
    fn codec_round_trip_continues_allocation_identically() {
        let mut it = Interner::new();
        let _a = it.intern(&Value::str("a"));
        let b = it.intern(&Value::str("b"));
        let c = it.intern(&Value::int(42));
        let mut bytes = Vec::new();
        it.encode_into(&mut bytes);
        let mut back = Interner::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.len(), it.len());
        assert_eq!(back.lookup(&Value::int(42)), Some(c));
        assert_eq!(back.resolve(b), Some(&Value::str("b")));
        // Both the original and the decoded copy must hand the next id to
        // the next new value.
        let fresh_live = it.intern(&Value::str("z"));
        let fresh_back = back.intern(&Value::str("z"));
        assert_eq!(fresh_live, fresh_back);
        assert_eq!(fresh_back, c + 1);
    }

    #[test]
    fn decode_rejects_non_null_slot_zero() {
        // One slot holding 7 where NULL must be: every `NULL_VID` test in
        // the join would then treat 7 as NULL.
        let mut bytes = Vec::new();
        codec::put_len(&mut bytes, 1);
        Value::int(7).encode_into(&mut bytes);
        assert!(Interner::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn decode_rejects_a_value_in_two_slots() {
        // Slots [NULL, 7, 7]: a lookup of 7 could only ever find one of
        // the two slots.
        let mut bytes = Vec::new();
        codec::put_len(&mut bytes, 3);
        for value in [Value::Null, Value::int(7), Value::int(7)] {
            value.encode_into(&mut bytes);
        }
        let err = Interner::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            err.to_string().contains("held by two live slots"),
            "unexpected error: {err}"
        );
    }
}
