//! An index-only hash table of dense ids.
//!
//! A value dictionary keeps every key once, in its id-indexed slot vector
//! (`IdMap::reverse`, which also holds the database `Interner`'s values).
//! Its forward index
//! only has to answer "which id holds a key equal to this one", so
//! [`IdTable`] stores ids, never keys: each probe hands the candidate id to
//! the caller, which compares its own stored key. A `HashMap<K, u32>`
//! would keep a second copy of every key in its buckets.
//!
//! Layout: open addressing over a power-of-two array of 8-byte slots, each
//! a `u32` id and a 32-bit tag drawn from the key's 64-bit FxHash. The
//! tag's top bits are the slot a key starts probing from, so the table can
//! grow without asking for keys again. Probing is linear; a tag mismatch
//! skips an entry without touching the caller's keys, so the caller
//! compares a key only where 32 hash bits agree. The load never exceeds
//! 3/4: an insert past it doubles the table. A lookup stops at the first
//! empty slot: none ever sits between an entry and its home. The
//! dictionaries dedup through [`IdTable::find_or_insert`]; the catalog's
//! row locator keeps a bag of row positions per row hash, added by
//! [`IdTable::insert`] and taken out by [`IdTable::remove`], which shifts
//! the rest of the run back over the gap (an entry moves only where that
//! keeps it at or after its home, which its tag names: no key is asked).
//!
//! The tag is the high half of the hash times the 64-bit golden-ratio
//! constant, not of the hash itself. FxHash ends by multiplying with a
//! constant close to 1/π ≈ 113/355, whose top bits bunch a run of
//! consecutive integers into a few hundred clusters: 25,000 consecutive
//! `Value::Int` keys averaged 7.8 probes per insert on the raw high half
//! and 1.01 after the multiply.

use crate::bytesize::ByteSize;

/// The id an empty slot holds; a stored id is always below it.
const EMPTY_ID: u32 = u32::MAX;

/// Fewest slots a non-empty table holds.
const MIN_SLOTS: usize = 8;

/// 2^64 / φ: spreads the top bits of a multiple of it evenly (Fibonacci
/// hashing).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

const EMPTY: Slot = Slot {
    tag: 0,
    id: EMPTY_ID,
};

/// The tag of a key with 64-bit hash `hash`.
#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash.wrapping_mul(GOLDEN) >> 32) as u32
}

/// Slots needed to hold `n` entries at a load of at most 3/4.
fn slots_for(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (n * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS)
}

/// Dense `u32` ids keyed by the hash of a key the caller stores. See the
/// module docs for the layout and the load rule.
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    slots: Box<[Slot]>,
    len: usize,
}

impl IdTable {
    /// An empty table; it allocates on the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table that holds `n` ids without growing.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            slots: vec![EMPTY; slots_for(n)].into_boxed_slice(),
            len: 0,
        }
    }

    /// Number of ids stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no id is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot a key with tag `tag` starts probing from.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        // A table of 2^b slots starts at the tag's top b bits.
        let bits = self.slots.len().trailing_zeros();
        (tag as u64 >> (32 - bits)) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Walk the probe run of `tag`: `Ok(slot)` for the first entry whose
    /// tag matches and whose id passes `eq`, else `Err(slot)` for the empty
    /// slot that ends the run. The table must have slots.
    #[inline]
    fn probe(&self, tag: u32, mut eq: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(tag);
        loop {
            let s = self.slots[i];
            if s.id == EMPTY_ID {
                return Err(i);
            }
            if s.tag == tag && eq(s.id) {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The stored id whose key hashes to `hash` and passes `eq`. `eq` is
    /// asked only about ids whose tag matches, in probe order.
    #[inline]
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let found = self.probe(tag_of(hash), eq).ok()?;
        Some(self.slots[found].id)
    }

    /// [`IdTable::find`], and if no stored id passes `eq`, store `id` for
    /// the key and return `None`. One probe run serves both unless the
    /// insert doubles the table.
    #[inline]
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        id: u32,
        eq: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        assert!(id != EMPTY_ID, "id {EMPTY_ID} cannot be stored");
        let slot = Slot {
            tag: tag_of(hash),
            id,
        };
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            if let Some(found) = self.find(hash, eq) {
                return Some(found);
            }
            self.resize((self.slots.len() * 2).max(MIN_SLOTS));
            self.place(slot);
        } else {
            match self.probe(slot.tag, eq) {
                Ok(found) => return Some(self.slots[found].id),
                Err(empty) => self.slots[empty] = slot,
            }
        }
        self.len += 1;
        None
    }

    /// Store `id` under `hash` beside any ids already there: no key is
    /// compared, so equal keys may hold several ids (a bag).
    pub fn insert(&mut self, hash: u64, id: u32) {
        self.find_or_insert(hash, id, |_| false);
    }

    /// Take `id` out of the table, naming the `hash` it was stored under
    /// (only the tag and the id are compared); false if it is not there.
    /// The entries after it in its run shift back over the gap, so every
    /// lookup still ends at the first empty slot.
    pub fn remove(&mut self, hash: u64, id: u32) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let Ok(mut gap) = self.probe(tag_of(hash), |stored| stored == id) else {
            return false;
        };
        let mask = self.mask();
        let mut i = gap;
        loop {
            i = (i + 1) & mask;
            let s = self.slots[i];
            if s.id == EMPTY_ID {
                break;
            }
            // `s` may fill the gap iff the gap lies on its way from its home
            // to `i`.
            if (i.wrapping_sub(self.home(s.tag)) & mask) >= (i.wrapping_sub(gap) & mask) {
                self.slots[gap] = s;
                gap = i;
            }
        }
        self.slots[gap] = EMPTY;
        self.len -= 1;
        true
    }

    /// Put `s` in the empty slot that ends its probe run.
    fn place(&mut self, s: Slot) {
        let empty = self.probe(s.tag, |_| false).unwrap_err();
        self.slots[empty] = s;
    }

    /// Rebuild over `n` slots (a power of two): each entry moves to the
    /// run its tag names in the larger table.
    fn resize(&mut self, n: usize) {
        assert!(n as u64 <= 1 << 32, "an id table holds at most 2^32 slots");
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; n].into_boxed_slice());
        for &s in old.iter().filter(|s| s.id != EMPTY_ID) {
            self.place(s);
        }
    }
}

impl ByteSize for IdTable {
    /// The slot array, which is allocated exactly.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[Slot]>(&self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::HashMap;

    /// A hash whose tag is `tag`: `tag_of` multiplies by an odd constant,
    /// so its inverse mod 2^64 undoes it. `low` picks one of many such
    /// hashes.
    fn hash_with_tag(tag: u32, low: u32) -> u64 {
        // Newton's iteration doubles the correct low bits of the inverse.
        let mut inv = GOLDEN;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(inv)));
        }
        let hash = ((tag as u64) << 32 | low as u64).wrapping_mul(inv);
        assert_eq!(tag_of(hash), tag);
        hash
    }

    /// A dictionary over the table, as `IdMap` uses it, with a hash
    /// function chosen by the test.
    struct Model {
        table: IdTable,
        keys: Vec<Option<u64>>,
        hash: fn(u64) -> u64,
    }

    impl Model {
        fn find(&self, key: u64) -> Option<u32> {
            let keys = &self.keys;
            self.table
                .find((self.hash)(key), |id| keys[id as usize] == Some(key))
        }

        fn find_or_insert(&mut self, key: u64, id: u32) -> Option<u32> {
            let keys = &self.keys;
            self.table
                .find_or_insert((self.hash)(key), id, |id| keys[id as usize] == Some(key))
        }

        /// Every id stored under `key`, sorted: the walk a bag's caller
        /// makes, recording each candidate and accepting none.
        fn bag(&self, key: u64) -> Vec<u32> {
            let mut ids = Vec::new();
            self.table.find((self.hash)(key), |id| {
                if self.keys[id as usize] == Some(key) {
                    ids.push(id);
                }
                false
            });
            ids.sort_unstable();
            ids
        }

        /// Every stored entry sits no farther from its home than the first
        /// empty slot after it allows: what lets `find` stop there.
        fn check_runs(&self) {
            let t = &self.table;
            if t.slots.is_empty() {
                return;
            }
            let mask = t.mask();
            for (i, s) in t.slots.iter().enumerate() {
                if s.id == EMPTY_ID {
                    continue;
                }
                let mut k = t.home(s.tag);
                while k != i {
                    assert!(t.slots[k].id != EMPTY_ID, "gap before slot {i}");
                    k = (k + 1) & mask;
                }
            }
            let stored = t.slots.iter().filter(|s| s.id != EMPTY_ID).count();
            assert_eq!(stored, t.len());
            assert!(t.len() * 4 <= t.slots.len() * 3, "load above 3/4");
        }
    }

    /// Interleaved finds and inserts against `HashMap`, ids handed out in
    /// insert order as the dictionaries do.
    fn run_model(seed: u64, key_range: u64, steps: usize, hash: fn(u64) -> u64) {
        let mut rng = SplitMix64::new(seed);
        let mut model = Model {
            table: IdTable::new(),
            keys: Vec::new(),
            hash,
        };
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for step in 0..steps {
            let key = rng.next_below(key_range);
            let want = reference.get(&key).copied();
            if rng.next_below(2) == 0 {
                assert_eq!(model.find(key), want, "seed {seed} step {step}");
            } else {
                let id = model.keys.len() as u32;
                assert_eq!(
                    model.find_or_insert(key, id),
                    want,
                    "seed {seed} step {step}"
                );
                if want.is_none() {
                    model.keys.push(Some(key));
                    reference.insert(key, id);
                }
            }
            assert_eq!(
                model.table.len(),
                reference.len(),
                "seed {seed} step {step}"
            );
            if step % 97 == 0 {
                model.check_runs();
            }
        }
        model.check_runs();
        for key in 0..key_range {
            let want = reference.get(&key).copied();
            assert_eq!(model.find(key), want, "seed {seed} key {key}");
        }
    }

    fn fx(key: u64) -> u64 {
        crate::fxhash::fx_hash(&key)
    }

    #[test]
    fn table_matches_a_hash_map_model() {
        for seed in 1..=8 {
            run_model(seed, 2_000, 20_000, fx);
        }
    }

    #[test]
    fn table_matches_the_model_under_forced_tag_collisions() {
        // Eight tags for all keys: tags collide all the time, and the
        // table must tell keys apart by asking the caller.
        fn eight(key: u64) -> u64 {
            hash_with_tag((key % 8) as u32 * 0x1357_9BDF, key as u32)
        }
        for seed in 1..=4 {
            run_model(seed, 300, 5_000, eight);
        }
    }

    #[test]
    fn probe_runs_wrap_past_the_end() {
        // Every key's home is the last slot, so the run wraps to slot 0.
        fn last(key: u64) -> u64 {
            hash_with_tag(u32::MAX, key as u32)
        }
        let mut t = IdTable::with_capacity(5);
        assert_eq!(t.slots.len(), 8);
        let keys = [10u64, 11, 12, 13, 14];
        let find = |t: &IdTable, k: u64| t.find(last(k), |id| keys[id as usize] == k);
        for (id, &k) in keys.iter().enumerate() {
            assert_eq!(t.home(tag_of(last(k))), 7);
            assert_eq!(t.find_or_insert(last(k), id as u32, |_| false), None);
        }
        assert_eq!(t.slots.len(), 8, "five ids fit eight slots at 3/4");
        assert_eq!(t.slots[7].id, 0);
        assert_eq!(t.slots[3].id, 4);
        for (id, &k) in keys.iter().enumerate() {
            assert_eq!(find(&t, k), Some(id as u32));
        }
        assert_eq!(find(&t, 15), None);
        for seed in 1..=4 {
            run_model(seed, 40, 2_000, last);
        }
    }

    /// Interleaved inserts of fresh ids (duplicate keys included) and
    /// removals against a `HashMap` of id bags. A removal names an id
    /// stored under the key, one already removed from it, or one never
    /// stored: an id is only ever removed under the hash it was stored
    /// with, as the catalog does.
    fn run_bag_model(seed: u64, key_range: u64, steps: usize, hash: fn(u64) -> u64) {
        let mut rng = SplitMix64::new(seed);
        let mut model = Model {
            table: IdTable::new(),
            keys: Vec::new(),
            hash,
        };
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut removed: HashMap<u64, Vec<u32>> = HashMap::new();
        for step in 0..steps {
            let key = rng.next_below(key_range);
            // Insert a little more often than remove, so the table grows,
            // empties runs and grows again.
            if rng.next_below(5) < 3 {
                let id = model.keys.len() as u32;
                model.keys.push(Some(key));
                model.table.insert(hash(key), id);
                reference.entry(key).or_default().push(id);
            } else {
                let bag = reference.entry(key).or_default();
                let gone = removed.entry(key).or_default();
                let (id, held) = match rng.next_below(4) {
                    0 if !gone.is_empty() => {
                        (gone[rng.next_below(gone.len() as u64) as usize], false)
                    }
                    0 | 1 => (model.keys.len() as u32 + 7, false),
                    _ if bag.is_empty() => (model.keys.len() as u32, false),
                    _ => (
                        bag.swap_remove(rng.next_below(bag.len() as u64) as usize),
                        true,
                    ),
                };
                if held {
                    gone.push(id);
                }
                assert_eq!(
                    model.table.remove(hash(key), id),
                    held,
                    "seed {seed} step {step}"
                );
            }
            let stored: usize = reference.values().map(Vec::len).sum();
            assert_eq!(model.table.len(), stored, "seed {seed} step {step}");
            let mut want = reference.get(&key).cloned().unwrap_or_default();
            want.sort_unstable();
            assert_eq!(model.bag(key), want, "seed {seed} step {step}");
            if step % 53 == 0 {
                model.check_runs();
            }
        }
        model.check_runs();
        for key in 0..key_range {
            let mut want = reference.get(&key).cloned().unwrap_or_default();
            want.sort_unstable();
            assert_eq!(model.bag(key), want, "seed {seed} key {key}");
        }
    }

    #[test]
    fn bag_inserts_and_removals_match_a_hash_map_model() {
        fn eight(key: u64) -> u64 {
            hash_with_tag((key % 8) as u32 * 0x1357_9BDF, key as u32)
        }
        fn last(key: u64) -> u64 {
            hash_with_tag(u32::MAX, key as u32)
        }
        for seed in 1..=6 {
            run_bag_model(seed, 500, 12_000, fx);
            run_bag_model(seed, 20, 3_000, fx);
        }
        for seed in 1..=4 {
            run_bag_model(seed, 200, 4_000, eight);
            run_bag_model(seed, 30, 2_000, last);
        }
    }

    #[test]
    fn removal_inside_a_wrapped_run_shifts_the_rest_back() {
        // Every key's home is slot 7, so ids 0..5 fill slots 7, 0, 1, 2, 3.
        fn last(key: u64) -> u64 {
            hash_with_tag(u32::MAX, key as u32)
        }
        let mut t = IdTable::with_capacity(5);
        for id in 0..5 {
            t.insert(last(id as u64), id);
        }
        let at = |t: &IdTable| t.slots.iter().map(|s| s.id).collect::<Vec<_>>();
        assert_eq!(at(&t), [1, 2, 3, 4, EMPTY_ID, EMPTY_ID, EMPTY_ID, 0]);
        // Removing from the middle of the run, and across the wrap, keeps
        // it contiguous from slot 7.
        assert!(t.remove(last(2), 2));
        assert_eq!(at(&t), [1, 3, 4, EMPTY_ID, EMPTY_ID, EMPTY_ID, EMPTY_ID, 0]);
        assert!(t.remove(last(0), 0));
        assert_eq!(
            at(&t),
            [3, 4, EMPTY_ID, EMPTY_ID, EMPTY_ID, EMPTY_ID, EMPTY_ID, 1]
        );
        assert!(!t.remove(last(0), 0), "already gone");
        assert_eq!(t.len(), 3);
        // An entry at its home stays put when one before it goes.
        let mut t = IdTable::with_capacity(5);
        let home = |slot: u32| hash_with_tag(slot << 29, 0);
        t.insert(home(1), 10);
        t.insert(home(1), 11);
        t.insert(home(2), 12);
        assert_eq!(at(&t)[1..4], [10, 11, 12]);
        assert!(t.remove(home(1), 10));
        assert_eq!(at(&t)[1..4], [11, 12, EMPTY_ID]);
        assert!(t.remove(home(1), 11));
        assert_eq!(at(&t)[1..4], [EMPTY_ID, 12, EMPTY_ID]);
    }

    #[test]
    fn growth_after_removals_counts_what_is_stored() {
        let mut t = IdTable::new();
        for id in 0..6 {
            t.insert(fx(id as u64 % 2), id);
        }
        assert_eq!((t.len(), t.slots.len()), (6, 8));
        for id in 0..3 {
            assert!(t.remove(fx(id as u64 % 2), id));
        }
        for id in 6..9 {
            t.insert(fx(id as u64 % 2), id);
        }
        assert_eq!((t.len(), t.slots.len()), (6, 8), "refilled, not grown");
        t.insert(fx(1), 9);
        assert_eq!((t.len(), t.slots.len()), (7, 16));
        let model = Model {
            table: t,
            keys: (0..10).map(|id| Some(id % 2)).collect(),
            hash: fx,
        };
        model.check_runs();
        assert_eq!(model.bag(0), [4, 6, 8]);
        assert_eq!(model.bag(1), [3, 5, 7, 9]);
    }

    #[test]
    fn growth_doubles_at_three_quarters() {
        let mut t = IdTable::new();
        assert_eq!(t.heap_bytes(), 0);
        assert_eq!(t.find(fx(1), |_| true), None);
        let mut sizes = Vec::new();
        for id in 0..100u32 {
            assert_eq!(t.find_or_insert(fx(id as u64), id, |c| c == id), None);
            sizes.push(t.slots.len());
            if id == 5 {
                // Full to 3/4: finding a stored key does not grow it.
                assert_eq!(t.find_or_insert(fx(3), 99, |c| c == 3), Some(3));
                assert_eq!((t.len(), t.slots.len()), (6, 8));
            }
        }
        assert_eq!(sizes[5], 8);
        assert_eq!(sizes[6], 16);
        assert_eq!(sizes[12], 32);
        assert_eq!(sizes[99], 256);
        assert_eq!(t.heap_bytes(), 256 * 8);
        for id in 0..100u32 {
            assert_eq!(t.find(fx(id as u64), |c| c == id), Some(id));
        }
        assert_eq!(IdTable::with_capacity(96).slots.len(), 128);
        assert_eq!(IdTable::with_capacity(97).slots.len(), 256);
    }
}
