//! Dense id interning.
//!
//! Graph extraction maps arbitrary key values (author ids, customer keys,
//! strings…) to dense `u32` node ids; all downstream structures index by the
//! dense id. `IdMap` is the single place this translation happens.
//!
//! Each key is stored once, in `reverse` at its id. The forward index is an
//! [`IdTable`]: 8-byte slots of an id and a tag from the key's FxHash, at
//! most 3/4 full, doubling when an insert would pass that. A lookup hashes
//! the key, and on a tag match compares it with `reverse[id]`, so the
//! table never holds a copy of a key. An intern offers the table the next
//! id, which it stores at the end of the same probe run if the key is new.

use crate::bytesize::ByteSize;
use crate::fxhash::fx_hash;
use crate::idtable::IdTable;
use std::hash::Hash;

/// Interns values of type `K` into dense `u32` ids (0, 1, 2, …) and keeps
/// the reverse mapping for lookups back to the original key.
#[derive(Debug, Clone)]
pub struct IdMap<K> {
    /// Forward index: the id of each key, found by comparing `reverse`.
    forward: IdTable,
    reverse: Vec<K>,
}

impl<K: Eq + Hash> Default for IdMap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash> IdMap<K> {
    /// New, empty map.
    pub fn new() -> Self {
        Self {
            forward: IdTable::new(),
            reverse: Vec::new(),
        }
    }

    /// New map with capacity for `n` keys.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            forward: IdTable::with_capacity(n),
            reverse: Vec::with_capacity(n),
        }
    }

    /// Intern `key`, returning its dense id (allocating a new one if unseen).
    pub fn intern(&mut self, key: K) -> u32 {
        let (id, new) = self.find_or_offer(&key);
        if new {
            self.reverse.push(key);
        }
        id
    }

    /// Intern a borrowed `key`: one probe, and a clone only if it is new.
    pub fn intern_cloned(&mut self, key: &K) -> u32
    where
        K: Clone,
    {
        let (id, new) = self.find_or_offer(key);
        if new {
            self.reverse.push(key.clone());
        }
        id
    }

    /// The id of `key`, or the next id, stored in the index for a key the
    /// caller then pushes (`true`).
    fn find_or_offer(&mut self, key: &K) -> (u32, bool) {
        let next = u32::try_from(self.reverse.len()).expect("more than u32::MAX interned ids");
        let reverse = &self.reverse;
        let found = self
            .forward
            .find_or_insert(fx_hash(key), next, |id| reverse[id as usize] == *key);
        found.map_or((next, true), |id| (id, false))
    }

    /// Look up the dense id of `key` without inserting.
    pub fn get(&self, key: &K) -> Option<u32> {
        self.forward
            .find(fx_hash(key), |id| self.reverse[id as usize] == *key)
    }

    /// The original key for dense id `id`.
    pub fn key_of(&self, id: u32) -> &K {
        &self.reverse[id as usize]
    }

    /// The key of `id`, or `None` past the last id.
    pub fn try_key_of(&self, id: u32) -> Option<&K> {
        self.reverse.get(id as usize)
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Iterate `(dense_id, key)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &K)> {
        self.reverse.iter().enumerate().map(|(i, k)| (i as u32, k))
    }
}

impl<K: ByteSize> ByteSize for IdMap<K> {
    /// The id table and the key vector, from their capacities.
    fn heap_bytes(&self) -> usize {
        self.forward.heap_bytes() + self.reverse.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut map = IdMap::new();
        let a = map.intern("alice");
        let b = map.intern("bob");
        let a2 = map.intern("alice");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut map = IdMap::new();
        for i in 0..100u64 {
            assert_eq!(map.intern(i * 7), i as u32);
        }
    }

    #[test]
    fn intern_cloned_matches_intern() {
        let mut map = IdMap::new();
        let a = map.intern_cloned(&"alice".to_string());
        assert_eq!(map.intern("alice".to_string()), a);
        assert_eq!(map.intern_cloned(&"bob".to_string()), a + 1);
        assert_eq!(map.intern_cloned(&"alice".to_string()), a);
        assert_eq!(map.len(), 2);
        assert_eq!(map.try_key_of(a + 1).map(String::as_str), Some("bob"));
        assert_eq!(map.try_key_of(a + 2), None);
    }

    #[test]
    fn reverse_lookup() {
        let mut map = IdMap::new();
        let id = map.intern("key".to_string());
        assert_eq!(map.key_of(id), "key");
        assert_eq!(map.get(&"key".to_string()), Some(id));
        assert_eq!(map.get(&"missing".to_string()), None);
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut map = IdMap::new();
        map.intern('c');
        map.intern('a');
        map.intern('b');
        let pairs: Vec<(u32, char)> = map.iter().map(|(i, &k)| (i, k)).collect();
        assert_eq!(pairs, vec![(0, 'c'), (1, 'a'), (2, 'b')]);
    }
}
