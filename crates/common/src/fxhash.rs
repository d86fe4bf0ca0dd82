//! A from-scratch implementation of the Fx hashing algorithm (the fast,
//! non-cryptographic hash used inside rustc), plus `HashMap`/`HashSet` type
//! aliases built on it.
//!
//! GraphGen's hot paths hash small integer keys (node ids) billions of times:
//! the C-DUP on-the-fly deduplication keeps a hashset of seen neighbors per
//! `getNeighbors` call, and the BITMAP representations index bitmaps by
//! source node id. SipHash (std's default) is needlessly slow for this;
//! HashDoS is not a concern for an in-process analytics engine.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative constant used by the Fx algorithm (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hasher state. One `u64` of state, updated by rotate-xor-multiply.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// The 64-bit Fx hash of `value`, as an [`FxHashMap`] would compute it.
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        fx_hash(value)
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&(1u64, 2u64)), hash_of(&(1u64, 2u64)));
    }

    #[test]
    fn different_small_ints_spread() {
        // Adjacent keys must not collide: that is the whole point of the
        // multiply step.
        let hashes: std::collections::HashSet<u64> = (0u32..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_streams_with_different_lengths_differ() {
        // The length tag in `write` must distinguish prefix-padded inputs.
        assert_ne!(hash_of(&[1u8, 0, 0][..]), hash_of(&[1u8, 0][..]));
        assert_ne!(hash_of(&b"ab"[..]), hash_of(&b"ab\0"[..]));
    }

    #[test]
    fn map_and_set_work_end_to_end() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));
        let set: FxHashSet<u32> = (0..100).collect();
        assert_eq!(set.len(), 100);
        assert!(set.contains(&55));
    }

    #[test]
    fn string_hashing_matches_incremental_writes() {
        // Hash of a str goes through `write`; sanity-check chunking at the
        // 8-byte boundary.
        for len in 0..=24 {
            let s: String = "x".repeat(len);
            let h1 = hash_of(&s.as_str());
            let h2 = hash_of(&s.as_str());
            assert_eq!(h1, h2, "len {len}");
        }
    }
}
