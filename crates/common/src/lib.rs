//! Shared utilities for the GraphGen workspace.
//!
//! This crate deliberately has no heavyweight dependencies: it provides the
//! small, hot building blocks used everywhere else — a fast non-cryptographic
//! hasher (a re-implementation of the FxHash algorithm used by rustc, since
//! `rustc-hash` is not part of our allowed dependency set), a compact bitmap,
//! dense id interning over an index-only id table, heap-size accounting,
//! deterministic RNG helpers, and the morsel/partition scoped-thread
//! helpers behind every parallel operator.

pub mod bitmap;
pub mod bytesize;
pub mod codec;
pub mod fxhash;
pub mod idmap;
pub mod idtable;
pub mod metrics;
pub mod ordering;
pub mod parallel;
pub mod region;

pub use bitmap::Bitmap;
pub use bytesize::ByteSize;
pub use codec::{CodecError, Reader};
pub use fxhash::{fx_hash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use idmap::IdMap;
pub use idtable::IdTable;
pub use ordering::VertexOrdering;

/// A simple deterministic splitmix64 PRNG for places where we want
/// reproducible tie-breaking without threading a `rand` generator through.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant so the stream is never degenerate.
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift; the slight bias is irrelevant for
        // tie-breaking and synthetic data generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_zero_seed_not_degenerate() {
        let mut rng = SplitMix64::new(0);
        let first = rng.next_u64();
        let second = rng.next_u64();
        assert_ne!(first, second);
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
