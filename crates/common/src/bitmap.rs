//! A compact, fixed-capacity bitmap.
//!
//! The BITMAP representations (§4.3, §5.1 of the paper) attach, to a virtual
//! node, one bitmap per interested real source node; bit `i` says whether the
//! traversal coming from that source should follow the virtual node's `i`-th
//! outgoing edge. Bitmaps are sized once (to the out-degree of the virtual
//! node) and then only read/set, so a plain `Box<[u64]>` is ideal.

/// A fixed-size bitmap over `len` bits, stored as 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Box<[u64]>,
    len: usize,
}

impl Bitmap {
    /// Create a bitmap with `len` bits, all zero.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }

    /// Create a bitmap with `len` bits, all one.
    pub fn ones(len: usize) -> Self {
        let mut bitmap = Self {
            words: vec![u64::MAX; len.div_ceil(64)].into_boxed_slice(),
            len,
        };
        bitmap.clear_tail();
        bitmap
    }

    /// Zero out the bits beyond `len` in the last word so that `count_ones`
    /// and equality behave.
    fn clear_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`. Panics if out of range (debug builds).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to one.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Set bit `i` to zero.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Heap bytes used by the word storage.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert!(z.all_zero());
        let o = Bitmap::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!(!o.all_zero());
        for i in 0..100 {
            assert!(!z.get(i));
            assert!(o.get(i));
        }
    }

    #[test]
    fn ones_clears_tail_bits() {
        // 65 bits spans two words; bits 65..128 of the second word must be 0
        // or count_ones over-reports.
        let o = Bitmap::ones(65);
        assert_eq!(o.count_ones(), 65);
    }

    #[test]
    fn set_unset_roundtrip() {
        let mut b = Bitmap::zeros(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.unset(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert!(b.all_zero());
    }
}
