//! Heap-size accounting.
//!
//! The paper reports memory footprints for every representation (Table 3,
//! Table 4, Fig. 10 discussion). We reproduce those columns by having every
//! data structure report its estimated heap usage through this trait. This
//! is an *estimate* — it counts the payload bytes of owned heap allocations
//! (vector buffers, hash-table tables, boxed slices) using their capacities,
//! without allocator bookkeeping overhead.

/// Types that can estimate the heap bytes they own.
pub trait ByteSize {
    /// Estimated bytes of owned heap storage (excluding `size_of::<Self>()`).
    fn heap_bytes(&self) -> usize;

    /// Heap bytes plus the inline size of the value itself.
    fn total_bytes(&self) -> usize {
        self.heap_bytes() + std::mem::size_of_val(self)
    }
}

impl<T: ByteSize> ByteSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(ByteSize::heap_bytes).sum::<usize>()
    }
}

impl ByteSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

/// Marker macro: implement `ByteSize` for plain-old-data types that own no
/// heap memory themselves.
macro_rules! impl_bytesize_pod {
    ($($ty:ty),* $(,)?) => {
        $(impl ByteSize for $ty {
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

impl_bytesize_pod!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl<A: ByteSize, B: ByteSize> ByteSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<T: ByteSize> ByteSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, ByteSize::heap_bytes)
    }
}

impl<T: ByteSize> ByteSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.iter().map(ByteSize::heap_bytes).sum::<usize>()
    }
}

/// The bytes of a hash table's allocation holding `capacity` usable slots
/// of `slot` bytes each. `capacity()` is seven eighths of the buckets (all
/// but one below 8), and the table allocates every bucket plus one control
/// byte per bucket and a trailing group of 16; an empty table allocates
/// nothing.
fn table_bytes(capacity: usize, slot: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8 / 7).next_power_of_two();
    buckets * slot + buckets + 16
}

impl<K, V, S> ByteSize for std::collections::HashMap<K, V, S>
where
    K: ByteSize,
    V: ByteSize,
{
    fn heap_bytes(&self) -> usize {
        table_bytes(self.capacity(), std::mem::size_of::<(K, V)>())
            + self
                .iter()
                .map(|(k, v)| k.heap_bytes() + v.heap_bytes())
                .sum::<usize>()
    }
}

impl<K, S> ByteSize for std::collections::HashSet<K, S>
where
    K: ByteSize,
{
    fn heap_bytes(&self) -> usize {
        table_bytes(self.capacity(), std::mem::size_of::<K>())
            + self.iter().map(ByteSize::heap_bytes).sum::<usize>()
    }
}

impl ByteSize for crate::Bitmap {
    fn heap_bytes(&self) -> usize {
        crate::Bitmap::heap_bytes(self)
    }
}

/// Make room for `extra` more entries in `v`: a full vector grows by an
/// eighth of its length (at least `extra`), never by doubling, so a
/// vector written entry by entry holds at most an eighth (plus one entry)
/// more than it needs, for one reallocation per `len / 8` entries.
pub fn grow_by_eighth<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.len() / 8 + 1));
    }
}

/// Format a byte count as a human-readable string (e.g. `1.42 GB`).
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_of_pod_counts_capacity() {
        let v: Vec<u32> = Vec::with_capacity(100);
        assert_eq!(v.heap_bytes(), 400);
    }

    #[test]
    fn nested_vec_counts_inner_buffers() {
        let v: Vec<Vec<u8>> = vec![Vec::with_capacity(10), Vec::with_capacity(20)];
        let expected = v.capacity() * std::mem::size_of::<Vec<u8>>() + 10 + 20;
        assert_eq!(v.heap_bytes(), expected);
    }

    #[test]
    fn string_counts_capacity() {
        let s = String::with_capacity(64);
        assert_eq!(s.heap_bytes(), 64);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MB");
    }

    /// A table's estimate is its buckets — a power of two, an eighth more
    /// than its usable capacity — each with a control byte, plus a
    /// trailing control group.
    #[test]
    fn hash_tables_count_buckets_and_control_bytes() {
        use std::collections::{HashMap, HashSet};
        assert_eq!(HashMap::<u64, u64>::new().heap_bytes(), 0);
        // (requested capacity, buckets)
        for (want, buckets) in [(3, 4), (7, 8), (8, 16), (14, 16), (100, 128)] {
            let map = HashMap::<u64, u64>::with_capacity(want);
            assert_eq!(map.heap_bytes(), buckets * 16 + buckets + 16, "{want}");
            let set = HashSet::<u32>::with_capacity(want);
            assert_eq!(set.heap_bytes(), buckets * 4 + buckets + 16, "{want}");
        }
    }

    #[test]
    fn growth_by_an_eighth_leaves_at_most_an_eighth_spare() {
        let mut v: Vec<u32> = Vec::new();
        for i in 0..10_000 {
            grow_by_eighth(&mut v, 3);
            v.extend([i; 3]);
            assert!(v.capacity() <= v.len() + v.len() / 8 + 3, "{}", v.len());
        }
    }

    #[test]
    fn option_and_tuple() {
        let some: Option<Vec<u8>> = Some(Vec::with_capacity(8));
        assert_eq!(some.heap_bytes(), 8);
        let none: Option<Vec<u8>> = None;
        assert_eq!(none.heap_bytes(), 0);
        let pair = (Vec::<u8>::with_capacity(4), 0u64);
        assert_eq!(pair.heap_bytes(), 4);
    }
}
