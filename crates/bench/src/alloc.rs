//! Allocation accounting for the experiment binaries.
//!
//! A [`CountingAlloc`] wraps the system allocator and keeps three atomic
//! counters: bytes allocated in total, bytes currently live, and the peak of
//! the live count. Installing it (this crate does, via `#[global_allocator]`
//! in `lib.rs`) lets every bench binary report *bytes allocated* and *peak
//! resident bytes* per measured region — the numbers the extraction pipeline
//! claims to improve — without any external profiler.
//!
//! On top of the global counters, every allocation is attributed to the
//! **operator region** the allocating thread is in
//! (`graphgen_common::region`: scan / join build / join probe / DISTINCT,
//! set by the `reldb` physical operators), so [`region_stats`] breaks the
//! total down per operator and the next allocation hotspot is a line in a
//! table instead of a guess.

use graphgen_common::region::{self, Region, ALL_REGIONS, REGION_COUNT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static TOTAL: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static REGION_BYTES: [AtomicUsize; REGION_COUNT] = [const { AtomicUsize::new(0) }; REGION_COUNT];
static REGION_ALLOCS: [AtomicUsize; REGION_COUNT] = [const { AtomicUsize::new(0) }; REGION_COUNT];

/// System-allocator wrapper that counts total / live / peak bytes.
pub struct CountingAlloc;

// SAFETY: delegates every allocation verbatim to `System`; the counters are
// pure bookkeeping and never influence allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            record_alloc(new_size);
        }
        new_ptr
    }
}

fn record_alloc(size: usize) {
    TOTAL.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let r = region::current() as usize;
    REGION_BYTES[r].fetch_add(size, Ordering::Relaxed);
    REGION_ALLOCS[r].fetch_add(1, Ordering::Relaxed);
}

/// Counter snapshot (or, from [`measure`], deltas for one region).
#[derive(Debug, Clone, Copy)]
pub struct AllocStats {
    /// Bytes allocated (cumulative, frees not subtracted).
    pub total: usize,
    /// Bytes live right now.
    pub live: usize,
    /// Peak live bytes.
    pub peak: usize,
}

/// Read the raw counters.
///
/// `peak` is the high-water mark **since the last [`measure`] call** (each
/// measured region resets it to its entry baseline so regions are
/// comparable), not since process start.
pub fn stats() -> AllocStats {
    AllocStats {
        total: TOTAL.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Run `f` and report what it allocated: `total` is the bytes allocated
/// during the call and `peak` the high-water mark of live bytes *above* the
/// live baseline at entry (so back-to-back regions are comparable).
///
/// Resets the global peak counter to the entry baseline, so it is **not
/// reentrant** — nesting `measure` inside a measured closure corrupts the
/// outer region's `peak`, and a later [`stats`] read reports the peak since
/// this call. The bench bins measure disjoint regions only.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let before_total = TOTAL.load(Ordering::Relaxed);
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = f();
    let after = stats();
    (
        out,
        AllocStats {
            total: after.total - before_total,
            live: after.live.saturating_sub(baseline),
            peak: after.peak.saturating_sub(baseline),
        },
    )
}

/// Allocation totals of one operator region.
#[derive(Debug, Clone, Copy)]
pub struct RegionStats {
    /// Which region the numbers belong to.
    pub region: Region,
    /// Bytes allocated while a thread was in the region (cumulative).
    pub bytes: usize,
    /// Number of allocations in the region.
    pub allocs: usize,
}

/// Per-region allocation totals, in `ALL_REGIONS` order. Regions are
/// labeled by the `reldb` operators (scan / build / probe / distinct);
/// `general` is everything else.
pub fn region_stats() -> Vec<RegionStats> {
    ALL_REGIONS
        .iter()
        .map(|&region| RegionStats {
            region,
            bytes: REGION_BYTES[region as usize].load(Ordering::Relaxed),
            allocs: REGION_ALLOCS[region as usize].load(Ordering::Relaxed),
        })
        .collect()
}

/// Run `f` and report the per-region allocation deltas during the call
/// (alongside the return value). Concurrent measurement from other threads
/// is attributed like everything else — bench binaries measure one region
/// at a time.
pub fn measure_regions<T>(f: impl FnOnce() -> T) -> (T, Vec<RegionStats>) {
    let before = region_stats();
    let out = f();
    let after = region_stats();
    let deltas = before
        .into_iter()
        .zip(after)
        .map(|(b, a)| RegionStats {
            region: a.region,
            bytes: a.bytes - b.bytes,
            allocs: a.allocs - b.allocs,
        })
        .collect();
    (out, deltas)
}

/// Human-readable byte count (binary units, one decimal).
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_sees_allocations() {
        let (v, stats) = measure(|| vec![0u8; 1 << 20]);
        assert_eq!(v.len(), 1 << 20);
        assert!(stats.total >= 1 << 20, "total {}", stats.total);
        assert!(stats.peak >= 1 << 20, "peak {}", stats.peak);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KiB");
        assert_eq!(human_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn regions_attribute_operator_allocations() {
        let (_, deltas) = measure_regions(|| {
            let _g = region::enter(Region::Probe);
            std::hint::black_box(vec![0u8; 1 << 16])
        });
        let probe = deltas.iter().find(|d| d.region == Region::Probe).unwrap();
        assert!(probe.bytes >= 1 << 16, "probe bytes {}", probe.bytes);
        assert!(probe.allocs >= 1);
    }

    #[test]
    fn real_operators_label_their_regions() {
        use graphgen_reldb::exec;
        let keys: Vec<u64> = (0..4000).map(|i| exec::pack(i % 97 + 1, i + 1)).collect();
        let (_, deltas) = measure_regions(|| {
            let bag = exec::group_pairs(keys.clone(), 2).unwrap();
            exec::join_counted(&bag, &bag, 2).unwrap()
        });
        let by_region = |r: Region| deltas.iter().find(|d| d.region == r).unwrap().bytes;
        assert!(by_region(Region::Build) > 0, "build not attributed");
        assert!(by_region(Region::Probe) > 0, "probe not attributed");
        assert!(by_region(Region::Distinct) > 0, "distinct not attributed");
    }
}
