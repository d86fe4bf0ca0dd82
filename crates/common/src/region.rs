//! Per-operator allocation-region labels.
//!
//! The counting allocator in `graphgen-bench` attributes every allocation
//! to the region the allocating thread is currently in, so bench binaries
//! can report *which operator* (scan / join build / join probe / DISTINCT)
//! allocated how much — the breakdown that makes the next allocation
//! hotspot attributable instead of a single opaque total.
//!
//! The label lives in a `const`-initialized thread-local `Cell`, so reading
//! it never allocates — a hard requirement, since the global allocator
//! itself reads it on every allocation. Operators set it with a scoped
//! [`enter`] guard; worker threads spawned inside a parallel operator set
//! it again inside their closures (thread-locals do not inherit).

use std::cell::Cell;

/// The regions an allocation can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Region {
    /// Anything outside a labeled operator.
    General = 0,
    /// Filtered scan + projection, copying ids out of a table's id columns
    /// (`scan_project`).
    Scan = 1,
    /// The run offsets of a bag, which a join reads its atom side through
    /// (`join_runs`): written with the bag by the grouping and the bag
    /// builder, so a join builds nothing before it probes.
    Build = 2,
    /// Counted-join probe + grouped output handed to the join's consumer
    /// (`join_runs`): the collected bag of `join_counted`, or the out-lists
    /// a batch extraction's direct route writes.
    Probe = 3,
    /// GROUP BY over packed id pairs, which is the `DISTINCT`
    /// (`group_pairs`), and the transpose that derives a self-join's
    /// second bag from its first (`Bag::transpose`).
    Distinct = 4,
    /// Representation construction + preprocessing (`build_rep`).
    BuildRep = 5,
    /// Writer pre-validation of a delta batch.
    Validate = 6,
    /// WAL record encode + append (+ optional fsync).
    WalAppend = 7,
    /// The delta-maintenance state: its bulk load at extraction (the
    /// `load_state` span) and the in-place graph patch from a delta.
    Patch = 8,
    /// Reader-visible snapshot construction + publication.
    Publish = 9,
    /// WAL replay / snapshot load on startup.
    Recovery = 10,
    /// Analytics computation (pagerank / components workers).
    Analyze = 11,
}

/// Number of distinct [`Region`] values (array-sizing constant for
/// per-region counters).
pub const REGION_COUNT: usize = 12;

/// All regions, in tag order.
pub const ALL_REGIONS: [Region; REGION_COUNT] = [
    Region::General,
    Region::Scan,
    Region::Build,
    Region::Probe,
    Region::Distinct,
    Region::BuildRep,
    Region::Validate,
    Region::WalAppend,
    Region::Patch,
    Region::Publish,
    Region::Recovery,
    Region::Analyze,
];

impl Region {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            Region::General => "general",
            Region::Scan => "scan",
            Region::Build => "build",
            Region::Probe => "probe",
            Region::Distinct => "distinct",
            Region::BuildRep => "build_rep",
            Region::Validate => "validate",
            Region::WalAppend => "wal_append",
            Region::Patch => "patch",
            Region::Publish => "publish",
            Region::Recovery => "recovery",
            Region::Analyze => "analyze",
        }
    }

    fn from_u8(v: u8) -> Region {
        match v {
            1 => Region::Scan,
            2 => Region::Build,
            3 => Region::Probe,
            4 => Region::Distinct,
            5 => Region::BuildRep,
            6 => Region::Validate,
            7 => Region::WalAppend,
            8 => Region::Patch,
            9 => Region::Publish,
            10 => Region::Recovery,
            11 => Region::Analyze,
            _ => Region::General,
        }
    }
}

thread_local! {
    static CURRENT: Cell<u8> = const { Cell::new(0) };
}

/// The region the current thread is in. Never allocates; returns
/// [`Region::General`] during thread teardown (after TLS destruction).
#[inline]
pub fn current() -> Region {
    CURRENT
        .try_with(|c| Region::from_u8(c.get()))
        .unwrap_or(Region::General)
}

/// Enter `region` on this thread until the returned guard drops (the
/// previous region is restored — regions nest).
pub fn enter(region: Region) -> RegionGuard {
    let prev = CURRENT
        .try_with(|c| c.replace(region as u8))
        .unwrap_or(Region::General as u8);
    RegionGuard { prev }
}

/// Restores the previous region on drop. See [`enter`].
#[must_use = "dropping the guard immediately exits the region"]
pub struct RegionGuard {
    prev: u8,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let _ = CURRENT.try_with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_general() {
        assert_eq!(current(), Region::General);
    }

    #[test]
    fn enter_nests_and_restores() {
        assert_eq!(current(), Region::General);
        {
            let _a = enter(Region::Scan);
            assert_eq!(current(), Region::Scan);
            {
                let _b = enter(Region::Probe);
                assert_eq!(current(), Region::Probe);
            }
            assert_eq!(current(), Region::Scan);
        }
        assert_eq!(current(), Region::General);
    }

    #[test]
    fn regions_are_per_thread() {
        let _outer = enter(Region::Distinct);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(current(), Region::General);
                let _g = enter(Region::Build);
                assert_eq!(current(), Region::Build);
            });
        });
        assert_eq!(current(), Region::Distinct);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = ALL_REGIONS.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            vec![
                "general",
                "scan",
                "build",
                "probe",
                "distinct",
                "build_rep",
                "validate",
                "wal_append",
                "patch",
                "publish",
                "recovery",
                "analyze"
            ]
        );
    }
}
