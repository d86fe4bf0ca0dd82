//! The metrics record path allocates nothing: a counter bump, a histogram
//! record and the accounting of a fast, successful protocol operation run
//! on every request, so each must be a handful of atomic operations and no
//! heap traffic. Only an operation that goes to the slow-op trace ring —
//! slow or failed — may pay for its detail string. Linking
//! `graphgen-bench` installs its `CountingAlloc` as this test binary's
//! global allocator, so `alloc::measure` sees every byte.
//!
//! Kept as a single `#[test]` on purpose: `alloc::measure` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_common::metrics::{Counter, Histogram};
use graphgen_serve::protocol::Verb;
use graphgen_serve::Obs;
use std::time::Instant;

#[test]
fn metrics_record_path_allocates_nothing() {
    const SLOW_NS: u64 = 1_000_000;
    let obs = Obs::new(SLOW_NS, 8);
    let counter = Counter::new();
    let hist = Histogram::new();
    let graph = String::from("coauthors");
    let start = Instant::now();

    let (_, fast) = alloc::measure(|| {
        for i in 0..1_000u64 {
            counter.inc();
            hist.record(i);
            hist.record_since(start);
            obs.record_op(Verb::Neighbors, || graph.clone(), true, i, Vec::new());
        }
    });
    assert_eq!(
        fast.total, 0,
        "the record path allocated {} bytes over 1,000 fast requests",
        fast.total
    );
    assert_eq!(counter.get(), 1_000);
    assert_eq!(hist.count(), 2_000);
    assert_eq!(obs.m.requests_total.get(), 1_000);
    assert!(obs.trace().is_empty(), "a fast, successful op was traced");

    // A slow op still lands in the ring, with its detail.
    obs.record_op(Verb::Neighbors, || graph.clone(), true, SLOW_NS, Vec::new());
    let events = obs.trace().drain(None);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].detail, "coauthors");
    assert_eq!(obs.m.slow_ops_total.get(), 1);
}
