//! What a persistent `EXTRACT` allocates on the way to the graph it keeps.
//!
//! A persistent service writes `db.snap` in `create` and the graph's file
//! inside `EXTRACT`. The graph file is a header — version stamps, program,
//! frozen plan — since the database is the only durable state, and
//! `db.snap` streams to disk table by table, so persisting costs no more
//! than what an in-memory `EXTRACT` allocates anyway. This test pins that
//! with the counting allocator: `GraphService::create` plus `EXTRACT` on a
//! DBLP-shaped database may peak at no more than a multiple of the bytes
//! they retain.
//!
//! Measured at this shape (20,000 authors, 30,000 publications, seed 11;
//! release build, 1 and 2 threads):
//!
//! | graph file | retained | peak above entry | ratio |
//! |---|---|---|---|
//! | whole handle encoded into a buffer, copied behind the file header, the copy sealed | 14,786,604 B | 60,536,468 B | 4.09× (both) |
//! | no copy, streamed seal, but the handle still encoded into one buffer | 14,786,604 B | 34,082,586 B | 2.30× (both) |
//! | handle streamed section by section | 14,786,604 B | 20,159,103 / 17,763,127 B | 1.36× / 1.20× |
//! | handle streamed, after the state shrank (`GGSNAP6`) | 6,942,860 B | 9,086,433 B | 1.31× (both) |
//! | header only (`GGSVGR6`), no handle written | 6,942,828 B | 9,086,433 B | 1.31× (both) |
//!
//! The peak is the extraction's own; writing the handle added 5.3 MB of
//! allocations (30,800,832 → 25,516,266 B in total at one thread) but no
//! peak.
//!
//! Kept as a single `#[test]` on purpose: `alloc::measure` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_datagen::relational::DBLP_COAUTHORS;
use graphgen_datagen::{dblp_like, DblpConfig};
use graphgen_serve::testutil::TempDir;
use graphgen_serve::{GraphService, ServiceConfig};

/// Peak live bytes above entry, per byte retained, may not exceed this:
/// between streaming the snapshot file and encoding the handle into one
/// buffer first.
const MAX_PEAK_PER_RETAINED: f64 = 2.0;

#[test]
fn persistent_extract_peaks_under_a_multiple_of_what_it_keeps() {
    let db = dblp_like(DblpConfig {
        authors: 20_000,
        publications: 30_000,
        avg_authors_per_pub: 2.5,
        seed: 11,
    });
    let dir = TempDir::new("snapshot-bytes");
    let (service, m) = alloc::measure(|| {
        let service =
            GraphService::create(dir.path(), db, ServiceConfig::default()).expect("create");
        service.extract("g", DBLP_COAUTHORS).expect("extract");
        service
    });
    assert!(dir.path().join("g.graph.snap").exists(), "persistent");
    let snapshot = service.snapshot("g").expect("published");
    assert!(snapshot.handle().graph().stored_edge_count() > 0);
    let ratio = m.peak as f64 / m.live as f64;
    println!(
        "peak {} B above entry, {} B retained: {ratio:.2}x ({} B allocated)",
        m.peak, m.live, m.total
    );
    assert!(
        ratio <= MAX_PEAK_PER_RETAINED,
        "a persistent EXTRACT peaked at {} bytes above entry and retained {} bytes \
         ({ratio:.2}x, bound {MAX_PEAK_PER_RETAINED}x)",
        m.peak,
        m.live
    );
}
