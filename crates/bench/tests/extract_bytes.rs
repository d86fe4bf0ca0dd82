//! What a batch extraction allocates on the way to the graph it keeps.
//!
//! A default extraction of a sparse co-author graph takes the direct route:
//! no large-output join, so the EXP is built from the segment query's
//! output. That route hands each author's joined run straight to the
//! author's out-list and scans the self-joined table once, so the peak of
//! live bytes above entry is the handle it returns plus the atom bags the
//! join reads, not a materialised joined bag on top. This test pins that
//! with the counting allocator: the peak must stay under a multiple of the
//! bytes the handle retains, a bound that collecting the joined bag and
//! scanning the table twice exceeds (2.6× on this shape).
//!
//! Kept as a single `#[test]` on purpose: `alloc::measure` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_core::{AnyGraph, GraphGen, GraphGenConfig};
use graphgen_datagen::relational::DBLP_COAUTHORS;
use graphgen_datagen::{dblp_like, DblpConfig};

/// Peak live bytes above entry, per byte the handle retains, may not
/// exceed this: between the direct route that cuts each join run into
/// out-lists (1.5×) and one that collects the joined bag first (2.6×).
const MAX_PEAK_PER_RETAINED: f64 = 2.0;

#[test]
fn direct_extraction_peaks_under_a_multiple_of_what_it_keeps() {
    let db = dblp_like(DblpConfig {
        authors: 25_000,
        publications: 33_000,
        avg_authors_per_pub: 2.5,
        seed: 1,
    });
    // On two threads every operator of the route fans out, on eight the
    // join and the EXP build take eight: a parallel operator that bought
    // its speed with a transient buffer per thread fails here.
    for threads in [1, 2, 8] {
        let cfg = GraphGenConfig::builder().threads(threads).build();
        let gg = GraphGen::with_config(&db, cfg);
        let (handle, m) = alloc::measure(|| gg.extract(DBLP_COAUTHORS).expect("extract"));
        assert!(matches!(handle.graph(), AnyGraph::Exp(_)), "direct route");
        assert!(handle.graph().expanded_edge_count() > 0);
        let ratio = m.peak as f64 / m.live as f64;
        println!(
            "{threads} threads: peak {} B above entry, {} B retained: {ratio:.2}x ({} B allocated)",
            m.peak, m.live, m.total
        );
        assert!(
            ratio <= MAX_PEAK_PER_RETAINED,
            "a direct extraction on {threads} threads peaked at {} bytes above entry for a \
             handle of {} bytes ({ratio:.2}x, bound {MAX_PEAK_PER_RETAINED}x)",
            m.peak,
            m.live
        );
    }
}
