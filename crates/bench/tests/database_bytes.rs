//! What a database reports it holds, against what it holds.
//!
//! The catalog's statistics are a `Vid → u32` count map per column plus a
//! row locator per table: an index-only id table of live row positions
//! keyed by each row's hash. At the serve workloads' shape
//! (`dblp_like(20k/30k)`, seed 7) they must stay under an absolute bound
//! that `Vid → u64` count maps beside a whole-row `hash → u64` map exceed.
//! And `Database::heap_bytes` — id columns, statistics, dictionary, which
//! feed `graphgen_db_bytes{part}` — must agree with the counting
//! allocator's live bytes for the built database within a stated
//! tolerance.
//!
//! Kept as a single `#[test]` on purpose: `alloc::measure` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_common::ByteSize;
use graphgen_datagen::{dblp_like, DblpConfig};

/// `Database::stats_heap_bytes` may not exceed this. Measured: `Vid → u64`
/// counts and a whole-row `hash → u64` map, 4,587,520 bytes reported
/// (capacity times entry size) for about 5,571,000 allocated; `Vid → u32`
/// counts and the row locator, 2,785,795 reported and allocated.
const MAX_STATS_BYTES: usize = 3_000_000;

/// `Database::heap_bytes` may differ from the live bytes by at most this
/// share. Measured: 8,343,502 reported for 9,738,902 live (−14.3%) with
/// the statistics counted by capacity times entry size and a string value
/// by its bytes alone; 6,953,322 for 6,953,558 (−0.003%) with hash tables
/// counted by buckets and control bytes and a string by its `Arc`
/// allocation (the schemas' column names are what is left).
const MAX_RELATIVE_ERROR: f64 = 0.03;

#[test]
fn database_reports_its_live_bytes_and_bounded_statistics() {
    let (db, m) = alloc::measure(|| {
        dblp_like(DblpConfig {
            authors: 20_000,
            publications: 30_000,
            avg_authors_per_pub: 2.5,
            seed: 7,
        })
    });
    let stats = db.stats_heap_bytes();
    let reported = db.heap_bytes();
    let error = (reported as f64 - m.live as f64) / m.live as f64;
    println!(
        "{} live bytes, {reported} reported ({:+.1}%): tables {}, dictionary {}, statistics {stats}",
        m.live,
        error * 100.0,
        db.tables_heap_bytes(),
        db.dict().heap_bytes(),
    );
    assert!(
        stats <= MAX_STATS_BYTES,
        "the statistics hold {stats} bytes (bound {MAX_STATS_BYTES})"
    );
    assert!(
        error.abs() <= MAX_RELATIVE_ERROR,
        "the database holds {} bytes but reports {reported} ({:+.1}%, bound ±{:.0}%)",
        m.live,
        error * 100.0,
        MAX_RELATIVE_ERROR * 100.0
    );
}
