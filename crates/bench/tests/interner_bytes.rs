//! What a value dictionary reports it holds, against what it holds.
//!
//! `Interner::heap_bytes` feeds the database's `heap_bytes` and the
//! `graphgen_state_bytes{part="dictionary"}` gauge. It must count the
//! containers' capacities (spare hash slots, control bytes, the vectors'
//! spare room), not their entries. This test pins that with the counting
//! allocator: for 50,000 interned integers the report must be within 10%
//! of the live bytes the dictionary allocated. Counting entries reported
//! 3,200,064 bytes for 4,259,856 live (−24.9%); counting capacities
//! reports 3,989,504 (−6.3%, the hash table's 1/8 of buckets kept empty
//! is what remains uncounted).
//!
//! Kept as a single `#[test]` on purpose: `alloc::measure` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_common::ByteSize;
use graphgen_reldb::{Interner, Value};

/// The report may differ from the live bytes by at most this share.
const MAX_RELATIVE_ERROR: f64 = 0.10;

#[test]
fn interner_reports_its_live_bytes() {
    let (dict, m) = alloc::measure(|| {
        let mut dict = Interner::new();
        for i in 0..50_000 {
            dict.intern(&Value::int(i));
        }
        dict
    });
    let reported = dict.heap_bytes();
    let error = (reported as f64 - m.live as f64) / m.live as f64;
    println!(
        "{} live bytes, {reported} reported ({:+.1}%)",
        m.live,
        error * 100.0
    );
    assert!(
        error.abs() <= MAX_RELATIVE_ERROR,
        "an interner of 50,000 ints holds {} bytes but reports {reported} ({:+.1}%, bound ±{:.0}%)",
        m.live,
        error * 100.0,
        MAX_RELATIVE_ERROR * 100.0
    );
}
