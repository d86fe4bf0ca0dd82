//! What a value dictionary reports it holds, against what it holds.
//!
//! `Interner::heap_bytes` feeds the database's `heap_bytes` (the
//! `graphgen_state_bytes{part="dictionary"}` gauge counts only a
//! maintenance state's own id tables: its real-id side-table and its
//! boundaries' virtual-node numbering). It must count the
//! containers' capacities (the id table's empty slots, the vectors' spare
//! room), not their entries. This test pins that with the counting
//! allocator: for 50,000 interned integers the report must be within 10%
//! of the live bytes the dictionary allocated. Counting entries reported
//! 3,200,064 bytes for 4,259,856 live (−24.9%); counting capacities
//! reported 3,989,504 (−6.3%, the hash table's 1/8 of buckets kept empty
//! was what remained uncounted).
//!
//! Both dictionaries — the `Interner` and a handle's `IdMap` — keep each
//! value once, in their slot vector, under an index-only id table; the
//! `Interner` is grow-only and keeps its values in an `IdMap`. The
//! absolute bounds below fail for a forward map that holds a second copy
//! of every value in its buckets.
//!
//! Kept as a single `#[test]` on purpose: `alloc::measure` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_common::{ByteSize, IdMap};
use graphgen_reldb::{Interner, Value};

/// The report may differ from the live bytes by at most this share.
const MAX_RELATIVE_ERROR: f64 = 0.10;

/// Live bytes of an `Interner` of 50,000 ints may not exceed this.
/// Measured: an `FxHashMap<Value, Vid>` forward map, 4,259,856 bytes; the
/// index-only id table, 3,145,728 (slots 1.5 MiB, refcounts 0.5 MiB, ids
/// 1 MiB); grow-only, its values in an `IdMap`, 2,621,440 (values 1.5 MiB,
/// ids 1 MiB). A per-slot refcount again exceeds it.
const MAX_INTERNER_BYTES: usize = 2_700_000;

/// Live bytes of an `IdMap<Value>` of 50,000 ints may not exceed this.
/// Measured: an `FxHashMap<Value, u32>` forward map, 3,735,568 bytes; the
/// index-only id table, 2,621,440 (keys 1.5 MiB, ids 1 MiB).
const MAX_IDMAP_BYTES: usize = 2_700_000;

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
    assert!(
        m.live <= MAX_INTERNER_BYTES,
        "an interner of 50,000 ints holds {} bytes (bound {MAX_INTERNER_BYTES})",
        m.live
    );

    let (ids, m) = alloc::measure(|| {
        let mut ids = IdMap::new();
        for i in 0..50_000 {
            ids.intern(Value::int(i));
        }
        ids
    });
    assert_eq!(ids.len(), 50_000);
    println!("IdMap: {} live bytes", m.live);
    assert!(
        m.live <= MAX_IDMAP_BYTES,
        "an IdMap of 50,000 ints holds {} bytes (bound {MAX_IDMAP_BYTES})",
        m.live
    );
}
