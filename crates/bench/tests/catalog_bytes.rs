//! A registered table keeps dictionary ids, not values, and the catalog's
//! maintained statistics (`n_distinct` indexes, whole-row hash counts) are
//! keyed by those ids — so what registration allocates must track the
//! *number of rows and distinct values* and never the *size of the value
//! payloads*. This test pins that claim with the counting allocator:
//! registering a table whose values are already dictionary-resident can
//! only allocate id columns and statistics maps, and those bytes must be
//! the same whether each payload is a handful of bytes or half a kilobyte.
//! Registering it also frees the table's own `Value` columns, payloads
//! included: the values live once, in the dictionary.
//!
//! Kept as a single `#[test]` on purpose: `alloc::measure` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_reldb::{Column, Database, Schema, Table, Value};

const ROWS: usize = 4096;

/// A two-column table: a high-cardinality key and a 97-distinct value
/// column, each cell padded with `pad` filler bytes. Shape (row count,
/// distinct counts, insertion order) is identical for every `pad`, so the
/// id columns and statistics maps built from it must be identical too.
fn payload_table(pad: usize) -> Table {
    let mut t = Table::new(Schema::new(vec![Column::str("k"), Column::str("v")]));
    let filler = "x".repeat(pad);
    for i in 0..ROWS {
        t.push_row(vec![
            Value::str(format!("k{i:06}{filler}")),
            Value::str(format!("v{:04}{filler}", i % 97)),
        ])
        .expect("schema-valid row");
    }
    t
}

/// What registering a second table with the *same values* as a seed table
/// did: every cell is already interned, so the bytes it allocated are the
/// id columns and the statistics alone.
struct Registration {
    /// Bytes allocated while registering.
    allocated: usize,
    /// Live bytes before registering minus live bytes after.
    freed: isize,
    /// The catalog's own accounting of its statistics bytes.
    stats: usize,
}

fn register_dup(pad: usize) -> Registration {
    let mut db = Database::new();
    db.register("seed", payload_table(pad)).expect("seed");
    let dup = payload_table(pad);
    let before = alloc::stats().live;
    let (_, m) = alloc::measure(|| db.register("dup", dup).expect("dup"));
    let after = alloc::stats().live;
    Registration {
        allocated: m.total,
        freed: before as isize - after as isize,
        stats: db.stats_heap_bytes(),
    }
}

#[test]
fn catalog_stats_bytes_do_not_scale_with_payload_size() {
    let small = register_dup(0);
    let big = register_dup(512);

    // Same shape → the vid-keyed maps must be the same size, byte for
    // byte, regardless of payload width.
    assert_eq!(
        small.stats, big.stats,
        "stats_heap_bytes must be payload-independent"
    );
    assert!(small.stats > 0, "statistics should exist after register");

    // If registration copied values into the table or the statistics, the
    // padded run would allocate ~4 MiB more (4096 rows × ~1 KiB of extra
    // payload). Id columns and vid-keyed maps keep it flat; allow a little
    // slack for incidental allocator noise.
    let diff = big.allocated.abs_diff(small.allocated);
    assert!(
        diff < 64 * 1024,
        "catalog registration bytes scaled with payload size: \
         pad=0 allocated {}B, pad=512 allocated {}B",
        small.allocated,
        big.allocated
    );

    // A registered table keeps no `Value` per cell: taking the padded table
    // in frees at least its payloads, net of the ids and statistics.
    let payload = (ROWS * 2 * 512) as isize;
    assert!(
        big.freed >= payload,
        "registering a {payload}B payload freed only {}B",
        big.freed
    );
}
