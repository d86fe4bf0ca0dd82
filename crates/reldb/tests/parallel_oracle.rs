//! Seeded-random oracle tests for the operators extraction runs.
//!
//! Every case goes through a registered [`Database`], as production does:
//! tables are registered, [`scan_project`] turns them into `Vid` row sets,
//! and the operators under test see exactly those. They assert the
//! operator contract of `reldb::exec`:
//!
//! * [`hash_join_project`] equals the [`nested_loop_join`] oracle
//!   **including row order**, for every thread count and both build sides,
//!   and — resolved back through the dictionary — a join written on
//!   `Value`s, so interning cannot hide a wrong match;
//! * [`scan_project`] and [`distinct_rows`] are byte-identical across
//!   1/2/8 threads and equal to value-level oracles;
//! * a 2-step [`Query`] equals a brute-force evaluator;
//! * NULL-heavy, skewed-key, string-keyed, mixed `Int`/`Str`, empty, and
//!   size-asymmetric inputs are covered, at sizes both below and above the
//!   serial-fallback threshold.

use graphgen_common::parallel::MIN_PARALLEL_ITEMS;
use graphgen_common::SplitMix64;
use graphgen_reldb::exec::{distinct_rows, hash_join_project, nested_loop_join, scan_project};
use graphgen_reldb::query::{ChainStep, Query};
use graphgen_reldb::{Column, Database, Predicate, RowSet, Schema, Table, Value};

const THREADS: [usize; 3] = [1, 2, 8];
const KEY_PAIRS: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];
const ALL_COLS: [usize; 4] = [0, 1, 2, 3];

/// The type of a generated column. `Str` cells spell the same numbers as
/// `Int` cells (`"3"` vs `3`), so a join across the two kinds is full of
/// lookalikes that must not match.
#[derive(Clone, Copy)]
enum Kind {
    Int,
    Str,
}

const INTS: [Kind; 2] = [Kind::Int, Kind::Int];

/// How cells are drawn: `null_pct` percent are NULL; with `skew`, ~80% of
/// the rest collapse onto a single hot value.
#[derive(Clone, Copy)]
struct Shape {
    domain: u64,
    null_pct: u64,
    skew: bool,
}

fn random_table(rng: &mut SplitMix64, n: usize, shape: Shape, kinds: [Kind; 2]) -> Table {
    let column = |name: &str, kind| match kind {
        Kind::Int => Column::int(name),
        Kind::Str => Column::str(name),
    };
    let mut t = Table::new(Schema::new(vec![
        column("a", kinds[0]),
        column("b", kinds[1]),
    ]));
    for _ in 0..n {
        let mut cell = |kind| {
            if rng.next_below(100) < shape.null_pct {
                return Value::Null;
            }
            let k = if shape.skew && rng.next_below(100) < 80 {
                0
            } else {
                rng.next_below(shape.domain) as i64
            };
            match kind {
                Kind::Int => Value::int(k),
                Kind::Str => Value::str(k.to_string()),
            }
        };
        let row = vec![cell(kinds[0]), cell(kinds[1])];
        t.push_row(row).unwrap();
    }
    t
}

/// Two tables registered in one database and scanned whole.
struct Fixture {
    db: Database,
    l: RowSet,
    r: RowSet,
}

fn scan_all(db: &Database, table: &str) -> RowSet {
    scan_project(db, table, &Predicate::True, &[0, 1], 1).unwrap()
}

fn fixture(l: Table, r: Table) -> Fixture {
    let mut db = Database::new();
    db.register("L", l).unwrap();
    db.register("R", r).unwrap();
    let (l, r) = (scan_all(&db, "L"), scan_all(&db, "R"));
    Fixture { db, l, r }
}

/// Resolve a row set back to values through the database dictionary.
fn values(db: &Database, rows: &RowSet) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|&vid| db.dict().resolve(vid).expect("live vid").clone())
                .collect()
        })
        .collect()
}

/// The join written on values: the semantics the `Vid` operators must keep.
fn value_join(l: &[Vec<Value>], lk: usize, r: &[Vec<Value>], rk: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for lrow in l {
        for rrow in r {
            if !lrow[lk].is_null() && lrow[lk] == rrow[rk] {
                out.push([lrow.as_slice(), rrow.as_slice()].concat());
            }
        }
    }
    out
}

fn check_join(fx: &Fixture, label: &str) {
    let (lv, rv) = (values(&fx.db, &fx.l), values(&fx.db, &fx.r));
    for (lk, rk) in KEY_PAIRS {
        let oracle = nested_loop_join(&fx.l, lk, &fx.r, rk);
        assert_eq!(
            values(&fx.db, &oracle),
            value_join(&lv, lk, &rv, rk),
            "{label}: id oracle vs value join, keys ({lk},{rk})"
        );
        for threads in THREADS {
            assert_eq!(
                hash_join_project(&fx.l, lk, &fx.r, rk, &ALL_COLS, threads),
                oracle,
                "{label}: join keys ({lk},{rk}) at {threads} threads"
            );
        }
    }
}

/// For inputs large enough that the quadratic oracle is slow: nested-loop
/// oracle on one key pair, serial-vs-parallel byte-equality on all pairs.
fn check_join_large(fx: &Fixture, label: &str) {
    let join = |lk, rk, threads| hash_join_project(&fx.l, lk, &fx.r, rk, &ALL_COLS, threads);
    assert_eq!(
        join(0, 1, 1),
        nested_loop_join(&fx.l, 0, &fx.r, 1),
        "{label}: serial vs oracle"
    );
    for (lk, rk) in KEY_PAIRS {
        let serial = join(lk, rk, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                join(lk, rk, threads),
                serial,
                "{label}: join keys ({lk},{rk}) at {threads} threads"
            );
        }
    }
}

/// Small sizes against both oracles, then one size that gets real workers.
fn check_join_at_all_sizes(rng: &mut SplitMix64, shape: Shape, kinds: [Kind; 2], label: &str) {
    for n in [0usize, 7, 200] {
        let l = random_table(rng, n, shape, kinds);
        let r = random_table(rng, n / 2 + 1, shape, kinds);
        check_join(&fixture(l, r), label);
    }
    let n = MIN_PARALLEL_ITEMS * 3;
    let l = random_table(rng, n, shape, kinds);
    let r = random_table(rng, n / 2 + 1, shape, kinds);
    check_join_large(&fixture(l, r), label);
}

#[test]
fn join_oracle_null_heavy() {
    let shape = Shape {
        domain: 10,
        null_pct: 40,
        skew: false,
    };
    check_join_at_all_sizes(&mut SplitMix64::new(0xA11CE), shape, INTS, "null-heavy");
}

#[test]
fn join_oracle_string_and_mixed_keys() {
    let shape = Shape {
        domain: 10,
        null_pct: 20,
        skew: false,
    };
    let mut rng = SplitMix64::new(0x57A1);
    check_join_at_all_sizes(&mut rng, shape, [Kind::Str, Kind::Str], "str");
    // Key pairs (0,1) and (1,0) now join an Int column with a Str column.
    check_join_at_all_sizes(&mut rng, shape, [Kind::Int, Kind::Str], "mixed");
}

#[test]
fn join_oracle_skewed_keys() {
    let mut rng = SplitMix64::new(0xBEEF);
    // Skewed keys produce quadratic match lists on the hot key; keep sizes
    // moderate.
    let shape = Shape {
        domain: 40,
        null_pct: 5,
        skew: true,
    };
    let l = random_table(&mut rng, 300, shape, INTS);
    let r = random_table(&mut rng, 120, shape, INTS);
    check_join(&fixture(l, r), "skewed");
}

#[test]
fn join_oracle_empty_inputs() {
    let mut rng = SplitMix64::new(7);
    let shape = Shape {
        domain: 5,
        null_pct: 20,
        skew: false,
    };
    let mut table = |n| random_table(&mut rng, n, shape, INTS);
    check_join(&fixture(table(0), table(50)), "empty-left");
    check_join(&fixture(table(50), table(0)), "empty-right");
    check_join(&fixture(table(0), table(0)), "empty-both");
}

#[test]
fn join_builds_on_smaller_side_either_direction() {
    let mut rng = SplitMix64::new(0xD15C);
    let shape = Shape {
        domain: 64,
        null_pct: 10,
        skew: false,
    };
    // Heavy asymmetry in both directions, large enough that the bigger side
    // gets multiple workers from effective_threads.
    let big = random_table(&mut rng, MIN_PARALLEL_ITEMS * 3, shape, INTS);
    let small = random_table(&mut rng, 60, shape, INTS);
    check_join_large(&fixture(big.clone(), small.clone()), "big-left/small-right");
    check_join_large(&fixture(small, big), "small-left/big-right");
}

#[test]
fn fused_projection_matches_join_then_project() {
    let mut rng = SplitMix64::new(0xF00D);
    let shape = Shape {
        domain: 12,
        null_pct: 10,
        skew: false,
    };
    let fx = fixture(
        random_table(&mut rng, 500, shape, INTS),
        random_table(&mut rng, 800, shape, INTS),
    );
    let mut projected = RowSet::new(2);
    for row in nested_loop_join(&fx.l, 1, &fx.r, 0).iter() {
        projected.push_row([row[0], row[3]]);
    }
    for threads in THREADS {
        assert_eq!(
            hash_join_project(&fx.l, 1, &fx.r, 0, &[0, 3], threads),
            projected,
            "{threads} threads"
        );
    }
}

#[test]
fn scan_project_parallel_is_byte_identical() {
    let mut rng = SplitMix64::new(0x5CA9);
    let shape = Shape {
        domain: 30,
        null_pct: 25,
        skew: false,
    };
    for n in [0usize, 33, MIN_PARALLEL_ITEMS * 3] {
        let mut db = Database::new();
        db.register(
            "T",
            random_table(&mut rng, n, shape, [Kind::Int, Kind::Str]),
        )
        .unwrap();
        // Tombstone some rows (and drop their dictionary references): the
        // scan must skip them and still resolve every surviving cell.
        let doomed: Vec<Vec<Value>> = db.table("T").unwrap().iter_rows().step_by(5).collect();
        db.delete_rows("T", &doomed).unwrap();
        for pred in [
            Predicate::True,
            Predicate::Lt(0, Value::int(15)),
            Predicate::Eq(1, Value::Null),
            Predicate::Gt(0, Value::int(5)).and(Predicate::Ne(1, Value::str("2"))),
        ] {
            let scan = |threads| scan_project(&db, "T", &pred, &[1, 0], threads).unwrap();
            let serial = scan(1);
            // Oracle: per-row eval + manual projection, on values.
            let expected: Vec<Vec<Value>> = db
                .table("T")
                .unwrap()
                .iter_rows()
                .filter(|row| pred.eval(row))
                .map(|row| vec![row[1].clone(), row[0].clone()])
                .collect();
            assert_eq!(values(&db, &serial), expected, "{pred:?} serial vs oracle");
            for threads in THREADS {
                assert_eq!(scan(threads), serial, "{pred:?} at {threads} threads");
            }
        }
    }
}

#[test]
fn distinct_parallel_preserves_first_occurrence() {
    let mut rng = SplitMix64::new(0xDED0);
    // Small domain forces many duplicates; NULLs participate as values.
    let shape = Shape {
        domain: 8,
        null_pct: 20,
        skew: true,
    };
    for n in [0usize, 100, MIN_PARALLEL_ITEMS * 2] {
        let mut db = Database::new();
        db.register(
            "T",
            random_table(&mut rng, n, shape, [Kind::Int, Kind::Str]),
        )
        .unwrap();
        let rows = scan_all(&db, "T");
        let serial = distinct_rows(rows.clone(), 1);
        // Oracle: first-occurrence filter via a set of materialized rows.
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<Vec<Value>> = values(&db, &rows)
            .into_iter()
            .filter(|row| seen.insert(row.clone()))
            .collect();
        assert_eq!(values(&db, &serial), expected, "serial vs oracle at n={n}");
        assert_eq!(distinct_rows(serial.clone(), 1), serial, "idempotent");
        for threads in THREADS {
            assert_eq!(
                distinct_rows(rows.clone(), threads),
                serial,
                "{threads} threads at n={n}"
            );
        }
    }
}

#[test]
fn chain_query_matches_bruteforce() {
    // res(X, Y) :- R(X, g), R(Y, g): co-membership, a 2-step chain — the
    // shape of every multi-atom segment extraction runs.
    let mut rng = SplitMix64::new(0xC4A1);
    let q = Query {
        steps: vec![
            ChainStep {
                table: "R".into(),
                pred: Predicate::True,
                in_col: 0,
                out_col: 1,
            },
            ChainStep {
                table: "R".into(),
                pred: Predicate::True,
                in_col: 1,
                out_col: 0,
            },
        ],
    };
    for (n, domain) in [(0usize, 12), (40, 12), (MIN_PARALLEL_ITEMS * 2, 300)] {
        let shape = Shape {
            domain,
            null_pct: 10,
            skew: false,
        };
        let mut db = Database::new();
        db.register(
            "R",
            random_table(&mut rng, n, shape, [Kind::Int, Kind::Str]),
        )
        .unwrap();
        let serial = q.run(&db).unwrap();
        for threads in THREADS {
            assert_eq!(q.run_threaded(&db, threads).unwrap(), serial, "{threads}");
        }
        let value = |vid| db.dict().resolve(vid).expect("live vid").clone();
        let mut got: Vec<(Value, Value)> =
            serial.iter().map(|&(x, y)| (value(x), value(y))).collect();
        got.sort();
        let rows: Vec<Vec<Value>> = db.table("R").unwrap().iter_rows().collect();
        let mut expected: Vec<(Value, Value)> = value_join(&rows, 1, &rows, 1)
            .into_iter()
            .map(|row| (row[0].clone(), row[2].clone()))
            .collect();
        expected.sort();
        expected.dedup();
        // Equal to the deduplicated brute force *as a list*: DISTINCT left
        // no duplicate behind.
        assert_eq!(got, expected, "n={n}");
    }
}
