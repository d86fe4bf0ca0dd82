//! Seeded-random oracle tests for the operators extraction runs.
//!
//! Every case goes through a registered [`Database`], as production does:
//! tables are registered, [`scan_project`] turns them into `Vid` row sets,
//! and the operators under test see exactly those. They assert the
//! operator contract of `reldb::exec`:
//!
//! * [`join_counted`] over [`group_pairs`]-built bags equals the
//!   [`nested_loop_join`] oracle projected, sorted and run-counted — keys
//!   **and** multiplicities — for every thread count and every choice of
//!   key columns, and that oracle — resolved back through the dictionary —
//!   equals a join written on `Value`s, so interning cannot hide a wrong
//!   match;
//! * [`scan_project`] is byte-identical across 1/2/8 threads and equal to
//!   a value-level oracle — [`Predicate::eval`] over the materialised live
//!   rows, then a dictionary lookup per projected cell — for every
//!   predicate kind, NULL and absent constants included, on tables with
//!   tombstones before and after a compaction; [`group_pairs`] equals a
//!   value-level count-per-distinct-row, byte-identical at 1/2/8 threads;
//! * 1-, 2- and 3-step [`Query`]s equal a brute-force evaluator on values
//!   and return the same pairs in the same order at 1/2/8 threads;
//! * NULL-heavy, skewed-key, string-keyed, mixed `Int`/`Str`, empty, and
//!   size-asymmetric inputs are covered, at sizes both below and above the
//!   serial-fallback threshold, plus a frontier whose one `x` run spans
//!   every morsel cut.

use graphgen_common::parallel::MIN_PARALLEL_ITEMS;
use graphgen_common::SplitMix64;
use graphgen_reldb::exec::{
    group_pairs, join_counted, nested_loop_join, pack, scan_project, unpack, Bag,
};
use graphgen_reldb::query::{ChainStep, Query};
use graphgen_reldb::{Column, Database, Predicate, RowSet, Schema, Table, Value, NULL_VID};

const THREADS: [usize; 3] = [1, 2, 8];
const KEY_PAIRS: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

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

/// `L ⋈ R` on `L[lk] = R[rk]` through the operators under test: the
/// frontier bag is `(L's other column, L[lk])`, the atom bag
/// `(R[rk], R's other column)`.
fn counted_join(fx: &Fixture, lk: usize, rk: usize, threads: usize) -> Pairs {
    let bag = |rows: &RowSet, first: usize| {
        group_pairs(
            rows.iter().map(|r| pack(r[first], r[1 - first])).collect(),
            threads,
        )
        .unwrap()
    };
    pairs(&join_counted(&bag(&fx.l, 1 - lk), &bag(&fx.r, rk), threads).unwrap())
}

/// A bag as `(pack(l, r), count)` entries in ascending key order, the
/// shape the references are written in.
type Pairs = Vec<(u64, i64)>;

fn pairs(bag: &Bag) -> Pairs {
    bag.iter()
        .map(|(l, r, m)| (pack(l, r), i64::from(m)))
        .collect()
}

/// The same join through the nested-loop oracle: project the two non-key
/// columns, sort, count the runs.
fn reference_join(fx: &Fixture, lk: usize, rk: usize) -> Pairs {
    let mut keys: Vec<u64> = nested_loop_join(&fx.l, lk, &fx.r, rk)
        .iter()
        .map(|row| pack(row[1 - lk], row[2 + (1 - rk)]))
        .collect();
    keys.sort_unstable();
    keys.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as i64))
        .collect()
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
        let reference = reference_join(fx, lk, rk);
        for threads in THREADS {
            assert_eq!(
                counted_join(fx, lk, rk, threads),
                reference,
                "{label}: join keys ({lk},{rk}) at {threads} threads"
            );
        }
    }
}

/// For inputs large enough that the quadratic oracle is slow: nested-loop
/// oracle on one key pair, serial-vs-parallel byte-equality on all pairs.
fn check_join_large(fx: &Fixture, label: &str) {
    assert_eq!(
        counted_join(fx, 0, 1, 1),
        reference_join(fx, 0, 1),
        "{label}: serial vs oracle"
    );
    for (lk, rk) in KEY_PAIRS {
        let serial = counted_join(fx, lk, rk, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                counted_join(fx, lk, rk, threads),
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
fn join_oracle_size_asymmetric_either_direction() {
    let mut rng = SplitMix64::new(0xD15C);
    let shape = Shape {
        domain: 64,
        null_pct: 10,
        skew: false,
    };
    // Heavy asymmetry in both directions, large enough that a big frontier
    // gets multiple probe workers from effective_threads.
    let big = random_table(&mut rng, MIN_PARALLEL_ITEMS * 3, shape, INTS);
    let small = random_table(&mut rng, 60, shape, INTS);
    check_join_large(&fixture(big.clone(), small.clone()), "big-left/small-right");
    check_join_large(&fixture(small, big), "small-left/big-right");
}

#[test]
fn join_output_multiplicities_count_join_paths() {
    // Few distinct pairs, many ways to reach each: the multiplicities, not
    // just the keys, must equal the oracle's run lengths.
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
    let reference = reference_join(&fx, 1, 0);
    assert!(reference.iter().any(|&(_, m)| m > 1));
    let joined: i64 = reference.iter().map(|&(_, m)| m).sum();
    assert_eq!(
        joined as usize,
        nested_loop_join(&fx.l, 1, &fx.r, 0).num_rows()
    );
    for threads in THREADS {
        assert_eq!(counted_join(&fx, 1, 0, threads), reference, "{threads}");
    }
}

#[test]
fn one_x_run_spanning_every_morsel_cut() {
    // Every frontier entry has the same `x`, so every morsel boundary falls
    // inside the one run and the cuts must move to its end.
    let n = (MIN_PARALLEL_ITEMS * 3) as i64;
    let mut l = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
    let mut r = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
    for i in 0..n {
        l.push_row(vec![Value::int(-1), Value::int(i)]).unwrap();
        r.push_row(vec![Value::int(i), Value::int(i % 50)]).unwrap();
    }
    let fx = fixture(l, r);
    let reference = reference_join(&fx, 1, 0);
    assert_eq!(reference.len(), 50);
    for threads in THREADS {
        assert_eq!(counted_join(&fx, 1, 0, threads), reference, "{threads}");
    }
}

#[test]
fn null_joins_nothing_but_is_carried_as_a_value() {
    let table = |rows: &[(Value, Value)]| {
        let mut t = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
        for (a, b) in rows {
            t.push_row(vec![a.clone(), b.clone()]).unwrap();
        }
        t
    };
    let (null, int) = (Value::Null, Value::int);
    // NULL as carry and as `in` never matches — not even another NULL; NULL
    // as the carried `x` and as the produced `out` passes through.
    let fx = fixture(
        table(&[(int(1), null.clone()), (null.clone(), int(5))]),
        table(&[(null.clone(), int(9)), (int(5), null.clone())]),
    );
    for threads in THREADS {
        let out = counted_join(&fx, 1, 0, threads);
        assert_eq!(out, reference_join(&fx, 1, 0));
        assert_eq!(out, [(pack(NULL_VID, NULL_VID), 1)]);
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

/// `scan_project` of table `T`, projecting `[1, 0]`, at 1/2/8 threads
/// against a reference on the same table: materialise its live rows, keep
/// those [`Predicate::eval`] accepts, and look each projected cell up in
/// the dictionary.
fn check_scan(db: &Database, preds: &[Predicate], label: &str) {
    let table = db.table("T").unwrap();
    for pred in preds {
        let mut expected = RowSet::new(2);
        for row in table.iter_rows().filter(|row| pred.eval(row)) {
            expected.push_row([1, 0].map(|c| db.dict().lookup(&row[c]).expect("stored value")));
        }
        for threads in THREADS {
            assert_eq!(
                scan_project(db, "T", pred, &[1, 0], threads).unwrap(),
                expected,
                "{label}: {pred:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn scan_over_id_columns_matches_row_reference() {
    let mut rng = SplitMix64::new(0x1D5C);
    let shape = Shape {
        domain: 30,
        null_pct: 25,
        skew: false,
    };
    // The generator never draws 1000 or "absent": those constants are in no
    // dictionary. "3" is a string that is stored, compared against the Int
    // column.
    let preds = [
        Predicate::True,
        Predicate::Eq(0, Value::int(7)),
        Predicate::Eq(0, Value::Null),
        Predicate::Eq(1, Value::str("absent")),
        Predicate::Eq(0, Value::str("3")),
        Predicate::Ne(1, Value::str("3")),
        Predicate::Ne(1, Value::Null),
        Predicate::Ne(0, Value::int(1_000)),
        Predicate::Lt(0, Value::int(12)),
        Predicate::Le(1, Value::str("2")),
        Predicate::Gt(0, Value::Null),
        Predicate::Ge(0, Value::int(20)),
        Predicate::Ge(1, Value::str("5"))
            .and(Predicate::Ne(0, Value::int(4)))
            .and(Predicate::Ne(1, Value::str("absent"))),
    ];
    for n in [0usize, 200, MIN_PARALLEL_ITEMS * 3] {
        let mut db = Database::new();
        db.register(
            "T",
            random_table(&mut rng, n, shape, [Kind::Int, Kind::Str]),
        )
        .unwrap();
        check_scan(&db, &preds, "fresh");
        let live = |db: &Database| db.table("T").unwrap().iter_rows().collect::<Vec<_>>();
        let every = |rows: Vec<Vec<Value>>, keep: fn(usize) -> bool| -> Vec<Vec<Value>> {
            rows.into_iter()
                .enumerate()
                .filter(|&(i, _)| keep(i))
                .map(|(_, row)| row)
                .collect()
        };
        // A third of the rows tombstoned: dead rows stay in the columns.
        db.delete_rows("T", &every(live(&db), |i| i % 3 == 0))
            .unwrap();
        assert_eq!(db.table("T").unwrap().compaction_count(), 0);
        check_scan(&db, &preds, "tombstoned");
        // Three quarters of the rest: the dead now outnumber the living, and
        // the columns are rewritten.
        db.delete_rows("T", &every(live(&db), |i| i % 4 != 0))
            .unwrap();
        let compacted = db.table("T").unwrap();
        assert_eq!(compacted.compaction_count(), u64::from(n > 0));
        assert_eq!(compacted.physical_rows(), compacted.num_rows());
        check_scan(&db, &preds, "compacted");
        // And tombstones again, on the compacted columns.
        db.delete_rows("T", &every(live(&db), |i| i % 5 == 1))
            .unwrap();
        check_scan(&db, &preds, "tombstoned after compaction");
    }
}

#[test]
fn grouping_is_distinct_with_counts() {
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
        let keys: Vec<u64> = rows.iter().map(|r| pack(r[0], r[1])).collect();
        let bag = group_pairs(keys.clone(), 1).unwrap();
        for threads in [2, 8] {
            assert_eq!(group_pairs(keys.clone(), threads).unwrap(), bag, "n={n}");
        }
        let bag = pairs(&bag);
        assert!(
            bag.windows(2).all(|w| w[0].0 < w[1].0),
            "ascending at n={n}"
        );
        // Oracle: occurrences per distinct materialized row.
        let mut expected = std::collections::HashMap::new();
        for row in values(&db, &rows) {
            *expected.entry(row).or_insert(0i64) += 1;
        }
        let value = |vid| db.dict().resolve(vid).expect("live vid").clone();
        let got: std::collections::HashMap<Vec<Value>, i64> = bag
            .iter()
            .map(|&(key, m)| (vec![value(unpack(key).0), value(unpack(key).1)], m))
            .collect();
        assert_eq!(got.len(), bag.len(), "no duplicate left behind at n={n}");
        assert_eq!(got, expected, "n={n}");
    }
}

/// The chain evaluated on values with nested loops: per step, filter the
/// table, extend every frontier pair whose carry equals a row's `in` value
/// (NULL equals nothing), and deduplicate.
fn brute_force(db: &Database, q: &Query) -> Vec<(Value, Value)> {
    let atom = |step: &ChainStep| -> Vec<(Value, Value)> {
        let rows = db.table(&step.table).unwrap().iter_rows();
        rows.filter(|row| step.pred.eval(row))
            .map(|row| (row[step.in_col].clone(), row[step.out_col].clone()))
            .collect()
    };
    let mut frontier = atom(&q.steps[0]);
    for step in &q.steps[1..] {
        let rows = atom(step);
        let mut next = Vec::new();
        for (x, carry) in &frontier {
            for (in_v, out_v) in &rows {
                if !carry.is_null() && carry == in_v {
                    next.push((x.clone(), out_v.clone()));
                }
            }
        }
        next.sort();
        next.dedup();
        frontier = next;
    }
    frontier.sort();
    frontier.dedup();
    frontier
}

#[test]
fn chain_queries_match_bruteforce() {
    let step = |table: &str, pred: Predicate, in_col, out_col| ChainStep {
        table: table.into(),
        pred,
        in_col,
        out_col,
    };
    let queries = [
        // res(X, Y) :- R(X, Y), X < 9: a single filtered atom.
        Query::single("R", Predicate::Lt(0, Value::int(9)), 0, 1),
        // res(X, Y) :- R(X, g), R(Y, g): co-membership, a 2-step chain — the
        // shape of every multi-atom segment extraction runs.
        Query {
            steps: vec![
                step("R", Predicate::True, 0, 1),
                step("R", Predicate::True, 1, 0),
            ],
        },
        // res(X, Y) :- R(X, g), S(g, h), R(Y, h), Y > 2: three steps over
        // two tables, string-keyed joins.
        Query {
            steps: vec![
                step("R", Predicate::True, 0, 1),
                step("S", Predicate::True, 0, 1),
                step("R", Predicate::Gt(0, Value::int(2)), 1, 0),
            ],
        },
    ];
    let mut rng = SplitMix64::new(0xC4A1);
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
        db.register(
            "S",
            random_table(&mut rng, n, shape, [Kind::Str, Kind::Str]),
        )
        .unwrap();
        for q in &queries {
            let steps = q.steps.len();
            let serial = q.run(&db).unwrap();
            assert!(
                serial.windows(2).all(|w| w[0] < w[1]),
                "ascending, duplicate-free ids: n={n}, {steps} steps"
            );
            for threads in THREADS {
                // Same pairs in the same order, not just the same set.
                assert_eq!(
                    q.run_threaded(&db, threads).unwrap(),
                    serial,
                    "n={n}, {steps} steps at {threads} threads"
                );
            }
            let value = |vid| db.dict().resolve(vid).expect("live vid").clone();
            let mut got: Vec<(Value, Value)> =
                serial.iter().map(|&(x, y)| (value(x), value(y))).collect();
            got.sort();
            // Equal to the deduplicated brute force *as a list*: DISTINCT
            // left no duplicate behind.
            assert_eq!(got, brute_force(&db, q), "n={n}, {steps} steps");
        }
    }
}
