//! Differential test of the direct route: a batch extraction whose chains
//! are all single-segment, under a §6.5 threshold of at least 1, builds EXP
//! straight from the segment queries' bags. It must hand back exactly what
//! the C-DUP route does — extract with auto-expansion off, then ask
//! `should_expand` and expand with `ExpandedGraph::from_rep` — the same
//! graph byte for byte (lists, capacities, `heap_bytes`), the same kind and
//! the same report. `extract_full` shares the direct builder, so it is no
//! reference here.
//!
//! Cases come from `SplitMix64` over fixed seeds: one rule, two rules into
//! one node view, node rows out of dictionary order, a filtered node view,
//! self-pairs, NULL join keys and endpoints, empty tables, and chains whose
//! atoms share a table (checked against a value-level reference as well,
//! since both routes derive a self-join's second bag by transposing the
//! first); thresholds 1.0,
//! 0.99 and none; 1, 2 and 8 threads. The `#[ignore]`d case runs at the
//! shape of the benchmark's sparse extraction (25,000 authors, 33,000
//! publications) and wants a release build: `cargo test --release --test
//! direct_extraction -- --include-ignored`.

use graphgen::common::SplitMix64;
use graphgen::core::{AnyGraph, ExtractionReport, GraphGen, GraphGenConfig};
use graphgen::datagen::relational::DBLP_COAUTHORS;
use graphgen::datagen::{dblp_like, DblpConfig};
use graphgen::dedup::preprocess::should_expand;
use graphgen::graph::{expand_to_edge_list, ExpandedGraph, GraphRep, RepKind};
use graphgen::reldb::{Column, Database, Schema, Table, Value};

const CASES: u64 = 48;
const THRESHOLDS: [Option<f64>; 3] = [Some(1.0), Some(0.99), None];
const THREADS: [usize; 3] = [1, 2, 8];

/// Co-authorship: a self-join, so every author is paired with themself.
const ONE_RULE: &str = "Nodes(ID, Name) :- Author(ID, Name, _).\n\
                        Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).";

/// Co-authorship and citations into one node view: both rules feed the
/// same out-lists, and some citations repeat a co-authorship.
const TWO_RULES: &str = "Nodes(ID, Name) :- Author(ID, Name, _).\n\
                         Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).\n\
                         Edges(A, B) :- Cites(A, B).";

/// Only active authors are nodes: edges to the others drop out.
const FILTERED: &str = "Nodes(ID, Name) :- Author(ID, Name, 1).\n\
                        Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).\n\
                        Edges(A, B) :- Cites(A, B).";

/// A cell that is NULL one time in ten.
fn maybe_null(rng: &mut SplitMix64, v: i64) -> Value {
    if rng.next_below(10) == 0 {
        Value::Null
    } else {
        Value::int(v)
    }
}

/// `Author(id, name, active)` with its rows shuffled, `AuthorPub(aid,
/// pid)` and `Cites(src, dst)` over author ids and a few ids that are no
/// author, with NULLs in every id column and self-citations. Any table may
/// be empty. Registering the edge tables first gives the author ids their
/// dictionary ids in edge-table order, so the node order (the author scan)
/// differs from the dictionary order.
fn random_db(rng: &mut SplitMix64) -> Database {
    let authors = rng.next_below(30) as i64;
    let mut order: Vec<i64> = (0..authors).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let mut author = Table::new(Schema::new(vec![
        Column::int("id"),
        Column::str("name"),
        Column::int("active"),
    ]));
    for a in order {
        let active = rng.next_below(4).min(1) as i64;
        author
            .push_row(vec![
                Value::int(a),
                Value::str(format!("a{a}")),
                Value::int(active),
            ])
            .unwrap();
    }
    let ids = authors as u64 + 4;
    let mut author_pub = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
    for _ in 0..rng.next_below(120) {
        let (a, p) = (rng.next_below(ids) as i64, rng.next_below(20) as i64);
        let row = vec![maybe_null(rng, a), maybe_null(rng, p)];
        author_pub.push_row(row).unwrap();
    }
    let mut cites = Table::new(Schema::new(vec![Column::int("src"), Column::int("dst")]));
    for _ in 0..rng.next_below(40) {
        let a = rng.next_below(ids) as i64;
        let b = if rng.next_below(5) == 0 {
            a
        } else {
            rng.next_below(ids) as i64
        };
        let row = vec![maybe_null(rng, a), maybe_null(rng, b)];
        cites.push_row(row).unwrap();
    }
    let mut db = Database::new();
    if rng.next_below(2) == 0 {
        db.register("Author", author).unwrap();
        db.register("AuthorPub", author_pub).unwrap();
        db.register("Cites", cites).unwrap();
    } else {
        db.register("Cites", cites).unwrap();
        db.register("AuthorPub", author_pub).unwrap();
        db.register("Author", author).unwrap();
    }
    db
}

fn config(threshold: Option<f64>, threads: usize, preprocess: bool) -> GraphGenConfig {
    GraphGenConfig::builder()
        // No join is large-output: every chain is one segment.
        .large_output_factor(1e9)
        .preprocess(preprocess)
        .auto_expand_threshold(threshold)
        .threads(threads)
        .build()
}

fn assert_same_report(got: &ExtractionReport, want: &ExtractionReport, expand: bool, ctx: &str) {
    assert_eq!(
        format!("{:?}", got.plans),
        format!("{:?}", want.plans),
        "{ctx}: plans"
    );
    assert_eq!(got.sql, want.sql, "{ctx}: sql");
    assert_eq!(got.preprocess, want.preprocess, "{ctx}: preprocess");
    assert_eq!(got.auto_expanded, expand, "{ctx}: auto_expanded");
}

/// Extract `dsl` at every threshold and thread count and hold each result
/// to the C-DUP route at the same thread count.
fn check(db: &Database, dsl: &str, preprocess: bool, ctx: &str) {
    for threads in THREADS {
        let reference = GraphGen::with_config(db, config(None, threads, preprocess))
            .extract(dsl)
            .expect("C-DUP extraction");
        let AnyGraph::CDup(cdup) = reference.graph() else {
            panic!("{ctx}: auto-expansion off must keep C-DUP");
        };
        assert!(
            reference
                .report()
                .plans
                .iter()
                .all(|plan| plan.segments.len() == 1),
            "{ctx}: every chain must be one segment"
        );
        assert_eq!(cdup.num_virtual(), 0, "{ctx}: no virtual node");
        let expanded = ExpandedGraph::from_rep(cdup);
        for threshold in THRESHOLDS {
            let ctx = format!("{ctx}, threshold {threshold:?}, {threads} threads");
            let got = GraphGen::with_config(db, config(threshold, threads, preprocess))
                .extract(dsl)
                .expect("extraction");
            let expand = threshold.is_some_and(|t| should_expand(cdup, t));
            assert_same_report(got.report(), reference.report(), expand, &ctx);
            assert_eq!(got.canonical_bytes(), reference.canonical_bytes(), "{ctx}");
            match got.graph() {
                AnyGraph::Exp(g) => {
                    assert!(expand, "{ctx}: EXP where C-DUP was due");
                    assert_eq!(g, &expanded, "{ctx}: EXP lists");
                    assert_eq!(g.heap_bytes(), expanded.heap_bytes(), "{ctx}: heap_bytes");
                }
                AnyGraph::CDup(g) => {
                    assert!(!expand, "{ctx}: C-DUP where EXP was due");
                    assert_eq!(g.heap_bytes(), cdup.heap_bytes(), "{ctx}: heap_bytes");
                    assert_eq!(expand_to_edge_list(g), expand_to_edge_list(cdup), "{ctx}");
                }
                other => panic!("{ctx}: extraction returned {:?}", other.kind()),
            }
            let kind = if expand { RepKind::Exp } else { RepKind::CDup };
            assert_eq!(got.kind(), kind, "{ctx}: kind");
        }
    }
}

#[test]
fn direct_route_matches_the_cdup_route_on_random_tables() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let db = random_db(&mut rng);
        for (name, dsl) in [
            ("one rule", ONE_RULE),
            ("two rules", TWO_RULES),
            ("filtered nodes", FILTERED),
        ] {
            check(&db, dsl, seed % 2 == 0, &format!("seed {seed}, {name}"));
        }
    }
}

#[test]
fn direct_route_matches_the_cdup_route_on_empty_tables() {
    let mut db = Database::new();
    let author = Schema::new(vec![
        Column::int("id"),
        Column::str("name"),
        Column::int("active"),
    ]);
    let pairs = |a: &str, b: &str| Schema::new(vec![Column::int(a), Column::int(b)]);
    db.register("Author", Table::new(author)).unwrap();
    db.register("AuthorPub", Table::new(pairs("aid", "pid")))
        .unwrap();
    db.register("Cites", Table::new(pairs("src", "dst")))
        .unwrap();
    for preprocess in [false, true] {
        check(&db, TWO_RULES, preprocess, "empty tables");
    }
}

#[test]
fn direct_route_matches_the_cdup_route_on_a_small_dblp() {
    let db = dblp_like(DblpConfig {
        authors: 1_500,
        publications: 2_000,
        avg_authors_per_pub: 2.5,
        seed: 5,
    });
    check(&db, DBLP_COAUTHORS, true, "dblp 1.5k/2k");
}

/// `Author(id, name, active)`, `Wrote(aid, pid, year)` with years 1 to 3,
/// `PubCites(src, dst)` over publication ids and `Cites(src, dst)` over
/// author ids, each with NULLs, repeated rows and ids that are no node.
fn random_papers_db(rng: &mut SplitMix64) -> Database {
    let authors = rng.next_below(25) as i64;
    let mut author = Table::new(Schema::new(vec![
        Column::int("id"),
        Column::str("name"),
        Column::int("active"),
    ]));
    for a in (0..authors).rev() {
        let row = vec![Value::int(a), Value::str(format!("a{a}")), Value::int(1)];
        author.push_row(row).unwrap();
    }
    let ids = authors as u64 + 3;
    let mut wrote = Table::new(Schema::new(vec![
        Column::int("aid"),
        Column::int("pid"),
        Column::int("year"),
    ]));
    for _ in 0..rng.next_below(100) {
        let (a, p) = (rng.next_below(ids) as i64, rng.next_below(15) as i64);
        let year = rng.next_below(3) as i64 + 1;
        let row = vec![
            maybe_null(rng, a),
            maybe_null(rng, p),
            maybe_null(rng, year),
        ];
        wrote.push_row(row).unwrap();
    }
    let pairs = |a: &str, b: &str| Schema::new(vec![Column::int(a), Column::int(b)]);
    let mut pub_cites = Table::new(pairs("src", "dst"));
    for _ in 0..rng.next_below(30) {
        let (p, q) = (rng.next_below(15) as i64, rng.next_below(15) as i64);
        let row = vec![maybe_null(rng, p), maybe_null(rng, q)];
        pub_cites.push_row(row).unwrap();
    }
    let mut cites = Table::new(pairs("src", "dst"));
    for _ in 0..rng.next_below(40) {
        let (a, b) = (rng.next_below(ids) as i64, rng.next_below(ids) as i64);
        let row = vec![maybe_null(rng, a), maybe_null(rng, b)];
        cites.push_row(row).unwrap();
    }
    let mut db = Database::new();
    db.register("Wrote", wrote).unwrap();
    db.register("PubCites", pub_cites).unwrap();
    db.register("Cites", cites).unwrap();
    db.register("Author", author).unwrap();
    db
}

/// One atom of a chain for [`chain_edges`]: table, an optional
/// `column = constant` filter, and the join columns in and out.
type Atom = (&'static str, Option<(usize, i64)>, usize, usize);

/// The edges a chain rule defines, evaluated on the tables' values with
/// nested loops (NULL joins nothing) and mapped through the handle's key
/// map, self-pairs and non-nodes dropped: a reference that shares no code
/// with the operators, so a bag wrongly derived from another atom's shows.
fn chain_edges(db: &Database, g: &graphgen::core::GraphHandle, atoms: &[Atom]) -> Vec<(u32, u32)> {
    let pairs = |&(table, filter, in_col, out_col): &Atom| -> Vec<(Value, Value)> {
        let rows = db.table(table).unwrap().iter_rows();
        rows.filter(|row| filter.is_none_or(|(c, v)| row[c] == Value::int(v)))
            .map(|row| (row[in_col].clone(), row[out_col].clone()))
            .collect()
    };
    let mut frontier = pairs(&atoms[0]);
    for atom in &atoms[1..] {
        let rows = pairs(atom);
        let mut next = Vec::new();
        for (x, carry) in &frontier {
            for (in_v, out_v) in &rows {
                if !carry.is_null() && carry == in_v {
                    next.push((x.clone(), out_v.clone()));
                }
            }
        }
        frontier = next;
    }
    let mut edges: Vec<(u32, u32)> = frontier
        .iter()
        .filter_map(|(x, y)| Some((g.vertex_of(x)?.0, g.vertex_of(y)?.0)))
        .filter(|(u, v)| u != v)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Chains where an atom's bag may or may not be an earlier atom's
/// transpose, each against the value-level reference and the C-DUP route:
/// a self-join (the transpose fires), a filter on one atom only and a
/// same-table chain in one orientation (it must not), and a three-atom
/// single segment whose last atom transposes the first, past the middle
/// join.
#[test]
fn direct_route_matches_a_value_reference_where_atoms_share_a_table() {
    const NODES: &str = "Nodes(ID, Name) :- Author(ID, Name, _).\n";
    let cases: [(&str, &str, &[Atom]); 4] = [
        (
            "self-join",
            "Edges(A, B) :- Wrote(A, P, _), Wrote(B, P, _).",
            &[("Wrote", None, 0, 1), ("Wrote", None, 1, 0)],
        ),
        (
            "filter on one atom",
            "Edges(A, B) :- Wrote(A, P, 1), Wrote(B, P, _).",
            &[("Wrote", Some((2, 1)), 0, 1), ("Wrote", None, 1, 0)],
        ),
        (
            "same orientation",
            "Edges(A, B) :- Cites(A, C), Cites(C, B).",
            &[("Cites", None, 0, 1), ("Cites", None, 0, 1)],
        ),
        (
            "three atoms",
            "Edges(A, B) :- Wrote(A, P, _), PubCites(P, Q), Wrote(B, Q, _).",
            &[
                ("Wrote", None, 0, 1),
                ("PubCites", None, 0, 1),
                ("Wrote", None, 1, 0),
            ],
        ),
    ];
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let db = random_papers_db(&mut rng);
        for (name, rule, atoms) in cases {
            let ctx = format!("seed {seed}, {name}");
            let dsl = format!("{NODES}{rule}");
            for threads in THREADS {
                let g = GraphGen::with_config(&db, config(Some(1.0), threads, true))
                    .extract(&dsl)
                    .expect("extraction");
                assert_eq!(g.report().plans[0].segments.len(), 1, "{ctx}: one segment");
                let mut got = expand_to_edge_list(&g);
                got.sort_unstable();
                assert_eq!(got, chain_edges(&db, &g, atoms), "{ctx}, {threads} threads");
            }
            check(&db, &dsl, seed % 2 == 0, &ctx);
        }
    }
}

#[test]
#[ignore = "full size; run in release with --include-ignored"]
fn direct_route_matches_the_cdup_route_at_extract_sparse_shape() {
    let db = dblp_like(DblpConfig {
        authors: 25_000,
        publications: 33_000,
        avg_authors_per_pub: 2.5,
        seed: 61,
    });
    check(&db, DBLP_COAUTHORS, true, "dblp 25k/33k");
}
