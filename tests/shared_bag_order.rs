//! Shared atom bags and the mirrored reverse index, held to re-extraction.
//!
//! The maintenance state keeps one bag per atom relation and orientation,
//! so atoms over the same relation share it (a self-join's two atoms read
//! one `(p, a)` bag). A delta on that table changes the bag once, yet the
//! telescoping delta join reads it at two states: through the atoms before
//! the changed one at its post-delta state, through the atoms after it at
//! its pre-delta state. `M(A, G, 7), M(G, H, 8), M(B, H, 7)` is the shape
//! where that bites: its outer atoms share a bag, and the middle atom, on
//! the same table, reads it on both of its sides within one delta.
//!
//! Cut into single-atom segments, that chain — and `M(A, G, 7), M(B, G, 7)`
//! — has a last segment that mirrors its first, so the state keeps no
//! reverse index of the last support: a new node finds its left endpoints
//! in the first segment's support instead.
//!
//! Seeded deltas at 1/2/8 threads must leave every handle byte-identical
//! (`canonical_bytes`) to a from-scratch extraction of the mutated
//! database.

use graphgen::common::SplitMix64;
use graphgen::core::{GraphGen, GraphGenConfig, GraphHandle};
use graphgen::reldb::{Column, Database, Schema, Table, Value};

const THREADS: [usize; 3] = [1, 2, 8];

/// The outer atoms share a bag; the middle one is on the same table under
/// another predicate.
const SHARED_AROUND_MIDDLE: &str = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                                    Edges(A, B) :- M(A, G, 7), M(G, H, 8), M(B, H, 7).";

const SELF_JOIN: &str = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                         Edges(A, B) :- M(A, G, 7), M(B, G, 7).";

/// `factor` 1e12 keeps a chain one segment; 0.0 cuts every join.
fn cfg(threads: usize, incremental: bool, factor: f64) -> GraphGenConfig {
    GraphGenConfig::builder()
        .large_output_factor(factor)
        .preprocess(false)
        .auto_expand_threshold(None)
        .threads(threads)
        .incremental(incremental)
        .build()
}

fn reextract(db: &Database, dsl: &str, factor: f64) -> String {
    let g = GraphGen::with_config(db, cfg(1, false, factor))
        .extract(dsl)
        .expect("re-extraction");
    String::from_utf8(g.canonical_bytes()).unwrap()
}

/// One membership row: `e` over `0..50` (keys 30 and up are no node yet),
/// `g` over `0..12`, `y` 7 or 8, a NULL now and then.
fn membership(rng: &mut SplitMix64) -> Vec<Value> {
    let int_or_null = |rng: &mut SplitMix64, domain: u64| {
        if rng.next_below(40) == 0 {
            Value::Null
        } else {
            Value::int(rng.next_below(domain) as i64)
        }
    };
    vec![
        int_or_null(rng, 50),
        int_or_null(rng, 12),
        Value::int(7 + rng.next_below(2) as i64),
    ]
}

/// `Entity(id, name)` over keys `0..30` and `M(e, g, y)` of 400 rows.
fn database(rng: &mut SplitMix64) -> Database {
    let mut entity = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    for k in 0..30 {
        entity
            .push_row(vec![Value::int(k), Value::str(format!("e{k}"))])
            .unwrap();
    }
    let mut m = Table::new(Schema::new(vec![
        Column::int("e"),
        Column::int("g"),
        Column::int("y"),
    ]));
    for _ in 0..400 {
        m.push_row(membership(rng)).unwrap();
    }
    let mut db = Database::new();
    db.register("Entity", entity).unwrap();
    db.register("M", m).unwrap();
    db
}

/// Extract `dsl` at every thread count, then for six rounds delete
/// and insert seeded `M` rows — and, with `new_nodes`, insert the `Entity`
/// rows of keys that have memberships but no node yet — applying every
/// delta to every handle and comparing each with a re-extraction. Returns
/// how many nodes the deltas added.
fn drive(dsl: &str, factor: f64, segments: usize, seed: u64, new_nodes: bool) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut db = database(&mut rng);
    let mut handles: Vec<GraphHandle> = THREADS
        .iter()
        .map(|&t| {
            GraphGen::with_config(&db, cfg(t, true, factor))
                .extract(dsl)
                .expect("incremental extraction")
        })
        .collect();
    assert_eq!(handles[0].report().plans[0].segments.len(), segments);
    assert!(handles[0].graph().stored_edge_count() > 0, "{dsl}: no edge");
    let mut added = 0;
    for round in 0..6 {
        let live: Vec<Vec<Value>> = db.table("M").unwrap().iter_rows().collect();
        let gone: Vec<Vec<Value>> = (0..15)
            .map(|_| live[rng.next_below(live.len() as u64) as usize].clone())
            .collect();
        let fresh: Vec<Vec<Value>> = (0..15).map(|_| membership(&mut rng)).collect();
        let mut deltas = vec![
            db.delete_rows("M", &gone).unwrap(),
            db.insert_rows("M", fresh).unwrap(),
        ];
        if new_nodes {
            let key = 30 + 3 * round + rng.next_below(3) as i64;
            let row = vec![Value::int(key), Value::str(format!("new{key}"))];
            deltas.push(db.insert_rows("Entity", vec![row]).unwrap());
        }
        let fresh = reextract(&db, dsl, factor);
        for (h, t) in handles.iter_mut().zip(THREADS) {
            for delta in &deltas {
                let patch = h.apply_delta(delta).expect("apply_delta");
                if t == 1 {
                    added += patch.nodes_added;
                }
            }
            assert_eq!(
                String::from_utf8(h.canonical_bytes()).unwrap(),
                fresh,
                "{dsl} at factor {factor}, round {round}, {t} threads: \
                 patched graph diverges from re-extraction"
            );
        }
    }
    added
}

#[test]
fn outer_atoms_share_a_bag_around_a_middle_atom_on_the_same_table() {
    for seed in [1, 2, 3] {
        drive(SHARED_AROUND_MIDDLE, 1e12, 1, seed, false);
    }
}

#[test]
fn mirrored_two_segment_chain_adds_nodes_through_the_first_support() {
    for seed in [4, 5] {
        let added = drive(SELF_JOIN, 0.0, 2, seed, true);
        assert!(added > 0, "no new node took the mirrored path");
    }
}

#[test]
fn mirrored_three_segment_chain_adds_nodes_through_the_first_support() {
    for seed in [6, 7] {
        let added = drive(SHARED_AROUND_MIDDLE, 0.0, 3, seed, true);
        assert!(added > 0, "no new node took the mirrored path");
    }
}
