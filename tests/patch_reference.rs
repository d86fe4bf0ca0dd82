//! The delta path against a reference that shares none of its edge rule.
//!
//! `tests/incremental_oracle.rs` compares a patched handle with a batch
//! re-extraction, and both turn segment output into stored edges through
//! the same `segment_edge`. Here the reference is `extract_full`: each
//! chain runs as one whole query whose pairs are the logical edges, so no
//! segment, virtual node or stored-edge rule is involved. Seeded deltas
//! over a 2-segment and a 3-segment chain (edge tables and the node table
//! alike) must leave the patched handle with the same logical edges,
//! compared by node key since the two number their nodes differently.
//!
//! The patch counters are held to the graph: on a node add,
//! `stored_edges_added` is the growth of `stored_edge_count`.

use graphgen::core::{GraphGen, GraphGenConfig, GraphHandle};
use graphgen::datagen::{
    layered_database, random_mutation, single_layer_database, LayeredConfig, MutationConfig,
    SingleLayerConfig,
};
use graphgen::graph::{expand_to_edge_list, GraphRep, RealId};
use graphgen::reldb::{Column, Database, Schema, Table, Value};

/// Every join cut (factor 0.0), so a chain of `m` atoms plans as `m`
/// segments whatever the statistics; the graph stays a C-DUP.
fn incremental(threads: usize) -> GraphGenConfig {
    GraphGenConfig::builder()
        .large_output_factor(0.0)
        .preprocess(false)
        .auto_expand_threshold(None)
        .threads(threads)
        .incremental(true)
        .build()
}

/// A handle's logical edges by node key, sorted.
fn keyed_edges(h: &GraphHandle) -> Vec<(Value, Value)> {
    let key = |u: u32| h.key_of(RealId(u)).clone();
    let mut edges: Vec<(Value, Value)> = expand_to_edge_list(h)
        .into_iter()
        .map(|(u, v)| (key(u), key(v)))
        .collect();
    edges.sort();
    edges
}

fn reference(db: &Database, query: &str) -> Vec<(Value, Value)> {
    let full = GraphGen::with_config(db, GraphGenConfig::builder().threads(1).build())
        .extract_full(query)
        .expect("reference extraction");
    keyed_edges(&full)
}

/// Fail with the first few edges either side lacks.
fn assert_same(got: &[(Value, Value)], want: &[(Value, Value)], at: &str) {
    let missing: Vec<_> = want
        .iter()
        .filter(|e| got.binary_search(e).is_err())
        .collect();
    let extra: Vec<_> = got
        .iter()
        .filter(|e| want.binary_search(e).is_err())
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{at}: patched edges diverge from extract_full: {} missing (first {:?}), {} extra (first {:?})",
        missing.len(),
        &missing[..missing.len().min(4)],
        extra.len(),
        &extra[..extra.len().min(4)],
    );
}

/// Drive `rounds` seeded mutation batches over `tables` through one
/// maintained handle per thread count, comparing each with `extract_full`
/// after every round.
fn drive(
    mut db: Database,
    query: &str,
    segments: usize,
    tables: &[(&str, usize, usize)],
    rounds: u64,
) {
    let mut handles: Vec<GraphHandle> = [1, 2]
        .iter()
        .map(|&t| {
            GraphGen::with_config(&db, incremental(t))
                .extract(query)
                .expect("incremental extraction")
        })
        .collect();
    assert_eq!(handles[0].report().plans[0].segments.len(), segments);
    let fresh = reference(&db, query);
    assert!(!fresh.is_empty(), "the workload has edges");
    for h in &handles {
        assert_same(&keyed_edges(h), &fresh, "initial state");
    }
    for round in 0..rounds {
        for (i, &(table, inserts, deletes)) in tables.iter().enumerate() {
            let seed = 0x5EED + round * 17 + i as u64;
            let cfg = MutationConfig {
                inserts,
                deletes,
                seed,
            };
            for delta in random_mutation(&mut db, table, cfg).expect("mutation") {
                for h in &mut handles {
                    h.apply_delta(&delta).expect("apply_delta");
                }
            }
        }
        let fresh = reference(&db, query);
        for (t, h) in handles.iter().enumerate() {
            assert_same(
                &keyed_edges(h),
                &fresh,
                &format!("round {round}, handle {t}"),
            );
        }
    }
}

#[test]
fn two_segment_chain_matches_full_extraction() {
    let (db, query) = single_layer_database(SingleLayerConfig {
        rows: 800,
        selectivity: 0.15,
        seed: 77,
    });
    drive(db, &query, 2, &[("A", 30, 20), ("Entity", 6, 4)], 4);
}

#[test]
fn three_segment_chain_matches_full_extraction() {
    let (db, _) = layered_database(LayeredConfig {
        rows_a: 300,
        rows_b: 300,
        outer_selectivity: 0.12,
        inner_selectivity: 0.2,
        seed: 78,
    });
    let query = "Nodes(ID) :- Entity(ID).\n\
                 Edges(ID1, ID2) :- A(ID1, J1), B(J1, J2), A(ID2, J2).";
    drive(
        db,
        query,
        3,
        &[("A", 20, 12), ("B", 20, 12), ("Entity", 5, 3)],
        4,
    );
}

fn int_table(cols: &[&str], rows: &[&[i64]]) -> Table {
    let mut t = Table::new(Schema::new(cols.iter().map(|c| Column::int(*c)).collect()));
    for row in rows {
        t.push_row(row.iter().map(|&v| Value::int(v)).collect())
            .expect("schema");
    }
    t
}

/// Two single-segment chains output `(1, 3)`; adding node 3 stores that
/// edge once and must count it once.
#[test]
fn node_add_counts_each_stored_edge_once() {
    let mut db = Database::new();
    db.register("Author", int_table(&["id"], &[&[1], &[2]]))
        .unwrap();
    let follows = int_table(&["a", "b"], &[&[1, 3], &[3, 1]]);
    db.register("Follows", follows).unwrap();
    db.register("Likes", int_table(&["a", "b"], &[&[1, 3]]))
        .unwrap();
    let query = "Nodes(ID) :- Author(ID).\n\
                 Edges(A, B) :- Follows(A, B).\n\
                 Edges(A, B) :- Likes(A, B).";
    let mut handle = GraphGen::with_config(&db, incremental(1))
        .extract(query)
        .unwrap();
    let before = handle.stored_edge_count();
    let delta = db.insert_rows("Author", vec![vec![Value::int(3)]]).unwrap();
    let patch = handle.apply_delta(&delta).unwrap();
    assert_eq!(patch.nodes_added, 1);
    assert_eq!(handle.stored_edge_count(), before + 2);
    assert_eq!(
        patch.stored_edges_added as u64,
        handle.stored_edge_count() - before,
        "stored_edges_added must count the edges the add stored"
    );
    assert_eq!(keyed_edges(&handle), reference(&db, query));
}
