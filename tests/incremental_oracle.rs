//! The incremental-maintenance oracle (the correctness contract of the
//! delta subsystem): for seeded random insert/delete batches on the
//! Appendix C.2 workloads, `GraphHandle::apply_delta` must yield a graph
//! whose canonical serialization is **byte-identical** to a from-scratch
//! extraction on the mutated database — at every tested thread count
//! (1/2/8), and also in every representation the patched handle converts
//! to.

use graphgen::core::{ConvertOptions, GraphGen, GraphGenConfig, GraphHandle};
use graphgen::datagen::{
    layered_database, random_mutation, single_layer_database, LayeredConfig, MutationConfig,
    SingleLayerConfig,
};
use graphgen::graph::RepKind;
use graphgen::reldb::{Column, Database, Delta, Schema, Table, Value};

const THREADS: [usize; 3] = [1, 2, 8];

/// Condensed-path configuration: factor 0.0 pins the segmentation so the
/// re-extraction oracle plans identically however the statistics move.
fn cfg(threads: usize, incremental: bool) -> GraphGenConfig {
    GraphGenConfig::builder()
        .large_output_factor(0.0)
        .preprocess(false)
        .auto_expand_threshold(None)
        .threads(threads)
        .incremental(incremental)
        .build()
}

fn reextract(db: &Database, query: &str) -> Vec<u8> {
    GraphGen::with_config(db, cfg(1, false))
        .extract(query)
        .expect("oracle re-extraction")
        .canonical_bytes()
}

/// Drive `rounds` seeded mutation batches over `tables`, applying every
/// delta to one maintained handle per thread count, asserting
/// byte-identity against full re-extraction after each round — for the
/// handles themselves and for the 2-thread handle converted to each of
/// `converted`.
fn drive(
    db: &mut Database,
    query: &str,
    tables: &[(&str, usize, usize)], // (table, inserts, deletes) per round
    rounds: u64,
    converted: &[RepKind],
) {
    let mut handles: Vec<GraphHandle> = THREADS
        .iter()
        .map(|&t| {
            GraphGen::with_config(db, cfg(t, true))
                .extract(query)
                .expect("incremental extraction")
        })
        .collect();
    let opts = ConvertOptions::default();
    let assert_converted = |handles: &[GraphHandle], fresh: &[u8], round: &str| {
        for &kind in converted {
            let h = handles[1].convert(kind, &opts).expect("conversion");
            assert_eq!(
                String::from_utf8(h.canonical_bytes()).unwrap(),
                String::from_utf8(fresh.to_vec()).unwrap(),
                "{round}: {kind} conversion of the patched handle diverges from re-extraction"
            );
        }
    };
    // Initial state must already match.
    let fresh = reextract(db, query);
    for h in &handles {
        assert_eq!(h.canonical_bytes(), fresh, "initial state diverges");
    }
    assert_converted(&handles, &fresh, "initial state");
    for round in 0..rounds {
        let mut deltas: Vec<Delta> = Vec::new();
        for (i, &(table, inserts, deletes)) in tables.iter().enumerate() {
            deltas.extend(
                random_mutation(
                    db,
                    table,
                    MutationConfig {
                        inserts,
                        deletes,
                        seed: 0xC0FFEE + round * 31 + i as u64,
                    },
                )
                .expect("mutation"),
            );
        }
        for delta in &deltas {
            // Clone-vs-scratch (the copy-on-write contract): apply the
            // delta to a *clone* first and assert the original handle is
            // bit-for-bit unmodified — chunk CoW must copy what it
            // touches, never write through a shared chunk — then apply to
            // the original and assert both evolved identically.
            for h in handles.iter_mut() {
                let before = h.canonical_bytes();
                let mut patched_clone = h.clone();
                patched_clone.apply_delta(delta).expect("apply to clone");
                assert_eq!(
                    h.canonical_bytes(),
                    before,
                    "round {round}: patching a clone mutated the original"
                );
                h.apply_delta(delta).expect("apply_delta");
                assert_eq!(
                    patched_clone.canonical_bytes(),
                    h.canonical_bytes(),
                    "round {round}: clone-then-patch diverged from patch-in-place"
                );
            }
        }
        let fresh = reextract(db, query);
        for (h, &t) in handles.iter().zip(THREADS.iter()) {
            assert_eq!(
                String::from_utf8(h.canonical_bytes()).unwrap(),
                String::from_utf8(fresh.clone()).unwrap(),
                "round {round}, {t} threads: patched graph diverges from re-extraction"
            );
        }
        assert_converted(&handles, &fresh, &format!("round {round}"));
    }
}

#[test]
fn single_layer_random_batches() {
    let (mut db, query) = single_layer_database(SingleLayerConfig {
        rows: 2_000,
        selectivity: 0.15,
        seed: 41,
    });
    drive(
        &mut db,
        &query,
        &[("A", 40, 25), ("Entity", 5, 3)],
        4,
        &[RepKind::Dedup1, RepKind::Bitmap],
    );
}

#[test]
fn layered_multilayer_random_batches() {
    let (mut db, query) = layered_database(LayeredConfig {
        rows_a: 500,
        rows_b: 500,
        outer_selectivity: 0.12,
        inner_selectivity: 0.2,
        seed: 42,
    });
    drive(
        &mut db,
        &query,
        &[("A", 25, 15), ("B", 25, 15), ("Entity", 4, 2)],
        3,
        &[RepKind::Bitmap],
    );
}

#[test]
fn null_heavy_memberships() {
    // NULL join values must follow the condensed path's semantics (they
    // intern as a boundary value like any other) identically in the
    // incremental and from-scratch paths.
    let mut entity = Table::new(Schema::new(vec![Column::int("id")]));
    for e in 0..30 {
        entity.push_row(vec![Value::int(e)]).unwrap();
    }
    let mut a = Table::new(Schema::new(vec![Column::int("x"), Column::int("g")]));
    for i in 0..200i64 {
        let x = if i % 17 == 0 {
            Value::Null
        } else {
            Value::int(i % 30)
        };
        let g = if i % 11 == 0 {
            Value::Null
        } else {
            Value::int(i % 9)
        };
        a.push_row(vec![x, g]).unwrap();
    }
    let mut db = Database::new();
    db.register("Entity", entity).unwrap();
    db.register("A", a).unwrap();
    let query = "Nodes(ID) :- Entity(ID).\nEdges(ID1, ID2) :- A(ID1, G), A(ID2, G).";
    let mut handle = GraphGen::with_config(&db, cfg(2, true))
        .extract(query)
        .unwrap();
    assert_eq!(handle.canonical_bytes(), reextract(&db, query));
    // Mutate with NULL-bearing rows in both directions.
    let d1 = db
        .insert_rows(
            "A",
            vec![
                vec![Value::Null, Value::int(3)],
                vec![Value::int(7), Value::Null],
                vec![Value::int(8), Value::int(100)],
            ],
        )
        .unwrap();
    handle.apply_delta(&d1).unwrap();
    assert_eq!(handle.canonical_bytes(), reextract(&db, query));
    let d2 = db
        .delete_rows(
            "A",
            &[
                vec![Value::Null, Value::Null],
                vec![Value::int(7), Value::Null],
                vec![Value::Null, Value::int(3)],
            ],
        )
        .unwrap();
    handle.apply_delta(&d2).unwrap();
    assert_eq!(handle.canonical_bytes(), reextract(&db, query));
}

#[test]
fn default_planner_small_output_chain() {
    // A sparse co-occurrence under the *default* large-output factor plans
    // as a single small-output segment (direct edges, no virtual nodes);
    // deltas must maintain that shape too. The default factor is safe here
    // because the oracle re-extraction pins the same factor and the data
    // stays sparse throughout the run.
    let (mut db, query) = single_layer_database(SingleLayerConfig {
        rows: 1_500,
        selectivity: 0.9,
        seed: 43,
    });
    let mk = |db: &Database, incr: bool| {
        GraphGen::with_config(
            db,
            GraphGenConfig::builder()
                .preprocess(false)
                .auto_expand_threshold(None)
                .threads(2)
                .incremental(incr)
                .build(),
        )
        .extract(&query)
        .unwrap()
    };
    let mut handle = mk(&db, true);
    assert_eq!(
        handle.report().plans[0].segments.len(),
        1,
        "workload should plan as a single segment"
    );
    for round in 0..3u64 {
        let deltas = random_mutation(
            &mut db,
            "A",
            MutationConfig {
                inserts: 30,
                deletes: 30,
                seed: 7 + round,
            },
        )
        .unwrap();
        for d in &deltas {
            handle.apply_delta(d).unwrap();
        }
        let fresh = mk(&db, false);
        assert_eq!(
            handle.canonical_bytes(),
            fresh.canonical_bytes(),
            "round {round}"
        );
    }
}

/// Deeper clone-isolation suite: seeded mutation streams with a growing
/// chain of pinned clones, every pin checked for bit-stability after every
/// batch. Twelve cases, each drawing its database seed and its 1–4 rounds
/// from a fixed `SplitMix64` seed.
#[test]
fn clone_chains_stay_isolated() {
    for case in 0..12u64 {
        let mut rng = graphgen::common::SplitMix64::new(0xC10E + case);
        let seed = rng.next_u64();
        let rounds = 1 + rng.next_below(4);
        let (mut db, query) = single_layer_database(SingleLayerConfig {
            rows: 600,
            selectivity: 0.2,
            seed,
        });
        let mut handle = GraphGen::with_config(&db, cfg(2, true))
            .extract(&query)
            .unwrap();
        // (pinned clone, bytes at pin time) — one pin per round, all
        // re-checked after every later batch.
        let mut pins: Vec<(GraphHandle, Vec<u8>)> = Vec::new();
        for round in 0..rounds {
            let bytes = handle.canonical_bytes();
            pins.push((handle.clone(), bytes));
            let deltas = random_mutation(
                &mut db,
                "A",
                MutationConfig {
                    inserts: 20,
                    deletes: 12,
                    seed: seed ^ round,
                },
            )
            .unwrap();
            for d in &deltas {
                handle.apply_delta(d).unwrap();
            }
            for (pin, at_pin) in &pins {
                assert_eq!(
                    &pin.canonical_bytes(),
                    at_pin,
                    "case {case}: pinned clone mutated by a later patch"
                );
            }
        }
        assert_eq!(
            handle.canonical_bytes(),
            reextract(&db, &query),
            "case {case}"
        );
    }
}
