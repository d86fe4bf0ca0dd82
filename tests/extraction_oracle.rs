//! Seeded-random oracle: condensed extraction against the full-join oracle.
//!
//! For random membership tables, the condensed path (virtual nodes) and the
//! full SQL path (one big join executed in the relational engine) must
//! produce the same logical graph — regardless of the planner's
//! large-output threshold. Every property runs twice: once through the
//! batch extractor and once with `.incremental(true)`, so the
//! maintenance-state bulk loader is held to the same `extract_full` oracle
//! on tiny tables (no rows, one entity, heavy duplicates).
//!
//! Cases come from the std-only `SplitMix64` generator over fixed seed
//! ranges (the case counts of the proptest suite this replaces).

use graphgen::common::SplitMix64;
use graphgen::core::{GraphGen, GraphGenConfig, GraphGenConfigBuilder};
use graphgen::graph::expand_to_edge_list;
use graphgen::reldb::{Column, Database, Schema, Table, Value};

const CASES: u64 = 64;

/// Up to `max_rows` pairs with components in `0..a` and `0..b`.
fn random_pairs(rng: &mut SplitMix64, max_rows: u64, a: u64, b: u64) -> Vec<(i64, i64)> {
    (0..rng.next_below(max_rows))
        .map(|_| (rng.next_below(a) as i64, rng.next_below(b) as i64))
        .collect()
}

fn db_from_rows(rows: &[(i64, i64)], n_entities: i64) -> Database {
    let mut entity = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    for e in 0..n_entities {
        entity
            .push_row(vec![Value::int(e), Value::str(format!("e{e}"))])
            .unwrap();
    }
    let mut membership = Table::new(Schema::new(vec![Column::int("eid"), Column::int("gid")]));
    for &(e, g) in rows {
        membership
            .push_row(vec![Value::int(e % n_entities), Value::int(g)])
            .unwrap();
    }
    let mut db = Database::new();
    db.register("Entity", entity).unwrap();
    db.register("Membership", membership).unwrap();
    db
}

const QUERY: &str = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                     Edges(A, B) :- Membership(A, G), Membership(B, G).";

/// The condensed path as it is, cut where `factor` says.
fn condensed(factor: f64) -> GraphGenConfigBuilder {
    GraphGenConfig::builder()
        .large_output_factor(factor)
        .preprocess(false)
        .auto_expand_threshold(None)
        .threads(1)
}

/// Extraction under `cfg`, batch and incremental, must expand to the edge
/// list of the one-big-join oracle.
fn assert_matches_full_join(db: &Database, query: &str, cfg: GraphGenConfigBuilder, case: &str) {
    let full = GraphGen::with_config(db, cfg.clone().build())
        .extract_full(query)
        .unwrap();
    for incremental in [false, true] {
        let extracted = GraphGen::with_config(db, cfg.clone().incremental(incremental).build())
            .extract(query)
            .unwrap();
        assert_eq!(
            expand_to_edge_list(&extracted),
            expand_to_edge_list(&full),
            "{case}, incremental {incremental}"
        );
    }
}

#[test]
fn condensed_matches_full_join() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xE0_0000 + seed);
        let rows = random_pairs(&mut rng, 60, 20, 8);
        let n_entities = 1 + rng.next_below(19) as i64;
        let factor = [0.0, 2.0, 1e12][rng.next_below(3) as usize];
        let db = db_from_rows(&rows, n_entities);
        let case = format!("seed {seed}: {} rows, {n_entities} entities", rows.len());
        assert_matches_full_join(&db, QUERY, condensed(factor), &case);
    }
}

#[test]
fn preprocessing_and_auto_expansion_preserve_extraction() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xE1_0000 + seed);
        let rows = random_pairs(&mut rng, 40, 15, 6);
        let db = db_from_rows(&rows, 15);
        let oracle = GraphGen::with_config(&db, condensed(0.0).build())
            .extract(QUERY)
            .unwrap();
        // The defaults (preprocessing, auto-expansion), and the defaults
        // with the maintenance state, which keeps the raw C-DUP.
        for cfg in [
            GraphGenConfig::default(),
            GraphGenConfig::builder().incremental(true).build(),
        ] {
            let tuned = GraphGen::with_config(&db, cfg).extract(QUERY).unwrap();
            assert_eq!(
                expand_to_edge_list(&tuned),
                expand_to_edge_list(&oracle),
                "seed {seed}, incremental {}",
                cfg.incremental()
            );
        }
    }
}

#[test]
fn two_hop_chain_matches_oracle() {
    // Edges(A, B) :- F(A, X), F(X, B): friend-of-friend, a chain whose
    // middle attribute is an entity id itself.
    let q = "Nodes(ID, N) :- Entity(ID, N).\n\
             Edges(A, B) :- F(A, X), F(X, B).";
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xE2_0000 + seed);
        let follows = random_pairs(&mut rng, 40, 12, 12);
        let mut entity = Table::new(Schema::new(vec![Column::int("id"), Column::str("n")]));
        for e in 0..12 {
            entity
                .push_row(vec![Value::int(e), Value::str("x")])
                .unwrap();
        }
        let mut f = Table::new(Schema::new(vec![Column::int("src"), Column::int("dst")]));
        for &(a, b) in &follows {
            f.push_row(vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let mut db = Database::new();
        db.register("Entity", entity).unwrap();
        db.register("F", f).unwrap();
        assert_matches_full_join(&db, q, condensed(0.0), &format!("seed {seed}"));
    }
}
