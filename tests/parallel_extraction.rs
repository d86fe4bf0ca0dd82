//! End-to-end determinism of the parallel extraction pipeline: for the
//! Appendix C.2 workloads (`datagen::large`), extraction at 2/4/8 threads
//! must produce a graph byte-identical to the 1-thread run — same node ids,
//! same edge lists — with preprocessing both off and on. A DBLP-shaped
//! input large enough that every parallel operator fans out (the grouping
//! and the EXP build included) must give the same
//! bytes at 1/2/8 threads on the default direct route and on an
//! incremental bulk load.

use graphgen::core::{GraphGen, GraphGenConfig, GraphGenConfigBuilder};
use graphgen::datagen::large::{
    layered_database, single_layer_database, LayeredConfig, SingleLayerConfig,
};
use graphgen::datagen::relational::DBLP_COAUTHORS;
use graphgen::datagen::{dblp_like, DblpConfig};
use graphgen::graph::expand_to_edge_list;
use graphgen::reldb::exec::GROUP_KEYS_PER_THREAD;
use graphgen::reldb::Database;

fn base(preprocess: bool) -> GraphGenConfigBuilder {
    GraphGenConfig::builder()
        .large_output_factor(2.0)
        .preprocess(preprocess)
        .auto_expand_threshold(None)
}

fn assert_thread_invariant(db: &Database, query: &str, label: &str) {
    for preprocess in [false, true] {
        let serial = GraphGen::with_config(db, base(preprocess).threads(1).build())
            .extract(query)
            .expect("serial extraction");
        let truth = expand_to_edge_list(&serial);
        for threads in [2usize, 4, 8] {
            let parallel = GraphGen::with_config(db, base(preprocess).threads(threads).build())
                .extract(query)
                .expect("parallel extraction");
            assert_eq!(
                expand_to_edge_list(&parallel),
                truth,
                "{label}: preprocess={preprocess} diverged at {threads} threads"
            );
            assert_eq!(
                parallel.graph().stored_edge_count(),
                serial.graph().stored_edge_count(),
                "{label}: stored representation differs at {threads} threads"
            );
        }
    }
}

#[test]
fn single_layer_workload_is_thread_invariant() {
    // ~6k membership rows: crosses the operators' serial-fallback threshold
    // so the morsel/partition paths genuinely run.
    let (db, query) = single_layer_database(SingleLayerConfig {
        rows: 6_000,
        selectivity: 0.1,
        seed: 42,
    });
    assert_thread_invariant(&db, &query, "single-layer");
}

#[test]
fn layered_workload_is_thread_invariant() {
    // Rows stay well above the operators' per-thread work floor so the
    // morsel/partition code paths get multiple workers; selectivities are
    // kept high so the expanded oracle comparison stays small.
    let (db, query) = layered_database(LayeredConfig {
        rows_a: 3_000,
        rows_b: 3_000,
        outer_selectivity: 0.1,
        inner_selectivity: 0.25,
        seed: 43,
    });
    assert_thread_invariant(&db, &query, "layered");
}

#[test]
fn full_extraction_is_thread_invariant() {
    let (db, query) = single_layer_database(SingleLayerConfig {
        rows: 3_000,
        selectivity: 0.2,
        seed: 44,
    });
    let serial = GraphGen::with_config(&db, base(false).threads(1).build())
        .extract_full(&query)
        .expect("serial full extraction");
    for threads in [4usize, 8] {
        let parallel = GraphGen::with_config(&db, base(false).threads(threads).build())
            .extract_full(&query)
            .expect("parallel full extraction");
        assert_eq!(
            expand_to_edge_list(&parallel),
            expand_to_edge_list(&serial),
            "full extraction diverged at {threads} threads"
        );
    }
}

/// 40,000 publications of 2.5 authors on average: about 100,000
/// `AuthorPub` rows, past two threads' floor for every operator (the
/// grouping's is the highest).
fn large_dblp() -> Database {
    dblp_like(DblpConfig {
        authors: 30_000,
        publications: 40_000,
        avg_authors_per_pub: 2.5,
        seed: 45,
    })
}

/// `DBLP_COAUTHORS` extracted under `cfg` at 1/2/8 threads: the same
/// canonical bytes each time.
fn assert_same_bytes(db: &Database, cfg: GraphGenConfigBuilder, label: &str) {
    let extract = |threads| {
        GraphGen::with_config(db, cfg.clone().threads(threads).build())
            .extract(DBLP_COAUTHORS)
            .expect("extraction")
    };
    let serial = extract(1);
    assert!(serial.graph().expanded_edge_count() > 0, "{label}");
    let bytes = serial.canonical_bytes();
    for threads in [2, 8] {
        let parallel = extract(threads);
        assert_eq!(
            parallel.kind(),
            serial.kind(),
            "{label} at {threads} threads"
        );
        assert!(
            parallel.canonical_bytes() == bytes,
            "{label}: bytes differ at {threads} threads"
        );
    }
}

#[test]
fn default_direct_route_is_thread_invariant_past_every_floor() {
    let db = large_dblp();
    assert!(db.table("AuthorPub").unwrap().num_rows() > 2 * GROUP_KEYS_PER_THREAD);
    let handle = GraphGen::new(&db).extract(DBLP_COAUTHORS).unwrap();
    assert!(handle.report().auto_expanded, "the direct route");
    assert_same_bytes(&db, GraphGenConfig::builder(), "direct route");
}

#[test]
fn incremental_bulk_load_is_thread_invariant_past_every_floor() {
    let db = large_dblp();
    let cfg = GraphGenConfig::builder().incremental(true);
    assert_same_bytes(&db, cfg, "incremental bulk load");
}
