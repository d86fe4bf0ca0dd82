//! End-to-end determinism of the parallel extraction pipeline: for the
//! Appendix C.2 workloads (`datagen::large`), extraction at 2/4/8 threads
//! must produce a graph byte-identical to the 1-thread run — same node ids,
//! same edge lists — with preprocessing both off and on.

use graphgen::core::{GraphGen, GraphGenConfig, GraphGenConfigBuilder};
use graphgen::datagen::large::{
    layered_database, single_layer_database, LayeredConfig, SingleLayerConfig,
};
use graphgen::graph::expand_to_edge_list;
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
