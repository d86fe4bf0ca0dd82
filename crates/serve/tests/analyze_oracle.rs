//! The condensed-vs-expanded oracle: for every algorithm and every
//! representation a served handle can be converted to, the kernel the
//! `ANALYZE` dispatch picks must produce the same answer as the plain
//! traversal computation on the fully expanded graph — exactly for the
//! integer algorithms (degree, components, triangles), within 1e-9 L∞ for
//! the floating-point ones (PageRank, clustering). Warm-started fixpoints
//! must equal cold-started ones after mutation batches through the real
//! `apply` path.

use graphgen_core::ConvertOptions;
use graphgen_datagen::relational::DBLP_COAUTHORS;
use graphgen_datagen::{dblp_like, layered_database, DblpConfig, LayeredConfig};
use graphgen_graph::RepKind;
use graphgen_reldb::Value;
use graphgen_serve::{
    compute_on_handle, Algo, AnalyzeParams, GraphService, GraphSnapshot, TableMutation,
};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 8];

fn dblp_service(seed: u64) -> GraphService {
    let db = dblp_like(DblpConfig {
        authors: 150,
        publications: 260,
        avg_authors_per_pub: 2.5,
        seed,
    });
    let service = GraphService::in_memory(db);
    service.extract("co", DBLP_COAUTHORS).unwrap();
    service
}

fn linf(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rank vector lengths differ");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Every convertible representation of `snap`, reference first.
fn all_reps(snap: &Arc<GraphSnapshot>) -> Vec<(RepKind, graphgen_core::GraphHandle)> {
    RepKind::all()
        .into_iter()
        .filter_map(|kind| {
            snap.handle()
                .convert(kind, &ConvertOptions::default())
                .ok()
                .map(|h| (kind, h))
        })
        .collect()
}

#[test]
fn condensed_direct_equals_expanded_on_every_rep() {
    for seed in [11u64, 12] {
        let service = dblp_service(seed);
        let snap = service.snapshot("co").unwrap();
        let params = AnalyzeParams::default();
        let reps = all_reps(&snap);
        assert_eq!(reps.len(), 5, "a single-layer handle converts everywhere");
        let exp = reps
            .iter()
            .find(|(k, _)| *k == RepKind::Exp)
            .map(|(_, h)| h)
            .unwrap();
        for threads in THREADS {
            let reference: Vec<_> = Algo::all()
                .into_iter()
                .map(|algo| compute_on_handle(exp, algo, &params, None, threads).unwrap())
                .collect();
            for (kind, handle) in &reps {
                for (algo, want) in Algo::all().into_iter().zip(&reference) {
                    let got = compute_on_handle(handle, algo, &params, None, threads).unwrap();
                    let ctx = format!("{kind:?} {} seed={seed} threads={threads}", algo.label());
                    match algo {
                        Algo::Degree => assert_eq!(got.degrees, want.degrees, "{ctx}"),
                        Algo::Components => assert_eq!(got.labels, want.labels, "{ctx}"),
                        Algo::Triangles => assert_eq!(got.summary, want.summary, "{ctx}"),
                        Algo::Pagerank => {
                            let d = linf(got.ranks.as_ref().unwrap(), want.ranks.as_ref().unwrap());
                            assert!(d <= 1e-9, "{ctx}: L∞={d}");
                        }
                        Algo::Clustering => {
                            let got_avg = graphgen_algo::average_clustering(handle, threads);
                            let want_avg = graphgen_algo::average_clustering(exp, threads);
                            assert!((got_avg - want_avg).abs() <= 1e-9, "{ctx}");
                        }
                    }
                }
                // The dispatch must actually take the condensed-direct path
                // on condensed cores — that is the whole point.
                let deg = compute_on_handle(handle, Algo::Degree, &params, None, threads).unwrap();
                let expected_path = match kind {
                    RepKind::Dedup1 => "aggregated",
                    RepKind::CDup | RepKind::Bitmap => "merged",
                    RepKind::Exp | RepKind::Dedup2 => "traversal",
                };
                assert_eq!(deg.path.label(), expected_path, "{kind:?} degree path");
            }
        }
    }
}

/// Seeded insert/delete batches on `AuthorPub` through the real write path.
fn mutation_batch(round: u64, seed: u64) -> TableMutation {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(round);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for _ in 0..3 {
        inserts.push(vec![
            Value::int((next() % 150) as i64),
            Value::int((next() % 400) as i64),
        ]);
    }
    if round % 2 == 1 {
        // Delete a row the generator provably inserted earlier (same
        // stream: inserted rows of round-1 are reproducible), or a base
        // row — absent rows are no-ops under bag semantics, so this is
        // safe either way and *sometimes* removes a real edge.
        deletes.push(vec![
            Value::int((next() % 150) as i64),
            Value::int((next() % 260) as i64),
        ]);
    }
    TableMutation::new("AuthorPub", inserts, deletes)
}

#[test]
fn warm_start_fixpoints_equal_cold_start() {
    for seed in [21u64, 22] {
        let service = dblp_service(seed);
        let params = AnalyzeParams::default();
        // Cold baselines at version 1 populate the seeds.
        service.analyze("co", Algo::Pagerank, &params).unwrap();
        service.analyze("co", Algo::Components, &params).unwrap();
        for round in 1..=4u64 {
            let outcome = service.apply(&[mutation_batch(round, seed)]).unwrap();
            let removed_something = outcome
                .graphs
                .iter()
                .any(|(_, _, patch)| patch.stored_edges_removed > 0 || patch.nodes_removed > 0);
            let snap = service.snapshot("co").unwrap();

            let warm_pr = service.analyze("co", Algo::Pagerank, &params).unwrap();
            assert!(warm_pr.warm(), "round {round}: pagerank always warms");
            let cold_pr =
                compute_on_handle(snap.handle(), Algo::Pagerank, &params, None, 2).unwrap();
            let d = linf(
                warm_pr.outcome().ranks.as_ref().unwrap(),
                cold_pr.ranks.as_ref().unwrap(),
            );
            assert!(d <= 1e-9, "round {round} seed {seed}: pagerank L∞={d}");

            let warm_cc = service.analyze("co", Algo::Components, &params).unwrap();
            if removed_something {
                assert!(
                    !warm_cc.warm(),
                    "round {round}: component seeds are unsound after a removal"
                );
            }
            let cold_cc =
                compute_on_handle(snap.handle(), Algo::Components, &params, None, 2).unwrap();
            assert_eq!(
                warm_cc.outcome().labels,
                cold_cc.labels,
                "round {round} seed {seed}: component labels"
            );
        }
        // Warm starts actually happened and saved work somewhere.
        let counters = service.analyze_counters();
        assert!(counters.warm_starts >= 4, "{counters:?}");
    }
}

#[test]
fn multi_layer_condensed_falls_back_to_expansion() {
    let (db, query) = layered_database(LayeredConfig {
        rows_a: 240,
        rows_b: 240,
        outer_selectivity: 0.1,
        inner_selectivity: 0.2,
        seed: 33,
    });
    let service = GraphService::in_memory(db);
    let snap = service.extract("layered", &query).unwrap();
    let params = AnalyzeParams::default();
    let handle = snap.handle();
    let multi_layer = handle
        .graph()
        .as_condensed()
        .is_some_and(|c| !c.is_single_layer());
    assert!(
        multi_layer,
        "the layered workload must produce a multi-layer condensed handle \
         (otherwise the fall-back path is never exercised)"
    );
    let exp = handle
        .convert(RepKind::Exp, &ConvertOptions::default())
        .unwrap();
    for algo in Algo::all() {
        let got = compute_on_handle(handle, algo, &params, None, 2).unwrap();
        let want = compute_on_handle(&exp, algo, &params, None, 2).unwrap();
        if multi_layer {
            // The fall-back converts internally; the result is traversal.
            assert_eq!(got.path.label(), "traversal", "{}", algo.label());
        }
        match algo {
            Algo::Degree => assert_eq!(got.degrees, want.degrees),
            Algo::Components => assert_eq!(got.labels, want.labels),
            Algo::Triangles | Algo::Clustering => assert_eq!(got.summary, want.summary),
            Algo::Pagerank => {
                let d = linf(got.ranks.as_ref().unwrap(), want.ranks.as_ref().unwrap());
                assert!(d <= 1e-9, "pagerank L∞={d}");
            }
        }
    }
    // The end-to-end verb works on this graph too.
    let entry = service.analyze("layered", Algo::Degree, &params).unwrap();
    assert_eq!(entry.version(), 1);
}
