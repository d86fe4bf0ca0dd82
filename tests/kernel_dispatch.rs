//! The library kernels choose their own path. `degrees`, `pagerank` and
//! `connected_components`, called through a `GraphHandle` of every
//! representation at 1 and 2 threads, must answer what the same calls on
//! the EXP conversion answer: degrees and labels exactly, ranks to 1e-12.
//! Each handle must also take the `CondensedPath` its representation
//! allows. The inputs cover a symmetric single-layer graph, a multi-layer
//! C-DUP and a directed extraction, each with a tombstoned and a revived
//! slot.

use graphgen::algo::{
    condensed_path, connected_components, degrees, pagerank, CondensedPath, PageRankConfig,
};
use graphgen::core::{ConvertOptions, GraphGen, GraphGenConfig, GraphHandle};
use graphgen::datagen::relational::UNIV_BIPARTITE;
use graphgen::datagen::{
    layered_database, single_layer_database, univ, LayeredConfig, SingleLayerConfig, UnivConfig,
};
use graphgen::graph::{GraphRep, RealId, RepKind};
use graphgen::reldb::Database;
use graphgen::ConvertError;

/// Extract `dsl` and keep it condensed (no auto-expansion to EXP).
fn extract(db: &Database, dsl: &str) -> GraphHandle {
    let config = GraphGenConfig::builder()
        .auto_expand_threshold(None)
        .build();
    let h = GraphGen::with_config(db, config).extract(dsl).unwrap();
    assert_eq!(h.kind(), RepKind::CDup);
    h
}

/// Tombstone `revived` and `dead`, then revive `revived`: its hidden
/// adjacency comes back, the other slot stays dead.
fn churn(h: &mut GraphHandle, revived: RealId, dead: RealId) {
    h.delete_vertex(revived);
    h.delete_vertex(dead);
    h.revive_vertex(revived);
}

/// The path each representation must take on a single-layer or a
/// multi-layer core.
fn expected_path(kind: RepKind, single_layer: bool) -> CondensedPath {
    match kind {
        RepKind::Dedup1 if single_layer => CondensedPath::Aggregated,
        RepKind::CDup | RepKind::Bitmap if single_layer => CondensedPath::Merged,
        _ => CondensedPath::Traversal,
    }
}

/// Check every representation `cdup` converts to against its EXP
/// conversion; returns the representations checked.
fn check_all(name: &str, cdup: &GraphHandle) -> Vec<RepKind> {
    let single_layer = cdup.as_condensed().unwrap().is_single_layer();
    let opts = ConvertOptions::default();
    let mut exp = cdup.convert(RepKind::Exp, &opts).unwrap();
    // The two vertices with the most out-edges: churn has something to hide.
    let mut by_degree: Vec<RealId> = exp.vertices().collect();
    by_degree.sort_by_key(|&u| std::cmp::Reverse(exp.degree(u)));
    let (revived, dead) = (by_degree[0], by_degree[1]);
    churn(&mut exp, revived, dead);
    assert!(
        exp.degree(revived) > 0,
        "{name}: the revived slot has edges"
    );
    let mut checked = Vec::new();
    for kind in RepKind::all() {
        let mut h = match cdup.convert(kind, &opts) {
            Ok(h) => h,
            Err(ConvertError::MultiLayer | ConvertError::Asymmetric) => continue,
            Err(e) => panic!("{name}: {kind} conversion failed: {e}"),
        };
        churn(&mut h, revived, dead);
        assert!(!h.is_alive(dead) && h.is_alive(revived), "{name} {kind}");
        assert_eq!(
            condensed_path(&h),
            expected_path(kind, single_layer),
            "{name} {kind}"
        );
        for threads in [1, 2] {
            let ctx = format!("{name} {kind} threads={threads}");
            let want_deg = degrees(&exp, threads);
            assert_eq!(want_deg[dead.0 as usize], 0, "{ctx}");
            assert_eq!(degrees(&h, threads), want_deg, "{ctx} degrees");
            let want_cc = connected_components(&exp, threads);
            assert_eq!(want_cc[dead.0 as usize], dead.0, "{ctx}");
            assert_eq!(connected_components(&h, threads), want_cc, "{ctx} labels");
            let cfg = PageRankConfig {
                threads,
                ..Default::default()
            };
            let (got, want) = (pagerank(&h, cfg), pagerank(&exp, cfg));
            assert_eq!(got.len(), want.len(), "{ctx}");
            assert_eq!(want[dead.0 as usize], 0.0, "{ctx}");
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() <= 1e-12, "{ctx} rank {i}: {a} vs {b}");
            }
        }
        checked.push(kind);
    }
    checked
}

#[test]
fn symmetric_single_layer_takes_the_structural_paths() {
    let (db, dsl) = single_layer_database(SingleLayerConfig {
        rows: 600,
        selectivity: 0.05,
        seed: 5,
    });
    let cdup = extract(&db, &dsl);
    assert!(cdup.as_condensed().unwrap().num_virtual() > 0);
    assert_eq!(check_all("single-layer", &cdup), RepKind::all());
}

#[test]
fn multi_layer_cdup_traverses() {
    let (db, dsl) = layered_database(LayeredConfig {
        rows_a: 240,
        rows_b: 240,
        outer_selectivity: 0.1,
        inner_selectivity: 0.2,
        seed: 33,
    });
    let cdup = extract(&db, &dsl);
    assert!(!cdup.as_condensed().unwrap().is_single_layer());
    // DEDUP-1 and DEDUP-2 refuse a multi-layer source; BITMAP keeps its
    // multi-layer core and traverses like C-DUP.
    assert_eq!(
        check_all("multi-layer", &cdup),
        [RepKind::CDup, RepKind::Exp, RepKind::Bitmap]
    );
}

#[test]
fn directed_extraction_takes_the_structural_paths() {
    let db = univ(UnivConfig {
        students: 200,
        instructors: 10,
        courses: 25,
        avg_courses_per_student: 3.0,
        seed: 4,
    });
    let cdup = extract(&db, UNIV_BIPARTITE);
    assert!(cdup.as_condensed().unwrap().is_single_layer());
    // DEDUP-2 needs a symmetric graph; every other representation runs.
    assert_eq!(
        check_all("directed", &cdup),
        [
            RepKind::CDup,
            RepKind::Exp,
            RepKind::Dedup1,
            RepKind::Bitmap
        ]
    );
}
