//! Plan-drift detection end-to-end: each graph's frozen extraction-time
//! plan is re-costed against live statistics after every publish, the
//! verdict is surfaced through `stats()` / the `EXPLAIN` verb, and the
//! frozen plan survives crash recovery.
//!
//! The fixture is the Fig. 1 DBLP instance (8 `AuthorPub` rows over 3
//! publications): the self-join estimate `8·8/3 ≈ 21` sits under the
//! `2·(8+8) = 32` threshold, so the frozen plan keeps the join in one
//! segment. Piling rows onto one publication pushes `|L|·|R|/d` past the
//! threshold, the live min-cost plan flips to cutting the join, and the
//! fingerprint mismatch must flag the frozen plan stale.

use graphgen_reldb::Value;
use graphgen_serve::testutil::{fig1_db, TempDir};
use graphgen_serve::{GraphService, GraphStats, ServiceConfig, TableMutation};

const Q: &str = "Nodes(ID, Name) :- Author(ID, Name). \
                 Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).";

fn graph_stats(service: &GraphService, name: &str) -> GraphStats {
    let (stats, _) = service.stats();
    stats
        .into_iter()
        .find(|s| s.name == name)
        .expect("registered graph")
}

/// Virtual nodes of the served coauthor graph: none while the frozen plan
/// keeps the join, one per publication once a plan cuts it.
fn num_virtual(service: &GraphService) -> usize {
    let snapshot = service.snapshot("coauthors").expect("registered graph");
    let graph = snapshot
        .handle()
        .graph()
        .as_condensed()
        .map(|g| g.num_virtual());
    graph.expect("served graphs are C-DUP")
}

/// Insert `n` fresh memberships all naming publication `pid` (skewing the
/// join-key distribution without adding new distinct keys).
fn skew(service: &GraphService, pid: i64, n: i64) {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::int(100 + i), Value::int(pid)])
        .collect();
    service
        .apply(&[TableMutation::new("AuthorPub", rows, vec![])])
        .expect("apply skew batch");
}

#[test]
fn skewed_growth_flips_stale_plan_and_reverting_clears_it() {
    let service = GraphService::in_memory(fig1_db());
    service.extract("coauthors", Q).unwrap();
    let s = graph_stats(&service, "coauthors");
    assert_eq!(s.drift, 1.0, "fresh extraction is optimal by definition");
    assert!(!s.stale_plan);

    // 20 extra rows on publication 1: 28·28/3 ≈ 261 > 2·56 — the live
    // min-cost plan now cuts the join the frozen plan kept.
    skew(&service, 1, 20);
    let s = graph_stats(&service, "coauthors");
    assert!(s.stale_plan, "skewed stats must flag the frozen plan");
    assert!(s.drift > 1.0, "frozen plan costs more than live min-cost");

    // Deleting the skew restores the original statistics: the frozen
    // plan is min-cost again and the flag must clear, not latch.
    let rows: Vec<Vec<Value>> = (0..20)
        .map(|i| vec![Value::int(100 + i), Value::int(1)])
        .collect();
    service
        .apply(&[TableMutation::new("AuthorPub", vec![], rows)])
        .unwrap();
    let s = graph_stats(&service, "coauthors");
    assert_eq!(s.drift, 1.0);
    assert!(!s.stale_plan);
}

#[test]
fn churn_that_preserves_the_distribution_never_trips_the_detector() {
    let service = GraphService::in_memory(fig1_db());
    service.extract("coauthors", Q).unwrap();
    // Author rows are scanned by the Nodes rule but sit outside every
    // Edges chain: the batches version the graph without moving any
    // join statistic.
    for a in 0..10 {
        service
            .apply(&[TableMutation::new(
                "Author",
                vec![vec![Value::int(200 + a), Value::str(format!("n{a}"))]],
                vec![],
            )])
            .unwrap();
        let s = graph_stats(&service, "coauthors");
        assert_eq!(s.drift, 1.0, "after batch {a}");
        assert!(!s.stale_plan, "after batch {a}");
    }
    // Balanced AuthorPub churn: insert and delete the same membership.
    for _ in 0..5 {
        service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(2), Value::int(3)]],
                vec![],
            )])
            .unwrap();
        service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![],
                vec![vec![Value::int(2), Value::int(3)]],
            )])
            .unwrap();
    }
    let s = graph_stats(&service, "coauthors");
    assert_eq!(s.drift, 1.0);
    assert!(!s.stale_plan);
}

/// The frozen plan is persisted in the graph snapshot, so a restart
/// re-costs the *original* extraction-time plan — not a re-planned one —
/// against the recovered catalog.
#[test]
fn drift_verdict_survives_recovery() {
    let dir = TempDir::new("drift-recovery");
    let virtual_nodes;
    {
        let service =
            GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()).unwrap();
        service.extract("coauthors", Q).unwrap();
        skew(&service, 1, 20);
        assert!(graph_stats(&service, "coauthors").stale_plan);
        virtual_nodes = num_virtual(&service);
    } // dropped: recovery path only from here
    let service = GraphService::open(dir.path()).unwrap();
    let s = graph_stats(&service, "coauthors");
    assert!(
        s.stale_plan,
        "recovered frozen plan must still read stale against recovered stats"
    );
    assert!(s.drift > 1.0);
    assert_eq!(
        num_virtual(&service),
        virtual_nodes,
        "rebuilt at the frozen cuts"
    );
    // And the verdict keeps updating on the recovered service.
    let rows: Vec<Vec<Value>> = (0..20)
        .map(|i| vec![Value::int(100 + i), Value::int(1)])
        .collect();
    service
        .apply(&[TableMutation::new("AuthorPub", vec![], rows)])
        .unwrap();
    let s = graph_stats(&service, "coauthors");
    assert!(!s.stale_plan);
    assert_eq!(s.drift, 1.0);
}

/// Compaction folds the WAL into a fresh snapshot; the frozen plan must
/// ride along (a fold must never silently re-freeze the live plan).
#[test]
fn compaction_preserves_the_frozen_plan() {
    let dir = TempDir::new("drift-compact");
    let virtual_nodes;
    {
        let service =
            GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()).unwrap();
        service.extract("coauthors", Q).unwrap();
        skew(&service, 1, 20);
        service.compact("coauthors").unwrap();
        virtual_nodes = num_virtual(&service);
    }
    let service = GraphService::open(dir.path()).unwrap();
    let s = graph_stats(&service, "coauthors");
    assert!(
        s.stale_plan,
        "post-compaction snapshot must carry the original frozen plan, \
         not one re-planned on the skewed statistics"
    );
    assert_eq!(
        num_virtual(&service),
        virtual_nodes,
        "rebuilt at the frozen cuts"
    );
}
