//! Cross-crate agreement: every algorithm must produce the same result on
//! every representation, and the Giraph-style message-passing engine must
//! agree with the shared-memory vertex-centric engine.

use graphgen::algo::{bfs, connected_components, degrees, pagerank, triangles, PageRankConfig};
use graphgen::common::VertexOrdering;
use graphgen::datagen::{synthetic_condensed, CondensedGenConfig};
use graphgen::dedup::{bitmap2, dedup2_greedy, Dedup1Algorithm};
use graphgen::giraph::{self, GiraphRep};
use graphgen::graph::{ExpandedGraph, GraphRep, RealId};

fn dataset(seed: u64) -> graphgen::graph::CondensedGraph {
    synthetic_condensed(CondensedGenConfig {
        n_real: 300,
        n_virtual: 120,
        mean_size: 6.0,
        sd_size: 3.0,
        seed,
    })
}

#[test]
fn kernels_agree_across_all_representations() {
    for seed in [1u64, 2, 3] {
        let cdup = dataset(seed);
        let exp = ExpandedGraph::from_rep(&cdup);
        let dedup1 = Dedup1Algorithm::GreedyRnf.run(&cdup, VertexOrdering::Random, seed);
        // The DEDUP-1 `GraphHandle::convert` builds by default (Greedy-VNF).
        let dedup1_default = Dedup1Algorithm::GreedyVnf.run(&cdup, VertexOrdering::Descending, 0);
        let dedup2 = dedup2_greedy(&cdup, VertexOrdering::Descending, seed);
        let (bmp, _) = bitmap2(cdup.clone());

        let ref_deg = degrees(&exp, 2);
        let ref_cc = connected_components(&exp, 2);
        let ref_pr = pagerank(
            &exp,
            PageRankConfig {
                damping: 0.85,
                iterations: 12,
                threads: 2,
            },
        );
        let ref_bfs = bfs(&exp, RealId(0));
        let ref_tri = triangles(&exp);

        macro_rules! check {
            ($label:expr, $g:expr) => {
                assert_eq!(degrees(&$g, 2), ref_deg, "{} degree (seed {seed})", $label);
                assert_eq!(
                    connected_components(&$g, 2),
                    ref_cc,
                    "{} concomp (seed {seed})",
                    $label
                );
                let pr = pagerank(
                    &$g,
                    PageRankConfig {
                        damping: 0.85,
                        iterations: 12,
                        threads: 2,
                    },
                );
                for (i, (a, b)) in pr.iter().zip(&ref_pr).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "{} pagerank diverges at {i}: {a} vs {b}",
                        $label
                    );
                }
                assert_eq!(bfs(&$g, RealId(0)), ref_bfs, "{} bfs", $label);
                assert_eq!(triangles(&$g), ref_tri, "{} triangles", $label);
            };
        }
        check!("C-DUP", cdup);
        check!("DEDUP-1", dedup1);
        check!("DEDUP-1 (default)", dedup1_default);
        check!("DEDUP-2", dedup2);
        check!("BITMAP-2", bmp);
    }
}

#[test]
fn giraph_engine_agrees_with_shared_memory_engine() {
    let cdup = dataset(9);
    let exp = ExpandedGraph::from_rep(&cdup);
    let dedup1 = Dedup1Algorithm::GreedyVnf.run(&cdup, VertexOrdering::Random, 9);
    let (bmp, _) = bitmap2(cdup.clone());

    let ref_deg = degrees(&exp, 2);
    let (gd, _) = giraph::degree(GiraphRep::Dedup1(&dedup1));
    assert_eq!(gd, ref_deg);
    let (gb, _) = giraph::degree(GiraphRep::Bitmap(&bmp));
    assert_eq!(gb, ref_deg);

    let ref_pr = pagerank(
        &exp,
        PageRankConfig {
            damping: 0.85,
            iterations: 10,
            threads: 2,
        },
    );
    for rep in [
        GiraphRep::Exp(&exp),
        GiraphRep::Dedup1(&dedup1),
        GiraphRep::Bitmap(&bmp),
    ] {
        let (pr, stats) = giraph::pagerank(rep, 10, 0.85);
        for (i, (a, b)) in pr.iter().zip(&ref_pr).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "{} giraph pagerank diverges at {i}: {a} vs {b}",
                rep.label()
            );
        }
        assert!(stats.messages > 0);
    }

    let ref_cc = connected_components(&exp, 2);
    let (cc, _) = giraph::connected_components(GiraphRep::CDup(&cdup));
    assert_eq!(cc, ref_cc, "concomp on raw C-DUP must already be correct");
}

/// An identical mutation script applied to every representation: kill a
/// few hubs, prune edges, grow new vertices, then revive one victim — the
/// resulting graphs carry tombstoned slots, revived slots with restored
/// adjacency, and isolated newcomers all at once.
fn churn<G: GraphRep>(g: &mut G) -> (Vec<RealId>, Vec<RealId>) {
    let dead = vec![RealId(3), RealId(17), RealId(41)];
    for &u in &dead {
        g.delete_vertex(u);
    }
    g.delete_edge(RealId(5), RealId(9));
    g.delete_edge(RealId(9), RealId(5));
    let mut fresh = Vec::new();
    for _ in 0..3 {
        fresh.push(g.add_vertex());
    }
    // Wire the first newcomer in; leave the rest isolated.
    g.add_edge(fresh[0], RealId(7));
    g.add_edge(RealId(7), fresh[0]);
    // A delete/revive round trip must restore the hidden adjacency.
    g.revive_vertex(RealId(17));
    (vec![RealId(3), RealId(41)], fresh)
}

#[test]
fn kernels_agree_on_tombstoned_and_revived_graphs() {
    for seed in [4u64, 5] {
        let mut cdup = dataset(seed);
        let mut exp = ExpandedGraph::from_rep(&cdup);
        let mut dedup1 = Dedup1Algorithm::GreedyRnf.run(&cdup, VertexOrdering::Random, seed);
        let mut dedup1_default =
            Dedup1Algorithm::GreedyVnf.run(&cdup, VertexOrdering::Descending, 0);
        let mut dedup2 = dedup2_greedy(&cdup, VertexOrdering::Descending, seed);
        let (mut bmp, _) = bitmap2(cdup.clone());

        let (dead, fresh) = churn(&mut exp);
        churn(&mut cdup);
        churn(&mut dedup1);
        churn(&mut dedup1_default);
        churn(&mut dedup2);
        churn(&mut bmp);

        let ref_deg = degrees(&exp, 2);
        let ref_cc = connected_components(&exp, 2);
        let ref_tri = triangles(&exp);
        // Tombstoned slots: degree 0, component label = own id.
        for &u in &dead {
            assert!(!exp.is_alive(u));
            assert_eq!(ref_deg[u.0 as usize], 0, "dead slot {u:?} degree");
            assert_eq!(ref_cc[u.0 as usize], u.0, "dead slot {u:?} label");
        }
        // The revived slot is back with its pre-delete adjacency.
        assert!(exp.is_alive(RealId(17)));
        // Isolated newcomers: degree 0, own component.
        for &u in &fresh[1..] {
            assert_eq!(ref_deg[u.0 as usize], 0, "isolated {u:?} degree");
            assert_eq!(ref_cc[u.0 as usize], u.0, "isolated {u:?} label");
        }

        macro_rules! check {
            ($label:expr, $g:expr) => {
                assert_eq!(
                    degrees(&$g, 2),
                    ref_deg,
                    "{} degree after churn (seed {seed})",
                    $label
                );
                assert_eq!(
                    connected_components(&$g, 2),
                    ref_cc,
                    "{} concomp after churn (seed {seed})",
                    $label
                );
                assert_eq!(triangles(&$g), ref_tri, "{} triangles after churn", $label);
            };
        }
        check!("C-DUP", cdup);
        check!("DEDUP-1", dedup1);
        check!("DEDUP-1 (default)", dedup1_default);
        check!("DEDUP-2", dedup2);
        check!("BITMAP-2", bmp);
    }
}

#[test]
fn components_respect_edge_direction() {
    // A truly directed path 0→1→2: min-label flows along *out*-edges only,
    // so every vertex keeps a distinct label — the documented behavior
    // (weakly connected components require symmetric edges).
    let directed = ExpandedGraph::from_edges(3, [(0, 1), (1, 2)]);
    assert_eq!(connected_components(&directed, 2), vec![0, 1, 2]);
    assert_eq!(degrees(&directed, 2), vec![1, 1, 0]);
    // The symmetric closure collapses to one component.
    let undirected = ExpandedGraph::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
    assert_eq!(connected_components(&undirected, 2), vec![0, 0, 0]);
    assert_eq!(degrees(&undirected, 2), vec![1, 2, 1]);
    // Deleting the middle vertex of the symmetric path splits it — and the
    // dead slot immediately vanishes from its neighbors' degree counts.
    let mut cut = ExpandedGraph::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
    cut.delete_vertex(RealId(1));
    assert_eq!(connected_components(&cut, 2), vec![0, 1, 2]);
    assert_eq!(degrees(&cut, 2), vec![0, 0, 0]);
}

#[test]
fn condensed_messaging_is_cheaper_on_dense_graphs() {
    // A dense overlapping-clique graph: condensed PageRank should need far
    // fewer messages than expanded PageRank.
    let cdup = synthetic_condensed(CondensedGenConfig {
        n_real: 500,
        n_virtual: 10,
        mean_size: 120.0,
        sd_size: 20.0,
        seed: 77,
    });
    let exp = ExpandedGraph::from_rep(&cdup);
    let dedup1 = Dedup1Algorithm::GreedyVnf.run(&cdup, VertexOrdering::Random, 7);
    let (_, stats_exp) = giraph::pagerank(GiraphRep::Exp(&exp), 3, 0.85);
    let (_, stats_cond) = giraph::pagerank(GiraphRep::Dedup1(&dedup1), 3, 0.85);
    assert!(
        stats_cond.messages < stats_exp.messages / 2,
        "condensed messages {} should be well under expanded {}",
        stats_cond.messages,
        stats_exp.messages
    );
}
