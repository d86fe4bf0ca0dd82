//! The §6.5 expansion test counts expanded edges vertex by vertex and
//! stops as soon as the count passes the bound. It must give exactly the
//! answer of the full comparison `expanded_edge_count() <= stored × t`
//! (or `true` on a graph that stores no edge): on random single- and
//! multi-layer graphs with direct edges and deleted vertices, on graphs
//! built to sit exactly on the boundary, and on the empty graph.

use graphgen_common::SplitMix64;
use graphgen_dedup::preprocess::should_expand;
use graphgen_graph::{CondensedBuilder, CondensedGraph, GraphRep, RealId};

/// The full comparison `should_expand` short-cuts.
fn full_comparison(g: &CondensedGraph, threshold: f64) -> bool {
    let stored = g.stored_edge_count() as f64;
    stored == 0.0 || g.expanded_edge_count() as f64 <= stored * threshold
}

/// A uniform draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + rng.next_below(u64::from(hi - lo)) as u32
}

/// Random cliques of 1 to 6 members, some behind a second virtual layer,
/// plus direct edges, with about a fifth of the vertices deleted.
fn random_graph(rng: &mut SplitMix64) -> CondensedGraph {
    let n = range(rng, 1, 30);
    let mut b = CondensedBuilder::new(n as usize);
    for _ in 0..range(rng, 0, 10) {
        let members: Vec<RealId> = (0..range(rng, 1, 7))
            .map(|_| RealId(range(rng, 0, n)))
            .collect();
        if rng.next_below(3) == 0 {
            // u -> V -> W -> t: the same membership through two layers.
            let (v, w) = (b.add_virtual(), b.add_virtual());
            b.virtual_to_virtual(v, w);
            for &m in &members {
                b.real_to_virtual(m, v);
                b.virtual_to_real(w, m);
            }
        } else {
            b.clique(&members);
        }
    }
    for _ in 0..range(rng, 0, 2 * n) {
        b.direct(RealId(range(rng, 0, n)), RealId(range(rng, 0, n)));
    }
    let mut g = b.build();
    for u in 0..n {
        if rng.next_below(5) == 0 {
            g.delete_vertex(RealId(u));
        }
    }
    g
}

#[test]
fn early_exit_matches_full_comparison_on_random_graphs() {
    for seed in 0..256u64 {
        let g = random_graph(&mut SplitMix64::new(0x65E0 + seed));
        let stored = g.stored_edge_count();
        let expanded = g.expanded_edge_count();
        let mut thresholds = vec![0.0, 0.5, 1.0, 1.2, 2.0, 10.0, f64::NAN];
        if stored > 0 {
            // The exact ratio and its neighbors one edge either side.
            for e in [expanded.saturating_sub(1), expanded, expanded + 1] {
                thresholds.push(e as f64 / stored as f64);
            }
        }
        for t in thresholds {
            assert_eq!(
                should_expand(&g, t),
                full_comparison(&g, t),
                "seed {seed}: stored {stored}, expanded {expanded}, threshold {t}"
            );
        }
    }
}

#[test]
fn boundary_is_inclusive_to_the_edge() {
    // One 4-clique: stored 8 (a power of two, so every ratio below is
    // exact), expanded 12.
    let mut b = CondensedBuilder::new(4);
    b.clique(&[RealId(0), RealId(1), RealId(2), RealId(3)]);
    let g = b.build();
    assert_eq!((g.stored_edge_count(), g.expanded_edge_count()), (8, 12));
    assert!(
        should_expand(&g, 12.0 / 8.0),
        "exactly on the bound expands"
    );
    assert!(
        !should_expand(&g, 11.0 / 8.0),
        "one edge over the bound does not"
    );
    assert!(should_expand(&g, 13.0 / 8.0));
}

#[test]
fn graphs_storing_no_edge_always_expand() {
    let empty = CondensedBuilder::new(0).build();
    assert!(should_expand(&empty, 1.2));
    assert!(should_expand(&empty, 0.0));
    let isolated = CondensedBuilder::new(5).build();
    assert!(should_expand(&isolated, 1.2));
    assert_eq!(
        should_expand(&isolated, 1.2),
        full_comparison(&isolated, 1.2)
    );
}
