//! The two naive DEDUP-1 algorithms (§5.2.1).
//!
//! Both share the same pairwise conflict resolution: when two virtual nodes
//! `V`, `R` duplicate a logical edge (they share at least one source and at
//! least one target forming a non-self pair), shared targets are removed
//! from one of the two — the one with the smaller in-degree, so fewer
//! compensating direct edges are needed — until no duplication remains
//! between the pair.
//!
//! * **Naive Virtual-Nodes-First** grows a partial graph one virtual node at
//!   a time, resolving each new node against every already-added node it
//!   conflicts with.
//! * **Naive Real-Nodes-First** walks real nodes and resolves all pairwise
//!   conflicts among each node's virtual neighborhood (the `processed` set
//!   is cleared per real node).

use crate::work::{intersect_sorted, WorkGraph};
use graphgen_common::VertexOrdering;
use graphgen_graph::{CondensedGraph, Dedup1Graph};

/// Is there a duplicated (non-self) logical edge between virtual nodes with
/// these shared sources/targets?
fn has_duplication(shared_sources: &[u32], shared_targets: &[u32]) -> bool {
    if shared_sources.is_empty() || shared_targets.is_empty() {
        return false;
    }
    // Only degenerate case with no non-self pair: one shared source == the
    // one shared target.
    !(shared_sources.len() == 1
        && shared_targets.len() == 1
        && shared_sources[0] == shared_targets[0])
}

/// Resolve all duplication between virtual nodes `v1` and `v2` by removing
/// shared targets from the smaller-in-degree node and compensating.
pub(crate) fn resolve_pair(w: &mut WorkGraph, v1: u32, v2: u32) {
    loop {
        let ss = intersect_sorted(&w.iv[v1 as usize], &w.iv[v2 as usize]);
        let st = intersect_sorted(w.targets(v1), w.targets(v2));
        if !has_duplication(&ss, &st) {
            return;
        }
        // Pick a shared target that participates in a non-self duplicate
        // pair: any target unless it is the sole shared source.
        let r = *st
            .iter()
            .find(|&&t| ss.len() > 1 || ss[0] != t)
            .expect("duplication implies such a target");
        // Remove from the node with the smaller in-degree (fewer direct
        // edges to compensate, the paper's §5.2.1 heuristic).
        let side = if w.iv[v1 as usize].len() <= w.iv[v2 as usize].len() {
            v1
        } else {
            v2
        };
        w.remove_target_and_compensate(side, r);
    }
}

/// Naive Virtual-Nodes-First (complexity `O(n_v * d^4)`).
pub fn naive_virtual_nodes_first(
    g: &CondensedGraph,
    ordering: VertexOrdering,
    seed: u64,
) -> Dedup1Graph {
    let mut w = WorkGraph::from_condensed(g, false);
    let order = ordering.order_by(w.num_virtual(), |v| w.targets(v).len() as u64, seed);
    for v in order {
        // Activate first so that conflict compensation sees v as a witness
        // (otherwise removing a shared target from the *other* node would
        // add a direct edge v is about to duplicate).
        w.activate(v);
        // Direct edges covered by v become redundant.
        w.absorb_direct_edges(v);
        // Candidate conflicts: active virtual nodes sharing a source.
        let mut candidates: Vec<u32> = Vec::new();
        for &u in &w.iv[v as usize] {
            for &r in &w.rv[u as usize] {
                if r != v && w.active[r as usize] {
                    candidates.push(r);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for r in candidates {
            resolve_pair(&mut w, v, r);
        }
    }
    debug_assert!(w.is_deduplicated());
    Dedup1Graph::new_unchecked(w.into_condensed())
}

/// Naive Real-Nodes-First (complexity `O(n_r * d^4)`).
pub fn naive_real_nodes_first(
    g: &CondensedGraph,
    ordering: VertexOrdering,
    seed: u64,
) -> Dedup1Graph {
    let mut w = WorkGraph::from_condensed(g, true);
    // Every virtual node is in the graph from the start, so a direct edge
    // one of them covers duplicates a path already.
    for v in 0..w.num_virtual() as u32 {
        w.absorb_direct_edges(v);
    }
    let order = ordering.order_by(w.num_real(), |u| w.rv[u as usize].len() as u64, seed);
    for u in order {
        let neighborhood = w.rv[u as usize].clone();
        let mut processed: Vec<u32> = Vec::with_capacity(neighborhood.len());
        for v in neighborhood {
            // v may have been emptied by earlier resolutions.
            for &r in &processed {
                resolve_pair(&mut w, v, r);
            }
            processed.push(v);
        }
    }
    debug_assert!(w.is_deduplicated());
    Dedup1Graph::new_unchecked(w.into_condensed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{
        expand_to_edge_list, validate::validate_dedup1, CondensedBuilder, GraphRep, RealId,
    };

    fn fig1() -> CondensedGraph {
        let mut b = CondensedBuilder::new(5);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(0), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        b.build()
    }

    /// Heavily overlapping cliques (Fig. 6-like stress).
    fn overlapping() -> CondensedGraph {
        let mut b = CondensedBuilder::new(9);
        let ids: Vec<RealId> = (0..9).map(RealId).collect();
        b.clique(&ids[0..6]);
        b.clique(&ids[3..9]);
        b.clique(&ids[2..7]);
        b.build()
    }

    #[test]
    fn vnf_preserves_semantics_and_dedups() {
        for g in [fig1(), overlapping()] {
            let before = expand_to_edge_list(&g);
            let d = naive_virtual_nodes_first(&g, VertexOrdering::Random, 1);
            assert_eq!(expand_to_edge_list(&d), before);
            assert!(validate_dedup1(&d).is_ok());
        }
    }

    #[test]
    fn rnf_preserves_semantics_and_dedups() {
        for g in [fig1(), overlapping()] {
            let before = expand_to_edge_list(&g);
            let d = naive_real_nodes_first(&g, VertexOrdering::Random, 1);
            assert_eq!(expand_to_edge_list(&d), before);
            assert!(validate_dedup1(&d).is_ok());
        }
    }

    #[test]
    fn rnf_drops_direct_edges_a_virtual_node_covers() {
        // 0 → 1 is both a direct edge and a path through the clique.
        let mut b = CondensedBuilder::new(3);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        b.direct(RealId(0), RealId(1));
        let g = b.build();
        let before = expand_to_edge_list(&g);
        let d = naive_real_nodes_first(&g, VertexOrdering::Random, 1);
        assert_eq!(expand_to_edge_list(&d), before);
        assert!(validate_dedup1(&d).is_ok());
    }

    #[test]
    fn all_orderings_work() {
        let g = overlapping();
        let before = expand_to_edge_list(&g);
        for ord in VertexOrdering::all() {
            let d1 = naive_virtual_nodes_first(&g, ord, 7);
            let d2 = naive_real_nodes_first(&g, ord, 7);
            assert_eq!(expand_to_edge_list(&d1), before, "vnf {ord:?}");
            assert_eq!(expand_to_edge_list(&d2), before, "rnf {ord:?}");
        }
    }

    #[test]
    fn identical_cliques_collapse_to_one() {
        let mut b = CondensedBuilder::new(3);
        let ids = [RealId(0), RealId(1), RealId(2)];
        b.clique(&ids);
        b.clique(&ids);
        let g = b.build();
        let d = naive_virtual_nodes_first(&g, VertexOrdering::Ascending, 0);
        // One of the cliques must have been gutted.
        assert!(d.num_virtual() <= 2);
        assert_eq!(d.expanded_edge_count(), 6);
        assert!(validate_dedup1(&d).is_ok());
    }

    #[test]
    fn no_duplication_is_a_noop_semantically() {
        let mut b = CondensedBuilder::new(4);
        b.clique(&[RealId(0), RealId(1)]);
        b.clique(&[RealId(2), RealId(3)]);
        let g = b.build();
        let before = expand_to_edge_list(&g);
        let d = naive_real_nodes_first(&g, VertexOrdering::Random, 3);
        assert_eq!(expand_to_edge_list(&d), before);
        assert_eq!(d.stored_edge_count(), g.stored_edge_count());
    }
}
