//! Greedy Real-Nodes-First deduplication (§5.2.1, Fig. 8).
//!
//! Each real node `u` is deduplicated individually with a set-cover-style
//! heuristic: start from the hypothetical state where `u` is connected to
//! all its neighbors by direct edges (`E = N(u)`) and attached to no virtual
//! node (`V'' = all of u's virtual nodes, V' = ∅`). Greedily move the
//! virtual node with the highest *benefit* (net edge reduction) from `V''`
//! to `V'`; moving `V` drops the direct edges it covers but requires
//! disconnecting `V` from targets already covered via `V'` (with direct-edge
//! compensation for other sources that lose their only witness). When no
//! move has positive benefit, `u` is physically detached from the remaining
//! `V''` nodes and the leftover direct edges are installed.

use crate::work::{sorted_insert, WorkGraph};
use graphgen_common::{FxHashSet, VertexOrdering};
use graphgen_graph::{CondensedGraph, Dedup1Graph};

/// Benefit of moving virtual node `v` into `V'` for source `u`:
/// `+ |O(v) \ X \ {u}|` (direct edges from E dropped)
/// `+ |O(v) ∩ X|`       (target edges disconnected from v)
/// `- 1`                (the kept u→v edge)
/// `- compensations`    (sources losing their only witness to a
///                       disconnected target).
fn move_benefit(w: &WorkGraph, u: u32, v: u32, covered: &FxHashSet<u32>) -> i64 {
    let ov = w.targets(v);
    let mut new_cover = 0i64;
    let mut overlap: Vec<u32> = Vec::new();
    for &t in ov {
        if covered.contains(&t) {
            overlap.push(t);
        } else if t != u {
            new_cover += 1;
        }
    }
    let mut comp = 0i64;
    for &t in &overlap {
        for &x in &w.iv[v as usize] {
            // After disconnecting t from v, does x still reach t?
            if x != t && w.witness_count(x, t) == 1 {
                // v was the only witness (witness_count counts v once).
                comp += 1;
            }
        }
    }
    new_cover + overlap.len() as i64 - 1 - comp
}

/// Apply the move: disconnect covered targets from `v` (compensating), and
/// return `v`'s remaining targets for the caller to mark covered.
fn apply_move(w: &mut WorkGraph, v: u32, covered: &mut FxHashSet<u32>) {
    let overlap: Vec<u32> = w
        .targets(v)
        .iter()
        .copied()
        .filter(|t| covered.contains(t))
        .collect();
    for t in overlap {
        w.remove_target_and_compensate(v, t);
    }
    for &t in w.targets(v) {
        covered.insert(t);
    }
}

/// Greedy Real-Nodes-First (complexity roughly `O(n_r * d^5)`).
pub fn greedy_real_nodes_first(
    g: &CondensedGraph,
    ordering: VertexOrdering,
    seed: u64,
) -> Dedup1Graph {
    let mut w = WorkGraph::from_condensed(g, true);
    let order = ordering.order_by(w.num_real(), |u| w.rv[u as usize].len() as u64, seed);
    for u in order {
        if w.rv[u as usize].len() < 2 && w.direct_targets(u).is_empty() {
            continue; // a single virtual neighbor cannot self-duplicate
        }
        // N(u): everything u currently reaches.
        let mut remaining: FxHashSet<u32> = FxHashSet::default();
        for &v in &w.rv[u as usize] {
            for &t in w.targets(v) {
                if t != u {
                    remaining.insert(t);
                }
            }
        }
        for &t in w.direct_targets(u) {
            remaining.insert(t);
        }

        let mut vpp: Vec<u32> = w.rv[u as usize].clone();
        let mut covered: FxHashSet<u32> = FxHashSet::default();
        // Temporarily detach u from all its virtual nodes so that witness
        // counting during the greedy inspection reflects the hypothetical
        // "direct edges only" baseline for u itself.
        for &v in &vpp {
            crate::work::sorted_remove(&mut w.iv[v as usize], u);
        }
        w.rv[u as usize].clear();

        loop {
            let mut best: Option<(usize, i64)> = None;
            for (i, &v) in vpp.iter().enumerate() {
                let b = move_benefit(&w, u, v, &covered);
                if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                    best = Some((i, b));
                }
            }
            let Some((idx, _)) = best else { break };
            let v = vpp.swap_remove(idx);
            apply_move(&mut w, v, &mut covered);
            // Re-attach u to the kept node.
            sorted_insert(&mut w.iv[v as usize], u);
            sorted_insert(&mut w.rv[u as usize], v);
        }
        // Whatever is not covered through V' must be a direct edge; drop
        // direct edges that became covered.
        let direct_now: Vec<u32> = w.direct_targets(u).to_vec();
        for t in direct_now {
            if covered.contains(&t) {
                w.remove_direct(u, t);
            }
        }
        for t in remaining {
            if !covered.contains(&t) && t != u {
                w.add_direct(u, t);
            }
        }
    }
    debug_assert!(w.is_deduplicated());
    Dedup1Graph::new_unchecked(w.into_condensed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{
        expand_to_edge_list, validate::validate_dedup1, CondensedBuilder, RealId,
    };

    fn fig8_like() -> CondensedGraph {
        // One real node connected to several heavily overlapping virtual
        // nodes, as in Fig. 8.
        let mut b = CondensedBuilder::new(10);
        let ids: Vec<RealId> = (0..10).map(RealId).collect();
        b.clique(&[ids[0], ids[1], ids[2], ids[3]]);
        b.clique(&[ids[0], ids[2], ids[3], ids[4]]);
        b.clique(&[ids[0], ids[3], ids[4], ids[5]]);
        b.clique(&[ids[0], ids[5], ids[6]]);
        b.clique(&[ids[0], ids[1], ids[6], ids[7]]);
        b.build()
    }

    #[test]
    fn semantics_preserved_and_deduplicated() {
        let g = fig8_like();
        let before = expand_to_edge_list(&g);
        let d = greedy_real_nodes_first(&g, VertexOrdering::Random, 42);
        assert_eq!(expand_to_edge_list(&d), before);
        assert!(validate_dedup1(&d).is_ok());
    }

    #[test]
    fn reduces_edges_vs_duplicated_input() {
        use graphgen_graph::GraphRep;
        let g = fig8_like();
        let d = greedy_real_nodes_first(&g, VertexOrdering::Descending, 0);
        // The deduplicated structure should not blow up: at most the
        // expanded size.
        assert!(d.stored_edge_count() <= d.expanded_edge_count() * 2 + 2 * d.num_virtual() as u64);
        assert!(validate_dedup1(&d).is_ok());
    }

    #[test]
    fn all_orderings_preserve_semantics() {
        let g = fig8_like();
        let before = expand_to_edge_list(&g);
        for ord in VertexOrdering::all() {
            let d = greedy_real_nodes_first(&g, ord, 5);
            assert_eq!(expand_to_edge_list(&d), before, "{ord:?}");
            assert!(validate_dedup1(&d).is_ok(), "{ord:?}");
        }
    }

    #[test]
    fn disjoint_cliques_untouched() {
        let mut b = CondensedBuilder::new(6);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        b.clique(&[RealId(3), RealId(4), RealId(5)]);
        let g = b.build();
        let before = expand_to_edge_list(&g);
        let d = greedy_real_nodes_first(&g, VertexOrdering::Random, 9);
        assert_eq!(expand_to_edge_list(&d), before);
    }
}
