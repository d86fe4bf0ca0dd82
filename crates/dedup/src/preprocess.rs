//! §4.2 Step 6 preprocessing: expand "cheap" virtual nodes.
//!
//! A virtual node with `in` incoming and `out` outgoing edges stores
//! `in + out` edges plus the node itself; replacing it with direct edges
//! costs `in * out`. If `in * out <= in + out + 1`, expansion does not grow
//! the graph, so the system inlines the node (this removes most degenerate
//! 1- and 2-member virtual nodes extraction produces). The paper implements
//! a multi-threaded version; here the *decision* phase runs in parallel
//! (std scoped threads) and the structural edits are applied serially,
//! which avoids the paper's "non-trivial concurrency issues" while keeping
//! the scan parallel.

use graphgen_common::parallel::{effective_threads, map_morsels};
use graphgen_graph::{CondensedGraph, GraphRep, VirtId};

/// Statistics of a preprocessing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Virtual nodes examined.
    pub examined: usize,
    /// Virtual nodes expanded (inlined into direct edges).
    pub expanded: usize,
}

/// Expand every virtual node whose expansion does not increase the edge
/// count. Only single-layer virtual nodes (no virtual in- or out-edges) are
/// candidates — inlining an interior node of a multi-layer chain would
/// require virtual→virtual rewiring that never pays off under the formula.
///
/// `threads` controls the parallel decision scan (1 = serial).
pub fn expand_cheap_virtuals(g: &mut CondensedGraph, threads: usize) -> PreprocessStats {
    let n_virt = g.num_virtual();
    if n_virt == 0 {
        return PreprocessStats {
            examined: 0,
            expanded: 0,
        };
    }
    let in_index = g.real_in_index();
    // A virtual node is a candidate only if all its out-edges target reals
    // and no virtual node points at it.
    let mut has_virtual_parent = vec![false; n_virt];
    for v in 0..n_virt {
        for a in g.virt_out(VirtId(v as u32)) {
            if let Some(w) = a.as_virtual() {
                has_virtual_parent[w.0 as usize] = true;
            }
        }
    }
    let decide = |v: usize| -> bool {
        if has_virtual_parent[v] {
            return false;
        }
        let out_list = g.virt_out(VirtId(v as u32));
        if out_list.iter().any(|a| a.is_virtual()) {
            return false;
        }
        let inn = in_index[v].len();
        let out = out_list.len();
        inn * out <= inn + out + 1
    };

    let decisions: Vec<bool> = map_morsels(n_virt, effective_threads(threads, n_virt), |range| {
        range.map(&decide).collect::<Vec<_>>()
    })
    .concat();

    let mut expanded = 0;
    for (v, &doit) in decisions.iter().enumerate() {
        if doit {
            g.expand_virtual(VirtId(v as u32), &in_index[v]);
            expanded += 1;
        }
    }
    PreprocessStats {
        examined: n_virt,
        expanded,
    }
}

/// Decide whether to hand the user the expanded graph instead of a condensed
/// one (§6.5): expansion is advised when the expanded size is within
/// `threshold` (e.g. 1.2 = +20%) of the condensed stored size.
///
/// The expanded edges are counted vertex by vertex, and the answer is
/// `false` as soon as the running count passes the bound — the same
/// answer as comparing the full [`GraphRep::expanded_edge_count`].
pub fn should_expand(g: &CondensedGraph, threshold: f64) -> bool {
    let condensed = g.stored_edge_count() as f64;
    if condensed == 0.0 {
        return true;
    }
    let fits = |expanded: u64| expanded as f64 <= condensed * threshold;
    let mut expanded = 0u64;
    for u in g.vertices() {
        expanded += g.degree(u) as u64;
        if !fits(expanded) {
            return false;
        }
    }
    fits(expanded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{expand_to_edge_list, CondensedBuilder, RealId};

    #[test]
    fn two_member_virtuals_are_expanded() {
        // |I|=|O|=2: 2*2=4 <= 2+2+1=5 -> expand.
        let mut b = CondensedBuilder::new(4);
        b.clique(&[RealId(0), RealId(1)]);
        b.clique(&[RealId(2), RealId(3)]);
        let mut g = b.build();
        let before = expand_to_edge_list(&g);
        let stats = expand_cheap_virtuals(&mut g, 1);
        assert_eq!(stats.examined, 2);
        assert_eq!(stats.expanded, 2);
        assert_eq!(expand_to_edge_list(&g), before);
        assert_eq!(g.stored_virtual_count(), 0);
    }

    #[test]
    fn large_virtuals_are_kept() {
        // |I|=|O|=4: 16 > 9 -> keep.
        let mut b = CondensedBuilder::new(4);
        b.clique(&[RealId(0), RealId(1), RealId(2), RealId(3)]);
        let mut g = b.build();
        let stats = expand_cheap_virtuals(&mut g, 1);
        assert_eq!(stats.expanded, 0);
        assert_eq!(g.stored_virtual_count(), 1);
    }

    #[test]
    fn three_member_boundary_case() {
        // |I|=|O|=3: 9 > 7 -> keep.
        let mut b = CondensedBuilder::new(3);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        let mut g = b.build();
        assert_eq!(expand_cheap_virtuals(&mut g, 1).expanded, 0);
    }

    #[test]
    fn asymmetric_fanout_expands() {
        // 1 source, 5 targets: 5 <= 7 -> expand.
        let mut b = CondensedBuilder::new(6);
        let v = b.add_virtual();
        b.real_to_virtual(RealId(0), v);
        for t in 1..6 {
            b.virtual_to_real(v, RealId(t));
        }
        let mut g = b.build();
        let before = expand_to_edge_list(&g);
        assert_eq!(expand_cheap_virtuals(&mut g, 1).expanded, 1);
        assert_eq!(expand_to_edge_list(&g), before);
    }

    #[test]
    fn multilayer_nodes_untouched() {
        let mut b = CondensedBuilder::new(2);
        let v1 = b.add_virtual();
        let v2 = b.add_virtual();
        b.real_to_virtual(RealId(0), v1);
        b.virtual_to_virtual(v1, v2);
        b.virtual_to_real(v2, RealId(1));
        let mut g = b.build();
        let before = expand_to_edge_list(&g);
        let stats = expand_cheap_virtuals(&mut g, 1);
        assert_eq!(stats.expanded, 0);
        assert_eq!(expand_to_edge_list(&g), before);
    }

    #[test]
    fn graph_without_virtual_nodes_is_left_alone() {
        let mut b = CondensedBuilder::new(3);
        b.direct(RealId(0), RealId(1));
        b.direct(RealId(2), RealId(0));
        let mut g = b.build();
        let before = expand_to_edge_list(&g);
        let stats = expand_cheap_virtuals(&mut g, 4);
        assert_eq!(
            stats,
            PreprocessStats {
                examined: 0,
                expanded: 0
            }
        );
        assert_eq!(expand_to_edge_list(&g), before);
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let mut b1 = CondensedBuilder::new(3000);
        for i in 0..1000u32 {
            b1.clique(&[RealId(3 * i), RealId(3 * i + 1)]);
            b1.clique(&[RealId(3 * i), RealId(3 * i + 1), RealId(3 * i + 2)]);
        }
        let mut g1 = b1.build();
        let mut g2 = g1.clone();
        let s1 = expand_cheap_virtuals(&mut g1, 1);
        let s2 = expand_cheap_virtuals(&mut g2, 4);
        assert_eq!(s1, s2);
        assert_eq!(expand_to_edge_list(&g1), expand_to_edge_list(&g2));
    }

    #[test]
    fn should_expand_thresholds() {
        let mut b = CondensedBuilder::new(3);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        let g = b.build();
        // stored = 6, expanded = 6: equal -> expand at any threshold >= 1.
        assert!(should_expand(&g, 1.0));
        let mut b2 = CondensedBuilder::new(10);
        b2.clique(&[
            RealId(0),
            RealId(1),
            RealId(2),
            RealId(3),
            RealId(4),
            RealId(5),
            RealId(6),
            RealId(7),
            RealId(8),
            RealId(9),
        ]);
        let g2 = b2.build();
        // stored = 20, expanded = 90: don't expand at +20%.
        assert!(!should_expand(&g2, 1.2));
    }
}
