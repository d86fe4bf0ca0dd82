//! BITMAP-2 preprocessing (§5.1.3): greedy set cover.
//!
//! BITMAP-1 happily installs a bitmap on every virtual node a source can
//! reach. Minimizing the number of bitmaps is NP-hard (set cover, §5.1.2),
//! so BITMAP-2 runs the classic greedy approximation per real node `u`:
//! repeatedly pick the virtual child covering the most still-uncovered
//! targets, install a bitmap there for the newly covered ones, and finally
//! **delete** `u`'s edges to virtual children that cover nothing new
//! (virtual→virtual edges are never deleted — they may serve other sources —
//! only masked).
//!
//! The multi-layer generalization explores, at each virtual node, the child
//! with the largest uncovered reach first, masking dead branches to 0.

use graphgen_common::{Bitmap, FxHashSet};
use graphgen_graph::{BitmapGraph, CondensedGraph, GraphRep, RealId, VirtId};

/// Statistics for a BITMAP-2 run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bitmap2Stats {
    /// Bitmaps installed.
    pub bitmaps: usize,
    /// real→virtual edges deleted because they covered nothing new.
    pub pruned_edges: usize,
}

/// Run BITMAP-2 on a condensed graph (any number of layers). The pass is
/// serial: real nodes are covered one after another in id order, because
/// installing a bitmap mutates shared per-virtual-node maps.
pub fn bitmap2(g: CondensedGraph) -> (BitmapGraph, Bitmap2Stats) {
    let n_real = g.num_real_slots();
    let mut out = BitmapGraph::new_unmasked(g);
    let mut stats = Bitmap2Stats::default();
    for u in 0..n_real as u32 {
        let u = RealId(u);
        if !out.core().is_alive(u) {
            continue;
        }
        process_source(&mut out, u, &mut stats);
    }
    (out, stats)
}

/// Number of still-uncovered real targets reachable from virtual node `v`.
fn uncovered_reach(
    g: &BitmapGraph,
    v: VirtId,
    covered: &FxHashSet<u32>,
    visited: &FxHashSet<u32>,
) -> usize {
    let mut local_visited: FxHashSet<u32> = FxHashSet::default();
    let mut stack = vec![v.0];
    local_visited.insert(v.0);
    let mut count = 0;
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    while let Some(x) = stack.pop() {
        for a in g.core().virt_out(VirtId(x)) {
            if let Some(r) = a.as_real() {
                if !covered.contains(&r.0) && seen.insert(r.0) {
                    count += 1;
                }
            } else if let Some(w) = a.as_virtual() {
                if !visited.contains(&w.0) && local_visited.insert(w.0) {
                    stack.push(w.0);
                }
            }
        }
    }
    count
}

/// Recursively install bitmaps below `v` for source `u`, covering targets
/// greedily. Returns true if anything new was covered.
fn explore(
    g: &mut BitmapGraph,
    u: RealId,
    v: VirtId,
    covered: &mut FxHashSet<u32>,
    visited: &mut FxHashSet<u32>,
    stats: &mut Bitmap2Stats,
) -> bool {
    visited.insert(v.0);
    let out_list: Vec<_> = g.core().virt_out(v).to_vec();
    let mut bitmap = Bitmap::zeros(out_list.len());
    let mut any = false;
    // Real targets at this node first.
    for (i, a) in out_list.iter().enumerate() {
        if let Some(r) = a.as_real() {
            if covered.insert(r.0) {
                bitmap.set(i);
                any = true;
            }
        }
    }
    // Then virtual children, largest uncovered reach first.
    let mut children: Vec<(usize, VirtId)> = out_list
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.as_virtual().map(|w| (i, w)))
        .collect();
    loop {
        let mut best: Option<(usize, usize, VirtId)> = None; // (reach, pos, id)
        for &(i, w) in &children {
            if visited.contains(&w.0) {
                continue;
            }
            let reach = uncovered_reach(g, w, covered, visited);
            if reach > 0 && best.is_none_or(|(r, _, _)| reach > r) {
                best = Some((reach, i, w));
            }
        }
        let Some((_, i, w)) = best else { break };
        if explore(g, u, w, covered, visited, stats) {
            bitmap.set(i);
            any = true;
        }
        children.retain(|&(_, c)| c != w);
    }
    // Bits for already-visited children stay 0 (masked dead branch, e.g.
    // the x2 → y2 edge of Fig. 7) — the edge itself is never deleted.
    if !bitmap.all_zero() || !out_list.is_empty() {
        stats.bitmaps += 1;
        g.set_bitmap(v, u, bitmap);
    }
    any
}

fn process_source(g: &mut BitmapGraph, u: RealId, stats: &mut Bitmap2Stats) {
    let mut covered: FxHashSet<u32> = FxHashSet::default();
    covered.insert(u.0);
    // Direct edges are immovable coverage.
    let children: Vec<VirtId> = {
        let mut cs = Vec::new();
        for a in g.core().real_out(u) {
            if let Some(r) = a.as_real() {
                covered.insert(r.0);
            } else if let Some(v) = a.as_virtual() {
                cs.push(v);
            }
        }
        cs
    };
    let mut visited: FxHashSet<u32> = FxHashSet::default();
    let mut remaining = children;
    let mut prune: Vec<VirtId> = Vec::new();
    loop {
        let mut best: Option<(usize, VirtId)> = None;
        for &v in &remaining {
            if visited.contains(&v.0) {
                continue;
            }
            let reach = uncovered_reach(g, v, &covered, &visited);
            if reach > 0 && best.is_none_or(|(r, _)| reach > r) {
                best = Some((reach, v));
            }
        }
        let Some((_, v)) = best else { break };
        explore(g, u, v, &mut covered, &mut visited, stats);
        remaining.retain(|&c| c != v);
    }
    // Whatever remains covers nothing new: delete the u → V edges.
    for v in remaining {
        if !visited.contains(&v.0) {
            prune.push(v);
        }
    }
    for v in prune {
        g.core_mut().detach_real_from_virtual(u, v);
        g.remove_bitmap(v, u);
        stats.pruned_edges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{
        expand_to_edge_list, validate::validate_no_duplicate_emission, CondensedBuilder,
    };

    fn fig1() -> CondensedGraph {
        let mut b = CondensedBuilder::new(5);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(0), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        b.build()
    }

    #[test]
    fn single_layer_dedup_and_pruning() {
        let g = fig1();
        let before = expand_to_edge_list(&g);
        let stored_before = g.stored_edge_count();
        let (bg, stats) = bitmap2(g);
        assert_eq!(expand_to_edge_list(&bg), before);
        assert!(validate_no_duplicate_emission(&bg).is_ok());
        // p2 ⊂ p1, so both a1 and a4 should prune their edge to p2.
        assert_eq!(stats.pruned_edges, 2);
        assert!(bg.stored_edge_count() < stored_before);
    }

    #[test]
    fn fewer_bitmaps_than_bitmap1() {
        let g = fig1();
        let b1 = crate::bitmap1(g.clone());
        let (b2, _) = bitmap2(g);
        assert!(b2.bitmap_count() <= b1.bitmap_count());
    }

    #[test]
    fn multilayer_dedup() {
        // u -> {V1, V2} -> V3 -> {w1, w2, w3}; V1 also -> w1 directly.
        let mut b = CondensedBuilder::new(4);
        let v1 = b.add_virtual();
        let v2 = b.add_virtual();
        let v3 = b.add_virtual();
        b.real_to_virtual(RealId(0), v1);
        b.real_to_virtual(RealId(0), v2);
        b.virtual_to_virtual(v1, v3);
        b.virtual_to_virtual(v2, v3);
        b.virtual_to_real(v1, RealId(1));
        b.virtual_to_real(v3, RealId(1));
        b.virtual_to_real(v3, RealId(2));
        b.virtual_to_real(v3, RealId(3));
        let g = b.build();
        let before = expand_to_edge_list(&g);
        let (bg, _) = bitmap2(g);
        assert_eq!(expand_to_edge_list(&bg), before);
        assert!(validate_no_duplicate_emission(&bg).is_ok());
    }

    #[test]
    fn virtual_edges_never_deleted() {
        // Even when a branch is fully masked for one source, the
        // virtual→virtual edge must survive for other sources.
        let mut b = CondensedBuilder::new(3);
        let v1 = b.add_virtual();
        let v2 = b.add_virtual();
        b.real_to_virtual(RealId(0), v1);
        b.real_to_virtual(RealId(2), v2);
        b.virtual_to_real(v1, RealId(1));
        b.virtual_to_virtual(v2, v1);
        let g = b.build();
        let (bg, _) = bitmap2(g);
        // source 2 reaches 1 through v2 -> v1
        assert_eq!(bg.neighbors(RealId(2)), vec![RealId(1)]);
        assert_eq!(bg.neighbors(RealId(0)), vec![RealId(1)]);
    }
}
