//! The mutable working structure the DEDUP-1 algorithms operate on.
//!
//! A single-layer condensed graph is a tripartite structure: real sources →
//! virtual nodes → real targets, plus direct real→real edges. [`WorkGraph`]
//! stores it as sorted id vectors (`I(V)`, `O(V)` in the paper's notation)
//! with a reverse index from each real node to the virtual nodes it sources,
//! and supports the edits the algorithms perform: removing a target from a
//! virtual node, detaching a source, adding compensating direct edges.
//!
//! An `active` flag per virtual node implements the "partial graph" of the
//! virtual-nodes-first algorithms: `exists_edge` and witness counting only
//! consider active virtual nodes.
//!
//! # The target index
//!
//! Beside `O(·)` the graph keeps its transpose: for each real node `r`, the
//! sorted virtual nodes whose `O(·)` contains `r`, active or not. `O(·)` is
//! private and changes only in [`WorkGraph::remove_target_and_compensate`],
//! which updates the index in the same call, so the two never disagree.
//!
//! The index answers the algorithms' per-pair question — "which sources of
//! `X` reach `r` through nothing but `X`?" — in one pass per `(X, r)`: stamp
//! the sources of every other active node holding `r` into a reused mark
//! array, then walk `I(X)` once, checking the mark and the direct edges.
//! That is the cost of removing `r` from `X` ([`WorkGraph::removal_cost`])
//! and, once `r` is gone, the set of sources to compensate. Its price is
//! the degree of `r` (its holders' sources), not `|I(X)| × |rv[x]|` binary
//! searches. [`WorkGraph::witness_count`] and [`WorkGraph::exists_edge`]
//! stay as the per-pair definitions the tests compare against.

use graphgen_graph::{Adj, CondensedBuilder, CondensedGraph, GraphRep, RealId, VirtId};

/// Mutable single-layer condensed graph for deduplication.
#[derive(Debug, Clone)]
pub struct WorkGraph {
    n_real: usize,
    /// `I(V)`: sorted real sources of each virtual node.
    pub iv: Vec<Vec<u32>>,
    /// `O(V)`: sorted real targets of each virtual node.
    ov: Vec<Vec<u32>>,
    /// For each real node, the sorted virtual nodes it sources (u ∈ I(V)).
    pub rv: Vec<Vec<u32>>,
    /// Sorted direct out-neighbors per real node.
    pub direct: Vec<Vec<u32>>,
    /// Partial-graph flag: inactive virtual nodes are invisible to
    /// `exists_edge` / `witness_count`.
    pub active: Vec<bool>,
    /// The target index: for each real node `r`, the sorted virtual nodes
    /// whose `O(·)` contains `r` (the transpose of `ov`).
    holders: Vec<Vec<u32>>,
    /// `marks[x] == epoch` iff `x` is a source of a node stamped by the last
    /// `stamp_other_holders`.
    marks: Vec<u32>,
    epoch: u32,
}

/// Intersection of two sorted `u32` slices.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Insert into a sorted vector if absent; returns true if inserted.
pub fn sorted_insert(v: &mut Vec<u32>, x: u32) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(pos) => {
            v.insert(pos, x);
            true
        }
    }
}

/// Remove from a sorted vector if present; returns true if removed.
pub fn sorted_remove(v: &mut Vec<u32>, x: u32) -> bool {
    match v.binary_search(&x) {
        Ok(pos) => {
            v.remove(pos);
            true
        }
        Err(_) => false,
    }
}

impl WorkGraph {
    /// Build from a single-layer condensed graph (panics on multi-layer
    /// input — callers flatten first; see `flatten_to_single_layer`).
    pub fn from_condensed(g: &CondensedGraph, all_active: bool) -> Self {
        assert!(
            g.is_single_layer(),
            "WorkGraph requires a single-layer condensed graph"
        );
        let n_real = g.num_real_slots();
        let n_virt = g.num_virtual();
        let mut iv = vec![Vec::new(); n_virt];
        let mut ov = vec![Vec::new(); n_virt];
        let mut rv = vec![Vec::new(); n_real];
        let mut direct = vec![Vec::new(); n_real];
        let mut holders = vec![Vec::new(); n_real];
        for u in 0..n_real as u32 {
            for a in g.real_out(RealId(u)) {
                if let Some(v) = a.as_virtual() {
                    iv[v.0 as usize].push(u);
                    rv[u as usize].push(v.0);
                } else if let Some(r) = a.as_real() {
                    direct[u as usize].push(r.0);
                }
            }
        }
        for (v, targets) in ov.iter_mut().enumerate() {
            for a in g.virt_out(VirtId(v as u32)) {
                let r = a.as_real().expect("single-layer");
                targets.push(r.0);
                holders[r.0 as usize].push(v as u32);
            }
        }
        // real_out was sorted by Adj packing, which preserves numeric order
        // within each kind; iv/ov/holders built in ascending u / sorted / v
        // order.
        Self {
            n_real,
            iv,
            ov,
            rv,
            direct,
            active: vec![all_active; n_virt],
            holders,
            marks: vec![0; n_real],
            epoch: 0,
        }
    }

    /// Number of real nodes.
    pub fn num_real(&self) -> usize {
        self.n_real
    }

    /// Number of virtual nodes.
    pub fn num_virtual(&self) -> usize {
        self.iv.len()
    }

    /// `O(V)`: the sorted real targets of virtual node `v`.
    pub fn targets(&self, v: u32) -> &[u32] {
        &self.ov[v as usize]
    }

    /// The target index of `r`: the sorted virtual nodes, active or not,
    /// whose `O(·)` contains `r`.
    pub fn holders(&self, r: u32) -> &[u32] {
        &self.holders[r as usize]
    }

    /// Activate a virtual node (virtual-nodes-first partial graph growth).
    pub fn activate(&mut self, v: u32) {
        self.active[v as usize] = true;
    }

    /// Count the witnesses of the logical edge `u → w` in the active graph:
    /// direct edge (0/1) plus active virtual nodes with `u ∈ I(V), w ∈ O(V)`.
    pub fn witness_count(&self, u: u32, w: u32) -> usize {
        let mut count = usize::from(self.direct[u as usize].binary_search(&w).is_ok());
        for &v in &self.rv[u as usize] {
            if self.active[v as usize] && self.ov[v as usize].binary_search(&w).is_ok() {
                count += 1;
            }
        }
        count
    }

    /// Does the logical edge `u → w` exist in the active graph?
    pub fn exists_edge(&self, u: u32, w: u32) -> bool {
        if self.direct[u as usize].binary_search(&w).is_ok() {
            return true;
        }
        self.rv[u as usize]
            .iter()
            .any(|&v| self.active[v as usize] && self.ov[v as usize].binary_search(&w).is_ok())
    }

    /// Mark the sources of every active virtual node other than `v` whose
    /// `O(·)` contains `r`.
    fn stamp_other_holders(&mut self, v: u32, r: u32) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        for &h in &self.holders[r as usize] {
            if h != v && self.active[h as usize] {
                for &x in &self.iv[h as usize] {
                    self.marks[x as usize] = self.epoch;
                }
            }
        }
    }

    /// Does `x` reach `r` without the node the last `stamp_other_holders`
    /// excluded: through a stamped node or a direct edge?
    fn reaches_elsewhere(&self, x: u32, r: u32) -> bool {
        self.marks[x as usize] == self.epoch || self.direct[x as usize].binary_search(&r).is_ok()
    }

    /// Cost of removing target `r` from virtual node `v`: the sources of `v`
    /// other than `r` that reach `r` through `v` alone, so each would need a
    /// compensating direct edge. For an active `v` holding `r` this is the
    /// number of `x ∈ I(v)`, `x ≠ r`, with `witness_count(x, r) == 1`.
    pub fn removal_cost(&mut self, v: u32, r: u32) -> usize {
        self.stamp_other_holders(v, r);
        self.iv[v as usize]
            .iter()
            .filter(|&&x| x != r && !self.reaches_elsewhere(x, r))
            .count()
    }

    /// Remove target `r` from `O(V)` and compensate: every remaining source
    /// of `V` that loses its only witness to `r` gets a direct edge.
    pub fn remove_target_and_compensate(&mut self, v: u32, r: u32) {
        if !sorted_remove(&mut self.ov[v as usize], r) {
            return;
        }
        sorted_remove(&mut self.holders[r as usize], v);
        self.stamp_other_holders(v, r);
        for i in 0..self.iv[v as usize].len() {
            let u = self.iv[v as usize][i];
            if u != r && !self.reaches_elsewhere(u, r) {
                sorted_insert(&mut self.direct[u as usize], r);
            }
        }
    }

    /// Remove the direct edges virtual node `v` covers (needed when `v`
    /// joins a partial graph that compensated earlier removals with direct
    /// edges).
    pub fn absorb_direct_edges(&mut self, v: u32) {
        let targets = &self.ov[v as usize];
        for &u in &self.iv[v as usize] {
            self.direct[u as usize].retain(|&t| t == u || targets.binary_search(&t).is_err());
        }
    }

    /// Detach source `u` from `V` (removes the `u → V` edge; `V` may still
    /// target `u`). No compensation — callers decide.
    pub fn detach_source(&mut self, v: u32, u: u32) {
        sorted_remove(&mut self.iv[v as usize], u);
        sorted_remove(&mut self.rv[u as usize], v);
    }

    /// Add a direct edge if absent.
    pub fn add_direct(&mut self, u: u32, w: u32) {
        if u != w {
            sorted_insert(&mut self.direct[u as usize], w);
        }
    }

    /// Remove a direct edge if present.
    pub fn remove_direct(&mut self, u: u32, w: u32) -> bool {
        sorted_remove(&mut self.direct[u as usize], w)
    }

    /// Total stored edges (source edges + target edges + direct).
    pub fn stored_edges(&self) -> u64 {
        let iv: u64 = self.iv.iter().map(|l| l.len() as u64).sum();
        let ov: u64 = self.ov.iter().map(|l| l.len() as u64).sum();
        let d: u64 = self.direct.iter().map(|l| l.len() as u64).sum();
        iv + ov + d
    }

    /// Convert back to a condensed graph, dropping empty virtual nodes.
    pub fn into_condensed(self) -> CondensedGraph {
        let mut b = CondensedBuilder::new(self.n_real);
        for v in 0..self.iv.len() {
            if self.iv[v].is_empty() || self.ov[v].is_empty() {
                continue;
            }
            let vid = b.add_virtual();
            for &u in &self.iv[v] {
                b.real_to_virtual(RealId(u), vid);
            }
            for &w in &self.ov[v] {
                b.virtual_to_real(vid, RealId(w));
            }
        }
        for (u, list) in self.direct.iter().enumerate() {
            for &w in list {
                b.direct(RealId(u as u32), RealId(w));
            }
        }
        b.build()
    }

    /// Sanity check used by tests: every pair has at most one witness.
    pub fn is_deduplicated(&self) -> bool {
        for u in 0..self.n_real as u32 {
            let mut counts: graphgen_common::FxHashMap<u32, u32> = Default::default();
            for &w in &self.direct[u as usize] {
                *counts.entry(w).or_insert(0) += 1;
            }
            for &v in &self.rv[u as usize] {
                if !self.active[v as usize] {
                    continue;
                }
                for &w in &self.ov[v as usize] {
                    if w != u {
                        *counts.entry(w).or_insert(0) += 1;
                    }
                }
            }
            if counts.values().any(|&c| c > 1) {
                return false;
            }
        }
        true
    }
}

/// Check that a condensed graph's direct edges don't duplicate paths (helper
/// for algorithm postconditions in tests).
pub fn direct_edges_count(g: &CondensedGraph) -> u64 {
    let mut n = 0;
    for u in 0..g.num_real_slots() as u32 {
        n += g
            .real_out(RealId(u))
            .iter()
            .filter(|a: &&Adj| !a.is_virtual())
            .count() as u64;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::CondensedBuilder;

    fn two_pubs() -> CondensedGraph {
        // V0 = {0,1,3}, V1 = {0,3}: pair (0,3) duplicated.
        let mut b = CondensedBuilder::new(4);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(0), RealId(3)]);
        b.build()
    }

    #[test]
    fn from_condensed_inverts_structure() {
        let w = WorkGraph::from_condensed(&two_pubs(), true);
        assert_eq!(w.num_virtual(), 2);
        assert_eq!(w.iv[0], vec![0, 1, 3]);
        assert_eq!(w.ov[0], vec![0, 1, 3]);
        assert_eq!(w.iv[1], vec![0, 3]);
        assert_eq!(w.rv[0], vec![0, 1]);
        assert_eq!(w.rv[2], Vec::<u32>::new());
        assert_eq!(w.holders(3), &[0, 1]);
        assert_eq!(w.holders(1), &[0]);
    }

    #[test]
    fn witness_counting() {
        let w = WorkGraph::from_condensed(&two_pubs(), true);
        assert_eq!(w.witness_count(0, 3), 2);
        assert_eq!(w.witness_count(0, 1), 1);
        assert_eq!(w.witness_count(0, 2), 0);
        assert!(!w.is_deduplicated());
    }

    #[test]
    fn inactive_nodes_are_invisible() {
        let mut w = WorkGraph::from_condensed(&two_pubs(), false);
        assert_eq!(w.witness_count(0, 3), 0);
        assert!(!w.exists_edge(0, 3));
        w.activate(0);
        assert_eq!(w.witness_count(0, 3), 1);
        assert!(w.is_deduplicated());
    }

    #[test]
    fn remove_target_compensates_only_when_needed() {
        let mut w = WorkGraph::from_condensed(&two_pubs(), true);
        // Remove 3 from O(V1): pair (0,3) still covered via V0 -> no direct.
        w.remove_target_and_compensate(1, 3);
        assert_eq!(w.witness_count(0, 3), 1);
        assert!(w.direct[0].is_empty());
        assert_eq!(w.holders(3), &[0]);
        // Remove 3 from O(V0) too: now 0 and 1 need direct edges to 3.
        w.remove_target_and_compensate(0, 3);
        assert_eq!(w.witness_count(0, 3), 1);
        assert_eq!(w.direct[0], vec![3]);
        assert_eq!(w.direct[1], vec![3]);
        // Pair (3, 0) is still duplicated (covered by both V0 and V1) — the
        // reverse direction needs its own resolution.
        assert!(!w.is_deduplicated());
        assert_eq!(w.witness_count(3, 0), 2);
        w.remove_target_and_compensate(1, 0);
        assert!(w.is_deduplicated());
    }

    #[test]
    fn stale_marks_do_not_survive_the_epoch_wrapping() {
        let mut w = WorkGraph::from_condensed(&two_pubs(), true);
        // Source 1 reaches 3 through V0 alone: a mark left over from an
        // earlier cycle of epochs must not count as another witness.
        w.marks[1] = 1;
        w.epoch = u32::MAX;
        assert_eq!(w.removal_cost(0, 3), 1);
        assert_eq!(w.epoch, 1);
        assert_eq!(w.removal_cost(0, 3), 1);
    }

    #[test]
    fn roundtrip_to_condensed_preserves_semantics() {
        use graphgen_graph::{expand_to_edge_list, GraphRep};
        let g = two_pubs();
        let edges_before = expand_to_edge_list(&g);
        let w = WorkGraph::from_condensed(&g, true);
        let g2 = w.into_condensed();
        assert_eq!(expand_to_edge_list(&g2), edges_before);
        assert_eq!(g2.num_virtual(), 2);
        let _ = g2.expanded_edge_count();
    }

    #[test]
    fn sorted_helpers() {
        let mut v = vec![1, 3, 5];
        assert!(sorted_insert(&mut v, 4));
        assert!(!sorted_insert(&mut v, 4));
        assert_eq!(v, vec![1, 3, 4, 5]);
        assert!(sorted_remove(&mut v, 3));
        assert!(!sorted_remove(&mut v, 3));
        assert_eq!(intersect_sorted(&[1, 2, 3], &[2, 3, 4]), vec![2, 3]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
    }

    #[test]
    fn empty_virtual_nodes_dropped_on_conversion() {
        let mut w = WorkGraph::from_condensed(&two_pubs(), true);
        w.ov[1].clear();
        let g = w.into_condensed();
        assert_eq!(g.num_virtual(), 1);
    }
}
