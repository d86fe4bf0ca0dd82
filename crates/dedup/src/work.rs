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
//!
//! # The direct-edge index
//!
//! Direct edges are kept twice. Per source `u`, the targets of its direct
//! edges form an unordered set that only grows at the end and loses entries
//! by `swap_remove`; Greedy-RNF, [`WorkGraph::absorb_direct_edges`] and
//! `is_deduplicated` walk it. Per target `r`, the sorted sources with a
//! direct edge to `r` ([`WorkGraph::direct_sources`]) feed the removal
//! costs, the compensations and the emit. The two change together, and only
//! in `remove_target_and_compensate`, `absorb_direct_edges`, `add_direct`
//! and `remove_direct`.
//!
//! "Does `u` have a direct edge to `w`?" is answered from the cheaper
//! side: a per-source set of up to 16 targets is scanned, a longer one
//! gives way to a binary search of `w`'s sources. So a hub target
//! (thousands of direct sources on Fig. 12's IMDB) is searched only for the
//! rare source that has many direct edges.
//!
//! A cost or a compensation for `(X, r)` asks that question of every
//! source of `X`. When `r`'s direct sources are no more than `|I(X)|`, they
//! are stamped into the mark array beside the holders' sources, and the
//! walk over `I(X)` is one mark test per source; when they are more, the
//! walk asks per source instead, so the stamp never costs more than the
//! walk. A compensation's new sources come out of the walk ascending and
//! are merged into `r`'s sorted list in place, from the back.
//!
//! [`WorkGraph::into_condensed`] consumes the index in target order, so
//! every real list comes out strictly sorted — direct targets, then the
//! renumbered virtual nodes — and goes to
//! [`CondensedGraph::from_sorted_lists`] without another sort.

use graphgen_graph::{Adj, CondensedGraph, GraphRep, RealId, VirtId};

/// The longest per-source direct-edge set `has_direct` scans rather than
/// searching the target's sources: a hub target has thousands of them, and
/// a scan this short costs no more than the search.
const SCAN_MAX: usize = 16;

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
    /// Direct out-neighbors per real node, unordered.
    direct: Vec<Vec<u32>>,
    /// Partial-graph flag: inactive virtual nodes are invisible to
    /// `exists_edge` / `witness_count`.
    pub active: Vec<bool>,
    /// The target index: for each real node `r`, the sorted virtual nodes
    /// whose `O(·)` contains `r` (the transpose of `ov`).
    holders: Vec<Vec<u32>>,
    /// The direct-edge index: for each real node `r`, the sorted real nodes
    /// with a direct edge to `r` (the transpose of `direct`).
    direct_in: Vec<Vec<u32>>,
    /// `marks[x] == epoch` iff `x` was stamped by the last
    /// `stamp_other_witnesses`.
    marks: Vec<u32>,
    epoch: u32,
    /// The sources the current compensation adds direct edges from, kept
    /// to reuse its allocation.
    fresh: Vec<u32>,
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

/// Merge the sorted `src`, disjoint from the sorted `dst`, into `dst` in
/// place: grow it once, then fill it from the back. A few sources merged
/// into a hub target's long list are placed by binary search, each moving
/// the run of `dst` behind it as one block; lists of comparable length
/// merge one element at a time.
fn merge_disjoint(dst: &mut Vec<u32>, src: &[u32]) {
    let mut end = dst.len();
    dst.resize(end + src.len(), 0);
    if src.len() * 8 < end {
        for (j, &x) in src.iter().enumerate().rev() {
            let at = dst[..end].partition_point(|&y| y < x);
            dst.copy_within(at..end, at + j + 1);
            dst[at + j] = x;
            end = at;
        }
        return;
    }
    let mut j = src.len();
    for k in (0..dst.len()).rev() {
        if j == 0 {
            break;
        }
        if end > 0 && dst[end - 1] > src[j - 1] {
            dst[k] = dst[end - 1];
            end -= 1;
        } else {
            dst[k] = src[j - 1];
            j -= 1;
        }
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
        let mut direct_in = vec![Vec::new(); n_real];
        for u in 0..n_real as u32 {
            for a in g.real_out(RealId(u)) {
                if let Some(v) = a.as_virtual() {
                    iv[v.0 as usize].push(u);
                    rv[u as usize].push(v.0);
                } else if let Some(r) = a.as_real() {
                    direct[u as usize].push(r.0);
                    direct_in[r.0 as usize].push(u);
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
        // within each kind; iv/ov/holders/direct_in built in ascending u /
        // sorted / v order.
        Self {
            n_real,
            iv,
            ov,
            rv,
            direct,
            active: vec![all_active; n_virt],
            holders,
            direct_in,
            marks: vec![0; n_real],
            epoch: 0,
            fresh: Vec::new(),
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

    /// The targets of `u`'s direct edges, in no particular order.
    pub fn direct_targets(&self, u: u32) -> &[u32] {
        &self.direct[u as usize]
    }

    /// The direct-edge index of `r`: the sorted real nodes with a direct
    /// edge to `r`.
    pub fn direct_sources(&self, r: u32) -> &[u32] {
        &self.direct_in[r as usize]
    }

    /// Does `u` have a direct edge to `w`? A short per-source set is
    /// scanned; otherwise `w`'s sorted sources are searched.
    fn has_direct(&self, u: u32, w: u32) -> bool {
        let targets = &self.direct[u as usize];
        if targets.len() <= SCAN_MAX {
            return targets.contains(&w);
        }
        self.direct_in[w as usize].binary_search(&u).is_ok()
    }

    /// Activate a virtual node (virtual-nodes-first partial graph growth).
    pub fn activate(&mut self, v: u32) {
        self.active[v as usize] = true;
    }

    /// Count the witnesses of the logical edge `u → w` in the active graph:
    /// direct edge (0/1) plus active virtual nodes with `u ∈ I(V), w ∈ O(V)`.
    pub fn witness_count(&self, u: u32, w: u32) -> usize {
        let mut count = usize::from(self.has_direct(u, w));
        for &v in &self.rv[u as usize] {
            if self.active[v as usize] && self.ov[v as usize].binary_search(&w).is_ok() {
                count += 1;
            }
        }
        count
    }

    /// Does the logical edge `u → w` exist in the active graph?
    pub fn exists_edge(&self, u: u32, w: u32) -> bool {
        if self.has_direct(u, w) {
            return true;
        }
        self.rv[u as usize]
            .iter()
            .any(|&v| self.active[v as usize] && self.ov[v as usize].binary_search(&w).is_ok())
    }

    /// Mark the sources that reach `r` other than through `v`: those of
    /// every other active virtual node holding `r` and, unless they outnumber
    /// `I(v)`, those of `r`'s direct edges. Returns whether the direct
    /// sources were left unmarked, so that `reaches_elsewhere` must search
    /// them.
    fn stamp_other_witnesses(&mut self, v: u32, r: u32) -> bool {
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
        let direct_sources = &self.direct_in[r as usize];
        if direct_sources.len() > self.iv[v as usize].len() {
            return true;
        }
        for &x in direct_sources {
            self.marks[x as usize] = self.epoch;
        }
        false
    }

    /// Does `x` reach `r` without the node the last `stamp_other_witnesses`
    /// excluded: through a stamped node or a direct edge? `search` is what
    /// that stamp returned.
    fn reaches_elsewhere(&self, x: u32, r: u32, search: bool) -> bool {
        self.marks[x as usize] == self.epoch || (search && self.has_direct(x, r))
    }

    /// Cost of removing target `r` from virtual node `v`: the sources of `v`
    /// other than `r` that reach `r` through `v` alone, so each would need a
    /// compensating direct edge. For an active `v` holding `r` this is the
    /// number of `x ∈ I(v)`, `x ≠ r`, with `witness_count(x, r) == 1`.
    pub fn removal_cost(&mut self, v: u32, r: u32) -> usize {
        let search = self.stamp_other_witnesses(v, r);
        self.iv[v as usize]
            .iter()
            .filter(|&&x| x != r && !self.reaches_elsewhere(x, r, search))
            .count()
    }

    /// Remove target `r` from `O(V)` and compensate: every remaining source
    /// of `V` that loses its only witness to `r` gets a direct edge.
    pub fn remove_target_and_compensate(&mut self, v: u32, r: u32) {
        if !sorted_remove(&mut self.ov[v as usize], r) {
            return;
        }
        sorted_remove(&mut self.holders[r as usize], v);
        let search = self.stamp_other_witnesses(v, r);
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        fresh.extend(
            self.iv[v as usize]
                .iter()
                .filter(|&&u| u != r && !self.reaches_elsewhere(u, r, search)),
        );
        for &u in &fresh {
            self.direct[u as usize].push(r);
        }
        // `I(V)` is sorted, so `fresh` is, and none of it reached `r`
        // directly.
        merge_disjoint(&mut self.direct_in[r as usize], &fresh);
        self.fresh = fresh;
    }

    /// Remove the direct edges virtual node `v` covers (needed when `v`
    /// joins a partial graph that compensated earlier removals with direct
    /// edges).
    pub fn absorb_direct_edges(&mut self, v: u32) {
        let targets = &self.ov[v as usize];
        let mut dropped: Vec<(u32, u32)> = Vec::new(); // (target, source)
        for &u in &self.iv[v as usize] {
            self.direct[u as usize].retain(|&t| {
                let keep = t == u || targets.binary_search(&t).is_err();
                if !keep {
                    dropped.push((t, u));
                }
                keep
            });
        }
        dropped.sort_unstable();
        for run in dropped.chunk_by(|a, b| a.0 == b.0) {
            // Both ascending, and every dropped source is in the list.
            let mut gone = run.iter().map(|&(_, u)| u).peekable();
            self.direct_in[run[0].0 as usize].retain(|&x| gone.next_if_eq(&x).is_none());
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
        if u != w && sorted_insert(&mut self.direct_in[w as usize], u) {
            self.direct[u as usize].push(w);
        }
    }

    /// Remove a direct edge if present.
    pub fn remove_direct(&mut self, u: u32, w: u32) -> bool {
        if !sorted_remove(&mut self.direct_in[w as usize], u) {
            return false;
        }
        let targets = &mut self.direct[u as usize];
        let at = targets
            .iter()
            .position(|&t| t == w)
            .expect("the direct-edge index mirrors the per-source sets");
        targets.swap_remove(at);
        true
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
        let Self {
            n_real,
            iv,
            ov,
            rv,
            direct,
            active,
            holders,
            direct_in,
            marks,
            fresh,
            ..
        } = self;
        // Only `I(·)`, `O(·)` and the direct-edge index feed the output:
        // free the rest before allocating it.
        drop((rv, direct, active, holders, marks, fresh));
        let kept: Vec<usize> = (0..iv.len())
            .filter(|&v| !iv[v].is_empty() && !ov[v].is_empty())
            .collect();
        let mut len = vec![0usize; n_real];
        for &u in direct_in.iter().flatten() {
            len[u as usize] += 1;
        }
        for &v in &kept {
            for &u in &iv[v] {
                len[u as usize] += 1;
            }
        }
        let mut real_out: Vec<Vec<Adj>> = len.into_iter().map(Vec::with_capacity).collect();
        // Targets ascending, then virtual nodes ascending: every list comes
        // out strictly sorted.
        for (r, sources) in direct_in.into_iter().enumerate() {
            for u in sources {
                real_out[u as usize].push(Adj::real(RealId(r as u32)));
            }
        }
        for (id, &v) in kept.iter().enumerate() {
            for &u in &iv[v] {
                real_out[u as usize].push(Adj::virt(VirtId(id as u32)));
            }
        }
        let virt_out: Vec<Vec<Adj>> = kept
            .iter()
            .map(|&v| ov[v].iter().map(|&w| Adj::real(RealId(w))).collect())
            .collect();
        drop((iv, ov));
        CondensedGraph::from_sorted_lists(real_out, virt_out)
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

    #[test]
    fn merge_disjoint_matches_a_sorted_rebuild() {
        let mut rng = graphgen_common::SplitMix64::new(0x3e7);
        for _ in 0..500 {
            let all: Vec<u32> = (0..rng.next_below(200) as u32)
                .filter(|_| rng.next_below(2) == 0)
                .collect();
            // From half of the elements merged in to one in forty, so that
            // both ways of merging run.
            let one_in = 2 + rng.next_below(39);
            let (mut kept, mut other) = (Vec::new(), Vec::new());
            for &x in &all {
                if rng.next_below(one_in) == 0 {
                    other.push(x);
                } else {
                    kept.push(x);
                }
            }
            merge_disjoint(&mut kept, &other);
            assert_eq!(kept, all);
        }
    }

    /// The output assembled edge by edge through `CondensedBuilder`, which
    /// sorts and dedups every list: the oracle for `into_condensed`.
    fn builder_assembly(w: &WorkGraph) -> CondensedGraph {
        let mut b = CondensedBuilder::new(w.n_real);
        for v in 0..w.iv.len() {
            if w.iv[v].is_empty() || w.ov[v].is_empty() {
                continue;
            }
            let vid = b.add_virtual();
            for &u in &w.iv[v] {
                b.real_to_virtual(RealId(u), vid);
            }
            for &t in &w.ov[v] {
                b.virtual_to_real(vid, RealId(t));
            }
        }
        for (u, targets) in w.direct.iter().enumerate() {
            for &t in targets {
                b.direct(RealId(u as u32), RealId(t));
            }
        }
        b.build()
    }

    /// Random cliques and asymmetric nodes, some empty or of one member,
    /// with direct edges (self-loops included).
    fn random_graph(rng: &mut graphgen_common::SplitMix64) -> CondensedGraph {
        let n_real = 1 + rng.next_below(30) as u32;
        let draw = |rng: &mut graphgen_common::SplitMix64, max: u64| -> Vec<RealId> {
            (0..rng.next_below(max + 1))
                .map(|_| RealId(rng.next_below(u64::from(n_real)) as u32))
                .collect()
        };
        let mut b = CondensedBuilder::new(n_real as usize);
        for _ in 0..rng.next_below(8) {
            b.clique(&draw(rng, 8));
        }
        for _ in 0..rng.next_below(6) {
            let v = b.add_virtual();
            for u in draw(rng, 6) {
                b.real_to_virtual(u, v);
            }
            for u in draw(rng, 6) {
                b.virtual_to_real(v, u);
            }
        }
        let ends = draw(rng, 40);
        for pair in ends.chunks_exact(2) {
            b.direct(pair[0], pair[1]);
        }
        b.build()
    }

    #[test]
    fn into_condensed_equals_the_builder_assembly() {
        let mut rng = graphgen_common::SplitMix64::new(0xe117);
        for case in 0..300 {
            let g = random_graph(&mut rng);
            let mut w = WorkGraph::from_condensed(&g, rng.next_below(2) == 0);
            let (n_real, n_virt) = (w.num_real() as u64, w.num_virtual() as u64);
            for _ in 0..rng.next_below(40) {
                let u = rng.next_below(n_real) as u32;
                let t = rng.next_below(n_real) as u32;
                if n_virt == 0 {
                    w.add_direct(u, t);
                    continue;
                }
                let v = rng.next_below(n_virt) as u32;
                match rng.next_below(8) {
                    0 => w.activate(v),
                    1 => w.absorb_direct_edges(v),
                    2 => w.detach_source(v, u),
                    3 => w.add_direct(u, t),
                    4 => {
                        w.remove_direct(u, t);
                    }
                    5 => {
                        // Greedy-RNF re-attaches a source in place.
                        sorted_insert(&mut w.iv[v as usize], u);
                        sorted_insert(&mut w.rv[u as usize], v);
                    }
                    6 => {
                        // Empty the node's targets.
                        for r in w.targets(v).to_vec() {
                            w.remove_target_and_compensate(v, r);
                        }
                    }
                    _ => w.remove_target_and_compensate(v, t),
                }
            }
            let want = builder_assembly(&w);
            let got = w.into_condensed();
            assert!(
                got.real_out_chunks() == want.real_out_chunks(),
                "case {case}: real adjacency"
            );
            assert!(
                got.virt_out_chunks() == want.virt_out_chunks(),
                "case {case}: virtual adjacency"
            );
            assert_eq!(got.heap_bytes(), want.heap_bytes(), "case {case}");
        }
    }
}
