//! C-DUP: the condensed representation with duplicates (§4.1, §4.3).
//!
//! This is the structure extraction produces "essentially for free": real
//! nodes, virtual nodes (one per join-attribute value of a large-output
//! join), and directed edges real→virtual, virtual→virtual (multi-layer),
//! virtual→real, plus optional direct real→real edges. A logical edge
//! `u → v` exists iff a directed path leads from `u` to `v`.
//!
//! Because several paths may connect the same pair (two authors sharing two
//! papers), `getNeighbors` must deduplicate **on the fly**: it runs a
//! depth-first traversal keeping a hashset of already-emitted neighbors —
//! exactly the execution penalty the paper attributes to C-DUP.
//!
//! Every adjacency list is **strictly sorted**, and [`Adj`]'s order puts
//! real targets before virtual ones: the builder sorts and dedups, the
//! patch surface inserts in place (`insert_sorted`). So the real
//! prefix of a list is duplicate-free, and two paths can meet only behind
//! a virtual entry. The iterator therefore emits the prefix directly and
//! hashes only when the list holds a virtual target; a graph with no
//! virtual nodes (or a vertex with only direct edges) pays no
//! deduplication at all.

use crate::api::{GraphRep, RepKind};
use crate::chunk::ChunkedAdj;
use crate::ids::{Adj, RealId, VirtId};
use graphgen_common::FxHashSet;

/// The condensed duplicated graph.
///
/// Adjacency is held in [`ChunkedAdj`] stores: cloning a condensed graph is
/// `O(#chunks)` pointer bumps, and the patch surface below copies only the
/// chunks a mutation lands in (see `crate::chunk` for the structural
/// sharing contract the serving layer builds on).
#[derive(Debug, Clone)]
pub struct CondensedGraph {
    /// Out-edges of each real node (strictly sorted: real targets first;
    /// `for_each_neighbor` relies on it).
    pub(crate) real_out: ChunkedAdj,
    /// Out-edges of each virtual node (sorted: real targets first).
    pub(crate) virt_out: ChunkedAdj,
    /// Liveness of real nodes (lazy deletion).
    pub(crate) alive: Vec<bool>,
    pub(crate) n_alive: usize,
}

impl CondensedGraph {
    /// Wrap pre-built adjacency (lists must be sorted and deduplicated —
    /// [`crate::builder::CondensedBuilder`] guarantees this).
    pub(crate) fn from_parts(real_out: Vec<Vec<Adj>>, virt_out: Vec<Vec<Adj>>) -> Self {
        let n = real_out.len();
        Self {
            real_out: ChunkedAdj::from_lists(real_out),
            virt_out: ChunkedAdj::from_lists(virt_out),
            alive: vec![true; n],
            n_alive: n,
        }
    }

    /// Wrap adjacency lists that are already in the order
    /// [`crate::builder::CondensedBuilder::build`] produces — strictly
    /// ascending, so real targets come before virtual ones — without
    /// sorting them again. Every list is checked, in O(stored edges): a
    /// list out of order, a repeated entry or an id outside `real_out` /
    /// `virt_out` panics. The virtual graph is checked for cycles in debug
    /// builds, as `build` does.
    pub fn from_sorted_lists(real_out: Vec<Vec<Adj>>, virt_out: Vec<Vec<Adj>>) -> Self {
        let (n_real, n_virt) = (real_out.len(), virt_out.len());
        for list in real_out.iter().chain(&virt_out) {
            assert!(
                list.windows(2).all(|p| p[0] < p[1]),
                "adjacency list is not strictly sorted"
            );
            // Sorted, so the largest real id ends the real prefix and the
            // largest virtual id ends the list.
            let reals = list.partition_point(|a| !a.is_virtual());
            let real_ok = list[..reals]
                .last()
                .is_none_or(|a| (a.raw() as usize) < n_real);
            let virt_ok = list[reals..]
                .last()
                .and_then(|a| a.as_virtual())
                .is_none_or(|v| (v.0 as usize) < n_virt);
            assert!(
                real_ok && virt_ok,
                "adjacency list names a node out of range"
            );
        }
        let g = Self::from_parts(real_out, virt_out);
        debug_assert!(
            crate::validate::validate_virtual_dag(&g).is_ok(),
            "condensed graph has a virtual-node cycle"
        );
        g
    }

    /// Number of virtual nodes.
    pub fn num_virtual(&self) -> usize {
        self.virt_out.len()
    }

    /// The chunked real-node adjacency store (structural-sharing
    /// diagnostics).
    pub fn real_out_chunks(&self) -> &ChunkedAdj {
        &self.real_out
    }

    /// The chunked virtual-node adjacency store.
    pub fn virt_out_chunks(&self) -> &ChunkedAdj {
        &self.virt_out
    }

    /// Out-adjacency of a virtual node.
    pub fn virt_out(&self, v: VirtId) -> &[Adj] {
        self.virt_out.list(v.0 as usize)
    }

    /// Out-adjacency of a real node (virtual targets and direct edges).
    pub fn real_out(&self, u: RealId) -> &[Adj] {
        self.real_out.list(u.0 as usize)
    }

    /// True if there are no virtual→virtual edges (single-layer graph).
    pub fn is_single_layer(&self) -> bool {
        self.virt_out
            .iter()
            .all(|list| list.iter().all(|a| !a.is_virtual()))
    }

    /// Number of virtual layers: the length of the longest virtual chain
    /// (0 if there are no virtual nodes).
    pub fn layer_count(&self) -> usize {
        // Longest path in the virtual DAG, by memoized DFS.
        let n = self.virt_out.len();
        if n == 0 {
            return 0;
        }
        let mut depth = vec![0u32; n]; // 0 = unvisited; depth >= 1 once computed
        fn dfs(g: &CondensedGraph, v: usize, depth: &mut Vec<u32>) -> u32 {
            if depth[v] != 0 {
                return depth[v];
            }
            let mut best = 1;
            for a in g.virt_out.list(v) {
                if let Some(w) = a.as_virtual() {
                    best = best.max(1 + dfs(g, w.0 as usize, depth));
                }
            }
            depth[v] = best;
            best
        }
        (0..n).map(|v| dfs(self, v, &mut depth)).max().unwrap_or(0) as usize
    }

    /// Reverse index: for each virtual node, the real nodes with an edge to
    /// it (`I(V)` in the paper's notation). Only meaningful for single-layer
    /// graphs, where all in-edges of virtual nodes come from reals.
    pub fn real_in_index(&self) -> Vec<Vec<u32>> {
        let mut index = vec![Vec::new(); self.virt_out.len()];
        for (u, list) in self.real_out.iter().enumerate() {
            for a in list {
                if let Some(v) = a.as_virtual() {
                    index[v.0 as usize].push(u as u32);
                }
            }
        }
        index
    }

    /// DFS from a virtual node collecting all reachable real targets
    /// (alive only).
    pub fn virtual_reach(&self, v: VirtId, out: &mut FxHashSet<u32>) {
        let mut visited: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![v.0];
        visited.insert(v.0);
        while let Some(x) = stack.pop() {
            for a in self.virt_out.list(x as usize) {
                if let Some(r) = a.as_real() {
                    if self.alive[r.0 as usize] {
                        out.insert(r.0);
                    }
                } else if let Some(w) = a.as_virtual() {
                    if visited.insert(w.0) {
                        stack.push(w.0);
                    }
                }
            }
        }
    }

    /// Does a path from virtual node `v` reach real node `target`?
    fn virtual_reaches(&self, v: VirtId, target: RealId) -> bool {
        let mut visited: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![v.0];
        visited.insert(v.0);
        while let Some(x) = stack.pop() {
            let list = self.virt_out.list(x as usize);
            if contains_real(list, target) {
                return true;
            }
            for a in list {
                if let Some(w) = a.as_virtual() {
                    if visited.insert(w.0) {
                        stack.push(w.0);
                    }
                }
            }
        }
        false
    }

    /// Detach `u` from virtual node `v` (removes the `u → v` edge only).
    pub fn detach_real_from_virtual(&mut self, u: RealId, v: VirtId) {
        self.real_out.remove_sorted(u.0 as usize, Adj::virt(v));
    }

    /// Remove the `v → u` edge from a virtual node to a real target.
    pub fn remove_virtual_to_real(&mut self, v: VirtId, u: RealId) {
        self.virt_out.remove_sorted(v.0 as usize, Adj::real(u));
    }

    /// Insert a direct `u → v` edge, keeping the list sorted. No-op if the
    /// direct edge is already present.
    pub fn insert_direct(&mut self, u: RealId, v: RealId) {
        self.real_out.insert_sorted(u.0 as usize, Adj::real(v));
    }

    // ---- incremental patch surface --------------------------------------
    //
    // The in-place counterparts of the `CondensedBuilder` edge methods.
    // Unlike the 7-operation logical API above, these mutate the *stored*
    // structure directly (no path-existence checks, no compensation), which
    // is what delta maintenance needs: it mirrors the structure a fresh
    // extraction would have built.

    /// Append a fresh, unconnected virtual node (the patch-time counterpart
    /// of `CondensedBuilder::add_virtual`).
    pub fn add_virtual_node(&mut self) -> VirtId {
        self.virt_out.push(&[]);
        VirtId(self.virt_out.len() as u32 - 1)
    }

    /// Insert the membership edge `u → v`, keeping the list sorted. No-op
    /// if present.
    pub fn insert_real_to_virtual(&mut self, u: RealId, v: VirtId) {
        self.real_out.insert_sorted(u.0 as usize, Adj::virt(v));
    }

    /// Insert the edge `v → u` from a virtual node to a real target, keeping
    /// the list sorted. No-op if present.
    pub fn insert_virtual_to_real(&mut self, v: VirtId, u: RealId) {
        self.virt_out.insert_sorted(v.0 as usize, Adj::real(u));
    }

    /// Insert the virtual–virtual edge `v → w` (multi-layer chains), keeping
    /// the list sorted. No-op if present.
    pub fn insert_virtual_to_virtual(&mut self, v: VirtId, w: VirtId) {
        self.virt_out.insert_sorted(v.0 as usize, Adj::virt(w));
    }

    /// Remove the virtual–virtual edge `v → w`. No-op if absent.
    pub fn remove_virtual_to_virtual(&mut self, v: VirtId, w: VirtId) {
        self.virt_out.remove_sorted(v.0 as usize, Adj::virt(w));
    }

    /// Remove a direct `u → v` edge **only** (no path compensation — the
    /// raw counterpart of [`CondensedGraph::insert_direct`], as opposed to
    /// the logical `delete_edge`). No-op if absent.
    pub fn remove_direct(&mut self, u: RealId, v: RealId) {
        self.real_out.remove_sorted(u.0 as usize, Adj::real(v));
    }

    /// Expand virtual node `v` in place: connect every in-neighbor to every
    /// out-target directly and empty the virtual node (§4.2 Step 6). Only
    /// valid when all of `v`'s in-edges come from real nodes and all
    /// out-edges go to real nodes; `in_reals` is the list of real sources
    /// (callers keep a reverse index).
    pub fn expand_virtual(&mut self, v: VirtId, in_reals: &[u32]) {
        let targets: Vec<RealId> = self
            .virt_out
            .list(v.0 as usize)
            .iter()
            .filter_map(|a| a.as_real())
            .collect();
        debug_assert_eq!(
            targets.len(),
            self.virt_out.list(v.0 as usize).len(),
            "expand_virtual on a node with virtual out-edges"
        );
        for &u in in_reals {
            self.detach_real_from_virtual(RealId(u), v);
            for &t in &targets {
                if t.0 != u {
                    self.insert_direct(RealId(u), t);
                }
            }
        }
        self.virt_out.clear(v.0 as usize);
    }

    /// Remove virtual nodes with no out-edges or no in-edges (cleanup after
    /// expansion or deduplication). Virtual ids are *not* reindexed.
    pub fn stored_virtual_count(&self) -> usize {
        // Virtual nodes that still participate: have out-edges or are
        // referenced. Empty husks left by expansion don't count.
        let mut referenced = vec![false; self.virt_out.len()];
        for list in self.real_out.iter().chain(self.virt_out.iter()) {
            for a in list {
                if let Some(v) = a.as_virtual() {
                    referenced[v.0 as usize] = true;
                }
            }
        }
        self.virt_out
            .iter()
            .enumerate()
            .filter(|(i, list)| !list.is_empty() || referenced[*i])
            .count()
    }
}

/// Binary search for a real target in a sorted adjacency list (real targets
/// sort before virtual ones, so the real prefix is contiguous).
#[inline]
pub(crate) fn contains_real(list: &[Adj], target: RealId) -> bool {
    list.binary_search(&Adj::real(target)).is_ok()
}

impl GraphRep for CondensedGraph {
    fn kind(&self) -> RepKind {
        RepKind::CDup
    }

    fn num_real_slots(&self) -> usize {
        self.real_out.len()
    }

    fn is_alive(&self, u: RealId) -> bool {
        self.alive[u.0 as usize]
    }

    fn num_vertices(&self) -> usize {
        self.n_alive
    }

    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        // Lists are strictly sorted with reals before virtuals, so the
        // direct prefix names each real target once: emit it as is. Only
        // when virtual entries follow can two paths meet, and only then
        // does the paper's C-DUP iterator run: DFS from u_s, hashset of
        // seen neighbors (seeded with the prefix) to skip duplicates.
        let list = self.real_out.list(u.0 as usize);
        let (direct, via) = list.split_at(list.partition_point(|a| !a.is_virtual()));
        for a in direct {
            let r = RealId(a.raw());
            if r != u && self.alive[r.0 as usize] {
                f(r);
            }
        }
        if via.is_empty() {
            return;
        }
        let mut seen: FxHashSet<u32> = direct.iter().map(|a| a.raw()).collect();
        let mut stack: Vec<u32> = via
            .iter()
            .filter_map(|a| a.as_virtual())
            .map(|v| v.0)
            .collect();
        let mut visited_virts: FxHashSet<u32> = stack.iter().copied().collect();
        while let Some(x) = stack.pop() {
            for a in self.virt_out.list(x as usize) {
                if let Some(r) = a.as_real() {
                    if r != u && self.alive[r.0 as usize] && seen.insert(r.0) {
                        f(r);
                    }
                } else if let Some(v) = a.as_virtual() {
                    if visited_virts.insert(v.0) {
                        stack.push(v.0);
                    }
                }
            }
        }
    }

    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        if u == v || !self.alive[u.0 as usize] || !self.alive[v.0 as usize] {
            return false;
        }
        if contains_real(self.real_out.list(u.0 as usize), v) {
            return true;
        }
        self.real_out
            .list(u.0 as usize)
            .iter()
            .filter_map(|a| a.as_virtual())
            .any(|w| self.virtual_reaches(w, v))
    }

    fn add_vertex(&mut self) -> RealId {
        self.real_out.push(&[]);
        self.alive.push(true);
        self.n_alive += 1;
        RealId(self.real_out.len() as u32 - 1)
    }

    fn delete_vertex(&mut self, u: RealId) {
        if std::mem::replace(&mut self.alive[u.0 as usize], false) {
            self.n_alive -= 1;
        }
    }

    fn revive_vertex(&mut self, u: RealId) {
        if !std::mem::replace(&mut self.alive[u.0 as usize], true) {
            self.n_alive += 1;
        }
    }

    fn compact(&mut self) {
        // Physically remove dead nodes: their own out-lists and their
        // occurrences as targets. A whole-graph rewrite: every chunk is
        // unshared (compaction is an explicit call, never on the delta
        // path).
        let alive = &self.alive;
        self.real_out
            .retain(|slot, a| alive[slot] && a.as_real().is_none_or(|r| alive[r.0 as usize]));
        self.virt_out
            .retain(|_, a| a.as_real().is_none_or(|r| alive[r.0 as usize]));
    }

    fn add_edge(&mut self, u: RealId, v: RealId) {
        if u != v && !self.exists_edge(u, v) {
            self.insert_direct(u, v);
        }
    }

    fn delete_edge(&mut self, u: RealId, v: RealId) {
        // Remove a direct edge if present.
        self.real_out.remove_sorted(u.0 as usize, Adj::real(v));
        // Detach u from every virtual child whose reach includes v, then
        // compensate with direct edges to the other reachable targets —
        // the "non-trivial modifications" §4.3 warns about.
        let offending: Vec<VirtId> = self
            .real_out
            .list(u.0 as usize)
            .iter()
            .filter_map(|a| a.as_virtual())
            .filter(|&w| self.virtual_reaches(w, v))
            .collect();
        if offending.is_empty() {
            return;
        }
        let mut lost: FxHashSet<u32> = FxHashSet::default();
        for &w in &offending {
            self.virtual_reach(w, &mut lost);
            self.detach_real_from_virtual(u, w);
        }
        lost.remove(&v.0);
        lost.remove(&u.0);
        let mut lost: Vec<u32> = lost.into_iter().collect();
        lost.sort_unstable();
        for w in lost {
            if !self.exists_edge(u, RealId(w)) {
                self.insert_direct(u, RealId(w));
            }
        }
    }

    fn stored_edge_count(&self) -> u64 {
        let alive = &self.alive;
        let real: u64 = self
            .real_out
            .iter()
            .enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(_, l)| l.len() as u64)
            .sum();
        let virt: u64 = self.virt_out.iter().map(|l| l.len() as u64).sum();
        real + virt
    }

    fn stored_node_count(&self) -> usize {
        self.n_alive + self.stored_virtual_count()
    }

    fn heap_bytes(&self) -> usize {
        self.real_out.heap_bytes() + self.virt_out.heap_bytes() + self.alive.capacity()
    }
    fn as_condensed(&self) -> Option<&CondensedGraph> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CondensedBuilder;

    /// The Fig. 1 toy graph: pubs p1={a1,a2,a4}, p2={a1,a4}, p3={a3,a4,a5}.
    /// (0-indexed here: a1..a5 -> 0..4.)
    pub(crate) fn fig1() -> CondensedGraph {
        let mut b = CondensedBuilder::new(5);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(0), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        b.build()
    }

    #[test]
    fn fig1_neighbor_sets() {
        let g = fig1();
        let n = |i: u32| {
            let mut v = g.neighbors(RealId(i));
            v.sort();
            v.iter().map(|r| r.0).collect::<Vec<_>>()
        };
        assert_eq!(n(0), vec![1, 3]); // a1: a2, a4 (through both p1 and p2 — deduped)
        assert_eq!(n(1), vec![0, 3]);
        assert_eq!(n(2), vec![3, 4]);
        assert_eq!(n(3), vec![0, 1, 2, 4]);
        assert_eq!(n(4), vec![2, 3]);
    }

    #[test]
    fn fig1_expanded_edge_count_matches_paper() {
        // Fig. 1c: 48 edges counting directed pairs incl. self-loops per the
        // paper's drawing; excluding self-loops the co-author relation here
        // is {01,03,13,23,24,34} ×2 directions = 12.
        let g = fig1();
        assert_eq!(g.expanded_edge_count(), 12);
    }

    #[test]
    fn duplication_is_invisible_to_neighbors() {
        // a1 and a4 share two pubs: exactly one logical edge.
        let g = fig1();
        let count = g.neighbors(RealId(0)).iter().filter(|r| r.0 == 3).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn exists_edge_via_virtual_and_direct() {
        let mut g = fig1();
        assert!(g.exists_edge(RealId(0), RealId(3)));
        assert!(!g.exists_edge(RealId(0), RealId(2)));
        g.add_edge(RealId(0), RealId(2));
        assert!(g.exists_edge(RealId(0), RealId(2)));
        // adding an existing logical edge is a no-op
        let before = g.stored_edge_count();
        g.add_edge(RealId(0), RealId(3));
        assert_eq!(g.stored_edge_count(), before);
    }

    #[test]
    fn delete_edge_preserves_other_sources() {
        let mut g = fig1();
        g.delete_edge(RealId(0), RealId(3));
        assert!(!g.exists_edge(RealId(0), RealId(3)));
        // a2 still reaches a4 through p1; a4 still reaches a1.
        assert!(g.exists_edge(RealId(1), RealId(3)));
        assert!(g.exists_edge(RealId(3), RealId(0)));
        // a1 keeps its edge to a2 (compensated direct edge).
        assert!(g.exists_edge(RealId(0), RealId(1)));
    }

    #[test]
    fn delete_vertex_is_lazy_and_compact_reclaims() {
        let mut g = fig1();
        g.delete_vertex(RealId(3));
        assert_eq!(g.num_vertices(), 4);
        assert!(!g.neighbors(RealId(0)).contains(&RealId(3)));
        assert!(!g.exists_edge(RealId(0), RealId(3)));
        let edges_before = g.stored_edge_count();
        g.compact();
        assert!(g.stored_edge_count() < edges_before);
        // Logical view unchanged by compaction.
        assert!(g.exists_edge(RealId(2), RealId(4)));
        assert!(!g.exists_edge(RealId(2), RealId(3)));
    }

    #[test]
    fn add_vertex_then_connect() {
        let mut g = fig1();
        let v = g.add_vertex();
        assert_eq!(g.degree(v), 0);
        g.add_edge(v, RealId(0));
        assert!(g.exists_edge(v, RealId(0)));
        assert_eq!(g.neighbors(v), vec![RealId(0)]);
    }

    #[test]
    fn single_layer_and_layer_count() {
        let g = fig1();
        assert!(g.is_single_layer());
        assert_eq!(g.layer_count(), 1);
        // Build a 2-layer graph: u -> V1 -> V2 -> w
        let mut b = CondensedBuilder::new(2);
        let v1 = b.add_virtual();
        let v2 = b.add_virtual();
        b.real_to_virtual(RealId(0), v1);
        b.virtual_to_virtual(v1, v2);
        b.virtual_to_real(v2, RealId(1));
        let g2 = b.build();
        assert!(!g2.is_single_layer());
        assert_eq!(g2.layer_count(), 2);
        assert_eq!(g2.neighbors(RealId(0)), vec![RealId(1)]);
        assert!(g2.exists_edge(RealId(0), RealId(1)));
    }

    #[test]
    fn multilayer_diamond_dedups() {
        // u -> V1 -> V3 -> w and u -> V2 -> V3 -> w: one logical edge.
        let mut b = CondensedBuilder::new(2);
        let v1 = b.add_virtual();
        let v2 = b.add_virtual();
        let v3 = b.add_virtual();
        b.real_to_virtual(RealId(0), v1);
        b.real_to_virtual(RealId(0), v2);
        b.virtual_to_virtual(v1, v3);
        b.virtual_to_virtual(v2, v3);
        b.virtual_to_real(v3, RealId(1));
        let g = b.build();
        assert_eq!(g.neighbors(RealId(0)), vec![RealId(1)]);
        assert_eq!(g.expanded_edge_count(), 1);
    }

    #[test]
    fn real_in_index_inverts_membership() {
        let g = fig1();
        let index = g.real_in_index();
        assert_eq!(index.len(), 3);
        assert_eq!(index[0], vec![0, 1, 3]); // p1's sources
        assert_eq!(index[1], vec![0, 3]);
        assert_eq!(index[2], vec![2, 3, 4]);
    }

    #[test]
    fn expand_virtual_inlines_edges() {
        let mut g = fig1();
        let index = g.real_in_index();
        g.expand_virtual(VirtId(1), &index[1]); // p2 = {a1, a4}
                                                // logical graph unchanged
        assert!(g.exists_edge(RealId(0), RealId(3)));
        assert!(g.exists_edge(RealId(3), RealId(0)));
        assert!(g.virt_out(VirtId(1)).is_empty());
    }

    #[test]
    fn revive_restores_hidden_adjacency() {
        let mut g = fig1();
        g.delete_vertex(RealId(3));
        assert!(!g.exists_edge(RealId(0), RealId(3)));
        assert_eq!(g.num_vertices(), 4);
        g.revive_vertex(RealId(3));
        assert_eq!(g.num_vertices(), 5);
        assert!(g.exists_edge(RealId(0), RealId(3)));
        // Reviving a live vertex is a no-op.
        g.revive_vertex(RealId(3));
        assert_eq!(g.num_vertices(), 5);
    }

    #[test]
    fn patch_surface_mirrors_builder() {
        // Build fig1 once via the builder and once via in-place patches;
        // the structures must match edge-for-edge.
        let reference = fig1();
        let mut g = CondensedBuilder::new(5).build();
        for group in [vec![0u32, 1, 3], vec![0, 3], vec![2, 3, 4]] {
            let v = g.add_virtual_node();
            for &m in &group {
                g.insert_real_to_virtual(RealId(m), v);
                g.insert_virtual_to_real(v, RealId(m));
            }
        }
        for u in 0..5u32 {
            assert_eq!(g.real_out(RealId(u)), reference.real_out(RealId(u)));
        }
        for v in 0..3u32 {
            assert_eq!(g.virt_out(VirtId(v)), reference.virt_out(VirtId(v)));
        }
        // Raw removals undo raw insertions (no compensation edges appear).
        g.insert_direct(RealId(0), RealId(2));
        g.remove_direct(RealId(0), RealId(2));
        g.insert_virtual_to_virtual(VirtId(0), VirtId(1));
        g.remove_virtual_to_virtual(VirtId(0), VirtId(1));
        assert_eq!(g.real_out(RealId(0)), reference.real_out(RealId(0)));
        assert_eq!(g.virt_out(VirtId(0)), reference.virt_out(VirtId(0)));
    }

    #[test]
    fn expanded_count_default_matches_manual() {
        let g = fig1();
        let edges = crate::expand_to_edge_list(&g);
        assert_eq!(edges.len() as u64, g.expanded_edge_count());
    }

    /// Fig. 1's lists in the builder's order.
    fn fig1_lists() -> (Vec<Vec<Adj>>, Vec<Vec<Adj>>) {
        let g = fig1();
        let real = (0..5).map(|u| g.real_out(RealId(u)).to_vec()).collect();
        let virt = (0..3).map(|v| g.virt_out(VirtId(v)).to_vec()).collect();
        (real, virt)
    }

    #[test]
    fn from_sorted_lists_equals_the_builder() {
        let (real, virt) = fig1_lists();
        let g = CondensedGraph::from_sorted_lists(real, virt);
        let want = fig1();
        assert!(g.real_out_chunks() == want.real_out_chunks());
        assert!(g.virt_out_chunks() == want.virt_out_chunks());
        assert_eq!(g.heap_bytes(), want.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn from_sorted_lists_rejects_an_unsorted_list() {
        let (mut real, virt) = fig1_lists();
        real[3].reverse();
        CondensedGraph::from_sorted_lists(real, virt);
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn from_sorted_lists_rejects_a_duplicate() {
        let (mut real, virt) = fig1_lists();
        real[0].insert(0, Adj::real(RealId(2)));
        real[0].insert(0, Adj::real(RealId(2)));
        CondensedGraph::from_sorted_lists(real, virt);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_lists_rejects_an_out_of_range_id() {
        let (mut real, virt) = fig1_lists();
        real[4].push(Adj::virt(VirtId(3)));
        CondensedGraph::from_sorted_lists(real, virt);
    }
}
