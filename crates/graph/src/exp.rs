//! EXP: the fully expanded graph (§4.3).
//!
//! All virtual nodes are materialized away: every node stores its direct
//! in/out adjacency (the paper's CSR-variant with two mutable ArrayLists per
//! node). Iteration is a plain scan — the performance baseline every other
//! representation is compared against — at the cost of a much larger
//! footprint (Table 1's space explosion).

use crate::api::{GraphRep, RepKind};
use crate::ids::RealId;

/// Fully expanded directed graph with lazy vertex deletion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpandedGraph {
    out: Vec<Vec<u32>>, // sorted
    inc: Vec<Vec<u32>>, // sorted (in-edges; the paper stores both lists)
    alive: Vec<bool>,
    n_alive: usize,
}

impl ExpandedGraph {
    /// An empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
            alive: vec![true; n],
            n_alive: n,
        }
    }

    /// Build from a directed edge list over `n` vertices. Self-loops and
    /// duplicates are dropped.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut out = vec![Vec::new(); n];
        for (u, v) in edges {
            if u != v {
                out[u as usize].push(v);
            }
        }
        for list in &mut out {
            list.sort_unstable();
            list.dedup();
            list.shrink_to_fit();
        }
        Self::from_out(out, vec![true; n])
    }

    /// Expand any other representation into an [`ExpandedGraph`]: one
    /// neighbor pass per live vertex into a reused buffer, sorted, deduped
    /// and stored at exact size; the in-lists follow by transposition.
    pub fn from_rep<G: GraphRep + ?Sized>(rep: &G) -> Self {
        let n = rep.num_real_slots();
        let alive: Vec<bool> = (0..n as u32).map(|u| rep.is_alive(RealId(u))).collect();
        let mut out = vec![Vec::new(); n];
        let mut buf = Vec::new();
        for u in rep.vertices() {
            buf.clear();
            rep.for_each_neighbor(u, &mut |v| buf.push(v.0));
            buf.sort_unstable();
            buf.dedup();
            out[u.0 as usize] = buf.to_vec();
        }
        Self::from_out(out, alive)
    }

    /// Build from out-lists that are already in the order
    /// [`ExpandedGraph::from_edges`] produces — strictly ascending, no
    /// self-loop — without sorting them again: `out[u]` lists the targets
    /// of vertex `u`, every vertex is alive, and each list is stored at
    /// exact size. Every list is checked, in O(edges): a list out of
    /// order, a repeated target, a self-loop or a target outside `out`
    /// panics.
    pub fn from_sorted_lists(mut out: Vec<Vec<u32>>) -> Self {
        let n = out.len();
        for (u, list) in out.iter_mut().enumerate() {
            assert!(
                list.windows(2).all(|p| p[0] < p[1]),
                "out-list is not strictly sorted"
            );
            assert!(
                list.last().is_none_or(|&v| (v as usize) < n),
                "out-list names a vertex out of range"
            );
            assert!(
                list.binary_search(&(u as u32)).is_err(),
                "out-list holds a self-loop"
            );
            list.shrink_to_fit();
        }
        Self::from_out(out, vec![true; n])
    }

    /// Finish a graph from its sorted, duplicate-free out-lists: a
    /// counting transpose in source order builds every in-list at exact
    /// size and already sorted.
    fn from_out(out: Vec<Vec<u32>>, alive: Vec<bool>) -> Self {
        let mut in_degree = vec![0usize; out.len()];
        for &v in out.iter().flatten() {
            in_degree[v as usize] += 1;
        }
        let mut inc: Vec<Vec<u32>> = in_degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for (u, list) in out.iter().enumerate() {
            for &v in list {
                inc[v as usize].push(u as u32);
            }
        }
        let n_alive = alive.iter().filter(|&&a| a).count();
        Self {
            out,
            inc,
            alive,
            n_alive,
        }
    }

    /// In-neighbors of `u` (live only).
    pub fn in_neighbors(&self, u: RealId) -> impl Iterator<Item = RealId> + '_ {
        self.inc[u.0 as usize]
            .iter()
            .copied()
            .filter(move |&w| self.alive[w as usize])
            .map(RealId)
    }

    /// Raw out-adjacency slice (may contain lazily deleted targets).
    pub fn raw_out(&self, u: RealId) -> &[u32] {
        &self.out[u.0 as usize]
    }
}

impl GraphRep for ExpandedGraph {
    fn kind(&self) -> RepKind {
        RepKind::Exp
    }

    fn num_real_slots(&self) -> usize {
        self.out.len()
    }

    fn is_alive(&self, u: RealId) -> bool {
        self.alive[u.0 as usize]
    }

    fn num_vertices(&self) -> usize {
        self.n_alive
    }

    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        for &v in &self.out[u.0 as usize] {
            if self.alive[v as usize] {
                f(RealId(v));
            }
        }
    }

    fn degree(&self, u: RealId) -> usize {
        // Fast path: if nothing is deleted the list length is the degree.
        if self.n_alive == self.alive.len() {
            self.out[u.0 as usize].len()
        } else {
            self.out[u.0 as usize]
                .iter()
                .filter(|&&v| self.alive[v as usize])
                .count()
        }
    }

    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        self.alive[u.0 as usize]
            && self.alive[v.0 as usize]
            && self.out[u.0 as usize].binary_search(&v.0).is_ok()
    }

    fn add_vertex(&mut self) -> RealId {
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        self.alive.push(true);
        self.n_alive += 1;
        RealId(self.out.len() as u32 - 1)
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
        let alive = &self.alive;
        for (i, list) in self.out.iter_mut().enumerate() {
            if !alive[i] {
                list.clear();
                list.shrink_to_fit();
            } else {
                list.retain(|&v| alive[v as usize]);
            }
        }
        for (i, list) in self.inc.iter_mut().enumerate() {
            if !alive[i] {
                list.clear();
                list.shrink_to_fit();
            } else {
                list.retain(|&v| alive[v as usize]);
            }
        }
    }

    fn add_edge(&mut self, u: RealId, v: RealId) {
        if u == v {
            return;
        }
        if let Err(pos) = self.out[u.0 as usize].binary_search(&v.0) {
            self.out[u.0 as usize].insert(pos, v.0);
            if let Err(ipos) = self.inc[v.0 as usize].binary_search(&u.0) {
                self.inc[v.0 as usize].insert(ipos, u.0);
            }
        }
    }

    fn delete_edge(&mut self, u: RealId, v: RealId) {
        if let Ok(pos) = self.out[u.0 as usize].binary_search(&v.0) {
            self.out[u.0 as usize].remove(pos);
        }
        if let Ok(pos) = self.inc[v.0 as usize].binary_search(&u.0) {
            self.inc[v.0 as usize].remove(pos);
        }
    }

    fn stored_edge_count(&self) -> u64 {
        self.out
            .iter()
            .enumerate()
            .filter(|(i, _)| self.alive[*i])
            .map(|(_, l)| l.len() as u64)
            .sum()
    }

    fn stored_node_count(&self) -> usize {
        self.n_alive
    }

    fn heap_bytes(&self) -> usize {
        let lists = |ls: &Vec<Vec<u32>>| {
            ls.capacity() * std::mem::size_of::<Vec<u32>>()
                + ls.iter().map(|l| l.capacity() * 4).sum::<usize>()
        };
        lists(&self.out) + lists(&self.inc) + self.alive.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> ExpandedGraph {
        ExpandedGraph::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    }

    #[test]
    fn from_edges_dedups_and_drops_self_loops() {
        let g = ExpandedGraph::from_edges(2, [(0, 1), (0, 1), (0, 0)]);
        assert_eq!(g.expanded_edge_count(), 1);
        assert_eq!(g.neighbors(RealId(0)), vec![RealId(1)]);
    }

    #[test]
    fn degree_and_exists() {
        let g = triangle();
        assert_eq!(g.degree(RealId(1)), 2);
        assert!(g.exists_edge(RealId(0), RealId(2)));
        assert!(!g.exists_edge(RealId(0), RealId(0)));
    }

    #[test]
    fn add_delete_edge() {
        let mut g = ExpandedGraph::new(3);
        g.add_edge(RealId(0), RealId(1));
        g.add_edge(RealId(0), RealId(1)); // idempotent
        assert_eq!(g.stored_edge_count(), 1);
        assert_eq!(g.in_neighbors(RealId(1)).count(), 1);
        g.delete_edge(RealId(0), RealId(1));
        assert!(!g.exists_edge(RealId(0), RealId(1)));
        assert_eq!(g.in_neighbors(RealId(1)).count(), 0);
    }

    #[test]
    fn lazy_delete_then_compact() {
        let mut g = triangle();
        g.delete_vertex(RealId(2));
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.neighbors(RealId(0)), vec![RealId(1)]);
        assert_eq!(g.degree(RealId(0)), 1);
        g.compact();
        assert_eq!(g.raw_out(RealId(0)), &[1]);
        assert_eq!(g.stored_edge_count(), 2);
    }

    #[test]
    fn from_rep_roundtrip() {
        let g = triangle();
        let g2 = ExpandedGraph::from_rep(&g);
        assert_eq!(
            crate::expand_to_edge_list(&g),
            crate::expand_to_edge_list(&g2)
        );
    }

    #[test]
    fn from_sorted_lists_equals_from_edges() {
        let mut rng = graphgen_common::SplitMix64::new(7);
        for case in 0..64 {
            let n = rng.next_below(40) as usize;
            let out: Vec<Vec<u32>> = (0..n as u32)
                .map(|u| {
                    (0..n as u32)
                        .filter(|&v| v != u && rng.next_below(4) == 0)
                        .collect()
                })
                .collect();
            let edges: Vec<(u32, u32)> = (0..n)
                .flat_map(|u| out[u].iter().map(move |&v| (u as u32, v)))
                .collect();
            let direct = ExpandedGraph::from_sorted_lists(out);
            let reference = ExpandedGraph::from_edges(n, edges.into_iter().rev());
            assert_eq!(direct, reference, "case {case}");
            assert_eq!(direct.heap_bytes(), reference.heap_bytes(), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn from_sorted_lists_rejects_an_unsorted_list() {
        ExpandedGraph::from_sorted_lists(vec![vec![2, 1], vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn from_sorted_lists_rejects_a_duplicate() {
        ExpandedGraph::from_sorted_lists(vec![vec![1, 1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_sorted_lists_rejects_a_self_loop() {
        ExpandedGraph::from_sorted_lists(vec![vec![1], vec![0, 1, 2], vec![]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_lists_rejects_an_out_of_range_target() {
        ExpandedGraph::from_sorted_lists(vec![vec![1, 2], vec![]]);
    }

    #[test]
    fn vertices_skips_dead() {
        let mut g = triangle();
        g.delete_vertex(RealId(1));
        let live: Vec<u32> = g.vertices().map(|r| r.0).collect();
        assert_eq!(live, vec![0, 2]);
    }
}
