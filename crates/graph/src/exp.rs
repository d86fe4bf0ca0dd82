//! EXP: the fully expanded graph (§4.3).
//!
//! All virtual nodes are materialized away: every node stores its direct
//! in/out adjacency (the paper's CSR-variant with two lists per node).
//! Iteration is a plain scan — the performance baseline every other
//! representation is compared against — at the cost of a much larger
//! footprint (Table 1's space explosion).
//!
//! Both directions are [`ChunkedAdj`] stores of [`Adj::real`] targets, the
//! chunked, `Arc`-shared, copy-on-write store C-DUP keeps its lists in.
//! Every builder ends in one finisher (`from_out`): when the in-lists equal
//! the out-lists — an undirected graph such as a co-author graph — the
//! in-store is a clone of the out-store and points at the same chunks, so
//! the graph keeps its lists once and [`GraphRep::heap_bytes`] counts a
//! chunk both directions point at once. Symmetry is decided from the lists
//! themselves, never from how they were produced, so every builder shares
//! the same way. An edge edit writes through [`ChunkedAdj::insert_sorted`]
//! and [`ChunkedAdj::remove_sorted`]: the first write to a shared graph
//! copies the one chunk it touches in each direction and leaves every other
//! chunk shared. [`GraphRep::add_vertex`] keeps a shared trailing chunk
//! shared, and [`GraphRep::compact`] shares the stores again whenever the
//! compacted graph is symmetric.

use crate::api::{GraphRep, RepKind};
use crate::chunk::ChunkedAdj;
use crate::ids::{Adj, RealId};

/// Fully expanded directed graph with lazy vertex deletion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpandedGraph {
    out: ChunkedAdj, // sorted
    inc: ChunkedAdj, // sorted in-lists; `out`'s chunks while they are equal
    alive: Vec<bool>,
    n_alive: usize,
}

#[inline]
fn target(v: u32) -> Adj {
    Adj::real(RealId(v))
}

impl ExpandedGraph {
    /// An empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::from_out(store(vec![Vec::new(); n]), vec![true; n])
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
        }
        Self::from_out(store(out), vec![true; n])
    }

    /// Expand any other representation into an [`ExpandedGraph`]: one
    /// neighbor pass per live vertex into a reused buffer, sorted, deduped
    /// and moved into the out-store as it is made; the in-lists follow from
    /// the out-lists.
    pub fn from_rep<G: GraphRep + ?Sized>(rep: &G) -> Self {
        let n = rep.num_real_slots();
        let alive: Vec<bool> = (0..n as u32).map(|u| rep.is_alive(RealId(u))).collect();
        let mut buf = Vec::new();
        let out = store((0..n).map(|u| {
            buf.clear();
            if alive[u] {
                rep.for_each_neighbor(RealId(u as u32), &mut |v| buf.push(v.0));
                buf.sort_unstable();
                buf.dedup();
            }
            buf.to_vec()
        }));
        Self::from_out(out, alive)
    }

    /// Build from out-lists that are already in the order
    /// [`ExpandedGraph::from_edges`] produces — strictly ascending, no
    /// self-loop — without sorting them again: the `u`-th list holds the
    /// targets of vertex `u`, and every vertex is alive. Each list is
    /// dropped as soon as the graph holds it. Every list is checked, in
    /// O(edges): a list out of order, a repeated target, a self-loop or a
    /// target outside the graph panics.
    pub fn from_sorted_lists<L>(
        out: impl IntoIterator<Item = L, IntoIter: ExactSizeIterator>,
    ) -> Self
    where
        L: IntoIterator<Item = u32, IntoIter: ExactSizeIterator>,
    {
        let out = store(out);
        let n = out.len();
        for (u, list) in out.iter().enumerate() {
            assert!(
                list.windows(2).all(|p| p[0] < p[1]),
                "out-list is not strictly sorted"
            );
            assert!(
                list.last().is_none_or(|a| (a.raw() as usize) < n),
                "out-list names a vertex out of range"
            );
            assert!(
                list.binary_search(&target(u as u32)).is_err(),
                "out-list holds a self-loop"
            );
        }
        Self::from_out(out, vec![true; n])
    }

    /// Finish a graph from its sorted, duplicate-free out-lists: the
    /// in-store is the out-store's clone when the graph is symmetric,
    /// otherwise a counting transpose in source order, which builds every
    /// in-list sorted.
    fn from_out(out: ChunkedAdj, alive: Vec<bool>) -> Self {
        let inc = in_lists(&out);
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
        self.inc
            .list(u.0 as usize)
            .iter()
            .map(|a| RealId(a.raw()))
            .filter(move |w| self.alive[w.0 as usize])
    }
}

/// Move lists of targets into exact-size chunks, each list dropped as soon
/// as its chunk holds it.
fn store<L>(lists: impl IntoIterator<Item = L, IntoIter: ExactSizeIterator>) -> ChunkedAdj
where
    L: IntoIterator<Item = u32, IntoIter: ExactSizeIterator>,
{
    ChunkedAdj::collect_lists(lists.into_iter().map(|l| l.into_iter().map(target)))
}

/// Whether every out-list of `out` is also the vertex's in-list. Walking the
/// sources in ascending order meets each vertex's in-neighbours in ascending
/// order, so the graph is symmetric exactly when each edge `u → v` is the
/// next unmatched entry of `v`'s out-list and every entry gets matched.
fn is_symmetric(out: &ChunkedAdj) -> bool {
    let mut matched = vec![0u32; out.len()];
    for (u, list) in out.iter().enumerate() {
        for &a in list {
            let v = a.raw() as usize;
            let k = &mut matched[v];
            if out.list(v).get(*k as usize) != Some(&target(u as u32)) {
                return false;
            }
            *k += 1;
        }
    }
    (0..out.len()).all(|v| matched[v] as usize == out.list(v).len())
}

/// The in-lists of a graph whose out-lists are `out`: `out`'s clone, sharing
/// every chunk, when the graph is symmetric; otherwise a counting transpose
/// in source order, every in-list at exact size and already sorted.
fn in_lists(out: &ChunkedAdj) -> ChunkedAdj {
    if is_symmetric(out) {
        return out.clone();
    }
    let mut in_degree = vec![0usize; out.len()];
    for &a in out.iter().flatten() {
        in_degree[a.raw() as usize] += 1;
    }
    let mut inc: Vec<Vec<Adj>> = in_degree.iter().map(|&d| Vec::with_capacity(d)).collect();
    for (u, list) in out.iter().enumerate() {
        for &a in list {
            inc[a.raw() as usize].push(target(u as u32));
        }
    }
    ChunkedAdj::from_lists(inc)
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
        for a in self.out.list(u.0 as usize) {
            let v = a.raw();
            if self.alive[v as usize] {
                f(RealId(v));
            }
        }
    }

    fn degree(&self, u: RealId) -> usize {
        let list = self.out.list(u.0 as usize);
        // Fast path: if nothing is deleted the list length is the degree.
        if self.n_alive == self.alive.len() {
            list.len()
        } else {
            list.iter().filter(|a| self.alive[a.raw() as usize]).count()
        }
    }

    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        self.alive[u.0 as usize]
            && self.alive[v.0 as usize]
            && self
                .out
                .list(u.0 as usize)
                .binary_search(&target(v.0))
                .is_ok()
    }

    fn add_vertex(&mut self) -> RealId {
        self.out.push_empty_mirrored(&mut self.inc);
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
        let live = |slot: usize, a: Adj| alive[slot] && alive[a.raw() as usize];
        self.out.retain(live);
        // Dropping dead vertices keeps a symmetric graph symmetric.
        if is_symmetric(&self.out) {
            self.inc = self.out.clone();
        } else {
            self.inc.retain(live);
        }
    }

    fn add_edge(&mut self, u: RealId, v: RealId) {
        if u != v && self.out.insert_sorted(u.0 as usize, target(v.0)) {
            self.inc.insert_sorted(v.0 as usize, target(u.0));
        }
    }

    fn delete_edge(&mut self, u: RealId, v: RealId) {
        if self.out.remove_sorted(u.0 as usize, target(v.0)) {
            self.inc.remove_sorted(v.0 as usize, target(u.0));
        }
    }

    fn stored_edge_count(&self) -> u64 {
        self.out
            .iter()
            .zip(&self.alive)
            .filter(|(_, &alive)| alive)
            .map(|(l, _)| l.len() as u64)
            .sum()
    }

    fn stored_node_count(&self) -> usize {
        self.n_alive
    }

    fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inc.heap_bytes_beside(&self.out) + self.alive.capacity()
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
        assert_eq!(g.out.list(0), &[target(1)]);
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

    /// Random out-lists over up to 40 vertices (so up to three chunks):
    /// each ordered pair an edge with probability 1/4, or for a symmetric
    /// case each unordered pair in both directions.
    fn random_lists(rng: &mut graphgen_common::SplitMix64, symmetric: bool) -> Vec<Vec<u32>> {
        let n = rng.next_below(40) as usize;
        let mut out = vec![Vec::new(); n];
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if symmetric && v < u {
                    if out[v as usize].contains(&u) {
                        out[u as usize].push(v);
                    }
                } else if v != u && rng.next_below(4) == 0 {
                    out[u as usize].push(v);
                }
            }
        }
        out
    }

    fn edge_list(out: &[Vec<u32>]) -> Vec<(u32, u32)> {
        (0..out.len())
            .flat_map(|u| out[u].iter().map(move |&v| (u as u32, v)))
            .collect()
    }

    #[test]
    fn from_sorted_lists_equals_from_edges() {
        let mut rng = graphgen_common::SplitMix64::new(7);
        for case in 0..128 {
            let symmetric = case % 2 == 1;
            let out = random_lists(&mut rng, symmetric);
            let n = out.len();
            let edges = edge_list(&out);
            let direct = ExpandedGraph::from_sorted_lists(out);
            let reference = ExpandedGraph::from_edges(n, edges.into_iter().rev());
            assert_eq!(direct, reference, "case {case}");
            assert_eq!(direct.heap_bytes(), reference.heap_bytes(), "case {case}");
            let shared = direct.inc.shared_chunks_with(&direct.out);
            if symmetric {
                assert_eq!(shared, direct.out.chunks().len(), "case {case}");
            }
            assert_eq!(shared, reference.inc.shared_chunks_with(&reference.out));
        }
    }

    /// A graph over 40 vertices (three chunks) holding both directions of
    /// every edge of a ring and of some chords.
    fn symmetric_graph() -> ExpandedGraph {
        let edges = (0..40u32)
            .map(|u| (u, (u + 1) % 40))
            .chain((0..40u32).step_by(3).map(|u| (u, (u * 7 + 5) % 40)));
        let edges: Vec<(u32, u32)> = edges.flat_map(|(u, v)| [(u, v), (v, u)]).collect();
        ExpandedGraph::from_edges(40, edges)
    }

    fn live_edges(g: &ExpandedGraph) -> Vec<(u32, u32)> {
        crate::expand_to_edge_list(g)
    }

    #[test]
    fn a_symmetric_graph_keeps_its_lists_once() {
        let g = symmetric_graph();
        assert_eq!(g.out.chunks().len(), 3);
        assert_eq!(g.inc.shared_chunks_with(&g.out), 3);
        assert_eq!(g.out, g.inc);
        // Each chunk counted once: the in-store adds its pointer vector.
        let pointers = g.inc.chunks().len() * std::mem::size_of::<usize>();
        assert_eq!(g.inc.heap_bytes_beside(&g.out), pointers);
        assert_eq!(
            g.heap_bytes(),
            g.out.heap_bytes() + pointers + g.alive.capacity()
        );
        for u in g.vertices() {
            let ins: Vec<RealId> = g.in_neighbors(u).collect();
            assert_eq!(ins, g.neighbors(u));
        }
    }

    #[test]
    fn an_asymmetric_graph_shares_no_chunk() {
        let g = ExpandedGraph::from_edges(40, (0..39u32).map(|u| (u, u + 1)));
        assert_eq!(g.inc.shared_chunks_with(&g.out), 0);
        assert_eq!(
            g.heap_bytes(),
            g.out.heap_bytes() + g.inc.heap_bytes() + g.alive.capacity()
        );
        assert_eq!(g.in_neighbors(RealId(5)).collect::<Vec<_>>(), [RealId(4)]);
    }

    #[test]
    fn the_first_edit_of_a_shared_graph_copies_one_chunk_per_direction() {
        // (u, v) in different chunks, then in one chunk.
        for (u, v) in [(2u32, 30u32), (17, 20)] {
            let chunks = if u / 16 == v / 16 { 1 } else { 2 };
            let base = symmetric_graph();
            let mut edges = live_edges(&base);

            let mut added = base.clone();
            added.add_edge(RealId(u), RealId(v));
            assert_eq!(added.inc.shared_chunks_with(&added.out), 3 - chunks);
            assert_eq!(added.out.shared_chunks_with(&base.out), 2);
            assert_eq!(added.inc.shared_chunks_with(&base.inc), 2);
            edges.push((u, v));
            assert_eq!(added, ExpandedGraph::from_edges(40, edges.iter().copied()));

            let mut deleted = base.clone();
            let (a, b) = (u, (u + 1) % 40);
            deleted.delete_edge(RealId(a), RealId(b));
            assert_eq!(deleted.out.shared_chunks_with(&base.out), 2);
            assert_eq!(deleted.inc.shared_chunks_with(&base.inc), 2);
            let kept: Vec<(u32, u32)> = live_edges(&base)
                .into_iter()
                .filter(|&e| e != (a, b))
                .collect();
            assert_eq!(deleted, ExpandedGraph::from_edges(40, kept));

            // An edit that changes nothing copies nothing.
            let mut same = base.clone();
            same.add_edge(RealId(0), RealId(1));
            same.delete_edge(RealId(0), RealId(2));
            assert_eq!(same.out.shared_chunks_with(&base.out), 3);
            assert_eq!(same.inc.shared_chunks_with(&same.out), 3);
        }
    }

    #[test]
    fn add_vertex_and_compact_keep_a_symmetric_graph_shared() {
        let mut g = symmetric_graph();
        // Past the trailing chunk's free slots and into a fresh chunk.
        for k in 0..10u32 {
            assert_eq!(g.add_vertex(), RealId(40 + k));
            assert_eq!(g.inc.shared_chunks_with(&g.out), g.out.chunks().len());
        }
        assert_eq!(g.out.chunks().len(), 4);
        g.add_edge(RealId(45), RealId(3));
        g.add_edge(RealId(3), RealId(45));
        g.delete_vertex(RealId(7));
        g.delete_vertex(RealId(45));
        g.compact();
        assert_eq!(g.inc.shared_chunks_with(&g.out), 4);
        let expected = live_edges(&g);
        let mut rebuilt = ExpandedGraph::from_edges(50, expected);
        rebuilt.delete_vertex(RealId(7));
        rebuilt.delete_vertex(RealId(45));
        assert_eq!(g, rebuilt);
        assert!(g.out.list(7).is_empty() && g.inc.list(7).is_empty());
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
