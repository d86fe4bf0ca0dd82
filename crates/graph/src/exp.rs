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
//! Every builder ends in one finisher (`with_in_lists`): when the in-lists
//! equal the out-lists — an undirected graph such as a co-author graph —
//! the in-store is a clone of the out-store and points at the same chunks,
//! so the graph keeps its lists once and [`GraphRep::heap_bytes`] counts a
//! chunk both directions point at once. Symmetry is decided from the lists
//! themselves (by [`ExpandedGraph::from_sorted_lists`] in the parallel pass
//! that chunks them, by one cursor walk otherwise), never from how they
//! were produced, so every builder shares the same way. An edge edit
//! writes through [`ChunkedAdj::insert_sorted`]
//! and [`ChunkedAdj::remove_sorted`]: the first write to a shared graph
//! copies the one chunk it touches in each direction and leaves every other
//! chunk shared. [`GraphRep::add_vertex`] keeps a shared trailing chunk
//! shared, and [`GraphRep::compact`] shares the stores again whenever the
//! compacted graph is symmetric.

use crate::api::{GraphRep, RepKind};
use crate::chunk::{AdjChunk, ChunkedAdj, CHUNK_LEN};
use crate::ids::{Adj, RealId};
use graphgen_common::parallel::{effective_threads, map_morsels};
use std::ops::Range;
use std::sync::Arc;

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
    /// self-loop — without sorting them again: `lists[u]` holds the
    /// targets of vertex `u`, and every vertex is alive. Every list is
    /// checked, in O(edges): a list out of order, a repeated target, a
    /// self-loop or a target outside the graph panics.
    ///
    /// Up to `threads` threads each take a range of whole chunks of
    /// vertices, check their lists and copy them into exact-size chunks,
    /// and test whether the range's edges are mirrored by the cursor walk
    /// of `is_symmetric` over the range's sources (`walk_range`), each
    /// target's cursor starting at its first entry in the range. A walk
    /// succeeds only if every edge `u → v` of its range finds `u` in `v`'s
    /// list, and every walk over a symmetric graph succeeds, so the graph
    /// is symmetric exactly when every walk succeeds.
    /// A walk keeps a four-byte cursor per vertex, so there are at most as
    /// many ranges as keep those cursors within a quarter of the lists'
    /// own bytes (four edges per vertex and range). The
    /// graph and its bytes are the same for any `threads`.
    pub fn from_sorted_lists<L>(lists: &[L], threads: usize) -> Self
    where
        L: AsRef<[u32]> + Sync,
    {
        let n = lists.len();
        let n_chunks = n.div_ceil(CHUNK_LEN);
        let edges: usize = lists.iter().map(|list| list.as_ref().len()).sum();
        let walks = (edges / (EDGES_PER_CURSOR * n).max(1)).max(1);
        let t = effective_threads(threads, n).min(walks);
        let ranges = map_morsels(n_chunks, t, |range| {
            build_range(lists, range.start * CHUNK_LEN..n.min(range.end * CHUNK_LEN))
        });
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut symmetric = true;
        for range in ranges {
            let (range_chunks, mirrored) = range.unwrap_or_else(|e| panic!("{e}"));
            chunks.extend(range_chunks);
            symmetric &= mirrored;
        }
        let out = ChunkedAdj::from_chunks(chunks, n);
        Self::with_in_lists(out, vec![true; n], symmetric)
    }

    /// Finish a graph from its sorted, duplicate-free out-lists, deciding
    /// from them whether it is symmetric.
    fn from_out(out: ChunkedAdj, alive: Vec<bool>) -> Self {
        let symmetric = is_symmetric(&out);
        Self::with_in_lists(out, alive, symmetric)
    }

    /// Finish a graph from its sorted, duplicate-free out-lists: the
    /// in-store is the out-store's clone when the graph is `symmetric`,
    /// otherwise a counting transpose in source order, which builds every
    /// in-list sorted.
    fn with_in_lists(out: ChunkedAdj, alive: Vec<bool>, symmetric: bool) -> Self {
        let inc = if symmetric {
            out.clone()
        } else {
            transpose(&out)
        };
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

/// Edges per vertex that each range of
/// [`ExpandedGraph::from_sorted_lists`] needs: its walk's cursors take as
/// many bytes per vertex as a quarter of this many targets.
const EDGES_PER_CURSOR: usize = 4;

/// Move lists of targets into exact-size chunks, each list dropped as soon
/// as its chunk holds it.
fn store<L>(lists: impl IntoIterator<Item = L, IntoIter: ExactSizeIterator>) -> ChunkedAdj
where
    L: IntoIterator<Item = u32, IntoIter: ExactSizeIterator>,
{
    ChunkedAdj::collect_lists(lists.into_iter().map(|l| l.into_iter().map(target)))
}

/// Whether every out-list of `out` is also the vertex's in-list: one
/// [`walk_range`] over every source.
fn is_symmetric(out: &ChunkedAdj) -> bool {
    walk_range(|v| out.list(v), out.len(), 0..out.len())
}

/// Check and chunk the lists of `vertices` (whole chunks of `lists`), and
/// say whether their edges are mirrored (see
/// [`ExpandedGraph::from_sorted_lists`]); or say what is wrong with the
/// first list that fails.
fn build_range<L: AsRef<[u32]>>(
    lists: &[L],
    vertices: Range<usize>,
) -> Result<(Vec<Arc<AdjChunk>>, bool), &'static str> {
    let mut chunks = Vec::with_capacity(vertices.len().div_ceil(CHUNK_LEN));
    let mut group = Vec::with_capacity(CHUNK_LEN);
    for u in vertices.clone() {
        let list = lists[u].as_ref();
        if !list.windows(2).all(|p| p[0] < p[1]) {
            return Err("out-list is not strictly sorted");
        }
        if list.last().is_some_and(|&v| v as usize >= lists.len()) {
            return Err("out-list names a vertex out of range");
        }
        if list.binary_search(&(u as u32)).is_ok() {
            return Err("out-list holds a self-loop");
        }
        group.push(list.iter().map(|&v| target(v)));
        if group.len() == CHUNK_LEN || u + 1 == vertices.end {
            let full = std::mem::replace(&mut group, Vec::with_capacity(CHUNK_LEN));
            chunks.push(Arc::new(AdjChunk::from_lists(full)));
        }
    }
    let mirrored = walk_range(|v| lists[v].as_ref(), lists.len(), vertices);
    Ok((chunks, mirrored))
}

/// An out-list entry: a target vertex, as the caller's lists hold it.
trait Entry: Copy + Ord {
    fn of(v: u32) -> Self;
    fn vertex(self) -> usize;
}

impl Entry for u32 {
    fn of(v: u32) -> Self {
        v
    }
    fn vertex(self) -> usize {
        self as usize
    }
}

impl Entry for Adj {
    fn of(v: u32) -> Self {
        target(v)
    }
    fn vertex(self) -> usize {
        self.raw() as usize
    }
}

/// The cursor walk over the sources `vertices` of the `n` valid lists
/// `list(0..n)`: whether each edge `u → v` is the next unmatched entry of
/// `v`'s list at or after `vertices.start`. A walk that succeeds has found
/// every edge of its sources mirrored. Walking the sources in ascending
/// order meets each vertex's in-neighbours among them in ascending order,
/// so on a symmetric graph every walk succeeds: walks over ranges that
/// cover all sources all succeed exactly when the graph is symmetric.
fn walk_range<'a, T: Entry + 'a>(
    list: impl Fn(usize) -> &'a [T],
    n: usize,
    vertices: Range<usize>,
) -> bool {
    let first = T::of(vertices.start as u32);
    // Per target, its next entry to match; `u32::MAX` until a walk past
    // the first range finds where the range starts in its list.
    let unset = if vertices.start > 0 { u32::MAX } else { 0 };
    let mut cursor = vec![unset; n];
    vertices.into_iter().all(|u| {
        list(u).iter().all(|&v| {
            let targets = list(v.vertex());
            let k = &mut cursor[v.vertex()];
            if *k == u32::MAX {
                *k = targets.partition_point(|&w| w < first) as u32;
            }
            let hit = targets.get(*k as usize) == Some(&T::of(u as u32));
            *k += 1;
            hit
        })
    })
}

/// The in-lists of a graph whose out-lists are `out`, by a counting
/// transpose in source order: every in-list at exact size and already
/// sorted.
fn transpose(out: &ChunkedAdj) -> ChunkedAdj {
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
            let direct = ExpandedGraph::from_sorted_lists(&out, 1);
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

    /// Out-lists over `n` vertices, 33 targets each on average: both
    /// directions of the edges from each vertex to the next sixteen round
    /// a ring, of chords and of a hub's edges to every seventh vertex.
    fn symmetric_lists(n: u32) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); n as usize];
        let ring = (0..n).flat_map(|u| (1..=16).map(move |k| (u, (u + k) % n)));
        let chords = (0..n).step_by(3).map(|u| (u, (u * 7 + 5) % n));
        let hub = (1..n).step_by(7).map(|v| (0, v));
        for (u, v) in ring.chain(chords).chain(hub).filter(|(u, v)| u != v) {
            out[u as usize].push(v);
            out[v as usize].push(u);
        }
        for list in &mut out {
            list.sort_unstable();
            list.dedup();
        }
        out
    }

    #[test]
    fn from_sorted_lists_is_the_same_at_any_thread_count() {
        // 12,000 vertices: 750 chunks, dozens per range at eight threads,
        // and enough edges per vertex for eight ranges' cursors.
        let n = 12_000u32;
        let symmetric = symmetric_lists(n);
        let last = n as usize - 3;
        assert!(symmetric[last].contains(&(n - 2)));
        // One pair short of symmetric, in the last range: an upward edge
        // whose mirror is missing, and a downward edge whose mirror is
        // missing; either fails the walk of the range holding its source.
        let mut up_only = symmetric.clone();
        up_only[n as usize - 2].retain(|&v| v != last as u32);
        let mut down_only = symmetric.clone();
        down_only[last].retain(|&v| v != n - 2);
        for (lists, mirrored) in [(symmetric, true), (up_only, false), (down_only, false)] {
            let reference = ExpandedGraph::from_edges(n as usize, edge_list(&lists));
            let shared = reference.inc.shared_chunks_with(&reference.out);
            assert_eq!(shared == reference.out.chunks().len(), mirrored);
            for threads in [1, 2, 8] {
                let g = ExpandedGraph::from_sorted_lists(&lists, threads);
                assert_eq!(g, reference, "{threads} threads");
                assert_eq!(g.heap_bytes(), reference.heap_bytes(), "{threads} threads");
                assert_eq!(
                    g.inc.shared_chunks_with(&g.out),
                    shared,
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_lists_reports_a_bad_list_from_a_worker() {
        let mut lists = symmetric_lists(12_000);
        lists[11_990].push(12_000);
        ExpandedGraph::from_sorted_lists(&lists, 8);
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
        ExpandedGraph::from_sorted_lists(&[vec![2, 1], vec![], vec![]], 1);
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn from_sorted_lists_rejects_a_duplicate() {
        ExpandedGraph::from_sorted_lists(&[vec![1, 1], vec![]], 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_sorted_lists_rejects_a_self_loop() {
        ExpandedGraph::from_sorted_lists(&[vec![1], vec![0, 1, 2], vec![]], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_lists_rejects_an_out_of_range_target() {
        ExpandedGraph::from_sorted_lists(&[vec![1, 2], vec![]], 1);
    }

    #[test]
    fn vertices_skips_dead() {
        let mut g = triangle();
        g.delete_vertex(RealId(1));
        let live: Vec<u32> = g.vertices().map(|r| r.0).collect();
        assert_eq!(live, vec![0, 2]);
    }
}
