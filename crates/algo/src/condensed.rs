//! Condensed-direct kernels: analytics *on the condensed structure itself*.
//!
//! [`crate::degrees()`], [`crate::pagerank()`], [`crate::connected_components`]
//! and their seeded forms pick their kernel through [`condensed_path`]:
//! only graphs without a single-layer condensed core (EXP, DEDUP-2, and
//! multi-layer cores) go through `for_each_neighbor`, whose on-the-fly
//! expansion is paid every superstep. Everything else computes here, on the
//! structure: on a **single-layer** graph a virtual node `V` stands for a
//! clique (every real node pointing at `V` logically reaches every real
//! target of `V`), so per-vertex aggregates can be computed by *weighting
//! through the virtual node* — one precomputed per-virtual value replaces
//! `|V|` neighbor visits.
//!
//! Two strategies, chosen by whether the structure can store duplicate
//! paths:
//!
//! * **aggregated** (DEDUP-1: at most one stored path per logical edge):
//!   `deg(u) = |direct(u)| + Σ_{V ∈ virt(u)} (alive(V) − [u ∈ out(V)])`, and
//!   the PageRank neighbor sum uses a per-iteration per-virtual sum `S(V)`
//!   the same way. `O(stored edges)` per pass, no hashing at all.
//! * **merged** (C-DUP / the BITMAP core, where two virtual nodes may share
//!   a pair): per vertex, gather the real targets of the direct list and of
//!   each virtual child into a reused scratch buffer, sort, dedup. Still no
//!   DFS bookkeeping and no expanded adjacency is ever materialized.
//!
//! Min-label components are duplicate-insensitive, so both paths share one
//! structural sweep: per superstep, each virtual node takes the minimum
//! label of its live real targets, then each live vertex the minimum over
//! its own label, its live direct targets and its virtual children.
//!
//! PageRank and components also come with **seeded** entry points
//! ([`pagerank_seeded`] from a previous rank vector, [`components_seeded`]
//! from previous labels) so a server can warm-start after a small delta.

use crate::degree::degrees;
use crate::vertex_centric::{run_vertex_centric, VertexCentricConfig, VertexProgram};
use graphgen_common::parallel::map_chunks;
use graphgen_graph::{Adj, CondensedGraph, GraphRep, RealId, RepKind, VirtId};

/// Which condensed-direct strategy a dispatch picked (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondensedPath {
    /// Virtual-node weighting on a duplicate-free single-layer structure.
    Aggregated,
    /// Sort-merge dedup over stored lists (duplicates possible).
    Merged,
    /// Generic traversal through `for_each_neighbor` (any representation).
    Traversal,
}

impl CondensedPath {
    /// Stable lower-case name (protocol rendering).
    pub fn label(self) -> &'static str {
        match self {
            CondensedPath::Aggregated => "aggregated",
            CondensedPath::Merged => "merged",
            CondensedPath::Traversal => "traversal",
        }
    }
}

/// The kernel family [`crate::degrees()`], [`crate::pagerank()`] and
/// [`crate::connected_components`] (and their seeded forms) run on `g`:
/// aggregated on a single-layer DEDUP-1, merged on a single-layer C-DUP or
/// BITMAP core, traversal for everything else (multi-layer cores, EXP,
/// DEDUP-2). The aggregated path trusts DEDUP-1's one-path-per-edge
/// invariant exactly as far as `Dedup1Graph::for_each_neighbor` does.
pub fn condensed_path<G: GraphRep + ?Sized>(g: &G) -> CondensedPath {
    match Kernel::of(g) {
        Kernel::Aggregated(_) => CondensedPath::Aggregated,
        Kernel::Merged(_) => CondensedPath::Merged,
        Kernel::Traversal => CondensedPath::Traversal,
    }
}

/// [`condensed_path`] together with the single-layer core the structural
/// paths read.
pub(crate) enum Kernel<'a> {
    Aggregated(&'a CondensedGraph),
    Merged(&'a CondensedGraph),
    Traversal,
}

impl<'a> Kernel<'a> {
    pub(crate) fn of<G: GraphRep + ?Sized>(g: &'a G) -> Self {
        match (g.as_condensed(), g.kind()) {
            (Some(core), RepKind::Dedup1) if core.is_single_layer() => Kernel::Aggregated(core),
            (Some(core), RepKind::CDup | RepKind::Bitmap) if core.is_single_layer() => {
                Kernel::Merged(core)
            }
            _ => Kernel::Traversal,
        }
    }
}

/// Superstep cap of the min-label programs, a safety net: they halt one
/// superstep after the longest shortest path has been crossed.
const MAX_SUPERSTEPS: usize = 100_000;

/// Per-virtual-node count of *alive* real targets (the clique size a
/// virtual node currently stands for). Virtual→virtual targets are not
/// counted — callers require a single-layer structure.
fn virtual_alive_counts(g: &CondensedGraph) -> Vec<u32> {
    (0..g.num_virtual())
        .map(|v| {
            g.virt_out(VirtId(v as u32))
                .iter()
                .filter_map(|a| a.as_real())
                .filter(|r| g.is_alive(*r))
                .count() as u32
        })
        .collect()
}

#[inline]
fn member(g: &CondensedGraph, v: VirtId, u: RealId) -> bool {
    // Sorted lists put real targets first, so the real prefix is
    // binary-searchable with the packed representation.
    g.virt_out(v).binary_search(&Adj::real(u)).is_ok()
}

/// `u`'s stored list as its direct real targets other than `u` (two sorted
/// runs) and its virtual children. Lists are strictly sorted, real targets
/// first.
fn split_list(g: &CondensedGraph, u: RealId) -> ([&[Adj]; 2], &[Adj]) {
    let list = g.real_out(u);
    let (direct, via) = list.split_at(list.partition_point(|a| !a.is_virtual()));
    let runs = match direct.binary_search(&Adj::real(u)) {
        Ok(i) => [&direct[..i], &direct[i + 1..]],
        Err(_) => [direct, &[][..]],
    };
    (runs, via)
}

/// `Σ contrib[a]` over `targets` in four independent lanes: a serial sum
/// waits on every add, and this is the aggregated PageRank's inner loop.
fn lane_sum(targets: &[Adj], contrib: &[f64]) -> f64 {
    let value = |a: &Adj| contrib[a.raw() as usize];
    let mut lanes = [0.0f64; 4];
    let mut quads = targets.chunks_exact(4);
    for quad in &mut quads {
        for (lane, a) in lanes.iter_mut().zip(quad) {
            *lane += value(a);
        }
    }
    let tail: f64 = quads.remainder().iter().map(value).sum();
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Write `f(i)` into every `out[i]`, chunk-parallel ([`map_chunks`]).
fn for_each_slot_into<T: Send, F: Fn(u32) -> T + Sync>(out: &mut [T], threads: usize, f: F) {
    map_chunks(out, threads, |base, slot| {
        for (j, s) in slot.iter_mut().enumerate() {
            *s = f((base + j) as u32);
        }
    });
}

/// Degrees by virtual-node weighting. Exact when the structure is
/// single-layer and stores at most one path per logical edge (DEDUP-1's
/// invariant): `deg(u)` sums the clique sizes of `u`'s virtual children
/// (minus `u` itself where it is a stored target) plus its live direct
/// targets. `O(stored edges + deg·log)` total, no per-vertex hashing, no
/// expansion. Dead vertices report 0.
pub(crate) fn degrees_dedup_free(g: &CondensedGraph, threads: usize) -> Vec<u32> {
    debug_assert!(g.is_single_layer(), "aggregated degrees need single layer");
    let alive_counts = virtual_alive_counts(g);
    let all_alive = g.num_vertices() == g.num_real_slots();
    let mut out = vec![0u32; g.num_real_slots()];
    for_each_slot_into(&mut out, threads, |u| {
        let u = RealId(u);
        if !g.is_alive(u) {
            return 0;
        }
        let (direct, via) = split_list(g, u);
        let mut deg = if all_alive {
            direct.iter().map(|run| run.len() as u32).sum()
        } else {
            direct
                .iter()
                .flat_map(|run| run.iter())
                .filter(|a| g.is_alive(RealId(a.raw())))
                .count() as u32
        };
        for v in via.iter().filter_map(|a| a.as_virtual()) {
            deg += alive_counts[v.0 as usize] - u32::from(member(g, v, u));
        }
        deg
    });
    out
}

/// Gather the distinct live real targets of `u` (excluding `u`) into
/// `scratch` by sort-merge over the stored lists. Single-layer only; exact
/// even when duplicate paths exist (C-DUP).
fn merged_targets(g: &CondensedGraph, u: RealId, scratch: &mut Vec<u32>) {
    scratch.clear();
    for a in g.real_out(u) {
        if let Some(r) = a.as_real() {
            scratch.push(r.0);
        } else if let Some(v) = a.as_virtual() {
            scratch.extend(
                g.virt_out(v)
                    .iter()
                    .filter_map(|b| b.as_real())
                    .map(|r| r.0),
            );
        }
    }
    scratch.sort_unstable();
    scratch.dedup();
    scratch.retain(|&r| r != u.0 && g.is_alive(RealId(r)));
}

/// Degrees by sort-merge dedup over the stored lists: exact on any
/// single-layer condensed structure, duplicates included (C-DUP and the
/// BITMAP core). Allocates only one scratch buffer per worker thread —
/// the expanded adjacency never exists in memory. Dead vertices report 0.
pub(crate) fn degrees_merged(g: &CondensedGraph, threads: usize) -> Vec<u32> {
    debug_assert!(g.is_single_layer(), "merged degrees need single layer");
    let mut out = vec![0u32; g.num_real_slots()];
    map_chunks(&mut out, threads, |base, slot| {
        let mut scratch: Vec<u32> = Vec::new();
        for (j, s) in slot.iter_mut().enumerate() {
            let u = RealId((base + j) as u32);
            if g.is_alive(u) {
                merged_targets(g, u, &mut scratch);
                *s = scratch.len() as u32;
            }
        }
    });
    out
}

/// Parameters for the convergence-based (seedable) PageRank family.
#[derive(Debug, Clone, Copy)]
pub struct SeededPageRankConfig {
    /// Damping factor.
    pub damping: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Stop once the L∞ rank change of an iteration drops below this.
    /// Warm and cold starts then land within `tol·d/(1−d)` of each other.
    pub tol: f64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for SeededPageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            max_iterations: 200,
            tol: 1e-12,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// A PageRank run: per-slot ranks (dead slots 0) and iterations executed.
#[derive(Debug, Clone)]
pub struct PageRankRun {
    /// Rank per real slot; live ranks sum to 1, dead slots hold 0.
    pub ranks: Vec<f64>,
    /// Power iterations executed before convergence (or the cap).
    pub iterations: usize,
}

/// Initial rank vector: the seed where provided (resized, dead slots
/// zeroed, renormalized to sum 1), uniform otherwise. The fixpoint is
/// unique, so any normalized seed converges to the same answer — a good
/// seed just gets there in fewer iterations.
fn initial_ranks<G: GraphRep>(g: &G, seed: Option<&[f64]>) -> Vec<f64> {
    let slots = g.num_real_slots();
    let n_live = g.num_vertices();
    let uniform = 1.0 / n_live as f64;
    let mut ranks: Vec<f64> = (0..slots as u32)
        .map(|u| {
            if !g.is_alive(RealId(u)) {
                return 0.0;
            }
            match seed.and_then(|s| s.get(u as usize)) {
                Some(&r) if r > 0.0 => r,
                _ => uniform,
            }
        })
        .collect();
    let sum: f64 = ranks.iter().sum();
    if sum > 0.0 && (sum - 1.0).abs() > 1e-15 {
        for r in &mut ranks {
            *r /= sum;
        }
    }
    ranks
}

/// A per-iteration neighbor-sum strategy for the shared power-iteration
/// driver below.
trait PrKernel: Sync {
    /// Called once per iteration before the parallel sweep (e.g. to
    /// refresh per-virtual aggregates from the new contributions).
    fn begin_iteration(&mut self, contrib: &[f64]);
    /// `Σ contrib[v]` over the distinct live logical neighbors of `u`.
    /// A dead slot's `contrib` is 0 (its degree is 0), so a kernel may sum
    /// it without a liveness test. `scratch` is a per-worker reusable
    /// buffer.
    fn neighbor_sum(&self, u: RealId, contrib: &[f64], scratch: &mut Vec<u32>) -> f64;
}

fn power_iterate<G, K>(
    g: &G,
    degs: &[u32],
    kernel: &mut K,
    cfg: &SeededPageRankConfig,
    seed: Option<&[f64]>,
) -> PageRankRun
where
    G: GraphRep + Sync,
    K: PrKernel,
{
    let slots = g.num_real_slots();
    let n_live = g.num_vertices();
    if n_live == 0 {
        return PageRankRun {
            ranks: vec![0.0; slots],
            iterations: 0,
        };
    }
    let n = n_live as f64;
    let d = cfg.damping;
    let mut rank = initial_ranks(g, seed);
    let mut next = vec![0.0f64; slots];
    let mut contrib = vec![0.0f64; slots];
    let threads = cfg.threads.max(1);
    let mut iterations = 0usize;
    while iterations < cfg.max_iterations.max(1) {
        let mut dangling = 0.0f64;
        for u in 0..slots {
            let deg = degs[u];
            if deg > 0 {
                contrib[u] = rank[u] / deg as f64;
            } else {
                contrib[u] = 0.0;
                if g.is_alive(RealId(u as u32)) {
                    dangling += rank[u];
                }
            }
        }
        kernel.begin_iteration(&contrib);
        let k: &K = kernel;
        let base_term = (1.0 - d) / n + d * dangling / n;
        let (rank_ref, contrib_ref) = (&rank, &contrib);
        let deltas = map_chunks(&mut next, threads, |base, slot| {
            let mut scratch: Vec<u32> = Vec::new();
            let mut worst = 0.0f64;
            for (j, s) in slot.iter_mut().enumerate() {
                let u = RealId((base + j) as u32);
                if !g.is_alive(u) {
                    *s = 0.0;
                    continue;
                }
                let sum = k.neighbor_sum(u, contrib_ref, &mut scratch);
                let r = base_term + d * sum;
                worst = worst.max((r - rank_ref[base + j]).abs());
                *s = r;
            }
            worst
        });
        std::mem::swap(&mut rank, &mut next);
        iterations += 1;
        if deltas.iter().fold(0.0f64, |a, &b| a.max(b)) < cfg.tol {
            break;
        }
    }
    PageRankRun {
        ranks: rank,
        iterations,
    }
}

/// Generic traversal kernel: one `for_each_neighbor` pass per vertex.
struct TraversalKernel<'a, G: GraphRep + Sync> {
    g: &'a G,
}

impl<G: GraphRep + Sync> PrKernel for TraversalKernel<'_, G> {
    fn begin_iteration(&mut self, _contrib: &[f64]) {}
    fn neighbor_sum(&self, u: RealId, contrib: &[f64], _scratch: &mut Vec<u32>) -> f64 {
        let mut sum = 0.0;
        self.g
            .for_each_neighbor(u, &mut |v| sum += contrib[v.0 as usize]);
        sum
    }
}

/// Aggregated kernel: per-virtual contribution sums refreshed once per
/// iteration, then each vertex reads `S(V) − own share` per child.
struct AggregatedKernel<'a> {
    g: &'a CondensedGraph,
    virt_sum: Vec<f64>,
}

impl PrKernel for AggregatedKernel<'_> {
    fn begin_iteration(&mut self, contrib: &[f64]) {
        let g = self.g;
        for (v, s) in self.virt_sum.iter_mut().enumerate() {
            *s = g
                .virt_out(VirtId(v as u32))
                .iter()
                .filter_map(|a| a.as_real())
                .map(|r| contrib[r.0 as usize])
                .sum();
        }
    }

    fn neighbor_sum(&self, u: RealId, contrib: &[f64], _scratch: &mut Vec<u32>) -> f64 {
        let ([lo, hi], via) = split_list(self.g, u);
        let mut sum = lane_sum(lo, contrib) + lane_sum(hi, contrib);
        for v in via.iter().filter_map(|a| a.as_virtual()) {
            sum += self.virt_sum[v.0 as usize];
            if member(self.g, v, u) {
                sum -= contrib[u.0 as usize];
            }
        }
        sum
    }
}

/// Merged kernel: distinct targets gathered by sort-merge per vertex
/// (duplicate-path safe), contributions summed over the deduped list.
struct MergedKernel<'a> {
    g: &'a CondensedGraph,
}

impl PrKernel for MergedKernel<'_> {
    fn begin_iteration(&mut self, _contrib: &[f64]) {}
    fn neighbor_sum(&self, u: RealId, contrib: &[f64], scratch: &mut Vec<u32>) -> f64 {
        merged_targets(self.g, u, scratch);
        scratch.iter().map(|&r| contrib[r as usize]).sum()
    }
}

/// Convergence PageRank, optionally warm-started from a previous rank
/// vector: symmetric-graph pull formulation, dangling mass summed exactly
/// every iteration. The neighbor sum is the [`condensed_path`] kernel's, so
/// a single-layer condensed core is never traversed or expanded.
pub fn pagerank_seeded<G: GraphRep + Sync>(
    g: &G,
    cfg: &SeededPageRankConfig,
    seed: Option<&[f64]>,
) -> PageRankRun {
    let degs = degrees(g, cfg.threads);
    match Kernel::of(g) {
        Kernel::Aggregated(core) => {
            let mut kernel = AggregatedKernel {
                g: core,
                virt_sum: vec![0.0; core.num_virtual()],
            };
            power_iterate(core, &degs, &mut kernel, cfg, seed)
        }
        Kernel::Merged(core) => {
            power_iterate(core, &degs, &mut MergedKernel { g: core }, cfg, seed)
        }
        Kernel::Traversal => power_iterate(g, &degs, &mut TraversalKernel { g }, cfg, seed),
    }
}

/// A min-label program's starting label: the seed where one is given (never
/// above the vertex's own id), the vertex's own id otherwise and for dead
/// slots.
fn initial_label<G: GraphRep + ?Sized>(g: &G, u: RealId, seed: Option<&[u32]>) -> u32 {
    match seed.and_then(|s| s.get(u.0 as usize)) {
        Some(&l) if g.is_alive(u) => l.min(u.0),
        _ => u.0,
    }
}

/// Min-label connected components, optionally warm-started from a previous
/// label vector. Sound whenever no vertex or edge has been *removed* since
/// the seed was computed: every seed label names a vertex still in the same
/// component, so the propagated minimum is exactly the cold-start answer
/// (min-label can never recover from a component split, so callers must
/// fall back to a cold start after deletions). Returns the labels and the
/// supersteps executed; dead slots keep their own id.
///
/// A single-layer condensed core runs the structural sweep
/// ([`condensed_path`] aggregated or merged), everything else the
/// traversal program; both produce the same labels every superstep.
pub fn components_seeded<G: GraphRep + Sync>(
    g: &G,
    threads: usize,
    seed: Option<&[u32]>,
) -> (Vec<u32>, usize) {
    struct SeededMinLabel<'a> {
        seed: Option<&'a [u32]>,
    }
    impl<G: GraphRep + Sync> VertexProgram<G> for SeededMinLabel<'_> {
        type State = u32;
        fn init(&self, g: &G, u: RealId) -> u32 {
            initial_label(g, u, self.seed)
        }
        fn compute(&self, g: &G, u: RealId, prev: &[u32], _step: usize) -> (u32, bool) {
            let mut best = prev[u.0 as usize];
            g.for_each_neighbor(u, &mut |v| best = best.min(prev[v.0 as usize]));
            (best, best == prev[u.0 as usize])
        }
    }
    match Kernel::of(g) {
        Kernel::Aggregated(core) | Kernel::Merged(core) => {
            components_structural(core, threads, seed)
        }
        Kernel::Traversal => run_vertex_centric(
            g,
            &SeededMinLabel { seed },
            VertexCentricConfig {
                threads,
                max_supersteps: MAX_SUPERSTEPS,
            },
        ),
    }
}

/// The min-label supersteps on a single-layer core. A vertex's neighbors
/// are its live direct targets and the live real targets of its virtual
/// children, and a minimum ignores duplicates, so each superstep first
/// takes every virtual node's minimum over its live real targets, then
/// gives each live vertex the minimum of its own label, its live direct
/// targets and its virtual children: the traversal program's superstep,
/// in `O(stored edges)` and for C-DUP as well as DEDUP-1.
fn components_structural(
    g: &CondensedGraph,
    threads: usize,
    seed: Option<&[u32]>,
) -> (Vec<u32>, usize) {
    let n = g.num_real_slots();
    let mut cur: Vec<u32> = (0..n as u32)
        .map(|u| initial_label(g, RealId(u), seed))
        .collect();
    if n == 0 {
        return (cur, 0);
    }
    let mut next = cur.clone();
    let mut virt = vec![u32::MAX; g.num_virtual()];
    let all_alive = g.num_vertices() == n;
    for step in 0..MAX_SUPERSTEPS {
        let prev = &cur;
        for (v, min) in virt.iter_mut().enumerate() {
            *min = g
                .virt_out(VirtId(v as u32))
                .iter()
                .filter_map(|a| a.as_real())
                .filter(|r| g.is_alive(*r))
                .map(|r| prev[r.0 as usize])
                .min()
                .unwrap_or(u32::MAX);
        }
        let virt_min = &virt;
        for_each_slot_into(&mut next, threads, |u| {
            let own = prev[u as usize];
            if !g.is_alive(RealId(u)) {
                return own;
            }
            let list = g.real_out(RealId(u));
            let (direct, via) = list.split_at(list.partition_point(|a| !a.is_virtual()));
            let live = |a: &&Adj| all_alive || g.is_alive(RealId(a.raw()));
            let best = direct
                .iter()
                .filter(live)
                .map(|a| prev[a.raw() as usize])
                .fold(own, u32::min);
            via.iter()
                .filter_map(|a| a.as_virtual())
                .map(|v| virt_min[v.0 as usize])
                .fold(best, u32::min)
        });
        std::mem::swap(&mut cur, &mut next);
        if cur == next {
            return (cur, step + 1);
        }
    }
    (cur, MAX_SUPERSTEPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concomp::connected_components;
    use graphgen_graph::{CondensedBuilder, Dedup1Graph, ExpandedGraph};

    /// Overlapping cliques with a dead vertex and a revived one.
    fn dataset() -> CondensedGraph {
        let mut b = CondensedBuilder::new(8);
        b.clique(&[RealId(0), RealId(1), RealId(2), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        b.clique(&[RealId(0), RealId(3), RealId(5)]);
        b.clique(&[RealId(0), RealId(3)]); // duplicate pair
        let mut g = b.build();
        g.delete_vertex(RealId(4));
        g.delete_vertex(RealId(6));
        g.revive_vertex(RealId(6));
        g
    }

    #[test]
    fn merged_degrees_match_traversal() {
        let g = dataset();
        let exp = ExpandedGraph::from_rep(&g);
        assert_eq!(degrees_merged(&g, 2), degrees(&exp, 2));
        assert_eq!(degrees_merged(&g, 1), degrees(&exp, 1));
    }

    #[test]
    fn aggregated_degrees_match_on_dedup_free_structure() {
        // A builder graph with disjoint cliques stores one path per pair.
        let mut b = CondensedBuilder::new(6);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        b.clique(&[RealId(3), RealId(4)]);
        let mut g = b.build();
        g.delete_vertex(RealId(1));
        assert_eq!(
            degrees_dedup_free(&g, 2),
            degrees(&ExpandedGraph::from_rep(&g), 2)
        );
    }

    /// The structural sweep is the traversal program superstep by
    /// superstep: same labels and the same superstep count, cold and
    /// seeded, on C-DUP and on a duplicate-free DEDUP-1.
    #[test]
    fn structural_components_match_traversal_supersteps() {
        let g = dataset();
        let exp = ExpandedGraph::from_rep(&g);
        let mut b = CondensedBuilder::new(7);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        b.clique(&[RealId(2), RealId(3)]);
        b.clique(&[RealId(4), RealId(5)]);
        let d1 = Dedup1Graph::new_unchecked(b.build());
        let d1_exp = ExpandedGraph::from_rep(&d1);
        let seed = [0, 0, 1, 2, 3, 4, 6, 7];
        for threads in [1, 2] {
            for seed in [None, Some(&seed[..])] {
                assert_eq!(
                    components_seeded(&g, threads, seed),
                    components_seeded(&exp, threads, seed)
                );
                assert_eq!(
                    components_seeded(&d1, threads, seed),
                    components_seeded(&d1_exp, threads, seed)
                );
            }
        }
    }

    #[test]
    fn merged_pagerank_matches_expanded() {
        let g = dataset();
        let exp = ExpandedGraph::from_rep(&g);
        let cfg = SeededPageRankConfig {
            threads: 2,
            ..Default::default()
        };
        assert_eq!(condensed_path(&g), CondensedPath::Merged);
        let a = pagerank_seeded(&g, &cfg, None);
        let b = pagerank_seeded(&exp, &cfg, None);
        for (x, y) in a.ranks.iter().zip(&b.ranks) {
            assert!((x - y).abs() < 1e-11, "{x} vs {y}");
        }
    }

    #[test]
    fn aggregated_pagerank_matches_expanded() {
        let mut b = CondensedBuilder::new(7);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        b.clique(&[RealId(3), RealId(4), RealId(5)]);
        let g = Dedup1Graph::new_unchecked(b.build());
        let exp = ExpandedGraph::from_rep(&g);
        let cfg = SeededPageRankConfig {
            threads: 2,
            ..Default::default()
        };
        assert_eq!(condensed_path(&g), CondensedPath::Aggregated);
        let a = pagerank_seeded(&g, &cfg, None);
        let b = pagerank_seeded(&exp, &cfg, None);
        for (x, y) in a.ranks.iter().zip(&b.ranks) {
            assert!((x - y).abs() < 1e-11, "{x} vs {y}");
        }
    }

    #[test]
    fn warm_start_converges_to_cold_fixpoint_faster() {
        let g = dataset();
        let cfg = SeededPageRankConfig {
            threads: 2,
            ..Default::default()
        };
        let cold = pagerank_seeded(&g, &cfg, None);
        let warm = pagerank_seeded(&g, &cfg, Some(&cold.ranks));
        assert!(warm.iterations < cold.iterations);
        for (x, y) in warm.ranks.iter().zip(&cold.ranks) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn seeded_components_match_cold_after_additions() {
        let mut g = dataset();
        let (cold_before, _) = components_seeded(&g, 2, None);
        assert_eq!(
            cold_before,
            connected_components(&ExpandedGraph::from_rep(&g), 2)
        );
        // Additions only: merge the two components with a bridge.
        g.add_edge(RealId(5), RealId(6));
        g.add_edge(RealId(6), RealId(5));
        let (cold, _) = components_seeded(&g, 2, None);
        let (warm, _) = components_seeded(&g, 2, Some(&cold_before));
        assert_eq!(cold, warm);
    }

    #[test]
    fn dangling_mass_kept_exact_with_nonuniform_seed() {
        // Vertex 2 is isolated (dangling). A skewed seed must still land on
        // the same fixpoint as the uniform start.
        let g = ExpandedGraph::from_edges(3, [(0, 1), (1, 0)]);
        let cfg = SeededPageRankConfig::default();
        let cold = pagerank_seeded(&g, &cfg, None);
        let skew = [0.7, 0.1, 0.2];
        let warm = pagerank_seeded(&g, &cfg, Some(&skew));
        let sum: f64 = warm.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for (x, y) in warm.ranks.iter().zip(&cold.ranks) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
