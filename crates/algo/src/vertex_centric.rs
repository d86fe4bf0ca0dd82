//! The multithreaded vertex-centric framework (§3.4).
//!
//! Users implement [`VertexProgram::compute`], which produces a vertex's
//! next state from its current state and read-only access to all previous
//! states (the gather-apply-scatter style of GraphLab: no explicit message
//! buffers — "nodes communicate by directly accessing their neighbors'
//! data"). The coordinator splits the vertices into per-core chunks
//! (`graphgen_common::parallel::map_chunks`), runs one `compute` per live
//! vertex per superstep, and terminates when every vertex votes to halt.

use graphgen_common::parallel::map_chunks;
use graphgen_graph::{GraphRep, RealId};

/// A vertex-centric program over graph `G`.
pub trait VertexProgram<G: GraphRep + Sync>: Sync {
    /// Per-vertex state.
    type State: Clone + Send + Sync;

    /// Initial state of vertex `u`.
    fn init(&self, g: &G, u: RealId) -> Self::State;

    /// Compute the next state of `u`. `prev` holds every vertex's state
    /// from the previous superstep (index by `RealId.0`). Return the new
    /// state and `true` to vote to halt. A vertex that halted is still
    /// re-run next superstep if any vertex is active (matching the
    /// shared-memory GAS model, where there is no message-based wakeup).
    fn compute(
        &self,
        g: &G,
        u: RealId,
        prev: &[Self::State],
        superstep: usize,
    ) -> (Self::State, bool);
}

/// Coordinator configuration.
#[derive(Debug, Clone, Copy)]
pub struct VertexCentricConfig {
    /// Worker threads (the paper distributes chunks over all cores).
    pub threads: usize,
    /// Hard superstep cap (safety net for non-converging programs).
    pub max_supersteps: usize,
}

impl Default for VertexCentricConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_supersteps: 10_000,
        }
    }
}

/// Run `program` to convergence. Returns the final states (indexed by real
/// id; dead vertices keep their initial state) and the number of supersteps
/// executed.
pub fn run_vertex_centric<G, P>(
    g: &G,
    program: &P,
    cfg: VertexCentricConfig,
) -> (Vec<P::State>, usize)
where
    G: GraphRep + Sync,
    P: VertexProgram<G>,
{
    let n = g.num_real_slots();
    let mut cur: Vec<P::State> = (0..n).map(|i| program.init(g, RealId(i as u32))).collect();
    if n == 0 {
        return (cur, 0);
    }
    let mut next = cur.clone();
    for step in 0..cfg.max_supersteps {
        let prev = &cur;
        let halted = map_chunks(&mut next, cfg.threads, |base, slot| {
            let mut all_halted = true;
            for (j, s) in slot.iter_mut().enumerate() {
                let u = RealId((base + j) as u32);
                if !g.is_alive(u) {
                    continue;
                }
                let (state, halt) = program.compute(g, u, prev, step);
                *s = state;
                all_halted &= halt;
            }
            all_halted
        });
        std::mem::swap(&mut cur, &mut next);
        if halted.into_iter().all(|h| h) {
            return (cur, step + 1);
        }
    }
    (cur, cfg.max_supersteps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::ExpandedGraph;

    /// Max-value propagation: each vertex adopts the max id among itself
    /// and its neighbors; halts when unchanged.
    struct MaxProp;

    impl<G: GraphRep + Sync> VertexProgram<G> for MaxProp {
        type State = u32;

        fn init(&self, _g: &G, u: RealId) -> u32 {
            u.0
        }

        fn compute(&self, g: &G, u: RealId, prev: &[u32], _step: usize) -> (u32, bool) {
            let mut best = prev[u.0 as usize];
            g.for_each_neighbor(u, &mut |v| best = best.max(prev[v.0 as usize]));
            (best, best == prev[u.0 as usize])
        }
    }

    #[test]
    fn max_propagation_on_a_path() {
        // path 0-1-2-3-4 (undirected)
        let edges = (0..4u32).flat_map(|i| [(i, i + 1), (i + 1, i)]);
        let g = ExpandedGraph::from_edges(5, edges);
        let (states, steps) = run_vertex_centric(&g, &MaxProp, VertexCentricConfig::default());
        assert_eq!(states, vec![4, 4, 4, 4, 4]);
        // 4 hops to reach vertex 0, plus one all-halt superstep.
        assert!(steps >= 5);
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let edges: Vec<(u32, u32)> = (0..100u32)
            .flat_map(|i| [(i, (i * 7 + 1) % 100), ((i * 7 + 1) % 100, i)])
            .collect();
        let g = ExpandedGraph::from_edges(100, edges);
        let (s1, _) = run_vertex_centric(
            &g,
            &MaxProp,
            VertexCentricConfig {
                threads: 1,
                max_supersteps: 1000,
            },
        );
        let (s8, _) = run_vertex_centric(
            &g,
            &MaxProp,
            VertexCentricConfig {
                threads: 8,
                max_supersteps: 1000,
            },
        );
        assert_eq!(s1, s8);
    }

    #[test]
    fn empty_graph_terminates() {
        let g = ExpandedGraph::new(0);
        let (states, steps) = run_vertex_centric(&g, &MaxProp, VertexCentricConfig::default());
        assert!(states.is_empty());
        assert_eq!(steps, 0);
    }

    #[test]
    fn superstep_cap_respected() {
        /// Never halts.
        struct Restless;
        impl<G: GraphRep + Sync> VertexProgram<G> for Restless {
            type State = u64;
            fn init(&self, _: &G, _: RealId) -> u64 {
                0
            }
            fn compute(&self, _: &G, u: RealId, prev: &[u64], _: usize) -> (u64, bool) {
                (prev[u.0 as usize] + 1, false)
            }
        }
        let g = ExpandedGraph::from_edges(2, [(0, 1)]);
        let (states, steps) = run_vertex_centric(
            &g,
            &Restless,
            VertexCentricConfig {
                threads: 2,
                max_supersteps: 7,
            },
        );
        assert_eq!(steps, 7);
        assert_eq!(states, vec![7, 7]);
    }
}
