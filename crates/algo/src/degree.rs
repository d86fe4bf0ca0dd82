//! Degree computation (one of the three evaluation kernels, Fig. 11).
//!
//! On a single-layer condensed core the degree is read off the structure
//! (`condensed`'s aggregated or merged kernel); everywhere else each vertex
//! asks `GraphRep::degree`, an adjacency-length read on EXP and a
//! deduplicating neighbor walk on multi-layer condensed graphs — exactly
//! the cost difference the paper's Degree benchmark measures. The traversal
//! runs through the vertex-centric framework to exercise the multithreaded
//! path.

use crate::condensed::{degrees_dedup_free, degrees_merged, Kernel};
use crate::vertex_centric::{run_vertex_centric, VertexCentricConfig, VertexProgram};
use graphgen_graph::{GraphRep, RealId};

struct DegreeProgram;

impl<G: GraphRep + Sync> VertexProgram<G> for DegreeProgram {
    type State = u32;

    fn init(&self, _g: &G, _u: RealId) -> u32 {
        0
    }

    fn compute(&self, g: &G, u: RealId, _prev: &[u32], _step: usize) -> (u32, bool) {
        (g.degree(u) as u32, true)
    }
}

/// Out-degree of every vertex (dead vertices report 0), on the kernel
/// [`crate::condensed_path`] picks for `g`.
pub fn degrees<G: GraphRep + Sync>(g: &G, threads: usize) -> Vec<u32> {
    match Kernel::of(g) {
        Kernel::Aggregated(core) => degrees_dedup_free(core, threads),
        Kernel::Merged(core) => degrees_merged(core, threads),
        Kernel::Traversal => {
            let (states, steps) = run_vertex_centric(
                g,
                &DegreeProgram,
                VertexCentricConfig {
                    threads,
                    max_supersteps: 2,
                },
            );
            debug_assert_eq!(steps, 1);
            states
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{CondensedBuilder, ExpandedGraph};

    #[test]
    fn degrees_on_expanded() {
        let g = ExpandedGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 0), (2, 3)]);
        assert_eq!(degrees(&g, 2), vec![3, 1, 1, 0]);
    }

    #[test]
    fn degrees_on_condensed_dedup_on_the_fly() {
        // Duplicated pair must count once.
        let mut b = CondensedBuilder::new(3);
        b.clique(&[RealId(0), RealId(1)]);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        let g = b.build();
        assert_eq!(degrees(&g, 1), vec![2, 2, 2]);
    }

    #[test]
    fn dead_vertex_reports_zero() {
        let mut g = ExpandedGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        g.delete_vertex(RealId(1));
        let d = degrees(&g, 2);
        assert_eq!(d[0], 0); // its only neighbor died
        assert_eq!(d[1], 0); // dead
        assert_eq!(d[2], 1);
    }
}
