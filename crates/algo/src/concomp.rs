//! Connected components via min-label propagation (Table 4's third kernel).
//!
//! Duplicate-insensitive, so it runs correctly on raw C-DUP — the property
//! §6.4 exploits for the Giraph speedup, and the reason one structural
//! sweep serves every single-layer condensed core (see [`crate::condensed`]).
//! Treats the graph as undirected (labels flow along out-edges both ways
//! via repeated supersteps on symmetric graphs; for truly directed graphs
//! this computes weakly connected components only if edges are symmetric).

use crate::condensed::components_seeded;
use graphgen_graph::GraphRep;

/// Component label per vertex (the minimum vertex id in the component).
/// Dead vertices keep their own id.
pub fn connected_components<G: GraphRep + Sync>(g: &G, threads: usize) -> Vec<u32> {
    components_seeded(g, threads, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{CondensedBuilder, ExpandedGraph, RealId};

    #[test]
    fn two_components() {
        let g = ExpandedGraph::from_edges(
            6,
            [
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (3, 4),
                (4, 3),
                (4, 5),
                (5, 4),
            ],
        );
        let labels = connected_components(&g, 2);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn runs_directly_on_cdup() {
        let mut b = CondensedBuilder::new(6);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        b.clique(&[RealId(1), RealId(2)]); // duplicates are harmless
        b.clique(&[RealId(3), RealId(4)]);
        let g = b.build();
        let labels = connected_components(&g, 1);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn isolated_vertices_label_themselves() {
        let g = ExpandedGraph::new(3);
        assert_eq!(connected_components(&g, 1), vec![0, 1, 2]);
    }
}
