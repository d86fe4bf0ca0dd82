//! PageRank (Fig. 11's heaviest kernel).
//!
//! Pull-based formulation over the representation-independent API:
//! `pr'[u] = (1-d)/N + d * (Σ_{v ∈ nbr(u)} pr[v] / deg[v] + dangling/N)`,
//! which is exact for the symmetric graphs the paper evaluates (co-author,
//! co-actor, co-purchase), where out- and in-neighborhoods coincide.
//! Degrees are **precomputed** — the paper makes the same point for its
//! Giraph port: condensed representations cannot read a neighbor's degree
//! for free, so it must be computed once up front. The dangling mass is
//! summed every iteration and redistributed uniformly, so ranks always sum
//! to 1. [`pagerank`] is the fixed-iteration call of the same power
//! iteration [`crate::pagerank_seeded`] runs, on the same kernels.

use crate::condensed::{pagerank_seeded, SeededPageRankConfig};
use graphgen_graph::GraphRep;

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (0.85 in the literature).
    pub damping: f64,
    /// Number of power iterations.
    pub iterations: usize,
    /// Worker threads.
    pub threads: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            iterations: 20,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// Run exactly `cfg.iterations` power iterations (at least one) from the
/// uniform start; returns per-vertex ranks (dead vertices get 0).
pub fn pagerank<G: GraphRep + Sync>(g: &G, cfg: PageRankConfig) -> Vec<f64> {
    let fixed = SeededPageRankConfig {
        damping: cfg.damping,
        max_iterations: cfg.iterations,
        // An L∞ change is never below zero, so no iteration stops early.
        tol: 0.0,
        threads: cfg.threads,
    };
    pagerank_seeded(g, &fixed, None).ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{CondensedBuilder, ExpandedGraph, RealId};

    fn assert_sums_to_one(ranks: &[f64]) {
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "ranks sum to {sum}");
    }

    #[test]
    fn uniform_on_a_cycle() {
        let edges = (0..5u32).flat_map(|i| [(i, (i + 1) % 5), ((i + 1) % 5, i)]);
        let g = ExpandedGraph::from_edges(5, edges);
        let ranks = pagerank(&g, PageRankConfig::default());
        assert_sums_to_one(&ranks);
        for r in &ranks {
            assert!((r - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn star_center_dominates() {
        let mut edges = Vec::new();
        for leaf in 1..6u32 {
            edges.push((0, leaf));
            edges.push((leaf, 0));
        }
        let g = ExpandedGraph::from_edges(6, edges);
        let ranks = pagerank(&g, PageRankConfig::default());
        assert_sums_to_one(&ranks);
        for leaf in 1..6 {
            assert!(ranks[0] > ranks[leaf]);
        }
    }

    #[test]
    fn condensed_matches_expanded() {
        let mut b = CondensedBuilder::new(6);
        b.clique(&[RealId(0), RealId(1), RealId(2), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4), RealId(5)]);
        b.clique(&[RealId(0), RealId(3)]);
        let cdup = b.build();
        let exp = ExpandedGraph::from_rep(&cdup);
        let cfg = PageRankConfig {
            iterations: 30,
            ..Default::default()
        };
        let r1 = pagerank(&cdup, cfg);
        let r2 = pagerank(&exp, cfg);
        for (a, b) in r1.iter().zip(&r2) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_sums_to_one(&r1);
    }

    #[test]
    fn dangling_mass_conserved() {
        // vertex 2 is isolated (dangling).
        let g = ExpandedGraph::from_edges(3, [(0, 1), (1, 0)]);
        let ranks = pagerank(&g, PageRankConfig::default());
        assert_sums_to_one(&ranks);
        assert!(ranks[2] > 0.0);
    }
}
