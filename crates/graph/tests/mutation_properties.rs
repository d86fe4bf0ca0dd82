//! Seeded-random properties for the mutation operations of the Graph API:
//! the logical edge set must respond to add/delete operations exactly like
//! a reference set-of-pairs model, on every representation.
//!
//! Cases come from the std-only `SplitMix64` generator over fixed seed
//! ranges (the case counts of the proptest suite this replaces).

use graphgen_common::SplitMix64;
use graphgen_graph::{
    expand_to_edge_list, CondensedBuilder, CondensedGraph, ExpandedGraph, GraphRep, RealId,
};
use std::collections::BTreeSet;

const CASES: u64 = 64;

#[derive(Debug, Clone)]
enum Op {
    AddEdge(u32, u32),
    DeleteEdge(u32, u32),
    DeleteVertex(u32),
    Compact,
}

/// Run `check` on `CASES` generators seeded from `base`.
fn for_each_case(base: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for seed in 0..CASES {
        check(seed, &mut SplitMix64::new(base + seed));
    }
}

/// A uniform draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + rng.next_below(u64::from(hi - lo)) as u32
}

/// Up to 23 operations over vertices `0..n`, each kind equally likely.
fn ops(rng: &mut SplitMix64, n: u32) -> Vec<Op> {
    (0..range(rng, 0, 24))
        .map(|_| match rng.next_below(4) {
            0 => Op::AddEdge(range(rng, 0, n), range(rng, 0, n)),
            1 => Op::DeleteEdge(range(rng, 0, n), range(rng, 0, n)),
            2 => Op::DeleteVertex(range(rng, 0, n)),
            _ => Op::Compact,
        })
        .collect()
}

/// Up to 7 member sets of 2 to 5 draws from `0..n`.
fn sets(rng: &mut SplitMix64, n: u32) -> Vec<Vec<u32>> {
    (0..range(rng, 0, 8))
        .map(|_| (0..range(rng, 2, 6)).map(|_| range(rng, 0, n)).collect())
        .collect()
}

fn build_cdup(n: u32, cliques: &[Vec<u32>]) -> CondensedGraph {
    let mut b = CondensedBuilder::new(n as usize);
    for c in cliques {
        let mut members: Vec<RealId> = c.iter().map(|&i| RealId(i)).collect();
        members.sort();
        members.dedup();
        if members.len() >= 2 {
            b.clique(&members);
        }
    }
    b.build()
}

/// Reference model: a set of directed pairs + a liveness set.
#[derive(Debug, Clone)]
struct Model {
    edges: BTreeSet<(u32, u32)>,
    dead: BTreeSet<u32>,
}

impl Model {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::AddEdge(a, b) => {
                if a != b && !self.dead.contains(&a) && !self.dead.contains(&b) {
                    self.edges.insert((a, b));
                }
            }
            Op::DeleteEdge(a, b) => {
                self.edges.remove(&(a, b));
            }
            Op::DeleteVertex(v) => {
                self.dead.insert(v);
            }
            Op::Compact => {}
        }
    }

    fn visible_edges(&self) -> Vec<(u32, u32)> {
        self.edges
            .iter()
            .copied()
            .filter(|(a, b)| !self.dead.contains(a) && !self.dead.contains(b))
            .collect()
    }
}

fn apply_graph<G: GraphRep>(g: &mut G, op: &Op) {
    match *op {
        Op::AddEdge(a, b) => {
            // Mirror the model's liveness rule: mutating dead vertices is
            // left unspecified by the API, so skip.
            if g.is_alive(RealId(a)) && g.is_alive(RealId(b)) {
                g.add_edge(RealId(a), RealId(b));
            }
        }
        Op::DeleteEdge(a, b) => g.delete_edge(RealId(a), RealId(b)),
        Op::DeleteVertex(v) => g.delete_vertex(RealId(v)),
        Op::Compact => g.compact(),
    }
}

/// Apply `operations` to `g` and to the model side by side, comparing
/// after every step. A pair with a dead endpoint is hidden by both, so
/// only visible edges are compared.
fn check_against_model(seed: u64, mut g: impl GraphRep, operations: &[Op]) {
    let mut model = Model {
        edges: expand_to_edge_list(&g).into_iter().collect(),
        dead: BTreeSet::new(),
    };
    for (step, op) in operations.iter().enumerate() {
        apply_graph(&mut g, op);
        model.apply(op);
        assert_eq!(
            expand_to_edge_list(&g),
            model.visible_edges(),
            "seed {seed}, step {step}: {op:?}"
        );
    }
}

#[test]
fn cdup_mutations_match_reference_model() {
    for_each_case(0x6A_0000, |seed, rng| {
        let cliques = sets(rng, 10);
        let operations = ops(rng, 10);
        check_against_model(seed, build_cdup(10, &cliques), &operations);
    });
}

#[test]
fn exp_mutations_match_reference_model() {
    for_each_case(0x6A_1000, |seed, rng| {
        let cliques = sets(rng, 10);
        let operations = ops(rng, 10);
        let cdup = build_cdup(10, &cliques);
        check_against_model(seed, ExpandedGraph::from_rep(&cdup), &operations);
    });
}

#[test]
fn degree_equals_neighbor_count_everywhere() {
    for_each_case(0x6A_2000, |seed, rng| {
        let g = build_cdup(12, &sets(rng, 12));
        for u in g.vertices() {
            assert_eq!(g.degree(u), g.neighbors(u).len(), "seed {seed}, u={}", u.0);
        }
    });
}

#[test]
fn exists_edge_consistent_with_neighbors() {
    for_each_case(0x6A_3000, |seed, rng| {
        let g = build_cdup(12, &sets(rng, 12));
        for u in g.vertices() {
            let nbrs: BTreeSet<u32> = g.neighbors(u).iter().map(|r| r.0).collect();
            for v in 0..12u32 {
                assert_eq!(
                    g.exists_edge(u, RealId(v)),
                    nbrs.contains(&v),
                    "seed {seed}, u={} v={v}",
                    u.0
                );
            }
        }
    });
}
