//! Patch-aware membership: the deduplicated representations must keep
//! their structural invariants — and their logical edge sets — under
//! sequences of the 7-operation mutation API (edge add/delete, vertex
//! kill with edge purge, revive with edge re-add).
//!
//! A caller mutating a converted graph (`GraphHandle::graph_mut`) drives
//! `add_edge`/`delete_edge`/`delete_vertex`/`revive_vertex` directly; these
//! tests pin down, at the `graphgen-dedup` level, that DEDUP-1's "at most
//! one path per pair" and DEDUP-2's witness invariants survive such call
//! sequences.

use graphgen_common::{SplitMix64, VertexOrdering};
use graphgen_dedup::{try_dedup2_greedy, Dedup1Algorithm};
use graphgen_graph::{
    expand_to_edge_list, validate, CondensedBuilder, CondensedGraph, GraphRep, RealId,
};

/// A random symmetric single-layer co-occurrence graph.
fn random_cooccurrence(n_real: usize, groups: usize, mean: usize, seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let mut b = CondensedBuilder::new(n_real);
    for _ in 0..groups {
        let size = 2 + (rng.next_below(mean as u64 * 2) as usize);
        let members: Vec<RealId> = (0..size)
            .map(|_| RealId(rng.next_below(n_real as u64) as u32))
            .collect();
        b.clique(&members);
    }
    b.build()
}

/// A random stream of logical mutations, applied identically to a mutable
/// reference graph (C-DUP) and to the representation under test.
fn mutation_stream(seed: u64, n_real: u32, steps: usize) -> Vec<(u8, u32, u32)> {
    let mut rng = SplitMix64::new(seed);
    (0..steps)
        .map(|_| {
            (
                rng.next_below(4) as u8,
                rng.next_below(n_real as u64) as u32,
                rng.next_below(n_real as u64) as u32,
            )
        })
        .collect()
}

/// Replay one step the way the patch engine drives representations: edge
/// operations only between live vertices, kills purge both edge
/// directions first (so a later revival starts from a clean slot), and
/// revivals bring back an isolated vertex whose edges the engine re-adds
/// explicitly.
fn apply_step<G: GraphRep>(g: &mut G, step: (u8, u32, u32)) {
    let (op, a, b) = step;
    let (u, v) = (RealId(a), RealId(b));
    match op {
        0 if g.is_alive(u) && g.is_alive(v) => g.add_edge(u, v),
        1 if g.is_alive(u) && g.is_alive(v) => g.delete_edge(u, v),
        2 if g.is_alive(u) => {
            for t in g.neighbors(u) {
                g.delete_edge(u, t);
            }
            let ins: Vec<RealId> = g
                .vertices()
                .filter(|&s| s != u && g.exists_edge(s, u))
                .collect();
            for s in ins {
                g.delete_edge(s, u);
            }
            g.delete_vertex(u);
        }
        3 => g.revive_vertex(u),
        _ => {}
    }
}

#[test]
fn dedup1_invariant_survives_patch_sequences() {
    for seed in [1u64, 7, 23] {
        let core = random_cooccurrence(40, 25, 4, seed);
        let mut reference = core.clone();
        let mut d1 = Dedup1Algorithm::GreedyVnf.run(&core, VertexOrdering::Descending, 0);
        assert_eq!(expand_to_edge_list(&d1), expand_to_edge_list(&reference));
        for step in mutation_stream(seed * 31, 40, 60) {
            // Symmetrize edge ops so DEDUP-2-style comparisons stay fair;
            // DEDUP-1 itself is directed and needs no such care.
            apply_step(&mut reference, step);
            apply_step(&mut d1, step);
            assert_eq!(
                expand_to_edge_list(&d1),
                expand_to_edge_list(&reference),
                "seed {seed}, step {step:?}"
            );
            validate::validate_dedup1(&d1).expect("DEDUP-1 invariant broken");
        }
    }
}

#[test]
fn dedup2_membership_survives_patch_sequences() {
    for seed in [3u64, 11] {
        let core = random_cooccurrence(30, 18, 4, seed);
        let mut reference = core.clone();
        let mut d2 =
            try_dedup2_greedy(&core, VertexOrdering::Descending, 0).expect("symmetric source");
        assert_eq!(expand_to_edge_list(&d2), expand_to_edge_list(&reference));
        let mut rng = SplitMix64::new(seed * 77);
        for i in 0..50 {
            let u = RealId(rng.next_below(30) as u32);
            let v = RealId(rng.next_below(30) as u32);
            match i % 5 {
                // DEDUP-2 is undirected: apply edge ops in both directions
                // to the directed reference, exactly like the symmetric
                // logical diffs the patch engine produces. Edge ops only
                // run between live vertices (the engine's alive-gating).
                0 | 3 if d2.is_alive(u) && d2.is_alive(v) => {
                    reference.add_edge(u, v);
                    reference.add_edge(v, u);
                    d2.add_edge(u, v);
                }
                1 if d2.is_alive(u) && d2.is_alive(v) => {
                    reference.delete_edge(u, v);
                    reference.delete_edge(v, u);
                    d2.delete_edge(u, v);
                }
                2 if d2.is_alive(u) => {
                    let outs = d2.neighbors(u);
                    for t in outs {
                        reference.delete_edge(u, t);
                        reference.delete_edge(t, u);
                        d2.delete_edge(u, t);
                    }
                    reference.delete_vertex(u);
                    d2.delete_vertex(u);
                }
                4 => {
                    reference.revive_vertex(u);
                    d2.revive_vertex(u);
                }
                _ => {}
            }
            assert_eq!(
                expand_to_edge_list(&d2),
                expand_to_edge_list(&reference),
                "seed {seed}, step {i}"
            );
            validate::validate_dedup2(&d2).expect("DEDUP-2 witness invariant broken");
        }
    }
}

#[test]
fn kill_purge_then_revive_is_clean_slate() {
    // The precise revival contract the patch engine relies on: after a
    // purge+kill, a revived slot has no edges until they are re-added.
    let core = random_cooccurrence(20, 10, 3, 5);
    let mut d1 = Dedup1Algorithm::GreedyVnf.run(&core, VertexOrdering::Descending, 0);
    let u = RealId(4);
    let old_neighbors = d1.neighbors(u);
    let ins: Vec<RealId> = d1
        .vertices()
        .filter(|&s| s != u && d1.exists_edge(s, u))
        .collect();
    for t in d1.neighbors(u) {
        d1.delete_edge(u, t);
    }
    for s in &ins {
        d1.delete_edge(*s, u);
    }
    d1.delete_vertex(u);
    assert!(!d1.is_alive(u));
    d1.revive_vertex(u);
    assert!(d1.is_alive(u));
    assert!(d1.neighbors(u).is_empty(), "revived slot must start clean");
    for t in &old_neighbors {
        d1.add_edge(u, *t);
    }
    for s in &ins {
        d1.add_edge(*s, u);
    }
    let mut got = d1.neighbors(u);
    got.sort();
    let mut want = old_neighbors.clone();
    want.sort();
    assert_eq!(got, want);
    validate::validate_dedup1(&d1).expect("invariant after revive");
}
