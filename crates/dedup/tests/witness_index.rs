//! `WorkGraph`'s target index against the per-pair definitions.
//!
//! Random single-layer graphs — overlapping cliques, empty and tiny virtual
//! nodes, triplicate cliques, asymmetric nodes and direct edges — go through
//! random sequences of the edits the DEDUP-1 algorithms make. After every
//! edit:
//!
//! * the index equals the transpose of `O(·)`, and the direct-edge index
//!   the transpose of the per-source direct-edge sets;
//! * the index-answered removal cost of every target of every active node
//!   equals the number of its sources `x ≠ r` with `witness_count(x, r) == 1`;
//! * a removal adds a direct edge to exactly the sources that
//!   `exists_edge` says no longer reach the removed target, and nothing else.

use graphgen_common::SplitMix64;
use graphgen_dedup::WorkGraph;
use graphgen_graph::{CondensedBuilder, CondensedGraph, RealId};

/// `min..=max` draws from `0..n_real` (repeats collapse in the builder).
fn members(rng: &mut SplitMix64, n_real: usize, min: usize, max: usize) -> Vec<RealId> {
    let count = min + rng.next_below((max - min + 1) as u64) as usize;
    (0..count)
        .map(|_| RealId(rng.next_below(n_real as u64) as u32))
        .collect()
}

fn graph(seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let n_real = 25 + rng.next_below(20) as usize;
    let mut b = CondensedBuilder::new(n_real);
    // Overlapping cliques, some of them empty or of one member.
    for _ in 0..12 {
        b.clique(&members(&mut rng, n_real, 0, 12));
    }
    for _ in 0..3 {
        let group = members(&mut rng, n_real, 2, 8);
        for _ in 0..3 {
            b.clique(&group);
        }
    }
    for _ in 0..8 {
        let v = b.add_virtual();
        for u in members(&mut rng, n_real, 0, 10) {
            b.real_to_virtual(u, v);
        }
        for u in members(&mut rng, n_real, 0, 10) {
            b.virtual_to_real(v, u);
        }
    }
    b.add_virtual();
    for _ in 0..60 {
        let u = rng.next_below(n_real as u64) as u32;
        let t = rng.next_below(n_real as u64) as u32;
        if u != t {
            b.direct(RealId(u), RealId(t));
        }
    }
    b.build()
}

fn assert_index_is_transpose(w: &WorkGraph, what: &str) {
    for r in 0..w.num_real() as u32 {
        let want: Vec<u32> = (0..w.num_virtual() as u32)
            .filter(|&v| w.targets(v).binary_search(&r).is_ok())
            .collect();
        assert_eq!(w.holders(r), want.as_slice(), "{what}: holders of {r}");
    }
}

fn assert_direct_index_is_transpose(w: &WorkGraph, what: &str) {
    let mut want = vec![Vec::new(); w.num_real()];
    for u in 0..w.num_real() as u32 {
        for &t in w.direct_targets(u) {
            want[t as usize].push(u);
        }
    }
    for (r, sources) in want.iter().enumerate() {
        // Built in ascending source order, so a repeated target shows up
        // as a repeated source.
        assert_eq!(
            w.direct_sources(r as u32),
            sources.as_slice(),
            "{what}: direct sources of {r}"
        );
    }
}

/// Each source's direct targets, sorted: the per-source sets keep no order.
fn sorted_direct(w: &WorkGraph) -> Vec<Vec<u32>> {
    (0..w.num_real() as u32)
        .map(|u| {
            let mut targets = w.direct_targets(u).to_vec();
            targets.sort_unstable();
            targets
        })
        .collect()
}

fn assert_costs_match(w: &mut WorkGraph, what: &str) {
    for v in 0..w.num_virtual() as u32 {
        if !w.active[v as usize] {
            continue;
        }
        for r in w.targets(v).to_vec() {
            let want = w.iv[v as usize]
                .iter()
                .filter(|&&x| x != r && w.witness_count(x, r) == 1)
                .count();
            assert_eq!(w.removal_cost(v, r), want, "{what}: cost of {r} from {v}");
        }
    }
}

/// Remove `r` from `O(v)` and require exactly the compensation the per-pair
/// definition gives: the sources that reach `r` through no other active node
/// and no direct edge.
fn remove_and_check(w: &mut WorkGraph, v: u32, r: u32, what: &str) {
    let mut without_v = w.clone();
    without_v.active[v as usize] = false;
    let held = w.targets(v).binary_search(&r).is_ok();
    let mut want_direct = sorted_direct(w);
    if held {
        for &u in &w.iv[v as usize] {
            if u != r && !without_v.exists_edge(u, r) {
                let list = &mut want_direct[u as usize];
                let at = list.binary_search(&r).expect_err("no direct edge to r");
                list.insert(at, r);
            }
        }
    }
    let mut want_targets = w.targets(v).to_vec();
    want_targets.retain(|&t| t != r);
    let (iv, rv) = (w.iv.clone(), w.rv.clone());

    w.remove_target_and_compensate(v, r);
    assert_eq!(
        sorted_direct(w),
        want_direct,
        "{what}: compensation for {r} from {v}"
    );
    assert_eq!(w.targets(v), want_targets.as_slice(), "{what}: O({v})");
    assert!(w.iv == iv && w.rv == rv, "{what}: sources changed");
}

#[test]
fn target_index_answers_like_the_per_pair_definitions() {
    let mut removals = 0;
    for seed in 0..12u64 {
        let g = graph(seed);
        let mut w = WorkGraph::from_condensed(&g, seed % 2 == 1);
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let (n_real, n_virt) = (w.num_real() as u64, w.num_virtual() as u64);
        for step in 0..80 {
            let what = format!("seed {seed} step {step}");
            let v = rng.next_below(n_virt) as u32;
            match rng.next_below(11) {
                0..=1 => w.activate(v),
                2 => w.absorb_direct_edges(v),
                3 => {
                    if let Some(&u) = w.iv[v as usize].first() {
                        w.detach_source(v, u);
                    }
                }
                4 => {
                    let u = rng.next_below(n_real) as u32;
                    let t = rng.next_below(n_real) as u32;
                    w.add_direct(u, t);
                }
                5 => {
                    // Mostly an edge that exists; sometimes any pair, so
                    // the no-op path runs too.
                    let u = rng.next_below(n_real) as u32;
                    let targets = w.direct_targets(u);
                    let t = if targets.is_empty() || rng.next_below(4) == 0 {
                        rng.next_below(n_real) as u32
                    } else {
                        targets[rng.next_below(targets.len() as u64) as usize]
                    };
                    let had = w.direct_targets(u).contains(&t);
                    assert_eq!(w.remove_direct(u, t), had, "{what}: remove {u} → {t}");
                }
                _ => {
                    // Mostly a target `v` holds; sometimes any real node, so
                    // the no-op path runs too.
                    let targets = w.targets(v);
                    let r = if targets.is_empty() || rng.next_below(4) == 0 {
                        rng.next_below(n_real) as u32
                    } else {
                        targets[rng.next_below(targets.len() as u64) as usize]
                    };
                    remove_and_check(&mut w, v, r, &what);
                    removals += 1;
                }
            }
            assert_index_is_transpose(&w, &what);
            assert_direct_index_is_transpose(&w, &what);
            assert_costs_match(&mut w, &what);
        }
    }
    assert!(removals > 400, "only {removals} removals ran");
}
