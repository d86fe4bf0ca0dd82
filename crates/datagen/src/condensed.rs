//! The Appendix C.1 synthetic condensed-graph generator.
//!
//! Existing random-graph generators produce expanded graphs; the paper
//! needs graphs **born condensed**. Its generator, which we follow:
//!
//! 1. create all real nodes; draw each virtual node's size from a normal
//!    distribution `N(mean, sd)` (clamped to ≥ 1);
//! 2. split each virtual node into two with probability relative to size;
//! 3. assign 15% of the virtual nodes members uniformly at random (the
//!    bootstrap batch);
//! 4. fill the remaining virtual nodes by *preferential attachment*: with
//!    35% probability a split-derived node is filled randomly, otherwise
//!    members are drawn from the neighborhood of a high-degree anchor with
//!    probability ∝ degree², preserving local density;
//! 5. merge split halves back together.
//!
//! The output is a symmetric single-layer [`CondensedGraph`] (member-set
//! cliques), the shape co-occurrence extraction produces.

use graphgen_common::SplitMix64;
use graphgen_graph::{CondensedBuilder, CondensedGraph, RealId};

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct CondensedGenConfig {
    /// Number of real nodes (`n1`).
    pub n_real: usize,
    /// Number of virtual nodes (`n2`).
    pub n_virtual: usize,
    /// Mean virtual-node size (`m`).
    pub mean_size: f64,
    /// Standard deviation of sizes (`sd`).
    pub sd_size: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Draw from N(mean, sd) via Box–Muller.
fn normal(rng: &mut SplitMix64, mean: f64, sd: f64) -> f64 {
    let u1 = rng.next_f64().max(1e-12);
    let u2 = rng.next_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sd * z
}

/// Generate a symmetric single-layer condensed graph.
pub fn synthetic_condensed(cfg: CondensedGenConfig) -> CondensedGraph {
    assert!(cfg.n_real >= 2, "need at least two real nodes");
    let mut rng = SplitMix64::new(cfg.seed);
    // Step 1: sizes.
    let sizes: Vec<usize> = (0..cfg.n_virtual)
        .map(|_| {
            (normal(&mut rng, cfg.mean_size, cfg.sd_size).round() as isize)
                .clamp(1, cfg.n_real as isize) as usize
        })
        .collect();
    // Step 2: split large nodes (probability relative to size).
    let max_size = sizes.iter().copied().max().unwrap_or(1).max(1);
    // pieces: (final_vnode_index, piece_size, from_split)
    let mut pieces: Vec<(usize, usize, bool)> = Vec::with_capacity(cfg.n_virtual * 2);
    for (vn, &size) in sizes.iter().enumerate() {
        let split = size > 1 && rng.next_f64() < size as f64 / max_size as f64;
        if split {
            let first = size / 2;
            pieces.push((vn, first.max(1), true));
            pieces.push((vn, (size - first).max(1), true));
        } else {
            pieces.push((vn, size, false));
        }
    }
    let mut degree: Vec<u32> = vec![0; cfg.n_real];
    let mut members_of: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_virtual];
    // Step 3: bootstrap batch — 15% of pieces get uniform random members.
    let bootstrap = (pieces.len() * 15 / 100).max(1);
    let assign_random =
        |rng: &mut SplitMix64, size: usize, n_real: usize, degree: &mut [u32]| -> Vec<u32> {
            let mut members: Vec<u32> = Vec::with_capacity(size);
            while members.len() < size.min(n_real) {
                let r = rng.next_below(n_real as u64) as u32;
                if !members.contains(&r) {
                    members.push(r);
                    degree[r as usize] += 1;
                }
            }
            members
        };
    for &(vn, size, _) in pieces.iter().take(bootstrap) {
        let members = assign_random(&mut rng, size, cfg.n_real, &mut degree);
        members_of[vn].extend(members);
    }
    // Step 4: preferential attachment for the rest.
    for &(vn, size, from_split) in pieces.iter().skip(bootstrap) {
        if from_split && rng.next_f64() < 0.35 {
            let members = assign_random(&mut rng, size, cfg.n_real, &mut degree);
            members_of[vn].extend(members);
            continue;
        }
        // Anchor: degree-biased pick (fall back to uniform when degrees
        // are all zero).
        let total_deg: u64 = degree.iter().map(|&d| d as u64).sum();
        let anchor = if total_deg == 0 {
            rng.next_below(cfg.n_real as u64) as u32
        } else {
            let mut target = rng.next_below(total_deg);
            let mut pick = 0u32;
            for (i, &d) in degree.iter().enumerate() {
                if (d as u64) > target {
                    pick = i as u32;
                    break;
                }
                target -= d as u64;
            }
            pick
        };
        // Members: quadratic-degree-biased choices near the anchor id (a
        // locality proxy), topped up uniformly.
        let mut members: Vec<u32> = vec![anchor];
        degree[anchor as usize] += 1;
        let window = (size * 8).max(16).min(cfg.n_real);
        let base = (anchor as usize)
            .saturating_sub(window / 2)
            .min(cfg.n_real - window);
        let mut attempts = 0;
        while members.len() < size.min(cfg.n_real) && attempts < size * 40 {
            attempts += 1;
            let cand = (base + rng.next_below(window as u64) as usize) as u32;
            if members.contains(&cand) {
                continue;
            }
            let d = degree[cand as usize] as f64;
            let p = ((d + 1.0) * (d + 1.0)) / ((max_size as f64) * (max_size as f64));
            if rng.next_f64() < p.max(0.15) {
                members.push(cand);
                degree[cand as usize] += 1;
            }
        }
        while members.len() < size.min(cfg.n_real) {
            let r = rng.next_below(cfg.n_real as u64) as u32;
            if !members.contains(&r) {
                members.push(r);
                degree[r as usize] += 1;
            }
        }
        members_of[vn].extend(members);
    }
    // Step 5: merge (pieces of the same original vnode were accumulated
    // into the same member list) and build.
    let mut b = CondensedBuilder::new(cfg.n_real);
    for mut members in members_of {
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 {
            continue;
        }
        let ids: Vec<RealId> = members.into_iter().map(RealId).collect();
        b.clique(&ids);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::GraphRep;

    #[test]
    fn respects_size_parameters() {
        let g = synthetic_condensed(CondensedGenConfig {
            n_real: 500,
            n_virtual: 100,
            mean_size: 6.0,
            sd_size: 2.0,
            seed: 1,
        });
        assert_eq!(g.num_real_slots(), 500);
        let nv = g.num_virtual();
        assert!((50..=100).contains(&nv), "virtual nodes: {nv}");
        let avg = g.stored_edge_count() as f64 / 2.0 / nv as f64;
        assert!((3.0..12.0).contains(&avg), "avg membership: {avg}");
    }

    #[test]
    fn symmetric_single_layer() {
        let g = synthetic_condensed(CondensedGenConfig {
            n_real: 200,
            n_virtual: 50,
            mean_size: 5.0,
            sd_size: 2.0,
            seed: 3,
        });
        assert!(g.is_single_layer());
        assert!(graphgen_dedup::dedup2_greedy::member_sets(&g).is_ok());
    }

    #[test]
    fn deterministic() {
        let cfg = CondensedGenConfig {
            n_real: 300,
            n_virtual: 60,
            mean_size: 5.0,
            sd_size: 1.0,
            seed: 9,
        };
        let a = synthetic_condensed(cfg);
        let b = synthetic_condensed(cfg);
        assert_eq!(
            graphgen_graph::expand_to_edge_list(&a),
            graphgen_graph::expand_to_edge_list(&b)
        );
    }

    #[test]
    fn dense_config_builds_overlapping_cliques() {
        let g = synthetic_condensed(CondensedGenConfig {
            n_real: 400,
            n_virtual: 12,
            mean_size: 60.0,
            sd_size: 15.0,
            seed: 4,
        });
        // Dense overlap: expansion should dwarf the condensed size.
        assert!(g.expanded_edge_count() > 2 * g.stored_edge_count());
    }
}
