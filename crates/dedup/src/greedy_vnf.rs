//! Greedy Virtual-Nodes-First deduplication (§5.2.1, Fig. 9).
//!
//! Like the naive virtual-nodes-first algorithm, virtual nodes are added to
//! an (always deduplicated) partial graph one at a time. But instead of
//! evicting a random shared target from the smaller node, every candidate
//! removal is scored: removing target `r` from the incoming node `V` kills
//! `r`'s duplication against *all* conflicting nodes at once (benefit =
//! number of conflicts containing `r`), while removing `r` from one
//! conflicting `Vi` has benefit 1; the cost is the number of direct edges
//! needed to compensate sources that lose their only witness. The removal
//! with the best benefit/cost ratio wins — the vertex-cover-inspired
//! heuristic of the paper.
//!
//! # What a step keeps across removals
//!
//! Adding `V` makes removals until `V` conflicts with no active node. A
//! removal shrinks one `O(·)` list and adds direct edges; it never changes
//! `I(·)` or the active set. So the step computes three things once and
//! patches them, where a literal reading of Fig. 9 recomputes them after
//! every removal, and reads a fourth that the work graph keeps for the whole
//! run:
//!
//! 1. **The candidates** — active `R ≠ V` sharing a source with `V` — and
//!    each one's shared sources `I(V) ∩ I(R)`, kept as a count and the first
//!    one. Both are fixed for the whole step.
//! 2. **Each candidate's shared targets `O(V) ∩ O(R)`.** Removing `t` from
//!    `O(V)` drops `t` from every candidate's list; removing it from `O(R)`
//!    drops it from `R`'s alone. "Does `R` still conflict with `V`" is then
//!    an O(1) test on the kept lists.
//! 3. **Removal costs.** The cost of removing `r` from `X` reads `I(X)` and
//!    the witness counts of the pairs `(x, r)`. Removing `t`, with its
//!    compensating direct edges to `t`, changes witness counts for target
//!    `t` only, so a memoised cost stays exact until a removal of its target.
//! 4. **The target index** ([`WorkGraph::holders`]) and **the direct-edge
//!    index** ([`WorkGraph::direct_sources`]): for each real node `r`, the
//!    virtual nodes whose `O(·)` holds it and the sorted sources of its
//!    direct edges, each updated in the calls that change what it indexes.
//!    A cost (item 3) and a removal's compensation ask the same question —
//!    which sources of `X` reach `r` through `X` alone? — and the indexes
//!    answer it in one pass: stamp the sources of `r`'s other active holders
//!    into a reused mark array, and `r`'s direct sources too unless they
//!    outnumber `I(X)`, then walk `I(X)` once, testing the mark (and, for a
//!    hub target left unstamped, the source's direct edges). The
//!    compensation merges its new sources into `r`'s sorted list in one
//!    pass; no per-source list is searched or shifted.
//!
//! The choice is the one the recompute-everything formulation makes, tie
//! included: the first strictly larger ratio wins, visiting conflicts in
//! ascending order, each one's shared targets in ascending order, then `V`'s
//! targets in the order of the per-round gain map, which is rebuilt each
//! round with the same insertions. The tests compare the two byte for byte.
//!
//! Complexity: per step with `k` candidates of `V`, the setup is one
//! intersection per candidate; each removal rescans the `O(k·d)` kept
//! targets and recomputes only the costs of the removed target. A cost, like
//! a compensation, stamps the sources of the target's `m` holders and at
//! most `d` of its direct sources, then walks `I(X)` once with one mark test
//! per source (a hub target's direct sources are searched instead of
//! stamped): `O(m·d)` memory writes, where counting witnesses pair by pair
//! would take `d·m` binary searches of `O(·)` lists (`d` = list length, `m`
//! = virtual nodes per real node). A compensation adds `c` direct edges in
//! one merge into the target's sorted sources, where sorted per-source
//! lists took `c` searches and shifts.

use crate::work::{intersect_sorted, WorkGraph};
use graphgen_common::{FxHashMap, VertexOrdering};
use graphgen_graph::{CondensedGraph, Dedup1Graph};

/// A target with the memoised cost of removing it from its list's node.
type Target = (u32, Option<usize>);

/// The memoised cost of removing `target.0` from `node`, computed on a miss.
fn cost_of(w: &mut WorkGraph, node: u32, target: &mut Target) -> usize {
    *target
        .1
        .get_or_insert_with(|| w.removal_cost(node, target.0))
}

/// Drop `t` from a target list sorted by target.
fn drop_target(list: &mut Vec<Target>, t: u32) {
    if let Ok(i) = list.binary_search_by_key(&t, |e| e.0) {
        list.remove(i);
    }
}

/// Forget the memoised cost of `t` in a target list sorted by target.
fn forget_cost(list: &mut [Target], t: u32) {
    if let Ok(i) = list.binary_search_by_key(&t, |e| e.0) {
        list[i].1 = None;
    }
}

/// An active node `R` that shares a source with the incoming node `V`.
struct Candidate {
    node: u32,
    /// `|I(V) ∩ I(R)|`.
    shared_sources: usize,
    /// The smallest element of `I(V) ∩ I(R)`.
    first_shared_source: u32,
    /// `O(V) ∩ O(R)`, ascending, each with the cost of removing it from `R`.
    shared_targets: Vec<Target>,
}

impl Candidate {
    /// Do `V` and `R` duplicate a logical edge? Only the sole shared source
    /// paired with itself as the sole shared target is no duplication.
    fn conflicts(&self) -> bool {
        match self.shared_targets.as_slice() {
            [] => false,
            [(t, _)] => self.shared_sources > 1 || self.first_shared_source != *t,
            _ => true,
        }
    }
}

/// The candidates of `v`, in ascending node order.
fn candidates_of(w: &WorkGraph, v: u32) -> Vec<Candidate> {
    let mut shared: Vec<(u32, u32)> = Vec::new(); // (candidate, shared source)
    for &u in &w.iv[v as usize] {
        for &r in &w.rv[u as usize] {
            if r != v && w.active[r as usize] {
                shared.push((r, u));
            }
        }
    }
    shared.sort_unstable();
    shared
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let node = run[0].0;
            Candidate {
                node,
                shared_sources: run.len(),
                first_shared_source: run[0].1,
                shared_targets: intersect_sorted(w.targets(v), w.targets(node))
                    .into_iter()
                    .map(|t| (t, None))
                    .collect(),
            }
        })
        .collect()
}

/// The next removal, as (candidate index, or `None` for `V` itself; target),
/// or `None` once `V` conflicts with no candidate. `own` is `O(V)`.
fn best_removal(
    w: &mut WorkGraph,
    v: u32,
    candidates: &mut [Candidate],
    own: &mut [Target],
) -> Option<(Option<usize>, u32)> {
    let mut best: Option<(Option<usize>, u32, f64)> = None;
    let mut consider = |from: Option<usize>, target: u32, benefit: usize, cost: usize| {
        let ratio = benefit as f64 / (cost as f64 + 1.0);
        if best.is_none_or(|(_, _, r)| ratio > r) {
            best = Some((from, target, ratio));
        }
    };
    // Removing `r` from V helps every conflict that shares `r`.
    let mut v_target_gain: FxHashMap<u32, usize> = Default::default();
    for (i, c) in candidates.iter_mut().enumerate() {
        if !c.conflicts() {
            continue;
        }
        for target in &mut c.shared_targets {
            *v_target_gain.entry(target.0).or_insert(0) += 1;
            consider(Some(i), target.0, 1, cost_of(w, c.node, target));
        }
    }
    for (&r, &gain) in &v_target_gain {
        let i = own
            .binary_search_by_key(&r, |e| e.0)
            .expect("a shared target is a target of V");
        consider(None, r, gain, cost_of(w, v, &mut own[i]));
    }
    best.map(|(from, target, _)| (from, target))
}

/// Greedy Virtual-Nodes-First.
pub fn greedy_virtual_nodes_first(
    g: &CondensedGraph,
    ordering: VertexOrdering,
    seed: u64,
) -> Dedup1Graph {
    let mut w = WorkGraph::from_condensed(g, false);
    let order = ordering.order_by(w.num_virtual(), |v| w.targets(v).len() as u64, seed);
    for v in order {
        w.activate(v);
        w.absorb_direct_edges(v);
        let mut candidates = candidates_of(&w, v);
        // Shared sources are fixed and shared targets only shrink, so a
        // candidate that does not conflict now never will.
        candidates.retain(Candidate::conflicts);
        let mut own: Vec<Target> = w.targets(v).iter().map(|&t| (t, None)).collect();
        while let Some((from, t)) = best_removal(&mut w, v, &mut candidates, &mut own) {
            match from {
                None => {
                    w.remove_target_and_compensate(v, t);
                    drop_target(&mut own, t);
                    for c in &mut candidates {
                        drop_target(&mut c.shared_targets, t);
                    }
                }
                Some(i) => {
                    w.remove_target_and_compensate(candidates[i].node, t);
                    drop_target(&mut candidates[i].shared_targets, t);
                    forget_cost(&mut own, t);
                    for c in &mut candidates {
                        forget_cost(&mut c.shared_targets, t);
                    }
                }
            }
        }
        debug_assert!(
            candidates_of(&w, v).iter().all(|c| !c.conflicts()),
            "virtual node {v} still conflicts after its step"
        );
    }
    debug_assert!(w.is_deduplicated());
    Dedup1Graph::new_unchecked(w.into_condensed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::resolve_pair;
    use graphgen_common::SplitMix64;
    use graphgen_graph::{
        expand_to_edge_list, validate::validate_dedup1, CondensedBuilder, GraphRep, RealId,
    };

    /// Is there non-self duplication between v1 and v2 (given current state)?
    fn duplicated(w: &WorkGraph, v1: u32, v2: u32) -> bool {
        let ss = intersect_sorted(&w.iv[v1 as usize], &w.iv[v2 as usize]);
        if ss.is_empty() {
            return false;
        }
        let st = intersect_sorted(w.targets(v1), w.targets(v2));
        if st.is_empty() {
            return false;
        }
        !(ss.len() == 1 && st.len() == 1 && ss[0] == st[0])
    }

    /// Cost of removing target `r` from node `v`, from the per-pair
    /// definition: the sources of `v` whose only witness to `r` is `v`.
    fn removal_cost(w: &WorkGraph, v: u32, r: u32) -> usize {
        w.iv[v as usize]
            .iter()
            .filter(|&&x| x != r && w.witness_count(x, r) == 1)
            .count()
    }

    /// The reference: Fig. 9 read literally, recomputing the conflict set,
    /// every shared-target intersection and every removal cost after each
    /// removal, then resolving anything left pairwise.
    fn reference(g: &CondensedGraph, ordering: VertexOrdering, seed: u64) -> Dedup1Graph {
        let mut w = WorkGraph::from_condensed(g, false);
        let order = ordering.order_by(w.num_virtual(), |v| w.targets(v).len() as u64, seed);
        for v in order {
            w.activate(v);
            w.absorb_direct_edges(v);
            loop {
                // Conflicting active nodes.
                let mut conflicts: Vec<u32> = Vec::new();
                for &u in &w.iv[v as usize] {
                    for &r in &w.rv[u as usize] {
                        if r != v && w.active[r as usize] {
                            conflicts.push(r);
                        }
                    }
                }
                conflicts.sort_unstable();
                conflicts.dedup();
                conflicts.retain(|&c| duplicated(&w, v, c));
                if conflicts.is_empty() {
                    break;
                }
                // Candidate removals: (node, target, benefit, cost).
                let mut best: Option<(u32, u32, f64)> = None;
                let mut consider = |node: u32, target: u32, benefit: usize, w: &WorkGraph| {
                    let cost = removal_cost(w, node, target);
                    let ratio = benefit as f64 / (cost as f64 + 1.0);
                    if best.is_none_or(|(_, _, r)| ratio > r) {
                        best = Some((node, target, ratio));
                    }
                };
                let mut v_target_gain: FxHashMap<u32, usize> = Default::default();
                for &c in &conflicts {
                    let st = intersect_sorted(w.targets(v), w.targets(c));
                    for &r in &st {
                        *v_target_gain.entry(r).or_insert(0) += 1;
                        consider(c, r, 1, &w);
                    }
                }
                for (&r, &gain) in &v_target_gain {
                    consider(v, r, gain, &w);
                }
                let (node, target, _) = best.expect("conflicts imply candidates");
                w.remove_target_and_compensate(node, target);
            }
            let mut conflicts: Vec<u32> = Vec::new();
            for &u in &w.iv[v as usize] {
                for &r in &w.rv[u as usize] {
                    if r != v && w.active[r as usize] {
                        conflicts.push(r);
                    }
                }
            }
            conflicts.sort_unstable();
            conflicts.dedup();
            for c in conflicts {
                resolve_pair(&mut w, v, c);
            }
        }
        Dedup1Graph::new_unchecked(w.into_condensed())
    }

    /// Fig. 9's shape: V={u1,u2,u4,u5} conflicts with V1={u1,u2,u3},
    /// V2={u1,u4,u5,u6}, V3={u2,u5,u7}.
    fn fig9() -> CondensedGraph {
        let mut b = CondensedBuilder::new(7);
        let u: Vec<RealId> = (0..7).map(RealId).collect();
        b.clique(&[u[0], u[1], u[2]]); // V1
        b.clique(&[u[0], u[3], u[4], u[5]]); // V2
        b.clique(&[u[1], u[4], u[6]]); // V3
        b.clique(&[u[0], u[1], u[3], u[4]]); // V
        b.build()
    }

    #[test]
    fn fig9_semantics_preserved() {
        let g = fig9();
        let before = expand_to_edge_list(&g);
        let d = greedy_virtual_nodes_first(&g, VertexOrdering::Ascending, 0);
        assert_eq!(expand_to_edge_list(&d), before);
        assert!(validate_dedup1(&d).is_ok());
    }

    #[test]
    fn produces_fewer_stored_edges_than_expansion_on_dense_overlap() {
        // Two large overlapping cliques: condensed dedup should beat EXP.
        let mut b = CondensedBuilder::new(20);
        let ids: Vec<RealId> = (0..20).map(RealId).collect();
        b.clique(&ids[0..12]);
        b.clique(&ids[8..20]);
        let g = b.build();
        let d = greedy_virtual_nodes_first(&g, VertexOrdering::Descending, 1);
        assert!(validate_dedup1(&d).is_ok());
        assert_eq!(expand_to_edge_list(&d), expand_to_edge_list(&g));
        assert!(d.stored_edge_count() < d.expanded_edge_count());
    }

    #[test]
    fn all_orderings_preserve_semantics() {
        let g = fig9();
        let before = expand_to_edge_list(&g);
        for ord in VertexOrdering::all() {
            for seed in [0u64, 1, 2] {
                let d = greedy_virtual_nodes_first(&g, ord, seed);
                assert_eq!(expand_to_edge_list(&d), before, "{ord:?} seed {seed}");
                assert!(validate_dedup1(&d).is_ok());
            }
        }
    }

    #[test]
    fn identical_triplet_cliques() {
        let mut b = CondensedBuilder::new(4);
        let ids = [RealId(0), RealId(1), RealId(2), RealId(3)];
        b.clique(&ids);
        b.clique(&ids);
        b.clique(&ids);
        let g = b.build();
        let d = greedy_virtual_nodes_first(&g, VertexOrdering::Random, 3);
        assert_eq!(d.expanded_edge_count(), 12);
        assert!(validate_dedup1(&d).is_ok());
    }

    /// Graph seeds of the differential tests, reused as ordering seeds.
    const SEEDS: [u64; 3] = [1, 2, 3];

    /// `min..=max` draws from `0..n_real` (repeats collapse in the builder).
    fn members(rng: &mut SplitMix64, n_real: usize, min: usize, max: usize) -> Vec<RealId> {
        let count = min + rng.next_below((max - min + 1) as u64) as usize;
        (0..count)
            .map(|_| RealId(rng.next_below(n_real as u64) as u32))
            .collect()
    }

    /// `groups` cliques of 0..=2·`mean` draws over `n_real` real nodes.
    fn cliques(
        rng: &mut SplitMix64,
        b: &mut CondensedBuilder,
        n_real: usize,
        groups: usize,
        mean: usize,
    ) {
        for _ in 0..groups {
            b.clique(&members(rng, n_real, 0, 2 * mean));
        }
    }

    /// Run the greedy and the reference on `g` under every ordering and
    /// ordering seed and require the same real and virtual adjacency, a
    /// valid DEDUP-1 and the input's expansion.
    fn assert_matches_reference(g: &CondensedGraph, what: &str, seeds: &[u64]) {
        let before = expand_to_edge_list(g);
        for ord in VertexOrdering::all() {
            for &seed in seeds {
                let got = greedy_virtual_nodes_first(g, ord, seed);
                let want = reference(g, ord, seed);
                let (got_c, want_c) = (got.core(), want.core());
                assert!(
                    got_c.real_out_chunks() == want_c.real_out_chunks(),
                    "{what}: real adjacency differs ({ord:?}, seed {seed})"
                );
                assert!(
                    got_c.virt_out_chunks() == want_c.virt_out_chunks(),
                    "{what}: virtual adjacency differs ({ord:?}, seed {seed})"
                );
                validate_dedup1(&got).unwrap_or_else(|e| panic!("{what}: {e:?}"));
                assert_eq!(expand_to_edge_list(&got), before, "{what}: {ord:?}");
            }
        }
    }

    #[test]
    fn greedy_vnf_matches_reference_overlapping_cliques() {
        // analyze_dense's ratio of group size to entities (100 / 2,500), then
        // a dense mix where every entity sits in several groups.
        for (n_real, groups, mean) in [(250, 12, 10), (40, 20, 8)] {
            for seed in SEEDS {
                let mut rng = SplitMix64::new(seed);
                let mut b = CondensedBuilder::new(n_real);
                cliques(&mut rng, &mut b, n_real, groups, mean);
                let what = format!("cliques {n_real}/{groups} seed {seed}");
                assert_matches_reference(&b.build(), &what, &SEEDS);
            }
        }
    }

    #[test]
    fn greedy_vnf_matches_reference_asymmetric() {
        for (n_real, groups, max) in [(50, 18, 16), (60, 30, 20)] {
            for seed in SEEDS {
                let mut rng = SplitMix64::new(seed);
                let mut b = CondensedBuilder::new(n_real);
                for _ in 0..groups {
                    let v = b.add_virtual();
                    for u in members(&mut rng, n_real, 2, max) {
                        b.real_to_virtual(u, v);
                    }
                    for u in members(&mut rng, n_real, 2, max) {
                        b.virtual_to_real(v, u);
                    }
                }
                let what = format!("asymmetric {n_real}/{groups} seed {seed}");
                assert_matches_reference(&b.build(), &what, &SEEDS);
            }
        }
    }

    #[test]
    fn greedy_vnf_matches_reference_with_direct_edges() {
        let n_real = 40;
        for seed in SEEDS {
            let mut rng = SplitMix64::new(seed);
            let mut b = CondensedBuilder::new(n_real);
            cliques(&mut rng, &mut b, n_real, 20, 8);
            for _ in 0..300 {
                let u = rng.next_below(n_real as u64) as u32;
                let t = rng.next_below(n_real as u64) as u32;
                if u != t {
                    b.direct(RealId(u), RealId(t));
                }
            }
            assert_matches_reference(&b.build(), &format!("direct seed {seed}"), &SEEDS);
        }
    }

    #[test]
    fn greedy_vnf_matches_reference_triplicate_cliques() {
        let n_real = 40;
        for seed in SEEDS {
            let mut rng = SplitMix64::new(seed);
            let mut b = CondensedBuilder::new(n_real);
            for _ in 0..20 {
                let group = members(&mut rng, n_real, 0, 16);
                for _ in 0..3 {
                    b.clique(&group);
                }
            }
            assert_matches_reference(&b.build(), &format!("triplicates seed {seed}"), &SEEDS);
        }
    }

    #[test]
    fn greedy_vnf_matches_reference_tiny_virtual_nodes() {
        let n_real = 40;
        for seed in SEEDS {
            let mut rng = SplitMix64::new(seed);
            let mut b = CondensedBuilder::new(n_real);
            // Nodes of zero to two draws among overlapping ones.
            cliques(&mut rng, &mut b, n_real, 20, 1);
            cliques(&mut rng, &mut b, n_real, 20, 8);
            b.add_virtual();
            assert_matches_reference(&b.build(), &format!("tiny seed {seed}"), &SEEDS);
        }
    }

    /// `analyze_dense` at full size: 5,000 memberships of 2,500 entities in
    /// 50 groups (≈100 members each). The reference takes about a second
    /// per call in release, so the case is not in the default run.
    #[test]
    #[ignore = "full size; run in release with --include-ignored"]
    fn greedy_vnf_matches_reference_full_size() {
        let mut rng = SplitMix64::new(3);
        let mut groups = vec![Vec::new(); 50];
        for _ in 0..5_000 {
            let x = RealId(rng.next_below(2_500) as u32);
            groups[rng.next_below(50) as usize].push(x);
        }
        let mut b = CondensedBuilder::new(2_500);
        for group in &groups {
            b.clique(group);
        }
        assert_matches_reference(&b.build(), "full size", &[0]);
    }
}
