//! Differential tests for the neighbor passes that deduplicate only where
//! two paths can meet.
//!
//! * C-DUP's iterator emits the (duplicate-free) real prefix of a list
//!   directly and hashes only when a virtual entry follows. Its
//!   `for_each_neighbor`, `degree` and `expanded_edge_count` are checked
//!   against an independent `BTreeSet` reachability over the stored lists,
//!   on random single- and multi-layer graphs with direct edges and
//!   deleted vertices, after every kind of in-place patch.
//! * `ExpandedGraph::from_rep` (one buffer per vertex, a counting
//!   transpose for the in-lists) must equal `from_edges` over the
//!   representation's expanded edge list, field for field, for every
//!   representation.
//!
//! Cases come from `SplitMix64` over fixed seed ranges; a failure names
//! the seed. The `#[ignore]`d cases run both checks at the shape of the
//! benchmark's sparse extraction (25,000 authors, 33,000 publications,
//! 2.5 authors per publication) and want a release build:
//! `cargo test --release -p graphgen-graph --test neighbor_differential
//! -- --include-ignored`.

use graphgen_common::SplitMix64;
use graphgen_graph::validate::{validate_dedup1, validate_dedup2, validate_no_duplicate_emission};
use graphgen_graph::{
    expand_to_edge_list, Adj, BitmapGraph, CondensedBuilder, CondensedGraph, Dedup1Graph,
    Dedup2Graph, ExpandedGraph, GraphRep, RealId, RepKind, VirtId,
};
use std::collections::BTreeSet;

const CASES: u64 = 64;

/// A uniform draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + rng.next_below(u64::from(hi - lo)) as u32
}

/// A random condensed graph over `n` reals with `layers` layers of virtual
/// nodes. Reals point at virtual nodes of any layer, virtual nodes at
/// nodes of later layers and at reals, and direct edges (self-loops
/// included) sit beside them — so many pairs are joined by several paths,
/// and by a direct edge and a path at once.
fn random_condensed(rng: &mut SplitMix64, n: u32, layers: u32) -> CondensedGraph {
    let mut b = CondensedBuilder::new(n as usize);
    let layer_of: Vec<Vec<VirtId>> = (0..layers)
        .map(|_| (0..range(rng, 1, 6)).map(|_| b.add_virtual()).collect())
        .collect();
    let pick = |rng: &mut SplitMix64, from: usize| -> VirtId {
        let layer = &layer_of[from + rng.next_below((layer_of.len() - from) as u64) as usize];
        layer[rng.next_below(layer.len() as u64) as usize]
    };
    for u in 0..n {
        for _ in 0..range(rng, 0, 3) {
            let v = pick(rng, 0);
            b.real_to_virtual(RealId(u), v);
        }
    }
    for (l, layer) in layer_of.iter().enumerate() {
        for &v in layer {
            if l + 1 < layer_of.len() {
                for _ in 0..range(rng, 0, 3) {
                    let w = pick(rng, l + 1);
                    b.virtual_to_virtual(v, w);
                }
            }
            for _ in 0..range(rng, 0, 5) {
                b.virtual_to_real(v, RealId(range(rng, 0, n)));
            }
        }
    }
    for _ in 0..range(rng, 0, 2 * n) {
        b.direct(RealId(range(rng, 0, n)), RealId(range(rng, 0, n)));
    }
    b.build()
}

/// A condensed graph with at most one path per ordered pair: disjoint
/// groups, each a clique through its own virtual node, plus direct edges
/// between members of different groups (or ungrouped reals).
fn duplication_free(rng: &mut SplitMix64, n: u32) -> CondensedGraph {
    let mut group = vec![u32::MAX; n as usize];
    let mut b = CondensedBuilder::new(n as usize);
    let mut next = 0u32;
    let mut g = 0u32;
    while next < n {
        let size = range(rng, 1, 5).min(n - next);
        if rng.next_below(3) > 0 {
            let members: Vec<RealId> = (next..next + size).map(RealId).collect();
            b.clique(&members);
            for m in next..next + size {
                group[m as usize] = g;
            }
            g += 1;
        }
        next += size;
    }
    let mut direct = BTreeSet::new();
    for _ in 0..range(rng, 0, n) {
        let (u, v) = (range(rng, 0, n), range(rng, 0, n));
        let same = group[u as usize] != u32::MAX && group[u as usize] == group[v as usize];
        if u != v && !same && direct.insert((u, v)) {
            b.direct(RealId(u), RealId(v));
        }
    }
    b.build()
}

/// Lazily delete about a fifth of the slots.
fn delete_some<G: GraphRep>(rng: &mut SplitMix64, g: &mut G) {
    for u in 0..g.num_real_slots() as u32 {
        if rng.next_below(5) == 0 {
            g.delete_vertex(RealId(u));
        }
    }
}

/// The expanded out-neighborhood of `u`, by a search over the stored lists
/// that shares no code with the iterator under test.
fn reference_neighbors(g: &CondensedGraph, u: RealId) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let mut visited = BTreeSet::new();
    let mut stack: Vec<Adj> = g.real_out(u).to_vec();
    while let Some(a) = stack.pop() {
        if let Some(r) = a.as_real() {
            if r != u && g.is_alive(r) {
                out.insert(r.0);
            }
        } else if let Some(v) = a.as_virtual() {
            if visited.insert(v.0) {
                stack.extend_from_slice(g.virt_out(v));
            }
        }
    }
    out
}

/// `for_each_neighbor`, `degree` and `expanded_edge_count` agree with the
/// reference, and nothing is emitted twice.
fn check_cdup(g: &CondensedGraph, ctx: &str) {
    let mut total = 0u64;
    for u in g.vertices() {
        let mut got = Vec::new();
        g.for_each_neighbor(u, &mut |v| got.push(v.0));
        let set: BTreeSet<u32> = got.iter().copied().collect();
        assert_eq!(set.len(), got.len(), "{ctx}: r{} emitted a duplicate", u.0);
        let want = reference_neighbors(g, u);
        assert_eq!(set, want, "{ctx}: neighbors of r{}", u.0);
        assert_eq!(g.degree(u), want.len(), "{ctx}: degree of r{}", u.0);
        total += want.len() as u64;
    }
    assert_eq!(g.expanded_edge_count(), total, "{ctx}: expanded edge count");
    validate_no_duplicate_emission(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// Virtual nodes `expand_virtual` accepts: no virtual parent, only real
/// targets, and not already emptied.
fn expandable(g: &CondensedGraph) -> Vec<VirtId> {
    let mut has_parent = vec![false; g.num_virtual()];
    for v in 0..g.num_virtual() as u32 {
        for w in g.virt_out(VirtId(v)).iter().filter_map(|a| a.as_virtual()) {
            has_parent[w.0 as usize] = true;
        }
    }
    (0..g.num_virtual() as u32)
        .map(VirtId)
        .filter(|v| {
            let out = g.virt_out(*v);
            !has_parent[v.0 as usize] && !out.is_empty() && out.iter().all(|a| !a.is_virtual())
        })
        .collect()
}

/// Check a random graph, then patch it every way the incremental engine
/// and Step-6 preprocessing do, checking after each step.
fn check_patched(seed: u64, rng: &mut SplitMix64, layers: u32) {
    let n = range(rng, 1, 24);
    let mut g = random_condensed(rng, n, layers);
    check_cdup(&g, &format!("seed {seed}: built"));
    delete_some(rng, &mut g);
    check_cdup(&g, &format!("seed {seed}: deleted"));
    for step in 0..8 {
        let (u, v) = (RealId(range(rng, 0, n)), RealId(range(rng, 0, n)));
        g.insert_direct(u, v);
        check_cdup(&g, &format!("seed {seed}: insert_direct #{step}"));
    }
    for step in 0..4 {
        let u = RealId(range(rng, 0, n));
        let direct: Vec<RealId> = g.real_out(u).iter().filter_map(|a| a.as_real()).collect();
        if let Some(&v) = direct.get(rng.next_below(direct.len().max(1) as u64) as usize) {
            g.remove_direct(u, v);
            check_cdup(&g, &format!("seed {seed}: remove_direct #{step}"));
        }
    }
    for step in 0..3 {
        let candidates = expandable(&g);
        if candidates.is_empty() {
            break;
        }
        let v = candidates[rng.next_below(candidates.len() as u64) as usize];
        let before = expand_to_edge_list(&g);
        let in_index = g.real_in_index();
        g.expand_virtual(v, &in_index[v.0 as usize]);
        check_cdup(&g, &format!("seed {seed}: expand_virtual #{step}"));
        assert_eq!(expand_to_edge_list(&g), before, "seed {seed}: expansion");
    }
    g.revive_vertex(RealId(range(rng, 0, n)));
    check_cdup(&g, &format!("seed {seed}: revived"));
}

#[test]
fn cdup_neighbors_match_reachability_single_layer() {
    for seed in 0..CASES {
        check_patched(seed, &mut SplitMix64::new(0xC0D0 + seed), 1);
    }
}

#[test]
fn cdup_neighbors_match_reachability_multi_layer() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xC1D0 + seed);
        let layers = range(&mut rng, 2, 5);
        check_patched(seed, &mut rng, layers);
    }
}

#[test]
fn cdup_without_virtual_nodes_matches_reachability() {
    // The shape a sparse extraction hands back: direct edges only.
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xC2D0 + seed);
        let n = range(&mut rng, 1, 40);
        let mut b = CondensedBuilder::new(n as usize);
        for _ in 0..range(&mut rng, 0, 3 * n) {
            b.direct(RealId(range(&mut rng, 0, n)), RealId(range(&mut rng, 0, n)));
        }
        let mut g = b.build();
        check_cdup(&g, &format!("seed {seed}: direct only"));
        delete_some(&mut rng, &mut g);
        check_cdup(&g, &format!("seed {seed}: direct only, deleted"));
    }
}

/// `from_rep(g)` equals `from_edges` over `g`'s expanded edge list with
/// the same slots deleted: alive bits, out-lists, in-lists and capacities.
/// The in-lists are also checked against the transpose of the edge list.
fn check_from_rep<G: GraphRep + ?Sized>(g: &G, ctx: &str) {
    let edges = expand_to_edge_list(g);
    let via_rep = ExpandedGraph::from_rep(g);
    let n = g.num_real_slots();
    let mut via_edges = ExpandedGraph::from_edges(n, edges.iter().copied());
    for u in (0..n as u32).map(RealId).filter(|&u| !g.is_alive(u)) {
        via_edges.delete_vertex(u);
    }
    // `assert!`, not `assert_eq!`: a failure at full size would print both
    // graphs.
    assert!(via_rep == via_edges, "{ctx}: fields differ");
    assert_eq!(
        via_rep.heap_bytes(),
        via_edges.heap_bytes(),
        "{ctx}: capacity"
    );
    assert_eq!(
        via_rep.num_vertices(),
        g.num_vertices(),
        "{ctx}: live count"
    );
    let mut transpose = vec![Vec::new(); n];
    for &(u, v) in &edges {
        transpose[v as usize].push(u);
    }
    for (v, want) in transpose.iter().enumerate() {
        let got: Vec<u32> = via_rep
            .in_neighbors(RealId(v as u32))
            .map(|u| u.0)
            .collect();
        assert_eq!(&got, want, "{ctx}: in-list of r{v}");
    }
}

#[test]
fn from_rep_equals_from_edges_for_every_representation() {
    let mut covered = BTreeSet::new();
    let mut check = |g: &dyn GraphRep, ctx: String| {
        covered.insert(g.kind().label());
        check_from_rep(g, &ctx);
    };
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xE0E0 + seed);
        let n = range(&mut rng, 1, 30);

        let layers = range(&mut rng, 1, 4);
        let mut cdup = random_condensed(&mut rng, n, layers);
        delete_some(&mut rng, &mut cdup);
        check(&cdup, format!("seed {seed}: C-DUP"));

        let edges: Vec<(u32, u32)> = (0..range(&mut rng, 0, 4 * n))
            .map(|_| (range(&mut rng, 0, n), range(&mut rng, 0, n)))
            .collect();
        let mut exp = ExpandedGraph::from_edges(n as usize, edges);
        delete_some(&mut rng, &mut exp);
        check(&exp, format!("seed {seed}: EXP"));

        let mut dedup1 = Dedup1Graph::new_unchecked(duplication_free(&mut rng, n));
        validate_dedup1(&dedup1).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        delete_some(&mut rng, &mut dedup1);
        check(&dedup1, format!("seed {seed}: DEDUP-1"));

        let mut dedup2 = Dedup2Graph::new(n as usize);
        let mut next = 0;
        let mut prev_group = None;
        while next < n {
            let size = range(&mut rng, 1, 5).min(n - next);
            let v = dedup2.add_virtual((next..next + size).collect());
            // Join every other pair of consecutive groups: each virtual
            // node has at most one virtual neighbor, disjoint from it.
            match prev_group.take() {
                Some(w) if rng.next_below(2) == 0 => dedup2.add_virtual_edge(w, v),
                _ => prev_group = Some(v),
            }
            next += size;
        }
        validate_dedup2(&dedup2).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        delete_some(&mut rng, &mut dedup2);
        check(&dedup2, format!("seed {seed}: DEDUP-2"));

        // Unmasked over a duplication-free core, with random bits cleared:
        // a mask only drops paths, so emission stays duplicate-free.
        let mut bitmap = BitmapGraph::new_unmasked(duplication_free(&mut rng, n));
        for v in 0..bitmap.num_virtual() as u32 {
            let len = bitmap.core().virt_out(VirtId(v)).len();
            for _ in 0..range(&mut rng, 0, 3) {
                let (u, bit) = (range(&mut rng, 0, n), rng.next_below(len as u64) as usize);
                bitmap.bitmap_entry(VirtId(v), RealId(u)).unset(bit);
            }
        }
        validate_no_duplicate_emission(&bitmap).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        delete_some(&mut rng, &mut bitmap);
        check(&bitmap, format!("seed {seed}: BITMAP"));
    }
    let all: BTreeSet<&str> = RepKind::all().iter().map(|k| k.label()).collect();
    assert_eq!(covered, all);
}

/// The benchmark's sparse-extraction shape: 25,000 authors, 33,000
/// publications of 1 to 4 authors (2.5 on average), as one clique virtual
/// node per publication (`with_virtuals`) or as the direct co-author
/// edges a sparse extraction hands back.
fn extract_sparse_shape(with_virtuals: bool) -> CondensedGraph {
    const AUTHORS: u32 = 25_000;
    let mut rng = SplitMix64::new(0x5A5E);
    let mut b = CondensedBuilder::new(AUTHORS as usize);
    for _ in 0..33_000 {
        let mut members: Vec<RealId> = (0..range(&mut rng, 1, 5))
            .map(|_| RealId(range(&mut rng, 0, AUTHORS)))
            .collect();
        members.sort();
        members.dedup();
        if with_virtuals {
            b.clique(&members);
        } else {
            for &u in &members {
                for &v in members.iter().filter(|&&v| v != u) {
                    b.direct(u, v);
                }
            }
        }
    }
    let mut g = b.build();
    delete_some(&mut rng, &mut g);
    g
}

#[test]
#[ignore = "full size; run in release with --include-ignored"]
fn full_size_sparse_extraction_shape() {
    for with_virtuals in [false, true] {
        let g = extract_sparse_shape(with_virtuals);
        let ctx = format!("extract_sparse shape, virtual nodes: {with_virtuals}");
        check_cdup(&g, &ctx);
        check_from_rep(&g, &ctx);
    }
}
