//! Seeded-random properties: every representation built from the same
//! condensed graph is semantically identical (same expanded edge set), and
//! each maintains its structural invariant. This is the core correctness
//! contract of §4 — and what lets extraction number its virtual nodes any
//! way it likes.
//!
//! Cases come from the std-only `SplitMix64` generator over fixed seed
//! ranges (the case counts of the proptest suite this replaces).

use graphgen::common::{SplitMix64, VertexOrdering};
use graphgen::dedup::{bitmap1, bitmap2, dedup2_greedy, Dedup1Algorithm};
use graphgen::graph::{
    expand_to_edge_list, validate, CondensedBuilder, CondensedGraph, ExpandedGraph, GraphRep,
    RealId,
};

const CASES: u64 = 48;

/// A random symmetric single-layer condensed graph given as member sets
/// (what co-occurrence extraction produces): 2 to `max_real` real nodes and
/// up to `max_virt` sets of 2 to 8 draws from them.
fn member_sets(rng: &mut SplitMix64, max_real: u64, max_virt: u64) -> (usize, Vec<Vec<u32>>) {
    let n_real = 2 + rng.next_below(max_real - 1);
    let sets = (0..rng.next_below(max_virt + 1))
        .map(|_| {
            let len = 2 + rng.next_below(n_real.min(8) - 1);
            (0..len).map(|_| rng.next_below(n_real) as u32).collect()
        })
        .collect();
    (n_real as usize, sets)
}

fn build(n_real: usize, sets: &[Vec<u32>]) -> CondensedGraph {
    let mut b = CondensedBuilder::new(n_real);
    for set in sets {
        let mut members: Vec<RealId> = set.iter().map(|&i| RealId(i)).collect();
        members.sort();
        members.dedup();
        if members.len() >= 2 {
            b.clique(&members);
        }
    }
    b.build()
}

/// Run `check` on `CASES` graphs drawn from `member_sets(max_real,
/// max_virt)`, seeded from `base`.
fn for_each_case(
    base: u64,
    max_real: u64,
    max_virt: u64,
    check: impl Fn(u64, usize, CondensedGraph),
) {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(base + seed);
        let (n_real, sets) = member_sets(&mut rng, max_real, max_virt);
        check(seed, n_real, build(n_real, &sets));
    }
}

#[test]
fn all_representations_expand_identically() {
    for_each_case(0x4E_0000, 24, 10, |seed, _, cdup| {
        let truth = expand_to_edge_list(&cdup);

        let exp = ExpandedGraph::from_rep(&cdup);
        assert_eq!(expand_to_edge_list(&exp), truth, "seed {seed}: EXP");

        for algo in Dedup1Algorithm::all() {
            for ordering in VertexOrdering::all() {
                let d1 = algo.run(&cdup, ordering, 42);
                let case = format!("seed {seed}: {} {ordering:?}", algo.label());
                assert_eq!(expand_to_edge_list(&d1), truth, "{case}");
                assert!(
                    validate::validate_dedup1(&d1).is_ok(),
                    "{case} violates the single-path invariant"
                );
            }
        }

        let d2 = dedup2_greedy(&cdup, VertexOrdering::Descending, 42);
        assert_eq!(expand_to_edge_list(&d2), truth, "seed {seed}: DEDUP-2");
        assert!(validate::validate_dedup2(&d2).is_ok(), "seed {seed}");

        let b1 = bitmap1(cdup.clone());
        assert_eq!(expand_to_edge_list(&b1), truth, "seed {seed}: BITMAP-1");
        assert!(
            validate::validate_no_duplicate_emission(&b1).is_ok(),
            "seed {seed}"
        );

        let (b2, _) = bitmap2(cdup.clone());
        assert_eq!(expand_to_edge_list(&b2), truth, "seed {seed}: BITMAP-2");
        assert!(
            validate::validate_no_duplicate_emission(&b2).is_ok(),
            "seed {seed}"
        );
    });
}

#[test]
fn preprocessing_preserves_semantics() {
    for_each_case(0x4E_1000, 20, 8, |seed, _, mut g| {
        let truth = expand_to_edge_list(&g);
        graphgen::dedup::expand_cheap_virtuals(&mut g, 1);
        assert_eq!(expand_to_edge_list(&g), truth, "seed {seed}");
    });
}

#[test]
fn vminer_is_lossless() {
    for_each_case(0x4E_2000, 20, 8, |seed, _, cdup| {
        let exp = ExpandedGraph::from_rep(&cdup);
        let (vm, _) = graphgen::vminer::vminer(&exp, Default::default());
        assert_eq!(
            expand_to_edge_list(&vm),
            expand_to_edge_list(&exp),
            "seed {seed}"
        );
        assert!(validate::validate_dedup1(&vm).is_ok(), "seed {seed}");
    });
}

#[test]
fn delete_edge_removes_exactly_one_pair() {
    for_each_case(0x4E_3000, 16, 6, |seed, _, mut g| {
        let edges = expand_to_edge_list(&g);
        if let Some(&(u, v)) = edges.first() {
            g.delete_edge(RealId(u), RealId(v));
            let mut expected = edges.clone();
            expected.retain(|&e| e != (u, v));
            assert_eq!(expand_to_edge_list(&g), expected, "seed {seed}");
        }
    });
}

#[test]
fn delete_vertex_removes_exactly_its_pairs() {
    for_each_case(0x4E_4000, 16, 6, |seed, n_real, mut g| {
        let edges = expand_to_edge_list(&g);
        let victim = (n_real / 2) as u32;
        g.delete_vertex(RealId(victim));
        let mut expected = edges.clone();
        expected.retain(|&(a, b)| a != victim && b != victim);
        assert_eq!(expand_to_edge_list(&g), expected, "seed {seed}");
        g.compact();
        assert_eq!(expand_to_edge_list(&g), expected, "seed {seed}: compacted");
    });
}

#[test]
fn flatten_preserves_multilayer_semantics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x4E_5000 + seed);
        // A random 2-layer graph: layer-1 vnodes feed layer-2 vnodes.
        let n_real = 2 + rng.next_below(10) as u32;
        let mut b = CondensedBuilder::new(n_real as usize);
        let l1 = b.add_virtual();
        let l2 = b.add_virtual();
        b.virtual_to_virtual(l1, l2);
        for _ in 0..rng.next_below(20) {
            b.real_to_virtual(RealId(rng.next_below(12) as u32 % n_real), l1);
            b.virtual_to_real(l2, RealId(rng.next_below(12) as u32 % n_real));
        }
        let g = b.build();
        let flat = graphgen::dedup::flatten_to_single_layer(&g);
        assert!(flat.is_single_layer(), "seed {seed}");
        assert_eq!(
            expand_to_edge_list(&flat),
            expand_to_edge_list(&g),
            "seed {seed}"
        );
    }
}
