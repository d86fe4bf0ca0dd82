//! The four DEDUP-1 constructors' outputs, pinned byte for byte.
//!
//! Each case runs one algorithm under one ordering on every seed of one
//! input shape and folds every real and virtual adjacency list, plus the
//! result's `heap_bytes`, into a 64-bit FNV-1a digest. The constants were
//! recorded from the implementation that stored direct edges as sorted
//! per-source lists and assembled its output through `CondensedBuilder`
//! (with Naive-RNF already absorbing the direct edges its input's virtual
//! nodes cover); any change to a removal choice, a compensation, the emit
//! order or the output's allocation shows up here.
//!
//! The `greedy_vnf_matches_reference_*` tests cannot catch such a change on
//! their own: the reference shares `WorkGraph`'s compensation and its
//! `into_condensed` with the algorithm it checks.
//!
//! On a mismatch the test prints the whole computed table in the source
//! form of `WANT`.

use graphgen_common::SplitMix64;
use graphgen_dedup::{Dedup1Algorithm, VertexOrdering};
use graphgen_graph::{Adj, CondensedBuilder, CondensedGraph, Dedup1Graph, GraphRep, RealId};

const ORDERINGS: [VertexOrdering; 2] = [VertexOrdering::Random, VertexOrdering::Descending];

/// `(shape/algorithm/ordering, digest)` for every small case.
const WANT: &[(&str, u64)] = &[
    ("sparse_cliques/Naive-VNF/Random", 0xce820f03a9157fc0),
    ("sparse_cliques/Naive-VNF/Descending", 0xce820f03a9157fc0),
    ("sparse_cliques/Naive-RNF/Random", 0x9b2b6f247650f6fb),
    ("sparse_cliques/Naive-RNF/Descending", 0x9b2b6f247650f6fb),
    ("sparse_cliques/Greedy-RNF/Random", 0x0e4546000065c479),
    ("sparse_cliques/Greedy-RNF/Descending", 0xfbff61aaeee5be0c),
    ("sparse_cliques/Greedy-VNF/Random", 0xce820f03a9157fc0),
    ("sparse_cliques/Greedy-VNF/Descending", 0xce820f03a9157fc0),
    ("dense_cliques/Naive-VNF/Random", 0x5e34edca9bdb437c),
    ("dense_cliques/Naive-VNF/Descending", 0x538b109efb93e446),
    ("dense_cliques/Naive-RNF/Random", 0x0881052abf3fea24),
    ("dense_cliques/Naive-RNF/Descending", 0xf4e1c5d6b4dafb17),
    ("dense_cliques/Greedy-RNF/Random", 0x5f09c6821ed880d1),
    ("dense_cliques/Greedy-RNF/Descending", 0xdbaa4dbf7e1849b7),
    ("dense_cliques/Greedy-VNF/Random", 0x0ae3abcb344ade71),
    ("dense_cliques/Greedy-VNF/Descending", 0x7d7c776f769b7cc0),
    ("asymmetric/Naive-VNF/Random", 0xff8c38485bba90aa),
    ("asymmetric/Naive-VNF/Descending", 0xe5f1046003a75600),
    ("asymmetric/Naive-RNF/Random", 0xa116d2b5d4f57934),
    ("asymmetric/Naive-RNF/Descending", 0x85b334f9db22d38e),
    ("asymmetric/Greedy-RNF/Random", 0x6d59d356491b18e3),
    ("asymmetric/Greedy-RNF/Descending", 0xf82043c3607dd4f4),
    ("asymmetric/Greedy-VNF/Random", 0x79471b0aa03a2578),
    ("asymmetric/Greedy-VNF/Descending", 0x1cbcf23fe4acd6f3),
    ("direct_edges/Naive-VNF/Random", 0x588adc502c1964f1),
    ("direct_edges/Naive-VNF/Descending", 0x222ba20f244fc6d7),
    ("direct_edges/Naive-RNF/Random", 0x6b58c78307befe65),
    ("direct_edges/Naive-RNF/Descending", 0x83bb6df519c4c52c),
    ("direct_edges/Greedy-RNF/Random", 0x78bb7e247b5080fa),
    ("direct_edges/Greedy-RNF/Descending", 0x0ff9350546584178),
    ("direct_edges/Greedy-VNF/Random", 0x9ac9259e10650f55),
    ("direct_edges/Greedy-VNF/Descending", 0x58b73451d78d0065),
    ("empty_and_tiny/Naive-VNF/Random", 0x3a78a138b1319734),
    ("empty_and_tiny/Naive-VNF/Descending", 0x52b95117b5a91e37),
    ("empty_and_tiny/Naive-RNF/Random", 0x16c65458c1b57fd7),
    ("empty_and_tiny/Naive-RNF/Descending", 0x911e58ec6706ffd5),
    ("empty_and_tiny/Greedy-RNF/Random", 0xd30f73e140b37268),
    ("empty_and_tiny/Greedy-RNF/Descending", 0xb2c911e109c2e4a7),
    ("empty_and_tiny/Greedy-VNF/Random", 0x74e9c94551a0bbe2),
    ("empty_and_tiny/Greedy-VNF/Descending", 0xcc4466ef213901c5),
];

/// The `analyze_dense` shape's digests (release, `--include-ignored`).
const WANT_FULL: &[(&str, u64)] = &[
    ("analyze_dense/Naive-VNF/Random", 0xb85429f63e2584f3),
    ("analyze_dense/Naive-VNF/Descending", 0xeb06ae1bfdeaaa39),
    ("analyze_dense/Naive-RNF/Random", 0xed2c495b7be4c84a),
    ("analyze_dense/Naive-RNF/Descending", 0x36030f511824cac0),
    ("analyze_dense/Greedy-RNF/Random", 0x95fe1bc34479fd0a),
    ("analyze_dense/Greedy-RNF/Descending", 0x9145dc33f6cdb448),
    ("analyze_dense/Greedy-VNF/Random", 0xfa82f3582d00b7af),
    ("analyze_dense/Greedy-VNF/Descending", 0x254d19d87848c718),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn lists<'a>(&mut self, lists: impl Iterator<Item = &'a [Adj]>) {
        let mut n = 0;
        for list in lists {
            self.word(list.len() as u64);
            for a in list {
                self.word(u64::from(a.raw()));
            }
            n += 1;
        }
        self.word(n);
    }

    fn graph(&mut self, d: &Dedup1Graph) {
        let c = d.core();
        self.lists(c.real_out_chunks().iter());
        self.lists(c.virt_out_chunks().iter());
        self.word(d.heap_bytes() as u64);
    }
}

/// `min..=max` draws from `0..n_real` (repeats collapse in the builder).
fn members(rng: &mut SplitMix64, n_real: usize, min: usize, max: usize) -> Vec<RealId> {
    let count = min + rng.next_below((max - min + 1) as u64) as usize;
    (0..count)
        .map(|_| RealId(rng.next_below(n_real as u64) as u32))
        .collect()
}

/// `groups` cliques of 0..=2·`mean` draws over `n_real` real nodes.
fn cliques(rng: &mut SplitMix64, b: &mut CondensedBuilder, groups: usize, mean: usize) {
    let n_real = b.num_real();
    for _ in 0..groups {
        b.clique(&members(rng, n_real, 0, 2 * mean));
    }
}

fn sparse_cliques(seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let mut b = CondensedBuilder::new(250);
    cliques(&mut rng, &mut b, 12, 10);
    b.build()
}

fn dense_cliques(seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let mut b = CondensedBuilder::new(40);
    cliques(&mut rng, &mut b, 20, 8);
    b.build()
}

fn asymmetric(seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let n_real = 60;
    let mut b = CondensedBuilder::new(n_real);
    for _ in 0..30 {
        let v = b.add_virtual();
        for u in members(&mut rng, n_real, 2, 20) {
            b.real_to_virtual(u, v);
        }
        for u in members(&mut rng, n_real, 2, 20) {
            b.virtual_to_real(v, u);
        }
    }
    b.build()
}

fn with_direct_edges(seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let n_real = 40;
    let mut b = CondensedBuilder::new(n_real);
    cliques(&mut rng, &mut b, 20, 8);
    for _ in 0..300 {
        let u = rng.next_below(n_real as u64) as u32;
        let t = rng.next_below(n_real as u64) as u32;
        if u != t {
            b.direct(RealId(u), RealId(t));
        }
    }
    b.build()
}

/// Nodes of zero to two draws among overlapping ones, an empty node, a
/// node with sources only and one with targets only.
fn empty_and_tiny(seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let n_real = 40;
    let mut b = CondensedBuilder::new(n_real);
    cliques(&mut rng, &mut b, 20, 1);
    cliques(&mut rng, &mut b, 20, 8);
    b.add_virtual();
    let sources_only = b.add_virtual();
    b.real_to_virtual(RealId(0), sources_only);
    b.real_to_virtual(RealId(1), sources_only);
    let targets_only = b.add_virtual();
    b.virtual_to_real(targets_only, RealId(2));
    b.virtual_to_real(targets_only, RealId(3));
    b.build()
}

/// `analyze_dense` at full size: 5,000 memberships of 2,500 entities in 50
/// groups (≈100 members each).
fn full_size(seed: u64) -> CondensedGraph {
    let mut rng = SplitMix64::new(seed);
    let mut groups = vec![Vec::new(); 50];
    for _ in 0..5_000 {
        let x = RealId(rng.next_below(2_500) as u32);
        groups[rng.next_below(50) as usize].push(x);
    }
    let mut b = CondensedBuilder::new(2_500);
    for group in &groups {
        b.clique(group);
    }
    b.build()
}

type Shape = (&'static str, fn(u64) -> CondensedGraph);

/// Digest every algorithm × ordering over `seeds` of each shape.
fn digests(shapes: &[Shape], seeds: &[u64]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &(name, make) in shapes {
        let graphs: Vec<CondensedGraph> = seeds.iter().map(|&s| make(s)).collect();
        for alg in Dedup1Algorithm::all() {
            for ord in ORDERINGS {
                let mut h = Fnv::new();
                for (g, &seed) in graphs.iter().zip(seeds) {
                    h.graph(&alg.run(g, ord, seed));
                }
                out.push((format!("{name}/{}/{ord:?}", alg.label()), h.0));
            }
        }
    }
    out
}

fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)]) {
    let matches = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gk, gv), (wk, wv))| gk == wk && gv == wv);
    if !matches {
        let mut table = String::new();
        for (k, v) in got {
            table.push_str(&format!("    (\"{k}\", {v:#018x}),\n"));
        }
        let differing: Vec<&str> = got
            .iter()
            .filter(|(k, v)| !want.iter().any(|(wk, wv)| wk == k && wv == v))
            .map(|(k, _)| k.as_str())
            .collect();
        panic!("DEDUP-1 digests differ: {differing:?}\ncomputed:\n{table}");
    }
}

#[test]
fn dedup1_outputs_match_the_recorded_digests() {
    let shapes: [Shape; 5] = [
        ("sparse_cliques", sparse_cliques),
        ("dense_cliques", dense_cliques),
        ("asymmetric", asymmetric),
        ("direct_edges", with_direct_edges),
        ("empty_and_tiny", empty_and_tiny),
    ];
    assert_digests(&digests(&shapes, &[1, 2, 3]), WANT);
}

#[test]
#[ignore = "full size; run in release with --include-ignored"]
fn dedup1_outputs_match_the_recorded_digests_full_size() {
    assert_digests(&digests(&[("analyze_dense", full_size)], &[3]), WANT_FULL);
}
