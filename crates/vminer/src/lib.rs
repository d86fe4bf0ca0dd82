//! `graphgen-vminer` — the VMiner baseline ("Virtual Node Miner", Buehrer &
//! Chellapilla, WSDM'08 — reference \[11\] of the GraphGen paper).
//!
//! VMiner is the structural-compression comparator in the paper's Fig. 10:
//! it takes an **already expanded** graph (the key disadvantage the paper
//! highlights — it cannot exploit the implicit relational structure), mines
//! bicliques `A × B` via shingle-hash clustering of adjacency lists, and
//! replaces each with a virtual node (`a → C` for `a ∈ A`, `C → b` for
//! `b ∈ B`), iterating for several passes. The output is a duplicate-free
//! condensed graph, directly comparable to DEDUP-1.

use graphgen_common::{fx_hash, FxHashMap, SplitMix64};
use graphgen_graph::{CondensedBuilder, Dedup1Graph, ExpandedGraph, GraphRep, RealId};

/// VMiner parameters.
#[derive(Debug, Clone, Copy)]
pub struct VMinerConfig {
    /// Mining passes over the graph (the paper's VMiner makes multiple).
    pub passes: usize,
    /// Minimum biclique source-side size.
    pub min_sources: usize,
    /// Minimum biclique target-side size.
    pub min_targets: usize,
    /// Number of min-hash functions per shingle signature.
    pub hashes: usize,
    /// Cluster size cap (keeps the within-cluster mining quadratic cost
    /// bounded).
    pub max_cluster: usize,
    /// RNG seed for the hash functions.
    pub seed: u64,
}

impl Default for VMinerConfig {
    fn default() -> Self {
        Self {
            passes: 4,
            min_sources: 2,
            min_targets: 2,
            hashes: 2,
            max_cluster: 256,
            seed: 42,
        }
    }
}

fn minhash(adj: &[u32], salt: u64) -> u64 {
    let mut best = u64::MAX;
    for &v in adj {
        best = best.min(fx_hash(&(v as u64 ^ salt)));
    }
    best
}

/// Compress an expanded graph. Returns the condensed result and the number
/// of bicliques extracted.
pub fn vminer(g: &ExpandedGraph, cfg: VMinerConfig) -> (Dedup1Graph, usize) {
    let n = g.num_real_slots();
    // Mutable adjacency (direct edges remaining) + extracted bicliques.
    let mut adj: Vec<Vec<u32>> = (0..n as u32)
        .map(|u| {
            let mut list: Vec<u32> = Vec::new();
            g.for_each_neighbor(RealId(u), &mut |v| list.push(v.0));
            list.sort_unstable();
            list
        })
        .collect();
    let mut bicliques: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut rng = SplitMix64::new(cfg.seed);

    for _pass in 0..cfg.passes {
        let salts: Vec<u64> = (0..cfg.hashes).map(|_| rng.next_u64()).collect();
        // Cluster nodes by shingle signature.
        let mut clusters: FxHashMap<Vec<u64>, Vec<u32>> = FxHashMap::default();
        for u in 0..n as u32 {
            let list = &adj[u as usize];
            if list.len() < cfg.min_targets {
                continue;
            }
            let sig: Vec<u64> = salts.iter().map(|&s| minhash(list, s)).collect();
            let bucket = clusters.entry(sig).or_default();
            if bucket.len() < cfg.max_cluster {
                bucket.push(u);
            }
        }
        let mut extracted_this_pass = 0usize;
        for (_, members) in clusters {
            if members.len() < cfg.min_sources {
                continue;
            }
            // Greedy biclique extraction: seed with each member in turn.
            for &seed_node in &members {
                let seed_adj = adj[seed_node as usize].clone();
                if seed_adj.len() < cfg.min_targets {
                    continue;
                }
                // Common targets = intersection with every other member that
                // keeps the intersection above the threshold.
                let mut sources = vec![seed_node];
                let mut common = seed_adj;
                for &other in &members {
                    if other == seed_node || adj[other as usize].len() < cfg.min_targets {
                        continue;
                    }
                    let inter = intersect(&common, &adj[other as usize]);
                    if inter.len() >= cfg.min_targets {
                        common = inter;
                        sources.push(other);
                    }
                }
                // Benefit test: |A|*|B| edges replaced by |A|+|B|.
                if sources.len() >= cfg.min_sources
                    && common.len() >= cfg.min_targets
                    && sources.len() * common.len() > sources.len() + common.len()
                {
                    for &s in &sources {
                        remove_all(&mut adj[s as usize], &common);
                    }
                    bicliques.push((sources, common));
                    extracted_this_pass += 1;
                }
            }
        }
        if extracted_this_pass == 0 {
            break;
        }
    }

    // Assemble the condensed output.
    let mut b = CondensedBuilder::new(n);
    for (sources, targets) in &bicliques {
        let v = b.add_virtual();
        for &s in sources {
            b.real_to_virtual(RealId(s), v);
        }
        for &t in targets {
            b.virtual_to_real(v, RealId(t));
        }
    }
    for (u, list) in adj.iter().enumerate() {
        for &v in list {
            b.direct(RealId(u as u32), RealId(v));
        }
    }
    (Dedup1Graph::new_unchecked(b.build()), bicliques.len())
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn remove_all(list: &mut Vec<u32>, remove: &[u32]) {
    list.retain(|x| remove.binary_search(x).is_err());
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{expand_to_edge_list, validate::validate_dedup1, CondensedBuilder};

    /// A graph with an embedded 5×5 biclique plus noise edges.
    fn biclique_graph() -> ExpandedGraph {
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 5..10u32 {
                edges.push((a, b));
            }
        }
        edges.push((10, 11));
        edges.push((11, 10));
        ExpandedGraph::from_edges(12, edges)
    }

    #[test]
    fn lossless_compression() {
        let g = biclique_graph();
        let before = expand_to_edge_list(&g);
        let (compressed, found) = vminer(&g, VMinerConfig::default());
        assert_eq!(expand_to_edge_list(&compressed), before);
        assert!(found >= 1, "should find the embedded biclique");
        assert!(validate_dedup1(&compressed).is_ok());
        // 25 edges -> ~10 membership edges + 2 noise edges.
        assert!(compressed.stored_edge_count() < 25);
    }

    #[test]
    fn clique_heavy_graph_compresses_worse_than_native_dedup() {
        // The paper's point: VMiner, working on the expanded graph, finds a
        // worse representation than deduplication on the native condensed
        // structure. Overlapping cliques blur the biclique signatures.
        let mut b = CondensedBuilder::new(30);
        let ids: Vec<RealId> = (0..30).map(RealId).collect();
        b.clique(&ids[0..18]);
        b.clique(&ids[10..28]);
        let cdup = b.build();
        let exp = ExpandedGraph::from_rep(&cdup);
        let (vm, _) = vminer(&exp, VMinerConfig::default());
        assert_eq!(expand_to_edge_list(&vm), expand_to_edge_list(&cdup));
        let native = graphgen_dedup::greedy_virtual_nodes_first(
            &cdup,
            graphgen_common::VertexOrdering::Descending,
            0,
        );
        assert!(
            vm.stored_edge_count() >= native.stored_edge_count(),
            "vminer {} vs native {}",
            vm.stored_edge_count(),
            native.stored_edge_count()
        );
    }

    #[test]
    fn sparse_graph_untouched() {
        let g = ExpandedGraph::from_edges(6, [(0, 1), (2, 3), (4, 5)]);
        let (compressed, found) = vminer(&g, VMinerConfig::default());
        assert_eq!(found, 0);
        assert_eq!(compressed.stored_edge_count(), 3);
    }

    #[test]
    fn deterministic() {
        let g = biclique_graph();
        let (a, na) = vminer(&g, VMinerConfig::default());
        let (b, nb) = vminer(&g, VMinerConfig::default());
        assert_eq!(na, nb);
        assert_eq!(a.stored_edge_count(), b.stored_edge_count());
    }
}
