//! `graphgen-bench` — shared harness utilities for the experiment binaries.
//!
//! One binary per paper table/figure lives in `src/bin/`. This library
//! holds the dataset presets (scaled-down but shape-preserving stand-ins
//! for the paper's datasets — the `graphgen_datagen` crate docs map each
//! generator to the dataset it replaces), the representation builders
//! shared by all of them, and the counting allocator ([`alloc`]) that
//! `graphbench`, the repository's benchmark, reports memory with.

pub mod alloc;

/// Every binary linking this crate accounts allocations through
/// [`alloc::CountingAlloc`] so benches can report bytes allocated and peak
/// resident bytes per measured region.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

use graphgen_common::VertexOrdering;
use graphgen_core::{AnyGraph, GraphGen, GraphGenConfig};
use graphgen_datagen::{
    dblp_like, imdb_like, synthetic_condensed, CondensedGenConfig, DblpConfig, ImdbConfig,
};
use graphgen_dedup::{bitmap1, bitmap2, try_dedup2_greedy, Dedup1Algorithm};
use graphgen_graph::{
    BitmapGraph, CondensedGraph, Dedup1Graph, Dedup2Graph, ExpandedGraph, GraphRep,
};
use std::time::{Duration, Instant};

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with 3 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// The four small datasets of §6.1, as condensed graphs.
pub fn small_datasets() -> Vec<(&'static str, CondensedGraph)> {
    vec![
        (
            "DBLP",
            extract_cdup(
                &dblp_like(DblpConfig::default()),
                graphgen_datagen::relational::DBLP_COAUTHORS,
            ),
        ),
        (
            "IMDB",
            extract_cdup(
                &imdb_like(ImdbConfig::default()),
                graphgen_datagen::relational::IMDB_COACTORS,
            ),
        ),
        (
            "Synthetic_1",
            synthetic_condensed(CondensedGenConfig {
                n_real: 2_000,
                n_virtual: 4_000,
                mean_size: 7.0,
                sd_size: 3.0,
                seed: 101,
            }),
        ),
        (
            "Synthetic_2",
            synthetic_condensed(CondensedGenConfig {
                n_real: 4_000,
                n_virtual: 60,
                mean_size: 94.0,
                sd_size: 30.0,
                seed: 102,
            }),
        ),
    ]
}

/// Extract the C-DUP graph for a query, forcing the condensed path.
pub fn extract_cdup(db: &graphgen_reldb::Database, query: &str) -> CondensedGraph {
    let gg = GraphGen::with_config(
        db,
        // large_output_factor 0.0 forces virtual nodes.
        GraphGenConfig::builder()
            .large_output_factor(0.0)
            .preprocess(false)
            .auto_expand_threshold(None)
            .threads(1)
            .build(),
    );
    let handle = gg.extract(query).expect("extraction failed");
    let AnyGraph::CDup(g) = handle.graph() else {
        unreachable!("auto-expansion disabled")
    };
    g.clone()
}

/// All representations built from one condensed graph.
pub struct RepSet {
    /// Dataset label.
    pub name: String,
    /// The raw condensed graph.
    pub cdup: CondensedGraph,
    /// Fully expanded.
    pub exp: ExpandedGraph,
    /// DEDUP-1 via Greedy Virtual-Nodes-First (the paper's Fig. 10 choice).
    pub dedup1: Dedup1Graph,
    /// DEDUP-2 (symmetric single-layer sources only).
    pub dedup2: Option<Dedup2Graph>,
    /// BITMAP-1.
    pub bitmap1: BitmapGraph,
    /// BITMAP-2.
    pub bitmap2: BitmapGraph,
}

impl RepSet {
    /// Build every representation from a condensed graph.
    pub fn build(name: &str, cdup: CondensedGraph) -> Self {
        let exp = ExpandedGraph::from_rep(&cdup);
        let dedup1 = Dedup1Algorithm::GreedyVnf.run(&cdup, VertexOrdering::Random, 7);
        let dedup2 = try_dedup2_greedy(&cdup, VertexOrdering::Descending, 7).ok();
        let b1 = bitmap1(cdup.clone());
        let (b2, _) = bitmap2(cdup.clone());
        Self {
            name: name.to_string(),
            cdup,
            exp,
            dedup1,
            dedup2,
            bitmap1: b1,
            bitmap2: b2,
        }
    }

    /// Iterate `(label, graph)` pairs over every built representation.
    pub fn reps(&self) -> Vec<(&'static str, &dyn GraphRep)> {
        let mut out: Vec<(&'static str, &dyn GraphRep)> = vec![
            ("EXP", &self.exp),
            ("C-DUP", &self.cdup),
            ("DEDUP-1", &self.dedup1),
            ("BITMAP-1", &self.bitmap1),
            ("BITMAP-2", &self.bitmap2),
        ];
        if let Some(d2) = &self.dedup2 {
            out.insert(3, ("DEDUP-2", d2));
        }
        out
    }
}

/// Print a row of fixed-width columns.
pub fn row(cols: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Simple CLI flag check.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repset_builds_for_synthetic() {
        let g = synthetic_condensed(CondensedGenConfig {
            n_real: 120,
            n_virtual: 30,
            mean_size: 5.0,
            sd_size: 2.0,
            seed: 5,
        });
        let truth = graphgen_graph::expand_to_edge_list(&g);
        let set = RepSet::build("t", g);
        for (label, rep) in set.reps() {
            assert_eq!(
                graphgen_graph::expand_to_edge_list(rep),
                truth,
                "representation {label} diverges"
            );
        }
    }

    #[test]
    fn extract_cdup_matches_datagen_query() {
        let db = dblp_like(DblpConfig {
            authors: 60,
            publications: 90,
            avg_authors_per_pub: 2.0,
            seed: 3,
        });
        let g = extract_cdup(&db, graphgen_datagen::relational::DBLP_COAUTHORS);
        assert!(g.num_virtual() > 0);
    }
}
