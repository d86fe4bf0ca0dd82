//! Table 3: large datasets — Degree/PageRank/BFS runtimes and memory for
//! C-DUP vs BITMAP(-2) vs EXP, plus the one-time BITMAP dedup cost.
//!
//! Scaled down (pass `--scale <f>` via env `SCALE` to adjust; default keeps
//! each dataset to a few million condensed edges so the harness finishes in
//! minutes). DNF semantics: representations whose construction would exceed
//! the configured budget are reported as `DNF`, mirroring the paper.

use graphgen_algo::{bfs, degrees, pagerank, PageRankConfig};
use graphgen_bench::{extract_cdup, ms, row, time};
use graphgen_datagen::{
    layered_database, single_layer_database, tpch_like, LayeredConfig, SingleLayerConfig,
    TpchConfig,
};
use graphgen_graph::{ExpandedGraph, GraphRep, RealId};

fn scale() -> f64 {
    std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01)
}

fn kernels<G: GraphRep + Sync>(g: &G) -> (String, String, String) {
    let (_, td) = time(|| degrees(g, 4));
    let (_, tp) = time(|| {
        pagerank(
            g,
            PageRankConfig {
                damping: 0.85,
                iterations: 5,
                threads: 4,
            },
        )
    });
    let src = RealId(g.vertices().next().map_or(0, |r| r.0));
    let (_, tb) = time(|| bfs(g, src));
    (ms(td), ms(tp), ms(tb))
}

fn main() {
    let s = scale();
    println!("Table 3: large datasets (scale factor {s}; SCALE env to change)\n");
    let widths = [12, 8, 12, 12, 12, 14, 14];
    row(
        &[
            "dataset",
            "rep",
            "degree(ms)",
            "pr(ms)",
            "bfs(ms)",
            "mem(bytes)",
            "dedup(ms)",
        ]
        .map(String::from),
        &widths,
    );
    let datasets: Vec<(&str, graphgen_reldb::Database, String)> = vec![
        {
            let (db, q) = layered_database(LayeredConfig::layered_1(s));
            ("Layered_1", db, q)
        },
        {
            let (db, q) = layered_database(LayeredConfig::layered_2(s));
            ("Layered_2", db, q)
        },
        {
            let (db, q) = single_layer_database(SingleLayerConfig::single_1(s));
            ("Single_1", db, q)
        },
        {
            let (db, q) = single_layer_database(SingleLayerConfig::single_2(s));
            ("Single_2", db, q)
        },
        {
            let db = tpch_like(TpchConfig::default());
            (
                "TPCH",
                db,
                graphgen_datagen::relational::TPCH_COPURCHASE.to_string(),
            )
        },
    ];
    // DNF guard: skip EXP when the expansion would exceed this many edges.
    let exp_budget: u64 = 30_000_000;
    for (name, db, query) in datasets {
        let cdup = extract_cdup(&db, &query);
        // C-DUP row.
        let (d, p, b) = kernels(&cdup);
        row(
            &[
                name.to_string(),
                "C-DUP".into(),
                d,
                p,
                b,
                cdup.heap_bytes().to_string(),
                "-".into(),
            ],
            &widths,
        );
        // BITMAP row (BITMAP-2; flatten first if multi-layer for dedup time
        // fairness — bitmap2 itself handles multi-layer).
        let ((bmp, _), t_dedup) = time(|| graphgen_dedup::bitmap2(cdup.clone()));
        let (d, p, b) = kernels(&bmp);
        row(
            &[
                name.to_string(),
                "BMP".into(),
                d,
                p,
                b,
                bmp.heap_bytes().to_string(),
                ms(t_dedup),
            ],
            &widths,
        );
        // EXP row (with DNF guard).
        let expanded_edges = cdup.expanded_edge_count();
        if expanded_edges > exp_budget {
            row(
                &[
                    name.to_string(),
                    "EXP".into(),
                    "DNF".into(),
                    "DNF".into(),
                    "DNF".into(),
                    format!(">{exp_budget} edges"),
                    "-".into(),
                ],
                &widths,
            );
        } else {
            let exp = ExpandedGraph::from_rep(&cdup);
            let (d, p, b) = kernels(&exp);
            row(
                &[
                    name.to_string(),
                    "EXP".into(),
                    d,
                    p,
                    b,
                    exp.heap_bytes().to_string(),
                    "-".into(),
                ],
                &widths,
            );
        }
    }
    println!("\npaper shape: EXP fastest when it fits but 1-2 orders of magnitude more memory");
    println!("(DNF on the densest datasets); BITMAP sits between C-DUP and EXP.");
}
