//! Multi-layer extraction: the TPCH co-purchase graph (\[Q2\]).
//!
//! Connecting customers who bought the same part needs a 4-atom chain
//! (`Orders ⋈ LineItem ⋈ LineItem ⋈ Orders`). The planner hands the
//! key–foreign-key joins to the relational engine and postpones the
//! large-output ones, producing the multi-layered condensed representation
//! of the paper's Fig. 5a. This example shows the plan, the layer
//! structure, the typed conversion errors multi-layer shapes produce, and
//! why expanding would be catastrophic.
//!
//! Run with: `cargo run --release --example customer_copurchase`

use graphgen::core::{AnyGraph, ConvertOptions, GraphGen, GraphGenConfig};
use graphgen::datagen::{relational::TPCH_COPURCHASE, tpch_like, TpchConfig};
use graphgen::graph::{GraphRep, RepKind};

fn main() {
    let db = tpch_like(TpchConfig {
        customers: 2_000,
        orders: 6_000,
        parts: 150,
        avg_lineitems: 3.0,
        seed: 3,
    });
    let gg = GraphGen::with_config(
        &db,
        GraphGenConfig::builder()
            .auto_expand_threshold(None)
            .build(),
    );
    let handle = gg.extract(TPCH_COPURCHASE).expect("extraction");

    println!("plan:");
    for (i, join) in handle.report().plans[0].joins.iter().enumerate() {
        println!(
            "  join {}: {} ⋈ {} — |L|={}, |R|={}, d={}, est. output {:.0} -> {}",
            i,
            join.left_table,
            join.right_table,
            join.left_rows,
            join.right_rows,
            join.distinct,
            join.estimated_output,
            if join.large_output {
                "POSTPONED (virtual nodes)"
            } else {
                "database"
            }
        );
    }
    for sql in &handle.report().sql {
        println!("  SQL: {sql}");
    }

    let AnyGraph::CDup(g) = handle.graph() else {
        println!("graph was auto-expanded (tiny input)");
        return;
    };
    println!(
        "\ncondensed: {} real + {} virtual nodes, {} stored edges, {} layers",
        g.num_vertices(),
        g.num_virtual(),
        g.stored_edge_count(),
        g.layer_count()
    );
    let expanded = g.expanded_edge_count();
    println!(
        "expanded would be {} edges — {:.1}x the condensed size",
        expanded,
        expanded as f64 / g.stored_edge_count() as f64
    );

    // Multi-layer shapes can't run the DEDUP constructions directly — the
    // typed error says exactly why — but ConvertOptions::flatten unlocks
    // them, and BITMAP handles layered graphs natively.
    let opts = ConvertOptions::default();
    if !g.is_single_layer() {
        let err = handle.convert(RepKind::Dedup1, &opts).unwrap_err();
        println!("\nDEDUP-1 directly: {err}");
        let flat = handle
            .convert(RepKind::Dedup1, &ConvertOptions { flatten: true })
            .expect("flattened conversion");
        println!(
            "DEDUP-1 after flattening: {} stored edges",
            flat.stored_edge_count()
        );
    }
    let bmp = handle
        .convert(RepKind::Bitmap, &opts)
        .expect("condensed source");
    println!(
        "BITMAP-2: {} stored edges ({} bytes)",
        bmp.stored_edge_count(),
        bmp.heap_bytes()
    );
    // Top co-purchasers.
    let degs = graphgen::algo::degrees(&bmp, 4);
    let max = degs.iter().max().copied().unwrap_or(0);
    println!("max distinct co-purchasers for one customer: {max}");
}
