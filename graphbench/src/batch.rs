//! The two batch workloads: Datalog text in, graph (and answers) out, all
//! in-process through `GraphGen` with its default configuration.

use crate::run::{
    probe_s, repeated, reset_peak, timed_window, Opts, Outcome, MICRO_PROBE_REPS, PROBE_REPS,
};
use crate::stats;
use crate::trace::Tracer;
use graphgen_algo::{connected_components, degrees, pagerank, PageRankConfig};
use graphgen_common::metrics::collect_phases;
use graphgen_core::{ConvertOptions, GraphGen, GraphGenConfig, GraphHandle};
use graphgen_datagen::relational::DBLP_COAUTHORS;
use graphgen_datagen::{dblp_like, single_layer_database, DblpConfig, SingleLayerConfig};
use graphgen_graph::{expand_to_edge_list, GraphRep, RepKind};
use graphgen_reldb::Database;
use std::time::Instant;

/// `extract_sparse`: a big input hiding a sparse graph. Scan, join,
/// DISTINCT and the representation build do nearly all the work; dedup,
/// algo and serve do none. One op = one `GraphGen::extract`.
pub fn extract_sparse(opts: &Opts) -> Outcome {
    let cfg = if opts.smoke {
        DblpConfig {
            authors: 1_500,
            publications: 2_000,
            avg_authors_per_pub: 2.5,
            seed: opts.seed,
        }
    } else {
        // A third of the issue's 75k/100k: the window is a third of its
        // 30 s, and the sample count matters more than the row count.
        DblpConfig {
            authors: 25_000,
            publications: 33_000,
            avg_authors_per_pub: 2.5,
            seed: opts.seed,
        }
    };
    let mut out = Outcome::default();
    reset_peak();
    let (db, setup_s) = repeated(|| dblp_like(cfg));
    out.end_to_end.set("setup_s", setup_s);
    let gg = GraphGen::new(&db);
    let threads = GraphGenConfig::default().threads();
    out.notes.push(format!(
        "input {} rows; GraphGenConfig::default() resolves to {threads} threads",
        db.total_rows()
    ));
    let mut tracer = Tracer::new(opts.trace, Instant::now());

    let warm = gg.extract(DBLP_COAUTHORS).expect("warm-up extraction");
    let handle = timed_window(&mut out, opts.window, warm, |id| {
        tracer
            .span("core.extract", id, || gg.extract(DBLP_COAUTHORS))
            .map_err(|e| e.to_string())
    });
    set_bytes_per_edge(&mut out, &handle);

    // Output checks, outside the window: the condensed pipeline and the
    // single-SQL-query baseline agree, and the thread count changes nothing.
    let mut reference = gg
        .extract_full(DBLP_COAUTHORS)
        .expect("extract_full")
        .canonical_bytes();
    if opts.inject_check_failure {
        reference.push(0);
    }
    let got = handle.canonical_bytes();
    out.check("extract equals extract_full", got == reference);
    let t1 = single_thread(&db)
        .extract(DBLP_COAUTHORS)
        .expect("single-threaded extraction");
    out.check(
        "extract identical at 1 and default threads",
        t1.canonical_bytes() == got,
    );

    if opts.trace {
        extraction_probes(&mut tracer, &db, DBLP_COAUTHORS, &handle, &mut out);
    }
    out.tracers.push(tracer);
    out
}

/// `analyze_dense`: a small input hiding a dense graph (100-member groups,
/// the paper's Single_2 selectivity). Deduplication and the kernels
/// dominate; reldb is a few percent. One op = one pipeline pass: extract,
/// convert to DEDUP-1, then degree, PageRank and connected components.
pub fn analyze_dense(opts: &Opts) -> Outcome {
    let cfg = SingleLayerConfig {
        // Sized so that ten or more passes fit the window; selectivity is
        // what makes the graph dense and stays at the paper's value.
        rows: if opts.smoke { 600 } else { 5_000 },
        selectivity: 0.01,
        seed: opts.seed,
    };
    let mut out = Outcome::default();
    reset_peak();
    let ((db, dsl), setup_s) = repeated(|| single_layer_database(cfg));
    out.end_to_end.set("setup_s", setup_s);
    let gg = GraphGen::new(&db);
    let threads = GraphGenConfig::default().threads();
    out.notes.push(format!(
        "input {} rows; GraphGenConfig::default() resolves to {threads} threads",
        db.total_rows()
    ));
    let mut tracer = Tracer::new(opts.trace, Instant::now());

    struct Pass {
        extracted: GraphHandle,
        dedup1: GraphHandle,
        ranks: Vec<f64>,
    }
    let pass = |tracer: &mut Tracer, id: u32| -> Result<Pass, String> {
        let whole = tracer.open("pipeline", id);
        let extracted = tracer
            .span("core.extract", id, || gg.extract(&dsl))
            .map_err(|e| e.to_string())?;
        let dedup1 = tracer
            .span("dedup.convert_dedup1", id, || {
                extracted.convert(RepKind::Dedup1, &ConvertOptions::default())
            })
            .map_err(|e| e.to_string())?;
        std::hint::black_box(tracer.span("algo.degree_dedup1", id, || degrees(&dedup1, threads)));
        let ranks = tracer.span("algo.pagerank_dedup1", id, || {
            pagerank(&dedup1, PageRankConfig::default())
        });
        std::hint::black_box(tracer.span("algo.components_dedup1", id, || {
            connected_components(&dedup1, threads)
        }));
        tracer.close(whole);
        Ok(Pass {
            extracted,
            dedup1,
            ranks,
        })
    };

    let warm = pass(&mut tracer, 0).expect("warm-up pass");
    let last = timed_window(&mut out, opts.window, warm, |id| pass(&mut tracer, id));
    set_bytes_per_edge(&mut out, &last.extracted);

    // Output checks. Unless the default planner keeps the graph condensed,
    // this workload is not testing what it says.
    out.check(
        "default planner produced C-DUP",
        last.extracted.kind() == RepKind::CDup,
    );
    let mut reference = expand_to_edge_list(&last.extracted);
    if opts.inject_check_failure {
        reference.pop();
    }
    out.check(
        "DEDUP-1 expands to the C-DUP edge list",
        expand_to_edge_list(&last.dedup1) == reference,
    );
    let cdup_ranks = tracer.span("algo.pagerank_cdup", 0, || {
        pagerank(&last.extracted, PageRankConfig::default())
    });
    let worst = cdup_ranks
        .iter()
        .zip(&last.ranks)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    out.check(
        "PageRank agrees to 1e-9 between C-DUP and DEDUP-1",
        cdup_ranks.len() == last.ranks.len() && worst <= 1e-9,
    );

    if opts.trace {
        for (span, metric) in [
            ("dedup.convert_dedup1", "dedup.convert_dedup1_s"),
            ("algo.degree_dedup1", "algo.degree_dedup1_s"),
            ("algo.pagerank_dedup1", "algo.pagerank_dedup1_s"),
            ("algo.components_dedup1", "algo.components_dedup1_s"),
        ] {
            out.per_layer
                .set(metric, stats::median_ns(&tracer.durations_ns(span), 1e9));
        }
        // The skip-dedup route: the same kernels on the unconverted handle.
        let h = &last.extracted;
        let s = probe_s(&mut tracer, "algo.degree_cdup", PROBE_REPS, || {
            degrees(h, threads)
        });
        out.per_layer.set("algo.degree_cdup_s", s);
        let s = probe_s(&mut tracer, "algo.pagerank_cdup", PROBE_REPS, || {
            pagerank(h, PageRankConfig::default())
        });
        out.per_layer.set("algo.pagerank_cdup_s", s);
        let s = probe_s(&mut tracer, "algo.components_cdup", PROBE_REPS, || {
            connected_components(h, threads)
        });
        out.per_layer.set("algo.components_cdup_s", s);
        let s = probe_s(&mut tracer, "dedup.convert_bitmap", PROBE_REPS, || {
            h.convert(RepKind::Bitmap, &ConvertOptions::default())
        });
        out.per_layer.set("dedup.convert_bitmap_s", s);
        out.per_layer.set(
            "dedup.dedup1_bytes_per_edge",
            last.dedup1.heap_bytes() as f64 / last.dedup1.expanded_edge_count().max(1) as f64,
        );
        extraction_probes(&mut tracer, &db, &dsl, h, &mut out);
    }
    out.tracers.push(tracer);
    out
}

fn single_thread(db: &Database) -> GraphGen<'_> {
    GraphGen::with_config(db, GraphGenConfig::builder().threads(1).build())
}

/// The paper's headline number: bytes of the extracted representation per
/// distinct logical edge.
fn set_bytes_per_edge(out: &mut Outcome, handle: &GraphHandle) {
    let edges = handle.expanded_edge_count();
    out.notes.push(format!(
        "extracted {} with {} vertices, {edges} logical edges, {} bytes",
        handle.kind(),
        handle.num_vertices(),
        handle.heap_bytes()
    ));
    out.end_to_end.set(
        "graph_bytes_per_edge",
        handle.heap_bytes() as f64 / edges.max(1) as f64,
    );
}

/// The per-layer numbers under one extraction, from direct calls into each
/// layer after the window.
fn extraction_probes(
    tracer: &mut Tracer,
    db: &Database,
    dsl: &str,
    handle: &GraphHandle,
    out: &mut Outcome,
) {
    let gg = GraphGen::new(db);
    let threads = GraphGenConfig::default().threads();
    let extract_s = stats::median_ns(&tracer.durations_ns("core.extract"), 1e9);
    out.per_layer.set("core.extract_s", extract_s);

    let check_s = probe_s(tracer, "dsl.check", MICRO_PROBE_REPS, || gg.check(dsl));
    let explain_s = probe_s(tracer, "planner.explain", MICRO_PROBE_REPS, || {
        gg.explain(dsl)
    });
    out.per_layer.set("dsl.check_us", check_s * 1e6);
    // `explain` checks first, then costs.
    out.per_layer
        .set("planner.explain_us", (explain_s - check_s).max(0.0) * 1e6);

    let queries: Vec<_> = handle
        .report()
        .plans
        .iter()
        .flat_map(|plan| &plan.segments)
        .map(|segment| &segment.query)
        .collect();
    let rows_in: usize = queries
        .iter()
        .flat_map(|q| &q.steps)
        .map(|step| db.table(&step.table).map_or(0, |t| t.num_rows()))
        .sum();
    let mut rows_out = 0;
    let s = probe_s(tracer, "reldb.segment_queries", PROBE_REPS, || {
        rows_out = queries
            .iter()
            .map(|q| q.run_threaded(db, threads).map_or(0, |rows| rows.len()))
            .sum();
    });
    out.per_layer.set("reldb.segment_query_s", s);
    out.per_layer.set("reldb.rows_in", rows_in as f64);
    out.per_layer.set("reldb.rows_out", rows_out as f64);

    // The product's own phase spans, summed per label over one extraction.
    let mut phase_s: Vec<(&str, Vec<f64>)> = ["scan", "join", "distinct", "build_rep"]
        .into_iter()
        .map(|label| (label, Vec::new()))
        .collect();
    for _ in 0..PROBE_REPS {
        let (_, phases) = collect_phases(|| gg.extract(dsl));
        for (label, times) in &mut phase_s {
            let ns: u64 = phases.iter().filter(|(l, _)| l == label).map(|p| p.1).sum();
            times.push(ns as f64 / 1e9);
        }
    }
    for ((_, times), metric) in phase_s.into_iter().zip([
        "reldb.scan_s",
        "reldb.join_s",
        "reldb.distinct_s",
        "graph.build_rep_s",
    ]) {
        out.per_layer
            .set(metric, stats::median(&stats::sorted(times)));
    }

    let t1 = single_thread(db);
    let t1_s = probe_s(tracer, "core.extract_t1", PROBE_REPS, || t1.extract(dsl));
    out.per_layer.set("core.extract_t1_s", t1_s);
    if extract_s > 0.0 {
        out.per_layer
            .set("core.extract_parallel_speedup", t1_s / extract_s);
    }
    let (_, alloc) = graphgen_bench::alloc::measure(|| gg.extract(dsl));
    out.per_layer.set(
        "core.extract_alloc_mib",
        alloc.total as f64 / (1 << 20) as f64,
    );

    out.per_layer
        .set("graph.rep_bytes", handle.heap_bytes() as f64);
    out.per_layer
        .set("graph.logical_edges", handle.expanded_edge_count() as f64);
    let virtual_nodes = handle
        .graph()
        .as_condensed()
        .map_or(0, |core| core.num_virtual());
    out.per_layer
        .set("graph.virtual_nodes", virtual_nodes as f64);
}
