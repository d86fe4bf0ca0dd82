//! Figure 12: (a) deduplication algorithm runtimes; (b) sensitivity to the
//! vertex processing order (pass `--orderings`).
//!
//! Every DEDUP-1 and DEDUP-2 result it times is checked afterwards, outside
//! the timed closure: a DEDUP-1 must pass `validate_dedup1`, and every
//! result must expand to the C-DUP's edge list. The binary exits non-zero
//! if any check fails.

use graphgen_bench::{has_flag, ms, row, small_datasets, time};
use graphgen_common::VertexOrdering;
use graphgen_dedup::{bitmap1, bitmap2, dedup2_greedy, Dedup1Algorithm};
use graphgen_graph::{expand_to_edge_list, validate::validate_dedup1, Dedup1Graph, GraphRep};

/// Does `got` expand to `want`, the C-DUP's edge list? Reports a mismatch.
fn expands_to(what: &str, want: &[(u32, u32)], got: &impl GraphRep) -> bool {
    let same = expand_to_edge_list(got) == want;
    if !same {
        eprintln!("{what}: expansion differs from the C-DUP's");
    }
    same
}

/// Is `got` a valid DEDUP-1 that expands to `want`? Reports what is wrong.
fn dedup1_ok(what: &str, want: &[(u32, u32)], got: &Dedup1Graph) -> bool {
    let valid = validate_dedup1(got)
        .map_err(|e| eprintln!("{what}: not a valid DEDUP-1: {e}"))
        .is_ok();
    expands_to(what, want, got) && valid
}

fn main() {
    let failures = if has_flag("--orderings") {
        orderings()
    } else {
        algorithms()
    };
    if failures > 0 {
        eprintln!("{failures} deduplicated graph(s) failed their check");
        std::process::exit(1);
    }
}

/// Fig. 12a; returns the number of results that failed their check.
fn algorithms() -> usize {
    println!("Figure 12a: deduplication times (ms, RAND ordering)\n");
    let widths = [12, 12, 12, 12, 12, 12, 12, 12];
    row(
        &[
            "dataset",
            "BITMAP-1",
            "BITMAP-2",
            "Naive-VNF",
            "Naive-RNF",
            "Greedy-RNF",
            "Greedy-VNF",
            "DEDUP-2",
        ]
        .map(String::from),
        &widths,
    );
    let mut failures = 0;
    for (name, cdup) in small_datasets() {
        let want = expand_to_edge_list(&cdup);
        let (_, t_b1) = time(|| bitmap1(cdup.clone()));
        let (_, t_b2) = time(|| bitmap2(cdup.clone()));
        let mut cols = vec![name.to_string(), ms(t_b1), ms(t_b2)];
        for algo in Dedup1Algorithm::all() {
            let (d, t) = time(|| algo.run(&cdup, VertexOrdering::Random, 7));
            cols.push(ms(t));
            let what = format!("{name} {}", algo.label());
            failures += usize::from(!dedup1_ok(&what, &want, &d));
        }
        let (d2, t_d2) = time(|| dedup2_greedy(&cdup, VertexOrdering::Random, 7));
        cols.push(ms(t_d2));
        failures += usize::from(!expands_to(&format!("{name} DEDUP-2"), &want, &d2));
        row(&cols, &widths);
    }
    println!("\npaper shape: BITMAP-1 fastest; DEDUP-1/DEDUP-2 algorithms orders of");
    println!("magnitude slower (log-scale in the paper) — a one-time cost.");
    failures
}

/// Fig. 12b; returns the number of results that failed their check.
fn orderings() -> usize {
    println!("Figure 12b: effect of vertex ordering on DEDUP-1 (Greedy-VNF)\n");
    let widths = [12, 8, 14, 14];
    row(
        &["dataset", "order", "time(ms)", "stored_edges"].map(String::from),
        &widths,
    );
    let mut failures = 0;
    for (name, cdup) in small_datasets() {
        let want = expand_to_edge_list(&cdup);
        for ord in VertexOrdering::all() {
            let (d, t) = time(|| Dedup1Algorithm::GreedyVnf.run(&cdup, ord, 7));
            let what = format!("{name} Greedy-VNF {}", ord.label());
            failures += usize::from(!dedup1_ok(&what, &want, &d));
            row(
                &[
                    name.to_string(),
                    ord.label().to_string(),
                    ms(t),
                    d.stored_edge_count().to_string(),
                ],
                &widths,
            );
        }
    }
    println!("\npaper shape: only small variations across orderings; RAND recommended.");
    failures
}
