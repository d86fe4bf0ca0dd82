//! Figure 11: Degree / BFS / PageRank runtimes per representation,
//! normalized to EXP (DBLP and Synthetic_1, like the paper's figure).
//!
//! Each row names the kernel path its representation ran
//! (`condensed_path`: aggregated, merged or traversal). Every result it
//! times is checked afterwards, outside the timed closures, against EXP's:
//! degrees and BFS distances exactly, PageRank to 1e-12. The binary exits
//! non-zero if any check fails.

use graphgen_algo::{bfs, condensed_path, degrees, pagerank, PageRankConfig};
use graphgen_bench::{row, small_datasets, time, RepSet};
use graphgen_graph::{GraphRep, RealId};
use std::time::Duration;

fn bfs_sources(n: usize) -> Vec<RealId> {
    // The paper uses a fixed set of 50 random sources.
    let mut rng = graphgen_common::SplitMix64::new(999);
    (0..50)
        .map(|_| RealId(rng.next_below(n as u64) as u32))
        .collect()
}

/// One representation's kernel results and their times.
struct Run {
    degrees: Vec<u32>,
    bfs: Vec<Vec<u32>>,
    ranks: Vec<f64>,
    times: [Duration; 3],
}

fn run_kernels<G: GraphRep + Sync>(g: &G, sources: &[RealId]) -> Run {
    let (degrees, t_degree) = time(|| degrees(g, 4));
    let (bfs, t_bfs) = time(|| sources.iter().map(|&s| bfs(g, s)).collect());
    let (ranks, t_pr) = time(|| {
        pagerank(
            g,
            PageRankConfig {
                damping: 0.85,
                iterations: 10,
                threads: 4,
            },
        )
    });
    Run {
        degrees,
        bfs,
        ranks,
        times: [t_degree, t_bfs, t_pr],
    }
}

/// Does `got` match EXP's results? Reports each mismatch.
fn matches(what: &str, want: &Run, got: &Run) -> bool {
    let mut ok = true;
    if got.degrees != want.degrees {
        eprintln!("{what}: degrees differ from EXP's");
        ok = false;
    }
    if got.bfs != want.bfs {
        eprintln!("{what}: BFS distances differ from EXP's");
        ok = false;
    }
    let worst = got
        .ranks
        .iter()
        .zip(&want.ranks)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if got.ranks.len() != want.ranks.len() || worst > 1e-12 {
        eprintln!("{what}: PageRank differs from EXP's (L∞ {worst:e})");
        ok = false;
    }
    ok
}

fn main() {
    println!("Figure 11: algorithm runtimes normalized to EXP\n");
    let widths = [12, 12, 12, 12, 12];
    let mut failures = 0;
    for (name, cdup) in small_datasets() {
        if name != "DBLP" && name != "Synthetic_1" {
            continue;
        }
        println!("--- {name} ---");
        row(
            &["rep", "path", "degree", "bfs(x50)", "pagerank"].map(String::from),
            &widths,
        );
        let set = RepSet::build(name, cdup);
        let sources = bfs_sources(set.exp.num_real_slots());
        let base = run_kernels(&set.exp, &sources);
        let norm = |i: usize, run: &Run| {
            let b = base.times[i].as_secs_f64().max(1e-9);
            format!("{:.2}", run.times[i].as_secs_f64() / b)
        };
        let mut rows = vec![
            ("EXP", condensed_path(&set.exp), None),
            (
                "C-DUP",
                condensed_path(&set.cdup),
                Some(run_kernels(&set.cdup, &sources)),
            ),
            (
                "DEDUP-1",
                condensed_path(&set.dedup1),
                Some(run_kernels(&set.dedup1, &sources)),
            ),
            (
                "BITMAP-1",
                condensed_path(&set.bitmap1),
                Some(run_kernels(&set.bitmap1, &sources)),
            ),
            (
                "BITMAP-2",
                condensed_path(&set.bitmap2),
                Some(run_kernels(&set.bitmap2, &sources)),
            ),
        ];
        if let Some(d2) = &set.dedup2 {
            rows.push((
                "DEDUP-2",
                condensed_path(d2),
                Some(run_kernels(d2, &sources)),
            ));
        }
        for (label, path, run) in &rows {
            let shown = run.as_ref().unwrap_or(&base);
            row(
                &[
                    label.to_string(),
                    path.label().to_string(),
                    norm(0, shown),
                    norm(1, shown),
                    norm(2, shown),
                ],
                &widths,
            );
            if run
                .as_ref()
                .is_some_and(|run| !matches(&format!("{name} {label}"), &base, run))
            {
                failures += 1;
            }
        }
        println!();
    }
    println!("paper shape: EXP = 1.0 baseline; C-DUP pays the on-the-fly hashset cost");
    println!(
        "(largest on many-small-virtual-node datasets); DEDUP-1/BITMAP-2 close most of the gap."
    );
    println!("here single-layer condensed rows run on the structure (aggregated/merged),");
    println!("so their degree and PageRank no longer pay the per-vertex traversal.");
    if failures > 0 {
        eprintln!("{failures} representation(s) disagreed with EXP");
        std::process::exit(1);
    }
}
