//! Command line: one workload for the driver, or `--all` for a person.

use crate::manifest::{Values, WORKLOADS};
use crate::run::{Opts, Outcome};
use crate::{batch, serve, stats, trace};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: graphbench --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]
       graphbench --all [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--repeat <n>]

  --workload <name>  extract_sparse | analyze_dense | serve_read_heavy | serve_write_heavy
  --all              run the four workloads; with --trace, each twice (untraced, then traced)
  --seed <n>         every generated input derives from it (default 1)
  --seconds <s>      timed window after warm-up (default 20; 1 with --smoke)
  --trace [0|1]      record spans, run the layer probes, report the per-layer metrics
  --smoke            tiny data: checks the harness, measures nothing
  --repeat <n>       with --all: n runs per workload at seeds seed..seed+n; prints quartiles
                     and fails if a metric's spread (IQR / median) exceeds 0.10
  --out <file>       with --workload: where --trace writes its spans (default:
                     trace-<workload>.jsonl in the scratch directory beside the executable)
  --inject-check-failure   compare outputs against a wrong reference (must exit non-zero)

A single-workload run ends with one JSON line on standard output: the end-to-end
metrics, or with --trace 1 the per-layer metrics.";

/// Spread above which `--repeat` fails a metric.
const MAX_SPREAD: f64 = 0.10;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    inject_check_failure: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        inject_check_failure: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => args.smoke = true,
            "--inject-check-failure" => args.inject_check_failure = true,
            // The driver passes `--trace 0|1`; a person may pass it bare.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (&args.workload, args.all) {
        (Some(_), true) => Err("--workload and --all exclude each other".into()),
        (None, false) => Err("one of --workload and --all is required".into()),
        (Some(w), false) if !WORKLOADS.contains(&w.as_str()) => {
            Err(format!("unknown workload `{w}`"))
        }
        (Some(_), false) if args.repeat > 1 => Err("--repeat needs --all".into()),
        (None, true) if args.out.is_some() => Err("--out needs --workload".into()),
        _ => Ok(args),
    }
}

/// A directory beside the executable — inside the build directory, which
/// the repository ignores — for WAL directories and `trace.jsonl`.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("graphbench-scratch");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run_workload(name: &str, opts: &Opts) -> Outcome {
    match name {
        "extract_sparse" => batch::extract_sparse(opts),
        "analyze_dense" => batch::analyze_dense(opts),
        "serve_read_heavy" => serve::serve_read_heavy(opts),
        "serve_write_heavy" => serve::serve_write_heavy(opts),
        other => unreachable!("parse_args admitted workload `{other}`"),
    }
}

/// Run one workload and, for a traced run, finish its per-layer values and
/// write the spans out.
fn run_one(name: &str, opts: &Opts, out_file: Option<&PathBuf>) -> Outcome {
    let mut outcome = run_workload(name, opts);
    if opts.trace {
        let recorded: u64 = outcome.tracers.iter().map(|t| t.recorded()).sum();
        let dropped: u64 = outcome.tracers.iter().map(|t| t.dropped()).sum();
        outcome.per_layer.set("trace.spans", recorded as f64);
        outcome.per_layer.set("trace.dropped_spans", dropped as f64);
        let path = out_file
            .cloned()
            .unwrap_or_else(|| opts.scratch.join(format!("trace-{name}.jsonl")));
        match trace::write_jsonl(&path, &outcome.tracers) {
            Ok(()) => outcome
                .notes
                .push(format!("{recorded} spans written to {}", path.display())),
            Err(e) => outcome.check(&format!("write {}: {e}", path.display()), false),
        }
    }
    outcome
}

fn print_values(values: &Values) {
    for (def, value) in values.iter() {
        println!("  {:<32} {value:>16.4} {}", def.name, def.unit);
    }
}

fn print_outcome(name: &str, opts: &Opts, outcome: &Outcome) {
    println!(
        "== {name} (seed {}, window {:.1} s, {}{}) ==",
        opts.seed,
        opts.window.as_secs_f64(),
        if opts.trace { "traced" } else { "untraced" },
        if opts.smoke { ", smoke" } else { "" }
    );
    for note in &outcome.notes {
        println!("  # {note}");
    }
    println!(
        "  ops attempted {}, failed {}; {} samples behind op_p50_ms; outputs {}",
        outcome.attempted,
        outcome.failed,
        outcome.op_samples,
        if outcome.correct { "correct" } else { "WRONG" }
    );
    print_values(&outcome.end_to_end);
    if opts.trace {
        println!("  -- per layer --");
        print_values(&outcome.per_layer);
        println!("  -- spans: count, total ms, self ms --");
        for (span, (n, total, own)) in trace::self_times(&outcome.tracers) {
            println!(
                "  {span:<32} {n:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}

/// The contract's last line: one JSON object.
fn result_json(outcome: &Outcome, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn passed(outcome: &Outcome) -> bool {
    outcome.correct && outcome.failed == 0 && outcome.attempted > 0
}

/// `--all`: every workload, every metric by name with its unit.
fn run_all(args: &Args, base: &Opts) -> bool {
    let mut ok = true;
    for name in WORKLOADS {
        let mut runs: Vec<Outcome> = Vec::with_capacity(args.repeat);
        for i in 0..args.repeat {
            let opts = Opts {
                seed: base.seed + i as u64,
                trace: false,
                ..base.clone()
            };
            let outcome = run_one(name, &opts, None);
            print_outcome(name, &opts, &outcome);
            ok &= passed(&outcome);
            runs.push(outcome);
        }
        if args.trace {
            let opts = Opts {
                trace: true,
                ..base.clone()
            };
            let traced = run_one(name, &opts, None);
            print_outcome(name, &opts, &traced);
            ok &= passed(&traced);
            println!("  -- tracing overhead: traced / untraced --");
            for ((def, with), (_, without)) in
                traced.end_to_end.iter().zip(runs[0].end_to_end.iter())
            {
                println!("  {:<32} {:>16.4}", def.name, with / without);
            }
        }
        if args.repeat > 1 {
            println!(
                "  -- {} runs: q1, median, q3, spread (IQR / median) --",
                args.repeat
            );
            for (i, (def, _)) in runs[0].end_to_end.iter().enumerate() {
                let values: Vec<f64> = runs
                    .iter()
                    .map(|r| r.end_to_end.iter().nth(i).expect("same metrics").1)
                    .collect();
                let (q1, median, q3) = stats::quartiles(&values);
                let spread = (q3 - q1) / median;
                // `setup_s` is reported, not held to the limit: the driver
                // exempts it too.
                let over = spread > MAX_SPREAD && def.name != "setup_s";
                println!(
                    "  {:<32} {q1:>14.4} {median:>14.4} {q3:>14.4} {spread:>8.4}{}",
                    def.name,
                    if over { "  ABOVE 0.10" } else { "" }
                );
                ok &= !over;
            }
        }
    }
    ok
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("graphbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match scratch_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("graphbench: no scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { 20.0 });
    let opts = Opts {
        seed: args.seed,
        window: Duration::from_secs_f64(seconds),
        smoke: args.smoke,
        trace: args.trace,
        inject_check_failure: args.inject_check_failure,
        scratch,
    };
    let ok = match &args.workload {
        Some(name) => {
            let outcome = run_one(name, &opts, args.out.as_ref());
            print_outcome(name, &opts, &outcome);
            let values = if opts.trace {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            };
            println!("{}", result_json(&outcome, values));
            passed(&outcome)
        }
        None => run_all(&args, &opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
