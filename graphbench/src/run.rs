//! What a workload is given and what it hands back.

use crate::manifest::{Values, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Repetitions of a set-up (or a recovery) per run: at least `MIN_REPS`,
/// then more until they have taken `REPS_BUDGET` together or there are
/// `MAX_REPS` of them. The median time is reported. A millisecond set-up is
/// repeated for seconds because this sandbox's CPU speed drifts by ±15%
/// over seconds: a median of many repetitions taken within 50 ms inherits
/// whatever speed that moment had.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 1000;
const REPS_BUDGET: Duration = Duration::from_secs(2);

/// Repetitions of an after-window layer probe that takes milliseconds or
/// more, and of one that takes microseconds; the median is reported.
pub const PROBE_REPS: usize = 3;
pub const MICRO_PROBE_REPS: usize = 101;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Every generated input derives from this.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Tiny data (the self-check's mode).
    pub smoke: bool,
    /// Record spans and run the layer probes.
    pub trace: bool,
    /// Compare against a deliberately wrong reference, to show that a
    /// failing output check fails the run.
    pub inject_check_failure: bool,
    /// Directory for WAL directories and `trace.jsonl`.
    pub scratch: std::path::PathBuf,
}

/// One run's results.
#[derive(Debug)]
pub struct Outcome {
    /// Operations started inside the timed window (warm-up excluded).
    pub attempted: u64,
    /// Of those, how many returned an error or a non-`OK` reply.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// Samples behind `op_p50_ms`.
    pub op_samples: usize,
    pub end_to_end: Values,
    /// All zero unless the run was traced.
    pub per_layer: Values,
    /// One tracer per benchmark thread.
    pub tracers: Vec<Tracer>,
    /// Human-readable facts about the run (sizes, thread counts, which
    /// check failed).
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
            op_samples: 0,
            end_to_end: Values::new(END_TO_END),
            per_layer: Values::new(PER_LAYER),
            tracers: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// Record an output check; a failed one is named in the notes.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("OUTPUT CHECK FAILED: {what}"));
        }
    }

    /// Fill the latency and throughput metrics from the op samples of a
    /// window that took `elapsed` and completed `completed` operations.
    pub fn set_op_metrics(&mut self, op_ns: &[u64], completed: u64, elapsed: Duration) {
        let ms = stats::sorted(op_ns.iter().map(|&ns| ns as f64 / 1e6).collect());
        self.op_samples = ms.len();
        self.end_to_end.set("op_p50_ms", stats::median(&ms));
        self.end_to_end
            .set("ops_per_s", completed as f64 / elapsed.as_secs_f64());
    }
}

/// Run `setup` several times, dropping all but the last product; returns
/// that product and the median time of one run in seconds.
pub fn repeated<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(MAX_REPS);
    let mut product = None;
    let start = Instant::now();
    while times.len() < MIN_REPS || (times.len() < MAX_REPS && start.elapsed() < REPS_BUDGET) {
        // The previous product goes first, so two never coexist and the
        // memory peak is that of one set-up.
        drop(product.take());
        let t0 = Instant::now();
        product = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        product.expect("MIN_REPS > 0"),
        stats::median(&stats::sorted(times)),
    )
}

/// The timed window of a batch workload: run `op` back to back until
/// `window` has passed, then fill the latency, throughput and memory
/// metrics. `op` gets the pass number; returns the last successful product
/// (`warm`, the warm-up's, if none succeeded).
pub fn timed_window<T>(
    out: &mut Outcome,
    window: Duration,
    warm: T,
    mut op: impl FnMut(u32) -> Result<T, String>,
) -> T {
    let mut last = warm;
    let mut samples: Vec<u64> = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    while start.elapsed() < window {
        let t0 = Instant::now();
        let result = op(out.attempted as u32 + 1);
        samples.push(t0.elapsed().as_nanos() as u64);
        out.attempted += 1;
        match result {
            // The previous product is dropped here: inside the window, but
            // outside any op's time.
            Ok(product) => last = product,
            Err(_) => out.failed += 1,
        }
    }
    let elapsed = start.elapsed();
    out.end_to_end.set("peak_mem_mib", peak_mib());
    out.set_op_metrics(&samples, out.attempted - out.failed, elapsed);
    last
}

/// Peak live heap bytes since [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    graphgen_bench::alloc::stats().peak as f64 / (1 << 20) as f64
}

/// Restart the peak-memory high-water mark from what is live now.
pub fn reset_peak() {
    graphgen_bench::alloc::measure(|| ());
}

/// Median seconds of `reps` runs of `f`, each inside a span.
pub fn probe_s<R>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = tracer.span(name, 0, &mut f);
        times.push(t0.elapsed().as_secs_f64());
        drop(std::hint::black_box(out));
    }
    stats::median(&stats::sorted(times))
}
