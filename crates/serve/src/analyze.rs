//! The `ANALYZE` engine: background analytics on pinned snapshots with a
//! versioned result cache.
//!
//! # Execution model
//!
//! An `ANALYZE <graph> <algo>` request pins the currently published
//! [`GraphSnapshot`] (one `Arc` bump — the same
//! entry point every reader uses) and hands the computation to a small
//! fixed worker pool. The accept loop, other reader connections, and the
//! writer are never involved: an hour-long PageRank occupies one pool
//! worker and nothing else, while publishes keep landing and point reads
//! keep serving the freshest version.
//!
//! # Cache
//!
//! Results land in a map keyed `(graph, algo, params, version)`:
//!
//! * a repeated request for a version already computed is a **hit** —
//!   no recomputation, the cached entry is returned as-is;
//! * concurrent requests for the same key are **single-flight**: the first
//!   claims the key, the rest block on its flight handle, exactly one
//!   computation runs;
//! * a publish does not delete anything — stale entries are retained until
//!   evicted (the newest [`KEEP_VERSIONS`] versions per key group survive)
//!   and served with their `version=` tag so a client pinned to an old
//!   version keeps its answers;
//! * recovery starts cold by construction: the cache is an in-memory
//!   field of the service, never persisted.
//!
//! # Condensed-direct dispatch and warm starts
//!
//! [`compute_on_handle`] calls the library entry points, which pick the
//! kernel themselves (`graphgen_algo::condensed_path`): the aggregated
//! path for single-layer DEDUP-1 cores, the sort-merge path for
//! single-layer C-DUP/BITMAP cores (neither materializes the expanded
//! adjacency), and plain traversal for EXP/DEDUP-2. The one choice left
//! here is a `convert`-to-EXP fall-back for multi-layer cores. PageRank reuses
//! the previous version's cached rank vector as its starting point
//! whenever one exists (the fixpoint is unique, so the seed only buys
//! iterations); connected components reuse previous labels only while no
//! publish since that version removed a vertex or edge (min-label
//! propagation cannot recover from a component split).

use crate::error::{ServeError, ServeResult};
use crate::protocol::format_value;
use crate::service::{GraphService, GraphSnapshot};
use graphgen_algo::{
    average_clustering, components_seeded, condensed_path, degrees, pagerank_seeded, triangles,
    CondensedPath, PageRankRun, SeededPageRankConfig,
};
use graphgen_common::metrics::{self, Counter, Histogram, Phase};
use graphgen_common::region::Region;
use graphgen_common::FxHashMap;
use graphgen_core::{ConvertOptions, GraphHandle, GraphPatch};
use graphgen_graph::{GraphRep, RealId, RepKind};
use std::borrow::Cow;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Background workers shared by every analysis of one service.
const WORKERS: usize = 2;

/// Cached result versions retained per `(graph, algo, params)` group.
pub const KEEP_VERSIONS: usize = 2;

// ---------------------------------------------------------------------------
// Request vocabulary
// ---------------------------------------------------------------------------

/// The analyses the `ANALYZE` verb can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Per-vertex out-degree distribution summary.
    Degree,
    /// Convergence PageRank (`damping=`, `iters=`, `tol=` parameters).
    Pagerank,
    /// Connected components by min-label propagation.
    Components,
    /// Global triangle count.
    Triangles,
    /// Average clustering coefficient.
    Clustering,
}

impl Algo {
    /// Parse a protocol token (case-insensitive, common aliases accepted).
    pub fn parse(tok: &str) -> Option<Algo> {
        match tok.to_ascii_lowercase().as_str() {
            "degree" | "degrees" => Some(Algo::Degree),
            "pagerank" | "pr" => Some(Algo::Pagerank),
            "components" | "cc" => Some(Algo::Components),
            "triangles" => Some(Algo::Triangles),
            "clustering" => Some(Algo::Clustering),
            _ => None,
        }
    }

    /// Stable lower-case protocol name.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Degree => "degree",
            Algo::Pagerank => "pagerank",
            Algo::Components => "components",
            Algo::Triangles => "triangles",
            Algo::Clustering => "clustering",
        }
    }

    /// Every supported algorithm (oracle-suite iteration order).
    pub fn all() -> [Algo; 5] {
        [
            Algo::Degree,
            Algo::Pagerank,
            Algo::Components,
            Algo::Triangles,
            Algo::Clustering,
        ]
    }
}

/// Parameters of one analysis request. Only PageRank reads them; the
/// protocol layer rejects parameters on the other algorithms so a typo
/// cannot silently key a duplicate cache entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzeParams {
    /// PageRank damping factor (`damping=`), in `(0, 1)`.
    pub damping: f64,
    /// Convergence tolerance (`tol=`): stop once the L∞ rank change of an
    /// iteration drops below it.
    pub tol: f64,
    /// Hard iteration cap (`iters=`).
    pub max_iterations: usize,
}

impl Default for AnalyzeParams {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tol: 1e-12,
            max_iterations: 200,
        }
    }
}

impl AnalyzeParams {
    /// Parse `k=v` tokens (`damping=0.9 iters=50 tol=1e-9`); unspecified
    /// keys keep their defaults.
    pub fn parse(tokens: &[&str]) -> ServeResult<AnalyzeParams> {
        let mut params = AnalyzeParams::default();
        for tok in tokens {
            let (key, value) = tok.split_once('=').ok_or_else(|| {
                ServeError::Protocol(format!("parameter `{tok}` is not of the form k=v"))
            })?;
            let bad = |what: &str| ServeError::Protocol(format!("bad {what} `{value}`"));
            match key.to_ascii_lowercase().as_str() {
                "damping" => {
                    params.damping = value.parse().map_err(|_| bad("damping"))?;
                    if !(params.damping > 0.0 && params.damping < 1.0) {
                        return Err(bad("damping (need 0 < d < 1)"));
                    }
                }
                "tol" => {
                    params.tol = value.parse().map_err(|_| bad("tol"))?;
                    if params.tol <= 0.0 || params.tol.is_nan() {
                        return Err(bad("tol (need > 0)"));
                    }
                }
                "iters" | "iterations" => {
                    params.max_iterations = value.parse().map_err(|_| bad("iters"))?;
                    if params.max_iterations == 0 {
                        return Err(bad("iters (need >= 1)"));
                    }
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unknown parameter `{other}` (damping, tol, iters)"
                    )))
                }
            }
        }
        Ok(params)
    }

    /// Canonical cache-key rendering: only the parameters the algorithm
    /// actually reads, so `ANALYZE g degree` and a future parameterized
    /// spelling share one cache line.
    pub fn canonical(&self, algo: Algo) -> String {
        match algo {
            Algo::Pagerank => format!(
                "damping={:?} tol={:?} iters={}",
                self.damping, self.tol, self.max_iterations
            ),
            _ => String::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// What one computation produced (cache payload plus warm-start state).
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// Which kernel strategy the dispatch picked.
    pub path: CondensedPath,
    /// Power iterations / supersteps executed (1 for one-pass algorithms).
    pub iterations: usize,
    /// One-line framing-safe rendering of the result.
    pub summary: String,
    /// Per-slot out-degrees (degree analysis only; oracle surface).
    pub degrees: Option<Vec<u32>>,
    /// Per-slot ranks (PageRank only; the next version's warm seed).
    pub ranks: Option<Vec<f64>>,
    /// Per-slot component labels (components only; warm seed).
    pub labels: Option<Vec<u32>>,
}

/// One cached analysis result, pinned to the graph version it ran on.
#[derive(Debug)]
pub struct AnalysisEntry {
    version: u64,
    algo: Algo,
    warm: bool,
    outcome: AnalysisOutcome,
}

impl AnalysisEntry {
    /// The graph version the analysis ran on.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The algorithm that produced this entry.
    pub fn algo(&self) -> Algo {
        self.algo
    }

    /// Whether the run was warm-started from a previous version's result.
    pub fn warm(&self) -> bool {
        self.warm
    }

    /// The computed result.
    pub fn outcome(&self) -> &AnalysisOutcome {
        &self.outcome
    }

    /// Render the protocol response line: the `version=` tag, a freshness
    /// flag against the currently published version, and the summary.
    pub fn render(&self, current_version: u64) -> String {
        format!(
            "version={} fresh={} algo={} path={} warm={} iterations={} {}",
            self.version,
            self.version == current_version,
            self.algo.label(),
            self.outcome.path.label(),
            self.warm,
            self.outcome.iterations,
            self.outcome.summary
        )
    }
}

/// Engine-wide counters (the `ANALYZE STATUS` / bare `STATS` surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeCounters {
    /// Analyses actually computed (cache misses that ran a kernel).
    pub computes: u64,
    /// Requests served from cache or joined onto an in-flight compute.
    pub hits: u64,
    /// Computes warm-started from a previous version's cached result.
    pub warm_starts: u64,
    /// Iterations the warm starts saved relative to their seed runs.
    pub iterations_saved: u64,
    /// Result entries currently retained in the cache.
    pub cached: usize,
    /// Analyses claimed but not yet finished (running or queued).
    pub in_flight: usize,
}

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

/// What degree, PageRank and components run on: the handle itself, or EXP
/// for a multi-layer core, which has no structural kernel and whose
/// traversal pays a hashed DFS per vertex per pass.
fn kernel_input(handle: &GraphHandle) -> ServeResult<Cow<'_, GraphHandle>> {
    match handle.as_condensed() {
        Some(core) if !core.is_single_layer() => handle
            .convert(RepKind::Exp, &ConvertOptions::default())
            .map(Cow::Owned)
            .map_err(|e| ServeError::Analyze(format!("expanded fall-back failed: {e}"))),
        _ => Ok(Cow::Borrowed(handle)),
    }
}

fn degree_summary(handle: &GraphHandle, degs: &[u32]) -> String {
    let mut live: Vec<u32> = handle
        .vertices()
        .map(|u| degs.get(u.0 as usize).copied().unwrap_or(0))
        .collect();
    live.sort_unstable();
    if live.is_empty() {
        return "n=0 min=0 max=0 avg=0.00 p50=0".to_string();
    }
    let n = live.len();
    let sum: u64 = live.iter().map(|&d| u64::from(d)).sum();
    format!(
        "n={n} min={} max={} avg={:.2} p50={}",
        live[0],
        live[n - 1],
        sum as f64 / n as f64,
        live[n / 2]
    )
}

fn pagerank_summary(handle: &GraphHandle, run: &PageRankRun) -> String {
    let mut top: Vec<(f64, RealId)> = handle
        .vertices()
        .map(|u| (run.ranks.get(u.0 as usize).copied().unwrap_or(0.0), u))
        .collect();
    top.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
    let rendered: Vec<String> = top
        .iter()
        .take(3)
        .map(|(rank, u)| format!("{}:{rank:.6}", format_value(handle.key_of(*u))))
        .collect();
    format!("top={}", rendered.join(","))
}

fn components_summary(handle: &GraphHandle, labels: &[u32]) -> String {
    let mut sizes: FxHashMap<u32, usize> = FxHashMap::default();
    for u in handle.vertices() {
        *sizes
            .entry(labels.get(u.0 as usize).copied().unwrap_or(u.0))
            .or_insert(0) += 1;
    }
    let largest = sizes.values().copied().max().unwrap_or(0);
    format!("components={} largest={largest}", sizes.len())
}

/// Run one analysis on a handle, dispatching to the cheapest sound kernel
/// for its representation (see the module docs). `seed` is a previous
/// version's outcome: its rank vector warm-starts PageRank, its labels
/// warm-start components — soundness gating is the *caller's* job (the
/// service only passes component labels when no removal intervened).
pub fn compute_on_handle(
    handle: &GraphHandle,
    algo: Algo,
    params: &AnalyzeParams,
    seed: Option<&AnalysisOutcome>,
    threads: usize,
) -> ServeResult<AnalysisOutcome> {
    let threads = threads.max(1);
    match algo {
        Algo::Degree => {
            let g = kernel_input(handle)?;
            let degs = degrees(&*g, threads);
            Ok(AnalysisOutcome {
                path: condensed_path(&*g),
                iterations: 1,
                summary: degree_summary(handle, &degs),
                degrees: Some(degs),
                ranks: None,
                labels: None,
            })
        }
        Algo::Pagerank => {
            let cfg = SeededPageRankConfig {
                damping: params.damping,
                tol: params.tol,
                max_iterations: params.max_iterations,
                threads,
            };
            let seed_ranks = seed.and_then(|o| o.ranks.as_deref());
            let g = kernel_input(handle)?;
            let run = pagerank_seeded(&*g, &cfg, seed_ranks);
            Ok(AnalysisOutcome {
                path: condensed_path(&*g),
                iterations: run.iterations,
                summary: pagerank_summary(handle, &run),
                degrees: None,
                ranks: Some(run.ranks),
                labels: None,
            })
        }
        Algo::Components => {
            let seed_labels = seed.and_then(|o| o.labels.as_deref());
            let g = kernel_input(handle)?;
            let (labels, supersteps) = components_seeded(&*g, threads, seed_labels);
            Ok(AnalysisOutcome {
                path: condensed_path(&*g),
                iterations: supersteps,
                summary: components_summary(handle, &labels),
                degrees: None,
                ranks: None,
                labels: Some(labels),
            })
        }
        Algo::Triangles => Ok(AnalysisOutcome {
            path: CondensedPath::Traversal,
            iterations: 1,
            summary: format!("triangles={}", triangles(handle)),
            degrees: None,
            ranks: None,
            labels: None,
        }),
        Algo::Clustering => Ok(AnalysisOutcome {
            path: CondensedPath::Traversal,
            iterations: 1,
            summary: format!("avg_clustering={:.6}", average_clustering(handle, threads)),
            degrees: None,
            ranks: None,
            labels: None,
        }),
    }
}

// ---------------------------------------------------------------------------
// The engine: worker pool + single-flight cache
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A lazily spawned fixed pool. Workers block on a shared receiver and
/// exit when the sender side (the service) is dropped; they are detached,
/// so dropping a service mid-analysis never blocks on a long kernel.
#[derive(Debug, Default)]
struct WorkerPool {
    tx: Mutex<Option<mpsc::Sender<Job>>>,
}

impl WorkerPool {
    fn submit(&self, job: Job) {
        let mut tx = self.tx.lock().unwrap();
        let sender = tx.get_or_insert_with(|| {
            let (sender, receiver) = mpsc::channel::<Job>();
            let receiver = Arc::new(Mutex::new(receiver));
            for _ in 0..WORKERS {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    let next = { receiver.lock().unwrap().recv() };
                    match next {
                        Ok(job) => job(),
                        Err(_) => break,
                    }
                });
            }
            sender
        });
        // Unreachable while the pool owns the sender, but if the workers
        // ever vanished the job must still complete (a flight is waiting).
        if let Err(mpsc::SendError(job)) = sender.send(job) {
            job();
        }
    }
}

/// The single-flight handle concurrent requests for one key share.
#[derive(Debug, Default)]
struct Flight {
    result: Mutex<Option<Result<Arc<AnalysisEntry>, String>>>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> Result<Arc<AnalysisEntry>, String> {
        let mut guard = self.result.lock().unwrap();
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = match self.cv.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn fulfil(&self, result: Result<Arc<AnalysisEntry>, String>) {
        *self.result.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    graph: String,
    algo: Algo,
    params: String,
    version: u64,
}

#[derive(Debug)]
enum Slot {
    Running(Arc<Flight>),
    Done(Arc<AnalysisEntry>),
}

#[derive(Debug, Default)]
struct CacheState {
    cache: FxHashMap<CacheKey, Slot>,
    /// Per graph: the highest version whose publish removed a vertex or an
    /// edge. A components warm seed from version `P` is sound iff
    /// `last_removal <= P` (additions can only merge components; min-label
    /// cannot recover from a split).
    last_removal: FxHashMap<String, u64>,
}

fn same_group(k: &CacheKey, key: &CacheKey) -> bool {
    k.graph == key.graph && k.algo == key.algo && k.params == key.params
}

/// Keep the newest [`KEEP_VERSIONS`] computed versions of `key`'s group.
fn evict_group(state: &mut CacheState, key: &CacheKey) {
    let mut versions: Vec<u64> = state
        .cache
        .iter()
        .filter(|(k, slot)| matches!(slot, Slot::Done(_)) && same_group(k, key))
        .map(|(k, _)| k.version)
        .collect();
    if versions.len() <= KEEP_VERSIONS {
        return;
    }
    versions.sort_unstable();
    let cutoff = versions[versions.len() - KEEP_VERSIONS];
    state.cache.retain(|k, slot| {
        !(matches!(slot, Slot::Done(_)) && same_group(k, key) && k.version < cutoff)
    });
}

/// The newest usable previous-version entry for a warm start, if any.
fn warm_seed(state: &CacheState, key: &CacheKey) -> Option<Arc<AnalysisEntry>> {
    if !matches!(key.algo, Algo::Pagerank | Algo::Components) {
        return None;
    }
    let best = state
        .cache
        .iter()
        .filter_map(|(k, slot)| match slot {
            Slot::Done(entry) if same_group(k, key) && k.version < key.version => {
                Some((k.version, entry))
            }
            _ => None,
        })
        .max_by_key(|(version, _)| *version)?;
    let entry = Arc::clone(best.1);
    if key.algo == Algo::Components {
        let last_removal = state.last_removal.get(&key.graph).copied().unwrap_or(0);
        if last_removal > entry.version {
            return None;
        }
    }
    Some(entry)
}

/// The per-service engine (owned by [`GraphService`], fresh on every
/// construction — recovery therefore starts with a cold cache).
#[derive(Debug, Default)]
pub(crate) struct Analytics {
    shared: Arc<Shared>,
    pool: WorkerPool,
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<CacheState>,
    // Registry-backed instruments (see `obs::ServeMetrics`). The counter
    // cells are shared atomics, but every *write* happens while holding
    // `state` — so reading them under the same lock (as
    // `analyze_counters` does) observes a coherent combination, never a
    // torn one like `hits > computes + cache hits issued`. Lock-free
    // readers (the METRICS exposition) still get monotone values, just
    // without cross-counter atomicity.
    computes: Counter,
    hits: Counter,
    warm_starts: Counter,
    iterations_saved: Counter,
    /// Wall time of each kernel run on the worker pool (ns).
    compute_ns: Histogram,
}

impl Analytics {
    /// Bind the engine's counters and timings to registry-owned
    /// instruments. Called once at service assembly, before any analysis
    /// can run; [`Analytics::default`] (standalone tests) keeps detached
    /// cells with identical behaviour.
    pub(crate) fn with_instruments(
        computes: Counter,
        hits: Counter,
        warm_starts: Counter,
        iterations_saved: Counter,
        compute_ns: Histogram,
    ) -> Self {
        Analytics {
            shared: Arc::new(Shared {
                state: Mutex::default(),
                computes,
                hits,
                warm_starts,
                iterations_saved,
                compute_ns,
            }),
            pool: WorkerPool::default(),
        }
    }

    /// Record a committed publish: component warm-starts become unsound
    /// past any version that removed something.
    pub(crate) fn note_publish(&self, name: &str, version: u64, patch: &GraphPatch) {
        if patch.nodes_removed > 0 || patch.stored_edges_removed > 0 {
            let mut state = self.shared.state.lock().unwrap();
            state.last_removal.insert(name.to_string(), version);
        }
    }

    /// Drop every cached entry of `name` (a dropped graph's name may be
    /// re-registered at version 1; stale entries must not collide).
    pub(crate) fn forget(&self, name: &str) {
        let mut state = self.shared.state.lock().unwrap();
        state.cache.retain(|k, _| k.graph != name);
        state.last_removal.remove(name);
    }
}

impl GraphService {
    /// Run `algo` on the currently published version of `name` — or serve
    /// the cached result when this `(version, algo, params)` was already
    /// computed. The computation happens on the service's analysis worker
    /// pool against a pinned snapshot: the accept loop, readers, and the
    /// writer proceed untouched while it runs. Concurrent requests for the
    /// same key share one computation (single-flight).
    pub fn analyze(
        &self,
        name: &str,
        algo: Algo,
        params: &AnalyzeParams,
    ) -> ServeResult<Arc<AnalysisEntry>> {
        let snap = self.snapshot(name)?;
        let threads = self.analysis_threads();
        let key = CacheKey {
            graph: name.to_string(),
            algo,
            params: params.canonical(algo),
            version: snap.version(),
        };
        let shared = Arc::clone(&self.analytics().shared);
        // Fast path under the cache lock: a hit, a flight to join, or a
        // claim of the key for this request.
        let (flight, seed) = {
            let mut state = shared.state.lock().unwrap();
            match state.cache.get(&key) {
                Some(Slot::Done(entry)) => {
                    let entry = Arc::clone(entry);
                    // Bumped before the lock drops so counter combinations
                    // stay coherent (see the `Shared` field docs).
                    shared.hits.inc();
                    drop(state);
                    return Ok(entry);
                }
                Some(Slot::Running(flight)) => {
                    let flight = Arc::clone(flight);
                    shared.hits.inc();
                    drop(state);
                    return flight.wait().map_err(ServeError::Analyze);
                }
                None => {}
            }
            let seed = warm_seed(&state, &key);
            let flight = Arc::new(Flight::default());
            state
                .cache
                .insert(key.clone(), Slot::Running(Arc::clone(&flight)));
            (flight, seed)
        };
        let job_shared = Arc::clone(&shared);
        let job_flight = Arc::clone(&flight);
        let job_key = key;
        let job_params = *params;
        self.analytics().pool.submit(Box::new(move || {
            run_analysis(
                &job_shared,
                &job_flight,
                &job_key,
                &snap,
                algo,
                &job_params,
                seed,
                threads,
            );
        }));
        flight.wait().map_err(ServeError::Analyze)
    }

    /// The newest cached result for `(name, algo, params)` across all
    /// retained versions, **without computing anything** (the
    /// `ANALYZE STATUS <graph> <algo>` verb). Errs when nothing is cached.
    pub fn analyze_cached(
        &self,
        name: &str,
        algo: Algo,
        params: &AnalyzeParams,
    ) -> ServeResult<Arc<AnalysisEntry>> {
        let probe = CacheKey {
            graph: name.to_string(),
            algo,
            params: params.canonical(algo),
            version: u64::MAX,
        };
        let state = self.analytics().shared.state.lock().unwrap();
        state
            .cache
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Done(entry) if same_group(k, &probe) => Some((k.version, entry)),
                _ => None,
            })
            .max_by_key(|(version, _)| *version)
            .map(|(_, entry)| Arc::clone(entry))
            .ok_or_else(|| {
                ServeError::Analyze(format!(
                    "no cached {} result for graph `{name}`",
                    algo.label()
                ))
            })
    }

    /// Engine-wide analysis counters, snapshotted coherently: every
    /// counter write happens under the cache-state lock, and this read
    /// holds the same lock — so the returned combination corresponds to an
    /// actual point in the engine's history (no torn `hits`/`computes`
    /// mixes mid-publish).
    pub fn analyze_counters(&self) -> AnalyzeCounters {
        let shared = &self.analytics().shared;
        let state = shared.state.lock().unwrap();
        let cached = state
            .cache
            .values()
            .filter(|slot| matches!(slot, Slot::Done(_)))
            .count();
        let in_flight = state.cache.len() - cached;
        AnalyzeCounters {
            computes: shared.computes.get(),
            hits: shared.hits.get(),
            warm_starts: shared.warm_starts.get(),
            iterations_saved: shared.iterations_saved.get(),
            cached,
            in_flight,
        }
    }
}

/// The worker-side body of one analysis: compute, publish into the cache,
/// bump counters, release the flight. Panics in a kernel are contained
/// into an error result so waiters never hang.
#[allow(clippy::too_many_arguments)]
fn run_analysis(
    shared: &Shared,
    flight: &Flight,
    key: &CacheKey,
    snap: &GraphSnapshot,
    algo: Algo,
    params: &AnalyzeParams,
    seed: Option<Arc<AnalysisEntry>>,
    threads: usize,
) {
    let warm = seed.is_some();
    let seed_iterations = seed.as_ref().map(|e| e.outcome.iterations);
    let t0 = Instant::now();
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _span = metrics::span(Phase::AnalyzeCompute, Region::Analyze);
        compute_on_handle(
            snap.handle(),
            algo,
            params,
            seed.as_ref().map(|e| e.outcome()),
            threads,
        )
    }));
    shared.compute_ns.record_since(t0);
    let result: Result<Arc<AnalysisEntry>, String> = match computed {
        Ok(Ok(outcome)) => Ok(Arc::new(AnalysisEntry {
            version: key.version,
            algo,
            warm,
            outcome,
        })),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("analysis worker panicked".to_string()),
    };
    {
        let mut state = shared.state.lock().unwrap();
        match &result {
            Ok(entry) => {
                // Only a still-claimed key is filled in: the graph may have
                // been dropped (and forgotten) while the kernel ran.
                if matches!(state.cache.get(key), Some(Slot::Running(_))) {
                    state
                        .cache
                        .insert(key.clone(), Slot::Done(Arc::clone(entry)));
                    evict_group(&mut state, key);
                }
                shared.computes.inc();
                if warm {
                    shared.warm_starts.inc();
                    if let Some(prev) = seed_iterations {
                        let saved = prev.saturating_sub(entry.outcome.iterations) as u64;
                        shared.iterations_saved.add(saved);
                    }
                }
            }
            Err(_) => {
                if matches!(state.cache.get(key), Some(Slot::Running(_))) {
                    state.cache.remove(key);
                }
            }
        }
    }
    flight.fulfil(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{fig1_db, Q1};
    use crate::service::TableMutation;
    use graphgen_reldb::Value;

    #[test]
    fn algo_and_param_parsing() {
        assert_eq!(Algo::parse("PageRank"), Some(Algo::Pagerank));
        assert_eq!(Algo::parse("cc"), Some(Algo::Components));
        assert_eq!(Algo::parse("nope"), None);
        let p = AnalyzeParams::parse(&["damping=0.9", "iters=50", "tol=1e-9"]).unwrap();
        assert_eq!(p.damping, 0.9);
        assert_eq!(p.max_iterations, 50);
        assert_eq!(p.tol, 1e-9);
        for bad in ["damping=1.5", "tol=0", "iters=0", "x=1", "damping"] {
            assert!(AnalyzeParams::parse(&[bad]).is_err(), "{bad}");
        }
        // Canonical params: only PageRank keys on them.
        assert_eq!(p.canonical(Algo::Degree), "");
        assert!(p.canonical(Algo::Pagerank).contains("damping=0.9"));
    }

    #[test]
    fn analyze_serves_and_caches() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("g", Q1).unwrap();
        let params = AnalyzeParams::default();
        let first = service.analyze("g", Algo::Degree, &params).unwrap();
        assert_eq!(first.version(), 1);
        assert!(!first.warm());
        assert!(first.outcome().degrees.is_some());
        // Same key again: a hit, the identical Arc.
        let second = service.analyze("g", Algo::Degree, &params).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let counters = service.analyze_counters();
        assert_eq!(counters.computes, 1);
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.cached, 1);
    }

    #[test]
    fn warm_start_after_publish_and_render_tags() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("g", Q1).unwrap();
        let params = AnalyzeParams::default();
        let v1 = service.analyze("g", Algo::Pagerank, &params).unwrap();
        service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(2), Value::int(3)]],
                vec![],
            )])
            .unwrap();
        let v2 = service.analyze("g", Algo::Pagerank, &params).unwrap();
        assert_eq!(v2.version(), 2);
        assert!(v2.warm(), "second run must seed from the cached v1 ranks");
        assert!(v1.render(2).contains("version=1 fresh=false"));
        assert!(v2
            .render(2)
            .starts_with("version=2 fresh=true algo=pagerank"));
        let counters = service.analyze_counters();
        assert_eq!(counters.warm_starts, 1);
    }

    #[test]
    fn component_seeds_are_dropped_after_removals() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("g", Q1).unwrap();
        let params = AnalyzeParams::default();
        service.analyze("g", Algo::Components, &params).unwrap();
        // A removal publish: the v1 labels are no longer a sound seed.
        service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![],
                vec![vec![Value::int(3), Value::int(3)]],
            )])
            .unwrap();
        let after = service.analyze("g", Algo::Components, &params).unwrap();
        assert!(!after.warm(), "seed must be rejected after a removal");
        // An insert-only publish: the fresh labels become a sound seed.
        service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(3), Value::int(3)]],
                vec![],
            )])
            .unwrap();
        let again = service.analyze("g", Algo::Components, &params).unwrap();
        assert!(again.warm());
    }

    #[test]
    fn cached_lookup_and_eviction() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("g", Q1).unwrap();
        let params = AnalyzeParams::default();
        assert!(service.analyze_cached("g", Algo::Degree, &params).is_err());
        for round in 0u64..4 {
            service.analyze("g", Algo::Degree, &params).unwrap();
            service
                .apply(&[TableMutation::new(
                    "AuthorPub",
                    vec![vec![Value::int(2), Value::int(3 + round as i64)]],
                    vec![],
                )])
                .unwrap();
        }
        // Four versions computed, only KEEP_VERSIONS retained.
        assert_eq!(service.analyze_counters().cached, KEEP_VERSIONS);
        let latest = service.analyze_cached("g", Algo::Degree, &params).unwrap();
        assert_eq!(latest.version(), 4);
        service.drop_graph("g").unwrap();
        assert!(service.analyze_cached("g", Algo::Degree, &params).is_err());
    }
}
