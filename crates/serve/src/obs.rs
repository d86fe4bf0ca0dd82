//! Observability: the serving stack's instrument catalog and slow-op trace.
//!
//! One [`Obs`] lives on each [`crate::GraphService`], outside the writer
//! lock, so readers and the writer record into it without contending.  It
//! bundles three things:
//!
//! * a [`Registry`] holding every
//!   named instrument — the unlabelled catalog is declared once through
//!   [`graphgen_common::instruments!`] as [`ServeMetrics`], and the
//!   labelled families (per-verb request latency over [`Verb::ALL`],
//!   per-phase apply and extraction timings, per-code check rejections)
//!   are registered beside it, with the per-part state-bytes and
//!   database-bytes gauges;
//! * the phase router ([`Obs::record_phases`]) that folds the span labels
//!   captured by [`graphgen_common::metrics::collect_phases`] into those
//!   families;
//! * a bounded [`TraceRing`] of the last N slow or failed operations,
//!   drained by the `TRACE` verb.
//!
//! The `METRICS` verb renders the registry in Prometheus-style text
//! exposition; over the one-line-per-response wire it travels in the
//! escaped form of [`graphgen_common::metrics::escape_exposition`], and
//! `graphgen-serve --metrics-dump` prints the canonical multi-line text.

use crate::protocol::Verb;
use graphgen_common::instruments;
use graphgen_common::metrics::{Counter, Gauge, Histogram, Phase, PhaseFamily, Registry};
use graphgen_common::ByteSize;
use graphgen_core::StateBytes;
use graphgen_dsl::{Code, Severity};
use graphgen_reldb::Database;
use std::collections::VecDeque;
use std::sync::Mutex;

/// What each phase family charts, as `(family, name, help)`. The members
/// are the [`Phase`]s of that family, in declaration order: the writer's
/// publish pipeline inside [`crate::GraphService::apply`] (pre-validation,
/// the database mutation that yields the batch, the one log append —
/// encode + write + fsync —, the per-graph incremental patch, the drift
/// re-cost on the post-batch catalog, and the publication swap), and the
/// extraction spans of the relational executor, the maintenance-state bulk
/// loader and the representation builder. Within a family the spans never
/// nest, so its sums add up to the attributed share of `graphgen_apply_ns`
/// and `graphgen_extract_ns` respectively.
const PHASE_FAMILIES: [(PhaseFamily, &str, &str); 2] = [
    (
        PhaseFamily::Apply,
        "graphgen_apply_phase_ns",
        "publish pipeline phase duration (ns)",
    ),
    (
        PhaseFamily::Extract,
        "graphgen_extract_phase_ns",
        "extraction operator phase duration (ns)",
    ),
];

instruments! {
    /// The unlabelled instrument catalog of the serving stack.
    ///
    /// Declared once so the names, kinds, and help strings are enumerable
    /// (`ServeMetrics::CATALOG`) — the `METRICS` exposition, the docs
    /// table, and the oracle tests all read from this single declaration.
    pub struct ServeMetrics {
        counter requests_total: "graphgen_requests_total" =
            "protocol request lines answered (every verb, ok or error, unparsable lines included)",
        counter request_errors_total: "graphgen_request_errors_total" =
            "protocol commands answered with an ERR line",
        counter connections_opened_total: "graphgen_connections_opened_total" =
            "TCP connections accepted",
        gauge connections_active: "graphgen_connections_active" =
            "TCP connections currently open",
        counter snapshots_total: "graphgen_snapshots_total" =
            "published-snapshot pins handed to readers",
        counter extracts_total: "graphgen_extracts_total" =
            "successful EXTRACT registrations",
        histogram extract_ns: "graphgen_extract_ns" =
            "end-to-end extraction latency (ns)",
        counter applies_total: "graphgen_applies_total" =
            "accepted APPLY batches",
        counter apply_rows_total: "graphgen_apply_rows_total" =
            "delta rows across accepted APPLY batches",
        counter publishes_total: "graphgen_publishes_total" =
            "graph versions published",
        counter patch_support_changes_total: "graphgen_patch_support_changes_total" =
            "segment output pairs whose support an APPLY changed, crossing zero or not \
             (the pairs-out the incremental patch is bounded by)",
        histogram apply_ns: "graphgen_apply_ns" =
            "end-to-end APPLY latency, all phases included (ns)",
        counter wal_appends_total: "graphgen_wal_appends_total" =
            "records appended to the write-ahead log (one per accepted APPLY batch)",
        counter wal_append_bytes_total: "graphgen_wal_append_bytes_total" =
            "payload bytes appended to the write-ahead log",
        histogram wal_fsync_ns: "graphgen_wal_fsync_ns" =
            "WAL fsync duration (ns) — the durability tax per synced append",
        counter compactions_total: "graphgen_compactions_total" =
            "checkpoints: the log folded into a fresh db snapshot",
        histogram compaction_ns: "graphgen_compaction_ns" =
            "checkpoint duration, file writes and truncation included (ns)",
        histogram recovery_replay_ns: "graphgen_recovery_replay_ns" =
            "startup log replay plus the rebuild of every graph from the recovered database (ns)",
        counter recovery_records_total: "graphgen_recovery_records_total" =
            "log records replayed into the database at startup (each counted once)",
        counter analyze_computes_total: "graphgen_analyze_computes_total" =
            "ANALYZE kernel runs (cache misses)",
        counter analyze_hits_total: "graphgen_analyze_hits_total" =
            "ANALYZE cache hits, joined in-flight computations included",
        counter analyze_warm_starts_total: "graphgen_analyze_warm_starts_total" =
            "ANALYZE runs seeded from a superseded version's result",
        counter analyze_iterations_saved_total: "graphgen_analyze_iterations_saved_total" =
            "solver iterations saved by warm starts",
        histogram analyze_compute_ns: "graphgen_analyze_compute_ns" =
            "ANALYZE kernel wall time on the worker pool (ns)",
        gauge analyze_cached_entries: "graphgen_analyze_cached_entries" =
            "completed entries resident in the ANALYZE cache",
        gauge analyze_inflight: "graphgen_analyze_inflight" =
            "ANALYZE computations currently running",
        gauge graphs: "graphgen_graphs" =
            "registered graphs",
        gauge db_version: "graphgen_db_version" =
            "current database version (monotone across restarts)",
        gauge db_rows: "graphgen_db_rows" =
            "total rows across base tables",
        gauge intern_entries: "graphgen_intern_entries" =
            "ids given out by the database value dictionary, the one \
             dense-id interner every graph's state keys by",
        gauge wedged: "graphgen_wedged" =
            "1 when the writer is wedged after a divergence, else 0",
        counter slow_ops_total: "graphgen_slow_ops_total" =
            "operations at or above the slow-op threshold",
        counter trace_events_dropped_total: "graphgen_trace_events_dropped_total" =
            "slow-op trace events evicted before being drained",
    }
}

/// One slow or failed operation captured by the [`TraceRing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (survives eviction: gaps reveal drops).
    pub seq: u64,
    /// The protocol verb's label ([`Verb::label`]).
    pub verb: &'static str,
    /// Short operation detail — typically the graph or table name.
    pub detail: String,
    /// Whether the operation answered `OK`.
    pub ok: bool,
    /// End-to-end wall time in nanoseconds.
    pub total_ns: u64,
    /// Phase breakdown captured on the request thread, in completion
    /// order: `(span, ns)`.
    pub phases: Vec<(Phase, u64)>,
}

impl TraceEvent {
    /// Render the event as one space-free-field token sequence, e.g.
    /// `seq=3 verb=analyze detail=g ok=true total_ns=12345
    /// phases=scan:10,join:20`. Stays one line by construction.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seq={} verb={} detail={} ok={} total_ns={}",
            self.seq,
            self.verb,
            if self.detail.is_empty() {
                "-"
            } else {
                &self.detail
            },
            self.ok,
            self.total_ns
        );
        if !self.phases.is_empty() {
            let phases: Vec<String> = self
                .phases
                .iter()
                .map(|(phase, ns)| format!("{phase}:{ns}"))
                .collect();
            out.push_str(&format!(" phases={}", phases.join(",")));
        }
        out
    }
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
}

/// A bounded ring of the most recent slow or failed operations.
///
/// Recording past capacity evicts the oldest event; `TRACE` drains
/// oldest-first. The sequence numbers are monotone across evictions, so a
/// drained client can tell how many events it missed.
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                next_seq: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Append one event; returns `true` when an older event was evicted
    /// to make room.
    pub fn record(
        &self,
        verb: &'static str,
        detail: String,
        ok: bool,
        total_ns: u64,
        phases: Vec<(Phase, u64)>,
    ) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let dropped = inner.events.len() == self.capacity;
        if dropped {
            inner.events.pop_front();
        }
        inner.events.push_back(TraceEvent {
            seq,
            verb,
            detail,
            ok,
            total_ns,
            phases,
        });
        dropped
    }

    /// Remove and return up to `n` events, oldest first (all of them when
    /// `n` is `None`).
    pub fn drain(&self, n: Option<usize>) -> Vec<TraceEvent> {
        let mut inner = self.inner.lock().unwrap();
        let take = n.unwrap_or(usize::MAX).min(inner.events.len());
        inner.events.drain(..take).collect()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The per-service observability hub: registry, instruments, and the
/// slow-op trace. See the module docs for the layout.
#[derive(Debug)]
pub struct Obs {
    registry: Registry,
    /// The unlabelled instrument catalog (see [`ServeMetrics`]).
    pub m: ServeMetrics,
    /// `graphgen_request_ns`, indexed by `verb as usize`.
    request_ns: Vec<(&'static str, Histogram)>,
    /// Per [`Phase`] (`phase as usize`), its family's member; `None` for a
    /// phase no family charts.
    phase_ns: Vec<Option<Histogram>>,
    /// `graphgen_check_rejects_total`, one member per error code.
    rejects: Vec<(Code, Counter)>,
    /// `graphgen_state_bytes`, one member per [`StateBytes`] part.
    state_bytes: Vec<Gauge>,
    /// `graphgen_db_bytes`: the database's tables, dictionary and
    /// statistics, in that order.
    db_bytes: [Gauge; 3],
    trace: TraceRing,
    slow_op_ns: u64,
}

impl Obs {
    /// Build the hub: register the full catalog plus the labelled families
    /// in a fresh registry. `slow_op_ns` is the trace threshold;
    /// `trace_capacity` bounds the ring.
    pub fn new(slow_op_ns: u64, trace_capacity: usize) -> Self {
        let registry = Registry::new();
        let m = ServeMetrics::register(&registry);
        let help = "request latency by protocol verb (ns)";
        let request_ns = Verb::ALL
            .iter()
            .map(|v| {
                let h = registry.histogram_with("graphgen_request_ns", "verb", v.label(), help);
                (v.label(), h)
            })
            .collect();
        let phase_ns = Phase::ALL
            .iter()
            .map(|phase| {
                let (_, name, help) = PHASE_FAMILIES
                    .iter()
                    .find(|(family, _, _)| *family == phase.family())?;
                Some(registry.histogram_with(name, "phase", phase.label(), help))
            })
            .collect();
        let help = "EXTRACT requests rejected by the static checker, by diagnostic code";
        let rejects = Code::all()
            .iter()
            .filter(|c| c.severity() == Severity::Error)
            .map(|c| {
                (
                    *c,
                    registry.counter_with("graphgen_check_rejects_total", "code", c.code(), help),
                )
            })
            .collect();
        let help = "heap bytes of every graph's delta-maintenance state, by part \
                    (estimated from capacities when METRICS renders)";
        let state_bytes = StateBytes::default()
            .parts()
            .iter()
            .map(|(part, _)| registry.gauge_with("graphgen_state_bytes", "part", part, help))
            .collect();
        let help = "heap bytes of the database, by owner: id columns and tombstones, \
                    the value dictionary, the catalog's statistics (counted when METRICS renders)";
        let db_bytes = ["tables", "dictionary", "statistics"]
            .map(|part| registry.gauge_with("graphgen_db_bytes", "part", part, help));
        Obs {
            registry,
            m,
            request_ns,
            phase_ns,
            rejects,
            state_bytes,
            db_bytes,
            trace: TraceRing::new(trace_capacity),
            slow_op_ns,
        }
    }

    /// The registry holding every instrument (for exposition and tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The slow-op trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The slow-op threshold in nanoseconds.
    pub fn slow_op_ns(&self) -> u64 {
        self.slow_op_ns
    }

    /// Count one EXTRACT rejection with error `code` (warnings have none).
    pub fn record_reject(&self, code: Code) {
        if let Some((_, counter)) = self.rejects.iter().find(|(c, _)| *c == code) {
            counter.inc();
        }
    }

    /// Set `graphgen_state_bytes` to `total`, part by part.
    pub fn set_state_bytes(&self, total: &StateBytes) {
        for (gauge, (_, bytes)) in self.state_bytes.iter().zip(total.parts()) {
            gauge.set(bytes as u64);
        }
    }

    /// Set `graphgen_db_bytes` from `db`, part by part.
    pub fn set_db_bytes(&self, db: &Database) {
        let [tables, dictionary, statistics] = &self.db_bytes;
        tables.set(db.tables_heap_bytes() as u64);
        dictionary.set(db.dict().heap_bytes() as u64);
        statistics.set(db.stats_heap_bytes() as u64);
    }

    /// The codes that rejected an EXTRACT, with their counts, in code order.
    pub fn reject_counts(&self) -> Vec<(Code, u64)> {
        let counts = self.rejects.iter().map(|(c, n)| (*c, n.get()));
        counts.filter(|(_, n)| *n > 0).collect()
    }

    /// Fold the spans captured on a request thread into the phase
    /// families: each phase reaches its family member by index. A
    /// batch-only or background phase has none and is skipped (see
    /// [`PhaseFamily`]).
    pub fn record_phases(&self, phases: &[(Phase, u64)]) {
        for &(phase, ns) in phases {
            if let Some(h) = &self.phase_ns[phase as usize] {
                h.record(ns);
            }
        }
    }

    /// Account one completed protocol operation: bump the request
    /// counters, record the per-verb latency and the phase breakdown, and
    /// land the event in the trace ring when it was slow (≥ the
    /// threshold) or failed. `detail` runs only for a traced event, so a
    /// fast, successful operation allocates nothing here.
    pub fn record_op(
        &self,
        verb: Verb,
        detail: impl FnOnce() -> String,
        ok: bool,
        total_ns: u64,
        phases: Vec<(Phase, u64)>,
    ) {
        self.m.requests_total.inc();
        if !ok {
            self.m.request_errors_total.inc();
        }
        self.request_ns[verb as usize].1.record(total_ns);
        self.record_phases(&phases);
        let slow = total_ns >= self.slow_op_ns;
        if slow {
            self.m.slow_ops_total.inc();
        }
        if (slow || !ok)
            && self
                .trace
                .record(verb.label(), detail(), ok, total_ns, phases)
        {
            self.m.trace_events_dropped_total.inc();
        }
    }

    /// Render the Prometheus-style text exposition of every instrument.
    /// Gauges are whatever was last `set` — [`crate::GraphService`]
    /// refreshes them from live state before calling this.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_large_and_unique() {
        let mut names: Vec<&str> = ServeMetrics::CATALOG.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate instrument names");
        // The labelled families add 3 more names on top of the catalog.
        assert!(total + 3 >= 25, "catalog too small: {total}");
        for (name, _, help) in ServeMetrics::CATALOG {
            assert!(name.starts_with("graphgen_"), "{name}");
            assert!(!help.is_empty(), "{name} missing help");
        }
    }

    #[test]
    fn phase_labels_route_to_their_families() {
        let obs = Obs::new(u64::MAX, 4);
        obs.record_phases(&[
            (Phase::Validate, 10),
            (Phase::Scan, 20),
            (Phase::Join, 30),
            (Phase::Publish, 40),
            (Phase::LoadNodes, 50),
            (Phase::Recovery, 60),
        ]);
        let count = |name: &str, label_value: &str| {
            obs.registry()
                .snapshot()
                .into_iter()
                .find(|s| {
                    s.name == name && s.label.as_ref().map(|(_, v)| v.as_str()) == Some(label_value)
                })
                .map(|s| match s.value {
                    graphgen_common::metrics::ValueSnapshot::Histogram(h) => h.count,
                    _ => panic!("not a histogram"),
                })
                .unwrap()
        };
        assert_eq!(count("graphgen_apply_phase_ns", "validate"), 1);
        assert_eq!(count("graphgen_apply_phase_ns", "publish"), 1);
        assert_eq!(count("graphgen_extract_phase_ns", "scan"), 1);
        assert_eq!(count("graphgen_extract_phase_ns", "join"), 1);
        assert_eq!(count("graphgen_apply_phase_ns", "patch"), 0);
        // Batch-only and background phases are no family's members.
        let charted = obs.registry().snapshot().into_iter().filter(|s| {
            let label = s.label.as_ref().map(|(_, v)| v.as_str());
            label == Some("load_nodes") || label == Some("recovery")
        });
        assert_eq!(charted.count(), 0);
    }

    #[test]
    fn trace_ring_bounds_and_sequences() {
        let ring = TraceRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            let dropped = ring.record("ping", String::new(), true, i, Vec::new());
            assert_eq!(dropped, i >= 3, "record {i}");
            assert!(ring.len() <= ring.capacity());
        }
        // Oldest two were evicted: seq 2, 3, 4 remain, drained in order.
        let drained = ring.drain(Some(2));
        assert_eq!(
            drained.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
        let rest = ring.drain(None);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, 4);
        assert!(ring.is_empty());
    }

    #[test]
    fn record_op_routes_slow_and_failed() {
        let obs = Obs::new(1_000, 8);
        obs.record_op(Verb::Ping, String::new, true, 10, Vec::new()); // fast + ok
        obs.record_op(
            Verb::Apply,
            || "T".into(),
            true,
            5_000,
            vec![(Phase::Patch, 4_000)],
        ); // slow
        obs.record_op(Verb::Stats, String::new, false, 10, Vec::new()); // failed
        assert_eq!(obs.m.requests_total.get(), 3);
        assert_eq!(obs.m.request_errors_total.get(), 1);
        assert_eq!(obs.m.slow_ops_total.get(), 1);
        let events = obs.trace().drain(None);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].verb, "apply");
        assert!(events[0].render().contains("phases=patch:4000"));
        assert_eq!(events[1].verb, "stats");
        assert!(!events[1].ok);
        // Per-verb latency recorded for all three.
        for verb in [Verb::Ping, Verb::Apply, Verb::Stats] {
            assert_eq!(obs.request_ns[verb as usize].1.count(), 1, "{verb:?}");
        }
    }

    #[test]
    fn render_enumerates_the_catalog() {
        let obs = Obs::new(u64::MAX, 4);
        let text = obs.render();
        for (name, _, _) in ServeMetrics::CATALOG {
            assert!(text.contains(name), "missing {name}");
        }
        for code in Code::all()
            .iter()
            .filter(|c| c.severity() == Severity::Error)
        {
            assert!(
                text.contains(&format!(
                    "graphgen_check_rejects_total{{code=\"{}\"}} 0",
                    code.code()
                )),
                "missing code {code}"
            );
        }
    }
}
