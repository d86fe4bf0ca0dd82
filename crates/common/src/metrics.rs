//! Typed metrics instruments and a lock-cheap registry.
//!
//! The observability substrate for the serving stack: monotonic
//! [`Counter`]s, [`Gauge`]s, and fixed-bucket log-scale latency
//! [`Histogram`]s, interned by name in a [`Registry`] whose lock is taken
//! only at registration and collection time — the record path is nothing
//! but relaxed atomic adds, so instruments can sit on hot paths (the
//! serving read path records one histogram sample per request).
//!
//! Three layers live here:
//!
//! 1. **Instruments** — cheap-clone `Arc` handles. A histogram uses
//!    log-scale buckets with four sub-buckets per octave (≤ 25% relative
//!    error on a reported quantile bound), so p50/p90/p99/max are derivable
//!    from a snapshot without any allocation on the record path.
//! 2. **Spans** — [`span`] returns a guard that records wall time on drop
//!    and simultaneously enters a [`region`] so one guard
//!    yields both allocation attribution *and* phase timing. Every span is
//!    a [`Phase`], declared once below with the family that charts it.
//!    Spans push `(phase, ns)` entries into a thread-local phase log when
//!    a [`collect_phases`] scope is active, which is how a request handler
//!    reconstructs the per-phase breakdown of the call tree it just ran
//!    without the deep code knowing about any registry.
//! 3. **Exposition** — [`Registry::render`] emits Prometheus-style text
//!    (`# HELP` / `# TYPE` plus sample lines; histograms as summaries with
//!    `quantile` labels). [`escape_exposition`] /
//!    [`unescape_exposition`] convert that multi-line text to and from the
//!    documented one-line escaped form used by line-oriented protocols.
//!
//! The [`instruments!`](crate::instruments) macro generates a typed struct
//! of instruments plus a static `CATALOG` so every instrument a subsystem
//! registers is named, typed, and enumerable at compile time.

use crate::region::{self, Region};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// The kind of a registered instrument (for catalogs and exposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrarily settable `u64`.
    Gauge,
    /// Log-scale latency/size distribution.
    Histogram,
}

impl InstrumentKind {
    /// The `# TYPE` keyword used in exposition.
    pub fn exposition_type(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "summary",
        }
    }
}

/// A monotonic counter. Clones share the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (standalone use in tests
    /// and benches).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Clones share the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` (saturating at 0 is the caller's responsibility; the
    /// subtraction itself wraps like the underlying atomic).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Values below this get their own exact bucket.
const LINEAR_MAX: u64 = 8;
/// Octaves covered above the linear range: bit positions 3..=42, i.e. up
/// to ~8.8e12 (≈ 2.4 hours in nanoseconds) before clamping to the last
/// bucket.
const OCTAVES: usize = 40;
/// Total bucket count of every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * 4;

/// Bucket index for a recorded value: exact below [`LINEAR_MAX`], then
/// four sub-buckets per power of two (the top two bits below the MSB pick
/// the sub-bucket).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    if msb > 42 {
        return HISTOGRAM_BUCKETS - 1;
    }
    let sub = ((v >> (msb - 2)) & 3) as usize;
    LINEAR_MAX as usize + (msb - 3) * 4 + sub
}

/// Inclusive upper bound of a bucket (what quantiles report — a value in
/// the bucket is at most this, and at least `3/4` of it).
fn bucket_bound(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64;
    }
    if i == HISTOGRAM_BUCKETS - 1 {
        // The last bucket also absorbs everything past the covered range.
        return u64::MAX;
    }
    let octave = 3 + (i - LINEAR_MAX as usize) / 4;
    let sub = ((i - LINEAR_MAX as usize) % 4) as u64;
    (1u64 << octave) + (sub + 1) * (1u64 << (octave - 2)) - 1
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket log-scale histogram. Recording is four relaxed atomic
/// operations and never allocates; quantiles come from a [`snapshot`]
/// (`Histogram::snapshot`).
///
/// [`snapshot`]: Histogram::snapshot
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one observation (typically nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record the elapsed time of `start` in nanoseconds.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        self.record(saturating_ns(start));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Copy out the current state for quantile math and exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        // Buckets first, totals after: a racing `record` bumps the bucket
        // before the count, so `count` can only *lag* the bucket sum —
        // never exceed it — keeping `count <= bucket_sum` a stable
        // direction tests can rely on. (Perfect coherence would need a
        // lock on the record path, which is exactly what this design
        // avoids.)
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(inner.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The max is exact and tighter than the last occupied
                // bucket's bound.
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of the per-bucket counts (equals `count` when quiescent; never
    /// less than `count` under concurrent recording — see
    /// [`Histogram::snapshot`]).
    pub fn bucket_sum(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

fn saturating_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Inst {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Inst {
    fn kind(&self) -> InstrumentKind {
        match self {
            Inst::Counter(_) => InstrumentKind::Counter,
            Inst::Gauge(_) => InstrumentKind::Gauge,
            Inst::Histogram(_) => InstrumentKind::Histogram,
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: &'static str,
    help: &'static str,
    /// Optional `key="value"` pair distinguishing members of a family
    /// (e.g. `verb="extract"` under one `graphgen_request_ns` name).
    label: Option<(&'static str, String)>,
    inst: Inst,
}

/// A registry of named instruments.
///
/// Registration interns by `(name, label)` — registering the same
/// instrument twice returns a handle to the same cell — and keeps
/// registration order for exposition. The internal lock is held only
/// while registering or collecting; recording through the returned
/// handles never touches it.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, String)>,
        make: impl FnOnce() -> Inst,
    ) -> Inst {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| e.name == name && e.label == label) {
            return e.inst.clone();
        }
        let inst = make();
        entries.push(Entry {
            name,
            help,
            label,
            inst: inst.clone(),
        });
        inst
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        match self.intern(name, help, None, || Inst::Counter(Counter::new())) {
            Inst::Counter(c) => c,
            other => mismatch(name, InstrumentKind::Counter, other.kind()),
        }
    }

    /// Register a counter labelled `key="value"` within the family `name`.
    pub fn counter_with(
        &self,
        name: &'static str,
        key: &'static str,
        value: &str,
        help: &'static str,
    ) -> Counter {
        let label = Some((key, value.to_string()));
        match self.intern(name, help, label, || Inst::Counter(Counter::new())) {
            Inst::Counter(c) => c,
            other => mismatch(name, InstrumentKind::Counter, other.kind()),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        match self.intern(name, help, None, || Inst::Gauge(Gauge::new())) {
            Inst::Gauge(g) => g,
            other => mismatch(name, InstrumentKind::Gauge, other.kind()),
        }
    }

    /// Register a gauge labelled `key="value"` within the family `name`.
    pub fn gauge_with(
        &self,
        name: &'static str,
        key: &'static str,
        value: &str,
        help: &'static str,
    ) -> Gauge {
        let label = Some((key, value.to_string()));
        match self.intern(name, help, label, || Inst::Gauge(Gauge::new())) {
            Inst::Gauge(g) => g,
            other => mismatch(name, InstrumentKind::Gauge, other.kind()),
        }
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        match self.intern(name, help, None, || Inst::Histogram(Histogram::new())) {
            Inst::Histogram(h) => h,
            other => mismatch(name, InstrumentKind::Histogram, other.kind()),
        }
    }

    /// Register a histogram labelled `key="value"` within the family
    /// `name` (e.g. per-verb request latencies).
    pub fn histogram_with(
        &self,
        name: &'static str,
        key: &'static str,
        value: &str,
        help: &'static str,
    ) -> Histogram {
        let label = Some((key, value.to_string()));
        match self.intern(name, help, label, || Inst::Histogram(Histogram::new())) {
            Inst::Histogram(h) => h,
            other => mismatch(name, InstrumentKind::Histogram, other.kind()),
        }
    }

    /// Snapshot every instrument (registration order).
    pub fn snapshot(&self) -> Vec<InstrumentSnapshot> {
        let entries = self.entries.lock().unwrap();
        entries
            .iter()
            .map(|e| InstrumentSnapshot {
                name: e.name,
                label: e.label.clone(),
                value: match &e.inst {
                    Inst::Counter(c) => ValueSnapshot::Counter(c.get()),
                    Inst::Gauge(g) => ValueSnapshot::Gauge(g.get()),
                    Inst::Histogram(h) => ValueSnapshot::Histogram(Box::new(h.snapshot())),
                },
                help: e.help,
            })
            .collect()
    }

    /// Distinct instrument family names, registration order.
    pub fn names(&self) -> Vec<&'static str> {
        let entries = self.entries.lock().unwrap();
        let mut names: Vec<&'static str> = Vec::new();
        for e in entries.iter() {
            if !names.contains(&e.name) {
                names.push(e.name);
            }
        }
        names
    }

    /// Render the canonical multi-line Prometheus-style text exposition.
    ///
    /// Counters and gauges emit one sample line; histograms emit a summary
    /// (`quantile="0.5" / "0.9" / "0.99"` bucket bounds, plus `_max`,
    /// `_sum`, and `_count` lines). `# HELP` / `# TYPE` headers appear
    /// once per family.
    pub fn render(&self) -> String {
        let snaps = self.snapshot();
        let mut out = String::new();
        let mut described: Vec<&'static str> = Vec::new();
        for s in &snaps {
            if !described.contains(&s.name) {
                described.push(s.name);
                out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
                out.push_str(&format!(
                    "# TYPE {} {}\n",
                    s.name,
                    s.value.kind().exposition_type()
                ));
            }
            let labels = |extra: Option<(&str, String)>| -> String {
                let mut parts: Vec<String> = Vec::new();
                if let Some((k, v)) = &s.label {
                    parts.push(format!("{k}=\"{v}\""));
                }
                if let Some((k, v)) = extra {
                    parts.push(format!("{k}=\"{v}\""));
                }
                if parts.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", parts.join(","))
                }
            };
            match &s.value {
                ValueSnapshot::Counter(v) | ValueSnapshot::Gauge(v) => {
                    out.push_str(&format!("{}{} {}\n", s.name, labels(None), v));
                }
                ValueSnapshot::Histogram(h) => {
                    for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            s.name,
                            labels(Some(("quantile", qs.to_string()))),
                            h.quantile(q)
                        ));
                    }
                    out.push_str(&format!("{}_max{} {}\n", s.name, labels(None), h.max));
                    out.push_str(&format!("{}_sum{} {}\n", s.name, labels(None), h.sum));
                    out.push_str(&format!("{}_count{} {}\n", s.name, labels(None), h.count));
                }
            }
        }
        out
    }
}

#[cold]
fn mismatch(name: &str, wanted: InstrumentKind, found: InstrumentKind) -> ! {
    panic!("instrument {name:?} registered as {found:?}, requested as {wanted:?}")
}

/// One instrument's state in a [`Registry::snapshot`].
#[derive(Debug, Clone)]
pub struct InstrumentSnapshot {
    /// Family name (e.g. `graphgen_request_ns`).
    pub name: &'static str,
    /// Optional distinguishing label.
    pub label: Option<(&'static str, String)>,
    /// The value at snapshot time.
    pub value: ValueSnapshot,
    /// Help text.
    pub help: &'static str,
}

/// The value part of an [`InstrumentSnapshot`].
#[derive(Debug, Clone)]
pub enum ValueSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state (boxed: the bucket array is ~1.3 KiB).
    Histogram(Box<HistogramSnapshot>),
}

impl ValueSnapshot {
    /// The instrument kind this value came from.
    pub fn kind(&self) -> InstrumentKind {
        match self {
            ValueSnapshot::Counter(_) => InstrumentKind::Counter,
            ValueSnapshot::Gauge(_) => InstrumentKind::Gauge,
            ValueSnapshot::Histogram(_) => InstrumentKind::Histogram,
        }
    }
}

// ---------------------------------------------------------------------------
// Spans and the thread-local phase log
// ---------------------------------------------------------------------------

/// Which phase family a [`Phase`]'s span time is charted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseFamily {
    /// The writer's publish pipeline: `graphgen_apply_phase_ns`.
    Apply,
    /// The relational operators, the maintenance-state loader and the
    /// representation builder: `graphgen_extract_phase_ns`.
    Extract,
    /// Opened only by a batch `GraphGen::extract`, which no served request
    /// runs (a served `EXTRACT` is incremental), so no family charts them;
    /// a [`collect_phases`] caller reads them.
    BatchOnly,
    /// Timed off any request thread (startup recovery, the analyze worker
    /// pool), where no phase log is collected.
    Background,
}

/// Declares every span label once, grouped by [`PhaseFamily`]:
/// `Phase::ALL` in declaration order, `label` and `family` as matches, so
/// a consumer indexes by `phase as usize` and never compares a string.
macro_rules! phases {
    ($($family:ident { $($variant:ident => $label:literal),* $(,)? })*) => {
        /// A span label (see [`span`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Phase {
            $($(#[doc = concat!("`", $label, "`")] $variant,)*)*
        }

        impl Phase {
            /// Every phase in declaration order (`phase as usize` indexes it).
            pub const ALL: &'static [Phase] = &[$($(Phase::$variant,)*)*];

            /// The span label: the `phase` label value of its family.
            pub fn label(self) -> &'static str {
                match self { $($(Phase::$variant => $label,)*)* }
            }

            /// The family charting this phase.
            pub fn family(self) -> PhaseFamily {
                match self { $($(Phase::$variant => PhaseFamily::$family,)*)* }
            }
        }
    };
}

phases! {
    Apply {
        Validate => "validate", DbMutate => "db_mutate", WalAppend => "wal_append",
        Patch => "patch", Drift => "drift", Publish => "publish",
    }
    Extract {
        Scan => "scan", Join => "join", Distinct => "distinct",
        LoadState => "load_state", BuildRep => "build_rep",
    }
    BatchOnly { LoadNodes => "load_nodes", Emit => "emit" }
    Background { Recovery => "recovery", AnalyzeCompute => "analyze_compute" }
}

impl Phase {
    /// The members of `family`, in declaration order.
    pub fn of(family: PhaseFamily) -> impl Iterator<Item = Phase> {
        Phase::ALL
            .iter()
            .copied()
            .filter(move |p| p.family() == family)
    }
}

/// A phase equals its label, so a collected phase log can be filtered by
/// label text.
impl PartialEq<&str> for Phase {
    fn eq(&self, label: &&str) -> bool {
        self.label() == *label
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

thread_local! {
    /// Phase log: `Some(vec)` while a [`collect_phases`] scope is active
    /// on this thread; spans append `(phase, ns)` on drop.
    static PHASES: RefCell<Option<Vec<(Phase, u64)>>> = const { RefCell::new(None) };
}

/// A span guard: enters `region` for allocation attribution, and on drop
/// records elapsed wall time into the optional histogram and the active
/// phase log (if any). Created by [`span`] / [`span_timed`].
#[must_use = "dropping the span immediately ends it"]
pub struct Span {
    phase: Phase,
    start: Instant,
    hist: Option<Histogram>,
    _region: region::RegionGuard,
}

/// Start a span of `phase` in `region`. The elapsed time lands in the
/// thread's phase log (when one is being collected); no registry or
/// histogram is involved, so deep library code can use this freely.
pub fn span(phase: Phase, r: Region) -> Span {
    Span {
        phase,
        start: Instant::now(),
        hist: None,
        _region: region::enter(r),
    }
}

/// Like [`span`], but additionally records the elapsed nanoseconds into
/// `hist` on drop.
pub fn span_timed(phase: Phase, r: Region, hist: &Histogram) -> Span {
    Span {
        phase,
        start: Instant::now(),
        hist: Some(hist.clone()),
        _region: region::enter(r),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = saturating_ns(self.start);
        if let Some(h) = &self.hist {
            h.record(ns);
        }
        let _ = PHASES.try_with(|p| {
            if let Some(log) = p.borrow_mut().as_mut() {
                log.push((self.phase, ns));
            }
        });
    }
}

/// Run `f` with phase collection enabled on this thread; returns `f`'s
/// result plus every `(phase, ns)` span that completed inside it, in
/// completion order. Scopes nest: an inner scope captures its own spans
/// and the outer scope resumes afterwards.
pub fn collect_phases<R>(f: impl FnOnce() -> R) -> (R, Vec<(Phase, u64)>) {
    let prev = PHASES.with(|p| p.borrow_mut().replace(Vec::new()));
    let out = f();
    let collected = PHASES.with(|p| {
        let mut slot = p.borrow_mut();
        let collected = slot.take().unwrap_or_default();
        *slot = prev;
        collected
    });
    (out, collected)
}

// ---------------------------------------------------------------------------
// One-line framing for line-oriented protocols
// ---------------------------------------------------------------------------

/// Escape multi-line exposition text into the documented one-line form:
/// `\` → `\\`, newline → `\n`, carriage return → `\r`. The result contains
/// no literal newline and round-trips through [`unescape_exposition`].
pub fn escape_exposition(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_exposition`]. Unknown escapes pass through verbatim.
pub fn unescape_exposition(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The instruments! macro
// ---------------------------------------------------------------------------

/// Expands an instrument kind keyword to its handle type.
#[doc(hidden)]
#[macro_export]
macro_rules! __instrument_type {
    (counter) => {
        $crate::metrics::Counter
    };
    (gauge) => {
        $crate::metrics::Gauge
    };
    (histogram) => {
        $crate::metrics::Histogram
    };
}

/// Expands an instrument kind keyword to its [`InstrumentKind`] value.
#[doc(hidden)]
#[macro_export]
macro_rules! __instrument_kind {
    (counter) => {
        $crate::metrics::InstrumentKind::Counter
    };
    (gauge) => {
        $crate::metrics::InstrumentKind::Gauge
    };
    (histogram) => {
        $crate::metrics::InstrumentKind::Histogram
    };
}

/// Expands to the registry call registering one instrument.
#[doc(hidden)]
#[macro_export]
macro_rules! __instrument_register {
    ($r:expr, counter, $name:literal, $help:literal) => {
        $r.counter($name, $help)
    };
    ($r:expr, gauge, $name:literal, $help:literal) => {
        $r.gauge($name, $help)
    };
    ($r:expr, histogram, $name:literal, $help:literal) => {
        $r.histogram($name, $help)
    };
}

/// Define a typed instrument catalog: a struct with one field per
/// instrument, a `register(&Registry) -> Self` constructor, and a static
/// `CATALOG` of `(name, kind, help)` rows so the full instrument set is
/// enumerable without instantiating anything.
///
/// ```
/// graphgen_common::instruments! {
///     /// Demo catalog.
///     pub struct Demo {
///         counter hits: "demo_hits_total" = "requests served",
///         gauge live: "demo_live" = "live connections",
///         histogram latency_ns: "demo_latency_ns" = "request latency",
///     }
/// }
/// let registry = graphgen_common::metrics::Registry::new();
/// let m = Demo::register(&registry);
/// m.hits.inc();
/// assert_eq!(Demo::CATALOG.len(), 3);
/// ```
#[macro_export]
macro_rules! instruments {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $kind:ident $field:ident : $mname:literal = $help:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $(
                #[doc = $help]
                pub $field: $crate::__instrument_type!($kind),
            )*
        }

        impl $name {
            /// Every instrument this struct registers: `(name, kind,
            /// help)`, in field order.
            pub const CATALOG: &'static [(
                &'static str,
                $crate::metrics::InstrumentKind,
                &'static str,
            )] = &[
                $( ($mname, $crate::__instrument_kind!($kind), $help), )*
            ];

            /// Register (or re-attach to) every instrument in `registry`.
            pub fn register(registry: &$crate::metrics::Registry) -> Self {
                Self {
                    $( $field: $crate::__instrument_register!(registry, $kind, $mname, $help), )*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c_total", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g", "a gauge");
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn registry_interns_by_name_and_label() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        assert_eq!(b.get(), 1);
        let l1 = r.counter_with("fam_total", "verb", "get", "fam");
        let l2 = r.counter_with("fam_total", "verb", "put", "fam");
        l1.inc();
        assert_eq!(l2.get(), 0);
        assert_eq!(r.snapshot().len(), 3);
        assert_eq!(r.names(), vec!["x_total", "fam_total"]);
    }

    #[test]
    fn bucket_index_and_bound_agree() {
        for v in (0u64..4096).chain([1 << 20, 1 << 30, (1 << 40) + 12345, u64::MAX]) {
            let i = bucket_index(v);
            assert!(
                v <= bucket_bound(i),
                "v={v} i={i} bound={}",
                bucket_bound(i)
            );
            if i > 0 {
                assert!(
                    v > bucket_bound(i - 1),
                    "v={v} below bucket {i}'s lower edge"
                );
            }
        }
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.bucket_sum(), 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        // True p50 is 500; the reported bound must cover it within one
        // bucket's relative error (≤ 25% above).
        assert!((500..=640).contains(&p50), "p50={p50}");
        let p99 = s.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn span_records_phase_and_histogram() {
        let h = Histogram::new();
        let ((), phases) = collect_phases(|| {
            let _s = span_timed(Phase::Scan, Region::Scan, &h);
            assert_eq!(region::current(), Region::Scan);
            std::hint::black_box(());
        });
        assert_eq!(region::current(), Region::General);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, Phase::Scan);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn collect_phases_nests() {
        let ((), outer) = collect_phases(|| {
            {
                let _a = span(Phase::Validate, Region::General);
            }
            let ((), inner) = collect_phases(|| {
                let _b = span(Phase::Patch, Region::General);
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].0, Phase::Patch);
            {
                let _c = span(Phase::Publish, Region::General);
            }
        });
        let labels: Vec<_> = outer.iter().map(|p| p.0).collect();
        assert_eq!(labels, vec![Phase::Validate, Phase::Publish]);
    }

    #[test]
    fn every_phase_is_declared_once_with_its_family() {
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::ALL.len(), "a label is spelled twice");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(*phase as usize, i, "{phase} out of declaration order");
            assert!(*phase == phase.label());
        }
        let members = |family| Phase::of(family).map(Phase::label).collect::<Vec<_>>();
        assert_eq!(
            members(PhaseFamily::Extract),
            ["scan", "join", "distinct", "load_state", "build_rep"]
        );
        assert_eq!(members(PhaseFamily::BatchOnly), ["load_nodes", "emit"]);
    }

    #[test]
    fn spans_without_collection_are_cheap_noops() {
        // No collect_phases active: the span still times and regions.
        let h = Histogram::new();
        {
            let _s = span_timed(Phase::Join, Region::Build, &h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn exposition_renders_and_escapes_round_trip() {
        let r = Registry::new();
        r.counter("a_total", "counts a").add(3);
        r.gauge("b", "gauges b").set(9);
        let h = r.histogram_with("lat_ns", "verb", "ping", "latency");
        h.record(100);
        let text = r.render();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 3"));
        assert!(text.contains("# TYPE lat_ns summary"));
        assert!(text.contains("lat_ns{verb=\"ping\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns_count{verb=\"ping\"} 1"));
        let one_line = escape_exposition(&text);
        assert!(!one_line.contains('\n'));
        assert_eq!(unescape_exposition(&one_line), text);
        // Pathological payloads survive the round trip too.
        for s in ["a\\nb", "\\", "x\ny\r\\z", "\\n"] {
            assert_eq!(unescape_exposition(&escape_exposition(s)), s);
        }
    }

    instruments! {
        /// Test catalog.
        pub struct TestMetrics {
            counter ticks: "test_ticks_total" = "tick count",
            gauge depth: "test_depth" = "current depth",
            histogram wait_ns: "test_wait_ns" = "wait time",
        }
    }

    #[test]
    fn instruments_macro_registers_catalog() {
        assert_eq!(TestMetrics::CATALOG.len(), 3);
        assert_eq!(TestMetrics::CATALOG[0].0, "test_ticks_total");
        assert_eq!(TestMetrics::CATALOG[1].1, InstrumentKind::Gauge);
        let r = Registry::new();
        let m = TestMetrics::register(&r);
        m.ticks.inc();
        m.depth.set(2);
        m.wait_ns.record(50);
        // Re-registering attaches to the same cells.
        let again = TestMetrics::register(&r);
        assert_eq!(again.ticks.get(), 1);
        assert_eq!(r.snapshot().len(), 3);
    }

    #[test]
    fn concurrent_recording_keeps_invariants() {
        let h = Histogram::new();
        let c = Counter::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i);
                        c.inc();
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.bucket_sum(), 80_000);
        assert_eq!(c.get(), 80_000);
        assert_eq!(s.max, 7 * 1000 + 9_999);
    }
}
