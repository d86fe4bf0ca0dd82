//! The observability oracle: instrument invariants that must hold under
//! concurrent load, plus the wire-format and recovery semantics of the
//! `METRICS` / `TRACE` surface.
//!
//! Invariants checked here:
//!
//! * **Histogram conservation** — once quiescent, every histogram's
//!   `count` equals the sum of its bucket counts, `max <= sum`, and the
//!   reported quantiles are monotone (p50 <= p90 <= p99 <= max). Checked
//!   after 1-, 2-, and 8-thread request storms.
//! * **Counter monotonicity** — counter families never decrease across
//!   publishes (a coherent snapshot per observation; regression guard for
//!   the read-then-reset races the registry replaced).
//! * **Trace-ring bounds** — with every op traced (threshold 0), the ring
//!   never exceeds its configured capacity while 8 threads hammer it, and
//!   drained sequence numbers are strictly increasing.
//! * **Exposition round-trip** — the escaped one-line `METRICS` response
//!   (both the in-process protocol path and the real TCP path) unescapes
//!   to exactly the canonical multi-line form `--metrics-dump` prints,
//!   every sample line parses, and the catalog stays >= 25 families.
//! * **Recovery zeroing** — instruments are in-memory only: reopening a
//!   durable service zeroes the workload counters while graph versions
//!   (and the recovery-replay instruments) prove the data survived.
//! * **`EXTRACT` attribution** — the extraction phase spans account for at
//!   least 80% of `graphgen_extract_ns`, the scan and join operators among
//!   them (a row-by-row replay through the delta engine ran neither).
//! * **One scan per table** — a served self-join `EXTRACT` scans each of
//!   its two tables once.
//! * **State bytes by part** — `graphgen_state_bytes` has one member per
//!   part of the maintenance state, each holding bytes once a graph is
//!   served and growing with a second one.
//! * **Database bytes by owner** — `graphgen_db_bytes` exports its
//!   tables, dictionary and statistics members, each non-zero.
//! * **`APPLY` attribution** — every apply-family phase fires on every
//!   apply and, the spans never nesting, their sums stay within
//!   `graphgen_apply_ns`.
//! * **Pairs-out per delta** — `graphgen_patch_support_changes_total`
//!   advances by exactly the segment output pairs whose support an apply
//!   changed, including changes that cross no zero and leave the graph as
//!   it was.
//! * **One log** — however many graphs read a table, an accepted batch is
//!   appended and fsynced once; after a checkpoint plus *k* applies a
//!   restart replays exactly *k* records, whatever came before it.

use graphgen_common::metrics::{unescape_exposition, Phase, PhaseFamily, ValueSnapshot};
use graphgen_core::StateBytes;
use graphgen_dsl::{Code, Severity};
use graphgen_reldb::Value;
use graphgen_serve::testutil::{fig1_db, TempDir};
use graphgen_serve::{GraphService, ServiceConfig, TableMutation};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const Q: &str = "Nodes(ID, Name) :- Author(ID, Name). \
                 Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).";

fn service() -> GraphService {
    let s = GraphService::in_memory(fig1_db());
    s.extract("g", Q).expect("extract");
    s
}

/// Run one protocol command and return its response line.
fn send(s: &GraphService, line: &str) -> String {
    let cmd = graphgen_serve::protocol::parse_command(line)
        .expect("parse")
        .expect("non-empty");
    graphgen_serve::protocol::execute(s, &cmd)
}

/// Every histogram family in the registry, as `(family/label, snapshot)`.
fn histograms(s: &GraphService) -> Vec<(String, graphgen_common::metrics::HistogramSnapshot)> {
    s.obs()
        .registry()
        .snapshot()
        .into_iter()
        .filter_map(|i| match i.value {
            ValueSnapshot::Histogram(h) => {
                let key = match &i.label {
                    Some((k, v)) => format!("{}{{{}={}}}", i.name, k, v),
                    None => i.name.to_string(),
                };
                Some((key, *h))
            }
            _ => None,
        })
        .collect()
}

/// `(count, sum)` of the histogram `histograms` listed under `key`.
fn count_and_sum(
    hists: &[(String, graphgen_common::metrics::HistogramSnapshot)],
    key: &str,
) -> (u64, u64) {
    let (_, h) = hists.iter().find(|(k, _)| k == key).expect(key);
    (h.count, h.sum)
}

/// Drive `threads` concurrent workers through a mixed read/write protocol
/// workload, then assert the histogram conservation invariants.
fn storm(threads: usize, rounds: usize) {
    let s = Arc::new(service());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let s = Arc::clone(&s);
            scope.spawn(move || {
                for i in 0..rounds {
                    assert!(send(&s, "PING").starts_with("OK"));
                    assert!(send(&s, "NEIGHBORS g 4").starts_with("OK"));
                    assert!(send(&s, "DEGREE g 2").starts_with("OK"));
                    assert!(send(&s, "STATS").starts_with("OK"));
                    // Writers contend on the single writer mutex; every
                    // apply still observes validate/wal/patch/publish
                    // phases into the per-phase histograms.
                    let a = 100 + (t * rounds + i) as i64;
                    assert!(send(&s, &format!("APPLY AuthorPub +{a},1")).starts_with("OK"));
                    assert!(send(&s, "METRICS").starts_with("OK "));
                }
            });
        }
    });
    let expected_requests = (threads * rounds * 6) as u64;
    assert_eq!(
        s.obs().m.requests_total.get(),
        expected_requests,
        "every protocol command observed exactly once"
    );
    for (name, h) in histograms(&s) {
        assert_eq!(
            h.count,
            h.bucket_sum(),
            "{name}: quiescent histogram must conserve observations"
        );
        if h.count > 0 {
            assert!(h.max <= h.sum, "{name}: max exceeds sum");
            let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
            assert!(
                p50 <= p90 && p90 <= p99 && p99 <= h.max,
                "{name}: quantiles not monotone ({p50}/{p90}/{p99}/max={})",
                h.max
            );
        }
    }
    // The per-verb request histograms partition requests_total.
    let per_verb: u64 = histograms(&s)
        .iter()
        .filter(|(k, _)| k.starts_with("graphgen_request_ns{"))
        .map(|(_, h)| h.count)
        .sum();
    assert_eq!(
        per_verb, expected_requests,
        "per-verb histograms partition the total"
    );
}

#[test]
fn histogram_conservation_one_thread() {
    storm(1, 20);
}

#[test]
fn histogram_conservation_two_threads() {
    storm(2, 12);
}

#[test]
fn histogram_conservation_eight_threads() {
    storm(8, 6);
}

/// Counter families from a coherent exposition snapshot.
/// Every counter by family and label (`name{key=value}`), so the members
/// of a labelled family are each their own entry.
fn counters(s: &GraphService) -> BTreeMap<String, u64> {
    s.obs()
        .registry()
        .snapshot()
        .into_iter()
        .filter_map(|i| match i.value {
            ValueSnapshot::Counter(v) => {
                let name = match &i.label {
                    Some((key, value)) => format!("{}{{{key}={value}}}", i.name),
                    None => i.name.to_string(),
                };
                Some((name, v))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn counters_monotone_across_publishes() {
    let s = service();
    let mut prev = counters(&s);
    let rejects = prev
        .keys()
        .filter(|name| name.starts_with("graphgen_check_rejects_total{"))
        .count();
    let codes = Code::all();
    let errors = codes.iter().filter(|c| c.severity() == Severity::Error);
    assert_eq!(
        rejects,
        errors.count(),
        "each rejection code is its own counter"
    );
    for round in 0..8i64 {
        let m = TableMutation::new(
            "AuthorPub",
            vec![vec![Value::int(200 + round), Value::int(1)]],
            vec![],
        );
        s.apply(&[m]).expect("apply");
        let _ = s.metrics_text(); // also refreshes the gauges
        let now = counters(&s);
        for (name, v) in &now {
            let before = prev.get(name).copied().unwrap_or(0);
            assert!(
                *v >= before,
                "counter {name} went backwards: {before} -> {v}"
            );
        }
        assert!(
            now["graphgen_publishes_total"] > prev["graphgen_publishes_total"],
            "each publishing apply must advance the publish counter"
        );
        prev = now;
    }
    assert_eq!(prev["graphgen_applies_total"], 8);
}

#[test]
fn support_changes_count_pairs_out_per_apply() {
    let s = service();
    let insert = |a: i64, p: i64| {
        let m = TableMutation::new(
            "AuthorPub",
            vec![vec![Value::int(a), Value::int(p)]],
            vec![],
        );
        s.apply(&[m]).expect("apply")
    };
    let changes = || s.obs().m.patch_support_changes_total.get();
    // Author 7 joins publication 1, whose authors are 1, 2 and 4: the
    // pairs (7, x) and (x, 7) for each of them, and (7, 7), appear.
    insert(7, 1);
    assert_eq!(changes(), 7);
    // A second copy of (4, 2) — publication 2 is {1, 4} — raises the
    // support of (4, 1), (1, 4) and (4, 4); no pair crosses zero.
    let outcome = insert(4, 2);
    assert_eq!(changes(), 10);
    let (_, _, patch) = &outcome.graphs[0];
    assert_eq!(patch.support_changes, 3);
    assert!(patch.is_empty(), "the graph is unchanged: {patch:?}");
}

#[test]
fn trace_ring_never_exceeds_capacity_under_load() {
    const CAP: usize = 4;
    let cfg = ServiceConfig {
        slow_op_ns: 0, // every op is "slow": all of them enter the ring
        trace_capacity: CAP,
        ..ServiceConfig::default()
    };
    let dir = TempDir::new("metrics-oracle-ring");
    let s = Arc::new(GraphService::create(dir.path(), fig1_db(), cfg).expect("create"));
    s.extract("g", Q).expect("extract");
    let finished = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let s = Arc::clone(&s);
            let finished = Arc::clone(&finished);
            scope.spawn(move || {
                for _ in 0..50 {
                    assert!(send(&s, "NEIGHBORS g 4").starts_with("OK"));
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        // The observer races the writers on purpose: the bound must hold
        // at every instant, not just at rest.
        while finished.load(Ordering::Relaxed) < 8 {
            assert!(s.obs().trace().len() <= CAP, "ring exceeded its capacity");
            std::thread::yield_now();
        }
    });
    assert_eq!(s.obs().m.requests_total.get(), 400);
    let events = s.obs().trace().drain(None);
    assert!(!events.is_empty() && events.len() <= CAP);
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "drained trace out of order");
    }
    assert!(s.obs().trace().is_empty(), "drain empties the ring");
    // Evictions were counted: everything that entered the ring is either
    // still there (drained just now) or was dropped on eviction.
    let dropped = s.obs().m.trace_events_dropped_total.get();
    let slow = s.obs().m.slow_ops_total.get();
    assert_eq!(slow, dropped + events.len() as u64);
}

/// Parse a canonical exposition: `(families, samples)` where every sample
/// line split into `name{labels}` and a numeric value.
fn parse_exposition(text: &str) -> (BTreeSet<String>, usize) {
    let mut families = BTreeSet::new();
    let mut samples = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown kind in {line:?}"
            );
            families.insert(name.to_string());
        } else if !line.starts_with('#') && !line.is_empty() {
            let (name_part, value) = line.rsplit_once(' ').expect("sample line");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
            let base = name_part.split('{').next().expect("name");
            let base = base
                .trim_end_matches("_max")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                families.contains(base),
                "sample {line:?} precedes its # TYPE header"
            );
            samples += 1;
        }
    }
    (families, samples)
}

#[test]
fn metrics_round_trips_through_both_client_paths() {
    let s = service();
    let _ = send(&s, "NEIGHBORS g 4");
    let _ = send(&s, "STATS");

    // Path 1: the in-process protocol path (what every TCP client sees) —
    // an escaped single line.
    let wire = send(&s, "METRICS");
    let escaped = wire.strip_prefix("OK ").expect("OK payload");
    assert!(!escaped.contains('\n'), "wire form must be one line");
    let unescaped = unescape_exposition(escaped);
    let (families, samples) = parse_exposition(&unescaped);
    assert!(
        families.len() >= 25,
        "catalog shrank: {} families",
        families.len()
    );
    assert!(samples > families.len(), "histograms emit multiple samples");

    // Path 2: the canonical multi-line form (`--metrics-dump` prints
    // exactly `metrics_text`). Counters moved between the two reads (the
    // METRICS op itself was observed), so compare structure, not values.
    let canonical = s.metrics_text();
    let (families2, _) = parse_exposition(&canonical);
    assert_eq!(families, families2, "both paths expose the same catalog");
    for family in [
        "graphgen_requests_total",
        "graphgen_request_ns",
        "graphgen_apply_phase_ns",
        "graphgen_extract_phase_ns",
        "graphgen_wal_fsync_ns",
        "graphgen_recovery_replay_ns",
        "graphgen_analyze_compute_ns",
        "graphgen_graphs",
    ] {
        assert!(families.contains(family), "missing family {family}");
    }
}

#[test]
fn metrics_round_trips_over_real_tcp() {
    use std::io::{BufRead, BufReader, Write};
    let s = Arc::new(service());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = graphgen_serve::spawn(Arc::clone(&s), listener).expect("spawn");
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send_tcp = |line: &str| {
        writeln!(&stream, "{line}").expect("write");
        (&stream).flush().expect("flush");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        resp.trim_end().to_string()
    };
    assert!(send_tcp("NEIGHBORS g 4").starts_with("OK"));
    let wire = send_tcp("METRICS");
    let unescaped = unescape_exposition(wire.strip_prefix("OK ").expect("OK payload"));
    let (families, _) = parse_exposition(&unescaped);
    assert!(families.len() >= 25, "TCP path lost families");
    assert!(
        unescaped.contains("graphgen_connections_opened_total 1"),
        "this connection must be counted"
    );
    assert_eq!(send_tcp("SHUTDOWN"), "OK bye");
    handle.wait();
}

#[test]
fn recovery_zeroes_instruments_but_preserves_graphs() {
    let dir = TempDir::new("metrics-oracle-recovery");
    let version_before;
    {
        let s =
            GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()).expect("create");
        s.extract("g", Q).expect("extract");
        for round in 0..3i64 {
            let m = TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(300 + round), Value::int(2)]],
                vec![],
            );
            s.apply(&[m]).expect("apply");
        }
        assert_eq!(s.obs().m.extracts_total.get(), 1);
        assert_eq!(s.obs().m.applies_total.get(), 3);
        assert!(s.obs().m.wal_appends_total.get() > 0);
        version_before = s.snapshot("g").expect("snapshot").version();
    }
    let s = GraphService::open(dir.path()).expect("reopen");
    // Instruments are process-local: the workload counters start over...
    assert_eq!(
        s.obs().m.extracts_total.get(),
        0,
        "extracts zeroed on reopen"
    );
    assert_eq!(s.obs().m.applies_total.get(), 0, "applies zeroed on reopen");
    assert_eq!(
        s.obs().m.requests_total.get(),
        0,
        "requests zeroed on reopen"
    );
    // ...while the recovery instruments prove the WAL replay ran...
    assert!(
        s.obs().m.recovery_records_total.get() > 0,
        "recovery replayed records"
    );
    assert!(
        s.obs().m.recovery_replay_ns.count() > 0,
        "recovery replay was timed"
    );
    // ...and the data itself survived.
    assert_eq!(
        s.snapshot("g").expect("snapshot").version(),
        version_before,
        "graph version must survive the restart that zeroed the metrics"
    );
}

#[test]
fn extract_time_is_attributed_to_phases() {
    use graphgen_datagen::relational::DBLP_COAUTHORS;
    use graphgen_datagen::{dblp_like, DblpConfig};
    let s = GraphService::in_memory(dblp_like(DblpConfig {
        authors: 4_000,
        publications: 6_000,
        avg_authors_per_pub: 2.5,
        seed: 1,
    }));
    let extract = format!("EXTRACT g {}", DBLP_COAUTHORS.replace('\n', " "));
    assert!(send(&s, &extract).starts_with("OK"), "EXTRACT failed");
    let hists = histograms(&s);
    let hist = |key: &str| count_and_sum(&hists, key);
    let phase = |label: &str| hist(&format!("graphgen_extract_phase_ns{{phase={label}}}"));
    let (extracts, total_ns) = hist("graphgen_extract_ns");
    assert_eq!(extracts, 1);
    let attributed_ns: u64 = Phase::of(PhaseFamily::Extract)
        .map(|p| phase(p.label()).1)
        .sum();
    assert!(
        attributed_ns as f64 >= 0.8 * total_ns as f64,
        "phases cover {attributed_ns} of {total_ns} ns"
    );
    assert!(attributed_ns <= total_ns, "phase spans must not nest");
    for label in ["scan", "join", "load_state", "build_rep"] {
        assert!(phase(label).0 > 0, "no `{label}` span recorded");
    }
}

#[test]
fn a_served_self_join_scans_each_table_once() {
    use graphgen_common::metrics::collect_phases;
    use graphgen_datagen::relational::DBLP_COAUTHORS;
    use graphgen_datagen::{dblp_like, DblpConfig};
    let s = GraphService::in_memory(dblp_like(DblpConfig {
        authors: 4_000,
        publications: 6_000,
        avg_authors_per_pub: 2.5,
        seed: 1,
    }));
    let (extracted, phases) = collect_phases(|| s.extract("g", DBLP_COAUTHORS));
    extracted.expect("extract");
    // `Author` for the nodes, `AuthorPub` once: the self-join's second
    // atom takes the first one's bag transposed.
    let scans = phases.iter().filter(|(p, _)| *p == Phase::Scan).count();
    assert_eq!(scans, 2, "{phases:?}");
}

#[test]
fn state_bytes_gauge_has_one_member_per_part() {
    let gauges = |s: &GraphService| -> BTreeMap<String, u64> {
        let _ = s.metrics_text(); // the gauge is computed when METRICS renders
        let snapshot = s.obs().registry().snapshot().into_iter();
        snapshot
            .filter(|i| i.name == "graphgen_state_bytes")
            .filter_map(|i| match (i.label, i.value) {
                (Some((_, part)), ValueSnapshot::Gauge(v)) => Some((part, v)),
                _ => None,
            })
            .collect()
    };
    let empty = GraphService::in_memory(fig1_db());
    let parts: Vec<String> = StateBytes::default()
        .parts()
        .iter()
        .map(|(part, _)| part.to_string())
        .collect();
    let none = gauges(&empty);
    assert_eq!(none.len(), parts.len(), "{none:?}");
    for part in &parts {
        assert_eq!(none.get(part), Some(&0), "{none:?}");
    }
    // One self-join graph: every part holds bytes; a second graph over the
    // same tables adds its own to every part.
    let s = service();
    let one = gauges(&s);
    for part in &parts {
        assert!(one[part] > 0, "`{part}` holds no bytes: {one:?}");
    }
    s.extract("h", Q).expect("second extract");
    let two = gauges(&s);
    for part in &parts {
        assert!(two[part] > one[part], "`{part}`: {one:?} -> {two:?}");
    }
}

#[test]
fn db_bytes_gauge_exports_every_owner() {
    let s = GraphService::in_memory(fig1_db());
    let text = s.metrics_text(); // the gauge is computed when METRICS renders
    let parts: BTreeMap<String, u64> = s
        .obs()
        .registry()
        .snapshot()
        .into_iter()
        .filter(|i| i.name == "graphgen_db_bytes")
        .filter_map(|i| match (i.label, i.value) {
            (Some((_, part)), ValueSnapshot::Gauge(v)) => Some((part, v)),
            _ => None,
        })
        .collect();
    let names: Vec<&str> = parts.keys().map(String::as_str).collect();
    assert_eq!(names, ["dictionary", "statistics", "tables"], "{parts:?}");
    for (part, bytes) in &parts {
        assert!(*bytes > 0, "`{part}` holds no bytes: {parts:?}");
        assert!(
            text.contains(&format!("graphgen_db_bytes{{part=\"{part}\"}} {bytes}")),
            "`{part}` is not in the exposition"
        );
    }
}

#[test]
fn apply_time_is_attributed_to_phases() {
    const APPLIES: u64 = 12;
    // Persistent, so the log append is among the phases.
    let dir = TempDir::new("metrics-oracle-apply-phases");
    let s = GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()).expect("create");
    s.extract("g", Q).expect("extract");
    for i in 0..APPLIES {
        assert!(send(&s, &format!("APPLY AuthorPub +{},1", 400 + i)).starts_with("OK rows=1 g@"));
    }
    let hists = histograms(&s);
    let hist = |key: &str| count_and_sum(&hists, key);
    let (applies, total_ns) = hist("graphgen_apply_ns");
    assert_eq!(applies, APPLIES);
    let mut attributed_ns = 0;
    for label in Phase::of(PhaseFamily::Apply).map(Phase::label) {
        let (count, sum) = hist(&format!("graphgen_apply_phase_ns{{phase={label}}}"));
        assert!(count >= APPLIES, "`{label}` fired {count} times");
        attributed_ns += sum;
    }
    assert!(
        attributed_ns <= total_ns,
        "phase spans must not nest: {attributed_ns} of {total_ns} ns"
    );
}

#[test]
fn one_append_per_apply_and_a_checkpoint_bounds_replay() {
    const TAIL: u64 = 3;
    let apply = |s: &GraphService, a: i64| {
        let m = TableMutation::new(
            "AuthorPub",
            vec![vec![Value::int(a), Value::int(2)]],
            vec![],
        );
        let outcome = s.apply(&[m]).expect("apply");
        assert_eq!(outcome.graphs.len(), 2, "both graphs read AuthorPub");
    };
    for before in [1u64, 9] {
        let dir = TempDir::new("metrics-oracle-one-log");
        {
            let s = GraphService::create(dir.path(), fig1_db(), ServiceConfig::default())
                .expect("create");
            s.extract("g", Q).expect("extract");
            s.extract("h", Q).expect("extract");
            for i in 0..before {
                apply(&s, 500 + i as i64);
            }
            let m = &s.obs().m;
            assert_eq!(m.applies_total.get(), before);
            assert_eq!(m.wal_appends_total.get(), before, "one record per batch");
            assert_eq!(m.wal_fsync_ns.count(), before, "one fsync per batch");
            s.compact("g").expect("checkpoint");
            assert_eq!(m.compactions_total.get(), 1);
            for i in 0..TAIL {
                apply(&s, 600 + i as i64);
            }
            assert_eq!(m.wal_appends_total.get(), before + TAIL);
        }
        let s = GraphService::open(dir.path()).expect("reopen");
        assert_eq!(
            s.obs().m.recovery_records_total.get(),
            TAIL,
            "{before} applies before the checkpoint must not be replayed"
        );
        for name in ["g", "h"] {
            let version = s.snapshot(name).expect("snapshot").version();
            assert_eq!(version, 1 + before + TAIL, "{name}");
        }
    }
}
