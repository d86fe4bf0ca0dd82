//! `graphgen-serve` — serve extracted graphs over TCP.
//!
//! ```text
//! graphgen-serve [--port N] [--dir PATH] [--no-fsync] [--demo]
//!                [--metrics-dump] [--smoke]
//! ```
//!
//! * `--port N` — listen on 127.0.0.1:N (default 7411; 0 = ephemeral)
//! * `--dir PATH` — persistent service directory: recovered with
//!   `GraphService::open` when it already holds a service, created fresh
//!   otherwise
//! * `--no-fsync` — skip fsync on WAL appends / snapshot writes
//! * `--demo` — seed the paper's Fig. 1 DBLP toy tables (Author,
//!   AuthorPub) so `EXTRACT` works out of the box; implied when the
//!   service is fresh and purely in-memory
//! * `--metrics-dump` — build (or recover) the service, print the
//!   canonical multi-line Prometheus-style metrics exposition to stdout,
//!   and exit without serving (the `METRICS` verb carries the same text
//!   in escaped one-line form)
//! * `--smoke` — self-test: start an ephemeral server, drive one
//!   CHECK/EXTRACT/EXPLAIN/NEIGHBORS/ANALYZE/APPLY/STATS round-trip
//!   through the real TCP protocol (including a statically rejected
//!   EXTRACT with its per-code rejection counters, a skewed-insert burst
//!   that flips a frozen plan's `stale_plan` drift flag, an
//!   analyze → publish → re-analyze sequence that must warm-start, and a
//!   METRICS + TRACE pass that must find the EXTRACT's scan phase in the
//!   exposition and the deliberately slow ANALYZE in the trace ring, and a
//!   COMPACT + one more APPLY after which a reopen must replay exactly one
//!   log record), shut down cleanly, and exit non-zero on any mismatch
//!   (used by CI)
//!
//! The protocol is newline-delimited text — see `graphgen_serve::protocol`
//! — so `nc 127.0.0.1 7411` is a usable client.

use graphgen_reldb::Database;
use graphgen_serve::{spawn, GraphService, ServiceConfig};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

/// The demo dataset: the paper's Fig. 1 DBLP toy instance (shared with the
/// crate's tests via `testutil`).
use graphgen_serve::testutil::fig1_db as demo_db;

struct Args {
    port: u16,
    dir: Option<String>,
    fsync: bool,
    demo: bool,
    metrics_dump: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7411,
        dir: None,
        fsync: true,
        demo: false,
        metrics_dump: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => {
                let v = it.next().ok_or("--port needs a value")?;
                args.port = v.parse().map_err(|_| format!("bad port `{v}`"))?;
            }
            "--dir" => args.dir = Some(it.next().ok_or("--dir needs a value")?),
            "--no-fsync" => args.fsync = false,
            "--demo" => args.demo = true,
            "--metrics-dump" => args.metrics_dump = true,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                return Err(
                    "usage: graphgen-serve [--port N] [--dir PATH] [--no-fsync] \
                     [--demo] [--metrics-dump] [--smoke]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn build_service(args: &Args) -> Result<GraphService, String> {
    let cfg = ServiceConfig {
        fsync: args.fsync,
        ..ServiceConfig::default()
    };
    match &args.dir {
        Some(dir) => {
            if std::path::Path::new(dir).join("db.snap").exists() {
                if args.demo {
                    eprintln!("note: --demo ignored, recovering existing service from {dir}");
                }
                GraphService::open_with(dir, cfg).map_err(|e| format!("open {dir}: {e}"))
            } else {
                GraphService::create(dir, demo_or_empty(args.demo), cfg)
                    .map_err(|e| format!("create {dir}: {e}"))
            }
        }
        None => Ok(GraphService::in_memory(demo_or_empty(true))),
    }
}

fn demo_or_empty(demo: bool) -> Database {
    if demo {
        demo_db()
    } else {
        Database::new()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return match smoke() {
            Ok(()) => {
                println!("SMOKE PASS");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("SMOKE FAIL: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let service = match build_service(&args) {
        Ok(s) => Arc::new(s),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.metrics_dump {
        // The canonical multi-line exposition, without the one-line wire
        // framing the METRICS verb needs.
        print!("{}", service.metrics_text());
        return ExitCode::SUCCESS;
    }
    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind 127.0.0.1:{}: {e}", args.port);
            return ExitCode::FAILURE;
        }
    };
    match spawn(service, listener) {
        Ok(handle) => {
            println!("graphgen-serve listening on {}", handle.addr());
            handle.wait();
            println!("graphgen-serve stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spawn: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// --smoke: the CI round-trip
// ---------------------------------------------------------------------------

fn smoke() -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let tmp = graphgen_serve::testutil::TempDir::new("smoke");
    let cfg = ServiceConfig {
        // A 1µs slow-op threshold makes the ANALYZE computations below
        // deliberately "slow": they must land in the TRACE ring.
        slow_op_ns: 1_000,
        ..ServiceConfig::default()
    };
    let service =
        Arc::new(GraphService::create(tmp.path(), demo_db(), cfg).map_err(|e| e.to_string())?);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let handle = spawn(service, listener).map_err(|e| e.to_string())?;
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut send = |line: &str| -> Result<String, String> {
        writeln!(writer, "{line}").map_err(|e| e.to_string())?;
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| e.to_string())?;
        let response = response.trim_end().to_string();
        println!("> {line}\n< {response}");
        Ok(response)
    };
    let expect = |got: String, prefix: &str| -> Result<(), String> {
        if got.starts_with(prefix) {
            Ok(())
        } else {
            Err(format!("expected `{prefix}…`, got `{got}`"))
        }
    };

    expect(send("PING")?, "OK pong")?;
    // Pre-flight the extraction query through the static checker, then a
    // deliberately broken variant: coded diagnostics, nothing registered.
    expect(
        send(
            "CHECK coauthors Nodes(ID, Name) :- Author(ID, Name). \
             Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).",
        )?,
        "OK clean",
    )?;
    expect(
        send(
            "CHECK coauthors Nodes(ID, Name) :- Writer(ID, Name). \
             Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).",
        )?,
        "OK errors=1 warnings=0 | E001 unknown-relation",
    )?;
    // An EXTRACT the checker rejects: coded ERR line, counted in STATS.
    expect(
        send(
            "EXTRACT badquery Nodes(ID, Name) :- Writer(ID, Name). \
             Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).",
        )?,
        "ERR check failed: E001 unknown-relation",
    )?;
    expect(
        send(
            "EXTRACT coauthors Nodes(ID, Name) :- Author(ID, Name). \
             Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).",
        )?,
        "OK version=1 vertices=5",
    )?;
    expect(send("NEIGHBORS coauthors 4")?, "OK version=1 n=4")?;
    // EXPLAIN with a DSL costs a candidate program on live statistics
    // (registering nothing); bare EXPLAIN re-costs the registered graph's
    // frozen plan — fresh from extraction it is optimal by definition.
    expect(
        send(
            "EXPLAIN candidate Nodes(ID, Name) :- Author(ID, Name). \
             Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).",
        )?,
        "OK chain 1: AuthorPub ⋈ AuthorPub | plan: cost=",
    )?;
    expect(
        send("EXPLAIN coauthors")?,
        "OK graph coauthors: drift=1.00 stale_plan=false",
    )?;
    expect(send("APPLY AuthorPub +2,3")?, "OK rows=1 coauthors@2")?;
    // The new co-authorship (a2 joined publication 3) is immediately served.
    expect(send("NEIGHBORS coauthors 2")?, "OK version=2 n=4")?;
    expect(send("DEGREE coauthors 2")?, "OK version=2 degree=4")?;
    expect(send("STATS coauthors")?, "OK coauthors version=2")?;
    // Analytics on the live snapshot: a cold PageRank at version 2, served
    // from the background pool and cached under (graph, algo, params, v).
    let analyzed = send("ANALYZE coauthors pagerank")?;
    expect(
        analyzed.clone(),
        "OK version=2 fresh=true algo=pagerank path=",
    )?;
    if !analyzed.contains("warm=false") {
        return Err(format!("first analysis must be cold: `{analyzed}`"));
    }
    // The result is retrievable without recomputation.
    expect(
        send("ANALYZE STATUS coauthors pagerank")?,
        "OK version=2 fresh=true algo=pagerank",
    )?;
    // Drift round-trip: pile 20 memberships onto publication 1. The
    // frozen plan kept the self-join in one segment (8·8/3 ≈ 21 under
    // threshold 32); at 29 rows the live min-cost plan cuts it
    // (29·29/3 ≈ 280 over threshold 116), so the plan must read stale.
    let burst: Vec<String> = (0..20).map(|i| format!("+{},1", 100 + i)).collect();
    expect(
        send(&format!("APPLY AuthorPub {}", burst.join(" ")))?,
        "OK rows=20 coauthors@3",
    )?;
    let stats = send("STATS coauthors")?;
    if !stats.contains("stale_plan=true") {
        return Err(format!("expected `stale_plan=true` in `{stats}`"));
    }
    // The publish bumped the graph to version 3: the cached version-2
    // entry is stale-tagged but readable, and a re-analysis warm-starts
    // from its rank vector.
    expect(
        send("ANALYZE STATUS coauthors pagerank")?,
        "OK version=2 fresh=false",
    )?;
    let reanalyzed = send("ANALYZE coauthors pagerank")?;
    expect(
        reanalyzed.clone(),
        "OK version=3 fresh=true algo=pagerank path=",
    )?;
    if !reanalyzed.contains("warm=true") {
        return Err(format!("re-analysis must warm-start: `{reanalyzed}`"));
    }
    let status = send("ANALYZE STATUS")?;
    if !status.contains("analyzes=2 hits=0 warm_starts=1") {
        return Err(format!(
            "expected `analyzes=2 hits=0 warm_starts=1` in `{status}`"
        ));
    }
    expect(send("EXPLAIN coauthors")?, "OK graph coauthors: drift=")?;
    // Reverting the skew restores the statistics: the flag clears.
    let revert: Vec<String> = (0..20).map(|i| format!("-{},1", 100 + i)).collect();
    expect(
        send(&format!("APPLY AuthorPub {}", revert.join(" ")))?,
        "OK rows=20 coauthors@4",
    )?;
    let stats = send("STATS coauthors")?;
    if !stats.contains("drift=1.00 stale_plan=false") {
        return Err(format!(
            "expected `drift=1.00 stale_plan=false` in `{stats}`"
        ));
    }
    // The bare STATS line carries the rejection counters: exactly the one
    // statically rejected EXTRACT above (CHECKs never count).
    let stats = send("STATS")?;
    if !stats.contains("rejects=1 reject_codes=E001:1") {
        return Err(format!(
            "expected `rejects=1 reject_codes=E001:1` in `{stats}`"
        ));
    }
    // …and the analysis counters, warm-start savings included.
    if !stats.contains("analyzes=2 analyze_hits=0 warm_starts=1") {
        return Err(format!(
            "expected `analyzes=2 analyze_hits=0 warm_starts=1` in `{stats}`"
        ));
    }
    // The observability surface. METRICS carries the whole registry as an
    // escaped one-liner; unescaping restores the canonical multi-line
    // exposition --metrics-dump prints directly.
    let metrics_line = send("METRICS")?;
    let Some(escaped) = metrics_line.strip_prefix("OK ") else {
        return Err(format!(
            "METRICS: expected an OK line, got `{metrics_line}`"
        ));
    };
    let exposition = graphgen_common::metrics::unescape_exposition(escaped);
    if !exposition.contains('\n') {
        return Err("unescaped METRICS exposition should be multi-line".into());
    }
    let families: std::collections::BTreeSet<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    if families.len() < 25 {
        return Err(format!(
            "METRICS enumerates only {} instrument families (expected >= 25)",
            families.len()
        ));
    }
    for needed in [
        "graphgen_request_ns",
        "graphgen_apply_phase_ns",
        "graphgen_extract_phase_ns",
        "graphgen_wal_fsync_ns",
        "graphgen_analyze_compute_ns",
        "graphgen_recovery_replay_ns",
    ] {
        if !families.contains(needed) {
            return Err(format!("METRICS missing the `{needed}` family"));
        }
    }
    if !exposition.contains("verb=\"apply\"") || !exposition.contains("phase=\"publish\"") {
        return Err("METRICS missing per-verb/per-phase labelled series".into());
    }
    // The EXTRACT above must have built its state with the set-at-a-time
    // operators: replaying rows through the delta engine records no scan.
    let scans = exposition
        .lines()
        .find_map(|l| l.strip_prefix("graphgen_extract_phase_ns_count{phase=\"scan\"} "))
        .and_then(|n| n.parse::<u64>().ok());
    if scans.unwrap_or(0) == 0 {
        return Err(format!(
            "EXTRACT recorded no scan phase (count {scans:?}): is it replaying rows again?"
        ));
    }
    println!("metrics: {} instrument families exposed", families.len());
    // Every command above outran the 1µs threshold, so the ring holds the
    // whole session — the ANALYZE computations must be in there with
    // their phase breakdowns.
    let trace = send("TRACE")?;
    if !trace.starts_with("OK n=") {
        return Err(format!("TRACE: expected `OK n=…`, got `{trace}`"));
    }
    if !trace.contains("verb=analyze ") {
        return Err(format!("TRACE should hold the slow ANALYZE: `{trace}`"));
    }
    // Drained: a second TRACE no longer holds the analyses (at most the
    // first TRACE itself, which also outran the threshold).
    let trace = send("TRACE")?;
    if !trace.starts_with("OK n=") || trace.contains("verb=analyze ") {
        return Err(format!("TRACE ring was not drained: `{trace}`"));
    }
    // One log, and COMPACT bounds what a restart replays: the four batches
    // above are in it until the checkpoint folds them into db.snap;
    // the one applied afterwards is all that is left to redo.
    let stats = send("STATS")?;
    if stats.contains("wal_bytes=0 ") || !stats.contains(" wal_bytes=") {
        return Err(format!("expected a non-empty log in `{stats}`"));
    }
    expect(send("COMPACT coauthors")?, "OK")?;
    let stats = send("STATS")?;
    if !stats.contains(" wal_bytes=0 ") {
        return Err(format!("expected `wal_bytes=0` after COMPACT in `{stats}`"));
    }
    expect(send("APPLY AuthorPub +5,1")?, "OK rows=1 coauthors@5")?;
    expect(send("SHUTDOWN")?, "OK bye")?;
    handle.wait();

    // The abrupt-drop recovery contract, through the same directory.
    let recovered = GraphService::open(tmp.path()).map_err(|e| e.to_string())?;
    let snap = recovered.snapshot("coauthors").map_err(|e| e.to_string())?;
    if snap.version() != 5 {
        return Err(format!("recovered version {} != 5", snap.version()));
    }
    let replayed = recovered.obs().m.recovery_records_total.get();
    if replayed != 1 {
        return Err(format!(
            "recovery replayed {replayed} log records, expected the 1 after COMPACT"
        ));
    }
    println!(
        "recovery: coauthors@{} served after reopen, {replayed} log record replayed",
        snap.version()
    );
    Ok(())
}
