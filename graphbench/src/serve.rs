//! The two serve workloads: a `GraphService` behind the real TCP listener
//! (`graphgen_serve::spawn`, the function `graphgen-serve`'s `main` calls),
//! driven by two closed-loop connections from this process.
//!
//! Load-generator hygiene: `TCP_NODELAY` on the client sockets, one
//! `write_all` per request, request scripts generated before the window,
//! one reused reply buffer per connection, latencies pushed into vectors
//! reserved up front. `client.gen_overhead_ns` reports what is left.

use crate::manifest::Values;
use crate::run::{peak_mib, repeated, reset_peak, Opts, Outcome};
use crate::stats;
use crate::trace::Tracer;
use graphgen_common::metrics::unescape_exposition;
use graphgen_common::SplitMix64;
use graphgen_core::GraphGen;
use graphgen_datagen::relational::DBLP_COAUTHORS;
use graphgen_datagen::{dblp_like, DblpConfig};
use graphgen_graph::GraphRep;
use graphgen_reldb::{Database, Value};
use graphgen_serve::protocol::{execute, parse_command, Command};
use graphgen_serve::{GraphService, ServerHandle, ServiceConfig, TableMutation};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Requests each connection sends before the window opens.
const WARMUP_REQUESTS: usize = 16;

/// Deltas applied after the window and `COMPACT`, so that recovery has a
/// known number of graph-log records to replay. Applied through
/// `GraphService::apply` directly (timed as `service.apply_us`): over the
/// wire they would take longer than the window.
const TAIL_DELTAS: usize = 64;

/// Script lines the in-process read-path probes replay.
const PROBE_LINES: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// In-memory service; both connections read, connection 0 swaps every
    /// tenth request for a 4-row `APPLY`. One op = one read round-trip.
    ReadHeavy,
    /// Persistent service, fsync on; connection 0 sends 64-row `APPLY`s,
    /// connection 1 reads. One op = one `APPLY` round-trip.
    WriteHeavy,
}

/// `serve_read_heavy`: socket handling, protocol parse/execute/render and
/// the snapshot pin do the work. No WAL exists, so a `wal` change must not
/// move it.
pub fn serve_read_heavy(opts: &Opts) -> Outcome {
    serve(opts, Mode::ReadHeavy)
}

/// `serve_write_heavy`: validate, WAL append + fsync, incremental patch,
/// publish and recovery dominate — the same serve layer used the other way,
/// so a read-side gain that costs the writer (or the reverse) shows.
pub fn serve_write_heavy(opts: &Opts) -> Outcome {
    serve(opts, Mode::WriteHeavy)
}

// ---------------------------------------------------------------------------
// Request scripts
// ---------------------------------------------------------------------------

/// Inverse-CDF Zipf sampler over ranks `0..n` (datagen's is private).
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Apply,
    Ping,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    start: u32,
    end: u32,
    kind: Kind,
    /// Index into `Script::mutations` for an `Apply`.
    mutation: u32,
}

/// `AuthorPub(aid, pid)` rows of one `APPLY`.
#[derive(Debug, Clone, Default)]
struct Mutation {
    inserts: Vec<[i64; 2]>,
    deletes: Vec<[i64; 2]>,
}

impl Mutation {
    fn rows(rows: &[[i64; 2]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| vec![Value::int(r[0]), Value::int(r[1])])
            .collect()
    }

    fn to_table_mutation(&self) -> TableMutation {
        TableMutation::new(
            "AuthorPub",
            Self::rows(&self.inserts),
            Self::rows(&self.deletes),
        )
    }

    fn replay(&self, db: &mut Database) {
        if !self.inserts.is_empty() {
            db.insert_rows("AuthorPub", Self::rows(&self.inserts))
                .expect("replay insert");
        }
        if !self.deletes.is_empty() {
            db.delete_rows("AuthorPub", &Self::rows(&self.deletes))
                .expect("replay delete");
        }
    }
}

/// One connection's requests, as the bytes to send. A connection that
/// reaches the end starts over, which stays valid: rows are a bag, and
/// every delete follows the insert of its row within the script.
#[derive(Debug, Default)]
struct Script {
    bytes: Vec<u8>,
    ops: Vec<Op>,
    mutations: Vec<Mutation>,
}

struct ScriptGen {
    rng: SplitMix64,
    authors: usize,
    /// Read keys: Zipf(0.99) over author ids. `dblp_like` makes low ids the
    /// prolific authors, so hot keys have long neighbour lists.
    read_keys: Zipf,
    /// Inserted rows join Zipf(0.8)-skewed publications (the skew
    /// `dblp_like` itself draws with): hot publications grow into large
    /// cliques, but not so fast that the graph served at the end of the
    /// window is a different one from the graph at its start.
    publications: Zipf,
    /// Rows this script inserted and has not deleted yet.
    inserted: Vec<[i64; 2]>,
}

impl ScriptGen {
    fn new(seed: u64, cfg: &DblpConfig) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            authors: cfg.authors,
            read_keys: Zipf::new(cfg.authors, 0.99),
            publications: Zipf::new(cfg.publications, 0.8),
            inserted: Vec::new(),
        }
    }

    fn push_op(script: &mut Script, start: usize, kind: Kind, mutation: u32) {
        script.ops.push(Op {
            start: start as u32,
            end: script.bytes.len() as u32,
            kind,
            mutation,
        });
    }

    /// 70% `NEIGHBORS`, 28% `DEGREE`, 2% `PING` (the bare round-trip).
    fn push_read(&mut self, script: &mut Script) {
        let start = script.bytes.len();
        let key = self.read_keys.sample(&mut self.rng);
        let kind = match self.rng.next_below(100) {
            0..70 => {
                writeln!(script.bytes, "NEIGHBORS g {key}").expect("write to Vec");
                Kind::Read
            }
            70..98 => {
                writeln!(script.bytes, "DEGREE g {key}").expect("write to Vec");
                Kind::Read
            }
            _ => {
                script.bytes.extend_from_slice(b"PING\n");
                Kind::Ping
            }
        };
        Self::push_op(script, start, kind, 0);
    }

    fn mutation(&mut self, inserts: usize, deletes: usize) -> Mutation {
        let mut m = Mutation::default();
        for _ in 0..inserts {
            let row = [
                self.rng.next_below(self.authors as u64) as i64,
                self.publications.sample(&mut self.rng) as i64,
            ];
            m.inserts.push(row);
        }
        for _ in 0..deletes.min(self.inserted.len()) {
            let i = self.rng.next_below(self.inserted.len() as u64) as usize;
            m.deletes.push(self.inserted.swap_remove(i));
        }
        self.inserted.extend_from_slice(&m.inserts);
        m
    }

    fn push_apply(&mut self, script: &mut Script, inserts: usize, deletes: usize) {
        let m = self.mutation(inserts, deletes);
        let start = script.bytes.len();
        script.bytes.extend_from_slice(b"APPLY AuthorPub");
        for (sign, rows) in [('+', &m.inserts), ('-', &m.deletes)] {
            for [aid, pid] in rows {
                write!(script.bytes, " {sign}{aid},{pid}").expect("write to Vec");
            }
        }
        script.bytes.push(b'\n');
        Self::push_op(script, start, Kind::Apply, script.mutations.len() as u32);
        script.mutations.push(m);
    }
}

// ---------------------------------------------------------------------------
// Server and connections
// ---------------------------------------------------------------------------

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to the benchmark's own listener");
        writer.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Self {
            writer,
            reader,
            reply: Vec::with_capacity(1 << 16),
        }
    }

    /// One request line out, one reply line back (without its newline).
    fn roundtrip(&mut self, request: &[u8]) -> &[u8] {
        self.writer.write_all(request).expect("send request");
        self.await_reply()
    }

    /// The server's instrument registry, over the wire.
    fn scrape(&mut self) -> Option<HashMap<String, f64>> {
        let reply = self.roundtrip(b"METRICS\n");
        reply
            .starts_with(b"OK ")
            .then(|| parse_exposition(&String::from_utf8_lossy(reply)))
    }

    fn await_reply(&mut self) -> &[u8] {
        self.reply.clear();
        self.reader
            .read_until(b'\n', &mut self.reply)
            .expect("read reply");
        self.reply.strip_suffix(b"\n").unwrap_or(&self.reply)
    }
}

/// A running service with its listener and the two client connections.
/// Dropping it stops everything it started and removes its directory.
struct Server {
    service: Option<Arc<GraphService>>,
    listener: Option<ServerHandle>,
    conns: Vec<Conn>,
    dir: Option<PathBuf>,
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Server {
    /// Everything between "have a database" and "can answer reads": the
    /// service, the listener, two connections and the `EXTRACT`.
    fn start(db: Database, mode: Mode, scratch: &Path) -> Self {
        let (service, dir) = match mode {
            Mode::ReadHeavy => (GraphService::in_memory(db), None),
            Mode::WriteHeavy => {
                let dir = scratch.join(format!(
                    "wal-{}-{}",
                    std::process::id(),
                    DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                let service = GraphService::create(&dir, db, ServiceConfig::default())
                    .expect("create persistent service");
                (service, Some(dir))
            }
        };
        let service = Arc::new(service);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let listener =
            graphgen_serve::spawn(Arc::clone(&service), listener).expect("spawn listener");
        let mut conns: Vec<Conn> = (0..2).map(|_| Conn::connect(listener.addr())).collect();
        let extract = format!("EXTRACT g {}\n", DBLP_COAUTHORS.replace('\n', " "));
        let reply = conns[0].roundtrip(extract.as_bytes());
        assert!(
            reply.starts_with(b"OK"),
            "EXTRACT failed: {}",
            String::from_utf8_lossy(reply)
        );
        Self {
            service: Some(service),
            listener: Some(listener),
            conns,
            dir,
        }
    }

    fn service(&self) -> &GraphService {
        self.service.as_ref().expect("service is running")
    }

    /// Close the connections, stop the listener, and wait until the
    /// connection threads have let go of the service, so that it is
    /// dropped (and its files closed) when this returns.
    fn shut_down(&mut self) {
        self.conns.clear();
        if let Some(listener) = self.listener.take() {
            listener.shutdown();
        }
        if let Some(service) = self.service.take() {
            let deadline = Instant::now() + Duration::from_secs(5);
            while Arc::strong_count(&service) > 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shut_down();
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Recorder {
    read_ns: Vec<u64>,
    apply_ns: Vec<u64>,
    ping_ns: Vec<u64>,
    /// Mutations the server acknowledged, in order, warm-up included.
    acked: Vec<u32>,
    attempted: u64,
    failed: u64,
    /// Wire latency of every script request since the connection opened.
    wire_ns: u64,
    /// Wire latency inside the window, and the window's own length.
    busy_ns: u64,
    window: Duration,
}

/// One client: a connection, its script and where it is in it.
struct Client {
    conn: Conn,
    script: Script,
    cursor: usize,
    rec: Recorder,
    tracer: Tracer,
}

enum Stop {
    After(usize),
    At(Instant),
}

impl Client {
    fn new(conn: Conn, script: Script, tracer: Tracer) -> Self {
        let n = script.ops.len();
        Self {
            conn,
            script,
            cursor: 0,
            rec: Recorder {
                read_ns: Vec::with_capacity(n),
                apply_ns: Vec::with_capacity(n),
                ping_ns: Vec::with_capacity(n),
                acked: Vec::with_capacity(n),
                ..Recorder::default()
            },
            tracer,
        }
    }

    /// Send requests back to back, each after the previous reply. With
    /// `timed`, latencies and failures are recorded.
    fn drive(&mut self, stop: Stop, timed: bool) {
        let mut sent = 0;
        loop {
            match stop {
                Stop::After(n) if sent == n => break,
                Stop::At(deadline) if Instant::now() >= deadline => break,
                _ => {}
            }
            let op = self.script.ops[self.cursor % self.script.ops.len()];
            self.cursor += 1;
            sent += 1;
            let id = self.cursor as u32;
            let request = &self.script.bytes[op.start as usize..op.end as usize];
            let name = match op.kind {
                Kind::Read => "request.read",
                Kind::Apply => "request.apply",
                Kind::Ping => "request.ping",
            };
            // The clock starts before the request's single write and stops
            // when the reply line has been read.
            let span = self.tracer.open(name, id);
            let t0 = Instant::now();
            let write = self.tracer.open("wire.write", id);
            self.conn.writer.write_all(request).expect("send request");
            self.tracer.close(write);
            let wait = self.tracer.open("wire.await_reply", id);
            let ok = self.conn.await_reply().starts_with(b"OK");
            self.tracer.close(wait);
            let ns = t0.elapsed().as_nanos() as u64;
            self.tracer.close(span);

            self.rec.wire_ns += ns;
            if ok && op.kind == Kind::Apply {
                self.rec.acked.push(op.mutation);
            }
            if timed {
                self.rec.attempted += 1;
                self.rec.failed += u64::from(!ok);
                self.rec.busy_ns += ns;
                match op.kind {
                    Kind::Read => self.rec.read_ns.push(ns),
                    Kind::Apply => self.rec.apply_ns.push(ns),
                    Kind::Ping => self.rec.ping_ns.push(ns),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

fn serve(opts: &Opts, mode: Mode) -> Outcome {
    let cfg = if opts.smoke {
        DblpConfig {
            authors: 1_500,
            publications: 2_000,
            avg_authors_per_pub: 2.5,
            seed: opts.seed,
        }
    } else {
        DblpConfig {
            authors: 20_000,
            publications: 30_000,
            avg_authors_per_pub: 2.5,
            seed: opts.seed,
        }
    };
    let (reads, applies) = if opts.smoke {
        (2_048, 256)
    } else {
        (1 << 15, 2_048)
    };
    let tail_deltas = if opts.smoke { 16 } else { TAIL_DELTAS };

    // Scripts first: nothing is generated once the server is up.
    let mut generators = [
        ScriptGen::new(opts.seed ^ 0x5eed_0000, &cfg),
        ScriptGen::new(opts.seed ^ 0x5eed_0001, &cfg),
    ];
    let mut scripts = [Script::default(), Script::default()];
    match mode {
        Mode::ReadHeavy => {
            for i in 0..reads {
                if i % 10 == 9 {
                    generators[0].push_apply(&mut scripts[0], 3, 1);
                } else {
                    generators[0].push_read(&mut scripts[0]);
                }
            }
        }
        Mode::WriteHeavy => {
            for _ in 0..applies {
                generators[0].push_apply(&mut scripts[0], 48, 16);
            }
        }
    }
    for _ in 0..reads {
        generators[1].push_read(&mut scripts[1]);
    }
    let tail: Vec<Mutation> = match mode {
        Mode::ReadHeavy => Vec::new(),
        Mode::WriteHeavy => (0..tail_deltas)
            .map(|_| generators[0].mutation(48, 16))
            .collect(),
    };

    let mut out = Outcome::default();
    reset_peak();
    let (mut server, setup_s) = repeated(|| Server::start(dblp_like(cfg), mode, &opts.scratch));
    out.end_to_end.set("setup_s", setup_s);
    out.notes.push(format!(
        "2 client threads, 2 connections, closed loop; ServiceConfig::default(): \
         fsync {}, threads {} (0 = available parallelism, here {}); {}",
        if ServiceConfig::default().fsync {
            "on"
        } else {
            "off"
        },
        ServiceConfig::default().threads,
        graphgen_core::GraphGenConfig::default().threads(),
        match mode {
            Mode::ReadHeavy => "in-memory service, no WAL",
            Mode::WriteHeavy => "persistent service",
        }
    ));

    // The served representation as extracted: where it stands after the
    // window depends on how many applies the window fitted.
    let snapshot = server.service().snapshot("g").expect("served graph");
    let edges = snapshot.handle().expanded_edge_count();
    out.end_to_end.set(
        "graph_bytes_per_edge",
        snapshot.handle().heap_bytes() as f64 / edges.max(1) as f64,
    );
    out.notes.push(format!(
        "serving {} with {} vertices, {edges} logical edges, {} bytes",
        snapshot.handle().kind(),
        snapshot.handle().num_vertices(),
        snapshot.handle().heap_bytes()
    ));
    drop(snapshot);
    let after_extract = server.conns[1].scrape();
    out.check("METRICS answered OK", after_extract.is_some());
    extract_layers(&after_extract.unwrap_or_default(), &mut out.per_layer);

    // Warm-up, then the window, both connections starting together.
    let epoch = Instant::now();
    let mut clients: Vec<Client> = server
        .conns
        .drain(..)
        .zip(scripts)
        .map(|(conn, script)| Client::new(conn, script, Tracer::new(opts.trace, epoch)))
        .collect();
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|s| {
        for client in &mut clients {
            let barrier = &barrier;
            s.spawn(move || {
                client.drive(Stop::After(WARMUP_REQUESTS), false);
                barrier.wait();
                let start = Instant::now();
                client.drive(Stop::At(start + opts.window), true);
                client.rec.window = start.elapsed();
            });
        }
    });
    out.end_to_end.set("peak_mem_mib", peak_mib());

    let elapsed = clients.iter().map(|c| c.rec.window).max().expect("clients");
    out.attempted = clients.iter().map(|c| c.rec.attempted).sum();
    out.failed = clients.iter().map(|c| c.rec.failed).sum();
    let all_ns = |pick: fn(&Recorder) -> &Vec<u64>| -> Vec<u64> {
        clients
            .iter()
            .flat_map(|c| pick(&c.rec).iter().copied())
            .collect()
    };
    let read_ns = all_ns(|r| &r.read_ns);
    let apply_ns = all_ns(|r| &r.apply_ns);
    let ping_ns = all_ns(|r| &r.ping_ns);
    let op_ns = match mode {
        Mode::ReadHeavy => &read_ns,
        Mode::WriteHeavy => &apply_ns,
    };
    out.set_op_metrics(op_ns, out.attempted - out.failed, elapsed);
    out.notes.push(format!(
        "window: {} reads, {} applies, {} pings",
        read_ns.len(),
        apply_ns.len(),
        ping_ns.len()
    ));

    let snapshot = server.service().snapshot("g").expect("served graph");
    out.notes.push(format!(
        "the window ended on version {} with {} logical edges",
        snapshot.version(),
        snapshot.handle().expanded_edge_count()
    ));
    drop(snapshot);

    let [mut c0, mut c1]: [Client; 2] = clients.try_into().ok().expect("two clients");
    let layers = &mut out.per_layer;
    layers.set("client.read_p50_us", stats::median_ns(&read_ns, 1e3));
    layers.set(
        "client.read_p95_us",
        stats::quantile_ns(&read_ns, 0.95, 1e3),
    );
    layers.set("client.apply_p50_us", stats::median_ns(&apply_ns, 1e3));
    layers.set(
        "client.apply_p95_us",
        stats::quantile_ns(&apply_ns, 0.95, 1e3),
    );
    layers.set("client.ping_p50_us", stats::median_ns(&ping_ns, 1e3));
    let idle_ns: f64 = [&c0, &c1]
        .iter()
        .map(|c| c.rec.window.as_nanos() as f64 - c.rec.busy_ns as f64)
        .sum();
    layers.set(
        "client.gen_overhead_ns",
        idle_ns / out.attempted.max(1) as f64,
    );

    // After the window, untimed: fold the log, then a known number of
    // deltas for recovery to replay.
    let mut log: Vec<Mutation> = c0
        .rec
        .acked
        .iter()
        .map(|&i| c0.script.mutations[i as usize].clone())
        .collect();
    if mode == Mode::WriteHeavy {
        let reply = c0.conn.roundtrip(b"COMPACT g\n");
        out.check("COMPACT g answered OK", reply.starts_with(b"OK"));
        let compactions = server.service().obs().m.compactions_total.get();
        let mut apply_ns = Vec::with_capacity(tail.len());
        for m in &tail {
            let mutation = m.to_table_mutation();
            let t0 = Instant::now();
            let result = c0.tracer.span("service.apply", 0, || {
                server.service().apply(std::slice::from_ref(&mutation))
            });
            apply_ns.push(t0.elapsed().as_nanos() as u64);
            out.check("direct GraphService::apply succeeded", result.is_ok());
        }
        log.extend(tail);
        out.per_layer
            .set("service.apply_us", stats::median_ns(&apply_ns, 1e3));
        let after = server.service().obs().m.compactions_total.get();
        if after != compactions {
            out.notes.push(format!(
                "{} compactions ran during the {tail_deltas} post-window deltas: \
                 recovery replays fewer records than that",
                after - compactions
            ));
        }
    }

    // The server's own account, scraped over the wire.
    let server_metrics = c1.conn.scrape();
    out.check("METRICS answered OK", server_metrics.is_some());
    server_layers(
        &server_metrics.unwrap_or_default(),
        &mut out.per_layer,
        c0.rec.wire_ns + c1.rec.wire_ns,
    );

    if opts.trace {
        read_path_probes(server.service(), &c1.script, &mut c1.tracer, &mut out);
    }

    // Output check: replay what connection 0 was told is applied into a
    // client-side copy of the database, extract from scratch, and require
    // the served graph to be that graph.
    let mut client_db = dblp_like(cfg);
    for m in &log {
        m.replay(&mut client_db);
    }
    let mut reference = GraphGen::new(&client_db)
        .extract(DBLP_COAUTHORS)
        .expect("client-side extraction")
        .canonical_bytes();
    if opts.inject_check_failure {
        reference.push(0);
    }
    let served = server
        .service()
        .snapshot("g")
        .expect("served graph")
        .canonical_bytes();
    out.check(
        "served snapshot equals re-extraction of the acked applies",
        served == reference,
    );

    if mode == Mode::WriteHeavy {
        drop((c0.conn, c1.conn));
        server.shut_down();
        let dir = server
            .dir
            .clone()
            .expect("persistent service has a directory");
        let (recovered, open_s) = repeated(|| {
            c0.tracer
                .span("recovery.open", 0, || GraphService::open(&dir))
                .expect("recover the service")
        });
        let m = parse_exposition(&recovered.metrics_text());
        let replay_s = metric(&m, "graphgen_recovery_replay_ns_sum") / 1e9;
        out.per_layer.set("recovery.open_s", open_s);
        out.per_layer.set("recovery.replay_s", replay_s);
        // What `open` spends outside its replay timers: reading and
        // decoding db.snap.
        out.per_layer
            .set("recovery.snapshot_load_s", (open_s - replay_s).max(0.0));
        out.per_layer.set(
            "recovery.records",
            metric(&m, "graphgen_recovery_records_total"),
        );
        out.check(
            "recovered snapshot equals re-extraction of the acked applies",
            recovered
                .snapshot("g")
                .is_ok_and(|s| s.canonical_bytes() == reference),
        );
    } else {
        drop((c0.conn, c1.conn));
    }

    let tracers = [c0.tracer, c1.tracer];
    out.tracers.extend(tracers);
    out
}

// ---------------------------------------------------------------------------
// Per-layer numbers
// ---------------------------------------------------------------------------

/// `name{labels} value` lines of a (possibly escaped, `OK `-prefixed)
/// exposition, keyed by everything before the value.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    unescape_exposition(text.strip_prefix("OK ").unwrap_or(text))
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn metric(m: &HashMap<String, f64>, key: &str) -> f64 {
    m.get(key).copied().unwrap_or(0.0)
}

/// The set-up's `EXTRACT`, by the product's own phase spans, from a
/// `METRICS` scraped before any `APPLY` (whose patches add to the same
/// `build_rep` histogram).
fn extract_layers(m: &HashMap<String, f64>, layers: &mut Values) {
    for (phase, name) in [
        ("scan", "reldb.scan_s"),
        ("join", "reldb.join_s"),
        ("distinct", "reldb.distinct_s"),
        ("build_rep", "graph.build_rep_s"),
    ] {
        let ns = metric(
            m,
            &format!("graphgen_extract_phase_ns_sum{{phase=\"{phase}\"}}"),
        );
        layers.set(name, ns / 1e9);
    }
    layers.set("core.extract_s", metric(m, "graphgen_extract_ns_sum") / 1e9);
}

/// Fill the server-side layers from its `METRICS`. `wire_ns` is the wire
/// latency of every script request the clients sent.
fn server_layers(m: &HashMap<String, f64>, layers: &mut Values, wire_ns: u64) {
    let p50 =
        |family: &str, label: &str| metric(m, &format!("{family}{{{label},quantile=\"0.5\"}}"));
    layers.set(
        "server.request_ns_read",
        p50("graphgen_request_ns", "verb=\"neighbors\""),
    );
    layers.set(
        "server.request_ns_apply",
        p50("graphgen_request_ns", "verb=\"apply\""),
    );
    let server_ns: f64 = ["neighbors", "degree", "apply", "ping"]
        .iter()
        .map(|verb| metric(m, &format!("graphgen_request_ns_sum{{verb=\"{verb}\"}}")))
        .sum();
    layers.set(
        "server.unattributed_share",
        1.0 - server_ns / (wire_ns as f64).max(1.0),
    );
    for (phase, name) in [
        ("validate", "service.apply_validate_us"),
        ("wal_append", "wal.append_us"),
        ("patch", "incremental.patch_us"),
        ("publish", "service.publish_us"),
    ] {
        let ns = p50("graphgen_apply_phase_ns", &format!("phase=\"{phase}\""));
        layers.set(name, ns / 1e3);
    }
    layers.set(
        "wal.fsync_p50_us",
        metric(m, "graphgen_wal_fsync_ns{quantile=\"0.5\"}") / 1e3,
    );
    layers.set(
        "wal.fsync_p90_us",
        metric(m, "graphgen_wal_fsync_ns{quantile=\"0.9\"}") / 1e3,
    );
    layers.set("wal.appends", metric(m, "graphgen_wal_appends_total"));
    let rows = metric(m, "graphgen_apply_rows_total");
    if rows > 0.0 {
        layers.set(
            "wal.bytes_per_row",
            metric(m, "graphgen_wal_append_bytes_total") / rows,
        );
    }
    let compactions = metric(m, "graphgen_compactions_total");
    layers.set("wal.compactions", compactions);
    if compactions > 0.0 {
        layers.set(
            "wal.compaction_ms",
            metric(m, "graphgen_compaction_ns_sum") / compactions / 1e6,
        );
    }
}

/// The read path, layer by layer, called in-process on script lines the
/// server has already answered over the wire.
fn read_path_probes(
    service: &GraphService,
    script: &Script,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let lines: Vec<&str> = script
        .ops
        .iter()
        .filter(|op| op.kind == Kind::Read)
        .take(PROBE_LINES)
        .map(|op| {
            std::str::from_utf8(&script.bytes[op.start as usize..op.end as usize])
                .expect("scripts are ASCII")
        })
        .collect();
    let n = lines.len().max(1) as f64;
    let mean_ns = |tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        tracer.span(name, 0, f);
        t0.elapsed().as_nanos() as f64 / n
    };

    let mut commands: Vec<Command> = Vec::with_capacity(lines.len());
    let parse_ns = mean_ns(tracer, "protocol.parse", &mut || {
        commands = lines
            .iter()
            .filter_map(|line| parse_command(line).ok().flatten())
            .collect();
    });
    let execute_ns = mean_ns(tracer, "protocol.execute_read", &mut || {
        for command in &commands {
            std::hint::black_box(execute(service, command));
        }
    });
    let pin_ns = mean_ns(tracer, "service.snapshot_pin", &mut || {
        for _ in &commands {
            std::hint::black_box(service.snapshot("g").is_ok());
        }
    });
    let snapshot = service.snapshot("g").expect("served graph");
    let neighbors_ns = mean_ns(tracer, "core.neighbors_by_key", &mut || {
        for command in &commands {
            if let Command::Neighbors { key, .. } | Command::Degree { key, .. } = command {
                std::hint::black_box(snapshot.handle().neighbors_by_key(key));
            }
        }
    });
    out.check(
        "every probed script line parses to a command",
        commands.len() == lines.len(),
    );
    let layers = &mut out.per_layer;
    layers.set("protocol.parse_ns", parse_ns);
    layers.set("protocol.execute_read_ns", execute_ns);
    layers.set("service.snapshot_pin_ns", pin_ns);
    layers.set("core.neighbors_by_key_ns", neighbors_ns);
    // What the wire adds on top of parsing and executing: sockets, threads.
    let wire_us = layers.get("client.read_p50_us") - (parse_ns + execute_ns) / 1e3;
    layers.set("server.wire_overhead_us", wire_us);
}
