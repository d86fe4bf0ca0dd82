//! The versioned multi-graph registry: snapshot-isolated serving with
//! persistence and crash recovery.
//!
//! # Concurrency model
//!
//! A [`GraphService`] owns a relational [`Database`] plus any number of
//! named, incrementally maintained graphs. Each graph is published as an
//! immutable [`GraphSnapshot`] behind an `Arc`:
//!
//! * **readers** call [`GraphService::snapshot`], which clones the current
//!   `Arc` under a briefly held read lock. From then on the reader works
//!   on a *pinned version* — no lock held, no interference from writers,
//!   and the view is byte-identical ([`GraphHandle::canonical_bytes`]) to
//!   a committed version for as long as the `Arc` lives;
//! * **the writer** (one at a time, serialized by the service's writer
//!   lock) mutates the database, pushes the resulting [`DeltaBatch`]
//!   through each graph's private *working handle*, and atomically
//!   publishes a structurally shared [`GraphHandle::reader_clone`] of it
//!   as the next version. A reader therefore never observes a torn
//!   mid-patch state: every observable snapshot **is** some committed
//!   version.
//!
//! **Publish cost is delta-bound.** The working handle's adjacency is
//! `Arc`-chunked (`graphgen_graph::chunk`) and its id map / properties are
//! `Arc`-shared, so a `reader_clone` is `O(#chunks)` pointer bumps; the
//! patch itself copies-on-write only the chunks the delta lands in, and
//! the (graph-sized) delta-maintenance state is owned by the writer alone
//! and never copied. Pinned older versions keep pointing at the pre-patch
//! chunks — they are **immune** to later writes, byte-for-byte (asserted
//! by `tests/sharing_oracle.rs`).
//!
//! # Persistence
//!
//! With a directory attached ([`GraphService::create`] /
//! [`GraphService::open`]), every committed state is recoverable:
//!
//! ```text
//! dir/
//!   db.snap            magic GGSVDB3\0 | u64 db_version | Database
//!                      (value dictionary first, then the tables as ids)
//!   db.wal             records: u64 db_version | DeltaBatch   (see wal.rs)
//!   <name>.graph.snap  magic GGSVGR6\0 | u64 version | u64 db_version
//!                      | dsl | frozen plans (per chain: cuts, planned cost)
//! ```
//!
//! **The database is the only durable state.** A graph is a view the
//! database and its program give back, so a graph file is a header: what
//! the database cannot give back — the graph's version, the database
//! version it is consistent with, its program, and the plan it was
//! extracted with. The C-DUP and its maintenance state are never written.
//! Older graph files — `GGSVGR5\0` back to `GGSVGR2\0`, which framed a
//! handle snapshot — fail at their magic as [`ServeError::Corrupt`] naming
//! the file.
//!
//! Snapshot files carry a whole-file fxhash64 trailer ([`crate::wal::seal`])
//! and log records carry per-record checksums, so recovery surfaces
//! corruption as [`ServeError::Corrupt`] instead of decoding flipped bytes.
//! Both snapshot files stream to disk through
//! [`crate::wal::write_sealed_file`]; `db.snap` never exists in memory
//! whole.
//!
//! **One log.** The writer lock puts every batch in one serial order, and
//! the delta engine is deterministic in that order, so the order is all
//! durability has to record: a batch is appended to `db.wal` once, stamped
//! with the database version it produces, **before** any version it leads
//! to is observable. [`GraphService::open`] loads `db.snap`, replays the
//! log's newer records into the database, and then rebuilds every graph
//! from the recovered database by the bulk load an incremental `EXTRACT`
//! runs, with the graph's frozen cuts — never a fresh plan, so a stale plan
//! stays stale across a restart. A graph's version is its file's plus the
//! replayed batches past its stamp that touch its tables — the predicate
//! and the `version += 1` of the live write path. A graph file whose cuts
//! do not fit its program is refused before anything is built.
//!
//! **Checkpoint.** When the log grows past
//! [`ServiceConfig::compact_threshold`] (or on [`GraphService::compact`]),
//! the service rewrites the header of every graph whose file is stamped
//! older than the current database version, then `db.snap`, then truncates
//! the log (each file atomically, tmp+rename). Replay skips the records at
//! or below `db.snap`'s stamp and a graph's version counts only the records
//! past its own, so a crash between any two of those steps — some graph
//! files new, `db.snap` old or new, the log still full, a leftover `.tmp` —
//! recovers to the exact pre-crash state, and restart cost is bounded by
//! the log written since the last checkpoint plus one extraction per graph.
//! A checkpoint leaves no file stamped behind `db.snap`, and the log is
//! appended before anything else, so a graph stamped *behind* `db.snap` or
//! *ahead of* the recovered database is a foreign file and recovery rejects
//! it as [`ServeError::Corrupt`] instead of serving a diverged graph.

use crate::error::{ServeError, ServeResult};
use crate::wal::{unseal, write_sealed_file, Wal};
use graphgen_common::codec::{self, Reader, Sink};
use graphgen_common::metrics::{self, Phase};
use graphgen_common::region::Region;
use graphgen_common::FxHashMap;
use graphgen_core::{
    catalog_view, Error, GraphGen, GraphGenConfig, GraphHandle, GraphPatch, StateBytes,
};
use graphgen_dsl::cost::{
    cost_with_cuts, estimate_chain, plan_fingerprint, render_explain, render_unknown,
};
use graphgen_dsl::{check_source, CheckCatalog, CheckOptions, CheckReport, EdgeChain, GraphSpec};
use graphgen_reldb::{Database, DeltaBatch, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Magic prefix of `db.snap` (trailing digit = format version; format 2
/// prepended the database's value dictionary — the dense-id interner the
/// catalog and the interned join operators key by — to the table section;
/// format 3 writes that dictionary grow-only, as its values in id order,
/// and each table cell as its id).
pub const DB_SNAP_MAGIC: [u8; 8] = *b"GGSVDB3\0";
/// Magic prefix of `<name>.graph.snap` (trailing digit = format version;
/// format 4 added the frozen plan for drift detection, formats 3 and 5
/// framed a handle snapshot behind it, and format 6 is the header alone:
/// the graph is rebuilt from the database on recovery). Older-format files
/// fail `expect_magic` cleanly.
pub const GRAPH_SNAP_MAGIC: [u8; 8] = *b"GGSVGR6\0";

/// A graph's plan is flagged stale when re-costing its frozen cuts against
/// the live catalog exceeds the live min-cost plan by this ratio (or when
/// the min-cost plan's shape changed outright).
pub const DRIFT_THRESHOLD: f64 = 2.0;

/// Service knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Checkpoint (fold the log into a fresh `db.snap`) once the log exceeds
    /// this many bytes.
    pub compact_threshold: u64,
    /// Fsync log appends and snapshot writes (durability on return). Turn
    /// off for throughput experiments where the OS page cache is enough.
    pub fsync: bool,
    /// Worker threads for extraction and delta probes (`0` = the
    /// `GraphGenConfig` default: `GRAPHGEN_THREADS` or the available
    /// parallelism).
    pub threads: usize,
    /// An operation at or above this wall time (nanoseconds) counts as
    /// slow: it bumps `graphgen_slow_ops_total` and lands in the `TRACE`
    /// ring with its phase breakdown. Failed operations are traced
    /// regardless of duration.
    pub slow_op_ns: u64,
    /// Capacity of the slow-op trace ring (oldest events are evicted, and
    /// counted, once it is full).
    pub trace_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            compact_threshold: 1 << 20,
            fsync: true,
            threads: 0,
            slow_op_ns: 100_000_000, // 100 ms
            trace_capacity: 64,
        }
    }
}

/// One published, immutable version of a named graph. Readers hold it via
/// `Arc`; everything on it is lock-free from then on.
#[derive(Debug)]
pub struct GraphSnapshot {
    name: String,
    version: u64,
    db_version: u64,
    handle: GraphHandle,
}

impl GraphSnapshot {
    /// The graph's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The committed version this snapshot pins (1 = initial extraction;
    /// +1 per applied batch).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The database version this snapshot was built against. The snapshot
    /// is also consistent with every later database version whose batches
    /// left its referenced tables untouched (such batches do not produce a
    /// new graph version).
    pub fn db_version(&self) -> u64 {
        self.db_version
    }

    /// The graph itself (read-only: the snapshot is shared).
    pub fn handle(&self) -> &GraphHandle {
        &self.handle
    }

    /// Canonical key-space serialization of this version (the equality the
    /// isolation tests assert).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.handle.canonical_bytes()
    }
}

/// What one [`GraphService::apply`] call did.
#[derive(Debug, Clone, Default)]
pub struct ApplyOutcome {
    /// Mutations actually applied to the database (absent delete requests
    /// are dropped by the mutation API and count for nothing).
    pub rows: usize,
    /// Per affected graph: the newly published version and the merged
    /// patch counters.
    pub graphs: Vec<(String, u64, GraphPatch)>,
}

/// Per-graph health numbers (the `STATS` protocol surface).
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Registry name.
    pub name: String,
    /// Currently published version.
    pub version: u64,
    /// Live vertices.
    pub vertices: usize,
    /// Logical (expanded, deduplicated) directed edges.
    pub edges: u64,
    /// Representation label of the served handle.
    pub rep: String,
    /// Cost of the frozen plan re-costed on live statistics, relative to
    /// the live min-cost plan (1.0 = still optimal).
    pub drift: f64,
    /// True when the live min-cost plan's fingerprint differs from the
    /// frozen plan's, or `drift` exceeds the configured threshold — the
    /// trigger signal for re-planning.
    pub stale_plan: bool,
}

/// One table's worth of mutations for [`GraphService::apply`].
#[derive(Debug, Clone, Default)]
pub struct TableMutation {
    /// Target table.
    pub table: String,
    /// Rows to append.
    pub inserts: Vec<Vec<Value>>,
    /// Rows to delete (bag semantics; absent rows are no-ops).
    pub deletes: Vec<Vec<Value>>,
}

impl TableMutation {
    /// Mutation against `table` with the given inserts and deletes.
    pub fn new(
        table: impl Into<String>,
        inserts: Vec<Vec<Value>>,
        deletes: Vec<Vec<Value>>,
    ) -> Self {
        Self {
            table: table.into(),
            inserts,
            deletes,
        }
    }
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// The plan one chain of a graph was extracted with, frozen at
/// extraction time: the cut set (which joins were postponed) plus the cost
/// the planner chose it at. Persisted in the graph file, so recovery
/// rebuilds the graph with these cuts and restores drift detection without
/// re-planning.
#[derive(Debug, Clone)]
struct FrozenChainPlan {
    /// Per-join postpone flags (length = #atoms - 1).
    cuts: Vec<bool>,
    /// Total plan cost under the statistics it was planned with.
    planned_cost: f64,
}

/// Writer-side state of one registered graph.
#[derive(Debug)]
struct GraphState {
    dsl: String,
    /// The `Edges` chains compiled from `dsl` once, for drift re-costing
    /// (pure catalog arithmetic on every publish).
    chains: Vec<EdgeChain>,
    /// Frozen extraction-time plan per chain, parallel to `chains`.
    frozen: Vec<FrozenChainPlan>,
    /// Latest frozen-vs-min-cost ratio (see [`GraphStats::drift`]).
    drift: f64,
    /// Latest staleness verdict (see [`GraphStats::stale_plan`]).
    stale_plan: bool,
    /// The writer's private working handle: owns the delta-maintenance
    /// state, is patched **in place** per batch, and is the source of
    /// every published [`GraphHandle::reader_clone`]. Readers never touch
    /// it.
    working: GraphHandle,
    /// The currently published version (a structurally shared reader
    /// clone of `working` as of its commit).
    current: Arc<GraphSnapshot>,
    /// The database version stamped on the graph's **file**: log records
    /// at or below it are already counted in the file's version. A
    /// checkpoint rewrites the file when this is behind the current
    /// database version.
    snap_db_version: u64,
}

impl GraphState {
    /// Writer-side state around `working`, extracted from `dsl` (whose
    /// compiled chains are `chains`), published as `version` and stamped
    /// `db_version` in memory and on disk (a fresh extraction; a recovered
    /// graph then sets its file's own stamp). Drift starts neutral; the
    /// caller re-costs it against its catalog.
    fn new(
        name: &str,
        dsl: &str,
        chains: Vec<EdgeChain>,
        frozen: Vec<FrozenChainPlan>,
        working: GraphHandle,
        version: u64,
        db_version: u64,
    ) -> Self {
        let current = Arc::new(GraphSnapshot {
            name: name.to_string(),
            version,
            db_version,
            handle: working.reader_clone(),
        });
        GraphState {
            dsl: dsl.to_string(),
            chains,
            frozen,
            drift: 1.0,
            stale_plan: false,
            working,
            current,
            snap_db_version: db_version,
        }
    }

    /// Push the batch that produced `db_version` through the graph. A graph
    /// is affected iff the batch touches a table its spec reads
    /// ([`batch_affects`], the predicate recovery versions a rebuilt graph
    /// by): such a
    /// batch is always applied and versioned (even when it changes no
    /// visible edge, it advances the maintenance state the next delta
    /// builds on), and `current` becomes a structurally shared reader
    /// clone of the patched working handle (O(#chunks): the delta-bound
    /// publish). A graph whose tables are untouched is skipped wholesale,
    /// keeps its version, and answers `None`.
    ///
    /// The patch is in place: a failure leaves the working handle
    /// untrustworthy, while `current` is untouched and keeps serving.
    /// Pinned snapshots are immune to the patching — a write copies the
    /// chunks it touches, never the ones a pinned version points at.
    fn advance(&mut self, batch: &DeltaBatch, db_version: u64) -> ServeResult<Option<GraphPatch>> {
        if !batch_affects(batch, &self.working.referenced_tables()) {
            return Ok(None);
        }
        let patch = {
            let _span = metrics::span(Phase::Patch, Region::Patch);
            self.working.apply_batch(batch)?
        };
        self.current = Arc::new(GraphSnapshot {
            name: self.current.name.clone(),
            version: self.current.version + 1,
            db_version,
            handle: self.working.reader_clone(),
        });
        Ok(Some(patch))
    }
}

/// Everything the single writer touches, behind one lock.
#[derive(Debug)]
struct Inner {
    db: Database,
    db_version: u64,
    /// The service's only log (`db.wal`); `None` when not persisted.
    wal: Option<Wal>,
    graphs: FxHashMap<String, GraphState>,
    dir: Option<PathBuf>,
    cfg: ServiceConfig,
    /// Set when a write failed *after* the database was already mutated:
    /// the in-memory state may be ahead of the log, so further writer
    /// operations would compound the divergence silently. Reads keep
    /// working; recovery is reopening from the directory.
    wedged: bool,
}

/// The serving registry. See the module docs for the concurrency and
/// persistence model.
#[derive(Debug)]
pub struct GraphService {
    inner: Mutex<Inner>,
    /// Reader-side map: name → currently published snapshot. Writers swap
    /// entries under a short write lock after committing.
    published: RwLock<FxHashMap<String, Arc<GraphSnapshot>>>,
    /// The `ANALYZE` engine: worker pool + versioned result cache. Fresh
    /// on every construction, so recovery starts with a cold cache.
    analytics: crate::analyze::Analytics,
    /// The observability hub (registry + slow-op trace). Lives outside
    /// `inner` so the hot paths — readers pinning snapshots, the protocol
    /// layer timing requests — record without touching the writer lock.
    /// In-memory only: reopening a service starts every instrument at
    /// zero while graph/database versions persist.
    obs: crate::obs::Obs,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl GraphService {
    // -- construction -----------------------------------------------------

    /// A purely in-memory service (no persistence) over `db`.
    pub fn in_memory(db: Database) -> Self {
        Self::assemble(db, None, ServiceConfig::default())
    }

    /// Create a **fresh** persistent service in `dir` (created if needed;
    /// must not already hold a service — use [`GraphService::open`] for
    /// that). The database snapshot is written immediately.
    pub fn create(dir: impl AsRef<Path>, db: Database, cfg: ServiceConfig) -> ServeResult<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if dir.join("db.snap").exists() {
            return Err(ServeError::corrupt(
                dir.join("db.snap").display().to_string(),
                "already exists; use GraphService::open to recover it",
            ));
        }
        let service = Self::assemble(db, Some(dir.to_path_buf()), cfg);
        {
            let mut inner = service.inner.lock().unwrap();
            // The directory may hold debris from a previous incarnation
            // (e.g. the operator deleted a corrupt db.snap to start over):
            // graph files extracted from a database this service never
            // saw, its log (and the per-graph logs of the layout before
            // the single one), half-written `.tmp` siblings. All of it
            // must be gone *before* the fresh db.snap is written — a later
            // `open` would otherwise recover those graphs as live, or
            // replay the old log's mutations over the new database and
            // mask its own records behind recycled version numbers. A
            // crash mid-cleanup leaves no db.snap, which `open` refuses,
            // so `create` simply runs again.
            for entry in std::fs::read_dir(dir)? {
                let path = entry?.path();
                let Some(file) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if file == "db.wal"
                    || file.ends_with(".graph.snap")
                    || file.ends_with(".graph.wal")
                    || file.ends_with(".tmp")
                {
                    std::fs::remove_file(&path)?;
                }
            }
            let (mut wal, _) = Wal::open(dir.join("db.wal"))?;
            wal.set_fsync_histogram(service.obs.m.wal_fsync_ns.clone());
            write_db_snapshot(dir, &inner.db, inner.db_version, cfg.fsync)?;
            inner.wal = Some(wal);
        }
        Ok(service)
    }

    /// Recover a persistent service from `dir`: load `db.snap`, walk the
    /// log once into the database, rebuild every graph from it, and serve
    /// the exact pre-crash committed state.
    pub fn open(dir: impl AsRef<Path>) -> ServeResult<Self> {
        Self::open_with(dir, ServiceConfig::default())
    }

    /// [`GraphService::open`] with explicit knobs.
    pub fn open_with(dir: impl AsRef<Path>, cfg: ServiceConfig) -> ServeResult<Self> {
        let dir = dir.as_ref();
        // -- the database snapshot -------------------------------------------
        let db_snap_path = dir.join("db.snap");
        let bytes = std::fs::read(&db_snap_path)?;
        let content = unseal(&bytes).ok_or_else(|| {
            ServeError::corrupt(
                db_snap_path.display().to_string(),
                "integrity checksum mismatch",
            )
        })?;
        let mut r = Reader::new(content);
        let parse = |r: &mut Reader<'_>| -> Result<(u64, Database), graphgen_common::CodecError> {
            r.expect_magic(&DB_SNAP_MAGIC)?;
            let version = r.u64()?;
            let db = Database::decode(r)?;
            r.expect_end()?;
            Ok((version, db))
        };
        let (db_snap_version, mut db) = parse(&mut r)
            .map_err(|e| ServeError::corrupt(db_snap_path.display().to_string(), e))?;
        let replay_t0 = Instant::now();
        let _replay_span = metrics::span(Phase::Recovery, Region::Recovery);
        let mut stems: Vec<(String, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(file) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(stem) = file.strip_suffix(".graph.snap") {
                stems.push((stem.to_string(), path.clone()));
            }
        }
        stems.sort();
        // -- every graph file's header, checked before anything is built --
        let mut headers = Vec::with_capacity(stems.len());
        for (name, path) in stems {
            let (header, spec) = read_graph_file(&path)?;
            if header.db_version < db_snap_version {
                // A checkpoint rewrites every graph file stamped behind the
                // database before it writes db.snap, so no crash leaves
                // this layout, and the batches in between are gone from
                // the log: refuse rather than serve a graph behind its
                // database.
                return Err(ServeError::corrupt(
                    path.display().to_string(),
                    format!(
                        "graph is consistent with database version {} but db.snap \
                         is at {db_snap_version} and the batches between were \
                         checkpointed away; re-extract the graph",
                        header.db_version
                    ),
                ));
            }
            headers.push((name, path, header, spec));
        }
        // -- the log, once, into the database --------------------------------
        let log_path = dir.join("db.wal");
        let log_file = log_path.display().to_string();
        let (mut wal, records) = Wal::open(&log_path).map_err(|e| match e.kind() {
            std::io::ErrorKind::InvalidData => ServeError::corrupt(&log_file, e),
            _ => e.into(),
        })?;
        let mut db_version = db_snap_version;
        let mut replayed: Vec<(u64, DeltaBatch)> = Vec::new();
        for record in records {
            let (version, batch) =
                decode_wal_record(&record).map_err(|e| ServeError::corrupt(&log_file, e))?;
            if version <= db_version {
                // Folded into db.snap by a checkpoint that crashed before
                // truncating — and so into every graph file, none of which
                // is stamped behind db.snap.
                continue;
            }
            replay_batch_on_db(&mut db, &batch)?;
            replayed.push((version, batch));
            db_version = version;
        }
        // -- each graph, rebuilt from the recovered database -----------------
        // With the cuts it was first extracted with, by the bulk load an
        // incremental EXTRACT runs; its version counts the replayed batches
        // past its stamp that touch its tables, as the live write path did.
        let gg = GraphGen::with_config(&db, Self::extraction_config(&cfg));
        let mut graphs = Vec::with_capacity(headers.len());
        for (name, path, header, spec) in headers {
            let file = path.display().to_string();
            if header.db_version > db_version {
                // The log is appended before anything is patched or
                // snapshotted, so a graph is never ahead of its database.
                // Finding one means foreign files (a previous incarnation's
                // graph beside a recreated database) or fsync-off
                // reordering — its history is not this database's.
                return Err(ServeError::corrupt(
                    file,
                    format!(
                        "graph is ahead of its database (stamped database version \
                         {}, recovered database at {db_version}): the graph belongs \
                         to another incarnation; re-extract it",
                        header.db_version
                    ),
                ));
            }
            let cuts: Vec<Vec<bool>> = header.frozen.iter().map(|p| p.cuts.clone()).collect();
            let working = gg
                .extract_with_cuts(&spec, &cuts)
                .map_err(|e| ServeError::corrupt(&file, e))?;
            let tables = working.referenced_tables();
            let (mut version, mut published_at) = (header.version, header.db_version);
            for (at, batch) in &replayed {
                if *at > header.db_version && batch_affects(batch, &tables) {
                    (version, published_at) = (version + 1, *at);
                }
            }
            let mut state = GraphState::new(
                &name,
                &header.dsl,
                spec.edges,
                header.frozen,
                working,
                version,
                published_at,
            );
            state.snap_db_version = header.db_version;
            graphs.push(state);
        }
        let replayed = replayed.len() as u64;
        let service = Self::assemble(db, Some(dir.to_path_buf()), cfg);
        // The registry is born with the service, so the replay above is
        // timed externally and recorded here (instruments are in-memory
        // only: a reopened service starts them at zero).
        service.obs.m.recovery_replay_ns.record_since(replay_t0);
        service.obs.m.recovery_records_total.add(replayed);
        wal.set_fsync_histogram(service.obs.m.wal_fsync_ns.clone());
        {
            let mut inner = service.inner.lock().unwrap();
            inner.db_version = db_version;
            inner.wal = Some(wal);
            // Re-cost every recovered graph's frozen plan against the
            // recovered catalog: drift survives restarts without a scan.
            let catalog = catalog_view(&inner.db);
            let factor = Self::extraction_config(&cfg).large_output_factor();
            let mut published = service.published.write().unwrap();
            for mut state in graphs {
                recompute_drift(&catalog, &mut state, factor);
                let name = state.current.name().to_string();
                published.insert(name.clone(), Arc::clone(&state.current));
                inner.graphs.insert(name, state);
            }
        }
        Ok(service)
    }

    fn assemble(db: Database, dir: Option<PathBuf>, cfg: ServiceConfig) -> Self {
        let obs = crate::obs::Obs::new(cfg.slow_op_ns, cfg.trace_capacity);
        // The analyze engine's counters are registry instruments, so the
        // METRICS exposition and ANALYZE STATUS read the same state.
        let analytics = crate::analyze::Analytics::with_instruments(
            obs.m.analyze_computes_total.clone(),
            obs.m.analyze_hits_total.clone(),
            obs.m.analyze_warm_starts_total.clone(),
            obs.m.analyze_iterations_saved_total.clone(),
            obs.m.analyze_compute_ns.clone(),
        );
        Self {
            inner: Mutex::new(Inner {
                db,
                db_version: 0,
                wal: None,
                graphs: FxHashMap::default(),
                dir,
                cfg,
                wedged: false,
            }),
            published: RwLock::new(FxHashMap::default()),
            analytics,
            obs,
        }
    }

    /// The observability hub: the instrument registry, the per-verb and
    /// per-phase histograms, and the slow-op trace ring.
    pub fn obs(&self) -> &crate::obs::Obs {
        &self.obs
    }

    /// Render the Prometheus-style text exposition of every instrument,
    /// refreshing the point-in-time gauges (graph count, database
    /// version/rows/bytes, dictionary entries, state bytes, wedge flag,
    /// analyze cache occupancy) from live state
    /// first. One coherent registry snapshot per call: counters are read
    /// monotonically, never torn against each other mid-line.
    pub fn metrics_text(&self) -> String {
        {
            let inner = self.inner.lock().unwrap();
            self.obs.m.graphs.set(inner.graphs.len() as u64);
            self.obs.m.db_version.set(inner.db_version);
            self.obs.m.db_rows.set(inner.db.total_rows() as u64);
            self.obs.set_db_bytes(&inner.db);
            self.obs.m.intern_entries.set(inner.db.dict().len() as u64);
            let mut state = StateBytes::default();
            for bytes in inner
                .graphs
                .values()
                .filter_map(|g| g.working.state_bytes())
            {
                state += bytes;
            }
            self.obs.set_state_bytes(&state);
            self.obs.m.wedged.set(u64::from(inner.wedged));
        }
        let c = self.analyze_counters();
        self.obs.m.analyze_cached_entries.set(c.cached as u64);
        self.obs.m.analyze_inflight.set(c.in_flight as u64);
        self.obs.render()
    }

    /// The analysis engine (crate-internal: `analyze.rs` implements the
    /// public `analyze*` methods against it).
    pub(crate) fn analytics(&self) -> &crate::analyze::Analytics {
        &self.analytics
    }

    /// Thread count analyses run with (the extraction thread setting).
    pub(crate) fn analysis_threads(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        Self::extraction_config(&inner.cfg).threads()
    }

    fn extraction_config(cfg: &ServiceConfig) -> GraphGenConfig {
        let mut b = GraphGenConfig::builder().incremental(true);
        if cfg.threads > 0 {
            b = b.threads(cfg.threads);
        }
        b.build()
    }

    // -- registry ---------------------------------------------------------

    /// Extract a new named graph from the current database state with the
    /// given DSL program, register it at version 1, write its graph file
    /// (when the service is persistent), and publish it.
    pub fn extract(&self, name: &str, dsl: &str) -> ServeResult<Arc<GraphSnapshot>> {
        if !valid_name(name) {
            return Err(ServeError::BadName(name.to_string()));
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.wedged {
            return Err(ServeError::Wedged);
        }
        if inner.graphs.contains_key(name) {
            return Err(ServeError::DuplicateGraph(name.to_string()));
        }
        let t0 = Instant::now();
        let gg = GraphGen::with_config(&inner.db, Self::extraction_config(&inner.cfg));
        let result = gg
            .checked_spec(dsl)
            .and_then(|spec| Ok((gg.extract_spec(&spec)?, spec)));
        let (handle, spec) = match result {
            Ok(extracted) => extracted,
            Err(e) => {
                // Count what the static checker rejected, per code (parse
                // failures under E000). Not persisted: a rejected
                // extraction registers nothing for recovery to restore.
                match &e {
                    Error::Check(diags) => {
                        diags.iter().for_each(|d| self.obs.record_reject(d.code))
                    }
                    Error::Dsl(parse) => self.obs.record_reject(parse.diagnostic().code),
                    _ => {}
                }
                return Err(e.into());
            }
        };
        // Freeze the plan the extraction ran with: the drift detector
        // re-costs exactly these cuts against every future catalog state.
        let frozen = frozen_plans(handle.report());
        let db_version = inner.db_version;
        let mut state = GraphState::new(name, dsl, spec.edges, frozen, handle, 1, db_version);
        let snapshot = Arc::clone(&state.current);
        recompute_drift(
            &catalog_view(&inner.db),
            &mut state,
            Self::extraction_config(&inner.cfg).large_output_factor(),
        );
        if let Some(dir) = &inner.dir {
            // The stamp is all recovery needs: log records at or below
            // `db_version` (a previous graph of this name may have seen
            // them) do not version this graph again.
            write_graph_file(dir, &state, db_version, inner.cfg.fsync)?;
        }
        inner.graphs.insert(name.to_string(), state);
        self.published
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::clone(&snapshot));
        self.obs.m.extracts_total.inc();
        self.obs.m.extract_ns.record_since(t0);
        Ok(snapshot)
    }

    /// Statically check a DSL program against the service's current
    /// database schema and statistics without extracting or registering
    /// anything. `name` is validated exactly like [`GraphService::extract`]
    /// does (so a `CHECK` pre-flights the matching `EXTRACT` line), but a
    /// registered graph under that name is *not* an error — re-checking a
    /// live graph's query is legitimate. Never bumps the rejection
    /// counters: only real extraction attempts do.
    ///
    /// Parse failures come back as a report whose single diagnostic is the
    /// `E000` syntax error, not as an `Err` — a malformed program is a
    /// checker *finding*, not a service failure.
    pub fn check(&self, name: &str, dsl: &str) -> ServeResult<CheckReport> {
        if !valid_name(name) {
            return Err(ServeError::BadName(name.to_string()));
        }
        let inner = self.inner.lock().unwrap();
        let catalog = catalog_view(&inner.db);
        Ok(check_source(dsl, Some(&catalog), &CheckOptions::default()))
    }

    /// Cost a DSL program against the service's current statistics and
    /// render the chosen plan trees (the `EXPLAIN <name> <dsl>` verb) —
    /// pure catalog arithmetic, nothing is extracted or registered.
    /// `name` is validated like [`GraphService::extract`] so the line
    /// pre-flights the matching `EXTRACT`.
    pub fn explain_dsl(&self, name: &str, dsl: &str) -> ServeResult<String> {
        if !valid_name(name) {
            return Err(ServeError::BadName(name.to_string()));
        }
        let inner = self.inner.lock().unwrap();
        let explanation =
            GraphGen::with_config(&inner.db, Self::extraction_config(&inner.cfg)).explain(dsl)?;
        Ok(explanation.to_string())
    }

    /// Re-cost a **registered** graph's frozen extraction-time plan
    /// against the current statistics (the `EXPLAIN <name>` verb): the
    /// drift verdict, the frozen plan's live cost, and the live min-cost
    /// plan trees side by side.
    pub fn explain_graph(&self, name: &str) -> ServeResult<String> {
        let inner = self.inner.lock().unwrap();
        let state = inner
            .graphs
            .get(name)
            .ok_or_else(|| ServeError::UnknownGraph(name.to_string()))?;
        let catalog = catalog_view(&inner.db);
        let factor = Self::extraction_config(&inner.cfg).large_output_factor();
        let mut out = format!(
            "graph {name}: drift={:.2} stale_plan={}\n",
            state.drift, state.stale_plan
        );
        for (i, (chain, frozen)) in state.chains.iter().zip(&state.frozen).enumerate() {
            let label = format!("chain {}", i + 1);
            match estimate_chain(&catalog, &chain.steps, factor) {
                Some(best) => {
                    let frozen_live = cost_with_cuts(&catalog, &chain.steps, factor, &frozen.cuts)
                        .unwrap_or(f64::NAN);
                    out.push_str(&format!(
                        "  frozen {label}: planned_cost={:.0} live_cost={:.0} cuts={}\n",
                        frozen.planned_cost,
                        frozen_live,
                        frozen
                            .cuts
                            .iter()
                            .map(|&c| if c { "cut" } else { "keep" })
                            .collect::<Vec<_>>()
                            .join(","),
                    ));
                    out.push_str(&render_explain(&format!("live {label}"), &best));
                }
                None => out.push_str(&render_unknown(&format!("live {label}"), &chain.steps)),
            }
        }
        Ok(out)
    }

    /// Unregister a graph and delete its graph file. Readers holding
    /// snapshots keep their pinned versions.
    pub fn drop_graph(&self, name: &str) -> ServeResult<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.graphs.remove(name).is_none() {
            return Err(ServeError::UnknownGraph(name.to_string()));
        }
        if let Some(dir) = &inner.dir {
            let _ = std::fs::remove_file(graph_snap_path(dir, name));
        }
        self.published.write().unwrap().remove(name);
        self.analytics.forget(name);
        Ok(())
    }

    /// The currently published version of `name`. This is the reader entry
    /// point: the returned snapshot is immutable and pinned — concurrent
    /// writers publish *new* versions, they never touch this one. The call
    /// does one map lookup and one `Arc` reference bump under the read
    /// lock — no part of the snapshot itself is copied, so readers cost
    /// the writer nothing and scale with contention.
    pub fn snapshot(&self, name: &str) -> ServeResult<Arc<GraphSnapshot>> {
        self.published
            .read()
            .unwrap()
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::UnknownGraph(name.to_string()))
            // One relaxed atomic increment: the reader hot path stays
            // lock-free.
            .inspect(|_| self.obs.m.snapshots_total.inc())
    }

    /// Registered graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.published.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Per-graph health numbers, sorted by name, plus the database row
    /// count as the second return.
    ///
    /// The edge count is a full logical-graph expansion; it is computed on
    /// version-pinned snapshot `Arc`s *after* the writer lock is released,
    /// so a `STATS` request never stalls the write path for the duration
    /// of a traversal.
    pub fn stats(&self) -> (Vec<GraphStats>, usize) {
        use graphgen_graph::GraphRep;
        let (entries, db_rows) = {
            let inner = self.inner.lock().unwrap();
            let mut names: Vec<&String> = inner.graphs.keys().collect();
            names.sort();
            let entries: Vec<(String, Arc<GraphSnapshot>, f64, bool)> = names
                .into_iter()
                .map(|name| {
                    let state = &inner.graphs[name.as_str()];
                    (
                        name.clone(),
                        Arc::clone(&state.current),
                        state.drift,
                        state.stale_plan,
                    )
                })
                .collect();
            (entries, inner.db.total_rows())
        };
        let out = entries
            .into_iter()
            .map(|(name, snapshot, drift, stale_plan)| {
                let h = snapshot.handle();
                GraphStats {
                    name,
                    version: snapshot.version(),
                    vertices: h.num_vertices(),
                    edges: h.expanded_edge_count(),
                    rep: h.kind().label().to_string(),
                    drift,
                    stale_plan,
                }
            })
            .collect();
        (out, db_rows)
    }

    /// Bytes in the write-ahead log, framing included (0 when the service
    /// is not persisted) — what the next restart replays and the next
    /// checkpoint folds.
    pub fn wal_bytes(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.wal.as_ref().map_or(0, Wal::bytes)
    }

    // -- the write path ---------------------------------------------------

    /// Apply a batch of table mutations: mutate the database, append the
    /// resulting [`DeltaBatch`] to the write-ahead log, patch the working
    /// handle of every graph that reads a touched table, and atomically
    /// publish the next version of each. Readers pinned to older versions
    /// are unaffected.
    ///
    /// Validation errors (unknown table, schema mismatch) are detected
    /// **before** anything is mutated, so a rejected call is a true no-op.
    /// A failure *after* mutation begins (an io error on the log, an
    /// inconsistent hand-built state) wedges the writer — see
    /// [`ServeError::Wedged`] — because the in-memory state can no longer
    /// be proven consistent with the log; graphs patched before the
    /// failure are still published.
    pub fn apply(&self, mutations: &[TableMutation]) -> ServeResult<ApplyOutcome> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        if inner.wedged {
            return Err(ServeError::Wedged);
        }
        let t0 = Instant::now();
        // 0. Pre-validate every mutation against the catalog so the whole
        //    call either passes validation or mutates nothing.
        {
            let _span = metrics::span(Phase::Validate, Region::Validate);
            for m in mutations {
                let table = inner.db.table(&m.table)?;
                for row in m.inserts.iter().chain(m.deletes.iter()) {
                    table.schema().check_row(row)?;
                }
            }
        }
        // 1. Mutate the database; the deltas it hands back are the batch.
        let mut batch = DeltaBatch::new();
        {
            let _span = metrics::span(Phase::DbMutate, Region::General);
            for m in mutations {
                let step = (|| -> ServeResult<()> {
                    if !m.inserts.is_empty() {
                        batch.push(inner.db.insert_rows(&m.table, m.inserts.clone())?);
                    }
                    if !m.deletes.is_empty() {
                        batch.push(inner.db.delete_rows(&m.table, &m.deletes)?);
                    }
                    Ok(())
                })();
                if let Err(e) = step {
                    // Unreachable given the pre-validation, but if it ever
                    // fires with earlier mutations already applied, the db
                    // has diverged from the (unwritten) log: wedge.
                    inner.wedged = !batch.is_empty();
                    return Err(e);
                }
            }
        }
        let mut outcome = ApplyOutcome {
            rows: batch.len(),
            graphs: Vec::new(),
        };
        if batch.is_empty() {
            return Ok(outcome);
        }
        self.obs.m.applies_total.inc();
        self.obs.m.apply_rows_total.add(batch.len() as u64);

        // 2. Log the batch, once, under the database version it produces
        //    (redo rule: in the log before that version is observable
        //    anywhere). This record is every affected graph's durability.
        inner.db_version += 1;
        let db_version = inner.db_version;
        if let Some(wal) = inner.wal.as_mut() {
            let _span = metrics::span(Phase::WalAppend, Region::WalAppend);
            let record = encode_wal_record(db_version, &batch);
            if let Err(e) = wal.append(&record, inner.cfg.fsync) {
                // The db is mutated but the log does not carry the batch:
                // a restart would recover the pre-batch state while this
                // process serves the post-batch one. Refuse further writes.
                inner.wedged = true;
                return Err(e.into());
            }
            self.obs.m.wal_appends_total.inc();
            self.obs.m.wal_append_bytes_total.add(record.len() as u64);
        }

        // 3. Push the batch through every graph it affects (see
        //    `GraphState::advance`). A failure leaves that graph and every
        //    one after it a batch behind the database, so the writer
        //    wedges; the graphs advanced before it are consistent and are
        //    still published below, and reopening the directory heals the
        //    rest (the batch is in the log for every graph).
        let mut states: Vec<(&String, &mut GraphState)> = inner.graphs.iter_mut().collect();
        states.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut apply_err: Option<ServeError> = None;
        for (name, state) in states {
            match state.advance(&batch, db_version) {
                Ok(None) => {}
                Ok(Some(patch)) => {
                    let changes = patch.support_changes as u64;
                    self.obs.m.patch_support_changes_total.add(changes);
                    outcome
                        .graphs
                        .push((name.clone(), state.current.version, patch));
                }
                Err(e) => {
                    inner.wedged = true;
                    apply_err = Some(e);
                    break;
                }
            }
        }

        // 4. Re-cost the patched graphs' frozen plans against one view of
        //    the post-batch statistics (pure arithmetic; a graph whose
        //    tables the batch left untouched keeps its verdict — its
        //    statistics did not move).
        if !outcome.graphs.is_empty() {
            let _span = metrics::span(Phase::Drift, Region::General);
            let catalog = catalog_view(&inner.db);
            let factor = Self::extraction_config(&inner.cfg).large_output_factor();
            for (name, _, _) in &outcome.graphs {
                if let Some(state) = inner.graphs.get_mut(name) {
                    recompute_drift(&catalog, state, factor);
                }
            }
        }

        // 5. Checkpoint an oversized log. An error here must not skip the
        //    publication step (the versions above already committed), so
        //    it routes through `apply_err` too.
        let threshold = inner.cfg.compact_threshold;
        let oversized = inner.wal.as_ref().is_some_and(|w| w.bytes() > threshold);
        if apply_err.is_none() && oversized {
            if let Err(e) = self.checkpoint(inner) {
                inner.wedged = true;
                apply_err = Some(e);
            }
        }

        // Committed removals invalidate component warm-seeds from before
        // them — record that before the new versions become visible.
        for (name, version, patch) in &outcome.graphs {
            self.analytics.note_publish(name, *version, patch);
        }

        // 6. Atomic publication: one short write lock swaps every changed
        //    graph to its next version.
        if !outcome.graphs.is_empty() {
            let _span = metrics::span(Phase::Publish, Region::Publish);
            self.obs.m.publishes_total.add(outcome.graphs.len() as u64);
            let mut published = self.published.write().unwrap();
            for (name, _, _) in &outcome.graphs {
                published.insert(name.clone(), Arc::clone(&inner.graphs[name].current));
            }
        }
        self.obs.m.apply_ns.record_since(t0);
        match apply_err {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Checkpoint now (the automatic threshold does this lazily): fold the
    /// log into a fresh `db.snap` so a restart replays nothing older. `name`
    /// must be a registered graph; the checkpoint itself covers the
    /// database and every graph, because they share the one log.
    pub fn compact(&self, name: &str) -> ServeResult<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.wedged {
            return Err(ServeError::Wedged);
        }
        if !inner.graphs.contains_key(name) {
            return Err(ServeError::UnknownGraph(name.to_string()));
        }
        self.checkpoint(&mut inner)
    }

    /// The one compaction routine: rewrite the header of every graph whose
    /// file is stamped behind the database, then `db.snap`, then truncate
    /// the log. Requires a non-wedged service — every graph is then
    /// consistent with the current database version (each batch that
    /// touched its tables was applied), so its file can be stamped with
    /// it. Each step leaves a layout recovery already handles: a graph's
    /// version counts only the records past its file's own stamp.
    fn checkpoint(&self, inner: &mut Inner) -> ServeResult<()> {
        let (Some(dir), Some(wal)) = (&inner.dir, &mut inner.wal) else {
            return Ok(()); // in-memory service: nothing to fold
        };
        if wal.bytes() == 0 {
            return Ok(()); // every file is already at the current version
        }
        let t0 = Instant::now();
        let (db_version, fsync) = (inner.db_version, inner.cfg.fsync);
        for state in inner.graphs.values_mut() {
            if state.snap_db_version < db_version {
                write_graph_file(dir, state, db_version, fsync)?;
                state.snap_db_version = db_version;
            }
        }
        write_db_snapshot(dir, &inner.db, db_version, fsync)?;
        wal.reset()?;
        self.obs.m.compactions_total.inc();
        self.obs.m.compaction_ns.record_since(t0);
        Ok(())
    }

    /// The persistence directory, if the service is persistent.
    pub fn dir(&self) -> Option<PathBuf> {
        self.inner.lock().unwrap().dir.clone()
    }
}

// ---------------------------------------------------------------------------
// Persistence helpers
// ---------------------------------------------------------------------------

/// Does `batch` touch any of the given referenced tables? Decides which
/// batches version a graph.
fn batch_affects(batch: &DeltaBatch, tables: &[String]) -> bool {
    batch
        .deltas()
        .iter()
        .any(|d| tables.iter().any(|t| t == d.table()))
}

/// Freeze the plans an extraction ran with, straight off its report:
/// the cut set plus the cost the planner chose it at.
fn frozen_plans(report: &graphgen_core::ExtractionReport) -> Vec<FrozenChainPlan> {
    report
        .plans
        .iter()
        .map(|plan| FrozenChainPlan {
            cuts: plan.joins.iter().map(|j| j.large_output).collect(),
            planned_cost: plan.estimated_cost,
        })
        .collect()
}

/// Re-cost a graph's frozen plans against `catalog` and compare with the
/// live min-cost plans — pure catalog arithmetic, no table is scanned.
/// `drift` becomes Σ frozen-cost / Σ min-cost (1.0 = still optimal);
/// `stale_plan` fires when the min-cost plan's fingerprint moved away
/// from the frozen cuts or the ratio exceeds `threshold`. When the
/// catalog lacks statistics the previous verdict is kept: no evidence is
/// not evidence of drift.
fn recompute_drift(catalog: &CheckCatalog, state: &mut GraphState, factor: f64) {
    let mut frozen_live = 0.0f64;
    let mut best_live = 0.0f64;
    let mut shape_changed = false;
    for (chain, frozen) in state.chains.iter().zip(&state.frozen) {
        let Some(best) = estimate_chain(catalog, &chain.steps, factor) else {
            return;
        };
        let Some(frozen_cost) = cost_with_cuts(catalog, &chain.steps, factor, &frozen.cuts) else {
            return;
        };
        frozen_live += frozen_cost;
        best_live += best.cost;
        shape_changed |= best.fingerprint != plan_fingerprint(&chain.steps, &frozen.cuts);
    }
    state.drift = if best_live > 0.0 {
        frozen_live / best_live
    } else {
        1.0
    };
    state.stale_plan = shape_changed || state.drift > DRIFT_THRESHOLD;
}

fn graph_snap_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.graph.snap"))
}

fn encode_wal_record(version: u64, batch: &DeltaBatch) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u64(&mut out, version);
    batch.encode_into(&mut out);
    out
}

fn decode_wal_record(record: &[u8]) -> Result<(u64, DeltaBatch), graphgen_common::CodecError> {
    let mut r = Reader::new(record);
    let version = r.u64()?;
    let batch = DeltaBatch::decode(&mut r)?;
    r.expect_end()?;
    Ok((version, batch))
}

/// Re-apply a recovered batch to the database (replay path: the mutations
/// were already validated when first applied, and deletes name exact rows
/// the table held).
fn replay_batch_on_db(db: &mut Database, batch: &DeltaBatch) -> ServeResult<()> {
    use graphgen_reldb::DeltaOp;
    for delta in batch.deltas() {
        // Preserve intra-delta order: group maximal runs of same-op rows.
        let mut run_op: Option<DeltaOp> = None;
        let mut run: Vec<Vec<Value>> = Vec::new();
        let flush = |db: &mut Database,
                     op: Option<DeltaOp>,
                     run: &mut Vec<Vec<Value>>|
         -> ServeResult<()> {
            match op {
                Some(DeltaOp::Insert) => {
                    db.insert_rows(delta.table(), std::mem::take(run))?;
                }
                Some(DeltaOp::Delete) => {
                    db.delete_rows(delta.table(), &std::mem::take(run))?;
                }
                None => {}
            }
            Ok(())
        };
        for row in delta.rows() {
            if run_op != Some(row.op) {
                flush(db, run_op, &mut run)?;
                run_op = Some(row.op);
            }
            run.push(row.values.clone());
        }
        flush(db, run_op, &mut run)?;
    }
    Ok(())
}

fn write_db_snapshot(dir: &Path, db: &Database, db_version: u64, fsync: bool) -> ServeResult<()> {
    write_sealed_file(&dir.join("db.snap"), fsync, |out| {
        put_db_snapshot(out, db, db_version);
        Ok(())
    })
}

/// The content of `db.snap` before its seal.
fn put_db_snapshot(out: &mut impl Sink, db: &Database, db_version: u64) {
    out.put(&DB_SNAP_MAGIC);
    codec::put_u64(out, db_version);
    db.encode_into(out);
}

/// Write a graph's file: its header, sealed. `db_version` is passed
/// explicitly (not read off the snapshot) because a checkpoint may stamp a
/// graph as consistent with a database version *newer* than the one it was
/// published at — every batch in between left its tables untouched.
fn write_graph_file(
    dir: &Path,
    state: &GraphState,
    db_version: u64,
    fsync: bool,
) -> ServeResult<()> {
    let path = graph_snap_path(dir, state.current.name());
    write_sealed_file(&path, fsync, |out| {
        put_graph_header(out, state, db_version);
        Ok(())
    })
}

/// The content of a graph file before its seal: magic, version stamps,
/// DSL and, per chain, the frozen cuts and the cost they were planned at.
fn put_graph_header(out: &mut impl Sink, state: &GraphState, db_version: u64) {
    out.put(&GRAPH_SNAP_MAGIC);
    codec::put_u64(out, state.current.version());
    codec::put_u64(out, db_version);
    codec::put_str(out, &state.dsl);
    codec::put_len(out, state.frozen.len());
    for plan in &state.frozen {
        codec::put_len(out, plan.cuts.len());
        for &cut in &plan.cuts {
            codec::put_u8(out, u8::from(cut));
        }
        codec::put_f64(out, plan.planned_cost);
    }
}

/// What a graph file holds: everything about a served graph the database
/// cannot give back.
struct GraphHeader {
    version: u64,
    db_version: u64,
    dsl: String,
    frozen: Vec<FrozenChainPlan>,
}

/// Read and check one graph file: its seal, its layout, and that its frozen
/// cuts fit its program — one cut vector per `Edges` chain, one flag per
/// join — which is compiled here. Anything else is [`ServeError::Corrupt`]
/// naming the file.
fn read_graph_file(path: &Path) -> ServeResult<(GraphHeader, GraphSpec)> {
    let bytes = std::fs::read(path)?;
    let file = path.display().to_string();
    let content =
        unseal(&bytes).ok_or_else(|| ServeError::corrupt(&file, "integrity checksum mismatch"))?;
    let parse = |r: &mut Reader<'_>| -> Result<GraphHeader, graphgen_common::CodecError> {
        r.expect_magic(&GRAPH_SNAP_MAGIC)?;
        let version = r.u64()?;
        let db_version = r.u64()?;
        let dsl = r.str()?.to_string();
        let mut frozen = Vec::new();
        for _ in 0..r.len()? {
            let cuts = (0..r.len()?)
                .map(|_| Ok(r.u8()? != 0))
                .collect::<Result<_, _>>()?;
            let planned_cost = r.f64()?;
            frozen.push(FrozenChainPlan { cuts, planned_cost });
        }
        r.expect_end()?;
        Ok(GraphHeader {
            version,
            db_version,
            dsl,
            frozen,
        })
    };
    let header = parse(&mut Reader::new(content)).map_err(|e| ServeError::corrupt(&file, e))?;
    let spec = graphgen_dsl::compile(&header.dsl)
        .map_err(|e| ServeError::corrupt(&file, format!("its program does not compile: {e}")))?;
    if header.frozen.len() != spec.edges.len() {
        let (plans, chains) = (header.frozen.len(), spec.edges.len());
        let what = format!("{plans} frozen plans for {chains} Edges chains");
        return Err(ServeError::corrupt(&file, what));
    }
    for (i, (chain, plan)) in spec.edges.iter().zip(&header.frozen).enumerate() {
        let joins = chain.steps.len().saturating_sub(1);
        if plan.cuts.len() != joins {
            let what = format!(
                "chain {}: {} cuts for {joins} joins",
                i + 1,
                plan.cuts.len()
            );
            return Err(ServeError::corrupt(&file, what));
        }
    }
    Ok((header, spec))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    pub(crate) use crate::testutil::fig1_db;
    use crate::testutil::TempDir;

    pub(crate) const Q1: &str = "Nodes(ID, Name) :- Author(ID, Name). \
                                 Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).";

    #[test]
    fn extract_publish_read() {
        let service = GraphService::in_memory(fig1_db());
        let snap = service.extract("coauthors", Q1).unwrap();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.name(), "coauthors");
        let read = service.snapshot("coauthors").unwrap();
        assert!(Arc::ptr_eq(&snap, &read));
        assert_eq!(service.names(), vec!["coauthors".to_string()]);
        assert!(service.snapshot("nope").is_err());
        assert!(matches!(
            service.extract("coauthors", Q1),
            Err(ServeError::DuplicateGraph(_))
        ));
        assert!(matches!(
            service.extract("bad name", Q1),
            Err(ServeError::BadName(_))
        ));
    }

    #[test]
    fn apply_publishes_new_version_and_pins_old_readers() {
        let service = GraphService::in_memory(fig1_db());
        let v1 = service.extract("g", Q1).unwrap();
        let before = v1.canonical_bytes();
        let outcome = service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(2), Value::int(3)]],
                vec![],
            )])
            .unwrap();
        assert_eq!(outcome.rows, 1);
        assert_eq!(outcome.graphs.len(), 1);
        assert_eq!(outcome.graphs[0].1, 2);
        let v2 = service.snapshot("g").unwrap();
        assert_eq!(v2.version(), 2);
        assert_ne!(v2.canonical_bytes(), before);
        // The pinned v1 snapshot is untouched.
        assert_eq!(v1.canonical_bytes(), before);
        assert_eq!(v1.version(), 1);
    }

    #[test]
    fn noop_apply_keeps_the_version() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("g", Q1).unwrap();
        // Deleting a never-present row mutates nothing anywhere.
        let outcome = service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![],
                vec![vec![Value::int(77), Value::int(77)]],
            )])
            .unwrap();
        assert_eq!(outcome.rows, 0);
        assert!(outcome.graphs.is_empty());
        assert_eq!(service.snapshot("g").unwrap().version(), 1);
    }

    #[test]
    fn apply_fans_out_to_every_registered_graph() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("a", Q1).unwrap();
        // Graph b only reads the Author table (name-collision edges:
        // vacuous here, but a valid spec).
        service
            .extract(
                "b",
                "Nodes(ID, Name) :- Author(ID, Name). \
                 Edges(A, B) :- Author(A, N), Author(B, N).",
            )
            .unwrap();
        let outcome = service
            .apply(&[TableMutation::new(
                "Author",
                vec![vec![Value::int(9), Value::str("a9")]],
                vec![],
            )])
            .unwrap();
        // Both graphs see the new author node.
        assert_eq!(outcome.graphs.len(), 2);
        assert_eq!(service.snapshot("a").unwrap().version(), 2);
        assert_eq!(service.snapshot("b").unwrap().version(), 2);
        // A mutation only one graph cares about bumps only that graph.
        let outcome = service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(9), Value::int(1)]],
                vec![],
            )])
            .unwrap();
        assert_eq!(outcome.graphs.len(), 1);
        assert_eq!(outcome.graphs[0].0, "a");
        assert_eq!(service.snapshot("b").unwrap().version(), 2);
    }

    #[test]
    fn stats_and_drop() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("g", Q1).unwrap();
        let (stats, rows) = service.stats();
        assert_eq!(rows, 13);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "g");
        assert_eq!(stats[0].version, 1);
        assert_eq!(stats[0].vertices, 5);
        assert_eq!(stats[0].rep, "C-DUP");
        assert!(stats[0].edges > 0);
        service.drop_graph("g").unwrap();
        assert!(service.names().is_empty());
        assert!(matches!(
            service.drop_graph("g"),
            Err(ServeError::UnknownGraph(_))
        ));
    }

    #[test]
    fn invalid_mutations_are_rejected_before_anything_mutates() {
        let service = GraphService::in_memory(fig1_db());
        service.extract("g", Q1).unwrap();
        let rows_before = service.stats().1;
        // A batch whose *second* mutation is invalid must leave the first
        // unapplied too (pre-validation covers the whole call).
        let err = service
            .apply(&[
                TableMutation::new(
                    "Author",
                    vec![vec![Value::int(8), Value::str("a8")]],
                    vec![],
                ),
                TableMutation::new("Nope", vec![vec![Value::int(1)]], vec![]),
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Graph(_)));
        // Schema mismatches are caught the same way.
        let err = service
            .apply(&[
                TableMutation::new(
                    "Author",
                    vec![vec![Value::int(8), Value::str("a8")]],
                    vec![],
                ),
                TableMutation::new(
                    "AuthorPub",
                    vec![vec![Value::str("oops"), Value::int(1)]],
                    vec![],
                ),
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Graph(_)));
        assert_eq!(
            service.stats().1,
            rows_before,
            "db mutated by rejected call"
        );
        assert_eq!(service.snapshot("g").unwrap().version(), 1);
        // The writer is NOT wedged: validation failures are clean no-ops.
        let outcome = service
            .apply(&[TableMutation::new(
                "Author",
                vec![vec![Value::int(8), Value::str("a8")]],
                vec![],
            )])
            .unwrap();
        assert_eq!(outcome.graphs.len(), 1);
    }

    #[test]
    fn persistent_roundtrip_snapshot_plus_wal() {
        let dir = TempDir::new("svc-roundtrip");
        let expected;
        {
            let service =
                GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()).unwrap();
            service.extract("g", Q1).unwrap();
            service
                .apply(&[TableMutation::new(
                    "AuthorPub",
                    vec![vec![Value::int(2), Value::int(3)]],
                    vec![vec![Value::int(1), Value::int(1)]],
                )])
                .unwrap();
            expected = service.snapshot("g").unwrap().canonical_bytes();
            // Dropped without any explicit shutdown: everything needed for
            // recovery is already on disk.
        }
        let recovered = GraphService::open(dir.path()).unwrap();
        let snap = recovered.snapshot("g").unwrap();
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.canonical_bytes(), expected);
        // The recovered service keeps serving writes: a1 joins publication
        // 3, gaining brand-new co-author edges.
        recovered
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(1), Value::int(3)]],
                vec![],
            )])
            .unwrap();
        assert_eq!(recovered.snapshot("g").unwrap().version(), 3);
    }

    /// A graph extracted after the last checkpoint is stamped after
    /// `db.snap`, and its graph holds values only the log's records add (a
    /// new author and publication). Recovery replays the log into the
    /// database before it rebuilds the graph from it, and versions the
    /// graph by the batches past its own stamp.
    #[test]
    fn a_graph_file_stamped_after_db_snap_decodes_against_the_replayed_dictionary() {
        let dir = TempDir::new("svc-late-graph");
        let expected;
        {
            let service =
                GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()).unwrap();
            let fresh = |a: i64, p: i64| vec![Value::int(a), Value::int(p)];
            service
                .apply(&[
                    TableMutation::new(
                        "Author",
                        vec![vec![Value::int(77), Value::str("a77")]],
                        vec![],
                    ),
                    TableMutation::new("AuthorPub", vec![fresh(77, 99), fresh(1, 99)], vec![]),
                ])
                .unwrap();
            service.extract("g", Q1).unwrap();
            service
                .apply(&[TableMutation::new("AuthorPub", vec![fresh(2, 99)], vec![])])
                .unwrap();
            expected = service.snapshot("g").unwrap().canonical_bytes();
        }
        let recovered = GraphService::open(dir.path()).unwrap();
        let snap = recovered.snapshot("g").unwrap();
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.canonical_bytes(), expected);
        let a77 = snap.handle().neighbors_by_key(&Value::int(77)).unwrap();
        assert!(a77.contains(&&Value::int(2)), "{a77:?}");
    }

    /// The snapshot files the service streams to disk hold exactly the
    /// bytes of the same content encoded into a `Vec` and sealed:
    /// `db.snap` and `g.graph.snap` after the `EXTRACT` and after a
    /// `COMPACT` between applies, on a database whose `db.snap` spans file
    /// blocks. The directory then reopens to the graph it served.
    #[test]
    fn streamed_snapshot_files_equal_the_vec_encoding() {
        use crate::wal::seal;
        use graphgen_datagen::relational::DBLP_COAUTHORS;
        use graphgen_datagen::{dblp_like, DblpConfig};

        fn expected(service: &GraphService) -> (Vec<u8>, Vec<u8>) {
            let inner = service.inner.lock().unwrap();
            let mut db_snap = Vec::new();
            put_db_snapshot(&mut db_snap, &inner.db, inner.db_version);
            seal(&mut db_snap);
            let state = &inner.graphs["g"];
            let mut graph_snap = Vec::new();
            put_graph_header(&mut graph_snap, state, state.snap_db_version);
            seal(&mut graph_snap);
            (db_snap, graph_snap)
        }
        let on_disk = |dir: &Path| {
            let read = |file: &str| std::fs::read(dir.join(file)).unwrap();
            (read("db.snap"), read("g.graph.snap"))
        };

        let db = dblp_like(DblpConfig {
            authors: 1_500,
            publications: 2_000,
            avg_authors_per_pub: 2.5,
            seed: 5,
        });
        let rows: Vec<Vec<Value>> = db.table("AuthorPub").unwrap().iter_rows().collect();
        let dir = TempDir::new("svc-streamed");
        let expected_canonical;
        {
            let service = GraphService::create(dir.path(), db, ServiceConfig::default()).unwrap();
            service.extract("g", DBLP_COAUTHORS).unwrap();
            let files = on_disk(dir.path());
            assert!(files.0.len() > 65_536, "db.snap spans file blocks");
            assert_eq!(files, expected(&service), "after EXTRACT");
            let apply = |i: usize| {
                let a = Value::int(i as i64 % 1_500);
                let inserts = (0..8).map(|p| vec![a.clone(), Value::int(p * 7 + i as i64)]);
                service
                    .apply(&[TableMutation::new(
                        "AuthorPub",
                        inserts.collect(),
                        rows[i * 5..i * 5 + 3].to_vec(),
                    )])
                    .unwrap();
            };
            (0..3).for_each(apply);
            service.compact("g").unwrap();
            let files = on_disk(dir.path());
            assert_eq!(files, expected(&service), "after COMPACT");
            (3..5).for_each(apply);
            assert_eq!(on_disk(dir.path()), files, "applies only append to the log");
            expected_canonical = service.snapshot("g").unwrap().canonical_bytes();
        }
        let reopened = GraphService::open(dir.path()).unwrap();
        let snap = reopened.snapshot("g").unwrap();
        assert_eq!(snap.version(), 6);
        assert_eq!(snap.canonical_bytes(), expected_canonical);
    }

    #[test]
    fn create_refuses_existing_service_dir() {
        let dir = TempDir::new("svc-create-twice");
        let _first = GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()).unwrap();
        assert!(matches!(
            GraphService::create(dir.path(), fig1_db(), ServiceConfig::default()),
            Err(ServeError::Corrupt { .. })
        ));
    }
}
