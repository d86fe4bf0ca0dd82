//! `graphgen-serve` — the serving layer: snapshot-isolated concurrent
//! graph serving with persistence and crash recovery.
//!
//! The paper's GraphGen lives *inside* a live application: graphs are
//! extracted once and then queried continuously while the base tables keep
//! changing. This crate turns the single-owner, in-memory
//! `graphgen_core::GraphHandle` into something a server can run:
//!
//! * [`GraphService`] — a **versioned multi-graph registry**. Many reader
//!   threads take [`GraphService::snapshot`] and work on an immutable,
//!   version-pinned [`GraphSnapshot`] while a single writer applies
//!   [`DeltaBatch`]es and atomically publishes the next version — a
//!   reader's view is always byte-identical to *some* committed version,
//!   never a torn mid-patch state (snapshot isolation; enforced by the
//!   crate's soak tests at 1/2/8 reader threads);
//! * **persistence** — the database is the only durable state: a binary
//!   database snapshot (magic-headed, length-prefixed little-endian,
//!   streamed to the file) plus **one** write-ahead delta log with
//!   checksummed records and torn-tail truncation, folded into a fresh
//!   database snapshot by a size-triggered checkpoint. A graph's file is a
//!   header — its version stamps, program and frozen plan — and
//!   [`GraphService::open`] replays the log into the database and rebuilds
//!   every graph from it, recovering the exact pre-crash committed state
//!   from any abrupt-drop layout, including mid-checkpoint ones;
//! * a **TCP front end** — the `graphgen-serve` binary: std
//!   `TcpListener`, thread per connection, newline-delimited text protocol
//!   (one verb per [`protocol::Verb`], declared once beside
//!   [`protocol::Command`]; request syntax in [`protocol`]);
//! * **observability** — every hot path records into a structured
//!   instrument registry ([`obs`]): per-verb request latency histograms,
//!   per-phase writer and extraction timings, WAL fsync/compaction/
//!   recovery costs, and the analyze-cache counters. `METRICS` renders a
//!   Prometheus-style exposition, `TRACE` drains a bounded ring of the
//!   slowest (or failed) recent operations with phase breakdowns;
//! * **served analytics** — the `ANALYZE` verb runs the `graphgen_algo`
//!   kernels on a pinned snapshot from a small background worker pool
//!   (readers and the writer never block on an analysis), caches results
//!   keyed `(graph, algo, params, version)` with single-flight
//!   deduplication, computes **directly on the condensed representation**
//!   where sound, and warm-starts PageRank/components from the previous
//!   version's cached result after a publish (see [`analyze`]).
//!
//! `EXTRACT` requests are statically validated against the live schema and
//! statistics before any extraction work ([`GraphService::check`] runs the
//! same analysis on demand via the `CHECK` verb); rejections are coded,
//! span-carrying one-liners, counted per code in the registry
//! (`graphgen_check_rejects_total{code=…}`) and totalled by `STATS`.
//!
//! **Plan drift detection.** Every registered graph freezes the plan it
//! was extracted with (the §4.2 cut set plus the estimates it was chosen
//! on). After each publish the writer re-costs that frozen plan against
//! the live catalog — pure arithmetic on the same unified cost engine the
//! planner and the `W105` lint use, no table scans — and `STATS` reports
//! `drift=<ratio>` (frozen cost over live min-cost) with a `stale_plan`
//! flag once the ratio exceeds [`DRIFT_THRESHOLD`] or the
//! min-cost plan's shape changes outright. `EXPLAIN <name>` renders the
//! frozen-vs-live comparison; `EXPLAIN <name> <dsl…>` costs a candidate
//! program without extracting anything.
//!
//! No dependencies beyond the workspace and `std`.
//!
//! ```no_run
//! use graphgen_serve::{GraphService, ServiceConfig, TableMutation};
//! use graphgen_reldb::{Database, Value};
//!
//! # fn demo(db: Database) -> graphgen_serve::ServeResult<()> {
//! let service = GraphService::create("./graphs", db, ServiceConfig::default())?;
//! service.extract(
//!     "coauthors",
//!     "Nodes(ID, Name) :- Author(ID, Name). \
//!      Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).",
//! )?;
//! // Readers: pin a version, no locks held afterwards.
//! let snap = service.snapshot("coauthors")?;
//! let _ = snap.handle().neighbors_by_key(&Value::int(4));
//! // The writer: mutate + publish version 2; `snap` is unaffected.
//! service.apply(&[TableMutation::new(
//!     "AuthorPub",
//!     vec![vec![Value::int(2), Value::int(3)]],
//!     vec![],
//! )])?;
//! # Ok(()) }
//! ```
//!
//! [`DeltaBatch`]: graphgen_reldb::DeltaBatch

#![warn(missing_docs)]

pub mod analyze;
pub mod error;
pub mod obs;
pub mod protocol;
pub mod server;
pub mod service;
pub mod testutil;
pub mod wal;

pub use analyze::{
    compute_on_handle, Algo, AnalysisEntry, AnalysisOutcome, AnalyzeCounters, AnalyzeParams,
};
pub use error::{ServeError, ServeResult};
pub use obs::{Obs, ServeMetrics, TraceEvent, TraceRing};
pub use server::{spawn, ServerHandle};
pub use service::{
    ApplyOutcome, GraphService, GraphSnapshot, GraphStats, ServiceConfig, TableMutation,
    DRIFT_THRESHOLD,
};
pub use wal::Wal;
