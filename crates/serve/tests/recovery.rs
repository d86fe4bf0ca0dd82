//! Kill-and-recover: a service dropped abruptly (no shutdown call exists —
//! every committed version is already durable) must reopen to the exact
//! pre-crash canonical bytes for every registered graph, from every crash
//! layout of the one log (`db.wal`) and the snapshots beside it: snapshots
//! with a non-empty log, a checkpoint after every batch, each point a
//! checkpoint can be interrupted at (graph snapshots new and `db.snap` old,
//! `db.snap` new and the log not yet truncated, one graph's snapshot new
//! and the next one's old), leftover `.tmp` files, and a torn log tail. It
//! must refuse, as `Corrupt`, files that are not this database's history.

use graphgen_common::SplitMix64;
use graphgen_reldb::{Column, Database, Schema, Table, Value};
use graphgen_serve::testutil::TempDir;
use graphgen_serve::wal::Wal;
use graphgen_serve::{GraphService, ServeError, ServiceConfig, TableMutation};
use std::collections::HashMap;

const Q_COAUTHORS: &str = "Nodes(ID, Name) :- Author(ID, Name). \
                           Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).";
const Q_NODES_ONLY: &str = "Nodes(ID, Name) :- Author(ID, Name). \
                            Edges(A, B) :- Author(A, N), Author(B, N).";

fn seed_db() -> Database {
    let mut author = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    for a in 1..=12 {
        author
            .push_row(vec![Value::int(a), Value::str(format!("a{a}"))])
            .unwrap();
    }
    let mut ap = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
    for (a, p) in [
        (1, 1),
        (2, 1),
        (4, 1),
        (1, 2),
        (4, 2),
        (3, 3),
        (4, 3),
        (5, 3),
    ] {
        ap.push_row(vec![Value::int(a), Value::int(p)]).unwrap();
    }
    let mut db = Database::new();
    db.register("Author", author).unwrap();
    db.register("AuthorPub", ap).unwrap();
    db
}

fn churn(service: &GraphService, seed: u64, batches: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut applied = 0;
    while applied < batches {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for _ in 0..rng.next_below(3) + 1 {
            let row = vec![
                Value::int(rng.next_below(12) as i64 + 1),
                Value::int(rng.next_below(6) as i64 + 1),
            ];
            if rng.next_below(4) == 0 {
                deletes.push(row);
            } else {
                inserts.push(row);
            }
        }
        let outcome = service
            .apply(&[
                TableMutation::new("AuthorPub", inserts, deletes),
                // Occasionally churn the node table too.
                if rng.next_below(5) == 0 {
                    TableMutation::new(
                        "Author",
                        vec![vec![
                            Value::int(rng.next_below(20) as i64 + 1),
                            Value::str(format!("r{applied}")),
                        ]],
                        vec![],
                    )
                } else {
                    TableMutation::new("Author", vec![], vec![])
                },
            ])
            .unwrap();
        if !outcome.graphs.is_empty() {
            applied += 1;
        }
    }
}

/// Canonical bytes + version per graph.
fn fingerprint(service: &GraphService) -> HashMap<String, (u64, Vec<u8>)> {
    service
        .names()
        .into_iter()
        .map(|name| {
            let snap = service.snapshot(&name).unwrap();
            (name, (snap.version(), snap.canonical_bytes()))
        })
        .collect()
}

/// A config whose log is never checkpointed by the threshold.
fn never_checkpoint() -> ServiceConfig {
    ServiceConfig {
        compact_threshold: u64::MAX,
        ..ServiceConfig::default()
    }
}

/// The directory's file names, sorted.
fn listing(dir: &TempDir) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn assert_corrupt(dir: &TempDir, file: &str) {
    match GraphService::open(dir.path()) {
        Err(ServeError::Corrupt { file: got, .. }) => {
            assert!(
                got.ends_with(file),
                "Corrupt names `{got}`, expected `{file}`"
            )
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("expected Corrupt, but the service opened"),
    }
}

fn assert_recovered(dir: &TempDir, expected: &HashMap<String, (u64, Vec<u8>)>) {
    let recovered = GraphService::open(dir.path()).unwrap();
    let got = fingerprint(&recovered);
    assert_eq!(
        got.keys().collect::<std::collections::BTreeSet<_>>(),
        expected.keys().collect::<std::collections::BTreeSet<_>>(),
        "graph registry diverged"
    );
    for (name, (version, bytes)) in expected {
        let (got_version, got_bytes) = &got[name];
        assert_eq!(got_version, version, "{name}: version diverged");
        assert_eq!(got_bytes, bytes, "{name}: canonical bytes diverged");
    }
}

/// Abrupt drop with snapshots + a non-empty log on two graphs (one of
/// which ignores most of the churn).
#[test]
fn recover_snapshot_plus_wal() {
    let dir = TempDir::new("rec-basic");
    let expected;
    {
        // Never checkpoint: the log carries everything.
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        service.extract("roster", Q_NODES_ONLY).unwrap();
        churn(&service, 7, 12);
        expected = fingerprint(&service);
        // The log must be non-empty for the scenario to be the one claimed.
        assert!(service.wal_bytes() > 0);
    }
    assert_recovered(&dir, &expected);
}

/// Aggressive checkpointing: every batch folds the log into fresh
/// snapshots, so recovery is snapshot-only.
#[test]
fn recover_with_aggressive_compaction() {
    let dir = TempDir::new("rec-compact");
    let expected;
    {
        let service = GraphService::create(
            dir.path(),
            seed_db(),
            ServiceConfig {
                compact_threshold: 1, // every apply triggers a checkpoint
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 21, 10);
        expected = fingerprint(&service);
        assert_eq!(service.wal_bytes(), 0);
    }
    assert_recovered(&dir, &expected);
}

/// A checkpoint writes each stale graph snapshot, then `db.snap`, then
/// truncates the log. Run one to completion over two graphs, then put
/// `restore`d files back as they were before it — the layout of a crash
/// part-way through — and require the pre-crash state.
fn recover_mid_checkpoint(tag: &str, restore: &[&str]) {
    let dir = TempDir::new(tag);
    let expected;
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        service.extract("roster", Q_NODES_ONLY).unwrap();
        churn(&service, 33, 8);
        let before: Vec<(&str, Vec<u8>)> = restore
            .iter()
            .map(|file| (*file, std::fs::read(dir.path().join(file)).unwrap()))
            .collect();
        service.compact("coauthors").unwrap();
        assert_eq!(service.wal_bytes(), 0, "a checkpoint truncates the log");
        expected = fingerprint(&service);
        drop(service);
        for (file, bytes) in before {
            assert_ne!(
                std::fs::read(dir.path().join(file)).unwrap(),
                bytes,
                "{file}: the checkpoint must have rewritten it"
            );
            std::fs::write(dir.path().join(file), bytes).unwrap();
        }
    }
    assert_recovered(&dir, &expected);
}

/// Crash after every graph snapshot was renamed into place, before
/// `db.snap`: new graph files, old database, full log. The log replays
/// onto the database only — every record is at or below the graphs' stamps.
#[test]
fn recover_mid_checkpoint_graph_snapshots_new_db_snap_old() {
    recover_mid_checkpoint("rec-ckpt-graphs", &["db.snap", "db.wal"]);
}

/// Crash between the `db.snap` rename and the truncation: every snapshot
/// is new and the log still holds the records they contain. Recovery must
/// skip them all.
#[test]
fn recover_mid_checkpoint_untruncated_log() {
    recover_mid_checkpoint("rec-ckpt-stale-log", &["db.wal"]);
}

/// Crash between two graphs' snapshots: `coauthors` is new, `roster` and
/// the database are old, the log is full. Each file replays from its own
/// stamp.
#[test]
fn recover_mid_checkpoint_between_two_graphs() {
    recover_mid_checkpoint(
        "rec-ckpt-between",
        &["roster.graph.snap", "db.snap", "db.wal"],
    );
}

/// The crash hit before a rename: leftover `.tmp` files sit next to the
/// old snapshots and the full log. They must be ignored and the log
/// replayed.
#[test]
fn recover_mid_checkpoint_leftover_tmp() {
    let dir = TempDir::new("rec-tmp");
    let expected;
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 55, 6);
        expected = fingerprint(&service);
        // Half-written snapshots the rename never happened for.
        std::fs::write(dir.path().join("coauthors.graph.tmp"), b"half-written").unwrap();
        std::fs::write(dir.path().join("db.tmp"), b"half-written").unwrap();
    }
    assert_recovered(&dir, &expected);
}

/// A log whose tail record was torn mid-write: the torn record was never
/// acknowledged, so recovery lands exactly on the last durable version.
#[test]
fn recover_torn_wal_tail() {
    let dir = TempDir::new("rec-torn");
    let expected;
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 77, 6);
        expected = fingerprint(&service);
        drop(service);
        // Append garbage that looks like the start of a record.
        let wal_path = dir.path().join("db.wal");
        let mut raw = std::fs::read(&wal_path).unwrap();
        raw.extend_from_slice(&[0x40, 0, 0, 0, 1, 2, 3]);
        std::fs::write(&wal_path, &raw).unwrap();
    }
    assert_recovered(&dir, &expected);
}

/// A flipped byte inside the *first* of several log records is not a torn
/// tail: the records behind it are intact and acknowledged. Recovery must
/// say `Corrupt` (naming the log) and serve nothing — not truncate there
/// and open at an older version — and must leave the file as it found it.
#[test]
fn flipped_byte_mid_log_is_corrupt_not_a_rollback() {
    let dir = TempDir::new("rec-midflip");
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 5, 4);
    }
    let wal_path = dir.path().join("db.wal");
    let mut raw = std::fs::read(&wal_path).unwrap();
    raw[12] ^= 0xFF; // first payload byte of record 0 (after its 12-byte frame header)
    std::fs::write(&wal_path, &raw).unwrap();
    assert_corrupt(&dir, "db.wal");
    assert_eq!(std::fs::read(&wal_path).unwrap(), raw, "log was modified");
}

/// The process dies right after an `apply` returned, with two graphs
/// registered: the batch is in the log once and in no snapshot. (Before
/// the single log, each graph had its own and a crash could land between
/// the appends of one batch; that window no longer exists.) The reopened
/// service must equal the pre-crash one and keep evolving, under further
/// churn, exactly like an uninterrupted in-memory reference.
#[test]
fn recover_two_graphs_after_apply_and_continue() {
    let dir = TempDir::new("rec-after-apply");
    let final_batch = [
        TableMutation::new(
            "AuthorPub",
            vec![
                vec![Value::int(2), Value::int(2)],
                vec![Value::int(4), Value::int(5)],
            ],
            vec![],
        ),
        TableMutation::new(
            "Author",
            vec![vec![Value::int(40), Value::str("late")]],
            vec![],
        ),
    ];
    let expected;
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        service.extract("roster", Q_NODES_ONLY).unwrap();
        churn(&service, 13, 6);
        let outcome = service.apply(&final_batch).unwrap();
        assert_eq!(outcome.graphs.len(), 2, "the batch touches both graphs");
        expected = fingerprint(&service);
    }
    assert_recovered(&dir, &expected);
    let recovered = GraphService::open(dir.path()).unwrap();
    let reference = GraphService::in_memory(seed_db());
    reference.extract("coauthors", Q_COAUTHORS).unwrap();
    reference.extract("roster", Q_NODES_ONLY).unwrap();
    churn(&reference, 13, 6);
    reference.apply(&final_batch).unwrap();
    churn(&recovered, 17, 3);
    churn(&reference, 17, 3);
    assert_eq!(
        fingerprint(&recovered),
        fingerprint(&reference),
        "recovered graphs diverged from the uninterrupted reference"
    );
}

/// A graph whose tables the workload never touches is never patched, yet
/// aggressive checkpointing truncates the log constantly. The checkpoint
/// rule (rewrite every graph file stamped behind the database before
/// `db.snap`) must keep such a graph recoverable.
#[test]
fn recover_quiescent_graph_across_db_compaction() {
    let dir = TempDir::new("rec-db-compact");
    let expected;
    {
        let service = GraphService::create(
            dir.path(),
            seed_db(),
            ServiceConfig {
                compact_threshold: 1, // every batch checkpoints
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        service.extract("roster", Q_NODES_ONLY).unwrap();
        // AuthorPub-only churn: roster (Author-only) stays at version 1
        // throughout while the log is truncated after every batch.
        for pid in 1..=5 {
            service
                .apply(&[TableMutation::new(
                    "AuthorPub",
                    vec![vec![Value::int(pid), Value::int(6)]],
                    vec![],
                )])
                .unwrap();
        }
        assert_eq!(service.snapshot("roster").unwrap().version(), 1);
        expected = fingerprint(&service);
    }
    assert_recovered(&dir, &expected);
}

/// The layout the db-version stamps exist to rule out: a graph consistent
/// with a database version *older than `db.snap`*, with the batches in
/// between checkpointed away. No crash produces it; if it is found on disk
/// anyway, recovery must refuse rather than silently serve a diverged
/// graph.
#[test]
fn graph_stranded_behind_db_snapshot_is_rejected() {
    let dir = TempDir::new("rec-stranded");
    let snap_path = dir.path().join("roster.graph.snap");
    {
        let service = GraphService::create(
            dir.path(),
            seed_db(),
            ServiceConfig {
                compact_threshold: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        service.extract("roster", Q_NODES_ONLY).unwrap();
        let stale_snap = std::fs::read(&snap_path).unwrap();
        // Author batches advance roster while truncating the log each time.
        for a in 0..3i64 {
            service
                .apply(&[TableMutation::new(
                    "Author",
                    vec![vec![Value::int(50 + a), Value::str(format!("n{a}"))]],
                    vec![],
                )])
                .unwrap();
        }
        drop(service);
        // Hand-roll the impossible state: roster's file claims database
        // version 0 while db.snap is at 3 and the log is empty.
        std::fs::write(&snap_path, &stale_snap).unwrap();
    }
    assert_corrupt(&dir, "roster.graph.snap");
}

/// The other foreign file: a graph stamped *ahead of* the recovered
/// database (here a later snapshot set beside an earlier database and
/// log). The log is appended before anything is snapshotted, so no crash
/// leaves this either.
#[test]
fn graph_ahead_of_its_database_is_rejected() {
    let dir = TempDir::new("rec-ahead");
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 9, 2);
        let early_log = std::fs::read(dir.path().join("db.wal")).unwrap();
        let early_db = std::fs::read(dir.path().join("db.snap")).unwrap();
        churn(&service, 10, 2);
        service.compact("coauthors").unwrap(); // coauthors.graph.snap now stamped 4+
        drop(service);
        std::fs::write(dir.path().join("db.wal"), early_log).unwrap();
        std::fs::write(dir.path().join("db.snap"), early_db).unwrap();
    }
    assert_corrupt(&dir, "coauthors.graph.snap");
}

/// A graph's snapshot file disappears (a `drop_graph` whose process died
/// before anything else happened, or an operator's `rm`) while the log
/// still holds batches that were applied to it. Recovery must not register
/// it, and a re-extraction under the same name must not have those old
/// records replayed onto it: the fresh snapshot's stamp puts them behind it.
#[test]
fn reextract_after_partial_drop_crash_ignores_stale_wal() {
    let dir = TempDir::new("rec-redrop");
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 41, 5);
    }
    std::fs::remove_file(dir.path().join("coauthors.graph.snap")).unwrap();
    let reopened = GraphService::open_with(dir.path(), never_checkpoint()).unwrap();
    assert!(
        reopened.names().is_empty(),
        "snapshot-less graph must not be registered"
    );
    assert!(reopened.wal_bytes() > 0, "the old records are still there");
    reopened.extract("coauthors", Q_COAUTHORS).unwrap();
    churn(&reopened, 43, 3);
    let expected = fingerprint(&reopened);
    drop(reopened);
    assert_recovered(&dir, &expected);
}

/// One log: after any sequence of EXTRACT / APPLY / COMPACT / DROP the
/// directory holds `db.snap`, `db.wal` and one `<name>.graph.snap` per
/// registered graph — nothing else, at every step.
#[test]
fn directory_holds_one_log_and_one_snapshot_per_graph() {
    let dir = TempDir::new("rec-listing");
    let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
    assert_eq!(listing(&dir), ["db.snap", "db.wal"]);
    service.extract("coauthors", Q_COAUTHORS).unwrap();
    service.extract("roster", Q_NODES_ONLY).unwrap();
    let both = [
        "coauthors.graph.snap",
        "db.snap",
        "db.wal",
        "roster.graph.snap",
    ];
    assert_eq!(listing(&dir), both);
    churn(&service, 3, 4);
    assert_eq!(listing(&dir), both);
    service.compact("roster").unwrap();
    assert_eq!(listing(&dir), both);
    churn(&service, 4, 2);
    service.drop_graph("roster").unwrap();
    assert_eq!(listing(&dir), ["coauthors.graph.snap", "db.snap", "db.wal"]);
    service.extract("roster", Q_NODES_ONLY).unwrap();
    churn(&service, 5, 2);
    service.compact("coauthors").unwrap();
    assert_eq!(listing(&dir), both);
    let expected = fingerprint(&service);
    drop(service);
    assert_recovered(&dir, &expected);
    assert_eq!(listing(&dir), both, "recovery writes nothing");
}

/// A directory in the layout the previous build wrote: each graph had its
/// own log, `<name>.graph.wal`, of `u64 version | u64 db_version |
/// DeltaBatch` records beside the same `db.wal`. Those files are never
/// read. Either `db.wal` still holds every batch past the graph's snapshot
/// stamp and the graph recovers byte-identically from it, or the previous
/// build's database checkpoint truncated `db.wal` while the graph's
/// batches lived only in its own log — then the snapshot is stamped behind
/// `db.snap` and the stamp guard rejects it. Never a silently stale graph.
#[test]
fn legacy_per_graph_log_layout_recovers_from_the_one_log_or_is_rejected() {
    /// The previous build's graph log for `db_wal`'s records, all of which
    /// touched the graph: versions 2, 3, … in the same order.
    fn write_legacy_graph_log(dir: &TempDir, db_wal: &[u8]) {
        let scratch = dir.path().join("legacy-scratch.wal");
        std::fs::write(&scratch, db_wal).unwrap();
        let (_, records) = Wal::open(&scratch).unwrap();
        std::fs::remove_file(&scratch).unwrap();
        assert!(!records.is_empty());
        let (mut legacy, _) = Wal::open(dir.path().join("coauthors.graph.wal")).unwrap();
        for (i, record) in records.iter().enumerate() {
            let mut payload = (i as u64 + 2).to_le_bytes().to_vec();
            payload.extend_from_slice(record); // u64 db_version | DeltaBatch
            legacy.append(&payload, false).unwrap();
        }
    }

    // (1) No database checkpoint ever ran: db.wal holds everything.
    let dir = TempDir::new("rec-legacy-full");
    let expected;
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 61, 5);
        expected = fingerprint(&service);
    }
    write_legacy_graph_log(&dir, &std::fs::read(dir.path().join("db.wal")).unwrap());
    assert_recovered(&dir, &expected);

    // (2) The previous build folded db.wal into db.snap without rewriting
    // the graph's snapshot, because the graph's own log was up to date.
    let dir = TempDir::new("rec-legacy-folded");
    {
        let service = GraphService::create(dir.path(), seed_db(), never_checkpoint()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        let v1_snap = std::fs::read(dir.path().join("coauthors.graph.snap")).unwrap();
        churn(&service, 61, 5);
        let db_wal = std::fs::read(dir.path().join("db.wal")).unwrap();
        service.compact("coauthors").unwrap(); // db.snap at 5+, db.wal empty
        drop(service);
        std::fs::write(dir.path().join("coauthors.graph.snap"), v1_snap).unwrap();
        write_legacy_graph_log(&dir, &db_wal);
    }
    assert_corrupt(&dir, "coauthors.graph.snap");
}

/// `create` over a directory holding a leftover db.wal (the operator
/// deleted a bad db.snap to start over) must empty the old incarnation's
/// log: replaying its records over the fresh database would resurrect
/// mutations the new service never saw and mask the new records behind
/// their recycled version numbers.
#[test]
fn create_resets_stale_db_wal() {
    let dir = TempDir::new("rec-stale-dbwal");
    {
        let service =
            GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
        for pid in 1..=3 {
            service
                .apply(&[TableMutation::new(
                    "AuthorPub",
                    vec![vec![Value::int(pid), Value::int(6)]],
                    vec![],
                )])
                .unwrap();
        }
    }
    assert!(std::fs::metadata(dir.path().join("db.wal")).unwrap().len() > 0);
    std::fs::remove_file(dir.path().join("db.snap")).unwrap();
    let expected;
    let rows_expected;
    {
        let service =
            GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        service
            .apply(&[TableMutation::new(
                "AuthorPub",
                vec![vec![Value::int(2), Value::int(2)]],
                vec![],
            )])
            .unwrap();
        expected = fingerprint(&service);
        rows_expected = service.stats().1;
    }
    let recovered = GraphService::open(dir.path()).unwrap();
    assert_eq!(recovered.stats().1, rows_expected, "db rows diverged");
    assert_recovered(&dir, &expected);
}

/// `create` over a directory holding a previous incarnation's graph files
/// (same start-over scenario as above, but with graphs registered) must
/// delete them: they were extracted from a database this service never
/// saw, and a later `open` would otherwise serve them as live.
#[test]
fn create_clears_previous_incarnation_graph_files() {
    let dir = TempDir::new("rec-stale-graphs");
    {
        let service =
            GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 3, 3);
    }
    std::fs::remove_file(dir.path().join("db.snap")).unwrap();
    // The previous layout's per-graph log is debris of the same kind.
    std::fs::write(dir.path().join("coauthors.graph.wal"), b"old records").unwrap();
    {
        let service =
            GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
        assert_eq!(listing(&dir), ["db.snap", "db.wal"]);
        service
            .apply(&[TableMutation::new(
                "Author",
                vec![vec![Value::int(30), Value::str("x")]],
                vec![],
            )])
            .unwrap();
    }
    let recovered = GraphService::open(dir.path()).unwrap();
    assert!(
        recovered.names().is_empty(),
        "previous incarnation's graph resurrected"
    );
}

/// A corrupted snapshot file must fail recovery with a clean `Corrupt`
/// error (whole-file checksum), never decode flipped bytes.
#[test]
fn corrupted_snapshot_is_rejected() {
    let dir = TempDir::new("rec-corrupt-snap");
    {
        let service =
            GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 11, 3);
    }
    let snap_path = dir.path().join("coauthors.graph.snap");
    let mut raw = std::fs::read(&snap_path).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0xFF;
    std::fs::write(&snap_path, &raw).unwrap();
    assert_corrupt(&dir, "coauthors.graph.snap");
}

/// The recovered incremental state must keep *working*: post-recovery
/// mutations yield the same graph a never-crashed service reaches.
#[test]
fn recovered_service_continues_identically() {
    let dir = TempDir::new("rec-continue");
    {
        let service =
            GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 99, 5);
    }
    let recovered = GraphService::open(dir.path()).unwrap();
    // A parallel, never-persisted service fed the identical full stream.
    let reference = GraphService::in_memory(seed_db());
    reference.extract("coauthors", Q_COAUTHORS).unwrap();
    churn(&reference, 99, 5);
    churn(&recovered, 123, 5);
    churn(&reference, 123, 5);
    assert_eq!(
        recovered.snapshot("coauthors").unwrap().canonical_bytes(),
        reference.snapshot("coauthors").unwrap().canonical_bytes(),
        "recovered service diverged from the uninterrupted reference"
    );
}

/// Format-bump guard: a graph snapshot carrying a retired magic (here
/// `GGSVGR4\0`, which framed the value-keyed maintenance state, and
/// `GGSVGR3\0`, which also lacked the frozen-plan section) must fail
/// recovery with a clean `Corrupt` magic mismatch — never misparse into a
/// half-decoded graph.
#[test]
fn old_format_graph_snapshot_is_rejected_by_magic() {
    for old in [*b"GGSVGR4\0", *b"GGSVGR3\0"] {
        let dir = TempDir::new("rec-old-magic");
        {
            let service =
                GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
            service.extract("coauthors", Q_COAUTHORS).unwrap();
        }
        // Rewrite the (valid, sealed) snapshot with the previous format's
        // magic, resealing so the integrity trailer still matches: the
        // decoder must trip on the magic itself.
        let snap_path = dir.path().join("coauthors.graph.snap");
        let sealed = std::fs::read(&snap_path).unwrap();
        let mut content = graphgen_serve::wal::unseal(&sealed).unwrap().to_vec();
        assert_eq!(&content[..8], b"GGSVGR5\0");
        content[..8].copy_from_slice(&old);
        graphgen_serve::wal::seal(&mut content);
        std::fs::write(&snap_path, &content).unwrap();
        let err = GraphService::open(dir.path()).unwrap_err();
        match &err {
            ServeError::Corrupt { what, .. } => {
                assert!(what.contains("bad magic"), "unexpected reason: {what}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }
}

/// Restart onto the chunked snapshot format mid-WAL: the `.graph.snap`
/// (GGSVGR5 framing a chunked GGSNAP3 handle, written from the *working*
/// handle so it carries the full maintenance state) plus a WAL holding
/// batches committed after it. Recovery must decode the chunked snapshot,
/// replay the log, and keep both the reader side (canonical bytes, CoW
/// isolation) and the writer side (identical continuation) intact.
#[test]
fn recover_chunked_snapshot_mid_wal() {
    let dir = TempDir::new("rec-chunked-midwal");
    let expected;
    {
        let service = GraphService::create(
            dir.path(),
            seed_db(),
            ServiceConfig {
                compact_threshold: u64::MAX, // keep every batch in the WAL
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 7, 6);
        expected = fingerprint(&service);
        // Abrupt drop: on disk sit the v1 chunked snapshot + 6 WAL records.
    }
    assert_recovered(&dir, &expected);
    // The recovered writer continues exactly like an uninterrupted one,
    // and a version pinned after recovery is immune to further publishes.
    let recovered = GraphService::open(dir.path()).unwrap();
    let reference = GraphService::in_memory(seed_db());
    reference.extract("coauthors", Q_COAUTHORS).unwrap();
    churn(&reference, 7, 6);
    let pin = recovered.snapshot("coauthors").unwrap();
    let pin_bytes = pin.canonical_bytes();
    churn(&recovered, 8, 4);
    churn(&reference, 8, 4);
    assert_eq!(
        recovered.snapshot("coauthors").unwrap().canonical_bytes(),
        reference.snapshot("coauthors").unwrap().canonical_bytes(),
        "post-recovery continuation diverged"
    );
    assert_eq!(
        pin.canonical_bytes(),
        pin_bytes,
        "pin taken after recovery mutated by later publishes"
    );
}

/// Each magic versions its own layout: a `GGSVGR5\0` frame around a handle
/// of the previous handle format (`GGSNAP3\0`, which stored derived copies
/// beside the maintenance state) must fail recovery at the embedded magic
/// with a `Corrupt` error naming the graph file — never a panic or a
/// misparse.
#[test]
fn graph_file_framing_an_old_handle_format_is_rejected() {
    let dir = TempDir::new("rec-old-handle");
    {
        let service =
            GraphService::create(dir.path(), seed_db(), ServiceConfig::default()).unwrap();
        service.extract("coauthors", Q_COAUTHORS).unwrap();
        churn(&service, 5, 3);
    }
    let snap_path = dir.path().join("coauthors.graph.snap");
    let sealed = std::fs::read(&snap_path).unwrap();
    let mut content = graphgen_serve::wal::unseal(&sealed).unwrap().to_vec();
    assert_eq!(&content[..8], b"GGSVGR5\0");
    let handle: Vec<usize> = (0..content.len() - 8)
        .filter(|&i| &content[i..i + 8] == b"GGSNAP4\0")
        .collect();
    assert_eq!(handle.len(), 1, "one framed handle");
    content[handle[0]..handle[0] + 8].copy_from_slice(b"GGSNAP3\0");
    graphgen_serve::wal::seal(&mut content);
    std::fs::write(&snap_path, &content).unwrap();
    match GraphService::open(dir.path()) {
        Err(ServeError::Corrupt { file, what }) => {
            assert!(file.ends_with("coauthors.graph.snap"), "names `{file}`");
            assert!(what.contains("bad magic"), "unexpected reason: {what}");
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("expected Corrupt, but the service opened"),
    }
}
