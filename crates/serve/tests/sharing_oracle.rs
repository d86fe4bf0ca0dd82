//! The structural-sharing (aliasing) oracle: publish is copy-on-write over
//! `Arc`-shared adjacency chunks, so a reader's pinned version must be
//! **immune** to every later publish, byte-for-byte.
//!
//! A seeded random mutation stream drives a `GraphService` writer. After
//! every publish the test asserts, for **every** previously pinned
//! `Arc<GraphSnapshot>`:
//!
//! * its `canonical_bytes` are identical to what they were at pin time —
//!   a chunk the writer mutated in place (instead of copy-on-write) would
//!   tear exactly this;
//! * the newly published version equals a from-scratch re-extraction on a
//!   shadow database replaying the same mutations — CoW must not *drop*
//!   writes either.
//!
//! The stream mixes edge-table and node-table mutations so both the
//! chunk-level CoW (adjacency) and the `Arc`-level CoW (id map, property
//! store) are exercised, and it verifies consecutive versions really do
//! share chunks (the delta-bound publish is sharing, not copying).
//! `publish_unshares_chunks_bounded_by_the_delta_not_the_graph` makes that
//! exact: across graphs growing 16×, a publish unshares at most
//! `2 × rows + 2` chunks.

use graphgen_common::SplitMix64;
use graphgen_graph::{ChunkedAdj, GraphRep};
use graphgen_reldb::{Column, Database, Schema, Table, Value};
use graphgen_serve::{GraphService, GraphSnapshot, TableMutation};
use std::sync::Arc;

const Q: &str = "Nodes(ID, Name) :- Author(ID, Name). \
                 Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).";

/// Enough authors that the condensed graph spans several adjacency chunks
/// (16 lists each) — a publish that copied everything would still pass the
/// byte checks, so the sharing assertion below needs multiple chunks to
/// bite.
const AUTHORS: i64 = 300;
const PUBS: i64 = 90;

fn seed_db(rng: &mut SplitMix64) -> Database {
    coauthor_db(rng, AUTHORS, PUBS, 500)
}

/// A random `AuthorPub` row over the given id ranges.
fn membership(rng: &mut SplitMix64, authors: i64, pubs: i64) -> Vec<Value> {
    vec![
        Value::int(rng.next_below(authors as u64) as i64 + 1),
        Value::int(rng.next_below(pubs as u64) as i64 + 1),
    ]
}

fn coauthor_db(rng: &mut SplitMix64, authors: i64, pubs: i64, memberships: usize) -> Database {
    let mut author = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
    for a in 1..=authors {
        author
            .push_row(vec![Value::int(a), Value::str(format!("a{a}"))])
            .unwrap();
    }
    let mut ap = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
    for _ in 0..memberships {
        ap.push_row(membership(rng, authors, pubs)).unwrap();
    }
    let mut db = Database::new();
    db.register("Author", author).unwrap();
    db.register("AuthorPub", ap).unwrap();
    db
}

/// One random mutation batch: mostly edge-table churn, occasionally a
/// node-table insert (new author id past the seeded range).
fn random_mutation(rng: &mut SplitMix64, round: u64) -> Vec<TableMutation> {
    if rng.next_below(6) == 0 {
        return vec![TableMutation::new(
            "Author",
            vec![vec![
                Value::int(AUTHORS + round as i64 + 1),
                Value::str(format!("new{round}")),
            ]],
            vec![],
        )];
    }
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for _ in 0..rng.next_below(4) + 1 {
        let row = membership(rng, AUTHORS, PUBS);
        if rng.next_below(3) == 0 {
            deletes.push(row);
        } else {
            inserts.push(row);
        }
    }
    vec![TableMutation::new("AuthorPub", inserts, deletes)]
}

fn replay(db: &mut Database, mutations: &[TableMutation]) {
    for m in mutations {
        if !m.inserts.is_empty() {
            db.insert_rows(&m.table, m.inserts.clone()).unwrap();
        }
        if !m.deletes.is_empty() {
            db.delete_rows(&m.table, &m.deletes).unwrap();
        }
    }
}

/// The condensed adjacency stores (real and virtual sides) of a snapshot.
fn adjacency(s: &GraphSnapshot) -> [&ChunkedAdj; 2] {
    let g = s
        .handle()
        .graph()
        .as_condensed()
        .expect("serving graphs are C-DUP");
    [g.real_out_chunks(), g.virt_out_chunks()]
}

/// Chunks the two snapshots' condensed adjacency stores share (both real
/// and virtual sides).
fn shared_chunks(a: &GraphSnapshot, b: &GraphSnapshot) -> usize {
    let [ra, va] = adjacency(a);
    let [rb, vb] = adjacency(b);
    ra.shared_chunks_with(rb) + va.shared_chunks_with(vb)
}

fn chunk_count(s: &GraphSnapshot) -> usize {
    adjacency(s).iter().map(|adj| adj.chunks().len()).sum()
}

/// Chunks of `new` (both sides) that are not the very `Arc` at the same
/// position in `old`: what publishing `new` unshared or appended.
fn unshared_chunks(old: &GraphSnapshot, new: &GraphSnapshot) -> usize {
    chunk_count(new) - shared_chunks(old, new)
}

#[test]
fn pinned_versions_are_immune_to_chunk_cow() {
    let mut rng = SplitMix64::new(0x5EED_5EED);
    let mut shadow_rng = SplitMix64::new(0x5EED_5EED);
    let service = GraphService::in_memory(seed_db(&mut rng));
    let mut shadow_db = seed_db(&mut shadow_rng);
    service.extract("g", Q).unwrap();

    // (pinned snapshot, canonical bytes at pin time), every version.
    let v1 = service.snapshot("g").unwrap();
    let v1_bytes = v1.canonical_bytes();
    let mut pinned: Vec<(Arc<GraphSnapshot>, Vec<u8>)> = vec![(v1, v1_bytes)];

    let mut publishes = 0u64;
    let mut round = 0u64;
    let mut sharing_observed = 0usize;
    while publishes < 40 {
        round += 1;
        assert!(round < 40 * 50, "stream failed to publish enough versions");
        let mutations = random_mutation(&mut rng, round);
        let shadow_mutations = random_mutation(&mut shadow_rng, round);
        let outcome = service.apply(&mutations).unwrap();
        replay(&mut shadow_db, &shadow_mutations);
        if outcome.graphs.is_empty() {
            continue;
        }
        publishes += 1;

        // 1. Every previously pinned version is byte-identical to what it
        //    was when pinned: old chunks must never be written in place.
        for (snap, bytes_at_pin) in &pinned {
            assert_eq!(
                &snap.canonical_bytes(),
                bytes_at_pin,
                "pinned version {} mutated by a later publish (CoW violated)",
                snap.version()
            );
        }

        // 2. The new version equals a from-scratch re-extraction on the
        //    identically mutated shadow database.
        let new = service.snapshot("g").unwrap();
        let fresh = graphgen_core::GraphGen::new(&shadow_db)
            .extract(Q)
            .unwrap()
            .canonical_bytes();
        let new_bytes = new.canonical_bytes();
        assert_eq!(
            new_bytes,
            fresh,
            "published version {} diverges from re-extraction",
            new.version()
        );

        // 3. Consecutive versions structurally share adjacency chunks —
        //    publish is pointer bumps plus the delta's chunks, not a copy.
        let prev = &pinned.last().unwrap().0;
        sharing_observed += shared_chunks(prev, &new);
        pinned.push((new, new_bytes));
    }
    assert!(
        sharing_observed > 0,
        "no adjacency chunk was ever shared between consecutive versions \
         — publish is copying, not structural sharing"
    );
    // Sanity: the stream's final graph is still a live, readable handle.
    let last = &pinned.last().unwrap().0;
    assert!(last.handle().num_vertices() > 0);
}

/// The same contract across a crash: pins taken *after* recovery are
/// immune to post-recovery publishes too (recovered handles must come back
/// with the CoW discipline intact, not as aliases of the writer's state).
#[test]
fn recovered_handles_keep_the_cow_discipline() {
    use graphgen_serve::testutil::TempDir;
    use graphgen_serve::ServiceConfig;
    let dir = TempDir::new("sharing-recover");
    let mut rng = SplitMix64::new(0xC0C0);
    let mut shadow_rng = SplitMix64::new(0xC0C0);
    let mut shadow_db = seed_db(&mut shadow_rng);
    {
        let service =
            GraphService::create(dir.path(), seed_db(&mut rng), ServiceConfig::default()).unwrap();
        service.extract("g", Q).unwrap();
        for round in 0..10 {
            let m = random_mutation(&mut rng, round);
            let s = random_mutation(&mut shadow_rng, round);
            service.apply(&m).unwrap();
            replay(&mut shadow_db, &s);
        }
        // Abrupt drop: recovery must replay the WAL onto the snapshot.
    }
    let service = GraphService::open(dir.path()).unwrap();
    let pin = service.snapshot("g").unwrap();
    let pin_bytes = pin.canonical_bytes();
    for round in 10..20 {
        let m = random_mutation(&mut rng, round);
        let s = random_mutation(&mut shadow_rng, round);
        service.apply(&m).unwrap();
        replay(&mut shadow_db, &s);
        assert_eq!(
            pin.canonical_bytes(),
            pin_bytes,
            "post-recovery pin mutated by a later publish"
        );
    }
    let fresh = graphgen_core::GraphGen::new(&shadow_db)
        .extract(Q)
        .unwrap()
        .canonical_bytes();
    assert_eq!(service.snapshot("g").unwrap().canonical_bytes(), fresh);
}

/// Publishing is delta-bound: the chunks a publish unshares from the
/// previous version are bounded by the rows in the batch, whatever the
/// size of the graph — an update touches a number of cells bounded by the
/// delta (the Berkholz–Keppeler–Schweikardt discipline). A mutated
/// membership row can land in two chunks, the author's list and its
/// publication's virtual-node list; appends add at most a tail chunk per
/// side. A publish that copied the graph would unshare every chunk, and
/// the largest graph here has thousands. Counting `Arc`s instead of timing
/// publishes gives the same answer on every run and build profile.
#[test]
fn publish_unshares_chunks_bounded_by_the_delta_not_the_graph() {
    const DELTA_ROWS: usize = 64;
    const BOUND: usize = 2 * DELTA_ROWS + 2;
    for memberships in [10_000usize, 40_000, 160_000] {
        // Co-authorship shape constant across sizes (~3 memberships per
        // author, ~8 per publication), so a 64-row batch does the same
        // join fan-out at every size and only the graph grows.
        let (authors, pubs) = ((memberships / 3) as i64, (memberships / 8) as i64);
        let db = coauthor_db(&mut SplitMix64::new(42), authors, pubs, memberships);
        let service = GraphService::in_memory(db);
        service.extract("g", Q).unwrap();
        let mut prev = service.snapshot("g").unwrap();
        let chunks = chunk_count(&prev);
        assert!(chunks > 2 * BOUND, "{memberships}: only {chunks} chunks");

        let mut rng = SplitMix64::new(0xF1A7 + memberships as u64);
        let mut publishes = 0;
        while publishes < 15 {
            // Three inserts to one delete; a delete of an absent row is a
            // no-op, and a batch that changes nothing publishes nothing.
            let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
            for _ in 0..DELTA_ROWS {
                let row = membership(&mut rng, authors, pubs);
                if rng.next_below(4) == 0 {
                    deletes.push(row);
                } else {
                    inserts.push(row);
                }
            }
            let batch = [TableMutation::new("AuthorPub", inserts, deletes)];
            if service.apply(&batch).unwrap().graphs.is_empty() {
                continue;
            }
            publishes += 1;
            let new = service.snapshot("g").unwrap();
            let unshared = unshared_chunks(&prev, &new);
            assert!(
                unshared <= BOUND,
                "{memberships} memberships, publish {publishes}: {unshared} of {chunks} \
                 chunks unshared by a {DELTA_ROWS}-row batch (bound {BOUND})"
            );
            prev = new;
        }
    }
}
