//! What a served graph's maintenance state grows to under a stream of
//! writes.
//!
//! `state_bytes` measures the state a served `EXTRACT` leaves behind; this
//! test measures it after the writes `serve_write_heavy` sends. It replays
//! that workload's mutation shape through an in-memory
//! `GraphService::apply` on a DBLP-shaped database: each apply inserts 48
//! `AuthorPub` rows on Zipf(0.8)-skewed publications and deletes 16 rows
//! it inserted earlier. Hot publications grow into cliques, so the
//! co-author supports grow much faster than the rows do. At the end:
//!
//! * the served graph's canonical bytes equal a from-scratch extraction
//!   of the final database;
//! * the served C-DUP's adjacency takes at most [`MAX_GRAPH_GROWTH`]
//!   times the bytes of the same lists stored exact-sized: every apply
//!   copies the chunks it writes to, and the copies' spare room stays
//!   small;
//! * the supports and atom bags, by the `graphgen_state_bytes` gauge,
//!   take at most [`MAX_BYTES_PER_PAIR`] bytes per maintained support
//!   pair, overlay and spare capacity included;
//! * the gauge agrees with the counting allocator: dropping the graph,
//!   while a reader still pins its published snapshot, frees the bytes
//!   the gauge reports, within [`GAUGE_TOLERANCE`].
//!
//! Kept as a single `#[test]` on purpose: `alloc::stats` reads
//! process-global counters, so no other test in this binary may allocate
//! concurrently.

use graphgen_bench::alloc;
use graphgen_common::SplitMix64;
use graphgen_core::GraphGen;
use graphgen_datagen::relational::DBLP_COAUTHORS;
use graphgen_datagen::{dblp_like, DblpConfig};
use graphgen_graph::{Adj, ChunkedAdj};
use graphgen_reldb::{Database, Value};
use graphgen_serve::{GraphService, TableMutation};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Applies replayed.
const APPLIES: usize = 240;

/// Supports plus atom bags, per maintained support pair, may not exceed
/// this. Measured after the 240 applies, 309,909 support pairs: 16-byte
/// entries, `usize` offsets and 16-byte overlay changes merged at a
/// quarter of the runs, 7,348,982 bytes (23.7 per pair); 8-byte entries,
/// `u32` offsets and 8-byte changes merged at an eighth, 3,291,052 bytes
/// (10.6 per pair); the co-author support kept once, on and above its
/// diagonal, 1,781,492 bytes (5.7 per pair).
const MAX_BYTES_PER_PAIR: f64 = 6.0;

/// The served C-DUP's adjacency chunks may take at most this many times
/// the bytes of `ChunkedAdj::from_lists` over the same lists. Measured
/// after the 240 applies, against 1,243,000 bytes exact-sized: chunk
/// copies that double on their second write, 2,444,180 bytes (1.97 times);
/// copies that grow by an eighth, 1,393,588 bytes (1.12 times).
const MAX_GRAPH_GROWTH: f64 = 1.2;

/// How far the bytes freed by dropping the graph may stray from the
/// gauge's total, as a fraction of the gauge. The gauge leaves out the
/// structs themselves, the views, the atom headers and the working
/// handle's chunk table and plans. Measured: 2.5% more freed than reported
/// while a hash table was counted by its usable slots; 0.33% once it is
/// counted by its buckets and control bytes, at 1, 2 and 8 threads.
const GAUGE_TOLERANCE: f64 = 0.01;

/// Inverse-CDF Zipf sampler over ranks `0..n`.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cumulative: Vec<f64> = (1..=n)
            .scan(0.0, |total, rank| {
                *total += (rank as f64).powf(-exponent);
                Some(*total)
            })
            .collect();
        let total = cumulative[n - 1];
        cumulative.iter_mut().for_each(|c| *c /= total);
        Self(cumulative)
    }

    fn sample(&self, rng: &mut SplitMix64) -> i64 {
        let u = rng.next_f64();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1) as i64
    }
}

fn rows(rows: &[[i64; 2]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| vec![Value::int(r[0]), Value::int(r[1])])
        .collect()
}

/// Distinct `(a, b)`, `a == b` included, sharing a publication: the pairs
/// the co-author self-join keeps a support count for.
fn support_pairs(db: &Database) -> usize {
    let mut authors: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    for row in db.table("AuthorPub").expect("AuthorPub").iter_rows() {
        authors
            .entry(row[1].clone())
            .or_default()
            .push(row[0].clone());
    }
    let mut pairs = BTreeSet::new();
    for group in authors.values() {
        for a in group {
            for b in group {
                pairs.insert((a, b));
            }
        }
    }
    pairs.len()
}

/// The `graphgen_state_bytes` gauge, by part.
fn state_gauge(service: &GraphService) -> HashMap<String, f64> {
    let text = service.metrics_text();
    let parts = text.lines().filter_map(|line| {
        let rest = line.strip_prefix("graphgen_state_bytes{part=\"")?;
        let (part, value) = rest.split_once("\"} ")?;
        Some((part.to_string(), value.parse().ok()?))
    });
    parts.collect()
}

#[test]
fn served_state_stays_bounded_per_support_pair_under_writes() {
    let cfg = DblpConfig {
        authors: 5_000,
        publications: 7_500,
        avg_authors_per_pub: 2.5,
        seed: 3,
    };
    let service = GraphService::in_memory(dblp_like(cfg));
    service.extract("g", DBLP_COAUTHORS).expect("extract");
    let mut shadow = dblp_like(cfg);

    let mut rng = SplitMix64::new(0x5eed);
    let publications = Zipf::new(cfg.publications, 0.8);
    let mut inserted: Vec<[i64; 2]> = Vec::new();
    for _ in 0..APPLIES {
        let inserts: Vec<[i64; 2]> = (0..48)
            .map(|_| {
                let author = rng.next_below(cfg.authors as u64) as i64;
                [author, publications.sample(&mut rng)]
            })
            .collect();
        let deletes: Vec<[i64; 2]> = (0..16.min(inserted.len()))
            .map(|_| {
                let i = rng.next_below(inserted.len() as u64) as usize;
                inserted.swap_remove(i)
            })
            .collect();
        inserted.extend_from_slice(&inserts);
        let m = TableMutation::new("AuthorPub", rows(&inserts), rows(&deletes));
        service.apply(&[m]).expect("apply");
        shadow.insert_rows("AuthorPub", rows(&inserts)).unwrap();
        shadow.delete_rows("AuthorPub", &rows(&deletes)).unwrap();
    }

    let snapshot = service.snapshot("g").expect("served");
    let fresh = GraphGen::new(&shadow).extract(DBLP_COAUTHORS).unwrap();
    assert!(
        snapshot.canonical_bytes() == fresh.canonical_bytes(),
        "the served graph diverged from a re-extraction"
    );
    drop(fresh);

    let served = snapshot.handle().graph();
    let served = served.as_condensed().expect("a served C-DUP");
    let stores = [served.real_out_chunks(), served.virt_out_chunks()];
    let kept: usize = stores.iter().map(|store| store.heap_bytes()).sum();
    let exact: usize = stores
        .iter()
        .map(|store| {
            ChunkedAdj::from_lists(store.iter().map(<[Adj]>::to_vec).collect()).heap_bytes()
        })
        .sum();
    let growth = kept as f64 / exact as f64;
    println!("served adjacency {kept} B, {exact} B exact-sized: {growth:.3}x");
    assert!(
        growth <= MAX_GRAPH_GROWTH,
        "after {APPLIES} applies the served adjacency takes {kept} bytes, {growth:.3} times \
         the {exact} of its lists exact-sized (bound {MAX_GRAPH_GROWTH})"
    );

    let gauge = state_gauge(&service);
    let pairs = support_pairs(&shadow);
    let kept = gauge["supports"] + gauge["atom_bags"];
    let per_pair = kept / pairs as f64;
    println!(
        "gauge {gauge:?}; supports + atom bags {kept} B for {pairs} support pairs: \
         {per_pair:.1} B/pair"
    );
    assert!(
        per_pair <= MAX_BYTES_PER_PAIR,
        "after {APPLIES} applies the supports and atom bags take {kept} bytes for {pairs} \
         support pairs ({per_pair:.1} B/pair, bound {MAX_BYTES_PER_PAIR})"
    );

    // The reader's pin keeps the graph, its keys and properties alive, so
    // dropping the graph frees the writer's state alone.
    let total: f64 = gauge.values().sum();
    let before = alloc::stats().live;
    service.drop_graph("g").expect("drop");
    let freed = before - alloc::stats().live;
    drop(snapshot);
    let off = (freed as f64 - total).abs() / total;
    println!("dropping the graph freed {freed} B; the gauge reports {total} B ({off:.4} off)");
    assert!(
        off <= GAUGE_TOLERANCE,
        "the gauge reports {total} bytes of state, dropping the graph freed {freed} \
         ({off:.4} apart, tolerance {GAUGE_TOLERANCE})"
    );
}
