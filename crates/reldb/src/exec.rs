//! Physical operators.
//!
//! The extraction layer composes four operators: filtered scans with
//! projection, GROUP BY over packed id pairs — which is the `DISTINCT` —,
//! the transpose of a grouped bag, and the counted equi-join. A
//! nested-loop join is provided as the test oracle.
//!
//! # Operator contract
//!
//! Every query extraction issues is a chain of binary atoms (see
//! [`crate::query`]), so past the scan a relation is a **counted bag of id
//! pairs** ([`Bag`]): per left id `l`, a run of 8-byte entries — the right
//! id `r` in the high half, the pair's multiplicity in the low half —
//! ascending by `r`, under `u32` offsets per left id. It is the layout the
//! maintenance state of `graphgen-core` keeps, so an operator's bag is kept
//! as it is written. No operator allocates per row and none touches a
//! [`Value`](crate::value::Value) after the scan:
//!
//! * [`scan_project`] evaluates the predicate in place, resolving a cell's
//!   id by index where it needs the value, and copies the projected ids of
//!   passing rows into a [`RowSet`]. A registered table already stores
//!   dictionary ids, so no operator hashes a value: that happens once per
//!   cell, when registration or a mutation interns it;
//! * [`group_pairs`] sorts packed pairs ([`pack`]) and counts the runs: the
//!   pairs of the result are the `DISTINCT` pairs, the counts their bag
//!   multiplicities; [`scan_grouped`] is a two-column scan grouped so,
//!   each scan morsel packing its keys straight into the vector the
//!   grouping sorts;
//! * [`Bag::transpose`] turns the bag of `(l, r)` into the bag of `(r, l)`
//!   by a counting scatter — what [`group_pairs`] of the swapped rows
//!   gives, without scanning or sorting them again;
//! * [`join_runs`] joins a frontier bag `(x, carry)` with an atom bag
//!   `(in, out)` on `carry = in` and hands each `x`'s `(out, count)`
//!   entries, sorted and folded, to a consumer, so a join's output is
//!   already distinct and nobody has to hold all of it; [`join_counted`] is
//!   that join collected into a bag. [`NULL_VID`] never joins.
//!
//! A bag holds at most [`MAX_BAG_LEN`] entries and a count of at most
//! `u32::MAX`: the operator that would write past either returns
//! [`DbError::TooLarge`] instead, before it allocates the bag.
//!
//! All bags handed to one join must come from the same dictionary: within
//! one dictionary, id equality is value equality. Every segment query —
//! batch extraction's and the maintenance-state loader's in
//! `graphgen-core` alike — runs on the one evaluator of
//! [`Query`](crate::query::Query), in database ids: it groups with
//! [`group_pairs`] and joins with [`join_runs`].
//!
//! # Parallelism and determinism
//!
//! Every operator but the transpose takes a `threads` knob (plumbed from
//! `GraphGenConfig::threads()` through every segment query) and fans out
//! over it (`std::thread::scope`, no external deps): scans and
//! join probes by morsels of their input; the grouping sorts morsels in
//! place, then merges a range of the key space per thread into that
//! thread's slice of the bag. The transpose is serial: a thread per range
//! of right ids must still read the whole bag, and on two cores that lost
//! below ≈ 260,000 entries. Scans merge per-thread outputs in morsel
//! order, so they
//! preserve table order; everything after the scan is **sorted** — a bag
//! is a function of the multiset it holds, whatever order and whatever
//! thread produced its entries — and a join hands each `x`'s run over
//! exactly once, to the consumer state of the morsel holding `x`, morsels
//! in order; so for any `threads` value the output is byte-identical to the
//! serial run. Each operator sizes its own fan-out: below
//! `graphgen_common::parallel::MIN_PARALLEL_ITEMS` items per thread
//! (scans: [`ROWS_PER_SCAN_THREAD`] rows; grouping:
//! [`GROUP_KEYS_PER_THREAD`] keys; the floors measured for each) it runs
//! on fewer threads, a small input on the calling thread.

use crate::catalog::Database;
use crate::error::{DbError, DbResult, Oversize};
use crate::expr::Predicate;
use crate::intern::{Vid, NULL_VID};
use crate::rowset::RowSet;
use graphgen_common::metrics::{self, Phase};
use graphgen_common::parallel::{
    effective_threads, map_chunks, map_morsels, map_parts, threads_for,
};
use graphgen_common::region::{self, Region};
use graphgen_common::ByteSize;
use std::ops::Range;

// Every operator opens a metrics span at entry: it enters an allocation
// region (`graphgen_common::region`) so the counting allocator in
// `graphgen-bench` can attribute bytes per operator, and on drop it logs
// the operator's wall time into the caller's phase log
// (`graphgen_common::metrics::collect_phases`) so the serving layer can
// report extraction phase breakdowns. `map_morsels` propagates the caller's
// region label onto its worker threads, and the span guard lives on the
// calling thread for the whole operator, so one guard at operator entry
// covers the whole fan-out.

/// Scan table `table` of `db`, keep rows satisfying `pred`, and project the
/// columns in `cols` (by index, in output order) as dictionary ids. A
/// registered table stores ids, so projecting copies them, and `pred`
/// reads a cell by resolving its id (an index, not a hash).
/// Morsel-parallel over `threads`, output in table row order.
pub fn scan_project(
    db: &Database,
    table: &str,
    pred: &Predicate,
    cols: &[usize],
    threads: usize,
) -> DbResult<RowSet> {
    let table = db.table(table)?;
    let _span = metrics::span(Phase::Scan, Region::Scan);
    let columns: Vec<&[Vid]> = cols.iter().map(|&c| table.ids(c)).collect();
    // Morsels split the physical row space; tombstoned rows are skipped so
    // the output is the live rows in physical (= insertion) order.
    let n = table.physical_rows();
    let t = threads_for(threads, n, ROWS_PER_SCAN_THREAD);
    let parts = map_morsels(n, t, |range| {
        let mut out = RowSet::new(cols.len());
        for r in range {
            if table.is_live(r) && pred.eval_at(table, r) {
                out.push_row(columns.iter().map(|col| col[r]));
            }
        }
        out
    });
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_else(|| RowSet::new(cols.len()));
    for part in parts {
        out.append(part);
    }
    Ok(out)
}

/// Rows per thread below which [`scan_project`] runs on fewer threads.
/// A row costs a few nanoseconds, while a thread started after its core
/// idled takes up to ≈ 200 µs to start. On two cores, inside whole
/// extractions, two threads lost at 10,000 rows (0.22 against 0.04 ms)
/// and at 25,000 (about 0.18 ms more).
pub const ROWS_PER_SCAN_THREAD: usize = 1 << 15;

/// Pack a pair of ids into one machine word, the grouping sort's key.
/// Ordering of the packed form equals lexicographic `(l, r)` order.
#[inline]
pub fn pack(l: Vid, r: Vid) -> u64 {
    (u64::from(l) << 32) | u64::from(r)
}

/// Invert [`pack`].
#[inline]
pub fn unpack(key: u64) -> (Vid, Vid) {
    ((key >> 32) as Vid, key as Vid)
}

/// A [`Bag`] entry: right id `r` in the high half, `count` in the low
/// half, so a run's entries ascend by right id.
#[inline]
pub fn entry(r: Vid, count: u32) -> u64 {
    (u64::from(r) << 32) | u64::from(count)
}

/// The right id of a [`Bag`] entry.
#[inline]
pub fn right_of(e: u64) -> Vid {
    (e >> 32) as Vid
}

/// The count of a [`Bag`] entry.
#[inline]
pub fn count_of(e: u64) -> u32 {
    e as u32
}

/// The most entries one [`Bag`] holds: its run offsets are `u32`.
pub const MAX_BAG_LEN: usize = u32::MAX as usize;

/// `len` as a bag offset, or [`DbError::TooLarge`] past [`MAX_BAG_LEN`].
fn checked_len(len: usize) -> DbResult<u32> {
    u32::try_from(len).map_err(|_| DbError::TooLarge(Oversize::Entries(len)))
}

/// `count` as an entry's count, or [`DbError::TooLarge`] past `u32::MAX`.
fn checked_count(count: u64) -> DbResult<u32> {
    u32::try_from(count).map_err(|_| DbError::TooLarge(Oversize::Count(count)))
}

/// A counted bag of id pairs `(l, r) → count`, every count in
/// `1..=u32::MAX`: one sorted run of [`entry`]s per left id under `u32`
/// offsets. The left id is not stored, so a pair costs 8 bytes plus its
/// left id's share of a 4-byte offset. The one layout a relation has past
/// the scan, from the grouping to the maintenance state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bag {
    /// One entry per pair, runs in left id order.
    entries: Vec<u64>,
    /// `entries[starts[l]..starts[l + 1]]` is left id `l`'s run, for every
    /// `l + 1 < starts.len()`; larger ids have none. Empty for an empty
    /// bag, else the last left id with a run is `starts.len() - 2`.
    starts: Vec<u32>,
}

impl Bag {
    /// How many pairs the bag holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bag holds no pair.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One past the largest left id with a run; 0 for an empty bag.
    pub fn slots(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Left id `l`'s entries, ascending by right id (empty if it has none).
    pub fn run(&self, l: Vid) -> &[u64] {
        let l = l as usize;
        match (self.starts.get(l), self.starts.get(l + 1)) {
            (Some(&a), Some(&b)) => &self.entries[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Every left id with a run and its entries, ascending.
    pub fn runs(&self) -> impl Iterator<Item = (Vid, &[u64])> + '_ {
        self.runs_starting_in(0..self.len())
    }

    /// The runs that start at an entry index in `range`, ascending: a
    /// join's morsels cut the frontier between left ids this way.
    fn runs_starting_in(&self, range: Range<usize>) -> impl Iterator<Item = (Vid, &[u64])> + '_ {
        let first_from = |i: usize| self.starts.partition_point(|&s| (s as usize) < i);
        (first_from(range.start)..first_from(range.end)).filter_map(move |l| {
            let run = &self.entries[self.starts[l] as usize..self.starts[l + 1] as usize];
            (!run.is_empty()).then_some((l as Vid, run))
        })
    }

    /// Every `(l, r, count)`, ascending by `(l, r)`.
    pub fn iter(&self) -> impl Iterator<Item = (Vid, Vid, u32)> + '_ {
        self.runs()
            .flat_map(|(l, run)| run.iter().map(move |&e| (l, right_of(e), count_of(e))))
    }

    /// [`Bag::iter`], taking the bag.
    pub fn into_pairs(self) -> impl Iterator<Item = (Vid, Vid, u32)> {
        let Self { entries, starts } = self;
        let mut l = 0;
        entries.into_iter().enumerate().map(move |(i, e)| {
            while starts[l + 1] as usize <= i {
                l += 1;
            }
            (l as Vid, right_of(e), count_of(e))
        })
    }

    /// The count of `(l, r)`, 0 when absent: a binary search in `l`'s run.
    pub fn get(&self, l: Vid, r: Vid) -> u32 {
        let run = self.run(l);
        run.binary_search_by_key(&r, |&e| right_of(e))
            .map_or(0, |i| count_of(run[i]))
    }

    /// The bag of `(r, l)` pairs, counts kept: what grouping the swapped
    /// rows would give, built by a counting scatter instead of a second
    /// scan and sort. O(len + slots); serial.
    pub fn transpose(&self) -> Bag {
        Self::transposed(|| self.iter())
    }

    /// The bag holding every `(l, r, count)` of `pairs` as `(r, l, count)`.
    /// `pairs` must ascend by `(l, r)` without repeating a pair; it is
    /// walked twice, to count each right id and then to place every pair,
    /// which leaves each run ascending by `l`. The one counting scatter:
    /// the maintenance state transposes a bag read through its changes with
    /// it.
    pub fn transposed<I>(pairs: impl Fn() -> I) -> Bag
    where
        I: Iterator<Item = (Vid, Vid, u32)>,
    {
        // `starts[r + 2]` counts right id `r`; after the prefix sum
        // `starts[r + 1]` is where its run begins, and it serves as the
        // write cursor, so the scatter leaves `starts[r]` = begin of `r`.
        let mut starts: Vec<u32> = vec![0; 2];
        for (_, r, _) in pairs() {
            let r = r as usize;
            if starts.len() < r + 3 {
                starts.resize(r + 3, 0);
            }
            starts[r + 2] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut entries = vec![0; starts[starts.len() - 1] as usize];
        for (l, r, count) in pairs() {
            let at = &mut starts[r as usize + 1];
            entries[*at as usize] = entry(l, count);
            *at += 1;
        }
        starts.pop();
        let mut bag = Bag { entries, starts };
        bag.trim();
        bag.starts.shrink_to_fit();
        bag
    }

    /// Fold signed count changes into the bag, in place. `changes` lists,
    /// per left id ascending, `(r, change)` ascending by `r`, no change
    /// zero; every resulting count must be in `0..=u32::MAX`, 0 removing
    /// the pair. Walking down from the top left id with changes, the runs
    /// above it move up by the room the changes below them need, and its
    /// own run takes its changes from the top (an entry summed with its
    /// count when it has one). Pairs that cancel leave a gap above the
    /// untouched bottom, closed once at the end; then every offset moves by
    /// what the runs below it gained. O(len + slots).
    pub fn merge(&mut self, changes: &[(Vid, Vec<(Vid, i32)>)]) {
        let added: usize = changes.iter().map(|(_, c)| c.len()).sum();
        let n = self.entries.len();
        let start = |starts: &[u32], l: usize| starts.get(l).map_or(n, |&s| s as usize);
        let entries = &mut self.entries;
        entries.reserve_exact(added);
        entries.resize(n + added, 0);
        let (mut read, mut write) = (n, n + added);
        // Per left id with changes, from the top: the entries its run gains.
        let mut grown: Vec<i64> = Vec::with_capacity(changes.len());
        for (l, changes) in changes.iter().rev() {
            let (lo, hi) = (
                start(&self.starts, *l as usize),
                start(&self.starts, *l as usize + 1),
            );
            entries.copy_within(hi..read, write - (read - hi));
            write -= read - hi;
            read = hi;
            let top = write;
            for &(r, d) in changes.iter().rev() {
                while read > lo && right_of(entries[read - 1]) > r {
                    read -= 1;
                    write -= 1;
                    entries[write] = entries[read];
                }
                let mut m = i64::from(d);
                if read > lo && right_of(entries[read - 1]) == r {
                    read -= 1;
                    m += i64::from(count_of(entries[read]));
                }
                if m != 0 {
                    write -= 1;
                    entries[write] = entry(r, m as u32);
                }
            }
            entries.copy_within(lo..read, write - (read - lo));
            write -= read - lo;
            read = lo;
            grown.push((top - write) as i64 - (hi - lo) as i64);
        }
        entries.drain(read..write);
        entries.shrink_to_fit();
        let slots = self
            .starts
            .len()
            .max(changes.last().map_or(0, |&(l, _)| l as usize + 2));
        self.starts.resize(slots, n as u32);
        let mut below = changes.iter().zip(grown.into_iter().rev()).peekable();
        let mut shift = 0;
        for (x, s) in self.starts.iter_mut().enumerate() {
            while let Some((_, g)) = below.next_if(|&((l, _), _)| (*l as usize) < x) {
                shift += g;
            }
            *s = (i64::from(*s) + shift) as u32;
        }
        self.trim();
    }

    /// Set the count of `(l, r)` to `count`, 0 removing the pair, in
    /// O(len + slots).
    pub fn set(&mut self, l: Vid, r: Vid, count: u32) {
        let l = l as usize;
        if self.starts.len() < l + 2 {
            let end = self.entries.len() as u32;
            self.starts.resize(l + 2, end);
        }
        let (lo, hi) = (self.starts[l] as usize, self.starts[l + 1] as usize);
        let at = lo + self.entries[lo..hi].partition_point(|&e| right_of(e) < r);
        let shift = match (at < hi && right_of(self.entries[at]) == r, count) {
            (true, 0) => {
                self.entries.remove(at);
                -1
            }
            (true, _) => {
                self.entries[at] = entry(r, count);
                0
            }
            (false, 0) => 0,
            (false, _) => {
                self.entries.insert(at, entry(r, count));
                1
            }
        };
        for s in &mut self.starts[l + 1..] {
            *s = (i64::from(*s) + shift) as u32;
        }
        self.trim();
    }

    /// Drop the offsets of trailing left ids without a run.
    fn trim(&mut self) {
        let end = self.entries.len() as u32;
        while self.starts.len() > 1 && self.starts[self.starts.len() - 2] == end {
            self.starts.pop();
        }
        if self.entries.is_empty() {
            self.starts = Vec::new();
        }
    }
}

impl ByteSize for Bag {
    fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes() + self.starts.heap_bytes()
    }
}

/// A [`Bag`] written in ascending `(l, r)` order — pair by pair, as a
/// snapshot decoder reads one, or run by run, as a join's consumer takes
/// them — in its final layout from the start.
#[derive(Debug, Default)]
pub struct BagBuilder {
    entries: Vec<u64>,
    /// Per left id with pairs, ascending: the id and where its run starts.
    lefts: Vec<(Vid, u32)>,
}

impl BagBuilder {
    /// A builder with room for `pairs` pairs.
    pub fn with_capacity(pairs: usize) -> Self {
        Self {
            entries: Vec::with_capacity(pairs),
            lefts: Vec::new(),
        }
    }

    /// How many pairs were pushed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair was pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append `(l, r)` with `count` ≥ 1; the caller keeps the pairs
    /// strictly ascending.
    pub fn push(&mut self, l: Vid, r: Vid, count: u32) {
        if self.lefts.last().is_none_or(|&(last, _)| last != l) {
            self.lefts.push((l, self.entries.len() as u32));
        }
        self.entries.push(entry(r, count));
    }

    /// Append left id `l`'s run, ascending entries with counts ≥ 1; `l` is
    /// above every left id so far. An empty run adds nothing.
    pub fn push_run(&mut self, l: Vid, run: &[u64]) {
        if !run.is_empty() {
            self.lefts.push((l, self.entries.len() as u32));
            self.entries.extend_from_slice(run);
        }
    }

    /// The bag.
    ///
    /// # Panics
    ///
    /// If more than [`MAX_BAG_LEN`] pairs were pushed, rather than wrap an
    /// offset: a caller that can meet that checks it as it pushes.
    pub fn finish(self) -> Bag {
        let Self { mut entries, lefts } = self;
        assert!(entries.len() <= MAX_BAG_LEN, "a bag past u32 offsets");
        entries.shrink_to_fit();
        let starts = starts_of(&lefts, entries.len() as u32);
        Bag { entries, starts }
    }

    /// One bag from builders of consecutive ranges of left ids, in order,
    /// or [`DbError::TooLarge`] past [`MAX_BAG_LEN`] pairs.
    pub fn concat(parts: Vec<BagBuilder>) -> DbResult<Bag> {
        let len = checked_len(parts.iter().map(BagBuilder::len).sum())?;
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        all.entries.reserve_exact(len as usize - all.len());
        for part in parts {
            let at = all.len() as u32;
            all.entries.extend_from_slice(&part.entries);
            all.lefts
                .extend(part.lefts.iter().map(|&(l, s)| (l, s + at)));
        }
        Ok(all.finish())
    }
}

/// A bag's offsets from where each left id's run starts (`lefts`, left ids
/// strictly ascending) and its length: ids without a run get an empty one
/// where the next run starts. This is the index a join reads an atom
/// bag's runs through, allocated in the `build` region.
fn starts_of(lefts: &[(Vid, u32)], len: u32) -> Vec<u32> {
    let Some(&(last, _)) = lefts.last() else {
        return Vec::new();
    };
    let _region = region::enter(Region::Build);
    let mut starts = Vec::with_capacity(last as usize + 2);
    for &(l, at) in lefts {
        starts.resize(l as usize + 1, at);
    }
    starts.push(len);
    starts
}

/// GROUP BY over packed pairs: sort, then count the runs. The pairs of the
/// result are the `DISTINCT` pairs — the only duplicate elimination a
/// segment query performs. The distinct keys are counted before the bag is
/// allocated, so it is allocated once, at its exact size, and a bag past
/// [`MAX_BAG_LEN`] pairs or a count past `u32::MAX` is
/// [`DbError::TooLarge`] before anything is allocated for it.
///
/// On more than one thread (one per [`GROUP_KEYS_PER_THREAD`] keys at
/// most), each sorts a morsel of `keys` in place; then the key space is
/// cut into as many ranges of about equal numbers of keys, and each
/// thread merges its range of every sorted morsel twice: once to count its
/// distinct keys, once to write them into its own slice of the bag. Equal
/// keys fall in one range, so the bag is the serial one.
pub fn group_pairs(keys: Vec<u64>, threads: usize) -> DbResult<Bag> {
    let _span = metrics::span(Phase::Distinct, Region::Distinct);
    let t = threads_for(threads, keys.len(), GROUP_KEYS_PER_THREAD);
    group_keys(keys, t)
}

/// Keys per thread below which grouping runs on fewer threads. On two
/// cores, two threads grouped 16,384 keys in 0.23 ms against one thread's
/// 0.18 ms, and 32,768 in 0.41 ms against 0.50 ms.
pub const GROUP_KEYS_PER_THREAD: usize = 1 << 14;

/// [`group_pairs`] on `t` threads.
fn group_keys(mut keys: Vec<u64>, t: usize) -> DbResult<Bag> {
    let morsel = keys.len().div_ceil(t).max(1);
    map_chunks(&mut keys, t, |_, run| run.sort_unstable());
    let runs: Vec<&[u64]> = keys.chunks(morsel).collect();
    group_sorted(&runs, t)
}

/// [`scan_project`] of the columns `[l, r]` grouped: the bag of the
/// `(l, r)` pairs of the rows that pass `pred`, what [`group_pairs`] gives
/// for their packed keys. The table is scanned in as many morsels as
/// [`group_pairs`] would use threads on its rows, each packing its rows'
/// keys into a vector of its own, so there is no row set in between and
/// no morsel output is copied: each thread sorts a morsel's vector where
/// it is, and the threads merge them as [`group_pairs`] merges its
/// morsels.
pub fn scan_grouped(
    db: &Database,
    table: &str,
    pred: &Predicate,
    [l, r]: [usize; 2],
    threads: usize,
) -> DbResult<Bag> {
    let table = db.table(table)?;
    let n = table.physical_rows();
    let t = threads_for(threads, n, GROUP_KEYS_PER_THREAD);
    let mut runs = {
        let _span = metrics::span(Phase::Scan, Region::Scan);
        let (left, right) = (table.ids(l), table.ids(r));
        let every_row = matches!(pred, Predicate::True);
        map_morsels(n, t, |range| {
            let mut keys = Vec::with_capacity(if every_row { range.len() } else { 0 });
            for row in range {
                if table.is_live(row) && pred.eval_at(table, row) {
                    keys.push(pack(left[row], right[row]));
                }
            }
            keys
        })
    };
    let _span = metrics::span(Phase::Distinct, Region::Distinct);
    map_parts(runs.iter_mut().collect(), |_, run: &mut Vec<u64>| {
        run.sort_unstable()
    });
    let runs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
    group_sorted(&runs, t)
}

/// The bag of the keys of the sorted `runs` together, written by `t`
/// threads (see [`group_pairs`]). A range may begin inside a left id's
/// run, so each thread lists where the runs it writes start, and the lists
/// are joined into the offsets afterwards.
fn group_sorted(runs: &[&[u64]], t: usize) -> DbResult<Bag> {
    let n: usize = runs.iter().map(|run| run.len()).sum();
    let cuts: Vec<u64> = (1..t).map(|i| key_of_rank(runs, i * n / t)).collect();
    let ranges: Vec<Vec<&[u64]>> = (0..t)
        .map(|i| {
            let cut = |run: &[u64], i: usize| match i {
                0 => 0,
                i if i == t => run.len(),
                i => run.partition_point(|&k| k < cuts[i - 1]),
            };
            runs.iter()
                .map(|run| &run[cut(run, i)..cut(run, i + 1)])
                .collect()
        })
        .collect();
    // Per range: its distinct keys and its largest count.
    let counts = map_parts(ranges.clone(), |_, runs| {
        let (mut len, mut most) = (0, 0);
        merge_runs(runs, |_, m| {
            len += 1;
            most = most.max(m);
        });
        (len, most)
    });
    let len = checked_len(counts.iter().map(|&(len, _)| len).sum())?;
    checked_count(counts.iter().map(|&(_, most)| most).max().unwrap_or(0))?;
    let mut entries = vec![0; len as usize];
    let slices = split_lens(&mut entries, counts.iter().map(|&(len, _)| len));
    let lefts = map_parts(
        ranges.into_iter().zip(slices).collect(),
        |_, (runs, out)| {
            let mut lefts: Vec<(Vid, u32)> = Vec::new();
            let mut slots = out.iter_mut().zip(0..);
            merge_runs(runs, |key, m| {
                let (l, r) = unpack(key);
                let (slot, at) = slots.next().expect("a counted slot");
                if lefts.last().is_none_or(|&(last, _)| last != l) {
                    lefts.push((l, at));
                }
                *slot = entry(r, m as u32);
            });
            lefts
        },
    );
    // Each range's run starts, moved to where its slice begins; a left id
    // whose run began in the range before keeps that start.
    let mut all: Vec<(Vid, u32)> = Vec::new();
    let mut at = 0;
    for (part, (len, _)) in lefts.into_iter().zip(counts) {
        let continued = part
            .first()
            .zip(all.last())
            .is_some_and(|(a, b)| a.0 == b.0);
        all.extend(
            part.iter()
                .skip(usize::from(continued))
                .map(|&(l, s)| (l, s + at)),
        );
        at += len as u32;
    }
    let starts = starts_of(&all, len);
    Ok(Bag { entries, starts })
}

/// The `rank`-th smallest key (from 0) of the sorted `runs` together.
fn key_of_rank(runs: &[&[u64]], rank: usize) -> u64 {
    let (mut lo, mut hi) = (0, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let at_most: usize = runs
            .iter()
            .map(|run| run.partition_point(|&k| k <= mid))
            .sum();
        if at_most > rank {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Hand every distinct key of the sorted `runs` to `each`, in ascending
/// order, with the number of times it occurs in them together. One run is
/// read straight through and two (a range of a two-thread grouping) merge
/// without a branch on the keys; more take the least head each step.
fn merge_runs(mut runs: Vec<&[u64]>, each: impl FnMut(u64, u64)) {
    let mut fold = Fold {
        key: 0,
        count: 0,
        each,
    };
    runs.retain(|run| !run.is_empty());
    if let [a, b] = runs[..] {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            let (from_a, from_b) = (usize::from(x <= y), usize::from(y <= x));
            fold.add(x.min(y), (from_a + from_b) as u64);
            i += from_a;
            j += from_b;
        }
        (runs[0], runs[1]) = (&a[i..], &b[j..]);
        runs.retain(|run| !run.is_empty());
    }
    if let [a] = runs[..] {
        for &key in a {
            fold.add(key, 1);
        }
        runs.clear();
    }
    while let Some((first, &key)) = runs
        .iter()
        .enumerate()
        .filter_map(|(i, run)| run.first().map(|k| (i, k)))
        .min_by_key(|&(_, &k)| k)
    {
        fold.add(key, 1);
        runs[first] = &runs[first][1..];
    }
    fold.finish();
}

/// Folds a sorted stream of `(key, count)` into one call per distinct key.
struct Fold<E: FnMut(u64, u64)> {
    key: u64,
    /// 0 while no key is pending.
    count: u64,
    each: E,
}

impl<E: FnMut(u64, u64)> Fold<E> {
    #[inline]
    fn add(&mut self, key: u64, count: u64) {
        if key == self.key && self.count > 0 {
            self.count += count;
        } else {
            self.finish();
            (self.key, self.count) = (key, count);
        }
    }

    fn finish(&mut self) {
        if self.count > 0 {
            (self.each)(self.key, self.count);
            self.count = 0;
        }
    }
}

/// `items` cut into consecutive parts of the given lengths, which must add
/// up to at most its length.
fn split_lens<T>(mut items: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut items).split_at_mut(len);
            items = tail;
            head
        })
        .collect()
}

/// One step of a chain's counted join, handed over one left id at a time:
/// `frontier` holds the bag of `(x, carry)` pairs the atoms so far
/// produce, `atom` the next atom's `(in, out)` bag; the result is the bag
/// of `(x, out)` over `carry = in`, multiplicities multiplied and summed.
/// [`NULL_VID`] never joins (SQL semantics). The atom's runs are its
/// offsets, so the join builds nothing before it probes.
///
/// Each `x` gathers its matches and sorts and folds that short list, then
/// passes `x` and that list — its run of the result bag, [`entry`]s
/// strictly ascending by right id, every count ≥ 1 — to `each` along with
/// the morsel's state, so the join itself holds one `x`'s output at a time
/// and the consumer keeps what it wants of it. An `x` without matches is
/// skipped. Morsels cut the frontier between `x` runs; each starts from
/// `init()`, and the states come back in morsel order, so a consumer that
/// appends reads the serial run's output. A count past `u32::MAX` is
/// [`DbError::TooLarge`], the same on any number of threads: each morsel
/// stops at its first, and the first morsel's is the smallest `x`'s.
pub fn join_runs<T, I, E>(
    frontier: &Bag,
    atom: &Bag,
    threads: usize,
    init: I,
    each: E,
) -> DbResult<Vec<T>>
where
    T: Send,
    I: Fn() -> T + Sync,
    E: Fn(&mut T, Vid, &[u64]) + Sync,
{
    let _span = metrics::span(Phase::Join, Region::Probe);
    // The atom entries whose left id is the carry of a frontier entry.
    let hits_of = |e: u64| match right_of(e) {
        NULL_VID => &[][..],
        carry => atom.run(carry),
    };
    let n = frontier.len();
    let parts = map_morsels(n, effective_threads(threads, n), |range| {
        let mut state = init();
        let mut matches: Vec<u64> = Vec::new();
        for (x, run) in frontier.runs_starting_in(range) {
            // Sized to this `x`'s matches before they are gathered, so the
            // buffer grows to the longest gather exactly, not twice it.
            matches.clear();
            matches.reserve_exact(run.iter().map(|&e| hits_of(e).len()).sum());
            for &e in run {
                let (hits, m) = (hits_of(e), u64::from(count_of(e)));
                if m == 1 {
                    matches.extend_from_slice(hits);
                    continue;
                }
                for &h in hits {
                    let count = checked_count(m * u64::from(count_of(h)))?;
                    matches.push(entry(right_of(h), count));
                }
            }
            if matches.is_empty() {
                continue;
            }
            matches.sort_unstable();
            let mut over = None;
            matches.dedup_by(|later, kept| {
                right_of(*later) == right_of(*kept) && {
                    let sum = u64::from(count_of(*kept)) + u64::from(count_of(*later));
                    match checked_count(sum) {
                        Ok(count) => *kept = entry(right_of(*kept), count),
                        Err(e) => over = Some(e),
                    }
                    true
                }
            });
            if let Some(e) = over {
                return Err(e);
            }
            each(&mut state, x, &matches);
        }
        Ok(state)
    });
    parts.into_iter().collect()
}

/// [`join_runs`] collected into one bag: the join's output, already
/// grouped.
pub fn join_counted(frontier: &Bag, atom: &Bag, threads: usize) -> DbResult<Bag> {
    let append = |out: &mut BagBuilder, x: Vid, run: &[u64]| out.push_run(x, run);
    let parts = join_runs(frontier, atom, threads, BagBuilder::default, append)?;
    let _span = metrics::span(Phase::Join, Region::Probe);
    BagBuilder::concat(parts)
}

/// Reference nested-loop join emitting `left ++ right` rows for
/// `left[lkey] == right[rkey]`, left rows outer; NULL keys never match.
/// Projected, packed, sorted and run-counted, its output is what
/// [`join_counted`] must produce — the correctness oracle in tests. Serial
/// by construction.
pub fn nested_loop_join(left: &RowSet, lkey: usize, right: &RowSet, rkey: usize) -> RowSet {
    let mut out = RowSet::new(left.arity() + right.arity());
    for lrow in left.iter() {
        for rrow in right.iter() {
            if lrow[lkey] != NULL_VID && lrow[lkey] == rrow[rkey] {
                out.push_row(lrow.iter().chain(rrow).copied());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::table::Table;
    use crate::value::Value;
    use graphgen_common::parallel::MIN_PARALLEL_ITEMS;

    /// A bag read as `(pack(l, r), count)` in ascending key order: the
    /// shape the references below are written in.
    type Pairs = Vec<(u64, i64)>;

    fn pairs(bag: &Bag) -> Pairs {
        bag.iter()
            .map(|(l, r, m)| (pack(l, r), i64::from(m)))
            .collect()
    }

    /// Arity-2 row set of raw ids: the join and the grouping are functions
    /// of the ids alone (`0` is NULL), so their unit tests need no
    /// dictionary.
    fn rows(pairs: &[(Vid, Vid)]) -> RowSet {
        let mut out = RowSet::new(2);
        for &(a, b) in pairs {
            out.push_row([a, b]);
        }
        out
    }

    fn bag(rows: &RowSet) -> Bag {
        group_pairs(rows.iter().map(|r| pack(r[0], r[1])).collect(), 1).unwrap()
    }

    /// `left(x, c) ⋈ right(c, y)` through the operators under test.
    fn join(l: &RowSet, r: &RowSet, threads: usize) -> Pairs {
        pairs(&join_counted(&bag(l), &bag(r), threads).unwrap())
    }

    /// The same through the nested-loop reference: project `(x, y)`, sort,
    /// count the runs.
    fn reference(l: &RowSet, r: &RowSet) -> Pairs {
        let mut keys: Vec<u64> = nested_loop_join(l, 1, r, 0)
            .iter()
            .map(|row| pack(row[0], row[3]))
            .collect();
        keys.sort_unstable();
        keys.chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as i64))
            .collect()
    }

    #[test]
    fn scan_project_filters_projects_and_interns() {
        let mut t = Table::new(Schema::new(vec![Column::int("a"), Column::str("b")]));
        for (a, b) in [(1, "x"), (2, "y"), (3, "x")] {
            t.push_row(vec![Value::int(a), Value::str(b)]).unwrap();
        }
        t.push_row(vec![Value::int(4), Value::Null]).unwrap();
        let mut db = Database::new();
        db.register("T", t).unwrap();
        let out = scan_project(&db, "T", &Predicate::Gt(0, Value::int(1)), &[1], 1).unwrap();
        let values: Vec<&Value> = out
            .iter()
            .map(|row| db.dict().resolve(row[0]).unwrap())
            .collect();
        assert_eq!(values, [&Value::str("y"), &Value::str("x"), &Value::Null]);
        assert_eq!(out.row(2), &[NULL_VID]);
        assert!(scan_project(&db, "Missing", &Predicate::True, &[0], 1).is_err());
    }

    #[test]
    fn pack_orders_lexicographically() {
        assert_eq!(unpack(pack(7, u32::MAX)), (7, u32::MAX));
        assert!(pack(1, u32::MAX) < pack(2, 0));
        assert!(pack(2, 1) < pack(2, 2));
        assert!(entry(1, u32::MAX) < entry(2, 1));
        assert_eq!((right_of(entry(7, 9)), count_of(entry(7, 9))), (7, 9));
    }

    #[test]
    fn group_pairs_sorts_and_counts_runs() {
        let input = rows(&[(1, 1), (2, 2), (1, 1), (3, 3), (2, 2), (2, 1), (1, 1)]);
        assert_eq!(
            pairs(&bag(&input)),
            [
                (pack(1, 1), 3),
                (pack(2, 1), 1),
                (pack(2, 2), 2),
                (pack(3, 3), 1)
            ]
        );
        let bag = bag(&input);
        assert_eq!(
            (bag.run(2), bag.run(0), bag.run(9)),
            (&[entry(1, 1), entry(2, 2)][..], &[][..], &[][..])
        );
        assert_eq!((bag.get(1, 1), bag.get(1, 2), bag.slots()), (3, 0, 4));
    }

    #[test]
    fn join_counted_basic() {
        let l = rows(&[(1, 100), (2, 200), (3, 100)]);
        let r = rows(&[(100, 7), (100, 8), (300, 9)]);
        // rows with carry 100 match both r-rows with key 100
        assert_eq!(
            join(&l, &r, 1),
            [
                (pack(1, 7), 1),
                (pack(1, 8), 1),
                (pack(3, 7), 1),
                (pack(3, 8), 1)
            ]
        );
    }

    #[test]
    fn join_counted_multiplies_and_sums_multiplicities() {
        // x=1 reaches y=9 over carry 5 (2 × 3 ways) and carry 6 (1 × 1).
        let l = rows(&[(1, 5), (1, 5), (1, 6)]);
        let r = rows(&[(5, 9), (5, 9), (5, 9), (6, 9)]);
        assert_eq!(join(&l, &r, 1), [(pack(1, 9), 7)]);
        assert_eq!(join(&l, &r, 1), reference(&l, &r));
    }

    #[test]
    fn join_counted_matches_nested_loop_reference() {
        let l = rows(&[(1, 1), (2, 2), (3, 1), (4, 4), (5, 2), (3, 1)]);
        let r = rows(&[(1, 10), (2, 20), (1, 11), (9, 90), (1, 10)]);
        for threads in [1, 2, 8] {
            assert_eq!(join(&l, &r, threads), reference(&l, &r));
        }
    }

    #[test]
    fn join_counted_is_size_asymmetry_agnostic() {
        // Asymmetric inputs in both directions.
        let small = rows(&[(1, 9), (2, 9), (7, 3)]);
        let big = rows(&(0..50).map(|i| (i % 5 + 1, i + 1)).collect::<Vec<_>>());
        assert_eq!(join(&small, &big, 1), reference(&small, &big));
        assert_eq!(join(&big, &small, 1), reference(&big, &small));
    }

    #[test]
    fn nulls_never_join() {
        let l = rows(&[(1, NULL_VID)]);
        for r in [
            rows(&[(NULL_VID, 2)]),
            rows(&[(NULL_VID, 2), (NULL_VID, 3)]),
        ] {
            assert!(join(&l, &r, 1).is_empty());
            assert!(nested_loop_join(&l, 1, &r, 0).is_empty());
        }
        // NULL as the carried-through `x` or the produced `y` is a value.
        let l = rows(&[(NULL_VID, 4)]);
        let r = rows(&[(4, NULL_VID)]);
        assert_eq!(join(&l, &r, 1), [(pack(NULL_VID, NULL_VID), 1)]);
    }

    #[test]
    fn a_transpose_equals_grouping_the_swapped_rows() {
        let swapped = |rows: &RowSet| -> Bag {
            group_pairs(rows.iter().map(|r| pack(r[1], r[0])).collect(), 1).unwrap()
        };
        // NULL ids on either side, multiplicities above 1, left ids out of
        // order in the rows, a right id shared by many left ids.
        let input = rows(&[
            (3, 7),
            (1, 7),
            (3, 7),
            (NULL_VID, 7),
            (2, NULL_VID),
            (NULL_VID, NULL_VID),
            (2, NULL_VID),
            (5, 1),
            (1, 5),
            (4, 4),
            (3, 7),
        ]);
        let t = bag(&input).transpose();
        assert_eq!(t, swapped(&input));
        assert!(
            pairs(&t).contains(&(pack(7, 3), 3)) && pairs(&t).contains(&(pack(NULL_VID, 2), 2))
        );
        // Transposing twice gives the bag back.
        assert_eq!(t.transpose(), bag(&input));
        assert!(Bag::default().transpose().is_empty());
        // Larger: 600 distinct pairs, each five times.
        let many = rows(
            &(0..3000u32)
                .map(|i| (i % 150, (i * 7) % 40))
                .collect::<Vec<_>>(),
        );
        assert_eq!(bag(&many).len(), 600);
        assert_eq!(bag(&many).transpose(), swapped(&many));
    }

    /// Grouping input over ids below 512: a third of the keys on left id
    /// 7, a quarter one key repeated at every fourth position (so its
    /// copies lie on both sides of every morsel cut, and range cuts fall
    /// inside its run), the rest drawn over a small domain.
    fn skewed_keys(n: usize) -> Vec<u64> {
        let mut rng = graphgen_common::SplitMix64::new(11);
        let mut id = |below: u64| rng.next_below(below) as Vid + 1;
        (0..n)
            .map(|i| match i % 12 {
                0 | 4 | 8 => pack(9, 9),
                1 | 2 | 5 | 9 => pack(7, id(300)),
                _ => pack(id(400), id(400)),
            })
            .collect()
    }

    /// Count every key, in key order.
    fn counted(entries: impl IntoIterator<Item = (u64, i64)>) -> Pairs {
        let mut counts = std::collections::BTreeMap::new();
        for (key, m) in entries {
            *counts.entry(key).or_insert(0) += m;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn grouping_is_the_same_on_any_number_of_threads() {
        let keys = skewed_keys(6 * MIN_PARALLEL_ITEMS);
        let reference = counted(keys.iter().map(|&k| (k, 1)));
        let serial = group_keys(keys.clone(), 1).unwrap();
        for t in [1, 2, 8] {
            let bag = group_keys(keys.clone(), t).unwrap();
            assert_eq!(pairs(&bag), reference, "{t} threads");
            assert_eq!(bag, serial, "{t} threads: offsets");
        }
        // Past the floor, the operator fans out by itself.
        let keys = skewed_keys(3 * GROUP_KEYS_PER_THREAD);
        let reference = counted(keys.iter().map(|&k| (k, 1)));
        for threads in [1, 2, 8] {
            assert_eq!(
                pairs(&group_pairs(keys.clone(), threads).unwrap()),
                reference
            );
        }
    }

    #[test]
    fn a_grouped_scan_is_the_grouped_rows_on_any_number_of_threads() {
        let mut t = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
        for (i, key) in skewed_keys(3 * GROUP_KEYS_PER_THREAD)
            .into_iter()
            .enumerate()
        {
            let (a, b) = unpack(key);
            let b = if i % 5 == 0 {
                Value::Null
            } else {
                Value::int(b.into())
            };
            t.push_row(vec![Value::int(a.into()), b]).unwrap();
        }
        let mut db = Database::new();
        db.register("T", t).unwrap();
        for pred in [Predicate::True, Predicate::Gt(0, Value::int(8))] {
            for cols in [[0, 1], [1, 0]] {
                let rows = scan_project(&db, "T", &pred, &cols, 1).unwrap();
                let want = group_pairs(rows.iter().map(|r| pack(r[0], r[1])).collect(), 1);
                for threads in [1, 2, 8] {
                    let got = scan_grouped(&db, "T", &pred, cols, threads);
                    assert_eq!(got, want, "{pred:?} {cols:?} at {threads} threads");
                }
            }
        }
        assert!(scan_grouped(&db, "Missing", &Predicate::True, [0, 1], 1).is_err());
    }

    #[test]
    fn transposing_a_skewed_bag_swaps_every_entry() {
        // The bag has a third of its entries on left id 7; its transpose,
        // on right id 7.
        let bag = group_pairs(skewed_keys(6 * MIN_PARALLEL_ITEMS), 1).unwrap();
        let swap = |(l, r, m): (Vid, Vid, u32)| (pack(r, l), i64::from(m));
        let transposed = counted(bag.iter().map(swap));
        assert_eq!(pairs(&bag.transpose()), transposed);
        assert_eq!(bag.transpose().transpose(), bag);
    }

    #[test]
    fn join_runs_hands_over_the_nested_loop_reference_one_source_at_a_time() {
        // Big enough that 2 and 8 threads cut the frontier into morsels.
        let l = rows(
            &(0..6000u32)
                .map(|i| (i % 389 + 1, (i * 31) % 97))
                .collect::<Vec<_>>(),
        );
        let r = rows(&(0..900u32).map(|i| (i % 101, i % 53)).collect::<Vec<_>>());
        let want = reference(&l, &r);
        for threads in [1, 2, 8] {
            let parts = join_runs(
                &bag(&l),
                &bag(&r),
                threads,
                Vec::new,
                |runs: &mut Vec<(Vid, Vec<u64>)>, x, run| runs.push((x, run.to_vec())),
            )
            .unwrap();
            if threads > 1 {
                assert!(parts.len() > 1, "{threads} threads ran one morsel");
            }
            let runs: Vec<(Vid, Vec<u64>)> = parts.into_iter().flatten().collect();
            for (_, run) in &runs {
                assert!(!run.is_empty());
                assert!(
                    run.windows(2).all(|p| right_of(p[0]) < right_of(p[1])),
                    "folded and sorted"
                );
            }
            assert!(
                runs.windows(2).all(|p| p[0].0 < p[1].0),
                "each source once, in order"
            );
            let got: Pairs = runs
                .iter()
                .flat_map(|(x, run)| {
                    run.iter()
                        .map(move |&e| (pack(*x, right_of(e)), i64::from(count_of(e))))
                })
                .collect();
            assert_eq!(got, want, "{threads} threads");
            assert_eq!(join(&l, &r, threads), want);
        }
    }

    /// A bag's offsets are `u32`: a length past them is refused by the
    /// check every bag writer makes before it allocates, and so is a count
    /// past an entry's `u32`, by the grouping and by a join.
    #[test]
    fn a_bag_past_u32_offsets_is_too_large_to_join() {
        let max = u32::MAX as usize;
        assert_eq!(checked_len(max), Ok(u32::MAX));
        assert_eq!(
            checked_len(max + 1),
            Err(DbError::TooLarge(Oversize::Entries(max + 1)))
        );
        let past = u64::from(u32::MAX) + 1;
        assert_eq!(
            checked_count(past),
            Err(DbError::TooLarge(Oversize::Count(past)))
        );
        assert_eq!(
            bag(&rows(&[(1, 2), (1, 3), (4, 2)])).starts,
            [0, 0, 2, 2, 2, 3]
        );
        // Two entries whose counts multiply past `u32::MAX`, and two
        // paths whose counts only sum past it.
        let mut frontier = BagBuilder::default();
        frontier.push(1, 5, 1 << 16);
        frontier.push(2, 5, 1);
        frontier.push(2, 6, 1);
        let mut atom = BagBuilder::default();
        atom.push(5, 9, 1 << 16);
        atom.push(6, 9, u32::MAX);
        let (frontier, atom) = (frontier.finish(), atom.finish());
        for threads in [1, 2, 8] {
            let err = join_counted(&frontier, &atom, threads);
            assert_eq!(err, Err(DbError::TooLarge(Oversize::Count(1 << 32))));
        }
        let mut frontier = BagBuilder::default();
        frontier.push(2, 5, 1);
        frontier.push(2, 6, 1);
        let err = join_counted(&frontier.finish(), &atom, 1);
        let sum = (1 << 16) + u64::from(u32::MAX);
        assert_eq!(err, Err(DbError::TooLarge(Oversize::Count(sum))));
    }

    /// A bag built pair by pair (a decoder), run by run in parts cut
    /// between left ids (a join's morsels), and grouped from keys is the
    /// same bag.
    #[test]
    fn a_bag_built_pair_by_pair_or_run_by_run_is_the_same() {
        let mut rng = graphgen_common::SplitMix64::new(9);
        let pairs: Vec<(Vid, Vid, u32)> = (0..12_293u32)
            .map(|i| ((i / 7) * 2, i % 7, 1 + rng.next_below(5) as u32))
            .collect();
        let mut builder = BagBuilder::with_capacity(pairs.len());
        for &(l, r, m) in &pairs {
            builder.push(l, r, m);
        }
        let built = builder.finish();
        assert_eq!(built.len(), pairs.len());
        assert!(built.iter().eq(pairs.iter().copied()));
        let last = pairs[pairs.len() - 1].0;
        let lefts: Vec<Vid> = built.runs().map(|(l, _)| l).collect();
        assert_eq!(lefts, (0..=last).step_by(2).collect::<Vec<_>>());
        let mut parts: Vec<BagBuilder> = (0..3).map(|_| BagBuilder::default()).collect();
        for (l, run) in built.runs() {
            let part = (l as usize * 3 / (last as usize + 1)).min(2);
            parts[part].push_run(l, run);
            parts[part].push_run(l + 1, &[]);
        }
        assert_eq!(BagBuilder::concat(parts), Ok(built.clone()));
        let keys = pairs
            .iter()
            .flat_map(|&(l, r, m)| std::iter::repeat_n(pack(l, r), m as usize))
            .collect();
        assert_eq!(group_pairs(keys, 2), Ok(built));
        assert_eq!(BagBuilder::concat(Vec::new()), Ok(Bag::default()));
    }

    /// Folding changes in place and setting single counts give the bag
    /// built from the changed pairs, offsets included.
    #[test]
    fn merged_and_set_counts_are_the_rebuilt_bag() {
        let mut rng = graphgen_common::SplitMix64::new(3);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..400 {
            let key = (rng.next_below(30) as Vid, rng.next_below(30) as Vid);
            *model.entry(key).or_insert(0i64) += 1 + rng.next_below(3) as i64;
        }
        let rebuilt = |model: &std::collections::BTreeMap<(Vid, Vid), i64>| {
            let mut b = BagBuilder::default();
            for (&(l, r), &m) in model {
                b.push(l, r, m as u32);
            }
            b.finish()
        };
        let mut bag = rebuilt(&model);
        for round in 0..20 {
            let mut changes: std::collections::BTreeMap<Vid, Vec<(Vid, i32)>> = Default::default();
            for _ in 0..25 {
                let (l, r) = (rng.next_below(34) as Vid, rng.next_below(34) as Vid);
                let have = model.get(&(l, r)).copied().unwrap_or(0);
                let list = changes.entry(l).or_default();
                if list.iter().any(|&(x, _)| x == r) {
                    continue;
                }
                let d = if have > 0 && rng.next_below(2) == 0 {
                    -have
                } else {
                    1 + rng.next_below(4) as i64
                };
                list.push((r, d as i32));
                model.insert((l, r), have + d);
            }
            model.retain(|_, m| *m != 0);
            let mut changes: Vec<(Vid, Vec<(Vid, i32)>)> =
                changes.into_iter().filter(|(_, c)| !c.is_empty()).collect();
            for (_, list) in &mut changes {
                list.sort_unstable();
            }
            bag.merge(&changes);
            assert_eq!(bag, rebuilt(&model), "round {round}: merge");
            let (l, r) = (rng.next_below(40) as Vid, rng.next_below(40) as Vid);
            let now = if model.contains_key(&(l, r)) {
                0
            } else {
                u32::MAX
            };
            bag.set(l, r, now);
            match now {
                0 => model.remove(&(l, r)),
                n => model.insert((l, r), i64::from(n)),
            };
            assert_eq!(bag, rebuilt(&model), "round {round}: set");
        }
        while let Some((&(l, r), _)) = model.iter().next() {
            bag.set(l, r, 0);
            model.remove(&(l, r));
        }
        assert_eq!(bag, Bag::default());
    }

    #[test]
    fn empty_inputs() {
        let e = RowSet::new(2);
        let r = rows(&[(1, 1)]);
        assert!(join(&e, &r, 4).is_empty());
        assert!(join(&r, &e, 4).is_empty());
        assert!(group_pairs(Vec::new(), 4).unwrap().is_empty());
        assert!(Bag::default().transpose().is_empty());
        let mut db = Database::new();
        db.register("T", Table::new(Schema::new(vec![Column::int("a")])))
            .unwrap();
        assert!(scan_project(&db, "T", &Predicate::True, &[0], 4)
            .unwrap()
            .is_empty());
    }
}
