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
//! pairs** ([`CountedPairs`]): `(pack(l, r), multiplicity)` entries in
//! strictly ascending key order. No operator allocates per row and none
//! touches a [`Value`](crate::value::Value) after the scan:
//!
//! * [`scan_project`] evaluates the predicate in place, resolving a cell's
//!   id by index where it needs the value, and copies the projected ids of
//!   passing rows into a [`RowSet`]. A registered table already stores
//!   dictionary ids, so no operator hashes a value: that happens once per
//!   cell, when registration or a mutation acquires it;
//! * [`group_pairs`] sorts packed pairs and counts the runs: the keys of
//!   the result are the `DISTINCT` pairs, the counts their bag
//!   multiplicities; [`scan_grouped`] is a two-column scan grouped so,
//!   each scan morsel packing its keys straight into the vector the
//!   grouping sorts;
//! * [`transpose_counted`] turns the bag of `(l, r)` into the bag of
//!   `(r, l)` by a stable counting sort — what [`group_pairs`] of the
//!   swapped rows gives, without scanning or sorting them again;
//! * [`join_runs`] joins a frontier bag `(x, carry)` with an atom bag
//!   `(in, out)` on `carry = in` and hands each `x`'s `(x, out)` results,
//!   sorted and folded, to a consumer, so a join's output is already
//!   distinct and nobody has to hold all of it; [`join_counted`] is that
//!   join collected into a bag. [`NULL_VID`] never joins.
//!
//! All bags handed to one join must come from the same dictionary: within
//! one dictionary, id equality is value equality. The batch path
//! ([`Query::run_counted`](crate::query::Query::run_counted) and, for the
//! direct EXP build, [`Query::run_by_source`](crate::query::Query::run_by_source))
//! evaluates in database ids, the maintenance-state loader of
//! `graphgen-core` in its engine ids; both group with [`group_pairs`] and
//! join with [`join_runs`].
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
use crate::error::{DbError, DbResult};
use crate::expr::Predicate;
use crate::intern::{Vid, NULL_VID};
use crate::rowset::RowSet;
use graphgen_common::metrics::{self, Phase};
use graphgen_common::parallel::{
    effective_threads, map_chunks, map_morsels, map_parts, threads_for,
};
use graphgen_common::region::Region;

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

/// Pack a pair of ids into one machine word. Ordering of the packed form
/// equals lexicographic `(l, r)` order.
#[inline]
pub fn pack(l: Vid, r: Vid) -> u64 {
    (u64::from(l) << 32) | u64::from(r)
}

/// Invert [`pack`].
#[inline]
pub fn unpack(key: u64) -> (Vid, Vid) {
    ((key >> 32) as Vid, key as Vid)
}

/// A bag of id pairs: `(pack(l, r), multiplicity)` with strictly ascending
/// keys and multiplicities ≥ 1.
pub type CountedPairs = Vec<(u64, i64)>;

/// GROUP BY over packed pairs: sort, then count the runs. The keys of the
/// result are the `DISTINCT` pairs — the only duplicate elimination a
/// segment query performs. The distinct keys are counted before the bag is
/// allocated, so it is allocated once, at its exact size, and no other
/// buffer is.
///
/// On more than one thread (one per [`GROUP_KEYS_PER_THREAD`] keys at
/// most), each sorts a morsel of `keys` in place; then the key space is
/// cut into as many ranges of about equal numbers of keys, and each
/// thread merges its range of every sorted morsel twice: once to count its
/// distinct keys, once to write them into its own slice of the bag. Equal
/// keys fall in one range, so the bag is the serial one.
pub fn group_pairs(keys: Vec<u64>, threads: usize) -> CountedPairs {
    let _span = metrics::span(Phase::Distinct, Region::Distinct);
    let t = threads_for(threads, keys.len(), GROUP_KEYS_PER_THREAD);
    group_keys(keys, t)
}

/// Keys per thread below which grouping runs on fewer threads. On two
/// cores, two threads grouped 16,384 keys in 0.23 ms against one thread's
/// 0.18 ms, and 32,768 in 0.41 ms against 0.50 ms.
pub const GROUP_KEYS_PER_THREAD: usize = 1 << 14;

/// [`group_pairs`] on `t` threads.
fn group_keys(mut keys: Vec<u64>, t: usize) -> CountedPairs {
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
) -> DbResult<CountedPairs> {
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
    Ok(group_sorted(&runs, t))
}

/// The bag of the keys of the sorted `runs` together, written by `t`
/// threads (see [`group_pairs`]).
fn group_sorted(runs: &[&[u64]], t: usize) -> CountedPairs {
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
    let counts = map_parts(ranges.clone(), |_, runs| {
        let mut count = 0;
        merge_runs(runs, |_, _| count += 1);
        count
    });
    if t == 1 {
        let mut bag = CountedPairs::with_capacity(counts[0]);
        merge_runs(ranges.into_iter().next().expect("one range"), |key, m| {
            bag.push((key, m))
        });
        return bag;
    }
    let mut bag = vec![(0, 0); counts.iter().sum()];
    let slices = split_lens(&mut bag, counts);
    map_parts(
        ranges.into_iter().zip(slices).collect(),
        |_, (runs, out)| {
            let mut slots = out.iter_mut();
            merge_runs(runs, |key, m| {
                *slots.next().expect("a counted slot") = (key, m);
            });
        },
    );
    bag
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
fn merge_runs(mut runs: Vec<&[u64]>, each: impl FnMut(u64, i64)) {
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
            fold.add(x.min(y), (from_a + from_b) as i64);
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
struct Fold<E: FnMut(u64, i64)> {
    key: u64,
    /// 0 while no key is pending.
    count: i64,
    each: E,
}

impl<E: FnMut(u64, i64)> Fold<E> {
    #[inline]
    fn add(&mut self, key: u64, count: i64) {
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

#[inline]
pub(crate) fn same_left(a: &(u64, i64), b: &(u64, i64)) -> bool {
    a.0 >> 32 == b.0 >> 32
}

/// Where each left id's run starts in a bag: the entries whose left id is
/// `v` are `bag[starts[v]..starts[v + 1]]`, for every `v < slots`. `slots`
/// must exceed every left id of `bag`. The offsets are `u32`, four bytes
/// per dictionary slot.
///
/// # Panics
///
/// If `bag` holds more than `u32::MAX` entries, rather than wrap an
/// offset: a caller hands over only bags [`check_joinable`] accepts.
pub fn left_runs(bag: &[(u64, i64)], slots: usize) -> Vec<u32> {
    if let Err(e) = check_joinable(bag.len()) {
        panic!("{e}");
    }
    let mut starts = vec![0u32; slots + 1];
    for &(key, _) in bag {
        starts[unpack(key).0 as usize + 1] += 1;
    }
    for v in 0..slots {
        starts[v + 1] += starts[v];
    }
    starts
}

/// Whether a bag of `len` entries can be the atom side of a join:
/// [`left_runs`] indexes it with `u32` offsets, so past `u32::MAX` entries
/// it is [`DbError::TooLarge`].
pub fn check_joinable(len: usize) -> DbResult<()> {
    u32::try_from(len)
        .map(drop)
        .map_err(|_| DbError::TooLarge(len))
}

/// The bag of `(r, l)` pairs for a bag of `(l, r)` pairs, multiplicities
/// kept: what grouping the swapped rows would give, built by a stable
/// counting sort on `r` instead of a second scan and sort. A bag lists
/// each `r`'s pairs in ascending `l` order, so every `r` bucket comes out
/// strictly ascending. O(|bag| + slots); `slots` must exceed every right
/// id of `bag`. The bucket offsets are `u32`, four bytes per dictionary
/// slot.
///
/// # Panics
///
/// If `bag` holds more than `u32::MAX` entries, rather than wrap an
/// offset: a caller hands over only bags [`check_joinable`] accepts.
pub fn transpose_counted(bag: &[(u64, i64)], slots: usize) -> CountedPairs {
    let _span = metrics::span(Phase::Distinct, Region::Distinct);
    if let Err(e) = check_joinable(bag.len()) {
        panic!("{e}");
    }
    let mut next = vec![0u32; slots + 1];
    for &(key, _) in bag {
        next[unpack(key).1 as usize + 1] += 1;
    }
    for v in 0..slots {
        next[v + 1] += next[v];
    }
    let mut out = vec![(0, 0); bag.len()];
    for &(key, m) in bag {
        let (l, r) = unpack(key);
        let slot = &mut next[r as usize];
        out[*slot as usize] = (pack(r, l), m);
        *slot += 1;
    }
    out
}

/// One step of a chain's counted join, handed over one left id at a time:
/// `frontier` holds the bag of `(x, carry)` pairs the atoms so far
/// produce, `atom` the next atom's `(in, out)` bag; the result is the bag
/// of `(x, out)` over `carry = in`, multiplicities multiplied and summed.
/// [`NULL_VID`] never joins (SQL semantics). `slots` bounds every id of
/// `atom` (the dictionary's capacity), and [`check_joinable`] must accept
/// its length.
///
/// Each `x` gathers its matches and sorts and folds that short list, then
/// passes it — `x`'s run of the result bag, strictly ascending, every
/// multiplicity ≥ 1 — to `each` along with the morsel's state, so the
/// join itself holds one `x`'s output at a time and the consumer keeps
/// what it wants of it. An `x` without matches is skipped. Morsels cut the frontier between
/// `x` runs; each starts from `init()`, and the states come back in morsel
/// order, so a consumer that appends reads the serial run's output.
pub fn join_runs<T, I, E>(
    frontier: &[(u64, i64)],
    atom: &[(u64, i64)],
    slots: usize,
    threads: usize,
    init: I,
    each: E,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    E: Fn(&mut T, &[(u64, i64)]) + Sync,
{
    let starts = {
        let _span = metrics::span(Phase::Join, Region::Build);
        left_runs(atom, slots)
    };
    let _span = metrics::span(Phase::Join, Region::Probe);
    let n = frontier.len();
    let cut = |mut i: usize| {
        while i > 0 && i < n && same_left(&frontier[i - 1], &frontier[i]) {
            i += 1;
        }
        i
    };
    // The atom entries whose left id is the carry of a frontier key.
    let hits_of = |key: u64| match unpack(key).1 {
        NULL_VID => &atom[..0],
        carry => &atom[starts[carry as usize] as usize..starts[carry as usize + 1] as usize],
    };
    map_morsels(n, effective_threads(threads, n), |range| {
        let mut state = init();
        let mut matches: CountedPairs = Vec::new();
        for run in frontier[cut(range.start)..cut(range.end)].chunk_by(same_left) {
            let x = unpack(run[0].0).0;
            // Sized to this `x`'s matches before they are gathered, so the
            // buffer grows to the longest gather exactly, not twice it.
            matches.clear();
            matches.reserve_exact(run.iter().map(|&(key, _)| hits_of(key).len()).sum());
            for &(key, m) in run {
                let hits = hits_of(key);
                matches.extend(
                    hits.iter()
                        .map(|&(hit, mh)| (pack(x, unpack(hit).1), m * mh)),
                );
            }
            if matches.is_empty() {
                continue;
            }
            matches.sort_unstable_by_key(|&(key, _)| key);
            matches.dedup_by(|later, kept| {
                later.0 == kept.0 && {
                    kept.1 += later.1;
                    true
                }
            });
            each(&mut state, &matches);
        }
        state
    })
}

/// [`join_runs`] collected into one bag: the join's output, already
/// grouped.
pub fn join_counted(
    frontier: &[(u64, i64)],
    atom: &[(u64, i64)],
    slots: usize,
    threads: usize,
) -> CountedPairs {
    let append = |out: &mut CountedPairs, run: &[(u64, i64)]| out.extend_from_slice(run);
    let parts = join_runs(frontier, atom, slots, threads, CountedPairs::new, append);
    let _span = metrics::span(Phase::Join, Region::Probe);
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    for part in parts {
        out.extend(part);
    }
    out
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

    fn bag(rows: &RowSet) -> CountedPairs {
        group_pairs(rows.iter().map(|r| pack(r[0], r[1])).collect(), 1)
    }

    /// Ids in these tests stay below this.
    const SLOTS: usize = 512;

    /// `left(x, c) ⋈ right(c, y)` through the operators under test.
    fn join(l: &RowSet, r: &RowSet, threads: usize) -> CountedPairs {
        join_counted(&bag(l), &bag(r), SLOTS, threads)
    }

    /// The same through the nested-loop reference: project `(x, y)`, sort,
    /// count the runs.
    fn reference(l: &RowSet, r: &RowSet) -> CountedPairs {
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
    }

    #[test]
    fn group_pairs_sorts_and_counts_runs() {
        let input = rows(&[(1, 1), (2, 2), (1, 1), (3, 3), (2, 2), (2, 1), (1, 1)]);
        assert_eq!(
            bag(&input),
            [
                (pack(1, 1), 3),
                (pack(2, 1), 1),
                (pack(2, 2), 2),
                (pack(3, 3), 1)
            ]
        );
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
    fn transpose_counted_equals_grouping_the_swapped_rows() {
        let swapped = |rows: &RowSet| -> CountedPairs {
            group_pairs(rows.iter().map(|r| pack(r[1], r[0])).collect(), 1)
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
        let t = transpose_counted(&bag(&input), SLOTS);
        assert_eq!(t, swapped(&input));
        assert!(t.contains(&(pack(7, 3), 3)) && t.contains(&(pack(NULL_VID, 2), 2)));
        // Transposing twice gives the bag back.
        assert_eq!(transpose_counted(&t, SLOTS), bag(&input));
        assert!(transpose_counted(&[], SLOTS).is_empty());
        // Larger: 600 distinct pairs, each five times.
        let many = rows(
            &(0..3000u32)
                .map(|i| (i % 150, (i * 7) % 40))
                .collect::<Vec<_>>(),
        );
        assert_eq!(bag(&many).len(), 600);
        assert_eq!(transpose_counted(&bag(&many), SLOTS), swapped(&many));
    }

    /// Grouping input over ids below [`SLOTS`]: a third of the keys on left
    /// id 7, a quarter one key repeated at every fourth position (so its
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
    fn counted(entries: impl IntoIterator<Item = (u64, i64)>) -> CountedPairs {
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
        for t in [1, 2, 8] {
            assert_eq!(group_keys(keys.clone(), t), reference, "{t} threads");
        }
        // Past the floor, the operator fans out by itself.
        let keys = skewed_keys(3 * GROUP_KEYS_PER_THREAD);
        let reference = counted(keys.iter().map(|&k| (k, 1)));
        for threads in [1, 2, 8] {
            assert_eq!(group_pairs(keys.clone(), threads), reference);
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
                    let got = scan_grouped(&db, "T", &pred, cols, threads).unwrap();
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
        let bag = group_pairs(skewed_keys(6 * MIN_PARALLEL_ITEMS), 1);
        let swap = |&(key, m): &(u64, i64)| {
            let (l, r) = unpack(key);
            (pack(r, l), m)
        };
        let transposed = counted(bag.iter().map(swap));
        assert_eq!(transpose_counted(&bag, SLOTS), transposed);
        assert_eq!(transpose_counted(&transposed, SLOTS), bag);
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
                SLOTS,
                threads,
                Vec::new,
                |runs: &mut Vec<CountedPairs>, run| runs.push(run.to_vec()),
            );
            if threads > 1 {
                assert!(parts.len() > 1, "{threads} threads ran one morsel");
            }
            let runs: Vec<CountedPairs> = parts.into_iter().flatten().collect();
            for run in &runs {
                assert!(
                    run.iter().all(|e| same_left(e, &run[0])),
                    "one source per run"
                );
                assert!(run.windows(2).all(|p| p[0].0 < p[1].0), "folded and sorted");
            }
            let sources: Vec<u64> = runs.iter().map(|run| run[0].0 >> 32).collect();
            assert!(
                sources.windows(2).all(|p| p[0] < p[1]),
                "each source once, in order"
            );
            assert_eq!(runs.concat(), want, "{threads} threads");
            assert_eq!(join_counted(&bag(&l), &bag(&r), SLOTS, threads), want);
        }
    }

    #[test]
    fn a_bag_past_u32_offsets_is_too_large_to_join() {
        let max = u32::MAX as usize;
        assert_eq!(check_joinable(max), Ok(()));
        assert_eq!(check_joinable(max + 1), Err(DbError::TooLarge(max + 1)));
        assert_eq!(
            left_runs(&bag(&rows(&[(1, 2), (1, 3), (4, 2)])), 6),
            [0, 0, 2, 2, 2, 3, 3]
        );
    }

    #[test]
    fn empty_inputs() {
        let e = RowSet::new(2);
        let r = rows(&[(1, 1)]);
        assert!(join(&e, &r, 4).is_empty());
        assert!(join(&r, &e, 4).is_empty());
        assert!(group_pairs(Vec::new(), 4).is_empty());
        assert!(transpose_counted(&[], 0).is_empty());
        let mut db = Database::new();
        db.register("T", Table::new(Schema::new(vec![Column::int("a")])))
            .unwrap();
        assert!(scan_project(&db, "T", &Predicate::True, &[0], 4)
            .unwrap()
            .is_empty());
    }
}
