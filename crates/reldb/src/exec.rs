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
//!   multiplicities;
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
//! Each operator takes a `threads` knob (plumbed from
//! `GraphGenConfig::threads()` through every segment query). Scans and join
//! probes are morsel-parallel (`std::thread::scope`, no external deps); the
//! grouping sort and the transpose are serial. Scans merge per-thread
//! outputs in morsel order, so they preserve table order; everything after
//! the scan is **sorted** — a bag is a function of the multiset it holds,
//! whatever order and whatever thread produced its entries — and a join
//! hands each `x`'s run over exactly once, to the consumer state of the
//! morsel holding `x`, morsels in order; so for any `threads` value the
//! output is byte-identical to the serial run. Inputs below
//! `graphgen_common::parallel::MIN_PARALLEL_ITEMS` run serially regardless
//! of `threads`.

use crate::catalog::Database;
use crate::error::{DbError, DbResult};
use crate::expr::Predicate;
use crate::intern::{Vid, NULL_VID};
use crate::rowset::RowSet;
use graphgen_common::metrics::{self, Phase};
use graphgen_common::parallel::{effective_threads, map_morsels};
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
    let t = effective_threads(threads, n);
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
/// segment query performs. The runs are counted before the bag is
/// allocated, so it is allocated once, at its exact size.
pub fn group_pairs(mut keys: Vec<u64>) -> CountedPairs {
    let _span = metrics::span(Phase::Distinct, Region::Distinct);
    keys.sort_unstable();
    let runs = || keys.chunk_by(|a, b| a == b);
    let mut bag = CountedPairs::with_capacity(runs().count());
    bag.extend(runs().map(|run| (run[0], run.len() as i64)));
    bag
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
/// id of `bag`.
pub fn transpose_counted(bag: &[(u64, i64)], slots: usize) -> CountedPairs {
    let _span = metrics::span(Phase::Distinct, Region::Distinct);
    let mut next = vec![0usize; slots + 1];
    for &(key, _) in bag {
        next[unpack(key).1 as usize + 1] += 1;
    }
    for v in 0..slots {
        next[v + 1] += next[v];
    }
    let mut out = vec![(0, 0); bag.len()];
    for &(key, m) in bag {
        let (l, r) = unpack(key);
        out[next[r as usize]] = (pack(r, l), m);
        next[r as usize] += 1;
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
    map_morsels(n, effective_threads(threads, n), |range| {
        let mut state = init();
        let mut matches: CountedPairs = Vec::new();
        for run in frontier[cut(range.start)..cut(range.end)].chunk_by(same_left) {
            let x = unpack(run[0].0).0;
            matches.clear();
            for &(key, m) in run {
                let carry = unpack(key).1;
                if carry == NULL_VID {
                    continue;
                }
                let hits =
                    &atom[starts[carry as usize] as usize..starts[carry as usize + 1] as usize];
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
        group_pairs(rows.iter().map(|r| pack(r[0], r[1])).collect())
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
            group_pairs(rows.iter().map(|r| pack(r[1], r[0])).collect())
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
        assert!(group_pairs(Vec::new()).is_empty());
        assert!(transpose_counted(&[], 0).is_empty());
        let mut db = Database::new();
        db.register("T", Table::new(Schema::new(vec![Column::int("a")])))
            .unwrap();
        assert!(scan_project(&db, "T", &Predicate::True, &[0], 4)
            .unwrap()
            .is_empty());
    }
}
