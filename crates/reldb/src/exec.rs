//! Physical operators.
//!
//! The extraction layer composes three operators: filtered scans with
//! projection, hash equi-joins, and duplicate elimination. A nested-loop
//! join is provided as the test oracle.
//!
//! # Operator contract
//!
//! Every operator consumes and produces [`RowSet`]s — flat arenas of
//! dictionary ids ([`Vid`]) with index-addressed rows — so no operator
//! allocates per row and none touches a [`Value`](crate::value::Value)
//! after the scan:
//!
//! * [`scan_project`] evaluates the predicate against the table columns in
//!   place and resolves only the projected cells of passing rows through
//!   the owning database's dictionary — the one place a value is hashed;
//! * [`hash_join_project`] builds an index (`Vid` keys, row indices as
//!   payload) on the **smaller** input and emits only the requested output
//!   columns; [`NULL_VID`] never joins;
//! * [`distinct_rows`] keeps the first occurrence of every id tuple.
//!
//! All row sets handed to one join must come from the same [`Database`]:
//! within one dictionary, id equality is value equality.
//!
//! # Parallelism and determinism
//!
//! Each operator takes a `threads` knob (plumbed from
//! `GraphGenConfig::threads()` through every segment query). Scans and join
//! probes are morsel-parallel, join builds and DISTINCT are hash-partitioned
//! (`std::thread::scope`, no external deps). Per-thread partial results are
//! merged in morsel/partition order, so **for any `threads` value the output
//! is byte-identical to the serial run**: scans preserve table order, joins
//! preserve left-outer/right-inner order, DISTINCT preserves first
//! occurrence. Inputs below `graphgen_common::parallel::MIN_PARALLEL_ITEMS`
//! run serially regardless of `threads`.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::expr::Predicate;
use crate::intern::{hash_vids, Vid, NULL_VID};
use crate::rowset::RowSet;
use graphgen_common::metrics;
use graphgen_common::parallel::{
    effective_threads, map_morsels, map_partitions, scatter_partitions,
};
use graphgen_common::region::Region;
use graphgen_common::{FxHashMap, FxHashSet};

// Every operator opens a metrics span at entry: it enters an allocation
// region (`graphgen_common::region`) so the counting allocator in
// `graphgen-bench` can attribute bytes per operator, and on drop it logs
// the operator's wall time into the caller's phase log
// (`graphgen_common::metrics::collect_phases`) so the serving layer can
// report extraction phase breakdowns. The parallel helpers propagate the
// caller's region label onto their worker threads, and the span guard
// lives on the calling thread for the whole operator, so one guard at
// operator entry covers the whole fan-out (scatter buckets included).

/// Row indices are carried as `u32` inside the operators to halve the
/// footprint of join/distinct bookkeeping.
const MAX_ROWS: usize = u32::MAX as usize;

/// Merge per-thread partial outputs in morsel order.
fn merge(arity: usize, parts: Vec<RowSet>) -> RowSet {
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_else(|| RowSet::new(arity));
    for p in parts {
        out.append(p);
    }
    out
}

/// Scan table `table` of `db`, keep rows satisfying `pred`, and project the
/// columns in `cols` (by index, in output order) as dictionary ids. The
/// predicate is evaluated against the table's columns directly; only the
/// projected cells of passing rows are looked up in `db`'s dictionary
/// (total: every cell of a registered table holds a dictionary reference).
/// Morsel-parallel over `threads`, output in table row order.
pub fn scan_project(
    db: &Database,
    table: &str,
    pred: &Predicate,
    cols: &[usize],
    threads: usize,
) -> DbResult<RowSet> {
    let table = db.table(table)?;
    let dict = db.dict();
    let _span = metrics::span("scan", Region::Scan);
    // Morsels split the physical row space; tombstoned rows are skipped so
    // the output is the live rows in physical (= insertion) order.
    let n = table.physical_rows();
    let t = effective_threads(threads, n);
    let parts = map_morsels(n, t, |range| {
        let mut out = RowSet::new(cols.len());
        for r in range {
            if table.is_live(r) && pred.eval_at(table, r) {
                out.push_row(cols.iter().map(|&c| {
                    dict.lookup(table.cell(r, c))
                        .expect("cell of a registered table is interned")
                }));
            }
        }
        out
    });
    Ok(merge(cols.len(), parts))
}

/// A hash-partitioned join index over one side's key column: partition `p`
/// owns the keys with `vid % parts == p`. Per-key row-index lists are
/// ascending because every partition visits the build side in row order.
type VidIndex = Vec<FxHashMap<Vid, Vec<u32>>>;

fn build_index(build: &RowSet, key: usize, parts: usize) -> VidIndex {
    let _span = metrics::span("join", Region::Build);
    assert!(build.num_rows() <= MAX_ROWS, "row set too large");
    if parts <= 1 {
        return vec![index_rows(build, key, 0..build.num_rows() as u32)];
    }
    // Scatter row indices into per-morsel partition buckets; each partition
    // thread then touches only its own rows, and scatter order keeps
    // per-key index lists ascending.
    let buckets = scatter_partitions(build.num_rows(), parts, |r| {
        ((build.row(r)[key] as usize) % parts, r as u32)
    });
    map_partitions(parts, |p| {
        let owned = buckets.iter().flat_map(|morsel| morsel[p].iter().copied());
        index_rows(build, key, owned)
    })
}

/// Index the given rows of `build` by their key; NULL keys are left out,
/// which is what makes NULL never join.
fn index_rows(
    build: &RowSet,
    key: usize,
    rows: impl Iterator<Item = u32>,
) -> FxHashMap<Vid, Vec<u32>> {
    let mut index: FxHashMap<Vid, Vec<u32>> = FxHashMap::default();
    for r in rows {
        let k = build.row(r as usize)[key];
        if k != NULL_VID {
            index.entry(k).or_default().push(r);
        }
    }
    index
}

/// Row indices of the build side matching `vid` (none for NULL).
fn index_lookup(index: &VidIndex, vid: Vid) -> &[u32] {
    index[(vid as usize) % index.len()]
        .get(&vid)
        .map_or(&[], Vec::as_slice)
}

/// Hash equi-join fused with a projection: join `left` and `right` on
/// `left[lkey] == right[rkey]`; `cols` indexes into the virtual
/// concatenated row `left ++ right`, and only those columns are ever
/// materialized, so chain queries never pay for join columns they
/// immediately discard.
///
/// Rows with NULL join keys never match (SQL semantics). Output order is the
/// nested-loop order (left rows outer, matching right rows in row order)
/// regardless of `threads` or which side the hash table is built on: the
/// table is built on the smaller input (ties build on `right`), and when
/// that is `left`, matches are collected as index pairs and sorted back
/// into left-outer order.
pub fn hash_join_project(
    left: &RowSet,
    lkey: usize,
    right: &RowSet,
    rkey: usize,
    cols: &[usize],
    threads: usize,
) -> RowSet {
    let t = effective_threads(threads, left.num_rows().max(right.num_rows()));
    if right.num_rows() <= left.num_rows() {
        // Build on `right`, probe with `left` outer: morsel concatenation
        // already yields left-outer order. The partition count is sized by
        // the *build* side so a tiny build stays serial under a big probe.
        let index = build_index(right, rkey, effective_threads(threads, right.num_rows()));
        let _span = metrics::span("join", Region::Probe);
        let parts = map_morsels(left.num_rows(), t, |range| {
            let mut out = RowSet::new(cols.len());
            for l in range {
                let lrow = left.row(l);
                for &r in index_lookup(&index, lrow[lkey]) {
                    push_joined(&mut out, lrow, right.row(r as usize), cols);
                }
            }
            out
        });
        merge(cols.len(), parts)
    } else {
        // `left` is strictly smaller: build on it, probe with `right`, then
        // reorder the matched index pairs into left-outer order.
        assert!(right.num_rows() <= MAX_ROWS, "row set too large");
        let index = build_index(left, lkey, effective_threads(threads, left.num_rows()));
        let _span = metrics::span("join", Region::Probe);
        let pairs: Vec<(u32, u32)> = map_morsels(right.num_rows(), t, |range| {
            let mut local = Vec::new();
            for r in range {
                let matches = index_lookup(&index, right.row(r)[rkey]);
                local.extend(matches.iter().map(|&l| (l, r as u32)));
            }
            local
        })
        .concat();
        // Restore (left, right) lexicographic order == nested-loop emission
        // order. The concatenated pairs are already sorted by `r` with
        // ascending `r` per `l`, so a *stable* counting sort on `l` alone
        // finishes the job in O(m + |left|) instead of O(m log m).
        let pairs = counting_sort_by_left(pairs, left.num_rows());
        let parts = map_morsels(
            pairs.len(),
            effective_threads(threads, pairs.len()),
            |range| {
                let mut out = RowSet::with_row_capacity(cols.len(), range.len());
                for &(l, r) in &pairs[range] {
                    push_joined(&mut out, left.row(l as usize), right.row(r as usize), cols);
                }
                out
            },
        );
        merge(cols.len(), parts)
    }
}

/// Stable counting sort of match pairs by their left row index. Input pairs
/// arrive sorted by the right index (probe morsel order), so stability
/// yields full `(l, r)` lexicographic order — the nested-loop emission
/// order — in two linear passes.
fn counting_sort_by_left(pairs: Vec<(u32, u32)>, left_rows: usize) -> Vec<(u32, u32)> {
    let mut offsets = vec![0usize; left_rows + 1];
    for &(l, _) in &pairs {
        offsets[l as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut sorted = vec![(0u32, 0u32); pairs.len()];
    for &(l, r) in &pairs {
        let slot = &mut offsets[l as usize];
        sorted[*slot] = (l, r);
        *slot += 1;
    }
    sorted
}

fn push_joined(out: &mut RowSet, lrow: &[Vid], rrow: &[Vid], cols: &[usize]) {
    out.push_row(cols.iter().map(|&c| {
        if c < lrow.len() {
            lrow[c]
        } else {
            rrow[c - lrow.len()]
        }
    }));
}

/// Reference nested-loop join emitting `left ++ right` rows, with the
/// semantics and output order [`hash_join_project`] promises; used as the
/// correctness oracle in tests. Serial by construction.
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

/// Remove duplicate rows, preserving first-occurrence order (`DISTINCT`).
///
/// With `threads > 1` the scan is hash-partitioned: duplicates share a hash
/// and hence a partition, each partition keeps the first occurrences among
/// the rows it owns, and the kept row indices are merged back into input
/// order before the survivors are copied out.
pub fn distinct_rows(rows: RowSet, threads: usize) -> RowSet {
    let _span = metrics::span("distinct", Region::Distinct);
    let n = rows.num_rows();
    assert!(n <= MAX_ROWS, "row set too large");
    let t = effective_threads(threads, n);
    let kept = if t <= 1 {
        first_occurrences(&rows, 0..n as u32)
    } else {
        // Scatter order keeps every partition's bucket ascending, so the
        // kept lists are ascending and pairwise disjoint.
        let buckets =
            scatter_partitions(n, t, |r| ((hash_vids(rows.row(r)) as usize) % t, r as u32));
        let mut kept = map_partitions(t, |p| {
            let owned = buckets.iter().flat_map(|morsel| morsel[p].iter().copied());
            first_occurrences(&rows, owned)
        })
        .concat();
        kept.sort_unstable();
        kept
    };
    let parts = map_morsels(
        kept.len(),
        effective_threads(threads, kept.len()),
        |range| {
            let mut out = RowSet::with_row_capacity(rows.arity(), range.len());
            for &r in &kept[range] {
                out.push_row(rows.row(r as usize).iter().copied());
            }
            out
        },
    );
    merge(rows.arity(), parts)
}

/// Of the given row indices (ascending), those whose row was not seen at an
/// earlier one.
fn first_occurrences(rows: &RowSet, candidates: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut seen: FxHashSet<RowKey<'_>> = FxHashSet::default();
    candidates
        .filter(|&r| seen.insert(RowKey(rows.row(r as usize))))
        .collect()
}

/// A row as a DISTINCT key: equal as a slice, hashed id by id with
/// [`hash_vids`]. (The slice's own `Hash` would hand FxHasher two ids packed
/// per word, and the low bits of an Fx product ignore the upper one.)
#[derive(PartialEq, Eq)]
struct RowKey<'a>(&'a [Vid]);

impl std::hash::Hash for RowKey<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(hash_vids(self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::table::Table;
    use crate::value::Value;

    /// Arity-2 row set of raw ids: the join and DISTINCT are functions of
    /// the ids alone (`0` is NULL), so their unit tests need no dictionary.
    fn rows(pairs: &[(Vid, Vid)]) -> RowSet {
        let mut out = RowSet::new(2);
        for &(a, b) in pairs {
            out.push_row([a, b]);
        }
        out
    }

    fn hash_join(l: &RowSet, lkey: usize, r: &RowSet, rkey: usize, threads: usize) -> RowSet {
        hash_join_project(l, lkey, r, rkey, &[0, 1, 2, 3], threads)
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
    fn hash_join_basic() {
        let l = rows(&[(1, 100), (2, 200), (3, 100)]);
        let r = rows(&[(100, 7), (100, 8), (300, 9)]);
        let out = hash_join(&l, 1, &r, 0, 1);
        // rows with b=100 match both r-rows with key 100
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.row(0), &[1, 100, 100, 7]);
    }

    #[test]
    fn hash_join_matches_nested_loop_in_order() {
        let l = rows(&[(1, 1), (2, 2), (3, 1), (4, 4), (5, 2)]);
        let r = rows(&[(1, 10), (2, 20), (1, 11), (9, 90)]);
        // Exact order equality, not set equality: the operator promises
        // nested-loop emission order for every thread count and build side.
        let n = nested_loop_join(&l, 1, &r, 0);
        for threads in [1, 2, 8] {
            assert_eq!(hash_join(&l, 1, &r, 0, threads), n);
        }
    }

    #[test]
    fn hash_join_builds_on_smaller_side_transparently() {
        // Asymmetric inputs in both directions: output must be identical.
        let small = rows(&[(1, 9), (2, 9), (7, 9)]);
        let big = rows(&(0..50).map(|i| (i % 5 + 1, i + 1)).collect::<Vec<_>>());
        let small_left = hash_join(&small, 0, &big, 0, 1);
        assert_eq!(small_left, nested_loop_join(&small, 0, &big, 0));
        let big_left = hash_join(&big, 0, &small, 0, 1);
        assert_eq!(big_left, nested_loop_join(&big, 0, &small, 0));
    }

    #[test]
    fn hash_join_project_fuses_projection() {
        let l = rows(&[(1, 100), (3, 100)]);
        let r = rows(&[(100, 7)]);
        let out = hash_join_project(&l, 1, &r, 0, &[0, 3], 1);
        assert_eq!(out, rows(&[(1, 7), (3, 7)]));
    }

    #[test]
    fn nulls_never_join() {
        // Both build sides: ties build on `right`, a longer `right` on `left`.
        let l = rows(&[(1, NULL_VID)]);
        for r in [
            rows(&[(NULL_VID, 2)]),
            rows(&[(NULL_VID, 2), (NULL_VID, 3)]),
        ] {
            assert!(hash_join(&l, 1, &r, 0, 1).is_empty());
            assert!(nested_loop_join(&l, 1, &r, 0).is_empty());
        }
    }

    #[test]
    fn distinct_preserves_order() {
        let input = rows(&[(1, 1), (2, 2), (1, 1), (3, 3), (2, 2), (2, 1)]);
        let expected = rows(&[(1, 1), (2, 2), (3, 3), (2, 1)]);
        for threads in [1, 2, 8] {
            assert_eq!(distinct_rows(input.clone(), threads), expected);
        }
    }

    #[test]
    fn empty_inputs() {
        let e = RowSet::new(2);
        let r = rows(&[(1, 1)]);
        assert!(hash_join(&e, 0, &r, 0, 4).is_empty());
        assert!(hash_join(&r, 0, &e, 0, 4).is_empty());
        assert!(distinct_rows(RowSet::new(2), 4).is_empty());
        let mut db = Database::new();
        db.register("T", Table::new(Schema::new(vec![Column::int("a")])))
            .unwrap();
        assert!(scan_project(&db, "T", &Predicate::True, &[0], 4)
            .unwrap()
            .is_empty());
    }
}
