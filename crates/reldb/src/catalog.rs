//! The database catalog: named tables plus the per-column statistics that
//! drive the extraction planner's large-output-join test (§4.2 Step 2).
//!
//! PostgreSQL exposes `n_distinct` in `pg_stats`; we keep **exact** distinct
//! counts by maintaining, per column, a value → occurrence-count map. The
//! map is built once at registration time (the ANALYZE step) and then
//! updated *incrementally* by every mutation batch
//! ([`Database::insert_rows`] / [`Database::delete_rows`]): an insert bumps
//! the counts of its cell values, a delete decrements them, and a value
//! leaves the distinct set when its count returns to zero. The DB-side cost
//! of a mutation batch is therefore proportional to the batch — never
//! `O(table)` — matching the delta-bound contract of the graph-side
//! incremental maintenance. Mutations are logged as typed [`Delta`]s for
//! that maintenance layer.
//!
//! Beside the counts, each table keeps a **row locator** (an `IdTable` of
//! live row positions keyed by the hash of the row's ids): a delete probes
//! it and confirms each candidate cell-wise, so it costs its batch.

use crate::delta::{Delta, DeltaOp};
use crate::error::{DbError, DbResult, Oversize};
use crate::intern::{hash_vids, Interner, Vid};
use crate::table::{StoredTable, Table, TableRef};
use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_common::{ByteSize, FxHashMap, IdTable};

/// A table holds fewer physical rows than this: what the row locator
/// indexes (2^32 slots at a load of at most 3/4), so positions and value
/// counts fit a `u32`.
pub const MAX_PHYSICAL_ROWS: usize = 3 << 30;

/// Statistics for one column, analogous to a `pg_stats` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Total rows in the table.
    pub row_count: usize,
    /// Exact number of distinct values in the column.
    pub n_distinct: usize,
}

/// Maintained statistics state of one table: a [`Vid`] → occurrence-count
/// map per column (the exact-`n_distinct` index the planner reads through
/// [`ColumnStats`]), plus the row locator [`Database::delete_rows`] probes
/// (a bag, since rows repeat; a hash collision only adds a candidate that
/// the cell-wise check turns down).
///
/// Keying by interned id instead of owned [`Value`] means the statistics
/// never clone a string: their footprint is a few machine words per
/// distinct value, however large the payloads are (the payload lives once,
/// in the database dictionary).
#[derive(Debug, Clone, Default)]
struct TableCounts {
    columns: Vec<FxHashMap<Vid, u32>>,
    locator: IdTable,
}

impl TableCounts {
    /// Count and locate every live row of `table`: at registration, on
    /// decode, and after a compaction renumbered the rows.
    fn of(table: &StoredTable) -> Self {
        let arity = table.schema().arity();
        let mut counts = Self {
            columns: vec![FxHashMap::default(); arity],
            locator: IdTable::with_capacity(table.num_rows()),
        };
        let mut vids = vec![0 as Vid; arity];
        for pos in (0..table.physical_rows()).filter(|&r| table.is_live(r)) {
            table.row_ids(pos, &mut vids);
            counts.insert(&vids, pos);
        }
        counts
    }

    /// Count one inserted row (already interned) at physical row `pos`.
    fn insert(&mut self, vids: &[Vid], pos: usize) {
        for (col, &v) in self.columns.iter_mut().zip(vids) {
            *col.entry(v).or_insert(0) += 1;
        }
        self.locator.insert(hash_vids(vids), pos as u32);
    }

    /// Uncount one deleted row (already out of the locator).
    fn delete(&mut self, vids: &[Vid]) {
        for (col, v) in self.columns.iter_mut().zip(vids) {
            if let Some(n) = col.get_mut(v) {
                *n -= 1;
                if *n == 0 {
                    col.remove(v);
                }
            }
        }
    }
}

impl ByteSize for TableCounts {
    /// The count maps' buckets and control bytes, and the locator's slots.
    fn heap_bytes(&self) -> usize {
        self.columns.heap_bytes() + self.locator.heap_bytes()
    }
}

/// Refuse a table that `extra` more rows take to [`MAX_PHYSICAL_ROWS`].
fn check_rows(physical: usize, extra: usize) -> DbResult<()> {
    let rows = physical.saturating_add(extra);
    if rows >= MAX_PHYSICAL_ROWS {
        return Err(DbError::TooLarge(Oversize::Rows(rows)));
    }
    Ok(())
}

/// A named collection of tables with statistics and a shared value
/// dictionary.
#[derive(Debug, Default)]
pub struct Database {
    tables: FxHashMap<String, StoredTable>,
    counts: FxHashMap<String, TableCounts>,
    /// The database-wide value dictionary, grow-only: every value any
    /// table ever stored keeps its id for the life of the database.
    dict: Interner,
}

impl Database {
    /// New empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The database's value dictionary (read-only).
    pub fn dict(&self) -> &Interner {
        &self.dict
    }

    /// Heap bytes held by the maintained statistics alone — the count maps
    /// and row locators, by their allocations (buckets plus control bytes,
    /// locator slots); excludes table storage and the dictionary. These are
    /// `Vid`-keyed, so the number must not scale with value payload size
    /// (asserted by the `catalog_bytes` test against the counting
    /// allocator).
    pub fn stats_heap_bytes(&self) -> usize {
        self.counts.heap_bytes()
    }

    /// Heap bytes of the tables: their id columns and tombstones, names
    /// and the map holding them. The values are the dictionary's.
    pub fn tables_heap_bytes(&self) -> usize {
        self.tables.heap_bytes()
    }

    /// Register `table` under `name`: intern every cell in the dictionary,
    /// keep only the ids, and compute statistics for every column (the
    /// one-time ANALYZE step; mutations afterwards maintain the statistics
    /// per row). The `Value` columns of `table` are dropped.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> DbResult<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateTable(name));
        }
        check_rows(table.num_rows(), 0)?;
        let stored = StoredTable::ingest(table, &mut self.dict);
        self.counts.insert(name.clone(), TableCounts::of(&stored));
        self.tables.insert(name, stored);
        Ok(())
    }

    /// Append `rows` to table `name`, returning the [`Delta`] log of the
    /// mutation. Every row is validated against the schema, and the table's
    /// size against [`MAX_PHYSICAL_ROWS`], **before** any is applied, so a
    /// failed call leaves the table untouched. Each row's
    /// cells are interned in the dictionary once; the ids go into the table,
    /// the statistics and the delta, and the row itself moves into the
    /// delta beside them.
    pub fn insert_rows(&mut self, name: &str, rows: Vec<Vec<Value>>) -> DbResult<Delta> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        for row in &rows {
            table.schema().check_row(row)?;
        }
        check_rows(table.physical_rows(), rows.len())?;
        let counts = self
            .counts
            .get_mut(name)
            .expect("registered table has counts");
        let mut delta = Delta::new(name);
        table.reserve(rows.len());
        for row in rows {
            let vids: Vec<Vid> = row.iter().map(|v| self.dict.intern(v)).collect();
            counts.insert(&vids, table.physical_rows());
            table.push_ids(&vids);
            delta.push(row, vids, DeltaOp::Insert);
        }
        Ok(delta)
    }

    /// Delete one occurrence of each of `rows` from table `name` (bag
    /// semantics: a row requested twice removes two occurrences), preserving
    /// the order of surviving rows. Requested rows that are not present are
    /// ignored — the returned [`Delta`] only logs rows actually removed, so
    /// deleting a never-inserted row yields an empty delta.
    ///
    /// Each requested row is looked up in the dictionary once (a cell the
    /// dictionary does not hold means the row is stored nowhere) and its
    /// hash probed in the table's row locator; a candidate counts only if
    /// its ids equal the row's, cell by cell. A request takes its row's
    /// live occurrence at the lowest physical position, and leaves the
    /// locator at once, so the next request for the same row takes the
    /// next one. The cost is a probe per requested row, walking that row's
    /// live occurrences, never a walk of the table (positions are `u32`,
    /// below [`MAX_PHYSICAL_ROWS`]). The removed rows are logged in
    /// physical order, their ids decrement the statistics directly, and
    /// their slots are tombstoned; the dictionary keeps every id.
    pub fn delete_rows(&mut self, name: &str, rows: &[Vec<Value>]) -> DbResult<Delta> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        for row in rows {
            table.schema().check_row(row)?;
        }
        let counts = self
            .counts
            .get_mut(name)
            .expect("registered table has counts");
        let mut row_vids = vec![0 as Vid; table.schema().arity()];
        let mut taken: Vec<u32> = Vec::new();
        for row in rows {
            let Some(vids) = row
                .iter()
                .map(|v| self.dict.lookup(v))
                .collect::<Option<Vec<Vid>>>()
            else {
                continue;
            };
            let h = hash_vids(&vids);
            // Walk every candidate (`find` asks about each and is told no),
            // keeping the lowest position whose ids match.
            let mut lowest: Option<u32> = None;
            counts.locator.find(h, |pos| {
                if lowest.is_none_or(|low| pos < low) {
                    table.row_ids(pos as usize, &mut row_vids);
                    if row_vids == vids {
                        lowest = Some(pos);
                    }
                }
                false
            });
            if let Some(pos) = lowest {
                counts.locator.remove(h, pos);
                taken.push(pos);
            }
        }
        taken.sort_unstable();
        let mut delta = Delta::new(name);
        for &r in &taken {
            table.row_ids(r as usize, &mut row_vids);
            counts.delete(&row_vids);
            let values = TableRef::new(table, &self.dict).row(r as usize);
            delta.push(values, row_vids.clone(), DeltaOp::Delete);
        }
        if table.delete_physical_rows(&taken) {
            *counts = TableCounts::of(table);
        }
        Ok(delta)
    }

    /// Look up a table by name: a read view over its id columns and the
    /// dictionary.
    pub fn table(&self, name: &str) -> DbResult<TableRef<'_>> {
        self.tables
            .get(name)
            .map(|t| TableRef::new(t, &self.dict))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Statistics for the `col`-th column of `table` (the `pg_stats`
    /// lookup), read from the incrementally maintained value-count maps.
    pub fn column_stats(&self, table: &str, col: usize) -> DbResult<ColumnStats> {
        let counts = self
            .counts
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        if col >= counts.columns.len() {
            return Err(DbError::UnknownColumn {
                table: table.to_string(),
                column: format!("#{col}"),
            });
        }
        Ok(ColumnStats {
            row_count: self.tables[table].num_rows(),
            n_distinct: counts.columns[col].len(),
        })
    }

    /// Statistics by column name.
    pub fn column_stats_by_name(&self, table: &str, column: &str) -> DbResult<ColumnStats> {
        let t = self.table(table)?;
        let idx = t
            .schema()
            .index_of(column)
            .ok_or_else(|| DbError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        self.column_stats(table, idx)
    }

    /// Names of all registered tables (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(StoredTable::num_rows).sum()
    }

    /// Append the binary encoding of the whole database: the value
    /// dictionary first (every value in id order, so a decoded database
    /// gives each value its id and continues allocating where this one
    /// stopped), then table count, then each table (sorted by name for
    /// deterministic bytes) as name + its schema, live row count and
    /// columns, each cell written as its id. Statistics are **not** stored
    /// — they are rebuilt on decode from the ids.
    pub fn encode_into(&self, out: &mut impl codec::Sink) {
        self.dict.encode_into(out);
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        codec::put_len(out, names.len());
        for name in names {
            codec::put_str(out, name);
            self.tables[name.as_str()].encode_into(out);
        }
    }

    /// Decode a database (inverse of [`Database::encode_into`]), checking
    /// each cell's id against the decoded dictionary and rebuilding
    /// per-table statistics from the ids. A cell id the dictionary does not
    /// hold is a hard codec error — it means the snapshot's dictionary and
    /// tables disagree.
    pub fn decode(r: &mut Reader<'_>) -> Result<Database, CodecError> {
        let dict = Interner::decode(r)?;
        let n = r.len()?;
        let mut db = Database {
            tables: FxHashMap::default(),
            counts: FxHashMap::default(),
            dict,
        };
        for _ in 0..n {
            let at = r.pos();
            let name = r.str()?.to_string();
            if db.tables.contains_key(&name) {
                return Err(CodecError::invalid(at, format!("duplicate table `{name}`")));
            }
            let table = StoredTable::decode(r, &db.dict)?;
            if check_rows(table.num_rows(), 0).is_err() {
                return Err(CodecError::invalid(
                    at,
                    format!("table `{name}` is too large"),
                ));
            }
            db.counts.insert(name.clone(), TableCounts::of(&table));
            db.tables.insert(name, table);
        }
        Ok(db)
    }
}

impl ByteSize for Database {
    /// Id columns and tombstones of every table, the statistics (per-column
    /// counts and row locators) and the dictionary, which holds every value
    /// payload once.
    fn heap_bytes(&self) -> usize {
        self.tables_heap_bytes() + self.stats_heap_bytes() + self.dict.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut t = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
        for (a, p) in [(1, 10), (2, 10), (3, 11), (1, 11), (2, 12)] {
            t.push_row(vec![Value::int(a), Value::int(p)]).unwrap();
        }
        let mut db = Database::new();
        db.register("AuthorPub", t).unwrap();
        db
    }

    #[test]
    fn register_and_lookup() {
        let db = sample_db();
        assert_eq!(db.table("AuthorPub").unwrap().num_rows(), 5);
        assert!(db.table("Missing").is_err());
        assert_eq!(db.total_rows(), 5);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut db = sample_db();
        let t = Table::new(Schema::new(vec![Column::int("x")]));
        assert!(matches!(
            db.register("AuthorPub", t),
            Err(DbError::DuplicateTable(_))
        ));
    }

    #[test]
    fn stats_are_exact() {
        let db = sample_db();
        let aid = db.column_stats_by_name("AuthorPub", "aid").unwrap();
        assert_eq!(aid.row_count, 5);
        assert_eq!(aid.n_distinct, 3);
        let pid = db.column_stats_by_name("AuthorPub", "pid").unwrap();
        assert_eq!(pid.n_distinct, 3);
    }

    #[test]
    fn unknown_column_stats() {
        let db = sample_db();
        assert!(matches!(
            db.column_stats_by_name("AuthorPub", "nope"),
            Err(DbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn insert_rows_logs_and_refreshes_stats() {
        let mut db = sample_db();
        let delta = db
            .insert_rows(
                "AuthorPub",
                vec![
                    vec![Value::int(7), Value::int(10)],
                    vec![Value::int(8), Value::int(13)],
                ],
            )
            .unwrap();
        assert_eq!(delta.len(), 2);
        assert!(delta.rows().iter().all(|r| r.op == DeltaOp::Insert));
        // Each row carries the ids its cells were interned to.
        for row in delta.rows() {
            let ids: Vec<Vid> = row
                .values
                .iter()
                .map(|v| db.dict().lookup(v).unwrap())
                .collect();
            assert_eq!(row.ids, ids);
        }
        assert_eq!(db.table("AuthorPub").unwrap().num_rows(), 7);
        let aid = db.column_stats_by_name("AuthorPub", "aid").unwrap();
        assert_eq!(aid.row_count, 7);
        assert_eq!(aid.n_distinct, 5); // 1,2,3 + 7,8
    }

    #[test]
    fn insert_rows_is_atomic_on_bad_row() {
        let mut db = sample_db();
        let err = db
            .insert_rows(
                "AuthorPub",
                vec![
                    vec![Value::int(7), Value::int(10)],
                    vec![Value::str("oops"), Value::int(10)],
                ],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaMismatch(_)));
        // Nothing was applied.
        assert_eq!(db.table("AuthorPub").unwrap().num_rows(), 5);
    }

    #[test]
    fn delete_rows_removes_first_occurrence_and_skips_absent() {
        let mut db = sample_db();
        let delta = db
            .delete_rows(
                "AuthorPub",
                &[
                    vec![Value::int(1), Value::int(10)],
                    vec![Value::int(99), Value::int(99)], // never inserted
                ],
            )
            .unwrap();
        // Only the present row is logged; the absent one is a no-op.
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.rows()[0].op, DeltaOp::Delete);
        let one = db.dict().lookup(&Value::int(1)).unwrap();
        let ten = db.dict().lookup(&Value::int(10)).unwrap();
        assert_eq!(delta.rows()[0].ids, vec![one, ten]);
        assert_eq!(db.table("AuthorPub").unwrap().num_rows(), 4);
        let aid = db.column_stats_by_name("AuthorPub", "aid").unwrap();
        assert_eq!(aid.row_count, 4);
        // Deleting a fully absent batch yields an empty delta.
        let noop = db
            .delete_rows("AuthorPub", &[vec![Value::int(99), Value::int(99)]])
            .unwrap();
        assert!(noop.is_empty());
    }

    #[test]
    fn delete_rows_bag_semantics() {
        let mut db = Database::new();
        let mut t = Table::new(Schema::new(vec![Column::int("x")]));
        for v in [5, 5, 5] {
            t.push_row(vec![Value::int(v)]).unwrap();
        }
        db.register("T", t).unwrap();
        // Requesting the same row twice removes exactly two occurrences.
        let delta = db
            .delete_rows("T", &[vec![Value::int(5)], vec![Value::int(5)]])
            .unwrap();
        assert_eq!(delta.len(), 2);
        assert_eq!(db.table("T").unwrap().num_rows(), 1);
    }

    #[test]
    fn delete_rows_validates_schema() {
        let mut db = sample_db();
        // Wrong arity is a typed error, matching insert_rows, not a silent
        // no-op.
        let err = db
            .delete_rows("AuthorPub", &[vec![Value::int(1)]])
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaMismatch(_)));
        let err = db
            .delete_rows("AuthorPub", &[vec![Value::str("x"), Value::int(10)]])
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaMismatch(_)));
        assert_eq!(db.table("AuthorPub").unwrap().num_rows(), 5);
    }

    #[test]
    fn mutations_on_unknown_table_error() {
        let mut db = sample_db();
        assert!(db.insert_rows("Nope", vec![]).is_err());
        assert!(db.delete_rows("Nope", &[]).is_err());
    }

    /// The incrementally maintained `n_distinct` must match a from-scratch
    /// recount after any interleaving of inserts and deletes, including
    /// values whose occurrence count returns to zero and comes back.
    #[test]
    fn incremental_stats_match_full_recount() {
        let mut db = sample_db();
        let mut rng = graphgen_common::SplitMix64::new(0xC0DE);
        for _ in 0..40 {
            if rng.next_below(2) == 0 {
                let rows: Vec<Vec<Value>> = (0..rng.next_below(4) + 1)
                    .map(|_| {
                        vec![
                            Value::int(rng.next_below(6) as i64),
                            Value::int(rng.next_below(4) as i64 + 10),
                        ]
                    })
                    .collect();
                db.insert_rows("AuthorPub", rows).unwrap();
            } else {
                let requests: Vec<Vec<Value>> = (0..rng.next_below(3) + 1)
                    .map(|_| {
                        vec![
                            Value::int(rng.next_below(6) as i64),
                            Value::int(rng.next_below(4) as i64 + 10),
                        ]
                    })
                    .collect();
                db.delete_rows("AuthorPub", &requests).unwrap();
            }
            let table = db.table("AuthorPub").unwrap();
            for idx in 0..table.schema().arity() {
                let stats = db.column_stats("AuthorPub", idx).unwrap();
                assert_eq!(stats.row_count, table.num_rows());
                assert_eq!(
                    stats.n_distinct,
                    table.distinct_count(idx),
                    "column {idx} diverged from exact recount"
                );
            }
        }
    }

    /// The delete semantics, by a scan: per distinct requested row,
    /// the first `min(requested, present)` live occurrences in table order
    /// go, and are reported in table order.
    fn scan_delete(rows: &mut Vec<Vec<Value>>, requests: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let mut wanted: Vec<(&Vec<Value>, usize)> = Vec::new();
        for req in requests {
            match wanted.iter_mut().find(|(row, _)| *row == req) {
                Some((_, n)) => *n += 1,
                None => wanted.push((req, 1)),
            }
        }
        let mut removed = Vec::new();
        rows.retain(
            |row| match wanted.iter_mut().find(|(want, _)| *want == row) {
                Some((_, n)) if *n > 0 => {
                    *n -= 1;
                    removed.push(row.clone());
                    false
                }
                _ => true,
            },
        );
        removed
    }

    /// The row locator against a scan-based reference: seeded sequences of
    /// inserts, deletes (duplicate requests, more requests than
    /// occurrences, absent rows, cells the dictionary never saw), the
    /// compactions they trigger and codec round trips. After every step the
    /// delta rows (values and ids, in order), the table's live rows and
    /// every column's statistics must match.
    #[test]
    fn deletes_match_a_scan_reference_through_compaction_and_codec() {
        let schema = Schema::new(vec![Column::int("a"), Column::str("b")]);
        let cell = |rng: &mut graphgen_common::SplitMix64| {
            let a = match rng.next_below(12) {
                0 => Value::Null,
                // Never inserted: a cell the dictionary may not hold.
                1 => Value::int(1_000 + rng.next_below(3) as i64),
                n => Value::int(n as i64 % 5),
            };
            let b = match rng.next_below(10) {
                0 => Value::str("unseen"),
                n => Value::str(format!("s{}", n % 3)),
            };
            vec![a, b]
        };
        let mut compactions = 0;
        for seed in 1..=12u64 {
            let mut rng = graphgen_common::SplitMix64::new(seed);
            let mut reference: Vec<Vec<Value>> = Vec::new();
            let mut t = Table::new(schema.clone());
            for _ in 0..rng.next_below(40) {
                let row = cell(&mut rng);
                if row[0] != Value::int(1_000) && row[1] != Value::str("unseen") {
                    reference.push(row.clone());
                    t.push_row(row).unwrap();
                }
            }
            let mut db = Database::new();
            db.register("T", t).unwrap();
            for step in 0..150 {
                let at = format!("seed {seed} step {step}");
                match rng.next_below(10) {
                    0..=3 => {
                        let rows: Vec<Vec<Value>> =
                            (0..rng.next_below(30)).map(|_| cell(&mut rng)).collect();
                        reference.extend(rows.iter().cloned());
                        let delta = db.insert_rows("T", rows.clone()).unwrap();
                        let got: Vec<_> = delta.rows().iter().map(|r| r.values.clone()).collect();
                        assert_eq!(got, rows, "{at}");
                    }
                    4..=8 => {
                        // Draw most requests from live rows, repeated, so a
                        // batch asks for more occurrences than exist.
                        let mut requests = Vec::new();
                        for _ in 0..rng.next_below(60) {
                            if reference.is_empty() || rng.next_below(4) == 0 {
                                requests.push(cell(&mut rng));
                            } else {
                                let i = rng.next_below(reference.len() as u64) as usize;
                                requests.push(reference[i].clone());
                            }
                        }
                        let want = scan_delete(&mut reference, &requests);
                        let delta = db.delete_rows("T", &requests).unwrap();
                        let got: Vec<_> = delta.rows().iter().map(|r| r.values.clone()).collect();
                        assert_eq!(got, want, "{at}");
                        for row in delta.rows() {
                            assert_eq!(row.op, DeltaOp::Delete, "{at}");
                            let ids: Vec<Vid> = row
                                .values
                                .iter()
                                .map(|v| db.dict().lookup(v).unwrap())
                                .collect();
                            assert_eq!(row.ids, ids, "{at}");
                        }
                    }
                    _ => {
                        compactions += db.table("T").unwrap().compaction_count();
                        let mut bytes = Vec::new();
                        db.encode_into(&mut bytes);
                        db = Database::decode(&mut graphgen_common::Reader::new(&bytes)).unwrap();
                    }
                }
                let table = db.table("T").unwrap();
                assert_eq!(table.iter_rows().collect::<Vec<_>>(), reference, "{at}");
                for col in 0..2 {
                    let distinct: std::collections::BTreeSet<&Value> =
                        reference.iter().map(|row| &row[col]).collect();
                    let want = ColumnStats {
                        row_count: reference.len(),
                        n_distinct: distinct.len(),
                    };
                    assert_eq!(
                        db.column_stats("T", col).unwrap(),
                        want,
                        "{at} column {col}"
                    );
                }
            }
            compactions += db.table("T").unwrap().compaction_count();
        }
        assert!(compactions > 0, "no sequence compacted its table");
    }

    #[test]
    fn the_row_limit_counts_every_physical_row() {
        let err = check_rows(MAX_PHYSICAL_ROWS - 10, 10).unwrap_err();
        assert_eq!(err, DbError::TooLarge(Oversize::Rows(MAX_PHYSICAL_ROWS)));
        assert!(check_rows(MAX_PHYSICAL_ROWS - 10, 9).is_ok());
        assert!(check_rows(usize::MAX, 1).is_err());
        assert!(MAX_PHYSICAL_ROWS < u32::MAX as usize);
    }

    #[test]
    fn stats_survive_distinct_exhaustion() {
        let mut db = Database::new();
        let mut t = Table::new(Schema::new(vec![Column::int("x")]));
        t.push_row(vec![Value::int(1)]).unwrap();
        db.register("T", t).unwrap();
        db.delete_rows("T", &[vec![Value::int(1)]]).unwrap();
        assert_eq!(db.column_stats_by_name("T", "x").unwrap().n_distinct, 0);
        db.insert_rows("T", vec![vec![Value::int(1)], vec![Value::int(1)]])
            .unwrap();
        assert_eq!(db.column_stats_by_name("T", "x").unwrap().n_distinct, 1);
        assert_eq!(db.column_stats_by_name("T", "x").unwrap().row_count, 2);
    }

    /// An id names one value for the life of the database: after every row
    /// holding a value is deleted, its id still resolves to that value, the
    /// next new value gets a fresh id, and both survive an encode/decode.
    #[test]
    fn an_id_names_one_value_for_the_life_of_the_database() {
        let mut db = Database::new();
        let mut t = Table::new(Schema::new(vec![Column::int("x"), Column::str("s")]));
        t.push_row(vec![Value::int(1), Value::str("gone")]).unwrap();
        t.push_row(vec![Value::int(2), Value::str("kept")]).unwrap();
        db.register("T", t).unwrap();
        let id = |db: &Database, s: &str| db.dict().lookup(&Value::str(s));
        let (gone, kept) = (id(&db, "gone").unwrap(), id(&db, "kept").unwrap());
        let removed = db
            .delete_rows("T", &[vec![Value::int(1), Value::str("gone")]])
            .unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(db.dict().resolve(gone), Some(&Value::str("gone")));
        assert_eq!(id(&db, "gone"), Some(gone));
        db.insert_rows("T", vec![vec![Value::int(3), Value::str("new")]])
            .unwrap();
        let new = id(&db, "new").unwrap();
        assert!(new > gone && new > kept, "a fresh id, not a recycled one");
        let mut bytes = Vec::new();
        db.encode_into(&mut bytes);
        let back = Database::decode(&mut graphgen_common::Reader::new(&bytes)).unwrap();
        for (vid, s) in [(gone, "gone"), (kept, "kept"), (new, "new")] {
            assert_eq!(back.dict().resolve(vid), Some(&Value::str(s)), "{s}");
            assert_eq!(id(&back, s), Some(vid), "{s}");
        }
        assert_eq!(back.dict().resolve(1), Some(&Value::int(1)));
    }

    #[test]
    fn heap_bytes_counts_tables_stats_and_dictionary() {
        let mut db = sample_db();
        let mut names = Table::new(Schema::new(vec![Column::int("id"), Column::str("s")]));
        for i in 0..100 {
            names
                .push_row(vec![Value::int(i), Value::str(format!("name {i}"))])
                .unwrap();
        }
        db.register("Names", names).unwrap();
        db.delete_rows("Names", &[vec![Value::int(3), Value::str("name 3")]])
            .unwrap();
        let parts = db.stats_heap_bytes() + db.dict().heap_bytes();
        assert!(db.stats_heap_bytes() > 0);
        // The tables add their id columns and tombstones on top: 4 bytes per
        // cell of the 105 physical rows, at least.
        assert!(
            db.heap_bytes() >= parts + 4 * 2 * 105,
            "{} vs {parts}",
            db.heap_bytes()
        );
    }

    #[test]
    fn database_codec_roundtrip() {
        let mut db = sample_db();
        let mut names = Table::new(Schema::new(vec![Column::int("id"), Column::str("s")]));
        names
            .push_row(vec![Value::int(1), Value::str("a\tb")])
            .unwrap();
        names.push_row(vec![Value::Null, Value::Null]).unwrap();
        db.register("Names", names).unwrap();
        let mut bytes = Vec::new();
        db.encode_into(&mut bytes);
        let mut r = graphgen_common::Reader::new(&bytes);
        let back = Database::decode(&mut r).unwrap();
        assert!(r.is_empty());
        let mut names: Vec<&str> = back.table_names().collect();
        names.sort_unstable();
        assert_eq!(names, vec!["AuthorPub", "Names"]);
        for name in names {
            let a = db.table(name).unwrap();
            let b = back.table(name).unwrap();
            assert_eq!(a.schema(), b.schema());
            assert_eq!(a.num_rows(), b.num_rows());
            for row in 0..a.num_rows() {
                assert_eq!(a.row(row), b.row(row));
            }
            for idx in 0..a.schema().arity() {
                assert_eq!(
                    db.column_stats(name, idx).unwrap(),
                    back.column_stats(name, idx).unwrap()
                );
            }
        }
        // Encoding is deterministic (sorted table order).
        let mut again = Vec::new();
        db.encode_into(&mut again);
        assert_eq!(bytes, again);
    }
}
