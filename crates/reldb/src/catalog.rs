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

use crate::delta::{Delta, DeltaOp};
use crate::error::{DbError, DbResult};
use crate::intern::{hash_vids, Interner, Vid};
use crate::table::{StoredTable, Table, TableRef};
use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_common::{ByteSize, FxHashMap};

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
/// [`ColumnStats`]), plus a whole-row hash → occurrence-count map that
/// lets [`Database::delete_rows`] reject absent rows without scanning
/// (hash collisions only make the map over-report, so it is advisory —
/// presence is always confirmed cell-wise by the scan).
///
/// Keying by interned id instead of owned [`Value`] means the statistics
/// never clone a string: their footprint is a few machine words per
/// distinct value, however large the payloads are (the payload lives once,
/// in the database dictionary).
#[derive(Debug, Clone, Default)]
struct TableCounts {
    columns: Vec<FxHashMap<Vid, u64>>,
    row_hashes: FxHashMap<u64, u64>,
}

impl TableCounts {
    fn new(arity: usize) -> Self {
        Self {
            columns: vec![FxHashMap::default(); arity],
            row_hashes: FxHashMap::default(),
        }
    }

    /// Bump counts for one inserted row (already interned).
    fn insert(&mut self, vids: &[Vid]) {
        for (col, &v) in self.columns.iter_mut().zip(vids) {
            *col.entry(v).or_insert(0) += 1;
        }
        *self.row_hashes.entry(hash_vids(vids)).or_insert(0) += 1;
    }

    /// Decrement counts for one deleted row, dropping exhausted values.
    fn delete(&mut self, vids: &[Vid]) {
        for (col, v) in self.columns.iter_mut().zip(vids) {
            if let Some(n) = col.get_mut(v) {
                *n -= 1;
                if *n == 0 {
                    col.remove(v);
                }
            }
        }
        let h = hash_vids(vids);
        if let Some(n) = self.row_hashes.get_mut(&h) {
            *n -= 1;
            if *n == 0 {
                self.row_hashes.remove(&h);
            }
        }
    }

    /// Rows currently sharing this whole-row hash (0 = definitely absent).
    fn rows_with_hash(&self, h: u64) -> u64 {
        self.row_hashes.get(&h).copied().unwrap_or(0)
    }

    fn n_distinct(&self, idx: usize) -> usize {
        self.columns.get(idx).map_or(0, FxHashMap::len)
    }
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
        Self {
            tables: FxHashMap::default(),
            counts: FxHashMap::default(),
            dict: Interner::new(),
        }
    }

    /// The database's value dictionary (read-only).
    pub fn dict(&self) -> &Interner {
        &self.dict
    }

    /// Heap bytes held by the maintained statistics maps alone — excludes
    /// table storage and the dictionary. These are `Vid`-keyed, so the
    /// number must not scale with value payload size (asserted by the
    /// `catalog_bytes` test against the counting allocator).
    pub fn stats_heap_bytes(&self) -> usize {
        self.counts
            .values()
            .map(|t| {
                t.columns
                    .iter()
                    .map(|col| col.capacity() * std::mem::size_of::<(Vid, u64)>())
                    .sum::<usize>()
                    + t.row_hashes.capacity() * std::mem::size_of::<(u64, u64)>()
            })
            .sum()
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
        let mut counts = TableCounts::new(table.schema().arity());
        let stored = StoredTable::ingest(table, &mut self.dict, |ids| counts.insert(ids));
        self.counts.insert(name.clone(), counts);
        self.tables.insert(name, stored);
        Ok(())
    }

    /// Append `rows` to table `name`, returning the [`Delta`] log of the
    /// mutation. Every row is validated against the schema **before** any is
    /// applied, so a failed call leaves the table untouched. Each row's
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
        let counts = self
            .counts
            .get_mut(name)
            .expect("registered table has counts");
        let mut delta = Delta::new(name);
        table.reserve(rows.len());
        for row in rows {
            let vids: Vec<Vid> = row.iter().map(|v| self.dict.intern(v)).collect();
            counts.insert(&vids);
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
    /// Requested rows are looked up in the dictionary once each and checked
    /// against the maintained whole-row hash index: a batch of absent rows
    /// (common under random churn) is a true `O(batch)` no-op with **no
    /// scan at all**. When present rows remain, the scan hashes each table
    /// row's stored ids (no dictionary lookup, no row materialization) and
    /// stops as soon as every *satisfiable* occurrence has been found (the
    /// hash index bounds how many can match, so over-requested counts don't
    /// force a full pass). The ids of each removed row decrement the
    /// statistics directly, so the statistics cost tracks the delta; the
    /// dictionary keeps every id.
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
        // Resolve each requested row to interned ids and group by hash,
        // keeping a remaining count per distinct row (bag semantics). A row
        // with any cell absent from the dictionary is stored nowhere and is
        // dropped with no scan; so are hashes the whole-row index provably
        // holds no row for. For the rest, the table can match at most
        // `rows_with_hash` occurrences, whatever was requested.
        let mut by_hash: FxHashMap<u64, Vec<(Vec<Vid>, u32)>> = FxHashMap::default();
        for row in rows {
            let Some(vids) = row
                .iter()
                .map(|v| self.dict.lookup(v))
                .collect::<Option<Vec<Vid>>>()
            else {
                continue;
            };
            let h = hash_vids(&vids);
            if counts.rows_with_hash(h) == 0 {
                continue;
            }
            let candidates = by_hash.entry(h).or_default();
            match candidates.iter_mut().find(|(want, _)| *want == vids) {
                Some((_, count)) => *count += 1,
                None => candidates.push((vids, 1)),
            }
        }
        let mut remaining = 0u64;
        for (h, candidates) in &by_hash {
            let requested: u64 = candidates.iter().map(|(_, c)| u64::from(*c)).sum();
            remaining += requested.min(counts.rows_with_hash(*h));
        }
        let mut delta = Delta::new(name);
        if remaining == 0 {
            return Ok(delta);
        }
        let arity = table.schema().arity();
        let mut matched: Vec<u32> = Vec::new();
        let mut row_vids = vec![0 as Vid; arity];
        for r in 0..table.physical_rows() {
            if remaining == 0 {
                break;
            }
            if !table.is_live(r) {
                continue;
            }
            table.row_ids(r, &mut row_vids);
            let h = hash_vids(&row_vids);
            let Some(candidates) = by_hash.get_mut(&h) else {
                continue;
            };
            for (want, count) in candidates.iter_mut() {
                if *count > 0 && *want == row_vids {
                    *count -= 1;
                    remaining -= 1;
                    matched.push(r as u32);
                    break;
                }
            }
        }
        // O(batch): log each matched row with its ids, decrement the
        // statistics per removed occurrence, then tombstone the slots
        // (compaction is amortized).
        for &r in &matched {
            table.row_ids(r as usize, &mut row_vids);
            counts.delete(&row_vids);
            let values = TableRef::new(table, &self.dict).row(r as usize);
            delta.push(values, row_vids.clone(), DeltaOp::Delete);
        }
        table.delete_physical_rows(&matched);
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
            n_distinct: counts.n_distinct(col),
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
            let mut counts = TableCounts::new(table.schema().arity());
            let mut vids = vec![0 as Vid; table.schema().arity()];
            for row in 0..table.num_rows() {
                table.row_ids(row, &mut vids);
                counts.insert(&vids);
            }
            db.counts.insert(name.clone(), counts);
            db.tables.insert(name, table);
        }
        Ok(db)
    }
}

impl ByteSize for Database {
    /// Id columns and tombstones of every table, the statistics (per-column
    /// counts and whole-row index) and the dictionary, which holds every
    /// value payload once.
    fn heap_bytes(&self) -> usize {
        self.tables
            .values()
            .map(ByteSize::heap_bytes)
            .sum::<usize>()
            + self.stats_heap_bytes()
            + self.dict.heap_bytes()
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
