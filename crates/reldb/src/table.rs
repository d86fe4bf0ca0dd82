//! Table storage: an ingestion buffer of values, and the registered form
//! that keeps only dictionary ids.
//!
//! A [`Table`] stores each column as a `Vec<Value>`. It is how rows get
//! *into* a database: appends validate arity and type, and CSV parsing and
//! the generators fill one. [`Database::register`] then takes it in: each
//! cell is interned once in the database dictionary, only its [`Vid`] is
//! kept (one `Vec<Vid>` per column, four bytes a cell), and the `Value`
//! columns are dropped. A value lives once, in the dictionary.
//!
//! A registered table is read through [`TableRef`]: the id columns plus the
//! dictionary that resolves them. Resolving an id is an index into the
//! dictionary's slot table, never a hash, so the scan in [`crate::exec`]
//! copies ids and only ordered comparisons look at a value at all.
//!
//! Deletes of a registered table are **tombstoned**: a per-row dead bit is
//! flipped in O(batch) instead of retaining every column in O(table).
//! Physical row indices stay stable across deletes; a periodic compaction
//! (triggered only when dead rows outnumber live ones) rewrites the
//! columns, so the amortized cost per deleted row is O(1) and every
//! mutation path is bounded by the delta, not the table.
//!
//! [`Database::register`]: crate::catalog::Database::register

use crate::error::DbResult;
use crate::intern::{Interner, Vid};
use crate::schema::Schema;
use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_common::ByteSize;

/// Dead rows required before compaction is even considered: below this the
/// bookkeeping vector is cheaper than any rewrite.
const COMPACT_MIN_DEAD: usize = 64;

/// A table being built: a schema plus one value vector per column. Hand it
/// to [`Database::register`](crate::catalog::Database::register) to query
/// or mutate it.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.arity()).map(|_| Vec::new()).collect();
        Self {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row. Checks arity and (non-NULL) types.
    pub fn push_row(&mut self, row: Vec<Value>) -> DbResult<()> {
        self.schema.check_row(&row)?;
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Reserve capacity for `n` additional rows in every column.
    pub fn reserve(&mut self, n: usize) {
        for col in &mut self.columns {
            col.reserve(n);
        }
    }

    /// The full column at `idx`.
    pub fn column(&self, idx: usize) -> &[Value] {
        &self.columns[idx]
    }

    /// The cell at (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Materialize row `row`.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[row].clone()).collect()
    }

    /// Iterate rows as freshly materialized `Vec<Value>`s, in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(|r| self.row(r))
    }
}

impl ByteSize for Table {
    fn heap_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|col| {
                col.capacity() * std::mem::size_of::<Value>()
                    + col.iter().map(ByteSize::heap_bytes).sum::<usize>()
            })
            .sum()
    }
}

/// A registered table: the schema plus one dictionary-id column per
/// column. Owned by the catalog, which keeps the dictionary beside it; read
/// it through [`TableRef`].
///
/// `rows` counts **live** rows; the columns may be longer when tombstoned
/// rows are awaiting compaction. All row indices taken and returned by this
/// type are *physical* (stable across deletes, invalidated only by
/// compaction).
#[derive(Debug)]
pub(crate) struct StoredTable {
    schema: Schema,
    columns: Vec<Vec<Vid>>,
    rows: usize,
    /// Tombstones, one per physical row. `true` = deleted, awaiting
    /// compaction.
    dead: Vec<bool>,
    dead_count: usize,
    compactions: u64,
}

impl StoredTable {
    fn with_columns(schema: Schema, columns: Vec<Vec<Vid>>, rows: usize) -> Self {
        StoredTable {
            schema,
            columns,
            rows,
            dead: vec![false; rows],
            dead_count: 0,
            compactions: 0,
        }
    }

    /// Take `table` in: intern every cell in `dict` row by row and keep
    /// the ids. The `Value` columns are dropped on return.
    pub(crate) fn ingest(table: Table, dict: &mut Interner) -> Self {
        let mut columns: Vec<Vec<Vid>> = (0..table.schema.arity())
            .map(|_| Vec::with_capacity(table.rows))
            .collect();
        for r in 0..table.rows {
            for (c, col) in columns.iter_mut().enumerate() {
                col.push(dict.intern(table.cell(r, c)));
            }
        }
        Self::with_columns(table.schema, columns, table.rows)
    }

    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn physical_rows(&self) -> usize {
        self.dead.len()
    }

    pub(crate) fn is_live(&self, row: usize) -> bool {
        !self.dead[row]
    }

    /// The ids of physical row `row`, written into `out`.
    pub(crate) fn row_ids(&self, row: usize, out: &mut [Vid]) {
        for (id, col) in out.iter_mut().zip(&self.columns) {
            *id = col[row];
        }
    }

    /// Append one row of ids (already interned).
    pub(crate) fn push_ids(&mut self, ids: &[Vid]) {
        for (col, &id) in self.columns.iter_mut().zip(ids) {
            col.push(id);
        }
        self.dead.push(false);
        self.rows += 1;
    }

    /// Reserve capacity for `n` additional rows in every column.
    pub(crate) fn reserve(&mut self, n: usize) {
        for col in &mut self.columns {
            col.reserve(n);
        }
        self.dead.reserve(n);
    }

    /// Tombstone the physical rows in `rows` — O(batch), no column rewrite.
    /// Already-dead entries are ignored. May trigger a compaction pass when
    /// dead rows outnumber live ones (amortized O(1) per deleted row); true
    /// if it did, which renumbers every physical row.
    pub(crate) fn delete_physical_rows(&mut self, rows: &[u32]) -> bool {
        for &r in rows {
            let r = r as usize;
            if !self.dead[r] {
                self.dead[r] = true;
                self.dead_count += 1;
                self.rows -= 1;
            }
        }
        self.maybe_compact()
    }

    /// Rewrite the columns dropping tombstoned rows iff the dead outnumber
    /// the living (and there are enough of them to matter); true if it
    /// did. One `retain` pass per column — the cost is charged against the
    /// ≥ 50% of physical rows that were deleted since the last rewrite, so
    /// deletes stay amortized O(1) each.
    fn maybe_compact(&mut self) -> bool {
        if self.dead_count < COMPACT_MIN_DEAD || self.dead_count <= self.rows {
            return false;
        }
        for col in &mut self.columns {
            let mut idx = 0;
            col.retain(|_| {
                let keep = !self.dead[idx];
                idx += 1;
                keep
            });
        }
        self.dead.clear();
        self.dead.resize(self.rows, false);
        self.dead_count = 0;
        self.compactions += 1;
        true
    }

    /// Append the binary encoding of this table: schema, live row count,
    /// then the columns in declaration order (column-major, each cell its
    /// `u32` id in the database dictionary, which never reuses an id);
    /// tombstoned rows are not written, so a decoded table is always
    /// compact. Part of the service database snapshot.
    pub(crate) fn encode_into(&self, out: &mut impl codec::Sink) {
        self.schema.encode_into(out);
        codec::put_len(out, self.rows);
        for col in &self.columns {
            for (r, &id) in col.iter().enumerate() {
                if !self.dead[r] {
                    codec::put_u32(out, id);
                }
            }
        }
    }

    /// Decode one table (inverse of [`StoredTable::encode_into`]) against
    /// the decoded dictionary `dict`. An id `dict` does not hold, or one
    /// whose value does not fit its column's type, is an error (the
    /// snapshot's dictionary and tables disagree).
    pub(crate) fn decode(r: &mut Reader<'_>, dict: &Interner) -> Result<Self, CodecError> {
        let schema = Schema::decode(r)?;
        let rows = r.len_of(4 * schema.arity())?;
        let mut columns = Vec::with_capacity(schema.arity());
        for column in schema.columns() {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..rows {
                let at = r.pos();
                let id = r.u32()?;
                let Some(v) = dict.resolve(id) else {
                    return Err(CodecError::invalid(
                        at,
                        "table cell missing from dictionary",
                    ));
                };
                if v.data_type().is_some_and(|dt| dt != column.dtype) {
                    return Err(CodecError::invalid(
                        at,
                        format!("column `{}` expects {}", column.name, column.dtype),
                    ));
                }
                col.push(id);
            }
            columns.push(col);
        }
        Ok(Self::with_columns(schema, columns, rows))
    }
}

impl ByteSize for StoredTable {
    /// Id columns plus tombstones; the values are the dictionary's.
    fn heap_bytes(&self) -> usize {
        self.dead.capacity()
            + self
                .columns
                .iter()
                .map(|col| col.capacity() * std::mem::size_of::<Vid>())
                .sum::<usize>()
    }
}

/// The value a stored id names. Every cell of a registered table was
/// interned, and the dictionary never drops an id.
fn resolve(dict: &Interner, id: Vid) -> &Value {
    dict.resolve(id)
        .expect("cell of a registered table is interned")
}

/// A read view of a registered table: its id columns plus the database
/// dictionary that resolves them. Returned by
/// [`Database::table`](crate::catalog::Database::table).
///
/// Row indices are *physical*: every index below
/// [`TableRef::physical_rows`] is valid, and tombstoned rows (see
/// [`TableRef::is_live`]) still hold their ids until the next compaction.
#[derive(Debug, Clone, Copy)]
pub struct TableRef<'a> {
    table: &'a StoredTable,
    dict: &'a Interner,
}

impl<'a> TableRef<'a> {
    pub(crate) fn new(table: &'a StoredTable, dict: &'a Interner) -> Self {
        TableRef { table, dict }
    }

    /// The table's schema.
    pub fn schema(&self) -> &'a Schema {
        &self.table.schema
    }

    /// Number of **live** rows.
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    /// Number of physical row slots (live + tombstoned). Every valid
    /// physical row index is strictly below this.
    pub fn physical_rows(&self) -> usize {
        self.table.physical_rows()
    }

    /// True if physical row `row` has not been tombstoned.
    pub fn is_live(&self, row: usize) -> bool {
        self.table.is_live(row)
    }

    /// How many compaction rewrites this table has performed. Tests use
    /// this to prove delete cost is amortized, not per-batch O(table).
    pub fn compaction_count(&self) -> u64 {
        self.table.compactions
    }

    /// Column `col` as dictionary ids, one per physical row.
    pub fn ids(&self, col: usize) -> &'a [Vid] {
        &self.table.columns[col]
    }

    /// The cell at (`row`, `col`), resolved through the dictionary.
    pub fn cell(&self, row: usize, col: usize) -> &'a Value {
        resolve(self.dict, self.table.columns[col][row])
    }

    /// Materialize physical row `row`.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.table.columns.len())
            .map(|c| self.cell(row, c).clone())
            .collect()
    }

    /// Iterate **live** rows as freshly materialized `Vec<Value>`s, in
    /// physical order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + 'a {
        let view = *self;
        (0..view.physical_rows())
            .filter(move |&r| view.is_live(r))
            .map(move |r| view.row(r))
    }

    /// Exact number of distinct values in column `col` among live rows
    /// (NULLs count as one value, matching our join semantics, not SQL's).
    /// Within one dictionary distinct ids are distinct values.
    pub fn distinct_count(&self, col: usize) -> usize {
        let mut seen = vec![false; self.dict.len()];
        let mut n = 0;
        for (r, &id) in self.ids(col).iter().enumerate() {
            if self.is_live(r) && !std::mem::replace(&mut seen[id as usize], true) {
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use crate::schema::Column;

    fn people() -> Table {
        let mut t = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        t.push_row(vec![Value::int(1), Value::str("a")]).unwrap();
        t.push_row(vec![Value::int(2), Value::str("b")]).unwrap();
        t.push_row(vec![Value::int(3), Value::str("a")]).unwrap();
        t
    }

    fn stored(t: Table) -> (StoredTable, Interner) {
        let mut dict = Interner::new();
        let stored = StoredTable::ingest(t, &mut dict);
        (stored, dict)
    }

    #[test]
    fn push_and_read_back() {
        let t = people();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.cell(1, 1), &Value::str("b"));
        assert_eq!(t.row(0), vec![Value::int(1), Value::str("a")]);
        assert_eq!(t.iter_rows().count(), 3);
        // The registered form reads back the same rows through the view.
        let (s, dict) = stored(people());
        let view = TableRef::new(&s, &dict);
        assert_eq!(view.cell(1, 1), &Value::str("b"));
        assert_eq!(
            view.iter_rows().collect::<Vec<_>>(),
            t.iter_rows().collect::<Vec<_>>()
        );
        assert_eq!(view.ids(1)[0], view.ids(1)[2], "equal values share an id");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = people();
        let err = t.push_row(vec![Value::int(9)]).unwrap_err();
        assert!(matches!(err, DbError::SchemaMismatch(_)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = people();
        let err = t
            .push_row(vec![Value::str("oops"), Value::str("x")])
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaMismatch(_)));
        // NULL is allowed anywhere.
        t.push_row(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(t.num_rows(), 4);
    }

    #[test]
    fn distinct_counts() {
        let (s, dict) = stored(people());
        let view = TableRef::new(&s, &dict);
        assert_eq!(view.distinct_count(0), 3);
        assert_eq!(view.distinct_count(1), 2);
    }

    #[test]
    fn tombstones_keep_physical_indices_stable() {
        let (mut s, dict) = stored(people());
        s.delete_physical_rows(&[1]);
        let view = TableRef::new(&s, &dict);
        assert_eq!(view.num_rows(), 2);
        assert_eq!(view.physical_rows(), 3);
        assert!(view.is_live(0) && !view.is_live(1) && view.is_live(2));
        // Physical addressing still reaches the survivor at slot 2.
        assert_eq!(view.row(2), vec![Value::int(3), Value::str("a")]);
        // Repeat deletes of the same slot are no-ops.
        s.delete_physical_rows(&[1]);
        let view = TableRef::new(&s, &dict);
        assert_eq!(view.num_rows(), 2);
        assert_eq!(view.distinct_count(0), 2);
    }

    #[test]
    fn small_delete_batches_never_rewrite_columns() {
        let mut t = Table::new(Schema::new(vec![Column::int("id")]));
        for i in 0..200 {
            t.push_row(vec![Value::int(i)]).unwrap();
        }
        let (mut s, dict) = stored(t);
        // Delete under the dead-majority threshold: no compaction, the
        // physical layout is untouched (that's the O(batch) guarantee).
        s.delete_physical_rows(&(0..63).collect::<Vec<u32>>());
        assert_eq!(TableRef::new(&s, &dict).compaction_count(), 0);
        assert_eq!(s.physical_rows(), 200);
        // Push the dead past the living: exactly one rewrite happens.
        s.delete_physical_rows(&(63..150).collect::<Vec<u32>>());
        let view = TableRef::new(&s, &dict);
        assert_eq!(view.compaction_count(), 1);
        assert_eq!(view.physical_rows(), 50);
        assert_eq!(view.num_rows(), 50);
        assert_eq!(view.ids(0).len(), 50);
        let rows: Vec<_> = view.iter_rows().collect();
        assert_eq!(rows[0], vec![Value::int(150)]);
        assert_eq!(rows[49], vec![Value::int(199)]);
    }

    #[test]
    fn codec_drops_tombstones() {
        let (mut s, dict) = stored(people());
        s.delete_physical_rows(&[0]);
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        let back = StoredTable::decode(&mut Reader::new(&bytes), &dict).unwrap();
        assert_eq!(back.num_rows(), 2);
        assert_eq!(back.physical_rows(), 2);
        let (view, back) = (TableRef::new(&s, &dict), TableRef::new(&back, &dict));
        assert_eq!(
            back.iter_rows().collect::<Vec<_>>(),
            view.iter_rows().collect::<Vec<_>>()
        );
        // An id the dictionary does not hold is rejected, not invented,
        // and so is one naming a value of another type.
        let mut other = Interner::new();
        assert!(StoredTable::decode(&mut Reader::new(&bytes), &other).is_err());
        for v in 0..dict.len() {
            other.intern(&Value::str(format!("s{v}")));
        }
        assert!(StoredTable::decode(&mut Reader::new(&bytes), &other).is_err());
    }

    #[test]
    fn bytesize_nonzero() {
        assert!(people().heap_bytes() > 0);
        let (s, _) = stored(people());
        // Two 4-byte id columns and a tombstone byte per row, no payload.
        assert_eq!(s.heap_bytes(), 3 * (2 * 4 + 1));
    }
}
