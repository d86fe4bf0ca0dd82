//! Column-oriented table storage.
//!
//! A [`Table`] stores each column as a `Vec<Value>`. Appends validate arity
//! and type. Row access materializes a `Vec<Value>` only when asked; the
//! scan in [`crate::exec`] reads cells in place.
//!
//! Deletes are **tombstoned**: [`Table::delete_physical_rows`] flips a
//! per-row dead bit in O(batch) instead of retaining every column in
//! O(table). Physical row indices stay stable across deletes; a periodic
//! compaction (triggered only when dead rows outnumber live ones) rewrites
//! the columns, so the amortized cost per deleted row is O(1) and every
//! mutation path is bounded by the delta, not the table.

use crate::error::DbResult;
use crate::schema::Schema;
use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_common::ByteSize;

/// Dead rows required before compaction is even considered: below this the
/// bookkeeping vector is cheaper than any rewrite.
const COMPACT_MIN_DEAD: usize = 64;

/// An in-memory table: a schema plus one value vector per column.
///
/// `rows` counts **live** rows; the columns may be longer when tombstoned
/// rows are awaiting compaction. All row indices taken and returned by this
/// type are *physical* (stable across deletes, invalidated only by
/// compaction).
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    rows: usize,
    /// Tombstones, one per physical row. `true` = deleted, awaiting
    /// compaction.
    dead: Vec<bool>,
    dead_count: usize,
    compactions: u64,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.arity()).map(|_| Vec::new()).collect();
        Self {
            schema,
            columns,
            rows: 0,
            dead: Vec::new(),
            dead_count: 0,
            compactions: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of **live** rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of physical row slots (live + tombstoned). Every valid
    /// physical row index is strictly below this.
    pub fn physical_rows(&self) -> usize {
        self.dead.len()
    }

    /// True if physical row `row` has not been tombstoned.
    pub fn is_live(&self, row: usize) -> bool {
        !self.dead[row]
    }

    /// How many compaction rewrites this table has performed. Tests use
    /// this to prove delete cost is amortized, not per-batch O(table).
    pub fn compaction_count(&self) -> u64 {
        self.compactions
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
        self.dead.push(false);
        self.rows += 1;
        Ok(())
    }

    /// Append many rows.
    pub fn extend_rows<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) -> DbResult<()> {
        for row in rows {
            self.push_row(row)?;
        }
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

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&[Value]> {
        self.schema.index_of(name).map(|i| self.column(i))
    }

    /// The cell at (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Materialize row `row`.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[row].clone()).collect()
    }

    /// Iterate **live** rows as freshly materialized `Vec<Value>`s, in
    /// physical order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.dead.len())
            .filter(|&r| !self.dead[r])
            .map(|r| self.row(r))
    }

    /// Tombstone the physical rows in `rows` — O(batch), no column rewrite.
    /// Already-dead entries are ignored. May trigger a compaction pass when
    /// dead rows outnumber live ones (amortized O(1) per deleted row).
    pub fn delete_physical_rows(&mut self, rows: &[u32]) {
        for &r in rows {
            let r = r as usize;
            if !self.dead[r] {
                self.dead[r] = true;
                self.dead_count += 1;
                self.rows -= 1;
            }
        }
        self.maybe_compact();
    }

    /// Rewrite the columns dropping tombstoned rows iff the dead outnumber
    /// the living (and there are enough of them to matter). One `retain`
    /// pass per column — the cost is charged against the ≥ 50% of physical
    /// rows that were deleted since the last rewrite, so deletes stay
    /// amortized O(1) each.
    fn maybe_compact(&mut self) {
        if self.dead_count < COMPACT_MIN_DEAD || self.dead_count <= self.rows {
            return;
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
    }

    /// Append the binary encoding of this table: schema, live row count,
    /// then the columns in declaration order (column-major, each cell a
    /// tagged [`Value`]); tombstoned rows are not written, so a decoded
    /// table is always compact. Part of the service database snapshot.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.schema.encode_into(out);
        codec::put_len(out, self.rows);
        for col in &self.columns {
            for (r, v) in col.iter().enumerate() {
                if !self.dead[r] {
                    v.encode_into(out);
                }
            }
        }
    }

    /// Decode one table (inverse of [`Table::encode_into`]). Cell types are
    /// re-validated against the decoded schema.
    pub fn decode(r: &mut Reader<'_>) -> Result<Table, CodecError> {
        let schema = Schema::decode(r)?;
        let rows = r.len()?;
        let mut columns = Vec::with_capacity(schema.arity());
        for idx in 0..schema.arity() {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..rows {
                let at = r.pos();
                let v = Value::decode(r)?;
                if let Some(dt) = v.data_type() {
                    if dt != schema.column(idx).dtype {
                        return Err(CodecError::invalid(
                            at,
                            format!(
                                "column `{}` expects {}",
                                schema.column(idx).name,
                                schema.column(idx).dtype
                            ),
                        ));
                    }
                }
                col.push(v);
            }
            columns.push(col);
        }
        Ok(Table {
            schema,
            columns,
            rows,
            dead: vec![false; rows],
            dead_count: 0,
            compactions: 0,
        })
    }

    /// Exact number of distinct values in column `idx` among live rows
    /// (NULLs count as one value, matching our join semantics, not SQL's).
    pub fn distinct_count(&self, idx: usize) -> usize {
        let mut seen: graphgen_common::FxHashSet<&Value> = Default::default();
        seen.reserve(self.rows.min(1 << 20));
        for (r, v) in self.columns[idx].iter().enumerate() {
            if !self.dead[r] {
                seen.insert(v);
            }
        }
        seen.len()
    }
}

impl ByteSize for Table {
    fn heap_bytes(&self) -> usize {
        self.dead.capacity()
            + self
                .columns
                .iter()
                .map(|col| {
                    col.capacity() * std::mem::size_of::<Value>()
                        + col.iter().map(ByteSize::heap_bytes).sum::<usize>()
                })
                .sum::<usize>()
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

    #[test]
    fn push_and_read_back() {
        let t = people();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.cell(1, 1), &Value::str("b"));
        assert_eq!(t.row(0), vec![Value::int(1), Value::str("a")]);
        assert_eq!(t.iter_rows().count(), 3);
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
        let t = people();
        assert_eq!(t.distinct_count(0), 3);
        assert_eq!(t.distinct_count(1), 2);
    }

    #[test]
    fn column_by_name() {
        let t = people();
        assert!(t.column_by_name("name").is_some());
        assert!(t.column_by_name("nope").is_none());
    }

    #[test]
    fn tombstones_keep_physical_indices_stable() {
        let mut t = people();
        t.delete_physical_rows(&[1]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.physical_rows(), 3);
        assert!(t.is_live(0) && !t.is_live(1) && t.is_live(2));
        // Physical addressing still reaches the survivor at slot 2.
        assert_eq!(t.row(2), vec![Value::int(3), Value::str("a")]);
        // Repeat deletes of the same slot are no-ops.
        t.delete_physical_rows(&[1]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.distinct_count(0), 2);
    }

    #[test]
    fn small_delete_batches_never_rewrite_columns() {
        let mut t = Table::new(Schema::new(vec![Column::int("id")]));
        for i in 0..200 {
            t.push_row(vec![Value::int(i)]).unwrap();
        }
        // Delete under the dead-majority threshold: no compaction, the
        // physical layout is untouched (that's the O(batch) guarantee).
        t.delete_physical_rows(&(0..63).collect::<Vec<u32>>());
        assert_eq!(t.compaction_count(), 0);
        assert_eq!(t.physical_rows(), 200);
        // Push the dead past the living: exactly one rewrite happens.
        t.delete_physical_rows(&(63..150).collect::<Vec<u32>>());
        assert_eq!(t.compaction_count(), 1);
        assert_eq!(t.physical_rows(), 50);
        assert_eq!(t.num_rows(), 50);
        let rows: Vec<_> = t.iter_rows().collect();
        assert_eq!(rows[0], vec![Value::int(150)]);
        assert_eq!(rows[49], vec![Value::int(199)]);
    }

    #[test]
    fn codec_drops_tombstones() {
        let mut t = people();
        t.delete_physical_rows(&[0]);
        let mut bytes = Vec::new();
        t.encode_into(&mut bytes);
        let back = Table::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.num_rows(), 2);
        assert_eq!(back.physical_rows(), 2);
        assert_eq!(
            back.iter_rows().collect::<Vec<_>>(),
            t.iter_rows().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bytesize_nonzero() {
        let t = people();
        assert!(t.heap_bytes() > 0);
    }
}
