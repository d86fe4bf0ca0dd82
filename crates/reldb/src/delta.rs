//! Typed mutation logs for incremental graph maintenance.
//!
//! The paper's GraphGen re-runs its segment queries from scratch whenever
//! the base tables change. The mutation API on [`crate::Database`]
//! ([`Database::insert_rows`], [`Database::delete_rows`]) instead records
//! every change as a [`Delta`] — an ordered log of signed rows against one
//! table — which `graphgen-core`'s incremental module propagates through
//! the extraction plan with work proportional to the delta (FO+MOD-style
//! delta processing, Berkholz et al.).
//!
//! A [`Delta`] only ever describes mutations that **actually happened**:
//! `delete_rows` silently drops requested rows that were not present, so a
//! delete of a never-inserted row yields an empty delta and downstream
//! `apply_delta` is a no-op.
//!
//! Each row carries its values and the ids the database dictionary gave
//! them ([`DeltaRow::ids`]): the maintenance state keys by those ids, so a
//! delta applies only to graphs extracted from the database that produced
//! it. The binary encoding (the write-ahead log's record) carries the
//! values only; a decoded row has no ids until the database replays it.
//!
//! [`Database::insert_rows`]: crate::Database::insert_rows
//! [`Database::delete_rows`]: crate::Database::delete_rows

use crate::error::{DbError, DbResult};
use crate::intern::Vid;
use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};

/// Whether a [`DeltaRow`] entered or left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// The row was appended to the table.
    Insert,
    /// One occurrence of the row was removed from the table.
    Delete,
}

impl DeltaOp {
    /// The row-multiplicity sign of this operation: `+1` for inserts,
    /// `-1` for deletes (the form the delta-join rules consume).
    pub fn sign(self) -> i64 {
        match self {
            DeltaOp::Insert => 1,
            DeltaOp::Delete => -1,
        }
    }
}

/// One logged mutation: a full row plus the operation applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// The row values, in schema column order.
    pub values: Vec<Value>,
    /// The database dictionary's id of each value, in the same order;
    /// empty for a row decoded from its binary encoding, which carries
    /// values only.
    pub ids: Vec<Vid>,
    /// Insert or delete.
    pub op: DeltaOp,
}

/// An ordered mutation log against a single table.
///
/// Produced by [`crate::Database::insert_rows`] and
/// [`crate::Database::delete_rows`]; several same-table deltas can be
/// combined with [`Delta::then`] so that e.g. an insert and a delete of the
/// same row travel as one batch (they cancel during propagation).
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    table: String,
    rows: Vec<DeltaRow>,
}

impl Delta {
    /// A new, empty delta against `table`.
    pub fn new(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            rows: Vec::new(),
        }
    }

    /// The table this delta mutates.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The logged rows, in the order the mutations were applied.
    pub fn rows(&self) -> &[DeltaRow] {
        &self.rows
    }

    /// Number of logged mutations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing was mutated (e.g. every requested delete was absent).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a logged mutation: the row's values and their ids in the
    /// database dictionary. The `Database` mutation API is the normal
    /// producer; hand-built deltas are also accepted by the incremental
    /// maintenance layer, but they must accurately describe mutations that
    /// were applied to the database — a delta claiming to delete a row that
    /// was never present makes `apply_delta` report an inconsistency.
    pub fn push(&mut self, values: Vec<Value>, ids: Vec<Vid>, op: DeltaOp) {
        self.rows.push(DeltaRow { values, ids, op });
    }

    /// Concatenate another delta **against the same table** onto this one,
    /// preserving mutation order. Errors with [`DbError::Invalid`] on a
    /// table mismatch.
    pub fn then(mut self, other: Delta) -> DbResult<Delta> {
        if self.table != other.table {
            return Err(DbError::Invalid(format!(
                "cannot combine deltas for `{}` and `{}`",
                self.table, other.table
            )));
        }
        self.rows.extend(other.rows);
        Ok(self)
    }

    /// Append the binary encoding of this delta: table name, row count,
    /// then per row an op tag (`0` insert, `1` delete) and the
    /// length-prefixed values (not the ids). This is the write-ahead-log
    /// record payload format of the serving layer.
    pub fn encode_into(&self, out: &mut impl codec::Sink) {
        codec::put_str(out, &self.table);
        codec::put_len(out, self.rows.len());
        for row in &self.rows {
            codec::put_u8(out, matches!(row.op, DeltaOp::Delete) as u8);
            codec::put_len(out, row.values.len());
            for v in &row.values {
                v.encode_into(out);
            }
        }
    }

    /// Decode one delta (inverse of [`Delta::encode_into`]): its rows carry
    /// values and no ids.
    pub fn decode(r: &mut Reader<'_>) -> Result<Delta, CodecError> {
        let table = r.str()?.to_string();
        let n = r.len()?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.pos();
            let op = match r.u8()? {
                0 => DeltaOp::Insert,
                1 => DeltaOp::Delete,
                tag => return Err(CodecError::invalid(at, format!("bad delta op tag {tag}"))),
            };
            let arity = r.len()?;
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                values.push(Value::decode(r)?);
            }
            rows.push(DeltaRow {
                values,
                ids: Vec::new(),
                op,
            });
        }
        Ok(Delta { table, rows })
    }
}

/// An ordered batch of mutations spanning **several tables**, travelling as
/// one unit: one `apply_batch` round-trip on the graph side (see
/// `graphgen-core`) and one write-ahead-log record on the persistence
/// side, amortizing per-delta patch and fsync overhead (the ROADMAP
/// follow-on to single-table [`Delta`]s).
///
/// Deltas are kept in application order; pushing a delta for the table the
/// batch currently ends with folds it into that trailing delta, so a
/// ping-ponging producer still yields a compact batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    deltas: Vec<Delta>,
}

impl DeltaBatch {
    /// A new, empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a delta, preserving order. Consecutive deltas against the
    /// same table are merged (order within the table is preserved); empty
    /// deltas are dropped.
    pub fn push(&mut self, delta: Delta) {
        if delta.is_empty() {
            return;
        }
        if let Some(last) = self.deltas.last_mut() {
            if last.table == delta.table {
                last.rows.extend(delta.rows);
                return;
            }
        }
        self.deltas.push(delta);
    }

    /// The deltas in application order.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// Total logged mutations across every delta.
    pub fn len(&self) -> usize {
        self.deltas.iter().map(Delta::len).sum()
    }

    /// True if no delta carries any mutation.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Append the binary encoding: delta count, then each delta.
    pub fn encode_into(&self, out: &mut impl codec::Sink) {
        codec::put_len(out, self.deltas.len());
        for d in &self.deltas {
            d.encode_into(out);
        }
    }

    /// Encode into a fresh buffer (the WAL record payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode one batch (inverse of [`DeltaBatch::encode_into`]).
    pub fn decode(r: &mut Reader<'_>) -> Result<DeltaBatch, CodecError> {
        let n = r.len()?;
        let mut deltas = Vec::with_capacity(n);
        for _ in 0..n {
            deltas.push(Delta::decode(r)?);
        }
        Ok(DeltaBatch { deltas })
    }
}

impl From<Delta> for DeltaBatch {
    fn from(delta: Delta) -> Self {
        let mut b = DeltaBatch::new();
        b.push(delta);
        b
    }
}

impl FromIterator<Delta> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = Delta>>(iter: I) -> Self {
        let mut b = DeltaBatch::new();
        for d in iter {
            b.push(d);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-column delta against `table` holding `v` (under id `v`).
    fn one(table: &str, v: i64, op: DeltaOp) -> Delta {
        let mut d = Delta::new(table);
        d.push(vec![Value::int(v)], vec![v as Vid], op);
        d
    }

    #[test]
    fn signs() {
        assert_eq!(DeltaOp::Insert.sign(), 1);
        assert_eq!(DeltaOp::Delete.sign(), -1);
    }

    #[test]
    fn then_concatenates_same_table() {
        let a = one("T", 1, DeltaOp::Insert);
        let b = one("T", 1, DeltaOp::Delete);
        let c = a.then(b).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.rows()[0].op, DeltaOp::Insert);
        assert_eq!(c.rows()[1].op, DeltaOp::Delete);
    }

    #[test]
    fn then_rejects_table_mismatch() {
        let a = Delta::new("T");
        let b = Delta::new("U");
        assert!(matches!(a.then(b), Err(DbError::Invalid(_))));
    }

    #[test]
    fn empty_delta_reports_empty() {
        let d = Delta::new("T");
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.table(), "T");
    }

    #[test]
    fn delta_codec_roundtrip() {
        let mut d = Delta::new("T");
        d.push(
            vec![Value::int(1), Value::str("a"), Value::Null],
            vec![1, 2, 0],
            DeltaOp::Insert,
        );
        d.push(
            vec![Value::int(-9), Value::str(""), Value::int(0)],
            vec![3, 4, 5],
            DeltaOp::Delete,
        );
        let mut buf = Vec::new();
        d.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let back = Delta::decode(&mut r).unwrap();
        assert!(r.is_empty());
        // The encoding carries the values, not the ids.
        assert_eq!(back.table(), d.table());
        assert_eq!(back.len(), d.len());
        for (back, row) in back.rows().iter().zip(d.rows()) {
            assert_eq!((&back.values, back.op), (&row.values, row.op));
            assert!(back.ids.is_empty());
        }
    }

    #[test]
    fn delta_decode_rejects_bad_tag() {
        let mut buf = Vec::new();
        codec::put_str(&mut buf, "T");
        codec::put_len(&mut buf, 1);
        codec::put_u8(&mut buf, 9); // bad op tag
        let mut r = Reader::new(&buf);
        assert!(Delta::decode(&mut r).is_err());
    }

    #[test]
    fn batch_merges_trailing_same_table() {
        let a = one("T", 1, DeltaOp::Insert);
        let b = one("T", 2, DeltaOp::Delete);
        let c = one("U", 3, DeltaOp::Insert);
        let batch: DeltaBatch = [a, b, c, Delta::new("T")].into_iter().collect();
        // T+T merged, empty T dropped.
        assert_eq!(batch.deltas().len(), 2);
        assert_eq!(batch.deltas()[0].len(), 2);
        assert_eq!(batch.len(), 3);
        let bytes = batch.encode();
        let mut r = Reader::new(&bytes);
        let back = DeltaBatch::decode(&mut r).unwrap();
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn batch_from_single_delta() {
        let d = one("T", 5, DeltaOp::Insert);
        let batch = DeltaBatch::from(d.clone());
        assert_eq!(batch.deltas(), &[d]);
        assert!(DeltaBatch::from(Delta::new("T")).is_empty());
    }
}
