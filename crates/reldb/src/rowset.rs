//! Compact, arena-backed row storage for scan output.
//!
//! A [`RowSet`] is what [`crate::exec::scan_project`] produces — node-view
//! rows of any arity, and the `(in, out)` pairs the join operators pack
//! into bags. It stores fixed-arity rows of dictionary ids in
//! one flat `Vec<Vid>` arena and addresses them by index (`row r` is
//! `&vids[r * arity .. (r + 1) * arity]`): one allocation per *batch*, four
//! bytes per cell, and per-thread partial results merge with a single
//! `Vec::append`. The ids belong to the dictionary of the [`Database`] the
//! rows were scanned from ([`crate::exec::scan_project`] is the only
//! producer from table data), so within one row set — and across row sets
//! of the same database — id equality is value equality and
//! [`NULL_VID`](crate::intern::NULL_VID) is NULL.
//!
//! [`Database`]: crate::catalog::Database

use crate::intern::Vid;

/// A batch of fixed-arity rows of dictionary ids in one flat arena.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSet {
    arity: usize,
    rows: usize,
    vids: Vec<Vid>,
}

impl RowSet {
    /// An empty row set of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            rows: 0,
            vids: Vec::new(),
        }
    }

    /// Number of ids per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `r` as an id slice.
    pub fn row(&self, r: usize) -> &[Vid] {
        &self.vids[r * self.arity..r * self.arity + self.arity]
    }

    /// Iterate rows as id slices, in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[Vid]> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Append one row given as an iterator of ids.
    ///
    /// # Panics
    /// If the iterator does not yield exactly `arity` ids — a misaligned
    /// arena would silently corrupt every later row, so this is a hard
    /// check (one integer compare per row).
    pub fn push_row<I: IntoIterator<Item = Vid>>(&mut self, row: I) {
        let before = self.vids.len();
        self.vids.extend(row);
        assert_eq!(self.vids.len() - before, self.arity, "row arity");
        self.rows += 1;
    }

    /// Append every row of `other` (used to merge per-thread partial
    /// outputs in morsel order). Panics on arity mismatch.
    pub fn append(&mut self, mut other: RowSet) {
        assert_eq!(self.arity, other.arity, "row set arity mismatch");
        self.vids.append(&mut other.vids);
        self.rows += other.rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(rows: &[(Vid, Vid)]) -> RowSet {
        let mut rs = RowSet::new(2);
        for &(a, b) in rows {
            rs.push_row([a, b]);
        }
        rs
    }

    #[test]
    fn push_and_read_back() {
        let rs = pairs(&[(1, 7), (2, 8)]);
        assert_eq!(rs.num_rows(), 2);
        assert_eq!(rs.arity(), 2);
        assert_eq!(rs.row(1), &[2, 8]);
        assert_eq!(rs.iter().count(), 2);
        assert!(!rs.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn misaligned_row_is_rejected() {
        RowSet::new(2).push_row([1]);
    }

    #[test]
    fn append_merges_in_order() {
        let mut a = pairs(&[(1, 1), (2, 2)]);
        a.append(pairs(&[(3, 3)]));
        assert_eq!(a, pairs(&[(1, 1), (2, 2), (3, 3)]));
    }

    #[test]
    fn zero_arity_rows_are_representable() {
        let mut rs = RowSet::new(0);
        rs.push_row([]);
        rs.push_row([]);
        assert_eq!(rs.num_rows(), 2);
        assert_eq!(rs.row(1), &[] as &[Vid]);
    }
}
