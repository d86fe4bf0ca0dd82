//! Row predicates (the WHERE clauses of generated queries).
//!
//! Extraction queries only need constant-equality selections (a Datalog atom
//! with a constant in some position) and conjunctions thereof, plus simple
//! comparisons so examples can express things like "papers since 2010"
//! (temporal graph extraction from the paper's introduction).

use crate::table::TableRef;
use crate::value::Value;
use graphgen_common::codec::{self, CodecError, Reader};

/// A predicate over a row (indexed by column position).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `row[col] == value`.
    Eq(usize, Value),
    /// `row[col] != value`.
    Ne(usize, Value),
    /// `row[col] < value` (on the `Value` ordering; meaningful for ints).
    Lt(usize, Value),
    /// `row[col] <= value`.
    Le(usize, Value),
    /// `row[col] > value`.
    Gt(usize, Value),
    /// `row[col] >= value`.
    Ge(usize, Value),
    /// Conjunction.
    And(Vec<Predicate>),
}

impl Predicate {
    /// Evaluate against one row. Comparisons against NULL are false
    /// (except `Ne`, which is true when the stored value is non-NULL).
    pub fn eval(&self, row: &[Value]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(col, v) => &row[*col] == v,
            Predicate::Ne(col, v) => &row[*col] != v,
            Predicate::Lt(col, v) => !row[*col].is_null() && row[*col] < *v,
            Predicate::Le(col, v) => !row[*col].is_null() && row[*col] <= *v,
            Predicate::Gt(col, v) => !row[*col].is_null() && row[*col] > *v,
            Predicate::Ge(col, v) => !row[*col].is_null() && row[*col] >= *v,
            Predicate::And(ps) => ps.iter().all(|p| p.eval(row)),
        }
    }

    /// Evaluate against physical row `row` of a registered table, reading
    /// each cell through the view (an index into the dictionary, no hash)
    /// instead of materializing the row. Semantics are identical to
    /// [`Predicate::eval`].
    pub fn eval_at(&self, table: TableRef<'_>, row: usize) -> bool {
        let cell = |col: &usize| table.cell(row, *col);
        match self {
            Predicate::True => true,
            Predicate::Eq(col, v) => cell(col) == v,
            Predicate::Ne(col, v) => cell(col) != v,
            Predicate::Lt(col, v) => !cell(col).is_null() && cell(col) < v,
            Predicate::Le(col, v) => !cell(col).is_null() && cell(col) <= v,
            Predicate::Gt(col, v) => !cell(col).is_null() && cell(col) > v,
            Predicate::Ge(col, v) => !cell(col).is_null() && cell(col) >= v,
            Predicate::And(ps) => ps.iter().all(|p| p.eval_at(table, row)),
        }
    }

    /// Conjoin two predicates, flattening nested `And`s and dropping `True`s.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// True if this predicate is the trivial `True`.
    pub fn is_trivial(&self) -> bool {
        matches!(self, Predicate::True)
    }

    /// Append the binary encoding of this predicate (a tag byte, then
    /// column and value for comparisons, count and children for `And`).
    /// Part of the graph snapshot format: the incremental maintenance
    /// state persists its pre-compiled atom predicates.
    pub fn encode_into<S: codec::Sink>(&self, out: &mut S) {
        let cmp = |out: &mut S, tag: u8, col: &usize, v: &Value| {
            codec::put_u8(out, tag);
            codec::put_len(out, *col);
            v.encode_into(out);
        };
        match self {
            Predicate::True => codec::put_u8(out, 0),
            Predicate::Eq(c, v) => cmp(out, 1, c, v),
            Predicate::Ne(c, v) => cmp(out, 2, c, v),
            Predicate::Lt(c, v) => cmp(out, 3, c, v),
            Predicate::Le(c, v) => cmp(out, 4, c, v),
            Predicate::Gt(c, v) => cmp(out, 5, c, v),
            Predicate::Ge(c, v) => cmp(out, 6, c, v),
            Predicate::And(ps) => {
                codec::put_u8(out, 7);
                codec::put_len(out, ps.len());
                for p in ps {
                    p.encode_into(out);
                }
            }
        }
    }

    /// Decode one predicate (inverse of [`Predicate::encode_into`]).
    /// `And` nesting is capped (the compiler only ever produces flat
    /// conjunctions) so corrupt input reports an error instead of
    /// overflowing the decode stack.
    pub fn decode(r: &mut Reader<'_>) -> Result<Predicate, CodecError> {
        Self::decode_at_depth(r, 0)
    }

    fn decode_at_depth(r: &mut Reader<'_>, depth: u32) -> Result<Predicate, CodecError> {
        const MAX_DEPTH: u32 = 64;
        let at = r.pos();
        if depth > MAX_DEPTH {
            return Err(CodecError::invalid(at, "predicate nested too deeply"));
        }
        let tag = r.u8()?;
        if tag == 0 {
            return Ok(Predicate::True);
        }
        if tag == 7 {
            let n = r.len()?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(Predicate::decode_at_depth(r, depth + 1)?);
            }
            return Ok(Predicate::And(ps));
        }
        let col = r.scalar()?;
        let v = Value::decode(r)?;
        Ok(match tag {
            1 => Predicate::Eq(col, v),
            2 => Predicate::Ne(col, v),
            3 => Predicate::Lt(col, v),
            4 => Predicate::Le(col, v),
            5 => Predicate::Gt(col, v),
            6 => Predicate::Ge(col, v),
            _ => return Err(CodecError::invalid(at, format!("bad predicate tag {tag}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![Value::int(5), Value::str("x"), Value::Null]
    }

    #[test]
    fn eq_and_ne() {
        assert!(Predicate::Eq(0, Value::int(5)).eval(&row()));
        assert!(!Predicate::Eq(0, Value::int(6)).eval(&row()));
        assert!(Predicate::Ne(1, Value::str("y")).eval(&row()));
        assert!(Predicate::Eq(2, Value::Null).eval(&row()));
    }

    #[test]
    fn comparisons() {
        assert!(Predicate::Lt(0, Value::int(6)).eval(&row()));
        assert!(Predicate::Le(0, Value::int(5)).eval(&row()));
        assert!(Predicate::Gt(0, Value::int(4)).eval(&row()));
        assert!(Predicate::Ge(0, Value::int(5)).eval(&row()));
        assert!(!Predicate::Gt(0, Value::int(5)).eval(&row()));
        // NULL never satisfies ordered comparisons.
        assert!(!Predicate::Lt(2, Value::int(100)).eval(&row()));
    }

    #[test]
    fn eval_at_matches_eval() {
        use crate::catalog::Database;
        use crate::schema::{Column, Schema};
        use crate::table::Table;
        let mut t = Table::new(Schema::new(vec![Column::int("a"), Column::str("s")]));
        t.push_row(vec![Value::int(5), Value::str("x")]).unwrap();
        t.push_row(vec![Value::Null, Value::Null]).unwrap();
        let mut db = Database::new();
        db.register("T", t).unwrap();
        let t = db.table("T").unwrap();
        let preds = [
            Predicate::True,
            Predicate::Eq(0, Value::int(5)),
            Predicate::Ne(1, Value::str("y")),
            Predicate::Lt(0, Value::int(6)),
            Predicate::Le(0, Value::int(5)),
            Predicate::Gt(0, Value::int(4)),
            Predicate::Ge(0, Value::int(6)),
            Predicate::Eq(1, Value::Null),
            Predicate::Eq(0, Value::int(5)).and(Predicate::Ne(1, Value::str("y"))),
        ];
        for p in &preds {
            for r in 0..t.num_rows() {
                assert_eq!(p.eval_at(t, r), p.eval(&t.row(r)), "{p:?} row {r}");
            }
        }
    }

    #[test]
    fn codec_roundtrip() {
        use graphgen_common::Reader;
        let preds = [
            Predicate::True,
            Predicate::Eq(0, Value::int(5)),
            Predicate::Ne(1, Value::str("y")),
            Predicate::Eq(2, Value::Null),
            Predicate::Lt(0, Value::int(6))
                .and(Predicate::Ge(0, Value::int(1)))
                .and(Predicate::Le(1, Value::str("z")))
                .and(Predicate::Gt(0, Value::int(0))),
        ];
        for p in preds {
            let mut buf = Vec::new();
            p.encode_into(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(Predicate::decode(&mut r).unwrap(), p);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn decode_rejects_pathological_nesting() {
        use graphgen_common::Reader;
        // 9 bytes per level (tag 7 + count 1): deep enough to have blown
        // the decode stack before the depth cap existed.
        let mut buf = Vec::new();
        for _ in 0..50_000 {
            codec::put_u8(&mut buf, 7);
            codec::put_len(&mut buf, 1);
        }
        codec::put_u8(&mut buf, 0);
        let mut r = Reader::new(&buf);
        assert!(Predicate::decode(&mut r).is_err());
    }

    #[test]
    fn and_flattening() {
        let p = Predicate::Eq(0, Value::int(5))
            .and(Predicate::True)
            .and(Predicate::Ne(1, Value::str("y")));
        assert!(p.eval(&row()));
        match &p {
            Predicate::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        assert!(Predicate::True.and(Predicate::True).is_trivial());
    }
}
