//! Row predicates (the WHERE clauses of generated queries).
//!
//! Extraction queries only need constant-equality selections (a Datalog atom
//! with a constant in some position) and conjunctions thereof, plus simple
//! comparisons so examples can express things like "papers since 2010"
//! (temporal graph extraction from the paper's introduction).

use crate::table::TableRef;
use crate::value::Value;

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
    fn and_flattening() {
        let p = Predicate::Eq(0, Value::int(5))
            .and(Predicate::True)
            .and(Predicate::Ne(1, Value::str("y")));
        assert!(p.eval(&row()));
        match &p {
            Predicate::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        assert_eq!(Predicate::True.and(Predicate::True), Predicate::True);
    }
}
