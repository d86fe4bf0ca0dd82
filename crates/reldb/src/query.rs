//! Chain queries — the "SQL" that GraphGen generates.
//!
//! Every query the extraction layer issues has the shape (§4.2 Step 3):
//!
//! ```text
//! res(X, Y) :- R1(X, a1), R2(a1, a2), ..., Rn(a_{n-1}, Y)    [DISTINCT]
//! ```
//!
//! i.e. a left-deep chain of equi-joins over base tables, with per-atom
//! selection predicates, projecting the two endpoint attributes — always
//! with set semantics (`SELECT DISTINCT`). A [`Query`] captures this shape,
//! and [`Query::to_sql`] renders the equivalent SQL (the Fig. 16 output).
//!
//! One evaluator runs every segment query, on the counted sort/group
//! operators of [`crate::exec`]: each atom is scanned and grouped into a
//! bag of `(in, out)` pairs once (a self-join's second atom transposes the
//! first one's bag instead), and the bags are joined left to right, each
//! join writing its output grouped — the grouping *is* the `DISTINCT`.
//! [`Query::run_counted`] collects the last join's output,
//! [`Query::run_by_source`] hands it over one `X` at a time, and
//! [`Query::run_keeping`] also hands each atom's bag to a sink once no
//! later join reads it, where the others drop it.

use crate::catalog::Database;
use crate::error::{DbError, DbResult};
use crate::exec::{join_counted, join_runs, scan_grouped, Bag};
use crate::expr::Predicate;
use crate::intern::Vid;
use crate::table::TableRef;
use graphgen_common::metrics::{self, Phase};
use graphgen_common::region::{self, Region};

/// One atom in the chain: a base table with a selection predicate, an input
/// join column and an output join column (which may coincide, e.g. for an
/// atom used purely as a filter hop).
#[derive(Debug, Clone)]
pub struct ChainStep {
    /// Base table name.
    pub table: String,
    /// Selection predicate on the base table's columns.
    pub pred: Predicate,
    /// Column joined with the previous step's output (ignored for step 0,
    /// where it is the left endpoint / ID1 column).
    pub in_col: usize,
    /// Column carried to the next join (or the right endpoint / ID2 column
    /// for the final step).
    pub out_col: usize,
}

impl ChainStep {
    /// Whether `other`'s bag is this step's transposed: the same table
    /// under an equal predicate, with the join columns swapped.
    pub fn transposes(&self, other: &ChainStep) -> bool {
        self.table == other.table
            && self.pred == other.pred
            && self.in_col == other.out_col
            && self.out_col == other.in_col
    }
}

/// What the segment evaluator hands back ([`Query::run_keeping`]).
#[derive(Debug)]
pub enum Output<R> {
    /// The last join's result.
    Joined(R),
    /// A one-atom chain's bag: no join reads it, it is the output.
    Atom(Bag),
}

/// A chain query producing distinct `(X, Y)` pairs.
#[derive(Debug, Clone)]
pub struct Query {
    /// The chain; must be non-empty.
    pub steps: Vec<ChainStep>,
}

impl Query {
    /// Single-table query: `res(X, Y) :- R(X, .., Y)` with a predicate.
    pub fn single(table: impl Into<String>, pred: Predicate, x_col: usize, y_col: usize) -> Self {
        Self {
            steps: vec![ChainStep {
                table: table.into(),
                pred,
                in_col: x_col,
                out_col: y_col,
            }],
        }
    }

    /// Execute against `db` serially, returning `(X, Y)` pairs. Shorthand
    /// for [`Query::run_threaded`] with one thread.
    pub fn run(&self, db: &Database) -> DbResult<Vec<(Vid, Vid)>> {
        self.run_threaded(db, 1)
    }

    /// Execute against `db` with `threads` worker threads, returning the
    /// distinct `(X, Y)` pairs as ids of `db`'s dictionary
    /// ([`Database::dict`] resolves them), in ascending `(X, Y)` id order.
    /// This is the single `threads` knob of the extraction pipeline: every
    /// scan, grouping and join probe of the chain fans out over it, and the
    /// result is byte-identical for any value (see [`crate::exec`] for
    /// why). [`Query::run_counted`] hands back the same pairs with their
    /// counts.
    pub fn run_threaded(&self, db: &Database, threads: usize) -> DbResult<Vec<(Vid, Vid)>> {
        let bag = self.run_counted(db, threads)?;
        Ok(bag.iter().map(|(x, y, _)| (x, y)).collect())
    }

    /// [`Query::run_threaded`]'s result as the last operator wrote it: the
    /// bag of `(X, Y)` pairs, each counted by the join paths behind it. A
    /// count past `u32::MAX`, or a bag past [`crate::exec::MAX_BAG_LEN`]
    /// pairs, is [`DbError::TooLarge`].
    pub fn run_counted(&self, db: &Database, threads: usize) -> DbResult<Bag> {
        let last = |frontier: &Bag, atom: &Bag| join_counted(frontier, atom, threads);
        match self.evaluate(db, threads, drop, last)? {
            Output::Joined(bag) | Output::Atom(bag) => Ok(bag),
        }
    }

    /// [`Query::run_counted`]'s bag handed over one `X` at a time instead
    /// of collected: each `X` and its run of the bag go to `each`, the last
    /// join's consumer (see [`join_runs`]), with the state its morsel
    /// started from `init()`; the states come back in morsel order. The
    /// runs are exactly the bag's, for any `threads`. A one-atom chain has
    /// no join: its bag's runs are handed over in order, to one state,
    /// under the `emit` span.
    pub fn run_by_source<T, I, E>(
        &self,
        db: &Database,
        threads: usize,
        init: I,
        each: E,
    ) -> DbResult<Vec<T>>
    where
        T: Send,
        I: Fn() -> T + Sync,
        E: Fn(&mut T, Vid, &[u64]) + Sync,
    {
        match self.run_keeping(db, threads, &init, &each, drop)? {
            Output::Joined(states) => Ok(states),
            Output::Atom(bag) => {
                let _span = metrics::span(Phase::Emit, region::current());
                let mut state = init();
                for (x, run) in bag.runs() {
                    each(&mut state, x, run);
                }
                Ok(vec![state])
            }
        }
    }

    /// [`Query::run_by_source`] that also hands every atom's `(in, out)`
    /// bag to `atoms`, in atom order, as soon as no later join reads it —
    /// the bags a maintained extraction keeps. A one-atom chain has no
    /// join: its bag is the output, handed back whole.
    pub fn run_keeping<T, I, E>(
        &self,
        db: &Database,
        threads: usize,
        init: I,
        each: E,
        atoms: impl FnMut(Bag),
    ) -> DbResult<Output<Vec<T>>>
    where
        T: Send,
        I: Fn() -> T + Sync,
        E: Fn(&mut T, Vid, &[u64]) + Sync,
    {
        let last = |frontier: &Bag, atom: &Bag| join_runs(frontier, atom, threads, init, each);
        self.evaluate(db, threads, atoms, last)
    }

    /// The segment evaluator every route runs: the atoms' bags joined left
    /// to right, the last join by `last` (on the frontier of `(X, carry)`
    /// pairs and the last atom's bag). Each atom's bag goes to `atoms` once
    /// no later join reads it: the first two after the first join, each
    /// later one after its own; an intermediate frontier is dropped.
    ///
    /// Every atom's bag is built once. An atom that reads the same table
    /// under an equal predicate as an earlier one, with `in_col` and
    /// `out_col` swapped, gets the transpose of that atom's bag
    /// ([`Bag::transpose`], taken as soon as the earlier bag exists)
    /// instead of a second scan and grouping sort: a self-join scans its
    /// table once.
    fn evaluate<R>(
        &self,
        db: &Database,
        threads: usize,
        mut atoms: impl FnMut(Bag),
        last: impl FnOnce(&Bag, &Bag) -> DbResult<R>,
    ) -> DbResult<Output<R>> {
        if self.steps.is_empty() {
            return Err(DbError::Invalid("empty chain query".into()));
        }
        let steps = &self.steps;
        // Per atom, the earlier atom whose bag it is the transpose of.
        let source: Vec<Option<usize>> = (0..steps.len())
            .map(|k| steps[..k].iter().position(|e| e.transposes(&steps[k])))
            .collect();
        // The transposes taken for later atoms, until they are reached.
        let mut derived: Vec<Option<Bag>> = vec![None; steps.len()];
        let mut bag = |k: usize| -> DbResult<Bag> {
            let step = &steps[k];
            let bag = match derived[k].take() {
                Some(bag) => bag,
                None => {
                    let cols = [step.in_col, step.out_col];
                    scan_grouped(db, &step.table, &step.pred, cols, threads)?
                }
            };
            for (slot, _) in derived
                .iter_mut()
                .zip(&source)
                .filter(|(_, s)| **s == Some(k))
            {
                let _span = metrics::span(Phase::Distinct, Region::Distinct);
                *slot = Some(bag.transpose());
            }
            Ok(bag)
        };
        // The bag of (X, current-join-value) pairs the steps so far produce.
        // Every join writes its output grouped, which keeps the frontier
        // bounded by |domain(X)| * |domain(carry)|.
        let mut frontier = bag(0)?;
        let m = steps.len();
        if m == 1 {
            return Ok(Output::Atom(frontier));
        }
        for k in 1..m - 1 {
            let atom = bag(k)?;
            let joined = join_counted(&frontier, &atom, threads)?;
            let read = std::mem::replace(&mut frontier, joined);
            if k == 1 {
                atoms(read);
            }
            atoms(atom);
        }
        let atom = bag(m - 1)?;
        let out = last(&frontier, &atom)?;
        if m == 2 {
            atoms(frontier);
        }
        atoms(atom);
        Ok(Output::Joined(out))
    }

    /// Render the equivalent SQL text (for display / logging, mirroring the
    /// paper's Fig. 16 "generated SQL").
    pub fn to_sql(&self, db: &Database) -> DbResult<String> {
        let mut from = Vec::new();
        let mut wheres = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            let alias = (b'A' + (i as u8 % 26)) as char;
            from.push(format!("{} {}", step.table, alias));
            let t = db.table(&step.table)?;
            if i > 0 {
                let prev = &self.steps[i - 1];
                let prev_alias = (b'A' + ((i - 1) as u8 % 26)) as char;
                let prev_table = db.table(&prev.table)?;
                wheres.push(format!(
                    "{}.{}={}.{}",
                    prev_alias,
                    prev_table.schema().column(prev.out_col).name,
                    alias,
                    t.schema().column(step.in_col).name
                ));
            }
            render_pred(&step.pred, alias, t, &mut wheres);
        }
        let first = &self.steps[0];
        let last = self.steps.last().expect("non-empty chain");
        let first_table = db.table(&first.table)?;
        let last_table = db.table(&last.table)?;
        let last_alias = (b'A' + ((self.steps.len() - 1) as u8 % 26)) as char;
        let mut sql = format!(
            "SELECT DISTINCT A.{} AS ID1, {}.{} AS ID2 FROM {}",
            first_table.schema().column(first.in_col).name,
            last_alias,
            last_table.schema().column(last.out_col).name,
            from.join(", ")
        );
        if !wheres.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&wheres.join(" AND "));
        }
        sql.push(';');
        Ok(sql)
    }
}

fn render_pred(pred: &Predicate, alias: char, table: TableRef<'_>, out: &mut Vec<String>) {
    match pred {
        Predicate::True => {}
        Predicate::Eq(c, v) => out.push(format!("{alias}.{}={v}", table.schema().column(*c).name)),
        Predicate::Ne(c, v) => out.push(format!("{alias}.{}<>{v}", table.schema().column(*c).name)),
        Predicate::Lt(c, v) => out.push(format!("{alias}.{}<{v}", table.schema().column(*c).name)),
        Predicate::Le(c, v) => out.push(format!("{alias}.{}<={v}", table.schema().column(*c).name)),
        Predicate::Gt(c, v) => out.push(format!("{alias}.{}>{v}", table.schema().column(*c).name)),
        Predicate::Ge(c, v) => out.push(format!("{alias}.{}>={v}", table.schema().column(*c).name)),
        Predicate::And(ps) => {
            for p in ps {
                render_pred(p, alias, table, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BagBuilder;
    use crate::schema::{Column, Schema};
    use crate::table::Table;
    use crate::value::Value;
    use crate::Oversize;

    /// AuthorPub(aid, pid): the Fig. 1 toy dataset.
    /// p1: {a1,a2,a4}, p2: {a1,a4}, p3: {a3,a4,a5}... keep it small:
    fn fig1_db() -> Database {
        let mut t = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
        let rows = [
            (1, 1),
            (2, 1),
            (4, 1),
            (1, 2),
            (4, 2),
            (3, 3),
            (4, 3),
            (5, 3),
        ];
        for (a, p) in rows {
            t.push_row(vec![Value::int(a), Value::int(p)]).unwrap();
        }
        let mut db = Database::new();
        db.register("AuthorPub", t).unwrap();
        db
    }

    #[test]
    fn coauthor_chain_query() {
        let db = fig1_db();
        // Edges(ID1,ID2) :- AuthorPub(ID1, p), AuthorPub(ID2, p)
        // chain: step0 = AP with in=aid out=pid; step1 = AP with in=pid out=aid
        let q = Query {
            steps: vec![
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::True,
                    in_col: 0,
                    out_col: 1,
                },
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::True,
                    in_col: 1,
                    out_col: 0,
                },
            ],
        };
        let value = |vid| db.dict().resolve(vid).unwrap().clone();
        let mut pairs: Vec<(Value, Value)> = q
            .run(&db)
            .unwrap()
            .into_iter()
            .map(|(x, y)| (value(x), value(y)))
            .collect();
        pairs.sort();
        // co-authors incl. self-pairs: p1 gives {1,2,4}^2, p2 {1,4}^2, p3 {3,4,5}^2
        let mut expected: Vec<(Value, Value)> = Vec::new();
        for group in [vec![1i64, 2, 4], vec![1, 4], vec![3, 4, 5]] {
            for &a in &group {
                for &b in &group {
                    expected.push((Value::int(a), Value::int(b)));
                }
            }
        }
        expected.sort();
        expected.dedup();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn threaded_run_matches_serial_exactly() {
        let db = fig1_db();
        let q = Query {
            steps: vec![
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::True,
                    in_col: 0,
                    out_col: 1,
                },
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::True,
                    in_col: 1,
                    out_col: 0,
                },
            ],
        };
        let serial = q.run(&db).unwrap();
        for threads in [2, 8] {
            // Same pairs in the same order, not just the same set.
            assert_eq!(q.run_threaded(&db, threads).unwrap(), serial);
        }
    }

    /// Every atom's bag reaches the sink once, in atom order, equal to the
    /// atom's own one-atom query — the transposed ones too — and the last
    /// join's runs are the whole query's bag; a one-atom chain hands its
    /// bag back instead.
    #[test]
    fn run_keeping_hands_over_every_atom_bag() {
        let db = fig1_db();
        let step = |in_col, out_col| ChainStep {
            table: "AuthorPub".into(),
            pred: Predicate::True,
            in_col,
            out_col,
        };
        // The publications of each author's co-authors.
        let q = Query {
            steps: vec![step(0, 1), step(1, 0), step(0, 1)],
        };
        let append = |out: &mut BagBuilder, x: Vid, run: &[u64]| out.push_run(x, run);
        for threads in [1, 2, 8] {
            let mut bags = Vec::new();
            let out = q.run_keeping(&db, threads, BagBuilder::default, append, |bag| {
                bags.push(bag)
            });
            let Ok(Output::Joined(parts)) = out else {
                panic!("a three-atom chain joins");
            };
            let whole = BagBuilder::concat(parts).unwrap();
            assert!(whole.iter().eq(q.run_counted(&db, threads).unwrap().iter()));
            assert_eq!(bags.len(), 3);
            for (bag, step) in bags.iter().zip(&q.steps) {
                let own = Query {
                    steps: vec![step.clone()],
                };
                assert!(bag.iter().eq(own.run_counted(&db, threads).unwrap().iter()));
            }
        }
        let single = Query::single("AuthorPub", Predicate::True, 0, 1);
        let mut handed = 0;
        let out = single.run_keeping(&db, 2, BagBuilder::default, append, |_| handed += 1);
        assert!(matches!(out, Ok(Output::Atom(bag)) if bag.len() == 8));
        assert_eq!(handed, 0);
    }

    #[test]
    fn single_step_query() {
        let db = fig1_db();
        let q = Query::single("AuthorPub", Predicate::True, 0, 1);
        let pairs = q.run(&db).unwrap();
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    fn predicate_pushdown() {
        let db = fig1_db();
        // only publication 1's coauthors
        let q = Query {
            steps: vec![
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::Eq(1, Value::int(1)),
                    in_col: 0,
                    out_col: 1,
                },
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::True,
                    in_col: 1,
                    out_col: 0,
                },
            ],
        };
        let pairs = q.run(&db).unwrap();
        assert_eq!(pairs.len(), 9); // {1,2,4}^2
    }

    #[test]
    fn sql_rendering() {
        let db = fig1_db();
        let q = Query {
            steps: vec![
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::True,
                    in_col: 0,
                    out_col: 1,
                },
                ChainStep {
                    table: "AuthorPub".into(),
                    pred: Predicate::Eq(0, Value::int(3)),
                    in_col: 1,
                    out_col: 0,
                },
            ],
        };
        let sql = q.to_sql(&db).unwrap();
        assert_eq!(
            sql,
            "SELECT DISTINCT A.aid AS ID1, B.aid AS ID2 FROM AuthorPub A, AuthorPub B \
             WHERE A.pid=B.pid AND B.aid=3;"
        );
    }

    /// `R(a, b)` and `S(b, c)` of 65,537 identical rows each: their join
    /// holds one pair derived 65,537² times, past an entry's `u32` count.
    #[test]
    fn a_count_past_u32_is_too_large_on_every_thread_count() {
        let mut db = Database::new();
        for (name, cols, row) in [("R", ["a", "b"], [1, 2]), ("S", ["b", "c"], [2, 3])] {
            let mut t = Table::new(Schema::new(cols.map(Column::int).to_vec()));
            for _ in 0..65_537 {
                t.push_row(row.map(Value::int).to_vec()).unwrap();
            }
            db.register(name, t).unwrap();
        }
        let step = |table: &str| ChainStep {
            table: table.into(),
            pred: Predicate::True,
            in_col: 0,
            out_col: 1,
        };
        let q = Query {
            steps: vec![step("R"), step("S")],
        };
        let too_large = Some(DbError::TooLarge(Oversize::Count(65_537 * 65_537)));
        for threads in [1, 2, 8] {
            assert_eq!(q.run_counted(&db, threads).err(), too_large, "{threads}");
            let runs = q.run_by_source(&db, threads, Vec::new, |seen: &mut Vec<Vid>, x, _| {
                seen.push(x)
            });
            assert_eq!(runs.err(), too_large, "{threads}");
        }
        // Each atom's own bag holds its pair counted 65,537 times.
        let bag = Query::single("R", Predicate::True, 0, 1)
            .run_counted(&db, 2)
            .unwrap();
        assert_eq!(bag.iter().map(|(_, _, m)| m).collect::<Vec<_>>(), [65_537]);
    }

    #[test]
    fn empty_query_is_error() {
        let db = fig1_db();
        let q = Query { steps: vec![] };
        assert!(q.run(&db).is_err());
    }
}
