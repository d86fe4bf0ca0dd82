//! `graphgen-reldb` — a small in-memory columnar relational engine.
//!
//! GraphGen (the paper's system) sits on top of PostgreSQL and needs only
//! "basic SQL support from the underlying storage engine": table scans,
//! selection, projection, equi-joins, `DISTINCT`, and catalog statistics
//! (`pg_stats.n_distinct`) for its large-output-join test. This crate is the
//! from-scratch substitute for that substrate:
//!
//! * [`Value`] / [`DataType`] — a compact dynamic value model (64-bit ints
//!   and strings cover every schema in the paper's Fig. 15).
//! * [`Schema`] / [`Table`] — column-oriented ingestion buffer; once
//!   registered, a table is stored as dictionary-id columns and read
//!   through a [`TableRef`] view.
//! * [`Database`] — the catalog: named tables plus per-column statistics
//!   (row count, exact distinct count) used by the extraction planner.
//! * [`Interner`] — the database-wide, grow-only `Value` → dense [`Vid`]
//!   dictionary; every cell of a registered table is stored as its id, and
//!   an id names its value for the life of the database. A value is hashed
//!   only when registration or a mutation interns (or looks up) it.
//! * [`RowSet`] — the flat [`Vid`] arena a scan produces: one allocation
//!   per batch, four bytes per cell, rows addressed by index, no per-row
//!   `Vec`s.
//! * [`exec`] — the physical operators, one of each: a scan that filters
//!   and projects by copying ids; a GROUP BY over packed id pairs, which is the
//!   DISTINCT; a counted equi-join over the grouped bags; plus a reference
//!   nested-loop join for testing. [`query::Query`] is a tiny logical plan
//!   ("the SQL we generate") over them.
//!
//! Every operator takes a `threads` knob (morsel-parallel scans and join
//! probes — std scoped threads) and produces byte-identical output for any
//! thread count; see [`exec`] for the operator contract and why.
//!
//! Tables are mutable after registration: [`Database::insert_rows`] and
//! [`Database::delete_rows`] apply a batch, maintain the statistics row by
//! row, and return a typed [`Delta`] log — each row's values and the ids
//! the dictionary gave them — that `graphgen-core`'s incremental module
//! consumes to maintain extracted graphs without re-running queries.

#![warn(missing_docs)]

pub mod catalog;
pub mod csv;
pub mod delta;
pub mod error;
pub mod exec;
pub mod expr;
pub mod intern;
pub mod query;
pub mod rowset;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{ColumnStats, Database};
pub use delta::{Delta, DeltaBatch, DeltaOp, DeltaRow};
pub use error::{DbError, DbResult, Oversize};
pub use expr::Predicate;
pub use intern::{Interner, Vid, NULL_VID};
pub use query::Query;
pub use rowset::RowSet;
pub use schema::{Column, Schema};
pub use table::{Table, TableRef};
pub use value::{DataType, Value};
