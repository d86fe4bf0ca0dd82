//! Error type shared by the relational engine.

use std::fmt;

/// Errors surfaced by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Referenced a table that does not exist in the catalog.
    UnknownTable(String),
    /// Referenced a column not present in a table's schema.
    UnknownColumn {
        /// The table whose schema was consulted.
        table: String,
        /// The missing column name.
        column: String,
    },
    /// Tried to register a table under a name already in use.
    DuplicateTable(String),
    /// Appended a row whose arity or types don't match the schema.
    SchemaMismatch(String),
    /// Malformed CSV input.
    Csv(String),
    /// A bag past its `u32` layout (see [`crate::exec::Bag`]), or a table
    /// past its `u32` row positions.
    TooLarge(Oversize),
    /// Anything else (query shape errors etc.).
    Invalid(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            DbError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            DbError::DuplicateTable(name) => write!(f, "table `{name}` already exists"),
            DbError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            DbError::Csv(msg) => write!(f, "csv error: {msg}"),
            DbError::TooLarge(Oversize::Entries(n)) => {
                write!(f, "a bag of {n} entries is too large (u32 offsets)")
            }
            DbError::TooLarge(Oversize::Count(n)) => {
                write!(f, "a pair counted {n} times is too large (u32 counts)")
            }
            DbError::TooLarge(Oversize::Rows(n)) => {
                write!(f, "a table of {n} rows is too large (u32 row positions)")
            }
            DbError::Invalid(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

/// What of a bag or a table outgrew its `u32` layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oversize {
    /// This many entries: past what its run offsets index.
    Entries(usize),
    /// A pair with this many derivations: past what an entry's count holds.
    Count(u64),
    /// This many physical rows: past what the catalog's row positions and
    /// value counts hold.
    Rows(usize),
}

/// Convenience alias.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            DbError::UnknownTable("t".into()).to_string(),
            "unknown table `t`"
        );
        assert!(DbError::UnknownColumn {
            table: "t".into(),
            column: "c".into()
        }
        .to_string()
        .contains("`c`"));
        assert!(DbError::SchemaMismatch("x".into())
            .to_string()
            .contains("x"));
    }
}
