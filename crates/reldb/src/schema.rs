//! Table schemas.

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};
use graphgen_common::codec::{self, CodecError, Reader};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Column {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            name: name.into(),
            dtype,
        }
    }

    /// An integer column.
    pub fn int(name: impl Into<String>) -> Self {
        Self::new(name, DataType::Int)
    }

    /// A string column.
    pub fn str(name: impl Into<String>) -> Self {
        Self::new(name, DataType::Str)
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns. Column names must be unique.
    pub fn new(columns: Vec<Column>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            assert!(seen.insert(c.name.clone()), "duplicate column `{}`", c.name);
        }
        Self { columns }
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Append the binary encoding of this schema (column count, then each
    /// column's name and type tag). Part of the service database snapshot.
    pub fn encode_into(&self, out: &mut impl codec::Sink) {
        codec::put_len(out, self.columns.len());
        for c in &self.columns {
            codec::put_str(out, &c.name);
            codec::put_u8(out, matches!(c.dtype, DataType::Str) as u8);
        }
    }

    /// Decode one schema (inverse of [`Schema::encode_into`]).
    pub fn decode(r: &mut Reader<'_>) -> Result<Schema, CodecError> {
        let n = r.len()?;
        let mut columns = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let at = r.pos();
            let name = r.str()?.to_string();
            if !seen.insert(name.clone()) {
                return Err(CodecError::invalid(
                    at,
                    format!("duplicate column `{name}`"),
                ));
            }
            let dtype = match r.u8()? {
                0 => DataType::Int,
                1 => DataType::Str,
                tag => return Err(CodecError::invalid(at, format!("bad dtype tag {tag}"))),
            };
            columns.push(Column { name, dtype });
        }
        Ok(Schema { columns })
    }

    /// Validate a row against this schema: the arity must match and every
    /// non-NULL value must have its column's type (NULL fits anywhere).
    pub fn check_row(&self, row: &[Value]) -> DbResult<()> {
        if row.len() != self.arity() {
            return Err(DbError::SchemaMismatch(format!(
                "expected {} values, got {}",
                self.arity(),
                row.len()
            )));
        }
        for (i, v) in row.iter().enumerate() {
            if let Some(dt) = v.data_type() {
                if dt != self.columns[i].dtype {
                    return Err(DbError::SchemaMismatch(format!(
                        "column `{}` expects {}, got {}",
                        self.columns[i].name, self.columns[i].dtype, dt
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lookup() {
        let s = Schema::new(vec![Column::int("id"), Column::str("name")]);
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column(1).dtype, DataType::Str);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        Schema::new(vec![Column::int("id"), Column::str("id")]);
    }
}
