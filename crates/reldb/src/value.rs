//! Dynamic values and data types.
//!
//! Every schema in the paper (DBLP, IMDB, TPCH, UNIV — Fig. 15) consists of
//! integer keys and string attributes, so the value model is deliberately
//! small: `Int` (i64), `Str` (`Arc<str>`, cheap to clone across join outputs),
//! and `Null`.

use graphgen_common::codec::{self, CodecError, Reader};
use std::fmt;
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Str => write!(f, "TEXT"),
        }
    }
}

/// A dynamically typed value stored in a table cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Compares equal to itself for hashing/distinct purposes
    /// (sufficient for our workloads, which never join on NULL).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Shared string.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Construct an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// The data type, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Append the binary encoding of this value (tag byte, then the
    /// payload; strings are length-prefixed UTF-8). Part of the snapshot /
    /// WAL format — see `graphgen_common::codec` for the conventions.
    pub fn encode_into(&self, out: &mut impl codec::Sink) {
        match self {
            Value::Null => codec::put_u8(out, 0),
            Value::Int(v) => {
                codec::put_u8(out, 1);
                codec::put_i64(out, *v);
            }
            Value::Str(s) => {
                codec::put_u8(out, 2);
                codec::put_str(out, s);
            }
        }
    }

    /// Decode one value from the reader (inverse of
    /// [`Value::encode_into`]).
    pub fn decode(r: &mut Reader<'_>) -> Result<Value, CodecError> {
        let at = r.pos();
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Int(r.i64()?),
            2 => Value::str(r.str()?),
            tag => return Err(CodecError::invalid(at, format!("bad value tag {tag}"))),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl graphgen_common::ByteSize for Value {
    fn heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => 0,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::int(5).as_int(), Some(5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::int(5).as_str(), None);
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::str("a").data_type(), Some(DataType::Str));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::int(-3).to_string(), "-3");
        assert_eq!(Value::str("ab").to_string(), "'ab'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(DataType::Int.to_string(), "INT");
    }

    #[test]
    fn equality_and_hash_via_set() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::int(1));
        set.insert(Value::int(1));
        set.insert(Value::str("1"));
        set.insert(Value::Null);
        set.insert(Value::Null);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn conversions() {
        let v: Value = 42i64.into();
        assert_eq!(v, Value::Int(42));
        let s: Value = "hi".into();
        assert_eq!(s, Value::str("hi"));
        let owned: Value = String::from("yo").into();
        assert_eq!(owned, Value::str("yo"));
    }

    #[test]
    fn ordering_int() {
        assert!(Value::int(1) < Value::int(2));
        assert!(Value::Null < Value::int(i64::MIN));
    }
}
