//! Vertex properties.
//!
//! `Nodes(ID, Name) :- Author(ID, Name)` turns extra attributes into vertex
//! properties (§3.2). Properties are stored column-wise next to the graph,
//! keyed by dense real id, so representations stay property-agnostic.

use crate::ids::RealId;
use graphgen_common::FxHashMap;
use std::sync::Arc;

/// A property value.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// Integer property.
    Int(i64),
    /// Floating-point property (used by algorithms, e.g. precomputed degree).
    Float(f64),
    /// Text property, shared with the string it was read from (a
    /// database dictionary entry), so loading it copies no bytes.
    Text(Arc<str>),
}

impl PropValue {
    /// As integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// As float (ints widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            PropValue::Float(v) => Some(*v),
            PropValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// As text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            PropValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// Column-wise property storage for `n` vertices.
#[derive(Debug, Clone, Default)]
pub struct Properties {
    pub(crate) n: usize,
    pub(crate) columns: FxHashMap<String, Vec<Option<PropValue>>>,
}

impl Properties {
    /// Storage for `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            columns: FxHashMap::default(),
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if it covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grow to cover at least `n` vertices (new slots hold no values).
    pub fn grow(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
            for col in self.columns.values_mut() {
                col.resize(n, None);
            }
        }
    }

    /// Set `name` for vertex `u`. Only the first value of a column
    /// allocates its name.
    pub fn set(&mut self, u: RealId, name: &str, value: PropValue) {
        let col = match self.columns.get_mut(name) {
            Some(col) => col,
            None => self
                .columns
                .entry(name.to_string())
                .or_insert_with(|| vec![None; self.n]),
        };
        col[u.0 as usize] = Some(value);
    }

    /// Get `name` for vertex `u`.
    pub fn get(&self, u: RealId, name: &str) -> Option<&PropValue> {
        self.columns.get(name)?.get(u.0 as usize)?.as_ref()
    }

    /// Remove the value of `name` for vertex `u`, if any.
    pub fn unset(&mut self, u: RealId, name: &str) {
        if let Some(col) = self.columns.get_mut(name) {
            if let Some(slot) = col.get_mut(u.0 as usize) {
                *slot = None;
            }
        }
    }

    /// Remove every property value of vertex `u` (used when incremental
    /// maintenance re-derives a node's properties from the surviving base
    /// rows).
    pub fn clear_vertex(&mut self, u: RealId) {
        for col in self.columns.values_mut() {
            if let Some(slot) = col.get_mut(u.0 as usize) {
                *slot = None;
            }
        }
    }

    /// Property names present.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut p = Properties::new(3);
        p.set(RealId(1), "name", PropValue::Text("alice".into()));
        p.set(RealId(1), "age", PropValue::Int(30));
        assert_eq!(p.get(RealId(1), "name").unwrap().as_text(), Some("alice"));
        assert_eq!(p.get(RealId(1), "age").unwrap().as_int(), Some(30));
        assert!(p.get(RealId(0), "name").is_none());
        assert!(p.get(RealId(1), "missing").is_none());
    }

    #[test]
    fn grow_preserves_values() {
        let mut p = Properties::new(1);
        p.set(RealId(0), "x", PropValue::Float(1.5));
        p.grow(5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.get(RealId(0), "x").unwrap().as_float(), Some(1.5));
        assert!(p.get(RealId(4), "x").is_none());
    }

    #[test]
    fn float_widening() {
        assert_eq!(PropValue::Int(2).as_float(), Some(2.0));
        assert_eq!(PropValue::Text("x".into()).as_float(), None);
    }

    #[test]
    fn unset_and_clear() {
        let mut p = Properties::new(2);
        p.set(RealId(0), "a", PropValue::Int(1));
        p.set(RealId(0), "b", PropValue::Int(2));
        p.set(RealId(1), "a", PropValue::Int(3));
        p.unset(RealId(0), "a");
        assert!(p.get(RealId(0), "a").is_none());
        assert!(p.get(RealId(0), "b").is_some());
        p.clear_vertex(RealId(0));
        assert!(p.get(RealId(0), "b").is_none());
        assert_eq!(p.get(RealId(1), "a").unwrap().as_int(), Some(3));
        // Unset of a missing column / out-of-range vertex is a no-op.
        p.unset(RealId(0), "missing");
    }

    #[test]
    fn names_listed() {
        let mut p = Properties::new(1);
        p.set(RealId(0), "a", PropValue::Int(1));
        p.set(RealId(0), "b", PropValue::Int(2));
        let mut names: Vec<&str> = p.names().collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
    }
}
