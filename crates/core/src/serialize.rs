//! Graph serialization (§3.1's fourth consumption path): write the
//! extracted graph to disk "in its expanded representation, in a
//! standardized format, so that it can be further analyzed using any
//! specialized graph processing framework" (NetworkX-style edge lists),
//! plus a JSON document with nodes, properties, and edges for tools that
//! want both.

use crate::handle::GraphHandle;
use graphgen_graph::{GraphRep, PropValue};
use graphgen_reldb::Value;
use std::io::{self, Write};

/// Write the expanded edge list: one `src<TAB>dst` pair per line, using the
/// original node keys.
pub fn write_edge_list<W: Write>(g: &GraphHandle, out: &mut W) -> io::Result<()> {
    for u in g.vertices() {
        let uk = g.key_of(u);
        let mut result = Ok(());
        g.for_each_neighbor(u, &mut |v| {
            if result.is_ok() {
                result = writeln!(out, "{}\t{}", plain(uk), plain(g.key_of(v)));
            }
        });
        result?;
    }
    Ok(())
}

/// Write a JSON document: `{"nodes": [...], "edges": [[src, dst], ...]}`.
/// Hand-rolled emitter (the structure is fixed and tiny) with proper string
/// escaping.
pub fn write_json<W: Write>(g: &GraphHandle, out: &mut W) -> io::Result<()> {
    write!(out, "{{\"nodes\":[")?;
    let mut first = true;
    for u in g.vertices() {
        if !first {
            write!(out, ",")?;
        }
        first = false;
        write!(out, "{{\"id\":{}", json_value(g.key_of(u)))?;
        let mut names: Vec<&str> = g.properties().names().collect();
        names.sort_unstable();
        for name in names {
            if let Some(p) = g.properties().get(u, name) {
                write!(out, ",{}:{}", json_str(name), json_prop(p))?;
            }
        }
        write!(out, "}}")?;
    }
    write!(out, "],\"edges\":[")?;
    let mut first = true;
    for u in g.vertices() {
        let mut result = Ok(());
        g.for_each_neighbor(u, &mut |v| {
            if result.is_err() {
                return;
            }
            let sep = if first { "" } else { "," };
            first = false;
            result = write!(
                out,
                "{sep}[{},{}]",
                json_value(g.key_of(u)),
                json_value(g.key_of(v))
            );
        });
        result?;
    }
    write!(out, "]}}")
}

fn plain(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => s.to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => json_str(s),
    }
}

fn json_prop(p: &PropValue) -> String {
    match p {
        PropValue::Int(v) => v.to_string(),
        PropValue::Float(v) => format!("{v}"),
        PropValue::Text(s) => json_str(s),
    }
}

/// A canonical, key-space byte serialization of a handle's logical graph:
/// a `nodes` section (sorted by key, each with its properties sorted by
/// name) followed by an `edges` section (expanded logical edges as sorted
/// key pairs). The output depends only on the logical graph — not on the
/// representation, dense-id assignment, virtual-node numbering, or thread
/// count — so it is the equality the incremental-maintenance oracle
/// asserts: patched handle bytes == from-scratch re-extraction bytes.
pub fn canonical_bytes(g: &GraphHandle) -> Vec<u8> {
    let mut nodes: Vec<(&Value, graphgen_graph::RealId)> =
        g.vertices().map(|u| (g.key_of(u), u)).collect();
    nodes.sort_by(|a, b| a.0.cmp(b.0));
    let mut names: Vec<&str> = g.properties().names().collect();
    names.sort_unstable();
    let mut out = Vec::new();
    out.extend_from_slice(b"nodes\n");
    for (key, u) in &nodes {
        out.extend_from_slice(canon_value(key).as_bytes());
        for name in &names {
            if let Some(p) = g.properties().get(*u, name) {
                out.extend_from_slice(format!("\t{name}={}", canon_prop(p)).as_bytes());
            }
        }
        out.push(b'\n');
    }
    out.extend_from_slice(b"edges\n");
    let mut edges: Vec<(&Value, &Value)> = Vec::new();
    for u in g.vertices() {
        let uk = g.key_of(u);
        g.for_each_neighbor(u, &mut |v| edges.push((uk, g.key_of(v))));
    }
    edges.sort();
    edges.dedup();
    for (a, b) in edges {
        out.extend_from_slice(format!("{}\t{}\n", canon_value(a), canon_value(b)).as_bytes());
    }
    out
}

/// Unambiguous key rendering: string keys are escaped (`{:?}`) so keys
/// containing tabs/newlines cannot collide with the separators or with
/// differently-structured lines.
fn canon_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("{s:?}"),
    }
}

fn canon_prop(p: &PropValue) -> String {
    match p {
        PropValue::Int(v) => v.to_string(),
        PropValue::Float(v) => format!("{v}"),
        PropValue::Text(s) => format!("{s:?}"),
    }
}

/// Expanded degree sequence keyed by original node key — a convenient
/// summary for quick inspection in examples/tests.
pub fn degree_summary(g: &GraphHandle) -> Vec<(Value, usize)> {
    let mut out: Vec<(Value, usize)> = g
        .vertices()
        .map(|u| (g.key_of(u).clone(), g.degree(u)))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{GraphGen, GraphGenConfig};
    use graphgen_reldb::{Column, Database, Schema, Table};

    fn tiny() -> Database {
        let mut person = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        for (i, n) in [(1, "ann \"a\""), (2, "bob")] {
            person.push_row(vec![Value::int(i), Value::str(n)]).unwrap();
        }
        let mut knows = Table::new(Schema::new(vec![Column::int("a"), Column::int("b")]));
        knows.push_row(vec![Value::int(1), Value::int(2)]).unwrap();
        let mut db = Database::new();
        db.register("Person", person).unwrap();
        db.register("Knows", knows).unwrap();
        db
    }

    fn extract() -> GraphHandle {
        let db = tiny();
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .auto_expand_threshold(None)
                .build(),
        );
        gg.extract(
            "Nodes(ID, Name) :- Person(ID, Name).\n\
             Edges(A, B) :- Knows(A, B).",
        )
        .unwrap()
    }

    #[test]
    fn edge_list_format() {
        let g = extract();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "1\t2\n");
    }

    #[test]
    fn json_is_escaped_and_shaped() {
        let g = extract();
        let mut buf = Vec::new();
        write_json(&g, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("{\"nodes\":["));
        assert!(s.contains("\\\"a\\\""), "{s}");
        assert!(s.ends_with("\"edges\":[[1,2]]}"), "{s}");
    }

    #[test]
    fn degree_summary_sorted() {
        let g = extract();
        let d = degree_summary(&g);
        assert_eq!(d, vec![(Value::int(1), 1), (Value::int(2), 0)]);
    }
}
