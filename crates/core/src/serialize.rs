//! Graph serialization (§3.1's fourth consumption path): write the
//! extracted graph to disk "in its expanded representation, in a
//! standardized format, so that it can be further analyzed using any
//! specialized graph processing framework" (NetworkX-style edge lists),
//! plus a JSON document with nodes, properties, and edges for tools that
//! want both.
//!
//! # Binary snapshots
//!
//! [`encode_snapshot`] / [`decode_snapshot`] are the third format: a
//! **verbatim binary image of a whole C-DUP [`GraphHandle`]** — the
//! condensed graph, the id ↔ key mapping, the vertex properties, and (for
//! incremental handles) the complete delta-maintenance state. The serving
//! layer (`graphgen-serve`) persists and recovers graphs through it. A
//! handle holding a derived representation (EXP, DEDUP-1, DEDUP-2, BITMAP)
//! has no snapshot: snapshot the C-DUP it was converted from and
//! [`convert`](GraphHandle::convert) after decoding.
//!
//! Layout (all integers little-endian, variable data length-prefixed — see
//! `graphgen_common::codec`):
//!
//! ```text
//! magic  8 bytes  b"GGSNAP4\0"   (embeds the format version)
//! chunks …        adjacency chunk table (graphgen_graph::snapshot):
//!                 chunk capacity, count, then each distinct chunk once —
//!                 chunks shared between sections (or byte-identical) are
//!                 deduplicated and rebuilt shared on decode
//! graph  …        C-DUP payload: slot counts, liveness bits, then the
//!                 real and virtual adjacency as chunk references into
//!                 the table
//! ids    …        node keys in dense-id order
//! props  …        property columns (sorted by name)
//! incr   u8 + …   0 = plain handle; 1 = incremental maintenance state,
//!                 as the state keeps it: the engine dictionary (dense-id
//!                 interner) first, then the views, per segment its atom
//!                 headers, its bags and its support, the boundary
//!                 interning, and the node rows
//! ```
//!
//! Format 4 writes each maintained relation once: no per-atom copy of a
//! bag, no direct-edge counts (they follow from the supports), no property
//! names per node row and no representation or shadow tag. Formats 1–3
//! (`GGSNAP1\0` flat adjacency lists, `GGSNAP2\0` value-keyed maintenance
//! state, `GGSNAP3\0` derived copies beside the state) are **not**
//! readable; their files fail with a clean magic-mismatch error.
//!
//! [`encode_snapshot_into`] writes the layout through any
//! [`Sink`], section by section, so the
//! serving layer streams it into a snapshot file without holding the
//! encoding. Only the condensed-graph section is buffered: encoding it
//! fills the chunk table, which must come first. [`encode_snapshot`] is the
//! same writer into a `Vec`, trimmed to its length.
//!
//! The extraction [`report`](crate::ExtractionReport) is diagnostics, not
//! state, and is **not** persisted: a decoded handle carries a default
//! report. Everything observable through the graph API — canonical bytes,
//! conversions, and (for incremental handles) `apply_delta` behavior — is
//! restored exactly.

use crate::anygraph::AnyGraph;
use crate::error::Error;
use crate::handle::GraphHandle;
use crate::incremental::IncrementalState;
use graphgen_common::codec::{self, CodecError, Reader, Sink};
use graphgen_common::IdMap;
use graphgen_graph::snapshot as graph_snapshot;
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

/// Magic prefix of the binary handle snapshot format; the trailing digit is
/// the format version (4 = the maintenance state as it is kept; 3 =
/// dense-id interned maintenance state; 2 = chunked, deduplicated
/// adjacency — older-format files fail with a clean magic mismatch).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GGSNAP4\0";

/// Encode a whole C-DUP [`GraphHandle`] as a self-contained binary
/// snapshot (see the module docs for the layout). Deterministic: equal
/// handles produce equal bytes. The buffer is [`encode_snapshot_into`]'s
/// output, trimmed to its length.
///
/// # Errors
///
/// [`Error::SnapshotOfDerived`] (kind [`crate::ErrorKind::Snapshot`]) if
/// the handle holds a representation derived from the C-DUP.
pub fn encode_snapshot(g: &GraphHandle) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    encode_snapshot_into(g, &mut out)?;
    out.shrink_to_fit();
    Ok(out)
}

/// Write the snapshot of `g` (the bytes [`encode_snapshot`] returns)
/// through `out`, section by section. Only the condensed graph is buffered:
/// the chunk table its encoding fills must precede it.
///
/// # Errors
///
/// [`Error::SnapshotOfDerived`] (kind [`crate::ErrorKind::Snapshot`]) if
/// the handle holds a representation derived from the C-DUP; nothing has
/// been written then.
pub fn encode_snapshot_into(g: &GraphHandle, out: &mut impl Sink) -> Result<(), Error> {
    let AnyGraph::CDup(graph) = g.graph() else {
        return Err(Error::SnapshotOfDerived(g.kind()));
    };
    let mut enc = graph_snapshot::ChunkEncoder::new();
    let mut section = Vec::new();
    graph_snapshot::encode_condensed(graph, &mut enc, &mut section);
    out.put(&SNAPSHOT_MAGIC);
    enc.finish_into(out);
    out.put(&section);
    // Freed before the id map and the state stream behind it.
    drop(section);
    put_idmap(out, g.ids());
    graph_snapshot::encode_properties(g.properties(), out);
    match g.incremental_state() {
        None => codec::put_u8(out, 0),
        Some(state) => {
            codec::put_u8(out, 1);
            state.encode_into(out);
        }
    }
    Ok(())
}

/// Decode a binary snapshot produced by [`encode_snapshot`]. Rejects bad
/// magic (including every retired format), truncation, trailing bytes and
/// structurally inconsistent sections with [`crate::ErrorKind::Snapshot`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<GraphHandle, Error> {
    let mut r = Reader::new(bytes);
    r.expect_magic(&SNAPSHOT_MAGIC)?;
    let dec = graph_snapshot::ChunkDecoder::decode(&mut r)?;
    let graph = graph_snapshot::decode_condensed(&mut r, &dec)?;
    let ids = read_idmap(&mut r)?;
    let at = r.pos();
    // Cross-section consistency: each section is individually validated,
    // but a corrupt snapshot could still pair a graph of N slots with a
    // shorter id map (or property store), which would panic later in
    // `key_of`/`canonical_bytes` instead of failing recovery cleanly.
    if ids.len() != graph.num_real_slots() {
        return Err(CodecError::invalid(
            at,
            format!(
                "id map covers {} keys but the graph has {} real slots",
                ids.len(),
                graph.num_real_slots()
            ),
        )
        .into());
    }
    let properties = graph_snapshot::decode_properties(&mut r)?;
    let at = r.pos();
    if properties.len() > ids.len() {
        return Err(CodecError::invalid(
            at,
            format!(
                "property store covers {} slots but only {} ids exist",
                properties.len(),
                ids.len()
            ),
        )
        .into());
    }
    let at = r.pos();
    let state = match r.u8()? {
        0 => None,
        1 => Some(IncrementalState::decode(&mut r)?),
        tag => return Err(CodecError::invalid(at, format!("bad incremental tag {tag}")).into()),
    };
    r.expect_end()?;
    Ok(GraphHandle::from_snapshot_parts(
        graph, ids, properties, state,
    ))
}

/// Encode the id map: its length, then the node keys in dense-id order.
fn put_idmap(out: &mut impl Sink, ids: &IdMap<Value>) {
    codec::put_len(out, ids.len());
    for (_, key) in ids.iter() {
        key.encode_into(out);
    }
}

/// Decode the id map (inverse of [`put_idmap`]): no key twice.
fn read_idmap(r: &mut Reader<'_>) -> Result<IdMap<Value>, CodecError> {
    let n = r.len()?;
    let mut ids = IdMap::with_capacity(n);
    for i in 0..n {
        let at = r.pos();
        let key = Value::decode(r)?;
        if ids.intern(key) != i as u32 {
            return Err(CodecError::invalid(at, "duplicate key in id map"));
        }
    }
    Ok(ids)
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

    #[test]
    fn snapshot_roundtrip_restores_incremental_state() {
        let mut db = tiny();
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .auto_expand_threshold(None)
                .incremental(true)
                .threads(1)
                .build(),
        );
        let mut original = gg
            .extract(
                "Nodes(ID, Name) :- Person(ID, Name).\n\
                 Edges(A, B) :- Knows(A, B).",
            )
            .unwrap();
        let mut restored = decode_snapshot(&encode_snapshot(&original).unwrap()).unwrap();
        assert!(restored.is_incremental());
        assert_eq!(restored.canonical_bytes(), original.canonical_bytes());
        // Both handles must evolve identically under further deltas.
        let delta = db
            .insert_rows(
                "Knows",
                vec![
                    vec![Value::int(2), Value::int(1)],
                    vec![Value::int(1), Value::int(2)],
                ],
            )
            .unwrap();
        original.apply_delta(&delta).unwrap();
        restored.apply_delta(&delta).unwrap();
        assert_eq!(restored.canonical_bytes(), original.canonical_bytes());
        // A brand-new node key exercises the node-entry state.
        let delta = db
            .insert_rows("Person", vec![vec![Value::int(3), Value::str("carol")]])
            .unwrap();
        original.apply_delta(&delta).unwrap();
        restored.apply_delta(&delta).unwrap();
        assert_eq!(restored.canonical_bytes(), original.canonical_bytes());
    }

    /// Snapshot taken after dictionary churn — deletes that release value
    /// references (freeing dense ids onto the free list) and a revive —
    /// must decode into a handle whose dictionary *continues* identically:
    /// further deltas that mint brand-new values (reusing freed slots) and
    /// revive a deleted node key must keep the live and restored handles
    /// byte-identical at every step. This is the recovery guarantee for the
    /// interned hot paths: the persisted dictionary carries its free list,
    /// so id assignment after decode matches the handle that never
    /// restarted.
    #[test]
    fn snapshot_after_dictionary_churn_continues_identically() {
        let mut db = tiny();
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .auto_expand_threshold(None)
                .incremental(true)
                .threads(1)
                .build(),
        );
        let mut original = gg
            .extract(
                "Nodes(ID, Name) :- Person(ID, Name).\n\
                 Edges(A, B) :- Knows(A, B).",
            )
            .unwrap();
        // Churn the dictionary before the snapshot: drop the only edge row
        // (releasing pair references), re-add it reversed, then delete a
        // node row so its name's slot is freed and node 1 goes away while
        // an edge still names it.
        for delta in [
            db.delete_rows("Knows", &[vec![Value::int(1), Value::int(2)]])
                .unwrap(),
            db.insert_rows("Knows", vec![vec![Value::int(2), Value::int(1)]])
                .unwrap(),
            db.delete_rows("Person", &[vec![Value::int(1), Value::str("ann \"a\"")]])
                .unwrap(),
        ] {
            original.apply_delta(&delta).unwrap();
        }
        let mut restored = decode_snapshot(&encode_snapshot(&original).unwrap()).unwrap();
        assert_eq!(restored.canonical_bytes(), original.canonical_bytes());
        // Continue the stream on both sides: revive node 1 under a new
        // name (its adjacency must come back), mint brand-new values that
        // reuse freed dictionary slots, and retire an edge again.
        for delta in [
            db.insert_rows("Person", vec![vec![Value::int(1), Value::str("ann again")]])
                .unwrap(),
            db.insert_rows("Person", vec![vec![Value::int(9), Value::str("zoe")]])
                .unwrap(),
            db.insert_rows("Knows", vec![vec![Value::int(9), Value::int(2)]])
                .unwrap(),
            db.delete_rows("Knows", &[vec![Value::int(2), Value::int(1)]])
                .unwrap(),
        ] {
            original.apply_delta(&delta).unwrap();
            restored.apply_delta(&delta).unwrap();
            assert_eq!(
                restored.canonical_bytes(),
                original.canonical_bytes(),
                "restored handle diverged after a post-decode delta"
            );
        }
        // The full encodings (dictionary and free list included) must
        // agree too, not just the canonical graph bytes.
        assert_eq!(
            encode_snapshot(&original).unwrap(),
            encode_snapshot(&restored).unwrap()
        );
    }

    /// A snapshot records the thread count it was encoded with, which may
    /// not fit the machine decoding it; `set_threads` lets the recovering
    /// side impose its own configuration (and changes no bytes).
    #[test]
    fn snapshot_thread_count_can_be_overridden() {
        let mut db = tiny();
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .auto_expand_threshold(None)
                .incremental(true)
                .threads(2)
                .build(),
        );
        let original = gg
            .extract(
                "Nodes(ID, Name) :- Person(ID, Name).\n\
                 Edges(A, B) :- Knows(A, B).",
            )
            .unwrap();
        let mut restored = decode_snapshot(&encode_snapshot(&original).unwrap()).unwrap();
        assert_eq!(restored.incremental_state().unwrap().threads(), 2);
        restored.set_threads(0); // clamps to 1
        assert_eq!(restored.incremental_state().unwrap().threads(), 1);
        let delta = db
            .insert_rows("Knows", vec![vec![Value::int(2), Value::int(1)]])
            .unwrap();
        restored.apply_delta(&delta).unwrap();
        let mut reference = original;
        reference.apply_delta(&delta).unwrap();
        assert_eq!(restored.canonical_bytes(), reference.canonical_bytes());
    }

    /// An incremental handle whose chain has a virtual layer (every join is
    /// large-output, so co-knowers meet through one virtual node per
    /// target), taken after a delete and a re-insert churned its state.
    fn churned_co_occurrence() -> GraphHandle {
        let mut db = tiny();
        db.insert_rows("Person", vec![vec![Value::int(3), Value::str("cy")]])
            .unwrap();
        db.insert_rows(
            "Knows",
            vec![
                vec![Value::int(3), Value::int(2)],
                vec![Value::int(2), Value::int(1)],
                vec![Value::int(3), Value::int(1)],
            ],
        )
        .unwrap();
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .large_output_factor(0.0)
                .preprocess(false)
                .auto_expand_threshold(None)
                .incremental(true)
                .threads(1)
                .build(),
        );
        let mut g = gg
            .extract(
                "Nodes(ID, Name) :- Person(ID, Name).\n\
                 Edges(A, B) :- Knows(A, X), Knows(B, X).",
            )
            .unwrap();
        let row = vec![Value::int(3), Value::int(2)];
        for delta in [
            db.delete_rows("Knows", std::slice::from_ref(&row)).unwrap(),
            db.insert_rows("Knows", vec![row.clone()]).unwrap(),
        ] {
            g.apply_delta(&delta).unwrap();
        }
        let core = g
            .graph()
            .as_condensed()
            .expect("incremental handles are C-DUP");
        assert!(core.num_virtual() > 0, "the chain keeps a virtual layer");
        g
    }

    /// A snapshot holds a C-DUP and nothing else: the C-DUP round trip is
    /// verbatim, including a core whose paths repeat, and a derived handle
    /// refuses to encode with a typed error.
    #[test]
    fn snapshot_holds_the_c_dup_only() {
        use crate::error::ErrorKind;
        use crate::handle::ConvertOptions;
        use graphgen_common::IdMap;
        use graphgen_graph::{CondensedBuilder, Properties, RealId, RepKind};

        for g in [extract(), churned_co_occurrence()] {
            assert_eq!(g.kind(), RepKind::CDup);
            let bytes = g.to_snapshot_bytes().unwrap();
            assert_eq!(bytes.capacity(), bytes.len(), "exact-size buffer");
            let back = decode_snapshot(&bytes).unwrap();
            assert_eq!(back.kind(), RepKind::CDup);
            assert_eq!(back.is_incremental(), g.is_incremental());
            assert_eq!(back.canonical_bytes(), g.canonical_bytes());
            assert_eq!(back.to_snapshot_bytes().unwrap(), bytes, "re-encode");
        }

        let g = churned_co_occurrence();
        let mut refused = Vec::new();
        for target in RepKind::all().into_iter().filter(|&k| k != RepKind::CDup) {
            let h = g.convert(target, &ConvertOptions::default()).unwrap();
            let err = h.to_snapshot_bytes().unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Snapshot, "{target}");
            let msg = err.to_string();
            assert!(msg.contains(target.label()), "{msg}");
            assert!(msg.contains("convert after decoding"), "{msg}");
            refused.push(target);
        }
        assert_eq!(refused.len(), 4, "every derived kind is covered");

        // Cliques {0,1,2} and {0,1}: a valid C-DUP whose paths repeat, so
        // it is no DEDUP-1.
        let mut b = CondensedBuilder::new(3);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        b.clique(&[RealId(0), RealId(1)]);
        let mut ids = IdMap::new();
        for i in 0..3 {
            ids.intern(Value::int(i));
        }
        let h = GraphHandle::from_parts(
            AnyGraph::CDup(b.build()),
            ids,
            Properties::new(3),
            Default::default(),
        );
        let back = decode_snapshot(&encode_snapshot(&h).unwrap()).unwrap();
        assert_eq!(back.canonical_bytes(), h.canonical_bytes());
    }

    /// Older-format snapshots (`GGSNAP3\0` derived copies beside the state,
    /// `GGSNAP2\0` value-keyed state, `GGSNAP1\0` flat adjacency) must fail
    /// with a clean magic mismatch, not a misparse.
    #[test]
    fn snapshot_rejects_old_magic() {
        use crate::error::ErrorKind;
        let g = extract();
        let mut bytes = encode_snapshot(&g).unwrap();
        assert_eq!(&bytes[..8], b"GGSNAP4\0");
        for old in [*b"GGSNAP3\0", *b"GGSNAP2\0", *b"GGSNAP1\0"] {
            bytes[..8].copy_from_slice(&old);
            let err = decode_snapshot(&bytes).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Snapshot);
            assert!(
                err.to_string().contains("bad magic"),
                "unexpected error: {err}"
            );
        }
        // Restoring the current magic makes the same bytes decode again.
        bytes[..8].copy_from_slice(&SNAPSHOT_MAGIC);
        assert!(decode_snapshot(&bytes).is_ok());
    }

    /// Identical adjacency chunks inside one snapshot are written once and
    /// decode back onto the **same** `Arc` (structural sharing survives the
    /// disk round-trip).
    #[test]
    fn snapshot_chunks_are_deduplicated_and_rebuilt_shared() {
        use graphgen_common::IdMap;
        use graphgen_graph::{CondensedBuilder, Properties, RealId, CHUNK_LEN};
        // Two full real chunks with identical lists (every node points at
        // the one virtual node).
        let n = CHUNK_LEN * 2;
        let mut b = CondensedBuilder::new(n);
        let v = b.add_virtual();
        for u in 0..n as u32 {
            b.real_to_virtual(RealId(u), v);
        }
        let mut ids = IdMap::new();
        for i in 0..n {
            ids.intern(graphgen_reldb::Value::int(i as i64));
        }
        let h = GraphHandle::from_parts(
            crate::AnyGraph::CDup(b.build()),
            ids,
            Properties::new(n),
            Default::default(),
        );
        let bytes = encode_snapshot(&h).unwrap();
        // Header: magic(8) | u64 chunk capacity | u64 chunk count — the two
        // identical real chunks collapse with each other (the virtual
        // store's single big list stays distinct): 2 table entries, not 3.
        let n_chunks = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        assert_eq!(n_chunks, 2, "identical chunks not deduplicated on disk");
        let back = decode_snapshot(&bytes).unwrap();
        let core = back.graph().as_condensed().unwrap();
        assert!(
            std::sync::Arc::ptr_eq(
                &core.real_out_chunks().chunks()[0],
                &core.real_out_chunks().chunks()[1]
            ),
            "deduplicated chunks not rebuilt shared"
        );
        assert_eq!(back.canonical_bytes(), h.canonical_bytes());
    }

    #[test]
    fn snapshot_rejects_corruption() {
        use crate::error::ErrorKind;
        let g = extract();
        let bytes = encode_snapshot(&g).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err().kind(),
            ErrorKind::Snapshot
        );
        // Truncation anywhere must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            decode_snapshot(&long).unwrap_err().kind(),
            ErrorKind::Snapshot
        );
        // Every byte flipped by three masks, in a plain handle and in an
        // incremental one with a virtual layer: each flip decodes to a
        // handle that still serializes, or fails as a snapshot error.
        for g in [g, churned_co_occurrence()] {
            let bytes = encode_snapshot(&g).unwrap();
            for i in 0..bytes.len() {
                for mask in [0xFF, 0x01, 0x80] {
                    let mut bad = bytes.clone();
                    bad[i] ^= mask;
                    match decode_snapshot(&bad) {
                        Ok(back) => drop(back.canonical_bytes()),
                        Err(err) => assert_eq!(
                            err.kind(),
                            ErrorKind::Snapshot,
                            "byte {i} ^ {mask:#04x}: {err}"
                        ),
                    }
                }
            }
        }
    }
}
