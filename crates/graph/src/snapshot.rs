//! Binary snapshot codecs for the C-DUP graph and its properties.
//!
//! The serving layer persists extracted graphs to disk and recovers them
//! after a crash (see `graphgen-serve`). What it persists is the condensed
//! C-DUP graph the incremental writer maintains; the other four
//! representations are derived from it by conversion and are recomputed
//! after decoding, never stored. This module provides the
//! representation-level primitives of that snapshot format: a verbatim,
//! structure-preserving binary encoding of a [`CondensedGraph`] (through a
//! deduplicating chunk table) plus [`Properties`], following the workspace
//! codec conventions (`graphgen_common::codec`: little-endian,
//! length-prefixed, bounds-checked decode).
//!
//! The encodings are **verbatim**: a decoded graph has exactly the stored
//! adjacency of the encoded one — same virtual-node numbering, same dead
//! slots — so a recovered handle is byte-identical (canonical serialization
//! *and* structure) to the one that was persisted. Decoding checks every
//! list's order and every target's range. Encoding is deterministic
//! (hash-map content is emitted in sorted key order), so equal graphs
//! produce equal bytes.
//!
//! Framing (magic header, format version, section layout for a whole
//! `GraphHandle`) lives one level up in `graphgen_core::serialize`; these
//! functions encode bare representation payloads.

use crate::api::GraphRep;
use crate::cdup::CondensedGraph;
use crate::chunk::{AdjChunk, ChunkedAdj, CHUNK_LEN};
use crate::ids::Adj;
use crate::properties::{PropValue, Properties};
use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_common::FxHashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Small shared pieces
// ---------------------------------------------------------------------------

/// Encode a `Vec<bool>` as a bit-packed word array.
fn put_bools(out: &mut impl codec::Sink, bits: &[bool]) {
    codec::put_len(out, bits.len());
    let mut word = 0u64;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            codec::put_u64(out, word);
            word = 0;
        }
    }
    if !bits.len().is_multiple_of(64) {
        codec::put_u64(out, word);
    }
}

fn read_bools(r: &mut Reader<'_>) -> Result<Vec<bool>, CodecError> {
    // The count is in BITS (~1/8 byte each), so `Reader::len`'s
    // byte-per-element plausibility bound does not apply; bound it against
    // the 64-bit word payload instead.
    let at = r.pos();
    let n = r.scalar()?;
    if n.div_ceil(64) > r.remaining() / 8 {
        return Err(CodecError::invalid(at, "bit count exceeds remaining input"));
    }
    let mut bits = Vec::with_capacity(n);
    let mut word = 0u64;
    for i in 0..n {
        if i % 64 == 0 {
            word = r.u64()?;
        }
        bits.push((word >> (i % 64)) & 1 == 1);
    }
    Ok(bits)
}

// ---------------------------------------------------------------------------
// Chunk table: structurally shared adjacency on disk
// ---------------------------------------------------------------------------

/// Collects the [`AdjChunk`]s referenced while encoding a snapshot and
/// deduplicates them: a chunk shared by several [`ChunkedAdj`] stores (or
/// merely byte-identical to an earlier one) is written **once**; stores
/// reference chunks by table index. [`ChunkDecoder`] rebuilds shared ids as
/// shared `Arc`s, so the structural sharing survives the disk round-trip.
///
/// Usage: encode every chunk-bearing section into a *body* buffer with one
/// encoder, then emit [`ChunkEncoder::finish_into`] (the chunk table)
/// **before** the body — decoding reads the table first.
#[derive(Debug, Default)]
pub struct ChunkEncoder {
    /// Fast path: chunks already interned, by allocation identity.
    by_ptr: FxHashMap<*const AdjChunk, u32>,
    /// Content dedup: byte-identical chunks from distinct allocations.
    /// Holds the single copy of each payload; [`ChunkEncoder::finish_into`]
    /// emits them in id order.
    by_bytes: FxHashMap<Vec<u8>, u32>,
    next_id: u32,
}

impl ChunkEncoder {
    /// A fresh, empty chunk table.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, chunk: &Arc<AdjChunk>) -> u32 {
        let ptr = Arc::as_ptr(chunk);
        if let Some(&id) = self.by_ptr.get(&ptr) {
            return id;
        }
        let mut payload = Vec::new();
        codec::put_len(&mut payload, chunk.n_lists());
        for list in chunk.lists() {
            codec::put_len(&mut payload, list.len());
            for a in list {
                codec::put_u32(&mut payload, a.raw());
            }
        }
        let next = self.next_id;
        let id = match self.by_bytes.entry(payload) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                self.next_id += 1;
                next
            }
        };
        self.by_ptr.insert(ptr, id);
        id
    }

    /// Encode a [`ChunkedAdj`] store as its length plus chunk references,
    /// interning each chunk into the table.
    pub fn encode_chunked(&mut self, adj: &ChunkedAdj, out: &mut impl codec::Sink) {
        codec::put_len(out, adj.len());
        for chunk in adj.chunks() {
            codec::put_u32(out, self.intern(chunk));
        }
    }

    /// Emit the chunk table section (chunk capacity, count, payloads in
    /// id order).
    pub fn finish_into(self, out: &mut impl codec::Sink) {
        codec::put_len(out, CHUNK_LEN);
        codec::put_len(out, self.by_bytes.len());
        let mut payloads: Vec<(&Vec<u8>, u32)> =
            self.by_bytes.iter().map(|(p, &id)| (p, id)).collect();
        payloads.sort_by_key(|&(_, id)| id);
        for (p, _) in payloads {
            out.put(p);
        }
    }
}

/// The decoded chunk table: resolves chunk references back to shared
/// [`Arc<AdjChunk>`]s (inverse of [`ChunkEncoder`]).
#[derive(Debug)]
pub struct ChunkDecoder {
    chunks: Vec<Arc<AdjChunk>>,
}

impl ChunkDecoder {
    /// Parse the chunk table section. Validates chunk shape and list
    /// sortedness here (once per chunk); target *ranges* depend on the
    /// referencing graph and are validated per reference in
    /// [`ChunkDecoder::decode_chunked`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        let cap = r.scalar()?;
        if cap != CHUNK_LEN {
            return Err(CodecError::invalid(
                at,
                format!("chunk capacity {cap} != {CHUNK_LEN}"),
            ));
        }
        let n = r.len()?;
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.pos();
            let n_lists = r.len_of(8)?;
            if n_lists > CHUNK_LEN {
                return Err(CodecError::invalid(at, "chunk holds too many lists"));
            }
            let mut chunk = AdjChunk::default();
            for _ in 0..n_lists {
                let len = r.len_of(4)?;
                let mut list: Vec<Adj> = Vec::with_capacity(len);
                for _ in 0..len {
                    let at = r.pos();
                    let a = Adj::from_raw(r.u32()?);
                    if let Some(&prev) = list.last() {
                        if prev.raw() >= a.raw() {
                            return Err(CodecError::invalid(
                                at,
                                "chunk adjacency not strictly sorted",
                            ));
                        }
                    }
                    list.push(a);
                }
                chunk.push_list(&list);
            }
            chunks.push(Arc::new(chunk));
        }
        Ok(Self { chunks })
    }

    /// Number of distinct chunks in the table.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Decode a [`ChunkedAdj`] store: its length plus chunk references.
    /// Shared references resolve to the **same** `Arc`. Validates the
    /// shape invariant (full chunks, short tail) and that every target is
    /// `< n_real` / `< n_virt` for the referencing graph.
    pub fn decode_chunked(
        &self,
        r: &mut Reader<'_>,
        n_real: u32,
        n_virt: u32,
        what: &str,
    ) -> Result<ChunkedAdj, CodecError> {
        // The store length counts *lists*, which live in the already-read
        // chunk table — only `len / CHUNK_LEN` 4-byte references follow, so
        // `Reader::len`'s remaining-input bound does not apply to it.
        let at = r.pos();
        let len = r.scalar()?;
        let n_chunks = len.div_ceil(CHUNK_LEN);
        if n_chunks > r.remaining() / 4 {
            return Err(CodecError::invalid(
                at,
                format!("{what} chunk reference count exceeds remaining input"),
            ));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        for i in 0..n_chunks {
            let at = r.pos();
            let id = r.u32()? as usize;
            let chunk = self
                .chunks
                .get(id)
                .ok_or_else(|| CodecError::invalid(at, format!("{what} chunk id out of range")))?;
            let expect = if i + 1 < n_chunks {
                CHUNK_LEN
            } else {
                len - (n_chunks - 1) * CHUNK_LEN
            };
            if chunk.n_lists() != expect {
                return Err(CodecError::invalid(
                    at,
                    format!("{what} chunk shape mismatch"),
                ));
            }
            for list in chunk.lists() {
                for a in list {
                    let ok = match (a.as_real(), a.as_virtual()) {
                        (Some(u), _) => u.0 < n_real,
                        (_, Some(v)) => v.0 < n_virt,
                        _ => unreachable!("Adj is always one of the two"),
                    };
                    if !ok {
                        return Err(CodecError::invalid(
                            at,
                            format!("{what} adjacency target out of range"),
                        ));
                    }
                }
            }
            chunks.push(Arc::clone(chunk));
        }
        Ok(ChunkedAdj::from_chunks(chunks, len))
    }
}

// ---------------------------------------------------------------------------
// C-DUP
// ---------------------------------------------------------------------------

/// Encode a [`CondensedGraph`] verbatim (real adjacency, virtual adjacency,
/// liveness bits). Adjacency chunks are interned into `enc`'s chunk table
/// — shared or byte-identical chunks are written once across the whole
/// snapshot.
pub fn encode_condensed(g: &CondensedGraph, enc: &mut ChunkEncoder, out: &mut impl codec::Sink) {
    codec::put_len(out, g.num_real_slots());
    codec::put_len(out, g.num_virtual());
    put_bools(out, &g.alive);
    enc.encode_chunked(&g.real_out, out);
    enc.encode_chunked(&g.virt_out, out);
}

/// Decode a [`CondensedGraph`] (inverse of [`encode_condensed`]).
pub fn decode_condensed(
    r: &mut Reader<'_>,
    dec: &ChunkDecoder,
) -> Result<CondensedGraph, CodecError> {
    let at = r.pos();
    // Node counts describe chunk-table content, not upcoming body bytes:
    // plain scalars, bounded below by the liveness/adjacency consistency
    // checks.
    let n_real = r.scalar()?;
    let n_virt = r.scalar()?;
    if n_real > u32::MAX as usize || n_virt > u32::MAX as usize {
        return Err(CodecError::invalid(at, "node count overflows u32"));
    }
    let alive = read_bools(r)?;
    if alive.len() != n_real {
        return Err(CodecError::invalid(at, "liveness length mismatch"));
    }
    let real_out = dec.decode_chunked(r, n_real as u32, n_virt as u32, "real")?;
    let virt_out = dec.decode_chunked(r, n_real as u32, n_virt as u32, "virtual")?;
    if real_out.len() != n_real || virt_out.len() != n_virt {
        return Err(CodecError::invalid(at, "adjacency length mismatch"));
    }
    Ok(CondensedGraph::from_chunked(real_out, virt_out, alive))
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Encode one [`PropValue`] (tag byte + payload).
fn encode_prop_value(p: &PropValue, out: &mut impl codec::Sink) {
    match p {
        PropValue::Int(v) => {
            codec::put_u8(out, 0);
            codec::put_i64(out, *v);
        }
        PropValue::Float(v) => {
            codec::put_u8(out, 1);
            codec::put_f64(out, *v);
        }
        PropValue::Text(s) => {
            codec::put_u8(out, 2);
            codec::put_str(out, s);
        }
    }
}

/// Decode one [`PropValue`] (inverse of [`encode_prop_value`]).
fn decode_prop_value(r: &mut Reader<'_>) -> Result<PropValue, CodecError> {
    let at = r.pos();
    Ok(match r.u8()? {
        0 => PropValue::Int(r.i64()?),
        1 => PropValue::Float(r.f64()?),
        2 => PropValue::Text(r.str()?.into()),
        tag => return Err(CodecError::invalid(at, format!("bad property tag {tag}"))),
    })
}

/// Encode one property cell: a presence tag (0 = unset, 1 = set), then the
/// value when set.
pub fn encode_prop_cell(cell: Option<&PropValue>, out: &mut impl codec::Sink) {
    match cell {
        None => codec::put_u8(out, 0),
        Some(v) => {
            codec::put_u8(out, 1);
            encode_prop_value(v, out);
        }
    }
}

/// Decode one property cell (inverse of [`encode_prop_cell`]).
pub fn decode_prop_cell(r: &mut Reader<'_>) -> Result<Option<PropValue>, CodecError> {
    let at = r.pos();
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_prop_value(r)?)),
        tag => Err(CodecError::invalid(at, format!("bad presence tag {tag}"))),
    }
}

/// Encode a [`Properties`] store (columns in sorted name order; each cell
/// as [`encode_prop_cell`] writes it).
pub fn encode_properties(p: &Properties, out: &mut impl codec::Sink) {
    codec::put_len(out, p.n);
    let mut names: Vec<&String> = p.columns.keys().collect();
    names.sort();
    codec::put_len(out, names.len());
    for name in names {
        codec::put_str(out, name);
        for cell in &p.columns[name.as_str()] {
            encode_prop_cell(cell.as_ref(), out);
        }
    }
}

/// Decode a [`Properties`] store (inverse of [`encode_properties`]).
pub fn decode_properties(r: &mut Reader<'_>) -> Result<Properties, CodecError> {
    // The slot count is a scalar: a store can cover many vertices while
    // carrying zero columns (and so almost no bytes). Each *column* then
    // holds `n` presence-tagged cells, which the per-cell reads bound.
    let at = r.pos();
    let n = r.scalar()?;
    let ncols = r.len()?;
    if ncols > 0 && n > 0 && n > r.remaining() {
        // With at least one column, n cells (>= 1 byte each) must follow.
        return Err(CodecError::invalid(
            at,
            "property slot count exceeds remaining input",
        ));
    }
    let mut columns: FxHashMap<String, Vec<Option<PropValue>>> = FxHashMap::default();
    for _ in 0..ncols {
        let at = r.pos();
        let name = r.str()?.to_string();
        let mut col = Vec::with_capacity(n);
        for _ in 0..n {
            col.push(decode_prop_cell(r)?);
        }
        if columns.insert(name, col).is_some() {
            return Err(CodecError::invalid(at, "duplicate property column"));
        }
    }
    Ok(Properties { n, columns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CondensedBuilder;
    use crate::expand_to_edge_list;
    use crate::ids::RealId;

    fn sample_condensed() -> CondensedGraph {
        let mut b = CondensedBuilder::new(6);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        b.direct(RealId(5), RealId(0));
        let mut g = b.build();
        g.delete_vertex(RealId(4)); // keep a dead slot in the snapshot
        g
    }

    fn roundtrip<T>(
        encode: impl Fn(&T, &mut Vec<u8>),
        decode: impl Fn(&mut Reader<'_>) -> Result<T, CodecError>,
        g: &T,
    ) -> T {
        let mut buf = Vec::new();
        encode(g, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode(&mut r).expect("decode");
        r.expect_end().expect("no trailing bytes");
        // Determinism: re-encoding yields the same bytes.
        let mut again = Vec::new();
        encode(&back, &mut again);
        assert_eq!(buf, again, "re-encode differs");
        back
    }

    /// Assemble a self-contained buffer for one chunk-bearing payload:
    /// chunk table first, body after — the same layout `graphgen_core`'s
    /// snapshot framing uses.
    fn assemble<T>(encode: &impl Fn(&T, &mut ChunkEncoder, &mut Vec<u8>), g: &T) -> Vec<u8> {
        let mut enc = ChunkEncoder::new();
        let mut body = Vec::new();
        encode(g, &mut enc, &mut body);
        let mut buf = Vec::new();
        enc.finish_into(&mut buf);
        buf.extend_from_slice(&body);
        buf
    }

    fn roundtrip_chunked<T>(
        encode: impl Fn(&T, &mut ChunkEncoder, &mut Vec<u8>),
        decode: impl Fn(&mut Reader<'_>, &ChunkDecoder) -> Result<T, CodecError>,
        g: &T,
    ) -> T {
        let buf = assemble(&encode, g);
        let mut r = Reader::new(&buf);
        let dec = ChunkDecoder::decode(&mut r).expect("chunk table");
        let back = decode(&mut r, &dec).expect("decode");
        r.expect_end().expect("no trailing bytes");
        // Determinism: re-encoding yields the same bytes.
        assert_eq!(assemble(&encode, &back), buf, "re-encode differs");
        back
    }

    #[test]
    fn condensed_roundtrip_is_verbatim() {
        let g = sample_condensed();
        let back = roundtrip_chunked(encode_condensed, decode_condensed, &g);
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_virtual(), g.num_virtual());
        for u in 0..g.num_real_slots() as u32 {
            assert_eq!(back.real_out(RealId(u)), g.real_out(RealId(u)));
            assert_eq!(back.is_alive(RealId(u)), g.is_alive(RealId(u)));
        }
        assert_eq!(expand_to_edge_list(&back), expand_to_edge_list(&g));
    }

    #[test]
    fn properties_roundtrip() {
        let mut p = Properties::new(3);
        p.set(RealId(0), "name", PropValue::Text("a\"b".into()));
        p.set(RealId(2), "score", PropValue::Float(2.25));
        p.set(RealId(1), "age", PropValue::Int(-3));
        let back = roundtrip(encode_properties, decode_properties, &p);
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(RealId(0), "name"), p.get(RealId(0), "name"));
        assert_eq!(back.get(RealId(2), "score"), p.get(RealId(2), "score"));
        assert_eq!(back.get(RealId(1), "age"), p.get(RealId(1), "age"));
        assert_eq!(back.get(RealId(1), "name"), None);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let g = sample_condensed();
        let buf = assemble(&encode_condensed, &g);
        let try_decode = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let dec = ChunkDecoder::decode(&mut r)?;
            decode_condensed(&mut r, &dec)
        };
        // Truncations at every prefix either decode cleanly (never, given
        // trailing data checks happen in the caller) or error — no panic.
        for cut in 0..buf.len() {
            let _ = try_decode(&buf[..cut]);
        }
        // Flip each byte and make sure decode never panics.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            let _ = try_decode(&bad);
        }
    }

    /// Identical chunks — whether `Arc`-shared between two stores or merely
    /// byte-identical from distinct allocations — are written to the chunk
    /// table once, and decode rebuilds every referencing store onto the
    /// **same** `Arc`.
    #[test]
    fn shared_chunks_are_written_once_and_rebuilt_shared() {
        use crate::chunk::CHUNK_LEN;
        // 3 full chunks of real slots, every list identical across chunks
        // (each node points at virtual node 0) -> the per-store payload
        // dedups to ONE distinct real chunk; plus one virtual chunk.
        let n = CHUNK_LEN * 3;
        let mut b = CondensedBuilder::new(n);
        let v = b.add_virtual();
        for u in 0..n as u32 {
            b.real_to_virtual(RealId(u), v);
        }
        let g = b.build();
        // Encode the graph AND a clone through one encoder — the clone
        // shares every Arc, so the encoder meets each chunk twice by
        // pointer and must still write it once.
        let clone = g.clone();
        let mut enc = ChunkEncoder::new();
        let mut body = Vec::new();
        encode_condensed(&g, &mut enc, &mut body);
        encode_condensed(&clone, &mut enc, &mut body);
        let mut buf = Vec::new();
        enc.finish_into(&mut buf);
        buf.extend_from_slice(&body);

        let mut r = Reader::new(&buf);
        let dec = ChunkDecoder::decode(&mut r).expect("chunk table");
        // 6 referenced real chunks + 2 virtual references, all collapsing
        // to 1 real + 1 virtual distinct payload.
        assert_eq!(dec.chunk_count(), 2, "identical chunks not deduplicated");
        let back_a = decode_condensed(&mut r, &dec).expect("decode a");
        let back_b = decode_condensed(&mut r, &dec).expect("decode b");
        r.expect_end().expect("no trailing bytes");
        // Rebuilt shared: across the two stores *and* within one store.
        assert_eq!(
            back_a
                .real_out_chunks()
                .shared_chunks_with(back_b.real_out_chunks()),
            3
        );
        assert!(std::sync::Arc::ptr_eq(
            &back_a.real_out_chunks().chunks()[0],
            &back_a.real_out_chunks().chunks()[1]
        ));
        assert_eq!(expand_to_edge_list(&back_a), expand_to_edge_list(&g));
        assert_eq!(expand_to_edge_list(&back_b), expand_to_edge_list(&g));
    }

    /// A decoded graph stays fully mutable: writing through the CoW surface
    /// after decode must not disturb sibling stores rebuilt on shared
    /// chunks.
    #[test]
    fn decoded_shared_chunks_cow_on_write() {
        use crate::chunk::CHUNK_LEN;
        let n = CHUNK_LEN * 2;
        let mut b = CondensedBuilder::new(n);
        let v = b.add_virtual();
        for u in 0..n as u32 {
            b.real_to_virtual(RealId(u), v);
        }
        let g = b.build();
        let mut back = roundtrip_chunked(encode_condensed, decode_condensed, &g);
        // Both chunks decode to one Arc; a write must unshare only one.
        back.insert_direct(RealId(0), RealId(1));
        assert!(back.exists_edge(RealId(0), RealId(1)));
        // Slot CHUNK_LEN lives in the *other* (still shared) chunk and is
        // untouched.
        assert_eq!(
            back.real_out(RealId(CHUNK_LEN as u32)),
            g.real_out(RealId(CHUNK_LEN as u32))
        );
    }
}
