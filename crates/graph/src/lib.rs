//! `graphgen-graph` — the in-memory graph representations of the GraphGen
//! paper (§4).
//!
//! The extraction layer produces a **condensed** graph: real nodes plus
//! *virtual nodes* standing for join-attribute values, such that a logical
//! edge `u → v` exists iff there is a directed path from `u` (as a source)
//! to `v` (as a target) through virtual nodes. This crate implements the
//! five ways the paper stores and operates on that graph:
//!
//! | Representation | Module | Duplication handling |
//! |---|---|---|
//! | C-DUP | [`cdup`] | on-the-fly hashset during iteration |
//! | EXP | [`exp`] | expanded, no virtual nodes |
//! | DEDUP-1 | [`dedup1`] | structurally at most one path per pair |
//! | DEDUP-2 | [`dedup2`] | single-layer symmetric w/ virtual-virtual edges |
//! | BITMAP | [`bitmap_rep`] | per-(source, virtual node) bitmaps mask edges |
//!
//! All of them implement [`GraphRep`], the Rust rendering of the paper's
//! 7-operation Java graph API, with lazy vertex deletion (plus
//! `revive_vertex`, the undo incremental maintenance uses when a node key
//! reappears). Logical edges are **directed** and never include self-loops
//! (co-occurrence extraction produces trivial self-paths `u → V → u`; all
//! representations and the equivalence tests uniformly exclude them).

#![warn(missing_docs)]

pub mod api;
pub mod bitmap_rep;
pub mod builder;
pub mod cdup;
pub mod chunk;
pub mod dedup1;
pub mod dedup2;
pub mod exp;
pub mod ids;
pub mod properties;
pub mod validate;

pub use api::{GraphRep, RepKind};
pub use bitmap_rep::BitmapGraph;
pub use builder::CondensedBuilder;
pub use cdup::CondensedGraph;
pub use chunk::{AdjChunk, ChunkedAdj, CHUNK_LEN};
pub use dedup1::Dedup1Graph;
pub use dedup2::Dedup2Graph;
pub use exp::ExpandedGraph;
pub use ids::{Adj, RealId, VirtId};
pub use properties::{PropValue, Properties};

/// Collect the full expanded (deduplicated, self-loop-free) directed edge
/// set of any representation, sorted. This is the semantic ground truth the
/// property tests compare across representations.
pub fn expand_to_edge_list<G: GraphRep + ?Sized>(g: &G) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for u in g.vertices() {
        g.for_each_neighbor(u, &mut |v| edges.push((u.0, v.0)));
    }
    edges.sort_unstable();
    edges.dedup(); // representations should not emit duplicates; be safe
    edges
}
