//! The representation-independent graph API (§3.4 of the paper).
//!
//! The paper exposes seven operations — `getVertices`, `getNeighbors`,
//! `existsEdge`, `addEdge`, `deleteEdge`, `addVertex`, `deleteVertex` — that
//! every in-memory representation implements, so that graph algorithms and
//! the vertex-centric framework run unchanged on any of them.
//!
//! Neighbor access comes in two forms: `for_each_neighbor` (the hot path
//! used by algorithms — no allocation, no dynamic iterator) and `neighbors`
//! (the convenience materializing form, the paper's `.toList`). Both yield
//! each **distinct live** logical out-neighbor exactly once, excluding the
//! vertex itself.

use crate::cdup::CondensedGraph;
use crate::ids::RealId;
use std::fmt;

/// Which representation a graph value is (for reporting and dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepKind {
    /// Condensed with duplicates, on-the-fly dedup (C-DUP).
    CDup,
    /// Fully expanded (EXP).
    Exp,
    /// Condensed, structurally deduplicated (DEDUP-1).
    Dedup1,
    /// Single-layer symmetric optimization (DEDUP-2).
    Dedup2,
    /// Condensed with per-source bitmaps (BITMAP).
    Bitmap,
}

impl RepKind {
    /// All five representations, in the paper's Fig. 10 order.
    pub fn all() -> [RepKind; 5] {
        [
            RepKind::CDup,
            RepKind::Exp,
            RepKind::Dedup1,
            RepKind::Dedup2,
            RepKind::Bitmap,
        ]
    }

    /// The paper's name for the representation.
    pub fn label(self) -> &'static str {
        match self {
            RepKind::CDup => "C-DUP",
            RepKind::Exp => "EXP",
            RepKind::Dedup1 => "DEDUP-1",
            RepKind::Dedup2 => "DEDUP-2",
            RepKind::Bitmap => "BITMAP",
        }
    }

    /// Parse a representation name, round-tripping [`RepKind::label`].
    /// Lenient about case and `-`/`_` separators (`"C-DUP"`, `"cdup"`, and
    /// `"dedup_1"` all parse), so CLI-style callers can take user input.
    pub fn from_label(s: &str) -> Option<RepKind> {
        let normalized: String = s
            .chars()
            .filter(|c| !matches!(c, '-' | '_'))
            .map(|c| c.to_ascii_uppercase())
            .collect();
        match normalized.as_str() {
            "CDUP" => Some(RepKind::CDup),
            "EXP" => Some(RepKind::Exp),
            "DEDUP1" => Some(RepKind::Dedup1),
            "DEDUP2" => Some(RepKind::Dedup2),
            "BITMAP" => Some(RepKind::Bitmap),
            _ => None,
        }
    }
}

impl fmt::Display for RepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The 7-operation representation-independent graph API, plus the metadata
/// accessors (node/edge counts, memory) the experiments report.
pub trait GraphRep {
    /// Which representation this is.
    fn kind(&self) -> RepKind;

    /// Total real-node slots ever allocated (including lazily deleted ones).
    /// Valid `RealId`s are `0..num_real_slots()`.
    fn num_real_slots(&self) -> usize;

    /// Is this real node currently in the graph?
    fn is_alive(&self, u: RealId) -> bool;

    /// Number of live real nodes.
    fn num_vertices(&self) -> usize;

    /// Iterate over the live real nodes (the paper's `getVertices`).
    fn vertices(&self) -> Box<dyn Iterator<Item = RealId> + '_> {
        Box::new(
            (0..self.num_real_slots() as u32)
                .map(RealId)
                .filter(move |&u| self.is_alive(u)),
        )
    }

    /// Visit every distinct live out-neighbor of `u` exactly once
    /// (the paper's `getNeighbors` iterator; self is never visited).
    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId));

    /// Materialize the out-neighbors of `u` (the paper's
    /// `getNeighbors(v).toList`).
    fn neighbors(&self, u: RealId) -> Vec<RealId> {
        let mut out = Vec::new();
        self.for_each_neighbor(u, &mut |v| out.push(v));
        out
    }

    /// Out-degree of `u` (number of distinct logical out-neighbors).
    fn degree(&self, u: RealId) -> usize {
        let mut n = 0usize;
        self.for_each_neighbor(u, &mut |_| n += 1);
        n
    }

    /// Is there a logical edge `u → v`?
    fn exists_edge(&self, u: RealId, v: RealId) -> bool;

    /// Add a new isolated vertex, returning its id.
    fn add_vertex(&mut self) -> RealId;

    /// Logically remove a vertex (lazy deletion: it disappears from
    /// iteration and neighbor lists immediately; physical storage is
    /// reclaimed by [`GraphRep::compact`]).
    fn delete_vertex(&mut self, u: RealId);

    /// Undo a lazy [`GraphRep::delete_vertex`]: mark the slot live again.
    /// Whatever adjacency the slot still physically holds becomes visible
    /// again — the incremental maintenance layer relies on this to
    /// re-materialize a node whose key reappears in the base tables without
    /// rebuilding its edges. No-op if `u` is already alive.
    fn revive_vertex(&mut self, u: RealId);

    /// Physically reclaim storage for lazily deleted vertices. Ids are
    /// stable (slots are cleared, not reindexed), matching the paper's
    /// batched rebuild.
    fn compact(&mut self);

    /// Add the logical edge `u → v` (no-op if it already exists).
    fn add_edge(&mut self, u: RealId, v: RealId);

    /// Remove the logical edge `u → v` (and only it: other sources sharing
    /// virtual nodes keep their edges).
    fn delete_edge(&mut self, u: RealId, v: RealId);

    /// Number of edges in the fully expanded graph (distinct real pairs).
    fn expanded_edge_count(&self) -> u64 {
        let mut n = 0u64;
        for u in self.vertices() {
            self.for_each_neighbor(u, &mut |_| n += 1);
        }
        n
    }

    /// Number of *physically stored* edges (what Fig. 10 plots).
    fn stored_edge_count(&self) -> u64;

    /// Total nodes stored: real + virtual (what Fig. 10 plots).
    fn stored_node_count(&self) -> usize;

    /// Estimated heap bytes of the structure (Table 3 / Table 4 memory).
    fn heap_bytes(&self) -> usize;

    /// The condensed structure this representation stores, if it keeps one:
    /// C-DUP itself, and the core under DEDUP-1 and BITMAP. EXP and DEDUP-2
    /// keep none. Kernels that compute on the structure instead of through
    /// [`GraphRep::for_each_neighbor`] dispatch on it.
    fn as_condensed(&self) -> Option<&CondensedGraph> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repkind_labels() {
        assert_eq!(RepKind::CDup.label(), "C-DUP");
        assert_eq!(RepKind::Exp.label(), "EXP");
        assert_eq!(RepKind::Dedup1.label(), "DEDUP-1");
        assert_eq!(RepKind::Dedup2.label(), "DEDUP-2");
        assert_eq!(RepKind::Bitmap.label(), "BITMAP");
    }

    #[test]
    fn repkind_display_matches_label() {
        for kind in RepKind::all() {
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn repkind_labels_round_trip() {
        for kind in RepKind::all() {
            assert_eq!(RepKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(RepKind::from_label("cdup"), Some(RepKind::CDup));
        assert_eq!(RepKind::from_label("dedup_1"), Some(RepKind::Dedup1));
        assert_eq!(RepKind::from_label("Bitmap"), Some(RepKind::Bitmap));
        assert_eq!(RepKind::from_label("nope"), None);
        assert_eq!(RepKind::from_label(""), None);
    }
}
