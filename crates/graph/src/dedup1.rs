//! DEDUP-1: the condensed, structurally deduplicated representation (§4.3).
//!
//! Identical storage to C-DUP, but the deduplication algorithms of §5.2 have
//! rewired it so that **at most one directed path** connects any ordered
//! pair of distinct real nodes. `getNeighbors` is therefore a plain DFS with
//! no hashset — the representation "maintains the simplicity of C-DUP and
//! can easily be serialized and used by other systems" while dropping the
//! per-call dedup overhead.

use crate::api::{GraphRep, RepKind};
use crate::cdup::CondensedGraph;
use crate::ids::RealId;

/// A deduplicated condensed graph. Constructed by the algorithms in
/// `graphgen-dedup`; the `new_unchecked` constructor trusts the caller (and
/// `graphgen-graph::validate::validate_dedup1` verifies the invariant in
/// tests).
#[derive(Debug, Clone)]
pub struct Dedup1Graph {
    inner: CondensedGraph,
}

impl Dedup1Graph {
    /// Wrap a condensed graph the caller guarantees is duplication-free.
    pub fn new_unchecked(inner: CondensedGraph) -> Self {
        Self { inner }
    }

    /// The underlying condensed structure.
    pub fn core(&self) -> &CondensedGraph {
        &self.inner
    }

    /// Unwrap.
    pub fn into_condensed(self) -> CondensedGraph {
        self.inner
    }

    /// Number of virtual nodes.
    pub fn num_virtual(&self) -> usize {
        self.inner.num_virtual()
    }
}

impl GraphRep for Dedup1Graph {
    fn kind(&self) -> RepKind {
        RepKind::Dedup1
    }

    fn num_real_slots(&self) -> usize {
        self.inner.num_real_slots()
    }

    fn is_alive(&self, u: RealId) -> bool {
        self.inner.is_alive(u)
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        // No seen-hashset: the structural invariant guarantees each distinct
        // neighbor is reached exactly once. (Self-paths may still exist —
        // co-occurrence structures connect u back to itself — so `u` is
        // filtered, and deleted targets are skipped.)
        let mut stack: Vec<u32> = Vec::new();
        for a in self.inner.real_out(u) {
            if let Some(r) = a.as_real() {
                if r != u && self.inner.is_alive(r) {
                    f(r);
                }
            } else if let Some(v) = a.as_virtual() {
                stack.push(v.0);
            }
        }
        while let Some(x) = stack.pop() {
            for a in self.inner.virt_out(crate::ids::VirtId(x)) {
                if let Some(r) = a.as_real() {
                    if r != u && self.inner.is_alive(r) {
                        f(r);
                    }
                } else if let Some(v) = a.as_virtual() {
                    stack.push(v.0);
                }
            }
        }
    }

    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        self.inner.exists_edge(u, v)
    }

    fn add_vertex(&mut self) -> RealId {
        self.inner.add_vertex()
    }

    fn delete_vertex(&mut self, u: RealId) {
        self.inner.delete_vertex(u)
    }

    fn revive_vertex(&mut self, u: RealId) {
        self.inner.revive_vertex(u)
    }

    fn compact(&mut self) {
        self.inner.compact()
    }

    fn add_edge(&mut self, u: RealId, v: RealId) {
        // A direct edge can only be added if no path exists — preserved by
        // the same check C-DUP does.
        self.inner.add_edge(u, v)
    }

    fn delete_edge(&mut self, u: RealId, v: RealId) {
        self.inner.delete_edge(u, v)
    }

    fn stored_edge_count(&self) -> u64 {
        self.inner.stored_edge_count()
    }

    fn stored_node_count(&self) -> usize {
        self.inner.stored_node_count()
    }

    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn as_condensed(&self) -> Option<&CondensedGraph> {
        Some(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CondensedBuilder;

    /// A hand-deduplicated version of the Fig. 1 graph: p2 (={a1,a4}) is
    /// redundant with p1, so its paths are dropped.
    fn fig1_dedup1() -> Dedup1Graph {
        let mut b = CondensedBuilder::new(5);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        Dedup1Graph::new_unchecked(b.build())
    }

    #[test]
    fn iteration_without_hashset_matches_semantics() {
        let g = fig1_dedup1();
        let mut n0 = g.neighbors(RealId(0));
        n0.sort();
        assert_eq!(n0, vec![RealId(1), RealId(3)]);
        let mut n3 = g.neighbors(RealId(3));
        n3.sort();
        assert_eq!(n3, vec![RealId(0), RealId(1), RealId(2), RealId(4)]);
    }

    #[test]
    fn invariant_holds() {
        let g = fig1_dedup1();
        assert!(crate::validate::validate_dedup1(&g).is_ok());
    }

    #[test]
    fn mutations_delegate() {
        let mut g = fig1_dedup1();
        let v = g.add_vertex();
        g.add_edge(v, RealId(0));
        assert!(g.exists_edge(v, RealId(0)));
        g.delete_edge(v, RealId(0));
        assert!(!g.exists_edge(v, RealId(0)));
        g.delete_vertex(RealId(4));
        assert!(!g.neighbors(RealId(3)).contains(&RealId(4)));
        assert!(crate::validate::validate_dedup1(&g).is_ok());
    }

    #[test]
    fn kind_and_counts() {
        let g = fig1_dedup1();
        assert_eq!(g.kind(), RepKind::Dedup1);
        assert_eq!(g.num_virtual(), 2);
        // pairs {01,03,13,23,24,34} × 2 directions; dropping p2 loses nothing
        // because p1 already connects a1–a4.
        assert_eq!(g.expanded_edge_count(), 12);
    }
}
