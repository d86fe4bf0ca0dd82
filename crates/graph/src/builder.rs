//! Assembling condensed graphs.
//!
//! The extraction layer (and the synthetic generators, and the tests) build
//! condensed graphs edge-by-edge through a [`CondensedBuilder`], which then
//! produces an immutable-shaped [`CondensedGraph`] with sorted, deduplicated
//! adjacency lists (the paper keeps neighbor lists sorted — §5.2.2).

use crate::cdup::CondensedGraph;
use crate::ids::{Adj, RealId, VirtId};

/// Incrementally builds a [`CondensedGraph`].
#[derive(Debug, Clone)]
pub struct CondensedBuilder {
    real_out: Vec<Vec<Adj>>,
    virt_out: Vec<Vec<Adj>>,
}

impl CondensedBuilder {
    /// Start a builder with `n_real` real nodes and no virtual nodes.
    pub fn new(n_real: usize) -> Self {
        Self {
            real_out: vec![Vec::new(); n_real],
            virt_out: Vec::new(),
        }
    }

    /// Number of real nodes.
    pub fn num_real(&self) -> usize {
        self.real_out.len()
    }

    /// Number of virtual nodes created so far.
    pub fn num_virtual(&self) -> usize {
        self.virt_out.len()
    }

    /// Create a fresh virtual node, returning its id.
    pub fn add_virtual(&mut self) -> VirtId {
        self.virt_out.push(Vec::new());
        VirtId(self.virt_out.len() as u32 - 1)
    }

    /// Edge from a real source to a virtual node (`u_s → V`).
    pub fn real_to_virtual(&mut self, u: RealId, v: VirtId) {
        self.real_out[u.0 as usize].push(Adj::virt(v));
    }

    /// Edge from a virtual node to a real target (`V → u_t`).
    pub fn virtual_to_real(&mut self, v: VirtId, u: RealId) {
        self.virt_out[v.0 as usize].push(Adj::real(u));
    }

    /// Edge between two virtual nodes (`V → W`, multi-layer graphs).
    pub fn virtual_to_virtual(&mut self, v: VirtId, w: VirtId) {
        self.virt_out[v.0 as usize].push(Adj::virt(w));
    }

    /// Direct real→real edge (`u_s → v_t`).
    pub fn direct(&mut self, u: RealId, v: RealId) {
        self.real_out[u.0 as usize].push(Adj::real(v));
    }

    /// Convenience: a "clique" virtual node connecting every member to every
    /// other member (the shape produced by co-occurrence extraction): each
    /// member gets `m → V` and `V → m`.
    pub fn clique(&mut self, members: &[RealId]) -> VirtId {
        let v = self.add_virtual();
        for &m in members {
            self.real_to_virtual(m, v);
            self.virtual_to_real(v, m);
        }
        v
    }

    /// Finish: sort + dedup all adjacency lists and wrap in a
    /// [`CondensedGraph`]. Panics (debug) if the virtual graph has a cycle —
    /// extraction queries are acyclic so condensed graphs are DAGs.
    pub fn build(mut self) -> CondensedGraph {
        for list in self.real_out.iter_mut().chain(self.virt_out.iter_mut()) {
            list.sort_unstable();
            list.dedup();
            list.shrink_to_fit();
        }
        let g = CondensedGraph::from_parts(self.real_out, self.virt_out);
        debug_assert!(
            crate::validate::validate_virtual_dag(&g).is_ok(),
            "condensed graph has a virtual-node cycle"
        );
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::GraphRep;

    #[test]
    fn clique_builder_produces_cooccurrence_shape() {
        let mut b = CondensedBuilder::new(3);
        b.clique(&[RealId(0), RealId(1), RealId(2)]);
        let g = b.build();
        assert_eq!(g.num_virtual(), 1);
        let mut n0 = g.neighbors(RealId(0));
        n0.sort();
        assert_eq!(n0, vec![RealId(1), RealId(2)]);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut b = CondensedBuilder::new(2);
        let v = b.add_virtual();
        b.real_to_virtual(RealId(0), v);
        b.real_to_virtual(RealId(0), v);
        b.virtual_to_real(v, RealId(1));
        let g = b.build();
        assert_eq!(g.stored_edge_count(), 2);
    }
}
