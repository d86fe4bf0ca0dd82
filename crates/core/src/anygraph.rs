//! Runtime-chosen representation.
//!
//! The paper's system picks a representation per dataset / per analysis
//! (§6.5). [`AnyGraph`] is the dynamic wrapper: it holds any of the five
//! representations and implements the full [`GraphRep`] API by dispatch.
//! Moving **between** representations is the job of
//! [`crate::GraphHandle::convert`] — the typed, single entry point that
//! replaced the old scatter of `Option`-returning `to_*` methods here.

use graphgen_graph::{
    BitmapGraph, CondensedGraph, Dedup1Graph, Dedup2Graph, ExpandedGraph, GraphRep, RealId, RepKind,
};

/// Any of the five in-memory representations.
#[derive(Debug, Clone)]
pub enum AnyGraph {
    /// Condensed with duplicates.
    CDup(CondensedGraph),
    /// Fully expanded.
    Exp(ExpandedGraph),
    /// Structurally deduplicated condensed.
    Dedup1(Dedup1Graph),
    /// Single-layer symmetric optimization.
    Dedup2(Dedup2Graph),
    /// Condensed with traversal bitmaps.
    Bitmap(BitmapGraph),
}

impl AnyGraph {
    fn inner(&self) -> &dyn GraphRep {
        match self {
            AnyGraph::CDup(g) => g,
            AnyGraph::Exp(g) => g,
            AnyGraph::Dedup1(g) => g,
            AnyGraph::Dedup2(g) => g,
            AnyGraph::Bitmap(g) => g,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn GraphRep {
        match self {
            AnyGraph::CDup(g) => g,
            AnyGraph::Exp(g) => g,
            AnyGraph::Dedup1(g) => g,
            AnyGraph::Dedup2(g) => g,
            AnyGraph::Bitmap(g) => g,
        }
    }

    /// [`GraphRep::as_condensed`], callable without the trait in scope.
    pub fn as_condensed(&self) -> Option<&CondensedGraph> {
        GraphRep::as_condensed(self)
    }
}

impl From<CondensedGraph> for AnyGraph {
    fn from(g: CondensedGraph) -> Self {
        AnyGraph::CDup(g)
    }
}

impl From<ExpandedGraph> for AnyGraph {
    fn from(g: ExpandedGraph) -> Self {
        AnyGraph::Exp(g)
    }
}

impl From<Dedup1Graph> for AnyGraph {
    fn from(g: Dedup1Graph) -> Self {
        AnyGraph::Dedup1(g)
    }
}

impl From<Dedup2Graph> for AnyGraph {
    fn from(g: Dedup2Graph) -> Self {
        AnyGraph::Dedup2(g)
    }
}

impl From<BitmapGraph> for AnyGraph {
    fn from(g: BitmapGraph) -> Self {
        AnyGraph::Bitmap(g)
    }
}

impl GraphRep for AnyGraph {
    fn kind(&self) -> RepKind {
        self.inner().kind()
    }
    fn num_real_slots(&self) -> usize {
        self.inner().num_real_slots()
    }
    fn is_alive(&self, u: RealId) -> bool {
        self.inner().is_alive(u)
    }
    fn num_vertices(&self) -> usize {
        self.inner().num_vertices()
    }
    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        self.inner().for_each_neighbor(u, f)
    }
    fn neighbors(&self, u: RealId) -> Vec<RealId> {
        self.inner().neighbors(u)
    }
    fn degree(&self, u: RealId) -> usize {
        self.inner().degree(u)
    }
    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        self.inner().exists_edge(u, v)
    }
    fn add_vertex(&mut self) -> RealId {
        self.inner_mut().add_vertex()
    }
    fn delete_vertex(&mut self, u: RealId) {
        self.inner_mut().delete_vertex(u)
    }
    fn revive_vertex(&mut self, u: RealId) {
        self.inner_mut().revive_vertex(u)
    }
    fn compact(&mut self) {
        self.inner_mut().compact()
    }
    fn add_edge(&mut self, u: RealId, v: RealId) {
        self.inner_mut().add_edge(u, v)
    }
    fn delete_edge(&mut self, u: RealId, v: RealId) {
        self.inner_mut().delete_edge(u, v)
    }
    fn expanded_edge_count(&self) -> u64 {
        self.inner().expanded_edge_count()
    }
    fn stored_edge_count(&self) -> u64 {
        self.inner().stored_edge_count()
    }
    fn stored_node_count(&self) -> usize {
        self.inner().stored_node_count()
    }
    fn heap_bytes(&self) -> usize {
        self.inner().heap_bytes()
    }
    fn as_condensed(&self) -> Option<&CondensedGraph> {
        self.inner().as_condensed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::CondensedBuilder;

    fn sample() -> AnyGraph {
        let mut b = CondensedBuilder::new(5);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(0), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        AnyGraph::CDup(b.build())
    }

    #[test]
    fn dispatch_works() {
        let mut g = sample();
        assert_eq!(g.kind(), RepKind::CDup);
        assert_eq!(g.num_vertices(), 5);
        assert!(g.exists_edge(RealId(0), RealId(3)));
        let v = g.add_vertex();
        g.add_edge(v, RealId(0));
        assert!(g.exists_edge(v, RealId(0)));
        g.delete_vertex(v);
        assert_eq!(g.num_vertices(), 5);
    }

    #[test]
    fn condensed_core_visibility() {
        let g = sample();
        assert!(g.as_condensed().is_some());
        let exp = AnyGraph::Exp(ExpandedGraph::from_rep(&g));
        assert_eq!(exp.kind(), RepKind::Exp);
        assert!(exp.as_condensed().is_none());
    }

    #[test]
    fn from_impls_wrap_the_right_variant() {
        let core = match sample() {
            AnyGraph::CDup(g) => g,
            _ => unreachable!(),
        };
        assert_eq!(AnyGraph::from(core.clone()).kind(), RepKind::CDup);
        assert_eq!(
            AnyGraph::from(ExpandedGraph::from_rep(&core)).kind(),
            RepKind::Exp
        );
    }
}
