//! Runtime-chosen representation.
//!
//! The paper's system picks a representation per dataset / per analysis
//! (§6.5). [`AnyGraph`] is the dynamic wrapper: it holds any of the five
//! representations and dereferences to the one it holds as a
//! `dyn GraphRep`, so `graph.as_condensed()` or `graph.degree(u)` reach
//! the concrete representation's own method. [`crate::GraphHandle`] is the
//! graph API's one forwarding layer; moving **between** representations is
//! the job of [`crate::GraphHandle::convert`].

use graphgen_graph::{
    BitmapGraph, CondensedGraph, Dedup1Graph, Dedup2Graph, ExpandedGraph, GraphRep,
};
use std::ops::{Deref, DerefMut};

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

impl Deref for AnyGraph {
    type Target = dyn GraphRep;

    fn deref(&self) -> &Self::Target {
        match self {
            AnyGraph::CDup(g) => g,
            AnyGraph::Exp(g) => g,
            AnyGraph::Dedup1(g) => g,
            AnyGraph::Dedup2(g) => g,
            AnyGraph::Bitmap(g) => g,
        }
    }
}

impl DerefMut for AnyGraph {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            AnyGraph::CDup(g) => g,
            AnyGraph::Exp(g) => g,
            AnyGraph::Dedup1(g) => g,
            AnyGraph::Dedup2(g) => g,
            AnyGraph::Bitmap(g) => g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{CondensedBuilder, RealId, RepKind};

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
        let exp = AnyGraph::Exp(ExpandedGraph::from_rep(&*g));
        assert_eq!(exp.kind(), RepKind::Exp);
        assert!(exp.as_condensed().is_none());
    }
}
