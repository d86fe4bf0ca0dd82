//! The first-class graph handle: the paper's representation-independent
//! analyst surface (§3.4, §6.5).
//!
//! A [`GraphHandle`] owns everything an extraction produced — the graph in
//! whatever representation it currently has, the dense-id ↔ original-key
//! mapping, the vertex properties, and the plan report — and is the **only**
//! way to move between representations:
//!
//! * [`GraphHandle::convert`] — explicit conversion to any [`RepKind`],
//!   with a typed [`ConvertError`] explaining *why* an infeasible request
//!   fails instead of a silent `None`;
//! * [`GraphHandle::advise`] — the paper's §6.5 representation chooser as
//!   a pure function of the graph's shape and an [`AdvisorPolicy`];
//! * [`GraphHandle::convert_to_advised`] — chooser + conversion in one
//!   step, the "system picks for you" default path.
//!
//! Key-space accessors ([`GraphHandle::neighbors_by_key`],
//! [`GraphHandle::degree_by_key`], [`GraphHandle::vertex_property`]) let
//! callers stay entirely in their own key domain and never touch raw
//! [`RealId`]s.

use crate::anygraph::AnyGraph;
use crate::error::{ConvertError, Error, PatchError};
use crate::extract::ExtractionReport;
use crate::incremental::{self, GraphPatch, IncrementalState, StateBytes};
use graphgen_common::{IdMap, VertexOrdering};
use graphgen_dedup::{
    bitmap2, flatten_to_single_layer, preprocess::should_expand, try_dedup2_greedy, Dedup1Algorithm,
};
use graphgen_graph::{
    CondensedGraph, ExpandedGraph, GraphRep, PropValue, Properties, RealId, RepKind,
};
use graphgen_reldb::{Delta, DeltaBatch, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Options for [`GraphHandle::convert`]. DEDUP-1 is always built by
/// Greedy-VNF and DEDUP-2 by the greedy constructor, both in descending
/// degree order with seed 0, and BITMAP by BITMAP-2: the paper's Fig. 10
/// configuration. Fig. 12's sweeps call the constructors directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvertOptions {
    /// Automatically flatten multi-layer sources before DEDUP-1/DEDUP-2
    /// (§5.2.2's suggested route). When `false` (the default), a
    /// multi-layer source reports [`ConvertError::MultiLayer`].
    pub flatten: bool,
}

/// Policy for the §6.5 representation chooser ([`GraphHandle::advise`]).
#[derive(Debug, Clone, Copy)]
pub struct AdvisorPolicy {
    /// Hand back EXP when the expanded graph is at most this factor larger
    /// than the condensed one (the paper uses 1.2 = +20%): small graphs are
    /// not worth the condensed machinery.
    pub expand_threshold: f64,
}

impl Default for AdvisorPolicy {
    fn default() -> Self {
        Self {
            expand_threshold: 1.2,
        }
    }
}

/// An extracted graph plus everything needed to use it: id ↔ key mapping,
/// vertex properties, and the plan report. See the module docs for the
/// conversion/advisor surface.
///
/// # Structural sharing
///
/// The id ↔ key mapping and the property store live behind `Arc`s, and a
/// condensed graph's adjacency is `Arc`-chunked (`graphgen_graph::chunk`),
/// so **cloning a handle is cheap** — `O(#chunks)` pointer bumps plus a
/// liveness-bit copy, never a traversal of the data. Mutations go
/// copy-on-write: patching one handle copies only the adjacency chunks the
/// delta lands in (and the id map / properties only if a node view
/// changed), leaving every other clone byte-identical to what it was. The
/// serving layer's delta-bound publish is built on exactly this contract;
/// [`GraphHandle::reader_clone`] is its publication primitive.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    graph: AnyGraph,
    ids: Arc<IdMap<Value>>,
    properties: Arc<Properties>,
    report: ExtractionReport,
    incremental: Option<Arc<IncrementalState>>,
}

impl GraphHandle {
    /// Assemble a handle from parts (the extractor's exit point; also handy
    /// for synthetic graphs in tests).
    pub(crate) fn from_parts(
        graph: AnyGraph,
        ids: IdMap<Value>,
        properties: Properties,
        report: ExtractionReport,
    ) -> Self {
        Self {
            graph,
            ids: Arc::new(ids),
            properties: Arc::new(properties),
            report,
            incremental: None,
        }
    }

    /// Assemble a handle that carries the delta-maintenance state beside
    /// the C-DUP graph it maintains (the incremental extractor's exit
    /// point).
    pub(crate) fn from_parts_incremental(
        graph: CondensedGraph,
        ids: IdMap<Value>,
        properties: Properties,
        report: ExtractionReport,
        state: IncrementalState,
    ) -> Self {
        Self {
            incremental: Some(Arc::new(state)),
            ..Self::from_parts(AnyGraph::CDup(graph), ids, properties, report)
        }
    }

    /// A structurally shared clone for serving **readers**: the graph's
    /// adjacency chunks, the id map, and the property store are `Arc`-shared
    /// with this handle (`O(#chunks)` pointer bumps), and the
    /// delta-maintenance state is *not* carried over. The clone therefore
    /// cannot [`GraphHandle::apply_delta`] — it is an immutable-by-intent
    /// serving view — and the writer that keeps patching this handle in
    /// place never pays a maintenance-state copy for having published it.
    /// Later patches copy-on-write only what they touch; the clone stays
    /// byte-identical ([`GraphHandle::canonical_bytes`]) to the moment it
    /// was taken.
    pub fn reader_clone(&self) -> GraphHandle {
        GraphHandle {
            graph: self.graph.clone(),
            ids: Arc::clone(&self.ids),
            properties: Arc::clone(&self.properties),
            report: self.report.clone(),
            incremental: None,
        }
    }

    /// The delta-maintenance state, if this handle carries one.
    #[cfg(test)]
    pub(crate) fn incremental_state(&self) -> Option<&IncrementalState> {
        self.incremental.as_deref()
    }

    /// The graph, in whatever representation the handle currently holds.
    /// `GraphHandle` also implements [`GraphRep`] directly, so most callers
    /// never need this.
    pub fn graph(&self) -> &AnyGraph {
        &self.graph
    }

    /// The dense node id ↔ original key mapping.
    pub fn ids(&self) -> &IdMap<Value> {
        &self.ids
    }

    /// Vertex properties from the `Nodes` statements.
    pub fn properties(&self) -> &Properties {
        &self.properties
    }

    /// Plan and timing report of the extraction that produced this handle.
    pub fn report(&self) -> &ExtractionReport {
        &self.report
    }

    /// Which representation the handle currently holds.
    pub fn kind(&self) -> RepKind {
        self.graph.kind()
    }

    // ---- incremental maintenance ---------------------------------------

    /// Where the delta-maintenance state's heap bytes live, by part
    /// (`None` for a plain handle). Observability: the serving layer sums
    /// it across graphs into the `graphgen_state_bytes` gauge.
    pub fn state_bytes(&self) -> Option<StateBytes> {
        self.incremental
            .as_deref()
            .map(IncrementalState::state_bytes)
    }

    /// True if this handle carries delta-maintenance state (extracted with
    /// `GraphGenConfig::incremental`), i.e. [`GraphHandle::apply_delta`]
    /// will work. Conversions do not carry the state: they are derived,
    /// read-only handles.
    pub fn is_incremental(&self) -> bool {
        self.incremental.is_some()
    }

    /// The base tables this handle's extraction spec reads (node views
    /// first, then chain atoms, deduplicated), or empty for
    /// non-incremental handles. A [`Delta`] against any other table is
    /// guaranteed to leave the handle untouched — the serving layer uses
    /// this to skip graphs a mutation batch cannot affect. Note the
    /// converse does not hold: a delta against a referenced table must be
    /// applied (it advances the maintenance state) even when it changes no
    /// visible edge.
    pub fn referenced_tables(&self) -> Vec<String> {
        self.incremental
            .as_deref()
            .map(IncrementalState::referenced_tables)
            .unwrap_or_default()
    }

    /// Patch the graph in place for one base-table [`Delta`] produced by
    /// the `reldb` mutation API, with work proportional to the delta — see
    /// [`crate::incremental`] for the propagation rules. Apply deltas in
    /// the order the database applied them.
    ///
    /// The maintenance state keys by the database's own ids, which every
    /// row of a delta carries beside its values: a delta applies only to
    /// handles extracted from the database that produced it. A delta
    /// decoded from its binary encoding carries values only; replay it
    /// through the database and apply the delta that returns.
    ///
    /// After any sequence of deltas the handle's canonical serialization
    /// ([`GraphHandle::canonical_bytes`]) is byte-identical to a
    /// from-scratch extraction on the mutated database.
    ///
    /// # Errors
    ///
    /// [`PatchError::NotIncremental`] if the handle has no maintenance
    /// state; [`PatchError::Inconsistent`] if the delta contradicts the
    /// maintained state (the handle should then be re-extracted — its
    /// contents are no longer trustworthy); [`PatchError::WithoutIds`] if a
    /// row carries no database ids, in which case nothing was applied.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<GraphPatch, Error> {
        let Some(state) = self.incremental.as_mut() else {
            return Err(PatchError::NotIncremental.into());
        };
        // Only `from_parts_incremental` attaches a state, beside a C-DUP,
        // and no API replaces a handle's graph:
        // `convert` returns a new handle without the state.
        let AnyGraph::CDup(graph) = &mut self.graph else {
            unreachable!("an incremental handle always holds its C-DUP");
        };
        // `make_mut` is free while the writer is the state's only owner
        // (reader clones never carry it); a fully shared clone pays one
        // state copy on its first patch and is sole owner afterwards.
        incremental::apply_delta_state(
            Arc::make_mut(state),
            graph,
            &mut self.ids,
            &mut self.properties,
            delta,
        )
    }

    /// Apply a multi-table [`DeltaBatch`] in one round-trip: every delta in
    /// batch order, with the per-delta [`GraphPatch`] counters merged. The
    /// serving layer's unit of application — one batch is one published
    /// version and one write-ahead-log record.
    ///
    /// # Errors
    ///
    /// Same contract as [`GraphHandle::apply_delta`]. A failure mid-batch
    /// leaves the handle partially patched and untrustworthy (re-extract),
    /// exactly like a failed single delta.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<GraphPatch, Error> {
        let mut total = GraphPatch::default();
        for delta in batch.deltas() {
            total.merge(&self.apply_delta(delta)?);
        }
        Ok(total)
    }

    /// A canonical, key-space byte serialization of the logical graph
    /// (sorted node keys with their properties, then sorted edge key
    /// pairs). Two handles over the same logical graph serialize to the
    /// same bytes regardless of representation, thread count, or whether
    /// they were patched or re-extracted — the equality the incremental
    /// oracle tests assert.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        crate::serialize::canonical_bytes(self)
    }

    // ---- key-space accessors -------------------------------------------

    /// Original key of a vertex.
    pub fn key_of(&self, u: RealId) -> &Value {
        self.ids.key_of(u.0)
    }

    /// Vertex by original key.
    pub fn vertex_of(&self, key: &Value) -> Option<RealId> {
        self.ids.get(key).map(RealId)
    }

    /// Out-neighbors of the vertex with this key, as keys. `None` if the
    /// key names no vertex.
    pub fn neighbors_by_key(&self, key: &Value) -> Option<Vec<&Value>> {
        let u = self.vertex_of(key)?;
        let mut out = Vec::new();
        self.graph
            .for_each_neighbor(u, &mut |v| out.push(self.ids.key_of(v.0)));
        Some(out)
    }

    /// Out-degree of the vertex with this key. `None` if the key names no
    /// vertex.
    pub fn degree_by_key(&self, key: &Value) -> Option<usize> {
        Some(self.graph.degree(self.vertex_of(key)?))
    }

    /// A property of the vertex with this key. `None` if the key names no
    /// vertex or the property is unset.
    pub fn vertex_property(&self, key: &Value, name: &str) -> Option<&PropValue> {
        self.properties.get(self.vertex_of(key)?, name)
    }

    // ---- conversion and the §6.5 advisor -------------------------------

    /// The condensed core the conversions work from, or the typed reason
    /// there is none.
    fn condensed_core(&self) -> Result<&CondensedGraph, ConvertError> {
        self.graph.as_condensed().ok_or(ConvertError::NotCondensed {
            from: self.graph.kind(),
        })
    }

    /// Convert to the requested representation. Every feasible conversion
    /// goes through here; infeasible ones explain themselves:
    ///
    /// | target | requirement | failure |
    /// |---|---|---|
    /// | `Exp` | none | — |
    /// | `CDup` | condensed core | [`ConvertError::NotCondensed`] |
    /// | `Bitmap` | condensed core | [`ConvertError::NotCondensed`] |
    /// | `Dedup1` | + single layer | [`ConvertError::MultiLayer`] |
    /// | `Dedup2` | + symmetric | [`ConvertError::Asymmetric`] |
    /// | any, from an incremental handle | as above, from its C-DUP | as above |
    ///
    /// Converting to the representation the handle already holds clones it.
    /// The id mapping, properties, and report carry over unchanged. The
    /// result is always a derived, read-only handle like
    /// [`GraphHandle::reader_clone`]: it carries no delta-maintenance state,
    /// so [`GraphHandle::apply_delta`] on it fails with
    /// [`PatchError::NotIncremental`]. An incremental handle keeps taking
    /// deltas on its C-DUP; convert again after patching it.
    pub fn convert(
        &self,
        target: RepKind,
        opts: &ConvertOptions,
    ) -> Result<GraphHandle, ConvertError> {
        // Same-representation requests clone as-is. This matters beyond
        // speed: DEDUP-2 retains no condensed core, so re-*constructing*
        // DEDUP-2 from a DEDUP-2 handle would be infeasible even though
        // holding it clearly is.
        if target == self.graph.kind() {
            return Ok(self.reader_clone());
        }
        let mut graph = match target {
            RepKind::Exp => AnyGraph::Exp(ExpandedGraph::from_rep(&*self.graph)),
            RepKind::CDup => AnyGraph::CDup(self.condensed_core()?.clone()),
            RepKind::Dedup1 => {
                let core = single_layer_of(self.condensed_core()?, opts)?;
                AnyGraph::Dedup1(Dedup1Algorithm::GreedyVnf.try_run(
                    &core,
                    VertexOrdering::Descending,
                    0,
                )?)
            }
            RepKind::Dedup2 => {
                let core = single_layer_of(self.condensed_core()?, opts)?;
                AnyGraph::Dedup2(try_dedup2_greedy(&core, VertexOrdering::Descending, 0)?)
            }
            RepKind::Bitmap => AnyGraph::Bitmap(bitmap2(self.condensed_core()?.clone()).0),
        };
        // The DEDUP constructors start every slot alive: carry the
        // source's deleted slots (a patched handle's, once a key left
        // every node view) over.
        for u in (0..self.graph.num_real_slots() as u32).map(RealId) {
            if !self.graph.is_alive(u) {
                graph.delete_vertex(u);
            }
        }
        Ok(GraphHandle {
            graph,
            ids: self.ids.clone(),
            properties: self.properties.clone(),
            report: self.report.clone(),
            incremental: None,
        })
    }

    /// The §6.5 chooser: which representation this graph should be held in
    /// under `policy`. The advice is always feasible for
    /// [`GraphHandle::convert`] (given default [`ConvertOptions`]).
    ///
    /// * no condensed core (already EXP, or DEDUP-2): keep what we have —
    ///   both are duplicate-free;
    /// * expansion within `policy.expand_threshold`: EXP — small graphs
    ///   don't repay the condensed machinery;
    /// * symmetric single-layer (the co-occurrence shape): DEDUP-2, the
    ///   smallest duplicate-free representation (Fig. 10);
    /// * other single-layer: DEDUP-1;
    /// * multi-layer: BITMAP — the only duplicate-free representation that
    ///   handles layered condensed graphs directly.
    pub fn advise(&self, policy: &AdvisorPolicy) -> RepKind {
        let Some(core) = self.graph.as_condensed() else {
            return self.graph.kind();
        };
        if should_expand(core, policy.expand_threshold) {
            return RepKind::Exp;
        }
        if core.is_single_layer() {
            return match graphgen_dedup::check_symmetric(core) {
                Ok(()) => RepKind::Dedup2,
                Err(_) => RepKind::Dedup1,
            };
        }
        RepKind::Bitmap
    }

    /// Chooser + conversion in one step: convert to whatever
    /// [`GraphHandle::advise`] picks. This is the transparent "the system
    /// decides" path of §6.5.
    pub fn convert_to_advised(
        &self,
        policy: &AdvisorPolicy,
        opts: &ConvertOptions,
    ) -> Result<GraphHandle, ConvertError> {
        self.convert(self.advise(policy), opts)
    }
}

/// A single-layer view of `core`: borrowed when already single-layer,
/// flattened (owned) when `opts.flatten` allows, [`ConvertError::MultiLayer`]
/// otherwise.
fn single_layer_of<'a>(
    core: &'a CondensedGraph,
    opts: &ConvertOptions,
) -> Result<Cow<'a, CondensedGraph>, ConvertError> {
    if core.is_single_layer() {
        Ok(Cow::Borrowed(core))
    } else if opts.flatten {
        Ok(Cow::Owned(flatten_to_single_layer(core)))
    } else {
        Err(ConvertError::MultiLayer)
    }
}

/// The handle is itself a graph: the 7-operation API dispatches to the
/// representation it currently holds, so algorithms take `&GraphHandle`
/// directly.
impl GraphRep for GraphHandle {
    fn kind(&self) -> RepKind {
        self.graph.kind()
    }
    fn num_real_slots(&self) -> usize {
        self.graph.num_real_slots()
    }
    fn is_alive(&self, u: RealId) -> bool {
        self.graph.is_alive(u)
    }
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }
    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        self.graph.for_each_neighbor(u, f)
    }
    fn neighbors(&self, u: RealId) -> Vec<RealId> {
        self.graph.neighbors(u)
    }
    fn degree(&self, u: RealId) -> usize {
        self.graph.degree(u)
    }
    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        self.graph.exists_edge(u, v)
    }
    fn add_vertex(&mut self) -> RealId {
        self.graph.add_vertex()
    }
    fn delete_vertex(&mut self, u: RealId) {
        self.graph.delete_vertex(u)
    }
    fn revive_vertex(&mut self, u: RealId) {
        self.graph.revive_vertex(u)
    }
    fn compact(&mut self) {
        self.graph.compact()
    }
    fn add_edge(&mut self, u: RealId, v: RealId) {
        self.graph.add_edge(u, v)
    }
    fn delete_edge(&mut self, u: RealId, v: RealId) {
        self.graph.delete_edge(u, v)
    }
    fn expanded_edge_count(&self) -> u64 {
        self.graph.expanded_edge_count()
    }
    fn stored_edge_count(&self) -> u64 {
        self.graph.stored_edge_count()
    }
    fn stored_node_count(&self) -> usize {
        self.graph.stored_node_count()
    }
    fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes()
    }
    fn as_condensed(&self) -> Option<&CondensedGraph> {
        self.graph.as_condensed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::{expand_to_edge_list, CondensedBuilder};

    fn handle_of(graph: AnyGraph) -> GraphHandle {
        let n = graph.num_real_slots();
        let mut ids = IdMap::new();
        for i in 0..n {
            ids.intern(Value::int(i as i64 * 10));
        }
        let mut properties = Properties::new(n);
        for i in 0..n {
            properties.set(
                RealId(i as u32),
                "Name",
                PropValue::Text(format!("n{i}").into()),
            );
        }
        GraphHandle::from_parts(graph, ids, properties, ExtractionReport::default())
    }

    fn symmetric_handle() -> GraphHandle {
        let mut b = CondensedBuilder::new(5);
        b.clique(&[RealId(0), RealId(1), RealId(3)]);
        b.clique(&[RealId(2), RealId(3), RealId(4)]);
        handle_of(AnyGraph::CDup(b.build()))
    }

    fn multilayer_handle() -> GraphHandle {
        let mut b = CondensedBuilder::new(4);
        let l1 = b.add_virtual();
        let l2 = b.add_virtual();
        b.virtual_to_virtual(l1, l2);
        for u in 0..3u32 {
            b.real_to_virtual(RealId(u), l1);
            b.virtual_to_real(l2, RealId(u + 1));
        }
        handle_of(AnyGraph::CDup(b.build()))
    }

    fn asymmetric_handle() -> GraphHandle {
        let mut b = CondensedBuilder::new(3);
        let v = b.add_virtual();
        b.real_to_virtual(RealId(0), v);
        b.virtual_to_real(v, RealId(1));
        handle_of(AnyGraph::CDup(b.build()))
    }

    /// Only *direct* real→real edges, and directed ones: `member_sets`'
    /// virtual-node scan is vacuous here, so the direct-edge symmetry check
    /// must be what refuses DEDUP-2.
    fn asymmetric_direct_handle() -> GraphHandle {
        let mut b = CondensedBuilder::new(3);
        b.direct(RealId(0), RealId(1));
        b.direct(RealId(2), RealId(1));
        handle_of(AnyGraph::CDup(b.build()))
    }

    #[test]
    fn directed_direct_edges_refuse_dedup2() {
        let h = asymmetric_direct_handle();
        let opts = ConvertOptions::default();
        // Regression: this used to return Ok with a corrupted edge set
        // (dropped (2,1), fabricated (1,0)).
        assert_eq!(
            h.convert(RepKind::Dedup2, &opts).unwrap_err(),
            ConvertError::Asymmetric
        );
        // The advisor must route such graphs to DEDUP-1 instead.
        let strict = AdvisorPolicy {
            expand_threshold: 0.0,
        };
        assert_eq!(h.advise(&strict), RepKind::Dedup1);
        let d1 = h.convert_to_advised(&strict, &opts).unwrap();
        assert_eq!(expand_to_edge_list(&d1), expand_to_edge_list(&h));
    }

    /// A handle forwards every defaulted `GraphRep` method to its inner
    /// representation instead of falling back to a neighbor walk.
    #[test]
    fn handle_answers_equal_its_inner_representation() {
        let mut h = symmetric_handle();
        h.delete_vertex(RealId(1));
        for target in RepKind::all() {
            let converted = h.convert(target, &ConvertOptions::default()).unwrap();
            let inner: &dyn GraphRep = match converted.graph() {
                AnyGraph::CDup(g) => g,
                AnyGraph::Exp(g) => g,
                AnyGraph::Dedup1(g) => g,
                AnyGraph::Dedup2(g) => g,
                AnyGraph::Bitmap(g) => g,
            };
            assert_eq!(
                converted.expanded_edge_count(),
                inner.expanded_edge_count(),
                "{target}"
            );
            for u in converted.vertices() {
                assert_eq!(converted.degree(u), inner.degree(u), "{target} {u:?}");
                assert_eq!(converted.neighbors(u), inner.neighbors(u), "{target} {u:?}");
            }
            let (got, want) = (converted.as_condensed(), inner.as_condensed());
            assert_eq!(got.is_some(), want.is_some(), "{target}");
            assert!(got.zip(want).is_none_or(|(a, b)| std::ptr::eq(a, b)));
            assert_eq!(
                got.is_some(),
                matches!(target, RepKind::CDup | RepKind::Dedup1 | RepKind::Bitmap),
                "{target}"
            );
        }
    }

    #[test]
    fn every_feasible_conversion_preserves_semantics() {
        let h = symmetric_handle();
        let truth = expand_to_edge_list(&h);
        let opts = ConvertOptions::default();
        for target in RepKind::all() {
            let converted = h.convert(target, &opts).unwrap();
            assert_eq!(converted.kind(), target);
            assert_eq!(expand_to_edge_list(&converted), truth, "{target}");
            // Ids and properties carry over.
            assert_eq!(converted.key_of(RealId(3)), &Value::int(30));
            assert_eq!(
                converted.vertex_property(&Value::int(30), "Name"),
                Some(&PropValue::Text("n3".into()))
            );
        }
    }

    /// Twenty random cliques over 40 real nodes: on this shape the dedup
    /// constructors' vertex order, and BITMAP-1 against BITMAP-2, change
    /// what is stored.
    fn dense_cliques_handle() -> GraphHandle {
        let mut rng = graphgen_common::SplitMix64::new(7);
        let mut b = CondensedBuilder::new(40);
        for _ in 0..20 {
            let size = rng.next_below(17);
            let members: Vec<RealId> = (0..size)
                .map(|_| RealId(rng.next_below(40) as u32))
                .collect();
            b.clique(&members);
        }
        handle_of(AnyGraph::CDup(b.build()))
    }

    /// `convert` builds DEDUP-1 with Greedy-VNF and DEDUP-2 with the greedy
    /// constructor, both in descending order with seed 0, and BITMAP with
    /// BITMAP-2. `Debug` prints every stored list (and BITMAP's bitmaps), so
    /// equal strings mean equal structures.
    #[test]
    fn default_conversions_equal_the_fixed_constructors() {
        for h in [
            symmetric_handle(),
            asymmetric_handle(),
            dense_cliques_handle(),
        ] {
            let core = h.as_condensed().unwrap();
            let descending = VertexOrdering::Descending;
            let direct = [
                (
                    RepKind::Dedup1,
                    Some(AnyGraph::Dedup1(
                        graphgen_dedup::greedy_virtual_nodes_first(core, descending, 0),
                    )),
                ),
                (
                    RepKind::Dedup2,
                    try_dedup2_greedy(core, descending, 0)
                        .ok()
                        .map(AnyGraph::Dedup2),
                ),
                (
                    RepKind::Bitmap,
                    Some(AnyGraph::Bitmap(bitmap2(core.clone()).0)),
                ),
            ];
            for (target, want) in direct {
                let got = h.convert(target, &ConvertOptions::default()).ok();
                assert_eq!(
                    got.as_ref().map(|g| format!("{:?}", g.graph())),
                    want.as_ref().map(|w| format!("{w:?}")),
                    "{target}"
                );
                assert_eq!(
                    got.map(|g| g.heap_bytes()),
                    want.map(|w| w.heap_bytes()),
                    "{target}"
                );
            }
        }
    }

    #[test]
    fn multilayer_source_reports_multilayer_for_dedup() {
        let h = multilayer_handle();
        let opts = ConvertOptions::default();
        assert_eq!(
            h.convert(RepKind::Dedup1, &opts).unwrap_err(),
            ConvertError::MultiLayer
        );
        assert_eq!(
            h.convert(RepKind::Dedup2, &opts).unwrap_err(),
            ConvertError::MultiLayer
        );
        // BITMAP handles multi-layer graphs directly.
        let bmp = h.convert(RepKind::Bitmap, &opts).unwrap();
        assert_eq!(expand_to_edge_list(&bmp), expand_to_edge_list(&h));
    }

    #[test]
    fn flatten_option_unlocks_multilayer_dedup1() {
        let h = multilayer_handle();
        let opts = ConvertOptions { flatten: true };
        let d1 = h.convert(RepKind::Dedup1, &opts).unwrap();
        assert_eq!(expand_to_edge_list(&d1), expand_to_edge_list(&h));
    }

    #[test]
    fn asymmetric_source_reports_asymmetric_for_dedup2() {
        let h = asymmetric_handle();
        let opts = ConvertOptions::default();
        assert_eq!(
            h.convert(RepKind::Dedup2, &opts).unwrap_err(),
            ConvertError::Asymmetric
        );
        // DEDUP-1 does not need symmetry.
        assert!(h.convert(RepKind::Dedup1, &opts).is_ok());
    }

    #[test]
    fn exp_source_reports_not_condensed() {
        let h = symmetric_handle();
        let opts = ConvertOptions::default();
        let exp = h.convert(RepKind::Exp, &opts).unwrap();
        for target in [
            RepKind::CDup,
            RepKind::Dedup1,
            RepKind::Dedup2,
            RepKind::Bitmap,
        ] {
            assert_eq!(
                exp.convert(target, &opts).unwrap_err(),
                ConvertError::NotCondensed { from: RepKind::Exp },
                "{target}"
            );
        }
        // EXP -> EXP still fine.
        assert!(exp.convert(RepKind::Exp, &opts).is_ok());
    }

    #[test]
    fn advise_is_always_feasible_and_shape_aware() {
        let opts = ConvertOptions::default();
        let policy = AdvisorPolicy::default();
        // Tiny symmetric graph: expansion is cheap.
        let h = symmetric_handle();
        assert_eq!(h.advise(&policy), RepKind::Exp);
        // Forbid expansion: symmetric single-layer -> DEDUP-2.
        let strict = AdvisorPolicy {
            expand_threshold: 0.0,
        };
        assert_eq!(h.advise(&strict), RepKind::Dedup2);
        // Asymmetric single-layer -> DEDUP-1.
        assert_eq!(asymmetric_handle().advise(&strict), RepKind::Dedup1);
        // Multi-layer -> BITMAP.
        assert_eq!(multilayer_handle().advise(&strict), RepKind::Bitmap);
        // convert_to_advised succeeds for every shape.
        for h in [symmetric_handle(), asymmetric_handle(), multilayer_handle()] {
            for policy in [policy, strict] {
                let advised = h.convert_to_advised(&policy, &opts).unwrap();
                assert_eq!(advised.kind(), h.advise(&policy));
                assert_eq!(expand_to_edge_list(&advised), expand_to_edge_list(&h));
            }
        }
    }

    #[test]
    fn same_kind_conversion_stays_feasible_without_a_core() {
        let opts = ConvertOptions::default();
        let strict = AdvisorPolicy {
            expand_threshold: 0.0,
        };
        // DEDUP-2 retains no condensed core, yet advise/convert on a
        // DEDUP-2 handle must keep the "advice is always feasible"
        // contract (regression: used to fail with NotCondensed).
        let d2 = symmetric_handle().convert(RepKind::Dedup2, &opts).unwrap();
        assert_eq!(d2.advise(&strict), RepKind::Dedup2);
        let again = d2.convert_to_advised(&strict, &opts).unwrap();
        assert_eq!(again.kind(), RepKind::Dedup2);
        assert_eq!(expand_to_edge_list(&again), expand_to_edge_list(&d2));
    }

    #[test]
    fn key_space_accessors_never_expose_real_ids() {
        let h = symmetric_handle();
        let mut nbrs = h.neighbors_by_key(&Value::int(30)).unwrap();
        nbrs.sort();
        assert_eq!(
            nbrs,
            vec![
                &Value::int(0),
                &Value::int(10),
                &Value::int(20),
                &Value::int(40)
            ]
        );
        assert_eq!(h.degree_by_key(&Value::int(30)), Some(4));
        assert_eq!(h.degree_by_key(&Value::int(999)), None);
        assert!(h.neighbors_by_key(&Value::int(999)).is_none());
        assert_eq!(
            h.vertex_property(&Value::int(0), "Name"),
            Some(&PropValue::Text("n0".into()))
        );
        assert_eq!(h.vertex_property(&Value::int(0), "Missing"), None);
    }
}
