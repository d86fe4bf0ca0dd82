//! Incremental extraction: maintain the hidden graph under base-table
//! updates instead of re-running the segment queries from scratch.
//!
//! The paper's GraphGen treats the database as read-only; the ROADMAP flags
//! from-scratch re-extraction as the next scaling ceiling for serving live
//! traffic. This module applies FO+MOD-style delta processing (Berkholz et
//! al., PAPERS.md) to the extraction plan: a [`Delta`] produced by the
//! `reldb` mutation API is pushed through every segment query with work
//! proportional to the delta, and the condensed graph is patched in place.
//!
//! # How a delta propagates
//!
//! Extraction compiles each `Edges` chain into segment queries
//! `res_j(x, y) :- S_1(x, a_1), …, S_m(a_{m-1}, y)` (see
//! [`crate::planner`]). For each segment the [`IncrementalState`] maintains:
//!
//! * per **atom relation**: the filtered, projected pairs of the base table
//!   as a multiset, in each orientation a delta join walks it — keyed by
//!   `out` for every atom but a segment's last, by `in` for every atom but
//!   its first — once per relation and orientation however many atoms read
//!   it (a self-join's two atoms share one bag);
//! * per **segment**: the bag multiplicity (`support`) of every output
//!   pair, which makes `DISTINCT` incremental — a pair enters the graph
//!   when its support rises from zero and leaves when it returns to zero
//!   (the multiplicity the grouping operator counts);
//! * per **boundary** between segments: the virtual-node interning map
//!   (join-attribute value → [`VirtId`]).
//!
//! A delta against table `T` touches only the atoms scanning `T`. For each
//! changed atom, the signed delta rows are joined with the *unchanged*
//! sides — the prefix atoms at their post-update state, the suffix atoms at
//! their pre-update state (the classic telescoping sum), each probe walking
//! one id's run of an atom bag, morsel-parallel over the delta rows via
//! `graphgen_common::parallel` — so the work is `O(|Δ| × join fan-out)`,
//! never `O(|database|)`. A shared bag cannot be at both states at once,
//! so no bag changes until every changed atom has been walked: a prefix
//! atom is read as its bag plus the bag's change, and each bag then
//! advances once.
//!
//! # How the graph is patched
//!
//! One rule turns a segment output pair into a stored edge:
//! `crate::extract::segment_edge` (§4.2 Steps 4–5). Segment-0 pairs are
//! `real → virtual` membership edges, middle-segment pairs are
//! `virtual → virtual` edges, last-segment pairs are `virtual → real`
//! edges, and single-segment chains contribute direct `real → real` edges
//! (one edge however many chains output the pair). It has four callers:
//! batch extraction and the bulk load below (both through
//! `crate::extract::emit_segment`), a delta's support transitions — a pair
//! whose support rises from zero inserts its edge, one that returns to
//! zero removes it — and a new node, whose support run and reverse-index
//! run (`by_right`, or the first support where the chain mirrors itself)
//! are fed through it as first- and last-segment pairs. `Nodes`-view deltas
//! add, remove, or revive real vertices and re-derive their properties.
//!
//! The handle always holds the C-DUP graph extraction built — conversions
//! are derived, read-only handles (see [`crate::GraphHandle::convert`]) —
//! so every operation applies directly to it: a patch costs a handful of
//! sorted adjacency-list edits.
//!
//! Every keyed structure of the state — atom bags, supports, the reverse
//! index of a chain's last support where it is kept — is one
//! `CountedRuns`: the sorted, counted pairs the relational operators emit,
//! with per-left-id run offsets, plus a small overlay of the changes deltas
//! made since, folded back when it outgrows a fixed fraction of the runs.
//! How many single-segment chains output a pair (the reference count of
//! its direct edge) is a function of their supports, read from them where
//! needed and never kept beside them.
//!
//! Correctness contract: after any sequence of deltas, the patched handle's
//! canonical serialization ([`crate::serialize::canonical_bytes`]) is
//! byte-identical to a from-scratch extraction on the mutated database —
//! enforced by `tests/incremental_oracle.rs` at 1/2/8 threads.
//!
//! # How the state is first built
//!
//! The update routine above is not how the state reaches the current
//! database: `IncrementalState::bulk_load` is the separate linear
//! preprocessing phase. It scans every atom and node view once and computes
//! each segment's counted output with the operators batch extraction runs
//! its segment queries on — `graphgen_reldb::exec::{group_pairs,
//! join_counted, transpose_counted}`, over engine ids where
//! `Query::run_counted` uses database ids (a self-join's second atom takes
//! the first one's bag transposed, so its table is scanned once); the
//! multiplicities the batch path ignores are the supports kept here —
//! keeps the operators' output as the *primary* state (the grouped atom
//! bags become the segment's bags, each joined output the segment's
//! `support`, moved, not copied), and hands every segment's pairs to
//! `crate::extract::emit_segment`, as batch extraction does; the boundary
//! virtual nodes are numbered as the C-DUP is built through
//! [`CondensedBuilder`]. The reverse indexes — `by_right`, `bounds.index`
//! — are derived from the primary state by
//! `IncrementalState::derive_indexes`, the same function the snapshot
//! decoder ends with. The loader walks tables, chains, segments,
//! atoms and rows in the order a row-by-row replay through `apply_delta_state`
//! would, and emits the segments in the order they were completed, so the
//! engine dictionary and the virtual-node numbering — and with them every
//! encoded byte of the state — equal the replay's; that replay survives as
//! the `#[cfg(test)]` oracle of the `bulk_*` tests.

use crate::error::{Error, PatchError};
use crate::extract::{emit_segment, segment_edge, StoredEdge};
use crate::planner::{filters_to_predicate, ChainPlan};
use crate::runs::CountedRuns;
use graphgen_common::metrics::{span, Phase};
use graphgen_common::parallel::{effective_threads, map_morsels};
use graphgen_common::region::Region;
use graphgen_common::{ByteSize, FxHashMap, FxHashSet, IdMap};
use graphgen_dsl::GraphSpec;
use graphgen_graph::{
    CondensedBuilder, CondensedGraph, GraphRep, PropValue, Properties, RealId, VirtId,
};
use graphgen_reldb::exec::{
    group_pairs, join_counted, pack, scan_project, transpose_counted, unpack, CountedPairs,
};
use graphgen_reldb::{Database, Delta, DeltaOp, Interner, Predicate, Value, Vid, NULL_VID};

/// What [`crate::GraphHandle::apply_delta`] did, for reporting and
/// benchmarking. All counters are in units of applied operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphPatch {
    /// Fresh real vertices added for never-before-seen node keys.
    pub nodes_added: usize,
    /// Previously deleted vertices brought back by a re-appearing key.
    pub nodes_revived: usize,
    /// Vertices logically removed because their key left every node view.
    pub nodes_removed: usize,
    /// Virtual nodes created for new join-attribute values.
    pub virtuals_added: usize,
    /// Stored (condensed-level) edges inserted.
    pub stored_edges_added: usize,
    /// Stored (condensed-level) edges removed.
    pub stored_edges_removed: usize,
    /// Segment output pairs whose support changed, whether or not it
    /// crossed zero: the pairs-out of the delta, which bound the work of
    /// the support update.
    pub support_changes: usize,
}

impl GraphPatch {
    /// True if the delta changed nothing in the graph (support changes
    /// that cross no zero leave it as it was).
    pub fn is_empty(&self) -> bool {
        *self
            == GraphPatch {
                support_changes: self.support_changes,
                ..GraphPatch::default()
            }
    }

    /// Accumulate another patch's counters into this one (handy when
    /// applying a sequence of deltas and reporting totals).
    pub fn merge(&mut self, other: &GraphPatch) {
        self.nodes_added += other.nodes_added;
        self.nodes_revived += other.nodes_revived;
        self.nodes_removed += other.nodes_removed;
        self.virtuals_added += other.virtuals_added;
        self.stored_edges_added += other.stored_edges_added;
        self.stored_edges_removed += other.stored_edges_removed;
        self.support_changes += other.support_changes;
    }
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// One `Nodes` view with its filter pre-compiled to a [`Predicate`].
#[derive(Debug, Clone)]
struct ViewState {
    relation: String,
    id_col: usize,
    /// `(property name, column)` pairs from the view head.
    prop_cols: Vec<(String, usize)>,
    pred: Predicate,
}

/// One node-view row that yields a node key: the view's index and the
/// row's property values, aligned with the view's `prop_cols` (`None` for
/// a NULL cell, which sets nothing). The names are the view's, so a row
/// keeps none. A key's rows are kept so its properties can be re-derived
/// after a partial delete, and their count is the key's support.
#[derive(Debug, Clone, PartialEq)]
struct PropRow {
    view: usize,
    values: Box<[Option<PropValue>]>,
}

/// Append `row` to a key's rows, reallocated to the exact new length (a
/// key rarely has more than one row).
fn push_row(rows: &mut Box<[PropRow]>, row: PropRow) {
    let mut grown = Vec::with_capacity(rows.len() + 1);
    grown.extend(std::mem::take(rows).into_vec());
    grown.push(row);
    *rows = grown.into_boxed_slice();
}

/// One atom of a segment query: the filtered base table projected to its
/// `(in, out)` join columns. Its pairs live in the segment's `bags`, once
/// per orientation a delta join walks it in (see [`SegmentState::new`]).
#[derive(Debug, Clone)]
struct AtomState {
    table: String,
    pred: Predicate,
    in_col: usize,
    out_col: usize,
    /// The bag holding the pairs keyed by `in`, `(in, out) → multiplicity`:
    /// for every atom but a segment's first (the delta join of an atom to
    /// its left walks rightwards into it).
    by_in: Option<usize>,
    /// The bag holding the pairs keyed by `out`, `(out, in) →
    /// multiplicity`: for every atom but a segment's last.
    by_out: Option<usize>,
}

/// The maintained output of one segment query.
#[derive(Debug, Clone)]
struct SegmentState {
    atoms: Vec<AtomState>,
    /// One bag per atom relation — table, predicate and ordered column pair
    /// — that a delta join reads: atoms refer to them by index, and atoms
    /// over the same relation share one (a self-join's two atoms read the
    /// one `(p, a)` bag, the first by `out`, the second by `in`).
    bags: Vec<CountedRuns>,
    /// Bag multiplicity of each output pair `(l, r)` (the incremental
    /// `DISTINCT`); a left endpoint's run is its distinct output.
    support: CountedRuns,
}

/// The maintained state of one `Edges` chain.
#[derive(Debug, Clone)]
struct ChainState {
    segments: Vec<SegmentState>,
    bounds: Boundaries,
    /// `(r, l) → 1` for every pair of the last segment's support, whose
    /// right endpoints a new node looks itself up by. `None` when the last
    /// segment mirrors the first ([`mirrors`]): that support is the first
    /// segment's transposed, so the first's support is read instead.
    by_right: Option<CountedRuns>,
}

/// The virtual-node interning of a chain's boundaries between segments.
#[derive(Debug, Clone)]
struct Boundaries {
    /// Per boundary: interned id → boundary-local dense index (`u32::MAX` =
    /// not seen at this boundary), flat-indexed by id.
    index: Vec<Vec<u32>>,
    /// Per boundary: boundary-local index → the id it was allocated for
    /// (the interning order, persisted so recovery continues identically).
    keys: Vec<Vec<Vid>>,
    /// Per boundary: boundary-local index → allocated virtual node.
    virts: Vec<Vec<VirtId>>,
}

impl Boundaries {
    fn new(boundaries: usize) -> Self {
        Self {
            index: vec![Vec::new(); boundaries],
            keys: vec![Vec::new(); boundaries],
            virts: vec![Vec::new(); boundaries],
        }
    }

    /// The virtual node of `vid` at boundary `b`, interning `vid` and
    /// taking a node from `alloc` on first sight. The flat `index` makes
    /// the common repeat case a single array load.
    fn virt(&mut self, b: usize, vid: Vid, alloc: impl FnOnce() -> VirtId) -> VirtId {
        let index = &mut self.index[b];
        if index.len() <= vid as usize {
            index.resize(vid as usize + 1, u32::MAX);
        }
        if index[vid as usize] == u32::MAX {
            index[vid as usize] = self.keys[b].len() as u32;
            self.keys[b].push(vid);
            self.virts[b].push(alloc());
        }
        self.virts[b][index[vid as usize] as usize]
    }
}

/// Everything needed to maintain an extracted graph under base-table
/// deltas. Owned by the [`crate::GraphHandle`] when extraction ran with
/// [`crate::GraphGenConfig`]'s `incremental(true)`, beside the C-DUP graph
/// it maintains.
#[derive(Debug, Clone)]
pub struct IncrementalState {
    threads: usize,
    views: Vec<ViewState>,
    chains: Vec<ChainState>,
    /// Per engine id, the node-view rows that currently yield it as a node
    /// key, in arrival order; empty for an id no row yields.
    node_rows: Vec<Box<[PropRow]>>,
    /// The engine dictionary: every join value, boundary attribute, and
    /// node key that ever entered a keyed structure, interned to a dense
    /// [`Vid`]. Grow-only (interned via [`Interner::intern`], which pins
    /// slots), so a `Vid` stored anywhere in this state stays resolvable
    /// for the lifetime of the handle and across snapshot round-trips.
    dict: Interner,
    /// Flat `Vid` → real node id side-table (`u32::MAX` = the id is not a
    /// node key). Pure cache over the handle's `IdMap` — the id map is
    /// append-only, so entries never invalidate — letting the hot
    /// materialize paths resolve an endpoint with one array load instead
    /// of a value hash into the id map. Not persisted: rebuilt from the
    /// dictionary + id map when a snapshot is decoded
    /// ([`IncrementalState::rebuild_real_ids`]), and maintained by the
    /// node-add path during live applies.
    real_ids: Vec<u32>,
}

impl IncrementalState {
    /// The maintenance state of a compiled spec and its plans over empty
    /// tables: what [`IncrementalState::bulk_load`] starts from.
    fn new(spec: &GraphSpec, plans: &[ChainPlan], threads: usize) -> Self {
        let views = spec
            .nodes
            .iter()
            .map(|v| ViewState {
                relation: v.relation.clone(),
                id_col: v.id_col,
                prop_cols: v.prop_cols.clone(),
                pred: filters_to_predicate(&v.filters),
            })
            .collect();
        let chains = plans
            .iter()
            .map(|plan| {
                let segments: Vec<SegmentState> = plan
                    .segments
                    .iter()
                    .map(|seg| {
                        let atoms = seg.query.steps.iter().map(|step| AtomState {
                            table: step.table.clone(),
                            pred: step.pred.clone(),
                            in_col: step.in_col,
                            out_col: step.out_col,
                            by_in: None,
                            by_out: None,
                        });
                        SegmentState::new(atoms.collect())
                    })
                    .collect();
                let bounds = Boundaries::new(segments.len().saturating_sub(1));
                ChainState {
                    segments,
                    bounds,
                    by_right: None,
                }
            })
            .collect();
        let mut state = Self {
            threads,
            views,
            chains,
            node_rows: Vec::new(),
            dict: Interner::new(),
            real_ids: Vec::new(),
        };
        state.derive_indexes();
        state
    }

    /// Rebuild the `Vid` → real-id side-table from scratch (snapshot
    /// decode path: the cache is not persisted). Every dictionary slot is
    /// probed once against the id map; ids interned after this call are
    /// added by the live node-add path.
    pub(crate) fn rebuild_real_ids(&mut self, ids: &IdMap<Value>) {
        self.real_ids = (0..self.dict.capacity() as Vid)
            .map(|vid| {
                self.dict
                    .resolve(vid)
                    .and_then(|v| ids.get(v))
                    .unwrap_or(u32::MAX)
            })
            .collect();
    }

    /// The engine dictionary's live entry count (observability: the
    /// `graphgen_intern_entries` gauge).
    pub fn intern_entries(&self) -> usize {
        self.dict.live()
    }

    /// Where the state's heap bytes live, estimated from capacities (the
    /// serving layer's `graphgen_state_bytes` gauge). Text property values
    /// are shared with the database dictionary and counted there.
    pub fn state_bytes(&self) -> StateBytes {
        let segments = self.chains.iter().flat_map(|c| c.segments.iter());
        let atom_bags = segments.clone().flat_map(|s| s.bags.iter());
        let supports = segments.map(|s| s.support.heap_bytes()).sum::<usize>()
            + self
                .chains
                .iter()
                .map(|c| c.by_right.heap_bytes())
                .sum::<usize>();
        let rows = self.node_rows.iter().flat_map(|rows| rows.iter());
        let node_entries = self.node_rows.capacity() * size_of::<Box<[PropRow]>>()
            + rows
                .map(|row| size_of::<PropRow>() + row.values.len() * size_of::<Option<PropValue>>())
                .sum::<usize>();
        let bounds = self.chains.iter().map(|c| {
            let b = &c.bounds;
            b.index.heap_bytes()
                + b.keys.heap_bytes()
                + b.virts.capacity() * size_of::<Vec<VirtId>>()
                + b.virts
                    .iter()
                    .map(|v| v.capacity() * size_of::<VirtId>())
                    .sum::<usize>()
        });
        StateBytes {
            atom_bags: atom_bags.map(ByteSize::heap_bytes).sum(),
            supports,
            node_entries,
            dictionary: self.dict.heap_bytes() + self.real_ids.heap_bytes() + bounds.sum::<usize>(),
        }
    }

    /// Every base table the spec reads, in deterministic first-reference
    /// order (node views first, then chain atoms). Exposed to callers via
    /// `GraphHandle::referenced_tables`.
    pub(crate) fn referenced_tables(&self) -> Vec<String> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        let names = self.views.iter().map(|v| v.relation.as_str()).chain(
            self.chains
                .iter()
                .flat_map(|c| c.segments.iter())
                .flat_map(|s| s.atoms.iter())
                .map(|a| a.table.as_str()),
        );
        for name in names {
            if seen.insert(name.to_string()) {
                out.push(name.to_string());
            }
        }
        out
    }

    /// The worker-thread count delta probes fan out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Override the worker-thread count delta probes fan out over. Results
    /// are byte-identical for any value (clamped to ≥ 1); snapshots record
    /// the count they were encoded with, so a handle recovered on a
    /// different machine applies its own configuration through this.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }
}

/// The heap bytes of a maintenance state by part
/// ([`IncrementalState::state_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateBytes {
    /// The atom bags the delta joins walk.
    pub atom_bags: usize,
    /// The segment supports and the reverse index of a last support.
    pub supports: usize,
    /// The node-view rows kept per node key.
    pub node_entries: usize,
    /// The engine dictionary, its real-id side-table and the boundaries'
    /// virtual-node interning.
    pub dictionary: usize,
}

impl StateBytes {
    /// Every part with its label, in declaration order.
    pub fn parts(&self) -> [(&'static str, usize); 4] {
        [
            ("atom_bags", self.atom_bags),
            ("supports", self.supports),
            ("node_entries", self.node_entries),
            ("dictionary", self.dictionary),
        ]
    }
}

impl std::ops::AddAssign for StateBytes {
    fn add_assign(&mut self, other: StateBytes) {
        self.atom_bags += other.atom_bags;
        self.supports += other.supports;
        self.node_entries += other.node_entries;
        self.dictionary += other.dictionary;
    }
}

// ---------------------------------------------------------------------------
// Patch target: the C-DUP graph and the counters of what was done to it
// ---------------------------------------------------------------------------

/// The handle's C-DUP graph, patched in place, and the [`GraphPatch`]
/// counting every operation applied to it.
struct Target<'a> {
    g: &'a mut CondensedGraph,
    patch: GraphPatch,
}

impl Target<'_> {
    fn add_real_slot(&mut self) -> RealId {
        self.patch.nodes_added += 1;
        self.g.add_vertex()
    }

    fn revive(&mut self, u: RealId) {
        self.patch.nodes_revived += 1;
        self.g.revive_vertex(u);
    }

    fn kill(&mut self, u: RealId) {
        self.patch.nodes_removed += 1;
        self.g.delete_vertex(u);
    }

    fn add_virtual_node(&mut self) -> VirtId {
        self.patch.virtuals_added += 1;
        self.g.add_virtual_node()
    }

    /// Insert (`add`) or remove one stored edge.
    fn edge(&mut self, edge: StoredEdge, add: bool) {
        use StoredEdge::*;
        if add {
            self.patch.stored_edges_added += 1;
        } else {
            self.patch.stored_edges_removed += 1;
        }
        let g = &mut *self.g;
        match (edge, add) {
            (Direct(u, t), true) => g.insert_direct(u, t),
            (Direct(u, t), false) => g.remove_direct(u, t),
            (RealToVirtual(u, v), true) => g.insert_real_to_virtual(u, v),
            (RealToVirtual(u, v), false) => g.detach_real_from_virtual(u, v),
            (VirtualToVirtual(v, w), true) => g.insert_virtual_to_virtual(v, w),
            (VirtualToVirtual(v, w), false) => g.remove_virtual_to_virtual(v, w),
            (VirtualToReal(v, t), true) => g.insert_virtual_to_real(v, t),
            (VirtualToReal(v, t), false) => g.remove_virtual_to_real(v, t),
        }
    }
}

// ---------------------------------------------------------------------------
// Delta-join propagation through one segment
// ---------------------------------------------------------------------------

/// Walk from join id `v` across `bags` in turn: the bag of endpoints
/// reachable through them, each crossing one id's run — the "re-probe only
/// the changed side" rule. Left of atom `j` the bags are the `by_out` bags
/// of atoms `j-1 … 0`, right of it the `by_in` bags of atoms `j+1 … m-1`.
/// Each bag comes with a change to read it through (empty for a bag read as
/// it is): its sorted `(key, change)` entries count beside the bag's own.
/// [`NULL_VID`] never crosses a join, matching the join operator.
fn expand<'a>(
    v: Vid,
    bags: impl Iterator<Item = (&'a CountedRuns, &'a [(u64, i64)])>,
) -> FxHashMap<Vid, i64> {
    let mut frontier: FxHashMap<Vid, i64> = FxHashMap::default();
    frontier.insert(v, 1);
    for (bag, change) in bags {
        let mut next: FxHashMap<Vid, i64> = FxHashMap::default();
        for (&val, m) in &frontier {
            if val == NULL_VID {
                continue;
            }
            for (other, mb) in bag.run(val) {
                *next.entry(other).or_insert(0) += m * mb;
            }
            let from = change.partition_point(|&(key, _)| key < pack(val, 0));
            for &(key, d) in change[from..]
                .iter()
                .take_while(|(k, _)| unpack(*k).0 == val)
            {
                *next.entry(unpack(key).1).or_insert(0) += m * d;
            }
        }
        next.retain(|_, m| *m != 0);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// `(l, r)` as `(r, l)`.
fn flip(key: u64) -> u64 {
    let (l, r) = unpack(key);
    pack(r, l)
}

impl SegmentState {
    /// A segment over `atoms` with empty bags, each atom pointed at the
    /// bags a delta join walks it through: `by_out` for every atom but the
    /// last, `by_in` for every atom but the first — so a single-atom
    /// segment keeps none. Atoms over the same relation in the same
    /// orientation — same table, equal predicate, same key and value
    /// columns — share one bag: a self-join's second atom reads its
    /// partner's `by_out` as its `by_in`. The layout follows from the atoms
    /// alone, so the bulk load, the snapshot decoder and the empty state
    /// agree on it.
    fn new(mut atoms: Vec<AtomState>) -> Self {
        let m = atoms.len();
        // Per bag: the atom that first read it, and its key and value columns.
        let mut relations: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..m {
            let (in_col, out_col) = (atoms[i].in_col, atoms[i].out_col);
            let walks = [(i > 0, in_col, out_col), (i + 1 < m, out_col, in_col)];
            let mut picked = [None, None];
            for (slot, (walked, key, value)) in picked.iter_mut().zip(walks) {
                if !walked {
                    continue;
                }
                let same = |&(a, k, v): &(usize, usize, usize)| {
                    let other: &AtomState = &atoms[a];
                    (k, v) == (key, value)
                        && other.table == atoms[i].table
                        && other.pred == atoms[i].pred
                };
                let found = relations.iter().position(same);
                *slot = Some(found.unwrap_or_else(|| {
                    relations.push((i, key, value));
                    relations.len() - 1
                }));
            }
            [atoms[i].by_in, atoms[i].by_out] = picked;
        }
        Self {
            atoms,
            bags: vec![CountedRuns::default(); relations.len()],
            support: CountedRuns::default(),
        }
    }

    /// Fill the bags from every atom's `(in, out)` pairs, as the bulk
    /// load's scans produce them: a bag some atom reads by `in` is that
    /// atom's pairs, moved; a bag read by `out` only is its first reader's
    /// pairs, transposed. Pairs no bag takes are dropped.
    fn adopt(&mut self, pairs: Vec<CountedPairs>) {
        let mut pairs: Vec<Option<CountedPairs>> = pairs.into_iter().map(Some).collect();
        // Per bag: the atom whose pairs fill it, and whether it reads them by `in`.
        let sources: Vec<(usize, bool)> = (0..self.bags.len())
            .map(
                |b| match self.atoms.iter().position(|a| a.by_in == Some(b)) {
                    Some(i) => (i, true),
                    None => {
                        let i = self.atoms.iter().position(|a| a.by_out == Some(b));
                        (i.expect("every bag is read"), false)
                    }
                },
            )
            .collect();
        // Transposes first: the pairs they read may be moved below.
        for (b, &(i, keyed_by_in)) in sources.iter().enumerate() {
            if !keyed_by_in {
                let of = pairs[i].as_deref().expect("an atom's pairs");
                self.bags[b] = CountedRuns::transpose_of(of);
            }
        }
        for (b, &(i, keyed_by_in)) in sources.iter().enumerate() {
            if keyed_by_in {
                self.bags[b] = CountedRuns::new(pairs[i].take().expect("moved once"));
            }
        }
    }

    /// Propagate a table delta through this segment: telescoping delta
    /// joins per changed atom (prefix atoms at their new state, suffix
    /// atoms at their old state), morsel-parallel over the delta rows, then
    /// support-count transitions for the incremental DISTINCT.
    ///
    /// Returns the output pairs that (dis)appeared as interned-id pairs,
    /// each sorted for deterministic downstream interning at every thread
    /// count. Interning of delta values happens in the sequential
    /// projection loop, never inside the parallel expansion — so id
    /// assignment (and with it every downstream order) is independent of
    /// the thread count.
    ///
    /// Also returns how many output pairs' support changed at all.
    #[allow(clippy::type_complexity)]
    fn transitions(
        &mut self,
        delta: &Delta,
        threads: usize,
        dict: &mut Interner,
    ) -> Result<(Vec<(Vid, Vid)>, Vec<(Vid, Vid)>, usize), Error> {
        // Project the delta rows through every atom on the table, in atom
        // order, interning the join values (sequential: see above).
        let mut changed: Vec<(usize, Vec<(u64, i64)>)> = Vec::new();
        for (j, atom) in self.atoms.iter().enumerate() {
            if atom.table != delta.table() {
                continue;
            }
            let mut dj: FxHashMap<u64, i64> = FxHashMap::default();
            for row in delta.rows() {
                if !atom.pred.eval(&row.values) {
                    continue;
                }
                let in_v = dict.intern(&row.values[atom.in_col]);
                let out_v = dict.intern(&row.values[atom.out_col]);
                *dj.entry(pack(in_v, out_v)).or_insert(0) += row.op.sign();
            }
            dj.retain(|_, m| *m != 0);
            if !dj.is_empty() {
                changed.push((j, dj.into_iter().collect()));
            }
        }
        // Each bag's change in its own orientation, sorted. A bag holds one
        // relation however many atoms read it, so it changes once.
        let mut change: Vec<CountedPairs> = vec![Vec::new(); self.bags.len()];
        for (j, entries) in &changed {
            let atom = &self.atoms[*j];
            for (bag, flipped) in [(atom.by_in, false), (atom.by_out, true)] {
                match bag {
                    Some(b) if change[b].is_empty() => {
                        let key = |k| if flipped { flip(k) } else { k };
                        change[b] = entries.iter().map(|&(k, m)| (key(k), m)).collect();
                        change[b].sort_unstable();
                    }
                    _ => {}
                }
            }
        }
        // Delta joins: expand every changed row against the other atoms.
        // Every bag is still at its pre-delta state, so the atoms before
        // `j` are read through their change (their post-delta state) and
        // the atoms after `j` as they are — the exact telescoping
        // decomposition of the delta, whichever atoms share a bag.
        let mut sdelta: FxHashMap<u64, i64> = FxHashMap::default();
        let (atoms, bags) = (&self.atoms, &self.bags);
        for (j, entries) in &changed {
            let j = *j;
            let t = effective_threads(threads, entries.len());
            let parts = map_morsels(entries.len(), t, |range| {
                let mut local: FxHashMap<u64, i64> = FxHashMap::default();
                for (key, mult) in &entries[range] {
                    let (in_v, out_v) = unpack(*key);
                    let walked = atoms[..j].iter().rev().map(|a| {
                        let b = a.by_out.expect("walked");
                        (&bags[b], change[b].as_slice())
                    });
                    let lefts = expand(in_v, walked);
                    if lefts.is_empty() {
                        continue;
                    }
                    let walked = atoms[j + 1..].iter().map(|a| {
                        let b = a.by_in.expect("walked");
                        (&bags[b], &[][..])
                    });
                    let rights = expand(out_v, walked);
                    for (&x, ml) in &lefts {
                        for (&y, mr) in &rights {
                            *local.entry(pack(x, y)).or_insert(0) += mult * ml * mr;
                        }
                    }
                }
                local
            });
            for part in parts {
                for (k, v) in part {
                    *sdelta.entry(k).or_insert(0) += v;
                }
            }
        }
        // Advance every changed bag to its post-delta state, once.
        for (bag, change) in self.bags.iter_mut().zip(&change) {
            for &(key, d) in change {
                bag.add(key, d, "multiplicity", dict)?;
            }
        }
        sdelta.retain(|_, d| *d != 0);
        // Support transitions, in sorted id-pair order so virtual-node
        // interning is identical for every thread count (id assignment is
        // sequential, so the order is as deterministic as the former
        // value-pair sort — just an integer compare instead).
        let mut changes: Vec<(u64, i64)> = sdelta.into_iter().collect();
        changes.sort_unstable_by_key(|&(k, _)| k);
        let what = "support of output pair";
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for &(key, d) in &changes {
            let old = self.support.add(key, d, what, dict)?;
            if old == 0 && old + d > 0 {
                added.push(unpack(key));
            } else if old > 0 && old + d == 0 {
                removed.push(unpack(key));
            }
        }
        Ok((added, removed, changes.len()))
    }
}

/// Whether a chain's last segment mirrors its first: its atoms are the
/// first segment's in reverse order, each with its columns swapped (same
/// table, equal predicate) — as in `M(a, g), M(b, g)`, where one segment
/// mirrors itself. The last segment's support is then the first's
/// transposed, count for count.
fn mirrors(first: &SegmentState, last: &SegmentState) -> bool {
    first.atoms.len() == last.atoms.len()
        && first
            .atoms
            .iter()
            .zip(last.atoms.iter().rev())
            .all(|(a, b)| {
                a.table == b.table
                    && a.pred == b.pred
                    && (a.in_col, a.out_col) == (b.out_col, b.in_col)
            })
}

// ---------------------------------------------------------------------------
// Materialization: segment transitions -> graph operations
// ---------------------------------------------------------------------------

/// Resolve an interned id to its real node id via the flat side-table —
/// one array load, no value hash. A `Vid` beyond the table (interned
/// after the last rebuild/add) or mapped to the sentinel is not a node
/// key, exactly as an id-map miss would report.
#[inline]
fn real_from(real_ids: &[u32], vid: Vid) -> Option<RealId> {
    real_ids
        .get(vid as usize)
        .copied()
        .filter(|&id| id != u32::MAX)
        .map(RealId)
}

/// Insert (`add`) or remove the stored edge of every pair of `pairs`, in
/// order, as segment `j` of a `k`-segment chain stores it: the rule is
/// [`segment_edge`]'s, with `bounds` numbering the virtual nodes.
/// `elsewhere(pair)`: whether another single-segment chain accounts for
/// the pair's direct edge, which is then not this chain's to change —
/// several `Edges` rules may yield one pair, and its one direct edge stays
/// while any of them does.
///
/// Membership edges are kept for *every interned* key, alive or not, so a
/// node whose key later reappears revives with its adjacency intact; keys
/// that never were nodes contribute no edges until a node add materializes
/// them from the segment indexes ([`materialize_node_edges`]).
fn materialize_segment(
    jk: (usize, usize),
    bounds: &mut Boundaries,
    pairs: impl IntoIterator<Item = (Vid, Vid)>,
    add: bool,
    elsewhere: impl Fn(u64) -> bool,
    real_ids: &[u32],
    target: &mut Target<'_>,
) {
    for (l, r) in pairs {
        let real = |vid| real_from(real_ids, vid);
        let virt = |b, vid| bounds.virt(b, vid, || target.add_virtual_node());
        match segment_edge(jk, (l, r), real, virt) {
            Some(StoredEdge::Direct(..)) if elsewhere(pack(l, r)) => {}
            Some(edge) => target.edge(edge, add),
            None => {}
        }
    }
}

/// Materialize every edge the brand-new node of interned key `key`
/// participates in: its distinct output as a left endpoint of each chain's
/// first segment (the support run) and as a right endpoint of its last
/// (the `by_right` run, or the first segment's support run where the last
/// segment mirrors the first), each through [`materialize_segment`] as
/// that segment's pairs. Cost is proportional to the node's own
/// memberships, not the graph. A direct edge is the first single-segment
/// chain's that outputs its pair.
fn materialize_node_edges(
    chains: &mut [ChainState],
    key: Vid,
    real_ids: &[u32],
    target: &mut Target<'_>,
) {
    let _span = span(Phase::BuildRep, Region::BuildRep);
    for c in 0..chains.len() {
        let (before, rest) = chains.split_at_mut(c);
        let ChainState {
            segments,
            bounds,
            by_right,
        } = &mut rest[0];
        let k = segments.len();
        let earlier = |pair| {
            let mut single = before.iter().filter(|o| o.segments.len() == 1);
            single.any(|o| o.segments[0].support.get(pair) > 0)
        };
        let rights = segments[0].support.run(key).map(|(r, _)| (key, r));
        materialize_segment((0, k), bounds, rights, true, earlier, real_ids, target);
        let by_right = by_right.as_ref().unwrap_or(&segments[0].support);
        let lefts = by_right.run(key).map(|(l, _)| (l, key));
        materialize_segment((k - 1, k), bounds, lefts, true, earlier, real_ids, target);
    }
}

// ---------------------------------------------------------------------------
// The top-level delta application
// ---------------------------------------------------------------------------

/// The property values a node-view row yields from its property cells,
/// given in `prop_cols` order (a NULL sets nothing, matching the
/// extractor).
fn derive_props<'a>(cells: impl Iterator<Item = &'a Value>) -> Box<[Option<PropValue>]> {
    cells
        .map(|cell| match cell {
            Value::Int(v) => Some(PropValue::Int(*v)),
            Value::Str(s) => Some(PropValue::Text(s.clone())),
            Value::Null => None,
        })
        .collect()
}

/// Set a node's properties from the base rows that currently yield it,
/// lower view indexes first (so a later view's value wins a shared name).
fn set_props(props: &mut Properties, id: RealId, rows: &[PropRow], views: &[ViewState]) {
    let mut rows: Vec<&PropRow> = rows.iter().collect();
    rows.sort_by_key(|row| row.view);
    for row in rows {
        for ((name, _), value) in views[row.view].prop_cols.iter().zip(&row.values) {
            if let Some(v) = value {
                props.set(id, name, v.clone());
            }
        }
    }
}

/// Apply one table delta to the maintained state and the graph. This is
/// the engine behind [`crate::GraphHandle::apply_delta`]; the state it
/// updates was built by [`IncrementalState::bulk_load`].
///
/// `ids` and `props` arrive behind `Arc`s (the handle shares them with
/// published reader clones): the engine reads them freely and
/// [`std::sync::Arc::make_mut`]s only at actual mutation points, so a
/// delta that touches no node view never pays an id-map or property copy
/// no matter how many snapshots share them.
pub(crate) fn apply_delta_state(
    state: &mut IncrementalState,
    graph: &mut CondensedGraph,
    ids: &mut std::sync::Arc<IdMap<Value>>,
    props: &mut std::sync::Arc<Properties>,
    delta: &Delta,
) -> Result<GraphPatch, Error> {
    let IncrementalState {
        threads,
        views,
        chains,
        node_rows,
        dict,
        real_ids,
    } = state;
    let threads = *threads;
    let mut target = Target {
        g: graph,
        patch: GraphPatch::default(),
    };

    // Phase 1: push the delta through every segment of every chain and
    // patch the edge structure.
    for c in 0..chains.len() {
        let (before, rest) = chains.split_at_mut(c);
        let (chain, after) = rest.split_first_mut().expect("chain c exists");
        let k = chain.segments.len();
        for j in 0..k {
            let (added, removed, changes) = chain.segments[j].transitions(delta, threads, dict)?;
            target.patch.support_changes += changes;
            if added.is_empty() && removed.is_empty() {
                continue;
            }
            if let Some(by_right) = chain.by_right.as_mut().filter(|_| j + 1 == k) {
                for (pairs, d) in [(&added, 1), (&removed, -1)] {
                    for &(l, r) in pairs {
                        by_right.adjust(pack(r, l), d);
                    }
                }
            }
            let elsewhere = |pair| {
                let mut others = before.iter().chain(after.iter());
                others.any(|other| {
                    other.segments.len() == 1 && other.segments[0].support.get(pair) > 0
                })
            };
            let _span = span(Phase::BuildRep, Region::BuildRep);
            let jk = (j, k);
            for (pairs, add) in [(added, true), (removed, false)] {
                let bounds = &mut chain.bounds;
                materialize_segment(jk, bounds, pairs, add, elsewhere, real_ids, &mut target);
            }
        }
    }

    // Phase 2: node views — update per-key support and property rows
    // (sequential, so key interning is thread-count independent).
    let mut touched: Vec<Vid> = Vec::new();
    let mut prior: FxHashMap<Vid, usize> = FxHashMap::default();
    for (vi, view) in views.iter().enumerate() {
        if view.relation != delta.table() {
            continue;
        }
        for row in delta.rows() {
            if !view.pred.eval(&row.values) {
                continue;
            }
            let key = &row.values[view.id_col];
            if key.is_null() {
                continue;
            }
            let kvid = dict.intern(key);
            if node_rows.len() <= kvid as usize {
                node_rows.resize_with(kvid as usize + 1, Box::default);
            }
            let rows = &mut node_rows[kvid as usize];
            if let std::collections::hash_map::Entry::Vacant(v) = prior.entry(kvid) {
                v.insert(rows.len());
                touched.push(kvid);
            }
            let derived = PropRow {
                view: vi,
                values: derive_props(view.prop_cols.iter().map(|(_, c)| &row.values[*c])),
            };
            match row.op {
                DeltaOp::Insert => push_row(rows, derived),
                DeltaOp::Delete => {
                    let pos = rows.iter().position(|r| *r == derived).ok_or_else(|| {
                        PatchError::Inconsistent(format!(
                            "delta deletes node row for key {key} that was never inserted"
                        ))
                    })?;
                    let mut kept = std::mem::take(rows).into_vec();
                    kept.remove(pos);
                    *rows = kept.into_boxed_slice();
                }
            }
        }
    }

    // Phase 3: materialize node transitions and re-derive properties. Only
    // this phase writes the (possibly shared) id map and property store —
    // `Arc::make_mut` unshares each at most once per delta, and only when
    // a node view actually changed.
    for kvid in touched {
        let before = prior[&kvid];
        let now = node_rows[kvid as usize].len();
        let key = dict.resolve(kvid).expect("node key is interned").clone();
        if before == 0 && now > 0 {
            if let Some(id) = ids.get(&key) {
                target.revive(RealId(id));
            } else {
                let id = std::sync::Arc::make_mut(ids).intern(key.clone());
                let slot = target.add_real_slot();
                debug_assert_eq!(slot.0, id, "id map and graph slots diverged");
                std::sync::Arc::make_mut(props).grow(ids.len());
                // Keep the flat side-table in step with the id map — the
                // only place a new real id is ever allocated.
                if real_ids.len() <= kvid as usize {
                    real_ids.resize(kvid as usize + 1, u32::MAX);
                }
                real_ids[kvid as usize] = id;
                materialize_node_edges(chains, kvid, real_ids, &mut target);
            }
        } else if before > 0 && now == 0 {
            let id = ids.get(&key).expect("supported key is interned");
            target.kill(RealId(id));
        }
        if now > 0 {
            let id = ids.get(&key).expect("supported key is interned");
            let p = std::sync::Arc::make_mut(props);
            p.grow(ids.len());
            p.clear_vertex(RealId(id));
            set_props(p, RealId(id), &node_rows[kvid as usize], views);
        }
    }
    Ok(target.patch)
}

// ---------------------------------------------------------------------------
// Derived indexes
// ---------------------------------------------------------------------------
//
// Which structure exists follows from the chain's shape, never from an
// option:
//
// * atom bags — one per relation and orientation a delta join walks
//   (`SegmentState::new`): a segment's first atom is read only by `out`,
//   its last only by `in`, a middle atom both ways, a single atom not at
//   all; an atom whose relation another atom already reads in the same
//   orientation (a self-join's transposing second atom) shares that bag;
// * `by_right` — only where a chain's last segment does not mirror its
//   first (`mirrors`); a mirroring chain reads the first support instead;
// * `bounds.index` — one per boundary.
//
// The bags are the primary state (the bulk loader fills them through
// `SegmentState::adopt`, the snapshot decoder reads them as written);
// `by_right` and
// `bounds.index` are functions of the supports and `bounds.keys`, built by
// `IncrementalState::derive_indexes`, which both of them end with —
// `IncrementalState::new` runs it on the empty state.

impl ChainState {
    /// `by_right` transposes the last segment's support keys unless that
    /// segment mirrors the first; `bounds.index` inverts `bounds.keys`
    /// (which holds no id twice).
    fn derive_indexes(&mut self) {
        let (first, last) = (&self.segments[0], &self.segments[self.segments.len() - 1]);
        self.by_right = (!mirrors(first, last)).then(|| last.support.transposed_keys());
        self.bounds.index = self
            .bounds
            .keys
            .iter()
            .map(|keys| {
                let slots = keys.iter().max().map_or(0, |&k| k as usize + 1);
                let mut index = vec![u32::MAX; slots];
                for (i, &k) in keys.iter().enumerate() {
                    index[k as usize] = i as u32;
                }
                index
            })
            .collect();
    }
}

impl IncrementalState {
    /// (Re)build every derived index from the primary state — the one
    /// place they come from, whether the primary state was bulk-loaded or
    /// decoded from a snapshot.
    fn derive_indexes(&mut self) {
        for chain in &mut self.chains {
            chain.derive_indexes();
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk load: the set-at-a-time initial extraction
// ---------------------------------------------------------------------------

/// Database ids → engine ids. A value enters the engine dictionary the
/// first time a scanned cell that the replay would intern holds it, so
/// engine ids are handed out in the replay's order with one
/// [`Interner::intern`] per distinct value.
struct Translation<'a> {
    db: &'a Interner,
    /// Indexed by database id; `u32::MAX` = not interned yet.
    engine: Vec<Vid>,
}

impl Translation<'_> {
    fn value(&self, db_vid: Vid) -> &Value {
        self.db.resolve(db_vid).expect("scanned id is live")
    }

    #[inline]
    fn engine_vid(&mut self, dict: &mut Interner, db_vid: Vid) -> Vid {
        if self.engine[db_vid as usize] == u32::MAX {
            self.engine[db_vid as usize] = dict.intern(self.value(db_vid));
        }
        self.engine[db_vid as usize]
    }
}

impl IncrementalState {
    /// Build the maintenance state of `spec` over the current contents of
    /// `db`, together with the graph, key map and properties it maintains —
    /// the set-at-a-time counterpart of replaying every base row through
    /// [`apply_delta_state`], with the same result down to the encoded
    /// byte (see the module docs). `threads` is kept for later applies;
    /// the scans and joins here fan out over `scan_threads`.
    pub(crate) fn bulk_load(
        spec: &GraphSpec,
        plans: &[ChainPlan],
        threads: usize,
        db: &Database,
        scan_threads: usize,
    ) -> Result<(Self, CondensedGraph, IdMap<Value>, Properties), Error> {
        let mut state = Self::new(spec, plans, threads);
        let mut tr = Translation {
            db: db.dict(),
            engine: vec![u32::MAX; db.dict().capacity()],
        };
        // Per segment, the scanned, grouped bag of each atom, until the
        // segment's last table has been scanned and the join has read them.
        let mut loads: Vec<Vec<Vec<Option<CountedPairs>>>> = state
            .chains
            .iter()
            .map(|chain| {
                let load = |seg: &SegmentState| vec![None; seg.atoms.len()];
                chain.segments.iter().map(load).collect()
            })
            .collect();
        let mut ids: IdMap<Value> = IdMap::new();
        // Node keys in real-id order.
        let mut node_keys: Vec<Vid> = Vec::new();
        // `(chain, segment)` in the order the segments were completed: the
        // order the replay first sees their boundary values in.
        let mut completed: Vec<(usize, usize)> = Vec::new();

        for table in state.referenced_tables() {
            let IncrementalState {
                views,
                chains,
                node_rows,
                dict,
                ..
            } = &mut state;
            // The table's atoms, chain by chain and segment by segment; a
            // segment produces its output at the table that completes it.
            for (c, (chain, loads)) in chains.iter_mut().zip(&mut loads).enumerate() {
                let segments = chain.segments.iter_mut().zip(loads.iter_mut());
                for (j, (seg, load)) in segments.enumerate() {
                    let mut scanned = false;
                    for (k, atom) in seg.atoms.iter().enumerate() {
                        if atom.table != table {
                            continue;
                        }
                        scanned = true;
                        // A transposing atom (a self-join's second) reads
                        // its partner's rows with the columns swapped: its
                        // bag is the partner's transposed, and its cells
                        // are the partner's, interned already, so skipping
                        // its scan leaves the dictionary as the replay
                        // builds it.
                        let partner = atom.by_in.and_then(|b| {
                            let mut earlier = seg.atoms[..k].iter();
                            earlier.position(|a| a.by_out == Some(b))
                        });
                        if let Some(bag) = partner.and_then(|p| load[p].as_ref()) {
                            load[k] = Some(transpose_counted(bag, dict.capacity()));
                            continue;
                        }
                        let cols = [atom.in_col, atom.out_col];
                        let rows = scan_project(db, &atom.table, &atom.pred, &cols, scan_threads)?;
                        let keys = {
                            let _span = span(Phase::LoadState, Region::Patch);
                            let mut keys = Vec::with_capacity(rows.num_rows());
                            for row in rows.iter() {
                                let in_v = tr.engine_vid(dict, row[0]);
                                let out_v = tr.engine_vid(dict, row[1]);
                                keys.push(pack(in_v, out_v));
                            }
                            keys
                        };
                        load[k] = Some(group_pairs(keys));
                    }
                    if !scanned || load.iter().any(Option::is_none) {
                        continue;
                    }
                    let mut bags: Vec<CountedPairs> =
                        std::mem::take(load).into_iter().flatten().collect();
                    let mut joined = None;
                    for bag in &bags[1..] {
                        let frontier = joined.as_ref().unwrap_or(&bags[0]);
                        joined = Some(join_counted(frontier, bag, dict.capacity(), scan_threads));
                    }
                    let _span = span(Phase::LoadState, Region::Patch);
                    let output = match joined {
                        // The join has read the bags: the segment keeps
                        // them as its atoms walk them.
                        Some(output) => {
                            seg.adopt(bags);
                            output
                        }
                        None => bags.pop().expect("a segment has an atom"),
                    };
                    seg.support = CountedRuns::new(output);
                    completed.push((c, j));
                }
            }
            // The table's node views, in view then row order.
            for (vi, view) in views.iter().enumerate() {
                if view.relation != table {
                    continue;
                }
                let mut cols = vec![view.id_col];
                cols.extend(view.prop_cols.iter().map(|(_, c)| *c));
                let rows = scan_project(db, &view.relation, &view.pred, &cols, scan_threads)?;
                let _span = span(Phase::LoadState, Region::Patch);
                for row in rows.iter() {
                    if row[0] == NULL_VID {
                        continue;
                    }
                    let kvid = tr.engine_vid(dict, row[0]) as usize;
                    if node_rows.len() <= kvid {
                        node_rows.resize_with(kvid + 1, Box::default);
                    }
                    if node_rows[kvid].is_empty() {
                        ids.intern(tr.value(row[0]).clone());
                        node_keys.push(kvid as Vid);
                    }
                    let cells = row[1..].iter().map(|&cell| tr.value(cell));
                    let values = derive_props(cells);
                    push_row(&mut node_rows[kvid], PropRow { view: vi, values });
                }
            }
        }

        let load_span = span(Phase::LoadState, Region::Patch);
        let mut props = Properties::new(ids.len());
        state.real_ids = vec![u32::MAX; state.dict.capacity()];
        state.node_rows.shrink_to_fit();
        for (id, &kvid) in node_keys.iter().enumerate() {
            let rows = &state.node_rows[kvid as usize];
            set_props(&mut props, RealId(id as u32), rows, &state.views);
            state.real_ids[kvid as usize] = id as u32;
        }
        state.derive_indexes();
        drop(load_span);

        // Every pair becomes its stored edge, now that all node keys are
        // known; the builder sorts and dedups the adjacency lists. The
        // boundary tables fill here, keeping their `index` current as they
        // go.
        let _span = span(Phase::BuildRep, Region::BuildRep);
        let mut builder = CondensedBuilder::new(ids.len());
        for (c, j) in completed {
            let ChainState {
                segments, bounds, ..
            } = &mut state.chains[c];
            emit_segment(
                &mut builder,
                (j, segments.len()),
                segments[j].support.iter().map(|(key, _)| key),
                |vid| real_from(&state.real_ids, vid),
                |b, vid, builder| bounds.virt(b, vid, || builder.add_virtual()),
            );
        }
        let graph = builder.build();
        Ok((state, graph, ids, props))
    }
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------
//
// The serving layer persists incremental handles so a recovered process can
// keep applying deltas exactly where the crashed one stopped. The encoding
// writes what the state keeps, once, with the workspace codec conventions:
// the engine dictionary, the views, per segment its atom headers, then its
// bags as kept (how many there are, and which atom reads which, follows
// from the headers through `SegmentState::new`) and its support, per chain
// the boundary interning, and the node rows, each its view and one
// presence-tagged value per property column the view declares. The reverse
// indexes (`by_right`, `bounds.index`) are rebuilt on decode instead of
// stored. Every bag and support map is written in run order — strictly
// ascending keys, multiplicities ≥ 1, no empty bag slot — and the decoder
// accepts nothing else, so a decoded state re-encodes to the bytes it came
// from.

use graphgen_common::codec::{self, CodecError, Reader};
use graphgen_graph::snapshot as graph_snapshot;

/// Read one interned id and check it resolves against the decoded engine
/// dictionary — every id stored in the state must name a live slot.
fn read_vid(r: &mut Reader<'_>, dict: &Interner) -> Result<Vid, CodecError> {
    let at = r.pos();
    let v = r.u32()?;
    if dict.resolve(v).is_none() {
        return Err(CodecError::invalid(at, "id not in engine dictionary"));
    }
    Ok(v)
}

/// Check what every encoded bag and support map guarantees: keys strictly
/// ascending (`prev` is the key before this one) and a multiplicity ≥ 1.
fn check_counted<K: Ord>(at: usize, prev: Option<K>, key: K, count: i64) -> Result<(), CodecError> {
    if prev.is_some_and(|p| p >= key) {
        return Err(CodecError::invalid(at, "keys not strictly ascending"));
    }
    if count < 1 {
        return Err(CodecError::invalid(at, "multiplicity below 1"));
    }
    Ok(())
}

/// Encode an atom bag slot by slot: every left id with a run, ascending,
/// then its `(right id, multiplicity)` entries.
fn put_bag(out: &mut impl codec::Sink, bag: &CountedRuns) {
    let mut lefts: Vec<Vid> = Vec::new();
    for (key, _) in bag.iter() {
        let l = unpack(key).0;
        if lefts.last() != Some(&l) {
            lefts.push(l);
        }
    }
    codec::put_len(out, lefts.len());
    for l in lefts {
        codec::put_u32(out, l);
        codec::put_len(out, bag.run(l).count());
        for (r, m) in bag.run(l) {
            codec::put_u32(out, r);
            codec::put_i64(out, m);
        }
    }
}

/// Decode an atom bag (inverse of [`put_bag`]): slots strictly ascending
/// and never empty, as the encoder writes them.
fn read_bag(r: &mut Reader<'_>, dict: &Interner) -> Result<CountedPairs, CodecError> {
    let n = r.len()?;
    let mut pairs = CountedPairs::new();
    let mut prev_slot = None;
    for _ in 0..n {
        let at = r.pos();
        let l = read_vid(r, dict)?;
        if prev_slot.replace(l).is_some_and(|p| p >= l) {
            return Err(CodecError::invalid(at, "bag slots not strictly ascending"));
        }
        let at = r.pos();
        let m = r.len_of(12)?;
        if m == 0 {
            return Err(CodecError::invalid(at, "empty bag slot"));
        }
        let mut prev = None;
        for _ in 0..m {
            let at = r.pos();
            let k = read_vid(r, dict)?;
            let v = r.i64()?;
            check_counted(at, prev.replace(k), k, v)?;
            pairs.push((pack(l, k), v));
        }
    }
    Ok(pairs)
}

/// Encode a support map: its length, then every `(packed key, count)`.
fn put_packed_counts(out: &mut impl codec::Sink, support: &CountedRuns) {
    codec::put_len(out, support.len());
    for (key, m) in support.iter() {
        codec::put_u64(out, key);
        codec::put_i64(out, m);
    }
}

fn read_packed_counts(r: &mut Reader<'_>, dict: &Interner) -> Result<CountedPairs, CodecError> {
    let n = r.len_of(16)?;
    let mut pairs = CountedPairs::with_capacity(n);
    let mut prev = None;
    for _ in 0..n {
        let at = r.pos();
        let k = r.u64()?;
        let (l, rr) = unpack(k);
        if dict.resolve(l).is_none() || dict.resolve(rr).is_none() {
            return Err(CodecError::invalid(
                at,
                "packed id pair not in engine dictionary",
            ));
        }
        let v = r.i64()?;
        check_counted(at, prev.replace(k), k, v)?;
        pairs.push((k, v));
    }
    Ok(pairs)
}

impl AtomState {
    /// The atom's header; the segment's bags follow its atoms'
    /// ([`SegmentState::encode_into`]).
    fn encode_into(&self, out: &mut impl codec::Sink) {
        codec::put_str(out, &self.table);
        self.pred.encode_into(out);
        codec::put_len(out, self.in_col);
        codec::put_len(out, self.out_col);
    }

    /// The header only: [`SegmentState::new`] points the atom at its bags.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            table: r.str()?.to_string(),
            pred: Predicate::decode(r)?,
            in_col: r.scalar()?,
            out_col: r.scalar()?,
            by_in: None,
            by_out: None,
        })
    }
}

impl SegmentState {
    fn encode_into(&self, out: &mut impl codec::Sink) {
        codec::put_len(out, self.atoms.len());
        for atom in &self.atoms {
            atom.encode_into(out);
        }
        for bag in &self.bags {
            put_bag(out, bag);
        }
        put_packed_counts(out, &self.support);
    }

    /// The atom headers decide the bag layout ([`SegmentState::new`]); the
    /// bags and the support follow as written.
    fn decode(r: &mut Reader<'_>, dict: &Interner) -> Result<Self, CodecError> {
        let n = r.len()?;
        let atoms = (0..n).map(|_| AtomState::decode(r));
        let mut seg = Self::new(atoms.collect::<Result<_, _>>()?);
        for bag in &mut seg.bags {
            *bag = CountedRuns::new(read_bag(r, dict)?);
        }
        seg.support = CountedRuns::new(read_packed_counts(r, dict)?);
        Ok(seg)
    }
}

impl IncrementalState {
    /// Encode the whole maintenance state (see the module-level codec
    /// notes). Deterministic: runs are walked in order, hash-map content is
    /// emitted in sorted order.
    pub(crate) fn encode_into(&self, out: &mut impl codec::Sink) {
        // The engine dictionary goes first: everything after it stores
        // interned ids, and a recovered state must continue allocating
        // ids exactly where the encoding process stopped.
        self.dict.encode_into(out);
        codec::put_len(out, self.threads);
        codec::put_len(out, self.views.len());
        for view in &self.views {
            codec::put_str(out, &view.relation);
            codec::put_len(out, view.id_col);
            codec::put_len(out, view.prop_cols.len());
            for (name, col) in &view.prop_cols {
                codec::put_str(out, name);
                codec::put_len(out, *col);
            }
            view.pred.encode_into(out);
        }
        codec::put_len(out, self.chains.len());
        for chain in &self.chains {
            codec::put_len(out, chain.segments.len());
            for seg in &chain.segments {
                seg.encode_into(out);
            }
            codec::put_len(out, chain.bounds.keys.len());
            for (keys, virts) in chain.bounds.keys.iter().zip(&chain.bounds.virts) {
                // Boundary interning order, persisted explicitly (the flat
                // id → local-index table is rebuilt on decode).
                codec::put_len(out, keys.len());
                for k in keys {
                    codec::put_u32(out, *k);
                }
                codec::put_len(out, virts.len());
                for v in virts {
                    codec::put_u32(out, v.0);
                }
            }
        }
        // Node entries ascending by key: the rows (their count is the
        // key's support), each its view and one presence-tagged value per
        // property column the view declares.
        let nodes = self.node_rows.iter().enumerate();
        let nodes: Vec<(usize, &Box<[PropRow]>)> =
            nodes.filter(|(_, rows)| !rows.is_empty()).collect();
        codec::put_len(out, nodes.len());
        for (key, rows) in nodes {
            codec::put_u32(out, key as Vid);
            codec::put_len(out, rows.len());
            for row in rows.iter() {
                codec::put_len(out, row.view);
                for value in row.values.iter() {
                    graph_snapshot::encode_prop_cell(value.as_ref(), out);
                }
            }
        }
    }

    /// Decode a maintenance state (inverse of
    /// [`IncrementalState::encode_into`]): the primary state is read and
    /// validated, then [`IncrementalState::derive_indexes`] rebuilds the
    /// reverse indexes.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let dict = Interner::decode(r)?;
        // `threads` is a plain scalar, not a length — `Reader::len`'s
        // fits-in-remaining-input plausibility check would spuriously
        // reject a small state encoded on a many-core machine.
        let threads = r.scalar()?.max(1);
        let n_views = r.len()?;
        let mut views = Vec::with_capacity(n_views);
        for _ in 0..n_views {
            let relation = r.str()?.to_string();
            let id_col = r.scalar()?;
            let n_props = r.len()?;
            let mut prop_cols = Vec::with_capacity(n_props);
            for _ in 0..n_props {
                let name = r.str()?.to_string();
                let col = r.scalar()?;
                prop_cols.push((name, col));
            }
            let pred = Predicate::decode(r)?;
            views.push(ViewState {
                relation,
                id_col,
                prop_cols,
                pred,
            });
        }
        let n_chains = r.len()?;
        let mut chains = Vec::with_capacity(n_chains);
        for _ in 0..n_chains {
            let at = r.pos();
            let n_segs = r.len()?;
            if n_segs == 0 {
                return Err(CodecError::invalid(at, "chain without a segment"));
            }
            let mut segments = Vec::with_capacity(n_segs);
            for _ in 0..n_segs {
                segments.push(SegmentState::decode(r, &dict)?);
            }
            let n_bounds = r.len()?;
            let at = r.pos();
            if n_bounds != n_segs.saturating_sub(1) {
                return Err(CodecError::invalid(at, "boundary count mismatch"));
            }
            let mut bounds = Boundaries::new(0);
            for _ in 0..n_bounds {
                let n_keys = r.len_of(4)?;
                let mut keys = Vec::with_capacity(n_keys);
                let mut seen: FxHashSet<Vid> = FxHashSet::default();
                for _ in 0..n_keys {
                    let at = r.pos();
                    let k = read_vid(r, &dict)?;
                    if !seen.insert(k) {
                        return Err(CodecError::invalid(at, "duplicate boundary key"));
                    }
                    keys.push(k);
                }
                let n_virts = r.len_of(4)?;
                let at = r.pos();
                if n_virts != keys.len() {
                    return Err(CodecError::invalid(at, "boundary virtual count mismatch"));
                }
                let mut virts = Vec::with_capacity(n_virts);
                for _ in 0..n_virts {
                    virts.push(VirtId(r.u32()?));
                }
                bounds.keys.push(keys);
                bounds.virts.push(virts);
            }
            chains.push(ChainState {
                segments,
                bounds,
                by_right: None,
            });
        }
        let n_nodes = r.len()?;
        let mut node_rows: Vec<Box<[PropRow]>> = Vec::new();
        for _ in 0..n_nodes {
            let at = r.pos();
            let key = read_vid(r, &dict)? as usize;
            if node_rows.len() > key {
                return Err(CodecError::invalid(at, "node keys not strictly ascending"));
            }
            let at = r.pos();
            let n_rows = r.len()?;
            if n_rows == 0 {
                return Err(CodecError::invalid(at, "node entry without a row"));
            }
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let at = r.pos();
                let view = r.scalar()?;
                let Some(view_state) = views.get(view) else {
                    return Err(CodecError::invalid(
                        at,
                        "node entry references unknown view",
                    ));
                };
                let values = (0..view_state.prop_cols.len())
                    .map(|_| graph_snapshot::decode_prop_cell(r))
                    .collect::<Result<_, _>>()?;
                rows.push(PropRow { view, values });
            }
            node_rows.resize_with(key, Box::default);
            node_rows.push(rows.into_boxed_slice());
        }
        let mut state = Self {
            threads,
            views,
            chains,
            node_rows,
            dict,
            // Not persisted: the handle assembly rebuilds this from the
            // decoded id map (`rebuild_real_ids`).
            real_ids: Vec::new(),
        };
        state.derive_indexes();
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::{apply_delta_state, CodecError, IncrementalState, Reader};
    use crate::extract::{GraphGen, GraphGenConfig};
    use crate::handle::{ConvertOptions, GraphHandle};
    use crate::planner::plan_chain;
    use graphgen_common::{IdMap, SplitMix64};
    use graphgen_graph::{CondensedBuilder, GraphRep, Properties, RepKind};
    use graphgen_reldb::{Column, Database, Delta, DeltaOp, Schema, Table, Value};
    use std::sync::Arc;

    /// The Fig. 1 toy DBLP instance.
    fn fig1_db() -> Database {
        let mut author = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        for a in 1..=5 {
            author
                .push_row(vec![Value::int(a), Value::str(format!("a{a}"))])
                .unwrap();
        }
        let mut ap = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
        for (a, p) in [
            (1, 1),
            (2, 1),
            (4, 1),
            (1, 2),
            (4, 2),
            (3, 3),
            (4, 3),
            (5, 3),
        ] {
            ap.push_row(vec![Value::int(a), Value::int(p)]).unwrap();
        }
        let mut db = Database::new();
        db.register("Author", author).unwrap();
        db.register("AuthorPub", ap).unwrap();
        db
    }

    const Q1: &str = "Nodes(ID, Name) :- Author(ID, Name).\n\
                      Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).";

    fn cfg(incremental: bool, threads: usize) -> GraphGenConfig {
        GraphGenConfig::builder()
            .large_output_factor(0.0)
            .preprocess(false)
            .auto_expand_threshold(None)
            .threads(threads)
            .incremental(incremental)
            .build()
    }

    fn extract(db: &Database, incremental: bool) -> GraphHandle {
        GraphGen::with_config(db, cfg(incremental, 1))
            .extract(Q1)
            .unwrap()
    }

    fn assert_matches_reextraction(db: &Database, patched: &GraphHandle) {
        let fresh = extract(db, false);
        assert_eq!(
            String::from_utf8(patched.canonical_bytes()).unwrap(),
            String::from_utf8(fresh.canonical_bytes()).unwrap()
        );
    }

    #[test]
    fn incremental_extraction_matches_plain() {
        let db = fig1_db();
        let g = extract(&db, true);
        assert!(g.is_incremental());
        assert_matches_reextraction(&db, &g);
    }

    #[test]
    fn empty_delta_is_noop() {
        let mut db = fig1_db();
        let mut g = extract(&db, true);
        let before = g.canonical_bytes();
        // Deleting a never-inserted row mutates nothing and logs nothing.
        let delta = db
            .delete_rows("AuthorPub", &[vec![Value::int(42), Value::int(42)]])
            .unwrap();
        assert!(delta.is_empty());
        let patch = g.apply_delta(&delta).unwrap();
        assert!(patch.is_empty());
        assert_eq!(g.canonical_bytes(), before);
    }

    #[test]
    fn membership_inserts_patch_in_place() {
        let mut db = fig1_db();
        let mut g = extract(&db, true);
        // a2 joins publication 3: new co-author edges with a3, a4, a5.
        let delta = db
            .insert_rows("AuthorPub", vec![vec![Value::int(2), Value::int(3)]])
            .unwrap();
        let patch = g.apply_delta(&delta).unwrap();
        assert!(!patch.is_empty());
        assert!(g.neighbors_by_key(&Value::int(2)).unwrap().len() >= 4);
        assert_matches_reextraction(&db, &g);
    }

    #[test]
    fn membership_deletes_patch_in_place() {
        let mut db = fig1_db();
        let mut g = extract(&db, true);
        // a4 leaves publication 1; it still shares publication 2 with a1.
        let delta = db
            .delete_rows("AuthorPub", &[vec![Value::int(4), Value::int(1)]])
            .unwrap();
        g.apply_delta(&delta).unwrap();
        assert_matches_reextraction(&db, &g);
    }

    #[test]
    fn insert_and_delete_same_row_in_one_batch_cancel() {
        let mut db = fig1_db();
        let mut g = extract(&db, true);
        let before = g.canonical_bytes();
        let ins = db
            .insert_rows("AuthorPub", vec![vec![Value::int(2), Value::int(3)]])
            .unwrap();
        let del = db
            .delete_rows("AuthorPub", &[vec![Value::int(2), Value::int(3)]])
            .unwrap();
        let batch = ins.then(del).unwrap();
        assert_eq!(batch.len(), 2);
        g.apply_delta(&batch).unwrap();
        assert_eq!(g.canonical_bytes(), before);
        assert_matches_reextraction(&db, &g);
    }

    #[test]
    fn node_views_add_remove_revive() {
        let mut db = fig1_db();
        let mut g = extract(&db, true);
        // Remove author 4 (the hub): its edges disappear.
        let delta = db
            .delete_rows("Author", &[vec![Value::int(4), Value::str("a4")]])
            .unwrap();
        let patch = g.apply_delta(&delta).unwrap();
        assert_eq!(patch.nodes_removed, 1);
        assert!(
            g.vertex_of(&Value::int(4)).is_none()
                || !g.is_alive(g.vertex_of(&Value::int(4)).unwrap())
        );
        assert_matches_reextraction(&db, &g);
        // Revive author 4 under a new name: edges come back, property updates.
        let delta = db
            .insert_rows("Author", vec![vec![Value::int(4), Value::str("renamed")]])
            .unwrap();
        let patch = g.apply_delta(&delta).unwrap();
        assert_eq!(patch.nodes_revived, 1);
        assert_eq!(
            g.vertex_property(&Value::int(4), "Name")
                .and_then(|p| p.as_text()),
            Some("renamed")
        );
        assert_matches_reextraction(&db, &g);
        // A brand-new author with a membership inserted before the node:
        let d1 = db
            .insert_rows("AuthorPub", vec![vec![Value::int(9), Value::int(1)]])
            .unwrap();
        g.apply_delta(&d1).unwrap();
        assert_matches_reextraction(&db, &g);
        let d2 = db
            .insert_rows("Author", vec![vec![Value::int(9), Value::str("a9")]])
            .unwrap();
        let patch = g.apply_delta(&d2).unwrap();
        assert_eq!(patch.nodes_added, 1);
        assert!(g
            .neighbors_by_key(&Value::int(9))
            .unwrap()
            .contains(&&Value::int(1)));
        assert_matches_reextraction(&db, &g);
    }

    #[test]
    fn support_changes_count_pairs_out_whether_or_not_they_cross_zero() {
        // One two-atom segment: a second copy of (1, 1) raises the support
        // of (1, 1) by 3 and of (1, 2), (1, 4), (2, 1), (4, 1) by 1 each.
        let mut db = fig1_db();
        let mut g = GraphGen::with_config(&db, bulk_cfg(None, 1, true))
            .extract(Q1)
            .unwrap();
        let dup = db
            .insert_rows("AuthorPub", vec![vec![Value::int(1), Value::int(1)]])
            .unwrap();
        let patch = g.apply_delta(&dup).unwrap();
        assert_eq!(patch.support_changes, 5);
        assert!(patch.is_empty(), "no support crossed zero: {patch:?}");
        // a2 joins publication 3: the new pairs (2, x), (x, 2) for x in
        // {2, 3, 4, 5} minus (2, 2) and (2, 4), (4, 2), which it already
        // shares through publication 1 — 7 pairs, 6 of them new.
        let join = db
            .insert_rows("AuthorPub", vec![vec![Value::int(2), Value::int(3)]])
            .unwrap();
        let mut total = patch.clone();
        let patch = g.apply_delta(&join).unwrap();
        assert_eq!(patch.support_changes, 7);
        assert!(!patch.is_empty());
        total.merge(&patch);
        assert_eq!(total.support_changes, 12);
        assert_matches_reextraction(&db, &g);
    }

    #[test]
    fn apply_delta_without_state_errors() {
        let db = fig1_db();
        let mut g = extract(&db, false);
        let delta = Delta::new("AuthorPub");
        let err = g.apply_delta(&delta).unwrap_err();
        assert!(matches!(
            err.as_patch(),
            Some(crate::error::PatchError::NotIncremental)
        ));
    }

    #[test]
    fn inconsistent_delta_reports() {
        let db = fig1_db();
        let mut g = extract(&db, true);
        // A hand-built delta deleting a row the table never held.
        let mut delta = Delta::new("AuthorPub");
        delta.push(vec![Value::int(42), Value::int(42)], DeltaOp::Delete);
        let err = g.apply_delta(&delta).unwrap_err();
        assert!(matches!(
            err.as_patch(),
            Some(crate::error::PatchError::Inconsistent(_))
        ));
    }

    #[test]
    fn patches_survive_conversion() {
        let mut db = fig1_db();
        let opts = ConvertOptions::default();
        let mut g = extract(&db, true);
        for target in [
            RepKind::Exp,
            RepKind::Dedup1,
            RepKind::Dedup2,
            RepKind::Bitmap,
        ] {
            // The maintained C-DUP takes the delta; every conversion of it
            // is derived from the patched version and is read-only.
            let delta = db
                .insert_rows("AuthorPub", vec![vec![Value::int(2), Value::int(3)]])
                .unwrap();
            g.apply_delta(&delta).unwrap();
            let mut converted = g.convert(target, &opts).unwrap();
            assert_eq!(converted.kind(), target);
            assert!(!converted.is_incremental());
            assert_matches_reextraction(&db, &converted);
            let err = converted.apply_delta(&delta).unwrap_err();
            assert!(
                matches!(
                    err.as_patch(),
                    Some(crate::error::PatchError::NotIncremental)
                ),
                "{target}: {err}"
            );
            // Undo for the next representation.
            let delta = db
                .delete_rows("AuthorPub", &[vec![Value::int(2), Value::int(3)]])
                .unwrap();
            g.apply_delta(&delta).unwrap();
            assert_matches_reextraction(&db, &g.convert(target, &opts).unwrap());
        }
    }

    #[test]
    fn thread_counts_are_byte_identical() {
        let mut db = fig1_db();
        let mut handles: Vec<GraphHandle> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                GraphGen::with_config(&db, cfg(true, t))
                    .extract(Q1)
                    .unwrap()
            })
            .collect();
        let delta = db
            .insert_rows(
                "AuthorPub",
                vec![
                    vec![Value::int(2), Value::int(3)],
                    vec![Value::int(5), Value::int(1)],
                ],
            )
            .unwrap();
        let bytes: Vec<Vec<u8>> = handles
            .iter_mut()
            .map(|g| {
                g.apply_delta(&delta).unwrap();
                g.canonical_bytes()
            })
            .collect();
        assert_eq!(bytes[0], bytes[1]);
        assert_eq!(bytes[0], bytes[2]);
        assert_matches_reextraction(&db, &handles[0]);
    }

    // -----------------------------------------------------------------------
    // Bulk load ≡ row-by-row replay
    // -----------------------------------------------------------------------

    /// The oracle the bulk loader is held to: reach the database state by
    /// pushing every referenced table through the delta engine as one
    /// insert-only delta, row by row — how extraction built the state
    /// before [`IncrementalState::bulk_load`].
    fn extract_by_replay(db: &Database, dsl: &str, cfg: GraphGenConfig) -> GraphHandle {
        let spec = graphgen_dsl::compile(dsl).unwrap();
        let plans: Vec<_> = spec
            .edges
            .iter()
            .map(|chain| plan_chain(db, chain, cfg.large_output_factor()).unwrap())
            .collect();
        let mut state = IncrementalState::new(&spec, &plans, cfg.threads());
        let mut graph = CondensedBuilder::new(0).build();
        let mut ids = Arc::new(IdMap::<Value>::new());
        let mut props = Arc::new(Properties::new(0));
        for table in state.referenced_tables() {
            let mut delta = Delta::new(table.as_str());
            for row in db.table(&table).unwrap().iter_rows() {
                delta.push(row, DeltaOp::Insert);
            }
            apply_delta_state(&mut state, &mut graph, &mut ids, &mut props, &delta).unwrap();
        }
        GraphHandle::from_parts_incremental(
            graph,
            Arc::unwrap_or_clone(ids),
            Arc::unwrap_or_clone(props),
            Default::default(),
            state,
        )
    }

    fn state_bytes(g: &GraphHandle) -> Vec<u8> {
        let mut out = Vec::new();
        g.incremental_state()
            .expect("incremental handle")
            .encode_into(&mut out);
        out
    }

    /// Every encoded byte of the maintenance state — engine dictionary,
    /// atom bags, supports, boundary key/virtual order, node entries — and
    /// the graph the handle serves.
    fn assert_same_handle(bulk: &GraphHandle, replay: &GraphHandle, what: &str) {
        assert!(state_bytes(bulk) == state_bytes(replay), "{what}: state");
        assert_eq!(
            String::from_utf8(bulk.canonical_bytes()).unwrap(),
            String::from_utf8(replay.canonical_bytes()).unwrap(),
            "{what}: canonical bytes"
        );
        let (b, r) = (bulk.graph(), replay.graph());
        assert_eq!(b.num_vertices(), r.num_vertices(), "{what}: vertices");
        assert_eq!(
            b.stored_edge_count(),
            r.stored_edge_count(),
            "{what}: stored edges"
        );
        assert_eq!(
            b.as_condensed().unwrap().num_virtual(),
            r.as_condensed().unwrap().num_virtual(),
            "{what}: virtual nodes"
        );
    }

    /// `factor`: `None` keeps the planner's default large-output factor.
    fn bulk_cfg(factor: Option<f64>, threads: usize, incremental: bool) -> GraphGenConfig {
        let b = GraphGenConfig::builder()
            .preprocess(false)
            .auto_expand_threshold(None)
            .threads(threads)
            .incremental(incremental);
        match factor {
            Some(f) => b.large_output_factor(f).build(),
            None => b.build(),
        }
    }

    /// Build the state both ways at 1/2/8 threads and require identity;
    /// returns the 2-thread pair for the caller to continue with deltas.
    fn both_ways(db: &Database, dsl: &str, factor: Option<f64>) -> (GraphHandle, GraphHandle) {
        let mut pair = None;
        for threads in [1, 2, 8] {
            let cfg = bulk_cfg(factor, threads, true);
            let bulk = GraphGen::with_config(db, cfg).extract(dsl).unwrap();
            let replay = extract_by_replay(db, dsl, cfg);
            assert_same_handle(&bulk, &replay, &format!("{threads} threads"));
            let fresh = GraphGen::with_config(db, bulk_cfg(factor, 1, false))
                .extract(dsl)
                .unwrap();
            assert_eq!(bulk.canonical_bytes(), fresh.canonical_bytes());
            if threads == 2 {
                pair = Some((bulk, replay));
            }
        }
        pair.unwrap()
    }

    /// Apply `deltas` to a bulk-built and a replay-built handle: they must
    /// stay byte-identical, and equal a from-scratch extraction of `db`.
    fn continue_both(
        db: &Database,
        dsl: &str,
        factor: Option<f64>,
        pair: &mut (GraphHandle, GraphHandle),
        deltas: &[Delta],
    ) {
        for delta in deltas {
            pair.0.apply_delta(delta).unwrap();
            pair.1.apply_delta(delta).unwrap();
        }
        assert_same_handle(&pair.0, &pair.1, "after deltas");
        let fresh = GraphGen::with_config(db, bulk_cfg(factor, 1, false))
            .extract(dsl)
            .unwrap();
        assert_eq!(
            String::from_utf8(pair.0.canonical_bytes()).unwrap(),
            String::from_utf8(fresh.canonical_bytes()).unwrap(),
            "bulk-built handle diverges from re-extraction"
        );
    }

    /// One cell: NULL `null_permille` times in a thousand, else uniform in
    /// `0..domain` (a small domain means many duplicate rows).
    fn cell(rng: &mut SplitMix64, domain: u64, null_permille: u64) -> Value {
        if rng.next_below(1000) < null_permille {
            Value::Null
        } else {
            Value::int(rng.next_below(domain) as i64)
        }
    }

    fn int_table(
        rng: &mut SplitMix64,
        cols: &[&str],
        rows: usize,
        domain: u64,
        null_permille: u64,
    ) -> Table {
        let mut t = Table::new(Schema::new(cols.iter().map(|c| Column::int(*c)).collect()));
        for _ in 0..rows {
            t.push_row(
                cols.iter()
                    .map(|_| cell(rng, domain, null_permille))
                    .collect(),
            )
            .unwrap();
        }
        t
    }

    /// `Entity(id, name)`: ids `0..n` in shuffled order, every third one
    /// missing (so edge endpoints exist that are no node key), a few
    /// repeated under another name, one NULL key.
    fn entity_table(rng: &mut SplitMix64, n: i64) -> Table {
        let mut t = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        let mut keys: Vec<i64> = (0..n).filter(|k| k % 3 != 1).collect();
        rng.shuffle(&mut keys);
        for k in keys {
            t.push_row(vec![Value::int(k), Value::str(format!("e{k}"))])
                .unwrap();
            if k % 7 == 0 {
                t.push_row(vec![Value::int(k), Value::str(format!("alias{k}"))])
                    .unwrap();
            }
        }
        t.push_row(vec![Value::Null, Value::str("nobody")]).unwrap();
        t
    }

    /// Delete `deletes` random live rows of `table` and insert `inserts`
    /// fresh random ones.
    fn churn(
        db: &mut Database,
        table: &str,
        rng: &mut SplitMix64,
        deletes: usize,
        inserts: usize,
        domain: u64,
    ) -> Vec<Delta> {
        let t = db.table(table).unwrap();
        let arity = t.schema().arity();
        let live: Vec<Vec<Value>> = t.iter_rows().collect();
        let gone: Vec<Vec<Value>> = (0..deletes.min(live.len()))
            .map(|_| live[rng.next_below(live.len() as u64) as usize].clone())
            .collect();
        let fresh: Vec<Vec<Value>> = (0..inserts)
            .map(|_| (0..arity).map(|_| cell(rng, domain, 50)).collect())
            .collect();
        vec![
            db.delete_rows(table, &gone).unwrap(),
            db.insert_rows(table, fresh).unwrap(),
        ]
    }

    const COAUTHORS: &str = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                             Edges(A, B) :- M(A, G), M(B, G).";

    /// The serve plan: sparse memberships under the default factor plan as
    /// one two-atom self-join segment — direct edges, no virtual node —
    /// and big enough that the 2- and 8-thread joins really fan out.
    #[test]
    fn bulk_single_segment_self_join() {
        for seed in [1, 2, 3] {
            let mut rng = SplitMix64::new(seed);
            let mut db = Database::new();
            db.register("Entity", entity_table(&mut rng, 900)).unwrap();
            db.register("M", int_table(&mut rng, &["e", "g"], 4000, 3000, 20))
                .unwrap();
            let mut pair = both_ways(&db, COAUTHORS, None);
            assert_eq!(pair.0.report().plans[0].segments.len(), 1);
            assert_eq!(pair.0.graph().as_condensed().unwrap().num_virtual(), 0);
            assert!(pair.0.graph().stored_edge_count() > 0);
            for _ in 0..3 {
                let deltas = churn(&mut db, "M", &mut rng, 30, 30, 3000);
                continue_both(&db, COAUTHORS, None, &mut pair, &deltas);
            }
            // Tombstoned rows and recycled dictionary slots underneath.
            both_ways(&db, COAUTHORS, None);
        }
    }

    /// Factor 0.0 cuts the self-join: two single-atom segments, one layer
    /// of virtual nodes; duplicates and NULLs on both sides of the cut.
    #[test]
    fn bulk_two_single_atom_segments() {
        for seed in [4, 5, 6] {
            let mut rng = SplitMix64::new(seed);
            let mut db = Database::new();
            db.register("Entity", entity_table(&mut rng, 60)).unwrap();
            db.register("M", int_table(&mut rng, &["e", "g"], 1500, 40, 60))
                .unwrap();
            let mut pair = both_ways(&db, COAUTHORS, Some(0.0));
            assert_eq!(pair.0.report().plans[0].segments.len(), 2);
            assert!(pair.0.graph().as_condensed().unwrap().num_virtual() > 0);
            for _ in 0..3 {
                let mut deltas = churn(&mut db, "M", &mut rng, 40, 40, 40);
                deltas.extend(churn(&mut db, "Entity", &mut rng, 3, 0, 60));
                continue_both(&db, COAUTHORS, Some(0.0), &mut pair, &deltas);
            }
            both_ways(&db, COAUTHORS, Some(0.0));
        }
    }

    /// Three segments: the middle one is virtual → virtual, and its two
    /// boundaries are each fed from two segments. `R` is small, so many
    /// middle pairs are the first to name both their boundary ids.
    #[test]
    fn bulk_three_segment_chain() {
        let dsl = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                   Edges(A, B) :- R(A, X), S(X, Y), T(Y, B).";
        for seed in [7, 8] {
            let mut rng = SplitMix64::new(seed);
            let mut db = Database::new();
            db.register("Entity", entity_table(&mut rng, 50)).unwrap();
            db.register("R", int_table(&mut rng, &["a", "x"], 60, 50, 30))
                .unwrap();
            db.register("S", int_table(&mut rng, &["x", "y"], 300, 50, 30))
                .unwrap();
            db.register("T", int_table(&mut rng, &["y", "b"], 1200, 50, 30))
                .unwrap();
            let mut pair = both_ways(&db, dsl, Some(0.0));
            assert_eq!(pair.0.report().plans[0].segments.len(), 3);
            for table in ["S", "R", "T"] {
                let deltas = churn(&mut db, table, &mut rng, 25, 25, 50);
                continue_both(&db, dsl, Some(0.0), &mut pair, &deltas);
            }
        }
    }

    /// One segment over two tables completes at whichever is scanned
    /// later: `S` when the node view reads `Entity`, `R` when it reads
    /// `S` (node views come first in table order) — there `S` also serves
    /// a node view and an atom at once.
    #[test]
    fn bulk_segment_over_two_tables() {
        let by_entity = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                         Edges(A, B) :- R(A, X), S(X, B).";
        let by_s = "Nodes(ID) :- S(_, ID).\nEdges(A, B) :- R(A, X), S(X, B).";
        for (seed, dsl) in [(9, by_entity), (10, by_s)] {
            let mut rng = SplitMix64::new(seed);
            let mut db = Database::new();
            db.register("Entity", entity_table(&mut rng, 80)).unwrap();
            db.register("R", int_table(&mut rng, &["a", "x"], 2500, 80, 30))
                .unwrap();
            db.register("S", int_table(&mut rng, &["x", "b"], 2500, 80, 30))
                .unwrap();
            let mut pair = both_ways(&db, dsl, Some(1e12));
            assert_eq!(pair.0.report().plans[0].segments.len(), 1);
            for table in ["R", "S"] {
                let deltas = churn(&mut db, table, &mut rng, 30, 30, 80);
                continue_both(&db, dsl, Some(1e12), &mut pair, &deltas);
            }
        }
    }

    /// A friend-of-friend chain over the table the nodes come from, cut
    /// and uncut: the table is scanned as a view and as both atoms.
    #[test]
    fn bulk_one_table_as_view_and_atoms() {
        let dsl = "Nodes(ID) :- F(ID, _).\nEdges(A, B) :- F(A, X), F(X, B).";
        for (seed, factor) in [(11, 0.0), (12, 1e12)] {
            let mut rng = SplitMix64::new(seed);
            let mut db = Database::new();
            db.register("F", int_table(&mut rng, &["src", "dst"], 2000, 70, 40))
                .unwrap();
            let mut pair = both_ways(&db, dsl, Some(factor));
            let deltas = churn(&mut db, "F", &mut rng, 50, 50, 70);
            continue_both(&db, dsl, Some(factor), &mut pair, &deltas);
        }
    }

    /// Two rules yield overlapping pairs (direct edges are reference-
    /// counted across chains), and filter constants select rows in an atom
    /// and in a node view.
    #[test]
    fn bulk_two_chains_and_filters() {
        let dsl = "Nodes(ID, Name) :- Person(ID, Name, 1).\n\
                   Edges(A, B) :- M(A, G, 7), M(B, G, 7).\n\
                   Edges(A, B) :- M(A, G, Y), M(B, G, Y).";
        for (seed, factor) in [(13, None), (14, Some(0.0))] {
            let mut rng = SplitMix64::new(seed);
            let mut person = Table::new(Schema::new(vec![
                Column::int("id"),
                Column::str("name"),
                Column::int("kind"),
            ]));
            for k in 0..60i64 {
                person
                    .push_row(vec![
                        Value::int(k),
                        Value::str(format!("p{k}")),
                        Value::int(k % 2),
                    ])
                    .unwrap();
            }
            let mut m = Table::new(Schema::new(vec![
                Column::int("e"),
                Column::int("g"),
                Column::int("y"),
            ]));
            for _ in 0..1500 {
                m.push_row(vec![
                    cell(&mut rng, 60, 20),
                    cell(&mut rng, 400, 20),
                    Value::int(6 + rng.next_below(3) as i64),
                ])
                .unwrap();
            }
            let mut db = Database::new();
            db.register("Person", person).unwrap();
            db.register("M", m).unwrap();
            let mut pair = both_ways(&db, dsl, factor);
            let gone: Vec<Vec<Value>> = db.table("M").unwrap().iter_rows().take(40).collect();
            let deltas = vec![db.delete_rows("M", &gone).unwrap()];
            continue_both(&db, dsl, factor, &mut pair, &deltas);
        }
    }

    /// Two node views yield the same keys with different properties, in
    /// an order where the second view's table is scanned between the
    /// first view's table and the atoms.
    #[test]
    fn bulk_two_views_share_keys() {
        let dsl = "Nodes(ID, Name) :- P(ID, Name).\n\
                   Nodes(ID, Name) :- Q(ID, Name).\n\
                   Edges(A, B) :- M(A, G), M(B, G).";
        let mut rng = SplitMix64::new(15);
        let named = |prefix: &str, keys: std::ops::Range<i64>| {
            let mut t = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
            for k in keys {
                t.push_row(vec![Value::int(k), Value::str(format!("{prefix}{k}"))])
                    .unwrap();
            }
            t
        };
        let mut db = Database::new();
        db.register("P", named("p", 0..40)).unwrap();
        db.register("Q", named("q", 25..70)).unwrap();
        db.register("M", int_table(&mut rng, &["e", "g"], 1200, 80, 10))
            .unwrap();
        for factor in [None, Some(0.0)] {
            let mut pair = both_ways(&db, dsl, factor);
            assert_eq!(
                pair.0
                    .vertex_property(&Value::int(30), "Name")
                    .and_then(|p| p.as_text()),
                Some("q30"),
                "the later view's value wins"
            );
            // Key 30 loses its Q row and falls back to P's name; it comes
            // back under another name.
            let deltas = vec![
                db.delete_rows("Q", &[vec![Value::int(30), Value::str("q30")]])
                    .unwrap(),
                db.insert_rows("Q", vec![vec![Value::int(30), Value::str("q30")]])
                    .unwrap(),
            ];
            continue_both(&db, dsl, factor, &mut pair, &deltas);
        }
    }

    #[test]
    fn bulk_empty_tables() {
        let empty = |cols: Vec<Column>| Table::new(Schema::new(cols));
        for (entities, memberships) in [(false, false), (true, false), (false, true)] {
            for factor in [None, Some(0.0)] {
                let mut rng = SplitMix64::new(16);
                let mut db = Database::new();
                let entity = if entities {
                    entity_table(&mut rng, 20)
                } else {
                    empty(vec![Column::int("id"), Column::str("name")])
                };
                let m = if memberships {
                    int_table(&mut rng, &["e", "g"], 100, 20, 0)
                } else {
                    empty(vec![Column::int("e"), Column::int("g")])
                };
                db.register("Entity", entity).unwrap();
                db.register("M", m).unwrap();
                let mut pair = both_ways(&db, COAUTHORS, factor);
                let deltas = vec![
                    db.insert_rows("M", vec![vec![Value::int(3), Value::int(1)]; 2])
                        .unwrap(),
                    db.insert_rows("Entity", vec![vec![Value::int(3), Value::str("e3")]])
                        .unwrap(),
                ];
                continue_both(&db, COAUTHORS, factor, &mut pair, &deltas);
            }
        }
    }

    /// The named hand-offs from bulk-built state to the delta engine, on
    /// Fig. 1 plus a duplicated row and a membership of a non-author.
    #[test]
    fn bulk_built_state_continues_under_deltas() {
        for factor in [None, Some(0.0)] {
            let mut db = fig1_db();
            db.insert_rows(
                "AuthorPub",
                vec![
                    vec![Value::int(2), Value::int(1)], // (2, 1) is now held twice
                    vec![Value::int(9), Value::int(3)], // author 9 is no node
                ],
            )
            .unwrap();
            let mut pair = both_ways(&db, Q1, factor);
            let mut step = |db: &Database, delta: Delta| {
                continue_both(db, Q1, factor, &mut pair, &[delta]);
            };
            // Delete one copy of the duplicated row: no edge may go.
            let d = db
                .delete_rows("AuthorPub", &[vec![Value::int(2), Value::int(1)]])
                .unwrap();
            step(&db, d);
            // Delete the other: the supports of a2's pairs reach zero.
            let d = db
                .delete_rows("AuthorPub", &[vec![Value::int(2), Value::int(1)]])
                .unwrap();
            step(&db, d);
            // Remove the hub, then revive it.
            let d = db
                .delete_rows("Author", &[vec![Value::int(4), Value::str("a4")]])
                .unwrap();
            step(&db, d);
            let d = db
                .insert_rows("Author", vec![vec![Value::int(4), Value::str("back")]])
                .unwrap();
            step(&db, d);
            // The non-node endpoint becomes a node and gains its edges.
            let d = db
                .insert_rows("Author", vec![vec![Value::int(9), Value::str("a9")]])
                .unwrap();
            step(&db, d);
            assert!(pair
                .0
                .neighbors_by_key(&Value::int(9))
                .unwrap()
                .contains(&&Value::int(3)));
        }
    }

    // -----------------------------------------------------------------------
    // Hostile snapshot bytes
    // -----------------------------------------------------------------------

    /// The encoded state of Q1 over Fig. 1 cut into two single-atom
    /// segments, and the offset of segment 0's support map in it.
    fn encoded_state_with_support_at() -> (Vec<u8>, usize) {
        let g = GraphGen::with_config(&fig1_db(), cfg(true, 1))
            .extract(Q1)
            .unwrap();
        let bytes = state_bytes(&g);
        // Fig. 1's eight (author, publication) pairs, each held once: the
        // first map of eight entries whose first count is 1.
        let n = 8u64.to_le_bytes();
        let at = (0..bytes.len() - 32)
            .find(|&i| bytes[i..i + 8] == n && bytes[i + 16..i + 24] == 1i64.to_le_bytes())
            .expect("support map of segment 0");
        (bytes, at)
    }

    fn decode_state(bytes: &[u8]) -> Result<IncrementalState, CodecError> {
        IncrementalState::decode(&mut Reader::new(bytes))
    }

    #[test]
    fn decode_rejects_zero_multiplicity() {
        let (mut bytes, at) = encoded_state_with_support_at();
        assert!(decode_state(&bytes).is_ok());
        bytes[at + 16..at + 24].copy_from_slice(&0i64.to_le_bytes());
        let err = decode_state(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { at: pos, what }
                if *pos == at + 8 && what.contains("multiplicity")),
            "{err}"
        );
    }

    #[test]
    fn decode_rejects_duplicate_packed_key() {
        let (mut bytes, at) = encoded_state_with_support_at();
        // Entry 1's key := entry 0's key.
        let first = bytes[at + 8..at + 16].to_vec();
        bytes[at + 24..at + 32].copy_from_slice(&first);
        let err = decode_state(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { at: pos, what }
                if *pos == at + 24 && what.contains("ascending")),
            "{err}"
        );
    }

    /// Q1 over Fig. 1 as one two-atom segment: the self-join's one bag,
    /// `(publication, author)`, has three publication slots, the first
    /// holding three authors, one each. Its offset in the encoded state.
    fn shared_bag_at(bytes: &[u8]) -> usize {
        let three = 3u64.to_le_bytes();
        (0..bytes.len() - 24)
            .find(|&i| bytes[i..i + 8] == three && bytes[i + 12..i + 20] == three)
            .expect("the self-join's bag")
    }

    #[test]
    fn decode_rejects_empty_bag_slot() {
        let g = GraphGen::with_config(&fig1_db(), bulk_cfg(None, 1, true))
            .extract(Q1)
            .unwrap();
        let mut bytes = state_bytes(&g);
        assert!(decode_state(&bytes).is_ok());
        let at = shared_bag_at(&bytes);
        // Slot 0 keeps its id but loses its three entries: a slot the
        // encoder never writes.
        let count = at + 8 + 4;
        bytes.drain(count + 8..count + 8 + 3 * 12);
        bytes[count..count + 8].copy_from_slice(&0u64.to_le_bytes());
        let err = decode_state(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { at: pos, what }
                if *pos == count && what.contains("empty bag slot")),
            "{err}"
        );
    }

    #[test]
    fn decode_rejects_descending_bag_slot() {
        let g = GraphGen::with_config(&fig1_db(), bulk_cfg(None, 1, true))
            .extract(Q1)
            .unwrap();
        let mut bytes = state_bytes(&g);
        assert!(decode_state(&bytes).is_ok());
        let at = shared_bag_at(&bytes);
        // Slot 1's id := 0, not above slot 0's: it would overwrite a bag.
        let second = at + 8 + 4 + 8 + 3 * 12;
        bytes[second..second + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = decode_state(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { at: pos, what }
                if *pos == second && what.contains("bag slots")),
            "{err}"
        );
    }

    #[test]
    fn decode_rejects_a_bad_presence_tag() {
        let g = extract(&fig1_db(), true);
        let mut bytes = state_bytes(&g);
        assert!(decode_state(&bytes).is_ok());
        // The state ends with the last node row's one property cell:
        // present, text, "a5".
        let at = bytes.len() - (1 + 1 + 8 + 2);
        assert_eq!(bytes[at..at + 2], [1, 2]);
        assert!(bytes.ends_with(b"a5"));
        bytes[at] = 7;
        let err = decode_state(&bytes).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { at: pos, what }
                if *pos == at && what.contains("bad presence tag 7")),
            "{err}"
        );
    }

    /// `M(e, g, y)` with `y` in {7, 8}, keys and groups from small domains.
    fn tagged_memberships(rng: &mut SplitMix64, rows: usize) -> Table {
        let mut m = Table::new(Schema::new(vec![
            Column::int("e"),
            Column::int("g"),
            Column::int("y"),
        ]));
        for _ in 0..rows {
            let row = vec![
                cell(rng, 40, 20),
                cell(rng, 40, 20),
                Value::int(7 + rng.next_below(2) as i64),
            ];
            m.push_row(row).unwrap();
        }
        m
    }

    /// Which bags a segment keeps and whether a chain keeps `by_right`
    /// follow from the atoms alone: atoms over one relation in one
    /// orientation share a bag, a single atom keeps none, and a chain whose
    /// last segment mirrors its first reads that support instead of
    /// keeping its transpose. Each shape also continues under deltas.
    #[test]
    fn the_chain_shape_decides_which_structures_exist() {
        let cases: [(&str, f64, &[usize], bool); 8] = [
            // A self-join: one bag read by both atoms; mirrors itself.
            ("M(A, G, 7), M(B, G, 7)", 1e12, &[1], false),
            ("M(A, G, 7), M(B, G, 7)", 0.0, &[0, 0], false),
            // Different predicates: two relations, no mirror.
            ("M(A, G, 7), M(B, G, 8)", 1e12, &[2], true),
            // Friend of friend: one relation read in two orientations.
            ("M(A, X, 7), M(X, B, 7)", 1e12, &[2], true),
            // The outer atoms share a bag around a middle atom on the same
            // table; the cut chain's last segment mirrors its first.
            ("M(A, G, 7), M(G, H, 8), M(B, H, 7)", 1e12, &[3], true),
            ("M(A, G, 7), M(G, H, 8), M(B, H, 7)", 0.0, &[0, 0, 0], false),
            // Three copies of one relation: two bags, one per orientation.
            ("M(A, X, 7), M(X, Y, 7), M(Y, B, 7)", 1e12, &[2], true),
            // A palindrome over two relations mirrors itself, its inner
            // atoms sharing both of their bags.
            (
                "M(A, G, 7), M(G, H, 8), M(G2, H, 8), M(B, G2, 7)",
                1e12,
                &[3],
                false,
            ),
        ];
        for (seed, (body, factor, bags, by_right)) in cases.into_iter().enumerate() {
            let dsl = format!("Nodes(ID, Name) :- Entity(ID, Name).\nEdges(A, B) :- {body}.");
            let mut rng = SplitMix64::new(30 + seed as u64);
            let mut db = Database::new();
            db.register("Entity", entity_table(&mut rng, 40)).unwrap();
            db.register("M", tagged_memberships(&mut rng, 300)).unwrap();
            let mut pair = both_ways(&db, &dsl, Some(factor));
            let state = pair.0.incremental_state().unwrap();
            let kept: Vec<usize> = state.chains[0]
                .segments
                .iter()
                .map(|s| s.bags.len())
                .collect();
            assert_eq!(kept, bags, "{body} at factor {factor}: bags per segment");
            let has_index = state.chains[0].by_right.is_some();
            assert_eq!(has_index, by_right, "{body} at factor {factor}: by_right");
            let mut deltas = churn(&mut db, "M", &mut rng, 20, 20, 40);
            deltas.extend(churn(&mut db, "Entity", &mut rng, 2, 0, 40));
            continue_both(&db, &dsl, Some(factor), &mut pair, &deltas);
        }
    }
}
