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
//! zero removes it — and a new node, whose partners in the first support
//! and in the reverse index (`by_right`, or a mirrored support where the
//! chain keeps none) are fed through it as first- and last-segment pairs.
//! `Nodes`-view deltas add, remove, or revive real vertices and re-derive
//! their properties.
//!
//! The handle always holds the C-DUP graph extraction built — conversions
//! are derived, read-only handles (see [`crate::GraphHandle::convert`]) —
//! so every operation applies directly to it: a patch costs a handful of
//! sorted adjacency-list edits.
//!
//! Every keyed structure of the state — atom bags, supports, the reverse
//! index of a chain's last support where it is kept — is one
//! `CountedRuns`: the `Bag` the relational operators write, 8 bytes a pair
//! under per-left-id run offsets, plus a small overlay of the changes
//! deltas made since, folded back when it outgrows a fixed fraction of the
//! runs. A count past `u32::MAX` is refused.
//! How many single-segment chains output a pair (the reference count of
//! its direct edge) is a function of their supports, read from them where
//! needed and never kept beside them.
//!
//! A segment that mirrors itself — its atoms read backwards with their
//! columns swapped are its atoms, as in the co-author self-join
//! `AuthorPub(a, p), AuthorPub(b, p)` — has a symmetric support, and keeps
//! only its pairs `(l, r)` with `l ≤ r`. This follows from the atoms, like
//! every other layout choice. A delta's support changes are still
//! computed, counted and materialized for every ordered pair; only the
//! `l ≤ r` half moves a count. A probe normalises its pair, and a new
//! node's partners are its stored run plus one probe per smaller left id,
//! `O(left ids × log)` per node add on such a segment.
//!
//! Correctness contract: after any sequence of deltas, the patched handle's
//! canonical serialization ([`crate::serialize::canonical_bytes`]) is
//! byte-identical to a from-scratch extraction on the mutated database —
//! enforced by `tests/incremental_oracle.rs` at 1/2/8 threads.
//!
//! # How the state is first built
//!
//! The update routine above is not how the state reaches the current
//! database: `IncrementalState::bulk_load` is the linear preprocessing
//! phase, and it is ordinary query evaluation whose intermediate results
//! are kept. It scans every node view once, then runs each segment query
//! through the evaluator batch extraction runs (`Query::run_keeping`),
//! which hands it every atom's grouped bag once no later join reads it —
//! kept as the segment's bags, since the operators write the layout the
//! state keeps — and the last join's output run by run, kept as the
//! segment's `support` as it comes (a mirrored segment's from the diagonal
//! up). Every segment's pairs then go to `crate::extract::emit_segment`,
//! as in batch extraction, with the chain's `Boundaries` numbering the
//! virtual nodes. Two orders are computed up front so that the real ids
//! and the virtual-node numbering — and with them every field of the
//! state — equal a row-by-row replay of every table through
//! `apply_delta_state`: node views by their table's position in
//! `referenced_tables`, then view index; segments by the position of the
//! last table they read, then chain, then segment, the order the replay
//! completes them in. That replay survives as the `#[cfg(test)]` oracle of
//! the `bulk_*` tests. The reverse index of a last support is derived by
//! `IncrementalState::derive_indexes`. The serving layer persists no state:
//! recovery replays the log into the database and runs this bulk load
//! again.
//!
//! # One id space
//!
//! Every id the state keeps — a bag's or a support's endpoints, a boundary
//! key, a node key — is the database dictionary's [`Vid`] of the value,
//! read off the scanned rows and off each [`Delta`] row's ids; the state
//! keeps no dictionary of its own. The database dictionary never reuses an
//! id, so a key kept after its rows are gone (a dead node, a boundary
//! value) still names its value. A delta therefore applies only to a state
//! built from the database that produced it.

use crate::error::{Error, PatchError};
use crate::extract::{emit_segment, real_from, segment_edge, StoredEdge};
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
use graphgen_reldb::exec::{pack, right_of, scan_project, unpack, Bag, BagBuilder};
use graphgen_reldb::query::{ChainStep, Output};
use graphgen_reldb::{Database, Delta, DeltaOp, Predicate, Value, Vid, NULL_VID};

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
    step: ChainStep,
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
    /// `DISTINCT`); a left endpoint's run is its distinct output. Where the
    /// segment mirrors itself the output is symmetric and only the pairs
    /// with `l ≤ r` are kept: read it through [`SegmentState::count`] and
    /// [`SegmentState::partners`].
    support: CountedRuns,
    /// Whether the segment mirrors itself ([`mirrors`]), as
    /// `AuthorPub(a, p), AuthorPub(b, p)` does.
    mirrored: bool,
}

/// The maintained state of one `Edges` chain.
#[derive(Debug, Clone)]
struct ChainState {
    segments: Vec<SegmentState>,
    bounds: Boundaries,
    /// `(r, l) → 1` for every pair of the last segment's support, whose
    /// right endpoints a new node looks itself up by. `None` when the last
    /// segment mirrors the first ([`mirrors`]), whose support is then read
    /// instead, or itself, whose partners are then read as they are.
    by_right: Option<CountedRuns>,
}

/// The virtual-node numbering of a chain's boundaries between segments:
/// a batch extraction's while it emits the chain, a maintained one's for
/// the life of the state.
#[derive(Debug, Clone)]
pub(crate) struct Boundaries {
    /// Per boundary: interned id → boundary-local dense index (`u32::MAX` =
    /// not seen at this boundary), flat-indexed by id.
    index: Vec<Vec<u32>>,
    /// Per boundary: boundary-local index → the id it was allocated for
    /// (the interning order).
    keys: Vec<Vec<Vid>>,
    /// Per boundary: boundary-local index → allocated virtual node.
    virts: Vec<Vec<VirtId>>,
}

impl Boundaries {
    pub(crate) fn new(boundaries: usize) -> Self {
        Self {
            index: vec![Vec::new(); boundaries],
            keys: vec![Vec::new(); boundaries],
            virts: vec![Vec::new(); boundaries],
        }
    }

    /// The virtual node of `vid` at boundary `b`, interning `vid` and
    /// taking a node from `alloc` on first sight. The flat `index` makes
    /// the common repeat case a single array load.
    pub(crate) fn virt(&mut self, b: usize, vid: Vid, alloc: impl FnOnce() -> VirtId) -> VirtId {
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
    /// Per database id, the node-view rows that currently yield it as a
    /// node key, in arrival order; empty for an id no row yields.
    node_rows: Vec<Box<[PropRow]>>,
    /// Flat database id → real node id side-table (`u32::MAX` = the id is
    /// not a node key). Pure cache over the handle's `IdMap` — the id map
    /// is append-only, so entries never invalidate — letting the hot
    /// materialize paths resolve an endpoint with one array load instead
    /// of a value hash into the id map. Filled by the bulk load and
    /// maintained by the node-add path during live applies.
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
                    .map(|seg| SegmentState::new(seg.query.steps.iter().cloned()))
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
            real_ids: Vec::new(),
        };
        state.derive_indexes();
        state
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
            dictionary: self.real_ids.heap_bytes() + bounds.sum::<usize>(),
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
                .map(|a| a.step.table.as_str()),
        );
        for name in names {
            if seen.insert(name.to_string()) {
                out.push(name.to_string());
            }
        }
        out
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
    /// The id tables: the real id of each node key and the boundaries'
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

/// `(l, r)` as `(min, max)`: where a mirrored support keeps the pair.
fn normalized(key: u64) -> u64 {
    let (l, r) = unpack(key);
    pack(l.min(r), l.max(r))
}

impl SegmentState {
    /// A segment over the atoms of `steps` with empty bags, each pointed at
    /// the bags a delta join walks it through: `by_out` for every atom but
    /// the last, `by_in` for every atom but the first — so a single-atom
    /// segment keeps none. Atoms over the same relation in the same
    /// orientation — same table, equal predicate, same key and value
    /// columns — share one bag: a self-join's second atom reads its
    /// partner's `by_out` as its `by_in`. The layout follows from the atoms
    /// alone, so the bulk load and the empty state agree on it.
    fn new(steps: impl IntoIterator<Item = ChainStep>) -> Self {
        let atom = |step| AtomState {
            step,
            by_in: None,
            by_out: None,
        };
        let mut atoms: Vec<AtomState> = steps.into_iter().map(atom).collect();
        let m = atoms.len();
        // Per bag: the atom that first read it, and its key and value columns.
        let mut relations: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..m {
            let (in_col, out_col) = (atoms[i].step.in_col, atoms[i].step.out_col);
            let walks = [(i > 0, in_col, out_col), (i + 1 < m, out_col, in_col)];
            let mut picked = [None, None];
            for (slot, (walked, key, value)) in picked.iter_mut().zip(walks) {
                if !walked {
                    continue;
                }
                let same = |&(a, k, v): &(usize, usize, usize)| {
                    let (other, this) = (&atoms[a].step, &atoms[i].step);
                    (k, v) == (key, value) && other.table == this.table && other.pred == this.pred
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
            mirrored: mirrors(&atoms, &atoms),
            atoms,
            bags: vec![CountedRuns::default(); relations.len()],
            support: CountedRuns::default(),
        }
    }

    /// The support of output pair `key`: a mirrored support keeps `(l, r)`
    /// with `l > r` as `(r, l)`.
    fn count(&self, key: u64) -> i64 {
        self.support
            .get(if self.mirrored { normalized(key) } else { key })
    }

    /// Every `r` with `(l, r)` in the output, ascending. A mirrored
    /// support's run of `l` holds those from `l` up; those below are found
    /// by probing each smaller left id's run for `l`, `O(l × log)`.
    fn partners(&self, l: Vid) -> impl Iterator<Item = Vid> + '_ {
        let below = (0..if self.mirrored { l } else { 0 })
            .filter(move |&x| self.support.get(pack(x, l)) > 0);
        below.chain(self.support.run(l).map(|(r, _)| r))
    }

    /// Fill the bags from every atom's bag of `(in, out)` pairs, as the
    /// segment evaluator hands them over: a bag some atom reads by `in` is
    /// that atom's bag, moved; a bag read by `out` only is its first
    /// reader's bag, transposed. Bags no segment bag takes are dropped.
    fn adopt(&mut self, atoms: Vec<Bag>) {
        let mut atoms: Vec<Option<Bag>> = atoms.into_iter().map(Some).collect();
        let reader = |b, by_in: bool| {
            let reads = |a: &AtomState| if by_in { a.by_in } else { a.by_out } == Some(b);
            self.atoms.iter().position(reads)
        };
        // Transposes first: the bags they read may be moved below.
        for b in (0..self.bags.len()).filter(|&b| reader(b, true).is_none()) {
            let i = reader(b, false).expect("every bag is read");
            let of = atoms[i].as_ref().expect("an atom's bag");
            self.bags[b] = CountedRuns::from(of.transpose());
        }
        for b in 0..self.bags.len() {
            if let Some(i) = reader(b, true) {
                self.bags[b] = CountedRuns::from(atoms[i].take().expect("moved once"));
            }
        }
    }

    /// Propagate a table delta through this segment: telescoping delta
    /// joins per changed atom (prefix atoms at their new state, suffix
    /// atoms at their old state), morsel-parallel over the delta rows, then
    /// support-count transitions for the incremental DISTINCT.
    ///
    /// Returns the output pairs that (dis)appeared as database-id pairs,
    /// each sorted, so the virtual nodes they take are numbered alike at
    /// every thread count.
    ///
    /// Also returns how many output pairs' support changed at all.
    #[allow(clippy::type_complexity)]
    fn transitions(
        &mut self,
        delta: &Delta,
        threads: usize,
    ) -> Result<(Vec<(Vid, Vid)>, Vec<(Vid, Vid)>, usize), Error> {
        // Project the delta rows through every atom on the table, in atom
        // order, keyed by the rows' database ids.
        let mut changed: Vec<(usize, Vec<(u64, i64)>)> = Vec::new();
        for (j, atom) in self.atoms.iter().enumerate() {
            let step = &atom.step;
            if step.table != delta.table() {
                continue;
            }
            let mut dj: FxHashMap<u64, i64> = FxHashMap::default();
            for row in delta.rows() {
                if !step.pred.eval(&row.values) {
                    continue;
                }
                let key = pack(row.ids[step.in_col], row.ids[step.out_col]);
                *dj.entry(key).or_insert(0) += row.op.sign();
            }
            dj.retain(|_, m| *m != 0);
            if !dj.is_empty() {
                changed.push((j, dj.into_iter().collect()));
            }
        }
        // Each bag's change in its own orientation, sorted. A bag holds one
        // relation however many atoms read it, so it changes once.
        let mut change: Vec<Vec<(u64, i64)>> = vec![Vec::new(); self.bags.len()];
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
                bag.add(key, d, "multiplicity")?;
            }
        }
        sdelta.retain(|_, d| *d != 0);
        // Support transitions, in sorted id-pair order so virtual-node
        // numbering is identical for every thread count.
        let mut changes: Vec<(u64, i64)> = sdelta.into_iter().collect();
        changes.sort_unstable_by_key(|&(k, _)| k);
        let what = "support of output pair";
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for &(key, d) in &changes {
            let (l, r) = unpack(key);
            // A mirrored segment's change is symmetric: `(r, l)` came
            // earlier in this walk with the same `d`, and moved the one
            // count both pairs share.
            let old = if self.mirrored && l > r {
                self.support.get(flip(key)) - d
            } else {
                self.support.add(key, d, what)?
            };
            if old == 0 && old + d > 0 {
                added.push(unpack(key));
            } else if old > 0 && old + d == 0 {
                removed.push(unpack(key));
            }
        }
        Ok((added, removed, changes.len()))
    }
}

/// Whether the atoms `last` of a segment mirror the atoms `first` of
/// another: they are `first` in reverse order, each with its columns
/// swapped ([`ChainStep::transposes`]) — as in `M(a, g), M(b, g)`, where
/// one segment mirrors itself. The support of `last` is then the support
/// of `first` transposed, count for count, and a segment that mirrors
/// itself has a symmetric support.
fn mirrors(first: &[AtomState], last: &[AtomState]) -> bool {
    first.len() == last.len()
        && first
            .iter()
            .zip(last.iter().rev())
            .all(|(a, b)| a.step.transposes(&b.step))
}

// ---------------------------------------------------------------------------
// Materialization: segment transitions -> graph operations
// ---------------------------------------------------------------------------

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
/// first segment (its [`SegmentState::partners`]) and as a right endpoint
/// of its last (the `by_right` run; where the chain keeps none, the
/// partners in the last segment if it mirrors itself, else in the first,
/// which the last mirrors), each through [`materialize_segment`] as that
/// segment's pairs. A direct edge is the first single-segment chain's that
/// outputs its pair. Where neither end mirrors itself the cost is
/// proportional to the node's own memberships; a mirrored end adds a
/// probe per left id below `key` (`O(left ids × log)`).
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
            single.any(|o| o.segments[0].count(pair) > 0)
        };
        let rights = segments[0].partners(key).map(|r| (key, r));
        materialize_segment((0, k), bounds, rights, true, earlier, real_ids, target);
        let indexed = by_right
            .iter()
            .flat_map(|index| index.run(key).map(|(l, _)| l));
        let reader = &segments[if segments[k - 1].mirrored { k - 1 } else { 0 }];
        let mirrored = by_right.is_none().then(|| reader.partners(key));
        let lefts = indexed
            .chain(mirrored.into_iter().flatten())
            .map(|l| (l, key));
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
/// updates was built by [`IncrementalState::bulk_load`]. Every row must
/// carry its database ids ([`PatchError::WithoutIds`] otherwise, before
/// anything changes).
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
    if let Some(row) = delta
        .rows()
        .iter()
        .position(|row| row.ids.len() != row.values.len())
    {
        let table = delta.table().to_string();
        return Err(PatchError::WithoutIds { table, row }.into());
    }
    let IncrementalState {
        threads,
        views,
        chains,
        node_rows,
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
            let (added, removed, changes) = chain.segments[j].transitions(delta, threads)?;
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
                others.any(|other| other.segments.len() == 1 && other.segments[0].count(pair) > 0)
            };
            let _span = span(Phase::BuildRep, Region::BuildRep);
            let jk = (j, k);
            for (pairs, add) in [(added, true), (removed, false)] {
                let bounds = &mut chain.bounds;
                materialize_segment(jk, bounds, pairs, add, elsewhere, real_ids, &mut target);
            }
        }
    }

    // Phase 2: node views — update per-key support and property rows, in
    // row order, so real ids are handed out alike at every thread count.
    let mut touched: Vec<(Vid, &Value)> = Vec::new();
    let mut prior: FxHashMap<Vid, usize> = FxHashMap::default();
    for (vi, view) in views.iter().enumerate() {
        if view.relation != delta.table() {
            continue;
        }
        for row in delta.rows() {
            if !view.pred.eval(&row.values) {
                continue;
            }
            let (key, kvid) = (&row.values[view.id_col], row.ids[view.id_col]);
            if kvid == NULL_VID {
                continue;
            }
            if node_rows.len() <= kvid as usize {
                node_rows.resize_with(kvid as usize + 1, Box::default);
            }
            let rows = &mut node_rows[kvid as usize];
            if let std::collections::hash_map::Entry::Vacant(v) = prior.entry(kvid) {
                v.insert(rows.len());
                touched.push((kvid, key));
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
    for (kvid, key) in touched {
        let before = prior[&kvid];
        let now = node_rows[kvid as usize].len();
        if before == 0 && now > 0 {
            if let Some(id) = ids.get(key) {
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
            let id = ids.get(key).expect("supported key is interned");
            target.kill(RealId(id));
        }
        if now > 0 {
            let id = ids.get(key).expect("supported key is interned");
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
// * `by_right` — only where a chain's last segment neither mirrors its
//   first nor itself (`mirrors`); a mirroring chain reads the partners in
//   the first support, a self-mirroring last segment its own;
// * a support keeps the pairs `l ≤ r` only where its segment mirrors
//   itself;
// * `bounds.index` — one per boundary, filled by `Boundaries::virt` as
//   it interns.
//
// The bags are the primary state (the bulk loader fills them through
// `SegmentState::adopt`); `by_right` is a function of the last support,
// built by `IncrementalState::derive_indexes` — the bulk load runs it once
// the supports are in, `IncrementalState::new` on the empty state.

impl ChainState {
    /// `by_right` transposes the last segment's support keys unless that
    /// segment mirrors the first or itself.
    fn derive_indexes(&mut self) {
        let (first, last) = (&self.segments[0], &self.segments[self.segments.len() - 1]);
        let mirrored = last.mirrored || mirrors(&first.atoms, &last.atoms);
        self.by_right = (!mirrored).then(|| last.support.transposed_keys());
    }
}

impl IncrementalState {
    /// Build every derived index from the primary state — the one place
    /// they come from.
    fn derive_indexes(&mut self) {
        for chain in &mut self.chains {
            chain.derive_indexes();
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk load: the set-at-a-time initial extraction
// ---------------------------------------------------------------------------

impl IncrementalState {
    /// Build the maintenance state of `spec` over the current contents of
    /// `db`, together with the graph, key map and properties it maintains —
    /// the set-at-a-time counterpart of replaying every base row through
    /// [`apply_delta_state`], with the same result in every field (see the
    /// module docs). Every operator here fans out over
    /// `threads`, which the state keeps for later applies.
    pub(crate) fn bulk_load(
        spec: &GraphSpec,
        plans: &[ChainPlan],
        threads: usize,
        db: &Database,
    ) -> Result<(Self, CondensedGraph, IdMap<Value>, Properties), Error> {
        let mut state = Self::new(spec, plans, threads);
        let value = |vid: Vid| db.dict().resolve(vid).expect("scanned id is interned");
        // The two orders a replay of every table, row by row, fixes. Node
        // views come by their table's position, then view index: the
        // order real ids are handed out in. Segments come by the position
        // of the last table they read, then chain, then segment: the
        // order the replay completes them in, and so the order their
        // boundary values are first seen in.
        let tables = state.referenced_tables();
        let at = |table: &str| tables.iter().position(|t| t == table).expect("referenced");
        let mut views: Vec<usize> = (0..state.views.len()).collect();
        views.sort_by_key(|&vi| at(&state.views[vi].relation));
        let mut order: Vec<(usize, usize, usize)> = Vec::new();
        for (c, chain) in state.chains.iter().enumerate() {
            for (j, seg) in chain.segments.iter().enumerate() {
                let last = seg.atoms.iter().map(|a| at(&a.step.table)).max();
                order.push((last.expect("an atom"), c, j));
            }
        }
        order.sort_unstable();

        let mut ids: IdMap<Value> = IdMap::new();
        // Node keys in real-id order.
        let mut node_keys: Vec<Vid> = Vec::new();
        for vi in views {
            let view = &state.views[vi];
            let mut cols = vec![view.id_col];
            cols.extend(view.prop_cols.iter().map(|(_, c)| *c));
            let rows = scan_project(db, &view.relation, &view.pred, &cols, threads)?;
            let _span = span(Phase::LoadState, Region::Patch);
            let node_rows = &mut state.node_rows;
            for row in rows.iter() {
                if row[0] == NULL_VID {
                    continue;
                }
                let kvid = row[0] as usize;
                if node_rows.len() <= kvid {
                    node_rows.resize_with(kvid + 1, Box::default);
                }
                if node_rows[kvid].is_empty() {
                    ids.intern(value(row[0]).clone());
                    node_keys.push(row[0]);
                }
                let cells = row[1..].iter().map(|&cell| value(cell));
                let values = derive_props(cells);
                push_row(&mut node_rows[kvid], PropRow { view: vi, values });
            }
        }

        // Every segment query through the evaluator batch extraction runs:
        // its atom bags become the segment's bags as they are, and the last
        // join's output, kept run by run as it comes (a mirrored segment's
        // from the diagonal up), its support. A one-atom segment keeps no
        // bag, and its atom's bag is its support.
        for &(_, c, j) in &order {
            let seg = &mut state.chains[c].segments[j];
            let mirrored = seg.mirrored;
            let keep = |part: &mut BagBuilder, x: Vid, run: &[u64]| {
                let from = run.partition_point(|&e| mirrored && right_of(e) < x);
                part.push_run(x, &run[from..]);
            };
            let mut bags = Vec::new();
            let query = &plans[c].segments[j].query;
            let out =
                query.run_keeping(db, threads, BagBuilder::default, keep, |bag| bags.push(bag))?;
            seg.support = CountedRuns::from(match out {
                Output::Atom(bag) => bag,
                Output::Joined(parts) => {
                    let _span = span(Phase::LoadState, Region::Patch);
                    seg.adopt(bags);
                    BagBuilder::concat(parts)?
                }
            });
        }

        let load_span = span(Phase::LoadState, Region::Patch);
        let mut props = Properties::new(ids.len());
        state.real_ids = vec![u32::MAX; state.node_rows.len()];
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
        // go. A mirrored support gives its pairs in both orientations, in
        // the order a replay's sorted transitions do.
        let _span = span(Phase::BuildRep, Region::BuildRep);
        let mut builder = CondensedBuilder::new(ids.len());
        for (_, c, j) in order {
            let ChainState {
                segments, bounds, ..
            } = &mut state.chains[c];
            emit_segment(
                &mut builder,
                (j, segments.len()),
                segments[j].support.keys(segments[j].mirrored),
                |vid| real_from(&state.real_ids, vid),
                bounds,
            );
        }
        let graph = builder.build();
        Ok((state, graph, ids, props))
    }
}

#[cfg(test)]
mod tests {
    use super::{apply_delta_state, GraphPatch, IncrementalState};
    use crate::error::Error;
    use crate::extract::{GraphGen, GraphGenConfig};
    use crate::handle::{ConvertOptions, GraphHandle};
    use crate::planner::plan_chain;
    use graphgen_common::codec::Reader;
    use graphgen_common::{IdMap, SplitMix64};
    use graphgen_graph::{expand_to_edge_list, CondensedBuilder, GraphRep, Properties, RepKind};
    use graphgen_reldb::{
        Column, Database, DbError, Delta, DeltaOp, Oversize, Schema, Table, Value,
    };
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
        // A hand-built delta deleting a row the table never held: author 1
        // never wrote publication 3.
        let row = vec![Value::int(1), Value::int(3)];
        let ids = row.iter().map(|v| db.dict().lookup(v).unwrap()).collect();
        let mut delta = Delta::new("AuthorPub");
        delta.push(row, ids, DeltaOp::Delete);
        let err = g.apply_delta(&delta).unwrap_err();
        assert!(matches!(
            err.as_patch(),
            Some(crate::error::PatchError::Inconsistent(_))
        ));
    }

    /// A delta decoded from its binary encoding (a write-ahead-log record)
    /// carries values only. Applying it is a typed error that changes
    /// nothing; the delta the database returns for the same rows applies.
    #[test]
    fn a_delta_without_ids_is_refused_untouched() {
        let mut db = fig1_db();
        let mut g = extract(&db, true);
        let before = g.canonical_bytes();
        let delta = db
            .insert_rows("AuthorPub", vec![vec![Value::int(2), Value::int(3)]])
            .unwrap();
        let logged = graphgen_reldb::DeltaBatch::from(delta.clone()).encode();
        let decoded = graphgen_reldb::DeltaBatch::decode(&mut Reader::new(&logged)).unwrap();
        let err = g.apply_batch(&decoded).unwrap_err();
        assert!(
            matches!(
                err.as_patch(),
                Some(crate::error::PatchError::WithoutIds { table, row: 0 }) if table == "AuthorPub"
            ),
            "{err}"
        );
        assert_eq!(g.canonical_bytes(), before);
        g.apply_delta(&delta).unwrap();
        assert_matches_reextraction(&db, &g);
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
            let t = db.table(&table).unwrap();
            for r in (0..t.physical_rows()).filter(|&r| t.is_live(r)) {
                let ids = (0..t.schema().arity()).map(|c| t.ids(c)[r]).collect();
                delta.push(t.row(r), ids, DeltaOp::Insert);
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

    /// Every field of the maintenance state but the derived indexes, in
    /// order: the thread count, the views, per segment its atoms, whether
    /// it mirrors itself, each bag's and the support's pairs with their
    /// counts, per chain the boundary keys and virtual nodes in interning
    /// order, and the node rows of every key that has any.
    fn state_dump(g: &GraphHandle) -> String {
        let state = g.incremental_state().expect("incremental handle");
        let mut out = format!("threads {}\nviews {:?}\n", state.threads, state.views);
        for chain in &state.chains {
            for seg in &chain.segments {
                let steps: Vec<_> = seg.atoms.iter().map(|a| &a.step).collect();
                out += &format!("segment {steps:?} mirrored {}\n", seg.mirrored);
                for runs in seg.bags.iter().chain([&seg.support]) {
                    out += &format!("  {:?}\n", runs.pairs().collect::<Vec<_>>());
                }
            }
            let bounds = &chain.bounds;
            out += &format!("keys {:?}\nvirts {:?}\n", bounds.keys, bounds.virts);
        }
        let rows = state.node_rows.iter().enumerate();
        let rows: Vec<_> = rows.filter(|(_, rows)| !rows.is_empty()).collect();
        out + &format!("nodes {rows:?}\n")
    }

    /// Every field of the maintenance state ([`state_dump`]), the real id
    /// of every node key, and the graph the handle serves.
    fn assert_same_handle(bulk: &GraphHandle, replay: &GraphHandle, what: &str) {
        assert!(state_dump(bulk) == state_dump(replay), "{what}: state");
        assert!(
            bulk.ids().iter().eq(replay.ids().iter()),
            "{what}: real ids"
        );
        let edges = |g: &GraphHandle| {
            let mut edges = expand_to_edge_list(g);
            edges.sort_unstable();
            edges
        };
        assert!(edges(bulk) == edges(replay), "{what}: edges by real id");
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
            // Tombstoned rows and ids of deleted values underneath.
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
    /// a node view and an atom at once. Cut in two, the chain's segment 1
    /// (over `S`) completes before its segment 0 (over `R`) when the view
    /// reads `S`, and the virtual nodes are numbered in that order.
    #[test]
    fn bulk_segment_over_two_tables() {
        let by_entity = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                         Edges(A, B) :- R(A, X), S(X, B).";
        let by_s = "Nodes(ID) :- S(_, ID).\nEdges(A, B) :- R(A, X), S(X, B).";
        for (seed, dsl) in [(9, by_entity), (10, by_s)] {
            for (factor, segments) in [(1e12, 1), (0.0, 2)] {
                let mut rng = SplitMix64::new(seed);
                let mut db = Database::new();
                db.register("Entity", entity_table(&mut rng, 80)).unwrap();
                db.register("R", int_table(&mut rng, &["a", "x"], 2500, 80, 30))
                    .unwrap();
                db.register("S", int_table(&mut rng, &["x", "b"], 2500, 80, 30))
                    .unwrap();
                let mut pair = both_ways(&db, dsl, Some(factor));
                assert_eq!(pair.0.report().plans[0].segments.len(), segments);
                for table in ["R", "S"] {
                    let deltas = churn(&mut db, table, &mut rng, 30, 30, 80);
                    continue_both(&db, dsl, Some(factor), &mut pair, &deltas);
                }
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

    /// Views on `P`, `Q` and `P` again, the two on `P` with disjoint keys:
    /// real ids are handed out table by table — both views on `P`, then
    /// `Q` — not in view order.
    #[test]
    fn bulk_views_out_of_table_order() {
        let dsl = "Nodes(ID, Name) :- P(ID, Name, 0).\n\
                   Nodes(ID, Name) :- Q(ID, Name).\n\
                   Nodes(ID, Name) :- P(ID, Name, 1).\n\
                   Edges(A, B) :- M(A, G), M(B, G).";
        let mut rng = SplitMix64::new(19);
        let cols = vec![Column::int("id"), Column::str("name"), Column::int("kind")];
        let mut p = Table::new(Schema::new(cols));
        for k in 0..40i64 {
            p.push_row(vec![
                Value::int(k),
                Value::str(format!("p{k}")),
                Value::int(k % 2),
            ])
            .unwrap();
        }
        let mut q = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        for k in 25..70i64 {
            q.push_row(vec![Value::int(k), Value::str(format!("q{k}"))])
                .unwrap();
        }
        let mut db = Database::new();
        db.register("P", p).unwrap();
        db.register("Q", q).unwrap();
        db.register("M", int_table(&mut rng, &["e", "g"], 1200, 80, 10))
            .unwrap();
        for factor in [None, Some(0.0)] {
            let mut pair = both_ways(&db, dsl, factor);
            let id = |k: i64| pair.0.ids().get(&Value::int(k)).unwrap();
            assert!(id(1) < id(41), "the third view's keys come before Q's");
            let deltas = churn(&mut db, "M", &mut rng, 30, 30, 80);
            continue_both(&db, dsl, factor, &mut pair, &deltas);
        }
    }

    /// A self-join beside a cut: the chain's first segment (then its last)
    /// mirrors itself and keeps its support once, while its pairs number
    /// the virtual nodes of the boundary in the replay's order. `M` has
    /// many small groups, `R` few join values, so only the join at `X` is
    /// cut. New entities are node adds reading both halves.
    #[test]
    fn bulk_a_self_join_beside_a_cut() {
        let first = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                     Edges(A, B) :- M(A, G), M(X, G), R(X, B).";
        let last = "Nodes(ID, Name) :- Entity(ID, Name).\n\
                    Edges(A, B) :- R(A, X), M(X, G), M(B, G).";
        for (seed, dsl, mirrored) in [(17, first, 0), (18, last, 1)] {
            let mut rng = SplitMix64::new(seed);
            let mut db = Database::new();
            db.register("Entity", entity_table(&mut rng, 60)).unwrap();
            let mut m = Table::new(Schema::new(vec![Column::int("e"), Column::int("g")]));
            let mut r = Table::new(Schema::new(vec![Column::int("x"), Column::int("b")]));
            for _ in 0..300 {
                m.push_row(vec![cell(&mut rng, 60, 10), cell(&mut rng, 200, 10)])
                    .unwrap();
                let row = vec![cell(&mut rng, 60, 10), Value::int(rng.next_below(4) as i64)];
                let row = if mirrored == 0 {
                    row.into_iter().rev().collect()
                } else {
                    row
                };
                r.push_row(row).unwrap();
            }
            db.register("M", m).unwrap();
            db.register("R", r).unwrap();
            let mut pair = both_ways(&db, dsl, None);
            let state = pair.0.incremental_state().unwrap();
            let flags: Vec<bool> = state.chains[0]
                .segments
                .iter()
                .map(|s| s.mirrored)
                .collect();
            let mut want = vec![false, false];
            want[mirrored] = true;
            assert_eq!(flags, want, "{dsl}");
            assert!(state.chains[0].by_right.is_none() == (mirrored == 1));
            for _ in 0..2 {
                let mut deltas = churn(&mut db, "M", &mut rng, 30, 30, 60);
                deltas.extend(churn(&mut db, "R", &mut rng, 20, 20, 4));
                let fresh = (0..60).filter(|k| k % 3 == 1).take(4);
                let fresh: Vec<Vec<Value>> = fresh
                    .map(|k| vec![Value::int(k), Value::str(format!("new{k}"))])
                    .collect();
                deltas.push(db.delete_rows("Entity", &fresh).unwrap());
                deltas.push(db.insert_rows("Entity", fresh).unwrap());
                continue_both(&db, dsl, None, &mut pair, &deltas);
            }
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

    /// `R(a, b)` and `S(b, c)` of 65,537 identical rows each: their join
    /// holds one pair derived 65,537² times, past a bag entry's `u32`
    /// count. Kept as one segment, a maintained extraction refuses it with
    /// the operators' typed error at any thread count, as a batch one does.
    #[test]
    fn bulk_a_count_past_u32_is_refused() {
        let mut db = Database::new();
        for (name, cols, row) in [("R", ["a", "b"], [1, 2]), ("S", ["b", "c"], [2, 3])] {
            let mut t = Table::new(Schema::new(cols.map(Column::int).to_vec()));
            for _ in 0..65_537 {
                t.push_row(row.map(Value::int).to_vec()).unwrap();
            }
            db.register(name, t).unwrap();
        }
        let dsl = "Nodes(ID, B) :- R(ID, B).\nEdges(X, Y) :- R(X, B), S(B, Y).";
        let too_large = DbError::TooLarge(Oversize::Count(65_537 * 65_537));
        for (threads, incremental) in [(1, true), (2, true), (8, true), (2, false)] {
            let cfg = bulk_cfg(Some(1e12), threads, incremental);
            let err = GraphGen::with_config(&db, cfg).extract(dsl).err();
            assert!(
                matches!(&err, Some(Error::Db(e)) if *e == too_large),
                "{threads} threads, incremental {incremental}: {err:?}"
            );
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

    /// Apply `delta` to every handle: each must equal a re-extraction of
    /// `db`, its co-author support kept from the diagonal up. Returns the
    /// first handle's patch.
    fn mirrored_step(db: &Database, handles: &mut [GraphHandle], delta: Delta) -> GraphPatch {
        let fresh = GraphGen::with_config(db, bulk_cfg(None, 1, false))
            .extract(Q1)
            .unwrap();
        let patches: Vec<GraphPatch> = handles
            .iter_mut()
            .map(|g| g.apply_delta(&delta).unwrap())
            .collect();
        for g in handles.iter() {
            let state = g.incremental_state().unwrap();
            let seg = &state.chains[0].segments[0];
            assert!(seg.mirrored && state.chains[0].by_right.is_none());
            assert!(seg.support.pairs().all(|((l, r), _)| l <= r));
            assert_eq!(
                String::from_utf8(g.canonical_bytes()).unwrap(),
                String::from_utf8(fresh.canonical_bytes()).unwrap()
            );
        }
        patches[0].clone()
    }

    /// The co-author self-join mirrors itself and keeps its support once.
    /// A new author whose co-authors' ids lie below its own (through
    /// publication 1) and above it (through a publication shared with an
    /// author interned later) gains every edge: the stored run and the
    /// probe of the lower half are both read. The node is then removed and
    /// revived. Every step equals a re-extraction, at 1, 2 and 8 threads.
    #[test]
    fn a_node_add_on_a_mirrored_segment_reads_both_halves() {
        let mut db = fig1_db();
        let mut handles: Vec<GraphHandle> = [1, 2, 8]
            .iter()
            .map(|&t| {
                GraphGen::with_config(&db, bulk_cfg(None, t, true))
                    .extract(Q1)
                    .unwrap()
            })
            .collect();
        let row = |a: i64, p: i64| vec![Value::int(a), Value::int(p)];
        let author = |a: i64| vec![Value::int(a), Value::str(format!("a{a}"))];
        // Author 9 is no node yet, and is interned before author 10.
        let d = db
            .insert_rows("AuthorPub", vec![row(9, 1), row(9, 7)])
            .unwrap();
        mirrored_step(&db, &mut handles, d);
        let d = db.insert_rows("Author", vec![author(10)]).unwrap();
        mirrored_step(&db, &mut handles, d);
        let d = db.insert_rows("AuthorPub", vec![row(10, 7)]).unwrap();
        mirrored_step(&db, &mut handles, d);
        let vid = |a: i64| db.dict().lookup(&Value::int(a)).unwrap();
        assert!([1, 2, 4].iter().all(|&a| vid(a) < vid(9)) && vid(9) < vid(10));
        // The node add: co-authors 1, 2 and 4 below, 10 above, an edge
        // each way with each.
        let d = db.insert_rows("Author", vec![author(9)]).unwrap();
        let patch = mirrored_step(&db, &mut handles, d);
        assert_eq!((patch.nodes_added, patch.stored_edges_added), (1, 8));
        let d = db.delete_rows("Author", &[author(9)]).unwrap();
        assert_eq!(mirrored_step(&db, &mut handles, d).nodes_removed, 1);
        let d = db.insert_rows("Author", vec![author(9)]).unwrap();
        assert_eq!(mirrored_step(&db, &mut handles, d).nodes_revived, 1);
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
