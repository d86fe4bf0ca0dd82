//! The GraphGen facade and the condensed extraction algorithm (§4.2).

use crate::anygraph::AnyGraph;
use crate::error::Error;
use crate::handle::GraphHandle;
use crate::incremental::IncrementalState;
use crate::planner::{catalog_view, filters_to_predicate, full_query, plan_chain, ChainPlan};
use graphgen_common::metrics::{span, Phase};
use graphgen_common::region::{self, Region};
use graphgen_common::IdMap;
use graphgen_dedup::preprocess::{expand_cheap_virtuals, should_expand, PreprocessStats};
use graphgen_dsl::{
    check_program, parse, CheckOptions, CheckReport, GraphSpec, NodesView, Severity,
};
use graphgen_graph::{CondensedBuilder, ExpandedGraph, PropValue, Properties, RealId, VirtId};
use graphgen_reldb::exec::{scan_project, unpack};
use graphgen_reldb::{Database, Query, Value, Vid, NULL_VID};
use std::time::Instant;

/// Extraction configuration. Construct via [`GraphGenConfig::builder`]:
///
/// ```
/// use graphgen_core::GraphGenConfig;
/// let cfg = GraphGenConfig::builder().preprocess(false).threads(2).build();
/// assert!(!cfg.preprocess());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GraphGenConfig {
    large_output_factor: f64,
    preprocess: bool,
    auto_expand_threshold: Option<f64>,
    threads: usize,
    /// Somebody chose `threads` (the builder or `GRAPHGEN_THREADS`), so it
    /// is used as given; otherwise it is the machine's parallelism and a
    /// batch extraction sizes its fan-out to the input ([`ROWS_PER_THREAD`]).
    threads_chosen: bool,
    incremental: bool,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        let chosen = std::env::var("GRAPHGEN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t > 0);
        Self {
            large_output_factor: 2.0,
            preprocess: true,
            auto_expand_threshold: Some(1.2),
            threads: chosen
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get())),
            threads_chosen: chosen.is_some(),
            incremental: false,
        }
    }
}

/// Scanned input rows per worker thread of a batch extraction whose thread
/// count nobody chose. The scans and the join probes fan out — with the
/// probes, the direct route's out-list writes, each morsel into its own
/// slot per node —, while the grouping sort, the self-join transpose and
/// the graph build run on the calling thread. Two threads against one,
/// measured when the probes still collected a bag, gave 0.93x at 50k
/// scanned rows and 1.00x at 200k, at 800k and at 1.6M (0.97x to 1.08x
/// over four runs there): below 200k a fan-out costs
/// more than it saves, above it buys nothing measurable yet, and either way
/// it costs kernel time (thread stacks, allocator arenas) and makes every
/// operator wait for the slower of its threads, which on a shared machine
/// is run-to-run spread bought with no throughput. So a default-configured
/// extraction stays on the calling thread until it scans two of these, and
/// grows by one thread per further one.
const ROWS_PER_THREAD: usize = 1 << 18;

impl GraphGenConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> GraphGenConfigBuilder {
        GraphGenConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// The large-output test factor (the paper uses 2.0).
    pub fn large_output_factor(&self) -> f64 {
        self.large_output_factor
    }

    /// Whether §4.2 Step 6 (expand cheap virtual nodes) runs.
    pub fn preprocess(&self) -> bool {
        self.preprocess
    }

    /// The §6.5 auto-expansion threshold; `None` disables auto-expansion.
    /// See [`GraphGenConfigBuilder::auto_expand_threshold`] for when a
    /// batch extraction builds EXP directly.
    pub fn auto_expand_threshold(&self) -> Option<f64> {
        self.auto_expand_threshold
    }

    /// Worker threads for the whole extraction pipeline: every segment
    /// query's scans and join probes, plus Step-6 preprocessing.
    /// Results are byte-identical for any value. A count set through the
    /// builder or `GRAPHGEN_THREADS` is used as given. The default is the
    /// available parallelism, of which a batch extraction uses one thread
    /// per 262,144 rows it scans, so a small input never fans out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether extraction builds the delta-maintenance state so the handle
    /// supports [`GraphHandle::apply_delta`]. See [`crate::incremental`].
    pub fn incremental(&self) -> bool {
        self.incremental
    }
}

/// Builder for [`GraphGenConfig`]; every knob starts at its default.
#[derive(Debug, Clone)]
pub struct GraphGenConfigBuilder {
    cfg: GraphGenConfig,
}

impl GraphGenConfigBuilder {
    /// The large-output test factor (the paper uses 2.0). `0.0` classifies
    /// every join as large-output, forcing the condensed path.
    pub fn large_output_factor(mut self, factor: f64) -> Self {
        self.cfg.large_output_factor = factor;
        self
    }

    /// Run §4.2 Step 6 (expand cheap virtual nodes).
    pub fn preprocess(mut self, on: bool) -> Self {
        self.cfg.preprocess = on;
        self
    }

    /// Worker threads for the whole extraction pipeline (scans, join
    /// probes, preprocessing), used as given whatever the input size.
    /// `1` disables parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads.max(1);
        self.cfg.threads_chosen = true;
        self
    }

    /// §6.5 policy: hand back EXP when the expanded graph is at most this
    /// factor larger than the condensed one (e.g. 1.2 = +20%). Pass `None`
    /// to disable auto-expansion and always keep the condensed result.
    ///
    /// A graph without virtual nodes expands to exactly the edges it
    /// stores, so any threshold of at least 1 expands it. When no chain has
    /// a large-output join, a batch extraction under such a threshold
    /// therefore builds EXP straight from its segment queries' output and
    /// never builds the C-DUP; otherwise it builds the C-DUP, tests it and
    /// expands it if the test passes. Either way the graph and the report
    /// are the same. Incremental extraction ignores the threshold.
    pub fn auto_expand_threshold(mut self, threshold: impl Into<Option<f64>>) -> Self {
        self.cfg.auto_expand_threshold = threshold.into();
        self
    }

    /// Build the delta-maintenance state during extraction, enabling
    /// [`GraphHandle::apply_delta`]. Incremental extraction always hands
    /// back the raw condensed graph (C-DUP) — Step-6 preprocessing and the
    /// §6.5 auto-expansion are skipped, since both rewrite the structure
    /// the maintenance state mirrors. Convert the handle when another
    /// representation is wanted: conversions are derived, read-only
    /// handles, and the maintained C-DUP keeps taking the deltas.
    pub fn incremental(mut self, on: bool) -> Self {
        self.cfg.incremental = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> GraphGenConfig {
        self.cfg
    }
}

/// What the extraction did (plans, SQL, preprocessing, timing).
#[derive(Debug, Clone, Default)]
pub struct ExtractionReport {
    /// Per-`Edges`-rule plans.
    pub plans: Vec<ChainPlan>,
    /// Rendered SQL of every executed segment query (Fig. 16 output).
    pub sql: Vec<String>,
    /// Step-6 statistics (if enabled).
    pub preprocess: Option<PreprocessStats>,
    /// Whether the §6.5 policy expanded the graph.
    pub auto_expanded: bool,
    /// Wall-clock extraction time in microseconds.
    pub extraction_micros: u128,
}

/// The GraphGen system: an extraction engine over a relational database.
#[derive(Debug)]
pub struct GraphGen<'a> {
    db: &'a Database,
    cfg: GraphGenConfig,
}

impl<'a> GraphGen<'a> {
    /// Engine with default configuration.
    pub fn new(db: &'a Database) -> Self {
        Self {
            db,
            cfg: GraphGenConfig::default(),
        }
    }

    /// Engine with explicit configuration.
    pub fn with_config(db: &'a Database, cfg: GraphGenConfig) -> Self {
        Self { db, cfg }
    }

    /// The database this engine reads.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// Statically check a DSL program against this database's schema and
    /// statistics, without extracting anything. The report carries every
    /// diagnostic (errors and warnings) plus the compiled spec when the
    /// program is error-free. Parse failures surface as [`Error::Dsl`].
    pub fn check(&self, dsl: &str) -> Result<CheckReport, Error> {
        self.check_with(dsl, &CheckOptions::default())
    }

    /// [`GraphGen::check`] with explicit options (opt-in lint groups). The
    /// plan lints always use this engine's configured large-output factor,
    /// so W105 predicts exactly what the planner would postpone.
    pub fn check_with(&self, dsl: &str, opts: &CheckOptions) -> Result<CheckReport, Error> {
        let program = parse(dsl)?;
        let mut opts = opts.clone();
        opts.large_output_factor = self.cfg.large_output_factor;
        Ok(check_program(&program, Some(&catalog_view(self.db)), &opts))
    }

    /// Run [`GraphGen::check`] and compile the spec, rejecting programs the
    /// checker finds errors in before any extraction work happens.
    fn checked_spec(&self, dsl: &str) -> Result<GraphSpec, Error> {
        let report = self.check(dsl)?;
        if report.has_errors() {
            let errors: Vec<_> = report
                .diagnostics
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            return Err(Error::Check(errors));
        }
        Ok(report
            .spec
            .expect("check_program returns a spec when there are no errors"))
    }

    /// Cost a DSL program against this database's live statistics without
    /// extracting anything: the same checked-spec path as
    /// [`GraphGen::extract`], but the result is the unified cost engine's
    /// analysis — per-atom/per-join estimates, the chosen min-cost plan,
    /// its fingerprint — rendered as a plan tree by `Display`. Pure
    /// catalog arithmetic; no table is scanned.
    pub fn explain(&self, dsl: &str) -> Result<crate::planner::Explanation, Error> {
        let spec = self.checked_spec(dsl)?;
        Ok(crate::planner::explain_spec(
            self.db,
            &spec,
            self.cfg.large_output_factor,
        )?)
    }

    /// Parse a DSL program and extract the (condensed) graph.
    ///
    /// The program is statically validated first ([`GraphGen::check`]);
    /// schema or semantic errors come back as [`Error::Check`] with coded,
    /// span-carrying diagnostics, before any table is scanned.
    pub fn extract(&self, dsl: &str) -> Result<GraphHandle, Error> {
        let spec = self.checked_spec(dsl)?;
        self.extract_spec(&spec)
    }

    /// Extract from a pre-compiled spec.
    pub fn extract_spec(&self, spec: &GraphSpec) -> Result<GraphHandle, Error> {
        if self.cfg.incremental {
            return self.extract_spec_incremental(spec);
        }
        let start = Instant::now();
        let mut report = ExtractionReport::default();

        let threads = self.batch_threads(spec)?;

        // Step 1: load nodes.
        let (ids, properties, node_of) = self.load_nodes(&spec.nodes, threads)?;

        // Step 2: plan every chain before any segment runs.
        for chain in &spec.edges {
            let plan = plan_chain(self.db, chain, self.cfg.large_output_factor)?;
            report.plans.push(plan);
        }

        // No large-output join anywhere: every chain is one segment of
        // direct edges, so the graph has no virtual node, expands to
        // exactly what it stores, and §6.5 hands back EXP for any threshold
        // of at least 1. Build that EXP straight from the segments' bags.
        let direct = report.plans.iter().all(|plan| plan.segments.len() == 1)
            && self.cfg.auto_expand_threshold.is_some_and(|t| t >= 1.0);
        if direct {
            let queries = report.plans.iter().map(|plan| &plan.segments[0].query);
            let graph =
                self.extract_direct(queries, ids.len(), &node_of, threads, &mut report.sql)?;
            if self.cfg.preprocess {
                // Step 6 has no virtual node to examine.
                report.preprocess = Some(PreprocessStats {
                    examined: 0,
                    expanded: 0,
                });
            }
            report.auto_expanded = true;
            report.extraction_micros = start.elapsed().as_micros();
            return Ok(GraphHandle::from_parts(
                AnyGraph::Exp(graph),
                ids,
                properties,
                report,
            ));
        }

        // Steps 3-5 per Edges statement; the union of all rules shares the
        // node space and appends virtual nodes.
        let mut builder = CondensedBuilder::new(ids.len());
        for plan in &report.plans {
            let k = plan.segments.len();
            // Per boundary: database id -> its virtual node (`u32::MAX` =
            // none yet).
            let mut virt_of = vec![vec![u32::MAX; node_of.len()]; k - 1];
            for (j, seg) in plan.segments.iter().enumerate() {
                report.sql.push(seg.query.to_sql(self.db)?);
                let bag = seg.query.run_counted(self.db, threads)?;
                let _span = span(Phase::Emit, region::current());
                emit_segment(
                    &mut builder,
                    (j, k),
                    bag.iter().map(|&(key, _)| key),
                    |vid| node_of[vid as usize],
                    |b, vid, builder| {
                        let slot = &mut virt_of[b][vid as usize];
                        if *slot == u32::MAX {
                            *slot = builder.add_virtual().0;
                        }
                        VirtId(*slot)
                    },
                );
            }
        }
        let rep_span = span(Phase::BuildRep, Region::BuildRep);
        let mut graph = builder.build();

        // Step 6: preprocessing.
        if self.cfg.preprocess {
            report.preprocess = Some(expand_cheap_virtuals(&mut graph, threads));
        }

        // §6.5 policy: expand when cheap.
        let graph = match self.cfg.auto_expand_threshold {
            Some(t) if should_expand(&graph, t) => {
                report.auto_expanded = true;
                AnyGraph::Exp(ExpandedGraph::from_rep(&graph))
            }
            _ => AnyGraph::CDup(graph),
        };
        drop(rep_span);
        report.extraction_micros = start.elapsed().as_micros();
        Ok(GraphHandle::from_parts(graph, ids, properties, report))
    }

    /// Incremental extraction: plan as the batch path does, then let
    /// [`IncrementalState::bulk_load`] build the delta-maintenance state,
    /// the C-DUP graph, the key map and the properties from one scan of
    /// every atom and node view — set-at-a-time, like the batch path, with
    /// the result a row-by-row replay through the delta engine would give.
    /// The operators fan out by the batch rule ([`GraphGen::batch_threads`]);
    /// the state keeps the configured thread count for later
    /// [`GraphHandle::apply_delta`] calls.
    fn extract_spec_incremental(&self, spec: &GraphSpec) -> Result<GraphHandle, Error> {
        let start = Instant::now();
        let mut report = ExtractionReport::default();
        for chain in &spec.edges {
            let plan = plan_chain(self.db, chain, self.cfg.large_output_factor)?;
            for seg in &plan.segments {
                report.sql.push(seg.query.to_sql(self.db)?);
            }
            report.plans.push(plan);
        }
        let (state, graph, ids, properties) = IncrementalState::bulk_load(
            spec,
            &report.plans,
            self.cfg.threads(),
            self.db,
            self.batch_threads(spec)?,
        )?;
        report.extraction_micros = start.elapsed().as_micros();
        Ok(GraphHandle::from_parts_incremental(
            graph, ids, properties, report, state,
        ))
    }

    /// Extract the **fully expanded** graph by running each chain as one
    /// SQL query (Table 1's "Full Graph" baseline). The EXP is built from
    /// the queries' bags as a batch extraction with no large-output join
    /// builds it.
    pub fn extract_full(&self, dsl: &str) -> Result<GraphHandle, Error> {
        let spec = self.checked_spec(dsl)?;
        let start = Instant::now();
        let mut report = ExtractionReport::default();
        let threads = self.batch_threads(&spec)?;
        let (ids, properties, node_of) = self.load_nodes(&spec.nodes, threads)?;
        let queries: Vec<Query> = spec.edges.iter().map(full_query).collect();
        let graph = self.extract_direct(&queries, ids.len(), &node_of, threads, &mut report.sql)?;
        report.extraction_micros = start.elapsed().as_micros();
        Ok(GraphHandle::from_parts(
            AnyGraph::Exp(graph),
            ids,
            properties,
            report,
        ))
    }

    /// Run chain queries whose output pairs are edges and build the EXP
    /// from their output, rendering each query's SQL into `sql` before it
    /// runs: the single-segment chains of a batch extraction without
    /// large-output joins, and [`GraphGen::extract_full`]'s whole-chain
    /// queries.
    ///
    /// No query's bag is collected: [`Query::run_by_source`] hands each
    /// left id's run — distinct `(l, r)` database-id pairs in ascending
    /// order — straight from the last join to the node's out-list. Ids that
    /// are no node key (`node_of`, over `n` nodes) and self-pairs drop out,
    /// and the rest are distinct, since each node is the key of one id. The
    /// list is already sorted unless the node order differs from the id
    /// order there; only then is it sorted. Each morsel of the join writes
    /// into its own slot per node, so one thread writes straight into the
    /// graph's out-lists and more threads merge theirs after. Each list is
    /// stored at exact size, merged (sorted, deduplicated) only when
    /// another query fed the same node, and
    /// [`ExpandedGraph::from_sorted_lists`] builds the in-lists by one
    /// counting transpose. The list writes are part of the
    /// `join` span (of `emit`, for a one-atom query) and the transpose is
    /// the `build_rep` span.
    fn extract_direct<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q Query>,
        n: usize,
        node_of: &[Option<RealId>],
        threads: usize,
        sql: &mut Vec<String>,
    ) -> Result<ExpandedGraph, Error> {
        // Per morsel: an out-list slot per node, and a scratch list.
        type Lists = (Vec<Vec<u32>>, Vec<u32>);
        let mut out: Vec<Vec<u32>> = Vec::new();
        for query in queries {
            sql.push(query.to_sql(self.db)?);
            let init = || (vec![Vec::new(); n], Vec::new());
            let each = |(lists, buf): &mut Lists, run: &[(u64, i64)]| {
                let Some(u) = node_of[unpack(run[0].0).0 as usize] else {
                    return;
                };
                buf.clear();
                buf.extend(
                    run.iter()
                        .filter_map(|&(key, _)| node_of[unpack(key).1 as usize])
                        .filter(|&v| v != u)
                        .map(|v| v.0),
                );
                if !buf.is_sorted() {
                    buf.sort_unstable();
                }
                // A clone is allocated at exact size.
                merge_list(&mut lists[u.0 as usize], buf.clone());
            };
            for (lists, _) in query.run_by_source(self.db, threads, init, each)? {
                if out.is_empty() {
                    out = lists;
                } else {
                    for (slot, list) in out.iter_mut().zip(lists) {
                        merge_list(slot, list);
                    }
                }
            }
        }
        out.resize_with(n, Vec::new);
        let _span = span(Phase::BuildRep, Region::BuildRep);
        Ok(ExpandedGraph::from_sorted_lists(out))
    }

    /// Worker threads for one batch extraction of `spec`: the configured
    /// count as given if somebody chose it, otherwise at most that many and
    /// one per [`ROWS_PER_THREAD`] rows the node views and chain atoms scan.
    fn batch_threads(&self, spec: &GraphSpec) -> Result<usize, Error> {
        if self.cfg.threads_chosen {
            return Ok(self.cfg.threads);
        }
        let relations = spec.nodes.iter().map(|view| &view.relation).chain(
            spec.edges
                .iter()
                .flat_map(|chain| chain.steps.iter().map(|atom| &atom.relation)),
        );
        let mut rows = 0;
        for relation in relations {
            rows += self.db.table(relation)?.num_rows();
        }
        Ok(self.cfg.threads.min(rows / ROWS_PER_THREAD).max(1))
    }

    /// Step 1: scan the node views. Beside the key map and properties the
    /// handle keeps, returns `node_of`: the node of each dictionary id
    /// (indexed by [`Vid`], `None` where the value is no node key), so edge
    /// endpoints — which arrive as ids — are resolved by indexing. This is
    /// the only place extraction materializes a `Value`: once per node key
    /// and property cell.
    fn load_nodes(&self, views: &[NodesView], threads: usize) -> Result<NodeTables, Error> {
        let dict = self.db.dict();
        let value = |vid: Vid| dict.resolve(vid).expect("scanned id is live");
        let mut ids: IdMap<Value> = IdMap::new();
        let mut props = Properties::new(0);
        let mut node_of = vec![None; dict.capacity()];
        for view in views {
            let mut cols = vec![view.id_col];
            cols.extend(view.prop_cols.iter().map(|(_, c)| *c));
            let pred = filters_to_predicate(&view.filters);
            let rows = scan_project(self.db, &view.relation, &pred, &cols, threads)?;
            let _span = span(Phase::LoadNodes, region::current());
            for row in rows.iter() {
                if row[0] == NULL_VID {
                    continue;
                }
                let u = RealId(ids.intern(value(row[0]).clone()));
                node_of[row[0] as usize] = Some(u);
                props.grow(ids.len());
                for ((name, _), &vid) in view.prop_cols.iter().zip(&row[1..]) {
                    let pv = match value(vid) {
                        Value::Int(v) => PropValue::Int(*v),
                        Value::Str(s) => PropValue::Text(s.clone()),
                        Value::Null => continue,
                    };
                    props.set(u, name, pv);
                }
            }
        }
        Ok((ids, props, node_of))
    }
}

/// One stored C-DUP edge (§4.2 Step 5), as [`segment_edge`] derives it
/// from a segment output pair.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StoredEdge {
    /// `real → real`: a single-segment chain's pair.
    Direct(RealId, RealId),
    /// `real → virtual`: a first segment's pair.
    RealToVirtual(RealId, VirtId),
    /// `virtual → virtual`: a middle segment's pair.
    VirtualToVirtual(VirtId, VirtId),
    /// `virtual → real`: a last segment's pair.
    VirtualToReal(VirtId, RealId),
}

/// §4.2 Steps 4–5, the one rule from segment output to stored edges: the
/// edge that the pair `(l, r)` of segment `j` of a `k`-segment chain
/// stores. A single-segment chain's pairs are direct `real → real` edges
/// (self-pairs dropped); otherwise the first segment's are
/// `real → virtual`, the last's `virtual → real` and the middle ones'
/// `virtual → virtual`, with one virtual node per distinct attribute value
/// of each boundary between segments. `None` when a real endpoint is no
/// node key.
///
/// `real` resolves an id to the node it is the key of; `virt(b, id)`
/// returns the virtual node of `id` at boundary `b`, allocating it on first
/// sight. It is asked for every pair, whether or not the pair's real
/// endpoint is a node key, and for a middle pair's left id before its
/// right one — so a caller that feeds a segment's pairs in ascending order
/// numbers virtual nodes in sorted-pair first-sight order, a function of
/// the segment outputs alone, in whichever id space it evaluated them.
///
/// Every stored edge comes from here: batch extraction and
/// [`IncrementalState::bulk_load`] through [`emit_segment`], a delta's
/// support transitions and a new node's memberships through the
/// incremental patch.
pub(crate) fn segment_edge(
    (j, k): (usize, usize),
    (l, r): (Vid, Vid),
    real: impl Fn(Vid) -> Option<RealId>,
    mut virt: impl FnMut(usize, Vid) -> VirtId,
) -> Option<StoredEdge> {
    match (j == 0, j == k - 1) {
        // No large-output join: the database computed the edge.
        (true, true) => match (real(l), real(r)) {
            (Some(u), Some(v)) if u != v => Some(StoredEdge::Direct(u, v)),
            _ => None,
        },
        // res1(ID1, a_l): real -> virtual
        (true, false) => {
            let v = virt(0, r);
            real(l).map(|u| StoredEdge::RealToVirtual(u, v))
        }
        // res_k(a_u, ID2): virtual -> real
        (false, true) => {
            let v = virt(k - 2, l);
            real(r).map(|t| StoredEdge::VirtualToReal(v, t))
        }
        // res_i(a_{i-1}, a_i): virtual -> virtual
        (false, false) => {
            let vl = virt(j - 1, l);
            Some(StoredEdge::VirtualToVirtual(vl, virt(j, r)))
        }
    }
}

/// Add the stored edges of segment `j` of a `k`-segment chain to
/// `builder`, given the keys of the segment's bag: its distinct `(l, r)`
/// pairs, packed, in ascending order. Each pair goes through
/// [`segment_edge`], whose `virt` here also gets the builder to allocate
/// from; the id space is database ids for batch extraction and engine ids
/// for [`IncrementalState::bulk_load`].
pub(crate) fn emit_segment(
    builder: &mut CondensedBuilder,
    jk: (usize, usize),
    keys: impl IntoIterator<Item = u64>,
    real: impl Fn(Vid) -> Option<RealId>,
    mut virt: impl FnMut(usize, Vid, &mut CondensedBuilder) -> VirtId,
) {
    for pair in keys.into_iter().map(unpack) {
        match segment_edge(jk, pair, &real, |b, vid| virt(b, vid, builder)) {
            Some(StoredEdge::Direct(u, v)) => builder.direct(u, v),
            Some(StoredEdge::RealToVirtual(u, v)) => builder.real_to_virtual(u, v),
            Some(StoredEdge::VirtualToVirtual(v, w)) => builder.virtual_to_virtual(v, w),
            Some(StoredEdge::VirtualToReal(v, t)) => builder.virtual_to_real(v, t),
            None => {}
        }
    }
}

/// Add the sorted out-list `list` to the sorted out-list `slot`: moved in
/// when `slot` is empty, otherwise merged (sorted, deduplicated), which
/// happens only when two queries feed one node.
fn merge_list(slot: &mut Vec<u32>, list: Vec<u32>) {
    if slot.is_empty() {
        *slot = list;
    } else if !list.is_empty() {
        slot.extend_from_slice(&list);
        slot.sort_unstable();
        slot.dedup();
    }
}

/// What [`GraphGen::load_nodes`] builds: key map, properties, and the node
/// of each dictionary id.
type NodeTables = (IdMap<Value>, Properties, Vec<Option<RealId>>);

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_graph::expand_to_edge_list;
    use graphgen_reldb::{Column, Schema, Table};

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

    #[test]
    fn condensed_equals_full_extraction() {
        let db = fig1_db();
        // Force the condensed path (tiny data would otherwise be classified
        // small-output) and disable auto-expansion so we can compare C-DUP.
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .large_output_factor(0.0)
                .preprocess(false)
                .auto_expand_threshold(None)
                .threads(1)
                .build(),
        );
        let condensed = gg.extract(Q1).unwrap();
        let full = gg.extract_full(Q1).unwrap();
        assert!(matches!(condensed.graph(), AnyGraph::CDup(_)));
        // Same node keys -> same dense ids -> directly comparable edges.
        assert_eq!(expand_to_edge_list(&condensed), expand_to_edge_list(&full));
        // 12 directed co-author pairs (excluding self-loops).
        assert_eq!(condensed.graph().expanded_edge_count(), 12);
    }

    #[test]
    fn threads_knob_clamps_to_one() {
        let cfg = GraphGenConfig::builder().threads(0).build();
        assert_eq!(cfg.threads(), 1);
        assert!(GraphGenConfig::default().threads() >= 1);
    }

    #[test]
    fn unchosen_thread_count_is_sized_to_the_scanned_rows() {
        let sized = GraphGenConfig {
            threads: 8,
            threads_chosen: false,
            ..GraphGenConfig::default()
        };
        let chosen = GraphGenConfig::builder().threads(8).build();
        let threads = |db: &Database, cfg| {
            let gg = GraphGen::with_config(db, cfg);
            gg.batch_threads(&gg.checked_spec(Q1).unwrap()).unwrap()
        };
        // Fig. 1 scans 5 + 8 + 8 rows: serial unless somebody asked.
        let db = fig1_db();
        assert_eq!(threads(&db, sized), 1);
        assert_eq!(threads(&db, chosen), 8);
        // Q1 scans AuthorPub twice: three times ROWS_PER_THREAD rows with
        // the five authors, so three of the eight threads.
        let mut author = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        for a in 1..=5 {
            author
                .push_row(vec![Value::int(a), Value::str(format!("a{a}"))])
                .unwrap();
        }
        let mut ap = Table::new(Schema::new(vec![Column::int("aid"), Column::int("pid")]));
        for i in 0..(3 * ROWS_PER_THREAD / 2) as i64 {
            ap.push_row(vec![Value::int(i % 5 + 1), Value::int(i % 7)])
                .unwrap();
        }
        let mut db = Database::new();
        db.register("Author", author).unwrap();
        db.register("AuthorPub", ap).unwrap();
        assert_eq!(threads(&db, sized), 3);
        assert_eq!(threads(&db, chosen), 8);
    }

    #[test]
    fn threaded_extraction_matches_serial() {
        let db = fig1_db();
        let base = GraphGenConfig::builder()
            .large_output_factor(0.0)
            .preprocess(false)
            .auto_expand_threshold(None);
        let serial = GraphGen::with_config(&db, base.clone().threads(1).build())
            .extract(Q1)
            .unwrap();
        let parallel = GraphGen::with_config(&db, base.threads(8).build())
            .extract(Q1)
            .unwrap();
        assert_eq!(expand_to_edge_list(&serial), expand_to_edge_list(&parallel));
    }

    #[test]
    fn properties_loaded() {
        let db = fig1_db();
        let gg = GraphGen::new(&db);
        let g = gg.extract(Q1).unwrap();
        let a1 = g.vertex_of(&Value::int(1)).unwrap();
        assert_eq!(
            g.properties().get(a1, "Name").unwrap().as_text(),
            Some("a1")
        );
        assert_eq!(g.key_of(a1), &Value::int(1));
    }

    #[test]
    fn small_output_join_handed_to_database() {
        let db = fig1_db();
        // Default factor: the tiny join is small-output -> single segment.
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .auto_expand_threshold(None)
                .build(),
        );
        let g = gg.extract(Q1).unwrap();
        assert_eq!(g.report().plans[0].segments.len(), 1);
        assert_eq!(g.graph().expanded_edge_count(), 12);
    }

    #[test]
    fn auto_expansion_kicks_in_for_tiny_graphs() {
        let db = fig1_db();
        let gg = GraphGen::new(&db); // default: threshold 1.2
        let g = gg.extract(Q1).unwrap();
        // Either path must preserve semantics; with defaults this small
        // graph ends up expanded.
        assert!(g.report().auto_expanded);
        assert!(matches!(g.graph(), AnyGraph::Exp(_)));
    }

    #[test]
    fn batch_extraction_spans_every_phase_once_over() {
        use graphgen_common::metrics::collect_phases;
        let db = fig1_db();
        let condensed = GraphGenConfig::builder()
            .large_output_factor(0.0)
            .threads(1)
            .build();
        // Default: Fig. 1 is small-output, so its one segment joins the two
        // atoms, and the direct route writes the out-lists inside the join.
        // Forced condensed: two one-atom segments, no join.
        for (cfg, labels) in [
            (
                GraphGenConfig::builder().threads(1).build(),
                &["scan", "distinct", "join", "load_nodes", "build_rep"][..],
            ),
            (
                condensed,
                &["scan", "distinct", "load_nodes", "emit", "build_rep"][..],
            ),
        ] {
            let gg = GraphGen::with_config(&db, cfg);
            let start = Instant::now();
            let (g, phases) = collect_phases(|| gg.extract(Q1).unwrap());
            let wall = start.elapsed().as_nanos() as u64;
            assert_eq!(g.graph().expanded_edge_count(), 12);
            for label in labels {
                assert!(
                    phases.iter().any(|(l, _)| l == label),
                    "no {label} span in {phases:?}"
                );
            }
            // The spans never nest: together they fit in the wall time.
            let spanned: u64 = phases.iter().map(|p| p.1).sum();
            assert!(spanned <= wall, "{spanned} ns spanned in {wall} ns");
        }
    }

    #[test]
    fn sql_rendered_for_segments() {
        let db = fig1_db();
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .large_output_factor(0.0)
                .preprocess(false)
                .auto_expand_threshold(None)
                .threads(1)
                .build(),
        );
        let g = gg.extract(Q1).unwrap();
        assert_eq!(g.report().sql.len(), 2, "{:?}", g.report().sql);
        assert!(g.report().sql[0].contains("SELECT DISTINCT"));
    }

    #[test]
    fn multi_layer_extraction_tpch_shape() {
        // Customer -- Orders -- LineItem co-purchase ([Q2]).
        let mut customer = Table::new(Schema::new(vec![
            Column::int("custkey"),
            Column::str("name"),
        ]));
        for c in 0..4 {
            customer
                .push_row(vec![Value::int(c), Value::str(format!("c{c}"))])
                .unwrap();
        }
        let mut orders = Table::new(Schema::new(vec![
            Column::int("orderkey"),
            Column::int("custkey"),
        ]));
        let mut lineitem = Table::new(Schema::new(vec![
            Column::int("orderkey"),
            Column::int("partkey"),
        ]));
        // customer c owns order c; orders 0,1 share part 100; orders 2,3 share part 200.
        for o in 0..4 {
            orders.push_row(vec![Value::int(o), Value::int(o)]).unwrap();
        }
        for (o, p) in [(0, 100), (1, 100), (2, 200), (3, 200), (0, 300)] {
            lineitem
                .push_row(vec![Value::int(o), Value::int(p)])
                .unwrap();
        }
        let mut db = Database::new();
        db.register("Customer", customer).unwrap();
        db.register("Orders", orders).unwrap();
        db.register("LineItem", lineitem).unwrap();
        let q2 = "Nodes(ID, Name) :- Customer(ID, Name).\n\
                  Edges(ID1, ID2) :- Orders(OK1, ID1), LineItem(OK1, PK),\
                                     Orders(OK2, ID2), LineItem(OK2, PK).";
        let gg = GraphGen::with_config(
            &db,
            // large_output_factor 0.0 forces all joins large -> 3 layers.
            GraphGenConfig::builder()
                .large_output_factor(0.0)
                .preprocess(false)
                .auto_expand_threshold(None)
                .threads(1)
                .build(),
        );
        let condensed = gg.extract(q2).unwrap();
        let full = gg.extract_full(q2).unwrap();
        assert_eq!(expand_to_edge_list(&condensed), expand_to_edge_list(&full));
        let core = condensed.graph().as_condensed().unwrap();
        assert!(!core.is_single_layer());
        assert_eq!(condensed.report().plans[0].virtual_layers(), 3);
        // c0-c1 and c2-c3 connected (shared parts), plus no cross edges.
        let mut edges = expand_to_edge_list(&condensed);
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
    }

    #[test]
    fn heterogeneous_bipartite_q3() {
        let mut instructor = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        instructor
            .push_row(vec![Value::int(100), Value::str("i1")])
            .unwrap();
        let mut student = Table::new(Schema::new(vec![Column::int("id"), Column::str("name")]));
        for s in [1, 2] {
            student
                .push_row(vec![Value::int(s), Value::str(format!("s{s}"))])
                .unwrap();
        }
        let mut taught = Table::new(Schema::new(vec![Column::int("iid"), Column::int("cid")]));
        taught
            .push_row(vec![Value::int(100), Value::int(7)])
            .unwrap();
        let mut took = Table::new(Schema::new(vec![Column::int("sid"), Column::int("cid")]));
        for s in [1, 2] {
            took.push_row(vec![Value::int(s), Value::int(7)]).unwrap();
        }
        let mut db = Database::new();
        db.register("Instructor", instructor).unwrap();
        db.register("Student", student).unwrap();
        db.register("TaughtCourse", taught).unwrap();
        db.register("TookCourse", took).unwrap();
        let q3 = "Nodes(ID, Name) :- Instructor(ID, Name).\n\
                  Nodes(ID, Name) :- Student(ID, Name).\n\
                  Edges(ID1, ID2) :- TaughtCourse(ID1, C), TookCourse(ID2, C).";
        let gg = GraphGen::with_config(
            &db,
            GraphGenConfig::builder()
                .auto_expand_threshold(None)
                .build(),
        );
        let g = gg.extract(q3).unwrap();
        // Directed edges instructor -> student only.
        let i1 = g.vertex_of(&Value::int(100)).unwrap();
        let s1 = g.vertex_of(&Value::int(1)).unwrap();
        let s2 = g.vertex_of(&Value::int(2)).unwrap();
        assert!(g.graph().exists_edge(i1, s1));
        assert!(g.graph().exists_edge(i1, s2));
        assert!(!g.graph().exists_edge(s1, i1));
        assert_eq!(g.graph().expanded_edge_count(), 2);
    }
}
