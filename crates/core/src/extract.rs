//! The GraphGen facade and the condensed extraction algorithm (§4.2).

use crate::anygraph::AnyGraph;
use crate::error::Error;
use crate::handle::GraphHandle;
use crate::incremental::{Boundaries, IncrementalState};
use crate::planner::{
    catalog_view, cost_chain, filters_to_predicate, full_query, plan_chain, plan_with_cuts,
    ChainPlan,
};
use graphgen_common::bytesize::grow_by_eighth;
use graphgen_common::metrics::{span, Phase};
use graphgen_common::region::{self, Region};
use graphgen_common::IdMap;
use graphgen_dedup::preprocess::{expand_cheap_virtuals, should_expand, PreprocessStats};
use graphgen_dsl::{
    check_program, parse, CheckOptions, CheckReport, GraphSpec, NodesView, Severity,
};
use graphgen_graph::{CondensedBuilder, ExpandedGraph, PropValue, Properties, RealId, VirtId};
use graphgen_reldb::exec::{right_of, scan_project};
use graphgen_reldb::{Database, Query, Value, Vid, NULL_VID};
use std::borrow::Cow;
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
    incremental: bool,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        let threads = std::env::var("GRAPHGEN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t > 0);
        Self {
            large_output_factor: 2.0,
            preprocess: true,
            auto_expand_threshold: Some(1.2),
            threads: threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get())),
            incremental: false,
        }
    }
}

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
    /// query's scans, grouping sorts and join probes, the EXP build of
    /// the direct route, and Step-6 preprocessing. Results are
    /// byte-identical for any value. The default is `GRAPHGEN_THREADS` if
    /// set, else the available parallelism. Each operator sizes its own
    /// fan-out from it: below its floor of items per thread
    /// (`graphgen_common::parallel::MIN_PARALLEL_ITEMS`, or one measured
    /// for the operator) it runs on fewer threads, a small input on the
    /// calling thread.
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

    /// Worker threads for the whole extraction pipeline (see
    /// [`GraphGenConfig::threads`]). `1` disables parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads.max(1);
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
            return self.extract_maintained(spec, None);
        }
        let start = Instant::now();
        let mut report = ExtractionReport::default();

        let threads = self.cfg.threads;

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
            let mut bounds = Boundaries::new(k - 1);
            for (j, seg) in plan.segments.iter().enumerate() {
                report.sql.push(seg.query.to_sql(self.db)?);
                let bag = seg.query.run_counted(self.db, threads)?;
                let _span = span(Phase::Emit, region::current());
                emit_segment(
                    &mut builder,
                    (j, k),
                    bag.iter().map(|(l, r, _)| (l, r)),
                    |vid| real_from(&node_of, vid),
                    &mut bounds,
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

    /// The incremental extraction of `spec` with chain `i` planned at
    /// `cuts[i]` — one flag per join, set to postpone it — instead of at its
    /// min-cost plan; otherwise [`GraphGen::extract_spec`] with
    /// `incremental(true)`. The serving layer rebuilds a graph this way on
    /// recovery, at the cuts the graph was first extracted with.
    ///
    /// # Panics
    ///
    /// If `cuts` does not hold one cut vector per chain of `spec`, each
    /// with one flag per join.
    pub fn extract_with_cuts(
        &self,
        spec: &GraphSpec,
        cuts: &[Vec<bool>],
    ) -> Result<GraphHandle, Error> {
        assert_eq!(cuts.len(), spec.edges.len(), "one cut vector per chain");
        self.extract_maintained(spec, Some(cuts))
    }

    /// Incremental extraction: plan as the batch path does (or at the
    /// given cuts), then let [`IncrementalState::bulk_load`] build the
    /// delta-maintenance state, the C-DUP graph, the key map and the
    /// properties by one scan of every node view and the segment queries'
    /// evaluator — set-at-a-time, like the batch path, with the result a
    /// row-by-row replay through the delta engine would give.
    /// The operators fan out over the configured thread count, which the
    /// state keeps for later [`GraphHandle::apply_delta`] calls.
    fn extract_maintained(
        &self,
        spec: &GraphSpec,
        cuts: Option<&[Vec<bool>]>,
    ) -> Result<GraphHandle, Error> {
        let start = Instant::now();
        let mut report = ExtractionReport::default();
        let factor = self.cfg.large_output_factor;
        for (i, chain) in spec.edges.iter().enumerate() {
            let plan = match cuts {
                None => plan_chain(self.db, chain, factor)?,
                Some(cuts) => plan_with_cuts(chain, &cost_chain(self.db, chain, factor)?, &cuts[i]),
            };
            for seg in &plan.segments {
                report.sql.push(seg.query.to_sql(self.db)?);
            }
            report.plans.push(plan);
        }
        let (state, graph, ids, properties) =
            IncrementalState::bulk_load(spec, &report.plans, self.cfg.threads, self.db)?;
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
        let threads = self.cfg.threads;
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
    /// left id `l` and its run — the distinct `r` of its `(l, r)`
    /// database-id pairs, ascending, with their counts — straight from the
    /// last join to the node's out-list. Ids that
    /// are no node key (`node_of`, over `n` nodes) and self-pairs drop out,
    /// and the rest are distinct, since each node is the key of one id. The
    /// list is already sorted unless the node order differs from the id
    /// order there; only then is it sorted. Each morsel of the join appends
    /// its lists to flat blocks of a fixed size ([`FlatLists`]), which are
    /// never reallocated. Once every join is done and its atom bags are
    /// dropped, [`ExpandedGraph::from_sorted_lists`] copies the lists, in
    /// node order, into exact-size chunks (a node fed by more than one
    /// query gets its lists merged), a range of nodes per thread, and
    /// shares them as the in-lists when the graph is symmetric. The list
    /// writes are part of the `join` span (of `emit`, for a one-atom
    /// query) and the graph build is the `build_rep` span.
    fn extract_direct<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q Query>,
        n: usize,
        node_of: &[u32],
        threads: usize,
        sql: &mut Vec<String>,
    ) -> Result<ExpandedGraph, Error> {
        let mut parts: Vec<FlatLists> = Vec::new();
        for query in queries {
            sql.push(query.to_sql(self.db)?);
            let each = |part: &mut FlatLists, x: Vid, run: &[u64]| {
                let Some(u) = real_from(node_of, x) else {
                    return;
                };
                let blocks = &mut part.blocks;
                if blocks
                    .last()
                    .is_none_or(|b| b.capacity() - b.len() < run.len())
                {
                    blocks.push(Vec::with_capacity(BLOCK.max(run.len())));
                }
                let block = blocks.last_mut().expect("block pushed above");
                let start = block.len();
                block.extend(
                    run.iter()
                        .filter_map(|&e| real_from(node_of, right_of(e)))
                        .filter(|&v| v != u)
                        .map(|v| v.0),
                );
                let list = &mut block[start..];
                if !list.is_sorted() {
                    list.sort_unstable();
                }
                if !list.is_empty() {
                    let len = list.len() as u32;
                    grow_by_eighth(&mut part.lists, 1);
                    part.lists.push((u.0, len));
                }
            };
            parts.extend(query.run_by_source(self.db, threads, FlatLists::default, each)?);
        }
        let _span = span(Phase::BuildRep, Region::BuildRep);
        let lists = FlatLists::by_node(&parts, n);
        Ok(ExpandedGraph::from_sorted_lists(&lists, threads))
    }

    /// Step 1: scan the node views. Beside the key map and properties the
    /// handle keeps, returns `node_of`: the node of each dictionary id
    /// (indexed by [`Vid`], `u32::MAX` where the value is no node key, read
    /// by [`real_from`]), so edge
    /// endpoints — which arrive as ids — are resolved by indexing. This is
    /// the only place extraction materializes a `Value`: once per node key
    /// and property cell.
    fn load_nodes(&self, views: &[NodesView], threads: usize) -> Result<NodeTables, Error> {
        let dict = self.db.dict();
        let value = |vid: Vid| dict.resolve(vid).expect("scanned id is live");
        let mut ids: IdMap<Value> = IdMap::new();
        let mut props = Properties::new(0);
        let mut node_of = vec![u32::MAX; dict.len()];
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
                node_of[row[0] as usize] = u.0;
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

/// Resolve an id to its real node through a flat side-table of node ids —
/// one array load, no value hash, four bytes per dictionary slot. A `Vid`
/// beyond the table (interned after the last rebuild/add) or mapped to the
/// sentinel `u32::MAX` is not a node key, exactly as an id-map miss would
/// report.
#[inline]
pub(crate) fn real_from(real_ids: &[u32], vid: Vid) -> Option<RealId> {
    real_ids
        .get(vid as usize)
        .copied()
        .filter(|&id| id != u32::MAX)
        .map(RealId)
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
/// `builder`, given the segment's distinct `(l, r)` pairs in ascending
/// order. Each pair goes through [`segment_edge`], with `bounds` numbering
/// the chain's virtual nodes as the builder allocates them; the ids are
/// the database's, for batch extraction and
/// [`IncrementalState::bulk_load`] alike.
pub(crate) fn emit_segment(
    builder: &mut CondensedBuilder,
    jk: (usize, usize),
    pairs: impl IntoIterator<Item = (Vid, Vid)>,
    real: impl Fn(Vid) -> Option<RealId>,
    bounds: &mut Boundaries,
) {
    for pair in pairs {
        let virt = |b, vid| bounds.virt(b, vid, || builder.add_virtual());
        match segment_edge(jk, pair, &real, virt) {
            Some(StoredEdge::Direct(u, v)) => builder.direct(u, v),
            Some(StoredEdge::RealToVirtual(u, v)) => builder.real_to_virtual(u, v),
            Some(StoredEdge::VirtualToVirtual(v, w)) => builder.virtual_to_virtual(v, w),
            Some(StoredEdge::VirtualToReal(v, t)) => builder.virtual_to_real(v, t),
            None => {}
        }
    }
}

/// Targets per [`FlatLists`] block (16 KiB). A block is allocated once, at
/// this size or at a longer run's, and never grows: writing a morsel's
/// lists costs no reallocation and leaves at most one block's slack per
/// join morsel. With 64 KiB blocks an eight-thread extraction of
/// `dblp_like(25k/33k)` peaked 2.02× above what its handle keeps, against
/// 1.97× with these.
const BLOCK: usize = 1 << 12;

/// One join morsel's out-lists on the direct route, written flat: `blocks`
/// hold the non-empty lists back to back, each list within one block, and
/// `lists` the node and length of each, in the order they were written.
#[derive(Default)]
struct FlatLists {
    blocks: Vec<Vec<u32>>,
    lists: Vec<(u32, u32)>,
}

impl FlatLists {
    /// Every node's out-list, in node order, from the lists of `parts`: a
    /// list is borrowed where one part wrote the node's, and merged
    /// (sorted, deduplicated) only where two queries fed one node.
    fn by_node(parts: &[FlatLists], n: usize) -> Vec<Cow<'_, [u32]>> {
        let mut out = vec![Cow::Borrowed(&[][..]); n];
        for part in parts {
            let mut blocks = part.blocks.iter();
            let mut rest: &[u32] = &[];
            for &(u, len) in &part.lists {
                // A list that did not fit its predecessor's block opened
                // the next one; a block may end up holding no list.
                while rest.is_empty() {
                    rest = blocks.next().expect("every list lies in a block");
                }
                let (list, tail) = rest.split_at(len as usize);
                rest = tail;
                let slot = &mut out[u as usize];
                if slot.is_empty() {
                    *slot = Cow::Borrowed(list);
                } else {
                    let merged = slot.to_mut();
                    merged.extend_from_slice(list);
                    merged.sort_unstable();
                    merged.dedup();
                }
            }
        }
        out
    }
}

/// What [`GraphGen::load_nodes`] builds: key map, properties, and the node
/// of each dictionary id (`u32::MAX` where the id is no node key).
type NodeTables = (IdMap<Value>, Properties, Vec<u32>);

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
