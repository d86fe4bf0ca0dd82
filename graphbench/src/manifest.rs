//! The names the benchmark reports under: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root declares the
//! same names (plus direction and regression bound, which only the driver
//! needs); `tests/manifest.rs` asserts the two agree.

/// The four workloads, in `--all` order. Later issues cite these names.
pub const WORKLOADS: [&str; 4] = [
    "extract_sparse",
    "analyze_dense",
    "serve_read_heavy",
    "serve_write_heavy",
];

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees. Every workload reports every one of
/// these from an untraced run; "op" is the workload's defining operation
/// (see the README's table). There is no gated tail: the batch workloads
/// complete tens of ops per window, too few for any percentile above the
/// median to have ten samples beyond it. The serve tails are per-layer.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_p50_ms", "ms"),
    m("ops_per_s", "1/s"),
    m("graph_bytes_per_edge", "B"),
    m("peak_mem_mib", "MiB"),
];

/// Single-layer numbers, from a traced run only. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // dsl + planner: a floor under every extraction.
    m("dsl.check_us", "us"),
    m("planner.explain_us", "us"),
    // reldb operators and the representation build.
    m("reldb.segment_query_s", "s"),
    m("reldb.rows_in", "count"),
    m("reldb.rows_out", "count"),
    m("reldb.scan_s", "s"),
    m("reldb.join_s", "s"),
    m("reldb.distinct_s", "s"),
    m("graph.build_rep_s", "s"),
    m("core.extract_s", "s"),
    m("core.extract_t1_s", "s"),
    m("core.extract_parallel_speedup", "ratio"),
    m("core.extract_alloc_mib", "MiB"),
    // what the extracted graph weighs.
    m("graph.rep_bytes", "B"),
    m("graph.logical_edges", "count"),
    m("graph.virtual_nodes", "count"),
    m("dedup.dedup1_bytes_per_edge", "B"),
    // conversion and kernels.
    m("dedup.convert_dedup1_s", "s"),
    m("dedup.convert_bitmap_s", "s"),
    m("algo.degree_dedup1_s", "s"),
    m("algo.pagerank_dedup1_s", "s"),
    m("algo.components_dedup1_s", "s"),
    m("algo.degree_cdup_s", "s"),
    m("algo.pagerank_cdup_s", "s"),
    m("algo.components_cdup_s", "s"),
    // the wire, seen from the client.
    m("client.read_p50_us", "us"),
    m("client.read_p95_us", "us"),
    m("client.apply_p50_us", "us"),
    m("client.apply_p95_us", "us"),
    m("client.ping_p50_us", "us"),
    m("client.gen_overhead_ns", "ns"),
    // the read path, called in-process.
    m("protocol.parse_ns", "ns"),
    m("protocol.execute_read_ns", "ns"),
    m("service.snapshot_pin_ns", "ns"),
    m("core.neighbors_by_key_ns", "ns"),
    // the server's own account of the same requests.
    m("server.request_ns_read", "ns"),
    m("server.request_ns_apply", "ns"),
    m("server.wire_overhead_us", "us"),
    m("server.unattributed_share", "ratio"),
    // the write path.
    m("service.apply_us", "us"),
    m("service.apply_validate_us", "us"),
    m("wal.append_us", "us"),
    m("incremental.patch_us", "us"),
    m("service.publish_us", "us"),
    m("wal.fsync_p50_us", "us"),
    m("wal.fsync_p90_us", "us"),
    m("wal.appends", "count"),
    m("wal.bytes_per_row", "B"),
    m("wal.compactions", "count"),
    m("wal.compaction_ms", "ms"),
    // recovery.
    m("recovery.open_s", "s"),
    m("recovery.snapshot_load_s", "s"),
    m("recovery.replay_s", "s"),
    m("recovery.records", "count"),
    // the benchmark's own tracing.
    m("trace.spans", "count"),
    m("trace.dropped_spans", "count"),
];

/// Values for one list of metric definitions, set by name.
#[derive(Debug, Clone)]
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Values {
    /// All zeros.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Set `name`; an undeclared name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in manifest.rs"));
        self.values[i] = value;
    }

    /// The value of `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(d, _)| d.name == name)
            .map_or(0.0, |(_, v)| v)
    }

    /// `(definition, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricDef, f64)> + '_ {
        self.defs.iter().copied().zip(self.values.iter().copied())
    }
}
