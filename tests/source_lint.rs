//! Source lint for the serving layer: request-handling and WAL code must
//! not contain `unwrap()` / `expect(...)` / `panic!` outside a small,
//! explicit allowlist — a panic in a connection thread or the writer path
//! kills the service, so fallible paths must report through `ServeError`.
//!
//! Std-only (string scanning, no syn): code up to the first line that
//! starts with `#[cfg(test)]` in each file is checked; `main.rs` (process
//! startup, where aborting is the right move) and `testutil.rs` are
//! deliberately out of scope.
//!
//! A second lint keeps the analysis crates honest about suppressions:
//! every `#[allow(...)]` in `crates/core` / `crates/dsl` must appear in
//! `ALLOW_REGISTRY` with a written reason, and registry entries whose
//! attribute has been deleted are flagged as stale.
//!
//! A third lint keeps serving-layer bookkeeping observable: raw atomic
//! counters (`AtomicU64` and friends) in `crates/serve/src` must go
//! through the metrics registry (`crate::obs`) so they show up in
//! `METRICS`, with `RAW_COUNTER_ALLOWED` for the justified exceptions.
//!
//! A fourth lint keeps deleted mechanisms deleted: the names of the hash
//! join and hash DISTINCT (one operator set), of the per-graph
//! write-ahead logs (one log), of the condensed shadow that patched
//! converted incremental handles (one patch path) and of the writer's
//! private rejection map (one counter store) may not reappear in any
//! crate's sources or in the docs.
//!
//! A fifth lint keeps the protocol's verb set declared once: each verb's
//! metric label is spelled in exactly one place of `crates/serve/src`,
//! its `Verb` declaration.

use std::path::Path;

/// The files whose non-test code is linted.
const LINTED: &[&str] = &[
    "crates/serve/src/analyze.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/wal.rs",
];

/// `.unwrap()` is allowed only directly on these: lock poisoning (the
/// panic already happened elsewhere; propagating is correct) and
/// fixed-size slice conversions whose length is proven on the line.
const UNWRAP_ALLOWED_AFTER: &[&str] = &[".lock()", ".read()", ".write()", ".try_into()"];

/// The only `.expect(...)` messages allowed: each marks an invariant that
/// an enclosing check on the same path already established.
const EXPECT_ALLOWED: &[&str] = &["\"8-byte trailer\""];

/// The file's non-test source with comments stripped and lines joined
/// (so multi-line method chains like `.write()\n.unwrap()` scan as one
/// token stream).
fn compact_nontest_source(path: &Path) -> String {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    // Non-test code ends at the first line that starts with the attribute,
    // as `scripts/nontest_lines.sh` counts it; a mention inside a line
    // does not cut.
    src.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(|line| {
            // Naive comment strip: fine for these files (no `//` inside
            // string literals on linted constructs).
            let cut = line.find("//").unwrap_or(line.len());
            line[..cut].trim()
        })
        .collect::<Vec<_>>()
        .join("")
}

/// Every file at or under `path`.
fn walk(path: &Path, files: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).unwrap_or_else(|e| panic!("{path:?}: {e}")) {
            walk(&entry.expect("dir entry").path(), files);
        }
    } else {
        files.push(path.to_path_buf());
    }
}

fn context(text: &str, pos: usize) -> String {
    let start = pos.saturating_sub(60);
    let end = (pos + 40).min(text.len());
    text[start..end].to_string()
}

#[test]
fn serve_request_and_wal_paths_do_not_panic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    for rel in LINTED {
        let text = compact_nontest_source(&root.join(rel));

        for (pos, _) in text.match_indices(".unwrap()") {
            let before = &text[..pos];
            if !UNWRAP_ALLOWED_AFTER.iter().any(|ok| before.ends_with(ok)) {
                violations.push(format!(
                    "{rel}: `.unwrap()` outside the allowlist near `…{}…`",
                    context(&text, pos)
                ));
            }
        }

        for (pos, _) in text.match_indices(".expect(") {
            let after = &text[pos + ".expect(".len()..];
            if !EXPECT_ALLOWED.iter().any(|msg| after.starts_with(msg)) {
                violations.push(format!(
                    "{rel}: `.expect(...)` with unlisted message near `…{}…`",
                    context(&text, pos)
                ));
            }
        }

        for needle in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            if let Some(pos) = text.find(needle) {
                violations.push(format!(
                    "{rel}: `{needle}` in non-test code near `…{}…`",
                    context(&text, pos)
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "serving-layer panic lint failed (either return a ServeError or, \
         for a genuinely proven invariant, extend the allowlist in \
         tests/source_lint.rs with a justification):\n{}",
        violations.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Counter bookkeeping goes through the metrics registry
// ---------------------------------------------------------------------------

/// Files in `crates/serve/src` allowed to hold a raw atomic counter.
/// Everything else must use `graphgen_common::metrics` instruments via
/// `obs.rs` — a bare `AtomicU64` is invisible to `METRICS`, and the
/// read-then-reset races the registry replaced all started as "just one
/// little counter". (`AtomicBool` flags — shutdown, wedged — are fine;
/// this lint is about *counters*.)
const RAW_COUNTER_ALLOWED: &[&str] = &[
    // Temp-dir name uniquifier in test support, not a metric.
    "crates/serve/src/testutil.rs",
];

#[test]
fn serve_counters_live_in_the_metrics_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = root.join("crates/serve/src");
    let mut violations = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let rel = format!(
            "crates/serve/src/{}",
            path.file_name().expect("file name").to_string_lossy()
        );
        if RAW_COUNTER_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let text = compact_nontest_source(&path);
        for needle in ["AtomicU64", "AtomicUsize", "AtomicI64"] {
            if let Some(pos) = text.find(needle) {
                violations.push(format!(
                    "{rel}: raw `{needle}` counter near `…{}…` — register a \
                     Counter/Gauge/Histogram through crate::obs instead (or, \
                     for a genuine non-metric, extend RAW_COUNTER_ALLOWED \
                     with a justification)",
                    context(&text, pos)
                ));
            }
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

#[test]
fn raw_counter_allowlist_entries_are_still_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in RAW_COUNTER_ALLOWED {
        let text = compact_nontest_source(&root.join(rel));
        assert!(
            ["AtomicU64", "AtomicUsize", "AtomicI64"]
                .iter()
                .any(|needle| text.contains(needle)),
            "{rel} no longer holds a raw atomic counter; prune it from \
             RAW_COUNTER_ALLOWED"
        );
    }
}

// ---------------------------------------------------------------------------
// One join, one DISTINCT, one log, one benchmark
// ---------------------------------------------------------------------------

/// Names of mechanisms that were deleted for a single one, each with the
/// only file (if any) that may still spell it. A second join or DISTINCT
/// beside `reldb::exec::{group_pairs, join_runs}`, a second log beside
/// `db.wal`, a second benchmark beside `graphbench`, or a hash-map copy of
/// the maintenance state beside its `CountedRuns` would be a second
/// mechanism for one job, and a doc line naming these would describe code
/// that is gone.
const DELETED_NAMES: &[(&str, Option<&str>)] = &[
    ("hash_join_project", None),
    ("distinct_rows", None),
    ("graph_wal_path", None),
    ("graph_wal_record", None),
    // `GraphService::create` clears a previous layout's per-graph logs
    // along with the rest of a dead incarnation's files.
    (".graph.wal", Some("crates/serve/src/service.rs")),
    // `graphbench` is the one benchmark; the publish bound is the
    // chunk-count test in `crates/serve/tests/sharing_oracle.rs`.
    ("BenchReport", None),
    ("BENCH_serving", None),
    ("BENCH_incremental", None),
    ("serving_throughput", None),
    ("scaling_extraction", None),
    ("measure_thread_scaling", None),
    // The maintenance state keeps the operators' sorted, counted runs
    // (`core/src/runs.rs`); a left endpoint's output is its support run.
    ("VidBag", None),
    ("bag_by_in", None),
    ("flat_insert", None),
    ("by_left", None),
    // A maintained handle holds its C-DUP and takes every delta there;
    // conversions are derived, read-only handles (`GraphHandle::convert`).
    ("ShadowCore", None),
    ("convert_incremental", None),
    ("set_shadow", None),
    ("logical_edges_", None),
    // A registered table stores dictionary ids: the scan copies them, and a
    // value is hashed only when registration or a mutation interns it.
    ("lookup(table.cell", None),
    // A snapshot holds the C-DUP; derived representations are recomputed
    // with `convert` after decoding.
    ("encode_expanded", None),
    ("decode_expanded", None),
    ("encode_dedup1", None),
    ("decode_dedup1", None),
    ("encode_dedup2", None),
    ("decode_dedup2", None),
    ("encode_bitmap", None),
    ("decode_bitmap", None),
    ("from_words", None),
    // The graph API is forwarded once, by `GraphHandle`; `AnyGraph`
    // dereferences to the `dyn GraphRep` it holds. No API replaces a
    // handle's graph or takes it apart, and `convert`/`advise` keep only
    // the knobs a caller sets.
    ("impl GraphRep for AnyGraph", None),
    ("fn graph_mut", None),
    ("fn into_parts", None),
    ("BitmapAlgorithm", None),
    ("allow_dedup", None),
    // `catalog_view` and `explain_spec` live in `core::planner`; the cost
    // engine is `graphgen_dsl::cost`.
    ("graphgen_core::cost", None),
    // Check rejections are the registry's `graphgen_check_rejects_total`
    // members; `STATS` reads them through `Obs::reject_counts`.
    ("check_reject_counts", None),
    ("check_rejects:", None),
    // A segment output pair becomes its stored edge in one function,
    // `core::extract::segment_edge`; the delta patch inserts or removes
    // that edge through `Target::edge`, and a chain's virtual nodes are
    // numbered by `Boundaries::virt`.
    ("add_membership", None),
    ("remove_membership", None),
    ("add_virt_to_real", None),
    ("remove_virt_to_real", None),
    ("fn add_vv", None),
    ("fn remove_vv", None),
    ("target.add_direct", None),
    ("target.remove_direct", None),
    ("ensure_virt", None),
    ("boundary_slot", None),
    ("boundary_index", None),
    ("boundary_keys", None),
    ("boundary_virts", None),
    // Scoped threads fan out through `common::parallel::map_parts`, which
    // `map_chunks` and `map_morsels` are views of.
    ("in_chunks", None),
    ("fn morsels(", None),
    // Every operator sizes its own fan-out from the configured thread
    // count (`common::parallel::effective_threads` / `threads_for`); no
    // rule sizes a whole batch extraction to the rows it scans.
    ("ROWS_PER_THREAD", None),
    ("batch_threads", None),
    ("threads_chosen", None),
    // Every span label is a `common::metrics::Phase`, declared once with
    // its family; the serving layer routes by `phase as usize`.
    ("APPLY_PHASES", None),
    ("EXTRACT_PHASES", None),
    // The maintenance state keeps each relation once: node-view rows hold
    // property values aligned with their view's columns, no names and no
    // per-key hash entry.
    ("NodeEntry", None),
    ("prop_rows", None),
    // A relation past the scan has one layout, `reldb::exec::Bag`, from the
    // grouping to the maintenance state: one builder, one transpose, and
    // the limits checked where a bag is written.
    ("CountedPairs", None),
    ("left_runs", None),
    ("check_joinable", None),
    ("transpose_counted", None),
    ("transpose_of", None),
    ("extend_run", None),
    ("RunsBuilder", None),
    // Public functions nothing called.
    ("extend_rows", None),
    ("reach_set", None),
    ("direct_edges_count", None),
    ("to_builder", None),
    ("raw_out", None),
    // One value dictionary, grow-only: the maintenance state keys by
    // database ids, and no slot is ever freed or reused.
    ("engine_vid", None),
    ("find_or_alloc", None),
    ("dict.acquire", None),
    ("dict.release", None),
    // One segment evaluator, `reldb::Query`'s: the bulk load runs each
    // segment query through it (`Query::run_keeping`) in the replay's
    // completion order, and batch extraction numbers its virtual nodes
    // with the maintenance state's `Boundaries`.
    ("virt_of", None),
    ("run_to_last_join", None),
    ("Vec<Vec<Vec<Option<Bag>>>>", None),
    // The database is the only durable state: a graph file is a header,
    // and recovery rebuilds each graph from the recovered database with
    // the bulk load at its frozen cuts. No handle, graph or state codec.
    ("GGSNAP", Some("docs/ARCHITECTURE.md")),
    ("SNAPSHOT_MAGIC", None),
    ("to_snapshot_bytes", None),
    ("from_snapshot_bytes", None),
    ("write_snapshot", None),
    ("from_snapshot_parts", None),
    ("encode_snapshot", None),
    ("decode_snapshot", None),
    ("graph::snapshot", None),
    ("graph_snapshot", None),
    ("ChunkEncoder", None),
    ("ChunkDecoder", None),
    ("encode_condensed", None),
    ("decode_condensed", None),
    ("encode_prop_cell", None),
    ("decode_prop_cell", None),
    ("encode_properties", None),
    ("decode_properties", None),
    ("put_idmap", None),
    ("read_idmap", None),
    ("rebuild_real_ids", None),
    ("set_threads", None),
    ("SnapshotOfDerived", None),
    ("ErrorKind::Snapshot", None),
    ("Error::Snapshot", None),
    ("from_chunked", None),
    ("Adj::from_raw", None),
    ("decode_at_depth", None),
    ("planned_outputs", None),
    ("fn lefts", None),
    ("fn scalar", None),
    ("put_bytes", None),
    ("handle_snapshot_size", None),
    // Public functions whose only caller was their own unit test.
    ("avg_fanout", None),
    ("has_table", None),
    ("is_stopped", None),
    ("is_trivial", None),
    ("total_cost", None),
    ("column_by_name", None),
    ("synthetic_1", None),
    ("synthetic_2", None),
];

#[test]
fn deleted_operators_stay_deleted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates).unwrap_or_else(|e| panic!("{crates:?}: {e}")) {
        walk(&entry.expect("dir entry").path().join("src"), &mut files);
    }
    walk(&root.join("docs"), &mut files);
    walk(&root.join("README.md"), &mut files);

    let mut violations = Vec::new();
    for path in files {
        // Anything that is not text cannot name an operator.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).expect("under root");
        for (name, allowed_in) in DELETED_NAMES {
            let mut hits = text
                .lines()
                .enumerate()
                .filter(|(_, line)| line.contains(name));
            if allowed_in.is_some_and(|file| rel == Path::new(file)) {
                hits.next(); // the one place
            }
            violations.extend(hits.map(|(n, _)| format!("{}:{}: `{name}`", rel.display(), n + 1)));
        }
    }
    assert!(
        violations.is_empty(),
        "the hash join and the hash DISTINCT were deleted for \
         `reldb::exec::{{join_runs, group_pairs}}`, the per-graph logs \
         for the one `db.wal`, the second benchmark for `graphbench`, \
         the per-id hash maps of the maintenance state for `CountedRuns`, \
         the condensed shadow and logical-edge patch path of converted \
         incremental handles for patching the C-DUP only, and the scan's \
         per-cell dictionary lookup for tables that store ids, and the \
         derived representations' snapshot codecs for the C-DUP's, \
         `AnyGraph`'s `GraphRep` impl for its `Deref` to the one it holds, \
         `graph_mut`/`into_parts` and the never-set conversion and advisor \
         knobs for the fixed Fig. 10 constructors, `core::cost` for \
         `core::planner` over `graphgen_dsl::cost`, the writer's \
         rejection map for the registry's per-code counters, the patch \
         path's per-kind edge methods for `segment_edge` and `Target::edge`, \
         the kernels' own thread fan-out for `map_chunks`, the 16-byte \
         operator bags and their conversion for the one `Bag` layout, the batch \
         extraction's rows-per-thread rule for per-operator fan-outs, the phase \
         label lists for the one `Phase` declaration, and the named, \
         hash-mapped node entries for rows aligned with their view, the \
         maintenance state's own dictionary and the refcounted, recycling \
         slots for the one grow-only database dictionary, the handle, \
         graph and state snapshot codecs for rebuilding each graph from \
         the recovered database, and \
         public functions nothing called were deleted; extend those instead \
         of bringing a second mechanism back, and keep the docs on the \
         code that exists:\n{}",
        violations.join("\n")
    );
}

// ---------------------------------------------------------------------------
// One declaration per protocol verb
// ---------------------------------------------------------------------------

/// Verb labels that are also a word of another vocabulary, with the file
/// that spells the other one: `ANALYZE`'s `degree` algorithm.
const VERB_LABEL_HOMONYMS: &[(&str, &str)] = &[("degree", "crates/serve/src/analyze.rs")];

#[test]
fn each_verb_label_is_written_once() {
    use graphgen_serve::protocol::Verb;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(&root.join("crates/serve/src"), &mut files);
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under root");
            (
                rel.to_string_lossy().into_owned(),
                compact_nontest_source(path),
            )
        })
        .collect();
    let mut violations = Vec::new();
    for verb in Verb::ALL {
        let literal = format!("\"{}\"", verb.label());
        let spellings: Vec<&str> = sources
            .iter()
            .filter(|(rel, _)| !VERB_LABEL_HOMONYMS.contains(&(verb.label(), rel.as_str())))
            .flat_map(|(rel, text)| text.matches(&literal).map(move |_| rel.as_str()))
            .collect();
        if spellings.len() != 1 {
            violations.push(format!("{literal} spelled in {spellings:?}"));
        }
    }
    for (label, file) in VERB_LABEL_HOMONYMS {
        let text = compact_nontest_source(&root.join(file));
        assert!(
            text.contains(&format!("\"{label}\"")),
            "{file} no longer spells \"{label}\"; prune it from VERB_LABEL_HOMONYMS"
        );
    }
    assert!(
        violations.is_empty(),
        "a protocol verb's label is written once, in `protocol.rs`'s \
         `verbs!` declaration; derive it with `Verb::label` instead:\n{}",
        violations.join("\n")
    );
}

// ---------------------------------------------------------------------------
// `#[allow(...)]` registry for the analysis crates
// ---------------------------------------------------------------------------

/// Every `#[allow(...)]` in `crates/core` / `crates/dsl` must be
/// registered here as `(file, lint)` with a reason. CI runs clippy with
/// `-D warnings`, so a suppression is the only way a lint regression can
/// slip through — each one is a deliberate, reviewed exception, and a
/// registered entry whose attribute has since been deleted is stale and
/// must be pruned (the test fails in both directions).
const ALLOW_REGISTRY: &[(&str, &str)] = &[
    // `SegmentState::transitions` honestly returns (appeared, disappeared)
    // edge-pair vectors; an alias used once would only hide the shape.
    ("crates/core/src/incremental.rs", "clippy::type_complexity"),
];

/// All `(file, lint)` pairs for `#[allow(...)]` / `#![allow(...)]`
/// attributes under the given crate source directories.
fn allow_attributes(root: &Path, dirs: &[&str]) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut files);
    }
    files.retain(|path| path.extension().is_some_and(|ext| ext == "rs"));
    let mut found = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .expect("under root")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        for line in src.lines() {
            let line = line.trim();
            let Some(rest) = line
                .strip_prefix("#[allow(")
                .or_else(|| line.strip_prefix("#![allow("))
            else {
                continue;
            };
            let lints = rest.split(")]").next().unwrap_or(rest);
            for lint in lints.split(',') {
                found.push((rel.clone(), lint.trim().to_string()));
            }
        }
    }
    found
}

#[test]
fn analysis_crates_have_no_unregistered_or_stale_allow_attributes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = allow_attributes(root, &["crates/core/src", "crates/dsl/src"]);

    let mut violations = Vec::new();
    for (file, lint) in &found {
        if !ALLOW_REGISTRY
            .iter()
            .any(|(rf, rl)| rf == file && rl == lint)
        {
            violations.push(format!(
                "{file}: unregistered `#[allow({lint})]` — fix the lint, or \
                 register it with a reason in tests/source_lint.rs"
            ));
        }
    }
    for (file, lint) in ALLOW_REGISTRY {
        if !found.iter().any(|(ff, fl)| ff == file && fl == lint) {
            violations.push(format!(
                "stale registry entry ({file}, {lint}): the attribute is \
                 gone — prune it from ALLOW_REGISTRY"
            ));
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

#[test]
fn allowlist_entries_are_still_used() {
    // An allowlist that outlives the code it excuses silently widens the
    // lint; prune entries when their call sites go away.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let all: String = LINTED
        .iter()
        .map(|rel| compact_nontest_source(&root.join(rel)))
        .collect();
    for msg in EXPECT_ALLOWED {
        assert!(
            all.contains(&format!(".expect({msg})")),
            "allowlisted expect message {msg} no longer appears; remove it"
        );
    }
}
