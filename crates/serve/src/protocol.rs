//! The newline-delimited text protocol of `graphgen-serve`.
//!
//! One request per line, one response line per request. Each verb is
//! declared once, with its metric label, by the `verbs!` table below
//! ([`Verb`], [`Verb::ALL`], [`Command::verb`]); its request syntax:
//!
//! ```text
//! EXTRACT <name> <dsl…>      extract + register a graph (DSL on the same line)
//! CHECK <name> <dsl…>        statically check a program; registers nothing
//! EXPLAIN <name> <dsl…>      cost a program on live statistics; registers nothing
//! EXPLAIN <name>             re-cost a registered graph's frozen plan (drift)
//! NEIGHBORS <name> <key>     out-neighbor keys of a vertex
//! DEGREE <name> <key>        out-degree of a vertex
//! ANALYZE <name> <algo> [k=v …]   run an analysis on the published snapshot
//! ANALYZE STATUS             engine counters (computes/hits/warm starts/cache size)
//! ANALYZE STATUS <name> <algo> [k=v …]   newest cached result, never computes
//! APPLY <table> <±row …>     mutate a table: +1,2 inserts row (1,2); -1,2 deletes it
//! STATS [<name>]             per-graph version/vertices/edges (all graphs, after a
//!                            service line with the log's size, if no name)
//! COMPACT <name>             checkpoint: fold the log into a fresh db.snap
//! METRICS                    full instrument registry, escaped exposition
//! TRACE [<n>]                drain up to n slow/failed ops from the trace ring
//! PING                       liveness probe
//! SHUTDOWN                   stop the server (responds, then closes)
//! ```
//!
//! `EXPLAIN` flattens the cost engine's multi-line plan tree onto one
//! response line with ` | ` separators (the renderings themselves are
//! golden-locked at the library layer). With a DSL it costs that program;
//! without one it re-costs the named graph's frozen extraction-time plan
//! against the live catalog and leads with `drift=<ratio>
//! stale_plan=<bool>` — the same numbers `STATS` reports per graph.
//!
//! `CHECK` answers `OK clean` or `OK errors=<n> warnings=<n> | <diag>;
//! <diag>…` with one coded, span-carrying diagnostic per `;`-separated
//! entry (`E001 unknown-relation at 1:15: …`). An `EXTRACT` the checker
//! rejects answers `ERR check failed: <diag>; …` with the same coded form,
//! and the bare `STATS` line reports service-wide per-code rejection
//! totals (`rejects=2 reject_codes=E001:1,E003:1`), read from the
//! `graphgen_check_rejects_total{code=…}` counters `METRICS` renders.
//!
//! `ANALYZE` algorithms: `degree`, `pagerank` (params `damping=`, `tol=`,
//! `iters=`), `components`, `triangles`, `clustering`. The response leads
//! with `version=<v> fresh=<bool>`: the graph version the result was
//! computed on and whether that is still the published version — a cached
//! entry for a superseded version stays readable, tagged `fresh=false`.
//! The computation runs on a background pool against a pinned snapshot;
//! other connections (readers *and* the writer) proceed meanwhile. The
//! leading `STATUS` keyword is reserved: a graph literally named `STATUS`
//! cannot be addressed by `ANALYZE` (use the library API for that).
//!
//! `METRICS` answers the whole instrument registry in Prometheus-style
//! text exposition. The canonical form is multi-line, which the one-line
//! protocol cannot carry verbatim, so the response is the **escaped
//! one-line form** of [`graphgen_common::metrics::escape_exposition`]
//! (`\` → `\\`, newline → `\n`, CR → `\r`); clients recover the canonical
//! text with `unescape_exposition`, and `graphgen-serve --metrics-dump`
//! prints it directly. `TRACE [<n>]` drains up to `n` events (all, when
//! omitted) from the slow-op ring, oldest first: `n=<k> | seq=… verb=…
//! detail=… ok=… total_ns=… phases=label:ns,…`. Every executed command is
//! timed and counted ([`crate::obs`]); slow or failed ones land in the
//! ring with their per-phase breakdown.
//!
//! Responses start with `OK` (payload follows on the same line) or `ERR
//! <message>`. Row cells are comma-separated values: `NULL`, an integer,
//! a double-quoted string (`"ann"`, `\"`/`\\`/`\n`/`\r` escapes; commas
//! inside quotes are cell content), or a bare string without
//! commas/quotes/spaces. Keys use the same value syntax. `APPLY` rows are
//! whitespace-separated, so string cells there cannot contain spaces — a
//! deliberate limitation of the line protocol (use the
//! [`crate::GraphService`] API directly for arbitrary strings).

use crate::analyze::{Algo, AnalyzeParams};
use crate::error::{ServeError, ServeResult};
use crate::service::{GraphService, TableMutation};
use graphgen_reldb::Value;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `EXTRACT <name> <dsl…>`
    Extract {
        /// Graph name to register.
        name: String,
        /// The DSL program (rest of the line).
        dsl: String,
    },
    /// `CHECK <name> <dsl…>`
    Check {
        /// Graph name the program would be registered under (validated,
        /// never registered).
        name: String,
        /// The DSL program (rest of the line).
        dsl: String,
    },
    /// `EXPLAIN <name> [<dsl…>]`
    Explain {
        /// Graph name: the registration target when a DSL is given, the
        /// registered graph to re-cost when not.
        name: String,
        /// The DSL program to cost (rest of the line); `None` re-costs
        /// the registered graph's frozen plan.
        dsl: Option<String>,
    },
    /// `NEIGHBORS <name> <key>`
    Neighbors {
        /// Graph name.
        name: String,
        /// Vertex key.
        key: Value,
    },
    /// `DEGREE <name> <key>`
    Degree {
        /// Graph name.
        name: String,
        /// Vertex key.
        key: Value,
    },
    /// `ANALYZE <name> <algo> [k=v …]`
    Analyze {
        /// Graph name.
        name: String,
        /// Which analysis to run.
        algo: Algo,
        /// Algorithm parameters (defaults when omitted).
        params: AnalyzeParams,
    },
    /// `ANALYZE STATUS [<name> <algo> [k=v …]]`
    AnalyzeStatus {
        /// `None`: engine-wide counters. `Some`: the newest cached result
        /// for that key group (never computes).
        target: Option<(String, Algo, AnalyzeParams)>,
    },
    /// `APPLY <table> <±row …>`
    Apply {
        /// Target table.
        table: String,
        /// Rows to insert.
        inserts: Vec<Vec<Value>>,
        /// Rows to delete.
        deletes: Vec<Vec<Value>>,
    },
    /// `STATS [<name>]`
    Stats {
        /// Restrict to one graph.
        name: Option<String>,
    },
    /// `COMPACT <name>`
    Compact {
        /// Graph name.
        name: String,
    },
    /// `METRICS`
    Metrics,
    /// `TRACE [<n>]`
    Trace {
        /// Drain at most this many events (all buffered ones if `None`).
        n: Option<usize>,
    },
    /// `PING`
    Ping,
    /// `SHUTDOWN`
    Shutdown,
}

/// Declares [`Verb`] — one variant per [`Command`] variant, of the same
/// name — with its metric label, [`Verb::ALL`] and [`Command::verb`], so
/// the verb set and its labels are written once.
macro_rules! verbs {
    ($($variant:ident => $label:literal),* $(,)?) => {
        /// A protocol verb: the instrument identity of a [`Command`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Verb {
            $(#[doc = concat!("`", $label, "`")] $variant,)*
        }

        impl Verb {
            /// Every verb in declaration order, the order of the
            /// `graphgen_request_ns` members (`verb as usize` indexes it).
            pub const ALL: &'static [Verb] = &[$(Verb::$variant),*];

            /// The `verb` label of the `graphgen_request_ns` family.
            pub fn label(self) -> &'static str {
                match self { $(Verb::$variant => $label),* }
            }
        }

        impl Command {
            /// The command's verb.
            pub fn verb(&self) -> Verb {
                match self { $(Command::$variant { .. } => Verb::$variant),* }
            }
        }
    };
}

verbs! {
    Extract => "extract", Check => "check", Explain => "explain",
    Neighbors => "neighbors", Degree => "degree",
    Analyze => "analyze", AnalyzeStatus => "analyze_status",
    Apply => "apply", Stats => "stats", Compact => "compact",
    Metrics => "metrics", Trace => "trace", Ping => "ping", Shutdown => "shutdown",
}

impl Command {
    /// Short operation detail for the slow-op trace: the graph or table
    /// the command addresses (empty for service-wide commands).
    fn detail(&self) -> String {
        match self {
            Command::Extract { name, .. }
            | Command::Check { name, .. }
            | Command::Explain { name, .. }
            | Command::Neighbors { name, .. }
            | Command::Degree { name, .. }
            | Command::Analyze { name, .. }
            | Command::Compact { name } => name.clone(),
            Command::AnalyzeStatus {
                target: Some((name, _, _)),
            } => name.clone(),
            Command::Apply { table, .. } => table.clone(),
            Command::Stats { name: Some(name) } => name.clone(),
            _ => String::new(),
        }
    }
}

fn protocol_err(msg: impl Into<String>) -> ServeError {
    ServeError::Protocol(msg.into())
}

/// Render one value in protocol syntax (inverse of [`parse_value`]).
pub fn format_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    // Literal line breaks would tear the one-line-per-
                    // response framing.
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
    }
}

/// Parse one value: `NULL`, an integer, a double-quoted string, or a bare
/// token (taken as a string).
pub fn parse_value(tok: &str) -> ServeResult<Value> {
    if tok == "NULL" {
        return Ok(Value::Null);
    }
    if let Ok(i) = tok.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Some(rest) = tok.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(protocol_err(format!("unterminated string `{tok}`")));
        };
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    other => {
                        return Err(protocol_err(format!(
                            "bad escape `\\{}` in `{tok}`",
                            other.map(String::from).unwrap_or_default()
                        )))
                    }
                }
            } else {
                out.push(c);
            }
        }
        return Ok(Value::str(out));
    }
    Ok(Value::str(tok))
}

/// Split a row token into cells on commas, treating commas inside a
/// double-quoted cell as content (the splitter honours `\"`/`\\` escapes
/// so a quoted cell ends at its real closing quote) — a value rendered by
/// [`format_value`] always parses back.
fn parse_row(tok: &str) -> ServeResult<Vec<Value>> {
    let mut cells: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = tok.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            '\\' if in_quotes => {
                current.push(c);
                if let Some(escaped) = chars.next() {
                    current.push(escaped);
                }
            }
            ',' if !in_quotes => cells.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    cells.push(current);
    cells.iter().map(|cell| parse_value(cell)).collect()
}

/// Parse one request line. Empty lines and `#` comments yield `None`.
pub fn parse_command(line: &str) -> ServeResult<Option<Command>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let one_arg = |what: &str| -> ServeResult<&str> {
        if rest.is_empty() || rest.contains(char::is_whitespace) {
            Err(protocol_err(format!("{verb} takes exactly one {what}")))
        } else {
            Ok(rest)
        }
    };
    let name_and_key = || -> ServeResult<(String, Value)> {
        let (name, key) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| protocol_err(format!("{verb} <name> <key>")))?;
        Ok((name.to_string(), parse_value(key.trim())?))
    };
    match verb.to_ascii_uppercase().as_str() {
        "EXTRACT" => {
            let (name, dsl) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| protocol_err("EXTRACT <name> <dsl>"))?;
            Ok(Some(Command::Extract {
                name: name.to_string(),
                dsl: dsl.trim().to_string(),
            }))
        }
        "CHECK" => {
            let (name, dsl) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| protocol_err("CHECK <name> <dsl>"))?;
            Ok(Some(Command::Check {
                name: name.to_string(),
                dsl: dsl.trim().to_string(),
            }))
        }
        "EXPLAIN" => {
            if rest.is_empty() {
                return Err(protocol_err("EXPLAIN <name> [<dsl>]"));
            }
            let (name, dsl) = match rest.split_once(char::is_whitespace) {
                Some((name, dsl)) => (name, Some(dsl.trim().to_string())),
                None => (rest, None),
            };
            Ok(Some(Command::Explain {
                name: name.to_string(),
                dsl,
            }))
        }
        "NEIGHBORS" => {
            let (name, key) = name_and_key()?;
            Ok(Some(Command::Neighbors { name, key }))
        }
        "DEGREE" => {
            let (name, key) = name_and_key()?;
            Ok(Some(Command::Degree { name, key }))
        }
        "ANALYZE" => {
            let toks: Vec<&str> = rest.split_whitespace().collect();
            let parse_target = |toks: &[&str]| -> ServeResult<(String, Algo, AnalyzeParams)> {
                let [name, algo_tok, param_toks @ ..] = toks else {
                    return Err(protocol_err("ANALYZE <name> <algo> [k=v …]"));
                };
                let algo = Algo::parse(algo_tok).ok_or_else(|| {
                    let known: Vec<&str> = Algo::all().iter().map(|a| a.label()).collect();
                    protocol_err(format!(
                        "unknown algorithm `{algo_tok}` ({})",
                        known.join(", ")
                    ))
                })?;
                if algo != Algo::Pagerank && !param_toks.is_empty() {
                    return Err(protocol_err(format!(
                        "{} takes no parameters",
                        algo.label()
                    )));
                }
                Ok((name.to_string(), algo, AnalyzeParams::parse(param_toks)?))
            };
            match toks.split_first() {
                Some((first, rest_toks)) if first.eq_ignore_ascii_case("STATUS") => {
                    let target = if rest_toks.is_empty() {
                        None
                    } else {
                        Some(parse_target(rest_toks)?)
                    };
                    Ok(Some(Command::AnalyzeStatus { target }))
                }
                _ => {
                    let (name, algo, params) = parse_target(&toks)?;
                    Ok(Some(Command::Analyze { name, algo, params }))
                }
            }
        }
        "APPLY" => {
            let (table, ops) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| protocol_err("APPLY <table> <±row …>"))?;
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for op in ops.split_whitespace() {
                if let Some(row) = op.strip_prefix('+') {
                    inserts.push(parse_row(row)?);
                } else if let Some(row) = op.strip_prefix('-') {
                    deletes.push(parse_row(row)?);
                } else {
                    return Err(protocol_err(format!("row `{op}` must start with + or -")));
                }
            }
            if inserts.is_empty() && deletes.is_empty() {
                return Err(protocol_err("APPLY needs at least one ±row"));
            }
            Ok(Some(Command::Apply {
                table: table.to_string(),
                inserts,
                deletes,
            }))
        }
        "STATS" => Ok(Some(Command::Stats {
            name: if rest.is_empty() {
                None
            } else {
                Some(one_arg("graph name")?.to_string())
            },
        })),
        "COMPACT" => Ok(Some(Command::Compact {
            name: one_arg("graph name")?.to_string(),
        })),
        "METRICS" => {
            if rest.is_empty() {
                Ok(Some(Command::Metrics))
            } else {
                Err(protocol_err("METRICS takes no argument"))
            }
        }
        "TRACE" => Ok(Some(Command::Trace {
            n: if rest.is_empty() {
                None
            } else {
                Some(
                    one_arg("event count")?
                        .parse()
                        .map_err(|_| protocol_err(format!("bad event count `{rest}`")))?,
                )
            },
        })),
        "PING" => Ok(Some(Command::Ping)),
        "SHUTDOWN" => Ok(Some(Command::Shutdown)),
        other => Err(protocol_err(format!("unknown command `{other}`"))),
    }
}

/// Execute one command against a service and render the response line
/// (without the trailing newline). `Shutdown` responds `OK bye`; the
/// server loop is responsible for actually stopping.
///
/// Every execution is observed: the wall time lands in the per-verb
/// request histogram, the phase spans recorded on this thread are folded
/// into their phase families ([`graphgen_common::metrics::PhaseFamily`]),
/// and a slow or failed command is
/// captured in the trace ring with that breakdown.
pub fn execute(service: &GraphService, cmd: &Command) -> String {
    let t0 = std::time::Instant::now();
    let (result, phases) = graphgen_common::metrics::collect_phases(|| run(service, cmd));
    let ok = result.is_ok();
    let response = match result {
        Ok(payload) if payload.is_empty() => "OK".to_string(),
        Ok(payload) => format!("OK {payload}"),
        Err(e) => sanitize_line(&format!("ERR {e}")),
    };
    service.obs().record_op(
        cmd.verb(),
        || cmd.detail(),
        ok,
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        phases,
    );
    response
}

/// Flatten any line break a raw client token may have smuggled into an
/// error message — a response must stay one line (CR included: CRLF-framed
/// clients terminate on it).
pub(crate) fn sanitize_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

fn run(service: &GraphService, cmd: &Command) -> ServeResult<String> {
    use graphgen_graph::GraphRep;
    match cmd {
        Command::Extract { name, dsl } => {
            let snap = service.extract(name, dsl)?;
            Ok(format!(
                "version={} vertices={} edges={}",
                snap.version(),
                snap.handle().num_vertices(),
                snap.handle().expanded_edge_count()
            ))
        }
        Command::Check { name, dsl } => {
            let report = service.check(name, dsl)?;
            if report.diagnostics.is_empty() {
                return Ok("clean".to_string());
            }
            let errors = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == graphgen_dsl::Severity::Error)
                .count();
            let rendered: Vec<String> = report
                .diagnostics
                .iter()
                .map(graphgen_dsl::Diagnostic::one_line)
                .collect();
            Ok(sanitize_line(&format!(
                "errors={errors} warnings={} | {}",
                report.diagnostics.len() - errors,
                rendered.join("; ")
            )))
        }
        Command::Explain { name, dsl } => {
            let rendered = match dsl {
                Some(dsl) => service.explain_dsl(name, dsl)?,
                None => service.explain_graph(name)?,
            };
            // The plan tree is multi-line; the protocol is one line per
            // response. ` | ` separators keep it parseable.
            Ok(sanitize_line(
                &rendered
                    .trim_end_matches('\n')
                    .split('\n')
                    .map(str::trim)
                    .collect::<Vec<_>>()
                    .join(" | "),
            ))
        }
        Command::Neighbors { name, key } => {
            let snap = service.snapshot(name)?;
            let mut neighbors = snap
                .handle()
                .neighbors_by_key(key)
                .ok_or_else(|| protocol_err(format!("unknown key {}", format_value(key))))?;
            neighbors.sort();
            let rendered: Vec<String> = neighbors.into_iter().map(format_value).collect();
            Ok(format!(
                "version={} n={} {}",
                snap.version(),
                rendered.len(),
                rendered.join(" ")
            )
            .trim_end()
            .to_string())
        }
        Command::Degree { name, key } => {
            let snap = service.snapshot(name)?;
            let degree = snap
                .handle()
                .degree_by_key(key)
                .ok_or_else(|| protocol_err(format!("unknown key {}", format_value(key))))?;
            Ok(format!("version={} degree={degree}", snap.version()))
        }
        Command::Analyze { name, algo, params } => {
            let entry = service.analyze(name, *algo, params)?;
            let current = service.snapshot(name)?.version();
            Ok(sanitize_line(&entry.render(current)))
        }
        Command::AnalyzeStatus { target } => match target {
            None => {
                let c = service.analyze_counters();
                Ok(format!(
                    "analyzes={} hits={} warm_starts={} iterations_saved={} cached={}",
                    c.computes, c.hits, c.warm_starts, c.iterations_saved, c.cached
                ))
            }
            Some((name, algo, params)) => {
                let entry = service.analyze_cached(name, *algo, params)?;
                // The graph may have been dropped since: its cache is
                // forgotten with it, so reaching here implies it exists —
                // but stay defensive about the race.
                let current = service.snapshot(name).map(|s| s.version()).unwrap_or(0);
                Ok(sanitize_line(&entry.render(current)))
            }
        },
        Command::Apply {
            table,
            inserts,
            deletes,
        } => {
            let outcome = service.apply(&[TableMutation::new(
                table.clone(),
                inserts.clone(),
                deletes.clone(),
            )])?;
            let graphs: Vec<String> = outcome
                .graphs
                .iter()
                .map(|(name, version, _)| format!("{name}@{version}"))
                .collect();
            Ok(format!("rows={} {}", outcome.rows, graphs.join(" "))
                .trim_end()
                .to_string())
        }
        Command::Stats { name } => {
            let (stats, db_rows) = service.stats();
            let render = |s: &crate::service::GraphStats| {
                format!(
                    "{} version={} vertices={} edges={} rep={} drift={:.2} stale_plan={}",
                    s.name, s.version, s.vertices, s.edges, s.rep, s.drift, s.stale_plan
                )
            };
            match name {
                Some(name) => {
                    let s = stats
                        .iter()
                        .find(|s| &s.name == name)
                        .ok_or_else(|| ServeError::UnknownGraph(name.clone()))?;
                    Ok(render(s))
                }
                None => {
                    let rejects = service.obs().reject_counts();
                    let total: u64 = rejects.iter().map(|(_, n)| n).sum();
                    let mut head = format!(
                        "graphs={} db_rows={db_rows} wal_bytes={} rejects={total}",
                        stats.len(),
                        service.wal_bytes()
                    );
                    if total > 0 {
                        let by_code: Vec<String> = rejects
                            .iter()
                            .map(|(code, n)| format!("{}:{n}", code.code()))
                            .collect();
                        head.push_str(&format!(" reject_codes={}", by_code.join(",")));
                    }
                    let c = service.analyze_counters();
                    head.push_str(&format!(
                        " analyzes={} analyze_hits={} warm_starts={} iterations_saved={}",
                        c.computes, c.hits, c.warm_starts, c.iterations_saved
                    ));
                    let mut parts = vec![head];
                    parts.extend(stats.iter().map(|s| format!("| {}", render(s))));
                    Ok(parts.join(" "))
                }
            }
        }
        Command::Compact { name } => {
            service.compact(name)?;
            Ok(String::new())
        }
        Command::Metrics => {
            // The canonical exposition is multi-line; the wire carries the
            // escaped one-line form (see the module docs). `--metrics-dump`
            // prints the canonical text without the protocol in between.
            Ok(graphgen_common::metrics::escape_exposition(
                &service.metrics_text(),
            ))
        }
        Command::Trace { n } => {
            let events = service.obs().trace().drain(*n);
            let mut out = format!("n={}", events.len());
            for event in &events {
                out.push_str(" | ");
                out.push_str(&event.render());
            }
            Ok(sanitize_line(&out))
        }
        Command::Ping => Ok("pong".to_string()),
        Command::Shutdown => Ok("bye".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        for v in [
            Value::Null,
            Value::int(-42),
            Value::str("plain"),
            Value::str("with \"quotes\" and \\slash"),
            Value::str("спасибо"),
            Value::str("line\nbreak\rcarriage"),
        ] {
            let rendered = format_value(&v);
            // A rendered value must never tear the one-line framing.
            assert!(
                !rendered.contains('\n') && !rendered.contains('\r'),
                "{rendered:?}"
            );
            assert_eq!(parse_value(&rendered).unwrap(), v);
        }
        // Bare tokens parse as strings; integers as ints.
        assert_eq!(parse_value("7").unwrap(), Value::int(7));
        assert_eq!(parse_value("abc").unwrap(), Value::str("abc"));
        assert!(parse_value("\"unterminated").is_err());
        assert!(parse_value("\"bad\\escape\"").is_err());
    }

    #[test]
    fn error_messages_never_break_framing() {
        // A raw CR mid-token survives BufRead::lines and ends up echoed
        // inside the error message; the rendered line must stay one line.
        let err = parse_value("\"a\rb").unwrap_err();
        let line = sanitize_line(&format!("ERR {err}"));
        assert!(!line.contains('\n') && !line.contains('\r'), "{line:?}");
    }

    #[test]
    fn command_parsing() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("# comment").unwrap(), None);
        assert_eq!(parse_command("PING").unwrap(), Some(Command::Ping));
        assert_eq!(parse_command("shutdown").unwrap(), Some(Command::Shutdown));
        let cmd = parse_command("EXTRACT g Nodes(ID) :- T(ID).")
            .unwrap()
            .unwrap();
        assert_eq!(
            cmd,
            Command::Extract {
                name: "g".into(),
                dsl: "Nodes(ID) :- T(ID).".into()
            }
        );
        let cmd = parse_command("CHECK g Nodes(ID) :- T(ID).")
            .unwrap()
            .unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                name: "g".into(),
                dsl: "Nodes(ID) :- T(ID).".into()
            }
        );
        // Rows are whitespace-separated, so string cells must not contain
        // spaces; commas inside quoted cells are content, not separators.
        let cmd = parse_command("APPLY T +1,2 -3,\"x,y\"").unwrap().unwrap();
        assert_eq!(
            cmd,
            Command::Apply {
                table: "T".into(),
                inserts: vec![vec![Value::int(1), Value::int(2)]],
                deletes: vec![vec![Value::int(3), Value::str("x,y")]],
            }
        );
        // A value the protocol itself renders always parses back as a row
        // cell (escaped quotes, backslashes, commas).
        let tricky = Value::str("a,\"b\\c\",d");
        let cmd = parse_command(&format!("APPLY T +7,{}", format_value(&tricky)))
            .unwrap()
            .unwrap();
        assert_eq!(
            cmd,
            Command::Apply {
                table: "T".into(),
                inserts: vec![vec![Value::int(7), tricky]],
                deletes: vec![],
            }
        );
        assert_eq!(
            parse_command("NEIGHBORS g 4").unwrap().unwrap(),
            Command::Neighbors {
                name: "g".into(),
                key: Value::int(4)
            }
        );
        assert_eq!(
            parse_command("STATS g").unwrap().unwrap(),
            Command::Stats {
                name: Some("g".into())
            }
        );
        assert_eq!(
            parse_command("EXPLAIN g").unwrap().unwrap(),
            Command::Explain {
                name: "g".into(),
                dsl: None
            }
        );
        assert_eq!(
            parse_command("EXPLAIN g Nodes(ID) :- T(ID).")
                .unwrap()
                .unwrap(),
            Command::Explain {
                name: "g".into(),
                dsl: Some("Nodes(ID) :- T(ID).".into())
            }
        );
        for bad in [
            "EXTRACT g",
            "CHECK g",
            "APPLY T",
            "APPLY T 1,2",
            "NOPE",
            "DEGREE g",
            "STATS a b",
            "EXPLAIN",
        ] {
            assert!(parse_command(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn analyze_parsing() {
        assert_eq!(
            parse_command("ANALYZE g degree").unwrap().unwrap(),
            Command::Analyze {
                name: "g".into(),
                algo: Algo::Degree,
                params: AnalyzeParams::default(),
            }
        );
        let cmd = parse_command("analyze g PageRank damping=0.9 iters=10")
            .unwrap()
            .unwrap();
        match cmd {
            Command::Analyze { name, algo, params } => {
                assert_eq!(name, "g");
                assert_eq!(algo, Algo::Pagerank);
                assert_eq!(params.damping, 0.9);
                assert_eq!(params.max_iterations, 10);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_command("ANALYZE STATUS").unwrap().unwrap(),
            Command::AnalyzeStatus { target: None }
        );
        assert_eq!(
            parse_command("ANALYZE status g cc").unwrap().unwrap(),
            Command::AnalyzeStatus {
                target: Some(("g".into(), Algo::Components, AnalyzeParams::default()))
            }
        );
        for bad in [
            "ANALYZE",
            "ANALYZE g",
            "ANALYZE g nope",
            "ANALYZE g degree damping=0.9", // params only for pagerank
            "ANALYZE g pagerank damping=2",
            "ANALYZE STATUS g",
        ] {
            assert!(parse_command(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn analyze_verb_end_to_end() {
        use crate::service::tests::{fig1_db, Q1};
        let service = GraphService::in_memory(fig1_db());
        let run = |line: &str| execute(&service, &parse_command(line).unwrap().unwrap());
        run(&format!("EXTRACT g {Q1}"));
        let resp = run("ANALYZE g degree");
        assert!(
            resp.starts_with("OK version=1 fresh=true algo=degree path="),
            "{resp}"
        );
        assert!(resp.contains("warm=false"), "{resp}");
        assert!(resp.contains("n=5"), "{resp}");
        // Cached: second request is a hit, STATUS reads without computing.
        run("ANALYZE g degree");
        let resp = run("ANALYZE STATUS g degree");
        assert!(resp.starts_with("OK version=1 fresh=true"), "{resp}");
        let resp = run("ANALYZE STATUS");
        assert_eq!(
            resp,
            "OK analyzes=1 hits=1 warm_starts=0 iterations_saved=0 cached=1"
        );
        // A publish bumps the version; the old entry stays readable but
        // stale-tagged until a fresh ANALYZE lands.
        run("APPLY AuthorPub +2,3");
        let resp = run("ANALYZE STATUS g degree");
        assert!(resp.starts_with("OK version=1 fresh=false"), "{resp}");
        let resp = run("ANALYZE g pagerank");
        assert!(resp.contains("top="), "{resp}");
        // Bare STATS carries the engine counters.
        let resp = run("STATS");
        assert!(resp.contains("analyzes=2 analyze_hits=1"), "{resp}");
        // Errors are ERR lines.
        assert!(run("ANALYZE nope degree").starts_with("ERR unknown graph"));
        assert!(run("ANALYZE STATUS g triangles").starts_with("ERR analyze: no cached"));
    }

    /// The EXPLAIN verb at both arities: costing a program on live
    /// statistics, and re-costing a registered graph's frozen plan.
    #[test]
    fn explain_verb() {
        use crate::service::tests::{fig1_db, Q1};
        let service = GraphService::in_memory(fig1_db());
        let run = |line: &str| execute(&service, &parse_command(line).unwrap().unwrap());
        // Ad-hoc program: one line, plan tree flattened with ` | `.
        let resp = run(&format!("EXPLAIN pre {Q1}"));
        assert!(
            resp.starts_with("OK chain 1: AuthorPub ⋈ AuthorPub | plan: cost="),
            "{resp}"
        );
        assert!(resp.contains("fingerprint="), "{resp}");
        assert!(!resp.contains('\n'), "{resp}");
        // Nothing was registered by the cost-only verb.
        assert!(run("EXPLAIN pre").starts_with("ERR unknown graph"));
        // Registered graph: drift verdict plus frozen-vs-live plans.
        run(&format!("EXTRACT g {Q1}"));
        let resp = run("EXPLAIN g");
        assert!(
            resp.starts_with("OK graph g: drift=1.00 stale_plan=false"),
            "{resp}"
        );
        assert!(resp.contains("frozen chain 1:"), "{resp}");
        assert!(resp.contains("live chain 1:"), "{resp}");
        // Bad names mirror EXTRACT validation.
        assert!(run("EXPLAIN bad..name PING").starts_with("ERR bad graph name"));
    }

    #[test]
    fn check_verb_and_rejection_counters() {
        use crate::service::tests::{fig1_db, Q1};
        let service = GraphService::in_memory(fig1_db());
        let run = |line: &str| execute(&service, &parse_command(line).unwrap().unwrap());
        // A clean program: OK, nothing registered.
        assert_eq!(run(&format!("CHECK pre {Q1}")), "OK clean");
        assert!(run("STATS pre").starts_with("ERR unknown graph"));
        // A broken program: coded one-line diagnostics, still an OK reply
        // (the *check* succeeded), and no rejection counted.
        let bad = "Nodes(ID, N) :- Writer(ID, N). \
                   Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).";
        let resp = run(&format!("CHECK pre {bad}"));
        assert!(
            resp.starts_with("OK errors=1 warnings=0 | E001 unknown-relation at 1:17"),
            "{resp}"
        );
        assert!(run("STATS").contains("rejects=0"), "{}", run("STATS"));
        // Name validation mirrors EXTRACT.
        assert!(run("CHECK bad..name PING").starts_with("ERR bad graph name"));
        // A rejected EXTRACT is a coded ERR line and bumps the counters.
        let resp = run(&format!("EXTRACT bad {bad}"));
        assert!(
            resp.starts_with("ERR check failed: E001 unknown-relation at 1:17"),
            "{resp}"
        );
        let resp = run("STATS");
        assert!(resp.contains("rejects=1 reject_codes=E001:1"), "{resp}");
        // Parse failures count under E000.
        assert!(run("EXTRACT bad Nodes(").starts_with("ERR"));
        let resp = run("STATS");
        assert!(
            resp.contains("rejects=2 reject_codes=E000:1,E001:1"),
            "{resp}"
        );
        // METRICS carries the same counts, one member per error code.
        let metrics = run("METRICS");
        let exposition =
            graphgen_common::metrics::unescape_exposition(metrics.strip_prefix("OK ").unwrap());
        let members: Vec<&str> = exposition
            .lines()
            .filter(|l| l.starts_with("graphgen_check_rejects_total{"))
            .filter(|l| !l.ends_with(" 0"))
            .collect();
        assert_eq!(
            members,
            [
                "graphgen_check_rejects_total{code=\"E000\"} 1",
                "graphgen_check_rejects_total{code=\"E001\"} 1"
            ]
        );
    }

    /// The verb declaration is authoritative: every declared verb has a
    /// request line that parses to it, and `METRICS` times exactly the
    /// declared verbs, in declared order.
    #[test]
    fn every_declared_verb_parses_and_is_timed() {
        let lines = [
            (Verb::Extract, "EXTRACT g Nodes(ID) :- T(ID)."),
            (Verb::Check, "CHECK g Nodes(ID) :- T(ID)."),
            (Verb::Explain, "EXPLAIN g"),
            (Verb::Neighbors, "NEIGHBORS g 1"),
            (Verb::Degree, "DEGREE g 1"),
            (Verb::Analyze, "ANALYZE g degree"),
            (Verb::AnalyzeStatus, "ANALYZE STATUS"),
            (Verb::Apply, "APPLY T +1"),
            (Verb::Stats, "STATS"),
            (Verb::Compact, "COMPACT g"),
            (Verb::Metrics, "METRICS"),
            (Verb::Trace, "TRACE"),
            (Verb::Ping, "PING"),
            (Verb::Shutdown, "SHUTDOWN"),
        ];
        let declared: Vec<Verb> = lines.iter().map(|(v, _)| *v).collect();
        assert_eq!(declared, Verb::ALL, "one request line per declared verb");
        for (verb, line) in lines {
            let cmd = parse_command(line).unwrap().unwrap();
            assert_eq!(cmd.verb(), verb, "{line}");
        }
        let exposition = crate::obs::Obs::new(u64::MAX, 1).render();
        let timed: Vec<&str> = exposition
            .lines()
            .filter_map(|l| l.strip_prefix("graphgen_request_ns_count{verb=\""))
            .filter_map(|l| l.split('"').next())
            .collect();
        let labels: Vec<&str> = Verb::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(timed, labels);
    }

    #[test]
    fn execute_against_service() {
        use crate::service::tests::{fig1_db, Q1};
        let service = GraphService::in_memory(fig1_db());
        let run = |line: &str| execute(&service, &parse_command(line).unwrap().unwrap());
        assert_eq!(run("PING"), "OK pong");
        let resp = run(&format!("EXTRACT g {Q1}"));
        assert!(resp.starts_with("OK version=1 vertices=5"), "{resp}");
        let resp = run("NEIGHBORS g 4");
        assert!(resp.starts_with("OK version=1 n=4"), "{resp}");
        assert_eq!(run("DEGREE g 4"), "OK version=1 degree=4");
        let resp = run("APPLY AuthorPub +2,3");
        assert!(resp.starts_with("OK rows=1 g@2"), "{resp}");
        let resp = run("NEIGHBORS g 2");
        assert!(resp.starts_with("OK version=2 n=4"), "{resp}");
        // The log is the service's, not the graph's: its size sits on the
        // bare STATS head line only (0 here: nothing is persisted).
        let resp = run("STATS g");
        assert!(resp.contains("version=2"), "{resp}");
        assert!(!resp.contains("wal_bytes="), "{resp}");
        let resp = run("STATS");
        assert!(
            resp.starts_with("OK graphs=1 db_rows=14 wal_bytes=0 "),
            "{resp}"
        );
        assert_eq!(resp.matches("wal_bytes=").count(), 1, "{resp}");
        // Errors come back as ERR lines, not broken connections.
        assert!(run("NEIGHBORS nope 1").starts_with("ERR unknown graph"));
        assert!(run("NEIGHBORS g 999").starts_with("ERR"));
        assert!(run("STATS nope").starts_with("ERR"));
    }
}
