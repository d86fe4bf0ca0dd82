//! Self-check of the benchmark's manifest and harness: `BENCHMARK.json`
//! obeys the driver's limits and declares exactly the names `graphbench`
//! emits, a smoke run of every workload emits them, and a failing output
//! check fails the run.
//!
//! Run with `cargo test --release --offline --manifest-path graphbench/Cargo.toml`.

use graphbench::manifest::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

// ---------------------------------------------------------------------------
// A JSON reader just large enough for the manifest and the result line
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value();
        p.skip_ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing bytes after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map
                .get(key)
                .unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("`{key}` looked up in non-object {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(map) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&byte),
            "expected `{}` at byte {}",
            byte as char,
            self.pos
        );
        self.pos += 1;
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += word.len();
        value
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.bytes.get(self.pos).copied() {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes[self.pos] == b'}' {
                    self.pos += 1;
                    return Json::Object(map);
                }
                loop {
                    self.skip_ws();
                    let key = self.string();
                    self.expect(b':');
                    let value = self.value();
                    assert!(
                        map.insert(key.clone(), value).is_none(),
                        "duplicate key `{key}`"
                    );
                    self.skip_ws();
                    match self.bytes[self.pos] {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Json::Object(map);
                        }
                        other => panic!("unexpected `{}` in object", other as char),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes[self.pos] == b']' {
                    self.pos += 1;
                    return Json::Array(items);
                }
                loop {
                    items.push(self.value());
                    self.skip_ws();
                    match self.bytes[self.pos] {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Json::Array(items);
                        }
                        other => panic!("unexpected `{}` in array", other as char),
                    }
                }
            }
            Some(b'"') => Json::String(self.string()),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
            None => panic!("unexpected end of JSON"),
        }
    }

    /// The manifest and the result line use no escapes beyond `\"` and `\\`.
    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = Vec::new();
        loop {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(out).expect("UTF-8 string");
                }
                b'\\' => {
                    let escaped = self.bytes[self.pos + 1];
                    assert!(matches!(escaped, b'"' | b'\\'), "unsupported escape");
                    out.push(escaped);
                    self.pos += 2;
                }
                byte => {
                    out.push(byte);
                    self.pos += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The manifest
// ---------------------------------------------------------------------------

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("graphbench sits in the repository root")
}

fn manifest() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    Json::parse(&text)
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn check_metrics(declared: &[Json], emitted: &[MetricDef], keys: &[&str], names: &mut Vec<String>) {
    assert_eq!(
        declared.len(),
        emitted.len(),
        "BENCHMARK.json and manifest.rs declare different numbers of metrics"
    );
    for (json, def) in declared.iter().zip(emitted) {
        assert_eq!(json.keys(), keys, "keys of metric {json:?}");
        let name = json.get("name").str();
        assert!(is_name(name), "bad metric name `{name}`");
        assert!(is_unit(json.get("unit").str()), "bad unit of `{name}`");
        assert!(
            matches!(json.get("better").str(), "lower" | "higher"),
            "`better` of `{name}`"
        );
        assert_eq!(name, def.name, "metric order differs from manifest.rs");
        assert_eq!(json.get("unit").str(), def.unit, "unit of `{name}`");
        names.push(name.to_string());
    }
}

#[test]
fn benchmark_json_obeys_the_contract_and_matches_the_code() {
    let m = manifest();
    assert_eq!(
        m.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let paths: Vec<&str> = m.get("paths").array().iter().map(Json::str).collect();
    assert!((1..=16).contains(&paths.len()));
    for path in &paths {
        assert!(path.len() <= 200 && !path.starts_with('/') && !path.contains(".."));
        assert!(path
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-' | b'/')));
        assert!(
            repo_root().join(path).is_dir(),
            "`{path}` is not a directory"
        );
    }
    assert_eq!(paths, ["graphbench"]);

    let command: Vec<&str> = m.get("command").array().iter().map(Json::str).collect();
    assert!((1..=32).contains(&command.len()));
    for arg in &command {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    assert!(command.contains(&"graphbench/Cargo.toml"));

    let seconds = m.get("run_seconds").number();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names: Vec<String> = Vec::new();
    let workloads = m.get("workloads").array();
    assert!((2..=8).contains(&workloads.len()));
    for (w, expected) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(w.keys(), ["name", "why"]);
        assert_eq!(w.get("name").str(), expected);
        let why = w.get("why").str();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why of {expected}"
        );
        names.push(expected.to_string());
    }
    assert_eq!(workloads.len(), WORKLOADS.len());

    let end_to_end = m.get("end_to_end").array();
    assert!((1..=16).contains(&end_to_end.len()));
    check_metrics(
        end_to_end,
        END_TO_END,
        &["better", "bound", "name", "unit"],
        &mut names,
    );
    for metric in end_to_end {
        let bound = metric.get("bound").number();
        assert!(bound > 0.0 && bound <= 0.25, "bound of {metric:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|metric| metric.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    let largest = end_to_end
        .iter()
        .map(|metric| metric.get("bound").number())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").number(),
        largest,
        "setup_s has the largest bound"
    );

    let per_layer = m.get("per_layer").array();
    assert!((1..=128).contains(&per_layer.len()));
    check_metrics(
        per_layer,
        PER_LAYER,
        &["better", "name", "unit"],
        &mut names,
    );

    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

// ---------------------------------------------------------------------------
// The harness, on tiny data
// ---------------------------------------------------------------------------

fn graphbench(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_graphbench"))
        .args(args)
        .output()
        .expect("run graphbench");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    (output.status.success(), stdout)
}

fn last_line_json(stdout: &str) -> Json {
    Json::parse(stdout.trim_end().lines().last().expect("output"))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    for workload in WORKLOADS {
        for (trace, declared) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let (ok, stdout) = graphbench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let result = last_line_json(&stdout);
            assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
            assert!(result.get("attempted").number() >= 1.0);
            assert_eq!(result.get("failed").number(), 0.0);
            let mut expected: Vec<&str> = declared.iter().map(|d| d.name).collect();
            expected.sort_unstable();
            assert_eq!(
                result.get("metrics").keys(),
                expected,
                "{workload} --trace {trace}"
            );
            for def in declared {
                let metric = result.get("metrics").get(def.name);
                assert_eq!(metric.keys(), ["unit", "value"]);
                assert_eq!(metric.get("unit").str(), def.unit);
                let value = metric.get("value").number();
                assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
                if trace == "0" {
                    assert!(
                        value > 0.0,
                        "{workload}: end-to-end {} is {value}",
                        def.name
                    );
                }
            }
        }
    }
}

#[test]
fn a_failing_output_check_fails_the_run() {
    for workload in WORKLOADS {
        let (ok, stdout) = graphbench(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
            "--inject-check-failure",
        ]);
        assert!(!ok, "{workload} exited 0 with a failing output check");
        assert_eq!(last_line_json(&stdout).get("correct"), &Json::Bool(false));
        assert!(stdout.contains("OUTPUT CHECK FAILED"), "{stdout}");
    }
}

#[test]
fn all_prints_every_metric_and_the_tracing_overhead() {
    let (ok, stdout) = graphbench(&["--all", "--smoke", "--trace"]);
    assert!(ok, "--all --smoke --trace failed:\n{stdout}");
    for workload in WORKLOADS {
        assert!(
            stdout.contains(&format!("== {workload} ")),
            "{workload} missing"
        );
    }
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            stdout.contains(&format!("  {:<32} ", def.name)),
            "{} missing",
            def.name
        );
    }
    assert_eq!(stdout.matches("tracing overhead").count(), WORKLOADS.len());
    let (ok, _) = graphbench(&["--all", "--smoke", "--inject-check-failure"]);
    assert!(!ok, "--all exited 0 with failing output checks");
}
