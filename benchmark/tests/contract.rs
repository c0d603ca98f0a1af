//! The benchmark against its own contract: `BENCHMARK.json` lists exactly
//! what the two modes print, every end-to-end metric is a non-zero number
//! on every workload, counts repeat exactly, and the sources name nothing
//! that ROADMAP item 3 is about to delete.
//!
//! These tests run the real binary in `--smoke` mode (fixed operation
//! counts, a second or two per run).

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let v = Self::value(bytes, &mut at);
        Self::space(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing input after JSON value");
        v
    }

    fn space(b: &[u8], at: &mut usize) {
        while *at < b.len() && b[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn eat(b: &[u8], at: &mut usize, c: u8) {
        Self::space(b, at);
        assert_eq!(b[*at], c, "expected '{}' at byte {at}", c as char);
        *at += 1;
    }

    fn string(b: &[u8], at: &mut usize) -> String {
        Self::eat(b, at, b'"');
        let start = *at;
        while b[*at] != b'"' {
            assert_ne!(b[*at], b'\\', "escapes are not used in these documents");
            *at += 1;
        }
        *at += 1;
        String::from_utf8(b[start..*at - 1].to_vec()).expect("utf-8")
    }

    fn value(b: &[u8], at: &mut usize) -> Json {
        Self::space(b, at);
        match b[*at] {
            b'{' => {
                *at += 1;
                let mut m = BTreeMap::new();
                Self::space(b, at);
                while b[*at] != b'}' {
                    let k = Self::string(b, at);
                    Self::eat(b, at, b':');
                    assert!(m.insert(k, Self::value(b, at)).is_none(), "duplicate key");
                    Self::space(b, at);
                    if b[*at] == b',' {
                        *at += 1;
                        Self::space(b, at);
                    }
                }
                *at += 1;
                Json::Obj(m)
            }
            b'[' => {
                *at += 1;
                let mut v = Vec::new();
                Self::space(b, at);
                while b[*at] != b']' {
                    v.push(Self::value(b, at));
                    Self::space(b, at);
                    if b[*at] == b',' {
                        *at += 1;
                        Self::space(b, at);
                    }
                }
                *at += 1;
                Json::Arr(v)
            }
            b'"' => Json::Str(Self::string(b, at)),
            b't' => {
                *at += 4;
                Json::Bool(true)
            }
            b'f' => {
                *at += 5;
                Json::Bool(false)
            }
            b'n' => {
                *at += 4;
                Json::Null
            }
            _ => {
                let start = *at;
                while *at < b.len()
                    && matches!(b[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *at += 1;
                }
                let s = std::str::from_utf8(&b[start..*at]).expect("utf-8");
                Json::Num(s.parse().unwrap_or_else(|_| panic!("not a number: '{s}'")))
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key '{key}'")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

const WORKLOADS: [&str; 4] = ["scan_mem", "point_mem", "ingest_durable", "net_mixed"];

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// Runs the benchmark in smoke mode and returns its parsed result line.
fn smoke(workload: &str, seed: u64, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_dgl-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}:\n{stdout}"
    );
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    result
}

/// `name -> unit` of a contract list or of a result's `metrics`.
fn listed(list: &Json) -> BTreeMap<String, String> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn printed(result: &Json) -> BTreeMap<String, String> {
    let metrics = result.get("metrics");
    metrics
        .keys()
        .into_iter()
        .map(|k| {
            assert_eq!(metrics.get(k).keys(), ["unit", "value"]);
            (k.to_string(), metrics.get(k).get("unit").str().to_string())
        })
        .collect()
}

fn value(result: &Json, name: &str) -> f64 {
    result.get("metrics").get(name).get("value").num()
}

#[test]
fn contract_file_has_the_agreed_shape() {
    let c = contract();
    assert_eq!(
        c.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command: Vec<&str> = c.get("command").arr().iter().map(Json::str).collect();
    assert_eq!(
        command,
        [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--"
        ]
    );
    assert_eq!(c.get("paths").arr(), [Json::Str("benchmark".into())]);
    assert_eq!(c.get("run_seconds").num(), 24.0);
    let names: Vec<&str> = c
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in c.get("workloads").arr() {
        assert_eq!(w.keys(), ["name", "why"]);
        assert!(w.get("why").str().len() <= 200 && !w.get("why").str().contains('\n'));
    }
    let e2e = c.get("end_to_end").arr();
    assert_eq!(e2e.len(), 12);
    let mut setup_bound = 0.0;
    for m in e2e {
        assert_eq!(m.keys(), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25);
        if m.get("name").str() == "setup_s" {
            assert_eq!((m.get("unit").str(), m.get("better").str()), ("s", "lower"));
            setup_bound = bound;
        }
    }
    assert!(
        e2e.iter().all(|m| m.get("bound").num() <= setup_bound),
        "setup_s has the largest bound"
    );
    let layers = c.get("per_layer").arr();
    assert!(layers.len() <= 128);
    for m in e2e.iter().chain(layers) {
        assert!(matches!(m.get("better").str(), "lower" | "higher"));
        let name = m.get("name").str();
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
        );
        let unit = m.get("unit").str();
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch))
        );
    }
}

/// One test for everything that runs the traced smoke: a traced run
/// rewrites `out/trace-<workload>.jsonl`, so two tests doing it side by side
/// would read each other's half-written files.
#[test]
fn both_modes_print_the_contract_counts_repeat_and_the_instrument_is_clean() {
    const COUNTS: [&str; 9] = [
        "lockmgr.requests_per_txn",
        "lockmgr.requests_per_scan",
        "lockmgr.requests_per_point",
        "lockmgr.requests_per_insert",
        "lockmgr.requests_per_delete",
        "rtree.hits_per_search",
        "wal.records_per_txn",
        "wal.bytes_per_txn",
        "net.requests_per_txn",
    ];
    let c = contract();
    for w in WORKLOADS {
        let end_to_end = smoke(w, 42, 0);
        assert_eq!(
            printed(&end_to_end),
            listed(c.get("end_to_end")),
            "{w}, --trace 0"
        );
        for name in listed(c.get("end_to_end")).keys() {
            let v = value(&end_to_end, name);
            assert!(
                v.is_finite() && v > 0.0,
                "{w}: {name} = {v}; end-to-end metrics are never 0"
            );
        }

        let a = smoke(w, 7, 1);
        assert_eq!(printed(&a), listed(c.get("per_layer")), "{w}, --trace 1");
        let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-");
        let spans = std::fs::read_to_string(format!("{trace}{w}.jsonl"))
            .expect("the traced run writes its spans");
        let first = Json::parse(spans.lines().next().expect("at least one span"));
        assert_eq!(
            first.keys(),
            ["end_ns", "hits", "id", "name", "parent", "start_ns", "txn"]
        );
        assert_eq!(first.get("name").str(), "begin");

        let b = smoke(w, 7, 1);
        for name in COUNTS {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{w}: {name} must repeat exactly for one seed"
            );
        }
        for must_be_zero in [
            "lockmgr.waits",
            "core.exec_retries",
            "server.session_aborts",
        ] {
            assert_eq!(value(&a, must_be_zero), 0.0, "{w}: {must_be_zero}");
        }
        assert!(value(&a, "lockmgr.requests_per_txn") > 0.0);
        assert!(value(&a, "trace.overhead_share").is_finite());
        let durable = w == "ingest_durable";
        for wal in [
            "wal.records_per_txn",
            "wal.bytes_per_txn",
            "wal.fsyncs_per_commit",
            "wal.fsync_mean_us",
        ] {
            assert_eq!(
                value(&a, wal) > 0.0,
                durable,
                "{w}: {wal} is non-zero exactly on the durable workload"
            );
        }
        assert_eq!(value(&a, "durability.recover_s") > 0.0, durable);
        assert_eq!(value(&a, "net.requests_per_txn") > 0.0, w == "net_mixed");
        assert_eq!(value(&a, "proto.req_encode_ns") > 0.0, w == "net_mixed");
        if w == "point_mem" {
            assert_eq!(value(&a, "hashidx.hit_rate"), 1.0);
        }
    }
}

#[test]
fn bad_arguments_end_without_a_result_line() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seconds", "24"],
        &["--trace", "2", "--workload", "scan_mem"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dgl-benchmark"))
            .args(args)
            .output()
            .expect("run");
        assert!(!out.status.success());
        assert!(
            out.stdout.is_empty(),
            "no result line on a refused invocation"
        );
    }
}

/// The benchmark must survive ROADMAP item 3 (one telemetry sink, no
/// keep-for-baseline modes) and stay independent of the paper-table
/// harness in `crates/bench`: its sources may not name any of these.
#[test]
fn sources_name_no_mode_no_legacy_telemetry_and_no_bench_crate_item() {
    const FORBIDDEN: [&str; 22] = [
        "OpStats",
        "op_stats",
        "exec_stats",
        "LockStats",
        "lock_stats",
        "drain_trace",
        "TraceEvent",
        "WritePathMode",
        "write_path",
        "MaintenanceMode",
        "MaintenanceConfig",
        "InsertPolicy",
        "hash_reads",
        "obs_recording",
        "global_detector",
        "coarse_external_granule",
        "buffer_pages",
        "DurabilityConfig",
        "SyncPolicy::Batch",
        "dgl_bench::",
        "crates/bench",
        "dgl_workload",
    ];
    let root = env!("CARGO_MANIFEST_DIR");
    let mut files = vec![format!("{root}/Cargo.toml")];
    for entry in std::fs::read_dir(format!("{root}/src")).expect("src/") {
        files.push(entry.expect("entry").path().display().to_string());
    }
    assert!(files.len() >= 7);
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        for token in FORBIDDEN {
            // `gen.rs` explains in prose why it does not use the
            // repository's own stream generator; that one mention is the
            // only exception.
            let allowed = token == "dgl_workload"
                && file.ends_with("gen.rs")
                && text.matches(token).count() == 1;
            assert!(allowed || !text.contains(token), "{file} names `{token}`");
        }
    }
}
