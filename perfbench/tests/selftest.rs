//! Self-test of the benchmark at tiny sizes: every metric prints with
//! its unit, a second seed gives the same metric set with no failures,
//! and deliberate faults (a wrong reference, an unknown session) show
//! up as failed operations.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! It builds the release `gbc` binary of the enclosing repository first.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use gbc_telemetry::Json;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| repo().join("target"), PathBuf::from)
}

/// The release `gbc` binary, built once per test process.
fn gbc() -> &'static PathBuf {
    static GBC: OnceLock<PathBuf> = OnceLock::new();
    GBC.get_or_init(|| {
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "gbc-cli",
                "--manifest-path",
            ])
            .arg(repo().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", target_dir())
            .status()
            .expect("run cargo");
        assert!(status.success(), "building gbc failed");
        target_dir().join("release").join("gbc")
    })
}

/// Declared metrics of `BENCHMARK.json` section `key`: (name, unit).
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

struct Run {
    report: Json,
    result: Json,
}

impl Run {
    fn fail_frac(&self) -> f64 {
        match self.report.get("report").and_then(|r| r.get("fail_frac")) {
            Some(Json::Float(x)) => *x,
            Some(Json::UInt(x)) => *x as f64,
            Some(Json::Int(x)) => *x as f64,
            other => panic!("fail_frac missing: {other:?}"),
        }
    }

    fn correct(&self) -> bool {
        matches!(self.result.get("correct"), Some(Json::Bool(true)))
    }

    fn metric_names(&self) -> Vec<String> {
        names(self.result.get("metrics"))
    }

    fn report_names(&self) -> Vec<String> {
        names(self.report.get("report").and_then(|r| r.get("metrics")))
    }
}

fn names(metrics: Option<&Json>) -> Vec<String> {
    match metrics {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics missing: {other:?}"),
    }
}

fn bench(name: &str, workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let work = target_dir().join("perfbench-selftest").join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--gbc")
        .arg(gbc())
        .arg("--work")
        .arg(&work)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: expected a report and a result line:\n{stdout}");
    let parse = |l: &str| Json::parse(l).unwrap_or_else(|e| panic!("{workload}: {e}: {l}"));
    Run { report: parse(lines[lines.len() - 2]), result: parse(lines[lines.len() - 1]) }
}

const WORKLOADS: [&str; 3] = ["cli-prim", "serve-run", "serve-mixed"];

fn assert_prints(run: &Run, workload: &str, metrics: &[(String, String)]) {
    for (name, unit) in metrics {
        let m = run.result.get("metrics").and_then(|m| m.get(name));
        let m = m.unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{workload}: {name}");
        assert!(
            matches!(m.get("value"), Some(Json::Float(_) | Json::UInt(_) | Json::Int(_))),
            "{workload}: `{name}` has no numeric value"
        );
    }
}

#[test]
fn every_end_to_end_metric_prints_with_its_unit() {
    let metrics = declared("end_to_end");
    for w in WORKLOADS {
        let run = bench(&format!("e2e-{w}"), w, 1, false, &[]);
        assert!(run.correct(), "{w}: not correct");
        assert_eq!(run.fail_frac(), 0.0, "{w}");
        assert_eq!(run.metric_names().len(), metrics.len(), "{w}: exactly the declared metrics");
        assert_prints(&run, w, &metrics);
    }
}

#[test]
fn every_per_layer_metric_prints_in_the_traced_run() {
    let metrics = declared("per_layer");
    for w in WORKLOADS {
        let run = bench(&format!("layers-{w}"), w, 1, true, &[]);
        assert!(run.correct(), "{w}: not correct");
        assert_eq!(run.metric_names().len(), metrics.len(), "{w}: exactly the declared metrics");
        assert_prints(&run, w, &metrics);
    }
}

#[test]
fn a_second_seed_gives_the_same_metric_set_and_no_failures() {
    for w in WORKLOADS {
        let a = bench(&format!("seed-a-{w}"), w, 1, false, &[]);
        let b = bench(&format!("seed-b-{w}"), w, 2, false, &[]);
        assert_eq!(a.metric_names(), b.metric_names(), "{w}");
        assert_eq!(a.report_names(), b.report_names(), "{w}");
        assert_eq!(b.fail_frac(), 0.0, "{w}");
        assert!(b.correct(), "{w}");
    }
}

#[test]
fn a_wrong_reference_raises_fail_frac() {
    for w in WORKLOADS {
        let run = bench(&format!("wrong-{w}"), w, 1, false, &["--inject", "wrong-reference"]);
        assert!(run.fail_frac() > 0.0, "{w}: a wrong reference went unnoticed");
        assert!(!run.correct(), "{w}");
    }
}

#[test]
fn an_unknown_session_raises_fail_frac() {
    for w in ["serve-run", "serve-mixed"] {
        let run = bench(&format!("unknown-{w}"), w, 1, false, &["--inject", "unknown-session"]);
        assert!(run.fail_frac() > 0.0, "{w}: a request to an unknown session went unnoticed");
        assert!(!run.correct(), "{w}");
    }
}
