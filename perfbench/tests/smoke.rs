//! Smoke test: every workload at a tiny trace size. Every metric named
//! in `BENCHMARK.json` must be present with its unit, the output digest
//! must repeat for a fixed seed, and no operation may fail.

use std::path::Path;
use std::process::Command;

use bmp_core::json::{self, ObjectExt, Value};

const OPS: &str = "2000";
const SEED: &str = "7";

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    json::parse(&text).unwrap()
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let bench = benchmark();
    let metrics = bench.as_object("bench").unwrap().get(section).unwrap();
    metrics
        .as_array(section)
        .unwrap()
        .iter()
        .map(|m| {
            let m = m.as_object("metric").unwrap();
            (
                m.get_string("name").unwrap().to_string(),
                m.get_string("unit").unwrap().to_string(),
            )
        })
        .collect()
}

/// Runs one workload; returns the digest line and the parsed result.
fn run(workload: &str, trace: &str) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0"])
        .args(["--trace", trace, "--ops", OPS])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest: "))
        .unwrap_or_else(|| panic!("{workload}: no digest line\n{stdout}"))
        .to_string();
    let last = stdout.lines().last().unwrap();
    (digest, json::parse(last).unwrap())
}

/// Asserts a clean result carrying exactly the declared metrics.
fn check(workload: &str, result: &Value, section: &str) {
    let r = result.as_object("result").unwrap();
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert_eq!(r.get_u64("failed").unwrap(), 0, "{workload}");
    assert!(r.get_u64("attempted").unwrap() >= 1, "{workload}");
    let metrics = r.get("metrics").unwrap().as_object("metrics").unwrap();
    let declared = declared(section);
    assert_eq!(metrics.len(), declared.len(), "{workload} {section}");
    for (name, unit) in declared {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no metric {name}"))
            .as_object(&name)
            .unwrap();
        assert_eq!(m.get_string("unit").unwrap(), unit, "{workload} {name}");
        let value = m.get("value").unwrap();
        assert!(
            matches!(value, Value::Float(_) | Value::UInt(_) | Value::Int(_)),
            "{workload} {name}: {value:?}"
        );
    }
}

fn smoke(workload: &str) {
    let (digest, plain) = run(workload, "0");
    check(workload, &plain, "end_to_end");
    let (again, _) = run(workload, "0");
    assert_eq!(digest, again, "{workload}: digest differs between runs");
    let (traced_digest, traced) = run(workload, "1");
    check(workload, &traced, "per_layer");
    assert_eq!(digest, traced_digest, "{workload}: traced digest differs");
    let error_rate = traced
        .as_object("result")
        .unwrap()
        .get("metrics")
        .unwrap()
        .as_object("metrics")
        .unwrap()
        .get("error_rate")
        .unwrap()
        .as_object("error_rate")
        .unwrap()
        .get("value")
        .unwrap()
        .as_f64("error_rate")
        .unwrap();
    assert_eq!(error_rate, 0.0, "{workload}");
}

#[test]
fn workloads_are_the_declared_ones() {
    let bench = benchmark();
    let names: Vec<String> = bench
        .as_object("bench")
        .unwrap()
        .get("workloads")
        .unwrap()
        .as_array("workloads")
        .unwrap()
        .iter()
        .map(|w| {
            w.as_object("w")
                .unwrap()
                .get_string("name")
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(names, ["suite", "cells", "sweep", "serve"]);
}

#[test]
fn suite() {
    smoke("suite");
}

#[test]
fn cells() {
    smoke("cells");
}

#[test]
fn sweep() {
    smoke("sweep");
}

#[test]
fn serve() {
    smoke("serve");
}
