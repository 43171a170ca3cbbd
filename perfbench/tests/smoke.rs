//! Smoke test: every workload at a tiny size, in both modes, prints every
//! metric `BENCHMARK.json` names, with its unit, and fails no check.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use zen2_sim::Json;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of the manifest.
fn metrics(manifest: &Json, section: &str) -> Vec<(String, String)> {
    let entries = manifest.get(section).and_then(Json::items).expect("metric section");
    entries
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("metric field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload at the tiny size and returns the parsed result line.
fn run(workload: &str, trace: u8) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark runs");
    assert!(output.status.success(), "{workload} --trace {trace}: {}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_passes_its_checks() {
    let manifest = manifest();
    let workloads = manifest.get("workloads").and_then(Json::items).expect("workloads");
    assert_eq!(workloads.len(), 2);
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let expected = metrics(&manifest, section);
        for workload in workloads {
            let name = workload.get("name").and_then(Json::as_str).expect("workload name");
            let result = run(name, trace);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Ok(true), "{name}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Ok(0), "{name}");
            assert!(result.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1);
            let printed = result.get("metrics").expect("metrics");
            let Json::Obj(fields) = printed else { panic!("metrics is an object") };
            assert_eq!(fields.len(), expected.len(), "{name} --trace {trace}: metric count");
            for (metric, unit) in &expected {
                let entry = printed.get(metric).unwrap_or_else(|_| panic!("{name}: {metric}"));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Ok(unit.as_str()), "{metric}");
                let value = entry.get("value").and_then(Json::as_f64).expect("numeric value");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            if trace == 1 {
                let failed = printed.get("failed_frac").and_then(|m| m.get("value"));
                assert_eq!(failed.and_then(Json::as_f64), Ok(0.0), "{name}: failed_frac");
            }
        }
    }
}
