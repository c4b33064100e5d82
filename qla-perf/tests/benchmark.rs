//! The benchmark's own contract: every workload and metric named in
//! `BENCHMARK.json` is emitted by a run, and the pinned report digests are
//! the bytes the `qla-bench` CLI produces.
//!
//! These run the real workloads once each (about a minute in all):
//!
//! ```text
//! cargo test --release --manifest-path qla-perf/Cargo.toml
//! ```

use qla_bench::cli::{self, CliArgs};
use qla_perf::{factor128, fig7, gate, run, WORKLOADS};
use qla_report::Format;
use qla_serve::Json;
use std::collections::BTreeSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, section: &str) -> BTreeSet<String> {
    let Some(Json::Arr(entries)) = json.field(section) else {
        panic!("BENCHMARK.json lacks an array '{section}'");
    };
    entries
        .iter()
        .map(|e| {
            e.field("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_and_metric_in_benchmark_json_is_emitted() {
    let bench = benchmark_json();
    let workloads: BTreeSet<String> = WORKLOADS.iter().map(ToString::to_string).collect();
    assert_eq!(names(&bench, "workloads"), workloads);
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");

    for workload in WORKLOADS {
        let timed = run(workload, 2005, 0.0, false).expect("timed run starts");
        assert!(
            timed.gate.correct(),
            "{workload}: {:?}",
            timed.gate.failures
        );
        let emitted: BTreeSet<String> = timed.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(emitted, end_to_end, "{workload} end-to-end metrics");
        assert!(
            timed.metrics.iter().all(|m| m.value > 0.0 && m.samples > 0),
            "{workload}: end-to-end metrics must be positive"
        );

        let traced = run(workload, 2005, 0.0, true).expect("traced run starts");
        assert!(
            traced.gate.correct(),
            "{workload}: {:?}",
            traced.gate.failures
        );
        let emitted: BTreeSet<String> = traced.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(emitted, per_layer, "{workload} per-layer metrics");
        let (census, passes) = traced.spans.as_ref().expect("a traced run keeps its spans");
        assert!(!census.spans().is_empty() && !passes.spans().is_empty());

        let line = qla_perf::result_json(&traced);
        let parsed = Json::parse(&line).expect("the result line is JSON");
        assert_eq!(parsed.field("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn the_pinned_fig7_digest_is_the_cli_report() {
    let args = CliArgs::parse(["--jobs", "2"].iter().map(ToString::to_string)).expect("args");
    let report = cli::run_experiment("fig7-threshold", &args).expect("fig7 runs");
    let json = report.render(Format::Json);
    gate::check_digest("fig7 via the CLI", &json, fig7::PINNED_DIGEST).unwrap();
    // And the gate trips when the pin is wrong.
    assert!(gate::check_digest("fig7", &json, fig7::PINNED_DIGEST ^ 1).is_err());
}

#[test]
fn the_pinned_factor128_digest_is_the_cli_report() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let spec = dir.join("factor128.spec");
    std::fs::write(&spec, factor128::scenario().render()).expect("write spec");
    let args = CliArgs::parse(
        [
            "--trace",
            factor128::TRACE_PATH,
            "--spec",
            spec.to_str().expect("utf-8 path"),
        ]
        .iter()
        .map(ToString::to_string),
    )
    .expect("args");
    let report = cli::run_experiment("trace-replay", &args).expect("replay runs");
    let json = report.render(Format::Json);
    gate::check_digest("factor128 via the CLI", &json, factor128::PINNED_DIGEST).unwrap();
}
