//! A committed factor-128-scale instruction trace, replayed end to end.
//!
//! The trace-replay experiment's built-in programs are generated fresh on
//! every run; this test pins one *committed* artefact at the scale of the
//! paper's headline workload — the 128-bit QCLA carry-lookahead adder
//! that dominates Shor-128 (512 Toffolis across 777 qubits) — and proves
//! the `--trace` CLI path replays it deterministically and byte for byte:
//! the JSON report under the 1,024-qubit spec is pinned as
//! `golden/factor128-replay.json`; the discrete-event replay behind it is
//! pinned at its event count. The fixtures regenerate with the usual flow:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qla-bench --test factor128_trace
//! ```

use qla_bench::cli::{self, CliArgs};
use qla_bench::experiments::sim_support::{machine_mesh, sim_config};
use qla_report::{Format, Report, Value};
use qla_trace::{schedule_trace, trace_work_items, Placement, Trace, TraceTraffic};
use std::path::PathBuf;

/// The committed factor-128-scale trace next to this test.
fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/factor128-qcla-adder.trace")
}

const FIXTURE: &str = include_str!("data/factor128-qcla-adder.trace");

/// The pinned JSON report of the replay under the 1,024-qubit spec.
const REPORT_GOLDEN: &str = include_str!("golden/factor128-replay.json");

/// The unsigned value in the report's only row under column `name`.
fn report_value(report: &Report, name: &str) -> Option<u64> {
    let index = report.columns.iter().position(|c| c.name == name)?;
    match report.rows.first()?.get(index)? {
        Value::UInt(v) => Some(*v),
        Value::Int(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

#[test]
fn the_committed_trace_is_the_canonical_128_bit_adder() {
    let generated = qla_trace::generators::qcla_adder(128).render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(fixture_path(), &generated).expect("rewrite fixture");
        return;
    }
    assert_eq!(
        FIXTURE, generated,
        "factor128-qcla-adder.trace drifted from qcla_adder(128); regenerate with \
         UPDATE_GOLDEN=1 cargo test -p qla-bench --test factor128_trace"
    );
    // The committed artefact parses back to the same canonical form.
    let parsed = qla_trace::Trace::parse(FIXTURE).expect("committed trace parses");
    assert_eq!(parsed.render(), FIXTURE);
}

/// The replay's scenario: the 777-qubit adder does not fit the 400-qubit
/// default profile, so it runs under `expected` with 1,024 logical qubits.
fn factor128_spec() -> qla_core::MachineSpec {
    let mut spec = qla_core::MachineSpec::expected();
    spec.name = "factor128".to_string();
    spec.logical_qubits = 1024;
    spec
}

#[test]
fn the_replay_processes_every_pinned_event() {
    // The replay stage by stage: lower the parsed trace onto the mesh,
    // plan it, and run the discrete-event sim over the planned work items.
    // Every event counts, so a change to the event loop that drops, adds
    // or merges one shows here.
    let spec = factor128_spec();
    let machine = spec.machine().expect("the factor-128 spec builds");
    let mesh = machine_mesh(&machine);
    let cfg = sim_config(&machine, &spec.sweep.sim, None);
    let trace = Trace::parse(FIXTURE).expect("committed trace parses");
    let placement = Placement::spread(&mesh, &trace);
    let traffic = TraceTraffic::lower(&trace, &mesh, &placement);
    let plan = schedule_trace(&traffic, &mesh);
    let items = trace_work_items(&traffic, &plan, cfg.window);
    let outcome = qla_sim::simulate(&mesh, &cfg, &items);
    assert_eq!(outcome.events, 3_128_514);
    assert_eq!(outcome.windows_used(cfg.window), 270);
}

#[test]
fn the_committed_trace_replays_through_the_cli_at_any_job_count() {
    // The replay runs under the factor-128-sized scenario spec, through
    // the same `--spec` path a user would take for this workload.
    let spec = factor128_spec();
    let dir = std::env::temp_dir().join("qla-factor128-trace-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec_path = dir.join("factor128.spec");
    std::fs::write(&spec_path, spec.render()).expect("write spec");
    let spec_path = spec_path.to_str().expect("utf-8 path").to_string();

    let path = fixture_path();
    let path = path.to_str().expect("utf-8 path");
    let args = |jobs: &str| {
        CliArgs::parse(
            ["--trace", path, "--jobs", jobs, "--spec", &spec_path]
                .iter()
                .map(ToString::to_string),
        )
        .expect("args parse")
    };
    let sequential = cli::run_experiment("trace-replay", &args("1")).expect("replay runs");
    assert_eq!(sequential.name, "trace-replay");
    assert_eq!(sequential.rows.len(), 1, "one row for the one trace file");
    let rendered = sequential.render(Format::Text);
    assert!(rendered.contains("qcla-adder-128"), "{rendered}");
    // The greedy plan and the discrete-event replay of the adder: 4,608
    // channel requests in 45 analytic windows, spread over 270 simulated
    // ones.
    assert_eq!(report_value(&sequential, "requests"), Some(4608));
    assert_eq!(report_value(&sequential, "analytic windows"), Some(45));
    assert_eq!(report_value(&sequential, "sim windows"), Some(270));
    let json = sequential.render(Format::Json);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let golden =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/factor128-replay.json");
        std::fs::write(golden, &json).expect("rewrite golden");
    } else {
        assert_eq!(
            json, REPORT_GOLDEN,
            "factor128-replay.json drifted; regenerate with \
             UPDATE_GOLDEN=1 cargo test -p qla-bench --test factor128_trace"
        );
    }

    let parallel = cli::run_experiment("trace-replay", &args("4")).expect("replay runs");
    assert_eq!(
        json,
        parallel.render(Format::Json),
        "--jobs changed bytes replaying the committed trace"
    );
    assert_eq!(
        sequential.render(Format::Text),
        parallel.render(Format::Text),
        "--jobs changed text bytes replaying the committed trace"
    );
}
