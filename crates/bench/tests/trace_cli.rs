//! Integration tests for trace files as first-class CLI inputs:
//! `qla-bench run trace-replay --trace FILE` must replay the named files
//! through the same pipeline (and report shape) as the built-in programs,
//! stay byte-stable across job counts, and surface `qla-trace`'s typed,
//! line-anchored errors as loud CLI failures naming the offending file.

use qla_bench::cli::{self, CliArgs};
use qla_report::Format;
use std::path::PathBuf;

fn args(extra: &[&str]) -> CliArgs {
    CliArgs::parse(extra.iter().map(ToString::to_string)).expect("args parse")
}

/// The committed sample trace next to this test.
fn sample() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/ghz-toffoli-demo.trace")
}

fn sample_str() -> String {
    sample().to_str().expect("utf-8 path").to_string()
}

#[test]
fn trace_flag_parses_and_repeats() {
    let cli = args(&["--trace", "a.trace", "--trace", "b.trace"]);
    assert_eq!(
        cli.traces,
        vec![PathBuf::from("a.trace"), PathBuf::from("b.trace")]
    );
    // Malformed spellings are parse errors, not silent defaults.
    assert!(args_err(&["--trace"]).contains("--trace"));
    assert!(args_err(&["--trace", ""]).contains("must not be empty"));
}

fn args_err(extra: &[&str]) -> String {
    CliArgs::parse(extra.iter().map(ToString::to_string)).expect_err("should fail")
}

#[test]
fn sample_trace_replays_end_to_end() {
    let sample = sample_str();
    let cli = args(&["--trace", &sample]);
    let report = cli::run_experiment("trace-replay", &cli).expect("replay runs");
    assert_eq!(report.name, "trace-replay");
    assert_eq!(report.rows.len(), 1, "one row per trace file");
    let rendered = report.render(Format::Text);
    assert!(rendered.contains("ghz-toffoli-demo"), "{rendered}");
    // The report carries the scenario header like every registry run.
    assert_eq!(report.scenario.as_ref().unwrap().profile, "expected");
}

#[test]
fn repeated_traces_give_one_row_each_in_flag_order_and_jobs_do_not_change_bytes() {
    let sample = sample_str();
    let sequential = args(&["--trace", &sample, "--trace", &sample, "--jobs", "1"]);
    let parallel = args(&["--trace", &sample, "--trace", &sample, "--jobs", "4"]);
    let seq = cli::run_experiment("trace-replay", &sequential).expect("sequential");
    let par = cli::run_experiment("trace-replay", &parallel).expect("parallel");
    assert_eq!(seq.rows.len(), 2);
    assert_eq!(seq.rows[0], seq.rows[1], "same file, same replay");
    assert_eq!(
        seq.render(Format::Json),
        par.render(Format::Json),
        "--jobs changed bytes under --trace"
    );
}

#[test]
fn a_missing_trace_file_fails_loudly_naming_the_file() {
    let cli = args(&["--trace", "/no/such/program.trace"]);
    let err = cli::run_experiment("trace-replay", &cli).expect_err("missing file");
    assert!(err.contains("cannot read trace"), "{err}");
    assert!(err.contains("/no/such/program.trace"), "{err}");
}

#[test]
fn a_malformed_trace_surfaces_the_typed_line_anchored_error() {
    let dir = std::env::temp_dir().join("qla-trace-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.trace");
    std::fs::write(
        &bad,
        "format_version = 1\nname = broken\nqubit a\nfrobnicate a\n",
    )
    .unwrap();
    let cli = args(&["--trace", bad.to_str().unwrap()]);
    let err = cli::run_experiment("trace-replay", &cli).expect_err("malformed file");
    assert!(err.contains("bad.trace"), "{err}");
    assert!(err.contains("trace line 4"), "{err}");
    assert!(err.contains("unknown op 'frobnicate'"), "{err}");

    // A bad second file fails the whole run before any replay starts.
    let sample = sample_str();
    let cli = args(&["--trace", &sample, "--trace", bad.to_str().unwrap()]);
    let err = cli::run_experiment("trace-replay", &cli).expect_err("bad second file");
    assert!(err.contains("trace line 4"), "{err}");
}

#[test]
fn a_trace_wider_than_the_mesh_fails_typed_naming_file_qubits_and_sites() {
    let dir = std::env::temp_dir().join("qla-trace-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let wide = dir.join("wide.trace");
    let mut text = "format_version = 1\nname = wide\n".to_string();
    for q in 0..1000 {
        text.push_str(&format!("qubit q{q}\n"));
    }
    text.push_str("cnot q0 q999\n");
    std::fs::write(&wide, text).unwrap();
    let cli = args(&["--trace", wide.to_str().unwrap()]);
    let err = cli::run_experiment("trace-replay", &cli).expect_err("1000 qubits on 407 sites");
    assert!(err.contains("wide.trace"), "{err}");
    assert!(
        err.contains("trace declares 1000 logical qubits, but the 'expected' machine's mesh has only 407 sites"),
        "{err}"
    );
}

#[test]
fn trace_flag_is_rejected_outside_trace_replay() {
    let sample = sample_str();
    let cli = args(&["--trace", &sample]);
    let err = cli::run_experiment("fig7-threshold", &cli).expect_err("wrong experiment");
    assert!(err.contains("--trace only applies"), "{err}");
    assert!(err.contains("trace-replay"), "{err}");
    let err = cli::run_all(&cli).expect_err("run-all");
    assert!(err.contains("--trace"), "{err}");
}
