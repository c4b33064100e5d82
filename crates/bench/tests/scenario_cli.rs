//! Integration tests for the Scenario API surface of `qla-bench`: profile
//! selection, spec-file loading, and the acceptance criteria of the
//! redesign — `--profile current --jobs 4` and `--spec <file>` must both
//! produce byte-stable reports carrying scenario metadata, with the
//! sensitivity matrix runnable like any other registry entry.

use qla_bench::cli::CliArgs;
use qla_bench::registry;
use qla_core::{MachineSpec, BUILTIN_PROFILES};
use qla_report::Format;
use std::path::PathBuf;

fn args(extra: &[&str]) -> CliArgs {
    CliArgs::parse(extra.iter().map(ToString::to_string)).expect("args parse")
}

/// Run one experiment under fully resolved CLI arguments (scenario + jobs),
/// like `qla-bench run <name>` does, but without stdout noise.
fn run(name: &str, cli: &CliArgs, trials: usize) -> qla_report::Report {
    let experiment = registry::find(name).expect("registered");
    let ctx = cli.parallel_context(trials).expect("context resolves");
    experiment.run_report(&ctx)
}

#[test]
fn profile_current_with_jobs_4_is_byte_stable() {
    // The acceptance check: `qla-bench run fig7-threshold --profile
    // current --jobs 4` produces byte-stable output carrying scenario
    // metadata. Byte-stable means run-to-run identical AND identical to
    // the sequential evaluation.
    let parallel = args(&["--profile", "current", "--jobs", "4"]);
    let sequential = args(&["--profile", "current", "--jobs", "1"]);
    let first = run("fig7-threshold", &parallel, 50).render(Format::Json);
    let again = run("fig7-threshold", &parallel, 50).render(Format::Json);
    let seq = run("fig7-threshold", &sequential, 50).render(Format::Json);
    assert_eq!(first, again, "run-to-run drift under --profile current");
    assert_eq!(first, seq, "--jobs changed bytes under --profile current");
    assert!(first.contains("\"scenario\": {\"profile\": \"current\""));
}

#[test]
fn spec_file_is_equivalent_to_the_profile_it_renders() {
    // `--spec <file>` with a rendered built-in must be indistinguishable
    // from `--profile <name>` — the text format loses nothing.
    let dir = std::env::temp_dir().join("qla-scenario-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("current.spec");
    std::fs::write(&path, MachineSpec::current().render()).unwrap();

    let via_spec = CliArgs {
        spec_path: Some(PathBuf::from(&path)),
        jobs: Some(4),
        ..CliArgs::default()
    };
    let via_profile = args(&["--profile", "current", "--jobs", "4"]);
    for name in ["fig7-threshold", "table2-shor"] {
        assert_eq!(
            run(name, &via_spec, 30).render(Format::Json),
            run(name, &via_profile, 30).render(Format::Json),
            "{name}: --spec diverged from --profile"
        );
    }
}

#[test]
fn profiles_change_results_but_not_determinism() {
    // Different profiles must actually move the physics: the Shor run
    // times under the slowed technology exceed the paper design point.
    let expected = run("table2-shor", &args(&["--profile", "expected"]), 1);
    let slow = run("table2-shor", &args(&["--profile", "relaxed-speed"]), 1);
    assert_eq!(expected.scenario.as_ref().unwrap().profile, "expected");
    assert_eq!(slow.scenario.as_ref().unwrap().profile, "relaxed-speed");
    assert_ne!(
        expected.rows, slow.rows,
        "relaxed-speed did not change Table 2"
    );
}

#[test]
fn at_least_four_builtin_profiles_exist_and_render() {
    assert!(BUILTIN_PROFILES.len() >= 4);
    assert_eq!(MachineSpec::builtins().len(), BUILTIN_PROFILES.len());
    for spec in MachineSpec::builtins() {
        let rendered = spec.render();
        assert_eq!(MachineSpec::parse(&rendered).unwrap(), spec);
    }
}

#[test]
fn sensitivity_is_registered_and_spans_every_builtin() {
    assert!(
        registry::names().contains(&"sensitivity"),
        "sensitivity missing from the registry (list/run-all)"
    );
    let report = run("sensitivity", &CliArgs::default(), 40);
    assert_eq!(report.rows.len(), BUILTIN_PROFILES.len());
    let rendered = report.render(Format::Text);
    for profile in BUILTIN_PROFILES {
        assert!(rendered.contains(profile), "{profile} missing:\n{rendered}");
    }
    // The matrix parallelises like any other sweep.
    let parallel = run("sensitivity", &args(&["--jobs", "4"]), 40);
    assert_eq!(parallel, report);
}

#[test]
fn describe_metadata_is_exposed_for_every_experiment() {
    for name in registry::names() {
        let info = registry::info(name).expect("info resolves");
        assert_eq!(info.name, name);
        assert!(!info.title.is_empty());
        assert!(info.default_trials > 0);
    }
}

#[test]
fn spans_past_the_simulator_clock_fail_typed_with_exit_2() {
    // 10^14 windows of fault onset, or of warm-up, overflow the
    // simulator's u64 nanosecond clock.
    let dir = std::env::temp_dir().join("qla-scenario-cli-overflow");
    std::fs::create_dir_all(&dir).unwrap();
    let mut onset = MachineSpec::expected();
    onset.sweep.fault.onset_windows = 100_000_000_000_000;
    let mut warmup = MachineSpec::expected();
    warmup.sweep.sim.warmup_windows = 100_000_000_000_000;
    for (experiment, spec, message) in [
        (
            "fault-sweep",
            onset,
            "sweep.fault.onset_windows + sweep.fault.duration_windows (100000000000006 windows) \
             overflows the simulator's u64 nanosecond clock",
        ),
        (
            "sim-tail-latency",
            warmup,
            "sweep.sim.warmup_windows + sweep.sim.measure_windows (100000000000016 windows) \
             overflows the simulator's u64 nanosecond clock",
        ),
    ] {
        let path = dir.join(format!("{experiment}.spec"));
        std::fs::write(&path, spec.render()).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_qla-bench"))
            .args(["run", experiment, "--spec"])
            .arg(&path)
            .output()
            .expect("qla-bench starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{experiment}: {stderr}");
        assert!(stderr.contains(message), "{experiment}: {stderr}");
        assert!(!stderr.contains("panicked"), "{experiment}: {stderr}");
    }
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_0() {
    for flag in ["--help", "-h", "help"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_qla-bench"))
            .arg(flag)
            .output()
            .expect("qla-bench starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(stdout.starts_with("usage:"), "{flag}: {stdout}");
        assert!(
            stdout.contains("qla-bench run <experiment>"),
            "{flag}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{flag}");
    }
}
