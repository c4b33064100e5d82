//! Determinism acceptance tests for the observability layer.
//!
//! The `qla-obs` contract has two halves, and both are pinned here:
//!
//! 1. **Recording off changes nothing.** Every registry experiment's
//!    report (and that of a `--trace FILE` replay) must be the same with
//!    recording off and on — both runs go through the *same* code with
//!    only the recorder switched, so the report can never drift.
//! 2. **Recording on is byte-deterministic.** The recorded [`EventLog`]s
//!    (and the Chrome-trace / text-timeline renderings derived from them)
//!    must be identical across `--jobs 1` and `--jobs 4` and from run to
//!    run, because every stamp is virtual integer time and the executor
//!    reassembles per-point logs in index order.

use proptest::prelude::*;
use qla_bench::experiments::trace_replay::TraceFileReplay;
use qla_bench::registry;
use qla_core::{DynExperiment, ExperimentContext, MachineSpec};
use qla_obs::export::{chrome_trace, text_timeline};
use qla_obs::EventLog;
use qla_report::Report;
use qla_trace::Trace;

/// The default CLI seed, hard-coded like in `report_golden`.
const SEED: u64 = 2005;

/// The instrumented experiments whose recorded logs the CI determinism job
/// (and these tests) diff byte-for-byte.
const OBSERVED: [&str; 4] = [
    "sim-offered-load",
    "fault-sweep",
    "trace-replay",
    "serve-load",
];

/// The committed demo trace, replayed the way `run trace-replay --trace
/// crates/bench/tests/data/ghz-toffoli-demo.trace` replays it.
const DEMO_TRACE: &str = include_str!("data/ghz-toffoli-demo.trace");

/// Run `check` on every instrumented registry experiment and on a
/// `--trace FILE` replay of the demo trace.
fn for_each_observed(mut check: impl FnMut(&str, &dyn DynExperiment)) {
    for name in OBSERVED {
        let experiment = registry::find(name).unwrap_or_else(|| panic!("{name} not registered"));
        check(name, experiment.as_ref());
    }
    let traces = [Trace::parse(DEMO_TRACE).expect("the demo trace parses")];
    check("trace-replay --trace", &TraceFileReplay { traces: &traces });
}

fn run_observed(experiment: &dyn DynExperiment, jobs: usize) -> (Report, Vec<EventLog>) {
    let ctx = ExperimentContext::new(2, SEED)
        .with_jobs(jobs)
        .with_recording(true);
    experiment.run_report_observed(&ctx)
}

#[test]
fn recorded_logs_and_exports_are_jobs_invariant_and_reproducible() {
    for_each_observed(|name, experiment| {
        let (report_seq, logs_seq) = run_observed(experiment, 1);
        let (report_again, logs_again) = run_observed(experiment, 1);
        let (report_par, logs_par) = run_observed(experiment, 4);

        assert!(!logs_seq.is_empty(), "{name}: no logs recorded");
        assert!(
            logs_seq.iter().any(|log| !log.events().is_empty()),
            "{name}: recording on captured nothing"
        );
        assert_eq!(logs_seq, logs_again, "{name}: run-to-run log drift");
        assert_eq!(logs_seq, logs_par, "{name}: --jobs 4 changed the logs");
        assert_eq!(report_seq, report_again, "{name}: run-to-run report drift");
        assert_eq!(
            report_seq, report_par,
            "{name}: --jobs 4 changed the report"
        );

        // The exporters are pure functions of the logs, so their bytes
        // inherit the invariance — asserted directly because these are the
        // files the CI determinism job diffs and uploads.
        let json = chrome_trace(&logs_seq);
        let timeline = text_timeline(&logs_seq);
        assert_eq!(json, chrome_trace(&logs_par), "{name}: trace.json drifted");
        assert_eq!(
            timeline,
            text_timeline(&logs_par),
            "{name}: timeline drifted"
        );
        // Structural sanity of the export surfaces.
        assert!(json.starts_with("{\"traceEvents\":["), "{name}");
        assert!(json.contains("\"process_name\""), "{name}");
        assert!(timeline.starts_with("# qla-obs timeline"), "{name}");
    });
}

#[test]
fn observed_reports_equal_plain_reports_for_every_registry_entry() {
    // Most experiments use the default `run_observed` (which *is* `run`);
    // the instrumented ones delegate `run` to `run_observed`. Either way
    // the reports must be equal with recording off and on — recording can
    // never perturb a report byte.
    let check = |name: &str, experiment: &dyn DynExperiment| {
        let ctx = ExperimentContext::new(2, SEED);
        let plain = experiment.run_report(&ctx);
        let (observed, _) = experiment.run_report_observed(&ctx.with_recording(true));
        assert_eq!(plain, observed, "{name}: observed report drifted");
    };
    for experiment in registry::registry() {
        check(experiment.name(), experiment.as_ref());
    }
    let traces = [Trace::parse(DEMO_TRACE).expect("the demo trace parses")];
    check("trace-replay --trace", &TraceFileReplay { traces: &traces });
}

/// A deliberately tiny scenario (one load point, six-window horizon) so
/// the seed-generalised property below samples many seeds cheaply.
fn quick_spec() -> MachineSpec {
    let mut spec = MachineSpec::expected();
    spec.sweep.sim.offered_loads = vec![2.0];
    spec.sweep.sim.warmup_windows = 2;
    spec.sweep.sim.measure_windows = 4;
    spec.validate().expect("trimmed sweep still validates");
    spec
}

proptest! {
    // Seed-generalised form of the jobs-invariance pin: whatever the
    // master seed, sim-offered-load's recorded logs at 4 workers equal
    // the sequential ones byte-for-byte, run to run.
    #[test]
    fn sim_offered_load_logs_are_jobs_invariant_for_any_seed(seed in 0u64..100_000) {
        let experiment = registry::find("sim-offered-load").unwrap();
        let ctx = ExperimentContext::new(1, seed)
            .with_spec(quick_spec())
            .with_recording(true);
        let (_, sequential) = experiment.run_report_observed(&ctx);
        let (_, again) = experiment.run_report_observed(&ctx);
        let (_, parallel) = experiment.run_report_observed(&ctx.clone().with_jobs(4));
        prop_assert!(sequential.iter().any(|log| !log.events().is_empty()));
        prop_assert_eq!(&sequential, &again);
        prop_assert_eq!(&sequential, &parallel);
    }
}
