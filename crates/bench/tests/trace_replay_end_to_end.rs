//! Acceptance test for the trace subsystem: one `trace-replay`
//! invocation drives a QCLA-adder trace and a modexp trace end-to-end
//! through BOTH the greedy scheduler (analytic window plan) and the
//! `qla-sim` discrete-event engine, and the simulated window count
//! meets or exceeds the analytic plan under contention.
//!
//! Also pins the byte-determinism contract for both trace experiments:
//! identical output across `--jobs 1/4` and across consecutive runs,
//! the in-tree mirror of the CI determinism job.

use qla_bench::experiments::{TraceReplay, TraceScaling};
use qla_bench::registry;
use qla_core::{Executor, Experiment, ExperimentContext, MachineSpec};
use qla_report::Format;

/// Seed the committed goldens use; any seed works, this keeps the two
/// suites comparable.
const GOLDEN_SEED: u64 = 2005;

#[test]
fn one_invocation_replays_real_programs_through_scheduler_and_sim() {
    for profile in ["expected", "current"] {
        let spec = MachineSpec::builtin(profile).unwrap();
        let ctx = ExperimentContext::new(TraceReplay.default_trials(), GOLDEN_SEED).with_spec(spec);
        let output = TraceReplay.run(&ctx);

        // One run yields all three program families.
        assert_eq!(output.programs.len(), 3, "{profile}: program set");
        let names: Vec<&str> = output.programs.iter().map(|p| p.program.as_str()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("qcla-adder")),
            "{profile}: no QCLA adder in {names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("modexp")),
            "{profile}: no modexp in {names:?}"
        );

        for p in &output.programs {
            // Both consumers actually ran: the scheduler produced a
            // window plan and the discrete-event engine produced a
            // non-trivial event history for every communicating program.
            assert!(
                p.ops > 0 && p.layers > 0,
                "{profile}/{}: empty program",
                p.program
            );
            if p.requests > 0 {
                assert!(
                    p.analytic_windows > 0,
                    "{profile}/{}: scheduler planned no windows",
                    p.program
                );
                assert!(
                    p.events > 0,
                    "{profile}/{}: sim processed no events",
                    p.program
                );
                // The acceptance check: under contention the sim —
                // which also charges queueing, factory occupancy, and
                // admission — can only meet or exceed the analytic plan.
                assert!(
                    p.sim_windows >= p.analytic_windows,
                    "{profile}/{}: sim {} windows fell below analytic {}",
                    p.program,
                    p.sim_windows,
                    p.analytic_windows
                );
                assert_eq!(
                    p.queueing_excess,
                    p.sim_windows as i64 - p.analytic_windows as i64,
                    "{profile}/{}: excess column out of sync",
                    p.program
                );
                assert!(
                    p.p99_sojourn_ms >= p.p50_sojourn_ms && p.p50_sojourn_ms > 0.0,
                    "{profile}/{}: sojourn percentiles inconsistent",
                    p.program
                );
            }
        }

        // The structured programs must exercise real contention — a
        // replay with zero queueing everywhere would make the >= bound
        // vacuous.
        assert!(
            output
                .programs
                .iter()
                .any(|p| p.sim_windows > p.analytic_windows),
            "{profile}: no program diverged; contention never exercised"
        );
    }
}

#[test]
fn trace_scaling_grows_with_register_width() {
    let ctx = ExperimentContext::new(TraceScaling.default_trials(), GOLDEN_SEED);
    let output = TraceScaling.run(&ctx);
    let adders: Vec<_> = output
        .points
        .iter()
        .filter(|p| p.family == "qcla-adder")
        .collect();
    assert!(
        adders.len() >= 2,
        "scaling sweep needs at least two adder widths"
    );
    for pair in adders.windows(2) {
        assert!(pair[1].bits > pair[0].bits);
        // Wider registers mean strictly more gates, demand, and windows
        // in both models — the scaling story the table exists to show.
        assert!(pair[1].replay.toffolis > pair[0].replay.toffolis);
        assert!(pair[1].replay.pairs > pair[0].replay.pairs);
        assert!(pair[1].replay.analytic_windows >= pair[0].replay.analytic_windows);
        assert!(pair[1].replay.sim_windows >= pair[0].replay.sim_windows);
    }
}

#[test]
fn trace_experiments_are_byte_identical_across_jobs_and_runs() {
    for name in ["trace-replay", "trace-scaling"] {
        let experiment = registry::find(name).expect("registered");
        let ctx = ExperimentContext::new(1, GOLDEN_SEED);
        let first = experiment.run_report(&ctx).render(Format::Json);
        let again = experiment.run_report(&ctx).render(Format::Json);
        assert_eq!(first, again, "{name}: run-to-run drift");
        for jobs in [2usize, 4] {
            let parallel = experiment
                .run_report(&ctx.clone().with_executor(Executor::from_jobs(jobs)))
                .render(Format::Json);
            assert_eq!(first, parallel, "{name}: --jobs {jobs} changed bytes");
        }
    }
}
