//! Golden/snapshot tests for the report layer: the JSON and text renderings
//! of registered experiments are pinned byte-for-byte (including the
//! scenario-metadata header every runner-produced report now carries), and
//! the whole registry runs end-to-end at tiny trial counts.
//!
//! # Regenerating the goldens
//!
//! After an intentional output change, the **single** regeneration command
//! is:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qla-bench --test report_golden
//! ```
//!
//! which rewrites every fixture under `crates/bench/tests/golden/` in place
//! (the spec-format golden in `crates/core/tests/` honours the same
//! variable). Re-run the tests without the variable afterwards and commit
//! the diff — review it like code: every changed byte must be explained by
//! the change you made.

use qla_bench::experiments::Fig7Threshold;
use qla_bench::registry;
use qla_core::{DynExperiment, Executor, ExperimentContext};
use qla_report::Format;
use std::path::Path;

/// The default CLI seed (`qla_core::DEFAULT_SEED`), hard-coded here so
/// a drive-by change to the default breaks a test instead of silently
/// re-baselining the goldens.
const GOLDEN_SEED: u64 = 2005;

/// Assert `actual` matches the committed fixture, or rewrite the fixture
/// when `UPDATE_GOLDEN` is set (the documented regeneration path).
fn assert_golden(fixture: &str, actual: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(fixture);
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("rewrite {fixture}: {e}"));
        return;
    }
    assert_eq!(
        actual, golden,
        "{fixture} drifted; regenerate with UPDATE_GOLDEN=1 cargo test -p qla-bench --test report_golden"
    );
}

/// Pin the JSON and text renderings of the registry experiment `$name`,
/// run at the golden seed and `$trials` trials (default: its own default
/// budget), against `golden/$name.json` and `golden/$name.txt`.
macro_rules! assert_report_golden {
    ($name:literal) => {{
        let trials = registry::find($name).unwrap().default_trials();
        assert_report_golden!($name, trials)
    }};
    ($name:literal, $trials:expr) => {{
        let report = registry::find($name)
            .unwrap()
            .run_report(&ExperimentContext::new($trials, GOLDEN_SEED));
        assert_golden(
            concat!($name, ".json"),
            &report.render(Format::Json),
            include_str!(concat!("golden/", $name, ".json")),
        );
        assert_golden(
            concat!($name, ".txt"),
            &report.render(Format::Text),
            include_str!(concat!("golden/", $name, ".txt")),
        );
    }};
}

fn render(name: &str, trials: usize, seed: u64, format: Format) -> String {
    let experiment = registry::find(name).unwrap_or_else(|| panic!("{name} not registered"));
    let ctx = ExperimentContext::new(trials, seed);
    experiment.run_report(&ctx).render(format)
}

#[test]
fn table1_json_and_text_are_byte_stable() {
    assert_report_golden!("table1");
}

#[test]
fn recursion_analysis_json_and_text_are_byte_stable() {
    assert_report_golden!("recursion-analysis");
}

/// Trial budget of the committed `fig7-threshold` fixtures: small enough to
/// regenerate in seconds, large enough that every regime of the curve (zero
/// counts, the crossing band, the encoding-hurts tail) appears.
const FIG7_GOLDEN_TRIALS: usize = 400;

#[test]
fn fig7_threshold_json_and_text_are_byte_stable() {
    // The sweep rows are safe to pin anywhere: the swept rates are the
    // spec's literals and the measured rates are exact ratios (failures /
    // trials). The empirical-threshold note is the one caveat — its scan
    // rates go through `f64::powf`, which is not correctly rounded, so the
    // fixture is pinned for the x86_64-linux toolchain CI runs on;
    // regenerate it (command in the module doc) if another platform's
    // libm ever disagrees.
    assert_report_golden!("fig7-threshold", FIG7_GOLDEN_TRIALS);
}

#[test]
fn sim_vs_analytic_json_and_text_are_byte_stable() {
    // Pure integer-time discrete-event simulation plus the greedy
    // scheduler: no RNG, no libm — these bytes are stable on every
    // platform, not just the CI toolchain.
    assert_report_golden!("sim-vs-analytic");
}

#[test]
fn sim_offered_load_json_and_text_are_byte_stable() {
    // The arrival streams use only multiply/add arithmetic on ChaCha8
    // draws (no transcendental functions), and the engine runs on integer
    // nanoseconds, so the fixture is platform-stable like the sim-vs-
    // analytic one.
    assert_report_golden!("sim-offered-load");
}

#[test]
fn sim_tail_latency_json_and_text_are_byte_stable() {
    // The same arrival pacing and integer-nanosecond engine as the
    // offered-load fixture, summarised as nearest-rank quantiles (integer
    // order statistics): platform-stable like the other sim fixtures.
    assert_report_golden!("sim-tail-latency");
}

#[test]
fn trace_replay_json_and_text_are_byte_stable() {
    // Trace generation is pure integer construction (the one libm use,
    // ceil(log2 n) in qla-shor's counts, is exact on small integers), the
    // random program comes from seeded ChaCha8 draws, and both consumers
    // run on integer window counts / integer nanoseconds — so these bytes
    // are platform-stable like the sim fixtures. (The rendered sojourn and
    // utilisation cells divide integers into f64, which is correctly
    // rounded everywhere.)
    assert_report_golden!("trace-replay");
}

#[test]
fn trace_scaling_json_and_text_are_byte_stable() {
    // Platform-stable for the same reasons as the trace-replay fixture;
    // this sweep is RNG-free entirely (adder and modexp programs only).
    assert_report_golden!("trace-scaling");
}

#[test]
fn fault_sweep_json_and_text_are_byte_stable() {
    // Same stability argument as sim-offered-load: ChaCha8 arrival streams
    // built from multiply/add arithmetic, fault timelines compiled onto
    // integer window boundaries, and an integer-nanosecond engine.
    assert_report_golden!("fault-sweep");
}

#[test]
fn traffic_matrix_json_and_text_are_byte_stable() {
    // Endpoint draws are uniform integer ranges on ChaCha8; routing and
    // the engine are pure integer work, so platform-stable as above.
    assert_report_golden!("traffic-matrix");
}

#[test]
fn multi_tenant_fairness_json_and_text_are_byte_stable() {
    // The tenant workload is RNG-free; quotas and the engine are integer
    // work, and Jain's index at skew 1 takes the exact bit-equal fast path.
    assert_report_golden!("multi-tenant-fairness");
}

/// Trial budget of the committed `serve-load` fixtures (the *inner* request
/// budget each generated request carries). Small, and irrelevant to
/// stability: the reported service times come from the deterministic
/// virtual clock (exact integer nanoseconds), so these bytes are
/// platform-stable like the sim fixtures.
const SERVE_LOAD_GOLDEN_TRIALS: usize = 6;

#[test]
fn serve_load_json_and_text_are_byte_stable() {
    assert_report_golden!("serve-load", SERVE_LOAD_GOLDEN_TRIALS);
}

#[test]
fn obs_overhead_json_and_text_are_byte_stable() {
    // Pure integer event/span/instant counts over a ChaCha8 arrival stream
    // through the integer-nanosecond engine: platform-stable like the sim
    // fixtures. This golden pins the recording-off identity as rendered
    // output — the `outcome identical` column is asserted true in-run.
    assert_report_golden!("obs-overhead");
}

#[test]
fn every_report_carries_the_scenario_header() {
    // The scenario metadata is part of the report contract: every
    // registry-produced report names the profile it ran under, in the
    // typed value and in both structured renderings.
    for experiment in registry::registry() {
        let ctx = ExperimentContext::new(2, GOLDEN_SEED);
        let report = experiment.run_report(&ctx);
        let scenario = report
            .scenario
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no scenario", experiment.name()));
        assert_eq!(scenario.profile, "expected", "{}", experiment.name());
        assert!(
            report
                .render(Format::Json)
                .contains("\"scenario\": {\"profile\": \"expected\""),
            "{}",
            experiment.name()
        );
        assert!(
            report.render(Format::Text).contains("scenario: expected ("),
            "{}",
            experiment.name()
        );
    }
}

#[test]
fn fig7_parallel_reports_are_identical_to_sequential_at_1_2_and_8_threads() {
    // The heart of the parallel-executor determinism contract: the typed
    // `Report` (not just its rendering) must be equal whatever the thread
    // count, because every sweep point derives its own seed and the
    // executor reassembles rows in index order.
    let ctx = ExperimentContext::new(300, GOLDEN_SEED);
    let sequential = Fig7Threshold.run_report(&ctx);
    for jobs in [1usize, 2, 8] {
        let parallel = Fig7Threshold.run_report(&ctx.clone().with_jobs(jobs));
        assert_eq!(parallel, sequential, "--jobs {jobs} changed the report");
    }
}

#[test]
fn every_registry_entry_is_parallel_deterministic() {
    // `run-all --jobs 4` must be byte-identical to `--jobs 1` (the CI
    // determinism job diffs the report trees; this is the in-tree version).
    for experiment in registry::registry() {
        let ctx = ExperimentContext::new(20, GOLDEN_SEED);
        let sequential = experiment.run_report(&ctx);
        let parallel = experiment.run_report(&ctx.clone().with_jobs(4));
        assert_eq!(
            parallel,
            sequential,
            "{}: parallel run diverged",
            experiment.name()
        );
        assert_eq!(
            parallel.render(Format::Json),
            sequential.render(Format::Json),
            "{}: parallel JSON diverged",
            experiment.name()
        );
    }
}

#[test]
fn fig7_threshold_json_is_seed_deterministic() {
    // The Monte-Carlo experiments are pinned by double-run identity rather
    // than by golden file: their byte output is a deterministic function of
    // the seed, but hinges on libm functions whose last-ulp behaviour is
    // platform-specific, so a committed golden would be needlessly fragile.
    let first = render("fig7-threshold", 200, GOLDEN_SEED, Format::Json);
    let again = render("fig7-threshold", 200, GOLDEN_SEED, Format::Json);
    assert_eq!(first, again, "same seed must reproduce identical JSON");

    let other_seed = render("fig7-threshold", 200, GOLDEN_SEED + 1, Format::Json);
    assert_ne!(
        first, other_seed,
        "a different seed must actually change the sampled rates"
    );

    // Structural sanity of the JSON surface.
    assert!(first.starts_with("{\n  \"name\": \"fig7-threshold\""));
    assert!(first.contains("\"params\": {\"trials\": 200, \"seed\": 2005"));
}

#[test]
fn scheduler_utilization_is_seed_deterministic() {
    let first = render("scheduler-utilization", 1, 7, Format::Csv);
    let again = render("scheduler-utilization", 1, 7, Format::Csv);
    assert_eq!(first, again);
    assert_ne!(first, render("scheduler-utilization", 1, 8, Format::Csv));
}

#[test]
fn run_all_succeeds_for_every_registry_entry_at_tiny_trials() {
    // Smoke both execution modes: the sequential path and the scoped
    // thread pool must both drive every experiment end-to-end.
    for executor in [Executor::SEQUENTIAL, Executor::from_jobs(4)] {
        run_all_smoke(executor);
    }
}

fn run_all_smoke(executor: Executor) {
    for experiment in registry::registry() {
        let ctx = ExperimentContext::new(5, GOLDEN_SEED).with_executor(executor);
        let report = experiment.run_report(&ctx);
        assert_eq!(report.name, experiment.name());
        assert!(
            !report.rows.is_empty(),
            "{}: report has no rows",
            experiment.name()
        );
        assert!(
            !report.columns.is_empty(),
            "{}: report has no columns",
            experiment.name()
        );
        for format in Format::ALL {
            let rendered = report.render(format);
            assert!(
                !rendered.trim().is_empty(),
                "{}: empty {format} rendering",
                experiment.name()
            );
        }
        // Every row arity matches the declared columns (push_row enforces
        // this at build time; this guards hand-constructed reports too).
        for row in &report.rows {
            assert_eq!(row.len(), report.columns.len(), "{}", experiment.name());
        }
    }
}
