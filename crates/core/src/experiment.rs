//! The unified experiment API: one trait and one context for every paper
//! artefact.
//!
//! Every evaluation in the reproduction — Figure 7's Monte-Carlo threshold
//! sweep, Figure 9's connection-time table, Table 2's Shor numbers, the
//! trace replays of the mesh — is an [`Experiment`]: a typed computation
//! from an [`ExperimentContext`] (trial budget, seed, executor, machine
//! spec, recording switch) to a serializable `Output`, plus a projection of
//! that output into a [`Report`] for rendering. Sweeps map their points
//! through the context's [`Executor`]; every point that samples draws from
//! its own seed, derived from the context seed with a SplitMix64 mix
//! ([`ExperimentContext::derived_seed`]), so points can be evaluated in
//! parallel (or re-evaluated singly) and still produce bit-identical
//! results — without any shared RNG state and without a rayon dependency.

use crate::executor::Executor;
use crate::machine::QlaMachine;
use crate::spec::MachineSpec;
use qla_obs::{EventLog, ObsConfig};
use qla_report::Report;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Shared run parameters every experiment receives.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentContext {
    /// Monte-Carlo trial budget (per data point, for experiments that
    /// sample; deterministic experiments ignore it).
    pub trials: usize,
    /// Master seed. All randomness in an experiment must derive from this
    /// (directly or through [`Self::derived_seed`] /
    /// [`Self::rng_for_point`]).
    pub seed: u64,
    /// How sweep points are evaluated. **Must not affect any output**: an
    /// experiment's result is a function of `(trials, seed, spec)` alone,
    /// and the executor only changes how fast that result is computed. The
    /// golden and CI determinism tests enforce this byte-for-byte.
    pub executor: Executor,
    /// The machine scenario under evaluation. Experiments build their
    /// machine with [`Self::machine`] and derive their sweep grids from
    /// [`MachineSpec::sweep`] — never from private constants — so a
    /// `--profile`/`--spec` change reaches every registered experiment.
    pub spec: MachineSpec,
    /// Whether instrumented experiments record per-point event logs (see
    /// [`Self::obs`]). Off by default. Like the executor, it **must not
    /// affect any output**: reports are byte-identical either way.
    pub record: bool,
}

impl ExperimentContext {
    /// A context with the given trial budget and seed, evaluated
    /// sequentially under the `expected` (paper design point) profile.
    /// Attach a thread pool with [`Self::with_executor`] and a different
    /// scenario with [`Self::with_spec`].
    #[must_use]
    pub fn new(trials: usize, seed: u64) -> Self {
        ExperimentContext {
            trials,
            seed,
            executor: Executor::SEQUENTIAL,
            spec: MachineSpec::expected(),
            record: false,
        }
    }

    /// An independent seed for sweep point `index`, derived with the
    /// SplitMix64 finalizer. Deterministic in `(seed, index)` and
    /// well-distributed even for consecutive indices, which is what makes
    /// per-point parallel execution safe.
    #[must_use]
    pub fn derived_seed(&self, index: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A ChaCha8 generator seeded for sweep point `index`.
    #[must_use]
    pub fn rng_for_point(&self, index: u64) -> ChaCha8Rng {
        use rand::SeedableRng;
        ChaCha8Rng::seed_from_u64(self.derived_seed(index))
    }

    /// This context with a different execution strategy.
    #[must_use]
    pub fn with_executor(self, executor: Executor) -> Self {
        ExperimentContext { executor, ..self }
    }

    /// This context evaluated with `jobs` worker threads (`0`/`1` mean
    /// sequential) — the `--jobs N` convenience form of
    /// [`Self::with_executor`].
    #[must_use]
    pub fn with_jobs(self, jobs: usize) -> Self {
        self.with_executor(Executor::from_jobs(jobs))
    }

    /// This context under a different machine scenario.
    #[must_use]
    pub fn with_spec(self, spec: MachineSpec) -> Self {
        ExperimentContext { spec, ..self }
    }

    /// This context with recording switched on or off.
    #[must_use]
    pub fn with_recording(self, record: bool) -> Self {
        ExperimentContext { record, ..self }
    }

    /// The recorder configuration sweeps hand to
    /// [`Executor::map_indices_observed`]: enabled exactly when
    /// [`Self::record`] is set, with detail and sampling from the spec's
    /// `sweep.obs.*` section.
    #[must_use]
    pub fn obs(&self) -> ObsConfig {
        ObsConfig {
            enabled: self.record,
            detail: self.spec.sweep.obs.detail,
            sample_every: self.spec.sweep.obs.sample_every,
        }
    }

    /// The machine at the active scenario's design point.
    ///
    /// # Panics
    /// Panics when the spec is invalid. The CLI validates specs at load
    /// time (and every built-in profile is valid), so reaching this panic
    /// means a hand-constructed spec skipped
    /// [`MachineSpec::validate`](crate::spec::MachineSpec::validate).
    #[must_use]
    pub fn machine(&self) -> QlaMachine {
        self.spec.machine().unwrap_or_else(|e| {
            panic!(
                "machine spec '{}' is invalid: {e}; validate specs before running experiments",
                self.spec.name
            )
        })
    }
}

/// A reproducible evaluation producing one typed output and one [`Report`].
///
/// Implementations are ~30 lines: run the underlying model, then project
/// the typed output into a report. The `Output` type carries the full
/// machine-readable result (and must be `Serialize` so it survives the swap
/// back to registry serde — see `vendor/README.md`); the report is the
/// canonical rendered view.
pub trait Experiment {
    /// The typed result of one run.
    type Output: Serialize;

    /// Stable registry name (kebab-case, e.g. `"fig7-threshold"`).
    fn name(&self) -> &'static str;

    /// Human-readable title naming the paper artefact.
    fn title(&self) -> &'static str;

    /// One-line description for `qla-bench list`.
    fn description(&self) -> &'static str;

    /// Trial budget used when the caller does not specify one.
    fn default_trials(&self) -> usize {
        10_000
    }

    /// The [`MachineSpec`] fields this experiment is sensitive to, as the
    /// keys of the spec text format (a trailing `*` names a whole group,
    /// e.g. `tech.fail.*`). Purely descriptive — surfaced by
    /// `qla-bench describe` so a scenario author knows which experiments a
    /// field change will move.
    fn spec_fields(&self) -> &'static [&'static str] {
        &[]
    }

    /// Execute the experiment.
    fn run(&self, ctx: &ExperimentContext) -> Self::Output;

    /// Execute the experiment, returning the per-point [`EventLog`]s it
    /// recorded alongside the output (recording is on when
    /// [`ExperimentContext::record`] is set).
    ///
    /// The default records nothing — experiments without instrumentation
    /// stay observability-transparent. Instrumented experiments implement
    /// *this* method as their real body (threading per-point logs from
    /// [`Executor::map_indices_observed`] into `simulate_observed` and
    /// friends) and implement [`Experiment::run`] as
    /// `self.run_observed(ctx).0`, which is what makes "recording off
    /// changes nothing" structural: there is one body, and recording only
    /// swaps a disabled recorder for an enabled one. The contract — pinned
    /// by tests — is that `Output` is byte-identical whether or not
    /// recording is on, and that the logs themselves are identical across
    /// `--jobs` counts and run-to-run.
    fn run_observed(&self, ctx: &ExperimentContext) -> (Self::Output, Vec<EventLog>) {
        (self.run(ctx), Vec::new())
    }

    /// Project an output into the canonical report (without the scenario
    /// header — [`DynExperiment::run_report`] attaches that uniformly).
    fn report(&self, ctx: &ExperimentContext, output: &Self::Output) -> Report;
}

/// Object-safe view of an [`Experiment`], for registries and CLI drivers
/// that hold heterogeneous experiments behind one pointer type.
pub trait DynExperiment {
    /// Stable registry name.
    fn name(&self) -> &'static str;
    /// Human-readable title.
    fn title(&self) -> &'static str;
    /// One-line description.
    fn description(&self) -> &'static str;
    /// Default trial budget.
    fn default_trials(&self) -> usize;
    /// Spec fields the experiment is sensitive to (see
    /// [`Experiment::spec_fields`]).
    fn spec_fields(&self) -> &'static [&'static str];
    /// Run and project in one step, returning the report (carrying the
    /// context's scenario header) plus the recorded per-point event logs
    /// (see [`Experiment::run_observed`]). The blanket [`Experiment`] impl
    /// is the one body every run goes through.
    fn run_report_observed(&self, ctx: &ExperimentContext) -> (Report, Vec<EventLog>);
    /// The report half of [`DynExperiment::run_report_observed`].
    fn run_report(&self, ctx: &ExperimentContext) -> Report {
        self.run_report_observed(ctx).0
    }
}

impl<E: Experiment> DynExperiment for E {
    fn name(&self) -> &'static str {
        Experiment::name(self)
    }
    fn title(&self) -> &'static str {
        Experiment::title(self)
    }
    fn description(&self) -> &'static str {
        Experiment::description(self)
    }
    fn default_trials(&self) -> usize {
        Experiment::default_trials(self)
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        Experiment::spec_fields(self)
    }
    fn run_report_observed(&self, ctx: &ExperimentContext) -> (Report, Vec<EventLog>) {
        let (output, logs) = self.run_observed(ctx);
        let report = self.report(ctx, &output).with_scenario(ctx.spec.scenario());
        (report, logs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qla_report::{Column, Report};
    use serde::Serialize;

    /// A toy experiment: mean of `trials` uniform draws per point.
    struct MeanDraw;

    #[derive(Serialize)]
    struct MeanOutput {
        means: Vec<f64>,
    }

    impl Experiment for MeanDraw {
        type Output = MeanOutput;

        fn name(&self) -> &'static str {
            "mean-draw"
        }
        fn title(&self) -> &'static str {
            "Mean draw"
        }
        fn description(&self) -> &'static str {
            "toy"
        }
        fn default_trials(&self) -> usize {
            32
        }

        fn run(&self, ctx: &ExperimentContext) -> MeanOutput {
            use rand::Rng;
            let means = ctx.executor.map_indices(3, |i| {
                let mut rng = ctx.rng_for_point(i as u64);
                let sum: f64 = (0..ctx.trials).map(|_| rng.random::<f64>()).sum();
                sum / ctx.trials as f64
            });
            MeanOutput { means }
        }

        fn report(&self, ctx: &ExperimentContext, output: &MeanOutput) -> Report {
            let mut r = Report::new(Experiment::name(self), Experiment::title(self))
                .with_param("trials", ctx.trials)
                .with_param("seed", ctx.seed)
                .with_column(Column::new("mean"));
            for m in &output.means {
                r.push_row(qla_report::row![*m]);
            }
            r
        }
    }

    fn run_report(ctx: &ExperimentContext) -> Report {
        (&MeanDraw as &dyn DynExperiment).run_report(ctx)
    }

    #[test]
    fn derived_seeds_are_distinct_and_deterministic() {
        let ctx = ExperimentContext::new(10, 42);
        let seeds: Vec<u64> = (0..100).map(|i| ctx.derived_seed(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collision among derived seeds");
        assert_eq!(
            ctx.derived_seed(7),
            ExperimentContext::new(99, 42).derived_seed(7)
        );
        assert_ne!(
            ctx.derived_seed(7),
            ExperimentContext::new(10, 43).derived_seed(7)
        );
    }

    #[test]
    fn sweep_results_do_not_depend_on_evaluation_order() {
        let ctx = ExperimentContext::new(64, 7);
        let forward = ctx
            .executor
            .map(&[0, 1, 2, 3], |i, _| ctx.derived_seed(i as u64));
        // Re-evaluating a single point reproduces its slot exactly.
        let third = ctx
            .executor
            .map(&[0, 0, 2], |i, _| ctx.derived_seed(i as u64))[2];
        assert_eq!(third, forward[2]);
        assert_eq!(forward.len(), 4);
    }

    #[test]
    fn run_report_is_the_report_half_of_run_report_observed() {
        let ctx = ExperimentContext::new(16, 5);
        let direct = MeanDraw.report(&ctx, &MeanDraw.run(&ctx));
        let (observed, logs) = (&MeanDraw as &dyn DynExperiment).run_report_observed(&ctx);
        assert_eq!(run_report(&ctx), observed);
        assert_eq!(observed.rows, direct.rows);
        assert_eq!(direct.rows.len(), 3);
        // An uninstrumented experiment records nothing, even when asked to.
        assert!(logs.is_empty());
        assert_eq!(run_report(&ctx.with_recording(true)), observed);
    }

    #[test]
    fn recording_is_off_by_default_and_shaped_by_the_spec() {
        let ctx = ExperimentContext::new(1, 1);
        assert!(!ctx.record);
        assert!(!ctx.obs().enabled);
        let mut spec = crate::spec::MachineSpec::expected();
        spec.sweep.obs.sample_every = 4;
        let obs = ctx.with_spec(spec).with_recording(true).obs();
        assert!(obs.enabled);
        assert_eq!(obs.sample_every, 4);
    }

    #[test]
    fn reports_carry_the_scenario_of_the_active_spec() {
        let ctx = ExperimentContext::new(8, 1);
        let report = run_report(&ctx);
        let scenario = report.scenario.expect("run_report attaches the scenario");
        assert_eq!(scenario.profile, "expected");

        let current = ctx.with_spec(crate::spec::MachineSpec::current());
        let report = run_report(&current);
        assert_eq!(report.scenario.unwrap().profile, "current");
    }

    #[test]
    fn executor_sweeps_are_identical_at_every_thread_count() {
        let ctx = ExperimentContext::new(48, 11);
        let points: Vec<u32> = (0..23).collect();
        let eval = |i: usize, p: &u32| {
            use rand::Rng;
            let mut rng = ctx.rng_for_point(u64::from(*p));
            (ctx.derived_seed(i as u64), rng.random::<u64>())
        };
        let sequential = Executor::SEQUENTIAL.map(&points, eval);
        for jobs in [1usize, 2, 8] {
            assert_eq!(
                Executor::from_jobs(jobs).map(&points, eval),
                sequential,
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn run_report_matches_for_every_executor() {
        let ctx = ExperimentContext::new(64, 3);
        let sequential = run_report(&ctx);
        for jobs in [1usize, 2, 8] {
            let report = run_report(&ctx.clone().with_jobs(jobs));
            assert_eq!(report, sequential, "{jobs} jobs");
        }
    }

    #[test]
    fn same_seed_same_output_different_seed_different_output() {
        let a = run_report(&ExperimentContext::new(64, 1));
        let b = run_report(&ExperimentContext::new(64, 1));
        let c = run_report(&ExperimentContext::new(64, 2));
        assert_eq!(a, b);
        assert_ne!(a.rows, c.rows);
    }
}
