//! Scenario matrix: the key figures of every built-in machine profile side
//! by side — the Section 6 "Relaxing the Technology Restrictions"
//! sensitivity study as a registry experiment.
//!
//! One row per [`MachineSpec`] built-in (`expected`, `current`, and the two
//! Section 6 relaxations): the machine-level figures (ECC window, EPR
//! channel capacity, Equation 2 computation-size ceiling, chip area) are
//! deterministic functions of the profile, and the level-1 logical failure
//! rate is Monte-Carlo sampled at the profile's own component rate `p0`.
//! Profiles are evaluated through the context's executor with independent
//! derived seeds, so the matrix parallelises like any other sweep and is
//! byte-identical at every job count.

use qla_core::{Experiment, ExperimentContext, MachineSpec, ThresholdExperiment, BUILTIN_PROFILES};
use qla_report::{row, Column, Report};
use serde::Serialize;

/// The cross-profile sensitivity experiment.
pub struct Sensitivity;

/// One profile's key figures.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityRow {
    /// Profile name.
    pub profile: String,
    /// Recursion level of the profile's design point.
    pub recursion_level: u32,
    /// Channel bandwidth.
    pub bandwidth: usize,
    /// Mean component failure rate `p0`.
    pub p0: f64,
    /// Error-correction window pacing the machine, in milliseconds.
    pub ecc_window_ms: f64,
    /// Purified EPR pairs one channel delivers per ECC window.
    pub pairs_per_window: usize,
    /// Equation 2 ceiling on the computation size `S = K·Q`.
    pub max_computation_size: f64,
    /// Chip area of the profile's design point, in square metres.
    pub chip_area_m2: f64,
    /// Monte-Carlo level-1 logical failure rate at `p0` (trials from the
    /// context budget).
    pub level1_failure_rate: f64,
}

/// Typed output: one row per built-in profile.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityOutput {
    /// Rows in [`BUILTIN_PROFILES`] order.
    pub rows: Vec<SensitivityRow>,
}

impl Experiment for Sensitivity {
    type Output = SensitivityOutput;

    fn name(&self) -> &'static str {
        "sensitivity"
    }
    fn title(&self) -> &'static str {
        "Section 6 — scenario matrix across the built-in machine profiles"
    }
    fn description(&self) -> &'static str {
        "Key figures of every built-in profile (ECC window, EPR capacity, Eq. 2 ceiling, MC rate)"
    }
    fn default_trials(&self) -> usize {
        10_000
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        // The matrix always spans the built-ins; the active spec only
        // stamps the scenario header.
        &[]
    }

    fn run(&self, ctx: &ExperimentContext) -> SensitivityOutput {
        let specs = MachineSpec::builtins();
        // One derived seed per profile: rows parallelise through the
        // executor and still land in BUILTIN_PROFILES order.
        let rows = ctx.executor.map(&specs, |i, spec| {
            let machine = spec.machine().expect("built-in profiles are valid");
            let p0 = spec.tech.failures.mean_component_rate();
            let mc = ThresholdExperiment {
                trials: ctx.trials,
                seed: ctx.derived_seed(i as u64),
                movement_error: spec.movement_error(),
            };
            SensitivityRow {
                profile: spec.name.clone(),
                recursion_level: spec.recursion_level,
                bandwidth: spec.bandwidth,
                p0,
                ecc_window_ms: machine.ecc_window().as_millis(),
                pairs_per_window: machine.epr_pairs_per_ecc_window(),
                max_computation_size: machine.max_computation_size(),
                chip_area_m2: machine.chip_area_m2(),
                level1_failure_rate: mc.level1_failure_rate(p0),
            }
        });
        SensitivityOutput { rows }
    }

    fn report(&self, ctx: &ExperimentContext, output: &SensitivityOutput) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("trials", ctx.trials)
            .with_param("seed", ctx.seed)
            .with_param("profiles", BUILTIN_PROFILES.join(","))
            .with_columns([
                Column::new("profile"),
                Column::new("level"),
                Column::new("bandwidth"),
                Column::new("p0"),
                Column::with_unit("ECC window", "ms"),
                Column::new("pairs/window"),
                Column::new("max S = K*Q"),
                Column::with_unit("area", "m^2"),
                Column::new("L1 Pf @ p0"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.profile.clone(),
                row.recursion_level,
                row.bandwidth,
                row.p0,
                row.ecc_window_ms,
                row.pairs_per_window,
                row.max_computation_size,
                row.chip_area_m2,
                row.level1_failure_rate
            ]);
        }
        r.push_note(
            "Section 6 sensitivity: 'expected' is the paper design point; 'current' uses the \
             NIST-demonstrated rates; the relaxed profiles degrade failure rates or speed 10x",
        );
        r.push_note(
            "the L1 rate is sampled at each profile's own p0, so profiles far above threshold \
             saturate near 1 while the paper design point stays at 0",
        );
        r
    }
}
