//! Figure 7: logical gate failure vs component failure rate, levels 1 and 2,
//! plus the empirical threshold (the crossing point, (2.1 ± 1.8)e-3 in the
//! paper).
//!
//! The swept component rates, the geometric threshold-scan bounds, and the
//! per-gate movement error all come from the active
//! [`MachineSpec`](qla_core::MachineSpec): the default `expected` profile
//! carries the paper's grid, and a `--profile`/`--spec` change re-runs the
//! whole sweep under different technology assumptions without touching
//! source.

use qla_core::{Experiment, ExperimentContext, ThresholdExperiment, ThresholdPoint};
use qla_report::{row, Column, Report};
use serde::Serialize;

/// The Figure 7 Monte-Carlo threshold experiment.
pub struct Fig7Threshold;

/// Typed output: the two curves plus the crossing-point estimate.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Output {
    /// One entry per swept component failure rate.
    pub points: Vec<ThresholdPoint>,
    /// The empirical threshold, if a crossing was found in the scanned range.
    pub empirical_threshold: Option<f64>,
}

impl Experiment for Fig7Threshold {
    type Output = Fig7Output;

    fn name(&self) -> &'static str {
        "fig7-threshold"
    }
    fn title(&self) -> &'static str {
        "Figure 7 — logical gate failure vs component failure rate"
    }
    fn description(&self) -> &'static str {
        "Monte-Carlo failure rates of one logical gate + EC at recursion levels 1 and 2"
    }
    fn default_trials(&self) -> usize {
        // 4× the historical 40k: the bit-packed stabilizer kernels run the
        // sweep ~4× faster, so the default spends the same wall time and
        // halves the sampling noise in the (2.1 ± 1.8)e-3 crossing band.
        // Goldens are unaffected — they pin explicit trial counts.
        160_000
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &[
            "tech.fail.move_per_cell",
            "sweep.component_rates",
            "sweep.threshold_scan_lo",
            "sweep.threshold_scan_hi",
            "sweep.threshold_scan_points",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> Fig7Output {
        let spec = &ctx.spec;
        let experiment = ThresholdExperiment {
            trials: ctx.trials,
            seed: ctx.seed,
            movement_error: spec.movement_error(),
        };
        // One work list through the context's executor: the sweep, longest
        // first, then the threshold scan, which skips the points past its
        // first crossing. Every point is seeded from its own rate, so the
        // output is byte-identical at any thread count (pinned by the
        // parallel-determinism tests).
        let (points, empirical_threshold) = experiment.sweep_and_threshold(
            &spec.sweep.component_rates,
            spec.sweep.threshold_scan_lo,
            spec.sweep.threshold_scan_hi,
            spec.sweep.threshold_scan_points,
            &ctx.executor,
        );
        Fig7Output {
            points,
            empirical_threshold,
        }
    }

    fn report(&self, ctx: &ExperimentContext, output: &Fig7Output) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("trials", ctx.trials)
            .with_param("seed", ctx.seed)
            .with_param("movement_error", ctx.spec.movement_error())
            .with_columns([
                Column::new("physical p"),
                Column::new("level-1 rate"),
                Column::new("level-2 rate"),
                Column::new("encoding helps"),
            ]);
        for p in &output.points {
            r.push_row(row![
                p.physical_rate,
                p.level1_rate,
                p.level2_rate,
                p.level2_rate <= p.level1_rate
            ]);
        }
        match output.empirical_threshold {
            Some(pth) => r.push_note(format!(
                "empirical threshold (level-1 curve crosses y = x): {pth:.2e} \
                 [paper: (2.1 +/- 1.8)e-3]"
            )),
            None => r.push_note("no threshold crossing found in the scanned range"),
        }
        r
    }
}
