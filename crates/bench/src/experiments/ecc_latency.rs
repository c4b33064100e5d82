//! Section 4.1.1: error-correction step latencies from the structural model
//! of Equation 1, the comparison with the published constants, and the
//! serial-ancilla ablation.

use qla_core::{Experiment, ExperimentContext};
use qla_qec::{EccLatencies, EccLatencyModel, ScheduleShape};
use qla_report::{row, Column, Report};
use serde::Serialize;

/// The Equation 1 latency experiment (deterministic; ignores trials).
pub struct EccLatency;

/// One recursion level's latencies, in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct EccLatencyRow {
    /// Recursion level.
    pub level: u32,
    /// Logical-ancilla preparation time.
    pub ancilla_prep_ms: f64,
    /// Syndrome-extraction time.
    pub syndrome_ms: f64,
    /// ECC step with a trivial syndrome.
    pub ecc_trivial_ms: f64,
    /// ECC step at the paper's expected non-trivial-syndrome rates.
    pub ecc_expected_ms: f64,
}

/// Typed output: per-level rows plus the paper comparison and ablation.
#[derive(Debug, Clone, Serialize)]
pub struct EccLatencyOutput {
    /// Levels 1..=3.
    pub rows: Vec<EccLatencyRow>,
    /// The model's level-1/level-2 step latencies.
    pub model: (f64, f64),
    /// The paper's published constants (0.003 s, 0.043 s).
    pub paper: (f64, f64),
    /// Level-2 trivial-syndrome step with serial ancilla handling (an
    /// ablation every report carries), in milliseconds.
    pub serial_ablation_ms: f64,
}

impl Experiment for EccLatency {
    type Output = EccLatencyOutput;

    fn name(&self) -> &'static str {
        "ecc-latency"
    }
    fn title(&self) -> &'static str {
        "Section 4.1.1 — error-correction step latency (Equation 1)"
    }
    fn description(&self) -> &'static str {
        "Structural Eq. 1 latencies per recursion level vs the published constants"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &["tech.time.*"]
    }

    fn run(&self, ctx: &ExperimentContext) -> EccLatencyOutput {
        let model = EccLatencyModel::new(ctx.spec.tech, ScheduleShape::default());
        let (r1, r2) = EccLatencyModel::paper_nontrivial_rates();
        let rows = (1..=3u32)
            .map(|level| {
                let rate = if level == 1 { r1 } else { r2 };
                EccLatencyRow {
                    level,
                    ancilla_prep_ms: model.ancilla_prep(level).as_millis(),
                    syndrome_ms: model.syndrome_extraction(level).as_millis(),
                    ecc_trivial_ms: model.ecc_step_trivial(level).as_millis(),
                    ecc_expected_ms: model.ecc_step_expected(level, rate).as_millis(),
                }
            })
            .collect();

        let ours = EccLatencies::from_model(&model);
        let paper = EccLatencies::paper();

        // Ablation: double the effective encoding depth to emulate serial
        // ancilla handling at level 2 (the paper notes Eq. 1 overestimates
        // for exactly this reason).
        let shape = ScheduleShape {
            encode_depth_2q: ScheduleShape::default().encode_depth_2q * 2,
            verify_depth_2q: ScheduleShape::default().verify_depth_2q * 2,
            ..ScheduleShape::default()
        };
        let serial_model = EccLatencyModel::new(model.tech, shape);

        EccLatencyOutput {
            rows,
            model: (ours.level1.as_secs(), ours.level2.as_secs()),
            paper: (paper.level1.as_secs(), paper.level2.as_secs()),
            serial_ablation_ms: serial_model.ecc_step_trivial(2).as_millis(),
        }
    }

    fn report(&self, _ctx: &ExperimentContext, output: &EccLatencyOutput) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title()).with_columns([
            Column::new("level"),
            Column::with_unit("ancilla prep", "ms"),
            Column::with_unit("syndrome", "ms"),
            Column::with_unit("ECC (trivial)", "ms"),
            Column::with_unit("ECC (expected)", "ms"),
        ]);
        for row in &output.rows {
            r.push_row(row![
                row.level,
                row.ancilla_prep_ms,
                row.syndrome_ms,
                row.ecc_trivial_ms,
                row.ecc_expected_ms
            ]);
        }
        r.push_note(format!(
            "model vs paper constants — level 1: {:.4} s vs {} s, level 2: {:.4} s vs {} s",
            output.model.0, output.paper.0, output.model.1, output.paper.1
        ));
        r.push_note(format!(
            "serial-ancilla ablation: level-2 trivial ECC step {:.2} ms",
            output.serial_ablation_ms
        ));
        r
    }
}
