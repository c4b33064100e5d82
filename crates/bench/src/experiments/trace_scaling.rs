//! `trace-scaling`: how replayed-program cost scales with problem size.
//!
//! Sweeps the QCLA adder across `sweep.trace.scaling_adder_bits` and the
//! truncated modexp program across `sweep.trace.scaling_modexp_bits`,
//! replaying every width end-to-end (hazard layering, greedy window
//! plan, discrete-event run) through the parallel executor — one sweep
//! point per thread, byte-identical at every `--jobs` count. The table
//! exposes how dependency depth, EPR demand, and queueing excess grow
//! with register width, the trace-driven counterpart of the closed-form
//! Table 2 scaling.

use crate::experiments::round2;
use crate::experiments::trace_support::{replay_trace, ReplayedProgram};
use qla_core::{Experiment, ExperimentContext};
use qla_obs::Noop;
use qla_report::{row, Column, Report};
use qla_trace::generators::{modexp_program, qcla_adder};
use serde::Serialize;

/// The program-size sweep.
pub struct TraceScaling;

/// One sweep point: a program family at one register width.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// Program family (`"qcla-adder"` or `"modexp"`).
    pub family: &'static str,
    /// Register width in bits.
    pub bits: usize,
    /// The end-to-end replay at this width.
    pub replay: ReplayedProgram,
}

/// Typed output of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct TraceScalingOutput {
    /// Adder widths first, then modexp widths, each ascending as listed
    /// in the spec.
    pub points: Vec<ScalingPoint>,
}

impl Experiment for TraceScaling {
    type Output = TraceScalingOutput;

    fn name(&self) -> &'static str {
        "trace-scaling"
    }
    fn title(&self) -> &'static str {
        "Instruction-trace scaling — replay cost vs adder width and modexp size"
    }
    fn description(&self) -> &'static str {
        "Program-size sweep: windows, demand, and queueing excess vs register width"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &[
            "bandwidth",
            "logical_qubits",
            "interconnect.*",
            "sweep.trace.scaling_adder_bits",
            "sweep.trace.scaling_modexp_bits",
            "sweep.trace.modexp_multiplier_calls",
            "sweep.sim.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> TraceScalingOutput {
        let machine = ctx.machine();
        let trace_spec = &ctx.spec.sweep.trace;
        let sim = &ctx.spec.sweep.sim;
        let grid: Vec<(&'static str, usize)> = trace_spec
            .scaling_adder_bits
            .iter()
            .map(|&b| ("qcla-adder", b))
            .chain(
                trace_spec
                    .scaling_modexp_bits
                    .iter()
                    .map(|&b| ("modexp", b)),
            )
            .collect();
        let points = ctx.executor.map_indices(grid.len(), |i| {
            let (family, bits) = grid[i];
            let trace = match family {
                "qcla-adder" => qcla_adder(bits),
                _ => modexp_program(bits, trace_spec.modexp_multiplier_calls),
            };
            ScalingPoint {
                family,
                bits,
                replay: replay_trace(&trace, &machine, sim, &mut Noop),
            }
        });
        TraceScalingOutput { points }
    }

    fn report(&self, ctx: &ExperimentContext, output: &TraceScalingOutput) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("bandwidth", ctx.spec.bandwidth as u64)
            .with_param(
                "modexp_multiplier_calls",
                ctx.spec.sweep.trace.modexp_multiplier_calls as u64,
            )
            .with_columns([
                Column::new("family"),
                Column::with_unit("width", "bits"),
                Column::new("qubits"),
                Column::new("ops"),
                Column::new("toffolis"),
                Column::new("hazard layers"),
                Column::with_unit("demand", "pairs"),
                Column::new("analytic windows"),
                Column::new("sim windows"),
                Column::new("queueing excess (windows)"),
                Column::with_unit("p99 sojourn", "ms"),
            ]);
        for p in &output.points {
            r.push_row(row![
                p.family,
                p.bits,
                p.replay.qubits,
                p.replay.ops,
                p.replay.toffolis,
                p.replay.layers,
                p.replay.pairs,
                p.replay.analytic_windows,
                p.replay.sim_windows,
                p.replay.queueing_excess,
                round2(p.replay.p99_sojourn_ms)
            ]);
        }
        r.push_note(
            "every point replays the full pipeline (hazard layering, greedy window plan, \
             discrete-event run) at one register width; points are evaluated through the \
             parallel executor and reassembled in grid order, so output is byte-identical \
             at every --jobs count",
        );
        r
    }
}
