//! `trace-replay`: real instruction traces driven end-to-end through both
//! the greedy scheduler and the discrete-event simulator.
//!
//! Three programs from `qla-trace`'s generators — the QCLA adder and a
//! truncated modular exponentiation lowered from `qla-shor`'s resource
//! models, plus a seeded random Clifford+T stream — are hazard-layered,
//! lowered onto the active machine's mesh, planned by `GreedyScheduler`,
//! and replayed through `qla-sim` paced by the plan's layer starts. One
//! row per program shows both models side by side; the simulated window
//! count can only meet or exceed the analytic plan under contention
//! (the established `sim-vs-analytic` invariant, which the
//! `trace_replay_end_to_end` integration test pins for traced programs).
//!
//! [`TraceFileReplay`] is the same replay over caller-supplied trace
//! files (`qla-bench run trace-replay --trace FILE`).

use crate::experiments::round2;
use crate::experiments::trace_support::{replay_trace, ReplayedProgram};
use qla_core::{Experiment, ExperimentContext};
use qla_obs::EventLog;
use qla_report::{row, Column, Report};
use qla_trace::generators::{modexp_program, qcla_adder, random_clifford_t};
use qla_trace::Trace;
use serde::Serialize;
use std::borrow::Borrow;

/// The per-program replay table.
pub struct TraceReplay;

/// Typed output: one replayed program per row of the report.
#[derive(Debug, Clone, Serialize)]
pub struct TraceReplayOutput {
    /// The replayed programs, in program order (adder, modexp, random for
    /// the built-ins; `--trace` order for files).
    pub programs: Vec<ReplayedProgram>,
}

impl Experiment for TraceReplay {
    type Output = TraceReplayOutput;

    fn name(&self) -> &'static str {
        "trace-replay"
    }
    fn title(&self) -> &'static str {
        "Instruction-trace replay — QCLA adder, modexp, and random Clifford+T through scheduler and sim"
    }
    fn description(&self) -> &'static str {
        "Real programs as workloads: per-program windows, sojourn, and utilisation, scheduler vs sim"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &[
            "bandwidth",
            "logical_qubits",
            "interconnect.*",
            "sweep.trace.adder_bits",
            "sweep.trace.modexp_bits",
            "sweep.trace.modexp_multiplier_calls",
            "sweep.trace.random_qubits",
            "sweep.trace.random_ops",
            "sweep.sim.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> TraceReplayOutput {
        self.run_observed(ctx).0
    }

    fn run_observed(&self, ctx: &ExperimentContext) -> (TraceReplayOutput, Vec<EventLog>) {
        let trace_spec = &ctx.spec.sweep.trace;
        replay_programs(ctx, 3, |i| match i {
            0 => qcla_adder(trace_spec.adder_bits),
            1 => modexp_program(trace_spec.modexp_bits, trace_spec.modexp_multiplier_calls),
            _ => random_clifford_t(
                trace_spec.random_qubits,
                trace_spec.random_ops,
                &mut ctx.rng_for_point(i as u64),
            ),
        })
    }

    fn report(&self, ctx: &ExperimentContext, output: &TraceReplayOutput) -> Report {
        let r = Report::new(Experiment::name(self), self.title())
            .with_param("bandwidth", ctx.spec.bandwidth as u64)
            .with_param("adder_bits", ctx.spec.sweep.trace.adder_bits as u64)
            .with_param("modexp_bits", ctx.spec.sweep.trace.modexp_bits as u64)
            .with_param(
                "modexp_multiplier_calls",
                ctx.spec.sweep.trace.modexp_multiplier_calls as u64,
            );
        program_table(r, output)
    }
}

/// `trace-replay` over caller-supplied traces: the experiment behind
/// `qla-bench run trace-replay --trace FILE`. It runs the identical
/// lowering → scheduling → simulation pipeline and report shape as the
/// built-in programs, one row per file in `--trace` order, so file-driven
/// reports stay diffable against the built-in ones. Not in the registry:
/// the CLI builds it from the loaded files.
pub struct TraceFileReplay<'a> {
    /// The parsed traces, in `--trace` order.
    pub traces: &'a [Trace],
}

impl Experiment for TraceFileReplay<'_> {
    type Output = TraceReplayOutput;

    fn name(&self) -> &'static str {
        "trace-replay"
    }
    fn title(&self) -> &'static str {
        "Instruction-trace replay — user-supplied trace files through scheduler and sim"
    }
    fn description(&self) -> &'static str {
        "User trace files as workloads: per-file windows, sojourn, and utilisation, scheduler vs sim"
    }
    fn default_trials(&self) -> usize {
        1
    }

    fn run(&self, ctx: &ExperimentContext) -> TraceReplayOutput {
        self.run_observed(ctx).0
    }

    fn run_observed(&self, ctx: &ExperimentContext) -> (TraceReplayOutput, Vec<EventLog>) {
        replay_programs(ctx, self.traces.len(), |i| &self.traces[i])
    }

    fn report(&self, ctx: &ExperimentContext, output: &TraceReplayOutput) -> Report {
        let r = Report::new(Experiment::name(self), self.title())
            .with_param("bandwidth", ctx.spec.bandwidth as u64)
            .with_param("trace_files", self.traces.len() as u64);
        program_table(r, output)
    }
}

/// The [`TraceFileReplay`] report for `traces` under `ctx`.
#[must_use]
pub fn file_replay_report(ctx: &ExperimentContext, traces: &[Trace]) -> Report {
    qla_core::DynExperiment::run_report(&TraceFileReplay { traces }, ctx)
}

/// Replay `count` programs (program `i` is `trace(i)`) through the
/// context's executor, one labelled per-point log each.
fn replay_programs<T: Borrow<Trace>>(
    ctx: &ExperimentContext,
    count: usize,
    trace: impl Fn(usize) -> T + Sync,
) -> (TraceReplayOutput, Vec<EventLog>) {
    let machine = ctx.machine();
    let sim = &ctx.spec.sweep.sim;
    let (programs, logs) = ctx
        .executor
        .map_indices_observed(count, &ctx.obs(), |i, log| {
            let trace = trace(i);
            let trace = trace.borrow();
            log.set_label(trace.name().to_string());
            replay_trace(trace, &machine, sim, log)
        });
    (TraceReplayOutput { programs }, logs)
}

/// The per-program table shared by both replays: one row per replayed
/// program plus the pipeline note.
fn program_table(r: Report, output: &TraceReplayOutput) -> Report {
    let mut r = r.with_columns([
        Column::new("program"),
        Column::new("qubits"),
        Column::new("ops"),
        Column::new("toffolis"),
        Column::new("hazard layers"),
        Column::new("requests"),
        Column::with_unit("demand", "pairs"),
        Column::new("analytic windows"),
        Column::new("sim windows"),
        Column::new("queueing excess (windows)"),
        Column::with_unit("p99 sojourn", "ms"),
        Column::with_unit("channel util", "%"),
        Column::with_unit("factory util", "%"),
    ]);
    for p in &output.programs {
        r.push_row(row![
            p.program.as_str(),
            p.qubits,
            p.ops,
            p.toffolis,
            p.layers,
            p.requests,
            p.pairs,
            p.analytic_windows,
            p.sim_windows,
            p.queueing_excess,
            round2(p.p99_sojourn_ms),
            round2(p.channel_utilization * 100.0),
            round2(p.factory_utilization * 100.0)
        ]);
    }
    r.push_note(
        "each program is ASAP hazard-layered (same-qubit ops serialise, independent ops \
         batch), lowered onto the machine mesh, window-planned per layer by the greedy \
         scheduler, then replayed through the discrete-event engine paced by the plan's \
         layer starts; sim windows >= analytic windows under contention because the sim \
         also charges queueing, factory occupancy, and admission control",
    );
    r
}
