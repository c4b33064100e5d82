//! `factor128-replay`: the committed 128-bit QCLA adder trace replayed
//! through the `--trace FILE` path under `expected` with 1,024 logical
//! qubits (a 59×18 mesh).
//!
//! Host time goes to `sched` (greedy window planning) and `sim` (the
//! discrete-event replay); nothing reaches the Monte-Carlo. The workload
//! has no randomness, so the seed is ignored.

use crate::gate::{self, expect, Gate};
use crate::span::SpanLog;
use crate::Pass;
use qla_bench::experiments::sim_support::{machine_mesh, sim_config};
use qla_bench::experiments::trace_replay::file_replay_report;
use qla_core::{ExperimentContext, MachineSpec};
use qla_report::{Format, Report, Value};
use qla_trace::{schedule_trace, trace_work_items, Placement, Trace, TraceTraffic};
use std::hint::black_box;
use std::time::Instant;

/// The committed trace, resolved against this package so the benchmark
/// runs from any working directory.
pub const TRACE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../crates/bench/tests/data/factor128-qcla-adder.trace"
);
/// Logical qubits of the replay scenario.
const LOGICAL_QUBITS: usize = 1024;
/// Instructions in the committed trace.
const INSTRUCTIONS: usize = 1408;
/// Digest of the JSON report.
pub const PINNED_DIGEST: u64 = 0xdb87_ebf6_0566_ca33;
/// Channel requests the greedy scheduler routes.
const REQUESTS: usize = 4608;
/// Windows the greedy scheduler plans.
const ANALYTIC_WINDOWS: usize = 45;
/// Windows the discrete-event replay spans.
const SIM_WINDOWS: usize = 270;
/// Discrete events the engine processes.
const SIM_EVENTS: u64 = 3_128_514;

/// Per-layer figures from one traced replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReplayLayers {
    /// `Trace::parse`, ms.
    pub parse_ms: f64,
    /// `Placement::spread` + `TraceTraffic::lower` + `trace_work_items`, ms.
    pub lower_ms: f64,
    /// `schedule_trace`, ms.
    pub plan_ms: f64,
    /// Requests planned.
    pub requests: usize,
    /// `simulate`, ms.
    pub replay_ms: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Windows the replay spans.
    pub sim_windows: usize,
    /// Host time of the traced replay, s.
    pub wall_s: f64,
}

/// The workload's state across passes.
pub(crate) struct Factor128 {
    text: String,
    ctx: ExperimentContext,
}

/// The replay scenario: `expected` widened to 1,024 logical qubits.
#[must_use]
pub fn scenario() -> MachineSpec {
    let mut spec = MachineSpec::expected();
    spec.name = "factor128".to_string();
    spec.logical_qubits = LOGICAL_QUBITS;
    spec
}

impl Factor128 {
    /// Read the committed trace.
    ///
    /// # Errors
    /// Fails when the trace file cannot be read.
    pub(crate) fn new(seed: u64) -> Result<Self, String> {
        let text = read_trace()?;
        Ok(Factor128 {
            text,
            ctx: ExperimentContext::new(1, seed).with_spec(scenario()),
        })
    }

    /// One set-up: trace file read, spec validation, machine and mesh
    /// build. Returns seconds.
    pub(crate) fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let text = read_trace()?;
        let spec = scenario();
        spec.validate().map_err(|e| e.to_string())?;
        let machine = spec.machine().map_err(|e| e.to_string())?;
        let mesh = machine_mesh(&machine);
        let elapsed = start.elapsed().as_secs_f64();
        black_box((text, mesh));
        Ok(elapsed)
    }

    /// One replay through the `--trace FILE` path: parse, then
    /// `file_replay_report` (lower, plan, simulate, report), rendered to
    /// JSON.
    pub(crate) fn pass(&mut self, gate: &mut Gate) -> Pass {
        let start = Instant::now();
        let parsed = Trace::parse(&self.text);
        let rendered = parsed.as_ref().map(|trace| {
            let report = file_replay_report(&self.ctx, std::slice::from_ref(trace));
            let json = report.render(Format::Json);
            (report, json)
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut problems = Vec::new();
        match rendered {
            Ok((report, json)) => {
                if let Err(e) = gate::check_digest("factor128 report", &json, PINNED_DIGEST) {
                    problems.push(e);
                }
                let column = |name: &str| report_value(&report, name);
                check_counts(
                    &mut problems,
                    column("requests"),
                    column("analytic windows"),
                    column("sim windows"),
                );
            }
            Err(e) => problems.push(format!("factor128 trace does not parse: {e}")),
        }
        gate.record(problems);
        Pass {
            wall_s,
            work: INSTRUCTIONS as f64,
            latencies_s: vec![wall_s],
        }
    }

    /// The same pipeline stage by stage with a span around each call.
    pub(crate) fn traced_pass(&mut self, gate: &mut Gate, log: &mut SpanLog) -> ReplayLayers {
        let start = Instant::now();
        let mut problems = Vec::new();
        let layers = log.span("bench.factor128", |log| {
            let trace = log.span("trace.parse", |_| Trace::parse(&self.text));
            let trace = match trace {
                Ok(trace) => trace,
                Err(e) => {
                    problems.push(format!("factor128 trace does not parse: {e}"));
                    return None;
                }
            };
            let (mesh, cfg) = log.span("core.machine", |_| {
                let machine = self.ctx.machine();
                (
                    machine_mesh(&machine),
                    sim_config(&machine, &self.ctx.spec.sweep.sim, None),
                )
            });
            let traffic = log.span("trace.lower", |_| {
                let placement = Placement::spread(&mesh, &trace);
                TraceTraffic::lower(&trace, &mesh, &placement)
            });
            let plan = log.span("sched.plan", |_| schedule_trace(&traffic, &mesh));
            let items = log.span("trace.work_items", |_| {
                trace_work_items(&traffic, &plan, cfg.window)
            });
            let outcome = log.span("sim.replay", |_| qla_sim::simulate(&mesh, &cfg, &items));
            Some((plan, outcome.events, outcome.windows_used(cfg.window)))
        });
        let wall_s = start.elapsed().as_secs_f64();
        let ms = |name: &str| log.duration_of(name).unwrap_or(0) as f64 / 1e6;
        let result = match layers {
            Some((plan, events, sim_windows)) => {
                check_counts(
                    &mut problems,
                    Some(plan.requests as u64),
                    Some(plan.total_windows as u64),
                    Some(sim_windows as u64),
                );
                expect(&mut problems, events == SIM_EVENTS, || {
                    format!("factor128 sim processed {events} events, pinned {SIM_EVENTS}")
                });
                ReplayLayers {
                    parse_ms: ms("trace.parse"),
                    lower_ms: ms("trace.lower") + ms("trace.work_items"),
                    plan_ms: ms("sched.plan"),
                    requests: plan.requests,
                    replay_ms: ms("sim.replay"),
                    events,
                    sim_windows,
                    wall_s,
                }
            }
            None => ReplayLayers {
                parse_ms: 0.0,
                lower_ms: 0.0,
                plan_ms: 0.0,
                requests: 0,
                replay_ms: 0.0,
                events: 0,
                sim_windows: 0,
                wall_s,
            },
        };
        gate.record(problems);
        result
    }
}

fn read_trace() -> Result<String, String> {
    std::fs::read_to_string(TRACE_PATH).map_err(|e| format!("cannot read {TRACE_PATH}: {e}"))
}

/// The unsigned value in the report's only row under column `name`.
fn report_value(report: &Report, name: &str) -> Option<u64> {
    let index = report.columns.iter().position(|c| c.name == name)?;
    match report.rows.first()?.get(index)? {
        Value::UInt(v) => Some(*v),
        Value::Int(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// Requests, analytic and simulated windows against the pinned counts,
/// and the `sim ≥ analytic` invariant.
fn check_counts(
    problems: &mut Vec<String>,
    requests: Option<u64>,
    analytic: Option<u64>,
    sim: Option<u64>,
) {
    let pinned = |what: &str, got: Option<u64>, want: usize, problems: &mut Vec<String>| {
        expect(problems, got == Some(want as u64), || {
            format!("factor128 {what} = {got:?}, pinned {want}")
        });
    };
    pinned("requests", requests, REQUESTS, problems);
    pinned("analytic windows", analytic, ANALYTIC_WINDOWS, problems);
    pinned("sim windows", sim, SIM_WINDOWS, problems);
    expect(problems, sim >= analytic, || {
        format!("factor128 sim windows {sim:?} below analytic {analytic:?}")
    });
}
