//! Shared replay wiring for the instruction-trace experiments: one place
//! lowers a [`Trace`] onto the active machine and runs it through *both*
//! the greedy scheduler and the discrete-event engine, so `trace-replay`
//! and `trace-scaling` can never diverge in how they charge a program.

use crate::experiments::sim_support::{machine_mesh, sim_config};
use qla_core::{QlaMachine, SimSpec};
use qla_obs::Recorder;
use qla_sim::{simulate_observed, FaultTimeline, LatencySummary};
use qla_trace::{schedule_trace, trace_work_items, Placement, Trace, TraceTraffic};
use serde::Serialize;

/// One program replayed end-to-end through both models.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayedProgram {
    /// The trace's program name.
    pub program: String,
    /// Declared logical qubits.
    pub qubits: usize,
    /// Instructions in the stream.
    pub ops: usize,
    /// Toffoli instructions.
    pub toffolis: usize,
    /// T/T† instructions.
    pub t_gates: usize,
    /// ASAP hazard layers (dependency depth).
    pub layers: usize,
    /// Hazard layers issuing at least one EPR request.
    pub comm_layers: usize,
    /// Channel requests issued.
    pub requests: usize,
    /// EPR pairs demanded.
    pub pairs: usize,
    /// Windows the greedy scheduler plans, summed over layers.
    pub analytic_windows: usize,
    /// Windows the discrete-event replay spans.
    pub sim_windows: usize,
    /// `sim_windows - analytic_windows`: the queueing, factory, and
    /// admission delay the analytic plan cannot see (never negative
    /// under contention — the invariant the integration test pins).
    pub queueing_excess: i64,
    /// Median per-gate sojourn (arrival to communication complete), ms.
    pub p50_sojourn_ms: f64,
    /// 99th-percentile per-gate sojourn, ms.
    pub p99_sojourn_ms: f64,
    /// Simulated channel utilisation over the makespan.
    pub channel_utilization: f64,
    /// Simulated ancilla-factory utilisation over the makespan.
    pub factory_utilization: f64,
    /// Discrete events processed by the engine.
    pub events: u64,
}

/// Lower `trace` onto the machine's mesh (loudly refusing a program
/// wider than the fabric), plan it with the greedy scheduler, then
/// replay the identical per-layer demand through the simulator paced by
/// the plan's layer starts, mirroring the simulator's event stream into
/// `rec` (pass [`qla_obs::Noop`] to record nothing — the outcome is
/// byte-identical either way).
#[must_use]
pub fn replay_trace(
    trace: &Trace,
    machine: &QlaMachine,
    sim: &SimSpec,
    rec: &mut dyn Recorder,
) -> ReplayedProgram {
    let mesh = machine_mesh(machine);
    let placement = Placement::spread(&mesh, trace);
    let traffic = TraceTraffic::lower(trace, &mesh, &placement);
    let plan = schedule_trace(&traffic, &mesh);
    let cfg = sim_config(machine, sim, None);
    let items = trace_work_items(&traffic, &plan, cfg.window);
    let outcome = simulate_observed(&mesh, &cfg, &items, &FaultTimeline::default(), rec);
    let sojourn = LatencySummary::of(&outcome.sojourns());
    let counts = trace.counts();
    let sim_windows = outcome.windows_used(cfg.window);
    ReplayedProgram {
        program: trace.name().to_string(),
        qubits: trace.qubit_count(),
        ops: trace.len(),
        toffolis: counts.toffoli,
        t_gates: counts.t_like,
        layers: traffic.layers.len(),
        comm_layers: traffic.comm_layers(),
        requests: plan.requests,
        pairs: plan.pairs,
        analytic_windows: plan.total_windows,
        sim_windows,
        queueing_excess: sim_windows as i64 - plan.total_windows as i64,
        p50_sojourn_ms: sojourn.p50_ns as f64 / 1e6,
        p99_sojourn_ms: sojourn.p99_ns as f64 / 1e6,
        channel_utilization: outcome.channel_utilization(&cfg),
        factory_utilization: outcome.factory_utilization(&cfg),
        events: outcome.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qla_core::MachineSpec;
    use qla_trace::generators::qcla_adder;

    #[test]
    fn replay_fills_every_field_consistently() {
        let spec = MachineSpec::expected();
        let machine = spec.machine().unwrap();
        let trace = qcla_adder(4);
        let r = replay_trace(&trace, &machine, &spec.sweep.sim, &mut qla_obs::Noop);
        assert_eq!(r.program, "qcla-adder-4");
        assert_eq!(r.ops, trace.len());
        assert_eq!(r.toffolis, 16);
        assert!(r.comm_layers <= r.layers);
        assert!(r.requests > 0 && r.pairs > 0);
        assert!(r.analytic_windows > 0);
        assert_eq!(
            r.queueing_excess,
            r.sim_windows as i64 - r.analytic_windows as i64
        );
        assert!(r.p99_sojourn_ms >= r.p50_sojourn_ms);
        assert!(r.channel_utilization > 0.0 && r.channel_utilization <= 1.0);
        assert!(r.events > 0);
    }
}
