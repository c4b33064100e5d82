//! `sim-tail-latency`: the per-request sojourn-time distribution at the
//! paper's bandwidth-2 operating point.
//!
//! Mean utilisation is the headline of Section 5, but a mesh that is fine
//! *on average* can still stall its critical path on the tail: one Toffoli
//! whose EPR pairs sit behind a burst delays every gate data-dependent on
//! it. This experiment runs the discrete-event simulator at the design
//! point's bandwidth under a sustained offered load and reports the full
//! quantile ladder of both the communication-request sojourns (release →
//! last pair delivered) and the Toffoli sojourns (arrival → all traffic
//! delivered, including ancilla-factory waiting).

use crate::experiments::round2;
use crate::experiments::sim_support::{machine_mesh, SteadyState};
use qla_core::stats::percentile_u64;
use qla_core::{Experiment, ExperimentContext};
use qla_report::{row, Column, Report};
use qla_sim::{mean_nanos, simulate, sorted_nanos, SimTime};
use serde::Serialize;

/// The tail-latency distribution study.
pub struct SimTailLatency;

/// The quantile ladder of one latency population, in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct TailQuantiles {
    /// Sample size.
    pub count: usize,
    /// Mean, ms.
    pub mean_ms: f64,
    /// `(label, value_ms)` rows: p10 … p99 and the maximum.
    pub quantiles_ms: Vec<(String, f64)>,
}

/// Typed output: request and Toffoli sojourn distributions.
#[derive(Debug, Clone, Serialize)]
pub struct TailLatencyOutput {
    /// Offered load the distribution was sampled at (Toffolis per window).
    pub offered_load: f64,
    /// Communication-request sojourns.
    pub requests: TailQuantiles,
    /// End-to-end Toffoli sojourns.
    pub toffolis: TailQuantiles,
    /// Channel utilisation over the measurement phase (0..1).
    pub channel_utilization: f64,
}

/// The quantile labels of the ladder, in presentation order.
const QUANTILES: [(&str, u32); 7] = [
    ("p10", 10),
    ("p25", 25),
    ("p50", 50),
    ("p75", 75),
    ("p90", 90),
    ("p95", 95),
    ("p99", 99),
];

fn ladder(samples: &[SimTime]) -> TailQuantiles {
    let ns = sorted_nanos(samples);
    let mean_ms = mean_nanos(&ns) / 1e6;
    let mut quantiles_ms: Vec<(String, f64)> = QUANTILES
        .iter()
        .map(|&(label, q)| {
            let v = if ns.is_empty() {
                0
            } else {
                percentile_u64(&ns, q)
            };
            (label.to_string(), v as f64 / 1e6)
        })
        .collect();
    quantiles_ms.push((
        "max".to_string(),
        ns.last().copied().unwrap_or(0) as f64 / 1e6,
    ));
    TailQuantiles {
        count: ns.len(),
        mean_ms,
        quantiles_ms,
    }
}

impl Experiment for SimTailLatency {
    type Output = TailLatencyOutput;

    fn name(&self) -> &'static str {
        "sim-tail-latency"
    }
    fn title(&self) -> &'static str {
        "Discrete-event sim — sojourn-time distribution at the bandwidth-2 design point"
    }
    fn description(&self) -> &'static str {
        "qla-sim tail latency: request and Toffoli sojourn quantiles under sustained load"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &[
            "bandwidth",
            "logical_qubits",
            "interconnect.*",
            "sweep.sim.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> TailLatencyOutput {
        let machine = ctx.machine();
        let sim = &ctx.spec.sweep.sim;
        let mesh = machine_mesh(&machine);
        let steady = SteadyState::new(&machine, sim);
        let items = steady.toffoli_stream(&mesh, sim.tail_offered_load, &mut ctx.rng_for_point(0));
        let out = simulate(&mesh, &steady.cfg, &items);

        let request_sojourns: Vec<SimTime> = steady
            .measured_requests(&out)
            .map(|r| r.completion.saturating_since(r.release))
            .collect();

        TailLatencyOutput {
            offered_load: sim.tail_offered_load,
            requests: ladder(&request_sojourns),
            toffolis: ladder(&steady.sojourns(&out)),
            channel_utilization: out.channel_utilization(&steady.cfg),
        }
    }

    fn report(&self, ctx: &ExperimentContext, output: &TailLatencyOutput) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("seed", ctx.seed)
            .with_param("offered_load", output.offered_load)
            .with_param("bandwidth", ctx.spec.bandwidth as u64)
            .with_param("requests", output.requests.count as u64)
            .with_param("toffolis", output.toffolis.count as u64)
            .with_param(
                "channel_util_percent",
                round2(output.channel_utilization * 100.0),
            )
            .with_columns([
                Column::new("statistic"),
                Column::with_unit("request sojourn", "ms"),
                Column::with_unit("toffoli sojourn", "ms"),
            ]);
        r.push_row(row![
            "mean",
            round2(output.requests.mean_ms),
            round2(output.toffolis.mean_ms)
        ]);
        for ((label, req_ms), (_, tof_ms)) in output
            .requests
            .quantiles_ms
            .iter()
            .zip(&output.toffolis.quantiles_ms)
        {
            r.push_row(row![label.clone(), round2(*req_ms), round2(*tof_ms)]);
        }
        r.push_note(
            "request sojourn: release to last EPR pair delivered; toffoli sojourn adds \
             admission and ancilla-factory waiting. A heavy p99/p50 ratio marks the regime \
             where communication stops hiding behind error correction.",
        );
        r
    }
}
