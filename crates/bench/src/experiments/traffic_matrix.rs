//! `traffic-matrix`: the four classic interconnect traffic shapes at a
//! fixed offered load.
//!
//! The offered-load studies stress the mesh with *uniform* traffic, which
//! is the kindest possible spatial distribution: every edge sees the same
//! expected demand. Real programs are not kind — ancilla consumers
//! cluster, compilers pin hot regions — so this experiment replays the
//! same arrival pacing through the four canonical matrices
//! ([`TrafficMatrix::ALL`](qla_faults::TrafficMatrix::ALL)) and reports
//! how path length, sojourn tails and channel utilisation move with
//! nothing but the *shape* of the traffic.

use crate::experiments::round2;
use crate::experiments::sim_support::{machine_mesh, SteadyState};
use qla_core::{Experiment, ExperimentContext};
use qla_faults::{matrix_requests, TrafficMatrix};
use qla_report::{row, Column, Report};
use qla_sim::{simulate, RequestOutcome, SimTime, WorkItem};
use serde::Serialize;

/// The traffic-matrix study. Load and hot-spot sizing come from the
/// active spec's `sweep.fault.*` section; the machine is the active
/// profile's.
pub struct TrafficMatrixStudy;

/// One traffic matrix's figures.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficMatrixRow {
    /// Matrix name (`uniform`, `hot-spot`, `nearest-neighbour`,
    /// `all-to-all`).
    pub matrix: String,
    /// Teleport requests the stream offered over the horizon.
    pub requests: usize,
    /// Mean path length of the routed requests, in mesh edges.
    pub mean_hops: f64,
    /// Aggregate EPR-channel utilisation over the measurement phase (0..1).
    pub channel_utilization: f64,
    /// Median request sojourn time, ms (measured requests only).
    pub p50_sojourn_ms: f64,
    /// 99th-percentile request sojourn time, ms.
    pub p99_sojourn_ms: f64,
    /// Error-correction windows until the last request drained.
    pub makespan_windows: usize,
}

/// Typed output: one row per matrix.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficMatrixOutput {
    /// Rows in [`TrafficMatrix::ALL`](qla_faults::TrafficMatrix::ALL)
    /// order.
    pub rows: Vec<TrafficMatrixRow>,
}

impl Experiment for TrafficMatrixStudy {
    type Output = TrafficMatrixOutput;

    fn name(&self) -> &'static str {
        "traffic-matrix"
    }
    fn title(&self) -> &'static str {
        "Traffic matrices — sojourn tails and utilisation vs traffic shape at fixed load"
    }
    fn description(&self) -> &'static str {
        "Uniform, hot-spot, nearest-neighbour and all-to-all streams through the qla-sim mesh"
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
            "sweep.fault.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> TrafficMatrixOutput {
        let machine = ctx.machine();
        let fault = &ctx.spec.sweep.fault;
        let mesh = machine_mesh(&machine);
        let steady = SteadyState::new(&machine, &ctx.spec.sweep.sim);
        let cfg = &steady.cfg;

        // One independently seeded stream per matrix: index-derived seeds
        // keep the rows byte-identical at every job count.
        let rows = ctx.executor.map_indices(TrafficMatrix::ALL.len(), |i| {
            let matrix = TrafficMatrix::ALL[i];
            let requests = matrix_requests(
                &mesh,
                steady.horizon,
                &steady.traffic(fault.matrix_offered_load),
                matrix,
                fault.hotspot_fraction,
                &mut ctx.rng_for_point(i as u64),
            );
            let items: Vec<WorkItem> = requests
                .iter()
                .map(|&(arrival, r)| WorkItem::request(arrival, r))
                .collect();
            let out = simulate(&mesh, cfg, &items);

            let sojourn = steady.sojourn_summary(&out);
            let routed: Vec<&RequestOutcome> = out.requests.iter().filter(|r| r.hops > 0).collect();
            let mean_hops = if routed.is_empty() {
                0.0
            } else {
                routed.iter().map(|r| r.hops as f64).sum::<f64>() / routed.len() as f64
            };

            TrafficMatrixRow {
                matrix: matrix.name().to_string(),
                requests: requests.len(),
                mean_hops,
                channel_utilization: out.channel_utilization(cfg),
                p50_sojourn_ms: SimTime::from_nanos(sojourn.p50_ns).as_millis_f64(),
                p99_sojourn_ms: SimTime::from_nanos(sojourn.p99_ns).as_millis_f64(),
                makespan_windows: out.windows_used(cfg.window),
            }
        });
        TrafficMatrixOutput { rows }
    }

    fn report(&self, ctx: &ExperimentContext, output: &TrafficMatrixOutput) -> Report {
        let fault = &ctx.spec.sweep.fault;
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("seed", ctx.seed)
            .with_param("offered_load", fault.matrix_offered_load)
            .with_param("hotspot_fraction", fault.hotspot_fraction)
            .with_param("burst_factor", ctx.spec.sweep.sim.burst_factor)
            .with_columns([
                Column::new("matrix"),
                Column::new("requests"),
                Column::new("mean hops"),
                Column::with_unit("channel util", "%"),
                Column::with_unit("p50 sojourn", "ms"),
                Column::with_unit("p99 sojourn", "ms"),
                Column::new("makespan (windows)"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.matrix.clone(),
                row.requests,
                round2(row.mean_hops),
                round2(row.channel_utilization * 100.0),
                round2(row.p50_sojourn_ms),
                round2(row.p99_sojourn_ms),
                row.makespan_windows
            ]);
        }
        r.push_note(
            "all four matrices share the same arrival pacing and offered load; only the \
             endpoint distribution changes, so tail and utilisation deltas isolate the \
             spatial shape of the traffic (hot-spot funnels demand into a corner block, \
             nearest-neighbour keeps every request at one hop)",
        );
        r
    }
}
