//! `sim-offered-load`: utilisation and queueing delay vs offered Toffoli
//! load, from the discrete-event simulator.
//!
//! The analytic scheduler study asks "how many windows does this *batch*
//! take"; this experiment asks the question the paper's overlap claim
//! actually turns on: when Toffoli gates *keep arriving* — bursty, at a
//! configurable offered load — do the EPR channels and the ancilla factory
//! drain them as fast as they come, and what queueing delay builds up when
//! they do not? Each offered-load point replays an independent seeded
//! arrival stream through `qla-sim` and reports channel/factory
//! utilisation, the mean per-request queueing delay against the closed-form
//! uncontended prediction, and the sojourn-time quantiles of the measured
//! gates.

use crate::experiments::round2;
use crate::experiments::sim_support::{machine_mesh, SteadyState};
use qla_core::{Experiment, ExperimentContext};
use qla_obs::EventLog;
use qla_report::{row, Column, Report};
use qla_sim::{simulate_observed, FaultTimeline, LatencySummary, SimTime};
use serde::Serialize;

/// The offered-load sweep. Loads, burstiness, queue depths and horizons
/// come from the active machine spec's `sweep.sim.*` section.
pub struct SimOfferedLoad;

/// One offered-load point.
#[derive(Debug, Clone, Serialize)]
pub struct OfferedLoadRow {
    /// Offered load, Toffoli gates per error-correction window.
    pub offered_load: f64,
    /// Gates the arrival stream offered over the whole horizon.
    pub offered_toffolis: usize,
    /// Aggregate EPR-channel utilisation over the measurement phase (0..1).
    pub channel_utilization: f64,
    /// Ancilla-factory utilisation over the measurement phase (0..1).
    pub factory_utilization: f64,
    /// Mean per-request EPR-channel queueing delay (ms) against the
    /// closed-form uncontended completion (excludes admission and
    /// ancilla-factory waiting, which the sojourn columns capture).
    pub mean_queue_delay_ms: f64,
    /// Median gate sojourn time, ms (measured gates only).
    pub p50_sojourn_ms: f64,
    /// 99th-percentile gate sojourn time, ms.
    pub p99_sojourn_ms: f64,
    /// Error-correction windows until the last gate drained.
    pub makespan_windows: usize,
    /// Events the engine processed.
    pub events: u64,
}

/// Typed output of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct OfferedLoadOutput {
    /// One row per offered load, in spec order.
    pub rows: Vec<OfferedLoadRow>,
    /// Rounds per window of one channel (`m`), for context.
    pub pairs_per_window: usize,
}

impl Experiment for SimOfferedLoad {
    type Output = OfferedLoadOutput;

    fn name(&self) -> &'static str {
        "sim-offered-load"
    }
    fn title(&self) -> &'static str {
        "Discrete-event sim — utilisation and queueing delay vs offered Toffoli load"
    }
    fn description(&self) -> &'static str {
        "qla-sim offered-load sweep: channel/factory utilisation, queueing delay, sojourn tails"
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

    fn run(&self, ctx: &ExperimentContext) -> OfferedLoadOutput {
        self.run_observed(ctx).0
    }

    fn run_observed(&self, ctx: &ExperimentContext) -> (OfferedLoadOutput, Vec<EventLog>) {
        let machine = ctx.machine();
        let sim = &ctx.spec.sweep.sim;
        let mesh = machine_mesh(&machine);
        let steady = SteadyState::new(&machine, sim);
        let cfg = &steady.cfg;

        // Every load point replays an independently seeded stream, so the
        // points can be evaluated concurrently (or re-run singly) without
        // changing a byte; index order keeps the row order of the spec.
        let (rows, logs) =
            ctx.executor
                .map_indices_observed(sim.offered_loads.len(), &ctx.obs(), |i, log| {
                    let offered_load = sim.offered_loads[i];
                    log.set_label(format!("offered-load-{offered_load}"));
                    let items = steady.toffoli_stream(
                        &mesh,
                        offered_load,
                        &mut ctx.rng_for_point(i as u64),
                    );
                    let out = simulate_observed(&mesh, cfg, &items, &FaultTimeline::default(), log);

                    // Statistics cover the gates that arrived after warm-up.
                    let sojourn = steady.sojourn_summary(&out);
                    let delays: Vec<SimTime> = steady
                        .measured_requests(&out)
                        .map(|r| {
                            r.completion
                                .saturating_since(cfg.uncontended_completion(r.release, r.pairs))
                        })
                        .collect();
                    let delay = LatencySummary::of(&delays);

                    OfferedLoadRow {
                        offered_load,
                        offered_toffolis: items.len(),
                        channel_utilization: out.channel_utilization(cfg),
                        factory_utilization: out.factory_utilization(cfg),
                        mean_queue_delay_ms: delay.mean_ms(),
                        p50_sojourn_ms: SimTime::from_nanos(sojourn.p50_ns).as_millis_f64(),
                        p99_sojourn_ms: SimTime::from_nanos(sojourn.p99_ns).as_millis_f64(),
                        makespan_windows: out.windows_used(cfg.window),
                        events: out.events,
                    }
                });
        (
            OfferedLoadOutput {
                rows,
                pairs_per_window: machine.epr_pairs_per_ecc_window(),
            },
            logs,
        )
    }

    fn report(&self, ctx: &ExperimentContext, output: &OfferedLoadOutput) -> Report {
        let sim = &ctx.spec.sweep.sim;
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("seed", ctx.seed)
            .with_param("burst_factor", sim.burst_factor)
            .with_param("ancilla_capacity", sim.ancilla_capacity as u64)
            .with_param("max_in_flight", sim.max_in_flight as u64)
            .with_param("warmup_windows", sim.warmup_windows as u64)
            .with_param("measure_windows", sim.measure_windows as u64)
            .with_param("pairs_per_window", output.pairs_per_window as u64)
            .with_columns([
                Column::with_unit("offered load", "tof/win"),
                Column::new("toffolis"),
                Column::with_unit("channel util", "%"),
                Column::with_unit("factory util", "%"),
                Column::with_unit("mean chan delay", "ms"),
                Column::with_unit("p50 sojourn", "ms"),
                Column::with_unit("p99 sojourn", "ms"),
                Column::new("makespan (windows)"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.offered_load,
                row.offered_toffolis,
                round2(row.channel_utilization * 100.0),
                round2(row.factory_utilization * 100.0),
                round2(row.mean_queue_delay_ms),
                round2(row.p50_sojourn_ms),
                round2(row.p99_sojourn_ms),
                row.makespan_windows
            ]);
        }
        r.push_note(
            "queueing delay is measured against the closed-form uncontended completion; \
             it rises sharply once the offered load crosses the ancilla-factory or \
             channel capacity (the saturation the analytic window-packing model cannot see)",
        );
        r
    }
}
