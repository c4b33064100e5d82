//! `sim-vs-analytic`: cross-validation of the discrete-event simulator
//! against the greedy window-packing scheduler.
//!
//! Both models quantise EPR delivery into error-correction windows from the
//! same derived per-channel budget, so in the **uncontended** regime — one
//! flow on a dedicated corridor, the topology of the Figure 9 point-to-point
//! study — their window counts must agree *exactly*, light (one teleport)
//! or saturated (more than a window of demand). Under **contention** the
//! models legitimately part ways: the greedy scheduler re-routes around
//! saturated links with global per-window knowledge, while the simulator's
//! FIFO channels serve statically routed flows — so the simulated count is
//! an upper bound (`sim ≥ analytic`), and the gap is the queueing the
//! analytic model averages away. The table spans the Figure 9 distance
//! grid; divergence anywhere *uncontended*, or `sim < analytic` anywhere at
//! all, is a modelling bug, and the golden/property tests pin exactly that.

use crate::experiments::sim_support::sim_config;
use qla_core::{Experiment, ExperimentContext};
use qla_report::{row, Column, Report};
use qla_sched::{CommRequest, GreedyScheduler, Mesh, PAIRS_PER_LOGICAL_TELEPORT};
use qla_sim::{simulate, SimTime, WorkItem};
use serde::Serialize;

/// Rows of the contended corridor mesh: a middle data row plus one detour
/// row on each side for the greedy scheduler to re-route through.
const CORRIDOR_ROWS: usize = 3;

/// Window budget offered to the greedy scheduler (generous: demand at these
/// sizes fits in a handful of windows).
const ANALYTIC_WINDOW_BUDGET: usize = 1_024;

/// The cross-validation table.
pub struct SimVsAnalytic;

/// One regime comparison: analytic vs simulated window count.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WindowComparison {
    /// Total EPR pairs demanded.
    pub pairs: usize,
    /// Windows the greedy scheduler packs the demand into.
    pub analytic_windows: usize,
    /// Windows the discrete-event run spans.
    pub sim_windows: usize,
}

impl WindowComparison {
    /// Whether the two models agree exactly.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.analytic_windows == self.sim_windows
    }
}

/// One distance of the Figure 9 grid.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct VsAnalyticRow {
    /// Endpoint separation in cells.
    pub distance_cells: usize,
    /// Mesh hops between the endpoints (distance over tile pitch).
    pub hops: usize,
    /// One logical teleport on a dedicated corridor.
    pub light: WindowComparison,
    /// More than one window of demand on a dedicated corridor.
    pub saturated: WindowComparison,
    /// `contended_requests` simultaneous teleports sharing the corridor.
    pub contended: WindowComparison,
}

/// Typed output of the cross-validation.
#[derive(Debug, Clone, Serialize)]
pub struct VsAnalyticOutput {
    /// One row per sampled Figure 9 distance.
    pub rows: Vec<VsAnalyticRow>,
    /// Per-edge per-window pair capacity both models share.
    pub pairs_per_window_per_edge: usize,
}

impl Experiment for SimVsAnalytic {
    type Output = VsAnalyticOutput;

    fn name(&self) -> &'static str {
        "sim-vs-analytic"
    }
    fn title(&self) -> &'static str {
        "Discrete-event sim vs greedy scheduler — window counts across the Fig. 9 distances"
    }
    fn description(&self) -> &'static str {
        "Cross-validation: simulated vs analytic EPR window counts, uncontended and contended"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &[
            "bandwidth",
            "interconnect.*",
            "sweep.distance_step_cells",
            "sweep.distance_max_cells",
            "sweep.sim.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> VsAnalyticOutput {
        let machine = ctx.machine();
        let cfg = sim_config(&machine, &ctx.spec.sweep.sim, None);
        let pitch = machine.floorplan.tile.pitch_x_cells();
        let bandwidth = machine.config.bandwidth;
        let m = cfg.pairs_per_window;
        let channels = cfg.channels_per_edge;
        let contended_requests = ctx.spec.sweep.sim.contended_requests;

        // Every other Figure 9 distance: the table stays readable and a
        // full corridor simulation per point stays cheap.
        let step = ctx.spec.sweep.distance_step_cells;
        let distances: Vec<usize> = (step..=ctx.spec.sweep.distance_max_cells)
            .step_by(step * 2)
            .collect();
        // Saturated demand: one full window of edge capacity plus one more
        // teleport, guaranteeing a multi-window uncontended comparison.
        let saturated_pairs = channels * m + PAIRS_PER_LOGICAL_TELEPORT;

        let rows = ctx.executor.map_indices(distances.len(), |i| {
            let distance_cells = distances[i];
            let hops = (distance_cells / pitch).max(1);

            // Uncontended regimes: a dedicated 1-row corridor (the Fig. 9
            // point-to-point channel).
            let corridor = Mesh::new(hops + 1, 1, bandwidth).with_pairs_per_window(m);
            let light = compare(&corridor, &cfg, 0, hops, PAIRS_PER_LOGICAL_TELEPORT, 1);
            let saturated = compare(&corridor, &cfg, 0, hops, saturated_pairs, 1);

            // Contended regime: the same flow replicated `contended_requests`
            // times on a 3-row corridor whose detour rows the greedy
            // scheduler may exploit but the statically routed sim does not.
            let wide = Mesh::new(hops + 1, CORRIDOR_ROWS, bandwidth).with_pairs_per_window(m);
            let from = hops + 1; // (column 0, middle row)
            let contended = compare(
                &wide,
                &cfg,
                from,
                from + hops,
                PAIRS_PER_LOGICAL_TELEPORT,
                contended_requests,
            );

            VsAnalyticRow {
                distance_cells,
                hops,
                light,
                saturated,
                contended,
            }
        });
        VsAnalyticOutput {
            rows,
            pairs_per_window_per_edge: channels * m,
        }
    }

    fn report(&self, ctx: &ExperimentContext, output: &VsAnalyticOutput) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("bandwidth", ctx.spec.bandwidth as u64)
            .with_param(
                "pairs_per_window_per_edge",
                output.pairs_per_window_per_edge as u64,
            )
            .with_param(
                "contended_requests",
                ctx.spec.sweep.sim.contended_requests as u64,
            )
            .with_columns([
                Column::with_unit("distance", "cells"),
                Column::new("hops"),
                Column::new("light analytic"),
                Column::new("light sim"),
                Column::new("saturated analytic"),
                Column::new("saturated sim"),
                Column::new("uncontended agree"),
                Column::new("contended analytic"),
                Column::new("contended sim"),
                Column::new("queueing excess (windows)"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.distance_cells,
                row.hops,
                row.light.analytic_windows,
                row.light.sim_windows,
                row.saturated.analytic_windows,
                row.saturated.sim_windows,
                row.light.agrees() && row.saturated.agrees(),
                row.contended.analytic_windows,
                row.contended.sim_windows,
                row.contended.sim_windows as i64 - row.contended.analytic_windows as i64
            ]);
        }
        r.push_note(
            "uncontended regimes must agree exactly (both models quantise to the same \
             per-window channel budget); under contention the greedy scheduler re-routes \
             around saturated links while FIFO channels queue, so sim >= analytic and the \
             excess is the congestion the closed-form model averages away",
        );
        r
    }
}

/// Run both models on `count` identical `pairs`-sized requests between
/// `from` and `to`, injected at t = 0.
fn compare(
    mesh: &Mesh,
    cfg: &qla_sim::SimConfig,
    from: usize,
    to: usize,
    pairs: usize,
    count: usize,
) -> WindowComparison {
    let requests: Vec<CommRequest> = (0..count)
        .map(|_| CommRequest { from, to, pairs })
        .collect();

    let mut scheduler = GreedyScheduler::new(mesh.clone());
    scheduler.max_windows = ANALYTIC_WINDOW_BUDGET;
    let analytic = scheduler.schedule(&requests);
    assert!(
        analytic.fully_satisfied(),
        "greedy scheduler could not satisfy {count}x{pairs} pairs within \
         {ANALYTIC_WINDOW_BUDGET} windows"
    );

    let items: Vec<WorkItem> = requests
        .iter()
        .map(|&r| WorkItem::request(SimTime::ZERO, r))
        .collect();
    let sim = simulate(mesh, cfg, &items);

    WindowComparison {
        pairs: pairs * count,
        analytic_windows: analytic.windows_used,
        sim_windows: sim.windows_used(cfg.window),
    }
}
