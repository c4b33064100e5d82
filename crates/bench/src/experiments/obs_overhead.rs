//! `obs-overhead`: the observability layer's zero-overhead contract as a
//! registry artefact.
//!
//! One seeded Toffoli stream is replayed through `qla-sim` three times —
//! recorder off, light, and full — and the experiment *asserts* that all
//! three runs produce the identical [`SimOutcome`](qla_sim::SimOutcome):
//! event-for-event, timing-for-timing. The report then shows what each
//! detail level actually records (spans, instants, counter samples) next
//! to the engine's own event count, so the cost of turning recording on is
//! visible and the cost of leaving it off is provably nothing. This is the
//! executable form of the layer's core promise: tracing observes the
//! simulation, it never steers it.

use crate::experiments::sim_support::{machine_mesh, SteadyState};
use qla_core::{Experiment, ExperimentContext};
use qla_obs::{EventLog, Noop, ObsConfig, ObsDetail};
use qla_report::{row, Column, Report};
use qla_sim::{simulate_observed, FaultTimeline};
use serde::Serialize;

/// The recording-overhead study.
pub struct ObsOverhead;

/// One recorder mode's footprint over the shared workload.
#[derive(Debug, Clone, Serialize)]
pub struct ObsOverheadRow {
    /// Recorder mode: `off`, `light` or `full`.
    pub mode: String,
    /// Discrete events the engine processed (identical in every mode).
    pub sim_events: u64,
    /// Span events the recorder captured.
    pub spans: usize,
    /// Instant events the recorder captured.
    pub instants: usize,
    /// Counter samples the recorder captured.
    pub counters: usize,
    /// Whether this mode's [`SimOutcome`](qla_sim::SimOutcome) equalled
    /// the recorder-off baseline (asserted, so always true in a
    /// completed run).
    pub outcome_identical: bool,
}

/// Typed output: one row per recorder mode, off/light/full order.
#[derive(Debug, Clone, Serialize)]
pub struct ObsOverheadOutput {
    /// The per-mode rows.
    pub rows: Vec<ObsOverheadRow>,
    /// Offered load of the shared workload, Toffolis per window.
    pub offered_load: f64,
    /// Gates in the shared arrival stream.
    pub offered_toffolis: usize,
}

impl Experiment for ObsOverhead {
    type Output = ObsOverheadOutput;

    fn name(&self) -> &'static str {
        "obs-overhead"
    }
    fn title(&self) -> &'static str {
        "qla-obs — recording overhead and the off-mode identity, through qla-sim"
    }
    fn description(&self) -> &'static str {
        "Replays one stream with recording off/light/full and asserts the outcomes are identical"
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
            "sweep.obs.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> ObsOverheadOutput {
        let machine = ctx.machine();
        let sim = &ctx.spec.sweep.sim;
        let sample_every = ctx.spec.sweep.obs.sample_every;
        let mesh = machine_mesh(&machine);
        // The middle offered load of the sweep: busy enough that every
        // track records, without turning the artefact into a soak.
        let offered_load = sim.offered_loads[sim.offered_loads.len() / 2];
        let steady = SteadyState::new(&machine, sim);
        let cfg = &steady.cfg;
        let items = steady.toffoli_stream(&mesh, offered_load, &mut ctx.rng_for_point(0));
        let faults = FaultTimeline::default();

        let baseline = simulate_observed(&mesh, cfg, &items, &faults, &mut Noop);
        let mut rows = vec![ObsOverheadRow {
            mode: "off".to_string(),
            sim_events: baseline.events,
            spans: 0,
            instants: 0,
            counters: 0,
            outcome_identical: true,
        }];
        for (mode, detail) in [("light", ObsDetail::Light), ("full", ObsDetail::Full)] {
            let config = ObsConfig {
                enabled: true,
                detail,
                sample_every,
            };
            let mut log = EventLog::for_point(config, mode);
            let out = simulate_observed(&mesh, cfg, &items, &faults, &mut log);
            assert_eq!(
                out, baseline,
                "recording ({mode}) perturbed the simulation outcome"
            );
            rows.push(ObsOverheadRow {
                mode: mode.to_string(),
                sim_events: out.events,
                spans: log.span_count(),
                instants: log.instant_count(),
                counters: log.counter_count(),
                outcome_identical: out == baseline,
            });
        }
        ObsOverheadOutput {
            rows,
            offered_load,
            offered_toffolis: items.len(),
        }
    }

    fn report(&self, ctx: &ExperimentContext, output: &ObsOverheadOutput) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("seed", ctx.seed)
            .with_param("offered_load", output.offered_load)
            .with_param("offered_toffolis", output.offered_toffolis as u64)
            .with_param("sample_every", ctx.spec.sweep.obs.sample_every as u64)
            .with_columns([
                Column::new("mode"),
                Column::new("sim events"),
                Column::new("spans"),
                Column::new("instants"),
                Column::new("counter samples"),
                Column::new("outcome identical"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.mode.clone(),
                row.sim_events,
                row.spans,
                row.instants,
                row.counters,
                row.outcome_identical
            ]);
        }
        r.push_note(
            "all three runs replay the byte-identical arrival stream; the experiment asserts \
             the engine outcome is event-for-event equal in every mode, so rows differ only \
             in what the recorder captured — recording off provably costs nothing",
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_and_detail_orders_the_event_volume() {
        let ctx = ExperimentContext::new(1, 2005);
        let out = ObsOverhead.run(&ctx);
        assert_eq!(out.rows.len(), 3);
        assert!(out.rows.iter().all(|r| r.outcome_identical));
        let events: Vec<u64> = out.rows.iter().map(|r| r.sim_events).collect();
        assert_eq!(events[0], events[1]);
        assert_eq!(events[0], events[2]);
        let (off, light, full) = (&out.rows[0], &out.rows[1], &out.rows[2]);
        assert_eq!((off.spans, off.instants, off.counters), (0, 0, 0));
        assert!(light.spans > 0 && light.instants > 0);
        assert_eq!(light.counters, 0, "counters are a Full-detail track");
        assert!(full.spans > light.spans, "Full adds per-edge channel spans");
        assert!(full.counters > 0);
    }
}
