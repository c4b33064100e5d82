//! `fault-sweep`: tail latency and throughput vs fault severity, across
//! every built-in machine profile.
//!
//! The sensitivity matrix asks how the *healthy* machine figures move
//! across technology profiles; this experiment asks the operational
//! question underneath them: when a slice of the EPR interconnect browns
//! out mid-run — purification tiers falling behind, factory slots lost to
//! recalibration — how far do the sojourn tails and the makespan move,
//! and does the machine recover once capacity returns? Each (profile,
//! severity) point turns the spec's `sweep.fault.*` section into the
//! profile's fault timeline at that severity
//! ([`qla_faults::severity_timeline`]) and replays the *same* seeded
//! Toffoli stream through `qla-sim`, so within a profile the rows differ
//! only in the injected faults.

use crate::experiments::round2;
use crate::experiments::sim_support::{machine_mesh, SteadyState};
use qla_core::{Experiment, ExperimentContext, MachineSpec, BUILTIN_PROFILES};
use qla_faults::severity_timeline;
use qla_obs::EventLog;
use qla_report::{row, Column, Report};
use qla_sim::{simulate_observed, SimTime};
use serde::Serialize;

/// The cross-profile fault-severity sweep. Severities, fault geometry and
/// background load come from the active spec's `sweep.fault.*` section.
pub struct FaultSweep;

/// One (profile, severity) point.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweepRow {
    /// Machine profile name.
    pub profile: String,
    /// Fault severity (0 = healthy, 1 = full outage of the faulted slice).
    pub severity: f64,
    /// Mesh edges the fault timeline degrades at this severity.
    pub degraded_edges: usize,
    /// Gates the arrival stream offered over the whole horizon.
    pub offered_toffolis: usize,
    /// Aggregate EPR-channel utilisation over the measurement phase (0..1).
    pub channel_utilization: f64,
    /// Median gate sojourn time, ms (measured gates only).
    pub p50_sojourn_ms: f64,
    /// 99th-percentile gate sojourn time, ms.
    pub p99_sojourn_ms: f64,
    /// Error-correction windows until the last gate drained.
    pub makespan_windows: usize,
}

/// Typed output of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweepOutput {
    /// One row per (profile, severity), profile-major, in spec order.
    pub rows: Vec<FaultSweepRow>,
}

impl Experiment for FaultSweep {
    type Output = FaultSweepOutput;

    fn name(&self) -> &'static str {
        "fault-sweep"
    }
    fn title(&self) -> &'static str {
        "Fault injection — sojourn tails and makespan vs fault severity, per profile"
    }
    fn description(&self) -> &'static str {
        "Channel/factory fault plans replayed across built-in profiles: p50/p99 sojourn, makespan"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        // Machines span the built-ins; the active spec contributes the
        // engine sizing and the fault geometry.
        &["sweep.sim.*", "sweep.fault.*"]
    }

    fn run(&self, ctx: &ExperimentContext) -> FaultSweepOutput {
        self.run_observed(ctx).0
    }

    fn run_observed(&self, ctx: &ExperimentContext) -> (FaultSweepOutput, Vec<EventLog>) {
        let sim = &ctx.spec.sweep.sim;
        let fault = &ctx.spec.sweep.fault;

        // Profile-major point grid. The traffic RNG is derived from the
        // *profile* index, so every severity of a profile replays the
        // byte-identical arrival stream and the rows isolate the fault.
        let specs = MachineSpec::builtins();
        let points: Vec<(usize, &MachineSpec, f64)> = specs
            .iter()
            .enumerate()
            .flat_map(|(p, spec)| fault.severities.iter().map(move |&s| (p, spec, s)))
            .collect();

        let (rows, logs) = ctx
            .executor
            .map_indices_observed(points.len(), &ctx.obs(), |i, log| {
                let (profile_idx, spec, severity) = points[i];
                log.set_label(format!("{}-severity-{severity}", spec.name));
                let machine = spec.machine().expect("built-in profiles are valid");
                let mesh = machine_mesh(&machine);
                let steady = SteadyState::new(&machine, sim);
                let cfg = &steady.cfg;
                let items = steady.toffoli_stream(
                    &mesh,
                    fault.traffic_offered_load,
                    &mut ctx.rng_for_point(profile_idx as u64),
                );
                let timeline = severity_timeline(fault, &mesh, cfg, severity);
                let out = simulate_observed(&mesh, cfg, &items, &timeline, log);
                let sojourn = steady.sojourn_summary(&out);

                FaultSweepRow {
                    profile: spec.name.clone(),
                    severity,
                    degraded_edges: timeline.channel_faults.len(),
                    offered_toffolis: items.len(),
                    channel_utilization: out.channel_utilization(cfg),
                    p50_sojourn_ms: SimTime::from_nanos(sojourn.p50_ns).as_millis_f64(),
                    p99_sojourn_ms: SimTime::from_nanos(sojourn.p99_ns).as_millis_f64(),
                    makespan_windows: out.windows_used(cfg.window),
                }
            });
        (FaultSweepOutput { rows }, logs)
    }

    fn report(&self, ctx: &ExperimentContext, output: &FaultSweepOutput) -> Report {
        let fault = &ctx.spec.sweep.fault;
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("seed", ctx.seed)
            .with_param("profiles", BUILTIN_PROFILES.join(","))
            .with_param("offered_load", fault.traffic_offered_load)
            .with_param("degraded_edge_fraction", fault.degraded_edge_fraction)
            .with_param("onset_windows", fault.onset_windows as u64)
            .with_param("duration_windows", fault.duration_windows as u64)
            .with_param("factory_loss", fault.factory_loss)
            .with_columns([
                Column::new("profile"),
                Column::new("severity"),
                Column::new("degraded edges"),
                Column::new("toffolis"),
                Column::with_unit("channel util", "%"),
                Column::with_unit("p50 sojourn", "ms"),
                Column::with_unit("p99 sojourn", "ms"),
                Column::new("makespan (windows)"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.profile.clone(),
                row.severity,
                row.degraded_edges,
                row.offered_toffolis,
                round2(row.channel_utilization * 100.0),
                round2(row.p50_sojourn_ms),
                round2(row.p99_sojourn_ms),
                row.makespan_windows
            ]);
        }
        r.push_note(
            "every severity of a profile replays the byte-identical Toffoli stream, so row \
             deltas are attributable to the injected channel/factory faults alone; severity 0 \
             is the healthy baseline and reproduces the unfaulted engine exactly",
        );
        r
    }
}
