//! Shared wiring between the analytic machine model and the `qla-sim`
//! discrete-event engine: one place derives the simulator's clocks and
//! capacities from the active [`MachineSpec`], so the simulation
//! experiments and the closed-form models can never quantise differently,
//! and one [`SteadyState`] recipe sets up the warm-up/measure runs of the
//! steady-state studies.
//!
//! [`MachineSpec`]: qla_core::MachineSpec

use qla_core::{QlaMachine, SimSpec};
use qla_sched::Mesh;
use qla_sim::{
    toffoli_stream, LatencySummary, RequestOutcome, SimConfig, SimOutcome, SimTime, TrafficParams,
    WorkItem,
};
use rand_chacha::ChaCha8Rng;

/// The engine configuration at a machine's design point.
///
/// * the window is the machine's pacing error-correction window;
/// * the per-pair service time and the rounds-per-window budget come from
///   the same interconnect derivation the greedy scheduler's
///   `pairs_per_window` uses (`QlaMachine::epr_pair_service_time` /
///   `epr_pairs_per_ecc_window`), which is what makes the `sim-vs-analytic`
///   agreement exact rather than approximate;
/// * an undirected mesh edge carries `2 × bandwidth` channels (the paper
///   counts channels per direction), matching
///   [`Mesh::edge_capacity_per_window`];
/// * ancilla preparation is paced at one error-correction window per
///   logical ancilla block (ancilla blocks are verified in lock-step with
///   the ECC schedule of the qubits they will serve).
#[must_use]
pub fn sim_config(
    machine: &QlaMachine,
    sim: &SimSpec,
    measure: Option<(SimTime, SimTime)>,
) -> SimConfig {
    let window = SimTime::from_time(machine.ecc_window());
    SimConfig {
        window,
        pair_service: SimTime::from_time(machine.epr_pair_service_time()),
        pairs_per_window: machine.epr_pairs_per_ecc_window(),
        channels_per_edge: 2 * machine.bandwidth,
        max_in_flight: sim.max_in_flight,
        ancilla_capacity: sim.ancilla_capacity,
        ancilla_prep: window,
        measure,
    }
}

/// The machine's routing mesh with its derived per-window channel capacity
/// (shared with the analytic scheduler study).
#[must_use]
pub fn machine_mesh(machine: &QlaMachine) -> Mesh {
    Mesh::from_floorplan(&machine.floorplan, machine.bandwidth)
        .with_pairs_per_window(machine.epr_pairs_per_ecc_window())
}

/// The recipe of a steady-state run (`sim-offered-load`,
/// `sim-tail-latency`, `fault-sweep`, `traffic-matrix`): arrivals over
/// `warmup_windows + measure_windows` windows of the `sweep.sim.*`
/// section, with utilisation and every statistic taken only over what
/// arrives after the warm-up.
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// The engine configuration, measuring `[warm_start, horizon end)`.
    pub cfg: SimConfig,
    /// Arrival horizon in error-correction windows (warm-up + measure).
    pub horizon: usize,
    /// End of the warm-up: work arriving earlier loads the machine but is
    /// left out of the statistics.
    pub warm_start: SimTime,
    burst_factor: f64,
}

impl SteadyState {
    /// The steady-state recipe on `machine` sized by `sim`.
    #[must_use]
    pub fn new(machine: &QlaMachine, sim: &SimSpec) -> Self {
        let horizon = sim.warmup_windows + sim.measure_windows;
        let base = sim_config(machine, sim, None);
        let warm_start = base.window * sim.warmup_windows as u64;
        let measure_end = base.window * horizon as u64;
        SteadyState {
            cfg: SimConfig {
                measure: Some((warm_start, measure_end)),
                ..base
            },
            horizon,
            warm_start,
            burst_factor: sim.burst_factor,
        }
    }

    /// The arrival pacing at `offered_load` arrivals per window.
    #[must_use]
    pub fn traffic(&self, offered_load: f64) -> TrafficParams {
        TrafficParams {
            offered_load,
            burst_factor: self.burst_factor,
            window: self.cfg.window,
        }
    }

    /// The seeded bursty Toffoli stream over the whole horizon, as work
    /// items.
    #[must_use]
    pub fn toffoli_stream(
        &self,
        mesh: &Mesh,
        offered_load: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<WorkItem> {
        toffoli_stream(mesh, self.horizon, &self.traffic(offered_load), rng)
    }

    /// The requests of the work items that arrived after the warm-up.
    pub fn measured_requests<'a>(
        &self,
        out: &'a SimOutcome,
    ) -> impl Iterator<Item = &'a RequestOutcome> + 'a {
        let warm_start = self.warm_start;
        out.requests
            .iter()
            .filter(move |r| out.items[r.item].arrival >= warm_start)
    }

    /// The sojourns (arrival to completion) of the work items that
    /// arrived after the warm-up.
    #[must_use]
    pub fn sojourns(&self, out: &SimOutcome) -> Vec<SimTime> {
        out.items
            .iter()
            .filter(|item| item.arrival >= self.warm_start)
            .map(|item| item.completion.saturating_since(item.arrival))
            .collect()
    }

    /// The [`LatencySummary`] of [`SteadyState::sojourns`].
    #[must_use]
    pub fn sojourn_summary(&self, out: &SimOutcome) -> LatencySummary {
        LatencySummary::of(&self.sojourns(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qla_core::MachineSpec;

    #[test]
    fn config_mirrors_the_machines_derived_quantities() {
        let spec = MachineSpec::expected();
        let machine = spec.machine().unwrap();
        let cfg = sim_config(&machine, &spec.sweep.sim, None);
        cfg.validate();
        assert_eq!(
            cfg.window,
            SimTime::from_time(machine.ecc_window()),
            "window must be the machine's pacing ECC window"
        );
        assert_eq!(cfg.pairs_per_window, machine.epr_pairs_per_ecc_window());
        assert_eq!(cfg.channels_per_edge, 2 * spec.bandwidth);
        let mesh = machine_mesh(&machine);
        assert_eq!(
            mesh.edge_capacity_per_window(),
            cfg.channels_per_edge * cfg.pairs_per_window,
            "simulated and analytic per-window edge capacity must agree"
        );
    }
}
