//! Shared wiring between the analytic machine model and the `qla-sim`
//! discrete-event engine: one place derives the simulator's clocks and
//! capacities from the active [`MachineSpec`], so the simulation
//! experiments and the closed-form models can never quantise differently.

use qla_core::{QlaMachine, SimSpec};
use qla_sched::Mesh;
use qla_sim::{SimConfig, SimTime};

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
