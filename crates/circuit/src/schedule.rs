//! ASAP scheduling of circuits into parallel timesteps.
//!
//! The QLA executes gates under classical control with maximal parallelism
//! (a fault-tolerance requirement, Section 4). The schedule groups gates into
//! timesteps such that no two gates in a timestep share a qubit and every
//! gate appears no earlier than its operands' previous uses.

use crate::circuit::Circuit;
use crate::gate::Gate;
use qla_physical::{TechnologyParams, Time};
use serde::{Deserialize, Serialize};

/// One parallel timestep: a set of gates acting on disjoint qubits.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Timestep {
    /// Gates executed in parallel during this step.
    pub gates: Vec<Gate>,
}

impl Timestep {
    /// The wall-clock duration of the step: the slowest gate in it.
    #[must_use]
    pub fn duration(&self, tech: &TechnologyParams) -> Time {
        self.gates
            .iter()
            .map(|g| tech.op_time(&g.physical_op()))
            .fold(Time::ZERO, Time::max)
    }
}

/// An ASAP schedule of a circuit.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schedule {
    steps: Vec<Timestep>,
}

impl Schedule {
    /// Compute the ASAP schedule of a circuit: each gate is placed at
    /// timestep `1 + max(step of previous gate touching any of its qubits)`.
    #[must_use]
    pub fn asap(circuit: &Circuit) -> Self {
        let mut ready_at = vec![0usize; circuit.num_qubits()];
        let mut steps: Vec<Timestep> = Vec::new();
        for gate in circuit.gates() {
            let qubits = gate.qubits();
            let step = qubits.iter().map(|&q| ready_at[q]).max().unwrap_or(0);
            if steps.len() <= step {
                steps.resize_with(step + 1, Timestep::default);
            }
            steps[step].gates.push(*gate);
            for q in qubits {
                ready_at[q] = step + 1;
            }
        }
        Schedule { steps }
    }

    /// The timesteps in execution order.
    #[must_use]
    pub fn steps(&self) -> &[Timestep] {
        &self.steps
    }

    /// Circuit depth in timesteps.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// Wall-clock latency: the sum over timesteps of the slowest gate in each.
    #[must_use]
    pub fn latency(&self, tech: &TechnologyParams) -> Time {
        self.steps.iter().map(|s| s.duration(tech)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn independent_gates_share_a_timestep() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        let s = c.schedule();
        assert_eq!(s.depth(), 1);
        assert_eq!(s.steps()[0].gates.len(), 4);
    }

    #[test]
    fn dependent_gates_are_serialized() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).h(1);
        let s = c.schedule();
        assert_eq!(s.depth(), 3);
        assert!(s.steps().iter().all(|step| step.gates.len() == 1));
    }

    #[test]
    fn diamond_dependency() {
        // q0 feeds both q1 and q2 via CNOTs; those two CNOTs conflict on q0 so
        // they serialize, but the trailing single-qubit gates parallelize.
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cnot(0, 2).x(1).x(2);
        let s = c.schedule();
        assert_eq!(s.depth(), 4);
        // cnot(0,2) and x(1) land in the same step; x(2) trails by one.
        assert_eq!(s.steps()[2].gates.len(), 2);
        assert_eq!(s.steps()[3].gates.len(), 1);
    }

    #[test]
    fn latency_uses_slowest_gate_per_step() {
        let tech = TechnologyParams::expected();
        let mut c = Circuit::new(2);
        c.h(0).measure(1); // same timestep: 1 us and 100 us in parallel
        let s = c.schedule();
        assert_eq!(s.depth(), 1);
        assert!((s.latency(&tech).as_micros() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scheduled_latency_never_exceeds_serial_latency() {
        let tech = TechnologyParams::expected();
        let mut c = Circuit::new(3);
        c.h(0).h(1).cnot(0, 1).toffoli(0, 1, 2).measure_all();
        let expanded = c.expand_toffolis();
        assert!(
            expanded.schedule().latency(&tech).as_micros()
                <= expanded.serial_latency(&tech).as_micros() + 1e-9
        );
    }

    proptest! {
        #[test]
        fn schedule_preserves_gate_count_and_per_step_disjointness(
            ops in prop::collection::vec((0usize..6, 0usize..6, 0u8..4), 0..60)
        ) {
            let mut c = Circuit::new(6);
            for (a, b, kind) in ops {
                match kind {
                    0 => { c.h(a); }
                    1 => { c.t(a); }
                    2 => { if a != b { c.cnot(a, b); } }
                    _ => { c.measure(a); }
                }
            }
            let s = c.schedule();
            let scheduled: usize = s.steps().iter().map(|step| step.gates.len()).sum();
            prop_assert_eq!(scheduled, c.len());
            for step in s.steps() {
                let mut seen = std::collections::HashSet::new();
                for g in &step.gates {
                    for q in g.qubits() {
                        prop_assert!(seen.insert(q), "qubit {} used twice in one step", q);
                    }
                }
            }
            prop_assert!(s.depth() <= c.len().max(1));
        }
    }
}
