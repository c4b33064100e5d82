//! ARQ: running `qla-circuit` circuits on the stabilizer backend.
//!
//! The paper's ARQ simulator (Section 3) "takes a description of a general
//! quantum circuit with a sequence of quantum gates as an input" and
//! executes it. This module is that step: a circuit of Clifford gates is
//! lowered gate by gate onto a [`StabilizerSimulator`] and its `MeasureZ`
//! outcomes are collected in program order. It is the one `Gate` →
//! [`CliffordGate`] lowering in the workspace. Circuit timing is
//! `qla_circuit::Schedule`'s job.

use qla_circuit::{Circuit, Gate};
use qla_stabilizer::{CliffordGate, StabilizerSimulator};

/// A gate outside the stabilizer subset: T, T† or Toffoli. Those are counted
/// by the resource models, never simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonCliffordGate(pub Gate);

impl core::fmt::Display for NonCliffordGate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "gate {} is outside the stabilizer subset the simulator runs",
            self.0
        )
    }
}

impl std::error::Error for NonCliffordGate {}

/// Run `circuit` on `sim` with ideal (noise-free) gates and return the
/// `MeasureZ` outcomes in program order.
///
/// # Errors
/// Returns [`NonCliffordGate`] for the first T, T† or Toffoli gate; the
/// gates before it have already been applied to `sim`.
pub fn run_clifford(
    sim: &mut StabilizerSimulator,
    circuit: &Circuit,
) -> Result<Vec<bool>, NonCliffordGate> {
    let mut measurements = Vec::new();
    for &gate in circuit.gates() {
        let lowered = match gate {
            Gate::H(q) => CliffordGate::H(q),
            Gate::X(q) => CliffordGate::X(q),
            Gate::Y(q) => CliffordGate::Y(q),
            Gate::Z(q) => CliffordGate::Z(q),
            Gate::S(q) => CliffordGate::S(q),
            Gate::Sdg(q) => CliffordGate::Sdg(q),
            Gate::Cnot(a, b) => CliffordGate::Cnot(a, b),
            Gate::Cz(a, b) => CliffordGate::Cz(a, b),
            Gate::Swap(a, b) => CliffordGate::Swap(a, b),
            Gate::PrepZ(q) => CliffordGate::PrepZ(q),
            Gate::MeasureZ(q) => {
                measurements.push(sim.measure(q));
                continue;
            }
            Gate::T(_) | Gate::Tdg(_) | Gate::Toffoli { .. } => return Err(NonCliffordGate(gate)),
        };
        sim.apply(lowered);
    }
    Ok(measurements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_zero_circuit;

    fn run(circuit: &Circuit, seed: u64) -> Result<Vec<bool>, NonCliffordGate> {
        let mut sim = StabilizerSimulator::with_seed(circuit.num_qubits(), seed);
        run_clifford(&mut sim, circuit)
    }

    #[test]
    fn runs_a_bell_circuit() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).measure(0).measure(1);
        let bits = run(&c, 3).unwrap();
        assert_eq!(bits.len(), 2);
        assert_eq!(bits[0], bits[1]);
    }

    #[test]
    fn runs_the_steane_encoder_and_gets_a_codeword() {
        let mut c = encode_zero_circuit();
        c.measure_all();
        let bits = run(&c, 9).unwrap();
        // The measured bits form a codeword of the Hamming code: all three
        // parity checks vanish.
        for support in [[3usize, 4, 5, 6], [1, 2, 5, 6], [0, 2, 4, 6]] {
            let parity = support.iter().fold(false, |acc, &q| acc ^ bits[q]);
            assert!(!parity);
        }
    }

    #[test]
    fn rejects_non_clifford_circuits() {
        let mut c = Circuit::new(3);
        c.h(0).toffoli(0, 1, 2);
        let err = run(&c, 0).unwrap_err();
        assert!(matches!(err.0, Gate::Toffoli { .. }));
        assert!(err.to_string().contains("outside the stabilizer subset"));
        for gate in [Gate::T(0), Gate::Tdg(0)] {
            let mut t = Circuit::new(1);
            t.push(gate);
            assert_eq!(run(&t, 0), Err(NonCliffordGate(gate)));
        }
    }

    #[test]
    fn different_seeds_can_give_different_random_outcomes() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        let outcomes: std::collections::HashSet<bool> =
            (0..32).map(|seed| run(&c, seed).unwrap()[0]).collect();
        assert_eq!(
            outcomes.len(),
            2,
            "both outcomes should appear across seeds"
        );
    }
}
