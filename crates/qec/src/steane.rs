//! The Steane [[7,1,3]] code: the error-correcting code of the QLA logical
//! qubit (Section 4.1).
//!
//! The paper chooses the Steane code because it "allows the implementation of
//! a universal set of logical gates transversally": every Clifford logical
//! gate on an encoded block is 7 physical gates applied in parallel, which
//! maps perfectly onto the QLA's SIMD-style laser control.

use crate::code::CssCode;
use qla_circuit::Circuit;
use serde::{Deserialize, Serialize};

/// Construct the Steane [[7,1,3]] code.
///
/// The X and Z stabilizers share the same supports (the code is self-dual),
/// given by the rows of the [7,4,3] Hamming parity-check matrix:
///
/// ```text
/// S1 : qubits {3,4,5,6}
/// S2 : qubits {1,2,5,6}
/// S3 : qubits {0,2,4,6}
/// ```
#[must_use]
pub fn steane_code() -> CssCode {
    let supports = vec![vec![3, 4, 5, 6], vec![1, 2, 5, 6], vec![0, 2, 4, 6]];
    CssCode {
        name: "Steane [[7,1,3]]".to_string(),
        physical_qubits: 7,
        logical_qubits: 1,
        distance: 3,
        x_stabilizers: supports.clone(),
        z_stabilizers: supports,
        logical_x: (0..7).collect(),
        logical_z: (0..7).collect(),
    }
}

/// Transversal logical gates available on the Steane code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransversalGate {
    /// Logical X = X on every physical qubit.
    X,
    /// Logical Z = Z on every physical qubit.
    Z,
    /// Logical H = H on every physical qubit (self-dual CSS code).
    H,
    /// Logical S = S† on every physical qubit (up to a Pauli correction).
    S,
    /// Logical CNOT = pairwise CNOT between the two blocks.
    Cnot,
    /// Logical measurement = measure every physical qubit and decode.
    MeasureZ,
}

impl TransversalGate {
    /// Number of physical operations the transversal implementation applies
    /// per encoded block.
    #[must_use]
    pub fn physical_op_count(&self) -> usize {
        7
    }
}

/// The circuit preparing `|0⟩_L` of the Steane code on qubits `0..7` of a
/// fresh (all-`|0⟩`) register.
///
/// Pivot qubits 3, 1, 0 are put into `|+⟩` and fanned out into the three X
/// stabilizers; the result is exactly the logical zero state (verified
/// against the stabilizer simulator in the tests).
#[must_use]
pub fn encode_zero_circuit() -> Circuit {
    let mut c = Circuit::new(7);
    c.h(3).h(1).h(0);
    // Fan out stabilizer S1 = X{3,4,5,6} from pivot 3.
    c.cnot(3, 4).cnot(3, 5).cnot(3, 6);
    // Fan out stabilizer S2 = X{1,2,5,6} from pivot 1.
    c.cnot(1, 2).cnot(1, 5).cnot(1, 6);
    // Fan out stabilizer S3 = X{0,2,4,6} from pivot 0.
    c.cnot(0, 2).cnot(0, 4).cnot(0, 6);
    c
}

/// The circuit preparing `|+⟩_L`: logical zero followed by a transversal
/// Hadamard.
#[must_use]
pub fn encode_plus_circuit() -> Circuit {
    let mut c = encode_zero_circuit();
    for q in 0..7 {
        c.h(q);
    }
    c
}

/// Append a transversal logical gate on the block occupying qubits
/// `offset..offset+7` of `circuit` (for `Cnot`, the second block starts at
/// `other_offset`).
pub fn append_transversal(
    circuit: &mut Circuit,
    gate: TransversalGate,
    offset: usize,
    other_offset: Option<usize>,
) {
    match gate {
        TransversalGate::X => {
            for q in 0..7 {
                circuit.x(offset + q);
            }
        }
        TransversalGate::Z => {
            for q in 0..7 {
                circuit.z(offset + q);
            }
        }
        TransversalGate::H => {
            for q in 0..7 {
                circuit.h(offset + q);
            }
        }
        TransversalGate::S => {
            for q in 0..7 {
                circuit.sdg(offset + q);
            }
        }
        TransversalGate::Cnot => {
            let other = other_offset.expect("transversal CNOT needs a second block offset");
            for q in 0..7 {
                circuit.cnot(offset + q, other + q);
            }
        }
        TransversalGate::MeasureZ => {
            for q in 0..7 {
                circuit.measure(offset + q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arq::run_clifford;
    use qla_stabilizer::{PauliString, StabilizerSimulator};

    fn simulate(circuit: &Circuit, n: usize) -> StabilizerSimulator {
        let mut sim = StabilizerSimulator::with_seed(n, 11);
        run_clifford(&mut sim, circuit).expect("test circuits are Clifford");
        sim
    }

    #[test]
    fn code_is_internally_consistent() {
        steane_code().validate();
    }

    #[test]
    fn code_parameters() {
        let c = steane_code();
        assert_eq!(c.physical_qubits, 7);
        assert_eq!(c.logical_qubits, 1);
        assert_eq!(c.distance, 3);
        assert_eq!(c.correctable_errors(), 1);
        assert_eq!(c.x_stabilizers.len(), 3);
        assert_eq!(c.z_stabilizers.len(), 3);
    }

    #[test]
    fn encoder_prepares_logical_zero() {
        let code = steane_code();
        let sim = simulate(&encode_zero_circuit(), 7);
        for s in code
            .x_stabilizer_strings()
            .iter()
            .chain(code.z_stabilizer_strings().iter())
        {
            assert!(sim.stabilizes(s), "state not stabilized by {s}");
        }
        // |0>_L is the +1 eigenstate of logical Z.
        assert!(sim.stabilizes(&code.logical_z_string()));
        assert!(!sim.stabilizes(&code.logical_x_string()));
    }

    #[test]
    fn encoder_plus_prepares_logical_plus() {
        let code = steane_code();
        let sim = simulate(&encode_plus_circuit(), 7);
        for s in code
            .x_stabilizer_strings()
            .iter()
            .chain(code.z_stabilizer_strings().iter())
        {
            assert!(sim.stabilizes(s), "state not stabilized by {s}");
        }
        assert!(sim.stabilizes(&code.logical_x_string()));
        assert!(!sim.stabilizes(&code.logical_z_string()));
    }

    #[test]
    fn transversal_x_flips_the_logical_qubit() {
        let code = steane_code();
        let mut circuit = encode_zero_circuit();
        append_transversal(&mut circuit, TransversalGate::X, 0, None);
        let sim = simulate(&circuit, 7);
        // Now stabilized by -Z_L, i.e. it is |1>_L: Z_L no longer stabilizes
        // with + sign.
        let mut minus_zl = code.logical_z_string();
        minus_zl.negate();
        assert!(sim.stabilizes(&minus_zl) || !sim.stabilizes(&code.logical_z_string()));
        for s in code.x_stabilizer_strings() {
            assert!(sim.stabilizes(&s));
        }
    }

    #[test]
    fn transversal_h_maps_zero_to_plus() {
        let code = steane_code();
        let mut circuit = encode_zero_circuit();
        append_transversal(&mut circuit, TransversalGate::H, 0, None);
        let sim = simulate(&circuit, 7);
        assert!(sim.stabilizes(&code.logical_x_string()));
    }

    #[test]
    fn transversal_cnot_copies_logical_one() {
        // Block A in |1>_L, block B in |0>_L; after logical CNOT both are |1>_L.
        let mut circuit = Circuit::new(14);
        circuit.append_offset(&encode_zero_circuit(), 0);
        circuit.append_offset(&encode_zero_circuit(), 7);
        append_transversal(&mut circuit, TransversalGate::X, 0, None);
        append_transversal(&mut circuit, TransversalGate::Cnot, 0, Some(7));
        let sim = simulate(&circuit, 14);
        // Logical Z on block B should now have a -1 expectation: check that
        // +Z_L(B) does not stabilize while -Z_L(B) does.
        let zl_b =
            PauliString::from_support(14, &[7, 8, 9, 10, 11, 12, 13], qla_stabilizer::Pauli::Z);
        assert!(!sim.stabilizes(&zl_b));
        let mut minus = zl_b.clone();
        minus.negate();
        assert!(sim.stabilizes(&minus));
    }

    #[test]
    fn transversal_gate_budget() {
        assert_eq!(TransversalGate::H.physical_op_count(), 7);
        assert_eq!(TransversalGate::Cnot.physical_op_count(), 7);
    }
}
