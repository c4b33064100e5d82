//! The Steane \[\[7,1,3\]\] code: the error-correcting code of the QLA logical
//! qubit (Section 4.1).
//!
//! The paper chooses the Steane code because it "allows the implementation of
//! a universal set of logical gates transversally": every Clifford logical
//! gate on an encoded block is 7 physical gates applied in parallel, which
//! maps perfectly onto the QLA's SIMD-style laser control.

use crate::code::CssCode;
use qla_circuit::Circuit;

/// The supports of the Steane code's three stabilizers, rows of the
/// \[7,4,3\] Hamming parity-check matrix. The code is self-dual, so each
/// support carries both an X and a Z stabilizer. The first qubit of each row
/// is its pivot in the encoder: [`encode_zero_circuit`] puts it into `|+⟩`
/// and fans it out to the rest of the row.
pub const STEANE_SUPPORTS: [[usize; 4]; 3] = [[3, 4, 5, 6], [1, 2, 5, 6], [0, 2, 4, 6]];

/// Construct the Steane \[\[7,1,3\]\] code, with the X and Z stabilizers
/// both on [`STEANE_SUPPORTS`].
#[must_use]
pub fn steane_code() -> CssCode {
    let supports: Vec<Vec<usize>> = STEANE_SUPPORTS.iter().map(|s| s.to_vec()).collect();
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

/// The circuit preparing `|0⟩_L` of the Steane code on qubits `0..7` of a
/// fresh (all-`|0⟩`) register.
///
/// The pivots of [`STEANE_SUPPORTS`] (qubits 3, 1, 0) are put into `|+⟩`,
/// then each is fanned out into its X stabilizer; the result is exactly the
/// logical zero state (verified against the stabilizer simulator in the
/// tests).
#[must_use]
pub fn encode_zero_circuit() -> Circuit {
    let mut c = Circuit::new(7);
    for [pivot, ..] in STEANE_SUPPORTS {
        c.h(pivot);
    }
    for [pivot, rest @ ..] in STEANE_SUPPORTS {
        for target in rest {
            c.cnot(pivot, target);
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arq::run_clifford;
    use qla_stabilizer::StabilizerSimulator;

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
}
