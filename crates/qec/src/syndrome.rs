//! Steane-style (ancilla-coupled) syndrome extraction circuits.
//!
//! Figure 6 of the paper shows the [[7,1,3]] error-correction procedure: an
//! encoded ancilla block is prepared and verified, interacted transversally
//! with the data block, and measured; the classical parity checks of the
//! measured bits give the error syndrome. Two ancilla blocks are used — one
//! for the X-error syndrome and one for the Z-error syndrome.
//!
//! This module builds those circuits over an explicit register layout
//! (`data | ancilla`), and provides the classical post-processing that turns
//! measured ancilla bits into a syndrome and a correction.

use crate::code::CssCode;
use crate::steane::{encode_plus_circuit, encode_zero_circuit};
use qla_circuit::{Circuit, Gate};
use serde::{Deserialize, Serialize};

/// Which error type a syndrome extraction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorType {
    /// Bit-flip (X) errors, extracted with a |+⟩_L ancilla measured in the
    /// Z basis.
    X,
    /// Phase-flip (Z) errors, extracted with a |0⟩_L ancilla measured in the
    /// X basis.
    Z,
}

/// A complete Steane-style syndrome-extraction circuit over a 14-qubit
/// register: data block on qubits `0..7`, ancilla block on qubits `7..14`.
///
/// * For [`ErrorType::X`]: the ancilla is prepared in |+⟩_L, a transversal
///   CNOT is applied with the **data as control**, and the ancilla is
///   measured in the Z basis. X errors on the data copy onto the ancilla and
///   show up in the parity checks of the measured bits; because the ancilla's
///   logical value is uniformly random, nothing about the data's logical
///   state is measured.
/// * For [`ErrorType::Z`]: the ancilla is prepared in |0⟩_L, a transversal
///   CNOT is applied with the **ancilla as control**, and the ancilla is
///   measured in the X basis (transversal H, then Z measurement). Z errors on
///   the data propagate onto the ancilla; the logical X value read out is
///   again uniformly random.
#[must_use]
pub fn extraction_circuit(error_type: ErrorType) -> Circuit {
    let mut c = Circuit::new(14);
    match error_type {
        ErrorType::X => {
            c.append_offset(&encode_plus_circuit(), 7);
            for q in 0..7 {
                c.cnot(q, 7 + q);
            }
            for q in 7..14 {
                c.measure(q);
            }
        }
        ErrorType::Z => {
            c.append_offset(&encode_zero_circuit(), 7);
            for q in 0..7 {
                c.cnot(7 + q, q);
            }
            for q in 7..14 {
                c.h(q);
            }
            for q in 7..14 {
                c.measure(q);
            }
        }
    }
    c
}

/// Compute the syndrome from the seven measured ancilla bits.
///
/// For an X-error extraction the checks are the code's Z-stabilizer supports;
/// for a Z-error extraction they are the X-stabilizer supports.
#[must_use]
pub fn syndrome_from_measurements(
    code: &CssCode,
    error_type: ErrorType,
    measured: &[bool],
) -> Vec<bool> {
    let checks = match error_type {
        ErrorType::X => &code.z_stabilizers,
        ErrorType::Z => &code.x_stabilizers,
    };
    checks
        .iter()
        .map(|support| support.iter().fold(false, |acc, &q| acc ^ measured[q]))
        .collect()
}

/// Decode a syndrome into the correction gate to apply to the data block (if
/// any).
#[must_use]
pub fn correction_for(code: &CssCode, error_type: ErrorType, syndrome: &[bool]) -> Option<Gate> {
    match error_type {
        ErrorType::X => code.decode_single_x_error(syndrome).map(Gate::X),
        ErrorType::Z => code.decode_single_z_error(syndrome).map(Gate::Z),
    }
}

/// Count of physical operations in one extraction circuit — useful for the
/// latency and resource models.
#[must_use]
pub fn extraction_op_counts(error_type: ErrorType) -> qla_circuit::GateCounts {
    extraction_circuit(error_type).counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arq::run_clifford;
    use crate::steane::steane_code;
    use qla_stabilizer::StabilizerSimulator;

    /// Run a circuit on the tableau backend, injecting `error` on data qubit
    /// `error_qubit` *before* the transversal interaction, and return the 7
    /// measured ancilla bits.
    fn run_extraction(
        error_type: ErrorType,
        error_qubit: Option<usize>,
        error: qla_stabilizer::Pauli,
    ) -> Vec<bool> {
        let mut sim = StabilizerSimulator::with_seed(14, 5);
        // Prepare the data block in |0>_L first.
        run_clifford(&mut sim, &encode_zero_circuit()).expect("encoder is Clifford");
        if let Some(q) = error_qubit {
            sim.apply_pauli(q, error);
        }
        run_clifford(&mut sim, &extraction_circuit(error_type)).expect("extraction is Clifford")
    }

    #[test]
    fn clean_data_gives_trivial_syndrome() {
        let code = steane_code();
        for et in [ErrorType::X, ErrorType::Z] {
            let measured = run_extraction(et, None, qla_stabilizer::Pauli::I);
            let syndrome = syndrome_from_measurements(&code, et, &measured);
            assert!(
                syndrome.iter().all(|&b| !b),
                "expected trivial syndrome for {et:?}, got {syndrome:?}"
            );
            assert_eq!(correction_for(&code, et, &syndrome), None);
        }
    }

    #[test]
    fn every_single_x_error_is_located() {
        let code = steane_code();
        for q in 0..7 {
            let measured = run_extraction(ErrorType::X, Some(q), qla_stabilizer::Pauli::X);
            let syndrome = syndrome_from_measurements(&code, ErrorType::X, &measured);
            assert_eq!(
                correction_for(&code, ErrorType::X, &syndrome),
                Some(Gate::X(q)),
                "X error on qubit {q} mis-decoded"
            );
        }
    }

    #[test]
    fn every_single_z_error_is_located() {
        let code = steane_code();
        for q in 0..7 {
            let measured = run_extraction(ErrorType::Z, Some(q), qla_stabilizer::Pauli::Z);
            let syndrome = syndrome_from_measurements(&code, ErrorType::Z, &measured);
            assert_eq!(
                correction_for(&code, ErrorType::Z, &syndrome),
                Some(Gate::Z(q)),
                "Z error on qubit {q} mis-decoded"
            );
        }
    }

    #[test]
    fn x_extraction_is_blind_to_z_errors_and_vice_versa() {
        let code = steane_code();
        let measured = run_extraction(ErrorType::X, Some(3), qla_stabilizer::Pauli::Z);
        let syndrome = syndrome_from_measurements(&code, ErrorType::X, &measured);
        assert!(syndrome.iter().all(|&b| !b));
        let measured = run_extraction(ErrorType::Z, Some(3), qla_stabilizer::Pauli::X);
        let syndrome = syndrome_from_measurements(&code, ErrorType::Z, &measured);
        assert!(syndrome.iter().all(|&b| !b));
    }

    #[test]
    fn extraction_circuits_have_the_expected_shape() {
        let x = extraction_op_counts(ErrorType::X);
        assert_eq!(x.measurements, 7);
        assert_eq!(x.two_qubit, 9 + 7); // encoder CNOTs + transversal CNOT
                                        // |+>_L preparation: 3 pivot Hadamards plus the transversal Hadamard.
        assert_eq!(x.single_qubit_clifford, 10);
        let z = extraction_op_counts(ErrorType::Z);
        assert_eq!(z.measurements, 7);
        assert_eq!(z.two_qubit, 9 + 7);
        // |0>_L preparation (3 Hadamards) plus the X-basis rotation (7).
        assert_eq!(z.single_qubit_clifford, 10);
    }

    #[test]
    fn extraction_preserves_the_data_logical_state() {
        // The whole point of the Steane ancilla choice: extracting a syndrome
        // from |0>_L data must leave it exactly |0>_L.
        let code = steane_code();
        for et in [ErrorType::X, ErrorType::Z] {
            let mut sim = StabilizerSimulator::with_seed(14, 21);
            run_clifford(&mut sim, &encode_zero_circuit()).unwrap();
            run_clifford(&mut sim, &extraction_circuit(et)).unwrap();
            let logical_z = code.logical_z_string().embed(14, 0);
            assert!(
                sim.stabilizes(&logical_z),
                "{et:?} extraction collapsed the data"
            );
            for s in code.z_stabilizer_strings() {
                assert!(sim.stabilizes(&s.embed(14, 0)));
            }
        }
    }
}
