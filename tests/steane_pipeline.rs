//! Cross-crate integration: the Steane code, the circuit IR and the
//! stabilizer backend working together — the software path every QLA logical
//! operation takes.

use qla::circuit::{Circuit, Gate};
use qla::qec::syndrome::{correction_for, extraction_circuit, syndrome_from_measurements};
use qla::qec::{encode_zero_circuit, run_clifford, steane_code, ErrorType};
use qla::stabilizer::{CliffordGate, Pauli, PauliString, StabilizerSimulator};

/// Inject every possible single-qubit Pauli error on the encoded data block
/// and confirm the full Figure 6 extraction + decode pipeline names a
/// correction that restores the code space and the logical state.
#[test]
fn every_single_error_is_corrected_end_to_end() {
    let code = steane_code();
    for error_qubit in 0..7 {
        for error in [Pauli::X, Pauli::Z, Pauli::Y] {
            let mut sim = StabilizerSimulator::with_seed(14, 99);
            run_clifford(&mut sim, &encode_zero_circuit()).unwrap();
            sim.apply_pauli(error_qubit, error);

            // X-type extraction and correction.
            let measured = run_clifford(&mut sim, &extraction_circuit(ErrorType::X)).unwrap();
            let syndrome = syndrome_from_measurements(&code, ErrorType::X, &measured);
            if let Some(Gate::X(q)) = correction_for(&code, ErrorType::X, &syndrome) {
                sim.apply_pauli(q, Pauli::X);
            }

            // Refresh the ancilla block and run the Z-type extraction.
            for q in 7..14 {
                sim.apply_ideal(CliffordGate::PrepZ(q));
            }
            let measured = run_clifford(&mut sim, &extraction_circuit(ErrorType::Z)).unwrap();
            let syndrome = syndrome_from_measurements(&code, ErrorType::Z, &measured);
            if let Some(Gate::Z(q)) = correction_for(&code, ErrorType::Z, &syndrome) {
                sim.apply_pauli(q, Pauli::Z);
            }

            // The data block must again be exactly |0>_L.
            let logical_z = PauliString::from_support(14, &code.logical_z, Pauli::Z);
            assert!(
                sim.stabilizes(&logical_z),
                "logical Z lost after correcting {error:?} on qubit {error_qubit}"
            );
            for support in &code.z_stabilizers {
                let stab = PauliString::from_support(14, support, Pauli::Z);
                assert!(sim.stabilizes(&stab), "left the code space");
            }
        }
    }
}

/// The transversal logical CNOT between two encoded blocks behaves as a CNOT
/// on the encoded information, end to end through the circuit IR and the
/// stabilizer backend (the paper's ARQ path).
#[test]
fn transversal_logical_cnot_through_arq() {
    // Build |1>_L |0>_L, apply the transversal CNOT, measure block B
    // transversally and decode: it must read logical one.
    let mut circuit = Circuit::new(14);
    circuit.append_offset(&encode_zero_circuit(), 0);
    circuit.append_offset(&encode_zero_circuit(), 7);
    for q in 0..7 {
        circuit.x(q); // transversal logical X on block A
    }
    for q in 0..7 {
        circuit.cnot(q, 7 + q); // transversal logical CNOT A -> B
    }
    for q in 7..14 {
        circuit.measure(q);
    }
    let mut sim = StabilizerSimulator::with_seed(14, 123);
    let bits = run_clifford(&mut sim, &circuit).unwrap();
    let code = steane_code();
    // Decode block B: correct any (here absent) single error, then take the
    // parity over the logical-Z support.
    let syndrome: Vec<bool> = code
        .z_stabilizers
        .iter()
        .map(|s| s.iter().fold(false, |acc, &q| acc ^ bits[q]))
        .collect();
    let mut corrected = bits;
    if let Some(q) = code.decode_single_x_error(&syndrome) {
        corrected[q] = !corrected[q];
    }
    let logical = code
        .logical_z
        .iter()
        .fold(false, |acc, &q| acc ^ corrected[q]);
    assert!(logical, "block B should decode to logical |1>");
}
