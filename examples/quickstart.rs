//! Quickstart: build a small QLA machine, run a Clifford circuit on the
//! stabilizer backend, and print the headline numbers of the architecture.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use qla::circuit::Circuit;
use qla::core::QlaMachine;
use qla::layout::LogicalQubitId;
use qla::physical::TechnologyParams;
use qla::qec::{run_clifford, steane_code, ThresholdAnalysis};
use qla::stabilizer::StabilizerSimulator;

fn main() {
    println!("=== QLA quickstart ===\n");

    // 1. The technology (Table 1, expected column).
    let tech = TechnologyParams::expected();
    println!(
        "technology: 1q gate {} | 2q gate {} | measure {} | 2q failure {:.0e}",
        tech.times.single_gate,
        tech.times.double_gate,
        tech.times.measure,
        tech.failures.double_gate
    );

    // 2. The code every logical qubit uses.
    let code = steane_code();
    code.validate();
    println!(
        "code: {} ({} physical qubits, distance {})",
        code.name, code.physical_qubits, code.distance
    );

    // 3. A machine with 400 logical qubits.
    let machine = QlaMachine::with_logical_qubits(400);
    println!(
        "machine: {} logical qubits | {:.1} cm^2 | {} ion sites | EC window {}",
        machine.logical_qubits(),
        machine.chip_area_m2() * 1e4,
        machine.physical_ion_sites(),
        machine.ecc_window()
    );

    // 4. Threshold analysis (Equation 2).
    let analysis = ThresholdAnalysis::paper_design_point();
    println!(
        "threshold analysis: level-2 failure {:.2e} -> max computation size {:.2e} steps",
        analysis.encoded_failure_rate(2),
        analysis.max_computation_size(2)
    );

    // 5. Plan a teleportation connection across the chip.
    let far_corner = LogicalQubitId(machine.logical_qubits() - 1);
    if let Some((separation, plan)) = machine.plan_connection(LogicalQubitId(0), far_corner) {
        println!(
            "corner-to-corner connection: {} cells, islands every {} cells, {} purification rounds, {}",
            plan.distance_cells, separation, plan.segment_purification.rounds, plan.total_time
        );
        println!(
            "communication hidden behind error correction: {}",
            machine.connection_overlaps_with_ecc(&plan)
        );
    }

    // 6. Run a Bell-pair circuit on the stabilizer backend (the paper's ARQ
    //    path) and time its ASAP schedule on the technology.
    let mut circuit = Circuit::new(2);
    circuit.h(0).cnot(0, 1).measure(0).measure(1);
    let mut sim = StabilizerSimulator::with_seed(2, 7);
    let bits = run_clifford(&mut sim, &circuit).expect("Clifford circuit");
    println!(
        "ARQ Bell test: measured {:?} (correlated: {}) in {}",
        bits,
        bits[0] == bits[1],
        circuit.schedule().latency(&tech)
    );
}
