//! A guided tour of the QLA logical qubit: encode, inject errors, extract
//! syndromes exactly as in Figure 6, and watch the decoder recover — then
//! look at the latency (Eq. 1) and reliability (Eq. 2) models built on top.
//!
//! ```text
//! cargo run --example logical_qubit_tour
//! ```

use qla::qec::syndrome::{correction_for, extraction_circuit, syndrome_from_measurements};
use qla::qec::{
    encode_zero_circuit, run_clifford, steane_code, ConcatenatedSteane, EccLatencies,
    EccLatencyModel, ErrorType, ThresholdAnalysis,
};
use qla::stabilizer::{Pauli, StabilizerSimulator};

fn main() {
    println!("=== The QLA logical qubit ===\n");
    let code = steane_code();
    code.validate();
    println!(
        "{}: stabilizer generators {:?} (X and Z types share supports)",
        code.name, code.x_stabilizers
    );

    // Encode |0>_L, kick it with an X error on qubit 4, and run the Figure 6
    // X-syndrome extraction on the stabilizer simulator.
    let mut sim = StabilizerSimulator::with_seed(14, 1);
    run_clifford(&mut sim, &encode_zero_circuit()).expect("encoder is Clifford");
    println!("\ninjecting an X error on data qubit 4 ...");
    sim.apply_pauli(4, Pauli::X);

    let measured =
        run_clifford(&mut sim, &extraction_circuit(ErrorType::X)).expect("extraction is Clifford");
    let syndrome = syndrome_from_measurements(&code, ErrorType::X, &measured);
    println!("measured ancilla block: {measured:?}");
    println!("syndrome: {syndrome:?}");
    match correction_for(&code, ErrorType::X, &syndrome) {
        Some(gate) => println!("decoder says: apply `{gate}` — the injected error is located"),
        None => println!("decoder says: no error (unexpected!)"),
    }

    // The structure and cost of the recursive qubit.
    println!("\nrecursive structure (Figure 5):");
    for level in 1..=3u32 {
        let c = ConcatenatedSteane::new(level);
        println!(
            "  level {level}: {:>5} data qubits, {:>5} level-1 blocks, {:>7} ion sites",
            c.data_qubits(),
            c.level1_blocks(),
            c.total_ions()
        );
    }

    println!("\nerror-correction latency (Equation 1, expected technology):");
    let model = EccLatencyModel::expected();
    let structural = EccLatencies::from_model(&model);
    let paper = EccLatencies::paper();
    println!(
        "  structural model: level 1 {} | level 2 {}",
        structural.level1, structural.level2
    );
    println!(
        "  paper constants:  level 1 {} | level 2 {}",
        paper.level1, paper.level2
    );

    println!("\nreliability (Equation 2):");
    let analysis = ThresholdAnalysis::paper_design_point();
    for level in 1..=3u32 {
        println!(
            "  level {level}: encoded failure {:.2e} -> supports {:.2e} computational steps",
            analysis.encoded_failure_rate(level),
            analysis.max_computation_size(level)
        );
    }
}
