//! Whole-machine integration: floorplan, interconnect, scheduler, threshold
//! and Shor resource model agree with each other on a QLA sized for the
//! paper's headline workload (factoring a 128-bit number).

use qla::core::QlaMachine;
use qla::layout::LogicalQubitId;
use qla::network::FIGURE9_SEPARATIONS;
use qla::qec::threshold::SHOR_1024_STEPS;
use qla::sched::ToffoliSite;
use qla::shor::ShorEstimator;

#[test]
fn a_machine_sized_for_shor_128_hangs_together() {
    let resources = ShorEstimator::default().estimate(128);
    let machine = QlaMachine::with_logical_qubits(resources.logical_qubits as usize);

    // Geometry: the chip the machine builds is at least as large as Table 2's
    // area, and not wildly larger.
    assert!(machine.logical_qubits() >= resources.logical_qubits as usize);
    let area_ratio = machine.chip_area_m2() / resources.area_m2;
    assert!((1.0..1.3).contains(&area_ratio), "area ratio {area_ratio}");

    // Reliability: the design point supports the whole computation.
    let steps_needed = resources.total_gates as f64 * 25.0; // gates x EC steps, generous
    assert!(machine.max_computation_size() > steps_needed);

    // Communication: a connection across a sizeable fraction of the chip can
    // be planned and hides behind error correction.
    let far = LogicalQubitId(machine.floorplan.columns * 3 + 50);
    let (d, plan) = machine
        .plan_connection(LogicalQubitId(0), far)
        .expect("connection plan");
    assert!(FIGURE9_SEPARATIONS.contains(&d));
    assert!(machine.connection_overlaps_with_ecc(&plan));

    // Scheduling: a neighbourhood Toffoli's EPR traffic fits in one EC window
    // at the paper's bandwidth of 2.
    let cols = machine.floorplan.columns;
    let site = ToffoliSite {
        operands: [10, 11, 10 + cols],
        ancilla_base: 11 + cols,
    };
    let report = machine.schedule_toffolis(&[site]);
    assert!(report.overlaps_with_ecc);

    // Run time: under a day for 128 bits, tens of days for 2048 bits.
    assert!(resources.days() < 1.0);
    assert!(ShorEstimator::default().estimate(2048).days() > 20.0);
}

#[test]
fn level_2_is_the_right_recursion_level_for_the_paper_workloads() {
    let machine = QlaMachine::with_logical_qubits(1024);
    let analysis = machine.threshold_analysis();
    // Level 1 cannot support Shor-1024, level 2 can (Section 4.1.2).
    assert!(analysis.max_computation_size(1) < SHOR_1024_STEPS);
    assert!(analysis.max_computation_size(2) > SHOR_1024_STEPS);
    assert_eq!(analysis.required_level(SHOR_1024_STEPS, 4), Some(2));
}

#[test]
fn ballistic_baseline_loses_to_teleportation_at_chip_scale() {
    // The "simplistic approach": ballistically moving a logical qubit across
    // the chip accumulates far more error than the teleported alternative's
    // end-to-end infidelity budget.
    let machine = QlaMachine::with_logical_qubits(10_000);
    let tech = machine.tech;
    let from = LogicalQubitId(0);
    let to = LogicalQubitId(machine.logical_qubits() - 1);
    let route = qla::layout::BallisticRoute::between_qubits(&machine.floorplan, from, to);
    let ballistic_failure = route.logical_block_failure(&tech, 49);
    let (_, plan) = machine.plan_connection(from, to).expect("teleport plan");
    assert!(
        ballistic_failure > 1.0 - plan.final_fidelity,
        "ballistic {ballistic_failure} vs teleport {}",
        1.0 - plan.final_fidelity
    );
}

#[test]
fn structural_and_published_ecc_latencies_agree_to_a_small_factor() {
    let machine = QlaMachine::with_logical_qubits(64);
    let structural = machine.structural_ecc_latencies();
    let published = machine.ecc;
    let r1 = structural.level1.as_secs() / published.level1.as_secs();
    let r2 = structural.level2.as_secs() / published.level2.as_secs();
    assert!(r1 > 0.15 && r1 < 6.0, "level-1 ratio {r1}");
    assert!(r2 > 0.15 && r2 < 6.0, "level-2 ratio {r2}");
}
