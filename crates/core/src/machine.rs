//! The assembled QLA machine model.
//!
//! [`QlaMachine`] ties together everything the lower crates provide — the
//! technology parameters, the logical-qubit design and its error-correction
//! latencies, the chip floorplan, the teleportation interconnect and the EPR
//! scheduler — into the single object the performance evaluation of Section 5
//! (and the `qla-shor` resource model) works against.

use qla_layout::{AreaModel, Floorplan, LogicalQubitId};
use qla_network::{best_separation, ConnectionPlan, InterconnectParams, FIGURE9_SEPARATIONS};
use qla_physical::{TechnologyParams, Time};
use qla_qec::{ConcatenatedSteane, EccLatencies, ThresholdAnalysis};
use qla_sched::{schedule_toffoli_traffic, Mesh, ToffoliScheduleReport, ToffoliSite};
use serde::{Deserialize, Serialize};

use crate::MachineSpec;

/// A fully assembled QLA machine with a fixed number of logical qubits.
///
/// Built by [`MachineSpec::machine`](crate::MachineSpec::machine), which
/// checks the three fields the machine's methods rely on:
/// `logical_qubits`, `bandwidth` and `recursion_level`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QlaMachine {
    /// Physical technology (Table 1).
    pub tech: TechnologyParams,
    /// Recursion level of the logical qubits (2 in the paper's design point).
    pub recursion_level: u32,
    /// Error-correction step latencies used for scheduling and run-time
    /// estimation.
    pub ecc: EccLatencies,
    /// Channel bandwidth (physical channels per direction).
    pub bandwidth: usize,
    /// Chip floorplan.
    pub floorplan: Floorplan,
    /// Teleportation-interconnect parameters.
    pub interconnect: InterconnectParams,
}

impl QlaMachine {
    /// Build a machine with capacity for at least `logical_qubits` logical
    /// qubits at the paper's design point ([`MachineSpec::expected`] with
    /// `logical_qubits` swapped in).
    ///
    /// # Panics
    /// Panics if `logical_qubits` is zero or above
    /// [`MAX_LOGICAL_QUBITS`](crate::spec::MAX_LOGICAL_QUBITS); call
    /// [`MachineSpec::machine`] to handle the error instead.
    #[must_use]
    pub fn with_logical_qubits(logical_qubits: usize) -> Self {
        MachineSpec {
            logical_qubits,
            ..MachineSpec::expected()
        }
        .machine()
        .unwrap_or_else(|e| panic!("invalid design point: {e}"))
    }

    /// Number of logical qubit sites on the chip.
    #[must_use]
    pub fn logical_qubits(&self) -> usize {
        self.floorplan.qubit_count()
    }

    /// Number of physical ion sites on the chip.
    #[must_use]
    pub fn physical_ion_sites(&self) -> u64 {
        ConcatenatedSteane::new(self.recursion_level).total_ions() * self.logical_qubits() as u64
    }

    /// Chip area in square metres.
    #[must_use]
    pub fn chip_area_m2(&self) -> f64 {
        AreaModel {
            tile: self.floorplan.tile,
            tech: self.tech,
        }
        .area_m2(self.logical_qubits() as u64)
    }

    /// The level-L error-correction window that paces the whole machine.
    ///
    /// # Panics
    /// Panics if `recursion_level` exceeds
    /// [`qla_qec::EccLatencies::MAX_LEVEL`] — the configured latencies carry
    /// no constant for such a level, and silently reusing the level-2 value
    /// would mis-pace every schedule built on top.
    /// [`MachineSpec::machine`] rejects such design points at construction;
    /// only direct field-poking can reach this panic.
    #[must_use]
    pub fn ecc_window(&self) -> Time {
        self.ecc
            .window_for_level(self.recursion_level)
            .unwrap_or_else(|| {
                panic!(
                    "no ECC latency constant for recursion level {} (max supported: {}); \
                     build machines through MachineSpec::machine() to catch this at construction",
                    self.recursion_level,
                    EccLatencies::MAX_LEVEL
                )
            })
    }

    /// The error-correction latencies derived from the structural model of
    /// Equation 1 for this machine's technology (as opposed to the paper's
    /// published constants held in `ecc`).
    #[must_use]
    pub fn structural_ecc_latencies(&self) -> EccLatencies {
        EccLatencies::structural_for(self.tech)
    }

    /// The threshold analysis (Equation 2) at this machine's design point.
    #[must_use]
    pub fn threshold_analysis(&self) -> ThresholdAnalysis {
        ThresholdAnalysis {
            p0: self.tech.failures.mean_component_rate(),
            ..ThresholdAnalysis::paper_design_point()
        }
    }

    /// Largest computation size `S = K·Q` this machine supports.
    #[must_use]
    pub fn max_computation_size(&self) -> f64 {
        self.threshold_analysis()
            .max_computation_size(self.recursion_level)
    }

    /// Plan a teleportation connection between two logical qubits, choosing
    /// the best island separation.
    #[must_use]
    pub fn plan_connection(
        &self,
        from: LogicalQubitId,
        to: LogicalQubitId,
    ) -> Option<(usize, ConnectionPlan)> {
        let distance = self.floorplan.distance_cells(from, to);
        if distance == 0 {
            return None;
        }
        best_separation(&self.interconnect, distance, &FIGURE9_SEPARATIONS)
    }

    /// Whether a planned connection completes within one error-correction
    /// window, i.e. communication is fully hidden behind computation.
    #[must_use]
    pub fn connection_overlaps_with_ecc(&self, plan: &ConnectionPlan) -> bool {
        plan.total_time.as_secs() <= self.ecc_window().as_secs()
    }

    /// Per-pair service time of this machine's EPR channels: the wall-clock
    /// cost of one purified pair on a pipelined channel spanning one tile
    /// pitch, derived from the interconnect parameters (purification rounds
    /// plus ballistic resupply plus the hand-off swap).
    #[must_use]
    pub fn epr_pair_service_time(&self) -> Time {
        self.interconnect
            .pair_service_time(self.floorplan.tile.pitch_x_cells())
    }

    /// Purified EPR pairs one pipelined channel delivers within a single
    /// error-correction window: the window divided by
    /// [`Self::epr_pair_service_time`], at least 1.
    #[must_use]
    pub fn epr_pairs_per_ecc_window(&self) -> usize {
        let service = self.epr_pair_service_time().as_micros();
        (self.ecc_window().as_micros() / service).floor().max(1.0) as usize
    }

    /// Schedule the EPR traffic of a batch of fault-tolerant Toffoli gates on
    /// this machine's mesh and report whether it overlapped with error
    /// correction.
    #[must_use]
    pub fn schedule_toffolis(&self, sites: &[ToffoliSite]) -> ToffoliScheduleReport {
        let mesh = Mesh::from_floorplan(&self.floorplan, self.bandwidth)
            .with_pairs_per_window(self.epr_pairs_per_ecc_window());
        schedule_toffoli_traffic(&mesh, sites, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_machine_reports_consistent_geometry() {
        let m = QlaMachine::with_logical_qubits(100);
        assert!(m.logical_qubits() >= 100);
        assert!(m.chip_area_m2() > 1e-4);
        assert_eq!(m.physical_ion_sites(), m.logical_qubits() as u64 * 63 * 21);
    }

    #[test]
    fn default_ecc_window_is_the_level2_constant() {
        let m = QlaMachine::with_logical_qubits(10);
        assert!((m.ecc_window().as_secs() - 0.043).abs() < 1e-12);
    }

    #[test]
    fn structural_latencies_are_in_the_same_decade_as_the_paper() {
        let m = QlaMachine::with_logical_qubits(10);
        let s = m.structural_ecc_latencies();
        assert!(s.level2.as_secs() > 0.005 && s.level2.as_secs() < 0.15);
    }

    #[test]
    fn machine_supports_large_computations_at_level_2() {
        let m = QlaMachine::with_logical_qubits(1000);
        assert!(m.max_computation_size() > 1e15);
    }

    #[test]
    fn connections_between_nearby_qubits_overlap_with_ecc() {
        let m = QlaMachine::with_logical_qubits(400);
        let (d, plan) = m
            .plan_connection(LogicalQubitId(0), LogicalQubitId(21))
            .expect("plan must exist");
        assert!(FIGURE9_SEPARATIONS.contains(&d));
        assert!(m.connection_overlaps_with_ecc(&plan));
    }

    #[test]
    fn colocated_connection_needs_no_plan() {
        let m = QlaMachine::with_logical_qubits(16);
        assert!(m
            .plan_connection(LogicalQubitId(3), LogicalQubitId(3))
            .is_none());
    }

    #[test]
    fn epr_service_time_lands_near_the_old_hard_coded_constant() {
        // The 600 µs magic number `schedule_toffolis` used to hard-code is
        // now derived from the interconnect; at the paper design point the
        // derived value must stay in the same band so channel capacity per
        // window (~70 pairs at the 43 ms level-2 window) is preserved.
        let m = QlaMachine::with_logical_qubits(100);
        let service_us = m.epr_pair_service_time().as_micros();
        assert!(
            (300.0..1200.0).contains(&service_us),
            "service time {service_us} µs"
        );
        let pairs = m.epr_pairs_per_ecc_window();
        assert!((35..150).contains(&pairs), "pairs per window: {pairs}");
    }

    #[test]
    #[should_panic(expected = "logical_qubits must be between 1 and 1048576, got 0")]
    fn with_logical_qubits_routes_through_the_spec_checks() {
        let _ = QlaMachine::with_logical_qubits(0);
    }

    #[test]
    #[should_panic(expected = "no ECC latency constant for recursion level 3")]
    fn ecc_window_refuses_unsupported_recursion_levels() {
        let mut m = QlaMachine::with_logical_qubits(10);
        m.recursion_level = 3; // field-poking past the spec's checks
        let _ = m.ecc_window();
    }

    #[test]
    fn neighbourhood_toffoli_traffic_overlaps_with_ecc_at_bandwidth_2() {
        let m = QlaMachine::with_logical_qubits(400);
        let cols = m.floorplan.columns;
        let site = ToffoliSite {
            operands: [0, 1, cols],
            ancilla_base: cols + 1,
        };
        let report = m.schedule_toffolis(&[site]);
        assert_eq!(report.bandwidth, 2);
        assert!(
            report.overlaps_with_ecc,
            "report: {:?}",
            report.result.windows_used
        );
    }
}
