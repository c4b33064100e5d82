//! Technology parameters: execution times and failure probabilities of the
//! elementary physical operations (Table 1 of the paper).
//!
//! Two built-in parameter sets are provided:
//!
//! * [`TechnologyParams::current`] — component failure rates achieved
//!   experimentally at NIST with ⁹Be⁺ data ions and ²⁴Mg⁺ cooling ions at the
//!   time of the paper (Table 1, column "Pcurrent").
//! * [`TechnologyParams::expected`] — the projected failure rates along the
//!   ARDA quantum-computing roadmap (Table 1, column "Pexpected"); these are
//!   the numbers every performance result in the paper assumes.
//!
//! Section 6 of the paper ("Relaxing the Technology Restrictions") re-runs
//! the analysis under weaker technology assumptions to show the architecture
//! does not hinge on the full ARDA projection being met. Two of those relaxed
//! design points ship as constructors here and as named machine profiles in
//! `qla_core::spec` (`relaxed-failures`, `relaxed-speed`):
//!
//! * [`TechnologyParams::relaxed_failures`] — every gate, measurement and
//!   movement failure rate an order of magnitude worse than "expected",
//!   probing how much headroom the level-2 design point keeps below
//!   threshold.
//! * [`TechnologyParams::relaxed_speed`] — every operation an order of
//!   magnitude slower than Table 1 while keeping the expected failure rates,
//!   probing how run times (and the Eq. 1 error-correction cadence) scale
//!   when gate/measurement speed, not fidelity, is the lagging technology.
//!
//! Fully custom parameter sets can still be constructed field-by-field (or
//! loaded from a `MachineSpec` file) for finer-grained sensitivity studies.

use crate::ops::PhysicalOp;
use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Execution times of the elementary operations (Table 1, column "Time").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperationTimes {
    /// Single-qubit laser gate.
    pub single_gate: Time,
    /// Two-qubit gate.
    pub double_gate: Time,
    /// Fluorescence measurement.
    pub measure: Time,
    /// Ballistic movement, per micron of travel (Table 1: 10 ns/µm).
    pub move_per_um: Time,
    /// Ballistic movement, per cell, in the pipelined-channel model of
    /// Section 2.1 (0.01 µs per 20 µm trap).
    pub move_per_cell: Time,
    /// Splitting an ion off a linear chain.
    pub split: Time,
    /// Turning a corner at a channel intersection (modelled at split cost).
    pub corner_turn: Time,
    /// Sympathetic cooling.
    pub cool: Time,
    /// Qubit memory lifetime (decoherence time); Table 1 quotes 10–100 s, the
    /// analysis uses the conservative 10 s end.
    pub memory_lifetime: Time,
}

impl OperationTimes {
    /// The operation times of Table 1 (identical for the "current" and
    /// "expected" columns — only failure rates differ between them).
    #[must_use]
    pub fn table1() -> Self {
        OperationTimes {
            single_gate: Time::from_micros(1.0),
            double_gate: Time::from_micros(10.0),
            measure: Time::from_micros(100.0),
            move_per_um: Time::from_nanos(10.0),
            move_per_cell: Time::from_micros(0.01),
            split: Time::from_micros(10.0),
            corner_turn: Time::from_micros(10.0),
            cool: Time::from_micros(1.0),
            memory_lifetime: Time::from_secs(10.0),
        }
    }

    /// These times uniformly slowed by `factor` (memory lifetime is a
    /// property of the ion, not of the control system, and stays fixed).
    /// The Section 6 "relaxed speed" scenario uses `slowed(10.0)`.
    #[must_use]
    pub fn slowed(&self, factor: f64) -> Self {
        OperationTimes {
            single_gate: self.single_gate * factor,
            double_gate: self.double_gate * factor,
            measure: self.measure * factor,
            move_per_um: self.move_per_um * factor,
            move_per_cell: self.move_per_cell * factor,
            split: self.split * factor,
            corner_turn: self.corner_turn * factor,
            cool: self.cool * factor,
            memory_lifetime: self.memory_lifetime,
        }
    }
}

impl Default for OperationTimes {
    fn default() -> Self {
        OperationTimes::table1()
    }
}

/// Failure probabilities of the elementary operations (Table 1, columns
/// "Pcurrent" / "Pexpected").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureRates {
    /// Single-qubit gate failure probability.
    pub single_gate: f64,
    /// Two-qubit gate failure probability.
    pub double_gate: f64,
    /// Measurement failure probability.
    pub measure: f64,
    /// Movement failure probability per micron (the "current" column is
    /// quoted per µm).
    pub move_per_um: f64,
    /// Movement failure probability per cell (the "expected" column is quoted
    /// per cell).
    pub move_per_cell: f64,
    /// Memory (decoherence) failure probability per second of idling. Derived
    /// from the memory lifetime as `1 / lifetime_seconds`.
    pub memory_per_sec: f64,
}

impl FailureRates {
    /// Experimentally achieved rates (Table 1, "Pcurrent"). The per-cell
    /// movement rate is the per-µm rate times the 20 µm cell pitch.
    #[must_use]
    pub fn current() -> Self {
        let move_per_um = 0.005;
        FailureRates {
            single_gate: 1e-4,
            double_gate: 0.03,
            measure: 0.01,
            move_per_um,
            move_per_cell: move_per_um * TechnologyParams::DEFAULT_CELL_SIZE_UM,
            memory_per_sec: 0.1,
        }
    }

    /// Projected rates along the ARDA roadmap (Table 1, "Pexpected"). The
    /// per-µm movement rate is the per-cell rate divided by the 20 µm pitch.
    #[must_use]
    pub fn expected() -> Self {
        let move_per_cell = 1e-6;
        FailureRates {
            single_gate: 1e-8,
            double_gate: 1e-7,
            measure: 1e-8,
            move_per_um: move_per_cell / TechnologyParams::DEFAULT_CELL_SIZE_UM,
            move_per_cell,
            memory_per_sec: 0.1,
        }
    }

    /// The Section 6 "relaxed failures" rates: every expected gate,
    /// measurement and movement failure probability an order of magnitude
    /// worse (memory decoherence is set by the trap environment and stays
    /// at the Table 1 value).
    #[must_use]
    pub fn relaxed() -> Self {
        let expected = FailureRates::expected();
        FailureRates {
            single_gate: expected.single_gate * 10.0,
            double_gate: expected.double_gate * 10.0,
            measure: expected.measure * 10.0,
            move_per_um: expected.move_per_um * 10.0,
            move_per_cell: expected.move_per_cell * 10.0,
            memory_per_sec: expected.memory_per_sec,
        }
    }

    /// The mean of the gate, measurement and per-cell movement failure rates.
    ///
    /// Section 4.1.2 uses this average as the elementary component failure
    /// probability `p0` when evaluating Gottesman's local-architecture bound
    /// (Eq. 2).
    #[must_use]
    pub fn mean_component_rate(&self) -> f64 {
        (self.single_gate + self.double_gate + self.measure + self.move_per_cell) / 4.0
    }
}

/// A complete technology description: operation times, failure rates and the
/// geometric cell pitch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechnologyParams {
    /// Operation execution times.
    pub times: OperationTimes,
    /// Operation failure probabilities.
    pub failures: FailureRates,
    /// Edge length of a QCCD cell in microns (20 µm along the ARDA roadmap).
    pub cell_size_um: f64,
}

impl TechnologyParams {
    /// The 20 µm trap pitch assumed throughout the paper.
    pub const DEFAULT_CELL_SIZE_UM: f64 = 20.0;

    /// Technology using the currently (2005) demonstrated failure rates.
    #[must_use]
    pub fn current() -> Self {
        TechnologyParams {
            times: OperationTimes::table1(),
            failures: FailureRates::current(),
            cell_size_um: Self::DEFAULT_CELL_SIZE_UM,
        }
    }

    /// Technology using the projected ("expected") failure rates; this is the
    /// design point of every QLA performance number in the paper.
    #[must_use]
    pub fn expected() -> Self {
        TechnologyParams {
            times: OperationTimes::table1(),
            failures: FailureRates::expected(),
            cell_size_um: Self::DEFAULT_CELL_SIZE_UM,
        }
    }

    /// Section 6 "relaxed failures": Table 1 operation times with every
    /// failure rate 10× worse than "expected" ([`FailureRates::relaxed`]).
    #[must_use]
    pub fn relaxed_failures() -> Self {
        TechnologyParams {
            times: OperationTimes::table1(),
            failures: FailureRates::relaxed(),
            cell_size_um: Self::DEFAULT_CELL_SIZE_UM,
        }
    }

    /// Section 6 "relaxed speed": expected failure rates with every
    /// operation 10× slower than Table 1 ([`OperationTimes::slowed`]).
    #[must_use]
    pub fn relaxed_speed() -> Self {
        TechnologyParams {
            times: OperationTimes::table1().slowed(10.0),
            failures: FailureRates::expected(),
            cell_size_um: Self::DEFAULT_CELL_SIZE_UM,
        }
    }

    /// Execution time of one elementary operation.
    #[must_use]
    pub fn op_time(&self, op: &PhysicalOp) -> Time {
        match op {
            PhysicalOp::SingleQubitGate(_) => self.times.single_gate,
            PhysicalOp::TwoQubitGate(_) => self.times.double_gate,
            PhysicalOp::Measure => self.times.measure,
            PhysicalOp::Move { cells } => self.times.move_per_cell * *cells,
            PhysicalOp::Split => self.times.split,
            PhysicalOp::CornerTurn => self.times.corner_turn,
            PhysicalOp::Cool => self.times.cool,
            PhysicalOp::MemoryIdle { micros } => Time::from_micros(*micros),
        }
    }

    /// Failure probability of one elementary operation.
    ///
    /// Movement failure accumulates per cell: `1 - (1 - p_cell)^cells`.
    /// Memory idling accumulates per second of idle time.
    #[must_use]
    pub fn op_failure(&self, op: &PhysicalOp) -> f64 {
        match op {
            PhysicalOp::SingleQubitGate(_) => self.failures.single_gate,
            PhysicalOp::TwoQubitGate(_) => self.failures.double_gate,
            PhysicalOp::Measure => self.failures.measure,
            PhysicalOp::Move { cells } => {
                1.0 - (1.0 - self.failures.move_per_cell).powi(*cells as i32)
            }
            // Splitting and corner turning stress the ion like movement over a
            // trap-sized distance; charge the per-cell movement rate.
            PhysicalOp::Split | PhysicalOp::CornerTurn => self.failures.move_per_cell,
            // Cooling acts on the cooling ion, not the data ion; it does not
            // directly corrupt quantum data.
            PhysicalOp::Cool => 0.0,
            PhysicalOp::MemoryIdle { micros } => {
                let secs = micros / 1e6;
                1.0 - (-self.failures.memory_per_sec * secs).exp()
            }
        }
    }

    /// Edge length of a QCCD cell in metres.
    #[must_use]
    pub fn cell_size_m(&self) -> f64 {
        self.cell_size_um * 1e-6
    }

    /// Area of one QCCD cell in square metres.
    #[must_use]
    pub fn cell_area_m2(&self) -> f64 {
        let edge = self.cell_size_m();
        edge * edge
    }
}

impl Default for TechnologyParams {
    fn default() -> Self {
        TechnologyParams::expected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_times_match_the_paper() {
        let t = OperationTimes::table1();
        assert_eq!(t.single_gate.as_micros(), 1.0);
        assert_eq!(t.double_gate.as_micros(), 10.0);
        assert_eq!(t.measure.as_micros(), 100.0);
        assert_eq!(t.move_per_um.as_nanos(), 10.0);
        assert_eq!(t.split.as_micros(), 10.0);
        assert_eq!(t.cool.as_micros(), 1.0);
        assert_eq!(t.memory_lifetime.as_secs(), 10.0);
    }

    #[test]
    fn current_failure_rates_match_the_paper() {
        let p = FailureRates::current();
        assert_eq!(p.single_gate, 1e-4);
        assert_eq!(p.double_gate, 0.03);
        assert_eq!(p.measure, 0.01);
        assert_eq!(p.move_per_um, 0.005);
    }

    #[test]
    fn expected_failure_rates_match_the_paper() {
        let p = FailureRates::expected();
        assert_eq!(p.single_gate, 1e-8);
        assert_eq!(p.double_gate, 1e-7);
        assert_eq!(p.measure, 1e-8);
        assert_eq!(p.move_per_cell, 1e-6);
    }

    #[test]
    fn mean_component_rate_matches_section_4_1_2() {
        // (1e-8 + 1e-7 + 1e-8 + 1e-6) / 4 = 2.8e-7
        let p0 = FailureRates::expected().mean_component_rate();
        assert!((p0 - 2.8e-7).abs() < 1e-12);
    }

    #[test]
    fn op_time_lookup() {
        let tech = TechnologyParams::expected();
        assert_eq!(tech.op_time(&PhysicalOp::single_qubit()).as_micros(), 1.0);
        assert_eq!(tech.op_time(&PhysicalOp::two_qubit()).as_micros(), 10.0);
        assert_eq!(tech.op_time(&PhysicalOp::Measure).as_micros(), 100.0);
        assert_eq!(
            tech.op_time(&PhysicalOp::Move { cells: 100 }).as_micros(),
            1.0
        );
        assert_eq!(tech.op_time(&PhysicalOp::Split).as_micros(), 10.0);
    }

    #[test]
    fn movement_failure_accumulates_per_cell() {
        let tech = TechnologyParams::expected();
        let p1 = tech.op_failure(&PhysicalOp::Move { cells: 1 });
        let p100 = tech.op_failure(&PhysicalOp::Move { cells: 100 });
        assert!((p1 - 1e-6).abs() < 1e-12);
        assert!(p100 > 99.0 * p1 && p100 < 100.0 * p1 + 1e-9);
    }

    #[test]
    fn memory_idle_failure_grows_with_time() {
        let tech = TechnologyParams::expected();
        let short = tech.op_failure(&PhysicalOp::MemoryIdle { micros: 1.0 });
        let long = tech.op_failure(&PhysicalOp::MemoryIdle { micros: 1e6 });
        assert!(short < long);
        assert!(long < 0.2);
    }

    #[test]
    fn relaxed_failures_are_ten_times_expected() {
        let relaxed = FailureRates::relaxed();
        let expected = FailureRates::expected();
        assert_eq!(relaxed.single_gate, expected.single_gate * 10.0);
        assert_eq!(relaxed.double_gate, expected.double_gate * 10.0);
        assert_eq!(relaxed.measure, expected.measure * 10.0);
        assert_eq!(relaxed.move_per_cell, expected.move_per_cell * 10.0);
        assert_eq!(relaxed.memory_per_sec, expected.memory_per_sec);
        assert_eq!(
            TechnologyParams::relaxed_failures().times,
            OperationTimes::table1()
        );
    }

    #[test]
    fn relaxed_speed_slows_every_op_but_not_memory() {
        let slow = TechnologyParams::relaxed_speed();
        let base = OperationTimes::table1();
        assert_eq!(slow.times.single_gate, base.single_gate * 10.0);
        assert_eq!(slow.times.double_gate, base.double_gate * 10.0);
        assert_eq!(slow.times.measure, base.measure * 10.0);
        assert_eq!(slow.times.move_per_cell, base.move_per_cell * 10.0);
        assert_eq!(slow.times.memory_lifetime, base.memory_lifetime);
        assert_eq!(slow.failures, FailureRates::expected());
    }

    #[test]
    fn cell_geometry() {
        let tech = TechnologyParams::expected();
        assert!((tech.cell_size_m() - 20e-6).abs() < 1e-12);
        assert!((tech.cell_area_m2() - 4e-10).abs() < 1e-16);
    }
}
