//! The error-correction latency model (Section 4.1.1, Equation 1).
//!
//! The paper estimates the wall-clock time of one error-correction step at
//! recursion level `L` as
//!
//! ```text
//! T_L,ecc = 2 · T_L,synd                                   (trivial syndrome)
//! T_L,ecc = 2 · (2·T_L,synd + T_1 + T_{L-1},ecc)           (non-trivial)
//! ```
//!
//! where `T_L,synd` is the time to extract one syndrome (dominated by the
//! preparation and verification of the logical ancilla block), `T_1` is the
//! time of a logical one-qubit gate, and `T_{L-1},ecc` is the lower-level
//! error-correction step that follows every level-`L` logical gate. This
//! module computes those quantities from the circuit structure of Figure 6
//! mapped onto the layout of Figure 5, driven entirely by the
//! [`TechnologyParams`] of Table 1.
//!
//! The paper quotes ≈0.003 s for level 1 and ≈0.043 s for level 2 (with
//! ≈0.008 s of the latter spent preparing logical ancilla). Our structural
//! model reproduces the ancilla-preparation figure closely and the totals to
//! within a small factor; the exact scheduling the authors used is not fully
//! specified, so [`EccLatencies::paper`] also exposes the published constants
//! for downstream models (Table 2) that want to match the paper exactly.

use qla_physical::{TechnologyParams, Time};
use serde::{Deserialize, Serialize};

/// Structural parameters of the syndrome-extraction schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleShape {
    /// Depth of the ancilla encoding circuit in transversal two-qubit steps.
    pub encode_depth_2q: usize,
    /// Depth of the ancilla encoding circuit in transversal one-qubit steps.
    pub encode_depth_1q: usize,
    /// Depth of the ancilla verification stage in transversal two-qubit steps.
    pub verify_depth_2q: usize,
    /// Average ballistic-movement distance (in cells) accompanying one
    /// transversal two-qubit gate at level 1 (the paper's `r ≈ 12`).
    pub level1_move_cells: usize,
    /// Average ballistic-movement distance at level 2 (blocks are further
    /// apart, and up to two corner turns are needed).
    pub level2_move_cells: usize,
    /// Corner turns charged per transversal two-qubit gate.
    pub corner_turns_per_gate: usize,
}

impl Default for ScheduleShape {
    fn default() -> Self {
        ScheduleShape {
            encode_depth_2q: 4,
            encode_depth_1q: 2,
            verify_depth_2q: 2,
            level1_move_cells: 12,
            level2_move_cells: 24,
            corner_turns_per_gate: 1,
        }
    }
}

/// The latency model for recursive Steane error correction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EccLatencyModel {
    /// Technology parameters (Table 1).
    pub tech: TechnologyParams,
    /// Schedule shape parameters.
    pub shape: ScheduleShape,
}

impl EccLatencyModel {
    /// Model using the expected technology parameters and the default
    /// schedule shape.
    #[must_use]
    pub fn expected() -> Self {
        EccLatencyModel {
            tech: TechnologyParams::expected(),
            shape: ScheduleShape::default(),
        }
    }

    /// Model with explicit technology parameters.
    #[must_use]
    pub fn new(tech: TechnologyParams, shape: ScheduleShape) -> Self {
        EccLatencyModel { tech, shape }
    }

    /// Ballistic-movement overhead accompanying one transversal two-qubit
    /// gate at the given level: a chain split, the cell-to-cell hops, and the
    /// configured number of corner turns.
    #[must_use]
    pub fn move_overhead(&self, level: u32) -> Time {
        let cells = if level <= 1 {
            self.shape.level1_move_cells
        } else {
            self.shape.level2_move_cells
        };
        self.tech.times.split
            + self.tech.times.move_per_cell * cells
            + self.tech.times.corner_turn * self.shape.corner_turns_per_gate
    }

    /// Time of a transversal logical two-qubit gate at `level` **including**
    /// the lower-level error correction that fault tolerance demands after
    /// every logical gate (for level 1 the "lower level" is a bare physical
    /// gate, which needs no correction).
    #[must_use]
    pub fn logical_cnot(&self, level: u32) -> Time {
        if level == 0 {
            return self.tech.times.double_gate;
        }
        let base = self.move_overhead(level) + self.tech.times.double_gate;
        if level == 1 {
            base
        } else {
            base + self.ecc_step_trivial(level - 1)
        }
    }

    /// Time of a transversal logical one-qubit gate at `level`, including the
    /// trailing lower-level correction above level 1.
    #[must_use]
    pub fn logical_1q(&self, level: u32) -> Time {
        if level == 0 {
            return self.tech.times.single_gate;
        }
        if level == 1 {
            self.tech.times.single_gate
        } else {
            self.tech.times.single_gate + self.ecc_step_trivial(level - 1)
        }
    }

    /// Transversal logical measurement time (all constituent ions are read
    /// out in parallel; classical decoding is free at these time scales).
    #[must_use]
    pub fn logical_measure(&self, _level: u32) -> Time {
        self.tech.times.measure
    }

    /// Time to prepare and verify one encoded logical ancilla block at
    /// `level` (the `prep` boxes of Figure 6).
    #[must_use]
    pub fn ancilla_prep(&self, level: u32) -> Time {
        if level == 0 {
            return self.tech.times.single_gate;
        }
        // Prepare the 7 sub-blocks in parallel, then run the encoding and
        // verification circuits out of transversal gates at this level.
        let sub_prep = self.ancilla_prep(level - 1);
        let encode = self.logical_cnot(level) * self.shape.encode_depth_2q
            + self.logical_1q(level) * self.shape.encode_depth_1q;
        let verify = self.logical_cnot(level) * self.shape.verify_depth_2q;
        sub_prep + encode + verify + self.logical_measure(level)
    }

    /// Time to extract one syndrome (one error type) at `level`:
    /// ancilla preparation + transversal interaction + ancilla measurement
    /// (`T_L,synd` of Equation 1).
    #[must_use]
    pub fn syndrome_extraction(&self, level: u32) -> Time {
        self.ancilla_prep(level) + self.logical_cnot(level) + self.logical_measure(level)
    }

    /// One error-correction step at `level` when the syndrome is trivial:
    /// `2 · T_L,synd` (X and Z syndromes extracted serially, Eq. 1 top).
    #[must_use]
    pub fn ecc_step_trivial(&self, level: u32) -> Time {
        if level == 0 {
            return Time::ZERO;
        }
        self.syndrome_extraction(level) * 2usize
    }

    /// One error-correction step at `level` when the syndrome is non-trivial:
    /// `2 · (2·T_L,synd + T_1 + T_{L-1},ecc)` (Eq. 1 bottom).
    #[must_use]
    pub fn ecc_step_nontrivial(&self, level: u32) -> Time {
        if level == 0 {
            return Time::ZERO;
        }
        (self.syndrome_extraction(level) * 2usize
            + self.logical_1q(level)
            + self.ecc_step_trivial(level.saturating_sub(1)))
            * 2usize
    }

    /// Expected error-correction latency at `level`, weighting the trivial
    /// and non-trivial branches by the probability of observing a non-trivial
    /// syndrome (Section 4.1.1 measured 3.35×10⁻⁴ at level 1 and 7.92×10⁻⁴ at
    /// level 2 with the expected technology).
    #[must_use]
    pub fn ecc_step_expected(&self, level: u32, nontrivial_rate: f64) -> Time {
        let trivial = self.ecc_step_trivial(level);
        let nontrivial = self.ecc_step_nontrivial(level);
        trivial * (1.0 - nontrivial_rate) + nontrivial * nontrivial_rate
    }

    /// The non-trivial syndrome rates the paper measured with the expected
    /// technology parameters, per level (level 1, level 2).
    #[must_use]
    pub fn paper_nontrivial_rates() -> (f64, f64) {
        (3.35e-4, 7.92e-4)
    }
}

/// The headline error-correction step latencies used by the system-level
/// performance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EccLatencies {
    /// Level-1 error-correction step.
    pub level1: Time,
    /// Level-2 error-correction step.
    pub level2: Time,
}

impl EccLatencies {
    /// The constants published in Section 4.1.1: 0.003 s and 0.043 s. Table 2
    /// and the Shor walk-through use these so that the reproduction matches
    /// the paper's arithmetic exactly.
    #[must_use]
    pub fn paper() -> Self {
        EccLatencies {
            level1: Time::from_secs(0.003),
            level2: Time::from_secs(0.043),
        }
    }

    /// The highest recursion level these latencies carry a constant for.
    ///
    /// The paper publishes (and this struct stores) per-step latencies for
    /// levels 1 and 2 only; a design point above that needs a new latency
    /// model before it can be scheduled.
    pub const MAX_LEVEL: u32 = 2;

    /// The error-correction window that paces a machine whose logical qubits
    /// are encoded at `level`, if these latencies cover that level.
    ///
    /// Level 0 (bare physical qubits) and level 1 are both paced by the
    /// level-1 step; level 2 by the level-2 step. Levels above
    /// [`Self::MAX_LEVEL`] return `None` — there is no published constant to
    /// fall back on, and silently reusing the level-2 value would
    /// underestimate every higher-level schedule.
    #[must_use]
    pub fn window_for_level(&self, level: u32) -> Option<Time> {
        match level {
            0 | 1 => Some(self.level1),
            2 => Some(self.level2),
            _ => None,
        }
    }

    /// Latencies derived from the structural Equation 1 model for `tech`
    /// with the default schedule shape — the profile constructor machine
    /// specs use when their technology differs from the paper's (the
    /// published constants only describe the Table 1 operation times).
    #[must_use]
    pub fn structural_for(tech: TechnologyParams) -> Self {
        EccLatencies::from_model(&EccLatencyModel {
            tech,
            shape: ScheduleShape::default(),
        })
    }

    /// Latencies computed from the structural model with the given
    /// technology.
    #[must_use]
    pub fn from_model(model: &EccLatencyModel) -> Self {
        let (r1, r2) = EccLatencyModel::paper_nontrivial_rates();
        EccLatencies {
            level1: model.ecc_step_expected(1, r1),
            level2: model.ecc_step_expected(2, r2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_levels_up_to_max_and_refuse_beyond() {
        let lat = EccLatencies::paper();
        assert_eq!(lat.window_for_level(0), Some(lat.level1));
        assert_eq!(lat.window_for_level(1), Some(lat.level1));
        assert_eq!(lat.window_for_level(2), Some(lat.level2));
        assert_eq!(lat.window_for_level(EccLatencies::MAX_LEVEL + 1), None);
        assert_eq!(lat.window_for_level(7), None);
    }

    #[test]
    fn level0_costs_are_bare_physical_ops() {
        let m = EccLatencyModel::expected();
        assert_eq!(m.logical_cnot(0).as_micros(), 10.0);
        assert_eq!(m.logical_1q(0).as_micros(), 1.0);
        assert_eq!(m.ecc_step_trivial(0), Time::ZERO);
    }

    #[test]
    fn latencies_grow_rapidly_with_level() {
        let m = EccLatencyModel::expected();
        let l1 = m.ecc_step_trivial(1);
        let l2 = m.ecc_step_trivial(2);
        let l3 = m.ecc_step_trivial(3);
        assert!(l2.as_secs() > 5.0 * l1.as_secs());
        assert!(l3.as_secs() > 5.0 * l2.as_secs());
    }

    #[test]
    fn level1_latency_is_milliseconds_scale() {
        // Paper: ≈ 0.003 s. The structural model must land in the same decade.
        let m = EccLatencyModel::expected();
        let (r1, _) = EccLatencyModel::paper_nontrivial_rates();
        let l1 = m.ecc_step_expected(1, r1).as_secs();
        assert!(l1 > 0.0005 && l1 < 0.01, "level-1 ECC {l1} s out of range");
    }

    #[test]
    fn level2_latency_is_tens_of_milliseconds_scale() {
        // Paper: ≈ 0.043 s.
        let m = EccLatencyModel::expected();
        let (_, r2) = EccLatencyModel::paper_nontrivial_rates();
        let l2 = m.ecc_step_expected(2, r2).as_secs();
        assert!(l2 > 0.005 && l2 < 0.15, "level-2 ECC {l2} s out of range");
    }

    #[test]
    fn ancilla_prep_dominates_syndrome_extraction() {
        let m = EccLatencyModel::expected();
        for level in 1..=2 {
            let prep = m.ancilla_prep(level).as_secs();
            let synd = m.syndrome_extraction(level).as_secs();
            assert!(prep > 0.5 * synd, "level {level}");
        }
    }

    #[test]
    fn nontrivial_branch_is_slower_than_trivial() {
        let m = EccLatencyModel::expected();
        for level in 1..=2 {
            assert!(m.ecc_step_nontrivial(level) > m.ecc_step_trivial(level));
        }
    }

    #[test]
    fn expected_latency_interpolates_between_branches() {
        let m = EccLatencyModel::expected();
        let trivial = m.ecc_step_trivial(2);
        let nontrivial = m.ecc_step_nontrivial(2);
        let halfway = m.ecc_step_expected(2, 0.5);
        assert!(halfway > trivial && halfway < nontrivial);
        assert_eq!(m.ecc_step_expected(2, 0.0), trivial);
        assert_eq!(m.ecc_step_expected(2, 1.0), nontrivial);
    }

    #[test]
    fn paper_constants_match_section_4_1_1() {
        let p = EccLatencies::paper();
        assert!((p.level1.as_secs() - 0.003).abs() < 1e-12);
        assert!((p.level2.as_secs() - 0.043).abs() < 1e-12);
    }

    #[test]
    fn structural_model_within_small_factor_of_paper() {
        let model = EccLatencyModel::expected();
        let ours = EccLatencies::from_model(&model);
        let paper = EccLatencies::paper();
        let ratio1 = ours.level1.as_secs() / paper.level1.as_secs();
        let ratio2 = ours.level2.as_secs() / paper.level2.as_secs();
        assert!(ratio1 > 0.2 && ratio1 < 5.0, "level-1 ratio {ratio1}");
        assert!(ratio2 > 0.2 && ratio2 < 5.0, "level-2 ratio {ratio2}");
    }

    #[test]
    fn structural_for_matches_from_model_with_default_shape() {
        let tech = TechnologyParams::expected();
        assert_eq!(
            EccLatencies::structural_for(tech),
            EccLatencies::from_model(&EccLatencyModel {
                tech,
                shape: ScheduleShape::default()
            })
        );
        // Slower technology must surface as slower structural latencies.
        let slow = EccLatencies::structural_for(TechnologyParams::relaxed_speed());
        assert!(slow.level2 > EccLatencies::structural_for(tech).level2);
    }

    #[test]
    fn slower_technology_gives_slower_error_correction() {
        let expected = EccLatencyModel::expected();
        let mut slow_tech = TechnologyParams::expected();
        slow_tech.times.double_gate = qla_physical::Time::from_micros(100.0);
        slow_tech.times.measure = qla_physical::Time::from_micros(1000.0);
        let slow = EccLatencyModel::new(slow_tech, ScheduleShape::default());
        assert!(slow.ecc_step_trivial(2) > expected.ecc_step_trivial(2));
    }
}
