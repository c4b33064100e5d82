//! The threshold theorem and system-size analysis (Section 4.1.2, Equation 2).
//!
//! A computation of `S = K·Q` elementary steps requires the encoded failure
//! rate to be below `1/S`. For local architectures Gottesman's estimate gives
//! the failure rate of a level-`L` encoded operation as
//!
//! ```text
//! Pf = (pth / r^L) · (p0 / pth)^(2^L)                         (Equation 2)
//! ```
//!
//! where `r` is the communication distance between level-1 blocks (r = 12
//! cells in the QLA layout), `pth` the threshold of the code/architecture
//! combination, and `p0` the elementary component failure probability.
//!
//! With the *expected* ion-trap parameters of Table 1 and the theoretical
//! threshold `pth = 7.5e-5` (Svore/Terhal/DiVincenzo), the paper obtains
//! `Pf ≈ 1.0e-16` at level 2, i.e. a maximum computation size of
//! `S ≈ 9.9e15` — comfortably above the `4.4e12` steps needed to factor a
//! 1024-bit number. With the empirical threshold `pth ≈ 2.1e-3` measured by
//! ARQ (Figure 7), the level-2 reliability approaches `1e-21`.

use qla_physical::FailureRates;
use serde::{Deserialize, Serialize};

/// The theoretical threshold for the Steane \[\[7,1,3\]\] code accounting for
/// movement and gates, computed by Svore, Terhal and DiVincenzo (reference
/// \[41\] of the paper).
pub const THEORETICAL_THRESHOLD: f64 = 7.5e-5;

/// The empirical threshold for the QLA logical qubit measured with ARQ
/// (Section 4.1.3): (2.1 ± 1.8) × 10⁻³.
pub const EMPIRICAL_THRESHOLD: f64 = 2.1e-3;

/// The average communication distance between level-1 blocks in the QLA
/// layout, in cells.
pub const BLOCK_COMMUNICATION_DISTANCE: f64 = 12.0;

/// Parameters of the local-architecture threshold analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdAnalysis {
    /// Elementary component failure probability `p0`.
    pub p0: f64,
    /// Threshold failure probability `pth`.
    pub pth: f64,
    /// Communication distance between level-1 blocks, `r` (cells).
    pub r: f64,
}

impl ThresholdAnalysis {
    /// Analysis at the paper's design point: `p0` is the mean expected
    /// component failure rate, `pth` the theoretical threshold, `r = 12`.
    #[must_use]
    pub fn paper_design_point() -> Self {
        ThresholdAnalysis {
            p0: FailureRates::expected().mean_component_rate(),
            pth: THEORETICAL_THRESHOLD,
            r: BLOCK_COMMUNICATION_DISTANCE,
        }
    }

    /// Same design point but with the empirically measured threshold of
    /// Figure 7.
    #[must_use]
    pub fn empirical_design_point() -> Self {
        ThresholdAnalysis {
            pth: EMPIRICAL_THRESHOLD,
            ..Self::paper_design_point()
        }
    }

    /// Equation 2: the failure probability of a level-`L` encoded operation.
    #[must_use]
    pub fn encoded_failure_rate(&self, level: u32) -> f64 {
        (self.pth / self.r.powi(level as i32)) * (self.p0 / self.pth).powi(1 << level)
    }

    /// The largest computation size `S = K·Q` supportable at recursion level
    /// `level` (the reciprocal of the encoded failure rate).
    #[must_use]
    pub fn max_computation_size(&self, level: u32) -> f64 {
        1.0 / self.encoded_failure_rate(level)
    }

    /// The smallest recursion level whose encoded failure rate is below
    /// `1 / required_steps`, or `None` if no level up to `max_level` works
    /// (i.e. the components are above threshold).
    #[must_use]
    pub fn required_level(&self, required_steps: f64, max_level: u32) -> Option<u32> {
        (1..=max_level).find(|&level| self.max_computation_size(level) >= required_steps)
    }
}

/// The computation size the paper quotes for factoring a 1024-bit number with
/// the latency-optimised circuits of Van Meter and Itoh: `S ≈ 4.4e12`.
pub const SHOR_1024_STEPS: f64 = 4.4e12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_2_reproduces_the_level2_failure_rate() {
        // Paper: "we get an estimated level 2 failure rate of 1.0e-16".
        let a = ThresholdAnalysis::paper_design_point();
        let pf = a.encoded_failure_rate(2);
        assert!(
            pf > 0.5e-16 && pf < 2.0e-16,
            "level-2 failure rate {pf:e} should be ~1.0e-16"
        );
    }

    #[test]
    fn equation_2_reproduces_the_system_size() {
        // Paper: "This gives a computer of size S = KQ = 9.9e15".
        let a = ThresholdAnalysis::paper_design_point();
        let s = a.max_computation_size(2);
        assert!(s > 5e15 && s < 2e16, "system size {s:e} should be ~9.9e15");
    }

    #[test]
    fn empirical_threshold_pushes_reliability_towards_1e21() {
        // Paper: "Reevaluating Equation 2 with the empirical value for pth we
        // get an estimated level 2 reliability approaching 1e-21."
        let a = ThresholdAnalysis::empirical_design_point();
        let pf = a.encoded_failure_rate(2);
        assert!(pf < 1e-20, "empirical level-2 failure rate {pf:e}");
        assert!(pf > 1e-23);
    }

    #[test]
    fn level2_is_sufficient_for_shor_1024() {
        // Paper: 4.4e12 steps "is a few orders of magnitude below the
        // computation size attainable with level 2 recursion".
        let a = ThresholdAnalysis::paper_design_point();
        assert!(a.max_computation_size(2) > 100.0 * SHOR_1024_STEPS);
        assert_eq!(a.required_level(SHOR_1024_STEPS, 4), Some(2));
    }

    #[test]
    fn level1_is_not_sufficient_for_shor_1024() {
        let a = ThresholdAnalysis::paper_design_point();
        assert!(a.max_computation_size(1) < SHOR_1024_STEPS);
    }

    #[test]
    fn below_threshold_check() {
        // Below threshold some level suffices; above it none does.
        let below = ThresholdAnalysis::paper_design_point();
        assert!(below.required_level(1e12, 5).is_some());
        let above = ThresholdAnalysis {
            p0: 1e-2,
            ..ThresholdAnalysis::paper_design_point()
        };
        assert_eq!(above.required_level(1e12, 5), None);
    }

    #[test]
    fn current_technology_is_above_threshold() {
        // The currently demonstrated two-qubit gate error (3%) is far above
        // the 7.5e-5 threshold, which is why the paper needs the projected
        // parameters: encoding makes it worse.
        let a = ThresholdAnalysis {
            p0: FailureRates::current().mean_component_rate(),
            pth: THEORETICAL_THRESHOLD,
            r: BLOCK_COMMUNICATION_DISTANCE,
        };
        assert!(a.encoded_failure_rate(1) > a.p0);
    }

    #[test]
    fn deeper_recursion_helps_below_threshold() {
        let a = ThresholdAnalysis::paper_design_point();
        assert!(a.encoded_failure_rate(2) < a.encoded_failure_rate(1));
        assert!(a.encoded_failure_rate(3) < a.encoded_failure_rate(2));
    }
}
