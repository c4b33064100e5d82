//! Entanglement purification (Bennett et al. protocol) with imperfect local
//! operations, following the recurrence analysis of Dür, Briegel, Cirac and
//! Zoller's quantum-repeater paper (reference \[28\] of the QLA paper).
//!
//! Purification consumes two noisy pairs of fidelity `F` and, with some
//! success probability, produces one pair of higher fidelity `F'`. With
//! perfect local operations the map is
//!
//! ```text
//!        F² + (1−F)²/9
//! F' = ─────────────────────────────
//!      F² + 2F(1−F)/3 + 5(1−F)²/9
//! ```
//!
//! Imperfect local gates and measurements impose a fidelity ceiling `F_max`
//! below 1: past that point additional rounds no longer help. That ceiling is
//! what ultimately limits how many entanglement-swapping stages a connection
//! can tolerate, and hence drives the island-separation trade-off of
//! Figure 9.

use crate::epr::EprPair;
use serde::{Deserialize, Serialize};

/// Parameters of one purification round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PurificationParams {
    /// Error probability of the local two-qubit operations used by one round
    /// (bilateral CNOT + measurements), folded into a single depolarising
    /// parameter applied to the output pair.
    pub local_op_error: f64,
}

impl PurificationParams {
    /// Ideal local operations.
    #[must_use]
    pub fn ideal() -> Self {
        PurificationParams {
            local_op_error: 0.0,
        }
    }

    /// One round of the Bennett protocol on two pairs of equal fidelity,
    /// returning the output pair and the success probability.
    #[must_use]
    pub fn purify(&self, pair: EprPair) -> (EprPair, f64) {
        let f = pair.fidelity;
        let bad = (1.0 - f) / 3.0;
        let p_success = f * f + 2.0 * f * bad + 5.0 * bad * bad;
        let f_out = (f * f + bad * bad) / p_success;
        let out = EprPair {
            fidelity: 0.25 + (f_out - 0.25) * (1.0 - self.local_op_error),
        };
        (out, p_success)
    }

    /// Number of purification rounds needed to raise `input` to at least
    /// `target` fidelity, together with the expected number of raw input
    /// pairs consumed. Returns `None` if the target is unreachable (at or
    /// above the ceiling, or the input is not purifiable).
    #[must_use]
    pub fn rounds_to_reach(&self, input: EprPair, target: f64) -> Option<PurificationPlan> {
        if input.fidelity >= target {
            return Some(PurificationPlan {
                rounds: 0,
                expected_pairs_consumed: 1.0,
                final_fidelity: input.fidelity,
            });
        }
        if !input.purifiable() {
            return None;
        }
        let mut pair = input;
        let mut rounds = 0usize;
        // Expected raw-pair cost: each round consumes the current pair plus a
        // fresh sacrificial pair of the same pedigree, and repeats on failure.
        let mut expected_pairs = 1.0f64;
        while pair.fidelity < target {
            let (next, p_success) = self.purify(pair);
            if next.fidelity <= pair.fidelity + 1e-12 {
                return None; // hit the ceiling
            }
            expected_pairs = (expected_pairs + 1.0) / p_success.max(1e-9);
            pair = next;
            rounds += 1;
            if rounds > 64 {
                return None;
            }
        }
        Some(PurificationPlan {
            rounds,
            expected_pairs_consumed: expected_pairs,
            final_fidelity: pair.fidelity,
        })
    }
}

/// The outcome of planning a purification sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PurificationPlan {
    /// Number of successful rounds required.
    pub rounds: usize,
    /// Expected number of raw pairs consumed, accounting for failures.
    pub expected_pairs_consumed: f64,
    /// Fidelity achieved after the final round.
    pub final_fidelity: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ideal_purification_increases_fidelity_above_one_half() {
        let params = PurificationParams::ideal();
        for f in [0.55, 0.7, 0.9, 0.99] {
            let (out, p) = params.purify(EprPair::with_fidelity(f));
            assert!(out.fidelity > f, "F={f}");
            assert!(p > 0.0 && p <= 1.0);
        }
    }

    #[test]
    fn rounds_to_reach_counts_rounds_and_pairs() {
        let params = PurificationParams {
            local_op_error: 1e-4,
        };
        let plan = params
            .rounds_to_reach(EprPair::with_fidelity(0.9), 0.995)
            .expect("target reachable");
        assert!(plan.rounds >= 2);
        assert!(plan.final_fidelity >= 0.995);
        assert!(plan.expected_pairs_consumed > plan.rounds as f64);
    }

    #[test]
    fn already_good_pairs_need_no_rounds() {
        let params = PurificationParams::ideal();
        let plan = params
            .rounds_to_reach(EprPair::with_fidelity(0.999), 0.99)
            .unwrap();
        assert_eq!(plan.rounds, 0);
        assert_eq!(plan.expected_pairs_consumed, 1.0);
    }

    #[test]
    fn unreachable_targets_are_reported() {
        let params = PurificationParams {
            local_op_error: 1e-2,
        };
        // Ceiling is below 0.9999, so this target is unreachable.
        assert!(params
            .rounds_to_reach(EprPair::with_fidelity(0.9), 0.9999)
            .is_none());
        // Unpurifiable input.
        assert!(params
            .rounds_to_reach(EprPair::with_fidelity(0.4), 0.9)
            .is_none());
    }

    #[test]
    fn more_ambitious_targets_need_more_rounds() {
        let params = PurificationParams {
            local_op_error: 1e-4,
        };
        let modest = params
            .rounds_to_reach(EprPair::with_fidelity(0.85), 0.95)
            .unwrap();
        let ambitious = params
            .rounds_to_reach(EprPair::with_fidelity(0.85), 0.995)
            .unwrap();
        assert!(ambitious.rounds >= modest.rounds);
        assert!(ambitious.expected_pairs_consumed >= modest.expected_pairs_consumed);
    }

    proptest! {
        #[test]
        fn purification_output_is_a_valid_werner_state(f in 0.51f64..1.0, err in 0.0f64..0.05) {
            let params = PurificationParams { local_op_error: err };
            let (out, p) = params.purify(EprPair::with_fidelity(f));
            prop_assert!(out.fidelity > 0.25 && out.fidelity <= 1.0);
            prop_assert!(p > 0.0 && p <= 1.0);
        }

        #[test]
        fn success_probability_grows_with_fidelity(f in 0.6f64..0.98) {
            let params = PurificationParams::ideal();
            let (_, p_low) = params.purify(EprPair::with_fidelity(f));
            let (_, p_high) = params.purify(EprPair::with_fidelity(f + 0.01));
            prop_assert!(p_high >= p_low - 1e-12);
        }
    }
}
