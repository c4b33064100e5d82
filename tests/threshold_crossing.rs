//! Workspace-level check that the Figure 7 experiment reproduces the
//! paper's empirical threshold.
//!
//! The paper reports the level-1/level-2 crossing at
//! (2.1 ± 1.8) × 10⁻³ (Section 4.1.3). A full-fidelity run uses
//! `ThresholdExperiment::default()`'s 20 000 trials per point; here the
//! trial count is reduced so the suite stays fast, while the seed and
//! every physical parameter keep their defaults — the experiment is
//! fully deterministic, so these bounds are exact regression checks,
//! not flaky statistical ones.

use qla::core::{Executor, ThresholdExperiment};

/// Paper band: 2.1e-3 minus/plus 1.8e-3.
const BAND_LO: f64 = 0.3e-3;
const BAND_HI: f64 = 3.9e-3;

fn small_trials() -> ThresholdExperiment {
    ThresholdExperiment {
        trials: 4_000,
        ..Default::default()
    }
}

#[test]
fn level2_wins_below_the_crossing_and_loses_above_it() {
    let e = small_trials();

    // Well below the paper band, concatenation must help at both levels.
    let p = 3e-4;
    let l1 = e.level1_failure_rate(p);
    let l2 = e.level1_failure_rate(l1);
    assert!(
        l1 < p,
        "below threshold, level-1 ({l1}) must beat physical ({p})"
    );
    assert!(
        l2 < l1,
        "below threshold, level-2 ({l2}) must beat level-1 ({l1})"
    );

    // Well above the paper band, recursion must amplify failure.
    let p = 8e-3;
    let l1 = e.level1_failure_rate(p);
    let l2 = e.level1_failure_rate(l1);
    assert!(
        l1 > p,
        "above threshold, level-1 ({l1}) must lose to physical ({p})"
    );
    assert!(
        l2 > l1,
        "above threshold, level-2 ({l2}) must lose to level-1 ({l1})"
    );
}

#[test]
fn crossing_point_lands_inside_the_paper_band() {
    let e = small_trials();
    let pth = e
        .estimate_threshold(2e-4, 3e-2, 12, &Executor::SEQUENTIAL)
        .expect("a level-1 crossing must exist in the scanned decade");
    assert!(
        (BAND_LO..=BAND_HI).contains(&pth),
        "empirical threshold {pth:.3e} outside the paper's (2.1 ± 1.8)e-3 band"
    );
}

#[test]
fn default_experiment_is_deterministic() {
    let a = small_trials().level1_failure_rate(1e-3);
    let b = small_trials().level1_failure_rate(1e-3);
    assert_eq!(a, b, "same seed and trials must reproduce identical rates");
}
