//! The Figure 7 experiment: Monte-Carlo estimate of the logical gate failure
//! rate at recursion levels 1 and 2 as the physical component failure rate is
//! swept, and the empirical threshold where the curves cross.
//!
//! ```text
//! cargo run --release --example threshold_sweep
//! ```

use qla::core::{Executor, ThresholdExperiment};
use qla::qec::{ThresholdAnalysis, EMPIRICAL_THRESHOLD};

fn main() {
    println!("=== Figure 7: logical gate failure vs component failure ===\n");

    let experiment = ThresholdExperiment {
        trials: 20_000,
        seed: 2005,
        movement_error: 1.2e-5,
    };

    let rates = [5e-4, 1e-3, 1.5e-3, 2e-3, 2.5e-3, 4e-3, 8e-3, 1.5e-2];
    let (points, threshold) =
        experiment.sweep_and_threshold(&rates, 3e-4, 3e-2, 12, &Executor::SEQUENTIAL);
    println!(
        "{:>14} {:>16} {:>16}",
        "physical p", "level-1 failure", "level-2 failure"
    );
    for point in points {
        println!(
            "{:>14.2e} {:>16.3e} {:>16.3e}",
            point.physical_rate, point.level1_rate, point.level2_rate
        );
    }

    println!("\nestimating the pseudo-threshold (level-1 curve crossing y = x)...");
    match threshold {
        Some(pth) => {
            println!("  empirical threshold ~ {pth:.2e}");
            println!("  paper's ARQ measurement: {EMPIRICAL_THRESHOLD:.1e} (+/- 1.8e-3)");
            // Re-evaluate Equation 2 with the empirical threshold, as Section
            // 4.1.3 does.
            let analysis = ThresholdAnalysis {
                pth,
                ..ThresholdAnalysis::paper_design_point()
            };
            println!(
                "  Equation 2 with this threshold: level-2 failure rate {:.2e}",
                analysis.encoded_failure_rate(2)
            );
        }
        None => println!("  no crossing found in the scanned range"),
    }
}
