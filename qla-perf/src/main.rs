//! `qla-perf` — run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path qla-perf/Cargo.toml -- \
//!     --workload fig7|factor128-replay|serve-mix|all \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! A table of every metric with its unit and sample count goes to stderr;
//! the last line of stdout is the JSON result. The process exits 0 when
//! every checked output was correct, 1 when the correctness gate failed,
//! and 2 without a result when the run could not start.

use qla_perf::{result_json, run, Outcome, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 2005,
        seconds: 30.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    WORKLOADS.iter().map(ToString::to_string).collect()
                } else {
                    vec![name]
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (expected 0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workloads.is_empty() {
        return Err(format!(
            "--workload is required (one of {}, or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qla-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in &args.workloads {
        let outcome = match run(workload, args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("qla-perf: {workload}: {e}");
                return ExitCode::from(2);
            }
        };
        report(workload, args.seed, &outcome);
        all_correct &= outcome.gate.correct();
        println!("{}", result_json(&outcome));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The human-readable table on stderr, plus the span file of a traced
/// run.
fn report(workload: &str, seed: u64, outcome: &Outcome) {
    let gate = &outcome.gate;
    eprintln!(
        "== {workload} (seed {seed}): {} operations, {} failed",
        gate.attempted, gate.failed
    );
    for failure in gate.failures.iter().take(20) {
        eprintln!("   FAILED: {failure}");
    }
    eprintln!(
        "   {:<34} {:>18} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        eprintln!(
            "   {:<34} {:>18.6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some((census, passes)) = &outcome.spans {
        eprintln!("   self time by layer over {workload}'s traced passes:");
        for (layer, ns) in passes.self_time_by_layer() {
            eprintln!("   {layer:<34} {:>18.3} ms", ns as f64 / 1e6);
        }
        // Next to the build: cargo's target directory for this package.
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR")
                .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string()),
        )
        .join("qla-perf");
        let path = dir.join(format!("spans-{workload}-{seed}.json"));
        let body = format!(
            "{{\"census\": {},\n\"workload\": {}}}\n",
            census.to_json(),
            passes.to_json()
        );
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("   spans written to {}", path.display()),
            Err(e) => eprintln!("   could not write {}: {e}", path.display()),
        }
    }
}
