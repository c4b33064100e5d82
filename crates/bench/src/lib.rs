//! Benchmark and experiment harness for the QLA reproduction.
//!
//! Every table and figure of the paper's evaluation is a registered
//! [`Experiment`](qla_core::Experiment) (see [`registry`]) producing a typed
//! [`Report`](qla_report::Report), driven by the single `qla-bench` CLI:
//!
//! ```text
//! cargo run --release -p qla-bench -- list
//! cargo run --release -p qla-bench -- describe fig7-threshold
//! cargo run --release -p qla-bench -- profiles
//! cargo run --release -p qla-bench -- run fig7-threshold --trials 5000 --format json
//! cargo run --release -p qla-bench -- run table2-shor --profile current
//! cargo run --release -p qla-bench -- run-all --format csv --out-dir reports
//! cargo run --release -p qla-bench -- run-all --jobs 4 --format json --out-dir reports
//! ```
//!
//! `--jobs N` (default: sequential) evaluates sweep points on the scoped
//! thread pool in `qla_core::executor`; reports are
//! byte-identical at every job count, and `run-all` isolates per-experiment
//! panics, finishing the rest of the registry before exiting non-zero with
//! a failure summary. `--profile <name>` / `--spec <file>` select the
//! machine scenario ([`qla_core::MachineSpec`]) every experiment receives;
//! the resulting reports carry a scenario header naming it.
//!
//! | experiment | paper artefact |
//! |---|---|
//! | `table1` | Table 1 — technology parameters |
//! | `channel-bandwidth` | §2.1 — ballistic channel latency/bandwidth |
//! | `ecc-latency` | §4.1.1 — error-correction step latency (Eq. 1) |
//! | `recursion-analysis` | §4.1.2 — Eq. 2 system-size analysis |
//! | `fig7-threshold` | Figure 7 — logical failure vs component failure |
//! | `fig9-connection` | Figure 9 — island separation vs connection time |
//! | `scheduler-utilization` | §5 — EPR scheduler bandwidth utilisation |
//! | `sim-offered-load` | discrete-event sim — utilisation/queueing delay vs offered Toffoli load |
//! | `sim-tail-latency` | discrete-event sim — sojourn-time distribution at the bandwidth-2 design point |
//! | `sim-vs-analytic` | discrete-event sim — window-count cross-validation against the greedy scheduler |
//! | `table2-shor` | Table 2 — Shor system numbers |
//! | `factor128-walkthrough` | §5 — the 128-bit factorisation walk-through |
//! | `serve-load` | qla-serve — cached evaluation service under a scripted request mix |
//! | `sensitivity` | §6 — scenario matrix across the built-in profiles |
//!
//! Every artefact runs through the one `qla-bench` binary
//! (`cargo run --release -p qla-bench -- run fig7-threshold`). The
//! performance of the stack itself is measured by the separate `qla-perf`
//! package (`qla-perf/`), end to end and per layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod registry;
pub mod serve_cli;
