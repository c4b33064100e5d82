//! The QLA machine model and the Figure 7 Monte-Carlo — the paper's primary
//! contribution, assembled from the substrate crates. (Running a Clifford
//! circuit on the stabilizer backend, the core of the paper's ARQ simulator,
//! is `qla_qec::run_clifford`.)
//!
//! * [`montecarlo`] — the Figure 7 experiment: circuit-level Monte-Carlo
//!   estimation of the logical gate failure rate at recursion levels 1 and 2
//!   and of the empirical threshold.
//! * [`machine`] — [`QlaMachine`]: floorplan, error-correction cadence,
//!   teleportation interconnect and EPR scheduling in one object, used by the
//!   Shor performance model and the examples.
//! * [`experiment`] — the unified experiment API: the [`Experiment`] trait,
//!   the seed-deriving [`ExperimentContext`], and the object-safe
//!   [`DynExperiment`] view the `qla-bench` registry is built on.
//! * [`executor`] — the threading subsystem: the [`Executor`] (a worker
//!   count; one worker runs inline) scoped thread pool every sweep maps
//!   its points through, with results reassembled in index order so
//!   parallel output is byte-identical to sequential.
//! * [`spec`] — the Scenario API: [`MachineSpec`], the one description of a
//!   machine. It holds the named profiles (`expected`, `current`, the
//!   Section 6 relaxations), the deterministic `key = value` text format
//!   behind `--profile`/`--spec`, and [`MachineSpec::machine`], which builds
//!   the [`QlaMachine`]; the active spec rides on every
//!   [`ExperimentContext`].
//! * [`kv`] — the one `key = value` scanner behind the spec text format,
//!   with line-anchored errors.
//! * [`hash`] / [`cache`] — stable content hashing (FNV-1a 64 +
//!   SplitMix64) and a deterministic [`LruCache`], the substrate of the
//!   `qla-serve` result cache: byte-determinism makes content-addressed
//!   result caching trivially correct.
//! * [`stats`] — the shared nearest-rank percentile helpers (re-exported
//!   from `qla-obs`) every latency/quantile path in the workspace uses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod executor;
pub mod experiment;
pub mod hash;
pub mod kv;
pub mod machine;
pub mod montecarlo;
pub mod spec;
pub mod stats;

pub use cache::LruCache;
pub use executor::Executor;
pub use experiment::{DynExperiment, Experiment, ExperimentContext, DEFAULT_SEED};
pub use hash::{content_hash, fnv1a64, mix64};
pub use machine::QlaMachine;
pub use montecarlo::{ThresholdExperiment, ThresholdPoint};
pub use spec::{
    EccMode, FaultSpec, InterconnectSpec, MachineSpec, ObsSpec, SimSpec, SpecError, SweepSpec,
    TraceSpec, BUILTIN_PROFILES,
};
