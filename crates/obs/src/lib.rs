//! # qla-obs — deterministic observability for the QLA stack
//!
//! The discrete-event simulator, the sweep executor, and the evaluation
//! service all answer *how long* something took; this crate records *where
//! the time went* — per-edge channel rounds, ancilla-factory occupancy,
//! admission decisions, request lifecycles — without ever consulting a wall
//! clock. Every timestamp is an integer nanosecond count taken from the
//! simulation's own virtual time, so a recorded [`EventLog`] is
//! byte-identical across `--jobs` counts and from run to run: the same
//! determinism contract the report goldens and the CI determinism job
//! already enforce, extended to traces.
//!
//! The crate is built around three pieces:
//!
//! - [`Recorder`]: the instrumentation trait the engine and service write
//!   against. [`Noop`] is the always-off implementation; call sites gate on
//!   [`Recorder::enabled`] so that recording off costs one branch. The
//!   `obs-overhead` experiment counts what each detail level records.
//! - [`EventLog`]: the structured in-memory implementation — spans,
//!   instants, and counter samples on named tracks, with a detail level and
//!   counter sampling stride from [`ObsConfig`] (the `sweep.obs.*` spec
//!   section).
//! - Exporters: [`export::chrome_trace`] renders logs as a Chrome/Perfetto
//!   `trace.json` (load it at <https://ui.perfetto.dev>), and
//!   [`export::text_timeline`] as a deterministic plain-text timeline;
//!   [`metrics::metrics_rows`] folds logs into a counter + nearest-rank
//!   histogram table for report rendering.
//!
//! # Worked example
//!
//! ```
//! use qla_obs::{EventLog, ObsConfig, Recorder};
//!
//! // A recording log (label = one Perfetto process row).
//! let mut log = EventLog::for_point(ObsConfig::full(), "demo");
//! assert!(log.enabled());
//!
//! // Integer virtual-time stamps only — never a wall clock.
//! log.instant("admission", "admit", 0);
//! log.span("factory", "ancilla-prep", 0, 600_000);
//! log.counter("edge-0-1", "queue", 600_000, 3);
//! assert_eq!(log.events().len(), 3);
//!
//! // Export: a Perfetto-loadable trace and a text timeline, both
//! // byte-deterministic functions of the recorded events.
//! let trace = qla_obs::export::chrome_trace(std::slice::from_ref(&log));
//! assert!(trace.starts_with("{\"traceEvents\":["));
//! let timeline = qla_obs::export::text_timeline(std::slice::from_ref(&log));
//! assert!(timeline.contains("ancilla-prep"));
//!
//! // Recording off: the same calls are branches that record nothing.
//! let mut off = EventLog::off();
//! off.span("factory", "ancilla-prep", 0, 600_000);
//! assert!(off.events().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod record;
pub mod stats;

pub use metrics::{metrics_rows, MetricsRow};
pub use record::{Event, EventKind, EventLog, Noop, ObsConfig, ObsDetail, Recorder};
