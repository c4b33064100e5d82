//! `qla-serve` — the cached batch evaluation service for the QLA
//! experiment registry.
//!
//! The repo's experiments are deterministic: a report is a pure function of
//! `(experiment, spec, seed, trials)`. This crate turns that property into
//! a long-lived service — the same registry the `qla-bench` CLI drives,
//! behind a newline-delimited JSON protocol, with a content-addressed
//! result cache and bounded-queue admission control.
//!
//! # Protocol
//!
//! One request per line, one response per line (see [`request`] for the
//! full field reference):
//!
//! ```text
//! → {"experiment": "table1", "profile": "current", "seed": 7, "format": "text"}
//! ← {"status":"ok","experiment":"table1","format":"text","report":"..."}
//! → {"cmd": "stats"}
//! ← {"status":"ok","requests":1,"hits":0,"misses":1,...}
//! → {"cmd": "shutdown"}
//! ← {"status":"ok","shutdown":true}
//! ```
//!
//! Errors are typed: `bad-request`, `unknown-experiment`, `overloaded`.
//!
//! # Caching
//!
//! The cache key is the [`content_hash`](qla_core::content_hash) of the
//! canonical request — experiment name, seed, *resolved* trials and the
//! rendered [`MachineSpec`](qla_core::MachineSpec) — so a built-in
//! `"profile"` and an inline `"spec"` with the same contents share an
//! entry, while `format` is excluded (the cache stores the typed report
//! and renders per request). Because experiments are byte-deterministic, a
//! cached response is **byte-identical** to a recomputed one; responses
//! therefore carry no hit/miss marker, and the CI soak job exploits this
//! by `diff`ing two replays of the same transcript.
//!
//! # Admission control
//!
//! At most [`ServeConfig::max_in_flight`] run requests are in flight at
//! once (default 64, mirroring the simulator's `sweep.sim.max_in_flight`
//! queue bound); the rest are shed with a typed `overloaded` error rather
//! than queued without bound. A TCP line and a `serve-load` burst take the
//! same path through the [`Service`] (see [`service`]), so both are
//! admitted, looked up, evaluated and counted by the same code.
//!
//! # Worked example (`--once` mode)
//!
//! The binary form is `qla-bench serve --once`, which wires the real
//! registry in. The same loop is a library call — here with a one-off toy
//! experiment standing in for the registry:
//!
//! ```
//! use qla_core::{DynExperiment, Experiment, ExperimentContext};
//! use qla_report::{Column, Report};
//! use qla_serve::{serve_once, ServeConfig, Service};
//!
//! struct Doubler;
//! impl Experiment for Doubler {
//!     type Output = u64;
//!     fn name(&self) -> &'static str { "doubler" }
//!     fn title(&self) -> &'static str { "Doubler" }
//!     fn description(&self) -> &'static str { "doubles the trial budget" }
//!     fn default_trials(&self) -> usize { 21 }
//!     fn run(&self, ctx: &ExperimentContext) -> u64 { 2 * ctx.trials as u64 }
//!     fn report(&self, _ctx: &ExperimentContext, out: &u64) -> Report {
//!         let mut r = Report::new("doubler", "Doubler").with_column(Column::new("value"));
//!         r.push_row(qla_report::row![*out]);
//!         r
//!     }
//! }
//!
//! let service = Service::new(
//!     Box::new(|name| (name == "doubler").then(|| Box::new(Doubler) as Box<dyn DynExperiment>)),
//!     ServeConfig::default(),
//! );
//!
//! // Two identical requests and a stats probe, piped through once-mode.
//! let input = "{\"experiment\": \"doubler\"}\n\
//!              {\"experiment\": \"doubler\"}\n\
//!              {\"cmd\": \"stats\"}\n";
//! let mut output = Vec::new();
//! serve_once(&service, input.as_bytes(), &mut output).unwrap();
//!
//! let text = String::from_utf8(output).unwrap();
//! let lines: Vec<&str> = text.lines().collect();
//! assert_eq!(lines.len(), 3);
//! // The cached second answer is byte-identical to the first …
//! assert_eq!(lines[0], lines[1]);
//! // … and the stats line shows one miss, one hit.
//! assert!(lines[2].contains("\"hits\":1,\"misses\":1"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod json;
pub mod request;
pub mod server;
pub mod service;
pub mod stats;

pub use clock::{ServiceClock, CLOCK_ENV};
pub use json::Json;
pub use request::{parse_command, Command, RunRequest};
pub use server::{replay, serve, serve_once};
pub use service::{ExperimentLookup, LineResponse, Outcome, ServeConfig, ServedRequest, Service};
pub use stats::StatsSnapshot;
