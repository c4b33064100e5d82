//! # `qla-sim` — a deterministic discrete-event QLA simulator
//!
//! Every other number in this reproduction comes from a closed-form model:
//! the greedy scheduler packs communication into whole error-correction
//! windows, `pair_service_time` assumes an uncontended channel, and the
//! Shor estimates multiply fixed latencies. The paper's central claim —
//! that teleportation-based data movement keeps the QLA mesh utilised
//! without becoming the bottleneck — is fundamentally a *queueing* claim,
//! and this crate is the dynamic engine that can test it: bursty traffic,
//! EPR-channel congestion, and ancilla-factory stalls that the analytic
//! formulas average away.
//!
//! ## Architecture
//!
//! ```text
//!  arrivals ──► admission ──► ancilla factory ──► route (DOR) ──► per-edge
//!  (workload)   (max_in_     (capacity slots,     one purified    FIFO +
//!               flight,      prep = 1 window      segment pair    channels
//!               FIFO         per logical          per path edge
//!               backlog)     ancilla)             per EPR pair
//!
//!                     window 0        │ window 1        │ …
//!  channel rounds:  r₀ r₁ … r_{m-1} idle r₀ r₁ … r_{m-1} idle
//!                   └─ s ─┘               (m = ⌊W / s⌋ rounds per window)
//! ```
//!
//! * [`time::SimTime`] — integer-nanosecond clock (float clocks would tie
//!   byte-reproducibility to last-ulp behaviour).
//! * [`queue::EventQueue`] — future-event list of FIFO buckets keyed by
//!   exact instant, popping in `(time, push order)` order: runs are
//!   byte-reproducible under the repository's determinism CI.
//! * [`engine`] — the actors: EPR links as window-paced multi-channel FIFO
//!   queues of run-length `(request, count)` jobs, one per edge of the
//!   dense [`qla_sched::Topology`], ancilla factories, admission control,
//!   and the closed-form [`engine::SimConfig::uncontended_completion`] the
//!   contended results are measured against. [`simulate_observed`] is the
//!   one entry point (faults and recorder included); [`simulate`] is it on
//!   a healthy, unrecorded machine.
//! * [`workload`] — the one bursty arrival pacer, [`paced_arrivals`], and
//!   the Toffoli streams sampled on it (the replayed form of the Section 5
//!   traffic model).
//! * [`stats`] — exact latency summaries (nearest-rank percentiles through
//!   the shared [`qla_obs::stats::percentile_u64`]) for tail-latency reports.
//!
//! ## Determinism guarantees
//!
//! A run is a pure function of `(mesh, config, work items)`: integer time,
//! FIFO service, stable event ordering, and routing that never consults a
//! hash map's iteration order. The `qla-bench` experiments built on this
//! crate (`sim-offered-load`, `sim-tail-latency`, `sim-vs-analytic`) are
//! therefore byte-identical across `--jobs` counts, runs, and platforms.
//!
//! ## Worked example
//!
//! Two 4-pair requests contend for one 4-channel edge; the second queues
//! behind the first for exactly one service round:
//!
//! ```
//! use qla_sched::{CommRequest, Mesh};
//! use qla_sim::{simulate, SimConfig, SimTime, WorkItem};
//!
//! let mesh = Mesh::new(2, 1, 2); // one edge, bandwidth 2 => 4 channels
//! let cfg = SimConfig {
//!     window: SimTime::from_nanos(43_000_000),      // 43 ms ECC window
//!     pair_service: SimTime::from_nanos(573_000),   // ~0.6 ms per pair
//!     pairs_per_window: 75,                          // floor(W / s)
//!     channels_per_edge: 4,
//!     max_in_flight: 64,
//!     ancilla_capacity: 1,
//!     ancilla_prep: SimTime::from_nanos(43_000_000),
//!     measure: None,
//! };
//! let req = CommRequest { from: 0, to: 1, pairs: 4 };
//! let items = [WorkItem::request(SimTime::ZERO, req), WorkItem::request(SimTime::ZERO, req)];
//! let out = simulate(&mesh, &cfg, &items);
//!
//! // The first request finishes after one service round, the second after
//! // two — and both match the closed-form prediction plus queueing.
//! assert_eq!(out.requests[0].completion, SimTime::from_nanos(573_000));
//! assert_eq!(out.requests[1].completion, SimTime::from_nanos(1_146_000));
//! assert_eq!(
//!     out.requests[0].completion,
//!     cfg.uncontended_completion(SimTime::ZERO, 4),
//! );
//! assert_eq!(out.windows_used(cfg.window), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod queue;
pub mod stats;
pub mod time;
pub mod workload;

pub use engine::{
    simulate, simulate_observed, ChannelFault, FactoryFault, FaultTimeline, ItemOutcome,
    RequestOutcome, SimConfig, SimOutcome, WorkItem,
};
pub use queue::EventQueue;
pub use stats::{mean_nanos, sorted_nanos, LatencySummary};
pub use time::SimTime;
pub use workload::{paced_arrivals, toffoli_stream, TrafficParams};
