//! # `qla-faults` — fault injection and multi-tenant scenarios
//!
//! The deterministic simulator in `qla-sim` answers "how does the QLA
//! interconnect behave under load?" — but only for a *healthy* machine.
//! The paper's architecture lives or dies on resources that degrade:
//! purified EPR channels whose yield drops when a link's purification
//! tier falls behind, and ancilla factories that lose capacity to
//! recalibration. This crate turns those stories into data:
//!
//! * [`severity_timeline`] — the spec's `sweep.fault.*` scenario
//!   ([`qla_core::FaultSpec`]: which fraction of the edges degrade, when,
//!   for how long, how much factory capacity is lost) at one severity, as
//!   the [`qla_sim::FaultTimeline`] the engine replays deterministically
//!   on a concrete mesh and [`qla_sim::SimConfig`].
//! * [`TrafficMatrix`] — the four classic interconnect traffic shapes
//!   (uniform, hot-spot, nearest-neighbour, all-to-all) paced by
//!   [`qla_sim::paced_arrivals`], like the uniform offered-load studies.
//! * [`symmetric_tenant_items`] / [`tenant_quotas`] — perfectly
//!   symmetric multi-tenant streams on edge-disjoint mesh rows, so that
//!   per-tenant admission quotas are the *only* source of unfairness a
//!   fairness index can observe.
//!
//! Everything here is a pure function of its inputs (plus an explicitly
//! seeded RNG where randomness is wanted), preserving the repository's
//! byte-determinism guarantee across `--jobs` counts and reruns.
//!
//! ## Worked example
//!
//! Degrade the only edge of a two-node mesh to a single EPR channel for
//! the first two error-correction windows and watch the backlog drain
//! slower than on the healthy machine:
//!
//! ```
//! use qla_core::FaultSpec;
//! use qla_faults::severity_timeline;
//! use qla_sched::{CommRequest, Mesh};
//! use qla_obs::Noop;
//! use qla_sim::{simulate, simulate_observed, SimConfig, SimTime, WorkItem};
//!
//! let mesh = Mesh::new(2, 1, 2); // one edge, bandwidth 2 => 4 channels
//! let cfg = SimConfig {
//!     window: SimTime::from_nanos(1_000),
//!     pair_service: SimTime::from_nanos(100),
//!     pairs_per_window: 10,
//!     channels_per_edge: 4,
//!     max_in_flight: 64,
//!     ancilla_capacity: 4,
//!     ancilla_prep: SimTime::from_nanos(1_000),
//!     measure: None,
//! };
//!
//! // Eight teleport pairs arrive at t = 0 on the machine's only edge.
//! let items: Vec<WorkItem> = (0..2)
//!     .map(|_| WorkItem {
//!         arrival: SimTime::ZERO,
//!         ancillas: 0,
//!         requests: vec![CommRequest { from: 0, to: 1, pairs: 4 }],
//!         tenant: 0,
//!     })
//!     .collect();
//!
//! // A brown-out: the edge keeps only 1 of its 4 channels for windows
//! // [0, 2): severity 0.75 of all edges, no factory loss.
//! let brownout = FaultSpec {
//!     degraded_edge_fraction: 1.0,
//!     onset_windows: 0,
//!     duration_windows: 2,
//!     factory_loss: 0.0,
//!     ..FaultSpec::paper()
//! };
//! let timeline = severity_timeline(&brownout, &mesh, &cfg, 0.75);
//!
//! let healthy = simulate(&mesh, &cfg, &items);
//! let faulted = simulate_observed(&mesh, &cfg, &items, &timeline, &mut Noop);
//!
//! // 8 pairs over 4 channels: two healthy rounds. Over 1 channel: eight.
//! assert_eq!(healthy.makespan, SimTime::from_nanos(200));
//! assert_eq!(faulted.makespan, SimTime::from_nanos(800));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod traffic;

pub use plan::severity_timeline;
pub use traffic::{matrix_requests, symmetric_tenant_items, tenant_quotas, TrafficMatrix};
