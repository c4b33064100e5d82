//! EPR-distribution scheduling for the QLA interconnect.
//!
//! Section 5 of the paper argues that teleportation-based communication can be
//! completely hidden behind error correction provided the EPR pairs a gate
//! needs are delivered while its operand qubits are being error corrected, and
//! demonstrates this with a greedy scheduler achieving ~23% aggregate
//! bandwidth utilisation at channel bandwidth 2. This crate reproduces that
//! machinery:
//!
//! * [`mesh`] — the channel mesh between logical-qubit tiles and its
//!   per-window bandwidth capacity.
//! * [`topology`] — the mesh compiled to dense form: edge ids `0..E` in
//!   [`Mesh::edges`] order, CSR `(neighbour, edge id)` arrays in the fixed
//!   left/right/up/down order, and the one router ([`Topology::route`]):
//!   the stop-at-discovery breadth-first search's path, found by a
//!   monotone walk whenever one exists, over reusable stamped scratch
//!   buffers. An "edge usable" test makes it the scheduler's
//!   capacity-aware search; always `true`, it is the simulator's static
//!   dimension-order route. Both callers keep per-edge state in vectors
//!   indexed by edge id.
//! * [`scheduler`] — the greedy path-grabbing scheduler with back-off and
//!   multi-window spill-over.
//! * [`traffic`] — workload generators (fault-tolerant Toffoli traffic) and
//!   the overlap-with-error-correction condition.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mesh;
pub mod scheduler;
pub mod topology;
pub mod traffic;

pub use mesh::{Edge, Mesh, Node};
pub use scheduler::{CommRequest, GreedyScheduler, RoutedBatch, ScheduleResult};
pub use topology::{EdgeId, Route, Topology};
pub use traffic::{
    random_toffoli_sites, schedule_toffoli_traffic, ToffoliScheduleReport, ToffoliSite,
    PAIRS_PER_LOGICAL_TELEPORT, TOFFOLI_ANCILLA_QUBITS,
};
