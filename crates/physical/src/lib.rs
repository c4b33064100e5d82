//! Trapped-ion (QCCD) technology model for the QLA microarchitecture.
//!
//! This crate is the lowest layer of the QLA reproduction. It models the
//! physical substrate described in Section 2 of the paper:
//!
//! * the elementary physical operations on ion qubits (single- and two-qubit
//!   laser gates, measurement, ballistic movement, chain splitting and
//!   sympathetic cooling) together with their execution times and failure
//!   probabilities ([`PhysicalOp`], [`TechnologyParams`], Table 1 of the
//!   paper);
//! * cell coordinates on the QCCD grid of identical cells ([`Position`]);
//! * ballistic channels: pipelined shuttling of ions along empty cells, with
//!   the latency and bandwidth model of Section 2.1 ([`BallisticChannel`]).
//!
//! Everything above this crate (error correction, layout, the teleportation
//! interconnect and the Shor performance model) consumes the same
//! [`TechnologyParams`] struct, so swapping the "current" experimental numbers
//! for the "expected" projected numbers — or for a user-defined technology —
//! changes the whole stack consistently.
//!
//! # Example
//!
//! ```
//! use qla_physical::{TechnologyParams, PhysicalOp, BallisticChannel};
//!
//! let tech = TechnologyParams::expected();
//! // A two-qubit gate takes 10 microseconds and fails with probability 1e-7.
//! assert_eq!(tech.op_time(&PhysicalOp::two_qubit()).as_micros(), 10.0);
//! assert!((tech.op_failure(&PhysicalOp::two_qubit()) - 1e-7).abs() < 1e-12);
//!
//! // A 100-cell ballistic channel sustains ~100M qubits/second once pipelined.
//! let chan = BallisticChannel::new(100, &tech);
//! assert!(chan.bandwidth_qbps() > 9.0e7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod channel;
pub mod ops;
pub mod params;
pub mod time;

pub use cell::Position;
pub use channel::BallisticChannel;
pub use ops::{PhysicalOp, SingleQubitKind, TwoQubitKind};
pub use params::{FailureRates, OperationTimes, TechnologyParams};
pub use time::Time;
