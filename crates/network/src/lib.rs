//! The QLA teleportation interconnect.
//!
//! Long-range quantum communication in the QLA never moves data ions over
//! long channels: it teleports them, consuming EPR pairs that were created,
//! ballistically distributed over short distances, purified between adjacent
//! repeater islands, and entanglement-swapped into an end-to-end pair
//! (Sections 4.2 and 5 of the paper). This crate implements that stack:
//!
//! * [`epr`] — Werner-state EPR pairs, their creation fidelity and transport
//!   degradation (Figure 8's two-way channel).
//! * [`purification`] — the Bennett purification recurrence with imperfect
//!   local operations and its fidelity ceiling (Dür et al., reference \[28\]).
//! * [`teleport`] — teleportation and entanglement-swapping primitives and
//!   their physical costs.
//! * [`connection`] — the end-to-end connection planner reproducing the
//!   island-separation trade-off of Figure 9, including the d = 100 / d = 350
//!   crossover near 6000 cells.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod connection;
pub mod epr;
pub mod purification;
pub mod teleport;

pub use connection::{
    best_separation, plan_connection, ConnectionError, ConnectionPlan, InterconnectParams,
    FIGURE9_SEPARATIONS,
};
pub use epr::{EprPair, EprSource};
pub use purification::{PurificationParams, PurificationPlan};
pub use teleport::{entanglement_swap, logical_teleport_pairs, TeleportOps};
