//! # QLA — A Quantum Logic Array Microarchitecture
//!
//! A from-scratch Rust reproduction of *"A Quantum Logic Array
//! Microarchitecture: Scalable Quantum Data Movement and Computation"*
//! (Metodi, Thaker, Cross, Chong, Chuang — MICRO-38, 2005).
//!
//! This umbrella crate re-exports the whole stack so applications can depend
//! on a single crate:
//!
//! | module | underlying crate | contents |
//! |---|---|---|
//! | [`physical`] | `qla-physical` | ion-trap technology model (Table 1), QCCD cell coordinates, ballistic channels |
//! | [`stabilizer`] | `qla-stabilizer` | CHP tableau simulator, Pauli frames |
//! | [`circuit`] | `qla-circuit` | gate-level circuit IR, scheduling, Toffoli decomposition |
//! | [`qec`] | `qla-qec` | Steane \[\[7,1,3\]\], recursion, EC latency (Eq. 1), threshold (Eq. 2) |
//! | [`layout`] | `qla-layout` | logical-qubit tiles, chip floorplan, ballistic routing, area model |
//! | [`network`] | `qla-network` | EPR pairs, purification, repeaters, connection-time model (Fig. 9) |
//! | [`sched`] | `qla-sched` | greedy EPR-distribution scheduler (Section 5) |
//! | [`sim`] | `qla-sim` | deterministic discrete-event simulator: EPR-channel queueing, ancilla factories, tail latency |
//! | [`faults`] | `qla-faults` | declarative fault-injection plans, traffic matrices, multi-tenant streams |
//! | [`obs`] | `qla-obs` | deterministic tracing: recorder trait, event logs, Perfetto/timeline exporters, metrics |
//! | [`report`] | `qla-report` | typed experiment reports, deterministic text/JSON/CSV renderers |
//! | [`serve`] | `qla-serve` | newline-delimited-JSON evaluation service: result cache, admission control, service stats |
//! | [`core`] | `qla-core` | Fig. 7 Monte-Carlo, the QLA machine and its `MachineSpec`, the `Experiment` API |
//! | [`shor`] | `qla-shor` | QCLA, fault-tolerant Toffoli, modular exponentiation, Table 2 |
//! | [`trace`] | `qla-trace` | logical-ISA instruction traces: text format, program generators, scheduler/sim replay |
//!
//! # Quick start
//!
//! ```
//! use qla::core::QlaMachine;
//! use qla::shor::ShorEstimator;
//!
//! // A QLA sized for factoring a 128-bit number.
//! let resources = ShorEstimator::default().estimate(128);
//! let machine = QlaMachine::with_logical_qubits(resources.logical_qubits as usize);
//! assert!(machine.logical_qubits() >= 37_000);
//! assert!(resources.days() < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use qla_circuit as circuit;
pub use qla_core as core;
pub use qla_faults as faults;
pub use qla_layout as layout;
pub use qla_network as network;
pub use qla_obs as obs;
pub use qla_physical as physical;
pub use qla_qec as qec;
pub use qla_report as report;
pub use qla_sched as sched;
pub use qla_serve as serve;
pub use qla_shor as shor;
pub use qla_sim as sim;
pub use qla_stabilizer as stabilizer;
pub use qla_trace as trace;
