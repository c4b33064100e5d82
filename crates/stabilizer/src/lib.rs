//! Stabilizer-formalism quantum simulation for the QLA architecture.
//!
//! The paper's ARQ simulator avoids the exponential cost of general quantum
//! simulation by restricting itself to the stabilizer subset of quantum
//! mechanics — exactly the subset in which quantum error-correcting circuits
//! live — and simulating it in polynomial time with the Heisenberg / tableau
//! representation of Gottesman and the improved CHP algorithm of Aaronson and
//! Gottesman. This crate implements that engine:
//!
//! * [`PauliString`] / [`Pauli`] — the Pauli group, bit-packed into X/Z
//!   planes (64 qubits per `u64` word) with word-parallel products,
//!   popcount-accumulated phases, and a bulk construction/word-view API
//!   ([`pauli`]).
//! * [`Tableau`] — the scalar CHP tableau: `2n` generator rows plus a
//!   scratch row, one `bool` per symplectic bit, `O(n)` per gate and
//!   `O(n²)` per measurement ([`tableau`]).
//! * [`StabilizerSimulator`] — a convenience wrapper that owns a tableau and
//!   a seeded RNG, driven by `qla_qec::run_clifford` ([`simulator`]).
//! * [`PauliFrame`] — a much cheaper error-propagation ("Pauli frame")
//!   simulator that tracks only the X/Z error pattern through a Clifford
//!   circuit, with a mask/word bulk interface (transversal gates and
//!   syndrome parities in O(words)). For CSS-code Monte Carlo (Figure 7 of
//!   the paper) this is equivalent to full tableau simulation and orders of
//!   magnitude faster ([`frame`]).
//! * [`mod@reference`] — the scalar (one-Pauli-per-element) Pauli frame,
//!   the test oracle of the packed frame kernels.
//!
//! # Bit-packed kernels
//!
//! The packed kernels are [`PauliString`] and [`PauliFrame`]: a Pauli-string
//! product popcounts `+i`/`−i` masks instead of matching per-qubit cases, and
//! a transversal gate layer or a syndrome parity is a handful of word
//! operations. The tableau is not packed. Its callers stay at 14 qubits or
//! fewer, and the test suite checks it against a dense state-vector model
//! on random Clifford+measurement programs (`tests/state_vector_oracle.rs`).
//!
//! The benchmark package `qla-perf` tracks the frame kernels as the
//! `stabilizer.frame_op_ns` layer of its `fig7` workload. That Monte Carlo
//! pins the exact RNG draw sequence (the goldens fix ~88 `ChaCha8` draws per
//! trial for the Steane L1 circuit), so once the frame kernels are
//! word-parallel its floor is keystream generation, not the simulator.
//!
//! # Example: a Bell pair is perfectly correlated
//!
//! ```
//! use qla_stabilizer::{StabilizerSimulator, CliffordGate};
//!
//! let mut sim = StabilizerSimulator::with_seed(2, 42);
//! sim.apply(CliffordGate::H(0));
//! sim.apply(CliffordGate::Cnot(0, 1));
//! let a = sim.measure(0);
//! let b = sim.measure(1);
//! assert_eq!(a, b);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod pauli;
pub mod reference;
pub mod simulator;
pub mod tableau;

pub use frame::PauliFrame;
pub use pauli::{Pauli, PauliString};
pub use simulator::StabilizerSimulator;
pub use tableau::{CliffordGate, MeasurementOutcome, Tableau};
