//! Quantum error correction for the QLA microarchitecture.
//!
//! The QLA's entire structure is "intended for error correction, by far the
//! most dominant and basic operation in a quantum machine" (paper, Section 3).
//! This crate implements the error-correction stack the architecture is built
//! around:
//!
//! * [`CssCode`] — generic CSS stabilizer codes with syndrome computation and
//!   single-error lookup decoding, plus the [`CodeMasks`] bit-mask
//!   compilation (stabilizer supports as `u64` masks, decoders as
//!   syndrome-indexed correction LUTs) that the Monte-Carlo hot path runs on
//!   ([`code`]).
//! * [`arq`] — [`run_clifford`], the core of the paper's ARQ simulator: runs
//!   a Clifford circuit on the stabilizer backend and returns its
//!   measurement bits (the one `Gate` → `CliffordGate` lowering; a
//!   non-Clifford gate is a typed [`NonCliffordGate`] error).
//! * [`steane`] — the Steane [[7,1,3]] code: stabilizers, the |0⟩_L/|+⟩_L
//!   encoders, transversal logical gates.
//! * [`bitflip`] — the 3-qubit bit-flip code used illustratively in Figure 4.
//! * [`syndrome`] — Steane-style (encoded-ancilla) syndrome extraction
//!   circuits matching Figure 6, plus the classical decode.
//! * [`recursion`] — concatenated encoding: resource counts of the level-1
//!   block and level-2 logical qubit structure of Figure 5.
//! * [`latency`] — the error-correction latency model of Equation 1
//!   (≈3 ms at level 1, ≈43 ms at level 2 with the expected technology).
//! * [`threshold`] — Gottesman's local-architecture threshold bound
//!   (Equation 2) and the system-size analysis of Section 4.1.2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arq;
pub mod bitflip;
pub mod code;
pub mod latency;
pub mod recursion;
pub mod steane;
pub mod syndrome;
pub mod threshold;

pub use arq::{run_clifford, NonCliffordGate};
pub use code::{CodeMasks, CssCode};
pub use latency::{EccLatencies, EccLatencyModel, ScheduleShape};
pub use recursion::ConcatenatedSteane;
pub use steane::{encode_plus_circuit, encode_zero_circuit, steane_code, TransversalGate};
pub use syndrome::ErrorType;
pub use threshold::{ThresholdAnalysis, EMPIRICAL_THRESHOLD, THEORETICAL_THRESHOLD};
