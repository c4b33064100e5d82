//! Shor's algorithm on the QLA: resource, latency and baseline models
//! (Section 5 of the paper), plus a functional small-number demonstration.
//!
//! * [`mod@qcla`] — the logarithmic-depth quantum carry-lookahead adder resource
//!   model (4·log2 n Toffoli depth).
//! * [`toffoli`] — the fault-tolerant Toffoli construction: 6 ancilla logical
//!   qubits and 21 error-correction steps on the critical path.
//! * [`modexp`] — the modular-exponentiation latency model
//!   `MExp = IM × MAC × (QCLA + ArgSet) + 3p × QCLA`, calibrated against the
//!   gate and qubit counts of Table 2.
//! * [`resources`] — the Table 2 generator: logical qubits, Toffoli gates,
//!   total gates, chip area and run time for 128–2048-bit factorisations.
//! * [`classical`] — the number-field-sieve classical baseline the paper
//!   compares against.
//! * [`period`] — a functional order-finding/factoring demonstration for
//!   small numbers (the algorithm-correctness check ARQ cannot provide,
//!   since period finding is outside the stabilizer subset).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classical;
pub mod modexp;
pub mod period;
pub mod qcla;
pub mod resources;
pub mod toffoli;

pub use classical::{classical_mips_years, QuantumClassicalComparison};
pub use modexp::{modexp_costs, ModExpCosts};
pub use period::{factor, factor_with_base, Factorisation};
pub use qcla::{qcla, QclaResources};
pub use resources::{
    PaperTable2Row, ShorEstimator, ShorResources, AVERAGE_REPETITIONS, PAPER_TABLE2,
};
pub use toffoli::FaultTolerantToffoli;
