//! The elementary physical operations of the trapped-ion QCCD model.
//!
//! These are the operations listed in Table 1 of the paper: single-qubit laser
//! gates, two-qubit (geometric phase / chain) gates, fluorescence measurement,
//! ballistic movement across cells, splitting an ion off a linear chain, and
//! sympathetic cooling. Higher layers express every circuit and every
//! communication protocol as sequences of these operations.

use serde::{Deserialize, Serialize};

/// The specific kind of a single-qubit laser gate.
///
/// For timing and failure purposes all single-qubit gates are identical in the
/// QLA model; the kind is carried so the circuit mapper can emit meaningful
/// pulse sequences and so the stabilizer backend knows which Clifford to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SingleQubitKind {
    /// Pauli-X (bit flip).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z (phase flip).
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S† = diag(1, -i).
    Sdg,
    /// The T gate (π/8). Not a Clifford; only counted, never simulated by the
    /// stabilizer backend.
    T,
    /// Qubit preparation in |0⟩ (re-initialisation by optical pumping).
    PrepZ,
    /// An identity / wait slot of one gate time (used for schedule padding).
    Idle,
}

/// The specific kind of a two-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TwoQubitKind {
    /// Controlled-NOT.
    Cnot,
    /// Controlled-Z (the native geometric phase gate on ions, up to local
    /// rotations).
    Cz,
    /// SWAP (three CNOTs at the logical level, but natively available in the
    /// movement-based model by exchanging ion positions).
    Swap,
}

/// One elementary physical operation together with the parameters that affect
/// its duration and failure probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PhysicalOp {
    /// A single-qubit laser gate.
    SingleQubitGate(SingleQubitKind),
    /// A two-qubit gate between ions trapped in the same interaction region.
    TwoQubitGate(TwoQubitKind),
    /// State-dependent resonance-fluorescence measurement of one ion.
    Measure,
    /// Ballistic movement of an ion across `cells` grid cells.
    Move {
        /// Number of cells traversed.
        cells: usize,
    },
    /// Splitting an ion off a linear chain (also the cost model for turning a
    /// corner at a channel intersection, Section 2.2).
    Split,
    /// Turning a corner at a QCCD channel intersection. The paper models this
    /// with the same 10 µs cost as a chain split.
    CornerTurn,
    /// Sympathetic recooling using a cooling ion.
    Cool,
    /// Holding a qubit idle in memory for the given time, exposing it to
    /// memory (decoherence) error.
    MemoryIdle {
        /// Idle duration in microseconds.
        micros: f64,
    },
}

impl PhysicalOp {
    /// A generic single-qubit gate (Hadamard) — convenient for cost queries
    /// where the specific rotation is irrelevant.
    #[must_use]
    pub fn single_qubit() -> Self {
        PhysicalOp::SingleQubitGate(SingleQubitKind::H)
    }

    /// A generic two-qubit gate (CNOT) — convenient for cost queries.
    #[must_use]
    pub fn two_qubit() -> Self {
        PhysicalOp::TwoQubitGate(TwoQubitKind::Cnot)
    }

    /// Number of qubits this operation touches (memory idle and movement touch
    /// one qubit; two-qubit gates touch two).
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            PhysicalOp::TwoQubitGate(_) => 2,
            _ => 1,
        }
    }
}

impl core::fmt::Display for PhysicalOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PhysicalOp::SingleQubitGate(k) => write!(f, "1q:{k:?}"),
            PhysicalOp::TwoQubitGate(k) => write!(f, "2q:{k:?}"),
            PhysicalOp::Measure => write!(f, "measure"),
            PhysicalOp::Move { cells } => write!(f, "move({cells} cells)"),
            PhysicalOp::Split => write!(f, "split"),
            PhysicalOp::CornerTurn => write!(f, "corner-turn"),
            PhysicalOp::Cool => write!(f, "cool"),
            PhysicalOp::MemoryIdle { micros } => write!(f, "idle({micros} us)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_distinguishes_one_and_two_qubit_ops() {
        assert_eq!(PhysicalOp::single_qubit().arity(), 1);
        assert_eq!(PhysicalOp::two_qubit().arity(), 2);
        assert_eq!(PhysicalOp::Measure.arity(), 1);
        assert_eq!(PhysicalOp::Move { cells: 5 }.arity(), 1);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", PhysicalOp::Measure), "measure");
        assert_eq!(
            format!("{}", PhysicalOp::Move { cells: 3 }),
            "move(3 cells)"
        );
        assert_eq!(
            format!("{}", PhysicalOp::SingleQubitGate(SingleQubitKind::H)),
            "1q:H"
        );
    }
}
