//! The gate set of the QLA circuit model.

use qla_physical::{PhysicalOp, SingleQubitKind, TwoQubitKind};
use serde::{Deserialize, Serialize};

/// Index of a qubit within a circuit's register.
pub type Qubit = usize;

/// A quantum gate in the circuit model of Vedral/Barenco/Ekert that ARQ takes
/// as input.
///
/// The set covers everything the paper's workloads need: the Clifford group
/// (simulable by the stabilizer backend), the T gate (counted but not
/// simulated), the Toffoli gate (the dominant gate of modular
/// exponentiation), and preparation/measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Gate {
    /// Hadamard.
    H(Qubit),
    /// Pauli-X.
    X(Qubit),
    /// Pauli-Y.
    Y(Qubit),
    /// Pauli-Z.
    Z(Qubit),
    /// Phase gate S.
    S(Qubit),
    /// Inverse phase gate S†.
    Sdg(Qubit),
    /// T gate (π/8). Not a Clifford.
    T(Qubit),
    /// Inverse T gate.
    Tdg(Qubit),
    /// Controlled-NOT (control, target).
    Cnot(Qubit, Qubit),
    /// Controlled-Z.
    Cz(Qubit, Qubit),
    /// SWAP.
    Swap(Qubit, Qubit),
    /// Toffoli (controlled-controlled-NOT).
    Toffoli {
        /// First control.
        control1: Qubit,
        /// Second control.
        control2: Qubit,
        /// Target.
        target: Qubit,
    },
    /// Prepare a qubit in |0⟩.
    PrepZ(Qubit),
    /// Measure a qubit in the Z basis.
    MeasureZ(Qubit),
}

impl Gate {
    /// The qubits the gate acts on, in operand order.
    #[must_use]
    pub fn qubits(&self) -> Vec<Qubit> {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::PrepZ(q)
            | Gate::MeasureZ(q) => vec![q],
            Gate::Cnot(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => vec![a, b],
            Gate::Toffoli {
                control1,
                control2,
                target,
            } => vec![control1, control2, target],
        }
    }

    /// Number of qubits the gate acts on.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// True if the gate is in the Clifford group (simulable in polynomial
    /// time by the stabilizer backend).
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        !matches!(self, Gate::T(_) | Gate::Tdg(_) | Gate::Toffoli { .. })
    }

    /// True if the gate is a two-qubit entangling gate.
    #[must_use]
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cnot(..) | Gate::Cz(..) | Gate::Swap(..))
    }

    /// The elementary physical operation this gate maps to when both (all)
    /// operands are physical ions held in the same interaction region.
    ///
    /// Toffoli gates have no direct physical implementation: they must first
    /// be decomposed (see [`crate::decompose`]); this method maps them to a
    /// two-qubit gate cost as a lower bound and callers that care should
    /// decompose first.
    #[must_use]
    pub fn physical_op(&self) -> PhysicalOp {
        match self {
            Gate::H(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::H),
            Gate::X(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::X),
            Gate::Y(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::Y),
            Gate::Z(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::Z),
            Gate::S(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::S),
            Gate::Sdg(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::Sdg),
            Gate::T(_) | Gate::Tdg(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::T),
            Gate::PrepZ(_) => PhysicalOp::SingleQubitGate(SingleQubitKind::PrepZ),
            Gate::Cnot(..) => PhysicalOp::TwoQubitGate(TwoQubitKind::Cnot),
            Gate::Cz(..) => PhysicalOp::TwoQubitGate(TwoQubitKind::Cz),
            Gate::Swap(..) | Gate::Toffoli { .. } => PhysicalOp::TwoQubitGate(TwoQubitKind::Swap),
            Gate::MeasureZ(_) => PhysicalOp::Measure,
        }
    }

    /// The textual mnemonic of the gate — the first token of its
    /// [`Display`](core::fmt::Display) form (`"cnot"`, `"toffoli"`, ...).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Cnot(..) => "cnot",
            Gate::Cz(..) => "cz",
            Gate::Swap(..) => "swap",
            Gate::Toffoli { .. } => "toffoli",
            Gate::PrepZ(_) => "prep",
            Gate::MeasureZ(_) => "measure",
        }
    }

    /// The operand count a mnemonic demands, or `None` if the mnemonic is
    /// not part of the instruction set. Text-format parsers use this to
    /// distinguish "unknown op" from "wrong operand count".
    #[must_use]
    pub fn mnemonic_arity(mnemonic: &str) -> Option<usize> {
        match mnemonic {
            "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" | "prep" | "measure" => Some(1),
            "cnot" | "cz" | "swap" => Some(2),
            "toffoli" => Some(3),
            _ => None,
        }
    }

    /// Build a gate from a mnemonic and its operands, the inverse of
    /// [`Gate::mnemonic`] + [`Gate::qubits`]. Returns `None` when the
    /// mnemonic is unknown or the operand count does not match
    /// [`Gate::mnemonic_arity`].
    #[must_use]
    pub fn from_mnemonic(mnemonic: &str, operands: &[Qubit]) -> Option<Gate> {
        if Gate::mnemonic_arity(mnemonic) != Some(operands.len()) {
            return None;
        }
        Some(match mnemonic {
            "h" => Gate::H(operands[0]),
            "x" => Gate::X(operands[0]),
            "y" => Gate::Y(operands[0]),
            "z" => Gate::Z(operands[0]),
            "s" => Gate::S(operands[0]),
            "sdg" => Gate::Sdg(operands[0]),
            "t" => Gate::T(operands[0]),
            "tdg" => Gate::Tdg(operands[0]),
            "prep" => Gate::PrepZ(operands[0]),
            "measure" => Gate::MeasureZ(operands[0]),
            "cnot" => Gate::Cnot(operands[0], operands[1]),
            "cz" => Gate::Cz(operands[0], operands[1]),
            "swap" => Gate::Swap(operands[0], operands[1]),
            "toffoli" => Gate::Toffoli {
                control1: operands[0],
                control2: operands[1],
                target: operands[2],
            },
            _ => unreachable!("mnemonic_arity admitted '{mnemonic}'"),
        })
    }

    /// Remap the gate's qubit operands through `f` (used when embedding a
    /// sub-circuit into a larger register).
    #[must_use]
    pub fn map_qubits(&self, f: impl Fn(Qubit) -> Qubit) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::T(q) => Gate::T(f(q)),
            Gate::Tdg(q) => Gate::Tdg(f(q)),
            Gate::Cnot(a, b) => Gate::Cnot(f(a), f(b)),
            Gate::Cz(a, b) => Gate::Cz(f(a), f(b)),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
            Gate::Toffoli {
                control1,
                control2,
                target,
            } => Gate::Toffoli {
                control1: f(control1),
                control2: f(control2),
                target: f(target),
            },
            Gate::PrepZ(q) => Gate::PrepZ(f(q)),
            Gate::MeasureZ(q) => Gate::MeasureZ(f(q)),
        }
    }
}

impl core::fmt::Display for Gate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Gate::Toffoli {
                control1,
                control2,
                target,
            } => write!(f, "toffoli {control1} {control2} {target}"),
            Gate::Cnot(a, b) => write!(f, "cnot {a} {b}"),
            Gate::Cz(a, b) => write!(f, "cz {a} {b}"),
            Gate::Swap(a, b) => write!(f, "swap {a} {b}"),
            Gate::H(q) => write!(f, "h {q}"),
            Gate::X(q) => write!(f, "x {q}"),
            Gate::Y(q) => write!(f, "y {q}"),
            Gate::Z(q) => write!(f, "z {q}"),
            Gate::S(q) => write!(f, "s {q}"),
            Gate::Sdg(q) => write!(f, "sdg {q}"),
            Gate::T(q) => write!(f, "t {q}"),
            Gate::Tdg(q) => write!(f, "tdg {q}"),
            Gate::PrepZ(q) => write!(f, "prep {q}"),
            Gate::MeasureZ(q) => write!(f, "measure {q}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_and_arity() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(Gate::Cnot(1, 2).qubits(), vec![1, 2]);
        assert_eq!(
            Gate::Toffoli {
                control1: 0,
                control2: 1,
                target: 2
            }
            .arity(),
            3
        );
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H(0).is_clifford());
        assert!(Gate::Cnot(0, 1).is_clifford());
        assert!(Gate::S(0).is_clifford());
        assert!(!Gate::T(0).is_clifford());
        assert!(!Gate::Toffoli {
            control1: 0,
            control2: 1,
            target: 2
        }
        .is_clifford());
    }

    #[test]
    fn physical_op_mapping() {
        use qla_physical::PhysicalOp;
        assert!(matches!(
            Gate::Cnot(0, 1).physical_op(),
            PhysicalOp::TwoQubitGate(_)
        ));
        assert!(matches!(
            Gate::MeasureZ(0).physical_op(),
            PhysicalOp::Measure
        ));
        assert!(matches!(
            Gate::H(0).physical_op(),
            PhysicalOp::SingleQubitGate(_)
        ));
    }

    #[test]
    fn map_qubits_applies_offset() {
        let g = Gate::Toffoli {
            control1: 0,
            control2: 1,
            target: 2,
        };
        let shifted = g.map_qubits(|q| q + 10);
        assert_eq!(shifted.qubits(), vec![10, 11, 12]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Gate::Cnot(0, 4)), "cnot 0 4");
        assert_eq!(format!("{}", Gate::MeasureZ(7)), "measure 7");
    }

    #[test]
    fn mnemonic_round_trips_every_gate() {
        let gates = [
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::PrepZ(0),
            Gate::MeasureZ(0),
            Gate::Cnot(0, 1),
            Gate::Cz(0, 1),
            Gate::Swap(0, 1),
            Gate::Toffoli {
                control1: 0,
                control2: 1,
                target: 2,
            },
        ];
        for g in gates {
            assert_eq!(Gate::mnemonic_arity(g.mnemonic()), Some(g.arity()));
            assert_eq!(Gate::from_mnemonic(g.mnemonic(), &g.qubits()), Some(g));
            // Display is "<mnemonic> <operands...>" — keep them in lockstep.
            assert!(format!("{g}").starts_with(g.mnemonic()));
        }
    }

    #[test]
    fn from_mnemonic_rejects_unknown_and_wrong_arity() {
        assert_eq!(Gate::mnemonic_arity("frobnicate"), None);
        assert_eq!(Gate::from_mnemonic("frobnicate", &[0]), None);
        assert_eq!(Gate::from_mnemonic("cnot", &[0]), None);
        assert_eq!(Gate::from_mnemonic("h", &[0, 1]), None);
    }
}
