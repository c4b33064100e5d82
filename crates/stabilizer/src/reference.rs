//! The scalar (one-Pauli-per-element) Pauli frame.
//!
//! [`ScalarFrame`] is the pre-bit-packing frame kernel: one boolean per
//! error bit, updated qubit by qubit. It is the oracle of
//! [`PauliFrame`](crate::PauliFrame)'s word-parallel kernels: a property
//! test in `frame.rs` runs random gates and injections through both and
//! requires the same error on every qubit. Nothing outside tests should
//! use it.

use crate::tableau::CliffordGate;

/// The element-wise Pauli frame: one boolean per error bit, per-qubit gate
/// updates — the seed hot-path idiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarFrame {
    /// X-error flags, one per qubit.
    pub x: Vec<bool>,
    /// Z-error flags, one per qubit.
    pub z: Vec<bool>,
}

impl ScalarFrame {
    /// An error-free frame on `n` qubits.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ScalarFrame {
            x: vec![false; n],
            z: vec![false; n],
        }
    }

    /// True if an X component is present on qubit `q`.
    #[must_use]
    pub fn has_x(&self, q: usize) -> bool {
        self.x[q]
    }

    /// True if a Z component is present on qubit `q`.
    #[must_use]
    pub fn has_z(&self, q: usize) -> bool {
        self.z[q]
    }

    /// Toggle an X error on qubit `q`.
    pub fn inject_x(&mut self, q: usize) {
        self.x[q] ^= true;
    }

    /// Toggle a Z error on qubit `q`.
    pub fn inject_z(&mut self, q: usize) {
        self.z[q] ^= true;
    }

    /// Toggle a Y error on qubit `q`.
    pub fn inject_y(&mut self, q: usize) {
        self.x[q] ^= true;
        self.z[q] ^= true;
    }

    /// Propagate the frame through one ideal Clifford gate, element-wise.
    pub fn apply(&mut self, gate: CliffordGate) {
        match gate {
            CliffordGate::H(q) => core::mem::swap(&mut self.x[q], &mut self.z[q]),
            CliffordGate::S(q) | CliffordGate::Sdg(q) => {
                if self.x[q] {
                    self.z[q] ^= true;
                }
            }
            CliffordGate::X(_) | CliffordGate::Y(_) | CliffordGate::Z(_) => {}
            CliffordGate::Cnot(c, t) => {
                if self.x[c] {
                    self.x[t] ^= true;
                }
                if self.z[t] {
                    self.z[c] ^= true;
                }
            }
            CliffordGate::Cz(a, b) => {
                if self.x[a] {
                    self.z[b] ^= true;
                }
                if self.x[b] {
                    self.z[a] ^= true;
                }
            }
            CliffordGate::Swap(a, b) => {
                self.x.swap(a, b);
                self.z.swap(a, b);
            }
            CliffordGate::PrepZ(q) => {
                self.x[q] = false;
                self.z[q] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_frame_matches_cnot_propagation() {
        let mut f = ScalarFrame::new(2);
        f.inject_x(0);
        f.apply(CliffordGate::Cnot(0, 1));
        assert!(f.has_x(0) && f.has_x(1));
        f.apply(CliffordGate::H(0));
        assert!(f.has_z(0) && !f.has_x(0));
    }
}
