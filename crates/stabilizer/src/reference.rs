//! Scalar (one-Pauli-per-element) reference implementations.
//!
//! These are the pre-bit-packing tableau and frame kernels, retained verbatim
//! as the oracle for the differential property tests: random
//! Clifford+measurement programs must produce identical outcomes and signs
//! through the packed engine and through this module. They store one boolean
//! per symplectic bit and update rows element by element, exactly the idiom
//! the packed API retires; nothing outside tests should use them.

use crate::pauli::Pauli;
use crate::tableau::{CliffordGate, MeasurementOutcome};

/// The element-wise Aaronson–Gottesman tableau: rows `0..n` are
/// destabilizers, rows `n..2n` stabilizers, row `2n` the scratch row; one
/// `bool` per symplectic bit.
#[derive(Debug, Clone)]
pub struct ScalarTableau {
    n: usize,
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl ScalarTableau {
    /// Create a tableau for `n` qubits in the all-|0⟩ state.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let rows = 2 * n + 1;
        let mut t = ScalarTableau {
            n,
            x: vec![vec![false; n]; rows],
            z: vec![vec![false; n]; rows],
            r: vec![false; rows],
        };
        for i in 0..n {
            t.x[i][i] = true;
            t.z[i + n][i] = true;
        }
        t
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Apply a Clifford gate, with the same decompositions as the packed
    /// engine (`S† = S³`, `CZ = H·CNOT·H`, `SWAP = CNOT³`).
    ///
    /// # Panics
    /// Panics on out-of-range qubits, equal CNOT qubits, or `PrepZ`.
    pub fn apply(&mut self, gate: CliffordGate) {
        match gate {
            CliffordGate::H(q) => self.hadamard(q),
            CliffordGate::S(q) => self.phase(q),
            CliffordGate::Sdg(q) => {
                self.phase(q);
                self.phase(q);
                self.phase(q);
            }
            CliffordGate::X(q) => self.pauli_x(q),
            CliffordGate::Y(q) => self.pauli_y(q),
            CliffordGate::Z(q) => self.pauli_z(q),
            CliffordGate::Cnot(c, t) => self.cnot(c, t),
            CliffordGate::Cz(a, b) => {
                self.hadamard(b);
                self.cnot(a, b);
                self.hadamard(b);
            }
            CliffordGate::Swap(a, b) => {
                self.cnot(a, b);
                self.cnot(b, a);
                self.cnot(a, b);
            }
            CliffordGate::PrepZ(_) => panic!("PrepZ needs an RNG; resolve it via measure_with"),
        }
    }

    fn check_qubit(&self, q: usize) {
        assert!(q < self.n, "qubit index {q} out of range (n = {})", self.n);
    }

    fn hadamard(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            let xv = self.x[row][q];
            let zv = self.z[row][q];
            if xv && zv {
                self.r[row] ^= true;
            }
            self.x[row][q] = zv;
            self.z[row][q] = xv;
        }
    }

    fn phase(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            let xv = self.x[row][q];
            let zv = self.z[row][q];
            if xv && zv {
                self.r[row] ^= true;
            }
            self.z[row][q] = zv ^ xv;
        }
    }

    fn pauli_x(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            if self.z[row][q] {
                self.r[row] ^= true;
            }
        }
    }

    fn pauli_z(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            if self.x[row][q] {
                self.r[row] ^= true;
            }
        }
    }

    fn pauli_y(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            if self.x[row][q] ^ self.z[row][q] {
                self.r[row] ^= true;
            }
        }
    }

    fn cnot(&mut self, control: usize, target: usize) {
        self.check_qubit(control);
        self.check_qubit(target);
        assert_ne!(control, target, "CNOT control and target must differ");
        for row in 0..2 * self.n {
            let xc = self.x[row][control];
            let zc = self.z[row][control];
            let xt = self.x[row][target];
            let zt = self.z[row][target];
            if xc && zt && (xt == zc) {
                self.r[row] ^= true;
            }
            self.x[row][target] = xt ^ xc;
            self.z[row][control] = zc ^ zt;
        }
    }

    /// The Aaronson–Gottesman `g`-sum sign of multiplying row `i` into row
    /// `h`, accumulated element by element.
    fn rowsum_sign(&self, h: usize, i: usize) -> bool {
        let mut exponent: i64 = 0;
        if self.r[h] {
            exponent += 2;
        }
        if self.r[i] {
            exponent += 2;
        }
        for q in 0..self.n {
            let x1 = self.x[i][q];
            let z1 = self.z[i][q];
            let x2 = self.x[h][q];
            let z2 = self.z[h][q];
            let g: i64 = match (x1, z1) {
                (false, false) => 0,
                (true, true) => i64::from(z2) - i64::from(x2),
                (true, false) => i64::from(z2) * (2 * i64::from(x2) - 1),
                (false, true) => i64::from(x2) * (1 - 2 * i64::from(z2)),
            };
            exponent += g;
        }
        exponent.rem_euclid(4) == 2
    }

    fn rowsum(&mut self, h: usize, i: usize) {
        let new_sign = self.rowsum_sign(h, i);
        for q in 0..self.n {
            self.x[h][q] ^= self.x[i][q];
            self.z[h][q] ^= self.z[i][q];
        }
        self.r[h] = new_sign;
    }

    /// Measure qubit `q` in the Z basis; `random_bit` supplies the outcome in
    /// the non-deterministic case. Identical semantics (including pivot-row
    /// choice) to the packed engine's `measure_with`.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    pub fn measure_with(&mut self, q: usize, random_bit: bool) -> MeasurementOutcome {
        self.check_qubit(q);
        let n = self.n;
        let p_row = (n..2 * n).find(|&row| self.x[row][q]);
        if let Some(p) = p_row {
            for row in 0..2 * n {
                if row != p && self.x[row][q] {
                    self.rowsum(row, p);
                }
            }
            self.x[p - n] = self.x[p].clone();
            self.z[p - n] = self.z[p].clone();
            self.r[p - n] = self.r[p];
            self.x[p].fill(false);
            self.z[p].fill(false);
            self.z[p][q] = true;
            self.r[p] = random_bit;
            MeasurementOutcome {
                value: random_bit,
                deterministic: false,
            }
        } else {
            let scratch = 2 * n;
            self.x[scratch].fill(false);
            self.z[scratch].fill(false);
            self.r[scratch] = false;
            for row in 0..n {
                if self.x[row][q] {
                    self.rowsum(scratch, row + n);
                }
            }
            MeasurementOutcome {
                value: self.r[scratch],
                deterministic: true,
            }
        }
    }

    /// `true` when a Z measurement of `q` has a predetermined outcome, i.e.
    /// no stabilizer generator anticommutes with `Z_q`.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn is_deterministic(&self, q: usize) -> bool {
        self.check_qubit(q);
        !(self.n..2 * self.n).any(|row| self.x[row][q])
    }

    /// Generator row `row` rendered as a signed Pauli string, e.g. `"-XIZ"`.
    #[must_use]
    pub fn row_repr(&self, row: usize) -> String {
        let mut s = String::with_capacity(self.n + 1);
        if self.r[row] {
            s.push('-');
        }
        for q in 0..self.n {
            let p = Pauli::from_xz(self.x[row][q], self.z[row][q]);
            s.push(match p {
                Pauli::I => 'I',
                Pauli::X => 'X',
                Pauli::Y => 'Y',
                Pauli::Z => 'Z',
            });
        }
        s
    }

    /// All stabilizer rows as signed strings, for differential comparison.
    #[must_use]
    pub fn stabilizer_reprs(&self) -> Vec<String> {
        (self.n..2 * self.n).map(|row| self.row_repr(row)).collect()
    }

    /// All destabilizer rows as signed strings.
    #[must_use]
    pub fn destabilizer_reprs(&self) -> Vec<String> {
        (0..self.n).map(|row| self.row_repr(row)).collect()
    }
}

/// The element-wise Pauli frame: one boolean per error bit, per-qubit gate
/// updates, list-based parities — the seed hot-path idiom.
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

    /// Parity of the X errors over a listed support.
    #[must_use]
    pub fn x_parity(&self, qubits: &[usize]) -> bool {
        qubits.iter().fold(false, |acc, &q| acc ^ self.x[q])
    }

    /// Parity of the Z errors over a listed support.
    #[must_use]
    pub fn z_parity(&self, qubits: &[usize]) -> bool {
        qubits.iter().fold(false, |acc, &q| acc ^ self.z[q])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_tableau_ghz_stabilizers() {
        let mut t = ScalarTableau::new(3);
        t.apply(CliffordGate::H(0));
        t.apply(CliffordGate::Cnot(0, 1));
        t.apply(CliffordGate::Cnot(1, 2));
        let m = t.measure_with(0, true);
        assert!(!m.deterministic);
        assert!(m.value);
        // All three qubits collapse together.
        assert!(t.measure_with(1, false).value);
        assert!(t.measure_with(2, false).value);
    }

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
