//! The CHP (Aaronson–Gottesman) stabilizer tableau.
//!
//! The tableau tracks, for an `n`-qubit system, `n` *destabilizer* and `n`
//! *stabilizer* generators as rows of symplectic bits plus a sign bit, one
//! `bool` per bit (Aaronson & Gottesman, quant-ph/0406196). A Clifford gate
//! updates one or two columns of every row, `O(n)`; a measurement does at
//! most `2n` row products, `O(n²)`. Its callers, `qla_qec::run_clifford` on
//! a Steane block and its ancillas, stay at 14 qubits or fewer; the
//! Figure 7 Monte Carlo propagates errors through
//! [`PauliFrame`](crate::PauliFrame) instead.

use crate::pauli::{words_for, Pauli, PauliString};
use serde::{Deserialize, Serialize};

/// A Clifford-group gate (plus preparation), the instruction set of the
/// tableau backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CliffordGate {
    /// Hadamard on a qubit.
    H(usize),
    /// Phase gate S on a qubit.
    S(usize),
    /// Inverse phase gate S† on a qubit.
    Sdg(usize),
    /// Pauli-X on a qubit.
    X(usize),
    /// Pauli-Y on a qubit.
    Y(usize),
    /// Pauli-Z on a qubit.
    Z(usize),
    /// Controlled-NOT (control, target).
    Cnot(usize, usize),
    /// Controlled-Z (symmetric).
    Cz(usize, usize),
    /// SWAP two qubits.
    Swap(usize, usize),
    /// Re-prepare a qubit in |0⟩ (measure and conditionally flip).
    PrepZ(usize),
}

impl CliffordGate {
    /// The qubits the gate acts on.
    #[must_use]
    pub fn qubits(&self) -> (usize, Option<usize>) {
        match *self {
            CliffordGate::H(q)
            | CliffordGate::S(q)
            | CliffordGate::Sdg(q)
            | CliffordGate::X(q)
            | CliffordGate::Y(q)
            | CliffordGate::Z(q)
            | CliffordGate::PrepZ(q) => (q, None),
            CliffordGate::Cnot(a, b) | CliffordGate::Cz(a, b) | CliffordGate::Swap(a, b) => {
                (a, Some(b))
            }
        }
    }
}

/// The result of a Z-basis measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasurementOutcome {
    /// The measured bit (false = |0⟩, true = |1⟩).
    pub value: bool,
    /// Whether the outcome was determined by the state (true) or chosen
    /// uniformly at random because the qubit was in superposition (false).
    pub deterministic: bool,
}

/// The Aaronson–Gottesman tableau for `n` qubits.
///
/// Rows `0..n` are destabilizers, rows `n..2n` stabilizers, and row `2n` is
/// the scratch row of deterministic measurement. Each row holds one `bool`
/// per symplectic bit and one sign bit (`true` = −).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tableau {
    n: usize,
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl Tableau {
    /// Create a tableau for `n` qubits in the all-|0⟩ state.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let rows = 2 * n + 1;
        let mut t = Tableau {
            n,
            x: vec![vec![false; n]; rows],
            z: vec![vec![false; n]; rows],
            r: vec![false; rows],
        };
        for i in 0..n {
            // Destabilizer i = X_i, stabilizer i = Z_i.
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

    /// Apply a Clifford gate.
    ///
    /// `PrepZ` requires randomness to resolve a possible superposition and is
    /// therefore not accepted here; use [`Tableau::prepare_z`].
    ///
    /// # Panics
    /// Panics if a qubit index is out of range, if a two-qubit gate addresses
    /// the same qubit twice, or if the gate is `PrepZ`.
    pub fn apply(&mut self, gate: CliffordGate) {
        match gate {
            CliffordGate::H(q) => self.hadamard(q),
            CliffordGate::S(q) => self.phase(q),
            CliffordGate::Sdg(q) => {
                // S† = S·S·S.
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
            CliffordGate::PrepZ(_) => {
                panic!("PrepZ needs an RNG; use Tableau::prepare_z or StabilizerSimulator")
            }
        }
    }

    fn check_qubit(&self, q: usize) {
        assert!(q < self.n, "qubit index {q} out of range (n = {})", self.n);
    }

    /// Hadamard gate: swaps the qubit's X and Z bits in every row, flipping
    /// the sign of every row carrying a Y.
    pub fn hadamard(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            let (xv, zv) = (self.x[row][q], self.z[row][q]);
            self.r[row] ^= xv && zv;
            self.x[row][q] = zv;
            self.z[row][q] = xv;
        }
    }

    /// Phase gate S: `Z ← Z ⊕ X` on the qubit, with a sign flip for every
    /// row carrying a Y.
    pub fn phase(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            let (xv, zv) = (self.x[row][q], self.z[row][q]);
            self.r[row] ^= xv && zv;
            self.z[row][q] = zv ^ xv;
        }
    }

    /// Pauli X: flips the sign of every row anticommuting with it (Z bit set).
    pub fn pauli_x(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            self.r[row] ^= self.z[row][q];
        }
    }

    /// Pauli Z: flips the sign of every row with the X bit set.
    pub fn pauli_z(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][q];
        }
    }

    /// Pauli Y: flips the sign of every row carrying an X or a Z (not both).
    pub fn pauli_y(&mut self, q: usize) {
        self.check_qubit(q);
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][q] ^ self.z[row][q];
        }
    }

    /// Controlled-NOT.
    pub fn cnot(&mut self, control: usize, target: usize) {
        self.check_qubit(control);
        self.check_qubit(target);
        assert_ne!(control, target, "CNOT control and target must differ");
        for row in 0..2 * self.n {
            let (xc, zc) = (self.x[row][control], self.z[row][control]);
            let (xt, zt) = (self.x[row][target], self.z[row][target]);
            self.r[row] ^= xc && zt && xt == zc;
            self.x[row][target] = xt ^ xc;
            self.z[row][control] = zc ^ zt;
        }
    }

    /// Apply a whole Pauli string as a gate (used for error injection).
    ///
    /// Walks the string's support, so identity factors cost nothing.
    ///
    /// # Panics
    /// Panics if the string length does not match the qubit count.
    pub fn apply_pauli_string(&mut self, p: &PauliString) {
        assert_eq!(p.len(), self.n, "Pauli string length mismatch");
        for (q, pauli) in p.iter_support() {
            match pauli {
                Pauli::I => {}
                Pauli::X => self.pauli_x(q),
                Pauli::Y => self.pauli_y(q),
                Pauli::Z => self.pauli_z(q),
            }
        }
    }

    /// Multiply row `i` into row `h`: the Aaronson–Gottesman `rowsum`, with
    /// the sign of the product from the `g` function summed over qubits.
    /// An exponent ≡ 2 (mod 4) is a − sign; odd exponents arise only on
    /// destabilizer rows, whose sign is unobservable, and map to +.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut exponent: i64 = 2 * (i64::from(self.r[h]) + i64::from(self.r[i]));
        for q in 0..self.n {
            let (x1, z1) = (self.x[i][q], self.z[i][q]);
            let (x2, z2) = (i64::from(self.x[h][q]), i64::from(self.z[h][q]));
            exponent += match (x1, z1) {
                (false, false) => 0,
                (true, true) => z2 - x2,
                (true, false) => z2 * (2 * x2 - 1),
                (false, true) => x2 * (1 - 2 * z2),
            };
            self.x[h][q] ^= x1;
            self.z[h][q] ^= z1;
        }
        self.r[h] = exponent.rem_euclid(4) == 2;
    }

    /// Measure qubit `q` in the Z basis. `random_bit` supplies the outcome in
    /// the non-deterministic case.
    ///
    /// The pivot is the lowest stabilizer row with an X bit on `q`; if there
    /// is one, the outcome is random and every other row with an X bit on
    /// `q`, destabilizers included, gets the pivot multiplied in. Otherwise the outcome is the sign of the product of the
    /// stabilizer rows selected by the destabilizers' X bits on `q`,
    /// accumulated in the scratch row.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    pub fn measure_with(&mut self, q: usize, random_bit: bool) -> MeasurementOutcome {
        self.check_qubit(q);
        let n = self.n;
        if let Some(p) = (n..2 * n).find(|&row| self.x[row][q]) {
            for row in 0..2 * n {
                if row != p && self.x[row][q] {
                    self.rowsum(row, p);
                }
            }
            // Destabilizer p−n becomes the old stabilizer row p; row p
            // becomes ±Z_q with the random outcome as its sign.
            self.x[p - n] = std::mem::replace(&mut self.x[p], vec![false; n]);
            self.z[p - n] = std::mem::replace(&mut self.z[p], vec![false; n]);
            self.r[p - n] = self.r[p];
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

    /// Re-prepare qubit `q` in |0⟩: measure it and flip if the result was |1⟩.
    pub fn prepare_z(&mut self, q: usize, random_bit: bool) {
        let outcome = self.measure_with(q, random_bit);
        if outcome.value {
            self.pauli_x(q);
        }
    }

    /// True if measuring qubit `q` would give a deterministic outcome, i.e.
    /// no stabilizer generator anticommutes with `Z_q`.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn is_deterministic(&self, q: usize) -> bool {
        self.check_qubit(q);
        !(self.n..2 * self.n).any(|row| self.x[row][q])
    }

    /// The current stabilizer generators as Pauli strings.
    #[must_use]
    pub fn stabilizers(&self) -> Vec<PauliString> {
        (self.n..2 * self.n)
            .map(|row| self.row_string(row))
            .collect()
    }

    /// The current destabilizer generators as Pauli strings.
    #[must_use]
    pub fn destabilizers(&self) -> Vec<PauliString> {
        (0..self.n).map(|row| self.row_string(row)).collect()
    }

    /// Generator row `row` as a Pauli string, its sign as the phase.
    fn row_string(&self, row: usize) -> PauliString {
        let pack = |bits: &[bool]| {
            let mut words = vec![0u64; words_for(self.n)];
            for q in (0..self.n).filter(|&q| bits[q]) {
                words[q / 64] |= 1 << (q % 64);
            }
            words
        };
        let phase = if self.r[row] { 2 } else { 0 };
        PauliString::from_words(self.n, pack(&self.x[row]), pack(&self.z[row]), phase)
    }

    /// True if the given Pauli string — *including its sign* — is in the
    /// stabilizer group of the current state, i.e. the state is a +1
    /// eigenstate of the operator.
    ///
    /// # Panics
    /// Panics if the string length does not match the qubit count.
    #[must_use]
    pub fn stabilizes(&self, p: &PauliString) -> bool {
        assert_eq!(p.len(), self.n, "Pauli string length mismatch");
        // p must commute with every stabilizer to even be a candidate.
        for row in self.n..2 * self.n {
            if !self.row_string(row).commutes_with(p) {
                return false;
            }
        }
        // Express p in terms of stabilizers using the destabilizers: stabilizer
        // row i is "detected" by destabilizer i (they anticommute pairwise).
        // If p is in the group with the correct sign, multiplying the selected
        // stabilizer rows into p reduces it to +I exactly.
        let mut residual = p.clone();
        for i in 0..self.n {
            let destab = self.row_string(i);
            if !destab.commutes_with(&residual) {
                let stab = self.row_string(i + self.n);
                residual.multiply_by(&stab);
            }
        }
        residual.is_identity() && residual.phase_exponent() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_measures_zero() {
        let mut t = Tableau::new(3);
        for q in 0..3 {
            let m = t.measure_with(q, true);
            assert!(m.deterministic);
            assert!(!m.value);
        }
    }

    #[test]
    fn x_flips_a_qubit() {
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::X(1));
        assert!(!t.measure_with(0, false).value);
        let m = t.measure_with(1, false);
        assert!(m.deterministic);
        assert!(m.value);
    }

    #[test]
    fn hadamard_makes_measurement_random_then_collapses() {
        let mut t = Tableau::new(1);
        t.apply(CliffordGate::H(0));
        assert!(!t.is_deterministic(0));
        let m1 = t.measure_with(0, true);
        assert!(!m1.deterministic);
        assert!(m1.value);
        // Second measurement must repeat the first outcome.
        let m2 = t.measure_with(0, false);
        assert!(m2.deterministic);
        assert_eq!(m2.value, m1.value);
    }

    #[test]
    fn bell_pair_is_correlated_for_both_outcomes() {
        for outcome in [false, true] {
            let mut t = Tableau::new(2);
            t.apply(CliffordGate::H(0));
            t.apply(CliffordGate::Cnot(0, 1));
            let a = t.measure_with(0, outcome);
            let b = t.measure_with(1, true); // random bit ignored: deterministic now
            assert!(!a.deterministic);
            assert!(b.deterministic);
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn ghz_state_has_expected_stabilizers() {
        let mut t = Tableau::new(3);
        t.apply(CliffordGate::H(0));
        t.apply(CliffordGate::Cnot(0, 1));
        t.apply(CliffordGate::Cnot(1, 2));
        assert!(t.stabilizes(&PauliString::from_str_repr("XXX")));
        assert!(t.stabilizes(&PauliString::from_str_repr("ZZI")));
        assert!(t.stabilizes(&PauliString::from_str_repr("IZZ")));
        assert!(!t.stabilizes(&PauliString::from_str_repr("XII")));
        assert!(!t.stabilizes(&PauliString::from_str_repr("ZII")));
    }

    #[test]
    fn ghz_measurement_collapses_all_three_qubits() {
        let mut t = Tableau::new(3);
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
    fn phase_gate_turns_x_into_y() {
        // |+> stabilized by X; after S it is stabilized by Y.
        let mut t = Tableau::new(1);
        t.apply(CliffordGate::H(0));
        assert!(t.stabilizes(&PauliString::from_str_repr("X")));
        t.apply(CliffordGate::S(0));
        assert!(t.stabilizes(&PauliString::from_str_repr("Y")));
        t.apply(CliffordGate::Sdg(0));
        assert!(t.stabilizes(&PauliString::from_str_repr("X")));
    }

    #[test]
    fn cz_creates_the_same_entanglement_as_cnot_conjugated_by_h() {
        let mut a = Tableau::new(2);
        a.apply(CliffordGate::H(0));
        a.apply(CliffordGate::H(1));
        a.apply(CliffordGate::Cz(0, 1));
        // CZ|++> is the graph state stabilized by XZ and ZX.
        assert!(a.stabilizes(&PauliString::from_str_repr("XZ")));
        assert!(a.stabilizes(&PauliString::from_str_repr("ZX")));
    }

    #[test]
    fn swap_exchanges_states() {
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::X(0));
        t.apply(CliffordGate::Swap(0, 1));
        assert!(!t.measure_with(0, false).value);
        assert!(t.measure_with(1, false).value);
    }

    #[test]
    fn prepare_z_resets_an_excited_qubit() {
        let mut t = Tableau::new(1);
        t.apply(CliffordGate::X(0));
        t.prepare_z(0, false);
        assert!(!t.measure_with(0, false).value);
        // Also resets a superposed qubit regardless of the random outcome.
        let mut t = Tableau::new(1);
        t.apply(CliffordGate::H(0));
        t.prepare_z(0, true);
        assert!(!t.measure_with(0, false).value);
    }

    #[test]
    fn teleportation_circuit_transfers_a_known_state() {
        // Teleport |1> from qubit 0 to qubit 2 using a Bell pair on (1,2).
        for (m1_random, m2_random) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut t = Tableau::new(3);
            t.apply(CliffordGate::X(0)); // the state to teleport
            t.apply(CliffordGate::H(1));
            t.apply(CliffordGate::Cnot(1, 2));
            t.apply(CliffordGate::Cnot(0, 1));
            t.apply(CliffordGate::H(0));
            let m1 = t.measure_with(0, m1_random).value;
            let m2 = t.measure_with(1, m2_random).value;
            if m2 {
                t.apply(CliffordGate::X(2));
            }
            if m1 {
                t.apply(CliffordGate::Z(2));
            }
            let out = t.measure_with(2, false);
            assert!(out.deterministic);
            assert!(out.value, "teleported state must be |1>");
        }
    }

    #[test]
    fn y_gate_is_consistent_with_x_then_z() {
        let mut a = Tableau::new(1);
        a.apply(CliffordGate::H(0));
        a.apply(CliffordGate::S(0)); // state stabilized by Y
        let mut b = a.clone();
        a.apply(CliffordGate::Y(0));
        // Y acting on a Y eigenstate leaves it unchanged.
        assert_eq!(a.stabilizers(), b.stabilizers());
        b.apply(CliffordGate::Z(0));
        b.apply(CliffordGate::X(0));
        // X·Z differs from Y only by a global phase, so stabilizers of ±Y
        // eigenstates must match up to that phase; measure to compare.
        assert!(a.stabilizes(&PauliString::from_str_repr("Y")));
        assert!(b.stabilizes(&PauliString::from_str_repr("Y")));
    }

    #[test]
    fn error_injection_via_pauli_string() {
        let mut t = Tableau::new(3);
        t.apply_pauli_string(&PauliString::from_str_repr("XIX"));
        assert!(t.measure_with(0, false).value);
        assert!(!t.measure_with(1, false).value);
        assert!(t.measure_with(2, false).value);
    }

    #[test]
    fn stabilizer_and_destabilizer_counts() {
        let t = Tableau::new(5);
        assert_eq!(t.stabilizers().len(), 5);
        assert_eq!(t.destabilizers().len(), 5);
        assert_eq!(t.num_qubits(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::H(2));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cnot_same_qubit_panics() {
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::Cnot(1, 1));
    }

    #[test]
    fn large_tableau_spanning_multiple_words() {
        // 130 qubits: flips and a Bell pair far apart in the register.
        let n = 130;
        let mut t = Tableau::new(n);
        for q in [0, 63, 64, 129] {
            t.apply(CliffordGate::X(q));
        }
        for q in [0, 63, 64, 129] {
            assert!(t.measure_with(q, false).value, "qubit {q}");
        }
        assert!(!t.measure_with(100, false).value);
        // A Bell pair across the word boundary stays correlated.
        t.apply(CliffordGate::H(10));
        t.apply(CliffordGate::Cnot(10, 120));
        let a = t.measure_with(10, true).value;
        let b = t.measure_with(120, false).value;
        assert_eq!(a, b);
    }

    #[test]
    fn row_boundary_sizes_round_trip_through_measurement() {
        // A Bell pair between the first and last qubit behaves the same at
        // every register size.
        for n in [31, 32, 33] {
            let mut t = Tableau::new(n);
            t.apply(CliffordGate::H(0));
            t.apply(CliffordGate::Cnot(0, n - 1));
            let a = t.measure_with(0, true);
            assert!(!a.deterministic);
            let b = t.measure_with(n - 1, false);
            assert!(b.deterministic);
            assert_eq!(a.value, b.value);
        }
    }
}
