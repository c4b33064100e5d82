//! Pauli-frame error propagation.
//!
//! For Monte-Carlo evaluation of CSS error-correcting circuits (the Figure 7
//! experiment) we never need the full quantum state: since every injected
//! fault is a Pauli and every gate is Clifford, it suffices to track how the
//! *error pattern* propagates through the ideal circuit. That is the Pauli
//! frame. Each qubit carries two bits — "an X error is present" and "a Z error
//! is present" — and Clifford gates act on these bits by conjugation:
//!
//! | gate      | action on frame                               |
//! |-----------|-----------------------------------------------|
//! | H(q)      | swap x(q) ↔ z(q)                              |
//! | S(q)      | z(q) ^= x(q)                                  |
//! | CNOT(c,t) | x(t) ^= x(c); z(c) ^= z(t)                    |
//! | CZ(a,b)   | z(a) ^= x(b); z(b) ^= x(a)                    |
//! | Pauli     | no effect (commutes up to phase)              |
//! | PrepZ(q)  | clear both bits                               |
//! | MeasZ(q)  | outcome flipped iff x(q) set                  |
//!
//! The two bit planes are packed 64 qubits per `u64` word, and the bulk
//! interface operates on whole words: mask-based preparation and transversal
//! Hadamard ([`PauliFrame::prep_mask`], [`PauliFrame::h_mask`]), block
//! transversal CNOT ([`PauliFrame::cnot_block`]), packed-row injection
//! ([`PauliFrame::xor_rows`]), windowed reads
//! ([`PauliFrame::x_bits_at`]/[`PauliFrame::z_bits_at`]), and mask parities
//! for syndrome extraction. A transversal operation over a whole code block
//! is then O(words), not O(qubits) — this is what makes the Figure 7
//! Monte-Carlo trial a handful of word operations end to end.

use crate::pauli::{tail_mask, Pauli};
use crate::tableau::CliffordGate;
use serde::{Deserialize, Serialize};

/// A Pauli frame over `n` qubits: the error pattern currently carried by the
/// state relative to the ideal circuit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PauliFrame {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
}

/// Read up to 64 bits starting at `offset` from a packed plane.
#[inline]
fn read_window(words: &[u64], offset: usize, len: usize) -> u64 {
    debug_assert!(len <= 64);
    let w = offset / 64;
    let s = offset % 64;
    let mut v = words[w] >> s;
    if s != 0 && w + 1 < words.len() {
        v |= words[w + 1] << (64 - s);
    }
    v & tail_mask(len)
}

/// XOR up to 64 bits of `v` into a packed plane starting at `offset`.
#[inline]
fn xor_window(words: &mut [u64], offset: usize, len: usize, v: u64) {
    debug_assert!(len <= 64);
    let v = v & tail_mask(len);
    let w = offset / 64;
    let s = offset % 64;
    words[w] ^= v << s;
    if s != 0 && s + len > 64 {
        words[w + 1] ^= v >> (64 - s);
    }
}

impl PauliFrame {
    /// An error-free frame on `n` qubits.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        PauliFrame {
            n,
            x: vec![0; words],
            z: vec![0; words],
        }
    }

    /// Number of qubits tracked.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, q: usize) -> (usize, u64) {
        assert!(q < self.n, "qubit index {q} out of range (n = {})", self.n);
        (q / 64, 1u64 << (q % 64))
    }

    /// True if an X component is present on qubit `q`.
    #[must_use]
    #[inline]
    pub fn has_x(&self, q: usize) -> bool {
        let (w, m) = self.idx(q);
        self.x[w] & m != 0
    }

    /// True if a Z component is present on qubit `q`.
    #[must_use]
    #[inline]
    pub fn has_z(&self, q: usize) -> bool {
        let (w, m) = self.idx(q);
        self.z[w] & m != 0
    }

    /// The Pauli error currently on qubit `q`.
    #[must_use]
    #[inline]
    pub fn error_on(&self, q: usize) -> Pauli {
        Pauli::from_xz(self.has_x(q), self.has_z(q))
    }

    /// Toggle an X error on qubit `q`.
    #[inline]
    pub fn inject_x(&mut self, q: usize) {
        let (w, m) = self.idx(q);
        self.x[w] ^= m;
    }

    /// Toggle a Z error on qubit `q`.
    #[inline]
    pub fn inject_z(&mut self, q: usize) {
        let (w, m) = self.idx(q);
        self.z[w] ^= m;
    }

    /// Toggle a Y error on qubit `q`.
    #[inline]
    pub fn inject_y(&mut self, q: usize) {
        self.inject_x(q);
        self.inject_z(q);
    }

    /// Inject an arbitrary Pauli on qubit `q`.
    #[inline]
    pub fn inject(&mut self, q: usize, p: Pauli) {
        match p {
            Pauli::I => {}
            Pauli::X => self.inject_x(q),
            Pauli::Y => self.inject_y(q),
            Pauli::Z => self.inject_z(q),
        }
    }

    /// The packed X-error plane (qubit `q` at bit `q % 64` of word `q / 64`).
    #[must_use]
    pub fn x_words(&self) -> &[u64] {
        &self.x
    }

    /// The packed Z-error plane.
    #[must_use]
    pub fn z_words(&self) -> &[u64] {
        &self.z
    }

    /// XOR packed X/Z rows into the frame, such as a
    /// [`PauliString`](crate::PauliString)'s
    /// `x_words` and `z_words`: the bulk form of [`PauliFrame::inject`].
    /// Tail bits beyond `n` in the final word are ignored.
    ///
    /// # Panics
    /// Panics if the row slices don't match the frame's word count.
    #[inline]
    pub fn xor_rows(&mut self, xs: &[u64], zs: &[u64]) {
        assert_eq!(xs.len(), self.x.len(), "x row word count mismatch");
        assert_eq!(zs.len(), self.z.len(), "z row word count mismatch");
        let last = self.x.len() - 1;
        let keep = if self.n == 0 { 0 } else { tail_mask(self.n) };
        for w in 0..=last {
            let m = if w == last { keep } else { u64::MAX };
            self.x[w] ^= xs[w] & m;
            self.z[w] ^= zs[w] & m;
        }
    }

    /// A packed window of up to 64 X bits starting at qubit `offset`.
    ///
    /// # Panics
    /// Panics if the window exceeds the frame or 64 bits.
    #[must_use]
    #[inline]
    pub fn x_bits_at(&self, offset: usize, len: usize) -> u64 {
        assert!(len <= 64, "window wider than one word");
        assert!(offset + len <= self.n, "window out of range");
        read_window(&self.x, offset, len)
    }

    /// A packed window of up to 64 Z bits starting at qubit `offset`.
    ///
    /// # Panics
    /// Panics if the window exceeds the frame or 64 bits.
    #[must_use]
    #[inline]
    pub fn z_bits_at(&self, offset: usize, len: usize) -> u64 {
        assert!(len <= 64, "window wider than one word");
        assert!(offset + len <= self.n, "window out of range");
        read_window(&self.z, offset, len)
    }

    /// Clear both error bits on every qubit selected by `mask` — a bulk
    /// transversal `PrepZ` in O(words).
    ///
    /// # Panics
    /// Panics if the mask's word count doesn't match the frame.
    #[inline]
    pub fn prep_mask(&mut self, mask: &[u64]) {
        assert_eq!(mask.len(), self.x.len(), "mask word count mismatch");
        for (w, &m) in mask.iter().enumerate() {
            self.x[w] &= !m;
            self.z[w] &= !m;
        }
    }

    /// Swap the X and Z bits on every qubit selected by `mask` — a bulk
    /// transversal Hadamard in O(words).
    ///
    /// # Panics
    /// Panics if the mask's word count doesn't match the frame.
    #[inline]
    pub fn h_mask(&mut self, mask: &[u64]) {
        assert_eq!(mask.len(), self.x.len(), "mask word count mismatch");
        for (w, &m) in mask.iter().enumerate() {
            let diff = (self.x[w] ^ self.z[w]) & m;
            self.x[w] ^= diff;
            self.z[w] ^= diff;
        }
    }

    /// Transversal CNOT between two equal-length, non-overlapping contiguous
    /// blocks: `CNOT(control_offset + i, target_offset + i)` for all
    /// `i < len`, word-parallel (`x[targets] ^= x[controls]`,
    /// `z[controls] ^= z[targets]`).
    ///
    /// # Panics
    /// Panics if either block runs past the frame or the blocks overlap.
    #[inline]
    pub fn cnot_block(&mut self, control_offset: usize, target_offset: usize, len: usize) {
        assert!(control_offset + len <= self.n, "control block out of range");
        assert!(target_offset + len <= self.n, "target block out of range");
        assert!(
            control_offset + len <= target_offset || target_offset + len <= control_offset,
            "transversal CNOT blocks must not overlap"
        );
        let mut done = 0;
        while done < len {
            let chunk = (len - done).min(64);
            let cx = read_window(&self.x, control_offset + done, chunk);
            xor_window(&mut self.x, target_offset + done, chunk, cx);
            let tz = read_window(&self.z, target_offset + done, chunk);
            xor_window(&mut self.z, control_offset + done, chunk, tz);
            done += chunk;
        }
    }

    /// Parity of the Z-error pattern over the qubits selected by `mask`.
    ///
    /// # Panics
    /// Panics if the mask's word count doesn't match the frame.
    #[must_use]
    #[inline]
    pub fn z_mask_parity(&self, mask: &[u64]) -> bool {
        assert_eq!(mask.len(), self.z.len(), "mask word count mismatch");
        mask.iter()
            .zip(&self.z)
            .fold(0u32, |acc, (&m, &w)| acc ^ (m & w).count_ones())
            & 1
            != 0
    }

    /// Propagate the frame through one ideal Clifford gate.
    #[inline]
    pub fn apply(&mut self, gate: CliffordGate) {
        match gate {
            CliffordGate::H(q) => {
                let (w, m) = self.idx(q);
                let xv = self.x[w] & m != 0;
                let zv = self.z[w] & m != 0;
                if xv != zv {
                    self.x[w] ^= m;
                    self.z[w] ^= m;
                }
            }
            CliffordGate::S(q) | CliffordGate::Sdg(q) => {
                let (w, m) = self.idx(q);
                if self.x[w] & m != 0 {
                    self.z[w] ^= m;
                }
            }
            CliffordGate::X(_) | CliffordGate::Y(_) | CliffordGate::Z(_) => {}
            CliffordGate::Cnot(c, t) => {
                let (wc, mc) = self.idx(c);
                let (wt, mt) = self.idx(t);
                if self.x[wc] & mc != 0 {
                    self.x[wt] ^= mt;
                }
                if self.z[wt] & mt != 0 {
                    self.z[wc] ^= mc;
                }
            }
            CliffordGate::Cz(a, b) => {
                let (wa, ma) = self.idx(a);
                let (wb, mb) = self.idx(b);
                if self.x[wa] & ma != 0 {
                    self.z[wb] ^= mb;
                }
                if self.x[wb] & mb != 0 {
                    self.z[wa] ^= ma;
                }
            }
            CliffordGate::Swap(a, b) => {
                let ea = self.error_on(a);
                let eb = self.error_on(b);
                self.set(a, eb);
                self.set(b, ea);
            }
            CliffordGate::PrepZ(q) => {
                self.set(q, Pauli::I);
            }
        }
    }

    /// Overwrite the error on qubit `q`.
    #[inline]
    pub fn set(&mut self, q: usize, p: Pauli) {
        let (w, m) = self.idx(q);
        let (xv, zv) = p.xz();
        if xv {
            self.x[w] |= m;
        } else {
            self.x[w] &= !m;
        }
        if zv {
            self.z[w] |= m;
        } else {
            self.z[w] &= !m;
        }
    }

    /// Number of qubits carrying any error (word-parallel popcount).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.x
            .iter()
            .zip(&self.z)
            .map(|(&x, &z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Clear all errors.
    #[inline]
    pub fn reset(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pauli::PauliString;
    use crate::simulator::StabilizerSimulator;
    use proptest::prelude::*;

    #[test]
    fn fresh_frame_is_clean() {
        let f = PauliFrame::new(10);
        assert_eq!(f.weight(), 0);
        assert_eq!(f.num_qubits(), 10);
    }

    #[test]
    fn injection_and_clearing() {
        let mut f = PauliFrame::new(4);
        f.inject_x(0);
        f.inject_z(1);
        f.inject_y(2);
        assert_eq!(f.error_on(0), Pauli::X);
        assert_eq!(f.error_on(1), Pauli::Z);
        assert_eq!(f.error_on(2), Pauli::Y);
        assert_eq!(f.error_on(3), Pauli::I);
        assert_eq!(f.weight(), 3);
        f.reset();
        assert_eq!(f.weight(), 0);
    }

    #[test]
    fn double_injection_cancels() {
        let mut f = PauliFrame::new(1);
        f.inject_x(0);
        f.inject_x(0);
        assert_eq!(f.weight(), 0);
    }

    #[test]
    fn hadamard_swaps_x_and_z() {
        let mut f = PauliFrame::new(1);
        f.inject_x(0);
        f.apply(CliffordGate::H(0));
        assert_eq!(f.error_on(0), Pauli::Z);
        f.apply(CliffordGate::H(0));
        assert_eq!(f.error_on(0), Pauli::X);
        // Y maps to Y.
        f.inject_z(0);
        f.apply(CliffordGate::H(0));
        assert_eq!(f.error_on(0), Pauli::Y);
    }

    #[test]
    fn cnot_propagates_x_forward_and_z_backward() {
        let mut f = PauliFrame::new(2);
        f.inject_x(0);
        f.apply(CliffordGate::Cnot(0, 1));
        assert_eq!(f.error_on(0), Pauli::X);
        assert_eq!(f.error_on(1), Pauli::X);

        let mut g = PauliFrame::new(2);
        g.inject_z(1);
        g.apply(CliffordGate::Cnot(0, 1));
        assert_eq!(g.error_on(0), Pauli::Z);
        assert_eq!(g.error_on(1), Pauli::Z);

        // X on target and Z on control do not propagate.
        let mut h = PauliFrame::new(2);
        h.inject_x(1);
        h.inject_z(0);
        h.apply(CliffordGate::Cnot(0, 1));
        assert_eq!(h.error_on(0), Pauli::Z);
        assert_eq!(h.error_on(1), Pauli::X);
    }

    #[test]
    fn prep_clears_and_measure_flip_tracks_x() {
        let mut f = PauliFrame::new(2);
        f.inject_y(0);
        assert!(f.has_x(0));
        f.apply(CliffordGate::PrepZ(0));
        assert!(!f.has_x(0));
        f.inject_z(1);
        assert!(!f.has_x(1));
    }

    #[test]
    fn mask_parities_match_listed_parities() {
        let mut f = PauliFrame::new(70);
        f.inject_x(2);
        f.inject_x(65);
        f.inject_z(64);
        assert_eq!(f.z_mask_parity(&[0, 1]), f.has_z(64));
    }

    #[test]
    fn bulk_prep_and_hadamard_masks() {
        let mut f = PauliFrame::new(8);
        f.inject_y(0);
        f.inject_x(1);
        f.inject_z(2);
        f.h_mask(&[0b0110]);
        assert_eq!(f.error_on(0), Pauli::Y); // outside mask
        assert_eq!(f.error_on(1), Pauli::Z); // X -> Z
        assert_eq!(f.error_on(2), Pauli::X); // Z -> X
        f.prep_mask(&[0b0011]);
        assert_eq!(f.error_on(0), Pauli::I);
        assert_eq!(f.error_on(1), Pauli::I);
        assert_eq!(f.error_on(2), Pauli::X);
    }

    #[test]
    fn cnot_block_matches_per_qubit_cnots() {
        let mut bulk = PauliFrame::new(14);
        let mut loops = PauliFrame::new(14);
        for f in [&mut bulk, &mut loops] {
            f.inject_x(0);
            f.inject_y(3);
            f.inject_z(8);
            f.inject_z(12);
        }
        bulk.cnot_block(0, 7, 7);
        for q in 0..7 {
            loops.apply(CliffordGate::Cnot(q, 7 + q));
        }
        assert_eq!(bulk, loops);
        // And the reverse direction, across a word boundary for good measure.
        let mut bulk = PauliFrame::new(130);
        let mut loops = PauliFrame::new(130);
        for f in [&mut bulk, &mut loops] {
            f.inject_x(60);
            f.inject_z(70);
            f.inject_y(129);
        }
        bulk.cnot_block(65, 0, 65);
        for q in 0..65 {
            loops.apply(CliffordGate::Cnot(65 + q, q));
        }
        assert_eq!(bulk, loops);
    }

    #[test]
    fn xor_rows_matches_per_qubit_injection() {
        let s = PauliString::from_str_repr("XYZIIXZ");
        let mut a = PauliFrame::new(7);
        let mut b = PauliFrame::new(7);
        for (q, p) in s.iter_support() {
            a.inject(q, p);
        }
        b.xor_rows(s.x_words(), s.z_words());
        assert_eq!(a, b);
    }

    #[test]
    fn windowed_reads_gather_across_words() {
        let mut f = PauliFrame::new(130);
        f.inject_x(60);
        f.inject_x(64);
        f.inject_z(61);
        assert_eq!(f.x_bits_at(60, 7), 0b10001);
        assert_eq!(f.z_bits_at(60, 7), 0b00010);
        assert_eq!(f.x_bits_at(0, 64), 1 << 60);
    }

    #[test]
    fn swap_moves_errors() {
        let mut f = PauliFrame::new(2);
        f.inject_y(0);
        f.apply(CliffordGate::Swap(0, 1));
        assert_eq!(f.error_on(0), Pauli::I);
        assert_eq!(f.error_on(1), Pauli::Y);
    }

    /// The frame must agree with the full tableau simulation: injecting error
    /// E before circuit C and measuring is the same as propagating E through C.
    fn frame_matches_tableau(circuit: &[CliffordGate], error_qubit: usize, error: Pauli, n: usize) {
        // Tableau path: apply error, then circuit, then measure everything.
        let mut sim = StabilizerSimulator::with_seed(n, 7);
        sim.apply_pauli(error_qubit, error);
        for &g in circuit {
            sim.apply(g);
        }
        // Reference (no error) path.
        let mut reference = StabilizerSimulator::with_seed(n, 7);
        for &g in circuit {
            reference.apply(g);
        }
        // Frame path.
        let mut frame = PauliFrame::new(n);
        frame.inject(error_qubit, error);
        for &g in circuit {
            frame.apply(g);
        }
        for q in 0..n {
            // Only compare when the reference outcome is deterministic (the
            // measured difference is then exactly the frame's X component).
            if reference.tableau().is_deterministic(q) {
                let noisy = sim.measure(q);
                let clean = reference.measure(q);
                assert_eq!(noisy ^ clean, frame.has_x(q), "qubit {q} disagreement");
            }
        }
    }

    #[test]
    fn frame_agrees_with_tableau_on_encoding_circuits() {
        // A [[3,1]] bit-flip encoding circuit.
        let circuit = [CliffordGate::Cnot(0, 1), CliffordGate::Cnot(0, 2)];
        for q in 0..3 {
            for p in [Pauli::X, Pauli::Z, Pauli::Y] {
                frame_matches_tableau(&circuit, q, p, 3);
            }
        }
    }

    proptest! {
        #[test]
        fn frame_agrees_with_tableau_on_random_cnot_h_circuits(
            ops in prop::collection::vec((0usize..5, 0usize..5, 0u8..3), 1..30),
            error_qubit in 0usize..5,
            error_kind in 0u8..3,
        ) {
            let mut circuit = Vec::new();
            for (a, b, kind) in ops {
                match kind {
                    0 => circuit.push(CliffordGate::H(a)),
                    1 => circuit.push(CliffordGate::S(a)),
                    _ => {
                        if a != b {
                            circuit.push(CliffordGate::Cnot(a, b));
                        }
                    }
                }
            }
            let error = match error_kind {
                0 => Pauli::X,
                1 => Pauli::Z,
                _ => Pauli::Y,
            };
            frame_matches_tableau(&circuit, error_qubit, error, 5);
        }

        #[test]
        fn packed_frame_matches_the_scalar_reference_frame(
            ops in prop::collection::vec((0u8..13, 0usize..70, 0usize..70), 1..80),
        ) {
            let mut packed = PauliFrame::new(70);
            let mut scalar = crate::reference::ScalarFrame::new(70);
            for (kind, a, b) in ops {
                let gate = match kind {
                    0 => CliffordGate::H(a),
                    1 => CliffordGate::S(a),
                    2 => CliffordGate::Sdg(a),
                    3 => CliffordGate::X(a),
                    4 => CliffordGate::PrepZ(a),
                    5..=7 if a == b => continue,
                    5 => CliffordGate::Cnot(a, b),
                    6 => CliffordGate::Cz(a, b),
                    7 => CliffordGate::Swap(a, b),
                    8 => {
                        packed.inject_x(a);
                        scalar.inject_x(a);
                        continue;
                    }
                    9 => {
                        packed.inject_z(a);
                        scalar.inject_z(a);
                        continue;
                    }
                    _ => {
                        packed.inject_y(a);
                        scalar.inject_y(a);
                        continue;
                    }
                };
                packed.apply(gate);
                scalar.apply(gate);
            }
            for q in 0..70 {
                prop_assert_eq!(packed.has_x(q), scalar.has_x(q), "X on qubit {}", q);
                prop_assert_eq!(packed.has_z(q), scalar.has_z(q), "Z on qubit {}", q);
            }
        }

        #[test]
        fn weight_never_exceeds_qubit_count(
            injections in prop::collection::vec((0usize..16, 0u8..3), 0..64)
        ) {
            let mut f = PauliFrame::new(16);
            for (q, k) in injections {
                match k {
                    0 => f.inject_x(q),
                    1 => f.inject_z(q),
                    _ => f.inject_y(q),
                }
            }
            prop_assert!(f.weight() <= 16);
        }
    }
}
