//! The CHP tableau checked against a dense state vector.
//!
//! A state vector of `2^n` complex amplitudes (`n ≤ 5`) is the direct,
//! exponential-cost model of the same quantum mechanics the tableau tracks
//! in polynomial time. Random programs over every [`CliffordGate`],
//! interleaved with Z measurements, run through both. Where the tableau
//! draws a random outcome, the state vector projects onto that same
//! outcome, so the two stay in the same state. Every measurement must agree
//! on whether the outcome was determined by the state and, if it was, on
//! its value; at the end every signed stabilizer generator of the tableau
//! must fix the state vector.

use proptest::prelude::*;
use qla_stabilizer::{CliffordGate, Pauli, PauliString, Tableau};

/// Largest register the oracle simulates (32 amplitudes).
const MAX_QUBITS: usize = 5;

/// Amplitudes closer than this are equal; probabilities of stabilizer
/// states are exactly 0, ½ or 1, so any loose tolerance separates them.
const EPS: f64 = 1e-9;

/// A complex amplitude as `(re, im)`.
type Complex = (f64, f64);

fn mul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// `i^k`.
fn i_pow(k: usize) -> Complex {
    [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][k % 4]
}

/// A pure state of `n` qubits; qubit `q` is bit `q` of the basis index.
struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// `|0…0⟩`.
    fn new(n: usize) -> Self {
        let mut amps = vec![(0.0, 0.0); 1 << n];
        amps[0] = (1.0, 0.0);
        StateVector { n, amps }
    }

    /// Apply the 2×2 matrix `[[m00, m01], [m10, m11]]` to qubit `q`.
    fn single(&mut self, q: usize, m: [Complex; 4]) {
        let bit = 1 << q;
        for idx in (0..self.amps.len()).filter(|idx| idx & bit == 0) {
            let (a0, a1) = (self.amps[idx], self.amps[idx | bit]);
            let (b0, b1) = (mul(m[0], a0), mul(m[1], a1));
            let (c0, c1) = (mul(m[2], a0), mul(m[3], a1));
            self.amps[idx] = (b0.0 + b1.0, b0.1 + b1.1);
            self.amps[idx | bit] = (c0.0 + c1.0, c0.1 + c1.1);
        }
    }

    /// Swap the amplitude of every index that has all `set` bits and no
    /// `clear` bits with the amplitude at that index XOR `flip`.
    fn swap_where(&mut self, set: usize, clear: usize, flip: usize) {
        for idx in 0..self.amps.len() {
            if idx & set == set && idx & clear == 0 {
                self.amps.swap(idx, idx ^ flip);
            }
        }
    }

    fn apply(&mut self, gate: CliffordGate) {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let (one, zero) = ((1.0, 0.0), (0.0, 0.0));
        match gate {
            CliffordGate::H(q) => self.single(q, [(h, 0.0), (h, 0.0), (h, 0.0), (-h, 0.0)]),
            CliffordGate::S(q) => self.single(q, [one, zero, zero, i_pow(1)]),
            CliffordGate::Sdg(q) => self.single(q, [one, zero, zero, i_pow(3)]),
            CliffordGate::X(q) => self.single(q, [zero, one, one, zero]),
            CliffordGate::Y(q) => self.single(q, [zero, i_pow(3), i_pow(1), zero]),
            CliffordGate::Z(q) => self.single(q, [one, zero, zero, i_pow(2)]),
            CliffordGate::Cnot(c, t) => self.swap_where(1 << c, 1 << t, 1 << t),
            CliffordGate::Cz(a, b) => {
                let both = (1 << a) | (1 << b);
                for (idx, amp) in self.amps.iter_mut().enumerate() {
                    if idx & both == both {
                        *amp = (-amp.0, -amp.1);
                    }
                }
            }
            CliffordGate::Swap(a, b) => self.swap_where(1 << a, 1 << b, (1 << a) | (1 << b)),
            CliffordGate::PrepZ(_) => unreachable!("PrepZ is a measurement plus a flip"),
        }
    }

    /// Probability of reading 1 on qubit `q`.
    fn prob_one(&self, q: usize) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx >> q & 1 == 1)
            .map(|(_, a)| a.0 * a.0 + a.1 * a.1)
            .sum()
    }

    /// Z-measure qubit `q`: `Some(value)` when the state fixes the outcome,
    /// `None` when both outcomes have weight.
    fn determined(&self, q: usize) -> Option<bool> {
        let p1 = self.prob_one(q);
        if p1 < EPS {
            Some(false)
        } else if p1 > 1.0 - EPS {
            Some(true)
        } else {
            None
        }
    }

    /// Project qubit `q` onto `value` and renormalise.
    ///
    /// # Panics
    /// Panics if `value` has zero probability.
    fn project(&mut self, q: usize, value: bool) {
        let p = if value {
            self.prob_one(q)
        } else {
            1.0 - self.prob_one(q)
        };
        assert!(p > EPS, "projecting qubit {q} onto an impossible outcome");
        let scale = p.sqrt().recip();
        for (idx, amp) in self.amps.iter_mut().enumerate() {
            *amp = if (idx >> q & 1 == 1) == value {
                (amp.0 * scale, amp.1 * scale)
            } else {
                (0.0, 0.0)
            };
        }
    }

    /// True if the signed Pauli string `p` fixes the state: `p|ψ⟩ = |ψ⟩`.
    fn fixed_by(&self, p: &PauliString) -> bool {
        let (mut xmask, mut zmask, mut ys) = (0usize, 0usize, 0usize);
        for (q, pauli) in p.iter_support() {
            let (x, z) = pauli.xz();
            xmask |= usize::from(x) << q;
            zmask |= usize::from(z) << q;
            ys += usize::from(pauli == Pauli::Y);
        }
        // Y = i·X·Z: Z signs the basis state, X moves it, each Y adds an i.
        let phase = i_pow(usize::from(p.phase_exponent()) + ys);
        let mut image = vec![(0.0, 0.0); self.amps.len()];
        for (idx, &amp) in self.amps.iter().enumerate() {
            let sign = if (idx & zmask).count_ones() % 2 == 1 {
                -1.0
            } else {
                1.0
            };
            let c = mul(phase, amp);
            image[idx ^ xmask] = (sign * c.0, sign * c.1);
        }
        image
            .iter()
            .zip(&self.amps)
            .all(|(a, b)| (a.0 - b.0).abs() < EPS && (a.1 - b.1).abs() < EPS)
    }
}

/// Decode one drawn step into a gate on an `n`-qubit register; `None` for
/// a two-qubit gate whose qubits coincide.
fn gate(kind: u8, a: usize, b: usize) -> Option<CliffordGate> {
    Some(match kind {
        0 => CliffordGate::H(a),
        1 => CliffordGate::S(a),
        2 => CliffordGate::Sdg(a),
        3 => CliffordGate::X(a),
        4 => CliffordGate::Y(a),
        5 => CliffordGate::Z(a),
        6 if a != b => CliffordGate::Cnot(a, b),
        7 if a != b => CliffordGate::Cz(a, b),
        8 if a != b => CliffordGate::Swap(a, b),
        9 => CliffordGate::PrepZ(a),
        _ => return None,
    })
}

/// Measure qubit `q` on both models, the state vector following the
/// tableau's random bit, and require the same determinism and value.
fn measure_both(t: &mut Tableau, sv: &mut StateVector, q: usize, random_bit: bool) -> bool {
    let expected = sv.determined(q);
    assert_eq!(
        t.is_deterministic(q),
        expected.is_some(),
        "is_deterministic on qubit {q}"
    );
    let m = t.measure_with(q, random_bit);
    assert_eq!(
        m.deterministic,
        expected.is_some(),
        "determinism flag on qubit {q}"
    );
    match expected {
        Some(value) => assert_eq!(m.value, value, "deterministic outcome on qubit {q}"),
        None => assert_eq!(m.value, random_bit, "random outcome on qubit {q}"),
    }
    sv.project(q, m.value);
    m.value
}

/// Run one drawn step through both models.
fn step_both(t: &mut Tableau, sv: &mut StateVector, kind: u8, a: usize, b: usize, r: bool) {
    let (a, b) = (a % sv.n, b % sv.n);
    match gate(kind, a, b) {
        Some(CliffordGate::PrepZ(q)) => {
            // The tableau resolves the reset's measurement with `r`; the
            // state vector projects the same way and then flips a 1 back.
            let mut probe = t.clone();
            let value = measure_both(&mut probe, sv, q, r);
            t.prepare_z(q, r);
            if value {
                sv.apply(CliffordGate::X(q));
            }
        }
        Some(g) => {
            t.apply(g);
            sv.apply(g);
        }
        None if kind >= 10 => {
            measure_both(t, sv, a, r);
        }
        None => {}
    }
}

/// Every signed stabilizer generator of the tableau fixes the state vector,
/// and its negation does not.
fn assert_stabilizers_fix(t: &Tableau, sv: &StateVector) {
    for s in t.stabilizers() {
        assert!(t.stabilizes(&s), "tableau disowns its generator {s}");
        assert!(sv.fixed_by(&s), "generator {s} does not fix the state");
        let mut negated = s.clone();
        negated.multiply_by(&PauliString::from_str_repr(&format!(
            "-{}",
            "I".repeat(sv.n)
        )));
        assert!(!sv.fixed_by(&negated), "generator -({s}) fixes the state");
    }
}

proptest! {
    #[test]
    fn tableau_matches_the_state_vector_on_random_programs(
        n in 1usize..=MAX_QUBITS,
        ops in prop::collection::vec((0u8..12, 0usize..MAX_QUBITS, 0usize..MAX_QUBITS, 0u8..2), 1..80),
    ) {
        let mut t = Tableau::new(n);
        let mut sv = StateVector::new(n);
        for (kind, a, b, r) in ops {
            step_both(&mut t, &mut sv, kind, a, b, r == 1);
        }
        assert_stabilizers_fix(&t, &sv);
    }

    #[test]
    fn every_qubit_reads_out_like_the_state_vector(
        n in 1usize..=MAX_QUBITS,
        gates in prop::collection::vec((0u8..9, 0usize..MAX_QUBITS, 0usize..MAX_QUBITS), 0..60),
        bits in prop::collection::vec(0u8..2, MAX_QUBITS),
    ) {
        let mut t = Tableau::new(n);
        let mut sv = StateVector::new(n);
        for (kind, a, b) in gates {
            step_both(&mut t, &mut sv, kind, a, b, false);
        }
        assert_stabilizers_fix(&t, &sv);
        // Reading every qubit twice: the second read is always determined
        // and repeats the first.
        let first: Vec<bool> = (0..n)
            .map(|q| measure_both(&mut t, &mut sv, q, bits[q] == 1))
            .collect();
        for (q, value) in first.into_iter().enumerate() {
            prop_assert!(t.is_deterministic(q), "second read of qubit {} is random", q);
            prop_assert_eq!(measure_both(&mut t, &mut sv, q, !value), value);
        }
        assert_stabilizers_fix(&t, &sv);
    }
}

/// The oracle itself: a Bell pair has `XX` and `ZZ` and not `−ZZ`, and its
/// first read is random.
#[test]
fn the_state_vector_models_a_bell_pair() {
    let mut sv = StateVector::new(2);
    sv.apply(CliffordGate::H(0));
    sv.apply(CliffordGate::Cnot(0, 1));
    assert!(sv.fixed_by(&PauliString::from_str_repr("XX")));
    assert!(sv.fixed_by(&PauliString::from_str_repr("ZZ")));
    assert!(sv.fixed_by(&PauliString::from_str_repr("-YY")));
    assert!(!sv.fixed_by(&PauliString::from_str_repr("-ZZ")));
    assert_eq!(sv.determined(0), None);
    sv.project(0, true);
    assert_eq!(sv.determined(1), Some(true));
}
