//! The Pauli group: single-qubit Paulis and bit-packed n-qubit Pauli strings.
//!
//! Pauli strings are the language of stabilizer codes: the Steane \[\[7,1,3\]\]
//! code in `qla-qec` is defined by six Pauli-string generators, syndromes are
//! commutation patterns against those generators, and errors injected by the
//! noise model are themselves Pauli strings.
//!
//! # Bit-plane layout
//!
//! A [`PauliString`] stores its symplectic representation as two packed bit
//! planes — `xs` and `zs`, one bit per qubit, 64 qubits per `u64` word — plus
//! a global phase exponent. Qubit `q` lives at bit `q % 64` of word `q / 64`,
//! and the unused tail bits of the last word are always zero, so equality and
//! hashing are word-wise. All group operations (products, commutation,
//! weight) run word-parallel: 64 qubits per machine operation, with phases
//! accumulated by the standard popcount trick rather than per-qubit matching.
//!
//! The bulk interface — [`PauliString::from_support`], word views via
//! [`PauliString::x_words`]/[`PauliString::z_words`], and set-bit iteration
//! via [`PauliString::iter_support`] — replaces the per-element `set` loops
//! the old API encouraged; strings are built whole, not bit by bit.

use serde::{Deserialize, Serialize};

/// Number of qubit slots per storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `n` bits.
#[must_use]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// Mask selecting the valid (low) bits of the final word for `n` bits, or
/// all-ones when `n` is a multiple of the word size.
#[must_use]
pub(crate) fn tail_mask(n: usize) -> u64 {
    if n.is_multiple_of(WORD_BITS) {
        u64::MAX
    } else {
        (1u64 << (n % WORD_BITS)) - 1
    }
}

/// A single-qubit Pauli operator (ignoring global phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Pauli {
    /// Identity.
    #[default]
    I,
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// The (x, z) symplectic representation of this Pauli.
    #[must_use]
    pub fn xz(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Build a Pauli from its symplectic (x, z) representation.
    #[must_use]
    pub fn from_xz(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// True if the two Paulis commute.
    #[must_use]
    pub fn commutes_with(self, other: Pauli) -> bool {
        let (x1, z1) = self.xz();
        let (x2, z2) = other.xz();
        // Symplectic product: they anticommute iff x1·z2 + z1·x2 is odd.
        (x1 && z2) == (z1 && x2)
    }
}

impl core::fmt::Display for Pauli {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// An n-qubit Pauli string with a global phase of `i^phase`, stored as
/// packed X/Z bit planes (64 qubits per `u64` word).
///
/// Multiplication tracks the phase exactly (mod 4), so products of Hermitian
/// strings correctly come out as `+P` or `−P`; the `±i` intermediate phases
/// only appear transiently inside products. Phase exponents of products are
/// accumulated word-parallel: per word, masks of the `+i` and `−i` qubit
/// positions are built from the symplectic bits and popcounted.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PauliString {
    n: usize,
    xs: Vec<u64>,
    zs: Vec<u64>,
    /// Global phase exponent: the operator is `i^phase · P`.
    phase: u8,
}

impl PauliString {
    /// The identity string on `n` qubits.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let words = words_for(n);
        PauliString {
            n,
            xs: vec![0; words],
            zs: vec![0; words],
            phase: 0,
        }
    }

    /// Build a string directly from packed X/Z bit planes.
    ///
    /// This is the bulk constructor underlying tableau row extraction and
    /// frame snapshots: callers that already hold packed words hand them over
    /// whole instead of looping `set`. Tail bits beyond `n` are cleared so
    /// equality and hashing stay canonical.
    ///
    /// # Panics
    /// Panics if the word vectors don't hold exactly `n.div_ceil(64)` words.
    #[must_use]
    pub fn from_words(n: usize, mut xs: Vec<u64>, mut zs: Vec<u64>, phase: u8) -> Self {
        let words = words_for(n);
        assert_eq!(xs.len(), words, "x word count mismatch for {n} qubits");
        assert_eq!(zs.len(), words, "z word count mismatch for {n} qubits");
        if let Some(last) = xs.last_mut() {
            *last &= tail_mask(n);
        }
        if let Some(last) = zs.last_mut() {
            *last &= tail_mask(n);
        }
        PauliString {
            n,
            xs,
            zs,
            phase: phase % 4,
        }
    }

    /// Build a string carrying Pauli `p` on every qubit in `support`.
    ///
    /// This is the bulk replacement for the `identity` + `set`-loop idiom:
    /// stabilizer generators and logical operators are defined by supports,
    /// and this packs them in one pass.
    ///
    /// # Panics
    /// Panics if any support qubit is out of range.
    #[must_use]
    pub fn from_support(n: usize, support: &[usize], p: Pauli) -> Self {
        let (x, z) = p.xz();
        let mut s = PauliString::identity(n);
        for &q in support {
            assert!(q < n, "support qubit {q} out of range for {n} qubits");
            let (w, m) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
            if x {
                s.xs[w] |= m;
            }
            if z {
                s.zs[w] |= m;
            }
        }
        s
    }

    /// Parse a string such as `"XIZZY"` or `"-XIZZY"`.
    ///
    /// # Panics
    /// Panics if a character other than `I`, `X`, `Y`, `Z` (or a leading `-`
    /// or `+`) is present.
    #[must_use]
    pub fn from_str_repr(s: &str) -> Self {
        let (negative, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        let n = body.chars().count();
        let mut out = PauliString::identity(n);
        out.phase = if negative { 2 } else { 0 };
        for (q, c) in body.chars().enumerate() {
            let p = match c {
                'I' | 'i' => Pauli::I,
                'X' | 'x' => Pauli::X,
                'Y' | 'y' => Pauli::Y,
                'Z' | 'z' => Pauli::Z,
                other => panic!("invalid Pauli character {other:?} in {s:?}"),
            };
            let (x, z) = p.xz();
            let (w, m) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
            if x {
                out.xs[w] |= m;
            }
            if z {
                out.zs[w] |= m;
            }
        }
        out
    }

    /// Embed this string into a larger register at `offset`: qubit `q` of
    /// `self` lands on qubit `offset + q`, everything else is identity.
    ///
    /// # Panics
    /// Panics if `offset + self.len()` exceeds `n`.
    #[must_use]
    pub fn embed(&self, n: usize, offset: usize) -> Self {
        assert!(
            offset + self.n <= n,
            "cannot embed {} qubits at offset {offset} into {n} qubits",
            self.n
        );
        let words = words_for(n);
        let mut xs = vec![0u64; words];
        let mut zs = vec![0u64; words];
        blit(&mut xs, &self.xs, offset, self.n);
        blit(&mut zs, &self.zs, offset, self.n);
        PauliString {
            n,
            xs,
            zs,
            phase: self.phase,
        }
    }

    /// Number of qubits the string acts on.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the string acts on zero qubits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The Pauli acting on qubit `q`.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn get(&self, q: usize) -> Pauli {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
        let (w, m) = (q / WORD_BITS, 1u64 << (q % WORD_BITS));
        Pauli::from_xz(self.xs[w] & m != 0, self.zs[w] & m != 0)
    }

    /// The packed X bit plane (qubit `q` at bit `q % 64` of word `q / 64`).
    #[must_use]
    pub fn x_words(&self) -> &[u64] {
        &self.xs
    }

    /// The packed Z bit plane (qubit `q` at bit `q % 64` of word `q / 64`).
    #[must_use]
    pub fn z_words(&self) -> &[u64] {
        &self.zs
    }

    /// Iterate the support: `(qubit, Pauli)` for every non-identity factor,
    /// in qubit order. Walks set bits word-at-a-time, so iteration cost
    /// scales with the weight, not the length.
    pub fn iter_support(&self) -> impl Iterator<Item = (usize, Pauli)> + '_ {
        self.xs
            .iter()
            .zip(&self.zs)
            .enumerate()
            .flat_map(|(w, (&xw, &zw))| {
                let mut rest = xw | zw;
                core::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let m = 1u64 << bit;
                    Some((
                        w * WORD_BITS + bit,
                        Pauli::from_xz(xw & m != 0, zw & m != 0),
                    ))
                })
            })
    }

    /// The global phase exponent `k` such that the operator is `i^k · P`.
    #[must_use]
    pub fn phase_exponent(&self) -> u8 {
        self.phase
    }

    /// Number of non-identity tensor factors.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.xs
            .iter()
            .zip(&self.zs)
            .map(|(&x, &z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// True if this string is the identity (any sign).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.xs.iter().all(|&w| w == 0) && self.zs.iter().all(|&w| w == 0)
    }

    /// True if the two strings commute.
    ///
    /// The symplectic product is taken 64 qubits at a time: each word
    /// contributes `popcount((x1 & z2) ^ (z1 & x2))` anticommuting positions.
    ///
    /// # Panics
    /// Panics if the strings have different lengths.
    #[must_use]
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.n, other.n, "Pauli string length mismatch");
        let mut anticommutations = 0u32;
        for w in 0..self.xs.len() {
            anticommutations +=
                ((self.xs[w] & other.zs[w]) ^ (self.zs[w] & other.xs[w])).count_ones();
        }
        anticommutations.is_multiple_of(2)
    }

    /// Multiply by another string in place (`self ← self · other`), tracking
    /// the global phase exactly modulo 4.
    ///
    /// Word-parallel: per word, the qubit positions contributing `+i` and
    /// `−i` to the product phase are built as masks from the symplectic bits
    /// and popcounted, then the bit planes are XORed.
    ///
    /// # Panics
    /// Panics if the strings have different lengths.
    pub fn multiply_by(&mut self, other: &PauliString) {
        assert_eq!(self.n, other.n, "Pauli string length mismatch");
        let mut plus = 0u32;
        let mut minus = 0u32;
        for w in 0..self.xs.len() {
            let (p, m) = product_phase_masks(self.xs[w], self.zs[w], other.xs[w], other.zs[w]);
            plus += p.count_ones();
            minus += m.count_ones();
            self.xs[w] ^= other.xs[w];
            self.zs[w] ^= other.zs[w];
        }
        let exponent =
            i64::from(self.phase) + i64::from(other.phase) + i64::from(plus) - i64::from(minus);
        self.phase = exponent.rem_euclid(4) as u8;
    }

    /// Build a weight-1 string with Pauli `p` on qubit `q` of `n`.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn single(n: usize, q: usize, p: Pauli) -> Self {
        PauliString::from_support(n, &[q], p)
    }
}

/// Copy `len` bits of packed `src` into `dst` starting at bit `offset`.
fn blit(dst: &mut [u64], src: &[u64], offset: usize, len: usize) {
    if len == 0 {
        return;
    }
    let shift = offset % WORD_BITS;
    let base = offset / WORD_BITS;
    for (i, &word) in src.iter().enumerate() {
        dst[base + i] |= word << shift;
        if shift != 0 {
            let carry = word >> (WORD_BITS - shift);
            if carry != 0 {
                dst[base + i + 1] |= carry;
            }
        }
    }
}

/// Per-word masks of the qubit positions where multiplying the Pauli
/// `(x1, z1)` by `(x2, z2)` contributes `+i` (first mask) or `−i` (second).
///
/// This is the word-parallel form of the single-qubit product-phase table:
/// `X·Y`, `Y·Z`, `Z·X` give `+i`; the reversed orders give `−i`; equal or
/// identity factors give no phase.
#[inline]
pub(crate) fn product_phase_masks(x1: u64, z1: u64, x2: u64, z2: u64) -> (u64, u64) {
    let plus = (x1 & !z1 & x2 & z2) | (x1 & z1 & !x2 & z2) | (!x1 & z1 & x2 & !z2);
    let minus = (x1 & z1 & x2 & !z2) | (!x1 & z1 & x2 & z2) | (x1 & !z1 & !x2 & z2);
    (plus, minus)
}

/// The phase exponent `k` (power of `i`) arising when multiplying two
/// single-qubit Paulis `a · b = i^k · c`.
#[cfg(test)]
fn pauli_product_phase(a: Pauli, b: Pauli) -> u8 {
    use Pauli::*;
    match (a, b) {
        (I, _) | (_, I) => 0,
        (X, X) | (Y, Y) | (Z, Z) => 0,
        (X, Y) | (Y, Z) | (Z, X) => 1,
        (Y, X) | (Z, Y) | (X, Z) => 3,
    }
}

impl core::fmt::Display for PauliString {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.phase {
            1 => write!(f, "i")?,
            2 => write!(f, "-")?,
            3 => write!(f, "-i")?,
            _ => {}
        }
        for q in 0..self.len() {
            write!(f, "{}", self.get(q))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_pauli_commutation_table() {
        use Pauli::*;
        assert!(I.commutes_with(X));
        assert!(X.commutes_with(X));
        assert!(!X.commutes_with(Z));
        assert!(!X.commutes_with(Y));
        assert!(!Y.commutes_with(Z));
        assert!(Z.commutes_with(Z));
    }

    #[test]
    fn product_phase_masks_match_single_qubit_table() {
        use Pauli::*;
        for a in [I, X, Y, Z] {
            for b in [I, X, Y, Z] {
                let (x1, z1) = a.xz();
                let (x2, z2) = b.xz();
                let (plus, minus) = product_phase_masks(x1 as u64, z1 as u64, x2 as u64, z2 as u64);
                let k = match (plus & 1, minus & 1) {
                    (0, 0) => 0,
                    (1, 0) => 1,
                    (0, 1) => 3,
                    _ => unreachable!("a position cannot be both +i and -i"),
                };
                assert_eq!(k, pauli_product_phase(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = PauliString::from_str_repr("XIZZY");
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(0), Pauli::X);
        assert_eq!(s.get(1), Pauli::I);
        assert_eq!(s.get(4), Pauli::Y);
        assert_eq!(format!("{s}"), "XIZZY");
        let neg = PauliString::from_str_repr("-ZZ");
        assert_eq!(neg.phase_exponent(), 2);
        assert_eq!(format!("{neg}"), "-ZZ");
    }

    #[test]
    fn weight_counts_non_identity_factors() {
        assert_eq!(PauliString::from_str_repr("IIII").weight(), 0);
        assert_eq!(PauliString::from_str_repr("XIYZ").weight(), 3);
        assert!(PauliString::identity(4).is_identity());
    }

    #[test]
    fn from_support_packs_whole_generators() {
        let s = PauliString::from_support(7, &[3, 4, 5, 6], Pauli::X);
        assert_eq!(format!("{s}"), "IIIXXXX");
        let z = PauliString::from_support(7, &[0, 2, 4, 6], Pauli::Z);
        assert_eq!(format!("{z}"), "ZIZIZIZ");
        let y = PauliString::from_support(3, &[1], Pauli::Y);
        assert_eq!(format!("{y}"), "IYI");
    }

    #[test]
    fn embed_places_string_at_offset() {
        let zl = PauliString::from_support(7, &[0, 1, 2], Pauli::Z);
        let embedded = zl.embed(14, 7);
        assert_eq!(format!("{embedded}"), "IIIIIIIZZZIIII");
        assert_eq!(embedded.len(), 14);
    }

    #[test]
    fn embed_across_word_boundaries() {
        let s = PauliString::from_support(64, &[0, 63], Pauli::X);
        let embedded = s.embed(130, 60);
        assert_eq!(embedded.get(60), Pauli::X);
        assert_eq!(embedded.get(123), Pauli::X);
        assert_eq!(embedded.weight(), 2);
    }

    #[test]
    fn iter_support_walks_set_bits_in_order() {
        let s = PauliString::from_str_repr("XIYZ");
        let support: Vec<_> = s.iter_support().collect();
        assert_eq!(support, vec![(0, Pauli::X), (2, Pauli::Y), (3, Pauli::Z)]);
        assert_eq!(PauliString::identity(130).iter_support().count(), 0);
    }

    #[test]
    fn word_views_expose_the_packed_planes() {
        let s = PauliString::from_support(130, &[0, 64, 129], Pauli::Y);
        assert_eq!(s.x_words(), &[1, 1, 2]);
        assert_eq!(s.z_words(), &[1, 1, 2]);
    }

    #[test]
    fn from_words_masks_tail_bits() {
        let a = PauliString::from_words(3, vec![u64::MAX], vec![0], 0);
        let b = PauliString::from_words(3, vec![0b111], vec![0], 0);
        assert_eq!(a, b);
        assert_eq!(a.weight(), 3);
    }

    #[test]
    fn steane_stabilizers_commute() {
        // The six generators of the Steane [[7,1,3]] code.
        let gens = [
            "IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ",
        ];
        for a in &gens {
            for b in &gens {
                let pa = PauliString::from_str_repr(a);
                let pb = PauliString::from_str_repr(b);
                assert!(pa.commutes_with(&pb), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn anticommutation_of_overlapping_x_and_z() {
        let x = PauliString::from_str_repr("XII");
        let z = PauliString::from_str_repr("ZII");
        assert!(!x.commutes_with(&z));
        let zz = PauliString::from_str_repr("ZZI");
        let xx = PauliString::from_str_repr("XXI");
        assert!(zz.commutes_with(&xx));
    }

    #[test]
    fn multiplication_is_componentwise_xor() {
        let mut a = PauliString::from_str_repr("XXI");
        let b = PauliString::from_str_repr("IXZ");
        a.multiply_by(&b);
        assert_eq!(format!("{a}"), "XIZ");
    }

    #[test]
    fn multiplication_tracks_phase_across_word_boundaries() {
        // X·Y = iZ on every qubit: 65 qubits straddle the first word edge,
        // and the accumulated phase is i^65 = i.
        let x = PauliString::from_support(65, &(0..65).collect::<Vec<_>>(), Pauli::X);
        let y = PauliString::from_support(65, &(0..65).collect::<Vec<_>>(), Pauli::Y);
        let mut prod = x.clone();
        prod.multiply_by(&y);
        assert_eq!(prod.phase_exponent(), 1);
        assert!((0..65).all(|q| prod.get(q) == Pauli::Z));

        // Y·X = −iZ per qubit; 64 of them give phase (−i)^64 = 1.
        let x64 = PauliString::from_support(64, &(0..64).collect::<Vec<_>>(), Pauli::X);
        let y64 = PauliString::from_support(64, &(0..64).collect::<Vec<_>>(), Pauli::Y);
        let mut prod = y64.clone();
        prod.multiply_by(&x64);
        assert_eq!(prod.phase_exponent(), 0);
    }

    #[test]
    fn single_builder() {
        let s = PauliString::single(4, 2, Pauli::Z);
        assert_eq!(format!("{s}"), "IIZI");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn commutation_requires_equal_length() {
        let a = PauliString::identity(2);
        let b = PauliString::identity(3);
        let _ = a.commutes_with(&b);
    }

    fn arb_pauli_string(n: usize) -> impl Strategy<Value = PauliString> {
        prop::collection::vec(0u8..4, n).prop_map(move |v| {
            let body: String = v
                .iter()
                .map(|p| match p {
                    0 => 'I',
                    1 => 'X',
                    2 => 'Y',
                    _ => 'Z',
                })
                .collect();
            PauliString::from_str_repr(&body)
        })
    }

    proptest! {
        #[test]
        fn commutation_is_symmetric(a in arb_pauli_string(8), b in arb_pauli_string(8)) {
            prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
        }

        #[test]
        fn self_multiplication_gives_identity(a in arb_pauli_string(8)) {
            let mut c = a.clone();
            c.multiply_by(&a);
            prop_assert!(c.is_identity());
        }

        #[test]
        fn everything_commutes_with_itself(a in arb_pauli_string(10)) {
            prop_assert!(a.commutes_with(&a));
        }

        #[test]
        fn weight_bounded_by_length(a in arb_pauli_string(12)) {
            prop_assert!(a.weight() <= a.len());
        }

        #[test]
        fn packed_product_phase_matches_per_qubit_reference(
            a in arb_pauli_string(67),
            b in arb_pauli_string(67),
        ) {
            let mut reference_phase = 0u8;
            for q in 0..67 {
                reference_phase = (reference_phase
                    + super::pauli_product_phase(a.get(q), b.get(q))) % 4;
            }
            let mut prod = a.clone();
            prod.multiply_by(&b);
            prop_assert_eq!(
                prod.phase_exponent(),
                (reference_phase + a.phase_exponent() + b.phase_exponent()) % 4
            );
        }
    }
}
