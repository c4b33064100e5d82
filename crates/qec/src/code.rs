//! Generic CSS stabilizer codes.
//!
//! A CSS code is specified by its X-type and Z-type stabilizer generator
//! supports. The QLA uses the Steane \[\[7,1,3\]\] code ([`crate::steane`]), and
//! Figure 4 of the paper illustrates the block structure with a 3-qubit
//! bit-flip code ([`crate::bitflip`]); both are instances of [`CssCode`].

use qla_stabilizer::{Pauli, PauliFrame, PauliString};
use serde::{Deserialize, Serialize};

/// A CSS quantum error-correcting code described by stabilizer supports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CssCode {
    /// Human-readable name, e.g. `"Steane \[\[7,1,3\]\]"`.
    pub name: String,
    /// Number of physical qubits (`n`).
    pub physical_qubits: usize,
    /// Number of logical qubits (`k`); always 1 for the codes used here.
    pub logical_qubits: usize,
    /// Code distance (`d`).
    pub distance: usize,
    /// Supports of the X-type stabilizer generators.
    pub x_stabilizers: Vec<Vec<usize>>,
    /// Supports of the Z-type stabilizer generators.
    pub z_stabilizers: Vec<Vec<usize>>,
    /// Support of the logical X operator.
    pub logical_x: Vec<usize>,
    /// Support of the logical Z operator.
    pub logical_z: Vec<usize>,
}

impl CssCode {
    /// The X-type stabilizer generators as Pauli strings.
    #[must_use]
    pub fn x_stabilizer_strings(&self) -> Vec<PauliString> {
        self.x_stabilizers
            .iter()
            .map(|s| support_to_string(self.physical_qubits, s, Pauli::X))
            .collect()
    }

    /// The Z-type stabilizer generators as Pauli strings.
    #[must_use]
    pub fn z_stabilizer_strings(&self) -> Vec<PauliString> {
        self.z_stabilizers
            .iter()
            .map(|s| support_to_string(self.physical_qubits, s, Pauli::Z))
            .collect()
    }

    /// The logical X operator as a Pauli string.
    #[must_use]
    pub fn logical_x_string(&self) -> PauliString {
        support_to_string(self.physical_qubits, &self.logical_x, Pauli::X)
    }

    /// The logical Z operator as a Pauli string.
    #[must_use]
    pub fn logical_z_string(&self) -> PauliString {
        support_to_string(self.physical_qubits, &self.logical_z, Pauli::Z)
    }

    /// The syndrome revealing **X errors**: the parities of the frame's X
    /// components over each Z-type stabilizer support. `offset` selects which
    /// block of the frame the code words occupy.
    #[must_use]
    pub fn x_error_syndrome(&self, frame: &PauliFrame, offset: usize) -> Vec<bool> {
        self.z_stabilizers
            .iter()
            .map(|s| {
                s.iter()
                    .fold(false, |acc, &q| acc ^ frame.has_x(offset + q))
            })
            .collect()
    }

    /// The syndrome revealing **Z errors**: the parities of the frame's Z
    /// components over each X-type stabilizer support.
    #[must_use]
    pub fn z_error_syndrome(&self, frame: &PauliFrame, offset: usize) -> Vec<bool> {
        self.x_stabilizers
            .iter()
            .map(|s| {
                s.iter()
                    .fold(false, |acc, &q| acc ^ frame.has_z(offset + q))
            })
            .collect()
    }

    /// Decode a syndrome produced by the Z-type stabilizers (an X-error
    /// syndrome) assuming at most one error, returning the qubit to correct,
    /// or `None` for a trivial syndrome.
    ///
    /// Distance-3 CSS codes have a one-to-one map from non-trivial syndromes
    /// to single-qubit errors; an unmatched syndrome (only possible for
    /// multi-qubit errors) decodes to the lowest-index qubit whose column is
    /// closest, which for the perfect-Hamming Steane code never happens.
    #[must_use]
    pub fn decode_single_x_error(&self, syndrome: &[bool]) -> Option<usize> {
        decode_lookup(&self.z_stabilizers, self.physical_qubits, syndrome)
    }

    /// Decode a syndrome produced by the X-type stabilizers (a Z-error
    /// syndrome) assuming at most one error.
    #[must_use]
    pub fn decode_single_z_error(&self, syndrome: &[bool]) -> Option<usize> {
        decode_lookup(&self.x_stabilizers, self.physical_qubits, syndrome)
    }

    /// Whether the X component of the frame (restricted to this code block at
    /// `offset`) commutes with the logical Z operator — i.e. whether a logical
    /// X error is present after perfect decoding.
    #[must_use]
    pub fn has_logical_x_error(&self, frame: &PauliFrame, offset: usize) -> bool {
        // Perfect decode: correct according to the syndrome, then test overlap
        // with logical Z. The correction only matters if it lands on the
        // logical support, so no residual buffer is materialised.
        let syndrome = self.x_error_syndrome(frame, offset);
        let mut parity = self
            .logical_z
            .iter()
            .fold(false, |acc, &q| acc ^ frame.has_x(offset + q));
        if let Some(q) = self.decode_single_x_error(&syndrome) {
            parity ^= self.logical_z.contains(&q);
        }
        parity
    }

    /// Whether a logical Z error is present after perfect decoding.
    #[must_use]
    pub fn has_logical_z_error(&self, frame: &PauliFrame, offset: usize) -> bool {
        let syndrome = self.z_error_syndrome(frame, offset);
        let mut parity = self
            .logical_x
            .iter()
            .fold(false, |acc, &q| acc ^ frame.has_z(offset + q));
        if let Some(q) = self.decode_single_z_error(&syndrome) {
            parity ^= self.logical_x.contains(&q);
        }
        parity
    }

    /// Validate the code's internal consistency: stabilizers mutually commute,
    /// logical operators commute with all stabilizers, and the logical X and Z
    /// anticommute with each other.
    ///
    /// # Panics
    /// Panics (with a description) if any condition fails. Called from tests
    /// and from constructors of the built-in codes.
    pub fn validate(&self) {
        let all_stabs: Vec<PauliString> = self
            .x_stabilizer_strings()
            .into_iter()
            .chain(self.z_stabilizer_strings())
            .collect();
        for (i, a) in all_stabs.iter().enumerate() {
            for b in &all_stabs[i + 1..] {
                assert!(
                    a.commutes_with(b),
                    "{}: stabilizers {a} and {b} anticommute",
                    self.name
                );
            }
        }
        let lx = self.logical_x_string();
        let lz = self.logical_z_string();
        for s in &all_stabs {
            assert!(
                lx.commutes_with(s),
                "{}: logical X anticommutes with {s}",
                self.name
            );
            assert!(
                lz.commutes_with(s),
                "{}: logical Z anticommutes with {s}",
                self.name
            );
        }
        assert!(
            !lx.commutes_with(&lz),
            "{}: logical X and Z must anticommute",
            self.name
        );
    }
}

fn support_to_string(n: usize, support: &[usize], pauli: Pauli) -> PauliString {
    PauliString::from_support(n, support, pauli)
}

/// A bit-mask compilation of a [`CssCode`] over a single ≤ 64-qubit block.
///
/// Stabilizer and logical supports become `u64` masks and the single-error
/// decoders become syndrome-indexed lookup tables of correction masks, so the
/// Monte-Carlo hot path can extract syndromes, decode, and test for logical
/// errors with a handful of AND/XOR/popcount operations on frame windows
/// (see [`qla_stabilizer::PauliFrame::x_bits_at`]) instead of per-qubit
/// boolean loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeMasks {
    /// Number of physical qubits in the block (≤ 64).
    pub n: usize,
    /// Z-type stabilizer supports as bit masks; parities of an X-error window
    /// under these masks form the X-error syndrome, lowest generator first.
    pub z_stabilizer_masks: Vec<u64>,
    /// X-type stabilizer supports as bit masks (Z-error syndrome).
    pub x_stabilizer_masks: Vec<u64>,
    /// Logical X support as a bit mask.
    pub logical_x_mask: u64,
    /// Logical Z support as a bit mask.
    pub logical_z_mask: u64,
    /// Correction mask per X-error syndrome index (bit i of the index = i-th
    /// Z stabilizer's parity); zero where the decoder returns no correction.
    pub x_correction: Vec<u64>,
    /// Correction mask per Z-error syndrome index.
    pub z_correction: Vec<u64>,
}

impl CodeMasks {
    /// Fold a window of error bits into a syndrome index: bit `i` of the
    /// result is the parity of the window under the `i`-th mask.
    #[inline]
    #[must_use]
    pub fn syndrome_index(masks: &[u64], window: u64) -> usize {
        masks.iter().enumerate().fold(0, |acc, (i, &m)| {
            acc | ((((window & m).count_ones() & 1) as usize) << i)
        })
    }

    /// Whether an X-error window carries a logical X error after perfect
    /// single-error decoding. Equivalent to
    /// [`CssCode::has_logical_x_error`] on a frame whose block reads back as
    /// `x_window`.
    #[inline]
    #[must_use]
    pub fn has_logical_x_error(&self, x_window: u64) -> bool {
        let corrected =
            x_window ^ self.x_correction[Self::syndrome_index(&self.z_stabilizer_masks, x_window)];
        (corrected & self.logical_z_mask).count_ones() & 1 == 1
    }

    /// Whether a Z-error window carries a logical Z error after perfect
    /// single-error decoding.
    #[inline]
    #[must_use]
    pub fn has_logical_z_error(&self, z_window: u64) -> bool {
        let corrected =
            z_window ^ self.z_correction[Self::syndrome_index(&self.x_stabilizer_masks, z_window)];
        (corrected & self.logical_x_mask).count_ones() & 1 == 1
    }
}

impl CssCode {
    /// Compile the code into [`CodeMasks`] for word-parallel decoding.
    ///
    /// # Panics
    /// Panics if the code has more than 64 physical qubits (the mask view
    /// covers a single-word block) or more than 16 generators of one type.
    #[must_use]
    pub fn bit_masks(&self) -> CodeMasks {
        assert!(
            self.physical_qubits <= 64,
            "bit-mask view needs the block to fit one word, got {} qubits",
            self.physical_qubits
        );
        assert!(
            self.x_stabilizers.len() <= 16 && self.z_stabilizers.len() <= 16,
            "bit-mask view supports at most 16 generators per type"
        );
        let to_mask = |support: &Vec<usize>| -> u64 {
            support.iter().fold(0u64, |acc, &q| {
                assert!(q < self.physical_qubits, "support qubit {q} out of range");
                acc | (1 << q)
            })
        };
        let z_stabilizer_masks: Vec<u64> = self.z_stabilizers.iter().map(to_mask).collect();
        let x_stabilizer_masks: Vec<u64> = self.x_stabilizers.iter().map(to_mask).collect();
        let lut = |stabilizers: &[Vec<usize>], decode: &dyn Fn(&[bool]) -> Option<usize>| {
            (0..1usize << stabilizers.len())
                .map(|index| {
                    let syndrome: Vec<bool> = (0..stabilizers.len())
                        .map(|i| index >> i & 1 == 1)
                        .collect();
                    decode(&syndrome).map_or(0u64, |q| 1 << q)
                })
                .collect::<Vec<u64>>()
        };
        CodeMasks {
            n: self.physical_qubits,
            x_correction: lut(&self.z_stabilizers, &|s| self.decode_single_x_error(s)),
            z_correction: lut(&self.x_stabilizers, &|s| self.decode_single_z_error(s)),
            z_stabilizer_masks,
            x_stabilizer_masks,
            logical_x_mask: to_mask(&self.logical_x),
            logical_z_mask: to_mask(&self.logical_z),
        }
    }
}

fn decode_lookup(stabilizers: &[Vec<usize>], n: usize, syndrome: &[bool]) -> Option<usize> {
    if syndrome.iter().all(|&b| !b) {
        return None;
    }
    (0..n).find(|&q| {
        stabilizers
            .iter()
            .zip(syndrome)
            .all(|(s, &bit)| s.contains(&q) == bit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steane::steane_code;

    #[test]
    fn lookup_decoder_identifies_each_single_error() {
        let code = steane_code();
        for q in 0..7 {
            let mut frame = PauliFrame::new(7);
            frame.inject_x(q);
            let syndrome = code.x_error_syndrome(&frame, 0);
            assert_eq!(code.decode_single_x_error(&syndrome), Some(q));
            let mut zframe = PauliFrame::new(7);
            zframe.inject_z(q);
            let syndrome = code.z_error_syndrome(&zframe, 0);
            assert_eq!(code.decode_single_z_error(&syndrome), Some(q));
        }
    }

    #[test]
    fn trivial_syndrome_decodes_to_no_correction() {
        let code = steane_code();
        let frame = PauliFrame::new(7);
        let syndrome = code.x_error_syndrome(&frame, 0);
        assert_eq!(code.decode_single_x_error(&syndrome), None);
    }

    #[test]
    fn single_errors_never_become_logical_errors() {
        let code = steane_code();
        for q in 0..7 {
            let mut frame = PauliFrame::new(7);
            frame.inject_x(q);
            assert!(!code.has_logical_x_error(&frame, 0), "X on {q}");
            let mut zf = PauliFrame::new(7);
            zf.inject_z(q);
            assert!(!code.has_logical_z_error(&zf, 0), "Z on {q}");
            let mut yf = PauliFrame::new(7);
            yf.inject_y(q);
            assert!(!code.has_logical_x_error(&yf, 0));
            assert!(!code.has_logical_z_error(&yf, 0));
        }
    }

    #[test]
    fn logical_operator_is_a_logical_error() {
        let code = steane_code();
        let mut frame = PauliFrame::new(7);
        for &q in &code.logical_x.clone() {
            frame.inject_x(q);
        }
        assert!(code.has_logical_x_error(&frame, 0));
    }

    #[test]
    fn bit_masks_agree_with_list_decoding_on_every_window() {
        let code = steane_code();
        let masks = code.bit_masks();
        for window in 0u64..128 {
            let mut frame = PauliFrame::new(7);
            let mut zframe = PauliFrame::new(7);
            for q in 0..7 {
                if window >> q & 1 == 1 {
                    frame.inject_x(q);
                    zframe.inject_z(q);
                }
            }
            assert_eq!(
                masks.has_logical_x_error(window),
                code.has_logical_x_error(&frame, 0),
                "x window {window:#09b}"
            );
            assert_eq!(
                masks.has_logical_z_error(window),
                code.has_logical_z_error(&zframe, 0),
                "z window {window:#09b}"
            );
            let syndrome = code.x_error_syndrome(&frame, 0);
            let index = CodeMasks::syndrome_index(&masks.z_stabilizer_masks, window);
            for (i, &bit) in syndrome.iter().enumerate() {
                assert_eq!(
                    index >> i & 1 == 1,
                    bit,
                    "syndrome bit {i} of {window:#09b}"
                );
            }
        }
    }

    #[test]
    fn bit_masks_handle_codes_without_x_stabilizers() {
        let code = crate::bitflip::bitflip_code();
        let masks = code.bit_masks();
        assert!(masks.x_stabilizer_masks.is_empty());
        assert_eq!(masks.z_correction, vec![0]);
        for window in 0u64..8 {
            let mut frame = PauliFrame::new(3);
            let mut zframe = PauliFrame::new(3);
            for q in 0..3 {
                if window >> q & 1 == 1 {
                    frame.inject_x(q);
                    zframe.inject_z(q);
                }
            }
            assert_eq!(
                masks.has_logical_x_error(window),
                code.has_logical_x_error(&frame, 0)
            );
            assert_eq!(
                masks.has_logical_z_error(window),
                code.has_logical_z_error(&zframe, 0)
            );
        }
    }

    #[test]
    fn offsets_address_different_blocks() {
        let code = steane_code();
        let mut frame = PauliFrame::new(14);
        frame.inject_x(7 + 3);
        // Block 0 is clean, block 1 carries the error.
        assert!(code.x_error_syndrome(&frame, 0).iter().all(|&b| !b));
        assert!(code.x_error_syndrome(&frame, 7).iter().any(|&b| b));
    }
}
