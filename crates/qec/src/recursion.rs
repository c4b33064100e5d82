//! Recursive (concatenated) encoding.
//!
//! The QLA achieves arbitrary reliability by concatenating the Steane code
//! with itself: a level-L logical qubit is built from 7 level-(L−1) logical
//! qubits, so the failure probability of an encoded operation scales as
//! `p^(2^L)` while the physical resources scale as `7^L` (times the ancilla
//! overhead of the QLA block structure). This module captures the resource
//! side of that trade-off; the reliability side lives in
//! [`crate::threshold`].

use serde::{Deserialize, Serialize};

/// Number of data ions in one level-1 QLA block (one Steane code block).
pub const LEVEL1_DATA_IONS: usize = 7;
/// Ancilla ions attached to each level-1 block for syndrome extraction.
pub const LEVEL1_ANCILLA_IONS: usize = 7;
/// Verification ions used while preparing the level-1 ancilla block.
pub const LEVEL1_VERIFICATION_IONS: usize = 7;

/// Ions in a complete level-1 QLA block (data + ancilla + verification), not
/// counting sympathetic-cooling ions. Section 4.1: "the level 1 qubit ...
/// uses 7 ions as data and 7 ions as ancilla, the other 7 are used as
/// verification bits of the encoding."
pub const LEVEL1_BLOCK_IONS: usize =
    LEVEL1_DATA_IONS + LEVEL1_ANCILLA_IONS + LEVEL1_VERIFICATION_IONS;

/// A concatenated Steane code at a given recursion level, together with the
/// QLA ancilla-block structure of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConcatenatedSteane {
    /// Recursion level `L ≥ 1`.
    pub level: u32,
}

impl ConcatenatedSteane {
    /// A concatenated code at level `level`.
    ///
    /// # Panics
    /// Panics if `level` is zero (level 0 is a bare physical qubit).
    #[must_use]
    pub fn new(level: u32) -> Self {
        assert!(level >= 1, "recursion level must be at least 1");
        ConcatenatedSteane { level }
    }

    /// The QLA design point: level-2 recursion (Section 4.1.2 argues this is
    /// sufficient for Shor-1024 and beyond).
    #[must_use]
    pub fn qla_default() -> Self {
        ConcatenatedSteane::new(2)
    }

    /// Number of *data* physical qubits under one logical qubit: `7^L`.
    #[must_use]
    pub fn data_qubits(&self) -> u64 {
        7u64.pow(self.level)
    }

    /// Number of level-1 blocks making up one logical qubit including the QLA
    /// ancilla structure of Figure 5.
    ///
    /// * Level 1: one data block plus two ancilla blocks = 3 blocks.
    /// * Level 2: seven groups of (data + 2 ancilla) level-1 blocks for the
    ///   data conglomeration, plus two identical level-2 ancilla
    ///   conglomerations on the sides = 3 × 21 = 63 blocks.
    /// * Level L: `3^L · 7^(L-1)` blocks by the same recursive construction.
    #[must_use]
    pub fn level1_blocks(&self) -> u64 {
        3u64.pow(self.level) * 7u64.pow(self.level - 1)
    }

    /// Total ion sites (data + ancilla + verification, excluding cooling
    /// ions) in one logical qubit.
    #[must_use]
    pub fn total_ions(&self) -> u64 {
        self.level1_blocks() * LEVEL1_BLOCK_IONS as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_ion_counts_match_section_4_1() {
        assert_eq!(LEVEL1_BLOCK_IONS, 21);
        let l1 = ConcatenatedSteane::new(1);
        assert_eq!(l1.data_qubits(), 7);
        assert_eq!(l1.level1_blocks(), 3);
        assert_eq!(l1.total_ions(), 63);
    }

    #[test]
    fn level2_structure_matches_figure_5() {
        let l2 = ConcatenatedSteane::qla_default();
        assert_eq!(l2.level, 2);
        assert_eq!(l2.data_qubits(), 49);
        // 7 groups of 3 blocks for the data, plus two identical ancilla
        // conglomerations: 63 level-1 blocks.
        assert_eq!(l2.level1_blocks(), 63);
        assert_eq!(l2.total_ions(), 63 * 21);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn level_zero_rejected() {
        let _ = ConcatenatedSteane::new(0);
    }

    proptest! {
        #[test]
        fn resources_grow_geometrically(level in 1u32..6) {
            let a = ConcatenatedSteane::new(level);
            let b = ConcatenatedSteane::new(level + 1);
            prop_assert_eq!(b.data_qubits(), a.data_qubits() * 7);
            prop_assert_eq!(b.level1_blocks(), a.level1_blocks() * 21);
        }
    }
}
