//! The quantum carry-lookahead adder (QCLA) resource model.
//!
//! The paper uses the logarithmic-depth carry-lookahead adder of Draper,
//! Kutin, Rains and Svore as the addition primitive inside modular
//! exponentiation: "It can perform an n qubit addition with a latency of
//! 4 log₂ n Toffoli gates, 4 CNOT's and 2 NOT's" (Section 5), trading ancilla
//! qubits for depth.

use serde::{Deserialize, Serialize};

/// Resource footprint of one n-bit QCLA addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QclaResources {
    /// Operand width in bits.
    pub bits: usize,
    /// Toffoli depth of the adder (`4·⌈log₂ n⌉`).
    pub toffoli_depth: usize,
    /// CNOT depth.
    pub cnot_depth: usize,
    /// NOT depth.
    pub not_depth: usize,
    /// Total Toffoli gates in the adder body (propagate/generate tree).
    pub toffoli_count: usize,
    /// Ancilla qubits needed by the carry tree.
    pub ancilla_qubits: usize,
}

/// Compute the QCLA resources for an `n`-bit addition.
///
/// # Panics
/// Panics if `n` is zero.
#[must_use]
pub fn qcla(n: usize) -> QclaResources {
    assert!(n > 0, "adder width must be positive");
    let log = (n as f64).log2().ceil() as usize;
    QclaResources {
        bits: n,
        toffoli_depth: 4 * log.max(1),
        cnot_depth: 4,
        not_depth: 2,
        // The carry-lookahead tree touches each bit a constant number of
        // times: ~2n Toffolis for the P/G rounds plus the inverse tree.
        toffoli_count: 4 * n,
        // One ancilla per internal node of the binary carry tree, ~2n.
        ancilla_qubits: 2 * n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_matches_the_paper_formula() {
        assert_eq!(qcla(128).toffoli_depth, 4 * 7);
        assert_eq!(qcla(1024).toffoli_depth, 4 * 10);
        assert_eq!(qcla(2048).toffoli_depth, 4 * 11);
        assert_eq!(qcla(128).cnot_depth, 4);
        assert_eq!(qcla(128).not_depth, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = qcla(0);
    }

    // Exhaustive over the whole domain the original property test sampled.
    #[test]
    fn depth_grows_logarithmically() {
        for n in 2usize..4096 {
            let r = qcla(n);
            assert!(r.toffoli_depth >= 4);
            assert!(r.toffoli_depth <= 4 * 12 + 4);
            assert!(r.ancilla_qubits >= n);
        }
    }
}
