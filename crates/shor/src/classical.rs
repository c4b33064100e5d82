//! The classical baseline: the general number field sieve (NFS).
//!
//! Section 5 motivates the quantum speed-up with the best known classical
//! factoring algorithm, whose complexity is
//! `exp((1.923 + o(1)) (ln N)^{1/3} (ln ln N)^{2/3})`, and with the
//! experimental record of the time: a 512-bit RSA modulus factored in seven
//! calendar months — about 8400 MIPS-years — on hundreds of workstations.

use serde::{Deserialize, Serialize};

/// The constant in the NFS complexity exponent.
pub const NFS_CONSTANT: f64 = 1.923;

/// The 512-bit RSA factorisation record the paper cites: ≈8400 MIPS-years.
pub const RSA512_MIPS_YEARS: f64 = 8400.0;

/// Relative NFS work factor for factoring an `bits`-bit number (natural
/// logarithm of the operation count, up to the o(1) term).
#[must_use]
pub fn nfs_log_work(bits: usize) -> f64 {
    let ln_n = bits as f64 * std::f64::consts::LN_2;
    NFS_CONSTANT * ln_n.powf(1.0 / 3.0) * ln_n.ln().powf(2.0 / 3.0)
}

/// Estimated classical effort in MIPS-years for an `bits`-bit number, scaled
/// from the 512-bit record.
#[must_use]
pub fn classical_mips_years(bits: usize) -> f64 {
    RSA512_MIPS_YEARS * (nfs_log_work(bits) - nfs_log_work(512)).exp()
}

/// Comparison of the QLA quantum run-time against the classical baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantumClassicalComparison {
    /// Problem size in bits.
    pub bits: usize,
    /// QLA expected run-time in days.
    pub quantum_days: f64,
    /// Classical NFS effort in MIPS-years.
    pub classical_mips_years: f64,
}

impl QuantumClassicalComparison {
    /// Build the comparison for an `bits`-bit number.
    #[must_use]
    pub fn for_bits(bits: usize) -> Self {
        let quantum = crate::resources::ShorEstimator::default().estimate(bits);
        QuantumClassicalComparison {
            bits,
            quantum_days: quantum.days(),
            classical_mips_years: classical_mips_years(bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_512_bit_record_anchors_the_scale() {
        assert!((classical_mips_years(512) - RSA512_MIPS_YEARS).abs() < 1e-6);
    }

    #[test]
    fn classical_work_grows_subexponentially_but_explosively() {
        let small = classical_mips_years(512);
        let big = classical_mips_years(1024);
        let bigger = classical_mips_years(2048);
        assert!(big / small > 1e3, "512->1024 growth {}", big / small);
        assert!(bigger / big > big / small);
    }

    #[test]
    fn quantum_wins_convincingly_at_1024_bits() {
        // The QLA factors a 1024-bit number in ~2 weeks; the classical attack
        // needs millions of MIPS-years.
        let cmp = QuantumClassicalComparison::for_bits(1024);
        assert!(cmp.quantum_days < 30.0);
        assert!(cmp.classical_mips_years > 1e6);
        // Even a million-MIPS classical machine needs far longer than the QLA.
        let classical_days = cmp.classical_mips_years * 365.25 / 1e6;
        assert!(classical_days > cmp.quantum_days * 100.0);
    }

    #[test]
    fn nfs_log_work_is_monotone() {
        assert!(nfs_log_work(256) < nfs_log_work(512));
        assert!(nfs_log_work(512) < nfs_log_work(2048));
    }
}
