//! The fault-tolerant Toffoli gate cost model (Section 5).
//!
//! On the QLA every Toffoli is executed fault-tolerantly on encoded qubits:
//! six additional logical ancilla qubits are prepared (15 timesteps, repeated
//! three times, but overlapped with preceding Toffolis), and the gate itself
//! takes six error-correction cycles to complete. Because one of the three
//! operands usually shares its ancilla with the previous Toffoli, the paper
//! charges each Toffoli approximately 15 + 6 = 21 error-correction steps on
//! the critical path.

use qla_physical::Time;
use qla_qec::EccLatencies;
use serde::{Deserialize, Serialize};

/// Ancilla logical qubits required by the fault-tolerant Toffoli construction.
pub const TOFFOLI_ANCILLA_QUBITS: usize = 6;
/// Error-correction steps spent preparing the Toffoli ancilla.
pub const TOFFOLI_PREP_ECC_STEPS: usize = 15;
/// Error-correction cycles needed to complete the gate after ancilla
/// preparation.
pub const TOFFOLI_FINISH_ECC_STEPS: usize = 6;

/// The critical-path cost of one fault-tolerant Toffoli.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTolerantToffoli {
    /// Error-correction steps charged on the critical path.
    pub ecc_steps: usize,
    /// Logical ancilla qubits consumed.
    pub ancilla_qubits: usize,
}

impl FaultTolerantToffoli {
    /// The paper's cost model: 15 ancilla-preparation steps plus 6 finishing
    /// cycles per Toffoli.
    #[must_use]
    pub fn paper_model() -> Self {
        FaultTolerantToffoli {
            ecc_steps: TOFFOLI_PREP_ECC_STEPS + TOFFOLI_FINISH_ECC_STEPS,
            ancilla_qubits: TOFFOLI_ANCILLA_QUBITS,
        }
    }

    /// Wall-clock latency of one Toffoli at the given error-correction
    /// cadence (level-2 steps).
    #[must_use]
    pub fn latency(&self, ecc: &EccLatencies) -> Time {
        ecc.level2 * self.ecc_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_charges_21_ecc_steps() {
        let t = FaultTolerantToffoli::paper_model();
        assert_eq!(t.ecc_steps, 21);
        assert_eq!(t.ancilla_qubits, 6);
    }

    #[test]
    fn toffoli_latency_is_about_0_9_seconds_at_level_2() {
        // 21 × 0.043 s ≈ 0.9 s per Toffoli on the critical path.
        let t = FaultTolerantToffoli::paper_model();
        let latency = t.latency(&EccLatencies::paper());
        assert!((latency.as_secs() - 0.903).abs() < 1e-9);
    }
}
