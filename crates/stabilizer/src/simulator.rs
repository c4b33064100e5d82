//! A convenience wrapper tying the tableau to a seeded RNG.
//!
//! [`StabilizerSimulator`] is the object the ARQ layer drives: it accepts
//! Clifford gates and resolves random measurement outcomes (and the random
//! bit of a `PrepZ` reset) with a reproducible RNG. Simulation is ideal;
//! the Figure 7 Monte Carlo draws its faults separately and propagates them
//! through a [`PauliFrame`](crate::PauliFrame).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pauli::{Pauli, PauliString};
use crate::tableau::{CliffordGate, Tableau};

/// A stabilizer-state simulator with a reproducible RNG.
#[derive(Debug, Clone)]
pub struct StabilizerSimulator {
    tableau: Tableau,
    rng: ChaCha8Rng,
}

impl StabilizerSimulator {
    /// Create a simulator for `n` qubits with the given RNG seed.
    #[must_use]
    pub fn with_seed(n: usize, seed: u64) -> Self {
        StabilizerSimulator {
            tableau: Tableau::new(n),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.tableau.num_qubits()
    }

    /// Access the underlying tableau (read-only).
    #[must_use]
    pub fn tableau(&self) -> &Tableau {
        &self.tableau
    }

    /// Apply a Clifford gate.
    pub fn apply(&mut self, gate: CliffordGate) {
        match gate {
            CliffordGate::PrepZ(q) => {
                let bit = self.rng.random::<bool>();
                self.tableau.prepare_z(q, bit);
            }
            other => self.tableau.apply(other),
        }
    }

    /// Apply a bare Pauli to one qubit.
    pub fn apply_pauli(&mut self, q: usize, p: Pauli) {
        match p {
            Pauli::I => {}
            Pauli::X => self.tableau.pauli_x(q),
            Pauli::Y => self.tableau.pauli_y(q),
            Pauli::Z => self.tableau.pauli_z(q),
        }
    }

    /// Apply a Pauli string (e.g. an injected error pattern).
    pub fn apply_pauli_string(&mut self, p: &PauliString) {
        self.tableau.apply_pauli_string(p);
    }

    /// Measure a qubit in the Z basis.
    pub fn measure(&mut self, q: usize) -> bool {
        let random_bit = self.rng.random::<bool>();
        self.tableau.measure_with(q, random_bit).value
    }

    /// True if the given Pauli string stabilizes the current state.
    #[must_use]
    pub fn stabilizes(&self, p: &PauliString) -> bool {
        self.tableau.stabilizes(p)
    }

    /// Direct access to the RNG, for callers that need correlated randomness.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_bell_pair_is_correlated() {
        for seed in 0..20 {
            let mut sim = StabilizerSimulator::with_seed(2, seed);
            sim.apply(CliffordGate::H(0));
            sim.apply(CliffordGate::Cnot(0, 1));
            assert_eq!(sim.measure(0), sim.measure(1));
        }
    }

    #[test]
    fn ghz_chain_fully_correlated_across_seeds() {
        for seed in 0..10 {
            let n = 8;
            let mut sim = StabilizerSimulator::with_seed(n, seed);
            sim.apply(CliffordGate::H(0));
            for q in 0..n - 1 {
                sim.apply(CliffordGate::Cnot(q, q + 1));
            }
            let first = sim.measure(0);
            for q in 1..n {
                assert_eq!(sim.measure(q), first);
            }
        }
    }

    #[test]
    fn prep_z_resets_qubits() {
        let mut sim = StabilizerSimulator::with_seed(1, 7);
        sim.apply(CliffordGate::H(0));
        sim.apply(CliffordGate::PrepZ(0));
        assert!(!sim.measure(0));
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        // Random outcomes (four |+> measurements, each after a PrepZ reset
        // that draws its own bit) depend only on the seed.
        let run = |seed| {
            let mut sim = StabilizerSimulator::with_seed(4, seed);
            let mut bits = Vec::new();
            for q in 0..4 {
                sim.apply(CliffordGate::PrepZ(q));
                sim.apply(CliffordGate::H(q));
            }
            for q in 0..4 {
                bits.push(sim.measure(q));
            }
            bits
        };
        assert_eq!(run(99), run(99));
        let outcomes: std::collections::BTreeSet<Vec<bool>> = (0..16).map(run).collect();
        assert!(outcomes.len() > 1, "measurements ignore the seed");
    }
}
