//! Trace generators: real programs from `qla-shor`'s resource models and
//! seeded random Clifford+T streams.
//!
//! The QCLA and modexp generators are built so that ASAP hazard analysis
//! of the emitted stream reproduces the published resource shape *exactly*:
//! a [`qcla_adder`] trace carries `4n` Toffolis across `4·⌈log₂ n⌉`
//! Toffoli-bearing dependency levels, matching
//! [`qla_shor::qcla()`]'s `toffoli_count` and `toffoli_depth`, with the
//! `cnot_depth`/`not_depth` Clifford passes ahead of them. The streams
//! are emitted gate-by-gate (not level-by-level) precisely so the replay
//! layer has to *recover* the parallelism from qubit hazards — which is
//! the point of the subsystem.

use crate::format::{QubitId, Trace, TraceBuilder};
use qla_circuit::Gate;
use qla_shor::{modexp_costs, qcla};
use rand::Rng;

/// A carry-lookahead (QCLA) in-place adder trace over `bits`-bit
/// registers `a` and `b` with a `2·bits` carry/ancilla register `c`,
/// measuring the sum register at the end.
///
/// ASAP-levelling the result reproduces [`qla_shor::qcla()`] exactly:
/// `4·bits` Toffolis over `toffoli_depth` dependency levels, preceded by
/// `cnot_depth` CNOT passes and `not_depth` complement passes.
///
/// # Panics
/// Panics when `bits == 0` (via [`qla_shor::qcla()`]).
#[must_use]
pub fn qcla_adder(bits: usize) -> Trace {
    let mut t = Trace::builder(&format!("qcla-adder-{bits}"));
    let a = t.register("a", bits);
    let b = t.register("b", bits);
    let c = t.register("c", qcla(bits).ancilla_qubits);
    emit_qcla_body(&mut t, &a, &b, &c);
    for &q in &b {
        t.push(Gate::MeasureZ(q));
    }
    t.build()
}

/// A truncated modular-exponentiation trace for `bits`-bit moduli:
/// `multiplier_calls` controlled multiplications, each an exponent-
/// controlled argument-setting CNOT pass followed by
/// `adder_calls_per_multiplication` QCLA adder bodies accumulating into
/// `acc`, with the accumulator measured at the end. The full Shor
/// program runs `2·bits` multiplier calls ([`qla_shor::modexp_costs`]);
/// traces truncate so replay stays tractable while keeping the real
/// dependency structure.
///
/// # Panics
/// Panics when `bits < 4` (via [`qla_shor::modexp_costs`]) or
/// `multiplier_calls == 0`.
#[must_use]
pub fn modexp_program(bits: usize, multiplier_calls: usize) -> Trace {
    assert!(
        multiplier_calls >= 1,
        "a modexp trace needs at least one multiplier call"
    );
    let costs = modexp_costs(bits);
    let mut t = Trace::builder(&format!("modexp-{bits}x{multiplier_calls}"));
    let x = t.register("x", bits);
    let arg = t.register("arg", bits);
    let acc = t.register("acc", bits);
    let c = t.register("c", qcla(bits).ancilla_qubits);
    for _ in 0..multiplier_calls {
        // Exponent-controlled argument setting: route the multiplicand
        // table entry into the adder argument register.
        for i in 0..bits {
            t.push(Gate::Cnot(x[i], arg[i]));
        }
        for _ in 0..costs.adder_calls_per_multiplication {
            emit_qcla_body(&mut t, &arg, &acc, &c);
        }
    }
    for &q in &acc {
        t.push(Gate::MeasureZ(q));
    }
    t.build()
}

/// One QCLA adder body `b += a` over registers of width `a.len()`,
/// using `c` (width `2·a.len()`) as the carry tree.
///
/// Construction, per [`qla_shor::qcla`]'s depth model:
/// - `cnot_depth` transversal CNOT passes, alternating `a→b` / `b→a`
///   direction so each pass depends on the previous one;
/// - `not_depth` complement passes on `b`;
/// - `toffoli_depth` carry-tree levels holding `toffoli_count` Toffolis
///   in a non-increasing ceil distribution. Each level's gates anchor
///   their first control on a previous level's target, so ASAP analysis
///   recovers exactly `toffoli_depth` Toffoli levels; targets alternate
///   between the two halves of `c` to stay hazard-free within a level.
fn emit_qcla_body(t: &mut TraceBuilder, a: &[QubitId], b: &[QubitId], c: &[QubitId]) {
    let n = a.len();
    assert_eq!(b.len(), n, "QCLA adds equal-width registers");
    let r = qcla(n);
    assert_eq!(c.len(), r.ancilla_qubits, "carry register is 2n wide");

    for pass in 0..r.cnot_depth {
        for i in 0..n {
            if pass % 2 == 0 {
                t.push(Gate::Cnot(a[i], b[i]));
            } else {
                t.push(Gate::Cnot(b[i], a[i]));
            }
        }
    }
    for _ in 0..r.not_depth {
        for &q in b {
            t.push(Gate::X(q));
        }
    }

    // Carry-tree Toffoli levels: distribute toffoli_count over
    // toffoli_depth levels, each level at most as large as the last
    // (ceil division of the remainder), so anchor controls are always
    // available from the previous level's targets.
    let depth = r.toffoli_depth;
    let total = r.toffoli_count;
    let ab: Vec<QubitId> = a.iter().chain(b.iter()).copied().collect();
    let mut prev_targets: Vec<QubitId> = b.to_vec();
    let mut emitted = 0;
    for level in 0..depth {
        let k = (total - emitted).div_ceil(depth - level);
        let half = level % 2;
        let mut targets = Vec::with_capacity(k);
        for j in 0..k {
            let target = c[half * n + (j % n)];
            t.push(Gate::Toffoli {
                control1: prev_targets[j % prev_targets.len()],
                control2: ab[(level + j) % ab.len()],
                target,
            });
            targets.push(target);
        }
        emitted += k;
        prev_targets = targets;
    }
    debug_assert_eq!(emitted, total);
}

/// A seeded random Clifford+T program over `qubits` logical qubits:
/// `ops` draws from a fixed gate mix (35% 1q Clifford, 25% T/T†,
/// 25% 2q, 15% Toffoli), measuring every qubit at the end. Identical
/// seeds produce identical traces.
///
/// # Panics
/// Panics when `qubits < 3` (a Toffoli needs three distinct operands)
/// or `ops == 0`.
#[must_use]
pub fn random_clifford_t<R: Rng + ?Sized>(qubits: usize, ops: usize, rng: &mut R) -> Trace {
    assert!(
        qubits >= 3,
        "random traces need at least 3 qubits for Toffoli operands"
    );
    assert!(ops >= 1, "a random trace needs at least one instruction");
    let mut t = Trace::builder(&format!("random-clifford-t-{qubits}x{ops}"));
    let q = t.register("q", qubits);
    for _ in 0..ops {
        let kind: u32 = rng.random_range(0..100);
        let a = rng.random_range(0..qubits);
        if kind < 35 {
            let g = match rng.random_range(0..5u32) {
                0 => Gate::H(q[a]),
                1 => Gate::S(q[a]),
                2 => Gate::Sdg(q[a]),
                3 => Gate::X(q[a]),
                _ => Gate::Z(q[a]),
            };
            t.push(g);
        } else if kind < 60 {
            if rng.random_range(0..2u32) == 0 {
                t.push(Gate::T(q[a]));
            } else {
                t.push(Gate::Tdg(q[a]));
            }
        } else if kind < 85 {
            let b = distinct_from(rng, qubits, a);
            if rng.random_range(0..2u32) == 0 {
                t.push(Gate::Cnot(q[a], q[b]));
            } else {
                t.push(Gate::Cz(q[a], q[b]));
            }
        } else {
            let b = distinct_from(rng, qubits, a);
            let c = third_operand(rng, qubits, a, b);
            t.push(Gate::Toffoli {
                control1: q[a],
                control2: q[b],
                target: q[c],
            });
        }
    }
    for &qq in &q {
        t.push(Gate::MeasureZ(qq));
    }
    t.build()
}

/// A uniform draw from `0..qubits` excluding `a`, in one rng call.
fn distinct_from<R: Rng + ?Sized>(rng: &mut R, qubits: usize, a: usize) -> usize {
    (a + 1 + rng.random_range(0..qubits - 1)) % qubits
}

/// A uniform draw from `0..qubits` excluding `a` and `b`, in one rng
/// call: draw a rank among the remaining values and skip past the
/// excluded ones in ascending order.
fn third_operand<R: Rng + ?Sized>(rng: &mut R, qubits: usize, a: usize, b: usize) -> usize {
    debug_assert_ne!(a, b);
    let rank = rng.random_range(0..qubits - 2);
    let (lo, hi) = (a.min(b), a.max(b));
    let mut v = rank;
    if v >= lo {
        v += 1;
    }
    if v >= hi {
        v += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use qla_circuit::Schedule;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Dependency levels of a trace that contain at least one Toffoli.
    fn toffoli_levels(trace: &Trace) -> usize {
        Schedule::asap(&trace.to_circuit())
            .steps()
            .iter()
            .filter(|s| s.gates.iter().any(|g| matches!(g, Gate::Toffoli { .. })))
            .count()
    }

    #[test]
    fn qcla_adder_matches_published_resource_shape() {
        for bits in [1, 2, 3, 4, 8, 16, 32] {
            let r = qcla(bits);
            let trace = qcla_adder(bits);
            let counts = trace.counts();
            assert_eq!(counts.toffoli, r.toffoli_count, "bits={bits}");
            assert_eq!(toffoli_levels(&trace), r.toffoli_depth, "bits={bits}");
            assert_eq!(trace.qubit_count(), 2 * bits + r.ancilla_qubits);
            assert_eq!(counts.measurements, bits);
            assert_eq!(counts.two_qubit, r.cnot_depth * bits);
            assert_eq!(counts.single_qubit_clifford, r.not_depth * bits);
        }
    }

    #[test]
    fn modexp_counts_scale_with_calls_and_width() {
        let bits = 8;
        let costs = modexp_costs(bits);
        let r = qcla(bits);
        for calls in [1, 2] {
            let trace = modexp_program(bits, calls);
            let counts = trace.counts();
            assert_eq!(
                counts.toffoli,
                calls * costs.adder_calls_per_multiplication * r.toffoli_count
            );
            assert_eq!(trace.qubit_count(), 3 * bits + r.ancilla_qubits);
            assert_eq!(counts.measurements, bits);
        }
    }

    #[test]
    fn random_traces_are_seed_deterministic_and_well_formed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        let a = random_clifford_t(5, 40, &mut r1);
        let b = random_clifford_t(5, 40, &mut r2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40 + 5);
        assert_eq!(a.counts().measurements, 5);
        let mut r3 = ChaCha8Rng::seed_from_u64(8);
        assert_ne!(random_clifford_t(5, 40, &mut r3), a);
    }

    #[test]
    fn operand_helpers_cover_the_whole_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let b = distinct_from(&mut rng, 4, 2);
            assert!(b < 4 && b != 2);
            let c = third_operand(&mut rng, 4, 2, b);
            assert!(c < 4 && c != 2 && c != b);
        }
    }
}
