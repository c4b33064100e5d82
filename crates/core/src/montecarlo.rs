//! Monte-Carlo evaluation of the QLA logical qubit (the Figure 7 experiment).
//!
//! Section 4.1.3: "we mapped the circuit in Figure 6 exactly to the layout
//! shown in Figure 5 and simulated the execution of a single logical one-qubit
//! gate followed by error correction at recursion levels 1 and 2 ... we fixed
//! the movement failure rate to be the expected rate ... but varied the rest
//! of the failure probabilities until we saw a crossing point between the two
//! levels of recursion."
//!
//! This module reproduces that experiment with circuit-level Pauli-frame
//! simulation of the Steane error-correction cycle:
//!
//! * a level-1 trial runs the transversal gate and a full Steane EC cycle
//!   (ancilla encoding, transversal interaction, noisy measurement, decode,
//!   correct — for both error types) with depolarising faults injected at
//!   every physical operation, then asks whether a *logical* error remains
//!   after ideal decoding;
//! * the level-2 rate is obtained by the standard concatenation substitution:
//!   the level-1 logical error rate measured above becomes the component
//!   error rate of another level-1 simulation. The substitution assumes that
//!   level-1 failures act as independent component faults, each level-1
//!   block failing on its own with the measured rate. It does not model the
//!   level-1 error correction inside level-2 ancilla preparation. No flat
//!   98-qubit level-2 simulation checks it.
//!
//! The crossing point of the two curves is the empirical threshold; the paper
//! measures (2.1 ± 1.8) × 10⁻³.
//!
//! The trial is written once, against a private `FaultSource` that answers
//! "which fault fires at the next location". Run once per rate with every
//! location missing, it records the all-miss path's draw thresholds. Each
//! Monte-Carlo trial walks the generator through that list, and only a trial
//! that hits is run, resumed at the hit. The generator makes the draws of
//! direct simulation in the same order, so the result is the same.

use crate::executor::Executor;
use qla_qec::{steane_code, CodeMasks};
use qla_stabilizer::{CliffordGate, PauliFrame};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Data block: frame qubits `0..7`.
const DATA_OFFSET: usize = 0;
/// Ancilla block: frame qubits `7..14`.
const ANCILLA_OFFSET: usize = 7;
/// Qubits per Steane block.
const BLOCK: usize = 7;
/// The ancilla block as a frame word mask.
const ANCILLA_MASK: u64 = 0x7F << ANCILLA_OFFSET;
/// The encoder's pivot qubits (10, 8, 7) as a frame word mask.
const PIVOT_MASK: u64 = (1 << 10) | (1 << 8) | (1 << 7);

/// Configuration of the threshold experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdExperiment {
    /// Monte-Carlo trials per data point.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Movement error per transversal two-qubit gate (kept at the expected
    /// technology value while the component error is swept, as in the paper).
    pub movement_error: f64,
}

impl Default for ThresholdExperiment {
    fn default() -> Self {
        ThresholdExperiment {
            trials: 20_000,
            seed: 0xC0FFEE,
            movement_error: 1.2e-5, // 12 cells at the expected 1e-6 per cell
        }
    }
}

/// One point of the Figure 7 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPoint {
    /// Physical component failure rate.
    pub physical_rate: f64,
    /// Measured level-1 logical gate failure rate.
    pub level1_rate: f64,
    /// Level-2 logical gate failure rate (concatenation of the measured
    /// level-1 map).
    pub level2_rate: f64,
}

impl ThresholdExperiment {
    /// Estimate the level-1 logical failure rate of one transversal gate
    /// followed by an error-correction cycle, at component error `p`.
    ///
    /// Near threshold almost every trial is clean and cannot fail. Each trial
    /// walks the generator through the all-miss thresholds that `MissSchedule`
    /// records from the trial itself; only a trial that hits at location `k`
    /// is run, through `Resumed`, with the draws direct simulation makes.
    #[must_use]
    pub fn level1_failure_rate(&self, p: f64) -> f64 {
        // Masks and frame are built once; the frame is reset per trial.
        let masks = steane_code().bit_masks();
        let mut frame = PauliFrame::new(2 * BLOCK);
        let mut schedule = MissSchedule(Vec::new());
        logical_trial(&masks, &mut frame, p, self.movement_error, &mut schedule);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ p.to_bits());
        let mut failures = 0usize;
        for _ in 0..self.trials {
            let Some(hit) = schedule.0.iter().position(|&t| (rng.next_u64() >> 11) < t) else {
                continue;
            };
            let mut resumed = Resumed {
                rng: &mut rng,
                misses_before_hit: Some(hit),
            };
            if logical_trial(&masks, &mut frame, p, self.movement_error, &mut resumed) {
                failures += 1;
            }
        }
        failures as f64 / self.trials as f64
    }

    /// Sweep the component failure rate through an [`Executor`], producing
    /// the two curves of Figure 7.
    ///
    /// Every point draws from its own generator (seeded by
    /// `seed ^ p.to_bits()`), so points are evaluated independently and the
    /// executor reassembles them in rate order: the result is identical for
    /// every thread count.
    #[must_use]
    pub fn sweep(&self, physical_rates: &[f64], executor: &Executor) -> Vec<ThresholdPoint> {
        executor.map(physical_rates, |_, &p| {
            let level1_rate = self.level1_failure_rate(p);
            let level2_rate = if level1_rate == 0.0 {
                0.0
            } else {
                self.level1_failure_rate(level1_rate)
            };
            ThresholdPoint {
                physical_rate: p,
                level1_rate,
                level2_rate,
            }
        })
    }

    /// Estimate the pseudo-threshold: the component rate at which the level-1
    /// logical rate equals the physical rate (the crossing point of Figure 7).
    /// Returns the bracketing estimate from a geometric scan of `[lo, hi]`,
    /// with the scan points evaluated through an [`Executor`].
    ///
    /// On one worker, the scan stops at the first crossing (the rates past
    /// it are never sampled — they cost a full Monte-Carlo evaluation
    /// each). On more, all `points` rates are evaluated up front (each
    /// from its own `seed ^ p.to_bits()` generator) and the crossing is
    /// located in a pass over the ordered ratios. Both paths return the
    /// *first* crossing over identically seeded, order-independent point
    /// evaluations, so the estimate is identical for every thread count.
    #[must_use]
    pub fn estimate_threshold(
        &self,
        lo: f64,
        hi: f64,
        points: usize,
        executor: &Executor,
    ) -> Option<f64> {
        let scan_rate = |i: usize| {
            let t = i as f64 / (points - 1).max(1) as f64;
            lo * (hi / lo).powf(t)
        };
        if executor.jobs() == 1 {
            // Lazy scan with early exit: don't pay for points past the
            // crossing.
            let mut previous: Option<(f64, f64)> = None;
            for i in 0..points {
                let p = scan_rate(i);
                let ratio = self.level1_failure_rate(p) / p;
                if let Some((prev_p, prev_ratio)) = previous {
                    if prev_ratio < 1.0 && ratio >= 1.0 {
                        // Crossing between prev_p and p: geometric midpoint.
                        return Some((prev_p * p).sqrt());
                    }
                }
                previous = Some((p, ratio));
            }
            return None;
        }
        let ratios = executor.map_indices(points, |i| {
            let p = scan_rate(i);
            (p, self.level1_failure_rate(p) / p)
        });
        for pair in ratios.windows(2) {
            let [(prev_p, prev_ratio), (p, ratio)] = pair else {
                unreachable!("windows(2) yields pairs");
            };
            if *prev_ratio < 1.0 && *ratio >= 1.0 {
                return Some((prev_p * p).sqrt());
            }
        }
        None
    }
}

/// The integer threshold `t` such that `(x >> 11) < t` exactly reproduces
/// `((x >> 11) as f64) * 2⁻⁵³ < p` — the comparison behind
/// `rng.random::<f64>() < p` for the 53-bit uniform draws `rand` produces.
/// Both the int→f64 conversion (≤ 53 bits) and the scaling by a power of two
/// are exact, so `k·2⁻⁵³ < p  ⟺  k < ⌈p·2⁵³⌉` for every `k` in range.
fn f53_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Where a trial's faults come from. The trial asks once per fault
/// location, in circuit order, and gets `0` when no fault fires there, or
/// else which of the location's `kinds` Pauli faults (`1..=kinds`) fired:
/// 3 for a one-qubit depolarising location, 15 for a two-qubit one, 1 for a
/// verification or measurement failure.
trait FaultSource {
    /// The fault at the next location, which fails with probability `p > 0`.
    fn draw(&mut self, p: f64, kinds: u8) -> u8;

    /// [`Self::draw`] for any `p`: a `p = 0` location never fails, and it
    /// neither draws nor counts as a location.
    fn fault(&mut self, p: f64, kinds: u8) -> u8 {
        if p > 0.0 {
            self.draw(p, kinds)
        } else {
            0
        }
    }
}

/// Which of `kinds` Pauli faults fired at a failing location. A one-kind
/// location draws nothing: `random_range(1..=1)` would still consume a draw.
fn fault_kind(rng: &mut ChaCha8Rng, kinds: u8) -> u8 {
    if kinds == 1 {
        1
    } else {
        rng.random_range(1..=kinds)
    }
}

/// Direct simulation: one uniform draw per location, and one more for the
/// fault kind when it fires.
impl FaultSource for ChaCha8Rng {
    fn draw(&mut self, p: f64, kinds: u8) -> u8 {
        if self.random::<f64>() < p {
            fault_kind(self, kinds)
        } else {
            0
        }
    }
}

/// The all-miss path of a trial: every location misses, and its
/// [`f53_threshold`] is recorded in draw order.
struct MissSchedule(Vec<u64>);

impl FaultSource for MissSchedule {
    fn draw(&mut self, p: f64, _kinds: u8) -> u8 {
        self.0.push(f53_threshold(p));
        0
    }
}

/// A trial resumed at the first hit of the walk through [`MissSchedule`]:
/// earlier locations miss without drawing, the hit fires and draws only its
/// kind, and later locations draw from the generator.
struct Resumed<'a> {
    rng: &'a mut ChaCha8Rng,
    /// `None` once the hit has fired.
    misses_before_hit: Option<usize>,
}

impl FaultSource for Resumed<'_> {
    fn draw(&mut self, p: f64, kinds: u8) -> u8 {
        match self.misses_before_hit {
            None => self.rng.draw(p, kinds),
            Some(0) => {
                self.misses_before_hit = None;
                fault_kind(self.rng, kinds)
            }
            Some(n) => {
                self.misses_before_hit = Some(n - 1);
                0
            }
        }
    }
}

/// Inject the Pauli with code `code` (0 = none, 1 = X, 2 = Y, 3 = Z) on
/// qubit `q`.
fn inject(frame: &mut PauliFrame, q: usize, code: u8) {
    match code {
        1 => frame.inject_x(q),
        2 => frame.inject_y(q),
        3 => frame.inject_z(q),
        _ => {}
    }
}

/// Inject a depolarising fault on one qubit of the frame with probability `p`.
fn depolarize(frame: &mut PauliFrame, q: usize, p: f64, faults: &mut impl FaultSource) {
    inject(frame, q, faults.fault(p, 3));
}

/// Inject a two-qubit depolarising fault after a CNOT; the first qubit's
/// [`inject`] code is the high base-4 digit.
fn depolarize_pair(
    frame: &mut PauliFrame,
    a: usize,
    b: usize,
    p: f64,
    faults: &mut impl FaultSource,
) {
    let code = faults.fault(p, 15);
    inject(frame, a, code / 4);
    inject(frame, b, code % 4);
}

/// Verified ancilla preparation: the encoding circuit is run with faults, and
/// the verification stage of Figure 6 (modelled as a check that catches the
/// correlated errors a single encoder fault produces, itself failing with
/// probability `p`) triggers a re-preparation when the ancilla carries a
/// multi-qubit error in the basis that would propagate onto the data block.
fn verified_ancilla_prep(
    frame: &mut PauliFrame,
    p: f64,
    plus: bool,
    faults: &mut impl FaultSource,
) {
    for attempt in 0..3 {
        noisy_ancilla_prep(frame, p, plus, faults);
        // Dangerous correlated errors: Z errors on a |0>_L ancilla propagate
        // back onto the data through the transversal CNOT; X errors on a
        // |+>_L ancilla do the same when the ancilla acts as control.
        let dangerous = if plus {
            frame.x_bits_at(ANCILLA_OFFSET, BLOCK)
        } else {
            frame.z_bits_at(ANCILLA_OFFSET, BLOCK)
        };
        let verification_misses = faults.fault(p, 1) != 0;
        if dangerous.count_ones() < 2 || verification_misses || attempt == 2 {
            break;
        }
    }
}

/// The noisy Steane encoding circuit applied to the ancilla block
/// (qubits 7..14 of the frame), for |0⟩_L (`plus = false`) or |+⟩_L
/// (`plus = true`).
///
/// Gate layers whose per-qubit operations touch disjoint qubits (the PrepZ
/// fan, the Hadamard fans) are applied as one bulk mask operation before
/// their per-qubit noise draws: a fault injected on qubit `a` commutes with a
/// later one-qubit gate on qubit `b ≠ a`, so the final frame and the RNG
/// draw sequence are both identical to the fully interleaved circuit. The
/// nine fan-out CNOTs *share* pivot qubits, so a fault on a pivot propagates
/// through the later CNOTs — they stay interleaved with their draws.
fn noisy_ancilla_prep(frame: &mut PauliFrame, p: f64, plus: bool, faults: &mut impl FaultSource) {
    // Reset the ancilla block.
    frame.prep_mask(&[ANCILLA_MASK]);
    for q in ANCILLA_OFFSET..ANCILLA_OFFSET + BLOCK {
        depolarize(frame, q, p, faults);
    }
    // Pivot Hadamards; the draws follow the seed order 10, 8, 7.
    frame.h_mask(&[PIVOT_MASK]);
    for q in [10, 8, 7] {
        depolarize(frame, q, p, faults);
    }
    // Stabilizer fan-out CNOTs (pivot -> support), offset by 7.
    let cnots = [
        (10, 11),
        (10, 12),
        (10, 13),
        (8, 9),
        (8, 12),
        (8, 13),
        (7, 9),
        (7, 11),
        (7, 13),
    ];
    for (c, t) in cnots {
        frame.apply(CliffordGate::Cnot(c, t));
        depolarize_pair(frame, c, t, p, faults);
    }
    if plus {
        frame.h_mask(&[ANCILLA_MASK]);
        for q in ANCILLA_OFFSET..ANCILLA_OFFSET + BLOCK {
            depolarize(frame, q, p, faults);
        }
    }
}

/// One full level-1 trial: a transversal one-qubit logical gate followed by a
/// Steane error-correction cycle, with component failure probability `p`.
/// Returns `true` if a logical error is present after ideal decoding.
///
/// The trial runs entirely on the frame's bulk interface: transversal CNOT
/// blocks are single word operations ([`PauliFrame::cnot_block`] — the pairs
/// are disjoint, so hoisting the whole block ahead of the per-pair noise
/// draws changes neither the state nor the draw order), syndromes are mask
/// parities of one ancilla-window read, and decoding is a table lookup whose
/// correction mask is XORed straight into the error planes.
fn logical_trial(
    masks: &CodeMasks,
    frame: &mut PauliFrame,
    p: f64,
    movement_error: f64,
    faults: &mut impl FaultSource,
) -> bool {
    frame.reset();

    // The logical one-qubit gate under test: transversal, one noisy physical
    // gate per data qubit.
    for q in 0..BLOCK {
        depolarize(frame, q, p, faults);
    }

    // --- X-error syndrome extraction (ancilla in |0>_L, data controls) ---
    verified_ancilla_prep(frame, p, false, faults);
    frame.cnot_block(DATA_OFFSET, ANCILLA_OFFSET, BLOCK);
    for q in 0..BLOCK {
        depolarize_pair(frame, q, ANCILLA_OFFSET + q, p, faults);
        depolarize(frame, q, movement_error, faults);
    }
    // Ideal syndrome in one window read, then one measurement-error draw per
    // stabilizer (same draws as flipping each listed parity in turn).
    let mut syndrome = CodeMasks::syndrome_index(
        &masks.z_stabilizer_masks,
        frame.x_bits_at(ANCILLA_OFFSET, BLOCK),
    );
    for i in 0..masks.z_stabilizer_masks.len() {
        if faults.fault(p, 1) != 0 {
            syndrome ^= 1 << i;
        }
    }
    frame.xor_rows(&[masks.x_correction[syndrome]], &[0]);

    // --- Z-error syndrome extraction (ancilla in |+>_L, ancilla controls) ---
    verified_ancilla_prep(frame, p, true, faults);
    frame.cnot_block(ANCILLA_OFFSET, DATA_OFFSET, BLOCK);
    for q in 0..BLOCK {
        depolarize_pair(frame, ANCILLA_OFFSET + q, q, p, faults);
        depolarize(frame, q, movement_error, faults);
    }
    let mut syndrome = CodeMasks::syndrome_index(
        &masks.x_stabilizer_masks,
        frame.z_bits_at(ANCILLA_OFFSET, BLOCK),
    );
    for i in 0..masks.x_stabilizer_masks.len() {
        if faults.fault(p, 1) != 0 {
            syndrome ^= 1 << i;
        }
    }
    frame.xor_rows(&[0], &[masks.z_correction[syndrome]]);

    // Ideal decoding: does a logical error remain on the data block?
    masks.has_logical_x_error(frame.x_bits_at(DATA_OFFSET, BLOCK))
        || masks.has_logical_z_error(frame.z_bits_at(DATA_OFFSET, BLOCK))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ThresholdExperiment {
        ThresholdExperiment {
            trials: 4000,
            seed: 42,
            movement_error: 1.2e-5,
        }
    }

    /// Direct simulation — every location drawing straight from the
    /// generator — is the reference for `level1_failure_rate`'s resumed
    /// trials, in every noise regime. `p = 0` and `movement_error = 0` drop
    /// their locations from the schedule, so the grid covers each alone and
    /// both together.
    #[test]
    fn resumed_trials_match_the_direct_source() {
        let masks = steane_code().bit_masks();
        let mut frame = PauliFrame::new(2 * BLOCK);
        for movement_error in [1.2e-5, 3e-2, 0.0] {
            let e = ThresholdExperiment {
                movement_error,
                ..quick()
            };
            for p in [0.0f64, 1e-4, 2e-3, 3e-2] {
                let mut rng = ChaCha8Rng::seed_from_u64(e.seed ^ p.to_bits());
                let failures = (0..e.trials)
                    .filter(|_| logical_trial(&masks, &mut frame, p, movement_error, &mut rng))
                    .count();
                let direct = failures as f64 / e.trials as f64;
                assert_eq!(
                    e.level1_failure_rate(p),
                    direct,
                    "p = {p}, movement_error = {movement_error}"
                );
            }
        }
    }

    /// Fires the listed `(location, kind)` faults, counting locations in the
    /// order the trial asks for them; every other location misses. A kind
    /// beyond the location's `kinds` does not fire.
    struct Injected<'a> {
        faults: &'a [(usize, u8)],
        location: usize,
        fired: usize,
    }

    impl FaultSource for Injected<'_> {
        fn draw(&mut self, _p: f64, kinds: u8) -> u8 {
            let here = self.location;
            self.location += 1;
            let fires = |&&(at, kind): &&(usize, u8)| at == here && kind <= kinds;
            match self.faults.iter().find(fires) {
                Some(&(_, kind)) => {
                    self.fired += 1;
                    kind
                }
                None => 0,
            }
        }
    }

    /// The Steane EC cycle is fault tolerant to first order: a single fault
    /// of any kind at any location of the all-miss path is corrected. Some
    /// pair of faults is not, which shows the injected faults take effect.
    #[test]
    fn no_single_fault_causes_a_logical_failure() {
        let (p, movement_error) = (1e-3, 1.2e-5);
        let masks = steane_code().bit_masks();
        let mut frame = PauliFrame::new(2 * BLOCK);
        let mut schedule = MissSchedule(Vec::new());
        logical_trial(&masks, &mut frame, p, movement_error, &mut schedule);
        let locations = schedule.0.len();
        assert_eq!(locations, 88);
        // `None` when some listed fault named a kind its location lacks.
        let mut fails = |faults: &[(usize, u8)]| {
            let mut source = Injected {
                faults,
                location: 0,
                fired: 0,
            };
            let failed = logical_trial(&masks, &mut frame, p, movement_error, &mut source);
            (source.fired == faults.len()).then_some(failed)
        };
        for at in 0..locations {
            for kind in 1..=15 {
                match fails(&[(at, kind)]) {
                    Some(failed) => assert!(!failed, "one fault, kind {kind}, at location {at}"),
                    None => assert!(kind > 1, "location {at} did not fire"),
                }
            }
        }
        let mut pair_fails = false;
        'search: for a in 0..locations {
            for b in a + 1..locations {
                for (ka, kb) in (1..=15).flat_map(|ka| (1..=15).map(move |kb| (ka, kb))) {
                    if fails(&[(a, ka), (b, kb)]) == Some(true) {
                        pair_fails = true;
                        break 'search;
                    }
                }
            }
        }
        assert!(pair_fails, "no two-fault combination fails");
    }

    #[test]
    fn no_noise_means_no_logical_errors() {
        let e = ThresholdExperiment {
            trials: 500,
            ..quick()
        };
        assert_eq!(e.level1_failure_rate(0.0), 0.0);
    }

    #[test]
    fn far_below_threshold_encoding_helps() {
        let e = quick();
        let p = 1e-4;
        let l1 = e.level1_failure_rate(p);
        assert!(
            l1 < p,
            "level-1 rate {l1} should beat the physical rate {p}"
        );
    }

    #[test]
    fn far_above_threshold_encoding_hurts() {
        let e = quick();
        let p = 0.05;
        let l1 = e.level1_failure_rate(p);
        assert!(l1 > p, "level-1 rate {l1} should be worse than {p}");
    }

    #[test]
    fn level2_beats_level1_below_threshold() {
        let e = quick();
        let p = 3e-4;
        let l1 = e.level1_failure_rate(p);
        let l2 = e.level1_failure_rate(l1);
        assert!(l2 <= l1, "l2 {l2} vs l1 {l1}");
    }

    #[test]
    fn failure_rate_is_monotone_in_component_error() {
        let e = quick();
        let low = e.level1_failure_rate(5e-4);
        let high = e.level1_failure_rate(1e-2);
        assert!(high > low);
    }

    #[test]
    fn threshold_estimate_lands_in_the_expected_decade() {
        // The paper's empirical value is (2.1 ± 1.8)e-3; our circuit-level
        // model should land within the same order of magnitude.
        let e = ThresholdExperiment {
            trials: 8000,
            ..quick()
        };
        let pth = e
            .estimate_threshold(2e-4, 3e-2, 10, &Executor::SEQUENTIAL)
            .expect("threshold crossing must exist");
        assert!(
            pth > 2e-4 && pth < 3e-2,
            "empirical threshold {pth} out of range"
        );
    }

    #[test]
    fn sweep_produces_one_point_per_rate() {
        let e = ThresholdExperiment {
            trials: 1000,
            ..quick()
        };
        let points = e.sweep(&[1e-3, 2e-3], &Executor::SEQUENTIAL);
        assert_eq!(points.len(), 2);
        assert!(points[0].physical_rate < points[1].physical_rate);
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_seed() {
        let e = quick();
        assert_eq!(e.level1_failure_rate(2e-3), e.level1_failure_rate(2e-3));
    }

    #[test]
    fn parallel_sweep_is_identical_to_sequential_for_every_thread_count() {
        let e = ThresholdExperiment {
            trials: 1500,
            ..quick()
        };
        let rates = [5e-4, 1e-3, 2e-3, 4e-3, 8e-3];
        let sequential = e.sweep(&rates, &Executor::SEQUENTIAL);
        for jobs in [1usize, 2, 8] {
            let parallel = e.sweep(&rates, &Executor::from_jobs(jobs));
            assert_eq!(parallel, sequential, "{jobs} jobs");
        }
    }

    #[test]
    fn parallel_threshold_estimate_matches_the_early_exiting_scan() {
        let e = ThresholdExperiment {
            trials: 3000,
            ..quick()
        };
        let sequential = e.estimate_threshold(2e-4, 3e-2, 10, &Executor::SEQUENTIAL);
        for jobs in [2usize, 8] {
            assert_eq!(
                e.estimate_threshold(2e-4, 3e-2, 10, &Executor::from_jobs(jobs)),
                sequential,
                "{jobs} jobs"
            );
        }
    }
}
