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
//! The ancilla encoder is qla-qec's `encode_zero_circuit` or
//! `encode_plus_circuit` on the ancilla block, with a fault location after
//! every gate, derived from the same `qla_qec::STEANE_SUPPORTS` table.
//!
//! The trial is written once, against a private `FaultSource` that answers
//! "which fault fires at the next location". Run once per rate with every
//! location missing, it records the all-miss path's draw thresholds. Each
//! Monte-Carlo trial walks the generator through that list, and only a trial
//! that hits is run, resumed at the hit. The generator makes the draws of
//! direct simulation in the same order, so the result is the same.
//!
//! Each `FaultSource` gets one call-free trial body: the source's `fault`
//! and `draw`, `inject`, `depolarize_pair`, `noisy_ancilla_prep` and
//! `verified_ancilla_prep` are `#[inline(always)]` (`fault_kind` and
//! `depolarize` inline without being asked). The all-miss path asks 88
//! locations and near threshold nearly all of them miss, so a call per
//! location costs more than the draw it wraps; left to the compiler, some
//! link of the chain stays out of line whichever others are marked (a
//! plain `#[inline]` keeps three of them out). The resumed trial itself is
//! one out-of-line `logical_trial`, which keeps the keystream walk around
//! it small.

use crate::executor::Executor;
use qla_qec::{steane_code, CodeMasks, STEANE_SUPPORTS};
use qla_stabilizer::{CliffordGate, PauliFrame};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Data block: frame qubits `0..7`.
const DATA_OFFSET: usize = 0;
/// Ancilla block: frame qubits `7..14`.
const ANCILLA_OFFSET: usize = 7;
/// Qubits per Steane block.
const BLOCK: usize = 7;
/// The ancilla block as a frame word mask.
const ANCILLA_MASK: u64 = 0x7F << ANCILLA_OFFSET;
/// The encoder's pivots on the ancilla block: the first qubit of each
/// [`STEANE_SUPPORTS`] row, in `qla_qec::encode_zero_circuit`'s order.
const PIVOTS: [usize; 3] = {
    let [[a, ..], [b, ..], [c, ..]] = STEANE_SUPPORTS;
    [ANCILLA_OFFSET + a, ANCILLA_OFFSET + b, ANCILLA_OFFSET + c]
};
/// The encoder's fan-out CNOTs on the ancilla block, each pivot to the rest
/// of its row, in `qla_qec::encode_zero_circuit`'s order.
const FAN_OUT: [(usize, usize); 9] = {
    let mut cnots = [(0, 0); 9];
    let mut k = 0;
    while k < 9 {
        let support = STEANE_SUPPORTS[k / 3];
        cnots[k] = (
            ANCILLA_OFFSET + support[0],
            ANCILLA_OFFSET + support[1 + k % 3],
        );
        k += 1;
    }
    cnots
};

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

    /// Figure 7 as one work list through one [`Executor`] map: the sweep
    /// of `physical_rates` (a level-1 call, then its level-2 call, per rate)
    /// and the threshold scan of `points` geometric rates over `[lo, hi]`.
    /// No rates give the scan alone, and `points = 0` the sweep alone.
    ///
    /// The sweep goes first, highest (costliest) rate first, so the longest
    /// items do not form the tail; the points come back in `physical_rates`
    /// order. The scan follows in ascending rate order, and a scan point is
    /// skipped when the unbroken run of finished points from the first one
    /// already holds the first crossing `ratio[i-1] < 1 ≤ ratio[i]`: every
    /// skipped point lies past that crossing, and the report never reads it.
    /// The estimate is the geometric midpoint of the crossing pair, or
    /// `None` when no pair crosses (then every point is evaluated).
    ///
    /// Every call draws from its own generator (seeded by
    /// `seed ^ p.to_bits()`), so the result is identical for every thread
    /// count and every interleaving; only the number of points past the
    /// crossing that get evaluated depends on timing.
    #[must_use]
    pub fn sweep_and_threshold(
        &self,
        physical_rates: &[f64],
        lo: f64,
        hi: f64,
        points: usize,
        executor: &Executor,
    ) -> (Vec<ThresholdPoint>, Option<f64>) {
        let level1 = |p| self.level1_failure_rate(p);
        work_list(
            level1,
            physical_rates,
            &scan_rates(lo, hi, points),
            executor,
        )
    }
}

/// `points` geometrically spaced rates from `lo` to `hi`.
fn scan_rates(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1).max(1) as f64;
            lo * (hi / lo).powf(t)
        })
        .collect()
}

/// The work list behind [`ThresholdExperiment::sweep_and_threshold`], over
/// any level-1 evaluator: the sweep points highest rate first, then the
/// lazy threshold scan over the ascending rates `scan`.
fn work_list<F>(
    level1: F,
    physical_rates: &[f64],
    scan: &[f64],
    executor: &Executor,
) -> (Vec<ThresholdPoint>, Option<f64>)
where
    F: Fn(f64) -> f64 + Sync,
{
    // Highest rate first: more of its trials fault, and its level-2 call
    // runs at a higher level-1 rate, so it costs the most.
    let mut order: Vec<usize> = (0..physical_rates.len()).collect();
    order.sort_by(|&a, &b| physical_rates[b].total_cmp(&physical_rates[a]));
    // Scan ratios `level1(p) / p`, filled in as the points finish.
    let ratios = Mutex::new(vec![None; scan.len()]);
    let lock = || ratios.lock().expect("scan lock poisoned");
    let swept = executor.map_indices(order.len() + scan.len(), |k| {
        if let Some(&i) = order.get(k) {
            let p = physical_rates[i];
            let level1_rate = level1(p);
            let level2_rate = if level1_rate == 0.0 {
                0.0
            } else {
                level1(level1_rate)
            };
            return Some(ThresholdPoint {
                physical_rate: p,
                level1_rate,
                level2_rate,
            });
        }
        let i = k - order.len();
        if first_crossing(&lock()).is_none() {
            let ratio = level1(scan[i]) / scan[i];
            lock()[i] = Some(ratio);
        }
        None
    });
    let mut points = vec![None; order.len()];
    for (&i, point) in order.iter().zip(swept) {
        points[i] = point;
    }
    let points = points.into_iter().map(|p| p.expect("swept")).collect();
    let threshold = first_crossing(&lock()).map(|i| (scan[i - 1] * scan[i]).sqrt());
    (points, threshold)
}

/// The index `i` of the first crossing `ratio[i-1] < 1 ≤ ratio[i]` within
/// the unbroken run of known ratios from the first point, if it has one.
fn first_crossing(ratios: &[Option<f64>]) -> Option<usize> {
    let known: Vec<f64> = ratios.iter().map_while(|&r| r).collect();
    known
        .windows(2)
        .position(|pair| pair[0] < 1.0 && pair[1] >= 1.0)
        .map(|i| i + 1)
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
    #[inline(always)]
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
    #[inline(always)]
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
    #[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
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
/// (qubits 7..14 of the frame): a PrepZ per qubit, then
/// `qla_qec::encode_zero_circuit` for |0⟩_L (`plus = false`) or
/// `encode_plus_circuit` for |+⟩_L (`plus = true`), offset by 7, each gate
/// followed by its fault location.
///
/// Gate layers whose per-qubit operations touch disjoint qubits (the PrepZ
/// fan, the Hadamard fans) are applied as one bulk mask operation before
/// their per-qubit noise draws: a fault injected on qubit `a` commutes with a
/// later one-qubit gate on qubit `b ≠ a`, so the final frame and the RNG
/// draw sequence are both identical to the fully interleaved circuit (a
/// test walks qla-qec's circuits gate by gate to check it). The nine fan-out
/// CNOTs *share* pivot qubits, so a fault on a pivot propagates through the
/// later CNOTs — they stay interleaved with their draws.
#[inline(always)]
fn noisy_ancilla_prep(frame: &mut PauliFrame, p: f64, plus: bool, faults: &mut impl FaultSource) {
    // Reset the ancilla block.
    frame.prep_mask(&[ANCILLA_MASK]);
    for q in ANCILLA_OFFSET..ANCILLA_OFFSET + BLOCK {
        depolarize(frame, q, p, faults);
    }
    frame.h_mask(&[(1 << PIVOTS[0]) | (1 << PIVOTS[1]) | (1 << PIVOTS[2])]);
    for q in PIVOTS {
        depolarize(frame, q, p, faults);
    }
    for (c, t) in FAN_OUT {
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
    use qla_circuit::{Circuit, Gate};
    use qla_qec::{encode_plus_circuit, encode_zero_circuit};
    use std::sync::Condvar;

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
            .sweep_and_threshold(&[], 2e-4, 3e-2, 10, &Executor::SEQUENTIAL)
            .1
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
        let (points, _) =
            e.sweep_and_threshold(&[1e-3, 2e-3], 2e-4, 3e-2, 0, &Executor::SEQUENTIAL);
        assert_eq!(points.len(), 2);
        assert!(points[0].physical_rate < points[1].physical_rate);
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_seed() {
        let e = quick();
        assert_eq!(e.level1_failure_rate(2e-3), e.level1_failure_rate(2e-3));
    }

    /// The lazy scan against a stub evaluator that counts its calls. Scan
    /// point `i` is the rate `i + 1` with ratio `table[i]`. The stub lets
    /// point `i` run only after point `i - 1` has returned (or, past the
    /// crossing `c`, after `c` has), plus a millisecond, so the points
    /// finish in scan order as the real scan's rising costs make them.
    #[test]
    fn the_threshold_scan_evaluates_at_most_jobs_minus_one_points_past_its_crossing() {
        let cases: [(&str, [f64; 8], Option<usize>); 3] = [
            (
                "first pair",
                [0.5, 1.5, 0.5, 2.0, 3.0, 4.0, 5.0, 6.0],
                Some(1),
            ),
            (
                "last pair",
                [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1.0],
                Some(7),
            ),
            ("no pair", [2.0, 1.5, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5], None),
        ];
        let scan: Vec<f64> = (1..=8).map(f64::from).collect();
        for (case, table, crossing) in cases {
            let sequential = table
                .windows(2)
                .position(|pair| pair[0] < 1.0 && pair[1] >= 1.0)
                .map(|i| i + 1);
            assert_eq!(sequential, crossing, "{case}: test table");
            for jobs in [1usize, 2, 3, 8] {
                let calls = Mutex::new(vec![0usize; table.len()]);
                let returned = (Mutex::new(vec![false; table.len()]), Condvar::new());
                let stub = |p: f64| {
                    let i = p as usize - 1;
                    let (done, wake) = &returned;
                    let runnable = |done: &mut Vec<bool>| {
                        i == 0 || done[i - 1] || crossing.is_some_and(|c| i > c && done[c])
                    };
                    drop(wake.wait_while(done.lock().unwrap(), |d| !runnable(d)));
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    calls.lock().unwrap()[i] += 1;
                    done.lock().unwrap()[i] = true;
                    wake.notify_all();
                    table[i] * p
                };
                let (points, threshold) = work_list(stub, &[], &scan, &Executor::from_jobs(jobs));
                assert!(points.is_empty());
                assert_eq!(
                    threshold,
                    sequential.map(|i| (scan[i - 1] * scan[i]).sqrt()),
                    "{case}, {jobs} jobs"
                );
                let calls = calls.into_inner().unwrap();
                assert!(
                    calls.iter().all(|&n| n <= 1),
                    "{case}, {jobs} jobs: {calls:?}"
                );
                let last = crossing.unwrap_or(table.len() - 1);
                assert!(
                    calls[..=last].iter().all(|&n| n == 1),
                    "{case}, {jobs} jobs: a point up to the crossing was skipped: {calls:?}"
                );
                let past: usize = calls[last + 1..].iter().sum();
                assert!(
                    past < jobs,
                    "{case}, {jobs} jobs: {past} points past the crossing evaluated: {calls:?}"
                );
            }
        }
    }

    /// Only the unbroken run of finished points from the first one counts:
    /// a point still running hides every crossing after it.
    #[test]
    fn a_crossing_counts_only_within_the_finished_prefix() {
        assert_eq!(first_crossing(&[Some(0.5), None, Some(2.0)]), None);
        assert_eq!(first_crossing(&[Some(0.5), Some(2.0), None]), Some(1));
        assert_eq!(
            first_crossing(&[Some(2.0), Some(0.5), Some(1.0), None, Some(0.1)]),
            Some(2)
        );
        assert_eq!(first_crossing(&[None, Some(0.5), Some(2.0)]), None);
        assert_eq!(first_crossing(&[]), None);
    }

    /// The sweep as a plain sequential loop of `level1_failure_rate`: per
    /// rate its level-1 rate, then level 2 of that rate.
    fn sequential_sweep(e: &ThresholdExperiment, rates: &[f64]) -> Vec<ThresholdPoint> {
        rates
            .iter()
            .map(|&p| {
                let level1_rate = e.level1_failure_rate(p);
                let level2_rate = if level1_rate == 0.0 {
                    0.0
                } else {
                    e.level1_failure_rate(level1_rate)
                };
                ThresholdPoint {
                    physical_rate: p,
                    level1_rate,
                    level2_rate,
                }
            })
            .collect()
    }

    /// The threshold scan as a plain sequential loop of
    /// `level1_failure_rate`: the ratios in ascending rate order, stopping
    /// at the first crossing.
    fn sequential_scan(e: &ThresholdExperiment, lo: f64, hi: f64, points: u32) -> Option<f64> {
        let scan: Vec<f64> = (0..points)
            .map(|i| lo * (hi / lo).powf(f64::from(i) / f64::from(points - 1)))
            .collect();
        let mut previous_ratio = f64::INFINITY;
        for (i, &p) in scan.iter().enumerate() {
            let ratio = e.level1_failure_rate(p) / p;
            if previous_ratio < 1.0 && ratio >= 1.0 {
                return Some((scan[i - 1] * p).sqrt());
            }
            previous_ratio = ratio;
        }
        None
    }

    /// The sweep alone (`points = 0`) against the sequential loop.
    #[test]
    fn parallel_sweep_is_identical_to_sequential_for_every_thread_count() {
        let e = ThresholdExperiment {
            trials: 1500,
            ..quick()
        };
        let rates = [5e-4, 1e-3, 2e-3, 4e-3, 8e-3];
        let sequential = sequential_sweep(&e, &rates);
        for jobs in [1usize, 2, 8] {
            let got = e.sweep_and_threshold(&rates, 2e-4, 3e-2, 0, &Executor::from_jobs(jobs));
            assert_eq!(got, (sequential.clone(), None), "{jobs} jobs");
        }
    }

    /// The one work list, sweep and scan together, against the sequential
    /// sweep and the sequential early-exiting scan, at every job count.
    #[test]
    fn one_work_list_matches_the_separate_sweep_and_scan() {
        let e = ThresholdExperiment {
            trials: 1500,
            ..quick()
        };
        let rates = [5e-4, 1.6e-2, 2e-3, 8e-3];
        let threshold = sequential_scan(&e, 2e-4, 3e-2, 10);
        assert!(threshold.is_some(), "the scan must cross for this check");
        let expected = (sequential_sweep(&e, &rates), threshold);
        for jobs in [1usize, 2, 3, 8] {
            let got = e.sweep_and_threshold(&rates, 2e-4, 3e-2, 10, &Executor::from_jobs(jobs));
            assert_eq!(got, expected, "{jobs} jobs");
        }
    }

    /// The scan alone (no rates) against the sequential early-exiting scan.
    #[test]
    fn parallel_threshold_estimate_matches_the_early_exiting_scan() {
        let e = ThresholdExperiment {
            trials: 3000,
            ..quick()
        };
        let sequential = sequential_scan(&e, 2e-4, 3e-2, 10);
        assert!(sequential.is_some(), "the scan must cross for this check");
        for jobs in [1usize, 2, 8] {
            assert_eq!(
                e.sweep_and_threshold(&[], 2e-4, 3e-2, 10, &Executor::from_jobs(jobs)),
                (Vec::new(), sequential),
                "{jobs} jobs"
            );
        }
    }

    /// The trial's encoder, with its PrepZ and Hadamard fans hoisted ahead
    /// of their draws, against qla-qec's circuits walked gate by gate with
    /// each fault injected right after its gate: every single fault of
    /// every kind at every location leaves the same frame. The frame starts
    /// with a data error the preparation must keep and an ancilla error it
    /// must clear.
    #[test]
    fn the_trial_encoder_matches_qla_qecs_circuits_under_every_single_fault() {
        let seeded = || {
            let mut frame = PauliFrame::new(2 * BLOCK);
            frame.inject_y(2);
            frame.inject_x(ANCILLA_OFFSET + 2);
            frame
        };
        for plus in [false, true] {
            let mut circuit = Circuit::new(2 * BLOCK);
            let encoder = if plus {
                encode_plus_circuit()
            } else {
                encode_zero_circuit()
            };
            circuit.append_offset(&encoder, ANCILLA_OFFSET);
            let locations = BLOCK + circuit.len();
            for at in 0..locations {
                for kind in 1..=15 {
                    let mut frame = seeded();
                    let mut source = Injected {
                        faults: &[(at, kind)],
                        location: 0,
                        fired: 0,
                    };
                    noisy_ancilla_prep(&mut frame, 1e-3, plus, &mut source);
                    assert_eq!(source.location, locations, "plus = {plus}");

                    let mut reference = seeded();
                    let (mut location, mut fired) = (0, 0);
                    let mut fault = |kinds: u8| {
                        let fires = location == at && kind <= kinds;
                        location += 1;
                        fired += usize::from(fires);
                        if fires {
                            kind
                        } else {
                            0
                        }
                    };
                    for q in ANCILLA_OFFSET..ANCILLA_OFFSET + BLOCK {
                        reference.apply(CliffordGate::PrepZ(q));
                        inject(&mut reference, q, fault(3));
                    }
                    for &gate in circuit.gates() {
                        match gate {
                            Gate::H(q) => {
                                reference.apply(CliffordGate::H(q));
                                inject(&mut reference, q, fault(3));
                            }
                            Gate::Cnot(c, t) => {
                                reference.apply(CliffordGate::Cnot(c, t));
                                let code = fault(15);
                                inject(&mut reference, c, code / 4);
                                inject(&mut reference, t, code % 4);
                            }
                            other => panic!("unexpected encoder gate {other}"),
                        }
                    }
                    let case = format!("plus = {plus}, kind {kind} at location {at}");
                    assert_eq!(source.fired, fired, "{case}");
                    assert!(kind > 1 || fired == 1, "{case}: did not fire");
                    assert_eq!(frame, reference, "{case}");
                }
            }
        }
    }
}
