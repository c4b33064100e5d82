//! Round-trip and golden tests for the machine-spec text format.
//!
//! `parse(render(spec)) == spec` must hold for every built-in profile and
//! for randomized mutations of them, and the rendered `expected` profile is
//! byte-pinned by a committed golden so the format itself cannot drift
//! silently (a drifted format would orphan every spec file users have
//! written). Regenerate the golden together with the report fixtures:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qla-bench --test report_golden
//! UPDATE_GOLDEN=1 cargo test -p qla-core  --test spec_roundtrip
//! ```

use proptest::prelude::*;
use qla_core::{EccMode, MachineSpec, SpecError, BUILTIN_PROFILES};
use qla_obs::ObsDetail;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

#[test]
fn every_builtin_round_trips_byte_stably() {
    for name in BUILTIN_PROFILES {
        let spec = MachineSpec::builtin(name).unwrap();
        let rendered = spec.render();
        let parsed = MachineSpec::parse(&rendered).unwrap();
        assert_eq!(parsed, spec, "{name}: value round-trip");
        assert_eq!(parsed.render(), rendered, "{name}: byte round-trip");
    }
}

#[test]
fn rendered_expected_profile_matches_the_committed_golden() {
    let actual = MachineSpec::expected().render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/expected.spec");
        std::fs::write(path, &actual).expect("rewrite expected.spec");
        return;
    }
    assert_eq!(
        actual,
        include_str!("golden/expected.spec"),
        "the spec text format drifted; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p qla-core --test spec_roundtrip \
         and bump format_version if existing files stop parsing"
    );
}

/// Property-style randomized round-trip: mutate every numeric field of a
/// built-in through seeded draws (including awkward magnitudes from 1e-12
/// up) and require exact value round-trips. Rust's shortest-representation
/// float formatting guarantees re-parsing yields identical bits; this test
/// is what keeps that assumption honest if the renderer ever changes.
#[test]
fn randomized_specs_round_trip_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_5BEC);
    for case in 0..200u32 {
        let mut spec =
            MachineSpec::builtin(BUILTIN_PROFILES[case as usize % BUILTIN_PROFILES.len()]).unwrap();

        let rate = |rng: &mut ChaCha8Rng| -> f64 {
            let exponent = rng.random_range(-12.0..0.0);
            10f64.powf(exponent)
        };

        spec.name = format!("fuzz-{case}");
        spec.description = format!("randomized case {case}");
        spec.logical_qubits = rng.random_range(1..100_000);
        spec.recursion_level = rng.random_range(1..=2);
        spec.bandwidth = rng.random_range(1..64);
        spec.ecc = if rng.random::<bool>() {
            EccMode::Paper
        } else {
            EccMode::Structural
        };
        spec.tech.cell_size_um = rng.random_range(1.0..100.0);
        spec.tech.failures.single_gate = rate(&mut rng);
        spec.tech.failures.double_gate = rate(&mut rng);
        spec.tech.failures.measure = rate(&mut rng);
        spec.tech.failures.move_per_cell = rate(&mut rng);
        spec.tech.failures.move_per_um = rate(&mut rng);
        spec.interconnect.creation_fidelity = rng.random_range(0.9..1.0);
        spec.interconnect.per_cell_error = rate(&mut rng);
        spec.sweep.component_rates = (0..rng.random_range(1..20))
            .map(|_| rate(&mut rng))
            .collect();
        spec.sweep.threshold_scan_points = rng.random_range(2..40);
        spec.sweep.bandwidths = (0..rng.random_range(1..6))
            .map(|_| rng.random_range(1..32))
            .collect();
        spec.sweep.sim.offered_loads = (0..rng.random_range(1..8))
            .map(|_| rng.random_range(0.01..64.0))
            .collect();
        spec.sweep.sim.burst_factor = rng.random_range(1.0..8.0);
        spec.sweep.sim.max_in_flight = rng.random_range(1..1_000);
        spec.sweep.sim.ancilla_capacity = rng.random_range(1..100);
        spec.sweep.sim.warmup_windows = rng.random_range(0..10);
        spec.sweep.sim.measure_windows = rng.random_range(1..100);
        spec.sweep.sim.tail_offered_load = rng.random_range(0.01..32.0);
        spec.sweep.sim.contended_requests = rng.random_range(2..32);
        spec.sweep.trace.adder_bits = rng.random_range(1..64);
        spec.sweep.trace.modexp_bits = rng.random_range(4..64);
        spec.sweep.trace.modexp_multiplier_calls = rng.random_range(1..16);
        spec.sweep.trace.random_qubits = rng.random_range(3..256);
        spec.sweep.trace.random_ops = rng.random_range(1..10_000);
        spec.sweep.trace.scaling_adder_bits = (0..rng.random_range(1..6))
            .map(|_| rng.random_range(1..64))
            .collect();
        spec.sweep.trace.scaling_modexp_bits = (0..rng.random_range(1..6))
            .map(|_| rng.random_range(4..64))
            .collect();
        spec.sweep.obs.detail = if rng.random::<bool>() {
            ObsDetail::Full
        } else {
            ObsDetail::Light
        };
        spec.sweep.obs.sample_every = rng.random_range(1..1000);

        let rendered = spec.render();
        let parsed = MachineSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("case {case} failed to parse: {e}\n{rendered}"));
        assert_eq!(parsed, spec, "case {case} did not round-trip");
    }
}

/// Values that sit on or past the edge of what some key accepts.
const HOSTILE: [&str; 10] = [
    "0",
    "-1",
    "18446744073709551615",
    "4294967296",
    "1e308",
    "1e-320",
    "nan",
    "",
    "paper, full",
    "=",
];

/// Parse, and validate what parses: either step may refuse the text, but
/// only with a typed error that renders.
fn parse_and_validate(text: &str) -> Result<MachineSpec, SpecError> {
    let spec = MachineSpec::parse(text)?;
    spec.validate()?;
    Ok(spec)
}

proptest! {
    // Arbitrary bytes (lossily decoded, as a file read would be) never
    // panic the parser.
    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        if let Err(err) = parse_and_validate(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(!err.to_string().is_empty());
        }
    }

    // Line-level splices of rendered built-ins: lines swapped in from
    // another profile, values replaced by hostile ones, lines dropped,
    // duplicated, or replaced by a raw byte. Few edits keep most cases a
    // complete spec, so validation runs on hostile values too.
    #[test]
    fn line_splices_of_rendered_specs_parse_or_fail_typed(
        profile in 0usize..4,
        edits in prop::collection::vec((0u8..5, 0usize..80, 0usize..4, 0u8..=255), 0..4),
    ) {
        let render = |p: usize| MachineSpec::builtin(BUILTIN_PROFILES[p]).unwrap().render();
        let mut lines: Vec<String> = render(profile).lines().map(str::to_owned).collect();
        for (op, at, other, byte) in edits {
            let at = at % lines.len();
            match op {
                0 => lines[at] = render(other).lines().nth(at).unwrap_or("").to_owned(),
                1 => {
                    let key = lines[at].split(" = ").next().unwrap_or("").to_owned();
                    lines[at] = format!("{key} = {}", HOSTILE[usize::from(byte) % HOSTILE.len()]);
                }
                2 => {
                    lines.remove(at);
                }
                3 => {
                    let copy = lines[at].clone();
                    lines.insert(other % lines.len(), copy);
                }
                _ => lines[at] = String::from_utf8_lossy(&[byte; 3]).into_owned(),
            }
            if lines.is_empty() {
                break;
            }
        }
        let text = lines.join("\n");
        if let Err(err) = parse_and_validate(&text) {
            prop_assert!(!err.to_string().is_empty());
        }
    }
}
