//! Property tests for the fault-plan text format: `parse ∘ render` is a
//! fixed point on arbitrary valid plans, and every class of seeded
//! corruption maps to its exact typed [`FaultError`] variant — never a
//! panic, never a silently weakened plan.

use proptest::prelude::*;
use qla_faults::{ChannelFaultSpec, FactoryFaultSpec, FaultError, FaultPlan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random structurally valid plan: trimmed single-line name, no
/// self-loops, no zero durations.
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let name: String = (0..rng.random_range(1..12usize))
        .map(|_| {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
            alphabet[rng.random_range(0..alphabet.len())] as char
        })
        .collect();
    let channel_faults = (0..rng.random_range(0..5usize))
        .map(|_| {
            let a = rng.random_range(0..64usize);
            let b = (a + 1 + rng.random_range(0..63usize)) % 64;
            ChannelFaultSpec {
                a,
                b,
                channels: rng.random_range(0..8usize),
                onset_windows: rng.random_range(0..100usize),
                duration_windows: rng.random_range(1..100usize),
            }
        })
        .collect();
    let factory_faults = (0..rng.random_range(0..4usize))
        .map(|_| FactoryFaultSpec {
            capacity: rng.random_range(0..16usize),
            onset_windows: rng.random_range(0..100usize),
            duration_windows: rng.random_range(1..100usize),
        })
        .collect();
    FaultPlan {
        name,
        channel_faults,
        factory_faults,
    }
}

proptest! {
    // parse ∘ render is the identity on valid plans, and render is the
    // canonical form (a second round trip reproduces the same bytes).
    #[test]
    fn parse_render_is_a_fixed_point(seed in 0u64..1_000_000) {
        let plan = random_plan(seed);
        prop_assert!(plan.validate().is_ok(), "random plans are valid");
        let text = plan.render();
        let parsed = FaultPlan::parse(&text).expect("rendered plans parse");
        prop_assert_eq!(&parsed, &plan);
        prop_assert_eq!(parsed.render(), text);
    }

    // Comments and blank lines are cosmetic: stripping or adding them
    // never changes the parsed plan.
    #[test]
    fn comments_and_blank_lines_are_ignored(seed in 0u64..1_000_000) {
        let plan = random_plan(seed);
        let decorated: String = plan
            .render()
            .lines()
            .map(|line| format!("\n# commentary\n{line}  # trailing note\n"))
            .collect();
        let parsed = FaultPlan::parse(&decorated).expect("decorated plans parse");
        prop_assert_eq!(parsed, plan);
    }

    // Every corruption class maps to its exact typed error variant.
    #[test]
    fn corruptions_fail_with_their_exact_typed_error(
        seed in 0u64..1_000_000,
        kind in 0usize..8,
    ) {
        let plan = {
            // Corruption targets need at least one fault of each kind.
            let mut p = random_plan(seed);
            if p.channel_faults.is_empty() {
                p.channel_faults.push(ChannelFaultSpec {
                    a: 0, b: 1, channels: 1, onset_windows: 0, duration_windows: 2,
                });
            }
            if p.factory_faults.is_empty() {
                p.factory_faults.push(FactoryFaultSpec {
                    capacity: 1, onset_windows: 0, duration_windows: 2,
                });
            }
            p
        };
        let text = plan.render();
        match kind {
            0 => {
                // Future format version.
                let bad = text.replacen("format_version = 1", "format_version = 99", 1);
                prop_assert_eq!(
                    FaultPlan::parse(&bad).unwrap_err(),
                    FaultError::UnsupportedVersion { found: "99".to_owned() }
                );
            }
            1 => {
                // Required key deleted.
                let bad: String = text
                    .lines()
                    .filter(|l| !l.starts_with("name ="))
                    .map(|l| format!("{l}\n"))
                    .collect();
                prop_assert_eq!(
                    FaultPlan::parse(&bad).unwrap_err(),
                    FaultError::MissingKey { key: "name".to_owned() }
                );
            }
            2 => {
                // A key given twice: the error names both lines.
                let bad = format!("{text}name = shadow\n");
                let err = FaultPlan::parse(&bad).unwrap_err();
                let lines = text.lines().count();
                prop_assert_eq!(err, FaultError::DuplicateKey {
                    line: lines + 1,
                    key: "name".to_owned(),
                    first_line: 2,
                });
            }
            3 => {
                // A key outside the grammar (also covers fault lines past
                // the declared counts, which become unknown keys).
                let bad = format!("{text}chanel_fault.0 = 0 1 1 0 1\n");
                let err = FaultPlan::parse(&bad).unwrap_err();
                prop_assert!(matches!(
                    err,
                    FaultError::UnknownKey { ref key, .. } if key == "chanel_fault.0"
                ), "{err}");
            }
            4 => {
                // Wrong arity on a channel-fault line.
                let victim = text
                    .lines()
                    .find(|l| l.starts_with("channel_fault.0"))
                    .expect("plan has a channel fault");
                let bad = text.replacen(victim, "channel_fault.0 = 1 2 3", 1);
                let err = FaultPlan::parse(&bad).unwrap_err();
                prop_assert!(matches!(
                    err,
                    FaultError::BadValue { ref key, expected, .. }
                        if key == "channel_fault.0"
                        && expected.starts_with("five space-separated integers")
                ), "{err}");
            }
            5 => {
                // A count that is not a non-negative integer.
                let victim = text
                    .lines()
                    .find(|l| l.starts_with("factory_faults ="))
                    .expect("plan has a factory count");
                let bad = text.replacen(victim, "factory_faults = many", 1);
                let err = FaultPlan::parse(&bad).unwrap_err();
                prop_assert!(matches!(
                    err,
                    FaultError::BadValue { ref key, expected, .. }
                        if key == "factory_faults"
                        && expected == "a non-negative integer count"
                ), "{err}");
            }
            6 => {
                // A line with no '=' at all, anchored to its line number.
                let bad = format!("{text}this line has no equals sign\n");
                let err = FaultPlan::parse(&bad).unwrap_err();
                let expected_line = text.lines().count() + 1;
                prop_assert!(matches!(
                    err,
                    FaultError::Syntax { line, .. } if line == expected_line
                ), "{err}");
            }
            _ => {
                // Structurally parseable but invalid: a zero duration.
                let victim = text
                    .lines()
                    .find(|l| l.starts_with("factory_fault.0"))
                    .expect("plan has a factory fault");
                let parts: Vec<&str> = victim.split(" = ").collect();
                let ints: Vec<&str> = parts[1].split(' ').collect();
                let bad = text.replacen(
                    victim,
                    &format!("factory_fault.0 = {} {} 0", ints[0], ints[1]),
                    1,
                );
                let err = FaultPlan::parse(&bad).unwrap_err();
                prop_assert!(matches!(
                    err,
                    FaultError::Invalid(ref m) if m.contains("factory_fault.0")
                        && m.contains("zero duration")
                ), "{err}");
            }
        }
    }

    // Arbitrary bytes (lossily decoded, as a file read would be) never
    // panic the parser.
    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        if let Err(err) = FaultPlan::parse(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(!err.to_string().is_empty());
        }
    }

    // Line-level splices of rendered plans: lines swapped in from another
    // plan, values replaced by hostile ones (huge counts included), lines
    // dropped, duplicated, or replaced by a raw byte.
    #[test]
    fn line_splices_of_rendered_plans_parse_or_fail_typed(
        seed in 0u64..1_000_000,
        edits in prop::collection::vec((0u8..5, 0usize..16, 0u64..1_000_000, 0u8..=255), 0..4),
    ) {
        const HOSTILE: [&str; 8] = [
            "0",
            "18446744073709551615",
            "100000000000",
            "-1",
            "1 2 3 4 5 6",
            "0 0 0 0 0",
            "",
            "=",
        ];
        let mut lines: Vec<String> = random_plan(seed).render().lines().map(str::to_owned).collect();
        for (op, at, other, byte) in edits {
            let at = at % lines.len();
            match op {
                0 => {
                    let donor = random_plan(other).render();
                    lines[at] = donor.lines().nth(at).unwrap_or("").to_owned();
                }
                1 => {
                    let key = lines[at].split(" = ").next().unwrap_or("").to_owned();
                    lines[at] = format!("{key} = {}", HOSTILE[usize::from(byte) % HOSTILE.len()]);
                }
                2 => {
                    lines.remove(at);
                }
                3 => {
                    let copy = lines[at].clone();
                    lines.insert(other as usize % lines.len(), copy);
                }
                _ => lines[at] = String::from_utf8_lossy(&[byte; 3]).into_owned(),
            }
            if lines.is_empty() {
                break;
            }
        }
        if let Err(err) = FaultPlan::parse(&lines.join("\n")) {
            prop_assert!(!err.to_string().is_empty());
        }
    }
}
