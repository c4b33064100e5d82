//! Property tests for the trace text format.
//!
//! Two pillars, matching the serialisation contract in
//! [`qla_trace::format`]:
//!
//! 1. **Round-trip stability**: any trace the generators can produce
//!    survives `render` → `parse` with byte-identical re-rendering and
//!    value equality. `render` is the canonical form, so this pins both
//!    directions at once.
//! 2. **Seeded-fuzz error coverage**: structured corruptions of a valid
//!    rendering (unknown op, duplicate qubit declaration, malformed
//!    line, undeclared operand, wrong arity, bad version, late
//!    declaration) must fail loudly with the *typed* error for that
//!    corruption — never a panic, never a silent partial parse.

use proptest::prelude::*;
use qla_trace::generators::{modexp_program, qcla_adder, random_clifford_t};
use qla_trace::{Trace, TraceError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    // Seeded random Clifford+T programs cover the whole instruction set
    // (every mnemonic family, 1/2/3-operand gates, measures) at varied
    // register widths; the rendered bytes must be a fixed point of
    // parse ∘ render and the parsed value must equal the original.
    #[test]
    fn random_traces_round_trip_byte_identically(
        seed in 0u64..1_000_000,
        qubits in 3usize..24,
        ops in 1usize..120,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = random_clifford_t(qubits, ops, &mut rng);
        let text = trace.render();
        let parsed = Trace::parse(&text).expect("rendered traces always parse");
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.render(), text);
    }

    // The structured generators (the traces the experiments actually
    // replay) obey the same fixed-point law.
    #[test]
    fn generator_traces_round_trip_byte_identically(bits in 1usize..12, calls in 1usize..3) {
        for trace in [qcla_adder(bits), modexp_program(bits.max(4), calls)] {
            let text = trace.render();
            let parsed = Trace::parse(&text).expect("rendered traces always parse");
            prop_assert_eq!(&parsed, &trace);
            prop_assert_eq!(parsed.render(), text);
        }
    }

    // Comments, blank lines, and horizontal padding are presentation
    // only: stripping them back out through parse → render recovers the
    // canonical bytes exactly.
    #[test]
    fn decorated_renderings_parse_back_to_canonical_bytes(
        seed in 0u64..1_000_000,
        qubits in 3usize..12,
        ops in 1usize..40,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = random_clifford_t(qubits, ops, &mut rng);
        let text = trace.render();
        let decorated: String = text
            .lines()
            .enumerate()
            .map(|(i, line)| match i % 3 {
                0 => format!("  {line}  # trailing comment\n\n"),
                1 => format!("\t{line}\n# full-line comment\n"),
                _ => format!("{line}\n"),
            })
            .collect();
        let parsed = Trace::parse(&decorated).expect("decoration never changes meaning");
        prop_assert_eq!(parsed.render(), text);
    }

    // Seeded fuzz over structured corruptions: each kind of damage to a
    // valid rendering must surface as its own TraceError variant.
    #[test]
    fn corrupted_renderings_fail_with_the_typed_error(
        seed in 0u64..1_000_000,
        qubits in 3usize..12,
        ops in 1usize..40,
        kind in 0usize..7,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = random_clifford_t(qubits, ops, &mut rng);
        let text = trace.render();
        // Line index (0-based) of the first instruction: two headers
        // plus one declaration per qubit.
        let first_op_index = 2 + trace.qubit_count();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let first_qubit = lines[2].strip_prefix("qubit ").expect("first declaration").to_owned();
        let corrupted = match kind {
            // Unknown mnemonic on an instruction line.
            0 => {
                lines[first_op_index] = format!("frobnicate {first_qubit}");
                lines.join("\n")
            }
            // The same qubit declared twice.
            1 => {
                lines.insert(3, format!("qubit {first_qubit}"));
                lines.join("\n")
            }
            // A line no grammar rule matches (stray '=' after headers).
            2 => {
                lines.insert(2, "stray = assignment".to_owned());
                lines.join("\n")
            }
            // An operand never declared.
            3 => {
                lines.push("x ghost".to_owned());
                lines.join("\n")
            }
            // A real mnemonic with the wrong operand count.
            4 => {
                lines[first_op_index] = format!("cnot {first_qubit}");
                lines.join("\n")
            }
            // A format version this build does not understand.
            5 => {
                lines[0] = "format_version = 99".to_owned();
                lines.join("\n")
            }
            // A declaration after instructions have begun.
            _ => {
                lines.push("qubit latecomer".to_owned());
                lines.join("\n")
            }
        };
        let err = Trace::parse(&corrupted).expect_err("corruption must not parse");
        match kind {
            0 => prop_assert!(
                matches!(&err, TraceError::UnknownOp { op, .. } if op == "frobnicate"),
                "kind 0 got {err:?}"
            ),
            1 => prop_assert!(
                matches!(&err, TraceError::DuplicateQubit { name, .. } if *name == first_qubit),
                "kind 1 got {err:?}"
            ),
            2 => prop_assert!(matches!(&err, TraceError::Syntax { .. }), "kind 2 got {err:?}"),
            3 => prop_assert!(
                matches!(&err, TraceError::UndeclaredQubit { name, .. } if name == "ghost"),
                "kind 3 got {err:?}"
            ),
            4 => prop_assert!(
                matches!(
                    &err,
                    TraceError::WrongArity { op, expected: 2, found: 1, .. } if op == "cnot"
                ),
                "kind 4 got {err:?}"
            ),
            5 => prop_assert!(
                matches!(&err, TraceError::UnsupportedVersion { found } if found == "99"),
                "kind 5 got {err:?}"
            ),
            _ => prop_assert!(
                matches!(&err, TraceError::LateDeclaration { name, .. } if name == "latecomer"),
                "kind 6 got {err:?}"
            ),
        }
        // Every error renders a loud, line-anchored message.
        prop_assert!(!err.to_string().is_empty());
    }

    // Truncation at any byte boundary never panics: it either yields a
    // (shorter) valid trace or a typed error.
    #[test]
    fn truncated_renderings_never_panic(
        seed in 0u64..1_000_000,
        qubits in 3usize..10,
        ops in 1usize..30,
        cut in 0.0f64..1.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = random_clifford_t(qubits, ops, &mut rng);
        let text = trace.render();
        let mut at = (cut * text.len() as f64) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        match Trace::parse(&text[..at]) {
            Ok(partial) => prop_assert!(partial.len() <= trace.len()),
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
    }
}
