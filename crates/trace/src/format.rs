//! The in-memory [`Trace`], its builder, and the byte-stable text format.
//!
//! A trace is an ordered instruction stream of logical operations over
//! *named* logical qubits. The text serialisation mirrors the
//! `MachineSpec` `key = value` idiom: a two-line header, then one
//! declaration or instruction per line, `#` comments, and a loud typed
//! error for every way a file can be wrong. `render` → `parse` is
//! byte-exact in both directions (see `tests/trace_format.rs`).

use qla_circuit::{Circuit, Gate, GateCounts, Qubit};
use serde::Serialize;
use std::collections::HashMap;

/// The version this build reads and writes.
const FORMAT_VERSION: &str = "1";

/// Index of a logical qubit within a trace's declaration order.
pub type QubitId = Qubit;

/// An ordered logical instruction stream over named logical qubits.
///
/// Construct one with [`Trace::builder`], a generator from
/// [`crate::generators`], or [`Trace::parse`]. Instruction operands are
/// [`QubitId`]s indexing the declaration-ordered name table, so a trace
/// doubles as a [`Circuit`] (via [`Trace::to_circuit`]) whose qubit `i`
/// is the `i`-th declared name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Trace {
    name: String,
    qubits: Vec<String>,
    ops: Vec<Gate>,
}

impl Trace {
    /// Start building a trace. Panics on an invalid program name — the
    /// builder is the internal API and misuse is a programming error,
    /// unlike [`Trace::parse`] which returns typed errors for bad input.
    #[must_use]
    pub fn builder(name: &str) -> TraceBuilder {
        TraceBuilder::new(name)
    }

    /// The program name from the `name = ...` header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of declared logical qubits.
    #[must_use]
    pub fn qubit_count(&self) -> usize {
        self.qubits.len()
    }

    /// The declared qubit names, in declaration (= id) order.
    #[must_use]
    pub fn qubit_names(&self) -> &[String] {
        &self.qubits
    }

    /// The name of qubit `id`. Panics when `id` was never declared.
    #[must_use]
    pub fn qubit_name(&self, id: QubitId) -> &str {
        &self.qubits[id]
    }

    /// The instruction stream, in program order.
    #[must_use]
    pub fn ops(&self) -> &[Gate] {
        &self.ops
    }

    /// Iterate over the instruction stream in program order.
    pub fn iter(&self) -> impl Iterator<Item = &Gate> {
        self.ops.iter()
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Gate-class census of the instruction stream.
    #[must_use]
    pub fn counts(&self) -> GateCounts {
        self.to_circuit().counts()
    }

    /// The trace as a [`Circuit`] over its declaration-ordered qubits —
    /// the bridge to `Schedule::asap` hazard analysis and everything else
    /// the circuit layer offers.
    #[must_use]
    pub fn to_circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.qubit_count());
        for &op in &self.ops {
            c.push(op);
        }
        c
    }

    /// Serialise to the canonical text form. `parse(render(t)) == t` and
    /// `render(parse(s))` reproduces a canonical `s` byte-for-byte.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("format_version = ");
        out.push_str(FORMAT_VERSION);
        out.push('\n');
        out.push_str("name = ");
        out.push_str(&self.name);
        out.push('\n');
        for q in &self.qubits {
            out.push_str("qubit ");
            out.push_str(q);
            out.push('\n');
        }
        for op in &self.ops {
            out.push_str(op.mnemonic());
            for q in op.qubits() {
                out.push(' ');
                out.push_str(&self.qubits[q]);
            }
            out.push('\n');
        }
        out
    }

    /// Parse the text form. Every malformed input maps to a typed,
    /// line-numbered [`TraceError`]; nothing is skipped or guessed.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        Parser::new(text).run()
    }
}

/// Incremental [`Trace`] construction for generators and tests.
///
/// The builder panics on misuse (bad names, undeclared operand ids,
/// repeated operands) because its callers are code, not files; file
/// input goes through [`Trace::parse`] and gets typed errors instead.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    name: String,
    qubits: Vec<String>,
    index: HashMap<String, QubitId>,
    ops: Vec<Gate>,
}

impl TraceBuilder {
    /// Start a trace named `name`.
    #[must_use]
    pub fn new(name: &str) -> TraceBuilder {
        if let Err(reason) = check_program_name(name) {
            panic!("invalid trace name '{name}': {reason}");
        }
        TraceBuilder {
            name: name.to_string(),
            qubits: Vec::new(),
            index: HashMap::new(),
            ops: Vec::new(),
        }
    }

    /// Declare (or look up) a logical qubit by name and return its id.
    pub fn qubit(&mut self, name: &str) -> QubitId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        if let Err(reason) = check_qubit_name(name) {
            panic!("invalid qubit name '{name}': {reason}");
        }
        let id = self.qubits.len();
        self.qubits.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Declare `count` qubits named `<prefix>0 ... <prefix>{count-1}` and
    /// return their ids — the register idiom the generators use.
    pub fn register(&mut self, prefix: &str, count: usize) -> Vec<QubitId> {
        (0..count)
            .map(|i| self.qubit(&format!("{prefix}{i}")))
            .collect()
    }

    /// Append an instruction. Panics when an operand id was never
    /// declared or the same qubit appears twice in one instruction
    /// (mirroring `Circuit::push`).
    pub fn push(&mut self, op: Gate) -> &mut Self {
        let operands = op.qubits();
        for &q in &operands {
            assert!(
                q < self.qubits.len(),
                "instruction '{}' uses undeclared qubit id {q} ({} declared)",
                op.mnemonic(),
                self.qubits.len()
            );
        }
        for (i, &q) in operands.iter().enumerate() {
            assert!(
                !operands[..i].contains(&q),
                "instruction '{}' repeats operand '{}'",
                op.mnemonic(),
                self.qubits[q]
            );
        }
        self.ops.push(op);
        self
    }

    /// Number of instructions appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no instructions have been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finish and return the immutable trace.
    #[must_use]
    pub fn build(self) -> Trace {
        Trace {
            name: self.name,
            qubits: self.qubits,
            ops: self.ops,
        }
    }
}

/// A qubit name: one token of printable non-whitespace ASCII, free of
/// the characters the text format gives meaning to.
fn check_qubit_name(name: &str) -> Result<(), &'static str> {
    if name.is_empty() {
        return Err("empty");
    }
    if !name.bytes().all(|b| b.is_ascii_graphic()) {
        return Err("must be printable ASCII without whitespace");
    }
    if name.contains('#') || name.contains('=') {
        return Err("must not contain '#' or '='");
    }
    Ok(())
}

/// A program name: like a qubit name, but a single header line wide —
/// interior spaces are fine, structural characters and edges are not.
fn check_program_name(name: &str) -> Result<(), &'static str> {
    if name.is_empty() {
        return Err("empty");
    }
    if name != name.trim() {
        return Err("must not start or end with whitespace");
    }
    if !name.bytes().all(|b| b.is_ascii_graphic() || b == b' ') {
        return Err("must be printable ASCII");
    }
    if name.contains('#') || name.contains('=') {
        return Err("must not contain '#' or '='");
    }
    Ok(())
}

/// Why a trace file failed to parse. Every variant that a single line is
/// to blame for carries its 1-based line number, with enough context to
/// fix the file without re-reading the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line matched no rule of the grammar.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The `format_version` header is not one this build understands.
    UnsupportedVersion {
        /// The version string found.
        found: String,
    },
    /// A required header line was absent or out of order.
    MissingHeader {
        /// The missing header key.
        key: &'static str,
    },
    /// An instruction mnemonic outside the instruction set.
    UnknownOp {
        /// 1-based line number.
        line: usize,
        /// The unrecognised mnemonic.
        op: String,
    },
    /// An instruction with the wrong operand count.
    WrongArity {
        /// 1-based line number.
        line: usize,
        /// The mnemonic.
        op: String,
        /// Operands the mnemonic demands.
        expected: usize,
        /// Operands found on the line.
        found: usize,
    },
    /// A qubit declared more than once.
    DuplicateQubit {
        /// Line of the second declaration.
        line: usize,
        /// The duplicated name.
        name: String,
        /// Line of the first declaration.
        first_line: usize,
    },
    /// A `qubit` declaration after the first instruction.
    LateDeclaration {
        /// 1-based line number.
        line: usize,
        /// The late-declared name.
        name: String,
    },
    /// An instruction operand that was never declared.
    UndeclaredQubit {
        /// 1-based line number.
        line: usize,
        /// The undeclared name.
        name: String,
    },
    /// The same qubit used twice in one instruction.
    RepeatedOperand {
        /// 1-based line number.
        line: usize,
        /// The repeated name.
        name: String,
    },
    /// A name the format cannot represent.
    BadName {
        /// 1-based line number.
        line: usize,
        /// The offending name.
        name: String,
        /// Why it is invalid.
        reason: &'static str,
    },
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Syntax { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
            TraceError::UnsupportedVersion { found } => write!(
                f,
                "unsupported trace format_version '{found}' (this build reads version {FORMAT_VERSION})"
            ),
            TraceError::MissingHeader { key } => {
                write!(f, "trace is missing the '{key} = ...' header")
            }
            TraceError::UnknownOp { line, op } => {
                write!(f, "trace line {line}: unknown op '{op}'")
            }
            TraceError::WrongArity {
                line,
                op,
                expected,
                found,
            } => write!(
                f,
                "trace line {line}: op '{op}' takes {expected} operand(s), found {found}"
            ),
            TraceError::DuplicateQubit {
                line,
                name,
                first_line,
            } => write!(
                f,
                "trace line {line}: qubit '{name}' already declared on line {first_line}"
            ),
            TraceError::LateDeclaration { line, name } => write!(
                f,
                "trace line {line}: qubit '{name}' declared after the first instruction (declarations must come first)"
            ),
            TraceError::UndeclaredQubit { line, name } => {
                write!(f, "trace line {line}: undeclared qubit '{name}'")
            }
            TraceError::RepeatedOperand { line, name } => {
                write!(f, "trace line {line}: qubit '{name}' repeated within one instruction")
            }
            TraceError::BadName { line, name, reason } => {
                write!(f, "trace line {line}: invalid name '{name}': {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Line-by-line parser for the text form.
struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines().enumerate(),
        }
    }

    /// The next meaningful line as `(1-based number, comment-stripped
    /// trimmed content)`, skipping blanks and pure comments.
    fn next_content(&mut self) -> Option<(usize, &'a str)> {
        for (idx, raw) in self.lines.by_ref() {
            let content = match raw.split_once('#') {
                Some((before, _)) => before,
                None => raw,
            }
            .trim();
            if !content.is_empty() {
                return Some((idx + 1, content));
            }
        }
        None
    }

    /// A header line `key = value`; anything else is a typed error.
    fn header(&mut self, key: &'static str) -> Result<(usize, String), TraceError> {
        let Some((line, content)) = self.next_content() else {
            return Err(TraceError::MissingHeader { key });
        };
        let Some((found_key, value)) = content.split_once('=') else {
            return Err(TraceError::MissingHeader { key });
        };
        if found_key.trim() != key {
            return Err(TraceError::MissingHeader { key });
        }
        Ok((line, value.trim().to_string()))
    }

    fn run(mut self) -> Result<Trace, TraceError> {
        let (_, version) = self.header("format_version")?;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let (name_line, name) = self.header("name")?;
        if let Err(reason) = check_program_name(&name) {
            return Err(TraceError::BadName {
                line: name_line,
                name,
                reason,
            });
        }

        let mut qubits: Vec<String> = Vec::new();
        let mut index: HashMap<String, (QubitId, usize)> = HashMap::new();
        let mut ops: Vec<Gate> = Vec::new();

        while let Some((line, content)) = self.next_content() {
            if content.contains('=') {
                return Err(TraceError::Syntax {
                    line,
                    message: format!(
                        "unexpected '{content}' (headers are complete; expected \
                         `qubit <name>` or an instruction)"
                    ),
                });
            }
            let mut tokens = content.split_whitespace();
            let head = tokens.next().expect("next_content never yields blanks");
            let operands: Vec<&str> = tokens.collect();

            if head == "qubit" {
                if operands.len() != 1 {
                    return Err(TraceError::Syntax {
                        line,
                        message: format!(
                            "`qubit` declares exactly one name, found {}",
                            operands.len()
                        ),
                    });
                }
                let name = operands[0];
                if !ops.is_empty() {
                    return Err(TraceError::LateDeclaration {
                        line,
                        name: name.to_string(),
                    });
                }
                if let Err(reason) = check_qubit_name(name) {
                    return Err(TraceError::BadName {
                        line,
                        name: name.to_string(),
                        reason,
                    });
                }
                if let Some(&(_, first_line)) = index.get(name) {
                    return Err(TraceError::DuplicateQubit {
                        line,
                        name: name.to_string(),
                        first_line,
                    });
                }
                index.insert(name.to_string(), (qubits.len(), line));
                qubits.push(name.to_string());
                continue;
            }

            let Some(expected) = Gate::mnemonic_arity(head) else {
                return Err(TraceError::UnknownOp {
                    line,
                    op: head.to_string(),
                });
            };
            if operands.len() != expected {
                return Err(TraceError::WrongArity {
                    line,
                    op: head.to_string(),
                    expected,
                    found: operands.len(),
                });
            }
            let mut ids = Vec::with_capacity(expected);
            for (i, name) in operands.iter().enumerate() {
                let Some(&(id, _)) = index.get(*name) else {
                    return Err(TraceError::UndeclaredQubit {
                        line,
                        name: (*name).to_string(),
                    });
                };
                if ids[..i].contains(&id) {
                    return Err(TraceError::RepeatedOperand {
                        line,
                        name: (*name).to_string(),
                    });
                }
                ids.push(id);
            }
            ops.push(
                Gate::from_mnemonic(head, &ids)
                    .expect("mnemonic_arity and operand count already checked"),
            );
        }

        Ok(Trace { name, qubits, ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Trace {
        let mut t = Trace::builder("demo");
        let a = t.qubit("a");
        let b = t.qubit("b");
        let c = t.qubit("spare");
        t.push(Gate::H(a))
            .push(Gate::Cnot(a, b))
            .push(Gate::T(b))
            .push(Gate::Toffoli {
                control1: a,
                control2: b,
                target: c,
            })
            .push(Gate::MeasureZ(c));
        t.build()
    }

    #[test]
    fn render_is_canonical_and_round_trips() {
        let t = small();
        let text = t.render();
        assert_eq!(
            text,
            "format_version = 1\n\
             name = demo\n\
             qubit a\n\
             qubit b\n\
             qubit spare\n\
             h a\n\
             cnot a b\n\
             t b\n\
             toffoli a b spare\n\
             measure spare\n"
        );
        let back = Trace::parse(&text).expect("canonical text parses");
        assert_eq!(back, t);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parse_tolerates_comments_blanks_and_padding() {
        let text = "# a hand-written file\n\
                    format_version = 1\n\n\
                    name = demo   # trailing comment\n\
                    qubit a\n\
                    qubit b\n\
                    qubit spare\n\
                    \th   a\n\
                    cnot a b\n\
                    t b\n\
                    toffoli a b spare\n\
                    measure spare";
        assert_eq!(Trace::parse(text).expect("messy text parses"), small());
    }

    #[test]
    fn counts_and_circuit_agree() {
        let t = small();
        assert_eq!(t.len(), 5);
        assert_eq!(t.qubit_count(), 3);
        assert_eq!(t.qubit_name(2), "spare");
        let counts = t.counts();
        assert_eq!(counts.single_qubit_clifford, 1);
        assert_eq!(counts.t_like, 1);
        assert_eq!(counts.two_qubit, 1);
        assert_eq!(counts.toffoli, 1);
        assert_eq!(counts.measurements, 1);
        assert_eq!(t.to_circuit().len(), t.len());
    }

    /// A malformed input paired with the predicate its error must satisfy.
    type ErrorCase = (&'static str, fn(&TraceError) -> bool);

    #[test]
    fn every_malformed_input_gets_its_typed_error() {
        let cases: [ErrorCase; 10] = [
            ("", |e| {
                matches!(
                    e,
                    TraceError::MissingHeader {
                        key: "format_version"
                    }
                )
            }),
            ("format_version = 9\nname = x\n", |e| {
                matches!(e, TraceError::UnsupportedVersion { .. })
            }),
            ("format_version = 1\nqubit a\n", |e| {
                matches!(e, TraceError::MissingHeader { key: "name" })
            }),
            (
                "format_version = 1\nname = x\nqubit a\nfrobnicate a\n",
                |e| matches!(e, TraceError::UnknownOp { line: 4, .. }),
            ),
            ("format_version = 1\nname = x\nqubit a\ncnot a\n", |e| {
                matches!(
                    e,
                    TraceError::WrongArity {
                        line: 4,
                        expected: 2,
                        found: 1,
                        ..
                    }
                )
            }),
            ("format_version = 1\nname = x\nqubit a\nqubit a\n", |e| {
                matches!(
                    e,
                    TraceError::DuplicateQubit {
                        line: 4,
                        first_line: 3,
                        ..
                    }
                )
            }),
            (
                "format_version = 1\nname = x\nqubit a\nh a\nqubit b\n",
                |e| matches!(e, TraceError::LateDeclaration { line: 5, .. }),
            ),
            ("format_version = 1\nname = x\nqubit a\nh b\n", |e| {
                matches!(e, TraceError::UndeclaredQubit { line: 4, .. })
            }),
            (
                "format_version = 1\nname = x\nqubit a\nqubit b\ncnot a a\n",
                |e| matches!(e, TraceError::RepeatedOperand { line: 5, .. }),
            ),
            (
                "format_version = 1\nname = x\nqubit a\nstray = line\n",
                |e| matches!(e, TraceError::Syntax { line: 4, .. }),
            ),
        ];
        for (text, is_expected) in cases {
            let err = Trace::parse(text).expect_err("malformed input must fail");
            assert!(is_expected(&err), "unexpected error for {text:?}: {err}");
            // Every error renders with context, never a bare variant name.
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "repeats operand")]
    fn builder_rejects_repeated_operands() {
        let mut t = Trace::builder("bad");
        let a = t.qubit("a");
        t.push(Gate::Cnot(a, a));
    }

    #[test]
    #[should_panic(expected = "undeclared qubit id")]
    fn builder_rejects_undeclared_ids() {
        Trace::builder("bad").push(Gate::H(0));
    }
}
