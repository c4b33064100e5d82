//! The correctness gate: every operation a run attempts is checked, and a
//! run with any failed operation is reported as incorrect with its
//! metrics discarded.

use qla_core::content_hash;

/// The content digest of a rendered output (FNV-1a64 + SplitMix64, the
/// serve cache's hash).
#[must_use]
pub fn digest(bytes: &str) -> u64 {
    content_hash(bytes.as_bytes())
}

/// `Err` naming the mismatch when `bytes` does not hash to `expected`.
///
/// # Errors
/// Returns a message with both digests when they differ.
pub fn check_digest(what: &str, bytes: &str, expected: u64) -> Result<(), String> {
    let actual = digest(bytes);
    if actual == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {actual:#018x} differs from the pinned {expected:#018x}"
        ))
    }
}

/// Push `message` onto `problems` unless `ok`.
pub fn expect(problems: &mut Vec<String>, ok: bool, message: impl FnOnce() -> String) {
    if !ok {
        problems.push(message());
    }
}

/// Attempted and failed operations of one run, with the reasons.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Every failed check, in order.
    pub failures: Vec<String>,
}

impl Gate {
    /// Record one operation and the problems its checks found.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Record `count` operations that all passed.
    pub fn record_ok(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Whether every operation passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_digest_trips_the_gate() {
        let bytes = "{\"report\":1}";
        assert!(check_digest("report", bytes, digest(bytes)).is_ok());
        let err = check_digest("report", bytes, digest(bytes) ^ 1).unwrap_err();
        assert!(err.contains("report: digest"), "{err}");

        let mut gate = Gate::default();
        gate.record(Vec::new());
        assert!(gate.correct());
        gate.record(vec![err]);
        assert!(!gate.correct());
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn an_empty_run_is_not_correct() {
        assert!(!Gate::default().correct());
    }
}
