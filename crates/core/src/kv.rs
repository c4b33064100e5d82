//! The one `key = value` scanner behind the machine-spec text format
//! ([`MachineSpec`](crate::MachineSpec)).
//!
//! The grammar is one `key = value` pair per line. `#` starts a comment
//! that runs to the end of the line, blank lines are ignored, and keys and
//! values are trimmed. A key may appear at most once. A format reads the
//! keys it knows with the loud getters of [`Fields`] — a missing key or a
//! malformed value is an error, never a default — and then calls
//! [`Fields::finish`], which rejects whatever is left. Every [`KvError`]
//! except [`KvError::MissingKey`] names the 1-based line to blame, and
//! the spec maps it onto its own error type (`spec line N: …`).

use std::collections::HashMap;

/// One `key = value` occurrence.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The trimmed value text.
    pub value: &'a str,
}

/// Why a `key = value` text failed to scan or to yield a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// A line was not `key = value`.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A key given twice.
    DuplicateKey {
        /// Line of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
        /// Line of the first occurrence.
        first_line: usize,
    },
    /// A required key was absent.
    MissingKey {
        /// The missing key.
        key: String,
    },
    /// A key the format does not read (the earliest such line).
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognised key.
        key: String,
    },
    /// A value that does not parse as what its key demands.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value is malformed.
        key: String,
        /// The offending value text.
        value: String,
        /// What the key demands.
        expected: &'static str,
    },
}

/// The scanned keys of one text, borrowed from it, with loud-take
/// semantics.
pub struct Fields<'a> {
    map: HashMap<&'a str, Field<'a>>,
}

impl<'a> Fields<'a> {
    /// Scan `text` into its keys.
    ///
    /// # Errors
    /// [`KvError::Syntax`] for a line without `=` or with an empty key,
    /// [`KvError::DuplicateKey`] for a key given twice — whichever comes
    /// first in the text.
    pub fn scan(text: &'a str) -> Result<Self, KvError> {
        let mut map = HashMap::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(KvError::Syntax {
                    line,
                    message: format!("expected `key = value`, got {content:?}"),
                });
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(KvError::Syntax {
                    line,
                    message: "missing key before '='".to_owned(),
                });
            }
            let field = Field {
                line,
                value: value.trim(),
            };
            if let Some(first) = map.insert(key, field) {
                return Err(KvError::DuplicateKey {
                    line,
                    key: key.to_owned(),
                    first_line: first.line,
                });
            }
        }
        Ok(Fields { map })
    }

    /// Remove and return `key`.
    ///
    /// # Errors
    /// [`KvError::MissingKey`] if the text does not assign it.
    pub fn take(&mut self, key: &str) -> Result<Field<'a>, KvError> {
        self.map.remove(key).ok_or_else(|| KvError::MissingKey {
            key: key.to_owned(),
        })
    }

    /// Remove `key` and parse its value with `parse` (`None` = malformed).
    ///
    /// # Errors
    /// [`KvError::MissingKey`], or [`KvError::BadValue`] naming
    /// `expected` when `parse` refuses the value.
    pub fn value<T>(
        &mut self,
        key: &str,
        expected: &'static str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, KvError> {
        let field = self.take(key)?;
        parse(field.value).ok_or_else(|| bad_value(field.line, key, field.value, expected))
    }

    /// Remove `key` and parse its value as a comma-separated list, each
    /// trimmed item through `parse`.
    ///
    /// # Errors
    /// [`KvError::MissingKey`], or [`KvError::BadValue`] carrying the
    /// first item `parse` refuses.
    pub fn list<T>(
        &mut self,
        key: &str,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, KvError> {
        let field = self.take(key)?;
        field
            .value
            .split(',')
            .map(|item| {
                let item = item.trim();
                parse(item).ok_or_else(|| bad_value(field.line, key, item, expected))
            })
            .collect()
    }

    /// Reject anything left over: an unread key is almost always a typo
    /// of a real one and must never be silently ignored.
    ///
    /// # Errors
    /// [`KvError::UnknownKey`] for the leftover key on the earliest line.
    pub fn finish(self) -> Result<(), KvError> {
        match self.map.into_iter().min_by_key(|(_, field)| field.line) {
            None => Ok(()),
            Some((key, field)) => Err(KvError::UnknownKey {
                line: field.line,
                key: key.to_owned(),
            }),
        }
    }
}

/// A finite `f64`, or `None` (also for `inf` and `NaN`).
pub(crate) fn finite(value: &str) -> Option<f64> {
    value.parse::<f64>().ok().filter(|v| v.is_finite())
}

fn bad_value(line: usize, key: &str, value: &str, expected: &'static str) -> KvError {
    KvError::BadValue {
        line,
        key: key.to_owned(),
        value: value.to_owned(),
        expected,
    }
}
