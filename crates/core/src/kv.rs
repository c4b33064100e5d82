//! The one `key = value` scanner behind the machine-spec text format
//! ([`MachineSpec`](crate::MachineSpec)).
//!
//! The grammar is one `key = value` pair per line. `#` starts a comment
//! that runs to the end of the line, blank lines are ignored, and keys and
//! values are trimmed. A key may appear at most once. A format reads the
//! keys it knows with the loud getters of [`Fields`] — a missing key or a
//! malformed value is an error, never a default — and then calls
//! [`Fields::finish`], which rejects whatever is left. Errors are the
//! spec's own [`SpecError`]s, and every one except
//! [`SpecError::MissingKey`] names the 1-based line to blame
//! (`spec line N: …`).

use std::collections::HashMap;

use crate::spec::SpecError;

/// One `key = value` occurrence.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The trimmed value text.
    pub value: &'a str,
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
    /// [`SpecError::Syntax`] for a line without `=` or with an empty key,
    /// [`SpecError::DuplicateKey`] for a key given twice — whichever comes
    /// first in the text.
    pub fn scan(text: &'a str) -> Result<Self, SpecError> {
        let mut map = HashMap::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(SpecError::Syntax {
                    line,
                    message: format!("expected `key = value`, got {content:?}"),
                });
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(SpecError::Syntax {
                    line,
                    message: "missing key before '='".to_owned(),
                });
            }
            let field = Field {
                line,
                value: value.trim(),
            };
            if let Some(first) = map.insert(key, field) {
                return Err(SpecError::DuplicateKey {
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
    /// [`SpecError::MissingKey`] if the text does not assign it.
    pub fn take(&mut self, key: &str) -> Result<Field<'a>, SpecError> {
        self.map.remove(key).ok_or_else(|| SpecError::MissingKey {
            key: key.to_owned(),
        })
    }

    /// Remove `key` and parse its value with `parse` (`None` = malformed).
    ///
    /// # Errors
    /// [`SpecError::MissingKey`], or [`SpecError::BadValue`] naming
    /// `expected` when `parse` refuses the value.
    pub fn value<T>(
        &mut self,
        key: &str,
        expected: &'static str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, SpecError> {
        let field = self.take(key)?;
        parse(field.value).ok_or_else(|| bad_value(field.line, key, field.value, expected))
    }

    /// Remove `key` and parse its value as a comma-separated list, each
    /// trimmed item through `parse`.
    ///
    /// # Errors
    /// [`SpecError::MissingKey`], or [`SpecError::BadValue`] carrying the
    /// first item `parse` refuses.
    pub fn list<T>(
        &mut self,
        key: &str,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, SpecError> {
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
    /// [`SpecError::UnknownKey`] for the leftover key on the earliest line.
    pub fn finish(self) -> Result<(), SpecError> {
        match self.map.into_iter().min_by_key(|(_, field)| field.line) {
            None => Ok(()),
            Some((key, field)) => Err(SpecError::UnknownKey {
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

fn bad_value(line: usize, key: &str, value: &str, expected: &'static str) -> SpecError {
    SpecError::BadValue {
        line,
        key: key.to_owned(),
        value: value.to_owned(),
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_and_take_report_each_fault_with_its_line() {
        assert_eq!(
            Fields::scan("a = 1\n# note\nno equals here").err(),
            Some(SpecError::Syntax {
                line: 3,
                message: "expected `key = value`, got \"no equals here\"".to_owned(),
            })
        );
        assert_eq!(
            Fields::scan(" = 1").err(),
            Some(SpecError::Syntax {
                line: 1,
                message: "missing key before '='".to_owned(),
            })
        );
        assert_eq!(
            Fields::scan("a = 1\n\na = 2").err(),
            Some(SpecError::DuplicateKey {
                line: 3,
                key: "a".to_owned(),
                first_line: 1,
            })
        );

        let mut fields = Fields::scan("n = 7  # seven\nxs = 1, x, 3\nz = 0\ny = 0").unwrap();
        assert_eq!(
            fields.take("missing").unwrap_err(),
            SpecError::MissingKey {
                key: "missing".to_owned()
            }
        );
        assert_eq!(
            fields.value("n", "an integer", |v| v.parse::<u8>().ok()),
            Ok(7)
        );
        assert_eq!(
            fields.list("xs", "an integer", |v| v.parse::<u8>().ok()),
            Err(SpecError::BadValue {
                line: 2,
                key: "xs".to_owned(),
                value: "x".to_owned(),
                expected: "an integer",
            })
        );
        assert_eq!(
            fields.finish(),
            Err(SpecError::UnknownKey {
                line: 3,
                key: "z".to_owned(),
            })
        );
    }
}
