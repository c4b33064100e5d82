//! A minimal JSON reader for protocol request lines.
//!
//! The vendored `serde` is a structural stand-in without a JSON
//! data-format backend (see `vendor/README.md`), so the service parses its
//! one-line requests with this hand-rolled recursive-descent reader. It
//! accepts the full JSON value grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) but keeps numbers as their source
//! text — requests carry `u64` seeds, which must not round-trip through
//! `f64`.
//!
//! Rendering the *response* side reuses `qla_report::json_escape`, so the
//! service's output escaping is identical to the report renderer's.
//!
//! Arrays and objects nest at most 64 deep. A deeper line is a parse
//! error, not a stack overflow, and the cap also bounds the recursion of
//! dropping a parsed [`Json`].

/// Deepest nesting of arrays and objects a request may use.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers keep their raw source text (see the module
/// docs); object keys keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw (already validated) source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key insertion order. Duplicate keys are a parse error.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value from `text`; trailing non-whitespace
    /// is an error (a request line is exactly one value).
    ///
    /// # Errors
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The string payload, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integral `Num` in
    /// range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if this is a non-negative integral `Num` in
    /// range.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Look up `key` in an object.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, if this is an `Obj`.
    #[must_use]
    pub fn fields(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    /// Parse one array or object, refusing to open more than `MAX_DEPTH`.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| k == &key) {
                return Err(format!("duplicate key \"{key}\" at byte {at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            // Requests never carry surrogate pairs; reject
                            // them rather than decode them wrongly.
                            let c = char::from_u32(code)
                                .ok_or(format!("\\u{hex} is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#04x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a str");
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number spans ASCII bytes")
            .to_string();
        Ok(Json::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_flat_request_object() {
        let json = Json::parse(
            r#"{"experiment": "table1", "seed": 2005, "trials": 10, "format": "json"}"#,
        )
        .unwrap();
        assert_eq!(json.field("experiment").unwrap().as_str(), Some("table1"));
        assert_eq!(json.field("seed").unwrap().as_u64(), Some(2005));
        assert_eq!(json.field("trials").unwrap().as_usize(), Some(10));
        assert_eq!(json.field("missing"), None);
        assert_eq!(json.fields().unwrap().len(), 4);
    }

    #[test]
    fn u64_seeds_do_not_round_trip_through_f64() {
        // 2^63 + 1 is not representable as f64; the raw-text number keeps
        // it exact.
        let json = Json::parse(r#"{"seed": 9223372036854775809}"#).unwrap();
        assert_eq!(
            json.field("seed").unwrap().as_u64(),
            Some(9_223_372_036_854_775_809)
        );
    }

    #[test]
    fn string_escapes_unescape() {
        let json = Json::parse(r#""a\nb\t\"c\"A""#).unwrap();
        assert_eq!(json.as_str(), Some("a\nb\t\"c\"A"));
    }

    #[test]
    fn nested_values_and_literals_parse() {
        let json = Json::parse(r#"{"a": [1, true, null, -2.5e3], "b": {"c": false}}"#).unwrap();
        let arr = match json.field("a").unwrap() {
            Json::Arr(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[1], Json::Bool(true));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3], Json::Num("-2.5e3".to_string()));
        assert_eq!(
            json.field("b").unwrap().field("c"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn malformed_input_is_rejected_with_positions() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{\"a\": 01x}",
            "nulL",
            "{\"dup\": 1, \"dup\": 2}",
            &"[".repeat(200_000),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
        assert!(Json::parse("{\"dup\": 1, \"dup\": 2}")
            .unwrap_err()
            .contains("duplicate key"));
        assert_eq!(
            Json::parse(&"[".repeat(200_000)).unwrap_err(),
            "nesting deeper than 64 at byte 64"
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Json::parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH, "{\"a\":", "}").replace(":}", ":1}")).is_ok());
        let objects = nest(MAX_DEPTH + 1, "{\"a\":", "}");
        let err = Json::parse(&objects).unwrap_err();
        assert_eq!(err, format!("nesting deeper than 64 at byte {}", 64 * 5));
    }

    #[test]
    fn numbers_keep_raw_text_and_convert_on_demand() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_usize(), None);
        assert_eq!(Json::parse("\"42\"").unwrap().as_u64(), None);
    }
}
