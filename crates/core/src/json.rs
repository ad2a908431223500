//! The workspace's one JSON reader and writer.
//!
//! The build environment vendors no serde, so every machine-readable
//! document — bench reports and the trend ledger, `lint --json`,
//! `verify --json`, `spacetime-obs/1` traces, `inspect --json` — is read
//! through [`Json::parse`] and written either through [`Json`] (compact
//! `Display`, or [`Json::pretty`]) or by a hand-laid-out emitter that
//! escapes strings with [`escape_into`] and spike times with [`time`].
//! The paper's `∞` ("no spike", § III.A) is JSON `null` in all of them.
//!
//! The parser is strict and cannot be driven into a panic or a stack
//! overflow by its input:
//!
//! * nesting deeper than [`MAX_DEPTH`] is an error, not a recursion;
//! * a duplicate object key is an error (no first-wins or last-wins);
//! * `\u` takes exactly four hex digits and must name a scalar value
//!   (surrogate escapes are refused; no writer here emits them);
//! * an integer literal (no fraction or exponent) is kept exactly as
//!   [`Json::Int`], so every `u64` and `i64` round-trips.
//!
//! Errors are messages naming the byte offset of the problem.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;
use std::fmt;

use crate::Time;

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// deepest document the workspace writes nests five levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are unique and a `BTreeMap` keeps them sorted,
    /// so both writers emit them in key order, not insert order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => i64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as a spike time: `null` is `∞`, an integer is a finite
    /// tick. `None` for anything else, `u64::MAX` (the reserved `∞`
    /// encoding) included.
    #[must_use]
    pub fn as_time(&self) -> Option<Time> {
        match self {
            Json::Null => Some(Time::INFINITY),
            other => other.as_u64().and_then(Time::try_finite),
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks a field up in an object (`None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|o| o.get(key))
    }

    /// Renders with two-space indentation and a trailing newline
    /// (diff-friendly for committed baselines). Equivalent to `Display`
    /// modulo whitespace.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(depth + 1));
                    item.pretty_into(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(depth + 1));
                    let _ = write_quoted(out, key);
                    out.push_str(": ");
                    value.pretty_into(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem:
    /// malformed syntax, a duplicate key, nesting deeper than
    /// [`MAX_DEPTH`], or trailing characters.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Appends `s` to `out` as the body of a JSON string (no quotes):
/// `"`, `\` and control characters are escaped, everything else is
/// copied through.
pub fn escape_into(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = write_escaped(out, s);
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

/// A spike time as a JSON scalar: its tick count, or `null` for `∞`.
#[must_use]
pub fn time(t: Time) -> impl fmt::Display {
    struct TimeJson(Time);
    impl fmt::Display for TimeJson {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0.value() {
                Some(ticks) => write!(f, "{ticks}"),
                None => f.write_str("null"),
            }
        }
    }
    TimeJson(t)
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_quoted(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_quoted(f, key)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()))
        {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Four hex digits of a `\u` escape, as a code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let at = self.pos;
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| format!("\\u escape needs four hex digits at byte {at}"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all three are ASCII, so the run ends on a char
            // boundary of the `&str` input.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            let at = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 2;
                    let escaped = match self.bytes.get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => char::from_u32(self.hex4()?)
                            .ok_or_else(|| format!("invalid \\u escape at byte {at}"))?,
                        _ => return Err(format!("bad escape at byte {at}")),
                    };
                    out.push(escaped);
                }
                Some(_) => return Err(format!("unescaped control character at byte {at}")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        // An integer literal stays exact; anything else is an `f64`.
        text.parse()
            .map(Json::Int)
            .or_else(|_| text.parse().map(Json::Num))
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if fields.contains_key(&key) {
                return Err(format!("duplicate key {key:?} at byte {at}"));
            }
            fields.insert(key, value);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_schema_subset() {
        let doc = r#"{"schema": "spacetime-bench/1", "n": 42, "pi": 3.5,
                      "ok": true, "none": null, "tags": ["a", "b"],
                      "nested": {"x": -1}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("spacetime-bench/1"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("pi").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("tags").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("nested").unwrap().get("x").unwrap().as_f64(),
            Some(-1.0)
        );
        assert_eq!(
            v.get("nested").unwrap().get("x").unwrap().as_i64(),
            Some(-1)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2,,]",
            "{\"a\" 1}",
            "42 garbage",
            "\"unterminated",
            "-",
            "1-2",
            "1e",
            ".5",
            "nul",
            "\"raw\ttab\"",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert_eq!(err, "duplicate key \"a\" at byte 17");
        assert!(Json::parse(r#"{"a": {"a": 1}}"#).is_ok());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse(r#""\u00E9x""#).unwrap().as_str(), Some("éx"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u041""#,
            r#""\u 041""#,
            r#""\u""#,
            r#""\ud800""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_without_bound() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            Json::parse(&deep).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0, 1, (1 << 53) + 1, u64::MAX] {
            let v = Json::parse(&n.to_string()).unwrap();
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(v.to_string(), n.to_string());
        }
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
        // Past i128 the literal degrades to a float rather than failing.
        let huge = "1".repeat(50);
        assert!(matches!(Json::parse(&huge).unwrap(), Json::Num(_)));
    }

    #[test]
    fn floats_print_as_before() {
        assert_eq!(Json::Num(25.0).to_string(), "25");
        assert_eq!(Json::Num(1234.5).to_string(), "1234.5");
        assert_eq!(Json::Num(1e16).to_string(), "10000000000000000");
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Num(2500.0));
    }

    #[test]
    fn times_map_infinity_to_null() {
        assert_eq!(time(Time::finite(7)).to_string(), "7");
        assert_eq!(time(Time::INFINITY).to_string(), "null");
        assert_eq!(Json::Null.as_time(), Some(Time::INFINITY));
        assert_eq!(Json::Int(7).as_time(), Some(Time::finite(7)));
        assert_eq!(Json::Int(u64::MAX.into()).as_time(), None);
        assert_eq!(Json::Int(-1).as_time(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a \"quoted\" line\nwith\ttabs \\ and unicode µ \u{1}";
        let rendered = Json::Str(original.to_owned()).to_string();
        assert!(rendered.contains("\\u0001"), "{rendered}");
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn display_round_trips() {
        let doc = r#"{"b": [1, 2.5, true, null], "a": "x"}"#;
        let v = Json::parse(doc).unwrap();
        let rendered = v.to_string();
        assert_eq!(rendered, r#"{"a":"x","b":[1,2.5,true,null]}"#);
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn pretty_round_trips() {
        let doc = r#"{"b": [1, {"k": []}, true], "a": "x", "empty": {}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn u64_extraction_is_strict() {
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
    }
}
