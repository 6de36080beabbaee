//! A minimal generic JSON value parser and writer.
//!
//! The [`stats`](crate::stats) module ships a JSON codec, but its
//! parser only reads the stats-tree schema (`{"name", "values",
//! "children"}`). Validating Chrome trace output, perf reports, and
//! pattern-spec files needs arbitrary JSON values, and the build is
//! fully self-contained (no serde offline), so this module provides a
//! small recursive-descent parser in the same hand-rolled style.
//!
//! The writer ([`Json::to_json_string`] / [`Json::to_json_pretty`])
//! exists for consumers that need *byte-stable* output to diff — the
//! committed waiver inventory `lint_waivers.json` that
//! `tests/source_contract.rs` renders and compares.
//! Object members serialize in their source order, so a caller that
//! builds members from sorted keys gets deterministic bytes; the
//! writer never reorders.

#![expect(
    clippy::disallowed_types,
    clippy::default_numeric_fallback,
    reason = "float leaf: JSON numbers are held as f64; simulation inputs read them through the float-free as_u64"
)]

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON value (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer: a number with no
    /// fractional part in `[0, 2^53]` (JSON's interoperable integer
    /// range). Consumers that must stay float-free (the pattern-spec
    /// parser in `gsdram-patterns`, under lint rule D5) read numbers
    /// through this instead of [`Json::as_f64`].
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if *n >= 0.0 && *n <= MAX_EXACT && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace). Member order is preserved;
    /// build members sorted if the output must be byte-stable.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, for committed files that
    /// humans diff in review. No trailing newline; file writers append
    /// their own.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, members.len(), '{', '}', |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// Writes one delimited sequence, indenting each element when `indent`
/// is set.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut elem: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        elem(out, i);
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

/// Writes `s` as a quoted JSON string with the standard escapes —
/// shared with the stats-tree exporter so every JSON the workspace
/// emits escapes identically.
pub fn write_escaped(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a number: exact integers (within the 2^53 interoperable
/// range) without a fractional part, everything else via `f64`'s
/// shortest-round-trip display, and non-finite values as `null` (JSON
/// has no NaN/inf; schema-level encodings are the caller's business).
fn write_number(out: &mut String, n: f64) {
    use std::fmt::Write;
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum container nesting the parser accepts. Recursive descent
/// burns one stack frame per `[`/`{`, so unbounded depth lets a
/// hostile document (e.g. a pattern-spec file of 100k open brackets)
/// overflow the stack instead of returning an error. Real inputs here
/// (stats trees, Chrome traces, perf reports, pattern specs) nest a
/// handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let chunk =
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                self.descend()?;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect_byte(b',')?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.descend()?;
                let mut members = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Obj(members));
                    }
                    if !members.is_empty() {
                        self.expect_byte(b',')?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    let v = self.value()?;
                    members.push((key, v));
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn descend(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.as_object().map(<[_]>::len), Some(4));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}junk").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn depth_is_bounded_not_stack_fatal() {
        // Shallow nesting (well past any real document) parses.
        let ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        // Hostile depth is an error, not a stack overflow.
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let objs = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&objs).is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""é\t""#).unwrap();
        assert_eq!(v.as_str(), Some("é\t"));
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let v = Json::Obj(vec![
            ("n".to_string(), Json::Num(42.0)),
            ("half".to_string(), Json::Num(0.5)),
            ("s".to_string(), Json::Str("a\"b\\c\nd\u{1}é".to_string())),
            (
                "arr".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Obj(vec![])]),
            ),
            ("empty".to_string(), Json::Arr(vec![])),
        ]);
        for text in [v.to_json_string(), v.to_json_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn writer_integers_have_no_fraction() {
        assert_eq!(Json::Num(7.0).to_json_string(), "7");
        assert_eq!(Json::Num(-3.0).to_json_string(), "-3");
        assert_eq!(Json::Num(2.5).to_json_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn writer_is_deterministic_and_order_preserving() {
        let v = Json::Obj(vec![
            ("b".to_string(), Json::Num(1.0)),
            ("a".to_string(), Json::Num(2.0)),
        ]);
        // Source order is preserved (the caller sorts when stability
        // across runs matters), and repeated serialization is
        // byte-identical.
        assert_eq!(v.to_json_string(), r#"{"b":1,"a":2}"#);
        assert_eq!(v.to_json_string(), v.to_json_string());
        assert_eq!(v.to_json_pretty(), "{\n  \"b\": 1,\n  \"a\": 2\n}");
    }
}
