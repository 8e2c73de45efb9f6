//! Minimal JSON for a dependency-free workspace: one ordered writer and a
//! recursive-descent parser.
//!
//! Every document the workspace emits — the `BENCH_*.json` artifacts, the
//! metrics snapshots and the chrome://tracing files — is built as an
//! [`Object`] and rendered by [`Object::to_document`], so the syntax lives
//! here only: strings go through [`escape`], numbers through [`num`]
//! (shortest round-trip, `null` when not finite), `None` renders as
//! `null`, and 64-bit digests are `"0x%016x"` strings ([`digest`]). The
//! parser reads documents back into the same [`Value`], so tests and the
//! bench bins check exactly what the writer produced.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Returns `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Formats a finite number, or `null` for NaN/infinity (JSON has no
/// representation for them).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A 64-bit digest as the `"0x%016x"` string every document uses (a JSON
/// number would lose bits above 2^53).
pub fn digest(d: u64) -> Value {
    Value::String(format!("{d:#018x}"))
}

/// A JSON value: what the writer renders and the parser returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (held as `f64`; integers are exact up to 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Object),
}

impl Value {
    /// The value under `key` if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(object) => object.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is an array or an object (a row of a table).
    fn is_container(&self) -> bool {
        matches!(self, Value::Array(_) | Value::Object(_))
    }

    /// Appends the one-line rendering of this value to `out`.
    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&num(*n)),
            Value::String(s) => escape_into(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Object(object) => {
                out.push('{');
                for (i, (key, value)) in object.0.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape_into(out, key);
                    out.push_str(": ");
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A JSON object whose fields keep the order they were added (or parsed)
/// in. Build one with [`Object::field`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends `key: value` (builder style).
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// The value under `key`; the last one when a key repeats.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Appends `other`'s fields after this object's own.
    pub fn append(mut self, other: Object) -> Self {
        self.0.extend(other.0);
        self
    }

    /// Renders the object as a line-diffable document ending in a newline:
    /// one field per line, and each row of a field that holds arrays or
    /// objects on a line of its own. Everything deeper stays on its line.
    pub fn to_document(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.0.iter().enumerate() {
            out.push_str(if i > 0 { ",\n  " } else { "\n  " });
            escape_into(&mut out, key);
            out.push_str(": ");
            match value {
                Value::Array(rows) if rows.iter().any(Value::is_container) => {
                    out.push('[');
                    for (j, row) in rows.iter().enumerate() {
                        out.push_str(if j > 0 { ",\n    " } else { "\n    " });
                        row.write_into(&mut out);
                    }
                    out.push_str("\n  ]");
                }
                _ => value.write_into(&mut out),
            }
        }
        out.push_str(if self.0.is_empty() { "}\n" } else { "\n}\n" });
        out
    }
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Number(v as f64)
            }
        }
    )*};
}

number_from!(f64, u32, u64, usize, i32);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<Object> for Value {
    fn from(object: Object) -> Self {
        Value::Object(object)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Self {
        items.iter().cloned().collect()
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes at offset {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or("truncated UTF-8 sequence")?;
                    let s = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut object = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(object));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            object.0.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(object));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn num_maps_non_finite_to_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(-3.0), "-3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn parser_handles_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "s": "x\ny"}"#;
        let v = parse(doc).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let original = "kernel \"bfs\" failed\\retry\n\tat depth 3 \u{1}";
        let doc = format!("{{\"msg\": {}, \"v\": {}}}", escape(original), num(0.25));
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("msg").unwrap().as_str(), Some(original));
        assert_eq!(parsed.get("v").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn documents_round_trip_through_the_parser() {
        let text = "tab\t\"quoted\" back\\slash \u{1} ☃";
        let rows = vec![
            Object::new()
                .field("a", 1u32)
                .field("inner", Object::new().field("xs", vec![vec![1.5, -2.0]])),
            Object::new(),
        ];
        let doc = Object::new()
            .field("s", text)
            .field("x", 0.1)
            .field("count", 42u64)
            .field("nan", f64::NAN)
            .field("inf", f64::NEG_INFINITY)
            .field("none", None::<f64>)
            .field("some", Some(2.5))
            .field("digest", digest(0x6c41_bd79_8c46_6854))
            .field("small_digest", digest(7))
            .field("flag", false)
            .field("scalars", [1usize, 4, 16].as_slice())
            .field("rows", rows);
        let rendered = doc.to_document();
        let parsed = parse(&rendered).expect("writer output parses");

        let Value::Object(reparsed) = &parsed else {
            panic!("a document is an object");
        };
        assert_eq!(reparsed.to_document(), rendered, "order and values survive");
        assert_eq!(parsed.get("s").unwrap().as_str(), Some(text));
        assert_eq!(parsed.get("x").unwrap().as_f64(), Some(0.1));
        assert_eq!(parsed.get("count").unwrap().as_f64(), Some(42.0));
        for key in ["nan", "inf", "none"] {
            assert_eq!(parsed.get(key), Some(&Value::Null), "{key}");
        }
        assert_eq!(parsed.get("some").unwrap().as_f64(), Some(2.5));
        assert_eq!(parsed.get("flag"), Some(&Value::Bool(false)));
        let hex = parsed.get("digest").unwrap().as_str().unwrap();
        assert_eq!(hex, "0x6c41bd798c466854");
        assert_eq!(
            u64::from_str_radix(&hex[2..], 16),
            Ok(0x6c41_bd79_8c46_6854)
        );
        assert_eq!(
            parsed.get("small_digest").unwrap().as_str(),
            Some("0x0000000000000007")
        );
        assert_eq!(parsed.get("scalars"), Some(&Value::from(vec![1, 4, 16])));
        let parsed_rows = parsed.get("rows").unwrap().as_array().unwrap();
        assert_eq!(parsed_rows.len(), 2);
        assert_eq!(
            parsed_rows[0].get("inner").unwrap().get("xs"),
            Some(&Value::from(vec![vec![1.5, -2.0]]))
        );
        assert_eq!(parsed_rows[1], Value::Object(Object::new()));

        // One line per field, plus one per row and the rows' closing bracket.
        assert_eq!(rendered.lines().count(), 2 + 12 + 2 + 1);
        assert!(rendered.contains("\n  \"scalars\": [1, 4, 16],\n"));
        assert!(rendered.contains("\n    {\"a\": 1, \"inner\": {\"xs\": [[1.5, -2]]}},\n"));
        assert!(rendered.ends_with("\n  ]\n}\n"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 45").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parser_handles_unicode_strings() {
        let doc = "{\"k\": \"héllo ☃\"}";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo ☃"));
        // Round-trip through our own escaper too.
        let doc2 = format!("{{\"k\": {}}}", escape("héllo ☃"));
        assert_eq!(parse(&doc2).unwrap(), v);
    }
}
