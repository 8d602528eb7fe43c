//! Minimal JSON value model, parser, canonical writer, and string escaping.
//!
//! The workspace has no serde (the registry is unreachable; see
//! `shims/README.md`). Every document sfcc emits — build reports, metrics
//! snapshots, traces, daemon frames, experiment artifacts — is built as a
//! [`Value`] and printed by [`write()`]; [`parse`] reads them back. Objects
//! preserve key order, which lets schema checks detect field reordering as
//! well as renames.

use std::fmt::Write as _;

/// A JSON value. Object keys keep their insertion (or source) order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; all sfcc counters fit exactly).
    Num(f64),
    /// An integer a built document prints exactly, beyond the 2⁵³ an f64
    /// holds. [`parse`] never yields one: it reads every number as
    /// [`Value::Num`].
    Int(i64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Value>),
    /// Object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object of `fields`, in the order given.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(63) => {
                Some(*n as u64)
            }
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields in source order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// `value[key]`: the member `key` of an object, [`Value::Null`] when there
/// is none.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        i64::try_from(n).map_or(Value::Num(n as f64), Value::Int)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::from(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level and reads socket frames, so the bound is what keeps a frame of
/// `[[[[…` from overflowing the stack; every document sfcc emits nests less
/// than a tenth as deep.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing non-whitespace and nesting
/// beyond `MAX_DEPTH` are errors.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so they never occur inside a multi-byte
            // UTF-8 sequence: the run before either is whole characters.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by sfcc's emitters;
                    // map lone surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Renders `value` canonically: no whitespace, object keys in insertion
/// order, strings through [`escape_into`], whole numbers as integers
/// (`Num(3.0)` prints `3`) and other numbers in their shortest round-trip
/// form; a non-finite `Num` prints `null`. [`parse`] reads the text back to
/// a value that renders to the same bytes.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(&mut out, value);
    out
}

fn write_into(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => escape_into(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(out, item);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, key);
                out.push(':');
                write_into(out, item);
            }
            out.push('}');
        }
    }
}

/// Append `s` to `out` as a JSON string literal (with quotes), escaping
/// control characters, quotes, and backslashes.
pub fn escape_into(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#)
            .expect("parse");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse(r#""trailing escape\"#).is_err());
        // Nesting is bounded: unbounded recursion on either input below
        // would overflow the stack long before reaching the end.
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(20_000)).is_err());
        assert!(parse(&r#"{"k":"#.repeat(20_000)).is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\ \u{0001}end é ☃ 🦀";
        let mut doc = String::new();
        escape_into(&mut doc, original);
        let v = parse(&doc).expect("parse escaped");
        assert_eq!(v.as_str(), Some(original));
    }

    /// The string scan is linear: a daemon frame holding one long string
    /// costs one pass over it, not one pass per character.
    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        let body = "é".repeat(1 << 19);
        let doc = format!("{{\"s\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let v = parse(&doc).expect("parse");
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some(body.as_str()));
    }

    #[test]
    fn writer_prints_whole_numbers_as_integers() {
        let doc = Value::obj([
            ("n", Value::Num(64.0)),
            ("x", Value::Num(0.125)),
            ("big", Value::Int(i64::MIN)),
            ("u", Value::from(u64::MAX)),
            ("nan", Value::Num(f64::NAN)),
            ("none", Value::from(None::<i64>)),
            ("list", ["a", "b\""].into_iter().collect()),
        ]);
        assert_eq!(
            write(&doc),
            r#"{"n":64,"x":0.125,"big":-9223372036854775808,"u":18446744073709552000,"nan":null,"none":null,"list":["a","b\""]}"#
        );
    }

    /// A random value: scalars of every kind (numbers from raw bit
    /// patterns, strings over quotes, escapes, controls and multi-byte
    /// characters) nested in arrays and objects up to `depth`.
    fn random_value(rng: &mut TestRng, depth: usize) -> Value {
        let string = |rng: &mut TestRng| -> String {
            const ALPHABET: &[char] = &[
                'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '☃', '🦀',
            ];
            (0..rng.below(6))
                .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                .collect()
        };
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Num(f64::from_bits(rng.next_u64())),
            3 => Value::Num((rng.next_u64() >> 11) as f64 - (1u64 << 52) as f64),
            4 => Value::Int((rng.next_u64() >> 10) as i64 - (1i64 << 53)),
            5 => Value::Str(string(rng)),
            6 => Value::Arr(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.below(4))
                    .map(|_| (string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn written_text_reads_back_to_the_same_text(seed in any::<u64>()) {
            let value = random_value(&mut TestRng::new(seed), 4);
            let text = write(&value);
            let reread = parse(&text).map_err(|e| format!("{e}: {text}")).unwrap();
            prop_assert_eq!(write(&reread), text);
        }
    }
}
