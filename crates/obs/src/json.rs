//! A minimal JSON codec for the trace and metrics artefacts.
//!
//! The workspace has no registry access, so the observability layer carries
//! its own encoder/decoder pair: [`Value`] renders compact JSON via
//! `Display`, and [`parse`] reads one document back. The two are exact
//! inverses for everything this crate emits (`prop`-style round-trip tests
//! below), which is what lets `socfmea trace summarize` re-aggregate a
//! trace file without external dependencies.
//!
//! Numbers keep their integer identity: a value that was written as an
//! integer parses back as [`Value::Int`], so cycle counts and nanosecond
//! totals survive a round trip without floating-point loss (up to `i64`).

use std::fmt;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (no fraction, no exponent, fits `i64`).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Builds an object value from key/value pairs (builder convenience).
    pub fn obj(members: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// `Value::Int` for a `u64` that fits, `Value::Float` otherwise (only
    /// reachable past ~292 years of nanoseconds).
    pub fn uint(n: u64) -> Value {
        i64::try_from(n).map_or(Value::Float(n as f64), Value::Int)
    }

    /// `Value::Null` for `None`, the converted value otherwise.
    pub fn opt<T>(v: Option<T>, f: impl FnOnce(T) -> Value) -> Value {
        v.map_or(Value::Null, f)
    }
}

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`/`\r`/`\t` get their short escapes and
/// every other control character a `\u00xx` escape. This is the one
/// string escaper of the workspace; [`Value`]'s `Display` uses it too.
pub fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string literal; see [`quote_into`].
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) if x.is_finite() => {
                // keep a fraction marker so the value parses back as Float
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            // JSON has no NaN/Inf; null is the least-bad representation
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => f.write_str(&quote(s)),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", quote(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run of plain characters up to the next `"` or `\`
            // as one slice: `src` is a `&str` and both stops are ASCII, so
            // the run is whole characters and needs no validation
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // the run stopped at `\`: one escape sequence
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("bad \\u escape");
                            };
                            // surrogate pairs are not emitted by this crate;
                            // lone surrogates decode to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Value::Float(x)),
            Err(_) => self.err(format!("bad number `{text}`")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(0.5),
            Value::Float(-12.25),
            Value::Str("plain".into()),
            Value::Str("esc \"q\" \\ \n \t ü".into()),
        ] {
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{v}");
        }
    }

    #[test]
    fn integral_floats_keep_their_fraction_marker() {
        // 2.0 must not render as `2` (which would parse back as Int)
        let v = Value::Float(2.0);
        assert_eq!(v.to_string(), "2.0");
        assert_eq!(parse("2.0").unwrap(), v);
    }

    #[test]
    fn containers_round_trip() {
        let v = Value::obj(vec![
            ("ev", Value::Str("fault".into())),
            ("i", Value::Int(3)),
            ("site", Value::Null),
            ("dc", Value::Float(0.875)),
            (
                "zones",
                Value::Arr(vec![Value::Str("a".into()), Value::Str("b/c".into())]),
            ),
            ("nested", Value::obj(vec![("k", Value::Bool(false))])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v, "{text}");
    }

    #[test]
    fn accessors_narrow_types() {
        let v =
            parse(r#"{"n": 7, "x": 1.5, "s": "hi", "b": true, "z": null, "a": [1,2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(7));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("x").and_then(Value::as_u64), None);
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert!(v.get("z").unwrap().is_null());
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn whitespace_and_errors() {
        assert_eq!(
            parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap(),
            Value::obj(vec![("a", Value::Arr(vec![Value::Int(1), Value::Int(2)]))])
        );
        for bad in ["", "{", "[1,", "tru", "\"open", "{\"a\" 1}", "1 2", "{]"] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
        let err = parse("[1, @]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn negative_values_are_not_u64() {
        let v = parse("-3").unwrap();
        assert_eq!(v.as_i64(), Some(-3));
        assert_eq!(v.as_u64(), None);
    }

    #[test]
    fn uint_helper_handles_the_full_range() {
        assert_eq!(Value::uint(17), Value::Int(17));
        assert!(matches!(Value::uint(u64::MAX), Value::Float(_)));
    }
}
