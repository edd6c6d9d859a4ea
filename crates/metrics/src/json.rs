//! A minimal JSON value, writer, and recursive-descent parser — just
//! enough for the metrics JSONL schema, with no crates.io
//! dependencies. Numbers are `f64` (integers above 2^53 lose
//! precision; metric series stay far below that). The parser is
//! depth-limited and rejects trailing garbage, so it is safe to point
//! at hostile input (it is part of the fuzz wall).

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts (arrays + objects).
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are sorted (BTreeMap), making the encoding
    /// canonical.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn obj<'k>(entries: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }

    /// Parses one JSON document, rejecting trailing non-whitespace.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::at(pos, "trailing bytes after document"));
        }
        Ok(value)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.into())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write_num(f, *n),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// JSON has no NaN/Inf; encode them as null so the output always
/// re-parses. Finite floats use Rust's shortest round-trip formatting.
fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if n.is_finite() {
        write!(f, "{n}")
    } else {
        f.write_str("null")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Why a parse failed, with the byte offset it failed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl ParseError {
    fn at(offset: usize, message: &'static str) -> Self {
        ParseError { offset, message }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    if depth > MAX_DEPTH {
        return Err(ParseError::at(*pos, "nesting too deep"));
    }
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, b"null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(ParseError::at(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError::at(*pos, "expected ':'"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(ParseError::at(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(ParseError::at(*pos, "unexpected byte")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError::at(*pos, "bad literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::at(start, "bad number"))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| ParseError::at(start, "bad number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let ch = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(ParseError::at(*pos, "lone high surrogate"));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(ParseError::at(*pos, "bad low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp).ok_or(ParseError::at(*pos, "bad code point"))?
                        } else {
                            char::from_u32(hi).ok_or(ParseError::at(*pos, "lone surrogate"))?
                        };
                        out.push(ch);
                        continue; // parse_hex4 already advanced pos
                    }
                    _ => return Err(ParseError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(ParseError::at(*pos, "raw control byte in string")),
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so slicing on
                // char boundaries is safe via str re-borrow).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| ParseError::at(*pos, "invalid UTF-8"))?;
                let ch = rest
                    .chars()
                    .next()
                    .ok_or(ParseError::at(*pos, "unterminated string"))?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseError> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or(ParseError::at(*pos, "truncated \\u escape"))?;
    let text = std::str::from_utf8(slice).map_err(|_| ParseError::at(*pos, "bad \\u escape"))?;
    let v = u32::from_str_radix(text, 16).map_err(|_| ParseError::at(*pos, "bad \\u escape"))?;
    *pos += 4;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let mut obj = BTreeMap::new();
        obj.insert("a".into(), Value::Num(1.5));
        obj.insert("b".into(), Value::Arr(vec![Value::Null, Value::Bool(true)]));
        obj.insert("c".into(), Value::Str("x\"\\\n\u{1F600}".into()));
        let v = Value::Obj(obj);
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Value::parse(r#""\u0041\ud83d\ude00\t""#).unwrap();
        assert_eq!(v, Value::Str("A\u{1F600}\t".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"\\x\"",
            "\"\\ud800\"",
            "1 2",
            "{1:2}",
            "\u{0007}",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth bomb: stays an error, never a stack overflow.
        let deep = "[".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn numbers_roundtrip() {
        for n in [0.0, -1.0, 1e-9, 123456789.0, -2.5e10, f64::MAX] {
            let text = Value::Num(n).to_string();
            assert_eq!(Value::parse(&text).unwrap(), Value::Num(n), "{n}");
        }
        // Non-finite encodes as null (JSON has no NaN).
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }
}
