//! Offline, API-compatible subset of `serde_json`: pretty/compact JSON
//! emission and a recursive-descent JSON parser over the vendored
//! [`serde::Value`] tree.
//!
//! Supports everything the Armus tooling round-trips (numbers, strings
//! with escapes, arrays, objects, booleans, null). Not supported: non-BMP
//! `\u` surrogate pairs are parsed but unpaired surrogates are replaced,
//! and NaN/infinity serialize as `null` (as in the published crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::Value;

/// Error from [`from_str`] (a message with byte offset) or from emitters.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into any [`serde::Deserialize`] type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(|e| Error::new(e.to_string()))
}

// --- emitter ---------------------------------------------------------------

fn emit(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // Keep integral floats distinguishable from integers, as
                // the published crate does (`1.0`, not `1`).
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{x:.1}"));
                } else {
                    out.push_str(&x.to_string());
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => emit_string(s, out),
        Value::Seq(items) => emit_block('[', ']', items.len(), indent, depth, out, |i, out| {
            emit(&items[i], indent, depth + 1, out);
        }),
        Value::Map(entries) => emit_block('{', '}', entries.len(), indent, depth, out, |i, out| {
            emit_string(&entries[i].0, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            emit(&entries[i].1, indent, depth + 1, out);
        }),
    }
}

fn emit_block(
    open: char,
    close: char,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    mut item: impl FnMut(usize, &mut String),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(i, out);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Seq(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Seq(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Map(entries));
                    }
                    self.expect(b',')?;
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc =
                        *self.bytes.get(self.pos).ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: require the paired low one.
                                if self.eat(b'\\') && self.eat(b'u') {
                                    let low = self.hex4()?;
                                    let c = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    out.push(
                                        char::from_u32(c).unwrap_or(char::REPLACEMENT_CHARACTER),
                                    );
                                } else {
                                    out.push(char::REPLACEMENT_CHARACTER);
                                }
                            } else {
                                out.push(
                                    char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER),
                                );
                            }
                        }
                        other => {
                            return Err(self.err(&format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let _ = self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
        } else if let Some(stripped) = text.strip_prefix('-') {
            // `-0` parses as Int(0); harmless.
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|n| i64::try_from(n).ok())
                .map(|n| Value::Int(-n))
                .ok_or_else(|| self.err("integer out of range"))
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v: Value = from_str(text).unwrap();
            let back = to_string(&v).unwrap();
            let v2: Value = from_str(&back).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": "x\ny\"z\"", "d": []}"#;
        let v: Value = from_str(text).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        let v2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, v2);
        assert!(pretty.contains("\n  \"a\""), "pretty output is indented:\n{pretty}");
    }

    #[test]
    fn string_escapes() {
        let v: Value = from_str(r#""tab\tnl\nuniA""#).unwrap();
        assert_eq!(v, Value::Str("tab\tnl\nuniA".into()));
        let v: Value = from_str(r#""😀""#).unwrap();
        assert_eq!(v, Value::Str("😀".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn typed_from_str() {
        let v: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let x: f64 = from_str("2.25").unwrap();
        assert_eq!(x, 2.25);
        assert!(from_str::<Vec<u64>>("[1, -2]").is_err());
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }
}
