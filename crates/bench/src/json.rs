//! The bench harness's JSON *reader*: the perf-regression gate
//! ([`crate::regress`], `spgemm-regress`) and the stamp self-checks
//! parse `BENCH_*.json` with it. The build environment has no registry
//! access, so serde is not available; a small value model with a
//! recursive-descent parser covers the flat stamp schema. Writing is
//! [`crate::perfjson`]'s job, not this module's.

use std::collections::BTreeMap;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, ample for this schema).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Borrow as object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Read as number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.get(key)
    }
}

/// A parse failure with a byte offset for context.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // schema (stamps are ASCII); map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn round_trips_a_profile_like_document() {
        let text = r#"{"cells":[{"samples":[0.00123,3e-9],"sorted":true,"winner":"Hash"}],"collision":1.0625,"hostname":"box-1","version":1.0}"#;
        let doc = obj(&[
            ("version", Value::Num(1.0)),
            ("hostname", Value::Str("box-1".into())),
            ("collision", Value::Num(1.0625)),
            (
                "cells",
                Value::Arr(vec![obj(&[
                    ("winner", Value::Str("Hash".into())),
                    ("sorted", Value::Bool(true)),
                    (
                        "samples",
                        Value::Arr(vec![Value::Num(0.00123), Value::Num(3e-9)]),
                    ),
                ])]),
            ),
        ]);
        assert_eq!(parse(text).unwrap(), doc);
    }

    #[test]
    fn floats_round_trip_exactly() {
        // `{:?}` prints the shortest string that parses back to the
        // same f64 — how `perfjson` writes a metric.
        for x in [0.1f64, 1.0 / 3.0, 6.02e23, 5e-324, -0.0, 123456789.123456] {
            let back = parse(&format!("{x:?}")).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let text = r#""a\"b\\c\nd\te\u0001π""#;
        let s = "a\"b\\c\nd\te\u{1}π";
        assert_eq!(parse(text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"k\":01x}").is_err());
    }

    #[test]
    fn nesting_escapes_and_numbers() {
        let doc = parse(r#"{"a":[1,-2.5,3e2],"s":"q\"\\\nA😀","o":{"n":null,"b":true}}"#).unwrap();
        let nums = vec![Value::Num(1.0), Value::Num(-2.5), Value::Num(300.0)];
        assert_eq!(doc.get("a"), Some(&Value::Arr(nums)));
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("q\"\\\nA😀"));
        assert_eq!(doc.get("o").unwrap().get("n"), Some(&Value::Null));
        assert_eq!(doc.get("o").unwrap().get("b"), Some(&Value::Bool(true)));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" {\n \"a\" : [ 1 , true , \"x\" ] }\t").unwrap();
        let items = vec![Value::Num(1.0), Value::Bool(true), Value::Str("x".into())];
        assert_eq!(v.get("a"), Some(&Value::Arr(items)));
    }
}
