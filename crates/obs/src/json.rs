//! Minimal JSON support — writer helpers and a small recursive-descent
//! parser.
//!
//! The workspace builds offline with no external dependencies, so the
//! exporters hand-roll their JSON. The writer side is a few escape/format
//! helpers; the parser exists so the validators (and the golden-file
//! tests) can load what the exporters wrote without trusting them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects use a [`BTreeMap`], so re-serialization
/// would be key-sorted — the parser is for *reading* traces, not for
/// byte-preserving round trips.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(|x| {
            // Bound by 2^53 so the value is an exactly-representable
            // integer; beyond that the float cast would silently saturate.
            if x.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&x) {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "x is a non-negative integer below 2^53, in range for usize"
                )]
                let n = x as usize;
                Some(n)
            } else {
                None
            }
        })
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b.get(*pos..).is_some_and(|rest| rest.starts_with(lit.as_bytes())) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while matches!(b.get(*pos), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
        *pos += 1;
    }
    let digits = b.get(start..*pos).unwrap_or(&[]);
    let s = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
    s.parse::<f64>().map(Value::Num).map_err(|_| format!("invalid number '{s}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let ch_len = utf8_len(c);
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer helpers.
// ---------------------------------------------------------------------------

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float deterministically as a JSON number. Non-finite values
/// (which JSON cannot represent) map to `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        // Rust's shortest-round-trip Display for f64 is valid JSON (no
        // exponent notation, and integral values print without a dot —
        // still a JSON number either way).
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Formats `Option<f64>` as a number or `null`.
pub fn opt_num(x: Option<f64>) -> String {
    match x {
        Some(v) => num(v),
        None => "null".into(),
    }
}

/// Formats a `[Option<f64>]` slice as a JSON array.
pub fn opt_num_array(xs: &[Option<f64>]) -> String {
    let items: Vec<String> = xs.iter().map(|x| opt_num(*x)).collect();
    format!("[{}]", items.join(","))
}

/// Formats a `[usize]` slice as a JSON array.
pub fn usize_array(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("3.25").unwrap(), Value::Num(3.25));
        assert_eq!(Value::parse("-2e3").unwrap(), Value::Num(-2000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a":[1,2,{"b":null}],"c":"x\ny"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_usize(), Some(2));
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("trve").is_err());
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ—日本";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Value::parse(r#""µx""#).unwrap();
        assert_eq!(v.as_str(), Some("µx"));
    }

    #[test]
    fn num_formatting() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(opt_num(None), "null");
        assert_eq!(opt_num_array(&[Some(1.0), None]), "[1,null]");
        assert_eq!(usize_array(&[1, 2, 3]), "[1,2,3]");
    }

    #[test]
    fn number_round_trip_is_exact() {
        for &x in &[0.0, 1.0 / 3.0, 1e-9, 123456.789, -7.25] {
            let v = Value::parse(&num(x)).unwrap();
            assert_eq!(v.as_f64(), Some(x), "round trip of {x}");
        }
    }
}
