//! A minimal JSON reader.
//!
//! The workspace deliberately carries no JSON dependency: emitters
//! hand-format their output (see the bench reports and
//! [`crate::trace::Trace::to_jsonl`]) with [`escape`] for strings. This
//! module is the matching reader — just enough of RFC 8259 to parse
//! everything this workspace emits, used by `concilium-explain`, the
//! metrics round-trip and the repository benchmark's result files.
//!
//! Not a general-purpose parser: no `\u` escapes beyond BMP pass-through,
//! integers and floats both land in [`Json::Num`] as `f64`, and nesting
//! deeper than `MAX_DEPTH` is refused rather than recursed into.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The deepest array/object nesting [`parse`] accepts. Far above what
/// this workspace writes (traces and metrics nest 3 levels, benchmark
/// result files 5), and far below what would exhaust the stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// 2^53: above it an `f64` no longer holds every integer.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is not preserved (sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is a non-negative integral number
    /// no larger than 2^53; `-5`, `3.7` and `1e300` are not.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if (0.0..=MAX_EXACT_INT).contains(&n) && n.fract() == 0.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value from `input`, requiring only trailing whitespace
/// after it.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing garbage after value"));
    }
    Ok(value)
}

fn err(at: usize, msg: &str) -> ParseError {
    ParseError { at, msg: msg.to_string() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected {:?}", b as char)))
    }
}

/// `depth` counts the arrays/objects enclosing the value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(err(*pos, &format!("nesting deeper than {MAX_DEPTH}")))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, &format!("invalid number `{text}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| err(*pos, "invalid UTF-8"));
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = bytes.get(*pos).ok_or_else(|| err(*pos, "dangling escape"))?;
                match escaped {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u digits"))?,
                            16,
                        )
                        .map_err(|_| err(*pos, "bad \\u digits"))?;
                        let ch = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "surrogate \\u escape unsupported"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    other => {
                        return Err(err(*pos, &format!("unknown escape \\{}", *other as char)))
                    }
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes): `"`,
/// `\` and the control characters are escaped (RFC 8259 §7), everything
/// else is written as raw UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let arr = parse("[1, [2], {}]").unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), 3);
        let obj = parse("{\"x\": 1, \"y\": {\"z\": [true]}}").unwrap();
        assert_eq!(obj.get("x").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            obj.get("y").and_then(|y| y.get("z")).and_then(Json::as_arr),
            Some(&[Json::Bool(true)][..])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn refuses_nesting_past_the_cap_without_recursing_into_it() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert!(parse(&nested(100_000)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn escape_writes_json_the_parser_reads_back() {
        let controls = "\"\\/\n\r\t\u{8}\u{c}\u{1f}";
        for s in ["\u{1}", "\0", "a\u{7f}b", "e\u{301}", controls, "naïve ✓"] {
            assert_eq!(parse(&escape(s)), Ok(Json::Str(s.to_string())), "{s:?}");
        }
        // Printable ASCII matches Rust's `Debug` output, the escaping the
        // recorded exports and goldens were written with.
        let ascii: String = (' '..='~').collect();
        assert_eq!(escape(&ascii), format!("{ascii:?}"));
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn integers_are_exact_non_negative_numbers() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(MAX_EXACT_INT).as_u64(), Some(1 << 53));
        for n in [-5.0, 3.7, 1e300, MAX_EXACT_INT * 2.0] {
            assert_eq!(Json::Num(n).as_u64(), None, "{n}");
        }
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }

    #[test]
    fn round_trips_emitted_trace_lines() {
        let line = "{\"episode\":\"lossy\",\"seed\":\"7\",\"t_us\":1500000,\
                    \"kind\":\"judge\",\"msg\":3,\"blame\":0.250000000,\
                    \"links\":[{\"link\":3,\"up\":5,\"down\":1}]}";
        let v = parse(line).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("judge"));
        assert_eq!(v.get("t_us").and_then(Json::as_num), Some(1_500_000.0));
        let links = v.get("links").and_then(Json::as_arr).unwrap();
        assert_eq!(links[0].get("up").and_then(Json::as_num), Some(5.0));
    }
}
