//! A hand-rolled, zero-dependency JSON value type with writer and parser.
//!
//! The workspace builds fully offline, so `serde_json` is not available;
//! this module covers the slice of JSON the observability layer needs:
//! building values ([`Json`]), rendering them compactly or pretty
//! ([`Json::to_string`], [`Json::to_pretty_string`]), and parsing them back
//! ([`parse`]) so tests can verify that emitted traces round-trip.
//!
//! Numbers are stored as `f64` (JSON has a single number type); integer
//! values up to 2^53 render without a decimal point, which covers every
//! counter the runtime emits.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// A JSON value.
///
/// Objects use a [`BTreeMap`] so rendering is deterministic (sorted keys) —
/// important for diffable `results/*.json` artifacts.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (integers render without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts `key: value` (builder style). Calling `set` on a non-object
    /// is a caller bug, but it must never abort a run (sinks build JSON on
    /// the hot path, sometimes from values parsed back off disk): debug
    /// builds panic to surface the misuse, release builds return `self`
    /// unchanged.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            other => {
                // debug_assert-style guard, spelled out because clippy
                // rejects constant assertions.
                if cfg!(debug_assertions) {
                    panic!("Json::set on non-object {other:?}");
                }
            }
        }
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `bool`, when it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

/// Renders a number the way JSON expects: integers without a fractional
/// part, non-finite values (which JSON cannot express) as `null`.
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        s
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    // Integers up to 2^53 render exactly through f64; the runtime's
    // counters (ns, bytes, steps) stay far below that. This is the ONE
    // sanctioned u64→f64 entry point in the crate — everything else must
    // go through it (`clippy::cast_precision_loss` is denied in CI).
    #[allow(clippy::cast_precision_loss)]
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}
impl From<i64> for Json {
    // Same contract as `From<u64>`: exact for |n| ≤ 2^53.
    #[allow(clippy::cast_precision_loss)]
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<Duration> for Json {
    /// Exact nanoseconds, saturating at `u64::MAX` (~584 years).
    fn from(d: Duration) -> Json {
        Json::from(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// A JSON parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the error occurred at.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
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

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            match code {
                                0xD800..=0xDBFF => {
                                    // A high surrogate is only meaningful as
                                    // the first half of an escaped pair:
                                    // peek at a following `\uXXXX` and, when
                                    // it holds the low half, combine the two
                                    // into one scalar (RFC 8259 §7).
                                    let lo = if self.bytes.get(self.pos + 1) == Some(&b'\\')
                                        && self.bytes.get(self.pos + 2) == Some(&b'u')
                                    {
                                        self.hex4(self.pos + 3).ok()
                                    } else {
                                        None
                                    };
                                    if let Some(lo @ 0xDC00..=0xDFFF) = lo {
                                        let scalar =
                                            0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                        out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                                        self.pos += 6;
                                    } else {
                                        // Genuinely lone high surrogate: the
                                        // replacement char. A following
                                        // non-surrogate escape is left in
                                        // place and decoded on its own.
                                        out.push('\u{fffd}');
                                    }
                                }
                                // A low surrogate with no preceding high
                                // half is always lone.
                                0xDC00..=0xDFFF => out.push('\u{fffd}'),
                                _ => out.push(char::from_u32(code).unwrap_or('\u{fffd}')),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the four hex digits of a `\uXXXX` escape starting at `at`.
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        if at + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[at..at + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.5).to_string(), "3.5");
        assert_eq!(Json::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn object_keys_are_sorted() {
        let j = Json::object().set("b", 1u64).set("a", 2u64);
        assert_eq!(j.to_string(), "{\"a\":2,\"b\":1}");
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let j = Json::from(nasty);
        let back = parse(&j.to_string()).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn nested_round_trip() {
        let j = Json::object()
            .set("nums", vec![1u64, 2, 3])
            .set("nested", Json::object().set("x", 1.25).set("y", Json::Null))
            .set("flag", false)
            .set("neg", Json::Num(-17.0));
        let compact = parse(&j.to_string()).unwrap();
        let pretty = parse(&j.to_pretty_string()).unwrap();
        assert_eq!(compact, j);
        assert_eq!(pretty, j);
    }

    #[test]
    fn parser_accepts_standard_forms() {
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::object());
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-2.5e-1").unwrap().as_f64(), Some(-0.25));
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn accessors() {
        let j = parse("{\"a\":[1,\"two\"],\"b\":7}").unwrap();
        assert_eq!(j.get("b").and_then(Json::as_u64), Some(7));
        let arr = j.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].as_str(), Some("two"));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn large_integers_render_exactly() {
        let n = 1u64 << 52;
        assert_eq!(Json::from(n).to_string(), n.to_string());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // An escaped pair is one astral scalar, not two U+FFFD.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(
            parse("\"x\\ud83d\\ude00y\"").unwrap().as_str(),
            Some("x😀y")
        );
        // Extremes of the astral range.
        assert_eq!(
            parse("\"\\ud800\\udc00\"").unwrap().as_str(),
            Some("\u{10000}")
        );
        assert_eq!(
            parse("\"\\udbff\\udfff\"").unwrap().as_str(),
            Some("\u{10ffff}")
        );
    }

    #[test]
    fn lone_surrogates_become_replacement_char() {
        // Genuinely lone halves map to U+FFFD...
        assert_eq!(parse("\"\\ud800\"").unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(parse("\"\\udc00\"").unwrap().as_str(), Some("\u{fffd}"));
        // ...including a high half followed by a non-surrogate escape,
        // which must still be decoded on its own.
        assert_eq!(
            parse("\"\\ud800\\u0041\"").unwrap().as_str(),
            Some("\u{fffd}A")
        );
        // Two high halves: each is lone.
        assert_eq!(
            parse("\"\\ud800\\ud800\"").unwrap().as_str(),
            Some("\u{fffd}\u{fffd}")
        );
        // High half at end of string, or followed by a plain char.
        assert_eq!(parse("\"\\ud800z\"").unwrap().as_str(), Some("\u{fffd}z"));
    }

    #[test]
    fn non_bmp_strings_round_trip() {
        // Property test: random strings mixing ASCII, control chars, BMP
        // and astral scalars survive writer -> parser unchanged, and the
        // escaped-pair spelling of the same string parses identically.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // xorshift64* — deterministic, no external crates.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        };
        for _ in 0..200 {
            let len = (next() % 24) as usize;
            let s: String = (0..len)
                .map(|_| match next() % 4 {
                    0 => char::from_u32(0x20 + (next() % 0x5f) as u32).unwrap(),
                    1 => char::from_u32((next() % 0x20) as u32).unwrap(),
                    2 => {
                        // BMP, skipping the surrogate gap.
                        let c = 0xe000 + (next() % (0x10000 - 0xe000)) as u32;
                        char::from_u32(c).unwrap()
                    }
                    _ => {
                        // Astral plane: U+10000 ..= U+10FFFF.
                        let c = 0x10000 + (next() % 0xf0000) as u32;
                        char::from_u32(c).unwrap()
                    }
                })
                .collect();
            let j = Json::from(s.as_str());
            let back = parse(&j.to_string()).expect("writer output parses");
            assert_eq!(back.as_str(), Some(s.as_str()), "raw round trip");
            // The same string spelled entirely with \uXXXX escapes (astral
            // chars as surrogate pairs) must decode to the identical value.
            let mut escaped = String::from("\"");
            for c in s.chars() {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    escaped.push_str(&format!("\\u{unit:04x}"));
                }
            }
            escaped.push('"');
            let back = parse(&escaped).expect("escaped spelling parses");
            assert_eq!(back.as_str(), Some(s.as_str()), "escaped round trip");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Json::set on non-object")]
    fn set_on_non_object_trips_in_debug_builds() {
        let _ = Json::Num(1.0).set("k", 2u64);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn set_on_non_object_is_ignored_in_release_builds() {
        // The value survives unchanged — a malformed sink path must never
        // abort a run.
        assert_eq!(Json::Num(1.0).set("k", 2u64), Json::Num(1.0));
        assert_eq!(
            Json::Arr(vec![]).set("k", 2u64),
            Json::Arr(vec![]),
            "arrays too"
        );
    }
}
