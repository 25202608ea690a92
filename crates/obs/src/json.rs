//! A hand-rolled JSON document model and writer.
//!
//! The workspace has no serde_json; run artifacts are small and written
//! once per run, so a minimal tree-plus-writer is all that is needed.
//! Objects preserve insertion order, which keeps artifacts diffable.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number. Non-finite floats serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
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
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        // Integral values print without a fractional part, staying inside
        // the range JSON consumers can hold exactly in an f64.
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` prints the shortest representation that round-trips.
        let _ = write!(out, "{n}");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so deeper input is refused instead of overflowing the stack;
/// written artifacts nest a handful of levels.
const MAX_DEPTH: usize = 256;

/// Parses a JSON document produced by [`Json::to_compact`] /
/// [`Json::to_pretty`] (or any standard JSON text) back into a [`Json`]
/// tree. Intended for tests that validate written artifacts; numbers all
/// land in `f64`, so integers beyond 2^53 lose precision. Documents nested
/// deeper than `MAX_DEPTH` levels are an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => self.nested(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'[') { self.array() } else { self.object() };
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid utf-8 in string: {e}"))?,
            );
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect "\uXXXX" for the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".to_owned());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("unpaired surrogate")?
                            };
                            out.push(c);
                            self.pos -= 1; // compensate for the += 1 below
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => unreachable!("loop above stops only at '\"' or '\\\\'"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let s = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_owned())?;
        let n = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))?;
        self.pos = end;
        Ok(n)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = s.parse().map_err(|_| format!("bad number '{s}'"))?;
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(format!("non-finite number '{s}'"))
        }
    }
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
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_round_structure() {
        let j = Json::obj()
            .field("name", "fig20")
            .field("count", 3u64)
            .field("ok", true)
            .field("items", vec![1.5f64, 2.0]);
        assert_eq!(j.to_compact(), r#"{"name":"fig20","count":3,"ok":true,"items":[1.5,2]}"#);
    }

    #[test]
    fn escaping_and_non_finite() {
        let j = Json::obj().field("s", "a\"b\\c\nd\u{1}").field("nan", f64::NAN);
        assert_eq!(j.to_compact(), "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"nan\":null}");
    }

    #[test]
    fn pretty_indents_and_terminates() {
        let j = Json::obj().field("a", Json::Arr(vec![Json::Num(1.0)]));
        assert_eq!(j.to_pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn get_and_accessors() {
        let j = Json::obj().field("x", 4.25f64).field("s", "hi");
        assert_eq!(j.get("x").and_then(Json::as_f64), Some(4.25));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("hi"));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().to_compact(), "{}");
        assert_eq!(Json::Arr(Vec::new()).to_compact(), "[]");
        assert_eq!(Json::obj().to_pretty(), "{}\n");
    }

    #[test]
    fn parse_accepts_all_value_kinds() {
        let j =
            parse(r#" {"a": [1, -2.5, 1e3], "b": null, "c": [true, false], "d": "x"} "#).unwrap();
        assert_eq!(
            j,
            Json::obj()
                .field("a", Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5), Json::Num(1e3)]))
                .field("b", Json::Null)
                .field("c", vec![true, false])
                .field("d", "x")
        );
    }

    #[test]
    fn parse_decodes_escapes() {
        let j = parse(r#""a\"b\\c\nd\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(j, Json::Str("a\"b\\c\ndA😀".to_owned()));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "[1] x",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escaped_keys_round_trip() {
        let j = Json::obj()
            .field("quote\"key", 1u64)
            .field("tab\tkey", 2u64)
            .field("uni😀key", 3u64)
            .field("ctrl\u{2}key", "line\r\nbreak");
        for text in [j.to_compact(), j.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), j, "from {text:?}");
        }
    }

    #[test]
    fn deep_nesting_round_trips() {
        let mut j = Json::Num(7.0);
        for i in 0..200 {
            j = if i % 2 == 0 { Json::Arr(vec![j]) } else { Json::obj().field("d", j) };
        }
        assert_eq!(parse(&j.to_compact()).unwrap(), j);
        assert_eq!(parse(&j.to_pretty()).unwrap(), j);
    }

    #[test]
    fn parse_refuses_nesting_past_the_limit() {
        let n = 100_000;
        let arrays = format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        for deep in [arrays, objects] {
            let err = parse(&deep).expect_err("100,000 levels must be refused");
            assert!(err.contains("nesting deeper than 256 levels at byte"), "{err}");
        }
        let limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&limit).is_ok(), "exactly MAX_DEPTH levels still parse");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj()
            .field("s", "a\"b\\c\nd\u{1}")
            .field("n", 4.25f64)
            .field("big", 8_000_000_000_000_000u64)
            .field("arr", vec![1.5f64, 2.0])
            .field("nested", Json::obj().field("ok", true).field("none", Json::Null));
        assert_eq!(parse(&j.to_compact()).unwrap(), j);
        assert_eq!(parse(&j.to_pretty()).unwrap(), j);
    }
}
