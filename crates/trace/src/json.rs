//! A minimal JSON value, writer and parser.
//!
//! The trace exporters, the daemon protocol and the benchmark row dumps all
//! need machine-readable output, and the workspace builds offline (no
//! serde). This module covers exactly what those producers and consumers
//! use: the six JSON value kinds, string escaping (including surrogate-pair
//! decoding — span names carry arbitrary node and scenario names), and a
//! strict recursive-descent parser that round-trips everything the writer
//! emits. It lives at the bottom of the crate stack so this crate's
//! exporters and every crate above it (`timepiece-sched` re-exports it) can
//! use it.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects preserve insertion order (stable output for diffs
/// and golden tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `usize`, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity literal; null keeps the
                    // writer→parser round-trip promise for every value
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads the 4 hex digits of a `\u` escape starting at `at` (the offset
    /// of the first digit).
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                            let code = self.hex4(self.pos + 1)?;
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes.get(self.pos + 5..self.pos + 7) == Some(b"\\u")
                            {
                                // high surrogate followed by another \u
                                // escape: decode the pair (JSON's only way
                                // to spell astral-plane characters)
                                let low = self.hex4(self.pos + 7)?;
                                if (0xdc00..0xe000).contains(&low) {
                                    let combined =
                                        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    out.push(char::from_u32(combined).expect("paired surrogates"));
                                    self.pos += 10;
                                } else {
                                    // \u pair that is not a surrogate pair:
                                    // lone high surrogate, then the second
                                    // escape stands alone
                                    out.push('\u{fffd}');
                                    self.pos += 4;
                                }
                            } else {
                                // unpaired surrogates have no scalar value;
                                // map them to the replacement character
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe)
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peeked nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err(format!("bad number {text:?}")))
    }
}

/// Convenience: the object's pairs as a map, for consumers that do not care
/// about ordering.
pub fn object_map(value: &Json) -> Option<BTreeMap<&str, &Json>> {
    match value {
        Json::Obj(pairs) => Some(pairs.iter().map(|(k, v)| (k.as_str(), v)).collect()),
        _ => None,
    }
}

/// Default per-line byte bound for [`read_line_value`]: generous enough for
/// any report the workspace produces, small enough that a protocol peer
/// cannot make a reader buffer unboundedly.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

fn framing_err(message: impl Into<String>, offset: usize) -> JsonError {
    JsonError { message: message.into(), offset }
}

/// Reads one newline-delimited JSON value from `reader`.
///
/// This is the wire codec of the `timepieced` NDJSON protocol: one value
/// per `\n`-terminated line, at most `max_bytes` per line. A trailing `\r`
/// before the newline is tolerated.
/// Returns `Ok(None)` on a clean end of stream (no bytes before EOF).
///
/// # Errors
///
/// Returns [`JsonError`] when
///
/// * the stream ends mid-line (a partial read: bytes arrived but no
///   terminating newline),
/// * a line exceeds `max_bytes` (the offending prefix is *not* consumed
///   further; the connection should be dropped),
/// * the line is not valid UTF-8, or
/// * the line is not a single well-formed JSON document.
///
/// I/O errors are folded into the same error type (`message` starts with
/// `"io:"`), so protocol loops have one failure path.
pub fn read_line_value(
    reader: &mut impl std::io::BufRead,
    max_bytes: usize,
) -> Result<Option<Json>, JsonError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(framing_err(format!("io: {e}"), buf.len())),
        };
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(framing_err("unexpected end of stream inside a line", buf.len()));
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if buf.len() + i > max_bytes {
                    return Err(framing_err(
                        format!("line exceeds {max_bytes} bytes"),
                        buf.len() + i,
                    ));
                }
                buf.extend_from_slice(&chunk[..i]);
                reader.consume(i + 1);
                break;
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max_bytes {
                    return Err(framing_err(
                        format!("line exceeds {max_bytes} bytes"),
                        buf.len() + n,
                    ));
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    let text = std::str::from_utf8(&buf)
        .map_err(|e| framing_err("line is not valid UTF-8", e.valid_up_to()))?;
    Json::parse(text).map(Some)
}

/// Writes one JSON value as an NDJSON line (compact form, terminated by
/// `\n`) and flushes, so a blocking peer sees the frame immediately.
///
/// The frame is serialised into one buffer and handed to the writer in a
/// single `write_all`: [`fmt::Display`] emits a fragment per token and
/// escaped character, and on an unbuffered socket each fragment would be
/// its own `send` — many tiny segments for Nagle and delayed ACKs to stall.
///
/// The writer's compact [`fmt::Display`] form never contains a raw newline
/// (strings are escaped), so every value is exactly one frame.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_line_value(writer: &mut impl std::io::Write, value: &Json) -> std::io::Result<()> {
    let mut frame = value.to_string();
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let value = Json::obj([
            ("name", Json::str("Ap\"Reach\"\n")),
            ("k", Json::from(8usize)),
            ("wall", Json::Num(1.625)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::arr([Json::from(1usize), Json::from(-2.5), Json::str("x")])),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn accessors() {
        let value = Json::parse(r#"{"a": 3, "b": [true, null], "s": "hi"}"#).unwrap();
        assert_eq!(value.get("a").and_then(Json::as_usize), Some(3));
        assert_eq!(value.get("s").and_then(Json::as_str), Some("hi"));
        let arr = value.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(value.get("missing"), None);
        assert_eq!(object_map(&value).unwrap().len(), 3);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let value = Json::parse(r#""a\\b\"c\nAü""#).unwrap();
        assert_eq!(value.as_str(), Some("a\\b\"c\nAü"));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42usize).to_string(), "42");
        assert_eq!(Json::Num(0.125).to_string(), "0.125");
    }

    #[test]
    fn non_finite_numbers_print_as_null_and_still_parse() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::arr([Json::Num(n)]).to_string();
            assert_eq!(Json::parse(&text).unwrap(), Json::arr([Json::Null]));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let value = Json::parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(value.get("a").and_then(Json::as_arr).unwrap().len(), 2);
    }

    // ---- string-emission hardening (span names carry arbitrary text) ----

    fn roundtrip(s: &str) {
        let text = Json::str(s).to_string();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{s:?} emitted {text:?}: {e}"));
        assert_eq!(back.as_str(), Some(s), "round-trip of {s:?} via {text:?}");
    }

    #[test]
    fn roundtrips_every_control_character() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            roundtrip(&format!("a{c}b"));
        }
        roundtrip("\u{7f}");
    }

    #[test]
    fn roundtrips_quotes_backslashes_and_mixtures() {
        for s in [
            "\"",
            "\\",
            "\\\\",
            "\\\"",
            "a\"b\\c",
            "\\n",
            "ends with backslash\\",
            "\"quoted\"",
            "\\u0041 not an escape",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn roundtrips_non_ascii_and_astral_characters() {
        for s in ["ü", "nodeα·β", "日本語", "🦀 trace", "\u{10ffff}", "e\u{301}"] {
            roundtrip(s);
        }
    }

    #[test]
    fn roundtrips_strings_used_as_object_keys() {
        for key in ["sp\"reach\"", "tab\there", "日本", "back\\slash"] {
            let value = Json::obj([(key, Json::from(1usize))]);
            let back = Json::parse(&value.to_string()).unwrap();
            assert_eq!(back.get(key).and_then(Json::as_usize), Some(1), "key {key:?}");
        }
    }

    #[test]
    fn decodes_surrogate_pair_escapes() {
        // other JSON writers spell astral characters as surrogate pairs
        assert_eq!(Json::parse("\"\\ud83e\\udd80\"").unwrap().as_str(), Some("🦀"));
        assert_eq!(Json::parse("\"x\\ud834\\udd1ey\"").unwrap().as_str(), Some("x𝄞y"));
    }

    #[test]
    fn lone_surrogate_escapes_become_replacement_characters() {
        // a high surrogate with no low half after it
        assert_eq!(Json::parse("\"\\ud800\"").unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(Json::parse("\"\\ud800x\"").unwrap().as_str(), Some("\u{fffd}x"));
        // a lone low surrogate
        assert_eq!(Json::parse("\"\\udc00\"").unwrap().as_str(), Some("\u{fffd}"));
        // high surrogate followed by a \u escape that is not a low half:
        // the replacement character, then the second escape stands alone
        assert_eq!(Json::parse("\"\\ud800\\u0041\"").unwrap().as_str(), Some("\u{fffd}A"));
    }

    #[test]
    fn truncated_unicode_escapes_are_rejected() {
        for bad in ["\"\\u12\"", "\"\\u\"", "\"\\uzzzz\"", "\"\\ud83e\\uqqqq\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn line_codec_roundtrips_values() {
        let values = [
            Json::obj([("verb", Json::str("status")), ("id", Json::from(3usize))]),
            Json::arr([Json::Null, Json::from(true)]),
            Json::str("newline \n and \"quotes\""),
        ];
        let mut wire = Vec::new();
        for v in &values {
            write_line_value(&mut wire, v).unwrap();
        }
        // escaped strings keep each value on exactly one line
        assert_eq!(wire.iter().filter(|&&b| b == b'\n').count(), values.len());
        let mut reader = std::io::BufReader::new(wire.as_slice());
        for v in &values {
            assert_eq!(read_line_value(&mut reader, MAX_LINE_BYTES).unwrap().as_ref(), Some(v));
        }
        assert_eq!(read_line_value(&mut reader, MAX_LINE_BYTES).unwrap(), None);
    }

    /// Counts `write` calls: each one is a `send` on an unbuffered socket.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_exactly_one_write() {
        // the shape of a daemon `check` reply: a hundred per-node verdicts
        let verdicts: Vec<(String, Json)> =
            (0..100).map(|i| (format!("edge-{i}"), Json::str("verified"))).collect();
        let reply = Json::obj([
            ("verb", Json::str("check")),
            ("ok", Json::from(true)),
            ("wall_ms", Json::from(12.75)),
            ("verdicts", Json::Obj(verdicts)),
        ]);
        // every escape class and characters outside the BMP
        let awkward = Json::obj([
            ("quote \" backslash \\", Json::str("tab\tnewline\ncr\r bell\u{7} nul\u{0}")),
            ("astral", Json::str("🦀 𝔘 é ∀")),
        ]);
        for value in [reply, awkward] {
            let mut wire = CountingWriter::default();
            write_line_value(&mut wire, &value).unwrap();
            assert_eq!(wire.writes, 1, "one frame must be one write: {value}");
            assert_eq!(wire.bytes.iter().filter(|&&b| b == b'\n').count(), 1);
            let mut reader = std::io::BufReader::new(wire.bytes.as_slice());
            assert_eq!(read_line_value(&mut reader, MAX_LINE_BYTES).unwrap(), Some(value));
        }
    }

    #[test]
    fn line_codec_reads_across_tiny_buffer_chunks() {
        // a BufReader with a 1-byte buffer forces the multi-fill path
        let value = Json::obj([("k", Json::from(8usize)), ("name", Json::str("SpReach"))]);
        let mut wire = Vec::new();
        write_line_value(&mut wire, &value).unwrap();
        let mut reader = std::io::BufReader::with_capacity(1, wire.as_slice());
        assert_eq!(read_line_value(&mut reader, MAX_LINE_BYTES).unwrap(), Some(value));
    }

    #[test]
    fn line_codec_rejects_partial_reads() {
        // bytes arrived, but the peer died before the terminating newline
        let mut reader = std::io::BufReader::new(&b"{\"verb\":\"check\""[..]);
        let err = read_line_value(&mut reader, MAX_LINE_BYTES).unwrap_err();
        assert!(err.message.contains("end of stream"), "{err}");
    }

    #[test]
    fn line_codec_rejects_oversized_lines() {
        let mut wire = Vec::new();
        write_line_value(&mut wire, &Json::str("x".repeat(100))).unwrap();
        let mut reader = std::io::BufReader::new(wire.as_slice());
        let err = read_line_value(&mut reader, 16).unwrap_err();
        assert!(err.message.contains("exceeds 16 bytes"), "{err}");
        // the same line fits under a larger bound
        let mut reader = std::io::BufReader::new(wire.as_slice());
        assert!(read_line_value(&mut reader, 4096).unwrap().is_some());
    }

    #[test]
    fn line_codec_rejects_invalid_utf8() {
        let mut reader = std::io::BufReader::new(&b"\"ab\xff\xfe\"\n"[..]);
        let err = read_line_value(&mut reader, MAX_LINE_BYTES).unwrap_err();
        assert!(err.message.contains("UTF-8"), "{err}");
        assert_eq!(err.offset, 3, "offset points at the first bad byte");
    }

    #[test]
    fn line_codec_tolerates_crlf_and_rejects_garbage() {
        let mut reader = std::io::BufReader::new(&b"[1,2]\r\n"[..]);
        assert_eq!(
            read_line_value(&mut reader, MAX_LINE_BYTES).unwrap(),
            Some(Json::arr([Json::from(1usize), Json::from(2usize)]))
        );
        let mut reader = std::io::BufReader::new(&b"not json\n"[..]);
        assert!(read_line_value(&mut reader, MAX_LINE_BYTES).is_err());
    }
}
