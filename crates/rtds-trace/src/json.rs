//! A minimal, deterministic JSON value, writer and parser — the one
//! definition of the dialect every RTDS document is written in.
//!
//! Sweep reports, workload traces, checkpoints and the `rtds-trace/1` JSONL
//! lines all serialize through this hand-rolled layer; no type derives a
//! `serde` trait. It lives in this crate because
//! `rtds-trace` is the dependency-free bottom of the crate graph and already
//! has to write the dialect; `rtds_sim::json` re-exports it.
//! Everything about the output is pinned: object keys keep insertion order,
//! numbers render via Rust's shortest-round-trip formatting, and non-finite
//! floats become `null` — so a report is byte-identical across runs, thread
//! counts and platforms.
//!
//! Two renderings are provided: [`Json::render`] (pretty, two-space indent,
//! used for the report files) and [`Json::render_compact`] (single line,
//! used for JSONL workload traces). Streaming writers that never build a
//! tree (the trace event lines, the Chrome export) call the scalar writers
//! `write_f64` and `write_escaped` directly. [`Json::parse`] reads either
//! form back in time linear in the input, refusing documents nested deeper
//! than [`MAX_DEPTH`]; because shortest-round-trip float formatting is exact,
//! a render → parse → render cycle is byte-identical, which the trace
//! record/replay machinery in `rtds-workload` relies on.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (renders without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order for deterministic output.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as a pretty-printed JSON document (two-space
    /// indent) plus a trailing newline — the report-file form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends the pretty rendering of the value to `out` as it appears
    /// nested `depth` containers deep in a larger document (no trailing
    /// newline). A writer that assembles a document piece by piece — the
    /// sweep report renders one scenario at a time — gets the same bytes as
    /// [`Json::render`] of the whole tree without ever building it.
    pub fn write_pretty(&self, out: &mut String, depth: usize) {
        self.write(out, Some(depth));
    }

    /// Renders the value on a single line with no whitespace and no trailing
    /// newline (the JSONL form used by workload traces).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact rendering to `out` (for writers that assemble a
    /// line out of several values without an intermediate `String`).
    pub(crate) fn write_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// The value of an object field, if this is an object with that key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int`, `UInt` and `Num` all convert to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// Unsigned view: `UInt`, non-negative `Int` and integral `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            Json::Num(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Some(x as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (either rendering form) in time linear in its
    /// length. Trailing whitespace is allowed; trailing garbage and nesting
    /// deeper than [`MAX_DEPTH`] are errors.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Shared writer behind both renderings: `indent` is the current
    /// nesting depth in pretty mode, `None` in compact (single-line) mode.
    /// One code path keeps the two forms scalar-for-scalar identical,
    /// which the trace record/replay byte-fixpoint depends on.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|d| d + 1));
                    write_escaped(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// Error raised by [`Json::parse`]: the byte offset of the failure plus a
/// human-readable description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest container nesting [`Json::parse`] accepts. The deepest document
/// the workspace writes — a streaming checkpoint, whose queued job-arrival
/// messages carry task-graph adjacency lists — nests 13 levels; anything
/// beyond 64 is refused rather than recursed into, so hostile input cannot
/// overflow the stack.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.container(b']'),
            Some(b'{') => self.container(b'}'),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An array (`close == b']'`) or an object (`close == b'}'`); the
    /// opening bracket is the byte under the cursor.
    fn container(&mut self, close: u8) -> Result<Json, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        self.pos += 1;
        let is_object = close == b'}';
        let mut items = Vec::new();
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                if is_object {
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    fields.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ if is_object => return Err(self.err("expected ',' or '}' in object")),
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(if is_object {
            Json::Object(fields)
        } else {
            Json::Array(items)
        })
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece.
            // Both delimiters are ASCII and the input is a `&str`, so the
            // run ends on a character boundary whatever it contains.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1,
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => {
                    self.pos -= 1;
                    return Err(self.err("invalid escape sequence"));
                }
            });
        }
    }

    /// The character of a `\uXXXX` escape (a surrogate pair for the astral
    /// planes); the cursor is on the first hex digit.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let code = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&code) {
            // High surrogate: a low surrogate must follow.
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
        } else {
            code
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let mut code = 0;
        for &d in digits {
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid unicode escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'+' | b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        // Integral tokens become Int/UInt so that a parse → render cycle
        // preserves the original spelling; overflow falls through to f64.
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("invalid number {text:?}"),
            })
    }
}

/// Line break plus indentation in pretty mode; nothing in compact mode.
fn newline(out: &mut String, indent: Option<usize>) {
    let Some(indent) = indent else { return };
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends a float in the dialect's number form: shortest round-trip digits
/// for finite values, `null` otherwise.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest round-trip float formatting ("1.0",
        // "0.25", "1e-7"), stable across platforms and always JSON-legal
        // for finite values.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string with the dialect's minimal escapes
/// (`\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX` for other control characters).
/// Everything between two escapes is copied in one piece; the escaped
/// bytes are ASCII, so those pieces end on character boundaries.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::UInt(7).render(), "7\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
        assert_eq!(Json::Num(2.0).render(), "2.0\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"\n");
    }

    #[test]
    fn containers_render_with_stable_order() {
        let doc = Json::object(vec![
            ("b", Json::Int(1)),
            ("a", Json::Array(vec![Json::Int(2), Json::str("x")])),
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
        ]);
        let rendered = doc.render();
        // Keys stay in insertion order (b before a), nested indentation is
        // two spaces per level.
        let expected = "{\n  \"b\": 1,\n  \"a\": [\n    2,\n    \"x\"\n  ],\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n";
        assert_eq!(rendered, expected);
        // Rendering is a pure function.
        assert_eq!(rendered, doc.render());
    }

    #[test]
    fn compact_rendering_is_single_line() {
        let doc = Json::object(vec![
            ("t", Json::Num(12.5)),
            ("site", Json::UInt(3)),
            ("tags", Json::Array(vec![Json::str("a"), Json::Null])),
        ]);
        assert_eq!(
            doc.render_compact(),
            "{\"t\":12.5,\"site\":3,\"tags\":[\"a\",null]}"
        );
    }

    #[test]
    fn parse_round_trips_both_renderings() {
        let doc = Json::object(vec![
            ("name", Json::str("wave \"q\"\n")),
            ("count", Json::UInt(18446744073709551615)),
            ("delta", Json::Int(-42)),
            ("rate", Json::Num(0.30000000000000004)),
            ("tiny", Json::Num(1e-7)),
            ("flag", Json::Bool(false)),
            ("missing", Json::Null),
            (
                "items",
                Json::Array(vec![Json::Num(1.0), Json::Object(vec![])]),
            ),
        ]);
        let pretty = doc.render();
        let compact = doc.render_compact();
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        // Shortest-round-trip floats make render → parse → render a fixpoint.
        assert_eq!(Json::parse(&pretty).unwrap().render(), pretty);
        assert_eq!(Json::parse(&compact).unwrap().render_compact(), compact);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"abc",
            "[1] x",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[nul]").unwrap_err();
        assert!(err.to_string().contains("byte 1"), "{err}");
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let parsed = Json::parse("\"a\\u0041\\n\\t\\\\ \\u00e9 π\"").unwrap();
        assert_eq!(parsed, Json::str("aA\n\t\\ é π"));
        // Surrogate pair for U+1D11E (musical G clef).
        let clef = Json::parse("\"\\uD834\\uDD1E\"").unwrap();
        assert_eq!(clef, Json::str("\u{1D11E}"));
        assert!(Json::parse("\"\\uD834\"").is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::object(vec![
            ("n", Json::UInt(9)),
            ("x", Json::Num(2.5)),
            ("s", Json::str("hi")),
            ("a", Json::Array(vec![Json::Int(1)])),
        ]);
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(9.0));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("x").and_then(Json::as_u64), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            doc.get("a").and_then(Json::items).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
