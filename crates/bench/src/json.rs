//! Minimal vendored JSON tree, parser, and pretty-printer.
//!
//! The container has no crates.io access, so — following the `shims/`
//! pattern — the bench harness carries its own JSON layer: exactly the
//! surface the scenario specs ([`crate::spec`]) and `BENCH_<tag>.json`
//! records ([`crate::record`]) need, nothing more.
//!
//! Design points:
//!
//! * **Objects preserve insertion order** (`Vec<(String, Json)>`), so a
//!   serialized record is byte-stable across runs — diffs of committed
//!   `BENCH_*.json` files stay reviewable.
//! * **Numbers are `f64`.** Integers render without a trailing `.0`
//!   (Rust's shortest-round-trip `Display`), and every integer up to
//!   2⁵³ — far above any τ value or millisecond count we record — is
//!   exact. Non-finite values are unrepresentable in JSON; the writer
//!   panics on them (records only ever hold finite numbers).
//! * **Strict parser**: rejects trailing garbage, unterminated strings,
//!   bad escapes, bare `NaN`/`Infinity`, duplicate object keys, and
//!   nesting beyond [`MAX_DEPTH`] (an adversarial 10k-deep document is an
//!   offset-carrying [`JsonError`], not a stack overflow), reporting the
//!   byte offset in every case.

use std::fmt::Write as _;

/// Maximum container nesting depth the parser accepts. Far above any spec
/// or record shape (≤ 4 levels), far below what recursion could overflow.
pub const MAX_DEPTH: usize = 128;

/// Largest integer `f64` represents exactly (2⁵³). Above this, distinct
/// integer literals collapse to the same float, so both the reader
/// ([`Json::as_u64`]) and the writer ([`Json::from::<u64>`]) refuse —
/// a silent off-by-one in a τ column must never round-trip.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see module docs for the integer-exactness contract).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as built/parsed.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset into the input plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs (order preserved).
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a number that is exactly
    /// one. Values at or above [`MAX_EXACT_INT`] are rejected: `2⁵³` and
    /// `2⁵³ + 1` parse to the same `f64`, so such a literal cannot be
    /// trusted to mean the integer it spells.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(|v| {
            let u = v as u64;
            (u as f64 == v && u < MAX_EXACT_INT).then_some(u)
        })
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// String slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parse a complete JSON document (rejects trailing non-whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Pretty-print with two-space indentation and a trailing newline
    /// (stable output; see module docs).
    ///
    /// # Panics
    /// Panics on non-finite numbers, which JSON cannot represent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON cannot represent non-finite number {v}");
                // Rust's f64 Display is shortest-round-trip and never uses
                // exponent notation, so this is always valid JSON.
                write!(out, "{v}").expect("write to String");
            }
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    /// # Panics
    /// Panics at or above [`MAX_EXACT_INT`] (2⁵³), where `f64` loses
    /// integer exactness — mirror of the [`Json::as_u64`] read-side bound.
    fn from(v: u64) -> Json {
        assert!(
            v < MAX_EXACT_INT,
            "integer {v} exceeds f64 exactness (2^53)"
        );
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    /// # Panics
    /// Panics above 2⁵³, where `f64` loses integer exactness.
    fn from(v: usize) -> Json {
        Json::from(v as u64)
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

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` maps to `null` (how absent τ values are recorded).
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.into(),
        }
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
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII token");
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => {
                self.pos = start;
                Err(self.err(format!("invalid number {token:?}")))
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let tok = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(tok, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over a plain UTF-8 run.
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => unreachable!("loop above stops only at quote/backslash/end"),
            }
        }
    }

    /// Bump the container depth, rejecting adversarially deep documents
    /// before recursion can overflow the stack.
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    msg: format!("duplicate key {key:?}"),
                });
            }
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
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, {"b": null}, "x"], "c": {"d": false}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Bool(false)));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\te\u{8}\u{1f}π🦀".into());
        let rendered = original.render();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""π 🦀""#).unwrap(), Json::Str("π 🦀".into()));
        assert!(Json::parse(r#""\ud83e""#).is_err()); // lone high surrogate
        assert!(Json::parse(r#""\udd80""#).is_err()); // lone low surrogate
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(5.0).render(), "5\n");
        assert_eq!(Json::Num(0.25).render(), "0.25\n");
    }

    #[test]
    fn render_parse_round_trip_is_identity() {
        let v = Json::obj([
            ("tag", Json::from("tiny")),
            ("tau", Json::from(Some(17u64))),
            ("missing", Json::from(None::<u64>)),
            ("ms", Json::from(1.25f64)),
            (
                "cells",
                Json::Arr(vec![Json::obj([("n", Json::from(64usize))])]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Idempotent: render of the parse equals the first render.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "01x",
            "NaN",
            "Infinity",
            "\"unterminated",
            "\"bad\\q\"",
            "1 2",
            "[1] trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        // 10k-deep adversarial documents must come back as offset-carrying
        // errors; without the depth cap each of these would overflow the
        // parser's recursion and abort the process.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let bomb = format!("{}null{}", open.repeat(10_000), close.repeat(10_000));
            let e = Json::parse(&bomb).unwrap_err();
            assert!(e.msg.contains("nesting deeper"), "{e}");
            // The error fires just after the opener that crossed the cap.
            assert_eq!(e.offset, open.len() * MAX_DEPTH + 1, "offset at the limit");
        }
        // Exactly at the limit is still fine.
        let ok = format!("{}null{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn rejects_duplicate_keys_with_offset() {
        let e = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(e.msg.contains("duplicate key \"a\""), "{e}");
        assert_eq!(e.offset, 17, "offset points at the second \"a\"");
        // Duplicates buried in nested objects are caught too.
        assert!(Json::parse(r#"{"x": {"y": 1, "y": 2}}"#).is_err());
    }

    #[test]
    fn huge_integers_do_not_silently_mangle() {
        // 2^53 and 2^53 + 1 spell different integers but parse to the same
        // f64 — the reader must refuse rather than return the wrong one.
        let ambiguous = Json::parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(ambiguous.as_u64(), None);
        assert_eq!(Json::parse("9007199254740992").unwrap().as_u64(), None); // 2^53
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None); // 2^64
                                                                                 // The float view stays available for callers that want it.
        assert!(ambiguous.as_f64().is_some());
        // The largest trustworthy integer round-trips exactly.
        let max_ok = MAX_EXACT_INT - 1;
        assert_eq!(
            Json::parse(&max_ok.to_string()).unwrap().as_u64(),
            Some(max_ok)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds f64 exactness")]
    fn writer_panics_on_inexact_integer() {
        let _ = Json::from(MAX_EXACT_INT);
    }

    #[test]
    fn truncated_documents_error_at_the_cut() {
        for truncated in [
            "{\"a\": [1, {\"b\"", // object cut after a nested key
            "{\"a\": tr",         // literal cut mid-word
            "[1, 2, ",            // array cut after a comma
            "\"abc\\u00",         // \u escape cut mid-hex
            "\"abc\\",            // escape introducer at end of input
            "{\"a\": 1,",         // object cut expecting the next key
            "123e",               // number cut mid-exponent
        ] {
            let e = Json::parse(truncated).unwrap_err();
            assert!(e.offset <= truncated.len(), "{truncated:?} -> {e}");
        }
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = Json::parse(r#"{"s": "x", "n": 1.5}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("n").unwrap().as_u64(), None, "1.5 is not an integer");
        assert_eq!(v.get("absent"), None);
        assert_eq!(Json::Null.get("k"), None);
    }
}
