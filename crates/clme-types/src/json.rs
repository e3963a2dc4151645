//! A tiny, dependency-free JSON encoder/decoder with *stable* output.
//!
//! The run-matrix driver persists `StatsSnapshot`s as JSON and diffs
//! them against checked-in goldens, so the encoding must be byte-stable
//! across runs, thread counts, and platforms:
//!
//! * objects preserve insertion order (the snapshot layer inserts keys in
//!   a fixed order),
//! * integers print as integers, floats through Rust's shortest
//!   round-trip formatter (deterministic by specification),
//! * the writer emits exactly one canonical spacing (two-space indent,
//!   `": "` separators, trailing newline at top level is the caller's
//!   choice).
//!
//! The parser accepts standard JSON (objects, arrays, strings, numbers,
//! booleans, null) — enough to read golden snapshots back; it is not a
//! general-purpose validator.

use core::fmt::Write as _;

/// A parsed or under-construction JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers within u64 range are kept exact.
    Num(f64),
    /// A string (unescaped form).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialises with two-space indentation (stable byte-for-byte).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => write_number(out, *v),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Arr(items) => {
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
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        // Exact integers print without a fractional part so counters stay
        // readable and byte-stable.
        let _ = write!(out, "{}", v as i64);
    } else {
        // Rust's float Display is the shortest representation that
        // round-trips — deterministic across platforms.
        let _ = write!(out, "{v}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                core::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = core::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
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
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    #[test]
    fn round_trips_nested_structure() {
        let v = obj(vec![
            ("name", JsonValue::Str("bfs/counter-light".into())),
            ("count", JsonValue::Num(12345.0)),
            ("rate", JsonValue::Num(0.1875)),
            ("flag", JsonValue::Bool(true)),
            (
                "nested",
                obj(vec![(
                    "inner",
                    JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Null]),
                )]),
            ),
        ]);
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn encoding_is_byte_stable() {
        let make = || obj(vec![("a", JsonValue::Num(1.0)), ("b", JsonValue::Num(2.5))]);
        assert_eq!(make().to_pretty(), make().to_pretty());
        assert_eq!(make().to_pretty(), "{\n  \"a\": 1,\n  \"b\": 2.5\n}");
    }

    #[test]
    fn integers_print_without_fraction() {
        let mut s = String::new();
        write_number(&mut s, 42.0);
        assert_eq!(s, "42");
        s.clear();
        write_number(&mut s, -7.0);
        assert_eq!(s, "-7");
        s.clear();
        write_number(&mut s, 0.125);
        assert_eq!(s, "0.125");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = JsonValue::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn hostile_strings_escape_exactly() {
        let mut s = String::new();
        write_string(&mut s, "say \"hi\"");
        assert_eq!(s, r#""say \"hi\"""#);
        s.clear();
        write_string(&mut s, "back\\slash");
        assert_eq!(s, r#""back\\slash""#);
        s.clear();
        write_string(&mut s, "bell\u{7}null\u{0}esc\u{1b}");
        assert_eq!(s, "\"bell\\u0007null\\u0000esc\\u001b\"");
        s.clear();
        // Multi-byte characters pass through unescaped (JSON is UTF-8).
        write_string(&mut s, "µops \u{1F600}");
        assert_eq!(s, "\"µops \u{1F600}\"");
    }

    #[test]
    fn every_control_char_round_trips() {
        let hostile: String = (0u32..0x20)
            .map(|c| char::from_u32(c).unwrap())
            .chain("\"\\/\u{7f}".chars())
            .collect();
        let v = JsonValue::Str(hostile.clone());
        let text = v.to_pretty();
        // No raw control bytes may survive into the emitted text.
        assert!(
            text.bytes().all(|b| b >= 0x20),
            "emitted JSON leaks raw control bytes: {text:?}"
        );
        assert_eq!(parse(&text).unwrap(), v);
        // Keys are strings too: the same escaping must apply there.
        let keyed = JsonValue::Obj(vec![(hostile.clone(), JsonValue::Num(1.0))]);
        let text = keyed.to_pretty();
        // The pretty-printer's own layout newlines are fine; escaped
        // content must not reintroduce any other control byte.
        assert!(text.bytes().all(|b| b >= 0x20 || b == b'\n'));
        assert_eq!(parse(&text).unwrap(), keyed);
    }

    #[test]
    fn get_and_accessors() {
        let v = obj(vec![
            ("x", JsonValue::Num(3.0)),
            ("s", JsonValue::Str("hi".into())),
        ]);
        assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("hi"));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_obj().unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parses_whitespace_and_empties() {
        assert_eq!(parse(" { } ").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Num(-150.0));
    }
}
