//! A small self-contained JSON parser/printer.
//!
//! The workspace builds fully offline, so `serde`/`serde_json` are
//! unavailable; run configs are plain JSON and only need a tree parser
//! and a pretty printer, which this module provides. Parsing is strict
//! (no trailing commas, no comments) and errors carry line/column
//! positions.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is not preserved (keys are sorted),
    /// which keeps serialization deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and sorted keys.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close_pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&format_number(*n)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close_pad);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{:.1}", n)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    fireaxe_obs::chrome::escape(s, out);
    out.push('"');
}

/// A JSON syntax error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {} column {}",
            self.message, self.line, self.column
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            column: col,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or(""));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o["a"].as_array().unwrap().len(), 3);
        assert_eq!(o["a"].as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(o["b"].as_object().unwrap()["c"].as_bool(), Some(true));
        assert_eq!(o["e"].as_str(), Some("x\ny"));
    }

    #[test]
    fn pretty_roundtrip() {
        let text = r#"{"groups": [{"fame5": true, "name": "tiles"}], "clock_mhz": 30.0}"#;
        let v = parse(text).unwrap();
        let back = parse(&v.to_pretty()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn error_positions() {
        let err = parse("{\n  \"a\": oops\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
    }

    /// Every string leaf of `v`, depth first.
    fn strings(v: &Value, out: &mut Vec<String>) {
        match v {
            Value::String(s) => out.push(s.clone()),
            Value::Array(items) => items.iter().for_each(|i| strings(i, out)),
            Value::Object(map) => map.iter().for_each(|(k, i)| {
                out.push(k.clone());
                strings(i, out);
            }),
            _ => {}
        }
    }

    #[test]
    fn written_documents_escape_every_name() {
        use fireaxe_obs::{
            metric_delta_json, signal_table_json, to_chrome_json_merged, wave_delta_json,
            MetricsSeries, NodeSample, NodeSeries, OwnedTraceEvent, VcdSignal,
        };
        let name = "q\"b\\n\nc\u{1}";
        let signals = vec![VcdSignal {
            scope: name.into(),
            name: name.into(),
            width: 8,
        }];
        let sample = NodeSample::default();
        let series = MetricsSeries {
            sample_interval: 1,
            nodes: vec![NodeSeries {
                node: name.into(),
                samples: vec![sample],
            }],
            links: Vec::new(),
        };
        let event = OwnedTraceEvent {
            name: name.into(),
            kind: fireaxe_obs::EventKind::Instant,
            host_ns: 0,
            virt_ps: 0,
            value: 0.0,
            tid: 0,
        };
        let wave = [(3, 0, fireaxe_ir::Bits::from_u64(5, 8))];
        for (doc, expect) in [
            (signal_table_json(&signals), vec![name, name]),
            (
                wave_delta_json(&signals, &wave),
                vec![&format!("{name}:{name}")],
            ),
            (metric_delta_json(name, &[sample]), vec![name]),
            (series.to_json(), vec![name]),
            (
                to_chrome_json_merged(&[(name.into(), vec![event])]),
                vec![name, name],
            ),
        ] {
            let v = parse(&doc).unwrap_or_else(|e| panic!("{e} in {doc}"));
            let mut found = Vec::new();
            strings(&v, &mut found);
            found.retain(|s| s.contains(name));
            assert_eq!(found, expect, "{doc}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }
}
