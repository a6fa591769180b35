//! Offline stand-in for `serde_json`: a JSON [`Value`] tree, the `json!`
//! macro, and `to_string` / `to_string_pretty` / `to_vec` / `from_str` over
//! the serde shim's [`Content`] data model.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

/// JSON number — integer and float representations are kept distinct so
/// round-trips preserve the original shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer.
    I(i64),
    /// Unsigned integer above `i64::MAX`.
    U(u64),
    /// Float.
    F(f64),
}

impl Number {
    /// The value widened to f64.
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::I(v) => *v as f64,
            Number::U(v) => *v as f64,
            Number::F(v) => *v,
        }
    }
}

/// Insertion-ordered string-keyed map (mirrors serde_json's `preserve_order`
/// flavor, which matches how EXPLAIN output is asserted field-by-field).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(K, V)>,
}

impl Map<String, Value> {
    /// Empty map.
    pub fn new() -> Self {
        Map { entries: Vec::new() }
    }

    /// Inserts, replacing any existing entry with the same key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Number.
    Number(Number),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object.
    Object(Map<String, Value>),
}

impl Value {
    /// Object field or `None` for non-objects / missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Borrows the string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the array payload.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Widened numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Integer payload when the number is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::I(v)) => Some(*v),
            _ => None,
        }
    }

    /// True for strings.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// True for numbers.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// True for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    fn to_content(&self) -> Content {
        match self {
            Value::Null => Content::Null,
            Value::Bool(b) => Content::Bool(*b),
            Value::Number(Number::I(v)) => Content::I64(*v),
            Value::Number(Number::U(v)) => Content::U64(*v),
            Value::Number(Number::F(v)) => Content::F64(*v),
            Value::String(s) => Content::Str(s.clone()),
            Value::Array(a) => Content::Seq(a.iter().map(Value::to_content).collect()),
            Value::Object(m) => Content::Map(
                m.entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_content()))
                    .collect(),
            ),
        }
    }

    fn from_content(c: &Content) -> Value {
        match c {
            Content::Null => Value::Null,
            Content::Bool(b) => Value::Bool(*b),
            Content::I64(v) => Value::Number(Number::I(*v)),
            Content::U64(v) => Value::Number(Number::U(*v)),
            Content::F64(v) => Value::Number(Number::F(*v)),
            Content::Str(s) => Value::String(s.clone()),
            Content::Seq(items) => Value::Array(items.iter().map(Value::from_content).collect()),
            Content::Map(entries) => Value::Object(Map {
                entries: entries
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from_content(v)))
                    .collect(),
            }),
        }
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Content {
        self.to_content()
    }
}

impl Deserialize for Value {
    fn deserialize(c: &Content) -> std::result::Result<Self, DeError> {
        Ok(Value::from_content(c))
    }
}

/// Compact JSON text, byte for byte what [`to_string`] gives, written
/// straight from the tree: no intermediate copy and no `String` unless the
/// sink is one. `format!("{value}")` and `write!(sink, "{value}")` both use it.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write;
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(*n, f),
            Value::String(s) => write_escaped(s, f),
            Value::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Value::Object(m) => {
                f.write_char('{')?;
                for (i, (k, v)) in m.entries.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(k, f)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

static NULL_VALUE: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}
impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::String(s.clone())
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Number(Number::I(v as i64))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Number(Number::I(v))
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Number(Number::I(v as i64))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        if v <= i64::MAX as u64 {
            Value::Number(Number::I(v as i64))
        } else {
            Value::Number(Number::U(v))
        }
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::F(v))
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}
impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}
impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}
impl PartialEq<i32> for Value {
    fn eq(&self, other: &i32) -> bool {
        matches!(self, Value::Number(Number::I(v)) if *v == *other as i64)
    }
}
impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        matches!(self, Value::Number(Number::I(v)) if v == other)
    }
}
impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        matches!(self, Value::Number(Number::I(v)) if *v >= 0 && *v as u64 == *other)
            || matches!(self, Value::Number(Number::U(v)) if v == other)
    }
}
impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

/// Builds a [`Value`] from JSON-ish syntax; supports the literal / object /
/// array shapes this workspace writes.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $( $elem:tt ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $( $key:literal : $val:tt ),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert($key.to_string(), $crate::json!($val)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Result alias matching serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes any [`Serialize`] value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.serialize(), &mut out, None, 0);
    Ok(out)
}

/// Serializes to pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.serialize(), &mut out, Some(2), 0);
    Ok(out)
}

/// Serializes to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Parses JSON text into any [`DeserializeOwned`](serde::de::DeserializeOwned) type.
pub fn from_str<T: serde::de::DeserializeOwned>(s: &str) -> Result<T> {
    let content = Parser { bytes: s.as_bytes(), pos: 0 }.parse_document()?;
    T::deserialize(&content).map_err(Error::from)
}

/// Writes `s` as a quoted JSON string, copying each run of characters that
/// need no escape in one `write_str` (every escaped character is ASCII, so
/// the byte offsets are char boundaries).
fn write_escaped<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Writes a number as JSON: floats keep their `{:?}` shape (a trailing `.0`
/// survives round-trips) and non-finite floats become `null`.
fn write_number<W: fmt::Write>(n: Number, out: &mut W) -> fmt::Result {
    match n {
        Number::I(v) => write!(out, "{v}"),
        Number::U(v) => write!(out, "{v}"),
        Number::F(v) if v.is_finite() => write!(out, "{v:?}"),
        Number::F(_) => out.write_str("null"),
    }
}

const INFALLIBLE: &str = "writing to a String cannot fail";

fn write_content(c: &Content, out: &mut String, indent: Option<usize>, depth: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => (
            "\n",
            " ".repeat(w * depth),
            " ".repeat(w * (depth + 1)),
        ),
        None => ("", String::new(), String::new()),
    };
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(v) => write_number(Number::I(*v), out).expect(INFALLIBLE),
        Content::U64(v) => write_number(Number::U(*v), out).expect(INFALLIBLE),
        Content::F64(v) => write_number(Number::F(*v), out).expect(INFALLIBLE),
        Content::Str(s) => write_escaped(s, out).expect(INFALLIBLE),
        Content::Seq(items) => {
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
                out.push_str(&pad_in);
                write_content(item, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_escaped(k, out).expect(INFALLIBLE);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(v, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse_document(&mut self) -> Result<Content> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error(format!("trailing input at byte {}", self.pos)));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'n') => self.parse_keyword("null", Content::Null),
            Some(b't') => self.parse_keyword("true", Content::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(_) => self.parse_number(),
            None => Err(Error("unexpected end of input".into())),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Content) -> Result<Content> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid utf-8".into()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if text.is_empty() {
            return Err(Error(format!("expected value at byte {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Content::I64(v))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Content::U64(v))
        } else {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let v = json!({
            "Node Type": "Table Scan",
            "Total Cost": 2.75,
            "Plan Rows": 25,
            "Plans": [{"Node Type": "Filter"}]
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back["Node Type"], "Table Scan");
        assert_eq!(back["Total Cost"], 2.75);
        assert_eq!(back["Plan Rows"], 25);
        assert_eq!(back["Plans"][0]["Node Type"], "Filter");
    }

    #[test]
    fn float_shape_survives() {
        let text = to_string(&json!(1.0f64)).unwrap();
        assert_eq!(text, "1.0");
        let back: Value = from_str(&text).unwrap();
        assert!(back.is_number());
        assert_eq!(back, 1.0);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::String("a\"b\\c\nd\u{1}".into());
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_is_indented() {
        let text = to_string_pretty(&json!({"a": [1, 2]})).unwrap();
        assert!(text.contains("\n  \"a\""));
    }

    #[test]
    fn index_misses_return_null() {
        let v = json!({"a": 1});
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v["a"][3], Value::Null);
    }
}
