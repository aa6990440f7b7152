//! Hand-rolled JSON writer and parser.
//!
//! The build environment has no crates.io access, so the telemetry
//! layer serializes its records with this small writer instead of
//! `serde_json`. Only what `BENCH_spmv.json` needs is implemented:
//! objects, arrays, strings, booleans, integers and finite floats
//! (non-finite floats serialize as `null`, the same choice browsers
//! make for `JSON.stringify(NaN)`).
//!
//! [`JsonValue`] builds a document tree; [`JsonValue::render`]
//! produces deterministic output — object keys keep their insertion
//! order, so two runs of the same code emit byte-identical documents
//! (modulo the measured numbers themselves).
//!
//! [`JsonValue::parse`] is the matching recursive-descent reader used
//! by the trajectory consumers (`bench_compare`, `spmvtune explain`):
//! it preserves object key order, reads integers without a fraction
//! or exponent into `Int`/`UInt`, and reports errors with a byte
//! offset.

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (serialized without a decimal point).
    Int(i64),
    /// Unsigned integer (serialized without a decimal point).
    UInt(u64),
    /// Finite float; non-finite values render as `null`.
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object; keys keep insertion order for deterministic output.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Creates an empty object.
    pub fn obj() -> JsonValue {
        JsonValue::Obj(Vec::new())
    }

    /// Inserts `key: value` into an object (panics on non-objects —
    /// a misuse, not a data error).
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("JsonValue::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`JsonValue::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up `key` in an object (first match in insertion order);
    /// `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Any numeric payload widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// An integral payload as `u64` (negative integers and floats
    /// with a fraction are `None`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Num(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs in insertion order, if this is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a JSON document. Exactly one top-level value is
    /// accepted; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Renders the document compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the document with `indent`-space pretty-printing.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some((indent, 0)));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, pretty: Option<(usize, usize)>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::UInt(u) => out.push_str(&u.to_string()),
            JsonValue::Num(f) => {
                if f.is_finite() {
                    // `{f}` round-trips f64 exactly in Rust and emits
                    // integers as `1` — valid JSON either way.
                    out.push_str(&format!("{f}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                write_seq(out, pretty, '[', ']', items.len(), |out, i, p| items[i].write(out, p));
            }
            JsonValue::Obj(pairs) => {
                write_seq(out, pretty, '{', '}', pairs.len(), |out, i, p| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if p.is_some() {
                        out.push(' ');
                    }
                    v.write(out, p);
                });
            }
        }
    }
}

/// Shared open/separator/close logic for arrays and objects.
fn write_seq(
    out: &mut String,
    pretty: Option<(usize, usize)>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<(usize, usize)>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = pretty.map(|(w, d)| (w, d + 1));
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some((w, d)) = inner {
            out.push('\n');
            out.push_str(&" ".repeat(w * d));
        }
        item(out, i, inner);
    }
    if let Some((w, d)) = pretty {
        out.push('\n');
        out.push_str(&" ".repeat(w * d));
    }
    out.push(close);
}

/// Writes `s` as a JSON string with the mandatory escapes.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// A parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting limit: documents deeper than this are rejected instead of
/// overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a `\uXXXX` low half
                                // must follow immediately.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number run");
        if !is_float {
            // Integers keep their exact representation when they fit.
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(JsonValue::Num(f)),
            _ => {
                self.pos = start;
                Err(self.err(format!("invalid number `{text}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::Int(-3).render(), "-3");
        assert_eq!(JsonValue::UInt(u64::MAX).render(), u64::MAX.to_string());
        assert_eq!(JsonValue::Num(1.5).render(), "1.5");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn floats_round_trip() {
        for v in [0.1, 1e-300, 123456.789, 2.0f64.powi(-40)] {
            let rendered = JsonValue::Num(v).render();
            assert_eq!(rendered.parse::<f64>().unwrap(), v, "{rendered}");
        }
    }

    #[test]
    fn strings_escape() {
        assert_eq!(JsonValue::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(JsonValue::from("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(JsonValue::from("naïve ✓").render(), "\"naïve ✓\"");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = JsonValue::obj().with("b", 1u64).with("a", 2u64);
        assert_eq!(v.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn nested_pretty_output_is_stable() {
        let v = JsonValue::obj()
            .with("name", "m")
            .with("xs", vec![1.0, 2.5])
            .with("inner", JsonValue::obj().with("ok", true))
            .with("empty", JsonValue::Arr(vec![]));
        let pretty = v.render_pretty(2);
        assert_eq!(
            pretty,
            "{\n  \"name\": \"m\",\n  \"xs\": [\n    1,\n    2.5\n  ],\n  \"inner\": {\n    \"ok\": true\n  },\n  \"empty\": []\n}\n"
        );
        // Compact render of the same tree parses the same shape.
        assert_eq!(v.render(), r#"{"name":"m","xs":[1,2.5],"inner":{"ok":true},"empty":[]}"#);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(JsonValue::parse(&u64::MAX.to_string()).unwrap(), JsonValue::UInt(u64::MAX));
        assert_eq!(JsonValue::parse("1.5e3").unwrap(), JsonValue::Num(1500.0));
        assert_eq!(JsonValue::parse("\"a\\nb\"").unwrap(), JsonValue::from("a\nb"));
    }

    #[test]
    fn parse_preserves_key_order() {
        let v = JsonValue::parse(r#"{"b":1,"a":2,"c":[3,{"z":null}]}"#).unwrap();
        let keys: Vec<&str> = v.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "c"]);
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(v.get("c").and_then(JsonValue::as_array).map(<[_]>::len), Some(2));
    }

    #[test]
    fn parse_render_round_trip() {
        let v = JsonValue::obj()
            .with("name", "consph \"quoted\" \\ \n ✓")
            .with("xs", vec![1.25, -3.0, 0.0])
            .with("n", 17u64)
            .with("neg", JsonValue::Int(-9))
            .with("ok", false)
            .with("none", JsonValue::Null)
            .with("nested", JsonValue::obj().with("empty", JsonValue::Arr(vec![])));
        let parsed = JsonValue::parse(&v.render()).unwrap();
        // Floats that render without a fraction come back as ints;
        // compare via a second render instead of tree equality.
        assert_eq!(parsed.render(), JsonValue::parse(&parsed.render()).unwrap().render());
        assert_eq!(parsed.get("name").unwrap().as_str(), v.get("name").unwrap().as_str());
        assert_eq!(parsed.get("n").unwrap().as_u64(), Some(17));
    }

    #[test]
    fn parse_unicode_escapes_and_surrogates() {
        assert_eq!(JsonValue::parse(r#""Aé""#).unwrap(), JsonValue::from("Aé"));
        // 😀 as a surrogate pair.
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap(), JsonValue::from("😀"));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = JsonValue::parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("01a").is_err());
        let deep = format!("{}1{}", "[".repeat(400), "]".repeat(400));
        assert!(JsonValue::parse(&deep).unwrap_err().message.contains("deep"));
    }

    #[test]
    fn parse_real_trajectory_fragment() {
        let text = r#"{
  "schema": "spmv-bench-trajectory/1",
  "scale": 0.05,
  "matrices": [{"name": "consph", "nnz": 151682, "bounds": {"p_csr": 22.894256141826908}}]
}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("spmv-bench-trajectory/1"));
        let m = &v.get("matrices").unwrap().as_array().unwrap()[0];
        assert_eq!(m.get("nnz").unwrap().as_u64(), Some(151_682));
        assert_eq!(
            m.get("bounds").unwrap().get("p_csr").unwrap().as_f64(),
            Some(22.894_256_141_826_908)
        );
    }
}
