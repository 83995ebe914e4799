//! Exact, versioned wire format for persisting compiled plans.
//!
//! The workspace builds offline, without `serde`, so on-disk
//! persistence — the plan-cache save/load path — is implemented here as
//! a small, self-contained JSON subset. Two properties matter more than
//! generality:
//!
//! * **Exactness.** Reloaded plans must re-execute *bit-exactly*, so
//!   every `f64` (energy, delay, access counts) travels as its IEEE-754
//!   bit pattern (a `u64`), never as a decimal rendering. Integers are
//!   `u64` and parsed without rounding through floating point.
//! * **Versioned schemas.** Every persisted document starts with a
//!   `schema` name and a `v` number; readers reject unknown versions
//!   with a typed [`WireError`] instead of misinterpreting bytes.
//!
//! The encoding is a strict subset of JSON (objects, arrays, strings,
//! unsigned integers, booleans, `null`), so saved caches remain
//! inspectable with ordinary tooling even though this parser only
//! accepts what the workspace writes.
//!
//! # Example
//!
//! ```
//! use eyeriss_wire::Value;
//!
//! let doc = Value::obj([
//!     ("schema", Value::str("eyeriss-demo")),
//!     ("v", Value::u64(1)),
//!     ("energy", Value::f64_bits(1234.5_f64)),
//! ]);
//! let text = doc.render();
//! let back = Value::parse(&text)?;
//! back.expect_schema("eyeriss-demo", 1)?;
//! assert_eq!(back.get("energy")?.as_f64_bits()?, 1234.5);
//! # Ok::<(), eyeriss_wire::WireError>(())
//! ```

use std::fmt;

/// Why a document failed to parse or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The raw text is not well-formed (position, description).
    Syntax(usize, String),
    /// A required object key is absent.
    MissingKey(String),
    /// A value has the wrong type (key or context, expected type).
    WrongType(String, &'static str),
    /// The document's `schema` field names a different schema.
    WrongSchema {
        /// Schema name the reader expected.
        expected: String,
        /// Schema name the document carries.
        found: String,
    },
    /// The document's `v` field is a version this reader cannot decode.
    UnsupportedVersion {
        /// Version the reader supports.
        supported: u64,
        /// Version the document carries.
        found: u64,
    },
    /// A field's value is structurally valid but semantically impossible
    /// (e.g. an unknown enum tag or an unregistered dataflow label).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax(pos, what) => write!(f, "syntax error at byte {pos}: {what}"),
            WireError::MissingKey(k) => write!(f, "missing key {k:?}"),
            WireError::WrongType(ctx, want) => write!(f, "{ctx}: expected {want}"),
            WireError::WrongSchema { expected, found } => {
                write!(f, "schema mismatch: expected {expected:?}, found {found:?}")
            }
            WireError::UnsupportedVersion { supported, found } => {
                write!(
                    f,
                    "unsupported schema version {found} (reader supports {supported})"
                )
            }
            WireError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One node of a wire document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Explicit absence.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (also carries `f64` bit patterns).
    U64(u64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    Arr(Vec<Value>),
    /// Ordered key/value map (keys unique by construction on encode).
    Obj(Vec<(String, Value)>),
}

impl Value {
    // ----- constructors ----------------------------------------------------

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn u64(v: u64) -> Value {
        Value::U64(v)
    }

    /// A `usize` value (stored as `u64`).
    pub fn usize(v: usize) -> Value {
        Value::U64(v as u64)
    }

    /// An `f64` stored exactly, as its IEEE-754 bit pattern.
    pub fn f64_bits(v: f64) -> Value {
        Value::U64(v.to_bits())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Arr(items.into_iter().collect())
    }

    // ----- accessors -------------------------------------------------------

    /// The value under `key`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] if `self` is not an object,
    /// [`WireError::MissingKey`] if the key is absent.
    pub fn get(&self, key: &str) -> Result<&Value, WireError> {
        let Value::Obj(pairs) = self else {
            return Err(WireError::WrongType(key.to_string(), "object"));
        };
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| WireError::MissingKey(key.to_string()))
    }

    /// The value under `key`, or `None` when the key is absent.
    ///
    /// Readers use this for fields added after a schema shipped, where
    /// absence means the field's historical default.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] if `self` is not an object.
    pub fn get_opt(&self, key: &str) -> Result<Option<&Value>, WireError> {
        let Value::Obj(pairs) = self else {
            return Err(WireError::WrongType(key.to_string(), "object"));
        };
        Ok(pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// This value as a `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other variant.
    pub fn as_u64(&self) -> Result<u64, WireError> {
        match self {
            Value::U64(v) => Ok(*v),
            _ => Err(WireError::WrongType(self.kind_label().into(), "u64")),
        }
    }

    /// This value as a `usize`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for non-integers.
    pub fn as_usize(&self) -> Result<usize, WireError> {
        Ok(self.as_u64()? as usize)
    }

    /// This value decoded as an exact `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for non-integers.
    pub fn as_f64_bits(&self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.as_u64()?))
    }

    /// This value as a string slice.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for non-strings.
    pub fn as_str(&self) -> Result<&str, WireError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(WireError::WrongType(self.kind_label().into(), "string")),
        }
    }

    /// This value as a boolean.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for non-booleans.
    pub fn as_bool(&self) -> Result<bool, WireError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(WireError::WrongType(self.kind_label().into(), "bool")),
        }
    }

    /// This value as an array slice.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for non-arrays.
    pub fn as_arr(&self) -> Result<&[Value], WireError> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(WireError::WrongType(self.kind_label().into(), "array")),
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) => "u64",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    // ----- schema helpers --------------------------------------------------

    /// Checks this document's `schema`/`v` header.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongSchema`] or [`WireError::UnsupportedVersion`] on
    /// mismatch; key/type errors if the header is absent.
    pub fn expect_schema(&self, schema: &str, version: u64) -> Result<(), WireError> {
        let found = self.get("schema")?.as_str()?;
        if found != schema {
            return Err(WireError::WrongSchema {
                expected: schema.to_string(),
                found: found.to_string(),
            });
        }
        let v = self.get("v")?.as_u64()?;
        if v != version {
            return Err(WireError::UnsupportedVersion {
                supported: version,
                found: v,
            });
        }
        Ok(())
    }

    // ----- rendering -------------------------------------------------------

    /// Renders the document as compact JSON-subset text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    // ----- parsing ---------------------------------------------------------

    /// Parses a document previously produced by [`Value::render`].
    ///
    /// # Errors
    ///
    /// [`WireError::Syntax`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Value, WireError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(WireError::Syntax(p.pos, "trailing data".into()));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Maximum container nesting the parser accepts. Real plan documents
/// nest a handful of levels; the bound turns pathological or corrupted
/// input into a typed error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn enter(&mut self) -> Result<(), WireError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(WireError::Syntax(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        Ok(())
    }

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

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::Syntax(
                self.pos,
                format!("expected {:?}", b as char),
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, WireError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(WireError::Syntax(self.pos, format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(WireError::Syntax(self.pos, "unexpected character".into())),
            None => Err(WireError::Syntax(
                self.pos,
                "unexpected end of input".into(),
            )),
        }
    }

    fn number(&mut self) -> Result<Value, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // Reject the general-JSON forms this subset deliberately omits
        // (floats travel as bit patterns, negatives never occur).
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(WireError::Syntax(
                self.pos,
                "floating-point literals are not part of this subset".into(),
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| WireError::Syntax(start, "invalid utf-8 in number".into()))?;
        text.parse::<u64>()
            .map(Value::U64)
            .map_err(|_| WireError::Syntax(start, "integer out of u64 range".into()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(WireError::Syntax(self.pos, "unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    WireError::Syntax(start, "truncated \\u escape".into())
                                })?;
                            // `from_str_radix` accepts a leading '+';
                            // JSON does not.
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(WireError::Syntax(start, "invalid \\u escape".into()));
                            }
                            let code = u32::from_str_radix(hex, 16).map_err(|_| {
                                WireError::Syntax(start, "invalid \\u escape".into())
                            })?;
                            let ch = char::from_u32(code).ok_or_else(|| {
                                WireError::Syntax(start, "non-scalar \\u escape".into())
                            })?;
                            out.push(ch);
                            self.pos += 3; // the final byte advances below
                        }
                        _ => return Err(WireError::Syntax(start, "bad escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| WireError::Syntax(self.pos, "invalid utf-8".into()))?;
                    let ch = rest.chars().next().expect("non-empty by peek");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, WireError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(WireError::Syntax(self.pos, "expected ',' or ']'".into())),
            }
        }
    }

    fn object(&mut self) -> Result<Value, WireError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
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
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(WireError::Syntax(self.pos, "expected ',' or '}'".into())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        Value::parse(&v.render()).expect("rendered documents parse")
    }

    #[test]
    fn pathological_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(matches!(Value::parse(&deep), Err(WireError::Syntax(_, _))));
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(matches!(
            Value::parse(&deep_obj),
            Err(WireError::Syntax(_, _))
        ));
        // Realistic nesting stays well inside the bound.
        let mut v = Value::u64(1);
        for _ in 0..64 {
            v = Value::arr([v]);
        }
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::u64(0),
            Value::u64(u64::MAX),
            Value::str(""),
            Value::str("hello \"world\"\n\t\\"),
            Value::str("unicode: αβγ 🚀"),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn f64_bits_are_exact() {
        for f in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -123.456e-78,
            f64::INFINITY,
        ] {
            let v = Value::f64_bits(f);
            let back = roundtrip(&v).as_f64_bits().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} lost bits");
        }
        // NaN round-trips by bit pattern even though NaN != NaN.
        let v = Value::f64_bits(f64::NAN);
        assert_eq!(
            roundtrip(&v).as_f64_bits().unwrap().to_bits(),
            f64::NAN.to_bits()
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::obj([
            (
                "a",
                Value::arr([Value::u64(1), Value::Null, Value::str("x")]),
            ),
            ("b", Value::obj([("inner", Value::Bool(true))])),
            ("empty_arr", Value::arr([])),
            ("empty_obj", Value::obj::<String>([])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn schema_header_is_checked() {
        let doc = Value::obj([("schema", Value::str("x")), ("v", Value::u64(2))]);
        assert!(doc.expect_schema("x", 2).is_ok());
        assert!(matches!(
            doc.expect_schema("y", 2),
            Err(WireError::WrongSchema { .. })
        ));
        assert!(matches!(
            doc.expect_schema("x", 1),
            Err(WireError::UnsupportedVersion {
                supported: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn optional_keys_decode_as_none() {
        let doc = Value::obj([("k", Value::u64(1))]);
        assert_eq!(doc.get_opt("k").unwrap(), Some(&Value::u64(1)));
        assert_eq!(doc.get_opt("missing").unwrap(), None);
        assert!(matches!(
            Value::u64(1).get_opt("k"),
            Err(WireError::WrongType(_, "object"))
        ));
    }

    #[test]
    fn accessor_errors_are_typed() {
        let doc = Value::obj([("k", Value::u64(1))]);
        assert!(matches!(doc.get("missing"), Err(WireError::MissingKey(_))));
        assert!(matches!(
            doc.get("k").unwrap().as_str(),
            Err(WireError::WrongType(_, "string"))
        ));
        assert!(matches!(
            Value::u64(1).get("k"),
            Err(WireError::WrongType(_, "object"))
        ));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "1.5",
            "1e3",
            "-1",
            "18446744073709551616", // u64::MAX + 1
            "{\"a\" 1}",
            "[1 2]",
            "nulL",
            "true false",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parser_accepts_whitespace() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap(), &Value::Null);
    }

    #[test]
    fn unicode_escape_roundtrips() {
        let v = Value::parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "Aé");
        // Control characters render as \u escapes and parse back.
        let s = Value::str("\u{1}\u{1f}");
        assert_eq!(roundtrip(&s), s);
        // Only 4 hex digits are an escape; `+041` is not, even though
        // integer parsing would accept the sign.
        assert!(Value::parse("\"\\u+041\"").is_err());
        assert!(Value::parse("\"\\u00 1\"").is_err());
    }
}
