//! The workspace's one JSON writer and parser.
//!
//! The workspace builds offline with zero external dependencies, so
//! there is no serde. Every artifact, report and description is built
//! as a [`Value`] tree and serialized by [`to_string`], which owns the
//! whole output format: the layout rule, the number format and string
//! escaping. [`parse`] reads any document back into the same tree, so
//! `parse(&to_string(&v)) == v` for every tree without non-finite
//! numbers.
//!
//! Layout: the root object, and any container that holds a container,
//! spans lines with a 2-space indent; every other container prints on
//! one line as `{ "k": v, … }` / `[ a, b ]`. Numbers print in `f64`'s
//! shortest round-trip form (integers exact up to 2^53); NaN and
//! infinities print as `null`.

use std::fmt::{self, Write as _};

/// Nesting depth past which [`parse`] gives up. Far above any document
/// the workspace emits, far below what would overflow a thread's stack.
const MAX_DEPTH: usize = 128;

/// A JSON document tree: what producers build for [`to_string`] and
/// what [`parse`] returns.
///
/// Objects keep insertion order (a `Vec` of pairs, not a map), so a
/// producer's key order is the output's key order and round-trip
/// comparisons are meaningful.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

/// Builds a [`Value::Obj`] from `key => value` pairs, in the order
/// written; each value converts with `Value::from`.
///
/// ```
/// use pels_obs::{json, json_object};
/// let v = json_object! { "count" => 3u64, "name" => "spi", "p99" => None::<f64> };
/// let doc = "{\n  \"count\": 3,\n  \"name\": \"spi\",\n  \"p99\": null\n}\n";
/// assert_eq!(json::to_string(&v), doc);
/// ```
#[macro_export]
macro_rules! json_object {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $((::std::string::String::from($key), $crate::json::Value::from($value))),*
        ])
    };
}

impl Value {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member of an object by key, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Conversions producers build trees with. Integers convert through
/// `f64`: exact up to 2^53, which covers every counter, cycle count and
/// picosecond time the workspace serializes.
macro_rules! from {
    ($($t:ty => |$x:ident| $value:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $value
            }
        }
    )*};
}

from! {
    f64 => |n| Value::Num(n);
    u32 => |n| Value::Num(n.into());
    u64 => |n| Value::Num(n as f64);
    usize => |n| Value::Num(n as f64);
    bool => |b| Value::Bool(b);
    &str => |s| Value::Str(s.to_owned());
    String => |s| Value::Str(s);
    Vec<Value> => |items| Value::Arr(items);
}

/// `None` serializes as `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage or
/// nesting deeper than the parser's fixed bound (never a stack
/// overflow).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output (we only \u-escape control chars).
                            s.push(char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one code point. The cursor only ever
                    // advances by whole characters inside a string, so
                    // it sits on a character boundary here.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8 in string"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number slice");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}


/// Serializes `v` as a newline-terminated document under the module's
/// layout rule.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Value, depth: usize) {
    let (open, close, entries): (_, _, Vec<(Option<&String>, &Value)>) = match v {
        Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Obj(pairs) => ('{', '}', pairs.iter().map(|(k, v)| (Some(k), v)).collect()),
        Value::Str(s) => return write_str(out, s),
        Value::Num(n) if n.is_finite() => return out.push_str(&n.to_string()),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Null | Value::Num(_) => return out.push_str("null"),
    };
    let multiline = (depth == 0 && open == '{')
        || entries.iter().any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)));
    let pad = |depth| if multiline { format!("\n{}", "  ".repeat(depth)) } else { " ".into() };
    out.push(open);
    for (i, (key, item)) in entries.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        out.push_str(&pad(depth + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, item, depth + 1);
    }
    if !entries.is_empty() {
        out.push_str(&pad(depth));
    }
    out.push(close);
}

/// Writes `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_specials() {
        let doc = to_string(&Value::from("a\"b\\c\nd\u{1}\u{7f}é"));
        assert_eq!(doc, "\"a\\\"b\\\\c\\nd\\u0001\u{7f}é\"\n");
    }

    #[test]
    fn layout_inlines_leaf_containers_and_breaks_the_rest() {
        let v = crate::json_object! {
            "n" => 2.5,
            "flat" => crate::json_object! { "a" => 1u64, "b" => Value::Null },
            "rows" => vec![Value::Arr(vec![1u64.into(), true.into()]), Value::Arr(vec![])],
            "empty" => crate::json_object! {},
        };
        assert_eq!(
            to_string(&v),
            "{\n  \"n\": 2.5,\n  \"flat\": { \"a\": 1, \"b\": null },\n  \"rows\": [\n    \
             [ 1, true ],\n    []\n  ],\n  \"empty\": {}\n}\n"
        );
        // Only a root *object* always spans lines.
        assert_eq!(to_string(&Value::Arr(vec![1u64.into()])), "[ 1 ]\n");
    }

    #[test]
    fn numbers_print_shortest_round_trip_and_non_finite_as_null() {
        let num = |n: f64| to_string(&Value::from(n));
        assert_eq!(num(7.0), "7\n");
        assert_eq!(num(0.1), "0.1\n");
        assert_eq!(num(-1.5e-7), "-0.00000015\n");
        assert_eq!(num((1u64 << 53) as f64), "9007199254740992\n");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(bad), "null\n");
        }
    }

    /// A random tree of depth at most `depth` over the awkward corners:
    /// quotes, backslashes, control characters, U+007F and non-ASCII
    /// text; NaN, ±inf, integers up to 2^53 and small fractions.
    fn random_value(rng: &mut pels_sim::Rng, depth: usize) -> Value {
        const ATOMS: [&str; 8] = ["\"", "\\", "\n", "\u{1}", "\u{1f}", "\u{7f}", "é", "a b"];
        let text = |rng: &mut pels_sim::Rng| -> String {
            (0..rng.index(4)).map(|_| ATOMS[rng.index(ATOMS.len())]).collect()
        };
        let pick = if depth == 0 { rng.index(4) } else { rng.index(6) };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(rng.bool()),
            2 => Value::Num(match rng.index(5) {
                0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.index(3)],
                1 => rng.next_below((1 << 53) + 1) as f64,
                2 => -(rng.next_below(1 << 20) as f64),
                3 => rng.f64() * 1e-6,
                _ => rng.gaussian(),
            }),
            3 => Value::Str(text(rng)),
            4 => Value::Arr((0..rng.index(4)).map(|_| random_value(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..rng.index(4))
                    .map(|_| (text(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// What a tree reads back as: non-finite numbers become `null`.
    fn finite(v: &Value) -> Value {
        match v {
            Value::Num(n) if !n.is_finite() => Value::Null,
            Value::Arr(items) => Value::Arr(items.iter().map(finite).collect()),
            Value::Obj(pairs) => {
                Value::Obj(pairs.iter().map(|(k, v)| (k.clone(), finite(v))).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn writer_round_trips_random_trees() {
        let mut rng = pels_sim::Rng::seed_from_u64(0x1507);
        for _ in 0..2_000 {
            let v = random_value(&mut rng, 6);
            let doc = to_string(&v);
            assert_eq!(parse(&doc).as_ref(), Ok(&finite(&v)), "document:\n{doc}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&deep).map(drop))
            .unwrap()
            .join()
            .expect("parser must not overflow the stack");
        assert!(result.is_err());
        // Nesting at the bound still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Decoding each character must not re-validate the rest of the
        // input: 256 Ki two-byte characters took over a minute when it did.
        let long = "é".repeat(1 << 18);
        assert_eq!(parse(&format!("\"{long}\"")).unwrap().as_str(), Some(long.as_str()));
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x\n"}], "c": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Null));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x\n"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escape_round_trip() {
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn object_preserves_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }
}
