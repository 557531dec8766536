//! JSON ingestion for the server protocol: a minimal value type, a
//! recursive-descent parser, a serializer, and the fact ↔ JSON codec that
//! maps wire objects onto working-memory elements.
//!
//! The workspace has no serde; requests and responses are small and
//! machine-written, so a hand-rolled reader is the right size. It is the
//! workspace's one JSON parser: the tests read the Perfetto export with it
//! too.
//! Integers are kept exact (`i64`) rather than collapsed to `f64`,
//! because WME time tags and slot values round-trip through this codec.
//!
//! Codec conventions (documented in the README's server quickstart):
//!
//! - a fact is `{"class": "player", "slots": {"name": "Jack", "n": 3}}`;
//! - JSON strings become interned symbols, integers [`Value::Int`],
//!   non-integral numbers [`Value::Float`], `null` becomes [`Value::Nil`];
//! - rendering a WME adds its `"tag"` so clients can retract by tag.

use sorete_base::{Symbol, Value, Wme};
use std::fmt::Write as _;

/// A parsed JSON value. Integer-syntax numbers stay exact.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without `.`/`e` that fits an `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as `i64` (integral floats convert).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => Some(n),
            Json::Num(f) if f.fract() == 0.0 && f.abs() < 9e18 => Some(f as i64),
            _ => None,
        }
    }

    /// Number as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Num(f) => Some(f),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Boolean contents.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Serialize, compact (no added whitespace). Output re-parses to an
    /// equal value, so responses can be diffed byte-for-byte.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{}", n);
            }
            Json::Num(f) if f.is_finite() => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    // Keep the float-ness visible so it round-trips.
                    let _ = write!(out, "{:.1}", f);
                } else {
                    let _ = write!(out, "{}", f);
                }
            }
            // JSON has no NaN/Inf; degrade to null rather than emit
            // an unparseable document.
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append a JSON string literal (quoted, escaped) to `out`.
fn write_json_string(out: &mut String, s: &str) {
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

/// Parse a complete JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > 64 {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 scalar at a time.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {}", start))
    }
}

// ---------------------------------------------------------------------
// Fact ↔ JSON codec.

/// A decoded fact: class plus slots, ready for
/// `ProductionSystem::assert_wme`.
pub type JsonFact = (Symbol, Vec<(Symbol, Value)>);

/// Decode one slot value. Strings intern to symbols (`"nil"` and JSON
/// `null` both mean [`Value::Nil`]); integer syntax stays integral.
pub fn value_from_json(v: &Json) -> Result<Value, String> {
    match v {
        Json::Null => Ok(Value::Nil),
        Json::Str(s) if s == "nil" => Ok(Value::Nil),
        Json::Str(s) => Ok(Value::sym(s)),
        Json::Int(n) => Ok(Value::Int(*n)),
        Json::Num(f) => Ok(Value::Float(*f)),
        Json::Bool(b) => Ok(Value::sym(if *b { "true" } else { "false" })),
        other => Err(format!("bad slot value: {:?}", other)),
    }
}

/// Encode one slot value. The inverse of [`value_from_json`] up to the
/// symbol/string identification.
pub fn value_to_json(v: &Value) -> Json {
    match *v {
        Value::Nil => Json::Null,
        Value::Int(n) => Json::Int(n),
        Value::Float(f) => Json::Num(f),
        Value::Sym(s) => Json::Str(s.as_str().to_string()),
        Value::Tag(t) => Json::Int(t.raw() as i64),
    }
}

/// Decode `{"class": ..., "slots": {...}}` into a fact.
pub fn fact_from_json(v: &Json) -> Result<JsonFact, String> {
    let class = v
        .get("class")
        .and_then(Json::as_str)
        .ok_or("fact needs a string \"class\"")?;
    let mut slots = Vec::new();
    if let Some(obj) = v.get("slots") {
        let fields = obj.as_obj().ok_or("\"slots\" must be an object")?;
        for (attr, val) in fields {
            slots.push((Symbol::new(attr), value_from_json(val)?));
        }
    }
    Ok((Symbol::new(class), slots))
}

/// Encode a WME as a wire object, tag included so clients can retract it.
pub fn wme_to_json(w: &Wme) -> Json {
    let slots = w
        .slots()
        .iter()
        .map(|(a, v)| (a.as_str().to_string(), value_to_json(v)))
        .collect();
    Json::Obj(vec![
        ("tag".into(), Json::Int(w.tag.raw() as i64)),
        ("class".into(), Json::Str(w.class.as_str().to_string())),
        ("slots".into(), Json::Obj(slots)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(
            parse("[1, \"a\", {\"k\": null}]").unwrap(),
            Json::Arr(vec![
                Json::Int(1),
                Json::Str("a".into()),
                Json::Obj(vec![("k".into(), Json::Null)]),
            ])
        );
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn render_round_trips() {
        let cases = [
            "null",
            "true",
            "[1,2,3]",
            "{\"a\":-7,\"b\":[\"x\",2.5],\"c\":{\"d\":null}}",
            "\"quote \\\" slash \\\\ nl \\n\"",
        ];
        for src in cases {
            let v = parse(src).unwrap();
            let re = parse(&v.render()).unwrap();
            assert_eq!(v, re, "{}", src);
        }
        // Large integers survive exactly (f64 would round these).
        let v = parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(v.render(), "9007199254740993");
    }

    #[test]
    fn escape_decoding() {
        let v = parse("\"tab\\tquote\\\"u\\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("tab\tquote\"uA"));
    }

    #[test]
    fn fact_codec_round_trip() {
        let v = parse(
            "{\"class\":\"player\",\"slots\":{\"name\":\"Jack\",\"n\":3,\"r\":0.5,\"x\":null}}",
        )
        .unwrap();
        let (class, slots) = fact_from_json(&v).unwrap();
        assert_eq!(class.as_str(), "player");
        assert_eq!(slots[0], (Symbol::new("name"), Value::sym("Jack")));
        assert_eq!(slots[1], (Symbol::new("n"), Value::Int(3)));
        assert_eq!(slots[2], (Symbol::new("r"), Value::Float(0.5)));
        assert_eq!(slots[3], (Symbol::new("x"), Value::Nil));
        // "nil" spelled as a string also decodes to Nil (fact-file parity).
        let v = parse("{\"class\":\"a\",\"slots\":{\"s\":\"nil\"}}").unwrap();
        assert_eq!(fact_from_json(&v).unwrap().1[0].1, Value::Nil);
    }

    #[test]
    fn fact_decode_rejects_malformed() {
        assert!(fact_from_json(&parse("{\"slots\":{}}").unwrap()).is_err());
        assert!(fact_from_json(&parse("{\"class\":3}").unwrap()).is_err());
        assert!(fact_from_json(&parse("{\"class\":\"a\",\"slots\":[1]}").unwrap()).is_err());
        assert!(
            fact_from_json(&parse("{\"class\":\"a\",\"slots\":{\"k\":[1]}}").unwrap()).is_err()
        );
    }

    #[test]
    fn value_codec_inverse() {
        for v in [
            Value::Nil,
            Value::Int(-3),
            Value::Float(1.25),
            Value::sym("hello"),
        ] {
            let back = value_from_json(&value_to_json(&v)).unwrap();
            assert_eq!(v, back);
        }
    }
}
