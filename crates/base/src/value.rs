//! The dynamic value type of the rule language and the relational substrate.
//!
//! OPS5 working memory holds symbols and numbers; unassigned attributes are
//! `nil`. We add `Tag` so that WME identifiers (time tags) can flow through
//! the relational substrate — the paper's Figure 6 stores WME tags in COND
//! table columns and groups by them.

use crate::symbol::Symbol;
use crate::wme::TimeTag;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamic value: `nil`, integer, float, symbol, or WME time tag.
///
/// Equality is *numeric* across `Int`/`Float` (`Value::Int(1) ==
/// Value::Float(1.0)`), matching OPS5's behaviour, and hashing is consistent
/// with that equality (integral floats hash as their integer value).
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// The absent/unspecified value (OPS5's `nil`).
    Nil,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned symbol.
    Sym(Symbol),
    /// A WME identifier (used by the relational/DIPS substrate).
    Tag(TimeTag),
}

impl Value {
    /// Intern `s` and wrap it.
    pub fn sym(s: &str) -> Value {
        Value::Sym(Symbol::new(s))
    }

    /// True if this is `Nil`.
    #[inline]
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }

    /// Numeric view, if this is a number.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The symbol, if this is one.
    #[inline]
    pub fn as_sym(&self) -> Option<Symbol> {
        match *self {
            Value::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// The time tag, if this is one.
    #[inline]
    pub fn as_tag(&self) -> Option<TimeTag> {
        match *self {
            Value::Tag(t) => Some(t),
            _ => None,
        }
    }

    /// Numeric addition with int/float promotion. `None` for non-numbers.
    pub fn add(&self, other: &Value) -> Option<Value> {
        self.arith(other, |a, b| a.wrapping_add(b), |a, b| a + b)
    }

    /// Numeric subtraction with int/float promotion.
    pub fn sub(&self, other: &Value) -> Option<Value> {
        self.arith(other, |a, b| a.wrapping_sub(b), |a, b| a - b)
    }

    /// Numeric multiplication with int/float promotion.
    pub fn mul(&self, other: &Value) -> Option<Value> {
        self.arith(other, |a, b| a.wrapping_mul(b), |a, b| a * b)
    }

    /// Numeric division. Integer division of two `Int`s; `None` on divide by
    /// zero or non-numbers.
    pub fn div(&self, other: &Value) -> Option<Value> {
        match (*self, *other) {
            (Value::Int(_), Value::Int(0)) => None,
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_div(b))),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                if b == 0.0 {
                    None
                } else {
                    Some(Value::Float(a / b))
                }
            }
        }
    }

    /// Numeric modulus (`Int` only).
    pub fn modulo(&self, other: &Value) -> Option<Value> {
        match (*self, *other) {
            (Value::Int(_), Value::Int(0)) => None,
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_rem(b))),
            _ => None,
        }
    }

    fn arith(
        &self,
        other: &Value,
        fi: impl Fn(i64, i64) -> i64,
        ff: impl Fn(f64, f64) -> f64,
    ) -> Option<Value> {
        match (*self, *other) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(fi(a, b))),
            _ => Some(Value::Float(ff(self.as_f64()?, other.as_f64()?))),
        }
    }

    /// Append this value's *wire token* to `out`, allocating nothing
    /// beyond `out`'s own growth.
    ///
    /// The wire form is the typed-token text format shared by the
    /// write-ahead log and the engine checkpoint: `N` (nil),
    /// `I:<decimal>` (int), `F:<hex bits>` (float — bit-exact round
    /// trip), `S:<escaped>` (symbol, escaping tab/newline/backslash),
    /// `T:<decimal>` (WME time tag). Tokens never contain tabs or
    /// newlines, so tab- or line-delimited framings can embed them
    /// without further quoting.
    pub fn push_wire(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Value::Nil => out.push('N'),
            Value::Int(i) => {
                let _ = write!(out, "I:{}", i);
            }
            Value::Float(f) => {
                let _ = write!(out, "F:{:016x}", f.to_bits());
            }
            Value::Sym(s) => {
                out.push_str("S:");
                for c in s.as_str().chars() {
                    match c {
                        '\t' => out.push_str("\\t"),
                        '\n' => out.push_str("\\n"),
                        '\\' => out.push_str("\\\\"),
                        other => out.push(other),
                    }
                }
            }
            Value::Tag(t) => {
                let _ = write!(out, "T:{}", t.raw());
            }
        }
    }

    /// The wire token as an owned string (see [`Value::push_wire`]).
    pub fn to_wire(&self) -> String {
        let mut s = String::new();
        self.push_wire(&mut s);
        s
    }

    /// Parse a wire token produced by [`Value::push_wire`].
    pub fn from_wire(tok: &str) -> Result<Value, String> {
        if tok == "N" {
            return Ok(Value::Nil);
        }
        let (kind, body) = tok
            .split_once(':')
            .ok_or_else(|| format!("bad value token `{}`", tok))?;
        match kind {
            "I" => body
                .parse()
                .map(Value::Int)
                .map_err(|_| format!("bad int `{}`", body)),
            "F" => u64::from_str_radix(body, 16)
                .map(|bits| Value::Float(f64::from_bits(bits)))
                .map_err(|_| format!("bad float bits `{}`", body)),
            "T" => body
                .parse()
                .map(|raw| Value::Tag(TimeTag::new(raw)))
                .map_err(|_| format!("bad tag `{}`", body)),
            // Most symbols carry no escape: intern the body as it stands.
            "S" if !body.contains('\\') => Ok(Value::sym(body)),
            "S" => {
                let mut s = String::new();
                let mut chars = body.chars();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        match chars.next() {
                            Some('t') => s.push('\t'),
                            Some('n') => s.push('\n'),
                            Some('\\') => s.push('\\'),
                            other => return Err(format!("bad escape `\\{:?}`", other)),
                        }
                    } else {
                        s.push(c);
                    }
                }
                Ok(Value::sym(&s))
            }
            other => Err(format!("unknown value kind `{}`", other)),
        }
    }

    /// Rank for cross-kind ordering: Nil < numbers < symbols < tags.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Nil => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Sym(_) => 2,
            Value::Tag(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Tag(a), Value::Tag(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(&b) == Ordering::Equal,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                b.fract() == 0.0 && b >= i64::MIN as f64 && b <= i64::MAX as f64 && b as i64 == a
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Value::Nil => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(i);
            }
            Value::Float(f) => {
                // Keep hash consistent with Int/Float numeric equality.
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    state.write_u8(1);
                    state.write_i64(f as i64);
                } else {
                    state.write_u8(2);
                    state.write_u64(f.to_bits());
                }
            }
            Value::Sym(s) => {
                state.write_u8(3);
                state.write_u32(s.id());
            }
            Value::Tag(t) => {
                state.write_u8(4);
                state.write_u64(t.raw());
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order: numbers compare numerically (NaN via `total_cmp`), symbols
/// lexically, tags by tag value; across kinds, `Nil < numbers < symbols <
/// tags`. Used for `foreach ascending/descending`, `min`/`max` aggregates,
/// and `ORDER BY` in the relational substrate.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (*self, *other) {
            (Value::Nil, Value::Nil) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(&b),
            (Value::Sym(a), Value::Sym(b)) => a.cmp(&b),
            (Value::Tag(a), Value::Tag(b)) => a.cmp(&b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(&b),
            (Value::Int(a), Value::Float(b)) => (a as f64).total_cmp(&b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(b as f64)),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Nil => f.write_str("nil"),
            Value::Int(i) => write!(f, "{}", i),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{}", x)
                }
            }
            Value::Sym(s) => write!(f, "{}", s),
            Value::Tag(t) => write!(f, "@{}", t.raw()),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<Symbol> for Value {
    fn from(s: Symbol) -> Self {
        Value::Sym(s)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}
impl From<TimeTag> for Value {
    fn from(t: TimeTag) -> Self {
        Value::Tag(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashSet;

    #[test]
    fn numeric_cross_equality() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Int(1), Value::Float(1.5));
        assert_ne!(Value::Int(1), Value::sym("1"));
    }

    #[test]
    fn hash_consistent_with_eq() {
        let mut set = FxHashSet::default();
        set.insert(Value::Int(3));
        assert!(set.contains(&Value::Float(3.0)));
        assert!(!set.contains(&Value::Float(3.5)));
    }

    #[test]
    fn ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Int(2) < Value::sym("a"));
        assert!(Value::sym("a") < Value::sym("b"));
        assert!(Value::Nil < Value::Int(i64::MIN));
        assert!(Value::sym("z") < Value::Tag(TimeTag::new(0)));
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)),
            Some(Value::Float(2.5))
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Some(Value::Int(3)));
        assert_eq!(Value::Int(7).div(&Value::Int(0)), None);
        assert_eq!(Value::sym("x").add(&Value::Int(1)), None);
        assert_eq!(Value::Int(7).modulo(&Value::Int(4)), Some(Value::Int(3)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Nil.to_string(), "nil");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::sym("clerk").to_string(), "clerk");
        assert_eq!(Value::Tag(TimeTag::new(7)).to_string(), "@7");
    }

    #[test]
    fn wire_roundtrip() {
        for v in [
            Value::Nil,
            Value::Int(-42),
            Value::Float(0.1),
            Value::Float(-0.0),
            Value::sym("plain"),
            Value::sym("tab\there\nand\\slash"),
            Value::Tag(TimeTag::new(9)),
        ] {
            let tok = v.to_wire();
            assert!(!tok.contains('\t') && !tok.contains('\n'), "{:?}", tok);
            let back = Value::from_wire(&tok).unwrap();
            // Bit-exact for floats, plain equality otherwise.
            if let (Value::Float(a), Value::Float(b)) = (v, back) {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert_eq!(v, back);
            }
        }
        assert!(Value::from_wire("Q:1").is_err());
        assert!(Value::from_wire("I:xyz").is_err());
        assert!(Value::from_wire("S:bad\\q").is_err());
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan);
    }
}
