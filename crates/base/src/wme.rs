//! Working-memory elements.
//!
//! A WME is "a tuple with a time tag" (paper §3): a class, a set of
//! attribute/value slots, and a [`TimeTag`] that uniquely identifies it and
//! records its recency. Time tags drive OPS5 conflict resolution and the
//! paper's `foreach <elem-var> descending` iteration order.

use crate::symbol::Symbol;
use crate::value::Value;
use std::fmt;

/// A WME identifier, unique and monotonically increasing within a working
/// memory. Higher = more recent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeTag(u64);

impl TimeTag {
    /// Build a tag from its raw counter value.
    #[inline]
    pub fn new(raw: u64) -> TimeTag {
        TimeTag(raw)
    }

    /// The raw counter value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for TimeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TimeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A working-memory element: `(class ^attr value ...)` plus a time tag.
///
/// Slots are stored sorted by attribute symbol id; classes have a handful of
/// attributes, so lookup is a short scan. Attributes not present read as
/// [`Value::Nil`], matching OPS5.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Wme {
    /// Unique identifier / recency stamp.
    pub tag: TimeTag,
    /// The WME class (OPS5 `literalize` name).
    pub class: Symbol,
    slots: Box<[(Symbol, Value)]>,
}

impl Wme {
    /// Build a WME. Slots may arrive in any order; duplicates keep the last
    /// value (as an OPS5 `make` with a repeated attribute would).
    pub fn new(tag: TimeTag, class: Symbol, mut slots: Vec<(Symbol, Value)>) -> Wme {
        slots.sort_by_key(|(a, _)| a.id());
        // Keep the *last* occurrence of each attribute, in place.
        let mut kept = 0usize;
        for i in 0..slots.len() {
            let slot = slots[i];
            if kept > 0 && slots[kept - 1].0 == slot.0 {
                slots[kept - 1].1 = slot.1;
            } else {
                slots[kept] = slot;
                kept += 1;
            }
        }
        slots.truncate(kept);
        // Nil slots are equivalent to absent slots; drop them so equality
        // and hashing treat `(c ^a nil)` and `(c)` identically.
        slots.retain(|(_, v)| !v.is_nil());
        // Box the caller's vector when it is exactly full; otherwise copy
        // into an exact allocation rather than shrinking in place, which
        // would leave a fragment behind every stored WME.
        let slots = if slots.len() == slots.capacity() {
            slots.into_boxed_slice()
        } else {
            Box::from(&slots[..])
        };
        Wme { tag, class, slots }
    }

    /// Read an attribute; absent attributes are `nil`.
    pub fn get(&self, attr: Symbol) -> Value {
        self.slots
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, v)| *v)
            .unwrap_or(Value::Nil)
    }

    /// All explicitly-present slots, sorted by attribute symbol id.
    pub fn slots(&self) -> &[(Symbol, Value)] {
        &self.slots
    }

    /// A copy of this WME with `updates` applied (the heart of `modify` /
    /// `set-modify`). The caller supplies the new time tag.
    pub fn modified(&self, new_tag: TimeTag, updates: &[(Symbol, Value)]) -> Wme {
        let mut slots: Vec<(Symbol, Value)> = self.slots.to_vec();
        for &(attr, val) in updates {
            match slots.iter_mut().find(|(a, _)| *a == attr) {
                Some((_, v)) => *v = val,
                None => slots.push((attr, val)),
            }
        }
        Wme::new(new_tag, self.class, slots)
    }

    /// The WME's text without its tag, `(class ^attr value …)`: the form
    /// trace events, crash bundles and `explain` print, where the tag
    /// rides in a field of its own.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = write_text(&mut s, self.class, &self.slots);
        s
    }
}

// ---------------------------------------------------------------------------
// The WME line: how checkpoints and the write-ahead log persist a WME.

impl Wme {
    /// Append the WME's line: its tag, its class, then each slot's
    /// attribute and value, all tab-separated [`Value`] wire tokens (the
    /// tag as a bare decimal). The one persisted form of a WME: a
    /// checkpoint's `WME` line and the WAL's assert op both carry it.
    pub fn push_line(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(out, "{}\t", self.tag.raw());
        Value::Sym(self.class).push_wire(out);
        push_slots(out, &self.slots);
    }

    /// Parse a line written by [`Wme::push_line`] from its tab-split
    /// tokens.
    pub fn parse_line<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<Wme, String> {
        let tag = parse_tag(parts.next())?;
        let class = parts.next().ok_or("WME line missing class")?;
        Ok(Wme::new(tag, sym_of(class)?, parse_slots(parts)?))
    }
}

/// Append `\tattr\tvalue` per slot, as wire tokens (the tail of a WME
/// line, and the body of the WAL's update op).
pub fn push_slots(out: &mut String, slots: &[(Symbol, Value)]) {
    for (a, v) in slots {
        out.push('\t');
        Value::Sym(*a).push_wire(out);
        out.push('\t');
        v.push_wire(out);
    }
}

/// Parse the slots [`push_slots`] wrote, to the end of `parts`.
pub fn parse_slots<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
) -> Result<Vec<(Symbol, Value)>, String> {
    let mut out = Vec::new();
    while let Some(attr) = parts.next() {
        let val = parts
            .next()
            .ok_or_else(|| format!("dangling attribute `{}`", attr))?;
        out.push((sym_of(attr)?, Value::from_wire(val)?));
    }
    Ok(out)
}

/// Parse a bare decimal time tag (`None`: the token is missing).
pub fn parse_tag(tok: Option<&str>) -> Result<TimeTag, String> {
    let tok = tok.ok_or("missing time tag")?;
    tok.parse()
        .map(TimeTag::new)
        .map_err(|_| format!("bad time tag `{}`", tok))
}

fn sym_of(tok: &str) -> Result<Symbol, String> {
    match Value::from_wire(tok)? {
        Value::Sym(s) => Ok(s),
        other => Err(format!("expected a symbol, got `{}`", other)),
    }
}

/// The one WME text renderer, `(class ^attr value …)`: behind
/// [`Wme::render`] and `Debug`, and behind the flight ring's drain, which
/// keeps a WME as its class and slots.
pub(crate) fn write_text(
    out: &mut impl fmt::Write,
    class: Symbol,
    slots: &[(Symbol, Value)],
) -> fmt::Result {
    write!(out, "({}", class)?;
    for (a, v) in slots {
        write!(out, " ^{} {}", a, v)?;
    }
    out.write_str(")")
}

impl fmt::Debug for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.tag)?;
        write_text(f, self.class, &self.slots)
    }
}

impl fmt::Display for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wme(tag: u64, class: &str, slots: &[(&str, Value)]) -> Wme {
        Wme::new(
            TimeTag::new(tag),
            Symbol::new(class),
            slots.iter().map(|(a, v)| (Symbol::new(a), *v)).collect(),
        )
    }

    #[test]
    fn get_and_nil_default() {
        let w = wme(
            1,
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        );
        assert_eq!(w.get(Symbol::new("name")), Value::sym("Jack"));
        assert_eq!(w.get(Symbol::new("rating")), Value::Nil);
    }

    #[test]
    fn duplicate_attr_keeps_last() {
        let w = wme(1, "c", &[("a", Value::Int(1)), ("a", Value::Int(2))]);
        assert_eq!(w.get(Symbol::new("a")), Value::Int(2));
        assert_eq!(w.slots().len(), 1);
    }

    #[test]
    fn explicit_nil_equals_absent() {
        let a = wme(1, "c", &[("a", Value::Nil)]);
        let b = wme(1, "c", &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn modified_updates_and_extends() {
        let w = wme(1, "player", &[("team", Value::sym("A"))]);
        let m = w.modified(
            TimeTag::new(9),
            &[
                (Symbol::new("team"), Value::sym("B")),
                (Symbol::new("rating"), Value::Int(5)),
            ],
        );
        assert_eq!(m.tag, TimeTag::new(9));
        assert_eq!(m.get(Symbol::new("team")), Value::sym("B"));
        assert_eq!(m.get(Symbol::new("rating")), Value::Int(5));
        // Original untouched.
        assert_eq!(w.get(Symbol::new("team")), Value::sym("A"));
    }

    #[test]
    fn debug_format_matches_paper_style() {
        let w = wme(
            3,
            "player",
            &[("team", Value::sym("B")), ("name", Value::sym("Sue"))],
        );
        let s = format!("{:?}", w);
        assert!(s.starts_with("3: (player"), "{}", s);
        assert!(s.contains("^name Sue"), "{}", s);
        assert!(s.contains("^team B"), "{}", s);
        assert_eq!(w.render(), s.trim_start_matches("3: "));
    }

    #[test]
    fn line_round_trips_and_rejects_damage() {
        let w = wme(
            7,
            "player",
            &[
                ("name", Value::sym("Sue\twith\ttabs")),
                ("rating", Value::Float(0.5)),
            ],
        );
        let mut s = String::new();
        w.push_line(&mut s);
        assert_eq!(Wme::parse_line(&mut s.split('\t')), Ok(w));
        for bad in ["", "x\tS:c", "1", "1\tI:2", "1\tS:c\tS:a", "1\tS:c\tI:1\tN"] {
            assert!(Wme::parse_line(&mut bad.split('\t')).is_err(), "{:?}", bad);
        }
    }

    #[test]
    fn tags_order_by_recency() {
        assert!(TimeTag::new(2) > TimeTag::new(1));
    }
}
