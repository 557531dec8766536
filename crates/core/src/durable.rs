//! Durability codecs for the engine: the checkpoint text format and the
//! WAL cycle-marker payload.
//!
//! A crash-recoverable run combines the two (see `engine`): a checkpoint
//! captures working memory, the refraction memory, the tag allocator, the
//! cycle counter, and the run statistics at a cycle boundary; the
//! write-ahead log ([`sorete_reldb::Wal`]) then records every committed
//! transaction after it as one record, a successful firing's carrying its
//! cycle marker. Recovery loads the checkpoint (rebuilding any
//! matcher from the surviving WMEs) and replays the log's committed
//! prefix.
//!
//! Both formats are line/tab-oriented text over the [`Value`] wire tokens
//! (`sorete_base::Value::to_wire`), which escape tabs and newlines; a
//! checkpoint's WMEs are [`Wme::push_line`] lines, the form the WAL's
//! assert ops carry too.

use crate::error::CoreError;
use crate::stats::{RuleStats, RunStats};
use sorete_base::{InstKey, KeyPart, RuleId, Symbol, TimeTag, Value, Wme};

/// First line of a checkpoint file.
pub const CKPT_MAGIC: &str = "sorete-ckpt 1";

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Durability(msg.into())
}

fn num(tok: &str, what: &str) -> Result<u64, CoreError> {
    tok.parse::<u64>()
        .map_err(|_| corrupt(format!("bad {}: `{}`", what, tok)))
}

fn sym_of(tok: &str, what: &str) -> Result<Symbol, CoreError> {
    match Value::from_wire(tok).map_err(corrupt)? {
        Value::Sym(s) => Ok(s),
        other => Err(corrupt(format!("{} is not a symbol: `{}`", what, other))),
    }
}

// ---------------------------------------------------------------------------
// Instantiation keys, without their matcher-local rule ids.

/// The matcher-independent part of an [`InstKey`]: the matched tags (tuple
/// instantiations) or the γ-memory key parts (SOIs). The rule itself is
/// carried separately by *name*, because [`RuleId`]s are positional and
/// only meaningful inside one matcher instance.
#[derive(Clone, Debug, PartialEq)]
pub enum KeySpec {
    /// A tuple-oriented instantiation's matched tags, in CE order.
    Tuple(Vec<TimeTag>),
    /// A set-oriented instantiation's key parts, in static-data order.
    Soi(Vec<KeyPart>),
}

impl KeySpec {
    /// Strip the rule id off an [`InstKey`].
    pub fn of(key: &InstKey) -> KeySpec {
        match key {
            InstKey::Tuple { tags, .. } => KeySpec::Tuple(tags.to_vec()),
            InstKey::Soi { parts, .. } => KeySpec::Soi(parts.to_vec()),
        }
    }

    /// Rebuild the [`InstKey`] against a (possibly different) matcher's
    /// id for the same rule.
    pub fn into_key(&self, rule: RuleId) -> InstKey {
        match self {
            KeySpec::Tuple(tags) => InstKey::Tuple {
                rule,
                tags: tags.clone().into(),
            },
            KeySpec::Soi(parts) => InstKey::Soi {
                rule,
                parts: parts.clone().into(),
            },
        }
    }

    /// Append the `T|S [part…]` serialization (tab-separated, no leading
    /// tab).
    fn push(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            KeySpec::Tuple(tags) => {
                out.push('T');
                for t in tags {
                    let _ = write!(out, "\t{}", t.raw());
                }
            }
            KeySpec::Soi(parts) => {
                out.push('S');
                for p in parts {
                    out.push('\t');
                    match p {
                        KeyPart::Tag(t) => {
                            let _ = write!(out, "t:{}", t.raw());
                        }
                        KeyPart::Val(v) => {
                            out.push_str("v:");
                            v.push_wire(out);
                        }
                    }
                }
            }
        }
    }

    /// Parse from an iterator positioned at the `T|S` token.
    fn parse<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<KeySpec, CoreError> {
        match parts.next() {
            Some("T") => {
                let mut tags = Vec::new();
                for tok in parts {
                    tags.push(TimeTag::new(num(tok, "key tag")?));
                }
                Ok(KeySpec::Tuple(tags))
            }
            Some("S") => {
                let mut out = Vec::new();
                for tok in parts {
                    if let Some(raw) = tok.strip_prefix("t:") {
                        out.push(KeyPart::Tag(TimeTag::new(num(raw, "key tag")?)));
                    } else if let Some(wire) = tok.strip_prefix("v:") {
                        out.push(KeyPart::Val(Value::from_wire(wire).map_err(corrupt)?));
                    } else {
                        return Err(corrupt(format!("bad SOI key part `{}`", tok)));
                    }
                }
                Ok(KeySpec::Soi(out))
            }
            other => Err(corrupt(format!("bad key kind `{}`", other.unwrap_or("")))),
        }
    }
}

// ---------------------------------------------------------------------------
// Run-stat totals (the eight scalar RunStats counters).

fn push_totals(rs: &RunStats, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        rs.firings,
        rs.makes,
        rs.removes,
        rs.modifies,
        rs.writes,
        rs.actions,
        rs.skipped_actions,
        rs.rolled_back
    );
}

fn parse_totals<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<RunStats, CoreError> {
    let mut take = |what| -> Result<u64, CoreError> {
        num(
            parts
                .next()
                .ok_or_else(|| corrupt(format!("missing {}", what)))?,
            what,
        )
    };
    Ok(RunStats {
        firings: take("firings")?,
        makes: take("makes")?,
        removes: take("removes")?,
        modifies: take("modifies")?,
        writes: take("writes")?,
        actions: take("actions")?,
        skipped_actions: take("skipped_actions")?,
        rolled_back: take("rolled_back")?,
        per_rule: Default::default(),
    })
}

// ---------------------------------------------------------------------------
// The WAL cycle marker.

/// Payload of a WAL cycle-boundary record: everything recovery needs to
/// reproduce the firing's bookkeeping — the cycle counter, the halt flag,
/// the cumulative [`RunStats`] totals, the fired rule's cumulative
/// per-rule counters, and the fired instantiation's key (so recovery can
/// re-arm refraction where `mark_fired` did).
#[derive(Clone, Debug, PartialEq)]
pub struct CycleMarker {
    /// 1-based cycle number of the firing this marker commits.
    pub cycle: u64,
    /// Halt flag after the firing.
    pub halted: bool,
    /// Cumulative scalar totals after the firing (`per_rule` empty).
    pub totals: RunStats,
    /// The fired rule, by name.
    pub rule: Symbol,
    /// The rule's cumulative firings after this one.
    pub rule_firings: u64,
    /// The rule's cumulative RHS actions after this one.
    pub rule_actions: u64,
    /// The fired instantiation's key.
    pub key: KeySpec,
}

impl CycleMarker {
    /// Serialize to a WAL cycle payload.
    pub fn encode(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "{}\t{}\t", self.cycle, u8::from(self.halted));
        push_totals(&self.totals, &mut s);
        s.push('\t');
        Value::Sym(self.rule).push_wire(&mut s);
        let _ = write!(s, "\t{}\t{}\t", self.rule_firings, self.rule_actions);
        self.key.push(&mut s);
        s.into_bytes()
    }

    /// Parse a WAL cycle payload.
    pub fn decode(bytes: &[u8]) -> Result<CycleMarker, CoreError> {
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("cycle marker is not utf-8"))?;
        let mut parts = text.split('\t');
        let cycle = num(
            parts
                .next()
                .ok_or_else(|| corrupt("cycle marker missing cycle"))?,
            "cycle",
        )?;
        let halted = match parts.next() {
            Some("0") => false,
            Some("1") => true,
            other => {
                return Err(corrupt(format!(
                    "bad halted flag `{}`",
                    other.unwrap_or("")
                )))
            }
        };
        let totals = parse_totals(&mut parts)?;
        let rule = sym_of(
            parts
                .next()
                .ok_or_else(|| corrupt("cycle marker missing rule"))?,
            "rule",
        )?;
        let rule_firings = num(
            parts
                .next()
                .ok_or_else(|| corrupt("missing rule firings"))?,
            "rule firings",
        )?;
        let rule_actions = num(
            parts
                .next()
                .ok_or_else(|| corrupt("missing rule actions"))?,
            "rule actions",
        )?;
        let key = KeySpec::parse(&mut parts)?;
        Ok(CycleMarker {
            cycle,
            halted,
            totals,
            rule,
            rule_firings,
            rule_actions,
            key,
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoints.

/// A parsed (or to-be-rendered) engine checkpoint: the full recoverable
/// state of a [`crate::ProductionSystem`] at a cycle boundary. The match
/// network is deliberately *not* serialized — any matcher rebuilds its
/// memories (γ-memories included) from the WMEs, which is what makes a
/// checkpoint portable across Rete, TREAT, and the naive oracle.
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    /// Algorithm name of the engine that wrote the checkpoint
    /// (informational; resume into any matcher is supported).
    pub matcher: String,
    /// WAL-pairing generation: the log that *continues* this checkpoint
    /// carries the same stamp; a log one generation behind predates the
    /// checkpoint (crash between checkpoint rename and log rotation) and
    /// is stale. 0 for checkpoints with no logged lineage.
    pub generation: u64,
    /// Cycle counter at the boundary.
    pub cycle: u64,
    /// Tag-allocator high-water mark (≥ the highest surviving WME tag:
    /// dead tags must not be reused after resume).
    pub tag_mark: u64,
    /// Halt flag.
    pub halted: bool,
    /// Scalar [`RunStats`] totals (`per_rule` empty; see [`Self::rules`]).
    pub totals: RunStats,
    /// Per-rule counters, sorted by rule name.
    pub rules: Vec<(Symbol, RuleStats)>,
    /// Surviving WMEs in tag order.
    pub wmes: Vec<Wme>,
    /// Refracted instantiations: rule name + matcher-independent key.
    pub fired: Vec<(Symbol, KeySpec)>,
}

impl Checkpoint {
    /// Render to the checkpoint text format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{}", CKPT_MAGIC);
        let _ = writeln!(s, "MATCHER\t{}", self.matcher);
        let _ = writeln!(s, "GEN\t{}", self.generation);
        let _ = writeln!(s, "CYCLE\t{}", self.cycle);
        let _ = writeln!(s, "TAG\t{}", self.tag_mark);
        let _ = writeln!(s, "HALTED\t{}", u8::from(self.halted));
        s.push_str("STATS\t");
        push_totals(&self.totals, &mut s);
        s.push('\n');
        for (name, rs) in &self.rules {
            s.push_str("RULE\t");
            Value::Sym(*name).push_wire(&mut s);
            let _ = writeln!(s, "\t{}\t{}", rs.firings, rs.actions);
        }
        for w in &self.wmes {
            s.push_str("WME\t");
            w.push_line(&mut s);
            s.push('\n');
        }
        for (rule, key) in &self.fired {
            s.push_str("FIRED\t");
            Value::Sym(*rule).push_wire(&mut s);
            s.push('\t');
            key.push(&mut s);
            s.push('\n');
        }
        s
    }

    /// Parse the checkpoint text format.
    pub fn parse(text: &str) -> Result<Checkpoint, CoreError> {
        let mut lines = text.lines();
        if lines.next() != Some(CKPT_MAGIC) {
            return Err(corrupt(format!(
                "not a checkpoint (missing `{}` header)",
                CKPT_MAGIC
            )));
        }
        let mut ck = Checkpoint::default();
        let mut seen_stats = false;
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            let tag = parts.next().unwrap_or("");
            let fail = |msg: String| corrupt(format!("checkpoint line {}: {}", i + 2, msg));
            match tag {
                "MATCHER" => {
                    ck.matcher = parts.next().unwrap_or("").to_string();
                }
                "GEN" => {
                    ck.generation = num(parts.next().unwrap_or(""), "generation")?;
                }
                "CYCLE" => {
                    ck.cycle = num(parts.next().unwrap_or(""), "cycle")?;
                }
                "TAG" => {
                    ck.tag_mark = num(parts.next().unwrap_or(""), "tag mark")?;
                }
                "HALTED" => {
                    ck.halted = match parts.next() {
                        Some("0") => false,
                        Some("1") => true,
                        other => {
                            return Err(fail(format!("bad halted flag `{}`", other.unwrap_or(""))))
                        }
                    };
                }
                "STATS" => {
                    ck.totals = parse_totals(&mut parts)?;
                    seen_stats = true;
                }
                "RULE" => {
                    let name = sym_of(
                        parts.next().ok_or_else(|| fail("missing rule".into()))?,
                        "rule",
                    )?;
                    let firings = num(parts.next().unwrap_or(""), "rule firings")?;
                    let actions = num(parts.next().unwrap_or(""), "rule actions")?;
                    ck.rules.push((name, RuleStats { firings, actions }));
                }
                "WME" => {
                    ck.wmes.push(Wme::parse_line(&mut parts).map_err(fail)?);
                }
                "FIRED" => {
                    let rule = sym_of(
                        parts.next().ok_or_else(|| fail("missing rule".into()))?,
                        "rule",
                    )?;
                    ck.fired.push((rule, KeySpec::parse(&mut parts)?));
                }
                other => return Err(fail(format!("unknown record `{}`", other))),
            }
        }
        if !seen_stats {
            return Err(corrupt("checkpoint has no STATS line"));
        }
        for w in &ck.wmes {
            if w.tag.raw() > ck.tag_mark {
                return Err(corrupt(format!(
                    "WME t{} exceeds the checkpoint tag mark {}",
                    w.tag.raw(),
                    ck.tag_mark
                )));
            }
        }
        Ok(ck)
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
    fn checkpoint_round_trips() {
        let ck = Checkpoint {
            matcher: "rete".into(),
            generation: 2,
            cycle: 12,
            tag_mark: 40,
            halted: true,
            totals: RunStats {
                firings: 12,
                makes: 3,
                removes: 1,
                modifies: 4,
                writes: 5,
                actions: 13,
                skipped_actions: 0,
                rolled_back: 1,
                per_rule: Default::default(),
            },
            rules: vec![(
                Symbol::new("r1"),
                RuleStats {
                    firings: 12,
                    actions: 13,
                },
            )],
            wmes: vec![
                wme(1, "player", &[("name", Value::sym("Jack"))]),
                wme(
                    40,
                    "score",
                    &[("n", Value::Int(7)), ("f", Value::Float(1.5))],
                ),
            ],
            fired: vec![
                (Symbol::new("r1"), KeySpec::Tuple(vec![TimeTag::new(1)])),
                (
                    Symbol::new("r1"),
                    KeySpec::Soi(vec![
                        KeyPart::Tag(TimeTag::new(40)),
                        KeyPart::Val(Value::sym("A")),
                    ]),
                ),
            ],
        };
        let text = ck.render();
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.matcher, "rete");
        assert_eq!(back.generation, 2);
        assert_eq!(back.cycle, 12);
        assert_eq!(back.tag_mark, 40);
        assert!(back.halted);
        assert_eq!(back.totals.firings, 12);
        assert_eq!(back.totals.rolled_back, 1);
        assert_eq!(back.rules, ck.rules);
        assert_eq!(back.wmes.len(), 2);
        assert_eq!(back.wmes[1].get(Symbol::new("f")), Value::Float(1.5));
        assert_eq!(back.fired, ck.fired);
        // Re-render is byte-identical (canonical form).
        assert_eq!(back.render(), text);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let err = Checkpoint::parse("nonsense").unwrap_err();
        assert!(err.to_string().contains("not a checkpoint"), "{}", err);
        let err =
            Checkpoint::parse("sorete-ckpt 1\nSTATS\t0\t0\t0\t0\t0\t0\t0\t0\nWHAT\t1").unwrap_err();
        assert!(err.to_string().contains("unknown record `WHAT`"), "{}", err);
        let err = Checkpoint::parse("sorete-ckpt 1\nCYCLE\t3").unwrap_err();
        assert!(err.to_string().contains("no STATS line"), "{}", err);
        // A WME above the recorded tag mark is inconsistent.
        let err =
            Checkpoint::parse("sorete-ckpt 1\nTAG\t1\nSTATS\t0\t0\t0\t0\t0\t0\t0\t0\nWME\t5\tS:c")
                .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{}", err);
    }

    #[test]
    fn cycle_marker_round_trips() {
        let m = CycleMarker {
            cycle: 9,
            halted: false,
            totals: RunStats {
                firings: 9,
                makes: 2,
                removes: 0,
                modifies: 3,
                writes: 1,
                actions: 6,
                skipped_actions: 0,
                rolled_back: 0,
                per_rule: Default::default(),
            },
            rule: Symbol::new("sweep"),
            rule_firings: 4,
            rule_actions: 5,
            key: KeySpec::Soi(vec![KeyPart::Val(Value::sym("B"))]),
        };
        let back = CycleMarker::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        let t = CycleMarker {
            key: KeySpec::Tuple(vec![TimeTag::new(3), TimeTag::new(8)]),
            ..m
        };
        assert_eq!(CycleMarker::decode(&t.encode()).unwrap(), t);
        assert!(CycleMarker::decode(b"garbage").is_err());
    }

    #[test]
    fn keyspec_survives_rule_renumbering() {
        let key = InstKey::Soi {
            rule: RuleId::new(3),
            parts: vec![KeyPart::Val(Value::Int(1))].into(),
        };
        let spec = KeySpec::of(&key);
        let rebuilt = spec.into_key(RuleId::new(7));
        assert_eq!(rebuilt.rule(), RuleId::new(7));
        assert!(rebuilt.is_soi());
    }
}
