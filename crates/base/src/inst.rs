//! Conflict-set interchange types.
//!
//! Every match algorithm in the workspace (Rete, TREAT, the naive oracle)
//! reports its matches through these types, so the engine, the tests, and
//! the benchmarks can treat matchers interchangeably.
//!
//! The protocol mirrors the paper's §5: a matcher emits `+` tokens
//! ([`CsDelta::Insert`]), `-` tokens ([`CsDelta::Remove`]), and — for
//! set-oriented instantiations only — `time` tokens ([`CsDelta::Retime`]),
//! which reposition an SOI already in the conflict set without re-adding it.

use crate::define_id;
use crate::value::Value;
use crate::wme::TimeTag;
use std::fmt;

define_id!(
    /// Identifies a production within one matcher. Assigned in the order
    /// productions are added.
    pub struct RuleId
);

/// One component of an SOI identity: either the WME tag matched by a
/// non-set-oriented CE, or the scalar value of a `:scalar` pattern variable.
/// (Paper §5: "for all x in C, i\[x\] = token\[x\] and for all x in P,
/// i\[x\] = token\[x\]".)
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum KeyPart {
    /// Tag of the WME matching a regular (scalar) condition element.
    Tag(TimeTag),
    /// Value bound by a scalar pattern variable.
    Val(Value),
}

/// Stable identity of a conflict-set entry, used for refraction and removal.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum InstKey {
    /// A regular (tuple-oriented) instantiation: the rule plus the matched
    /// WME tags, one per positive CE.
    Tuple {
        /// The production.
        rule: RuleId,
        /// Matched WME per positive CE, in CE order.
        tags: Box<[TimeTag]>,
    },
    /// A set-oriented instantiation: the rule plus the γ-memory key.
    Soi {
        /// The production.
        rule: RuleId,
        /// Scalar-CE tags and scalar-PV values, in static-data order.
        parts: Box<[KeyPart]>,
    },
}

impl InstKey {
    /// The production this entry instantiates.
    pub fn rule(&self) -> RuleId {
        match self {
            InstKey::Tuple { rule, .. } | InstKey::Soi { rule, .. } => *rule,
        }
    }

    /// True for set-oriented instantiations.
    pub fn is_soi(&self) -> bool {
        matches!(self, InstKey::Soi { .. })
    }

    /// Canonical, human-readable key text used by the trace event stream:
    /// space-separated components, tags as `t<n>`, scalar values rendered
    /// with their `Display` form. Deterministic for a given key.
    pub fn repr(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        match self {
            InstKey::Tuple { tags, .. } => {
                for (i, t) in tags.iter().enumerate() {
                    if i > 0 {
                        s.push(' ');
                    }
                    let _ = write!(s, "t{}", t.raw());
                }
            }
            InstKey::Soi { parts, .. } => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        s.push(' ');
                    }
                    match p {
                        KeyPart::Tag(t) => {
                            let _ = write!(s, "t{}", t.raw());
                        }
                        KeyPart::Val(v) => {
                            let _ = write!(s, "{}", v);
                        }
                    }
                }
            }
        }
        s
    }
}

/// A conflict-set entry as produced by a matcher.
///
/// `rows` is the relation the LHS generated (paper §3): each row holds the
/// matched WME tag for every *positive* CE, in CE order. A regular
/// instantiation has exactly one row; an SOI carries every candidate row,
/// most recent first (the "head" row, which determines the SOI's position in
/// the conflict set).
#[derive(Clone, Debug)]
pub struct ConflictItem {
    /// Identity (also the refraction key).
    pub key: InstKey,
    /// One row per underlying tuple match; one tag per positive CE.
    pub rows: Vec<Box<[TimeTag]>>,
    /// Current values of the rule's LHS aggregates, in declaration order.
    pub aggregates: Vec<Value>,
    /// Bumped whenever an SOI's contents change; a changed SOI becomes
    /// eligible to fire again (paper §6). Always 0 for regular entries.
    pub version: u64,
    /// Recency key: the head row's tags sorted descending. Drives LEX/MEA.
    pub recency: Box<[TimeTag]>,
    /// Number of LHS tests (OPS5 specificity tie-break).
    pub specificity: u32,
}

impl ConflictItem {
    /// The head (most recent) row.
    pub fn head(&self) -> &[TimeTag] {
        &self.rows[0]
    }

    /// The head row's first-CE tag, which MEA ranks on (zero when there
    /// are no rows).
    pub fn first_tag(&self) -> TimeTag {
        self.rows
            .first()
            .and_then(|r| r.first().copied())
            .unwrap_or_default()
    }
}

/// A `time` token: the SOI under `key` changed contents and/or conflict-set
/// position. Deliberately *slim* — the paper's S-node passes "only a
/// pointer" to the production node, and "updates to an active SOI in the
/// S-node's γ-memory transparently update the SOI in the conflict set".
/// Consumers re-fetch the rows through `Matcher::materialize` when (and
/// only when) the SOI actually fires.
#[derive(Clone, Debug)]
pub struct RetimeInfo {
    /// Identity of the SOI.
    pub key: InstKey,
    /// New content version (re-arms refraction).
    pub version: u64,
    /// New recency key (head row tags, descending).
    pub recency: Box<[TimeTag]>,
    /// New head row's first-CE tag (MEA's key), so a repositioned SOI is
    /// ranked by its current head rather than by the rows it last carried.
    pub first: TimeTag,
}

/// A change to the conflict set, as emitted by a matcher after each working
/// memory transaction.
#[derive(Clone, Debug)]
pub enum CsDelta {
    /// `+` token: a new entry enters the conflict set.
    Insert(ConflictItem),
    /// `-` token: the entry with this key leaves the conflict set.
    Remove(InstKey),
    /// `time` token: reposition/re-arm an SOI already in the conflict set.
    Retime(RetimeInfo),
}

impl CsDelta {
    /// Key of the affected entry.
    pub fn key(&self) -> &InstKey {
        match self {
            CsDelta::Insert(item) => &item.key,
            CsDelta::Retime(info) => &info.key,
            CsDelta::Remove(key) => key,
        }
    }
}

/// Work counters a matcher maintains, for the paper's efficiency claims
/// (tokens and join activity are the classic Rete cost measures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Right activations of alpha memories (WMEs entering the network).
    pub alpha_activations: u64,
    /// Left/right activations of beta-level nodes.
    pub beta_activations: u64,
    /// Individual inter-token consistency tests performed at join nodes.
    pub join_tests: u64,
    /// Tokens (partial instantiations) created.
    pub tokens_created: u64,
    /// Tokens deleted.
    pub tokens_deleted: u64,
    /// S-node activations (tokens processed by the Figure-3 algorithm).
    pub snode_activations: u64,
    /// Incremental aggregate updates performed inside S-nodes.
    pub aggregate_updates: u64,
    /// Hash-index probes performed in place of memory scans.
    pub index_probes: u64,
    /// Join tests the hash indexes made unnecessary (one failed test per
    /// candidate the probe filtered out, plus every equality test on the
    /// candidates it returned).
    pub index_skipped_tests: u64,
    /// Join/negative nodes compiled with an equality-hash index.
    pub indexed_nodes: u64,
}

impl fmt::Display for MatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alpha={} beta={} join_tests={} tokens(+{}/-{}) snode={} agg={} \
             idx(nodes={} probes={} skipped={})",
            self.alpha_activations,
            self.beta_activations,
            self.join_tests,
            self.tokens_created,
            self.tokens_deleted,
            self.snode_activations,
            self.aggregate_updates,
            self.indexed_nodes,
            self.index_probes,
            self.index_skipped_tests
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(ts: &[u64]) -> Box<[TimeTag]> {
        ts.iter().map(|&t| TimeTag::new(t)).collect()
    }

    #[test]
    fn tuple_key_identity() {
        let a = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: tags(&[1, 3]),
        };
        let b = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: tags(&[1, 3]),
        };
        let c = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: tags(&[1, 4]),
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_soi());
        assert_eq!(a.rule(), RuleId::new(0));
    }

    #[test]
    fn soi_key_mixes_tags_and_values() {
        let k = InstKey::Soi {
            rule: RuleId::new(1),
            parts: vec![KeyPart::Tag(TimeTag::new(2)), KeyPart::Val(Value::sym("A"))].into(),
        };
        assert!(k.is_soi());
        assert_eq!(k.rule(), RuleId::new(1));
    }

    #[test]
    fn delta_key_access() {
        let key = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: tags(&[9]),
        };
        let item = ConflictItem {
            key: key.clone(),
            rows: vec![tags(&[9])],
            aggregates: vec![],
            version: 0,
            recency: tags(&[9]),
            specificity: 1,
        };
        assert_eq!(CsDelta::Insert(item).key(), &key);
        assert_eq!(CsDelta::Remove(key.clone()).key(), &key);
        let retime = RetimeInfo {
            key: key.clone(),
            version: 3,
            recency: tags(&[9]),
            first: TimeTag::new(9),
        };
        assert_eq!(CsDelta::Retime(retime).key(), &key);
    }
}
