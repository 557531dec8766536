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
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
        tags: Tags,
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
        let mut s = String::new();
        push_parts(&mut s, self.parts());
        s
    }

    /// The components [`InstKey::repr`] renders: a tuple key's tags, or
    /// an SOI's parts.
    pub(crate) fn parts(&self) -> impl Iterator<Item = KeyPart> + '_ {
        let (tags, parts): (&[TimeTag], &[KeyPart]) = match self {
            InstKey::Tuple { tags, .. } => (tags, &[]),
            InstKey::Soi { parts, .. } => (&[], parts),
        };
        tags.iter()
            .map(|&t| KeyPart::Tag(t))
            .chain(parts.iter().copied())
    }
}

/// Render key components as [`InstKey::repr`] does: space-separated,
/// tags as `t<n>`, values in their `Display` form.
pub(crate) fn push_parts(out: &mut String, parts: impl Iterator<Item = KeyPart>) {
    use std::fmt::Write as _;
    for (i, p) in parts.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = match p {
            KeyPart::Tag(t) => write!(out, "t{}", t.raw()),
            KeyPart::Val(v) => write!(out, "{}", v),
        };
    }
}

/// An immutable run of time tags: a box of its own, or a window of a
/// buffer shared by reference count. A tuple instantiation's key, row and
/// recency key — three views of one tag list — are windows of one shared
/// buffer ([`ConflictItem::tuple`]), and an SOI's recency key is shared
/// too ([`Tags::shared`]), so cloning, filing or reading an entry copies
/// no recency tag. A `-` token's key (never cloned) and an SOI's rows
/// (copied whole by a read either way) keep a plain box. Compares,
/// hashes and prints as its slice, whichever it is.
#[derive(Clone)]
pub struct Tags(Repr);

#[derive(Clone)]
enum Repr {
    Own(Box<[TimeTag]>),
    Shared {
        buf: Arc<[TimeTag]>,
        start: u32,
        end: u32,
    },
}

impl Tags {
    /// `tags` in a buffer of their own that clones share.
    pub fn shared(tags: &[TimeTag]) -> Tags {
        Tags::window(&Arc::from(tags), 0, tags.len())
    }

    /// Tags `start..end` of a shared buffer.
    fn window(buf: &Arc<[TimeTag]>, start: usize, end: usize) -> Tags {
        assert!(
            start <= end && end <= buf.len(),
            "a window inside the buffer"
        );
        let at = |i: usize| u32::try_from(i).expect("fewer than 2^32 tags");
        Tags(Repr::Shared {
            buf: buf.clone(),
            start: at(start),
            end: at(end),
        })
    }
}

impl std::ops::Deref for Tags {
    type Target = [TimeTag];

    fn deref(&self) -> &[TimeTag] {
        match &self.0 {
            Repr::Own(tags) => tags,
            Repr::Shared { buf, start, end } => &buf[*start as usize..*end as usize],
        }
    }
}

impl AsRef<[TimeTag]> for Tags {
    fn as_ref(&self) -> &[TimeTag] {
        self
    }
}

impl From<Box<[TimeTag]>> for Tags {
    fn from(tags: Box<[TimeTag]>) -> Tags {
        Tags(Repr::Own(tags))
    }
}

impl From<&[TimeTag]> for Tags {
    fn from(tags: &[TimeTag]) -> Tags {
        Tags::from(Box::from(tags))
    }
}

impl From<Vec<TimeTag>> for Tags {
    fn from(tags: Vec<TimeTag>) -> Tags {
        Tags::from(tags.into_boxed_slice())
    }
}

impl<const N: usize> From<[TimeTag; N]> for Tags {
    fn from(tags: [TimeTag; N]) -> Tags {
        Tags::from(Box::from(tags) as Box<[TimeTag]>)
    }
}

impl FromIterator<TimeTag> for Tags {
    fn from_iter<I: IntoIterator<Item = TimeTag>>(tags: I) -> Tags {
        Tags::from(tags.into_iter().collect::<Box<[TimeTag]>>())
    }
}

impl Default for Tags {
    fn default() -> Tags {
        Tags::from(Box::default() as Box<[TimeTag]>)
    }
}

impl PartialEq for Tags {
    fn eq(&self, other: &Tags) -> bool {
        **self == **other
    }
}

impl Eq for Tags {}

impl PartialOrd for Tags {
    fn partial_cmp(&self, other: &Tags) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tags {
    fn cmp(&self, other: &Tags) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Tags {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Tags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// An instantiation's rows in one flat buffer: row `i` is the `stride`
/// tags from `i * stride`, one per positive CE in CE order. Reading an
/// SOI's rows is one copy of one buffer, not one box per row. A tuple
/// instantiation's one row is a window of its shared [`Tags`]; an SOI's
/// rows are a box of their own, which a read copies once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rows {
    tags: Tags,
    stride: usize,
    len: usize,
}

impl Rows {
    /// One row.
    pub fn one(row: impl Into<Box<[TimeTag]>>) -> Rows {
        let tags = row.into();
        Rows {
            stride: tags.len(),
            len: 1,
            tags: Tags::from(tags),
        }
    }

    /// One row that shares its buffer.
    fn shared(row: Tags) -> Rows {
        Rows {
            stride: row.len(),
            len: 1,
            tags: row,
        }
    }

    /// Rows laid out in one buffer already, `stride` (> 0) tags each.
    pub fn from_flat(tags: Box<[TimeTag]>, stride: usize) -> Rows {
        let len = tags.len() / stride;
        assert_eq!(len * stride, tags.len(), "ragged rows");
        Rows {
            tags: Tags::from(tags),
            stride,
            len,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first (head) row.
    pub fn first(&self) -> Option<&[TimeTag]> {
        (self.len > 0).then(|| &self[0])
    }

    /// The rows in order, each as a slice.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            rows: self,
            next: 0,
        }
    }
}

/// The rows of a [`Rows`], in order, each as a slice.
pub struct RowIter<'a> {
    rows: &'a Rows,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [TimeTag];

    fn next(&mut self) -> Option<&'a [TimeTag]> {
        let rows = self.rows;
        let row = (self.next < rows.len).then(|| &rows[self.next])?;
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl std::ops::Index<usize> for Rows {
    type Output = [TimeTag];

    fn index(&self, i: usize) -> &[TimeTag] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.tags[i * self.stride..(i + 1) * self.stride]
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [TimeTag];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Rows of equal width, in order, copied into one buffer sized from the
/// iterator's lower bound.
impl<R: AsRef<[TimeTag]>> FromIterator<R> for Rows {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Rows {
        let rows = rows.into_iter();
        let (mut tags, mut stride, mut len) = (Vec::new(), 0, 0);
        let hint = rows.size_hint().0;
        for row in rows {
            let row = row.as_ref();
            if len == 0 {
                stride = row.len();
                tags.reserve_exact(stride * hint);
            }
            assert_eq!(row.len(), stride, "ragged rows");
            tags.extend_from_slice(row);
            len += 1;
        }
        Rows {
            tags: Tags::from(tags),
            stride,
            len,
        }
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
    pub rows: Rows,
    /// Current values of the rule's LHS aggregates, in declaration order.
    pub aggregates: Vec<Value>,
    /// Bumped whenever an SOI's contents change; a changed SOI becomes
    /// eligible to fire again (paper §6). Always 0 for regular entries.
    pub version: u64,
    /// Recency key: the head row's tags sorted descending. Drives LEX/MEA.
    pub recency: Tags,
    /// Number of LHS tests (OPS5 specificity tie-break).
    pub specificity: u32,
}

impl ConflictItem {
    /// A regular (tuple-oriented) instantiation of `rule` over one `row`
    /// of matched tags, one per positive CE in CE order: the one builder
    /// of tuple items, so their key, row and recency cannot disagree.
    /// All three read one buffer: the row, then its tags sorted descending.
    pub fn tuple(rule: RuleId, row: &[TimeTag], specificity: u32) -> ConflictItem {
        let n = row.len();
        let mut buf: Arc<[TimeTag]> = row.iter().chain(row).copied().collect();
        let fresh = Arc::get_mut(&mut buf).expect("a fresh buffer");
        fresh[n..].sort_unstable_by(|a, b| b.cmp(a));
        let tags = Tags::window(&buf, 0, n);
        ConflictItem {
            key: InstKey::Tuple {
                rule,
                tags: tags.clone(),
            },
            rows: Rows::shared(tags),
            aggregates: Vec::new(),
            version: 0,
            recency: Tags::window(&buf, n, 2 * n),
            specificity,
        }
    }

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
    pub recency: Tags,
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
            tags: tags(&[1, 3]).into(),
        };
        let b = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: tags(&[1, 3]).into(),
        };
        let c = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: tags(&[1, 4]).into(),
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
    fn flat_rows_split_by_stride() {
        let rows = Rows::from_flat(tags(&[1, 2, 3, 4]), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(&rows[1], tags(&[3, 4]).as_ref());
        assert_eq!(rows, [tags(&[1, 2]), tags(&[3, 4])].iter().collect());
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn flat_rows_must_fill_their_last_row() {
        Rows::from_flat(tags(&[1, 2, 3]), 2);
    }

    #[test]
    fn delta_key_access() {
        let key = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: tags(&[9]).into(),
        };
        let item = ConflictItem::tuple(RuleId::new(0), &tags(&[9]), 1);
        assert_eq!(CsDelta::Insert(item).key(), &key);
        assert_eq!(CsDelta::Remove(key.clone()).key(), &key);
        let retime = RetimeInfo {
            key: key.clone(),
            version: 3,
            recency: tags(&[9]).into(),
            first: TimeTag::new(9),
        };
        assert_eq!(CsDelta::Retime(retime).key(), &key);
    }
}
