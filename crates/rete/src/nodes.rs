//! Rete network data structures.
//!
//! The network is a graph with cycles of reference (nodes know their
//! children; alpha memories know their successor joins; tokens know parents
//! and children), so everything lives in typed-index arenas
//! ([`sorete_base::Arena`]) and refers to everything else by id — the
//! standard Rust idiom for graph-heavy code, and cache-friendlier than
//! `Rc<RefCell<...>>` webs.
//!
//! Topology (one level per condition element, in source order):
//!
//! ```text
//! TopMemory ── Join(CE₀) ── Memory ── Join(CE₁) ── Memory ── … ── Production
//!                │                      │
//!             AlphaMem(CE₀)          AlphaMem(CE₁)
//! ```
//!
//! A negated CE contributes a [`BetaNode::Negative`] in place of the
//! Join+Memory pair: it stores its own tokens (with per-token
//! negative-join-result lists, per Doorenbos) and only tokens with *empty*
//! join results count as present for downstream nodes. Every rule ends in
//! a `Production` that hands its rows to the production layer
//! ([`sorete_soi::Productions`]), which routes a set-oriented rule's rows
//! through the rule's S-node instead of straight to the conflict set.

use crate::index::{wme_key, IndexKey, IndexedList, JoinIndex};
use sorete_base::{define_id, Symbol, TimeTag, Wme};
use sorete_lang::analyze::{ConstTest, IntraTest};
use sorete_lang::ast::Pred;

define_id!(
    /// Id of an alpha memory.
    pub struct AMemId
);
define_id!(
    /// Id of a beta-level node.
    pub struct NodeId
);
define_id!(
    /// Id of a token.
    pub struct TokId
);
define_id!(
    /// Id of a production (index into the matcher's production table).
    pub struct ProdId
);

/// Sharing key of an alpha memory: class + constant tests + intra-CE tests,
/// in source order. Two CEs with identical keys share one memory — the
/// paper's "all of the advantages of Rete such as shared tests remain".
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AlphaKey {
    /// WME class.
    pub class: Symbol,
    /// Constant tests.
    pub consts: Vec<ConstTest>,
    /// Same-WME variable tests.
    pub intras: Vec<IntraTest>,
}

impl AlphaKey {
    /// Does a WME (presented through an attribute reader) satisfy every
    /// test?
    pub fn matches(&self, class: Symbol, get: impl Fn(Symbol) -> sorete_base::Value) -> bool {
        if class != self.class {
            return false;
        }
        self.consts.iter().all(|t| t.matches(&get(t.attr)))
            && self
                .intras
                .iter()
                .all(|t| t.pred.apply(&get(t.attr), &get(t.other_attr)))
    }
}

/// An alpha memory: the WMEs passing one [`AlphaKey`], plus the beta-level
/// nodes to right-activate when it changes.
#[derive(Debug)]
pub struct AlphaMem {
    /// Sharing key.
    pub key: AlphaKey,
    /// Member WMEs, in arrival order (O(1) removal via tombstones).
    pub wmes: IndexedList<TimeTag>,
    /// Successor join/negative nodes. Kept **deepest-first** so that a WME
    /// feeding several levels of one chain activates descendants before
    /// ancestors (Doorenbos' ordering requirement — avoids duplicate
    /// matches when one WME satisfies consecutive CEs).
    pub successors: Vec<NodeId>,
    /// Equality-hash indexes over the members. One per distinct attribute
    /// tuple some successor equality-joins on; shared by all successors
    /// that join on the same attributes.
    pub indexes: Vec<AlphaIndex>,
}

/// A hash index over one alpha memory, keyed on the member WMEs' values of
/// `attrs` (in join-test order).
#[derive(Debug)]
pub struct AlphaIndex {
    /// The indexed attributes.
    pub attrs: Vec<Symbol>,
    /// Buckets of `(tag, seq)` entries; liveness delegated to `wmes`.
    pub map: JoinIndex<TimeTag>,
}

impl AlphaMem {
    /// Add a member: the arrival-order list plus every index.
    pub fn insert_wme(&mut self, tag: TimeTag, wme: &Wme) {
        let seq = self.wmes.push(tag);
        for idx in &mut self.indexes {
            idx.map.insert(wme_key(&idx.attrs, wme), tag, seq);
        }
    }

    /// Remove a member in O(1): tombstone the list and the affected
    /// bucket of every index.
    pub fn remove_wme(&mut self, tag: TimeTag, wme: &Wme) {
        if !self.wmes.remove(tag) {
            return;
        }
        let wmes = &self.wmes;
        for idx in &mut self.indexes {
            idx.map
                .note_dead(&wme_key(&idx.attrs, wme), |t, s| wmes.seq_of(t) == Some(s));
        }
    }

    /// Live members of index `i`'s bucket for `key`, in arrival order.
    pub fn probe(&self, i: usize, key: &IndexKey) -> Vec<TimeTag> {
        self.indexes[i]
            .map
            .probe(key, |t, s| self.wmes.seq_of(t) == Some(s))
    }
}

/// A beta-level join test compiled against the token chain:
/// `wme.get(attr) pred chain[ups].get(other_attr)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledTest {
    /// Attribute of the right (alpha) WME.
    pub attr: Symbol,
    /// Predicate.
    pub pred: Pred,
    /// How many parent links to walk from the left token (0 = the left
    /// token itself) to reach the referenced earlier CE.
    pub ups: usize,
    /// Attribute of the earlier CE's WME.
    pub other_attr: Symbol,
}

/// Compile-time plan for running a Join/Negative node's equality tests
/// through hash indexes instead of scans. Built in `add_rule` when at
/// least one of the node's [`CompiledTest`]s uses [`Pred::Eq`] (and the
/// matcher has indexing enabled).
#[derive(Debug)]
pub struct EqJoin {
    /// Right-side (alpha) attributes of the equality tests, in test order.
    pub attrs: Vec<Symbol>,
    /// Left-side extraction, one `(ups, other_attr)` per equality test:
    /// walk `ups` parent links from the left token, read `other_attr`.
    pub spec: Vec<(usize, Symbol)>,
    /// The non-equality tests, still evaluated on every bucket candidate.
    pub residual: Vec<CompiledTest>,
    /// Index into the alpha memory's `indexes` (left-activation probe).
    pub alpha: usize,
    /// Hash index over the left input's tokens (right-activation probe):
    /// the parent memory's tokens for a Join, the node's own tokens for a
    /// Negative. `None` when the Join's left input is a Negative node —
    /// its presence filter makes bucket maintenance not worth it, so right
    /// activations fall back to the scan there.
    pub left: Option<JoinIndex<TokId>>,
}

/// A beta-level node.
#[derive(Debug)]
pub enum BetaNode {
    /// A token store (the top node and one per positive CE).
    Memory {
        /// The join that feeds this memory (`None` for the top memory).
        parent: Option<NodeId>,
        /// Stored tokens, in arrival order (O(1) tombstone removal).
        tokens: IndexedList<TokId>,
        /// Children: joins, negatives, productions.
        children: Vec<NodeId>,
    },
    /// A two-input join node (no token storage).
    Join {
        /// Left input (a Memory or Negative node).
        parent: NodeId,
        /// Right input.
        amem: AMemId,
        /// Consistency tests.
        tests: Vec<CompiledTest>,
        /// Equality-hash plan (`None` ⇒ pure scan).
        eq: Option<EqJoin>,
        /// The single output Memory (plus possibly Productions).
        children: Vec<NodeId>,
        /// CE level (depth), for activation ordering.
        depth: u32,
    },
    /// A negated-CE node: stores its own tokens; a token is "present" for
    /// downstream purposes iff its negative join results are empty.
    Negative {
        /// Left input (Memory or Negative).
        parent: NodeId,
        /// Right input (the WMEs whose presence blocks).
        amem: AMemId,
        /// Consistency tests.
        tests: Vec<CompiledTest>,
        /// Equality-hash plan (`None` ⇒ pure scan). `left` indexes the
        /// node's *own* tokens, keyed through their parent chains.
        eq: Option<EqJoin>,
        /// Own tokens (blocked and unblocked), in arrival order.
        tokens: IndexedList<TokId>,
        /// Children: joins, negatives, productions.
        children: Vec<NodeId>,
        /// CE level (depth).
        depth: u32,
    },
    /// A production (terminal) node; stores one token per complete match.
    Production {
        /// Left input (Memory or Negative).
        parent: NodeId,
        /// The production it reports to.
        prod: ProdId,
        /// Tokens = current complete matches, in arrival order.
        tokens: IndexedList<TokId>,
    },
}

impl BetaNode {
    /// The children list (empty slice for productions).
    pub fn children(&self) -> &[NodeId] {
        match self {
            BetaNode::Memory { children, .. }
            | BetaNode::Join { children, .. }
            | BetaNode::Negative { children, .. } => children,
            BetaNode::Production { .. } => &[],
        }
    }

    /// Detach a child (used by excise).
    pub fn remove_child(&mut self, child: NodeId) {
        match self {
            BetaNode::Memory { children, .. }
            | BetaNode::Join { children, .. }
            | BetaNode::Negative { children, .. } => children.retain(|&c| c != child),
            BetaNode::Production { .. } => {}
        }
    }

    /// Append a child.
    pub fn push_child(&mut self, child: NodeId) {
        match self {
            BetaNode::Memory { children, .. }
            | BetaNode::Join { children, .. }
            | BetaNode::Negative { children, .. } => children.push(child),
            BetaNode::Production { .. } => panic!("productions have no children"),
        }
    }

    /// Static kind label, as used by trace events and profiles.
    pub fn kind_label(&self) -> &'static str {
        match self {
            BetaNode::Memory { parent: None, .. } => "top",
            BetaNode::Memory { .. } => "memory",
            BetaNode::Join { .. } => "join",
            BetaNode::Negative { .. } => "negative",
            BetaNode::Production { .. } => "production",
        }
    }

    /// Tokens currently stored by the node (0 for joins, which store none).
    pub fn held(&self) -> usize {
        match self {
            BetaNode::Memory { tokens, .. }
            | BetaNode::Negative { tokens, .. }
            | BetaNode::Production { tokens, .. } => tokens.len(),
            BetaNode::Join { .. } => 0,
        }
    }
}

/// A token id or "none" in four bytes: `u32::MAX` is the sentinel, which
/// [`TokenSlab::alloc`] never hands out.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Link(u32);

impl Link {
    const NONE: Link = Link(u32::MAX);

    #[inline]
    fn of(id: TokId) -> Link {
        Link(id.index() as u32)
    }

    #[inline]
    fn get(self) -> Option<TokId> {
        (self != Link::NONE).then(|| TokId::new(self.0 as usize))
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// A token: one node of the match tree. Chain position = CE index; positive
/// CEs contribute `wme: Some(..)`, negated CEs and productions `None`.
///
/// The tree is linked intrusively: a parent knows the two ends of its child
/// list, a child its two neighbours, so appending, unlinking one child and
/// popping the head are all constant-time whatever the fan-out (every
/// first-CE token is a child of the one dummy top token). Only
/// [`TokenSlab`] writes the links.
#[derive(Debug)]
pub struct Token {
    parent: Link,
    first_child: Link,
    last_child: Link,
    prev_sibling: Link,
    next_sibling: Link,
    /// The node whose memory holds this token.
    pub node: NodeId,
    /// The WME matched at this level, if any.
    pub wme: Option<TimeTag>,
    /// For tokens stored in a Negative node: the WMEs currently blocking
    /// it. Changed only through [`TokenSlab`], which keeps each blocker's
    /// back-index.
    join_results: Vec<Blocker>,
    /// Allocation sequence (matcher-global, never reused). Hash-index
    /// entries are stamped with it so a recycled `TokId` can't alias a
    /// stale bucket entry.
    pub seq: u64,
}

/// One WME blocking a negative token, plus the back-index that makes
/// unblocking O(1) from either side: `at` is where the token sits in the
/// WME's `blocked` list, which in turn records where this entry sits in
/// the token's `join_results`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocker {
    /// The blocking WME.
    pub tag: TimeTag,
    /// Index of the token's entry in the WME's `blocked` list.
    pub at: u32,
}

/// Push onto a blocker list, allocating room for exactly one entry the
/// first time: most blocked tokens have one blocker and most WMEs block
/// one token, so the usual four-entry first allocation would mostly idle.
pub fn push_blocker_entry<T>(list: &mut Vec<T>, entry: T) {
    if list.capacity() == 0 {
        list.reserve_exact(1);
    }
    list.push(entry);
}

impl Token {
    /// A token with no children and no blockers, not yet linked under
    /// `parent` (`None` only for the dummy top token).
    pub fn new(parent: Option<TokId>, wme: Option<TimeTag>, node: NodeId, seq: u64) -> Token {
        Token {
            parent: parent.map_or(Link::NONE, Link::of),
            first_child: Link::NONE,
            last_child: Link::NONE,
            prev_sibling: Link::NONE,
            next_sibling: Link::NONE,
            node,
            wme,
            join_results: Vec::new(),
            seq,
        }
    }

    /// Parent token (`None` only for the dummy top token).
    #[inline]
    pub fn parent(&self) -> Option<TokId> {
        self.parent.get()
    }

    /// The WMEs blocking this (negative) token, in blocking order except
    /// where an unblock swapped the last one into the gap.
    pub fn blockers(&self) -> &[Blocker] {
        &self.join_results
    }
}

/// Slab of tokens with id reuse, so long recognise–act runs don't leak.
///
/// Child links and blocker lists are mutated only through the slab, which
/// keeps their totals: `blockers` is a count the byte formula multiplies,
/// so [`TokenSlab::approx_bytes`] never visits a token
/// ([`TokenSlab::walk_bytes`] recounts it); `child_links` is what
/// [`TokenSlab::validate_links`] checks the walked child lists against.
#[derive(Default, Debug)]
pub struct TokenSlab {
    slots: Vec<Option<Token>>,
    free: Vec<TokId>,
    /// Tokens currently linked into a parent's child list.
    child_links: u64,
    /// Σ `join_results.len()` over live tokens.
    blockers: u64,
    /// Tokens `push_child` / `remove_child` have accessed (see
    /// [`TokenSlab::link_visits`]).
    link_visits: u64,
}

impl TokenSlab {
    /// Insert a token, reusing a free slot when available.
    pub fn alloc(&mut self, token: Token) -> TokId {
        self.blockers += token.join_results.len() as u64;
        if let Some(id) = self.free.pop() {
            self.slots[id.index()] = Some(token);
            id
        } else {
            // The links store ids in 32 bits with `u32::MAX` as "none".
            assert!(self.slots.len() < u32::MAX as usize, "token slab is full");
            let id = TokId::new(self.slots.len());
            self.slots.push(Some(token));
            id
        }
    }

    /// Remove a token; its id may be reused. The token must already be out
    /// of the tree: unlinked from its parent, its own children popped.
    pub fn release(&mut self, id: TokId) -> Option<Token> {
        let t = self.slots.get_mut(id.index())?.take();
        if let Some(t) = &t {
            debug_assert!(
                t.first_child == Link::NONE
                    && t.prev_sibling == Link::NONE
                    && t.next_sibling == Link::NONE,
                "released {id:?} while still linked"
            );
            self.blockers -= t.join_results.len() as u64;
            self.free.push(id);
        }
        t
    }

    /// Shared access; `None` if deleted.
    pub fn get(&self, id: TokId) -> Option<&Token> {
        self.slots.get(id.index())?.as_ref()
    }

    fn get_mut(&mut self, id: TokId) -> Option<&mut Token> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    fn live_mut(&mut self, id: TokId) -> &mut Token {
        self.link_mut(id).expect("linked token is live")
    }

    /// A token whose child-list links are read or written, counted.
    fn link_mut(&mut self, id: TokId) -> Option<&mut Token> {
        self.link_visits += 1;
        self.get_mut(id)
    }

    /// Link the live, unlinked token `child` at the tail of its parent's
    /// child list: children stay in arrival order, which is the order a
    /// deletion cascade visits them in.
    pub fn push_child(&mut self, parent: TokId, child: TokId) {
        let tail = std::mem::replace(&mut self.live_mut(parent).last_child, Link::of(child));
        match tail.get() {
            Some(t) => self.live_mut(t).next_sibling = Link::of(child),
            None => self.live_mut(parent).first_child = Link::of(child),
        }
        let c = self.live_mut(child);
        debug_assert!(c.parent() == Some(parent) && c.prev_sibling == Link::NONE);
        c.prev_sibling = tail;
        self.child_links += 1;
    }

    /// Unlink `child` from its parent's child list. No search: the child
    /// names its neighbours, and only the list's ends live in the parent.
    /// Nothing happens when `child` is deleted, has no parent, or is not
    /// linked (a head is the token its parent's `first_child` names).
    pub fn remove_child(&mut self, child: TokId) {
        let Some(c) = self.link_mut(child) else {
            return;
        };
        let Some(parent) = c.parent() else {
            return;
        };
        let prev = std::mem::replace(&mut c.prev_sibling, Link::NONE);
        let next = std::mem::replace(&mut c.next_sibling, Link::NONE);
        match prev.get() {
            Some(p) => self.live_mut(p).next_sibling = next,
            None => match self.link_mut(parent) {
                Some(p) if p.first_child == Link::of(child) => p.first_child = next,
                _ => return,
            },
        }
        match next.get() {
            Some(n) => self.live_mut(n).prev_sibling = prev,
            None => self.live_mut(parent).last_child = prev,
        }
        self.child_links -= 1;
    }

    /// Unlink and return the oldest child of `tok` (`None` once it has no
    /// children, or is deleted). Looping on this tears a child list down in
    /// arrival order with every token either fully linked or fully out.
    pub fn pop_child(&mut self, tok: TokId) -> Option<TokId> {
        let child = self.get(tok)?.first_child.get()?;
        self.remove_child(child);
        Some(child)
    }

    /// The children of `tok`, oldest first (none if `tok` is deleted).
    pub fn children(&self, tok: TokId) -> impl Iterator<Item = TokId> + '_ {
        let first = self.get(tok).and_then(|t| t.first_child.get());
        std::iter::successors(first, move |&c| self.get(c)?.next_sibling.get())
    }

    /// Install the blockers a fresh negative token starts with.
    pub fn set_join_results(&mut self, tok: TokId, results: Vec<Blocker>) {
        let t = self.get_mut(tok).expect("token is live");
        let before = t.join_results.len() as u64;
        t.join_results = results;
        let after = t.join_results.len() as u64;
        self.blockers = self.blockers - before + after;
    }

    /// Add a blocker to the live token `tok`; returns whether the token
    /// was unblocked until now, and the blocker's index in its list (the
    /// WME side's back-index).
    pub fn push_join_result(&mut self, tok: TokId, blocker: Blocker) -> (bool, u32) {
        let t = self.get_mut(tok).expect("token is live");
        let was_empty = t.join_results.is_empty();
        let pos = t.join_results.len() as u32;
        push_blocker_entry(&mut t.join_results, blocker);
        self.blockers += 1;
        (was_empty, pos)
    }

    /// Drop the blocker at `pos` of `tok`, which must be `tag`. The last
    /// blocker moves into the gap (`swap_remove`), so the caller re-points
    /// the moved blocker's WME-side entry at `pos`: returns whether the
    /// removal left the token unblocked, and the moved blocker if any.
    pub fn remove_join_result(
        &mut self,
        tok: TokId,
        pos: u32,
        tag: TimeTag,
    ) -> (bool, Option<Blocker>) {
        let Some(t) = self.get_mut(tok) else {
            return (false, None);
        };
        let pos = pos as usize;
        if t.join_results.get(pos).map(|b| b.tag) != Some(tag) {
            debug_assert!(false, "back-index of {tag} in {tok:?} points at {pos}");
            return (false, None);
        }
        t.join_results.swap_remove(pos);
        let moved = t.join_results.get(pos).copied();
        let unblocked = t.join_results.is_empty();
        self.blockers -= 1;
        (unblocked, moved)
    }

    /// Re-point the blocker at `pos` of `tok` at index `at` of its WME's
    /// `blocked` list (that list swapped an entry into `at`).
    pub fn set_blocker_at(&mut self, tok: TokId, pos: u32, at: u32) {
        if let Some(b) = self
            .get_mut(tok)
            .and_then(|t| t.join_results.get_mut(pos as usize))
        {
            b.at = at;
        }
    }

    /// Every live token with its id.
    pub fn iter(&self) -> impl Iterator<Item = (TokId, &Token)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((TokId::new(i), t.as_ref()?)))
    }

    /// Live token count.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Tokens currently linked under a parent.
    pub fn child_links(&self) -> u64 {
        self.child_links
    }

    /// Tokens whose child-list links [`Self::push_child`] and
    /// [`Self::remove_child`] have accessed so far: three per link and
    /// three per unlink of a linked token, whatever the fan-out, where a
    /// child list kept as a `Vec` would visit the siblings it scans or
    /// shifts.
    pub fn link_visits(&self) -> u64 {
        self.link_visits
    }

    /// Estimated live bytes: each live token (its tree links are inline)
    /// plus its negative-join-result list (live-set methodology — see
    /// [`sorete_base::MemoryReport`]; released slots are excluded, so the
    /// figure shrinks as match trees are torn down).
    pub fn approx_bytes(&self) -> u64 {
        Self::bytes_for(self.live() as u64, self.blockers)
    }

    /// The byte formula over its two counts.
    fn bytes_for(live: u64, blockers: u64) -> u64 {
        use std::mem::size_of;
        live * size_of::<Token>() as u64 + blockers * size_of::<Blocker>() as u64
    }

    /// `(bytes, live tokens)` recounted token by token — the oracle the
    /// maintained counts are validated against.
    pub fn walk_bytes(&self) -> (u64, u64) {
        let (mut live, mut blockers) = (0u64, 0u64);
        for t in self.slots.iter().flatten() {
            live += 1;
            blockers += t.join_results.len() as u64;
        }
        (Self::bytes_for(live, blockers), live)
    }

    /// Walk every child list and check the links: each child is live and
    /// names the list's owner as its parent, `prev`/`next` mirror each
    /// other, the owner's `last_child` is where the walk ends, no list
    /// loops, and the lists together hold exactly `child_links` tokens.
    /// Names the token at which a list broke.
    pub fn validate_links(&self) -> Result<(), String> {
        let mut walked = 0u64;
        for (i, owner) in self.slots.iter().enumerate() {
            let Some(owner) = owner else { continue };
            let owner_id = TokId::new(i);
            let mut prev = Link::NONE;
            let mut cur = owner.first_child;
            while let Some(c) = cur.get() {
                let Some(child) = self.get(c) else {
                    return Err(format!(
                        "token tree: {owner_id:?} lists deleted child {c:?}"
                    ));
                };
                if child.parent() != Some(owner_id) {
                    return Err(format!(
                        "token tree: {c:?} is in the child list of {owner_id:?} but names parent {:?}",
                        child.parent()
                    ));
                }
                if child.prev_sibling != prev {
                    return Err(format!(
                        "token tree: {c:?} follows {prev:?} under {owner_id:?} but names {:?} as previous",
                        child.prev_sibling
                    ));
                }
                walked += 1;
                if walked > self.child_links {
                    return Err(format!(
                        "token tree: child lists hold more than the {} linked tokens counted \
                         (cycle or missed count) at {c:?} under {owner_id:?}",
                        self.child_links
                    ));
                }
                prev = cur;
                cur = child.next_sibling;
            }
            if owner.last_child != prev {
                return Err(format!(
                    "token tree: {owner_id:?} names {:?} as last child, its list ends at {prev:?}",
                    owner.last_child
                ));
            }
        }
        if walked != self.child_links {
            return Err(format!(
                "token tree: {} linked tokens counted, child lists hold {walked}",
                self.child_links
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_base::Value;

    #[test]
    fn token_slab_reuses_slots() {
        let mut slab = TokenSlab::default();
        let a = slab.alloc(Token::new(None, None, NodeId::new(0), 0));
        assert_eq!(slab.live(), 1);
        slab.release(a);
        assert_eq!(slab.live(), 0);
        assert!(slab.get(a).is_none());
        let b = slab.alloc(Token::new(None, Some(TimeTag::new(7)), NodeId::new(1), 0));
        assert_eq!(b, a, "slot reused");
        assert_eq!(slab.get(b).unwrap().wme, Some(TimeTag::new(7)));
    }

    #[test]
    fn double_release_is_harmless() {
        let mut slab = TokenSlab::default();
        let a = slab.alloc(Token::new(None, None, NodeId::new(0), 0));
        assert!(slab.release(a).is_some());
        assert!(slab.release(a).is_none());
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.free.len(), 1, "freed exactly once");
    }

    /// Three children under one root, in arrival order.
    fn small_tree() -> (TokenSlab, TokId, [TokId; 3]) {
        let mut slab = TokenSlab::default();
        let root = slab.alloc(Token::new(None, None, NodeId::new(0), 0));
        let kids = [1, 2, 3].map(|seq| {
            let t = slab.alloc(Token::new(Some(root), None, NodeId::new(0), seq));
            slab.push_child(root, t);
            t
        });
        (slab, root, kids)
    }

    #[test]
    fn middle_head_and_tail_unlink_keep_the_order() {
        let (mut slab, root, [a, b, c]) = small_tree();
        assert!(slab.children(root).eq([a, b, c]));
        slab.remove_child(b);
        assert!(slab.children(root).eq([a, c]));
        slab.validate_links().unwrap();
        // Unlinked, `b` goes back in at the tail.
        slab.push_child(root, b);
        assert!(slab.children(root).eq([a, c, b]));
        slab.remove_child(a);
        slab.remove_child(b);
        assert!(slab.children(root).eq([c]));
        assert_eq!(slab.pop_child(root), Some(c));
        assert_eq!(slab.pop_child(root), None);
        assert_eq!(slab.child_links(), 0);
        slab.validate_links().unwrap();
    }

    #[test]
    fn validate_links_names_the_token_where_a_list_broke() {
        let (mut slab, root, [a, b, c]) = small_tree();
        slab.validate_links().unwrap();

        slab.get_mut(b).unwrap().prev_sibling = Link::NONE;
        let err = slab.validate_links().unwrap_err();
        assert!(err.contains(&format!("{b:?}")), "{err}");
        slab.get_mut(b).unwrap().prev_sibling = Link::of(a);

        slab.get_mut(c).unwrap().next_sibling = Link::of(a);
        let err = slab.validate_links().unwrap_err();
        assert!(err.contains("TokId("), "cycle: {err}");
        slab.get_mut(c).unwrap().next_sibling = Link::NONE;

        slab.get_mut(root).unwrap().last_child = Link::of(b);
        let err = slab.validate_links().unwrap_err();
        assert!(err.contains(&format!("{root:?}")), "{err}");
        slab.get_mut(root).unwrap().last_child = Link::of(c);

        slab.child_links += 1;
        let err = slab.validate_links().unwrap_err();
        assert!(err.contains("4 linked tokens counted"), "{err}");
    }

    #[test]
    fn alpha_key_matching() {
        use sorete_lang::analyze::{ConstTest, ConstTestKind};
        let class = Symbol::new("player");
        let key = AlphaKey {
            class,
            consts: vec![ConstTest {
                attr: Symbol::new("team"),
                kind: ConstTestKind::Pred(Pred::Eq, Value::sym("A")),
            }],
            intras: vec![],
        };
        let team_a = |attr: Symbol| {
            if attr == Symbol::new("team") {
                Value::sym("A")
            } else {
                Value::Nil
            }
        };
        assert!(key.matches(class, team_a));
        assert!(!key.matches(Symbol::new("emp"), team_a));
        assert!(!key.matches(class, |_| Value::sym("B")));
    }
}
