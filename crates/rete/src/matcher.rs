//! The Rete match engine.
//!
//! A faithful Rete (Forgy 1982) with Doorenbos-style token trees for
//! incremental removal, extended — exactly as the paper prescribes — "at the
//! end of the network for each set-oriented rule" with an S-node: every
//! production node hands its rows to the shared production layer
//! ([`sorete_soi::Productions`]), which turns a tuple rule's row into a
//! conflict-set delta and feeds a set-oriented rule's row to its S-node.
//! The rest of the network is untouched, so regular rules pay nothing, and
//! alpha/beta node sharing works across regular and set-oriented rules
//! alike.

use crate::index::{wme_key, IndexKey, IndexedList, JoinIndex};
use crate::nodes::*;
use sorete_base::{
    Arena, ConflictItem, CsDelta, FxHashMap, InstKey, MatchStats, MemoryRegion, MemoryReport,
    NetProfile, NodeProfile, RuleId, SelfTimer, Symbol, TimeTag, TraceEvent, Tracer, Value, Wme,
};
use sorete_lang::analyze::AnalyzedRule;
use sorete_lang::ast::Pred;
use sorete_lang::matcher::Matcher;
use sorete_soi::{GammaCounts, Productions, SoiStats};
use std::sync::Arc;

/// A production's place in the network; its rule and S-node live in the
/// production layer, under the same index.
struct ProdInfo {
    /// The production's terminal node.
    pnode: NodeId,
    /// True once excised (the id stays allocated but inert).
    excised: bool,
}

struct WmeEntry {
    wme: Wme,
    /// Alpha memories this WME joined.
    amems: Vec<AMemId>,
    /// Tokens whose `wme` is this WME.
    tokens: Vec<TokId>,
    /// Negative-node tokens this WME currently blocks, each with the
    /// index of this WME's [`Blocker`] in the token's list (the back-index
    /// that makes an unblock O(1); the blocker points back here).
    blocked: Vec<(TokId, u32)>,
}

/// Live-set counts of the WME table — what its byte formula multiplies,
/// kept current by every site that touches a [`WmeEntry`] (the entry count
/// itself is the table's length).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WmeTableCounts {
    /// Σ attribute slots over entries.
    slots: u64,
    /// Σ alpha-memory back-references over entries.
    amems: u64,
    /// Σ `tokens` back-references over entries.
    token_refs: u64,
    /// Σ `blocked` back-references over entries.
    blocked: u64,
}

impl WmeTableCounts {
    fn of(entry: &WmeEntry) -> WmeTableCounts {
        WmeTableCounts {
            slots: entry.wme.slots().len() as u64,
            amems: entry.amems.len() as u64,
            token_refs: entry.tokens.len() as u64,
            blocked: entry.blocked.len() as u64,
        }
    }

    fn add(&mut self, c: WmeTableCounts) {
        self.slots += c.slots;
        self.amems += c.amems;
        self.token_refs += c.token_refs;
        self.blocked += c.blocked;
    }

    fn sub(&mut self, c: WmeTableCounts) {
        self.slots -= c.slots;
        self.amems -= c.amems;
        self.token_refs -= c.token_refs;
        self.blocked -= c.blocked;
    }

    /// Estimated live bytes of a table of `entries` WMEs.
    fn bytes(&self, entries: u64) -> u64 {
        use std::mem::size_of;
        entries * (size_of::<TimeTag>() + size_of::<Wme>()) as u64
            + self.slots * size_of::<(Symbol, Value)>() as u64
            + self.amems * size_of::<AMemId>() as u64
            + self.token_refs * size_of::<TokId>() as u64
            + self.blocked * size_of::<(TokId, u32)>() as u64
    }
}

/// The `gamma` region's `(bytes, entries)` from γ-memory counts.
fn gamma_region(c: GammaCounts) -> (u64, u64) {
    (c.bytes(), c.entries)
}

/// Sum `(bytes, entries)` figures.
fn total(parts: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
    parts.fold((0, 0), |(b, e), (pb, pe)| (b + pb, e + pe))
}

/// The Rete memory report from its `(bytes, entries)` figures, in display
/// order.
fn seven_regions(figures: [(u64, u64); 7]) -> MemoryReport {
    const NAMES: [&str; 7] = [
        "alpha",
        "alpha_index",
        "beta",
        "beta_index",
        "tokens",
        "gamma",
        "wme_table",
    ];
    let regions = NAMES.iter().zip(figures);
    MemoryReport {
        regions: regions
            .map(|(&name, (bytes, entries))| MemoryRegion {
                name,
                bytes,
                entries,
            })
            .collect(),
    }
}

/// The Rete matcher.
pub struct ReteMatcher {
    amems: Arena<AlphaMem, AMemId>,
    alpha_index: FxHashMap<AlphaKey, AMemId>,
    class_index: FxHashMap<Symbol, Vec<AMemId>>,
    nodes: Arena<BetaNode, NodeId>,
    tokens: TokenSlab,
    top: NodeId,
    prods: Vec<ProdInfo>,
    /// The end of the network: tuple deltas, S-nodes, the settle queue.
    productions: Productions,
    /// Scratch for a production token's row on its way to the production
    /// layer (a tuple instantiation's or an S-node's).
    row_buf: Vec<TimeTag>,
    wmes: FxHashMap<TimeTag, WmeEntry>,
    wme_counts: WmeTableCounts,
    stats: MatchStats,
    /// True while `add_rule` replays existing state into new nodes —
    /// build-time work is not charged to the runtime counters, so claim C1
    /// (regular programs unaffected) is measured on match work only.
    building: bool,
    /// Compile equality tests into hash-index probes (`true` for
    /// [`ReteMatcher::new`]); `false` reproduces the pure-scan Rete for
    /// differential testing and measurement.
    indexing: bool,
    /// Next token sequence number (never reused; stamps index entries).
    next_token_seq: u64,
    /// Physical-event stream (alpha/beta activations, probes, S-node
    /// activity). Disabled (no sinks) by default.
    tracer: Tracer,
    /// Per-node self-time profiler; `None` unless profiling is enabled.
    /// Slots interleave beta nodes (even: `node.index()*2`) and alpha
    /// memories (odd: `amem.index()*2 + 1`).
    prof: Option<SelfTimer>,
}

/// Profiler slot of a beta node.
#[inline]
fn beta_slot(node: NodeId) -> u32 {
    (node.index() * 2) as u32
}

/// Profiler slot of an alpha memory.
#[inline]
fn alpha_slot(amem: AMemId) -> u32 {
    (amem.index() * 2 + 1) as u32
}

impl Default for ReteMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ReteMatcher {
    /// An empty network with hash-join indexing enabled.
    pub fn new() -> ReteMatcher {
        Self::with_indexing(true)
    }

    /// An empty network; `indexing: false` keeps every join a pure memory
    /// scan (the classic Rete baseline). Both modes produce byte-identical
    /// delta streams — only the work counters differ.
    pub fn with_indexing(indexing: bool) -> ReteMatcher {
        let mut nodes = Arena::new();
        let top = nodes.alloc(BetaNode::Memory {
            parent: None,
            tokens: IndexedList::new(),
            children: Vec::new(),
        });
        let mut tokens = TokenSlab::default();
        let dummy = tokens.alloc(Token::new(None, None, top, 0));
        if let BetaNode::Memory { tokens: toks, .. } = &mut nodes[top] {
            toks.push(dummy);
        }
        ReteMatcher {
            amems: Arena::new(),
            alpha_index: FxHashMap::default(),
            class_index: FxHashMap::default(),
            nodes,
            tokens,
            top,
            prods: Vec::new(),
            productions: Productions::default(),
            row_buf: Vec::new(),
            wmes: FxHashMap::default(),
            wme_counts: WmeTableCounts::default(),
            stats: MatchStats::default(),
            building: false,
            indexing,
            next_token_seq: 1,
            tracer: Tracer::null(),
            prof: None,
        }
    }

    #[inline]
    fn prof_enter(&mut self, slot: u32) {
        if let Some(p) = &mut self.prof {
            if !self.building {
                p.enter(slot);
            }
        }
    }

    #[inline]
    fn prof_exit(&mut self) {
        if let Some(p) = &mut self.prof {
            if !self.building {
                p.exit();
            }
        }
    }

    /// Emit a physical beta-activation event for `node` (no-op while
    /// building or with no tracer attached, mirroring the stat counters).
    #[inline]
    fn trace_beta(&mut self, node: NodeId) {
        if self.tracer.enabled() && !self.building {
            let kind = self.nodes[node].kind_label();
            self.tracer.emit(|| TraceEvent::BetaActivation {
                node: node.index() as u32,
                kind,
            });
        }
    }

    /// Live beta-level node count (for structure/sharing tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Alpha memory count (for sharing tests).
    pub fn alpha_count(&self) -> usize {
        self.amems.len()
    }

    /// Live token count.
    pub fn token_count(&self) -> usize {
        self.tokens.live()
    }

    /// Iterate alpha memories as `(index, &mem)` (for DOT export/tests).
    pub fn alpha_memories(&self) -> impl Iterator<Item = (usize, &AlphaMem)> {
        self.amems.iter().map(|(id, m)| (id.index(), m))
    }

    /// Iterate beta-level nodes as `(id, &node)` (for DOT export/tests).
    pub fn beta_nodes(&self) -> impl Iterator<Item = (NodeId, &BetaNode)> {
        self.nodes.iter()
    }

    /// Rule name + S-node annotation for a production (DOT export).
    pub(crate) fn production_label(&self, prod: ProdId) -> (String, String) {
        let rule = RuleId::new(prod.index());
        let snode_info = self
            .productions
            .soi_count(rule)
            .map_or_else(String::new, |n| format!("\\nS-node |{n}| SOIs"));
        (self.productions.rule(rule).name.to_string(), snode_info)
    }

    // ------------------------------------------------------------ build

    fn get_or_create_amem(&mut self, key: AlphaKey) -> AMemId {
        if let Some(&id) = self.alpha_index.get(&key) {
            return id;
        }
        // Backfill from working memory so productions can be added after
        // WMEs (Doorenbos' update-new-node step, alpha half) — in tag
        // order, as if the memory had been there all along: the table's
        // own iteration order depends on its capacity history, which a
        // recovered engine does not share.
        let mut matching: Vec<TimeTag> = self
            .wmes
            .iter()
            .filter(|(_, e)| key.matches(e.wme.class, |attr| e.wme.get(attr)))
            .map(|(&t, _)| t)
            .collect();
        matching.sort_unstable();
        let id = self.amems.alloc(AlphaMem {
            key: key.clone(),
            wmes: matching.iter().copied().collect(),
            successors: Vec::new(),
            indexes: Vec::new(),
        });
        for t in &matching {
            self.wmes.get_mut(t).unwrap().amems.push(id);
        }
        self.wme_counts.amems += matching.len() as u64;
        self.class_index.entry(key.class).or_default().push(id);
        self.alpha_index.insert(key, id);
        id
    }

    fn find_shared_join(
        &self,
        parent: NodeId,
        amem: AMemId,
        tests: &[CompiledTest],
    ) -> Option<NodeId> {
        self.nodes[parent].children().iter().copied().find(|&c| {
            matches!(&self.nodes[c], BetaNode::Join { amem: a, tests: t, .. } if *a == amem && t == tests)
        })
    }

    fn find_shared_negative(
        &self,
        parent: NodeId,
        amem: AMemId,
        tests: &[CompiledTest],
    ) -> Option<NodeId> {
        self.nodes[parent].children().iter().copied().find(|&c| {
            matches!(&self.nodes[c], BetaNode::Negative { amem: a, tests: t, .. } if *a == amem && t == tests)
        })
    }

    #[inline]
    fn charge_beta(&mut self) {
        if !self.building {
            self.stats.beta_activations += 1;
        }
    }

    /// Account one index probe that returned `hits` of `total` scannable
    /// candidates, where the node has `n_eq` equality tests. The skipped
    /// estimate is deliberately conservative: a scan would have run at
    /// least one (failing) test on each filtered-out candidate and all
    /// `n_eq` equality tests on each hit.
    #[inline]
    fn charge_probe(&mut self, n_eq: u64, total: u64, hits: u64) {
        if !self.building {
            self.stats.index_probes += 1;
            self.stats.index_skipped_tests += (total - hits) + n_eq * hits;
        }
    }

    /// Compile the equality-test part of `tests` into an [`EqJoin`] plan:
    /// pick (or create) the shared alpha index, and — for the token side —
    /// build the left-input index, backfilled from whatever tokens the
    /// parent memory already holds.
    fn build_eq(
        &mut self,
        amem: AMemId,
        parent: NodeId,
        tests: &[CompiledTest],
        negated: bool,
    ) -> Option<EqJoin> {
        let eq_tests: Vec<CompiledTest> = tests
            .iter()
            .copied()
            .filter(|t| t.pred == Pred::Eq)
            .collect();
        if eq_tests.is_empty() {
            return None;
        }
        let residual: Vec<CompiledTest> = tests
            .iter()
            .copied()
            .filter(|t| t.pred != Pred::Eq)
            .collect();
        let attrs: Vec<Symbol> = eq_tests.iter().map(|t| t.attr).collect();
        let spec: Vec<(usize, Symbol)> = eq_tests.iter().map(|t| (t.ups, t.other_attr)).collect();
        let alpha = Self::ensure_alpha_index(&mut self.amems[amem], &attrs, &self.wmes);
        let left = if negated {
            // A Negative indexes its own tokens; it has none at creation
            // (the add_rule replay populates it via `left_activate`).
            Some(JoinIndex::new())
        } else {
            match &self.nodes[parent] {
                BetaNode::Memory { tokens, .. } => {
                    let existing: Vec<TokId> = tokens.to_vec();
                    let mut idx = JoinIndex::new();
                    for tok in existing {
                        let key = self.token_key(&spec, tok);
                        let seq = self.tokens.get(tok).unwrap().seq;
                        idx.insert(key, tok, seq);
                    }
                    Some(idx)
                }
                // Left input is a Negative: its presence filter (blocked
                // tokens don't count) makes the bucket bookkeeping not
                // worth it — right activations scan, left activations
                // still probe the alpha index.
                _ => None,
            }
        };
        self.stats.indexed_nodes += 1;
        Some(EqJoin {
            attrs,
            spec,
            residual,
            alpha,
            left,
        })
    }

    /// Find or create the alpha index over `attrs`, backfilling a new one
    /// from the memory's current members.
    fn ensure_alpha_index(
        amem: &mut AlphaMem,
        attrs: &[Symbol],
        wmes: &FxHashMap<TimeTag, WmeEntry>,
    ) -> usize {
        if let Some(i) = amem.indexes.iter().position(|ix| ix.attrs == attrs) {
            return i;
        }
        let mut map = JoinIndex::new();
        for (tag, seq) in amem.wmes.iter_live_seq() {
            map.insert(wme_key(attrs, &wmes[&tag].wme), tag, seq);
        }
        amem.indexes.push(AlphaIndex {
            attrs: attrs.to_vec(),
            map,
        });
        amem.indexes.len() - 1
    }

    /// Index key of the token chain rooted at `root` (the *left* value of
    /// a join) under the extraction spec: walk `ups` parents, read
    /// `other_attr`.
    fn token_key(&self, spec: &[(usize, Symbol)], root: TokId) -> IndexKey {
        IndexKey::from_values(spec.iter().map(|&(ups, attr)| {
            let mut cur = root;
            for _ in 0..ups {
                cur = self.tokens.get(cur).unwrap().parent().unwrap();
            }
            let tag = self
                .tokens
                .get(cur)
                .unwrap()
                .wme
                .expect("equality test references a positive CE");
            self.wmes[&tag].wme.get(attr)
        }))
    }

    /// Like [`Self::token_key`], but for a token already released from the
    /// slab (its ancestors are still live during post-order deletion).
    fn released_token_key(&self, spec: &[(usize, Symbol)], token: &Token) -> IndexKey {
        IndexKey::from_values(spec.iter().map(|&(ups, attr)| {
            let tag = if ups == 0 {
                token.wme.expect("equality test references a positive CE")
            } else {
                let mut cur = token.parent().expect("non-top token has a parent");
                for _ in 0..ups - 1 {
                    cur = self.tokens.get(cur).unwrap().parent().unwrap();
                }
                self.tokens
                    .get(cur)
                    .unwrap()
                    .wme
                    .expect("equality test references a positive CE")
            };
            self.wmes[&tag].wme.get(attr)
        }))
    }

    /// Register a token just stored in a memory with the left-input hash
    /// indexes of its child joins.
    fn index_left_token(&mut self, children: &[NodeId], tok: TokId) {
        for &c in children {
            let key = {
                let BetaNode::Join { eq: Some(eq), .. } = &self.nodes[c] else {
                    continue;
                };
                if eq.left.is_none() {
                    continue;
                }
                self.token_key(&eq.spec, tok)
            };
            let seq = self.tokens.get(tok).unwrap().seq;
            if let BetaNode::Join { eq: Some(eq), .. } = &mut self.nodes[c] {
                eq.left.as_mut().unwrap().insert(key, tok, seq);
            }
        }
    }

    /// Check every hash index against a from-scratch rebuild: grouping the
    /// live members of the indexed collection by key must reproduce the
    /// live bucket contents exactly, including order (probe order must
    /// equal scan order). O(network) — a test/debug aid, also reachable
    /// through [`Matcher::validate`].
    pub fn validate_indexes(&self) -> Result<(), String> {
        fn diff<K: std::fmt::Debug + Eq + std::hash::Hash, T: std::fmt::Debug + Eq>(
            what: String,
            expect: FxHashMap<K, Vec<T>>,
            got: Vec<(K, Vec<T>)>,
        ) -> Result<(), String> {
            let mut got: FxHashMap<K, Vec<T>> =
                got.into_iter().filter(|(_, v)| !v.is_empty()).collect();
            for (key, exp) in expect {
                match got.remove(&key) {
                    Some(g) if g == exp => {}
                    other => {
                        return Err(format!(
                            "{what}: key {key:?} expected {exp:?}, got {other:?}"
                        ))
                    }
                }
            }
            if let Some((key, v)) = got.into_iter().next() {
                return Err(format!("{what}: stray live bucket {key:?}: {v:?}"));
            }
            Ok(())
        }

        for (id, amem) in self.amems.iter() {
            for (i, idx) in amem.indexes.iter().enumerate() {
                let mut expect: FxHashMap<IndexKey, Vec<TimeTag>> = FxHashMap::default();
                for tag in amem.wmes.iter_live() {
                    expect
                        .entry(wme_key(&idx.attrs, &self.wmes[&tag].wme))
                        .or_default()
                        .push(tag);
                }
                let got = idx.map.live_groups(|t, s| amem.wmes.seq_of(t) == Some(s));
                diff(format!("alpha index α{}[{}]", id.index(), i), expect, got)?;
            }
        }
        for (nid, node) in self.nodes.iter() {
            let (eq, members) = match node {
                BetaNode::Join {
                    parent,
                    eq: Some(eq),
                    ..
                } if eq.left.is_some() => {
                    // Skip excised joins: the parent no longer feeds them,
                    // so their (unreachable) index may lag behind.
                    if !self.nodes[*parent].children().contains(&nid) {
                        continue;
                    }
                    match &self.nodes[*parent] {
                        BetaNode::Memory { tokens, .. } => (eq, tokens.to_vec()),
                        _ => continue,
                    }
                }
                BetaNode::Negative {
                    eq: Some(eq),
                    tokens,
                    ..
                } => (eq, tokens.to_vec()),
                _ => continue,
            };
            let negative = matches!(node, BetaNode::Negative { .. });
            let mut expect: FxHashMap<IndexKey, Vec<TokId>> = FxHashMap::default();
            for tok in members {
                let root = if negative {
                    self.tokens.get(tok).unwrap().parent().unwrap()
                } else {
                    tok
                };
                expect
                    .entry(self.token_key(&eq.spec, root))
                    .or_default()
                    .push(tok);
            }
            let slab = &self.tokens;
            let got = eq
                .left
                .as_ref()
                .unwrap()
                .live_groups(|t, s| slab.get(t).is_some_and(|tk| tk.seq == s));
            diff(format!("left index of n{}", nid.index()), expect, got)?;
        }
        Ok(())
    }

    /// Every alpha-memory hash index.
    fn alpha_indexes(&self) -> impl Iterator<Item = &JoinIndex<TimeTag>> {
        self.amems
            .iter()
            .flat_map(|(_, am)| am.indexes.iter().map(|idx| &idx.map))
    }

    /// Every token list a beta-level node stores.
    fn token_lists(&self) -> impl Iterator<Item = &IndexedList<TokId>> {
        self.nodes.iter().filter_map(|(_, node)| match node {
            BetaNode::Memory { tokens, .. }
            | BetaNode::Negative { tokens, .. }
            | BetaNode::Production { tokens, .. } => Some(tokens),
            BetaNode::Join { .. } => None,
        })
    }

    /// Every left-input hash index (excised joins included: their index is
    /// unreachable but still allocated).
    fn left_indexes(&self) -> impl Iterator<Item = &JoinIndex<TokId>> {
        self.nodes.iter().filter_map(|(_, node)| match node {
            BetaNode::Join { eq, .. } | BetaNode::Negative { eq, .. } => {
                eq.as_ref().and_then(|e| e.left.as_ref())
            }
            _ => None,
        })
    }

    /// [`Matcher::memory_report`] recounted from the live state itself —
    /// every bucket, token, γ-entry and WME visited, no maintained count
    /// trusted. O(live state): the oracle behind [`Matcher::validate`],
    /// never a serving path.
    pub fn walk_memory_report(&self) -> MemoryReport {
        let mut counts = WmeTableCounts::default();
        for entry in self.wmes.values() {
            counts.add(WmeTableCounts::of(entry));
        }
        let wmes = self.wmes.len() as u64;
        seven_regions([
            total(self.amems.iter().map(|(_, am)| am.wmes.walk_bytes())),
            total(self.alpha_indexes().map(JoinIndex::walk_counts)),
            total(self.token_lists().map(IndexedList::walk_bytes)),
            total(self.left_indexes().map(JoinIndex::walk_counts)),
            self.tokens.walk_bytes(),
            gamma_region(self.productions.walk_gamma_counts()),
            (counts.bytes(wmes), wmes),
        ])
    }

    /// Check the maintained live-set counts against a fresh walk: every
    /// region of [`Matcher::memory_report`] must equal its recount, bytes
    /// and entries. Names the first region that diverged.
    fn validate_accounting(&self) -> Result<(), String> {
        let kept = self.memory_report();
        let walked = self.walk_memory_report();
        for (k, w) in kept.regions.iter().zip(&walked.regions) {
            if k != w {
                return Err(format!(
                    "memory accounting: region {} reports {} B / {} entries, \
                     a fresh walk finds {} B / {} entries",
                    k.name, k.bytes, k.entries, w.bytes, w.entries
                ));
            }
        }
        Ok(())
    }

    /// Check the blocker back-index both ways: every negative token's
    /// blocker names the entry of its WME's `blocked` list that names the
    /// token and the blocker's own position, and every `blocked` entry is
    /// such a blocker's partner.
    fn validate_blockers(&self) -> Result<(), String> {
        let mut pairs = 0usize;
        for (tok, token) in self.tokens.iter() {
            for (pos, b) in token.blockers().iter().enumerate() {
                let back = self
                    .wmes
                    .get(&b.tag)
                    .and_then(|e| e.blocked.get(b.at as usize));
                if back != Some(&(tok, pos as u32)) {
                    return Err(format!(
                        "blockers: {tok:?}'s blocker {pos} ({}) points at entry {} of its \
                         blocked list, which holds {back:?}",
                        b.tag, b.at
                    ));
                }
                pairs += 1;
            }
        }
        let listed: usize = self.wmes.values().map(|e| e.blocked.len()).sum();
        if listed != pairs {
            return Err(format!(
                "blockers: WMEs list {listed} blocked tokens, tokens hold {pairs} blockers"
            ));
        }
        Ok(())
    }

    /// Check the token tree's links ([`TokenSlab::validate_links`]), and
    /// that between operations no token is left outside it: every live
    /// token but the dummy top one hangs off its parent.
    fn validate_token_tree(&self) -> Result<(), String> {
        self.tokens.validate_links()?;
        let (linked, live) = (self.tokens.child_links(), self.tokens.live() as u64);
        if linked + 1 != live {
            return Err(format!(
                "token tree: {live} live tokens, {linked} of them linked under a parent \
                 (all but the top token should be)"
            ));
        }
        Ok(())
    }

    fn attach_successor(&mut self, amem: AMemId, node: NodeId) {
        // Deepest-first ordering: nodes are created top-down, so inserting
        // at the front keeps descendants ahead of ancestors.
        self.amems[amem].successors.insert(0, node);
    }

    /// Combined counters of every S-node in the network
    /// ([`Productions::soi_stats`]).
    pub fn soi_stats(&self) -> SoiStats {
        self.productions.soi_stats()
    }

    /// True when per-node profiling is enabled.
    pub(crate) fn profiling_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// Build the per-node profile: activation counts and self time from
    /// the [`SelfTimer`] (zeros when profiling was never enabled), current
    /// memory sizes, and rule attribution computed by walking each live
    /// production's chain upward.
    pub(crate) fn build_profile(&self) -> NetProfile {
        let timer = self.prof.as_ref();
        let mut node_rules: Vec<Vec<String>> = vec![Vec::new(); self.nodes.len()];
        let mut amem_rules: Vec<Vec<String>> = vec![Vec::new(); self.amems.len()];
        for (i, info) in self.prods.iter().enumerate().filter(|(_, p)| !p.excised) {
            let name = self.productions.rule(RuleId::new(i)).name.to_string();
            let mut cur = Some(info.pnode);
            while let Some(n) = cur {
                let rules = &mut node_rules[n.index()];
                if !rules.contains(&name) {
                    rules.push(name.clone());
                }
                cur = match &self.nodes[n] {
                    BetaNode::Join { parent, amem, .. }
                    | BetaNode::Negative { parent, amem, .. } => {
                        let ar = &mut amem_rules[amem.index()];
                        if !ar.contains(&name) {
                            ar.push(name.clone());
                        }
                        Some(*parent)
                    }
                    BetaNode::Memory { parent, .. } => *parent,
                    BetaNode::Production { parent, .. } => Some(*parent),
                };
            }
        }
        let mut nodes = Vec::new();
        for (id, amem) in self.amems.iter() {
            let i = id.index();
            let mut rules = amem_rules[i].clone();
            rules.sort();
            nodes.push(NodeProfile {
                id: format!("α{i}"),
                kind: "alpha",
                label: amem.key.class.to_string(),
                activations: timer.map_or(0, |t| t.activations(alpha_slot(id) as usize)),
                held: amem.wmes.len(),
                nanos: timer.map_or(0, |t| t.nanos(alpha_slot(id) as usize)),
                rules,
            });
        }
        for (id, node) in self.nodes.iter() {
            let i = id.index();
            let label = match node {
                BetaNode::Join { tests, eq, .. } => match eq {
                    Some(e) => {
                        let attrs: Vec<String> = e.attrs.iter().map(|a| format!("^{a}")).collect();
                        format!("{} tests [idx: {}]", tests.len(), attrs.join(" "))
                    }
                    None => format!("{} tests", tests.len()),
                },
                BetaNode::Negative { tests, .. } => format!("{} tests", tests.len()),
                BetaNode::Production { prod, .. } => {
                    let rule = RuleId::new(prod.index());
                    let name = self.productions.rule(rule).name;
                    match self.productions.soi_count(rule) {
                        Some(n) => format!("{name} [S-node |{n}| SOIs]"),
                        None => name.to_string(),
                    }
                }
                BetaNode::Memory { .. } => String::new(),
            };
            let mut rules = node_rules[i].clone();
            rules.sort();
            nodes.push(NodeProfile {
                id: format!("n{i}"),
                kind: node.kind_label(),
                label,
                activations: timer.map_or(0, |t| t.activations(beta_slot(id) as usize)),
                held: node.held(),
                nanos: timer.map_or(0, |t| t.nanos(beta_slot(id) as usize)),
                rules,
            });
        }
        NetProfile {
            algorithm: self.algorithm_name().to_string(),
            nodes,
        }
    }

    /// The static chain from the top memory down to `rule`'s production
    /// node, one description per node (see `Matcher::rule_network_path`).
    pub fn network_path(&self, rule: RuleId) -> Option<Vec<String>> {
        let info = self.prods.get(rule.index())?;
        if info.excised {
            return None;
        }
        let name = self.productions.rule(rule).name;
        let snode = self.productions.soi_count(rule).is_some();
        let mut steps = Vec::new();
        let mut cur = Some(info.pnode);
        while let Some(n) = cur {
            let step = match &self.nodes[n] {
                BetaNode::Memory { parent: None, .. } => {
                    cur = None;
                    format!("top n{}", n.index())
                }
                BetaNode::Memory { parent, .. } => {
                    cur = *parent;
                    format!("memory n{}", n.index())
                }
                BetaNode::Join {
                    parent, amem, eq, ..
                } => {
                    let s = format!(
                        "join n{} (α{} {}){}",
                        n.index(),
                        amem.index(),
                        self.amems[*amem].key.class,
                        if eq.is_some() { " [indexed]" } else { "" }
                    );
                    cur = Some(*parent);
                    s
                }
                BetaNode::Negative {
                    parent, amem, eq, ..
                } => {
                    let s = format!(
                        "negative n{} (α{} {}){}",
                        n.index(),
                        amem.index(),
                        self.amems[*amem].key.class,
                        if eq.is_some() { " [indexed]" } else { "" }
                    );
                    cur = Some(*parent);
                    s
                }
                BetaNode::Production { parent, .. } => {
                    cur = Some(*parent);
                    if snode {
                        format!("production {name} (S-node)")
                    } else {
                        format!("production {name}")
                    }
                }
            };
            steps.push(step);
        }
        steps.reverse();
        Some(steps)
    }
}

impl Matcher for ReteMatcher {
    fn add_rule(&mut self, rule: Arc<AnalyzedRule>) -> RuleId {
        self.building = true;
        let prod_id = ProdId::new(self.prods.len());

        // Positive-CE index → CE-order index, for compiling `ups`.
        let mut pos2ce: Vec<usize> = Vec::with_capacity(rule.num_pos);
        for (ce_idx, ce) in rule.ces.iter().enumerate() {
            if ce.pos_idx.is_some() {
                pos2ce.push(ce_idx);
            }
        }

        let mut current = self.top;
        for (ce_idx, ce) in rule.ces.iter().enumerate() {
            let key = AlphaKey {
                class: ce.class,
                consts: ce.const_tests.clone(),
                intras: ce.intra_tests.clone(),
            };
            let amem = self.get_or_create_amem(key);
            let tests: Vec<CompiledTest> = ce
                .var_joins
                .iter()
                .map(|vj| CompiledTest {
                    attr: vj.attr,
                    pred: vj.pred,
                    ups: (ce_idx - 1) - pos2ce[vj.other_pos_ce],
                    other_attr: vj.other_attr,
                })
                .collect();

            if ce.negated {
                current = match self.find_shared_negative(current, amem, &tests) {
                    Some(n) => n,
                    None => {
                        let eq = if self.indexing {
                            self.build_eq(amem, current, &tests, true)
                        } else {
                            None
                        };
                        let n = self.nodes.alloc(BetaNode::Negative {
                            parent: current,
                            amem,
                            tests,
                            eq,
                            tokens: IndexedList::new(),
                            children: Vec::new(),
                            depth: ce_idx as u32,
                        });
                        self.nodes[current].push_child(n);
                        self.attach_successor(amem, n);
                        // Replay tokens already present upstream (the dummy
                        // top token, and tokens of earlier negative levels)
                        // so the new node owns its share of the match state.
                        for t in self.present_tokens(current) {
                            self.left_activate(n, t, None);
                        }
                        n
                    }
                };
            } else {
                let join = match self.find_shared_join(current, amem, &tests) {
                    Some(j) => j,
                    None => {
                        let eq = if self.indexing {
                            self.build_eq(amem, current, &tests, false)
                        } else {
                            None
                        };
                        let j = self.nodes.alloc(BetaNode::Join {
                            parent: current,
                            amem,
                            tests,
                            eq,
                            children: Vec::new(),
                            depth: ce_idx as u32,
                        });
                        self.nodes[current].push_child(j);
                        self.attach_successor(amem, j);
                        // Every join owns exactly one output memory.
                        let m = self.nodes.alloc(BetaNode::Memory {
                            parent: Some(j),
                            tokens: IndexedList::new(),
                            children: Vec::new(),
                        });
                        self.nodes[j].push_child(m);
                        // Update-new-node: replay the upstream tokens
                        // against the (pre-populated) alpha memory so the
                        // new node picks up existing working memory.
                        for t in self.present_tokens(current) {
                            self.activate_from_memory(j, t);
                        }
                        j
                    }
                };
                // The join's memory is its first child.
                current = self.nodes[join].children()[0];
            }
        }

        let pnode = self.nodes.alloc(BetaNode::Production {
            parent: current,
            prod: prod_id,
            tokens: IndexedList::new(),
        });
        self.nodes[current].push_child(pnode);
        // A purely-negative LHS is already satisfied by the dummy token.
        let replay: Vec<TokId> = match &self.nodes[current] {
            BetaNode::Memory { .. } | BetaNode::Negative { .. } => self.present_tokens(current),
            _ => Vec::new(),
        };
        // Register the production before replaying so activations resolve.
        let rule_id = self.productions.add_rule(rule);
        debug_assert_eq!(rule_id.index(), prod_id.index());
        self.prods.push(ProdInfo {
            pnode,
            excised: false,
        });
        for t in replay {
            self.left_activate(pnode, t, None);
        }
        self.building = false;
        rule_id
    }

    fn insert_wme(&mut self, wme: &Wme) {
        let tag = wme.tag;
        debug_assert!(!self.wmes.contains_key(&tag), "duplicate time tag {tag}");
        // Phase 1: alpha — add to every matching memory first, so that
        // deeper joins activated later see the WME in their right input.
        let mut matched: Vec<AMemId> = Vec::new();
        if let Some(cands) = self.class_index.get(&wme.class) {
            for &a in cands {
                if self.amems[a].key.matches(wme.class, |attr| wme.get(attr)) {
                    matched.push(a);
                }
            }
        }
        // `matched` moves into the entry once the activations below are
        // done with it; nothing reads the back-references before then.
        let entry = WmeEntry {
            wme: wme.clone(),
            amems: Vec::new(),
            tokens: Vec::new(),
            blocked: Vec::new(),
        };
        self.wme_counts.add(WmeTableCounts::of(&entry));
        self.wmes.insert(tag, entry);
        for &a in &matched {
            self.stats.alpha_activations += 1;
            self.prof_enter(alpha_slot(a));
            self.amems[a].insert_wme(tag, wme);
            self.prof_exit();
            self.tracer.emit(|| TraceEvent::AlphaActivation {
                node: a.index() as u32,
                tag,
                insert: true,
            });
        }
        // Phase 2: right activations, globally deepest-first.
        let mut acts: Vec<(u32, NodeId)> = Vec::new();
        for &a in &matched {
            for &succ in &self.amems[a].successors {
                let depth = match &self.nodes[succ] {
                    BetaNode::Join { depth, .. } | BetaNode::Negative { depth, .. } => *depth,
                    _ => 0,
                };
                acts.push((depth, succ));
            }
        }
        acts.sort_by_key(|&(depth, _)| std::cmp::Reverse(depth));
        for (_, node) in acts {
            self.right_activate(node, tag);
        }
        self.wme_counts.amems += matched.len() as u64;
        self.wmes.get_mut(&tag).expect("inserted above").amems = matched;
    }

    fn remove_rule(&mut self, rule: RuleId) {
        let pi = rule.index();
        if self.prods[pi].excised {
            return;
        }
        self.prods[pi].excised = true;
        let pnode = self.prods[pi].pnode;
        // Retract the production's current matches (emits `-` deltas; for
        // set-oriented rules the S-node drains its γ-memory through the
        // usual remove path).
        let toks: Vec<TokId> = match &self.nodes[pnode] {
            BetaNode::Production { tokens, .. } => tokens.to_vec(),
            _ => unreachable!("pnode is a production"),
        };
        for t in toks {
            self.delete_token(t);
        }
        // Unlink the unshared tail of the chain, bottom-up, stopping at the
        // first node other rules still use.
        let mut node = pnode;
        loop {
            let parent = match &self.nodes[node] {
                BetaNode::Memory { parent, .. } => *parent,
                BetaNode::Join { parent, .. }
                | BetaNode::Negative { parent, .. }
                | BetaNode::Production { parent, .. } => Some(*parent),
            };
            // Drop any remaining tokens this node stores (inert partials).
            let stored: Vec<TokId> = match &self.nodes[node] {
                BetaNode::Memory { tokens, .. }
                | BetaNode::Negative { tokens, .. }
                | BetaNode::Production { tokens, .. } => tokens.to_vec(),
                BetaNode::Join { .. } => Vec::new(),
            };
            for t in stored {
                self.delete_token(t);
            }
            // Detach from the alpha network.
            if let BetaNode::Join { amem, .. } | BetaNode::Negative { amem, .. } = &self.nodes[node]
            {
                let amem = *amem;
                self.amems[amem].successors.retain(|&s| s != node);
            }
            let Some(p) = parent else { break };
            self.nodes[p].remove_child(node);
            // A parent still feeding other children (or the top memory) is
            // shared — stop unlinking there.
            if !self.nodes[p].children().is_empty()
                || matches!(&self.nodes[p], BetaNode::Memory { parent: None, .. })
            {
                break;
            }
            node = p;
        }
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let tag = wme.tag;
        // The entry is dropped at the end, so its lists are taken out, not
        // copied. It stays in the table (attributes resolvable) until all
        // S-node removals ran.
        let Some(entry) = self.wmes.get_mut(&tag) else {
            debug_assert!(false, "removing unknown WME {tag}");
            return;
        };
        let amems = std::mem::take(&mut entry.amems);
        let toks = std::mem::take(&mut entry.tokens);
        self.wme_counts.amems -= amems.len() as u64;
        self.wme_counts.token_refs -= toks.len() as u64;
        for a in amems {
            self.prof_enter(alpha_slot(a));
            self.amems[a].remove_wme(tag, wme);
            self.prof_exit();
            self.tracer.emit(|| TraceEvent::AlphaActivation {
                node: a.index() as u32,
                tag,
                insert: false,
            });
        }
        // Delete every token built on this WME (cascades to descendants;
        // one already gone with an earlier cascade is skipped).
        for t in toks {
            self.delete_token(t);
        }
        // Unblock negative tokens this WME was blocking.
        let blocked = self
            .wmes
            .get_mut(&tag)
            .map(|e| std::mem::take(&mut e.blocked))
            .unwrap_or_default();
        self.wme_counts.blocked -= blocked.len() as u64;
        for (t, pos) in blocked {
            let (unblocked, moved) = self.tokens.remove_join_result(t, pos, tag);
            if let Some(b) = moved {
                // The token's last blocker took the freed slot.
                if let Some(e) = self.wmes.get_mut(&b.tag) {
                    e.blocked[b.at as usize].1 = pos;
                }
            }
            if unblocked {
                // The absence test passes again: resume downstream.
                let node = self.tokens.get(t).expect("just unblocked").node;
                for i in 0..self.nodes[node].children().len() {
                    let c = self.nodes[node].children()[i];
                    self.activate_from_memory(c, t);
                }
            }
        }
        if let Some(entry) = self.wmes.remove(&tag) {
            self.wme_counts.sub(WmeTableCounts::of(&entry));
        }
    }

    fn drain_deltas_into(&mut self, out: &mut Vec<CsDelta>) {
        self.productions.drain_into(&wme_lookup(&self.wmes), out);
    }

    fn materialize(&self, key: &InstKey) -> Option<ConflictItem> {
        self.productions.materialize(key)
    }

    fn stats(&self) -> MatchStats {
        let mut s = self.stats;
        self.soi_stats().merge_into(&mut s);
        s
    }

    fn algorithm_name(&self) -> &'static str {
        if self.indexing {
            "rete"
        } else {
            "rete-scan"
        }
    }

    fn validate(&self) -> Result<(), String> {
        self.validate_indexes()?;
        self.validate_token_tree()?;
        self.validate_blockers()?;
        self.validate_accounting()
    }

    fn to_dot(&self) -> Option<String> {
        Some(self.network_dot())
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.productions.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    fn set_profiling(&mut self, on: bool) {
        self.prof = on.then(SelfTimer::new);
    }

    fn profile(&self) -> Option<NetProfile> {
        self.prof.as_ref()?;
        Some(self.build_profile())
    }

    fn rule_network_path(&self, rule: RuleId) -> Option<Vec<String>> {
        self.network_path(rule)
    }

    fn memory_report(&self) -> MemoryReport {
        // Every figure is a maintained count times an element size: the
        // cost is one add per network node, whatever the working memory
        // holds. `walk_memory_report` is the recount this must equal.
        let wmes = self.wmes.len() as u64;
        seven_regions([
            total(
                self.amems
                    .iter()
                    .map(|(_, am)| (am.wmes.approx_bytes(), am.wmes.len() as u64)),
            ),
            total(
                self.alpha_indexes()
                    .map(|idx| (idx.approx_bytes(), idx.live_entry_count())),
            ),
            total(
                self.token_lists()
                    .map(|list| (list.approx_bytes(), list.len() as u64)),
            ),
            total(
                self.left_indexes()
                    .map(|idx| (idx.approx_bytes(), idx.live_entry_count())),
            ),
            (self.tokens.approx_bytes(), self.tokens.live() as u64),
            gamma_region(self.productions.gamma_counts()),
            (self.wme_counts.bytes(wmes), wmes),
        ])
    }

    fn metric_counters(&self, out: &mut Vec<(&'static str, u64)>) {
        out.extend(self.soi_stats().metric_counters());
    }
}

impl ReteMatcher {
    // ------------------------------------------------------- activations

    /// A WME entered `node`'s alpha memory.
    fn right_activate(&mut self, node: NodeId, tag: TimeTag) {
        self.charge_beta();
        self.trace_beta(node);
        self.prof_enter(beta_slot(node));
        // Read phase: under a shared borrow, pick the candidate left tokens
        // — a hash-bucket probe when the node has an equality plan with a
        // left index, the classic full scan otherwise — plus the tests
        // still to run on them (residual only after a probe).
        enum Plan {
            Join {
                cands: Vec<TokId>,
                tests: Vec<CompiledTest>,
                children: Vec<NodeId>,
            },
            Negative {
                cands: Vec<TokId>,
                tests: Vec<CompiledTest>,
            },
        }
        let mut probed: Option<(u64, u64, u64)> = None; // (n_eq, total, hits)
        let plan = match &self.nodes[node] {
            BetaNode::Join {
                parent,
                tests,
                eq,
                children,
                ..
            } => {
                let (cands, tests) = match eq {
                    Some(e) if e.left.is_some() => {
                        let key = wme_key(&e.attrs, &self.wmes[&tag].wme);
                        let slab = &self.tokens;
                        let cands = e
                            .left
                            .as_ref()
                            .unwrap()
                            .probe(&key, |t, s| slab.get(t).is_some_and(|tk| tk.seq == s));
                        let total = match &self.nodes[*parent] {
                            BetaNode::Memory { tokens, .. } => tokens.len() as u64,
                            _ => unreachable!("left-indexed joins hang off memories"),
                        };
                        probed = Some((e.attrs.len() as u64, total, cands.len() as u64));
                        (cands, e.residual.clone())
                    }
                    _ => (self.present_tokens(*parent), tests.clone()),
                };
                Plan::Join {
                    cands,
                    tests,
                    children: children.clone(),
                }
            }
            BetaNode::Negative {
                tokens, tests, eq, ..
            } => {
                // Indexed: only tokens whose parent chains carry the
                // WME's equality values can be affected.
                let (cands, tests) = match eq {
                    Some(e) => {
                        let key = wme_key(&e.attrs, &self.wmes[&tag].wme);
                        let slab = &self.tokens;
                        let cands = e
                            .left
                            .as_ref()
                            .expect("negatives always index their own tokens")
                            .probe(&key, |t, s| slab.get(t).is_some_and(|tk| tk.seq == s));
                        probed = Some((
                            e.attrs.len() as u64,
                            tokens.len() as u64,
                            cands.len() as u64,
                        ));
                        (cands, e.residual.clone())
                    }
                    None => (tokens.to_vec(), tests.clone()),
                };
                Plan::Negative { cands, tests }
            }
            _ => unreachable!("only joins and negatives are alpha successors"),
        };
        if let Some((n_eq, total, hits)) = probed {
            self.charge_probe(n_eq, total, hits);
            self.tracer.emit(|| TraceEvent::JoinProbe {
                node: node.index() as u32,
                hits,
                scanned: total,
            });
        }
        // Act phase.
        match plan {
            Plan::Join {
                cands,
                tests,
                children,
            } => {
                for t in cands {
                    if self.eval_tests(&tests, t, tag) {
                        for &c in &children {
                            self.left_activate(c, t, Some(tag));
                        }
                    }
                }
            }
            Plan::Negative { cands, tests } => {
                for tk in cands {
                    let Some(token) = self.tokens.get(tk) else {
                        continue;
                    };
                    let left = token.parent().expect("negative tokens have parents");
                    if self.eval_tests(&tests, left, tag) {
                        let entry = self.wmes.get_mut(&tag).unwrap();
                        let at = entry.blocked.len() as u32;
                        let (was_empty, pos) =
                            self.tokens.push_join_result(tk, Blocker { tag, at });
                        push_blocker_entry(&mut entry.blocked, (tk, pos));
                        self.wme_counts.blocked += 1;
                        if was_empty {
                            // Newly blocked: retract everything below.
                            while let Some(c) = self.tokens.pop_child(tk) {
                                self.delete_subtree(c);
                            }
                        }
                    }
                }
            }
        }
        self.prof_exit();
    }

    /// A token (plus optional WME) flows into `node` from its left input.
    fn left_activate(&mut self, node: NodeId, parent_tok: TokId, wme: Option<TimeTag>) {
        self.charge_beta();
        self.trace_beta(node);
        self.prof_enter(beta_slot(node));
        match &self.nodes[node] {
            BetaNode::Memory { .. } => {
                let tok = self.make_token(node, parent_tok, wme);
                let children: Vec<NodeId> = self.nodes[node].children().to_vec();
                if let BetaNode::Memory { tokens, .. } = &mut self.nodes[node] {
                    tokens.push(tok);
                }
                // Register with child joins' left-input indexes *before*
                // activating, so the cascade sees a consistent memory.
                self.index_left_token(&children, tok);
                for c in children {
                    self.activate_from_memory(c, tok);
                }
            }
            BetaNode::Join { .. } => {
                // Joins receive left activations via `activate_from_memory`.
                unreachable!("join nodes take tokens from their parent memory");
            }
            BetaNode::Negative { .. } => {
                let (amem, tests, plan) = match &self.nodes[node] {
                    BetaNode::Negative {
                        amem, tests, eq, ..
                    } => (
                        *amem,
                        tests.clone(),
                        eq.as_ref().map(|e| {
                            (
                                e.spec.clone(),
                                e.residual.clone(),
                                e.alpha,
                                e.attrs.len() as u64,
                            )
                        }),
                    ),
                    _ => unreachable!(),
                };
                let tok = self.make_token(node, parent_tok, wme);
                let seq = self.tokens.get(tok).unwrap().seq;
                let left = parent_tok;
                // Compute the negative join results — through the alpha
                // index when an equality plan exists (the same key also
                // registers the token in the node's own index, for future
                // right activations).
                let (candidates, tests) = match &plan {
                    Some((spec, residual, alpha, n_eq)) => {
                        let key = self.token_key(spec, left);
                        if let BetaNode::Negative {
                            tokens,
                            eq: Some(eq),
                            ..
                        } = &mut self.nodes[node]
                        {
                            tokens.push(tok);
                            eq.left.as_mut().unwrap().insert(key.clone(), tok, seq);
                        }
                        let total = self.amems[amem].wmes.len() as u64;
                        let cands = self.amems[amem].probe(*alpha, &key);
                        self.charge_probe(*n_eq, total, cands.len() as u64);
                        let hits = cands.len() as u64;
                        self.tracer.emit(|| TraceEvent::JoinProbe {
                            node: node.index() as u32,
                            hits,
                            scanned: total,
                        });
                        (cands, residual.clone())
                    }
                    None => {
                        if let BetaNode::Negative { tokens, .. } = &mut self.nodes[node] {
                            tokens.push(tok);
                        }
                        (self.amems[amem].wmes.to_vec(), tests)
                    }
                };
                let mut results = Vec::new();
                for w in candidates {
                    if self.eval_tests(&tests, left, w) {
                        let entry = self.wmes.get_mut(&w).unwrap();
                        let at = entry.blocked.len() as u32;
                        push_blocker_entry(&mut entry.blocked, (tok, results.len() as u32));
                        push_blocker_entry(&mut results, Blocker { tag: w, at });
                    }
                }
                self.wme_counts.blocked += results.len() as u64;
                let pass = results.is_empty();
                self.tokens.set_join_results(tok, results);
                if pass {
                    let children: Vec<NodeId> = self.nodes[node].children().to_vec();
                    for c in children {
                        self.activate_from_memory(c, tok);
                    }
                }
            }
            BetaNode::Production { prod, .. } => {
                let prod = *prod;
                let tok = self.make_token(node, parent_tok, wme);
                if let BetaNode::Production { tokens, .. } = &mut self.nodes[node] {
                    tokens.push(tok);
                }
                self.hand_over(prod, wme, Some(parent_tok), true);
            }
        }
        self.prof_exit();
    }

    /// A token was added to a Memory/Negative; push it through child `node`.
    fn activate_from_memory(&mut self, node: NodeId, tok: TokId) {
        match &self.nodes[node] {
            BetaNode::Join { .. } => {
                let (amem, tests, children, plan) = match &self.nodes[node] {
                    BetaNode::Join {
                        amem,
                        tests,
                        eq,
                        children,
                        ..
                    } => (
                        *amem,
                        tests.clone(),
                        children.clone(),
                        eq.as_ref().map(|e| {
                            (
                                e.spec.clone(),
                                e.residual.clone(),
                                e.alpha,
                                e.attrs.len() as u64,
                            )
                        }),
                    ),
                    _ => unreachable!(),
                };
                self.charge_beta();
                self.trace_beta(node);
                self.prof_enter(beta_slot(node));
                // Indexed: hash the token's equality values into the alpha
                // memory's bucket; scan otherwise.
                let (wmes, tests) = match plan {
                    Some((spec, residual, alpha, n_eq)) => {
                        let key = self.token_key(&spec, tok);
                        let total = self.amems[amem].wmes.len() as u64;
                        let cands = self.amems[amem].probe(alpha, &key);
                        self.charge_probe(n_eq, total, cands.len() as u64);
                        let hits = cands.len() as u64;
                        self.tracer.emit(|| TraceEvent::JoinProbe {
                            node: node.index() as u32,
                            hits,
                            scanned: total,
                        });
                        (cands, residual)
                    }
                    None => (self.amems[amem].wmes.to_vec(), tests),
                };
                for w in wmes {
                    if self.eval_tests(&tests, tok, w) {
                        for &c in &children {
                            self.left_activate(c, tok, Some(w));
                        }
                    }
                }
                self.prof_exit();
            }
            BetaNode::Negative { .. } | BetaNode::Production { .. } => {
                self.left_activate(node, tok, None);
            }
            BetaNode::Memory { .. } => unreachable!("memories are not memory children"),
        }
    }

    /// Tokens of a Memory, or *unblocked* tokens of a Negative.
    fn present_tokens(&self, node: NodeId) -> Vec<TokId> {
        match &self.nodes[node] {
            BetaNode::Memory { tokens, .. } => tokens.to_vec(),
            BetaNode::Negative { tokens, .. } => tokens
                .iter_live()
                .filter(|&t| {
                    self.tokens
                        .get(t)
                        .is_some_and(|tk| tk.blockers().is_empty())
                })
                .collect(),
            _ => unreachable!("only memories and negatives store left tokens"),
        }
    }

    fn make_token(&mut self, node: NodeId, parent: TokId, wme: Option<TimeTag>) -> TokId {
        if !self.building {
            self.stats.tokens_created += 1;
        }
        let seq = self.next_token_seq;
        self.next_token_seq += 1;
        let tok = self.tokens.alloc(Token::new(Some(parent), wme, node, seq));
        self.tokens.push_child(parent, tok);
        if let Some(w) = wme {
            self.wmes.get_mut(&w).unwrap().tokens.push(tok);
            self.wme_counts.token_refs += 1;
        }
        tok
    }

    /// Evaluate compiled join tests between the token chain rooted at
    /// `left` (level = CE before the node's) and the WME `tag`.
    fn eval_tests(&mut self, tests: &[CompiledTest], left: TokId, tag: TimeTag) -> bool {
        let wme = &self.wmes[&tag].wme;
        for t in tests {
            if !self.building {
                self.stats.join_tests += 1;
            }
            let mut cur = left;
            for _ in 0..t.ups {
                cur = self.tokens.get(cur).unwrap().parent().unwrap();
            }
            let other_tag = self
                .tokens
                .get(cur)
                .unwrap()
                .wme
                .expect("join test must reference a positive CE");
            let other = &self.wmes[&other_tag].wme;
            if !t.pred.apply(&wme.get(t.attr), &other.get(t.other_attr)) {
                return false;
            }
        }
        true
    }

    /// Delete a token and all its descendants (post-order).
    fn delete_token(&mut self, tok: TokId) {
        self.tokens.remove_child(tok);
        self.delete_subtree(tok);
    }

    /// [`Self::delete_token`] for a token already out of its parent's
    /// child list: the cascade pops each child off its parent, so nothing
    /// below the root of a deletion pays for an unlink of its own.
    fn delete_subtree(&mut self, tok: TokId) {
        while let Some(c) = self.tokens.pop_child(tok) {
            self.delete_subtree(c);
        }
        let Some(token) = self.tokens.release(tok) else {
            return;
        };
        self.stats.tokens_deleted += 1;
        // Unregister from the owning node's memory (O(1) tombstone).
        match &mut self.nodes[token.node] {
            BetaNode::Memory { tokens, .. }
            | BetaNode::Negative { tokens, .. }
            | BetaNode::Production { tokens, .. } => tokens.remove(tok),
            BetaNode::Join { .. } => unreachable!("joins store no tokens"),
        };
        // Tombstone the token's hash-index entries. The key is recomputed
        // from the released token's chain (ancestors outlive descendants),
        // so only the one affected bucket is touched.
        match &self.nodes[token.node] {
            // The child joins' left indexes reference the token. (Negative
            // children index their own tokens, not the memory's.)
            BetaNode::Memory { .. } => {
                for i in 0..self.nodes[token.node].children().len() {
                    let c = self.nodes[token.node].children()[i];
                    if let BetaNode::Join { eq: Some(eq), .. } = &self.nodes[c] {
                        if eq.left.is_some() {
                            let key = self.released_token_key(&eq.spec, &token);
                            self.tombstone_left_index(c, &key);
                        }
                    }
                }
            }
            // A Negative indexes its own tokens, keyed off the *parent*
            // chain.
            BetaNode::Negative { eq: Some(eq), .. } => {
                let key = self.token_key(&eq.spec, token.parent().expect("non-top token"));
                self.tombstone_left_index(token.node, &key);
            }
            _ => {}
        }
        // Unregister from the WME back-references.
        if let Some(w) = token.wme {
            if let Some(entry) = self.wmes.get_mut(&w) {
                if let Some(pos) = entry.tokens.iter().position(|&t| t == tok) {
                    entry.tokens.swap_remove(pos);
                    self.wme_counts.token_refs -= 1;
                }
            }
        }
        for b in token.blockers() {
            let Some(entry) = self.wmes.get_mut(&b.tag) else {
                continue;
            };
            let at = b.at as usize;
            if entry.blocked.get(at).map(|&(t, _)| t) != Some(tok) {
                // The WME is mid-removal and already let go of its list.
                debug_assert!(entry.blocked.is_empty(), "stale back-index of {tok:?}");
                continue;
            }
            entry.blocked.swap_remove(at);
            self.wme_counts.blocked -= 1;
            // Another token's entry took the freed slot.
            if let Some(&(moved, pos)) = entry.blocked.get(at) {
                self.tokens.set_blocker_at(moved, pos, b.at);
            }
        }
        // Production terminal: report the retraction.
        if let BetaNode::Production { prod, .. } = &self.nodes[token.node] {
            self.hand_over(*prod, token.wme, token.parent(), false);
        }
    }

    /// Note a just-released token dead in the left-input index of `node`,
    /// under the bucket `key`.
    fn tombstone_left_index(&mut self, node: NodeId, key: &IndexKey) {
        let slab = &self.tokens;
        if let BetaNode::Join { eq: Some(eq), .. } | BetaNode::Negative { eq: Some(eq), .. } =
            &mut self.nodes[node]
        {
            if let Some(left) = eq.left.as_mut() {
                left.note_dead(key, |t, s| slab.get(t).is_some_and(|tk| tk.seq == s));
            }
        }
    }

    // ------------------------------------------------------ productions

    /// Hand the row of a production token — its WME `wme` after those of
    /// the chain from `parent`, in positive-CE order — to the production
    /// layer, as a `+` (`insert`) or a `-`. A departing token may already
    /// be released: its ancestors outlive it during post-order deletion.
    fn hand_over(
        &mut self,
        prod: ProdId,
        wme: Option<TimeTag>,
        parent: Option<TokId>,
        insert: bool,
    ) {
        let mut row = std::mem::take(&mut self.row_buf);
        row.clear();
        row.extend(wme);
        let mut cur = parent;
        while let Some(id) = cur {
            let t = self.tokens.get(id).expect("ancestors outlive descendants");
            row.extend(t.wme);
            cur = t.parent();
        }
        row.reverse();
        let lookup = wme_lookup(&self.wmes);
        self.productions
            .row(RuleId::new(prod.index()), &row, insert, &lookup);
        self.row_buf = row;
    }
}

/// Resolve `(tag, attr)` in the WME table, `nil` for a WME already gone.
fn wme_lookup(wmes: &FxHashMap<TimeTag, WmeEntry>) -> impl Fn(TimeTag, Symbol) -> Value + '_ {
    move |t, a| wmes.get(&t).map_or(Value::Nil, |e| e.wme.get(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_lang::{analyze_rule, parse_rule};

    /// `validate()` is the only thing standing between a missed counter
    /// update and silently wrong byte budgets: a count that drifts from the
    /// live state must fail it, naming the region.
    #[test]
    fn validate_names_the_region_whose_count_drifted() {
        let mut m = ReteMatcher::new();
        let rule = "(p pair (a ^x <v>) -(b ^x <v>) (halt))";
        m.add_rule(Arc::new(analyze_rule(&parse_rule(rule).unwrap()).unwrap()));
        for (tag, class) in [(1, "a"), (2, "b")] {
            m.insert_wme(&Wme::new(
                TimeTag::new(tag),
                Symbol::new(class),
                vec![(Symbol::new("x"), Value::Int(1))],
            ));
        }
        m.validate()
            .expect("counts match the walk before the drift");

        m.wme_counts.token_refs += 1;
        let err = m.validate().unwrap_err();
        assert!(err.contains("region wme_table"), "{}", err);
    }

    /// Unblocking finds the departing blocker through the back-index, and
    /// the last blocker moves into its slot (`swap_remove`), so blocker
    /// order is what the linear scan left. `validate()` checks both ends.
    #[test]
    fn blocker_back_index_survives_swap_removal_and_names_a_break() {
        let mut m = ReteMatcher::new();
        let rule = "(p lone (a ^x <v>) -(b ^y <v>) (halt))";
        m.add_rule(Arc::new(analyze_rule(&parse_rule(rule).unwrap()).unwrap()));
        let wme = |tag: u64, class: &str, attr: &str| {
            Wme::new(
                TimeTag::new(tag),
                Symbol::new(class),
                vec![(Symbol::new(attr), Value::Int(1))],
            )
        };
        let bs: Vec<Wme> = (2..7).map(|t| wme(t, "b", "y")).collect();
        m.insert_wme(&wme(1, "a", "x"));
        for b in &bs {
            m.insert_wme(b);
        }
        m.validate().unwrap();
        let neg = m
            .tokens
            .iter()
            .find(|(_, t)| !t.blockers().is_empty())
            .map(|(id, _)| id)
            .unwrap();
        let order = |m: &ReteMatcher| -> Vec<u64> {
            let t = m.tokens.get(neg).unwrap();
            t.blockers().iter().map(|b| b.tag.raw()).collect()
        };
        assert_eq!(order(&m), [2, 3, 4, 5, 6]);
        m.remove_wme(&bs[1]);
        assert_eq!(order(&m), [2, 6, 4, 5], "the last blocker fills the gap");
        m.validate().unwrap();
        m.remove_wme(&bs[0]);
        assert_eq!(order(&m), [5, 6, 4]);
        m.validate().unwrap();

        m.wmes.get_mut(&TimeTag::new(6)).unwrap().blocked[0].1 = 2;
        let err = m.validate().unwrap_err();
        assert!(err.contains("blockers"), "{}", err);
    }
}
