//! The S-node algorithm — Figure 3 of the paper, settled once per drain.
//!
//! An S-node sits after the last test node of a set-oriented rule. Its
//! γ-memory holds one entry per *candidate set-oriented instantiation*
//! (SOI); each entry is the paper's `(Tokens, Status, AV)` triple. Tokens
//! arriving from the join network (complete candidate instantiations, i.e.
//! rows of matched WME tags) are processed in three stages:
//!
//! 1. **Find the SOI and the place within it** — locate the γ-entry whose
//!    key (scalar-CE tags `C` + scalar-PV values `P`) matches the token and
//!    insert/remove the token at its conflict-set-ordered position.
//! 2. **Update the aggregates** — incrementally maintain `APVs`/`ACEs`
//!    (skipped for the token that empties an entry, per the figure).
//! 3. **Decide the flow of the SOI** — evaluate the test expression `T`
//!    and emit `+`, `-` or `time` tokens to the production node.
//!
//! Stages 1–2 run per token ([`SNode::insert_row`] / [`SNode::remove_row`]),
//! which only mark the SOI dirty. Stage 3 runs once per dirty SOI per
//! drain ([`SNode::settle`], called from the matcher's `drain_deltas`): a
//! set-oriented firing that moves 2 000 rows of one SOI is one transition,
//! not 2 000. Settling compares the SOI's status at the last drain with
//! its state now:
//!
//! | active at last drain | now                         | flow            |
//! |----------------------|-----------------------------|-----------------|
//! | no                   | test fails, or gone         | nothing         |
//! | no                   | test passes                 | `+`             |
//! | yes                  | test fails, or gone         | `-`             |
//! | yes                  | emptied since, test passes  | `-` then `+`    |
//! | yes                  | test passes                 | one `time`      |
//!
//! An entry emptied since the last drain is a fresh instantiation when it
//! fills again: its aggregates and `version` restart, and the conflict set
//! must drop the old incarnation (and its refraction) first. When every
//! token is its own drain — an API-level WM change that touches an SOI
//! once — the table reduces to the figure's per-token flow, with two
//! documented extensions to the figure as printed:
//!
//! - a previously **inactive** entry whose test now passes activates the
//!   SOI whatever the token's position (the figure only activates on
//!   `new-time`; without this, a count crossing its threshold via a
//!   non-head token would never reach the conflict set);
//! - an **active** entry that changed emits a `time` token, so the
//!   conflict set learns the SOI changed and may fire it again (§6).
//!   Like the paper's pointer-shared SOI ("updates to an active SOI …
//!   transparently update the SOI in the conflict set"), `time` tokens are
//!   slim: consumers re-materialize the SOI's rows only when it fires.

use crate::aggregate::AggState;
use sorete_base::{
    ConflictItem, CsDelta, FxHashMap, InstKey, KeyPart, MatchStats, RetimeInfo, RuleId, Symbol,
    TimeTag, TraceEvent, Tracer, Value,
};
use sorete_lang::analyze::AnalyzedRule;
use sorete_lang::ast::AggOp;
use sorete_lang::eval::{eval_truthy, Env};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

/// Work counters for one S-node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SoiStats {
    /// Tokens processed (S-node activations).
    pub activations: u64,
    /// Incremental aggregate multiset updates.
    pub aggregate_updates: u64,
    /// Test-expression evaluations: one per changed SOI per drain.
    pub test_evals: u64,
    /// `+` tokens emitted (SOI entered the conflict set).
    pub plus_tokens: u64,
    /// `-` tokens emitted (SOI left the conflict set).
    pub minus_tokens: u64,
    /// `time` tokens emitted (active SOI changed content/recency).
    pub retime_tokens: u64,
    /// γ-entries created (candidate SOIs appearing).
    pub gamma_created: u64,
    /// γ-entries dropped (candidate SOIs emptied out).
    pub gamma_dropped: u64,
    /// Full aggregate-value materializations (every `AV` re-read when an
    /// SOI is delivered to the conflict set) — the non-incremental
    /// counterpart of `aggregate_updates`.
    pub aggregate_recomputes: u64,
}

impl SoiStats {
    /// Component-wise sum.
    pub fn merged(&self, other: &SoiStats) -> SoiStats {
        SoiStats {
            activations: self.activations + other.activations,
            aggregate_updates: self.aggregate_updates + other.aggregate_updates,
            test_evals: self.test_evals + other.test_evals,
            plus_tokens: self.plus_tokens + other.plus_tokens,
            minus_tokens: self.minus_tokens + other.minus_tokens,
            retime_tokens: self.retime_tokens + other.retime_tokens,
            gamma_created: self.gamma_created + other.gamma_created,
            gamma_dropped: self.gamma_dropped + other.gamma_dropped,
            aggregate_recomputes: self.aggregate_recomputes + other.aggregate_recomputes,
        }
    }

    /// The token-protocol and γ-churn counters as `(kind, total)` pairs —
    /// what S-node-bearing matchers report from `Matcher::metric_counters`.
    pub fn metric_counters(&self) -> [(&'static str, u64); 7] {
        [
            ("soi_plus", self.plus_tokens),
            ("soi_minus", self.minus_tokens),
            ("soi_retime", self.retime_tokens),
            ("soi_test_eval", self.test_evals),
            ("gamma_created", self.gamma_created),
            ("gamma_dropped", self.gamma_dropped),
            ("agg_recompute", self.aggregate_recomputes),
        ]
    }

    /// Fold these counters into a [`MatchStats`]. This is the *single*
    /// point where S-node activity reaches the matcher-level counters:
    /// matchers never increment `snode_activations` / `aggregate_updates`
    /// themselves, so the two views cannot diverge.
    pub fn merge_into(&self, stats: &mut MatchStats) {
        stats.snode_activations += self.activations;
        stats.aggregate_updates += self.aggregate_updates;
    }
}

/// One candidate SOI: the `(Tokens, Status, AV)` triple of the γ-memory.
#[derive(Clone, Debug)]
struct GammaEntry {
    /// Candidate rows, conflict-set ordered: recency descending, equal
    /// recencies in arrival order. A deque, because the rows that come and
    /// go are mostly the newest ones: head insert/remove is O(1), any
    /// other position costs the shorter side, and the order makes finding
    /// the position a binary search on the precomputed recency key.
    rows: VecDeque<Row>,
    /// `Status` at the last settle: is this SOI in the conflict set?
    active: bool,
    /// Changed since the last settle (and queued in `SNode::dirty`).
    dirty: bool,
    /// Emptied since the last settle while `active`: the conflict set
    /// holds a dead incarnation that settling takes out first. Without
    /// rows the entry is a tombstone kept only for that `-` token; it is
    /// not a γ-entry (the live-set counts exclude it).
    reborn: bool,
    /// `AV`: one incremental state per aggregate operation.
    aggs: Vec<AggState>,
    /// Content-change counter (re-arms refraction, §6).
    version: u64,
}

#[derive(Clone, Debug)]
struct Row {
    /// Matched WME per positive CE.
    tags: Box<[TimeTag]>,
    /// Tags sorted descending — the OPS5 recency key.
    recency: Box<[TimeTag]>,
}

impl GammaEntry {
    /// Insert `row` at its conflict-set-ordered position — after the last
    /// row at least as recent — and return that position.
    fn place_row(&mut self, row: Row) -> usize {
        let pos = self.rows.partition_point(|r| r.recency >= row.recency);
        self.rows.insert(pos, row);
        pos
    }

    /// Take out the row matching exactly `tags`, whose recency key is
    /// `recency`, and return the position it had: binary search to the run
    /// of rows with that recency (several only when one WME set matched in
    /// different CE orders), then compare tags within the run.
    fn take_row(&mut self, tags: &[TimeTag], recency: &[TimeTag]) -> Option<usize> {
        let start = self.rows.partition_point(|r| *r.recency > *recency);
        let run = self.rows.range(start..);
        let offset = run
            .take_while(|r| *r.recency == *recency)
            .position(|r| r.tags.as_ref() == tags)?;
        self.rows.remove(start + offset);
        Some(start + offset)
    }
}

/// Overwrite `out` with `tags` sorted descending — the OPS5 recency key.
fn recency_into(tags: &[TimeTag], out: &mut Vec<TimeTag>) {
    out.clear();
    out.extend_from_slice(tags);
    out.sort_unstable_by(|a, b| b.cmp(a));
}

fn recency_of(tags: &[TimeTag]) -> Box<[TimeTag]> {
    let mut r = Vec::with_capacity(tags.len());
    recency_into(tags, &mut r);
    r.into_boxed_slice()
}

/// Live-set counts of a γ-memory — everything [`SNode::gamma_bytes`]
/// multiplies by an element size. The S-node keeps one of these up to date
/// token by token, the way an aggregate keeps its `(value, counter)` pairs;
/// [`SNode::walk_gamma_counts`] recounts it from the entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GammaCounts {
    /// γ-entries (candidate SOIs).
    pub entries: u64,
    /// Σ key parts over entries.
    pub key_parts: u64,
    /// Σ candidate rows over entries.
    pub rows: u64,
    /// Σ matched tags over rows (one `tags` slice; `recency` mirrors it).
    pub row_tags: u64,
    /// Σ aggregate states over entries.
    pub agg_states: u64,
    /// Σ distinct contributing WMEs over aggregate states.
    pub tag_refs: u64,
    /// Σ `(value, counter)` pairs over aggregate states.
    pub value_counts: u64,
}

impl GammaCounts {
    /// Estimated live bytes — keys, `(Tokens, Status, AV)` triples, and the
    /// incremental aggregate states. Live-set methodology (see
    /// [`sorete_base::MemoryReport`]): element sizes × live counts, no
    /// allocator slack.
    pub fn bytes(&self) -> u64 {
        use std::mem::size_of;
        self.entries * (size_of::<Box<[KeyPart]>>() + size_of::<GammaEntry>()) as u64
            + self.key_parts * size_of::<KeyPart>() as u64
            // `tags` and `recency` are two boxed slices per row.
            + 2 * (self.rows * size_of::<Box<[TimeTag]>>() as u64
                + self.row_tags * size_of::<TimeTag>() as u64)
            + AggState::bytes_for(self.agg_states, self.tag_refs, self.value_counts)
    }

    /// Count one γ-entry in full.
    fn add_entry(&mut self, key: &[KeyPart], entry: &GammaEntry) {
        self.entries += 1;
        self.key_parts += key.len() as u64;
        self.rows += entry.rows.len() as u64;
        self.row_tags += entry.rows.iter().map(|r| r.tags.len() as u64).sum::<u64>();
        for a in &entry.aggs {
            let (tag_refs, value_counts) = a.live_counts();
            self.agg_states += 1;
            self.tag_refs += tag_refs;
            self.value_counts += value_counts;
        }
    }

    /// Take `gone` out of the totals.
    fn sub(&mut self, gone: &GammaCounts) {
        self.entries -= gone.entries;
        self.key_parts -= gone.key_parts;
        self.rows -= gone.rows;
        self.row_tags -= gone.row_tags;
        self.agg_states -= gone.agg_states;
        self.tag_refs -= gone.tag_refs;
        self.value_counts -= gone.value_counts;
    }

    /// An aggregate state went from `before` to `after`
    /// ([`AggState::live_counts`]).
    fn agg_moved(&mut self, before: (u64, u64), after: (u64, u64)) {
        self.tag_refs = self.tag_refs + after.0 - before.0;
        self.value_counts = self.value_counts + after.1 - before.1;
    }
}

/// An S-node: γ-memory plus the rule-derived static data
/// `(C, P, APVs, ACEs, T)`.
pub struct SNode {
    rule_id: RuleId,
    rule: Arc<AnalyzedRule>,
    /// `C`: positive indices of non-set-oriented CEs (key tags).
    key_tags: Vec<usize>,
    /// `P`: scalar-PV value sources `(pos_ce, attr)` (key values).
    key_vals: Vec<(usize, Symbol)>,
    /// Scalar variables readable inside `T`: `(var, pos_ce, attr)`.
    scalar_vars: Vec<(Symbol, usize, Symbol)>,
    /// The γ-memory.
    entries: FxHashMap<Box<[KeyPart]>, GammaEntry>,
    /// Keys of the entries changed since the last settle, in first-change
    /// order. An entry queues itself once (its `dirty` flag dedupes); a
    /// key whose entry was dropped and re-created since may appear twice,
    /// and settling skips the second.
    dirty: Vec<Box<[KeyPart]>>,
    /// Live-set counts of `entries`.
    counts: GammaCounts,
    /// Scratch for the recency key of a departing row (a search key, not
    /// stored, so not worth an allocation per removal).
    recency_buf: Vec<TimeTag>,
    stats: SoiStats,
    tracer: Tracer,
}

impl SNode {
    /// Build the S-node for a set-oriented rule.
    pub fn new(rule_id: RuleId, rule: Arc<AnalyzedRule>) -> SNode {
        debug_assert!(rule.is_set_oriented);
        let key_tags = rule.scalar_ces.clone();
        let key_vals: Vec<(usize, Symbol)> =
            rule.scalar_pvs.iter().map(|p| (p.pos_ce, p.attr)).collect();
        let scalar_vars: Vec<(Symbol, usize, Symbol)> = rule
            .var_sources
            .iter()
            .filter(|(_, s)| !s.set_oriented)
            .map(|(v, s)| (*v, s.pos_ce, s.attr))
            .collect();
        SNode {
            rule_id,
            rule,
            key_tags,
            key_vals,
            scalar_vars,
            entries: FxHashMap::default(),
            dirty: Vec::new(),
            counts: GammaCounts::default(),
            recency_buf: Vec::new(),
            stats: SoiStats::default(),
            tracer: Tracer::null(),
        }
    }

    /// Install the tracer through which the node emits `snode` /
    /// `aggregate` events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Counters.
    pub fn stats(&self) -> SoiStats {
        self.stats
    }

    /// Number of candidate SOIs currently in the γ-memory.
    pub fn candidate_count(&self) -> usize {
        self.counts.entries as usize
    }

    /// Total candidate rows across every γ-entry.
    pub fn gamma_rows(&self) -> u64 {
        self.counts.rows
    }

    /// Estimated live bytes of the γ-memory, from the maintained counts
    /// (see [`GammaCounts::bytes`]).
    pub fn gamma_bytes(&self) -> u64 {
        self.counts.bytes()
    }

    /// The maintained live-set counts.
    pub fn gamma_counts(&self) -> GammaCounts {
        self.counts
    }

    /// The live-set counts recounted entry by entry — the oracle
    /// [`Self::gamma_counts`] is validated against. Tombstones (emptied
    /// entries awaiting their `-` token) are not γ-entries.
    pub fn walk_gamma_counts(&self) -> GammaCounts {
        let mut c = GammaCounts::default();
        for (key, entry) in &self.entries {
            if !entry.rows.is_empty() {
                c.add_entry(key, entry);
            }
        }
        c
    }

    /// True when some SOI changed since the last [`Self::settle`].
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// The rule this node serves.
    pub fn rule(&self) -> &Arc<AnalyzedRule> {
        &self.rule
    }

    fn key_of(
        &self,
        tags: &[TimeTag],
        lookup: &dyn Fn(TimeTag, Symbol) -> Value,
    ) -> Box<[KeyPart]> {
        let mut key = Vec::with_capacity(self.key_tags.len() + self.key_vals.len());
        for &pos in &self.key_tags {
            key.push(KeyPart::Tag(tags[pos]));
        }
        for &(pos, attr) in &self.key_vals {
            key.push(KeyPart::Val(lookup(tags[pos], attr)));
        }
        key.into_boxed_slice()
    }

    /// Stages 1–2 for a `+` token (a complete candidate instantiation
    /// joined): place the row, update the aggregates, mark the SOI dirty.
    /// `lookup` resolves the row's WMEs.
    pub fn insert_row(&mut self, tags: &[TimeTag], lookup: &dyn Fn(TimeTag, Symbol) -> Value) {
        self.stats.activations += 1;
        let rule_name = self.rule.name;
        self.tracer.emit(|| TraceEvent::SnodeActivation {
            rule: rule_name,
            insert: true,
        });
        let key = self.key_of(tags, lookup);
        let key_len = key.len() as u64;

        // Stage 1: find the SOI and place the token within it.
        let entry = match self.entries.entry(key) {
            Entry::Occupied(o) => {
                if !o.get().dirty {
                    self.dirty.push(o.key().clone());
                }
                o.into_mut()
            }
            Entry::Vacant(v) => {
                self.dirty.push(v.key().clone());
                v.insert(GammaEntry {
                    rows: VecDeque::new(),
                    active: false,
                    dirty: false,
                    reborn: false,
                    aggs: Vec::new(),
                    version: 0,
                })
            }
        };
        entry.dirty = true;
        if entry.rows.is_empty() {
            // A new γ-entry, or a tombstone filling again: either way a
            // fresh instantiation, whose aggregates and version restart.
            self.stats.gamma_created += 1;
            self.counts.entries += 1;
            self.counts.key_parts += key_len;
            self.counts.agg_states += self.rule.aggregates.len() as u64;
            entry.aggs = self
                .rule
                .aggregates
                .iter()
                .map(|s| AggState::new(*s))
                .collect();
            entry.version = 0;
        }
        entry.place_row(Row {
            tags: tags.into(),
            recency: recency_of(tags),
        });
        self.counts.rows += 1;
        self.counts.row_tags += tags.len() as u64;
        entry.version += 1;

        // Stage 2: update the aggregates.
        let mut touched = 0u64;
        for agg in &mut entry.aggs {
            let src = agg.source_ce();
            let value = match agg.spec.target {
                sorete_lang::analyze::AggTarget::Pv { attr, .. } => lookup(tags[src], attr),
                sorete_lang::analyze::AggTarget::Ce { .. } => Value::Nil,
            };
            let before = agg.live_counts();
            if agg.add_row(tags[src], value) {
                self.stats.aggregate_updates += 1;
                touched += 1;
            }
            self.counts.agg_moved(before, agg.live_counts());
        }
        if touched > 0 {
            self.tracer.emit(|| TraceEvent::AggregateUpdate {
                rule: rule_name,
                count: touched,
            });
        }
    }

    /// Stages 1–2 for a `-` token (a candidate instantiation un-joined):
    /// take the row out, update the aggregates, mark the SOI dirty.
    /// `lookup` resolves the row's WMEs (matchers call the S-node before
    /// forgetting a departing WME).
    pub fn remove_row(&mut self, tags: &[TimeTag], lookup: &dyn Fn(TimeTag, Symbol) -> Value) {
        self.stats.activations += 1;
        let rule_name = self.rule.name;
        self.tracer.emit(|| TraceEvent::SnodeActivation {
            rule: rule_name,
            insert: false,
        });
        let key = self.key_of(tags, lookup);

        // Stage 1.
        let Entry::Occupied(mut slot) = self.entries.entry(key) else {
            debug_assert!(false, "removal for an unknown SOI key");
            return;
        };
        recency_into(tags, &mut self.recency_buf);
        let entry = slot.get_mut();
        if entry.take_row(tags, &self.recency_buf).is_none() {
            debug_assert!(false, "removal for a token not in the SOI");
            return;
        }
        self.counts.rows -= 1;
        self.counts.row_tags -= tags.len() as u64;
        entry.version += 1;
        if !entry.dirty {
            entry.dirty = true;
            self.dirty.push(slot.key().clone());
        }
        let entry = slot.get_mut();
        if entry.rows.is_empty() {
            // Figure 3's `delete`: stage 2 is skipped, so the entry goes
            // with whatever its aggregate states still hold. An entry the
            // conflict set holds stays behind as a tombstone until the
            // settle that retracts it.
            self.stats.gamma_dropped += 1;
            let mut gone = GammaCounts::default();
            gone.add_entry(slot.key(), slot.get());
            self.counts.sub(&gone);
            if slot.get().active {
                slot.get_mut().reborn = true;
            } else {
                slot.remove();
            }
            return;
        }

        // Stage 2.
        let mut touched = 0u64;
        for agg in &mut entry.aggs {
            let src = agg.source_ce();
            let before = agg.live_counts();
            if agg.remove_row(tags[src]) {
                self.stats.aggregate_updates += 1;
                touched += 1;
            }
            self.counts.agg_moved(before, agg.live_counts());
        }
        if touched > 0 {
            self.tracer.emit(|| TraceEvent::AggregateUpdate {
                rule: rule_name,
                count: touched,
            });
        }
    }

    /// Stage 3 for every SOI changed since the last settle: evaluate `T`
    /// once and push at most one transition per SOI (`-` then `+` for one
    /// emptied and refilled) onto `out`, in first-change order. `lookup`
    /// must resolve every WME the γ-rows hold.
    pub fn settle(&mut self, lookup: &dyn Fn(TimeTag, Symbol) -> Value, out: &mut Vec<CsDelta>) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for key in dirty.drain(..) {
            let Some(entry) = self.entries.get_mut(&key) else {
                // Emptied while out of the conflict set: nothing to say.
                continue;
            };
            if !entry.dirty {
                continue;
            }
            entry.dirty = false;
            if entry.reborn {
                entry.reborn = false;
                entry.active = false;
                self.stats.minus_tokens += 1;
                out.push(CsDelta::Remove(inst_key(self.rule_id, &key)));
                if entry.rows.is_empty() {
                    self.entries.remove(&key);
                    continue;
                }
            }
            let pass = self.rule.tests.is_empty() || {
                self.stats.test_evals += 1;
                let env = GammaEnv {
                    rule: &self.rule,
                    key_tags: self.key_tags.len(),
                    scalar_vars: &self.scalar_vars,
                    entry,
                    key: &key,
                    lookup,
                };
                // Evaluation errors count as failure (the SOI simply does
                // not flow), matching OPS5's forgiving predicate semantics.
                self.rule
                    .tests
                    .iter()
                    .all(|t| eval_truthy(t, &env).unwrap_or(false))
            };
            match (entry.active, pass) {
                (false, false) => {}
                (false, true) => {
                    entry.active = true;
                    let item = item_for(self.rule_id, &self.rule, &key, entry);
                    self.stats.aggregate_recomputes += item.aggregates.len() as u64;
                    self.stats.plus_tokens += 1;
                    out.push(CsDelta::Insert(item));
                }
                (true, false) => {
                    entry.active = false;
                    self.stats.minus_tokens += 1;
                    out.push(CsDelta::Remove(inst_key(self.rule_id, &key)));
                }
                (true, true) => {
                    // "Only a pointer is passed": a slim `time` token —
                    // consumers re-materialize the SOI when it fires.
                    self.stats.retime_tokens += 1;
                    let head = &entry.rows[0];
                    out.push(CsDelta::Retime(RetimeInfo {
                        version: entry.version,
                        recency: head.recency.clone(),
                        first: head.tags.first().copied().unwrap_or_default(),
                        key: inst_key(self.rule_id, &key),
                    }));
                }
            }
        }
        // The queue's buffer is reused by the next drain.
        self.dirty = dirty;
    }

    /// Current full contents of an *active* SOI, for `Matcher::materialize`.
    pub fn materialize(&self, parts: &[KeyPart]) -> Option<ConflictItem> {
        let entry = self.entries.get(parts)?;
        if !entry.active || entry.rows.is_empty() {
            return None;
        }
        Some(item_for(self.rule_id, &self.rule, parts, entry))
    }
}

fn inst_key(rule: RuleId, key: &[KeyPart]) -> InstKey {
    InstKey::Soi {
        rule,
        parts: key.into(),
    }
}

fn item_for(
    rule_id: RuleId,
    rule: &AnalyzedRule,
    key: &[KeyPart],
    entry: &GammaEntry,
) -> ConflictItem {
    ConflictItem {
        key: inst_key(rule_id, key),
        rows: entry.rows.iter().map(|r| &r.tags).collect(),
        aggregates: entry.aggs.iter().map(|a| a.current()).collect(),
        version: entry.version,
        recency: entry.rows[0].recency.clone(),
        specificity: rule.specificity,
    }
}

/// Evaluation environment over a γ-entry: scalar variables resolve through
/// the key (for `:scalar` PVs) or the head row + WM lookup (for variables
/// bound by regular CEs, whose WME is shared by every row of the SOI);
/// aggregates resolve to their incremental state.
struct GammaEnv<'a> {
    rule: &'a AnalyzedRule,
    /// Number of leading key parts that are scalar-CE tags.
    key_tags: usize,
    scalar_vars: &'a [(Symbol, usize, Symbol)],
    entry: &'a GammaEntry,
    key: &'a [KeyPart],
    lookup: &'a dyn Fn(TimeTag, Symbol) -> Value,
}

impl Env for GammaEnv<'_> {
    fn var(&self, v: Symbol) -> Option<Value> {
        // `:scalar` PVs are part of the key.
        if let Some(i) = self.rule.scalar_pvs.iter().position(|p| p.var == v) {
            if let KeyPart::Val(val) = &self.key[self.key_tags + i] {
                return Some(*val);
            }
        }
        let (_, pos_ce, attr) = self.scalar_vars.iter().find(|(name, _, _)| *name == v)?;
        let tag = self.entry.rows.front()?.tags[*pos_ce];
        Some((self.lookup)(tag, *attr))
    }

    fn agg(&self, op: AggOp, var: Symbol) -> Option<Value> {
        let idx = self.rule.agg_index(op, var)?;
        Some(self.entry.aggs[idx].current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sorete_base::FxHashSet;

    fn entry() -> GammaEntry {
        GammaEntry {
            rows: VecDeque::new(),
            active: false,
            dirty: false,
            reborn: false,
            aggs: Vec::new(),
            version: 0,
        }
    }

    fn row(tags: &[u64]) -> Row {
        let tags: Box<[TimeTag]> = tags.iter().map(|&t| TimeTag::new(t)).collect();
        Row {
            recency: recency_of(&tags),
            tags,
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// A two-CE row over a small tag domain, so equal recencies (the
        /// self-join pair `[a,b]` / `[b,a]`) are common.
        Insert(u64, u64),
        /// Remove the current head / tail row.
        RemoveHead,
        RemoveTail,
        /// Remove the (i mod len)-th row.
        RemoveAt(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            8 => (1u64..7, 1u64..7).prop_map(|(a, b)| Op::Insert(a, b)),
            1 => Just(Op::RemoveHead),
            1 => Just(Op::RemoveTail),
            3 => (0usize..64).prop_map(Op::RemoveAt),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The deque is always the arrival-ordered rows stably sorted by
        /// recency, most recent first, and the position handed back —
        /// which decides `chg` ∈ {`new-time`, `same-time`} — is the row's
        /// index in that reference.
        #[test]
        fn rows_stay_sorted_by_recency_with_ties_in_arrival_order(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            let mut e = entry();
            // Live rows in arrival order.
            let mut arrived: Vec<Box<[TimeTag]>> = Vec::new();
            let reference = |arrived: &[Box<[TimeTag]>]| {
                let mut sorted = arrived.to_vec();
                sorted.sort_by_key(|tags| std::cmp::Reverse(recency_of(tags)));
                sorted
            };
            for op in &ops {
                match *op {
                    Op::Insert(a, b) => {
                        let r = row(&[a, b]);
                        // One production token per tag row.
                        if arrived.contains(&r.tags) {
                            continue;
                        }
                        arrived.push(r.tags.clone());
                        let want = reference(&arrived);
                        let pos = e.place_row(r.clone());
                        prop_assert_eq!(&want[pos], &r.tags, "insert position");
                        prop_assert_eq!(pos == 0, want[0] == r.tags, "new-time iff new head");
                    }
                    Op::RemoveHead | Op::RemoveTail | Op::RemoveAt(_) if !arrived.is_empty() => {
                        let before = reference(&arrived);
                        let at = match *op {
                            Op::RemoveHead => 0,
                            Op::RemoveTail => before.len() - 1,
                            Op::RemoveAt(i) => i % before.len(),
                            Op::Insert(..) => unreachable!(),
                        };
                        let tags = before[at].clone();
                        arrived.retain(|t| *t != tags);
                        let recency = recency_of(&tags);
                        prop_assert_eq!(e.take_row(&tags, &recency), Some(at), "remove position");
                        prop_assert_eq!(e.take_row(&tags, &recency), None, "already gone");
                    }
                    _ => {}
                }
                let got: Vec<Box<[TimeTag]>> = e.rows.iter().map(|r| r.tags.clone()).collect();
                prop_assert_eq!(got, reference(&arrived), "rows after {:?}", op);
            }
        }
    }

    /// `[1,2]` and `[2,1]` share the recency key `[2,1]`: the later arrival
    /// sits behind the earlier one, and each is found by its own tags.
    #[test]
    fn equal_recency_rows_keep_arrival_order_and_are_told_apart() {
        let mut e = entry();
        assert_eq!(e.place_row(row(&[1, 2])), 0);
        assert_eq!(e.place_row(row(&[2, 1])), 1);
        assert_eq!(e.place_row(row(&[3, 1])), 0);
        assert_eq!(e.place_row(row(&[1, 1])), 3);
        let second = row(&[2, 1]);
        assert_eq!(e.take_row(&second.tags, &second.recency), Some(2));
        let first = row(&[1, 2]);
        assert_eq!(e.take_row(&first.tags, &first.recency), Some(1));
        let absent = row(&[2, 2]);
        assert_eq!(e.take_row(&absent.tags, &absent.recency), None);
        assert_eq!(e.rows.len(), 2);
    }

    // ------------------------------------------------------------------
    // Settling once per batch against settling after every token.

    /// Twelve `item` WMEs over three groups with small values, so the
    /// rule's `:test` flips both ways as rows come and go.
    fn batch_wm() -> Vec<sorete_base::Wme> {
        (1..=12u64)
            .map(|t| {
                sorete_base::Wme::new(
                    TimeTag::new(t),
                    Symbol::new("item"),
                    vec![
                        (Symbol::new("g"), Value::Int((t % 3) as i64)),
                        (Symbol::new("v"), Value::Int((t % 5) as i64)),
                    ],
                )
            })
            .collect()
    }

    fn batch_node() -> SNode {
        let src = "(p r { [item ^g <g> ^v <v>] <P> } :scalar (<g>)
            :test ((count <P>) > 1 and (sum <v>) < 9) (halt))";
        let rule = sorete_lang::analyze_rule(&sorete_lang::parse_rule(src).unwrap()).unwrap();
        SNode::new(RuleId::new(0), Arc::new(rule))
    }

    /// The conflict set as the deltas describe it: key → version. Panics on
    /// a delta the protocol forbids (a second `+`, a `-` or `time` for an
    /// absent entry). Keys that entered go into `born`.
    fn apply(
        cs: &mut FxHashMap<InstKey, u64>,
        born: &mut FxHashSet<InstKey>,
        out: &mut Vec<CsDelta>,
    ) {
        for d in out.drain(..) {
            match d {
                CsDelta::Insert(item) => {
                    born.insert(item.key.clone());
                    assert!(cs.insert(item.key, item.version).is_none(), "second +");
                }
                CsDelta::Remove(key) => {
                    assert!(cs.remove(&key).is_some(), "- of an absent entry");
                }
                CsDelta::Retime(info) => {
                    let v = cs.get_mut(&info.key).expect("time of an absent entry");
                    *v = info.version;
                }
            }
        }
    }

    /// Every γ-entry's rows, aggregate values, status and version, by key.
    type Gamma = Vec<(Vec<KeyPart>, Vec<Vec<TimeTag>>, Vec<Value>, bool, u64)>;

    fn gamma(sn: &SNode) -> Gamma {
        let mut g: Gamma = sn
            .entries
            .iter()
            .map(|(k, e)| {
                (
                    k.to_vec(),
                    e.rows.iter().map(|r| r.tags.to_vec()).collect(),
                    e.aggs.iter().map(|a| a.current()).collect(),
                    e.active,
                    e.version,
                )
            })
            .collect();
        g.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A batch of tokens settled once leaves the γ-memory — rows,
        /// aggregates, active flags, versions — and the conflict set its
        /// deltas describe exactly where settling after every token
        /// leaves them, and the maintained counts equal a recount even
        /// mid-batch, with tombstones about. An SOI enters the conflict
        /// set afresh (`+`, refraction cleared) exactly when it was out at
        /// the last drain, or in and its group emptied during the batch.
        #[test]
        fn settling_once_per_batch_matches_settling_per_token(
            batches in proptest::collection::vec(
                proptest::collection::vec(1u64..13, 0..10), 1..12)
        ) {
            let wm = batch_wm();
            let lookup = |t: TimeTag, a: Symbol| wm[(t.raw() - 1) as usize].get(a);
            let (mut each, mut once) = (batch_node(), batch_node());
            let (mut cs_each, mut cs_once) = (FxHashMap::default(), FxHashMap::default());
            let mut live = [false; 13];
            let mut out = Vec::new();
            let mut born = FxHashSet::default();
            for batch in &batches {
                let before = cs_once.clone();
                let mut emptied = FxHashSet::default();
                for &t in batch {
                    // Each pick toggles the WME's row: in if out, out if in.
                    let tags = [TimeTag::new(t)];
                    if live[t as usize] {
                        each.remove_row(&tags, &lookup);
                        once.remove_row(&tags, &lookup);
                    } else {
                        each.insert_row(&tags, &lookup);
                        once.insert_row(&tags, &lookup);
                    }
                    live[t as usize] = !live[t as usize];
                    let group: Box<[KeyPart]> = Box::new([KeyPart::Val(Value::Int((t % 3) as i64))]);
                    if each.entries.get(&group).is_none_or(|e| e.rows.is_empty()) {
                        emptied.insert(inst_key(RuleId::new(0), &group));
                    }
                    each.settle(&lookup, &mut out);
                    apply(&mut cs_each, &mut FxHashSet::default(), &mut out);
                    prop_assert_eq!(once.gamma_counts(), once.walk_gamma_counts());
                }
                born.clear();
                once.settle(&lookup, &mut out);
                prop_assert!(out.iter().filter(|d| !matches!(d, CsDelta::Insert(_))).count()
                    <= batch.len(), "no more `-`/`time` tokens than tokens");
                apply(&mut cs_once, &mut born, &mut out);
                prop_assert_eq!(gamma(&once), gamma(&each));
                prop_assert_eq!(&cs_once, &cs_each);
                let fresh: FxHashSet<InstKey> = cs_once
                    .keys()
                    .filter(|k| !before.contains_key(*k) || emptied.contains(*k))
                    .cloned()
                    .collect();
                prop_assert_eq!(&born, &fresh);
                prop_assert_eq!(once.gamma_counts(), once.walk_gamma_counts());
                prop_assert_eq!(each.gamma_counts(), each.walk_gamma_counts());
                prop_assert!(!once.is_dirty());
            }
        }
    }
}
