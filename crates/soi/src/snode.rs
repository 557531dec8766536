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
//! which only mark the SOI dirty. An entry's rows live in one flat buffer,
//! oldest first, so the newest row's arrival is an append and its
//! departure a truncate; each aggregate keeps only the state its operation
//! needs (see `aggregate.rs`). Stage 3 runs once per dirty SOI per
//! drain ([`SNode::settle`], called from `Productions::drain_into`): a
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

use crate::aggregate::{AggPlan, AggValues};
use sorete_base::{
    ConflictItem, CsDelta, FxHashMap, InstKey, KeyPart, MatchStats, RetimeInfo, Rows, RuleId,
    Symbol, Tags, TimeTag, TraceEvent, Tracer, Value,
};
use sorete_lang::analyze::AnalyzedRule;
use sorete_lang::ast::AggOp;
use sorete_lang::eval::{eval_truthy, Env};
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
    /// Candidate rows (`Tokens`).
    rows: RowArena,
    /// `Status` at the last settle: is this SOI in the conflict set?
    active: bool,
    /// Changed since the last settle (and queued in `SNode::dirty`).
    dirty: bool,
    /// Emptied since the last settle while `active`: the conflict set
    /// holds a dead incarnation that settling takes out first. Without
    /// rows the entry is a tombstone kept only for that `-` token; it is
    /// not a γ-entry (the live-set counts exclude it).
    reborn: bool,
    /// `AV`: the incremental state of every aggregate operation.
    aggs: AggValues,
    /// Content-change counter (re-arms refraction, §6).
    version: u64,
}

/// An SOI's rows in one flat buffer, `stride` tags a row (one per positive
/// CE), ordered **oldest first**: the reverse of conflict-set order
/// (recency descending, equal recencies in arrival order). The rows that
/// come and go are nearly always the newest, so an arrival more recent
/// than every row is an append, and the departure of the newest row — the
/// one `set-modify`/`set-remove` reach first — is a truncate; both are
/// checked against the last row before any binary search. Recency keys are
/// the tags themselves at stride 1, and a parallel buffer of each row's
/// tags sorted descending above it.
#[derive(Clone, Debug)]
struct RowArena {
    tags: Vec<TimeTag>,
    /// Recency keys, row for row (empty at stride 1).
    recency: Vec<TimeTag>,
    stride: usize,
}

impl RowArena {
    fn new(stride: usize) -> RowArena {
        RowArena {
            tags: Vec::new(),
            recency: Vec::new(),
            stride,
        }
    }

    fn len(&self) -> usize {
        self.tags.len() / self.stride
    }

    fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Row `i`, oldest first.
    fn row(&self, i: usize) -> &[TimeTag] {
        &self.tags[i * self.stride..(i + 1) * self.stride]
    }

    /// Row `i`'s recency key.
    fn key(&self, i: usize) -> &[TimeTag] {
        let keys = if self.stride == 1 {
            &self.tags
        } else {
            &self.recency
        };
        &keys[i * self.stride..(i + 1) * self.stride]
    }

    /// The head row (most recent) and its recency key.
    fn head(&self) -> (&[TimeTag], &[TimeTag]) {
        let last = self.len() - 1;
        (self.row(last), self.key(last))
    }

    /// The rows in conflict-set order, head first, in one buffer.
    fn newest_first(&self) -> Rows {
        let tags = match self.stride {
            1 => self.tags.iter().rev().copied().collect(),
            s => self.tags.rchunks_exact(s).flatten().copied().collect(),
        };
        Rows::from_flat(tags, self.stride)
    }

    /// The first row whose key is not below `key`.
    fn lower_bound(&self, key: &[TimeTag]) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Insert `row`, whose recency key is `key` (`row` itself at stride
    /// 1), behind every row at least as recent in conflict-set order, and
    /// return its conflict-set position (0 = new head).
    fn place(&mut self, row: &[TimeTag], key: &[TimeTag]) -> usize {
        let n = self.len();
        let at = if n == 0 || self.key(n - 1) < key {
            n
        } else {
            self.lower_bound(key)
        };
        let s = self.stride;
        if at == n {
            self.tags.extend_from_slice(row);
            if s > 1 {
                self.recency.extend_from_slice(key);
            }
        } else {
            self.tags.splice(at * s..at * s, row.iter().copied());
            if s > 1 {
                self.recency.splice(at * s..at * s, key.iter().copied());
            }
        }
        n - at
    }

    /// Take out the row matching exactly `row`, whose recency key is `key`,
    /// and return the conflict-set position it had: the newest row first,
    /// else a binary search to the run of rows with that key (several only
    /// when one WME set matched in different CE orders) and a scan of it.
    fn take(&mut self, row: &[TimeTag], key: &[TimeTag]) -> Option<usize> {
        let n = self.len();
        let s = self.stride;
        let at = if n > 0 && self.row(n - 1) == row {
            n - 1
        } else {
            let start = self.lower_bound(key);
            start
                + (start..n)
                    .take_while(|&i| self.key(i) == key)
                    .position(|i| self.row(i) == row)?
        };
        self.tags.drain(at * s..(at + 1) * s);
        if s > 1 {
            self.recency.drain(at * s..(at + 1) * s);
        }
        Some(n - 1 - at)
    }
}

/// Overwrite `out` with `tags` sorted descending — the OPS5 recency key.
fn recency_into(tags: &[TimeTag], out: &mut Vec<TimeTag>) {
    out.clear();
    out.extend_from_slice(tags);
    out.sort_unstable_by(|a, b| b.cmp(a));
}

/// Live-set counts of γ-memories — everything [`GammaCounts::bytes`]
/// multiplies by an element size. Each S-node keeps one of these up to
/// date token by token, the way an aggregate keeps its `(value, counter)`
/// pairs, and can recount it from its entries
/// ([`crate::Productions::gamma_counts`] and
/// [`crate::Productions::walk_gamma_counts`] sum them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GammaCounts {
    /// γ-entries (candidate SOIs).
    pub entries: u64,
    /// Σ key parts over entries.
    pub key_parts: u64,
    /// Σ candidate rows over entries.
    pub rows: u64,
    /// Σ tags in the row buffers over entries.
    pub row_tags: u64,
    /// Σ tags in the recency buffers over entries (zero at stride 1).
    pub recency_tags: u64,
    /// Σ aggregate folds over entries.
    pub agg_states: u64,
    /// Σ per-WME reference tables over entries.
    pub ref_tables: u64,
    /// Σ reference-counted WMEs over entries.
    pub tag_refs: u64,
    /// Σ `(value, counter)` pairs over aggregate folds.
    pub value_counts: u64,
}

impl GammaCounts {
    /// Estimated live bytes — keys, `(Tokens, Status, AV)` triples with
    /// their flat row buffers, and the incremental aggregate states.
    /// Live-set methodology (see [`sorete_base::MemoryReport`]): element
    /// sizes × live counts, no allocator slack.
    pub fn bytes(&self) -> u64 {
        use std::mem::size_of;
        self.entries * (size_of::<Box<[KeyPart]>>() + size_of::<GammaEntry>()) as u64
            + self.key_parts * size_of::<KeyPart>() as u64
            + (self.row_tags + self.recency_tags) * size_of::<TimeTag>() as u64
            + AggValues::bytes_for(
                self.agg_states,
                self.ref_tables,
                self.tag_refs,
                self.value_counts,
            )
    }

    /// Count one γ-entry in full.
    fn add_entry(&mut self, key: &[KeyPart], entry: &GammaEntry) {
        self.entries += 1;
        self.key_parts += key.len() as u64;
        self.rows += entry.rows.len() as u64;
        self.row_tags += entry.rows.tags.len() as u64;
        self.recency_tags += entry.rows.recency.len() as u64;
        let (tag_refs, value_counts) = entry.aggs.live_counts();
        self.agg_states += entry.aggs.fold_count() as u64;
        self.ref_tables += entry.aggs.ref_tables() as u64;
        self.tag_refs += tag_refs;
        self.value_counts += value_counts;
    }

    /// Component-wise sum.
    pub(crate) fn merged(&self, other: &GammaCounts) -> GammaCounts {
        self.zip(other, |a, b| a + b)
    }

    /// `f` of each pair of fields.
    fn zip(&self, o: &GammaCounts, f: impl Fn(u64, u64) -> u64) -> GammaCounts {
        GammaCounts {
            entries: f(self.entries, o.entries),
            key_parts: f(self.key_parts, o.key_parts),
            rows: f(self.rows, o.rows),
            row_tags: f(self.row_tags, o.row_tags),
            recency_tags: f(self.recency_tags, o.recency_tags),
            agg_states: f(self.agg_states, o.agg_states),
            ref_tables: f(self.ref_tables, o.ref_tables),
            tag_refs: f(self.tag_refs, o.tag_refs),
            value_counts: f(self.value_counts, o.value_counts),
        }
    }

    /// An entry's aggregate state went from `before` to `after`
    /// ([`AggValues::live_counts`]).
    fn agg_moved(&mut self, before: (u64, u64), after: (u64, u64)) {
        self.tag_refs = self.tag_refs + after.0 - before.0;
        self.value_counts = self.value_counts + after.1 - before.1;
    }
}

/// An S-node: γ-memory plus the rule-derived static data
/// `(C, P, APVs, ACEs, T)`.
pub(crate) struct SNode {
    rule_id: RuleId,
    rule: Arc<AnalyzedRule>,
    /// `C`: positive indices of non-set-oriented CEs (key tags).
    key_tags: Vec<usize>,
    /// `P`: scalar-PV value sources `(pos_ce, attr)` (key values).
    key_vals: Vec<(usize, Symbol)>,
    /// Scalar variables readable inside `T`: `(var, pos_ce, attr)`.
    scalar_vars: Vec<(Symbol, usize, Symbol)>,
    /// `APVs` ∪ `ACEs` and the state each needs.
    aggs: AggPlan,
    /// The γ-memory.
    entries: FxHashMap<Box<[KeyPart]>, GammaEntry>,
    /// Keys of the entries changed since the last settle, in first-change
    /// order. An entry queues itself once (its `dirty` flag dedupes); a
    /// key whose entry was dropped and re-created since may appear twice,
    /// and settling skips the second.
    dirty: Vec<Box<[KeyPart]>>,
    /// Live-set counts of `entries`.
    counts: GammaCounts,
    /// Scratch for a token's key (boxed only when it opens an entry).
    key_buf: Vec<KeyPart>,
    /// Scratch for a row's recency key at stride > 1.
    recency_buf: Vec<TimeTag>,
    stats: SoiStats,
    tracer: Tracer,
}

impl SNode {
    /// Build the S-node for a set-oriented rule, emitting `snode` /
    /// `aggregate` events through `tracer`.
    pub fn new(rule_id: RuleId, rule: Arc<AnalyzedRule>, tracer: Tracer) -> SNode {
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
            key_tags,
            key_vals,
            scalar_vars,
            aggs: AggPlan::new(&rule),
            rule,
            entries: FxHashMap::default(),
            dirty: Vec::new(),
            counts: GammaCounts::default(),
            key_buf: Vec::new(),
            recency_buf: Vec::new(),
            stats: SoiStats::default(),
            tracer,
        }
    }

    /// Replace the tracer given to [`SNode::new`].
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

    /// Fill `key_buf` with the SOI key of row `tags`.
    fn key_into(&mut self, tags: &[TimeTag], lookup: &dyn Fn(TimeTag, Symbol) -> Value) {
        self.key_buf.clear();
        for &pos in &self.key_tags {
            self.key_buf.push(KeyPart::Tag(tags[pos]));
        }
        for &(pos, attr) in &self.key_vals {
            self.key_buf.push(KeyPart::Val(lookup(tags[pos], attr)));
        }
    }

    /// `tags`' recency key: the row itself at stride 1, else sorted into
    /// `buf`.
    fn recency_key<'a>(tags: &'a [TimeTag], buf: &'a mut Vec<TimeTag>) -> &'a [TimeTag] {
        if tags.len() == 1 {
            tags
        } else {
            recency_into(tags, buf);
            buf
        }
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
        self.key_into(tags, lookup);

        // Stage 1: find the SOI and place the token within it.
        let entry = match self.entries.get_mut(self.key_buf.as_slice()) {
            Some(entry) => {
                if !entry.dirty {
                    self.dirty.push(self.key_buf.as_slice().into());
                }
                entry
            }
            None => {
                let key: Box<[KeyPart]> = self.key_buf.as_slice().into();
                self.dirty.push(key.clone());
                self.entries.entry(key).or_insert(GammaEntry {
                    rows: RowArena::new(tags.len()),
                    active: false,
                    dirty: false,
                    reborn: false,
                    aggs: AggValues::default(),
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
            self.counts.key_parts += self.key_buf.len() as u64;
            entry.aggs = self.aggs.fresh();
            self.counts.agg_states += entry.aggs.fold_count() as u64;
            self.counts.ref_tables += entry.aggs.ref_tables() as u64;
            entry.version = 0;
        }
        entry
            .rows
            .place(tags, Self::recency_key(tags, &mut self.recency_buf));
        self.counts.rows += 1;
        self.counts.row_tags += tags.len() as u64;
        if tags.len() > 1 {
            self.counts.recency_tags += tags.len() as u64;
        }
        entry.version += 1;

        // Stage 2: update the aggregates.
        let before = entry.aggs.live_counts();
        let touched = self.aggs.add_row(&mut entry.aggs, tags, lookup);
        self.counts.agg_moved(before, entry.aggs.live_counts());
        if touched > 0 {
            self.stats.aggregate_updates += touched;
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
        self.key_into(tags, lookup);

        // Stage 1.
        let Some(entry) = self.entries.get_mut(self.key_buf.as_slice()) else {
            debug_assert!(false, "removal for an unknown SOI key");
            return;
        };
        let key = Self::recency_key(tags, &mut self.recency_buf);
        if entry.rows.take(tags, key).is_none() {
            debug_assert!(false, "removal for a token not in the SOI");
            return;
        }
        self.counts.rows -= 1;
        self.counts.row_tags -= tags.len() as u64;
        if tags.len() > 1 {
            self.counts.recency_tags -= tags.len() as u64;
        }
        entry.version += 1;
        if !entry.dirty {
            entry.dirty = true;
            self.dirty.push(self.key_buf.as_slice().into());
        }
        if entry.rows.is_empty() {
            // Figure 3's `delete`: stage 2 is skipped, so the entry goes
            // with whatever its aggregate states still hold. An entry the
            // conflict set holds stays behind as a tombstone until the
            // settle that retracts it.
            self.stats.gamma_dropped += 1;
            let mut gone = GammaCounts::default();
            gone.add_entry(&self.key_buf, entry);
            self.counts = self.counts.zip(&gone, |a, b| a - b);
            if entry.active {
                entry.reborn = true;
            } else {
                self.entries.remove(self.key_buf.as_slice());
            }
            return;
        }

        // Stage 2.
        let before = entry.aggs.live_counts();
        let touched = self.aggs.remove_row(&mut entry.aggs, tags, lookup);
        self.counts.agg_moved(before, entry.aggs.live_counts());
        if touched > 0 {
            self.stats.aggregate_updates += touched;
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
                    aggs: &self.aggs,
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
                    let item = item_for(self.rule_id, &self.rule, &self.aggs, &key, entry);
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
                    let (head, recency) = entry.rows.head();
                    out.push(CsDelta::Retime(RetimeInfo {
                        version: entry.version,
                        recency: Tags::shared(recency),
                        first: head[0],
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
        Some(item_for(self.rule_id, &self.rule, &self.aggs, parts, entry))
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
    aggs: &AggPlan,
    key: &[KeyPart],
    entry: &GammaEntry,
) -> ConflictItem {
    ConflictItem {
        key: inst_key(rule_id, key),
        rows: entry.rows.newest_first(),
        aggregates: aggs.values(&entry.aggs),
        version: entry.version,
        recency: Tags::shared(entry.rows.head().1),
        specificity: rule.specificity,
    }
}

/// Evaluation environment over a γ-entry: scalar variables resolve through
/// the key (for `:scalar` PVs) or the head row + WM lookup (for variables
/// bound by regular CEs, whose WME is shared by every row of the SOI);
/// aggregates resolve to their incremental state.
struct GammaEnv<'a> {
    rule: &'a AnalyzedRule,
    aggs: &'a AggPlan,
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
        let tag = self.entry.rows.head().0[*pos_ce];
        Some((self.lookup)(tag, *attr))
    }

    fn agg(&self, op: AggOp, var: Symbol) -> Option<Value> {
        let idx = self.rule.agg_index(op, var)?;
        Some(self.aggs.current(&self.entry.aggs, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sorete_base::FxHashSet;

    fn tags(t: &[u64]) -> Vec<TimeTag> {
        t.iter().map(|&t| TimeTag::new(t)).collect()
    }

    fn recency_of(tags: &[TimeTag]) -> Vec<TimeTag> {
        let mut r = Vec::new();
        recency_into(tags, &mut r);
        r
    }

    fn place(a: &mut RowArena, row: &[TimeTag]) -> usize {
        a.place(row, &recency_of(row))
    }

    fn take(a: &mut RowArena, row: &[TimeTag]) -> Option<usize> {
        a.take(row, &recency_of(row))
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// A row over a small tag domain, so equal recencies (the self-join
        /// pair `[a,b]` / `[b,a]`) are common at stride 2.
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

    /// Drive an arena of `stride` through `ops` against the reference: the
    /// arrival-ordered rows stably sorted by recency, most recent first.
    /// The position handed back — which decides `chg` ∈ {`new-time`,
    /// `same-time`} — is the row's index in that reference, and the arena
    /// read newest-first is the reference after every op.
    fn check_row_order(stride: usize, ops: &[Op]) {
        let mut a = RowArena::new(stride);
        // Live rows in arrival order.
        let mut arrived: Vec<Vec<TimeTag>> = Vec::new();
        let reference = |arrived: &[Vec<TimeTag>]| {
            let mut sorted = arrived.to_vec();
            sorted.sort_by_key(|t| std::cmp::Reverse(recency_of(t)));
            sorted
        };
        for op in ops {
            match *op {
                Op::Insert(x, y) => {
                    let row = tags(&[x, y][..stride]);
                    // One production token per tag row.
                    if arrived.contains(&row) {
                        continue;
                    }
                    arrived.push(row.clone());
                    let want = reference(&arrived);
                    let pos = place(&mut a, &row);
                    prop_assert_eq!(&want[pos], &row, "insert position");
                    prop_assert_eq!(pos == 0, want[0] == row, "new-time iff new head");
                }
                Op::RemoveHead | Op::RemoveTail | Op::RemoveAt(_) if !arrived.is_empty() => {
                    let before = reference(&arrived);
                    let at = match *op {
                        Op::RemoveHead => 0,
                        Op::RemoveTail => before.len() - 1,
                        Op::RemoveAt(i) => i % before.len(),
                        Op::Insert(..) => unreachable!(),
                    };
                    let row = before[at].clone();
                    arrived.retain(|t| *t != row);
                    prop_assert_eq!(take(&mut a, &row), Some(at), "remove position");
                    prop_assert_eq!(take(&mut a, &row), None, "already gone");
                }
                _ => {}
            }
            let got: Vec<Vec<TimeTag>> = a.newest_first().iter().map(<[TimeTag]>::to_vec).collect();
            prop_assert_eq!(got, reference(&arrived), "rows after {:?}", op);
            let keys = if stride == 1 { 0 } else { a.tags.len() };
            prop_assert_eq!(a.recency.len(), keys, "recency keys above stride 1");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// At stride 1 the tag is its own recency key and every tag is
        /// distinct, so there are no ties.
        #[test]
        fn stride_1_rows_stay_sorted_by_recency(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            check_row_order(1, &ops);
        }

        /// At stride 2 `[a,b]` and `[b,a]` tie, and ties keep arrival order.
        #[test]
        fn stride_2_rows_stay_sorted_by_recency_with_ties_in_arrival_order(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            check_row_order(2, &ops);
        }
    }

    /// `[1,2]` and `[2,1]` share the recency key `[2,1]`: the later arrival
    /// sits behind the earlier one, and each is found by its own tags.
    #[test]
    fn equal_recency_rows_keep_arrival_order_and_are_told_apart() {
        let mut a = RowArena::new(2);
        assert_eq!(place(&mut a, &tags(&[1, 2])), 0);
        assert_eq!(place(&mut a, &tags(&[2, 1])), 1);
        assert_eq!(place(&mut a, &tags(&[3, 1])), 0);
        assert_eq!(place(&mut a, &tags(&[1, 1])), 3);
        assert_eq!(take(&mut a, &tags(&[2, 1])), Some(2));
        assert_eq!(take(&mut a, &tags(&[1, 2])), Some(1));
        assert_eq!(take(&mut a, &tags(&[2, 2])), None);
        assert_eq!(a.len(), 2);
        // The newest row leaves by a truncate.
        assert_eq!(take(&mut a, &tags(&[3, 1])), Some(0));
        assert_eq!(a.tags, tags(&[1, 1]));
    }

    /// `count` over the only set-oriented CE is a counter: after 1 000
    /// rows the γ-entry holds no reference table, no map entry and no
    /// B-tree entry, and its rows are 1 000 tags in one buffer.
    #[test]
    fn count_over_the_only_set_ce_keeps_no_map_entries() {
        let rule = sorete_lang::analyze_rule(
            &sorete_lang::parse_rule(
                "(p r { [item ^s pending] <P> } :test ((count <P>) > 0) (set-remove <P>))",
            )
            .unwrap(),
        )
        .unwrap();
        let mut sn = SNode::new(RuleId::new(0), Arc::new(rule), Tracer::null());
        let lookup = |_: TimeTag, _: Symbol| Value::sym("pending");
        for t in 1..=1_000 {
            sn.insert_row(&[TimeTag::new(t)], &lookup);
        }
        let c = sn.gamma_counts();
        assert_eq!((c.ref_tables, c.tag_refs, c.value_counts), (0, 0, 0));
        assert_eq!((c.rows, c.row_tags, c.recency_tags), (1_000, 1_000, 0));
        let entry = sn.entries.values().next().unwrap();
        assert_eq!(sn.aggs.values(&entry.aggs), [Value::Int(1_000)]);
        assert_eq!(c, sn.walk_gamma_counts());
    }

    /// Two joined set-oriented CEs: `count` over a PV and `max` (the
    /// matcher-equivalence rule `s5`) fold rows and keep no per-WME
    /// reference table; `count` over an element variable and `sum` (`s6`)
    /// keep one per source CE.
    #[test]
    fn only_counting_folds_keep_reference_tables_under_a_join() {
        let counts = |src: &str| {
            let rule = sorete_lang::analyze_rule(&sorete_lang::parse_rule(src).unwrap()).unwrap();
            let mut sn = SNode::new(RuleId::new(0), Arc::new(rule), Tracer::null());
            let lookup = |_: TimeTag, _: Symbol| Value::Int(1);
            for (a, b) in [(1, 3), (1, 4), (2, 3)] {
                sn.insert_row(&[TimeTag::new(a), TimeTag::new(b)], &lookup);
            }
            let c = sn.gamma_counts();
            assert_eq!(c, sn.walk_gamma_counts());
            (c.ref_tables, c.tag_refs)
        };
        let s5 = "(p s5 { [a ^x <v> ^y <w>] <P> } { [b ^x <v>] <Q> }
                    :test ((count <v>) >= 1 and (max <w>) >= 0) (halt))";
        let s6 = "(p s6 { [a ^x <v> ^y <w>] <P> } { [b ^x <v>] <Q> }
                    :test ((count <P>) >= 1 and (sum <w>) >= 0) (halt))";
        assert_eq!(counts(s5), (0, 0));
        assert_eq!(counts(s6), (1, 2), "one table over the first CE's two WMEs");
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
        SNode::new(RuleId::new(0), Arc::new(rule), Tracer::null())
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
                    e.rows
                        .newest_first()
                        .iter()
                        .map(<[TimeTag]>::to_vec)
                        .collect(),
                    sn.aggs.values(&e.aggs),
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
