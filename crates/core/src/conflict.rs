//! The conflict set and OPS5 conflict-resolution strategies.
//!
//! The set is maintained from matcher deltas (`+`/`-`/`time` tokens).
//! Refraction records *which version* of an entry fired: a regular
//! instantiation fires once per appearance, while an SOI whose contents
//! change (version bump carried by a `time` token) becomes eligible to fire
//! again — "if any part of the instantiation changes, the instantiation is
//! again eligible to fire" (paper §6).
//!
//! The set is ordered: every *eligible* entry (unrefracted, rule not
//! quarantined) is filed in a `BTreeMap` under its sort key for the current
//! strategy, and [`ConflictSet::select`] reads the last one. A mutation only
//! *touches* its entry — O(1), once per entry between two selects — and
//! `select` first settles the touched entries, one re-key each, so a burst
//! of `time` tokens on one growing SOI costs one re-key, not one per token.
//! The linear scan survives as [`ConflictSet::select_scan`], the oracle that
//! [`ConflictSet::validate`] and the tests compare the index against.

use sorete_base::{ConflictItem, CsDelta, FxHashMap, FxHashSet, InstKey, RuleId, TimeTag};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// OPS5 conflict-resolution strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Refraction → recency (LEX on sorted time tags) → specificity.
    #[default]
    Lex,
    /// Refraction → recency of the *first* CE's WME → LEX.
    Mea,
}

/// The conflict set.
#[derive(Default)]
pub struct ConflictSet {
    items: FxHashMap<InstKey, Entry>,
    /// The eligible entries under their sort key for `keyed_for`; the last
    /// key is the dominant instantiation. Exact only once settled.
    index: BTreeMap<SortKey, InstKey>,
    /// The strategy `index` is keyed for.
    keyed_for: Strategy,
    /// Keys of the entries touched since the last settle, each queued once
    /// (the entry's `touched` flag dedupes). A key whose entry has left the
    /// set since is skipped.
    touched: Vec<InstKey>,
    /// Refraction memory: the version of each key that already fired.
    fired: FxHashMap<InstKey, u64>,
    /// Entries selection has looked at (see [`Self::index_visits`]).
    visits: u64,
    /// Monotonic arrival counter for deterministic final tie-breaks.
    arrivals: u64,
    /// While a journal is open, the prior `fired` value of every key whose
    /// refraction state changes is recorded (first touch wins), so a
    /// rolled-back firing can restore refraction exactly.
    journal: Option<FxHashMap<InstKey, Option<u64>>>,
    /// A committed firing's journal, emptied: the next one reuses its
    /// table, so opening a journal allocates nothing once warm.
    spare_journal: FxHashMap<InstKey, Option<u64>>,
    /// Rules under supervisor quarantine: their instantiations stay derived
    /// and keep normal refraction bookkeeping, but [`Self::select`] never
    /// picks them. Re-admission just removes the rule from this set — the
    /// preserved entries become selectable again immediately.
    quarantined: FxHashSet<RuleId>,
}

struct Entry {
    item: ConflictItem,
    arrival: u64,
    /// True when a slim `time` token updated version/recency but the rows
    /// are outdated; the engine re-materializes before firing.
    stale: bool,
    /// The head row's first-CE tag, MEA's key. A `time` token carries it,
    /// so a stale entry is ranked by its current head, not by `item.rows`.
    first: TimeTag,
    /// The key this entry is filed under in the index, if any; outdated
    /// while the entry is touched.
    filed: Option<SortKey>,
    /// Changed since the last settle (and queued in `touched`).
    touched: bool,
}

/// An entry's position under one strategy. The derived `Ord` compares the
/// fields in order; slice `Ord` on `recency` is OPS5 LEX (element-wise,
/// then the longer list dominates). `arrival` is unique, so keys never tie.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SortKey {
    /// MEA's first-CE tag; zero under LEX.
    first: TimeTag,
    recency: Box<[TimeTag]>,
    specificity: u32,
    arrival: u64,
}

impl ConflictSet {
    /// Empty set.
    pub fn new() -> ConflictSet {
        ConflictSet::default()
    }

    /// Apply one matcher delta.
    pub fn apply(&mut self, delta: CsDelta) {
        match delta {
            CsDelta::Insert(item) => {
                self.arrivals += 1;
                let key = item.key.clone();
                let entry = Entry {
                    first: item.first_tag(),
                    item,
                    arrival: self.arrivals,
                    stale: false,
                    filed: None,
                    touched: true,
                };
                // A replaced entry that was touched is already queued.
                let queued = match self.items.insert(key.clone(), entry) {
                    Some(old) => {
                        self.unfile(old.filed);
                        old.touched
                    }
                    None => false,
                };
                if !queued {
                    self.queue(key);
                }
            }
            CsDelta::Remove(key) => {
                if let Some(old) = self.items.remove(&key) {
                    self.unfile(old.filed);
                }
                // Leaving the conflict set clears refraction: if the same
                // instantiation is ever re-derived it may fire again.
                self.journal_fired(&key);
                self.fired.remove(&key);
            }
            CsDelta::Retime(info) => {
                // The paper's pointer semantics: the entry is updated in
                // place; only its position/version metadata travels.
                self.arrivals += 1;
                if let Some(entry) = self.items.get_mut(&info.key) {
                    entry.item.version = info.version;
                    entry.item.recency = info.recency;
                    entry.first = info.first;
                    entry.arrival = self.arrivals;
                    entry.stale = true;
                    if !entry.touched {
                        entry.touched = true;
                        self.queue(info.key);
                    }
                }
            }
        }
    }

    /// Number of entries (fired or not).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no entries at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entries in no particular order.
    pub fn items(&self) -> impl Iterator<Item = &ConflictItem> {
        self.items.values().map(|e| &e.item)
    }

    /// Record that an entry fired (at its current version).
    pub fn mark_fired(&mut self, key: &InstKey, version: u64) {
        self.journal_fired(key);
        self.fired.insert(key.clone(), version);
        self.touch(key);
    }

    /// Start recording refraction changes. Call before a firing whose
    /// effects may need to be rolled back.
    pub fn begin_journal(&mut self) {
        self.journal = Some(std::mem::take(&mut self.spare_journal));
    }

    /// Close the journal, returning the recorded prior refraction values.
    /// Returns an empty map when no journal was open.
    pub fn take_journal(&mut self) -> FxHashMap<InstKey, Option<u64>> {
        self.journal.take().unwrap_or_default()
    }

    /// Discard the journal (the firing committed; nothing to undo).
    pub fn end_journal(&mut self) {
        if let Some(mut journal) = self.journal.take() {
            journal.clear();
            self.spare_journal = journal;
        }
    }

    /// Restore refraction state captured by [`Self::take_journal`]. Must be
    /// applied *after* the working-memory rollback has been replayed through
    /// the matcher, so re-derived entries regain their pre-firing refraction.
    pub fn restore_fired(&mut self, prior: FxHashMap<InstKey, Option<u64>>) {
        for (key, value) in prior {
            match value {
                Some(v) => {
                    self.fired.insert(key.clone(), v);
                }
                None => {
                    self.fired.remove(&key);
                }
            }
            self.touch(&key);
        }
    }

    fn journal_fired(&mut self, key: &InstKey) {
        if let Some(journal) = &mut self.journal {
            if !journal.contains_key(key) {
                journal.insert(key.clone(), self.fired.get(key).copied());
            }
        }
    }

    /// Is the entry refracted (already fired at its current version)?
    pub fn is_refracted(&self, item: &ConflictItem) -> bool {
        refracted(&self.fired, item)
    }

    /// Select the dominant unrefracted entry under `strategy`. The second
    /// component is `true` when the entry's rows are stale (a slim `time`
    /// token arrived) and must be re-materialized before firing.
    ///
    /// Settles the entries touched since the last call (re-keys the whole
    /// index when `strategy` differs from the last call's), then reads the
    /// top of the index.
    pub fn select(&mut self, strategy: Strategy) -> Option<(&ConflictItem, bool)> {
        if strategy == self.keyed_for {
            self.settle();
        } else {
            self.rekey_all(strategy);
        }
        self.visits += 1;
        let (_, key) = self.index.last_key_value()?;
        let e = &self.items[key];
        Some((&e.item, e.stale))
    }

    /// [`Self::select`] by scanning every entry: the oracle the index is
    /// checked against, reached only from [`Self::validate`] and tests.
    pub fn select_scan(&self, strategy: Strategy) -> Option<(&ConflictItem, bool)> {
        self.items
            .values()
            .filter(|e| eligible(&self.fired, &self.quarantined, &e.item))
            .max_by(|a, b| compare(strategy, a, b))
            .map(|e| (&e.item, e.stale))
    }

    /// Check the index against the entries: every settled eligible entry
    /// is filed under the key its fields give now, nothing else is filed,
    /// every touched entry is queued, and — when nothing is pending — the
    /// top of the index is the scan's pick. Names the first divergent key.
    pub fn validate(&self) -> Result<(), String> {
        let queued: FxHashSet<&InstKey> = self.touched.iter().collect();
        let mut filed = 0;
        for (key, e) in &self.items {
            if let Some(k) = &e.filed {
                filed += 1;
                if self.index.get(k) != Some(key) {
                    return Err(format!(
                        "conflict set: {:?} is filed under {:?}, which the index does not map to it",
                        key, k
                    ));
                }
            }
            if e.touched {
                if !queued.contains(key) {
                    return Err(format!("conflict set: {:?} is touched but not queued", key));
                }
                continue;
            }
            let want = wanted(self.keyed_for, &self.fired, &self.quarantined, e);
            if e.filed != want {
                return Err(format!(
                    "conflict set: {:?} is filed under {:?}, its fields give {:?}",
                    key, e.filed, want
                ));
            }
        }
        if filed != self.index.len() {
            if let Some((_, key)) = self
                .index
                .iter()
                .find(|(k, key)| self.items.get(*key).and_then(|e| e.filed.as_ref()) != Some(*k))
            {
                return Err(format!(
                    "conflict set: the index holds {:?} under a key no entry is filed by",
                    key
                ));
            }
        }
        if self.touched.is_empty() {
            let top = self.index.last_key_value().map(|(_, key)| key);
            let scan = self.select_scan(self.keyed_for).map(|(item, _)| &item.key);
            if top != scan {
                return Err(format!(
                    "conflict set: the index selects {:?}, the scan {:?}",
                    top, scan
                ));
            }
        }
        Ok(())
    }

    /// Quarantine (or re-admit) every instantiation of `rule`. Quarantined
    /// entries remain in the set with live refraction state; they are only
    /// excluded from [`Self::select`].
    pub fn set_rule_quarantined(&mut self, rule: RuleId, quarantined: bool) {
        let changed = if quarantined {
            self.quarantined.insert(rule)
        } else {
            self.quarantined.remove(&rule)
        };
        if changed {
            for (key, e) in &mut self.items {
                if key.rule() == rule && !e.touched {
                    e.touched = true;
                    self.touched.push(key.clone());
                }
            }
        }
    }

    /// Is `rule` currently quarantined?
    pub fn is_rule_quarantined(&self, rule: RuleId) -> bool {
        self.quarantined.contains(&rule)
    }

    /// Rules currently quarantined, in no particular order.
    pub fn quarantined_rules(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.quarantined.iter().copied()
    }

    /// Count of unrefracted entries belonging to quarantined rules — work
    /// the engine *would* do if the rules were re-admitted. A quiescent run
    /// with this non-zero stopped because of quarantine, not true
    /// quiescence.
    pub fn quarantined_fireable(&self) -> usize {
        self.items
            .values()
            .filter(|e| {
                !self.is_refracted(&e.item) && self.quarantined.contains(&e.item.key.rule())
            })
            .count()
    }

    /// Keys of entries that are currently refracted (fired at or above
    /// their current version). This is exactly the refraction state a
    /// checkpoint must carry: keys absent from the set need no memory,
    /// and dead `fired` entries for keys no longer in the set are
    /// irrelevant by construction.
    pub fn refracted_keys(&self) -> Vec<&InstKey> {
        self.items
            .values()
            .filter(|e| self.is_refracted(&e.item))
            .map(|e| &e.item.key)
            .collect()
    }

    /// Current content version of the entry under `key`, if present.
    pub fn version_of(&self, key: &InstKey) -> Option<u64> {
        self.items.get(key).map(|e| e.item.version)
    }

    /// Entries selection has looked at so far: one per queued key a settle
    /// took (re-keyed or skipped), every entry of a full re-key, and one
    /// per read of the index's top. Linear in the changes between selects,
    /// where a scanning select would visit the whole set each time.
    pub fn index_visits(&self) -> u64 {
        self.visits
    }

    /// Count of unrefracted (fireable) entries.
    pub fn fireable(&self) -> usize {
        self.items
            .values()
            .filter(|e| !self.is_refracted(&e.item))
            .count()
    }

    /// Mark the entry under `key`, if present, for re-keying at the next
    /// settle.
    fn touch(&mut self, key: &InstKey) {
        if let Some(e) = self.items.get_mut(key) {
            if !e.touched {
                e.touched = true;
                self.queue(key.clone());
            }
        }
    }

    /// Queue a freshly touched entry's key. Keys of entries removed before
    /// they settled stay queued until the next settle, so a stream of
    /// changes with no select between them settles early once the queue
    /// outgrows the set.
    fn queue(&mut self, key: InstKey) {
        self.touched.push(key);
        if self.touched.len() > 2 * self.items.len() + 64 {
            self.settle();
        }
    }

    fn unfile(&mut self, filed: Option<SortKey>) {
        if let Some(k) = filed {
            self.index.remove(&k);
        }
    }

    /// Re-key every touched entry under `keyed_for`.
    fn settle(&mut self) {
        let mut queue = std::mem::take(&mut self.touched);
        self.visits += queue.len() as u64;
        for key in queue.drain(..) {
            let Some(e) = self.items.get_mut(&key) else {
                continue;
            };
            if !e.touched {
                continue;
            }
            e.touched = false;
            let want = wanted(self.keyed_for, &self.fired, &self.quarantined, e);
            if e.filed != want {
                if let Some(old) = e.filed.take() {
                    self.index.remove(&old);
                }
                if let Some(k) = want {
                    self.index.insert(k.clone(), key);
                    e.filed = Some(k);
                }
            }
        }
        self.touched = queue;
    }

    /// Rebuild the whole index under `strategy`.
    fn rekey_all(&mut self, strategy: Strategy) {
        self.keyed_for = strategy;
        self.visits += self.items.len() as u64;
        self.index.clear();
        self.touched.clear();
        for (key, e) in &mut self.items {
            e.touched = false;
            e.filed = wanted(strategy, &self.fired, &self.quarantined, e);
            if let Some(k) = &e.filed {
                self.index.insert(k.clone(), key.clone());
            }
        }
    }
}

/// May `item` be selected: unrefracted and its rule not quarantined?
fn eligible(
    fired: &FxHashMap<InstKey, u64>,
    quarantined: &FxHashSet<RuleId>,
    item: &ConflictItem,
) -> bool {
    !refracted(fired, item) && (quarantined.is_empty() || !quarantined.contains(&item.key.rule()))
}

/// The key `e` belongs under in an index keyed for `strategy`, or `None`
/// when it is not eligible.
fn wanted(
    strategy: Strategy,
    fired: &FxHashMap<InstKey, u64>,
    quarantined: &FxHashSet<RuleId>,
    e: &Entry,
) -> Option<SortKey> {
    eligible(fired, quarantined, &e.item).then(|| sort_key(strategy, e))
}

fn refracted(fired: &FxHashMap<InstKey, u64>, item: &ConflictItem) -> bool {
    fired.get(&item.key).is_some_and(|&v| v >= item.version)
}

fn sort_key(strategy: Strategy, e: &Entry) -> SortKey {
    SortKey {
        first: match strategy {
            Strategy::Lex => TimeTag::default(),
            Strategy::Mea => e.first,
        },
        recency: e.item.recency.clone(),
        specificity: e.item.specificity,
        arrival: e.arrival,
    }
}

/// The scan's comparator (see [`ConflictSet::select_scan`]).
fn compare(strategy: Strategy, a: &Entry, b: &Entry) -> Ordering {
    let ord = match strategy {
        Strategy::Lex => lex(&a.item, &b.item),
        Strategy::Mea => a.first.cmp(&b.first).then_with(|| lex(&a.item, &b.item)),
    };
    // Deterministic final tie-break: later arrival dominates.
    ord.then_with(|| a.arrival.cmp(&b.arrival))
}

/// OPS5 LEX: compare descending-sorted tag lists lexicographically (the
/// matcher precomputed `recency`), then specificity.
fn lex(a: &ConflictItem, b: &ConflictItem) -> Ordering {
    a.recency
        .iter()
        .zip(b.recency.iter())
        .map(|(x, y)| x.cmp(y))
        .find(|o| *o != Ordering::Equal)
        .unwrap_or_else(|| a.recency.len().cmp(&b.recency.len()))
        .then_with(|| a.specificity.cmp(&b.specificity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, Just, ProptestConfig};
    use proptest::strategy::Strategy as _;
    use sorete_base::{RuleId, Value};

    fn item(rule: u32, tags: &[u64], specificity: u32, version: u64) -> ConflictItem {
        let t: Vec<TimeTag> = tags.iter().map(|&x| TimeTag::new(x)).collect();
        let mut rec = t.clone();
        rec.sort_unstable_by(|a, b| b.cmp(a));
        ConflictItem {
            key: InstKey::Tuple {
                rule: RuleId::new(rule as usize),
                tags: t.clone().into(),
            },
            rows: vec![t.into()],
            aggregates: vec![Value::Int(0)],
            version,
            recency: rec.into(),
            specificity,
        }
    }

    #[test]
    fn lex_prefers_recency() {
        let mut cs = ConflictSet::new();
        cs.apply(CsDelta::Insert(item(0, &[1, 2], 2, 0)));
        cs.apply(CsDelta::Insert(item(1, &[1, 3], 2, 0)));
        let (sel, _) = cs.select(Strategy::Lex).unwrap();
        assert_eq!(sel.key.rule(), RuleId::new(1));
    }

    #[test]
    fn lex_specificity_breaks_ties() {
        let mut cs = ConflictSet::new();
        cs.apply(CsDelta::Insert(item(0, &[5], 1, 0)));
        cs.apply(CsDelta::Insert(item(1, &[5], 9, 0)));
        let (sel, _) = cs.select(Strategy::Lex).unwrap();
        assert_eq!(sel.key.rule(), RuleId::new(1));
    }

    #[test]
    fn longer_recency_dominates_equal_prefix() {
        let mut cs = ConflictSet::new();
        cs.apply(CsDelta::Insert(item(0, &[5], 1, 0)));
        cs.apply(CsDelta::Insert(item(1, &[5, 2], 1, 0)));
        assert_eq!(
            cs.select(Strategy::Lex).unwrap().0.key.rule(),
            RuleId::new(1)
        );
    }

    #[test]
    fn mea_prefers_first_ce_recency() {
        let mut cs = ConflictSet::new();
        // LEX would pick rule 0 (tag 9); MEA looks at the first CE only.
        cs.apply(CsDelta::Insert(item(0, &[1, 9], 1, 0)));
        cs.apply(CsDelta::Insert(item(1, &[2, 3], 1, 0)));
        assert_eq!(
            cs.select(Strategy::Lex).unwrap().0.key.rule(),
            RuleId::new(0)
        );
        assert_eq!(
            cs.select(Strategy::Mea).unwrap().0.key.rule(),
            RuleId::new(1)
        );
    }

    #[test]
    fn refraction_blocks_refire_until_version_changes() {
        let mut cs = ConflictSet::new();
        let it = item(0, &[4], 1, 1);
        cs.apply(CsDelta::Insert(it.clone()));
        assert_eq!(cs.fireable(), 1);
        cs.mark_fired(&it.key, it.version);
        assert_eq!(cs.fireable(), 0);
        assert!(cs.select(Strategy::Lex).is_none());
        // The SOI changes → version bumps → eligible again (§6).
        let updated = item(0, &[4], 1, 2);
        cs.apply(CsDelta::Retime(sorete_base::RetimeInfo {
            key: updated.key.clone(),
            version: updated.version,
            recency: updated.recency.clone(),
            first: updated.first_tag(),
        }));
        assert_eq!(cs.fireable(), 1);
        let (_, stale) = cs.select(Strategy::Lex).unwrap();
        assert!(stale, "rows must be re-materialized before firing");
    }

    #[test]
    fn full_ties_break_by_arrival() {
        let mut cs = ConflictSet::new();
        // Same recency, same specificity, different rules: the later
        // arrival wins deterministically.
        cs.apply(CsDelta::Insert(item(0, &[7], 3, 0)));
        cs.apply(CsDelta::Insert(item(1, &[7], 3, 0)));
        assert_eq!(
            cs.select(Strategy::Lex).unwrap().0.key.rule(),
            RuleId::new(1)
        );
    }

    #[test]
    fn retime_of_absent_key_is_ignored() {
        let mut cs = ConflictSet::new();
        let ghost = item(0, &[1], 1, 5);
        cs.apply(CsDelta::Retime(sorete_base::RetimeInfo {
            key: ghost.key.clone(),
            version: ghost.version,
            recency: ghost.recency.clone(),
            first: ghost.first_tag(),
        }));
        assert!(cs.is_empty());
    }

    #[test]
    fn journal_restores_refraction_after_rollback() {
        let mut cs = ConflictSet::new();
        let a = item(0, &[1], 1, 0);
        let b = item(1, &[2], 1, 0);
        cs.apply(CsDelta::Insert(a.clone()));
        cs.apply(CsDelta::Insert(b.clone()));
        // b fired long ago; a is about to fire under a journal.
        cs.mark_fired(&b.key, 0);
        assert_eq!(cs.fireable(), 1);
        cs.begin_journal();
        cs.mark_fired(&a.key, 0);
        // The aborted firing removed b's WME: refraction for b is cleared.
        cs.apply(CsDelta::Remove(b.key.clone()));
        let journal = cs.take_journal();
        // Rollback replay re-derives b...
        cs.apply(CsDelta::Insert(b.clone()));
        assert_eq!(cs.fireable(), 1, "b forgot it fired");
        // ...and the journal restores both: a unfired, b refracted.
        cs.restore_fired(journal);
        assert_eq!(cs.fireable(), 1);
        assert_eq!(
            cs.select(Strategy::Lex).unwrap().0.key.rule(),
            RuleId::new(0)
        );
        // First-touch-wins: mark_fired then Remove of the same key keeps
        // the pre-journal value, not the intermediate one.
        assert!(!cs.is_refracted(&a));
    }

    #[test]
    fn no_journal_means_no_overhead_and_empty_take() {
        let mut cs = ConflictSet::new();
        let a = item(0, &[1], 1, 0);
        cs.apply(CsDelta::Insert(a.clone()));
        cs.mark_fired(&a.key, 0);
        assert!(cs.take_journal().is_empty());
    }

    #[test]
    fn quarantine_excludes_from_select_but_keeps_state() {
        let mut cs = ConflictSet::new();
        let hot = item(0, &[9], 1, 0);
        let cold = item(1, &[1], 1, 0);
        cs.apply(CsDelta::Insert(hot.clone()));
        cs.apply(CsDelta::Insert(cold.clone()));
        // Rule 0 dominates on recency...
        assert_eq!(
            cs.select(Strategy::Lex).unwrap().0.key.rule(),
            RuleId::new(0)
        );
        // ...until quarantined, when selection falls to rule 1.
        cs.set_rule_quarantined(RuleId::new(0), true);
        assert!(cs.is_rule_quarantined(RuleId::new(0)));
        assert_eq!(
            cs.select(Strategy::Lex).unwrap().0.key.rule(),
            RuleId::new(1)
        );
        assert_eq!(cs.quarantined_fireable(), 1);
        // With rule 1 exhausted only quarantined work remains: select sees
        // quiescence, quarantined_fireable reports the suppressed entry.
        cs.mark_fired(&cold.key, cold.version);
        assert!(cs.select(Strategy::Lex).is_none());
        assert_eq!(cs.fireable(), 1, "fireable counts ignore quarantine");
        assert_eq!(cs.quarantined_fireable(), 1);
        // Re-admission restores the preserved entry verbatim.
        cs.set_rule_quarantined(RuleId::new(0), false);
        assert_eq!(
            cs.select(Strategy::Lex).unwrap().0.key.rule(),
            RuleId::new(0)
        );
        assert_eq!(cs.quarantined_fireable(), 0);
    }

    #[test]
    fn leaving_clears_refraction() {
        let mut cs = ConflictSet::new();
        let it = item(0, &[4], 1, 0);
        cs.apply(CsDelta::Insert(it.clone()));
        cs.mark_fired(&it.key, 0);
        cs.apply(CsDelta::Remove(it.key.clone()));
        cs.apply(CsDelta::Insert(it.clone()));
        assert_eq!(cs.fireable(), 1, "re-derived instantiation may fire again");
    }

    #[test]
    fn mea_ranks_a_retimed_entry_by_the_head_its_time_token_carries() {
        let mut cs = ConflictSet::new();
        // The SOI last materialized with head t3; a tuple whose first CE
        // matched t5 outranks that under MEA.
        let soi = item(0, &[3], 1, 1);
        cs.apply(CsDelta::Insert(soi.clone()));
        cs.apply(CsDelta::Insert(item(1, &[5, 2], 1, 0)));
        assert_eq!(
            cs.select(Strategy::Mea).unwrap().0.key.rule(),
            RuleId::new(1)
        );
        // A `time` token moves the SOI's head to t7 without new rows: it is
        // ranked by t7, not by the t3 its stale rows still show.
        cs.apply(CsDelta::Retime(sorete_base::RetimeInfo {
            key: soi.key.clone(),
            version: 2,
            recency: vec![TimeTag::new(7)].into(),
            first: TimeTag::new(7),
        }));
        let (sel, stale) = cs.select(Strategy::Mea).unwrap();
        assert_eq!(sel.key, soi.key);
        assert!(stale);
        assert_eq!(
            cs.select_scan(Strategy::Mea).map(|(i, _)| &i.key),
            Some(&soi.key)
        );
    }

    #[test]
    fn validate_names_the_entry_whose_key_diverged() {
        let mut cs = ConflictSet::new();
        for (rule, tag) in [(0, 4), (1, 6), (2, 5)] {
            cs.apply(CsDelta::Insert(item(rule, &[tag], 1, 0)));
        }
        cs.select(Strategy::Lex);
        cs.validate().unwrap();
        // Change a settled entry behind the index's back.
        let victim = item(2, &[5], 1, 0).key;
        cs.items.get_mut(&victim).unwrap().item.specificity += 1;
        let err = cs.validate().unwrap_err();
        assert!(err.contains(&format!("{:?}", victim)), "{err}");
        // Touching it (as every mutation does) makes the next select
        // re-key it, and the index agrees again.
        cs.touch(&victim);
        cs.select(Strategy::Lex);
        cs.validate().unwrap();
        // An index key no entry claims is named too.
        let ghost = item(3, &[9], 1, 0);
        cs.index.insert(
            SortKey {
                first: TimeTag::default(),
                recency: ghost.recency.clone(),
                specificity: 1,
                arrival: 99,
            },
            ghost.key.clone(),
        );
        let err = cs.validate().unwrap_err();
        assert!(err.contains(&format!("{:?}", ghost.key)), "{err}");
    }

    /// 200 000 entries fired one by one until none is left. Each `select`
    /// settles the one entry the last `mark_fired` touched and reads the
    /// top, so the loop visits 3·n + 1 entries: n settled after the
    /// inserts, n re-keyed after firings, n + 1 top reads. A select that
    /// scans (or re-keys) the whole set visits ≈ n²/2 ≈ 2·10¹⁰.
    #[test]
    fn select_until_empty_is_not_quadratic_at_200_000_entries() {
        const N: u64 = 200_000;
        let mut cs = ConflictSet::new();
        for t in 1..=N {
            cs.apply(CsDelta::Insert(item((t % 7) as u32, &[t], 1, 0)));
        }
        assert_eq!(cs.index_visits(), 0, "applying deltas only queues");
        // The first select settles every insert.
        let mut expected = N;
        let mut next = N;
        while let Some((sel, _)) = cs.select(Strategy::Lex) {
            assert_eq!(sel.recency[0], TimeTag::new(next), "most recent first");
            let (key, version) = (sel.key.clone(), sel.version);
            // One top read; checked per select, so a scanning select fails
            // at the second one rather than after 2·10¹⁰ visits.
            expected += 1;
            assert_eq!(cs.index_visits(), expected, "select for t{next}");
            cs.mark_fired(&key, version);
            // The fired entry, re-keyed by the next select.
            expected += 1;
            next -= 1;
        }
        assert_eq!(next, 0, "every entry fired once");
        assert_eq!(cs.index_visits(), expected + 1, "the last, empty read");
        assert_eq!(expected + 1, 3 * N + 1);
    }

    // ------------------------------------------------------------------
    // The index and the scan against a spec-level reference.

    /// One conflict-set entry as OPS5 sees it.
    #[derive(Clone, Debug)]
    struct Spec {
        key: InstKey,
        /// The instantiation's time tags, most recent first.
        recency: Vec<u64>,
        /// Time tag of the WME matching the first CE.
        first: u64,
        specificity: u32,
        version: u64,
        arrival: u64,
    }

    /// OPS5 conflict resolution as the manual states it, sharing no code
    /// with the set. LEX: compare the two tag lists, most recent first,
    /// at the first position where they differ; if one list runs out
    /// first, the longer dominates; then the more specific LHS; then (our
    /// deterministic rule) the later arrival. MEA: first the more recent
    /// first-CE tag, then LEX.
    fn ops5(strategy: Strategy, a: &Spec, b: &Spec) -> Ordering {
        if strategy == Strategy::Mea && a.first != b.first {
            return a.first.cmp(&b.first);
        }
        let mut i = 0;
        loop {
            match (a.recency.get(i), b.recency.get(i)) {
                (Some(x), Some(y)) if x != y => return x.cmp(y),
                (Some(_), Some(_)) => i += 1,
                (Some(_), None) => return Ordering::Greater,
                (None, Some(_)) => return Ordering::Less,
                (None, None) => break,
            }
        }
        a.specificity
            .cmp(&b.specificity)
            .then(a.arrival.cmp(&b.arrival))
    }

    /// Entries, refraction, the journal and quarantine as plain ordered
    /// maps; `select` sorts every eligible entry.
    #[derive(Default)]
    struct Reference {
        entries: BTreeMap<InstKey, Spec>,
        fired: BTreeMap<InstKey, u64>,
        journal: Option<BTreeMap<InstKey, Option<u64>>>,
        stash: BTreeMap<InstKey, Option<u64>>,
        quarantined: std::collections::BTreeSet<RuleId>,
        arrivals: u64,
    }

    impl Reference {
        fn set_fired(&mut self, key: &InstKey, v: Option<u64>) {
            if let Some(j) = &mut self.journal {
                j.entry(key.clone()).or_insert(self.fired.get(key).copied());
            }
            match v {
                Some(v) => self.fired.insert(key.clone(), v),
                None => self.fired.remove(key),
            };
        }

        fn select(&self, strategy: Strategy) -> Option<InstKey> {
            let mut eligible: Vec<&Spec> = self
                .entries
                .values()
                .filter(|s| self.fired.get(&s.key).is_none_or(|&v| v < s.version))
                .filter(|s| !self.quarantined.contains(&s.key.rule()))
                .collect();
            eligible.sort_by(|a, b| ops5(strategy, a, b));
            eligible.last().map(|s| s.key.clone())
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// `+` token for key `k`: tags in CE order, specificity, version.
        Insert(usize, Vec<u64>, u32, u64),
        Remove(usize),
        /// A burst of `time` tokens on key `k`, each bumping the version
        /// and moving the head to the given tags.
        Retimes(usize, Vec<Vec<u64>>),
        /// `mark_fired` at the current version (0 when absent).
        Fire(usize),
        BeginJournal,
        /// `take_journal`, kept aside for a later `Restore`.
        TakeJournal,
        Restore,
        EndJournal,
        Quarantine(usize, bool),
        /// Flip the switching lane's strategy.
        Switch,
    }

    const KEYS: usize = 8;
    const RULES: usize = 3;

    fn key(k: usize) -> InstKey {
        InstKey::Tuple {
            rule: RuleId::new(k % RULES),
            tags: vec![TimeTag::new(1000 + k as u64)].into(),
        }
    }

    /// Few distinct tags, so recency and first-CE ties are common.
    fn tags() -> impl proptest::strategy::Strategy<Value = Vec<u64>> {
        proptest::collection::vec(1u64..12, 1..4)
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        proptest::prop_oneof![
            8 => (0..KEYS, tags(), 0u32..3, 0u64..3)
                .prop_map(|(k, t, s, v)| Op::Insert(k, t, s, v)),
            3 => (0..KEYS).prop_map(Op::Remove),
            4 => (0..KEYS, proptest::collection::vec(tags(), 1..6))
                .prop_map(|(k, b)| Op::Retimes(k, b)),
            6 => (0..KEYS).prop_map(Op::Fire),
            1 => Just(Op::BeginJournal),
            1 => Just(Op::TakeJournal),
            1 => Just(Op::Restore),
            1 => Just(Op::EndJournal),
            1 => (0..RULES, any::<bool>()).prop_map(|(r, q)| Op::Quarantine(r, q)),
            1 => Just(Op::Switch),
        ]
    }

    fn descending(tags: &[u64]) -> Vec<u64> {
        let mut d = tags.to_vec();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }

    fn item_for(k: usize, tags: &[u64], specificity: u32, version: u64) -> ConflictItem {
        let row: Box<[TimeTag]> = tags.iter().map(|&t| TimeTag::new(t)).collect();
        ConflictItem {
            key: key(k),
            rows: vec![row],
            aggregates: Vec::new(),
            version,
            recency: descending(tags).into_iter().map(TimeTag::new).collect(),
            specificity,
        }
    }

    /// One conflict set fed the op stream, selecting under `strategy`
    /// every `every` ops; `switches` lanes flip strategy on `Op::Switch`.
    struct Lane {
        cs: ConflictSet,
        strategy: Strategy,
        every: usize,
        switches: bool,
        stash: FxHashMap<InstKey, Option<u64>>,
    }

    impl Lane {
        fn new(strategy: Strategy, every: usize, switches: bool) -> Lane {
            Lane {
                cs: ConflictSet::new(),
                strategy,
                every,
                switches,
                stash: FxHashMap::default(),
            }
        }
    }

    fn run_op(op: &Op, lanes: &mut [Lane], r: &mut Reference) {
        match op {
            Op::Insert(k, tags, specificity, version) => {
                let it = item_for(*k, tags, *specificity, *version);
                for l in lanes.iter_mut() {
                    l.cs.apply(CsDelta::Insert(it.clone()));
                }
                r.arrivals += 1;
                let spec = Spec {
                    key: key(*k),
                    recency: descending(tags),
                    first: tags[0],
                    specificity: *specificity,
                    version: *version,
                    arrival: r.arrivals,
                };
                r.entries.insert(key(*k), spec);
            }
            Op::Remove(k) => {
                for l in lanes.iter_mut() {
                    l.cs.apply(CsDelta::Remove(key(*k)));
                }
                r.entries.remove(&key(*k));
                r.set_fired(&key(*k), None);
            }
            Op::Retimes(k, burst) => {
                for tags in burst {
                    let version = r.entries.get(&key(*k)).map_or(1, |s| s.version + 1);
                    let info = sorete_base::RetimeInfo {
                        key: key(*k),
                        version,
                        recency: descending(tags).into_iter().map(TimeTag::new).collect(),
                        first: TimeTag::new(tags[0]),
                    };
                    for l in lanes.iter_mut() {
                        l.cs.apply(CsDelta::Retime(info.clone()));
                    }
                    r.arrivals += 1;
                    if let Some(s) = r.entries.get_mut(&key(*k)) {
                        s.version = version;
                        s.recency = descending(tags);
                        s.first = tags[0];
                        s.arrival = r.arrivals;
                    }
                }
            }
            Op::Fire(k) => {
                let version = r.entries.get(&key(*k)).map_or(0, |s| s.version);
                for l in lanes.iter_mut() {
                    l.cs.mark_fired(&key(*k), version);
                }
                r.set_fired(&key(*k), Some(version));
            }
            Op::BeginJournal => {
                for l in lanes.iter_mut() {
                    l.cs.begin_journal();
                }
                r.journal = Some(BTreeMap::new());
            }
            Op::TakeJournal => {
                for l in lanes.iter_mut() {
                    l.stash = l.cs.take_journal();
                }
                r.stash = r.journal.take().unwrap_or_default();
            }
            Op::Restore => {
                for l in lanes.iter_mut() {
                    l.cs.restore_fired(std::mem::take(&mut l.stash));
                }
                for (key, v) in std::mem::take(&mut r.stash) {
                    match v {
                        Some(v) => r.fired.insert(key, v),
                        None => r.fired.remove(&key),
                    };
                }
            }
            Op::EndJournal => {
                for l in lanes.iter_mut() {
                    l.cs.end_journal();
                }
                r.journal = None;
            }
            Op::Quarantine(rule, q) => {
                for l in lanes.iter_mut() {
                    l.cs.set_rule_quarantined(RuleId::new(*rule), *q);
                }
                if *q {
                    r.quarantined.insert(RuleId::new(*rule));
                } else {
                    r.quarantined.remove(&RuleId::new(*rule));
                }
            }
            Op::Switch => {
                for l in lanes.iter_mut().filter(|l| l.switches) {
                    l.strategy = match l.strategy {
                        Strategy::Lex => Strategy::Mea,
                        Strategy::Mea => Strategy::Lex,
                    };
                }
            }
        }
    }

    fn check(lane: &mut Lane, r: &Reference, step: usize, op: &Op) {
        let s = lane.strategy;
        let scan = lane
            .cs
            .select_scan(s)
            .map(|(i, stale)| (i.key.clone(), stale));
        let index = lane.cs.select(s).map(|(i, stale)| (i.key.clone(), stale));
        assert_eq!(index, scan, "op {step} {op:?}: index vs scan under {s:?}");
        assert_eq!(
            index.map(|(k, _)| k),
            r.select(s),
            "op {step} {op:?}: index vs reference under {s:?}"
        );
        if let Err(e) = lane.cs.validate() {
            panic!("op {step} {op:?}: settled index: {e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn index_matches_scan_and_reference(
            ops in proptest::collection::vec(op_strategy(), 1..150)
        ) {
            // LEX and MEA select after every op; the third lane switches
            // strategy mid-stream; the fourth selects every fifth op, so
            // touches (and removals of touched entries) pile up between
            // its selects.
            let mut lanes = [
                Lane::new(Strategy::Lex, 1, false),
                Lane::new(Strategy::Mea, 1, false),
                Lane::new(Strategy::Lex, 1, true),
                Lane::new(Strategy::Mea, 5, false),
            ];
            let mut r = Reference::default();
            for (step, op) in ops.iter().enumerate() {
                run_op(op, &mut lanes, &mut r);
                for lane in lanes.iter_mut() {
                    if let Err(e) = lane.cs.validate() {
                        panic!("op {step} {op:?}: unsettled index: {e}");
                    }
                    if (step + 1) % lane.every == 0 {
                        check(lane, &r, step, op);
                    }
                }
            }
        }
    }
}
