//! The conflict set and OPS5 conflict-resolution strategies.
//!
//! The set is maintained from matcher deltas (`+`/`-`/`time` tokens).
//! Refraction records *which version* of an entry fired: a regular
//! instantiation fires once per appearance, while an SOI whose contents
//! change (version bump carried by a `time` token) becomes eligible to fire
//! again — "if any part of the instantiation changes, the instantiation is
//! again eligible to fire" (paper §6).
//!
//! Entries live in a slab under a dense [`EntryId`]: the index, the touched
//! queue and the rollback journal hold ids and refraction lives in the
//! entry, so firing an entry and letting it leave copy no key.
//!
//! The set is ordered: every *eligible* entry (unrefracted, rule not
//! quarantined) is filed in a `BTreeMap` under its sort key for the current
//! strategy, and [`ConflictSet::select`] reads the last one. A mutation only
//! *touches* its entry — O(1), once per entry between two selects — and
//! `select` first settles the touched entries, one re-key each, so a burst
//! of `time` tokens on one growing SOI costs one re-key, not one per token.
//! The linear scan survives as [`ConflictSet::select_scan`], the oracle that
//! [`ConflictSet::validate`] and the tests compare the index against.

use sorete_base::{ConflictItem, CsDelta, FxHashMap, FxHashSet, InstKey, RuleId, Tags, TimeTag};
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

/// A conflict-set entry's handle: its slab slot and the slot's generation,
/// so the handle of an entry that left never reaches the slot's next one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EntryId(u32, u32);

/// The conflict set.
#[derive(Default)]
pub struct ConflictSet {
    items: FxHashMap<InstKey, EntryId>,
    /// Entries by slot; the freed slots' last ids are in `free`.
    slab: Vec<Option<Entry>>,
    free: Vec<EntryId>,
    /// The eligible entries under their sort key for `keyed_for`; the last
    /// key is the dominant instantiation. Exact only once settled.
    index: BTreeMap<SortKey, EntryId>,
    /// The strategy `index` is keyed for.
    keyed_for: Strategy,
    /// Entries touched since the last settle, each queued once (the
    /// entry's `touched` flag dedupes); one that left since is skipped.
    touched: Vec<EntryId>,
    /// Entries selection has looked at (see [`Self::index_visits`]).
    visits: u64,
    /// Monotonic arrival counter for deterministic final tie-breaks.
    arrivals: u64,
    /// While `journaling`, every refraction change and every entry that
    /// leaves, so a rollback restores refraction exactly (buffer reused).
    journal: Vec<Undo>,
    journaling: bool,
    /// Refraction of keys with no entry (a [`Self::mark_fired`] or a
    /// restore of an absent key); an entry arriving under one takes it over.
    orphans: FxHashMap<InstKey, u64>,
    /// Rules under supervisor quarantine: their instantiations stay, with
    /// their refraction, but [`Self::select`] skips them until re-admitted.
    quarantined: FxHashSet<RuleId>,
}

struct Entry {
    id: EntryId,
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
    /// Refraction: the version that fired, if any.
    fired: Option<u64>,
}

/// A journal record: an entry's (or, with no `id`, an orphan's) refraction
/// before a change and, when the entry leaves, its key.
struct Undo {
    id: Option<EntryId>,
    key: Option<InstKey>,
    prior: Option<u64>,
}

/// An entry's position under one strategy. The derived `Ord` compares the
/// fields in order; slice `Ord` on `recency` is OPS5 LEX (element-wise,
/// then the longer list dominates). `arrival` is unique, so keys never tie.
/// `recency` shares the entry's buffer, so filing a key copies no tag.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SortKey {
    /// MEA's first-CE tag; zero under LEX.
    first: TimeTag,
    recency: Tags,
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
        self.arrivals += 1;
        let arrival = self.arrivals;
        match delta {
            CsDelta::Insert(item) => {
                let first = item.first_tag();
                if let Some(&id) = self.items.get(&item.key) {
                    // A replaced entry keeps its slot and its refraction.
                    let e = self.entry_mut(id);
                    (e.item, e.first, e.arrival, e.stale) = (item, first, arrival, false);
                    let filed = e.filed.take();
                    self.unfile(filed);
                    return self.touch(id);
                }
                let orphan = (!self.orphans.is_empty()).then(|| self.orphans.remove(&item.key));
                let id = match self.free.pop() {
                    Some(EntryId(slot, gen)) => EntryId(slot, gen.wrapping_add(1)),
                    None => {
                        self.slab.push(None);
                        EntryId(self.slab.len() as u32 - 1, 0)
                    }
                };
                self.items.insert(item.key.clone(), id);
                self.slab[id.0 as usize] = Some(Entry {
                    id,
                    item,
                    arrival,
                    stale: false,
                    first,
                    filed: None,
                    touched: false,
                    fired: orphan.flatten(),
                });
                self.touch(id);
            }
            // Leaving the conflict set clears refraction: if the same
            // instantiation is ever re-derived it may fire again.
            CsDelta::Remove(key) => match self.items.remove_entry(&key) {
                Some((key, id)) => {
                    let e = self.slab[id.0 as usize].take().expect("live");
                    self.free.push(id);
                    self.unfile(e.filed);
                    // The journal takes over the key, so a restore finds
                    // the entry a rollback re-derives.
                    self.record(Some(id), Some(key), e.fired);
                }
                None => {
                    if let Some(v) = self.orphans.remove(&key) {
                        self.record(None, Some(key), Some(v));
                    }
                }
            },
            CsDelta::Retime(info) => {
                // The paper's pointer semantics: the entry is updated in
                // place; only its position/version metadata travels.
                if let Some(&id) = self.items.get(&info.key) {
                    let e = self.entry_mut(id);
                    (e.item.version, e.item.recency) = (info.version, info.recency);
                    (e.first, e.arrival, e.stale) = (info.first, arrival, true);
                    self.touch(id);
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

    /// Entries in no particular order, with their stale flags.
    pub fn items(&self) -> impl ExactSizeIterator<Item = (&ConflictItem, bool)> {
        self.items.values().map(|&id| self.get(id).expect("live"))
    }

    /// The entry under `id`, with its stale flag, while it is in the set.
    pub fn get(&self, id: EntryId) -> Option<(&ConflictItem, bool)> {
        self.entry(id).map(|e| (&e.item, e.stale))
    }

    /// Record that the entry under `key` fired (at `version`).
    pub fn mark_fired(&mut self, key: &InstKey, version: u64) {
        match self.items.get(key) {
            Some(&id) => self.fire(id, version),
            None => {
                let prior = self.orphans.insert(key.clone(), version);
                self.record(None, Some(key.clone()), prior);
            }
        }
    }

    /// Record that the entry under `id` fired (at `version`).
    pub fn fire(&mut self, id: EntryId, version: u64) {
        let prior = self.entry_mut(id).fired.replace(version);
        self.record(Some(id), None, prior);
        self.touch(id);
    }

    /// The key of the entry under `id`: in the set or, when the entry left
    /// while the journal was open, in its journal record.
    pub fn key_of(&self, id: EntryId) -> Option<&InstKey> {
        let mut undo = self.journal.iter().filter(|u| u.id == Some(id));
        let left = || undo.find_map(|u| u.key.as_ref());
        self.entry(id).map(|e| &e.item.key).or_else(left)
    }

    /// Start recording refraction changes. Call before a firing whose
    /// effects may need to be rolled back.
    pub fn begin_journal(&mut self) {
        self.end_journal();
        self.journaling = true;
    }

    /// Close the journal, returning the prior refraction values by key (a
    /// key's first record wins); empty when no journal was open.
    pub fn take_journal(&mut self) -> FxHashMap<InstKey, Option<u64>> {
        let mut prior = FxHashMap::default();
        for u in &self.journal {
            // A keyless record's entry left later, or is still in the set.
            if let Some(key) = u.key.as_ref().or_else(|| self.key_of(u.id?)) {
                prior.entry(key.clone()).or_insert(u.prior);
            }
        }
        self.end_journal();
        prior
    }

    /// Discard the journal (the firing committed; nothing to undo).
    pub fn end_journal(&mut self) {
        self.journaling = false;
        self.journal.clear();
    }

    fn record(&mut self, id: Option<EntryId>, key: Option<InstKey>, prior: Option<u64>) {
        if self.journaling {
            self.journal.push(Undo { id, key, prior });
        }
    }

    /// Restore refraction captured by [`Self::take_journal`] *after* the
    /// rollback was replayed through the matcher, so re-derived entries
    /// regain their pre-firing refraction.
    pub fn restore_fired(&mut self, prior: FxHashMap<InstKey, Option<u64>>) {
        for (key, value) in prior {
            let Some(&id) = self.items.get(&key) else {
                match value {
                    Some(v) => self.orphans.insert(key, v),
                    None => self.orphans.remove(&key),
                };
                continue;
            };
            self.entry_mut(id).fired = value;
            self.touch(id);
        }
    }

    /// Is the entry in the set and fired at its current version?
    pub fn is_refracted(&self, item: &ConflictItem) -> bool {
        let e = self.items.get(&item.key).and_then(|&id| self.entry(id));
        e.and_then(|e| e.fired).is_some_and(|v| v >= item.version)
    }

    /// Select the dominant unrefracted entry under `strategy`. The second
    /// component is `true` when the entry's rows are stale (a slim `time`
    /// token arrived) and must be re-materialized before firing.
    pub fn select(&mut self, strategy: Strategy) -> Option<(&ConflictItem, bool)> {
        let id = self.select_id(strategy)?;
        self.get(id)
    }

    /// [`Self::select`]'s entry, by id. Settles the entries touched since
    /// the last call (re-keys the whole index when `strategy` differs from
    /// the last call's), then reads the top of the index.
    pub fn select_id(&mut self, strategy: Strategy) -> Option<EntryId> {
        if strategy == self.keyed_for {
            self.settle();
        } else {
            self.rekey_all(strategy);
        }
        self.visits += 1;
        self.index.last_key_value().map(|(_, &id)| id)
    }

    /// [`Self::select`] by scanning for the greatest sort key: the oracle
    /// the index is checked against ([`Self::validate`] and tests).
    pub fn select_scan(&self, strategy: Strategy) -> Option<(&ConflictItem, bool)> {
        self.entries()
            .filter(|e| eligible(&self.quarantined, e))
            .max_by_key(|e| sort_key(strategy, e))
            .map(|e| (&e.item, e.stale))
    }

    /// Check that every key maps to its own entry and no other is live,
    /// every settled entry is filed under the key its fields give, nothing
    /// else is filed, every touched entry is queued, and — when nothing is
    /// pending — the index's top is the scan's. Names the divergent key.
    pub fn validate(&self) -> Result<(), String> {
        let queued: FxHashSet<EntryId> = self.touched.iter().copied().collect();
        for (key, &id) in &self.items {
            let e = self.entry(id).filter(|e| e.item.key == *key);
            let e = e.ok_or_else(|| format!("conflict set: {key:?} maps to {id:?}"))?;
            let at = e.filed.as_ref().map(|k| self.index.get(k));
            let unmapped = at.is_some_and(|at| at != Some(&id));
            let want = (!e.touched).then(|| wanted(self.keyed_for, &self.quarantined, e));
            let misfiled = want.as_ref().is_some_and(|w| *w != e.filed);
            if unmapped || misfiled || e.touched && !queued.contains(&id) {
                let (filed, touched) = (&e.filed, e.touched);
                let what = format!("filed under {filed:?}, wants {want:?}, touched {touched}");
                return Err(format!("conflict set: {key:?} is {what}"));
            }
        }
        if self.entries().count() != self.items.len() {
            return Err("conflict set: a live slot holds an entry no key maps to".into());
        }
        let stray = |(k, id): &(&SortKey, &EntryId)| {
            self.entry(**id).and_then(|e| e.filed.as_ref()) != Some(*k)
        };
        if let Some((_, id)) = self.index.iter().find(stray) {
            return Err(format!(
                "conflict set: the index files {id:?} under a stray key"
            ));
        }
        let top = || self.key_of(*self.index.last_key_value()?.1);
        let scan = || self.select_scan(self.keyed_for).map(|(item, _)| &item.key);
        if self.touched.is_empty() && top() != scan() {
            let (top, scan) = (top(), scan());
            return Err(format!(
                "conflict set: the index selects {top:?}, the scan {scan:?}"
            ));
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
        for e in self.slab.iter_mut().flatten().filter(|_| changed) {
            if e.item.key.rule() == rule && !std::mem::replace(&mut e.touched, true) {
                self.touched.push(e.id);
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

    /// Count of unrefracted entries of quarantined rules: a quiescent run
    /// with this non-zero stopped because of quarantine.
    pub fn quarantined_fireable(&self) -> usize {
        self.entries()
            .filter(|e| !refracted(e) && self.quarantined.contains(&e.item.key.rule()))
            .count()
    }

    /// Keys of entries that are currently refracted (fired at or above
    /// their current version). This is exactly the refraction state a
    /// checkpoint must carry: keys absent from the set need no memory.
    pub fn refracted_keys(&self) -> Vec<&InstKey> {
        let refracted = self.entries().filter(|e| refracted(e));
        refracted.map(|e| &e.item.key).collect()
    }

    /// Current content version of the entry under `key`, if present.
    pub fn version_of(&self, key: &InstKey) -> Option<u64> {
        self.entry(*self.items.get(key)?).map(|e| e.item.version)
    }

    /// Entries selection has looked at so far: one per queued id a settle
    /// took, every entry of a full re-key, and one per read of the top —
    /// linear in the changes between selects, where a scan is in the set.
    pub fn index_visits(&self) -> u64 {
        self.visits
    }

    /// Count of unrefracted (fireable) entries.
    pub fn fireable(&self) -> usize {
        self.entries().filter(|e| !refracted(e)).count()
    }

    fn entry(&self, id: EntryId) -> Option<&Entry> {
        let e = self.slab.get(id.0 as usize)?.as_ref();
        e.filter(|e| e.id == id)
    }

    fn entry_mut(&mut self, id: EntryId) -> &mut Entry {
        let e = self.slab[id.0 as usize].as_mut();
        e.filter(|e| e.id == id).expect("live entry")
    }

    /// The live entries, in slot order.
    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.slab.iter().flatten()
    }

    /// Queue the entry under `id` for re-keying at the next settle, which
    /// comes early once the queue (departed entries too) outgrows the set.
    fn touch(&mut self, id: EntryId) {
        if !std::mem::replace(&mut self.entry_mut(id).touched, true) {
            self.touched.push(id);
            if self.touched.len() > 2 * self.items.len() + 64 {
                self.settle();
            }
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
        for id in queue.drain(..) {
            let e = self.slab.get_mut(id.0 as usize).and_then(Option::as_mut);
            let Some(e) = e.filter(|e| e.id == id && e.touched) else {
                continue;
            };
            e.touched = false;
            let want = wanted(self.keyed_for, &self.quarantined, e);
            if e.filed != want {
                if let Some(old) = e.filed.take() {
                    self.index.remove(&old);
                }
                if let Some(k) = want {
                    self.index.insert(k.clone(), id);
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
        for e in self.slab.iter_mut().flatten() {
            e.touched = false;
            e.filed = wanted(strategy, &self.quarantined, e);
            if let Some(k) = &e.filed {
                self.index.insert(k.clone(), e.id);
            }
        }
    }
}

/// May `e` be selected: unrefracted and its rule not quarantined?
fn eligible(quarantined: &FxHashSet<RuleId>, e: &Entry) -> bool {
    !refracted(e) && (quarantined.is_empty() || !quarantined.contains(&e.item.key.rule()))
}

/// The key `e` belongs under in an index keyed for `strategy`, or `None`
/// when it is not eligible.
fn wanted(strategy: Strategy, quarantined: &FxHashSet<RuleId>, e: &Entry) -> Option<SortKey> {
    eligible(quarantined, e).then(|| sort_key(strategy, e))
}

fn refracted(e: &Entry) -> bool {
    e.fired.is_some_and(|v| v >= e.item.version)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, Just, ProptestConfig};
    use proptest::strategy::Strategy as _;
    use sorete_base::{Rows, RuleId, Value};
    use std::cmp::Ordering;

    fn item(rule: u32, tags: &[u64], specificity: u32, version: u64) -> ConflictItem {
        let t: Vec<TimeTag> = tags.iter().map(|&x| TimeTag::new(x)).collect();
        let mut rec = t.clone();
        rec.sort_unstable_by(|a, b| b.cmp(a));
        ConflictItem {
            key: InstKey::Tuple {
                rule: RuleId::new(rule as usize),
                tags: t.clone().into(),
            },
            rows: Rows::one(t),
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
        let id = cs.items[&victim];
        cs.entry_mut(id).item.specificity += 1;
        let err = cs.validate().unwrap_err();
        assert!(err.contains(&format!("{:?}", victim)), "{err}");
        // Touching it (as every mutation does) makes the next select
        // re-key it, and the index agrees again.
        cs.touch(id);
        cs.select(Strategy::Lex);
        cs.validate().unwrap();
        // An index key no entry claims is named too.
        let ghost = EntryId(99, 0);
        cs.index.insert(
            SortKey {
                first: TimeTag::default(),
                recency: vec![TimeTag::new(9)].into(),
                specificity: 1,
                arrival: 99,
            },
            ghost,
        );
        let err = cs.validate().unwrap_err();
        assert!(err.contains(&format!("{:?}", ghost)), "{err}");
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
            rows: Rows::one(row),
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
