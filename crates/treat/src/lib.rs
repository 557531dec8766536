#![warn(missing_docs)]
//! The TREAT match algorithm (Miranker 1986) — the paper's contemporaneous
//! alternative to Rete, included as a baseline.
//!
//! TREAT keeps **no beta memories**: it retains only per-CE alpha memories
//! and the conflict set itself. When a WME enters, TREAT *seeks*: it joins
//! the new WME against the other CEs' alpha memories to produce exactly the
//! new instantiations. When a WME leaves, TREAT searches the retained
//! conflict set for instantiations containing it. Negated CEs are handled
//! by conflict-set search (on a blocker's arrival) and re-seek (on a
//! blocker's departure).
//!
//! Set-oriented rules work unchanged: the paper's S-node is deliberately
//! matcher-agnostic, so TREAT feeds its candidate rows through the same
//! [`sorete_soi::SNode`] that Rete uses — demonstrating the paper's claim
//! that the extension touches only "the end of the network".
//!
//! ```
//! use sorete_treat::TreatMatcher;
//! use sorete_lang::{analyze_rule, parse_rule, Matcher};
//! use sorete_base::{Symbol, TimeTag, Value, Wme};
//! use std::sync::Arc;
//!
//! let mut treat = TreatMatcher::new();
//! treat.add_rule(Arc::new(analyze_rule(&parse_rule(
//!     "(p r [item ^k <k>] (halt))").unwrap()).unwrap()));
//! treat.insert_wme(&Wme::new(TimeTag::new(1), Symbol::new("item"),
//!                            vec![(Symbol::new("k"), Value::Int(1))]));
//! assert_eq!(treat.drain_deltas().len(), 1);
//! assert_eq!(treat.stats().tokens_created, 1, "no beta memories: one row, one token");
//! ```

use sorete_base::{
    ConflictItem, CsDelta, FxHashMap, FxHashSet, InstKey, MatchStats, MemoryReport, Rows, RuleId,
    Symbol, TimeTag, TraceEvent, Tracer, Value, Wme,
};
use sorete_lang::analyze::{AnalyzedCe, AnalyzedRule, ConstTest, IntraTest};
use sorete_lang::matcher::Matcher;
use sorete_soi::{SNode, SoiStats};
use std::sync::Arc;

/// Alpha signature of a CE: class + constant + intra-WME tests. CEs with
/// equal signatures share one alpha memory (TREAT shares alpha memories
/// just as Rete does).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CeSignature {
    class: Symbol,
    consts: Vec<ConstTest>,
    intras: Vec<IntraTest>,
}

struct AlphaMem {
    sig: CeSignature,
    wmes: Vec<TimeTag>,
    /// Subscribers: (rule index, CE-order index).
    subs: Vec<(usize, usize)>,
}

struct RuleState {
    rule: Arc<AnalyzedRule>,
    id: RuleId,
    /// Alpha memory per CE, in CE order.
    ce_amem: Vec<usize>,
    /// Retained instantiation rows (tags per positive CE).
    rows: FxHashSet<Box<[TimeTag]>>,
    snode: Option<SNode>,
    excised: bool,
}

/// The TREAT matcher.
#[derive(Default)]
pub struct TreatMatcher {
    rules: Vec<RuleState>,
    amems: Vec<AlphaMem>,
    alpha_index: FxHashMap<CeSignature, usize>,
    wmes: FxHashMap<TimeTag, Wme>,
    deltas: Vec<CsDelta>,
    /// Rules whose S-node changed since the last drain, each once: the
    /// drain settles these and no others.
    dirty_snodes: Vec<usize>,
    stats: MatchStats,
    tracer: Tracer,
}

impl TreatMatcher {
    /// An empty matcher.
    pub fn new() -> TreatMatcher {
        TreatMatcher::default()
    }

    /// Alpha memory count (for sharing tests).
    pub fn alpha_count(&self) -> usize {
        self.amems.len()
    }

    /// Combined counters of every S-node — the single source of truth the
    /// snode-related [`MatchStats`] fields are derived from (see
    /// [`SoiStats::merge_into`]).
    pub fn soi_stats(&self) -> SoiStats {
        self.rules
            .iter()
            .filter_map(|rs| rs.snode.as_ref())
            .fold(SoiStats::default(), |acc, sn| acc.merged(&sn.stats()))
    }

    fn sig_matches(&self, sig: &CeSignature, wme: &Wme) -> bool {
        wme.class == sig.class
            && sig.consts.iter().all(|t| t.matches(&wme.get(t.attr)))
            && sig
                .intras
                .iter()
                .all(|t| t.pred.apply(&wme.get(t.attr), &wme.get(t.other_attr)))
    }

    fn ce_matches(&mut self, ce: &AnalyzedCe, wme: &Wme, row: &[TimeTag]) -> bool {
        // Alpha-level tests are pre-filtered by memory membership; only the
        // join (variable consistency) tests remain.
        ce.var_joins.iter().all(|vj| {
            self.stats.join_tests += 1;
            let other = &self.wmes[&row[vj.other_pos_ce]];
            vj.pred.apply(&wme.get(vj.attr), &other.get(vj.other_attr))
        })
    }

    /// Enumerate complete positive rows of rule `ri`.
    ///
    /// - `pin`: fix positive CE `pin.0` (CE-order index) to WME `pin.1`
    ///   (the *seek* of a newly arrived WME);
    /// - `neg_witness`: restrict to rows the WME `neg_witness.1` would have
    ///   blocked at negated CE `neg_witness.0` (used when a blocker leaves).
    fn enumerate(
        &mut self,
        ri: usize,
        pin: Option<(usize, TimeTag)>,
        neg_witness: Option<(usize, TimeTag)>,
    ) -> Vec<Box<[TimeTag]>> {
        self.stats.beta_activations += 1;
        // TREAT has no beta network; the seek itself is the one "beta node"
        // per rule, so physical traces still show where join work happens.
        self.tracer.emit(|| TraceEvent::BetaActivation {
            node: ri as u32,
            kind: "seek",
        });
        let rule = self.rules[ri].rule.clone();
        let ce_amem = self.rules[ri].ce_amem.clone();
        let mut partials: Vec<Vec<TimeTag>> = vec![Vec::new()];
        for (ce_idx, ce) in rule.ces.iter().enumerate() {
            if partials.is_empty() {
                break;
            }
            if ce.negated {
                if let Some((w_idx, w_tag)) = neg_witness {
                    if w_idx == ce_idx {
                        // Filter to rows the witness would have blocked.
                        let w = self.wmes[&w_tag].clone();
                        let mut filtered = Vec::new();
                        for row in std::mem::take(&mut partials) {
                            if self.ce_matches(ce, &w, &row) {
                                filtered.push(row);
                            }
                        }
                        partials = filtered;
                    }
                }
                // Current state: no WME in the CE's memory may block.
                let members = self.amems[ce_amem[ce_idx]].wmes.clone();
                let mut kept = Vec::new();
                for row in std::mem::take(&mut partials) {
                    let mut blocked = false;
                    for t in &members {
                        let w = self.wmes[t].clone();
                        if self.ce_matches(ce, &w, &row) {
                            blocked = true;
                            break;
                        }
                    }
                    if !blocked {
                        kept.push(row);
                    }
                }
                partials = kept;
            } else if let Some((p_idx, p_tag)) = pin.filter(|(p, _)| *p == ce_idx) {
                let _ = p_idx;
                let w = self.wmes[&p_tag].clone();
                let mut kept = Vec::new();
                for row in std::mem::take(&mut partials) {
                    if self.ce_matches(ce, &w, &row) {
                        let mut ext = row;
                        ext.push(p_tag);
                        kept.push(ext);
                    }
                }
                partials = kept;
            } else {
                let members = self.amems[ce_amem[ce_idx]].wmes.clone();
                let mut next = Vec::new();
                for row in &partials {
                    for t in &members {
                        let w = self.wmes[t].clone();
                        if self.ce_matches(ce, &w, row) {
                            let mut ext = row.clone();
                            ext.push(*t);
                            next.push(ext);
                        }
                    }
                }
                partials = next;
            }
        }
        partials.into_iter().map(|r| r.into_boxed_slice()).collect()
    }

    fn add_row(&mut self, ri: usize, row: Box<[TimeTag]>) {
        if !self.rules[ri].rows.insert(row.clone()) {
            return;
        }
        self.stats.tokens_created += 1;
        let (id, specificity, is_soi) = {
            let rs = &self.rules[ri];
            (rs.id, rs.rule.specificity, rs.snode.is_some())
        };
        if is_soi {
            let wmes = &self.wmes;
            let lookup =
                move |t: TimeTag, a: Symbol| wmes.get(&t).map(|w| w.get(a)).unwrap_or(Value::Nil);
            let sn = self.rules[ri].snode.as_mut().unwrap();
            if !sn.is_dirty() {
                self.dirty_snodes.push(ri);
            }
            sn.insert_row(&row, &lookup);
        } else {
            let mut recency: Vec<TimeTag> = row.to_vec();
            recency.sort_unstable_by(|a, b| b.cmp(a));
            self.deltas.push(CsDelta::Insert(ConflictItem {
                key: InstKey::Tuple {
                    rule: id,
                    tags: row.clone(),
                },
                rows: Rows::one(row),
                aggregates: Vec::new(),
                version: 0,
                recency: recency.into(),
                specificity,
            }));
        }
    }

    fn remove_row(&mut self, ri: usize, row: &[TimeTag]) {
        if !self.rules[ri].rows.remove(row) {
            return;
        }
        self.stats.tokens_deleted += 1;
        let (id, is_soi) = {
            let rs = &self.rules[ri];
            (rs.id, rs.snode.is_some())
        };
        if is_soi {
            let wmes = &self.wmes;
            let lookup =
                move |t: TimeTag, a: Symbol| wmes.get(&t).map(|w| w.get(a)).unwrap_or(Value::Nil);
            let sn = self.rules[ri].snode.as_mut().unwrap();
            if !sn.is_dirty() {
                self.dirty_snodes.push(ri);
            }
            sn.remove_row(row, &lookup);
        } else {
            self.deltas.push(CsDelta::Remove(InstKey::Tuple {
                rule: id,
                tags: row.into(),
            }));
        }
    }
}

impl Matcher for TreatMatcher {
    fn add_rule(&mut self, rule: Arc<AnalyzedRule>) -> RuleId {
        let ri = self.rules.len();
        let id = RuleId::new(ri);
        let mut ce_amem = Vec::with_capacity(rule.ces.len());
        for (ce_idx, ce) in rule.ces.iter().enumerate() {
            let sig = CeSignature {
                class: ce.class,
                consts: ce.const_tests.clone(),
                intras: ce.intra_tests.clone(),
            };
            let ai = match self.alpha_index.get(&sig) {
                Some(&ai) => ai,
                None => {
                    // Backfill from working memory (rules may be added
                    // late), in tag order: the table's iteration order
                    // depends on its capacity history.
                    let mut wmes: Vec<TimeTag> = self
                        .wmes
                        .values()
                        .filter(|w| {
                            w.class == sig.class
                                && sig.consts.iter().all(|t| t.matches(&w.get(t.attr)))
                                && sig
                                    .intras
                                    .iter()
                                    .all(|t| t.pred.apply(&w.get(t.attr), &w.get(t.other_attr)))
                        })
                        .map(|w| w.tag)
                        .collect();
                    wmes.sort_unstable();
                    self.amems.push(AlphaMem {
                        sig: sig.clone(),
                        wmes,
                        subs: Vec::new(),
                    });
                    self.alpha_index.insert(sig, self.amems.len() - 1);
                    self.amems.len() - 1
                }
            };
            self.amems[ai].subs.push((ri, ce_idx));
            ce_amem.push(ai);
        }
        let snode = rule.is_set_oriented.then(|| {
            let mut sn = SNode::new(id, rule.clone());
            sn.set_tracer(self.tracer.clone());
            sn
        });
        self.rules.push(RuleState {
            rule,
            id,
            ce_amem,
            rows: FxHashSet::default(),
            snode,
            excised: false,
        });
        // Derive the instantiations already supported by working memory
        // (also covers the purely-negative LHS satisfied from the start).
        if self.rules[ri].rule.num_pos == 0 || !self.wmes.is_empty() {
            for row in self.enumerate(ri, None, None) {
                self.add_row(ri, row);
            }
        }
        id
    }

    fn remove_rule(&mut self, rule: RuleId) {
        let ri = rule.index();
        if self.rules[ri].excised {
            return;
        }
        let rows: Vec<Box<[TimeTag]>> = self.rules[ri].rows.iter().cloned().collect();
        for row in rows {
            self.remove_row(ri, &row);
        }
        for mem in &mut self.amems {
            mem.subs.retain(|&(r, _)| r != ri);
        }
        self.rules[ri].excised = true;
    }

    fn insert_wme(&mut self, wme: &Wme) {
        let tag = wme.tag;
        self.wmes.insert(tag, wme.clone());
        // Alpha phase: collect memberships first.
        let mut hits: Vec<usize> = Vec::new();
        for (ai, mem) in self.amems.iter().enumerate() {
            if self.sig_matches(&mem.sig, wme) {
                hits.push(ai);
            }
        }
        for &ai in &hits {
            self.stats.alpha_activations += 1;
            self.amems[ai].wmes.push(tag);
            self.tracer.emit(|| TraceEvent::AlphaActivation {
                node: ai as u32,
                tag,
                insert: true,
            });
        }
        // Seek phase.
        for &ai in &hits {
            let subs = self.amems[ai].subs.clone();
            for (ri, ce_idx) in subs {
                let negated = self.rules[ri].rule.ces[ce_idx].negated;
                if negated {
                    // The new WME may block retained instantiations:
                    // conflict-set search.
                    let ce = self.rules[ri].rule.ces[ce_idx].clone();
                    let rows: Vec<Box<[TimeTag]>> = self.rules[ri].rows.iter().cloned().collect();
                    for row in rows {
                        let w = wme.clone();
                        if self.ce_matches(&ce, &w, &row) {
                            self.remove_row(ri, &row);
                        }
                    }
                } else {
                    // Seek new instantiations containing the WME at this CE.
                    // Skip if the WME was already seeded at an earlier CE
                    // position sharing the same memory — the enumerate below
                    // pins only this position; rows using the WME at other
                    // positions arise from those positions' own seeks.
                    for row in self.enumerate(ri, Some((ce_idx, tag)), None) {
                        self.add_row(ri, row);
                    }
                }
            }
        }
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let tag = wme.tag;
        // Alpha phase: drop memberships first so re-seeks see the new state.
        let mut hits: Vec<usize> = Vec::new();
        for (ai, mem) in self.amems.iter_mut().enumerate() {
            if let Some(pos) = mem.wmes.iter().position(|&t| t == tag) {
                mem.wmes.remove(pos);
                hits.push(ai);
            }
        }
        for &ai in &hits {
            self.tracer.emit(|| TraceEvent::AlphaActivation {
                node: ai as u32,
                tag,
                insert: false,
            });
        }
        for &ai in &hits {
            let subs = self.amems[ai].subs.clone();
            for (ri, ce_idx) in subs {
                let negated = self.rules[ri].rule.ces[ce_idx].negated;
                if negated {
                    // A blocker left: rows it alone was blocking are live now.
                    for row in self.enumerate(ri, None, Some((ce_idx, tag))) {
                        self.add_row(ri, row);
                    }
                } else {
                    // Conflict-set search for rows containing the WME here.
                    let pos = self.rules[ri].rule.ces[ce_idx].pos_idx.unwrap();
                    let rows: Vec<Box<[TimeTag]>> = self.rules[ri]
                        .rows
                        .iter()
                        .filter(|r| r[pos] == tag)
                        .cloned()
                        .collect();
                    for row in rows {
                        self.remove_row(ri, &row);
                    }
                }
            }
        }
        self.wmes.remove(&tag);
    }

    fn drain_deltas_into(&mut self, out: &mut Vec<CsDelta>) {
        // Figure 3's stage 3, once per changed SOI: the S-nodes' deltas
        // follow the tuple deltas the drained operations emitted.
        out.append(&mut self.deltas);
        let wmes = &self.wmes;
        let lookup =
            move |t: TimeTag, a: Symbol| wmes.get(&t).map(|w| w.get(a)).unwrap_or(Value::Nil);
        for ri in self.dirty_snodes.drain(..) {
            if let Some(sn) = self.rules[ri].snode.as_mut() {
                sn.settle(&lookup, out);
            }
        }
    }

    fn materialize(&self, key: &InstKey) -> Option<ConflictItem> {
        match key {
            InstKey::Tuple { rule, tags } => {
                let rs = &self.rules[rule.index()];
                let mut recency: Vec<TimeTag> = tags.to_vec();
                recency.sort_unstable_by(|a, b| b.cmp(a));
                Some(ConflictItem {
                    key: key.clone(),
                    rows: Rows::one(tags.clone()),
                    aggregates: Vec::new(),
                    version: 0,
                    recency: recency.into(),
                    specificity: rs.rule.specificity,
                })
            }
            InstKey::Soi { rule, parts } => {
                self.rules[rule.index()].snode.as_ref()?.materialize(parts)
            }
        }
    }

    fn stats(&self) -> MatchStats {
        let mut s = self.stats;
        self.soi_stats().merge_into(&mut s);
        s
    }

    fn algorithm_name(&self) -> &'static str {
        "treat"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        for rs in &mut self.rules {
            if let Some(sn) = &mut rs.snode {
                sn.set_tracer(self.tracer.clone());
            }
        }
    }

    fn memory_report(&self) -> MemoryReport {
        use std::mem::size_of;
        let mut report = MemoryReport::default();

        // TREAT keeps only alpha memories plus per-rule retained join rows
        // (no beta network) — the memory profile the paper contrasts
        // against Rete's.
        let mut alpha_bytes = 0u64;
        let mut alpha_entries = 0u64;
        for am in &self.amems {
            alpha_bytes += (am.wmes.len() * size_of::<TimeTag>()) as u64;
            alpha_entries += am.wmes.len() as u64;
        }
        report.push("alpha", alpha_bytes, alpha_entries);

        let mut row_bytes = 0u64;
        let mut row_entries = 0u64;
        for rs in &self.rules {
            for row in &rs.rows {
                row_bytes +=
                    (size_of::<Box<[TimeTag]>>() + row.len() * size_of::<TimeTag>()) as u64;
            }
            row_entries += rs.rows.len() as u64;
        }
        report.push("rule_rows", row_bytes, row_entries);

        let gamma_bytes: u64 = self
            .rules
            .iter()
            .filter_map(|rs| rs.snode.as_ref())
            .map(|sn| sn.gamma_bytes())
            .sum();
        let gamma_sois: u64 = self
            .rules
            .iter()
            .filter_map(|rs| rs.snode.as_ref())
            .map(|sn| sn.candidate_count() as u64)
            .sum();
        report.push("gamma", gamma_bytes, gamma_sois);

        let wt_bytes: u64 = self
            .wmes
            .values()
            .map(|w| {
                (size_of::<TimeTag>() + size_of::<Wme>() + std::mem::size_of_val(w.slots())) as u64
            })
            .sum();
        report.push("wme_table", wt_bytes, self.wmes.len() as u64);
        report
    }

    fn metric_counters(&self, out: &mut Vec<(&'static str, u64)>) {
        out.extend(self.soi_stats().metric_counters());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_lang::{analyze_rule, parse_rule};

    fn wme(tag: u64, class: &str, slots: &[(&str, Value)]) -> Wme {
        Wme::new(
            TimeTag::new(tag),
            Symbol::new(class),
            slots.iter().map(|(a, v)| (Symbol::new(a), *v)).collect(),
        )
    }

    struct H {
        m: TreatMatcher,
        cs: FxHashMap<InstKey, ConflictItem>,
        next: u64,
        store: FxHashMap<TimeTag, Wme>,
    }

    impl H {
        fn new(rules: &[&str]) -> H {
            let mut m = TreatMatcher::new();
            for r in rules {
                m.add_rule(Arc::new(analyze_rule(&parse_rule(r).unwrap()).unwrap()));
            }
            H {
                m,
                cs: FxHashMap::default(),
                next: 1,
                store: FxHashMap::default(),
            }
        }

        fn make(&mut self, class: &str, slots: &[(&str, Value)]) -> TimeTag {
            let w = wme(self.next, class, slots);
            self.next += 1;
            self.store.insert(w.tag, w.clone());
            self.m.insert_wme(&w);
            self.apply();
            w.tag
        }

        fn remove(&mut self, tag: TimeTag) {
            let w = self.store.remove(&tag).unwrap();
            self.m.remove_wme(&w);
            self.apply();
        }

        fn apply(&mut self) {
            for d in self.m.drain_deltas() {
                match d {
                    CsDelta::Insert(i) => {
                        assert!(self.cs.insert(i.key.clone(), i).is_none(), "dup insert");
                    }
                    CsDelta::Remove(k) => {
                        assert!(self.cs.remove(&k).is_some(), "unknown remove");
                    }
                    CsDelta::Retime(info) => {
                        // May be followed by a Remove in the same batch.
                        if let Some(fresh) = self.m.materialize(&info.key) {
                            assert!(
                                self.cs.insert(info.key.clone(), fresh).is_some(),
                                "unknown retime"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn figure1_six_instantiations() {
        let mut h =
            H::new(&["(p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B) (halt))"]);
        for (n, t) in [
            ("Jack", "A"),
            ("Janice", "A"),
            ("Sue", "B"),
            ("Jack", "B"),
            ("Sue", "B"),
        ] {
            h.make(
                "player",
                &[("name", Value::sym(n)), ("team", Value::sym(t))],
            );
        }
        assert_eq!(h.cs.len(), 6);
    }

    #[test]
    fn removal_searches_conflict_set() {
        let mut h =
            H::new(&["(p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B) (halt))"]);
        let a = h.make(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        );
        h.make(
            "player",
            &[("name", Value::sym("Sue")), ("team", Value::sym("B"))],
        );
        assert_eq!(h.cs.len(), 1);
        h.remove(a);
        assert_eq!(h.cs.len(), 0);
    }

    #[test]
    fn negation_block_and_unblock() {
        let mut h =
            H::new(&["(p lonely (player ^name <n> ^team A) -(player ^name <n> ^team B) (halt))"]);
        h.make(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        );
        assert_eq!(h.cs.len(), 1);
        let b = h.make(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("B"))],
        );
        assert_eq!(h.cs.len(), 0);
        h.remove(b);
        assert_eq!(h.cs.len(), 1);
    }

    #[test]
    fn set_oriented_rule_through_snode() {
        let mut h = H::new(&[
            "(p dups { [player ^name <n>] <P> } :scalar (<n>) :test ((count <P>) > 1) (set-remove <P>))",
        ]);
        h.make("player", &[("name", Value::sym("Sue"))]);
        assert_eq!(h.cs.len(), 0);
        let s2 = h.make("player", &[("name", Value::sym("Sue"))]);
        assert_eq!(h.cs.len(), 1);
        let item = h.cs.values().next().unwrap();
        assert_eq!(item.aggregates, vec![Value::Int(2)]);
        h.remove(s2);
        assert_eq!(h.cs.len(), 0);
    }

    #[test]
    fn same_wme_two_positions_no_duplicates() {
        let mut h = H::new(&["(p twice (player ^name <n>) (player ^name <n>) (halt))"]);
        h.make("player", &[("name", Value::sym("Solo"))]);
        // Rows (w,w) must appear exactly once even though both CEs share the
        // alpha memory and both positions seek.
        assert_eq!(h.cs.len(), 1);
        h.make("player", &[("name", Value::sym("Solo"))]);
        assert_eq!(h.cs.len(), 4);
    }

    #[test]
    fn alpha_sharing() {
        let mut m = TreatMatcher::new();
        m.add_rule(Arc::new(
            analyze_rule(&parse_rule("(p r1 (player ^team A) (halt))").unwrap()).unwrap(),
        ));
        m.add_rule(Arc::new(
            analyze_rule(&parse_rule("(p r2 (player ^team A) (player ^team A) (halt))").unwrap())
                .unwrap(),
        ));
        assert_eq!(m.alpha_count(), 1);
    }
}
