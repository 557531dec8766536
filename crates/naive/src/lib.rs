#![warn(missing_docs)]
//! A deliberately naive matcher: recomputes the whole conflict set from
//! scratch after every working-memory change and emits the difference.
//!
//! Its value is *independence*: it shares no matching code with Rete or
//! TREAT (plain nested-loop joins; direct grouping and aggregation instead
//! of the S-node algorithm), so property tests that compare matchers
//! against it are comparing two genuinely different implementations of the
//! paper's semantics. It is also the paper's strawman cost model: matching
//! effort proportional to working-memory size on every cycle.
//!
//! ```
//! use sorete_naive::NaiveMatcher;
//! use sorete_lang::{analyze_rule, parse_rule, Matcher};
//! use sorete_base::{Symbol, TimeTag, Value, Wme};
//! use std::sync::Arc;
//!
//! let mut naive = NaiveMatcher::new();
//! naive.add_rule(Arc::new(analyze_rule(&parse_rule(
//!     "(p r (a ^x <v>) (halt))").unwrap()).unwrap()));
//! naive.insert_wme(&Wme::new(TimeTag::new(1), Symbol::new("a"),
//!                            vec![(Symbol::new("x"), Value::Int(5))]));
//! assert_eq!(naive.items().count(), 1);
//! ```

use sorete_base::{
    ConflictItem, CsDelta, FxHashMap, InstKey, KeyPart, MatchStats, MemoryReport, RetimeInfo,
    RuleId, Symbol, TimeTag, TraceEvent, Tracer, Value, Wme,
};
use sorete_lang::analyze::{AggTarget, AnalyzedCe, AnalyzedRule};
use sorete_lang::ast::AggOp;
use sorete_lang::eval::{eval_truthy, Env};
use sorete_lang::matcher::Matcher;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The oracle matcher.
#[derive(Default)]
pub struct NaiveMatcher {
    rules: Vec<Arc<AnalyzedRule>>,
    excised: sorete_base::FxHashSet<usize>,
    wmes: FxHashMap<TimeTag, Wme>,
    /// Current conflict set, keyed (and ordered) by instantiation identity.
    current: BTreeMap<InstKey, ConflictItem>,
    /// The SOIs the conflict set held at the last drain, with the version
    /// it was told.
    settled: BTreeMap<InstKey, u64>,
    /// SOIs whose contents changed at some WM change since the last drain.
    touched: BTreeSet<InstKey>,
    /// Settled SOIs whose group emptied at some WM change since the last
    /// drain: fresh instantiations if they fill again.
    emptied: BTreeSet<InstKey>,
    deltas: Vec<CsDelta>,
    stats: MatchStats,
    tracer: Tracer,
}

impl NaiveMatcher {
    /// An empty matcher.
    pub fn new() -> NaiveMatcher {
        NaiveMatcher::default()
    }

    /// The current conflict set (the oracle's ground truth), unordered.
    pub fn items(&self) -> impl Iterator<Item = &ConflictItem> {
        self.current.values()
    }

    /// Recompute everything and diff against the previous conflict set:
    /// tuple instantiations become deltas at once; SOI changes are noted
    /// for [`Self::settle`].
    fn refresh(&mut self) {
        // The whole recompute is this matcher's one "beta node": the
        // physical trace shows a full-network activation per WM change.
        self.tracer.emit(|| TraceEvent::BetaActivation {
            node: 0,
            kind: "refresh",
        });
        let mut fresh: BTreeMap<InstKey, ConflictItem> = BTreeMap::new();
        let mut groups: BTreeSet<InstKey> = BTreeSet::new();
        for (idx, rule) in self.rules.iter().enumerate() {
            if self.excised.contains(&idx) {
                continue;
            }
            let rid = RuleId::new(idx);
            let rows = self.enumerate_rows(rule);
            if rule.is_set_oriented {
                for item in self.group_sois(rule, rid, rows, &mut groups) {
                    fresh.insert(item.key.clone(), item);
                }
            } else {
                for tags in rows {
                    let item = ConflictItem::tuple(rid, &tags, rule.specificity);
                    fresh.insert(item.key.clone(), item);
                }
            }
        }
        // Diff: removals, then insertions/updates. Both sets are ordered
        // maps, so the stream is a function of their contents alone and
        // not of a hash table's insertion and capacity history (which a
        // recovered engine does not share).
        let old = std::mem::take(&mut self.current);
        for key in old.keys() {
            if !fresh.contains_key(key) {
                match key {
                    InstKey::Tuple { .. } => self.deltas.push(CsDelta::Remove(key.clone())),
                    InstKey::Soi { .. } => {
                        self.touched.insert(key.clone());
                    }
                }
            }
        }
        for (key, item) in &mut fresh {
            match old.get(key) {
                None => match key {
                    InstKey::Tuple { .. } => self.deltas.push(CsDelta::Insert(item.clone())),
                    InstKey::Soi { .. } => {
                        self.touched.insert(key.clone());
                    }
                },
                Some(prev) => {
                    // A surviving SOI keeps its version until its rows or
                    // aggregates change; a change bumps it, re-arming
                    // refraction (paper §6).
                    item.version = prev.version;
                    if prev.rows != item.rows || prev.aggregates != item.aggregates {
                        item.version += 1;
                        self.touched.insert(key.clone());
                    }
                }
            }
        }
        for key in self.settled.keys() {
            if !groups.contains(key) {
                self.emptied.insert(key.clone());
            }
        }
        self.current = fresh;
    }

    /// One transition per SOI changed since the last drain, from its
    /// status then and now — the per-drain result the S-node's settle must
    /// reproduce: `-` then `+` for a settled SOI whose group emptied and
    /// filled again, otherwise `+`, `-` or one `time` token.
    fn settle(&mut self) {
        let touched = std::mem::take(&mut self.touched);
        let emptied = std::mem::take(&mut self.emptied);
        // A group empties only by a change that takes it out of `current`.
        debug_assert!(emptied.is_subset(&touched));
        for key in &touched {
            let before = self.settled.get(key).copied();
            let now = self.current.get_mut(key);
            if before.is_some() && (now.is_none() || emptied.contains(key)) {
                self.settled.remove(key);
                self.deltas.push(CsDelta::Remove(key.clone()));
            }
            let Some(item) = now else { continue };
            match self.settled.get_mut(key) {
                None => {
                    self.settled.insert(key.clone(), item.version);
                    self.deltas.push(CsDelta::Insert(item.clone()));
                }
                Some(told) => {
                    // A settled SOI that failed its test in between was
                    // recomputed from version 1; it must still move past
                    // the version the conflict set holds.
                    if item.version <= *told {
                        item.version = *told + 1;
                    }
                    *told = item.version;
                    self.deltas.push(CsDelta::Retime(RetimeInfo {
                        key: key.clone(),
                        version: item.version,
                        recency: item.recency.clone(),
                        first: item.first_tag(),
                    }));
                }
            }
        }
    }

    /// All complete positive-CE rows of a rule, by nested-loop join.
    fn enumerate_rows(&self, rule: &AnalyzedRule) -> Vec<Vec<TimeTag>> {
        // Partial rows hold the matched tag per *positive* CE processed so far.
        let mut partials: Vec<Vec<TimeTag>> = vec![Vec::new()];
        for ce in &rule.ces {
            if partials.is_empty() {
                break;
            }
            if ce.negated {
                partials.retain(|row| !self.exists_match(ce, row));
            } else {
                let mut next = Vec::new();
                for row in &partials {
                    for (tag, wme) in &self.wmes {
                        if self.ce_matches(ce, wme, row) {
                            let mut extended = row.clone();
                            extended.push(*tag);
                            next.push(extended);
                        }
                    }
                }
                partials = next;
            }
        }
        partials
    }

    /// Does any WME satisfy the (negated) CE against the partial row?
    fn exists_match(&self, ce: &AnalyzedCe, row: &[TimeTag]) -> bool {
        self.wmes.values().any(|w| self.ce_matches(ce, w, row))
    }

    fn ce_matches(&self, ce: &AnalyzedCe, wme: &Wme, row: &[TimeTag]) -> bool {
        if wme.class != ce.class {
            return false;
        }
        if !ce.const_tests.iter().all(|t| t.matches(&wme.get(t.attr))) {
            return false;
        }
        if !ce
            .intra_tests
            .iter()
            .all(|t| t.pred.apply(&wme.get(t.attr), &wme.get(t.other_attr)))
        {
            return false;
        }
        ce.var_joins.iter().all(|vj| {
            let other = &self.wmes[&row[vj.other_pos_ce]];
            vj.pred.apply(&wme.get(vj.attr), &other.get(vj.other_attr))
        })
    }

    /// Group complete rows into SOIs — an *independent* reimplementation of
    /// the S-node semantics (direct grouping, batch aggregation).
    /// Every group's key goes into `groups_seen`, whether its test passes
    /// or not.
    fn group_sois(
        &self,
        rule: &Arc<AnalyzedRule>,
        rid: RuleId,
        rows: Vec<Vec<TimeTag>>,
        groups_seen: &mut BTreeSet<InstKey>,
    ) -> Vec<ConflictItem> {
        let mut groups: FxHashMap<Box<[KeyPart]>, Vec<Vec<TimeTag>>> = FxHashMap::default();
        for row in rows {
            let mut key: Vec<KeyPart> = rule
                .scalar_ces
                .iter()
                .map(|&pos| KeyPart::Tag(row[pos]))
                .collect();
            for pv in &rule.scalar_pvs {
                key.push(KeyPart::Val(self.wmes[&row[pv.pos_ce]].get(pv.attr)));
            }
            groups.entry(key.into()).or_default().push(row);
        }

        let mut out = Vec::new();
        for (parts, mut rows) in groups {
            groups_seen.insert(InstKey::Soi {
                rule: rid,
                parts: parts.clone(),
            });
            // Conflict-set order: most recent row first (tags sorted
            // descending, compared lexicographically).
            rows.sort_by_cached_key(|r| {
                let mut rec = r.clone();
                rec.sort_unstable_by(|a, b| b.cmp(a));
                std::cmp::Reverse(rec)
            });

            // Batch aggregation over distinct WMEs of each target CE.
            let aggregates: Vec<Value> = rule
                .aggregates
                .iter()
                .map(|spec| {
                    let mut seen: FxHashMap<TimeTag, Value> = FxHashMap::default();
                    let (pos_ce, attr) = match spec.target {
                        AggTarget::Pv { pos_ce, attr, .. } => (pos_ce, Some(attr)),
                        AggTarget::Ce { pos_ce, .. } => (pos_ce, None),
                    };
                    for row in &rows {
                        let tag = row[pos_ce];
                        let v = match attr {
                            Some(a) => self.wmes[&tag].get(a),
                            None => Value::Nil,
                        };
                        seen.insert(tag, v);
                    }
                    batch_aggregate(spec.op, &spec.target, seen.values())
                })
                .collect();

            // Evaluate T.
            let env = NaiveEnv {
                matcher: self,
                rule,
                parts: &parts,
                head: &rows[0],
                aggregates: &aggregates,
            };
            let pass = rule
                .tests
                .iter()
                .all(|t| eval_truthy(t, &env).unwrap_or(false));
            if !pass {
                continue;
            }

            let mut recency = rows[0].clone();
            recency.sort_unstable_by(|a, b| b.cmp(a));
            out.push(ConflictItem {
                key: InstKey::Soi {
                    rule: rid,
                    parts: parts.clone(),
                },
                rows: rows.iter().collect(),
                aggregates,
                // First version; `refresh` carries and bumps it.
                version: 1,
                recency: recency.into(),
                specificity: rule.specificity,
            });
        }
        out
    }
}

/// Batch (non-incremental) aggregate over the distinct WMEs' values.
fn batch_aggregate<'v>(
    op: AggOp,
    target: &AggTarget,
    values: impl Iterator<Item = &'v Value>,
) -> Value {
    let vals: Vec<&Value> = values.collect();
    match op {
        AggOp::Count => match target {
            AggTarget::Ce { .. } => Value::Int(vals.len() as i64),
            AggTarget::Pv { .. } => {
                let mut distinct: BTreeMap<&Value, ()> = BTreeMap::new();
                for v in &vals {
                    distinct.insert(v, ());
                }
                Value::Int(distinct.len() as i64)
            }
        },
        AggOp::Sum | AggOp::Avg => {
            let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                return Value::Nil;
            }
            if op == AggOp::Avg {
                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
            } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(
                    vals.iter()
                        .filter_map(|v| match v {
                            Value::Int(i) => Some(*i),
                            _ => None,
                        })
                        .sum(),
                )
            } else {
                Value::Float(nums.iter().sum())
            }
        }
        AggOp::Min => vals.iter().min().map(|v| **v).unwrap_or(Value::Nil),
        AggOp::Max => vals.iter().max().map(|v| **v).unwrap_or(Value::Nil),
    }
}

struct NaiveEnv<'a> {
    matcher: &'a NaiveMatcher,
    rule: &'a AnalyzedRule,
    parts: &'a [KeyPart],
    head: &'a [TimeTag],
    aggregates: &'a [Value],
}

impl Env for NaiveEnv<'_> {
    fn var(&self, v: Symbol) -> Option<Value> {
        if let Some(i) = self.rule.scalar_pvs.iter().position(|p| p.var == v) {
            if let KeyPart::Val(val) = &self.parts[self.rule.scalar_ces.len() + i] {
                return Some(*val);
            }
        }
        let src = self.rule.var_sources.get(&v)?;
        if src.set_oriented {
            return None;
        }
        Some(self.matcher.wmes[&self.head[src.pos_ce]].get(src.attr))
    }

    fn agg(&self, op: AggOp, var: Symbol) -> Option<Value> {
        let idx = self.rule.agg_index(op, var)?;
        Some(self.aggregates[idx])
    }
}

impl Matcher for NaiveMatcher {
    fn add_rule(&mut self, rule: Arc<AnalyzedRule>) -> RuleId {
        let id = RuleId::new(self.rules.len());
        self.rules.push(rule);
        self.refresh();
        id
    }

    fn insert_wme(&mut self, wme: &Wme) {
        self.stats.alpha_activations += 1;
        let tag = wme.tag;
        self.tracer.emit(|| TraceEvent::AlphaActivation {
            node: 0,
            tag,
            insert: true,
        });
        self.wmes.insert(tag, wme.clone());
        self.refresh();
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let tag = wme.tag;
        self.tracer.emit(|| TraceEvent::AlphaActivation {
            node: 0,
            tag,
            insert: false,
        });
        self.wmes.remove(&tag);
        self.refresh();
    }

    fn remove_rule(&mut self, rule: RuleId) {
        self.excised.insert(rule.index());
        self.refresh();
    }

    fn drain_deltas_into(&mut self, out: &mut Vec<CsDelta>) {
        self.settle();
        out.append(&mut self.deltas);
    }

    fn materialize(&self, key: &InstKey) -> Option<ConflictItem> {
        self.current.get(key).cloned()
    }

    fn stats(&self) -> MatchStats {
        self.stats
    }

    fn algorithm_name(&self) -> &'static str {
        "naive"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn memory_report(&self) -> MemoryReport {
        use std::mem::size_of;
        let mut report = MemoryReport::default();

        // The oracle keeps no incremental state beyond working memory and
        // the recomputed conflict set.
        let wt_bytes: u64 = self
            .wmes
            .values()
            .map(|w| {
                (size_of::<TimeTag>() + size_of::<Wme>() + std::mem::size_of_val(w.slots())) as u64
            })
            .sum();
        report.push("wme_table", wt_bytes, self.wmes.len() as u64);

        let mut cs_bytes = 0u64;
        for item in self.current.values() {
            cs_bytes += size_of::<ConflictItem>() as u64;
            // One flat buffer; its header is counted with the item.
            for row in &item.rows {
                cs_bytes += std::mem::size_of_val(row) as u64;
            }
            cs_bytes += (item.aggregates.len() * size_of::<Value>()
                + item.recency.len() * size_of::<TimeTag>()) as u64;
        }
        report.push("conflict_set", cs_bytes, self.current.len() as u64);
        report
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

    fn setup(rules: &[&str]) -> NaiveMatcher {
        let mut m = NaiveMatcher::new();
        for r in rules {
            m.add_rule(Arc::new(analyze_rule(&parse_rule(r).unwrap()).unwrap()));
        }
        m
    }

    #[test]
    fn figure1_six_instantiations() {
        let mut m =
            setup(&["(p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B) (halt))"]);
        for (i, (n, t)) in [
            ("Jack", "A"),
            ("Janice", "A"),
            ("Sue", "B"),
            ("Jack", "B"),
            ("Sue", "B"),
        ]
        .iter()
        .enumerate()
        {
            m.insert_wme(&wme(
                i as u64 + 1,
                "player",
                &[("name", Value::sym(n)), ("team", Value::sym(t))],
            ));
        }
        let _ = m.drain_deltas();
        assert_eq!(m.current.len(), 6);
    }

    #[test]
    fn soi_grouping_and_count() {
        let mut m = setup(&[
            "(p dups { [player ^name <n>] <P> } :scalar (<n>) :test ((count <P>) > 1) (set-remove <P>))",
        ]);
        m.insert_wme(&wme(1, "player", &[("name", Value::sym("Sue"))]));
        m.insert_wme(&wme(2, "player", &[("name", Value::sym("Sue"))]));
        m.insert_wme(&wme(3, "player", &[("name", Value::sym("Jack"))]));
        let _ = m.drain_deltas();
        assert_eq!(m.current.len(), 1);
        let item = m.current.values().next().unwrap();
        assert_eq!(item.rows.len(), 2);
        assert_eq!(item.aggregates, vec![Value::Int(2)]);
        // Head row is the more recent Sue.
        assert_eq!(item.rows[0].as_ref(), &[TimeTag::new(2)]);
    }

    #[test]
    fn negation() {
        let mut m = setup(&["(p r (a ^x <v>) -(b ^x <v>) (halt))"]);
        m.insert_wme(&wme(1, "a", &[("x", Value::Int(7))]));
        assert_eq!(m.current.len(), 1);
        m.insert_wme(&wme(2, "b", &[("x", Value::Int(7))]));
        assert_eq!(m.current.len(), 0);
        m.remove_wme(&wme(2, "b", &[("x", Value::Int(7))]));
        assert_eq!(m.current.len(), 1);
    }

    #[test]
    fn deltas_reflect_changes() {
        let mut m = setup(&["(p r (a ^x 1) (halt))"]);
        let w = wme(1, "a", &[("x", Value::Int(1))]);
        m.insert_wme(&w);
        let d = m.drain_deltas();
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], CsDelta::Insert(_)));
        m.remove_wme(&w);
        let d = m.drain_deltas();
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], CsDelta::Remove(_)));
    }

    #[test]
    fn retime_on_soi_change() {
        let mut m = setup(&["(p r [a ^x <x>] (halt))"]);
        m.insert_wme(&wme(1, "a", &[("x", Value::Int(1))]));
        let CsDelta::Insert(item) = &m.drain_deltas()[0] else {
            panic!("expected a + token");
        };
        let mut version = item.version;
        // Every change re-arms refraction: the version only grows, so an
        // entry fired at an earlier version is never still refracted.
        for t in 2..5 {
            m.insert_wme(&wme(t, "a", &[("x", Value::Int(t as i64))]));
            let d = m.drain_deltas();
            assert_eq!(d.len(), 1);
            let CsDelta::Retime(info) = &d[0] else {
                panic!("expected a time token: {:?}", d);
            };
            assert!(info.version > version, "{:?}", d);
            assert_eq!(info.first, TimeTag::new(t), "the new head's first-CE tag");
            version = info.version;
        }
    }

    #[test]
    fn min_max_avg_sum_aggregates() {
        let mut m = setup(&["(p pay (dept ^id <d>) [emp ^dept <d> ^sal <s>]
               :test ((sum <s>) > 0 and (min <s>) >= 0 and (max <s>) < 100000 and (avg <s>) > 10)
               (halt))"]);
        m.insert_wme(&wme(1, "dept", &[("id", Value::Int(1))]));
        m.insert_wme(&wme(
            2,
            "emp",
            &[("dept", Value::Int(1)), ("sal", Value::Int(100))],
        ));
        m.insert_wme(&wme(
            3,
            "emp",
            &[("dept", Value::Int(1)), ("sal", Value::Int(300))],
        ));
        assert_eq!(m.current.len(), 1);
        let item = m.current.values().next().unwrap();
        // Aggregate order = first-reference order: sum, min, max, avg.
        assert_eq!(item.aggregates[0], Value::Int(400));
        assert_eq!(item.aggregates[1], Value::Int(100));
        assert_eq!(item.aggregates[2], Value::Int(300));
        assert_eq!(item.aggregates[3], Value::Float(200.0));
    }
}
