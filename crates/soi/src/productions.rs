//! The production layer: "the end of the network" (§5) for any matcher.
//!
//! A matcher hands it complete positive-CE rows with a sign. A tuple
//! rule's row becomes a `+`/`-` delta at once ([`ConflictItem::tuple`]);
//! a set-oriented rule's row goes through its S-node's stages 1–2, and
//! [`Productions::drain_into`] settles the S-nodes changed since the last
//! drain, in first-changed order, after the tuple deltas.

use crate::snode::{GammaCounts, SNode, SoiStats};
use sorete_base::{ConflictItem, CsDelta, InstKey, RuleId, Symbol, TimeTag, Tracer, Value};
use sorete_lang::analyze::AnalyzedRule;
use std::sync::Arc;

/// A rule and, if it is set-oriented, its S-node.
struct Production {
    rule: Arc<AnalyzedRule>,
    snode: Option<SNode>,
}

/// The productions of one matcher, from its rows to its conflict-set
/// deltas.
#[derive(Default)]
pub struct Productions {
    prods: Vec<Production>,
    /// Tuple deltas since the last drain, in emission order.
    deltas: Vec<CsDelta>,
    /// Rules whose S-node changed since the last drain, each once, in
    /// first-changed order.
    dirty: Vec<RuleId>,
    tracer: Tracer,
}

impl Productions {
    /// Register `rule`; its id is the number of rules registered before.
    pub fn add_rule(&mut self, rule: Arc<AnalyzedRule>) -> RuleId {
        let id = RuleId::new(self.prods.len());
        let snode = rule
            .is_set_oriented
            .then(|| SNode::new(id, rule.clone(), self.tracer.clone()));
        self.prods.push(Production { rule, snode });
        id
    }

    /// The rule registered under `id`.
    pub fn rule(&self, id: RuleId) -> &Arc<AnalyzedRule> {
        &self.prods[id.index()].rule
    }

    /// Candidate SOIs in a set-oriented rule's S-node; `None` for a
    /// tuple rule.
    pub fn soi_count(&self, id: RuleId) -> Option<usize> {
        Some(self.prods[id.index()].snode.as_ref()?.candidate_count())
    }

    /// A complete positive-CE `row` of `rule` joined (`insert`) or
    /// un-joined. `lookup` resolves the row's WMEs: a matcher hands a
    /// row over before it forgets a departing WME.
    pub fn row(
        &mut self,
        rule: RuleId,
        row: &[TimeTag],
        insert: bool,
        lookup: &dyn Fn(TimeTag, Symbol) -> Value,
    ) {
        let prod = &mut self.prods[rule.index()];
        match &mut prod.snode {
            Some(sn) => {
                if !sn.is_dirty() {
                    self.dirty.push(rule);
                }
                if insert {
                    sn.insert_row(row, lookup);
                } else {
                    sn.remove_row(row, lookup);
                }
            }
            None if insert => self.deltas.push(CsDelta::Insert(ConflictItem::tuple(
                rule,
                row,
                prod.rule.specificity,
            ))),
            None => self.deltas.push(CsDelta::Remove(InstKey::Tuple {
                rule,
                tags: row.into(),
            })),
        }
    }

    /// Append the deltas since the last drain to `out`: the tuple deltas
    /// in emission order, then Figure 3's stage 3 once per changed SOI.
    /// `lookup` must resolve every WME the γ-rows hold.
    pub fn drain_into(
        &mut self,
        lookup: &dyn Fn(TimeTag, Symbol) -> Value,
        out: &mut Vec<CsDelta>,
    ) {
        out.append(&mut self.deltas);
        for rule in self.dirty.drain(..) {
            if let Some(sn) = self.prods[rule.index()].snode.as_mut() {
                sn.settle(lookup, out);
            }
        }
    }

    /// The current contents of `key`: a tuple item rebuilt from its key,
    /// or an *active* SOI read out of its S-node.
    pub fn materialize(&self, key: &InstKey) -> Option<ConflictItem> {
        match key {
            InstKey::Tuple { rule, tags } => Some(ConflictItem::tuple(
                *rule,
                tags,
                self.rule(*rule).specificity,
            )),
            InstKey::Soi { rule, parts } => {
                self.prods[rule.index()].snode.as_ref()?.materialize(parts)
            }
        }
    }

    fn snodes(&self) -> impl Iterator<Item = &SNode> {
        self.prods.iter().filter_map(|p| p.snode.as_ref())
    }

    /// Combined counters of every S-node, the only source of a matcher's
    /// S-node `MatchStats` ([`SoiStats::merge_into`]).
    pub fn soi_stats(&self) -> SoiStats {
        self.snodes()
            .fold(SoiStats::default(), |acc, sn| acc.merged(&sn.stats()))
    }

    /// The maintained live-set counts of every γ-memory: a matcher's
    /// `gamma` memory region.
    pub fn gamma_counts(&self) -> GammaCounts {
        self.snodes().fold(GammaCounts::default(), |acc, sn| {
            acc.merged(&sn.gamma_counts())
        })
    }

    /// [`Self::gamma_counts`] recounted entry by entry (the oracle).
    pub fn walk_gamma_counts(&self) -> GammaCounts {
        self.snodes().fold(GammaCounts::default(), |acc, sn| {
            acc.merged(&sn.walk_gamma_counts())
        })
    }

    /// Install the tracer through which the S-nodes, present and future,
    /// emit `snode` / `aggregate` events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for sn in self.prods.iter_mut().filter_map(|p| p.snode.as_mut()) {
            sn.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_base::{Value, Wme};
    use sorete_lang::{analyze_rule, parse_rule};

    fn rule(src: &str) -> Arc<AnalyzedRule> {
        Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap())
    }

    /// WME `t` is an `item` with `^k` = `t % 2`, so odd and even tags
    /// fall into two `:scalar (<k>)` groups.
    fn wm() -> Vec<Wme> {
        (1..=6)
            .map(|t| {
                let k = Value::Int((t % 2) as i64);
                Wme::new(
                    TimeTag::new(t),
                    Symbol::new("item"),
                    vec![(Symbol::new("k"), k)],
                )
            })
            .collect()
    }

    fn tags(ts: &[u64]) -> Vec<TimeTag> {
        ts.iter().map(|&t| TimeTag::new(t)).collect()
    }

    #[test]
    fn a_tuple_row_is_one_insert_and_one_remove_under_one_key() {
        let wm = wm();
        let lookup = |t: TimeTag, a: Symbol| wm[(t.raw() - 1) as usize].get(a);
        let mut prods = Productions::default();
        let r = prods.add_rule(rule("(p pair (item ^k <k>) (item ^k <k>) (halt))"));
        let row = tags(&[1, 3]);
        prods.row(r, &row, true, &lookup);
        let mut out = Vec::new();
        prods.drain_into(&lookup, &mut out);
        let [CsDelta::Insert(item)] = &out[..] else {
            panic!("{out:?}")
        };
        assert_eq!(item.rows.len(), 1);
        assert_eq!(&item.rows[0], row.as_slice());
        assert_eq!(item.recency.as_ref(), tags(&[3, 1]), "descending");
        assert_eq!(item.specificity, prods.rule(r).specificity);
        let materialized = prods.materialize(&item.key).expect("a tuple key");
        assert_eq!(format!("{materialized:?}"), format!("{item:?}"));

        let key = item.key.clone();
        out.clear();
        prods.row(r, &row, false, &lookup);
        prods.drain_into(&lookup, &mut out);
        assert!(
            matches!(&out[..], [CsDelta::Remove(k)] if *k == key),
            "{out:?}"
        );
    }

    #[test]
    fn set_oriented_rules_settle_in_first_dirtied_order_after_tuple_deltas() {
        let wm = wm();
        let lookup = |t: TimeTag, a: Symbol| wm[(t.raw() - 1) as usize].get(a);
        let mut prods = Productions::default();
        let a = prods.add_rule(rule("(p a [item ^k 0] (halt))"));
        let b = prods.add_rule(rule("(p b [item ^k 1] (halt))"));
        let t = prods.add_rule(rule("(p t (item ^k 1) (halt))"));
        prods.row(b, &tags(&[1]), true, &lookup);
        prods.row(a, &tags(&[2]), true, &lookup);
        prods.row(b, &tags(&[3]), true, &lookup);
        prods.row(t, &tags(&[3]), true, &lookup);
        let mut out = Vec::new();
        prods.drain_into(&lookup, &mut out);
        let rules: Vec<_> = out.iter().map(|d| d.key().rule()).collect();
        assert_eq!(rules, [t, b, a]);
        assert!(out.iter().all(|d| matches!(d, CsDelta::Insert(_))));
        assert_eq!(prods.soi_count(b), Some(1));
        assert_eq!(prods.soi_count(t), None);
    }

    #[test]
    fn taking_out_every_row_of_a_set_oriented_rule_drains_its_sois_as_removes() {
        let wm = wm();
        let lookup = |t: TimeTag, a: Symbol| wm[(t.raw() - 1) as usize].get(a);
        let mut prods = Productions::default();
        let r = prods.add_rule(rule(
            "(p groups { [item ^k <k>] <P> } :scalar (<k>) (set-remove <P>))",
        ));
        let rows: Vec<Vec<TimeTag>> = (1..=6).map(|t| tags(&[t])).collect();
        for row in &rows {
            prods.row(r, row, true, &lookup);
        }
        let mut out = Vec::new();
        prods.drain_into(&lookup, &mut out);
        let keys: Vec<InstKey> = out.iter().map(|d| d.key().clone()).collect();
        assert_eq!(keys.len(), 2, "{out:?}");
        assert_eq!(prods.gamma_counts(), prods.walk_gamma_counts());
        assert_eq!(prods.gamma_counts().rows, 6);

        // What a matcher does when it excises the rule.
        out.clear();
        for row in &rows {
            prods.row(r, row, false, &lookup);
        }
        prods.drain_into(&lookup, &mut out);
        assert!(
            out.iter()
                .all(|d| matches!(d, CsDelta::Remove(k) if keys.contains(k))),
            "{out:?}"
        );
        assert_eq!(out.len(), 2);
        assert!(keys.iter().all(|k| prods.materialize(k).is_none()));
        assert_eq!(prods.gamma_counts(), GammaCounts::default());
        assert_eq!(prods.walk_gamma_counts(), GammaCounts::default());
        assert_eq!(prods.soi_stats().minus_tokens, 2);
    }
}
