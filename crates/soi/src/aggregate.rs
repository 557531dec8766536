//! Incremental aggregate state, shaped by what each operation computes.
//!
//! The paper's γ-memory stores, for each aggregate operation, "the
//! aggregate's current value followed by a list of (value, counter) pairs
//! representing the values in the WMEs used in the computation". Only
//! `min`/`max` need that list: removing the extremum must reveal the next
//! one. [`AggPlan::new`] therefore picks each aggregate's [`Fold`] from the
//! rule's shape, once per S-node, with no option:
//!
//! - `count` over an element variable: a counter of contributing WMEs;
//! - `sum`/`avg`: running totals;
//! - `count` over a set-oriented pattern variable: distinct-value counts
//!   (paper §4.1: domains are sets of values);
//! - `min`/`max`: the ordered `(value, counter)` multiset, a `BTreeMap`
//!   with O(log n) updates and O(1) extremes.
//!
//! Aggregates range over the **WMEs** matched by the target CE within the
//! SOI, not over join rows: a WME joined against three partners
//! contributes once. When the rule has one positive set-oriented CE, every
//! row of an SOI names a distinct WME of that CE (the other tags are the
//! SOI's key), so a row's arrival or departure *is* its WME's. Only a rule
//! with more than one keeps per-WME reference counts, one table per source
//! CE, and only for the folds that count contributions — `sum`/`avg` and
//! `count` over an element variable. `min`/`max` and `count` over a pattern
//! variable read only which values are present, and counting rows instead
//! of WMEs in their `(value, counter)` maps keeps the same values present,
//! so they fold every row. Either way a departing WME's value comes from
//! the caller's `lookup`, which the matchers call before they forget the
//! WME.

use sorete_base::{FxHashMap, Symbol, TimeTag, Value};
use sorete_lang::analyze::{AggSpec, AggTarget, AnalyzedRule};
use sorete_lang::ast::AggOp;
use std::collections::BTreeMap;

/// One aggregate's incremental state over the SOI's contributing WMEs.
#[derive(Clone, Debug)]
pub(crate) enum Fold {
    /// `count` over an element variable: contributing WMEs.
    Count(u64),
    /// `sum`/`avg`: running totals of the numeric contributions.
    Totals(Totals),
    /// `count` over a pattern variable: value → contributing WMEs (rows,
    /// under a join of set-oriented CEs) holding it.
    Distinct(FxHashMap<Value, u32>),
    /// `min`/`max`: the paper's `(value, counter)` pairs, in value order;
    /// the counters count rows under a join of set-oriented CEs.
    Ordered(BTreeMap<Value, u32>),
}

/// Running totals for `sum`/`avg`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Totals {
    sum_i: i64,
    sum_f: f64,
    /// Numeric contributions (for `avg`).
    numeric: u32,
    /// Integer contributions (`Int` vs `Float` results).
    integral: u32,
}

impl Totals {
    fn apply(&mut self, value: Value, add: bool) {
        let (int, f) = match value {
            Value::Int(i) => (Some(i), i as f64),
            Value::Float(f) => (None, f),
            _ => return,
        };
        if add {
            self.sum_f += f;
            self.numeric += 1;
            if let Some(i) = int {
                self.sum_i = self.sum_i.wrapping_add(i);
                self.integral += 1;
            }
        } else {
            self.sum_f -= f;
            self.numeric -= 1;
            if let Some(i) = int {
                self.sum_i = self.sum_i.wrapping_sub(i);
                self.integral -= 1;
            }
        }
    }
}

impl Fold {
    /// The empty-set state `spec` needs.
    fn for_spec(spec: &AggSpec) -> Fold {
        match (spec.op, spec.target) {
            (AggOp::Count, AggTarget::Ce { .. }) => Fold::Count(0),
            (AggOp::Count, AggTarget::Pv { .. }) => Fold::Distinct(FxHashMap::default()),
            (AggOp::Sum | AggOp::Avg, _) => Fold::Totals(Totals::default()),
            (AggOp::Min | AggOp::Max, _) => Fold::Ordered(BTreeMap::new()),
        }
    }

    /// A WME with attribute value `value` started (`add`) or stopped
    /// contributing.
    fn apply(&mut self, value: Value, add: bool) {
        match self {
            Fold::Count(n) if add => *n += 1,
            Fold::Count(n) => *n -= 1,
            Fold::Totals(t) => t.apply(value, add),
            Fold::Distinct(m) if add => *m.entry(value).or_insert(0) += 1,
            Fold::Ordered(m) if add => *m.entry(value).or_insert(0) += 1,
            Fold::Distinct(m) => match m.get_mut(&value) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    let gone = m.remove(&value);
                    debug_assert!(gone.is_some(), "removing a value that never contributed");
                }
            },
            Fold::Ordered(m) => match m.get_mut(&value) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    let gone = m.remove(&value);
                    debug_assert!(gone.is_some(), "removing a value that never contributed");
                }
            },
        }
    }

    /// The aggregate's current value under `op`. `sum`/`min`/`max`/`avg`
    /// of an empty (or wholly non-numeric, for the numeric ops) set is
    /// `nil`; `count` of an empty set is `0`.
    fn current(&self, op: AggOp) -> Value {
        match self {
            Fold::Count(n) => Value::Int(*n as i64),
            Fold::Distinct(m) => Value::Int(m.len() as i64),
            Fold::Totals(t) => match (t.numeric, op) {
                (0, _) => Value::Nil,
                (n, AggOp::Avg) => Value::Float(t.sum_f / n as f64),
                (n, _) if t.integral == n => Value::Int(t.sum_i),
                _ => Value::Float(t.sum_f),
            },
            Fold::Ordered(m) => {
                let end = if op == AggOp::Min {
                    m.keys().next()
                } else {
                    m.keys().next_back()
                };
                end.copied().unwrap_or(Value::Nil)
            }
        }
    }

    /// Live `(value, counter)` pairs (zero for counters and totals).
    fn pairs(&self) -> u64 {
        match self {
            Fold::Distinct(m) => m.len() as u64,
            Fold::Ordered(m) => m.len() as u64,
            Fold::Count(_) | Fold::Totals(_) => 0,
        }
    }
}

/// A rule's aggregates and the per-WME bookkeeping its shape needs —
/// the static half of the γ-memory's `AV`, built once per S-node.
#[derive(Clone, Debug)]
pub(crate) struct AggPlan {
    specs: Vec<AggSpec>,
    /// Source CEs whose WMEs are reference counted, ascending: those of
    /// the contribution-counting aggregates ([`by_wme`]) when the rule has
    /// more than one positive set-oriented CE, none otherwise.
    counted: Vec<usize>,
}

/// One SOI's aggregate state — the dynamic half of `AV`.
#[derive(Clone, Debug, Default)]
pub(crate) struct AggValues {
    /// One fold per aggregate, in [`AnalyzedRule::aggregates`] order.
    folds: Vec<Fold>,
    /// Per [`AggPlan`] counted CE: contributing WME → rows naming it.
    refs: Vec<FxHashMap<TimeTag, u32>>,
}

/// Does `spec` count each contributing WME once (`sum`/`avg`, `count`
/// over an element variable)? The other folds see only which values are
/// present, which rows show as well as WMEs.
fn by_wme(spec: &AggSpec) -> bool {
    matches!(
        (spec.op, spec.target),
        (AggOp::Sum | AggOp::Avg, _) | (AggOp::Count, AggTarget::Ce { .. })
    )
}

fn source_ce(spec: &AggSpec) -> usize {
    match spec.target {
        AggTarget::Pv { pos_ce, .. } | AggTarget::Ce { pos_ce, .. } => pos_ce,
    }
}

/// The attribute value a row's source WME contributes (`count` over an
/// element variable reads none).
fn value_of(spec: &AggSpec, row: &[TimeTag], lookup: &dyn Fn(TimeTag, Symbol) -> Value) -> Value {
    match spec.target {
        AggTarget::Pv { pos_ce, attr, .. } => lookup(row[pos_ce], attr),
        AggTarget::Ce { .. } => Value::Nil,
    }
}

impl AggPlan {
    /// The plan for `rule`'s aggregates.
    pub(crate) fn new(rule: &AnalyzedRule) -> AggPlan {
        let set_ces = rule
            .ces
            .iter()
            .filter(|c| !c.negated && c.set_oriented)
            .count();
        let mut counted: Vec<usize> = if set_ces > 1 {
            let counting = rule.aggregates.iter().filter(|s| by_wme(s));
            counting.map(source_ce).collect()
        } else {
            Vec::new()
        };
        counted.sort_unstable();
        counted.dedup();
        AggPlan {
            specs: rule.aggregates.clone(),
            counted,
        }
    }

    /// Empty-set state for a fresh SOI.
    pub(crate) fn fresh(&self) -> AggValues {
        AggValues {
            folds: self.specs.iter().map(Fold::for_spec).collect(),
            refs: vec![FxHashMap::default(); self.counted.len()],
        }
    }

    /// Fold `row` into `av`. Returns the aggregate updates: one per
    /// presence-only aggregate, and one per counting aggregate whose
    /// source WME is a new contributor.
    pub(crate) fn add_row(
        &self,
        av: &mut AggValues,
        row: &[TimeTag],
        lookup: &dyn Fn(TimeTag, Symbol) -> Value,
    ) -> u64 {
        self.fold_row(av, row, lookup, true)
    }

    /// Take `row` out of `av`; `lookup` must still resolve its WMEs.
    /// Returns the aggregate updates: one per presence-only aggregate, and
    /// one per counting aggregate whose source WME no longer contributes.
    pub(crate) fn remove_row(
        &self,
        av: &mut AggValues,
        row: &[TimeTag],
        lookup: &dyn Fn(TimeTag, Symbol) -> Value,
    ) -> u64 {
        self.fold_row(av, row, lookup, false)
    }

    fn fold_row(
        &self,
        av: &mut AggValues,
        row: &[TimeTag],
        lookup: &dyn Fn(TimeTag, Symbol) -> Value,
        add: bool,
    ) -> u64 {
        let apply = |fold: &mut Fold, spec: &AggSpec| fold.apply(value_of(spec, row, lookup), add);
        if self.counted.is_empty() {
            // Every row is its own WME's only row, or every fold reads
            // only which values are present.
            for (fold, spec) in av.folds.iter_mut().zip(&self.specs) {
                apply(fold, spec);
            }
            return self.specs.len() as u64;
        }
        // Presence-only folds take every row; the others wait for their
        // source WME's first arrival or last departure.
        let mut touched = 0;
        for (fold, spec) in av.folds.iter_mut().zip(&self.specs) {
            if !by_wme(spec) {
                apply(fold, spec);
                touched += 1;
            }
        }
        for (&ce, refs) in self.counted.iter().zip(&mut av.refs) {
            let tag = row[ce];
            let moved = if add {
                let n = refs.entry(tag).or_insert(0);
                *n += 1;
                *n == 1
            } else {
                let left = match refs.get_mut(&tag) {
                    Some(n) => {
                        *n -= 1;
                        *n == 0
                    }
                    None => {
                        debug_assert!(false, "removing a row whose WME was never added");
                        false
                    }
                };
                if left {
                    refs.remove(&tag);
                }
                left
            };
            if moved {
                for (fold, spec) in av.folds.iter_mut().zip(&self.specs) {
                    if by_wme(spec) && source_ce(spec) == ce {
                        apply(fold, spec);
                        touched += 1;
                    }
                }
            }
        }
        touched
    }

    /// The `i`-th aggregate's current value.
    pub(crate) fn current(&self, av: &AggValues, i: usize) -> Value {
        av.folds[i].current(self.specs[i].op)
    }

    /// Every aggregate's current value, in declaration order.
    pub(crate) fn values(&self, av: &AggValues) -> Vec<Value> {
        (0..self.specs.len()).map(|i| self.current(av, i)).collect()
    }
}

impl AggValues {
    /// The two live lengths the byte formula multiplies: reference-counted
    /// WMEs and `(value, counter)` pairs. O(aggregates).
    pub(crate) fn live_counts(&self) -> (u64, u64) {
        (
            self.refs.iter().map(|r| r.len() as u64).sum(),
            self.folds.iter().map(Fold::pairs).sum(),
        )
    }

    /// Folds held (one per aggregate).
    pub(crate) fn fold_count(&self) -> usize {
        self.folds.len()
    }

    /// Per-WME reference tables held (one per counted source CE).
    pub(crate) fn ref_tables(&self) -> usize {
        self.refs.len()
    }

    /// Estimated live bytes of `folds` folds and `ref_tables` reference
    /// tables holding `tag_refs` WMEs and `pairs` `(value, counter)` pairs
    /// in total (live entries × element size — see
    /// [`sorete_base::MemoryReport`] for the methodology).
    pub(crate) fn bytes_for(folds: u64, ref_tables: u64, tag_refs: u64, pairs: u64) -> u64 {
        use std::mem::size_of;
        folds * size_of::<Fold>() as u64
            + ref_tables * size_of::<FxHashMap<TimeTag, u32>>() as u64
            + tag_refs * size_of::<(TimeTag, u32)>() as u64
            + pairs * size_of::<(Value, u32)>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_lang::{analyze_rule, parse_rule};

    fn plan(src: &str) -> AggPlan {
        AggPlan::new(&analyze_rule(&parse_rule(src).unwrap()).unwrap())
    }

    fn t(n: u64) -> TimeTag {
        TimeTag::new(n)
    }

    /// A lookup where WME `n` holds `vals[n - 1]` in every attribute.
    fn wm(vals: &[Value]) -> impl Fn(TimeTag, Symbol) -> Value + '_ {
        move |tag, _| vals[(tag.raw() - 1) as usize]
    }

    #[test]
    fn the_rule_shape_picks_each_fold() {
        let p = plan(
            "(p r { [a ^x <x> ^y <y>] <P> }
               :test ((count <P>) > 0 and (count <x>) > 0 and (sum <y>) > 0
                      and (avg <y>) > 0 and (min <y>) > 0 and (max <y>) > 0) (halt))",
        );
        assert_eq!(
            p.fresh().ref_tables(),
            0,
            "one set CE keeps no reference counts"
        );
        let kinds: Vec<&str> = p
            .fresh()
            .folds
            .iter()
            .map(|f| match f {
                Fold::Count(_) => "count",
                Fold::Totals(_) => "totals",
                Fold::Distinct(_) => "distinct",
                Fold::Ordered(_) => "ordered",
            })
            .collect();
        assert_eq!(
            kinds,
            ["count", "distinct", "totals", "totals", "ordered", "ordered"]
        );
        let two = plan("(p r [a ^x <v> ^y <w>] [b ^x <v>] :test ((sum <w>) > 0) (halt))");
        assert_eq!(
            two.fresh().ref_tables(),
            1,
            "one table for the one source CE"
        );
        let presence = plan(
            "(p r [a ^x <v> ^y <w>] [b ^x <v>] :test ((max <w>) > 0 and (count <v>) > 0) (halt))",
        );
        assert_eq!(
            presence.fresh().ref_tables(),
            0,
            "presence-only folds keep no reference counts"
        );
    }

    /// Under a join of set-oriented CEs `max` and `count` over a PV count
    /// rows, not WMEs: a WME joined twice holds its value twice, and the
    /// value leaves with the WME's last row, as reference counts would have
    /// it.
    #[test]
    fn presence_only_folds_count_rows_under_a_join() {
        let p = plan(
            "(p r [a ^x <v> ^y <w>] [b ^x <v>] :test ((max <w>) > 0 and (count <w>) > 0) (halt))",
        );
        let vals = [Value::Int(7), Value::Int(3), Value::Int(0), Value::Int(0)];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        assert_eq!(p.add_row(&mut av, &[t(1), t(3)], &lookup), 2);
        assert_eq!(p.add_row(&mut av, &[t(1), t(4)], &lookup), 2);
        assert_eq!(p.add_row(&mut av, &[t(2), t(3)], &lookup), 2);
        assert_eq!(p.values(&av), [Value::Int(7), Value::Int(2)]);
        assert_eq!(p.remove_row(&mut av, &[t(1), t(3)], &lookup), 2);
        assert_eq!(p.values(&av), [Value::Int(7), Value::Int(2)]);
        p.remove_row(&mut av, &[t(1), t(4)], &lookup);
        assert_eq!(p.values(&av), [Value::Int(3), Value::Int(1)]);
        assert_eq!(av.live_counts(), (0, 2), "one pair per fold, no WME refs");
    }

    #[test]
    fn count_ce_counts_distinct_wmes_across_join_rows() {
        let p = plan("(p r { [a ^x <v>] <P> } [b ^x <v>] :test ((count <P>) > 0) (halt))");
        let vals = [Value::Int(1); 4];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        assert_eq!(p.current(&av, 0), Value::Int(0));
        assert_eq!(p.add_row(&mut av, &[t(1), t(3)], &lookup), 1);
        assert_eq!(p.add_row(&mut av, &[t(2), t(3)], &lookup), 1);
        // The same `a` WME joined with a second `b`: not a new contributor.
        assert_eq!(p.add_row(&mut av, &[t(1), t(4)], &lookup), 0);
        assert_eq!(p.current(&av, 0), Value::Int(2));
        assert_eq!(p.remove_row(&mut av, &[t(1), t(3)], &lookup), 0);
        assert_eq!(p.current(&av, 0), Value::Int(2));
        assert_eq!(p.remove_row(&mut av, &[t(1), t(4)], &lookup), 1);
        assert_eq!(p.current(&av, 0), Value::Int(1));
        assert_eq!(av.live_counts(), (1, 0));
    }

    #[test]
    fn count_pv_counts_distinct_values() {
        let p = plan("(p r [player ^name <n>] :test ((count <n>) > 0) (halt))");
        let vals = [Value::sym("Sue"), Value::sym("Sue"), Value::sym("Jack")];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        for n in 1..=3 {
            p.add_row(&mut av, &[t(n)], &lookup);
        }
        // Two distinct values across three WMEs (paper: Sue appears twice
        // in team B but is one domain value).
        assert_eq!(p.current(&av, 0), Value::Int(2));
        p.remove_row(&mut av, &[t(2)], &lookup);
        assert_eq!(p.current(&av, 0), Value::Int(2));
        p.remove_row(&mut av, &[t(1)], &lookup);
        assert_eq!(p.current(&av, 0), Value::Int(1));
        assert_eq!(av.live_counts(), (0, 1));
    }

    #[test]
    fn sum_and_avg_bag_semantics_over_wmes() {
        let p = plan("(p r [a ^x <v>] :test ((sum <v>) > 0 and (avg <v>) > 0) (halt))");
        // Distinct WMEs with the same value count again.
        let vals = [Value::Int(10), Value::Int(10), Value::Int(5)];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        for n in 1..=3 {
            p.add_row(&mut av, &[t(n)], &lookup);
        }
        assert_eq!(p.values(&av), [Value::Int(25), Value::Float(25.0 / 3.0)]);
        assert_eq!(av.live_counts(), (0, 0), "totals hold no pairs");
    }

    #[test]
    fn sum_promotes_to_float() {
        let p = plan("(p r [a ^x <v>] :test ((sum <v>) > 0) (halt))");
        let vals = [Value::Int(1), Value::Float(0.5)];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        p.add_row(&mut av, &[t(1)], &lookup);
        p.add_row(&mut av, &[t(2)], &lookup);
        assert_eq!(p.current(&av, 0), Value::Float(1.5));
        p.remove_row(&mut av, &[t(2)], &lookup);
        assert_eq!(p.current(&av, 0), Value::Int(1));
    }

    #[test]
    fn min_max_track_extremes_through_removal() {
        let p = plan("(p r [a ^x <v>] :test ((min <v>) > 0 and (max <v>) > 0) (halt))");
        let vals = [Value::Int(5), Value::Int(1), Value::Int(9)];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        for n in 1..=3 {
            p.add_row(&mut av, &[t(n)], &lookup);
        }
        assert_eq!(p.values(&av), [Value::Int(1), Value::Int(9)]);
        // Removing the current extremum reveals the next one (the paper's
        // (value, counter) list exists exactly for this).
        p.remove_row(&mut av, &[t(2)], &lookup);
        assert_eq!(p.values(&av), [Value::Int(5), Value::Int(9)]);
        p.remove_row(&mut av, &[t(3)], &lookup);
        assert_eq!(p.values(&av), [Value::Int(5), Value::Int(5)]);
    }

    #[test]
    fn empty_set_values() {
        let p = plan(
            "(p r [a ^x <v>] :test ((sum <v>) > 0 and (min <v>) > 0 and (max <v>) > 0
                                    and (avg <v>) > 0 and (count <v>) > 0) (halt))",
        );
        let nil = Value::Nil;
        assert_eq!(p.values(&p.fresh()), [nil, nil, nil, nil, Value::Int(0)]);
    }

    #[test]
    fn ordered_pairs_are_the_papers_counters() {
        // The γ-memory's "(value, counter) pairs", kept for `min`.
        let p = plan("(p r [player ^name <n>] :test ((min <n>) <> nil) (halt))");
        let vals = [Value::sym("Sue"), Value::sym("Sue"), Value::sym("Jack")];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        for n in 1..=3 {
            p.add_row(&mut av, &[t(n)], &lookup);
        }
        let Fold::Ordered(pairs) = &av.folds[0] else {
            panic!("{:?}", av.folds)
        };
        let pairs: Vec<(String, u32)> = pairs.iter().map(|(v, c)| (v.to_string(), *c)).collect();
        assert_eq!(pairs, [("Jack".to_string(), 1), ("Sue".to_string(), 2)]);
    }

    #[test]
    fn non_numeric_sum_is_nil() {
        let p = plan("(p r [a ^x <v>] :test ((sum <v>) > 0 and (max <v>) <> nil) (halt))");
        let vals = [Value::sym("a"), Value::sym("c")];
        let lookup = wm(&vals);
        let mut av = p.fresh();
        p.add_row(&mut av, &[t(1)], &lookup);
        p.add_row(&mut av, &[t(2)], &lookup);
        // Max still works on symbols (lexical order).
        assert_eq!(p.values(&av), [Value::Nil, Value::sym("c")]);
    }
}
