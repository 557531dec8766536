//! Incremental aggregate state, one per `(op, target)` pair of a rule.
//!
//! The paper's γ-memory stores, for each aggregate operation, "the
//! aggregate's current value followed by a list of (value, counter) pairs
//! representing the values in the WMEs used in the computation". That is
//! exactly what [`AggState`] maintains:
//!
//! - aggregates range over the **WMEs** matched by the target CE within the
//!   SOI (not over join rows — a WME joined against three partners still
//!   contributes once), so we track distinct time tags with a per-tag row
//!   reference count;
//! - the `(value, counter)` multiset lives in a `BTreeMap`, giving O(log n)
//!   updates and O(1) `min`/`max` without rescans;
//! - `count` over an element variable counts distinct WMEs; over a
//!   set-oriented pattern variable it counts distinct *values* in the
//!   variable's domain (paper §4.1: domains are sets of values).

use sorete_base::{FxHashMap, TimeTag, Value};
use sorete_lang::analyze::{AggSpec, AggTarget};
use sorete_lang::ast::AggOp;
use std::collections::BTreeMap;

/// Incrementally-maintained state for one aggregate operation.
#[derive(Clone, Debug)]
pub struct AggState {
    /// What is being computed.
    pub spec: AggSpec,
    /// Distinct contributing WMEs: tag → (value, #rows referencing it).
    tag_refs: FxHashMap<TimeTag, (Value, u32)>,
    /// The paper's `(value, counter)` pairs: value → #distinct WMEs.
    value_counts: BTreeMap<Value, u32>,
    /// Running integer sum of numeric contributions.
    sum_i: i64,
    /// Running float sum of numeric contributions.
    sum_f: f64,
    /// Number of numeric contributions (for `avg`).
    numeric: u32,
    /// Number of integer contributions (to decide `Int` vs `Float` results).
    integral: u32,
}

impl AggState {
    /// Fresh (empty-set) state.
    pub fn new(spec: AggSpec) -> AggState {
        AggState {
            spec,
            tag_refs: FxHashMap::default(),
            value_counts: BTreeMap::new(),
            sum_i: 0,
            sum_f: 0.0,
            numeric: 0,
            integral: 0,
        }
    }

    /// The positive CE whose column feeds this aggregate.
    pub fn source_ce(&self) -> usize {
        match self.spec.target {
            AggTarget::Pv { pos_ce, .. } | AggTarget::Ce { pos_ce, .. } => pos_ce,
        }
    }

    /// The two live lengths the byte formula multiplies: distinct
    /// contributing WMEs and `(value, counter)` pairs. O(1).
    pub fn live_counts(&self) -> (u64, u64) {
        (self.tag_refs.len() as u64, self.value_counts.len() as u64)
    }

    /// Estimated live bytes of `states` aggregate states holding `tag_refs`
    /// tag references and `value_counts` pairs in total: the state headers
    /// plus the tag-reference maps and the `(value, counter)` multisets
    /// (live entries × element size — see [`sorete_base::MemoryReport`]
    /// for the methodology).
    pub fn bytes_for(states: u64, tag_refs: u64, value_counts: u64) -> u64 {
        use std::mem::size_of;
        states * size_of::<AggState>() as u64
            + tag_refs * size_of::<(TimeTag, (Value, u32))>() as u64
            + value_counts * size_of::<(Value, u32)>() as u64
    }

    /// A row referencing WME `tag` (with attribute value `value`) joined the
    /// SOI. Returns `true` if this WME is a *new* contributor (first row
    /// referencing it) — i.e. the multiset actually changed.
    pub fn add_row(&mut self, tag: TimeTag, value: Value) -> bool {
        let slot = self.tag_refs.entry(tag).or_insert((value, 0));
        slot.1 += 1;
        if slot.1 > 1 {
            return false;
        }
        *self.value_counts.entry(value).or_insert(0) += 1;
        match value {
            Value::Int(i) => {
                self.sum_i = self.sum_i.wrapping_add(i);
                self.sum_f += i as f64;
                self.numeric += 1;
                self.integral += 1;
            }
            Value::Float(f) => {
                self.sum_f += f;
                self.numeric += 1;
            }
            _ => {}
        }
        true
    }

    /// A row referencing WME `tag` left the SOI. Returns `true` if the WME
    /// no longer contributes (last referencing row removed).
    pub fn remove_row(&mut self, tag: TimeTag) -> bool {
        let Some(slot) = self.tag_refs.get_mut(&tag) else {
            debug_assert!(false, "removing a row whose WME was never added");
            return false;
        };
        slot.1 -= 1;
        if slot.1 > 0 {
            return false;
        }
        let (value, _) = self.tag_refs.remove(&tag).unwrap();
        match self.value_counts.get_mut(&value) {
            Some(c) if *c > 1 => {
                *c -= 1;
            }
            _ => {
                self.value_counts.remove(&value);
            }
        }
        match value {
            Value::Int(i) => {
                self.sum_i = self.sum_i.wrapping_sub(i);
                self.sum_f -= i as f64;
                self.numeric -= 1;
                self.integral -= 1;
            }
            Value::Float(f) => {
                self.sum_f -= f;
                self.numeric -= 1;
            }
            _ => {}
        }
        true
    }

    /// The aggregate's current value. `sum`/`min`/`max`/`avg` of an empty
    /// (or wholly non-numeric, for the numeric ops) set is `nil`;
    /// `count` of an empty set is `0`.
    pub fn current(&self) -> Value {
        match self.spec.op {
            AggOp::Count => match self.spec.target {
                AggTarget::Ce { .. } => Value::Int(self.tag_refs.len() as i64),
                AggTarget::Pv { .. } => Value::Int(self.value_counts.len() as i64),
            },
            AggOp::Sum => {
                if self.numeric == 0 {
                    Value::Nil
                } else if self.integral == self.numeric {
                    Value::Int(self.sum_i)
                } else {
                    Value::Float(self.sum_f)
                }
            }
            AggOp::Avg => {
                if self.numeric == 0 {
                    Value::Nil
                } else {
                    Value::Float(self.sum_f / self.numeric as f64)
                }
            }
            AggOp::Min => self
                .value_counts
                .keys()
                .next()
                .copied()
                .unwrap_or(Value::Nil),
            AggOp::Max => self
                .value_counts
                .keys()
                .next_back()
                .copied()
                .unwrap_or(Value::Nil),
        }
    }

    /// Number of distinct contributing WMEs.
    pub fn wme_count(&self) -> usize {
        self.tag_refs.len()
    }

    /// The `(value, counter)` pairs, in value order (for inspection/tests).
    pub fn value_pairs(&self) -> impl Iterator<Item = (&Value, &u32)> {
        self.value_counts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_base::Symbol;

    fn spec(op: AggOp, pv: bool) -> AggSpec {
        let var = Symbol::new("v");
        AggSpec {
            op,
            target: if pv {
                AggTarget::Pv {
                    var,
                    pos_ce: 0,
                    attr: Symbol::new("a"),
                }
            } else {
                AggTarget::Ce { var, pos_ce: 0 }
            },
        }
    }

    fn t(n: u64) -> TimeTag {
        TimeTag::new(n)
    }

    #[test]
    fn count_ce_counts_distinct_wmes() {
        let mut s = AggState::new(spec(AggOp::Count, false));
        assert_eq!(s.current(), Value::Int(0));
        assert!(s.add_row(t(1), Value::sym("Sue")));
        assert!(s.add_row(t(2), Value::sym("Sue")));
        // Same WME referenced by a second join row: not a new contributor.
        assert!(!s.add_row(t(1), Value::sym("Sue")));
        assert_eq!(s.current(), Value::Int(2));
        assert!(!s.remove_row(t(1)));
        assert_eq!(s.current(), Value::Int(2));
        assert!(s.remove_row(t(1)));
        assert_eq!(s.current(), Value::Int(1));
    }

    #[test]
    fn count_pv_counts_distinct_values() {
        let mut s = AggState::new(spec(AggOp::Count, true));
        s.add_row(t(1), Value::sym("Sue"));
        s.add_row(t(2), Value::sym("Sue"));
        s.add_row(t(3), Value::sym("Jack"));
        // Two distinct values across three WMEs (paper: Sue appears twice
        // in team B but is one domain value).
        assert_eq!(s.current(), Value::Int(2));
        s.remove_row(t(2));
        assert_eq!(s.current(), Value::Int(2));
        s.remove_row(t(1));
        assert_eq!(s.current(), Value::Int(1));
    }

    #[test]
    fn sum_and_avg_bag_semantics_over_wmes() {
        let mut s = AggState::new(spec(AggOp::Sum, true));
        s.add_row(t(1), Value::Int(10));
        s.add_row(t(2), Value::Int(10)); // distinct WME, same value: counts again
        s.add_row(t(3), Value::Int(5));
        assert_eq!(s.current(), Value::Int(25));
        let mut a = AggState::new(spec(AggOp::Avg, true));
        a.add_row(t(1), Value::Int(10));
        a.add_row(t(2), Value::Int(20));
        assert_eq!(a.current(), Value::Float(15.0));
    }

    #[test]
    fn sum_promotes_to_float() {
        let mut s = AggState::new(spec(AggOp::Sum, true));
        s.add_row(t(1), Value::Int(1));
        s.add_row(t(2), Value::Float(0.5));
        assert_eq!(s.current(), Value::Float(1.5));
        s.remove_row(t(2));
        assert_eq!(s.current(), Value::Int(1));
    }

    #[test]
    fn min_max_track_extremes_through_removal() {
        let mut s = AggState::new(spec(AggOp::Min, true));
        let mut m = AggState::new(spec(AggOp::Max, true));
        for (tag, v) in [(1, 5), (2, 1), (3, 9)] {
            s.add_row(t(tag), Value::Int(v));
            m.add_row(t(tag), Value::Int(v));
        }
        assert_eq!(s.current(), Value::Int(1));
        assert_eq!(m.current(), Value::Int(9));
        // Removing the current extremum reveals the next one (the paper's
        // (value, counter) list exists exactly for this).
        s.remove_row(t(2));
        m.remove_row(t(3));
        assert_eq!(s.current(), Value::Int(5));
        assert_eq!(m.current(), Value::Int(5));
    }

    #[test]
    fn empty_set_values() {
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Avg] {
            let s = AggState::new(spec(op, true));
            assert_eq!(s.current(), Value::Nil, "{:?}", op);
        }
        assert_eq!(
            AggState::new(spec(AggOp::Count, true)).current(),
            Value::Int(0)
        );
    }

    #[test]
    fn value_pairs_expose_the_papers_counters() {
        // The γ-memory's "(value, counter) pairs".
        let mut s = AggState::new(spec(AggOp::Count, true));
        s.add_row(t(1), Value::sym("Sue"));
        s.add_row(t(2), Value::sym("Sue"));
        s.add_row(t(3), Value::sym("Jack"));
        let pairs: Vec<(String, u32)> = s.value_pairs().map(|(v, c)| (v.to_string(), *c)).collect();
        assert_eq!(pairs, vec![("Jack".to_string(), 1), ("Sue".to_string(), 2)]);
        assert_eq!(s.wme_count(), 3);
    }

    #[test]
    fn non_numeric_sum_is_nil() {
        let mut s = AggState::new(spec(AggOp::Sum, true));
        s.add_row(t(1), Value::sym("a"));
        assert_eq!(s.current(), Value::Nil);
        // Min/max still work on symbols (lexical order).
        let mut m = AggState::new(spec(AggOp::Max, true));
        m.add_row(t(1), Value::sym("a"));
        m.add_row(t(2), Value::sym("c"));
        assert_eq!(m.current(), Value::sym("c"));
    }
}
