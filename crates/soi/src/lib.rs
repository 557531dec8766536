#![warn(missing_docs)]
//! The paper's core contribution, matcher-agnostic: aggregation of regular
//! instantiations into **set-oriented instantiations** (SOIs) via the
//! S-node algorithm of Figure 3.
//!
//! "The key insight is that set-oriented instantiations are made up of
//! aggregations of regular instantiations" (§5). Any tuple-level matcher
//! can therefore end in the same [`Productions`] layer (Rete and TREAT
//! both do; the naive oracle groups rows itself, to stay independent): it
//! registers each rule and hands the layer complete positive-CE rows with
//! a `+`/`-` sign. A tuple rule's row is a conflict-set delta at once; a
//! set-oriented rule's row feeds the rule's S-node, which the layer
//! settles once per drain into the `+`/`-`/`time` deltas it forwards —
//! one transition per changed SOI, however many rows moved.
//!
//! ```
//! use sorete_soi::Productions;
//! use sorete_base::{CsDelta, Symbol, TimeTag, Value, Wme};
//! use sorete_lang::{analyze_rule, parse_rule};
//! use std::sync::Arc;
//!
//! let rule = |src: &str| Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
//! let mut prods = Productions::default();
//! let each = prods.add_rule(rule("(p each (item ^k <k>) (halt))"));
//! let dups = prods.add_rule(rule(
//!     "(p dups { [item ^k <k>] <P> } :scalar (<k>) :test ((count <P>) > 1) (set-remove <P>))"));
//!
//! // Two WMEs with the same key, each a complete row of both rules.
//! let w = |tag: u64| Wme::new(TimeTag::new(tag), Symbol::new("item"),
//!                             vec![(Symbol::new("k"), Value::Int(7))]);
//! let wm = [w(1), w(2)];
//! let lookup = |t: TimeTag, a: Symbol| wm[(t.raw() - 1) as usize].get(a);
//! for t in [1, 2] {
//!     prods.row(each, &[TimeTag::new(t)], true, &lookup);
//!     prods.row(dups, &[TimeTag::new(t)], true, &lookup);
//! }
//! let mut out = Vec::new();
//! prods.drain_into(&lookup, &mut out);
//!
//! // The tuple deltas come first, then the one SOI the second row let
//! // pass `count > 1`, settled once.
//! let kinds: Vec<_> = out.iter().map(|d| match d {
//!     CsDelta::Insert(item) => (item.key.is_soi(), item.rows.len()),
//!     other => panic!("{other:?}"),
//! }).collect();
//! assert_eq!(kinds, [(false, 1), (false, 1), (true, 2)]);
//! assert_eq!(prods.materialize(out[2].key()).unwrap().aggregates, [Value::Int(2)]);
//! ```

mod aggregate;
mod productions;
mod snode;

pub use productions::Productions;
pub use snode::{GammaCounts, SoiStats};

#[cfg(test)]
mod tests {
    use crate::snode::SNode;
    use sorete_base::{CsDelta, FxHashMap, RuleId, Symbol, TimeTag, Value, Wme};
    use sorete_lang::{analyze_rule, parse_rule};
    use std::sync::Arc;

    /// Tiny fake working memory for driving an S-node by hand.
    struct Wm {
        wmes: FxHashMap<TimeTag, Wme>,
        next: u64,
    }

    impl Wm {
        fn new() -> Wm {
            Wm {
                wmes: FxHashMap::default(),
                next: 1,
            }
        }

        fn make(&mut self, class: &str, slots: &[(&str, Value)]) -> TimeTag {
            let tag = TimeTag::new(self.next);
            self.next += 1;
            let wme = Wme::new(
                tag,
                Symbol::new(class),
                slots.iter().map(|(a, v)| (Symbol::new(a), *v)).collect(),
            );
            self.wmes.insert(tag, wme);
            tag
        }

        fn lookup(&self) -> impl Fn(TimeTag, Symbol) -> Value + '_ {
            move |tag, attr| self.wmes[&tag].get(attr)
        }
    }

    fn snode(src: &str) -> SNode {
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        SNode::new(RuleId::new(0), rule, sorete_base::Tracer::null())
    }

    #[test]
    fn chg_new_emits_insert_when_test_passes() {
        let mut sn = snode("(p r [player ^name <n> ^team A] (write <n>))");
        let mut wm = Wm::new();
        let w1 = wm.make(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        );
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(out.len(), 1);
        let CsDelta::Insert(item) = &out[0] else {
            panic!("expected insert, got {:?}", out)
        };
        assert_eq!(item.rows.len(), 1);
        assert!(item.key.is_soi());
        assert_eq!(sn.candidate_count(), 1);
    }

    #[test]
    fn chg_new_with_failing_test_stays_inactive() {
        // Needs at least 2 WMEs before flowing.
        let mut sn = snode("(p r { [player ^team A] <P> } :test ((count <P>) > 1) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("player", &[("team", Value::sym("A"))]);
        let w2 = wm.make("player", &[("team", Value::sym("A"))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert!(out.is_empty(), "chg=new then fail must not flow: {:?}", out);
        assert_eq!(sn.candidate_count(), 1, "candidate SOI still tracked");
        // Second token crosses the threshold. It is more recent, so the
        // figure's `new-time` + inactive path activates with `+`.
        sn.insert_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(out.len(), 1);
        let CsDelta::Insert(item) = &out[0] else {
            panic!("{:?}", out)
        };
        assert_eq!(item.aggregates, vec![Value::Int(2)]);
        assert_eq!(item.rows.len(), 2);
        // Head row is the most recent.
        assert_eq!(item.rows[0].as_ref(), &[w2]);
    }

    #[test]
    fn chg_fail_deactivates_active_soi() {
        let mut sn = snode("(p r { [player ^team A] <P> } :test ((count <P>) > 1) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("player", &[("team", Value::sym("A"))]);
        let w2 = wm.make("player", &[("team", Value::sym("A"))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        sn.insert_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        out.clear();
        // Dropping back below the threshold → `-` token.
        sn.remove_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], CsDelta::Remove(_)), "{:?}", out);
        // The candidate SOI survives in the γ-memory (one row left).
        assert_eq!(sn.candidate_count(), 1);
    }

    #[test]
    fn chg_delete_removes_candidate_and_emits_remove_if_active() {
        let mut sn = snode("(p r [player ^team A] (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("player", &[("team", Value::sym("A"))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        out.clear();
        sn.remove_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert!(matches!(&out[0], CsDelta::Remove(_)));
        assert_eq!(sn.candidate_count(), 0);
    }

    #[test]
    fn chg_delete_of_inactive_soi_emits_nothing() {
        let mut sn = snode("(p r { [player ^team A] <P> } :test ((count <P>) > 1) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("player", &[("team", Value::sym("A"))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        sn.remove_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert!(out.is_empty(), "{:?}", out);
        assert_eq!(sn.candidate_count(), 0);
    }

    #[test]
    fn chg_new_time_on_active_soi_emits_time_token() {
        let mut sn = snode("(p r [player ^team A] (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("player", &[("team", Value::sym("A"))]);
        let w2 = wm.make("player", &[("team", Value::sym("A"))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        out.clear();
        // w2 is more recent → becomes head → new-time → `time` token.
        sn.insert_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(out.len(), 1);
        let CsDelta::Retime(info) = &out[0] else {
            panic!("{:?}", out)
        };
        assert_eq!(info.recency.as_ref(), &[w2]);
        // The slim token materializes back to the full SOI on demand.
        let item = sn
            .materialize(match &info.key {
                sorete_base::InstKey::Soi { parts, .. } => parts,
                other => panic!("{:?}", other),
            })
            .expect("active SOI materializes");
        assert_eq!(item.rows.len(), 2);
    }

    #[test]
    fn chg_same_time_on_active_soi_updates_contents() {
        // Two CEs so a *less* recent combined row can arrive second.
        let mut sn = snode("(p r [a ^x <x>] [b ^y <y>] (halt))");
        let mut wm = Wm::new();
        let a1 = wm.make("a", &[("x", Value::Int(1))]);
        let b1 = wm.make("b", &[("y", Value::Int(1))]);
        let a0 = wm.make("a", &[("x", Value::Int(0))]);
        let mut out = Vec::new();
        // Row (a0, b1) has recency [3,2]; insert it first.
        sn.insert_row(&[a0, b1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        out.clear();
        // Row (a1, b1) has recency [2,1] — strictly less recent → same-time.
        sn.insert_row(&[a1, b1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(out.len(), 1);
        let CsDelta::Retime(info) = &out[0] else {
            panic!("{:?}", out)
        };
        let item = sn
            .materialize(match &info.key {
                sorete_base::InstKey::Soi { parts, .. } => parts,
                other => panic!("{:?}", other),
            })
            .expect("active SOI materializes");
        assert_eq!(item.rows.len(), 2);
        // Head is unchanged.
        assert_eq!(item.rows[0].as_ref(), &[a0, b1]);
        assert_eq!(item.rows[1].as_ref(), &[a1, b1]);
    }

    #[test]
    fn same_time_activation_extension() {
        // Threshold 2, tokens arriving out of recency order: the second
        // token is *older* than the head, so chg=same-time — the printed
        // figure would leave the SOI inactive forever; our documented
        // extension activates it.
        let mut sn = snode("(p r { [a ^x <x>] <P> } :test ((count <P>) > 1) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("a", &[("x", Value::Int(1))]);
        let w2 = wm.make("a", &[("x", Value::Int(2))]);
        let mut out = Vec::new();
        sn.insert_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out); // head (newer)
        assert!(out.is_empty());
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out); // older → same-time
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], CsDelta::Insert(_)), "{:?}", out);
    }

    #[test]
    fn scalar_ce_partitions_into_separate_sois() {
        // Figure 2, compete2: set CE + regular CE → one SOI per regular match.
        let mut sn =
            snode("(p compete2 [player ^name <n> ^team A] (player ^name <n> ^team B) (halt))");
        let mut wm = Wm::new();
        let jack_a = wm.make(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        );
        let jack_b1 = wm.make(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("B"))],
        );
        let jack_b2 = wm.make(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("B"))],
        );
        let mut out = Vec::new();
        sn.insert_row(&[jack_a, jack_b1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        sn.insert_row(&[jack_a, jack_b2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        // Two distinct scalar-CE WMEs → two SOIs.
        assert_eq!(sn.candidate_count(), 2);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| matches!(d, CsDelta::Insert(_))));
    }

    #[test]
    fn scalar_pv_partitions_by_value() {
        // RemoveDups-style: :scalar (<n>) partitions one set CE by value.
        let mut sn = snode(
            "(p r { [player ^name <n>] <P> } :scalar (<n>) :test ((count <P>) > 1) (set-remove <P>))",
        );
        let mut wm = Wm::new();
        let s1 = wm.make("player", &[("name", Value::sym("Sue"))]);
        let s2 = wm.make("player", &[("name", Value::sym("Sue"))]);
        let j1 = wm.make("player", &[("name", Value::sym("Jack"))]);
        let mut out = Vec::new();
        sn.insert_row(&[s1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        sn.insert_row(&[j1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        sn.insert_row(&[s2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(sn.candidate_count(), 2, "partitioned by <n>'s value");
        // Only the Sue-partition (2 WMEs) passes the count test.
        assert_eq!(out.len(), 1);
        let CsDelta::Insert(item) = &out[0] else {
            panic!("{:?}", out)
        };
        assert_eq!(item.rows.len(), 2);
        assert_eq!(item.aggregates, vec![Value::Int(2)]);
    }

    #[test]
    fn test_referencing_scalar_variable() {
        // `:test` mixing an aggregate with a scalar var bound by a regular CE.
        let mut sn =
            snode("(p r (limit ^n <k>) { [item ^kind x] <P> } :test ((count <P>) >= <k>) (halt))");
        let mut wm = Wm::new();
        let lim = wm.make("limit", &[("n", Value::Int(2))]);
        let i1 = wm.make("item", &[("kind", Value::sym("x"))]);
        let i2 = wm.make("item", &[("kind", Value::sym("x"))]);
        let mut out = Vec::new();
        sn.insert_row(&[lim, i1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert!(out.is_empty(), "1 < 2: {:?}", out);
        sn.insert_row(&[lim, i2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], CsDelta::Insert(_)));
    }

    #[test]
    fn version_bumps_on_every_content_change() {
        let mut sn = snode("(p r [a ^x <x>] (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("a", &[("x", Value::Int(1))]);
        let w2 = wm.make("a", &[("x", Value::Int(2))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        let v1 = match &out[0] {
            CsDelta::Insert(i) => i.version,
            other => panic!("{:?}", other),
        };
        out.clear();
        sn.insert_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        let v2 = match &out[0] {
            CsDelta::Retime(i) => i.version,
            other => panic!("{:?}", other),
        };
        assert!(
            v2 > v1,
            "an SOI that changes becomes eligible to fire again"
        );
    }

    #[test]
    fn stats_count_work() {
        let mut sn = snode("(p r { [a ^x <x>] <P> } :test ((count <P>) > 0) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("a", &[("x", Value::Int(1))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        let st = sn.stats();
        assert_eq!(st.activations, 1);
        assert!(st.test_evals >= 1);
        assert!(st.aggregate_updates >= 1);
    }

    // ------------------------------------------------------------------
    // Multi-token drains: stage 3 runs once per dirty SOI.

    fn kinds(out: &[CsDelta]) -> Vec<&'static str> {
        out.iter()
            .map(|d| match d {
                CsDelta::Insert(_) => "+",
                CsDelta::Remove(_) => "-",
                CsDelta::Retime(_) => "time",
            })
            .collect()
    }

    #[test]
    fn k_removals_from_an_active_soi_settle_to_one_time_token() {
        let mut sn = snode("(p r { [a ^x <x>] <P> } :test ((count <P>) > 0) (halt))");
        let mut wm = Wm::new();
        let tags: Vec<TimeTag> = (0..6)
            .map(|i| wm.make("a", &[("x", Value::Int(i))]))
            .collect();
        let mut out = Vec::new();
        for &t in &tags {
            sn.insert_row(&[t], &wm.lookup());
        }
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(kinds(&out), ["+"], "six rows in one drain enter once");
        out.clear();
        let evals = sn.stats().test_evals;
        for &t in &tags[1..] {
            sn.remove_row(&[t], &wm.lookup());
        }
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(kinds(&out), ["time"], "{:?}", out);
        let CsDelta::Retime(info) = &out[0] else {
            unreachable!()
        };
        assert_eq!(info.version, 11, "one version bump per row, as per token");
        assert_eq!(info.recency.as_ref(), &[tags[0]]);
        assert_eq!(sn.stats().test_evals, evals + 1, "one test per drain");
        assert_eq!(sn.stats().retime_tokens, 1);
    }

    #[test]
    fn emptied_and_refilled_in_one_drain_is_remove_then_insert() {
        let mut sn = snode("(p r { [a ^x <x>] <P> } :test ((count <P>) > 0) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("a", &[("x", Value::Int(1))]);
        let w2 = wm.make("a", &[("x", Value::Int(2))]);
        let w3 = wm.make("a", &[("x", Value::Int(3))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.insert_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        out.clear();
        // The whole SOI goes, then a new one with the same key arrives: a
        // fresh instantiation, so the conflict set drops the old one (and
        // its refraction) and takes the new one, version restarted.
        sn.remove_row(&[w1], &wm.lookup());
        sn.remove_row(&[w2], &wm.lookup());
        sn.insert_row(&[w3], &wm.lookup());
        assert_eq!(sn.candidate_count(), 1);
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(kinds(&out), ["-", "+"], "{:?}", out);
        let CsDelta::Insert(item) = &out[1] else {
            unreachable!()
        };
        assert_eq!(item.version, 1);
        assert_eq!(item.aggregates, vec![Value::Int(1)]);
        assert_eq!(sn.gamma_counts(), sn.walk_gamma_counts());

        // Emptied and not refilled: one `-`, and the entry is gone.
        out.clear();
        sn.remove_row(&[w3], &wm.lookup());
        assert_eq!(sn.candidate_count(), 0, "a tombstone is no candidate");
        assert_eq!(sn.gamma_counts(), sn.walk_gamma_counts());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(kinds(&out), ["-"]);
        assert!(!sn.is_dirty());
    }

    #[test]
    fn a_transient_test_failure_settles_to_one_time_token() {
        let mut sn = snode("(p r { [a ^x <x>] <P> } :test ((count <P>) > 1) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("a", &[("x", Value::Int(1))]);
        let w2 = wm.make("a", &[("x", Value::Int(2))]);
        let w3 = wm.make("a", &[("x", Value::Int(3))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.insert_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(kinds(&out), ["+"]);
        out.clear();
        // count 2 → 1 (the test fails) → 2 again, all in one drain.
        sn.remove_row(&[w2], &wm.lookup());
        sn.insert_row(&[w3], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert_eq!(kinds(&out), ["time"], "{:?}", out);
    }

    #[test]
    fn inactive_to_active_to_inactive_in_one_drain_emits_nothing() {
        let mut sn = snode("(p r { [a ^x <x>] <P> } :test ((count <P>) > 1) (halt))");
        let mut wm = Wm::new();
        let w1 = wm.make("a", &[("x", Value::Int(1))]);
        let w2 = wm.make("a", &[("x", Value::Int(2))]);
        let mut out = Vec::new();
        sn.insert_row(&[w1], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert!(out.is_empty());
        sn.insert_row(&[w2], &wm.lookup());
        sn.remove_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert!(out.is_empty(), "{:?}", out);
        // Born and gone within one drain: nothing either.
        sn.remove_row(&[w1], &wm.lookup());
        sn.insert_row(&[w2], &wm.lookup());
        sn.remove_row(&[w2], &wm.lookup());
        sn.settle(&wm.lookup(), &mut out);
        assert!(out.is_empty(), "{:?}", out);
        assert_eq!(sn.candidate_count(), 0);
    }
}
