//! Incremental production addition: rules loaded *after* working memory is
//! populated must see exactly the matches a from-scratch build would —
//! Doorenbos' "update-new-node" step, checked against the naive oracle.

use proptest::prelude::*;
use sorete::core::{MatcherKind, ProductionSystem};
use sorete::lang::{analyze_rule, parse_rule, Matcher};
use sorete::naive::NaiveMatcher;
use sorete::rete::ReteMatcher;
use sorete::treat::TreatMatcher;
use sorete_base::{ConflictItem, CsDelta, FxHashMap, InstKey, Symbol, TimeTag, Value, Wme};
use std::collections::BTreeSet;
use std::sync::Arc;

const RULES: &[&str] = &[
    "(p r1 (a ^x <v>) (b ^x <v>) (halt))",
    "(p r2 (a ^x <v>) -(b ^x <v>) (halt))",
    "(p r3 { [a ^x <v>] <P> } :scalar (<v>) :test ((count <P>) > 1) (set-remove <P>))",
    "(p r4 [b ^y <w>] (halt))",
];

fn wme(tag: u64, class: &str, x: i64, y: i64) -> Wme {
    Wme::new(
        TimeTag::new(tag),
        Symbol::new(class),
        vec![
            (Symbol::new("x"), Value::Int(x)),
            (Symbol::new("y"), Value::Int(y)),
        ],
    )
}

type Canon = BTreeSet<(usize, BTreeSet<Vec<u64>>, Vec<String>)>;

fn canon_of(cs: &FxHashMap<InstKey, ConflictItem>) -> Canon {
    cs.values()
        .map(|item| {
            let rows: BTreeSet<Vec<u64>> = item
                .rows
                .iter()
                .map(|r| r.iter().map(|t| t.raw()).collect())
                .collect();
            let aggs: Vec<String> = item.aggregates.iter().map(|v| v.to_string()).collect();
            (item.key.rule().index(), rows, aggs)
        })
        .collect()
}

fn drive(m: &mut dyn Matcher, wmes: &[Wme], split: usize) -> Canon {
    // Load the first `split` rules, then WMEs, then the remaining rules.
    for src in &RULES[..split] {
        m.add_rule(Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap()));
    }
    for w in wmes {
        m.insert_wme(w);
    }
    for src in &RULES[split..] {
        m.add_rule(Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap()));
    }
    let mut cs: FxHashMap<InstKey, ConflictItem> = FxHashMap::default();
    for d in m.drain_deltas() {
        match d {
            CsDelta::Insert(item) => {
                assert!(cs.insert(item.key.clone(), item).is_none());
            }
            CsDelta::Remove(key) => {
                assert!(cs.remove(&key).is_some());
            }
            CsDelta::Retime(info) => {
                if let Some(fresh) = m.materialize(&info.key) {
                    cs.insert(info.key.clone(), fresh);
                }
            }
        }
    }
    canon_of(&cs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn late_rules_see_existing_wm(
        seed in proptest::collection::vec((0u8..2, 0i64..3, 0i64..3), 0..12),
        split in 0usize..5,
    ) {
        let split = split.min(RULES.len());
        let wmes: Vec<Wme> = seed
            .iter()
            .enumerate()
            .map(|(i, &(c, x, y))| wme(i as u64 + 1, if c == 0 { "a" } else { "b" }, x, y))
            .collect();

        let expected = drive(&mut NaiveMatcher::new(), &wmes, split);
        let rete = drive(&mut ReteMatcher::new(), &wmes, split);
        let treat = drive(&mut TreatMatcher::new(), &wmes, split);
        prop_assert_eq!(&rete, &expected, "rete with split {}", split);
        prop_assert_eq!(&treat, &expected, "treat with split {}", split);
    }
}

#[test]
fn engine_supports_late_program_loading() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program("(literalize item s)").unwrap();
    for _ in 0..4 {
        ps.make_str("item", &[("s", Value::sym("pending"))])
            .unwrap();
    }
    // The sweep rule arrives after the facts.
    ps.load_program(
        "(p sweep { [item ^s pending] <P> } (set-modify <P> ^s done) (write swept (count <P>)))",
    )
    .unwrap();
    let outcome = ps.run(Some(10));
    assert_eq!(outcome.fired, 1);
    assert_eq!(ps.take_output(), vec!["swept 4"]);
}

#[test]
fn late_rule_with_existing_joins_and_negation() {
    for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
        let mut ps = ProductionSystem::new(kind);
        ps.load_program("(literalize a x)(literalize b x)").unwrap();
        ps.make_str("a", &[("x", Value::Int(1))]).unwrap();
        ps.make_str("a", &[("x", Value::Int(2))]).unwrap();
        ps.make_str("b", &[("x", Value::Int(1))]).unwrap();
        ps.load_program("(p lonely (a ^x <v>) -(b ^x <v>) (write lonely <v>) (remove 1))")
            .unwrap();
        assert_eq!(
            ps.conflict_set_len(),
            1,
            "{:?}: only a(x=2) is unblocked",
            kind
        );
        ps.run(Some(5));
        assert_eq!(ps.take_output(), vec!["lonely 2"], "{:?}", kind);
    }
}

/// A rule loaded late derives its instantiations in tag order, not in the
/// WME table's iteration order — which depends on the table's capacity
/// history, and a recovered engine does not share that history. Assert
/// 5 000 facts, retract all but eleven, then load a self-join: the engine
/// that lived through the churn and the one resumed from its checkpoint
/// must emit the same 121 `+` tokens in the same order and (the arrival
/// tie-break) fire them in the same order — both are in the logical
/// stream.
#[test]
fn late_rule_after_recovery_matches_the_uninterrupted_run() {
    const CLASSES: &str = "(literalize c g)";
    const LATE: &str = "(p pair (c ^g <g>) (c ^g <g>) --> (write <g>))";

    let logical = |ps: &ProductionSystem| -> Vec<String> {
        let events = ps.trace_events();
        let logical = events.iter().filter(|e| e.is_logical());
        logical.map(|e| e.to_json()).collect()
    };
    for kind in [MatcherKind::Rete, MatcherKind::Treat] {
        let mut live = ProductionSystem::new(kind);
        live.load_program(CLASSES).unwrap();
        let tags: Vec<TimeTag> = (0..5000)
            .map(|_| live.make_str("c", &[("g", Value::Int(1))]).unwrap())
            .collect();
        for tag in tags
            .iter()
            .filter(|t| t.raw() % 500 != 0 && t.raw() != 4992)
        {
            live.retract_wme(*tag).unwrap();
        }
        assert_eq!(live.wm().len(), 11);

        let mut back = ProductionSystem::new(kind);
        back.load_program(CLASSES).unwrap();
        back.resume_from_str(&live.checkpoint_string()).unwrap();

        let mut streams = Vec::new();
        for ps in [&mut live, &mut back] {
            ps.set_event_log(true);
            ps.load_program(LATE).unwrap();
            assert_eq!(ps.conflict_set_len(), 121);
            assert_eq!(ps.run(None).fired, 121);
            ps.validate_matcher().unwrap();
            streams.push(logical(ps));
        }
        assert_eq!(streams[0], streams[1], "{:?}", kind);
    }
}
