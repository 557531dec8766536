//! Incremental production addition: rules loaded *after* working memory is
//! populated must see exactly the matches a from-scratch build would —
//! Doorenbos' "update-new-node" step, checked against the naive oracle.

use proptest::prelude::*;
use sorete::core::{MatcherKind, ProductionSystem};
use sorete::lang::{analyze_rule, parse_rule, Matcher};
use sorete::naive::NaiveMatcher;
use sorete::rete::ReteMatcher;
use sorete::treat::TreatMatcher;
use sorete_base::{
    CollectSink, ConflictItem, CsDelta, FxHashMap, InstKey, Symbol, TimeTag, Value, Wme,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

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
            let log = collect_events(ps);
            ps.load_program(LATE).unwrap();
            assert_eq!(ps.conflict_set_len(), 121);
            assert_eq!(ps.run(None).fired, 121);
            ps.validate_matcher().unwrap();
            streams.push(logical(&log));
        }
        assert_eq!(streams[0], streams[1], "{:?}", kind);
    }
}

// ---------------------------------------------------------------------------
// Rules arriving, leaving and surviving a resume mid-stream, on every kind.

/// One random working-memory operation.
#[derive(Clone, Debug)]
enum Op {
    Insert { class: u8, x: i64, y: i64 },
    Remove(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..2, 0i64..4, 0i64..4).prop_map(|(class, x, y)| Op::Insert { class, x, y }),
        1 => (0usize..16).prop_map(Op::Remove),
    ]
}

const KINDS: [MatcherKind; 4] = [
    MatcherKind::Rete,
    MatcherKind::ReteScan,
    MatcherKind::Treat,
    MatcherKind::Naive,
];

const SCRIPT_CLASSES: &str = "(literalize a x y)(literalize b x y)";

/// The real rules, in the chunks they are loaded in. Rule 0 (`pair`) is
/// the one excised. No two rules can tie on LEX (`guard` and `tally` both
/// match `b` but differ in specificity), so the arrival tie-break never
/// decides a firing.
const CHUNKS: [&str; 3] = [
    "(p pair (a ^x <v>) (b ^x <v> ^y <w>) (write pair <v>) (remove 2))
     (p solo (a ^x 3 ^y <w>) (remove 1))",
    "(p tally { [b ^x <v> ^y <> 9] <B> } :scalar (<v>) :test ((count <B>) > 2)
        (write tally <v>) (set-remove <B>))",
    "(p guard (b ^x <v>) -(a ^x <v> ^y <v>) (write g <v>))",
];

/// Rules that match nothing, loaded first so every real rule gets a
/// different id than in the bare run.
fn fillers() -> String {
    let rule = |i| format!("(p filler-{i} (zz-filler ^n {i}) (halt))");
    (0..24).map(rule).collect()
}

/// Everything the differential compares.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Logical events as JSON lines, across the resume.
    stream: Vec<String>,
    wm: Vec<String>,
    /// Conflict set by rule *name* (ids shift behind the fillers), sorted.
    conflict: Vec<String>,
}

impl Observed {
    /// Order-blind view, for comparison across matcher kinds.
    fn as_sets(&self) -> (BTreeSet<&String>, &[String], &[String]) {
        let is_fire = |l: &&String| l.starts_with("{\"ev\":\"fire\"");
        let fires = self.stream.iter().filter(is_fire).collect();
        (fires, &self.wm, &self.conflict)
    }
}

/// The engine's full event stream, collected from here on.
fn collect_events(ps: &mut ProductionSystem) -> Arc<Mutex<CollectSink>> {
    let log = Arc::new(Mutex::new(CollectSink::new()));
    ps.add_trace_sink(log.clone());
    log
}

/// The logical events collected so far, as JSON lines.
fn logical(log: &Mutex<CollectSink>) -> Vec<String> {
    let log = log.lock().unwrap();
    let logical = log.events().iter().filter(|e| e.is_logical());
    logical.map(|e| e.to_json()).collect()
}

/// One script: facts before any rule, rules arriving in three
/// `load_program` calls between asserts, retracts and runs, an excise of
/// rule 0, and a checkpoint → resume into a fresh engine in the middle —
/// after which a rule arrives late on the *resumed* engine. `ops` is cut
/// into five equal phases around those events; `padded` loads the
/// fillers first.
fn run_script(kind: MatcherKind, padded: bool, ops: &[Op]) -> Observed {
    let start = |chunks: usize, excised: bool| {
        let mut ps = ProductionSystem::new(kind);
        if padded {
            ps.load_program(&fillers()).unwrap();
        }
        let log = collect_events(&mut ps);
        ps.load_program(SCRIPT_CLASSES).unwrap();
        for chunk in &CHUNKS[..chunks] {
            ps.load_program(chunk).unwrap();
        }
        if excised {
            ps.excise("pair").unwrap();
        }
        (ps, log)
    };
    let (mut ps, mut log) = start(0, false);
    let mut live = Vec::new();
    let mut stream = Vec::new();
    let phase = |k: usize| &ops[ops.len() * k / 5..ops.len() * (k + 1) / 5];
    for k in 0..5 {
        match k {
            1 => ps.load_program(CHUNKS[0]).unwrap(),
            2 => ps.load_program(CHUNKS[1]).unwrap(),
            3 => ps.excise("pair").unwrap(),
            4 => {
                stream.extend(logical(&log));
                let ckpt = ps.checkpoint_string();
                (ps, log) = start(2, true);
                ps.resume_from_str(&ckpt).unwrap();
                ps.validate_matcher().unwrap();
                ps.load_program(CHUNKS[2]).unwrap();
            }
            _ => {}
        }
        ps.validate_matcher().unwrap();
        for op in phase(k) {
            match op {
                Op::Insert { class, x, y } => {
                    let class = if *class == 0 { "a" } else { "b" };
                    let slots = [("x", Value::Int(*x)), ("y", Value::Int(*y))];
                    live.push(ps.make_str(class, &slots).unwrap());
                }
                Op::Remove(i) if !live.is_empty() => {
                    let tag = live.remove(i % live.len());
                    // Firings may have retracted it already.
                    if ps.wm().get(tag).is_some() {
                        ps.retract_wme(tag).unwrap();
                    }
                }
                Op::Remove(_) => {}
            }
            let _ = ps.run(Some(4));
            ps.validate_matcher().unwrap();
        }
    }
    let _ = ps.run(Some(64));
    ps.validate_matcher().unwrap();
    stream.extend(logical(&log));
    let wm = ps.wm().dump().iter().map(|w| format!("{:?}", w)).collect();
    let mut conflict: Vec<String> = ps
        .conflict_items()
        .iter()
        .map(|item| {
            let name = ps.rule_name(item.key.rule());
            let aggs: Vec<String> = item.aggregates.iter().map(|v| v.to_string()).collect();
            format!("{} {} {:?} {:?}", name, item.key.repr(), item.rows, aggs)
        })
        .collect();
    conflict.sort();
    Observed {
        stream,
        wm,
        conflict,
    }
}

/// Per kind, the padded run is byte-identical to the bare one (reported
/// as the first event where the streams part); across kinds, every run
/// fires the same instantiations and ends in the same WM and conflict set
/// as bare Rete.
fn assert_script_agrees(ops: &[Op]) {
    let rete = run_script(MatcherKind::Rete, false, ops);
    for kind in KINDS {
        let bare = run_script(kind, false, ops);
        let padded = run_script(kind, true, ops);
        let (a, b) = (&bare.stream, &padded.stream);
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            panic!(
                "{kind:?}: padded stream parts at event {i}:\n  {:?}\n  {:?}",
                a.get(i),
                b.get(i)
            );
        }
        assert_eq!(bare, padded, "{kind:?}: padded run");
        assert_eq!(bare.as_sets(), rete.as_sets(), "{kind:?}: vs Rete");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn late_rules_excise_and_resume_agree_across_matchers(
        ops in proptest::collection::vec(op_strategy(), 10..40),
    ) {
        assert_script_agrees(&ops);
    }
}

/// Fixed input for the same differential, on which every real rule fires
/// (`tally` once `pair` is excised and stops eating the `b`s).
#[test]
fn late_rules_excise_and_resume_regression() {
    let mut ops = Vec::new();
    for i in 0..45i64 {
        ops.push(Op::Insert {
            class: (i % 4 != 0) as u8,
            x: i % 3 + 1,
            y: (i / 3) % 4,
        });
        if i % 5 == 4 {
            ops.push(Op::Remove(i as usize));
        }
    }
    let rete = run_script(MatcherKind::Rete, false, &ops);
    for rule in ["pair", "solo", "tally", "guard"] {
        let fired = |l: &&String| l.contains(&format!("\"rule\":\"{rule}\""));
        let (fires, ..) = rete.as_sets();
        assert!(fires.iter().any(fired), "{rule} never fired");
    }
    assert_script_agrees(&ops);
}
