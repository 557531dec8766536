//! Property tests: Rete (with S-nodes) and TREAT (with S-nodes) must agree
//! with the independent naive oracle on every conflict set reachable by
//! random insert/remove streams — for regular rules, negated CEs, and
//! set-oriented rules with aggregates.
//!
//! The hash-indexed Rete is held to a stronger standard than conflict-set
//! equality: its `CsDelta` stream must be byte-identical (same deltas, same
//! order) to the scan Rete's at every step, and its indexes must survive a
//! rebuild-from-scratch comparison (`Matcher::validate`) at every step.

use proptest::prelude::*;
use sorete::core::{MatcherKind, ProductionSystem};
use sorete::lang::{analyze_rule, parse_rule, Matcher};
use sorete::naive::NaiveMatcher;
use sorete::rete::ReteMatcher;
use sorete::treat::TreatMatcher;
use sorete_base::{
    CollectSink, ConflictItem, CsDelta, FxHashMap, InstKey, Symbol, TimeTag, TraceEvent, Value, Wme,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// A rule set exercising a particular feature mix.
const RULESET_REGULAR: &[&str] = &[
    "(p r1 (a ^x <v> ^y <w>) (b ^x <v>) (halt))",
    "(p r2 (a ^x <v>) (a ^y <w>) (b ^x <v> ^y > <w>) (halt))",
    "(p r3 (b ^y <w> ^x <> 2) (halt))",
];

const RULESET_NEGATED: &[&str] = &[
    "(p n1 (a ^x <v>) -(b ^x <v>) (halt))",
    "(p n2 (b ^x <v>) -(a ^x <v> ^y <v>) (halt))",
    "(p n3 -(a ^x 1) (b ^y <w>) (halt))",
];

const RULESET_SET: &[&str] = &[
    "(p s1 [a ^x <v>] (halt))",
    "(p s2 { [a ^x <v> ^y <w>] <P> } :scalar (<v>) :test ((count <P>) > 1) (set-remove <P>))",
    "(p s3 (b ^x <v>) [a ^x <v> ^y <w>]
        :test ((sum <w>) > 3 and (min <w>) >= 0) (halt))",
    "(p s4 { [b ^y <w>] <Q> } :test ((count <Q>) >= 2 and (avg <w>) > 1) (halt))",
    // Two joined set-oriented CEs: per-WME reference counts, the ordered
    // multiset (`max`) and distinct-value counts (`count` over a PV).
    "(p s5 { [a ^x <v> ^y <w>] <P> } { [b ^x <v>] <Q> }
        :test ((count <v>) >= 1 and (max <w>) >= 0) (halt))",
    // The same join under a counter and a running total, which a WME
    // joined twice would inflate without its reference count.
    "(p s6 { [a ^x <v> ^y <w>] <P> } { [b ^x <v>] <Q> }
        :test ((count <P>) >= 1 and (sum <w>) >= 0) (halt))",
];

/// One random working-memory operation.
#[derive(Clone, Debug)]
enum Op {
    /// Insert a WME of class `a` or `b` with small-domain x/y values.
    Insert { class: u8, x: i64, y: i64 },
    /// Remove the (i mod live)-th oldest live WME.
    Remove(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..2, 0i64..4, 0i64..4).prop_map(|(class, x, y)| Op::Insert { class, x, y }),
        1 => (0usize..16).prop_map(Op::Remove),
    ]
}

/// Canonical snapshot of a conflict set: rule → set of (row-set, aggregates).
type Canon = BTreeSet<(usize, BTreeSet<Vec<u64>>, Vec<String>)>;

struct Tracker {
    m: Box<dyn Matcher>,
    cs: FxHashMap<InstKey, ConflictItem>,
    /// Drain buffer, reused as the engine reuses its own.
    buf: Vec<CsDelta>,
}

impl Tracker {
    fn new(mut m: Box<dyn Matcher>, rules: &[&str]) -> Tracker {
        for src in rules {
            let r = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
            m.add_rule(r);
        }
        let mut buf = Vec::new();
        m.drain_deltas_into(&mut buf);
        buf.clear();
        Tracker {
            m,
            cs: FxHashMap::default(),
            buf,
        }
    }

    fn apply(&mut self) {
        let mut deltas = std::mem::take(&mut self.buf);
        self.m.drain_deltas_into(&mut deltas);
        self.apply_deltas(deltas.drain(..));
        self.buf = deltas;
    }

    fn apply_deltas(&mut self, deltas: impl IntoIterator<Item = CsDelta>) {
        for d in deltas {
            match d {
                CsDelta::Insert(item) => {
                    let prev = self.cs.insert(item.key.clone(), item);
                    assert!(
                        prev.is_none(),
                        "[{}] duplicate insert",
                        self.m.algorithm_name()
                    );
                }
                CsDelta::Remove(key) => {
                    let prev = self.cs.remove(&key);
                    assert!(
                        prev.is_some(),
                        "[{}] removing unknown entry",
                        self.m.algorithm_name()
                    );
                }
                CsDelta::Retime(info) => {
                    // A Retime may be followed by a Remove in the same
                    // batch (the SOI died mid-operation); materialize then
                    // sees nothing and the pending Remove cleans up.
                    if let Some(fresh) = self.m.materialize(&info.key) {
                        assert!(
                            fresh.version >= info.version,
                            "[{}]",
                            self.m.algorithm_name()
                        );
                        let prev = self.cs.insert(info.key.clone(), fresh);
                        assert!(
                            prev.is_some(),
                            "[{}] retime of absent entry",
                            self.m.algorithm_name()
                        );
                    }
                }
            }
        }
    }

    fn canon(&self) -> Canon {
        self.cs
            .values()
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
}

fn run_equivalence(rules: &[&str], ops: &[Op]) {
    let mut rete = Tracker::new(Box::new(ReteMatcher::new()), rules);
    let mut scan = Tracker::new(Box::new(ReteMatcher::with_indexing(false)), rules);
    let mut treat = Tracker::new(Box::new(TreatMatcher::new()), rules);
    let mut naive = Tracker::new(Box::new(NaiveMatcher::new()), rules);

    let mut live: Vec<Wme> = Vec::new();
    let mut next_tag = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert { class, x, y } => {
                next_tag += 1;
                let wme = Wme::new(
                    TimeTag::new(next_tag),
                    Symbol::new(if *class == 0 { "a" } else { "b" }),
                    vec![
                        (Symbol::new("x"), Value::Int(*x)),
                        (Symbol::new("y"), Value::Int(*y)),
                    ],
                );
                live.push(wme.clone());
                rete.m.insert_wme(&wme);
                scan.m.insert_wme(&wme);
                treat.m.insert_wme(&wme);
                naive.m.insert_wme(&wme);
            }
            Op::Remove(i) => {
                if live.is_empty() {
                    continue;
                }
                let wme = live.remove(i % live.len());
                rete.m.remove_wme(&wme);
                scan.m.remove_wme(&wme);
                treat.m.remove_wme(&wme);
                naive.m.remove_wme(&wme);
            }
        }
        // Indexed vs scan Rete: byte-identical delta streams, and indexes
        // that survive a rebuild-from-scratch comparison, at every step.
        let rete_deltas = rete.m.drain_deltas();
        let scan_deltas = scan.m.drain_deltas();
        assert_eq!(
            format!("{:?}", rete_deltas),
            format!("{:?}", scan_deltas),
            "\nindexed rete diverged from scan rete after step {} ({:?})",
            step,
            op
        );
        rete.m.validate().unwrap_or_else(|e| {
            panic!(
                "index validation failed after step {} ({:?}): {}",
                step, op, e
            )
        });
        rete.apply_deltas(rete_deltas);
        scan.apply_deltas(scan_deltas);
        treat.apply();
        naive.apply();
        let expected = naive.canon();
        prop_assert_eq_step(step, op, "rete", &rete.canon(), &expected);
        prop_assert_eq_step(step, op, "rete-scan", &scan.canon(), &expected);
        prop_assert_eq_step(step, op, "treat", &treat.canon(), &expected);
    }
}

fn prop_assert_eq_step(step: usize, op: &Op, who: &str, got: &Canon, expected: &Canon) {
    assert_eq!(
        got, expected,
        "\n{} diverged from the oracle after step {} ({:?})",
        who, step, op
    );
}

// ---------------------------------------------------------------------------
// Logical event-stream equivalence (engine level).
//
// Every backend must tell the same story through the trace stream: the
// logical events (WM changes, conflict-set deltas, firings — timing and
// per-node physical events excluded) must agree. The indexed and scan Rete
// are held to *byte-identical* JSON streams; TREAT and naive are compared
// after canonicalization that absorbs legitimate emission-order freedom
// within one sync batch (delta order inside a batch, duplicate `time`
// tokens, SOI row order, version counters vs content hashes).
//
// The programs use a single rule each so conflict resolution never
// tie-breaks on delta *arrival* order, which is the one engine-level
// ordering legitimately different between backends.
// ---------------------------------------------------------------------------

const EVENT_PROG_TUPLE: &str = "(literalize a x y)(literalize b x y)
    (p pair (a ^x <v>) (b ^x <v> ^y <w>) (write pair <v>) (remove 2))";

const EVENT_PROG_NEGATED: &str = "(literalize a x y)(literalize b x y)
    (p guard (a ^x <v>) -(b ^x <v>) (write ok <v>) (remove 1))";

const EVENT_PROG_SET: &str = "(literalize a x y)(literalize b x y)
    (p dedupe { [a ^x <v> ^y <w>] <P> } :scalar (<v>)
       :test ((count <P>) > 1) (set-remove <P>))";

/// A firing that takes an SOI below its `:test` and back: `swap` trades
/// one `a` of the `quorum` SOI for a fresh one, so the count dips to one
/// between its actions. Settled once per firing, that is one `time` token
/// (or, when `swap` empties the SOI outright, a `-`).
const EVENT_PROG_TRANSIENT: &str = "(literalize a x y)(literalize b x y)
    (p quorum { [a ^x <v>] <P> } :scalar (<v>) :test ((count <P>) > 1)
       (write quorum <v> (count <P>)))
    (p swap (b ^x <v> ^y 0) (a ^x <v>)
       (remove 2) (make a ^x <v> ^y 3) (modify 1 ^y 1))";

/// A firing that empties an SOI and refills it through a negated CE:
/// `flip` removes an unblocked row of `pack`'s SOI, then the blocker `b`,
/// whose departure brings the rows it blocked back. When the removed row
/// was the SOI's last, the firing settles to `-` then `+`: a fresh
/// instantiation, its refraction cleared.
const EVENT_PROG_REFILL: &str = "(literalize a x y)(literalize b x y)
    (p pack { [a ^x <v> ^y <w>] <P> } :scalar (<v>) -(b ^x <v> ^y <w>)
       (write pack <v> (count <P>)))
    (p flip (b ^x <v> ^y <w>) (a ^x <v> ^y <> <w>)
       (remove 2) (remove 1))";

/// Drive one engine through `ops` (running to a small firing limit after
/// each), returning the logical half of its event stream.
fn logical_stream(kind: MatcherKind, program: &str, ops: &[Op]) -> Vec<TraceEvent> {
    let mut ps = ProductionSystem::new(kind);
    let log = Arc::new(Mutex::new(CollectSink::new()));
    ps.add_trace_sink(log.clone());
    ps.load_program(program).unwrap();
    let mut live: Vec<TimeTag> = Vec::new();
    for op in ops {
        match op {
            Op::Insert { class, x, y } => {
                let tag = ps
                    .make_str(
                        if *class == 0 { "a" } else { "b" },
                        &[("x", Value::Int(*x)), ("y", Value::Int(*y))],
                    )
                    .unwrap();
                live.push(tag);
            }
            Op::Remove(i) => {
                if live.is_empty() {
                    continue;
                }
                let tag = live.remove(i % live.len());
                // Firings may have retracted it already.
                if ps.wm().get(tag).is_some() {
                    ps.retract_wme(tag).unwrap();
                }
            }
        }
        let _ = ps.run(Some(4));
    }
    let events = log.lock().unwrap().take();
    events.into_iter().filter(|e| e.is_logical()).collect()
}

/// Canonical form of a logical stream: conflict-set deltas within one sync
/// batch are sorted and deduplicated (`time` tokens reduced to rule+key,
/// SOI rows order-blinded); everything else keeps its order and content.
fn canonical_stream(stream: &[TraceEvent]) -> Vec<String> {
    let mut out = Vec::new();
    let mut batch: Vec<String> = Vec::new();
    fn flush(batch: &mut Vec<String>, out: &mut Vec<String>) {
        batch.sort();
        batch.dedup();
        out.append(batch);
    }
    for ev in stream {
        match ev {
            TraceEvent::CsInsert {
                rule,
                key,
                soi,
                rows,
                aggregates,
            } => {
                let mut rs = rows.clone();
                rs.sort();
                batch.push(format!(
                    "+ {} [{}] soi={} {:?} {:?}",
                    rule, key, soi, rs, aggregates
                ));
            }
            TraceEvent::CsRemove { rule, key, soi } => {
                batch.push(format!("- {} [{}] soi={}", rule, key, soi));
            }
            TraceEvent::CsRetime { rule, key, .. } => {
                batch.push(format!("~ {} [{}]", rule, key));
            }
            other => {
                flush(&mut batch, &mut out);
                out.push(match other {
                    TraceEvent::Fire { cycle, rule, rows } => {
                        let mut rs = rows.clone();
                        rs.sort();
                        format!("fire {} {} {:?}", cycle, rule, rs)
                    }
                    ev => ev.to_json(),
                });
            }
        }
    }
    flush(&mut batch, &mut out);
    out
}

fn run_event_equivalence(program: &str, ops: &[Op]) {
    let rete = logical_stream(MatcherKind::Rete, program, ops);
    let scan = logical_stream(MatcherKind::ReteScan, program, ops);
    let treat = logical_stream(MatcherKind::Treat, program, ops);
    let naive = logical_stream(MatcherKind::Naive, program, ops);

    // Indexing is a pure physical optimisation: the logical streams must
    // be byte-identical, not merely equivalent.
    let rete_json: Vec<String> = rete.iter().map(|e| e.to_json()).collect();
    let scan_json: Vec<String> = scan.iter().map(|e| e.to_json()).collect();
    assert_eq!(
        rete_json, scan_json,
        "indexed rete's logical stream diverged from scan rete's"
    );

    let expected = canonical_stream(&rete);
    assert_eq!(
        canonical_stream(&treat),
        expected,
        "treat's logical stream diverged from rete's"
    );
    assert_eq!(
        canonical_stream(&naive),
        expected,
        "naive's logical stream diverged from rete's"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn regular_rules_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_equivalence(RULESET_REGULAR, &ops);
    }

    #[test]
    fn negated_rules_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_equivalence(RULESET_NEGATED, &ops);
    }

    #[test]
    fn set_oriented_rules_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_equivalence(RULESET_SET, &ops);
    }

    #[test]
    fn mixed_rules_agree(ops in proptest::collection::vec(op_strategy(), 1..32)) {
        let mixed: Vec<&str> = RULESET_REGULAR
            .iter()
            .chain(RULESET_NEGATED)
            .chain(RULESET_SET)
            .copied()
            .collect();
        run_equivalence(&mixed, &ops);
    }

    #[test]
    fn tuple_event_streams_agree(ops in proptest::collection::vec(op_strategy(), 1..20)) {
        run_event_equivalence(EVENT_PROG_TUPLE, &ops);
    }

    #[test]
    fn negated_event_streams_agree(ops in proptest::collection::vec(op_strategy(), 1..20)) {
        run_event_equivalence(EVENT_PROG_NEGATED, &ops);
    }

    #[test]
    fn set_oriented_event_streams_agree(ops in proptest::collection::vec(op_strategy(), 1..20)) {
        run_event_equivalence(EVENT_PROG_SET, &ops);
    }

    #[test]
    fn transient_test_failure_event_streams_agree(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        run_event_equivalence(EVENT_PROG_TRANSIENT, &ops);
    }

    #[test]
    fn empty_and_refill_event_streams_agree(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        run_event_equivalence(EVENT_PROG_REFILL, &ops);
    }
}

/// The conflict-set deltas each firing of `rule` drained, as `+`/`-`/`~`
/// plus the rule they name, in emission order.
fn firing_deltas(stream: &[TraceEvent], rule: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut open: Option<Vec<String>> = None;
    for ev in stream {
        match ev {
            TraceEvent::Fire { rule: r, .. } if r.as_str() == rule => open = Some(Vec::new()),
            TraceEvent::CycleEnd { .. } => out.extend(open.take()),
            TraceEvent::CsInsert { rule, .. } => {
                open.iter_mut().for_each(|b| b.push(format!("+ {rule}")))
            }
            TraceEvent::CsRemove { rule, .. } => {
                open.iter_mut().for_each(|b| b.push(format!("- {rule}")))
            }
            TraceEvent::CsRetime { rule, .. } => {
                open.iter_mut().for_each(|b| b.push(format!("~ {rule}")))
            }
            _ => {}
        }
    }
    out
}

const ALL_MATCHERS: [MatcherKind; 4] = [
    MatcherKind::Rete,
    MatcherKind::ReteScan,
    MatcherKind::Treat,
    MatcherKind::Naive,
];

fn insert(class: u8, x: i64, y: i64) -> Op {
    Op::Insert { class, x, y }
}

/// Two `a ^x 1` make the `quorum` SOI; `swap` then dips it to one row and
/// back inside one firing. Every matcher drains that firing as one `time`
/// token, and the streams agree.
#[test]
fn a_firing_that_dips_below_the_test_drains_one_time_token() {
    let ops = [insert(0, 1, 0), insert(0, 1, 1), insert(1, 1, 0)];
    run_event_equivalence(EVENT_PROG_TRANSIENT, &ops);
    for kind in ALL_MATCHERS {
        let stream = logical_stream(kind, EVENT_PROG_TRANSIENT, &ops);
        let swaps = firing_deltas(&stream, "swap");
        assert_eq!(swaps.len(), 1, "{kind:?}");
        let quorum: Vec<&String> = swaps[0].iter().filter(|d| d.ends_with("quorum")).collect();
        assert_eq!(quorum, ["~ quorum"], "{kind:?}");
    }
}

/// `pack`'s SOI for `x = 1` holds one unblocked row while `b ^x 1 ^y 2`
/// blocks another; `flip` removes the first and then the blocker, so the
/// SOI empties and refills in one firing: `-` then `+`, on every matcher.
#[test]
fn a_firing_that_empties_and_refills_an_soi_drains_remove_then_insert() {
    let ops = [insert(1, 1, 2), insert(0, 1, 2), insert(0, 1, 0)];
    run_event_equivalence(EVENT_PROG_REFILL, &ops);
    for kind in ALL_MATCHERS {
        let stream = logical_stream(kind, EVENT_PROG_REFILL, &ops);
        let flips = firing_deltas(&stream, "flip");
        assert_eq!(flips.len(), 1, "{kind:?}");
        let pack: Vec<&String> = flips[0].iter().filter(|d| d.ends_with("pack")).collect();
        assert_eq!(pack, ["- pack", "+ pack"], "{kind:?}");
    }
}

/// Drive a fixed SOI-heavy workload through a matcher.
fn drive_soi_workload(m: &mut dyn Matcher) {
    for src in RULESET_SET {
        m.add_rule(Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap()));
    }
    let mut live: Vec<Wme> = Vec::new();
    for i in 0..24u64 {
        if i % 5 == 4 && !live.is_empty() {
            let wme = live.remove(i as usize % live.len());
            m.remove_wme(&wme);
        } else {
            let wme = Wme::new(
                TimeTag::new(i + 1),
                Symbol::new(if i % 2 == 0 { "a" } else { "b" }),
                vec![
                    (Symbol::new("x"), Value::Int((i % 3) as i64)),
                    (Symbol::new("y"), Value::Int((i % 4) as i64)),
                ],
            );
            live.push(wme.clone());
            m.insert_wme(&wme);
        }
        let _ = m.drain_deltas();
    }
}

/// Satellite: `SoiStats` is the single source of the snode-related
/// `MatchStats` fields — the merged view a matcher reports must always
/// equal the sum of its per-S-node counters.
#[test]
fn soi_stats_never_diverge_from_match_stats() {
    let mut rete = ReteMatcher::new();
    drive_soi_workload(&mut rete);
    let (ms, ss) = (rete.stats(), rete.soi_stats());
    assert!(ss.activations > 0, "workload must exercise the S-nodes");
    assert_eq!(ms.snode_activations, ss.activations);
    assert_eq!(ms.aggregate_updates, ss.aggregate_updates);

    let mut treat = TreatMatcher::new();
    drive_soi_workload(&mut treat);
    let (ms, ss) = (treat.stats(), treat.soi_stats());
    assert!(ss.activations > 0, "workload must exercise the S-nodes");
    assert_eq!(ms.snode_activations, ss.activations);
    assert_eq!(ms.aggregate_updates, ss.aggregate_updates);
}

/// Deterministic regression inputs (kept out of proptest for clarity).
#[test]
fn same_class_double_ce_regression() {
    // One WME satisfying two CEs of the same rule simultaneously.
    let ops = vec![
        Op::Insert {
            class: 0,
            x: 1,
            y: 1,
        },
        Op::Insert {
            class: 1,
            x: 1,
            y: 1,
        },
        Op::Insert {
            class: 0,
            x: 1,
            y: 2,
        },
        Op::Remove(0),
        Op::Remove(0),
    ];
    run_equivalence(RULESET_REGULAR, &ops);
    run_equivalence(RULESET_SET, &ops);
}

#[test]
fn negation_unblock_regression() {
    let ops = vec![
        Op::Insert {
            class: 0,
            x: 1,
            y: 1,
        }, // a
        Op::Insert {
            class: 1,
            x: 1,
            y: 0,
        }, // b blocks n1
        Op::Remove(1), // unblock
        Op::Insert {
            class: 1,
            x: 1,
            y: 3,
        },
        Op::Remove(0),
    ];
    run_equivalence(RULESET_NEGATED, &ops);
}

/// Excise + rollback-style re-insertion must leave the hash indexes exactly
/// consistent: after every mutation the indexed matcher must pass a
/// rebuild-from-scratch comparison (`validate`, i.e. re-probing after the
/// rollback sees exactly what a fresh build would), and its delta stream
/// must stay byte-identical to the scan matcher's.
#[test]
fn excise_and_rollback_keep_indexes_consistent() {
    let rules: Vec<&str> = RULESET_REGULAR
        .iter()
        .chain(RULESET_NEGATED)
        .copied()
        .collect();
    let mut idx = ReteMatcher::new();
    let mut scan = ReteMatcher::with_indexing(false);
    let mut ids = Vec::new();
    for src in &rules {
        let r = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        ids.push(idx.add_rule(r.clone()));
        scan.add_rule(r);
    }
    let wme = |tag: u64, class: &str, x: i64, y: i64| {
        Wme::new(
            TimeTag::new(tag),
            Symbol::new(class),
            vec![
                (Symbol::new("x"), Value::Int(x)),
                (Symbol::new("y"), Value::Int(y)),
            ],
        )
    };
    fn check(idx: &mut ReteMatcher, scan: &mut ReteMatcher, what: &str) {
        assert_eq!(
            format!("{:?}", idx.drain_deltas()),
            format!("{:?}", scan.drain_deltas()),
            "delta streams diverged after {}",
            what
        );
        idx.validate()
            .unwrap_or_else(|e| panic!("index validation failed after {}: {}", what, e));
    }

    let w = [
        wme(1, "a", 1, 1),
        wme(2, "b", 1, 0),
        wme(3, "a", 1, 2),
        wme(4, "b", 2, 3),
    ];
    for wme in &w {
        idx.insert_wme(wme);
        scan.insert_wme(wme);
        check(&mut idx, &mut scan, "insert");
    }

    // Retraction, then excise, then rollback re-inserts the same TimeTag.
    idx.remove_wme(&w[1]);
    scan.remove_wme(&w[1]);
    check(&mut idx, &mut scan, "remove b^x=1");

    idx.remove_rule(ids[3]); // n1: (a ^x <v>) -(b ^x <v>)
    scan.remove_rule(ids[3]);
    check(&mut idx, &mut scan, "excise n1");

    idx.insert_wme(&w[1]);
    scan.insert_wme(&w[1]);
    check(&mut idx, &mut scan, "rollback re-insert of tag 2");

    idx.remove_wme(&w[3]);
    scan.remove_wme(&w[3]);
    check(&mut idx, &mut scan, "remove b^x=2");
    idx.insert_wme(&w[3]);
    scan.insert_wme(&w[3]);
    check(&mut idx, &mut scan, "rollback re-insert of tag 4");

    idx.remove_rule(ids[1]); // r2: three-CE join
    scan.remove_rule(ids[1]);
    check(&mut idx, &mut scan, "excise r2");
}
