//! Integration tests for the paper's efficiency claims (C1–C5 in
//! DESIGN.md). The tests pin down the *shapes* the paper asserts;
//! `examples/report.rs` prints the same workloads as tables.

use sorete::core::{MatcherKind, ProductionSystem};
use sorete::dips::{parallel_cycle, DipsEngine, DipsMode};
use sorete_base::Value;

// ---------------------------------------------------------------- C1
// "The introduction of the set-oriented changes was made in a way that
// does not degrade the performance when executing regular OPS5 programs."

#[test]
fn c1_regular_rules_pay_nothing_for_the_extension() {
    let regular = "(literalize job id state)
        (p advance (job ^id <i> ^state ready) (modify 1 ^state running))";
    // The same program plus a set-oriented rule over a class that this
    // workload never creates.
    let with_set_rule = format!(
        "{}\n(literalize audit k)\n(p audit-sweep {{ [audit ^k <k>] <A> }} :test ((count <A>) > 3) (set-remove <A>))",
        regular
    );

    let run = |program: &str| {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program(program).unwrap();
        for i in 0..50i64 {
            ps.make_str(
                "job",
                &[("id", Value::Int(i)), ("state", Value::sym("ready"))],
            )
            .unwrap();
        }
        ps.run(Some(200));
        (ps.stats().firings, ps.match_stats())
    };

    let (f1, m1) = run(regular);
    let (f2, m2) = run(&with_set_rule);
    assert_eq!(f1, f2);
    assert_eq!(
        m1.tokens_created, m2.tokens_created,
        "identical token traffic"
    );
    assert_eq!(m1.join_tests, m2.join_tests);
    assert_eq!(m1.beta_activations, m2.beta_activations);
    assert_eq!(m2.snode_activations, 0, "the unused S-node never activates");
}

// ---------------------------------------------------------------- C2
// Collection processing: marking scheme vs one set-oriented firing.

/// Tuple-oriented OPS5 idiom: a control WME plus per-element marking.
const MARKING_PROGRAM: &str = "(literalize item s)(literalize phase p)
    (p process-one (phase ^p sweep) (item ^s pending)
      (modify 2 ^s done))
    (p finish (phase ^p sweep) -(item ^s pending)
      (remove 1))";

const SET_PROGRAM: &str = "(literalize item s)(literalize phase p)
    (p process-all (phase ^p sweep) { [item ^s pending] <P> }
      (set-modify <P> ^s done)
      (remove 1))";

fn run_sweep(program: &str, n: usize) -> (u64, f64) {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(program).unwrap();
    for _ in 0..n {
        ps.make_str("item", &[("s", Value::sym("pending"))])
            .unwrap();
    }
    ps.make_str("phase", &[("p", Value::sym("sweep"))]).unwrap();
    let out = ps.run(Some(5000));
    assert!(ps.wm().iter().all(|w| {
        w.class.as_str() != "item" || w.get(sorete_base::Symbol::new("s")) == Value::sym("done")
    }));
    (out.fired, ps.stats().actions_per_firing())
}

#[test]
fn c2_marking_scheme_needs_linear_firings_set_oriented_needs_one() {
    for n in [5usize, 20, 60] {
        let (tuple_firings, _) = run_sweep(MARKING_PROGRAM, n);
        let (set_firings, _) = run_sweep(SET_PROGRAM, n);
        assert_eq!(
            tuple_firings,
            n as u64 + 1,
            "n item firings + 1 control firing"
        );
        assert_eq!(set_firings, 1, "one firing regardless of n");
    }
}

// ---------------------------------------------------------------- C3
// Second-order information: direct cardinality match vs counter WMEs.

const COUNTER_PROGRAM: &str = "(literalize box s)(literalize counter n)(literalize alarm t)
    ; counter maintenance: one firing per box
    (p count-one (counter ^n <n>) (box ^s new)
      (modify 1 ^n (<n> + 1)) (modify 2 ^s counted))
    (p raise (counter ^n >= 4)
      (make alarm ^t overfull) (modify 1 ^n 0))";

const AGGREGATE_PROGRAM: &str = "(literalize box s)(literalize alarm t)
    (p raise { [box ^s new] <B> } :test ((count <B>) >= 4)
      (make alarm ^t overfull) (set-modify <B> ^s counted))";

#[test]
fn c3_direct_cardinality_match_replaces_counter_rules() {
    let run = |program: &str, n: usize| {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program(program).unwrap();
        if program.contains("literalize counter") {
            ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
        }
        for _ in 0..n {
            ps.make_str("box", &[("s", Value::sym("new"))]).unwrap();
        }
        let out = ps.run(Some(1000));
        let alarms = ps
            .wm()
            .iter()
            .filter(|w| w.class.as_str() == "alarm")
            .count();
        (out.fired, alarms)
    };
    let (tuple_firings, tuple_alarms) = run(COUNTER_PROGRAM, 6);
    let (set_firings, set_alarms) = run(AGGREGATE_PROGRAM, 6);
    assert_eq!(tuple_alarms, 1);
    assert_eq!(set_alarms, 1);
    assert!(
        tuple_firings >= 7,
        "per-element counting: {}",
        tuple_firings
    );
    assert_eq!(set_firings, 1, "the cardinality is matched, not computed");
}

#[test]
fn c3_aggregate_updates_incrementally_with_wm_size() {
    // The aggregate stays current as WM changes — no recount firings.
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(
        "(literalize box s)
         (p watch { [box ^s new] <B> } :test ((count <B>) >= 2) (write (count <B>)))",
    )
    .unwrap();
    let t1 = ps.make_str("box", &[("s", Value::sym("new"))]).unwrap();
    ps.make_str("box", &[("s", Value::sym("new"))]).unwrap();
    ps.run(None);
    ps.make_str("box", &[("s", Value::sym("new"))]).unwrap();
    ps.run(None);
    ps.retract_wme(t1).unwrap();
    ps.run(None);
    assert_eq!(ps.take_output(), vec!["2", "3", "2"]);
}

// ---------------------------------------------------------------- C4
// "The number of actions in a set-oriented rule should be substantially
// greater, providing the ability to increase parallelism."

#[test]
fn c4_actions_per_firing_scales_with_set_size() {
    let mut per_firing = Vec::new();
    for n in [4usize, 16, 64] {
        let (_, apf) = run_sweep(SET_PROGRAM, n);
        per_firing.push(apf);
    }
    assert!(per_firing[0] >= 4.0);
    assert!(per_firing[1] > per_firing[0] * 2.0);
    assert!(per_firing[2] > per_firing[1] * 2.0, "{:?}", per_firing);

    // Tuple-oriented firings stay O(1) actions each.
    let (_, tuple_apf) = run_sweep(MARKING_PROGRAM, 64);
    assert!(tuple_apf < 3.0, "{}", tuple_apf);
}

// ---------------------------------------------------------------- C5
// DIPS concurrent firing: conflicts vanish with set-oriented rules.

#[test]
fn c5_conflict_counts_scale_with_wm_for_tuple_dips_only() {
    for n in [4usize, 12] {
        let prog_tuple = "(p drain (flag ^on t) (item ^s pending)
                            (modify 1 ^on t) (remove 2))";
        let mut tuple = DipsEngine::new(DipsMode::Tuple, prog_tuple).unwrap();
        tuple.insert("flag", &[("on", Value::sym("t"))]).unwrap();
        for _ in 0..n {
            tuple
                .insert("item", &[("s", Value::sym("pending"))])
                .unwrap();
        }
        let r = parallel_cycle(&mut tuple).unwrap();
        assert_eq!(r.attempted, n);
        assert_eq!(r.committed, 1);
        assert_eq!(r.aborted, n - 1, "aborts grow with the collection size");

        let prog_set = "(p drain (flag ^on t) { [item ^s pending] <P> }
                          (modify 1 ^on t) (set-remove <P>))";
        let mut set = DipsEngine::new(DipsMode::Set, prog_set).unwrap();
        set.insert("flag", &[("on", Value::sym("t"))]).unwrap();
        for _ in 0..n {
            set.insert("item", &[("s", Value::sym("pending"))]).unwrap();
        }
        let r = parallel_cycle(&mut set).unwrap();
        assert_eq!((r.attempted, r.committed, r.aborted), (1, 1, 0));
    }
}

// ----------------------------------------------------------- strategies

#[test]
fn strategies_and_matchers_cross_check() {
    use sorete::core::Strategy;
    for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
        for strategy in [Strategy::Lex, Strategy::Mea] {
            let mut ps = ProductionSystem::new(kind);
            ps.set_strategy(strategy);
            ps.load_program(SET_PROGRAM).unwrap();
            for _ in 0..10 {
                ps.make_str("item", &[("s", Value::sym("pending"))])
                    .unwrap();
            }
            ps.make_str("phase", &[("p", Value::sym("sweep"))]).unwrap();
            let out = ps.run(Some(100));
            assert_eq!(out.fired, 1, "{:?}/{:?}", kind, strategy);
        }
    }
}

// ---------------------------------------------------------------- J1
// Hash-join indexing (DESIGN.md "Join indexing"): on a join-heavy workload
// the indexed Rete performs one join test per order where the same network
// with indexing disabled tests every order against every stock, while
// emitting a byte-identical CsDelta stream. The counters are exact: any
// drift means the join algorithm changed.

/// `(n, indexed, scan)`, each side `(join_tests, index_probes,
/// index_skipped_tests)` after the J1 workload at size `n`.
type J1Row = (i64, (u64, u64, u64), (u64, u64, u64));

const J1_ROWS: [J1Row; 3] = [
    (100, (100, 400, 20_000), (20_100, 0, 0)),
    (300, (300, 1_200, 180_000), (180_300, 0, 0)),
    (1000, (1_000, 4_000, 2_000_000), (2_001_000, 0, 0)),
];

#[test]
fn j1_hash_index_cuts_join_tests_10x_at_n1000() {
    use sorete::lang::{analyze_rule, parse_rule, Matcher};
    use sorete::rete::ReteMatcher;
    use sorete_base::{Symbol, TimeTag, Wme};
    use std::sync::Arc;

    let rules = [
        "(p fill (order ^id <i> ^qty <q>) (stock ^id <i> ^qty >= <q>) (halt))",
        "(p missing (order ^id <i> ^qty <q>) -(stock ^id <i>) (halt))",
    ];
    let wme = |tag: u64, class: &str, id: i64, qty: i64| {
        Wme::new(
            TimeTag::new(tag),
            Symbol::new(class),
            vec![
                (Symbol::new("id"), Value::Int(id)),
                (Symbol::new("qty"), Value::Int(qty)),
            ],
        )
    };
    let counts = |m: &ReteMatcher| {
        let s = m.stats();
        (s.join_tests, s.index_probes, s.index_skipped_tests)
    };

    for (n, want_idx, want_scan) in J1_ROWS {
        let mut idx = ReteMatcher::new();
        let mut scan = ReteMatcher::with_indexing(false);
        for src in rules {
            let r = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
            idx.add_rule(r.clone());
            scan.add_rule(r);
        }
        // The J1 workload: n stocks, then n orders (each order matches
        // exactly one stock by `^id`), then retract every third stock.
        let stocks: Vec<Wme> = (0..n)
            .map(|i| wme(i as u64 + 1, "stock", i, (i * 5) % 10))
            .collect();
        let orders = (0..n).map(|i| wme((n + i) as u64 + 1, "order", i, (i * 3) % 10));
        for w in stocks.iter().cloned().chain(orders) {
            idx.insert_wme(&w);
            scan.insert_wme(&w);
        }
        for w in stocks.iter().step_by(3) {
            idx.remove_wme(w);
            scan.remove_wme(w);
        }

        assert_eq!(
            format!("{:?}", idx.drain_deltas()),
            format!("{:?}", scan.drain_deltas()),
            "identical CsDelta streams at n={}",
            n
        );
        assert_eq!(counts(&idx), want_idx, "indexed rete at n={}", n);
        assert_eq!(counts(&scan), want_scan, "scan rete at n={}", n);
        assert!(
            idx.stats().join_tests * 10 <= scan.stats().join_tests,
            "indexed rete must do ≥10× fewer join tests at n={}",
            n
        );
        idx.validate()
            .unwrap_or_else(|e| panic!("indexes consistent at n={}: {}", n, e));
    }
}
