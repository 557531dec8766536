#![warn(missing_docs)]
//! `sorete-core` — the production-system engine with set-oriented
//! constructs, reproducing Gordin & Pasik, *Set-Oriented Constructs: From
//! Rete Rule Bases to Database Systems* (SIGMOD 1991).
//!
//! The engine stacks:
//!
//! - a [`wm::WorkingMemory`] (tuples with time tags, §3);
//! - a pluggable match algorithm ([`MatcherKind`]): Rete with S-nodes,
//!   TREAT with S-nodes, or a naive oracle;
//! - a [`conflict::ConflictSet`] with OPS5 LEX/MEA resolution, extended
//!   with the paper's `time`-token repositioning and change-re-arms-
//!   refraction rule (§5–§6);
//! - the set-oriented RHS interpreter ([`rhs`]): `foreach` (over pattern
//!   variables and element variables, nested, ordered), `set-modify`,
//!   `set-remove`, `bind`, `if/else`, and the classic OPS5 actions.
//!
//! ```
//! use sorete_core::{MatcherKind, ProductionSystem};
//! use sorete_base::Value;
//!
//! let mut ps = ProductionSystem::new(MatcherKind::Rete);
//! ps.load_program(
//!     "(literalize player name team)
//!      (p RemoveDups
//!        { [player ^name <n> ^team <t>] <P> }
//!        :scalar (<n> <t>)
//!        :test ((count <P>) > 1)
//!        (bind <First> true)
//!        (foreach <P> descending
//!          (if (<First> == true) (bind <First> false) else (remove <P>))))",
//! ).unwrap();
//! for _ in 0..3 {
//!     ps.make_str("player", &[("name", Value::sym("Sue")), ("team", Value::sym("B"))]).unwrap();
//! }
//! let outcome = ps.run(None);
//! assert_eq!(outcome.fired, 1, "one firing deduplicates the whole set");
//! assert_eq!(ps.wm().len(), 1);
//! ```

pub mod bundle;
pub mod conflict;
pub mod durable;
pub mod engine;
pub mod error;
pub mod explain;
pub mod policy;
pub mod rhs;
pub mod stats;
mod telemetry;
pub mod wm;

pub use bundle::{BundleRule, CrashBundle};
pub use conflict::{ConflictSet, Strategy};
pub use durable::{Checkpoint, CycleMarker, KeySpec};
pub use engine::{
    FaultPlan, GuardViolation, MatcherKind, ProductionSystem, ResumeReport, RunOutcome, StopReason,
    WalReplayReport,
};
pub use error::CoreError;
pub use policy::{
    Bound, BreakerPolicy, Breakers, Limits, OnFailure, RetryPolicy, RunPolicy, SupervisorConfig,
    SupervisorStats,
};
pub use stats::{RuleStats, RunStats};
pub use wm::WorkingMemory;

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_base::Value;

    fn engine(kind: MatcherKind, program: &str) -> ProductionSystem {
        let mut ps = ProductionSystem::new(kind);
        ps.load_program(program).unwrap();
        ps
    }

    fn players(ps: &mut ProductionSystem, list: &[(&str, &str)]) {
        for (n, t) in list {
            ps.make_str(
                "player",
                &[("name", Value::sym(n)), ("team", Value::sym(t))],
            )
            .unwrap();
        }
    }

    const FIGURE1_WM: &[(&str, &str)] = &[
        ("Jack", "A"),
        ("Janice", "A"),
        ("Sue", "B"),
        ("Jack", "B"),
        ("Sue", "B"),
    ];

    #[test]
    fn figure1_compete_fires_six_times() {
        for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
            let mut ps = engine(
                kind,
                "(literalize player name team)
                 (p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B)
                   (write Player-A: <n1> Player-B: <n2>))",
            );
            players(&mut ps, FIGURE1_WM);
            assert_eq!(ps.conflict_set_len(), 6, "{:?}", kind);
            let outcome = ps.run(None);
            assert_eq!(outcome.fired, 6, "{:?}", kind);
            assert_eq!(outcome.reason, StopReason::Quiescence);
            let out = ps.take_output();
            assert_eq!(out.len(), 6);
            assert!(out.contains(&"Player-A: Jack Player-B: Sue".to_string()));
        }
    }

    #[test]
    fn figure2_set_oriented_compete_fires_once() {
        for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
            let mut ps = engine(
                kind,
                "(literalize player name team)
                 (p compete1 [player ^name <n1> ^team A] [player ^name <n2> ^team B]
                   (foreach <n1> (foreach <n2> (write <n1> vs <n2>))))",
            );
            players(&mut ps, FIGURE1_WM);
            assert_eq!(ps.conflict_set_len(), 1, "{:?}", kind);
            let outcome = ps.run(None);
            assert_eq!(outcome.fired, 1, "one firing covers the whole relation");
            let out = ps.take_output();
            // Distinct name pairs: {Jack, Janice} × {Sue, Jack} = 4 lines
            // (value-based: duplicate Sue collapses).
            assert_eq!(out.len(), 4, "{:?}: {:?}", kind, out);
        }
    }

    #[test]
    fn figure4_group_by_team_trace() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize player name team)
             (p GroupByTeam [player ^team <t> ^name <n>]
               (foreach <t> (write team <t>) (foreach <n> (write player <n>))))",
        );
        players(&mut ps, FIGURE1_WM);
        let outcome = ps.run(None);
        assert_eq!(outcome.fired, 1);
        assert_eq!(
            ps.take_output(),
            vec![
                "team B",
                "player Sue",
                "player Jack",
                "team A",
                "player Janice",
                "player Jack",
            ],
            "matches the paper's Figure 4 iteration order"
        );
    }

    #[test]
    fn figure5_switch_teams() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize player name team)
             (p SwitchTeams
               { [player ^team A] <ATeam> }
               { [player ^team B] <BTeam> }
               :test ((count <ATeam>) == (count <BTeam>))
               (set-modify <ATeam> ^team B)
               (set-modify <BTeam> ^team A)
               (halt))",
        );
        players(
            &mut ps,
            &[("Jack", "A"), ("Janice", "A"), ("Sue", "B"), ("Mike", "B")],
        );
        let outcome = ps.run(Some(10));
        assert_eq!(outcome.reason, StopReason::Halt);
        assert_eq!(outcome.fired, 1);
        // Teams swapped.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for w in ps.wm().dump() {
            let name = w.get(sorete_base::Symbol::new("name")).to_string();
            match w.get(sorete_base::Symbol::new("team")).to_string().as_str() {
                "A" => a.push(name),
                "B" => b.push(name),
                _ => unreachable!(),
            }
        }
        a.sort();
        b.sort();
        assert_eq!(a, vec!["Mike", "Sue"]);
        assert_eq!(b, vec!["Jack", "Janice"]);
    }

    #[test]
    fn figure5_remove_dups() {
        for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
            let mut ps = engine(
                kind,
                "(literalize player name team)
                 (p RemoveDups
                   { [player ^name <n> ^team <t>] <P> }
                   :scalar (<n> <t>)
                   :test ((count <P>) > 1)
                   (bind <First> true)
                   (foreach <P> descending
                     (if (<First> == true) (bind <First> false) else (remove <P>))))",
            );
            players(&mut ps, FIGURE1_WM);
            let outcome = ps.run(Some(50));
            // One duplicate pair (Sue/B twice): one firing removes tag 3,
            // keeping the most recent (tag 5).
            assert_eq!(outcome.fired, 1, "{:?}", kind);
            assert_eq!(ps.wm().len(), 4, "{:?}", kind);
            let survivors: Vec<u64> = ps.wm().dump().iter().map(|w| w.tag.raw()).collect();
            assert_eq!(
                survivors,
                vec![1, 2, 4, 5],
                "{:?}: most recent Sue kept",
                kind
            );
        }
    }

    #[test]
    fn figure5_alternative_remove_dups() {
        // No :test — fires even without duplicates, but still terminates.
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize player name team)
             (p AlternativeRemoveDups
               { [player ^name <n> ^team <t>] <P> }
               (foreach <n> (foreach <t>
                 (bind <First> true)
                 (foreach <P> descending
                   (if (<First> == true) (bind <First> false) else (remove <P>))))))",
        );
        players(&mut ps, FIGURE1_WM);
        let outcome = ps.run(Some(50));
        assert!(outcome.fired >= 1);
        assert_eq!(ps.wm().len(), 4);
    }

    #[test]
    fn marking_scheme_equivalence() {
        // Claim C2: the tuple-oriented marking program needs one firing per
        // WME (plus control); the set-oriented one needs exactly one.
        let tuple_prog = "(literalize item status)
            (p process-one (item ^status pending)
              (modify 1 ^status done))";
        let set_prog = "(literalize item status)
            (p process-all { [item ^status pending] <P> }
              (set-modify <P> ^status done))";
        let n = 20;

        let mut tuple = engine(MatcherKind::Rete, tuple_prog);
        for _ in 0..n {
            tuple
                .make_str("item", &[("status", Value::sym("pending"))])
                .unwrap();
        }
        let t_out = tuple.run(Some(1000));
        assert_eq!(t_out.fired, n as u64, "one firing per item");

        let mut set = engine(MatcherKind::Rete, set_prog);
        for _ in 0..n {
            set.make_str("item", &[("status", Value::sym("pending"))])
                .unwrap();
        }
        let s_out = set.run(Some(1000));
        assert_eq!(s_out.fired, 1, "a single set-oriented firing");
        assert_eq!(set.stats().modifies, n as u64);
        // Both reach the same final WM state.
        assert_eq!(set.wm().len(), n);
        assert!(set
            .wm()
            .iter()
            .all(|w| w.get(sorete_base::Symbol::new("status")) == Value::sym("done")));
    }

    #[test]
    fn soi_refires_when_contents_change() {
        // §6: "if any part of the instantiation changes, the instantiation
        // is again eligible to fire".
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize item n)
             (p watch { [item ^n <n>] <P> } (write saw (count <P>)))",
        );
        ps.make_str("item", &[("n", Value::Int(1))]).unwrap();
        assert_eq!(ps.run(None).fired, 1);
        ps.make_str("item", &[("n", Value::Int(2))]).unwrap();
        assert_eq!(ps.run(None).fired, 1, "changed SOI fires again");
        assert_eq!(ps.take_output(), vec!["saw 1", "saw 2"]);
    }

    #[test]
    fn mea_strategy_prefers_first_ce() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize goal task)(literalize datum v)
             (p do-old (goal ^task old) (datum ^v <v>) (write old <v>) (remove 2))
             (p do-new (goal ^task new) (datum ^v <v>) (write new <v>) (remove 2))",
        );
        ps.set_strategy(Strategy::Mea);
        ps.make_str("goal", &[("task", Value::sym("old"))]).unwrap();
        ps.make_str("datum", &[("v", Value::Int(1))]).unwrap();
        ps.make_str("goal", &[("task", Value::sym("new"))]).unwrap();
        // MEA: the instantiation whose *first CE* matched the newer goal wins.
        let fired = ps.step().unwrap().unwrap();
        assert_eq!(fired.as_str(), "do-new");
    }

    #[test]
    fn negation_driven_control_loop() {
        // Classic counter loop: count down from 3 using negation as guard.
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize counter n)
             (p done (counter ^n 0) (write done) (remove 1))
             (p tick (counter ^n <n> ^n > 0) (write tick <n>) (modify 1 ^n (<n> - 1)))",
        );
        ps.make_str("counter", &[("n", Value::Int(3))]).unwrap();
        let outcome = ps.run(Some(100));
        assert_eq!(outcome.reason, StopReason::Quiescence);
        assert_eq!(ps.take_output(), vec!["tick 3", "tick 2", "tick 1", "done"]);
    }

    #[test]
    fn aggregates_in_rhs_output() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize emp dept sal)
             (p payroll (trigger ^on t) [emp ^sal <s>]
               (write count (count <s>) sum (sum <s>) min (min <s>) max (max <s>) avg (avg <s>))
               (remove 1))",
        );
        for s in [100i64, 200, 300] {
            ps.make_str("emp", &[("sal", Value::Int(s))]).unwrap();
        }
        ps.make_str("trigger", &[("on", Value::sym("t"))]).unwrap();
        let outcome = ps.run(None);
        assert_eq!(outcome.fired, 1);
        assert_eq!(
            ps.take_output(),
            vec!["count 3 sum 600 min 100 max 300 avg 200.0"]
        );
    }

    #[test]
    fn run_limit_and_halt() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize tick n)
             (p forever (tick ^n <n>) (modify 1 ^n (<n> + 1)))",
        );
        ps.make_str("tick", &[("n", Value::Int(0))]).unwrap();
        let outcome = ps.run(Some(7));
        assert_eq!(outcome.fired, 7);
        assert_eq!(outcome.reason, StopReason::Limit);
    }

    #[test]
    fn stats_track_actions_per_firing() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize item s)
             (p sweep { [item ^s pending] <P> } (set-modify <P> ^s done))",
        );
        for _ in 0..10 {
            ps.make_str("item", &[("s", Value::sym("pending"))])
                .unwrap();
        }
        ps.run(Some(10));
        let st = ps.stats();
        assert_eq!(st.firings, 1);
        assert_eq!(st.modifies, 10);
        assert!(
            st.actions_per_firing() >= 10.0,
            "C4: many actions per firing"
        );
    }

    #[test]
    fn tracing_names_fired_rules() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize a x)(p fire-me (a ^x 1) (remove 1))",
        );
        let sink = std::sync::Arc::new(std::sync::Mutex::new(sorete_base::CollectSink::new()));
        ps.add_trace_sink(sink.clone());
        ps.make_str("a", &[("x", Value::Int(1))]).unwrap();
        ps.run(None);
        let fired: Vec<String> = sink
            .lock()
            .unwrap()
            .events()
            .iter()
            .filter_map(|ev| match ev {
                sorete_base::TraceEvent::Fire { rule, rows, .. } => {
                    Some(format!("{} {:?}", rule, rows))
                }
                _ => None,
            })
            .collect();
        assert_eq!(fired, ["fire-me [[1]]"]);
    }

    #[test]
    fn rule_lookup_and_halt_state() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize a x)(p stop (a ^x 1) (halt))",
        );
        assert!(ps.rule("stop").is_some());
        assert!(ps.rule("nope").is_none());
        assert!(!ps.halted());
        ps.make_str("a", &[("x", Value::Int(1))]).unwrap();
        ps.run(None);
        assert!(ps.halted());
        // Further steps are no-ops once halted.
        assert_eq!(ps.step().unwrap(), None);
    }

    #[test]
    fn modify_wme_api_keeps_class_and_updates() {
        let mut ps = engine(
            MatcherKind::Rete,
            "(literalize a x y)(p never (a ^x 99) (halt))",
        );
        let t = ps
            .make_str("a", &[("x", Value::Int(1)), ("y", Value::Int(2))])
            .unwrap();
        let t2 = ps
            .modify_wme(t, &[(sorete_base::Symbol::new("x"), Value::Int(7))])
            .unwrap();
        assert!(t2 > t);
        let w = ps.wm().get(t2).unwrap();
        assert_eq!(w.get(sorete_base::Symbol::new("x")), Value::Int(7));
        assert_eq!(w.get(sorete_base::Symbol::new("y")), Value::Int(2));
        assert!(ps.wm().get(t).is_none());
    }

    #[test]
    fn retract_unknown_tag_errors() {
        let mut ps = engine(MatcherKind::Rete, "(literalize a x)(p r (a ^x 1) (halt))");
        let err = ps.retract_wme(sorete_base::TimeTag::new(99)).unwrap_err();
        assert!(err.to_string().contains("99"), "{}", err);
    }

    #[test]
    fn literalize_validation_flows_through_engine() {
        let mut ps = engine(MatcherKind::Rete, "(literalize a x)(p r (a ^x 1) (halt))");
        let err = ps.make_str("a", &[("wings", Value::Int(2))]).unwrap_err();
        assert!(err.to_string().contains("wings"), "{}", err);
        // Undeclared classes stay lenient even with other literalizes.
        assert!(ps.make_str("adhoc", &[("q", Value::Int(1))]).is_ok());
    }

    #[test]
    fn errors_are_reported() {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        assert!(ps
            .load_program("(p broken (a ^x <v>) (write <nope>))")
            .is_err());
        assert!(ps.load_program("(p ok (a ^x 1 (write hi))").is_err()); // paren error
    }
}
