#![warn(missing_docs)]
//! `sorete-dips` — a reproduction of the DIPS disk-based production system
//! (Sellis, Lin & Raschid) as described in §8 of the paper, together with
//! the paper's set-oriented retrofit.
//!
//! - [`cond`]: COND-table matching over the relational substrate — mark
//!   bits generalized to WME-tag columns (§8.2), RCE propagation, and SOI
//!   retrieval by relational `GROUP BY`.
//! - [`fire`]: the concurrent-firing experiment — every satisfied
//!   instantiation (or SOI) runs as an optimistic transaction; tuple-
//!   oriented execution conflicts, set-oriented execution does not (claim
//!   C5).
//! - [`figure6`](mod@figure6): the paper's Figure 6, reproduced end to end.
//!
//! ```
//! let fig = sorete_dips::figure6().unwrap();
//! assert_eq!(fig.groups.len(), 2, "two SOIs, one per E-tuple");
//! ```

pub mod cond;
pub mod error;
pub mod figure6;
pub mod fire;

pub use cond::{DipsEngine, DipsInst, DipsMode, DipsReplayReport, DipsSoi};
pub use error::DipsError;
pub use figure6::{figure6, Figure6};
pub use fire::{parallel_cycle, CycleReport};

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_base::{Symbol, TimeTag, Value};

    #[test]
    fn tuple_instantiations_match_figure1() {
        let mut e = DipsEngine::new(
            DipsMode::Tuple,
            "(p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B) (write x))",
        )
        .unwrap();
        for (n, t) in [
            ("Jack", "A"),
            ("Janice", "A"),
            ("Sue", "B"),
            ("Jack", "B"),
            ("Sue", "B"),
        ] {
            e.insert(
                "player",
                &[("name", Value::sym(n)), ("team", Value::sym(t))],
            )
            .unwrap();
        }
        assert_eq!(e.instantiations().len(), 6);
    }

    #[test]
    fn memory_report_counts_cond_rows() {
        let f = figure6().unwrap();
        let report = f.engine.memory_report();
        let rows = report.region("db_rows").expect("db_rows region");
        // Figure 6 seeds COND templates and inserts player rows, so the
        // backing store must be visibly non-empty.
        assert!(rows.entries > 0, "live COND rows: {}", rows.entries);
        assert!(rows.bytes > 0);
        let pages = report.region("db_pages").expect("db_pages region");
        assert!(pages.entries > 0);
        assert!(report.total_bytes() >= rows.bytes);
    }

    #[test]
    fn equality_join_respected_regardless_of_arrival_order() {
        let prog = "(p pair (a ^x <v>) (b ^x <v>) (write x))";
        // b first, then a.
        let mut e = DipsEngine::new(DipsMode::Tuple, prog).unwrap();
        e.insert("b", &[("x", Value::Int(1))]).unwrap();
        e.insert("b", &[("x", Value::Int(2))]).unwrap();
        e.insert("a", &[("x", Value::Int(1))]).unwrap();
        let insts = e.instantiations();
        assert_eq!(insts.len(), 1, "{:?}", insts);
    }

    #[test]
    fn non_equality_join_verified_on_retrieval() {
        let prog = "(p gt (a ^x <v>) (b ^y > <v>) (write x))";
        let mut e = DipsEngine::new(DipsMode::Tuple, prog).unwrap();
        e.insert("b", &[("y", Value::Int(5))]).unwrap();
        e.insert("a", &[("x", Value::Int(3))]).unwrap();
        e.insert("a", &[("x", Value::Int(9))]).unwrap();
        let insts = e.instantiations();
        assert_eq!(insts.len(), 1, "only x=3 < y=5: {:?}", insts);
    }

    #[test]
    fn removal_deletes_cond_rows() {
        let mut e = DipsEngine::new(
            DipsMode::Tuple,
            "(p compete (player ^team A) (player ^team B) (write x))",
        )
        .unwrap();
        let a = e.insert("player", &[("team", Value::sym("A"))]).unwrap();
        e.insert("player", &[("team", Value::sym("B"))]).unwrap();
        assert_eq!(e.instantiations().len(), 1);
        e.remove(a).unwrap();
        assert_eq!(e.instantiations().len(), 0);
    }

    #[test]
    fn soi_grouping_by_scalar_ce() {
        let mut e = DipsEngine::new(
            DipsMode::Set,
            "(p r (dept ^id <d>) [emp ^dept <d>] (write x))",
        )
        .unwrap();
        e.insert("dept", &[("id", Value::Int(1))]).unwrap();
        e.insert("dept", &[("id", Value::Int(2))]).unwrap();
        for d in [1i64, 1, 2] {
            e.insert("emp", &[("dept", Value::Int(d))]).unwrap();
        }
        let sois = e.sois();
        assert_eq!(sois.len(), 2);
        assert_eq!(sois[0].rows.len(), 2, "dept 1 has two emps");
        assert_eq!(sois[1].rows.len(), 1);
    }

    #[test]
    fn parallel_tuple_firing_conflicts_set_firing_does_not() {
        // The paper's §8.1 pathology: several instantiations of one rule
        // try to remove the same WME (they share the `flag` WME and remove
        // their own item — but all read `flag`, and the first one to also
        // *modify* it invalidates the rest).
        let prog = "(p drain (flag ^on t) (item ^s pending)
                      (modify 1 ^on t) (remove 2))";
        let mut tuple = DipsEngine::new(DipsMode::Tuple, prog).unwrap();
        tuple.insert("flag", &[("on", Value::sym("t"))]).unwrap();
        for _ in 0..5 {
            tuple
                .insert("item", &[("s", Value::sym("pending"))])
                .unwrap();
        }
        let report = parallel_cycle(&mut tuple).unwrap();
        assert_eq!(report.attempted, 5);
        assert_eq!(report.committed, 1, "everyone else conflicts on `flag`");
        assert_eq!(report.aborted, 4);

        // Set-oriented version: one SOI, one transaction, no conflicts.
        let prog_set = "(p drain (flag ^on t) { [item ^s pending] <P> }
                          (modify 1 ^on t) (set-remove <P>))";
        let mut set = DipsEngine::new(DipsMode::Set, prog_set).unwrap();
        set.insert("flag", &[("on", Value::sym("t"))]).unwrap();
        for _ in 0..5 {
            set.insert("item", &[("s", Value::sym("pending"))]).unwrap();
        }
        let report = parallel_cycle(&mut set).unwrap();
        assert_eq!(report.attempted, 1);
        assert_eq!(report.committed, 1);
        assert_eq!(report.aborted, 0);
        assert_eq!(set.wm_len(), 1, "all five items removed in one firing");
    }

    #[test]
    fn mutual_invalidation_same_wme() {
        // Two instantiations try to remove the same WME — the paper's
        // special case (Raschid et al. 1988).
        let prog = "(p grab (token ^free t) (worker ^idle t)
                      (remove 1) (modify 2 ^idle f))";
        let mut e = DipsEngine::new(DipsMode::Tuple, prog).unwrap();
        e.insert("token", &[("free", Value::sym("t"))]).unwrap();
        e.insert("worker", &[("idle", Value::sym("t"))]).unwrap();
        e.insert("worker", &[("idle", Value::sym("t"))]).unwrap();
        let report = parallel_cycle(&mut e).unwrap();
        assert_eq!(report.attempted, 2);
        assert_eq!(report.committed, 1, "only one worker gets the token");
        assert_eq!(report.aborted, 1);
    }

    #[test]
    fn set_mode_respects_count_test() {
        let prog = "(p dups { [player ^name <n>] <P> } :scalar (<n>)
                      :test ((count <P>) > 1) (set-remove <P>))";
        let mut e = DipsEngine::new(DipsMode::Set, prog).unwrap();
        e.insert("player", &[("name", Value::sym("Sue"))]).unwrap();
        e.insert("player", &[("name", Value::sym("Sue"))]).unwrap();
        e.insert("player", &[("name", Value::sym("Jack"))]).unwrap();
        let report = parallel_cycle(&mut e).unwrap();
        assert_eq!(report.attempted, 1, "only the Sue group passes the test");
        assert_eq!(report.committed, 1);
        assert_eq!(e.wm_len(), 1, "both Sues removed; Jack survives");
    }

    #[test]
    fn trace_stream_reports_asserts_fires_and_aborts() {
        use sorete_base::{CollectSink, TraceEvent, Tracer};
        let prog = "(p grab (token ^free t) (worker ^idle t)
                      (remove 1) (modify 2 ^idle f))";
        let mut e = DipsEngine::new(DipsMode::Tuple, prog).unwrap();
        let (tracer, sink) = Tracer::single(CollectSink::new());
        e.set_tracer(tracer);
        e.insert("token", &[("free", Value::sym("t"))]).unwrap();
        e.insert("worker", &[("idle", Value::sym("t"))]).unwrap();
        e.insert("worker", &[("idle", Value::sym("t"))]).unwrap();
        let report = parallel_cycle(&mut e).unwrap();
        assert_eq!((report.committed, report.aborted), (1, 1));
        let events = sink.lock().unwrap().take();
        let count = |name: &str| events.iter().filter(|ev| ev.name() == name).count();
        assert_eq!(count("wme_assert"), 3);
        assert_eq!(count("fire"), 1, "{:?}", events);
        assert_eq!(count("rollback"), 1, "{:?}", events);
        assert!(events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Fire { rule, .. } if rule.as_str() == "grab")));
    }

    /// The JSONL schema gives `wme_assert` the bare `(class ^attr value …)`
    /// text with the tag in its own field — the same text the core engine
    /// emits — not `Wme`'s `Debug` form with a `tag: ` prefix.
    #[test]
    fn wme_assert_text_carries_no_tag_prefix() {
        use sorete_base::{CollectSink, TraceEvent, Tracer};
        let prog = "(p sweep { [player ^name <n>] <P> } (set-remove <P>))";
        let mut e = DipsEngine::new(DipsMode::Set, prog).unwrap();
        let (tracer, sink) = Tracer::single(CollectSink::new());
        e.set_tracer(tracer);
        let jack = e.insert("player", &[("name", Value::sym("Jack"))]).unwrap();
        parallel_cycle(&mut e).unwrap();
        let events = sink.lock().unwrap().take();
        assert_eq!(
            events[0],
            TraceEvent::WmeAssert {
                cycle: 0,
                tag: jack,
                wme: "(player ^name Jack)".into(),
            }
        );
        let fire = events.iter().find(|ev| ev.name() == "fire").unwrap();
        assert!(
            matches!(fire, TraceEvent::Fire { rows, .. } if *rows == vec![vec![jack.raw()]]),
            "{:?}",
            fire
        );
    }

    #[test]
    fn wal_recovery_restores_wm_and_sois() {
        let dir = std::env::temp_dir().join("sorete-dips-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dips-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let prog = "(p sweep { [item ^s pending] <P> } (set-modify <P> ^s done)
                      (make tally ^n 1))";

        let mut live = DipsEngine::new(DipsMode::Set, prog).unwrap();
        live.attach_wal(&path, sorete_reldb::WalOptions::default())
            .unwrap();
        for _ in 0..3 {
            live.insert("item", &[("s", Value::sym("pending"))])
                .unwrap();
        }
        let doomed = live.insert("item", &[("s", Value::sym("stale"))]).unwrap();
        live.remove(doomed).unwrap();
        let r = parallel_cycle(&mut live).unwrap();
        assert_eq!(r.committed, 1);
        let live_wm: Vec<String> = live.wmes().iter().map(|w| w.to_string()).collect();

        // "Crash": a fresh engine recovers everything from the log alone —
        // original tags, the in-place set-modify updates, the removal.
        let mut back = DipsEngine::new(DipsMode::Set, prog).unwrap();
        let report = back
            .attach_wal(&path, sorete_reldb::WalOptions::default())
            .unwrap();
        assert_eq!(report.replayed_cycles, 1);
        assert_eq!(report.replayed_commits, 5, "4 inserts + 1 remove");
        let back_wm: Vec<String> = back.wmes().iter().map(|w| w.to_string()).collect();
        assert_eq!(back_wm, live_wm);
        assert_eq!(back.sois().len(), live.sois().len());
        let _ = std::fs::remove_file(&path);
    }

    /// A set-mode cycle logs its removals, then its updates, each in
    /// ascending tag order, so a log's bytes never depend on hash order.
    #[test]
    fn a_set_cycle_logs_removals_then_updates_in_tag_order() {
        use sorete_reldb::{Wal, WalOptions, WmeOp};
        let dir = std::env::temp_dir().join("sorete-dips-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dips-order-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let prog = "(p sweep { [item ^s pending] <P> } (set-modify <P> ^s done))
                    (p purge { [junk ^s x] <J> } (set-remove <J>))";
        let mut e = DipsEngine::new(DipsMode::Set, prog).unwrap();
        e.attach_wal(&path, WalOptions::default()).unwrap();
        let (mut junk, mut items) = (Vec::new(), Vec::new());
        for _ in 0..40 {
            junk.push(e.insert("junk", &[("s", Value::sym("x"))]).unwrap());
            items.push(e.insert("item", &[("s", Value::sym("pending"))]).unwrap());
        }
        assert_eq!(parallel_cycle(&mut e).unwrap().committed, 2);
        drop(e);
        let (_, rec) = Wal::attach(&path, WalOptions::default(), 0).unwrap();
        let cycle = rec.transactions.last().unwrap();
        assert!(cycle.cycle.is_some());
        let logged: Vec<(char, TimeTag)> = cycle
            .ops
            .iter()
            .map(|op| match op {
                WmeOp::Retract(t) => ('R', *t),
                WmeOp::Update(t, _) => ('U', *t),
                WmeOp::Assert(w) => ('A', w.tag),
            })
            .collect();
        let want: Vec<(char, TimeTag)> = junk
            .iter()
            .map(|t| ('R', *t))
            .chain(items.iter().map(|t| ('U', *t)))
            .collect();
        assert_eq!(logged, want);
        let _ = std::fs::remove_file(&path);
    }

    /// `:test` aggregates over a set-oriented group: one rule per
    /// aggregate, each firing for one group and not the other.
    #[test]
    fn set_tests_evaluate_sum_avg_min_max() {
        let rule = |name: &str, test: &str| {
            format!(
                "(p {name} {{ [item ^g <g> ^v <v>] <P> }} :scalar (<g>) :test ({test})
                   (make hit ^op {name} ^g <g>))"
            )
        };
        let prog = [
            rule("sum", "(sum <v>) > 11.5"),
            rule("avg", "(avg <v>) > 3.8"),
            rule("min", "(min <v>) >= 2"),
            rule("max", "(max <v>) > 6"),
        ]
        .join("\n");
        let mut e = DipsEngine::new(DipsMode::Set, &prog).unwrap();
        // Group a: 3 4 5 (sum 12, avg 4, min 3, max 5);
        // group b: 1 2 8 (sum 11, avg 3.67, min 1, max 8).
        for (g, vs) in [("a", [3, 4, 5]), ("b", [1, 2, 8])] {
            for v in vs {
                e.insert("item", &[("g", Value::sym(g)), ("v", Value::Int(v))])
                    .unwrap();
            }
        }
        let r = parallel_cycle(&mut e).unwrap();
        assert_eq!((r.attempted, r.committed), (4, 4));
        let hit = Symbol::new("hit");
        let mut hits: Vec<String> = e
            .wmes()
            .iter()
            .filter(|w| w.class == hit)
            .map(|w| {
                let get = |a: &str| w.get(Symbol::new(a)).to_string();
                format!("{} {}", get("op"), get("g"))
            })
            .collect();
        hits.sort();
        assert_eq!(hits, ["avg a", "max b", "min a", "sum a"]);
    }

    #[test]
    fn wal_failure_poisons_the_engine() {
        let dir = std::env::temp_dir().join("sorete-dips-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dips-poison-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let prog = "(p sweep { [item ^s pending] <P> } (set-modify <P> ^s done))";
        let mut e = DipsEngine::new(DipsMode::Set, prog).unwrap();
        e.attach_wal(&path, sorete_reldb::WalOptions::default())
            .unwrap();
        assert!(e.inject_wal_fault(sorete_reldb::IoFaultPlan::nth(
            sorete_reldb::IoFaultKind::Fail,
            0
        )));
        // DIPS inserts mutate WM before logging; when the log refuses the
        // record, memory has already diverged and the handle poisons.
        let err = e
            .insert("item", &[("s", Value::sym("pending"))])
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{}", err);
        // Every further mutation is refused until rebuilt from the log.
        let err = e
            .insert("item", &[("s", Value::sym("pending"))])
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{}", err);
        let _ = std::fs::remove_file(&path);
    }

    /// Every COND table's rows, sorted, per class.
    fn cond_rows(e: &DipsEngine, classes: &[&str]) -> Vec<Vec<Vec<Value>>> {
        classes
            .iter()
            .map(|class| {
                let name = e.cond_table_name(class).unwrap();
                let table = e.db.table_by_name(name).unwrap();
                let mut rows: Vec<Vec<Value>> = table.iter().map(|(_, r)| r.to_vec()).collect();
                rows.sort();
                rows
            })
            .collect()
    }

    /// A parallel cycle maintains the COND tables as it removes, updates
    /// and inserts WMEs: after every cycle their rows equal what a full
    /// re-derivation from working memory builds — in tuple and set mode,
    /// under remove, modify, set-remove, set-modify and make RHSs, with a
    /// non-equality join whose conservative rows depend on arrival order.
    #[test]
    fn cycles_maintain_cond_tables_as_a_rebuild_would() {
        let tuple = "(p advance (counter ^n <n>) (limit ^max > <n>)
                       (modify 1 ^n (compute <n> + 1)) (make tick ^at <n>))
                     (p sweep (tick ^at <t>) (counter ^n > <t>) (remove 1))";
        let set = "(p mark (batch ^id <b>) { [item ^b <b> ^s pending] <I> }
                     (set-modify <I> ^s done) (make log ^b <b>))
                   (p clear (batch ^id <b>) { [item ^b <b> ^s done] <D> }
                     (set-remove <D>))
                   (p close (log ^b <b>) (batch ^id >= <b>) (remove 2))";
        for (mode, prog, classes) in [
            (DipsMode::Tuple, tuple, &["counter", "limit", "tick"][..]),
            (DipsMode::Set, set, &["batch", "item", "log"][..]),
        ] {
            let mut e = DipsEngine::new(mode, prog).unwrap();
            match mode {
                DipsMode::Tuple => {
                    e.insert("limit", &[("max", Value::Int(6))]).unwrap();
                    e.insert("counter", &[("n", Value::Int(0))]).unwrap();
                }
                DipsMode::Set => {
                    for b in 1..=3 {
                        e.insert("batch", &[("id", Value::Int(b))]).unwrap();
                        for _ in 0..b {
                            let slots = [("b", Value::Int(b)), ("s", Value::sym("pending"))];
                            e.insert("item", &slots).unwrap();
                        }
                    }
                }
            }
            let mut committed = 0;
            for _ in 0..20 {
                let r = parallel_cycle(&mut e).unwrap();
                committed += r.committed;
                let maintained = cond_rows(&e, classes);
                e.rebuild().unwrap();
                assert_eq!(maintained, cond_rows(&e, classes), "{:?}", mode);
                if r.attempted == 0 {
                    break;
                }
            }
            assert!(committed >= 5, "{:?}: {} firings", mode, committed);
        }
    }

    #[test]
    fn cycle_then_requery_consistent() {
        let prog = "(p sweep { [item ^s pending] <P> } (set-modify <P> ^s done))";
        let mut e = DipsEngine::new(DipsMode::Set, prog).unwrap();
        for _ in 0..4 {
            e.insert("item", &[("s", Value::sym("pending"))]).unwrap();
        }
        let r1 = parallel_cycle(&mut e).unwrap();
        assert_eq!(r1.committed, 1);
        // All items now done → no work left.
        let r2 = parallel_cycle(&mut e).unwrap();
        assert_eq!(r2.attempted, 0);
        assert_eq!(e.wm_len(), 4);
    }
}
