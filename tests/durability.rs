//! Durability layer integration tests: the crash-restart differentials.
//!
//! Three layers, three harnesses:
//!
//! 1. **reldb fault sweep** — a fixed `DurableDb` workload is re-run with
//!    every storage fault kind injected at *every* record index; after the
//!    simulated crash the reopened database must be byte-identical to the
//!    clean run's state at the same commit point.
//! 2. **engine crash/recovery differential** — a production-system run
//!    with a WAL attached is crashed at every log record; a fresh engine
//!    recovering from the log and running to completion must reach the
//!    exact final state (stats, working memory, conflict set) of a run
//!    that never crashed.
//! 3. **checkpoint/resume matcher portability** — a checkpoint cut
//!    mid-run on the Rete matcher must resume on every matcher (including
//!    S-node rules) with an identical conflict set, identical refraction
//!    behaviour, and an identical final state.

use sorete::core::{MatcherKind, ProductionSystem, StopReason, Strategy};
use sorete::reldb::{DurableDb, IoFaultKind, IoFaultPlan, Schema, WalOptions};
use sorete_base::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sorete-durability-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{}", name, std::process::id()))
}

fn fresh(path: &Path) {
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------------------------------------
// 1. reldb fault sweep

/// The sweep workload: every step is exactly one commit point, so the
/// clean run's dump after step `k` is the oracle for any crash whose
/// recovery reports `k` replayed commits.
type Step = fn(&mut DurableDb) -> Result<(), sorete::reldb::DbError>;

fn steps() -> Vec<Step> {
    vec![
        |d| d.create_table(Schema::new("emp", &["name", "sal"])),
        |d| d.create_index("emp", "sal"),
        |d| {
            d.insert("emp", vec![Value::sym("ann"), Value::Int(120)])
                .map(|_| ())
        },
        |d| {
            d.insert("emp", vec![Value::sym("bob"), Value::Int(80)])
                .map(|_| ())
        },
        |d| {
            d.insert("emp", vec![Value::sym("cat"), Value::Int(95)])
                .map(|_| ())
        },
        |d| d.update("emp", sorete::reldb::RowId::new(0), "sal", Value::Int(150)),
        |d| d.delete("emp", sorete::reldb::RowId::new(1)),
        |d| {
            // One multi-write optimistic transaction (atomic in the log).
            let mut tx = d.begin();
            tx.insert("emp", vec![Value::sym("dot"), Value::Int(70)]);
            tx.update(
                d.db(),
                "emp",
                sorete::reldb::RowId::new(2),
                "sal",
                Value::Int(99),
            )?;
            d.commit(tx)
        },
        |d| d.mark_cycle(b"cycle 1"),
    ]
}

#[test]
fn reldb_fault_sweep_recovers_to_last_commit_point_everywhere() {
    // Clean run: record the dump after every commit point.
    let (ckpt, wal) = (tmp("sweep-clean.ckpt"), tmp("sweep-clean.wal"));
    fresh(&ckpt);
    fresh(&wal);
    let mut snaps: Vec<String> = Vec::new();
    let total_records;
    {
        let (mut ddb, _) = DurableDb::open(&ckpt, &wal, WalOptions::default()).unwrap();
        snaps.push(sorete::reldb::dump(ddb.db()));
        for step in steps() {
            step(&mut ddb).unwrap();
            snaps.push(sorete::reldb::dump(ddb.db()));
        }
        total_records = ddb.wal_stats().records;
    }
    assert!(
        total_records >= 15,
        "workload writes {} records",
        total_records
    );

    let kinds = [
        IoFaultKind::Fail,
        IoFaultKind::ShortWrite,
        IoFaultKind::TornWrite,
        IoFaultKind::FsyncError,
    ];
    for kind in kinds {
        for at in 0..total_records {
            let (c2, w2) = (
                tmp(&format!("sweep-{:?}-{}.ckpt", kind, at)),
                tmp(&format!("sweep-{:?}-{}.wal", kind, at)),
            );
            fresh(&c2);
            fresh(&w2);
            // Crash run: stop at the first error, like a process that died.
            {
                let (mut ddb, _) = DurableDb::open(&c2, &w2, WalOptions::default()).unwrap();
                ddb.inject_fault(IoFaultPlan::nth(kind, at));
                for step in steps() {
                    if step(&mut ddb).is_err() {
                        break;
                    }
                }
            }
            // Restart: recovered state ≡ the clean run at the same commit
            // point, byte for byte.
            let (ddb, rep) = DurableDb::open(&c2, &w2, WalOptions::default()).unwrap();
            let k = rep.replayed_commits as usize;
            assert!(
                k < snaps.len(),
                "{:?}@{}: replayed {} commits, clean run has {}",
                kind,
                at,
                k,
                snaps.len() - 1
            );
            assert_eq!(
                sorete::reldb::dump(ddb.db()),
                snaps[k],
                "{:?}@{}: recovered dump diverges at commit {}",
                kind,
                at,
                k
            );
            fresh(&c2);
            fresh(&w2);
        }
    }
    fresh(&ckpt);
    fresh(&wal);
}

// ---------------------------------------------------------------------------
// 2. engine crash/recovery differential

/// A program mixing scalar cycles (modify = retract + assert per cycle)
/// with an S-node set rule and aggregates, ending in a halt.
const ENGINE_PROG: &str = "
    (literalize c n)
    (literalize lim max)
    (literalize done total)
    (p count (c ^n <n>) (lim ^max > <n>) (modify 1 ^n (<n> + 1)))
    (p finale { [c ^n 6] <P> } (make done ^total (count <P>)) (halt))
";

/// Seed the counting workload, tolerating WAL failures (the crash runs
/// inject faults that can hit the seeding commits themselves). Asserts
/// only the facts not already recovered from the log.
fn seed_engine(ps: &mut ProductionSystem) -> Result<(), sorete::core::CoreError> {
    let have = |ps: &ProductionSystem, class: &str| {
        ps.wm()
            .iter()
            .any(|w| w.class == sorete_base::Symbol::new(class))
    };
    if !have(ps, "c") {
        ps.assert_wme(
            sorete_base::Symbol::new("c"),
            vec![(sorete_base::Symbol::new("n"), Value::Int(0))],
        )?;
    }
    if !have(ps, "lim") {
        ps.assert_wme(
            sorete_base::Symbol::new("lim"),
            vec![(sorete_base::Symbol::new("max"), Value::Int(6))],
        )?;
    }
    Ok(())
}

/// Canonical view of a conflict set, independent of matcher internals and
/// SOI version counters.
type CanonItem = (usize, bool, BTreeSet<Vec<u64>>, Vec<String>);

fn canon(ps: &ProductionSystem) -> BTreeSet<CanonItem> {
    ps.conflict_items()
        .into_iter()
        .map(|i| {
            (
                i.key.rule().index(),
                i.key.is_soi(),
                i.rows
                    .iter()
                    .map(|r| r.iter().map(|t| t.raw()).collect())
                    .collect(),
                i.aggregates.iter().map(|v| v.to_string()).collect(),
            )
        })
        .collect()
}

fn wm_dump(ps: &ProductionSystem) -> Vec<String> {
    ps.wm().dump().iter().map(|w| w.to_string()).collect()
}

fn start_engine(wal: &Path) -> (ProductionSystem, sorete::core::WalReplayReport) {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(ENGINE_PROG).unwrap();
    let report = ps.attach_wal(wal, WalOptions::default()).unwrap();
    (ps, report)
}

#[test]
fn engine_crash_recovery_differential_at_every_record() {
    // Clean reference run.
    let wal = tmp("engine-clean.wal");
    fresh(&wal);
    let (clean_stats, clean_wm, clean_canon, total_records);
    {
        let (mut ps, _) = start_engine(&wal);
        seed_engine(&mut ps).unwrap();
        let outcome = ps.run(Some(100));
        assert_eq!(outcome.reason, StopReason::Halt);
        assert_eq!(outcome.fired, 7, "6 count cycles + finale");
        clean_stats = ps.stats().clone();
        clean_wm = wm_dump(&ps);
        clean_canon = canon(&ps);
        total_records = ps.wal_stats().unwrap().records;
    }
    fresh(&wal);
    assert!(total_records >= 20, "run writes {} records", total_records);

    let kinds = [
        IoFaultKind::Fail,
        IoFaultKind::ShortWrite,
        IoFaultKind::TornWrite,
        IoFaultKind::FsyncError,
    ];
    for kind in kinds {
        for at in 0..total_records {
            let w = tmp(&format!("engine-{:?}-{}.wal", kind, at));
            fresh(&w);
            // Crash run: the WAL failure surfaces as a run error (the firing
            // in flight rolled back — in-memory state never runs ahead of
            // the durable state).
            {
                let (mut ps, _) = start_engine(&w);
                assert!(ps.inject_wal_fault(IoFaultPlan::nth(kind, at)));
                if seed_engine(&mut ps).is_ok() {
                    let outcome = ps.run(Some(100));
                    assert!(
                        !matches!(outcome.reason, StopReason::Limit),
                        "{:?}@{}: run must end (halt or WAL error), got limit",
                        kind,
                        at
                    );
                }
            }
            // Restart: recover the committed prefix, re-seed whatever
            // fact commits the crash swallowed, then run to completion.
            let (mut ps, _report) = start_engine(&w);
            seed_engine(&mut ps).unwrap();
            let outcome = ps.run(Some(100));
            assert_eq!(
                outcome.reason,
                StopReason::Halt,
                "{:?}@{}: recovered run must reach the same halt",
                kind,
                at
            );
            assert_eq!(ps.stats(), &clean_stats, "{:?}@{}: stats diverge", kind, at);
            assert_eq!(wm_dump(&ps), clean_wm, "{:?}@{}: WM diverges", kind, at);
            assert_eq!(
                canon(&ps),
                clean_canon,
                "{:?}@{}: conflict set diverges",
                kind,
                at
            );
            fresh(&w);
        }
    }
}

#[test]
fn engine_wal_failure_rolls_back_the_firing_in_flight() {
    let w = tmp("engine-rollback.wal");
    fresh(&w);
    let (mut ps, _) = start_engine(&w);
    seed_engine(&mut ps).unwrap();
    let before_wm = wm_dump(&ps);
    // Poison the very next append: the first firing's commit must fail...
    assert!(ps.inject_wal_fault(IoFaultPlan::nth(IoFaultKind::ShortWrite, 4)));
    let outcome = ps.run(Some(100));
    assert!(
        matches!(outcome.reason, StopReason::Error(_)),
        "{:?}",
        outcome.reason
    );
    // ...and leave working memory exactly as it was before the firing
    // (the attempt still counts as a firing; `rolled_back` records the undo).
    assert_eq!(wm_dump(&ps), before_wm, "failed firing must be undone");
    assert_eq!(ps.stats().rolled_back, 1);
    fresh(&w);
}

// ---------------------------------------------------------------------------
// 3. checkpoint/resume across matchers

const MATCHERS: [MatcherKind; 4] = [
    MatcherKind::Rete,
    MatcherKind::ReteScan,
    MatcherKind::Treat,
    MatcherKind::Naive,
];

/// A program where fired instantiations stay in the conflict set (their
/// premises survive), so resumed refraction is observable: re-firing
/// would double the `write` count.
const REFRACT_PROG: &str = "
    (literalize a x)
    (literalize b x)
    (p note (a ^x <v>) (write noted <v>))
    (p pair (a ^x <v>) (b ^x <v>) (write paired <v>))
    (p tally { [a ^x <v>] <P> } :test ((count <P>) > 1) (write many (count <P>)))
";

fn seed_refract(ps: &mut ProductionSystem) {
    for (class, x) in [("a", 1), ("a", 2), ("b", 1), ("b", 2)] {
        ps.assert_wme(
            sorete_base::Symbol::new(class),
            vec![(sorete_base::Symbol::new("x"), Value::Int(x))],
        )
        .unwrap();
    }
}

#[test]
fn checkpoint_resumes_identically_on_every_matcher() {
    // Reference: run 3 cycles on Rete, checkpoint, then run to quiescence.
    let mut reference = ProductionSystem::new(MatcherKind::Rete);
    reference.load_program(REFRACT_PROG).unwrap();
    seed_refract(&mut reference);
    let outcome = reference.run(Some(3));
    assert_eq!(outcome.reason, StopReason::Limit);
    let _mid_writes = reference.take_output(); // drain the first 3 cycles
    let ckpt = reference.checkpoint_string();
    let mid_canon = canon(&reference);
    let final_outcome = reference.run(None);
    assert_eq!(final_outcome.reason, StopReason::Quiescence);
    let clean_tail = reference.take_output();
    let total_firings = 3 + final_outcome.fired;

    for kind in MATCHERS {
        let mut ps = ProductionSystem::new(kind);
        ps.load_program(REFRACT_PROG).unwrap();
        let report = ps.resume_from_str(&ckpt).unwrap();
        assert_eq!(report.wmes, 4);
        assert_eq!(report.cycle, 3);
        assert_eq!(report.matcher_was, "rete");
        assert_eq!(
            canon(&ps),
            mid_canon,
            "{:?}: resumed conflict set diverges from the checkpoint",
            kind
        );
        // Refraction carried over: the resumed run fires exactly the
        // remaining instantiations, never the already-fired ones.
        let rest = ps.run(None);
        assert_eq!(rest.reason, StopReason::Quiescence, "{:?}", kind);
        assert_eq!(
            3 + rest.fired,
            total_firings,
            "{:?}: resumed run re-fired or skipped instantiations",
            kind
        );
        assert_eq!(
            ps.take_output(),
            clean_tail,
            "{:?}: resumed output diverges",
            kind
        );
        assert_eq!(ps.stats().firings, total_firings, "{:?}", kind);
    }
}

#[test]
fn checkpoint_resume_preserves_snode_state_and_versions() {
    // S-node heavy program: the set rule's SOI must survive the round trip
    // with its aggregate intact, and refraction must pin to the *rebuilt*
    // version (bulk replay renumbers SOI versions).
    let prog = "
        (literalize item s)
        (p sweep { [item ^s pending] <P> } (set-modify <P> ^s done))
        (p audit { [item ^s done] <Q> } :test ((count <Q>) >= 2) (write audited (count <Q>)))
    ";
    let mut live = ProductionSystem::new(MatcherKind::Rete);
    live.load_program(prog).unwrap();
    for _ in 0..3 {
        live.assert_wme(
            sorete_base::Symbol::new("item"),
            vec![(sorete_base::Symbol::new("s"), Value::sym("pending"))],
        )
        .unwrap();
    }
    let outcome = live.run(Some(1));
    assert_eq!(outcome.fired, 1, "sweep fired");
    let ckpt = live.checkpoint_string();
    let live_rest = live.run(None);
    assert_eq!(live_rest.reason, StopReason::Quiescence);
    let live_out = live.take_output();
    assert_eq!(live_out, vec!["audited 3"]);

    for kind in MATCHERS {
        let mut ps = ProductionSystem::new(kind);
        ps.load_program(prog).unwrap();
        ps.resume_from_str(&ckpt).unwrap();
        let rest = ps.run(None);
        assert_eq!(rest.reason, StopReason::Quiescence, "{:?}", kind);
        assert_eq!(rest.fired, live_rest.fired, "{:?}", kind);
        assert_eq!(ps.take_output(), live_out, "{:?}", kind);
    }
}

/// Under MEA a `time` token moves an SOI by the head row it now has, not
/// by the rows it last materialized. The resumed twin's rebuild inserts
/// the SOI at its oldest head (t1) and retimes it forward, while the live
/// engine last materialized it at t3; both must rank it by t4 and fire it
/// before the tuple whose first CE matched t2.
#[test]
fn mea_ranks_a_retimed_soi_by_its_current_head_after_resume() {
    let prog = "
        (p soi [a ^x <x>] --> (write soi))
        (p tup (t ^y <y>) (go) --> (write tup))
    ";
    let make = |ps: &mut ProductionSystem, class: &str| {
        ps.make_str(class, &[("x", Value::Int(0)), ("y", Value::Int(0))])
            .unwrap();
    };
    for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
        let mut live = ProductionSystem::new(kind);
        live.load_program(prog).unwrap();
        live.set_strategy(Strategy::Mea);
        for class in ["a", "t", "a"] {
            make(&mut live, class);
        }
        assert_eq!(live.run(Some(1)).fired, 1, "{:?}", kind);
        assert_eq!(live.take_output(), vec!["soi"], "{:?}", kind);
        for class in ["a", "go"] {
            make(&mut live, class);
        }

        let mut twin = ProductionSystem::new(kind);
        twin.load_program(prog).unwrap();
        twin.set_strategy(Strategy::Mea);
        twin.resume_from_str(&live.checkpoint_string()).unwrap();

        for (who, ps) in [("live", &mut live), ("resumed", &mut twin)] {
            assert_eq!(
                ps.run(None).reason,
                StopReason::Quiescence,
                "{who} {kind:?}"
            );
            assert_eq!(ps.take_output(), vec!["soi", "tup"], "{who} {kind:?}");
            ps.validate_matcher().unwrap();
        }
    }
}

#[test]
fn checkpoint_render_is_stable_and_resume_guards_hold() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(REFRACT_PROG).unwrap();
    seed_refract(&mut ps);
    ps.run(Some(2));
    let ck = ps.checkpoint_string();
    // Canonical render: parse → re-render is byte-identical.
    let reparsed = sorete::core::Checkpoint::parse(&ck).unwrap();
    assert_eq!(reparsed.render(), ck);
    // Resume requires a fresh engine.
    let err = ps.resume_from_str(&ck).unwrap_err();
    assert!(
        err.to_string().contains("durability"),
        "resume into a live engine must fail: {}",
        err
    );
}

/// `resume` hands the checkpointed facts to the matcher before working
/// memory takes them, so a checkpoint that repeats or disorders a tag is
/// refused before either is touched — the engine stays fresh and resumes
/// the well-formed text afterwards.
#[test]
fn resume_rejects_wmes_out_of_tag_order_before_touching_anything() {
    let mut live = ProductionSystem::new(MatcherKind::Rete);
    live.load_program(REFRACT_PROG).unwrap();
    seed_refract(&mut live);
    let good = sorete::core::Checkpoint::parse(&live.checkpoint_string()).unwrap();
    let broken = |edit: &dyn Fn(&mut Vec<sorete_base::Wme>)| {
        let mut ck = good.clone();
        edit(&mut ck.wmes);
        ck
    };
    for kind in MATCHERS {
        let mut ps = ProductionSystem::new(kind);
        ps.load_program(REFRACT_PROG).unwrap();
        for ck in [
            broken(&|w| w.swap(1, 2)),
            broken(&|w| {
                let again = w[0].clone();
                w.insert(1, again)
            }),
        ] {
            let err = ps.resume(ck).unwrap_err().to_string();
            assert!(err.contains("ascending tag order"), "{:?}: {}", kind, err);
            assert!(ps.wm().is_empty() && ps.conflict_set_len() == 0);
            ps.validate_matcher().unwrap();
        }
        let report = ps.resume(good.clone()).unwrap();
        assert_eq!(report.wmes, 4, "{:?}", kind);
        assert_eq!(ps.conflict_set_len(), live.conflict_set_len(), "{:?}", kind);
    }
}

// ---------------------------------------------------------------------------
// WAL + checkpoint combined: rotate-on-checkpoint keeps the pair coherent.

#[test]
fn checkpoint_rotates_wal_and_the_pair_recovers() {
    let (wal, ck) = (tmp("pair.wal"), tmp("pair.ckpt"));
    fresh(&wal);
    fresh(&ck);
    let (clean_stats, clean_wm);
    {
        let (mut ps, _) = start_engine(&wal);
        seed_engine(&mut ps).unwrap();
        ps.run(Some(3));
        let records_before = ps.wal_stats().unwrap().records;
        assert!(records_before > 0);
        ps.checkpoint_to(&ck).unwrap();
        // Post-rotation the log restarts; later cycles land in the new log.
        ps.run(Some(100));
        clean_stats = ps.stats().clone();
        clean_wm = wm_dump(&ps);
    }
    // Recover: checkpoint base + WAL tail.
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(ENGINE_PROG).unwrap();
    ps.resume_from_file(&ck).unwrap();
    let report = ps.attach_wal(&wal, WalOptions::default()).unwrap();
    assert!(report.replayed_cycles > 0, "post-checkpoint cycles replay");
    assert_eq!(ps.stats(), &clean_stats);
    assert_eq!(wm_dump(&ps), clean_wm);
    fresh(&wal);
    fresh(&ck);
}

#[test]
fn stale_wal_from_a_crash_before_rotation_is_discarded() {
    // The checkpoint crash window: the checkpoint file renames into place
    // but the process dies before the WAL rotation reaches disk. The log
    // still carries the *previous* generation's records — already baked
    // into the checkpoint — and replaying them on top would double-apply.
    let (wal, ck) = (tmp("stale.wal"), tmp("stale.ckpt"));
    fresh(&wal);
    fresh(&ck);
    let pre_rotation;
    {
        let (mut ps, _) = start_engine(&wal);
        seed_engine(&mut ps).unwrap();
        ps.run(Some(3));
        assert!(ps.wal_stats().unwrap().records > 0);
        pre_rotation = std::fs::read(&wal).unwrap();
        ps.checkpoint_to(&ck).unwrap();
    }
    // Oracle: a clean resume from the checkpoint, run to the halt.
    let (clean_stats, clean_wm, clean_canon);
    {
        let mut oracle = ProductionSystem::new(MatcherKind::Rete);
        oracle.load_program(ENGINE_PROG).unwrap();
        oracle.resume_from_file(&ck).unwrap();
        let out = oracle.run(Some(100));
        assert_eq!(out.reason, StopReason::Halt);
        clean_stats = oracle.stats().clone();
        clean_wm = wm_dump(&oracle);
        clean_canon = canon(&oracle);
    }
    // Wind the WAL back to its pre-rotation bytes: the crash left the old
    // generation on disk, one behind the checkpoint.
    std::fs::write(&wal, &pre_rotation).unwrap();
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(ENGINE_PROG).unwrap();
    ps.resume_from_file(&ck).unwrap();
    let report = ps.attach_wal(&wal, WalOptions::default()).unwrap();
    assert!(
        report.stale_records > 0,
        "the previous generation's records are stale, not replayable"
    );
    assert_eq!(report.replayed_ops, 0);
    assert_eq!(report.replayed_cycles, 0);
    let out = ps.run(Some(100));
    assert_eq!(out.reason, StopReason::Halt);
    assert_eq!(ps.stats(), &clean_stats, "stale replay double-applied");
    assert_eq!(wm_dump(&ps), clean_wm);
    assert_eq!(canon(&ps), clean_canon);
    fresh(&wal);
    fresh(&ck);
}

#[test]
fn rotated_wal_refuses_to_attach_without_its_checkpoint() {
    // A log rotated by a checkpoint only makes sense on top of that
    // checkpoint's state. Attaching it to a fresh engine (generation 0)
    // must be refused, not silently replayed against the wrong base.
    let (wal, ck) = (tmp("refuse.wal"), tmp("refuse.ckpt"));
    fresh(&wal);
    fresh(&ck);
    {
        let (mut ps, _) = start_engine(&wal);
        seed_engine(&mut ps).unwrap();
        ps.run(Some(2));
        ps.checkpoint_to(&ck).unwrap();
        ps.run(Some(2));
    }
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(ENGINE_PROG).unwrap();
    let err = ps.attach_wal(&wal, WalOptions::default()).unwrap_err();
    assert!(
        err.to_string().contains("does not pair"),
        "mismatched generations must refuse: {}",
        err
    );
    fresh(&wal);
    fresh(&ck);
}

#[test]
fn api_op_rolls_back_when_the_log_refuses_it() {
    // An API-level assert that the WAL refuses must leave no trace: no
    // WME, no matcher state, and the tag counter rewound so the retry
    // lands on the very same tag a never-faulted run would use.
    let (w, w2) = (tmp("api-rb.wal"), tmp("api-rb-clean.wal"));
    fresh(&w);
    fresh(&w2);
    let (mut ps, _) = start_engine(&w);
    assert!(ps.inject_wal_fault(IoFaultPlan::nth(IoFaultKind::Fail, 0)));
    let err = ps
        .assert_wme(
            sorete_base::Symbol::new("c"),
            vec![(sorete_base::Symbol::new("n"), Value::Int(0))],
        )
        .unwrap_err();
    assert!(err.to_string().contains("injected"), "{}", err);
    assert_eq!(
        ps.wm().iter().count(),
        0,
        "refused assert must not leave a WME behind"
    );
    // The retry and the rest of the run match a never-faulted engine
    // exactly — tags included (wm_dump renders them).
    seed_engine(&mut ps).unwrap();
    let out = ps.run(Some(100));
    assert_eq!(out.reason, StopReason::Halt);
    let (mut oracle, _) = start_engine(&w2);
    seed_engine(&mut oracle).unwrap();
    let oracle_out = oracle.run(Some(100));
    assert_eq!(oracle_out.reason, StopReason::Halt);
    assert_eq!(ps.stats().firings, oracle.stats().firings);
    assert_eq!(wm_dump(&ps), wm_dump(&oracle));
    assert_eq!(canon(&ps), canon(&oracle));
    fresh(&w);
    fresh(&w2);
}

// ---------------------------------------------------------------------------
// 4. WAL write amortisation, as exact counts

/// Group commit amortises flushes. 200 one-`modify` firings log three
/// records each (op, commit, cycle marker) and the two seeding asserts two
/// each (op, commit): 604 records. `group_commit` 1 flushes at every one of
/// the 202 commit points; `group_commit` 8 flushes 25 times. Counts, not
/// timings, so the claim holds on any host.
#[test]
fn group_commit_amortises_wal_writes_and_fsyncs_exactly() {
    const COUNTER: &str = "(literalize c n)
        (literalize lim max)
        (p count (c ^n <n>) (lim ^max > <n>) (modify 1 ^n (<n> + 1)))";
    let run = |group_commit: Option<u32>| {
        let wal = tmp("group-commit.wal");
        fresh(&wal);
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program(COUNTER).unwrap();
        if let Some(group_commit) = group_commit {
            ps.attach_wal(&wal, WalOptions { group_commit }).unwrap();
        }
        ps.make_str("c", &[("n", Value::Int(0))]).unwrap();
        ps.make_str("lim", &[("max", Value::Int(200))]).unwrap();
        assert_eq!(ps.run(None).fired, 200);
        let s = ps.wal_stats().unwrap_or_default();
        fresh(&wal);
        (s.records, s.writes, s.fsyncs)
    };
    assert_eq!(run(None), (0, 0, 0), "no WAL");
    assert_eq!(run(Some(1)), (604, 202, 202), "group_commit 1");
    assert_eq!(run(Some(8)), (604, 25, 25), "group_commit 8");
}
