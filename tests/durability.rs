//! Durability layer integration tests: the crash-restart differentials.
//!
//! Both WAL clients — DIPS and the core engine — commit through the one
//! `reldb` path (`Wal::commit`) and recover through the other
//! (`Wal::attach`), so each gets its own sweep:
//!
//! 1. **DIPS crash sweep** — a fixed DIPS workload (inserts, a remove,
//!    parallel cycles; tuple and set mode) is re-run with every storage
//!    fault kind injected at *every* record index; after the simulated
//!    crash the reopened engine's working memory must equal the clean
//!    run's at the same commit count, and finishing the workload must
//!    reach the clean run's final working memory.
//! 2. **engine crash/recovery differential** — a production-system run
//!    with a WAL attached is crashed at every log record; a fresh engine
//!    recovering from the log and running to completion must reach the
//!    exact final state (stats, working memory, conflict set) of a run
//!    that never crashed.
//! 3. **checkpoint/resume matcher portability** — a checkpoint cut
//!    mid-run on the Rete matcher must resume on every matcher (including
//!    S-node rules) with an identical conflict set, identical refraction
//!    behaviour, and an identical final state.
//!
//! Around them: API-level ops that the log refuses roll back exactly, a
//! log in an older on-disk format is refused and left untouched, and
//! group commit's write and fsync counts are pinned.

use sorete::core::{MatcherKind, ProductionSystem, StopReason, Strategy};
use sorete::dips::{parallel_cycle, DipsEngine, DipsError, DipsMode};
use sorete::reldb::{IoFaultKind, IoFaultPlan, WalOptions};
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
// 1. DIPS crash sweep

const DIPS_PROG: &str =
    "(p sweep { [item ^s pending] <P> } (set-modify <P> ^s done) (make tally ^n 1))";

/// The sweep workload: every step is exactly one commit point (an insert
/// or remove commits alone, a parallel cycle under its boundary marker),
/// so the clean run's working memory after step `k` is the oracle for any
/// crash whose recovery replays `k` commit points.
type DipsStep = fn(&mut DipsEngine) -> Result<(), DipsError>;

fn dips_steps() -> Vec<DipsStep> {
    let pending = |e: &mut DipsEngine| {
        e.insert("item", &[("s", Value::sym("pending"))])
            .map(|_| ())
    };
    vec![
        pending,
        pending,
        pending,
        |e| e.insert("item", &[("s", Value::sym("stale"))]).map(|_| ()),
        |e| e.remove(sorete_base::TimeTag::new(4)),
        |e| parallel_cycle(e).map(|_| ()),
        pending,
        |e| parallel_cycle(e).map(|_| ()),
    ]
}

fn dips_wm(e: &DipsEngine) -> Vec<String> {
    e.wmes().iter().map(|w| w.to_string()).collect()
}

#[test]
fn dips_crash_recovery_at_every_record() {
    for mode in [DipsMode::Tuple, DipsMode::Set] {
        // Clean run: record working memory after every commit point.
        let wal = tmp(&format!("dips-clean-{:?}.wal", mode));
        fresh(&wal);
        let mut snaps: Vec<Vec<String>> = Vec::new();
        let total_records;
        {
            let mut e = DipsEngine::new(mode, DIPS_PROG).unwrap();
            e.attach_wal(&wal, WalOptions::default()).unwrap();
            snaps.push(dips_wm(&e));
            for step in dips_steps() {
                step(&mut e).unwrap();
                snaps.push(dips_wm(&e));
            }
            total_records = e.wal_stats().unwrap().records;
        }
        fresh(&wal);
        // One record per step: each is one transaction.
        assert_eq!(total_records, 8, "{:?}", mode);

        let kinds = [
            IoFaultKind::Fail,
            IoFaultKind::ShortWrite,
            IoFaultKind::TornWrite,
            IoFaultKind::FsyncError,
        ];
        for kind in kinds {
            for at in 0..total_records {
                let w = tmp(&format!("dips-{:?}-{:?}-{}.wal", mode, kind, at));
                fresh(&w);
                // Crash run: stop at the first error, like a process that
                // died.
                {
                    let mut e = DipsEngine::new(mode, DIPS_PROG).unwrap();
                    e.attach_wal(&w, WalOptions::default()).unwrap();
                    assert!(e.inject_wal_fault(IoFaultPlan::nth(kind, at)));
                    let failed = dips_steps().into_iter().any(|step| step(&mut e).is_err());
                    assert!(
                        failed,
                        "{:?} {:?}@{}: the fault never fired",
                        mode, kind, at
                    );
                }
                // Restart: the recovered WM is the clean run's at the same
                // commit count, and finishing the workload reaches its end.
                let mut e = DipsEngine::new(mode, DIPS_PROG).unwrap();
                let rep = e.attach_wal(&w, WalOptions::default()).unwrap();
                let k = rep.replayed_commits + rep.replayed_cycles;
                assert!(
                    k < snaps.len(),
                    "{:?} {:?}@{}: {} commits",
                    mode,
                    kind,
                    at,
                    k
                );
                assert_eq!(
                    dips_wm(&e),
                    snaps[k],
                    "{:?} {:?}@{}: recovered WM diverges at commit {}",
                    mode,
                    kind,
                    at,
                    k
                );
                for step in &dips_steps()[k..] {
                    step(&mut e).unwrap();
                }
                assert_eq!(
                    dips_wm(&e),
                    snaps[snaps.len() - 1],
                    "{:?} {:?}@{}: final WM diverges",
                    mode,
                    kind,
                    at
                );
                fresh(&w);
            }
        }
    }
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
    // One record per transaction: the two seeding asserts and 7 firings.
    assert_eq!(total_records, 9);

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
    // Poison the very next append (the seeding asserts were records 0
    // and 1): the first firing's commit must fail...
    assert!(ps.inject_wal_fault(IoFaultPlan::nth(IoFaultKind::ShortWrite, 2)));
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

/// Refraction survives WAL recovery. A retract and a re-run move the
/// live SOI's version past what a rebuilt S-node numbers it, so a
/// replayed cycle marker must re-arm refraction at the recovered entry's
/// version, not the live run's: otherwise the recovered engine stays
/// refracted against the next change the live one fires on.
#[test]
fn refraction_survives_wal_recovery_after_a_retract() {
    const PROG: &str = "(literalize a x) (p r [a ^x <x>] --> (write fired))";
    let make = |ps: &mut ProductionSystem| ps.make_str("a", &[("x", Value::Int(1))]).unwrap();
    for kind in MATCHERS {
        for strategy in [Strategy::Lex, Strategy::Mea] {
            let name = |what: &str| tmp(&format!("refract-{kind:?}-{strategy:?}.{what}"));
            let (wal, ck) = (name("wal"), name("ckpt"));
            let (wal_copy, ck_copy) = (name("copy.wal"), name("copy.ckpt"));
            for p in [&wal, &ck, &wal_copy, &ck_copy] {
                fresh(p);
            }
            let engine = || {
                let mut ps = ProductionSystem::new(kind);
                ps.set_strategy(strategy);
                ps.load_program(PROG).unwrap();
                ps
            };
            let mut live = engine();
            live.attach_wal(&wal, WalOptions::default()).unwrap();
            let first = make(&mut live);
            make(&mut live);
            live.run(None);
            live.retract_wme(first).unwrap();
            live.run(None);
            live.checkpoint_to(&ck).unwrap();
            make(&mut live);
            live.run(None);

            std::fs::copy(&wal, &wal_copy).unwrap();
            std::fs::copy(&ck, &ck_copy).unwrap();
            let mut back = engine();
            back.resume_from_file(&ck_copy).unwrap();
            let report = back.attach_wal(&wal_copy, WalOptions::default()).unwrap();
            assert_eq!(report.replayed_cycles, 1, "{kind:?} {strategy:?}");
            assert_eq!(back.stats(), live.stats(), "{kind:?} {strategy:?}");

            live.take_output();
            for ps in [&mut live, &mut back] {
                make(ps);
            }
            let (l, b) = (live.run(None), back.run(None));
            assert_eq!(l.fired, 1, "{kind:?} {strategy:?}: live");
            assert_eq!(b.fired, l.fired, "{kind:?} {strategy:?}: recovered");
            assert_eq!(back.take_output(), live.take_output());
            assert_eq!(wm_dump(&back), wm_dump(&live), "{kind:?} {strategy:?}");
            drop(live);
            for p in [&wal, &ck, &wal_copy, &ck_copy] {
                fresh(p);
            }
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

/// One API-level WM change on the seeded counting workload (`c` is t1,
/// `lim` is t2).
type ApiOp = fn(&mut ProductionSystem) -> Result<(), sorete::core::CoreError>;

fn api_ops() -> [(&'static str, ApiOp); 3] {
    use sorete_base::Symbol as S;
    [
        ("assert", |ps| {
            ps.assert_wme(S::new("c"), vec![(S::new("n"), Value::Int(4))])
                .map(|_| ())
        }),
        ("retract", |ps| ps.retract_wme(sorete_base::TimeTag::new(2))),
        ("modify", |ps| {
            ps.modify_wme(
                sorete_base::TimeTag::new(1),
                &[(S::new("n"), Value::Int(3))],
            )
            .map(|_| ())
        }),
    ]
}

/// What a refused API op must leave untouched: working memory (tags
/// included), the conflict set, and the tag allocator.
fn api_state(ps: &ProductionSystem) -> (Vec<String>, BTreeSet<CanonItem>, u64) {
    (wm_dump(ps), canon(ps), ps.wm().tag_mark())
}

#[test]
fn api_op_rolls_back_when_the_log_refuses_it() {
    // An API-level assert, retract or modify that the WAL refuses must
    // leave no trace: no WME, no matcher state, and the tag counter
    // rewound so the retry lands on the very same tag a never-faulted run
    // would use. Every record of the op's transaction (one: a transaction
    // is one record) is faulted with every kind.
    let kinds = [
        IoFaultKind::Fail,
        IoFaultKind::ShortWrite,
        IoFaultKind::TornWrite,
        IoFaultKind::FsyncError,
    ];
    for (name, op) in api_ops() {
        // Oracle: the op on a never-faulted engine, then the run.
        let w = tmp(&format!("api-rb-{}-clean.wal", name));
        fresh(&w);
        let (mut oracle, _) = start_engine(&w);
        seed_engine(&mut oracle).unwrap();
        let first = oracle.wal_stats().unwrap().records;
        op(&mut oracle).unwrap();
        let op_records = oracle.wal_stats().unwrap().records - first;
        let after_op = api_state(&oracle);
        let oracle_out = oracle.run(Some(100));
        fresh(&w);
        for kind in kinds {
            for at in first..first + op_records {
                let w = tmp(&format!("api-rb-{}-{:?}-{}.wal", name, kind, at));
                fresh(&w);
                let (mut ps, _) = start_engine(&w);
                seed_engine(&mut ps).unwrap();
                let before = api_state(&ps);
                assert!(ps.inject_wal_fault(IoFaultPlan::nth(kind, at)));
                let err = op(&mut ps).unwrap_err();
                assert!(err.to_string().contains("injected"), "{}", err);
                assert_eq!(
                    api_state(&ps),
                    before,
                    "{} {:?}@{}: a refused op must leave no trace",
                    name,
                    kind,
                    at
                );
                ps.validate_matcher().unwrap();
                // The retry: on the same engine when the log survived the
                // fault, else on an engine recovered from the log. An fsync
                // failure may leave the op durable (its bytes reached the
                // file); the recovered engine then already holds it.
                if ps.wal_stats().is_some_and(|_| kind == IoFaultKind::Fail) {
                    op(&mut ps).unwrap();
                } else {
                    drop(ps);
                    ps = start_engine(&w).0;
                    if api_state(&ps) == before {
                        op(&mut ps).unwrap();
                    }
                }
                assert_eq!(api_state(&ps), after_op, "{} {:?}@{}", name, kind, at);
                let out = ps.run(Some(100));
                assert_eq!(out, oracle_out, "{} {:?}@{}", name, kind, at);
                assert_eq!(ps.stats(), oracle.stats(), "{} {:?}@{}", name, kind, at);
                assert_eq!(wm_dump(&ps), wm_dump(&oracle), "{} {:?}@{}", name, kind, at);
                assert_eq!(canon(&ps), canon(&oracle), "{} {:?}@{}", name, kind, at);
                fresh(&w);
            }
        }
    }

    // A modify that fails halfway: the undeclared attribute is refused
    // after the retract half has run, with or without a log attached.
    for with_wal in [false, true] {
        let w = tmp("api-rb-modify-halfway.wal");
        fresh(&w);
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program(ENGINE_PROG).unwrap();
        if with_wal {
            ps.attach_wal(&w, WalOptions::default()).unwrap();
        }
        seed_engine(&mut ps).unwrap();
        let before = api_state(&ps);
        let records = ps.wal_stats().map(|s| s.records);
        let err = ps
            .modify_wme(
                sorete_base::TimeTag::new(1),
                &[(sorete_base::Symbol::new("bogus"), Value::Int(1))],
            )
            .unwrap_err();
        assert!(err.to_string().contains("bogus"), "{}", err);
        assert_eq!(api_state(&ps), before, "wal={}", with_wal);
        assert_eq!(ps.wal_stats().map(|s| s.records), records, "nothing logged");
        ps.validate_matcher().unwrap();
        let out = ps.run(Some(100));
        assert_eq!(out.reason, StopReason::Halt);
        let mut clean = ProductionSystem::new(MatcherKind::Rete);
        clean.load_program(ENGINE_PROG).unwrap();
        seed_engine(&mut clean).unwrap();
        clean.run(Some(100));
        assert_eq!(ps.stats(), clean.stats(), "wal={}", with_wal);
        assert_eq!(wm_dump(&ps), wm_dump(&clean), "wal={}", with_wal);
        assert_eq!(canon(&ps), canon(&clean), "wal={}", with_wal);
        fresh(&w);
    }
}

/// A log in an older on-disk format (`SORETWAL2` or `SORETWAL3`, which
/// framed a transaction as op records and a commit record): its header,
/// one committed op and a torn tail.
fn write_old_wal(path: &Path, magic: &str) -> Vec<u8> {
    let mut bytes = format!("{}\n", magic).into_bytes();
    bytes.extend_from_slice(&0u64.to_le_bytes());
    for body in [&b"\x01A\t1\tS:c\tS:n\tI:0"[..], b"\x02", b"\x01R\t1"] {
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&sorete::reldb::wal::crc32(body).to_le_bytes());
        bytes.extend_from_slice(body);
    }
    bytes.truncate(bytes.len() - 3);
    std::fs::write(path, &bytes).unwrap();
    bytes
}

/// Every entry point refuses a `SORETWAL2` or `SORETWAL3` log by name —
/// the engine's and DIPS's `attach_wal`, `sorete fsck` and `sorete --wal`
/// with the durability exit code — never panics, and leaves its bytes
/// alone.
#[test]
fn an_older_wal_format_is_refused_by_name_and_left_untouched() {
    let prog = tmp("old-format.ops");
    std::fs::write(&prog, ENGINE_PROG).unwrap();
    for magic in ["SORETWAL2", "SORETWAL3"] {
        let w = tmp(&format!("{}.wal", magic));
        let bytes = write_old_wal(&w, magic);
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program(ENGINE_PROG).unwrap();
        let err = ps.attach_wal(&w, WalOptions::default()).unwrap_err();
        assert!(
            matches!(&err, sorete::core::CoreError::Durability(m) if m.contains(magic)),
            "{:?}",
            err
        );
        assert!(!ps.wal_attached());
        let mut e = DipsEngine::new(DipsMode::Set, DIPS_PROG).unwrap();
        let err = e.attach_wal(&w, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains(magic), "{}", err);
        assert!(!e.wal_attached());
        for args in [
            vec!["fsck", w.to_str().unwrap()],
            vec!["--wal", w.to_str().unwrap(), prog.to_str().unwrap()],
        ] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_sorete"))
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(5), "{:?}: {}", args, stderr);
            assert!(stderr.contains(magic), "{:?}: {}", args, stderr);
            assert!(!stderr.contains("panicked"), "{:?}: {}", args, stderr);
        }
        assert_eq!(
            std::fs::read(&w).unwrap(),
            bytes,
            "the old log is untouched"
        );
        fresh(&w);
    }
    fresh(&prog);
}

// ---------------------------------------------------------------------------
// 4. WAL write amortisation, as exact counts

/// Group commit amortises flushes. 200 one-`modify` firings and the two
/// seeding asserts are 202 transactions, one record each. `group_commit` 1
/// flushes at every one of the 202 commits; `group_commit` 8 flushes 25
/// times. Counts, not
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
    assert_eq!(run(Some(1)), (202, 202, 202), "group_commit 1");
    assert_eq!(run(Some(8)), (202, 25, 25), "group_commit 8");
}

// ---------------------------------------------------------------------------
// 5. Every truncation and every byte flip of a real log

/// Recover a damaged copy of a clean log (`clean` are the clean log's
/// bytes, `want` its transactions) and check the recovery contract: no
/// panic; either a typed error or a prefix of the clean transactions,
/// whole ones only; and, while the magic and header survive, the file cut
/// to exactly what a read-only scan called the committed prefix.
fn recover_damaged(
    name: &str,
    bytes: &[u8],
    want: &[sorete::reldb::CommittedTx],
) -> Result<(), String> {
    use sorete::reldb::Wal;
    let w = tmp(&format!("damaged-{}.wal", name));
    std::fs::write(&w, bytes).unwrap();
    let scan = Wal::scan(&w);
    let attached = Wal::attach(&w, WalOptions::default(), 0);
    if let Ok((_, rec)) = &attached {
        let n = rec.transactions.len();
        if n > want.len() || rec.transactions[..] != want[..n] {
            return Err(format!("recovered {} transactions, not a clean prefix", n));
        }
    }
    drop(attached);
    const HEADER: usize = 18; // magic + u64 generation
    if let Ok(scan) = scan {
        let len = std::fs::metadata(&w).unwrap().len();
        if bytes.len() >= HEADER && len != scan.committed_bytes {
            return Err(format!(
                "truncated to {} bytes, scan said {}",
                len, scan.committed_bytes
            ));
        }
    }
    fresh(&w);
    Ok(())
}

/// Damage `log` every way a crash or bad sector can: cut at every length,
/// flip every byte.
fn sweep_damage(name: &str, log: &Path) {
    let clean = std::fs::read(log).unwrap();
    let want = {
        let copy = tmp(&format!("damaged-{}-clean.wal", name));
        std::fs::write(&copy, &clean).unwrap();
        let (_, rec) = sorete::reldb::Wal::attach(&copy, WalOptions::default(), 0).unwrap();
        fresh(&copy);
        rec.transactions
    };
    assert!(want.len() >= 8, "{}: {} transactions", name, want.len());
    for cut in 0..=clean.len() {
        recover_damaged(name, &clean[..cut], &want)
            .unwrap_or_else(|e| panic!("{}: cut at {}: {}", name, cut, e));
    }
    for at in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[at] ^= 0xFF;
        recover_damaged(name, &bytes, &want)
            .unwrap_or_else(|e| panic!("{}: byte {} flipped: {}", name, at, e));
    }
}

#[test]
fn every_truncation_and_byte_flip_recovers_a_prefix_of_whole_transactions() {
    // The engine: API asserts, an assert retracted again, then firings
    // committed under cycle markers.
    let wal = tmp("damage-engine.wal");
    fresh(&wal);
    {
        let (mut ps, _) = start_engine(&wal);
        seed_engine(&mut ps).unwrap();
        let extra = ps.make_str("done", &[("total", Value::Int(0))]).unwrap();
        ps.retract_wme(extra).unwrap();
        assert_eq!(ps.run(Some(100)).reason, StopReason::Halt);
    }
    sweep_damage("engine", &wal);
    fresh(&wal);
    // DIPS: API inserts and a remove, then set-mode parallel cycles.
    let wal = tmp("damage-dips.wal");
    fresh(&wal);
    {
        let mut e = DipsEngine::new(DipsMode::Set, DIPS_PROG).unwrap();
        e.attach_wal(&wal, WalOptions::default()).unwrap();
        for step in dips_steps() {
            step(&mut e).unwrap();
        }
    }
    sweep_damage("dips", &wal);
    fresh(&wal);
}
