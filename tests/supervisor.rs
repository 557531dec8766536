//! Supervised-runtime integration tests: panic isolation, per-rule
//! circuit breakers, transient-I/O retry, budget-driven degradation, and
//! the process-level crash monkey.
//!
//! The in-process tests drive the same counter workload through injected
//! faults; the crash monkey (spawned via `CARGO_BIN_EXE_crash_monkey`)
//! adds real `SIGKILL`s: a child process dies mid-commit and the resumed
//! run must end byte-identical to an uninterrupted oracle.

mod common;

use common::CrashDir;
use proptest::prelude::*;
use sorete::core::{
    Bound, BreakerPolicy, Breakers, FaultPlan, Limits, MatcherKind, OnFailure, ProductionSystem,
    RetryPolicy, RunPolicy, StopReason,
};
use sorete::reldb::{IoFaultKind, IoFaultPlan, WalOptions};
use sorete_base::Symbol;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sorete-supervisor-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{}", name, std::process::id()))
}

/// Counter to 10: one modify per firing, quiescence at the end.
const COUNT_PROG: &str = "
    (literalize counter n)
    (p bump
      (counter ^n <x> < 10)
      -->
      (modify 1 ^n (compute <x> + 1)))
";

/// Counter plus a rule whose RHS always fails (division by zero) once the
/// counter reaches 5 — deterministic fodder for the circuit breaker.
const POISON_PROG: &str = "
    (literalize counter n)
    (p bump
      (counter ^n <x> < 5)
      -->
      (modify 1 ^n (compute <x> + 1)))
    (p poison
      (counter ^n {<x> 5})
      -->
      (modify 1 ^n (compute <x> / 0)))
";

fn counting_system(matcher: MatcherKind, prog: &str, crash: &CrashDir) -> ProductionSystem {
    let mut ps = ProductionSystem::new(matcher);
    ps.set_crash_dir(crash.path());
    ps.load_program(prog).unwrap();
    ps.assert_wme(
        Symbol::new("counter"),
        vec![(Symbol::new("n"), sorete_base::Value::Int(0))],
    )
    .unwrap();
    ps
}

fn counter_value(ps: &ProductionSystem) -> Option<sorete_base::Value> {
    ps.wm()
        .iter()
        .find(|w| w.class == Symbol::new("counter"))
        .map(|w| w.get(Symbol::new("n")))
}

// ---------------------------------------------------------------------------
// Panic isolation

#[test]
fn unsupervised_panic_surfaces_as_a_structured_stop_reason() {
    let crash = CrashDir::new("unsupervised-panic");
    let mut ps = counting_system(MatcherKind::Rete, COUNT_PROG, &crash);
    ps.inject_fault(FaultPlan::nth(4).panicking());
    let outcome = ps.run(Some(100));
    match &outcome.reason {
        StopReason::Panicked { rule, message } => {
            assert_eq!(*rule, Symbol::new("bump"));
            assert!(message.contains("injected panic"), "{}", message);
        }
        other => panic!("expected Panicked, got {:?}", other),
    }
    // The fence caught the unwind: the engine is still usable.
    assert!(counter_value(&ps).is_some());
}

#[test]
fn supervised_panic_rolls_back_and_the_run_completes() {
    let crash = CrashDir::new("supervised-panic");
    let mut ps = counting_system(MatcherKind::Rete, COUNT_PROG, &crash);
    ps.set_run_policy(RunPolicy::supervised());
    ps.inject_fault(FaultPlan::nth(4).panicking());
    let outcome = ps.run(Some(100));
    assert_eq!(outcome.reason, StopReason::Quiescence, "panic was isolated");
    assert_eq!(counter_value(&ps), Some(sorete_base::Value::Int(10)));
    let sup = ps.supervisor_stats();
    assert_eq!(sup.panics_caught, 1);
    assert_eq!(sup.quarantines, 0, "a single panic is below the breaker");
    assert!(ps.quarantined_rules().is_empty());
}

// ---------------------------------------------------------------------------
// Circuit breakers / quarantine

#[test]
fn repeated_failures_quarantine_the_rule_on_every_matcher() {
    for matcher in [
        MatcherKind::Rete,
        MatcherKind::ReteScan,
        MatcherKind::Treat,
        MatcherKind::Naive,
    ] {
        let crash = CrashDir::new("quarantine");
        let mut ps = counting_system(matcher, POISON_PROG, &crash);
        ps.set_run_policy(RunPolicy {
            on_failure: OnFailure::Quarantine(BreakerPolicy {
                max_failures: 2,
                window_cycles: 20,
            }),
            ..RunPolicy::supervised()
        });
        let outcome = ps.run(Some(100));
        assert_eq!(
            outcome.reason,
            StopReason::Quarantined {
                rules: vec![Symbol::new("poison")]
            },
            "{:?}: the stalled run names its quarantined rules",
            matcher
        );
        assert_eq!(outcome.fired, 5, "{:?}: the 5 good firings stand", matcher);
        assert_eq!(ps.supervisor_stats().quarantines, 1, "{:?}", matcher);
        assert_eq!(
            ps.stats().rolled_back,
            2,
            "{:?}: both failures undone",
            matcher
        );
        // The failed firings rolled back completely: the counter still
        // holds the last good value.
        assert_eq!(counter_value(&ps), Some(sorete_base::Value::Int(5)));

        // Retraction-side regression: a quarantined rule's conflict-set
        // entries are excised from *selection*, not from the matcher, so
        // retracting the WME under them must cleanly drain the entries in
        // every matcher (no stale tokens, no phantom re-fire).
        let tag = ps
            .wm()
            .iter()
            .find(|w| w.class == Symbol::new("counter"))
            .map(|w| w.tag)
            .unwrap();
        ps.retract_wme(tag).unwrap();
        assert!(
            ps.conflict_items().is_empty(),
            "{:?}: retraction drained the quarantined entries",
            matcher
        );
        let after = ps.run(Some(10));
        assert_eq!(
            after.reason,
            StopReason::Quiescence,
            "{:?}: nothing quarantined remains fireable",
            matcher
        );
    }
}

#[test]
fn readmitted_rule_fails_again_and_requarantines() {
    let crash = CrashDir::new("requarantine");
    let mut ps = counting_system(MatcherKind::Rete, POISON_PROG, &crash);
    ps.set_run_policy(RunPolicy {
        on_failure: OnFailure::Quarantine(BreakerPolicy {
            max_failures: 2,
            window_cycles: 20,
        }),
        ..RunPolicy::supervised()
    });
    assert!(matches!(
        ps.run(Some(100)).reason,
        StopReason::Quarantined { .. }
    ));
    assert!(ps.readmit_rule("poison").unwrap());
    assert!(ps.quarantined_rules().is_empty());
    // Still broken: the breaker trips again on the fresh failures.
    assert!(matches!(
        ps.run(Some(100)).reason,
        StopReason::Quarantined { .. }
    ));
    let sup = ps.supervisor_stats();
    assert_eq!(sup.quarantines, 2);
    assert_eq!(sup.readmissions, 1);
}

// ---------------------------------------------------------------------------
// Transient durable-I/O retry

#[test]
fn transient_wal_faults_heal_under_retry() {
    let wal = tmp("transient-heal.wal");
    let _ = std::fs::remove_file(&wal);
    // Attach the WAL *before* seeding so the seed assert is logged too —
    // the fresh-replay check at the end needs the full lineage.
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(COUNT_PROG).unwrap();
    ps.attach_wal(&wal, WalOptions::default()).unwrap();
    ps.assert_wme(
        Symbol::new("counter"),
        vec![(Symbol::new("n"), sorete_base::Value::Int(0))],
    )
    .unwrap();
    ps.set_run_policy(RunPolicy::supervised());
    // Two consecutive append failures starting at record 6: within the
    // default 4-attempt budget, so the run must heal without poisoning.
    assert!(ps.inject_wal_fault(IoFaultPlan::nth(IoFaultKind::Transient { fail_n: 2 }, 6)));
    let outcome = ps.run(Some(100));
    assert_eq!(outcome.reason, StopReason::Quiescence);
    assert_eq!(counter_value(&ps), Some(sorete_base::Value::Int(10)));
    let sup = ps.supervisor_stats();
    assert!(sup.io_retries >= 1, "retries recorded: {:?}", sup);
    let ws = ps.wal_stats().unwrap();
    assert!(ws.transient_errors >= 2, "{:?}", ws);

    // The healed log replays to the same final state — which also proves
    // the transient faults never poisoned it.
    let mut back = ProductionSystem::new(MatcherKind::Rete);
    back.load_program(COUNT_PROG).unwrap();
    back.attach_wal(&wal, WalOptions::default()).unwrap();
    assert_eq!(counter_value(&back), Some(sorete_base::Value::Int(10)));
}

#[test]
fn retry_exhaustion_surfaces_a_durability_error_without_quarantine() {
    let wal = tmp("transient-exhaust.wal");
    let _ = std::fs::remove_file(&wal);
    let crash = CrashDir::new("retry-exhaustion");
    let mut ps = counting_system(MatcherKind::Rete, COUNT_PROG, &crash);
    ps.attach_wal(&wal, WalOptions::default()).unwrap();
    ps.set_run_policy(RunPolicy {
        retry: Some(RetryPolicy {
            max_attempts: 2,
            base_micros: 10,
            cap_micros: 50,
            ..RetryPolicy::default()
        }),
        ..RunPolicy::supervised()
    });
    // More failures than the whole retry budget can absorb.
    assert!(ps.inject_wal_fault(IoFaultPlan::nth(IoFaultKind::Transient { fail_n: 50 }, 4)));
    let outcome = ps.run(Some(100));
    assert!(
        matches!(
            &outcome.reason,
            StopReason::Error(sorete::core::CoreError::Durability(_))
        ),
        "exhausted retries stop the run: {:?}",
        outcome.reason
    );
    // Durability failures never feed the per-rule breakers.
    assert_eq!(ps.supervisor_stats().quarantines, 0);
    assert!(ps.quarantined_rules().is_empty());
}

// ---------------------------------------------------------------------------
// Budget-driven degradation

#[test]
fn soft_memory_budget_checkpoints_once_and_continues() {
    let ckpt = tmp("soft-degrade.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let crash = CrashDir::new("soft-budget");
    let mut ps = counting_system(MatcherKind::Rete, COUNT_PROG, &crash);
    ps.set_run_policy(RunPolicy {
        limits: Limits {
            bytes: Bound {
                soft: Some(1), // trips immediately
                ..Bound::default()
            },
            ..Limits::default()
        },
        checkpoint: Some(ckpt.clone()),
        ..RunPolicy::supervised()
    });
    let outcome = ps.run(Some(100));
    assert_eq!(outcome.reason, StopReason::Quiescence, "soft never stops");
    assert_eq!(counter_value(&ps), Some(sorete_base::Value::Int(10)));
    assert_eq!(ps.supervisor_stats().soft_degrades, 1, "warns exactly once");
    assert!(ckpt.exists(), "the soft trip cut a checkpoint");
}

#[test]
fn hard_memory_budget_halts_orderly_and_resume_continues() {
    let ckpt = tmp("hard-degrade.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let crash = CrashDir::new("hard-budget");
    let mut ps = counting_system(MatcherKind::Rete, COUNT_PROG, &crash);
    ps.set_run_policy(RunPolicy {
        limits: Limits {
            bytes: Bound {
                hard: Some(1), // trips after the first firing
                ..Bound::default()
            },
            ..Limits::default()
        },
        checkpoint: Some(ckpt.clone()),
        ..RunPolicy::supervised()
    });
    let outcome = ps.run(Some(100));
    assert!(
        matches!(outcome.reason, StopReason::ResourceExhausted(_)),
        "{:?}",
        outcome.reason
    );
    assert_eq!(ps.supervisor_stats().hard_degrades, 1);
    assert!(ckpt.exists(), "the hard halt cut a checkpoint first");

    // The orderly halt is resumable: a fresh engine (no budgets) picks up
    // from the checkpoint and finishes the job.
    let mut back = ProductionSystem::new(MatcherKind::Rete);
    back.load_program(COUNT_PROG).unwrap();
    back.resume_from_file(&ckpt).unwrap();
    let done = back.run(Some(100));
    assert_eq!(done.reason, StopReason::Quiescence);
    assert_eq!(counter_value(&back), Some(sorete_base::Value::Int(10)));
}

// ---------------------------------------------------------------------------
// Determinism properties (seeded)

proptest! {
    /// The jittered backoff schedule is a pure function of the policy: the
    /// same seed yields the same schedule, every delay respects the
    /// half-to-full band, and the cap binds.
    #[test]
    fn backoff_schedule_is_deterministic_and_banded(
        seed in any::<u64>(),
        max_attempts in 1u32..9,
    ) {
        let rp = RetryPolicy { seed, max_attempts, ..RetryPolicy::default() };
        let a = rp.schedule();
        let b = rp.schedule();
        prop_assert_eq!(&a, &b, "same policy, same schedule");
        prop_assert_eq!(a.len(), max_attempts as usize);
        let cap = rp.cap_micros.max(rp.base_micros);
        for (i, &d) in a.iter().enumerate() {
            let attempt = (i + 1) as u32;
            let exp = (attempt - 1).min(20);
            let raw = rp.base_micros.saturating_mul(1 << exp).min(cap);
            prop_assert!(d >= raw / 2 && d <= raw, "attempt {}: {} outside [{}, {}]", attempt, d, raw / 2, raw);
        }
    }

    /// Breaker transitions are a pure function of the failure-cycle
    /// sequence: two supervisors fed the same failures trip identically,
    /// and a trip needs `max_failures` failures inside the window.
    #[test]
    fn breaker_transitions_are_deterministic(
        strides in proptest::collection::vec(0u64..30, 1..20),
        max_failures in 1u32..5,
        window in 1u64..40,
    ) {
        let policy = BreakerPolicy { max_failures, window_cycles: window };
        let mut a = Breakers::default();
        let mut b = Breakers::default();
        let rule = Symbol::new("r");
        let mut cycle = 0u64;
        let mut tripped_at: Option<usize> = None;
        for (i, stride) in strides.iter().enumerate() {
            cycle += stride;
            let ra = a.record_failure(policy, rule, cycle);
            let rb = b.record_failure(policy, rule, cycle);
            prop_assert_eq!(ra, rb, "divergent transition at step {}", i);
            prop_assert_eq!(a.is_tripped(rule), b.is_tripped(rule));
            if ra.is_some() && tripped_at.is_none() {
                tripped_at = Some(i);
                prop_assert!(
                    (i + 1) as u32 >= max_failures,
                    "tripped after {} failures with threshold {}",
                    i + 1,
                    max_failures
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The crash monkey, for real

#[test]
fn crash_monkey_kill_resume_matches_oracle() {
    let dir = std::env::temp_dir().join(format!("sorete-monkey-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for seed in 1u64..=3 {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_crash_monkey"))
            .arg(&dir)
            .arg(seed.to_string())
            .args(["2", "80"]) // 2 kills over an 80-cycle run
            .output()
            .expect("crash_monkey runs");
        assert!(
            out.status.success(),
            "seed {}: {}\n{}",
            seed,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("ok (state identical"), "{}", stdout);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Crash bundles at the process boundary: every abnormal exit leaves a
// black box, the typed exit code still tells the tier, and the recovery
// summary of the *next* run points back at the bundle.

fn sorete_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sorete")
}

/// Counter-to-poison fixture on disk for spawning the real binary.
fn poison_fixture(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let prog = dir.join("poison.ops");
    let wm = dir.join("poison.wm");
    std::fs::write(
        &prog,
        "(literalize counter n)
         (p bump
           (counter ^n <x> < 5)
           -->
           (modify 1 ^n (compute <x> + 1)))
         (p poison
           (counter ^n {<x> 5})
           -->
           (modify 1 ^n (compute <x> / 0)))
        ",
    )
    .unwrap();
    std::fs::write(&wm, "(counter ^n 0)\n").unwrap();
    (prog, wm)
}

#[test]
fn abnormal_exit_has_typed_code_and_bundle_path_in_stderr() {
    let dir = std::env::temp_dir().join(format!("sorete-sup-bundle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (prog, wm) = poison_fixture(&dir);

    // Exit 3 (run error), and the error line names the bundle.
    let out = std::process::Command::new(sorete_bin())
        .args(["--crash-dir"])
        .arg(&dir)
        .args(["--wm"])
        .arg(&wm)
        .arg(&prog)
        .output()
        .expect("sorete runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let bundle_path = stderr
        .lines()
        .find_map(|l| l.split("crash bundle: ").nth(1))
        .unwrap_or_else(|| panic!("no bundle path in stderr: {}", stderr))
        .trim()
        .to_string();
    assert!(
        std::path::Path::new(&bundle_path).join("MANIFEST").exists(),
        "{}",
        bundle_path
    );

    // The offline inspector parses what the dying process wrote.
    let out = std::process::Command::new(sorete_bin())
        .args(["debug", &bundle_path])
        .output()
        .expect("sorete debug runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crash bundle OK: stop=error"), "{}", stdout);
    assert!(stdout.contains("poison"), "{}", stdout);

    // Exit 6 (quarantine-stalled) is also abnormal and also bundles.
    let out = std::process::Command::new(sorete_bin())
        .args(["--supervise", "--quarantine-after", "1", "--crash-dir"])
        .arg(&dir)
        .args(["--wm"])
        .arg(&wm)
        .arg(&prog)
        .output()
        .expect("sorete runs");
    assert_eq!(
        out.status.code(),
        Some(6),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("crash bundle: "), "{}", stderr);

    // Flight recorder off: same exit code, no bundle note.
    let out = std::process::Command::new(sorete_bin())
        .args(["--flight-recorder", "off", "--crash-dir"])
        .arg(&dir)
        .args(["--wm"])
        .arg(&wm)
        .arg(&prog)
        .output()
        .expect("sorete runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("crash bundle: "),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_summary_names_the_previous_runs_bundle() {
    let dir = std::env::temp_dir().join(format!("sorete-sup-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (prog, wm) = poison_fixture(&dir);
    let wal = dir.join("run.wal");

    // First run dies abnormally next to its WAL — bundle lands in the
    // WAL's directory by default, no --crash-dir needed.
    let out = std::process::Command::new(sorete_bin())
        .args(["--wal"])
        .arg(&wal)
        .args(["--wm"])
        .arg(&wm)
        .arg(&prog)
        .output()
        .expect("sorete runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("crash bundle: "),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The restart's recovery summary points at that bundle.
    let out = std::process::Command::new(sorete_bin())
        .args(["--wal"])
        .arg(&wal)
        .arg(&prog)
        .output()
        .expect("sorete runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let recovery = stderr
        .lines()
        .find(|l| l.starts_with("; recovery: "))
        .unwrap_or_else(|| panic!("no recovery line: {}", stderr));
    assert!(
        recovery.contains("crash_bundle="),
        "recovery line lacks the bundle: {}",
        recovery
    );
    assert!(recovery.contains("sorete-crash-"), "{}", recovery);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_monkey_bundle_leg_validates_the_black_box() {
    let dir = std::env::temp_dir().join(format!("sorete-monkey-bundle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_crash_monkey"))
        .arg("--bundle")
        .arg(&dir)
        .output()
        .expect("crash_monkey runs");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bundle ok: "), "{}", stdout);
    // The advertised path parses with `sorete debug`.
    let listed = std::fs::read_to_string(dir.join("bundle-path")).unwrap();
    let out = std::process::Command::new(sorete_bin())
        .args(["debug", listed.trim(), "timeline"])
        .output()
        .expect("sorete debug runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("stop=panicked"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The policy table: every failure under every recovery policy, supervised
// and not, plus one case per limit. Each case pins the stop reason, the
// completed firings, the supervisor counters and the ordered policy
// events, so a change to how the engine decides to stop or continue shows
// up as a changed row.

#[derive(Clone, Copy, Debug)]
enum Recovery {
    Abort,
    Skip,
    Rollback,
}

#[derive(Clone, Copy, Debug)]
enum Failure {
    /// `poison` divides by zero, once per `item` (four instantiations).
    RhsError,
    /// The fifth RHS action panics, once.
    Panic,
    /// Two consecutive clean WAL append failures, then the log heals.
    TransientWal,
    /// A short write: the log poisons itself and refuses every later commit.
    PoisonedWal,
}

#[derive(Clone, Copy, Debug)]
enum LimitRow {
    Wall,
    WmSize,
    Stagnation,
    HardBytes,
    SoftBytes,
    SoftWall,
    FiringLimit,
    Interrupt,
}

/// Counter to 5, then `poison` fails on each of four items.
const ITEMS_POISON_PROG: &str = "
    (literalize counter n)
    (literalize item id)
    (p bump
      (counter ^n <x> < 5)
      -->
      (modify 1 ^n (compute <x> + 1)))
    (p poison
      (counter ^n 5)
      (item ^id <i>)
      -->
      (modify 1 ^n (compute <i> / 0)))
";

/// Counter to 10, one new WME per firing.
const GROW_PROG: &str = "
    (literalize counter n)
    (literalize item id)
    (p grow
      (counter ^n <x> < 10)
      -->
      (make item ^id <x>)
      (modify 1 ^n (compute <x> + 1)))
";

/// Install the failure policy of a table row. The table's one call site
/// of the policy API.
fn install_failure_policy(ps: &mut ProductionSystem, recovery: Recovery, supervised: bool) {
    let on_failure = match recovery {
        Recovery::Abort => OnFailure::Abort,
        Recovery::Skip => OnFailure::Skip,
        Recovery::Rollback => OnFailure::Rollback,
    };
    ps.set_run_policy(if supervised {
        // Supervision brings breakers where the mode rolls back; under
        // abort only the I/O retry (the CLI's `--hard-mem --recovery abort`).
        RunPolicy {
            on_failure: on_failure
                .with_breakers(BreakerPolicy::default())
                .unwrap_or(on_failure),
            ..RunPolicy::supervised()
        }
    } else {
        RunPolicy {
            on_failure,
            ..RunPolicy::default()
        }
    });
}

/// Install one limit (and, for the supervised rows, the checkpoint path
/// orderly halts write to). Returns the firing limit to run with.
fn install_limit(
    ps: &mut ProductionSystem,
    limit: LimitRow,
    ckpt: &std::path::Path,
) -> Option<u64> {
    let zero = Some(std::time::Duration::ZERO);
    let supervised = |limits: Limits| RunPolicy {
        limits,
        checkpoint: Some(ckpt.to_path_buf()),
        ..RunPolicy::supervised()
    };
    let unsupervised = |limits: Limits| RunPolicy {
        limits,
        ..RunPolicy::default()
    };
    let policy = match limit {
        LimitRow::Wall => unsupervised(Limits {
            wall: Bound {
                hard: zero,
                soft: None,
            },
            ..Limits::default()
        }),
        LimitRow::WmSize => supervised(Limits {
            wm: Some(4),
            ..Limits::default()
        }),
        LimitRow::Stagnation => unsupervised(Limits {
            stagnant: Some(3),
            ..Limits::default()
        }),
        LimitRow::HardBytes => supervised(Limits {
            bytes: Bound {
                hard: Some(1),
                soft: None,
            },
            ..Limits::default()
        }),
        LimitRow::SoftBytes => supervised(Limits {
            bytes: Bound {
                soft: Some(1),
                hard: None,
            },
            ..Limits::default()
        }),
        LimitRow::SoftWall => supervised(Limits {
            wall: Bound {
                soft: zero,
                hard: None,
            },
            ..Limits::default()
        }),
        LimitRow::FiringLimit => return Some(3),
        LimitRow::Interrupt => {
            ps.set_interrupt(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
                true,
            )));
            supervised(Limits::default())
        }
    };
    ps.set_run_policy(policy);
    Some(100)
}

/// The policy events of a run, in order, without their timing details.
fn policy_events(events: &[sorete_base::TraceEvent]) -> Vec<String> {
    use sorete_base::TraceEvent as E;
    events
        .iter()
        .filter_map(|e| match e {
            E::GuardTrip { reason } => Some(format!("guard: {}", reason)),
            E::Degrade {
                severity, budget, ..
            } => Some(format!("degrade {} {}", severity, budget)),
            E::Quarantine { rule, failures } => Some(format!("quarantine {} {}", rule, failures)),
            E::IoRetry { attempt, .. } => Some(format!("io_retry {}", attempt)),
            E::Readmit { rule } => Some(format!("readmit {}", rule)),
            E::PanicCaught { rule, .. } => Some(format!("panic {}", rule)),
            E::Rollback { rule, .. } => Some(format!("rollback {}", rule)),
            _ => None,
        })
        .collect()
}

/// What a table row pins: stop label, completed firings, the supervisor
/// counters `[panics_caught, io_retries, quarantines, readmissions,
/// soft_degrades, hard_degrades]` and the policy events.
type Pinned = (&'static str, u64, [u64; 6], Vec<String>);

fn counters(ps: &ProductionSystem) -> [u64; 6] {
    let s = ps.supervisor_stats();
    [
        s.panics_caught,
        s.io_retries,
        s.quarantines,
        s.readmissions,
        s.soft_degrades,
        s.hard_degrades,
    ]
}

fn collect_events(
    ps: &mut ProductionSystem,
) -> std::sync::Arc<std::sync::Mutex<sorete_base::CollectSink>> {
    let sink = std::sync::Arc::new(std::sync::Mutex::new(sorete_base::CollectSink::new()));
    ps.add_trace_sink(sink.clone());
    sink
}

/// One failure row: run the workload, then readmit the failing rule (a
/// no-op unless its breaker tripped).
fn run_failure_case(recovery: Recovery, supervised: bool, failure: Failure) -> Pinned {
    let crash = CrashDir::new("policy-table");
    let prog = match failure {
        Failure::RhsError => ITEMS_POISON_PROG,
        _ => COUNT_PROG,
    };
    let mut ps = counting_system(MatcherKind::Rete, prog, &crash);
    if let Failure::RhsError = failure {
        for id in 1..=4 {
            ps.assert_wme(
                Symbol::new("item"),
                vec![(Symbol::new("id"), sorete_base::Value::Int(id))],
            )
            .unwrap();
        }
    }
    let wal = tmp(&format!(
        "policy-{:?}-{:?}-{}.wal",
        recovery, failure, supervised
    ));
    let _ = std::fs::remove_file(&wal);
    match failure {
        Failure::RhsError => {}
        Failure::Panic => ps.inject_fault(FaultPlan::nth(4).panicking()),
        Failure::TransientWal | Failure::PoisonedWal => {
            ps.attach_wal(&wal, WalOptions::default()).unwrap();
            let kind = match failure {
                Failure::TransientWal => IoFaultKind::Transient { fail_n: 2 },
                _ => IoFaultKind::ShortWrite,
            };
            // Record 2 is the third firing's: one record per firing.
            assert!(ps.inject_wal_fault(IoFaultPlan::nth(kind, 2)));
        }
    }
    install_failure_policy(&mut ps, recovery, supervised);
    let sink = collect_events(&mut ps);
    let outcome = ps.run(Some(100));
    let rule = match failure {
        Failure::RhsError => "poison",
        _ => "bump",
    };
    ps.readmit_rule(rule).unwrap();
    let events = policy_events(sink.lock().unwrap().events());
    let _ = std::fs::remove_file(&wal);
    (outcome.reason.label(), outcome.fired, counters(&ps), events)
}

fn run_limit_case(limit: LimitRow) -> (Pinned, bool) {
    let crash = CrashDir::new("policy-limit");
    let prog = match limit {
        LimitRow::WmSize => GROW_PROG,
        _ => COUNT_PROG,
    };
    let mut ps = counting_system(MatcherKind::Rete, prog, &crash);
    let ckpt = tmp(&format!("policy-{:?}.ckpt", limit));
    let _ = std::fs::remove_file(&ckpt);
    let run_limit = install_limit(&mut ps, limit, &ckpt);
    let sink = collect_events(&mut ps);
    let outcome = ps.run(run_limit);
    let events = policy_events(sink.lock().unwrap().events());
    let checkpointed = ckpt.exists();
    let _ = std::fs::remove_file(&ckpt);
    (
        (outcome.reason.label(), outcome.fired, counters(&ps), events),
        checkpointed,
    )
}

fn ev(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn policy_table_failures() {
    use Failure::*;
    use Recovery::*;
    let rows: Vec<(Recovery, bool, Failure, Pinned)> = vec![
        (Abort, false, RhsError, ("error", 5, [0; 6], ev(&[]))),
        (
            Abort,
            false,
            Panic,
            ("panicked", 4, [0; 6], ev(&["panic bump"])),
        ),
        (Abort, false, TransientWal, ("error", 2, [0; 6], ev(&[]))),
        (Abort, false, PoisonedWal, ("error", 2, [0; 6], ev(&[]))),
        (Abort, true, RhsError, ("error", 5, [0; 6], ev(&[]))),
        (
            Abort,
            true,
            Panic,
            ("panicked", 4, [1, 0, 0, 0, 0, 0], ev(&["panic bump"])),
        ),
        (
            Abort,
            true,
            TransientWal,
            (
                "quiescence",
                10,
                [0, 2, 0, 0, 0, 0],
                ev(&["io_retry 1", "io_retry 2"]),
            ),
        ),
        (Abort, true, PoisonedWal, ("error", 2, [0; 6], ev(&[]))),
        (
            Skip,
            false,
            RhsError,
            ("quiescence", 5, [0; 6], ev(&["rollback poison"; 4])),
        ),
        (
            Skip,
            false,
            Panic,
            (
                "quiescence",
                4,
                [0; 6],
                ev(&["panic bump", "rollback bump"]),
            ),
        ),
        (
            Skip,
            false,
            TransientWal,
            ("quiescence", 2, [0; 6], ev(&["rollback bump"])),
        ),
        (
            Skip,
            false,
            PoisonedWal,
            ("quiescence", 2, [0; 6], ev(&["rollback bump"])),
        ),
        (
            Skip,
            true,
            RhsError,
            (
                "quarantined",
                5,
                [0, 0, 1, 1, 0, 0],
                ev(&[
                    "rollback poison",
                    "rollback poison",
                    "rollback poison",
                    "quarantine poison 3",
                    "readmit poison",
                ]),
            ),
        ),
        (
            Skip,
            true,
            Panic,
            (
                "quiescence",
                4,
                [1, 0, 0, 0, 0, 0],
                ev(&["panic bump", "rollback bump"]),
            ),
        ),
        (
            Skip,
            true,
            TransientWal,
            (
                "quiescence",
                10,
                [0, 2, 0, 0, 0, 0],
                ev(&["io_retry 1", "io_retry 2"]),
            ),
        ),
        (
            Skip,
            true,
            PoisonedWal,
            ("quiescence", 2, [0; 6], ev(&["rollback bump"])),
        ),
        (
            Rollback,
            false,
            RhsError,
            ("error", 5, [0; 6], ev(&["rollback poison"])),
        ),
        (
            Rollback,
            false,
            Panic,
            ("panicked", 4, [0; 6], ev(&["panic bump", "rollback bump"])),
        ),
        (
            Rollback,
            false,
            TransientWal,
            ("error", 2, [0; 6], ev(&["rollback bump"])),
        ),
        (
            Rollback,
            false,
            PoisonedWal,
            ("error", 2, [0; 6], ev(&["rollback bump"])),
        ),
        (
            Rollback,
            true,
            RhsError,
            (
                "quarantined",
                5,
                [0, 0, 1, 1, 0, 0],
                ev(&[
                    "rollback poison",
                    "rollback poison",
                    "rollback poison",
                    "quarantine poison 3",
                    "readmit poison",
                ]),
            ),
        ),
        (
            Rollback,
            true,
            Panic,
            (
                "quiescence",
                10,
                [1, 0, 0, 0, 0, 0],
                ev(&["panic bump", "rollback bump"]),
            ),
        ),
        (
            Rollback,
            true,
            TransientWal,
            (
                "quiescence",
                10,
                [0, 2, 0, 0, 0, 0],
                ev(&["io_retry 1", "io_retry 2"]),
            ),
        ),
        (
            Rollback,
            true,
            PoisonedWal,
            ("error", 2, [0; 6], ev(&["rollback bump"])),
        ),
    ];
    for (recovery, supervised, failure, want) in rows {
        let got = run_failure_case(recovery, supervised, failure);
        assert_eq!(
            got, want,
            "{:?} supervised={} {:?}",
            recovery, supervised, failure
        );
    }
}

#[test]
fn policy_table_limits() {
    use LimitRow::*;
    let rows: Vec<(LimitRow, Pinned, bool)> = vec![
        (
            Wall,
            (
                "resource-exhausted",
                0,
                [0; 6],
                ev(&["guard: wall-clock limit 0ns exceeded"]),
            ),
            false,
        ),
        (
            WmSize,
            (
                "resource-exhausted",
                4,
                [0; 6],
                ev(&["guard: working memory grew to 5 WMEs (limit 4)"]),
            ),
            true,
        ),
        (
            Stagnation,
            (
                "resource-exhausted",
                4,
                [0; 6],
                ev(&["guard: rule bump fired 3 times without WM progress"]),
            ),
            false,
        ),
        (
            HardBytes,
            (
                "resource-exhausted",
                0,
                [0, 0, 0, 0, 0, 1],
                ev(&[
                    "degrade hard memory_bytes",
                    "guard: matcher memory grew to 416 bytes (hard budget 1)",
                ]),
            ),
            true,
        ),
        (
            SoftBytes,
            (
                "quiescence",
                10,
                [0, 0, 0, 0, 1, 0],
                ev(&["degrade soft memory_bytes"]),
            ),
            true,
        ),
        (
            SoftWall,
            (
                "quiescence",
                10,
                [0, 0, 0, 0, 1, 0],
                ev(&["degrade soft wall_clock"]),
            ),
            true,
        ),
        (FiringLimit, ("limit", 3, [0; 6], ev(&[])), false),
        (Interrupt, ("interrupted", 0, [0; 6], ev(&[])), true),
    ];
    for (limit, want, checkpointed) in rows {
        let got = run_limit_case(limit);
        assert_eq!(got, (want, checkpointed), "{:?}", limit);
    }
}
