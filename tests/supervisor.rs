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
    BreakerPolicy, DegradationPolicy, FaultPlan, MatcherKind, ProductionSystem, RecoveryPolicy,
    RetryPolicy, StopReason, Supervisor, SupervisorConfig,
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
    ps.set_recovery_policy(RecoveryPolicy::Rollback);
    ps.enable_supervision(SupervisorConfig::default());
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
        ps.set_recovery_policy(RecoveryPolicy::Rollback);
        ps.enable_supervision(SupervisorConfig {
            breaker: BreakerPolicy {
                max_failures: 2,
                window_cycles: 20,
            },
            ..SupervisorConfig::default()
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
    ps.set_recovery_policy(RecoveryPolicy::Rollback);
    ps.enable_supervision(SupervisorConfig {
        breaker: BreakerPolicy {
            max_failures: 2,
            window_cycles: 20,
        },
        ..SupervisorConfig::default()
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
    ps.enable_supervision(SupervisorConfig::default());
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
    ps.set_recovery_policy(RecoveryPolicy::Rollback);
    ps.attach_wal(&wal, WalOptions::default()).unwrap();
    ps.enable_supervision(SupervisorConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            base_micros: 10,
            cap_micros: 50,
            ..RetryPolicy::default()
        },
        ..SupervisorConfig::default()
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
    ps.enable_supervision(SupervisorConfig {
        degradation: DegradationPolicy {
            soft_bytes: Some(1), // trips immediately
            ..DegradationPolicy::default()
        },
        checkpoint_path: Some(ckpt.clone()),
        ..SupervisorConfig::default()
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
    ps.enable_supervision(SupervisorConfig {
        degradation: DegradationPolicy {
            hard_bytes: Some(1), // trips after the first firing
            ..DegradationPolicy::default()
        },
        checkpoint_path: Some(ckpt.clone()),
        ..SupervisorConfig::default()
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
        let config = SupervisorConfig {
            breaker: BreakerPolicy { max_failures, window_cycles: window },
            ..SupervisorConfig::default()
        };
        let mut a = Supervisor::new(config.clone());
        let mut b = Supervisor::new(config);
        let rule = Symbol::new("r");
        let mut cycle = 0u64;
        let mut tripped_at: Option<usize> = None;
        for (i, stride) in strides.iter().enumerate() {
            cycle += stride;
            let ra = a.record_failure(rule, cycle);
            let rb = b.record_failure(rule, cycle);
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
