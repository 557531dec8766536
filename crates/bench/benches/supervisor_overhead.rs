//! Supervision-overhead bench: what the supervised runtime costs per
//! recognise–act cycle when nothing goes wrong.
//!
//! The workload is the same WAL'd counting loop as `wal_overhead` at
//! group-commit 8. Three configurations:
//!
//! - `baseline`    — WAL only, no supervision (the PR-5 shape);
//! - `supervised`  — panic fence + retry policy + breakers armed, zero
//!   faults, so the numbers isolate the bookkeeping cost;
//! - `supervised_budgets` — additionally checks soft/hard memory budgets
//!   (a `memory_report()` per firing: maintained counts summed over the
//!   network's nodes, no walk of the live state).
//!
//! A calibration pass writes `BENCH_supervisor.json` (median-of-5 wall
//! micros per configuration plus the overhead percentage against the
//! baseline) for CI to archive; the target is supervised overhead under
//! 5% of the baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sorete_base::Value;
use sorete_core::{
    DegradationPolicy, MatcherKind, ProductionSystem, RecoveryPolicy, StopReason, SupervisorConfig,
};
use sorete_reldb::WalOptions;

const PROGRAM: &str = "(literalize c n)
(literalize lim max)
(p count (c ^n <n>) (lim ^max > <n>) (modify 1 ^n (<n> + 1)))";

const FIRINGS: i64 = 200;
const GROUP_COMMIT: u32 = 8;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Baseline,
    Supervised,
    SupervisedBudgets,
}

fn run(mode: Mode, wal: &std::path::Path) -> ProductionSystem {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(PROGRAM).unwrap();
    let _ = std::fs::remove_file(wal);
    ps.attach_wal(
        wal,
        WalOptions {
            group_commit: GROUP_COMMIT,
        },
    )
    .unwrap();
    if mode != Mode::Baseline {
        ps.set_recovery_policy(RecoveryPolicy::Rollback);
        let mut config = SupervisorConfig::default();
        if mode == Mode::SupervisedBudgets {
            config.degradation = DegradationPolicy {
                soft_bytes: Some(u64::MAX),
                hard_bytes: Some(u64::MAX),
                ..DegradationPolicy::default()
            };
        }
        ps.enable_supervision(config);
    }
    ps.make_str("c", &[("n", Value::Int(0))]).unwrap();
    ps.make_str("lim", &[("max", Value::Int(FIRINGS))]).unwrap();
    let outcome = ps.run(None);
    assert!(matches!(outcome.reason, StopReason::Quiescence));
    assert_eq!(outcome.fired, FIRINGS as u64);
    ps
}

fn wal_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sorete-supervisor-bench-{}-{}.wal",
        tag,
        std::process::id()
    ))
}

fn bench(c: &mut Criterion) {
    write_calibration_json();
    let mut group = c.benchmark_group("supervisor_overhead");
    let path = wal_file("base");
    group.bench_with_input(BenchmarkId::new("baseline", FIRINGS), &(), |b, _| {
        b.iter(|| run(Mode::Baseline, &path))
    });
    let path = wal_file("sup");
    group.bench_with_input(BenchmarkId::new("supervised", FIRINGS), &(), |b, _| {
        b.iter(|| run(Mode::Supervised, &path))
    });
    let path = wal_file("budget");
    group.bench_with_input(
        BenchmarkId::new("supervised_budgets", FIRINGS),
        &(),
        |b, _| b.iter(|| run(Mode::SupervisedBudgets, &path)),
    );
    group.finish();
    for tag in ["base", "sup", "budget"] {
        let _ = std::fs::remove_file(wal_file(tag));
    }
}

/// Median-of-5 wall-clock micros per configuration, plus overhead as a
/// permille of the baseline, written to `BENCH_supervisor.json`.
fn write_calibration_json() {
    let micros = |mode: Mode, tag: &str| -> u64 {
        let path = wal_file(tag);
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            let _ = run(mode, &path);
            samples.push(t0.elapsed().as_micros() as u64);
        }
        let _ = std::fs::remove_file(&path);
        samples.sort_unstable();
        samples[2]
    };
    let base = micros(Mode::Baseline, "calib").max(1);
    let sup = micros(Mode::Supervised, "calib");
    let budget = micros(Mode::SupervisedBudgets, "calib");
    let overhead_pm = |x: u64| (x.saturating_sub(base)) * 1000 / base;
    let json = format!(
        "[\n  {{\"config\": \"baseline\", \"firings\": {f}, \"group_commit\": {g}, \
         \"micros\": {base}, \"overhead_permille\": 0}},\n  \
         {{\"config\": \"supervised\", \"firings\": {f}, \"group_commit\": {g}, \
         \"micros\": {sup}, \"overhead_permille\": {op}}},\n  \
         {{\"config\": \"supervised_budgets\", \"firings\": {f}, \"group_commit\": {g}, \
         \"micros\": {budget}, \"overhead_permille\": {ob}}}\n]\n",
        f = FIRINGS,
        g = GROUP_COMMIT,
        op = overhead_pm(sup),
        ob = overhead_pm(budget),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_supervisor.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("(wrote BENCH_supervisor.json)"),
        Err(e) => println!("(could not write BENCH_supervisor.json: {})", e),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
