//! Parallel-execution determinism: the partitioned multi-threaded backend
//! must be *bitwise* reproducible. Because the rule→shard assignment is
//! fixed (round-robin over [`sorete::core::PARTITIONS`] shards) and the
//! per-shard delta buffers merge in shard order, the logical delta stream
//! — and therefore every downstream artifact: trace events, conflict-set
//! ordering, firing sequence, checkpoints — is byte-identical at every
//! `--jobs` level. These tests pin that invariant:
//!
//! 1. a seeded proptest drives random op streams through all four matcher
//!    kinds at `jobs ∈ {1, 2, 4}` and demands byte-identical logical
//!    `TraceEvent` JSON and byte-identical final checkpoints;
//! 2. a fixed multi-rule workload checks `--jobs 1..=8` all arrive at the
//!    `--jobs 1` conflict set (same items, same resolution order) and the
//!    same firing sequence;
//! 3. the parallel backend is cross-checked against the monolithic one at
//!    the canonical (order-blind) level, the same standard the PR 3
//!    equivalence suite applies between matcher algorithms;
//! 4. a WM change visits only the shards that hold a rule, and a shard is
//!    seeded when its first rule arrives: the same script run as is and
//!    behind filler rules that make every shard live from the start must
//!    be byte-identical, at every kind × jobs × shard count.

use proptest::prelude::*;
use sorete::core::{MatcherKind, ProductionSystem};
use sorete_base::{TraceEvent, Value};
use std::collections::BTreeSet;

const KINDS: [MatcherKind; 4] = [
    MatcherKind::Rete,
    MatcherKind::ReteScan,
    MatcherKind::Treat,
    MatcherKind::Naive,
];

/// Multi-rule program: several rules spread across shards, a join, a
/// negation, and WM-mutating right-hand sides so firings feed back into
/// the match phase.
const PROGRAM: &str = "(literalize a x y)(literalize b x y)
    (p pair (a ^x <v>) (b ^x <v> ^y <w>) (write pair <v>) (remove 2))
    (p solo (a ^x 3 ^y <w>) (remove 1))
    (p guard (b ^x <v>) -(a ^x <v> ^y <v>) (write g <v>))";

/// One random working-memory operation (same shape as the PR 3
/// equivalence harness).
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

/// Drive one engine through `ops`, running to a small firing limit after
/// each op. Returns the logical event stream (as JSON lines) plus the
/// final checkpoint text.
fn drive(mut ps: ProductionSystem, ops: &[Op]) -> (Vec<String>, String) {
    ps.set_event_log(true);
    ps.load_program(PROGRAM).unwrap();
    let mut live = Vec::new();
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
    let stream = ps
        .trace_events()
        .into_iter()
        .filter(|e| e.is_logical())
        .map(|e| e.to_json())
        .collect();
    (stream, ps.checkpoint_string())
}

fn assert_jobs_equivalent(kind: MatcherKind, ops: &[Op]) {
    let (base_stream, base_ckpt) = drive(ProductionSystem::with_jobs(kind, 1), ops);
    for jobs in [2usize, 4] {
        let (stream, ckpt) = drive(ProductionSystem::with_jobs(kind, jobs), ops);
        assert_eq!(
            stream, base_stream,
            "{:?}: logical stream at jobs={} diverged from jobs=1",
            kind, jobs
        );
        assert_eq!(
            ckpt, base_ckpt,
            "{:?}: checkpoint at jobs={} diverged from jobs=1",
            kind, jobs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: single- vs multi-threaded runs are bitwise
    /// indistinguishable through the logical trace and the checkpoint,
    /// for every matcher kind.
    #[test]
    fn thread_count_never_changes_the_logical_stream(
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        for kind in KINDS {
            assert_jobs_equivalent(kind, &ops);
        }
    }
}

/// Fixed regression inputs for the same invariant (fast, deterministic,
/// no proptest shrinking involved).
#[test]
fn jobs_equivalence_regression() {
    let ops = vec![
        Op::Insert {
            class: 0,
            x: 1,
            y: 1,
        },
        Op::Insert {
            class: 1,
            x: 1,
            y: 2,
        },
        Op::Insert {
            class: 0,
            x: 3,
            y: 0,
        },
        Op::Insert {
            class: 1,
            x: 2,
            y: 2,
        },
        Op::Remove(1),
        Op::Insert {
            class: 0,
            x: 2,
            y: 2,
        },
        Op::Insert {
            class: 1,
            x: 3,
            y: 3,
        },
        Op::Remove(0),
    ];
    for kind in KINDS {
        assert_jobs_equivalent(kind, &ops);
    }
}

/// Load facts without running and compare the *ordered* conflict set at
/// `--jobs 1..=8` against `--jobs 1`, then run and compare the firing
/// sequences. Conflict resolution tie-breaks on delta arrival order, so
/// this catches any jobs-dependent merge nondeterminism directly where it
/// would surface for a user.
#[test]
fn conflict_set_identical_across_jobs_1_to_8() {
    let seed = |ps: &mut ProductionSystem| {
        ps.load_program(PROGRAM).unwrap();
        for i in 0..10i64 {
            ps.make_str(
                if i % 2 == 0 { "a" } else { "b" },
                &[("x", Value::Int(i % 4)), ("y", Value::Int(i % 3))],
            )
            .unwrap();
        }
    };
    let ordered_cs = |ps: &ProductionSystem| -> Vec<String> {
        ps.conflict_items()
            .iter()
            .map(|item| format!("{:?} {:?}", item.key, item.recency))
            .collect()
    };
    for kind in KINDS {
        let mut base = ProductionSystem::with_jobs(kind, 1);
        seed(&mut base);
        let base_cs = ordered_cs(&base);
        assert!(!base_cs.is_empty(), "{:?}: workload must load the CS", kind);
        base.set_event_log(true);
        base.run(None);
        let base_fires: Vec<String> = base
            .trace_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fire { .. }))
            .map(|e| e.to_json())
            .collect();
        for jobs in 2..=8usize {
            let mut ps = ProductionSystem::with_jobs(kind, jobs);
            seed(&mut ps);
            assert_eq!(
                ordered_cs(&ps),
                base_cs,
                "{:?}: conflict set at jobs={} diverged from jobs=1",
                kind,
                jobs
            );
            ps.set_event_log(true);
            ps.run(None);
            let fires: Vec<String> = ps
                .trace_events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Fire { .. }))
                .map(|e| e.to_json())
                .collect();
            assert_eq!(
                fires, base_fires,
                "{:?}: firing sequence at jobs={} diverged from jobs=1",
                kind, jobs
            );
        }
    }
}

/// Canonical (order-blind) cross-check of the parallel wrapper against
/// the monolithic backend: partitioning reorders delta *arrival* but must
/// never change which instantiations exist or what they contain.
#[test]
fn parallel_backend_matches_monolithic_conflict_set() {
    let canon = |ps: &ProductionSystem| -> BTreeSet<String> {
        ps.conflict_items()
            .iter()
            .map(|item| {
                let mut rows: Vec<Vec<u64>> = item
                    .rows
                    .iter()
                    .map(|r| r.iter().map(|t| t.raw()).collect())
                    .collect();
                rows.sort();
                let aggs: Vec<String> = item.aggregates.iter().map(|v| v.to_string()).collect();
                format!("{} {:?} {:?}", item.key.repr(), rows, aggs)
            })
            .collect()
    };
    let seed = |ps: &mut ProductionSystem| {
        ps.load_program(PROGRAM).unwrap();
        for i in 0..12i64 {
            ps.make_str(
                if i % 3 == 0 { "a" } else { "b" },
                &[("x", Value::Int(i % 4)), ("y", Value::Int(i % 5))],
            )
            .unwrap();
        }
    };
    for kind in KINDS {
        let mut mono = ProductionSystem::new(kind);
        let mut par = ProductionSystem::with_jobs(kind, 4);
        seed(&mut mono);
        seed(&mut par);
        assert_eq!(
            canon(&par),
            canon(&mono),
            "{:?}: parallel wrapper diverged from the monolithic backend",
            kind
        );
        mono.run(None);
        par.run(None);
        assert_eq!(
            canon(&par),
            canon(&mono),
            "{:?}: post-run conflict sets diverged",
            kind
        );
    }
}

// ---------------------------------------------------------------------------
// Live shards: lazily seeded ≡ fed all along.

const CLASSES: &str = "(literalize a x y)(literalize b x y)";

/// The real rules, in the chunks they are loaded in. Rule 0 (`pair`) is
/// the one excised. No two rules can tie on LEX (`guard` and `tally` both
/// match `b` but differ in specificity), so the arrival tie-break — the
/// one place monolithic and sharded runs may legitimately differ — never
/// decides a firing and the monolithic cross-check is exact.
const CHUNKS: [&str; 3] = [
    "(p pair (a ^x <v>) (b ^x <v> ^y <w>) (write pair <v>) (remove 2))
     (p solo (a ^x 3 ^y <w>) (remove 1))",
    "(p tally { [b ^x <v> ^y <> 9] <B> } :scalar (<v>) :test ((count <B>) > 2)
        (write tally <v>) (set-remove <B>))",
    "(p guard (b ^x <v>) -(a ^x <v> ^y <v>) (write g <v>))",
];

/// A multiple of every shard count under test: loaded first, the fillers
/// put a rule on every shard and leave real rule `i` on shard `i % shards`,
/// where the bare run puts it. They match nothing.
const FILLERS: usize = 24;

fn fillers() -> String {
    let rule = |i| format!("(p filler-{i} (zz-filler ^n {i}) (halt))");
    (0..FILLERS).map(rule).collect()
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
    fn fires(&self) -> Vec<&String> {
        let is_fire = |l: &&String| l.starts_with("{\"ev\":\"fire\"");
        self.stream.iter().filter(is_fire).collect()
    }

    /// Order-blind view, for comparison against the monolithic backend.
    fn as_sets(&self) -> (BTreeSet<&String>, &[String], &[String]) {
        (self.fires().into_iter().collect(), &self.wm, &self.conflict)
    }
}

fn logical(ps: &ProductionSystem) -> Vec<String> {
    let events = ps.trace_events();
    let logical = events.iter().filter(|e| e.is_logical());
    logical.map(|e| e.to_json()).collect()
}

/// One script: facts before any rule, rules arriving in three
/// `load_program` calls between asserts, retracts and runs, an excise of
/// rule 0, and a checkpoint → resume into a fresh engine in the middle —
/// after which a rule arrives late on the *resumed* engine. `ops` is cut
/// into five equal phases around those events. `make` builds the engine
/// (monolithic or sharded); `eager` loads the fillers first.
fn run_script(make: &dyn Fn() -> ProductionSystem, eager: bool, ops: &[Op]) -> Observed {
    let start = |chunks: usize, excised: bool| -> ProductionSystem {
        let mut ps = make();
        if eager {
            ps.load_program(&fillers()).unwrap();
        }
        ps.set_event_log(true);
        ps.load_program(CLASSES).unwrap();
        for chunk in &CHUNKS[..chunks] {
            ps.load_program(chunk).unwrap();
        }
        if excised {
            ps.excise("pair").unwrap();
        }
        ps
    };
    let mut ps = start(0, false);
    let mut live = Vec::new();
    let mut stream = Vec::new();
    let phase = |k: usize| &ops[ops.len() * k / 5..ops.len() * (k + 1) / 5];
    for k in 0..5 {
        match k {
            1 => ps.load_program(CHUNKS[0]).unwrap(),
            2 => ps.load_program(CHUNKS[1]).unwrap(),
            3 => ps.excise("pair").unwrap(),
            4 => {
                stream.extend(logical(&ps));
                let ckpt = ps.checkpoint_string();
                ps = start(2, true);
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
            ps.validate_matcher().unwrap();
            let _ = ps.run(Some(4));
            ps.validate_matcher().unwrap();
        }
    }
    let _ = ps.run(Some(64));
    ps.validate_matcher().unwrap();
    stream.extend(logical(&ps));
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

/// Byte-identity, reported as the first event where the streams part.
fn assert_same(a: &Observed, b: &Observed, what: &str) {
    let parted =
        (0..a.stream.len().max(b.stream.len())).find(|&i| a.stream.get(i) != b.stream.get(i));
    if let Some(i) = parted {
        let (a, b) = (a.stream.get(i), b.stream.get(i));
        panic!("{what}: streams part at event {i}:\n  {a:?}\n  {b:?}");
    }
    assert_eq!(a.wm, b.wm, "{what}: final WM");
    assert_eq!(a.conflict, b.conflict, "{what}: conflict lines");
}

fn assert_lazy_equals_eager(ops: &[Op]) {
    let mono = run_script(&|| ProductionSystem::new(MatcherKind::Rete), false, ops);
    for kind in KINDS {
        for shards in [1usize, 3, 8] {
            let mut at_jobs_1 = None;
            for jobs in [1usize, 2, 4] {
                let what = format!("{:?} jobs={} shards={}", kind, jobs, shards);
                let make = || ProductionSystem::with_jobs_shards(kind, jobs, shards);
                let lazy = run_script(&make, false, ops);
                let eager = run_script(&make, true, ops);
                assert_same(
                    &lazy,
                    &eager,
                    &format!("{what}: seeded late vs fed all along"),
                );
                assert_eq!(lazy.as_sets(), mono.as_sets(), "{what}: vs monolithic Rete");
                assert_same(
                    &eager,
                    at_jobs_1.get_or_insert(lazy),
                    &format!("{what}: vs jobs=1"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_shard_seeded_at_its_first_rule_equals_one_fed_all_along(
        ops in proptest::collection::vec(op_strategy(), 10..40),
    ) {
        assert_lazy_equals_eager(&ops);
    }
}

/// Fixed input for the same differential, on which every real rule fires
/// (`tally` once `pair` is excised and stops eating the `b`s).
#[test]
fn lazy_equals_eager_regression() {
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
    let mono = run_script(&|| ProductionSystem::new(MatcherKind::Rete), false, &ops);
    for rule in ["pair", "solo", "tally", "guard"] {
        let fired = |l: &&String| l.contains(&format!("\"rule\":\"{rule}\""));
        assert!(
            mono.fires().into_iter().any(|l| fired(&l)),
            "{rule} never fired"
        );
    }
    assert_lazy_equals_eager(&ops);
}
