#![warn(missing_docs)]
//! Shared experiment definitions: workload generators and runners used by
//! both the Criterion benches and the `report` binary that regenerates the
//! tables in `EXPERIMENTS.md`.
//!
//! Experiment ids (F1–F6 figures, C1–C6 claims) are defined in DESIGN.md.

use sorete_base::Value;
use sorete_core::{MatcherKind, ProductionSystem};
use sorete_dips::{parallel_cycle, CycleReport, DipsEngine, DipsMode};

pub mod gate;

/// One measured run of a production-system workload.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// WM size parameter of the workload.
    pub n: usize,
    /// Rule firings.
    pub firings: u64,
    /// Primitive RHS actions.
    pub actions: u64,
    /// Actions per firing (the C4 parallelism proxy).
    pub actions_per_firing: f64,
    /// Tokens created in the match network.
    pub tokens: u64,
    /// Join tests performed.
    pub join_tests: u64,
    /// S-node activations.
    pub snode_activations: u64,
    /// Incremental aggregate updates.
    pub aggregate_updates: u64,
    /// Hash-index probes (indexed Rete only; 0 under scan matchers).
    pub index_probes: u64,
    /// Join tests skipped thanks to index probes.
    pub index_skipped_tests: u64,
    /// Wall-clock microseconds for the measured phase.
    pub micros: u128,
}

fn report_from(ps: &ProductionSystem, n: usize, micros: u128) -> RunReport {
    let s = ps.stats();
    let m = ps.match_stats();
    RunReport {
        n,
        firings: s.firings,
        actions: s.actions,
        actions_per_firing: s.actions_per_firing(),
        tokens: m.tokens_created,
        join_tests: m.join_tests,
        snode_activations: m.snode_activations,
        aggregate_updates: m.aggregate_updates,
        index_probes: m.index_probes,
        index_skipped_tests: m.index_skipped_tests,
        micros,
    }
}

/// Short display name for a matcher kind in report tables.
pub fn matcher_label(kind: MatcherKind) -> &'static str {
    match kind {
        MatcherKind::Rete => "rete",
        MatcherKind::ReteScan => "rete-scan",
        MatcherKind::Treat => "treat",
        MatcherKind::Naive => "naive",
    }
}

// =================================================================== C1

/// A purely tuple-oriented workload: `n` jobs advanced through a 3-state
/// pipeline. Used to show regular rules cost the same with or without
/// set-oriented rules loaded.
pub const C1_REGULAR: &str = "(literalize job id state)
    (p start (job ^id <i> ^state ready) (modify 1 ^state running))
    (p finish (job ^id <i> ^state running) (modify 1 ^state done))";

/// The same program plus an (idle) set-oriented rule on an unused class.
pub const C1_WITH_SET: &str = "(literalize job id state)(literalize audit k)
    (p start (job ^id <i> ^state ready) (modify 1 ^state running))
    (p finish (job ^id <i> ^state running) (modify 1 ^state done))
    (p sweep { [audit ^k <k>] <A> } :test ((count <A>) > 3) (set-remove <A>))";

/// Build + run the C1 pipeline; returns the measured report.
pub fn run_c1(program: &str, kind: MatcherKind, n: usize) -> RunReport {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(program).expect("C1 program");
    let start = std::time::Instant::now();
    for i in 0..n as i64 {
        ps.make_str(
            "job",
            &[("id", Value::Int(i)), ("state", Value::sym("ready"))],
        )
        .unwrap();
    }
    ps.run(None);
    report_from(&ps, n, start.elapsed().as_micros())
}

// =================================================================== C2

/// Tuple-oriented OPS5 idiom: iterate with per-element firings plus a
/// control rule (the "unwieldy control mechanisms" of §1).
pub const C2_MARKING: &str = "(literalize item s)(literalize phase p)
    (p process-one (phase ^p sweep) (item ^s pending) (modify 2 ^s done))
    (p finish (phase ^p sweep) -(item ^s pending) (remove 1))";

/// The paper's alternative: one set-oriented rule, one firing.
pub const C2_SET: &str = "(literalize item s)(literalize phase p)
    (p process-all (phase ^p sweep) { [item ^s pending] <P> }
      (set-modify <P> ^s done) (remove 1))";

/// Build + run the C2 sweep over `n` pending items.
pub fn run_c2(program: &str, kind: MatcherKind, n: usize) -> RunReport {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(program).expect("C2 program");
    for _ in 0..n {
        ps.make_str("item", &[("s", Value::sym("pending"))])
            .unwrap();
    }
    let start = std::time::Instant::now();
    ps.make_str("phase", &[("p", Value::sym("sweep"))]).unwrap();
    ps.run(Some(100_000));
    let rep = report_from(&ps, n, start.elapsed().as_micros());
    debug_assert!(ps.wm().iter().all(|w| w.class.as_str() != "item"
        || w.get(sorete_base::Symbol::new("s")) == Value::sym("done")));
    rep
}

// =================================================================== C3

/// Counter maintenance by iteration (tuple-oriented).
pub const C3_COUNTER: &str = "(literalize box s)(literalize counter n)(literalize alarm t)
    (p count-one (counter ^n <n>) (box ^s new)
      (modify 1 ^n (<n> + 1)) (modify 2 ^s counted))
    (p raise (counter ^n <k> ^n >= 1000000) (make alarm ^t overfull))";

/// Direct second-order match (set-oriented).
pub const C3_AGGREGATE: &str = "(literalize box s)(literalize alarm t)
    (p raise { [box ^s new] <B> } :test ((count <B>) >= 1000000)
      (make alarm ^t overfull))";

/// Insert `n` boxes, then remove half — measuring the cost of *keeping the
/// cardinality current* under churn.
pub fn run_c3(program: &str, kind: MatcherKind, n: usize) -> RunReport {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(program).expect("C3 program");
    if program.contains("literalize counter") {
        ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
    }
    let start = std::time::Instant::now();
    let mut tags = Vec::new();
    for _ in 0..n {
        tags.push(ps.make_str("box", &[("s", Value::sym("new"))]).unwrap());
        ps.run(None); // counter program needs firings per box
    }
    for t in tags.into_iter().step_by(2) {
        // Counter program can't notice removals (its count drifts) — the
        // aggregate version stays exact for free.
        let _ = ps.retract_wme(t);
        ps.run(None);
    }
    report_from(&ps, n, start.elapsed().as_micros())
}

// =================================================================== C6

/// A mixed workload for matcher comparison: variable joins (a worker may
/// only take a task within its capacity), negation-free control, and one
/// set-oriented aggregate rule, over `n` tasks.
pub const C6_PROGRAM: &str = "(literalize task id dur state owner)
    (literalize worker id cap load)
    (p assign (task ^id <t> ^state queued ^owner nil ^dur <d>)
              (worker ^id <w> ^load 0 ^cap >= <d>)
      (modify 1 ^state assigned ^owner <w>) (modify 2 ^load 1))
    (p watch-queue { [task ^state queued ^dur <d>] <Q> } :test ((count <Q>) > 0 and (sum <d>) > 10)
      (write backlog (count <Q>)))";

/// Run the C6 workload on the chosen matcher.
pub fn run_c6(kind: MatcherKind, n: usize) -> RunReport {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(C6_PROGRAM).expect("C6 program");
    let start = std::time::Instant::now();
    for i in 0..n as i64 {
        ps.make_str(
            "task",
            &[
                ("id", Value::Int(i)),
                ("dur", Value::Int(1 + (i * 7) % 13)),
                ("state", Value::sym("queued")),
                ("owner", Value::Nil),
            ],
        )
        .unwrap();
        if i % 3 == 0 {
            ps.make_str(
                "worker",
                &[
                    ("id", Value::Int(i)),
                    ("cap", Value::Int(5 + (i * 3) % 9)),
                    ("load", Value::Int(0)),
                ],
            )
            .unwrap();
        }
    }
    ps.run(Some(100_000));
    report_from(&ps, n, start.elapsed().as_micros())
}

// =================================================================== J1

/// Join-selectivity workload for the hash-index experiment: `n` orders and
/// `n` stocks equality-join on `^id` (each order matches exactly one stock)
/// with a `^qty >=` residual predicate, plus a negated-CE rule over the same
/// alpha memories. A scan Rete tests every order against every stock
/// (O(n²) join tests); the hash index probes one bucket per activation.
/// Rules end in `(halt)` so the measured phase is pure match work.
pub const J1_PROGRAM: &str = "(literalize order id qty)(literalize stock id qty)
    (p fill (order ^id <i> ^qty <q>) (stock ^id <i> ^qty >= <q>) (halt))
    (p missing (order ^id <i> ^qty <q>) -(stock ^id <i>) (halt))";

/// Run the J1 workload: insert `n` stocks then `n` orders, then retract a
/// third of the stock (exercising delete + negative-join maintenance).
pub fn run_join_index(kind: MatcherKind, n: usize) -> RunReport {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(J1_PROGRAM).expect("J1 program");
    let start = std::time::Instant::now();
    let mut stock_tags = Vec::with_capacity(n);
    for i in 0..n as i64 {
        let tag = ps
            .make_str(
                "stock",
                &[("id", Value::Int(i)), ("qty", Value::Int((i * 5) % 10))],
            )
            .unwrap();
        stock_tags.push(tag);
    }
    for i in 0..n as i64 {
        ps.make_str(
            "order",
            &[("id", Value::Int(i)), ("qty", Value::Int((i * 3) % 10))],
        )
        .unwrap();
    }
    for tag in stock_tags.into_iter().step_by(3) {
        ps.retract_wme(tag).unwrap();
    }
    report_from(&ps, n, start.elapsed().as_micros())
}

// =================================================================== M1

/// One point on the J1 memory-over-load curve.
#[derive(Clone, Copy, Debug)]
pub struct MemoryPoint {
    /// Phase of the workload: `"load"` while inserting, `"retract"` after
    /// each retract chunk.
    pub phase: &'static str,
    /// Working-memory size at the sample.
    pub wm: usize,
    /// Total matcher bytes (all regions).
    pub total_bytes: u64,
    /// Alpha-memory bytes.
    pub alpha_bytes: u64,
    /// Beta-memory bytes (token lists, not the slab).
    pub beta_bytes: u64,
    /// Hash-index bytes (alpha + beta indexes).
    pub index_bytes: u64,
}

/// The J1 memory-over-load curve: sample the matcher's live-set byte
/// accounting while inserting `n` stocks + `n` orders in `samples` chunks,
/// then while retracting every third stock. The retract tail must bend the
/// curve *down* — the accounting counts live entries only.
pub fn run_memory_curve(kind: MatcherKind, n: usize, samples: usize) -> Vec<MemoryPoint> {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(J1_PROGRAM).expect("J1 program");
    let mut points = Vec::new();
    let sample = |ps: &ProductionSystem, phase: &'static str| {
        let report = ps.memory_report();
        let region = |name: &str| report.region(name).map_or(0, |r| r.bytes);
        MemoryPoint {
            phase,
            wm: ps.wm().len(),
            total_bytes: report.total_bytes(),
            alpha_bytes: region("alpha"),
            beta_bytes: region("beta"),
            index_bytes: region("alpha_index") + region("beta_index"),
        }
    };
    let chunk = (n / samples.max(1)).max(1);
    let mut stock_tags = Vec::with_capacity(n);
    for i in 0..n as i64 {
        stock_tags.push(
            ps.make_str(
                "stock",
                &[("id", Value::Int(i)), ("qty", Value::Int((i * 5) % 10))],
            )
            .unwrap(),
        );
        ps.make_str(
            "order",
            &[("id", Value::Int(i)), ("qty", Value::Int((i * 3) % 10))],
        )
        .unwrap();
        if (i as usize + 1).is_multiple_of(chunk) {
            points.push(sample(&ps, "load"));
        }
    }
    let retracts: Vec<_> = stock_tags.into_iter().step_by(3).collect();
    let rchunk = (retracts.len() / samples.max(1)).max(1);
    for (i, tag) in retracts.into_iter().enumerate() {
        ps.retract_wme(tag).unwrap();
        if (i + 1).is_multiple_of(rchunk) {
            points.push(sample(&ps, "retract"));
        }
    }
    points
}

// =================================================================== C5

/// Outcome of the DIPS experiment at one size.
#[derive(Clone, Copy, Debug)]
pub struct DipsReport {
    /// Collection size.
    pub n: usize,
    /// Transactions attempted.
    pub attempted: usize,
    /// Commits.
    pub committed: usize,
    /// Aborts (conflicts).
    pub aborted: usize,
    /// Aborts decided by the explicit read/write tag-set rule.
    pub tag_conflicts: usize,
    /// Cycles needed to drain the collection.
    pub cycles: usize,
    /// Wall-clock microseconds.
    pub micros: u128,
}

/// Drain `n` pending items through DIPS parallel cycles in the given mode.
pub fn run_c5(mode: DipsMode, n: usize) -> DipsReport {
    let prog = match mode {
        DipsMode::Tuple => "(p drain (flag ^on t) (item ^s pending) (modify 1 ^on t) (remove 2))",
        DipsMode::Set => {
            "(p drain (flag ^on t) { [item ^s pending] <P> } (modify 1 ^on t) (set-remove <P>))"
        }
    };
    let mut e = DipsEngine::new(mode, prog).expect("C5 program");
    e.insert("flag", &[("on", Value::sym("t"))]).unwrap();
    for _ in 0..n {
        e.insert("item", &[("s", Value::sym("pending"))]).unwrap();
    }
    let start = std::time::Instant::now();
    let mut total = CycleReport::default();
    let mut cycles = 0;
    loop {
        let r = parallel_cycle(&mut e).expect("cycle");
        if r.attempted == 0 {
            break;
        }
        cycles += 1;
        total.attempted += r.attempted;
        total.committed += r.committed;
        total.aborted += r.aborted;
        total.tag_conflicts += r.tag_conflicts;
        if cycles > n + 2 {
            break;
        }
    }
    DipsReport {
        n,
        attempted: total.attempted,
        committed: total.committed,
        aborted: total.aborted,
        tag_conflicts: total.tag_conflicts,
        cycles,
        micros: start.elapsed().as_micros(),
    }
}

// ================================================================ whole-program

/// The Monkey & Bananas planning program (`programs/monkey.ops`), run end
/// to end under MEA — a complete multi-rule program with joins, negation,
/// and a set-oriented cleanup rule.
pub fn run_monkey(kind: MatcherKind) -> RunReport {
    let program = include_str!("../../../programs/monkey.ops");
    let mut ps = ProductionSystem::new(kind);
    ps.set_strategy(sorete_core::Strategy::Mea);
    ps.load_program(program).expect("monkey program");
    let start = std::time::Instant::now();
    ps.make_str(
        "monkey",
        &[
            ("at", Value::sym("5-7")),
            ("on", Value::sym("floor")),
            ("holds", Value::Nil),
        ],
    )
    .unwrap();
    ps.make_str(
        "thing",
        &[
            ("name", Value::sym("bananas")),
            ("at", Value::sym("7-7")),
            ("on", Value::sym("ceiling")),
        ],
    )
    .unwrap();
    ps.make_str(
        "thing",
        &[
            ("name", Value::sym("ladder")),
            ("at", Value::sym("2-2")),
            ("on", Value::sym("floor")),
        ],
    )
    .unwrap();
    ps.make_str(
        "goal",
        &[
            ("status", Value::sym("active")),
            ("type", Value::sym("holds")),
            ("obj", Value::sym("bananas")),
        ],
    )
    .unwrap();
    let outcome = ps.run(Some(100));
    debug_assert_eq!(outcome.fired, 7);
    report_from(&ps, 1, start.elapsed().as_micros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_reports_match() {
        let plain = run_c1(C1_REGULAR, MatcherKind::Rete, 20);
        let with_set = run_c1(C1_WITH_SET, MatcherKind::Rete, 20);
        assert_eq!(plain.firings, with_set.firings);
        assert_eq!(plain.tokens, with_set.tokens);
        assert_eq!(with_set.snode_activations, 0);
    }

    #[test]
    fn c2_shapes() {
        let marking = run_c2(C2_MARKING, MatcherKind::Rete, 25);
        let set = run_c2(C2_SET, MatcherKind::Rete, 25);
        assert_eq!(marking.firings, 26);
        assert_eq!(set.firings, 1);
        assert!(set.actions_per_firing > marking.actions_per_firing * 5.0);
    }

    #[test]
    fn c5_shapes() {
        let tuple = run_c5(DipsMode::Tuple, 6);
        let set = run_c5(DipsMode::Set, 6);
        assert!(tuple.aborted > 0);
        assert_eq!(set.aborted, 0);
        assert_eq!(set.cycles, 1);
        assert!(tuple.cycles > 1, "conflicts force re-cycling");
    }

    #[test]
    fn monkey_runs_on_all_matchers() {
        for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
            let r = run_monkey(kind);
            assert_eq!(r.firings, 7, "{:?}", kind);
        }
    }

    #[test]
    fn j1_index_cuts_join_tests() {
        let idx = run_join_index(MatcherKind::Rete, 200);
        let scan = run_join_index(MatcherKind::ReteScan, 200);
        assert!(idx.index_probes > 0);
        assert_eq!(scan.index_probes, 0);
        assert!(
            idx.join_tests * 10 <= scan.join_tests,
            "indexed {} vs scan {} join tests",
            idx.join_tests,
            scan.join_tests
        );
    }

    #[test]
    fn memory_curve_rises_then_falls() {
        let points = run_memory_curve(MatcherKind::Rete, 120, 6);
        let peak = points
            .iter()
            .filter(|p| p.phase == "load")
            .map(|p| p.total_bytes)
            .max()
            .unwrap();
        let first = points.first().unwrap().total_bytes;
        let last = points.last().unwrap();
        assert!(peak > first, "bytes grow under load");
        assert_eq!(last.phase, "retract");
        assert!(
            last.total_bytes < peak,
            "retract tail shrinks the live set: {} -> {}",
            peak,
            last.total_bytes
        );
        assert!(points.iter().all(|p| p.alpha_bytes > 0));
    }

    #[test]
    fn c6_all_matchers_terminate() {
        for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive] {
            let r = run_c6(kind, 30);
            assert!(r.firings > 0, "{:?}", kind);
        }
    }
}
