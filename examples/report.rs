//! Regenerate the paper tables of `EXPERIMENTS.md`: Figures 1/2 and 6,
//! claims C1–C6, and Rete network sharing.
//!
//! ```sh
//! cargo run --release --example report
//! ```
//!
//! The count columns are deterministic and pinned by `tests/claims.rs` and
//! `tests/figures.rs`; the `µs` columns are host wall time, for shape only.
//! Timing claims live in the benchmark ladder (`BENCHMARK.json`).

use sorete::core::{MatcherKind, ProductionSystem};
use sorete::dips::{parallel_cycle, CycleReport, DipsEngine, DipsMode};
use sorete_base::Value;
use std::time::Instant;

/// One measured run of a production-system workload.
struct RunReport {
    n: usize,
    firings: u64,
    actions: u64,
    actions_per_firing: f64,
    tokens: u64,
    join_tests: u64,
    snode_activations: u64,
    aggregate_updates: u64,
    micros: u128,
}

fn report_from(ps: &ProductionSystem, n: usize, start: Instant) -> RunReport {
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
        micros: start.elapsed().as_micros(),
    }
}

fn engine(kind: MatcherKind, program: &str) -> ProductionSystem {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(program).expect("experiment program");
    ps
}

// =================================================================== C1

/// A purely tuple-oriented workload: `n` jobs advanced through a 3-state
/// pipeline.
const C1_REGULAR: &str = "(literalize job id state)
    (p start (job ^id <i> ^state ready) (modify 1 ^state running))
    (p finish (job ^id <i> ^state running) (modify 1 ^state done))";

/// The same program plus an (idle) set-oriented rule on an unused class.
const C1_WITH_SET: &str = "(literalize job id state)(literalize audit k)
    (p start (job ^id <i> ^state ready) (modify 1 ^state running))
    (p finish (job ^id <i> ^state running) (modify 1 ^state done))
    (p sweep { [audit ^k <k>] <A> } :test ((count <A>) > 3) (set-remove <A>))";

fn run_c1(program: &str, n: usize) -> RunReport {
    let mut ps = engine(MatcherKind::Rete, program);
    let start = Instant::now();
    for i in 0..n as i64 {
        ps.make_str(
            "job",
            &[("id", Value::Int(i)), ("state", Value::sym("ready"))],
        )
        .unwrap();
    }
    ps.run(None);
    report_from(&ps, n, start)
}

// =================================================================== C2

/// Tuple-oriented OPS5 idiom: iterate with per-element firings plus a
/// control rule (the "unwieldy control mechanisms" of §1).
const C2_MARKING: &str = "(literalize item s)(literalize phase p)
    (p process-one (phase ^p sweep) (item ^s pending) (modify 2 ^s done))
    (p finish (phase ^p sweep) -(item ^s pending) (remove 1))";

/// The paper's alternative: one set-oriented rule, one firing.
const C2_SET: &str = "(literalize item s)(literalize phase p)
    (p process-all (phase ^p sweep) { [item ^s pending] <P> }
      (set-modify <P> ^s done) (remove 1))";

fn run_c2(program: &str, n: usize) -> RunReport {
    let mut ps = engine(MatcherKind::Rete, program);
    for _ in 0..n {
        ps.make_str("item", &[("s", Value::sym("pending"))])
            .unwrap();
    }
    let start = Instant::now();
    ps.make_str("phase", &[("p", Value::sym("sweep"))]).unwrap();
    ps.run(Some(100_000));
    report_from(&ps, n, start)
}

// =================================================================== C3

/// Counter maintenance by iteration (tuple-oriented).
const C3_COUNTER: &str = "(literalize box s)(literalize counter n)(literalize alarm t)
    (p count-one (counter ^n <n>) (box ^s new)
      (modify 1 ^n (<n> + 1)) (modify 2 ^s counted))
    (p raise (counter ^n <k> ^n >= 1000000) (make alarm ^t overfull))";

/// Direct second-order match (set-oriented).
const C3_AGGREGATE: &str = "(literalize box s)(literalize alarm t)
    (p raise { [box ^s new] <B> } :test ((count <B>) >= 1000000)
      (make alarm ^t overfull))";

/// Insert `n` boxes, then remove half — the cost of keeping the
/// cardinality current under churn. The counter program cannot notice
/// removals (its count drifts); the aggregate stays exact for free.
fn run_c3(program: &str, n: usize) -> RunReport {
    let mut ps = engine(MatcherKind::Rete, program);
    if program.contains("literalize counter") {
        ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
    }
    let start = Instant::now();
    let mut tags = Vec::new();
    for _ in 0..n {
        tags.push(ps.make_str("box", &[("s", Value::sym("new"))]).unwrap());
        ps.run(None);
    }
    for t in tags.into_iter().step_by(2) {
        let _ = ps.retract_wme(t);
        ps.run(None);
    }
    report_from(&ps, n, start)
}

// =================================================================== C5

/// Outcome of draining one collection through DIPS parallel cycles.
struct DipsReport {
    n: usize,
    totals: CycleReport,
    cycles: usize,
    micros: u128,
}

fn run_c5(mode: DipsMode, n: usize) -> DipsReport {
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
    let start = Instant::now();
    let mut totals = CycleReport::default();
    let mut cycles = 0;
    while cycles <= n + 2 {
        let r = parallel_cycle(&mut e).expect("cycle");
        if r.attempted == 0 {
            break;
        }
        cycles += 1;
        totals.attempted += r.attempted;
        totals.committed += r.committed;
        totals.aborted += r.aborted;
        totals.tag_conflicts += r.tag_conflicts;
    }
    DipsReport {
        n,
        totals,
        cycles,
        micros: start.elapsed().as_micros(),
    }
}

// =================================================================== C6

/// A mixed workload for matcher comparison: variable joins (a worker may
/// only take a task within its capacity) and one set-oriented aggregate
/// rule, over `n` tasks.
const C6_PROGRAM: &str = "(literalize task id dur state owner)
    (literalize worker id cap load)
    (p assign (task ^id <t> ^state queued ^owner nil ^dur <d>)
              (worker ^id <w> ^load 0 ^cap >= <d>)
      (modify 1 ^state assigned ^owner <w>) (modify 2 ^load 1))
    (p watch-queue { [task ^state queued ^dur <d>] <Q> } :test ((count <Q>) > 0 and (sum <d>) > 10)
      (write backlog (count <Q>)))";

fn run_c6(kind: MatcherKind, n: usize) -> RunReport {
    let mut ps = engine(kind, C6_PROGRAM);
    let start = Instant::now();
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
    report_from(&ps, n, start)
}

fn hr(title: &str) {
    println!("\n## {}\n", title);
}

fn main() {
    println!("# sorete experiment report");
    println!("(shapes, not absolute numbers — see EXPERIMENTS.md)");

    // ---------------------------------------------------------- figures
    hr("F1/F2 — Figure 1 & 2: instantiation counts");
    let variants = [
        (
            "tuple-oriented compete",
            "(p c (player ^name <n1> ^team A) (player ^name <n2> ^team B) (halt))",
        ),
        (
            "all-set compete1",
            "(p c [player ^name <n1> ^team A] [player ^name <n2> ^team B] (halt))",
        ),
        (
            "mixed compete2",
            "(p c [player ^name <n1> ^team A] (player ^name <n2> ^team B) (halt))",
        ),
    ];
    println!(
        "{:<28} {:>14} {:>14}",
        "LHS form", "instantiations", "rows-in-first"
    );
    for (label, rule) in variants {
        let mut ps = engine(
            MatcherKind::Rete,
            &format!("(literalize player name team){}", rule),
        );
        for (n, t) in [
            ("Jack", "A"),
            ("Janice", "A"),
            ("Sue", "B"),
            ("Jack", "B"),
            ("Sue", "B"),
        ] {
            ps.make_str(
                "player",
                &[("name", Value::sym(n)), ("team", Value::sym(t))],
            )
            .unwrap();
        }
        let items = ps.conflict_items();
        println!(
            "{:<28} {:>14} {:>14}",
            label,
            items.len(),
            items.first().map(|i| i.rows.len()).unwrap_or(0)
        );
    }

    hr("F6 — Figure 6: set-oriented DIPS groups");
    let fig = sorete::dips::figure6().expect("figure 6");
    println!("query: {}", fig.query);
    print!("{}", fig.soi_relation.render());

    // ----------------------------------------------------------- claims
    hr("C1 — regular programs unaffected by the extension (Rete)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "n", "firings", "tokens", "join-tests", "snode-acts", "µs"
    );
    for n in [100usize, 400, 1600] {
        for (label, prog) in [("plain", C1_REGULAR), ("w/ set rule", C1_WITH_SET)] {
            let r = run_c1(prog, n);
            println!(
                "{:>8} {:>12} {:>12} {:>12} {:>12} {:>10}  {}",
                r.n, r.firings, r.tokens, r.join_tests, r.snode_activations, r.micros, label
            );
        }
    }

    hr("C2 — collection processing: marking scheme vs one set-oriented firing (Rete)");
    println!(
        "{:>8} {:>12} {:>10} {:>14} {:>10}",
        "n", "firings", "actions", "actions/firing", "µs"
    );
    for n in [10usize, 100, 1000] {
        for (label, prog) in [("marking", C2_MARKING), ("set-oriented", C2_SET)] {
            let r = run_c2(prog, n);
            println!(
                "{:>8} {:>12} {:>10} {:>14.1} {:>10}  {}",
                r.n, r.firings, r.actions, r.actions_per_firing, r.micros, label
            );
        }
    }

    hr("C3 — second-order info: counter rules vs direct aggregate match (Rete)");
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>10}",
        "n", "firings", "agg-updates", "tokens", "µs"
    );
    for n in [10usize, 100, 400] {
        for (label, prog) in [("counter rules", C3_COUNTER), ("aggregate", C3_AGGREGATE)] {
            let r = run_c3(prog, n);
            println!(
                "{:>8} {:>12} {:>14} {:>12} {:>10}  {}",
                r.n, r.firings, r.aggregate_updates, r.tokens, r.micros, label
            );
        }
    }

    hr("C4 — actions per firing (parallelism proxy)");
    println!("{:>8} {:>16} {:>16}", "n", "set-oriented", "marking");
    for n in [4usize, 16, 64, 256] {
        let set = run_c2(C2_SET, n);
        let tup = run_c2(C2_MARKING, n);
        println!(
            "{:>8} {:>16.1} {:>16.2}",
            n, set.actions_per_firing, tup.actions_per_firing
        );
    }

    hr("C5 — DIPS parallel firing: conflicts/aborts");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12} {:>8} {:>10}",
        "n", "attempted", "committed", "aborted", "tagconflict", "cycles", "µs"
    );
    for n in [4usize, 8, 16, 32] {
        for mode in [DipsMode::Tuple, DipsMode::Set] {
            let r = run_c5(mode, n);
            let t = &r.totals;
            println!(
                "{:>8} {:>10} {:>10} {:>10} {:>12} {:>8} {:>10}  {:?}",
                r.n, t.attempted, t.committed, t.aborted, t.tag_conflicts, r.cycles, r.micros, mode
            );
        }
    }

    hr("Network sharing — 'all of the advantages of Rete such as shared tests remain'");
    {
        use sorete::lang::{analyze_rule, parse_rule, Matcher};
        use sorete::rete::ReteMatcher;
        use std::sync::Arc;
        // N rules sharing a 2-CE prefix, differing only in the final CE.
        println!("{:>8} {:>12} {:>12}", "rules", "alpha-mems", "beta-nodes");
        for n in [1usize, 4, 16] {
            let mut m = ReteMatcher::new();
            for i in 0..n {
                let src = format!("(p r{i} (ctx ^on t) (item ^k <k>) (tag ^k <k> ^n {i}) (halt))");
                m.add_rule(Arc::new(analyze_rule(&parse_rule(&src).unwrap()).unwrap()));
            }
            println!("{:>8} {:>12} {:>12}", n, m.alpha_count(), m.node_count());
        }
        println!("(beta nodes grow by ~3/rule — the join+memory+production of the unshared tail;\n the 2-CE prefix and its alpha memories are built once)");
    }

    hr("C6 — match algorithms on a mixed workload");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "n", "matcher", "firings", "tokens", "join-tests", "µs"
    );
    for n in [50usize, 200] {
        for (kind, name) in [
            (MatcherKind::Rete, "rete"),
            (MatcherKind::Treat, "treat"),
            (MatcherKind::Naive, "naive"),
        ] {
            let r = run_c6(kind, n);
            println!(
                "{:>8} {:>8} {:>10} {:>12} {:>12} {:>10}",
                r.n, name, r.firings, r.tokens, r.join_tests, r.micros
            );
        }
    }

    println!("\ndone.");
}
