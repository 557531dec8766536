//! Integration tests for the metrics registry: single-sourcing against
//! `RunStats`/`MatchStats`, byte-level memory accounting, and JSONL
//! snapshot-stream flush behaviour.

mod common;

use common::CrashDir;
use sorete::base::{Metrics, SnapshotWriter, Value};
use sorete::core::{MatcherKind, OnFailure, ProductionSystem};

/// A J1-style workload: a set-oriented equality join over stocks/orders
/// plus a negated-CE rule, with a retract-heavy tail.
const PROGRAM: &str = "
(literalize stock sym price)
(literalize order sym qty)
(literalize seen sym)
(p match-order
    { [stock ^sym <s> ^price <p>] <S> }
    { [order ^sym <s>] <O> }
    (make seen ^sym <s>)
    (set-remove <O>))
(p lone-stock
    { [stock ^sym <s>] <S> }
    -(order ^sym <s>)
    -(seen ^sym <s>)
    (write lone <s>))
";

fn loaded(kind: MatcherKind) -> ProductionSystem {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(PROGRAM).unwrap();
    ps
}

fn populate(ps: &mut ProductionSystem, n: i64) -> Vec<sorete::base::TimeTag> {
    let mut stock_tags = Vec::new();
    for i in 0..n {
        let tag = ps
            .make_str(
                "stock",
                &[("sym", Value::Int(i % 7)), ("price", Value::Int(100 + i))],
            )
            .unwrap();
        stock_tags.push(tag);
        if i % 2 == 0 {
            ps.make_str(
                "order",
                &[("sym", Value::Int(i % 7)), ("qty", Value::Int(i))],
            )
            .unwrap();
        }
    }
    stock_tags
}

/// Satellite: the per-backend `MatchStats`/`RunStats` counters and the
/// metrics registry must agree exactly — the registry samples them as its
/// single source of truth, so any divergence is a wiring regression.
#[test]
fn registry_counters_equal_stats_on_every_backend() {
    for kind in [
        MatcherKind::Rete,
        MatcherKind::ReteScan,
        MatcherKind::Treat,
        MatcherKind::Naive,
    ] {
        // `match-order` reads a set-oriented `<s>` as a scalar: the run
        // stops on that RHS error, and its bundle goes to the scratch dir.
        let crash = CrashDir::new("registry-counters");
        let mut ps = loaded(kind);
        ps.set_crash_dir(crash.path());
        ps.enable_metrics();
        populate(&mut ps, 12);
        ps.run(Some(50));
        ps.record_metrics_snapshot();

        let rs = ps.stats().clone();
        let ms = ps.match_stats();
        let m = ps.metrics();
        let v = |family: &str| {
            m.with(|r| r.value(family, ""))
                .flatten()
                .unwrap_or_else(|| panic!("{}: metric {} missing", ps.matcher_name(), family))
        };
        assert_eq!(v("sorete_firings_total"), rs.firings, "{:?}", kind);
        assert_eq!(v("sorete_actions_total"), rs.actions, "{:?}", kind);
        assert_eq!(v("sorete_makes_total"), rs.makes, "{:?}", kind);
        assert_eq!(v("sorete_removes_total"), rs.removes, "{:?}", kind);
        assert_eq!(v("sorete_modifies_total"), rs.modifies, "{:?}", kind);
        assert_eq!(v("sorete_writes_total"), rs.writes, "{:?}", kind);
        assert_eq!(
            v("sorete_skipped_actions_total"),
            rs.skipped_actions,
            "{:?}",
            kind
        );
        assert_eq!(v("sorete_rolled_back_total"), rs.rolled_back, "{:?}", kind);
        assert_eq!(
            v("sorete_match_alpha_activations_total"),
            ms.alpha_activations,
            "{:?}",
            kind
        );
        assert_eq!(
            v("sorete_match_beta_activations_total"),
            ms.beta_activations,
            "{:?}",
            kind
        );
        assert_eq!(
            v("sorete_match_join_tests_total"),
            ms.join_tests,
            "{:?}",
            kind
        );
        assert_eq!(
            v("sorete_match_tokens_created_total"),
            ms.tokens_created,
            "{:?}",
            kind
        );
        assert_eq!(
            v("sorete_match_tokens_deleted_total"),
            ms.tokens_deleted,
            "{:?}",
            kind
        );
        assert_eq!(
            v("sorete_match_snode_activations_total"),
            ms.snode_activations,
            "{:?}",
            kind
        );
        assert_eq!(
            v("sorete_match_aggregate_updates_total"),
            ms.aggregate_updates,
            "{:?}",
            kind
        );
        assert_eq!(
            v("sorete_match_index_probes_total"),
            ms.index_probes,
            "{:?}",
            kind
        );
        assert_eq!(v("sorete_cycles_total"), ps.current_cycle(), "{:?}", kind);
        assert_eq!(
            m.with(|r| r.value("sorete_wm_size", "")).flatten(),
            Some(ps.wm().len() as u64),
            "{:?}",
            kind
        );
    }
}

/// Acceptance: alpha/beta/token byte gauges are nonzero under load and
/// shrink after retract-heavy cycles (live-set methodology).
#[test]
fn memory_gauges_shrink_after_retracts() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(
        "(literalize stock sym price)
         (literalize order sym qty)
         (p pair (stock ^sym <s>) (order ^sym <s>) (write pair <s>))",
    )
    .unwrap();
    ps.enable_metrics();
    let stock_tags = populate_raw(&mut ps, 30);
    ps.record_metrics_snapshot();
    let m = ps.metrics();
    let gauge = |m: &Metrics, family: &str, region: &str| {
        m.with(|r| r.value(family, region)).flatten().unwrap_or(0)
    };
    let alpha_before = gauge(&m, "sorete_memory_bytes", "alpha");
    let beta_before = gauge(&m, "sorete_memory_bytes", "beta");
    let tokens_before = gauge(&m, "sorete_memory_bytes", "tokens");
    assert!(alpha_before > 0, "alpha bytes under load");
    assert!(beta_before > 0, "beta bytes under load");
    assert!(tokens_before > 0, "token bytes under load");

    for tag in stock_tags {
        ps.retract_wme(tag).unwrap();
    }
    ps.record_metrics_snapshot();
    let alpha_after = gauge(&m, "sorete_memory_bytes", "alpha");
    let beta_after = gauge(&m, "sorete_memory_bytes", "beta");
    let tokens_after = gauge(&m, "sorete_memory_bytes", "tokens");
    assert!(
        alpha_after < alpha_before,
        "alpha bytes shrink: {} -> {}",
        alpha_before,
        alpha_after
    );
    assert!(
        beta_after < beta_before,
        "beta bytes shrink: {} -> {}",
        beta_before,
        beta_after
    );
    assert!(
        tokens_after < tokens_before,
        "token bytes shrink: {} -> {}",
        tokens_before,
        tokens_after
    );
}

fn populate_raw(ps: &mut ProductionSystem, n: i64) -> Vec<sorete::base::TimeTag> {
    let mut tags = Vec::new();
    for i in 0..n {
        tags.push(
            ps.make_str(
                "stock",
                &[("sym", Value::Int(i)), ("price", Value::Int(100 + i))],
            )
            .unwrap(),
        );
        ps.make_str("order", &[("sym", Value::Int(i)), ("qty", Value::Int(1))])
            .unwrap();
    }
    tags
}

/// Acceptance: the γ-memory gauge is nonzero while a set-oriented rule has
/// candidates and shrinks once the set is consumed.
#[test]
fn gamma_gauge_tracks_soi_lifecycle() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(
        "(literalize item s)
         (p sweep { [item ^s pending] <P> } (set-remove <P>) (write swept (count <P>)))",
    )
    .unwrap();
    ps.enable_metrics();
    for _ in 0..8 {
        ps.make_str("item", &[("s", Value::sym("pending"))])
            .unwrap();
    }
    ps.record_metrics_snapshot();
    let m = ps.metrics();
    let gamma = |m: &Metrics, fam: &str| m.with(|r| r.value(fam, "gamma")).flatten().unwrap_or(0);
    let bytes_before = gamma(&m, "sorete_memory_bytes");
    let sois_before = gamma(&m, "sorete_memory_entries");
    assert!(bytes_before > 0, "gamma bytes with pending candidates");
    assert_eq!(sois_before, 1, "one candidate SOI");

    ps.run(Some(5));
    ps.record_metrics_snapshot();
    let bytes_after = gamma(&m, "sorete_memory_bytes");
    assert!(
        bytes_after < bytes_before,
        "gamma shrinks after the set fires: {} -> {}",
        bytes_before,
        bytes_after
    );
    // The matcher-event counters expose the S-node token protocol.
    let kind = |m: &Metrics, k: &str| {
        m.with(|r| r.value("sorete_matcher_events_total", k))
            .flatten()
            .unwrap_or(0)
    };
    ps.record_metrics_snapshot();
    assert!(kind(&m, "soi_plus") >= 1, "at least one + token");
    assert!(kind(&m, "gamma_created") >= 1);
    assert!(kind(&m, "gamma_dropped") >= 1);
}

/// Satellite: the JSONL snapshot stream must be flushed on engine
/// halt/error paths — here an `OnFailure::Rollback` run whose failing
/// firing is rolled back — and on drop, without an explicit flush call.
#[test]
fn metrics_stream_flushes_on_rollback_and_drop() {
    let dir = std::env::temp_dir().join("sorete-metrics-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rollback-stream.jsonl");
    let crash = CrashDir::new("stream-flush");
    {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.set_crash_dir(crash.path());
        ps.load_program(
            "(literalize item s)
             (p poison (item ^s go) (modify 1 ^bogus 1))",
        )
        .unwrap();
        ps.run_policy_mut().on_failure = OnFailure::Rollback;
        ps.set_metrics_stream(SnapshotWriter::create(&path).unwrap());
        ps.make_str("item", &[("s", Value::sym("go"))]).unwrap();
        let outcome = ps.run(None);
        assert!(
            matches!(outcome.reason, sorete::core::StopReason::Error(_)),
            "{:?}",
            outcome.reason
        );
        assert!(ps.stats().rolled_back >= 1);
        assert!(ps.metrics_stream_written() >= 1, "snapshot streamed");
        // No flush_trace() here: drop must flush the buffered lines.
    }
    let jsonl = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(!lines.is_empty(), "stream flushed on drop");
    // The rolled-back cycle still produced a snapshot with its counter.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"sorete_rolled_back_total\":1")),
        "{}",
        jsonl
    );
}

/// The maintained live-set counts at engine level: after every step of a
/// session that joins, negates, aggregates, adds a rule mid-run, rolls a
/// firing back, excises, and resumes from a checkpoint, the matcher's
/// `validate()` (counts ≡ a fresh walk, region by region) passes, and the
/// matcher's `wme_table` holds exactly one entry per working-memory fact.
#[test]
fn memory_counts_match_the_walk_across_recovery() {
    use sorete::core::{FaultPlan, StopReason};

    const BASE: &str = "
        (literalize order item qty)
        (literalize stock item qty)
        (literalize hold item)
        (literalize reading zone temp)
        (literalize probe zone kind temp)
        (literalize echo zone kind temp)
        (p fill
            (order ^item <i> ^qty <q>)
            (stock ^item <i> ^qty >= <q>)
            -(hold ^item <i>)
            (remove 1))
        (p digest
            { [reading ^zone <z> ^temp <t>] <R> }
            :scalar (<z>)
            :test ((count <R>) >= 3 and (sum <t>) > 0 and (min <t>) >= 0
                   and (max <t>) < 1000 and (avg <t>) > 0)
            (set-remove <R>))";
    const LATE: &str = "
        (p twin
            (probe ^zone <z> ^kind <k> ^temp <t>)
            (echo ^zone <z> ^kind <k> ^temp <t>)
            (remove 2))";

    let crash = CrashDir::new("memory-counts");
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.set_crash_dir(crash.path());
    ps.load_program(BASE).unwrap();
    let check = |ps: &ProductionSystem, what: &str| {
        ps.validate_matcher()
            .unwrap_or_else(|e| panic!("after {}: {}", what, e));
        let facts = ps.memory_report().region("wme_table").unwrap().entries;
        assert_eq!(
            facts,
            ps.wm().len() as u64,
            "one copy of each fact after {}",
            what
        );
    };

    check(&ps, "load");
    for i in 0..12 {
        let item = Value::Int(i % 4);
        ps.make_str("stock", &[("item", item), ("qty", Value::Int(5))])
            .unwrap();
        ps.make_str("order", &[("item", item), ("qty", Value::Int(1 + i % 7))])
            .unwrap();
        ps.make_str(
            "reading",
            &[("zone", Value::Int(i % 2)), ("temp", Value::Int(10 + i))],
        )
        .unwrap();
        let slots = [
            ("zone", Value::Int(i % 2)),
            ("kind", Value::Int(i % 3)),
            ("temp", Value::Int(i % 2)),
        ];
        ps.make_str("probe", &slots).unwrap();
        ps.make_str("echo", &slots).unwrap();
    }
    ps.make_str("hold", &[("item", Value::Int(0))]).unwrap();
    check(&ps, "assert");

    // A rule added over a populated working memory (three-attribute join:
    // spilled index keys).
    ps.load_program(LATE).unwrap();
    check(&ps, "late rule");

    // A firing that fails mid-RHS and is rolled back, then the run resumes.
    ps.inject_fault(FaultPlan::nth(3));
    let out = ps.run(Some(40));
    assert!(
        matches!(out.reason, StopReason::Error(_)),
        "{:?}",
        out.reason
    );
    assert_eq!(ps.stats().rolled_back, 1);
    check(&ps, "rolled-back firing");
    ps.take_fault();
    ps.run(Some(6));
    check(&ps, "six firings");

    // Retract + modify-style churn, then excise a rule with live matches.
    let tags: Vec<_> = ps.wm().iter().map(|w| w.tag).step_by(3).collect();
    for tag in tags {
        ps.retract_wme(tag).unwrap();
    }
    check(&ps, "retracts");
    ps.excise("twin").unwrap();
    check(&ps, "excise");

    // Checkpoint → resume into a fresh engine.
    let mut back = ProductionSystem::new(MatcherKind::Rete);
    back.set_crash_dir(crash.path());
    back.load_program(BASE).unwrap();
    back.resume_from_str(&ps.checkpoint_string()).unwrap();
    check(&back, "resume");
    back.run(Some(100));
    check(&back, "run to quiescence after resume");
}

// ---------------------------------------------------------------------
// M1 — memory over load: exact live-set bytes along the J1 workload.

/// The J1 join workload of `tests/claims.rs`, run through the engine.
const J1_PROGRAM: &str = "(literalize order id qty)(literalize stock id qty)
    (p fill (order ^id <i> ^qty <q>) (stock ^id <i> ^qty >= <q>) (halt))
    (p missing (order ^id <i> ^qty <q>) -(stock ^id <i>) (halt))";

/// `(wm, total, alpha, beta, index)` bytes, sampled every 75 load steps
/// of 600 and every 25 retracts of 200. The retract tail bends the total
/// down: the accounting counts live entries only. Each blocked `missing`
/// token costs 12 B of blocker back-index (a 16 B `Blocker` for an 8 B
/// tag, an 8 B `blocked` entry for a 4 B token id) in the total.
const M1_CURVE: [(usize, u64, u64, u64, u64); 16] = [
    // load: one stock and one order per step
    (150, 53_564, 4_800, 6_752, 10_800),
    (300, 107_024, 9_600, 13_472, 21_600),
    (450, 160_484, 14_400, 20_192, 32_400),
    (600, 213_944, 19_200, 26_912, 43_200),
    (750, 267_404, 24_000, 33_632, 54_000),
    (900, 320_864, 28_800, 40_352, 64_800),
    (1_050, 374_324, 33_600, 47_072, 75_600),
    (1_200, 427_784, 38_400, 53_792, 86_400),
    // retract every third stock
    (1_175, 423_576, 37_600, 54_016, 85_200),
    (1_150, 418_944, 36_800, 54_112, 84_000),
    (1_125, 414_736, 36_000, 54_336, 82_800),
    (1_100, 410_104, 35_200, 54_432, 81_600),
    (1_075, 405_896, 34_400, 54_656, 80_400),
    (1_050, 401_264, 33_600, 54_752, 79_200),
    (1_025, 397_056, 32_800, 54_976, 78_000),
    (1_000, 392_424, 32_000, 55_072, 76_800),
];

/// Acceptance: the M1 curve and the registry's final counters are exact.
/// A byte formula, a node layout or an index change moves a figure here.
#[test]
fn m1_memory_curve_and_final_counters_are_exact() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(J1_PROGRAM).unwrap();
    ps.enable_metrics();
    let sample = |ps: &ProductionSystem| {
        let report = ps.memory_report();
        let region = |name: &str| report.region(name).map_or(0, |r| r.bytes);
        (
            ps.wm().len(),
            report.total_bytes(),
            region("alpha"),
            region("beta"),
            region("alpha_index") + region("beta_index"),
        )
    };
    let mut curve = Vec::new();
    let mut stock_tags = Vec::new();
    for i in 0..600i64 {
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
        if (i + 1) % 75 == 0 {
            curve.push(sample(&ps));
        }
    }
    for (i, tag) in stock_tags.into_iter().step_by(3).enumerate() {
        ps.retract_wme(tag).unwrap();
        if (i + 1) % 25 == 0 {
            curve.push(sample(&ps));
        }
    }
    assert_eq!(curve, M1_CURVE);

    ps.run(Some(100_000));
    ps.record_metrics_snapshot();
    let m = ps.metrics();
    let counter = |family: &str| m.with(|r| r.value(family, "")).flatten().unwrap_or(0);
    let families = [
        "sorete_cycles_total",
        "sorete_firings_total",
        "sorete_wm_asserts_total",
        "sorete_wm_retracts_total",
        "sorete_match_join_tests_total",
        "sorete_match_index_probes_total",
    ];
    assert_eq!(families.map(counter), [1, 1, 1_200, 200, 600, 2_400]);
}
