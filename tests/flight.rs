//! Flight-recorder integration tests: the always-on black box, crash
//! bundles on abnormal exits, and the offline inspector's fidelity.
//!
//! The differential tests are the heart: `explain` / `why-not` rendered
//! from a crash bundle must be byte-identical to the live engine's
//! output at the moment the bundle was cut, for every matcher.

use sorete::core::{CrashBundle, FaultPlan, MatcherKind, ProductionSystem, StopReason};
use sorete_base::{Symbol, Value};
use std::path::PathBuf;

const MATCHERS: [MatcherKind; 4] = [
    MatcherKind::Rete,
    MatcherKind::ReteScan,
    MatcherKind::Treat,
    MatcherKind::Naive,
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sorete-flight-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Two-rule fixture: `compete` has a conflict-set entry, `phantom` never
/// matches (no `coach` WMEs exist), `blocked` loses its support when a
/// player is retracted.
const PROG: &str = "
    (literalize player name team)
    (literalize coach name)
    (p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B)
      (write <n1> vs <n2>))
    (p phantom (player ^name <n>) (coach ^name <n>)
      (write coached <n>))
";

fn seeded(kind: MatcherKind) -> ProductionSystem {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(PROG).unwrap();
    // Live `explain` reconstructs history from the event log; the bundle
    // side reads the flight ring. Differential runs need both on.
    ps.set_event_log(true);
    ps.make_str(
        "player",
        &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
    )
    .unwrap();
    ps.make_str(
        "player",
        &[("name", Value::sym("Sue")), ("team", Value::sym("B"))],
    )
    .unwrap();
    ps
}

/// Counter workload whose `poison` rule divides by zero at 5 — a
/// deterministic abnormal (`Error`) stop.
const POISON: &str = "
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

fn poisoned(kind: MatcherKind) -> ProductionSystem {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(POISON).unwrap();
    ps.assert_wme(
        Symbol::new("counter"),
        vec![(Symbol::new("n"), Value::Int(0))],
    )
    .unwrap();
    ps
}

// ---------------------------------------------------------------------------
// Differential fidelity: bundle explain / why-not == live output

#[test]
fn bundle_explain_matches_live_across_matchers() {
    for kind in MATCHERS {
        let mut ps = seeded(kind);
        let live = ps.explain("compete").unwrap();
        let dir = tmp(&format!("diff-explain-{:?}", kind));
        let bundle_dir = ps.dump_bundle(Some(&dir)).unwrap();
        let bundle = CrashBundle::load(&bundle_dir).unwrap();
        assert_eq!(
            bundle.explain("compete").unwrap(),
            live,
            "{:?}: bundle explain diverged from live",
            kind
        );
    }
}

#[test]
fn bundle_why_not_matches_live_across_matchers() {
    for kind in MATCHERS {
        let mut ps = seeded(kind);
        // `phantom` never matched: no coach WMEs at all.
        let live_never = ps.why_not("phantom").unwrap();
        assert!(
            live_never.contains("never matched"),
            "{:?}: {}",
            kind,
            live_never
        );
        // `compete` CAN fire — why-not must say so on both sides.
        let live_can = ps.why_not("compete").unwrap();
        assert!(
            live_can.contains("ARE in the conflict set"),
            "{:?}: {}",
            kind,
            live_can
        );
        let dir = tmp(&format!("diff-whynot-{:?}", kind));
        let bundle_dir = ps.dump_bundle(Some(&dir)).unwrap();
        let bundle = CrashBundle::load(&bundle_dir).unwrap();
        assert_eq!(bundle.why_not("phantom").unwrap(), live_never, "{:?}", kind);
        assert_eq!(bundle.why_not("compete").unwrap(), live_can, "{:?}", kind);
    }
}

#[test]
fn bundle_why_not_lost_match_matches_live_across_matchers() {
    for kind in MATCHERS {
        let mut ps = seeded(kind);
        // Retract Sue: `compete` loses its only instantiation.
        let sue = ps
            .wm()
            .iter()
            .find(|w| w.get(Symbol::new("name")) == Value::sym("Sue"))
            .map(|w| w.tag)
            .unwrap();
        ps.retract_wme(sue).unwrap();
        let live = ps.why_not("compete").unwrap();
        assert!(live.contains("lost match"), "{:?}: {}", kind, live);
        let dir = tmp(&format!("diff-lost-{:?}", kind));
        let bundle_dir = ps.dump_bundle(Some(&dir)).unwrap();
        let bundle = CrashBundle::load(&bundle_dir).unwrap();
        assert_eq!(bundle.why_not("compete").unwrap(), live, "{:?}", kind);
    }
}

// ---------------------------------------------------------------------------
// Abnormal exits always leave a valid bundle

#[test]
fn run_error_writes_a_valid_bundle() {
    for kind in MATCHERS {
        let dir = tmp(&format!("err-{:?}", kind));
        let mut ps = poisoned(kind);
        ps.set_crash_dir(&dir);
        let outcome = ps.run(Some(100));
        assert!(
            matches!(outcome.reason, StopReason::Error(_)),
            "{:?}: {:?}",
            kind,
            outcome.reason
        );
        let bundle_dir = ps
            .last_crash_bundle()
            .unwrap_or_else(|| panic!("{:?}: no bundle written", kind))
            .to_path_buf();
        let bundle = CrashBundle::load(&bundle_dir).unwrap();
        assert_eq!(bundle.get("stop"), Some("error"));
        assert!(!bundle.cycles.is_empty(), "{:?}: no cycle records", kind);
        assert!(!bundle.events.is_empty(), "{:?}: no events", kind);
        assert!(!bundle.rules.is_empty(), "{:?}: no rules", kind);
        // The fsck pass accepts it too.
        let summary = ProductionSystem::fsck_bundle(&bundle_dir).unwrap();
        assert!(summary.contains("crash bundle OK"), "{}", summary);
        // The timeline's last record is the failed poison cycle.
        let last = bundle.cycles.last().unwrap();
        assert!(!last.ok, "{:?}: last cycle should be the failure", kind);
        assert_eq!(last.rule.as_str(), "poison", "{:?}", kind);
    }
}

#[test]
fn panic_writes_a_bundle_with_stop_panicked() {
    let dir = tmp("panic");
    let mut ps = poisoned(MatcherKind::Rete);
    ps.set_crash_dir(&dir);
    ps.inject_fault(FaultPlan::nth(3).panicking());
    let outcome = ps.run(Some(100));
    assert!(matches!(outcome.reason, StopReason::Panicked { .. }));
    let bundle = CrashBundle::load(ps.last_crash_bundle().unwrap()).unwrap();
    assert_eq!(bundle.get("stop"), Some("panicked"));
    assert_eq!(
        bundle.get("reason").map(|r| r.contains("Panicked")),
        Some(true)
    );
}

#[test]
fn benign_stops_write_no_bundle() {
    let dir = tmp("benign");
    let mut ps = seeded(MatcherKind::Rete);
    ps.set_crash_dir(&dir);
    let outcome = ps.run(None);
    assert!(matches!(outcome.reason, StopReason::Quiescence));
    assert!(ps.last_crash_bundle().is_none());
}

#[test]
fn flight_off_disables_bundles_and_dump_errors() {
    let dir = tmp("off");
    let mut ps = poisoned(MatcherKind::Rete);
    ps.set_flight_recorder(0);
    ps.set_crash_dir(&dir);
    assert!(!ps.flight_enabled());
    let outcome = ps.run(Some(100));
    assert!(matches!(outcome.reason, StopReason::Error(_)));
    assert!(ps.last_crash_bundle().is_none());
    let err = ps.dump_bundle(Some(&dir)).unwrap_err().to_string();
    assert!(err.contains("flight recorder is off"), "{}", err);
}

// ---------------------------------------------------------------------------
// Ring semantics and manifest contents

#[test]
fn ring_keeps_the_last_records_under_eviction() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.set_flight_recorder(8);
    ps.load_program(
        "(literalize counter n)
         (p bump (counter ^n <x> < 40) --> (modify 1 ^n (compute <x> + 1)))",
    )
    .unwrap();
    ps.assert_wme(
        Symbol::new("counter"),
        vec![(Symbol::new("n"), Value::Int(0))],
    )
    .unwrap();
    ps.run(None);
    let counts = ps.flight().counts();
    assert!(counts.evicted > 0, "{:?}", counts);
    let cycles = ps.flight().cycles();
    assert!(cycles.len() <= 8, "{}", cycles.len());
    // Overwrite-oldest: what survives is the *tail* of the run.
    assert_eq!(cycles.last().unwrap().cycle, ps.cycle());
    let dir = tmp("evict");
    let bundle = CrashBundle::load(&ps.dump_bundle(Some(&dir)).unwrap()).unwrap();
    let evicted: u64 = bundle.get("evicted").unwrap().parse().unwrap();
    assert!(evicted > 0);
    assert_eq!(
        bundle.cycles.last().unwrap().cycle,
        cycles.last().unwrap().cycle
    );
}

#[test]
fn manifest_records_topology_and_invocation() {
    let dir = tmp("manifest");
    let mut ps = ProductionSystem::new(MatcherKind::Treat);
    ps.load_program(POISON).unwrap();
    ps.set_invocation(vec!["sorete".into(), "--matcher".into(), "treat".into()]);
    ps.set_crash_dir(&dir);
    ps.assert_wme(
        Symbol::new("counter"),
        vec![(Symbol::new("n"), Value::Int(0))],
    )
    .unwrap();
    let outcome = ps.run(Some(100));
    assert!(outcome.reason.is_abnormal());
    let bundle = CrashBundle::load(ps.last_crash_bundle().unwrap()).unwrap();
    // One matcher per engine: its name is the whole topology.
    assert_eq!(bundle.get("matcher"), Some("treat"));
    assert_eq!(bundle.get("shards"), None);
    assert_eq!(bundle.get("jobs"), None);
    assert_eq!(bundle.get("argv"), Some("sorete --matcher treat"));
}

#[test]
fn repeated_dumps_get_distinct_directories() {
    let dir = tmp("collide");
    let mut ps = seeded(MatcherKind::Rete);
    let first = ps.dump_bundle(Some(&dir)).unwrap();
    let second = ps.dump_bundle(Some(&dir)).unwrap();
    assert_ne!(first, second);
    assert!(CrashBundle::load(&first).is_ok());
    assert!(CrashBundle::load(&second).is_ok());
}

/// Bundles written before the sharded backend was removed carry `jobs=` /
/// `shards=` MANIFEST keys and `shard_match` spans. The format version did
/// not change, so they must still load, render and pass `fsck`: the keys
/// are ignored and the span decodes to category `other`.
#[test]
fn bundles_with_shard_topology_still_load() {
    let dir = tmp("old-topology");
    let mut ps = seeded(MatcherKind::Rete);
    ps.enable_spans();
    let spans = ps.spans();
    spans.end(spans.begin(), "shard_match", 1, || vec![("shard", 3)]);
    ps.run(None);
    let bundle_dir = ps.dump_bundle(Some(&dir)).unwrap();
    let manifest_path = bundle_dir.join("MANIFEST");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    let old = manifest.replacen("matcher=rete\n", "matcher=rete\njobs=2\nshards=4\n", 1);
    assert_ne!(old, manifest, "MANIFEST has a matcher line:\n{manifest}");
    std::fs::write(&manifest_path, old).unwrap();

    let bundle = CrashBundle::load(&bundle_dir).unwrap();
    assert_eq!(bundle.get("shards"), Some("4"));
    let shard = bundle.spans.iter().find(|s| s.lane == 1).unwrap();
    assert_eq!(shard.category, "other");
    assert_eq!(shard.attrs, vec![("attr", 3)]);
    let timeline = bundle.render_timeline();
    assert!(timeline.contains("matcher=rete cycle="), "{timeline}");
    assert!(bundle.render_perfetto().contains("\"name\":\"other\""));
    assert_eq!(
        bundle.explain("compete").unwrap(),
        ps.explain("compete").unwrap()
    );
    let summary = ProductionSystem::fsck_bundle(&bundle_dir).unwrap();
    assert!(summary.contains("crash bundle OK"), "{}", summary);
}
