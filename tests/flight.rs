//! Flight-recorder integration tests: the always-on black box, crash
//! bundles on abnormal exits, and the offline inspector's fidelity.
//!
//! The differential tests are the heart: `explain` / `why-not` rendered
//! from a crash bundle must be byte-identical to the live engine's
//! output at the moment the bundle was cut, for every matcher — also
//! after the ring has wrapped, since both read the same ring.

use sorete::core::{CrashBundle, FaultPlan, MatcherKind, ProductionSystem, StopReason};
use sorete_base::flight::DEFAULT_CAPACITY;
use sorete_base::{CollectSink, Flight, SharedSink, Symbol, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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

/// Past the ring's wrap, live `explain`/`why-not` still equal the
/// bundle's: both read the ring, so both see its window — not the whole
/// run.
#[test]
fn live_explain_reads_the_ring_past_its_wrap() {
    for kind in MATCHERS {
        let mut ps = ProductionSystem::new(kind);
        ps.set_flight_recorder(16);
        ps.load_program(
            "(literalize a x)
             (literalize b x)
             (p pair (a ^x <v>) (b ^x <v>) --> (write paired <v>))
             (p lost (a ^x 100) (b ^x 100) --> (write never))",
        )
        .unwrap();
        for x in 0..40 {
            ps.make_str("a", &[("x", Value::Int(x))]).unwrap();
            ps.make_str("b", &[("x", Value::Int(x))]).unwrap();
        }
        assert_eq!(ps.run(None).fired, 40, "{kind:?}");
        ps.make_str("a", &[("x", Value::Int(7))]).unwrap();
        ps.make_str("a", &[("x", Value::Int(100))]).unwrap();
        let b100 = ps.make_str("b", &[("x", Value::Int(100))]).unwrap();
        ps.retract_wme(b100).unwrap();
        assert!(
            ps.flight().counts().evicted > 0,
            "{kind:?}: ring did not wrap"
        );

        let live = ps.explain("pair").unwrap();
        assert!(live.contains("41 instantiation(s)"), "{kind:?}: {live}");
        // Only the ring's window of history: far fewer than the run's 41
        // inserts.
        let history = live.lines().find(|l| l.starts_with("history:")).unwrap();
        let inserts: u64 = history["history: ".len()..]
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(inserts < 16, "{kind:?}: {history}");
        let lost = ps.why_not("lost").unwrap();
        assert!(lost.contains("lost match"), "{kind:?}: {lost}");

        let dir = tmp(&format!("wrapped-{kind:?}"));
        let bundle = CrashBundle::load(&ps.dump_bundle(Some(&dir)).unwrap()).unwrap();
        assert_eq!(bundle.explain("pair").unwrap(), live, "{kind:?}");
        assert_eq!(bundle.why_not("lost").unwrap(), lost, "{kind:?}");
        assert_eq!(
            bundle.why_not("pair").unwrap(),
            ps.why_not("pair").unwrap(),
            "{kind:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The rings hold what the owned encoder writes

/// Assert the facts of a `.wm` file: one `(class ^attr value …)` per line.
fn assert_facts(ps: &mut ProductionSystem, src: &str) {
    for line in src.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let body = line.trim_start_matches('(').trim_end_matches(')');
        let mut words = body.split_whitespace();
        let class = words.next().unwrap();
        let words: Vec<&str> = words.collect();
        let slots: Vec<(&str, Value)> = words
            .chunks(2)
            .map(|pair| {
                let value = match pair[1] {
                    "nil" => Value::Nil,
                    v => v.parse().map(Value::Int).unwrap_or_else(|_| Value::sym(v)),
                };
                (pair[0].trim_start_matches('^'), value)
            })
            .collect();
        ps.make_str(class, &slots).unwrap();
    }
}

/// The engine records its hot events from borrowed state. Its event ring
/// must still hold exactly the bytes the owned encoder writes: the
/// events a sink collected, re-recorded into a fresh ring of the same
/// capacity, give the same stream (evictions included). The span and
/// cycle rings re-encode to themselves.
#[test]
fn rings_are_byte_identical_to_the_owned_encoding() {
    for program in ["teams", "monkey"] {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
        let ops = std::fs::read_to_string(dir.join(format!("{program}.ops"))).unwrap();
        let wm = std::fs::read_to_string(dir.join(format!("{program}.wm"))).unwrap();
        for kind in MATCHERS {
            for capacity in [16, DEFAULT_CAPACITY] {
                let mut ps = ProductionSystem::new(kind);
                ps.set_flight_recorder(capacity);
                ps.enable_spans();
                let sink = Arc::new(Mutex::new(CollectSink::new()));
                ps.add_trace_sink(sink.clone() as SharedSink);
                ps.load_program(&ops).unwrap();
                assert_facts(&mut ps, &wm);
                let outcome = ps.run(Some(200));
                assert!(outcome.fired > 0, "{program} {kind:?}: nothing fired");
                let what = format!("{program} {kind:?} capacity {capacity}");

                let flight = ps.flight();
                let mut owned = Flight::recording(capacity);
                for ev in sink.lock().unwrap().events() {
                    owned.record_event(ev);
                }
                assert!(flight.counts().events > 0, "{what}");
                assert_eq!(
                    flight.events_bytes(),
                    owned.events_bytes(),
                    "{what}: events"
                );

                let mut owned = Flight::recording(capacity);
                for span in flight.spans() {
                    owned.record_span(&span);
                }
                for cycle in flight.cycles() {
                    owned.record_cycle(&cycle);
                }
                assert!(flight.counts().spans > 0, "{what}");
                assert_eq!(flight.spans_bytes(), owned.spans_bytes(), "{what}: spans");
                assert_eq!(
                    flight.cycles_bytes(),
                    owned.cycles_bytes(),
                    "{what}: cycles"
                );
            }
        }
    }
}

/// `CycleRecord.firings` is the run's cumulative firing count (the
/// timeline's `firings` column), not the count of the rule that fired.
#[test]
fn cycle_records_carry_cumulative_firings() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(
        "(literalize counter n)
         (literalize flag on)
         (p bump (counter ^n <x> < 3) --> (modify 1 ^n (compute <x> + 1)))
         (p finish (counter ^n 3) --> (make flag ^on yes))",
    )
    .unwrap();
    ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
    ps.run(None);
    let cycles = ps.flight().cycles();
    let last = cycles.last().unwrap();
    assert_eq!(last.rule.as_str(), "finish");
    assert_eq!(last.firings, ps.stats().firings);
    let firings: Vec<u64> = cycles.iter().map(|c| c.firings).collect();
    assert_eq!(firings, vec![1, 2, 3, 4]);
}

/// The paper's tuple-oriented marking idiom: one `modify` per firing.
const MARKING: &str = "
    (literalize item id s)
    (literalize phase p)
    (p process-one (phase ^p sweep) (item ^s pending) --> (modify 2 ^s done))
    (p finish (phase ^p sweep) -(item ^s pending) --> (remove 1))
";

/// The recorder's work is pinned as a count, not a time: one one-action
/// tuple firing writes exactly six event frames and one cycle frame, on
/// every matcher, and evicts nothing from a ring with room.
#[test]
fn a_one_action_firing_records_six_events_and_one_cycle() {
    for kind in MATCHERS {
        let mut ps = ProductionSystem::new(kind);
        ps.load_program(MARKING).unwrap();
        for id in 0..3 {
            ps.make_str(
                "item",
                &[("id", Value::Int(id)), ("s", Value::sym("pending"))],
            )
            .unwrap();
        }
        ps.make_str("phase", &[("p", Value::sym("sweep"))]).unwrap();
        let before = ps.flight().counts();
        let fired = ps.step().unwrap().map(|r| r.as_str().to_string());
        assert_eq!(fired.as_deref(), Some("process-one"), "{kind:?}");
        let after = ps.flight().counts();
        assert_eq!(after.events - before.events, 6, "{kind:?}: event frames");
        assert_eq!(after.cycles - before.cycles, 1, "{kind:?}: cycle frames");
        assert_eq!(after.spans, 0, "{kind:?}: spans are off");
        assert_eq!(after.evicted, 0, "{kind:?}");
        let names: Vec<&str> = ps.flight().events()[before.events..]
            .iter()
            .map(|e| e.name())
            .collect();
        assert_eq!(
            names,
            [
                "cycle_begin",
                "fire",
                "wme_retract",
                "wme_assert",
                "cs_remove",
                "cycle_end"
            ],
            "{kind:?}"
        );
    }
}

/// Three `bump` firings with spans on and the recorder resized, in the
/// given order.
fn spans_and_resize(spans_first: bool) -> ProductionSystem {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    if spans_first {
        ps.enable_spans();
        ps.set_flight_recorder(64);
    } else {
        ps.set_flight_recorder(64);
        ps.enable_spans();
    }
    ps.load_program(
        "(literalize counter n)
         (p bump (counter ^n <x> < 3) --> (modify 1 ^n (compute <x> + 1)))",
    )
    .unwrap();
    ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
    assert_eq!(ps.run(None).fired, 3);
    ps
}

/// Resizing the recorder after `enable_spans` keeps the span ring fed:
/// the span ring holds the same spans whichever came first, and so does
/// a bundle cut from it.
#[test]
fn the_span_ring_does_not_depend_on_the_order_of_resize_and_enable_spans() {
    let (spans_first, resize_first) = (spans_and_resize(true), spans_and_resize(false));
    let closed = spans_first.span_snapshot().len();
    assert!(closed > 0);
    assert_eq!(resize_first.span_snapshot().len(), closed);
    let categories = |ps: &ProductionSystem| -> Vec<&'static str> {
        ps.flight().spans().iter().map(|s| s.category).collect()
    };
    assert_eq!(categories(&spans_first), categories(&resize_first));
    for mut ps in [spans_first, resize_first] {
        assert_eq!(ps.flight().capacity(), 64);
        assert_eq!(ps.flight().counts().spans, closed);
        let dir = tmp("span-order");
        let bundle = CrashBundle::load(&ps.dump_bundle(Some(&dir)).unwrap()).unwrap();
        assert_eq!(bundle.spans.len(), closed);
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
    spans.end(spans.begin(), "shard_match", || vec![("shard", 3)]);
    ps.run(None);
    let bundle_dir = ps.dump_bundle(Some(&dir)).unwrap();
    let manifest_path = bundle_dir.join("MANIFEST");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    let old = manifest.replacen("matcher=rete\n", "matcher=rete\njobs=2\nshards=4\n", 1);
    assert_ne!(old, manifest, "MANIFEST has a matcher line:\n{manifest}");
    std::fs::write(&manifest_path, old).unwrap();

    let bundle = CrashBundle::load(&bundle_dir).unwrap();
    assert_eq!(bundle.get("shards"), Some("4"));
    let shard = bundle.spans.iter().find(|s| s.category == "other").unwrap();
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
