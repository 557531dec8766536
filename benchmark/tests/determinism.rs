//! The op stream and every exact counter are functions of the seed alone;
//! tracing changes what is recorded, not what is executed.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["join_churn", "fire_tuple", "collect_set", "serve_durable"];

/// Counters that must repeat exactly for a seed and a round count.
const EXACT: [&str; 16] = [
    "rete.alpha_activations_per_op",
    "rete.beta_activations_per_op",
    "rete.join_tests_per_op",
    "rete.index_probes_per_op",
    "rete.tokens_created_per_op",
    "rete.tokens_deleted_per_op",
    "rete.tokens_per_cs_delta",
    "soi.snode_activations_per_op",
    "soi.aggregate_updates_per_op",
    "soi.recomputes_per_op",
    "core.select_visits_per_firing",
    "core.actions_per_firing",
    "core.firings_per_round",
    "reldb.wal_records_per_fact",
    "reldb.wal_bytes_per_fact",
    "reldb.wal_fsyncs_per_fact",
];

struct Run {
    notes: BTreeMap<String, String>,
    metrics: BTreeMap<String, f64>,
}

fn run(workload: &str, seed: u64, trace: bool, scale: u32, tag: &str) -> Run {
    let out_dir = format!(
        "{}/{}-{}-{}",
        env!("CARGO_TARGET_TMPDIR"),
        workload,
        seed,
        tag
    );
    let out = Command::new(env!("CARGO_BIN_EXE_sorete-benchmark"))
        .args(["run", "--workload", workload, "--rounds", "40"])
        .args(["--scale", &scale.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &out_dir])
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{} seed {} failed: {}\n{}",
        workload,
        seed,
        String::from_utf8_lossy(&out.stderr),
        stdout
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.contains("\"correct\": true") && last.contains("\"failed\": 0"),
        "{}",
        last
    );
    let mut r = Run {
        notes: BTreeMap::new(),
        metrics: BTreeMap::new(),
    };
    for line in stdout.lines() {
        if let Some(note) = line.strip_prefix("# ") {
            if let Some((k, v)) = note.split_once(" = ") {
                r.notes.insert(k.to_string(), v.to_string());
            }
        } else if !line.starts_with('{') {
            let mut words = line.split_whitespace();
            if let (Some(name), Some(value)) = (words.next(), words.next()) {
                if let Ok(v) = value.parse() {
                    r.metrics.insert(name.to_string(), v);
                }
            }
        }
    }
    // The run's temp root is gone; only a trace may remain.
    if let Ok(rd) = std::fs::read_dir(&out_dir) {
        for entry in rd.flatten() {
            let name = entry.file_name().into_string().unwrap_or_default();
            assert!(name.ends_with(".trace.json"), "left behind: {}", name);
        }
    }
    r
}

#[test]
fn same_seed_repeats_exactly() {
    for w in WORKLOADS {
        let a = run(w, 7, true, 50, "a");
        let b = run(w, 7, true, 50, "b");
        assert_eq!(a.notes["stream_hash"], b.notes["stream_hash"], "{}", w);
        assert_eq!(a.notes["firings"], b.notes["firings"], "{}", w);
        for name in EXACT {
            assert_eq!(a.metrics[name], b.metrics[name], "{} {}", w, name);
        }
        if w != "serve_durable" {
            // One thread, no wall-clock-dependent allocation: exact.
            let name = "harness.allocs_per_op";
            assert_eq!(a.metrics[name], b.metrics[name], "{} {}", w, name);
        }
    }
}

#[test]
fn another_seed_is_another_stream_of_the_same_shape() {
    for w in WORKLOADS {
        // 1/10 scale: at 1/50 a round is a handful of facts and two seeds'
        // per-op averages sit further apart than their shapes do.
        let a = run(w, 7, true, 10, "c");
        let b = run(w, 8, true, 10, "d");
        assert_ne!(a.notes["stream_hash"], b.notes["stream_hash"], "{}", w);
        for name in EXACT {
            let (x, y) = (a.metrics[name], b.metrics[name]);
            // Averages over every op of the run agree closely; the rest are
            // averages over the four traced rounds.
            let tolerance = if name.ends_with("_per_op") {
                0.03
            } else {
                0.25
            };
            assert!(
                (x - y).abs() <= tolerance * x.abs().max(y.abs()) + 1e-9,
                "{} {}: {} vs {}",
                w,
                name,
                x,
                y
            );
        }
    }
}

#[test]
fn tracing_does_not_change_what_is_executed() {
    for w in WORKLOADS {
        let plain = run(w, 7, false, 50, "e");
        let traced = run(w, 7, true, 50, "f");
        for note in ["stream_hash", "rounds", "firings", "wm_changes_per_round"] {
            assert_eq!(plain.notes[note], traced.notes[note], "{} {}", w, note);
        }
    }
}
