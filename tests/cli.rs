//! End-to-end tests of the `sorete` command-line interpreter binary.

mod common;

use common::CrashDir;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sorete")
}

fn repo_file(rel: &str) -> String {
    format!("{}/{}", env!("CARGO_MANIFEST_DIR"), rel)
}

#[test]
fn runs_the_teams_program() {
    let out = Command::new(bin())
        .args([
            "--stats",
            "--wm",
            &repo_file("programs/teams.wm"),
            &repo_file("programs/teams.ops"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("removing duplicates of Sue on team B"),
        "{}",
        stdout
    );
    assert!(stdout.contains("team B"), "{}", stdout);
    assert!(stdout.contains("; stats: firings=2"), "{}", stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fired 2 rules"), "{}", stderr);
}

#[test]
fn all_matchers_agree_via_cli() {
    let mut outputs = Vec::new();
    for matcher in ["rete", "treat", "naive"] {
        let out = Command::new(bin())
            .args([
                "--matcher",
                matcher,
                "--wm",
                &repo_file("programs/teams.wm"),
                &repo_file("programs/teams.ops"),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}: {}",
            matcher,
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(String::from_utf8_lossy(&out.stdout).to_string());
    }
    assert_eq!(outputs[0], outputs[1], "rete vs treat");
    assert_eq!(outputs[0], outputs[2], "rete vs naive");
}

#[test]
fn monkey_and_bananas_plans_correctly() {
    for matcher in ["rete", "treat", "naive"] {
        let out = Command::new(bin())
            .args([
                "--matcher",
                matcher,
                "--strategy",
                "mea",
                "--wm",
                &repo_file("programs/monkey.wm"),
                &repo_file("programs/monkey.ops"),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let plan: Vec<&str> = stdout.lines().collect();
        assert_eq!(
            plan,
            vec![
                "plan: move the ladder",
                "plan: walk to the ladder",
                "walk to 2-2",
                "push ladder to 7-7",
                "climb the ladder",
                "grab bananas",
                "cleanup: 3 satisfied goals removed",
            ],
            "{}: {}",
            matcher,
            stdout
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("fired 7 rules"),
            "{}",
            matcher
        );
    }
}

/// Minimal structural JSON check: balanced quotes/braces/brackets and the
/// `{"ev":"<name>",...}` envelope every trace line must carry. Not a full
/// parser — just enough to catch malformed output without a JSON dep.
fn assert_jsonl_line(line: &str) {
    assert!(
        line.starts_with("{\"ev\":\"") && line.ends_with('}'),
        "bad envelope: {}",
        line
    );
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    for c in line.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced: {}", line);
    }
    assert!(depth == 0 && !in_str, "unterminated: {}", line);
    let name = &line["{\"ev\":\"".len()..];
    let name = &name[..name.find('"').unwrap()];
    const NAMES: &[&str] = &[
        "cycle_begin",
        "cycle_end",
        "wme_assert",
        "wme_retract",
        "alpha",
        "beta",
        "probe",
        "snode",
        "aggregate",
        "cs_insert",
        "cs_remove",
        "cs_retime",
        "fire",
        "skip",
        "rollback",
        "guard",
    ];
    assert!(NAMES.contains(&name), "unknown event `{}`: {}", name, line);
}

#[test]
fn trace_json_and_profile_smoke() {
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("smoke-trace.jsonl");
    let out = Command::new(bin())
        .args([
            "--profile",
            "--trace-json",
            trace.to_str().unwrap(),
            "--wm",
            &repo_file("programs/teams.wm"),
            &repo_file("programs/teams.ops"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("; profile [rete]:"), "{}", stdout);
    assert!(stdout.contains("node"), "{}", stdout);
    assert!(stdout.contains("production"), "{}", stdout);

    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 10, "suspiciously short trace:\n{}", jsonl);
    for line in &lines {
        assert_jsonl_line(line);
    }
    assert!(
        lines.iter().any(|l| l.contains("\"ev\":\"fire\"")),
        "{}",
        jsonl
    );
    assert!(
        lines.iter().any(|l| l.contains("\"ev\":\"cs_insert\"")),
        "{}",
        jsonl
    );
}

/// The logical (algorithm-independent) trace stream must be byte-identical
/// across the indexed and scan Rete variants.
#[test]
fn trace_json_logical_stream_matches_across_rete_variants() {
    const LOGICAL: &[&str] = &[
        "cycle_begin",
        "cycle_end",
        "wme_assert",
        "wme_retract",
        "cs_insert",
        "cs_remove",
        "cs_retime",
        "fire",
        "skip",
        "rollback",
        "guard",
    ];
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut streams = Vec::new();
    for matcher in ["rete", "rete-scan"] {
        let trace = dir.join(format!("logical-{}.jsonl", matcher));
        let out = Command::new(bin())
            .args([
                "--matcher",
                matcher,
                "--trace-json",
                trace.to_str().unwrap(),
                "--wm",
                &repo_file("programs/teams.wm"),
                &repo_file("programs/teams.ops"),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        let logical: Vec<String> = jsonl
            .lines()
            .filter(|l| {
                let name = &l["{\"ev\":\"".len()..];
                LOGICAL.contains(&&name[..name.find('"').unwrap()])
            })
            .map(str::to_string)
            .collect();
        assert!(!logical.is_empty());
        streams.push(logical.join("\n"));
    }
    assert_eq!(streams[0], streams[1], "rete vs rete-scan logical streams");
}

#[test]
fn reports_bad_usage() {
    let out = Command::new(bin()).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = Command::new(bin())
        .args(["--matcher", "ops83", "x.ops"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    // The sharded backend's knobs are gone: unknown flags, not no-ops.
    for flag in [["--jobs", "2"], ["--shards", "4"]] {
        let out = Command::new(bin())
            .args(flag)
            .arg(repo_file("programs/teams.ops"))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{:?}", flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag[0]), "{:?}: {}", flag, stderr);
    }
}

#[test]
fn reports_parse_errors_with_file_name() {
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ops");
    std::fs::write(&bad, "(p broken (a ^x <v>) (frobnicate))").unwrap();
    let out = Command::new(bin())
        .arg(bad.to_str().unwrap())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.ops"), "{}", stderr);
}

#[test]
fn repl_session() {
    let mut child = Command::new(bin())
        .args(["--repl", &repo_file("programs/teams.ops")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    {
        use std::io::Write;
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "cs").unwrap();
        writeln!(stdin, "run").unwrap();
        writeln!(stdin, "wm").unwrap();
        writeln!(stdin, "stats").unwrap();
        writeln!(stdin, "quit").unwrap();
    }
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("; => 1"), "{}", stdout);
    assert!(
        stdout.contains("removing duplicates of Ada on team A"),
        "{}",
        stdout
    );
    // After dedup only the most recent Ada remains.
    assert!(
        stdout.contains("2: (player ^name Ada ^team A)"),
        "{}",
        stdout
    );
    assert!(!stdout.contains("\n; 1: (player"), "{}", stdout);
    assert!(stdout.contains("; stats: firings="), "{}", stdout);
}

/// Pull `"key":<int>` out of a metrics JSONL line (no JSON dep).
fn jsonl_value(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{}\":", key);
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// Acceptance: the final `--metrics-json` snapshot's counters must equal
/// the `--stats` totals exactly (single-sourcing), and every counter must
/// be monotone across the per-cycle time series.
#[test]
fn metrics_jsonl_matches_stats_and_is_monotone() {
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("teams-metrics.jsonl");
    let out = Command::new(bin())
        .args([
            "--stats",
            "--metrics-json",
            metrics.to_str().unwrap(),
            "--wm",
            &repo_file("programs/teams.wm"),
            &repo_file("programs/teams.ops"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stats_line = stdout
        .lines()
        .find(|l| l.starts_with("; stats:"))
        .expect("stats line");
    let stat = |name: &str| -> u64 {
        let needle = format!("{}=", name);
        let at = stats_line.find(&needle).unwrap() + needle.len();
        stats_line[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };

    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(!lines.is_empty(), "per-cycle snapshots written");
    let last = lines.last().unwrap();
    assert_eq!(
        jsonl_value(last, "sorete_firings_total"),
        Some(stat("firings"))
    );
    assert_eq!(
        jsonl_value(last, "sorete_actions_total"),
        Some(stat("actions"))
    );
    assert_eq!(jsonl_value(last, "sorete_makes_total"), Some(stat("makes")));
    assert_eq!(
        jsonl_value(last, "sorete_removes_total"),
        Some(stat("removes"))
    );
    assert_eq!(
        jsonl_value(last, "sorete_modifies_total"),
        Some(stat("modifies"))
    );
    assert_eq!(
        jsonl_value(last, "sorete_writes_total"),
        Some(stat("writes"))
    );

    for counter in [
        "sorete_cycles_total",
        "sorete_firings_total",
        "sorete_actions_total",
        "sorete_wm_asserts_total",
        "sorete_wm_retracts_total",
        "sorete_match_beta_activations_total",
    ] {
        let mut prev = 0u64;
        for line in &lines {
            let v = jsonl_value(line, counter)
                .unwrap_or_else(|| panic!("{} missing in {}", counter, line));
            assert!(v >= prev, "{} not monotone: {} < {}", counter, v, prev);
            prev = v;
        }
    }
}

/// Acceptance: `--metrics-prom` output parses as Prometheus text
/// exposition — every sample line belongs to a family announced by a
/// `# TYPE` line, histograms carry `+Inf`/`_sum`/`_count`, and labeled
/// families quote their label values.
#[test]
fn metrics_prom_is_valid_exposition() {
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("teams.prom");
    let out = Command::new(bin())
        .args([
            "--metrics-prom",
            prom.to_str().unwrap(),
            "--wm",
            &repo_file("programs/teams.wm"),
            &repo_file("programs/teams.ops"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&prom).unwrap();
    let mut typed: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let family = it.next().unwrap().to_string();
            let kind = it.next().unwrap().to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "{}",
                line
            );
            typed.push((family, kind));
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // A sample: `name[{labels}] value`.
        let name_end = line.find(['{', ' ']).unwrap_or_else(|| panic!("{}", line));
        let name = &line[..name_end];
        let family = typed
            .iter()
            .find(|(f, _)| {
                name == f
                    || (name.starts_with(f.as_str())
                        && ["_bucket", "_sum", "_count"].contains(&&name[f.len()..]))
            })
            .unwrap_or_else(|| panic!("sample without TYPE: {}", line));
        if line.as_bytes()[name_end] == b'{' {
            let close = line.find('}').unwrap_or_else(|| panic!("{}", line));
            let labels = &line[name_end + 1..close];
            assert!(
                labels.contains("=\"") && labels.ends_with('"'),
                "unquoted label value: {}",
                line
            );
        }
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {}", line);
        let _ = family;
    }
    for want in [
        ("sorete_firings_total", "counter"),
        ("sorete_conflict_set_size", "gauge"),
        ("sorete_fire_nanos", "histogram"),
        ("sorete_memory_bytes", "gauge"),
    ] {
        assert!(
            typed.iter().any(|(f, k)| (f.as_str(), k.as_str()) == want),
            "missing family {:?} in:\n{}",
            want,
            text
        );
    }
    for (family, kind) in &typed {
        if kind == "histogram" {
            assert!(
                text.contains(&format!("{}_bucket{{le=\"+Inf\"}}", family)),
                "{} missing +Inf bucket",
                family
            );
            assert!(text.contains(&format!("{}_sum ", family)), "{}", family);
            assert!(text.contains(&format!("{}_count ", family)), "{}", family);
        }
    }
    assert!(
        text.contains("region=\""),
        "memory gauges carry region labels:\n{}",
        text
    );
}

/// Satellite: the metrics stream must be flushed when the run ends in an
/// error (here: an undeclared-attribute modify under the default Rollback
/// policy makes the run abort after the rollback).
#[test]
fn metrics_jsonl_flushes_on_error_exit() {
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("poison.ops");
    std::fs::write(
        &prog,
        "(literalize item x)
         (p bad (item ^x <v>) --> (modify 1 ^bogus 2))",
    )
    .unwrap();
    let facts = dir.join("poison.wm");
    std::fs::write(&facts, "(item ^x 1)").unwrap();
    let metrics = dir.join("poison-metrics.jsonl");
    let crash = CrashDir::new("cli-metrics-error-exit");
    let out = Command::new(bin())
        .args([
            "--crash-dir",
            crash.path().to_str().unwrap(),
            "--metrics-json",
            metrics.to_str().unwrap(),
            "--wm",
            facts.to_str().unwrap(),
            prog.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "poison program must fail");
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let last = jsonl.lines().last().expect("flushed on error exit");
    assert_eq!(jsonl_value(last, "sorete_rolled_back_total"), Some(1));
}

/// Durability satellite: a `--wal` run replays on restart — the second
/// invocation recovers working memory from the log, skips the fact files,
/// and finds nothing left to fire.
#[test]
fn wal_run_and_recover_via_cli() {
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join(format!("teams-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);

    let args = [
        "--wal",
        wal.to_str().unwrap(),
        "--wm",
        &repo_file("programs/teams.wm"),
        &repo_file("programs/teams.ops"),
    ];
    let first = Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(
        String::from_utf8_lossy(&first.stderr).contains("fired 2 rules"),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );

    // "Crash" and restart against the same log. The fact files are passed
    // again but must be ignored (recovery already restored them).
    let second = Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("; recovered "), "{}", stderr);
    assert!(
        stderr.contains("; skipping --wm fact files: state was recovered"),
        "{}",
        stderr
    );
    assert!(stderr.contains("fired 0 rules"), "{}", stderr);
    // The dedup already happened in run one; it must not re-fire.
    assert!(
        !String::from_utf8_lossy(&second.stdout).contains("removing duplicates"),
        "{}",
        String::from_utf8_lossy(&second.stdout)
    );
    let _ = std::fs::remove_file(&wal);
}

/// Durability satellite: `--checkpoint-every` cuts checkpoints during the
/// run and `--resume` restores one — on a *different* matcher — with no
/// re-firing.
#[test]
fn checkpoint_resume_cross_matcher_via_cli() {
    let dir = std::env::temp_dir().join("sorete-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join(format!("teams-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    let first = Command::new(bin())
        .args([
            "--checkpoint-every",
            "1",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--wm",
            &repo_file("programs/teams.wm"),
            &repo_file("programs/teams.ops"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("; checkpointed "), "{}", stderr);

    let second = Command::new(bin())
        .args([
            "--matcher",
            "treat",
            "--resume",
            ckpt.to_str().unwrap(),
            &repo_file("programs/teams.ops"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains("; resumed ") && stderr.contains("checkpointed from rete"),
        "{}",
        stderr
    );
    assert!(stderr.contains("fired 0 rules"), "{}", stderr);
    let _ = std::fs::remove_file(&ckpt);
}

/// The REPL `metrics` command renders the registry table; `watch` runs in
/// chunks re-rendering it.
#[test]
fn repl_metrics_and_watch() {
    let mut child = Command::new(bin())
        .args(["--repl", &repo_file("programs/teams.ops")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    {
        use std::io::Write;
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "metrics").unwrap();
        writeln!(stdin, "watch 1").unwrap();
        writeln!(stdin, "quit").unwrap();
    }
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sorete_wm_size"), "{}", stdout);
    assert!(stdout.contains("sorete_firings_total"), "{}", stdout);
    assert!(
        stdout.contains("removing duplicates of Ada on team A"),
        "{}",
        stdout
    );
    // watch printed at least two tables (the `metrics` one and its own).
    assert!(stdout.matches("; cycle ").count() >= 2, "{}", stdout);
}

// ---------------------------------------------------------------------------
// Typed exit codes, the recovery summary, and fsck

/// The deterministic failing workload: `bump` counts to 5, then `poison`
/// divides by zero forever.
const POISON_OPS: &str = "
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

fn cli_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sorete-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Paths of the poison program and its fact file. Written once per test
/// process: the tests sharing them run on parallel threads, and a rewrite
/// would truncate the files under a CLI another test has just spawned.
fn write_poison_fixture() -> (String, String) {
    static FIXTURE: std::sync::OnceLock<(String, String)> = std::sync::OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let prog = cli_dir("poison.ops");
            let wm = cli_dir("poison.wm");
            std::fs::write(&prog, POISON_OPS).unwrap();
            std::fs::write(&wm, "(counter ^n 0)\n").unwrap();
            (
                prog.to_str().unwrap().to_string(),
                wm.to_str().unwrap().to_string(),
            )
        })
        .clone()
}

#[test]
fn exit_codes_are_typed() {
    // 2: usage / parse errors.
    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(bin())
        .arg("does-not-exist.ops")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let (prog, wm) = write_poison_fixture();
    // Every abnormal exit below cuts a crash bundle; keep them out of the
    // working directory.
    let crash = CrashDir::new("cli-exit-codes");
    let crash_dir = crash.path().to_str().unwrap();
    // 3: the run stopped on an error.
    let out = Command::new(bin())
        .args(["--crash-dir", crash_dir, "--wm", &wm, &prog])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error after 5 firings"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 4: a hard resource budget ended the run.
    let out = Command::new(bin())
        .args([
            "--crash-dir",
            crash_dir,
            "--hard-mem",
            "1",
            "--wm",
            &wm,
            &prog,
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resource exhausted"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 5: durability errors (here: resuming a checkpoint that is not one).
    let bogus = cli_dir("bogus.ckpt");
    std::fs::write(&bogus, "not a checkpoint\n").unwrap();
    let out = Command::new(bin())
        .args(["--resume", bogus.to_str().unwrap(), &prog])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 6: everything left to fire is quarantined.
    let out = Command::new(bin())
        .args([
            "--crash-dir",
            crash_dir,
            "--supervise",
            "--recovery",
            "rollback",
            "--quarantine-after",
            "2",
            "--wm",
            &wm,
            &prog,
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(6),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantined (poison)"), "{}", stderr);
}

#[test]
fn wal_attach_always_prints_the_recovery_summary() {
    let (prog, wm) = write_poison_fixture();
    let wal = cli_dir("summary.wal");
    let _ = std::fs::remove_file(&wal);
    let count_prog = cli_dir("count.ops");
    std::fs::write(
        &count_prog,
        "(literalize counter n)\n(p bump (counter ^n <x> < 5) --> (modify 1 ^n (compute <x> + 1)))",
    )
    .unwrap();
    let _ = prog; // poison fixture shares the wm file
                  // First run: clean attach still prints the summary (all zeros).
    let out = Command::new(bin())
        .args([
            "--wal",
            wal.to_str().unwrap(),
            "--wm",
            &wm,
            count_prog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("; recovery: ") && stderr.contains("replayed=0"),
        "{}",
        stderr
    );
    // Second run: recovery replays the committed history and says so.
    let out = Command::new(bin())
        .args(["--wal", wal.to_str().unwrap(), count_prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("; recovery: "), "{}", stderr);
    assert!(!stderr.contains("replayed=0"), "{}", stderr);
    assert!(stderr.contains("commits="), "{}", stderr);
    assert!(stderr.contains("truncated_bytes="), "{}", stderr);
}

#[test]
fn fsck_validates_wal_and_checkpoint_pairing() {
    let wal = cli_dir("fsck.wal");
    let _ = std::fs::remove_file(&wal);
    let ckpt = cli_dir("fsck.wal.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let wm = cli_dir("fsck.wm");
    std::fs::write(&wm, "(counter ^n 0)\n").unwrap();
    let count_prog = cli_dir("fsck-count.ops");
    std::fs::write(
        &count_prog,
        "(literalize counter n)\n(p bump (counter ^n <x> < 5) --> (modify 1 ^n (compute <x> + 1)))",
    )
    .unwrap();
    let out = Command::new(bin())
        .args([
            "--wal",
            wal.to_str().unwrap(),
            "--checkpoint-every",
            "2",
            "--wm",
            wm.to_str().unwrap(),
            count_prog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A healthy pair: fsck reports framing + pairing and exits 0.
    let out = Command::new(bin())
        .args(["fsck", wal.to_str().unwrap(), ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fsck: wal"), "{}", stdout);
    assert!(stdout.contains("fsck: checkpoint"), "{}", stdout);
    assert!(stdout.contains("pairing ok"), "{}", stdout);
    assert!(stdout.contains("fsck: ok"), "{}", stdout);

    // A torn tail is reported but still recoverable: exit 0.
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
    let out = Command::new(bin())
        .args(["fsck", wal.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tail defect"), "{}", stdout);
    assert!(stdout.contains("recoverable"), "{}", stdout);

    // Garbage is not a WAL: exit 5.
    let junk = cli_dir("junk.wal");
    std::fs::write(&junk, "definitely not a log").unwrap();
    let out = Command::new(bin())
        .args(["fsck", junk.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // An unrelated checkpoint generation cannot pair: exit 5.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let bumped: String = text
        .lines()
        .map(|l| {
            if let Some(g) = l.strip_prefix("GEN\t") {
                let n: u64 = g.trim().parse().unwrap();
                format!("GEN\t{}\n", n + 7)
            } else {
                format!("{}\n", l)
            }
        })
        .collect();
    let bad_ckpt = cli_dir("fsck-bad.ckpt");
    std::fs::write(&bad_ckpt, bumped).unwrap();
    let out = Command::new(bin())
        .args(["fsck", wal.to_str().unwrap(), bad_ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("generation mismatch"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The REPL's quarantine/readmit commands flip conflict-set eligibility.
#[test]
fn repl_quarantine_and_readmit() {
    let (prog, wm) = write_poison_fixture();
    // The `run` below stalls on the quarantined rule: an abnormal stop.
    let crash = CrashDir::new("cli-repl-quarantine");
    let crash_dir = crash.path().to_str().unwrap();
    let mut child = Command::new(bin())
        .args(["--crash-dir", crash_dir, "--repl", "--wm", &wm, &prog])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    {
        use std::io::Write;
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "quarantine poison").unwrap();
        writeln!(stdin, "run").unwrap();
        writeln!(stdin, "readmit poison").unwrap();
        writeln!(stdin, "readmit poison").unwrap();
        writeln!(stdin, "quarantine no-such-rule").unwrap();
        writeln!(stdin, "quit").unwrap();
    }
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("; quarantined poison"), "{}", stdout);
    // With poison quarantined, bump counts to 5 and the run rests at
    // quiescence instead of dying on the division.
    assert!(stdout.contains("; fired 5"), "{}", stdout);
    assert!(stdout.contains("; readmitted poison"), "{}", stdout);
    assert!(
        stdout.contains("; poison was not quarantined"),
        "{}",
        stdout
    );
    assert!(
        stdout.contains("no rule named `no-such-rule`"),
        "{}",
        stdout
    );
}

// ---------------------------------------------------------------------------
// Span layer: Perfetto export, span-stats, and the REPL `spans` command

use sorete_lang::json::{self, Json};

/// Write the marking-scheme sweep fixture: many per-item cycles so the
/// trace has a real run → cycle → resolve/rhs structure.
fn write_sweep_fixture() -> (String, String) {
    let prog = cli_dir("sweep.ops");
    let wm = cli_dir("sweep.wm");
    std::fs::write(
        &prog,
        "(literalize item s)(literalize phase p)
         (p process-one (phase ^p sweep) (item ^s pending) (modify 2 ^s done))
         (p finish (phase ^p sweep) -(item ^s pending) (remove 1))",
    )
    .unwrap();
    let facts: String = std::iter::repeat_n("(item ^s pending)\n", 12)
        .chain(std::iter::once("(phase ^p sweep)\n"))
        .collect();
    std::fs::write(&wm, facts).unwrap();
    (
        prog.to_str().unwrap().to_string(),
        wm.to_str().unwrap().to_string(),
    )
}

/// Acceptance: `--trace-perfetto` emits valid Chrome trace-event JSON —
/// parseable, complete events only, span ids unique, run→cycle→phase
/// nesting correct, and one named track for the engine's single lane.
#[test]
fn trace_perfetto_schema_and_nesting() {
    let (prog, wm) = write_sweep_fixture();
    let trace = cli_dir("sweep.perfetto.json");
    let wal = cli_dir("sweep.perfetto.wal");
    let _ = std::fs::remove_file(&wal);
    let out = Command::new(bin())
        .args([
            "--wal",
            wal.to_str().unwrap(),
            "--trace-perfetto",
            trace.to_str().unwrap(),
            "--wm",
            &wm,
            &prog,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("wrote Perfetto trace"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON ({}): {}", e, text));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.len() > 20, "suspiciously short trace: {}", text);

    // Collect spans: id → (name, parent, tid); check per-event schema.
    let mut spans = std::collections::HashMap::new();
    let mut track_tids = std::collections::BTreeSet::new();
    let mut span_tids = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        assert_eq!(ev.get("pid").and_then(Json::as_u64), Some(1));
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
        match ph {
            "M" => {
                assert_eq!(ev.get("name").and_then(Json::as_str), Some("thread_name"));
                let label = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("thread_name label");
                assert_eq!(label, format!("lane {}", tid));
                assert!(track_tids.insert(tid), "duplicate track metadata: {}", tid);
            }
            "X" => {
                let name = ev.get("name").and_then(Json::as_str).expect("name");
                let cat = ev.get("cat").and_then(Json::as_str).expect("cat");
                assert!(["logical", "physical"].contains(&cat), "cat {}", cat);
                assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "ts");
                assert!(ev.get("dur").and_then(Json::as_f64).is_some(), "dur");
                let args = ev.get("args").expect("args");
                let id = args.get("id").and_then(Json::as_u64).expect("id");
                let parent = args.get("parent").and_then(Json::as_u64).expect("parent");
                assert!(id > 0, "span ids start at 1");
                assert!(
                    spans.insert(id, (name.to_string(), parent, tid)).is_none(),
                    "duplicate span id {}",
                    id
                );
                span_tids.insert(tid);
            }
            other => panic!("unexpected event phase {:?}", other),
        }
    }

    // One named track per lane that recorded spans: the engine's lane 0.
    assert_eq!(track_tids, span_tids, "every lane track is labeled");
    assert_eq!(track_tids, [0].into(), "one engine lane");

    // Nesting: cycles under the run; resolve/rhs/wal_commit under their
    // cycle.
    let name_of = |id: u64| spans.get(&id).map(|(n, _, _)| n.as_str());
    let mut cycles = 0;
    for (name, parent, _) in spans.values() {
        match name.as_str() {
            "cycle" => {
                cycles += 1;
                assert_eq!(name_of(*parent), Some("run"), "cycle must nest in run");
            }
            "resolve" | "rhs" | "wal_commit" => {
                assert_eq!(
                    name_of(*parent),
                    Some("cycle"),
                    "{} must nest in cycle",
                    name
                );
            }
            "match" => {
                assert!(
                    *parent == 0 || name_of(*parent) == Some("rhs"),
                    "match must be top-level (load) or inside rhs, got {:?}",
                    name_of(*parent)
                );
            }
            "run" => assert_eq!(*parent, 0, "run is a root span"),
            "wal_append" | "wal_flush" | "wal_fsync" => {}
            other => panic!("unexpected span category {:?}", other),
        }
    }
    // 12 process-one firings + finish: at least 13 cycles.
    assert!(cycles >= 13, "expected >=13 cycles, got {}", cycles);
    let _ = std::fs::remove_file(&wal);
}

/// `--span-stats` prints the per-category percentile table; `--stats`
/// carries the WAL write counters; the Prometheus export carries the WAL
/// write counter.
#[test]
fn span_stats_and_new_metric_families() {
    let (prog, wm) = write_sweep_fixture();
    let wal = cli_dir("sweep.stats.wal");
    let _ = std::fs::remove_file(&wal);
    let prom = cli_dir("sweep.prom");
    let out = Command::new(bin())
        .args([
            "--wal",
            wal.to_str().unwrap(),
            "--span-stats",
            "--stats",
            "--metrics-prom",
            prom.to_str().unwrap(),
            "--wm",
            &wm,
            &prog,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("; spans ("), "{}", stdout);
    for cat in ["cycle", "resolve", "rhs", "wal_commit"] {
        assert!(stdout.contains(cat), "missing {} in:\n{}", cat, stdout);
    }
    assert!(stdout.contains("p50us"), "{}", stdout);
    assert!(!stdout.contains("shard"), "{}", stdout);
    assert!(stdout.contains("; wal: records="), "{}", stdout);
    assert!(stdout.contains("writes="), "{}", stdout);

    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(!text.contains("sorete_shard"), "{}", text);
    assert!(
        text.contains("# TYPE sorete_wal_writes_total counter"),
        "{}",
        text
    );
    // Real samples, not just declarations.
    let sample = |family: &str| {
        text.lines()
            .find(|l| l.starts_with(family) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no sample for {}:\n{}", family, text))
    };
    assert!(sample("sorete_wal_writes_total") > 0);
    let _ = std::fs::remove_file(&wal);
}

/// The REPL `spans` command: first use arms the recorder, later calls
/// render the table.
#[test]
fn repl_spans_command() {
    let (prog, wm) = write_sweep_fixture();
    let mut child = Command::new(bin())
        .args(["--repl", "--wm", &wm, &prog])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    {
        use std::io::Write;
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "spans").unwrap();
        writeln!(stdin, "run").unwrap();
        writeln!(stdin, "spans").unwrap();
        writeln!(stdin, "quit").unwrap();
    }
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("; span recording enabled"), "{}", stdout);
    assert!(stdout.contains("category"), "{}", stdout);
    assert!(stdout.contains("cycle"), "{}", stdout);
    assert!(stdout.contains("rhs"), "{}", stdout);
}

// ---------------------------------------------------------------------------
// Flight recorder, crash bundles, and the offline inspector

#[test]
fn repl_explain_why_not_and_dump() {
    let mut child = Command::new(bin())
        .args(["--repl", &repo_file("programs/teams.ops")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    {
        use std::io::Write;
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "explain RemoveDups").unwrap();
        writeln!(stdin, "run").unwrap();
        writeln!(stdin, "why-not RemoveDups").unwrap();
        writeln!(stdin, "why-not no-such-rule").unwrap();
        writeln!(stdin, "dump").unwrap();
        writeln!(stdin, "quit").unwrap();
    }
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Live explain before the run: the duplicate pair is in the CS.
    assert!(stdout.contains("; explain RemoveDups — "), "{}", stdout);
    assert!(
        stdout.contains("instantiation(s) in the conflict set"),
        "{}",
        stdout
    );
    // After firing, why-not explains the now-empty CS.
    assert!(stdout.contains("; why-not RemoveDups — "), "{}", stdout);
    assert!(
        stdout.contains("no rule named `no-such-rule`"),
        "{}",
        stdout
    );
    // `dump` (no args) still prints working memory as a fact file.
    assert!(stdout.contains("(player ^name Ada ^team A)"), "{}", stdout);
}

#[test]
fn repl_dump_bundle_writes_an_inspectable_bundle() {
    let dir = cli_dir("repl-bundle");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(bin())
        .args(["--repl", &repo_file("programs/teams.ops")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    {
        use std::io::Write;
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "make (player ^name Ada ^team A)").unwrap();
        writeln!(stdin, "run").unwrap();
        writeln!(stdin, "dump bundle {}", dir.display()).unwrap();
        writeln!(stdin, "quit").unwrap();
    }
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let bundle = stdout
        .lines()
        .find_map(|l| l.split("wrote crash bundle to ").nth(1))
        .unwrap_or_else(|| panic!("no bundle line: {}", stdout))
        .trim();
    // Manual dumps are stamped stop=manual, and both inspectors take them.
    let out = Command::new(bin())
        .args(["debug", bundle])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let debug_out = String::from_utf8_lossy(&out.stdout);
    assert!(debug_out.contains("stop=manual"), "{}", debug_out);
    let out = Command::new(bin()).args(["fsck", bundle]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("fsck: ok"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_explain_matches_the_live_flag_byte_for_byte() {
    let dir = cli_dir("debug-diff");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (prog, wm) = write_poison_fixture();
    for matcher in ["rete", "rete-scan", "treat", "naive"] {
        // Live: the abnormal run prints --explain from the event log and
        // drops a bundle on its way out.
        let out = Command::new(bin())
            .args(["--matcher", matcher, "--explain", "poison", "--crash-dir"])
            .arg(&dir)
            .args(["--wm", &wm, &prog])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3));
        let live: String = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("; "))
            .map(|l| format!("{}\n", l))
            .collect();
        assert!(live.contains("explain poison"), "{}: {}", matcher, live);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let bundle = stderr
            .lines()
            .find_map(|l| l.split("crash bundle: ").nth(1))
            .unwrap_or_else(|| panic!("{}: no bundle in {}", matcher, stderr))
            .trim()
            .to_string();
        // Offline: same rule, same renderer, same bytes.
        let out = Command::new(bin())
            .args(["debug", &bundle, "explain", "poison"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            live,
            "{}: offline explain diverged",
            matcher
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_usage_and_bad_bundles_are_typed() {
    // No bundle dir at all.
    let out = Command::new(bin()).arg("debug").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // A directory that is not a bundle.
    let dir = cli_dir("not-a-bundle");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin()).arg("debug").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("debug:"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // An unknown subcommand.
    let (prog, wm) = write_poison_fixture();
    let bdir = cli_dir("typed-bundle");
    let _ = std::fs::remove_dir_all(&bdir);
    std::fs::create_dir_all(&bdir).unwrap();
    let out = Command::new(bin())
        .args(["--crash-dir"])
        .arg(&bdir)
        .args(["--wm", &wm, &prog])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let bundle = std::fs::read_dir(&bdir)
        .unwrap()
        .flatten()
        .find(|e| e.file_name().to_string_lossy().starts_with("sorete-crash-"))
        .expect("bundle written")
        .path();
    let out = Command::new(bin())
        .args(["debug"])
        .arg(&bundle)
        .arg("frobnicate")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Perfetto re-emit from the bundle parses as a JSON array shell.
    let trace = cli_dir("bundle-trace.json");
    let out = Command::new(bin())
        .args(["debug"])
        .arg(&bundle)
        .arg("perfetto")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.starts_with('{') && text.contains("\"traceEvents\""),
        "{}",
        &text[..text.len().min(80)]
    );
    let _ = std::fs::remove_dir_all(&bdir);
}
