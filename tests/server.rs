//! `sorete-server` integration tests: the fault sweep the ISSUE demands.
//!
//! The differential harness drives identical request schedules against an
//! undisturbed server and servers with network-layer faults injected
//! (dropped connections, garbage frames, stalled responses), plus a real
//! SIGKILL + restart of the daemon binary — and asserts that every
//! surviving session's conflict set and checkpoint are **byte-identical**
//! to the uninterrupted run. The daemon itself must never exit on a
//! per-session failure.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use sorete::server::{Client, Ctx, NetFaultPlan, Server, ServerConfig, ServerReport};
use sorete_lang::json::Json;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sorete-server-it-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(cfg: ServerConfig) -> (String, Arc<Ctx>, std::thread::JoinHandle<ServerReport>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().unwrap().to_string();
    let ctx = server.ctx();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, ctx, handle)
}

fn stop_server(ctx: &Arc<Ctx>, handle: std::thread::JoinHandle<ServerReport>) -> ServerReport {
    ctx.request_stop();
    handle.join().expect("server thread")
}

const TEAMS_PROG: &str = "\
(literalize player name team)
(p MoveToB
  (player ^team A ^name <n>)
  -->
  (modify 1 ^team B))";

fn req(fields: Vec<(&str, Json)>) -> String {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .render()
}

fn player(name: &str, team: &str) -> Json {
    Json::Obj(vec![
        ("class".into(), Json::Str("player".into())),
        (
            "slots".into(),
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("team".into(), Json::Str(team.into())),
            ]),
        ),
    ])
}

/// The differential schedule for one session: open, load rules, assert a
/// roster, run, retract, run again. Every request is WAL-committed before
/// its response, so replaying this schedule against any fault plan must
/// land in the same final state.
fn schedule(session: &str) -> Vec<String> {
    let s = || Json::Str(session.into());
    vec![
        req(vec![
            ("op", Json::Str("open-session".into())),
            ("session", s()),
        ]),
        req(vec![
            ("op", Json::Str("load-rules".into())),
            ("session", s()),
            ("program", Json::Str(TEAMS_PROG.into())),
        ]),
        req(vec![
            ("op", Json::Str("assert-batch".into())),
            ("session", s()),
            (
                "facts",
                Json::Arr(vec![
                    player("jack", "A"),
                    player("janice", "A"),
                    player("sue", "B"),
                ]),
            ),
        ]),
        req(vec![
            ("op", Json::Str("run".into())),
            ("session", s()),
            ("limit", Json::Int(1)),
            ("deadline_ms", Json::Int(30_000)),
        ]),
        req(vec![
            ("op", Json::Str("assert-batch".into())),
            ("session", s()),
            (
                "facts",
                Json::Arr(vec![player("pat", "A"), player("kim", "A")]),
            ),
        ]),
        req(vec![
            ("op", Json::Str("retract".into())),
            ("session", s()),
            ("tag", Json::Int(3)),
        ]),
        // Limit 2 leaves at least one A-player in the conflict set, so the
        // byte-comparison covers a *non-empty* final conflict set.
        req(vec![
            ("op", Json::Str("run".into())),
            ("session", s()),
            ("limit", Json::Int(2)),
            ("deadline_ms", Json::Int(30_000)),
        ]),
    ]
}

/// Drive a schedule, reconnecting when a fault drops the connection. The
/// server commits every mutation *before* responding (and the drop fault
/// closes only after processing), so a request that errors out was still
/// applied — the driver reconnects and moves to the next request, exactly
/// once each.
fn drive(addr: &str, schedule: &[String]) {
    let mut client = Client::connect(addr).expect("connect");
    for line in schedule {
        if client.request(line).is_err() {
            client = Client::connect(addr).expect("reconnect");
        }
    }
}

/// Query a session's conflict set (idempotent: retried across drops).
fn query_cs(addr: &str, session: &str) -> (Vec<String>, i64) {
    for _ in 0..10 {
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let line = req(vec![
            ("op", Json::Str("query-conflict-set".into())),
            ("session", Json::Str(session.into())),
        ]);
        if let Ok(resp) = client.request(&line) {
            assert_eq!(
                resp.get("ok").and_then(|v| v.as_bool()),
                Some(true),
                "query-conflict-set failed: {}",
                resp.render()
            );
            let lines: Vec<String> = resp
                .get("conflict_set")
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect();
            let firings = resp.get("firings").and_then(|v| v.as_i64()).unwrap();
            return (lines, firings);
        }
    }
    panic!("query-conflict-set never succeeded");
}

struct RunResult {
    cs: Vec<(Vec<String>, i64)>,
    ckpts: Vec<Vec<u8>>,
    report: ServerReport,
}

/// Run the full two-session schedule against a server with the given
/// fault plan; return conflict sets, shutdown checkpoints, and the report.
fn run_schedules(tag: &str, fault: Option<NetFaultPlan>) -> RunResult {
    let dir = temp_dir(tag);
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        fault,
        ..ServerConfig::default()
    });
    let sessions = ["alpha", "beta"];
    for s in &sessions {
        drive(&addr, &schedule(s));
    }
    let cs = sessions.iter().map(|s| query_cs(&addr, s)).collect();
    let report = stop_server(&ctx, handle);
    let ckpts = sessions
        .iter()
        .map(|s| std::fs::read(dir.join(s).join("session.ckpt")).expect("checkpoint written"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    RunResult { cs, ckpts, report }
}

// ---------------------------------------------------------------------
// The fault sweep: drop / garbage / stall vs the undisturbed oracle.

#[test]
fn fault_sweep_is_byte_identical_to_uninterrupted_run() {
    let oracle = run_schedules("oracle", None);
    assert!(
        !oracle.cs[0].0.is_empty() || oracle.cs[0].1 > 0,
        "oracle did nothing: cs={:?} firings={}",
        oracle.cs[0].0,
        oracle.cs[0].1
    );
    assert_eq!(
        oracle.report.checkpointed, 2,
        "both dirty sessions checkpoint"
    );

    for spec in ["drop:3", "garbage:2", "stall:2"] {
        let fault = NetFaultPlan::parse(spec).unwrap();
        let faulted = run_schedules(&format!("fault-{}", spec.replace(':', "-")), Some(fault));
        for (i, name) in ["alpha", "beta"].iter().enumerate() {
            assert_eq!(
                faulted.cs[i].0, oracle.cs[i].0,
                "{}: session {} conflict set diverged",
                spec, name
            );
            assert_eq!(
                faulted.cs[i].1, oracle.cs[i].1,
                "{}: session {} firings diverged",
                spec, name
            );
            assert_eq!(
                faulted.ckpts[i], oracle.ckpts[i],
                "{}: session {} checkpoint not byte-identical",
                spec, name
            );
        }
    }
}

// ---------------------------------------------------------------------
// Concurrent load: 8 sessions × 40 assert-batches of 25 facts, no errors.

/// Every request of a concurrent bulk load is answered `ok` — no error,
/// no timeout — and every session ends holding exactly what it asserted.
#[test]
fn concurrent_bulk_load_answers_every_request_ok() {
    const SESSIONS: usize = 8;
    const BATCHES: usize = 40;
    const FACTS: usize = 25;
    let dir = temp_dir("bulk-load");
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        default_deadline_ms: 30_000,
        ..ServerConfig::default()
    });
    let clients: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let session = format!("load-{}", i);
                let s = || Json::Str(session.clone());
                let item = |v: usize| {
                    Json::Obj(vec![
                        ("class".into(), Json::Str("item".into())),
                        (
                            "slots".into(),
                            Json::Obj(vec![("v".into(), Json::Int(v as i64))]),
                        ),
                    ])
                };
                let mut lines = vec![
                    req(vec![
                        ("op", Json::Str("open-session".into())),
                        ("session", s()),
                    ]),
                    req(vec![
                        ("op", Json::Str("load-rules".into())),
                        ("session", s()),
                        ("program", Json::Str("(p watch [item ^v 0] (halt))".into())),
                    ]),
                ];
                lines.extend((0..BATCHES).map(|b| {
                    req(vec![
                        ("op", Json::Str("assert-batch".into())),
                        ("session", s()),
                        (
                            "facts",
                            Json::Arr((1..=FACTS).map(|f| item(b * FACTS + f)).collect()),
                        ),
                    ])
                }));
                lines.push(req(vec![
                    ("op", Json::Str("run".into())),
                    ("session", s()),
                    ("limit", Json::Int(1)),
                ]));
                lines.push(req(vec![
                    ("op", Json::Str("query-conflict-set".into())),
                    ("session", s()),
                ]));
                let mut client = Client::connect(&addr).expect("connect");
                let mut last = Json::Null;
                for line in &lines {
                    last = client.request(line).expect("response");
                    assert_eq!(
                        last.get("ok").and_then(|v| v.as_bool()),
                        Some(true),
                        "{}: {}",
                        session,
                        last.render()
                    );
                }
                last.get("wm").and_then(|v| v.as_i64())
            })
        })
        .collect();
    for client in clients {
        let wm = client.join().expect("client thread");
        assert_eq!(wm, Some((BATCHES * FACTS) as i64));
    }
    stop_server(&ctx, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// A stalled client is dropped past the read deadline; the daemon lives.

#[test]
fn stalled_client_is_dropped_but_daemon_survives() {
    let dir = temp_dir("stalled-client");
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        read_timeout_ms: 150,
        ..ServerConfig::default()
    });

    // Connect and go silent past the server's read deadline.
    let mut stalled = Client::connect(&addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));
    let dead = stalled
        .request(&req(vec![("op", Json::Str("health".into()))]))
        .is_err();
    assert!(dead, "the stalled connection should have been dropped");

    // The daemon is unharmed: a fresh connection gets a healthy answer.
    let mut fresh = Client::connect(&addr).unwrap();
    let resp = fresh
        .request(&req(vec![("op", Json::Str("health".into()))]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));

    stop_server(&ctx, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Per-session failures (bad frames, run errors, deadline timeouts) are
// answered with typed errors and never take the daemon down.

#[test]
fn per_session_failure_never_exits_the_daemon() {
    let dir = temp_dir("session-failure");
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();

    // Garbage frame: typed bad-frame, connection stays open.
    let resp = client.request("%%% not json %%%").unwrap();
    assert_eq!(
        resp.get("error").and_then(|v| v.as_str()),
        Some("bad-frame")
    );

    // Unknown session: typed no-such-session.
    let resp = client
        .request(&req(vec![
            ("op", Json::Str("run".into())),
            ("session", Json::Str("ghost".into())),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(|v| v.as_str()),
        Some("no-such-session")
    );

    // A poisoned session: sessions run supervised, so the divide-by-zero
    // RHS trips the breaker and the rule is quarantined — the session (and
    // daemon) stay alive, and the response carries the typed code plus the
    // quarantined rule names.
    for line in [
        req(vec![
            ("op", Json::Str("open-session".into())),
            ("session", Json::Str("poison".into())),
        ]),
        req(vec![
            ("op", Json::Str("load-rules".into())),
            ("session", Json::Str("poison".into())),
            (
                "program",
                Json::Str(
                    "(literalize counter n)\n\
                     (p boom (counter ^n <x>) --> (modify 1 ^n (compute <x> / 0)))"
                        .into(),
                ),
            ),
        ]),
        req(vec![
            ("op", Json::Str("assert-batch".into())),
            ("session", Json::Str("poison".into())),
            (
                "facts",
                Json::Arr(vec![Json::Obj(vec![
                    ("class".into(), Json::Str("counter".into())),
                    ("slots".into(), Json::Obj(vec![("n".into(), Json::Int(1))])),
                ])]),
            ),
        ]),
    ] {
        let resp = client.request(&line).unwrap();
        assert_eq!(
            resp.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{}",
            resp.render()
        );
    }
    let resp = client
        .request(&req(vec![
            ("op", Json::Str("run".into())),
            ("session", Json::Str("poison".into())),
            ("deadline_ms", Json::Int(30_000)),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(|v| v.as_str()),
        Some("quarantined"),
        "{}",
        resp.render()
    );
    assert!(
        resp.render().contains("boom"),
        "quarantined response names the rule: {}",
        resp.render()
    );

    // A hot loop against a 1ms deadline: typed timeout, engine intact.
    for line in [
        req(vec![
            ("op", Json::Str("open-session".into())),
            ("session", Json::Str("spin".into())),
        ]),
        req(vec![
            ("op", Json::Str("load-rules".into())),
            ("session", Json::Str("spin".into())),
            (
                "program",
                Json::Str(
                    "(literalize tick n)\n\
                     (p spin (tick ^n <x>) --> (modify 1 ^n (compute <x> + 1)))"
                        .into(),
                ),
            ),
        ]),
        req(vec![
            ("op", Json::Str("assert-batch".into())),
            ("session", Json::Str("spin".into())),
            (
                "facts",
                Json::Arr(vec![Json::Obj(vec![
                    ("class".into(), Json::Str("tick".into())),
                    ("slots".into(), Json::Obj(vec![("n".into(), Json::Int(0))])),
                ])]),
            ),
        ]),
    ] {
        let resp = client.request(&line).unwrap();
        assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    }
    let resp = client
        .request(&req(vec![
            ("op", Json::Str("run".into())),
            ("session", Json::Str("spin".into())),
            ("deadline_ms", Json::Int(1)),
        ]))
        .unwrap();
    assert_eq!(resp.get("error").and_then(|v| v.as_str()), Some("timeout"));

    // After all of that, the daemon still answers and the healthy session
    // count is intact.
    let resp = client
        .request(&req(vec![("op", Json::Str("health".into()))]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(resp.get("sessions").and_then(|v| v.as_i64()), Some(2));

    stop_server(&ctx, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Backpressure: a busy session answers `overloaded` instead of queueing.

/// A batch that stops in the middle keeps the facts before the bad one:
/// the error says how many, they are durable, and the session is dirty —
/// so the drain checkpoints it, like any other session that took writes.
#[test]
fn batch_stopped_by_a_malformed_fact_reports_and_keeps_its_prefix() {
    let dir = temp_dir("partial-batch");
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        ..ServerConfig::default()
    });
    let s = || Json::Str("partial".into());
    let mut client = Client::connect(&addr).unwrap();
    for line in [
        req(vec![
            ("op", Json::Str("open-session".into())),
            ("session", s()),
        ]),
        req(vec![
            ("op", Json::Str("load-rules".into())),
            ("session", s()),
            ("program", Json::Str(TEAMS_PROG.into())),
        ]),
    ] {
        let resp = client.request(&line).unwrap();
        assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    }
    let resp = client
        .request(&req(vec![
            ("op", Json::Str("assert-batch".into())),
            ("session", s()),
            (
                "facts",
                Json::Arr(vec![
                    player("ann", "A"),
                    player("bob", "A"),
                    player("cat", "A"),
                    Json::Int(7),
                    player("dan", "A"),
                ]),
            ),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(|v| v.as_str()),
        Some("bad-request"),
        "{}",
        resp.render()
    );
    assert_eq!(resp.get("asserted").and_then(|v| v.as_i64()), Some(3));
    drop(client);

    // A fresh connection sees exactly the three players before the bad
    // fact, one MoveToB instantiation each.
    let (cs, _) = query_cs(&addr, "partial");
    assert_eq!(cs.len(), 3, "{:?}", cs);

    let report = stop_server(&ctx, handle);
    assert_eq!(report.checkpointed, 1, "the partial batch left it dirty");
    assert!(dir.join("partial").join("session.ckpt").exists());

    // And so does the next daemon over the same data directory.
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        ..ServerConfig::default()
    });
    let (cs, _) = query_cs(&addr, "partial");
    assert_eq!(cs.len(), 3, "after restart: {:?}", cs);
    stop_server(&ctx, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn busy_session_gets_overloaded_not_a_queue() {
    let dir = temp_dir("backpressure");
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        default_deadline_ms: 30_000,
        ..ServerConfig::default()
    });
    let mut a = Client::connect(&addr).unwrap();
    for line in [
        req(vec![
            ("op", Json::Str("open-session".into())),
            ("session", Json::Str("busy".into())),
        ]),
        req(vec![
            ("op", Json::Str("load-rules".into())),
            ("session", Json::Str("busy".into())),
            (
                "program",
                Json::Str(
                    "(literalize tick n)\n\
                     (p spin (tick ^n <x>) --> (modify 1 ^n (compute <x> + 1)))"
                        .into(),
                ),
            ),
        ]),
        req(vec![
            ("op", Json::Str("assert-batch".into())),
            ("session", Json::Str("busy".into())),
            (
                "facts",
                Json::Arr(vec![Json::Obj(vec![
                    ("class".into(), Json::Str("tick".into())),
                    ("slots".into(), Json::Obj(vec![("n".into(), Json::Int(0))])),
                ])]),
            ),
        ]),
    ] {
        assert_eq!(
            a.request(&line)
                .unwrap()
                .get("ok")
                .and_then(|v| v.as_bool()),
            Some(true)
        );
    }
    // Hold the session busy with a long run on one connection…
    let addr2 = addr.clone();
    let runner = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        // The poker below starts at the same moment: if one of its queries
        // holds the session when the run arrives, the run is the one told
        // `overloaded` — and, as the contract says, asks again.
        loop {
            let resp = c
                .request(&req(vec![
                    ("op", Json::Str("run".into())),
                    ("session", Json::Str("busy".into())),
                    ("deadline_ms", Json::Int(600)),
                ]))
                .unwrap();
            if resp.get("error").and_then(|v| v.as_str()) != Some("overloaded") {
                break resp;
            }
        }
    });
    // …and poke it from another until backpressure answers.
    let mut saw_overloaded = false;
    let mut b = Client::connect(&addr).unwrap();
    for _ in 0..100 {
        let resp = b
            .request(&req(vec![
                ("op", Json::Str("query-conflict-set".into())),
                ("session", Json::Str("busy".into())),
            ]))
            .unwrap();
        if resp.get("error").and_then(|v| v.as_str()) == Some("overloaded") {
            saw_overloaded = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let run_resp = runner.join().unwrap();
    assert!(
        saw_overloaded,
        "never saw overloaded while the run held the session"
    );
    assert_eq!(
        run_resp.get("error").and_then(|v| v.as_str()),
        Some("timeout"),
        "the spinning run ends on its deadline: {}",
        run_resp.render()
    );
    stop_server(&ctx, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Admission control: session-count and aggregate-byte limits are typed.

#[test]
fn admission_control_rejects_over_limit_work() {
    let dir = temp_dir("admission");
    let (addr, ctx, handle) = start_server(ServerConfig {
        data_dir: dir.clone(),
        max_sessions: 2,
        max_total_bytes: 1, // any real working memory trips the byte gate
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    for name in ["s0", "s1"] {
        let resp = client
            .request(&req(vec![
                ("op", Json::Str("open-session".into())),
                ("session", Json::Str(name.into())),
            ]))
            .unwrap();
        assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    }
    let resp = client
        .request(&req(vec![
            ("op", Json::Str("open-session".into())),
            ("session", Json::Str("s2".into())),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(|v| v.as_str()),
        Some("session-limit")
    );
    // The byte gauge is published after every request; with a 1-byte
    // budget the next mutation is refused.
    let resp = client
        .request(&req(vec![
            ("op", Json::Str("assert-batch".into())),
            ("session", Json::Str("s0".into())),
            (
                "facts",
                Json::Arr(vec![Json::Obj(vec![
                    ("class".into(), Json::Str("t".into())),
                    ("slots".into(), Json::Obj(vec![("v".into(), Json::Int(1))])),
                ])]),
            ),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(|v| v.as_str()),
        Some("memory-limit")
    );
    stop_server(&ctx, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// SIGKILL + restart of the real daemon binary: both sessions resume from
// their WALs with state identical to an uninterrupted run.

struct Daemon {
    child: std::process::Child,
    addr: String,
}

fn spawn_daemon(dir: &std::path::Path) -> Daemon {
    use std::io::BufRead as _;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sorete"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--data-dir"])
        .arg(dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn sorete serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = first
        .rsplit(' ')
        .next()
        .expect("address on the listening line")
        .to_string();
    assert!(first.contains("listening"), "{}", first);
    Daemon { child, addr }
}

#[test]
fn sigkill_and_restart_recovers_both_sessions_byte_identically() {
    // Oracle: the full schedule against an in-process server, no kill.
    let oracle = run_schedules("sigkill-oracle", None);

    let dir = temp_dir("sigkill");
    let mut daemon = spawn_daemon(&dir);
    // Phase A: everything up to (and including) the first run, acknowledged.
    for s in ["alpha", "beta"] {
        drive(&daemon.addr, &schedule(s)[..4]);
    }
    // SIGKILL: no checkpoint, no goodbye — the WAL is the only truth.
    daemon.child.kill().expect("SIGKILL the daemon");
    let _ = daemon.child.wait();

    // Restart over the same data dir; sessions recover from their WALs.
    let daemon = spawn_daemon(&dir);
    let mut client = Client::connect(&daemon.addr).unwrap();
    for s in ["alpha", "beta"] {
        let resp = client
            .request(&req(vec![
                ("op", Json::Str("open-session".into())),
                ("session", Json::Str((*s).into())),
            ]))
            .unwrap();
        assert_eq!(
            resp.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{}",
            resp.render()
        );
        assert_eq!(
            resp.get("recovered").and_then(|v| v.as_bool()),
            Some(true),
            "session {} should recover from its WAL: {}",
            s,
            resp.render()
        );
    }
    drop(client);
    // Phase B: the rest of the schedule, then compare against the oracle.
    for s in ["alpha", "beta"] {
        drive(&daemon.addr, &schedule(s)[4..]);
    }
    for (i, s) in ["alpha", "beta"].iter().enumerate() {
        let (cs, firings) = query_cs(&daemon.addr, s);
        assert_eq!(
            cs, oracle.cs[i].0,
            "session {} conflict set diverged after SIGKILL",
            s
        );
        assert_eq!(
            firings, oracle.cs[i].1,
            "session {} stats diverged after SIGKILL",
            s
        );
    }
    // Graceful shutdown via the protocol; the daemon checkpoints and exits 0.
    let mut client = Client::connect(&daemon.addr).unwrap();
    let resp = client
        .request(&req(vec![("op", Json::Str("shutdown".into()))]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "graceful shutdown exits 0: {:?}", status);
    for (i, s) in ["alpha", "beta"].iter().enumerate() {
        let ckpt = std::fs::read(dir.join(s).join("session.ckpt")).expect("checkpoint written");
        assert_eq!(
            ckpt, oracle.ckpts[i],
            "session {} checkpoint not byte-identical after SIGKILL + restart",
            s
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Satellite: N sessions driven with interleaved (concurrent) schedules
// produce conflict sets and checkpoints byte-identical to the same
// sessions run serially in isolation.

fn lcg_schedule(session: &str, seed: u64) -> Vec<String> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut rng = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let s = || Json::Str(session.into());
    let mut out = vec![
        req(vec![
            ("op", Json::Str("open-session".into())),
            ("session", s()),
        ]),
        req(vec![
            ("op", Json::Str("load-rules".into())),
            ("session", s()),
            (
                "program",
                Json::Str(
                    "(literalize item v)\n\
                     (p sweep { [item ^v > 0] <S> } :test ((count <S>) > 2) -->\n\
                        (set-modify <S> ^v 0))"
                        .into(),
                ),
            ),
        ]),
    ];
    let mut asserted = 0u64;
    for _ in 0..10 {
        match rng(4) {
            0 | 1 => {
                let k = rng(3) + 1;
                let facts: Vec<Json> = (0..k)
                    .map(|_| {
                        Json::Obj(vec![
                            ("class".into(), Json::Str("item".into())),
                            (
                                "slots".into(),
                                Json::Obj(vec![("v".into(), Json::Int((rng(9) + 1) as i64))]),
                            ),
                        ])
                    })
                    .collect();
                asserted += k;
                out.push(req(vec![
                    ("op", Json::Str("assert-batch".into())),
                    ("session", s()),
                    ("facts", Json::Arr(facts)),
                ]));
            }
            2 if asserted > 0 => {
                // Retracting an already-dead tag answers run-error in both
                // modes — still deterministic.
                out.push(req(vec![
                    ("op", Json::Str("retract".into())),
                    ("session", s()),
                    ("tag", Json::Int((rng(asserted) + 1) as i64)),
                ]));
            }
            _ => {
                out.push(req(vec![
                    ("op", Json::Str("run".into())),
                    ("session", s()),
                    ("limit", Json::Int((rng(3) + 1) as i64)),
                    ("deadline_ms", Json::Int(30_000)),
                ]));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn interleaved_sessions_match_serial_isolation(seed in 0u64..1_000_000) {
        let names = ["p0", "p1", "p2"];

        // Interleaved: one server, every session driven concurrently.
        let dir = temp_dir(&format!("prop-inter-{}", seed));
        let (addr, ctx, handle) = start_server(ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        });
        let threads: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let addr = addr.clone();
                let sched = lcg_schedule(name, seed + i as u64);
                std::thread::spawn(move || drive(&addr, &sched))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let interleaved: Vec<(Vec<String>, i64)> =
            names.iter().map(|n| query_cs(&addr, n)).collect();
        stop_server(&ctx, handle);
        let inter_ckpts: Vec<Vec<u8>> = names
            .iter()
            .map(|n| std::fs::read(dir.join(n).join("session.ckpt")).unwrap_or_default())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);

        // Serial isolation: each session alone on its own server.
        for (i, name) in names.iter().enumerate() {
            let dir = temp_dir(&format!("prop-serial-{}-{}", seed, name));
            let (addr, ctx, handle) = start_server(ServerConfig {
                data_dir: dir.clone(),
                ..ServerConfig::default()
            });
            drive(&addr, &lcg_schedule(name, seed + i as u64));
            let (cs, firings) = query_cs(&addr, name);
            stop_server(&ctx, handle);
            let ckpt = std::fs::read(dir.join(name).join("session.ckpt")).unwrap_or_default();
            let _ = std::fs::remove_dir_all(&dir);

            prop_assert_eq!(&cs, &interleaved[i].0, "session {} conflict set", name);
            prop_assert_eq!(firings, interleaved[i].1, "session {} firings", name);
            prop_assert_eq!(&ckpt, &inter_ckpts[i], "session {} checkpoint", name);
        }
    }
}
