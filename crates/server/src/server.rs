//! The daemon: TCP listener, request dispatch, admission control,
//! deadlines, fault injection, and crash-safe shutdown.
//!
//! Threading model: one accept loop (non-blocking, polling the shutdown
//! flag) plus one thread per connection. Each request takes its session's
//! mutex with `try_lock`; a busy session answers `overloaded` immediately —
//! the server never queues work it has not admitted.
//!
//! Robustness invariants, in order of importance:
//!
//! 1. **The daemon never exits on a per-session failure.** Engine errors,
//!    quarantines, malformed frames, and dropped connections are all
//!    answered (or logged) and the loop continues.
//! 2. **Faults never corrupt state.** Every mutation is WAL-committed
//!    before its response is written, so a dropped connection or stalled
//!    response leaves the session exactly as if the request had completed
//!    normally — the differential tests in `tests/` assert byte-identical
//!    conflict sets and checkpoints against an undisturbed run.
//! 3. **Shutdown is a checkpoint, not an abort.** SIGTERM/SIGINT (or the
//!    `shutdown` op) stops admission, interrupts in-flight runs at a firing
//!    boundary, checkpoints every dirty session, and only then returns.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sorete_base::{TimeTag, Value};
use sorete_core::{GuardViolation, ProductionSystem, StopReason};
use sorete_lang::json::{self, Json};

use crate::proto::{codes, parse_request, Request, Response};
use crate::session::{Session, SessionStore};

/// Network-layer fault injection: what to break and every how many frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultMode {
    /// Close the connection after processing a frame, before responding.
    Drop,
    /// Sleep before responding (past any client deadline).
    Stall,
    /// Write a garbage line before the real response.
    Garbage,
}

/// A fault plan: trigger `mode` every `every`-th frame on each connection.
#[derive(Clone, Copy, Debug)]
pub struct NetFaultPlan {
    /// What to break.
    pub mode: NetFaultMode,
    /// Trigger on every Nth frame (1-based; 0 disables).
    pub every: u64,
    /// Stall duration for [`NetFaultMode::Stall`].
    pub stall: Duration,
}

impl NetFaultPlan {
    /// Parse `drop:N` / `stall:N` / `garbage:N`.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let (mode, n) = match spec.split_once(':') {
            Some((m, n)) => (m, n),
            None => return Err(format!("bad fault spec {:?} (want mode:N)", spec)),
        };
        let every: u64 = n.parse().map_err(|_| format!("bad fault count {:?}", n))?;
        let mode = match mode {
            "drop" => NetFaultMode::Drop,
            "stall" => NetFaultMode::Stall,
            "garbage" => NetFaultMode::Garbage,
            other => return Err(format!("unknown fault mode {:?}", other)),
        };
        Ok(NetFaultPlan {
            mode,
            every,
            stall: Duration::from_millis(150),
        })
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Directory holding one subdirectory per session.
    pub data_dir: PathBuf,
    /// Admission: maximum live sessions.
    pub max_sessions: usize,
    /// Admission: maximum concurrent connections.
    pub max_connections: usize,
    /// Admission: maximum aggregate working-memory bytes across sessions.
    pub max_total_bytes: u64,
    /// Default per-request deadline when the frame names none.
    pub default_deadline_ms: u64,
    /// Socket read timeout — a client stalled longer than this is dropped.
    pub read_timeout_ms: u64,
    /// Fault injection (tests only).
    pub fault: Option<NetFaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("sorete-data"),
            max_sessions: 64,
            max_connections: 64,
            max_total_bytes: 256 << 20,
            default_deadline_ms: 5_000,
            read_timeout_ms: 10_000,
            fault: None,
        }
    }
}

/// What a server run did, returned when the accept loop exits.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerReport {
    /// Sessions checkpointed during graceful shutdown.
    pub checkpointed: u64,
    /// Sessions that failed to checkpoint (logged, not fatal).
    pub checkpoint_failures: u64,
    /// Total requests served.
    pub requests: u64,
    /// Connections accepted.
    pub connections: u64,
}

/// Shared server state, one per daemon.
pub struct Ctx {
    cfg: ServerConfig,
    store: SessionStore,
    stop: AtomicBool,
    conns: AtomicUsize,
    requests: AtomicU64,
}

impl Ctx {
    /// Is shutdown in progress?
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || sorete_base::shutdown::requested()
    }

    /// Request shutdown (the `shutdown` op and tests use this).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The session store.
    pub fn store(&self) -> &SessionStore {
        &self.store
    }
}

/// The daemon.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Bind the listener and recover every session already on disk.
    /// Per-session recovery failures are logged and skipped — the daemon
    /// starts anyway and answers requests for broken sessions with their
    /// typed error.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let ctx = Arc::new(Ctx {
            store: SessionStore::new(),
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            cfg,
        });
        // Restart-time recovery: reattach every session directory found
        // under the data dir, in name order for deterministic logs.
        let mut names: Vec<String> = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&ctx.cfg.data_dir) {
            for entry in rd.flatten() {
                if entry.path().is_dir() {
                    if let Ok(name) = entry.file_name().into_string() {
                        names.push(name);
                    }
                }
            }
        }
        names.sort();
        for name in names {
            match ctx
                .store
                .open(&ctx.cfg.data_dir, &name, ctx.cfg.max_sessions)
            {
                Ok((slot, _)) => {
                    if let Some(mut s) = slot.try_lock() {
                        install_interrupt(&ctx, &mut s.ps);
                        eprintln!(
                            "; session {}: recovered (replayed_ops={} cycles={} gen={:?})",
                            name,
                            s.replay.replayed_ops,
                            s.replay.replayed_cycles,
                            s.ps.wal_generation()
                        );
                    }
                }
                Err(e) => {
                    eprintln!(
                        "; session {}: recovery refused ({}): {}",
                        name, e.code, e.message
                    );
                }
            }
        }
        Ok(Server { listener, ctx })
    }

    /// The bound address (read the port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state handle (tests drive shutdown through it).
    pub fn ctx(&self) -> Arc<Ctx> {
        self.ctx.clone()
    }

    /// Accept loop. Returns after graceful shutdown has checkpointed every
    /// dirty session.
    pub fn run(self) -> std::io::Result<ServerReport> {
        let mut report = ServerReport::default();
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.ctx.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    report.connections += 1;
                    let held = self.ctx.conns.fetch_add(1, Ordering::SeqCst);
                    if held >= self.ctx.cfg.max_connections {
                        // Over the connection cap: answer once and close.
                        self.ctx.conns.fetch_sub(1, Ordering::SeqCst);
                        let mut s = stream;
                        let _ = s.write_all(
                            (Response::err(codes::OVERLOADED, "connection limit reached").render()
                                + "\n")
                                .as_bytes(),
                        );
                        continue;
                    }
                    let ctx = self.ctx.clone();
                    workers.push(std::thread::spawn(move || {
                        let _ = handle_connection(stream, &ctx);
                        ctx.conns.fetch_sub(1, Ordering::SeqCst);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
            workers.retain(|h| !h.is_finished());
        }
        // Graceful shutdown: stop admitting, let in-flight requests drain
        // (the blocking lock below waits for each one), checkpoint every
        // dirty session. A failed checkpoint is logged and counted, never
        // fatal — the WAL still holds the state for the next start.
        for (name, slot) in self.ctx.store.all() {
            let mut s = slot.lock();
            if s.dirty {
                match s.checkpoint() {
                    Ok(()) => {
                        report.checkpointed += 1;
                        eprintln!("; shutdown: session {} checkpointed", name);
                    }
                    Err(e) => {
                        report.checkpoint_failures += 1;
                        eprintln!(
                            "; shutdown: session {} checkpoint failed: {}",
                            name, e.message
                        );
                    }
                }
            }
        }
        for h in workers {
            let _ = h.join();
        }
        report.requests = self.ctx.requests.load(Ordering::SeqCst);
        Ok(report)
    }
}

/// Point the engine's interrupt flag at the server's stop state so SIGTERM
/// stops in-flight runs at a firing boundary.
fn install_interrupt(ctx: &Arc<Ctx>, ps: &mut ProductionSystem) {
    let flag = Arc::new(AtomicBool::new(false));
    ps.set_interrupt(flag.clone());
    let ctx = ctx.clone();
    std::thread::spawn(move || loop {
        if ctx.stopping() {
            flag.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });
}

fn handle_connection(stream: TcpStream, ctx: &Arc<Ctx>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(ctx.cfg.read_timeout_ms)))?;
    stream.set_write_timeout(Some(Duration::from_millis(ctx.cfg.read_timeout_ms)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    let mut frames: u64 = 0;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {}
            // Timed out or interrupted: the client stalled past the read
            // deadline — drop the connection (sessions are untouched).
            Err(_) => return Ok(()),
        }
        if line.trim().is_empty() {
            continue;
        }
        frames += 1;
        ctx.requests.fetch_add(1, Ordering::SeqCst);
        let response = dispatch_line(line.trim_end(), ctx);

        // Fault injection happens strictly *after* the request has been
        // processed and committed, so a broken wire never un-does work.
        let fault = ctx
            .cfg
            .fault
            .filter(|f| f.every > 0 && frames.is_multiple_of(f.every));
        if let Some(f) = fault {
            match f.mode {
                NetFaultMode::Drop => return Ok(()), // close without responding
                NetFaultMode::Stall => std::thread::sleep(f.stall),
                NetFaultMode::Garbage => {
                    writer.write_all(b"%%%garbage-frame%%%\n")?;
                }
            }
        }
        writer.write_all((response + "\n").as_bytes())?;
        writer.flush()?;
    }
}

/// Parse and dispatch one protocol line, returning the rendered response.
/// Public so tests and the benchmark ladder can drive a server in-process.
pub fn dispatch_line(line: &str, ctx: &Arc<Ctx>) -> String {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(resp) => return resp.render(),
    };
    dispatch(&req, ctx).render()
}

fn dispatch(req: &Request, ctx: &Arc<Ctx>) -> Response {
    // `health` and `shutdown` are admitted even while stopping: orchestrators
    // poll health to watch the drain.
    match req.op.as_str() {
        "health" => return op_health(ctx),
        "shutdown" => {
            ctx.request_stop();
            return Response::with(vec![("stopping".into(), Json::Bool(true))]);
        }
        _ => {}
    }
    if ctx.stopping() {
        return Response::err(codes::SHUTTING_DOWN, "server is shutting down");
    }
    match req.op.as_str() {
        "open-session" => op_open_session(req, ctx),
        "metrics" => op_metrics(req, ctx),
        "load-rules" | "assert-batch" | "retract" | "run" | "query-conflict-set" | "explain" => {
            with_session(req, ctx, |req, ctx, session| match req.op.as_str() {
                "load-rules" => op_load_rules(req, session),
                "assert-batch" => op_assert_batch(req, ctx, session),
                "retract" => op_retract(req, session),
                "run" => op_run(req, ctx, session),
                "query-conflict-set" => op_query_conflict_set(session),
                "explain" => op_explain(req, session),
                _ => unreachable!(),
            })
        }
        other => Response::err(codes::BAD_REQUEST, &format!("unknown op {:?}", other)),
    }
}

/// Resolve the request's session, take its lock (or answer `overloaded`),
/// run `f`, then publish the fresh byte gauge.
fn with_session(
    req: &Request,
    ctx: &Arc<Ctx>,
    f: impl FnOnce(&Request, &Arc<Ctx>, &mut Session) -> Response,
) -> Response {
    let name = match &req.session {
        Some(n) => n,
        None => return Response::err(codes::BAD_REQUEST, "missing \"session\""),
    };
    let slot = match ctx.store.get(name) {
        Some(s) => s,
        None => return Response::err(codes::NO_SUCH_SESSION, &format!("no session {:?}", name)),
    };
    let mut guard = match slot.try_lock() {
        Some(g) => g,
        None => return Response::err(codes::OVERLOADED, &format!("session {:?} is busy", name)),
    };
    let resp = f(req, ctx, &mut guard);
    slot.publish_bytes(&guard);
    resp
}

fn op_health(ctx: &Arc<Ctx>) -> Response {
    Response::with(vec![
        ("sessions".into(), Json::Int(ctx.store.len() as i64)),
        (
            "connections".into(),
            Json::Int(ctx.conns.load(Ordering::SeqCst) as i64),
        ),
        (
            "total_bytes".into(),
            Json::Int(ctx.store.total_bytes() as i64),
        ),
        ("stopping".into(), Json::Bool(ctx.stopping())),
    ])
}

fn op_open_session(req: &Request, ctx: &Arc<Ctx>) -> Response {
    let name = match &req.session {
        Some(n) => n.clone(),
        None => return Response::err(codes::BAD_REQUEST, "missing \"session\""),
    };
    match ctx
        .store
        .open(&ctx.cfg.data_dir, &name, ctx.cfg.max_sessions)
    {
        Ok((slot, existed)) => {
            let mut fields = vec![("existed".into(), Json::Bool(existed))];
            if let Some(mut s) = slot.try_lock() {
                if !existed {
                    install_interrupt(ctx, &mut s.ps);
                }
                fields.push(("recovered".into(), Json::Bool(s.recovered)));
                fields.push((
                    "replayed_ops".into(),
                    Json::Int(s.replay.replayed_ops as i64),
                ));
                if let Some(g) = s.ps.wal_generation() {
                    fields.push(("wal_generation".into(), Json::Int(g as i64)));
                }
                slot.publish_bytes(&s);
            }
            Response::with(fields)
        }
        Err(e) => Response::err(e.code, &e.message),
    }
}

fn op_metrics(req: &Request, ctx: &Arc<Ctx>) -> Response {
    // Server-level gauges always; a session's Prometheus text when named.
    let mut prom = format!(
        "# TYPE sorete_server_sessions gauge\nsorete_server_sessions {}\n\
         # TYPE sorete_server_total_bytes gauge\nsorete_server_total_bytes {}\n",
        ctx.store.len(),
        ctx.store.total_bytes()
    );
    if let Some(name) = &req.session {
        let slot = match ctx.store.get(name) {
            Some(s) => s,
            None => {
                return Response::err(codes::NO_SUCH_SESSION, &format!("no session {:?}", name))
            }
        };
        let guard = match slot.try_lock() {
            Some(g) => g,
            None => {
                return Response::err(codes::OVERLOADED, &format!("session {:?} is busy", name))
            }
        };
        guard.ps.record_metrics_snapshot();
        if let Some(text) = guard.ps.metrics_prometheus() {
            prom.push_str(&text);
        }
        slot.publish_bytes(&guard);
    }
    Response::with(vec![("prometheus".into(), Json::Str(prom))])
}

fn op_load_rules(req: &Request, session: &mut Session) -> Response {
    let src = match req.body.get("program").and_then(|v| v.as_str()) {
        Some(s) => s,
        None => return Response::err(codes::BAD_REQUEST, "missing \"program\""),
    };
    match session.load_rules(src) {
        Ok(()) => Response::with(vec![(
            "rules".into(),
            Json::Int(session.ps.loaded_rules().len() as i64),
        )]),
        Err(e) => Response::err(e.code, &e.message),
    }
}

fn op_assert_batch(req: &Request, ctx: &Arc<Ctx>, session: &mut Session) -> Response {
    if let Some(r) = admission_bytes_check(ctx) {
        return r;
    }
    let facts = match req.body.get("facts").and_then(|v| v.as_arr()) {
        Some(a) => a,
        None => return Response::err(codes::BAD_REQUEST, "missing \"facts\""),
    };
    let deadline = deadline_of(req, ctx);
    let start = Instant::now();
    let mut tags: Vec<Json> = Vec::with_capacity(facts.len());
    for (i, f) in facts.iter().enumerate() {
        if start.elapsed() >= deadline {
            let r = Response::err(codes::TIMEOUT, "deadline exceeded mid-batch");
            return batch_stopped(session, i, r);
        }
        let (class, slots) = match json::fact_from_json(f) {
            Ok(x) => x,
            Err(e) => {
                let r = Response::err(codes::BAD_REQUEST, &format!("facts[{}]: {}", i, e));
                return batch_stopped(session, i, r);
            }
        };
        match session.ps.assert_wme(class, slots) {
            Ok(tag) => tags.push(Json::Int(tag.raw() as i64)),
            Err(e) => {
                let r = Response::err(codes::RUN_ERROR, &format!("facts[{}]: {}", i, e));
                return batch_stopped(session, i, r);
            }
        }
    }
    session.dirty = true;
    if let Err(e) = session.ps.sync_wal() {
        return Response::err(codes::DURABILITY, &e.to_string());
    }
    Response::with(vec![
        ("count".into(), Json::Int(tags.len() as i64)),
        ("tags".into(), Json::Arr(tags)),
    ])
}

/// A batch that stops at fact `asserted` keeps the facts before it: commit
/// them, then send the error with the partial count — the client knows
/// exactly how far it got.
fn batch_stopped(session: &mut Session, asserted: usize, mut error: Response) -> Response {
    session.dirty = true;
    let _ = session.ps.sync_wal();
    error
        .fields
        .push(("asserted".into(), Json::Int(asserted as i64)));
    error
}

fn op_retract(req: &Request, session: &mut Session) -> Response {
    let tag = match req.body.get("tag").and_then(|v| v.as_u64()) {
        Some(t) => t,
        None => return Response::err(codes::BAD_REQUEST, "missing \"tag\""),
    };
    match session.ps.retract_wme(TimeTag::new(tag)) {
        Ok(()) => {
            session.dirty = true;
            if let Err(e) = session.ps.sync_wal() {
                return Response::err(codes::DURABILITY, &e.to_string());
            }
            Response::ok()
        }
        Err(e) => Response::err(codes::RUN_ERROR, &e.to_string()),
    }
}

fn op_run(req: &Request, ctx: &Arc<Ctx>, session: &mut Session) -> Response {
    if let Some(r) = admission_bytes_check(ctx) {
        return r;
    }
    let limit = req.body.get("limit").and_then(|v| v.as_u64());
    let deadline = deadline_of(req, ctx);
    // The deadline rides on the engine's wall-clock guard, so the run stops
    // at a firing boundary and every committed cycle stays intact.
    let saved = session.ps.guards();
    let mut guards = saved;
    guards.max_wall = Some(match saved.max_wall {
        Some(w) => w.min(deadline),
        None => deadline,
    });
    session.ps.set_guards(guards);
    let outcome = session.ps.run(limit);
    session.ps.set_guards(saved);
    session.dirty = true;
    if let Err(e) = session.ps.sync_wal() {
        return Response::err(codes::DURABILITY, &e.to_string());
    }
    let fired = Json::Int(outcome.fired as i64);
    match &outcome.reason {
        StopReason::Quiescence | StopReason::Halt | StopReason::Limit | StopReason::Interrupted => {
            Response::with(vec![
                ("fired".into(), fired),
                ("reason".into(), Json::Str(outcome.reason.label().into())),
                ("cycle".into(), Json::Int(session.ps.cycle() as i64)),
                (
                    "conflict_set_len".into(),
                    Json::Int(session.ps.conflict_set_len() as i64),
                ),
            ])
        }
        StopReason::ResourceExhausted(GuardViolation::WallClock { .. }) => {
            let mut r = Response::err(codes::TIMEOUT, "run deadline exceeded");
            r.fields.push(("fired".into(), fired));
            r
        }
        StopReason::ResourceExhausted(v) => {
            let mut r = Response::err(codes::RUN_ERROR, &format!("guard tripped: {:?}", v));
            r.fields.push(("fired".into(), fired));
            r
        }
        StopReason::Error(e) => {
            let mut r = Response::err(codes::RUN_ERROR, &e.to_string());
            r.fields.push(("fired".into(), fired));
            r
        }
        StopReason::Panicked { rule, message } => {
            let mut r = Response::err(
                codes::RUN_ERROR,
                &format!("panic in rule {}: {}", rule, message),
            );
            r.fields.push(("fired".into(), fired));
            r
        }
        StopReason::Quarantined { rules } => {
            let names: Vec<Json> = rules.iter().map(|r| Json::Str(r.to_string())).collect();
            let mut r = Response::err(codes::QUARANTINED, "only quarantined rules remain");
            r.fields.push(("fired".into(), fired));
            r.fields.push(("rules".into(), Json::Arr(names)));
            r
        }
    }
}

/// Render the conflict set exactly like the CLI's `--print-cs`, one line
/// per entry, recency-descending — the byte-comparison format the
/// differential tests diff.
pub fn conflict_lines(ps: &ProductionSystem) -> Vec<String> {
    let mut items = ps.conflict_items();
    items.sort_by(|a, b| b.recency.cmp(&a.recency));
    items
        .iter()
        .map(|item| {
            let rows: Vec<Vec<u64>> = item
                .rows
                .iter()
                .map(|r| r.iter().map(|t| t.raw()).collect())
                .collect();
            format!(
                "rule#{}{} rows={:?} aggregates={:?}",
                item.key.rule().index(),
                if item.key.is_soi() { " [SOI]" } else { "" },
                rows,
                item.aggregates
                    .iter()
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
            )
        })
        .collect()
}

fn op_query_conflict_set(session: &mut Session) -> Response {
    let lines: Vec<Json> = conflict_lines(&session.ps)
        .into_iter()
        .map(Json::Str)
        .collect();
    Response::with(vec![
        ("entries".into(), Json::Int(lines.len() as i64)),
        ("conflict_set".into(), Json::Arr(lines)),
        (
            "firings".into(),
            Json::Int(session.ps.stats().firings as i64),
        ),
        ("wm".into(), Json::Int(session.ps.wm().len() as i64)),
    ])
}

fn op_explain(req: &Request, session: &mut Session) -> Response {
    let rule = match req.body.get("rule").and_then(|v| v.as_str()) {
        Some(r) => r,
        None => return Response::err(codes::BAD_REQUEST, "missing \"rule\""),
    };
    match session.ps.explain(rule) {
        Ok(text) => Response::with(vec![("explain".into(), Json::Str(text))]),
        Err(e) => Response::err(codes::BAD_REQUEST, &e.to_string()),
    }
}

fn deadline_of(req: &Request, ctx: &Arc<Ctx>) -> Duration {
    Duration::from_millis(
        req.deadline_ms
            .unwrap_or(ctx.cfg.default_deadline_ms)
            .max(1),
    )
}

fn admission_bytes_check(ctx: &Arc<Ctx>) -> Option<Response> {
    let total = ctx.store.total_bytes();
    if total > ctx.cfg.max_total_bytes {
        return Some(Response::err(
            codes::MEMORY_LIMIT,
            &format!(
                "aggregate working memory {} bytes exceeds limit {}",
                total, ctx.cfg.max_total_bytes
            ),
        ));
    }
    None
}
