//! The two entry points a workload is driven through: the library
//! (`ProductionSystem`) and the daemon (`Server` + `Client` over loopback).
//! Both expose the same four phases; the round loop times them from outside.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sorete_base::TimeTag;
use sorete_core::{MatcherKind, ProductionSystem, StopReason};
use sorete_lang::json::{self, Json};
use sorete_server::{Client, Ctx, Server, ServerConfig, ServerReport};

use crate::trace::Tracer;
use crate::workload::{Fact, Generator, RoundOps, Workload, MUTES_PER_ROUND};

/// Operations attempted and failed (or refused) so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    pub attempted: u64,
    pub failed: u64,
}

impl OpCounts {
    fn note<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("benchmark: {} failed: {}", what, e);
                None
            }
        }
    }
}

/// What a round loop needs from an entry point.
pub trait Target {
    /// Assert the round's batch (and, for `join_churn`, re-assert stocks).
    fn ingest(&mut self, ops: RoundOps, tr: &mut Tracer);
    /// Read the conflict set; returns its size.
    fn query(&mut self, tr: &mut Tracer) -> usize;
    /// Run to quiescence; returns firings. Under a tracer the library
    /// target steps one firing at a time so each gets a span.
    fn run(&mut self, tr: &mut Tracer) -> u64;
    /// Untimed: choose what the retract phase removes.
    fn plan_retract(&mut self);
    /// Remove the planned batch, so WM size is steady.
    fn retract(&mut self, tr: &mut Tracer);
    fn counts(&self) -> OpCounts;
    /// Asserts and retracts issued from outside so far.
    fn external_ops(&self) -> u64;
    /// WM changes so far: external asserts and retracts plus RHS makes and
    /// removes.
    fn wm_changes(&mut self) -> u64;
}

// ------------------------------------------------------------- library

pub struct LibTarget {
    pub ps: ProductionSystem,
    workload: Workload,
    counts: OpCounts,
    external_ops: u64,
    /// `join_churn`: live stock tag per item.
    stock_tags: Vec<TimeTag>,
    /// `join_churn`: live orders, oldest first.
    orders: VecDeque<TimeTag>,
    /// `serve_durable` through the library: the mutes of the last batch.
    mutes: Vec<TimeTag>,
    /// Tag allocator mark before the last run: everything the run made is
    /// above it.
    run_mark: u64,
    planned: Vec<TimeTag>,
    batch: usize,
    /// Sum over traced firings of the conflict-set size `select` scanned.
    pub select_visits: u64,
}

impl LibTarget {
    /// The workload's full set-up: build the engine, load the program,
    /// assert the resident WM and let it settle. Crash bundles (none are
    /// expected) would go under `crash_dir`, never the working directory.
    pub fn set_up(
        workload: Workload,
        kind: MatcherKind,
        jobs: usize,
        gen: &mut Generator,
        crash_dir: &Path,
    ) -> Result<LibTarget, String> {
        let mut ps = ProductionSystem::with_jobs(kind, jobs);
        ps.set_crash_dir(crash_dir);
        ps.load_program(workload.program())
            .map_err(|e| format!("load {}: {}", workload.name(), e))?;
        let mut t = LibTarget {
            ps,
            workload,
            counts: OpCounts::default(),
            external_ops: 0,
            stock_tags: Vec::new(),
            orders: VecDeque::new(),
            mutes: Vec::new(),
            run_mark: 0,
            planned: Vec::new(),
            batch: gen.sizes().batch,
            select_visits: 0,
        };
        let (stocks, first_order) = gen.resident_layout();
        for (i, f) in gen.resident().into_iter().enumerate() {
            if let Some(tag) = t.assert(f) {
                if i < stocks {
                    t.stock_tags.push(tag);
                } else if i >= first_order {
                    t.orders.push_back(tag);
                }
            }
            // Settle in round-sized steps, as the rounds will: conflict
            // resolution scans the whole set per firing, so one run over
            // the whole backlog would be quadratic in it.
            if (i + 1) % t.batch == 0 {
                t.settle()?;
            }
        }
        t.settle()?;
        if t.counts.failed > 0 {
            return Err(format!("{} set-up operations failed", t.counts.failed));
        }
        Ok(t)
    }

    fn settle(&mut self) -> Result<(), String> {
        match self.ps.run(None).reason {
            StopReason::Quiescence => Ok(()),
            other => Err(format!("set-up run ended with {:?}", other)),
        }
    }

    fn assert(&mut self, f: Fact) -> Option<TimeTag> {
        self.external_ops += 1;
        let r = self.ps.assert_wme(f.class, f.slots);
        self.counts.note("assert_wme", r)
    }

    fn retract_tag(&mut self, tag: TimeTag) {
        self.external_ops += 1;
        let r = self.ps.retract_wme(tag);
        self.counts.note("retract_wme", r);
    }
}

impl Target for LibTarget {
    fn ingest(&mut self, ops: RoundOps, tr: &mut Tracer) {
        let first_mute = ops.asserts.len().saturating_sub(MUTES_PER_ROUND);
        self.mutes.clear();
        for (i, f) in ops.asserts.into_iter().enumerate() {
            let sp = tr.begin("assert_wme");
            let tag = self.assert(f);
            tr.end(sp);
            match self.workload {
                Workload::JoinChurn => self.orders.extend(tag),
                Workload::ServeDurable if i >= first_mute => self.mutes.extend(tag),
                _ => {}
            }
        }
        for (item, f) in ops.restock {
            let sp = tr.begin("retract_wme");
            self.retract_tag(self.stock_tags[item]);
            tr.end(sp);
            let sp = tr.begin("assert_wme");
            let tag = self.assert(f);
            tr.end(sp);
            if let Some(tag) = tag {
                self.stock_tags[item] = tag;
            }
        }
    }

    fn query(&mut self, _tr: &mut Tracer) -> usize {
        self.counts.attempted += 1;
        black_box(self.ps.conflict_items()).len()
    }

    fn run(&mut self, tr: &mut Tracer) -> u64 {
        self.run_mark = self.ps.wm().tag_mark();
        self.counts.attempted += 1;
        if tr.enabled() {
            let mut fired = 0;
            loop {
                self.select_visits += self.ps.conflict_set_len() as u64;
                let sp = tr.begin("step");
                let r = self.ps.step();
                tr.end(sp);
                match r {
                    Ok(Some(_)) => fired += 1,
                    Ok(None) => return fired,
                    Err(e) => {
                        self.counts.failed += 1;
                        eprintln!("benchmark: step failed: {}", e);
                        return fired;
                    }
                }
            }
        }
        let outcome = self.ps.run(None);
        if outcome.reason != StopReason::Quiescence {
            self.counts.failed += 1;
            eprintln!("benchmark: run ended with {:?}", outcome.reason);
        }
        outcome.fired
    }

    fn plan_retract(&mut self) {
        self.planned.clear();
        match self.workload {
            Workload::JoinChurn => {
                let n = self.batch.min(self.orders.len());
                self.planned.extend(self.orders.drain(..n));
            }
            Workload::ServeDurable => self.planned.append(&mut self.mutes),
            // The swept items carry the tags the run allocated.
            Workload::FireTuple | Workload::CollectSet => {
                for raw in self.run_mark + 1..=self.ps.wm().tag_mark() {
                    let tag = TimeTag::new(raw);
                    if self.ps.wm().get(tag).is_some() {
                        self.planned.push(tag);
                    }
                }
            }
        }
    }

    fn retract(&mut self, tr: &mut Tracer) {
        for i in 0..self.planned.len() {
            let sp = tr.begin("retract_wme");
            self.retract_tag(self.planned[i]);
            tr.end(sp);
        }
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn external_ops(&self) -> u64 {
        self.external_ops
    }

    fn wm_changes(&mut self) -> u64 {
        let s = self.ps.stats();
        self.external_ops + s.makes + s.removes
    }
}

// -------------------------------------------------------------- daemon

/// How requests reach the daemon.
#[derive(Clone, Copy)]
pub enum Transport {
    /// A `Client` over loopback TCP to the serving thread: the real path.
    Loopback,
    /// `dispatch_line` called in place, no socket and no second thread:
    /// the layer replay that separates the daemon's work from the wire's.
    Direct,
}

/// An in-process daemon on `127.0.0.1:0` plus one closed-loop client.
pub struct ServeTarget {
    /// `None` under [`Transport::Direct`], and once shut down: the daemon's
    /// connection thread only ends when its peer hangs up.
    client: Option<Client>,
    pub ctx: Arc<Ctx>,
    pub data_dir: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<ServerReport>>>,
    counts: OpCounts,
    external_ops: u64,
    mute_tags: Vec<u64>,
    /// Request lines and their answers, when recording (the codec replay
    /// re-parses the one and re-renders the other).
    pub recorded: Option<Vec<(String, Json)>>,
    /// Nanoseconds inside `dispatch_line` ([`Transport::Direct`] only).
    pub dispatch_ns: u64,
    /// WAL counters accumulated over traced ingest phases.
    pub ingest_wal: WalDelta,
}

/// What the log did over some interval, and for how many asserted facts.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalDelta {
    pub facts: u64,
    pub records: u64,
    pub bytes: u64,
    pub writes: u64,
    pub fsyncs: u64,
}

pub const SESSION: &str = "bench";

/// `{"op":..,"session":"bench", ..fields}` rendered to one line.
fn request_line(op: &str, fields: Vec<(String, Json)>) -> String {
    let mut obj = vec![
        ("op".to_string(), Json::Str(op.to_string())),
        ("session".to_string(), Json::Str(SESSION.to_string())),
    ];
    obj.extend(fields);
    Json::Obj(obj).render()
}

fn fact_to_json(f: &Fact) -> Json {
    let slots = f
        .slots
        .iter()
        .map(|(a, v)| (a.as_str().to_string(), json::value_to_json(v)))
        .collect();
    Json::Obj(vec![
        ("class".into(), Json::Str(f.class.as_str().to_string())),
        ("slots".into(), Json::Obj(slots)),
    ])
}

pub fn assert_batch_line(facts: &[Fact]) -> String {
    let facts = Json::Arr(facts.iter().map(fact_to_json).collect());
    request_line("assert-batch", vec![("facts".into(), facts)])
}

fn server_config(data_dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: data_dir.to_path_buf(),
        // Admission is not what this ladder measures: no request may be
        // refused for size.
        max_total_bytes: u64::MAX,
        // The one client goes quiet while probes and layer replays run;
        // the default 10 s would hang up on it.
        read_timeout_ms: 600_000,
        ..ServerConfig::default()
    }
}

impl ServeTarget {
    /// Full set-up of the daemon rung: bind, serve, connect, open the
    /// session, load the rules, preload the resident facts in batches, and
    /// checkpoint the loaded session so recovery has a base.
    pub fn set_up(
        gen: &mut Generator,
        data_dir: &Path,
        transport: Transport,
    ) -> Result<ServeTarget, String> {
        let server = Server::bind(server_config(data_dir)).map_err(|e| format!("bind: {}", e))?;
        let ctx = server.ctx();
        let (client, thread) = match transport {
            Transport::Direct => (None, None),
            Transport::Loopback => {
                let addr = server
                    .local_addr()
                    .map_err(|e| format!("local_addr: {}", e))?;
                let thread = std::thread::spawn(move || {
                    crate::sys::pin_to_cpu(1);
                    server.run()
                });
                let client =
                    Client::connect(&addr.to_string()).map_err(|e| format!("connect: {}", e))?;
                (Some(client), Some(thread))
            }
        };
        let mut t = ServeTarget {
            client,
            ctx,
            data_dir: data_dir.to_path_buf(),
            thread,
            counts: OpCounts::default(),
            external_ops: 0,
            mute_tags: Vec::new(),
            recorded: None,
            dispatch_ns: 0,
            ingest_wal: WalDelta::default(),
        };
        t.request(&request_line("open-session", vec![]));
        t.request(&request_line(
            "load-rules",
            vec![(
                "program".into(),
                Json::Str(Workload::ServeDurable.program().into()),
            )],
        ));
        let batch = gen.sizes().batch;
        for chunk in gen.resident().chunks(batch) {
            t.external_ops += chunk.len() as u64;
            t.request(&assert_batch_line(chunk));
        }
        if t.counts.failed > 0 {
            return Err(format!("{} set-up requests failed", t.counts.failed));
        }
        t.with_session(|s| s.checkpoint().map_err(|e| e.message))?;
        Ok(t)
    }

    /// Send one request; a transport error or an `ok:false` answer counts
    /// as failed.
    pub fn request(&mut self, line: &str) -> Option<Json> {
        self.counts.attempted += 1;
        let answer = match &mut self.client {
            Some(client) => client.request(line),
            None => {
                let t = std::time::Instant::now();
                let text = sorete_server::dispatch_line(line, &self.ctx);
                self.dispatch_ns += t.elapsed().as_nanos() as u64;
                json::parse(&text)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
            }
        };
        if let (Some(rec), Ok(resp)) = (&mut self.recorded, &answer) {
            rec.push((line.to_string(), resp.clone()));
        }
        match answer {
            Ok(resp) if resp.get("ok").and_then(Json::as_bool) == Some(true) => Some(resp),
            Ok(resp) => {
                self.counts.failed += 1;
                eprintln!("benchmark: request refused: {}", resp.render());
                None
            }
            Err(e) => {
                self.counts.failed += 1;
                eprintln!("benchmark: request failed: {}", e);
                None
            }
        }
    }

    /// Build a request line and send it, each under its own span.
    fn call(&mut self, tr: &mut Tracer, line: impl FnOnce() -> String) -> Option<Json> {
        let sp = tr.begin("encode_request");
        let line = line();
        tr.end(sp);
        let sp = tr.begin("loopback");
        let resp = self.request(&line);
        tr.end(sp);
        resp
    }

    /// Run `f` on the live session, between requests (the closed loop has
    /// none in flight).
    pub fn with_session<T>(
        &self,
        f: impl FnOnce(&mut sorete_server::Session) -> Result<T, String>,
    ) -> Result<T, String> {
        let slot = self
            .ctx
            .store()
            .get(SESSION)
            .ok_or_else(|| "session vanished".to_string())?;
        let mut guard = slot.lock();
        f(&mut guard)
    }

    fn wal_stats(&self) -> sorete_reldb::WalStats {
        self.with_session(|s| Ok(s.ps.wal_stats().unwrap_or_default()))
            .unwrap_or_default()
    }

    /// Stop the daemon and wait for its threads (the per-session interrupt
    /// watchers end on the same flag, within their 20 ms poll).
    pub fn shut_down(&mut self) -> Result<(), String> {
        self.ctx.request_stop();
        self.client = None;
        match self.thread.take() {
            Some(h) => h
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map(|_| ())
                .map_err(|e| format!("accept loop: {}", e)),
            None => Ok(()),
        }
    }
}

impl Drop for ServeTarget {
    fn drop(&mut self) {
        let _ = self.shut_down();
    }
}

impl Target for ServeTarget {
    fn ingest(&mut self, ops: RoundOps, tr: &mut Tracer) {
        let before = tr.enabled().then(|| self.wal_stats());
        let resp = self.call(tr, || assert_batch_line(&ops.asserts));
        self.external_ops += ops.asserts.len() as u64;
        if let Some(b) = before {
            let a = self.wal_stats();
            let d = &mut self.ingest_wal;
            d.facts += ops.asserts.len() as u64;
            d.records += a.records - b.records;
            d.bytes += a.bytes - b.bytes;
            d.writes += a.writes - b.writes;
            d.fsyncs += a.fsyncs - b.fsyncs;
        }
        self.mute_tags.clear();
        if let Some(tags) = resp
            .as_ref()
            .and_then(|r| r.get("tags"))
            .and_then(Json::as_arr)
        {
            let mutes = &tags[tags.len().saturating_sub(MUTES_PER_ROUND)..];
            self.mute_tags.extend(mutes.iter().filter_map(Json::as_u64));
        }
    }

    fn query(&mut self, tr: &mut Tracer) -> usize {
        let resp = self.call(tr, || request_line("query-conflict-set", vec![]));
        resp.and_then(|r| r.get("entries").and_then(Json::as_u64))
            .unwrap_or(0) as usize
    }

    fn run(&mut self, tr: &mut Tracer) -> u64 {
        let resp = self.call(tr, || request_line("run", vec![]));
        let reason = resp
            .as_ref()
            .and_then(|r| r.get("reason"))
            .and_then(Json::as_str);
        if resp.is_some() && reason != Some("quiescence") {
            self.counts.failed += 1;
            eprintln!("benchmark: run ended with {:?}", reason);
        }
        resp.and_then(|r| r.get("fired").and_then(Json::as_u64))
            .unwrap_or(0)
    }

    fn plan_retract(&mut self) {}

    fn retract(&mut self, tr: &mut Tracer) {
        for i in 0..self.mute_tags.len() {
            let tag = Json::Int(self.mute_tags[i] as i64);
            self.call(tr, || request_line("retract", vec![("tag".into(), tag)]));
            self.external_ops += 1;
        }
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn external_ops(&self) -> u64 {
        self.external_ops
    }

    fn wm_changes(&mut self) -> u64 {
        let rhs = self
            .with_session(|s| Ok(s.ps.stats().makes + s.ps.stats().removes))
            .unwrap_or(0);
        self.external_ops + rhs
    }
}
