//! The traced pass: a tenth of the rounds again under spans, then the
//! layer replays — the recorded op stream fed to one bare layer at a time
//! (matcher, conflict set, log, JSON codec, `dispatch_line`, a plain
//! library engine), which is how a layer's time is told apart from its
//! caller's without touching the program.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sorete_base::{CsDelta, MatchStats, Symbol, TimeTag, Wme};
use sorete_core::{ConflictSet, MatcherKind, ProductionSystem, Strategy, SupervisorConfig};
use sorete_lang::json::{self, Json};
use sorete_lang::Matcher;
use sorete_reldb::{encode_wme_op, Wal, WalOptions, WmeOp};
use sorete_rete::ReteMatcher;

use crate::measure::{
    metric, quantile, query_reps, round, Config, Live, Metric, Samples, TempRoot, QUIET,
};
use crate::sys::{self, AllocSnapshot};
use crate::target::{assert_batch_line, LibTarget, OpCounts, ServeTarget, Target, Transport};
use crate::trace::Tracer;
use crate::workload::{Generator, RoundOps, Sizes, Workload};

/// Rounds a twin engine (jobs 1/2, telemetry on/off, direct dispatch)
/// replays: each twin pays a full set-up, so the replay itself is kept
/// short.
const TWIN_ROUNDS: usize = 20;
/// ... and it stops early once it has used this much time (a session-
/// configured engine walks the whole matcher memory on every firing).
const TWIN_SECONDS: f64 = 1.5;

/// The distribution the quiet quantile was taken from: printed on every
/// run, part of the JSON only with `--trace 1`.
pub fn harness_metrics(s: &Samples) -> Vec<Metric> {
    let rounds = s.round_times();
    let mut out = Vec::new();
    for (name, v) in [
        ("ingest", &s.ingest),
        ("query", &s.query),
        ("run", &s.run),
        ("retract", &s.retract),
    ] {
        out.push(metric(
            &format!("harness.{}_p50_us", name),
            quantile(v, 0.5),
            "us",
        ));
        out.push(metric(
            &format!("harness.{}_p95_us", name),
            quantile(v, 0.95),
            "us",
        ));
    }
    out.push(metric(
        "harness.round_p99_us",
        quantile(&rounds, 0.99),
        "us",
    ));
    out.push(metric("harness.round_max_us", quantile(&rounds, 1.0), "us"));
    // How loud the host was: the median round over the quiet one, minus one.
    let quiet = quantile(&rounds, QUIET);
    let noise = if quiet > 0.0 {
        (quantile(&rounds, 0.5) / quiet - 1.0) * 1000.0
    } else {
        0.0
    };
    out.push(metric("harness.noise_permille", noise, "permille"));
    out
}

fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn stats_diff(a: &MatchStats, b: &MatchStats) -> MatchStats {
    MatchStats {
        alpha_activations: a.alpha_activations - b.alpha_activations,
        beta_activations: a.beta_activations - b.beta_activations,
        join_tests: a.join_tests - b.join_tests,
        tokens_created: a.tokens_created - b.tokens_created,
        tokens_deleted: a.tokens_deleted - b.tokens_deleted,
        snode_activations: a.snode_activations - b.snode_activations,
        aggregate_updates: a.aggregate_updates - b.aggregate_updates,
        index_probes: a.index_probes - b.index_probes,
        index_skipped_tests: a.index_skipped_tests - b.index_skipped_tests,
        indexed_nodes: a.indexed_nodes,
    }
}

/// Run `f` on the engine under test, whichever entry point holds it.
fn with_engine<T>(live: &Live, f: impl FnOnce(&ProductionSystem) -> T) -> Result<T, String> {
    match live {
        Live::Lib(t) => Ok(f(&t.ps)),
        Live::Serve(t) => t.with_session(|s| Ok(f(&s.ps))),
    }
}

// ------------------------------------------------------ bare matcher

#[derive(Default)]
struct ReteReplay {
    insert_ns: f64,
    inserts: u64,
    remove_ns: f64,
    removes: u64,
    drain_ns: f64,
    deltas: u64,
    rebuild_ns_per_wme: f64,
    bytes_per_wme: f64,
    tokens_per_cs_delta: f64,
    recomputes_per_op: f64,
    gamma_rows: f64,
    gamma_bytes: f64,
    apply_ns: f64,
    applied: u64,
    select_ns: f64,
    selects: u64,
}

/// Feed the recorded external ops to a bare `ReteMatcher` holding the
/// same rules and the same resident WM, then the deltas it produced to a
/// bare `ConflictSet`. Each round's batch is inserted, drained, and
/// removed again, so the network is back at the resident WM for the next.
fn rete_replay(live: &Live, recorded: &[RoundOps]) -> Result<ReteReplay, String> {
    let (rules, wmes) = with_engine(live, |ps| {
        let wmes: Vec<Wme> = ps.wm().dump().into_iter().cloned().collect();
        (ps.loaded_rules(), wmes)
    })?;
    let mut m = ReteMatcher::new();
    for r in rules {
        m.add_rule(r);
    }
    let t = Instant::now();
    m.rebuild_from(&wmes);
    let rebuild_ns = ns(t);
    drop(m.drain_deltas());
    let bytes = m.memory_report().total_bytes() as f64;

    let (stock, item) = (Symbol::new("stock"), Symbol::new("item"));
    let mut stock_by_item: sorete_base::FxHashMap<i64, Wme> = wmes
        .iter()
        .filter(|w| w.class == stock)
        .filter_map(|w| match w.get(item) {
            sorete_base::Value::Int(i) => Some((i, w.clone())),
            _ => None,
        })
        .collect();
    let mut next_tag = wmes.iter().map(|w| w.tag.raw()).max().unwrap_or(0) + 1;
    let mut fresh = |f: &crate::workload::Fact| {
        let w = Wme::new(TimeTag::new(next_tag), f.class, f.slots.clone());
        next_tag += 1;
        w
    };

    let mut cs = ConflictSet::new();
    let mut r = ReteReplay {
        rebuild_ns_per_wme: per(rebuild_ns, wmes.len() as f64),
        bytes_per_wme: per(bytes, wmes.len() as f64),
        ..ReteReplay::default()
    };
    let stats0 = m.stats();
    let soi0 = m.soi_stats();
    for (i, ops) in recorded.iter().enumerate() {
        let batch: Vec<Wme> = ops.asserts.iter().map(&mut fresh).collect();
        let t = Instant::now();
        for w in &batch {
            m.insert_wme(w);
        }
        r.insert_ns += ns(t);
        r.inserts += batch.len() as u64;
        for (it, f) in &ops.restock {
            let new = fresh(f);
            if let Some(old) = stock_by_item.insert(*it as i64, new.clone()) {
                let t = Instant::now();
                m.remove_wme(&old);
                r.remove_ns += ns(t);
                r.removes += 1;
            }
            let t = Instant::now();
            m.insert_wme(&new);
            r.insert_ns += ns(t);
            r.inserts += 1;
        }
        let t = Instant::now();
        let deltas = m.drain_deltas();
        r.drain_ns += ns(t);
        r.deltas += deltas.len() as u64;

        if i == 0 {
            // γ-memory while the round's batch is resident.
            let gamma = m.memory_report().region("gamma");
            r.gamma_bytes = gamma.map_or(0.0, |g| g.bytes as f64);
            r.gamma_rows = deltas
                .iter()
                .filter_map(|d| match d {
                    CsDelta::Insert(item) if item.key.is_soi() => m.materialize(&item.key),
                    _ => None,
                })
                .fold(0.0, |rows, item| rows + item.rows.len() as f64);
        }

        r.applied += deltas.len() as u64;
        let t = Instant::now();
        for d in deltas {
            cs.apply(d);
        }
        r.apply_ns += ns(t);
        let t = Instant::now();
        black_box(cs.select(Strategy::Lex));
        r.select_ns += ns(t);
        r.selects += 1;

        let t = Instant::now();
        for w in &batch {
            m.remove_wme(w);
        }
        r.remove_ns += ns(t);
        r.removes += batch.len() as u64;
        let t = Instant::now();
        let deltas = m.drain_deltas();
        r.drain_ns += ns(t);
        r.deltas += deltas.len() as u64;
        r.applied += deltas.len() as u64;
        let t = Instant::now();
        for d in deltas {
            cs.apply(d);
        }
        r.apply_ns += ns(t);
    }
    let d = stats_diff(&m.stats(), &stats0);
    r.tokens_per_cs_delta = per(d.tokens_created as f64, r.deltas as f64);
    r.recomputes_per_op = per(
        (m.soi_stats().aggregate_recomputes - soi0.aggregate_recomputes) as f64,
        (r.inserts + r.removes) as f64,
    );
    Ok(r)
}

// -------------------------------------------------------- twin engines

/// How a twin library engine is configured.
#[derive(Clone, Copy)]
enum Twin {
    /// Nothing on: flight recorder off, no metrics, no supervision.
    Plain { jobs: usize },
    /// As `Session::open` configures a daemon session.
    AsSession,
}

struct TwinRun {
    samples: Samples,
    tracer: Tracer,
    firings: u64,
    select_visits: u64,
}

/// Set a fresh library engine up on this workload's resident WM and run
/// the first recorded rounds through it.
fn twin_run(
    cfg: &Config,
    dir: &Path,
    recorded: &[RoundOps],
    twin: Twin,
    traced: bool,
) -> Result<TwinRun, String> {
    let w = cfg.workload;
    let mut gen = Generator::new(w, cfg.seed, Sizes::of(w, cfg.scale));
    let jobs = match twin {
        Twin::Plain { jobs } => jobs,
        Twin::AsSession => 1,
    };
    let mut t = LibTarget::set_up(w, MatcherKind::Rete, jobs, &mut gen, dir)?;
    match twin {
        Twin::Plain { .. } => t.ps.set_flight_recorder(0),
        Twin::AsSession => {
            t.ps.enable_metrics();
            t.ps.enable_supervision(SupervisorConfig::default());
        }
    }
    let mut run = TwinRun {
        samples: Samples::default(),
        tracer: Tracer::new(traced),
        firings: 0,
        select_visits: 0,
    };
    let start = Instant::now();
    for (i, ops) in recorded.iter().take(TWIN_ROUNDS).enumerate() {
        if i > 0 && start.elapsed().as_secs_f64() > TWIN_SECONDS {
            break;
        }
        run.tracer.set_round(i as u32);
        run.firings += round(w, &mut t, ops.clone(), &mut run.tracer, &mut run.samples);
    }
    if t.counts().failed > 0 {
        return Err(format!("{} twin operations failed", t.counts().failed));
    }
    run.select_visits = t.select_visits;
    Ok(run)
}

fn sum(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b)
}

/// Total time of the first `k` rounds.
fn rounds_us(s: &Samples, k: usize) -> f64 {
    let k = k.min(s.rounds());
    sum(&s.ingest[..k]) + sum(&s.query[..k]) + sum(&s.run[..k]) + sum(&s.retract[..k])
}

// --------------------------------------------------------------- codecs

struct CodecReplay {
    parse_us: f64,
    decode_ns_per_fact: f64,
    encode_ns_per_fact: f64,
}

fn codec_replay(w: Workload, recorded: &[RoundOps]) -> Result<CodecReplay, String> {
    let mut parses: Vec<f64> = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        black_box(sorete_lang::parse_program(w.program()).map_err(|e| e.to_string())?);
        parses.push(ns(t) / 1e3);
    }
    let (mut enc_ns, mut dec_ns, mut facts) = (0.0, 0.0, 0u64);
    for ops in recorded.iter().take(TWIN_ROUNDS) {
        let t = Instant::now();
        let line = assert_batch_line(&ops.asserts);
        enc_ns += ns(t);
        let t = Instant::now();
        let parsed = json::parse(&line)?;
        for f in parsed.get("facts").and_then(Json::as_arr).unwrap_or(&[]) {
            black_box(json::fact_from_json(f)?);
        }
        dec_ns += ns(t);
        facts += ops.asserts.len() as u64;
    }
    Ok(CodecReplay {
        parse_us: quantile(&parses, 0.5),
        decode_ns_per_fact: per(dec_ns, facts as f64),
        encode_ns_per_fact: per(enc_ns, facts as f64),
    })
}

// ------------------------------------------------------------------ log

#[derive(Default)]
struct WalReplay {
    append_ns_per_record: f64,
    replay_ns_per_record: f64,
    disk_fsync_p50_us: f64,
}

/// A bare `Wal` fed the payloads the engine would log for the recorded
/// asserts (one op and one commit per fact, the daemon's default policy),
/// then recovered; and the checkout disk's real flush latency, once.
fn wal_replay(dir: &Path, recorded: &[RoundOps]) -> Result<WalReplay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {}", dir.display(), e))?;
    let path = dir.join("replay.wal");
    let (mut wal, _) = Wal::open(&path, WalOptions::default()).map_err(|e| e.to_string())?;
    let mut tag = 0;
    let mut append_ns = 0.0;
    for ops in recorded.iter().take(TWIN_ROUNDS) {
        for f in &ops.asserts {
            tag += 1;
            let wme = Wme::new(TimeTag::new(tag), f.class, f.slots.clone());
            let t = Instant::now();
            let payload = encode_wme_op(&WmeOp::Assert(wme));
            wal.append_op(&payload).map_err(|e| e.to_string())?;
            wal.append_commit().map_err(|e| e.to_string())?;
            append_ns += ns(t);
        }
    }
    let records = wal.stats().records as f64;
    drop(wal);
    let t = Instant::now();
    let (recovered, _) = Wal::recover(&path).map_err(|e| e.to_string())?;
    let replay_ns = ns(t);

    let probe = dir.join("fsync.probe");
    let mut flushes: Vec<f64> = Vec::new();
    if let Ok(mut file) = std::fs::File::create(&probe) {
        use std::io::Write as _;
        for _ in 0..21 {
            if file.write_all(&[0u8; 512]).is_err() {
                break;
            }
            let t = Instant::now();
            if !sys::real_fdatasync(&file) {
                break;
            }
            flushes.push(ns(t) / 1e3);
        }
    }
    Ok(WalReplay {
        append_ns_per_record: per(append_ns, records),
        replay_ns_per_record: per(replay_ns, recovered.len() as f64),
        disk_fsync_p50_us: quantile(&flushes, 0.5),
    })
}

// ---------------------------------------------------------------- daemon

#[derive(Default)]
struct ServerReplay {
    /// Quiet quantile of the time `dispatch_line` took per round.
    quiet_round_us: f64,
    requests_per_round: f64,
    parse_request_ns: f64,
    render_ns: f64,
}

/// The recorded rounds through `dispatch_line` on a second daemon with the
/// same resident session, no socket and no second thread; then the
/// request parser and the response renderer alone over what was said.
fn server_replay(cfg: &Config, dir: &Path, recorded: &[RoundOps]) -> Result<ServerReplay, String> {
    let w = cfg.workload;
    let mut gen = Generator::new(w, cfg.seed, Sizes::of(w, cfg.scale));
    let mut t = ServeTarget::set_up(&mut gen, dir, Transport::Direct)?;
    t.recorded = Some(Vec::new());
    let before = t.counts();
    let mut tr = Tracer::new(false);
    let mut samples = Samples::default();
    let mut round_us: Vec<f64> = Vec::new();
    for ops in recorded.iter().take(TWIN_ROUNDS) {
        let ns_before = t.dispatch_ns;
        round(w, &mut t, ops.clone(), &mut tr, &mut samples);
        round_us.push((t.dispatch_ns - ns_before) as f64 / 1e3);
    }
    let after = t.counts();
    if after.failed > 0 {
        return Err(format!("{} direct-dispatch requests failed", after.failed));
    }
    let said = t.recorded.take().unwrap_or_default();
    let (mut parse_ns, mut render_ns) = (0.0, 0.0);
    for (line, response) in &said {
        let t0 = Instant::now();
        black_box(sorete_server::parse_request(line).is_ok());
        parse_ns += ns(t0);
        let t0 = Instant::now();
        black_box(response.render());
        render_ns += ns(t0);
    }
    Ok(ServerReplay {
        quiet_round_us: quantile(&round_us, QUIET),
        requests_per_round: per(
            (after.attempted - before.attempted) as f64,
            round_us.len() as f64,
        ),
        parse_request_ns: per(parse_ns, said.len() as f64),
        render_ns: per(render_ns, said.len() as f64),
    })
}

// ------------------------------------------------------------ the pass

/// Counters read right after set-up; the per-op figures are differences
/// against them.
pub struct AfterSetup {
    pub counts: OpCounts,
    pub alloc: AllocSnapshot,
    pub stats: MatchStats,
    pub external_ops: u64,
}

impl AfterSetup {
    pub fn read(live: &mut Live) -> Result<AfterSetup, String> {
        Ok(AfterSetup {
            counts: live.target().counts(),
            alloc: sys::alloc_snapshot(),
            stats: with_engine(live, |ps| ps.match_stats())?,
            external_ops: live.target().external_ops(),
        })
    }
}

pub fn traced_pass(
    cfg: &Config,
    root: &TempRoot,
    live: &mut Live,
    gen: &mut Generator,
    untraced: &Samples,
    base: &AfterSetup,
    notes: &mut Vec<(String, String)>,
) -> Result<Vec<Metric>, String> {
    let w = cfg.workload;
    let is_serve = w == Workload::ServeDurable;

    // ---- a tenth of the rounds again, under spans
    let n_traced = (untraced.rounds() / 10).max(3);
    let mut tr = Tracer::new(true);
    let mut traced = Samples::default();
    let mut recorded: Vec<RoundOps> = Vec::with_capacity(n_traced);
    let mut firings_traced = 0u64;
    let run_before = with_engine(live, |ps| ps.stats().clone())?;
    for i in 0..n_traced {
        let ops = gen.round();
        recorded.push(ops.clone());
        tr.set_round(i as u32);
        firings_traced += round(w, live.target(), ops, &mut tr, &mut traced);
    }
    let alloc_after_rounds = sys::alloc_snapshot();
    let stats_after_rounds = with_engine(live, |ps| ps.match_stats())?;
    let run_after = with_engine(live, |ps| ps.stats().clone())?;
    let external_ops = live.target().external_ops() - base.external_ops;

    let trace_path = cfg.out.join(format!("{}.trace.json", w.name()));
    std::fs::write(&trace_path, tr.to_json())
        .map_err(|e| format!("write {}: {}", trace_path.display(), e))?;
    notes.push(("trace_file".into(), trace_path.display().to_string()));
    notes.push(("traced_rounds".into(), n_traced.to_string()));

    let round_total = tr.total("round") as f64;
    let self_times = tr.self_times();
    for (name, t) in &self_times {
        notes.push((
            format!("share.{}", name),
            format!("{:.1} permille", per(*t as f64 * 1000.0, round_total)),
        ));
    }
    let unattributed = self_times
        .iter()
        .find(|(n, _)| *n == "round")
        .map_or(0.0, |(_, t)| per(*t as f64 * 1000.0, round_total));
    // Against the plain rounds run just before, as many of them: the quiet
    // quantile of a short sample sits higher than that of a long one.
    let plain_tail = untraced.round_times();
    let plain_tail = &plain_tail[plain_tail.len().saturating_sub(n_traced)..];
    let trace_overhead = (per(
        quantile(&traced.round_times(), QUIET),
        quantile(plain_tail, QUIET),
    ) - 1.0)
        * 1000.0;

    // ---- exact counts per external op, from the engine under test
    let d = stats_diff(&stats_after_rounds, &base.stats);
    let ops = external_ops as f64;
    let allocs = (alloc_after_rounds.allocs - base.alloc.allocs) as f64;
    let alloc_bytes = (alloc_after_rounds.bytes - base.alloc.bytes) as f64;

    // ---- layer replays
    let rete = rete_replay(live, &recorded)?;
    let codec = codec_replay(w, &recorded)?;

    let (ckpt_ms, ckpt_bytes_per_wme, text) = with_engine(live, |ps| {
        let t = Instant::now();
        let text = ps.checkpoint_string();
        let ms = ns(t) / 1e6;
        (ms, per(text.len() as f64, ps.wm().len() as f64), text)
    })?;
    let t = Instant::now();
    let mut fresh = ProductionSystem::new(MatcherKind::Rete);
    fresh.set_crash_dir(root.sub("resume"));
    fresh.load_program(w.program()).map_err(|e| e.to_string())?;
    fresh.resume_from_str(&text).map_err(|e| e.to_string())?;
    let resume_ms = ns(t) / 1e6;
    drop(fresh);
    drop(text);

    // One engine at a time: each twin holds a full resident WM.
    let plain = twin_run(
        cfg,
        &root.sub("twin"),
        &recorded,
        Twin::Plain { jobs: 1 },
        true,
    )?;
    let jobs2 = twin_run(
        cfg,
        &root.sub("twin"),
        &recorded,
        Twin::Plain { jobs: 2 },
        false,
    )?;
    // Telemetry is measured on the daemon's op stream only: it is the
    // daemon that turns it on, and on the library rungs one round under it
    // takes minutes (the metrics sampler walks the matcher's memory on
    // every firing).
    let session = match live {
        Live::Serve(_) => Some(twin_run(
            cfg,
            &root.sub("twin"),
            &recorded,
            Twin::AsSession,
            false,
        )?),
        Live::Lib(_) => None,
    };
    // Twins may stop at different rounds; compare the rounds both ran.
    let k = jobs2.samples.rounds().min(plain.samples.rounds());
    let jobs2_ratio = per(
        sum(&jobs2.samples.ingest[..k]),
        sum(&plain.samples.ingest[..k]),
    );
    let telemetry = session.as_ref().map_or(0.0, |s| {
        let k = s.samples.rounds().min(plain.samples.rounds());
        (per(rounds_us(&s.samples, k), rounds_us(&plain.samples, k)) - 1.0) * 1000.0
    });
    drop(jobs2);
    drop(session);

    // Engine-level spans come from the engine under test when it is driven
    // through the library, and from the plain twin when it sits behind the
    // daemon.
    let (engine_tr, engine_firings, engine_visits, engine_samples) = match live {
        Live::Lib(t) => (&tr, firings_traced, t.select_visits, &traced),
        Live::Serve(_) => (
            &plain.tracer,
            plain.firings,
            plain.select_visits,
            &plain.samples,
        ),
    };
    let assert_ns_per_wme = per(
        engine_tr.total("assert_wme") as f64,
        engine_tr.count("assert_wme") as f64,
    );
    let step_ns_per_firing = per(engine_tr.total("step") as f64, engine_firings as f64);
    let materialize_ns = per(
        sum(&engine_samples.query) * 1e3,
        engine_samples.entries.iter().sum::<usize>() as f64,
    );

    let (wal, server, ingest_wal) = match live {
        Live::Serve(t) => (
            wal_replay(&root.sub("wal-replay"), &recorded)?,
            server_replay(cfg, &root.sub("dispatch"), &recorded)?,
            t.ingest_wal,
        ),
        Live::Lib(_) => Default::default(),
    };
    // Per request, from the quiet round on each side: over loopback on the
    // daemon under test, through `dispatch_line` on its twin, and the same
    // ops on the plain library twin (every query of the round counted).
    let reps = query_reps(w) as f64;
    let engine_round_us: Vec<f64> = (0..plain.samples.rounds())
        .map(|i| {
            let s = &plain.samples;
            s.ingest[i] + s.query[i] * reps + s.run[i] + s.retract[i]
        })
        .collect();
    let dispatch_us = per(server.quiet_round_us, server.requests_per_round);
    let loopback_us = per(
        quantile(&tr.per_round_us("loopback"), QUIET),
        server.requests_per_round,
    );
    let engine_share = per(
        quantile(&engine_round_us, QUIET) * 1000.0,
        server.quiet_round_us,
    );
    let facts = ingest_wal.facts as f64;
    notes.push(("twin_rounds".into(), plain.samples.rounds().to_string()));

    let firings = (run_after.firings - run_before.firings) as f64;
    let actions = (run_after.actions - run_before.actions) as f64;
    let requests = live.target().counts();
    let (insert_ns, remove_ns) = (
        per(rete.insert_ns, rete.inserts as f64),
        per(rete.remove_ns, rete.removes as f64),
    );
    #[rustfmt::skip]
    let table: Vec<(&str, f64, &'static str)> = vec![
        ("lang.parse_us", codec.parse_us, "us"),
        ("lang.json_decode_ns_per_fact", codec.decode_ns_per_fact, "ns"),
        ("lang.json_encode_ns_per_fact", codec.encode_ns_per_fact, "ns"),
        ("rete.insert_ns_per_wme", insert_ns, "ns"),
        ("rete.remove_ns_per_wme", remove_ns, "ns"),
        ("rete.drain_ns_per_delta", per(rete.drain_ns, rete.deltas as f64), "ns"),
        ("rete.rebuild_ns_per_wme", rete.rebuild_ns_per_wme, "ns"),
        ("rete.alpha_activations_per_op", per(d.alpha_activations as f64, ops), "count"),
        ("rete.beta_activations_per_op", per(d.beta_activations as f64, ops), "count"),
        ("rete.join_tests_per_op", per(d.join_tests as f64, ops), "count"),
        ("rete.index_probes_per_op", per(d.index_probes as f64, ops), "count"),
        ("rete.tokens_created_per_op", per(d.tokens_created as f64, ops), "count"),
        ("rete.tokens_deleted_per_op", per(d.tokens_deleted as f64, ops), "count"),
        ("rete.tokens_per_cs_delta", rete.tokens_per_cs_delta, "count"),
        ("rete.bytes_per_wme", rete.bytes_per_wme, "B"),
        ("soi.snode_activations_per_op", per(d.snode_activations as f64, ops), "count"),
        ("soi.aggregate_updates_per_op", per(d.aggregate_updates as f64, ops), "count"),
        ("soi.recomputes_per_op", rete.recomputes_per_op, "count"),
        ("soi.gamma_rows", rete.gamma_rows, "count"),
        ("soi.gamma_bytes", rete.gamma_bytes, "B"),
        ("core.ingest_overhead_ns_per_wme", assert_ns_per_wme - insert_ns, "ns"),
        ("core.conflict_apply_ns_per_delta", per(rete.apply_ns, rete.applied as f64), "ns"),
        ("core.conflict_select_ns", per(rete.select_ns, rete.selects as f64), "ns"),
        ("core.select_visits_per_firing", per(engine_visits as f64, engine_firings as f64), "count"),
        ("core.step_ns_per_firing", step_ns_per_firing, "ns"),
        ("core.actions_per_firing", per(actions, firings), "count"),
        ("core.firings_per_round", per(firings, n_traced as f64), "count"),
        ("core.materialize_ns_per_item", materialize_ns, "ns"),
        ("core.checkpoint_ms", ckpt_ms, "ms"),
        ("core.resume_ms", resume_ms, "ms"),
        ("core.checkpoint_bytes_per_wme", ckpt_bytes_per_wme, "B"),
        ("core.jobs2_wall_ratio", jobs2_ratio, "ratio"),
        ("reldb.wal_records_per_fact", per(ingest_wal.records as f64, facts), "count"),
        ("reldb.wal_bytes_per_fact", per(ingest_wal.bytes as f64, facts), "B"),
        ("reldb.wal_writes_per_fact", per(ingest_wal.writes as f64, facts), "count"),
        ("reldb.wal_fsyncs_per_fact", per(ingest_wal.fsyncs as f64, facts), "count"),
        ("reldb.wal_append_ns_per_record", wal.append_ns_per_record, "ns"),
        ("reldb.wal_replay_ns_per_record", wal.replay_ns_per_record, "ns"),
        ("reldb.disk_fsync_p50_us", wal.disk_fsync_p50_us, "us"),
        ("server.dispatch_us_per_request", dispatch_us, "us"),
        ("server.loopback_overhead_us", loopback_us - dispatch_us, "us"),
        ("server.parse_request_ns", server.parse_request_ns, "ns"),
        ("server.render_ns", server.render_ns, "ns"),
        ("server.engine_share_permille", engine_share, "permille"),
        ("server.requests", if is_serve { (requests.attempted - base.counts.attempted) as f64 } else { 0.0 }, "count"),
        ("server.refused", if is_serve { (requests.failed - base.counts.failed) as f64 } else { 0.0 }, "count"),
        ("base.telemetry_overhead_permille", telemetry, "permille"),
        ("harness.allocs_per_op", per(allocs, ops), "count"),
        ("harness.alloc_bytes_per_op", per(alloc_bytes, ops), "B"),
        ("harness.peak_live_heap_mb", alloc_after_rounds.peak_live as f64 / (1024.0 * 1024.0), "MB"),
        ("harness.trace_overhead_permille", trace_overhead, "permille"),
        ("harness.unattributed_permille", unattributed, "permille"),
    ];
    Ok(table
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect())
}
