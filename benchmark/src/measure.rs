//! One invocation: set-up, the closed loop of rounds with probes spread
//! over it, the statistics, and (with `--trace 1`) the traced rounds and
//! layer replays.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sorete_core::{MatcherKind, ProductionSystem};
use sorete_server::Session;

use crate::target::{LibTarget, OpCounts, ServeTarget, Target, Transport, SESSION};
use crate::trace::Tracer;
use crate::workload::{Generator, RoundOps, Sizes, Workload};
use crate::{check, layers, sys};

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock budget of the round loop, probes included.
    pub seconds: f64,
    /// Fixed round count instead of a time budget (tests: exact counters
    /// repeat only for a fixed count).
    pub rounds: Option<u64>,
    /// Divides every workload size (tests and the naive-matcher oracle).
    pub scale: usize,
    pub trace: bool,
    /// Where traces and the per-run temp root go.
    pub out: PathBuf,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

pub struct Report {
    pub correct: bool,
    pub counts: OpCounts,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Facts about the run that are not metrics (host, sizes, hashes).
    pub notes: Vec<(String, String)>,
}

/// Cold starts and recoveries per run, the real set-up being the first.
/// More probes steady the minimum (IQR/median of `setup_s` over ten runs:
/// 9–15 % with 5, 6–11 % with 9); `join_churn`'s cost four times as much
/// each, and nine of them would take 10 s of the budget.
fn probes(w: Workload) -> usize {
    match w {
        Workload::JoinChurn => 5,
        _ => 9,
    }
}

/// The recovery snapshot is taken after this many rounds, a fixed count so
/// that `serve_durable`'s log holds the same records in every run. Peak
/// RSS is read at the same point, before any scratch engine exists.
fn snapshot_round(w: Workload) -> u64 {
    match w {
        Workload::ServeDurable => 100,
        _ => 40,
    }
}

/// Rounds per throughput segment.
const SEGMENT: usize = 20;
/// Share of rounds discarded as warm-up.
const WARM_UP: f64 = 0.05;

/// Every file the run writes lives under this directory, which is removed
/// when the value drops — also on a failed check or a panic.
pub struct TempRoot(PathBuf);

impl TempRoot {
    fn create(out: &Path) -> Result<TempRoot, String> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {}", dir.display(), e))?;
        Ok(TempRoot(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The system under test, behind whichever entry point the workload uses.
pub enum Live {
    Lib(Box<LibTarget>),
    Serve(Box<ServeTarget>),
}

impl Live {
    /// The workload's complete set-up into `dir` (session data and crash
    /// bundles go there).
    pub fn set_up(workload: Workload, gen: &mut Generator, dir: &Path) -> Result<Live, String> {
        match workload {
            Workload::ServeDurable => Ok(Live::Serve(Box::new(ServeTarget::set_up(
                gen,
                dir,
                Transport::Loopback,
            )?))),
            _ => Ok(Live::Lib(Box::new(LibTarget::set_up(
                workload,
                MatcherKind::Rete,
                1,
                gen,
                dir,
            )?))),
        }
    }

    pub fn target(&mut self) -> &mut dyn Target {
        match self {
            Live::Lib(t) => t.as_mut(),
            Live::Serve(t) => t.as_mut(),
        }
    }
}

/// What a recovery probe starts from.
enum Snapshot {
    /// Library workloads: checkpoint text.
    Text(String),
    /// `serve_durable`: a copy of the session directory (program,
    /// checkpoint, log).
    Dir(PathBuf),
}

fn copy_session(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {}", to.display(), e))?;
    for name in ["program.ops", "session.ckpt", "session.wal"] {
        std::fs::copy(from.join(name), to.join(name))
            .map_err(|e| format!("copy {}: {}", from.join(name).display(), e))?;
    }
    Ok(())
}

fn take_snapshot(live: &mut Live, root: &TempRoot) -> Result<Snapshot, String> {
    match live {
        Live::Lib(t) => Ok(Snapshot::Text(t.ps.checkpoint_string())),
        Live::Serve(t) => {
            let dir = root.sub("snapshot");
            copy_session(&t.data_dir.join(SESSION), &dir.join(SESSION))?;
            Ok(Snapshot::Dir(dir))
        }
    }
}

/// One recovery from the snapshot into a scratch engine; returns seconds.
fn recover_once(
    workload: Workload,
    snap: &Snapshot,
    scratch: &Path,
) -> Result<(f64, ProductionSystem), String> {
    match snap {
        Snapshot::Text(text) => {
            let t = Instant::now();
            let mut ps = ProductionSystem::new(MatcherKind::Rete);
            ps.set_crash_dir(scratch);
            ps.load_program(workload.program())
                .map_err(|e| e.to_string())?;
            ps.resume_from_str(text).map_err(|e| e.to_string())?;
            Ok((t.elapsed().as_secs_f64(), ps))
        }
        Snapshot::Dir(dir) => {
            let _ = std::fs::remove_dir_all(scratch);
            copy_session(&dir.join(SESSION), &scratch.join(SESSION))?;
            let t = Instant::now();
            let s = Session::open(scratch, SESSION).map_err(|e| e.message)?;
            Ok((t.elapsed().as_secs_f64(), s.ps))
        }
    }
}

/// Snapshot the live system and recover from the snapshot once (probe 0).
fn snapshot_and_recover(
    w: Workload,
    live: &mut Live,
    root: &TempRoot,
) -> Result<(Snapshot, f64), String> {
    let snap = take_snapshot(live, root)?;
    let (secs, ps) = recover_once(w, &snap, &root.sub("probe-0"))?;
    // Only the daemon keeps running on the state it was recovered beside,
    // so only there is "recovered ≡ live" checked.
    if let Live::Serve(t) = live {
        check::recovered_matches_live(t, &ps)?;
    }
    Ok((snap, secs))
}

/// Per-round phase times in microseconds.
#[derive(Default)]
pub struct Samples {
    pub ingest: Vec<f64>,
    pub query: Vec<f64>,
    pub run: Vec<f64>,
    pub retract: Vec<f64>,
    /// Conflict-set entries each round's query read.
    pub entries: Vec<usize>,
}

impl Samples {
    pub fn rounds(&self) -> usize {
        self.ingest.len()
    }

    /// Time of each round: its four phases, one query counted.
    pub fn round_times(&self) -> Vec<f64> {
        (0..self.rounds())
            .map(|i| self.ingest[i] + self.query[i] + self.run[i] + self.retract[i])
            .collect()
    }

    fn skip_warm_up(&mut self) {
        let n = (self.rounds() as f64 * WARM_UP).ceil() as usize;
        let n = n.min(self.rounds().saturating_sub(1));
        for v in [
            &mut self.ingest,
            &mut self.query,
            &mut self.run,
            &mut self.retract,
        ] {
            v.drain(..n);
        }
        self.entries.drain(..n);
    }
}

/// A read-only phase shorter than a millisecond is timed over this many
/// back-to-back calls, so every sample covers 2 ms or more.
pub fn query_reps(w: Workload) -> usize {
    match w {
        Workload::JoinChurn => 16,
        Workload::FireTuple => 8,
        Workload::CollectSet => 48,
        Workload::ServeDurable => 2,
    }
}

/// One round, each phase timed from outside. Returns firings.
pub fn round(
    workload: Workload,
    target: &mut dyn Target,
    ops: RoundOps,
    tr: &mut Tracer,
    samples: &mut Samples,
) -> u64 {
    let us = |a: Instant, b: Instant| (b - a).as_nanos() as f64 / 1e3;
    let sp_round = tr.begin("round");

    let t0 = Instant::now();
    let sp = tr.begin("ingest");
    target.ingest(ops, tr);
    tr.end(sp);
    let t1 = Instant::now();

    let reps = query_reps(workload);
    let sp = tr.begin("query");
    let mut entries = 0;
    for _ in 0..reps {
        entries = target.query(tr);
    }
    tr.end(sp);
    let t2 = Instant::now();

    let sp = tr.begin("run");
    let fired = target.run(tr);
    tr.end(sp);
    let t3 = Instant::now();

    target.plan_retract();
    let t4 = Instant::now();
    let sp = tr.begin("retract");
    target.retract(tr);
    tr.end(sp);
    let t5 = Instant::now();
    tr.end(sp_round);

    samples.ingest.push(us(t0, t1));
    samples.query.push(us(t1, t2) / reps as f64);
    samples.run.push(us(t2, t3));
    samples.retract.push(us(t4, t5));
    samples.entries.push(entries);
    fired
}

/// Linear-interpolated quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The quiet quantile: what the program takes when the neighbours are not
/// in the way.
pub const QUIET: f64 = 0.02;

fn min_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    sys::pin_to_cpu(0);
    if cfg.trace {
        sys::count_allocations();
    }
    let root = TempRoot::create(&cfg.out)?;
    let w = cfg.workload;
    // Probe 0 of set-up is the real one.
    let sizes = Sizes::of(w, cfg.scale);
    let mut gen = Generator::new(w, cfg.seed, sizes);
    let t = Instant::now();
    let mut live = Live::set_up(w, &mut gen, &root.sub("live"))?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut recovery_s: Vec<f64> = Vec::new();
    let after_setup = layers::AfterSetup::read(&mut live)?;
    let changes_before = live.target().wm_changes();

    let mut tr = Tracer::new(false);
    let mut samples = Samples::default();
    let mut snapshot: Option<Snapshot> = None;
    let mut firings = 0u64;
    let mut next_probe = 1;
    // A traced invocation spends about half its budget on plain rounds
    // (the harness.* distribution), then repeats a tenth of them under
    // spans, then replays the layers; it takes no probes.
    let budget = if cfg.trace {
        cfg.seconds * 0.45
    } else {
        cfg.seconds
    };
    let snapshot_round = match cfg.rounds {
        Some(r) => snapshot_round(w).min(r / 5).max(1),
        None => snapshot_round(w),
    };
    let mut peak_rss_mb = 0.0;
    let loop_start = Instant::now();
    let mut n: u64 = 0;
    loop {
        let progress = match cfg.rounds {
            Some(r) => n as f64 / r as f64,
            None => loop_start.elapsed().as_secs_f64() / budget,
        };
        if progress >= 1.0 {
            break;
        }
        let due = next_probe < probes(w) && progress >= next_probe as f64 / probes(w) as f64;
        if let (true, Some(snap)) = (due, &snapshot) {
            let scratch = root.sub(&format!("probe-{}", next_probe));
            let mut probe_gen = Generator::new(w, cfg.seed, sizes);
            let t = Instant::now();
            let probe = Live::set_up(w, &mut probe_gen, &scratch)?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(probe);
            recovery_s.push(recover_once(w, snap, &scratch)?.0);
            let _ = std::fs::remove_dir_all(&scratch);
            next_probe += 1;
        }
        firings += round(w, live.target(), gen.round(), &mut tr, &mut samples);
        n += 1;
        if n == snapshot_round && !cfg.trace {
            peak_rss_mb = sys::peak_rss_mb();
            let (snap, secs) = snapshot_and_recover(w, &mut live, &root)?;
            recovery_s.push(secs);
            snapshot = Some(snap);
        }
    }
    if snapshot.is_none() && !cfg.trace {
        // The budget ran out before the snapshot round (a very short run).
        peak_rss_mb = sys::peak_rss_mb();
        recovery_s.push(snapshot_and_recover(w, &mut live, &root)?.1);
    }
    let measured_s = loop_start.elapsed().as_secs_f64();
    let rounds_run = samples.rounds();
    let changes = live.target().wm_changes() - changes_before;
    let changes_per_round = changes as f64 / rounds_run.max(1) as f64;
    samples.skip_warm_up();

    // ---- end-to-end statistics
    let round_times = samples.round_times();
    let per_s = |us: &[f64]| changes_per_round * us.len() as f64 / (us.iter().sum::<f64>() / 1e6);
    let segments: Vec<f64> = round_times.chunks_exact(SEGMENT).map(per_s).collect();
    let wm_ops_per_s = if segments.is_empty() {
        per_s(&round_times)
    } else {
        quantile(&segments, 0.90)
    };
    let mut end_to_end = vec![
        metric("setup_s", min_of(&setup_s), "s"),
        metric("wm_ops_per_s", wm_ops_per_s, "1/s"),
        metric("ingest_q02_us", quantile(&samples.ingest, QUIET), "us"),
        metric("query_q02_us", quantile(&samples.query, QUIET), "us"),
        metric("run_q02_us", quantile(&samples.run, QUIET), "us"),
        metric("retract_q02_us", quantile(&samples.retract, QUIET), "us"),
    ];
    if !cfg.trace {
        end_to_end.push(metric("recovery_s", min_of(&recovery_s), "s"));
        end_to_end.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    }

    let secs = |v: &[f64]| {
        let v: Vec<String> = v.iter().map(|s| format!("{:.4}", s)).collect();
        v.join(" ")
    };
    let mut notes: Vec<(String, String)> = [
        // Hash of what the plain rounds were fed: the traced rounds that
        // may follow draw further ops from the same stream.
        ("stream_hash", format!("{:016x}", gen.stream_hash())),
        ("workload", w.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("rounds", rounds_run.to_string()),
        ("measured_s", format!("{:.3}", measured_s)),
        ("firings", firings.to_string()),
        ("wm_changes_per_round", format!("{:.3}", changes_per_round)),
        ("setup_probes_s", secs(&setup_s)),
        ("recovery_probes_s", secs(&recovery_s)),
        ("cpus", cpus.to_string()),
        ("data_dir", root.path().display().to_string()),
        ("flushes_skipped", sys::sync_calls().to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    // ---- the traced pass
    let mut per_layer = layers::harness_metrics(&samples);
    if cfg.trace {
        let traced = layers::traced_pass(
            cfg,
            &root,
            &mut live,
            &mut gen,
            &samples,
            &after_setup,
            &mut notes,
        )?;
        per_layer.extend(traced);
    }
    // ---- output check
    let counts = live.target().counts();
    let mut correct = counts.failed == 0;
    if let Err(e) = check::check(cfg, &mut live, &root) {
        eprintln!("benchmark: check failed: {}", e);
        correct = false;
    }
    if let Live::Serve(t) = &mut live {
        t.shut_down()?;
    }
    Ok(Report {
        correct,
        counts,
        end_to_end,
        per_layer,
        notes,
    })
}
