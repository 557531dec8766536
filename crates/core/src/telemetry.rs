//! The engine's telemetry: the one clock its phase boundaries read, the
//! phases that share each reading between a span and a histogram, and the
//! table of metric families sampled when someone reads the registry.
//!
//! Metrics are read, not pushed. Counters and gauges keep their single
//! source of truth ([`RunStats`], [`MatchStats`], [`WalStats`],
//! [`SupervisorStats`], the matcher's memory report and event counters)
//! and reach the registry only when [`ProductionSystem::record_metrics_snapshot`]
//! samples it: every reader calls that first, and a cycle's end calls it
//! only while a JSONL stream is attached, because per-cycle rows are that
//! stream's product. Histograms are observed as each timed phase ends.
//!
//! [`ProductionSystem::record_metrics_snapshot`]: crate::ProductionSystem::record_metrics_snapshot

use crate::policy::SupervisorStats;
use crate::stats::RunStats;
use sorete_base::span::OpenSpan;
use sorete_base::{MatchStats, MemoryRegion, MetricId, MetricKind, Metrics, Spans};
use sorete_lang::matcher::Matcher;
use sorete_reldb::WalStats;
use std::time::Instant;

#[cfg(test)]
thread_local! {
    /// Readings of [`now`] on this thread, so tests can pin how often each
    /// telemetry setting reads the clock.
    pub(crate) static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Registry samples ([`EngineMetrics::sample`]) on this thread.
    pub(crate) static SAMPLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The engine's one clock: every phase boundary reads it through here, at
/// most once, and only when a span, a histogram or the flight recorder
/// takes the reading.
#[inline]
pub(crate) fn now() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

/// The engine's four wall-time histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Hist {
    Fire,
    Resolve,
    Rhs,
    Match,
}

/// What the sampled families read: the engine's counters and sizes at one
/// cycle barrier.
pub(crate) struct Sources<'a> {
    pub(crate) cycle: u64,
    pub(crate) run: &'a RunStats,
    pub(crate) matched: MatchStats,
    pub(crate) wal: WalStats,
    pub(crate) sup: SupervisorStats,
    pub(crate) quarantined: u64,
    pub(crate) conflict_set: u64,
    pub(crate) wm: u64,
    pub(crate) matcher: &'a dyn Matcher,
}

/// Where a metric family's values come from.
#[derive(Clone, Copy)]
enum Source {
    /// A counter sampled from the engine.
    Counter(fn(&Sources, &EngineMetrics) -> u64),
    /// A gauge sampled from the engine.
    Gauge(fn(&Sources, &EngineMetrics) -> u64),
    /// Observed as a timed phase ends; never sampled.
    Timed(Hist),
    /// One gauge series per region of the matcher's memory report,
    /// labeled `region`.
    Region(fn(&MemoryRegion) -> u64),
    /// One counter series per matcher event counter, labeled `kind`.
    Events,
}

impl Source {
    fn kind(self) -> MetricKind {
        match self {
            Source::Counter(_) | Source::Events => MetricKind::Counter,
            Source::Gauge(_) | Source::Region(_) => MetricKind::Gauge,
            Source::Timed(_) => MetricKind::Histogram,
        }
    }
}

use Source::{Counter, Events, Gauge, Region, Timed};

/// Every engine metric family, in registration (and so exposition) order:
/// name, help text, source. The unlabeled families are registered when
/// metrics are enabled; a labeled series when a sample first sees it.
#[rustfmt::skip]
const FAMILIES: &[(&str, &str, Source)] = &[
    ("sorete_cycles_total", "Recognise-act cycles begun", Counter(|s, _| s.cycle)),
    ("sorete_firings_total", "Rule firings (incl. rolled back)", Counter(|s, _| s.run.firings)),
    ("sorete_actions_total", "RHS actions executed", Counter(|s, _| s.run.actions)),
    ("sorete_makes_total", "RHS make actions", Counter(|s, _| s.run.makes)),
    ("sorete_removes_total", "RHS remove actions", Counter(|s, _| s.run.removes)),
    ("sorete_modifies_total", "RHS modify actions", Counter(|s, _| s.run.modifies)),
    ("sorete_writes_total", "RHS write actions", Counter(|s, _| s.run.writes)),
    ("sorete_skipped_actions_total", "RHS actions on already-dead WMEs (overlapping set ops)",
        Counter(|s, _| s.run.skipped_actions)),
    ("sorete_rolled_back_total", "Firings rolled back", Counter(|s, _| s.run.rolled_back)),
    ("sorete_wm_asserts_total", "WME assertions", Counter(|_, m| m.wm_asserts)),
    ("sorete_wm_retracts_total", "WME retractions", Counter(|_, m| m.wm_retracts)),
    ("sorete_match_alpha_activations_total", "Alpha-memory activations",
        Counter(|s, _| s.matched.alpha_activations)),
    ("sorete_match_beta_activations_total", "Beta-node activations",
        Counter(|s, _| s.matched.beta_activations)),
    ("sorete_match_join_tests_total", "Join consistency tests", Counter(|s, _| s.matched.join_tests)),
    ("sorete_match_tokens_created_total", "Tokens created", Counter(|s, _| s.matched.tokens_created)),
    ("sorete_match_tokens_deleted_total", "Tokens deleted", Counter(|s, _| s.matched.tokens_deleted)),
    ("sorete_match_snode_activations_total", "S-node activations",
        Counter(|s, _| s.matched.snode_activations)),
    ("sorete_match_aggregate_updates_total", "Incremental aggregate updates",
        Counter(|s, _| s.matched.aggregate_updates)),
    ("sorete_match_index_probes_total", "Hash-index probes", Counter(|s, _| s.matched.index_probes)),
    ("sorete_match_index_skipped_tests_total",
        "Join tests answered by hash indexes instead of evaluation",
        Counter(|s, _| s.matched.index_skipped_tests)),
    ("sorete_wal_records_total", "WAL records appended", Counter(|s, _| s.wal.records)),
    ("sorete_wal_bytes_total", "WAL bytes appended", Counter(|s, _| s.wal.bytes)),
    ("sorete_wal_commits_total", "WAL commit points (tx commits + cycle markers)",
        Counter(|s, _| s.wal.commits)),
    ("sorete_wal_fsyncs_total", "WAL fsyncs issued", Counter(|s, _| s.wal.fsyncs)),
    ("sorete_wal_recovered_records_total", "Committed WAL records replayed at attach",
        Counter(|s, _| s.wal.recovered_records)),
    ("sorete_wal_truncated_bytes_total", "WAL tail bytes truncated by recovery at attach",
        Counter(|s, _| s.wal.truncated_bytes)),
    ("sorete_wal_writes_total", "write(2) calls issued by the WAL (group-commit flushes)",
        Counter(|s, _| s.wal.writes)),
    ("sorete_supervisor_panics_total", "Panics caught unwinding out of firings",
        Counter(|s, _| s.sup.panics_caught)),
    ("sorete_supervisor_io_retries_total", "Durable-I/O retry attempts (WAL appends + checkpoints)",
        Counter(|s, _| s.sup.io_retries)),
    ("sorete_supervisor_quarantines_total", "Circuit-breaker trips (rules quarantined)",
        Counter(|s, _| s.sup.quarantines)),
    ("sorete_supervisor_readmissions_total", "Quarantined rules re-admitted",
        Counter(|s, _| s.sup.readmissions)),
    ("sorete_supervisor_soft_degrades_total", "Soft-budget degradations (automatic checkpoints)",
        Counter(|s, _| s.sup.soft_degrades)),
    ("sorete_supervisor_hard_degrades_total", "Hard-budget degradations (orderly halts)",
        Counter(|s, _| s.sup.hard_degrades)),
    ("sorete_quarantined_rules", "Rules currently quarantined", Gauge(|s, _| s.quarantined)),
    ("sorete_conflict_set_size", "Conflict-set entries (fired included)", Gauge(|s, _| s.conflict_set)),
    ("sorete_wm_size", "Working-memory size", Gauge(|s, _| s.wm)),
    ("sorete_fire_nanos", "Whole recognise-act cycle wall time (ns)", Timed(Hist::Fire)),
    ("sorete_resolve_nanos", "Conflict-resolution (select + materialize) wall time (ns)",
        Timed(Hist::Resolve)),
    ("sorete_rhs_nanos", "RHS execution wall time (ns)", Timed(Hist::Rhs)),
    ("sorete_match_nanos", "Matcher propagation wall time per WM change (ns)", Timed(Hist::Match)),
    ("sorete_memory_bytes", "Estimated live bytes per matcher store (live-set methodology)",
        Region(|r| r.bytes)),
    ("sorete_memory_entries", "Live entries per matcher store", Region(|r| r.entries)),
    ("sorete_matcher_events_total",
        "Backend-specific match events (S-node token protocol, gamma churn)", Events),
];

/// The engine's registry handle, the ids of its histograms, and the two
/// WM-churn tallies that have no [`RunStats`] source of truth.
pub(crate) struct EngineMetrics {
    pub(crate) handle: Metrics,
    hists: [MetricId; 4],
    /// WME assertions (engine API + RHS `make` + `modify` re-asserts).
    pub(crate) wm_asserts: u64,
    /// WME retractions (engine API + RHS `remove` + `modify` retracts).
    pub(crate) wm_retracts: u64,
}

impl EngineMetrics {
    /// A fresh registry with every unlabeled family registered, in table
    /// order.
    pub(crate) fn new() -> EngineMetrics {
        let handle = Metrics::new_registry();
        let mut hists = [None; 4];
        handle.with(|r| {
            for &(name, help, source) in FAMILIES {
                if matches!(source, Region(_) | Events) {
                    continue;
                }
                let id = r.register(source.kind(), name, help, None);
                if let Timed(h) = source {
                    hists[h as usize] = Some(id);
                }
            }
        });
        EngineMetrics {
            handle,
            hists: hists.map(|id| id.expect("one family per histogram")),
            wm_asserts: 0,
            wm_retracts: 0,
        }
    }

    /// Sample every family from `src` and record a snapshot at its cycle
    /// (streamed when a stream is attached). Labeled series are registered
    /// on first sight, in the order the matcher names them.
    pub(crate) fn sample(&self, src: &Sources) {
        #[cfg(test)]
        SAMPLES.with(|n| n.set(n.get() + 1));
        let memory = src.matcher.memory_report();
        let mut events = Vec::new();
        src.matcher.metric_counters(&mut events);
        self.handle.with(|r| {
            for &(name, help, source) in FAMILIES {
                if let Counter(read) | Gauge(read) = source {
                    let id = r.register(source.kind(), name, help, None);
                    r.set(id, read(src, self));
                }
            }
            for region in &memory.regions {
                for &(name, help, source) in FAMILIES {
                    if let Region(read) = source {
                        let id =
                            r.register(source.kind(), name, help, Some(("region", region.name)));
                        r.set(id, read(region));
                    }
                }
            }
            for &(kind, total) in &events {
                for &(name, help, source) in FAMILIES {
                    if let Events = source {
                        let id = r.register(source.kind(), name, help, Some(("kind", kind)));
                        r.set(id, total);
                    }
                }
            }
            r.snapshot(src.cycle);
        });
    }
}

/// One timed phase: its span ticket and its start reading (`None` when
/// nothing takes the phase's boundaries).
#[derive(Clone, Copy)]
pub(crate) struct Phase {
    span: Option<OpenSpan>,
    pub(crate) start: Option<Instant>,
}

/// The engine's span recorder and metrics registry, and the clock reading
/// they share across cycles.
#[derive(Default)]
pub(crate) struct Telemetry {
    /// Hierarchical span recorder (run → cycle → match/resolve/rhs/
    /// wal_commit); disabled (a single branch per site) until
    /// `enable_spans`.
    pub(crate) spans: Spans,
    /// `None` until `enable_metrics` — the disabled path is a null check.
    pub(crate) metrics: Option<Box<EngineMetrics>>,
    /// Within a run, the reading that ended the last cycle (at first, the
    /// run's start): the next cycle starts there, so a cycle boundary is
    /// read once. `None` outside a run.
    pub(crate) cycle_stamp: Option<Instant>,
}

impl Telemetry {
    /// A boundary's reading, taken when a span or the phase's histogram
    /// (`hist`) takes it.
    pub(crate) fn read(&self, hist: Option<Hist>) -> Option<Instant> {
        (self.spans.enabled() || hist.is_some() && self.metrics.is_some()).then(now)
    }

    /// Open a phase, and its scoped span, at the reading `at`.
    pub(crate) fn open(&self, at: Option<Instant>) -> Phase {
        Phase {
            span: at.and_then(|t| self.spans.begin_scope(t)),
            start: at,
        }
    }

    /// Open the match phase of one WM change, counting the change.
    pub(crate) fn open_match(&mut self, asserted: bool) -> Phase {
        self.count_change(asserted);
        self.open(self.read(Some(Hist::Match)))
    }

    /// Count one WM change in the churn tallies.
    pub(crate) fn count_change(&mut self, asserted: bool) {
        if let Some(m) = &mut self.metrics {
            if asserted {
                m.wm_asserts += 1;
            } else {
                m.wm_retracts += 1;
            }
        }
    }

    /// Close `phase` at a new reading, when a span or `hist` takes one,
    /// and return that reading.
    pub(crate) fn close(
        &self,
        phase: Phase,
        category: &'static str,
        hist: Option<Hist>,
    ) -> Option<Instant> {
        let end = self.read(hist)?;
        self.close_at(phase, end, category, hist, Vec::new);
        Some(end)
    }

    /// Close `phase` at the reading `end`: end its span and observe its
    /// histogram. Returns the phase's nanoseconds.
    pub(crate) fn close_at(
        &self,
        phase: Phase,
        end: Instant,
        category: &'static str,
        hist: Option<Hist>,
        attrs: impl FnOnce() -> Vec<(&'static str, u64)>,
    ) -> u64 {
        self.spans.end_at(phase.span, end, category, attrs);
        let nanos = phase.start.map_or(0, |start| {
            end.saturating_duration_since(start).as_nanos() as u64
        });
        if let (Some(m), Some(h)) = (&self.metrics, hist) {
            let id = m.hists[h as usize];
            m.handle.with(|r| r.observe(id, nanos));
        }
        nanos
    }

    /// Abandon `phase` without recording it.
    pub(crate) fn cancel(&self, phase: Phase) {
        self.spans.cancel(phase.span);
    }

    /// Whether a snapshot stream is attached: then every cycle's end
    /// samples the registry.
    pub(crate) fn streaming(&self) -> bool {
        self.metrics
            .as_ref()
            .and_then(|m| m.handle.with(|r| r.streaming()))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::{CLOCK_READS, SAMPLES};
    use crate::{MatcherKind, ProductionSystem};
    use sorete_base::{SnapshotWriter, Value};

    /// 100 firings, each one `modify`: a retract and an assert, two WM
    /// changes per cycle.
    const COUNTER: &str = "(literalize counter n)
        (p bump (counter ^n <x> < 100) --> (modify 1 ^n (compute <x> + 1)))";

    /// An engine loaded with [`COUNTER`] and its one fact (one API-level
    /// WM change), telemetry set up by `setup` first.
    fn counter(setup: impl FnOnce(&mut ProductionSystem)) -> ProductionSystem {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        setup(&mut ps);
        ps.load_program(COUNTER).unwrap();
        ps
    }

    /// Clock reads of `f` on this thread.
    fn reads(f: impl FnOnce()) -> u64 {
        let before = CLOCK_READS.with(|n| n.get());
        f();
        CLOCK_READS.with(|n| n.get()) - before
    }

    /// Registry samples of `f` on this thread.
    fn samples(f: impl FnOnce()) -> u64 {
        let before = SAMPLES.with(|n| n.get());
        f();
        SAMPLES.with(|n| n.get()) - before
    }

    fn make(ps: &mut ProductionSystem) {
        ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
    }

    fn run_all(ps: &mut ProductionSystem) {
        assert_eq!(ps.run(None).fired, 100);
    }

    #[test]
    fn nothing_on_reads_no_clock() {
        let mut ps = counter(|ps| ps.set_flight_recorder(0));
        assert_eq!(reads(|| make(&mut ps)), 0);
        assert_eq!(reads(|| run_all(&mut ps)), 0);
    }

    #[test]
    fn recorder_only_reads_once_per_cycle_and_never_per_wm_op() {
        let mut ps = counter(|_| {});
        assert_eq!(reads(|| make(&mut ps)), 0, "an API op reads no clock");
        // The run's start is its first cycle's start; every cycle then
        // reads once, at its end.
        assert_eq!(reads(|| run_all(&mut ps)), 1 + 100);
    }

    #[test]
    fn everything_on_reads_each_boundary_once() {
        let mut ps = counter(|ps| {
            ps.enable_spans();
            ps.enable_metrics();
        });
        assert_eq!(reads(|| make(&mut ps)), 2, "match start and end");
        // Per cycle: resolve end (= RHS start), RHS end, commit start and
        // end, cycle end (= the next cycle's start) — and 2 per WM change.
        let per_cycle = 5 + 2 * 2;
        assert_eq!(reads(|| run_all(&mut ps)), 1 + 100 * per_cycle);
        // The spans and histograms still see every phase.
        ps.record_metrics_snapshot();
        let m = ps.metrics();
        let hist = |family: &str| {
            let text = m.with(|r| r.render_prometheus()).unwrap();
            let line = format!("{}_count ", family);
            let at = text.find(&line).unwrap() + line.len();
            text[at..].lines().next().unwrap().parse::<u64>().unwrap()
        };
        assert_eq!(hist("sorete_fire_nanos"), 100);
        assert_eq!(hist("sorete_resolve_nanos"), 100);
        assert_eq!(hist("sorete_rhs_nanos"), 100);
        assert_eq!(hist("sorete_match_nanos"), 1 + 200);
        let spans = ps.take_spans();
        let count = |cat: &str| spans.iter().filter(|s| s.category == cat).count();
        assert_eq!(count("cycle"), 100);
        assert_eq!(count("wal_commit"), 100);
        assert_eq!(count("match"), 201);
        assert_eq!(count("run"), 1);
    }

    #[test]
    fn metrics_sample_on_read_and_per_cycle_only_into_a_stream() {
        let mut ps = counter(|ps| ps.enable_metrics());
        make(&mut ps);
        assert_eq!(samples(|| run_all(&mut ps)), 0);
        assert_eq!(samples(|| ps.record_metrics_snapshot()), 1);
        assert_eq!(
            ps.metrics()
                .with(|r| r.value("sorete_firings_total", ""))
                .flatten(),
            Some(100)
        );

        let path = std::env::temp_dir().join(format!(
            "sorete-telemetry-stream-{}.jsonl",
            std::process::id()
        ));
        let mut ps = counter(|ps| ps.set_metrics_stream(SnapshotWriter::create(&path).unwrap()));
        make(&mut ps);
        assert_eq!(samples(|| run_all(&mut ps)), 100);
        assert_eq!(ps.metrics_stream_written(), 100);
        drop(ps);
        let _ = std::fs::remove_file(&path);
    }
}
