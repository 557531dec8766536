//! The production-system engine: recognise–act cycle over a pluggable
//! match algorithm.

use crate::conflict::{ConflictSet, Strategy};
use crate::durable::{Checkpoint, CycleMarker, KeySpec};
use crate::error::CoreError;
use crate::rhs::{self, RhsCtx, RhsHost};
use crate::stats::RunStats;
use crate::supervisor::{Supervisor, SupervisorConfig, SupervisorStats};
use crate::wm::WorkingMemory;
use sorete_base::flight::{CycleRecord, Flight};
use sorete_base::span::category as span_cat;
use sorete_base::{
    CollectSink, ConflictItem, CsDelta, FxHashMap, InstKey, MetricId, Metrics, MetricsRegistry,
    NetProfile, RuleId, SharedSink, SnapshotWriter, Span, Spans, Symbol, TimeTag, TraceEvent,
    Tracer, Value, Wme,
};
use sorete_lang::analyze::AnalyzedRule;
use sorete_lang::matcher::Matcher;
use sorete_lang::{analyze_program, parse_program};
use sorete_naive::NaiveMatcher;
use sorete_reldb::{decode_wme_op, encode_wme_op, IoFaultPlan, Wal, WalOptions, WalRecord};
use sorete_reldb::{WalStats, WmeOp};
use sorete_rete::ReteMatcher;
use sorete_treat::TreatMatcher;
use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which match algorithm backs the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatcherKind {
    /// Rete with S-nodes (the paper's implementation), equality joins
    /// answered through hash-indexed memories.
    #[default]
    Rete,
    /// The same Rete with indexing disabled (pure memory scans) — the
    /// baseline for measuring the indexing win; delta streams are
    /// byte-identical to `Rete`.
    ReteScan,
    /// TREAT (Miranker 1986) with S-nodes.
    Treat,
    /// Recompute-from-scratch oracle.
    Naive,
}

/// What the engine does when a RHS fails mid-firing.
///
/// Undo recording is enabled for every policy except [`AbortRun`]
/// (`RecoveryPolicy::AbortRun`), which therefore has zero per-action
/// overhead but leaves the partial firing's effects in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Stop the run at the error. Partial effects of the failed firing
    /// remain in working memory (the pre-transactional behaviour).
    AbortRun,
    /// Roll the failed firing back, keep it refracted, and continue the
    /// run with the next instantiation.
    SkipFiring,
    /// Roll the failed firing back — working memory, matcher memories,
    /// conflict set, refraction, output, and the `halt` flag return to
    /// their exact pre-firing state — then stop the run with the error.
    #[default]
    Rollback,
}

/// Resource limits enforced by [`ProductionSystem::run`]. All default to
/// unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunGuards {
    /// Maximum wall-clock time for the whole run.
    pub max_wall: Option<Duration>,
    /// Maximum number of WMEs in working memory.
    pub max_wm: Option<usize>,
    /// Maximum consecutive firings of the *same rule* that leave the WME
    /// count unchanged (no WM progress) — catches modify-loops that never
    /// quiesce.
    pub max_stagnant_firings: Option<u64>,
}

/// Which [`RunGuards`] limit a run exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardViolation {
    /// The run exceeded [`RunGuards::max_wall`].
    WallClock {
        /// The configured limit.
        limit: Duration,
    },
    /// Working memory exceeded [`RunGuards::max_wm`].
    WmSize {
        /// The configured limit.
        limit: usize,
        /// WME count when the guard tripped.
        actual: usize,
    },
    /// One rule fired [`RunGuards::max_stagnant_firings`] times in a row
    /// without WM progress.
    Stagnation {
        /// The spinning rule.
        rule: Symbol,
        /// Consecutive stagnant firings observed.
        firings: u64,
    },
    /// The matcher's live-byte estimate exceeded the supervisor's hard
    /// memory budget ([`crate::DegradationPolicy::hard_bytes`]). The run
    /// halted in order — with a checkpoint when one is configured — never
    /// by abort.
    MemoryBytes {
        /// The configured hard budget.
        limit: u64,
        /// Live bytes when the budget tripped.
        actual: u64,
    },
}

impl fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardViolation::WallClock { limit } => {
                write!(f, "wall-clock limit {:?} exceeded", limit)
            }
            GuardViolation::WmSize { limit, actual } => {
                write!(
                    f,
                    "working memory grew to {} WMEs (limit {})",
                    actual, limit
                )
            }
            GuardViolation::Stagnation { rule, firings } => {
                write!(
                    f,
                    "rule {} fired {} times without WM progress",
                    rule, firings
                )
            }
            GuardViolation::MemoryBytes { limit, actual } => {
                write!(
                    f,
                    "matcher memory grew to {} bytes (hard budget {})",
                    actual, limit
                )
            }
        }
    }
}

/// Why a [`ProductionSystem::run`] stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum StopReason {
    /// No fireable instantiation remained.
    Quiescence,
    /// A `(halt)` was executed.
    Halt,
    /// The firing limit was reached.
    Limit,
    /// A [`RunGuards`] limit tripped.
    ResourceExhausted(GuardViolation),
    /// A RHS failed and the [`RecoveryPolicy`] does not continue past
    /// errors. Under [`RecoveryPolicy::Rollback`] the failed firing has
    /// been fully undone; under [`RecoveryPolicy::AbortRun`] its partial
    /// effects remain.
    Error(CoreError),
    /// A panic unwound out of a firing, was caught by the engine's
    /// `catch_unwind` fence, and the [`RecoveryPolicy`] does not continue
    /// past errors. The firing was handled like any other failed firing
    /// (rolled back under [`RecoveryPolicy::Rollback`]).
    Panicked {
        /// The rule whose firing panicked.
        rule: Symbol,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The run went quiescent *but only because of quarantine*: every
    /// remaining fireable instantiation belongs to a quarantined rule.
    /// Re-admit (see [`ProductionSystem::readmit_rule`]) and run again to
    /// continue.
    Quarantined {
        /// The quarantined rules, sorted by name.
        rules: Vec<Symbol>,
    },
    /// The operator asked the run to stop: the interrupt flag installed
    /// with [`ProductionSystem::set_interrupt`] was raised (SIGTERM /
    /// SIGINT, a server shutdown, a cancelled request). The engine
    /// stopped at a firing boundary, so every committed cycle is intact
    /// — this is a *normal* end, distinguished so orchestrators can tell
    /// "asked to stop, checkpointed cleanly" from failure.
    Interrupted,
}

impl StopReason {
    /// True for every stop the operator did not ask for — panics,
    /// errors, quarantine stalls, and tripped resource guards. Abnormal
    /// stops drain the flight recorder into a crash bundle; `Quiescence`,
    /// `Halt`, and `Limit` are normal ends.
    pub fn is_abnormal(&self) -> bool {
        !matches!(
            self,
            StopReason::Quiescence | StopReason::Halt | StopReason::Limit | StopReason::Interrupted
        )
    }

    /// Short machine-readable label (`quiescence`, `panicked`, …) used in
    /// bundle manifests and exit-code mapping.
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Quiescence => "quiescence",
            StopReason::Halt => "halt",
            StopReason::Limit => "limit",
            StopReason::ResourceExhausted(_) => "resource-exhausted",
            StopReason::Error(_) => "error",
            StopReason::Panicked { .. } => "panicked",
            StopReason::Quarantined { .. } => "quarantined",
            StopReason::Interrupted => "interrupted",
        }
    }
}

/// Result of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Rules fired during this run.
    pub fired: u64,
    /// Why the run ended.
    pub reason: StopReason,
}

/// Render a WME for trace events: `(class ^attr val …)` — the tag rides
/// in the event's own field.
pub(crate) fn render_wme(w: &Wme) -> String {
    use std::fmt::Write as _;
    let mut s = format!("({}", w.class);
    for (a, v) in w.slots() {
        let _ = write!(s, " ^{} {}", a, v);
    }
    s.push(')');
    s
}

/// The legacy string form of an event, for [`ProductionSystem::take_trace`].
/// Events without a legacy form render to nothing.
fn legacy_trace_line(ev: &TraceEvent) -> Option<String> {
    match ev {
        TraceEvent::Fire { rule, rows, .. } => Some(format!("FIRE {} {:?}", rule, rows)),
        TraceEvent::SkipAction { action, tag } => {
            Some(format!("SKIP {} {} (dead time tag)", action, tag))
        }
        TraceEvent::Rollback { rule, error } => Some(format!("ROLLBACK {} ({})", rule, error)),
        _ => None,
    }
}

/// One inverse action in the firing's undo log. Replayed in reverse on
/// rollback, through the matcher, exactly like a forward WM transaction
/// (mirrors the write-set of `reldb`'s optimistic transactions).
enum UndoOp {
    /// The firing asserted this tag; rollback retracts it.
    Retract(TimeTag),
    /// The firing removed this WME; rollback re-inserts it under its
    /// original tag.
    Restore(Wme),
}

/// Deterministic single-shot fault: fail the `target`-th primitive RHS
/// action (0-based, counted across the whole run), then pass everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    target: u64,
    seen: u64,
    triggered: bool,
    panics: bool,
}

impl FaultPlan {
    /// Fail exactly the `n`-th action (0-based).
    pub fn nth(n: u64) -> FaultPlan {
        FaultPlan {
            target: n,
            seen: 0,
            triggered: false,
            panics: false,
        }
    }

    /// Make the fault *panic* at its target action instead of returning
    /// an error — exercises the engine's `catch_unwind` fence. A plan
    /// that panics is consumed ([`ProductionSystem::take_fault`] returns
    /// `None` afterwards): the unwind tears down the injector before it
    /// can hand the plan back.
    pub fn panicking(mut self) -> FaultPlan {
        self.panics = true;
        self
    }

    /// Derive a target action index in `0..max_actions` from a seed
    /// (splitmix64), for property tests that sweep seeds.
    pub fn seeded(seed: u64, max_actions: u64) -> FaultPlan {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultPlan::nth(z % max_actions.max(1))
    }

    /// The action index this plan fails.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Has the fault fired yet?
    pub fn triggered(&self) -> bool {
        self.triggered
    }

    /// Count one action; fail it if it is the target.
    fn check(&mut self) -> Result<(), CoreError> {
        if self.triggered {
            return Ok(());
        }
        let idx = self.seen;
        self.seen += 1;
        if idx == self.target {
            self.triggered = true;
            if self.panics {
                panic!("injected panic at action {}", idx);
            }
            return Err(CoreError::FaultInjected { action: idx });
        }
        Ok(())
    }
}

/// Render a caught panic payload (the `&str`/`String` cases `panic!`
/// produces) to text for [`CoreError::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A [`RhsHost`] wrapper that injects the faults of a [`FaultPlan`].
///
/// The check runs *before* delegating, so a failed action has no side
/// effects — the fault models an action that died before touching state.
/// Usable around any host; [`ProductionSystem::inject_fault`] installs one
/// around the engine itself for whole-run fault sweeps.
pub struct FaultInjector<'a, H: RhsHost + ?Sized> {
    host: &'a mut H,
    plan: &'a mut FaultPlan,
}

impl<'a, H: RhsHost + ?Sized> FaultInjector<'a, H> {
    /// Wrap `host`, failing actions according to `plan`.
    pub fn new(host: &'a mut H, plan: &'a mut FaultPlan) -> Self {
        FaultInjector { host, plan }
    }
}

impl<H: RhsHost + ?Sized> RhsHost for FaultInjector<'_, H> {
    fn make(&mut self, class: Symbol, slots: Vec<(Symbol, Value)>) -> Result<TimeTag, CoreError> {
        self.plan.check()?;
        self.host.make(class, slots)
    }

    fn remove(&mut self, tag: TimeTag) -> Result<bool, CoreError> {
        self.plan.check()?;
        self.host.remove(tag)
    }

    fn modify(
        &mut self,
        tag: TimeTag,
        updates: Vec<(Symbol, Value)>,
    ) -> Result<Option<TimeTag>, CoreError> {
        self.plan.check()?;
        self.host.modify(tag, updates)
    }

    fn write_line(&mut self, line: String) -> Result<(), CoreError> {
        self.plan.check()?;
        self.host.write_line(line)
    }

    fn halt(&mut self) -> Result<(), CoreError> {
        self.plan.check()?;
        self.host.halt()
    }

    fn note_bind(&mut self) -> Result<(), CoreError> {
        self.plan.check()?;
        self.host.note_bind()
    }
}

/// Pre-registered ids for every engine-owned metric family, resolved once
/// in [`ProductionSystem::enable_metrics`] so the per-cycle sampling path
/// never touches the registry's name table.
struct MetricIds {
    cycles: MetricId,
    firings: MetricId,
    actions: MetricId,
    makes: MetricId,
    removes: MetricId,
    modifies: MetricId,
    writes: MetricId,
    skipped_actions: MetricId,
    rolled_back: MetricId,
    wm_asserts: MetricId,
    wm_retracts: MetricId,
    alpha_activations: MetricId,
    beta_activations: MetricId,
    join_tests: MetricId,
    tokens_created: MetricId,
    tokens_deleted: MetricId,
    snode_activations: MetricId,
    aggregate_updates: MetricId,
    index_probes: MetricId,
    index_skipped_tests: MetricId,
    wal_records: MetricId,
    wal_bytes: MetricId,
    wal_commits: MetricId,
    wal_fsyncs: MetricId,
    wal_recovered_records: MetricId,
    wal_discarded_records: MetricId,
    wal_truncated_bytes: MetricId,
    wal_writes: MetricId,
    sup_panics: MetricId,
    sup_io_retries: MetricId,
    sup_quarantines: MetricId,
    sup_readmissions: MetricId,
    sup_soft_degrades: MetricId,
    sup_hard_degrades: MetricId,
    quarantined_rules: MetricId,
    conflict_set_size: MetricId,
    wm_size: MetricId,
    fire_nanos: MetricId,
    resolve_nanos: MetricId,
    rhs_nanos: MetricId,
    match_nanos: MetricId,
}

/// Metrics state carried by the engine when telemetry is enabled: the
/// shared registry handle, the pre-registered ids, and the two WM-churn
/// tallies that have no [`RunStats`] source of truth.
struct EngineMetrics {
    handle: Metrics,
    ids: MetricIds,
    /// WME assertions (engine API + RHS `make` + `modify` re-asserts).
    wm_asserts: u64,
    /// WME retractions (engine API + RHS `remove` + `modify` retracts).
    wm_retracts: u64,
    /// Ids of the labeled series, which exist only once the matcher has
    /// named them; sampling takes `&self`, hence the cell.
    labeled: RefCell<LabeledIds>,
}

/// The labeled series registered so far, in first-sight order, plus the
/// buffer the matcher's extra counters are sampled into.
#[derive(Default)]
struct LabeledIds {
    /// `(region, sorete_memory_bytes, sorete_memory_entries)`.
    regions: Vec<(&'static str, MetricId, MetricId)>,
    /// `(kind, sorete_matcher_events_total)`.
    events: Vec<(&'static str, MetricId)>,
    extra: Vec<(&'static str, u64)>,
}

impl LabeledIds {
    /// The byte/entry gauges of `region`, registered on first sight.
    fn region(&mut self, r: &mut MetricsRegistry, region: &'static str) -> (MetricId, MetricId) {
        if let Some(&(_, b, e)) = self.regions.iter().find(|(n, ..)| *n == region) {
            return (b, e);
        }
        let b = r.gauge_labeled(
            "sorete_memory_bytes",
            "Estimated live bytes per matcher store (live-set methodology)",
            "region",
            region,
        );
        let e = r.gauge_labeled(
            "sorete_memory_entries",
            "Live entries per matcher store",
            "region",
            region,
        );
        self.regions.push((region, b, e));
        (b, e)
    }

    /// The counter of matcher event `kind`, registered on first sight.
    fn event(&mut self, r: &mut MetricsRegistry, kind: &'static str) -> MetricId {
        if let Some(&(_, id)) = self.events.iter().find(|(k, _)| *k == kind) {
            return id;
        }
        let id = r.counter_labeled(
            "sorete_matcher_events_total",
            "Backend-specific match events (S-node token protocol, gamma churn)",
            "kind",
            kind,
        );
        self.events.push((kind, id));
        id
    }
}

/// Engine-attached write-ahead log: the `reldb` WAL plus the op buffer of
/// the in-flight firing. Ops accumulate while a RHS runs and hit the log
/// only when the firing commits (followed by a cycle marker); a failed
/// firing's buffer is dropped, so the log never contains rolled-back
/// effects.
struct EngineWal {
    wal: Wal,
    pending: Vec<WmeOp>,
}

/// What [`ProductionSystem::attach_wal`] replayed from an existing log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalReplayReport {
    /// Committed WME operations re-applied to working memory.
    pub replayed_ops: u64,
    /// Cycle markers applied (firings the recovered run already did).
    pub replayed_cycles: u64,
    /// Plain transaction commits applied (API-level WM changes).
    pub replayed_commits: u64,
    /// Intact-but-uncommitted tail records discarded by recovery.
    pub discarded_records: u64,
    /// Tail bytes truncated by recovery (torn/short/uncommitted frames).
    pub truncated_bytes: u64,
    /// Committed records discarded as stale: the resumed checkpoint was
    /// one generation ahead of the log (crash between checkpoint rename
    /// and log rotation), so it already contains their effects.
    pub stale_records: u64,
}

/// What [`ProductionSystem::resume`] restored from a checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResumeReport {
    /// WMEs replayed into working memory and the match network.
    pub wmes: usize,
    /// Refracted instantiations re-armed in the rebuilt conflict set.
    pub refracted: usize,
    /// Cycle counter after the resume.
    pub cycle: u64,
    /// Algorithm name of the engine that wrote the checkpoint.
    pub matcher_was: String,
}

/// A complete forward-chaining production system: working memory, match
/// network, conflict resolution, and the set-oriented RHS interpreter.
///
/// ```
/// use sorete_core::{MatcherKind, ProductionSystem};
/// use sorete_base::Value;
///
/// let mut ps = ProductionSystem::new(MatcherKind::Rete);
/// ps.load_program(
///     "(literalize player name team)
///      (p greet (player ^name <n>) (write hello <n>) (remove 1))",
/// ).unwrap();
/// ps.make_str("player", &[("name", Value::sym("Jack"))]).unwrap();
/// let outcome = ps.run(None);
/// assert_eq!(outcome.fired, 1);
/// assert_eq!(ps.take_output(), vec!["hello Jack"]);
/// ```
pub struct ProductionSystem {
    matcher: Box<dyn Matcher>,
    rules: Vec<Arc<AnalyzedRule>>,
    rule_ids: FxHashMap<Symbol, RuleId>,
    wm: WorkingMemory,
    cs: ConflictSet,
    strategy: Strategy,
    halted: bool,
    stats: RunStats,
    output: Vec<String>,
    /// Combined tracer (user sinks + legacy shim + event log); the matcher
    /// holds a clone for its physical events.
    tracer: Tracer,
    /// Sinks installed via [`Self::add_trace_sink`] (e.g. a `JsonlSink`).
    user_sinks: Vec<SharedSink>,
    /// Backing store of the legacy string trace ([`Self::take_trace`]).
    legacy: Option<Arc<Mutex<CollectSink>>>,
    /// In-memory event log serving `explain` ([`Self::trace_events`]).
    event_log: Option<Arc<Mutex<CollectSink>>>,
    /// 1-based recognise–act cycle counter (0 = before any firing).
    cycle: u64,
    /// Set while a RHS runs, for per-rule action accounting.
    firing_rule: Option<Symbol>,
    recovery: RecoveryPolicy,
    guards: RunGuards,
    /// Inverse ops of the in-flight firing (recorded only when the policy
    /// can roll back).
    undo: Vec<UndoOp>,
    /// True while a RHS runs under a rollback-capable policy.
    recording: bool,
    /// Installed fault plan, applied to every firing until triggered.
    fault: Option<FaultPlan>,
    /// Metrics registry + pre-registered ids; `None` until
    /// [`Self::enable_metrics`] — the disabled path is a null check.
    metrics: Option<Box<EngineMetrics>>,
    /// Write-ahead log; `None` until [`Self::attach_wal`] — the detached
    /// path is a null check.
    dur: Option<Box<EngineWal>>,
    /// Checkpoint generation this engine's state descends from: set by
    /// [`Self::resume`], advanced by [`Self::checkpoint_to`], matched
    /// against the log's stamp by [`Self::attach_wal`].
    ckpt_gen: u64,
    /// Supervision state (circuit breakers, retry policy, degradation
    /// budgets); `None` until [`Self::enable_supervision`] — the
    /// unsupervised path is a null check.
    sup: Option<Box<Supervisor>>,
    /// The rule whose firing produced the last [`Self::step`] error, for
    /// [`Self::run`]'s breaker bookkeeping and structured stop reasons.
    last_failed: Option<Symbol>,
    /// Hierarchical span recorder (run → cycle → match/resolve/rhs/
    /// wal_commit); disabled (a single branch per site) until
    /// [`Self::enable_spans`].
    spans: Spans,
    /// Always-on flight recorder: a fixed ring of the most recent logical
    /// trace events, closed spans, and per-cycle summary records, drained
    /// into a crash bundle on abnormal exit. On (default capacity) from
    /// construction; [`Self::set_flight_recorder`] resizes or disables it.
    flight: Flight,
    /// Process invocation (argv) recorded into crash bundles; set by the
    /// CLI via [`Self::set_invocation`].
    invocation: Vec<String>,
    /// Where crash bundles land; defaults to the WAL's directory when one
    /// is attached, else the current directory.
    crash_dir: Option<PathBuf>,
    /// Path of the most recent crash bundle written by [`Self::run`] or
    /// [`Self::dump_bundle`].
    last_bundle: Option<PathBuf>,
    /// Bundle retention cap applied after every bundle write (newest N
    /// survive; 0 disables pruning). Seeded from `SORETE_CRASH_KEEP`,
    /// overridden by [`Self::set_crash_keep`] (`--crash-keep`).
    crash_keep: usize,
    /// Cooperative cancellation flag checked between firings; `None`
    /// until [`Self::set_interrupt`].
    interrupt: Option<Arc<std::sync::atomic::AtomicBool>>,
}

impl ProductionSystem {
    /// New engine over the chosen matcher, LEX strategy.
    pub fn new(kind: MatcherKind) -> ProductionSystem {
        let matcher: Box<dyn Matcher> = match kind {
            MatcherKind::Rete => Box::new(ReteMatcher::new()),
            MatcherKind::ReteScan => Box::new(ReteMatcher::with_indexing(false)),
            MatcherKind::Treat => Box::new(TreatMatcher::new()),
            MatcherKind::Naive => Box::new(NaiveMatcher::new()),
        };
        let mut ps = ProductionSystem {
            matcher,
            rules: Vec::new(),
            rule_ids: FxHashMap::default(),
            wm: WorkingMemory::new(),
            cs: ConflictSet::new(),
            strategy: Strategy::Lex,
            halted: false,
            stats: RunStats::default(),
            output: Vec::new(),
            tracer: Tracer::null(),
            user_sinks: Vec::new(),
            legacy: None,
            event_log: None,
            cycle: 0,
            firing_rule: None,
            recovery: RecoveryPolicy::default(),
            guards: RunGuards::default(),
            undo: Vec::new(),
            recording: false,
            fault: None,
            metrics: None,
            dur: None,
            ckpt_gen: 0,
            sup: None,
            last_failed: None,
            spans: Spans::null(),
            flight: Flight::recording(sorete_base::flight::DEFAULT_CAPACITY),
            invocation: Vec::new(),
            crash_dir: None,
            last_bundle: None,
            crash_keep: std::env::var("SORETE_CRASH_KEEP")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(crate::bundle::DEFAULT_CRASH_KEEP),
            interrupt: None,
        };
        // The default tracer must carry the always-on flight recorder.
        ps.rebuild_tracer();
        ps
    }

    /// Same as [`Self::new`]; `_jobs` is ignored. It exists only because
    /// the benchmark ladder's library rungs (`benchmark/src/target.rs`)
    /// still call it, and the benchmark crate changes only in
    /// benchmark-only commits: the one that moves those rungs to
    /// [`Self::new`] deletes this.
    #[doc(hidden)]
    pub fn with_jobs(kind: MatcherKind, _jobs: usize) -> Self {
        Self::new(kind)
    }

    /// Resize the always-on flight recorder ring (each of the event, span,
    /// and cycle rings keeps the last `capacity` entries); `0` turns the
    /// recorder off entirely. Call before [`Self::enable_spans`] — a span
    /// recorder enabled earlier keeps tapping the previous ring.
    pub fn set_flight_recorder(&mut self, capacity: usize) {
        self.flight = Flight::recording(capacity);
        self.rebuild_tracer();
    }

    /// Whether the flight recorder is on.
    pub fn flight_enabled(&self) -> bool {
        self.flight.enabled()
    }

    /// A handle on the flight recorder (off handle when disabled).
    pub fn flight(&self) -> Flight {
        self.flight.clone()
    }

    /// Record the process invocation (argv) for crash-bundle manifests.
    pub fn set_invocation(&mut self, argv: Vec<String>) {
        self.invocation = argv;
    }

    /// The recorded invocation (empty unless [`Self::set_invocation`]).
    pub fn invocation(&self) -> &[String] {
        &self.invocation
    }

    /// Direct crash bundles into `dir` instead of the default (the WAL's
    /// directory when attached, else the current directory).
    pub fn set_crash_dir(&mut self, dir: impl Into<PathBuf>) {
        self.crash_dir = Some(dir.into());
    }

    /// Where a crash bundle would be written right now.
    pub fn crash_dir(&self) -> PathBuf {
        if let Some(d) = &self.crash_dir {
            return d.clone();
        }
        self.dur
            .as_ref()
            .and_then(|d| d.wal.path().parent().map(Path::to_path_buf))
            .unwrap_or_else(|| PathBuf::from("."))
    }

    /// Path of the most recent crash bundle this engine wrote, if any.
    pub fn last_crash_bundle(&self) -> Option<&Path> {
        self.last_bundle.as_deref()
    }

    /// Bundle retention cap: after every bundle write, only the newest
    /// `keep` `sorete-crash-*` directories in the crash directory survive
    /// ([`crate::bundle::prune`], oldest removed first). `0` disables
    /// pruning. Defaults to `SORETE_CRASH_KEEP`, else
    /// [`crate::bundle::DEFAULT_CRASH_KEEP`].
    pub fn set_crash_keep(&mut self, keep: usize) {
        self.crash_keep = keep;
    }

    /// The active bundle-retention cap (see [`Self::set_crash_keep`]).
    pub fn crash_keep(&self) -> usize {
        self.crash_keep
    }

    /// Install a cooperative interrupt flag. [`Self::run`] checks it
    /// between firings; once it reads `true` the run stops at the next
    /// firing boundary with [`StopReason::Interrupted`] (cutting an
    /// orderly checkpoint first when supervision has a checkpoint path).
    /// Committed state is never torn: the flag is only honoured between
    /// cycles. Share one flag across engines to broadcast a shutdown.
    pub fn set_interrupt(&mut self, flag: Arc<std::sync::atomic::AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// True when an installed interrupt flag is currently raised.
    pub fn interrupt_requested(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Turn on supervision: panic isolation feeds the circuit breakers,
    /// transient durable-I/O errors are retried with deterministic
    /// backoff, rules that keep failing are quarantined, and resource
    /// budgets degrade the run gracefully (checkpoint + halt, never
    /// abort). Quarantine-past-failure requires a rollback-capable
    /// [`RecoveryPolicy`]; under [`RecoveryPolicy::AbortRun`] only the
    /// retry and degradation halves are active.
    pub fn enable_supervision(&mut self, config: SupervisorConfig) {
        self.sup = Some(Box::new(Supervisor::new(config)));
    }

    /// Whether [`Self::enable_supervision`] has been called.
    pub fn supervision_enabled(&self) -> bool {
        self.sup.is_some()
    }

    /// Supervision activity counters (all zero when supervision is off).
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.sup.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Rules currently quarantined, sorted by name.
    pub fn quarantined_rules(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self
            .cs
            .quarantined_rules()
            .map(|id| self.rules[id.index()].name)
            .collect();
        v.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        v
    }

    /// Manually quarantine a rule: its instantiations stay derived (and
    /// keep refraction bookkeeping) but conflict resolution never selects
    /// them. Errors when no such rule is loaded.
    pub fn quarantine_rule(&mut self, name: &str) -> Result<(), CoreError> {
        let sym = Symbol::new(name);
        let id = self
            .rule_ids
            .get(&sym)
            .copied()
            .ok_or_else(|| CoreError::Rhs(format!("no rule named `{}` to quarantine", name)))?;
        self.cs.set_rule_quarantined(id, true);
        self.tracer.emit(|| TraceEvent::Quarantine {
            rule: sym,
            failures: 0,
        });
        Ok(())
    }

    /// Re-admit a quarantined rule: its preserved instantiations become
    /// selectable again immediately and its circuit breaker is reset.
    /// Returns whether the rule was actually quarantined. Errors when no
    /// such rule is loaded.
    pub fn readmit_rule(&mut self, name: &str) -> Result<bool, CoreError> {
        let sym = Symbol::new(name);
        let id = self
            .rule_ids
            .get(&sym)
            .copied()
            .ok_or_else(|| CoreError::Rhs(format!("no rule named `{}` to readmit", name)))?;
        let was = self.cs.is_rule_quarantined(id);
        self.cs.set_rule_quarantined(id, false);
        if let Some(sup) = self.sup.as_mut() {
            sup.readmit(sym);
        }
        if was {
            self.tracer.emit(|| TraceEvent::Readmit { rule: sym });
        }
        Ok(was)
    }

    /// Change the conflict-resolution strategy.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// Change what happens when a RHS fails mid-firing (default:
    /// [`RecoveryPolicy::Rollback`]).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The active recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Install resource limits for [`Self::run`] (default: unlimited).
    pub fn set_guards(&mut self, guards: RunGuards) {
        self.guards = guards;
    }

    /// The active resource limits.
    pub fn guards(&self) -> RunGuards {
        self.guards
    }

    /// Install a fault plan: RHS actions are counted across firings and
    /// the plan's target action fails with [`CoreError::FaultInjected`].
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Remove and return the installed fault plan (inspect
    /// [`FaultPlan::triggered`] to see whether it fired).
    pub fn take_fault(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Enable firing traces (retrievable via [`Self::take_trace`]).
    ///
    /// This is a compatibility shim over the event stream: it installs an
    /// internal [`CollectSink`] and [`Self::take_trace`] renders the
    /// collected fire/skip/rollback events in the old string format.
    pub fn set_tracing(&mut self, on: bool) {
        if on == self.legacy.is_some() {
            return;
        }
        self.legacy = on.then(|| Arc::new(Mutex::new(CollectSink::new())));
        self.rebuild_tracer();
    }

    /// Attach a [`sorete_base::TraceSink`] to the engine's event stream
    /// (both the engine's logical events and the matcher's physical ones).
    pub fn add_trace_sink(&mut self, sink: SharedSink) {
        self.user_sinks.push(sink);
        self.rebuild_tracer();
    }

    /// Enable (or disable) the in-memory event log behind
    /// [`Self::trace_events`], which `explain` reads.
    pub fn set_event_log(&mut self, on: bool) {
        if on == self.event_log.is_some() {
            return;
        }
        self.event_log = on.then(|| Arc::new(Mutex::new(CollectSink::new())));
        self.rebuild_tracer();
    }

    /// A copy of the in-memory event log (empty unless
    /// [`Self::set_event_log`] enabled it).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.event_log
            .as_ref()
            .map(|l| l.lock().unwrap().events().to_vec())
            .unwrap_or_default()
    }

    /// Flush every attached trace sink and the metrics snapshot stream
    /// (forces buffered JSONL out). This is the single "flush everything"
    /// hook every abnormal-exit path funnels through.
    pub fn flush_trace(&self) {
        sorete_base::flight::on_abnormal_exit(&self.tracer, &self.metrics());
    }

    /// Enable or disable the matcher's per-node profiler.
    pub fn set_profiling(&mut self, on: bool) {
        self.matcher.set_profiling(on);
    }

    /// Turn on hierarchical span recording (`run` → `cycle` →
    /// `match`/`resolve`/`rhs`/`wal_commit`, plus physical WAL I/O
    /// spans). Idempotent. The recorder is handed to any attached WAL; a
    /// WAL attached later inherits it in [`Self::attach_wal`].
    pub fn enable_spans(&mut self) {
        if self.spans.enabled() {
            return;
        }
        self.spans = Spans::recording_with_flight(self.flight.clone());
        if let Some(d) = &mut self.dur {
            d.wal.set_spans(self.spans.clone());
        }
    }

    /// Whether [`Self::enable_spans`] has been called.
    pub fn spans_enabled(&self) -> bool {
        self.spans.enabled()
    }

    /// A handle on the engine's span recorder (a null handle when
    /// disabled, so callers can hold it unconditionally).
    pub fn spans(&self) -> Spans {
        self.spans.clone()
    }

    /// Drain every finished span recorded so far, oldest first (empty
    /// when spans are disabled).
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take()
    }

    /// A copy of the finished spans without draining them.
    pub fn span_snapshot(&self) -> Vec<Span> {
        self.spans.snapshot()
    }

    /// The matcher's per-node profile, when profiling is enabled and the
    /// backend supports it.
    pub fn profile(&self) -> Option<NetProfile> {
        self.matcher.profile()
    }

    /// The static match-network path of a rule (for `explain`), when the
    /// backend has a network.
    pub fn rule_network_path(&self, name: &str) -> Option<Vec<String>> {
        let id = self.rule_ids.get(&Symbol::new(name))?;
        self.matcher.rule_network_path(*id)
    }

    /// The current recognise–act cycle number (0 before any firing).
    pub fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Turn on the metrics registry. Idempotent. All counter families are
    /// registered up front; per-cycle sampling then works by id. Counters
    /// with an existing source of truth ([`RunStats`],
    /// [`sorete_base::MatchStats`]) are *sampled* from it, never
    /// incremented independently — the registry cannot diverge from
    /// `--stats` by construction.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_some() {
            return;
        }
        let handle = Metrics::new_registry();
        let ids = handle
            .with(|r| MetricIds {
                cycles: r.counter("sorete_cycles_total", "Recognise-act cycles begun"),
                firings: r.counter("sorete_firings_total", "Rule firings (incl. rolled back)"),
                actions: r.counter("sorete_actions_total", "RHS actions executed"),
                makes: r.counter("sorete_makes_total", "RHS make actions"),
                removes: r.counter("sorete_removes_total", "RHS remove actions"),
                modifies: r.counter("sorete_modifies_total", "RHS modify actions"),
                writes: r.counter("sorete_writes_total", "RHS write actions"),
                skipped_actions: r.counter(
                    "sorete_skipped_actions_total",
                    "RHS actions on already-dead WMEs (overlapping set ops)",
                ),
                rolled_back: r.counter("sorete_rolled_back_total", "Firings rolled back"),
                wm_asserts: r.counter("sorete_wm_asserts_total", "WME assertions"),
                wm_retracts: r.counter("sorete_wm_retracts_total", "WME retractions"),
                alpha_activations: r.counter(
                    "sorete_match_alpha_activations_total",
                    "Alpha-memory activations",
                ),
                beta_activations: r.counter(
                    "sorete_match_beta_activations_total",
                    "Beta-node activations",
                ),
                join_tests: r.counter("sorete_match_join_tests_total", "Join consistency tests"),
                tokens_created: r.counter("sorete_match_tokens_created_total", "Tokens created"),
                tokens_deleted: r.counter("sorete_match_tokens_deleted_total", "Tokens deleted"),
                snode_activations: r
                    .counter("sorete_match_snode_activations_total", "S-node activations"),
                aggregate_updates: r.counter(
                    "sorete_match_aggregate_updates_total",
                    "Incremental aggregate updates",
                ),
                index_probes: r.counter("sorete_match_index_probes_total", "Hash-index probes"),
                index_skipped_tests: r.counter(
                    "sorete_match_index_skipped_tests_total",
                    "Join tests answered by hash indexes instead of evaluation",
                ),
                wal_records: r.counter("sorete_wal_records_total", "WAL records appended"),
                wal_bytes: r.counter("sorete_wal_bytes_total", "WAL bytes appended"),
                wal_commits: r.counter(
                    "sorete_wal_commits_total",
                    "WAL commit points (tx commits + cycle markers)",
                ),
                wal_fsyncs: r.counter("sorete_wal_fsyncs_total", "WAL fsyncs issued"),
                wal_recovered_records: r.counter(
                    "sorete_wal_recovered_records_total",
                    "Committed WAL records replayed at attach",
                ),
                wal_discarded_records: r.counter(
                    "sorete_wal_discarded_records_total",
                    "Intact-but-uncommitted WAL tail records discarded at attach",
                ),
                wal_truncated_bytes: r.counter(
                    "sorete_wal_truncated_bytes_total",
                    "WAL tail bytes truncated by recovery at attach",
                ),
                wal_writes: r.counter(
                    "sorete_wal_writes_total",
                    "write(2) calls issued by the WAL (group-commit flushes)",
                ),
                sup_panics: r.counter(
                    "sorete_supervisor_panics_total",
                    "Panics caught unwinding out of firings",
                ),
                sup_io_retries: r.counter(
                    "sorete_supervisor_io_retries_total",
                    "Durable-I/O retry attempts (WAL appends + checkpoints)",
                ),
                sup_quarantines: r.counter(
                    "sorete_supervisor_quarantines_total",
                    "Circuit-breaker trips (rules quarantined)",
                ),
                sup_readmissions: r.counter(
                    "sorete_supervisor_readmissions_total",
                    "Quarantined rules re-admitted",
                ),
                sup_soft_degrades: r.counter(
                    "sorete_supervisor_soft_degrades_total",
                    "Soft-budget degradations (automatic checkpoints)",
                ),
                sup_hard_degrades: r.counter(
                    "sorete_supervisor_hard_degrades_total",
                    "Hard-budget degradations (orderly halts)",
                ),
                quarantined_rules: r
                    .gauge("sorete_quarantined_rules", "Rules currently quarantined"),
                conflict_set_size: r.gauge(
                    "sorete_conflict_set_size",
                    "Conflict-set entries (fired included)",
                ),
                wm_size: r.gauge("sorete_wm_size", "Working-memory size"),
                fire_nanos: r.histogram(
                    "sorete_fire_nanos",
                    "Whole recognise-act cycle wall time (ns)",
                ),
                resolve_nanos: r.histogram(
                    "sorete_resolve_nanos",
                    "Conflict-resolution (select + materialize) wall time (ns)",
                ),
                rhs_nanos: r.histogram("sorete_rhs_nanos", "RHS execution wall time (ns)"),
                match_nanos: r.histogram(
                    "sorete_match_nanos",
                    "Matcher propagation wall time per WM change (ns)",
                ),
            })
            .expect("fresh registry is enabled");
        self.metrics = Some(Box::new(EngineMetrics {
            handle,
            ids,
            wm_asserts: 0,
            wm_retracts: 0,
            labeled: RefCell::default(),
        }));
    }

    /// Whether [`Self::enable_metrics`] has been called.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// A handle on the engine's registry ([`Metrics::null`] when metrics
    /// are disabled, so callers can hold it unconditionally).
    pub fn metrics(&self) -> Metrics {
        self.metrics
            .as_ref()
            .map(|m| m.handle.clone())
            .unwrap_or_else(Metrics::null)
    }

    /// Stream every per-cycle snapshot to `writer` as JSONL (enables
    /// metrics if needed).
    pub fn set_metrics_stream(&mut self, writer: SnapshotWriter) {
        self.enable_metrics();
        let m = self.metrics.as_ref().expect("just enabled");
        m.handle.with(|r| r.stream_to(writer));
    }

    /// Bound the in-memory snapshot ring (enables metrics if needed).
    pub fn set_metrics_capacity(&mut self, capacity: usize) {
        self.enable_metrics();
        let m = self.metrics.as_ref().expect("just enabled");
        m.handle.with(|r| r.set_capacity(capacity));
    }

    /// Snapshot lines streamed to the JSONL writer so far.
    pub fn metrics_stream_written(&self) -> u64 {
        self.metrics
            .as_ref()
            .and_then(|m| m.handle.with(|r| r.stream_written()))
            .unwrap_or(0)
    }

    /// Sample every gauge/counter from its source of truth and record a
    /// snapshot at the current cycle. The engine calls this at the end of
    /// every cycle (success *and* failure); call it manually to capture
    /// state between runs. No-op when metrics are disabled.
    ///
    /// Snapshots are taken at **cycle barriers only**: while a firing is in
    /// flight (RHS running, its match propagation not yet drained) the
    /// call is refused, so `--watch` gauge readers can never observe a
    /// half-applied cycle — e.g. a WM size that includes a firing's asserts
    /// but not yet its conflict-set consequences.
    pub fn record_metrics_snapshot(&self) {
        let Some(m) = self.metrics.as_ref() else {
            return;
        };
        if self.firing_rule.is_some() {
            return;
        }
        self.sample_metrics(m);
        let cycle = self.cycle;
        m.handle.with(|r| r.snapshot(cycle));
    }

    /// Pull current values into the registry: [`RunStats`] and
    /// [`sorete_base::MatchStats`] counters, conflict-set/WM gauges, the
    /// matcher's [`sorete_base::MemoryReport`] as labeled byte/entry
    /// gauges, and its extra counters as one labeled family.
    fn sample_metrics(&self, m: &EngineMetrics) {
        let ids = &m.ids;
        let rs = &self.stats;
        let ms = self.matcher.stats();
        let ws = self
            .dur
            .as_ref()
            .map(|d| *d.wal.stats())
            .unwrap_or_default();
        let mem = self.matcher.memory_report();
        let mut labeled = m.labeled.borrow_mut();
        let labeled = &mut *labeled;
        labeled.extra.clear();
        self.matcher.metric_counters(&mut labeled.extra);
        let sup = self.sup.as_ref().map(|s| s.stats()).unwrap_or_default();
        let quarantined = self.cs.quarantined_rules().count() as u64;
        let cs_len = self.cs.len() as u64;
        let wm_len = self.wm.len() as u64;
        let cycle = self.cycle;
        m.handle.with(|r| {
            r.set(ids.cycles, cycle);
            r.set(ids.firings, rs.firings);
            r.set(ids.actions, rs.actions);
            r.set(ids.makes, rs.makes);
            r.set(ids.removes, rs.removes);
            r.set(ids.modifies, rs.modifies);
            r.set(ids.writes, rs.writes);
            r.set(ids.skipped_actions, rs.skipped_actions);
            r.set(ids.rolled_back, rs.rolled_back);
            r.set(ids.wm_asserts, m.wm_asserts);
            r.set(ids.wm_retracts, m.wm_retracts);
            r.set(ids.alpha_activations, ms.alpha_activations);
            r.set(ids.beta_activations, ms.beta_activations);
            r.set(ids.join_tests, ms.join_tests);
            r.set(ids.tokens_created, ms.tokens_created);
            r.set(ids.tokens_deleted, ms.tokens_deleted);
            r.set(ids.snode_activations, ms.snode_activations);
            r.set(ids.aggregate_updates, ms.aggregate_updates);
            r.set(ids.index_probes, ms.index_probes);
            r.set(ids.index_skipped_tests, ms.index_skipped_tests);
            r.set(ids.wal_records, ws.records);
            r.set(ids.wal_bytes, ws.bytes);
            r.set(ids.wal_commits, ws.commits);
            r.set(ids.wal_fsyncs, ws.fsyncs);
            r.set(ids.wal_recovered_records, ws.recovered_records);
            r.set(ids.wal_discarded_records, ws.discarded_records);
            r.set(ids.wal_truncated_bytes, ws.truncated_bytes);
            r.set(ids.wal_writes, ws.writes);
            r.set(ids.sup_panics, sup.panics_caught);
            r.set(ids.sup_io_retries, sup.io_retries);
            r.set(ids.sup_quarantines, sup.quarantines);
            r.set(ids.sup_readmissions, sup.readmissions);
            r.set(ids.sup_soft_degrades, sup.soft_degrades);
            r.set(ids.sup_hard_degrades, sup.hard_degrades);
            r.set(ids.quarantined_rules, quarantined);
            r.set(ids.conflict_set_size, cs_len);
            r.set(ids.wm_size, wm_len);
            for region in &mem.regions {
                let (b, e) = labeled.region(r, region.name);
                r.set(b, region.bytes);
                r.set(e, region.entries);
            }
            for i in 0..labeled.extra.len() {
                let (kind, total) = labeled.extra[i];
                let id = labeled.event(r, kind);
                r.set(id, total);
            }
        });
    }

    /// A rendered metrics table ([`None`] when metrics are disabled). Does
    /// not sample — call [`Self::record_metrics_snapshot`] first for fresh
    /// values.
    pub fn metrics_table(&self) -> Option<String> {
        self.metrics
            .as_ref()
            .and_then(|m| m.handle.with(|r| r.render_table()))
    }

    /// The Prometheus text exposition of the registry ([`None`] when
    /// metrics are disabled). Does not sample.
    pub fn metrics_prometheus(&self) -> Option<String> {
        self.metrics
            .as_ref()
            .and_then(|m| m.handle.with(|r| r.render_prometheus()))
    }

    /// Record an elapsed matcher-propagation interval.
    fn note_match_time(&self, start: Option<Instant>) {
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), start) {
            let ns = t.elapsed().as_nanos() as u64;
            let id = m.ids.match_nanos;
            m.handle.with(|r| r.observe(id, ns));
        }
    }

    fn rebuild_tracer(&mut self) {
        let mut sinks: Vec<SharedSink> = self.user_sinks.clone();
        if let Some(l) = &self.legacy {
            sinks.push(l.clone() as SharedSink);
        }
        if let Some(l) = &self.event_log {
            sinks.push(l.clone() as SharedSink);
        }
        self.tracer = Tracer::from_sinks(sinks).with_flight(self.flight.clone());
        self.matcher.set_tracer(self.tracer.clone());
    }

    /// Parse, analyse, and load a whole program (literalizes + rules).
    /// Must be called before any working-memory change.
    pub fn load_program(&mut self, src: &str) -> Result<(), CoreError> {
        let prog = parse_program(src)?;
        let analyzed = analyze_program(&prog)?;
        for l in &prog.literalizes {
            self.wm.declare_class(l.class, l.attrs.clone());
        }
        for ar in analyzed {
            let ar = Arc::new(ar);
            let id = self.matcher.add_rule(ar.clone());
            debug_assert_eq!(id.index(), self.rules.len());
            self.rule_ids.insert(ar.name, id);
            self.rules.push(ar);
        }
        // Rules added after WMEs derive instantiations immediately.
        self.sync();
        Ok(())
    }

    /// Excise a production by name: its instantiations leave the conflict
    /// set and it never matches again.
    pub fn excise(&mut self, name: &str) -> Result<(), CoreError> {
        let sym = Symbol::new(name);
        let id = self
            .rule_ids
            .remove(&sym)
            .ok_or_else(|| CoreError::Rhs(format!("no rule named `{}` to excise", name)))?;
        self.matcher.remove_rule(id);
        self.sync();
        Ok(())
    }

    /// Look up a loaded rule by name.
    pub fn rule(&self, name: &str) -> Option<&Arc<AnalyzedRule>> {
        let id = self.rule_ids.get(&Symbol::new(name))?;
        self.rules.get(id.index())
    }

    /// The matcher id of a loaded (non-excised) rule.
    pub(crate) fn rule_id(&self, name: &str) -> Option<RuleId> {
        self.rule_ids.get(&Symbol::new(name)).copied()
    }

    /// Assert a WME (string-keyed convenience).
    pub fn make_str(&mut self, class: &str, slots: &[(&str, Value)]) -> Result<TimeTag, CoreError> {
        self.assert_wme(
            Symbol::new(class),
            slots.iter().map(|(a, v)| (Symbol::new(a), *v)).collect(),
        )
    }

    /// Assert a WME.
    pub fn assert_wme(
        &mut self,
        class: Symbol,
        slots: Vec<(Symbol, Value)>,
    ) -> Result<TimeTag, CoreError> {
        let pre_mark = self.wm.tag_mark();
        let wme = self.wm.make(class, slots)?;
        if let Some(dur) = &mut self.dur {
            dur.pending.push(WmeOp::Assert(wme.clone()));
        }
        let cycle = self.cycle;
        self.tracer.emit(|| TraceEvent::WmeAssert {
            cycle,
            tag: wme.tag,
            wme: render_wme(&wme),
        });
        if let Some(m) = &mut self.metrics {
            m.wm_asserts += 1;
        }
        let t = self.metrics.is_some().then(Instant::now);
        let sp = self.spans.begin_scope();
        self.matcher.insert_wme(&wme);
        self.sync();
        self.spans.end(sp, span_cat::MATCH, 0, Vec::new);
        self.note_match_time(t);
        if let Err(e) = self.wal_commit_if_api() {
            // The log refused the op: undo the assert (WME, match network,
            // tag allocator) so live state never runs ahead of durable
            // state — an unlogged WME would survive in memory but vanish
            // on recovery.
            let _ = self.wm.remove(wme.tag);
            self.matcher.remove_wme(&wme);
            self.sync();
            self.wm.reset_tag_mark(pre_mark);
            return Err(e);
        }
        Ok(wme.tag)
    }

    /// Retract a WME.
    pub fn retract_wme(&mut self, tag: TimeTag) -> Result<(), CoreError> {
        let wme = self.wm.remove(tag)?;
        if let Some(dur) = &mut self.dur {
            dur.pending.push(WmeOp::Retract(tag));
        }
        let cycle = self.cycle;
        self.tracer.emit(|| TraceEvent::WmeRetract { cycle, tag });
        if let Some(m) = &mut self.metrics {
            m.wm_retracts += 1;
        }
        let t = self.metrics.is_some().then(Instant::now);
        let sp = self.spans.begin_scope();
        self.matcher.remove_wme(&wme);
        self.sync();
        self.spans.end(sp, span_cat::MATCH, 0, Vec::new);
        self.note_match_time(t);
        if let Err(e) = self.wal_commit_if_api() {
            // Undo the retract: an unlogged removal would resurrect the
            // WME on recovery.
            self.wm.restore(wme.clone());
            self.matcher.insert_wme(&wme);
            self.sync();
            return Err(e);
        }
        Ok(())
    }

    /// Modify = retract + re-assert with a fresh time tag (OPS5 semantics).
    pub fn modify_wme(
        &mut self,
        tag: TimeTag,
        updates: &[(Symbol, Value)],
    ) -> Result<TimeTag, CoreError> {
        let old = self.wm.remove(tag)?;
        if let Some(dur) = &mut self.dur {
            dur.pending.push(WmeOp::Retract(tag));
        }
        let cycle = self.cycle;
        self.tracer.emit(|| TraceEvent::WmeRetract { cycle, tag });
        if let Some(m) = &mut self.metrics {
            m.wm_retracts += 1;
        }
        let t = self.metrics.is_some().then(Instant::now);
        let sp = self.spans.begin_scope();
        self.matcher.remove_wme(&old);
        self.sync();
        self.spans.end(sp, span_cat::MATCH, 0, Vec::new);
        self.note_match_time(t);
        let class = old.class;
        let mut slots: Vec<(Symbol, Value)> = old.slots().to_vec();
        for &(a, v) in updates {
            match slots.iter_mut().find(|(sa, _)| *sa == a) {
                Some((_, sv)) => *sv = v,
                None => slots.push((a, v)),
            }
        }
        let pre_mark = self.wm.tag_mark();
        let wme = match self.wm.make(class, slots) {
            Ok(wme) => wme,
            Err(e) => {
                // The retract half already ran. Inside a firing the undo
                // log restores it (the RHS records Restore(old) before
                // calling here); for an API-level modify put the old WME
                // back ourselves (and drop its buffered Retract op)
                // rather than leaving a half-applied modify behind.
                if self.firing_rule.is_none() {
                    if let Some(dur) = &mut self.dur {
                        dur.pending.pop();
                    }
                    self.matcher.insert_wme(&old);
                    self.wm.restore(old);
                    self.sync();
                }
                return Err(e.into());
            }
        };
        if let Some(dur) = &mut self.dur {
            dur.pending.push(WmeOp::Assert(wme.clone()));
        }
        self.tracer.emit(|| TraceEvent::WmeAssert {
            cycle,
            tag: wme.tag,
            wme: render_wme(&wme),
        });
        if let Some(m) = &mut self.metrics {
            m.wm_asserts += 1;
        }
        let t = self.metrics.is_some().then(Instant::now);
        let sp = self.spans.begin_scope();
        self.matcher.insert_wme(&wme);
        self.sync();
        self.spans.end(sp, span_cat::MATCH, 0, Vec::new);
        self.note_match_time(t);
        if let Err(e) = self.wal_commit_if_api() {
            // Undo both halves of the modify: remove the new incarnation,
            // restore the old one, and release the new tag.
            let _ = self.wm.remove(wme.tag);
            self.matcher.remove_wme(&wme);
            self.wm.restore(old.clone());
            self.matcher.insert_wme(&old);
            self.sync();
            self.wm.reset_tag_mark(pre_mark);
            return Err(e);
        }
        Ok(wme.tag)
    }

    // -----------------------------------------------------------------
    // Durability: write-ahead log + checkpoints.

    /// Attach a write-ahead log. If `path` already holds a log (a crashed
    /// run), its committed prefix is replayed into the engine first —
    /// WME ops re-applied tag-for-tag, cycle markers restoring the cycle
    /// counter, stats, refraction, and the halt flag — and any torn or
    /// uncommitted tail is truncated. From then on every committed WM
    /// change is logged: API-level changes under a transaction commit,
    /// firings as their op batch plus one cycle marker.
    ///
    /// Call after [`Self::load_program`] (and after [`Self::resume`] when
    /// recovering a checkpointed run, so the log's records land on top of
    /// the checkpoint state).
    pub fn attach_wal(
        &mut self,
        path: &Path,
        opts: WalOptions,
    ) -> Result<WalReplayReport, CoreError> {
        if self.dur.is_some() {
            return Err(CoreError::Durability("a WAL is already attached".into()));
        }
        let (mut wal, records) = Wal::open(path, opts)?;
        let mut report = WalReplayReport::default();
        let wal_gen = wal.generation();
        if wal_gen == self.ckpt_gen {
            let mut pending: Vec<WmeOp> = Vec::new();
            for rec in records {
                match rec {
                    WalRecord::Op(payload) => pending.push(decode_wme_op(&payload)?),
                    WalRecord::Commit => {
                        report.replayed_commits += 1;
                        for op in pending.drain(..) {
                            self.replay_op(op)?;
                            report.replayed_ops += 1;
                        }
                    }
                    WalRecord::Cycle(payload) => {
                        let marker = CycleMarker::decode(&payload)?;
                        // Refraction is re-armed *before* the cycle's ops, in
                        // the order the live run did it: `mark_fired` precedes
                        // the RHS, and an RHS that retracts the fired
                        // instantiation's own WMEs must clear it again.
                        if let Some(&id) = self.rule_ids.get(&marker.rule) {
                            self.cs.mark_fired(&marker.key.into_key(id), marker.version);
                        }
                        for op in pending.drain(..) {
                            self.replay_op(op)?;
                            report.replayed_ops += 1;
                        }
                        self.cycle = marker.cycle;
                        self.halted = marker.halted;
                        let pr = self.stats.per_rule.entry(marker.rule).or_default();
                        pr.firings = marker.rule_firings;
                        pr.actions = marker.rule_actions;
                        let per_rule = std::mem::take(&mut self.stats.per_rule);
                        self.stats = RunStats {
                            per_rule,
                            ..marker.totals
                        };
                        report.replayed_cycles += 1;
                    }
                }
            }
            // `Wal::open` only returns the committed prefix.
            debug_assert!(pending.is_empty(), "uncommitted records survived recovery");
        } else if wal_gen + 1 == self.ckpt_gen || (wal_gen == 0 && records.is_empty()) {
            // Either the crash hit between checkpoint rename and log
            // rotation — the resumed checkpoint already contains every
            // logged record, so replaying them would double-apply — or a
            // brand-new empty log is being attached to a resumed
            // checkpoint. Both finish by rotating the log to the
            // checkpoint's generation.
            report.stale_records = records.len() as u64;
            wal.rotate(self.ckpt_gen)?;
        } else {
            return Err(CoreError::Durability(format!(
                "WAL generation {} does not pair with checkpoint generation {} \
                 (resume from the matching checkpoint before attaching this log)",
                wal_gen, self.ckpt_gen
            )));
        }
        let stats = *wal.stats();
        report.discarded_records = stats.discarded_records;
        report.truncated_bytes = stats.truncated_bytes;
        if self.spans.enabled() {
            wal.set_spans(self.spans.clone());
        }
        self.dur = Some(Box::new(EngineWal {
            wal,
            pending: Vec::new(),
        }));
        Ok(report)
    }

    /// Is a write-ahead log attached?
    pub fn wal_attached(&self) -> bool {
        self.dur.is_some()
    }

    /// The attached WAL's counters ([`None`] when detached).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.dur.as_ref().map(|d| *d.wal.stats())
    }

    /// Inject a storage fault into the attached WAL (see
    /// [`sorete_reldb::IoFaultPlan`]). Returns `false` when no WAL is
    /// attached.
    pub fn inject_wal_fault(&mut self, plan: IoFaultPlan) -> bool {
        match &mut self.dur {
            Some(d) => {
                d.wal.inject_fault(plan);
                true
            }
            None => false,
        }
    }

    /// Fsync the attached WAL (a no-op when detached). Useful before
    /// handing the file to another process.
    pub fn sync_wal(&mut self) -> Result<(), CoreError> {
        if let Some(d) = &mut self.dur {
            d.wal.sync()?;
        }
        Ok(())
    }

    /// Re-apply one recovered WME op. Bypasses the logging hooks (recovery
    /// must not re-log what it reads) and the trace stream (a recovered
    /// run's trace starts at recovery).
    fn replay_op(&mut self, op: WmeOp) -> Result<(), CoreError> {
        match op {
            WmeOp::Assert(wme) => {
                self.wm.replay(wme.clone())?;
                if let Some(m) = &mut self.metrics {
                    m.wm_asserts += 1;
                }
                self.matcher.insert_wme(&wme);
                self.sync();
            }
            WmeOp::Retract(tag) => {
                let wme = self.wm.remove(tag)?;
                if let Some(m) = &mut self.metrics {
                    m.wm_retracts += 1;
                }
                self.matcher.remove_wme(&wme);
                self.sync();
            }
            WmeOp::Update(tag, _) => {
                return Err(CoreError::Durability(format!(
                    "unexpected update record for t{} (engine WALs log retract + assert)",
                    tag.raw()
                )));
            }
        }
        Ok(())
    }

    /// Flush the pending op buffer under a transaction commit marker —
    /// API-level WM changes, which commit individually. No-op inside a
    /// firing (the ops ride to [`Self::step`]'s cycle marker) or when no
    /// WAL is attached.
    fn wal_commit_if_api(&mut self) -> Result<(), CoreError> {
        if self.firing_rule.is_some() {
            return Ok(());
        }
        if self.dur.as_ref().is_none_or(|d| d.pending.is_empty()) {
            return Ok(());
        }
        self.wal_flush_pending(None)
    }

    /// Commit a successful firing to the log: its op batch followed by a
    /// cycle marker carrying the bookkeeping recovery needs. The marker
    /// doubles as the commit point (group commit applies).
    fn wal_commit_cycle(
        &mut self,
        rule: Symbol,
        cycle: u64,
        key: &InstKey,
        version: u64,
    ) -> Result<(), CoreError> {
        if self.dur.is_none() {
            return Ok(());
        }
        let pr = self.stats.per_rule.get(&rule).copied().unwrap_or_default();
        let marker = CycleMarker {
            cycle,
            halted: self.halted,
            totals: RunStats {
                per_rule: Default::default(),
                ..self.stats.clone()
            },
            rule,
            rule_firings: pr.firings,
            rule_actions: pr.actions,
            version,
            key: KeySpec::of(key),
        };
        self.wal_flush_pending(Some(marker.encode()))
    }

    /// Append the pending op buffer plus its commit point (a transaction
    /// commit, or the given cycle marker) to the log. The buffer is only
    /// drained on success or on *final* failure: a clean append failure
    /// leaves the log truncated at its last commit point, so when a
    /// supervisor retry policy is installed the whole batch is retried
    /// with backoff. A poisoned log (real I/O failure of unknown extent)
    /// is never retried — only reopen-with-recovery re-establishes its
    /// state.
    fn wal_flush_pending(&mut self, marker: Option<Vec<u8>>) -> Result<(), CoreError> {
        let retry = self.sup.as_ref().map(|s| s.config().retry);
        let tracer = self.tracer.clone();
        let Some(dur) = self.dur.as_mut() else {
            return Ok(());
        };
        let encoded: Vec<Vec<u8>> = dur.pending.iter().map(encode_wme_op).collect();
        let mut attempt: u32 = 0;
        loop {
            let res = (|| -> Result<(), sorete_reldb::DbError> {
                for op in &encoded {
                    dur.wal.append_op(op)?;
                }
                match &marker {
                    Some(payload) => dur.wal.append_cycle(payload)?,
                    None => dur.wal.append_commit()?,
                }
                Ok(())
            })();
            match res {
                Ok(()) => {
                    dur.pending.clear();
                    return Ok(());
                }
                Err(e) => {
                    let retryable = !dur.wal.is_poisoned();
                    if let Some(rp) = retry {
                        if retryable && attempt < rp.max_attempts {
                            attempt += 1;
                            let delay = rp.delay_micros(attempt);
                            let error = e.to_string();
                            tracer.emit(|| TraceEvent::IoRetry {
                                attempt,
                                delay_micros: delay,
                                error: error.clone(),
                            });
                            if let Some(sup) = self.sup.as_mut() {
                                sup.stats.io_retries += 1;
                            }
                            std::thread::sleep(Duration::from_micros(delay));
                            continue;
                        }
                    }
                    dur.pending.clear();
                    return Err(e.into());
                }
            }
        }
    }

    /// Snapshot the engine's recoverable state at the current cycle
    /// boundary: surviving WMEs (tag order), the tag allocator, the cycle
    /// counter, run statistics, the halt flag, and the refraction memory
    /// as matcher-independent keys. Must not be called mid-firing.
    pub fn checkpoint(&self) -> Checkpoint {
        debug_assert!(self.firing_rule.is_none(), "checkpoint mid-firing");
        let mut fired: Vec<(Symbol, String, KeySpec)> = self
            .cs
            .refracted_keys()
            .into_iter()
            .map(|k| (self.rules[k.rule().index()].name, k.repr(), KeySpec::of(k)))
            .collect();
        fired.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()).then_with(|| a.1.cmp(&b.1)));
        Checkpoint {
            matcher: self.matcher.algorithm_name().to_string(),
            generation: self.ckpt_gen,
            cycle: self.cycle,
            tag_mark: self.wm.tag_mark(),
            halted: self.halted,
            totals: RunStats {
                per_rule: Default::default(),
                ..self.stats.clone()
            },
            rules: self.stats.per_rule_sorted(),
            wmes: self.wm.dump().into_iter().cloned().collect(),
            fired: fired.into_iter().map(|(n, _, s)| (n, s)).collect(),
        }
    }

    /// The checkpoint rendered to its text format.
    pub fn checkpoint_string(&self) -> String {
        self.checkpoint().render()
    }

    /// Write a checkpoint file crash-atomically (temp file + fsync +
    /// rename + directory fsync), then rotate the attached WAL (if any):
    /// the checkpoint becomes the new recovery base and the log restarts
    /// empty. With a WAL attached the checkpoint is stamped one
    /// generation ahead of the pre-rotation log, so a crash *between*
    /// the two steps is recognised at [`Self::attach_wal`]: the stale
    /// log's records — already folded into the checkpoint — are
    /// discarded instead of double-applied, and the interrupted rotation
    /// is finished.
    pub fn checkpoint_to(&mut self, path: &Path) -> Result<(), CoreError> {
        let mut ck = self.checkpoint();
        if self.dur.is_some() {
            ck.generation = self.ckpt_gen + 1;
        }
        let rendered = ck.render();
        let retry = self.sup.as_ref().map(|s| s.config().retry);
        let mut attempt: u32 = 0;
        loop {
            match sorete_reldb::persist::atomic_write(path, rendered.as_bytes()) {
                Ok(()) => break,
                Err(e) => {
                    // Checkpoint writes go through a temp file + rename, so
                    // a failed attempt leaves no partial state behind and is
                    // always safe to retry under the supervisor's policy.
                    if let Some(rp) = retry {
                        if attempt < rp.max_attempts {
                            attempt += 1;
                            let delay = rp.delay_micros(attempt);
                            let error = e.to_string();
                            self.tracer.emit(|| TraceEvent::IoRetry {
                                attempt,
                                delay_micros: delay,
                                error: error.clone(),
                            });
                            if let Some(sup) = self.sup.as_mut() {
                                sup.stats.io_retries += 1;
                            }
                            std::thread::sleep(Duration::from_micros(delay));
                            continue;
                        }
                    }
                    return Err(CoreError::Durability(format!(
                        "write checkpoint {}: {}",
                        path.display(),
                        e
                    )));
                }
            }
        }
        if let Some(dur) = &mut self.dur {
            dur.wal.rotate(ck.generation)?;
        }
        self.ckpt_gen = ck.generation;
        Ok(())
    }

    /// Restore a checkpoint into a *fresh* engine (program loaded, working
    /// memory empty, cycle 0). The match network — whichever algorithm
    /// backs this engine, not necessarily the one that wrote the
    /// checkpoint — is rebuilt by replaying the WMEs, and refraction is
    /// re-armed at each rebuilt entry's current version, so the conflict
    /// set offers exactly the instantiations the checkpointed run had
    /// left.
    pub fn resume(&mut self, ck: Checkpoint) -> Result<ResumeReport, CoreError> {
        if !self.wm.is_empty() || self.cycle != 0 {
            return Err(CoreError::Durability(
                "resume requires a fresh engine (empty working memory, cycle 0)".into(),
            ));
        }
        if self.dur.is_some() {
            return Err(CoreError::Durability(
                "resume before attaching a WAL, so the log replays on top of the checkpoint".into(),
            ));
        }
        // Checked before anything is touched: a repeated tag would collide
        // in working memory after the matcher had already taken it.
        if let Some(pair) = ck.wmes.windows(2).find(|p| p[0].tag >= p[1].tag) {
            return Err(CoreError::Durability(format!(
                "checkpoint WMEs are not in ascending tag order at t{}",
                pair[1].tag.raw()
            )));
        }
        // The matcher copies what it keeps out of the slice; working
        // memory then takes the facts themselves.
        self.matcher.rebuild_from(&ck.wmes);
        let restored = ck.wmes.len();
        for w in ck.wmes {
            self.wm.replay(w)?;
        }
        self.wm.raise_tag_mark(ck.tag_mark);
        self.sync();
        let mut refracted = 0;
        for (rule, spec) in &ck.fired {
            let Some(&id) = self.rule_ids.get(rule) else {
                continue;
            };
            let key = spec.into_key(id);
            // The rebuilt network renumbers SOI versions (only surviving
            // WMEs replay), so refraction is pinned to the *rebuilt*
            // entry's version, not the version the original run saw.
            if let Some(version) = self.cs.version_of(&key) {
                self.cs.mark_fired(&key, version);
                refracted += 1;
            }
        }
        self.cycle = ck.cycle;
        self.halted = ck.halted;
        self.ckpt_gen = ck.generation;
        let mut per_rule = FxHashMap::default();
        for (name, rs) in &ck.rules {
            per_rule.insert(*name, *rs);
        }
        self.stats = RunStats {
            per_rule,
            ..ck.totals.clone()
        };
        Ok(ResumeReport {
            wmes: restored,
            refracted,
            cycle: ck.cycle,
            matcher_was: ck.matcher.clone(),
        })
    }

    /// [`Self::resume`] from checkpoint text.
    pub fn resume_from_str(&mut self, text: &str) -> Result<ResumeReport, CoreError> {
        self.resume(Checkpoint::parse(text)?)
    }

    /// [`Self::resume`] from a checkpoint file.
    pub fn resume_from_file(&mut self, path: &Path) -> Result<ResumeReport, CoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            CoreError::Durability(format!("read checkpoint {}: {}", path.display(), e))
        })?;
        self.resume_from_str(&text)
    }

    fn sync(&mut self) {
        for d in self.matcher.drain_deltas() {
            if self.tracer.enabled() {
                self.emit_cs_event(&d);
            }
            self.cs.apply(d);
        }
    }

    /// Translate one conflict-set delta into its logical trace event
    /// (resolving the rule id to a name).
    fn emit_cs_event(&self, d: &CsDelta) {
        match d {
            CsDelta::Insert(item) => {
                let rule = self.rules[item.key.rule().index()].name;
                let soi = matches!(item.key, InstKey::Soi { .. });
                self.tracer.emit(|| TraceEvent::CsInsert {
                    rule,
                    key: item.key.repr(),
                    soi,
                    rows: item
                        .rows
                        .iter()
                        .map(|r| r.iter().map(|t| t.raw()).collect())
                        .collect(),
                    aggregates: item.aggregates.iter().map(|v| v.to_string()).collect(),
                });
            }
            CsDelta::Remove(key) => {
                let rule = self.rules[key.rule().index()].name;
                let soi = matches!(key, InstKey::Soi { .. });
                self.tracer.emit(|| TraceEvent::CsRemove {
                    rule,
                    key: key.repr(),
                    soi,
                });
            }
            CsDelta::Retime(info) => {
                let rule = self.rules[info.key.rule().index()].name;
                self.tracer.emit(|| TraceEvent::CsRetime {
                    rule,
                    key: info.key.repr(),
                    version: info.version,
                });
            }
        }
    }

    /// One recognise–act cycle. Returns the fired rule's name, or `None` at
    /// quiescence / after halt.
    pub fn step(&mut self) -> Result<Option<Symbol>, CoreError> {
        if self.halted {
            return Ok(None);
        }
        self.sync();
        let t_cycle = (self.metrics.is_some() || self.flight.enabled()).then(Instant::now);
        // The cycle span opens before selection so resolve nests under it;
        // a quiescent step cancels both without recording anything.
        let sp_cycle = self.spans.begin_scope();
        let sp_resolve = self.spans.begin_scope();
        let Some((selected, stale)) = self.cs.select(self.strategy) else {
            self.spans.cancel(sp_resolve);
            self.spans.cancel(sp_cycle);
            return Ok(None);
        };
        let mut item = selected.clone();
        if stale {
            // A slim `time` token updated this SOI; fetch its real rows.
            match self.matcher.materialize(&item.key) {
                Some(fresh) => {
                    item = fresh;
                    self.cs.refresh(item.clone());
                }
                None => {
                    // Unreachable after sync (a dead SOI gets a Remove
                    // delta first), but recover by dropping the entry.
                    debug_assert!(false, "stale entry vanished without a Remove delta");
                    let key = item.key.clone();
                    self.cs.apply(sorete_base::CsDelta::Remove(key));
                    self.spans.cancel(sp_resolve);
                    self.spans.cancel(sp_cycle);
                    return self.step();
                }
            }
        }
        let rule = self.rules[item.key.rule().index()].clone();
        self.spans.end(sp_resolve, span_cat::RESOLVE, 0, Vec::new);
        if let (Some(m), Some(t)) = (self.metrics.as_ref(), t_cycle) {
            let ns = t.elapsed().as_nanos() as u64;
            let id = m.ids.resolve_nanos;
            m.handle.with(|r| r.observe(id, ns));
        }
        self.cycle += 1;
        let cycle = self.cycle;
        self.tracer.emit(|| TraceEvent::CycleBegin { cycle });
        // Open the firing transaction: capture everything rollback needs
        // *before* the first externally visible effect (mark_fired).
        let can_rollback = self.recovery != RecoveryPolicy::AbortRun;
        let tag_mark = self.wm.tag_mark();
        let output_mark = self.output.len();
        let halted_before = self.halted;
        if can_rollback {
            debug_assert!(self.undo.is_empty());
            self.cs.begin_journal();
        }
        self.cs.mark_fired(&item.key, item.version);
        self.stats.firings += 1;
        self.stats.per_rule.entry(rule.name).or_default().firings += 1;
        self.tracer.emit(|| TraceEvent::Fire {
            cycle,
            rule: rule.name,
            rows: item
                .rows
                .iter()
                .map(|r| r.iter().map(|t| t.raw()).collect())
                .collect(),
        });

        // Snapshot the instantiation's WMEs (bindings are fixed at firing).
        let mut wmes: FxHashMap<TimeTag, Wme> = FxHashMap::default();
        for row in &item.rows {
            for &t in row.iter() {
                if let Some(w) = self.wm.get(t) {
                    wmes.entry(t).or_insert_with(|| w.clone());
                }
            }
        }
        let mut ctx = RhsCtx::new(
            rule.clone(),
            item.rows.clone(),
            wmes,
            item.aggregates.clone(),
        );
        self.firing_rule = Some(rule.name);
        self.recording = can_rollback;
        let t_rhs = self.metrics.is_some().then(Instant::now);
        // Panic fence: a panic unwinding out of the RHS, the matcher
        // propagation it triggers, or the commit path is caught here and
        // handled by the same recovery path as any other firing error.
        // The fence is unconditional — supervision only changes what the
        // caller does with the resulting `CoreError::Panic`.
        let exec = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let sp_rhs = self.spans.begin_scope();
            let r = match self.fault.take() {
                Some(mut plan) => {
                    let r = {
                        let mut host = FaultInjector::new(self, &mut plan);
                        rhs::execute(&mut host, &mut ctx, &rule.rhs)
                    };
                    self.fault = Some(plan);
                    r
                }
                None => rhs::execute(self, &mut ctx, &rule.rhs),
            };
            if let (Some(m), Some(t)) = (self.metrics.as_ref(), t_rhs) {
                let ns = t.elapsed().as_nanos() as u64;
                let id = m.ids.rhs_nanos;
                m.handle.with(|reg| reg.observe(id, ns));
            }
            self.spans.end(sp_rhs, span_cat::RHS, 0, Vec::new);
            // A successful RHS still has to reach the log before the firing
            // commits: a WAL failure here rolls the firing back exactly like
            // an RHS error, so in-memory state never runs ahead of durable
            // state.
            r.and_then(|()| {
                self.sync();
                let sp_wal = self.spans.begin_scope();
                let r = self.wal_commit_cycle(rule.name, cycle, &item.key, item.version);
                self.spans.end(sp_wal, span_cat::WAL_COMMIT, 0, Vec::new);
                r
            })
        }));
        self.recording = false;
        self.firing_rule = None;
        let result = match exec {
            Ok(r) => r,
            Err(payload) => {
                let message = panic_message(payload);
                if let Some(sup) = self.sup.as_mut() {
                    sup.stats.panics_caught += 1;
                }
                let rule_name = rule.name;
                let msg = message.clone();
                self.tracer.emit(|| TraceEvent::PanicCaught {
                    rule: rule_name,
                    message: msg.clone(),
                });
                // Push buffered telemetry to disk while still inside the
                // fence: if the caller re-raises or the process dies, the
                // trace/metrics tail (including PanicCaught itself) must
                // already be durable.
                self.flush_trace();
                Err(CoreError::Panic(message))
            }
        };
        match result {
            Ok(()) => {
                if can_rollback {
                    self.undo.clear();
                    self.cs.end_journal();
                }
                self.sync();
                self.tracer.emit(|| TraceEvent::CycleEnd {
                    cycle,
                    rule: rule.name,
                    ok: true,
                });
                // Ending the scoped cycle span also repairs the scope
                // stack if a panic abandoned rhs/wal_commit tickets.
                self.spans
                    .end(sp_cycle, span_cat::CYCLE, 0, || vec![("cycle", cycle)]);
                self.finish_cycle_metrics(t_cycle);
                self.record_flight_cycle(cycle, rule.name, true, t_cycle);
                Ok(Some(rule.name))
            }
            Err(e) => {
                self.last_failed = Some(rule.name);
                // The firing aborts: its buffered WAL ops must never be
                // committed (under AbortRun its in-memory effects remain,
                // but recovery rewinds to the last committed cycle).
                if let Some(dur) = &mut self.dur {
                    dur.pending.clear();
                }
                if can_rollback {
                    self.rollback_firing(rule.name, &e, tag_mark, output_mark, halted_before);
                    if self.recovery == RecoveryPolicy::SkipFiring {
                        // The failed instantiation stays refracted so the
                        // run can make progress past it.
                        self.cs.mark_fired(&item.key, item.version);
                    }
                }
                self.tracer.emit(|| TraceEvent::CycleEnd {
                    cycle,
                    rule: rule.name,
                    ok: false,
                });
                self.spans
                    .end(sp_cycle, span_cat::CYCLE, 0, || vec![("cycle", cycle)]);
                self.finish_cycle_metrics(t_cycle);
                self.record_flight_cycle(cycle, rule.name, false, t_cycle);
                Err(e)
            }
        }
    }

    /// Append this cycle's summary row to the flight ring (no-op when the
    /// recorder is off). Runs on success *and* failure so the black box
    /// always holds the cycles leading up to a crash.
    fn record_flight_cycle(&self, cycle: u64, rule: Symbol, ok: bool, t_cycle: Option<Instant>) {
        if !self.flight.enabled() {
            return;
        }
        let firings = self
            .stats
            .per_rule
            .get(&rule)
            .map(|r| r.firings)
            .unwrap_or(0);
        self.flight.record_cycle(&CycleRecord {
            cycle,
            rule,
            ok,
            firings,
            wm_len: self.wm.len() as u64,
            cs_len: self.cs.len() as u64,
            nanos: t_cycle.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
        });
    }

    /// End-of-cycle telemetry: observe the whole-cycle histogram, then
    /// sample and snapshot. Runs on success *and* failure, so rolled-back
    /// cycles still appear in the time series.
    fn finish_cycle_metrics(&self, t_cycle: Option<Instant>) {
        let Some(m) = self.metrics.as_ref() else {
            return;
        };
        if let Some(t) = t_cycle {
            let ns = t.elapsed().as_nanos() as u64;
            let id = m.ids.fire_nanos;
            m.handle.with(|r| r.observe(id, ns));
        }
        self.record_metrics_snapshot();
    }

    /// Undo a failed firing: replay the undo log in reverse through
    /// working memory *and* the matcher, then restore refraction, output,
    /// the halt flag, and the time-tag allocator. Afterwards the engine is
    /// observationally identical to its pre-firing state.
    fn rollback_firing(
        &mut self,
        rule: Symbol,
        error: &CoreError,
        tag_mark: u64,
        output_mark: usize,
        halted_before: bool,
    ) {
        self.sync();
        let journal = self.cs.take_journal();
        let ops = std::mem::take(&mut self.undo);
        for op in ops.into_iter().rev() {
            match op {
                UndoOp::Retract(tag) => {
                    let wme = self.wm.remove(tag).expect("undo retract of a dead tag");
                    self.matcher.remove_wme(&wme);
                }
                UndoOp::Restore(wme) => {
                    self.wm.restore(wme.clone());
                    self.matcher.insert_wme(&wme);
                }
            }
            self.sync();
        }
        self.wm.reset_tag_mark(tag_mark);
        self.cs.restore_fired(journal);
        self.output.truncate(output_mark);
        self.halted = halted_before;
        self.stats.rolled_back += 1;
        self.tracer.emit(|| TraceEvent::Rollback {
            rule,
            error: error.to_string(),
        });
    }

    /// Run to quiescence, halt, the firing limit, a [`RunGuards`] limit,
    /// or an error the [`RecoveryPolicy`] does not continue past.
    pub fn run(&mut self, limit: Option<u64>) -> RunOutcome {
        let sp_run = self.spans.begin_scope();
        let outcome = self.run_inner(limit);
        let fired = outcome.fired;
        self.spans
            .end(sp_run, span_cat::RUN, 0, || vec![("fired", fired)]);
        if outcome.reason.is_abnormal() {
            // Black-box drain: flush live telemetry, then persist the
            // flight rings as a crash bundle for offline post-mortem.
            self.flush_trace();
            if self.flight.enabled() {
                let dir = self.crash_dir();
                match crate::bundle::write(self, outcome.reason.label(), Some(&outcome), &dir) {
                    Ok(path) => {
                        self.last_bundle = Some(path);
                        crate::bundle::prune(&dir, self.crash_keep);
                    }
                    Err(e) => eprintln!("sorete: failed to write crash bundle: {}", e),
                }
            }
        }
        outcome
    }

    /// Write a bundle of the flight recorder's current contents on demand
    /// (the REPL's `dump bundle`), into `dir` or the default crash
    /// directory. Errors when the recorder is off.
    pub fn dump_bundle(&mut self, dir: Option<&Path>) -> Result<PathBuf, CoreError> {
        if !self.flight.enabled() {
            return Err(CoreError::Rhs(
                "flight recorder is off (--flight-recorder 0)".into(),
            ));
        }
        let dir = dir
            .map(Path::to_path_buf)
            .unwrap_or_else(|| self.crash_dir());
        self.flush_trace();
        let path = crate::bundle::write(self, "manual", None, &dir)
            .map_err(|e| CoreError::Durability(format!("write bundle: {}", e)))?;
        self.last_bundle = Some(path.clone());
        crate::bundle::prune(&dir, self.crash_keep);
        Ok(path)
    }

    fn run_inner(&mut self, limit: Option<u64>) -> RunOutcome {
        let start = Instant::now();
        let mut fired = 0;
        let mut stagnant: u64 = 0;
        let mut last_rule: Option<Symbol> = None;
        let mut last_wm_len = self.wm.len();
        // Soft degradation budgets re-arm per run.
        if let Some(sup) = self.sup.as_mut() {
            sup.soft_tripped = false;
        }
        loop {
            if let Some(l) = limit {
                if fired >= l {
                    return RunOutcome {
                        fired,
                        reason: StopReason::Limit,
                    };
                }
            }
            if self.interrupt_requested() {
                // Operator-requested stop: cut an orderly checkpoint when
                // supervision has one configured, then end normally.
                self.orderly_halt_checkpoint();
                return RunOutcome {
                    fired,
                    reason: StopReason::Interrupted,
                };
            }
            if let Some(v) = self.check_guards(start) {
                self.tracer.emit(|| TraceEvent::GuardTrip {
                    reason: v.to_string(),
                });
                // Under supervision a hard limit halts in order: cut a
                // checkpoint first so `--resume` can continue the run.
                self.orderly_halt_checkpoint();
                return RunOutcome {
                    fired,
                    reason: StopReason::ResourceExhausted(v),
                };
            }
            if self.sup.is_some() {
                if let Some(outcome) = self.supervise_budgets(start, fired) {
                    return outcome;
                }
            }
            match self.step() {
                Ok(Some(rule)) => {
                    fired += 1;
                    let wm_len = self.wm.len();
                    if wm_len == last_wm_len && last_rule == Some(rule) {
                        stagnant += 1;
                        if let Some(max) = self.guards.max_stagnant_firings {
                            if stagnant >= max {
                                let v = GuardViolation::Stagnation {
                                    rule,
                                    firings: stagnant,
                                };
                                self.tracer.emit(|| TraceEvent::GuardTrip {
                                    reason: v.to_string(),
                                });
                                self.orderly_halt_checkpoint();
                                return RunOutcome {
                                    fired,
                                    reason: StopReason::ResourceExhausted(v),
                                };
                            }
                        }
                    } else {
                        stagnant = 0;
                    }
                    last_wm_len = wm_len;
                    last_rule = Some(rule);
                }
                Ok(None) => {
                    let reason = if self.halted {
                        StopReason::Halt
                    } else if self.cs.quarantined_fireable() > 0 {
                        // Not true quiescence: fireable work remains, every
                        // bit of it behind quarantined rules.
                        StopReason::Quarantined {
                            rules: self.quarantined_rules(),
                        }
                    } else {
                        StopReason::Quiescence
                    };
                    return RunOutcome { fired, reason };
                }
                Err(e) => {
                    // Rule-scoped failures (RHS errors, injected faults,
                    // caught panics) feed the supervisor's circuit
                    // breakers: step() rolled the firing back, the breaker
                    // counts it, and a rule that keeps failing is
                    // quarantined so the rest of the run can proceed.
                    // Durability errors are engine-scoped and never
                    // continue. AbortRun cannot roll back, so supervision
                    // cannot safely continue past failures under it.
                    let rule_scoped = !matches!(e, CoreError::Durability(_));
                    if let Some(sup) = self
                        .sup
                        .as_mut()
                        .filter(|_| rule_scoped && self.recovery != RecoveryPolicy::AbortRun)
                    {
                        if let Some(rule) = self.last_failed {
                            let tripped = sup.record_failure(rule, self.cycle);
                            if let Some(failures) = tripped {
                                if let Some(&id) = self.rule_ids.get(&rule) {
                                    self.cs.set_rule_quarantined(id, true);
                                }
                                self.tracer
                                    .emit(|| TraceEvent::Quarantine { rule, failures });
                            }
                        }
                        continue;
                    }
                    // Under SkipFiring, step() already rolled the firing
                    // back and refracted it; keep going.
                    if self.recovery == RecoveryPolicy::SkipFiring {
                        continue;
                    }
                    let reason = match e {
                        CoreError::Panic(message) => StopReason::Panicked {
                            rule: self.last_failed.unwrap_or_else(|| Symbol::new("?")),
                            message,
                        },
                        other => StopReason::Error(other),
                    };
                    return RunOutcome { fired, reason };
                }
            }
        }
    }

    /// Check the supervisor's degradation budgets. A soft trip (once per
    /// run) cuts an automatic checkpoint and warns; a hard trip checkpoints
    /// and ends the run with `ResourceExhausted` — an orderly, resumable
    /// halt, never an abort.
    fn supervise_budgets(&mut self, start: Instant, fired: u64) -> Option<RunOutcome> {
        let (deg, soft_done) = {
            let s = self.sup.as_ref().expect("caller checked");
            (s.config().degradation, s.soft_tripped)
        };
        let bytes = (deg.hard_bytes.is_some() || (deg.soft_bytes.is_some() && !soft_done))
            .then(|| self.matcher.memory_report().total_bytes());
        if let (Some(limit), Some(actual)) = (deg.hard_bytes, bytes) {
            if actual > limit {
                let sup = self.sup.as_mut().expect("caller checked");
                sup.stats.hard_degrades += 1;
                let detail = format!(
                    "{} live bytes > hard budget {}; halting with checkpoint",
                    actual, limit
                );
                self.tracer.emit(|| TraceEvent::Degrade {
                    severity: "hard",
                    budget: "memory_bytes",
                    detail: detail.clone(),
                });
                let v = GuardViolation::MemoryBytes { limit, actual };
                self.tracer.emit(|| TraceEvent::GuardTrip {
                    reason: v.to_string(),
                });
                self.orderly_halt_checkpoint();
                return Some(RunOutcome {
                    fired,
                    reason: StopReason::ResourceExhausted(v),
                });
            }
        }
        if !soft_done {
            let mut trip: Option<(&'static str, String)> = None;
            if let (Some(limit), Some(actual)) = (deg.soft_bytes, bytes) {
                if actual > limit {
                    trip = Some((
                        "memory_bytes",
                        format!("{} live bytes > soft budget {}", actual, limit),
                    ));
                }
            }
            if trip.is_none() {
                if let Some(limit) = deg.soft_wall {
                    let elapsed = start.elapsed();
                    if elapsed > limit {
                        trip = Some((
                            "wall_clock",
                            format!("{:?} elapsed > soft budget {:?}", elapsed, limit),
                        ));
                    }
                }
            }
            if let Some((budget, detail)) = trip {
                let sup = self.sup.as_mut().expect("caller checked");
                sup.soft_tripped = true;
                sup.stats.soft_degrades += 1;
                self.tracer.emit(|| TraceEvent::Degrade {
                    severity: "soft",
                    budget,
                    detail: detail.clone(),
                });
                self.orderly_halt_checkpoint();
            }
        }
        None
    }

    /// Cut a checkpoint at the supervisor's configured path (if any),
    /// best-effort: degradation must never turn into an abort because the
    /// checkpoint disk is also unhappy.
    fn orderly_halt_checkpoint(&mut self) {
        let Some(path) = self
            .sup
            .as_ref()
            .and_then(|s| s.config().checkpoint_path.clone())
        else {
            return;
        };
        if let Err(e) = self.checkpoint_to(&path) {
            let detail = format!("degradation checkpoint failed: {}", e);
            self.tracer.emit(|| TraceEvent::Degrade {
                severity: "hard",
                budget: "checkpoint",
                detail: detail.clone(),
            });
        }
    }

    fn check_guards(&self, start: Instant) -> Option<GuardViolation> {
        if let Some(limit) = self.guards.max_wall {
            if start.elapsed() > limit {
                return Some(GuardViolation::WallClock { limit });
            }
        }
        if let Some(limit) = self.guards.max_wm {
            let actual = self.wm.len();
            if actual > limit {
                return Some(GuardViolation::WmSize { limit, actual });
            }
        }
        None
    }

    /// Current conflict-set size (fired entries included).
    pub fn conflict_set_len(&self) -> usize {
        self.cs.len()
    }

    /// Conflict-set entries (unordered), for inspection. SOI entries are
    /// materialized so their rows reflect the γ-memory's current state
    /// (slim `time` tokens only update position metadata).
    pub fn conflict_items(&self) -> Vec<ConflictItem> {
        self.cs
            .items()
            .map(|item| {
                self.matcher
                    .materialize(&item.key)
                    .unwrap_or_else(|| item.clone())
            })
            .collect()
    }

    /// Working memory (read access).
    pub fn wm(&self) -> &WorkingMemory {
        &self.wm
    }

    /// Accumulated `write` output (drained).
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Firing trace (drained). Rendered from the event stream collected
    /// since [`Self::set_tracing`] was enabled, in the legacy string
    /// format (`FIRE …`, `SKIP …`, `ROLLBACK …`).
    pub fn take_trace(&mut self) -> Vec<String> {
        let Some(legacy) = &self.legacy else {
            return Vec::new();
        };
        let events = legacy.lock().unwrap().take();
        events.iter().filter_map(legacy_trace_line).collect()
    }

    /// Engine counters.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Recognise–act cycles completed so far (rule firings committed).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Matcher counters.
    pub fn match_stats(&self) -> sorete_base::MatchStats {
        self.matcher.stats()
    }

    /// Point-in-time matcher memory accounting (live-set methodology —
    /// see [`sorete_base::MemoryReport`]). Works with metrics disabled;
    /// when enabled, the same report feeds the `sorete_memory_bytes` /
    /// `sorete_memory_entries` gauges each cycle.
    pub fn memory_report(&self) -> sorete_base::MemoryReport {
        self.matcher.memory_report()
    }

    /// The matcher backing this engine.
    pub fn matcher_name(&self) -> &'static str {
        self.matcher.algorithm_name()
    }

    /// Every loaded (non-excised) rule, sorted by name — the static rule
    /// context crash bundles carry for offline `explain`/`why-not`.
    pub fn loaded_rules(&self) -> Vec<Arc<AnalyzedRule>> {
        let mut v: Vec<Arc<AnalyzedRule>> = self
            .rule_ids
            .values()
            .map(|id| self.rules[id.index()].clone())
            .collect();
        v.sort_by(|a, b| a.name.as_str().cmp(b.name.as_str()));
        v
    }

    /// Name of the rule behind a matcher rule id (stable across excise).
    pub fn rule_name(&self, id: RuleId) -> Symbol {
        self.rules[id.index()].name
    }

    /// Checkpoint generation this engine's state descends from.
    pub fn checkpoint_generation(&self) -> u64 {
        self.ckpt_gen
    }

    /// Path of the attached WAL, if any.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.dur.as_ref().map(|d| d.wal.path().to_path_buf())
    }

    /// Generation of the attached WAL, if any.
    pub fn wal_generation(&self) -> Option<u64> {
        self.dur.as_ref().map(|d| d.wal.generation())
    }

    /// Ask the matcher to check its internal derived state (e.g. Rete's
    /// hash-join indexes) against a from-scratch rebuild, and the conflict
    /// set its ordered index against its entries. A test/debug aid.
    pub fn validate_matcher(&self) -> Result<(), String> {
        self.matcher.validate()?;
        self.cs.validate()
    }

    /// Graphviz rendering of the match network (Rete only).
    pub fn network_dot(&self) -> Option<String> {
        self.matcher.to_dot()
    }

    /// Has `(halt)` been executed?
    pub fn halted(&self) -> bool {
        self.halted
    }

    fn note_action(&mut self) {
        self.stats.actions += 1;
        if let Some(r) = self.firing_rule {
            self.stats.per_rule.entry(r).or_default().actions += 1;
        }
    }
}

impl RhsHost for ProductionSystem {
    fn make(&mut self, class: Symbol, slots: Vec<(Symbol, Value)>) -> Result<TimeTag, CoreError> {
        self.note_action();
        self.stats.makes += 1;
        let tag = self.assert_wme(class, slots)?;
        if self.recording {
            self.undo.push(UndoOp::Retract(tag));
        }
        Ok(tag)
    }

    fn remove(&mut self, tag: TimeTag) -> Result<bool, CoreError> {
        self.note_action();
        let Some(old) = self.wm.get(tag).cloned() else {
            // Already gone (overlapping set ops) — tolerated, but counted.
            self.stats.skipped_actions += 1;
            self.tracer.emit(|| TraceEvent::SkipAction {
                action: "remove",
                tag,
            });
            return Ok(false);
        };
        self.stats.removes += 1;
        self.retract_wme(tag)?;
        if self.recording {
            self.undo.push(UndoOp::Restore(old));
        }
        Ok(true)
    }

    fn modify(
        &mut self,
        tag: TimeTag,
        updates: Vec<(Symbol, Value)>,
    ) -> Result<Option<TimeTag>, CoreError> {
        self.note_action();
        let Some(old) = self.wm.get(tag).cloned() else {
            self.stats.skipped_actions += 1;
            self.tracer.emit(|| TraceEvent::SkipAction {
                action: "modify",
                tag,
            });
            return Ok(None);
        };
        self.stats.modifies += 1;
        // Record the restore *first*: `modify_wme` can fail after the
        // retract half (e.g. an undeclared attribute), and the retract
        // must still be undone.
        if self.recording {
            self.undo.push(UndoOp::Restore(old));
        }
        let new_tag = self.modify_wme(tag, &updates)?;
        if self.recording {
            self.undo.push(UndoOp::Retract(new_tag));
        }
        Ok(Some(new_tag))
    }

    fn write_line(&mut self, line: String) -> Result<(), CoreError> {
        self.note_action();
        self.stats.writes += 1;
        self.output.push(line);
        Ok(())
    }

    fn halt(&mut self) -> Result<(), CoreError> {
        self.note_action();
        self.halted = true;
        Ok(())
    }

    fn note_bind(&mut self) -> Result<(), CoreError> {
        self.note_action();
        Ok(())
    }
}
