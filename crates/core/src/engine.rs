//! The production-system engine: recognise–act cycle over a pluggable
//! match algorithm.

use crate::conflict::{ConflictSet, Strategy};
use crate::durable::{Checkpoint, CycleMarker, KeySpec};
use crate::error::CoreError;
use crate::policy::{Breakers, Limits, RunPolicy, SupervisorConfig, SupervisorStats};
use crate::rhs::{self, RhsCtx, RhsHost};
use crate::stats::RunStats;
use crate::telemetry::{self, EngineMetrics, Hist, Phase, Sources, Telemetry};
use crate::wm::WorkingMemory;
use sorete_base::flight::{CycleRecord, EventRef, Flight};
use sorete_base::span::category as span_cat;
use sorete_base::{
    ConflictItem, CsDelta, FxHashMap, Metrics, NetProfile, RuleId, SharedSink, SnapshotWriter,
    Span, Spans, Symbol, TimeTag, TraceEvent, Tracer, Value, Wme,
};
use sorete_lang::analyze::AnalyzedRule;
use sorete_lang::matcher::Matcher;
use sorete_lang::{analyze_program, parse_program};
use sorete_naive::NaiveMatcher;
use sorete_reldb::{IoFaultPlan, Journal, JournalOp, Wal, WalOptions, WalStats, WmeOp};
use sorete_rete::ReteMatcher;
use sorete_treat::TreatMatcher;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
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

/// Which hard bound of the [`RunPolicy`]'s [`Limits`] a run
/// exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardViolation {
    /// The run exceeded the hard wall-clock bound.
    WallClock {
        /// The configured limit.
        limit: Duration,
    },
    /// Working memory exceeded its hard bound.
    WmSize {
        /// The configured limit.
        limit: usize,
        /// WME count when the guard tripped.
        actual: usize,
    },
    /// One rule fired the stagnation bound's number of times in a row
    /// without WM progress.
    Stagnation {
        /// The spinning rule.
        rule: Symbol,
        /// Consecutive stagnant firings observed.
        firings: u64,
    },
    /// The matcher's live-byte estimate exceeded the hard bytes bound.
    /// The run halted in order — with a checkpoint when one is configured
    /// — never by abort.
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
    /// A hard bound of the [`RunPolicy`] tripped.
    ResourceExhausted(GuardViolation),
    /// A RHS failed and the policy's [`OnFailure`](crate::OnFailure)
    /// mode does not continue past it. Under `Rollback` the failed firing
    /// has been fully undone; under `Abort` its partial effects remain.
    Error(CoreError),
    /// A panic unwound out of a firing, was caught by the engine's
    /// `catch_unwind` fence, and the policy's failure mode does not
    /// continue past it. The firing was handled like any other failed
    /// firing (rolled back unless the mode is `Abort`).
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

/// What one run tracks for its policy check.
#[derive(Default)]
struct RunState {
    /// Completed firings.
    fired: u64,
    /// Consecutive firings of `last_rule` that left the WME count at
    /// `last_wm_len`.
    stagnant: u64,
    last_rule: Option<Symbol>,
    last_wm_len: usize,
    /// A soft bound trips once per run.
    soft_tripped: bool,
}

impl RunState {
    /// Count one completed firing of `rule` that left `wm_len` WMEs.
    fn count(&mut self, rule: Symbol, wm_len: usize) {
        self.fired += 1;
        if wm_len == self.last_wm_len && self.last_rule == Some(rule) {
            self.stagnant += 1;
        } else {
            self.stagnant = 0;
        }
        self.last_wm_len = wm_len;
        self.last_rule = Some(rule);
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

/// Where the engine's logical events go: the always-on flight recorder's
/// event and cycle rings, written through `&mut` (its span ring lives in
/// the span store), then the sinks of [`ProductionSystem::add_trace_sink`].
/// The matcher holds a clone of `tracer` for its physical events, which
/// never reach the ring. A field of its own, so an event can borrow the
/// engine's other state (a WME in working memory, a conflict-set delta).
struct Events {
    flight: Flight,
    tracer: Tracer,
}

impl Events {
    /// Record a hot event from borrowed state, then hand it to the sinks.
    #[inline]
    fn emit_ref(&mut self, ev: EventRef<'_>) {
        self.flight.record_ref(ev);
        self.tracer.emit_ref(ev);
    }

    /// Record a cold event, then fan it out. It is built only when the
    /// ring or a sink takes it.
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.enabled() {
            let event = make();
            self.flight.record_event(&event);
            self.tracer.emit(|| event);
        }
    }

    /// True when the ring or a sink takes events.
    fn enabled(&self) -> bool {
        self.flight.enabled() || self.tracer.enabled()
    }
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
    /// an error — exercises the engine's `catch_unwind` fence.
    pub fn panicking(mut self) -> FaultPlan {
        self.panics = true;
        self
    }

    /// Derive a target action index in `0..max_actions` from a seed
    /// (splitmix64), for property tests that sweep seeds.
    pub fn seeded(seed: u64, max_actions: u64) -> FaultPlan {
        FaultPlan::nth(crate::policy::splitmix64(seed) % max_actions.max(1))
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

/// What [`ProductionSystem::attach_wal`] replayed from an existing log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalReplayReport {
    /// Committed WME operations re-applied to working memory.
    pub replayed_ops: u64,
    /// Cycle markers applied (firings the recovered run already did).
    pub replayed_cycles: u64,
    /// Plain transaction commits applied (API-level WM changes).
    pub replayed_commits: u64,
    /// Tail bytes truncated by recovery (torn/short/corrupt frames).
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
    /// The matcher's drained deltas on their way to the conflict set;
    /// empty between drains, its buffer reused by the next.
    deltas: Vec<CsDelta>,
    rules: Vec<Arc<AnalyzedRule>>,
    rule_ids: FxHashMap<Symbol, RuleId>,
    wm: WorkingMemory,
    cs: ConflictSet,
    strategy: Strategy,
    halted: bool,
    stats: RunStats,
    output: Vec<String>,
    /// The flight recorder's event and cycle rings and the trace sinks.
    events: Events,
    /// 1-based recognise–act cycle counter (0 = before any firing).
    cycle: u64,
    /// Set while a RHS runs, for per-rule action accounting.
    firing_rule: Option<Symbol>,
    /// When a run stops and what a failed firing does to it; checked
    /// once per cycle by [`Self::check_policy`].
    policy: RunPolicy,
    /// WM changes of the transaction in flight — a firing, or one
    /// API-level assert/retract/modify — in order: what the WAL commits
    /// and what a rollback walks backwards (see [`Self::journaling`]).
    journal: Journal,
    /// Installed fault plan, applied to every firing until triggered.
    fault: Option<FaultPlan>,
    /// Span recorder, metrics registry, and the clock reading a cycle
    /// hands the next within a run.
    tel: Telemetry,
    /// Write-ahead log; `None` until [`Self::attach_wal`] — the detached
    /// path is a null check.
    wal: Option<Box<Wal>>,
    /// Checkpoint generation this engine's state descends from: set by
    /// [`Self::resume`], advanced by [`Self::checkpoint_to`], matched
    /// against the log's stamp by [`Self::attach_wal`].
    ckpt_gen: u64,
    /// Per-rule circuit breakers of the quarantine failure modes.
    breakers: Breakers,
    /// What the policy did: caught panics, I/O retries, quarantines,
    /// re-admissions and degradations.
    sup_stats: SupervisorStats,
    /// The rule whose firing produced the last [`Self::step`] error, for
    /// [`Self::run`]'s breaker bookkeeping and structured stop reasons.
    last_failed: Option<Symbol>,
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
        ProductionSystem {
            matcher,
            deltas: Vec::new(),
            rules: Vec::new(),
            rule_ids: FxHashMap::default(),
            wm: WorkingMemory::new(),
            cs: ConflictSet::new(),
            strategy: Strategy::Lex,
            halted: false,
            stats: RunStats::default(),
            output: Vec::new(),
            events: Events {
                flight: Flight::recording(sorete_base::flight::DEFAULT_CAPACITY),
                tracer: Tracer::null(),
            },
            cycle: 0,
            firing_rule: None,
            policy: RunPolicy::default(),
            journal: Journal::new(),
            fault: None,
            tel: Telemetry::default(),
            wal: None,
            ckpt_gen: 0,
            breakers: Breakers::default(),
            sup_stats: SupervisorStats::default(),
            last_failed: None,
            invocation: Vec::new(),
            crash_dir: None,
            last_bundle: None,
            crash_keep: std::env::var("SORETE_CRASH_KEEP")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(crate::bundle::DEFAULT_CRASH_KEEP),
            interrupt: None,
        }
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

    /// Resize the always-on flight recorder: each of the event, span and
    /// cycle rings starts empty and keeps the last `capacity` entries;
    /// `0` turns the recorder off entirely. Before or after
    /// [`Self::enable_spans`] alike.
    pub fn set_flight_recorder(&mut self, capacity: usize) {
        self.events.flight = Flight::recording(capacity);
        self.tel.spans.set_flight_capacity(capacity);
    }

    /// Whether the flight recorder is on.
    pub fn flight_enabled(&self) -> bool {
        self.events.flight.enabled()
    }

    /// A copy of the flight recorder's three rings as they stand (an off
    /// recorder when disabled).
    pub fn flight(&self) -> Flight {
        self.events.flight.clone().with_spans(&self.tel.spans)
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
        self.wal
            .as_ref()
            .and_then(|w| w.path().parent().map(Path::to_path_buf))
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
    /// orderly checkpoint first when the policy has a checkpoint path).
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

    /// Replace the run policy: limits, failure handling, I/O retry and
    /// the orderly-halt checkpoint path (default: no limits, roll back and
    /// stop, no retry).
    pub fn set_run_policy(&mut self, policy: RunPolicy) {
        self.policy = policy;
    }

    /// The active run policy, to change one row in place (the daemon
    /// tightens the wall bound for one request this way).
    pub fn run_policy_mut(&mut self) -> &mut RunPolicy {
        &mut self.policy
    }

    /// Same as `set_run_policy(RunPolicy::supervised())`. It exists only
    /// because the benchmark ladder (`benchmark/src/layers.rs`) still
    /// calls it, and the benchmark crate changes only in benchmark-only
    /// commits: the one that moves that call to [`Self::set_run_policy`]
    /// deletes this.
    #[doc(hidden)]
    pub fn enable_supervision(&mut self, _: SupervisorConfig) {
        self.set_run_policy(RunPolicy::supervised());
    }

    /// Whether the policy supervises the run ([`RunPolicy::is_supervised`]).
    pub fn supervision_enabled(&self) -> bool {
        self.policy.is_supervised()
    }

    /// Supervision activity counters (all zero when nothing supervised).
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.sup_stats
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
        self.events.emit(|| TraceEvent::Quarantine {
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
        if self.breakers.readmit(sym) {
            self.sup_stats.readmissions += 1;
        }
        if was {
            self.events.emit(|| TraceEvent::Readmit { rule: sym });
        }
        Ok(was)
    }

    /// Change the conflict-resolution strategy.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// Install a fault plan: RHS actions are counted across firings and
    /// the plan's target action fails with [`CoreError::FaultInjected`]
    /// before it touches any state.
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Remove and return the installed fault plan (inspect
    /// [`FaultPlan::triggered`] to see whether it fired).
    pub fn take_fault(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Attach a [`sorete_base::TraceSink`] to the engine's event stream
    /// (both the engine's logical events and the matcher's physical ones).
    pub fn add_trace_sink(&mut self, sink: SharedSink) {
        self.events.tracer.add_sink(sink);
        self.matcher.set_tracer(self.events.tracer.clone());
    }

    /// Flush every attached trace sink and the metrics snapshot stream
    /// (forces buffered JSONL out). This is the single "flush everything"
    /// hook every abnormal-exit path funnels through.
    pub fn flush_trace(&self) {
        self.events.tracer.flush();
        self.metrics().with(|r| r.flush());
    }

    /// Enable or disable the matcher's per-node profiler.
    pub fn set_profiling(&mut self, on: bool) {
        self.matcher.set_profiling(on);
    }

    /// Turn on hierarchical span recording (`run` → `cycle` →
    /// `match`/`resolve`/`rhs`/`wal_commit`, plus physical WAL I/O
    /// spans). Idempotent. Closed spans also go to the flight recorder's
    /// span ring, at its capacity now or after a later
    /// [`Self::set_flight_recorder`]. The recorder is handed to any
    /// attached WAL; a WAL attached later inherits it in
    /// [`Self::attach_wal`].
    pub fn enable_spans(&mut self) {
        if self.tel.spans.enabled() {
            return;
        }
        self.tel.spans = Spans::recording();
        self.tel
            .spans
            .set_flight_capacity(self.events.flight.capacity());
        if let Some(w) = &mut self.wal {
            w.set_spans(self.tel.spans.clone());
        }
    }

    /// Whether [`Self::enable_spans`] has been called.
    pub fn spans_enabled(&self) -> bool {
        self.tel.spans.enabled()
    }

    /// A handle on the engine's span recorder (a null handle when
    /// disabled, so callers can hold it unconditionally).
    pub fn spans(&self) -> Spans {
        self.tel.spans.clone()
    }

    /// Drain every finished span recorded so far, oldest first (empty
    /// when spans are disabled).
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.tel.spans.take()
    }

    /// A copy of the finished spans without draining them.
    pub fn span_snapshot(&self) -> Vec<Span> {
        self.tel.spans.snapshot()
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

    /// Turn on the metrics registry. Idempotent. Every unlabeled family
    /// is registered up front. Counters with an existing source of truth
    /// ([`RunStats`], [`sorete_base::MatchStats`]) are *sampled* from it
    /// when the registry is read, never incremented independently — the
    /// registry cannot diverge from `--stats` by construction.
    pub fn enable_metrics(&mut self) {
        if self.tel.metrics.is_none() {
            self.tel.metrics = Some(Box::new(EngineMetrics::new()));
        }
    }

    /// A handle on the engine's registry (one without a registry when
    /// metrics are disabled, so callers can hold it unconditionally). Call
    /// [`Self::record_metrics_snapshot`] first for fresh values.
    pub fn metrics(&self) -> Metrics {
        self.tel
            .metrics
            .as_ref()
            .map_or_else(Metrics::default, |m| m.handle.clone())
    }

    /// Stream a snapshot of every cycle to `writer` as JSONL (enables
    /// metrics if needed). While a stream is attached, each cycle's end
    /// samples the registry.
    pub fn set_metrics_stream(&mut self, writer: SnapshotWriter) {
        self.enable_metrics();
        self.metrics().with(|r| r.stream_to(writer));
    }

    /// Snapshot lines streamed to the JSONL writer so far.
    pub fn metrics_stream_written(&self) -> u64 {
        self.metrics().with(|r| r.stream_written()).unwrap_or(0)
    }

    /// Sample every counter and gauge from its source of truth and record
    /// a snapshot at the current cycle (streamed when a stream is
    /// attached). Every reader of the registry calls this first; a
    /// cycle's end calls it only while a stream is attached. No-op when
    /// metrics are disabled.
    ///
    /// Snapshots are taken at **cycle barriers only**: while a firing is in
    /// flight (RHS running, its match propagation not yet drained) the
    /// call is refused, so `--watch` gauge readers can never observe a
    /// half-applied cycle — e.g. a WM size that includes a firing's asserts
    /// but not yet its conflict-set consequences.
    pub fn record_metrics_snapshot(&self) {
        let Some(m) = self.tel.metrics.as_ref() else {
            return;
        };
        if self.firing_rule.is_some() {
            return;
        }
        m.sample(&Sources {
            cycle: self.cycle,
            run: &self.stats,
            matched: self.matcher.stats(),
            wal: self.wal_stats().unwrap_or_default(),
            sup: self.sup_stats,
            quarantined: self.cs.quarantined_rules().count() as u64,
            conflict_set: self.cs.len() as u64,
            wm: self.wm.len() as u64,
            matcher: &*self.matcher,
        });
    }

    /// A rendered metrics table ([`None`] when metrics are disabled). Does
    /// not sample — call [`Self::record_metrics_snapshot`] first for fresh
    /// values.
    pub fn metrics_table(&self) -> Option<String> {
        self.metrics().with(|r| r.render_table())
    }

    /// The Prometheus text exposition of the registry ([`None`] when
    /// metrics are disabled). Does not sample.
    pub fn metrics_prometheus(&self) -> Option<String> {
        self.metrics().with(|r| r.render_prometheus())
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
        let wme = self.wm.make(class, slots)?;
        let tag = wme.tag;
        let cycle = self.cycle;
        self.events.emit_ref(EventRef::WmeAssert { cycle, wme });
        let phase = self.tel.open_match(true);
        self.matcher.insert_wme(wme);
        self.sync_if_api();
        self.tel.close(phase, span_cat::MATCH, Some(Hist::Match));
        self.record(JournalOp::Assert(tag));
        self.finish_api_op()?;
        Ok(tag)
    }

    /// Retract a WME.
    pub fn retract_wme(&mut self, tag: TimeTag) -> Result<(), CoreError> {
        let wme = self.wm.remove(tag)?;
        let cycle = self.cycle;
        self.events.emit_ref(EventRef::WmeRetract { cycle, tag });
        let phase = self.tel.open_match(false);
        self.matcher.remove_wme(&wme);
        self.record(JournalOp::Removed(wme));
        self.sync_if_api();
        self.tel.close(phase, span_cat::MATCH, Some(Hist::Match));
        self.finish_api_op()
    }

    /// Modify = retract + re-assert with a fresh time tag (OPS5 semantics).
    pub fn modify_wme(
        &mut self,
        tag: TimeTag,
        updates: &[(Symbol, Value)],
    ) -> Result<TimeTag, CoreError> {
        let old = self.wm.remove(tag)?;
        let cycle = self.cycle;
        self.events.emit_ref(EventRef::WmeRetract { cycle, tag });
        let phase = self.tel.open_match(false);
        self.matcher.remove_wme(&old);
        let class = old.class;
        let mut slots: Vec<(Symbol, Value)> = old.slots().to_vec();
        for &(a, v) in updates {
            match slots.iter_mut().find(|(sa, _)| *sa == a) {
                Some((_, sv)) => *sv = v,
                None => slots.push((a, v)),
            }
        }
        self.record(JournalOp::Removed(old));
        self.sync_if_api();
        self.tel.close(phase, span_cat::MATCH, Some(Hist::Match));
        let wme = match self.wm.make(class, slots) {
            Ok(wme) => wme,
            Err(e) => {
                // The retract half already ran. A firing's rollback undoes
                // it; an API-level modify undoes it here rather than
                // leaving a half-applied modify behind.
                if self.firing_rule.is_none() {
                    self.rollback_journal();
                }
                return Err(e.into());
            }
        };
        let new_tag = wme.tag;
        self.events.emit_ref(EventRef::WmeAssert { cycle, wme });
        let phase = self.tel.open_match(true);
        self.matcher.insert_wme(wme);
        self.sync_if_api();
        self.tel.close(phase, span_cat::MATCH, Some(Hist::Match));
        self.record(JournalOp::Assert(new_tag));
        self.finish_api_op()?;
        Ok(new_tag)
    }

    /// Whether a WM change goes into the journal: only when something
    /// reads it — an attached WAL commits it, and a rollback undoes it.
    /// Every API-level op can roll back (the log may refuse it, a modify
    /// may fail halfway); a firing can under every failure mode but
    /// `Abort`.
    fn journaling(&self) -> bool {
        self.wal.is_some() || self.firing_rule.is_none() || self.policy.on_failure.rolls_back()
    }

    fn record(&mut self, op: JournalOp) {
        if self.journaling() {
            self.journal.push(op);
        }
    }

    /// End an API-level WM change (inside a firing the journal commits or
    /// rolls back with the firing): commit its journal as one log record,
    /// or roll the change back when the log refuses it — an unlogged
    /// change would survive in memory but vanish on recovery, so live
    /// state never runs ahead of durable state.
    fn finish_api_op(&mut self) -> Result<(), CoreError> {
        if self.firing_rule.is_some() {
            return Ok(());
        }
        let r = self.wal_commit(None);
        if r.is_err() {
            self.rollback_journal();
        }
        self.journal.clear();
        r
    }

    /// Undo the journal's changes, newest first, through working memory
    /// *and* the matcher, draining the conflict set after each. The tag
    /// allocator rewinds past every tag the transaction asserted, so a
    /// rolled-back transaction leaves no gap in the tag sequence.
    fn rollback_journal(&mut self) {
        while let Some(op) = self.journal.pop() {
            match op {
                JournalOp::Assert(tag) => {
                    let wme = self.wm.remove(tag).expect("rollback of a dead tag");
                    self.matcher.remove_wme(&wme);
                    self.wm.reset_tag_mark(tag.raw() - 1);
                }
                JournalOp::Removed(wme) => {
                    self.matcher.insert_wme(&wme);
                    self.wm.restore(wme);
                }
                JournalOp::Update(..) => unreachable!("the engine journals no in-place updates"),
            }
            self.sync();
        }
    }

    // -----------------------------------------------------------------
    // Durability: write-ahead log + checkpoints.

    /// Attach a write-ahead log. If `path` already holds a log (a crashed
    /// run), its committed prefix is replayed into the engine first —
    /// WME ops re-applied tag-for-tag, cycle markers restoring the cycle
    /// counter, stats, refraction, and the halt flag — and any torn or
    /// corrupt tail is truncated. From then on every committed WM change
    /// is logged, one record per transaction: an API-level change as its
    /// ops, a firing as its ops and its cycle marker.
    ///
    /// Call after [`Self::load_program`] (and after [`Self::resume`] when
    /// recovering a checkpointed run, so the log's records land on top of
    /// the checkpoint state).
    pub fn attach_wal(
        &mut self,
        path: &Path,
        opts: WalOptions,
    ) -> Result<WalReplayReport, CoreError> {
        if self.wal.is_some() {
            return Err(CoreError::Durability("a WAL is already attached".into()));
        }
        let (mut wal, recovered) = Wal::attach(path, opts, self.ckpt_gen)?;
        let mut report = WalReplayReport {
            stale_records: recovered.stale_records,
            ..WalReplayReport::default()
        };
        for tx in recovered.transactions {
            let marker = tx.cycle.as_deref().map(CycleMarker::decode).transpose()?;
            // Refraction is re-armed *before* the cycle's ops, in the order
            // the live run did it: `mark_fired` precedes the RHS, and an
            // RHS that retracts the fired instantiation's own WMEs must
            // clear it again. The state here mirrors the live one at
            // `mark_fired`, so refraction pins to the entry's current
            // version, as `resume` does: the live run's number may lie
            // ahead of a rebuilt S-node's.
            if let Some(m) = &marker {
                if let Some(&id) = self.rule_ids.get(&m.rule) {
                    let key = m.key.into_key(id);
                    let version = self.cs.version_of(&key).ok_or_else(|| {
                        CoreError::Durability(format!(
                            "WAL cycle {} fired `{}`, which has no such \
                             instantiation in the recovered conflict set",
                            m.cycle, m.rule
                        ))
                    })?;
                    self.cs.mark_fired(&key, version);
                }
            }
            report.replayed_ops += tx.ops.len() as u64;
            for op in tx.ops {
                self.replay_op(op)?;
            }
            let Some(marker) = marker else {
                report.replayed_commits += 1;
                continue;
            };
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
        report.truncated_bytes = wal.stats().truncated_bytes;
        if self.tel.spans.enabled() {
            wal.set_spans(self.tel.spans.clone());
        }
        self.wal = Some(Box::new(wal));
        Ok(report)
    }

    /// Is a write-ahead log attached?
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// The attached WAL's counters ([`None`] when detached).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| *w.stats())
    }

    /// Inject a storage fault into the attached WAL (see
    /// [`sorete_reldb::IoFaultPlan`]). Returns `false` when no WAL is
    /// attached.
    pub fn inject_wal_fault(&mut self, plan: IoFaultPlan) -> bool {
        match &mut self.wal {
            Some(w) => {
                w.inject_fault(plan);
                true
            }
            None => false,
        }
    }

    /// Fsync the attached WAL (a no-op when detached). Useful before
    /// handing the file to another process.
    pub fn sync_wal(&mut self) -> Result<(), CoreError> {
        if let Some(w) = &mut self.wal {
            w.sync()?;
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
                self.tel.count_change(true);
                self.matcher.insert_wme(&wme);
                self.sync();
            }
            WmeOp::Retract(tag) => {
                let wme = self.wm.remove(tag)?;
                self.tel.count_change(false);
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

    /// Commit a successful firing to the log: its journal and a cycle
    /// marker carrying the bookkeeping recovery needs, in one record
    /// (group commit applies).
    fn wal_commit_cycle(
        &mut self,
        rule: Symbol,
        cycle: u64,
        key: Option<KeySpec>,
    ) -> Result<(), CoreError> {
        let Some(key) = key.filter(|_| self.wal.is_some()) else {
            return Ok(());
        };
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
            key,
        };
        self.wal_commit(Some(&marker.encode()))
    }

    /// Commit the journal to the attached log (a no-op when detached) as
    /// one record: its ops, with the given cycle marker if any. A clean
    /// append failure leaves nothing of the record behind, so the same
    /// journal is committed again under the policy's retry backoff. A
    /// poisoned log (real I/O failure of unknown extent) is never retried
    /// — only reopen-with-recovery re-establishes its state.
    fn wal_commit(&mut self, marker: Option<&[u8]>) -> Result<(), CoreError> {
        if self.wal.is_none() {
            return Ok(());
        }
        self.with_retry(
            |ps| {
                let wal = ps.wal.as_mut().expect("checked above");
                let wm = &ps.wm;
                wal.commit(&ps.journal, |t| wm.get(t), marker)
            },
            |ps| ps.wal.as_ref().is_some_and(|w| !w.is_poisoned()),
        )
        .map_err(CoreError::from)
    }

    /// Run `op` until it succeeds or fails for good. A failure that
    /// `retryable` allows is retried under the policy's [`RetryPolicy`]
    /// (`crate::RetryPolicy`): each retry emits `IoRetry`, is counted,
    /// and sleeps its backoff delay first.
    fn with_retry<E: fmt::Display>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<(), E>,
        retryable: impl Fn(&Self) -> bool,
    ) -> Result<(), E> {
        let mut attempt: u32 = 0;
        loop {
            let e = match op(self) {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            match self.policy.retry {
                Some(rp) if attempt < rp.max_attempts && retryable(self) => {
                    attempt += 1;
                    let delay = rp.delay_micros(attempt);
                    self.events.emit(|| TraceEvent::IoRetry {
                        attempt,
                        delay_micros: delay,
                        error: e.to_string(),
                    });
                    self.sup_stats.io_retries += 1;
                    std::thread::sleep(Duration::from_micros(delay));
                }
                _ => return Err(e),
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
        if self.wal.is_some() {
            ck.generation = self.ckpt_gen + 1;
        }
        let rendered = ck.render();
        // A checkpoint is written through a temp file + rename, so a
        // failed attempt leaves nothing behind and is always safe to retry.
        self.with_retry(
            |_| sorete_reldb::persist::atomic_write(path, rendered.as_bytes()),
            |_| true,
        )
        .map_err(|e| {
            CoreError::Durability(format!("write checkpoint {}: {}", path.display(), e))
        })?;
        if let Some(w) = &mut self.wal {
            w.rotate(ck.generation)?;
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
        if self.wal.is_some() {
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

    /// Drain after an API-level WM change. Inside a firing the RHS's
    /// changes are one unit of work: [`Self::step`] drains once after the
    /// RHS, so every S-node settles once per firing.
    fn sync_if_api(&mut self) {
        if self.firing_rule.is_none() {
            self.sync();
        }
    }

    fn sync(&mut self) {
        let mut deltas = std::mem::take(&mut self.deltas);
        self.matcher.drain_deltas_into(&mut deltas);
        for d in deltas.drain(..) {
            if self.events.enabled() {
                self.emit_cs_event(&d);
            }
            self.cs.apply(d);
        }
        self.deltas = deltas;
    }

    /// Translate one conflict-set delta into its logical trace event
    /// (resolving the rule id to a name).
    fn emit_cs_event(&mut self, d: &CsDelta) {
        let rule = self.rules[d.key().rule().index()].name;
        self.events.emit_ref(match d {
            CsDelta::Insert(item) => EventRef::CsInsert { rule, item },
            CsDelta::Remove(key) => EventRef::CsRemove { rule, key },
            CsDelta::Retime(info) => EventRef::CsRetime {
                rule,
                key: &info.key,
                version: info.version,
            },
        });
    }

    /// One recognise–act cycle. Returns the fired rule's name, or `None` at
    /// quiescence / after halt.
    pub fn step(&mut self) -> Result<Option<Symbol>, CoreError> {
        if self.halted {
            return Ok(None);
        }
        self.sync();
        // Within a run the last cycle's end reading is this one's start.
        // The cycle and resolve phases open at it, so resolve nests under
        // the cycle; a quiescent step cancels both, recording nothing.
        let start = self.tel.cycle_stamp.or_else(|| self.cycle_clock());
        let cycle_phase = self.tel.open(start);
        let resolve = self.tel.open(start);
        let Some(id) = self.cs.select_id(self.strategy) else {
            self.tel.cancel(resolve);
            self.tel.cancel(cycle_phase);
            return Ok(None);
        };
        let (selected, stale) = self.cs.get(id).expect("the index files live entries");
        // The firing reads the rows, aggregates and version; the key and
        // the recency key stay in the conflict set.
        let (rows, aggregates, version) = if stale {
            // A slim `time` token updated this SOI: fetch its real rows for
            // the firing. The entry stays stale; its own rows are read by
            // no one (`conflict_items` materializes too) until the next
            // firing fetches them again.
            match self.matcher.materialize(&selected.key) {
                Some(f) => (f.rows, f.aggregates, f.version),
                None => {
                    // Unreachable after sync (a dead SOI gets a Remove
                    // delta first), but recover by dropping the entry.
                    debug_assert!(false, "stale entry vanished without a Remove delta");
                    let key = selected.key.clone();
                    self.cs.apply(sorete_base::CsDelta::Remove(key));
                    self.tel.cancel(resolve);
                    self.tel.cancel(cycle_phase);
                    return self.step();
                }
            }
        } else {
            let s = selected;
            (s.rows.clone(), s.aggregates.clone(), s.version)
        };
        let rule = self.rules[selected.key.rule().index()].clone();
        // The log's cycle marker names the instantiation, which the RHS
        // may retract: take its key while the entry is at hand.
        let mut marker_key = self.wal.is_some().then(|| KeySpec::of(&selected.key));
        let resolved = self
            .tel
            .close(resolve, span_cat::RESOLVE, Some(Hist::Resolve));
        self.cycle += 1;
        let cycle = self.cycle;
        self.events.emit_ref(EventRef::CycleBegin { cycle });
        // Open the firing transaction: capture everything rollback needs
        // *before* the first externally visible effect (mark_fired).
        let on_failure = self.policy.on_failure;
        let can_rollback = on_failure.rolls_back();
        let output_mark = self.output.len();
        let halted_before = self.halted;
        debug_assert!(self.journal.is_empty());
        if can_rollback {
            self.cs.begin_journal();
        }
        self.cs.fire(id, version);
        self.stats.firings += 1;
        self.stats.per_rule.entry(rule.name).or_default().firings += 1;
        self.events.emit_ref(EventRef::Fire {
            cycle,
            rule: rule.name,
            rows: &rows,
        });

        // Snapshot the WMEs of the CEs the RHS reads a field of (bindings
        // are fixed at firing); the rows and aggregates move into the
        // context.
        let mut wmes: FxHashMap<TimeTag, Wme> = FxHashMap::default();
        if !rule.rhs_reads.is_empty() {
            for row in &rows {
                for &ce in &rule.rhs_reads {
                    let t = row[ce];
                    if let Some(w) = self.wm.get(t) {
                        wmes.entry(t).or_insert_with(|| w.clone());
                    }
                }
            }
        }
        let mut ctx = RhsCtx::new(rule.clone(), rows, wmes, aggregates);
        self.firing_rule = Some(rule.name);
        // Panic fence: a panic unwinding out of the RHS, the matcher
        // propagation it triggers, or the commit path is caught here and
        // handled by the same recovery path as any other firing error.
        // The fence is unconditional — the policy only decides what the
        // run does with the resulting `CoreError::Panic`.
        let exec = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The RHS starts where resolve ended.
            let rhs_phase = self.tel.open(resolved);
            let r = rhs::execute(self, &mut ctx, &rule.rhs);
            self.tel.close(rhs_phase, span_cat::RHS, Some(Hist::Rhs));
            // A successful RHS still has to reach the log before the firing
            // commits: a WAL failure here rolls the firing back exactly like
            // an RHS error, so in-memory state never runs ahead of durable
            // state.
            r.and_then(|()| {
                self.sync();
                let commit = self.tel.open(self.tel.read(None));
                let r = self.wal_commit_cycle(rule.name, cycle, marker_key.take());
                self.tel.close(commit, span_cat::WAL_COMMIT, None);
                r
            })
        }));
        self.firing_rule = None;
        let result = match exec {
            Ok(r) => r,
            Err(payload) => {
                let message = panic_message(payload);
                if self.policy.is_supervised() {
                    self.sup_stats.panics_caught += 1;
                }
                let rule_name = rule.name;
                let msg = message.clone();
                self.events.emit(|| TraceEvent::PanicCaught {
                    rule: rule_name,
                    message: msg,
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
                self.journal.clear();
                if can_rollback {
                    self.cs.end_journal();
                }
                self.sync();
                // Ending the scoped cycle span also repairs the scope
                // stack if a panic abandoned rhs/wal_commit tickets.
                self.end_cycle(cycle, rule.name, true, cycle_phase);
                Ok(Some(rule.name))
            }
            Err(e) => {
                self.last_failed = Some(rule.name);
                if can_rollback {
                    // The instantiation may have left during the RHS; the
                    // journal keeps its key until the rollback re-derives it.
                    let skip = on_failure.skips().then(|| self.cs.key_of(id).cloned());
                    self.rollback_firing(rule.name, &e, output_mark, halted_before);
                    if let Some(key) = skip.flatten() {
                        // The failed instantiation stays refracted so the
                        // run can make progress past it.
                        self.cs.mark_fired(&key, version);
                    }
                } else {
                    // The journal never reaches the log (under Abort the
                    // in-memory effects remain, but recovery rewinds to the
                    // last committed cycle).
                    self.journal.clear();
                }
                self.end_cycle(cycle, rule.name, false, cycle_phase);
                Err(e)
            }
        }
    }

    /// Close a cycle, on success *and* failure, so the black box always
    /// holds the cycles leading up to a crash and rolled-back cycles
    /// still appear in the time series: emit `CycleEnd`, then read the
    /// clock once to close the cycle span, feed the whole-cycle histogram
    /// and stamp this cycle's flight summary row, and (within a run) hand
    /// that reading to the next cycle as its start. With a metrics stream
    /// attached, the cycle's row is sampled and streamed.
    fn end_cycle(&mut self, cycle: u64, rule: Symbol, ok: bool, phase: Phase) {
        self.events.emit_ref(EventRef::CycleEnd { cycle, rule, ok });
        let end = phase.start.map(|_| telemetry::now());
        let nanos = end.map_or(0, |end| {
            self.tel
                .close_at(phase, end, span_cat::CYCLE, Some(Hist::Fire), || {
                    vec![("cycle", cycle)]
                })
        });
        if self.tel.cycle_stamp.is_some() {
            self.tel.cycle_stamp = end;
        }
        if self.tel.streaming() {
            self.record_metrics_snapshot();
        }
        self.events.flight.record_cycle(&CycleRecord {
            cycle,
            rule,
            ok,
            firings: self.stats.firings,
            wm_len: self.wm.len() as u64,
            cs_len: self.cs.len() as u64,
            nanos,
        });
    }

    /// A cycle boundary's reading, taken when a span, a histogram or the
    /// flight recorder takes it.
    fn cycle_clock(&self) -> Option<Instant> {
        let on = self.tel.spans.enabled() || self.tel.metrics.is_some();
        (on || self.events.flight.enabled()).then(telemetry::now)
    }

    /// Undo a failed firing: roll its journal back through working memory
    /// *and* the matcher, then restore refraction, output and the halt
    /// flag. Afterwards the engine is observationally identical to its
    /// pre-firing state.
    fn rollback_firing(
        &mut self,
        rule: Symbol,
        error: &CoreError,
        output_mark: usize,
        halted_before: bool,
    ) {
        self.sync();
        let journal = self.cs.take_journal();
        self.rollback_journal();
        self.cs.restore_fired(journal);
        self.output.truncate(output_mark);
        self.halted = halted_before;
        self.stats.rolled_back += 1;
        self.events.emit(|| TraceEvent::Rollback {
            rule,
            error: error.to_string(),
        });
    }

    /// Run to quiescence, halt or the firing limit, or until the
    /// [`RunPolicy`] stops it: a hard bound, the interrupt flag, or a
    /// failed firing its failure mode does not continue past.
    pub fn run(&mut self, limit: Option<u64>) -> RunOutcome {
        // The run starts at its first cycle's start and ends at its last
        // cycle's end.
        self.tel.cycle_stamp = self.cycle_clock();
        let run_phase = self.tel.open(self.tel.cycle_stamp);
        let outcome = self.run_inner(limit);
        if let Some(end) = self.tel.cycle_stamp.take() {
            let fired = outcome.fired;
            self.tel.close_at(run_phase, end, span_cat::RUN, None, || {
                vec![("fired", fired)]
            });
        }
        if outcome.reason.is_abnormal() {
            // Black-box drain: flush live telemetry, then persist the
            // flight rings as a crash bundle for offline post-mortem.
            self.flush_trace();
            if self.events.flight.enabled() {
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
        if !self.events.flight.enabled() {
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
        let wall = self.policy.limits.wall;
        let start = self
            .tel
            .cycle_stamp
            .or_else(|| (wall.hard.is_some() || wall.soft.is_some()).then(telemetry::now));
        let mut run = RunState {
            last_wm_len: self.wm.len(),
            ..RunState::default()
        };
        let reason = loop {
            if let Some(reason) = self.check_policy(&mut run, start, limit) {
                break reason;
            }
            match self.step() {
                Ok(Some(rule)) => run.count(rule, self.wm.len()),
                Ok(None) if self.halted => break StopReason::Halt,
                // Not true quiescence: fireable work remains, every bit of
                // it behind quarantined rules.
                Ok(None) if self.cs.quarantined_fireable() > 0 => {
                    break StopReason::Quarantined {
                        rules: self.quarantined_rules(),
                    }
                }
                Ok(None) => break StopReason::Quiescence,
                Err(e) => {
                    if let Some(reason) = self.after_failure(e) {
                        break reason;
                    }
                }
            }
        };
        RunOutcome {
            fired: run.fired,
            reason,
        }
    }

    /// The one policy check, at the top of every cycle: the stagnation
    /// bound over the firings so far, the firing limit, the interrupt,
    /// then each limit row's hard bound and — once per run — its soft
    /// bound. `Some` ends the run. A row reads its measure only when it
    /// has a bound to compare: no clock without a wall bound, no memory
    /// report without a bytes bound.
    fn check_policy(
        &mut self,
        run: &mut RunState,
        start: Option<Instant>,
        limit: Option<u64>,
    ) -> Option<StopReason> {
        let Limits {
            wall,
            bytes,
            wm,
            stagnant,
        } = self.policy.limits;
        if let (Some(max), Some(rule)) = (stagnant, run.last_rule) {
            if run.stagnant > 0 && run.stagnant >= max {
                let firings = run.stagnant;
                return Some(self.halt(GuardViolation::Stagnation { rule, firings }));
            }
        }
        if limit.is_some_and(|l| run.fired >= l) {
            return Some(StopReason::Limit);
        }
        if self.interrupt_requested() {
            // Operator-requested stop: an orderly checkpoint, then a
            // normal end.
            self.orderly_checkpoint();
            return Some(StopReason::Interrupted);
        }
        let soft = !run.soft_tripped;
        let elapsed = start
            .filter(|_| wall.hard.is_some() || soft && wall.soft.is_some())
            .map(|start| telemetry::now() - start);
        let live = (bytes.hard.is_some() || soft && bytes.soft.is_some())
            .then(|| self.matcher.memory_report().total_bytes());
        let actual = self.wm.len();
        let hard = match (wall.hard, elapsed, wm, bytes.hard, live) {
            (Some(limit), Some(e), ..) if e > limit => Some(GuardViolation::WallClock { limit }),
            (_, _, Some(limit), ..) if actual > limit => {
                Some(GuardViolation::WmSize { limit, actual })
            }
            (.., Some(limit), Some(actual)) if actual > limit => {
                Some(GuardViolation::MemoryBytes { limit, actual })
            }
            _ => None,
        };
        if let Some(v) = hard {
            return Some(self.halt(v));
        }
        let (budget, detail) = match (soft, bytes.soft, live, wall.soft, elapsed) {
            (true, Some(limit), Some(actual), ..) if actual > limit => (
                "memory_bytes",
                format!("{} live bytes > soft budget {}", actual, limit),
            ),
            (true, .., Some(limit), Some(e)) if e > limit => (
                "wall_clock",
                format!("{:?} elapsed > soft budget {:?}", e, limit),
            ),
            _ => return None,
        };
        run.soft_tripped = true;
        self.sup_stats.soft_degrades += 1;
        self.events.emit(|| TraceEvent::Degrade {
            severity: "soft",
            budget,
            detail,
        });
        self.orderly_checkpoint();
        None
    }

    /// End the run at a tripped hard bound, in order: a bytes budget is
    /// also a counted hard `Degrade`; every bound emits `GuardTrip` and
    /// cuts the orderly checkpoint so `--resume` can continue the run.
    fn halt(&mut self, v: GuardViolation) -> StopReason {
        if let GuardViolation::MemoryBytes { limit, actual } = v {
            self.sup_stats.hard_degrades += 1;
            self.events.emit(|| TraceEvent::Degrade {
                severity: "hard",
                budget: "memory_bytes",
                detail: format!(
                    "{} live bytes > hard budget {}; halting with checkpoint",
                    actual, limit
                ),
            });
        }
        self.events.emit(|| TraceEvent::GuardTrip {
            reason: v.to_string(),
        });
        self.orderly_checkpoint();
        StopReason::ResourceExhausted(v)
    }

    /// What a failed firing means for the run under the policy's failure
    /// mode; `step` has already rolled it back (and, when the mode skips,
    /// refracted it). `None` continues. Under `Quarantine` a rule-scoped
    /// failure (RHS error, injected fault, caught panic) feeds the rule's
    /// breaker and the run goes on; a durability failure is engine-scoped
    /// and continues only when the mode skips.
    fn after_failure(&mut self, e: CoreError) -> Option<StopReason> {
        let on_failure = self.policy.on_failure;
        if let Some(breaker) = on_failure.breaker() {
            if !matches!(e, CoreError::Durability(_)) {
                let rule = self.last_failed?;
                if let Some(failures) = self.breakers.record_failure(breaker, rule, self.cycle) {
                    self.sup_stats.quarantines += 1;
                    if let Some(&id) = self.rule_ids.get(&rule) {
                        self.cs.set_rule_quarantined(id, true);
                    }
                    self.events
                        .emit(|| TraceEvent::Quarantine { rule, failures });
                }
                return None;
            }
        }
        if on_failure.skips() {
            return None;
        }
        Some(match e {
            CoreError::Panic(message) => StopReason::Panicked {
                rule: self.last_failed.unwrap_or_else(|| Symbol::new("?")),
                message,
            },
            other => StopReason::Error(other),
        })
    }

    /// Cut a checkpoint at the policy's path (if any), best-effort: an
    /// orderly halt must never turn into an abort because the checkpoint
    /// disk is also unhappy.
    fn orderly_checkpoint(&mut self) {
        let Some(path) = self.policy.checkpoint.clone() else {
            return;
        };
        if let Err(e) = self.checkpoint_to(&path) {
            self.events.emit(|| TraceEvent::Degrade {
                severity: "hard",
                budget: "checkpoint",
                detail: format!("degradation checkpoint failed: {}", e),
            });
        }
    }

    /// Current conflict-set size (fired entries included).
    pub fn conflict_set_len(&self) -> usize {
        self.cs.len()
    }

    /// Conflict-set entries (unordered), for inspection. Stale SOI entries
    /// are materialized so their rows reflect the γ-memory's current state
    /// (slim `time` tokens only update position metadata); every other
    /// entry's item is already exact.
    pub fn conflict_items(&self) -> Vec<ConflictItem> {
        self.cs
            .items()
            .map(|(item, stale)| {
                let fresh = stale.then(|| self.matcher.materialize(&item.key));
                fresh.flatten().unwrap_or_else(|| item.clone())
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
        self.wal.as_ref().map(|w| w.path().to_path_buf())
    }

    /// Generation of the attached WAL, if any.
    pub fn wal_generation(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.generation())
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

    /// Count one RHS action — or fail it first, when it is the installed
    /// fault plan's target.
    fn note_action(&mut self) -> Result<(), CoreError> {
        if let Some(plan) = self.fault.as_mut() {
            plan.check()?;
        }
        self.stats.actions += 1;
        if let Some(r) = self.firing_rule {
            self.stats.per_rule.entry(r).or_default().actions += 1;
        }
        Ok(())
    }
}

impl RhsHost for ProductionSystem {
    fn make(&mut self, class: Symbol, slots: Vec<(Symbol, Value)>) -> Result<TimeTag, CoreError> {
        self.note_action()?;
        self.stats.makes += 1;
        self.assert_wme(class, slots)
    }

    fn remove(&mut self, tag: TimeTag) -> Result<bool, CoreError> {
        self.note_action()?;
        if self.wm.get(tag).is_none() {
            // Already gone (overlapping set ops) — tolerated, but counted.
            self.stats.skipped_actions += 1;
            self.events.emit(|| TraceEvent::SkipAction {
                action: "remove",
                tag,
            });
            return Ok(false);
        }
        self.stats.removes += 1;
        self.retract_wme(tag)?;
        Ok(true)
    }

    fn modify(
        &mut self,
        tag: TimeTag,
        updates: Vec<(Symbol, Value)>,
    ) -> Result<Option<TimeTag>, CoreError> {
        self.note_action()?;
        if self.wm.get(tag).is_none() {
            self.stats.skipped_actions += 1;
            self.events.emit(|| TraceEvent::SkipAction {
                action: "modify",
                tag,
            });
            return Ok(None);
        }
        self.stats.modifies += 1;
        self.modify_wme(tag, &updates).map(Some)
    }

    fn write_line(&mut self, line: String) -> Result<(), CoreError> {
        self.note_action()?;
        self.stats.writes += 1;
        self.output.push(line);
        Ok(())
    }

    fn halt(&mut self) -> Result<(), CoreError> {
        self.note_action()?;
        self.halted = true;
        Ok(())
    }

    fn note_bind(&mut self) -> Result<(), CoreError> {
        self.note_action()?;
        Ok(())
    }
}
