//! Structured tracing: a typed event stream every matcher backend emits.
//!
//! The paper's evaluation replays token flow through the network by hand;
//! this module makes that replay mechanical. Engines and matchers emit
//! [`TraceEvent`]s through a [`Tracer`] handle into pluggable
//! [`TraceSink`]s:
//!
//! - [`NullSink`] — the zero-cost default (a [`Tracer`] with no sinks never
//!   constructs an event: [`Tracer::emit`] takes a closure and returns
//!   before calling it when disabled, so the hot path pays one branch on an
//!   empty `Vec`);
//! - [`CollectSink`] — buffers events in memory, for tests and `explain`;
//! - [`JsonlSink`] — streams events to a file as JSON Lines through a
//!   buffered writer.
//!
//! Events split into two strata. *Logical* events (cycle boundaries, WME
//! assert/retract, conflict-set deltas, firings, rollbacks, guard trips)
//! describe the recognise–act cycle and must be identical across match
//! algorithms; *physical* events (alpha/beta activations, join probes,
//! S-node activity) describe one algorithm's work and legitimately differ.
//! [`TraceEvent::is_logical`] performs the split.
//!
//! The module also hosts the per-node profiling types ([`NodeProfile`],
//! [`NetProfile`]) and the flat self-time accumulator ([`SelfTimer`]) the
//! Rete and TREAT matchers use to attribute match cost to network nodes.

use crate::symbol::Symbol;
use crate::wme::TimeTag;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A structured observation of engine or matcher activity.
///
/// Rows are raw time-tag values (`u64`), one inner vector per underlying
/// tuple match, one tag per positive CE — the same shape as
/// [`ConflictItem::rows`](crate::inst::ConflictItem). Timing never appears
/// in an event; cost lives in [`NetProfile`] so event streams stay
/// comparable across runs and backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A recognise–act cycle started (an instantiation was selected).
    CycleBegin {
        /// 1-based cycle number.
        cycle: u64,
    },
    /// The cycle finished; `ok` is false when the firing rolled back.
    CycleEnd {
        /// 1-based cycle number.
        cycle: u64,
        /// The rule that fired.
        rule: Symbol,
        /// False when the firing was rolled back.
        ok: bool,
    },
    /// A WME entered working memory.
    WmeAssert {
        /// Cycle during which the assert happened (0 = before any firing).
        cycle: u64,
        /// The new WME's time tag.
        tag: TimeTag,
        /// Rendered WME, e.g. `(player ^name Sue ^team B)`.
        wme: String,
    },
    /// A WME left working memory.
    WmeRetract {
        /// Cycle during which the retract happened.
        cycle: u64,
        /// The removed WME's time tag.
        tag: TimeTag,
    },
    /// A WME entered (or left) an alpha memory. Physical.
    AlphaActivation {
        /// Alpha memory index within the matcher.
        node: u32,
        /// The WME's time tag.
        tag: TimeTag,
        /// True on insert, false on removal.
        insert: bool,
    },
    /// A beta-level node processed an activation. Physical.
    BetaActivation {
        /// Node index within the matcher.
        node: u32,
        /// Node kind: `"join"`, `"negative"`, `"memory"`, `"production"`,
        /// or a backend-specific label.
        kind: &'static str,
    },
    /// A hash-index probe replaced a memory scan at a join. Physical.
    JoinProbe {
        /// Node index within the matcher.
        node: u32,
        /// Candidates the probe returned.
        hits: u64,
        /// Candidates a full scan would have visited.
        scanned: u64,
    },
    /// An S-node ran the Figure-3 algorithm for one token. Physical.
    SnodeActivation {
        /// The set-oriented rule the S-node serves.
        rule: Symbol,
        /// True for a `+` token, false for a `-` token.
        insert: bool,
    },
    /// An S-node incrementally updated aggregates. Physical.
    AggregateUpdate {
        /// The set-oriented rule the S-node serves.
        rule: Symbol,
        /// Number of aggregate registers touched.
        count: u64,
    },
    /// `+` token: an instantiation entered the conflict set.
    CsInsert {
        /// The rule instantiated.
        rule: Symbol,
        /// Canonical key text (see [`key_repr`](crate::inst::InstKey)).
        key: String,
        /// True for a set-oriented instantiation.
        soi: bool,
        /// Matched rows (raw time-tag values).
        rows: Vec<Vec<u64>>,
        /// Rendered aggregate values, in declaration order.
        aggregates: Vec<String>,
    },
    /// `-` token: an instantiation left the conflict set.
    CsRemove {
        /// The rule instantiated.
        rule: Symbol,
        /// Canonical key text.
        key: String,
        /// True for a set-oriented instantiation.
        soi: bool,
    },
    /// `time` token: an SOI changed contents and/or position.
    CsRetime {
        /// The rule instantiated.
        rule: Symbol,
        /// Canonical key text.
        key: String,
        /// New content version.
        version: u64,
    },
    /// An instantiation fired.
    Fire {
        /// 1-based cycle number.
        cycle: u64,
        /// The rule that fired.
        rule: Symbol,
        /// The rows the RHS iterated over.
        rows: Vec<Vec<u64>>,
    },
    /// An RHS action was skipped (e.g. `remove` of a dead time tag).
    SkipAction {
        /// The action kind, e.g. `"remove"` or `"modify"`.
        action: &'static str,
        /// The stale tag the action referenced.
        tag: TimeTag,
    },
    /// A firing was rolled back.
    Rollback {
        /// The rule whose firing rolled back.
        rule: Symbol,
        /// The error that triggered the rollback.
        error: String,
    },
    /// A run guard stopped the run.
    GuardTrip {
        /// Human-readable description of the violated guard.
        reason: String,
    },
    /// A panic unwound out of a firing and was caught by the supervisor.
    PanicCaught {
        /// The rule whose firing panicked.
        rule: Symbol,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// A durable-I/O operation failed transiently and will be retried.
    IoRetry {
        /// 1-based retry attempt about to run.
        attempt: u32,
        /// Backoff delay before the attempt, in microseconds.
        delay_micros: u64,
        /// The transient error being retried.
        error: String,
    },
    /// A rule's circuit breaker tripped: the rule is quarantined.
    Quarantine {
        /// The quarantined rule.
        rule: Symbol,
        /// Failures inside the breaker window that tripped it.
        failures: u32,
    },
    /// A quarantined rule was re-admitted to the conflict set.
    Readmit {
        /// The re-admitted rule.
        rule: Symbol,
    },
    /// Resource pressure triggered a degradation step (soft limit →
    /// automatic checkpoint; hard limit → orderly halt-with-checkpoint).
    Degrade {
        /// `"soft"` or `"hard"`.
        severity: &'static str,
        /// Which budget tripped, e.g. `"memory-bytes"` or `"wall-clock"`.
        budget: &'static str,
        /// Human-readable detail (limit vs. observed).
        detail: String,
    },
}

impl TraceEvent {
    /// The event's schema name (the `"ev"` field of its JSON form).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::CycleBegin { .. } => "cycle_begin",
            TraceEvent::CycleEnd { .. } => "cycle_end",
            TraceEvent::WmeAssert { .. } => "wme_assert",
            TraceEvent::WmeRetract { .. } => "wme_retract",
            TraceEvent::AlphaActivation { .. } => "alpha",
            TraceEvent::BetaActivation { .. } => "beta",
            TraceEvent::JoinProbe { .. } => "probe",
            TraceEvent::SnodeActivation { .. } => "snode",
            TraceEvent::AggregateUpdate { .. } => "aggregate",
            TraceEvent::CsInsert { .. } => "cs_insert",
            TraceEvent::CsRemove { .. } => "cs_remove",
            TraceEvent::CsRetime { .. } => "cs_retime",
            TraceEvent::Fire { .. } => "fire",
            TraceEvent::SkipAction { .. } => "skip",
            TraceEvent::Rollback { .. } => "rollback",
            TraceEvent::GuardTrip { .. } => "guard",
            TraceEvent::PanicCaught { .. } => "panic_caught",
            TraceEvent::IoRetry { .. } => "io_retry",
            TraceEvent::Quarantine { .. } => "quarantine",
            TraceEvent::Readmit { .. } => "readmit",
            TraceEvent::Degrade { .. } => "degrade",
        }
    }

    /// True for events every matcher backend must emit identically
    /// (recognise–act cycle structure, WM changes, conflict-set deltas,
    /// firings). Physical events — per-node activity that legitimately
    /// differs between algorithms — return false.
    pub fn is_logical(&self) -> bool {
        !matches!(
            self,
            TraceEvent::AlphaActivation { .. }
                | TraceEvent::BetaActivation { .. }
                | TraceEvent::JoinProbe { .. }
                | TraceEvent::SnodeActivation { .. }
                | TraceEvent::AggregateUpdate { .. }
                // I/O retries and degradation depend on storage timing and
                // per-backend memory footprints, so they may legitimately
                // differ across matchers running the same program.
                | TraceEvent::IoRetry { .. }
                | TraceEvent::Degrade { .. }
        )
    }

    /// Render the event as one JSON object (no trailing newline). This is
    /// the schema `--trace-json` emits, one object per line.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"ev\":\"");
        s.push_str(self.name());
        s.push('"');
        match self {
            TraceEvent::CycleBegin { cycle } => {
                push_u64(&mut s, "cycle", *cycle);
            }
            TraceEvent::CycleEnd { cycle, rule, ok } => {
                push_u64(&mut s, "cycle", *cycle);
                push_str(&mut s, "rule", rule.as_str());
                push_bool(&mut s, "ok", *ok);
            }
            TraceEvent::WmeAssert { cycle, tag, wme } => {
                push_u64(&mut s, "cycle", *cycle);
                push_u64(&mut s, "tag", tag.raw());
                push_str(&mut s, "wme", wme);
            }
            TraceEvent::WmeRetract { cycle, tag } => {
                push_u64(&mut s, "cycle", *cycle);
                push_u64(&mut s, "tag", tag.raw());
            }
            TraceEvent::AlphaActivation { node, tag, insert } => {
                push_u64(&mut s, "node", u64::from(*node));
                push_u64(&mut s, "tag", tag.raw());
                push_bool(&mut s, "insert", *insert);
            }
            TraceEvent::BetaActivation { node, kind } => {
                push_u64(&mut s, "node", u64::from(*node));
                push_str(&mut s, "kind", kind);
            }
            TraceEvent::JoinProbe {
                node,
                hits,
                scanned,
            } => {
                push_u64(&mut s, "node", u64::from(*node));
                push_u64(&mut s, "hits", *hits);
                push_u64(&mut s, "scanned", *scanned);
            }
            TraceEvent::SnodeActivation { rule, insert } => {
                push_str(&mut s, "rule", rule.as_str());
                push_bool(&mut s, "insert", *insert);
            }
            TraceEvent::AggregateUpdate { rule, count } => {
                push_str(&mut s, "rule", rule.as_str());
                push_u64(&mut s, "count", *count);
            }
            TraceEvent::CsInsert {
                rule,
                key,
                soi,
                rows,
                aggregates,
            } => {
                push_str(&mut s, "rule", rule.as_str());
                push_str(&mut s, "key", key);
                push_bool(&mut s, "soi", *soi);
                push_rows(&mut s, rows);
                s.push_str(",\"aggregates\":[");
                for (i, a) in aggregates.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_json_string(&mut s, a);
                }
                s.push(']');
            }
            TraceEvent::CsRemove { rule, key, soi } => {
                push_str(&mut s, "rule", rule.as_str());
                push_str(&mut s, "key", key);
                push_bool(&mut s, "soi", *soi);
            }
            TraceEvent::CsRetime { rule, key, version } => {
                push_str(&mut s, "rule", rule.as_str());
                push_str(&mut s, "key", key);
                push_u64(&mut s, "version", *version);
            }
            TraceEvent::Fire { cycle, rule, rows } => {
                push_u64(&mut s, "cycle", *cycle);
                push_str(&mut s, "rule", rule.as_str());
                push_rows(&mut s, rows);
            }
            TraceEvent::SkipAction { action, tag } => {
                push_str(&mut s, "action", action);
                push_u64(&mut s, "tag", tag.raw());
            }
            TraceEvent::Rollback { rule, error } => {
                push_str(&mut s, "rule", rule.as_str());
                push_str(&mut s, "error", error);
            }
            TraceEvent::GuardTrip { reason } => {
                push_str(&mut s, "reason", reason);
            }
            TraceEvent::PanicCaught { rule, message } => {
                push_str(&mut s, "rule", rule.as_str());
                push_str(&mut s, "message", message);
            }
            TraceEvent::IoRetry {
                attempt,
                delay_micros,
                error,
            } => {
                push_u64(&mut s, "attempt", u64::from(*attempt));
                push_u64(&mut s, "delay_micros", *delay_micros);
                push_str(&mut s, "error", error);
            }
            TraceEvent::Quarantine { rule, failures } => {
                push_str(&mut s, "rule", rule.as_str());
                push_u64(&mut s, "failures", u64::from(*failures));
            }
            TraceEvent::Readmit { rule } => {
                push_str(&mut s, "rule", rule.as_str());
            }
            TraceEvent::Degrade {
                severity,
                budget,
                detail,
            } => {
                push_str(&mut s, "severity", severity);
                push_str(&mut s, "budget", budget);
                push_str(&mut s, "detail", detail);
            }
        }
        s.push('}');
        s
    }
}

fn push_u64(s: &mut String, key: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(itoa(v).as_str());
}

fn push_bool(s: &mut String, key: &str, v: bool) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(if v { "true" } else { "false" });
}

fn push_str(s: &mut String, key: &str, v: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    push_json_string(s, v);
}

fn push_rows(s: &mut String, rows: &[Vec<u64>]) {
    s.push_str(",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, t) in row.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(itoa(*t).as_str());
        }
        s.push(']');
    }
    s.push(']');
}

fn itoa(v: u64) -> String {
    v.to_string()
}

/// Append `v` as a JSON string literal (quoted, escaped).
fn push_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A destination for [`TraceEvent`]s.
///
/// Sinks receive events by reference (one event may fan out to several
/// sinks) and may buffer; [`TraceSink::flush`] forces buffered output out.
pub trait TraceSink {
    /// Receive one event.
    fn emit(&mut self, event: &TraceEvent);
    /// Flush any buffered output. Default: no-op.
    fn flush(&mut self) {}
}

/// A sink that discards everything. Installing it is equivalent to — but
/// strictly slower than — installing no sink at all: prefer
/// [`Tracer::null`], which skips event *construction* entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn emit(&mut self, _event: &TraceEvent) {}
}

/// A sink that buffers events in memory (tests, `explain`, REPL).
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Vec<TraceEvent>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The events collected so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drain and return all collected events.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for CollectSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// A sink that streams events to a file as JSON Lines, through a buffered
/// writer. Flushed on drop; call [`TraceSink::flush`] to force earlier.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    written: u64,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Number of events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl TraceSink for JsonlSink {
    fn emit(&mut self, event: &TraceEvent) {
        // I/O errors are deliberately swallowed: tracing must never abort
        // a run. The final flush reports the count actually written.
        if writeln!(self.writer, "{}", event.to_json()).is_ok() {
            self.written += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A shared, interiorly-mutable sink handle. `Send` so an engine holding a
/// tracer can move between threads (the daemon's connection threads).
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Lock a sink, recovering from poisoning (a panic mid-emit must not also
/// silence every later event).
fn lock_sink(sink: &SharedSink) -> std::sync::MutexGuard<'_, dyn TraceSink + Send + 'static> {
    sink.lock().unwrap_or_else(|e| e.into_inner())
}

/// The cheap, cloneable handle emitters hold. A `Tracer` fans each event
/// out to zero or more [`TraceSink`]s; with zero sinks (the default),
/// [`Tracer::emit`] returns before even constructing the event, which is
/// what makes the disabled path effectively free.
///
/// A tracer may additionally carry a [`Flight`](crate::flight::Flight)
/// recorder (the engine's always-on black box): logical events emitted
/// through [`Tracer::emit`] are recorded into its bounded ring *in
/// addition* to the sink fan-out, while the high-frequency physical
/// events emitted through [`Tracer::emit_physical`] bypass it entirely
/// — with no sinks and only the flight recorder on, per-activation hot
/// paths still pay nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    sinks: Vec<SharedSink>,
    flight: crate::flight::Flight,
}

impl Tracer {
    /// The disabled tracer (no sinks, no flight recorder).
    pub fn null() -> Tracer {
        Tracer::default()
    }

    /// A tracer over an explicit sink list.
    pub fn from_sinks(sinks: Vec<SharedSink>) -> Tracer {
        Tracer {
            sinks,
            flight: crate::flight::Flight::off(),
        }
    }

    /// Attach a flight recorder, consuming `self` (builder style).
    pub fn with_flight(mut self, flight: crate::flight::Flight) -> Tracer {
        self.flight = flight;
        self
    }

    /// The attached flight recorder (a disabled handle by default).
    pub fn flight(&self) -> &crate::flight::Flight {
        &self.flight
    }

    /// Wrap a single sink, returning the tracer and a handle for reading
    /// the sink back (useful with [`CollectSink`]).
    pub fn single<S: TraceSink + Send + 'static>(sink: S) -> (Tracer, Arc<Mutex<S>>) {
        let shared = Arc::new(Mutex::new(sink));
        let tracer = Tracer {
            sinks: vec![shared.clone()],
            flight: crate::flight::Flight::off(),
        };
        (tracer, shared)
    }

    /// True when any consumer of *logical* events is attached (a sink or
    /// the flight recorder). Logical-event call sites that do work
    /// *besides* constructing an event (e.g. formatting a WME) should
    /// gate on this.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !self.sinks.is_empty() || self.flight.enabled()
    }

    /// True when at least one sink is attached. *Physical*-event hot
    /// paths gate on this: the flight recorder alone must not trigger
    /// per-activation work.
    #[inline(always)]
    pub fn sinks_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Emit the event produced by `make` to every sink and the flight
    /// recorder. When fully disabled the closure is never called, so
    /// argument computation costs nothing.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if self.sinks.is_empty() && !self.flight.enabled() {
            return;
        }
        let event = make();
        self.flight.record_event(&event);
        for sink in &self.sinks {
            lock_sink(sink).emit(&event);
        }
    }

    /// Emit a high-frequency physical event (alpha/beta activations, join
    /// probes, S-node traffic) to the sinks only — never to the flight
    /// recorder. With no sinks this returns before constructing the
    /// event, exactly like the pre-flight-recorder `emit`, so the
    /// always-on black box adds zero cost to match-internal hot paths.
    #[inline]
    pub fn emit_physical(&self, make: impl FnOnce() -> TraceEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let event = make();
        for sink in &self.sinks {
            lock_sink(sink).emit(&event);
        }
    }

    /// Flush every attached sink.
    pub fn flush(&self) {
        for sink in &self.sinks {
            lock_sink(sink).flush();
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tracer({} sinks{})",
            self.sinks.len(),
            if self.flight.enabled() {
                ", flight"
            } else {
                ""
            }
        )
    }
}

/// Cost and activity profile of one network node.
#[derive(Clone, Debug)]
pub struct NodeProfile {
    /// Display id, e.g. `"α0"` or `"n3"`.
    pub id: String,
    /// Node kind, e.g. `"alpha"`, `"join"`, `"negative"`, `"memory"`,
    /// `"production"`.
    pub kind: &'static str,
    /// Human-readable label (class name, rule name, index attrs, …).
    pub label: String,
    /// Activations processed since profiling was enabled.
    pub activations: u64,
    /// Tokens (or WMEs) currently held in the node's memory.
    pub held: usize,
    /// Cumulative *self* time spent in the node, in nanoseconds.
    pub nanos: u64,
    /// Rules whose match cost this node contributes to.
    pub rules: Vec<String>,
}

/// A whole-network profile, as returned by `Matcher::profile`.
#[derive(Clone, Debug, Default)]
pub struct NetProfile {
    /// Which matcher produced the profile.
    pub algorithm: String,
    /// One entry per live network node.
    pub nodes: Vec<NodeProfile>,
}

impl NetProfile {
    /// Total self time across all nodes, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nodes.iter().map(|n| n.nanos).sum()
    }

    /// Nodes sorted hottest-first (by self time, then activations, then
    /// id — fully deterministic).
    pub fn sorted(&self) -> Vec<&NodeProfile> {
        let mut v: Vec<&NodeProfile> = self.nodes.iter().collect();
        v.sort_by(|a, b| {
            b.nanos
                .cmp(&a.nanos)
                .then(b.activations.cmp(&a.activations))
                .then(a.id.cmp(&b.id))
        });
        v
    }
}

/// Flat self-time profiler: every node activation opens a frame; time is
/// charged to whichever frame is on top, so recursive activation cascades
/// attribute each nanosecond to exactly one node. Slots are dense indexes
/// the caller assigns (e.g. beta node index, or alpha index offset past
/// the beta range).
#[derive(Debug, Default)]
pub struct SelfTimer {
    stack: Vec<u32>,
    last: Option<Instant>,
    nanos: Vec<u64>,
    acts: Vec<u64>,
}

impl SelfTimer {
    /// An empty profiler.
    pub fn new() -> SelfTimer {
        SelfTimer::default()
    }

    /// Grow the slot arrays to cover `slots` entries.
    pub fn ensure(&mut self, slots: usize) {
        if self.nanos.len() < slots {
            self.nanos.resize(slots, 0);
            self.acts.resize(slots, 0);
        }
    }

    /// Open a frame for `slot`, charging elapsed time to the previous top.
    pub fn enter(&mut self, slot: u32) {
        let now = Instant::now();
        if let (Some(last), Some(&top)) = (self.last, self.stack.last()) {
            self.nanos[top as usize] += now.duration_since(last).as_nanos() as u64;
        }
        self.ensure(slot as usize + 1);
        self.acts[slot as usize] += 1;
        self.stack.push(slot);
        self.last = Some(now);
    }

    /// Close the top frame, charging it the elapsed time.
    pub fn exit(&mut self) {
        let now = Instant::now();
        if let (Some(last), Some(top)) = (self.last, self.stack.pop()) {
            self.nanos[top as usize] += now.duration_since(last).as_nanos() as u64;
        }
        self.last = if self.stack.is_empty() {
            None
        } else {
            Some(now)
        };
    }

    /// Activation count recorded for `slot`.
    pub fn activations(&self, slot: usize) -> u64 {
        self.acts.get(slot).copied().unwrap_or(0)
    }

    /// Cumulative self time for `slot`, in nanoseconds.
    pub fn nanos(&self, slot: usize) -> u64 {
        self.nanos.get(slot).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{InstKey, RuleId};

    #[test]
    fn null_tracer_never_builds_events() {
        let t = Tracer::null();
        assert!(!t.enabled());
        let mut called = false;
        t.emit(|| {
            called = true;
            TraceEvent::CycleBegin { cycle: 1 }
        });
        assert!(!called, "disabled tracer must not construct events");
    }

    #[test]
    fn collect_sink_gathers_in_order() {
        let (t, sink) = Tracer::single(CollectSink::new());
        assert!(t.enabled());
        t.emit(|| TraceEvent::CycleBegin { cycle: 1 });
        t.emit(|| TraceEvent::WmeRetract {
            cycle: 1,
            tag: TimeTag::new(4),
        });
        let events = sink.lock().unwrap().take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name(), "cycle_begin");
        assert_eq!(events[1].name(), "wme_retract");
        assert!(sink.lock().unwrap().is_empty());
    }

    #[test]
    fn flight_only_tracer_records_logical_and_skips_physical() {
        let t = Tracer::null().with_flight(crate::flight::Flight::recording(8));
        assert!(t.enabled(), "flight recorder counts as a logical consumer");
        assert!(!t.sinks_enabled(), "no sinks attached");
        t.emit(|| TraceEvent::CycleBegin { cycle: 1 });
        let mut called = false;
        t.emit_physical(|| {
            called = true;
            TraceEvent::BetaActivation {
                node: 1,
                kind: "join",
            }
        });
        assert!(!called, "physical emit with no sinks must stay free");
        assert_eq!(
            t.flight().events(),
            vec![TraceEvent::CycleBegin { cycle: 1 }]
        );
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(Mutex::new(CollectSink::new()));
        let b = Arc::new(Mutex::new(CollectSink::new()));
        let t = Tracer::from_sinks(vec![a.clone(), b.clone()]);
        t.emit(|| TraceEvent::GuardTrip { reason: "x".into() });
        assert_eq!(a.lock().unwrap().len(), 1);
        assert_eq!(b.lock().unwrap().len(), 1);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let ev = TraceEvent::Rollback {
            rule: Symbol::new("r\"1\""),
            error: "line1\nline2\ttab".into(),
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"rollback\",\"rule\":\"r\\\"1\\\"\",\"error\":\"line1\\nline2\\ttab\"}"
        );
        let ev = TraceEvent::Fire {
            cycle: 2,
            rule: Symbol::new("fill"),
            rows: vec![vec![5, 3], vec![2, 1]],
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"fire\",\"cycle\":2,\"rule\":\"fill\",\"rows\":[[5,3],[2,1]]}"
        );
    }

    #[test]
    fn logical_physical_split() {
        assert!(TraceEvent::CycleBegin { cycle: 1 }.is_logical());
        assert!(TraceEvent::CsRemove {
            rule: Symbol::new("r"),
            key: "t1".into(),
            soi: false,
        }
        .is_logical());
        assert!(!TraceEvent::AlphaActivation {
            node: 0,
            tag: TimeTag::new(1),
            insert: true,
        }
        .is_logical());
        assert!(!TraceEvent::JoinProbe {
            node: 2,
            hits: 1,
            scanned: 5,
        }
        .is_logical());
    }

    #[test]
    fn supervision_events_shape_and_split() {
        let ev = TraceEvent::PanicCaught {
            rule: Symbol::new("bad"),
            message: "boom".into(),
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"panic_caught\",\"rule\":\"bad\",\"message\":\"boom\"}"
        );
        assert!(ev.is_logical());
        let ev = TraceEvent::Quarantine {
            rule: Symbol::new("bad"),
            failures: 3,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"quarantine\",\"rule\":\"bad\",\"failures\":3}"
        );
        assert!(ev.is_logical());
        assert!(TraceEvent::Readmit {
            rule: Symbol::new("bad")
        }
        .is_logical());
        let ev = TraceEvent::IoRetry {
            attempt: 2,
            delay_micros: 1500,
            error: "io".into(),
        };
        assert!(ev.to_json().contains("\"delay_micros\":1500"));
        assert!(!ev.is_logical(), "retries are physical");
        let ev = TraceEvent::Degrade {
            severity: "soft",
            budget: "memory-bytes",
            detail: "limit 10, live 20".into(),
        };
        assert!(ev.to_json().contains("\"severity\":\"soft\""));
        assert!(!ev.is_logical(), "degradation is physical");
    }

    #[test]
    fn key_repr_is_canonical() {
        let tuple = InstKey::Tuple {
            rule: RuleId::new(0),
            tags: vec![TimeTag::new(1), TimeTag::new(3)].into(),
        };
        assert_eq!(tuple.repr(), "t1 t3");
        let soi = InstKey::Soi {
            rule: RuleId::new(1),
            parts: vec![
                crate::inst::KeyPart::Tag(TimeTag::new(2)),
                crate::inst::KeyPart::Val(crate::value::Value::sym("A")),
            ]
            .into(),
        };
        assert_eq!(soi.repr(), "t2 A");
    }

    #[test]
    fn self_timer_charges_nested_frames_once() {
        let mut p = SelfTimer::new();
        p.enter(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.enter(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit();
        p.exit();
        assert_eq!(p.activations(0), 1);
        assert_eq!(p.activations(1), 1);
        assert!(p.nanos(0) > 0, "outer frame got self time");
        assert!(p.nanos(1) > 0, "inner frame got self time");
        // Self-time accounting: neither frame is charged the other's time,
        // so both are at least ~1ms but the outer is not ~4ms.
        assert!(p.nanos(1) >= 1_000_000);
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let path = std::env::temp_dir().join(format!("sorete-trace-{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.emit(&TraceEvent::CycleBegin { cycle: 1 });
            sink.emit(&TraceEvent::CycleEnd {
                cycle: 1,
                rule: Symbol::new("r"),
                ok: true,
            });
            assert_eq!(sink.written(), 2);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\":\"cycle_begin\""));
        assert!(lines[1].contains("\"ok\":true"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_sorts_hottest_first() {
        let prof = NetProfile {
            algorithm: "rete".into(),
            nodes: vec![
                NodeProfile {
                    id: "n1".into(),
                    kind: "join",
                    label: "join".into(),
                    activations: 5,
                    held: 0,
                    nanos: 10,
                    rules: vec!["a".into()],
                },
                NodeProfile {
                    id: "n2".into(),
                    kind: "memory",
                    label: "memory".into(),
                    activations: 9,
                    held: 3,
                    nanos: 90,
                    rules: vec![],
                },
            ],
        };
        let sorted = prof.sorted();
        assert_eq!(sorted[0].id, "n2");
        assert_eq!(prof.total_nanos(), 100);
    }
}
