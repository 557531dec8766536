//! Hierarchical execution spans: a timeline layer over the flat
//! [`TraceEvent`](crate::trace::TraceEvent) stream.
//!
//! Trace events say *what* happened; spans say *where the wall-clock
//! went*. A [`Span`] is an interval — begin/end nanoseconds relative to
//! the recorder's epoch — with a parent id (nesting), a category, and
//! numeric key=value attributes.
//! The engine emits `run → cycle → match/resolve/rhs/wal_commit` scopes
//! and the WAL emits `wal_append`/`wal_flush`/`wal_fsync`, all on the
//! engine thread. No emitter uses `parallel_cycle` or `firing_build`;
//! they stay so bundles that contain them still decode.
//!
//! The disabled path follows the [`Tracer`](crate::trace::Tracer)
//! pattern: a [`Spans`] handle with no store makes [`Spans::begin`]
//! return `None` after one branch — no clock read, no allocation — and
//! [`Spans::end`] with `None` returns immediately, so instrumented hot
//! paths cost one predictable branch when spans are off. The engine's
//! phase scopes take the caller's clock reading
//! ([`Spans::begin_scope`], [`Spans::end_at`]), so one reading at a phase
//! boundary closes one span, opens the next and feeds a histogram.
//!
//! Like trace events, spans split into two strata. *Logical* categories
//! (`run`, `cycle`, `resolve`, `match`, `rhs`, `wal_commit`,
//! `parallel_cycle`) describe the recognise–act structure and their
//! nesting tree is identical across match algorithms; *physical*
//! categories (`firing_build`, `wal_append`, `wal_flush`, `wal_fsync`)
//! describe scheduling and I/O, which legitimately vary.
//! [`logical_tree`] renders the timing-free view; [`render_perfetto`]
//! renders everything as Chrome trace-event JSON on one track.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span category constants (the closed set of names emitters use).
pub mod category {
    /// One whole `run()` call.
    pub const RUN: &str = "run";
    /// One recognise–act cycle (resolve + rhs + wal_commit).
    pub const CYCLE: &str = "cycle";
    /// Conflict-resolution: select + materialize the winning instantiation.
    pub const RESOLVE: &str = "resolve";
    /// One working-memory change propagated through the match network.
    pub const MATCH: &str = "match";
    /// Right-hand-side execution of the selected instantiation.
    pub const RHS: &str = "rhs";
    /// WAL commit of the cycle's op batch (append + commit point).
    pub const WAL_COMMIT: &str = "wal_commit";
    /// One DIPS concurrent-firing cycle.
    pub const PARALLEL_CYCLE: &str = "parallel_cycle";
    /// One DIPS firing built as an optimistic transaction. Physical.
    pub const FIRING_BUILD: &str = "firing_build";
    /// One WAL record framed and buffered. Physical.
    pub const WAL_APPEND: &str = "wal_append";
    /// One group-commit window handed to the OS as a single write. Physical.
    pub const WAL_FLUSH: &str = "wal_flush";
    /// One fsync (including the flush it implies). Physical.
    pub const WAL_FSYNC: &str = "wal_fsync";
}

/// A closed (ended) span. Times are nanoseconds since the recorder's
/// epoch, so spans from different threads share one clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the recorder (1-based; 0 means "no parent").
    pub id: u64,
    /// Enclosing span's id, or 0 at the root.
    pub parent: u64,
    /// Category name (see [`category`]).
    pub category: &'static str,
    /// Begin, nanoseconds since the recorder epoch.
    pub begin_nanos: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_nanos: u64,
    /// Numeric attributes, e.g. `("unit", 3)` or `("cycle", 17)`.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.begin_nanos)
    }

    /// True for categories whose nesting tree must be identical across
    /// match algorithms (the recognise–act structure);
    /// false for scheduling/I/O detail that legitimately varies.
    pub fn is_logical(&self) -> bool {
        !matches!(
            self.category,
            category::FIRING_BUILD
                | category::WAL_APPEND
                | category::WAL_FLUSH
                | category::WAL_FSYNC
        )
    }
}

/// Ticket for a span opened by [`Spans::begin`] / [`Spans::begin_scope`].
/// `Copy` so it can cross `catch_unwind` fences freely.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    begin: u64,
    scoped: bool,
}

/// Soft cap on recorded spans: beyond it new spans are counted but
/// dropped, so a pathological run cannot exhaust memory through its own
/// telemetry.
const MAX_SPANS: usize = 1 << 20;

struct SpanStore {
    epoch: Instant,
    next_id: AtomicU64,
    /// Innermost open *scoped* span id (0 = root). Scopes are pushed and
    /// popped on the engine thread only; [`Spans::begin`] reads it to
    /// parent a physical span under the current phase.
    current: AtomicU64,
    closed: Mutex<Closed>,
    dropped: AtomicU64,
}

impl SpanStore {
    /// Nanoseconds from the epoch to the reading `at` (0 before it).
    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// What span closes write, under the store's one lock.
#[derive(Default)]
struct Closed {
    spans: Vec<Span>,
    /// The flight recorder's span ring: every closed span is also written
    /// here (even past [`MAX_SPANS`], which only caps `spans`). Disabled
    /// (capacity 0) until [`Spans::set_flight_capacity`].
    flight: crate::flight::Ring,
}

/// The cheap, cloneable recorder handle emitters hold. Disabled (the
/// default) it is a single `Option` branch; enabled it stamps a
/// monotonic clock and appends to a shared buffer on `end`.
#[derive(Clone, Default)]
pub struct Spans {
    inner: Option<Arc<SpanStore>>,
}

impl Spans {
    /// The disabled recorder.
    pub fn null() -> Spans {
        Spans::default()
    }

    /// A recording handle with a fresh epoch and no flight span ring.
    pub fn recording() -> Spans {
        Spans {
            inner: Some(Arc::new(SpanStore {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                current: AtomicU64::new(0),
                closed: Mutex::new(Closed::default()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Keep a fresh flight span ring of the last `capacity` closed spans
    /// (0: none), replacing the current one. A no-op when disabled.
    pub fn set_flight_capacity(&self, capacity: usize) {
        if let Some(store) = self.inner.as_ref() {
            store.closed.lock().unwrap().flight = crate::flight::Ring::new(capacity);
        }
    }

    /// A copy of the flight span ring (`None` when disabled).
    pub(crate) fn flight_ring(&self) -> Option<crate::flight::Ring> {
        Some(self.inner.as_ref()?.closed.lock().unwrap().flight.clone())
    }

    /// True when spans are being recorded.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span under the current scope. Returns `None` (for free)
    /// when disabled.
    #[inline]
    pub fn begin(&self) -> Option<OpenSpan> {
        let store = self.inner.as_ref()?;
        Some(OpenSpan {
            id: store.next_id.fetch_add(1, Ordering::Relaxed),
            parent: store.current.load(Ordering::Relaxed),
            begin: store.since_epoch(Instant::now()),
            scoped: false,
        })
    }

    /// Open a span at the caller's clock reading `at` and make it the
    /// current scope, so spans opened until the matching [`Spans::end_at`]
    /// nest under it. Scopes must be opened and closed on the driving
    /// thread (the engine's), stack-fashion.
    #[inline]
    pub fn begin_scope(&self, at: Instant) -> Option<OpenSpan> {
        let store = self.inner.as_ref()?;
        let id = store.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = store.current.swap(id, Ordering::Relaxed);
        Some(OpenSpan {
            id,
            parent,
            begin: store.since_epoch(at),
            scoped: true,
        })
    }

    /// Close `open` now and record it (see [`Spans::end_at`]).
    #[inline]
    pub fn end(
        &self,
        open: Option<OpenSpan>,
        category: &'static str,
        attrs: impl FnOnce() -> Vec<(&'static str, u64)>,
    ) {
        if open.is_some() {
            self.end_at(open, Instant::now(), category, attrs);
        }
    }

    /// Close `open` at the caller's clock reading `at` and record it. The
    /// attrs closure runs only when a span is actually open (mirrors
    /// `Tracer::emit`). Scoped spans restore their parent as the current
    /// scope — even if inner spans were abandoned by a panic, ending the
    /// enclosing scope resets the nesting to a sane state.
    #[inline]
    pub fn end_at(
        &self,
        open: Option<OpenSpan>,
        at: Instant,
        category: &'static str,
        attrs: impl FnOnce() -> Vec<(&'static str, u64)>,
    ) {
        let (Some(store), Some(open)) = (self.inner.as_ref(), open) else {
            return;
        };
        let end = store.since_epoch(at);
        if open.scoped {
            store.current.store(open.parent, Ordering::Relaxed);
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            category,
            begin_nanos: open.begin,
            end_nanos: end,
            attrs: attrs(),
        };
        let mut closed = store.closed.lock().unwrap();
        closed.flight.record_span(&span);
        if closed.spans.len() >= MAX_SPANS {
            store.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        closed.spans.push(span);
    }

    /// Abandon `open` without recording it (e.g. a cycle scope opened
    /// before discovering the conflict set is empty). Scoped tickets
    /// restore their parent.
    #[inline]
    pub fn cancel(&self, open: Option<OpenSpan>) {
        let (Some(store), Some(open)) = (self.inner.as_ref(), open) else {
            return;
        };
        if open.scoped {
            store.current.store(open.parent, Ordering::Relaxed);
        }
    }

    /// Drain all recorded spans (sorted by begin time, then id, so the
    /// output is stable regardless of the order they closed in).
    pub fn take(&self) -> Vec<Span> {
        let Some(store) = self.inner.as_ref() else {
            return Vec::new();
        };
        let mut spans = std::mem::take(&mut store.closed.lock().unwrap().spans);
        spans.sort_by(|a, b| a.begin_nanos.cmp(&b.begin_nanos).then(a.id.cmp(&b.id)));
        spans
    }

    /// Copy of the recorded spans without draining.
    pub fn snapshot(&self) -> Vec<Span> {
        let Some(store) = self.inner.as_ref() else {
            return Vec::new();
        };
        let mut spans = store.closed.lock().unwrap().spans.clone();
        spans.sort_by(|a, b| a.begin_nanos.cmp(&b.begin_nanos).then(a.id.cmp(&b.id)));
        spans
    }

    /// Spans dropped after hitting the recording cap.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Spans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Spans({})",
            if self.enabled() { "recording" } else { "off" }
        )
    }
}

/// Aggregate statistics for one span category.
#[derive(Clone, Debug)]
pub struct SpanCatStats {
    /// Category name.
    pub category: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Median duration, nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile duration, nanoseconds.
    pub p95_nanos: u64,
    /// Longest duration, nanoseconds.
    pub max_nanos: u64,
    /// Total duration, nanoseconds.
    pub total_nanos: u64,
}

/// Per-category p50/p95/max/total over `spans`, sorted by descending
/// total time (fully deterministic: category name breaks ties).
pub fn span_stats(spans: &[Span]) -> Vec<SpanCatStats> {
    let mut by_cat: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for s in spans {
        match by_cat.iter_mut().find(|(c, _)| *c == s.category) {
            Some((_, v)) => v.push(s.nanos()),
            None => by_cat.push((s.category, vec![s.nanos()])),
        }
    }
    let mut out: Vec<SpanCatStats> = by_cat
        .into_iter()
        .map(|(category, mut durs)| {
            durs.sort_unstable();
            let pct = |p: usize| durs[(durs.len() - 1) * p / 100];
            SpanCatStats {
                category,
                count: durs.len() as u64,
                p50_nanos: pct(50),
                p95_nanos: pct(95),
                max_nanos: *durs.last().expect("non-empty"),
                total_nanos: durs.iter().sum(),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_nanos
            .cmp(&a.total_nanos)
            .then(a.category.cmp(b.category))
    });
    out
}

/// Render [`span_stats`] as an aligned text table (micros).
pub fn render_span_table(spans: &[Span]) -> String {
    let stats = span_stats(spans);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>12}\n",
        "category", "count", "p50us", "p95us", "maxus", "totalus"
    ));
    for s in &stats {
        out.push_str(&format!(
            "{:<16} {:>8} {:>10} {:>10} {:>10} {:>12}\n",
            s.category,
            s.count,
            s.p50_nanos / 1_000,
            s.p95_nanos / 1_000,
            s.max_nanos / 1_000,
            s.total_nanos / 1_000,
        ));
    }
    out
}

/// Render the *logical* span tree — category nesting with counts,
/// independent of timing — as deterministic text.
/// Each line is an indented `category xCOUNT`, children sorted by name.
/// Physical spans (and anything hanging under them) are excluded.
pub fn logical_tree(spans: &[Span]) -> String {
    use std::collections::BTreeMap;
    // Path (chain of logical ancestor categories + own) → count.
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut counts: BTreeMap<Vec<&'static str>, u64> = BTreeMap::new();
    'next: for s in spans {
        if !s.is_logical() {
            continue;
        }
        let mut path = vec![s.category];
        let mut p = s.parent;
        while p != 0 {
            let Some(anc) = by_id.get(&p) else {
                // Parent never closed (panic mid-span): root the orphan.
                break;
            };
            if !anc.is_logical() {
                continue 'next;
            }
            path.push(anc.category);
            p = anc.parent;
        }
        path.reverse();
        *counts.entry(path).or_insert(0) += 1;
    }
    let mut out = String::new();
    for (path, count) in &counts {
        for _ in 1..path.len() {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} x{}\n",
            path.last().expect("non-empty path"),
            count
        ));
    }
    out
}

/// Render spans as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load): one complete (`"ph":"X"`) event per span,
/// `pid` 1, `tid` 0 (the engine thread's one track), timestamps in
/// microseconds since the recorder epoch, span/parent ids and attrs
/// under `args`. A thread-name metadata event labels the track `lane 0`.
pub fn render_perfetto(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    if !spans.is_empty() {
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"lane 0\"}}",
        );
    }
    for s in spans {
        out.push(',');
        let ts_us = s.begin_nanos / 1_000;
        let ts_frac = s.begin_nanos % 1_000;
        let dur = s.nanos();
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"id\":{},\"parent\":{}",
            ts_us,
            ts_frac,
            dur / 1_000,
            dur % 1_000,
            s.category,
            if s.is_logical() {
                "logical"
            } else {
                "physical"
            },
            s.id,
            s.parent,
        ));
        for (k, v) in &s.attrs {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_costs_one_branch_and_records_nothing() {
        let s = Spans::null();
        assert!(!s.enabled());
        let open = s.begin();
        assert!(open.is_none());
        let mut called = false;
        s.end(open, category::CYCLE, || {
            called = true;
            vec![]
        });
        assert!(!called, "disabled recorder must not build attrs");
        assert!(s.take().is_empty());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let s = Spans::recording();
        let run = s.begin_scope(Instant::now());
        let cycle = s.begin_scope(Instant::now());
        let leaf = s.begin();
        s.end(leaf, category::RESOLVE, Vec::new);
        s.end(cycle, category::CYCLE, || vec![("cycle", 1)]);
        let leaf2 = s.begin();
        s.end(leaf2, category::RESOLVE, Vec::new);
        s.end(run, category::RUN, Vec::new);
        let spans = s.take();
        assert_eq!(spans.len(), 4);
        let by_cat = |c: &str| spans.iter().filter(|x| x.category == c).count();
        assert_eq!(by_cat(category::RESOLVE), 2);
        let run_id = spans
            .iter()
            .find(|x| x.category == category::RUN)
            .unwrap()
            .id;
        let cycle_span = spans
            .iter()
            .find(|x| x.category == category::CYCLE)
            .unwrap();
        assert_eq!(cycle_span.parent, run_id);
        let leaves: Vec<&Span> = spans
            .iter()
            .filter(|x| x.category == category::RESOLVE)
            .collect();
        assert_eq!(leaves[0].parent, cycle_span.id, "first leaf under cycle");
        assert_eq!(leaves[1].parent, run_id, "second leaf back under run");
        assert_eq!(cycle_span.attrs, vec![("cycle", 1)]);
    }

    #[test]
    fn flight_tap_receives_closed_spans() {
        let s = Spans::recording();
        s.set_flight_capacity(8);
        let run = s.begin_scope(Instant::now());
        let unit = s.begin();
        s.end(unit, category::FIRING_BUILD, || vec![("unit", 3)]);
        s.end(run, category::RUN, || vec![("fired", 2)]);
        let ring = crate::flight::Flight::off().with_spans(&s).spans();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].category, category::FIRING_BUILD);
        assert_eq!(ring[0].attrs, vec![("unit", 3)]);
        assert_eq!(ring[1].category, category::RUN);
        assert_eq!(ring[1].attrs, vec![("fired", 2)]);
    }

    #[test]
    fn cancel_restores_scope_without_recording() {
        let s = Spans::recording();
        let run = s.begin_scope(Instant::now());
        let cyc = s.begin_scope(Instant::now());
        s.cancel(cyc);
        let leaf = s.begin();
        s.end(leaf, category::MATCH, Vec::new);
        s.end(run, category::RUN, Vec::new);
        let spans = s.take();
        assert_eq!(spans.len(), 2);
        let leaf = spans
            .iter()
            .find(|x| x.category == category::MATCH)
            .unwrap();
        let run = spans.iter().find(|x| x.category == category::RUN).unwrap();
        assert_eq!(leaf.parent, run.id, "cancelled scope left no trace");
    }

    #[test]
    fn stats_percentiles_and_order() {
        let mk = |cat: &'static str, id: u64, dur: u64| Span {
            id,
            parent: 0,
            category: cat,
            begin_nanos: 0,
            end_nanos: dur,
            attrs: vec![],
        };
        let spans: Vec<Span> = (1..=100)
            .map(|i| mk(category::MATCH, i, i * 1_000))
            .chain(std::iter::once(mk(category::RHS, 101, 1_000_000)))
            .collect();
        let stats = span_stats(&spans);
        assert_eq!(stats[0].category, category::MATCH, "largest total first");
        let m = &stats[0];
        assert_eq!(m.count, 100);
        assert_eq!(m.p50_nanos, 50_000);
        assert_eq!(m.p95_nanos, 95_000);
        assert_eq!(m.max_nanos, 100_000);
        let table = render_span_table(&spans);
        assert!(table.contains("match"), "{table}");
        assert!(table.contains("rhs"), "{table}");
    }

    #[test]
    fn logical_tree_ignores_physical_spans_and_counts_nesting() {
        let s = Spans::recording();
        let run = s.begin_scope(Instant::now());
        for c in 0..3 {
            let cyc = s.begin_scope(Instant::now());
            let m = s.begin_scope(Instant::now());
            // Physical build spans under the match phase.
            for unit in 0..2 {
                let b = s.begin();
                s.end(b, category::FIRING_BUILD, || vec![("unit", unit)]);
            }
            s.end(m, category::MATCH, Vec::new);
            s.end(cyc, category::CYCLE, || vec![("cycle", c)]);
        }
        s.end(run, category::RUN, Vec::new);
        let tree = logical_tree(&s.take());
        assert_eq!(tree, "run x1\n  cycle x3\n    match x3\n");
    }

    #[test]
    fn perfetto_output_shape() {
        let s = Spans::recording();
        let run = s.begin_scope(Instant::now());
        let unit = s.begin();
        s.end(unit, category::FIRING_BUILD, || vec![("unit", 5)]);
        s.end(run, category::RUN, Vec::new);
        let json = render_perfetto(&s.take());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"name\":\"lane 0\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"firing_build\""));
        assert!(json.contains("\"cat\":\"physical\""));
        assert!(json.contains("\"unit\":5"));
        assert!(json.contains("\"tid\":0"));
    }

    #[test]
    fn take_drains_and_sorts_by_begin() {
        let s = Spans::recording();
        let a = s.begin();
        let b = s.begin();
        s.end(b, category::RESOLVE, Vec::new);
        s.end(a, category::MATCH, Vec::new);
        let spans = s.take();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].begin_nanos <= spans[1].begin_nanos);
        assert!(s.take().is_empty(), "take drains");
    }
}
