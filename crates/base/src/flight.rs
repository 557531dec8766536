//! Flight recorder: an always-on, fixed-capacity black box.
//!
//! Live telemetry (tracer sinks, spans, metrics streams) only helps when
//! someone turned it on *before* the failure. The [`Flight`] handle keeps
//! the engine's own account of the recent past regardless: three ring
//! buffers of compact binary frames — the last N logical
//! [`TraceEvent`]s, the last N closed [`Span`]s, and the last N per-cycle
//! [`CycleRecord`]s — overwritten oldest-first, so memory use is bounded
//! no matter how long the run. On an abnormal exit the engine drains the
//! rings into a crash-dump bundle (see `sorete_core::bundle`); an
//! offline inspector (`sorete debug`) reconstructs the timeline from the
//! same encoding via [`decode_events`] / [`decode_spans`] /
//! [`decode_cycles`].
//!
//! Cost discipline mirrors [`Tracer`](crate::trace::Tracer): a disabled
//! handle is one `Option` branch; an enabled handle encodes each record
//! into a reusable scratch buffer (LEB128 varints, length-prefixed
//! strings) and appends it to a `VecDeque<u8>` whose capacity reaches a
//! steady state — no per-record allocation once warm. High-frequency
//! *physical* match events (alpha/beta activations, join probes, S-node
//! traffic) are never recorded: they are per-algorithm detail with the
//! worst volume/diagnosis ratio. Rare physical events that matter for
//! post-mortems (I/O retries, degradation steps) are kept.

use crate::span::{category as span_cat, Span};
use crate::symbol::Symbol;
use crate::trace::TraceEvent;
use crate::wme::TimeTag;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default event capacity of each ring when the recorder is on and the
/// user did not pick a size (`--flight-recorder N`).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Byte budget per frame used to derive the ring's total byte cap; a
/// frame larger than the whole byte cap is dropped rather than recorded.
const BYTES_PER_FRAME: usize = 256;

/// One per-cycle sample the engine records at every cycle end — the
/// flight recorder's own metrics row, independent of whether the full
/// metrics registry is enabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleRecord {
    /// 1-based recognise–act cycle number.
    pub cycle: u64,
    /// The rule that fired this cycle.
    pub rule: Symbol,
    /// False when the firing rolled back.
    pub ok: bool,
    /// Cumulative firings at the end of the cycle.
    pub firings: u64,
    /// Working-memory size at the end of the cycle.
    pub wm_len: u64,
    /// Conflict-set size at the end of the cycle.
    pub cs_len: u64,
    /// Wall-clock duration of the cycle, nanoseconds.
    pub nanos: u64,
}

impl CycleRecord {
    /// Render as one JSON object (the `cycles.jsonl` schema of a crash
    /// bundle).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycle\":{},\"rule\":\"{}\",\"ok\":{},\"firings\":{},\
             \"wm_len\":{},\"cs_len\":{},\"nanos\":{}}}",
            self.cycle,
            self.rule.as_str().escape_default(),
            self.ok,
            self.firings,
            self.wm_len,
            self.cs_len,
            self.nanos
        )
    }
}

// ---------------------------------------------------------------------
// Binary codec: LEB128 varints + length-prefixed strings. Frames are
// self-describing (tag byte first), so a drained ring decodes without
// any side table.
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_rows(out: &mut Vec<u8>, rows: &[Vec<u64>]) {
    put_u64(out, rows.len() as u64);
    for row in rows {
        put_u64(out, row.len() as u64);
        for t in row {
            put_u64(out, *t);
        }
    }
}

/// Byte cursor for decoding. All errors are strings: the decoder serves
/// `fsck`/`debug`, which report rather than panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("truncated frame at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err("varint overflows u64".into());
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u64()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("string of {} bytes overruns frame", len))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|e| format!("invalid utf-8 in frame: {}", e))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn rows(&mut self) -> Result<Vec<Vec<u64>>, String> {
        let n = self.u64()? as usize;
        if n > self.buf.len() {
            return Err(format!("row count {} overruns frame", n));
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let m = self.u64()? as usize;
            if m > self.buf.len() {
                return Err(format!("row width {} overruns frame", m));
            }
            let mut row = Vec::with_capacity(m);
            for _ in 0..m {
                row.push(self.u64()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// Event tags (frame byte 0). Only the variants the recorder keeps have
// tags; the five high-frequency match-internal physical variants are
// filtered out at record time.
const EV_CYCLE_BEGIN: u8 = 0;
const EV_CYCLE_END: u8 = 1;
const EV_WME_ASSERT: u8 = 2;
const EV_WME_RETRACT: u8 = 3;
const EV_CS_INSERT: u8 = 4;
const EV_CS_REMOVE: u8 = 5;
const EV_CS_RETIME: u8 = 6;
const EV_FIRE: u8 = 7;
const EV_SKIP: u8 = 8;
const EV_ROLLBACK: u8 = 9;
const EV_GUARD: u8 = 10;
const EV_PANIC: u8 = 11;
const EV_IO_RETRY: u8 = 12;
const EV_QUARANTINE: u8 = 13;
const EV_READMIT: u8 = 14;
const EV_DEGRADE: u8 = 15;

/// True for events the flight recorder keeps: everything except the
/// high-frequency match-internal physical variants.
pub fn is_recorded(event: &TraceEvent) -> bool {
    !matches!(
        event,
        TraceEvent::AlphaActivation { .. }
            | TraceEvent::BetaActivation { .. }
            | TraceEvent::JoinProbe { .. }
            | TraceEvent::SnodeActivation { .. }
            | TraceEvent::AggregateUpdate { .. }
    )
}

fn encode_event(out: &mut Vec<u8>, event: &TraceEvent) -> bool {
    match event {
        TraceEvent::CycleBegin { cycle } => {
            out.push(EV_CYCLE_BEGIN);
            put_u64(out, *cycle);
        }
        TraceEvent::CycleEnd { cycle, rule, ok } => {
            out.push(EV_CYCLE_END);
            put_u64(out, *cycle);
            put_str(out, rule.as_str());
            put_bool(out, *ok);
        }
        TraceEvent::WmeAssert { cycle, tag, wme } => {
            out.push(EV_WME_ASSERT);
            put_u64(out, *cycle);
            put_u64(out, tag.raw());
            put_str(out, wme);
        }
        TraceEvent::WmeRetract { cycle, tag } => {
            out.push(EV_WME_RETRACT);
            put_u64(out, *cycle);
            put_u64(out, tag.raw());
        }
        TraceEvent::CsInsert {
            rule,
            key,
            soi,
            rows,
            aggregates,
        } => {
            out.push(EV_CS_INSERT);
            put_str(out, rule.as_str());
            put_str(out, key);
            put_bool(out, *soi);
            put_rows(out, rows);
            put_u64(out, aggregates.len() as u64);
            for a in aggregates {
                put_str(out, a);
            }
        }
        TraceEvent::CsRemove { rule, key, soi } => {
            out.push(EV_CS_REMOVE);
            put_str(out, rule.as_str());
            put_str(out, key);
            put_bool(out, *soi);
        }
        TraceEvent::CsRetime { rule, key, version } => {
            out.push(EV_CS_RETIME);
            put_str(out, rule.as_str());
            put_str(out, key);
            put_u64(out, *version);
        }
        TraceEvent::Fire { cycle, rule, rows } => {
            out.push(EV_FIRE);
            put_u64(out, *cycle);
            put_str(out, rule.as_str());
            put_rows(out, rows);
        }
        TraceEvent::SkipAction { action, tag } => {
            out.push(EV_SKIP);
            put_str(out, action);
            put_u64(out, tag.raw());
        }
        TraceEvent::Rollback { rule, error } => {
            out.push(EV_ROLLBACK);
            put_str(out, rule.as_str());
            put_str(out, error);
        }
        TraceEvent::GuardTrip { reason } => {
            out.push(EV_GUARD);
            put_str(out, reason);
        }
        TraceEvent::PanicCaught { rule, message } => {
            out.push(EV_PANIC);
            put_str(out, rule.as_str());
            put_str(out, message);
        }
        TraceEvent::IoRetry {
            attempt,
            delay_micros,
            error,
        } => {
            out.push(EV_IO_RETRY);
            put_u64(out, u64::from(*attempt));
            put_u64(out, *delay_micros);
            put_str(out, error);
        }
        TraceEvent::Quarantine { rule, failures } => {
            out.push(EV_QUARANTINE);
            put_str(out, rule.as_str());
            put_u64(out, u64::from(*failures));
        }
        TraceEvent::Readmit { rule } => {
            out.push(EV_READMIT);
            put_str(out, rule.as_str());
        }
        TraceEvent::Degrade {
            severity,
            budget,
            detail,
        } => {
            out.push(EV_DEGRADE);
            put_str(out, severity);
            put_str(out, budget);
            put_str(out, detail);
        }
        TraceEvent::AlphaActivation { .. }
        | TraceEvent::BetaActivation { .. }
        | TraceEvent::JoinProbe { .. }
        | TraceEvent::SnodeActivation { .. }
        | TraceEvent::AggregateUpdate { .. } => return false,
    }
    true
}

/// Intern a decoded string into the closed `&'static str` set a
/// [`TraceEvent`] field expects. Unknown values (a future writer's new
/// constant) degrade to a fixed placeholder rather than failing decode.
fn intern(s: &str, known: &[&'static str], fallback: &'static str) -> &'static str {
    known.iter().find(|k| **k == s).copied().unwrap_or(fallback)
}

fn decode_event(frame: &[u8]) -> Result<TraceEvent, String> {
    let mut c = Cursor::new(frame);
    let tag = c.u8()?;
    let ev = match tag {
        EV_CYCLE_BEGIN => TraceEvent::CycleBegin { cycle: c.u64()? },
        EV_CYCLE_END => TraceEvent::CycleEnd {
            cycle: c.u64()?,
            rule: Symbol::new(&c.str()?),
            ok: c.bool()?,
        },
        EV_WME_ASSERT => TraceEvent::WmeAssert {
            cycle: c.u64()?,
            tag: TimeTag::new(c.u64()?),
            wme: c.str()?,
        },
        EV_WME_RETRACT => TraceEvent::WmeRetract {
            cycle: c.u64()?,
            tag: TimeTag::new(c.u64()?),
        },
        EV_CS_INSERT => TraceEvent::CsInsert {
            rule: Symbol::new(&c.str()?),
            key: c.str()?,
            soi: c.bool()?,
            rows: c.rows()?,
            aggregates: {
                let n = c.u64()? as usize;
                if n > frame.len() {
                    return Err(format!("aggregate count {} overruns frame", n));
                }
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(c.str()?);
                }
                v
            },
        },
        EV_CS_REMOVE => TraceEvent::CsRemove {
            rule: Symbol::new(&c.str()?),
            key: c.str()?,
            soi: c.bool()?,
        },
        EV_CS_RETIME => TraceEvent::CsRetime {
            rule: Symbol::new(&c.str()?),
            key: c.str()?,
            version: c.u64()?,
        },
        EV_FIRE => TraceEvent::Fire {
            cycle: c.u64()?,
            rule: Symbol::new(&c.str()?),
            rows: c.rows()?,
        },
        EV_SKIP => TraceEvent::SkipAction {
            action: intern(&c.str()?, &["remove", "modify"], "action"),
            tag: TimeTag::new(c.u64()?),
        },
        EV_ROLLBACK => TraceEvent::Rollback {
            rule: Symbol::new(&c.str()?),
            error: c.str()?,
        },
        EV_GUARD => TraceEvent::GuardTrip { reason: c.str()? },
        EV_PANIC => TraceEvent::PanicCaught {
            rule: Symbol::new(&c.str()?),
            message: c.str()?,
        },
        EV_IO_RETRY => TraceEvent::IoRetry {
            attempt: c.u64()? as u32,
            delay_micros: c.u64()?,
            error: c.str()?,
        },
        EV_QUARANTINE => TraceEvent::Quarantine {
            rule: Symbol::new(&c.str()?),
            failures: c.u64()? as u32,
        },
        EV_READMIT => TraceEvent::Readmit {
            rule: Symbol::new(&c.str()?),
        },
        EV_DEGRADE => TraceEvent::Degrade {
            severity: intern(&c.str()?, &["soft", "hard"], "?"),
            budget: intern(
                &c.str()?,
                &[
                    "memory_bytes",
                    "wall_clock",
                    "checkpoint",
                    "memory-bytes",
                    "wall-clock",
                ],
                "?",
            ),
            detail: c.str()?,
        },
        other => return Err(format!("unknown event tag {}", other)),
    };
    if !c.done() {
        return Err(format!(
            "event frame has {} trailing bytes",
            frame.len() - c.pos
        ));
    }
    Ok(ev)
}

/// Span attribute names the engine emits; unknown names decode to
/// `"attr"` (numeric value preserved).
const SPAN_ATTRS: &[&str] = &["cycle", "fired", "unit", "units", "records", "bytes"];

const SPAN_CATEGORIES: &[&str] = &[
    span_cat::RUN,
    span_cat::CYCLE,
    span_cat::RESOLVE,
    span_cat::MATCH,
    span_cat::RHS,
    span_cat::WAL_COMMIT,
    span_cat::PARALLEL_CYCLE,
    span_cat::FIRING_BUILD,
    span_cat::WAL_APPEND,
    span_cat::WAL_FLUSH,
    span_cat::WAL_FSYNC,
];

fn encode_span(out: &mut Vec<u8>, s: &Span) {
    put_u64(out, s.id);
    put_u64(out, s.parent);
    put_u64(out, u64::from(s.lane));
    put_str(out, s.category);
    put_u64(out, s.begin_nanos);
    put_u64(out, s.end_nanos);
    put_u64(out, s.attrs.len() as u64);
    for (k, v) in &s.attrs {
        put_str(out, k);
        put_u64(out, *v);
    }
}

fn decode_span(frame: &[u8]) -> Result<Span, String> {
    let mut c = Cursor::new(frame);
    let s = Span {
        id: c.u64()?,
        parent: c.u64()?,
        lane: c.u64()? as u32,
        category: intern(&c.str()?, SPAN_CATEGORIES, "other"),
        begin_nanos: c.u64()?,
        end_nanos: c.u64()?,
        attrs: {
            let n = c.u64()? as usize;
            if n > frame.len() {
                return Err(format!("attr count {} overruns frame", n));
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((intern(&c.str()?, SPAN_ATTRS, "attr"), c.u64()?));
            }
            v
        },
    };
    if !c.done() {
        return Err(format!(
            "span frame has {} trailing bytes",
            frame.len() - c.pos
        ));
    }
    Ok(s)
}

fn encode_cycle(out: &mut Vec<u8>, r: &CycleRecord) {
    put_u64(out, r.cycle);
    put_str(out, r.rule.as_str());
    put_bool(out, r.ok);
    put_u64(out, r.firings);
    put_u64(out, r.wm_len);
    put_u64(out, r.cs_len);
    put_u64(out, r.nanos);
}

fn decode_cycle(frame: &[u8]) -> Result<CycleRecord, String> {
    let mut c = Cursor::new(frame);
    let r = CycleRecord {
        cycle: c.u64()?,
        rule: Symbol::new(&c.str()?),
        ok: c.bool()?,
        firings: c.u64()?,
        wm_len: c.u64()?,
        cs_len: c.u64()?,
        nanos: c.u64()?,
    };
    if !c.done() {
        return Err(format!(
            "cycle frame has {} trailing bytes",
            frame.len() - c.pos
        ));
    }
    Ok(r)
}

// ---------------------------------------------------------------------
// The ring: length-prefixed frames in a VecDeque<u8>, evicted whole
// frames at a time.
// ---------------------------------------------------------------------

struct Ring {
    buf: VecDeque<u8>,
    frames: usize,
    cap_frames: usize,
    cap_bytes: usize,
    /// Reusable encode buffer: steady-state recording never allocates.
    scratch: Vec<u8>,
    evicted: u64,
}

impl Ring {
    fn new(cap_frames: usize) -> Ring {
        Ring {
            buf: VecDeque::new(),
            frames: 0,
            cap_frames,
            cap_bytes: (cap_frames * BYTES_PER_FRAME).max(64 * 1024),
            scratch: Vec::new(),
            evicted: 0,
        }
    }

    fn pop_oldest(&mut self) {
        let mut len = [0u8; 4];
        for b in &mut len {
            *b = self.buf.pop_front().expect("frame header present");
        }
        let len = u32::from_le_bytes(len) as usize;
        self.buf.drain(..len);
        self.frames -= 1;
        self.evicted += 1;
    }

    /// Encode a frame via `fill` into the scratch buffer, then append it,
    /// evicting oldest frames until both caps hold. `fill` returning
    /// false abandons the frame (unrecorded variant).
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> bool) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let keep = fill(&mut scratch);
        if keep {
            let need = scratch.len() + 4;
            if need > self.cap_bytes {
                self.evicted += 1; // oversized frame: dropped, counted
            } else {
                while self.frames >= self.cap_frames
                    || (self.frames > 0 && self.buf.len() + need > self.cap_bytes)
                {
                    self.pop_oldest();
                }
                self.buf
                    .extend((scratch.len() as u32).to_le_bytes().iter().copied());
                self.buf.extend(scratch.iter().copied());
                self.frames += 1;
            }
        }
        self.scratch = scratch;
    }

    /// The ring contents as one contiguous framed byte stream,
    /// oldest-first (the on-disk `*.bin` format of a crash bundle).
    fn bytes(&self) -> Vec<u8> {
        let (a, b) = self.buf.as_slices();
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        out
    }
}

/// Split a framed byte stream into payload frames.
fn frames(bytes: &[u8]) -> Result<Vec<&[u8]>, String> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + 4 > bytes.len() {
            return Err(format!("truncated frame header at byte {}", pos));
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return Err(format!(
                "frame of {} bytes at offset {} overruns stream of {}",
                len,
                pos - 4,
                bytes.len()
            ));
        }
        out.push(&bytes[pos..pos + len]);
        pos += len;
    }
    Ok(out)
}

/// Decode a framed event stream (a ring drain or a bundle's
/// `events.bin`), oldest-first.
pub fn decode_events(bytes: &[u8]) -> Result<Vec<TraceEvent>, String> {
    frames(bytes)?.into_iter().map(decode_event).collect()
}

/// Decode a framed span stream (`spans.bin`), oldest-first.
pub fn decode_spans(bytes: &[u8]) -> Result<Vec<Span>, String> {
    frames(bytes)?.into_iter().map(decode_span).collect()
}

/// Decode a framed cycle-record stream (`cycles.bin`), oldest-first.
pub fn decode_cycles(bytes: &[u8]) -> Result<Vec<CycleRecord>, String> {
    frames(bytes)?.into_iter().map(decode_cycle).collect()
}

struct FlightInner {
    events: Mutex<Ring>,
    spans: Mutex<Ring>,
    cycles: Mutex<Ring>,
    capacity: usize,
}

/// Counts describing a recorder's current contents (for bundle
/// manifests and `fsck` cross-checks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightCounts {
    /// Event frames currently retained.
    pub events: usize,
    /// Span frames currently retained.
    pub spans: usize,
    /// Cycle-record frames currently retained.
    pub cycles: usize,
    /// Frames overwritten (evicted or oversized) across all three rings.
    pub evicted: u64,
}

/// The cheap, cloneable recorder handle. Disabled it is one `Option`
/// branch per record call; enabled it encodes into a bounded ring.
#[derive(Clone, Default)]
pub struct Flight {
    inner: Option<Arc<FlightInner>>,
}

impl Flight {
    /// The disabled recorder (`--flight-recorder off`).
    pub fn off() -> Flight {
        Flight::default()
    }

    /// A recording handle retaining the last `capacity` frames in each
    /// ring. `capacity` 0 is the disabled recorder.
    pub fn recording(capacity: usize) -> Flight {
        if capacity == 0 {
            return Flight::off();
        }
        Flight {
            inner: Some(Arc::new(FlightInner {
                events: Mutex::new(Ring::new(capacity)),
                spans: Mutex::new(Ring::new(capacity)),
                cycles: Mutex::new(Ring::new(capacity)),
                capacity,
            })),
        }
    }

    /// True when recording.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Per-ring frame capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.capacity)
    }

    /// Record one logical trace event. Match-internal physical variants
    /// (see [`is_recorded`]) are ignored.
    #[inline]
    pub fn record_event(&self, event: &TraceEvent) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut ring = lock(&inner.events);
        ring.push_with(|out| encode_event(out, event));
    }

    /// Record one closed span.
    #[inline]
    pub fn record_span(&self, span: &Span) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut ring = lock(&inner.spans);
        ring.push_with(|out| {
            encode_span(out, span);
            true
        });
    }

    /// Record one per-cycle sample.
    #[inline]
    pub fn record_cycle(&self, record: &CycleRecord) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut ring = lock(&inner.cycles);
        ring.push_with(|out| {
            encode_cycle(out, record);
            true
        });
    }

    /// Decoded copy of the retained events, oldest-first.
    pub fn events(&self) -> Vec<TraceEvent> {
        decode_events(&self.events_bytes()).unwrap_or_default()
    }

    /// Decoded copy of the retained spans, oldest-first.
    pub fn spans(&self) -> Vec<Span> {
        decode_spans(&self.spans_bytes()).unwrap_or_default()
    }

    /// Decoded copy of the retained cycle records, oldest-first.
    pub fn cycles(&self) -> Vec<CycleRecord> {
        decode_cycles(&self.cycles_bytes()).unwrap_or_default()
    }

    /// The raw framed event stream (bundle `events.bin` contents).
    pub fn events_bytes(&self) -> Vec<u8> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lock(&i.events).bytes())
    }

    /// The raw framed span stream (bundle `spans.bin` contents).
    pub fn spans_bytes(&self) -> Vec<u8> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lock(&i.spans).bytes())
    }

    /// The raw framed cycle-record stream (bundle `cycles.bin` contents).
    pub fn cycles_bytes(&self) -> Vec<u8> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lock(&i.cycles).bytes())
    }

    /// Current retention counts.
    pub fn counts(&self) -> FlightCounts {
        let Some(i) = self.inner.as_ref() else {
            return FlightCounts::default();
        };
        let (e, s, c) = (lock(&i.events), lock(&i.spans), lock(&i.cycles));
        FlightCounts {
            events: e.frames,
            spans: s.frames,
            cycles: c.frames,
            evicted: e.evicted + s.evicted + c.evicted,
        }
    }
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.as_ref() {
            Some(i) => write!(f, "Flight(cap {})", i.capacity),
            None => write!(f, "Flight(off)"),
        }
    }
}

/// Lock a ring, recovering from poisoning (a panic mid-record must not
/// silence the black box — its whole point is surviving panics).
fn lock(ring: &Mutex<Ring>) -> std::sync::MutexGuard<'_, Ring> {
    ring.lock().unwrap_or_else(|e| e.into_inner())
}

/// The one "flush everything" hook every abnormal exit path goes
/// through: buffered trace sinks (JSONL) and the metrics snapshot
/// stream are pushed to disk so the tail of the run — including the
/// event describing the failure itself — is durable before the caller
/// unwinds, aborts, or writes a crash bundle.
pub fn on_abnormal_exit(tracer: &crate::trace::Tracer, metrics: &crate::metrics::Metrics) {
    tracer.flush();
    metrics.with(|r| r.flush());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::CycleBegin { cycle: i }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let f = Flight::off();
        assert!(!f.enabled());
        f.record_event(&ev(1));
        assert!(f.events().is_empty());
        assert_eq!(f.counts(), FlightCounts::default());
        assert_eq!(Flight::recording(0).capacity(), 0);
    }

    #[test]
    fn events_round_trip_through_the_codec() {
        let f = Flight::recording(64);
        let samples = vec![
            TraceEvent::CycleBegin { cycle: 3 },
            TraceEvent::CycleEnd {
                cycle: 3,
                rule: Symbol::new("r-1"),
                ok: false,
            },
            TraceEvent::WmeAssert {
                cycle: 0,
                tag: TimeTag::new(7),
                wme: "(player ^name Sue ^team B)".into(),
            },
            TraceEvent::WmeRetract {
                cycle: 2,
                tag: TimeTag::new(300),
            },
            TraceEvent::CsInsert {
                rule: Symbol::new("fill"),
                key: "t1 t3".into(),
                soi: true,
                rows: vec![vec![1, 3], vec![2, 3]],
                aggregates: vec!["5".into(), "2.5".into()],
            },
            TraceEvent::CsRemove {
                rule: Symbol::new("fill"),
                key: "t1 t3".into(),
                soi: false,
            },
            TraceEvent::CsRetime {
                rule: Symbol::new("fill"),
                key: "t1".into(),
                version: 9,
            },
            TraceEvent::Fire {
                cycle: 4,
                rule: Symbol::new("fill"),
                rows: vec![vec![5]],
            },
            TraceEvent::SkipAction {
                action: "remove",
                tag: TimeTag::new(5),
            },
            TraceEvent::Rollback {
                rule: Symbol::new("bad"),
                error: "boom\nline2".into(),
            },
            TraceEvent::GuardTrip {
                reason: "wall clock".into(),
            },
            TraceEvent::PanicCaught {
                rule: Symbol::new("bad"),
                message: "павук".into(),
            },
            TraceEvent::IoRetry {
                attempt: 2,
                delay_micros: 1500,
                error: "io".into(),
            },
            TraceEvent::Quarantine {
                rule: Symbol::new("bad"),
                failures: 3,
            },
            TraceEvent::Readmit {
                rule: Symbol::new("bad"),
            },
            TraceEvent::Degrade {
                severity: "soft",
                budget: "wall_clock",
                detail: "over".into(),
            },
        ];
        for e in &samples {
            f.record_event(e);
        }
        assert_eq!(f.events(), samples);
        assert_eq!(f.counts().events, samples.len());
        assert_eq!(f.counts().evicted, 0);
    }

    #[test]
    fn physical_match_events_are_filtered() {
        let f = Flight::recording(8);
        f.record_event(&TraceEvent::AlphaActivation {
            node: 1,
            tag: TimeTag::new(1),
            insert: true,
        });
        f.record_event(&TraceEvent::BetaActivation {
            node: 2,
            kind: "join",
        });
        f.record_event(&TraceEvent::JoinProbe {
            node: 2,
            hits: 1,
            scanned: 4,
        });
        f.record_event(&ev(1));
        assert_eq!(f.events(), vec![ev(1)]);
        // Rare physical events that matter post-mortem are kept.
        let io = TraceEvent::IoRetry {
            attempt: 1,
            delay_micros: 10,
            error: "x".into(),
        };
        assert!(is_recorded(&io));
    }

    #[test]
    fn ring_overwrites_oldest_at_capacity() {
        let f = Flight::recording(4);
        for i in 0..10 {
            f.record_event(&ev(i));
        }
        let got = f.events();
        assert_eq!(got, (6..10).map(ev).collect::<Vec<_>>());
        let counts = f.counts();
        assert_eq!(counts.events, 4);
        assert_eq!(counts.evicted, 6);
    }

    #[test]
    fn spans_and_cycles_round_trip() {
        let f = Flight::recording(16);
        let s = Span {
            id: 5,
            parent: 1,
            lane: 2,
            category: span_cat::FIRING_BUILD,
            begin_nanos: 100,
            end_nanos: 4200,
            attrs: vec![("unit", 3)],
        };
        f.record_span(&s);
        let got = f.spans();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 5);
        assert_eq!(got[0].category, span_cat::FIRING_BUILD);
        assert_eq!(got[0].attrs, vec![("unit", 3)]);

        let r = CycleRecord {
            cycle: 7,
            rule: Symbol::new("step"),
            ok: true,
            firings: 7,
            wm_len: 40,
            cs_len: 3,
            nanos: 1234,
        };
        f.record_cycle(&r);
        assert_eq!(f.cycles(), vec![r.clone()]);
        assert!(r.to_json().contains("\"cycle\":7"));
        assert!(r.to_json().contains("\"rule\":\"step\""));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_events(&[1, 2, 3]).is_err(), "truncated header");
        let mut bytes = 200u32.to_le_bytes().to_vec();
        bytes.push(0);
        assert!(decode_events(&bytes).is_err(), "overrunning frame");
        // A frame with an unknown tag fails loudly.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(250);
        assert!(decode_events(&bytes)
            .unwrap_err()
            .contains("unknown event tag"));
        // Trailing bytes inside a frame fail too.
        let mut payload = Vec::new();
        payload.push(EV_CYCLE_BEGIN);
        put_u64(&mut payload, 1);
        payload.push(9);
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        assert!(decode_events(&bytes).unwrap_err().contains("trailing"));
    }

    #[test]
    fn steady_state_recording_reuses_capacity() {
        let f = Flight::recording(8);
        for i in 0..100 {
            f.record_event(&ev(i));
        }
        let inner = f.inner.as_ref().unwrap();
        let cap_before = {
            let ring = lock(&inner.events);
            (ring.buf.capacity(), ring.scratch.capacity())
        };
        for i in 100..10_000 {
            f.record_event(&ev(i));
        }
        let cap_after = {
            let ring = lock(&inner.events);
            (ring.buf.capacity(), ring.scratch.capacity())
        };
        assert_eq!(cap_before, cap_after, "warm ring must not grow");
    }
}
