//! Flight recorder: an always-on, fixed-capacity black box.
//!
//! Live telemetry (tracer sinks, spans, metrics streams) only helps when
//! someone turned it on *before* the failure. The [`Flight`] recorder
//! keeps the engine's own account of the recent past regardless: three
//! ring buffers of compact binary frames — the last N logical
//! [`TraceEvent`]s, the last N closed [`Span`]s, and the last N per-cycle
//! [`CycleRecord`]s — overwritten oldest-first, so memory use is bounded
//! no matter how long the run. On an abnormal exit the engine drains the
//! rings into a crash-dump bundle (see `sorete_core::bundle`); an
//! offline inspector (`sorete debug`) reconstructs the timeline from the
//! same encoding via [`decode_events`] / [`decode_spans`] /
//! [`decode_cycles`].
//!
//! Each ring has one writer and is written through `&mut`: the engine
//! owns the event and cycle rings, and the span ring lives in the span
//! store beside the spans it already collects. There is no lock. A
//! disabled ring is one branch per record; an enabled one encodes each
//! record (LEB128 varints, length-prefixed strings) straight onto the
//! tail of its byte vector, keeps the frame lengths in a circular array
//! and evicts by advancing a head offset — no per-record allocation once
//! warm. The eight hot logical events (cycle boundaries, WME
//! assert/retract, conflict-set deltas, firings) arrive as an
//! [`EventRef`] borrowing engine state and are stored without text:
//! symbols as interner ids, values as their bits, keys as their parts;
//! a cycle record keeps its rule as an id too. Nothing is formatted per
//! record. Text is rendered when the ring is drained, into exactly the
//! frame the owned [`TraceEvent`] (or [`CycleRecord`]) encodes to, so
//! `events.bin` and `cycles.bin` are the streams rings of rendered
//! frames hold. The byte cap counts the bytes the ring stores, so the
//! memory bound is exact. High-frequency
//! *physical* match events (alpha/beta activations, join probes, S-node
//! traffic) are never recorded: they are per-algorithm detail with the
//! worst volume/diagnosis ratio. Rare physical events that matter for
//! post-mortems (I/O retries, degradation steps) are kept.
//!
//! The event ring is also the engine's only event history: live
//! `explain`/`why-not` read [`Flight::events`], the same bytes a bundle
//! drains, so both see the ring's window.

use crate::inst::{ConflictItem, InstKey, KeyPart, Rows};
use crate::span::{category as span_cat, Span};
use crate::symbol::Symbol;
use crate::trace::TraceEvent;
use crate::value::Value;
use crate::wme::{TimeTag, Wme};
use std::collections::VecDeque;

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

/// A hot logical event borrowing the engine state it describes. The
/// flight recorder encodes it without an owned copy; [`EventRef::to_owned`]
/// is the one place the matching [`TraceEvent`] variants are built, for
/// sinks.
#[derive(Clone, Copy, Debug)]
pub enum EventRef<'a> {
    /// See [`TraceEvent::CycleBegin`].
    CycleBegin {
        /// 1-based cycle number.
        cycle: u64,
    },
    /// See [`TraceEvent::CycleEnd`].
    CycleEnd {
        /// 1-based cycle number.
        cycle: u64,
        /// The rule that fired.
        rule: Symbol,
        /// False when the firing was rolled back.
        ok: bool,
    },
    /// See [`TraceEvent::WmeAssert`].
    WmeAssert {
        /// Cycle during which the assert happened (0 = before any firing).
        cycle: u64,
        /// The new WME; its tag and rendered text go into the event.
        wme: &'a Wme,
    },
    /// See [`TraceEvent::WmeRetract`].
    WmeRetract {
        /// Cycle during which the retract happened.
        cycle: u64,
        /// The removed WME's time tag.
        tag: TimeTag,
    },
    /// See [`TraceEvent::CsInsert`].
    CsInsert {
        /// The rule instantiated.
        rule: Symbol,
        /// The entry entering the conflict set.
        item: &'a ConflictItem,
    },
    /// See [`TraceEvent::CsRemove`].
    CsRemove {
        /// The rule instantiated.
        rule: Symbol,
        /// The key leaving the conflict set.
        key: &'a InstKey,
    },
    /// See [`TraceEvent::CsRetime`].
    CsRetime {
        /// The rule instantiated.
        rule: Symbol,
        /// The SOI repositioned.
        key: &'a InstKey,
        /// New content version.
        version: u64,
    },
    /// See [`TraceEvent::Fire`].
    Fire {
        /// 1-based cycle number.
        cycle: u64,
        /// The rule that fired.
        rule: Symbol,
        /// The rows the RHS iterates over.
        rows: &'a Rows,
    },
}

#[cfg(test)]
thread_local! {
    /// Calls of [`EventRef::to_owned`] on this thread, so tests can pin
    /// that the sink-less path never builds an owned event.
    pub(crate) static OWNED_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl EventRef<'_> {
    /// The owned event sinks receive.
    pub fn to_owned(self) -> TraceEvent {
        #[cfg(test)]
        OWNED_BUILDS.with(|n| n.set(n.get() + 1));
        let raw_rows = |rows: &Rows| {
            rows.iter()
                .map(|r| r.iter().map(|t| t.raw()).collect())
                .collect()
        };
        match self {
            EventRef::CycleBegin { cycle } => TraceEvent::CycleBegin { cycle },
            EventRef::CycleEnd { cycle, rule, ok } => TraceEvent::CycleEnd { cycle, rule, ok },
            EventRef::WmeAssert { cycle, wme } => TraceEvent::WmeAssert {
                cycle,
                tag: wme.tag,
                wme: wme.render(),
            },
            EventRef::WmeRetract { cycle, tag } => TraceEvent::WmeRetract { cycle, tag },
            EventRef::CsInsert { rule, item } => TraceEvent::CsInsert {
                rule,
                key: item.key.repr(),
                soi: item.key.is_soi(),
                rows: raw_rows(&item.rows),
                aggregates: item.aggregates.iter().map(|v| v.to_string()).collect(),
            },
            EventRef::CsRemove { rule, key } => TraceEvent::CsRemove {
                rule,
                key: key.repr(),
                soi: key.is_soi(),
            },
            EventRef::CsRetime { rule, key, version } => TraceEvent::CsRetime {
                rule,
                key: key.repr(),
                version,
            },
            EventRef::Fire { cycle, rule, rows } => TraceEvent::Fire {
                cycle,
                rule,
                rows: raw_rows(rows),
            },
        }
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

// Kind bytes of a stored value. `P_TAG` is a key part naming a WME,
// which renders as `t<n>` where a tag *value* renders as `@<n>`.
const V_NIL: u8 = 0;
const V_INT: u8 = 1;
const V_FLOAT: u8 = 2;
const V_SYM: u8 = 3;
const V_TAG: u8 = 4;
const P_TAG: u8 = 5;

/// A value as its kind and bits: zigzag ints, raw float bits, symbol ids.
fn put_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Nil => out.push(V_NIL),
        Value::Int(i) => {
            out.push(V_INT);
            put_u64(out, ((i << 1) ^ (i >> 63)) as u64);
        }
        Value::Float(f) => {
            out.push(V_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Sym(s) => {
            out.push(V_SYM);
            put_u64(out, u64::from(s.id()));
        }
        Value::Tag(t) => {
            out.push(V_TAG);
            put_u64(out, t.raw());
        }
    }
}

/// A key as its SOI flag and its parts.
fn put_key(out: &mut Vec<u8>, key: &InstKey) {
    put_bool(out, key.is_soi());
    put_u64(out, key.parts().count() as u64);
    for p in key.parts() {
        match p {
            KeyPart::Tag(t) => {
                out.push(P_TAG);
                put_u64(out, t.raw());
            }
            KeyPart::Val(v) => put_value(out, v),
        }
    }
}

fn put_rows<R: AsRef<[T]>, T: Copy>(
    out: &mut Vec<u8>,
    rows: impl ExactSizeIterator<Item = R>,
    raw: impl Fn(T) -> u64,
) {
    put_u64(out, rows.len() as u64);
    for row in rows {
        let row = row.as_ref();
        put_u64(out, row.len() as u64);
        for &t in row {
            put_u64(out, raw(t));
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

    /// A count of items that take at least a byte each, bounded by the
    /// frame before anything is allocated for it.
    fn count(&mut self, what: &str) -> Result<usize, String> {
        let n = self.u64()? as usize;
        if n > self.buf.len() {
            return Err(format!("{} {} overruns frame", what, n));
        }
        Ok(n)
    }

    fn rows(&mut self) -> Result<Vec<Vec<u64>>, String> {
        let n = self.count("row count")?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let m = self.count("row width")?;
            let mut row = Vec::with_capacity(m);
            for _ in 0..m {
                row.push(self.u64()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn sym(&mut self) -> Result<Symbol, String> {
        let id = self.u64()?;
        u32::try_from(id)
            .map(Symbol::from_id)
            .map_err(|_| format!("symbol id {} out of range", id))
    }

    /// A value [`put_value`] wrote, its kind byte already read.
    fn value_of(&mut self, kind: u8) -> Result<Value, String> {
        Ok(match kind {
            V_NIL => Value::Nil,
            V_INT => {
                let z = self.u64()?;
                Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            V_FLOAT => {
                let mut bits = [0u8; 8];
                for b in &mut bits {
                    *b = self.u8()?;
                }
                Value::Float(f64::from_bits(u64::from_le_bytes(bits)))
            }
            V_SYM => Value::Sym(self.sym()?),
            V_TAG => Value::Tag(TimeTag::new(self.u64()?)),
            other => return Err(format!("unknown value kind {}", other)),
        })
    }

    fn value(&mut self) -> Result<Value, String> {
        let kind = self.u8()?;
        self.value_of(kind)
    }

    /// A key [`put_key`] wrote: its text, then its SOI flag.
    fn key(&mut self) -> Result<(String, bool), String> {
        let soi = self.bool()?;
        let n = self.count("key part count")?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push(match self.u8()? {
                P_TAG => KeyPart::Tag(TimeTag::new(self.u64()?)),
                kind => KeyPart::Val(self.value_of(kind)?),
            });
        }
        let mut text = String::new();
        crate::inst::push_parts(&mut text, parts.into_iter());
        Ok((text, soi))
    }

    /// A stored WME's class and slots, rendered.
    fn wme_text(&mut self) -> Result<String, String> {
        let class = self.sym()?;
        let n = self.count("slot count")?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push((self.sym()?, self.value()?));
        }
        let mut text = String::new();
        let _ = crate::wme::write_text(&mut text, class, &slots);
        Ok(text)
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
            put_rows(out, rows.iter(), |t: u64| t);
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
            put_rows(out, rows.iter(), |t: u64| t);
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

/// Set on the tag byte of a frame that holds a hot event in ids and
/// value bits, to be rendered when the ring drains. Only the ring sees
/// it: `events.bin` frames never carry it.
const STORED: u8 = 0x80;

/// Store a borrowed event: symbols as interner ids, values as their
/// bits, keys as their parts. It drains to the frame [`encode_event`]
/// writes for `ev.to_owned()`. Events without symbols or values are
/// stored as they drain.
fn encode_stored(o: &mut Vec<u8>, ev: EventRef<'_>) {
    let sym = |o: &mut Vec<u8>, s: Symbol| put_u64(o, u64::from(s.id()));
    match ev {
        EventRef::CycleBegin { cycle } => {
            o.push(EV_CYCLE_BEGIN);
            put_u64(o, cycle);
        }
        EventRef::CycleEnd { cycle, rule, ok } => {
            o.push(EV_CYCLE_END | STORED);
            put_u64(o, cycle);
            sym(o, rule);
            put_bool(o, ok);
        }
        EventRef::WmeAssert { cycle, wme } => {
            o.push(EV_WME_ASSERT | STORED);
            put_u64(o, cycle);
            put_u64(o, wme.tag.raw());
            sym(o, wme.class);
            put_u64(o, wme.slots().len() as u64);
            for &(attr, v) in wme.slots() {
                sym(o, attr);
                put_value(o, v);
            }
        }
        EventRef::WmeRetract { cycle, tag } => {
            o.push(EV_WME_RETRACT);
            put_u64(o, cycle);
            put_u64(o, tag.raw());
        }
        EventRef::CsInsert { rule, item } => {
            o.push(EV_CS_INSERT | STORED);
            sym(o, rule);
            put_key(o, &item.key);
            put_rows(o, item.rows.iter(), TimeTag::raw);
            put_u64(o, item.aggregates.len() as u64);
            for &a in &item.aggregates {
                put_value(o, a);
            }
        }
        EventRef::CsRemove { rule, key } => {
            o.push(EV_CS_REMOVE | STORED);
            sym(o, rule);
            put_key(o, key);
        }
        EventRef::CsRetime { rule, key, version } => {
            o.push(EV_CS_RETIME | STORED);
            sym(o, rule);
            put_key(o, key);
            put_u64(o, version);
        }
        EventRef::Fire { cycle, rule, rows } => {
            o.push(EV_FIRE | STORED);
            put_u64(o, cycle);
            sym(o, rule);
            put_rows(o, rows.iter(), TimeTag::raw);
        }
    }
}

/// The event a [`STORED`] frame holds, its text rendered.
fn decode_stored(frame: &[u8]) -> Result<TraceEvent, String> {
    let mut c = Cursor::new(frame);
    let ev = match c.u8()? & !STORED {
        EV_CYCLE_END => TraceEvent::CycleEnd {
            cycle: c.u64()?,
            rule: c.sym()?,
            ok: c.bool()?,
        },
        EV_WME_ASSERT => TraceEvent::WmeAssert {
            cycle: c.u64()?,
            tag: TimeTag::new(c.u64()?),
            wme: c.wme_text()?,
        },
        EV_CS_INSERT => {
            let rule = c.sym()?;
            let (key, soi) = c.key()?;
            let rows = c.rows()?;
            let n = c.count("aggregate count")?;
            let mut aggregates = Vec::with_capacity(n);
            for _ in 0..n {
                aggregates.push(c.value()?.to_string());
            }
            TraceEvent::CsInsert {
                rule,
                key,
                soi,
                rows,
                aggregates,
            }
        }
        EV_CS_REMOVE => {
            let rule = c.sym()?;
            let (key, soi) = c.key()?;
            TraceEvent::CsRemove { rule, key, soi }
        }
        EV_CS_RETIME => TraceEvent::CsRetime {
            rule: c.sym()?,
            key: c.key()?.0,
            version: c.u64()?,
        },
        EV_FIRE => TraceEvent::Fire {
            cycle: c.u64()?,
            rule: c.sym()?,
            rows: c.rows()?,
        },
        other => return Err(format!("unknown stored event tag {}", other)),
    };
    if !c.done() {
        return Err(format!(
            "stored frame has {} trailing bytes",
            frame.len() - c.pos
        ));
    }
    Ok(ev)
}

/// Write an event-ring frame as it goes to `events.bin`.
fn drain_event(frame: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    match frame.first() {
        Some(tag) if tag & STORED != 0 => {
            encode_event(out, &decode_stored(frame)?);
        }
        _ => out.extend_from_slice(frame),
    }
    Ok(())
}

/// Write a frame stored as it drains (spans, cycle records).
fn drain_copy(frame: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    out.extend_from_slice(frame);
    Ok(())
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
                let n = c.count("aggregate count")?;
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
    put_u64(out, 0); // the retired thread-lane field
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
        category: {
            c.u64()?; // the retired thread-lane field
            intern(&c.str()?, SPAN_CATEGORIES, "other")
        },
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

/// Store a cycle record with its rule as an interner id; [`drain_cycle`]
/// writes the rule's text in its place.
fn encode_cycle_stored(out: &mut Vec<u8>, r: &CycleRecord) {
    put_u64(out, r.cycle);
    put_u64(out, u64::from(r.rule.id()));
    put_bool(out, r.ok);
    put_u64(out, r.firings);
    put_u64(out, r.wm_len);
    put_u64(out, r.cs_len);
    put_u64(out, r.nanos);
}

/// Write a stored cycle frame as it goes to `cycles.bin`: the rule id
/// becomes its length-prefixed text, the other fields are copied.
fn drain_cycle(frame: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    let mut c = Cursor::new(frame);
    put_u64(out, c.u64()?);
    put_str(out, c.sym()?.as_str());
    out.extend_from_slice(&frame[c.pos..]);
    Ok(())
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
// The ring: stored frames back to back in one byte vector, encoded
// straight onto its tail; eviction advances a head offset past whole
// frames. The byte cap counts what the ring stores: each frame's bytes
// plus its 4-byte length.
// ---------------------------------------------------------------------

/// One bounded ring of stored frames, written through `&mut`: its owner
/// is its only writer.
#[derive(Clone, Default)]
pub(crate) struct Ring {
    /// Stored frames back to back; the retained ones start at `head`.
    buf: Vec<u8>,
    /// Offset of the oldest retained frame: bytes before it are evicted.
    head: usize,
    /// Each retained frame's stored length, oldest first.
    lens: VecDeque<u32>,
    /// Frame cap; 0 is the disabled ring.
    cap_frames: usize,
    cap_bytes: usize,
    evicted: u64,
}

impl Ring {
    pub(crate) fn new(cap_frames: usize) -> Ring {
        Ring {
            cap_frames,
            cap_bytes: (cap_frames * BYTES_PER_FRAME).max(64 * 1024),
            ..Ring::default()
        }
    }

    /// Bytes the retained frames take: frames plus their lengths.
    fn stored(&self) -> usize {
        self.buf.len() - self.head + 4 * self.lens.len()
    }

    /// Encode a frame via `fill` onto the tail, then evict oldest frames
    /// until both caps hold. `fill` returns false to abandon the frame
    /// (unrecorded variant). Storage grows on demand and is reused once
    /// warm: when the vector is full and the evicted prefix is at least a
    /// quarter of it, the retained bytes move down instead of the vector
    /// growing: it grows only while the retained frames fill three
    /// quarters of it, each stored byte moves at most three times on
    /// average, and nothing is allocated per record.
    #[inline]
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> bool) {
        if self.cap_frames == 0 {
            return;
        }
        if self.head > 0
            && self.buf.len() + BYTES_PER_FRAME > self.buf.capacity()
            && 4 * self.head >= self.buf.len()
        {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
        let start = self.buf.len();
        if !fill(&mut self.buf) {
            self.buf.truncate(start);
            return;
        }
        let len = self.buf.len() - start;
        let need = len + 4;
        if need > self.cap_bytes {
            self.buf.truncate(start);
            self.evicted += 1; // oversized frame: dropped, counted
            return;
        }
        while self.lens.len() >= self.cap_frames
            || (!self.lens.is_empty() && self.stored() + 4 > self.cap_bytes)
        {
            self.head += self.lens.pop_front().expect("a frame to evict") as usize;
            self.evicted += 1;
        }
        self.lens.push_back(len as u32);
    }

    /// Record one closed span.
    pub(crate) fn record_span(&mut self, span: &Span) {
        self.push_with(|out| {
            encode_span(out, span);
            true
        });
    }

    /// The ring contents as one contiguous framed byte stream,
    /// oldest-first (the on-disk `*.bin` format of a crash bundle), each
    /// stored frame written out by `drain`.
    fn bytes(&self, drain: fn(&[u8], &mut Vec<u8>) -> Result<(), String>) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.stored());
        let mut pos = self.head;
        for &len in &self.lens {
            let frame = &self.buf[pos..pos + len as usize];
            pos += len as usize;
            let start = out.len();
            out.extend_from_slice(&[0; 4]);
            match drain(frame, &mut out) {
                Ok(()) => {
                    let n = (out.len() - start - 4) as u32;
                    out[start..start + 4].copy_from_slice(&n.to_le_bytes());
                }
                Err(e) => {
                    debug_assert!(false, "unreadable stored frame: {}", e);
                    out.truncate(start);
                }
            }
        }
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

/// The recorder: three rings, owned and written through `&mut` by one
/// writer. Disabled it is one branch per record call; enabled it encodes
/// onto a bounded ring. The engine owns the event and cycle rings; its
/// span ring lives in the span store, which the WAL's span handle also
/// writes, and [`Flight::with_spans`] puts a copy into a snapshot.
#[derive(Clone, Default)]
pub struct Flight {
    events: Ring,
    spans: Ring,
    cycles: Ring,
}

impl Flight {
    /// The disabled recorder (`--flight-recorder off`).
    pub fn off() -> Flight {
        Flight::default()
    }

    /// A recorder retaining the last `capacity` frames in each ring.
    /// `capacity` 0 is the disabled recorder.
    pub fn recording(capacity: usize) -> Flight {
        Flight {
            events: Ring::new(capacity),
            spans: Ring::new(capacity),
            cycles: Ring::new(capacity),
        }
    }

    /// True when recording.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.events.cap_frames > 0
    }

    /// Per-ring frame capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.events.cap_frames
    }

    /// This recorder with a copy of `spans`' flight ring as its span
    /// ring (unchanged when `spans` keeps none).
    pub fn with_spans(mut self, spans: &crate::span::Spans) -> Flight {
        if let Some(ring) = spans.flight_ring() {
            self.spans = ring;
        }
        self
    }

    /// Record one logical trace event. The high-frequency match-internal
    /// physical variants (activations, join probes, S-node traffic) are
    /// ignored.
    #[inline]
    pub fn record_event(&mut self, event: &TraceEvent) {
        self.events.push_with(|out| encode_event(out, event));
    }

    /// Record one hot logical event from borrowed state, with no text
    /// rendered: the drained frame is the one [`Flight::record_event`]
    /// writes for `ev.to_owned()`.
    #[inline]
    pub fn record_ref(&mut self, ev: EventRef<'_>) {
        self.events.push_with(|out| {
            encode_stored(out, ev);
            true
        });
    }

    /// Record one closed span.
    #[inline]
    pub fn record_span(&mut self, span: &Span) {
        self.spans.record_span(span);
    }

    /// Record one per-cycle sample.
    #[inline]
    pub fn record_cycle(&mut self, record: &CycleRecord) {
        self.cycles.push_with(|out| {
            encode_cycle_stored(out, record);
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

    /// The framed event stream (bundle `events.bin` contents), with the
    /// hot events' text rendered now.
    pub fn events_bytes(&self) -> Vec<u8> {
        self.events.bytes(drain_event)
    }

    /// The raw framed span stream (bundle `spans.bin` contents).
    pub fn spans_bytes(&self) -> Vec<u8> {
        self.spans.bytes(drain_copy)
    }

    /// The framed cycle-record stream (bundle `cycles.bin` contents),
    /// with the rule names rendered now.
    pub fn cycles_bytes(&self) -> Vec<u8> {
        self.cycles.bytes(drain_cycle)
    }

    /// Current retention counts.
    pub fn counts(&self) -> FlightCounts {
        let (e, s, c) = (&self.events, &self.spans, &self.cycles);
        FlightCounts {
            events: e.lens.len(),
            spans: s.lens.len(),
            cycles: c.lens.len(),
            evicted: e.evicted + s.evicted + c.evicted,
        }
    }
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.capacity() {
            0 => write!(f, "Flight(off)"),
            cap => write!(f, "Flight(cap {})", cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::CycleBegin { cycle: i }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut f = Flight::off();
        assert!(!f.enabled());
        f.record_event(&ev(1));
        assert!(f.events().is_empty());
        assert_eq!(f.counts(), FlightCounts::default());
        assert_eq!(Flight::recording(0).capacity(), 0);
    }

    #[test]
    fn events_round_trip_through_the_codec() {
        let mut f = Flight::recording(64);
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
        let mut f = Flight::recording(8);
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
        // Rare physical events that matter post-mortem are kept.
        let io = TraceEvent::IoRetry {
            attempt: 1,
            delay_micros: 10,
            error: "x".into(),
        };
        f.record_event(&io);
        assert_eq!(f.events(), vec![ev(1), io]);
    }

    #[test]
    fn ring_overwrites_oldest_at_capacity() {
        let mut f = Flight::recording(4);
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
        let mut f = Flight::recording(16);
        let s = Span {
            id: 5,
            parent: 1,
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
        // Cycles 128..16384 all encode to 3-byte frames: a full ring of
        // them neither grows nor shrinks.
        let mut f = Flight::recording(8);
        for i in 128..228 {
            f.record_event(&ev(i));
        }
        let caps = |f: &Flight| (f.events.buf.capacity(), f.events.lens.capacity());
        let cap_before = caps(&f);
        for i in 228..10_000 {
            f.record_event(&ev(i));
        }
        assert_eq!(cap_before, caps(&f), "warm ring must not grow");
        assert_eq!(f.events(), (9_992..10_000).map(ev).collect::<Vec<_>>());
    }

    /// Cycle records keep the rule as an id: a 500-byte rule name takes
    /// a few bytes stored and decodes back from the drained frame.
    #[test]
    fn cycle_frames_store_the_rule_id_and_drain_its_text() {
        let mut f = Flight::recording(4);
        let r = CycleRecord {
            cycle: 2,
            rule: Symbol::new(&"long-rule-".repeat(50)),
            ok: false,
            firings: 9,
            wm_len: 3,
            cs_len: 1,
            nanos: 77,
        };
        f.record_cycle(&r);
        assert!(
            f.cycles.buf.len() < 16,
            "{} bytes stored",
            f.cycles.buf.len()
        );
        assert!(f.cycles_bytes().len() > 500);
        assert_eq!(f.cycles(), vec![r]);
    }

    mod borrowed {
        use super::*;
        use crate::inst::{KeyPart, RuleId, Tags};
        use crate::value::Value;
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        /// Symbol texts a renderer could mangle: spaces, quotes, the `^`
        /// slot marker, escapes, non-ASCII, the empty string.
        const TEXTS: &[&str] = &[
            "player",
            "two words",
            "say \"hi\"",
            "^team",
            "павук",
            "",
            "tab\tnl\n",
            "🦀 ^x \\",
        ];

        fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
            from[rng.below(from.len() as u64) as usize]
        }

        fn tag(rng: &mut TestRng) -> TimeTag {
            TimeTag::new(rng.next_u64() >> rng.below(64))
        }

        fn value(rng: &mut TestRng) -> Value {
            match rng.below(5) {
                0 => Value::Int(pick(rng, &[i64::MIN, -1, 0, 42, i64::MAX])),
                1 => Value::Int(rng.next_u64() as i64),
                2 => Value::Float(pick(
                    rng,
                    &[-0.0, 0.0, f64::NAN, 1e300, -2.5, 0.1, f64::INFINITY, 3.0],
                )),
                3 => Value::Tag(tag(rng)),
                _ => Value::sym(pick(rng, TEXTS)),
            }
        }

        fn wme(rng: &mut TestRng) -> Wme {
            let slots = (0..rng.below(4))
                .map(|_| (Symbol::new(pick(rng, TEXTS)), value(rng)))
                .collect();
            Wme::new(tag(rng), Symbol::new(pick(rng, TEXTS)), slots)
        }

        fn key(rng: &mut TestRng) -> InstKey {
            let rule = RuleId::new(rng.below(8) as usize);
            let width = rng.below(4);
            if rng.below(2) == 0 {
                InstKey::Tuple {
                    rule,
                    tags: (0..width).map(|_| tag(rng)).collect(),
                }
            } else {
                InstKey::Soi {
                    rule,
                    parts: (0..width)
                        .map(|_| match rng.below(2) {
                            0 => KeyPart::Tag(tag(rng)),
                            _ => KeyPart::Val(value(rng)),
                        })
                        .collect(),
                }
            }
        }

        fn rows(rng: &mut TestRng) -> Rows {
            let width = rng.below(4);
            (0..rng.below(4))
                .map(|_| (0..width).map(|_| tag(rng)).collect::<Vec<_>>())
                .collect()
        }

        fn item(rng: &mut TestRng) -> ConflictItem {
            ConflictItem {
                key: key(rng),
                rows: rows(rng),
                aggregates: (0..rng.below(3))
                    .map(|_| match rng.below(6) {
                        0 => Value::Nil,
                        _ => value(rng),
                    })
                    .collect(),
                version: rng.next_u64(),
                recency: Tags::default(),
                specificity: 0,
            }
        }

        /// The state one case's events borrow from.
        struct State {
            wmes: Vec<Wme>,
            keys: Vec<InstKey>,
            items: Vec<ConflictItem>,
            rows: Vec<Rows>,
        }

        fn events<'a>(rng: &mut TestRng, st: &'a State) -> Vec<EventRef<'a>> {
            (0..24)
                .map(|i| {
                    let rule = Symbol::new(pick(rng, TEXTS));
                    let cycle = rng.next_u64() >> rng.below(64);
                    match i % 8 {
                        0 => EventRef::CycleBegin { cycle },
                        1 => EventRef::CycleEnd {
                            cycle,
                            rule,
                            ok: rng.below(2) == 0,
                        },
                        2 => EventRef::WmeAssert {
                            cycle,
                            wme: &st.wmes[i / 8],
                        },
                        3 => EventRef::WmeRetract {
                            cycle,
                            tag: tag(rng),
                        },
                        4 => EventRef::CsInsert {
                            rule,
                            item: &st.items[i / 8],
                        },
                        5 => EventRef::CsRemove {
                            rule,
                            key: &st.keys[i / 8],
                        },
                        6 => EventRef::CsRetime {
                            rule,
                            key: &st.items[i / 8].key,
                            version: rng.next_u64(),
                        },
                        _ => EventRef::Fire {
                            cycle,
                            rule,
                            rows: &st.rows[i / 8],
                        },
                    }
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `record_ref(ev)` stores a frame that drains to exactly the
            /// frame the owned encoder writes for `ev.to_owned()`, and that
            /// frame decodes back to it. A byte cap small enough to evict
            /// holds: the ring never stores more than it.
            #[test]
            fn borrowed_frames_equal_owned_frames(seed in any::<u64>()) {
                let mut rng = TestRng::new(seed);
                let st = State {
                    wmes: (0..3).map(|_| wme(&mut rng)).collect(),
                    keys: (0..3).map(|_| key(&mut rng)).collect(),
                    items: (0..3).map(|_| item(&mut rng)).collect(),
                    rows: (0..3).map(|_| rows(&mut rng)).collect(),
                };
                let evs = events(&mut rng, &st);
                for &ev in &evs {
                    let (mut stored, mut owned, mut drained) = (Vec::new(), Vec::new(), Vec::new());
                    encode_event(&mut owned, &ev.to_owned());
                    encode_stored(&mut stored, ev);
                    drain_event(&stored, &mut drained).unwrap();
                    prop_assert_eq!(drained, owned);
                }
                let (mut borrowed, mut owned) = (Flight::recording(64), Flight::recording(64));
                let cap_bytes = 40 + rng.below(400) as usize;
                let mut tight = Ring::new(16);
                tight.cap_bytes = cap_bytes;
                for &ev in &evs {
                    borrowed.record_ref(ev);
                    owned.record_event(&ev.to_owned());
                    tight.push_with(|out| {
                        encode_stored(out, ev);
                        true
                    });
                    prop_assert!(tight.stored() <= cap_bytes, "{} > {}", tight.stored(), cap_bytes);
                }
                prop_assert_eq!(borrowed.events_bytes(), owned.events_bytes());
                let back: Vec<TraceEvent> = evs.iter().map(|&ev| ev.to_owned()).collect();
                prop_assert_eq!(borrowed.events(), back);
                // The tight ring kept the newest frames that fit at all,
                // in order; the rest count as evicted.
                let kept = decode_events(&tight.bytes(drain_event)).unwrap();
                prop_assert_eq!(kept.len() as u64 + tight.evicted, evs.len() as u64);
                let fitting: Vec<TraceEvent> = evs
                    .iter()
                    .filter(|&&ev| {
                        let mut frame = Vec::new();
                        encode_stored(&mut frame, ev);
                        frame.len() + 4 <= cap_bytes
                    })
                    .map(|&ev| ev.to_owned())
                    .collect();
                prop_assert_eq!(&kept[..], &fitting[fitting.len() - kept.len()..]);
            }
        }

        /// The ring keeps a hot event's symbols as ids: a WME whose class
        /// and value are 1 000-byte symbols takes a few bytes stored and
        /// its full text once drained.
        #[test]
        fn hot_events_are_stored_without_text() {
            let long = "x".repeat(1000);
            let wme = Wme::new(
                TimeTag::new(1),
                Symbol::new(&long),
                vec![(Symbol::new("a"), Value::sym(&long))],
            );
            let ev = EventRef::WmeAssert {
                cycle: 0,
                wme: &wme,
            };
            let mut f = Flight::recording(8);
            f.record_ref(ev);
            let stored = f.events.buf.len();
            assert!(stored < 32, "{} bytes stored", stored);
            assert!(f.events_bytes().len() > 2000);
            assert_eq!(f.events(), vec![ev.to_owned()]);
        }
    }
}
