//! Spans recorded from the benchmark's own side of each call into a
//! layer: `round → {ingest → [encode_request, loopback | assert_wme],
//! query, run → step*, retract}`. Kept in memory, written out at exit.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or -1 for a round.
    pub parent: i64,
    pub round: u32,
}

/// Handle returned by [`Tracer::begin`]; a disabled tracer hands out a
/// token that [`Tracer::end`] ignores.
#[derive(Clone, Copy)]
pub struct Open(usize);

const DISABLED: usize = usize::MAX;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(DISABLED);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().map_or(-1, |&p| p as i64),
            round: self.round,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == DISABLED {
            return;
        }
        self.spans[open.0].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
    }

    /// Self time per span name: duration minus the part children cover.
    /// Returned sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if s.parent >= 0 {
                let d = s.end_ns.saturating_sub(s.start_ns);
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(d);
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for (s, t) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_default() += t;
        }
        by_name.into_iter().collect()
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    /// Microseconds spent in spans called `name`, one entry per round.
    pub fn per_round_us(&self, name: &str) -> Vec<f64> {
        let mut by_round: std::collections::BTreeMap<u32, u64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.round).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
        by_round.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// One JSON array of `{name,start_ns,end_ns,parent,round}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.round
            );
        }
        out.push_str("\n]\n");
        out
    }
}
