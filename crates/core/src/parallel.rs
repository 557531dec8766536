//! Partitioned parallel matching: rules sharded across independent match
//! networks, working-memory changes fanned out over a worker pool.
//!
//! # Partitioning scheme
//!
//! Parallelising *one* Rete network while keeping its delta stream
//! deterministic is a losing fight — alpha memories are shared between
//! rules, join emission order interleaves across subtrees, and every token
//! structure would need locks on the hot path. Instead (following the
//! Hiperfact line of work) we shard the *rule base*: `PARTITIONS` complete
//! inner matchers, production `i` compiled into shard `i % PARTITIONS`.
//! Each shard runs its ordinary sequential algorithm over its own private
//! memories, buffering conflict-set deltas locally.
//!
//! # Live shards
//!
//! A WM change is fanned out on the pool to the *live* shards only — the
//! ones that have been routed a rule. Rules go round-robin, so the live
//! set is always the prefix `0..max(1, min(rules ever added, shards))` and
//! needs no state of its own; a rule base smaller than the shard count
//! neither feeds nor fills the networks it does not use, and with a single
//! live shard the pool's inline path runs (no fork/join per WME). Shard 0
//! is live from the start, so it is the one place that remembers facts
//! asserted before any rule exists. When `add_rule` routes the first rule
//! to a fresh shard, that shard is first bulk-loaded from shard 0's facts
//! in ascending tag order ([`Matcher::wmes_by_tag`] →
//! [`Matcher::rebuild_from`]); backends backfill a late rule in tag order
//! too, so a shard seeded at that moment is indistinguishable from one
//! that was fed all along. Every live shard still holds its own copy of
//! every fact.
//!
//! # Deterministic merge invariant
//!
//! [`Matcher::drain_deltas`] concatenates the per-shard buffers **in shard
//! order**. Within a shard the ordinary sequential emission order is
//! preserved; across shards the order is fixed by the static partition
//! map. Neither depends on thread scheduling, so the merged logical delta
//! stream — and therefore conflict-set arrival order, which LEX/MEA use as
//! a final tie-break — is byte-identical for every `jobs` value. The
//! partition count is a *constant* (never derived from `jobs`) for
//! exactly this reason. A shard without a rule never emitted a delta, so
//! skipping it leaves the stream as it was.
//!
//! Shards assign their own dense local [`RuleId`]s; this wrapper owns the
//! global id space and remaps rule ids in every delta, key, and
//! materialised item that crosses the boundary.

use crate::engine::MatcherKind;
use sorete_base::{
    ConflictItem, CsDelta, InstKey, MatchStats, MemoryReport, NetProfile, RuleId, Spans, TimeTag,
    Tracer, Wme, WorkerPool,
};
use sorete_lang::analyze::AnalyzedRule;
use sorete_lang::matcher::Matcher;
use sorete_naive::NaiveMatcher;
use sorete_rete::ReteMatcher;
use sorete_treat::TreatMatcher;
use std::sync::{Arc, Mutex};

/// Default shard count, independent of the worker count so the merged
/// delta stream is identical at every `--jobs` level (see module docs).
/// Configurable per matcher via [`ParallelMatcher::with_pool_shards`]
/// (`--shards N` on the CLI) — but still never derived from `jobs`, and
/// changing it changes the partition map, so runs are only comparable at
/// the same shard count.
pub const PARTITIONS: usize = 8;

/// A rule-partitioned parallel matcher over any [`MatcherKind`].
pub struct ParallelMatcher {
    shards: Vec<Mutex<Box<dyn Matcher>>>,
    pool: Arc<WorkerPool>,
    spans: Spans,
    name: &'static str,
    /// Global rule id → (shard, shard-local id).
    route: Vec<(usize, RuleId)>,
    /// Shard → shard-local id index → global id.
    globals: Vec<Vec<RuleId>>,
}

impl ParallelMatcher {
    /// Shard the given backend across [`PARTITIONS`] inner matchers,
    /// driving the live ones with `jobs` pool lanes (1 = sequential
    /// fan-out on the caller's thread; the delta stream does not depend on
    /// this).
    pub fn new(kind: MatcherKind, jobs: usize) -> ParallelMatcher {
        Self::with_pool(kind, Arc::new(WorkerPool::new(jobs)))
    }

    /// Like [`ParallelMatcher::new`] with a shared pool, so the caller
    /// (engine, benches) can read back per-lane busy times.
    pub fn with_pool(kind: MatcherKind, pool: Arc<WorkerPool>) -> ParallelMatcher {
        Self::with_pool_shards(kind, pool, PARTITIONS)
    }

    /// Like [`ParallelMatcher::with_pool`] with an explicit partition
    /// count (`--shards N`). `shards` is clamped to at least 1. The
    /// partition map — and therefore the merged delta stream — depends on
    /// it, so checkpoint-compatible runs must keep it stable; it is still
    /// never derived from `jobs`.
    pub fn with_pool_shards(
        kind: MatcherKind,
        pool: Arc<WorkerPool>,
        shards: usize,
    ) -> ParallelMatcher {
        let shards = shards.max(1);
        let make = |kind: MatcherKind| -> Box<dyn Matcher> {
            match kind {
                MatcherKind::Rete => Box::new(ReteMatcher::new()),
                MatcherKind::ReteScan => Box::new(ReteMatcher::with_indexing(false)),
                MatcherKind::Treat => Box::new(TreatMatcher::new()),
                MatcherKind::Naive => Box::new(NaiveMatcher::new()),
            }
        };
        ParallelMatcher {
            shards: (0..shards).map(|_| Mutex::new(make(kind))).collect(),
            pool,
            spans: Spans::null(),
            name: match kind {
                MatcherKind::Rete => "parallel-rete",
                MatcherKind::ReteScan => "parallel-rete-scan",
                MatcherKind::Treat => "parallel-treat",
                MatcherKind::Naive => "parallel-naive",
            },
            route: Vec::new(),
            globals: vec![Vec::new(); shards],
        }
    }

    /// The shared pool (for busy-time accounting).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The partition count this matcher was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Length of the live prefix: the shards a WM change visits. Rules go
    /// round-robin, so the shards that ever received one are always
    /// `0..min(rules ever added, shards)`; shard 0 is live from the start
    /// and remembers the facts asserted before any rule exists.
    fn live(&self) -> usize {
        self.route.len().clamp(1, self.shards.len())
    }

    /// Rewrite a shard-local key into the global id space.
    fn globalize_key(&self, shard: usize, key: InstKey) -> InstKey {
        match key {
            InstKey::Tuple { rule, tags } => InstKey::Tuple {
                rule: self.globals[shard][rule.index()],
                tags,
            },
            InstKey::Soi { rule, parts } => InstKey::Soi {
                rule: self.globals[shard][rule.index()],
                parts,
            },
        }
    }

    /// Rewrite a global key into its owning shard's local id space.
    fn localize_key(&self, key: &InstKey) -> (usize, InstKey) {
        let (shard, local) = self.route[key.rule().index()];
        let key = match key {
            InstKey::Tuple { tags, .. } => InstKey::Tuple {
                rule: local,
                tags: tags.clone(),
            },
            InstKey::Soi { parts, .. } => InstKey::Soi {
                rule: local,
                parts: parts.clone(),
            },
        };
        (shard, key)
    }

    fn globalize_delta(&self, shard: usize, delta: CsDelta) -> CsDelta {
        match delta {
            CsDelta::Insert(mut item) => {
                item.key = self.globalize_key(shard, item.key);
                CsDelta::Insert(item)
            }
            CsDelta::Remove(key) => CsDelta::Remove(self.globalize_key(shard, key)),
            CsDelta::Retime(mut info) => {
                info.key = self.globalize_key(shard, info.key);
                CsDelta::Retime(info)
            }
        }
    }
}

impl Matcher for ParallelMatcher {
    fn add_rule(&mut self, rule: Arc<AnalyzedRule>) -> RuleId {
        let shard = self.route.len() % self.shards.len();
        if shard == self.live() {
            // First rule on a fresh shard: bring it to shard 0's facts
            // before it compiles the rule, so the rule backfills exactly
            // as it would had the shard been fed all along.
            let facts = self.shards[0].lock().unwrap().wmes_by_tag();
            self.shards[shard].lock().unwrap().rebuild_from(&facts);
        }
        let local = self.shards[shard].lock().unwrap().add_rule(rule);
        debug_assert_eq!(local.index(), self.globals[shard].len());
        let global = RuleId::new(self.route.len());
        self.globals[shard].push(global);
        self.route.push((shard, local));
        global
    }

    fn insert_wme(&mut self, wme: &Wme) {
        let shards = &self.shards;
        let spans = &self.spans;
        self.pool.for_each_index_lane(self.live(), &|i, lane| {
            let sp = spans.begin();
            shards[i].lock().unwrap().insert_wme(wme);
            spans.end_shard(sp, lane as u32, i);
        });
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let shards = &self.shards;
        let spans = &self.spans;
        self.pool.for_each_index_lane(self.live(), &|i, lane| {
            let sp = spans.begin();
            shards[i].lock().unwrap().remove_wme(wme);
            spans.end_shard(sp, lane as u32, i);
        });
    }

    fn drain_deltas(&mut self) -> Vec<CsDelta> {
        let mut out = Vec::new();
        for shard in 0..self.live() {
            let drained = self.shards[shard].lock().unwrap().drain_deltas();
            out.extend(drained.into_iter().map(|d| self.globalize_delta(shard, d)));
        }
        out
    }

    fn materialize(&self, key: &InstKey) -> Option<ConflictItem> {
        let (shard, local) = self.localize_key(key);
        let mut item = self.shards[shard].lock().unwrap().materialize(&local)?;
        item.key = self.globalize_key(shard, item.key);
        Some(item)
    }

    fn rebuild_from(&mut self, wmes: &[Wme]) {
        let shards = &self.shards;
        self.pool.for_each_index(self.live(), &|i| {
            shards[i].lock().unwrap().rebuild_from(wmes);
        });
    }

    fn wmes_by_tag(&self) -> Vec<Wme> {
        self.shards[0].lock().unwrap().wmes_by_tag()
    }

    fn stats(&self) -> MatchStats {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().stats())
            .fold(MatchStats::default(), |acc, s| acc.merged(&s))
    }

    fn algorithm_name(&self) -> &'static str {
        self.name
    }

    fn to_dot(&self) -> Option<String> {
        // Each shard renders a full digraph; splice their bodies into one
        // valid graph as clusters.
        let mut out = String::from("digraph parallel {\n");
        let mut any = false;
        for (i, s) in self.shards.iter().enumerate() {
            let Some(dot) = s.lock().unwrap().to_dot() else {
                continue;
            };
            let body = dot
                .find('{')
                .and_then(|open| dot.rfind('}').map(|close| &dot[open + 1..close]))
                .unwrap_or(&dot);
            out.push_str(&format!("subgraph cluster_shard{i} {{\n"));
            out.push_str(&format!("label=\"shard {i}\";\n"));
            // Prefix node names so shards don't collide.
            for line in body.lines() {
                out.push_str(
                    &line
                        .replace("n_", &format!("s{i}_n_"))
                        .replace("alpha_", &format!("s{i}_alpha_")),
                );
                out.push('\n');
            }
            out.push_str("}\n");
            any = true;
        }
        out.push_str("}\n");
        any.then_some(out)
    }

    fn validate(&self) -> Result<(), String> {
        let tags = |i: usize| -> Vec<TimeTag> {
            let facts = self.shards[i].lock().unwrap().wmes_by_tag();
            facts.iter().map(|w| w.tag).collect()
        };
        let (live, want) = (self.live(), tags(0));
        for (i, s) in self.shards.iter().enumerate() {
            s.lock()
                .unwrap()
                .validate()
                .map_err(|e| format!("shard {i}: {e}"))?;
            if i == 0 {
                continue;
            }
            // What skipping rests on: a live shard holds exactly shard 0's
            // facts, a shard past the live prefix holds nothing at all.
            let got = tags(i);
            if i < live && got != want {
                return Err(format!(
                    "shard {i}: holds {} fact(s) where shard 0 holds {}",
                    got.len(),
                    want.len()
                ));
            }
            if i >= live && !(got.is_empty() && self.globals[i].is_empty()) {
                return Err(format!(
                    "shard {i}: past the live prefix 0..{live} yet holds {} fact(s) and {} rule(s)",
                    got.len(),
                    self.globals[i].len()
                ));
            }
        }
        Ok(())
    }

    fn remove_rule(&mut self, rule: RuleId) {
        let (shard, local) = self.route[rule.index()];
        self.shards[shard].lock().unwrap().remove_rule(local);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        for s in &self.shards {
            s.lock().unwrap().set_tracer(tracer.clone());
        }
    }

    fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
    }

    fn set_profiling(&mut self, on: bool) {
        for s in &self.shards {
            s.lock().unwrap().set_profiling(on);
        }
    }

    fn profile(&self) -> Option<NetProfile> {
        let mut merged = NetProfile {
            algorithm: self.name.to_string(),
            nodes: Vec::new(),
        };
        let mut any = false;
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(p) = s.lock().unwrap().profile() {
                for mut n in p.nodes {
                    n.id = format!("s{i}:{}", n.id);
                    merged.nodes.push(n);
                }
                any = true;
            }
        }
        any.then_some(merged)
    }

    fn rule_network_path(&self, rule: RuleId) -> Option<Vec<String>> {
        let (shard, local) = self.route[rule.index()];
        self.shards[shard].lock().unwrap().rule_network_path(local)
    }

    fn memory_report(&self) -> MemoryReport {
        // Shards report the same region names; sum like-for-like so the
        // metrics gauges keep one series per region.
        let mut merged = MemoryReport::default();
        for s in &self.shards {
            for r in s.lock().unwrap().memory_report().regions {
                match merged.regions.iter_mut().find(|m| m.name == r.name) {
                    Some(m) => {
                        m.bytes += r.bytes;
                        m.entries += r.entries;
                    }
                    None => merged.regions.push(r),
                }
            }
        }
        merged
    }

    fn metric_counters(&self, out: &mut Vec<(&'static str, u64)>) {
        let base = out.len();
        let mut shard: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.shards {
            shard.clear();
            s.lock().unwrap().metric_counters(&mut shard);
            for &(k, v) in &shard {
                match out[base..].iter_mut().find(|(mk, _)| *mk == k) {
                    Some((_, mv)) => *mv += v,
                    None => out.push((k, v)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_base::{Symbol, Value};
    use sorete_lang::{analyze_rule, parse_rule};

    fn wme(tag: u64) -> Wme {
        let slots = vec![(Symbol::new("x"), Value::Int(tag as i64))];
        Wme::new(TimeTag::new(tag), Symbol::new("a"), slots)
    }

    /// Two rules over four shards: shards 0 and 1 live, 2 and 3 not.
    fn two_of_four() -> ParallelMatcher {
        let pool = Arc::new(WorkerPool::new(1));
        let mut m = ParallelMatcher::with_pool_shards(MatcherKind::Rete, pool, 4);
        m.insert_wme(&wme(1));
        for name in ["r0", "r1"] {
            let src = format!("(p {name} (a ^x <v>) (halt))");
            m.add_rule(Arc::new(analyze_rule(&parse_rule(&src).unwrap()).unwrap()));
        }
        m.insert_wme(&wme(2));
        m
    }

    #[test]
    fn validate_names_the_shard_that_broke_the_live_prefix() {
        let m = two_of_four();
        assert_eq!(m.live(), 2);
        m.validate().unwrap();
        // Shard 1 was seeded with the fact that predates its rule.
        assert_eq!(m.shards[1].lock().unwrap().wmes_by_tag().len(), 2);

        // A stray fact in a live shard: it no longer lists shard 0's tags.
        m.shards[1].lock().unwrap().insert_wme(&wme(9));
        let err = m.validate().unwrap_err();
        assert!(err.starts_with("shard 1: holds 3 fact(s)"), "{err}");

        // A stray fact past the live prefix.
        let m = two_of_four();
        m.shards[3].lock().unwrap().insert_wme(&wme(9));
        let err = m.validate().unwrap_err();
        assert!(
            err.starts_with("shard 3: past the live prefix 0..2"),
            "{err}"
        );
    }
}
