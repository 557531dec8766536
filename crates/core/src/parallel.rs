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
//! Every WM change is fanned out to all shards on the pool; each shard
//! runs its ordinary sequential algorithm over its own private memories,
//! buffering conflict-set deltas locally.
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
//! exactly this reason.
//!
//! Shards assign their own dense local [`RuleId`]s; this wrapper owns the
//! global id space and remaps rule ids in every delta, key, and
//! materialised item that crosses the boundary.

use crate::engine::MatcherKind;
use sorete_base::{
    ConflictItem, CsDelta, InstKey, MatchStats, MemoryReport, NetProfile, RuleId, Spans, Tracer,
    Wme, WorkerPool,
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
    /// driving them with `jobs` pool lanes (1 = sequential fan-out on the
    /// caller's thread; the delta stream does not depend on this).
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
        self.pool.for_each_index_lane(shards.len(), &|i, lane| {
            let sp = spans.begin();
            shards[i].lock().unwrap().insert_wme(wme);
            spans.end_shard(sp, lane as u32, i);
        });
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let shards = &self.shards;
        let spans = &self.spans;
        self.pool.for_each_index_lane(shards.len(), &|i, lane| {
            let sp = spans.begin();
            shards[i].lock().unwrap().remove_wme(wme);
            spans.end_shard(sp, lane as u32, i);
        });
    }

    fn drain_deltas(&mut self) -> Vec<CsDelta> {
        let mut out = Vec::new();
        for shard in 0..self.shards.len() {
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
        self.pool.for_each_index(shards.len(), &|i| {
            shards[i].lock().unwrap().rebuild_from(wmes);
        });
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
        for (i, s) in self.shards.iter().enumerate() {
            s.lock()
                .unwrap()
                .validate()
                .map_err(|e| format!("shard {i}: {e}"))?;
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
