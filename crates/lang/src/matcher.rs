//! The interface every match algorithm implements.
//!
//! The engine drives a matcher through working-memory changes and reads back
//! conflict-set deltas — the `+` / `-` / `time` token protocol of the
//! paper's §5. Rete (`sorete-rete`), TREAT (`sorete-treat`) and the naive
//! oracle (`sorete-naive`) are interchangeable behind this trait.

use crate::analyze::AnalyzedRule;
use sorete_base::{
    ConflictItem, CsDelta, InstKey, MatchStats, MemoryReport, NetProfile, RuleId, Tracer, Wme,
};
use std::sync::Arc;

/// A production-match algorithm.
///
/// `Send` is a supertrait so an engine, which owns its matcher as a
/// `Box<dyn Matcher>`, can move between threads: the daemon hands each
/// session's engine to whichever connection thread serves it.
pub trait Matcher: Send {
    /// Compile a production into the match network. Returns the id the
    /// matcher will use in conflict-set deltas. Ids are assigned densely in
    /// call order, so the caller can index its own rule table with them.
    fn add_rule(&mut self, rule: Arc<AnalyzedRule>) -> RuleId;

    /// A WME entered working memory.
    fn insert_wme(&mut self, wme: &Wme);

    /// A WME left working memory.
    fn remove_wme(&mut self, wme: &Wme);

    /// Conflict-set changes accumulated since the previous drain, in
    /// emission order.
    fn drain_deltas(&mut self) -> Vec<CsDelta>;

    /// Fetch the current full contents of a conflict-set entry. `time`
    /// tokens are slim (the paper passes "only a pointer"); the engine
    /// calls this when an entry actually fires.
    ///
    /// For SOI keys, returns `None` when the γ-entry is gone or inactive.
    /// Tuple keys are fully determined by their tags, so matchers may
    /// reconstruct them unconditionally — callers only pass keys they saw
    /// in un-retracted deltas.
    fn materialize(&self, key: &InstKey) -> Option<ConflictItem>;

    /// Bulk-load a working memory into the network, in slice order —
    /// checkpoint resume rebuilding matcher state (γ-memories included)
    /// from the surviving WMEs. The default feeds [`Self::insert_wme`]
    /// one WME at a time; backends with a cheaper batch path may
    /// override. Callers drain deltas once afterwards.
    fn rebuild_from(&mut self, wmes: &[Wme]) {
        for w in wmes {
            self.insert_wme(w);
        }
    }

    /// Work counters.
    fn stats(&self) -> MatchStats;

    /// Short algorithm name for reports ("rete", "treat", "naive").
    fn algorithm_name(&self) -> &'static str;

    /// Graphviz rendering of the match network, if the algorithm has one.
    fn to_dot(&self) -> Option<String> {
        None
    }

    /// Exhaustive internal-consistency check (a test/debug aid, not part
    /// of the match protocol). Matchers that maintain derived state — the
    /// Rete hash-join indexes, the live-set counts behind
    /// [`Self::memory_report`] — compare it against a from-scratch rebuild
    /// or recount and report the first divergence.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Excise a production: its conflict-set entries are retracted (as
    /// `Remove` deltas) and it never matches again. The id remains
    /// allocated (ids are positional) but inert.
    fn remove_rule(&mut self, rule: RuleId);

    /// Install the tracer through which the matcher emits *physical*
    /// [`sorete_base::TraceEvent`]s (alpha/beta activations, join probes,
    /// S-node activity). The default implementation ignores it; backends
    /// without instrumentation simply stay silent.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Enable or disable per-node profiling (activation counts and
    /// self-time attribution). Off by default; matchers without a network
    /// to profile ignore the call.
    fn set_profiling(&mut self, _on: bool) {}

    /// The per-node profile gathered since [`Matcher::set_profiling`] was
    /// enabled, or `None` when the backend does not profile.
    fn profile(&self) -> Option<NetProfile> {
        None
    }

    /// The static network path from the entry alpha memories down to the
    /// production node for `rule`, hottest description first — used by the
    /// `explain` command. `None` for backends without a network.
    fn rule_network_path(&self, _rule: RuleId) -> Option<Vec<String>> {
        None
    }

    /// Point-in-time byte-level memory accounting, one
    /// [`sorete_base::MemoryRegion`] per internal store (alpha memories,
    /// beta tokens, γ-memories, hash-index buckets, ...). Live-set
    /// methodology — see [`MemoryReport`]. The default reports nothing.
    /// The engine samples this once per cycle when metrics are enabled,
    /// once per firing under memory budgets, and the daemon once per
    /// request, so a serving backend answers from counts it maintains
    /// (Rete does; its full recount is the oracle inside
    /// [`Self::validate`]).
    fn memory_report(&self) -> MemoryReport {
        MemoryReport::default()
    }

    /// Backend-specific monotone counters beyond [`MatchStats`] — e.g. the
    /// S-node `+`/`-`/`time` token counts and γ-entry churn — appended to
    /// `out` (the engine samples once per cycle into a reused buffer).
    /// Each entry is `(kind, total)`; the engine exposes them as one
    /// labeled counter family. The default reports nothing.
    fn metric_counters(&self, _out: &mut Vec<(&'static str, u64)>) {}
}
