//! The run policy: when a recognise–act run stops, and what it does after
//! a failed firing. The paper's §8 makes a firing a transaction inside the
//! recognise–act loop; when that loop stops is part of what a rule program
//! means, so one [`RunPolicy`] value says it all and the engine checks it
//! at one point per cycle, together with the firing limit and the
//! interrupt flag. Pure data plus the per-rule [`Breakers`] — no I/O — so
//! breaker transitions and backoff schedules are deterministic.

use sorete_base::{FxHashMap, Symbol};
use std::path::PathBuf;
use std::time::Duration;

/// When a run stops and what it does after a failed firing. The default
/// has no limits, rolls a failed firing back and stops, and retries no
/// I/O.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunPolicy {
    /// Resource rows, each with an optional soft and hard bound.
    pub limits: Limits,
    /// What a failed firing does to the run.
    pub on_failure: OnFailure,
    /// Backoff for transient durable-I/O errors; `None` surfaces the
    /// first failure.
    pub retry: Option<RetryPolicy>,
    /// Where orderly halts (a tripped bound, an interrupt) and soft trips
    /// cut a checkpoint; `None` halts in order without one.
    pub checkpoint: Option<PathBuf>,
}

impl RunPolicy {
    /// The supervised preset: transient I/O retried at the default
    /// backoff, and a rule whose rolled-back firings trip the default
    /// breaker quarantined while the run goes on.
    pub fn supervised() -> RunPolicy {
        RunPolicy {
            on_failure: OnFailure::Quarantine(BreakerPolicy::default()),
            retry: Some(RetryPolicy::default()),
            ..RunPolicy::default()
        }
    }

    /// Whether the policy supervises: it retries I/O or quarantines rules.
    /// Only then are caught panics counted in [`SupervisorStats`].
    pub fn is_supervised(&self) -> bool {
        self.retry.is_some() || self.on_failure.breaker().is_some()
    }
}

/// The resource rows. A row without a bound costs nothing per cycle: no
/// clock read without a wall bound, no memory report without a bytes one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock time of one run.
    pub wall: Bound<Duration>,
    /// The matcher's live bytes, as its memory report counts them.
    pub bytes: Bound<u64>,
    /// WMEs in working memory (hard bound only).
    pub wm: Option<usize>,
    /// Consecutive firings of one rule that leave the WME count unchanged
    /// (hard bound only) — catches modify-loops that never quiesce.
    pub stagnant: Option<u64>,
}

/// A row's bounds. Soft: checkpoint and a `Degrade` event, once per run
/// (one latch for all rows), and the run goes on. Hard: checkpoint and
/// `ResourceExhausted` — an orderly, resumable halt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bound<T> {
    /// Checkpoint and warn.
    pub soft: Option<T>,
    /// Checkpoint and stop.
    pub hard: Option<T>,
}

/// What the run does when a firing fails (an RHS error, a caught panic, a
/// refused WAL commit). Continuing past a failure without rolling it back
/// cannot be expressed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnFailure {
    /// Stop the run; the failed firing's partial effects remain (so a
    /// firing journals nothing for rollback).
    Abort,
    /// Roll the failed firing back — working memory, matcher memories,
    /// conflict set, refraction, output and the `halt` flag return to
    /// their pre-firing state — and stop the run.
    #[default]
    Rollback,
    /// Roll the failed firing back, keep it refracted, and go on.
    Skip,
    /// Roll the failed firing back and go on; a rule whose firings fail
    /// (RHS error, injected fault, caught panic) `max_failures` times
    /// within the window is quarantined — its instantiations stay derived
    /// but are not selected until re-admitted. The failed instantiation
    /// may be selected again. A durability failure is engine-scoped: it
    /// stops the run.
    Quarantine(BreakerPolicy),
    /// [`OnFailure::Quarantine`], keeping the failed instantiation
    /// refracted as [`OnFailure::Skip`] does; a durability failure is
    /// skipped too.
    SkipQuarantine(BreakerPolicy),
}

impl OnFailure {
    /// Whether a failed firing is rolled back (every mode but `Abort`).
    pub fn rolls_back(self) -> bool {
        self != OnFailure::Abort
    }

    /// Whether a failed instantiation stays refracted.
    pub fn skips(self) -> bool {
        matches!(self, OnFailure::Skip | OnFailure::SkipQuarantine(_))
    }

    /// The circuit breakers, when the mode quarantines.
    pub fn breaker(self) -> Option<BreakerPolicy> {
        match self {
            OnFailure::Quarantine(b) | OnFailure::SkipQuarantine(b) => Some(b),
            _ => None,
        }
    }

    /// This mode with circuit breakers: `Rollback` and `Skip` become
    /// `Quarantine` and `SkipQuarantine`. Breakers continue past a
    /// failure, which `Abort` cannot roll back: `None`.
    pub fn with_breakers(self, breaker: BreakerPolicy) -> Option<OnFailure> {
        match self {
            OnFailure::Abort => None,
            f if f.skips() => Some(OnFailure::SkipQuarantine(breaker)),
            _ => Some(OnFailure::Quarantine(breaker)),
        }
    }
}

/// What `ProductionSystem::enable_supervision` takes. Kept only because
/// the benchmark ladder (`benchmark/src/layers.rs`) still builds one, and
/// the benchmark crate changes only in benchmark-only commits: the one
/// that moves that call to [`RunPolicy::supervised`] deletes this.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorConfig;

/// splitmix64 — the mixer behind the retry jitter and `FaultPlan::seeded`,
/// so every deterministic knob in the fault-injection story shares one
/// generator.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Capped exponential backoff with deterministic jitter, for retrying
/// *transient* durable-I/O failures (a clean WAL append failure that did
/// not poison the log). Poisoned logs are never retried — their on-disk
/// state is unknowable and only reopen-with-recovery re-establishes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the initial failure (0 disables retrying).
    pub max_attempts: u32,
    /// Backoff base: the first retry waits about this long.
    pub base_micros: u64,
    /// Backoff ceiling; the exponential curve saturates here.
    pub cap_micros: u64,
    /// Jitter seed. The whole schedule is a pure function of
    /// `(seed, attempt)` — sweep tests replay it exactly.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_micros: 500,
            cap_micros: 50_000,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (1-based), in
    /// microseconds: `min(cap, base · 2^(attempt-1))` scaled into
    /// `[raw/2, raw]` by deterministic jitter. Pure — no clock, no RNG
    /// state — so schedules are replayable and testable.
    pub fn delay_micros(&self, attempt: u32) -> u64 {
        let attempt = attempt.max(1);
        let exp = (attempt - 1).min(20);
        let cap = self.cap_micros.max(self.base_micros);
        let raw = self.base_micros.saturating_mul(1u64 << exp).min(cap);
        let half = raw / 2;
        half + splitmix64(self.seed ^ u64::from(attempt)) % (raw - half + 1)
    }

    /// The full delay schedule, for diagnostics and tests.
    pub fn schedule(&self) -> Vec<u64> {
        (1..=self.max_attempts)
            .map(|a| self.delay_micros(a))
            .collect()
    }
}

/// When does a rule's circuit breaker trip?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Failures (RHS error, injected fault, or caught panic, each rolled
    /// back) within the window that quarantine the rule.
    pub max_failures: u32,
    /// Window width in recognise–act cycles. Clamped up to at least
    /// `max_failures` — rolled-back firings still advance the cycle
    /// counter, so a narrower window could never accumulate enough
    /// failures to trip and the run would retry forever.
    pub window_cycles: u64,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            max_failures: 3,
            window_cycles: 20,
        }
    }
}

impl BreakerPolicy {
    fn window(&self) -> u64 {
        self.window_cycles.max(u64::from(self.max_failures))
    }
}

/// Counters the supervisor accumulates. Deliberately *not* part of
/// [`crate::RunStats`]: run stats are serialized byte-for-byte into cycle
/// markers and checkpoints, and supervision activity must not perturb
/// those formats (recovered stats stay byte-identical to the oracle's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Panics caught unwinding out of firings.
    pub panics_caught: u64,
    /// Durable-I/O retry attempts performed.
    pub io_retries: u64,
    /// Circuit-breaker trips (rules quarantined).
    pub quarantines: u64,
    /// Quarantined rules re-admitted.
    pub readmissions: u64,
    /// Soft-budget degradations (automatic checkpoints).
    pub soft_degrades: u64,
    /// Hard-budget degradations (orderly halts).
    pub hard_degrades: u64,
}

/// One rule's breaker: recent failure cycles plus the tripped flag.
#[derive(Clone, Debug, Default)]
struct BreakerState {
    /// Cycle numbers of recent failures (pruned to the window).
    failures: Vec<u64>,
    tripped: bool,
}

/// Per-rule circuit breakers: each rule's recent failure cycles and
/// whether its breaker tripped. Deterministic: the state depends only on
/// the `(rule, cycle)` sequence fed to [`Breakers::record_failure`].
#[derive(Debug, Default)]
pub struct Breakers {
    rules: FxHashMap<Symbol, BreakerState>,
}

impl Breakers {
    /// Record one failed (rolled-back) firing of `rule` at `cycle` under
    /// `policy`. Returns `Some(failure_count)` when this failure *newly*
    /// trips the breaker — the caller quarantines the rule.
    pub fn record_failure(
        &mut self,
        policy: BreakerPolicy,
        rule: Symbol,
        cycle: u64,
    ) -> Option<u32> {
        let window = policy.window();
        let max = policy.max_failures.max(1);
        let st = self.rules.entry(rule).or_default();
        st.failures.push(cycle);
        st.failures.retain(|&c| cycle.saturating_sub(c) < window);
        let count = st.failures.len() as u32;
        if !st.tripped && count >= max {
            st.tripped = true;
            Some(count)
        } else {
            None
        }
    }

    /// Is `rule`'s breaker currently tripped?
    pub fn is_tripped(&self, rule: Symbol) -> bool {
        self.rules.get(&rule).is_some_and(|s| s.tripped)
    }

    /// Reset `rule`'s breaker (re-admission). Returns `true` when the
    /// breaker was tripped.
    pub fn readmit(&mut self, rule: Symbol) -> bool {
        self.rules.remove(&rule).is_some_and(|s| s.tripped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_micros: 100,
            cap_micros: 1_000,
            seed: 42,
        };
        let a = p.schedule();
        let b = p.schedule();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 8);
        for (i, &d) in a.iter().enumerate() {
            assert!(d <= 1_000, "attempt {} delay {} exceeds cap", i + 1, d);
            assert!(d >= 50, "attempt {} delay {} below base/2", i + 1, d);
        }
        // A different seed reshuffles jitter but respects the same bounds.
        let q = RetryPolicy { seed: 43, ..p };
        assert_ne!(q.schedule(), a, "jitter depends on the seed");
    }

    #[test]
    fn backoff_grows_exponentially_before_the_cap() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_micros: 100,
            cap_micros: 1 << 40,
            seed: 7,
        };
        // raw doubles each attempt; jitter keeps delays within [raw/2, raw],
        // so attempt n+2's minimum (2·raw(n)) clears attempt n's maximum.
        let s = p.schedule();
        assert!(s[2] > s[0] && s[3] > s[1], "{:?}", s);
    }

    fn breaker(max_failures: u32, window_cycles: u64) -> BreakerPolicy {
        BreakerPolicy {
            max_failures,
            window_cycles,
        }
    }

    #[test]
    fn breaker_trips_once_within_window() {
        let p = breaker(3, 10);
        let mut b = Breakers::default();
        let r = Symbol::new("hot");
        assert_eq!(b.record_failure(p, r, 1), None);
        assert_eq!(b.record_failure(p, r, 2), None);
        assert_eq!(b.record_failure(p, r, 3), Some(3), "third failure trips");
        assert!(b.is_tripped(r));
        assert_eq!(b.record_failure(p, r, 4), None, "trips only once");
        assert!(b.readmit(r));
        assert!(!b.is_tripped(r));
        assert!(!b.readmit(r), "second readmit is a no-op");
    }

    #[test]
    fn breaker_window_forgets_old_failures() {
        let p = breaker(3, 5);
        let mut b = Breakers::default();
        let r = Symbol::new("flaky");
        assert_eq!(b.record_failure(p, r, 1), None);
        assert_eq!(b.record_failure(p, r, 2), None);
        // Cycle 20 is far outside the window: the old failures age out.
        assert_eq!(b.record_failure(p, r, 20), None);
        assert!(!b.is_tripped(r));
    }

    #[test]
    fn breaker_window_clamps_to_max_failures() {
        // A 1-cycle window with max_failures 3 could never trip (each
        // failure evicts the previous); the clamp keeps it live.
        let p = breaker(3, 1);
        let mut b = Breakers::default();
        let r = Symbol::new("r");
        assert_eq!(b.record_failure(p, r, 1), None);
        assert_eq!(b.record_failure(p, r, 2), None);
        assert_eq!(b.record_failure(p, r, 3), Some(3));
    }

    #[test]
    fn breakers_need_rollback() {
        let p = BreakerPolicy::default();
        assert_eq!(OnFailure::Abort.with_breakers(p), None);
        assert_eq!(
            OnFailure::Rollback.with_breakers(p),
            Some(OnFailure::Quarantine(p))
        );
        let skip = OnFailure::Skip.with_breakers(p).unwrap();
        assert!(skip.skips() && skip.rolls_back());
        assert!(RunPolicy::supervised().is_supervised());
        assert!(!RunPolicy::default().is_supervised());
    }
}
