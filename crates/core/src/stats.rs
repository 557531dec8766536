//! Run statistics: the measurements behind the paper's efficiency claims
//! (rule firings, actions per firing, working-memory churn).

use sorete_base::FxHashMap;
use sorete_base::Symbol;

/// Counters for one rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Times the rule fired.
    pub firings: u64,
    /// Primitive actions its firings performed.
    pub actions: u64,
}

/// Counters for a whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Rule firings (recognise–act cycles that executed a RHS).
    pub firings: u64,
    /// `make` actions (including the re-assert half of `modify`).
    pub makes: u64,
    /// `remove` actions (including the retract half of `modify`).
    pub removes: u64,
    /// `modify` / `set-modify` element updates.
    pub modifies: u64,
    /// `write` lines emitted.
    pub writes: u64,
    /// All primitive actions (makes + removes + modifies counted once +
    /// writes + binds).
    pub actions: u64,
    /// `remove`/`modify` actions that targeted an already-dead time tag and
    /// were skipped (overlapping set operations make this legal).
    pub skipped_actions: u64,
    /// Failed firings rolled back (every [`crate::OnFailure`] mode but
    /// `Abort`).
    pub rolled_back: u64,
    /// Per-rule breakdown.
    pub per_rule: FxHashMap<Symbol, RuleStats>,
}

impl RunStats {
    /// Average primitive actions per firing — the paper's parallelism
    /// proxy (§1: per-firing work bounds the achievable speed-up).
    pub fn actions_per_firing(&self) -> f64 {
        if self.firings == 0 {
            0.0
        } else {
            self.actions as f64 / self.firings as f64
        }
    }

    /// Firing count for one rule.
    pub fn rule_firings(&self, rule: Symbol) -> u64 {
        self.per_rule.get(&rule).map(|r| r.firings).unwrap_or(0)
    }

    /// The per-rule breakdown sorted by rule name — the *only* order any
    /// display or serialization of [`RunStats::per_rule`] should use, so
    /// output is deterministic across runs and hash seeds.
    pub fn per_rule_sorted(&self) -> Vec<(Symbol, RuleStats)> {
        let mut rows: Vec<(Symbol, RuleStats)> =
            self.per_rule.iter().map(|(s, r)| (*s, *r)).collect();
        rows.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rule_sorted_orders_by_name() {
        let mut s = RunStats::default();
        for name in ["zeta", "alpha", "mid"] {
            s.per_rule.insert(
                Symbol::new(name),
                RuleStats {
                    firings: 1,
                    actions: 2,
                },
            );
        }
        let names: Vec<&str> = s
            .per_rule_sorted()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn actions_per_firing_handles_zero() {
        let s = RunStats::default();
        assert_eq!(s.actions_per_firing(), 0.0);
        let s = RunStats {
            firings: 2,
            actions: 7,
            ..Default::default()
        };
        assert_eq!(s.actions_per_firing(), 3.5);
    }
}
