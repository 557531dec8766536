//! The live-set counts behind `memory_report()` against the walk oracle.
//!
//! `ReteMatcher::memory_report` multiplies counts that are maintained at
//! the mutation sites; `walk_memory_report` recounts the same figures from
//! every bucket, token, γ-entry and WME. The two must agree region by
//! region — bytes *and* entries — after every operation the matcher
//! supports, in any order.

use proptest::prelude::*;
use sorete_base::{Symbol, TimeTag, Value, Wme};
use sorete_lang::{analyze_rule, parse_rule, Matcher};
use sorete_rete::ReteMatcher;
use std::sync::Arc;

/// Rules covering every structure the report counts: a three-way equality
/// join with a residual test, a three-attribute equality join (spilled
/// `Many` index keys), negated CEs (blocker lists, a Negative feeding a
/// Join), and set-oriented rules over every aggregate, keyed by a scalar
/// CE, a `:scalar` PV, or nothing.
const RULES: &[&str] = &[
    "(p j3 (a ^x <v> ^y <w>) (b ^x <v>) (c ^x <v> ^y > <w>) (halt))",
    "(p many (a ^x <v> ^y <w> ^z <u>) (c ^x <v> ^y <w> ^z <u>) (halt))",
    "(p neg (a ^x <v>) -(b ^x <v>) (c ^y <v>) (halt))",
    "(p lone -(c ^x 1) (b ^y <w>) -(a ^y <w>) (halt))",
    "(p cnt { [a ^x <v> ^y <w>] <P> } :scalar (<v>)
        :test ((count <P>) > 1 and (count <w>) > 0) (set-remove <P>))",
    "(p agg (b ^x <v>) [a ^x <v> ^y <w>]
        :test ((sum <w>) >= 0 and (min <w>) >= 0 and (max <w>) < 9 and (avg <w>) >= 0) (halt))",
    "(p all [c ^z <u>] (halt))",
];

/// How many of [`RULES`] are loaded up front; the rest arrive mid-run.
const INITIAL_RULES: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    /// Insert a WME of class a/b/c with small-domain attribute values.
    Insert { class: u8, x: i64, y: i64, z: i64 },
    /// Remove the (i mod live)-th oldest live WME.
    Remove(usize),
    /// `modify`: retract, then re-assert changed under a new tag.
    Modify { idx: usize, y: i64 },
    /// What a rolled-back firing replays: retract a WME and re-assert it
    /// under the *same* tag.
    Reassert(usize),
    /// Add the next rule not loaded yet (network built over a live WM).
    AddRule,
    /// Excise the (i mod loaded)-th rule.
    Excise(usize),
    /// Checkpoint resume: a fresh network over the surviving WMEs.
    Rebuild,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => (0u8..3, 0i64..3, 0i64..3, 0i64..2)
            .prop_map(|(class, x, y, z)| Op::Insert { class, x, y, z }),
        5 => (0usize..32).prop_map(Op::Remove),
        3 => (0usize..32, 0i64..3).prop_map(|(idx, y)| Op::Modify { idx, y }),
        2 => (0usize..32).prop_map(Op::Reassert),
        1 => Just(Op::AddRule),
        1 => (0usize..8).prop_map(Op::Excise),
        1 => Just(Op::Rebuild),
    ]
}

fn rule(src: &str) -> Arc<sorete_lang::analyze::AnalyzedRule> {
    Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap())
}

struct Driver {
    m: ReteMatcher,
    /// Rules loaded so far, with their excised flag.
    loaded: Vec<bool>,
    live: Vec<Wme>,
    next_tag: u64,
}

impl Driver {
    fn new() -> Driver {
        let mut d = Driver {
            m: ReteMatcher::new(),
            loaded: Vec::new(),
            live: Vec::new(),
            next_tag: 1,
        };
        for _ in 0..INITIAL_RULES {
            d.add_rule();
        }
        d
    }

    fn add_rule(&mut self) {
        if let Some(src) = RULES.get(self.loaded.len()) {
            self.m.add_rule(rule(src));
            self.loaded.push(false);
        }
    }

    fn wme(&mut self, class: u8, x: i64, y: i64, z: i64) -> Wme {
        let tag = TimeTag::new(self.next_tag);
        self.next_tag += 1;
        Wme::new(
            tag,
            Symbol::new(["a", "b", "c"][class as usize]),
            vec![
                (Symbol::new("x"), Value::Int(x)),
                (Symbol::new("y"), Value::Int(y)),
                (Symbol::new("z"), Value::Int(z)),
            ],
        )
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Insert { class, x, y, z } => {
                let w = self.wme(class, x, y, z);
                self.m.insert_wme(&w);
                self.live.push(w);
            }
            Op::Remove(i) if !self.live.is_empty() => {
                let w = self.live.remove(i % self.live.len());
                self.m.remove_wme(&w);
            }
            Op::Modify { idx, y } if !self.live.is_empty() => {
                let i = idx % self.live.len();
                let old = self.live.remove(i);
                self.m.remove_wme(&old);
                let tag = TimeTag::new(self.next_tag);
                self.next_tag += 1;
                let new = old.modified(tag, &[(Symbol::new("y"), Value::Int(y))]);
                self.m.insert_wme(&new);
                self.live.push(new);
            }
            Op::Reassert(i) if !self.live.is_empty() => {
                let w = self.live[i % self.live.len()].clone();
                self.m.remove_wme(&w);
                self.m.insert_wme(&w);
            }
            Op::AddRule => self.add_rule(),
            Op::Excise(i) => {
                let i = i % self.loaded.len();
                self.m.remove_rule(sorete_base::RuleId::new(i));
                self.loaded[i] = true;
            }
            Op::Rebuild => {
                let mut fresh = ReteMatcher::new();
                for (src, &excised) in RULES.iter().zip(&self.loaded) {
                    let id = fresh.add_rule(rule(src));
                    if excised {
                        fresh.remove_rule(id);
                    }
                }
                fresh.rebuild_from(&self.live);
                self.m = fresh;
            }
            // Remove/Modify/Reassert on an empty working memory.
            _ => {}
        }
        self.m.drain_deltas();
    }

    /// Every region, bytes and entries, against the recount.
    fn check(&self, after: &Op) {
        let kept = self.m.memory_report();
        let walked = self.m.walk_memory_report();
        for (k, w) in kept.regions.iter().zip(&walked.regions) {
            assert_eq!(k, w, "region {} diverged after {:?}", k.name, after);
        }
        assert_eq!(kept.regions.len(), 7);
        self.m
            .validate()
            .unwrap_or_else(|e| panic!("validate failed after {:?}: {}", after, e));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn counts_equal_the_walk_after_every_operation(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut d = Driver::new();
        for op in &ops {
            d.apply(op);
            d.check(op);
        }
        // Draining the working memory takes every live-state region back
        // to zero (stale indexes of excised joins aside).
        while !d.live.is_empty() {
            d.apply(&Op::Remove(0));
            d.check(&Op::Remove(0));
        }
        let report = d.m.memory_report();
        for name in ["alpha", "alpha_index", "gamma", "wme_table"] {
            let r = report.region(name).unwrap();
            prop_assert_eq!((r.bytes, r.entries), (0, 0), "{} after the drain", name);
        }
    }
}

/// The regions really are exercised: a fixed script that leaves every one
/// of the seven non-empty, `Many` keys and blocker lists included.
#[test]
fn every_region_is_populated_by_the_rule_set() {
    let mut d = Driver::new();
    while d.loaded.len() < RULES.len() {
        d.apply(&Op::AddRule);
    }
    for (class, x, y, z) in [
        (0, 1, 0, 1),
        (0, 1, 1, 1),
        (1, 1, 2, 0),
        (2, 1, 1, 1),
        (2, 1, 2, 0),
        (1, 2, 0, 0),
    ] {
        let op = Op::Insert { class, x, y, z };
        d.apply(&op);
        d.check(&op);
    }
    let report = d.m.memory_report();
    for r in &report.regions {
        assert!(r.bytes > 0 && r.entries > 0, "region {} is empty", r.name);
    }
}

/// A wide first CE: 5 000 `a` WMEs put 5 000 sibling tokens under the
/// dummy top token (every rule here opens on `a`), with join and negative
/// children below them. Retracting oldest-first unlinks each from the head
/// of that one child list; the tree, the indexes and every count must hold
/// all the way down to the empty network.
#[test]
fn wide_first_ce_retracts_fifo() {
    const WIDE: usize = 5_000;
    let mut d = Driver::new();
    let insert = |class, x, y| Op::Insert { class, x, y, z: 0 };
    for (class, x) in [(1, 0), (1, 1), (2, 1), (2, 2)] {
        d.apply(&insert(class, x, 2));
    }
    let others = d.live.len();
    for i in 0..WIDE as i64 {
        d.apply(&insert(0, i % 3, i % 2));
    }
    assert!(
        d.m.token_count() > 2 * WIDE,
        "first-CE tokens have children"
    );
    d.check(&insert(0, 0, 0));
    let retract = Op::Remove(others);
    for i in 0..WIDE {
        d.apply(&retract);
        if i % 500 == 0 {
            d.check(&retract);
        }
    }
    assert_eq!(d.live.len(), others);
    d.check(&retract);
    while !d.live.is_empty() {
        d.apply(&Op::Remove(0));
    }
    d.check(&Op::Remove(0));
    assert_eq!(d.m.token_count(), 1, "only the dummy top token is left");
}
