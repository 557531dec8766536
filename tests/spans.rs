//! Span-layer invariants: the *logical* span tree (run → cycle →
//! resolve/rhs/wal_commit nesting plus the per-action match spans) is a
//! projection of the logical delta stream, so — like the trace events
//! pinned by `tests/matcher_equivalence.rs` — it must be identical for
//! every matcher kind. Physical spans (`firing_build`, `wal_*`) describe
//! host scheduling and are excluded by [`sorete_base::logical_tree`].

use proptest::prelude::*;
use sorete::core::{MatcherKind, ProductionSystem};
use sorete_base::{logical_tree, span_stats, Value};

const KINDS: [MatcherKind; 4] = [
    MatcherKind::Rete,
    MatcherKind::ReteScan,
    MatcherKind::Treat,
    MatcherKind::Naive,
];

/// Joins, negation, and WM-mutating right-hand sides so firings feed back
/// into the matcher.
const PROGRAM: &str = "(literalize a x y)(literalize b x y)
    (p pair (a ^x <v>) (b ^x <v> ^y <w>) (write pair <v>) (remove 2))
    (p solo (a ^x 3 ^y <w>) (remove 1))
    (p guard (b ^x <v>) -(a ^x <v> ^y <v>) (write g <v>))";

#[derive(Clone, Debug)]
enum Op {
    Insert { class: u8, x: i64, y: i64 },
    Remove(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..2, 0i64..4, 0i64..4).prop_map(|(class, x, y)| Op::Insert { class, x, y }),
        1 => (0usize..16).prop_map(Op::Remove),
    ]
}

/// Drive one spans-enabled engine through `ops`; return the logical tree.
fn drive(mut ps: ProductionSystem, ops: &[Op]) -> String {
    ps.load_program(PROGRAM).unwrap();
    ps.enable_spans();
    let mut live = Vec::new();
    for op in ops {
        match op {
            Op::Insert { class, x, y } => {
                let tag = ps
                    .make_str(
                        if *class == 0 { "a" } else { "b" },
                        &[("x", Value::Int(*x)), ("y", Value::Int(*y))],
                    )
                    .unwrap();
                live.push(tag);
            }
            Op::Remove(i) => {
                if live.is_empty() {
                    continue;
                }
                let tag = live.remove(i % live.len());
                if ps.wm().get(tag).is_some() {
                    ps.retract_wme(tag).unwrap();
                }
            }
        }
        let _ = ps.run(Some(4));
    }
    logical_tree(&ps.take_spans())
}

fn assert_tree_matcher_invariant(ops: &[Op]) {
    let base = drive(ProductionSystem::new(MatcherKind::Rete), ops);
    for kind in &KINDS[1..] {
        let tree = drive(ProductionSystem::new(*kind), ops);
        assert_eq!(
            tree, base,
            "{:?}: logical span tree diverged from Rete",
            kind
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The logical span tree never depends on the match algorithm.
    #[test]
    fn logical_span_tree_is_matcher_invariant(
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        assert_tree_matcher_invariant(&ops);
    }
}

/// Fixed inputs for the same invariant, plus shape assertions on the tree
/// itself: spans nest run → cycle → {resolve, rhs}, and match spans track
/// the WM operations.
#[test]
fn span_tree_regression_and_shape() {
    let ops = vec![
        Op::Insert {
            class: 0,
            x: 1,
            y: 1,
        },
        Op::Insert {
            class: 1,
            x: 1,
            y: 2,
        },
        Op::Insert {
            class: 0,
            x: 3,
            y: 0,
        },
        Op::Insert {
            class: 1,
            x: 2,
            y: 2,
        },
        Op::Remove(1),
        Op::Insert {
            class: 0,
            x: 2,
            y: 2,
        },
        Op::Insert {
            class: 1,
            x: 3,
            y: 3,
        },
        Op::Remove(0),
    ];
    assert_tree_matcher_invariant(&ops);
    let tree = drive(ProductionSystem::new(MatcherKind::Rete), &ops);
    assert!(tree.contains("match x"), "tree:\n{}", tree);
    assert!(tree.contains("run x"), "tree:\n{}", tree);
    assert!(tree.contains("  cycle x"), "tree:\n{}", tree);
    assert!(tree.contains("    resolve x"), "tree:\n{}", tree);
    assert!(tree.contains("    rhs x"), "tree:\n{}", tree);
}

/// The span-stats summary is deterministic in the categories it reports
/// and counts only what was recorded.
#[test]
fn span_stats_reports_each_category_once() {
    let ops = vec![
        Op::Insert {
            class: 0,
            x: 1,
            y: 1,
        },
        Op::Insert {
            class: 1,
            x: 1,
            y: 2,
        },
    ];
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(PROGRAM).unwrap();
    ps.enable_spans();
    for op in &ops {
        if let Op::Insert { class, x, y } = op {
            ps.make_str(
                if *class == 0 { "a" } else { "b" },
                &[("x", Value::Int(*x)), ("y", Value::Int(*y))],
            )
            .unwrap();
        }
        let _ = ps.run(Some(4));
    }
    let spans = ps.take_spans();
    let stats = span_stats(&spans);
    let mut cats: Vec<&str> = stats.iter().map(|s| s.category).collect();
    cats.sort_unstable();
    let mut deduped = cats.clone();
    deduped.dedup();
    assert_eq!(cats, deduped, "categories must aggregate uniquely");
    let total: u64 = stats.iter().map(|s| s.count).sum();
    assert_eq!(total, spans.len() as u64);
    assert!(stats.iter().any(|s| s.category == "match"));
}
