//! Allocations per operation, pinned exactly: one row per hot operation
//! of the engine. A row that rises means an operation started copying
//! something again; one that falls should be re-pinned with it.
//!
//! This file is its own test binary so that its counting allocator
//! touches no other test. Buffers that grow now and then add to some
//! repetitions, so a row pins the least count of its warm repetitions.

#[path = "common/counting.rs"]
mod counting;

use counting::allocs_of;
use sorete::core::{MatcherKind, ProductionSystem};
use sorete_base::{Symbol, TimeTag, Value, Wme};
use sorete_reldb::{JournalOp, Wal, WalOptions};

/// The benchmark's `join_churn` join: three positive CEs and a negation.
const FILL: &str = "(literalize stock item qty)
(literalize customer id tier)
(literalize order id item cust qty)
(literalize shipment order kind)
(p fill
  (order ^id <o> ^item <i> ^cust <c> ^qty <q>)
  (stock ^item <i> ^qty >= <q>)
  (customer ^id <c> ^tier gold)
  -(shipment ^order <o>)
  -->
  (make shipment ^order <o> ^kind full))";

/// The least of `counts` after the first `skip` (the cold ones).
fn least_warm(counts: &[u64], skip: usize) -> u64 {
    counts[skip..]
        .iter()
        .copied()
        .min()
        .expect("warm repetitions")
}

/// Through `fill`, with 20 items each stocked, ordered once and ordered
/// by a gold customer, so every op below changes one instantiation:
/// - an order's `assert_wme` (5): Rete's copy of the WME and its lists of
///   memories and tokens, the negation's index bucket for the new order,
///   and the `+` instantiation's one tag buffer;
/// - its `retract_wme` (1): the `-` token's key;
/// - a stock's `modify_wme` (9): the new WME's slots, Rete's copy and its
///   two lists, the `-` key and `+` buffer of the order it re-joins, and
///   three index buckets (the stock alpha index's, the customer join's
///   left index's and the negation's) that emptied with the old WME and
///   are made again.
#[test]
fn warm_api_ops_through_a_three_way_join_allocate_pinned_counts() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(FILL).unwrap();
    let mut stocks = Vec::new();
    for i in 0..20 {
        let int = Value::Int;
        let gold = Value::sym("gold");
        ps.make_str("customer", &[("id", int(i)), ("tier", gold)])
            .unwrap();
        let stock = [("item", int(i)), ("qty", int(100))];
        stocks.push(ps.make_str("stock", &stock).unwrap());
        let order = [
            ("id", int(i)),
            ("item", int(i)),
            ("cust", int(i)),
            ("qty", int(5)),
        ];
        ps.make_str("order", &order).unwrap();
    }
    let (mut asserts, mut retracts, mut modifies) = (vec![], vec![], vec![]);
    for k in 0..60 {
        let slots: Vec<(Symbol, Value)> = [("id", 100 + k), ("item", k % 20), ("cust", k % 20)]
            .iter()
            .chain(&[("qty", 5)])
            .map(|&(a, v)| (Symbol::new(a), Value::Int(v)))
            .collect();
        let order = Symbol::new("order");
        let (n, tag) = allocs_of(|| ps.assert_wme(order, slots).unwrap());
        asserts.push(n);
        let (n, ()) = allocs_of(|| ps.retract_wme(tag).unwrap());
        retracts.push(n);
        let s = (k % 20) as usize;
        let qty = [(Symbol::new("qty"), Value::Int(100 + k))];
        let (n, new) = allocs_of(|| ps.modify_wme(stocks[s], &qty).unwrap());
        modifies.push(n);
        stocks[s] = new;
    }
    assert_eq!(ps.conflict_items().len(), 20);
    let warm = |counts: &[u64]| least_warm(counts, 20);
    assert_eq!(warm(&asserts), 5, "assert_wme {asserts:?}");
    assert_eq!(warm(&retracts), 1, "retract_wme {retracts:?}");
    assert_eq!(warm(&modifies), 9, "modify_wme {modifies:?}");
}

/// `fire_tuple`'s firing (`modify 2 ^s done`): the new WME's slots,
/// Rete's copy of it and the `-` token's key. The firing itself — its
/// rows, context and `modify` slots — allocates nothing.
#[test]
fn a_warm_fire_tuple_step_allocates_three() {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(
        "(literalize item id s w)
         (literalize phase p)
         (p process-one (phase ^p sweep) (item ^s pending) --> (modify 2 ^s done))",
    )
    .unwrap();
    ps.make_str("phase", &[("p", Value::sym("sweep"))]).unwrap();
    for id in 0..60 {
        let slots = [("id", Value::Int(id)), ("s", Value::sym("pending"))];
        ps.make_str("item", &slots).unwrap();
    }
    let steps: Vec<u64> = (0..50)
        .map(|_| allocs_of(|| ps.step().unwrap().expect("fired")).0)
        .collect();
    assert_eq!(least_warm(&steps, 10), 3, "{steps:?}");
}

/// Reading the conflict set hands out tuple items that share their tag
/// buffers: the returned `Vec` is the one allocation, whatever its length.
#[test]
fn conflict_items_allocate_only_the_returned_vec() {
    for n in [10, 1_000] {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program("(literalize item id) (p one (item ^id <i>) --> (halt))")
            .unwrap();
        for id in 0..n {
            ps.make_str("item", &[("id", Value::Int(id))]).unwrap();
        }
        let (allocs, items) = allocs_of(|| ps.conflict_items());
        assert_eq!(items.len(), n as usize);
        assert_eq!(allocs, 1, "{n} tuple items");
    }
}

/// `collect_set`'s one set-oriented firing over `n` rows costs two
/// allocations per modified WME (its new slots and Rete's copy) and five
/// of its own, at 10 rows as at 1 000: the SOI's rows, aggregates and
/// recency key read out of the S-node, the CE's tag list, and the
/// context's map of the WME each set CE is at.
#[test]
fn a_collect_set_firing_allocates_alike_at_10_and_1000_rows() {
    for n in [10u64, 1_000] {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program(
            "(literalize item id s w)
             (p process-all { [item ^s pending] <P> } :test ((count <P>) > 0)
               --> (set-modify <P> ^s done))",
        )
        .unwrap();
        let mut firings = vec![];
        for _round in 0..12 {
            for id in 0..n as i64 {
                let slots = [("id", Value::Int(id)), ("s", Value::sym("pending"))];
                ps.make_str("item", &slots).unwrap();
            }
            firings.push(allocs_of(|| ps.step().unwrap().expect("fired")).0);
        }
        let own = least_warm(&firings, 1) - 2 * n;
        assert_eq!(own, 5, "{n} rows: {firings:?}");
    }
}

/// A warm WAL commit encodes its frame into the log's reused buffers.
#[test]
fn a_warm_wal_commit_allocates_nothing() {
    let path = std::env::temp_dir().join(format!("sorete-op-alloc-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut wal, _) = Wal::open(&path, WalOptions::default()).unwrap();
    let slots = vec![
        (Symbol::new("id"), Value::Int(3)),
        (Symbol::new("s"), Value::sym("pending")),
    ];
    let wme = Wme::new(TimeTag::new(7), Symbol::new("item"), slots);
    let ops = [JournalOp::Assert(wme.tag)];
    let commits: Vec<u64> = (0..30)
        .map(|_| {
            let (n, r) = allocs_of(|| wal.commit(&ops, |_| Some(&wme), None));
            r.unwrap();
            n
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    assert_eq!(least_warm(&commits, 1), 0, "{commits:?}");
}
