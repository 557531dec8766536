//! The conflict set copies no key and no row box on its hot paths.
//!
//! This file is its own test binary so that its counting allocator
//! touches no other test. The count is per thread, so the harness's
//! other threads do not disturb it.

#[path = "common/counting.rs"]
mod counting;

use counting::allocs_of;
use sorete::core::{ConflictSet, MatcherKind, ProductionSystem, Strategy};
use sorete_base::{ConflictItem, CsDelta, InstKey, Rows, RuleId, TimeTag, Value};

/// `collect_set`'s rule over `n` pending items: one SOI of `n` rows,
/// stale once the items after the first moved it with `time` tokens.
fn soi_engine(kind: MatcherKind, n: i64) -> ProductionSystem {
    let mut ps = ProductionSystem::new(kind);
    ps.load_program(
        "(literalize item id s)
         (p process-all { [item ^s pending] <P> } :test ((count <P>) > 0)
           --> (set-modify <P> ^s done))",
    )
    .unwrap();
    for id in 0..n {
        let slots = [("id", Value::Int(id)), ("s", Value::sym("pending"))];
        ps.make_str("item", &slots).unwrap();
    }
    ps
}

/// Reading the conflict set materializes a stale SOI as one flat buffer
/// of rows: a 1 000-row SOI costs the allocations a 10-row one does.
#[test]
fn conflict_items_allocate_alike_for_10_and_1000_rows() {
    for kind in [
        MatcherKind::Rete,
        MatcherKind::ReteScan,
        MatcherKind::Treat,
        MatcherKind::Naive,
    ] {
        let count = |n: i64| {
            let ps = soi_engine(kind, n);
            let (allocs, items) = allocs_of(|| ps.conflict_items());
            assert_eq!(items.len(), 1, "{kind:?}");
            assert_eq!(items[0].rows.len(), n as usize, "{kind:?}");
            allocs
        };
        let (small, large) = (count(10), count(1_000));
        assert_eq!(small, large, "{kind:?}: allocations grow with the rows");
    }
}

fn tuple(tag: u64) -> ConflictItem {
    let row = [TimeTag::new(1), TimeTag::new(tag)];
    ConflictItem {
        key: InstKey::Tuple {
            rule: RuleId::new(0),
            tags: row.into(),
        },
        rows: Rows::one(row),
        aggregates: Vec::new(),
        version: 0,
        recency: [TimeTag::new(tag), TimeTag::new(1)].into(),
        specificity: 2,
    }
}

/// One firing as the engine drives the set: select, open the journal,
/// mark the entry fired, let the RHS's `-` token take it out, commit.
/// The `-` token's key is the caller's, made before the count starts.
fn fire_one(cs: &mut ConflictSet, gone: InstKey) {
    let id = cs.select_id(Strategy::Lex).expect("an entry to fire");
    let (item, stale) = cs.get(id).unwrap();
    assert!(item.key == gone && !stale);
    cs.begin_journal();
    cs.fire(id, 0);
    cs.apply(CsDelta::Remove(gone));
    cs.end_journal();
}

/// `fire_tuple`'s firing, warm: the set neither clones the key (to
/// select, refract, journal or queue the entry) nor grows a buffer.
#[test]
fn a_warm_one_action_tuple_firing_allocates_nothing_in_the_conflict_set() {
    const N: u64 = 100;
    let mut cs = ConflictSet::new();
    // Two rounds of N entries fired one by one, most recent first: the
    // first sizes the slab, index, queue, free list and journal.
    for round in 0..2 {
        let items: Vec<ConflictItem> = (2..2 + N).map(tuple).collect();
        let keys: Vec<InstKey> = items.iter().rev().map(|i| i.key.clone()).collect();
        for item in items {
            cs.apply(CsDelta::Insert(item));
        }
        cs.select_id(Strategy::Lex);
        for key in keys {
            let (allocs, ()) = allocs_of(|| fire_one(&mut cs, key));
            if round == 1 {
                assert_eq!(allocs, 0, "a warm firing allocated in the conflict set");
            }
            cs.validate().unwrap();
        }
        assert!(cs.is_empty());
    }
}

/// The same firing through the engine: `process-one` modifies its item.
/// The conflict set's share is nil (above), and so is the firing's own:
/// its rows share the entry's tag buffer, its context lists no rows and
/// its `modify` slots go into a reused buffer (it read 6 while each of
/// those was a fresh allocation, 7 with a fresh delta buffer per drain).
/// What is left is the new WME's slots, Rete's copy of it and the `-`
/// token's key. Buffers that grow now and then add to some firings, so
/// the count pinned is the least of the warm ones; a key copied per
/// firing (to select, refract or journal it) shows as one more.
#[test]
fn a_warm_fire_tuple_step_allocates_a_pinned_count() {
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
    let warm = (0..50).map(|_| allocs_of(|| ps.step().unwrap().expect("fired")).0);
    let least = warm.skip(10).min();
    assert_eq!(least, Some(3));
}
