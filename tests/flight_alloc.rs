//! A warm flight recorder allocates nothing per record.
//!
//! This file is its own test binary so that its counting allocator
//! touches no other test. The count is per thread, so the harness's
//! other threads do not disturb it.

use sorete_base::flight::{CycleRecord, EventRef, Flight};
use sorete_base::inst::{ConflictItem, InstKey, KeyPart, Rows, RuleId, Tags};
use sorete_base::{Span, Symbol, TimeTag, TraceEvent, Value, Wme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The engine state the records borrow.
struct State {
    rule: Symbol,
    wme: Wme,
    item: ConflictItem,
    span: Span,
    cold: TraceEvent,
}

/// One round of every kind of record the engine makes: the eight hot
/// events from borrowed state, a cold owned event, a span and a cycle
/// record. Cycle numbers stay in one varint width, so the frames keep
/// their sizes from round to round.
fn round(f: &mut Flight, i: u64, st: &State) {
    let State {
        rule,
        wme,
        item,
        span,
        cold,
    } = st;
    let (rule, cycle) = (*rule, 200 + i % 100);
    f.record_ref(EventRef::CycleBegin { cycle });
    f.record_ref(EventRef::Fire {
        cycle,
        rule,
        rows: &item.rows,
    });
    f.record_ref(EventRef::WmeRetract {
        cycle,
        tag: TimeTag::new(1_000 + i % 100),
    });
    f.record_ref(EventRef::WmeAssert { cycle, wme });
    f.record_ref(EventRef::CsInsert { rule, item });
    f.record_ref(EventRef::CsRetime {
        rule,
        key: &item.key,
        version: 7,
    });
    f.record_ref(EventRef::CsRemove {
        rule,
        key: &item.key,
    });
    f.record_ref(EventRef::CycleEnd {
        cycle,
        rule,
        ok: true,
    });
    f.record_event(cold);
    f.record_span(span);
    f.record_cycle(&CycleRecord {
        cycle,
        rule,
        ok: true,
        firings: cycle,
        wm_len: 4_000,
        cs_len: 2_000,
        nanos: 2_500 + i % 100,
    });
}

#[test]
fn a_warm_recorder_allocates_nothing_per_record() {
    let wme = Wme::new(
        TimeTag::new(4_242),
        Symbol::new("item"),
        vec![
            (Symbol::new("id"), Value::Int(77)),
            (Symbol::new("s"), Value::sym("done")),
            (Symbol::new("w"), Value::Float(0.5)),
        ],
    );
    let item = ConflictItem {
        key: InstKey::Soi {
            rule: RuleId::new(1),
            parts: vec![KeyPart::Tag(TimeTag::new(9)), KeyPart::Val(Value::Int(3))].into(),
        },
        rows: Rows::one(vec![TimeTag::new(9), TimeTag::new(4_242)]),
        aggregates: vec![Value::Int(2), Value::Nil],
        version: 3,
        recency: Tags::default(),
        specificity: 0,
    };
    let span = Span {
        id: 5,
        parent: 1,
        category: sorete_base::span::category::RHS,
        begin_nanos: 100,
        end_nanos: 4_200,
        attrs: vec![("cycle", 3)],
    };
    let cold = TraceEvent::SkipAction {
        action: "remove",
        tag: TimeTag::new(5),
    };
    let st = State {
        rule: Symbol::new("process-one"),
        wme,
        item,
        span,
        cold,
    };
    let capacity = 64;
    let mut f = Flight::recording(capacity);
    // Warm: every ring wraps many times over, so eviction and the moves
    // that drop the evicted prefix have reached their steady state.
    for i in 0..50 * capacity as u64 {
        round(&mut f, i, &st);
    }
    let before = allocs();
    for i in 0..50 * capacity as u64 {
        round(&mut f, i, &st);
    }
    assert_eq!(allocs() - before, 0, "a warm recorder allocated");
    assert_eq!(f.counts().events, capacity);
    assert_eq!(f.counts().cycles, capacity);
    assert_eq!(f.counts().spans, capacity);
}
