//! Property tests for the relational substrate: executor operators versus
//! straightforward reference computations, serializability of the
//! optimistic transaction layer, and the WAL's op codec.

use proptest::prelude::*;
use sorete::reldb::{
    decode_wme_op, encode_wme_op, AggFun, ColRef, Database, Plan, Schema, Transaction, WmeOp,
};
use sorete_base::{Symbol, TimeTag, Value, Wme};
use std::collections::BTreeMap;

/// Decode one generated cell: the kind selector picks the `Value` variant,
/// the integer doubles as payload (for floats, reinterpreted as raw IEEE
/// bits so NaN / ±0.0 / subnormal patterns are all exercised).
fn cell(kind: u8, n: i64, s: &str) -> Value {
    match kind % 5 {
        0 => Value::Nil,
        1 => Value::Int(n),
        2 => Value::Float(f64::from_bits(n as u64)),
        3 => Value::sym(if s.is_empty() { "x" } else { s }),
        _ => Value::Tag(TimeTag::new(n.unsigned_abs())),
    }
}

fn setup(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_table(Schema::new("t", &["k", "v"])).unwrap();
    for &(k, v) in rows {
        db.insert("t", vec![Value::Int(k), Value::Int(v)]).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// GROUP BY with aggregates ≡ a BTreeMap reference implementation.
    #[test]
    fn group_by_matches_reference(rows in proptest::collection::vec((0i64..5, -10i64..10), 0..30)) {
        let db = setup(&rows);
        let rel = db.query(&Plan::GroupBy {
            input: Box::new(Plan::Scan("t".into())),
            keys: vec![ColRef::new("k")],
            aggs: vec![
                (AggFun::Count, ColRef::new("v")),
                (AggFun::Sum, ColRef::new("v")),
                (AggFun::Min, ColRef::new("v")),
                (AggFun::Max, ColRef::new("v")),
            ],
        }).unwrap();

        let mut reference: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(k, v) in &rows {
            reference.entry(k).or_default().push(v);
        }
        prop_assert_eq!(rel.rows.len(), reference.len());
        for (row, (k, vs)) in rel.rows.iter().zip(reference.iter()) {
            prop_assert_eq!(row[0], Value::Int(*k), "groups sorted by key");
            prop_assert_eq!(row[1], Value::Int(vs.len() as i64));
            prop_assert_eq!(row[2], Value::Int(vs.iter().sum::<i64>()));
            prop_assert_eq!(row[3], Value::Int(*vs.iter().min().unwrap()));
            prop_assert_eq!(row[4], Value::Int(*vs.iter().max().unwrap()));
        }
    }

    /// Hash equi-join ≡ nested-loop reference.
    #[test]
    fn join_matches_reference(
        left in proptest::collection::vec((0i64..4, 0i64..10), 0..15),
        right in proptest::collection::vec((0i64..4, 0i64..10), 0..15),
    ) {
        let mut db = Database::new();
        db.create_table(Schema::new("l", &["k", "a"])).unwrap();
        db.create_table(Schema::new("r", &["k", "b"])).unwrap();
        for &(k, a) in &left {
            db.insert("l", vec![Value::Int(k), Value::Int(a)]).unwrap();
        }
        for &(k, b) in &right {
            db.insert("r", vec![Value::Int(k), Value::Int(b)]).unwrap();
        }
        let rel = db.query(&Plan::Join {
            left: Box::new(Plan::Scan("l".into())),
            right: Box::new(Plan::Scan("r".into())),
            on: vec![(ColRef::new("l.k"), ColRef::new("r.k"))],
        }).unwrap();

        let mut expected: Vec<(i64, i64, i64, i64)> = Vec::new();
        for &(lk, a) in &left {
            for &(rk, b) in &right {
                if lk == rk {
                    expected.push((lk, a, rk, b));
                }
            }
        }
        let mut got: Vec<(i64, i64, i64, i64)> = rel.rows.iter().map(|r| {
            match (r[0], r[1], r[2], r[3]) {
                (Value::Int(a), Value::Int(b), Value::Int(c), Value::Int(d)) => (a, b, c, d),
                other => panic!("unexpected row {:?}", other),
            }
        }).collect();
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    /// Optimistic transactions are serializable: the committed outcome of a
    /// batch of racing increment transactions equals running the committed
    /// subset serially (no lost updates, ever).
    #[test]
    fn no_lost_updates(
        n_rows in 1usize..4,
        increments in proptest::collection::vec((0usize..4, 1i64..5), 1..10),
    ) {
        let mut db = Database::new();
        db.create_table(Schema::new("acct", &["bal"])).unwrap();
        let mut ids = Vec::new();
        for _ in 0..n_rows {
            ids.push(db.insert("acct", vec![Value::Int(0)]).unwrap());
        }

        // Build all transactions against the same snapshot, then commit.
        let mut txs: Vec<(usize, i64, Transaction)> = Vec::new();
        for &(row, inc) in &increments {
            let id = ids[row % n_rows];
            let mut tx = db.begin();
            let cur = tx.read(&db, "acct", id).unwrap().unwrap();
            let Value::Int(bal) = cur[0] else { panic!() };
            tx.update(&db, "acct", id, "bal", Value::Int(bal + inc)).unwrap();
            txs.push((row % n_rows, inc, tx));
        }
        let mut committed: Vec<(usize, i64)> = Vec::new();
        for (row, inc, tx) in txs {
            if db.commit(tx).is_ok() {
                committed.push((row, inc));
            }
        }

        // Serial re-execution of the committed subset must give the same
        // balances (i.e. every committed increment is fully reflected).
        let mut expected = vec![0i64; n_rows];
        for (row, inc) in &committed {
            expected[*row] += inc;
        }
        for (i, id) in ids.iter().enumerate() {
            let bal = db.table_by_name("acct").unwrap().get(*id).unwrap()[0];
            prop_assert_eq!(bal, Value::Int(expected[i]), "row {}", i);
        }
        // At most one racing writer per row can commit.
        let mut per_row = vec![0usize; n_rows];
        for (row, _) in &committed {
            per_row[*row] += 1;
        }
        prop_assert!(per_row.iter().all(|&c| c <= 1), "{:?}", per_row);
    }

    /// The WAL's op codec round-trips every value: float bit patterns
    /// preserved, tab/newline/backslash in symbol text escaped and
    /// recovered, across asserts, retractions and in-place updates.
    #[test]
    fn wme_op_codec_round_trips(
        rows in proptest::collection::vec(
            ((0u8..5, any::<i64>(), "[a-zA-Z0-9\\t\\n\\\\ .:-]{0,10}"),
             (0u8..5, any::<i64>(), "[\\t\\n\\\\]{0,4}"),
             (0u8..5, any::<i64>(), "[ -~]{0,8}")),
            0..15),
        tag in any::<u64>(),
    ) {
        let tag = TimeTag::new(tag);
        let slots: Vec<(Symbol, Value)> = rows
            .iter()
            .enumerate()
            .flat_map(|(i, ((k0, n0, s0), (k1, n1, s1), (k2, n2, s2)))| {
                [
                    (Symbol::new(&format!("a{}", i)), cell(*k0, *n0, s0)),
                    (Symbol::new(&format!("b\t{}", i)), cell(*k1, *n1, s1)),
                    (Symbol::new(&format!("c\\{}", i)), cell(*k2, *n2, s2)),
                ]
            })
            .collect();
        let ops = [
            WmeOp::Assert(Wme::new(tag, Symbol::new("row\nclass"), slots.clone())),
            WmeOp::Retract(tag),
            WmeOp::Update(tag, slots),
        ];
        for op in ops {
            let back = decode_wme_op(&encode_wme_op(&op)).unwrap();
            prop_assert_eq!(back, op);
        }
    }

    /// ORDER BY produces a permutation sorted by the requested key.
    #[test]
    fn order_by_sorts(rows in proptest::collection::vec((0i64..100, 0i64..100), 0..25)) {
        let db = setup(&rows);
        let rel = db.query(&Plan::OrderBy {
            input: Box::new(Plan::Scan("t".into())),
            keys: vec![(ColRef::new("v"), true)],
        }).unwrap();
        prop_assert_eq!(rel.rows.len(), rows.len());
        for pair in rel.rows.windows(2) {
            prop_assert!(pair[0][1] <= pair[1][1]);
        }
    }
}
