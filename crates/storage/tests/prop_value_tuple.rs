//! Property-based tests for the storage core data structures:
//! value ordering is a lawful total order, tuple encoding round-trips,
//! and table/index state stays consistent under random operation
//! sequences.

use proptest::prelude::*;

use youtopia_storage::{Column, DataType, Schema, Table, Tuple, Value, Wal, WalOp, WalRecord};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 '%_]{0,12}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..8).prop_map(Tuple::new)
}

proptest! {
    #[test]
    fn value_order_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        // Equal ordering is the one equality: equal keys (`0.0` and
        // `-0.0`, `3` and `3.0`), not `Eq`, which tells them apart
        prop_assert_eq!(ab == Ordering::Equal, a.key() == b.key());
    }

    #[test]
    fn value_order_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::*;
        let ab = a.total_cmp(&b);
        let bc = b.total_cmp(&c);
        if ab == Less && bc == Less {
            prop_assert_eq!(a.total_cmp(&c), Less);
        }
        if ab == Equal && bc == Equal {
            prop_assert_eq!(a.total_cmp(&c), Equal);
        }
    }

    #[test]
    fn value_hash_agrees_with_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn sql_eq_is_symmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.sql_eq(&b), b.sql_eq(&a));
    }

    #[test]
    fn null_never_sql_equals_anything(a in arb_value()) {
        prop_assert!(!Value::Null.sql_eq(&a));
        prop_assert!(!a.sql_eq(&Value::Null));
    }

    #[test]
    fn tuple_encode_decode_roundtrip(t in arb_tuple()) {
        let decoded = Tuple::decode(&t.encode()).unwrap();
        prop_assert_eq!(t, decoded);
    }

    #[test]
    fn tuple_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // must return Ok or Err, never panic
        let _ = Tuple::decode(&bytes);
    }

    #[test]
    fn sorted_values_via_ord_match_total_cmp(mut vs in proptest::collection::vec(arb_value(), 0..20)) {
        let mut by_total = vs.clone();
        by_total.sort_by(|a, b| a.total_cmp(b));
        vs.sort();
        prop_assert_eq!(vs, by_total);
    }
}

// WAL robustness: arbitrary byte streams never panic the decoder, and
// any encoded op sequence survives a round trip (and any prefix
// truncation decodes a prefix of the ops).
fn arb_wal_op() -> impl Strategy<Value = WalOp> {
    let table = "[A-Z][a-z]{0,6}";
    prop_oneof![
        (
            table,
            proptest::collection::vec(arb_value(), 0..4),
            any::<u64>()
        )
            .prop_map(|(t, vals, rid)| WalOp::Insert {
                table: t,
                rid,
                tuple: Tuple::new(vals)
            }),
        (table, any::<u64>()).prop_map(|(t, rid)| WalOp::Delete { table: t, rid }),
        (
            table,
            proptest::collection::vec(arb_value(), 0..4),
            any::<u64>()
        )
            .prop_map(|(t, vals, rid)| WalOp::Update {
                table: t,
                rid,
                tuple: Tuple::new(vals)
            }),
        table.prop_map(|t| WalOp::DropTable { name: t }),
    ]
}

proptest! {
    #[test]
    fn wal_roundtrips_arbitrary_op_sequences(ops in proptest::collection::vec(arb_wal_op(), 0..20)) {
        let mut wal = Wal::in_memory();
        for op in &ops {
            wal.append_record(&WalRecord::Storage(op.clone())).unwrap();
        }
        wal.append_record(&WalRecord::CommitBoundary).unwrap();
        let replayed: Vec<WalOp> = wal
            .replay_records()
            .unwrap()
            .into_iter()
            .filter_map(WalRecord::storage)
            .collect();
        prop_assert_eq!(replayed, ops);
    }

    #[test]
    fn wal_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Wal::decode_records(&bytes);
    }

    #[test]
    fn wal_tolerates_any_tail_truncation(
        ops in proptest::collection::vec(arb_wal_op(), 1..10),
        cut_fraction in 0.0f64..1.0,
    ) {
        // each op commits as a group of its own, so a cut keeps the
        // ops whose marker landed
        let mut wal = Wal::in_memory();
        for op in &ops {
            wal.append_record(&WalRecord::Storage(op.clone())).unwrap();
            wal.append_record(&WalRecord::CommitBoundary).unwrap();
        }
        let bytes = wal.raw_bytes().unwrap();
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        // a truncated log either decodes a prefix of the ops or reports
        // corruption; it must never panic or invent ops
        if let Ok((records, _)) = Wal::decode_records(&bytes[..cut]) {
            let decoded: Vec<WalOp> = records.into_iter().filter_map(WalRecord::storage).collect();
            prop_assert!(decoded.len() <= ops.len());
            prop_assert_eq!(&decoded[..], &ops[..decoded.len()]);
        }
    }
}

/// Random table workloads: insert/delete/update sequences keep the
/// primary-key index in exact agreement with a model HashMap.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, String),
    DeleteKey(i64),
    UpdateVal(i64, String),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..20, "[a-z]{1,6}").prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..20).prop_map(Op::DeleteKey),
        (0i64..20, "[a-z]{1,6}").prop_map(|(k, v)| Op::UpdateVal(k, v)),
    ]
}

proptest! {
    #[test]
    // the explicit pre-check against the model is the point of the test;
    // the entry() API clippy suggests would bypass the assertion
    #[allow(clippy::map_entry)]
    fn table_agrees_with_model_under_random_ops(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let schema = Schema::with_primary_key(
            vec![Column::new("k", DataType::Int64), Column::new("v", DataType::Str)],
            &["k"],
        );
        let mut table = Table::new("T", schema);
        let mut model: std::collections::HashMap<i64, String> = std::collections::HashMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let result = table.insert(Tuple::new(vec![Value::Int(k), Value::Str(v.clone())]));
                    if model.contains_key(&k) {
                        prop_assert!(result.is_err(), "duplicate pk must fail");
                    } else {
                        prop_assert!(result.is_ok());
                        model.insert(k, v);
                    }
                }
                Op::DeleteKey(k) => {
                    let rids = table.rows_where_eq(0, &Value::Int(k));
                    if model.remove(&k).is_some() {
                        prop_assert_eq!(rids.len(), 1);
                        table.delete(rids[0]).unwrap();
                    } else {
                        prop_assert!(rids.is_empty());
                    }
                }
                Op::UpdateVal(k, v) => {
                    let rids = table.rows_where_eq(0, &Value::Int(k));
                    if model.contains_key(&k) {
                        prop_assert_eq!(rids.len(), 1);
                        table
                            .update(rids[0], Tuple::new(vec![Value::Int(k), Value::Str(v.clone())]))
                            .unwrap();
                        model.insert(k, v);
                    } else {
                        prop_assert!(rids.is_empty());
                    }
                }
            }
        }

        // final state agreement
        prop_assert_eq!(table.len(), model.len());
        for (k, v) in &model {
            let rids = table.rows_where_eq(0, &Value::Int(*k));
            prop_assert_eq!(rids.len(), 1);
            let row = table.get(rids[0]).unwrap();
            prop_assert_eq!(row.values()[1].as_str(), Some(v.as_str()));
        }
        // pk index has exactly one posting per live key
        let pk = table.index("T_pk").unwrap();
        prop_assert_eq!(pk.key_count(), model.len());
    }
}
