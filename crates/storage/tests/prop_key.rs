//! Properties of the one key: [`Value::key`] is the equality of
//! `sql_eq`, of the total order and of every index, and an index probe
//! returns what a scan-then-`sql_eq` filter returns, in the same order,
//! under any history of writes, index DDL and aborts — live, replayed
//! from the log and replayed from a checkpoint.

use std::cmp::Ordering;

use proptest::prelude::*;

use youtopia_storage::{
    Column, DataType, Database, RowId, Schema, StorageResult, Table, Tuple, Value, Wal,
};

const TWO_POW_53: i64 = 1 << 53;
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The values where a key rule can go wrong: the zeros, NaNs, the
/// infinities, integers and floats that are equal or just apart, the
/// ends of `i64` and the floats just past them, strings and bools.
fn edges() -> Vec<Value> {
    let mut out = vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::from(""),
        Value::from("3"),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(3.5),
        Value::Float(-3.5),
        Value::Float(TWO_POW_63),
        Value::Float(-TWO_POW_63),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN + 1),
        Value::Float(i64::MAX as f64),
    ];
    for i in [
        0,
        3,
        -3,
        TWO_POW_53,
        -TWO_POW_53,
        TWO_POW_53 + 1,
        -TWO_POW_53 - 1,
    ] {
        out.push(Value::Int(i));
        out.push(Value::Float(i as f64));
    }
    out
}

fn arb_key_value() -> impl Strategy<Value = Value> {
    let n = edges().len();
    prop_oneof![
        (0..n).prop_map(|i| edges()[i].clone()),
        (0..n).prop_map(|i| edges()[i].clone()),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        (-4i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
        (-4i64..4).prop_map(Value::Int),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// For non-NULL values `sql_eq` is key equality; NULL equals
    /// nothing, and a key is its own key.
    #[test]
    fn sql_eq_is_key_equality(a in arb_key_value(), b in arb_key_value()) {
        let keys_equal = a.key() == b.key();
        if a.is_null() || b.is_null() {
            prop_assert!(!a.sql_eq(&b));
        } else {
            prop_assert_eq!(a.sql_eq(&b), keys_equal, "{:?} vs {:?}", a, b);
        }
        let key = a.key().into_owned();
        prop_assert_eq!(&*key.key(), &key);
    }

    /// The total order is `Equal` exactly where the keys are equal, and
    /// it is antisymmetric and transitive across `Int` and `Float`.
    #[test]
    fn total_order_agrees_with_the_key(
        a in arb_key_value(),
        b in arb_key_value(),
        c in arb_key_value(),
    ) {
        let ab = a.total_cmp(&b);
        prop_assert_eq!(ab == Ordering::Equal, a.key() == b.key(), "{:?} vs {:?}", a, b);
        prop_assert_eq!(ab, b.total_cmp(&a).reverse());
        let bc = b.total_cmp(&c);
        if ab != Ordering::Greater && bc != Ordering::Greater {
            let ac = a.total_cmp(&c);
            prop_assert!(ac != Ordering::Greater, "{:?} <= {:?} <= {:?}", a, b, c);
            if ab == Ordering::Less || bc == Ordering::Less {
                prop_assert_eq!(ac, Ordering::Less);
            }
        }
    }
}

/// The probe table: a unique and a plain index on each of an `INT`, a
/// `FLOAT` and a `STR` column.
const COLUMNS: [(&str, DataType); 6] = [
    ("ui", DataType::Int64),
    ("pi", DataType::Int64),
    ("uf", DataType::Float64),
    ("pf", DataType::Float64),
    ("us", DataType::Str),
    ("ps", DataType::Str),
];

/// A column's value pool, small so that keys collide: NULL, the
/// values the column type takes, and `Int`s for the `FLOAT` columns
/// (stored widened).
fn pool(ty: DataType) -> Vec<Value> {
    match ty {
        DataType::Int64 => [0, 1, TWO_POW_53, TWO_POW_53 + 1, i64::MIN]
            .map(Value::Int)
            .to_vec(),
        DataType::Float64 => vec![
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(TWO_POW_53 as f64),
            Value::Float(f64::NAN),
            Value::Int(1),
            Value::Int(TWO_POW_53 + 1),
        ],
        _ => ["a", "b", "c"].map(Value::from).to_vec(),
    }
    .into_iter()
    .chain([Value::Null])
    .collect()
}

/// Every value an equality probe is made with: the pools, and the
/// other type's spelling of their numbers.
fn probes() -> Vec<Value> {
    let mut out: Vec<Value> = COLUMNS.iter().flat_map(|&(_, ty)| pool(ty)).collect();
    out.extend([1, TWO_POW_53, TWO_POW_53 + 1].map(|i| Value::Float(i as f64)));
    out.push(Value::Int(0));
    out
}

#[derive(Debug, Clone)]
enum Stmt {
    Insert(Vec<usize>),
    /// Replaces the `n`th live row (modulo their count) by a new row.
    Update(usize, Vec<usize>),
    Delete(usize),
    /// Creates an index on the `n`th column under a fresh name, unique
    /// when the flag is set.
    CreateIndex(usize, bool),
}

fn arb_row() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, COLUMNS.len())
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        arb_row().prop_map(Stmt::Insert),
        arb_row().prop_map(Stmt::Insert),
        (0usize..64, arb_row()).prop_map(|(n, r)| Stmt::Update(n, r)),
        (0usize..64).prop_map(Stmt::Delete),
        (0..COLUMNS.len(), any::<bool>()).prop_map(|(c, u)| Stmt::CreateIndex(c, u)),
    ]
}

/// A transaction: its statements, and whether it aborts even when
/// every statement succeeds. A failing statement always aborts it.
fn arb_txn() -> impl Strategy<Value = (Vec<Stmt>, bool)> {
    (
        proptest::collection::vec(arb_stmt(), 1..6),
        (0u8..4).prop_map(|x| x == 0),
    )
}

fn row_of(picks: &[usize]) -> Tuple {
    let values = COLUMNS.iter().zip(picks).map(|(&(_, ty), &p)| {
        let pool = pool(ty);
        pool[p % pool.len()].clone()
    });
    Tuple::new(values.collect())
}

/// Runs `stmt`; `fresh` numbers the indexes it creates.
fn run(
    txn: &mut youtopia_storage::Transaction,
    stmt: &Stmt,
    fresh: &mut usize,
) -> StorageResult<()> {
    let live = |txn: &youtopia_storage::Transaction, n: usize| -> Option<RowId> {
        let t = txn.table("T").expect("created");
        let rids: Vec<RowId> = t.scan().map(|(rid, _)| rid).collect();
        (!rids.is_empty()).then(|| rids[n % rids.len()])
    };
    match stmt {
        Stmt::Insert(row) => txn.insert("T", row_of(row)).map(|_| ()),
        Stmt::Update(n, row) => match live(txn, *n) {
            Some(rid) => txn.update("T", rid, row_of(row)),
            None => Ok(()),
        },
        Stmt::Delete(n) => match live(txn, *n) {
            Some(rid) => txn.delete("T", rid),
            None => Ok(()),
        },
        Stmt::CreateIndex(col, unique) => {
            *fresh += 1;
            let name = format!("x{fresh}");
            txn.create_index("T", &name, &[COLUMNS[*col].0], *unique)
        }
    }
}

/// What `T` holds: its rows under their ids, and each index's name,
/// columns, uniqueness and probe of every probe value.
type State = (
    Vec<(RowId, Tuple)>,
    Vec<(String, Vec<usize>, bool, Vec<Vec<RowId>>)>,
);

fn state(db: &Database, probes: &[Value]) -> State {
    let read = db.read();
    let t = read.table("T").unwrap();
    let rows = t.scan().map(|(rid, row)| (rid, row.clone())).collect();
    let indexes = t.indexes().iter().map(|idx| {
        let probed = probes
            .iter()
            .map(|v| idx.probe(std::slice::from_ref(v)).to_vec());
        let columns = idx.columns().to_vec();
        (
            idx.name().to_string(),
            columns,
            idx.is_unique(),
            probed.collect(),
        )
    });
    (rows, indexes.collect())
}

/// The database its log replays to.
fn recovered(db: &Database) -> Database {
    Database::recover(Wal::from_bytes(db.wal_bytes().unwrap()))
        .unwrap()
        .0
}

/// Each index probe of `t` returns exactly the rows a scan keeps by
/// `sql_eq`, in `RowId` order.
fn probes_equal_scans(t: &Table, probes: &[Value]) -> Result<(), TestCaseError> {
    for idx in t.indexes() {
        let col = idx.columns()[0];
        for v in probes.iter().filter(|v| !v.is_null()) {
            let scanned: Vec<RowId> = t
                .scan()
                .filter(|(_, row)| row.values()[col].sql_eq(v))
                .map(|(rid, _)| rid)
                .collect();
            prop_assert_eq!(
                idx.probe(std::slice::from_ref(v)),
                &scanned[..],
                "{} = {:?}",
                idx.name(),
                v
            );
            prop_assert_eq!(t.rows_where_eq(col, v), scanned);
        }
        prop_assert!(t.rows_where_eq(col, &Value::Null).is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every transaction, committed or aborted, each index probe
    /// returns exactly the rows a scan keeps by `sql_eq`, in `RowId`
    /// order, and the log replays to the same rows, indexes and probe
    /// results; so does a checkpoint at the end.
    #[test]
    fn index_probe_equals_scan_then_filter(txns in proptest::collection::vec(arb_txn(), 1..12)) {
        let db = Database::with_wal(Wal::in_memory());
        db.with_txn(|txn| {
            let cols = COLUMNS.iter().map(|&(name, ty)| Column::nullable(name, ty));
            txn.create_table("T", Schema::new(cols.collect()))?;
            for (name, _) in COLUMNS {
                txn.create_index("T", name, &[name], name.starts_with('u'))?;
            }
            Ok(())
        })
        .unwrap();
        let probes = probes();
        let mut fresh = 0;
        for (stmts, abort) in &txns {
            let mut txn = db.begin();
            let ok = stmts.iter().all(|s| run(&mut txn, s, &mut fresh).is_ok());
            if ok && !abort {
                txn.commit().unwrap();
            } else {
                txn.abort();
            }
            probes_equal_scans(db.read().table("T").unwrap(), &probes)?;
            prop_assert_eq!(state(&recovered(&db), &probes), state(&db, &probes));
        }
        db.checkpoint().unwrap();
        prop_assert_eq!(state(&recovered(&db), &probes), state(&db, &probes));
    }
}
