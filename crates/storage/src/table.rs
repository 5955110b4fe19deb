//! The row store: a table of tuples addressed by [`RowId`], with
//! attached secondary indexes kept in sync on every mutation.
//!
//! Every table carries a content [`Table::version`], drawn from one
//! process-wide counter: creating a table, and every mutation of its
//! rows or indexes, takes a fresh value. Only `Clone` copies a version,
//! and it copies the content with it, so two tables with one version
//! hold the same rows and indexes — across drop-and-recreate and across
//! databases. Readers use it to reuse a query result while the tables
//! it read are unchanged.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{StorageError, StorageResult};
use crate::index::Index;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Stable identifier of a row within one table.
///
/// Row ids are allocated densely and never reused, which lets undo logs
/// and the WAL refer to rows without ambiguity. A table rebuilt from its
/// rows (a checkpoint replayed, or a `DROP TABLE` undone) carries its
/// next id over, so the ids of rows deleted before the rebuild stay
/// retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The source of every table's content version.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// A value no table has carried before. `Relaxed` suffices: every
/// `fetch_add` on one atomic returns a distinct value whatever the
/// ordering, and the counter publishes no other data — a table's
/// content reaches readers through the database lock.
fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A heap table: schema, rows, and secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: BTreeMap<u64, Tuple>,
    next_row_id: u64,
    indexes: Vec<Index>,
    version: u64,
}

impl Table {
    /// Creates an empty table. If the schema declares a primary key, a
    /// unique hash index named `<table>_pk` is created automatically.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        let mut table = Table {
            name: name.clone(),
            schema,
            rows: BTreeMap::new(),
            next_row_id: 0,
            indexes: Vec::new(),
            version: fresh_version(),
        };
        if !table.schema.primary_key().is_empty() {
            let pk_cols = table.schema.primary_key().to_vec();
            table
                .indexes
                .push(Index::new(format!("{name}_pk"), pk_cols, true));
        }
        table
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The content version (see the module docs): changes whenever the
    /// rows or indexes do, and no other table ever carries the same
    /// value with different content.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Checks every unique index before any is touched, so a write it
    /// rejects leaves every index as it was.
    fn check_unique(&self, tuple: &Tuple, rid: RowId) -> StorageResult<()> {
        self.indexes
            .iter()
            .try_for_each(|idx| idx.check_unique(tuple, rid))
    }

    /// Validates and inserts a tuple; returns its new row id.
    pub fn insert(&mut self, tuple: Tuple) -> StorageResult<RowId> {
        let rid = self.next_row_id();
        self.insert_at(rid, tuple)?;
        Ok(rid)
    }

    /// The id the next [`Table::insert`] allocates.
    pub(crate) fn next_row_id(&self) -> RowId {
        RowId(self.next_row_id)
    }

    /// Makes later inserts allocate ids at or above `rid`.
    pub(crate) fn allocate_from(&mut self, rid: RowId) {
        self.next_row_id = self.next_row_id.max(rid.0);
    }

    /// Validates and inserts a row under a specific id, which must be
    /// free; later inserts allocate ids above it.
    pub(crate) fn insert_at(&mut self, rid: RowId, tuple: Tuple) -> StorageResult<()> {
        let tuple = self.schema.validate(tuple)?;
        if self.rows.contains_key(&rid.0) {
            return Err(StorageError::Internal(format!(
                "insert_at: row {rid} already exists in '{}'",
                self.name
            )));
        }
        self.check_unique(&tuple, rid)?;
        for idx in &mut self.indexes {
            idx.insert(&tuple, rid);
        }
        self.rows.insert(rid.0, tuple);
        self.next_row_id = self.next_row_id.max(rid.0 + 1);
        self.version = fresh_version();
        Ok(())
    }

    /// Fetches a row by id.
    pub fn get(&self, rid: RowId) -> Option<&Tuple> {
        self.rows.get(&rid.0)
    }

    /// Deletes a row; returns the removed tuple.
    pub fn delete(&mut self, rid: RowId) -> StorageResult<Tuple> {
        let tuple = self
            .rows
            .remove(&rid.0)
            .ok_or(StorageError::RowNotFound(rid.0))?;
        for idx in &mut self.indexes {
            idx.remove(&tuple, rid);
        }
        self.version = fresh_version();
        Ok(tuple)
    }

    /// Replaces a row in place; returns the previous tuple.
    pub fn update(&mut self, rid: RowId, tuple: Tuple) -> StorageResult<Tuple> {
        let tuple = self.schema.validate(tuple)?;
        let old = self
            .rows
            .get(&rid.0)
            .cloned()
            .ok_or(StorageError::RowNotFound(rid.0))?;
        self.check_unique(&tuple, rid)?;
        for idx in &mut self.indexes {
            idx.remove(&old, rid);
            idx.insert(&tuple, rid);
        }
        self.rows.insert(rid.0, tuple);
        self.version = fresh_version();
        Ok(old)
    }

    /// Iterates over `(RowId, &Tuple)` in row-id order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Tuple)> {
        self.rows.iter().map(|(&rid, t)| (RowId(rid), t))
    }

    /// Creates a secondary index over the named columns and backfills it.
    pub fn create_index(
        &mut self,
        index_name: &str,
        columns: &[impl AsRef<str>],
        unique: bool,
    ) -> StorageResult<()> {
        if self.indexes.iter().any(|i| i.name() == index_name) {
            return Err(StorageError::IndexAlreadyExists(index_name.to_string()));
        }
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .column_index(c.as_ref())
                    .ok_or_else(|| StorageError::ColumnNotFound {
                        table: self.name.clone(),
                        column: c.as_ref().to_string(),
                    })
            })
            .collect::<StorageResult<_>>()?;
        let mut idx = Index::new(index_name, positions, unique);
        for (&rid, tuple) in &self.rows {
            idx.check_unique(tuple, RowId(rid))?;
            idx.insert(tuple, RowId(rid));
        }
        self.indexes.push(idx);
        self.version = fresh_version();
        Ok(())
    }

    /// Drops a secondary index by name; returns it.
    pub fn drop_index(&mut self, index_name: &str) -> StorageResult<Index> {
        let pos = self
            .indexes
            .iter()
            .position(|i| i.name() == index_name)
            .ok_or_else(|| StorageError::IndexNotFound(index_name.to_string()))?;
        self.version = fresh_version();
        Ok(self.indexes.remove(pos))
    }

    /// Looks up an index by name.
    pub fn index(&self, index_name: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.name() == index_name)
    }

    /// All indexes on this table.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Finds an index whose column set is exactly `columns` (any order of
    /// declaration is *not* bridged: the planner asks for the order it
    /// wants). Used by the planner for index-selection.
    pub fn find_index_on(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|i| i.columns() == columns)
    }

    /// Row ids, ascending, whose `column` value `sql_eq`s `value`: an
    /// index probe when an index on the column exists, otherwise a
    /// scan. NULL equals nothing, so it probes nothing.
    pub fn rows_where_eq(&self, column: usize, value: &Value) -> Vec<RowId> {
        if let Some(idx) = self.find_index_on(&[column]).filter(|_| !value.is_null()) {
            return idx.probe(std::slice::from_ref(value)).to_vec();
        }
        self.scan()
            .filter(|(_, t)| t.values()[column].sql_eq(value))
            .map(|(rid, _)| rid)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn flights() -> Table {
        let schema = Schema::with_primary_key(
            vec![
                Column::new("fno", DataType::Int64),
                Column::new("dest", DataType::Str),
            ],
            &["fno"],
        );
        let mut t = Table::new("Flights", schema);
        for (fno, dest) in [
            (122, "Paris"),
            (123, "Paris"),
            (134, "Paris"),
            (136, "Rome"),
        ] {
            t.insert(Tuple::new(vec![Value::Int(fno), Value::from(dest)]))
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_allocates_dense_row_ids() {
        let t = flights();
        let rids: Vec<u64> = t.scan().map(|(r, _)| r.0).collect();
        assert_eq!(rids, vec![0, 1, 2, 3]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn primary_key_index_is_automatic() {
        let t = flights();
        let pk = t.index("Flights_pk").expect("pk index exists");
        assert!(pk.is_unique());
        assert_eq!(pk.probe(&[Value::Int(122)]).len(), 1);
    }

    #[test]
    fn duplicate_primary_key_rejected() {
        let mut t = flights();
        let err = t
            .insert(Tuple::new(vec![Value::Int(122), Value::from("Oslo")]))
            .unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // table unchanged
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn delete_updates_indexes() {
        let mut t = flights();
        let deleted = t.delete(RowId(0)).unwrap();
        assert_eq!(deleted.values()[0], Value::Int(122));
        assert!(t
            .index("Flights_pk")
            .unwrap()
            .probe(&[Value::Int(122)])
            .is_empty());
        assert!(t.delete(RowId(0)).is_err());
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = flights();
        t.update(
            RowId(0),
            Tuple::new(vec![Value::Int(999), Value::from("Paris")]),
        )
        .unwrap();
        let pk = t.index("Flights_pk").unwrap();
        assert!(pk.probe(&[Value::Int(122)]).is_empty());
        assert_eq!(pk.probe(&[Value::Int(999)]), &[RowId(0)]);
    }

    #[test]
    fn update_cannot_steal_existing_key() {
        let mut t = flights();
        let err = t
            .update(
                RowId(0),
                Tuple::new(vec![Value::Int(123), Value::from("Oslo")]),
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // row unchanged
        assert_eq!(t.get(RowId(0)).unwrap().values()[0], Value::Int(122));
    }

    /// A seat decrement or a new primary key leaves the `dest` probe in
    /// `RowId` order; the primary-key entry moves to the new key.
    #[test]
    fn update_keeps_probes_in_row_id_order() {
        let schema = Schema::with_primary_key(
            vec![
                Column::new("fno", DataType::Int64),
                Column::new("dest", DataType::Str),
                Column::new("seats", DataType::Int64),
            ],
            &["fno"],
        );
        let mut t = Table::new("Flights", schema);
        for fno in [122, 123, 134] {
            t.insert(Tuple::new(vec![
                Value::Int(fno),
                Value::from("Paris"),
                Value::Int(10),
            ]))
            .unwrap();
        }
        t.create_index("by_dest", &["dest"], false).unwrap();
        let paris = |t: &Table| -> Vec<u64> {
            t.rows_where_eq(1, &Value::from("Paris"))
                .iter()
                .map(|r| r.0)
                .collect()
        };
        let row = |fno: i64, seats: i64| {
            Tuple::new(vec![
                Value::Int(fno),
                Value::from("Paris"),
                Value::Int(seats),
            ])
        };
        t.update(RowId(0), row(122, 9)).unwrap();
        assert_eq!(paris(&t), [0, 1, 2]);
        t.update(RowId(0), row(999, 9)).unwrap();
        assert_eq!(paris(&t), [0, 1, 2]);
        let pk = t.index("Flights_pk").unwrap();
        assert!(pk.probe(&[Value::Int(122)]).is_empty());
        assert_eq!(pk.probe(&[Value::Int(999)]), &[RowId(0)]);
    }

    #[test]
    fn update_keeping_same_key_is_fine() {
        let mut t = flights();
        t.update(
            RowId(0),
            Tuple::new(vec![Value::Int(122), Value::from("Lyon")]),
        )
        .unwrap();
        assert_eq!(t.get(RowId(0)).unwrap().values()[1], Value::from("Lyon"));
    }

    #[test]
    fn secondary_index_backfills_existing_rows() {
        let mut t = flights();
        t.create_index("by_dest", &["dest"], false).unwrap();
        let idx = t.index("by_dest").unwrap();
        assert_eq!(idx.probe(&[Value::from("Paris")]).len(), 3);
        assert_eq!(idx.probe(&[Value::from("Rome")]).len(), 1);
    }

    #[test]
    fn create_index_on_unknown_column_fails() {
        let mut t = flights();
        let err = t.create_index("x", &["nope"], false).unwrap_err();
        assert!(matches!(err, StorageError::ColumnNotFound { .. }));
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = flights();
        t.create_index("i", &["dest"], false).unwrap();
        assert!(matches!(
            t.create_index("i", &["fno"], false),
            Err(StorageError::IndexAlreadyExists(_))
        ));
    }

    #[test]
    fn drop_index_works() {
        let mut t = flights();
        t.create_index("i", &["dest"], false).unwrap();
        t.drop_index("i").unwrap();
        assert!(t.index("i").is_none());
        assert!(matches!(
            t.drop_index("i"),
            Err(StorageError::IndexNotFound(_))
        ));
    }

    #[test]
    fn rows_where_eq_uses_index_or_scan() {
        let mut t = flights();
        // no index on dest yet: scan path
        let scan_result = t.rows_where_eq(1, &Value::from("Paris"));
        assert_eq!(scan_result.len(), 3);
        // with index: same result
        t.create_index("by_dest", &["dest"], false).unwrap();
        let idx_result = t.rows_where_eq(1, &Value::from("Paris"));
        assert_eq!(idx_result.len(), 3);
    }

    /// An index probe returns what a scan-then-`sql_eq` returns, whatever
    /// the literal's type: `fno = 3.0` and `price = 3` find the row, a
    /// zero finds `-0.0`, and NULL finds nothing.
    #[test]
    fn rows_where_eq_probes_what_a_scan_filters() {
        let schema = Schema::new(vec![
            Column::new("fno", DataType::Int64),
            Column::nullable("price", DataType::Float64),
        ]);
        let mut t = Table::new("F", schema);
        t.insert(Tuple::new(vec![Value::Int(3), Value::Int(3)]))
            .unwrap();
        t.insert(Tuple::new(vec![Value::Int(4), Value::Null]))
            .unwrap();
        t.insert(Tuple::new(vec![Value::Int(5), Value::Float(-0.0)]))
            .unwrap();
        let lookups = [
            (0, Value::Float(3.0)),
            (1, Value::Int(3)),
            (0, Value::Int(3)),
            (1, Value::Null),
            (1, Value::Int(0)),
            (1, Value::Float(0.0)),
        ];
        let eq = |t: &Table| -> Vec<Vec<RowId>> {
            lookups
                .iter()
                .map(|(c, v)| t.rows_where_eq(*c, v))
                .collect()
        };
        let scanned = eq(&t);
        assert_eq!(
            scanned,
            [
                vec![RowId(0)],
                vec![RowId(0)],
                vec![RowId(0)],
                vec![],
                vec![RowId(2)],
                vec![RowId(2)]
            ]
        );
        t.create_index("by_fno", &["fno"], false).unwrap();
        t.create_index("by_price", &["price"], false).unwrap();
        assert_eq!(eq(&t), scanned);
    }

    /// Keys are exact: a unique `INT` index holds both 2^53 and
    /// 2^53 + 1, and `Float(2^53)` equals only the first, probed or
    /// scanned.
    #[test]
    fn int_keys_beyond_2_pow_53_stay_distinct() {
        let schema = Schema::with_primary_key(vec![Column::new("i", DataType::Int64)], &["i"]);
        let mut t = Table::new("T", schema);
        let big = 1i64 << 53;
        for i in [big, big + 1] {
            t.insert(Tuple::new(vec![Value::Int(i)])).unwrap();
        }
        let probe = Value::Float(big as f64);
        assert_eq!(t.rows_where_eq(0, &probe), [RowId(0)], "probed");
        t.drop_index("T_pk").unwrap();
        assert_eq!(t.rows_where_eq(0, &probe), [RowId(0)], "scanned");
    }

    #[test]
    fn row_ids_are_not_reused_after_delete() {
        let mut t = flights();
        t.delete(RowId(3)).unwrap();
        let rid = t
            .insert(Tuple::new(vec![Value::Int(200), Value::from("Oslo")]))
            .unwrap();
        assert_eq!(rid, RowId(4));
    }

    #[test]
    fn insert_at_respects_existing_ids() {
        let mut t = flights();
        assert!(t
            .insert_at(RowId(1), Tuple::new(vec![Value::Int(7), Value::from("x")]))
            .is_err());
        t.insert_at(
            RowId(100),
            Tuple::new(vec![Value::Int(7), Value::from("x")]),
        )
        .unwrap();
        let rid = t
            .insert(Tuple::new(vec![Value::Int(8), Value::from("y")]))
            .unwrap();
        assert_eq!(rid, RowId(101));
    }

    #[test]
    fn version_changes_on_every_mutation_path() {
        let mut t = flights();
        let row = |fno: i64, dest: &str| Tuple::new(vec![Value::Int(fno), Value::from(dest)]);
        let mut seen = vec![t.version()];
        let mut step = |t: &Table, what: &str| {
            assert!(!seen.contains(&t.version()), "{what} reused a version");
            seen.push(t.version());
        };
        t.insert(row(200, "Oslo")).unwrap();
        step(&t, "insert");
        t.insert_at(RowId(50), row(201, "Oslo")).unwrap();
        step(&t, "insert_at");
        t.update(RowId(50), row(201, "Lyon")).unwrap();
        step(&t, "update");
        t.delete(RowId(50)).unwrap();
        step(&t, "delete");
        t.create_index("by_dest", &["dest"], false).unwrap();
        step(&t, "create_index");
        t.drop_index("by_dest").unwrap();
        step(&t, "drop_index");
    }

    #[test]
    fn version_is_unchanged_by_reads_and_failed_mutations() {
        let mut t = flights();
        let v = t.version();
        assert_eq!(t.scan().count(), 4);
        assert!(t.get(RowId(0)).is_some());
        assert_eq!(t.rows_where_eq(1, &Value::from("Paris")).len(), 3);
        assert!(t.index("Flights_pk").is_some());
        assert_eq!(
            t.clone().version(),
            v,
            "a clone carries its content's version"
        );
        // rejected mutations leave the content, and so the version, alone
        assert!(t
            .insert(Tuple::new(vec![Value::Int(122), Value::from("Oslo")]))
            .is_err());
        assert!(t.delete(RowId(99)).is_err());
        assert!(t.drop_index("nope").is_err());
        assert_eq!(t.version(), v);
    }

    #[test]
    fn recreated_table_never_reuses_a_version() {
        let first = flights();
        let again = flights();
        assert_ne!(first.version(), again.version());
        let empty = Table::new("Flights", first.schema().clone());
        assert_ne!(empty.version(), first.version());
        assert_ne!(empty.version(), again.version());
    }

    #[test]
    fn validation_happens_on_every_mutation() {
        let mut t = flights();
        // wrong arity
        assert!(t.insert(Tuple::new(vec![Value::Int(1)])).is_err());
        // wrong type on update
        assert!(t
            .update(
                RowId(0),
                Tuple::new(vec![Value::from("x"), Value::from("y")])
            )
            .is_err());
    }
}
