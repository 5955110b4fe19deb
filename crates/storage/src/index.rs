//! Secondary indexes over tables.
//!
//! An index is a hash map from a key — the projection of a row onto the
//! indexed columns — to the row ids holding that key. It serves
//! equality probes, the common case for entangled-query candidate
//! probes and the only one the access-path chooser issues.

use std::collections::HashMap;

use crate::error::{StorageError, StorageResult};
use crate::table::RowId;
use crate::tuple::Tuple;
use crate::value::Value;

/// An index key: the indexed columns' values, in index-column order.
pub type IndexKey = Vec<Value>;

/// A secondary (or primary) index on a subset of a table's columns.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    columns: Vec<usize>,
    unique: bool,
    postings: HashMap<IndexKey, Vec<RowId>>,
}

impl Index {
    /// Creates an empty index over the given column positions.
    pub fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> Self {
        Index {
            name: name.into(),
            columns,
            unique,
            postings: HashMap::new(),
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column positions.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Whether the index enforces key uniqueness.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Extracts this index's key from a full row: the indexed values,
    /// with a float zero filed under `0.0`.
    pub fn key_of(&self, tuple: &Tuple) -> IndexKey {
        self.columns
            .iter()
            .map(|&i| key_value(tuple.values()[i].clone()))
            .collect()
    }

    /// Number of distinct keys currently present.
    pub fn key_count(&self) -> usize {
        self.postings.len()
    }

    /// Registers `rid` under the key extracted from `tuple`.
    pub fn insert(&mut self, tuple: &Tuple, rid: RowId) -> StorageResult<()> {
        let key = self.key_of(tuple);
        let entry = self.postings.entry(key.clone()).or_default();
        if self.unique && !entry.is_empty() {
            return Err(StorageError::UniqueViolation {
                index: self.name.clone(),
                key: format_key(&key),
            });
        }
        entry.push(rid);
        Ok(())
    }

    /// Removes `rid` from the posting list of `tuple`'s key.
    pub fn remove(&mut self, tuple: &Tuple, rid: RowId) {
        let key = self.key_of(tuple);
        if let Some(list) = self.postings.get_mut(&key) {
            list.retain(|&r| r != rid);
            if list.is_empty() {
                self.postings.remove(&key);
            }
        }
    }

    /// Row ids whose key equals `key` (empty slice if none).
    pub fn probe(&self, key: &[Value]) -> &[RowId] {
        self.postings.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Clears all entries (used when a table is truncated / rebuilt).
    pub fn clear(&mut self) {
        self.postings.clear();
    }
}

/// The key under which an index files a stored value: a float zero
/// under `0.0`, since `0.0` and `-0.0` are one SQL value
/// ([`Value::sql_eq`]) but differ bitwise; every other value under
/// itself.
pub(crate) fn key_value(v: Value) -> Value {
    match &v {
        Value::Float(f) if *f == 0.0 => Value::Float(0.0),
        _ => v,
    }
}

fn format_key(key: &[Value]) -> String {
    let parts: Vec<String> = key.iter().map(|v| v.sql_literal()).collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fno: i64, dest: &str) -> Tuple {
        Tuple::new(vec![Value::Int(fno), Value::from(dest)])
    }

    #[test]
    fn hash_index_probe() {
        let mut idx = Index::new("by_dest", vec![1], false);
        idx.insert(&row(122, "Paris"), RowId(1)).unwrap();
        idx.insert(&row(123, "Paris"), RowId(2)).unwrap();
        idx.insert(&row(136, "Rome"), RowId(3)).unwrap();
        let rids = idx.probe(&[Value::from("Paris")]);
        assert_eq!(rids, &[RowId(1), RowId(2)]);
        assert!(idx.probe(&[Value::from("Oslo")]).is_empty());
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut idx = Index::new("pk", vec![0], true);
        idx.insert(&row(122, "Paris"), RowId(1)).unwrap();
        let err = idx.insert(&row(122, "Rome"), RowId(2)).unwrap_err();
        match err {
            StorageError::UniqueViolation { index, key } => {
                assert_eq!(index, "pk");
                assert_eq!(key, "(122)");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn remove_shrinks_posting_lists() {
        let mut idx = Index::new("by_dest", vec![1], false);
        idx.insert(&row(122, "Paris"), RowId(1)).unwrap();
        idx.insert(&row(123, "Paris"), RowId(2)).unwrap();
        idx.remove(&row(122, "Paris"), RowId(1));
        assert_eq!(idx.probe(&[Value::from("Paris")]), &[RowId(2)]);
        idx.remove(&row(123, "Paris"), RowId(2));
        assert_eq!(idx.key_count(), 0);
        // removing again is a no-op
        idx.remove(&row(123, "Paris"), RowId(2));
    }

    #[test]
    fn unique_key_can_be_reused_after_removal() {
        let mut idx = Index::new("pk", vec![0], true);
        idx.insert(&row(1, "a"), RowId(1)).unwrap();
        idx.remove(&row(1, "a"), RowId(1));
        idx.insert(&row(1, "b"), RowId(2)).unwrap();
        assert_eq!(idx.probe(&[Value::Int(1)]), &[RowId(2)]);
    }

    #[test]
    fn multi_column_keys() {
        let mut idx = Index::new("c", vec![0, 1], false);
        idx.insert(&row(1, "a"), RowId(1)).unwrap();
        idx.insert(&row(1, "b"), RowId(2)).unwrap();
        assert_eq!(idx.probe(&[Value::Int(1), Value::from("a")]), &[RowId(1)]);
        assert_eq!(idx.probe(&[Value::Int(1), Value::from("b")]), &[RowId(2)]);
        assert!(idx.probe(&[Value::Int(1)]).is_empty());
    }

    #[test]
    fn clear_empties_index() {
        let mut idx = Index::new("c", vec![0], false);
        idx.insert(&row(1, "a"), RowId(1)).unwrap();
        idx.clear();
        assert_eq!(idx.key_count(), 0);
    }
}
