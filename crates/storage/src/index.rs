//! Secondary indexes over tables, and the posting lists they share
//! with the coordinator's registry.
//!
//! An index is a hash map from a key — the [`Value::key`]s of a row's
//! indexed columns — to a [`Posting`] of the row ids holding it. The
//! key is the system's one equality, so a probe with non-NULL values
//! returns exactly the rows whose indexed values `sql_eq` them; a
//! posting is sorted, so it returns them in ascending `RowId` order,
//! the order a scan yields, whatever the history of writes and undos.
//! Equality probes are the only access path the chooser issues.

use std::collections::HashMap;

use crate::error::{StorageError, StorageResult};
use crate::table::RowId;
use crate::tuple::Tuple;
use crate::value::Value;

/// A posting list: sorted, duplicate-free entries in one `Vec`.
/// Lookups and merges walk a slice; `insert` and `remove` binary-search
/// their slot and shift the tail, which costs nothing at the end, where
/// ascending row and query ids land.
#[derive(Debug, Clone)]
pub struct Posting<T>(Vec<T>);

impl<T> Default for Posting<T> {
    fn default() -> Self {
        Posting(Vec::new())
    }
}

impl<T: Ord + Copy> Posting<T> {
    /// Adds `x` at its sorted place, unless it is present.
    pub fn insert(&mut self, x: T) {
        if let Err(at) = self.0.binary_search(&x) {
            // a posting of one entry, which is what most constant and
            // unique-key postings hold, keeps no spare capacity
            if self.0.capacity() == 0 {
                self.0.reserve_exact(1);
            }
            self.0.insert(at, x);
        }
    }

    /// Removes `x` if it is present.
    pub fn remove(&mut self, x: &T) {
        if let Ok(at) = self.0.binary_search(x) {
            self.0.remove(at);
        }
    }

    /// Inserts `x` when `member`, removes it otherwise.
    pub fn set(&mut self, x: T, member: bool) {
        if member {
            self.insert(x);
        } else {
            self.remove(&x);
        }
    }

    /// Whether `x` is present (a binary search).
    pub fn contains(&self, x: &T) -> bool {
        self.0.binary_search(x).is_ok()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the posting holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The entries, ascending.
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }

    /// Iterates over the entries, ascending.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, T>> {
        self.0.iter().copied()
    }
}

/// An index key: the indexed columns' [`Value::key`]s, in index-column
/// order.
pub(crate) type IndexKey = Vec<Value>;

/// A secondary (or primary) index on a subset of a table's columns.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    columns: Vec<usize>,
    unique: bool,
    postings: HashMap<IndexKey, Posting<RowId>>,
}

impl Index {
    /// Creates an empty index over the given column positions.
    pub(crate) fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> Self {
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

    /// The key of `values`, one per indexed column.
    fn key<'a>(values: impl IntoIterator<Item = &'a Value>) -> IndexKey {
        values.into_iter().map(|v| v.key().into_owned()).collect()
    }

    /// This index's key for a full row.
    pub(crate) fn key_of(&self, tuple: &Tuple) -> IndexKey {
        Self::key(self.columns.iter().map(|&i| &tuple.values()[i]))
    }

    /// Number of distinct keys currently present.
    pub fn key_count(&self) -> usize {
        self.postings.len()
    }

    /// Fails with [`StorageError::UniqueViolation`], naming the row's
    /// own values, when this index is unique and a row other than `rid`
    /// holds `tuple`'s key.
    /// NULL equals nothing, so a key holding one collides with no row.
    pub(crate) fn check_unique(&self, tuple: &Tuple, rid: RowId) -> StorageResult<()> {
        if !self.unique {
            return Ok(());
        }
        let key = self.key_of(tuple);
        let taken = |p: &Posting<RowId>| p.iter().any(|r| r != rid);
        if !key.iter().any(Value::is_null) && self.postings.get(&key).is_some_and(taken) {
            let values = self.columns.iter().map(|&i| tuple.values()[i].clone());
            return Err(StorageError::UniqueViolation {
                index: self.name.clone(),
                key: Tuple::new(values.collect()).to_string(),
            });
        }
        Ok(())
    }

    /// Files `rid` under `tuple`'s key; the caller has checked
    /// uniqueness.
    pub(crate) fn insert(&mut self, tuple: &Tuple, rid: RowId) {
        self.postings
            .entry(self.key_of(tuple))
            .or_default()
            .insert(rid);
    }

    /// Removes `rid` from the posting of `tuple`'s key.
    pub(crate) fn remove(&mut self, tuple: &Tuple, rid: RowId) {
        let key = self.key_of(tuple);
        if let Some(posting) = self.postings.get_mut(&key) {
            posting.remove(&rid);
            if posting.is_empty() {
                self.postings.remove(&key);
            }
        }
    }

    /// Row ids, ascending, whose indexed values have the keys of
    /// `values`: for non-NULL `values`, exactly the rows whose indexed
    /// values `sql_eq` them.
    pub fn probe(&self, values: &[Value]) -> &[RowId] {
        self.postings
            .get(&Self::key(values))
            .map_or(&[], Posting::as_slice)
    }
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
        idx.insert(&row(123, "Paris"), RowId(2));
        idx.insert(&row(122, "Paris"), RowId(1));
        idx.insert(&row(136, "Rome"), RowId(3));
        let rids = idx.probe(&[Value::from("Paris")]);
        assert_eq!(rids, &[RowId(1), RowId(2)]);
        assert!(idx.probe(&[Value::from("Oslo")]).is_empty());
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut idx = Index::new("pk", vec![0], true);
        idx.insert(&row(122, "Paris"), RowId(1));
        idx.check_unique(&row(122, "Paris"), RowId(1)).unwrap();
        let err = idx.check_unique(&row(122, "Rome"), RowId(2)).unwrap_err();
        match err {
            StorageError::UniqueViolation { index, key } => {
                assert_eq!(index, "pk");
                assert_eq!(key, "(122)");
            }
            other => panic!("unexpected {other:?}"),
        }
        // NULL equals nothing: a unique index files many of them
        let null = Tuple::new(vec![Value::Null, Value::from("Oslo")]);
        idx.insert(&null, RowId(3));
        idx.check_unique(&null, RowId(4)).unwrap();
    }

    #[test]
    fn remove_shrinks_posting_lists() {
        let mut idx = Index::new("by_dest", vec![1], false);
        idx.insert(&row(122, "Paris"), RowId(1));
        idx.insert(&row(123, "Paris"), RowId(2));
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
        idx.insert(&row(1, "a"), RowId(1));
        idx.remove(&row(1, "a"), RowId(1));
        idx.insert(&row(1, "b"), RowId(2));
        assert_eq!(idx.probe(&[Value::Int(1)]), &[RowId(2)]);
    }

    #[test]
    fn multi_column_keys() {
        let mut idx = Index::new("c", vec![0, 1], false);
        idx.insert(&row(1, "a"), RowId(1));
        idx.insert(&row(1, "b"), RowId(2));
        assert_eq!(idx.probe(&[Value::Int(1), Value::from("a")]), &[RowId(1)]);
        assert_eq!(idx.probe(&[Value::Int(1), Value::from("b")]), &[RowId(2)]);
        assert!(idx.probe(&[Value::Int(1)]).is_empty());
    }

    #[test]
    fn postings_stay_sorted_and_duplicate_free() {
        let mut p = Posting::default();
        for x in [5u64, 1, 3, 5, 1] {
            p.insert(x);
        }
        assert_eq!(p.as_slice(), [1, 3, 5]);
        assert!(p.contains(&3) && !p.contains(&4));
        p.remove(&3);
        p.remove(&4);
        assert_eq!((p.len(), p.iter().collect::<Vec<_>>()), (2, vec![1, 5]));
        p.set(1, false);
        p.set(5, false);
        assert!(p.is_empty());
    }
}
