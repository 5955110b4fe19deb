//! The catalog: the named collection of tables in one database.
//!
//! Table names are case-insensitive (`Flights` and `flights` are the same
//! table) but the display case of the first definition is preserved.

use std::collections::HashMap;

use crate::error::{StorageError, StorageResult};
use crate::schema::Schema;
use crate::table::Table;

/// A case-insensitive table namespace.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    /// Keyed by lowercase name.
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Creates a table; fails if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> StorageResult<()> {
        let key = Self::key(name);
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableAlreadyExists(name.to_string()));
        }
        self.tables.insert(key, Table::new(name, schema));
        Ok(())
    }

    /// Drops a table; returns it.
    pub fn drop_table(&mut self, name: &str) -> StorageResult<Table> {
        self.tables
            .remove(&Self::key(name))
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Immutable table lookup.
    pub fn table(&self, name: &str) -> StorageResult<&Table> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Mutable table lookup.
    pub fn table_mut(&mut self, name: &str) -> StorageResult<&mut Table> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// True when a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// Display names of all tables, sorted for deterministic output.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name().to_string()).collect();
        names.sort();
        names
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables exist.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("a", DataType::Int64)])
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut cat = Catalog::new();
        cat.create_table("Flights", schema()).unwrap();
        assert!(cat.has_table("flights"));
        assert!(cat.has_table("FLIGHTS"));
        assert_eq!(cat.table("fLiGhTs").unwrap().name(), "Flights");
    }

    #[test]
    fn duplicate_names_rejected_even_across_case() {
        let mut cat = Catalog::new();
        cat.create_table("Flights", schema()).unwrap();
        assert!(matches!(
            cat.create_table("FLIGHTS", schema()),
            Err(StorageError::TableAlreadyExists(_))
        ));
    }

    #[test]
    fn drop_returns_the_table() {
        let mut cat = Catalog::new();
        cat.create_table("T", schema()).unwrap();
        let t = cat.drop_table("t").unwrap();
        assert_eq!(t.name(), "T");
        assert!(!cat.has_table("T"));
        assert!(matches!(
            cat.drop_table("T"),
            Err(StorageError::TableNotFound(_))
        ));
    }

    #[test]
    fn table_names_sorted() {
        let mut cat = Catalog::new();
        for name in ["Zeta", "Alpha", "Motel"] {
            cat.create_table(name, schema()).unwrap();
        }
        assert_eq!(cat.table_names(), vec!["Alpha", "Motel", "Zeta"]);
        assert_eq!(cat.len(), 3);
        assert!(!cat.is_empty());
    }

    #[test]
    fn missing_table_error_carries_name() {
        let cat = Catalog::new();
        assert_eq!(
            cat.table("ghost").unwrap_err(),
            StorageError::TableNotFound("ghost".into())
        );
    }
}
