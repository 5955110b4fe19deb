//! Table schemas: column definitions, data types, and tuple validation.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{StorageError, StorageResult};
use crate::tuple::Tuple;
use crate::value::Value;

/// The scalar column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer (`INT` / `INTEGER` / `BIGINT` in SQL).
    Int64,
    /// 64-bit IEEE float (`FLOAT` / `DOUBLE` / `REAL` in SQL).
    Float64,
    /// UTF-8 string (`STRING` / `TEXT` / `VARCHAR` in SQL).
    Str,
    /// Byte string (`BYTES` / `BLOB` in SQL).
    Bytes,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int64 => "INT",
            DataType::Float64 => "FLOAT",
            DataType::Str => "STRING",
            DataType::Bytes => "BYTES",
        };
        write!(f, "{s}")
    }
}

impl DataType {
    /// Parses a SQL type name (case-insensitive, with common aliases).
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" | "INT64" => Some(DataType::Int64),
            "FLOAT" | "DOUBLE" | "REAL" | "FLOAT64" => Some(DataType::Float64),
            "STRING" | "TEXT" | "VARCHAR" | "CHAR" => Some(DataType::Str),
            "BYTES" | "BLOB" => Some(DataType::Bytes),
            _ => None,
        }
    }
}

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (case-preserved; lookups are case-insensitive).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether NULL may be stored.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// A table schema: ordered columns plus an optional primary key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    /// Empty means no declared primary key.
    primary_key: Vec<usize>,
}

impl Schema {
    /// Builds a schema without a primary key.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema {
            columns,
            primary_key: Vec::new(),
        }
    }

    /// Builds a schema with the named primary-key columns.
    ///
    /// # Panics
    /// Panics if a primary-key column name is not part of the schema —
    /// schemas are built by the engine from validated DDL, so this is a
    /// programming error, not a runtime condition.
    pub fn with_primary_key(columns: Vec<Column>, key: &[&str]) -> Self {
        let mut schema = Schema::new(columns);
        schema.primary_key = key
            .iter()
            .map(|name| {
                schema
                    .column_index(name)
                    .unwrap_or_else(|| panic!("primary key column '{name}' not in schema"))
            })
            .collect();
        schema
    }

    /// The columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Case-insensitive lookup of a column's position.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column definition at `idx`.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// The primary-key column positions (empty if none declared).
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Extracts the primary-key values from a tuple, or `None` when the
    /// schema has no primary key.
    pub fn key_of<'a>(&self, tuple: &'a Tuple) -> Option<Vec<&'a Value>> {
        if self.primary_key.is_empty() {
            return None;
        }
        Some(
            self.primary_key
                .iter()
                .map(|&i| &tuple.values()[i])
                .collect(),
        )
    }

    /// Validates a tuple against this schema, coercing values where the
    /// engine allows it (int→float). Returns the validated (possibly
    /// coerced) tuple.
    pub fn validate(&self, tuple: Tuple) -> StorageResult<Tuple> {
        if tuple.arity() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                actual: tuple.arity(),
            });
        }
        let mut out = Vec::with_capacity(tuple.arity());
        for (value, col) in tuple.into_values().into_iter().zip(&self.columns) {
            if value.is_null() {
                if !col.nullable {
                    return Err(StorageError::NullViolation {
                        column: col.name.clone(),
                    });
                }
                out.push(value);
                continue;
            }
            if !value.compatible_with(col.ty) {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty,
                    actual: value.data_type().unwrap_or(col.ty),
                });
            }
            out.push(value.coerce_to(col.ty));
        }
        Ok(Tuple::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flights_schema() -> Schema {
        Schema::with_primary_key(
            vec![
                Column::new("fno", DataType::Int64),
                Column::new("dest", DataType::Str),
                Column::nullable("price", DataType::Float64),
            ],
            &["fno"],
        )
    }

    #[test]
    fn datatype_parse_aliases() {
        assert_eq!(DataType::parse("integer"), Some(DataType::Int64));
        assert_eq!(DataType::parse("TEXT"), Some(DataType::Str));
        assert_eq!(DataType::parse("double"), Some(DataType::Float64));
        assert_eq!(DataType::parse("BLOB"), Some(DataType::Bytes));
        assert_eq!(DataType::parse("boolean"), Some(DataType::Bool));
        assert_eq!(DataType::parse("what"), None);
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = flights_schema();
        assert_eq!(s.column_index("FNO"), Some(0));
        assert_eq!(s.column_index("Dest"), Some(1));
        assert_eq!(s.column_index("nope"), None);
    }

    #[test]
    fn validate_accepts_good_tuple_and_coerces() {
        let s = flights_schema();
        let t = Tuple::new(vec![Value::Int(122), Value::from("Paris"), Value::Int(450)]);
        let t = s.validate(t).unwrap();
        // price was widened to float
        assert_eq!(t.values()[2], Value::Float(450.0));
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let s = flights_schema();
        let t = Tuple::new(vec![Value::Int(122)]);
        assert_eq!(
            s.validate(t).unwrap_err(),
            StorageError::ArityMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let s = flights_schema();
        let t = Tuple::new(vec![Value::from("x"), Value::from("Paris"), Value::Null]);
        match s.validate(t).unwrap_err() {
            StorageError::TypeMismatch {
                column,
                expected,
                actual,
            } => {
                assert_eq!(column, "fno");
                assert_eq!(expected, DataType::Int64);
                assert_eq!(actual, DataType::Str);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_null_rules() {
        let s = flights_schema();
        // nullable price accepts NULL
        let ok = Tuple::new(vec![Value::Int(1), Value::from("Rome"), Value::Null]);
        assert!(s.validate(ok).is_ok());
        // non-nullable dest rejects NULL
        let bad = Tuple::new(vec![Value::Int(1), Value::Null, Value::Null]);
        assert_eq!(
            s.validate(bad).unwrap_err(),
            StorageError::NullViolation {
                column: "dest".into()
            }
        );
    }

    #[test]
    fn primary_key_extraction() {
        let s = flights_schema();
        let t = Tuple::new(vec![Value::Int(122), Value::from("Paris"), Value::Null]);
        let key = s.key_of(&t).unwrap();
        assert_eq!(key, vec![&Value::Int(122)]);

        let no_pk = Schema::new(vec![Column::new("a", DataType::Int64)]);
        assert!(no_pk.key_of(&Tuple::new(vec![Value::Int(1)])).is_none());
    }

    #[test]
    #[should_panic(expected = "primary key column")]
    fn bad_primary_key_panics() {
        Schema::with_primary_key(vec![Column::new("a", DataType::Int64)], &["b"]);
    }
}
