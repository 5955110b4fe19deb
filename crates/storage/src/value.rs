//! Scalar values.
//!
//! [`Value`] is the single dynamic scalar type flowing through the whole
//! system: storage cells, expression evaluation, entangled-query bindings
//! and answer-relation tuples all use it. It provides a *total* order
//! (floats are ordered via [`f64::total_cmp`], NULL sorts first) so values
//! can serve as index keys, and a stable binary encoding used by the WAL.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::schema::DataType;

/// A dynamically typed scalar value.
///
/// The variant set matches the column types in [`DataType`]; `Null` is a
/// member of every type (SQL semantics).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL. Compares equal to itself inside the storage layer so it
    /// can be indexed; SQL three-valued logic is implemented in the
    /// expression evaluator, not here.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw byte string.
    Bytes(Vec<u8>),
}

impl Value {
    /// Returns the [`DataType`] of this value, or `None` for NULL
    /// (which belongs to every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int64),
            Value::Float(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Checks whether this value may be stored in a column of `ty`.
    ///
    /// NULL is compatible with every type; an `Int` is accepted by a
    /// `Float64` column (widening), mirroring common SQL engines.
    pub fn compatible_with(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Float64) => true,
            (v, ty) => v.data_type() == Some(ty),
        }
    }

    /// Coerces the value for storage in a column of `ty` (currently only
    /// int→float widening). Values already of the right type pass through.
    pub fn coerce_to(self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Int(i), DataType::Float64) => Value::Float(i as f64),
            (v, _) => v,
        }
    }

    /// Interprets the value as an integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interprets the value as a float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Interprets the value as a string slice if possible.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality with numeric type bridging: `Int(1)` equals
    /// `Float(1.0)`. NULL never equals anything here — callers that need
    /// three-valued logic should check [`Value::is_null`] first.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Int(a), Value::Float(b)) => (*a as f64) == *b,
            (Value::Float(a), Value::Int(b)) => *a == (*b as f64),
            (a, b) => a == b,
        }
    }

    /// Total-order comparison used for sorting and B-tree indexing.
    ///
    /// Order across type classes: NULL < Bool < numeric < Str < Bytes.
    /// Ints and floats share the numeric class and compare by value.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Bytes(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// Renders the value the way the SQL layer prints literals
    /// (strings quoted, NULL uppercase).
    pub fn sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => {
                // Keep a trailing ".0" so the literal parses back as a float.
                if x.fract() == 0.0 && x.is_finite() {
                    format!("{x:.1}")
                } else {
                    format!("{x}")
                }
            }
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bytes(b) => {
                let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
                format!("X'{hex}'")
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            // Bitwise float equality (via total_cmp) so Eq/Hash are lawful.
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                5u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => {
                write!(f, "x")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_roundtrip() {
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Int(4).data_type(), Some(DataType::Int64));
        assert_eq!(Value::Float(1.5).data_type(), Some(DataType::Float64));
        assert_eq!(Value::from("x").data_type(), Some(DataType::Str));
        assert_eq!(Value::Bytes(vec![1]).data_type(), Some(DataType::Bytes));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn null_is_compatible_with_everything() {
        for ty in [
            DataType::Bool,
            DataType::Int64,
            DataType::Float64,
            DataType::Str,
            DataType::Bytes,
        ] {
            assert!(Value::Null.compatible_with(ty));
        }
    }

    #[test]
    fn int_widens_to_float() {
        assert!(Value::Int(3).compatible_with(DataType::Float64));
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float64),
            Value::Float(3.0)
        );
        // but not the other way round
        assert!(!Value::Float(3.0).compatible_with(DataType::Int64));
    }

    #[test]
    fn sql_eq_bridges_numeric_types_but_not_null() {
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
        assert!(Value::Float(2.0).sql_eq(&Value::Int(2)));
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Int(2).sql_eq(&Value::Str("2".into())));
    }

    #[test]
    fn total_order_across_classes() {
        let mut vs = [
            Value::Str("a".into()),
            Value::Null,
            Value::Int(-5),
            Value::Bool(false),
            Value::Float(2.5),
            Value::Bytes(vec![0]),
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(false));
        assert_eq!(vs[2], Value::Bool(true));
        assert_eq!(vs[3], Value::Int(-5));
        assert_eq!(vs[4], Value::Float(2.5));
        assert_eq!(vs[5], Value::Str("a".into()));
        assert_eq!(vs[6], Value::Bytes(vec![0]));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert_eq!(
            Value::Float(4.0).total_cmp(&Value::Int(3)),
            Ordering::Greater
        );
    }

    #[test]
    fn nan_is_ordered_consistently() {
        let nan = Value::Float(f64::NAN);
        // total_cmp puts NaN after +inf; the key property is consistency.
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn sql_literal_rendering() {
        assert_eq!(Value::Null.sql_literal(), "NULL");
        assert_eq!(Value::Bool(true).sql_literal(), "TRUE");
        assert_eq!(Value::Int(42).sql_literal(), "42");
        assert_eq!(Value::Float(2.0).sql_literal(), "2.0");
        assert_eq!(Value::Float(2.25).sql_literal(), "2.25");
        assert_eq!(Value::Str("O'Hare".into()).sql_literal(), "'O''Hare'");
        assert_eq!(Value::Bytes(vec![0xab, 0x01]).sql_literal(), "X'ab01'");
    }

    #[test]
    fn hash_agrees_with_eq_for_floats() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Float(1.0));
        assert!(set.contains(&Value::Float(1.0)));
        assert!(!set.contains(&Value::Int(1))); // Eq is strict about type
    }

    #[test]
    fn display_is_unquoted() {
        assert_eq!(Value::Str("Paris".into()).to_string(), "Paris");
        assert_eq!(Value::Int(122).to_string(), "122");
        assert_eq!(Value::Bytes(vec![0xff]).to_string(), "xff");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(7i32), Value::Int(7));
        assert_eq!(Value::from(0.5), Value::Float(0.5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
        assert_eq!(Value::from(vec![1u8]), Value::Bytes(vec![1]));
    }
}
