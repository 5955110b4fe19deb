//! # youtopia-storage
//!
//! The relational storage substrate for the Youtopia reproduction
//! (*Coordination through Querying in the Youtopia System*, SIGMOD 2011).
//!
//! The demo paper's architecture (its Figure 2) places the coordination
//! component *inside* the DBMS: entangled queries read regular database
//! tables, the list of pending queries, and apply their joint answers
//! atomically. This crate provides that DBMS core:
//!
//! * [`value::Value`] — the dynamic scalar type with a total order;
//! * [`schema::Schema`] / [`schema::Column`] — table schemas with
//!   validation and primary keys;
//! * [`tuple::Tuple`] — rows, with a stable binary encoding;
//! * [`table::Table`] — heap tables with hash [`index::Index`]es over
//!   sorted [`index::Posting`]s, keyed by [`value::Value::key`];
//! * [`catalog::Catalog`] — the table namespace;
//! * [`db::Database`] — shared handle with undo-logged
//!   [`db::Transaction`]s (serialized writers / concurrent readers) and
//!   optional durability through the [`wal::Wal`] redo log.
//!
//! ## Quick example
//!
//! ```
//! use youtopia_storage::prelude::*;
//!
//! let db = Database::new();
//! db.with_txn(|txn| {
//!     txn.create_table(
//!         "Flights",
//!         Schema::with_primary_key(
//!             vec![
//!                 Column::new("fno", DataType::Int64),
//!                 Column::new("dest", DataType::Str),
//!             ],
//!             &["fno"],
//!         ),
//!     )?;
//!     txn.insert("Flights", Tuple::new(vec![Value::Int(122), Value::from("Paris")]))?;
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(db.read().table("Flights").unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod codec;
pub mod db;
pub mod error;
pub mod group_commit;
pub mod index;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;
pub mod wal;

/// Convenient glob-import of the types most callers need.
pub mod prelude {
    pub use crate::catalog::Catalog;
    pub use crate::db::{is_transient, Database, ReadTransaction, Transaction, TRANSIENT_PREFIX};
    pub use crate::error::{StorageError, StorageResult};
    pub use crate::index::{Index, Posting};
    pub use crate::schema::{Column, DataType, Schema};
    pub use crate::table::{RowId, Table};
    pub use crate::tuple::Tuple;
    pub use crate::value::Value;
    pub use crate::wal::{Wal, WalOp, WalRecord};
}

pub use prelude::*;
