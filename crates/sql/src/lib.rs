//! # youtopia-sql
//!
//! The SQL front end of the Youtopia reproduction: lexer, parser, AST
//! and pretty printer for a SQL dialect extended with the paper's
//! *entangled query* syntax (Section 2.1 of *Coordination through
//! Querying in the Youtopia System*, SIGMOD 2011):
//!
//! ```sql
//! SELECT 'Kramer', fno INTO ANSWER Reservation
//! WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
//!   AND ('Jerry', fno) IN ANSWER Reservation
//! CHOOSE 1
//! ```
//!
//! Free identifiers in an entangled query (`fno` above, which has no
//! `FROM` binding) are *coordination variables*; the coordination layer
//! (`youtopia-core`) decides their values when it matches queries.
//!
//! ```
//! use youtopia_sql::{parse_statement, Statement};
//!
//! let stmt = parse_statement(
//!     "SELECT 'Kramer', fno INTO ANSWER Reservation \
//!      WHERE ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
//! ).unwrap();
//! assert!(matches!(stmt, Statement::Entangled(_)));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::{
    BinaryOp, ColumnDef, CreateIndex, CreateTable, Delete, EntangledHead, EntangledSelect, Expr,
    Insert, Join, JoinKind, OrderByItem, Select, SelectItem, Statement, TableAtom, TableWithJoins,
    UnaryOp, Update,
};
pub use error::{SqlError, SqlResult};
pub use lexer::{lex, template_key};
pub use parser::{parse_expr, parse_statement, parse_statements};
pub use token::{Keyword, Span, Token, TokenKind};
