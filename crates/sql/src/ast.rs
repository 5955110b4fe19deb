//! The abstract syntax tree for the Youtopia SQL dialect.
//!
//! Every node implements [`std::fmt::Display`], producing SQL text that
//! parses back to an equal AST (round-trip tested), which the admin
//! interface uses to show registered queries.

use youtopia_storage::{DataType, Value};

/// A full SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE ...`
    CreateTable(CreateTable),
    /// `DROP TABLE name`
    DropTable {
        /// Table to drop.
        name: String,
    },
    /// `CREATE [UNIQUE] INDEX name ON table (cols)`
    CreateIndex(CreateIndex),
    /// `INSERT INTO ...`
    Insert(Insert),
    /// `UPDATE ...`
    Update(Update),
    /// `DELETE FROM ...`
    Delete(Delete),
    /// A plain `SELECT`.
    Select(Select),
    /// An entangled query (`SELECT ... INTO ANSWER ...`).
    Entangled(EntangledSelect),
    /// `SHOW TABLES` (admin).
    ShowTables,
    /// `SHOW PENDING` (admin: the registered entangled queries).
    ShowPending,
    /// `EXPLAIN <select|entangled>`: render the execution plan (for
    /// selects) or the compiled coordination IR (for entangled queries)
    /// without running the statement.
    Explain(Box<Statement>),
}

/// One column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether NULL is allowed (default true unless `NOT NULL` or part of
    /// the primary key).
    pub nullable: bool,
    /// Inline `PRIMARY KEY` marker.
    pub primary_key: bool,
}

/// `CREATE TABLE name (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Table-level `PRIMARY KEY (a, b)` column names (empty if none;
    /// inline markers are folded in by the parser).
    pub primary_key: Vec<String>,
}

/// `CREATE [UNIQUE] INDEX name ON table (cols)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name.
    pub name: String,
    /// Table the index is on.
    pub table: String,
    /// Indexed column names, in order.
    pub columns: Vec<String>,
    /// Whether the index enforces uniqueness.
    pub unique: bool,
}

/// `INSERT INTO table [(cols)] VALUES (...), (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Explicit column list, if given.
    pub columns: Option<Vec<String>>,
    /// One expression row per `VALUES` tuple.
    pub rows: Vec<Vec<Expr>>,
}

/// `UPDATE table SET col = expr, ... [WHERE ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// Assignments.
    pub sets: Vec<(String, Expr)>,
    /// Row filter.
    pub where_clause: Option<Expr>,
}

/// `DELETE FROM table [WHERE ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Row filter.
    pub where_clause: Option<Expr>,
}

/// A plain `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `FROM` clause (empty for `SELECT 1`-style queries).
    pub from: Vec<TableWithJoins>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT`.
    pub limit: Option<u64>,
    /// `OFFSET`.
    pub offset: Option<u64>,
}

impl Select {
    /// An empty `SELECT` skeleton (parser/builder convenience).
    pub fn empty() -> Select {
        Select {
            distinct: false,
            items: Vec::new(),
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A base table with its chained joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableWithJoins {
    /// The left-most table.
    pub base: TableAtom,
    /// Joins applied left to right.
    pub joins: Vec<Join>,
}

/// A named table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAtom {
    /// Table name.
    pub name: String,
    /// `AS alias` (or bare alias).
    pub alias: Option<String>,
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    Left,
}

/// One `JOIN table ON predicate`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join kind.
    pub kind: JoinKind,
    /// The joined table.
    pub table: TableAtom,
    /// The `ON` predicate.
    pub on: Expr,
}

/// `ORDER BY expr [ASC|DESC]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// An entangled query: the paper's
/// `SELECT select_expr INTO ANSWER tbl [, ANSWER tbl]... [WHERE ...] CHOOSE k`.
///
/// This implementation also accepts the multi-head extension
/// `SELECT e1, e2 INTO ANSWER R1, e3, e4 INTO ANSWER R2 ...` used by the
/// flight-and-hotel scenarios, where each head has its own expression
/// list and target answer relation(s).
#[derive(Debug, Clone, PartialEq)]
pub struct EntangledSelect {
    /// One or more answer heads.
    pub heads: Vec<EntangledHead>,
    /// The `WHERE` clause: database predicates plus answer constraints.
    pub where_clause: Option<Expr>,
    /// `CHOOSE k` — how many coordinated answers this query wants
    /// (the paper's examples always use 1).
    pub choose: u64,
}

/// One `exprs INTO ANSWER rel [, ANSWER rel]` head.
#[derive(Debug, Clone, PartialEq)]
pub struct EntangledHead {
    /// The contributed tuple, as expressions over constants and free
    /// variables.
    pub exprs: Vec<Expr>,
    /// The answer relation(s) receiving this tuple.
    pub relations: Vec<String>,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean NOT.
    Not,
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl BinaryOp {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
        }
    }

    /// Binding power for the pretty printer / parser (higher binds
    /// tighter).
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference (or, in entangled queries, a free coordination
    /// variable) with optional table qualifier.
    Column {
        /// Qualifier (`t` in `t.c`).
        table: Option<String>,
        /// Column / variable name.
        name: String,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call (`COUNT(*)` is `Function {name: "COUNT", star: true}`).
    Function {
        /// Function name, uppercased by the parser.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `COUNT(*)`.
        star: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `(e1, ...) [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Tested tuple (singleton for scalar `IN`).
        exprs: Vec<Expr>,
        /// The subquery.
        query: Box<Select>,
        /// Negated?
        negated: bool,
    },
    /// `(e1, ...) [NOT] IN ANSWER rel` — the entangled answer constraint.
    InAnswer {
        /// The constrained tuple template.
        exprs: Vec<Expr>,
        /// Target answer relation.
        relation: String,
        /// Negated?
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The subquery.
        query: Box<Select>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// Negated?
        negated: bool,
    },
    /// A parenthesized tuple; only legal in front of `IN` forms, the
    /// parser rewrites it away. Kept as a variant so the parser can build
    /// it before seeing the `IN`.
    Tuple(Vec<Expr>),
}

impl Expr {
    /// Column-reference shorthand.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Qualified column-reference shorthand.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    /// Literal shorthand.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// `left AND right` shorthand.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::And,
            right: Box::new(other),
        }
    }

    /// `left = right` shorthand.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::Eq,
            right: Box::new(other),
        }
    }

    /// Splits a conjunction into its conjuncts (flattens nested ANDs).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuilds a conjunction from conjuncts (returns `None` when empty).
    #[cfg(test)]
    fn conjoin(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(|acc, e| acc.and(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_shorthands() {
        let e = Expr::col("fno")
            .eq(Expr::lit(122i64))
            .and(Expr::col("x").eq(Expr::lit("y")));
        match &e {
            Expr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.conjuncts().len(), 2);
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit(2i64)))
            .and(Expr::col("c").eq(Expr::lit(3i64)));
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn conjoin_inverts_conjuncts() {
        let parts = vec![
            Expr::col("a").eq(Expr::lit(1i64)),
            Expr::col("b").eq(Expr::lit(2i64)),
        ];
        let joined = Expr::conjoin(parts.clone()).unwrap();
        let split: Vec<Expr> = joined.conjuncts().into_iter().cloned().collect();
        assert_eq!(split, parts);
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinaryOp::Or.precedence() < BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() < BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() < BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() < BinaryOp::Mul.precedence());
    }

    #[test]
    fn select_empty_has_no_clauses() {
        let s = Select::empty();
        assert!(s.items.is_empty());
        assert!(s.from.is_empty());
        assert!(s.where_clause.is_none());
    }
}
