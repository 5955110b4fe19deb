//! Expression evaluation with SQL three-valued logic.
//!
//! NULL is represented by [`Value::Null`] and plays the role of
//! *unknown*: comparisons against it yield NULL, `AND`/`OR` follow
//! Kleene logic, and a `WHERE` predicate only accepts rows for which the
//! predicate evaluates to exactly `TRUE`
//! ([`EvalContext::eval_predicate`]).
//!
//! The evaluator carries a *scope chain* so correlated subqueries can
//! reference columns of enclosing queries.

use youtopia_sql::{BinaryOp, Expr, UnaryOp};
use youtopia_storage::{Catalog, Tuple, Value};

use crate::error::{ExecError, ExecResult};
use crate::row::RelSchema;
use crate::select::execute_select_with_scopes;

/// One binding level: a row and the schema describing it.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    /// Schema of `row`.
    pub schema: &'a RelSchema,
    /// The current tuple.
    pub row: &'a Tuple,
}

/// Evaluation context: catalog access (for subqueries) plus the scope
/// chain, innermost scope last.
pub struct EvalContext<'a> {
    /// Catalog used to execute subqueries.
    pub catalog: &'a Catalog,
    /// Scope chain; lookups search from the innermost (last) outward.
    pub scopes: Vec<Scope<'a>>,
}

impl<'a> EvalContext<'a> {
    /// A context with no row bindings (constant expressions and
    /// uncorrelated subqueries only).
    pub fn bare(catalog: &'a Catalog) -> EvalContext<'a> {
        EvalContext {
            catalog,
            scopes: Vec::new(),
        }
    }

    /// A context with a single row scope.
    pub fn with_row(
        catalog: &'a Catalog,
        schema: &'a RelSchema,
        row: &'a Tuple,
    ) -> EvalContext<'a> {
        EvalContext {
            catalog,
            scopes: vec![Scope { schema, row }],
        }
    }

    /// Resolves a column through the scope chain.
    fn lookup(&self, table: Option<&str>, name: &str) -> ExecResult<Value> {
        for scope in self.scopes.iter().rev() {
            if let Some(pos) = scope.schema.try_resolve(table, name)? {
                return Ok(scope.row.values()[pos].clone());
            }
        }
        Err(ExecError::UnknownColumn {
            table: table.map(str::to_string),
            name: name.to_string(),
        })
    }

    /// Evaluates an expression to a value (NULL models *unknown*).
    pub fn eval(&self, expr: &Expr) -> ExecResult<Value> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column { table, name } => self.lookup(table.as_deref(), name),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr)?;
                eval_unary(*op, v)
            }
            Expr::Binary { left, op, right } => self.eval_binary(left, *op, right),
            Expr::Function { name, args, star } => self.eval_function(name, args, *star),
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = self.eval(expr)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let v = self.eval(item)?;
                    if v.is_null() {
                        saw_null = true;
                    } else if needle.sql_eq(&v) {
                        return Ok(Value::Bool(!*negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::InSubquery {
                exprs,
                query,
                negated,
            } => {
                let needle: Vec<Value> = exprs
                    .iter()
                    .map(|e| self.eval(e))
                    .collect::<ExecResult<_>>()?;
                let result = execute_select_with_scopes(self.catalog, query, &self.scopes)?;
                if result.schema.arity() != needle.len() {
                    return Err(ExecError::SubqueryArity {
                        expected: needle.len(),
                        actual: result.schema.arity(),
                    });
                }
                if needle.iter().any(Value::is_null) {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for row in &result.rows {
                    let mut all_eq = true;
                    let mut row_null = false;
                    for (n, v) in needle.iter().zip(row.values()) {
                        if v.is_null() {
                            row_null = true;
                        } else if !n.sql_eq(v) {
                            all_eq = false;
                            break;
                        }
                    }
                    if all_eq && !row_null {
                        return Ok(Value::Bool(!*negated));
                    }
                    if all_eq && row_null {
                        saw_null = true;
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Exists { query, negated } => {
                let result = execute_select_with_scopes(self.catalog, query, &self.scopes)?;
                Ok(Value::Bool(result.rows.is_empty() == *negated))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.eval(expr)?;
                let lo = self.eval(low)?;
                let hi = self.eval(high)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = compare(&v, &lo)? >= std::cmp::Ordering::Equal
                    && compare(&v, &hi)? <= std::cmp::Ordering::Equal;
                Ok(Value::Bool(inside != *negated))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(expr)?;
                let p = self.eval(pattern)?;
                match (v, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(pat)) => {
                        Ok(Value::Bool(like_match(&s, &pat) != *negated))
                    }
                    _ => Err(ExecError::Type("LIKE requires string operands".into())),
                }
            }
            Expr::InAnswer { .. } => Err(ExecError::Unsupported(
                "IN ANSWER constraints are resolved by the coordination layer, \
                 not the SQL executor"
                    .into(),
            )),
            Expr::Tuple(_) => Err(ExecError::Unsupported(
                "a bare tuple is only allowed in front of IN".into(),
            )),
        }
    }

    fn eval_binary(&self, left: &Expr, op: BinaryOp, right: &Expr) -> ExecResult<Value> {
        // Kleene logic needs laziness only for error semantics; we keep
        // strict evaluation (both sides) for simplicity and determinism.
        match op {
            BinaryOp::And => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                return kleene_and(l, r);
            }
            BinaryOp::Or => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                return kleene_or(l, r);
            }
            _ => {}
        }
        let l = self.eval(left)?;
        let r = self.eval(right)?;
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        match op {
            BinaryOp::Eq => Ok(Value::Bool(l.sql_eq(&r))),
            BinaryOp::NotEq => Ok(Value::Bool(!l.sql_eq(&r))),
            BinaryOp::Lt => Ok(Value::Bool(compare(&l, &r)? == std::cmp::Ordering::Less)),
            BinaryOp::LtEq => Ok(Value::Bool(compare(&l, &r)? != std::cmp::Ordering::Greater)),
            BinaryOp::Gt => Ok(Value::Bool(compare(&l, &r)? == std::cmp::Ordering::Greater)),
            BinaryOp::GtEq => Ok(Value::Bool(compare(&l, &r)? != std::cmp::Ordering::Less)),
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                arith(op, l, r)
            }
            BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
        }
    }

    fn eval_function(&self, name: &str, args: &[Expr], star: bool) -> ExecResult<Value> {
        if is_aggregate_name(name) {
            return Err(ExecError::Aggregate(format!(
                "aggregate {name}() is not valid in this position"
            )));
        }
        if star {
            return Err(ExecError::Unsupported(format!("{name}(*)")));
        }
        let vals: Vec<Value> = args
            .iter()
            .map(|a| self.eval(a))
            .collect::<ExecResult<_>>()?;
        match (name, vals.as_slice()) {
            ("LOWER", [Value::Str(s)]) => Ok(Value::Str(s.to_lowercase())),
            ("UPPER", [Value::Str(s)]) => Ok(Value::Str(s.to_uppercase())),
            ("LENGTH", [Value::Str(s)]) => Ok(Value::Int(s.chars().count() as i64)),
            ("ABS", [Value::Int(i)]) => Ok(Value::Int(
                i.checked_abs()
                    .ok_or_else(|| ExecError::Type("ABS overflow".into()))?,
            )),
            ("ABS", [Value::Float(x)]) => Ok(Value::Float(x.abs())),
            ("LOWER" | "UPPER" | "LENGTH" | "ABS", [Value::Null]) => Ok(Value::Null),
            ("COALESCE", vals) => {
                for v in vals {
                    if !v.is_null() {
                        return Ok(v.clone());
                    }
                }
                Ok(Value::Null)
            }
            (other, _) => Err(ExecError::Unsupported(format!(
                "function {other}() with {} argument(s)",
                args.len()
            ))),
        }
    }

    /// Evaluates a predicate: rows pass only on exactly `TRUE`.
    pub fn eval_predicate(&self, expr: &Expr) -> ExecResult<bool> {
        match self.eval(expr)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(ExecError::Type(format!(
                "predicate evaluated to non-boolean {other:?}"
            ))),
        }
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> ExecResult<Value> {
    match (op, v) {
        (_, Value::Null) => Ok(Value::Null),
        (UnaryOp::Neg, Value::Int(i)) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| ExecError::Type("negation overflow".into())),
        (UnaryOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
        (UnaryOp::Neg, other) => Err(ExecError::Type(format!("cannot negate {other:?}"))),
        (UnaryOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnaryOp::Not, other) => Err(ExecError::Type(format!("NOT applied to {other:?}"))),
    }
}

fn kleene_and(l: Value, r: Value) -> ExecResult<Value> {
    match (bool3(l)?, bool3(r)?) {
        (Some(false), _) | (_, Some(false)) => Ok(Value::Bool(false)),
        (Some(true), Some(true)) => Ok(Value::Bool(true)),
        _ => Ok(Value::Null),
    }
}

fn kleene_or(l: Value, r: Value) -> ExecResult<Value> {
    match (bool3(l)?, bool3(r)?) {
        (Some(true), _) | (_, Some(true)) => Ok(Value::Bool(true)),
        (Some(false), Some(false)) => Ok(Value::Bool(false)),
        _ => Ok(Value::Null),
    }
}

fn bool3(v: Value) -> ExecResult<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        other => Err(ExecError::Type(format!("expected boolean, got {other:?}"))),
    }
}

/// Ordered comparison for the comparison operators and `BETWEEN`, by
/// [`Value::total_cmp`]: `Equal` exactly where `sql_eq` holds, and an
/// `Int` against a `Float` by exact value. Requires comparable
/// (same-class) operands.
fn compare(l: &Value, r: &Value) -> ExecResult<std::cmp::Ordering> {
    use Value::*;
    let ok = matches!(
        (l, r),
        (Int(_), Int(_))
            | (Int(_), Float(_))
            | (Float(_), Int(_))
            | (Float(_), Float(_))
            | (Str(_), Str(_))
            | (Bool(_), Bool(_))
            | (Bytes(_), Bytes(_))
    );
    if !ok {
        return Err(ExecError::Type(format!("cannot compare {l:?} with {r:?}")));
    }
    Ok(l.total_cmp(r))
}

fn arith(op: BinaryOp, l: Value, r: Value) -> ExecResult<Value> {
    use Value::*;
    match (l, r) {
        (Int(a), Int(b)) => {
            let out = match op {
                BinaryOp::Add => a.checked_add(b),
                BinaryOp::Sub => a.checked_sub(b),
                BinaryOp::Mul => a.checked_mul(b),
                BinaryOp::Div => {
                    if b == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    a.checked_div(b)
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Int)
                .ok_or_else(|| ExecError::Type("integer overflow".into()))
        }
        (a, b) => {
            let (x, y) = match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(ExecError::Type(format!(
                        "arithmetic on non-numeric operands ({} {})",
                        a.sql_literal(),
                        b.sql_literal()
                    )))
                }
            };
            let out = match op {
                BinaryOp::Add => x + y,
                BinaryOp::Sub => x - y,
                BinaryOp::Mul => x * y,
                BinaryOp::Div => {
                    if y == 0.0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    x / y
                }
                BinaryOp::Mod => {
                    if y == 0.0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    x % y
                }
                _ => unreachable!(),
            };
            Ok(Float(out))
        }
    }
}

/// SQL `LIKE` matching: `%` matches any run, `_` matches one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // try consuming 0..=len chars
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

/// True when `name` is one of the supported aggregate functions.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// True when the expression tree contains an aggregate call.
pub fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Function { name, args, .. } => {
            is_aggregate_name(name) || args.iter().any(contains_aggregate)
        }
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::Tuple(list) => list.iter().any(contains_aggregate),
        Expr::InSubquery { exprs, .. } => exprs.iter().any(contains_aggregate),
        Expr::InAnswer { exprs, .. } => exprs.iter().any(contains_aggregate),
        Expr::Literal(_) | Expr::Column { .. } | Expr::Exists { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::ColRef;
    use youtopia_sql::parse_expr;

    fn ctx_catalog() -> Catalog {
        Catalog::new()
    }

    fn eval_const(sql: &str) -> ExecResult<Value> {
        let catalog = ctx_catalog();
        let ctx = EvalContext::bare(&catalog);
        ctx.eval(&parse_expr(sql).unwrap())
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_const("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_const("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_const("7.0 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval_const("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval_const("-(2 + 3)").unwrap(), Value::Int(-5));
        assert_eq!(eval_const("1 / 0").unwrap_err(), ExecError::DivisionByZero);
        assert_eq!(eval_const("1 % 0").unwrap_err(), ExecError::DivisionByZero);
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        assert!(matches!(
            eval_const("9223372036854775807 + 1"),
            Err(ExecError::Type(_))
        ));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_const("1 < 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("2 <= 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("'a' < 'b'").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("1 = 1.0").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("1 <> 2").unwrap(), Value::Bool(true));
        assert!(matches!(eval_const("1 < 'a'"), Err(ExecError::Type(_))));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_const("NULL = 1").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL AND TRUE").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL AND FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("NULL OR TRUE").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("NULL OR FALSE").unwrap(), Value::Null);
        assert_eq!(eval_const("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_with_nulls() {
        assert_eq!(eval_const("1 IN (1, 2)").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("3 IN (1, 2)").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("3 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_const("1 IN (1, NULL)").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("NULL IN (1, 2)").unwrap(), Value::Null);
        assert_eq!(eval_const("3 NOT IN (1, 2)").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("3 NOT IN (1, NULL)").unwrap(), Value::Null);
    }

    #[test]
    fn between_and_like() {
        assert_eq!(eval_const("2 BETWEEN 1 AND 3").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("0 BETWEEN 1 AND 3").unwrap(), Value::Bool(false));
        assert_eq!(
            eval_const("2 NOT BETWEEN 1 AND 3").unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval_const("NULL BETWEEN 1 AND 3").unwrap(), Value::Null);
        assert_eq!(eval_const("'Jerry' LIKE 'J%'").unwrap(), Value::Bool(true));
        assert_eq!(
            eval_const("'Jerry' LIKE '_erry'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_const("'Jerry' NOT LIKE 'K%'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_const("'Jerry' LIKE NULL").unwrap(), Value::Null);
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%c"));
        assert!(like_match("abc", "a%"));
        assert!(like_match("abc", "%b%"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(like_match("a%b", "a%b")); // literal traversal via %
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_const("LOWER('Paris')").unwrap(), Value::from("paris"));
        assert_eq!(eval_const("UPPER('ab')").unwrap(), Value::from("AB"));
        assert_eq!(eval_const("LENGTH('abc')").unwrap(), Value::Int(3));
        assert_eq!(eval_const("ABS(-4)").unwrap(), Value::Int(4));
        assert_eq!(eval_const("ABS(-4.5)").unwrap(), Value::Float(4.5));
        assert_eq!(eval_const("COALESCE(NULL, 2, 3)").unwrap(), Value::Int(2));
        assert_eq!(eval_const("COALESCE(NULL, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_const("LOWER(NULL)").unwrap(), Value::Null);
        assert!(matches!(
            eval_const("NOSUCH(1)"),
            Err(ExecError::Unsupported(_))
        ));
    }

    #[test]
    fn aggregates_rejected_in_scalar_position() {
        assert!(matches!(
            eval_const("COUNT(*)"),
            Err(ExecError::Aggregate(_))
        ));
        assert!(matches!(eval_const("SUM(1)"), Err(ExecError::Aggregate(_))));
    }

    #[test]
    fn in_answer_rejected_by_executor() {
        let catalog = ctx_catalog();
        let ctx = EvalContext::bare(&catalog);
        let e = parse_expr("('J', 1) IN ANSWER R").unwrap();
        assert!(matches!(ctx.eval(&e), Err(ExecError::Unsupported(_))));
    }

    #[test]
    fn column_lookup_through_scopes() {
        let catalog = ctx_catalog();
        let outer_schema = RelSchema::new(vec![ColRef::qualified("o", "x")]);
        let outer_row = Tuple::new(vec![Value::Int(10)]);
        let inner_schema = RelSchema::new(vec![ColRef::qualified("i", "y")]);
        let inner_row = Tuple::new(vec![Value::Int(20)]);
        let ctx = EvalContext {
            catalog: &catalog,
            scopes: vec![
                Scope {
                    schema: &outer_schema,
                    row: &outer_row,
                },
                Scope {
                    schema: &inner_schema,
                    row: &inner_row,
                },
            ],
        };
        assert_eq!(ctx.eval(&Expr::qcol("o", "x")).unwrap(), Value::Int(10));
        assert_eq!(ctx.eval(&Expr::qcol("i", "y")).unwrap(), Value::Int(20));
        assert_eq!(ctx.eval(&Expr::col("y")).unwrap(), Value::Int(20));
        assert!(ctx.eval(&Expr::col("ghost")).is_err());
    }

    #[test]
    fn predicate_null_is_false() {
        let catalog = ctx_catalog();
        let ctx = EvalContext::bare(&catalog);
        assert!(!ctx
            .eval_predicate(&parse_expr("NULL = 1").unwrap())
            .unwrap());
        assert!(ctx.eval_predicate(&parse_expr("1 = 1").unwrap()).unwrap());
        assert!(ctx.eval_predicate(&parse_expr("5").unwrap()).is_err());
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        assert!(contains_aggregate(&parse_expr("COUNT(*)").unwrap()));
        assert!(contains_aggregate(&parse_expr("1 + SUM(x)").unwrap()));
        assert!(contains_aggregate(
            &parse_expr("MAX(x) BETWEEN 1 AND 2").unwrap()
        ));
        assert!(!contains_aggregate(&parse_expr("x + 1").unwrap()));
        assert!(!contains_aggregate(&parse_expr("LOWER(x)").unwrap()));
    }
}
