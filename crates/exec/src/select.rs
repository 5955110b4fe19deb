//! Execution of `SELECT` queries.
//!
//! The engine is operator-at-a-time: each stage (FROM with joins, WHERE,
//! grouping/aggregation, projection, DISTINCT, ORDER BY, LIMIT)
//! materializes its output. An access-path chooser uses hash indexes for
//! equality predicates on base tables ([`choose_access_path`]), which
//! the matcher relies on when evaluating entangled database predicates.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use youtopia_sql::{
    BinaryOp, Expr, JoinKind, OrderByItem, Select, SelectItem, TableAtom, TableWithJoins,
};
use youtopia_storage::{Catalog, Table, Tuple, Value};

use crate::error::{ExecError, ExecResult};
use crate::eval::{contains_aggregate, is_aggregate_name, EvalContext, Scope};
use crate::row::{ColRef, RelSchema};

/// A fully materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Schema of the result columns.
    pub schema: RelSchema,
    /// The result rows.
    pub rows: Vec<Tuple>,
}

impl ResultSet {
    /// Column display names.
    pub fn column_names(&self) -> Vec<String> {
        self.schema.cols().iter().map(|c| c.name.clone()).collect()
    }
}

/// Executes a `SELECT` with no outer (correlation) scopes.
pub fn execute_select(catalog: &Catalog, select: &Select) -> ExecResult<ResultSet> {
    execute_select_with_scopes(catalog, select, &[])
}

/// Executes a `SELECT`; `outer` provides correlation scopes for
/// subqueries (innermost last).
pub fn execute_select_with_scopes(
    catalog: &Catalog,
    select: &Select,
    outer: &[Scope<'_>],
) -> ExecResult<ResultSet> {
    // 1. FROM
    let (input_schema, mut input_rows) = execute_from(catalog, select, outer)?;

    // 2. WHERE
    if let Some(pred) = &select.where_clause {
        let mut kept = Vec::with_capacity(input_rows.len());
        for row in input_rows {
            let mut scopes = outer.to_vec();
            scopes.push(Scope {
                schema: &input_schema,
                row: &row,
            });
            let ctx = EvalContext { catalog, scopes };
            if ctx.eval_predicate(pred)? {
                kept.push(row);
            }
        }
        input_rows = kept;
    }

    // 3. aggregation or plain projection
    let is_aggregate = !select.group_by.is_empty()
        || select.items.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            SelectItem::Wildcard => false,
        })
        || select.having.as_ref().is_some_and(contains_aggregate);

    let (out_schema, mut out_rows, in_rows_for_sort) = if is_aggregate {
        let (schema, rows) = execute_aggregate(catalog, select, &input_schema, &input_rows, outer)?;
        (schema, rows, None)
    } else {
        if select.having.is_some() {
            return Err(ExecError::Aggregate(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        let (schema, rows) = project(catalog, select, &input_schema, &input_rows, outer)?;
        (schema, rows, Some(input_rows))
    };

    // 4. DISTINCT: rows are equal when their values' keys are, and the
    // first row of each stays
    if select.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|row| seen.insert(row_key(row.values())));
        // DISTINCT breaks the out-row/in-row correspondence for sorting by
        // input columns; restrict ORDER BY to output columns in that case.
        return finish(catalog, select, out_schema, out_rows, None, outer);
    }

    finish(
        catalog,
        select,
        out_schema,
        out_rows,
        in_rows_for_sort.map(|r| (input_schema, r)),
        outer,
    )
}

/// The [`Value::key`]s of `values`: equal exactly where every value
/// `sql_eq`s its partner or both are NULL, the equality of `DISTINCT`
/// and `GROUP BY`.
fn row_key(values: &[Value]) -> Vec<Value> {
    values.iter().map(|v| v.key().into_owned()).collect()
}

/// ORDER BY + LIMIT/OFFSET.
fn finish(
    catalog: &Catalog,
    select: &Select,
    out_schema: RelSchema,
    out_rows: Vec<Tuple>,
    input: Option<(RelSchema, Vec<Tuple>)>,
    outer: &[Scope<'_>],
) -> ExecResult<ResultSet> {
    let mut rows = out_rows;
    if !select.order_by.is_empty() {
        rows = order_rows(
            catalog,
            &select.order_by,
            &out_schema,
            rows,
            input.as_ref(),
            outer,
        )?;
    }
    let offset = select.offset.unwrap_or(0) as usize;
    if offset > 0 {
        rows = rows.into_iter().skip(offset).collect();
    }
    if let Some(limit) = select.limit {
        rows.truncate(limit as usize);
    }
    Ok(ResultSet {
        schema: out_schema,
        rows,
    })
}

// --------------------------------------------------------------------- //
// FROM clause
// --------------------------------------------------------------------- //

fn execute_from(
    catalog: &Catalog,
    select: &Select,
    outer: &[Scope<'_>],
) -> ExecResult<(RelSchema, Vec<Tuple>)> {
    if select.from.is_empty() {
        // `SELECT 1`: one empty input row.
        return Ok((RelSchema::default(), vec![Tuple::empty()]));
    }
    let mut schema: Option<RelSchema> = None;
    let mut rows: Vec<Tuple> = Vec::new();
    for (i, twj) in select.from.iter().enumerate() {
        let (s, r) = execute_table_with_joins(catalog, twj, select, outer)?;
        if i == 0 {
            schema = Some(s);
            rows = r;
        } else {
            // cross product with previously accumulated rows
            let prev_schema = schema.take().expect("set on first iteration");
            schema = Some(prev_schema.concat(&s));
            let mut combined = Vec::with_capacity(rows.len() * r.len());
            for left in &rows {
                for right in &r {
                    combined.push(left.concat(right));
                }
            }
            rows = combined;
        }
    }
    Ok((schema.expect("from is non-empty"), rows))
}

fn execute_table_with_joins(
    catalog: &Catalog,
    twj: &TableWithJoins,
    select: &Select,
    outer: &[Scope<'_>],
) -> ExecResult<(RelSchema, Vec<Tuple>)> {
    let (mut schema, mut rows) = scan_atom(catalog, &twj.base, select)?;
    for join in &twj.joins {
        let (right_schema, right_rows) = scan_atom(catalog, &join.table, select)?;
        let joined_schema = schema.concat(&right_schema);
        let mut joined = Vec::new();
        for left in &rows {
            let mut matched = false;
            for right in &right_rows {
                let candidate = left.concat(right);
                let mut scopes = outer.to_vec();
                scopes.push(Scope {
                    schema: &joined_schema,
                    row: &candidate,
                });
                let ctx = EvalContext { catalog, scopes };
                if ctx.eval_predicate(&join.on)? {
                    matched = true;
                    joined.push(candidate);
                }
            }
            if !matched && join.kind == JoinKind::Left {
                let nulls = Tuple::new(vec![Value::Null; right_schema.arity()]);
                joined.push(left.concat(&nulls));
            }
        }
        schema = joined_schema;
        rows = joined;
    }
    Ok((schema, rows))
}

/// The access path chosen for a base-table scan.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full table scan.
    FullScan,
    /// Probe of the named index with the given key.
    IndexProbe {
        /// Index name (for EXPLAIN-style output).
        index: String,
        /// Probe key values.
        key: Vec<Value>,
    },
}

/// Chooses an access path for scanning `atom` given the query's WHERE
/// clause: a single-column hash index whose column appears in a
/// `col = literal` conjunct is probed instead of scanning, with the
/// literal itself: the index keys it as it keys stored values
/// ([`Value::key`]), so the probe finds exactly the rows `sql_eq` keeps,
/// in scan order. A NULL literal equals nothing and leaves the scan.
///
/// This is deliberately conservative (single conjunct, literal only,
/// no join predicates): the full WHERE clause is still applied
/// afterwards, so the probe is purely a prefilter and never changes
/// results.
pub fn choose_access_path(
    table: &Table,
    qualifier: &str,
    where_clause: Option<&Expr>,
) -> AccessPath {
    let Some(pred) = where_clause else {
        return AccessPath::FullScan;
    };
    for conjunct in pred.conjuncts() {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct
        else {
            continue;
        };
        // col = literal, in either order
        let (col, lit) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column { table: q, name }, Expr::Literal(v)) => ((q, name), v),
            (Expr::Literal(v), Expr::Column { table: q, name }) => ((q, name), v),
            _ => continue,
        };
        if let Some(q) = col.0 {
            if !q.eq_ignore_ascii_case(qualifier) {
                continue;
            }
        } else {
            // Unqualified: only safe when the column name is unique to
            // this table in simple single-table queries; we accept it if
            // the table has the column (the residual filter stays on).
        }
        let Some(pos) = table.schema().column_index(col.1) else {
            continue;
        };
        if let Some(idx) = table.find_index_on(&[pos]).filter(|_| !lit.is_null()) {
            return AccessPath::IndexProbe {
                index: idx.name().to_string(),
                key: vec![lit.clone()],
            };
        }
    }
    AccessPath::FullScan
}

fn scan_atom(
    catalog: &Catalog,
    atom: &TableAtom,
    select: &Select,
) -> ExecResult<(RelSchema, Vec<Tuple>)> {
    let table = catalog
        .table(&atom.name)
        .map_err(|_| ExecError::UnknownTable(atom.name.clone()))?;
    let qualifier = atom.alias.clone().unwrap_or_else(|| atom.name.clone());
    let schema = RelSchema::from_table(table, &qualifier);
    // Index-probe only helps for the single-table case; with joins the
    // predicate may reference other tables, but since the residual WHERE
    // is always re-applied, a probe keyed on this table's own literal
    // conjuncts is still sound.
    let rows = match choose_access_path(table, &qualifier, select.where_clause.as_ref()) {
        AccessPath::IndexProbe { index, key } => {
            let idx = table
                .index(&index)
                .expect("chooser returned existing index");
            idx.probe(&key)
                .iter()
                .filter_map(|rid| table.get(*rid))
                .cloned()
                .collect()
        }
        AccessPath::FullScan => table.scan().map(|(_, t)| t.clone()).collect(),
    };
    Ok((schema, rows))
}

// --------------------------------------------------------------------- //
// Projection
// --------------------------------------------------------------------- //

fn output_col_for_item(item: &SelectItem) -> ColRef {
    match item {
        SelectItem::Wildcard => unreachable!("wildcard expanded before naming"),
        SelectItem::Expr {
            expr,
            alias: Some(a),
        } => {
            let _ = expr;
            ColRef::bare(a.clone())
        }
        SelectItem::Expr {
            expr: Expr::Column { table, name },
            alias: None,
        } => ColRef {
            qualifier: table.clone(),
            name: name.clone(),
        },
        SelectItem::Expr { expr, alias: None } => ColRef::bare(expr.to_string()),
    }
}

fn project(
    catalog: &Catalog,
    select: &Select,
    input_schema: &RelSchema,
    input_rows: &[Tuple],
    outer: &[Scope<'_>],
) -> ExecResult<(RelSchema, Vec<Tuple>)> {
    // Build output schema (wildcards expand to the full input schema).
    let mut out_cols: Vec<ColRef> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => out_cols.extend(input_schema.cols().iter().cloned()),
            other => out_cols.push(output_col_for_item(other)),
        }
    }
    let out_schema = RelSchema::new(out_cols);

    let mut out_rows = Vec::with_capacity(input_rows.len());
    for row in input_rows {
        let mut values = Vec::with_capacity(out_schema.arity());
        for item in &select.items {
            match item {
                SelectItem::Wildcard => values.extend(row.values().iter().cloned()),
                SelectItem::Expr { expr, .. } => {
                    let mut scopes = outer.to_vec();
                    scopes.push(Scope {
                        schema: input_schema,
                        row,
                    });
                    let ctx = EvalContext { catalog, scopes };
                    values.push(ctx.eval(expr)?);
                }
            }
        }
        out_rows.push(Tuple::new(values));
    }
    Ok((out_schema, out_rows))
}

// --------------------------------------------------------------------- //
// Aggregation
// --------------------------------------------------------------------- //

struct GroupEvaluator<'a> {
    catalog: &'a Catalog,
    group_exprs: &'a [Expr],
    /// Values of the group expressions for this group.
    group_key: &'a [Value],
    rows: &'a [Tuple],
    schema: &'a RelSchema,
    outer: &'a [Scope<'a>],
}

impl GroupEvaluator<'_> {
    fn eval(&self, expr: &Expr) -> ExecResult<Value> {
        // A select/having expression equal to a GROUP BY expression takes
        // the group's key value.
        if let Some(pos) = self.group_exprs.iter().position(|g| g == expr) {
            return Ok(self.group_key[pos].clone());
        }
        match expr {
            Expr::Function { name, args, star } if is_aggregate_name(name) => {
                self.eval_aggregate(name, args, *star)
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Unary { op, expr } => {
                let inner = self.eval(expr)?;
                // reuse scalar machinery via a tiny context on a dummy row
                let tmp_schema = RelSchema::default();
                let tmp_row = Tuple::empty();
                let ctx = EvalContext::with_row(self.catalog, &tmp_schema, &tmp_row);
                ctx.eval(&Expr::Unary {
                    op: *op,
                    expr: Box::new(Expr::Literal(inner)),
                })
            }
            Expr::Binary { left, op, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                let tmp_schema = RelSchema::default();
                let tmp_row = Tuple::empty();
                let ctx = EvalContext::with_row(self.catalog, &tmp_schema, &tmp_row);
                ctx.eval(&Expr::Binary {
                    left: Box::new(Expr::Literal(l)),
                    op: *op,
                    right: Box::new(Expr::Literal(r)),
                })
            }
            Expr::Column { table, name } => Err(ExecError::Aggregate(format!(
                "column '{}' must appear in GROUP BY or inside an aggregate",
                match table {
                    Some(t) => format!("{t}.{name}"),
                    None => name.clone(),
                }
            ))),
            other => Err(ExecError::Aggregate(format!(
                "unsupported expression in aggregate query: {other}"
            ))),
        }
    }

    fn eval_aggregate(&self, name: &str, args: &[Expr], star: bool) -> ExecResult<Value> {
        if star {
            if name != "COUNT" {
                return Err(ExecError::Aggregate(format!("{name}(*) is not defined")));
            }
            return Ok(Value::Int(self.rows.len() as i64));
        }
        if args.len() != 1 {
            return Err(ExecError::Aggregate(format!(
                "{name}() takes exactly one argument"
            )));
        }
        // Evaluate the argument per row (NULLs are skipped, SQL-style).
        let mut vals = Vec::with_capacity(self.rows.len());
        for row in self.rows {
            let mut scopes = self.outer.to_vec();
            scopes.push(Scope {
                schema: self.schema,
                row,
            });
            let ctx = EvalContext {
                catalog: self.catalog,
                scopes,
            };
            let v = ctx.eval(&args[0])?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        match name {
            "COUNT" => Ok(Value::Int(vals.len() as i64)),
            "MIN" => Ok(vals.into_iter().min().unwrap_or(Value::Null)),
            "MAX" => Ok(vals.into_iter().max().unwrap_or(Value::Null)),
            "SUM" | "AVG" => {
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                let all_int = vals.iter().all(|v| matches!(v, Value::Int(_)));
                let n = vals.len();
                if all_int && name == "SUM" {
                    let mut acc: i64 = 0;
                    for v in &vals {
                        acc = acc
                            .checked_add(v.as_int().expect("all ints"))
                            .ok_or_else(|| ExecError::Type("SUM overflow".into()))?;
                    }
                    Ok(Value::Int(acc))
                } else {
                    let mut acc = 0.0;
                    for v in &vals {
                        acc += v.as_float().ok_or_else(|| {
                            ExecError::Type(format!("{name}() over non-numeric value"))
                        })?;
                    }
                    if name == "AVG" {
                        Ok(Value::Float(acc / n as f64))
                    } else {
                        Ok(Value::Float(acc))
                    }
                }
            }
            other => Err(ExecError::Aggregate(format!("unknown aggregate {other}()"))),
        }
    }
}

fn execute_aggregate(
    catalog: &Catalog,
    select: &Select,
    input_schema: &RelSchema,
    input_rows: &[Tuple],
    outer: &[Scope<'_>],
) -> ExecResult<(RelSchema, Vec<Tuple>)> {
    // group rows by the keys of their GROUP BY values; a group keeps
    // its first row's values for output
    let mut groups: Vec<(Vec<Value>, Vec<Tuple>)> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    for row in input_rows {
        let mut key = Vec::with_capacity(select.group_by.len());
        for g in &select.group_by {
            let mut scopes = outer.to_vec();
            scopes.push(Scope {
                schema: input_schema,
                row,
            });
            let ctx = EvalContext { catalog, scopes };
            key.push(ctx.eval(g)?);
        }
        match index.entry(row_key(&key)) {
            Entry::Occupied(i) => groups[*i.get()].1.push(row.clone()),
            Entry::Vacant(slot) => {
                slot.insert(groups.len());
                groups.push((key, vec![row.clone()]));
            }
        }
    }
    // With no GROUP BY, aggregates run over all rows as one group (even
    // when empty).
    if select.group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut out_cols = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                return Err(ExecError::Aggregate(
                    "'*' is not allowed with GROUP BY".into(),
                ))
            }
            other => out_cols.push(output_col_for_item(other)),
        }
    }
    let out_schema = RelSchema::new(out_cols);

    let mut out_rows = Vec::with_capacity(groups.len());
    for (key, rows) in &groups {
        let ge = GroupEvaluator {
            catalog,
            group_exprs: &select.group_by,
            group_key: key,
            rows,
            schema: input_schema,
            outer,
        };
        if let Some(having) = &select.having {
            match ge.eval(having)? {
                Value::Bool(true) => {}
                Value::Bool(false) | Value::Null => continue,
                other => {
                    return Err(ExecError::Type(format!(
                        "HAVING evaluated to non-boolean {other:?}"
                    )))
                }
            }
        }
        let mut values = Vec::with_capacity(select.items.len());
        for item in &select.items {
            let SelectItem::Expr { expr, .. } = item else {
                unreachable!()
            };
            values.push(ge.eval(expr)?);
        }
        out_rows.push(Tuple::new(values));
    }
    Ok((out_schema, out_rows))
}

// --------------------------------------------------------------------- //
// ORDER BY
// --------------------------------------------------------------------- //

fn order_rows(
    catalog: &Catalog,
    order_by: &[OrderByItem],
    out_schema: &RelSchema,
    out_rows: Vec<Tuple>,
    input: Option<&(RelSchema, Vec<Tuple>)>,
    outer: &[Scope<'_>],
) -> ExecResult<Vec<Tuple>> {
    // Compute sort keys: each ORDER BY expression is evaluated against
    // the output row first (covers aliases); if it doesn't resolve there
    // and the input rows are still aligned with the output, fall back to
    // the input row (covers sorting by non-projected columns).
    let mut keyed: Vec<(Vec<Value>, Tuple)> = Vec::with_capacity(out_rows.len());
    for (i, row) in out_rows.into_iter().enumerate() {
        let mut key = Vec::with_capacity(order_by.len());
        for item in order_by {
            let ctx = EvalContext::with_row(catalog, out_schema, &row);
            let v = match ctx.eval(&item.expr) {
                Ok(v) => v,
                Err(ExecError::UnknownColumn { .. }) => {
                    let Some((in_schema, in_rows)) = input else {
                        return Err(ExecError::UnknownColumn {
                            table: None,
                            name: item.expr.to_string(),
                        });
                    };
                    let in_row = &in_rows[i];
                    let mut scopes = outer.to_vec();
                    scopes.push(Scope {
                        schema: in_schema,
                        row: in_row,
                    });
                    let ctx = EvalContext { catalog, scopes };
                    ctx.eval(&item.expr)?
                }
                Err(e) => return Err(e),
            };
            key.push(v);
        }
        keyed.push((key, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (item, (a, b)) in order_by.iter().zip(ka.iter().zip(kb.iter())) {
            let ord = a.total_cmp(b);
            let ord = if item.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_sql::parse_statement;
    use youtopia_storage::{Column, DataType, Database, Schema};

    fn fixture() -> Database {
        let db = Database::new();
        db.with_txn(|txn| {
            txn.create_table(
                "Flights",
                Schema::with_primary_key(
                    vec![
                        Column::new("fno", DataType::Int64),
                        Column::new("dest", DataType::Str),
                        Column::nullable("price", DataType::Float64),
                    ],
                    &["fno"],
                ),
            )?;
            for (fno, dest, price) in [
                (122, "Paris", Some(450.0)),
                (123, "Paris", Some(500.0)),
                (134, "Paris", None),
                (136, "Rome", Some(300.0)),
            ] {
                txn.insert(
                    "Flights",
                    Tuple::new(vec![
                        Value::Int(fno),
                        Value::from(dest),
                        price.map(Value::Float).unwrap_or(Value::Null),
                    ]),
                )?;
            }
            txn.create_table(
                "Airlines",
                Schema::new(vec![
                    Column::new("fno", DataType::Int64),
                    Column::new("airline", DataType::Str),
                ]),
            )?;
            for (fno, airline) in [
                (122, "United"),
                (123, "United"),
                (134, "Lufthansa"),
                (136, "Alitalia"),
            ] {
                txn.insert(
                    "Airlines",
                    Tuple::new(vec![Value::Int(fno), Value::from(airline)]),
                )?;
            }
            Ok(())
        })
        .unwrap();
        db
    }

    fn run(db: &Database, sql: &str) -> ResultSet {
        let stmt = parse_statement(sql).unwrap();
        let youtopia_sql::Statement::Select(sel) = stmt else {
            panic!("not a select")
        };
        let read = db.read();
        execute_select(read.catalog(), &sel).unwrap_or_else(|e| panic!("exec '{sql}': {e}"))
    }

    fn run_err(db: &Database, sql: &str) -> ExecError {
        let stmt = parse_statement(sql).unwrap();
        let youtopia_sql::Statement::Select(sel) = stmt else {
            panic!("not a select")
        };
        let read = db.read();
        execute_select(read.catalog(), &sel).unwrap_err()
    }

    fn ints(rs: &ResultSet, col: usize) -> Vec<i64> {
        rs.rows
            .iter()
            .map(|r| r.values()[col].as_int().unwrap())
            .collect()
    }

    #[test]
    fn select_star() {
        let db = fixture();
        let rs = run(&db, "SELECT * FROM Flights");
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.schema.arity(), 3);
        assert_eq!(rs.column_names(), vec!["fno", "dest", "price"]);
    }

    #[test]
    fn where_filter() {
        let db = fixture();
        let rs = run(&db, "SELECT fno FROM Flights WHERE dest = 'Paris'");
        assert_eq!(ints(&rs, 0), vec![122, 123, 134]);
    }

    #[test]
    fn where_with_null_price_is_excluded_from_comparisons() {
        let db = fixture();
        let rs = run(&db, "SELECT fno FROM Flights WHERE price < 10000");
        // flight 134 has NULL price: excluded (3VL)
        assert_eq!(ints(&rs, 0), vec![122, 123, 136]);
    }

    #[test]
    fn projection_expressions_and_aliases() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT fno + 1000 AS big, UPPER(dest) FROM Flights WHERE fno = 122",
        );
        assert_eq!(rs.column_names()[0], "big");
        assert_eq!(rs.rows[0].values()[0], Value::Int(1122));
        assert_eq!(rs.rows[0].values()[1], Value::from("PARIS"));
    }

    #[test]
    fn inner_join() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT f.fno, a.airline FROM Flights f JOIN Airlines a ON f.fno = a.fno \
             WHERE f.dest = 'Paris' ORDER BY f.fno",
        );
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0].values()[1], Value::from("United"));
        assert_eq!(rs.rows[2].values()[1], Value::from("Lufthansa"));
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = fixture();
        db.with_txn(|txn| {
            txn.insert(
                "Flights",
                Tuple::new(vec![Value::Int(200), Value::from("Oslo"), Value::Null]),
            )
            .map(|_| ())
        })
        .unwrap();
        let rs = run(
            &db,
            "SELECT f.fno, a.airline FROM Flights f LEFT JOIN Airlines a ON f.fno = a.fno \
             ORDER BY f.fno",
        );
        assert_eq!(rs.rows.len(), 5);
        let oslo = rs
            .rows
            .iter()
            .find(|r| r.values()[0] == Value::Int(200))
            .unwrap();
        assert_eq!(oslo.values()[1], Value::Null);
    }

    #[test]
    fn cross_product_from_list() {
        let db = fixture();
        let rs = run(&db, "SELECT f.fno, a.airline FROM Flights f, Airlines a");
        assert_eq!(rs.rows.len(), 16);
    }

    #[test]
    fn aggregates_whole_table() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT COUNT(*), COUNT(price), SUM(price), MIN(price), MAX(price), AVG(price) \
             FROM Flights",
        );
        let r = &rs.rows[0];
        assert_eq!(r.values()[0], Value::Int(4));
        assert_eq!(r.values()[1], Value::Int(3)); // NULL price skipped
        assert_eq!(r.values()[2], Value::Float(1250.0));
        assert_eq!(r.values()[3], Value::Float(300.0));
        assert_eq!(r.values()[4], Value::Float(500.0));
        match &r.values()[5] {
            Value::Float(avg) => assert!((avg - 1250.0 / 3.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregates_on_empty_input() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT COUNT(*), SUM(price) FROM Flights WHERE dest = 'Nowhere'",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0].values()[0], Value::Int(0));
        assert_eq!(rs.rows[0].values()[1], Value::Null);
    }

    #[test]
    fn group_by_with_having() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT dest, COUNT(*) AS n FROM Flights GROUP BY dest HAVING COUNT(*) > 1 \
             ORDER BY n DESC",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0].values()[0], Value::from("Paris"));
        assert_eq!(rs.rows[0].values()[1], Value::Int(3));
    }

    #[test]
    fn group_by_exposes_key_column() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT dest, SUM(price) FROM Flights GROUP BY dest ORDER BY dest",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0].values()[0], Value::from("Paris"));
        assert_eq!(rs.rows[0].values()[1], Value::Float(950.0));
        assert_eq!(rs.rows[1].values()[0], Value::from("Rome"));
    }

    #[test]
    fn non_grouped_column_is_an_error() {
        let db = fixture();
        let err = run_err(&db, "SELECT fno, COUNT(*) FROM Flights GROUP BY dest");
        assert!(matches!(err, ExecError::Aggregate(_)));
    }

    #[test]
    fn distinct() {
        let db = fixture();
        let rs = run(&db, "SELECT DISTINCT dest FROM Flights ORDER BY dest");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_by_limit_offset() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT fno FROM Flights ORDER BY fno DESC LIMIT 2 OFFSET 1",
        );
        assert_eq!(ints(&rs, 0), vec![134, 123]);
    }

    #[test]
    fn order_by_non_projected_column() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT dest FROM Flights WHERE price IS NOT NULL ORDER BY price",
        );
        assert_eq!(
            rs.rows
                .iter()
                .map(|r| r.values()[0].as_str().unwrap().to_string())
                .collect::<Vec<_>>(),
            vec!["Rome", "Paris", "Paris"]
        );
    }

    #[test]
    fn uncorrelated_in_subquery() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT fno FROM Flights WHERE fno IN (SELECT fno FROM Airlines WHERE airline = 'United') \
             ORDER BY fno",
        );
        assert_eq!(ints(&rs, 0), vec![122, 123]);
    }

    #[test]
    fn correlated_exists_subquery() {
        let db = fixture();
        let rs = run(
            &db,
            "SELECT f.fno FROM Flights f WHERE EXISTS \
             (SELECT 1 FROM Airlines a WHERE a.fno = f.fno AND a.airline = 'Alitalia')",
        );
        assert_eq!(ints(&rs, 0), vec![136]);
    }

    #[test]
    fn not_exists() {
        let db = fixture();
        db.with_txn(|txn| {
            txn.insert(
                "Flights",
                Tuple::new(vec![Value::Int(200), Value::from("Oslo"), Value::Null]),
            )
            .map(|_| ())
        })
        .unwrap();
        let rs = run(
            &db,
            "SELECT f.fno FROM Flights f WHERE NOT EXISTS \
             (SELECT 1 FROM Airlines a WHERE a.fno = f.fno)",
        );
        assert_eq!(ints(&rs, 0), vec![200]);
    }

    #[test]
    fn select_without_from() {
        let db = fixture();
        let rs = run(&db, "SELECT 1 + 1, 'x'");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0].values()[0], Value::Int(2));
    }

    #[test]
    fn index_probe_is_chosen_for_pk_equality() {
        let db = fixture();
        let read = db.read();
        let table = read.table("Flights").unwrap();
        let stmt = parse_statement("SELECT * FROM Flights WHERE fno = 122").unwrap();
        let youtopia_sql::Statement::Select(sel) = stmt else {
            panic!()
        };
        let path = choose_access_path(table, "Flights", sel.where_clause.as_ref());
        assert_eq!(
            path,
            AccessPath::IndexProbe {
                index: "Flights_pk".into(),
                key: vec![Value::Int(122)]
            }
        );
        // and the query result is right
        drop(read);
        let rs = run(&db, "SELECT dest FROM Flights WHERE fno = 122");
        assert_eq!(rs.rows[0].values()[0], Value::from("Paris"));
    }

    /// A probe finds what a scan finds when the literal's type differs
    /// from the column's: `price = 3` and `fno = 3.0` probe with the key
    /// `3` that both the stored `Float(3.0)` and `Int(3)` are filed
    /// under, `price = 0` with the key `0` of a stored `-0.0`, and
    /// `price = NULL` scans.
    #[test]
    fn index_probe_returns_the_rows_a_scan_returns() {
        let db = Database::new();
        db.with_txn(|txn| {
            txn.create_table(
                "F",
                Schema::new(vec![
                    Column::new("fno", DataType::Int64),
                    Column::new("price", DataType::Float64),
                ]),
            )?;
            txn.insert("F", Tuple::new(vec![Value::Int(3), Value::Int(3)]))?;
            txn.insert("F", Tuple::new(vec![Value::Int(5), Value::Float(-0.0)]))
                .map(|_| ())
        })
        .unwrap();
        let queries = [
            "SELECT fno FROM F WHERE fno = 3.0",
            "SELECT fno FROM F WHERE price = 3",
            "SELECT fno FROM F WHERE 3 = price",
            "SELECT fno FROM F WHERE fno = 3",
            "SELECT fno FROM F WHERE price = NULL",
            "SELECT fno FROM F WHERE price = 0",
        ];
        let scanned: Vec<Vec<i64>> = queries.iter().map(|q| ints(&run(&db, q), 0)).collect();
        assert_eq!(
            scanned,
            [vec![3], vec![3], vec![3], vec![3], vec![], vec![5]]
        );
        db.with_txn(|txn| {
            txn.create_index("F", "by_fno", &["fno"], false)?;
            txn.create_index("F", "by_price", &["price"], false)
        })
        .unwrap();
        let probed: Vec<Vec<i64>> = queries.iter().map(|q| ints(&run(&db, q), 0)).collect();
        assert_eq!(probed, scanned);
    }

    /// `0.0` and `-0.0` are one SQL value: an equality with either
    /// zero, or with `0`, returns the rows holding both, whether the
    /// column is scanned or indexed.
    #[test]
    fn float_zeros_compare_equal_with_and_without_an_index() {
        let db = Database::new();
        db.with_txn(|txn| {
            txn.create_table(
                "F",
                Schema::new(vec![
                    Column::new("fno", DataType::Int64),
                    Column::new("price", DataType::Float64),
                ]),
            )?;
            txn.insert("F", Tuple::new(vec![Value::Int(1), Value::Float(0.0)]))?;
            txn.insert("F", Tuple::new(vec![Value::Int(2), Value::Float(-0.0)]))?;
            txn.insert("F", Tuple::new(vec![Value::Int(3), Value::Float(1.0)]))
                .map(|_| ())
        })
        .unwrap();
        let queries = [
            "SELECT fno FROM F WHERE price = 0",
            "SELECT fno FROM F WHERE price = 0.0",
            "SELECT fno FROM F WHERE price = -0.0",
        ];
        let sorted = |q: &str| {
            let mut fnos = ints(&run(&db, q), 0);
            fnos.sort_unstable();
            fnos
        };
        for q in queries {
            assert_eq!(sorted(q), [1, 2], "scan: {q}");
        }
        db.with_txn(|txn| txn.create_index("F", "by_price", &["price"], false))
            .unwrap();
        for q in queries {
            assert_eq!(sorted(q), [1, 2], "index: {q}");
        }
    }

    /// `P (price FLOAT PRIMARY KEY, n INT)` holding `(0.0, 1)`, and the
    /// outcome of inserting `(-0.0, 2)` after it.
    fn zero_priced() -> (Database, Result<(), ExecError>) {
        use crate::engine::run_sql;
        let db = Database::new();
        run_sql(&db, "CREATE TABLE P (price FLOAT PRIMARY KEY, n INT)").unwrap();
        run_sql(&db, "INSERT INTO P VALUES (0.0, 1)").unwrap();
        let second = run_sql(&db, "INSERT INTO P VALUES (-0.0, 2)").map(drop);
        (db, second)
    }

    /// A unique `FLOAT` index files `0.0` and `-0.0` under one key:
    /// they are one SQL value, so the second zero is a duplicate.
    #[test]
    fn a_unique_float_index_rejects_the_other_zero() {
        let (_, second) = zero_priced();
        assert!(
            matches!(
                second,
                Err(ExecError::Storage(
                    youtopia_storage::StorageError::UniqueViolation { .. }
                ))
            ),
            "{second:?}"
        );
    }

    /// An equality with either zero probes the one key and finds the
    /// one row.
    #[test]
    fn a_negative_zero_probe_finds_the_one_zero_row() {
        let (db, _) = zero_priced();
        for q in [
            "SELECT n FROM P WHERE price = -0.0",
            "SELECT n FROM P WHERE price = 0.0",
            "SELECT n FROM P WHERE price = 0",
        ] {
            assert_eq!(ints(&run(&db, q), 0), [1], "{q}");
        }
    }

    #[test]
    fn full_scan_when_no_index_matches() {
        let db = fixture();
        let read = db.read();
        let table = read.table("Flights").unwrap();
        let stmt = parse_statement("SELECT * FROM Flights WHERE dest = 'Paris'").unwrap();
        let youtopia_sql::Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(
            choose_access_path(table, "Flights", sel.where_clause.as_ref()),
            AccessPath::FullScan
        );
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = fixture();
        assert!(matches!(
            run_err(&db, "SELECT * FROM Ghost"),
            ExecError::UnknownTable(_)
        ));
        assert!(matches!(
            run_err(&db, "SELECT ghost FROM Flights"),
            ExecError::UnknownColumn { .. }
        ));
        assert!(matches!(
            run_err(&db, "SELECT 1 FROM Flights HAVING 1 = 1"),
            ExecError::Aggregate(_)
        ));
    }

    #[test]
    fn ambiguous_column_detected() {
        let db = fixture();
        let err = run_err(
            &db,
            "SELECT fno FROM Flights f JOIN Airlines a ON f.fno = a.fno",
        );
        assert!(matches!(err, ExecError::AmbiguousColumn(_)));
    }
}
