//! Execution of DDL and DML statements inside a storage transaction.

use youtopia_sql::{CreateIndex, CreateTable, Delete, Expr, Insert, Update};
use youtopia_storage::{Column, RowId, Schema, StorageError, Transaction, Tuple, Value};

use crate::error::{ExecError, ExecResult};
use crate::eval::EvalContext;
use crate::row::RelSchema;

/// Executes `CREATE TABLE`.
pub fn execute_create_table(txn: &mut Transaction, stmt: &CreateTable) -> ExecResult<()> {
    let columns: Vec<Column> = stmt
        .columns
        .iter()
        .map(|c| Column {
            name: c.name.clone(),
            ty: c.ty,
            nullable: c.nullable,
        })
        .collect();
    let schema = if stmt.primary_key.is_empty() {
        Schema::new(columns)
    } else {
        // Validate the key columns exist before the panicking constructor.
        for key in &stmt.primary_key {
            if !columns.iter().any(|c| c.name.eq_ignore_ascii_case(key)) {
                return Err(ExecError::Storage(StorageError::ColumnNotFound {
                    table: stmt.name.clone(),
                    column: key.clone(),
                }));
            }
        }
        let refs: Vec<&str> = stmt.primary_key.iter().map(String::as_str).collect();
        Schema::with_primary_key(columns, &refs)
    };
    txn.create_table(&stmt.name, schema)?;
    Ok(())
}

/// Executes `CREATE [UNIQUE] INDEX` (a hash index).
pub fn execute_create_index(txn: &mut Transaction, stmt: &CreateIndex) -> ExecResult<()> {
    let cols: Vec<&str> = stmt.columns.iter().map(String::as_str).collect();
    txn.create_index(&stmt.table, &stmt.name, &cols, stmt.unique)?;
    Ok(())
}

/// Executes `INSERT`; returns the number of rows inserted.
pub fn execute_insert(txn: &mut Transaction, stmt: &Insert) -> ExecResult<usize> {
    // Resolve the column list to positions once.
    let (arity, positions) = {
        let table = txn.table(&stmt.table)?;
        let schema = table.schema();
        let positions: Option<Vec<usize>> = match &stmt.columns {
            None => None,
            Some(cols) => Some(
                cols.iter()
                    .map(|c| {
                        schema
                            .column_index(c)
                            .ok_or_else(|| StorageError::ColumnNotFound {
                                table: stmt.table.clone(),
                                column: c.clone(),
                            })
                    })
                    .collect::<Result<_, _>>()?,
            ),
        };
        (schema.arity(), positions)
    };

    let empty_schema = RelSchema::default();
    let empty_row = Tuple::empty();
    let mut count = 0;
    for row_exprs in &stmt.rows {
        // INSERT expressions are constant (no row context).
        let values: Vec<Value> = {
            let catalog = txn.catalog();
            let ctx = EvalContext::with_row(catalog, &empty_schema, &empty_row);
            row_exprs
                .iter()
                .map(|e| ctx.eval(e))
                .collect::<ExecResult<_>>()?
        };
        let tuple = match &positions {
            None => Tuple::new(values),
            Some(pos) => {
                if pos.len() != values.len() {
                    return Err(ExecError::Storage(StorageError::ArityMismatch {
                        expected: pos.len(),
                        actual: values.len(),
                    }));
                }
                let mut full = vec![Value::Null; arity];
                for (&p, v) in pos.iter().zip(values) {
                    full[p] = v;
                }
                Tuple::new(full)
            }
        };
        txn.insert(&stmt.table, tuple)?;
        count += 1;
    }
    Ok(count)
}

/// Collects the row ids matching a DML `WHERE` clause.
fn matching_rows(
    txn: &Transaction,
    table_name: &str,
    where_clause: Option<&Expr>,
) -> ExecResult<Vec<(RowId, Tuple)>> {
    let table = txn.table(table_name)?;
    let schema = RelSchema::from_table(table, table_name);
    let catalog = txn.catalog();
    let mut out = Vec::new();
    for (rid, tuple) in table.scan() {
        let keep = match where_clause {
            None => true,
            Some(pred) => {
                let ctx = EvalContext::with_row(catalog, &schema, tuple);
                ctx.eval_predicate(pred)?
            }
        };
        if keep {
            out.push((rid, tuple.clone()));
        }
    }
    Ok(out)
}

/// Executes `UPDATE`; returns the number of rows changed.
pub fn execute_update(txn: &mut Transaction, stmt: &Update) -> ExecResult<usize> {
    let targets = matching_rows(txn, &stmt.table, stmt.where_clause.as_ref())?;
    // Resolve SET column positions.
    let set_positions: Vec<(usize, &Expr)> = {
        let table = txn.table(&stmt.table)?;
        let schema = table.schema();
        stmt.sets
            .iter()
            .map(|(col, expr)| {
                schema.column_index(col).map(|p| (p, expr)).ok_or_else(|| {
                    StorageError::ColumnNotFound {
                        table: stmt.table.clone(),
                        column: col.clone(),
                    }
                })
            })
            .collect::<Result<_, _>>()?
    };
    let rel_schema = {
        let table = txn.table(&stmt.table)?;
        RelSchema::from_table(table, &stmt.table)
    };
    let mut count = 0;
    for (rid, old) in targets {
        let new_tuple = {
            let catalog = txn.catalog();
            let ctx = EvalContext::with_row(catalog, &rel_schema, &old);
            let mut values = old.values().to_vec();
            for (pos, expr) in &set_positions {
                values[*pos] = ctx.eval(expr)?;
            }
            Tuple::new(values)
        };
        txn.update(&stmt.table, rid, new_tuple)?;
        count += 1;
    }
    Ok(count)
}

/// Executes `DELETE`; returns the number of rows removed.
pub fn execute_delete(txn: &mut Transaction, stmt: &Delete) -> ExecResult<usize> {
    let targets = matching_rows(txn, &stmt.table, stmt.where_clause.as_ref())?;
    let mut count = 0;
    for (rid, _) in targets {
        txn.delete(&stmt.table, rid)?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_sql::{parse_statement, Statement};
    use youtopia_storage::Database;

    fn setup() -> Database {
        let db = Database::new();
        let mut txn = db.begin();
        let Statement::CreateTable(ct) = parse_statement(
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL, price FLOAT)",
        )
        .unwrap() else {
            panic!()
        };
        execute_create_table(&mut txn, &ct).unwrap();
        txn.commit().unwrap();
        db
    }

    fn insert(db: &Database, sql: &str) -> ExecResult<usize> {
        let Statement::Insert(ins) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let mut txn = db.begin();
        let n = execute_insert(&mut txn, &ins)?;
        txn.commit().unwrap();
        Ok(n)
    }

    #[test]
    fn create_table_and_insert() {
        let db = setup();
        let n = insert(
            &db,
            "INSERT INTO Flights VALUES (122, 'Paris', 450.0), (136, 'Rome', 300.0)",
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.read().table("Flights").unwrap().len(), 2);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = setup();
        insert(&db, "INSERT INTO Flights (dest, fno) VALUES ('Oslo', 1)").unwrap();
        let read = db.read();
        let t = read.table("Flights").unwrap();
        let (_, row) = t.scan().next().unwrap();
        assert_eq!(row.values()[0], Value::Int(1));
        assert_eq!(row.values()[1], Value::from("Oslo"));
        assert_eq!(row.values()[2], Value::Null);
    }

    #[test]
    fn insert_expression_values() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO Flights VALUES (100 + 22, LOWER('PARIS'), 4.5 * 100)",
        )
        .unwrap();
        let read = db.read();
        let (_, row) = read.table("Flights").unwrap().scan().next().unwrap();
        assert_eq!(row.values()[0], Value::Int(122));
        assert_eq!(row.values()[1], Value::from("paris"));
        assert_eq!(row.values()[2], Value::Float(450.0));
    }

    #[test]
    fn insert_arity_mismatch_with_columns() {
        let db = setup();
        let err = insert(&db, "INSERT INTO Flights (fno, dest) VALUES (1)").unwrap_err();
        assert!(matches!(
            err,
            ExecError::Storage(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn insert_unknown_column() {
        let db = setup();
        let err = insert(&db, "INSERT INTO Flights (ghost) VALUES (1)").unwrap_err();
        assert!(matches!(
            err,
            ExecError::Storage(StorageError::ColumnNotFound { .. })
        ));
    }

    #[test]
    fn update_with_where_and_expressions() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO Flights VALUES (122, 'Paris', 450.0), (136, 'Rome', 300.0)",
        )
        .unwrap();
        let Statement::Update(up) =
            parse_statement("UPDATE Flights SET price = price * 2 WHERE dest = 'Paris'").unwrap()
        else {
            panic!()
        };
        let mut txn = db.begin();
        let n = execute_update(&mut txn, &up).unwrap();
        txn.commit().unwrap();
        assert_eq!(n, 1);
        let read = db.read();
        let t = read.table("Flights").unwrap();
        let paris = t
            .scan()
            .find(|(_, r)| r.values()[1] == Value::from("Paris"))
            .unwrap()
            .1;
        assert_eq!(paris.values()[2], Value::Float(900.0));
        let rome = t
            .scan()
            .find(|(_, r)| r.values()[1] == Value::from("Rome"))
            .unwrap()
            .1;
        assert_eq!(rome.values()[2], Value::Float(300.0));
    }

    #[test]
    fn update_without_where_touches_all() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO Flights VALUES (1, 'A', 1.0), (2, 'B', 2.0)",
        )
        .unwrap();
        let Statement::Update(up) = parse_statement("UPDATE Flights SET price = 0.0").unwrap()
        else {
            panic!()
        };
        let mut txn = db.begin();
        assert_eq!(execute_update(&mut txn, &up).unwrap(), 2);
        txn.commit().unwrap();
    }

    #[test]
    fn delete_with_where() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO Flights VALUES (1, 'A', 1.0), (2, 'B', 2.0)",
        )
        .unwrap();
        let Statement::Delete(del) = parse_statement("DELETE FROM Flights WHERE fno = 1").unwrap()
        else {
            panic!()
        };
        let mut txn = db.begin();
        assert_eq!(execute_delete(&mut txn, &del).unwrap(), 1);
        txn.commit().unwrap();
        assert_eq!(db.read().table("Flights").unwrap().len(), 1);
    }

    #[test]
    fn create_index_via_sql() {
        let db = setup();
        let Statement::CreateIndex(ci) =
            parse_statement("CREATE INDEX by_dest ON Flights (dest)").unwrap()
        else {
            panic!()
        };
        let mut txn = db.begin();
        execute_create_index(&mut txn, &ci).unwrap();
        txn.commit().unwrap();
        let read = db.read();
        assert!(read.table("Flights").unwrap().index("by_dest").is_some());
    }

    #[test]
    fn create_table_rejects_bad_pk() {
        let db = Database::new();
        let Statement::CreateTable(ct) =
            parse_statement("CREATE TABLE t (a INT, PRIMARY KEY (b))").unwrap()
        else {
            panic!()
        };
        let mut txn = db.begin();
        let err = execute_create_table(&mut txn, &ct).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Storage(StorageError::ColumnNotFound { .. })
        ));
        txn.abort();
    }
}
