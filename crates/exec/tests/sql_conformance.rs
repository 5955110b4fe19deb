//! SQL conformance battery: a golden-result sweep over the dialect the
//! executor supports. Each case is one query plus its expected rows,
//! exercising a distinct language behaviour (operators, NULL handling,
//! joins, grouping, subqueries, ordering, limits, DML interactions).

use youtopia_exec::{run_sql, StatementOutcome};
use youtopia_storage::{Database, Value};

/// Runs `sql` and renders each row as `a|b|c` with NULL for nulls.
fn rows(db: &Database, sql: &str) -> Vec<String> {
    match run_sql(db, sql).unwrap_or_else(|e| panic!("exec '{sql}': {e}")) {
        StatementOutcome::Rows(rs) => rs
            .rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .map(|v| match v {
                        Value::Null => "NULL".to_string(),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect(),
        other => panic!("'{sql}' did not produce rows: {other:?}"),
    }
}

fn fixture() -> Database {
    let db = Database::new();
    for sql in [
        "CREATE TABLE emp (id INT PRIMARY KEY, name STRING NOT NULL, dept STRING, \
         salary FLOAT, boss INT)",
        "INSERT INTO emp VALUES \
         (1, 'ada', 'eng', 100.0, NULL), \
         (2, 'bob', 'eng', 80.0, 1), \
         (3, 'cat', 'ops', 60.0, 1), \
         (4, 'dan', 'ops', 60.0, 3), \
         (5, 'eve', NULL, NULL, 1)",
        "CREATE TABLE dept (name STRING PRIMARY KEY, city STRING NOT NULL)",
        "INSERT INTO dept VALUES ('eng', 'Ithaca'), ('ops', 'Lausanne'), ('hr', 'Nowhere')",
    ] {
        run_sql(&db, sql).unwrap();
    }
    db
}

#[test]
fn comparison_operators() {
    let db = fixture();
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE salary > 60 ORDER BY id"),
        ["1", "2"]
    );
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE salary >= 60 ORDER BY id"),
        ["1", "2", "3", "4"]
    );
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE salary <> 60 ORDER BY id"),
        ["1", "2"]
    );
    assert_eq!(rows(&db, "SELECT id FROM emp WHERE name = 'ada'"), ["1"]);
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE name < 'c' ORDER BY id"),
        ["1", "2"]
    );
}

#[test]
fn null_semantics_in_where() {
    let db = fixture();
    // eve's NULL salary never passes a comparison
    assert_eq!(
        rows(
            &db,
            "SELECT COUNT(*) FROM emp WHERE salary > 0 OR salary <= 0"
        ),
        ["4"]
    );
    assert_eq!(rows(&db, "SELECT id FROM emp WHERE salary IS NULL"), ["5"]);
    assert_eq!(rows(&db, "SELECT id FROM emp WHERE dept IS NULL"), ["5"]);
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE dept IS NOT NULL ORDER BY id"),
        ["1", "2", "3", "4"]
    );
    // NULL boss: NOT (boss = 1) is unknown for ada (NULL boss), false for 2/5
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE NOT (boss = 1) ORDER BY id"),
        ["4"]
    );
}

#[test]
fn arithmetic_and_functions_in_projection() {
    let db = fixture();
    assert_eq!(
        rows(&db, "SELECT salary * 2 + 1 FROM emp WHERE id = 2"),
        ["161"]
    );
    assert_eq!(
        rows(&db, "SELECT UPPER(name) FROM emp WHERE id = 1"),
        ["ADA"]
    );
    assert_eq!(
        rows(&db, "SELECT LENGTH(name) FROM emp WHERE id = 3"),
        ["3"]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT COALESCE(dept, 'unassigned') FROM emp WHERE id = 5"
        ),
        ["unassigned"]
    );
    assert_eq!(rows(&db, "SELECT ABS(0 - 5)"), ["5"]);
}

#[test]
fn between_like_inlist() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT id FROM emp WHERE salary BETWEEN 60 AND 80 ORDER BY id"
        ),
        ["2", "3", "4"]
    );
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE name LIKE '%a%' ORDER BY id"),
        ["1", "3", "4"]
    );
    assert_eq!(rows(&db, "SELECT id FROM emp WHERE name LIKE '_ob'"), ["2"]);
    assert_eq!(
        rows(&db, "SELECT id FROM emp WHERE id IN (1, 3, 9) ORDER BY id"),
        ["1", "3"]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT id FROM emp WHERE id NOT IN (1, 2, 3, 4) ORDER BY id"
        ),
        ["5"]
    );
}

#[test]
fn inner_join_and_qualified_stars() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT e.name, d.city FROM emp e JOIN dept d ON e.dept = d.name \
             WHERE d.city = 'Ithaca' ORDER BY e.name"
        ),
        ["ada|Ithaca", "bob|Ithaca"]
    );
    // NULL dept never joins
    assert_eq!(
        rows(
            &db,
            "SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept = d.name"
        ),
        ["4"]
    );
}

#[test]
fn left_join_preserves_unmatched() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT e.name, d.city FROM emp e LEFT JOIN dept d ON e.dept = d.name \
             WHERE e.id = 5"
        ),
        ["eve|NULL"]
    );
    // dept side: hr has no employees
    assert_eq!(
        rows(
            &db,
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept = d.name \
             WHERE d.name = 'hr'"
        ),
        ["hr|NULL"]
    );
}

#[test]
fn self_join_boss_relation() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT e.name, b.name FROM emp e JOIN emp b ON e.boss = b.id ORDER BY e.id"
        ),
        ["bob|ada", "cat|ada", "dan|cat", "eve|ada"]
    );
}

#[test]
fn aggregates_and_groups() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT dept, COUNT(*), SUM(salary), MIN(salary), MAX(salary) FROM emp \
             WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept"
        ),
        ["eng|2|180|80|100", "ops|2|120|60|60"]
    );
    // AVG skips NULLs; group of eve alone (NULL dept) keys on NULL
    assert_eq!(rows(&db, "SELECT AVG(salary) FROM emp"), ["75"]);
    assert_eq!(
        rows(&db, "SELECT COUNT(salary), COUNT(*) FROM emp"),
        ["4|5"]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) = 2 ORDER BY dept"
        ),
        ["eng", "ops"]
    );
}

#[test]
fn distinct_and_order_combinations() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT DISTINCT salary FROM emp WHERE salary IS NOT NULL ORDER BY salary"
        ),
        ["60", "80", "100"]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT name FROM emp ORDER BY salary DESC, name LIMIT 3"
        ),
        // NULL sorts first ascending, therefore LAST descending; top 3
        // salaries are 100, 80, 60(cat before dan by name)
        ["ada", "bob", "cat"]
    );
    assert_eq!(
        rows(&db, "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2"),
        ["3", "4"]
    );
}

#[test]
fn subqueries_in_and_exists() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT name FROM emp WHERE dept IN \
             (SELECT name FROM dept WHERE city = 'Lausanne') ORDER BY name"
        ),
        ["cat", "dan"]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT d.name FROM dept d WHERE NOT EXISTS \
             (SELECT 1 FROM emp e WHERE e.dept = d.name)"
        ),
        ["hr"]
    );
    // correlated: employees earning their department's max
    assert_eq!(
        rows(
            &db,
            "SELECT e.name FROM emp e WHERE e.salary IS NOT NULL AND NOT EXISTS \
             (SELECT 1 FROM emp x WHERE x.dept = e.dept AND x.salary > e.salary) \
             ORDER BY e.name"
        ),
        ["ada", "cat", "dan"]
    );
}

#[test]
fn tuple_in_subquery() {
    let db = fixture();
    assert_eq!(
        rows(
            &db,
            "SELECT id FROM emp WHERE (dept, salary) IN \
             (SELECT dept, MIN(salary) FROM emp WHERE dept IS NOT NULL GROUP BY dept) \
             ORDER BY id"
        ),
        ["2", "3", "4"]
    );
}

#[test]
fn dml_update_delete_visibility() {
    let db = fixture();
    let StatementOutcome::Affected(n) = run_sql(
        &db,
        "UPDATE emp SET salary = salary + 10 WHERE dept = 'ops'",
    )
    .unwrap() else {
        panic!()
    };
    assert_eq!(n, 2);
    assert_eq!(rows(&db, "SELECT salary FROM emp WHERE id = 3"), ["70"]);

    let StatementOutcome::Affected(n) = run_sql(&db, "DELETE FROM emp WHERE boss = 3").unwrap()
    else {
        panic!()
    };
    assert_eq!(n, 1);
    assert_eq!(rows(&db, "SELECT COUNT(*) FROM emp"), ["4"]);
}

#[test]
fn insert_after_delete_reuses_nothing() {
    let db = fixture();
    run_sql(&db, "DELETE FROM emp WHERE id = 5").unwrap();
    run_sql(&db, "INSERT INTO emp VALUES (6, 'fay', 'hr', 50.0, NULL)").unwrap();
    assert_eq!(
        rows(&db, "SELECT id FROM emp ORDER BY id"),
        ["1", "2", "3", "4", "6"]
    );
    // primary key still enforced after churn
    assert!(run_sql(&db, "INSERT INTO emp VALUES (6, 'dup', NULL, NULL, NULL)").is_err());
}

#[test]
fn boolean_columns_and_literals() {
    let db = Database::new();
    run_sql(&db, "CREATE TABLE t (id INT PRIMARY KEY, flag BOOL)").unwrap();
    run_sql(&db, "INSERT INTO t VALUES (1, TRUE), (2, FALSE), (3, NULL)").unwrap();
    assert_eq!(rows(&db, "SELECT id FROM t WHERE flag ORDER BY id"), ["1"]);
    assert_eq!(rows(&db, "SELECT id FROM t WHERE NOT flag"), ["2"]);
    assert_eq!(rows(&db, "SELECT id FROM t WHERE flag IS NULL"), ["3"]);
}

#[test]
fn int_float_bridging_in_storage_and_queries() {
    let db = Database::new();
    run_sql(&db, "CREATE TABLE t (x FLOAT)").unwrap();
    run_sql(&db, "INSERT INTO t VALUES (1), (2.5)").unwrap(); // int widens
    assert_eq!(rows(&db, "SELECT x FROM t WHERE x = 1"), ["1"]);
    assert_eq!(rows(&db, "SELECT SUM(x) FROM t"), ["3.5"]);
}

#[test]
fn order_by_is_stable_for_equal_keys() {
    let db = fixture();
    // cat and dan share salary 60; ties keep a deterministic order
    // thanks to the secondary key
    assert_eq!(
        rows(
            &db,
            "SELECT name FROM emp WHERE salary = 60 ORDER BY salary, name"
        ),
        ["cat", "dan"]
    );
}

#[test]
fn explain_matches_execution_shape() {
    let db = fixture();
    let StatementOutcome::Plan(plan) =
        run_sql(&db, "EXPLAIN SELECT name FROM emp WHERE id = 1").unwrap()
    else {
        panic!()
    };
    assert!(plan.contains("IndexProbe emp via emp_pk key (1)"), "{plan}");
    let StatementOutcome::Plan(plan2) = run_sql(
        &db,
        "EXPLAIN SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept LIMIT 1",
    )
    .unwrap() else {
        panic!()
    };
    for needle in ["Limit 1", "Sort [dept]", "Aggregate", "SeqScan emp"] {
        assert!(plan2.contains(needle), "missing {needle} in {plan2}");
    }
}

#[test]
fn show_tables_reflects_ddl() {
    let db = fixture();
    let StatementOutcome::TableNames(names) = run_sql(&db, "SHOW TABLES").unwrap() else {
        panic!()
    };
    assert_eq!(names, ["dept", "emp"]);
    run_sql(&db, "DROP TABLE dept").unwrap();
    let StatementOutcome::TableNames(names) = run_sql(&db, "SHOW TABLES").unwrap() else {
        panic!()
    };
    assert_eq!(names, ["emp"]);
}

/// A database built by `stmts`, each of which must succeed.
fn db_of(stmts: &[&str]) -> Database {
    let db = Database::new();
    for sql in stmts {
        run_sql(&db, sql).unwrap_or_else(|e| panic!("'{sql}': {e}"));
    }
    db
}

/// `0.0` and `-0.0` are one value for every operator: equality, the
/// ordered comparisons, `ORDER BY`, `DISTINCT` and `GROUP BY`, which
/// keep the first row's own value.
#[test]
fn float_zeros_are_one_value() {
    let db = db_of(&[
        "CREATE TABLE f (id INT, p FLOAT)",
        "INSERT INTO f VALUES (1, -0.0), (2, 0.0)",
    ]);
    for sql in [
        "SELECT id FROM f WHERE p = 0.0 ORDER BY id",
        "SELECT id FROM f WHERE p >= 0.0 ORDER BY id",
        "SELECT id FROM f WHERE p <= -0.0 ORDER BY id",
        "SELECT id FROM f WHERE p BETWEEN 0.0 AND 0 ORDER BY id",
        "SELECT id FROM f ORDER BY p DESC, id",
    ] {
        assert_eq!(rows(&db, sql), ["1", "2"], "{sql}");
    }
    assert!(rows(&db, "SELECT id FROM f WHERE p < 0.0").is_empty());
    assert!(rows(&db, "SELECT id FROM f WHERE p > -0.0").is_empty());
    assert_eq!(rows(&db, "SELECT DISTINCT p FROM f"), ["-0"]);
    assert_eq!(rows(&db, "SELECT p, COUNT(*) FROM f GROUP BY p"), ["-0|2"]);
}

/// Equality and order are exact beyond 2^53: an `INT PRIMARY KEY`
/// holds 2^53 and 2^53 + 1, and `2^53` written as a float equals only
/// the first, whether the predicate probes the key's index or scans.
/// A `FLOAT` column stores 2^53 + 1 rounded, so the same literal no
/// longer equals it.
#[test]
fn numeric_equality_is_exact_beyond_2_pow_53() {
    let db = db_of(&[
        "CREATE TABLE big (i INT PRIMARY KEY, j INT, p FLOAT)",
        "INSERT INTO big VALUES (9007199254740992, 9007199254740992, 1.0)",
        "INSERT INTO big VALUES (9007199254740993, 9007199254740993, 9007199254740993)",
    ]);
    for sql in [
        "SELECT i FROM big WHERE i = 9007199254740992.0",
        "SELECT j FROM big WHERE j = 9007199254740992.0",
        "SELECT i FROM big WHERE i < 9007199254740993 AND i >= 9007199254740992.0",
    ] {
        assert_eq!(rows(&db, sql), ["9007199254740992"], "{sql}");
    }
    assert_eq!(
        rows(&db, "SELECT j FROM big WHERE j > 9007199254740992.0"),
        ["9007199254740993"]
    );
    assert_eq!(
        rows(&db, "SELECT COUNT(*) FROM big WHERE p = 9007199254740993"),
        ["0"]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT i FROM big WHERE p = 9007199254740992 ORDER BY i"
        ),
        ["9007199254740993"]
    );
}

/// A statement that fails part-way is undone, and an index probe still
/// returns the rows in scan order.
#[test]
fn aborted_update_leaves_the_probe_in_scan_order() {
    let db = db_of(&[
        "CREATE TABLE t (a INT, dest STRING, u INT)",
        "CREATE INDEX t_dest ON t (dest)",
        "CREATE UNIQUE INDEX t_u ON t (u)",
        "INSERT INTO t VALUES (0, 'Paris', 0), (1, 'Paris', 1), (2, 'Paris', 2)",
    ]);
    assert!(run_sql(&db, "UPDATE t SET dest = 'Rome', u = 5 WHERE a <= 2").is_err());
    let StatementOutcome::Plan(plan) =
        run_sql(&db, "EXPLAIN SELECT a FROM t WHERE dest = 'Paris'").unwrap()
    else {
        panic!()
    };
    assert!(plan.contains("IndexProbe t via t_dest"), "{plan}");
    assert_eq!(
        rows(&db, "SELECT a FROM t WHERE dest = 'Paris'"),
        ["0", "1", "2"]
    );
}
