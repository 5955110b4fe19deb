//! Compilation of parsed entangled queries ([`EntangledSelect`]) into
//! the coordination IR ([`EntangledQuery`]).
//!
//! The lowering classifies each top-level `WHERE` conjunct:
//!
//! * `(...) [NOT] IN ANSWER R`      → an answer constraint;
//! * `(...) [NOT] IN (SELECT ...)`  → a membership predicate;
//! * anything else                  → a residual filter over variables.
//!
//! Free (unqualified, unbound) identifiers are coordination variables.
//! Answer-relation references may only appear as top-level conjuncts —
//! nesting them under `OR`/`NOT` would require disjunctive coordination,
//! which the paper's system (and this one) does not support.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

use youtopia_sql::{
    parse_statement, template_key, EntangledSelect, Expr, Select, SelectItem, Statement,
};

use crate::error::{CoreError, CoreResult};
use crate::ir::{AnswerConstraint, Atom, EntangledQuery, Filter, Membership, QueryId, Term, Var};

/// Parses SQL text and compiles it; errors if the statement is not an
/// entangled query.
pub fn compile_sql(sql: &str) -> CoreResult<EntangledQuery> {
    let stmt = parse_statement(sql).map_err(|e| CoreError::Parse(e.to_string()))?;
    match stmt {
        Statement::Entangled(ent) => compile(&ent, sql),
        _ => Err(CoreError::NotEntangled),
    }
}

/// Compiled queries by [`template_key`], for compiling many texts that
/// differ only in their string literals. Each entry is a compiled,
/// un-namespaced query with the string values it was compiled from.
/// A template is stored on its second text, so texts that share no
/// template keep nothing beyond a hash each. An entry is stored only
/// when its values are pairwise distinct and every string constant of
/// the query is one of them, so each constant names exactly one
/// literal. A hit rewrites the stored query with the new text's values
/// in place of lexing, parsing and compiling it (parse and compile
/// treat a string literal's contents as opaque). Compile errors are
/// never stored. Recovery keeps one map per recompile task.
#[derive(Debug, Default)]
pub struct Templates {
    entries: HashMap<String, (EntangledQuery, Vec<String>)>,
    /// Hashes of the keys seen once.
    seen: HashSet<u64>,
    /// Texts compiled from scratch: those that missed the map.
    pub fresh: usize,
}

impl Templates {
    /// `compile_sql(&sql).map(|q| q.namespaced(qid))`, through the map.
    pub fn compile(&mut self, sql: String, qid: QueryId) -> CoreResult<EntangledQuery> {
        let Some((key, values)) = template_key(&sql) else {
            self.fresh += 1;
            return compile_fresh(sql, qid);
        };
        if let Some((template, from)) = self.entries.get(&key) {
            return Ok(template
                .instantiated(qid, from, &values, sql)
                .expect("a stored template slots every string constant"));
        }
        self.fresh += 1;
        if self.seen.insert(self.entries.hasher().hash_one(&key)) {
            return compile_fresh(sql, qid);
        }
        let template = compile_sql(&sql)?;
        let Some(query) = template.instantiated(qid, &values, &values, sql) else {
            return Ok(template.namespaced(qid));
        };
        if (1..values.len()).all(|i| !values[..i].contains(&values[i])) {
            self.entries.insert(key, (template, values));
        }
        Ok(query)
    }
}

/// `compile_sql(&sql).map(|q| q.namespaced(qid))`, moving `sql` into
/// the query: a recompile task then frees no text that the replaying
/// thread allocated (a free into another thread's heap contends for
/// its lock).
fn compile_fresh(sql: String, qid: QueryId) -> CoreResult<EntangledQuery> {
    let query = compile_sql(&sql)?;
    Ok(query
        .instantiated(qid, &[], &[], sql)
        .expect("without slots every string constant stays as it is"))
}

/// Compiles a parsed entangled query. `sql` is kept verbatim for the
/// admin interface.
pub fn compile(ent: &EntangledSelect, sql: &str) -> CoreResult<EntangledQuery> {
    if ent.heads.is_empty() {
        return Err(CoreError::Compile(
            "entangled query has no INTO ANSWER head".into(),
        ));
    }
    if ent.choose != 1 {
        return Err(CoreError::Compile(format!(
            "CHOOSE {} is not supported: this implementation answers each query with \
             exactly one coordinated tuple (CHOOSE 1), as in the paper's demonstration",
            ent.choose
        )));
    }

    let mut heads = Vec::new();
    for head in &ent.heads {
        if head.exprs.is_empty() {
            return Err(CoreError::Compile(
                "entangled head has an empty tuple".into(),
            ));
        }
        let terms = terms_from_exprs(&head.exprs, "head")?;
        for relation in &head.relations {
            heads.push(Atom::new(relation.clone(), terms.clone()));
        }
    }

    let mut memberships = Vec::new();
    let mut filters = Vec::new();
    let mut constraints = Vec::new();

    if let Some(where_clause) = &ent.where_clause {
        for conjunct in where_clause.conjuncts() {
            match conjunct {
                Expr::InAnswer {
                    exprs,
                    relation,
                    negated,
                } => {
                    let terms = terms_from_exprs(exprs, "answer constraint")?;
                    constraints.push(AnswerConstraint {
                        atom: Atom::new(relation.clone(), terms),
                        negated: *negated,
                    });
                }
                Expr::InSubquery {
                    exprs,
                    query,
                    negated,
                } => {
                    let terms = terms_from_exprs(exprs, "membership predicate")?;
                    check_membership_width(&terms, query)?;
                    memberships.push(Membership {
                        terms,
                        select: (**query).clone(),
                        negated: *negated,
                    });
                }
                other => {
                    check_no_nested_coordination(other)?;
                    let vars = collect_vars(other)?;
                    filters.push(Filter {
                        expr: other.clone(),
                        vars,
                    });
                }
            }
        }
    }

    Ok(EntangledQuery {
        heads,
        memberships,
        filters,
        constraints,
        choose: ent.choose,
        sql: sql.to_string(),
    })
}

/// Converts head / constraint tuple expressions into terms: literals and
/// free identifiers only.
fn terms_from_exprs(exprs: &[Expr], position: &str) -> CoreResult<Vec<Term>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Literal(v) => Ok(Term::Const(v.clone())),
            Expr::Column { table: None, name } => Ok(Term::Var(Var::new(name.clone()))),
            Expr::Column {
                table: Some(t),
                name,
            } => Err(CoreError::Compile(format!(
                "qualified reference '{t}.{name}' in an entangled {position}: entangled \
                 queries have no FROM clause, use bare variables"
            ))),
            other => Err(CoreError::Compile(format!(
                "expression '{other}' in an entangled {position}: only constants and \
                 variables are allowed"
            ))),
        })
        .collect()
}

/// Rejects a membership whose subquery projects a number of columns
/// other than its tuple's terms. A `*` projects whatever the tables hold
/// when the subquery runs, so grounding checks that width instead.
fn check_membership_width(terms: &[Term], query: &Select) -> CoreResult<()> {
    let width = query.items.len();
    if width == terms.len() || query.items.contains(&SelectItem::Wildcard) {
        return Ok(());
    }
    Err(CoreError::Compile(format!(
        "membership tuple has {} terms but its subquery returns {width} columns",
        terms.len()
    )))
}

/// Rejects `IN ANSWER` / `IN (SELECT ...)` nested below the top-level
/// conjunction.
fn check_no_nested_coordination(expr: &Expr) -> CoreResult<()> {
    let nested = find_nested(expr);
    match nested {
        Some(kind) => Err(CoreError::Compile(format!(
            "{kind} must be a top-level conjunct of the WHERE clause (disjunctive or \
             negated coordination is not supported)"
        ))),
        None => Ok(()),
    }
}

fn find_nested(expr: &Expr) -> Option<&'static str> {
    match expr {
        Expr::InAnswer { .. } => Some("an answer constraint (IN ANSWER)"),
        Expr::InSubquery { .. } | Expr::Exists { .. } => {
            Some("a membership predicate (IN (SELECT ...))")
        }
        Expr::Unary { expr, .. } => find_nested(expr),
        Expr::Binary { left, right, .. } => find_nested(left).or_else(|| find_nested(right)),
        Expr::IsNull { expr, .. } => find_nested(expr),
        Expr::InList { expr, list, .. } => {
            find_nested(expr).or_else(|| list.iter().find_map(find_nested))
        }
        Expr::Between {
            expr, low, high, ..
        } => find_nested(expr)
            .or_else(|| find_nested(low))
            .or_else(|| find_nested(high)),
        Expr::Like { expr, pattern, .. } => find_nested(expr).or_else(|| find_nested(pattern)),
        Expr::Function { args, .. } => args.iter().find_map(find_nested),
        Expr::Tuple(list) => list.iter().find_map(find_nested),
        Expr::Literal(_) | Expr::Column { .. } => None,
    }
}

/// Collects the variables (free identifiers) of a filter expression.
fn collect_vars(expr: &Expr) -> CoreResult<Vec<Var>> {
    let mut out = Vec::new();
    collect_vars_into(expr, &mut out)?;
    out.dedup();
    Ok(out)
}

fn collect_vars_into(expr: &Expr, out: &mut Vec<Var>) -> CoreResult<()> {
    match expr {
        Expr::Column { table: None, name } => {
            let v = Var::new(name.clone());
            if !out.contains(&v) {
                out.push(v);
            }
            Ok(())
        }
        Expr::Column {
            table: Some(t),
            name,
        } => Err(CoreError::Compile(format!(
            "qualified reference '{t}.{name}' in an entangled filter"
        ))),
        Expr::Literal(_) => Ok(()),
        Expr::Unary { expr, .. } => collect_vars_into(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_vars_into(left, out)?;
            collect_vars_into(right, out)
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_vars_into(a, out)?;
            }
            Ok(())
        }
        Expr::IsNull { expr, .. } => collect_vars_into(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_vars_into(expr, out)?;
            for e in list {
                collect_vars_into(e, out)?;
            }
            Ok(())
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_vars_into(expr, out)?;
            collect_vars_into(low, out)?;
            collect_vars_into(high, out)
        }
        Expr::Like { expr, pattern, .. } => {
            collect_vars_into(expr, out)?;
            collect_vars_into(pattern, out)
        }
        Expr::InSubquery { .. } | Expr::InAnswer { .. } | Expr::Exists { .. } | Expr::Tuple(_) => {
            Err(CoreError::Internal(
                "nested coordination should have been rejected earlier".into(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::Value;

    const KRAMER: &str = "SELECT 'Kramer', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
         AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1";

    #[test]
    fn compiles_the_papers_kramer_query() {
        let q = compile_sql(KRAMER).unwrap();
        assert_eq!(q.heads.len(), 1);
        assert_eq!(q.heads[0].relation, "Reservation");
        assert_eq!(q.heads[0].terms[0], Term::Const(Value::from("Kramer")));
        assert_eq!(q.heads[0].terms[1], Term::var("fno"));
        assert_eq!(q.memberships.len(), 1);
        assert_eq!(q.memberships[0].terms, vec![Term::var("fno")]);
        assert!(!q.memberships[0].negated);
        assert_eq!(q.constraints.len(), 1);
        assert_eq!(
            q.constraints[0].atom,
            Atom::new(
                "Reservation",
                vec![Term::constant("Jerry"), Term::var("fno")]
            )
        );
        assert!(q.filters.is_empty());
        assert_eq!(q.choose, 1);
        assert_eq!(q.sql, KRAMER);
    }

    #[test]
    fn multi_head_flight_and_hotel() {
        let q = compile_sql(
            "SELECT 'Jerry', fno INTO ANSWER Res, 'Jerry', hid INTO ANSWER HotelRes \
             WHERE fno IN (SELECT fno FROM Flights) AND hid IN (SELECT hid FROM Hotels) \
             AND ('Kramer', fno) IN ANSWER Res AND ('Kramer', hid) IN ANSWER HotelRes \
             CHOOSE 1",
        )
        .unwrap();
        assert_eq!(q.heads.len(), 2);
        assert_eq!(q.memberships.len(), 2);
        assert_eq!(q.constraints.len(), 2);
        assert_eq!(q.all_vars(), vec![Var::new("fno"), Var::new("hid")]);
    }

    #[test]
    fn same_tuple_into_two_relations() {
        let q = compile_sql(
            "SELECT 'K', x INTO ANSWER R1, ANSWER R2 \
                             WHERE x IN (SELECT a FROM t) CHOOSE 1",
        )
        .unwrap();
        assert_eq!(q.heads.len(), 2);
        assert_eq!(q.heads[0].relation, "R1");
        assert_eq!(q.heads[1].relation, "R2");
        assert_eq!(q.heads[0].terms, q.heads[1].terms);
    }

    #[test]
    fn filters_are_separated() {
        let q = compile_sql(
            "SELECT 'K', fno, price INTO ANSWER R \
             WHERE (fno, price) IN (SELECT fno, price FROM Flights) \
             AND price < 500 AND ('J', fno) IN ANSWER R CHOOSE 1",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.filters[0].vars, vec![Var::new("price")]);
        assert_eq!(q.filters[0].expr.to_string(), "price < 500");
    }

    #[test]
    fn negated_constraint_and_membership() {
        let q = compile_sql(
            "SELECT 'K', x INTO ANSWER R \
             WHERE x IN (SELECT a FROM t) AND x NOT IN (SELECT b FROM u) \
             AND ('J', x) NOT IN ANSWER R CHOOSE 1",
        )
        .unwrap();
        assert_eq!(q.memberships.len(), 2);
        assert!(!q.memberships[0].negated);
        assert!(q.memberships[1].negated);
        assert!(q.constraints[0].negated);
    }

    #[test]
    fn choose_other_than_one_rejected() {
        let err = compile_sql("SELECT 'K', x INTO ANSWER R CHOOSE 2").unwrap_err();
        assert!(matches!(err, CoreError::Compile(msg) if msg.contains("CHOOSE 2")));
        let err = compile_sql("SELECT 'K', x INTO ANSWER R CHOOSE 0").unwrap_err();
        assert!(matches!(err, CoreError::Compile(_)));
    }

    #[test]
    fn non_entangled_rejected() {
        assert!(matches!(
            compile_sql("SELECT 1"),
            Err(CoreError::NotEntangled)
        ));
        assert!(matches!(
            compile_sql("INSERT INTO t VALUES (1)"),
            Err(CoreError::NotEntangled)
        ));
        assert!(matches!(compile_sql("SELEC"), Err(CoreError::Parse(_))));
    }

    #[test]
    fn qualified_refs_rejected() {
        let err = compile_sql("SELECT 'K', t.x INTO ANSWER R CHOOSE 1").unwrap_err();
        assert!(matches!(err, CoreError::Compile(msg) if msg.contains("t.x")));
        let err = compile_sql("SELECT 'K', x INTO ANSWER R WHERE t.y = 1 CHOOSE 1").unwrap_err();
        assert!(matches!(err, CoreError::Compile(_)));
    }

    #[test]
    fn computed_head_expressions_rejected() {
        let err = compile_sql("SELECT x + 1 INTO ANSWER R CHOOSE 1").unwrap_err();
        assert!(matches!(err, CoreError::Compile(msg) if msg.contains("constants and")));
    }

    #[test]
    fn nested_coordination_rejected() {
        // IN ANSWER under OR
        let err = compile_sql(
            "SELECT 'K', x INTO ANSWER R \
             WHERE x = 1 OR ('J', x) IN ANSWER R CHOOSE 1",
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Compile(msg) if msg.contains("top-level")));
        // subquery under NOT
        let err = compile_sql(
            "SELECT 'K', x INTO ANSWER R \
             WHERE NOT (x IN (SELECT a FROM t) AND x = 2) CHOOSE 1",
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Compile(_)));
    }

    #[test]
    fn filter_with_multiple_vars() {
        let q = compile_sql("SELECT 'K', x, y INTO ANSWER R WHERE x <> y AND x < y + 2 CHOOSE 1")
            .unwrap();
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters[0].vars, vec![Var::new("x"), Var::new("y")]);
    }

    #[test]
    fn scalar_in_list_is_a_filter() {
        let q = compile_sql("SELECT 'K', x INTO ANSWER R WHERE x IN (1, 2, 3) CHOOSE 1").unwrap();
        assert!(q.memberships.is_empty());
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.filters[0].vars, vec![Var::new("x")]);
    }
}
