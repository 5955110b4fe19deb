//! The intermediate representation of entangled queries.
//!
//! The compiler (`crate::compile`) lowers the parsed
//! [`youtopia_sql::EntangledSelect`] into this IR, which is what the
//! pending-query registry stores and the matcher works on. The paper's
//! Figure 2 calls this "an intermediate representation inside Youtopia
//! for processing by the coordination component".
//!
//! An entangled query in IR form is:
//!
//! * one or more **head atoms** — the tuples the query contributes to
//!   answer relations, over constants and variables;
//! * **membership predicates** — `(t1,...,tn) IN (SELECT ...)` database
//!   predicates that range-restrict variables;
//! * **filters** — residual scalar predicates over variables
//!   (`price < 500`, `x <> y`, ...);
//! * **answer constraints** — `(t1,...,tn) [NOT] IN ANSWER R` postconditions
//!   that refer to the joint answer relation and thereby to *other*
//!   queries' answers.

use std::cell::Cell;
use std::fmt;

use youtopia_sql::{Expr, Select, SelectItem};
use youtopia_storage::Value;

/// Identifier of a registered entangled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A variable in an entangled query.
///
/// Within one compiled query, names are the source-level identifiers
/// (`fno`); when the query is registered, variables are *namespaced* by
/// the query id (`q12.fno`) so different queries' variables never
/// collide during unification.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub String);

impl Var {
    /// Builds a variable.
    pub fn new(name: impl Into<String>) -> Var {
        Var(name.into())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term: a constant or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant value.
    Const(Value),
    /// A variable.
    Var(Var),
}

impl Term {
    /// Shorthand for a constant term.
    pub fn constant(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// Shorthand for a variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(Var::new(name))
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            Term::Var(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{}", v.sql_literal()),
            Term::Var(v) => write!(f, "{v}"),
        }
    }
}

/// An atom over an answer relation: `R(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The answer relation name (case preserved; matching is
    /// case-insensitive).
    pub relation: String,
    /// The terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Atom {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// All variables occurring in the atom.
    pub fn vars(&self) -> Vec<&Var> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }

    /// True when both atoms name the same relation (case-insensitively)
    /// and have the same arity — the precondition for unification.
    pub fn compatible_with(&self, other: &Atom) -> bool {
        self.relation.eq_ignore_ascii_case(&other.relation) && self.arity() == other.arity()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A membership (database) predicate: `(t1,...,tn) IN (SELECT ...)`.
///
/// The subquery ranges over regular database tables only; evaluating it
/// yields the finite domain that range-restricts the tuple's variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Membership {
    /// The constrained tuple.
    pub terms: Vec<Term>,
    /// The defining subquery.
    pub select: Select,
    /// Whether the membership is negated (`NOT IN (SELECT ...)`).
    pub negated: bool,
}

impl Membership {
    /// All variables in the constrained tuple.
    pub fn vars(&self) -> Vec<&Var> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        let op = if self.negated { "NOT IN" } else { "IN" };
        write!(f, ") {op} ({})", self.select)
    }
}

/// An answer constraint: `(t1,...,tn) [NOT] IN ANSWER R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerConstraint {
    /// The constrained atom (relation = the ANSWER relation).
    pub atom: Atom,
    /// Negated?
    pub negated: bool,
}

impl fmt::Display for AnswerConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "NOT {}", self.atom)
        } else {
            write!(f, "{}", self.atom)
        }
    }
}

/// A residual scalar filter over variables (`price < 500`, `x <> y`).
///
/// The expression's column references are variable references; it is
/// evaluated by the grounding phase once its variables are bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// The predicate expression (column refs = variables).
    pub expr: Expr,
    /// The variables the expression references, precomputed.
    pub vars: Vec<Var>,
}

/// A compiled entangled query.
#[derive(Debug, Clone, PartialEq)]
pub struct EntangledQuery {
    /// Head atoms: the tuples contributed to answer relations.
    pub heads: Vec<Atom>,
    /// Positive membership (database) predicates.
    pub memberships: Vec<Membership>,
    /// Residual scalar filters.
    pub filters: Vec<Filter>,
    /// Answer constraints (postconditions on the joint answer relation).
    pub constraints: Vec<AnswerConstraint>,
    /// `CHOOSE k` (this implementation supports `k = 1`).
    pub choose: u64,
    /// The original SQL text (for the admin interface).
    pub sql: String,
}

impl EntangledQuery {
    /// Every variable occurring anywhere in the query, deduplicated in
    /// first-occurrence order.
    pub fn all_vars(&self) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut add = |v: &Var| {
            if seen.insert(v.clone()) {
                out.push(v.clone());
            }
        };
        for h in &self.heads {
            for v in h.vars() {
                add(v);
            }
        }
        for m in &self.memberships {
            for v in m.vars() {
                add(v);
            }
        }
        for f in &self.filters {
            for v in &f.vars {
                add(v);
            }
        }
        for c in &self.constraints {
            for v in c.atom.vars() {
                add(v);
            }
        }
        out
    }

    /// The query's *answer-relation signature*: every answer relation
    /// it touches through a head or an answer constraint, lowercased
    /// and deduplicated. Two queries can only ever coordinate (one's
    /// head satisfying the other's constraint, directly or through a
    /// chain of intermediaries) when their signatures are connected, so
    /// this set is the routing key of the sharded coordinator.
    pub fn answer_relations(&self) -> std::collections::BTreeSet<String> {
        self.heads
            .iter()
            .map(|h| h.relation.to_ascii_lowercase())
            .chain(
                self.constraints
                    .iter()
                    .map(|c| c.atom.relation.to_ascii_lowercase()),
            )
            .collect()
    }

    /// A copy with all variables namespaced by `qid` (done at
    /// registration so different queries' variables never collide).
    pub fn namespaced(&self, qid: QueryId) -> EntangledQuery {
        Rewrite::new(qid, &[], &[]).query(self, self.sql.clone())
    }

    /// [`EntangledQuery::namespaced`] with `sql` moved in as the text,
    /// for another text of the same template: every string constant
    /// equal to `from[i]` becomes `to[i]`. `None` when `from` is not
    /// empty and some string constant equals none of it.
    pub(crate) fn instantiated(
        &self,
        qid: QueryId,
        from: &[String],
        to: &[String],
        sql: String,
    ) -> Option<EntangledQuery> {
        let rewrite = Rewrite::new(qid, from, to);
        let query = rewrite.query(self, sql);
        (!rewrite.unslotted.get()).then_some(query)
    }
}

/// The one rewrite from a compiled query to a registered one: each
/// variable moves into `qid`'s namespace, and each string constant
/// equal to `from[i]` becomes `to[i]`. Without slots (`from` empty)
/// constants and membership subqueries are copied as they stand.
struct Rewrite<'a> {
    /// `"{qid}."`, the namespace every variable name gains.
    prefix: String,
    from: &'a [String],
    to: &'a [String],
    /// Set when a string constant equals no `from[i]`.
    unslotted: Cell<bool>,
}

impl<'a> Rewrite<'a> {
    fn new(qid: QueryId, from: &'a [String], to: &'a [String]) -> Rewrite<'a> {
        Rewrite {
            prefix: format!("{qid}."),
            from,
            to,
            unslotted: Cell::new(false),
        }
    }

    fn query(&self, q: &EntangledQuery, sql: String) -> EntangledQuery {
        let mut out = EntangledQuery {
            heads: q.heads.clone(),
            memberships: q.memberships.clone(),
            filters: q.filters.iter().map(|f| self.filter(f)).collect(),
            constraints: q.constraints.clone(),
            choose: q.choose,
            sql,
        };
        let atoms = out
            .heads
            .iter_mut()
            .chain(out.constraints.iter_mut().map(|c| &mut c.atom));
        for terms in atoms.map(|a| &mut a.terms) {
            self.terms(terms);
        }
        for m in &mut out.memberships {
            self.terms(&mut m.terms);
            self.select(&mut m.select);
        }
        out
    }

    fn filter(&self, f: &Filter) -> Filter {
        let mut expr = f.expr.clone();
        self.expr(&mut expr, true);
        Filter {
            expr,
            vars: f.vars.iter().map(|v| Var(self.name(&v.0))).collect(),
        }
    }

    fn name(&self, name: &str) -> String {
        let mut out = String::with_capacity(self.prefix.len() + name.len());
        out.push_str(&self.prefix);
        out.push_str(name);
        out
    }

    fn value(&self, v: &mut Value) {
        if let (Value::Str(s), false) = (&mut *v, self.from.is_empty()) {
            match self.from.iter().position(|f| f == s) {
                Some(i) => s.clone_from(&self.to[i]),
                None => self.unslotted.set(true),
            }
        }
    }

    fn terms(&self, terms: &mut [Term]) {
        for t in terms {
            match t {
                Term::Var(v) => v.0 = self.name(&v.0),
                Term::Const(c) => self.value(c),
            }
        }
    }

    /// Rewrites `expr` in place; its unqualified columns are namespaced
    /// only when `vars` (a filter's columns are variables, a subquery's
    /// are table columns).
    fn expr(&self, expr: &mut Expr, vars: bool) {
        use youtopia_sql::Expr as E;
        match expr {
            E::Column { table: None, name } if vars => *name = self.name(name),
            E::Column { .. } => {}
            E::Literal(v) => self.value(v),
            E::Unary { expr, .. } | E::IsNull { expr, .. } => self.expr(expr, vars),
            E::Binary { left, right, .. }
            | E::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                self.expr(left, vars);
                self.expr(right, vars);
            }
            E::Between {
                expr, low, high, ..
            } => {
                for e in [expr, low, high] {
                    self.expr(e, vars);
                }
            }
            E::InList { expr, list, .. } => {
                self.expr(expr, vars);
                list.iter_mut().for_each(|e| self.expr(e, vars));
            }
            E::Function { args: list, .. } | E::InAnswer { exprs: list, .. } | E::Tuple(list) => {
                list.iter_mut().for_each(|e| self.expr(e, vars));
            }
            E::InSubquery { exprs, query, .. } => {
                exprs.iter_mut().for_each(|e| self.expr(e, vars));
                self.select(query);
            }
            E::Exists { query, .. } => self.select(query),
        }
    }

    /// Re-slots the string constants of a subquery (its columns are
    /// table columns, never variables).
    fn select(&self, s: &mut Select) {
        if self.from.is_empty() {
            return;
        }
        let items = s.items.iter_mut().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Wildcard => None,
        });
        let joins = s.from.iter_mut().flat_map(|t| &mut t.joins);
        items
            .chain(joins.map(|j| &mut j.on))
            .chain(&mut s.where_clause)
            .chain(&mut s.group_by)
            .chain(&mut s.having)
            .chain(s.order_by.iter_mut().map(|o| &mut o.expr))
            .for_each(|e| self.expr(e, false));
    }
}

impl fmt::Display for EntangledQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heads: ")?;
        for (i, h) in self.heads.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{h}")?;
        }
        if !self.memberships.is_empty() {
            write!(f, "; where: ")?;
            for (i, m) in self.memberships.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{m}")?;
            }
        }
        if !self.filters.is_empty() {
            write!(f, "; filters: ")?;
            for (i, flt) in self.filters.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{}", flt.expr)?;
            }
        }
        if !self.constraints.is_empty() {
            write!(f, "; requires: ")?;
            for (i, c) in self.constraints.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{c}")?;
            }
        }
        write!(f, "; choose {}", self.choose)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kramer_head() -> Atom {
        Atom::new(
            "Reservation",
            vec![Term::constant("Kramer"), Term::var("fno")],
        )
    }

    #[test]
    fn term_accessors() {
        let c = Term::constant(122i64);
        let v = Term::var("fno");
        assert_eq!(c.as_const(), Some(&Value::Int(122)));
        assert!(c.as_var().is_none());
        assert_eq!(v.as_var(), Some(&Var::new("fno")));
        assert!(v.as_const().is_none());
    }

    #[test]
    fn atom_compatibility() {
        let a = kramer_head();
        let b = Atom::new("reservation", vec![Term::constant("Jerry"), Term::var("x")]);
        assert!(a.compatible_with(&b)); // case-insensitive relation
        let c = Atom::new("Reservation", vec![Term::var("x")]);
        assert!(!a.compatible_with(&c)); // arity differs
        let d = Atom::new("Hotel", vec![Term::var("x"), Term::var("y")]);
        assert!(!a.compatible_with(&d)); // relation differs
    }

    #[test]
    fn namespacing_renames_vars_only() {
        let mut a = kramer_head();
        Rewrite::new(QueryId(7), &[], &[]).terms(&mut a.terms);
        assert_eq!(a.terms[0], Term::constant("Kramer"));
        assert_eq!(a.terms[1], Term::Var(Var::new("q7.fno")));
    }

    #[test]
    fn namespacing_renames_filter_columns() {
        let f = Filter {
            expr: youtopia_sql::parse_expr("price < 500 AND fno <> 0").unwrap(),
            vars: vec![Var::new("price"), Var::new("fno")],
        };
        let f2 = Rewrite::new(QueryId(3), &[], &[]).filter(&f);
        assert_eq!(f2.expr.to_string(), "q3.price < 500 AND q3.fno <> 0");
        assert_eq!(f2.vars, vec![Var::new("q3.price"), Var::new("q3.fno")]);
    }

    #[test]
    fn all_vars_dedup_in_order() {
        let q = EntangledQuery {
            heads: vec![kramer_head()],
            memberships: vec![Membership {
                terms: vec![Term::var("fno")],
                select: youtopia_sql::Select::empty(),
                negated: false,
            }],
            filters: vec![],
            constraints: vec![AnswerConstraint {
                atom: Atom::new(
                    "Reservation",
                    vec![Term::constant("Jerry"), Term::var("fno")],
                ),
                negated: false,
            }],
            choose: 1,
            sql: String::new(),
        };
        assert_eq!(q.all_vars(), vec![Var::new("fno")]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(kramer_head().to_string(), "Reservation('Kramer', ?fno)");
        assert_eq!(QueryId(12).to_string(), "q12");
        assert_eq!(Term::var("x").to_string(), "?x");
        let c = AnswerConstraint {
            atom: Atom::new("R", vec![Term::var("x")]),
            negated: true,
        };
        assert_eq!(c.to_string(), "NOT R(?x)");
    }
}
