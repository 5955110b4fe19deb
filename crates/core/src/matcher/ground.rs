//! The grounding phase: given a structurally closed group (every
//! positive answer constraint has been unified with a member head),
//! find a variable assignment satisfying all database predicates,
//! filters and negative constraints.
//!
//! This is a finite CSP: each positive membership predicate contributes
//! a domain (the rows of its subquery against the current database
//! snapshot), and the search assigns memberships to rows with
//! backtracking. The next membership to assign is always chosen
//! fail-first: the one with the fewest rows compatible with the
//! substitution so far.
//!
//! Membership rows come from the shard's [`MembershipCache`]: a
//! subquery runs once per version of the tables it reads, and every
//! grounding until one of them changes shares its rows. Memberships
//! run with no outer scope and the evaluator is deterministic, so a
//! result, and its row order, is a function of the `Select` and the
//! contents and indexes of the tables it reads — which is what
//! [`youtopia_storage::Table::version`] names.
//!
//! The search mutates the caller's substitution in place, rolling back
//! with [`Subst::mark`]/[`Subst::undo_to`] on backtrack, and filters
//! row domains into pooled index buffers by comparing each row with the
//! domain's resolved terms — no trial unification, no per-row clones.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use youtopia_exec::execute_select;
use youtopia_sql::{Expr, Select, SelectItem};
use youtopia_storage::{Catalog, Tuple, Value};

use crate::error::{CoreError, CoreResult};
use crate::ir::{Atom, Filter, QueryId, Term};
use crate::matcher::committed;
use crate::matcher::pool::BufferPool;
use crate::matcher::{GroupMatch, MatchConfig, MatchStats};
use crate::registry::Registry;
use crate::unify::{unify_eq, Subst};

thread_local! {
    /// Row-index scratch buffers for the fail-first filtering passes.
    static ROW_POOL: BufferPool<Vec<usize>> = const { BufferPool::new() };
}

/// Membership results one cache keeps; inserting past it evicts the
/// oldest entry.
const MEMBERSHIP_CACHE_ENTRIES: usize = 64;

/// The rows of one membership subquery, shared by the cache and every
/// grounding problem that reads them.
type Rows = Arc<[Vec<Value>]>;

/// One cached membership result.
struct CachedMembership {
    select: Select,
    /// Every table the subquery reads (FROM and JOIN atoms, nested
    /// subqueries included), with the version it had when this ran.
    tables: Vec<(String, u64)>,
    arity: usize,
    rows: Rows,
}

/// Membership subquery results of one shard, each valid while every
/// table it read keeps the version it had (module docs). Errors are
/// never cached, and a subquery naming a missing table runs uncached,
/// so both surface exactly as an uncached run would raise them.
#[derive(Default)]
pub(crate) struct MembershipCache {
    entries: VecDeque<CachedMembership>,
}

impl MembershipCache {
    /// The arity and rows of `select` against `catalog`.
    fn rows(
        &mut self,
        catalog: &Catalog,
        select: &Select,
        stats: &mut MatchStats,
    ) -> CoreResult<(usize, Rows)> {
        if let Some(pos) = self.entries.iter().position(|e| e.select == *select) {
            let entry = &self.entries[pos];
            let current = entry
                .tables
                .iter()
                .all(|(name, version)| catalog.table(name).is_ok_and(|t| t.version() == *version));
            if current {
                stats.membership_hits += 1;
                return Ok((entry.arity, Arc::clone(&entry.rows)));
            }
            self.entries.remove(pos);
        }
        let mut names = Vec::new();
        select_tables(select, &mut names);
        let tables: Option<Vec<(String, u64)>> = names
            .into_iter()
            .map(|name| Some((name.to_string(), catalog.table(name).ok()?.version())))
            .collect();
        stats.membership_evals += 1;
        let result = execute_select(catalog, select)?;
        let arity = result.schema.arity();
        let rows: Rows = result.rows.into_iter().map(Tuple::into_values).collect();
        stats.rows_scanned += rows.len() as u64;
        if let Some(tables) = tables {
            if self.entries.len() == MEMBERSHIP_CACHE_ENTRIES {
                self.entries.pop_front();
            }
            self.entries.push_back(CachedMembership {
                select: select.clone(),
                tables,
                arity,
                rows: Arc::clone(&rows),
            });
        }
        Ok((arity, rows))
    }
}

/// Appends the name of every table `select` reads: its FROM and JOIN
/// atoms and, recursively, those of subqueries anywhere inside it.
fn select_tables<'a>(select: &'a Select, out: &mut Vec<&'a str>) {
    for from in &select.from {
        out.push(&from.base.name);
        for join in &from.joins {
            out.push(&join.table.name);
            expr_tables(&join.on, out);
        }
    }
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr_tables(expr, out);
        }
    }
    let order_by = select.order_by.iter().map(|o| &o.expr);
    for expr in select
        .where_clause
        .iter()
        .chain(&select.group_by)
        .chain(&select.having)
        .chain(order_by)
    {
        expr_tables(expr, out);
    }
}

/// [`select_tables`] for the subqueries inside `expr`. The match is
/// exhaustive so a new expression form cannot hide a table read.
fn expr_tables<'a>(expr: &'a Expr, out: &mut Vec<&'a str>) {
    match expr {
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::InSubquery { exprs, query, .. } => {
            exprs.iter().for_each(|e| expr_tables(e, out));
            select_tables(query, out);
        }
        Expr::Exists { query, .. } => select_tables(query, out),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_tables(expr, out),
        Expr::Binary { left, right, .. } => {
            expr_tables(left, out);
            expr_tables(right, out);
        }
        Expr::Function { args: exprs, .. } | Expr::InAnswer { exprs, .. } | Expr::Tuple(exprs) => {
            exprs.iter().for_each(|e| expr_tables(e, out))
        }
        Expr::InList { expr, list, .. } => {
            expr_tables(expr, out);
            list.iter().for_each(|e| expr_tables(e, out));
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            expr_tables(expr, out);
            expr_tables(low, out);
            expr_tables(high, out);
        }
        Expr::Like { expr, pattern, .. } => {
            expr_tables(expr, out);
            expr_tables(pattern, out);
        }
    }
}

/// A membership predicate with its row domain.
#[derive(Debug)]
struct MembershipDomain {
    terms: Vec<Term>,
    rows: Rows,
}

/// A negative membership check (`NOT IN (SELECT ...)`).
#[derive(Debug)]
struct NegMembership {
    terms: Vec<Term>,
    rows: Rows,
}

/// The complete grounding problem for one candidate group.
#[derive(Debug)]
pub(crate) struct GroundingProblem {
    members: Vec<QueryId>,
    domains: Vec<MembershipDomain>,
    neg_memberships: Vec<NegMembership>,
    filters: Vec<Filter>,
    neg_constraints: Vec<Atom>,
    heads: Vec<(QueryId, Atom)>,
}

impl GroundingProblem {
    /// Builds the problem for `group`: reads every member's membership
    /// rows through `memberships` and collects filters, negative
    /// constraints and heads.
    pub(crate) fn build(
        registry: &Registry,
        catalog: &Catalog,
        group: &[QueryId],
        memberships: &mut MembershipCache,
        stats: &mut MatchStats,
    ) -> CoreResult<GroundingProblem> {
        let mut domains = Vec::new();
        let mut neg_memberships = Vec::new();
        let mut filters = Vec::new();
        let mut neg_constraints = Vec::new();
        let mut heads = Vec::new();

        for &qid in group {
            let pending = registry.get(qid).ok_or(CoreError::UnknownQuery(qid.0))?;
            let q = &pending.query;
            for m in &q.memberships {
                let (arity, rows) = memberships.rows(catalog, &m.select, stats)?;
                if arity != m.terms.len() {
                    return Err(CoreError::Compile(format!(
                        "membership tuple has {} terms but its subquery returns {} columns",
                        m.terms.len(),
                        arity
                    )));
                }
                if m.negated {
                    neg_memberships.push(NegMembership {
                        terms: m.terms.clone(),
                        rows,
                    });
                } else {
                    domains.push(MembershipDomain {
                        terms: m.terms.clone(),
                        rows,
                    });
                }
            }
            filters.extend(q.filters.iter().cloned());
            for c in &q.constraints {
                if c.negated {
                    neg_constraints.push(c.atom.clone());
                }
            }
            for h in &q.heads {
                heads.push((qid, h.clone()));
            }
        }
        Ok(GroundingProblem {
            members: group.to_vec(),
            domains,
            neg_memberships,
            filters,
            neg_constraints,
            heads,
        })
    }

    /// Solves the problem starting from `subst` (the unifications the
    /// structural phase produced). Returns the group's joint answers on
    /// success. The substitution is always restored to its entry state
    /// before returning — the caller's scratch survives the search.
    pub fn solve(
        &self,
        subst: &mut Subst,
        catalog: &Catalog,
        config: &MatchConfig,
        rng: &mut StdRng,
        stats: &mut MatchStats,
    ) -> CoreResult<Option<GroupMatch>> {
        stats.groundings_attempted += 1;
        let unassigned: Vec<usize> = (0..self.domains.len()).collect();
        self.assign(subst, &unassigned, catalog, config, rng, stats)
    }

    fn assign(
        &self,
        subst: &mut Subst,
        unassigned: &[usize],
        catalog: &Catalog,
        config: &MatchConfig,
        rng: &mut StdRng,
        stats: &mut MatchStats,
    ) -> CoreResult<Option<GroupMatch>> {
        if unassigned.is_empty() {
            return self.finalize(subst, catalog, stats);
        }
        let mut best_rows = ROW_POOL.with(|p| p.get(stats));
        let mut trial_rows = ROW_POOL.with(|p| p.get(stats));
        // Pick the next membership fail-first: fewest compatible rows.
        let mut pick: Option<usize> = None;
        for (pos, &idx) in unassigned.iter().enumerate() {
            self.compatible_row_indices(idx, subst, &mut trial_rows, stats);
            if pick.is_none() || trial_rows.len() < best_rows.len() {
                std::mem::swap(&mut best_rows, &mut trial_rows);
                pick = Some(pos);
                if best_rows.is_empty() {
                    break; // cannot do better than zero
                }
            }
        }
        let pick_pos = pick.expect("unassigned is non-empty");
        // Shuffling the index buffer visits the same rows in the same
        // order (and burns the same RNG draws) as shuffling a 0..len
        // order vector over materialized clones did.
        if config.randomize {
            best_rows.shuffle(rng);
        }
        let rest: Vec<usize> = unassigned
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != pick_pos)
            .map(|(_, &i)| i)
            .collect();
        let domain = &self.domains[unassigned[pick_pos]];
        let mut found: Option<CoreResult<GroupMatch>> = None;
        for &row_pos in best_rows.iter() {
            let mark = subst.mark();
            let ok = domain
                .terms
                .iter()
                .zip(&domain.rows[row_pos])
                .all(|(t, v)| subst.unify_terms(t, &Term::Const(v.clone())));
            debug_assert!(ok, "a row compatible at filter time re-unifies");
            if ok {
                match self.assign(subst, &rest, catalog, config, rng, stats) {
                    Ok(Some(m)) => {
                        subst.undo_to(mark);
                        found = Some(Ok(m));
                        break;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        subst.undo_to(mark);
                        found = Some(Err(e));
                        break;
                    }
                }
            }
            subst.undo_to(mark);
        }
        ROW_POOL.with(|p| {
            p.put(best_rows);
            p.put(trial_rows);
        });
        match found {
            Some(Ok(m)) => Ok(Some(m)),
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }

    /// Collects the indices of membership `idx`'s rows compatible with
    /// the current substitution into `out`, in ascending order.
    ///
    /// The domain's terms are resolved once. A row is compatible when
    /// every constant position holds an equal value and every variable
    /// class repeated within the tuple repeats its first value — the
    /// predicate trial-unifying the row would compute (an unbound class
    /// binds at its first position, so later positions compare with
    /// that value), evaluated without touching the substitution.
    fn compatible_row_indices(
        &self,
        idx: usize,
        subst: &Subst,
        out: &mut Vec<usize>,
        stats: &mut MatchStats,
    ) {
        out.clear();
        let domain = &self.domains[idx];
        let resolved: Vec<Term> = domain.terms.iter().map(|t| subst.resolve(t)).collect();
        let mut constants: Vec<(usize, &Value)> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (pos, term) in resolved.iter().enumerate() {
            match term {
                Term::Const(c) => constants.push((pos, c)),
                Term::Var(_) => {
                    if let Some(first) = resolved[..pos].iter().position(|t| t == term) {
                        repeats.push((first, pos));
                    }
                }
            }
        }
        for (row_pos, row) in domain.rows.iter().enumerate() {
            stats.rows_scanned += 1;
            if constants.iter().all(|&(pos, c)| unify_eq(c, &row[pos]))
                && repeats
                    .iter()
                    .all(|&(first, later)| unify_eq(&row[first], &row[later]))
            {
                out.push(row_pos);
            }
        }
    }

    /// Final validation once every positive membership is assigned.
    fn finalize(
        &self,
        subst: &Subst,
        catalog: &Catalog,
        stats: &mut MatchStats,
    ) -> CoreResult<Option<GroupMatch>> {
        // 1. every head must ground (each query gets its CHOOSE 1 tuple)
        let mut ground_heads: Vec<(QueryId, String, Vec<Value>)> =
            Vec::with_capacity(self.heads.len());
        for (qid, head) in &self.heads {
            match subst.ground_atom(head) {
                Some(values) => {
                    ground_heads.push((*qid, head.relation.clone(), values));
                }
                None => return Ok(None),
            }
        }

        // 2. filters must evaluate to TRUE
        for filter in &self.filters {
            if !eval_filter(catalog, filter, subst)? {
                return Ok(None);
            }
        }

        // 3. negative memberships: the ground tuple must be absent
        for neg in &self.neg_memberships {
            let Some(values) = subst.ground_tuple(&neg.terms) else {
                return Ok(None); // unground negation cannot be verified
            };
            let present = neg
                .rows
                .iter()
                .position(|row| row.iter().zip(&values).all(|(a, b)| unify_eq(a, b)));
            stats.rows_scanned += present.map_or(neg.rows.len(), |pos| pos + 1) as u64;
            if present.is_some() {
                return Ok(None);
            }
        }

        // 4. negative answer constraints: the ground atom must be neither
        //    among the group's joint answers nor a committed answer
        for neg in &self.neg_constraints {
            let Some(values) = subst.ground_atom(neg) else {
                return Ok(None);
            };
            let violated = ground_heads.iter().any(|(_, rel, head_vals)| {
                rel.eq_ignore_ascii_case(&neg.relation)
                    && head_vals.len() == values.len()
                    && head_vals.iter().zip(&values).all(|(a, b)| unify_eq(a, b))
            });
            if violated {
                return Ok(None);
            }
            let ground = Atom::new(
                neg.relation.as_str(),
                values.into_iter().map(Term::Const).collect(),
            );
            if committed::compatible(catalog, &ground, stats)
                .next()
                .is_some()
            {
                return Ok(None);
            }
        }

        // Assemble the match.
        let mut answers: std::collections::BTreeMap<QueryId, Vec<(String, Tuple)>> =
            std::collections::BTreeMap::new();
        for (qid, rel, values) in ground_heads {
            answers
                .entry(qid)
                .or_default()
                .push((rel, Tuple::new(values)));
        }
        let mut members = self.members.clone();
        members.sort();
        Ok(Some(GroupMatch { members, answers }))
    }
}

/// Evaluates a residual filter under the substitution: every variable
/// must be bound; unbound variables fail the branch (safety guarantees
/// this cannot happen for accepted queries whose memberships all
/// ground).
fn eval_filter(catalog: &Catalog, filter: &Filter, subst: &Subst) -> CoreResult<bool> {
    use youtopia_exec::{ColRef, EvalContext, RelSchema};
    let mut cols = Vec::with_capacity(filter.vars.len());
    let mut values = Vec::with_capacity(filter.vars.len());
    for var in &filter.vars {
        match subst.lookup(var) {
            Some(v) => {
                cols.push(ColRef::bare(var.name().to_string()));
                values.push(v.clone());
            }
            None => return Ok(false),
        }
    }
    let schema = RelSchema::new(cols);
    let row = Tuple::new(values);
    let ctx = EvalContext::with_row(catalog, &schema, &row);
    ctx.eval_predicate(&filter.expr).map_err(CoreError::Exec)
}

/// Convenience used by both matchers: build + solve for a fixed group.
/// `subst` is restored to its entry state before returning.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ground_group(
    registry: &Registry,
    catalog: &Catalog,
    group: &[QueryId],
    subst: &mut Subst,
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> CoreResult<Option<GroupMatch>> {
    let problem = GroundingProblem::build(registry, catalog, group, memberships, stats)?;
    problem.solve(subst, catalog, config, rng, stats)
}

/// Evaluates a lone filter expression for tests.
#[cfg(test)]
pub(crate) fn eval_filter_for_tests(
    catalog: &Catalog,
    filter: &Filter,
    subst: &Subst,
) -> CoreResult<bool> {
    eval_filter(catalog, filter, subst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_sql;
    use crate::ir::Var;
    use crate::registry::Pending;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use youtopia_exec::run_sql;
    use youtopia_storage::Database;

    fn flights_db() -> Database {
        let db = Database::new();
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL, price FLOAT)",
            "INSERT INTO Flights VALUES (122, 'Paris', 450.0), (123, 'Paris', 500.0), \
             (134, 'Paris', 800.0), (136, 'Rome', 300.0)",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    }

    fn reg_with(queries: &[(u64, &str, &str)]) -> Registry {
        let mut reg = Registry::new();
        for (id, owner, sql) in queries {
            let q = compile_sql(sql).unwrap().namespaced(QueryId(*id));
            reg.insert(Pending {
                id: QueryId(*id),
                owner: owner.to_string(),
                query: q,
                seq: *id,
                deadline: None,
            });
        }
        reg
    }

    fn cfg() -> MatchConfig {
        MatchConfig {
            randomize: false,
            ..MatchConfig::default()
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn singleton_self_contained_query_grounds() {
        let db = flights_db();
        let reg = reg_with(&[(
            1,
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') CHOOSE 1",
        )]);
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1)],
            &mut Subst::new(),
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap()
        .expect("should ground");
        assert_eq!(m.members, vec![QueryId(1)]);
        let (rel, tuple) = &m.answers[&QueryId(1)][0];
        assert_eq!(rel, "R");
        assert_eq!(tuple.values()[0], Value::from("Kramer"));
        let fno = tuple.values()[1].as_int().unwrap();
        assert!([122, 123, 134].contains(&fno));
    }

    #[test]
    fn filters_prune_groundings() {
        let db = flights_db();
        let reg = reg_with(&[(
            1,
            "kramer",
            "SELECT 'K', fno, price INTO ANSWER R \
             WHERE (fno, price) IN (SELECT fno, price FROM Flights WHERE dest = 'Paris') \
             AND price < 480 CHOOSE 1",
        )]);
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1)],
            &mut Subst::new(),
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap()
        .unwrap();
        // only flight 122 at 450 passes the filter
        assert_eq!(m.answers[&QueryId(1)][0].1.values()[1], Value::Int(122));
    }

    #[test]
    fn unsatisfiable_filter_fails_gracefully() {
        let db = flights_db();
        let reg = reg_with(&[(
            1,
            "k",
            "SELECT 'K', fno, price INTO ANSWER R \
             WHERE (fno, price) IN (SELECT fno, price FROM Flights) AND price < 0 CHOOSE 1",
        )]);
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1)],
            &mut Subst::new(),
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap();
        assert!(m.is_none());
    }

    #[test]
    fn pair_grounding_shares_variable() {
        let db = flights_db();
        let reg = reg_with(&[
            (
                1,
                "kramer",
                "SELECT 'Kramer', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('Jerry', fno) IN ANSWER R CHOOSE 1",
            ),
            (
                2,
                "jerry",
                "SELECT 'Jerry', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('Kramer', fno) IN ANSWER R CHOOSE 1",
            ),
        ]);
        // structural phase: unify the two fno variables manually
        let mut subst = Subst::new();
        assert!(subst.union(&Var::new("q1.fno"), &Var::new("q2.fno")));
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1), QueryId(2)],
            &mut subst,
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap()
        .unwrap();
        // both get the same flight
        let k = m.answers[&QueryId(1)][0].1.values()[1].clone();
        let j = m.answers[&QueryId(2)][0].1.values()[1].clone();
        assert_eq!(k, j);
    }

    #[test]
    fn contradictory_memberships_fail() {
        let db = flights_db();
        let reg = reg_with(&[
            (
                1,
                "a",
                "SELECT 'A', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') CHOOSE 1",
            ),
            (
                2,
                "b",
                "SELECT 'B', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Rome') CHOOSE 1",
            ),
        ]);
        let mut subst = Subst::new();
        assert!(subst.union(&Var::new("q1.fno"), &Var::new("q2.fno")));
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1), QueryId(2)],
            &mut subst,
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap();
        assert!(m.is_none()); // Paris ∩ Rome = ∅
    }

    #[test]
    fn negative_membership_excludes_rows() {
        let db = flights_db();
        run_sql(&db, "CREATE TABLE Banned (fno INT)").unwrap();
        run_sql(&db, "INSERT INTO Banned VALUES (122), (123), (134)").unwrap();
        let reg = reg_with(&[(
            1,
            "k",
            "SELECT 'K', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights) \
             AND fno NOT IN (SELECT fno FROM Banned) CHOOSE 1",
        )]);
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1)],
            &mut Subst::new(),
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap()
        .unwrap();
        assert_eq!(m.answers[&QueryId(1)][0].1.values()[1], Value::Int(136));
    }

    #[test]
    fn negative_constraint_blocks_equal_answer() {
        let db = flights_db();
        // Both want a Paris flight, but A insists B does NOT get the
        // same one — and B's constraint forces the same one. Unsat.
        let reg = reg_with(&[
            (
                1,
                "a",
                "SELECT 'A', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('B', fno) NOT IN ANSWER R CHOOSE 1",
            ),
            (
                2,
                "b",
                "SELECT 'B', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('A', fno) IN ANSWER R CHOOSE 1",
            ),
        ]);
        let mut subst = Subst::new();
        // B's positive constraint unified A's head with ('A', q2.fno)
        assert!(subst.union(&Var::new("q1.fno"), &Var::new("q2.fno")));
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1), QueryId(2)],
            &mut subst,
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap();
        assert!(m.is_none());
    }

    #[test]
    fn unbound_head_variable_fails() {
        let db = flights_db();
        // relaxed-safety query alone: fno bound by nobody
        let reg = reg_with(&[(
            1,
            "k",
            "SELECT 'K', fno INTO ANSWER R WHERE ('J', fno) IN ANSWER R CHOOSE 1",
        )]);
        let read = db.read();
        let mut stats = MatchStats::default();
        let m = ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1)],
            &mut Subst::new(),
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap();
        assert!(m.is_none());
    }

    #[test]
    fn stats_count_rows() {
        let db = flights_db();
        let reg = reg_with(&[(
            1,
            "k",
            "SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
        )]);
        let read = db.read();
        let mut stats = MatchStats::default();
        ground_group(
            &reg,
            read.catalog(),
            &[QueryId(1)],
            &mut Subst::new(),
            &cfg(),
            &mut rng(),
            &mut MembershipCache::default(),
            &mut stats,
        )
        .unwrap();
        assert!(stats.rows_scanned >= 4);
        assert_eq!(stats.groundings_attempted, 1);
    }

    #[test]
    fn filter_eval_helper() {
        let db = flights_db();
        let read = db.read();
        // compile "price < 500" then namespace it into q1's variable space
        let filter = compile_sql("SELECT price INTO ANSWER R WHERE price < 500 CHOOSE 1")
            .unwrap()
            .namespaced(QueryId(1))
            .filters
            .remove(0);
        let mut s = Subst::new();
        s.bind(&Var::new("q1.price"), Value::Float(450.0));
        assert!(eval_filter_for_tests(read.catalog(), &filter, &s).unwrap());
        let mut s2 = Subst::new();
        s2.bind(&Var::new("q1.price"), Value::Float(600.0));
        assert!(!eval_filter_for_tests(read.catalog(), &filter, &s2).unwrap());
        // unbound var → false
        assert!(!eval_filter_for_tests(read.catalog(), &filter, &Subst::new()).unwrap());
    }

    // ---------------------------------------------------------------
    // The membership cache
    // ---------------------------------------------------------------

    const PARIS: &str = "SELECT fno FROM Flights WHERE dest = 'Paris'";

    fn select_of(sql: &str) -> Select {
        match youtopia_sql::parse_statement(sql).unwrap() {
            youtopia_sql::Statement::Select(s) => s,
            other => panic!("not a SELECT: {other:?}"),
        }
    }

    fn cached_fnos(
        cache: &mut MembershipCache,
        catalog: &Catalog,
        stats: &mut MatchStats,
    ) -> Vec<i64> {
        let (_, rows) = cache.rows(catalog, &select_of(PARIS), stats).unwrap();
        rows.iter().map(|r| r[0].as_int().unwrap()).collect()
    }

    #[test]
    fn cached_rows_are_reused_until_a_table_they_read_changes() {
        let db = flights_db();
        let reg = reg_with(&[(
            1,
            "k",
            "SELECT 'K', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') CHOOSE 1",
        )]);
        let mut cache = MembershipCache::default();
        let mut stats = MatchStats::default();
        let ground = |cache: &mut MembershipCache, stats: &mut MatchStats| {
            let read = db.read();
            ground_group(
                &reg,
                read.catalog(),
                &[QueryId(1)],
                &mut Subst::new(),
                &cfg(),
                &mut rng(),
                cache,
                stats,
            )
            .unwrap()
            .expect("grounds")
        };
        ground(&mut cache, &mut stats);
        // three result rows read once, three examined by the filter
        assert_eq!(
            (
                stats.membership_evals,
                stats.membership_hits,
                stats.rows_scanned
            ),
            (1, 0, 6)
        );
        ground(&mut cache, &mut stats);
        // a hit reads no result rows; only the filter's three count
        assert_eq!(
            (
                stats.membership_evals,
                stats.membership_hits,
                stats.rows_scanned
            ),
            (1, 1, 9)
        );
        // a write to an unrelated table leaves the entry valid
        run_sql(&db, "CREATE TABLE Other (x INT)").unwrap();
        run_sql(&db, "INSERT INTO Other VALUES (1)").unwrap();
        ground(&mut cache, &mut stats);
        assert_eq!((stats.membership_evals, stats.membership_hits), (1, 2));
        run_sql(&db, "INSERT INTO Flights VALUES (140, 'Paris', 99.0)").unwrap();
        ground(&mut cache, &mut stats);
        assert_eq!((stats.membership_evals, stats.membership_hits), (2, 2));
        assert_eq!(cache.entries.len(), 1, "the stale entry was replaced");
    }

    #[test]
    fn dropping_an_index_invalidates_cached_rows() {
        use youtopia_storage::{Column, DataType, RowId, Schema};
        let mut catalog = Catalog::new();
        let schema = Schema::with_primary_key(
            vec![
                Column::new("fno", DataType::Int64),
                Column::new("dest", DataType::Str),
            ],
            &["fno"],
        );
        catalog.create_table("Flights", schema).unwrap();
        let flights = catalog.table_mut("Flights").unwrap();
        for (fno, dest) in [(1, "Paris"), (2, "Rome"), (3, "Paris")] {
            flights
                .insert(Tuple::new(vec![Value::Int(fno), Value::from(dest)]))
                .unwrap();
        }
        flights.create_index("by_dest", &["dest"], false).unwrap();
        // moving flight 2 to Paris files it at its `RowId` place, so
        // the index probe and the full scan agree on order, and only the
        // counters show that the drop re-ran the membership
        flights
            .update(
                RowId(1),
                Tuple::new(vec![Value::Int(2), Value::from("Paris")]),
            )
            .unwrap();
        let mut cache = MembershipCache::default();
        let mut stats = MatchStats::default();
        assert_eq!(cached_fnos(&mut cache, &catalog, &mut stats), [1, 2, 3]);
        catalog
            .table_mut("Flights")
            .unwrap()
            .drop_index("by_dest")
            .unwrap();
        assert_eq!(cached_fnos(&mut cache, &catalog, &mut stats), [1, 2, 3]);
        assert_eq!((stats.membership_evals, stats.membership_hits), (2, 0));
    }

    #[test]
    fn errors_and_missing_tables_are_never_cached() {
        let db = flights_db();
        let read = db.read();
        let mut cache = MembershipCache::default();
        let mut stats = MatchStats::default();
        for sql in [
            "SELECT fno FROM Ghost",
            "SELECT nope FROM Flights",
            "SELECT fno FROM Flights WHERE fno IN (SELECT x FROM Ghost)",
        ] {
            for _ in 0..2 {
                assert!(cache
                    .rows(read.catalog(), &select_of(sql), &mut stats)
                    .is_err());
            }
        }
        assert_eq!((stats.membership_evals, stats.membership_hits), (6, 0));
        assert!(cache.entries.is_empty());
    }

    #[test]
    fn the_oldest_entry_is_evicted_at_capacity() {
        let db = flights_db();
        let read = db.read();
        let mut cache = MembershipCache::default();
        let mut stats = MatchStats::default();
        let nth = |i: usize| select_of(&format!("SELECT fno FROM Flights WHERE fno > {i}"));
        for i in 0..=MEMBERSHIP_CACHE_ENTRIES {
            cache.rows(read.catalog(), &nth(i), &mut stats).unwrap();
        }
        assert_eq!(cache.entries.len(), MEMBERSHIP_CACHE_ENTRIES);
        cache.rows(read.catalog(), &nth(1), &mut stats).unwrap();
        assert_eq!(stats.membership_hits, 1, "a younger entry survived");
        cache.rows(read.catalog(), &nth(0), &mut stats).unwrap();
        assert_eq!(stats.membership_hits, 1, "the oldest entry was evicted");
    }

    #[test]
    fn every_table_a_subquery_reads_is_recorded() {
        let select = select_of(
            "SELECT f.fno FROM Flights f JOIN Hubs h ON f.dest = h.city \
             WHERE f.fno IN (SELECT fno FROM Banned) \
             AND EXISTS (SELECT 1 FROM Seats WHERE Seats.fno = f.fno) \
             ORDER BY f.fno",
        );
        let mut names = Vec::new();
        select_tables(&select, &mut names);
        assert_eq!(names, ["Flights", "Hubs", "Banned", "Seats"]);
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Int(1)),
            Just(Value::Float(1.0)),
            Just(Value::Int(2)),
            Just(Value::from("a")),
            Just(Value::Null),
        ]
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            arb_value().prop_map(Term::Const),
            (0u8..3).prop_map(|i| Term::var(format!("v{i}"))),
        ]
    }

    /// The rows trial unification accepts: the filter's oracle.
    fn trial_unified(terms: &[Term], rows: &[Vec<Value>], subst: &mut Subst) -> Vec<usize> {
        let mut out = Vec::new();
        for (pos, row) in rows.iter().enumerate() {
            let mark = subst.mark();
            if terms
                .iter()
                .zip(row)
                .all(|(t, v)| subst.unify_terms(t, &Term::Const(v.clone())))
            {
                out.push(pos);
            }
            subst.undo_to(mark);
        }
        out
    }

    /// What one attempt produced: the outcome and the next RNG draw.
    type Attempt = (Result<Option<GroupMatch>, String>, u64);

    /// A step of the cache property: a match attempt, or a write to a
    /// table some membership reads.
    #[derive(Debug, Clone)]
    enum Step {
        Attempt {
            trigger: u64,
            naive: bool,
        },
        Insert(i64, &'static str),
        Update(i64, &'static str),
        Delete(i64),
        /// Insert, update and delete in one transaction, then abort.
        Aborted(i64, &'static str),
        CreateIndex,
        /// Restart from the WAL. Replay rebuilds every table and drops
        /// the secondary index, which is not logged — the one way a
        /// running database loses an index.
        Recover,
        /// `DROP TABLE Flights`, then `CREATE TABLE Flights` again with
        /// its rows re-inserted in reverse order.
        Recreate,
        AddHub(&'static str),
        RemoveHub(&'static str),
    }

    const CITIES: [&str; 3] = ["Paris", "Rome", "Oslo"];

    fn arb_step() -> impl Strategy<Value = Step> {
        (0u8..16, 1i64..9, 0usize..3, any::<bool>()).prop_map(|(kind, fno, city, naive)| {
            let city = CITIES[city];
            match kind {
                0..=5 => Step::Attempt {
                    trigger: fno.unsigned_abs() % 6 + 1,
                    naive,
                },
                6 => Step::Insert(fno, city),
                7 => Step::Update(fno, city),
                8 => Step::Delete(fno),
                9 => Step::Aborted(fno, city),
                10 => Step::CreateIndex,
                11 => Step::Recover,
                12 => Step::Recreate,
                13 => Step::AddHub(city),
                _ => Step::RemoveHub(city),
            }
        })
    }

    const FLIGHTS_DDL: &str =
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL, price FLOAT)";

    fn cache_world() -> Database {
        let db = Database::with_wal(youtopia_storage::Wal::in_memory());
        for sql in [
            FLIGHTS_DDL,
            "INSERT INTO Flights VALUES (1, 'Paris', 100.0), (2, 'Rome', 200.0), \
             (3, 'Paris', 300.0), (4, 'Oslo', 400.0), (5, 'Paris', 800.0), (6, 'Rome', 600.0)",
            "CREATE TABLE Hubs (city STRING)",
            "INSERT INTO Hubs VALUES ('Paris'), ('Rome')",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    }

    /// Pairs on a plain, a nested and a joined membership, plus
    /// singletons with a negative membership and a correlated EXISTS.
    fn cache_registry() -> Registry {
        let pair = |me: &str, friend: &str, rel: &str, flights: &str| {
            format!(
                "SELECT '{me}', fno INTO ANSWER {rel} WHERE fno IN ({flights}) \
                 AND ('{friend}', fno) IN ANSWER {rel} CHOOSE 1"
            )
        };
        let hubs = "SELECT fno FROM Flights WHERE dest IN (SELECT city FROM Hubs)";
        let queries = [
            pair("A", "B", "Res", PARIS),
            pair("B", "A", "Res", PARIS),
            pair("C", "D", "Hop", hubs),
            pair("D", "C", "Hop", hubs),
            "SELECT 'E', fno, price INTO ANSWER Solo \
             WHERE (fno, price) IN (SELECT f.fno, f.price FROM Flights f \
                                    JOIN Hubs h ON f.dest = h.city) \
             AND fno NOT IN (SELECT fno FROM Flights WHERE dest = 'Rome') \
             AND price < 700 CHOOSE 1"
                .to_string(),
            "SELECT 'F', dest INTO ANSWER Solo2 \
             WHERE dest IN (SELECT dest FROM Flights f \
                            WHERE EXISTS (SELECT city FROM Hubs WHERE city = f.dest)) CHOOSE 1"
                .to_string(),
        ];
        let owned: Vec<(u64, &str, &str)> = queries
            .iter()
            .enumerate()
            .map(|(i, sql)| (i as u64 + 1, "u", sql.as_str()))
            .collect();
        reg_with(&owned)
    }

    fn apply(db: &mut Database, step: &Step) {
        use youtopia_storage::RowId;
        let sql = |db: &Database, sql: String| {
            let _ = run_sql(db, &sql); // duplicate keys, missing rows: no-ops
        };
        match *step {
            Step::Attempt { .. } => unreachable!("attempts are not writes"),
            Step::Insert(fno, city) => sql(
                db,
                format!("INSERT INTO Flights VALUES ({fno}, '{city}', {fno}00.0)"),
            ),
            Step::Update(fno, city) => sql(
                db,
                format!("UPDATE Flights SET dest = '{city}' WHERE fno = {fno}"),
            ),
            Step::Delete(fno) => sql(db, format!("DELETE FROM Flights WHERE fno = {fno}")),
            Step::Aborted(fno, city) => {
                let mut txn = db.begin();
                let rows: Vec<(RowId, Tuple)> = txn
                    .table("Flights")
                    .unwrap()
                    .scan()
                    .map(|(rid, t)| (rid, t.clone()))
                    .collect();
                let fresh = Tuple::new(vec![
                    Value::Int(fno + 100),
                    Value::from(city),
                    Value::Float(1.0),
                ]);
                txn.insert("Flights", fresh).unwrap();
                if let Some((rid, old)) = rows.first() {
                    let mut values = old.values().to_vec();
                    values[1] = Value::from(city);
                    txn.update("Flights", *rid, Tuple::new(values)).unwrap();
                }
                if let Some((rid, _)) = rows.last() {
                    txn.delete("Flights", *rid).unwrap();
                }
                txn.abort();
            }
            Step::CreateIndex => sql(db, "CREATE INDEX by_dest ON Flights (dest)".into()),
            Step::Recover => {
                let wal = youtopia_storage::Wal::from_bytes(db.wal_bytes().unwrap());
                *db = Database::recover(wal).unwrap().0;
            }
            Step::Recreate => {
                let rows: Vec<Tuple> = db
                    .read()
                    .table("Flights")
                    .unwrap()
                    .scan()
                    .map(|(_, t)| t.clone())
                    .collect();
                sql(db, "DROP TABLE Flights".into());
                sql(db, FLIGHTS_DDL.into());
                db.with_txn(|txn| {
                    for row in rows.into_iter().rev() {
                        txn.insert("Flights", row)?;
                    }
                    Ok(())
                })
                .unwrap();
            }
            Step::AddHub(city) => sql(db, format!("INSERT INTO Hubs VALUES ('{city}')")),
            Step::RemoveHub(city) => sql(db, format!("DELETE FROM Hubs WHERE city = '{city}'")),
        }
    }

    fn attempt(
        reg: &Registry,
        catalog: &Catalog,
        step: &Step,
        rng: &mut StdRng,
        memberships: &mut MembershipCache,
    ) -> Attempt {
        use crate::matcher::{baseline, search};
        use rand::RngCore;
        let Step::Attempt { trigger, naive } = *step else {
            unreachable!("only attempts match")
        };
        let config = MatchConfig::default();
        let mut stats = MatchStats::default();
        let run = if naive {
            baseline::match_query_naive_with
        } else {
            search::match_query_with
        };
        let outcome = run(
            reg,
            catalog,
            QueryId(trigger),
            &config,
            rng,
            memberships,
            &mut stats,
        )
        .map_err(|e| e.to_string());
        (outcome, rng.clone().next_u64())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The filter keeps exactly the rows trial unification accepts,
        /// in the same ascending order, without touching the
        /// substitution.
        #[test]
        fn compatible_rows_equal_trial_unification(
            terms in proptest::collection::vec(arb_term(), 1..4),
            binds in proptest::collection::vec((0u8..3, arb_value()), 0..3),
            unions in proptest::collection::vec((0u8..3, 0u8..3), 0..2),
            rows in proptest::collection::vec(proptest::collection::vec(arb_value(), 3), 0..12),
        ) {
            let var = |i: u8| Var::new(format!("v{i}"));
            let mut subst = Subst::new();
            for (a, b) in unions {
                subst.union(&var(a), &var(b));
            }
            for (v, value) in binds {
                subst.bind(&var(v), value);
            }
            let rows: Vec<Vec<Value>> =
                rows.into_iter().map(|r| r[..terms.len()].to_vec()).collect();
            let expected = trial_unified(&terms, &rows, &mut subst.clone());
            let problem = GroundingProblem {
                members: Vec::new(),
                domains: vec![MembershipDomain { terms, rows: rows.into() }],
                neg_memberships: Vec::new(),
                filters: Vec::new(),
                neg_constraints: Vec::new(),
                heads: Vec::new(),
            };
            let mut kept = Vec::new();
            problem.compatible_row_indices(0, &subst, &mut kept, &mut MatchStats::default());
            prop_assert_eq!(kept, expected);
        }

        /// One long-lived cache gives every attempt the answer, and
        /// leaves the RNG where, a fresh cache per attempt would — under
        /// every write that can reach a table a membership reads.
        #[test]
        fn cached_grounding_equals_a_fresh_cache_under_every_mutation(
            steps in proptest::collection::vec(arb_step(), 1..40),
            seed in 0u64..1_000,
        ) {
            let reg = cache_registry();
            let mut db = cache_world();
            let mut cache = MembershipCache::default();
            let mut rng = StdRng::seed_from_u64(seed);
            for step in &steps {
                if !matches!(step, Step::Attempt { .. }) {
                    apply(&mut db, step);
                    continue;
                }
                let read = db.read();
                let mut fresh_rng = rng.clone();
                let cached = attempt(&reg, read.catalog(), step, &mut rng, &mut cache);
                let fresh = attempt(
                    &reg,
                    read.catalog(),
                    step,
                    &mut fresh_rng,
                    &mut MembershipCache::default(),
                );
                prop_assert_eq!(cached, fresh, "after {:?}", step);
            }
        }
    }
}
