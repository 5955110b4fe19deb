//! The pending-query registry.
//!
//! Queries whose postconditions are not yet satisfiable "are not
//! rejected, but rather get registered in the system for possible later
//! execution" (paper, Section 2.1). The registry stores them and answers
//! the matcher's central question: *which pending heads could satisfy
//! this answer constraint?*
//!
//! Two lookup paths exist, switchable for the ablation experiment (E10
//! of the `experiments` binary; see `docs/matching.md`, "The candidate
//! index"):
//!
//! * **relation lookup** — all heads contributed to the constraint's
//!   answer relation (the baseline);
//! * **constant-position index** — for every position where the
//!   constraint has a constant, a candidate head must carry either the
//!   same constant or a variable there. Maintained incrementally, this
//!   typically cuts candidates from *all queries on the relation* to
//!   *the handful naming the right partner* (e.g. the index on position
//!   0 of `Reservation('Jerry', ?fno)` returns only Jerry's own queries).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use youtopia_storage::Value;

use crate::ir::{Atom, EntangledQuery, QueryId, Term};

/// Counters filled in by the candidate-scan paths: how many posting
/// entries were examined and how many candidates the index eliminated
/// before unification ever saw them. Merged into
/// [`crate::matcher::MatchStats`] by the callers.
#[derive(Debug, Default, Clone, Copy)]
pub struct CandidateScan {
    /// Posting-list entries examined.
    pub scanned: u64,
    /// Candidates eliminated by the index (constant-position or arity
    /// mismatch) without attempting unification.
    pub pruned: u64,
}

/// The (constant-posting, variable-posting) pair backing one constant
/// position of a constraint during candidate resolution.
type PostingPair<'a> = (Option<&'a BTreeSet<HeadRef>>, Option<&'a BTreeSet<HeadRef>>);

/// A registered pending query.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The query's id.
    pub id: QueryId,
    /// Who submitted it (user name / session tag; used by the demo app
    /// and the admin interface).
    pub owner: String,
    /// The compiled query, with variables namespaced by `id`.
    pub query: EntangledQuery,
    /// Monotonic submission sequence number.
    pub seq: u64,
    /// Absolute deadline in clock milliseconds, if the submission
    /// carried one ([`crate::SubmitOptions::deadline`]). A pending
    /// query past its deadline is retired by the next `expire_due`
    /// sweep; `None` waits forever.
    pub deadline: Option<u64>,
}

/// Reference to one head atom of one pending query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeadRef {
    /// The owning query.
    pub qid: QueryId,
    /// Index into that query's `heads`.
    pub head_idx: usize,
}

#[derive(Debug, Default)]
struct RelationIndex {
    /// All heads on this relation.
    heads: BTreeSet<HeadRef>,
    /// position -> constant value -> heads with that constant there.
    ///
    /// Posting sets are `BTreeSet` so candidate resolution can merge and
    /// intersect *sorted* lists directly — the deterministic output order
    /// falls out of the iteration instead of a final sort, and
    /// intersection is membership probes against the non-driver
    /// positions rather than allocating per-position `HashSet`s.
    by_const: HashMap<usize, HashMap<Value, BTreeSet<HeadRef>>>,
    /// position -> heads with a variable there.
    by_var: HashMap<usize, BTreeSet<HeadRef>>,
}

/// The pending-query store.
#[derive(Debug, Default)]
pub struct Registry {
    queries: BTreeMap<u64, Pending>,
    relations: HashMap<String, RelationIndex>,
    /// `(deadline_millis, qid)` of every pending query carrying a
    /// deadline, ordered soonest-first — the expiry sweep's index:
    /// `min_deadline` is a first-element peek and `due_before` a range
    /// scan, never a registry walk.
    deadlines: BTreeSet<(u64, u64)>,
    use_const_index: bool,
}

impl Registry {
    /// A registry with the constant-position index enabled.
    pub fn new() -> Registry {
        Registry {
            use_const_index: true,
            ..Registry::default()
        }
    }

    /// A registry using plain relation lookups (the E10 baseline).
    pub fn without_const_index() -> Registry {
        Registry {
            use_const_index: false,
            ..Registry::default()
        }
    }

    /// Whether the constant-position index is active.
    pub fn uses_const_index(&self) -> bool {
        self.use_const_index
    }

    fn rel_key(relation: &str) -> String {
        relation.to_ascii_lowercase()
    }

    /// Registers a pending query (its variables must already be
    /// namespaced).
    pub fn insert(&mut self, pending: Pending) {
        let qid = pending.id;
        for (head_idx, head) in pending.query.heads.iter().enumerate() {
            let href = HeadRef { qid, head_idx };
            let rel = self
                .relations
                .entry(Self::rel_key(&head.relation))
                .or_default();
            rel.heads.insert(href);
            for (pos, term) in head.terms.iter().enumerate() {
                match term {
                    Term::Const(v) => {
                        rel.by_const
                            .entry(pos)
                            .or_default()
                            .entry(v.clone())
                            .or_default()
                            .insert(href);
                    }
                    Term::Var(_) => {
                        rel.by_var.entry(pos).or_default().insert(href);
                    }
                }
            }
        }
        if let Some(deadline) = pending.deadline {
            self.deadlines.insert((deadline, qid.0));
        }
        self.queries.insert(qid.0, pending);
    }

    /// Removes a pending query (answered, cancelled or expired).
    pub fn remove(&mut self, qid: QueryId) -> Option<Pending> {
        let pending = self.queries.remove(&qid.0)?;
        if let Some(deadline) = pending.deadline {
            self.deadlines.remove(&(deadline, qid.0));
        }
        for (head_idx, head) in pending.query.heads.iter().enumerate() {
            let href = HeadRef { qid, head_idx };
            if let Some(rel) = self.relations.get_mut(&Self::rel_key(&head.relation)) {
                rel.heads.remove(&href);
                for (pos, term) in head.terms.iter().enumerate() {
                    match term {
                        Term::Const(v) => {
                            if let Some(by_val) = rel.by_const.get_mut(&pos) {
                                if let Some(set) = by_val.get_mut(v) {
                                    set.remove(&href);
                                    if set.is_empty() {
                                        by_val.remove(v);
                                    }
                                }
                            }
                        }
                        Term::Var(_) => {
                            if let Some(set) = rel.by_var.get_mut(&pos) {
                                set.remove(&href);
                            }
                        }
                    }
                }
            }
        }
        Some(pending)
    }

    /// Fetches a pending query.
    pub fn get(&self, qid: QueryId) -> Option<&Pending> {
        self.queries.get(&qid.0)
    }

    /// Number of pending queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no queries are pending.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterates over pending queries in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Pending> {
        self.queries.values()
    }

    /// The head atom a [`HeadRef`] points at.
    pub fn head(&self, href: HeadRef) -> Option<&Atom> {
        self.get(href.qid)
            .and_then(|p| p.query.heads.get(href.head_idx))
    }

    /// Candidate heads that could satisfy `constraint` (a positive
    /// answer-constraint atom), sorted for determinism.
    ///
    /// Soundness: the result is a superset of the heads that actually
    /// unify with the constraint (property-tested); unification makes
    /// the final call.
    pub fn candidates_for(&self, constraint: &Atom) -> Vec<HeadRef> {
        let mut out = Vec::new();
        let mut scan = CandidateScan::default();
        self.candidates_for_into(constraint, &mut out, &mut scan);
        out
    }

    /// [`Registry::candidates_for`] into a caller-supplied buffer
    /// (cleared first), accumulating scan counters. The buffer-reusing
    /// entry point of the staged match pipeline.
    pub fn candidates_for_into(
        &self,
        constraint: &Atom,
        out: &mut Vec<HeadRef>,
        scan: &mut CandidateScan,
    ) {
        out.clear();
        let Some(rel) = self.relations.get(&Self::rel_key(&constraint.relation)) else {
            return;
        };
        self.candidates_on_rel(rel, constraint, out, scan);
    }

    /// Resolves candidates for a whole batch of constraints in one pass:
    /// constraints are grouped by relation signature so each relation's
    /// index is fetched once, and every per-constraint scan shares the
    /// sorted-posting-list machinery. Output slot `i` holds the sorted
    /// candidates of `constraints[i]`.
    pub fn candidates_for_batch(
        &self,
        constraints: &[&Atom],
        out: &mut Vec<Vec<HeadRef>>,
        scan: &mut CandidateScan,
    ) {
        out.resize_with(constraints.len(), Vec::new);
        for slot in out.iter_mut() {
            slot.clear();
        }
        let mut by_rel: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, c) in constraints.iter().enumerate() {
            by_rel
                .entry(Self::rel_key(&c.relation))
                .or_default()
                .push(i);
        }
        for (key, idxs) in by_rel {
            let Some(rel) = self.relations.get(&key) else {
                continue;
            };
            for i in idxs {
                self.candidates_on_rel(rel, constraints[i], &mut out[i], scan);
            }
        }
        out.truncate(constraints.len());
    }

    /// Cheap emptiness probe: `false` means *provably no pending head*
    /// can unify with `constraint` — the relation has no heads, or some
    /// constant position of the constraint has neither a matching
    /// constant posting nor any variable posting. `true` is
    /// conservative (the full intersection may still come up empty).
    ///
    /// This is the index-first pruning test the re-match sweep runs
    /// before taking the db read lock.
    pub fn has_candidates(&self, constraint: &Atom) -> bool {
        let Some(rel) = self.relations.get(&Self::rel_key(&constraint.relation)) else {
            return false;
        };
        if rel.heads.is_empty() {
            return false;
        }
        if self.use_const_index {
            for (pos, term) in constraint.terms.iter().enumerate() {
                let Term::Const(v) = term else { continue };
                let consts_empty = rel
                    .by_const
                    .get(&pos)
                    .and_then(|m| m.get(v))
                    .is_none_or(BTreeSet::is_empty);
                if consts_empty && rel.by_var.get(&pos).is_none_or(BTreeSet::is_empty) {
                    return false;
                }
            }
        }
        true
    }

    /// Candidate resolution against one relation's index: picks the
    /// most selective constant position as the *driver*, merge-iterates
    /// its (sorted, disjoint) constant/variable posting lists, and
    /// probes the remaining constant positions by membership. The
    /// output arrives sorted without a trailing sort.
    fn candidates_on_rel(
        &self,
        rel: &RelationIndex,
        constraint: &Atom,
        out: &mut Vec<HeadRef>,
        scan: &mut CandidateScan,
    ) {
        // (const-postings, var-postings) per constant position of
        // the constraint; empty when the const index is ablated off.
        let mut pos_sets: Vec<PostingPair<'_>> = Vec::new();
        let mut driver = 0usize;
        let mut driver_len = usize::MAX;
        if self.use_const_index {
            for (pos, term) in constraint.terms.iter().enumerate() {
                let Term::Const(v) = term else { continue };
                let cs = rel.by_const.get(&pos).and_then(|m| m.get(v));
                let vs = rel.by_var.get(&pos);
                let len = cs.map_or(0, BTreeSet::len) + vs.map_or(0, BTreeSet::len);
                if len == 0 {
                    // no head is compatible at this position: the whole
                    // relation's head set is pruned without a scan
                    scan.pruned += rel.heads.len() as u64;
                    return;
                }
                if len < driver_len {
                    driver = pos_sets.len();
                    driver_len = len;
                }
                pos_sets.push((cs, vs));
            }
        }
        if pos_sets.is_empty() {
            // no constant positions (or index ablated): every head on
            // the relation is a candidate, modulo arity
            for href in rel.heads.iter().copied() {
                scan.scanned += 1;
                if self
                    .head(href)
                    .is_some_and(|h| h.arity() == constraint.arity())
                {
                    out.push(href);
                } else {
                    scan.pruned += 1;
                }
            }
            return;
        }
        let (dcs, dvs) = pos_sets[driver];
        let mut consts = dcs.into_iter().flatten().copied().peekable();
        let mut vars = dvs.into_iter().flatten().copied().peekable();
        // merge the driver's two sorted (disjoint) posting lists
        let merged = std::iter::from_fn(move || match (consts.peek(), vars.peek()) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    consts.next()
                } else {
                    vars.next()
                }
            }
            (Some(_), None) => consts.next(),
            (None, Some(_)) => vars.next(),
            (None, None) => None,
        });
        for href in merged {
            scan.scanned += 1;
            let compatible = pos_sets.iter().enumerate().all(|(i, (cs, vs))| {
                i == driver
                    || cs.is_some_and(|s| s.contains(&href))
                    || vs.is_some_and(|s| s.contains(&href))
            });
            if compatible
                && self
                    .head(href)
                    .is_some_and(|h| h.arity() == constraint.arity())
            {
                out.push(href);
            } else {
                scan.pruned += 1;
            }
        }
    }

    /// The earliest deadline of any pending query (`None` when no
    /// pending query carries one) — the sweeper's wakeup hint.
    pub fn min_deadline(&self) -> Option<u64> {
        self.deadlines.first().map(|&(deadline, _)| deadline)
    }

    /// The pending queries whose deadline is at or before `now_millis`,
    /// soonest first (a range scan of the deadline index; pending
    /// queries without a deadline are never returned).
    pub fn due_before(&self, now_millis: u64) -> Vec<QueryId> {
        self.deadlines
            .range(..=(now_millis, u64::MAX))
            .map(|&(_, qid)| QueryId(qid))
            .collect()
    }

    /// All pending heads on `relation` regardless of constants (the
    /// baseline lookup; also used by the naive matcher).
    pub fn heads_on_relation(&self, relation: &str) -> Vec<HeadRef> {
        let Some(rel) = self.relations.get(&Self::rel_key(relation)) else {
            return Vec::new();
        };
        // BTreeSet iteration is already in sorted (deterministic) order
        rel.heads.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_sql;

    fn pending(id: u64, owner: &str, sql: &str) -> Pending {
        let q = compile_sql(sql).unwrap().namespaced(QueryId(id));
        Pending {
            id: QueryId(id),
            owner: owner.into(),
            query: q,
            seq: id,
            deadline: None,
        }
    }

    fn kramer(id: u64) -> Pending {
        pending(
            id,
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        )
    }

    fn jerry(id: u64) -> Pending {
        pending(
            id,
            "jerry",
            "SELECT 'Jerry', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut reg = Registry::new();
        reg.insert(kramer(1));
        assert_eq!(reg.len(), 1);
        assert!(reg.get(QueryId(1)).is_some());
        let removed = reg.remove(QueryId(1)).unwrap();
        assert_eq!(removed.owner, "kramer");
        assert!(reg.is_empty());
        assert!(reg.remove(QueryId(1)).is_none());
    }

    #[test]
    fn candidates_use_constant_positions() {
        let mut reg = Registry::new();
        reg.insert(kramer(1));
        reg.insert(jerry(2));
        // plus unrelated noise: Elaine coordinating with George
        for (i, (a, b)) in [("Elaine", "George"), ("George", "Elaine")]
            .iter()
            .enumerate()
        {
            reg.insert(pending(
                10 + i as u64,
                a,
                &format!(
                    "SELECT '{a}', fno INTO ANSWER Reservation \
                     WHERE fno IN (SELECT fno FROM Flights) \
                     AND ('{b}', fno) IN ANSWER Reservation CHOOSE 1"
                ),
            ));
        }
        // Kramer's constraint wants Reservation('Jerry', ?fno):
        // only Jerry's head should be a candidate.
        let constraint = &reg.get(QueryId(1)).unwrap().query.constraints[0].atom;
        let cands = reg.candidates_for(constraint);
        assert_eq!(
            cands,
            vec![HeadRef {
                qid: QueryId(2),
                head_idx: 0
            }]
        );
    }

    #[test]
    fn baseline_returns_all_relation_heads() {
        let mut reg = Registry::without_const_index();
        reg.insert(kramer(1));
        reg.insert(jerry(2));
        let constraint = &reg.get(QueryId(1)).unwrap().query.constraints[0].atom;
        // baseline: both heads on Reservation are candidates
        assert_eq!(reg.candidates_for(constraint).len(), 2);
        assert!(!reg.uses_const_index());
    }

    #[test]
    fn variable_positions_stay_candidates() {
        let mut reg = Registry::new();
        // a head with a variable traveler name matches any constant
        reg.insert(pending(
            5,
            "any",
            "SELECT who, fno INTO ANSWER Reservation \
             WHERE (who, fno) IN (SELECT traveler, fno FROM Offers) CHOOSE 1",
        ));
        let constraint = Atom::new("Reservation", vec![Term::constant("Jerry"), Term::var("x")]);
        assert_eq!(reg.candidates_for(&constraint).len(), 1);
    }

    #[test]
    fn arity_mismatch_excluded() {
        let mut reg = Registry::new();
        reg.insert(pending(
            1,
            "a",
            "SELECT 'J', x, y INTO ANSWER R WHERE (x, y) IN (SELECT a, b FROM t) CHOOSE 1",
        ));
        let constraint = Atom::new("R", vec![Term::constant("J"), Term::var("v")]);
        assert!(reg.candidates_for(&constraint).is_empty());
    }

    #[test]
    fn unknown_relation_has_no_candidates() {
        let reg = Registry::new();
        let constraint = Atom::new("Ghost", vec![Term::var("x")]);
        assert!(reg.candidates_for(&constraint).is_empty());
    }

    #[test]
    fn index_is_maintained_on_removal() {
        let mut reg = Registry::new();
        reg.insert(kramer(1));
        reg.insert(jerry(2));
        reg.remove(QueryId(2));
        let constraint = &reg.get(QueryId(1)).unwrap().query.constraints[0].atom;
        assert!(reg.candidates_for(constraint).is_empty());
        assert_eq!(reg.heads_on_relation("Reservation").len(), 1);
    }

    #[test]
    fn relation_lookup_is_case_insensitive() {
        let mut reg = Registry::new();
        reg.insert(jerry(1));
        assert_eq!(reg.heads_on_relation("RESERVATION").len(), 1);
        assert_eq!(reg.heads_on_relation("reservation").len(), 1);
    }

    #[test]
    fn multi_head_queries_index_every_head() {
        let mut reg = Registry::new();
        reg.insert(pending(
            1,
            "jerry",
            "SELECT 'J', fno INTO ANSWER Res, 'J', hid INTO ANSWER HotelRes \
             WHERE fno IN (SELECT fno FROM Flights) AND hid IN (SELECT hid FROM Hotels) \
             CHOOSE 1",
        ));
        assert_eq!(reg.heads_on_relation("Res").len(), 1);
        assert_eq!(reg.heads_on_relation("HotelRes").len(), 1);
        reg.remove(QueryId(1));
        assert!(reg.heads_on_relation("Res").is_empty());
        assert!(reg.heads_on_relation("HotelRes").is_empty());
    }

    #[test]
    fn deadline_index_tracks_insert_and_remove() {
        let mut reg = Registry::new();
        assert_eq!(reg.min_deadline(), None);
        assert!(reg.due_before(u64::MAX).is_empty());
        for (id, deadline) in [(1, Some(300)), (2, Some(100)), (3, None), (4, Some(200))] {
            let mut p = kramer(id);
            p.deadline = deadline;
            reg.insert(p);
        }
        assert_eq!(reg.min_deadline(), Some(100));
        assert!(reg.due_before(99).is_empty());
        let due: Vec<u64> = reg.due_before(250).iter().map(|q| q.0).collect();
        assert_eq!(due, vec![2, 4], "soonest first; deadline-less never due");
        reg.remove(QueryId(2));
        assert_eq!(reg.min_deadline(), Some(200));
        reg.remove(QueryId(4));
        reg.remove(QueryId(1));
        assert_eq!(reg.min_deadline(), None, "index drained with the entries");
        assert_eq!(reg.len(), 1, "the deadline-less query remains");
    }

    #[test]
    fn candidates_sorted_for_determinism() {
        let mut reg = Registry::new();
        for id in [5, 3, 9, 1] {
            reg.insert(jerry(id));
        }
        let constraint = Atom::new("Reservation", vec![Term::constant("Jerry"), Term::var("x")]);
        let cands = reg.candidates_for(&constraint);
        let ids: Vec<u64> = cands.iter().map(|h| h.qid.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }

    #[test]
    fn batch_matches_per_constraint_scans() {
        let mut reg = Registry::new();
        reg.insert(kramer(1));
        reg.insert(jerry(2));
        reg.insert(jerry(3));
        let jerry_c = Atom::new("Reservation", vec![Term::constant("Jerry"), Term::var("x")]);
        let kramer_c = Atom::new(
            "Reservation",
            vec![Term::constant("Kramer"), Term::var("y")],
        );
        let ghost_c = Atom::new("Ghost", vec![Term::var("z")]);
        let constraints = [&jerry_c, &kramer_c, &ghost_c];
        let mut batch = Vec::new();
        let mut scan = CandidateScan::default();
        reg.candidates_for_batch(&constraints, &mut batch, &mut scan);
        assert_eq!(batch.len(), 3);
        for (i, c) in constraints.iter().enumerate() {
            assert_eq!(batch[i], reg.candidates_for(c), "slot {i} diverges");
        }
        assert!(scan.scanned > 0);
        // the buffer is reused across calls without stale carry-over
        reg.candidates_for_batch(&[&ghost_c], &mut batch, &mut scan);
        assert_eq!(batch.len(), 1);
        assert!(batch[0].is_empty());
    }

    #[test]
    fn has_candidates_probe_is_sound() {
        let mut reg = Registry::new();
        reg.insert(jerry(1)); // head Reservation('Jerry', ?fno)
        let matchable = Atom::new("Reservation", vec![Term::constant("Jerry"), Term::var("x")]);
        let ghost_name = Atom::new(
            "Reservation",
            vec![Term::constant("Newman"), Term::var("x")],
        );
        let ghost_rel = Atom::new("Ghost", vec![Term::var("x")]);
        assert!(reg.has_candidates(&matchable));
        assert!(!reg.has_candidates(&ghost_name), "no posting for Newman");
        assert!(!reg.has_candidates(&ghost_rel), "relation never seen");
        // the probe never prunes anything candidates_for would return
        assert!(reg.candidates_for(&ghost_name).is_empty());
        assert!(!reg.candidates_for(&matchable).is_empty());
        // ablated index: probe falls back to relation emptiness only
        let mut base = Registry::without_const_index();
        base.insert(jerry(1));
        assert!(
            base.has_candidates(&ghost_name),
            "no index, stays conservative"
        );
    }

    #[test]
    fn scan_counters_account_for_pruning() {
        let mut reg = Registry::new();
        reg.insert(kramer(1));
        reg.insert(jerry(2));
        let constraint = Atom::new("Reservation", vec![Term::constant("Jerry"), Term::var("x")]);
        let mut out = Vec::new();
        let mut scan = CandidateScan::default();
        reg.candidates_for_into(&constraint, &mut out, &mut scan);
        assert_eq!(out.len(), 1, "only Jerry's head survives");
        assert!(scan.scanned >= 1);
        // Newman never appears: both pending heads pruned without a scan
        let mut scan2 = CandidateScan::default();
        reg.candidates_for_into(
            &Atom::new(
                "Reservation",
                vec![Term::constant("Newman"), Term::var("x")],
            ),
            &mut out,
            &mut scan2,
        );
        assert!(out.is_empty());
        assert_eq!(scan2.scanned, 0);
        assert_eq!(scan2.pruned, 2);
    }
}
