//! The pending-query registry.
//!
//! Queries whose postconditions are not yet satisfiable "are not
//! rejected, but rather get registered in the system for possible later
//! execution" (paper, Section 2.1). The registry stores them and keeps
//! two indexes over them, one for each side of the join between heads
//! and answer constraints:
//!
//! * the **candidate index** answers the matcher's question *which
//!   pending heads could satisfy this answer constraint?* (see
//!   `docs/matching.md`, "The candidate index"). For every position
//!   where the constraint has a constant, it keeps only heads carrying
//!   the same constant or a variable there. That typically cuts
//!   candidates from *all queries on the relation* to *the handful
//!   naming the right partner* (e.g. the index on position 0 of
//!   `Reservation('Jerry', ?fno)` returns only Jerry's own queries).
//! * the **waiting index** answers the cascade's mirror question *which
//!   pending queries could this committed tuple satisfy?*
//!   ([`Registry::waiting_on`]). Every positive answer constraint is
//!   filed once, under its relation and its first constant position, or
//!   in the relation's unkeyed list when it has no constant
//!   (`docs/matching.md`, "The waiting index").
//!
//! Both key constants by [`Value::key`], storage's one key, under which
//! two values share a posting exactly when they unify (`Int(3)` and
//! `Float(3.0)` do), so every lookup stays a superset of what
//! unification accepts. Both keep every posting as a storage
//! [`Posting`], the sorted, duplicate-free `Vec` that table indexes
//! use too. Only [`Registry::insert`] and [`Registry::remove`] touch
//! them, so reinstatement after a failed apply, shard migration and
//! recovery keep them exact with no code of their own.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use youtopia_storage::{Posting, Value};

use crate::ir::{Atom, EntangledQuery, QueryId, Term};

/// Counters filled in by the candidate-scan paths: how many posting
/// entries were examined and how many of those the index rejected
/// before unification ever saw them. Merged into
/// [`crate::matcher::MatchStats`] by the callers.
#[derive(Debug, Default, Clone, Copy)]
pub struct CandidateScan {
    /// Posting-list entries examined.
    pub scanned: u64,
    /// Examined entries rejected by the index (a clashing constant at a
    /// non-driver position, or an arity mismatch) without attempting
    /// unification. Postings never walked are not counted.
    pub pruned: u64,
}

/// position -> [`Value::key`] of a constant -> posting. Positions are
/// small and dense (an atom's arity), so the outer level is a `Vec`.
type KeyedPostings<T> = Vec<HashMap<Value, Posting<T>>>;

/// The slot for `pos`, growing `slots` to reach it.
fn slot<T: Default>(slots: &mut Vec<T>, pos: usize) -> &mut T {
    if slots.len() <= pos {
        slots.resize_with(pos + 1, T::default);
    }
    &mut slots[pos]
}

/// Adds `x` to the posting at `map[pos][key]` (`member`) or removes it
/// from there, dropping the posting once it is empty.
fn set_keyed<T: Ord + Copy>(
    map: &mut KeyedPostings<T>,
    pos: usize,
    key: Cow<'_, Value>,
    x: T,
    member: bool,
) {
    let by_key = slot(map, pos);
    match by_key.get_mut(key.as_ref()) {
        Some(posting) => {
            posting.set(x, member);
            if posting.is_empty() {
                by_key.remove(key.as_ref());
            }
        }
        None if member => by_key.entry(key.into_owned()).or_default().insert(x),
        None => {}
    }
}

/// Where a positive constraint is filed in the waiting index: its first
/// constant position and value, or `None` for the unkeyed list.
/// Selectivity is unknown at insert time; the first position is a
/// deterministic choice, and any constant position keeps lookups a
/// superset.
fn waiting_slot(atom: &Atom) -> Option<(usize, &Value)> {
    atom.terms
        .iter()
        .enumerate()
        .find_map(|(pos, t)| t.as_const().map(|v| (pos, v)))
}

/// The (constant-posting, variable-posting) pair backing one constant
/// position of a constraint during candidate resolution.
type PostingPair<'a> = (Option<&'a Posting<HeadRef>>, Option<&'a Posting<HeadRef>>);

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

/// Both indexes of one answer relation. Postings are sorted, so
/// candidate resolution merges and intersects them directly — the
/// deterministic output order falls out of the iteration instead of a
/// final sort, and intersection is membership probes against the
/// non-driver positions.
#[derive(Debug, Default)]
struct RelationIndex {
    /// All heads on this relation.
    heads: Posting<HeadRef>,
    /// Heads with a constant at a position, by its key.
    by_const: KeyedPostings<HeadRef>,
    /// position -> heads with a variable there.
    by_var: Vec<Posting<HeadRef>>,
    /// Queries with a positive constraint on this relation, by the
    /// position and key of the constraint's first constant.
    waiting: KeyedPostings<QueryId>,
    /// Queries with a constant-free positive constraint on this
    /// relation.
    unkeyed: Posting<QueryId>,
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
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn rel_key(relation: &str) -> String {
        relation.to_ascii_lowercase()
    }

    /// Files (`member`) or unfiles every index entry of `pending`: each
    /// head in the candidate index, each positive constraint in the
    /// waiting index. Consecutive atoms on one relation (a pair
    /// query's head and constraint) share one lookup of its index.
    fn file(&mut self, pending: &Pending, member: bool) {
        let qid = pending.id;
        let heads = pending.query.heads.iter().enumerate();
        let heads = heads.map(|(head_idx, head)| (head, Some(HeadRef { qid, head_idx })));
        // a query waits on its positive answer constraints
        let waits = pending.query.constraints.iter().filter(|c| !c.negated);
        let waits = waits.map(|c| (&c.atom, None));
        let mut current: Option<(&str, &mut RelationIndex)> = None;
        for (atom, head) in heads.chain(waits) {
            if !current
                .as_ref()
                .is_some_and(|(name, _)| name.eq_ignore_ascii_case(&atom.relation))
            {
                let rel = self.relations.entry(Self::rel_key(&atom.relation));
                current = Some((&atom.relation, rel.or_default()));
            }
            let (_, rel) = current.as_mut().expect("looked up above");
            let Some(href) = head else {
                match waiting_slot(atom) {
                    Some((pos, v)) => set_keyed(&mut rel.waiting, pos, v.key(), qid, member),
                    None => rel.unkeyed.set(qid, member),
                }
                continue;
            };
            rel.heads.set(href, member);
            for (pos, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(v) => set_keyed(&mut rel.by_const, pos, v.key(), href, member),
                    Term::Var(_) => slot(&mut rel.by_var, pos).set(href, member),
                }
            }
        }
    }

    /// Registers a pending query (its variables must already be
    /// namespaced): files every head in the candidate index and every
    /// positive constraint in the waiting index.
    pub fn insert(&mut self, pending: Pending) {
        self.file(&pending, true);
        if let Some(deadline) = pending.deadline {
            self.deadlines.insert((deadline, pending.id.0));
        }
        self.queries.insert(pending.id.0, pending);
    }

    /// Removes a pending query (answered, cancelled or expired) from
    /// the store and both indexes.
    pub fn remove(&mut self, qid: QueryId) -> Option<Pending> {
        let pending = self.queries.remove(&qid.0)?;
        if let Some(deadline) = pending.deadline {
            self.deadlines.remove(&(deadline, qid.0));
        }
        self.file(&pending, false);
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

    /// Appends to `out` every pending query with a positive answer
    /// constraint that the tuple `values` on `relation` could satisfy:
    /// the waiting postings under `(p, values[p].key())` for each
    /// position `p`, plus the relation's unkeyed list. A constraint the
    /// tuple satisfies has its first constant unify-equal to the
    /// tuple's value there, hence the same key, so the result is a
    /// superset of the queries with a unifying constraint. Unsorted
    /// and possibly repeating; the cascade sorts and deduplicates.
    pub(crate) fn waiting_on(&self, relation: &str, values: &[Value], out: &mut Vec<QueryId>) {
        let Some(rel) = self.relations.get(&Self::rel_key(relation)) else {
            return;
        };
        out.extend(rel.unkeyed.iter());
        for (pos, v) in values.iter().enumerate() {
            if let Some(posting) = rel.waiting.get(pos).and_then(|m| m.get(&*v.key())) {
                out.extend(posting.iter());
            }
        }
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
        // the constraint
        let mut pos_sets: Vec<PostingPair<'_>> = Vec::new();
        let mut driver = 0usize;
        let mut driver_len = usize::MAX;
        for (pos, term) in constraint.terms.iter().enumerate() {
            let Term::Const(v) = term else { continue };
            let cs = rel.by_const.get(pos).and_then(|m| m.get(&*v.key()));
            let vs = rel.by_var.get(pos);
            let len = cs.map_or(0, Posting::len) + vs.map_or(0, Posting::len);
            if len == 0 {
                // no head is compatible at this position: nothing
                // to walk, so nothing is counted
                return;
            }
            if len < driver_len {
                driver = pos_sets.len();
                driver_len = len;
            }
            pos_sets.push((cs, vs));
        }
        if pos_sets.is_empty() {
            // no constant positions: every head on the relation is a
            // candidate, modulo arity
            for href in rel.heads.iter() {
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
        let mut consts = dcs.into_iter().flat_map(Posting::iter).peekable();
        let mut vars = dvs.into_iter().flat_map(Posting::iter).peekable();
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
}

#[cfg(test)]
impl Registry {
    /// All pending heads on `relation` regardless of constants, in
    /// sorted (deterministic) order.
    fn heads_on_relation(&self, relation: &str) -> Vec<HeadRef> {
        self.relations
            .get(&Self::rel_key(relation))
            .map_or_else(Vec::new, |rel| rel.heads.iter().collect())
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
        assert_eq!(
            scan2.pruned, 0,
            "no posting walked, nothing counted as pruned"
        );
        // a driver entry rejected at another constant position is
        // examined and pruned: ('Jerry', 1) walks Jerry's one head and
        // drops it for its flight
        let mut scan3 = CandidateScan::default();
        reg.insert(pending(
            3,
            "jerry",
            "SELECT 'Jerry', 2 INTO ANSWER Reservation CHOOSE 1",
        ));
        reg.insert(pending(
            4,
            "elaine",
            "SELECT 'Elaine', 1 INTO ANSWER Reservation CHOOSE 1",
        ));
        reg.remove(QueryId(2));
        reg.candidates_for_into(
            &Atom::new(
                "Reservation",
                vec![Term::constant("Jerry"), Term::constant(1i64)],
            ),
            &mut out,
            &mut scan3,
        );
        assert!(out.is_empty());
        assert_eq!((scan3.scanned, scan3.pruned), (1, 1));
    }

    /// A query with the given heads and answer constraints (no
    /// memberships), built without SQL so constants of any type appear.
    fn query_of(id: u64, heads: Vec<Atom>, constraints: Vec<(Atom, bool)>) -> Pending {
        Pending {
            id: QueryId(id),
            owner: format!("u{id}"),
            query: EntangledQuery {
                heads,
                memberships: Vec::new(),
                filters: Vec::new(),
                constraints: constraints
                    .into_iter()
                    .map(|(atom, negated)| crate::ir::AnswerConstraint { atom, negated })
                    .collect(),
                choose: 1,
                sql: String::new(),
            },
            seq: id,
            deadline: None,
        }
    }

    fn atom(relation: &str, values: &[Value]) -> Atom {
        Atom::new(relation, values.iter().cloned().map(Term::Const).collect())
    }

    #[test]
    fn unify_equal_constants_share_a_key() {
        // head R('A', 3) satisfies ('A', 3.0) IN ANSWER R, and the other
        // way round. 0, 0.0 and -0.0 are one value and share a key too
        let a = Value::from("A");
        let mut reg = Registry::new();
        reg.insert(query_of(
            1,
            vec![atom("R", &[a.clone(), Value::Int(3)])],
            vec![],
        ));
        reg.insert(query_of(
            2,
            vec![atom("R", &[a.clone(), Value::Float(3.0)])],
            vec![],
        ));
        reg.insert(query_of(
            3,
            vec![atom("R", &[a.clone(), Value::Float(-0.0)])],
            vec![],
        ));
        let hits = |v: Value| -> Vec<u64> {
            reg.candidates_for(&atom("R", &[a.clone(), v]))
                .iter()
                .map(|h| h.qid.0)
                .collect()
        };
        assert_eq!(hits(Value::Float(3.0)), vec![1, 2]);
        assert_eq!(hits(Value::Int(3)), vec![1, 2]);
        assert_eq!(hits(Value::Int(0)), vec![3]);
        assert_eq!(hits(Value::Float(0.0)), vec![3]);
        // and unification accepts the pair the index now returns
        let mut s = crate::unify::Subst::new();
        assert!(s.unify_atoms(
            &atom("R", &[a.clone(), Value::Float(3.0)]),
            reg.head(HeadRef {
                qid: QueryId(1),
                head_idx: 0
            })
            .unwrap()
        ));
        // and the waiting side keys the same way
        reg.insert(query_of(
            4,
            vec![],
            vec![(atom("r", &[a.clone(), Value::Float(3.0)]), false)],
        ));
        let mut out = Vec::new();
        reg.waiting_on("R", &[a.clone(), Value::Int(3)], &mut out);
        assert_eq!(out, vec![QueryId(4)]);
        reg.check_index_invariants();
        // the contract itself: two constants unify exactly when they
        // share a key, which is `sql_eq` plus NULL unifying with NULL
        let big = 1i64 << 53;
        let values = [
            a,
            Value::from("3"),
            Value::Int(0),
            Value::Int(3),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Float(big as f64),
            Value::Float(i64::MAX as f64),
            Value::Float(i64::MIN as f64),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Bool(true),
            Value::Null,
        ];
        for x in &values {
            for y in &values {
                let unify = crate::unify::unify_eq(x, y);
                assert_eq!(unify, x.key() == y.key(), "{x:?} vs {y:?}");
                let sql = x.sql_eq(y) || x.is_null() && y.is_null();
                assert_eq!(unify, sql, "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn waiting_index_files_each_positive_constraint_once() {
        let (a, b) = (Value::from("A"), Value::from("B"));
        let mut reg = Registry::new();
        // keyed on its first constant, position 1
        reg.insert(query_of(
            1,
            vec![],
            vec![(
                Atom::new("R", vec![Term::var("x"), Term::Const(a.clone())]),
                false,
            )],
        ));
        // no constant: the unkeyed list
        reg.insert(query_of(
            2,
            vec![],
            vec![(Atom::new("R", vec![Term::var("x"), Term::var("y")]), false)],
        ));
        // negated constraints wait on nothing
        reg.insert(query_of(
            3,
            vec![],
            vec![(atom("R", &[a.clone(), a.clone()]), true)],
        ));
        let probe = |reg: &Registry, values: &[Value]| {
            let mut out = Vec::new();
            reg.waiting_on("r", values, &mut out);
            out.sort_unstable();
            out.iter().map(|q| q.0).collect::<Vec<_>>()
        };
        assert_eq!(probe(&reg, &[b.clone(), a.clone()]), vec![1, 2]);
        assert_eq!(
            probe(&reg, &[a.clone(), b.clone()]),
            vec![2],
            "key at the wrong position"
        );
        reg.remove(QueryId(2));
        assert_eq!(probe(&reg, &[b.clone(), a.clone()]), vec![1]);
        reg.remove(QueryId(1));
        assert!(probe(&reg, &[b, a]).is_empty());
        let mut out = Vec::new();
        reg.waiting_on("Ghost", &[], &mut out);
        assert!(out.is_empty(), "relation never seen");
        reg.check_index_invariants();
    }

    impl Registry {
        /// Every posting entry of both indexes as a
        /// `(relation, index, position, key, qid, head)` row — a form
        /// that ignores empty postings and map slots, which removal may
        /// leave behind. Panics when a posting is not strictly sorted.
        fn filed(&self) -> BTreeSet<(String, &'static str, usize, String, u64, usize)> {
            fn rows<T: Ord + Copy + std::fmt::Debug>(
                out: &mut BTreeSet<(String, &'static str, usize, String, u64, usize)>,
                rel: &str,
                index: &'static str,
                pos: usize,
                key: String,
                posting: &Posting<T>,
                split: impl Fn(T) -> (u64, usize),
            ) {
                assert!(
                    posting.as_slice().windows(2).all(|w| w[0] < w[1]),
                    "posting {rel}/{index}/{pos}/{key} unsorted: {posting:?}"
                );
                for x in posting.iter() {
                    let (qid, head) = split(x);
                    out.insert((rel.to_string(), index, pos, key.clone(), qid, head));
                }
            }
            let href = |h: HeadRef| (h.qid.0, h.head_idx);
            let qid = |q: QueryId| (q.0, 0);
            let mut out = BTreeSet::new();
            for (rel, idx) in &self.relations {
                rows(&mut out, rel, "heads", 0, String::new(), &idx.heads, href);
                for (pos, by_key) in idx.by_const.iter().enumerate() {
                    for (key, posting) in by_key {
                        rows(
                            &mut out,
                            rel,
                            "const",
                            pos,
                            format!("{key:?}"),
                            posting,
                            href,
                        );
                    }
                }
                for (pos, posting) in idx.by_var.iter().enumerate() {
                    rows(&mut out, rel, "var", pos, String::new(), posting, href);
                }
                for (pos, by_key) in idx.waiting.iter().enumerate() {
                    for (key, posting) in by_key {
                        rows(
                            &mut out,
                            rel,
                            "waiting",
                            pos,
                            format!("{key:?}"),
                            posting,
                            qid,
                        );
                    }
                }
                rows(
                    &mut out,
                    rel,
                    "unkeyed",
                    0,
                    String::new(),
                    &idx.unkeyed,
                    qid,
                );
            }
            out
        }

        /// Asserts that the incrementally maintained indexes (candidate,
        /// waiting, deadline) equal the ones a fresh registry builds from
        /// the pending queries alone.
        pub(crate) fn check_index_invariants(&self) {
            let mut rebuilt = Registry::new();
            for pending in self.queries.values() {
                rebuilt.insert(pending.clone());
            }
            assert_eq!(
                self.filed(),
                rebuilt.filed(),
                "indexes diverge from a rebuild"
            );
            assert_eq!(self.deadlines, rebuilt.deadlines, "deadline index diverges");
        }
    }
}
