//! The router: a union-find over answer-relation signatures that
//! decides which shard a query lives on, and the coordinator's
//! migration / placement-healing paths built on it (see the routing
//! rule and locking protocol in the [module docs](super)). Queries a
//! migration moves are re-matched by the engine's one re-match loop,
//! a sweep per destination shard.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::engine::Ack;
use crate::ir::{EntangledQuery, QueryId};

use super::{hook_ref, ShardedCoordinator, SharedApplyHook};

/// The pseudo-relation that stands for the signature of a query with
/// no answer relation. Signatures are lowercased, so no real relation
/// name can equal it.
const NO_ANSWER_RELATION: &str = "<No Answer Relation>";

/// The router's key for `query`: its lowercased answer-relation
/// signature ([`EntangledQuery::answer_relations`]), or
/// [`NO_ANSWER_RELATION`] when it has none. Such a query coordinates
/// with nobody, but it is routed and tracked like any other.
pub(super) fn signature(query: &EntangledQuery) -> BTreeSet<String> {
    let mut relations = query.answer_relations();
    if relations.is_empty() {
        relations.insert(NO_ANSWER_RELATION.to_string());
    }
    relations
}

/// A pending-query migration decided while merging two relation
/// components.
#[derive(Debug)]
pub(super) struct Migration {
    from: usize,
    to: usize,
    qids: Vec<QueryId>,
}

/// Union-find over relation names with per-component shard assignment
/// and live-membership tracking (the membership sets are what a merge
/// migrates). With a single shard every answer is "shard 0" and
/// nothing can migrate, so the router short-circuits and tracks
/// nothing.
pub(super) struct Router {
    /// Union-find parent per node (a node is one relation name).
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// Shard assignment; meaningful at root nodes.
    shard: Vec<usize>,
    /// Live queries of the component (pending *or* routed-but-not-yet-
    /// drained); meaningful at roots.
    members: Vec<HashSet<QueryId>>,
    /// Lowercased relation name → node.
    rel_node: HashMap<String, usize>,
    /// Routed query → any node of its signature.
    qid_node: HashMap<QueryId, usize>,
    /// Round-robin cursor for newborn components.
    next_rr: usize,
    num_shards: usize,
}

impl Router {
    pub(super) fn new(num_shards: usize) -> Router {
        Router {
            parent: Vec::new(),
            rank: Vec::new(),
            shard: Vec::new(),
            members: Vec::new(),
            rel_node: HashMap::new(),
            qid_node: HashMap::new(),
            next_rr: 0,
            num_shards,
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// The node of `relation`, created (with a fresh round-robin shard)
    /// on first sight.
    fn node_for(&mut self, relation: &str) -> usize {
        if let Some(&n) = self.rel_node.get(relation) {
            return n;
        }
        let n = self.parent.len();
        self.parent.push(n);
        self.rank.push(0);
        self.shard.push(self.next_rr);
        self.next_rr = (self.next_rr + 1) % self.num_shards;
        self.members.push(HashSet::new());
        self.rel_node.insert(relation.to_string(), n);
        n
    }

    /// Routes a query over its [`signature`]: unions the signature
    /// into one component, decides the surviving shard, and reports
    /// which already-routed queries must migrate because their
    /// component just changed shards.
    pub(super) fn route(
        &mut self,
        qid: QueryId,
        relations: &BTreeSet<String>,
    ) -> (usize, Vec<Migration>) {
        if self.num_shards == 1 {
            // one shard: nothing to decide and nothing can ever
            // migrate, so the router keeps no books at all (they cost
            // ~5% of a cheap arrival, measured)
            return (0, Vec::new());
        }
        let nodes: Vec<usize> = relations.iter().map(|r| self.node_for(r)).collect();
        let mut roots: Vec<usize> = nodes.iter().map(|&n| self.find(n)).collect();
        roots.sort_unstable();
        roots.dedup();
        self.qid_node.insert(qid, nodes[0]);
        if let [root] = roots[..] {
            // the common case — the signature already is one component:
            // nothing merges, nothing moves
            self.members[root].insert(qid);
            return (self.shard[root], Vec::new());
        }

        // the surviving shard: the component with the most live queries
        // keeps its shard (cheapest migration); ties break toward the
        // lowest shard index for determinism
        let winner_shard = roots
            .iter()
            .map(|&r| (std::cmp::Reverse(self.members[r].len()), self.shard[r]))
            .min()
            .map(|(_, s)| s)
            .expect("at least one root");

        let mut migrations = Vec::new();
        let mut merged_members = HashSet::new();
        for &r in &roots {
            if self.shard[r] != winner_shard && !self.members[r].is_empty() {
                migrations.push(Migration {
                    from: self.shard[r],
                    to: winner_shard,
                    qids: self.members[r].iter().copied().collect(),
                });
            }
            // small-to-large: re-hash the smaller set into the larger
            let mut members = std::mem::take(&mut self.members[r]);
            if members.len() > merged_members.len() {
                std::mem::swap(&mut members, &mut merged_members);
            }
            merged_members.extend(members);
        }

        // union all roots; install the merged membership and the
        // surviving shard at the final root
        let mut root = roots[0];
        for &r in &roots[1..] {
            root = self.union(root, r);
        }
        self.shard[root] = winner_shard;
        merged_members.insert(qid);
        self.members[root] = merged_members;

        (winner_shard, migrations)
    }

    /// Union by rank; returns the surviving root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (winner, loser) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser] = winner;
        if self.rank[ra] == self.rank[rb] {
            self.rank[winner] += 1;
        }
        winner
    }

    /// Retires an answered/cancelled query from its component.
    pub(super) fn purge(&mut self, qid: QueryId) {
        if let Some(node) = self.qid_node.remove(&qid) {
            let root = self.find(node);
            self.members[root].remove(&qid);
        }
    }

    /// The shard a known relation currently routes to.
    fn shard_of_relation(&mut self, relation: &str) -> Option<usize> {
        if self.num_shards == 1 {
            return Some(0);
        }
        let &node = self.rel_node.get(&relation.to_ascii_lowercase())?;
        let root = self.find(node);
        Some(self.shard[root])
    }

    /// The shard a routed query's component currently maps to.
    pub(super) fn shard_of_query(&mut self, qid: QueryId) -> Option<usize> {
        if self.num_shards == 1 {
            return Some(0); // no books kept: wherever it is, it is here
        }
        let &node = self.qid_node.get(&qid)?;
        let root = self.find(node);
        Some(self.shard[root])
    }
}

impl ShardedCoordinator {
    /// Executes migrations decided by the router (caller holds the
    /// router lock). Shard locks are taken in ascending index order —
    /// the global lock order — so concurrent drains cannot deadlock.
    /// Only *moves* entries (cheap: registry + waiter transfers);
    /// matching is deliberately left to [`Self::rematch_moved`], which
    /// runs after the router lock is released so routing never
    /// serializes behind match work or database writes. Returns the
    /// moved queries grouped by destination shard.
    pub(super) fn apply_migrations(
        &self,
        _router: &mut Router,
        migrations: &[Migration],
    ) -> HashMap<usize, Vec<QueryId>> {
        let mut moves: HashMap<usize, Vec<QueryId>> = HashMap::new();
        for m in migrations {
            if m.from == m.to {
                continue;
            }
            let (lo, hi) = (m.from.min(m.to), m.from.max(m.to));
            let mut lo_guard = self.shard_lock(lo);
            let mut hi_guard = self.shard_lock(hi);
            let (src, dst) = if m.from == lo {
                (&mut *lo_guard, &mut *hi_guard)
            } else {
                (&mut *hi_guard, &mut *lo_guard)
            };
            for qid in &m.qids {
                // answered/cancelled entries may linger in the
                // membership until retired; routed-but-undrained ones
                // are healed by their own drain. Skip both.
                if let Some(pending) = src.registry.remove(*qid) {
                    dst.registry.insert(pending);
                    moves.entry(m.to).or_default().push(*qid);
                }
                if let Some(waiter) = src.waiters.remove(qid) {
                    dst.waiters.insert(*qid, waiter);
                }
            }
        }
        moves
    }

    /// Re-matches queries that [`Self::apply_migrations`] moved: the
    /// merge that triggered the migration may have made them matchable
    /// against their new shard's pending set. Runs *without* the router
    /// lock; each shard's moved queries are one [`Engine::sweep`] under
    /// the shard lock only, exactly like a drain, and its log writes
    /// follow the arrival's `ack`. A group that fails to ground or to
    /// apply stays pending, as in any sweep.
    ///
    /// [`Engine::sweep`]: crate::engine::Engine::sweep
    pub(super) fn rematch_moved(
        &self,
        moves: HashMap<usize, Vec<QueryId>>,
        hook: &Option<SharedApplyHook>,
        ack: Ack,
    ) {
        let mut answered = Vec::new();
        for (shard, qids) in moves {
            let mut state = self.shard_lock(shard);
            self.engine.sweep(&mut state, &qids, hook_ref(hook), ack);
            self.engine.flush_audit(&mut state);
            answered.append(&mut state.answered_log);
        }
        self.retire(&answered);
    }

    /// Re-checks where `qids` (just drained as pending on `shard`)
    /// should live according to the router, migrating and re-matching
    /// any that a concurrent component merge re-routed mid-flight; the
    /// re-match's log writes follow `ack`.
    pub(super) fn heal_placement(
        &self,
        shard: usize,
        qids: &[QueryId],
        hook: &Option<SharedApplyHook>,
        ack: Ack,
    ) {
        let moves = {
            let mut router = self.router.lock();
            let mut by_target: HashMap<usize, Vec<QueryId>> = HashMap::new();
            for &qid in qids {
                if let Some(target) = router.shard_of_query(qid) {
                    if target != shard {
                        by_target.entry(target).or_default().push(qid);
                    }
                }
            }
            if by_target.is_empty() {
                return;
            }
            let migrations: Vec<Migration> = by_target
                .into_iter()
                .map(|(to, qids)| Migration {
                    from: shard,
                    to,
                    qids,
                })
                .collect();
            self.apply_migrations(&mut router, &migrations)
        };
        self.rematch_moved(moves, hook, ack);
    }

    /// Retires answered queries from the router's membership sets.
    /// Must be called without holding any shard lock (lock order).
    pub(super) fn retire(&self, answered: &[QueryId]) {
        if answered.is_empty() {
            return;
        }
        let mut router = self.router.lock();
        for &qid in answered {
            router.purge(qid);
        }
    }

    /// The shard `relation` currently routes to (`None` until some
    /// query has touched it; always shard 0 on a one-shard
    /// coordinator). Exposed for tests and diagnostics.
    pub fn shard_of_relation(&self, relation: &str) -> Option<usize> {
        self.router.lock().shard_of_relation(relation)
    }

    /// Verifies the routing invariants at a quiescent point, returning
    /// a description of the first violation: (a) every pending query
    /// lives on the shard its relation component routes to, (b) a
    /// query's whole signature maps to a single component, and (c)
    /// every pending query is tracked in its component's membership
    /// set. Used by the invariant unit tests and the concurrency soak.
    pub fn check_routing_invariants(&self) -> Result<(), String> {
        if self.shards.len() == 1 {
            return Ok(()); // one shard: every placement is the right one
        }
        // collect shard placements first, then consult the router —
        // the lock order forbids taking the router lock while holding
        // a shard lock
        let mut placements: Vec<(usize, QueryId, BTreeSet<String>)> = Vec::new();
        for si in 0..self.shards.len() {
            for p in self.shard_lock(si).registry.iter() {
                placements.push((si, p.id, signature(&p.query)));
            }
        }
        let mut router = self.router.lock();
        for (si, qid, relations) in placements {
            let mut component = None;
            for rel in &relations {
                let Some(&node) = router.rel_node.get(rel) else {
                    return Err(format!("query {qid}: relation {rel} unknown to the router"));
                };
                let root = router.find(node);
                if *component.get_or_insert(root) != root {
                    return Err(format!("query {qid}: signature spans two components"));
                }
                let routed = router.shard[root];
                if routed != si {
                    return Err(format!(
                        "query {qid} lives on shard {si} but {rel} routes to shard {routed}"
                    ));
                }
            }
            if let Some(root) = component {
                if !router.members[root].contains(&qid) {
                    return Err(format!("query {qid} missing from its component membership"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use crate::coordinator::Submission;
    use crate::engine::Ack;
    use crate::future::CoordinationOutcome;
    use crate::lifecycle::SubmitOptions;
    use crate::shard::testing::*;
    use crate::shard::{ShardedConfig, ShardedCoordinator};

    #[test]
    fn distinct_relations_land_on_distinct_shards() {
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        for k in 0..4 {
            let rel = format!("Res{k}");
            co.submit_sql("a", &pair_sql_on(&rel, "A", "Ghost"))
                .unwrap();
        }
        let shards: BTreeSet<usize> = (0..4)
            .map(|k| co.shard_of_relation(&format!("Res{k}")).unwrap())
            .collect();
        assert_eq!(shards.len(), 4, "round-robin spreads fresh components");
        assert_eq!(co.pending_per_shard(), vec![1, 1, 1, 1]);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn bridging_query_merges_components_and_migrates() {
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        co.submit_sql("a", &pair_sql_on("RelA", "A", "GhostA"))
            .unwrap();
        co.submit_sql("b", &pair_sql_on("RelB", "B", "GhostB"))
            .unwrap();
        let sa = co.shard_of_relation("RelA").unwrap();
        let sb = co.shard_of_relation("RelB").unwrap();
        assert_ne!(sa, sb, "fresh components start on different shards");

        // a query spanning both relations forces the components together
        let bridge = "SELECT 'C', fno INTO ANSWER RelA, 'C', fno INTO ANSWER RelB \
                      WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                      AND ('GhostC', fno) IN ANSWER RelA CHOOSE 1";
        co.submit_sql("c", bridge).unwrap();
        assert_eq!(
            co.shard_of_relation("RelA").unwrap(),
            co.shard_of_relation("RelB").unwrap(),
            "merged components co-shard"
        );
        co.check_routing_invariants().unwrap();
        assert_eq!(co.pending_count(), 3);
    }

    #[test]
    fn migration_rematches_newly_coordinable_queries() {
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // two halves of a pair on relations that start out separate:
        // X's constraint lives on RelP, its head on RelQ and vice versa,
        // so neither can match until the components merge... which their
        // own signatures already force. Use disjoint relations instead:
        // a pending pair split across components cannot exist by
        // construction (signatures overlap ⇒ same component), so the
        // rematch path is exercised through a bridge that *completes* a
        // match: X waits on RelA; the bridge has heads on RelA and RelB
        // and waits on X's head relation.
        let x = "SELECT 'X', fno INTO ANSWER RelA \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('Y', fno) IN ANSWER RelB CHOOSE 1";
        let sub_x = co.submit_sql("x", x).unwrap();
        let Submission::Pending(mut future_x) = sub_x else {
            panic!("x waits")
        };
        // RelA and RelB are already one component (X touches both), so
        // add an unrelated pending on RelC to create a second component
        co.submit_sql("noise", &pair_sql_on("RelC", "N", "GhostN"))
            .unwrap();
        // Y bridges: head on RelB (satisfies X) + constraint on RelA
        // (satisfied by X) + also touches RelC, merging all components
        let y = "SELECT 'Y', fno INTO ANSWER RelB, 'Y', fno INTO ANSWER RelC \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('X', fno) IN ANSWER RelA CHOOSE 1";
        let sub_y = co.submit_sql("y", y).unwrap();
        assert!(
            matches!(sub_y, Submission::Answered(_)),
            "merge makes the pair matchable"
        );
        future_x
            .try_take()
            .and_then(CoordinationOutcome::answered)
            .expect("x notified after merge");
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn const_index_stays_consistent_across_submit_retract_rebalance() {
        use crate::ir::{Atom, Term};

        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // submit: X waits on RelA with a constant-name head
        let sub = co
            .submit_sql("x", &pair_sql_on("RelA", "X", "GhostX"))
            .unwrap();
        let xid = sub.id();
        co.submit_sql("m", &pair_sql_on("RelM", "M", "GhostM"))
            .unwrap();
        let shard_a = co.shard_of_relation("RelA").unwrap();
        let shard_m = co.shard_of_relation("RelM").unwrap();
        assert_ne!(shard_a, shard_m);

        // the constant-position index on X's shard finds X's head for a
        // constraint naming X, and nothing for a stranger
        let probe_x = Atom::new("RelA", vec![Term::constant("X"), Term::var("f")]);
        let probe_stranger = Atom::new("RelA", vec![Term::constant("Z"), Term::var("f")]);
        {
            let state = co.shards[shard_a].state.lock();
            assert_eq!(state.registry.candidates_for(&probe_x).len(), 1);
            assert!(state.registry.candidates_for(&probe_stranger).is_empty());
        }

        // rebalance: a bridge spanning RelA and RelM merges the
        // components (union-find merge path) and migrates one side
        let bridge = "SELECT 'B', fno INTO ANSWER RelA, 'B', fno INTO ANSWER RelM \
                      WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                      AND ('GhostB', fno) IN ANSWER RelA CHOOSE 1";
        co.submit_sql("b", bridge).unwrap();
        let merged = co.shard_of_relation("RelA").unwrap();
        assert_eq!(merged, co.shard_of_relation("RelM").unwrap());
        co.check_routing_invariants().unwrap();

        // after the rebalance the index travelled with the entries:
        // the merged shard finds X's head, every other shard finds none
        for (i, shard) in co.shards.iter().enumerate() {
            let state = shard.state.lock();
            let found = state.registry.candidates_for(&probe_x).len();
            if i == merged {
                assert_eq!(
                    found, 1,
                    "migrated head must be indexed on the merged shard"
                );
            } else {
                assert_eq!(found, 0, "no stale index entries on shard {i}");
            }
        }

        // retract: cancelling X must drop it from the index on the
        // merged shard too
        co.cancel(xid).unwrap();
        {
            let state = co.shards[merged].state.lock();
            assert!(state.registry.candidates_for(&probe_x).is_empty());
        }
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn repeated_merges_keep_membership_exact() {
        // chain merges: RelC0..RelC3 born separately, then bridges fold
        // them left to right; membership and routing stay consistent
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        for k in 0..4 {
            co.submit_sql(
                "w",
                &pair_sql_on(&format!("RelC{k}"), &format!("W{k}"), "Ghost"),
            )
            .unwrap();
        }
        for k in 0..3 {
            let bridge = format!(
                "SELECT 'B{k}', fno INTO ANSWER RelC{k}, 'B{k}', fno INTO ANSWER RelC{next} \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('GhostB{k}', fno) IN ANSWER RelC{k} CHOOSE 1",
                next = k + 1
            );
            co.submit_sql("b", &bridge).unwrap();
            co.check_routing_invariants().unwrap();
        }
        let home = co.shard_of_relation("RelC0").unwrap();
        for k in 1..4 {
            assert_eq!(co.shard_of_relation(&format!("RelC{k}")).unwrap(), home);
        }
        // all 7 pending queries live together now
        assert_eq!(co.pending_per_shard()[home], 7);
        assert_eq!(co.pending_count(), 7);
    }

    /// A query with no answer relation coordinates with nobody, but at
    /// more than one shard it is still routed and tracked like any
    /// other: a batch returns its outcome and `cancel` finds it.
    #[test]
    fn query_without_answer_relations_is_routed_and_cancellable() {
        use crate::compile::compile_sql;
        use crate::ir::EntangledQuery;

        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // no heads and no constraints; the one membership selects no
        // row, so the query pends
        let lone = EntangledQuery {
            heads: Vec::new(),
            constraints: Vec::new(),
            ..compile_sql(
                "SELECT 'X', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Nowhere') CHOOSE 1",
            )
            .unwrap()
        };
        assert!(lone.answer_relations().is_empty());

        let mut outcomes = co.submit(
            vec![(
                "batch".to_string(),
                Ok(lone.clone()),
                SubmitOptions::default(),
            )],
            Ack::Wait,
        );
        let Some(Ok(Submission::Pending(batched))) =
            outcomes.pop().map(|r| r.map(Submission::from))
        else {
            panic!("the batch entry pends")
        };
        let mut single = co
            .submit_async_with("single", lone, SubmitOptions::default())
            .unwrap();
        assert!(single.try_take().is_none(), "the single entry pends");
        assert_eq!(co.pending_count(), 2);
        co.check_routing_invariants().unwrap();

        co.cancel(batched.id()).unwrap();
        co.cancel(single.id()).unwrap();
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }

    /// A pipelined arrival that merges components re-matches the moved
    /// queries without waiting for the log, as it does its own
    /// registration: the call returns while the log is held, and the
    /// moved pair's futures resolve once it is released.
    #[test]
    fn pipelined_merge_does_not_wait_for_the_log() {
        use std::sync::mpsc;
        use std::time::Duration;

        let db = flights_db_wal();
        let co = std::sync::Arc::new(ShardedCoordinator::with_config(
            db.clone(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        ));
        // a pair with no flight to share yet, on the smaller component
        let lyon = |me: &str, friend: &str| {
            format!(
                "SELECT '{me}', fno INTO ANSWER RelA \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Lyon') \
                 AND ('{friend}', fno) IN ANSWER RelA CHOOSE 1"
            )
        };
        let mut p = single(
            &co,
            "p",
            &lyon("P", "Q"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        let mut q = single(
            &co,
            "q",
            &lyon("Q", "P"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        for k in 0..3 {
            co.submit_sql("n", &pair_sql_on("RelB", &format!("N{k}"), "Ghost"))
                .unwrap();
        }
        assert_ne!(co.shard_of_relation("RelA"), co.shard_of_relation("RelB"));
        // the flight appears, but nothing re-matches the pair yet
        youtopia_exec::run_sql(&db, "INSERT INTO Flights VALUES (140, 'Lyon')").unwrap();
        assert_eq!(co.pending_count(), 5);

        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let db = db.clone();
            std::thread::spawn(move || {
                db.with_log(|_| {
                    held_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            })
        };
        held_rx.recv().unwrap();
        // the bridge merges RelA into RelB's shard; the moved pair
        // matches there
        let (done_tx, done_rx) = mpsc::channel();
        let bridge = {
            let co = co.clone();
            std::thread::spawn(move || {
                let sql = "SELECT 'B', fno INTO ANSWER RelA, 'B', fno INTO ANSWER RelB \
                           WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                           AND ('GhostB', fno) IN ANSWER RelA CHOOSE 1";
                let outcome = single(&co, "b", sql, SubmitOptions::default(), Ack::Pipelined);
                done_tx.send(outcome.is_ok()).unwrap();
            })
        };
        let returned = done_rx.recv_timeout(Duration::from_secs(2));
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        bridge.join().unwrap();
        assert_eq!(
            returned,
            Ok(true),
            "the pipelined bridge waited for the log"
        );

        for future in [&mut p, &mut q] {
            assert!(matches!(
                future.wait_timeout(Duration::from_secs(5)),
                Some(CoordinationOutcome::Answered(_))
            ));
        }
        assert_eq!(co.pending_count(), 4);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn migrated_future_still_resolves_after_component_merge() {
        use crate::future::CoordinationOutcome;

        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // X waits on RelA/RelB; Y's bridge merges in RelC and completes
        // the pair — X's future must survive the waiter migration
        let x = "SELECT 'X', fno INTO ANSWER RelA \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('Y', fno) IN ANSWER RelB CHOOSE 1";
        let mut fx = single(&co, "x", x, SubmitOptions::default(), Ack::Wait).unwrap();
        co.submit_sql("noise", &pair_sql_on("RelC", "N", "GhostN"))
            .unwrap();
        let y = "SELECT 'Y', fno INTO ANSWER RelB, 'Y', fno INTO ANSWER RelC \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('X', fno) IN ANSWER RelA CHOOSE 1";
        let sub_y = co.submit_sql("y", y).unwrap();
        assert!(matches!(sub_y, Submission::Answered(_)));
        assert!(matches!(
            fx.wait_timeout(std::time::Duration::from_secs(5)),
            Some(CoordinationOutcome::Answered(_))
        ));
        co.check_routing_invariants().unwrap();
    }
}
