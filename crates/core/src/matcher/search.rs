//! The incremental matcher, staged as a batch-oriented pipeline.
//!
//! Runs whenever a new entangled query arrives (the paper: "the
//! coordination component runs whenever an entangled query arrives in
//! the system"). **Stage 1** batch-resolves all of the trigger's
//! positive obligations in one pass over the registry's
//! constant-position index; an obligation with no pending candidate and
//! no compatible committed tuple proves the whole attempt unmatchable
//! before any search state is built. **Stage 2** grows a candidate
//! group from the trigger, resolving one unsatisfied positive answer
//! constraint at a time: the index proposes heads, unification prunes
//! them, and each viable provider spawns a search branch. The search
//! mutates one pooled scratch state in place — substitution rollback
//! via [`Subst::mark`]/[`Subst::undo_to`], group/obligation truncation —
//! instead of cloning at every branch. **Stage 3**, once every
//! constraint in the group has a provider, is the shared grounding
//! phase (`ground_group`).
//!
//! Only groups *containing the trigger* are explored — queries that
//! could have matched among themselves earlier already had their chance
//! when they arrived, so arrival-driven exploration loses nothing
//! (tested against the exhaustive baseline).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use std::collections::BTreeSet;

use youtopia_storage::{Catalog, Value};

use crate::error::CoreResult;
use crate::ir::{Atom, QueryId, Term};
use crate::matcher::committed;
use crate::matcher::ground::{ground_group, MembershipCache};
use crate::matcher::pool::{BufferPool, Reusable};
use crate::matcher::{GroupMatch, MatchConfig, MatchStats};
use crate::registry::{CandidateScan, HeadRef, Registry};
use crate::unify::Subst;

/// One unsatisfied positive answer constraint: query + constraint index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Obligation {
    qid: QueryId,
    cidx: usize,
}

/// A provider for one constraint: a live pending head, or a ground
/// tuple already committed to the answer relation.
enum Provider {
    Head(HeadRef),
    Committed(Vec<Value>),
}

/// The mutable search state, shared down the recursion and undone on
/// backtrack instead of cloned per branch.
#[derive(Default)]
struct SearchScratch {
    subst: Subst,
    group: BTreeSet<QueryId>,
    obligations: Vec<Obligation>,
}

impl Reusable for SearchScratch {
    fn wipe(&mut self) {
        self.subst.reset();
        self.group.clear();
        self.obligations.clear();
    }
}

/// Per-search-node buffers: resolved candidate heads and the assembled
/// provider list.
#[derive(Default)]
struct NodeBufs {
    heads: Vec<HeadRef>,
    providers: Vec<Provider>,
}

impl Reusable for NodeBufs {
    fn wipe(&mut self) {
        self.heads.clear();
        self.providers.clear();
    }
}

thread_local! {
    static SCRATCH_POOL: BufferPool<SearchScratch> = const { BufferPool::new() };
    static NODE_POOL: BufferPool<NodeBufs> = const { BufferPool::new() };
}

/// Attempts to find and ground a coordination group containing
/// `trigger`. Returns the first match found (candidate/row order is
/// randomized when `config.randomize` is set, giving the paper's
/// nondeterministic `CHOOSE`).
pub fn match_query(
    registry: &Registry,
    catalog: &Catalog,
    trigger: QueryId,
    config: &MatchConfig,
    rng: &mut StdRng,
    stats: &mut MatchStats,
) -> CoreResult<Option<GroupMatch>> {
    let mut memberships = MembershipCache::default();
    match_query_with(
        registry,
        catalog,
        trigger,
        config,
        rng,
        &mut memberships,
        stats,
    )
}

/// [`match_query`] reading membership rows through a long-lived cache.
pub(crate) fn match_query_with(
    registry: &Registry,
    catalog: &Catalog,
    trigger: QueryId,
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> CoreResult<Option<GroupMatch>> {
    let Some(pending) = registry.get(trigger) else {
        return Ok(None);
    };
    // Stage 1: batched candidate scan — all positive obligations of the
    // trigger resolved in one pass over the index. An obligation with
    // no pending candidate and no compatible committed tuple can never
    // be satisfied (candidates_for is a superset of the unifiable
    // heads), so the attempt dies before any search state is built.
    let atoms: Vec<&Atom> = pending
        .query
        .constraints
        .iter()
        .filter(|c| !c.negated)
        .map(|c| &c.atom)
        .collect();
    if !atoms.is_empty() {
        let mut scan = CandidateScan::default();
        let mut batch: Vec<Vec<HeadRef>> = Vec::with_capacity(atoms.len());
        registry.candidates_for_batch(&atoms, &mut batch, &mut scan);
        stats.absorb_scan(&scan);
        for (atom, cands) in atoms.iter().zip(&batch) {
            let satisfiable =
                !cands.is_empty() || committed::compatible(catalog, atom, stats).next().is_some();
            if !satisfiable {
                stats.triggers_pruned += 1;
                return Ok(None);
            }
        }
    }
    let mut scratch = SCRATCH_POOL.with(|p| p.get(stats));
    scratch.group.insert(trigger);
    push_positive_obligations(registry, trigger, &mut scratch.obligations);
    let result = solve(
        registry,
        catalog,
        &mut scratch,
        config,
        rng,
        memberships,
        stats,
    );
    SCRATCH_POOL.with(|p| p.put(scratch));
    result
}

fn push_positive_obligations(registry: &Registry, qid: QueryId, out: &mut Vec<Obligation>) {
    let Some(pending) = registry.get(qid) else {
        return;
    };
    out.extend(
        pending
            .query
            .constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.negated)
            .map(|(cidx, _)| Obligation { qid, cidx }),
    );
}

/// One search node: pops an obligation, tries its providers. On a dead
/// end the parent's obligation stack is restored before returning.
fn solve(
    registry: &Registry,
    catalog: &Catalog,
    scratch: &mut SearchScratch,
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> CoreResult<Option<GroupMatch>> {
    stats.nodes_expanded += 1;
    let Some(obligation) = scratch.obligations.pop() else {
        // Structurally closed: every constraint has a provider. Ground it.
        let members: Vec<QueryId> = scratch.group.iter().copied().collect();
        return ground_group(
            registry,
            catalog,
            &members,
            &mut scratch.subst,
            config,
            rng,
            memberships,
            stats,
        );
    };
    let mut bufs = NODE_POOL.with(|p| p.get(stats));
    let result = solve_obligation(
        registry,
        catalog,
        scratch,
        obligation,
        &mut bufs,
        config,
        rng,
        memberships,
        stats,
    );
    NODE_POOL.with(|p| p.put(bufs));
    if let Ok(None) = &result {
        scratch.obligations.push(obligation);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn solve_obligation(
    registry: &Registry,
    catalog: &Catalog,
    scratch: &mut SearchScratch,
    obligation: Obligation,
    bufs: &mut NodeBufs,
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> CoreResult<Option<GroupMatch>> {
    let constraint_atom = {
        let pending = registry
            .get(obligation.qid)
            .expect("group members stay registered during matching");
        &pending.query.constraints[obligation.cidx].atom
    };
    // Forward checking: resolve already-bound variables so the
    // constant-position index can prune harder.
    let lookup_atom = scratch.subst.apply_atom(constraint_atom);

    // Assemble providers into the pooled node buffers: index-resolved
    // pending heads, then the committed tuples whose constants agree (a
    // clashing tuple could never unify — skip it before cloning its
    // values).
    let NodeBufs { heads, providers } = bufs;
    let mut scan = CandidateScan::default();
    registry.candidates_for_into(&lookup_atom, heads, &mut scan);
    stats.absorb_scan(&scan);
    providers.clear();
    providers.extend(heads.drain(..).map(Provider::Head));
    for tuple in committed::compatible(catalog, &lookup_atom, stats) {
        providers.push(Provider::Committed(tuple.values().to_vec()));
    }
    if config.randomize {
        providers.shuffle(rng);
    }

    for provider in bufs.providers.iter() {
        let mark = scratch.subst.mark();
        let obligations_len = scratch.obligations.len();
        let mut added_member = None;
        match provider {
            Provider::Head(href) => {
                stats.candidates_considered += 1;
                let Some(head) = registry.head(*href) else {
                    continue;
                };
                // Group-size bound: adding a new member must not exceed it.
                let is_new = !scratch.group.contains(&href.qid);
                if is_new && scratch.group.len() >= config.max_group_size {
                    continue;
                }
                stats.unify_attempts += 1;
                if !scratch.subst.unify_atoms(&lookup_atom, head) {
                    scratch.subst.undo_to(mark);
                    continue;
                }
                stats.unify_successes += 1;
                if is_new {
                    scratch.group.insert(href.qid);
                    added_member = Some(href.qid);
                    push_positive_obligations(registry, href.qid, &mut scratch.obligations);
                }
            }
            Provider::Committed(values) => {
                stats.committed_considered += 1;
                stats.unify_attempts += 1;
                let ok = lookup_atom
                    .terms
                    .iter()
                    .zip(values)
                    .all(|(t, v)| scratch.subst.unify_terms(t, &Term::Const(v.clone())));
                if !ok {
                    scratch.subst.undo_to(mark);
                    continue;
                }
                stats.unify_successes += 1;
                // a committed tuple adds no member and no obligations
            }
        }
        if let Some(m) = solve(registry, catalog, scratch, config, rng, memberships, stats)? {
            return Ok(Some(m));
        }
        // Backtrack: unwind everything this provider did to the scratch.
        scratch.subst.undo_to(mark);
        scratch.obligations.truncate(obligations_len);
        if let Some(qid) = added_member {
            scratch.group.remove(&qid);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_sql;
    use crate::registry::Pending;
    use rand::SeedableRng;
    use youtopia_exec::run_sql;
    use youtopia_storage::{Database, Value};

    fn flights_db() -> Database {
        let db = Database::new();
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL, price FLOAT)",
            "INSERT INTO Flights VALUES (122, 'Paris', 450.0), (123, 'Paris', 500.0), \
             (134, 'Paris', 800.0), (136, 'Rome', 300.0)",
            "CREATE TABLE Hotels (hid INT PRIMARY KEY, city STRING NOT NULL)",
            "INSERT INTO Hotels VALUES (7, 'Paris'), (8, 'Paris'), (9, 'Rome')",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    }

    fn pair_sql(me: &str, friend: &str) -> String {
        format!(
            "SELECT '{me}', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
        )
    }

    fn registry_of(queries: &[(u64, &str)]) -> Registry {
        let mut reg = Registry::new();
        for (id, sql) in queries {
            let q = compile_sql(sql).unwrap().namespaced(QueryId(*id));
            reg.insert(Pending {
                id: QueryId(*id),
                owner: format!("user{id}"),
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

    fn run_match(
        db: &Database,
        reg: &Registry,
        trigger: u64,
        config: &MatchConfig,
    ) -> Option<GroupMatch> {
        let read = db.read();
        let mut rng = StdRng::seed_from_u64(7);
        let mut stats = MatchStats::default();
        match_query(
            reg,
            read.catalog(),
            QueryId(trigger),
            config,
            &mut rng,
            &mut stats,
        )
        .unwrap()
    }

    #[test]
    fn kramer_alone_stays_pending() {
        let db = flights_db();
        let reg = registry_of(&[(1, &pair_sql("Kramer", "Jerry"))]);
        assert!(run_match(&db, &reg, 1, &cfg()).is_none());
    }

    #[test]
    fn kramer_and_jerry_match_fig1() {
        let db = flights_db();
        let reg = registry_of(&[
            (1, &pair_sql("Kramer", "Jerry")),
            (2, &pair_sql("Jerry", "Kramer")),
        ]);
        let m = run_match(&db, &reg, 2, &cfg()).expect("pair should match");
        assert_eq!(m.members, vec![QueryId(1), QueryId(2)]);
        let k = &m.answers[&QueryId(1)][0];
        let j = &m.answers[&QueryId(2)][0];
        assert_eq!(k.0, "Reservation");
        assert_eq!(k.1.values()[0], Value::from("Kramer"));
        assert_eq!(j.1.values()[0], Value::from("Jerry"));
        // the coordinated flight number is shared and is a Paris flight
        assert_eq!(k.1.values()[1], j.1.values()[1]);
        let fno = k.1.values()[1].as_int().unwrap();
        assert!([122, 123, 134].contains(&fno), "fig 1: never Rome's 136");
    }

    #[test]
    fn mismatched_names_do_not_match() {
        let db = flights_db();
        // Kramer waits for Jerry, but only Elaine is around
        let reg = registry_of(&[
            (1, &pair_sql("Kramer", "Jerry")),
            (2, &pair_sql("Elaine", "George")),
        ]);
        assert!(run_match(&db, &reg, 2, &cfg()).is_none());
    }

    #[test]
    fn noise_does_not_confuse_the_pair() {
        let db = flights_db();
        let mut queries: Vec<(u64, String)> = Vec::new();
        // 20 unmatched bystanders
        for i in 0..20u64 {
            queries.push((100 + i, pair_sql(&format!("U{i}"), &format!("V{i}"))));
        }
        queries.push((1, pair_sql("Kramer", "Jerry")));
        queries.push((2, pair_sql("Jerry", "Kramer")));
        let refs: Vec<(u64, &str)> = queries.iter().map(|(id, s)| (*id, s.as_str())).collect();
        let reg = registry_of(&refs);
        let m = run_match(&db, &reg, 2, &cfg()).expect("pair matches despite noise");
        assert_eq!(m.members, vec![QueryId(1), QueryId(2)]);
    }

    #[test]
    fn asymmetric_browse_then_join() {
        let db = flights_db();
        // Jerry books unconditionally (well, self-contained); Kramer's
        // later query requires Jerry's tuple. They still only match as a
        // group if both are pending simultaneously.
        let reg = registry_of(&[
            (
                1,
                "SELECT 'Jerry', fno INTO ANSWER Reservation \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') CHOOSE 1",
            ),
            (2, &pair_sql("Kramer", "Jerry")),
        ]);
        let m = run_match(&db, &reg, 2, &cfg()).expect("kramer joins jerry");
        assert_eq!(m.members, vec![QueryId(1), QueryId(2)]);
        assert_eq!(
            m.answers[&QueryId(1)][0].1.values()[1],
            m.answers[&QueryId(2)][0].1.values()[1]
        );
    }

    #[test]
    fn group_of_four_on_one_flight() {
        let db = flights_db();
        // a ring: each friend requires the next one's reservation
        let names = ["A", "B", "C", "D"];
        let mut queries = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let next = names[(i + 1) % names.len()];
            queries.push((i as u64 + 1, pair_sql(name, next)));
        }
        let refs: Vec<(u64, &str)> = queries.iter().map(|(id, s)| (*id, s.as_str())).collect();
        let reg = registry_of(&refs);
        // first three arrivals: no match
        for t in 1..=3 {
            assert!(run_match(&db, &reg_subset(&refs, t), t, &cfg()).is_none());
        }
        let m = run_match(&db, &reg, 4, &cfg()).expect("ring of four closes");
        assert_eq!(m.members.len(), 4);
        // everyone on the same flight
        let fnos: std::collections::HashSet<i64> = m
            .answers
            .values()
            .map(|a| a[0].1.values()[1].as_int().unwrap())
            .collect();
        assert_eq!(fnos.len(), 1);
    }

    fn reg_subset(all: &[(u64, &str)], upto: u64) -> Registry {
        let subset: Vec<(u64, &str)> = all.iter().filter(|(id, _)| *id <= upto).copied().collect();
        registry_of(&subset)
    }

    #[test]
    fn flight_and_hotel_multi_relation_group() {
        let db = flights_db();
        let jerry = "SELECT 'Jerry', fno INTO ANSWER Res, 'Jerry', hid INTO ANSWER HotelRes \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris') \
             AND ('Kramer', fno) IN ANSWER Res AND ('Kramer', hid) IN ANSWER HotelRes CHOOSE 1";
        let kramer = "SELECT 'Kramer', fno INTO ANSWER Res, 'Kramer', hid INTO ANSWER HotelRes \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris') \
             AND ('Jerry', fno) IN ANSWER Res AND ('Jerry', hid) IN ANSWER HotelRes CHOOSE 1";
        let reg = registry_of(&[(1, jerry), (2, kramer)]);
        let m = run_match(&db, &reg, 2, &cfg()).expect("flight+hotel pair");
        // same flight AND same hotel
        let j = &m.answers[&QueryId(1)];
        let k = &m.answers[&QueryId(2)];
        assert_eq!(j.len(), 2);
        let j_flight = j.iter().find(|(r, _)| r == "Res").unwrap();
        let k_flight = k.iter().find(|(r, _)| r == "Res").unwrap();
        let j_hotel = j.iter().find(|(r, _)| r == "HotelRes").unwrap();
        let k_hotel = k.iter().find(|(r, _)| r == "HotelRes").unwrap();
        assert_eq!(j_flight.1.values()[1], k_flight.1.values()[1]);
        assert_eq!(j_hotel.1.values()[1], k_hotel.1.values()[1]);
        // hotel is a Paris hotel
        let hid = j_hotel.1.values()[1].as_int().unwrap();
        assert!([7, 8].contains(&hid));
    }

    #[test]
    fn adhoc_overlapping_constraints() {
        let db = flights_db();
        // Jerry & Kramer coordinate on flights only; Kramer & Elaine on
        // flights and hotels (the paper's ad-hoc example, §3.1).
        let jerry = pair_sql("Jerry", "Kramer");
        let kramer =
            "SELECT 'Kramer', fno INTO ANSWER Reservation, 'Kramer', hid INTO ANSWER HotelRes \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris') \
             AND ('Jerry', fno) IN ANSWER Reservation \
             AND ('Elaine', hid) IN ANSWER HotelRes CHOOSE 1";
        let elaine =
            "SELECT 'Elaine', fno INTO ANSWER Reservation, 'Elaine', hid INTO ANSWER HotelRes \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris') \
             AND ('Kramer', fno) IN ANSWER Reservation \
             AND ('Kramer', hid) IN ANSWER HotelRes CHOOSE 1";
        let reg = registry_of(&[(1, &jerry), (2, kramer), (3, elaine)]);
        let m = run_match(&db, &reg, 3, &cfg()).expect("three-way ad-hoc group");
        assert_eq!(m.members.len(), 3);
        // Jerry & Kramer share a flight; Kramer & Elaine share a hotel
        let flight = |qid: u64| {
            m.answers[&QueryId(qid)]
                .iter()
                .find(|(r, _)| r == "Reservation")
                .map(|(_, t)| t.values()[1].clone())
        };
        let hotel = |qid: u64| {
            m.answers[&QueryId(qid)]
                .iter()
                .find(|(r, _)| r == "HotelRes")
                .map(|(_, t)| t.values()[1].clone())
        };
        assert_eq!(flight(1), flight(2));
        assert_eq!(hotel(2), hotel(3));
    }

    #[test]
    fn randomized_choice_varies_across_seeds() {
        let db = flights_db();
        let reg = registry_of(&[
            (1, &pair_sql("Kramer", "Jerry")),
            (2, &pair_sql("Jerry", "Kramer")),
        ]);
        let read = db.read();
        let config = MatchConfig::default(); // randomize = true
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = MatchStats::default();
            let m = match_query(
                &reg,
                read.catalog(),
                QueryId(2),
                &config,
                &mut rng,
                &mut stats,
            )
            .unwrap()
            .unwrap();
            seen.insert(m.answers[&QueryId(1)][0].1.values()[1].as_int().unwrap());
        }
        // nondeterministic choice over {122, 123, 134}: with 64 seeds we
        // should see at least two distinct flights
        assert!(seen.len() >= 2, "expected varied choices, saw {seen:?}");
        for fno in &seen {
            assert!([122, 123, 134].contains(fno));
        }
    }

    #[test]
    fn max_group_size_bounds_search() {
        let db = flights_db();
        let names = ["A", "B", "C", "D"];
        let mut queries = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let next = names[(i + 1) % names.len()];
            queries.push((i as u64 + 1, pair_sql(name, next)));
        }
        let refs: Vec<(u64, &str)> = queries.iter().map(|(id, s)| (*id, s.as_str())).collect();
        let reg = registry_of(&refs);
        let small = MatchConfig {
            max_group_size: 3,
            randomize: false,
        };
        assert!(run_match(&db, &reg, 4, &small).is_none());
    }

    #[test]
    fn trigger_must_exist() {
        let db = flights_db();
        let reg = Registry::new();
        assert!(run_match(&db, &reg, 99, &cfg()).is_none());
    }

    #[test]
    fn stats_are_collected() {
        let db = flights_db();
        let reg = registry_of(&[
            (1, &pair_sql("Kramer", "Jerry")),
            (2, &pair_sql("Jerry", "Kramer")),
        ]);
        let read = db.read();
        let mut rng = StdRng::seed_from_u64(7);
        let mut stats = MatchStats::default();
        match_query(
            &reg,
            read.catalog(),
            QueryId(2),
            &cfg(),
            &mut rng,
            &mut stats,
        )
        .unwrap()
        .unwrap();
        assert!(stats.nodes_expanded >= 2);
        assert!(stats.unify_attempts >= 2);
        assert!(stats.groundings_attempted >= 1);
    }
}
