//! The naive baseline matcher (experiment E7): enumerate subsets of the
//! pending set that contain the trigger query, by increasing size, and
//! test each subset for joint satisfiability.
//!
//! This is the "obvious" algorithm a first implementation would use.
//! Its cost grows combinatorially with the number of pending queries,
//! which is exactly the contrast the loaded-system experiment shows
//! against the incremental, index-pruned matcher.

use rand::rngs::StdRng;

use youtopia_storage::Catalog;

use crate::ir::QueryId;
use crate::matcher::ground::{ground_group, MembershipCache};
use crate::matcher::{GroupMatch, MatchConfig, MatchStats};
use crate::registry::Registry;
use crate::unify::Subst;

/// Attempts to match `trigger` by exhaustive subset enumeration.
pub fn match_query_naive(
    registry: &Registry,
    catalog: &Catalog,
    trigger: QueryId,
    config: &MatchConfig,
    rng: &mut StdRng,
    stats: &mut MatchStats,
) -> Option<GroupMatch> {
    let mut memberships = MembershipCache::default();
    match_query_naive_with(
        registry,
        catalog,
        trigger,
        config,
        rng,
        &mut memberships,
        stats,
    )
}

/// [`match_query_naive`] reading membership rows through a long-lived
/// cache.
pub(crate) fn match_query_naive_with(
    registry: &Registry,
    catalog: &Catalog,
    trigger: QueryId,
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> Option<GroupMatch> {
    registry.get(trigger)?;
    let others: Vec<QueryId> = registry
        .iter()
        .map(|p| p.id)
        .filter(|&id| id != trigger)
        .collect();
    let max_extra = config.max_group_size.saturating_sub(1).min(others.len());

    // sizes ascending: the first satisfiable subset is minimal
    for extra in 0..=max_extra {
        let mut combo: Vec<usize> = Vec::with_capacity(extra);
        if let Some(m) = combos(
            registry,
            catalog,
            trigger,
            &others,
            extra,
            0,
            &mut combo,
            config,
            rng,
            memberships,
            stats,
        ) {
            return Some(m);
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn combos(
    registry: &Registry,
    catalog: &Catalog,
    trigger: QueryId,
    others: &[QueryId],
    want: usize,
    from: usize,
    combo: &mut Vec<usize>,
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> Option<GroupMatch> {
    if combo.len() == want {
        let mut group: Vec<QueryId> = combo.iter().map(|&i| others[i]).collect();
        group.push(trigger);
        group.sort();
        stats.subsets_tested += 1;
        return try_subset(registry, catalog, &group, config, rng, memberships, stats);
    }
    for i in from..others.len() {
        combo.push(i);
        if let Some(m) = combos(
            registry,
            catalog,
            trigger,
            others,
            want,
            i + 1,
            combo,
            config,
            rng,
            memberships,
            stats,
        ) {
            return Some(m);
        }
        combo.pop();
    }
    None
}

/// Tests one fixed subset: assign a provider (within the subset) to
/// every member's positive constraint, then ground.
fn try_subset(
    registry: &Registry,
    catalog: &Catalog,
    group: &[QueryId],
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> Option<GroupMatch> {
    // collect all positive obligations of all members
    let mut obligations: Vec<(QueryId, usize)> = Vec::new();
    for &qid in group {
        let pending = registry.get(qid)?;
        for (cidx, c) in pending.query.constraints.iter().enumerate() {
            if !c.negated {
                obligations.push((qid, cidx));
            }
        }
    }
    assign_providers(
        registry,
        catalog,
        group,
        &obligations,
        0,
        &mut Subst::new(),
        config,
        rng,
        memberships,
        stats,
    )
}

#[allow(clippy::too_many_arguments)]
fn assign_providers(
    registry: &Registry,
    catalog: &Catalog,
    group: &[QueryId],
    obligations: &[(QueryId, usize)],
    next: usize,
    subst: &mut Subst,
    config: &MatchConfig,
    rng: &mut StdRng,
    memberships: &mut MembershipCache,
    stats: &mut MatchStats,
) -> Option<GroupMatch> {
    if next == obligations.len() {
        return ground_group(
            registry,
            catalog,
            group,
            subst,
            config,
            rng,
            memberships,
            stats,
        );
    }
    let (qid, cidx) = obligations[next];
    let constraint = {
        let pending = registry.get(qid).expect("member exists");
        pending.query.constraints[cidx].atom.clone()
    };
    // candidate providers: every head of every subset member; each
    // attempt is unwound via the undo journal instead of cloning
    for &provider in group {
        let Some(p) = registry.get(provider) else {
            continue;
        };
        for head in &p.query.heads {
            stats.unify_attempts += 1;
            let mark = subst.mark();
            if !subst.unify_atoms(&constraint, head) {
                subst.undo_to(mark);
                continue;
            }
            stats.unify_successes += 1;
            if let Some(m) = assign_providers(
                registry,
                catalog,
                group,
                obligations,
                next + 1,
                subst,
                config,
                rng,
                memberships,
                stats,
            ) {
                return Some(m);
            }
            subst.undo_to(mark);
        }
    }
    // ... and, matching the incremental matcher's semantics, committed
    // answer tuples already in the relation
    if let Ok(table) = catalog.table(&constraint.relation) {
        for (_, tuple) in table.scan() {
            if tuple.arity() != constraint.arity() {
                continue;
            }
            stats.committed_considered += 1;
            stats.unify_attempts += 1;
            let mark = subst.mark();
            let ok = constraint
                .terms
                .iter()
                .zip(tuple.values())
                .all(|(t, v)| subst.unify_terms(t, &crate::ir::Term::Const(v.clone())));
            if !ok {
                subst.undo_to(mark);
                continue;
            }
            stats.unify_successes += 1;
            if let Some(m) = assign_providers(
                registry,
                catalog,
                group,
                obligations,
                next + 1,
                subst,
                config,
                rng,
                memberships,
                stats,
            ) {
                return Some(m);
            }
            subst.undo_to(mark);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_sql;
    use crate::matcher::search::match_query;
    use crate::registry::Pending;
    use rand::SeedableRng;
    use youtopia_exec::run_sql;
    use youtopia_storage::Database;

    fn flights_db() -> Database {
        let db = Database::new();
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome')",
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

    fn registry_of(queries: &[(u64, String)]) -> Registry {
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

    #[test]
    fn naive_matches_the_pair() {
        let db = flights_db();
        let reg = registry_of(&[
            (1, pair_sql("Kramer", "Jerry")),
            (2, pair_sql("Jerry", "Kramer")),
        ]);
        let read = db.read();
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = MatchStats::default();
        let m = match_query_naive(
            &reg,
            read.catalog(),
            QueryId(2),
            &cfg(),
            &mut rng,
            &mut stats,
        )
        .expect("pair matches");
        assert_eq!(m.members, vec![QueryId(1), QueryId(2)]);
        assert!(stats.subsets_tested >= 1);
    }

    #[test]
    fn naive_returns_minimal_groups() {
        let db = flights_db();
        // a matching pair plus a self-contained query: the pair must not
        // drag the singleton in
        let reg = registry_of(&[
            (1, pair_sql("Kramer", "Jerry")),
            (2, pair_sql("Jerry", "Kramer")),
            (
                3,
                "SELECT 'Solo', fno INTO ANSWER Reservation \
                 WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1"
                    .to_string(),
            ),
        ]);
        let read = db.read();
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = MatchStats::default();
        let m = match_query_naive(
            &reg,
            read.catalog(),
            QueryId(2),
            &cfg(),
            &mut rng,
            &mut stats,
        )
        .unwrap();
        assert_eq!(m.members, vec![QueryId(1), QueryId(2)]);
        // and the singleton alone matches as a singleton
        let m3 = match_query_naive(
            &reg,
            read.catalog(),
            QueryId(3),
            &cfg(),
            &mut rng,
            &mut stats,
        )
        .unwrap();
        assert_eq!(m3.members, vec![QueryId(3)]);
    }

    #[test]
    fn naive_agrees_with_incremental_on_matchability() {
        let db = flights_db();
        let scenarios: Vec<Vec<(u64, String)>> = vec![
            // matching pair
            vec![(1, pair_sql("A", "B")), (2, pair_sql("B", "A"))],
            // non-matching
            vec![(1, pair_sql("A", "B")), (2, pair_sql("C", "D"))],
            // ring of three
            vec![
                (1, pair_sql("A", "B")),
                (2, pair_sql("B", "C")),
                (3, pair_sql("C", "A")),
            ],
            // half-open: A needs B, B needs nobody
            vec![
                (1, pair_sql("A", "B")),
                (
                    2,
                    "SELECT 'B', fno INTO ANSWER Reservation \
                     WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') CHOOSE 1"
                        .to_string(),
                ),
            ],
        ];
        for queries in scenarios {
            let reg = registry_of(&queries);
            let trigger = QueryId(queries.last().unwrap().0);
            let read = db.read();
            let mut rng1 = StdRng::seed_from_u64(1);
            let mut rng2 = StdRng::seed_from_u64(1);
            let mut s1 = MatchStats::default();
            let mut s2 = MatchStats::default();
            let naive =
                match_query_naive(&reg, read.catalog(), trigger, &cfg(), &mut rng1, &mut s1);
            let incr = match_query(&reg, read.catalog(), trigger, &cfg(), &mut rng2, &mut s2);
            assert_eq!(
                naive.is_some(),
                incr.is_some(),
                "matchers disagree on {queries:?}"
            );
            if let (Some(n), Some(i)) = (naive, incr) {
                assert_eq!(n.members, i.members, "different groups for {queries:?}");
            }
        }
    }

    #[test]
    fn naive_respects_group_size_bound() {
        let db = flights_db();
        let names = ["A", "B", "C", "D"];
        let queries: Vec<(u64, String)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u64 + 1, pair_sql(n, names[(i + 1) % 4])))
            .collect();
        let reg = registry_of(&queries);
        let read = db.read();
        let small = MatchConfig {
            max_group_size: 3,
            randomize: false,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = MatchStats::default();
        assert!(match_query_naive(
            &reg,
            read.catalog(),
            QueryId(4),
            &small,
            &mut rng,
            &mut stats
        )
        .is_none());
    }

    #[test]
    fn naive_subset_count_grows() {
        // demonstrates the combinatorial cost that E7 measures
        let db = flights_db();
        let mut queries: Vec<(u64, String)> = (0..8u64)
            .map(|i| (i + 10, pair_sql(&format!("X{i}"), &format!("Y{i}"))))
            .collect();
        queries.push((1, pair_sql("K", "J")));
        let reg = registry_of(&queries);
        let read = db.read();
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = MatchStats::default();
        let config = MatchConfig {
            max_group_size: 3,
            randomize: false,
        };
        match_query_naive(
            &reg,
            read.catalog(),
            QueryId(1),
            &config,
            &mut rng,
            &mut stats,
        );
        // C(8,0) + C(8,1) + C(8,2) = 1 + 8 + 28
        assert_eq!(stats.subsets_tested, 37);
    }
}
