//! Regression test (multi-tenant net PR, satellite 4): two concurrent
//! whole-owner reattaches must never **split ownership** — end up with
//! each caller holding live waiters for a subset of the owner's
//! queries.
//!
//! `ShardedCoordinator::reattach` walks the shards one lock at a
//! time. Unserialized, two concurrent calls could interleave: caller A
//! re-arms shard 0, B overtakes A on shard 0 *and* shard 1, A then
//! re-arms shard 2 — leaving A's handles live on shard 2 and B's on
//! shards 0–1. Both sessions would believe they own the owner's
//! queries, and each would receive a disjoint subset of the answers —
//! exactly the bug a reconnecting network client would hit when its
//! retry races its own timed-out first attempt. The coordinator closes
//! the race with a whole-owner reattach gate: the loser's entire
//! handle set resolves `Superseded`, so after any number of concurrent
//! reattaches every query has exactly **one** live handle and all live
//! handles belong to the same caller.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use youtopia::travel::WorkloadGen;
use youtopia::{ShardedConfig, ShardedCoordinator};

const OWNER: &str = "dup/owner";
const QUERIES: usize = 32;
const RELATIONS: usize = 8;
const SHARDS: usize = 8;
const ROUNDS: usize = 50;

#[test]
fn concurrent_reattaches_cannot_split_ownership() {
    let mut generator = WorkloadGen::new(0xD0D0);
    let db = generator.build_database(60, &["Paris"]).unwrap();
    let co = Arc::new(ShardedCoordinator::with_config(
        db,
        ShardedConfig {
            shards: SHARDS,
            ..Default::default()
        },
    ));

    // one owner, 32 never-matching pending queries spread across 8
    // relation families (= across all 8 shards)
    let mut pending = Vec::new();
    for i in 0..QUERIES {
        let sql = WorkloadGen::pair_request_on(
            &format!("Reservation{}", i % RELATIONS),
            &format!("dupname{i}"),
            &format!("ghost{i}"),
            "Paris",
        )
        .sql;
        pending.push(
            co.submit_sql_async(OWNER, &sql)
                .expect("query registers pending"),
        );
    }
    assert!(pending.iter().all(|f| !f.is_complete()));
    let all_qids: Vec<u64> = pending.iter().map(|f| f.id().0).collect();

    // `previous` holds the handles a still-connected (or zombie)
    // session would hold; each round it is superseded wholesale
    let mut previous = pending;
    for round in 0..ROUNDS {
        let barrier = Arc::new(Barrier::new(2));
        let (a, b) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let co = Arc::clone(&co);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        co.reattach(OWNER)
                    })
                })
                .collect();
            let mut results = handles.into_iter().map(|h| h.join().expect("caller"));
            (results.next().unwrap(), results.next().unwrap())
        });

        // both callers reattached the full owner set
        assert_eq!(a.len(), QUERIES, "round {round}: caller a sees all queries");
        assert_eq!(b.len(), QUERIES, "round {round}: caller b sees all queries");

        // the round's handles: every prior handle must now be dead
        for f in &previous {
            assert!(
                f.is_complete(),
                "round {round}: a pre-reattach handle stayed live"
            );
        }

        // exactly one live handle per query across both callers, and
        // every live handle belongs to the same caller — the race
        // this test pins would leave a mixed split here
        let mut live_callers: HashMap<u64, Vec<usize>> = HashMap::new();
        for (caller, futures) in [(0usize, &a), (1usize, &b)] {
            for f in futures {
                if !f.is_complete() {
                    live_callers.entry(f.id().0).or_default().push(caller);
                }
            }
        }
        for &qid in &all_qids {
            let callers = live_callers
                .get(&qid)
                .unwrap_or_else(|| panic!("round {round}: q{qid} has no live handle"));
            assert_eq!(
                callers.len(),
                1,
                "round {round}: q{qid} has {} live handles",
                callers.len()
            );
        }
        let winners: std::collections::HashSet<usize> =
            live_callers.values().flatten().copied().collect();
        assert_eq!(
            winners.len(),
            1,
            "round {round}: live handles split between both reattach callers"
        );

        // the winner's handles become the next round's zombies
        let winner = *winners.iter().next().unwrap();
        previous = if winner == 0 { a } else { b };
    }

    // the registry itself never wobbled: all queries still pending
    assert_eq!(co.pending_count(), QUERIES);
    co.check_routing_invariants().unwrap();
}
