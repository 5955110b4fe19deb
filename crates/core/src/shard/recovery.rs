//! Recovery: rebuilding the coordinator — database, router, shards —
//! from the WAL (see `docs/recovery.md`).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use youtopia_storage::{Database, Wal};

use crate::compile::compile_sql;
use crate::coordinator::RecoveryReport;
use crate::engine::replay_coordination_frames;
use crate::error::{CoreError, CoreResult};
use crate::lifecycle::{Clock, SystemClock};
use crate::registry::Pending;

use super::router::signature;
use super::{ShardedConfig, ShardedCoordinator, SharedApplyHook};

impl ShardedCoordinator {
    /// Rebuilds a sharded coordinator (database **and** coordination
    /// state) from a WAL:
    ///
    /// 1. storage ops replay into a fresh database (answer relations
    ///    included);
    /// 2. the coordination frames fold into the surviving pending set
    ///    (`registered − (matched ∪ cancelled ∪ expired)`);
    /// 3. each survivor's SQL is re-compiled, routed through a rebuilt
    ///    union-find router, and re-registered on its shard — with the
    ///    same `seed ^ shard_id` RNG discipline as a fresh coordinator,
    ///    so subsequent `CHOOSE` behavior is reproducible;
    /// 4. a matching sweep re-runs arrivals that were logged but whose
    ///    match had not committed before the crash (those matches are
    ///    logged now, like any other).
    ///
    /// Waiters do not survive; reconnecting clients obtain fresh
    /// futures through [`ShardedCoordinator::reattach`]. The
    /// rebuilt coordinator keeps logging to the same WAL.
    ///
    /// The apply hook is `None` during the recovery sweep; use
    /// [`ShardedCoordinator::recover_with`] when matches must run
    /// application side effects.
    pub fn recover(
        wal: Wal,
        config: ShardedConfig,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        Self::recover_with(wal, config, None, Arc::new(SystemClock))
    }

    /// The full-control recovery entry point: an apply hook, installed
    /// *before* the post-restore matching sweep runs, plus an injected
    /// [`Clock`]. Deadlines are rebuilt from the log into
    /// each survivor's registry entry, and — after the rematch sweep —
    /// anything already past due *by that clock* is expired
    /// immediately, so no client can reattach to a query that should
    /// be dead. The rebuilt coordinator keeps the clock.
    pub fn recover_with(
        wal: Wal,
        config: ShardedConfig,
        hook: Option<SharedApplyHook>,
        clock: Arc<dyn Clock>,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        let (db, frames) = Database::recover_full(wal).map_err(CoreError::Storage)?;
        let replayed = replay_coordination_frames(&frames)?;
        let co = ShardedCoordinator::with_clock(db, config, clock);
        if let Some(hook) = hook {
            co.set_apply_hook(hook);
        }
        co.next_id.store(replayed.max_qid + 1, Ordering::Relaxed);
        co.seq.store(replayed.max_seq, Ordering::Relaxed);
        // the audit relations are transient (never checkpointed), so
        // they rebuild from the coordination frames — before the retry
        // sweep, whose matches are then observed live like any other
        if let Some(audit) = &co.engine.audit {
            audit.rebuild_from_frames(&frames);
        }
        let mut report = RecoveryReport {
            events_replayed: replayed.events,
            restored_pending: replayed.survivors.len(),
            ..RecoveryReport::default()
        };

        // re-compile outside any lock; a failure means the log (or the
        // compiler) changed underneath us, which recovery must surface
        let mut restored: Vec<Pending> = Vec::with_capacity(replayed.survivors.len());
        for survivor in replayed.survivors {
            let query = compile_sql(&survivor.sql)?;
            restored.push(Pending {
                id: survivor.qid,
                owner: survivor.owner,
                query: query.namespaced(survivor.qid),
                seq: survivor.seq,
                deadline: survivor.deadline,
            });
        }

        // rebuild the router in submission order, then place every
        // survivor on its final shard. Routing first and inserting
        // after means intra-rebuild component merges never migrate
        // anything (the registries are still empty), exactly like the
        // batch path's route-then-bucket discipline.
        {
            let mut router = co.router.lock();
            for p in &restored {
                let _ = router.route(p.id, &signature(&p.query));
            }
            let mut by_shard: HashMap<usize, Vec<Pending>> = HashMap::new();
            for p in restored {
                let shard = router
                    .shard_of_query(p.id)
                    .expect("survivor was routed in this pass");
                by_shard.entry(shard).or_default().push(p);
            }
            for (shard, entries) in by_shard {
                let mut state = co.shard_lock(shard);
                for p in entries {
                    state.stats.submitted += 1;
                    state.registry.insert(p);
                }
            }
        }

        // re-run matching for arrivals that were logged but not yet
        // matched; any match that fires commits and logs normally
        let sweep_started = std::time::Instant::now();
        co.retry_all()?;
        report.sweep_micros = sweep_started.elapsed().as_micros() as u64;
        let swept = co.stats();
        report.rematched_groups = swept.groups_matched;
        report.triggers_pruned = swept.match_work.triggers_pruned;
        // deadlines that lapsed while the coordinator was down expire
        // now (logged like any sweep), matching the uncrashed run's
        // sweep at the same clock instant
        report.expired_at_recovery = co.expire_due(co.clock.now_millis()).len();
        Ok((co, report))
    }
}

#[cfg(test)]
mod tests {
    use youtopia_storage::Wal;

    use crate::coordinator::Submission;
    use crate::engine::{Ack, CoordEvent};
    use crate::future::{CoordinationFuture, CoordinationOutcome};
    use crate::ir::QueryId;
    use crate::lifecycle::SubmitOptions;
    use crate::shard::testing::*;
    use crate::shard::{ShardedConfig, ShardedCoordinator};

    #[test]
    fn recover_restores_shards_router_and_completes_pairs() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        // first halves on 4 distinct relations + one matched pair
        for k in 0..4 {
            co.submit_sql(
                &format!("l{k}"),
                &pair_sql_on(&format!("Res{k}"), &format!("L{k}"), &format!("R{k}")),
            )
            .unwrap();
        }
        co.submit_sql("m1", &pair_sql_on("Done", "M1", "M2"))
            .unwrap();
        co.submit_sql("m2", &pair_sql_on("Done", "M2", "M1"))
            .unwrap();
        let bytes = db.wal_bytes().unwrap();
        drop(co); // kill

        let (co2, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 4, "the matched pair is gone");
        assert_eq!(co2.pending_count(), 4);
        co2.check_routing_invariants().unwrap();
        assert_eq!(co2.answers("Done").len(), 2, "pre-crash answers replayed");

        // reattach before the partners arrive, then close every pair
        let futures: Vec<CoordinationFuture> = (0..4)
            .flat_map(|k| co2.reattach(&format!("l{k}")))
            .collect();
        assert_eq!(futures.len(), 4);
        for k in 0..4 {
            let s = co2
                .submit_sql(
                    &format!("r{k}"),
                    &pair_sql_on(&format!("Res{k}"), &format!("R{k}"), &format!("L{k}")),
                )
                .unwrap();
            assert!(matches!(s, Submission::Answered(_)), "pair {k} closes");
        }
        for mut f in futures {
            f.try_take()
                .and_then(CoordinationOutcome::answered)
                .expect("reattached waiter notified");
        }
        assert_eq!(co2.pending_count(), 0);
        co2.check_routing_invariants().unwrap();
    }

    #[test]
    fn recover_rematches_logged_but_unmatched_arrivals() {
        // a log holding two matchable registrations whose match never
        // committed (crash between the registration group-commit and
        // the match apply): the recovery sweep completes it
        let db = flights_db_wal();
        for (qid, me, friend, seq) in [(1, "X", "Y", 1), (2, "Y", "X", 2)] {
            db.append_coordination(
                &CoordEvent::QueryRegistered {
                    owner: me.to_lowercase(),
                    sql: pair_sql_on("Res", me, friend),
                    qid: QueryId(qid),
                    seq,
                    deadline: None,
                    stamp: None,
                }
                .encode(),
            )
            .unwrap();
        }
        let bytes = db.wal_bytes().unwrap();
        drop(db);

        let (co, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 2);
        assert_eq!(report.rematched_groups, 1);
        assert_eq!(co.pending_count(), 0);
        assert_eq!(co.answers("Res").len(), 2);
        co.check_routing_invariants().unwrap();
        // the recovery-sweep match was itself logged: recovering again
        // finds nothing pending and the same answers
        let bytes = co.db().wal_bytes().unwrap();
        drop(co);
        let (co2, report2) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report2.restored_pending, 0);
        assert_eq!(co2.answers("Res").len(), 2);
    }

    #[test]
    fn expirations_and_cancels_survive_recovery() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        co.submit_sql("a", &pair_sql_on("Res0", "A", "GhostA"))
            .unwrap();
        let b = co
            .submit_sql("b", &pair_sql_on("Res1", "B", "GhostB"))
            .unwrap();
        co.submit_sql("c", &pair_sql_on("Res2", "C", "GhostC"))
            .unwrap();
        co.cancel(b.id()).unwrap();
        let expired = co.expire_before(2); // sweeps only "a" (seq 1)
        assert_eq!(expired.len(), 1);
        let bytes = db.wal_bytes().unwrap();
        drop(co);
        let (co2, _) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        let snap = co2.pending_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].owner, "c");
    }

    #[test]
    fn recover_then_reattach_resumes_futures() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        let f0 = single(
            &co,
            "kramer",
            &pair_sql_on("Res0", "Kramer", "Jerry"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        let f1 = single(
            &co,
            "kramer",
            &pair_sql_on("Res1", "Kramer", "Elaine"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        let bytes = db.wal_bytes().unwrap();
        drop((f0, f1)); // the front-end dies with its futures
        drop(co);

        let (co2, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 2);
        let mut futures = co2.reattach("kramer");
        assert_eq!(futures.len(), 2);
        co2.submit_sql("jerry", &pair_sql_on("Res0", "Jerry", "Kramer"))
            .unwrap();
        co2.submit_sql("elaine", &pair_sql_on("Res1", "Elaine", "Kramer"))
            .unwrap();
        for f in &mut futures {
            let outcome = f
                .wait_timeout(std::time::Duration::from_secs(5))
                .expect("reattached future resolves");
            assert!(outcome.answered().is_some());
        }
        assert_eq!(co2.pending_count(), 0);
    }
}
