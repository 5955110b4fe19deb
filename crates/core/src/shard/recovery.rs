//! Recovery: rebuilding the coordinator — database, router, shards —
//! from the WAL (see `docs/recovery.md`).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use youtopia_storage::{Database, Wal};

use crate::compile::Templates;
use crate::coordinator::RecoveryReport;
use crate::engine::{replay_coordination_frames, Survivor};
use crate::error::{CoreError, CoreResult};
use crate::lifecycle::{Clock, SystemClock};
use crate::registry::Pending;

use super::router::signature;
use super::{ShardedConfig, ShardedCoordinator, SharedApplyHook};

/// Survivors per recompile task on the worker pool: enough that a
/// task's claim and result vector cost nothing beside its compiles,
/// few enough that the claimants finish close together. Each task has
/// a template map of its own, so the chunk also bounds how many fresh
/// compiles a template costs: two per chunk that holds it.
const RECOMPILE_CHUNK: usize = 256;

impl ShardedCoordinator {
    /// Rebuilds a sharded coordinator (database **and** coordination
    /// state) from a WAL:
    ///
    /// 1. storage ops replay into a fresh database (answer relations
    ///    included);
    /// 2. the coordination frames fold into the surviving pending set
    ///    (`registered − (matched ∪ cancelled ∪ expired)`);
    /// 3. the survivors' SQL is re-compiled in chunks on the worker
    ///    pool, each chunk through a [`Templates`] map of its own:
    ///    survivors whose texts differ only in string literals share
    ///    one compiled query, and each is rewritten from it with its own
    ///    values (a compile failure reports the first failing survivor
    ///    in seq order; each keeps a compact rewritten copy, since the
    ///    parser's original holds over-allocated buffers that would
    ///    raise peak RSS). The survivors are then routed in seq order
    ///    through a rebuilt union-find router, and re-registered shard
    ///    by shard on the pool — with the same `seed ^ shard_id` RNG
    ///    discipline as a fresh coordinator, so subsequent `CHOOSE`
    ///    behavior is reproducible;
    /// 4. a matching sweep re-runs arrivals that were logged but whose
    ///    match had not committed before the crash (those matches are
    ///    logged now, like any other). A group whose apply fails stays
    ///    pending, as it would on the live path, so one rejected group
    ///    never stops a restart.
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
        let (db, frames) = Database::recover(wal).map_err(CoreError::Storage)?;
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

        // re-compile outside any lock, in contiguous chunks on the
        // worker pool, each through a template map of its own; a
        // failure means the log (or the compiler) changed underneath
        // us, which recovery must surface — the first in seq order, as
        // a one-by-one rebuild would. Each survivor keeps a compact
        // rewritten copy: the parser's over-allocated original stays in
        // the task's map or is dropped inside the task. Survivors move
        // into their task and their text into their query, so no task
        // frees a text that the replaying thread allocated.
        let mut survivors = replayed.survivors.into_iter();
        let chunks: Vec<Mutex<Vec<Survivor>>> = (0..report.restored_pending)
            .step_by(RECOMPILE_CHUNK)
            .map(|_| Mutex::new(survivors.by_ref().take(RECOMPILE_CHUNK).collect()))
            .collect();
        let compiled = co.fan_out(chunks.len(), |c| {
            let mut templates = Templates::default();
            let chunk = std::mem::take(&mut *chunks[c].lock());
            let pending: Vec<CoreResult<Pending>> = chunk
                .into_iter()
                .map(|s| {
                    Ok(Pending {
                        query: templates.compile(s.sql, s.qid)?,
                        id: s.qid,
                        owner: s.owner,
                        seq: s.seq,
                        deadline: s.deadline,
                    })
                })
                .collect();
            (pending, templates.fresh)
        });
        let mut restored: Vec<Pending> = Vec::with_capacity(report.restored_pending);
        for (pending, fresh) in compiled {
            report.fresh_compiles += fresh;
            for p in pending {
                restored.push(p?);
            }
        }

        // rebuild the router in submission order, then place every
        // survivor on its final shard. Routing first and inserting
        // after means intra-rebuild component merges never migrate
        // anything (the registries are still empty), exactly like the
        // batch path's route-then-bucket discipline. Each shard's
        // bucket then registers under its own lock on the worker pool,
        // in seq order within the shard.
        let mut buckets: Vec<Mutex<Vec<Pending>>> =
            (0..co.shards.len()).map(|_| Mutex::default()).collect();
        {
            let mut router = co.router.lock();
            for p in &restored {
                let _ = router.route(p.id, &signature(&p.query));
            }
            for p in restored {
                let shard = router
                    .shard_of_query(p.id)
                    .expect("survivor was routed in this pass");
                buckets[shard].get_mut().push(p);
            }
        }
        co.fan_out(buckets.len(), |shard| {
            let mut state = co.shard_lock(shard);
            for p in std::mem::take(&mut *buckets[shard].lock()) {
                state.stats.submitted += 1;
                state.registry.insert(p);
            }
        });

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
    use std::sync::Arc;

    use youtopia_storage::Wal;

    use crate::compile::compile_sql;
    use crate::coordinator::{RecoveryReport, Submission};
    use crate::engine::{Ack, CoordEvent};
    use crate::error::CoreResult;
    use crate::future::{CoordinationFuture, CoordinationOutcome};
    use crate::ir::QueryId;
    use crate::lifecycle::{MockClock, SubmitOptions};
    use crate::shard::testing::*;
    use crate::shard::{ShardedConfig, ShardedCoordinator, SharedApplyHook};

    use super::RECOMPILE_CHUNK;

    /// Recovers `bytes` on four shards with `workers` pool threads, at
    /// clock instant 2 000.
    fn recover_on(
        bytes: &[u8],
        workers: usize,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        let config = ShardedConfig {
            shards: 4,
            workers,
            ..ShardedConfig::default()
        };
        ShardedCoordinator::recover_with(
            Wal::from_bytes(bytes.to_vec()),
            config,
            None,
            Arc::new(MockClock::new(2_000)),
        )
    }

    fn registered(qid: u64, sql: String) -> Vec<u8> {
        CoordEvent::QueryRegistered {
            owner: format!("u{qid}"),
            sql,
            qid: QueryId(qid),
            seq: qid,
            deadline: None,
            stamp: None,
        }
        .encode()
    }

    #[test]
    fn parallel_rebuild_matches_the_serial_one() {
        // 1 200 first halves over 8 relations, every fifth with a
        // deadline (every tenth already past due at recovery), plus
        // one matched pair, one cancel, and a logged-but-unmatched pair
        // for the sweep to close
        const N: usize = 1_200;
        let db = flights_db_wal();
        let config = ShardedConfig {
            shards: 4,
            ..ShardedConfig::default()
        };
        let co =
            ShardedCoordinator::with_clock(db.clone(), config, Arc::new(MockClock::new(1_000)));
        let requests = (0..N)
            .map(|i| {
                let deadline = match i % 10 {
                    0 => Some(1_500),
                    5 => Some(1_000_000),
                    _ => None,
                };
                let sql = pair_sql_on(&format!("Res{}", i % 8), &format!("U{i}"), &format!("G{i}"));
                (
                    format!("u{i}"),
                    compile_sql(&sql),
                    SubmitOptions { deadline },
                )
            })
            .collect();
        for outcome in co.submit(requests, Ack::Wait) {
            outcome.expect("every first half registers");
        }
        co.submit_sql("m1", &pair_sql_on("Done", "M1", "M2"))
            .unwrap();
        co.submit_sql("m2", &pair_sql_on("Done", "M2", "M1"))
            .unwrap();
        co.cancel(QueryId(3)).unwrap();
        drop(co);
        db.append_coordination_batch(&[
            registered(5_001, pair_sql_on("Late", "X", "Y")),
            registered(5_002, pair_sql_on("Late", "Y", "X")),
        ])
        .unwrap();
        let bytes = db.wal_bytes().unwrap();
        // the recompile spans more chunks than workers
        const _: () = assert!(N > 4 * RECOMPILE_CHUNK);

        let (serial, serial_report) = recover_on(&bytes, 1).unwrap();
        let (parallel, parallel_report) = recover_on(&bytes, 4).unwrap();
        assert_eq!(serial_report.restored_pending, N + 1);
        assert_eq!(serial_report.rematched_groups, 1);
        assert_eq!(serial_report.expired_at_recovery, N / 10);
        // each of the five chunks compiles the first two texts of its 8
        // `Res` templates (the second stores the template), and the
        // last one both `Late` texts
        assert_eq!(serial_report.fresh_compiles, 5 * 8 * 2 + 2);
        assert_eq!(parallel_report.fresh_compiles, 5 * 8 * 2 + 2);
        assert_eq!(
            serial_report.restored_pending,
            parallel_report.restored_pending
        );
        assert_eq!(
            serial_report.rematched_groups,
            parallel_report.rematched_groups
        );
        assert_eq!(
            serial_report.expired_at_recovery,
            parallel_report.expired_at_recovery
        );
        assert_eq!(serial.pending_snapshot(), parallel.pending_snapshot());
        assert_eq!(serial.pending_per_shard(), parallel.pending_per_shard());
        assert_eq!(serial.stats().submitted, parallel.stats().submitted);
        parallel.check_routing_invariants().unwrap();

        // the next allocation, then partners closing every 7th pair
        let next = |co: &ShardedCoordinator| {
            co.submit_sql("n", &pair_sql_on("Next", "N", "Nobody"))
                .unwrap()
                .id()
        };
        assert_eq!(next(&serial), next(&parallel));
        for i in (1..N).step_by(7).filter(|i| i % 10 != 0) {
            let sql = pair_sql_on(&format!("Res{}", i % 8), &format!("G{i}"), &format!("U{i}"));
            let a = serial.submit_sql(&format!("g{i}"), &sql).unwrap();
            let b = parallel.submit_sql(&format!("g{i}"), &sql).unwrap();
            assert_eq!(a.id(), b.id());
            assert_eq!(
                matches!(a, Submission::Answered(_)),
                matches!(b, Submission::Answered(_)),
                "pair {i} closes the same way"
            );
        }
        for rel in (0..8)
            .map(|k| format!("Res{k}"))
            .chain(["Done".into(), "Late".into()])
        {
            assert_eq!(serial.answers(&rel), parallel.answers(&rel), "{rel}");
        }
        assert_eq!(serial.pending_snapshot(), parallel.pending_snapshot());
    }

    #[test]
    fn parallel_rebuild_reports_the_first_compile_error_in_seq_order() {
        const N: u64 = 3 * RECOMPILE_CHUNK as u64;
        let (early, late) = (10, N - 10);
        let bad = |qid: u64| format!("SELECT 'K', t{qid}.x INTO ANSWER R CHOOSE 1");
        let db = flights_db_wal();
        let frames: Vec<Vec<u8>> = (1..=N)
            .map(|qid| {
                let sql = if qid == early || qid == late {
                    bad(qid)
                } else {
                    pair_sql_on(&format!("Res{}", qid % 3), &format!("U{qid}"), "G")
                };
                registered(qid, sql)
            })
            .collect();
        db.append_coordination_batch(&frames).unwrap();
        let bytes = db.wal_bytes().unwrap();

        let expected = compile_sql(&bad(early)).unwrap_err();
        assert_ne!(expected, compile_sql(&bad(late)).unwrap_err());
        for workers in [1, 4] {
            let err = recover_on(&bytes, workers).err().expect("recovery fails");
            assert_eq!(err, expected, "workers = {workers}");
        }
    }

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
            db.append_coordination_batch(&[CoordEvent::QueryRegistered {
                owner: me.to_lowercase(),
                sql: pair_sql_on("Res", me, friend),
                qid: QueryId(qid),
                seq,
                deadline: None,
                stamp: None,
            }
            .encode()])
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

    /// A group whose apply the hook rejects stays pending on the live
    /// path; the restart's sweep treats it the same way instead of
    /// failing recovery.
    #[test]
    fn a_rejected_group_does_not_stop_a_restart() {
        let no_seats: SharedApplyHook =
            Arc::new(|_txn, _m| Err(youtopia_storage::StorageError::Internal("no seats".into())));
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        co.set_apply_hook(Arc::clone(&no_seats));
        co.submit_sql("kramer", &pair_sql_on("Res", "Kramer", "Jerry"))
            .unwrap();
        let jerry = co
            .submit_sql("jerry", &pair_sql_on("Res", "Jerry", "Kramer"))
            .unwrap();
        assert!(matches!(jerry, Submission::Pending(_)));
        assert_eq!(co.pending_count(), 2, "the rejected pair stays pending");
        let bytes = db.wal_bytes().unwrap();
        drop(co);

        let (co2, report) = ShardedCoordinator::recover_with(
            Wal::from_bytes(bytes),
            ShardedConfig::default(),
            Some(no_seats),
            Arc::new(MockClock::new(0)),
        )
        .unwrap();
        assert_eq!(report.restored_pending, 2);
        assert_eq!(report.rematched_groups, 0);
        assert_eq!(co2.pending_count(), 2);
        co2.set_apply_hook(Arc::new(|_txn, _m| Ok(())));
        assert_eq!(co2.retry_all().unwrap().len(), 2);
        assert_eq!(co2.pending_count(), 0);
        assert_eq!(co2.answers("Res").len(), 2);
        co2.check_routing_invariants().unwrap();
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
