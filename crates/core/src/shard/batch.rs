//! The one arrival path: every submission, a single one included (a
//! batch of one), is admitted, routed in one router pass and drained
//! shard by shard on the worker pool (see "Batch draining" in the
//! [module docs](super)).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{Ack, CoordEvent, RegStamp};
use crate::error::{CoreError, CoreResult};
use crate::future::CoordinationFuture;
use crate::ir::{EntangledQuery, QueryId};
use crate::lifecycle::SubmitOptions;
use crate::registry::Pending;
use crate::safety::check_safety;
use crate::tenant::{Admission, TenantRegistry};

use super::router::signature;
use super::{hook_ref, ShardedCoordinator, SharedApplyHook};

/// One shard's drain bucket: `(input index, prepared pending query,
/// tenant admission to bind once the registration is logged)`.
type Bucket = Vec<(usize, Pending, Option<Admission>)>;

/// What a drain hands back: per-slot outcomes, the answered log, and
/// the ids that may still be pending (for placement healing).
type DrainResult = (
    Vec<(usize, CoreResult<CoordinationFuture>)>,
    Vec<QueryId>,
    Vec<QueryId>,
);

impl ShardedCoordinator {
    /// Submits a batch of `(owner, query, options)` requests — the one
    /// submit entry (a single submit is a batch of one). Entries may
    /// carry a compile error (pass [`crate::Templates::compile`]'s result),
    /// which lands in the entry's outcome slot, and their own deadline,
    /// logged in their registration frame and enforced by `expire_due`
    /// sweeps. Outcomes are returned in input order.
    ///
    /// Safety-checks and admits outside any lock, routes the whole
    /// batch in one router pass, then drains each shard's bucket on the
    /// worker pool, arrival by arrival; entries routed to different
    /// shards proceed concurrently. Log-before-ack: every registration
    /// of a shard's bucket is enqueued to the coordination log — under
    /// the shard lock, so a concurrent checkpoint cannot lose it —
    /// before any of its arrivals is processed; `ack` decides whether
    /// those writes, and the commit of any match an arrival completes,
    /// wait for durability ([`Ack::Wait`]) or only for the enqueue
    /// ([`Ack::Pipelined`]).
    ///
    /// Each returned handle is a poll-based future, already resolved
    /// when its arrival completed a group within the batch; otherwise
    /// it is completed — under the owning shard's lock — by whichever
    /// path terminates the query: a match commit, a cancellation, an
    /// expiry sweep, or a reattach. Thousands of these can be held in
    /// flight by one [`crate::WaiterSet`] thread.
    pub fn submit(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)>,
        ack: Ack,
    ) -> Vec<CoreResult<CoordinationFuture>> {
        let mut outcomes: Vec<Option<CoreResult<CoordinationFuture>>> =
            Vec::with_capacity(requests.len());
        outcomes.resize_with(requests.len(), || None);

        // Phase 1 (no locks): compile outcomes + safety + tenant
        // admission, then id allocation in input order, so ids match a
        // serial submission of the batch. Admission control runs before
        // the id is allocated, so a quota rejection leaves no trace in
        // the id space, the router or the log; the reservation is
        // released (as `aborted`) if the registration never reaches
        // the log.
        let tenants = self.engine.tenants();
        let mut any_deadline = false;
        let mut accepted: Vec<(usize, Pending, BTreeSet<String>, Option<Admission>)> = Vec::new();
        for (idx, (owner, compiled, opts)) in requests.into_iter().enumerate() {
            let query = match compiled {
                Ok(q) => q,
                Err(e) => {
                    outcomes[idx] = Some(Err(e));
                    continue;
                }
            };
            if let Err(e) = check_safety(&query, self.engine.config.safety) {
                self.rejected_unsafe.fetch_add(1, Ordering::Relaxed);
                outcomes[idx] = Some(Err(e));
                continue;
            }
            let admission = match &tenants {
                Some(reg) => match reg.admit(&owner, opts.deadline) {
                    Ok(admission) => Some(admission),
                    Err(e) => {
                        self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                        outcomes[idx] = Some(Err(e));
                        continue;
                    }
                },
                None => None,
            };
            let relations = signature(&query);
            let qid = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            any_deadline |= opts.deadline.is_some();
            let pending = Pending {
                id: qid,
                owner,
                query: query.namespaced(qid),
                seq,
                deadline: opts.deadline,
            };
            accepted.push((idx, pending, relations, admission));
        }

        // Phase 2 (router lock): union every signature first, then
        // bucket by the *final* component placement — bucketing after
        // all unions means an intra-batch merge can never strand an
        // earlier entry on a stale shard.
        let hook = self.apply_hook.lock().clone();
        let mut buckets: Vec<Bucket> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut all_moves: HashMap<usize, Vec<QueryId>> = HashMap::new();
        {
            let mut router = self.router.lock();
            for (_, pending, relations, _) in &accepted {
                let (_, migrations) = router.route(pending.id, relations);
                for (shard, mut qids) in self.apply_migrations(&mut router, &migrations) {
                    all_moves.entry(shard).or_default().append(&mut qids);
                }
            }
            for (idx, pending, _, admission) in accepted {
                let shard = router
                    .shard_of_query(pending.id)
                    .expect("query was routed in this pass");
                buckets[shard].push((idx, pending, admission));
            }
        }
        self.rematch_moved(all_moves, &hook, ack);

        // Phase 3 (worker pool): drain each busy shard independently,
        // arrival-by-arrival within the bucket.
        let busy: Vec<(usize, Mutex<Bucket>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(shard, bucket)| (shard, Mutex::new(bucket)))
            .collect();
        let drains = self.fan_out(busy.len(), |i| {
            let (shard, bucket) = &busy[i];
            let bucket = std::mem::take(&mut *bucket.lock());
            self.drain_shard(*shard, bucket, &hook, &tenants, ack)
        });
        let mut answered: Vec<QueryId> = Vec::new();
        let mut still_pending: Vec<(usize, Vec<QueryId>)> = Vec::new();
        for ((shard, _), (results, mut log, maybe_pending)) in busy.iter().zip(drains) {
            for (idx, outcome) in results {
                outcomes[idx] = Some(outcome);
            }
            answered.append(&mut log);
            if !maybe_pending.is_empty() {
                still_pending.push((*shard, maybe_pending));
            }
        }
        self.retire(&answered);

        // Phase 4: heal any placement made stale by a concurrent merge.
        for (shard, qids) in still_pending {
            self.heal_placement(shard, &qids, &hook, ack);
        }

        if any_deadline {
            // after every shard lock is released: the sweeper's next
            // hint read sees the published per-shard minimum
            self.sweep_signal.notify();
        }
        self.checkpoint_if_due(0);

        outcomes
            .into_iter()
            .map(|o| o.expect("every batch slot received an outcome"))
            .collect()
    }

    /// Runs `task(i)` for every `i in 0..tasks` on the worker pool: up
    /// to [`ShardedConfig::workers`] claimants take indices off a
    /// shared cursor — the calling thread and `workers - 1` scoped
    /// threads — or the caller alone when one worker suffices.
    /// Results come back indexed by task.
    pub(super) fn fan_out<T: Send>(
        &self,
        tasks: usize,
        task: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let workers = self.workers.min(tasks);
        if workers <= 1 {
            return (0..tasks).map(task).collect();
        }
        let cursor = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    return done;
                }
                done.push((i, task(i)));
            }
        };
        let claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
            let mut claimed = claim();
            for h in handles {
                claimed.extend(h.join().expect("pool worker panicked"));
            }
            claimed
        });
        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        for (i, result) in claimed {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task was claimed"))
            .collect()
    }

    /// Drains one shard's bucket under its lock: commits the bucket's
    /// registrations to the coordination log as one marker-delimited
    /// group (buckets draining on other shards share the writer's
    /// fsync), waiting for it under [`Ack::Wait`] only, then runs
    /// one sweep per arrival, in bucket (= submission) order. Returns
    /// the per-request outcomes, the answered-query log, and the ids of
    /// the arrivals not answered on arrival, which may still be pending
    /// and which the caller must placement-heal.
    fn drain_shard(
        &self,
        shard: usize,
        bucket: Bucket,
        hook: &Option<SharedApplyHook>,
        tenants: &Option<Arc<TenantRegistry>>,
        ack: Ack,
    ) -> DrainResult {
        let mut state = self.shard_lock(shard);
        let stamp = self.engine.audit_now().map(|at| RegStamp {
            at,
            shard: shard as u32,
        });
        let events: Vec<CoordEvent> = bucket
            .iter()
            .map(|(_, p, _)| CoordEvent::QueryRegistered {
                owner: p.owner.clone(),
                sql: p.query.sql.clone(),
                qid: p.id,
                seq: p.seq,
                deadline: p.deadline,
                stamp,
            })
            .collect();
        if let Err(e) = self.engine.log(&events, ack) {
            // none were registered: fail every slot and retire the
            // routed-but-unlogged ids from the router (via the
            // answered log, whose entries the caller purges). The
            // bucket's admissions roll back as they drop here.
            let mut results = Vec::with_capacity(bucket.len());
            let mut unregistered = Vec::with_capacity(bucket.len());
            for (idx, pending, _admission) in bucket {
                unregistered.push(pending.id);
                results.push((idx, Err(CoreError::Storage(e.clone()))));
            }
            return (results, unregistered, Vec::new());
        }
        // audit submit rows for the whole bucket, in one transaction,
        // before any of its arrivals can produce a terminal row
        self.engine.observe_all(&events);
        let mut results = Vec::with_capacity(bucket.len());
        let mut maybe_pending = Vec::new();
        for (idx, pending, admission) in bucket {
            let qid = pending.id;
            // registered: bind the tenant reservation to its id
            if let (Some(reg), Some(admission)) = (tenants, admission) {
                reg.track(admission, qid);
            }
            let future = self
                .engine
                .process_arrival(&mut state, pending, hook_ref(hook), ack);
            if !future.answered_on_arrival() {
                maybe_pending.push(qid);
            }
            results.push((idx, Ok(future)));
        }
        // one audit transaction for every match the bucket produced
        self.engine.flush_audit(&mut state);
        let log = std::mem::take(&mut state.answered_log);
        (results, log, maybe_pending)
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::compile_sql;
    use crate::coordinator::Submission;
    use crate::engine::Ack;
    use crate::error::CoreResult;
    use crate::ir::EntangledQuery;
    use crate::lifecycle::SubmitOptions;
    use crate::shard::testing::*;
    use crate::shard::ShardedCoordinator;

    /// 4 pairs over 4 relations: first halves, then second halves.
    fn four_pairs() -> Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)> {
        (0..8)
            .map(|k| {
                let rel = format!("Res{}", k % 4);
                let (me, friend) = if k < 4 {
                    (format!("L{k}"), format!("R{k}"))
                } else {
                    (format!("R{}", k - 4), format!("L{}", k - 4))
                };
                let sql = pair_sql_on(&rel, &me, &friend);
                (me, compile_sql(&sql), SubmitOptions::default())
            })
            .collect()
    }

    #[test]
    fn fan_out_returns_results_indexed_by_task() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        use crate::shard::ShardedConfig;

        for workers in [1, 2, 4] {
            let config = ShardedConfig {
                workers,
                ..ShardedConfig::default()
            };
            let co = ShardedCoordinator::with_config(flights_db(), config);
            // none, one, fewer than the workers, as many, and more
            for tasks in [0, 1, workers - 1, workers, 3 * workers + 1] {
                let runs = AtomicUsize::new(0);
                let results = co.fan_out(tasks, |i| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                    (i, i * i)
                });
                let expected: Vec<_> = (0..tasks).map(|i| (i, i * i)).collect();
                assert_eq!(results, expected, "workers {workers}, tasks {tasks}");
                assert_eq!(runs.into_inner(), tasks, "each task runs once");
            }
        }
    }

    #[test]
    fn batch_matches_pairs_and_reports_in_order() {
        let co = ShardedCoordinator::new(flights_db());
        let outcomes: Vec<_> = co
            .submit(four_pairs(), Ack::Wait)
            .into_iter()
            .map(|r| r.map(Submission::from))
            .collect();
        assert_eq!(outcomes.len(), 8);
        for outcome in &outcomes[..4] {
            assert!(
                matches!(outcome, Ok(Submission::Pending(_))),
                "first halves wait"
            );
        }
        for outcome in &outcomes[4..] {
            assert!(
                matches!(outcome, Ok(Submission::Answered(_))),
                "second halves close"
            );
        }
        assert_eq!(co.pending_count(), 0);
        assert_eq!(co.stats().groups_matched, 4);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn async_batch_resolves_futures_across_shards() {
        use crate::future::WaiterSet;

        let co = ShardedCoordinator::new(flights_db());
        // first halves pend, second halves close each group during the
        // same batch drain
        let mut set = WaiterSet::new();
        for outcome in co.submit(four_pairs(), Ack::Wait) {
            set.insert(outcome.expect("batch queries are safe"));
        }
        assert_eq!(set.len(), 8);
        let completed = set.drain_timeout(std::time::Duration::from_secs(5));
        assert_eq!(completed.len(), 8, "every future resolves");
        assert!(set.is_empty());
        assert!(completed
            .iter()
            .all(|(_, o)| matches!(o, crate::future::CoordinationOutcome::Answered(_))));
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }
}
