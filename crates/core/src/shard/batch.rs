//! The one arrival path: every submission, a single one included (a
//! batch of one), is admitted, routed in one router pass and drained
//! shard by shard on the worker pool (see "Batch draining" in the
//! [module docs](super)).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::compile::compile_sql;
use crate::coordinator::Submission;
use crate::engine::{Ack, CoordEvent, RegStamp};
use crate::error::{CoreError, CoreResult};
use crate::future::CoordinationFuture;
use crate::ir::{EntangledQuery, QueryId};
use crate::lifecycle::SubmitOptions;
use crate::registry::Pending;
use crate::safety::check_safety;
use crate::tenant::{tenant_of, Admission, TenantRegistry};

use super::router::signature;
use super::{hook_ref, ShardedCoordinator, SharedApplyHook};

/// Per-request outcome of a batch submission.
pub type BatchOutcome = CoreResult<Submission>;

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

/// Reorders a drain bucket round-robin across tenants, tenants ordered
/// by first appearance and each tenant's own entries kept in
/// submission order ([`ShardedConfig::fair_drain`]). A bucket whose
/// owners are all distinct tenants comes back unchanged.
fn fair_interleave(bucket: Bucket) -> Bucket {
    let mut queues: Vec<std::collections::VecDeque<(usize, Pending, Option<Admission>)>> =
        Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let total = bucket.len();
    for entry in bucket {
        let tenant = tenant_of(&entry.1.owner).to_string();
        let qi = *index.entry(tenant).or_insert_with(|| {
            queues.push(std::collections::VecDeque::new());
            queues.len() - 1
        });
        queues[qi].push_back(entry);
    }
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for queue in &mut queues {
            if let Some(entry) = queue.pop_front() {
                out.push(entry);
            }
        }
    }
    out
}

impl ShardedCoordinator {
    /// [`ShardedCoordinator::submit_batch_async_with`] over `(owner,
    /// sql)` requests with default options, answered-or-pending view.
    pub fn submit_batch_sql(&self, requests: &[(String, String)]) -> Vec<BatchOutcome> {
        self.submit_batch_with(compile_batch(requests))
    }

    /// [`ShardedCoordinator::submit_batch_async_with`],
    /// answered-or-pending view.
    pub fn submit_batch_with(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)>,
    ) -> Vec<BatchOutcome> {
        self.submit_batch_async_with(requests)
            .into_iter()
            .map(|r| r.map(Submission::from))
            .collect()
    }

    /// [`ShardedCoordinator::submit_batch_async_with`] over `(owner,
    /// sql)` requests with default options.
    pub fn submit_batch_sql_async(
        &self,
        requests: &[(String, String)],
    ) -> Vec<CoreResult<CoordinationFuture>> {
        self.submit_batch_async_with(compile_batch(requests))
    }

    /// Submits a batch of pre-compiled queries. Entries may carry a
    /// compile error, which is passed through to the outcome slot, and
    /// their own deadline, logged in their registration frame of the
    /// bucket's group commit. Outcomes are returned in input order; a
    /// future is already resolved when its arrival completed a group
    /// within the batch.
    ///
    /// Log-before-ack: every registration of a shard's bucket is
    /// committed to the coordination log — under the shard lock, so a
    /// concurrent checkpoint cannot lose it — before any of its
    /// arrivals is processed, and a match an arrival completes returns
    /// only once durable.
    pub fn submit_batch_async_with(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)>,
    ) -> Vec<CoreResult<CoordinationFuture>> {
        self.arrive(requests, Ack::Wait)
    }

    /// The one arrival path behind every `submit*` entry (a single
    /// submit is a batch of one). Safety-checks and admits outside any
    /// lock, routes the whole batch in one router pass, then drains
    /// each shard's bucket on the worker pool; `ack` decides whether
    /// the bucket's log writes wait for durability.
    pub(super) fn arrive(
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
    /// to [`ShardedConfig::workers`] scoped threads claiming indices
    /// off a shared cursor, or inline when one worker suffices.
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
        let claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                return done;
                            }
                            done.push((i, task(i)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("pool worker panicked"))
                .collect()
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
    /// insert → match → cascade per arrival, in bucket (= submission)
    /// order. Returns the per-request outcomes, the answered-query log,
    /// and the ids that may still be pending afterwards (`Pending`
    /// outcomes, plus `Err` outcomes — an apply failure reinstates the
    /// query), which the caller must placement-heal.
    fn drain_shard(
        &self,
        shard: usize,
        bucket: Bucket,
        hook: &Option<SharedApplyHook>,
        tenants: &Option<Arc<TenantRegistry>>,
        ack: Ack,
    ) -> DrainResult {
        // Fair tenant interleaving reorders the bucket *before* the log
        // events are built, so the durable registration order equals
        // the processing order, exactly as in the unfair drain.
        let bucket = if self.fair_drain {
            fair_interleave(bucket)
        } else {
            bucket
        };
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
            let outcome = self
                .engine
                .process_arrival(&mut state, pending, hook_ref(hook), ack);
            if !matches!(&outcome, Ok(f) if f.answered_on_arrival()) {
                maybe_pending.push(qid);
            }
            results.push((idx, outcome));
        }
        // one audit transaction for every match the bucket produced
        self.engine.flush_audit(&mut state);
        let log = std::mem::take(&mut state.answered_log);
        (results, log, maybe_pending)
    }
}

/// Compiles a batch of `(owner, sql)` requests with default options,
/// keeping each entry's compile error in its slot.
fn compile_batch(
    requests: &[(String, String)],
) -> Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)> {
    requests
        .iter()
        .map(|(owner, sql)| (owner.clone(), compile_sql(sql), SubmitOptions::default()))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::coordinator::Submission;
    use crate::shard::testing::*;
    use crate::shard::ShardedCoordinator;

    #[test]
    fn batch_matches_pairs_and_reports_in_order() {
        let co = ShardedCoordinator::new(flights_db());
        let requests: Vec<(String, String)> = (0..8)
            .map(|k| {
                let rel = format!("Res{}", k % 4);
                let (me, friend) = if k < 4 {
                    (format!("L{k}"), format!("R{k}"))
                } else {
                    (format!("R{}", k - 4), format!("L{}", k - 4))
                };
                (me.clone(), pair_sql_on(&rel, &me, &friend))
            })
            .collect();
        let outcomes = co.submit_batch_sql(&requests);
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
        // 4 pairs over 4 relations: first halves pend, second halves
        // close each group during the same batch drain
        let requests: Vec<(String, String)> = (0..8)
            .map(|k| {
                let rel = format!("Res{}", k % 4);
                let (me, friend) = if k < 4 {
                    (format!("L{k}"), format!("R{k}"))
                } else {
                    (format!("R{}", k - 4), format!("L{}", k - 4))
                };
                (me.clone(), pair_sql_on(&rel, &me, &friend))
            })
            .collect();
        let mut set = WaiterSet::new();
        for outcome in co.submit_batch_sql_async(&requests) {
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
