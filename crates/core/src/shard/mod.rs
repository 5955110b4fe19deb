//! The coordinator: Youtopia's coordination component (paper,
//! Figure 2), sharded and batch-draining.
//!
//! It owns the pending-query registry, runs the matcher on every
//! arrival, applies matched groups atomically to the database (answer
//! tuples are inserted into real answer-relation tables inside one
//! storage transaction, alongside any application side effects
//! registered through the apply hook), and notifies waiting submitters
//! through their [`CoordinationFuture`]s — the "Facebook message" of
//! the demo. With one shard ([`crate::Coordinator`]) this is the
//! paper's single serial component; more shards partition the same
//! state by answer-relation signature.
//!
//! # Why sharding is sound
//!
//! Entangled queries interact **only** through answer relations: a
//! member of a coordination group satisfies another member's
//! postcondition with one of its heads, so every edge of every possible
//! coordination group connects two queries whose answer-relation
//! signatures ([`EntangledQuery::answer_relations`]) overlap. Queries
//! whose signatures are *not* connected (directly or transitively) can
//! never appear in one group, never provide each other's committed
//! answers, and never trigger each other's cascades — the same
//! independence between non-overlapping components that makes
//! decomposition tractable in probabilistic-database conditioning. The
//! pending registry can therefore be partitioned by connected component
//! of the relation-overlap graph and matched concurrently, with no
//! cross-shard matching pass at all.
//!
//! # Routing rule
//!
//! A union-find over answer-relation names maintains those connected
//! components incrementally. Each arriving query unions all relations
//! in its signature; the resulting root carries a shard assignment
//! (round-robin at component birth). When a query's signature spans
//! components previously assigned *different* shards, the components
//! merge and the smaller side's pending queries are **rebalanced**
//! (migrated) into the surviving shard, then re-matched there — an
//! overlap means those queries can now coordinate, so they must be
//! co-sharded from that point on. Many components can share one shard
//! (assignment is surjective, not bijective); correctness only requires
//! that one component never spans two shards.
//!
//! # Locking protocol
//!
//! Lock order is strictly `router → shard(i) → shard(j>i) → database`:
//!
//! * the **router lock** serializes routing decisions and migrations;
//!   migrations take the two affected shard locks in ascending index
//!   order while the router lock is held, so a migration's view of
//!   "who lives where" is never stale;
//! * each **shard lock** guards that shard's state (registry, RNG,
//!   waiters, counters) while its bucket drains; a thread holding a
//!   shard lock never takes the router lock — answered and cancelled
//!   queries are logged under the shard lock and retired from the
//!   router *after* it is released. Every shard lock is taken through
//!   `shard_lock`, whose guard publishes the shard on release: the
//!   pending count and earliest deadline into two atomics (the
//!   lock-free reads), the counters into the shard's stats record;
//! * each shard's **stats record** is a leaf mutex holding the
//!   counters as of the last release: nothing is taken while it is
//!   held, so [`ShardedCoordinator::stats`] waits for no drain;
//! * the **database lock** (inside [`Database`]) is the leaf: matching
//!   takes the shared read lock, applies take the exclusive write
//!   lock, and no coordinator lock is ever requested while holding it.
//!   Coordination logging never takes this lock — events enqueue to
//!   the WAL's pipelined group-commit writer and wait for their LSN
//!   to become durable (the pipelined entries do not wait at all), so
//!   shards draining concurrently share one fsync per writer batch
//!   instead of serializing on the database.
//!   The WAL length the log gauges read is an atomic the writer sets
//!   after each sync, so no monitoring read waits for an fsync.
//!
//! A query routed by one thread is not yet visible in its shard's
//! registry until that thread drains it; a concurrent migration can
//! therefore decide placement without seeing it. Drains heal this
//! *stale placement* after releasing the shard lock: still-pending
//! queries are re-checked against the router and moved (and
//! re-matched) if a merge re-routed their component mid-flight.
//!
//! # Batch draining
//!
//! Every submission takes one arrival path,
//! [`ShardedCoordinator::submit`] in `batch.rs`; a single submit is a
//! batch of one. It safety-checks and admits the whole batch outside
//! any lock, routes it in one router pass (bucketing after all unions,
//! so intra-batch merges cannot strand an earlier entry), then drains
//! each shard's bucket on a small worker pool: the calling thread
//! takes a share itself beside one scoped thread per further busy
//! shard, capped by
//! [`ShardedConfig::workers`]. Within one shard the bucket is processed
//! arrival-by-arrival — insert, match, cascade — which keeps per-shard
//! semantics *identical* to a one-shard coordinator fed the same
//! requests one at a time, under a fixed seed with randomization
//! disabled (property-tested in `tests/prop_shard_equivalence.rs`).
//! Each shard's RNG is seeded with `seed ^ shard_id` so `CHOOSE` stays
//! reproducible independent of drain interleaving, and each matched
//! group still commits through one atomic storage transaction.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use youtopia_storage::{Database, StorageResult, Transaction, Tuple};

use crate::audit::AuditSink;
use crate::compile::compile_sql;
use crate::coordinator::{
    CoordinatorConfig, MatchGraph, MatchNotification, PendingInfo, Submission, SystemStats,
};
use crate::engine::{match_graph_of, Ack, Engine, Retirement, ShardState};
use crate::error::{CoreError, CoreResult};
use crate::future::{CoordinationFuture, CoordinationOutcome, TicketShared};
use crate::ir::{EntangledQuery, QueryId};
use crate::lifecycle::{Clock, SubmitOptions, SweepSignal, SystemClock};
use crate::matcher::GroupMatch;
use crate::registry::{Pending, Registry};
use crate::tenant::TenantRegistry;

mod batch;
mod checkpoint;
mod recovery;
mod router;

pub use checkpoint::CheckpointPolicy;
use router::Router;

/// Application side effects applied atomically with a match (e.g. the
/// travel site decrements seat counts and inserts reservation rows).
/// Shared by every shard — applies can run concurrently on different
/// shards, hence `Sync`.
pub type SharedApplyHook =
    Arc<dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()> + Send + Sync + 'static>;

/// Construction options for [`ShardedCoordinator`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (independent matching domains). More shards
    /// shrink each sweep scan and raise drain parallelism.
    pub shards: usize,
    /// Worker threads used to drain a batch (`0` = one per available
    /// CPU). Capped by the number of busy shards per batch.
    pub workers: usize,
    /// Automatic checkpoint policy (WAL size and/or age). Disabled by
    /// default.
    pub checkpoint: CheckpointPolicy,
    /// Per-shard coordinator behavior; `base.seed` is xored with the
    /// shard id to seed each shard's RNG.
    pub base: CoordinatorConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            workers: 0,
            checkpoint: CheckpointPolicy::default(),
            base: CoordinatorConfig::default(),
        }
    }
}

// ------------------------------------------------------------------ //
// One shard and its published stats record
// ------------------------------------------------------------------ //

/// One shard: its mutable state behind the shard lock, plus what the
/// last release of that lock published (see [`ShardGuard`]). Monitoring
/// reads ([`ShardedCoordinator::stats`],
/// [`ShardedCoordinator::pending_count`],
/// [`ShardedCoordinator::pending_per_shard`]) read only the published
/// part and never contend with draining;
/// [`ShardedCoordinator::pending_snapshot`] remains the consistent
/// (locking) slow path.
struct ShardSlot {
    state: Mutex<ShardState>,
    /// Pending queries of this shard.
    pending: AtomicUsize,
    /// Earliest deadline of this shard's pending queries, in clock
    /// millis; `u64::MAX` when none carries one. The deadline
    /// sweeper's lock-free wakeup hint: `expire_due` skips a shard
    /// whose hint lies in the future without touching its lock.
    min_deadline: AtomicU64,
    /// A copy of `state.stats`. A leaf lock: nothing is taken while it
    /// is held.
    stats: Mutex<SystemStats>,
}

/// A shard-lock guard that publishes the shard when dropped. Every
/// shard lock is taken through [`ShardedCoordinator::shard_lock`], so
/// every mutation is published by the release that ends it.
struct ShardGuard<'a> {
    state: MutexGuard<'a, ShardState>,
    slot: &'a ShardSlot,
}

impl Deref for ShardGuard<'_> {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        &self.state
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        &mut self.state
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        let registry = &self.state.registry;
        self.slot.pending.store(registry.len(), Ordering::Relaxed);
        self.slot.min_deadline.store(
            registry.min_deadline().unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        *self.slot.stats.lock() = self.state.stats;
    }
}

// ------------------------------------------------------------------ //
// The sharded coordinator
// ------------------------------------------------------------------ //

/// The coordination component: partitions the pending registry into
/// shards keyed by answer-relation signature and drains submissions
/// per shard — see the module docs for the routing rule and locking
/// protocol. One entry, [`ShardedCoordinator::submit`], takes a batch
/// of requests and an [`Ack`]; [`ShardedCoordinator::submit_sql`] is
/// the paper's one-call API over it (a batch of one).
/// Cancellation ([`ShardedCoordinator::cancel`],
/// [`ShardedCoordinator::cancel_pipelined`]), expiry, durable recovery
/// ([`ShardedCoordinator::recover`]) and waiter reattachment
/// ([`ShardedCoordinator::reattach`]) complete the surface.
pub struct ShardedCoordinator {
    engine: Engine,
    shards: Vec<ShardSlot>,
    router: Mutex<Router>,
    next_id: AtomicU64,
    seq: AtomicU64,
    rejected_unsafe: AtomicU64,
    rejected_quota: AtomicU64,
    apply_hook: Mutex<Option<SharedApplyHook>>,
    /// Serializes whole-owner reattaches. Each shard's swap is atomic
    /// under its own lock, but a reattach spans every shard; without
    /// the gate two concurrent reattaches for one owner interleave
    /// across shards and both come back holding live waiters for
    /// disjoint subsets. Held before any shard lock (lock order:
    /// gate → shard(i)).
    reattach_gate: Mutex<()>,
    workers: usize,
    /// The coordinator clock (checkpoint age, recovery expiry); tests
    /// inject a [`crate::MockClock`] via
    /// [`ShardedCoordinator::with_clock`].
    clock: Arc<dyn Clock>,
    /// Notified (outside any shard lock) whenever a deadline-carrying
    /// query registers; the [`crate::DeadlineSweeper`] waits on it.
    pub(crate) sweep_signal: Arc<SweepSignal>,
    /// WAL length right after the last checkpoint (or at
    /// construction), for the bytes-since-checkpoint gauge.
    wal_len_at_checkpoint: AtomicU64,
    /// Clock millis of the last checkpoint (or construction).
    last_checkpoint_at: AtomicU64,
    /// Checkpoints triggered by the policy.
    auto_checkpoints: AtomicU64,
    /// Collapses concurrent auto-checkpoint triggers into one run.
    checkpointing: AtomicBool,
    /// Automatic checkpoint policy ([`ShardedConfig::checkpoint`]).
    checkpoint_policy: CheckpointPolicy,
}

impl ShardedCoordinator {
    /// Creates a sharded coordinator over `db` (timed by the system
    /// clock).
    pub fn with_config(db: Database, config: ShardedConfig) -> ShardedCoordinator {
        Self::with_clock(db, config, Arc::new(SystemClock))
    }

    /// [`ShardedCoordinator::with_config`] with an injected clock —
    /// checkpoint-age accounting and recovery expiry read this clock,
    /// so deadline tests run on a [`crate::MockClock`] with no
    /// wall-clock sleeps.
    pub fn with_clock(
        db: Database,
        config: ShardedConfig,
        clock: Arc<dyn Clock>,
    ) -> ShardedCoordinator {
        let shards = config.shards.max(1);
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let wal_len = db.wal_len().unwrap_or(0);
        let now = clock.now_millis();
        let audit = config
            .base
            .audit
            .enabled
            .then(|| Arc::new(AuditSink::new(db.clone(), config.base.audit, clock.clone())));
        ShardedCoordinator {
            shards: (0..shards)
                .map(|i| ShardSlot {
                    state: Mutex::new(ShardState::new(config.base.seed ^ i as u64)),
                    pending: AtomicUsize::new(0),
                    min_deadline: AtomicU64::new(u64::MAX),
                    stats: Mutex::default(),
                })
                .collect(),
            router: Mutex::new(Router::new(shards)),
            next_id: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            rejected_unsafe: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            apply_hook: Mutex::new(None),
            reattach_gate: Mutex::new(()),
            workers,
            clock,
            sweep_signal: Arc::new(SweepSignal::new()),
            wal_len_at_checkpoint: AtomicU64::new(wal_len),
            last_checkpoint_at: AtomicU64::new(now),
            auto_checkpoints: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            checkpoint_policy: config.checkpoint,
            engine: Engine {
                db,
                config: config.base,
                audit,
                tenants: Mutex::new(None),
            },
        }
    }

    /// A sharded coordinator with the default four shards.
    pub fn new(db: Database) -> ShardedCoordinator {
        ShardedCoordinator::with_config(db, ShardedConfig::default())
    }

    /// The underlying database handle.
    pub fn db(&self) -> &Database {
        &self.engine.db
    }

    /// The per-shard coordinator configuration.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.engine.config
    }

    /// Locks one shard; the returned guard publishes the shard on drop.
    fn shard_lock(&self, shard: usize) -> ShardGuard<'_> {
        let slot = &self.shards[shard];
        ShardGuard {
            state: slot.state.lock(),
            slot,
        }
    }

    /// Registers the application side-effect hook, shared by all
    /// shards and run inside each match's storage transaction.
    pub fn set_apply_hook(&self, hook: SharedApplyHook) {
        *self.apply_hook.lock() = Some(hook);
    }

    /// Installs per-tenant admission control: every later submission is
    /// checked against its tenant's quotas before a query id is
    /// allocated, and every termination updates the tenant's ledger.
    /// Queries already pending (e.g. after
    /// [`ShardedCoordinator::recover`]) are adopted into their tenants'
    /// in-flight counts without quota checks.
    pub fn set_tenant_registry(&self, registry: Arc<TenantRegistry>) {
        for shard in 0..self.shards.len() {
            let state = self.shard_lock(shard);
            for p in state.registry.iter() {
                registry.adopt(&p.owner, p.id, p.deadline);
            }
        }
        *self.engine.tenants.lock() = Some(registry);
    }

    /// Submits one entangled query as SQL text with default options —
    /// the paper's one-call API. A batch of one on
    /// [`ShardedCoordinator::submit`] under [`Ack::Wait`], viewed as
    /// answered-or-pending: [`Submission::Answered`] when the arrival
    /// completed a group, otherwise the pending query's future.
    pub fn submit_sql(&self, owner: &str, sql: &str) -> CoreResult<Submission> {
        let request = (
            owner.to_string(),
            compile_sql(sql),
            SubmitOptions::default(),
        );
        self.submit(vec![request], Ack::Wait)
            .pop()
            .expect("a batch of one has one outcome")
            .map(Submission::from)
    }

    /// Submits one compiled query: a batch of one on
    /// [`ShardedCoordinator::submit`] under [`Ack::Wait`]. Kept only for
    /// the e2e benchmark harness (`crates/bench/src/bin/e2e/trace.rs`);
    /// it goes when that harness calls `submit`.
    pub fn submit_async_with(
        &self,
        owner: &str,
        query: EntangledQuery,
        opts: SubmitOptions,
    ) -> CoreResult<CoordinationFuture> {
        self.submit(vec![(owner.to_string(), Ok(query), opts)], Ack::Wait)
            .pop()
            .expect("a batch of one has one outcome")
    }

    /// Cancels a pending query ("a query whose postcondition is not
    /// satisfied ... waits for an opportunity to retry" — until the
    /// user gives up). The cancellation is logged before the entry
    /// disappears from the registry (log-before-ack). The router lock
    /// is held only to find the query's shard, never across the log
    /// write or the waiter's wake; a query that a concurrent merge
    /// moved meanwhile is looked up again on its new shard.
    pub fn cancel(&self, qid: QueryId) -> CoreResult<()> {
        self.cancel_one(qid, Ack::Wait)
    }

    /// [`ShardedCoordinator::cancel`] without waiting for the log: the
    /// cancel frame is enqueued under the shard lock, and the query is
    /// removed and its future resolved `Cancelled` before the frame is
    /// durable. The caller holds the acknowledgement until
    /// [`Database::durable_lsn`] reaches the [`Database::enqueued_lsn`]
    /// read after the call; the in-process caveat of [`Ack::Pipelined`]
    /// applies.
    pub fn cancel_pipelined(&self, qid: QueryId) -> CoreResult<()> {
        self.cancel_one(qid, Ack::Pipelined)
    }

    fn cancel_one(&self, qid: QueryId, ack: Ack) -> CoreResult<()> {
        let unknown = || CoreError::UnknownQuery(qid.0);
        let mut shard = self.router.lock().shard_of_query(qid).ok_or_else(unknown)?;
        loop {
            let mut state = self.shard_lock(shard);
            if state.registry.get(qid).is_some() {
                self.engine
                    .retire_ids(&mut state, &[qid], Retirement::Cancelled, ack)
                    .map_err(CoreError::Storage)?;
                break;
            }
            drop(state);
            match self.router.lock().shard_of_query(qid) {
                Some(moved) if moved != shard => shard = moved,
                _ => return Err(unknown()),
            }
        }
        self.retire(&[qid]);
        Ok(())
    }

    /// Cancels every pending query belonging to `owner` (the user
    /// logged out / gave up). Returns how many were withdrawn.
    /// Log-before-ack holds per shard: each shard's cancellations
    /// group-commit before that shard's removals happen, and a shard
    /// whose log write fails is skipped entirely — so the returned
    /// count may be partial under log failure, but never includes an
    /// unlogged removal.
    pub fn cancel_owner(&self, owner: &str) -> usize {
        self.sweep(Retirement::Cancelled, 0..self.shards.len(), |registry| {
            ids_where(registry, |p| p.owner == owner)
        })
        .len()
    }

    /// Expires pending queries whose submission sequence number is
    /// older than `min_seq` — the caller-driven sweep (pairs with
    /// [`ShardedCoordinator::current_seq`]). Returns the expired ids;
    /// like [`ShardedCoordinator::cancel_owner`], a shard whose log
    /// write fails is skipped (partial result, never an unlogged
    /// removal).
    pub fn expire_before(&self, min_seq: u64) -> Vec<QueryId> {
        self.sweep(Retirement::Expired, 0..self.shards.len(), |registry| {
            ids_where(registry, |p| p.seq < min_seq)
        })
    }

    /// Expires every pending query whose deadline
    /// ([`SubmitOptions::deadline`]) is at or before `now_millis` —
    /// the clock-driven sweep a [`crate::DeadlineSweeper`] runs in the
    /// background. Per shard: the lock-free deadline hint is consulted
    /// first (a shard whose earliest deadline lies in the future is
    /// skipped without touching its lock), then the registry's
    /// deadline index selects the victims. Returns the expired ids.
    pub fn expire_due(&self, now_millis: u64) -> Vec<QueryId> {
        // the hint may trail an in-flight registration by one publish,
        // but that registration's sweep-signal notify happens after
        // its guard drop, so the sweeper always re-reads a fresh hint
        // before sleeping
        let due = (0..self.shards.len())
            .filter(|&shard| self.shards[shard].min_deadline.load(Ordering::Relaxed) <= now_millis);
        self.sweep(Retirement::Expired, due, |registry| {
            registry.due_before(now_millis)
        })
    }

    /// The earliest deadline across all shards (the sweeper's wakeup
    /// hint). Lock-free: reads the per-shard deadline hints.
    pub fn next_deadline(&self) -> Option<u64> {
        let min = self
            .shards
            .iter()
            .map(|s| s.min_deadline.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX);
        (min != u64::MAX).then_some(min)
    }

    /// Retires the `select`ed pending queries of each of `shards`
    /// through [`Engine::retire_ids`]: per shard, one group commit of
    /// the events, then the removals — the tenant ledger is booked and
    /// parked waiters resolve with the `why` outcome, so futures
    /// terminate instead of hanging. Returns the removed ids.
    fn sweep(
        &self,
        why: Retirement,
        shards: impl Iterator<Item = usize>,
        select: impl Fn(&Registry) -> Vec<QueryId>,
    ) -> Vec<QueryId> {
        let mut victims = Vec::new();
        for shard in shards {
            let mut state = self.shard_lock(shard);
            let ids = select(&state.registry);
            // a failed log write retires nothing on this shard
            victims.extend(
                self.engine
                    .retire_ids(&mut state, &ids, why, Ack::Wait)
                    .unwrap_or_default(),
            );
        }
        self.retire(&victims);
        if !victims.is_empty() {
            self.checkpoint_if_due(0);
        }
        victims
    }

    /// Hands `owner` a live [`CoordinationFuture`] per still-pending
    /// query after a reconnect — including queries restored by
    /// [`ShardedCoordinator::recover`], whose pre-crash waiters died
    /// with the process. The fresh waiter is re-armed under the owning
    /// shard's lock, so a match racing in on another thread either sees
    /// it or has already retired the query. Any previous handle for the
    /// same query resolves [`CoordinationOutcome::Superseded`].
    pub fn reattach(&self, owner: &str) -> Vec<CoordinationFuture> {
        // gate: serialize whole-owner reattaches (first-writer-wins —
        // the loser's entire handle set resolves `Superseded`); without
        // it two concurrent reattaches for one owner interleave across
        // shards and both return live waiters for disjoint subsets
        let _gate = self.reattach_gate.lock();
        let mut futures = Vec::new();
        for shard in 0..self.shards.len() {
            let mut state = self.shard_lock(shard);
            for qid in ids_where(&state.registry, |p| p.owner == owner) {
                let shared = Arc::new(TicketShared::default());
                if let Some(old) = state.waiters.insert(qid, Arc::clone(&shared)) {
                    old.complete(CoordinationOutcome::Superseded);
                }
                futures.push(CoordinationFuture::new(qid, shared));
            }
        }
        futures.sort_by_key(|f| f.id().0);
        futures
    }

    /// Retries matching for every pending query on every shard (useful
    /// after database updates add new flights/hotels, and the
    /// workhorse of the recovery re-match sweep). Shards hold disjoint
    /// pending sets behind separate locks, so the sweep fans out
    /// across the worker pool — one task per shard, each running one
    /// [`Engine::retry_all`] sweep over the shard's pending ids in
    /// ascending order; a trigger the candidate and answer indexes
    /// refute dies in the matcher's stage 1. It cannot fail: a group
    /// that fails to ground (say, a membership names a dropped table)
    /// or to apply (say, the apply hook finds no seats) stays pending,
    /// counted in the stats, and the sweep goes on. Notifications are
    /// reassembled in shard order, as sweeping the shards one by one
    /// would return them.
    pub fn retry_all(&self) -> Vec<MatchNotification> {
        let hook = self.apply_hook.lock().clone();
        let (swept, answered): (Vec<_>, Vec<_>) = self
            .fan_out(self.shards.len(), |shard| {
                let mut state = self.shard_lock(shard);
                let notifications = self.engine.retry_all(&mut state, hook_ref(&hook));
                self.engine.flush_audit(&mut state);
                (notifications, std::mem::take(&mut state.answered_log))
            })
            .into_iter()
            .unzip();
        self.retire(&answered.concat());
        swept.concat()
    }

    /// Total number of pending queries across shards. Lock-free: sums
    /// the per-shard pending counts, so monitoring never contends with
    /// draining (may trail an in-flight drain by one publish).
    pub fn pending_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.pending.load(Ordering::Relaxed))
            .sum()
    }

    /// Pending queries per shard (diagnostics / load inspection).
    /// Lock-free, like [`ShardedCoordinator::pending_count`].
    pub fn pending_per_shard(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.pending.load(Ordering::Relaxed))
            .collect()
    }

    /// Merged statistics across shards (plus global safety rejections
    /// and the log-surface gauges: WAL size, bytes and time since the
    /// last checkpoint, auto-checkpoint count — the first slice of the
    /// log-aware admin surface). Takes each shard's stats record (a
    /// leaf lock) in turn and no shard lock, so it never waits for a
    /// drain or an fsync; counters may trail an in-flight drain by one
    /// publish.
    pub fn stats(&self) -> SystemStats {
        let mut total = SystemStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats.lock());
        }
        total.rejected_unsafe += self.rejected_unsafe.load(Ordering::Relaxed);
        total.rejected_quota += self.rejected_quota.load(Ordering::Relaxed);
        total.wal_bytes = self.engine.db.wal_len().unwrap_or(0);
        total.wal_bytes_since_checkpoint = total
            .wal_bytes
            .saturating_sub(self.wal_len_at_checkpoint.load(Ordering::Relaxed));
        total.checkpoint_age_millis = self
            .clock
            .now_millis()
            .saturating_sub(self.last_checkpoint_at.load(Ordering::Relaxed));
        total.auto_checkpoints = self.auto_checkpoints.load(Ordering::Relaxed);
        total
    }

    /// The current submission sequence number.
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Snapshot of all pending queries, sorted by id.
    pub fn pending_snapshot(&self) -> Vec<PendingInfo> {
        let mut all: Vec<PendingInfo> = (0..self.shards.len())
            .flat_map(|shard| {
                self.shard_lock(shard)
                    .registry
                    .iter()
                    .map(|p| PendingInfo {
                        id: p.id,
                        owner: p.owner.clone(),
                        sql: p.query.sql.clone(),
                        ir: p.query.to_string(),
                        seq: p.seq,
                        deadline: p.deadline,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|p| p.id.0);
        all
    }

    /// The union of the per-shard match graphs. Co-sharding guarantees
    /// no potential-satisfaction edge ever crosses shards, so this is
    /// the complete system match graph.
    pub fn match_graph(&self) -> MatchGraph {
        let mut graph = MatchGraph::default();
        for shard in 0..self.shards.len() {
            let part = match_graph_of(&self.shard_lock(shard).registry);
            graph.edges.extend(part.edges);
            graph.dangling.extend(part.dangling);
        }
        graph
    }

    /// Reads the current content of an answer relation.
    pub fn answers(&self, relation: &str) -> Vec<Tuple> {
        self.engine.answers(relation)
    }

    /// Periodic housekeeping the [`crate::DeadlineSweeper`] runs once
    /// per wakeup, right after the expiry sweep: the
    /// [`CheckpointPolicy`] and nothing else (gauges are published by
    /// every shard-lock release and need no refresh). Evaluated here
    /// too, not only after group commits, so a quiet coordinator still
    /// compacts its WAL on schedule.
    pub(crate) fn sweep_tick(&self, now_millis: u64) {
        self.checkpoint_if_due(
            now_millis.saturating_sub(self.last_checkpoint_at.load(Ordering::Relaxed)),
        );
    }
}

/// The ids of the pending queries matching `keep`.
fn ids_where(registry: &Registry, keep: impl Fn(&Pending) -> bool) -> Vec<QueryId> {
    registry.iter().filter(|p| keep(p)).map(|p| p.id).collect()
}

/// Borrows the shared hook as the engine's `&dyn Fn`.
type HookDyn<'a> = &'a dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()>;

fn hook_ref(hook: &Option<SharedApplyHook>) -> Option<HookDyn<'_>> {
    hook.as_ref()
        .map(|h| h.as_ref() as &dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()>)
}

#[cfg(test)]
impl ShardedCoordinator {
    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Fixtures shared by the crate's unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use youtopia_exec::run_sql;
    use youtopia_storage::{Database, Wal};

    use super::ShardedCoordinator;
    use crate::compile::compile_sql;
    use crate::engine::Ack;
    use crate::error::CoreResult;
    use crate::future::CoordinationFuture;
    use crate::lifecycle::SubmitOptions;

    /// Submits one SQL query through [`ShardedCoordinator::submit`], a
    /// batch of one.
    pub(crate) fn single(
        co: &ShardedCoordinator,
        owner: &str,
        sql: &str,
        opts: SubmitOptions,
        ack: Ack,
    ) -> CoreResult<CoordinationFuture> {
        co.submit(vec![(owner.to_string(), compile_sql(sql), opts)], ack)
            .pop()
            .expect("a batch of one has one outcome")
    }

    pub(crate) fn flights_db() -> Database {
        let db = Database::new();
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), \
             (136, 'Rome')",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    }

    pub(crate) fn pair_sql_on(rel: &str, me: &str, friend: &str) -> String {
        format!(
            "SELECT '{me}', fno INTO ANSWER {rel} \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('{friend}', fno) IN ANSWER {rel} CHOOSE 1"
        )
    }

    pub(crate) fn flights_db_wal() -> Database {
        let db = Database::with_wal(Wal::in_memory());
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), \
             (136, 'Rome')",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use youtopia_exec::run_sql;

    use super::testing::*;
    use super::*;

    #[test]
    fn pair_coordination_end_to_end() {
        let co = ShardedCoordinator::new(flights_db());
        let a = co
            .submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        let Submission::Pending(mut kramer) = a else {
            panic!("kramer must wait")
        };
        assert!(kramer.try_take().is_none(), "in flight: nothing to take");
        let b = co
            .submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert!(matches!(b, Submission::Answered(_)));
        let kn = kramer.try_take().and_then(CoordinationOutcome::answered);
        assert_eq!(kn.expect("kramer notified").group.len(), 2);
        assert_eq!(co.pending_count(), 0);
        assert_eq!(co.stats().groups_matched, 1);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn unsafe_queries_are_rejected_and_counted() {
        let co = ShardedCoordinator::new(flights_db());
        let err = co
            .submit_sql("x", "SELECT 'X', v INTO ANSWER R CHOOSE 1")
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsafe(_)));
        assert_eq!(co.stats().rejected_unsafe, 1);
        assert_eq!(co.pending_count(), 0);
    }

    #[test]
    fn cancel_and_cancel_owner() {
        let co = ShardedCoordinator::new(flights_db());
        let s = co
            .submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("kramer", &pair_sql_on("Res2", "Kramer", "Jerry2"))
            .unwrap();
        co.submit_sql("elaine", &pair_sql_on("Res3", "Elaine", "Ghost"))
            .unwrap();
        co.cancel(s.id()).unwrap();
        assert!(matches!(co.cancel(s.id()), Err(CoreError::UnknownQuery(_))));
        assert_eq!(co.cancel_owner("kramer"), 1);
        assert_eq!(co.cancel_owner("kramer"), 0, "nothing left to withdraw");
        assert_eq!(co.pending_count(), 1);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn retry_all_matches_after_data_arrives() {
        let db = Database::new();
        run_sql(
            &db,
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        )
        .unwrap();
        let co = ShardedCoordinator::new(db.clone());
        // the hook rejects every group answering into `Rejected`
        co.set_apply_hook(Arc::new(|_txn, m| {
            if m.all_answers().any(|(rel, _)| rel == "Rejected") {
                return Err(youtopia_storage::StorageError::Internal("no seats".into()));
            }
            Ok(())
        }));
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        co.submit_sql("elaine", &pair_sql_on("Rejected", "Elaine", "George"))
            .unwrap();
        co.submit_sql("george", &pair_sql_on("Rejected", "George", "Elaine"))
            .unwrap();
        assert!(co.retry_all().is_empty());
        run_sql(&db, "INSERT INTO Flights VALUES (122, 'Paris')").unwrap();
        // the rejected pair stays pending and does not fail the sweep
        let answered = co.retry_all();
        let mut owners: Vec<QueryId> = answered.iter().map(|n| n.id).collect();
        owners.sort_unstable();
        assert_eq!(owners, [QueryId(1), QueryId(2)]);
        let pending: Vec<String> = co.pending_snapshot().into_iter().map(|p| p.owner).collect();
        assert_eq!(pending, ["elaine", "george"]);
        assert!(co.answers("Rejected").is_empty());
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn expire_before_sweeps_old_requests_across_shards() {
        let co = ShardedCoordinator::new(flights_db());
        co.submit_sql("a", &pair_sql_on("Res0", "A", "GhostA"))
            .unwrap();
        co.submit_sql("b", &pair_sql_on("Res1", "B", "GhostB"))
            .unwrap();
        let cutoff = co.current_seq();
        co.submit_sql("c", &pair_sql_on("Res2", "C", "GhostC"))
            .unwrap();
        let expired = co.expire_before(cutoff);
        assert_eq!(expired.len(), 1);
        assert_eq!(co.pending_count(), 2);
        assert_eq!(co.expire_before(u64::MAX).len(), 2);
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn lock_free_monitors_track_state() {
        let co = ShardedCoordinator::new(flights_db());
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        assert_eq!(co.pending_count(), 1);
        assert_eq!(co.pending_per_shard().iter().sum::<usize>(), 1);
        assert_eq!(co.stats().submitted, 1);
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert_eq!(co.pending_count(), 0);
        let stats = co.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.answered, 2);
        assert_eq!(stats.groups_matched, 1);
        assert_eq!(stats.match_attempts, 2);
        assert!(stats.matching_nanos > 0);
    }

    /// Regression (async-submission PR, satellite 1): sharded `cancel`
    /// and `expire_before` must wake parked future waiters with their
    /// terminal outcomes.
    #[test]
    fn sharded_cancel_and_expire_wake_parked_futures() {
        use crate::future::CoordinationOutcome;

        let co = ShardedCoordinator::new(flights_db());
        let mut a = single(
            &co,
            "a",
            &pair_sql_on("Res0", "A", "GhostA"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        let mut b = single(
            &co,
            "b",
            &pair_sql_on("Res1", "B", "GhostB"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        let mut c = single(
            &co,
            "c",
            &pair_sql_on("Res2", "C", "GhostC"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        co.cancel(a.id()).unwrap();
        assert_eq!(
            a.wait_timeout(std::time::Duration::from_secs(5)),
            Some(CoordinationOutcome::Cancelled)
        );
        assert_eq!(co.cancel_owner("b"), 1);
        assert_eq!(b.try_take(), Some(CoordinationOutcome::Cancelled));
        assert_eq!(co.expire_before(u64::MAX).len(), 1);
        assert_eq!(c.try_take(), Some(CoordinationOutcome::Expired));
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn apply_hook_runs_in_the_match_transaction() {
        let db = flights_db();
        run_sql(&db, "CREATE TABLE Log (qid INT)").unwrap();
        let co = ShardedCoordinator::new(db.clone());
        co.set_apply_hook(Arc::new(|txn, m| {
            for &qid in &m.members {
                txn.insert(
                    "Log",
                    Tuple::new(vec![youtopia_storage::Value::Int(qid.0 as i64)]),
                )?;
            }
            Ok(())
        }));
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert_eq!(db.read().table("Log").unwrap().len(), 2);
    }

    /// `cancel` holds no router lock while it wakes the waiter: a wake
    /// hook that has another thread look up a route gets its answer.
    #[test]
    fn cancel_wakes_the_waiter_without_holding_the_router() {
        use std::sync::mpsc;
        use std::time::Duration;

        use crate::future::WaiterSet;

        let co = Arc::new(ShardedCoordinator::new(flights_db()));
        let future = single(
            &co,
            "a",
            &pair_sql_on("Res0", "A", "Ghost"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        let qid = future.id();
        type Lookup = (Option<usize>, std::thread::JoinHandle<()>);
        let routed: Arc<Mutex<Vec<Lookup>>> = Arc::default();
        let mut set = WaiterSet::new();
        set.set_wake_hook({
            let (co, routed) = (Arc::clone(&co), Arc::clone(&routed));
            move || {
                let (tx, rx) = mpsc::channel();
                let co = Arc::clone(&co);
                let lookup = std::thread::spawn(move || {
                    let _ = tx.send(co.shard_of_relation("Res0"));
                });
                let answer = rx.recv_timeout(Duration::from_secs(5)).ok().flatten();
                routed.lock().push((answer, lookup));
            }
        });
        set.insert(future);
        assert!(set.poll_ready().is_empty(), "waker parked, still pending");

        co.cancel(qid).unwrap();

        let mut routed = std::mem::take(&mut *routed.lock());
        assert_eq!(routed.len(), 1, "the waiter woke exactly once");
        let (answer, lookup) = routed.pop().expect("one lookup");
        lookup.join().expect("the lookup thread finished");
        assert!(
            answer.is_some(),
            "the router lookup returned while cancel was waking the waiter"
        );
        assert_eq!(set.poll_ready().len(), 1, "the future resolved");
    }

    /// One stats record per shard: after every mutating path, at one
    /// shard and at four, `stats()` equals the merge of the shards' own
    /// counters field for field, and the pending and deadline hints
    /// equal what the registries hold.
    #[test]
    fn published_stats_equal_the_shard_state_after_every_path() {
        use youtopia_storage::Wal;

        fn assert_published(co: &ShardedCoordinator, after: &str) {
            let mut merged = SystemStats::default();
            let mut pending = Vec::new();
            let mut deadline = None::<u64>;
            for slot in &co.shards {
                let state = slot.state.lock();
                merged.merge(&state.stats);
                pending.push(state.registry.len());
                deadline = deadline
                    .into_iter()
                    .chain(state.registry.min_deadline())
                    .min();
            }
            // the rejection counters and log gauges are coordinator-wide
            let shard_part = SystemStats {
                rejected_unsafe: 0,
                rejected_quota: 0,
                wal_bytes: 0,
                wal_bytes_since_checkpoint: 0,
                checkpoint_age_millis: 0,
                auto_checkpoints: 0,
                ..co.stats()
            };
            assert_eq!(shard_part, merged, "stats after {after}");
            assert_eq!(co.pending_per_shard(), pending, "pending after {after}");
            assert_eq!(co.pending_count(), pending.iter().sum::<usize>());
            assert_eq!(co.next_deadline(), deadline, "deadline after {after}");
        }
        let oslo = |me: &str, friend: &str| {
            format!(
                "SELECT '{me}', fno INTO ANSWER ResOslo \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Oslo') \
                 AND ('{friend}', fno) IN ANSWER ResOslo CHOOSE 1"
            )
        };

        for shards in [1, 4] {
            let config = ShardedConfig {
                shards,
                ..Default::default()
            };
            let db = flights_db_wal();
            let co = ShardedCoordinator::with_config(db.clone(), config);
            assert_published(&co, "construction");

            co.submit_sql("a", &pair_sql_on("Res0", "A", "B")).unwrap();
            co.submit_sql("b", &pair_sql_on("Res0", "B", "A")).unwrap();
            let lone = co
                .submit_sql("c", &pair_sql_on("Res1", "C", "Ghost"))
                .unwrap();
            assert_published(&co, "submit");

            let batch = [
                ("d", "Res2", "D", "E"),
                ("e", "Res2", "E", "D"),
                ("f", "Res3", "F", "Ghost"),
            ]
            .into_iter()
            .map(|(owner, rel, me, friend)| {
                let sql = pair_sql_on(rel, me, friend);
                (
                    owner.to_string(),
                    compile_sql(&sql),
                    SubmitOptions::default(),
                )
            })
            .collect();
            co.submit(batch, Ack::Wait);
            assert_published(&co, "batch");

            co.cancel(lone.id()).unwrap();
            assert_published(&co, "cancel");
            assert_eq!(co.cancel_owner("f"), 1);
            assert_published(&co, "cancel_owner");

            let deadline = SubmitOptions::with_deadline(10);
            single(
                &co,
                "g",
                &pair_sql_on("Res4", "G", "Ghost"),
                deadline,
                Ack::Wait,
            )
            .unwrap();
            assert_published(&co, "a submit with a deadline");
            assert_eq!(co.expire_due(10).len(), 1);
            assert_published(&co, "expire_due");

            co.submit_sql("h", &pair_sql_on("Res5", "H", "Ghost"))
                .unwrap();
            assert_eq!(co.expire_before(co.current_seq() + 1).len(), 1);
            assert_published(&co, "expire_before");

            co.submit_sql("i", &oslo("I", "J")).unwrap();
            co.submit_sql("j", &oslo("J", "I")).unwrap();
            run_sql(&db, "INSERT INTO Flights VALUES (200, 'Oslo')").unwrap();
            assert_eq!(co.retry_all().len(), 2);
            assert_published(&co, "retry_all");

            // two components, then a query whose signature spans both
            co.submit_sql("x", &pair_sql_on("RelA", "X", "GhostX"))
                .unwrap();
            co.submit_sql("y", &pair_sql_on("RelB", "Y", "GhostY"))
                .unwrap();
            let bridge = "SELECT 'Z', fno INTO ANSWER RelA, 'Z', fno INTO ANSWER RelB \
                          WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                          AND ('GhostZ', fno) IN ANSWER RelA CHOOSE 1";
            co.submit_sql("z", bridge).unwrap();
            co.check_routing_invariants().unwrap();
            assert_published(&co, "a merge");

            co.checkpoint().unwrap();
            assert_published(&co, "checkpoint");

            let wal = Wal::from_bytes(db.wal_bytes().unwrap());
            let (recovered, report) = ShardedCoordinator::recover(wal, config).unwrap();
            assert_eq!(report.restored_pending, 3);
            assert_published(&recovered, "recovery");
        }
    }

    /// Both registry indexes, candidate and waiting, stay equal to a
    /// rebuild through the paths that re-insert a query without a new
    /// registration: reinstatement after a failed apply (on arrival and
    /// inside a cascade) and a component merge's migration.
    #[test]
    fn registry_indexes_survive_reinstatement_and_migration() {
        fn check_indexes(co: &ShardedCoordinator) {
            for slot in &co.shards {
                slot.state.lock().registry.check_index_invariants();
            }
        }
        for shards in [1, 4] {
            let config = ShardedConfig {
                shards,
                ..Default::default()
            };
            let co = ShardedCoordinator::with_config(flights_db(), config);
            // fails every apply while set, and always a lone query's
            let failing = Arc::new(AtomicBool::new(true));
            co.set_apply_hook(Arc::new({
                let failing = Arc::clone(&failing);
                move |_, m| {
                    if failing.load(Ordering::Relaxed) || m.size() == 1 {
                        Err(youtopia_storage::StorageError::Internal("no seats".into()))
                    } else {
                        Ok(())
                    }
                }
            }));
            let res = |me: &str, friend: &str| pair_sql_on("Reservation", me, friend);
            co.submit_sql("kramer", &res("Kramer", "Jerry")).unwrap();
            co.submit_sql("elaine", &res("Elaine", "Jerry")).unwrap();
            let mut jerry = single(
                &co,
                "jerry",
                &res("Jerry", "Kramer"),
                SubmitOptions::default(),
                Ack::Wait,
            )
            .unwrap();
            assert!(jerry.try_take().is_none(), "the rejected arrival waits");
            assert_eq!(co.pending_count(), 3, "the pair is reinstated");
            check_indexes(&co);

            failing.store(false, Ordering::Relaxed);
            assert_eq!(co.retry_all().len(), 2, "the pair matches");
            assert!(matches!(
                jerry.try_take(),
                Some(CoordinationOutcome::Answered(_))
            ));
            // the commit cascades to Elaine, whose lone apply fails
            assert_eq!(co.pending_count(), 1, "Elaine is reinstated");
            assert_eq!(co.stats().groups_matched, 1);
            check_indexes(&co);

            // two components, then a query whose signature spans both
            co.submit_sql("x", &pair_sql_on("RelA", "X", "GhostX"))
                .unwrap();
            co.submit_sql("y", &pair_sql_on("RelB", "Y", "GhostY"))
                .unwrap();
            let bridge = "SELECT 'Z', fno INTO ANSWER RelA, 'Z', fno INTO ANSWER RelB \
                          WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                          AND ('GhostZ', fno) IN ANSWER RelA CHOOSE 1";
            co.submit_sql("z", bridge).unwrap();
            co.check_routing_invariants().unwrap();
            check_indexes(&co);
        }
    }
}
