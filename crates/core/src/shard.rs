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
//!   shard lock never takes the router lock — answered queries are
//!   logged under the shard lock and retired from the router *after*
//!   it is released;
//! * the **database lock** (inside [`Database`]) is the leaf: matching
//!   takes the shared read lock, applies take the exclusive write
//!   lock, and no coordinator lock is ever requested while holding it.
//!   Coordination logging no longer takes this lock at all — events
//!   enqueue to the WAL's pipelined group-commit writer and block on
//!   their completion slot, so shards draining concurrently share one
//!   fsync per writer quantum instead of serializing on the database.
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
//! [`ShardedCoordinator::submit_batch_sql`] compiles and safety-checks
//! the whole batch outside any lock, routes it in one router pass
//! (bucketing after all unions, so intra-batch merges cannot strand an
//! earlier entry), then drains each shard's bucket on a small worker
//! pool — one scoped thread per busy shard, capped by
//! [`ShardedConfig::workers`]. Within one shard the bucket is processed
//! arrival-by-arrival — insert, match, cascade — which keeps per-shard
//! semantics *identical* to a one-shard coordinator fed the same
//! requests one at a time, under a fixed seed with randomization
//! disabled (property-tested in `tests/prop_shard_equivalence.rs`).
//! Each shard's RNG is seeded with `seed ^ shard_id` so `CHOOSE` stays
//! reproducible independent of drain interleaving, and each matched
//! group still commits through one atomic storage transaction.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use youtopia_storage::{Database, StorageResult, Transaction, Tuple, Wal};

use crate::audit::AuditSink;
use crate::compile::compile_sql;
use crate::coordinator::{
    CoordinatorConfig, MatchGraph, MatchNotification, PendingInfo, RecoveryReport, Submission,
    SystemStats,
};
use crate::engine::{
    match_graph_of, replay_coordination_frames, CoordEvent, CoordinationLog, Engine, RegStamp,
    Retirement, ShardState,
};
use crate::error::{CoreError, CoreResult};
use crate::future::{CoordinationFuture, CoordinationOutcome, TicketShared};
use crate::ir::{EntangledQuery, QueryId};
use crate::lifecycle::{Clock, DeadlineHost, SubmitOptions, SweepSignal, SystemClock};
use crate::matcher::{GroupMatch, MatchStats};
use crate::registry::{Pending, Registry};
use crate::safety::check_safety;
use crate::tenant::{tenant_of, Admission, TenantRegistry};

/// Application side effects applied atomically with a match (e.g. the
/// travel site decrements seat counts and inserts reservation rows).
/// Shared by every shard — applies can run concurrently on different
/// shards, hence `Sync`.
pub type SharedApplyHook =
    Arc<dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()> + Send + Sync + 'static>;

/// When the coordinator should checkpoint itself
/// ([`ShardedCoordinator::checkpoint`]). The size criterion is
/// evaluated in-line after every group commit and on every
/// [`crate::DeadlineSweeper`] tick; the age criterion on the tick only
/// (so a quiet system still checkpoints on schedule, and the submit
/// path never reads the clock for it). A field set to `0` disables
/// that criterion; the default policy is fully disabled, and
/// non-durable databases ignore it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint when at least this many bytes were appended to the
    /// WAL since the last checkpoint (`0` = never by size).
    pub max_wal_bytes: u64,
    /// Checkpoint when the last one is at least this many clock
    /// milliseconds old (`0` = never by age).
    pub max_age_millis: u64,
}

impl CheckpointPolicy {
    /// Whether the gauges warrant a checkpoint under this policy.
    pub fn due(&self, wal_bytes_since_checkpoint: u64, checkpoint_age_millis: u64) -> bool {
        (self.max_wal_bytes > 0 && wal_bytes_since_checkpoint >= self.max_wal_bytes)
            || (self.max_age_millis > 0 && checkpoint_age_millis >= self.max_age_millis)
    }
}

/// Construction options for [`ShardedCoordinator`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (independent matching domains). More shards
    /// shrink each cascade/sweep scan and raise drain parallelism.
    pub shards: usize,
    /// Worker threads used to drain a batch (`0` = one per available
    /// CPU). Capped by the number of busy shards per batch.
    pub workers: usize,
    /// Fair tenant interleaving: when set, each batch drain reorders
    /// its bucket round-robin across tenants ([`tenant_of`] on the
    /// owner) in first-appearance order, so one tenant's storm cannot
    /// monopolize a drain quantum. Off by default — with it off the
    /// drain order (and thus the match outcome under a fixed seed) is
    /// exactly the submission order, which the shard-equivalence
    /// properties pin. Workloads where every owner is its own tenant
    /// are order-identical either way.
    pub fair_drain: bool,
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
            fair_drain: false,
            checkpoint: CheckpointPolicy::default(),
            base: CoordinatorConfig::default(),
        }
    }
}

/// Per-request outcome of a batch submission.
pub type BatchOutcome = CoreResult<Submission>;

/// One shard's drain bucket: `(input index, prepared pending query,
/// tenant admission to bind once the registration is durable)`.
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

// ------------------------------------------------------------------ //
// Router: union-find over answer-relation signatures
// ------------------------------------------------------------------ //

/// A pending-query migration decided while merging two relation
/// components.
#[derive(Debug)]
struct Migration {
    from: usize,
    to: usize,
    qids: Vec<QueryId>,
}

/// Union-find over relation names with per-component shard assignment
/// and live-membership tracking (the membership sets are what a merge
/// migrates).
struct Router {
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
    fn new(num_shards: usize) -> Router {
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

    /// Routes a query over its (lowercased) answer-relation signature:
    /// unions the signature into one component, decides the surviving
    /// shard, and reports which already-routed queries must migrate
    /// because their component just changed shards.
    fn route(&mut self, qid: QueryId, relations: &BTreeSet<String>) -> (usize, Vec<Migration>) {
        let Some(first) = relations.iter().next() else {
            // no answer relations at all: the query coordinates with
            // nobody; spread it round-robin
            let s = self.next_rr;
            self.next_rr = (self.next_rr + 1) % self.num_shards;
            return (s, Vec::new());
        };
        let nodes: Vec<usize> = relations.iter().map(|r| self.node_for(r)).collect();
        let mut roots: Vec<usize> = nodes.iter().map(|&n| self.find(n)).collect();
        roots.sort_unstable();
        roots.dedup();
        self.qid_node.insert(qid, self.rel_node[first]);
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
    fn purge(&mut self, qid: QueryId) {
        if let Some(node) = self.qid_node.remove(&qid) {
            let root = self.find(node);
            self.members[root].remove(&qid);
        }
    }

    /// The shard a known relation currently routes to.
    fn shard_of_relation(&mut self, relation: &str) -> Option<usize> {
        let &node = self.rel_node.get(&relation.to_ascii_lowercase())?;
        let root = self.find(node);
        Some(self.shard[root])
    }

    /// The shard a routed query's component currently maps to.
    fn shard_of_query(&mut self, qid: QueryId) -> Option<usize> {
        let &node = self.qid_node.get(&qid)?;
        let root = self.find(node);
        Some(self.shard[root])
    }
}

// ------------------------------------------------------------------ //
// Per-shard monitoring counters (lock-free read paths)
// ------------------------------------------------------------------ //

/// A lock-free mirror of one shard's monitoring counters, refreshed
/// with relaxed stores every time the shard lock is released (see
/// [`ShardGuard`]). Monitoring reads ([`ShardedCoordinator::stats`],
/// [`ShardedCoordinator::pending_count`],
/// [`ShardedCoordinator::pending_per_shard`]) load these atomics and
/// never contend with draining; [`ShardedCoordinator::pending_snapshot`]
/// remains the consistent (locking) slow path.
struct ShardMonitor {
    pending: AtomicUsize,
    /// Earliest deadline of this shard's pending queries, in clock
    /// millis; `u64::MAX` when none carries one. The deadline
    /// sweeper's lock-free wakeup hint: `expire_due` skips a shard
    /// whose hint lies in the future without touching its lock.
    min_deadline: AtomicU64,
    submitted: AtomicU64,
    answered: AtomicU64,
    expired: AtomicU64,
    groups_matched: AtomicU64,
    match_attempts: AtomicU64,
    matching_nanos: AtomicU64,
    candidates_considered: AtomicU64,
    committed_considered: AtomicU64,
    unify_attempts: AtomicU64,
    unify_successes: AtomicU64,
    groundings_attempted: AtomicU64,
    rows_scanned: AtomicU64,
    nodes_expanded: AtomicU64,
    subsets_tested: AtomicU64,
    candidates_scanned: AtomicU64,
    index_pruned: AtomicU64,
    triggers_pruned: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
}

impl Default for ShardMonitor {
    fn default() -> Self {
        ShardMonitor {
            pending: AtomicUsize::new(0),
            min_deadline: AtomicU64::new(u64::MAX),
            submitted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            groups_matched: AtomicU64::new(0),
            match_attempts: AtomicU64::new(0),
            matching_nanos: AtomicU64::new(0),
            candidates_considered: AtomicU64::new(0),
            committed_considered: AtomicU64::new(0),
            unify_attempts: AtomicU64::new(0),
            unify_successes: AtomicU64::new(0),
            groundings_attempted: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
            nodes_expanded: AtomicU64::new(0),
            subsets_tested: AtomicU64::new(0),
            candidates_scanned: AtomicU64::new(0),
            index_pruned: AtomicU64::new(0),
            triggers_pruned: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
        }
    }
}

impl ShardMonitor {
    fn publish(&self, state: &ShardState) {
        self.pending.store(state.registry.len(), Ordering::Relaxed);
        self.min_deadline.store(
            state.registry.min_deadline().unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let s = &state.stats;
        self.submitted.store(s.submitted, Ordering::Relaxed);
        self.answered.store(s.answered, Ordering::Relaxed);
        self.expired.store(s.expired, Ordering::Relaxed);
        self.groups_matched
            .store(s.groups_matched, Ordering::Relaxed);
        self.match_attempts
            .store(s.match_attempts, Ordering::Relaxed);
        self.matching_nanos
            .store(s.matching_nanos as u64, Ordering::Relaxed);
        let w = &s.match_work;
        self.candidates_considered
            .store(w.candidates_considered, Ordering::Relaxed);
        self.committed_considered
            .store(w.committed_considered, Ordering::Relaxed);
        self.unify_attempts
            .store(w.unify_attempts, Ordering::Relaxed);
        self.unify_successes
            .store(w.unify_successes, Ordering::Relaxed);
        self.groundings_attempted
            .store(w.groundings_attempted, Ordering::Relaxed);
        self.rows_scanned.store(w.rows_scanned, Ordering::Relaxed);
        self.nodes_expanded
            .store(w.nodes_expanded, Ordering::Relaxed);
        self.subsets_tested
            .store(w.subsets_tested, Ordering::Relaxed);
        self.candidates_scanned
            .store(w.candidates_scanned, Ordering::Relaxed);
        self.index_pruned.store(w.index_pruned, Ordering::Relaxed);
        self.triggers_pruned
            .store(w.triggers_pruned, Ordering::Relaxed);
        self.pool_hits.store(w.pool_hits, Ordering::Relaxed);
        self.pool_misses.store(w.pool_misses, Ordering::Relaxed);
    }

    fn stats(&self) -> SystemStats {
        SystemStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_unsafe: 0, // tracked globally, not per shard
            rejected_quota: 0,  // tracked globally, not per shard
            answered: self.answered.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            groups_matched: self.groups_matched.load(Ordering::Relaxed),
            match_attempts: self.match_attempts.load(Ordering::Relaxed),
            matching_nanos: self.matching_nanos.load(Ordering::Relaxed) as u128,
            match_work: MatchStats {
                candidates_considered: self.candidates_considered.load(Ordering::Relaxed),
                committed_considered: self.committed_considered.load(Ordering::Relaxed),
                unify_attempts: self.unify_attempts.load(Ordering::Relaxed),
                unify_successes: self.unify_successes.load(Ordering::Relaxed),
                groundings_attempted: self.groundings_attempted.load(Ordering::Relaxed),
                rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
                nodes_expanded: self.nodes_expanded.load(Ordering::Relaxed),
                subsets_tested: self.subsets_tested.load(Ordering::Relaxed),
                candidates_scanned: self.candidates_scanned.load(Ordering::Relaxed),
                index_pruned: self.index_pruned.load(Ordering::Relaxed),
                triggers_pruned: self.triggers_pruned.load(Ordering::Relaxed),
                pool_hits: self.pool_hits.load(Ordering::Relaxed),
                pool_misses: self.pool_misses.load(Ordering::Relaxed),
            },
            // log-surface gauges are coordinator-wide, not per shard;
            // ShardedCoordinator::stats sets them after merging
            wal_bytes: 0,
            wal_bytes_since_checkpoint: 0,
            checkpoint_age_millis: 0,
            auto_checkpoints: 0,
        }
    }
}

/// One shard: its mutable state behind the shard lock, plus the
/// lock-free monitor mirror.
struct ShardSlot {
    state: Mutex<ShardState>,
    monitor: ShardMonitor,
}

/// A shard-lock guard that republishes the shard's monitor counters
/// when dropped, so the lock-free read paths stay fresh no matter
/// which code path mutated the shard.
struct ShardGuard<'a> {
    state: MutexGuard<'a, ShardState>,
    monitor: &'a ShardMonitor,
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
        self.monitor.publish(&self.state);
    }
}

// ------------------------------------------------------------------ //
// The sharded coordinator
// ------------------------------------------------------------------ //

/// The coordination component: partitions the pending registry into
/// shards keyed by answer-relation signature and drains submissions
/// per shard — see the module docs for the routing rule and locking
/// protocol. One submit entry ([`ShardedCoordinator::submit_async_with`])
/// and one batch entry ([`ShardedCoordinator::submit_batch_async_with`])
/// carry the whole `submit*` family; cancellation, expiry, durable
/// recovery ([`ShardedCoordinator::recover`]) and waiter reattachment
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
    /// Round-robin tenant interleaving in batch drains
    /// ([`ShardedConfig::fair_drain`]).
    fair_drain: bool,
    workers: usize,
    /// The coordinator clock (checkpoint age, recovery expiry); tests
    /// inject a [`crate::MockClock`] via
    /// [`ShardedCoordinator::with_clock`].
    clock: Arc<dyn Clock>,
    /// Notified (outside any shard lock) whenever a deadline-carrying
    /// query registers; the [`crate::DeadlineSweeper`] waits on it.
    sweep_signal: Arc<SweepSignal>,
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
                    state: Mutex::new(ShardState::new(
                        config.base.use_const_index,
                        config.base.seed ^ i as u64,
                    )),
                    monitor: ShardMonitor::default(),
                })
                .collect(),
            router: Mutex::new(Router::new(shards)),
            next_id: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            rejected_unsafe: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            apply_hook: Mutex::new(None),
            reattach_gate: Mutex::new(()),
            fair_drain: config.fair_drain,
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

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks one shard; the returned guard republishes the shard's
    /// monitor counters on drop.
    fn shard_lock(&self, shard: usize) -> ShardGuard<'_> {
        let slot = &self.shards[shard];
        ShardGuard {
            state: slot.state.lock(),
            monitor: &slot.monitor,
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

    /// The installed tenant registry, if any.
    pub fn tenant_registry(&self) -> Option<Arc<TenantRegistry>> {
        self.engine.tenants()
    }

    /// [`ShardedCoordinator::submit_async_with`] over SQL text with
    /// default options, answered-or-pending view.
    pub fn submit_sql(&self, owner: &str, sql: &str) -> CoreResult<Submission> {
        self.submit_sql_with(owner, sql, SubmitOptions::default())
    }

    /// [`ShardedCoordinator::submit_async_with`] over SQL text,
    /// answered-or-pending view.
    pub fn submit_sql_with(
        &self,
        owner: &str,
        sql: &str,
        opts: SubmitOptions,
    ) -> CoreResult<Submission> {
        self.submit_with(owner, compile_sql(sql)?, opts)
    }

    /// [`ShardedCoordinator::submit_async_with`] with default options,
    /// answered-or-pending view.
    pub fn submit(&self, owner: &str, query: EntangledQuery) -> CoreResult<Submission> {
        self.submit_with(owner, query, SubmitOptions::default())
    }

    /// [`ShardedCoordinator::submit_async_with`], answered-or-pending
    /// view: [`Submission::Answered`] when the arrival completed a
    /// group, otherwise the pending query's future.
    pub fn submit_with(
        &self,
        owner: &str,
        query: EntangledQuery,
        opts: SubmitOptions,
    ) -> CoreResult<Submission> {
        self.submit_async_with(owner, query, opts)
            .map(Submission::from)
    }

    /// [`ShardedCoordinator::submit_async_with`] over SQL text with
    /// default options.
    pub fn submit_sql_async(&self, owner: &str, sql: &str) -> CoreResult<CoordinationFuture> {
        self.submit_sql_async_with(owner, sql, SubmitOptions::default())
    }

    /// [`ShardedCoordinator::submit_async_with`] over SQL text.
    pub fn submit_sql_async_with(
        &self,
        owner: &str,
        sql: &str,
        opts: SubmitOptions,
    ) -> CoreResult<CoordinationFuture> {
        self.submit_async_with(owner, compile_sql(sql)?, opts)
    }

    /// [`ShardedCoordinator::submit_async_with`] with default options.
    pub fn submit_async(
        &self,
        owner: &str,
        query: EntangledQuery,
    ) -> CoreResult<CoordinationFuture> {
        self.submit_async_with(owner, query, SubmitOptions::default())
    }

    /// Submits one compiled entangled query — the single submit entry;
    /// every other `submit*` is a one-line convenience over it. Routes
    /// the query to its shard and runs arrival-driven matching there;
    /// submissions routed to different shards proceed concurrently. A
    /// deadline in `opts` rides the registration's log frame and is
    /// enforced by `expire_due` sweeps.
    ///
    /// The returned handle is a poll-based future, already resolved
    /// when the arrival completed a group; otherwise it is completed —
    /// under the owning shard's lock — by whichever path terminates
    /// the query: a match commit, a cancellation, an expiry sweep, or
    /// a reattach. Thousands of these can be held in flight by one
    /// [`crate::WaiterSet`] thread.
    ///
    /// Log-before-ack: on a durable (WAL-backed) database the
    /// registration is committed to the coordination log — under the
    /// shard lock, so a concurrent checkpoint cannot lose it — before
    /// the arrival is processed or acknowledged.
    pub fn submit_async_with(
        &self,
        owner: &str,
        query: EntangledQuery,
        opts: SubmitOptions,
    ) -> CoreResult<CoordinationFuture> {
        if let Err(e) = check_safety(&query, self.engine.config.safety) {
            self.rejected_unsafe.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // admission control runs before the query id is allocated so a
        // quota rejection leaves no trace in the id space, the router
        // or the log; the reservation is released (as `aborted`) if the
        // registration never becomes durable
        let tenants = self.engine.tenants();
        let admission = match &tenants {
            Some(reg) => match reg.admit(owner, opts.deadline) {
                Ok(admission) => Some(admission),
                Err(e) => {
                    self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            },
            None => None,
        };
        let relations = query.answer_relations();
        let qid = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let pending = Pending {
            id: qid,
            owner: owner.to_string(),
            query: query.namespaced(qid),
            seq,
            deadline: opts.deadline,
        };
        let hook = self.apply_hook.lock().clone();

        let (shard, moves) = {
            let mut router = self.router.lock();
            let (shard, migrations) = router.route(qid, &relations);
            let moves = self.apply_migrations(&mut router, &migrations);
            (shard, moves)
        };
        self.rematch_moved(moves, &hook);

        let (result, answered) = {
            let mut state = self.shard_lock(shard);
            let event = CoordEvent::QueryRegistered {
                owner: owner.to_string(),
                sql: query.sql.clone(),
                qid,
                seq,
                deadline: opts.deadline,
                stamp: self.engine.audit_now().map(|at| RegStamp {
                    at,
                    shard: shard as u32,
                }),
            };
            match self.engine.db.log_event(&event) {
                Ok(()) => {
                    // the registration is durable: bind the tenant
                    // reservation to its id
                    if let (Some(reg), Some(admission)) = (&tenants, admission) {
                        reg.track(admission, qid);
                    }
                    // audit submit row before any terminal row this
                    // arrival could produce
                    self.engine.observe(&event);
                    let result = self
                        .engine
                        .process_arrival(&mut state, pending, hook_ref(&hook));
                    self.engine.flush_audit(&mut state);
                    (result, std::mem::take(&mut state.answered_log))
                }
                Err(e) => {
                    // never registered: retire the routed-but-unlogged id
                    // so the router does not leak its membership (the
                    // still-held admission rolls back on drop below)
                    (Err(CoreError::Storage(e)), vec![qid])
                }
            }
        };
        self.retire(&answered);
        // heal on Err as well: an apply failure reinstates the query as
        // pending, and a concurrent merge may have re-routed it
        if !matches!(&result, Ok(f) if f.answered_on_arrival()) {
            self.heal_placement(shard, &[qid], &hook);
        }
        if opts.deadline.is_some() {
            // after every shard lock is released: the sweeper's next
            // hint read sees the published per-shard minimum
            self.sweep_signal.notify();
        }
        self.checkpoint_if_due(0);
        result
    }

    /// [`ShardedCoordinator::submit_batch_async_with`] over `(owner,
    /// sql)` requests with default options, answered-or-pending view.
    pub fn submit_batch_sql(&self, requests: &[(String, String)]) -> Vec<BatchOutcome> {
        self.submit_batch(compile_batch(requests))
    }

    /// [`ShardedCoordinator::submit_batch_async_with`] with default
    /// options, answered-or-pending view.
    pub fn submit_batch(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>)>,
    ) -> Vec<BatchOutcome> {
        self.submit_batch_with(default_options(requests))
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
        self.submit_batch_async(compile_batch(requests))
    }

    /// [`ShardedCoordinator::submit_batch_async_with`] with default
    /// options.
    pub fn submit_batch_async(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>)>,
    ) -> Vec<CoreResult<CoordinationFuture>> {
        self.submit_batch_async_with(default_options(requests))
    }

    /// Submits a batch of pre-compiled queries — the single batch
    /// entry; every other `submit_batch*` is a one-line convenience
    /// over it. Safety-checks outside any lock, routes the whole batch
    /// in one router pass, then drains each shard's bucket on the
    /// worker pool. Entries may carry a compile error, which is passed
    /// through to the outcome slot, and their own deadline, logged in
    /// their registration frame of the bucket's group commit. Outcomes
    /// are returned in input order; a future is already resolved when
    /// its arrival completed a group within the batch.
    pub fn submit_batch_async_with(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)>,
    ) -> Vec<CoreResult<CoordinationFuture>> {
        let mut outcomes: Vec<Option<CoreResult<CoordinationFuture>>> =
            Vec::with_capacity(requests.len());
        outcomes.resize_with(requests.len(), || None);

        // Phase 1 (no locks): compile outcomes + safety + tenant
        // admission, id allocation in input order so ids match a serial
        // submission of the batch (admission precedes allocation, like
        // the single-submit path, so a rejected entry burns no id).
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
            let relations = query.answer_relations();
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
            let mut routed = Vec::with_capacity(accepted.len());
            for (idx, pending, relations, admission) in accepted {
                let (_, migrations) = router.route(pending.id, &relations);
                for (shard, mut qids) in self.apply_migrations(&mut router, &migrations) {
                    all_moves.entry(shard).or_default().append(&mut qids);
                }
                routed.push((idx, pending, admission));
            }
            for (idx, pending, admission) in routed {
                let shard = router
                    .shard_of_query(pending.id)
                    .expect("query was routed in this pass");
                buckets[shard].push((idx, pending, admission));
            }
        }
        self.rematch_moved(all_moves, &hook);

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
            self.drain_shard(*shard, std::mem::take(&mut *bucket.lock()), &hook)
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
            self.heal_placement(shard, &qids, &hook);
        }

        if any_deadline {
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
    fn fan_out<T: Send>(&self, tasks: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
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

    /// Drains one shard's bucket under its lock: group-commits the
    /// bucket's registrations to the coordination log as one
    /// marker-delimited commit group (buckets draining on other
    /// shards share the pipeline writer's fsync), then
    /// insert → match → cascade per arrival, in bucket (= submission)
    /// order. Returns the per-request outcomes,
    /// the answered-query log, and the ids that may still be pending
    /// afterwards (`Pending` outcomes, plus `Err` outcomes — an apply
    /// failure reinstates the query), which the caller must
    /// placement-heal.
    fn drain_shard(
        &self,
        shard: usize,
        bucket: Bucket,
        hook: &Option<SharedApplyHook>,
    ) -> DrainResult {
        // Fair tenant interleaving reorders the bucket *before* the log
        // events are built, so the durable registration order equals
        // the processing order, exactly as in the unfair drain.
        let bucket = if self.fair_drain {
            fair_interleave(bucket)
        } else {
            bucket
        };
        let tenants = self.engine.tenants();
        let mut state = self.shard_lock(shard);
        // log-before-ack, batch flavor: every registration of the
        // bucket is durable before any of its arrivals is processed
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
        if let Err(e) = self.engine.db.log_events(&events) {
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
            // durably registered: bind the tenant reservation to its id
            if let (Some(reg), Some(admission)) = (&tenants, admission) {
                reg.track(admission, qid);
            }
            let outcome = self
                .engine
                .process_arrival(&mut state, pending, hook_ref(hook));
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

    /// Executes migrations decided by the router (caller holds the
    /// router lock). Shard locks are taken in ascending index order —
    /// the global lock order — so concurrent drains cannot deadlock.
    /// Only *moves* entries (cheap: registry + waiter transfers);
    /// matching is deliberately left to [`Self::rematch_moved`], which
    /// runs after the router lock is released so routing never
    /// serializes behind match work or database writes. Returns the
    /// moved queries grouped by destination shard.
    fn apply_migrations(
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
    /// lock; matching, applies and cascades happen under the shard lock
    /// only, exactly like a drain. Best-effort: apply failures leave
    /// the group pending, like a cascade round.
    fn rematch_moved(&self, moves: HashMap<usize, Vec<QueryId>>, hook: &Option<SharedApplyHook>) {
        let mut answered = Vec::new();
        for (shard, qids) in moves {
            let mut state = self.shard_lock(shard);
            // Index-first pruning: a moved query whose candidate index
            // and committed probe both come up empty cannot match in
            // its new shard either — skip it without a db read lock.
            // Recomputed after every fired match, so skips are exactly
            // the try_match calls that would return None.
            let mut skip = self.engine.prunable_triggers(&state);
            for qid in qids {
                if state.registry.get(qid).is_none() {
                    continue; // answered earlier in this loop or moved on
                }
                if skip.contains(&qid) {
                    state.stats.match_work.triggers_pruned += 1;
                    continue;
                }
                if let Ok(Some(gm)) = self.engine.try_match(&mut state, qid) {
                    let fresh: Vec<(String, Tuple)> = gm.all_answers().cloned().collect();
                    if self
                        .engine
                        .apply_and_notify(&mut state, gm, hook_ref(hook))
                        .is_ok()
                    {
                        let _ = self.engine.cascade(&mut state, fresh, hook_ref(hook));
                        skip = self.engine.prunable_triggers(&state);
                    } // on Err the group was reinstated and stays pending
                }
            }
            self.engine.flush_audit(&mut state);
            answered.append(&mut state.answered_log);
        }
        self.retire(&answered);
    }

    /// Re-checks where `qids` (just drained as pending on `shard`)
    /// should live according to the router, migrating and re-matching
    /// any that a concurrent component merge re-routed mid-flight.
    fn heal_placement(&self, shard: usize, qids: &[QueryId], hook: &Option<SharedApplyHook>) {
        if self.shards.len() == 1 {
            return; // one shard: no other placement exists
        }
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
        self.rematch_moved(moves, hook);
    }

    /// Retires answered queries from the router's membership sets.
    /// Must be called without holding any shard lock (lock order).
    fn retire(&self, answered: &[QueryId]) {
        if answered.is_empty() {
            return;
        }
        let mut router = self.router.lock();
        for &qid in answered {
            router.purge(qid);
        }
    }

    /// Cancels a pending query ("a query whose postcondition is not
    /// satisfied ... waits for an opportunity to retry" — until the
    /// user gives up). The cancellation is logged before the entry
    /// disappears from the registry (log-before-ack).
    pub fn cancel(&self, qid: QueryId) -> CoreResult<()> {
        let mut router = self.router.lock();
        let unknown = || CoreError::UnknownQuery(qid.0);
        let shard = router.shard_of_query(qid).ok_or_else(unknown)?;
        {
            let mut state = self.shard_lock(shard);
            if state.registry.get(qid).is_none() {
                return Err(unknown());
            }
            self.engine
                .retire_ids(&mut state, &[qid], Retirement::Cancelled)
                .map_err(CoreError::Storage)?;
        }
        router.purge(qid);
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
    /// background. Per shard: the lock-free monitor hint is consulted
    /// first (a shard whose earliest deadline lies in the future is
    /// skipped without touching its lock), then the registry's
    /// deadline index selects the victims. Returns the expired ids.
    pub fn expire_due(&self, now_millis: u64) -> Vec<QueryId> {
        // the hint may trail an in-flight registration by one publish,
        // but that registration's sweep-signal notify happens after
        // its guard drop, so the sweeper always re-reads a fresh hint
        // before sleeping
        let due = (0..self.shards.len()).filter(|&shard| {
            self.shards[shard]
                .monitor
                .min_deadline
                .load(Ordering::Relaxed)
                <= now_millis
        });
        self.sweep(Retirement::Expired, due, |registry| {
            registry.due_before(now_millis)
        })
    }

    /// The earliest deadline across all shards (the sweeper's wakeup
    /// hint). Lock-free: reads the per-shard monitor atomics.
    pub fn next_deadline(&self) -> Option<u64> {
        let min = self
            .shards
            .iter()
            .map(|s| s.monitor.min_deadline.load(Ordering::Relaxed))
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
                    .retire_ids(&mut state, &ids, why)
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
    /// across the worker pool — one task per shard, each running the
    /// index-first pruned [`Engine::retry_all`]. Results are
    /// reassembled in shard order, so notifications and error
    /// propagation are identical to sweeping the shards one by one.
    pub fn retry_all(&self) -> CoreResult<Vec<MatchNotification>> {
        let hook = self.apply_hook.lock().clone();
        let (swept, answered): (Vec<_>, Vec<_>) = self
            .fan_out(self.shards.len(), |shard| {
                let mut state = self.shard_lock(shard);
                let result = self.engine.retry_all(&mut state, hook_ref(&hook));
                self.engine.flush_audit(&mut state);
                (result, std::mem::take(&mut state.answered_log))
            })
            .into_iter()
            .unzip();
        self.retire(&answered.concat());

        let mut notifications = Vec::new();
        for result in swept {
            notifications.extend(result?);
        }
        Ok(notifications)
    }

    /// Total number of pending queries across shards. Lock-free: sums
    /// the per-shard monitor atomics, so monitoring never contends with
    /// draining (may trail an in-flight drain by one publish).
    pub fn pending_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.monitor.pending.load(Ordering::Relaxed))
            .sum()
    }

    /// Pending queries per shard (diagnostics / load inspection).
    /// Lock-free, like [`ShardedCoordinator::pending_count`].
    pub fn pending_per_shard(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.monitor.pending.load(Ordering::Relaxed))
            .collect()
    }

    /// Merged statistics across shards (plus global safety rejections
    /// and the log-surface gauges: WAL size, bytes and time since the
    /// last checkpoint, auto-checkpoint count — the first slice of the
    /// log-aware admin surface). Lock-free: reads the per-shard
    /// monitor atomics; counters may trail an in-flight drain by one
    /// publish.
    pub fn stats(&self) -> SystemStats {
        let mut total = SystemStats::default();
        for shard in &self.shards {
            total.merge(&shard.monitor.stats());
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
        let mut all: Vec<PendingInfo> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.state
                    .lock()
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
        for shard in &self.shards {
            let part = match_graph_of(&shard.state.lock().registry);
            graph.edges.extend(part.edges);
            graph.dangling.extend(part.dangling);
        }
        graph
    }

    /// Reads the current content of an answer relation.
    pub fn answers(&self, relation: &str) -> Vec<Tuple> {
        self.engine.answers(relation)
    }

    /// The shard `relation` currently routes to (`None` until some
    /// query has touched it). Exposed for tests and diagnostics.
    pub fn shard_of_relation(&self, relation: &str) -> Option<usize> {
        self.router.lock().shard_of_relation(relation)
    }

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
    /// [`ShardedCoordinator::recover_with_hook`] when matches must run
    /// application side effects.
    pub fn recover(
        wal: Wal,
        config: ShardedConfig,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        Self::recover_with(wal, config, None, Arc::new(SystemClock))
    }

    /// [`ShardedCoordinator::recover`] with an apply hook installed
    /// *before* the post-restore matching sweep runs.
    pub fn recover_with_hook(
        wal: Wal,
        config: ShardedConfig,
        hook: Option<SharedApplyHook>,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        Self::recover_with(wal, config, hook, Arc::new(SystemClock))
    }

    /// The full-control recovery entry point: apply hook plus an
    /// injected [`Clock`]. Deadlines are rebuilt from the log into
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
                let relations = p.query.answer_relations();
                let _ = router.route(p.id, &relations);
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

    /// Compacts the WAL under a full quiesce: the storage snapshot plus
    /// one registration frame per *surviving* pending query replace the
    /// log's history, so matched, cancelled and expired registrations
    /// stop occupying log space. Holding the router lock and every
    /// shard lock (in index order) excludes every mutation path —
    /// including the log appends they perform — so the snapshot is
    /// consistent with the rewritten log.
    pub fn checkpoint(&self) -> CoreResult<()> {
        let _router = self.router.lock();
        let guards: Vec<ShardGuard<'_>> =
            (0..self.shards.len()).map(|i| self.shard_lock(i)).collect();
        let mut events: Vec<(u64, CoordEvent)> = Vec::new();
        for guard in &guards {
            for p in guard.registry.iter() {
                events.push((
                    p.seq,
                    // the deadline rides the compacted frame too — a
                    // checkpoint must never turn a bounded query into
                    // an immortal one. So does the audit submit stamp:
                    // a post-checkpoint recovery rebuilds the survivor's
                    // audit row with its original submission time.
                    CoordEvent::QueryRegistered {
                        owner: p.owner.clone(),
                        sql: p.query.sql.clone(),
                        qid: p.id,
                        seq: p.seq,
                        deadline: p.deadline,
                        stamp: co_stamp(&self.engine, p.id),
                    },
                ));
            }
        }
        events.sort_by_key(|(seq, _)| *seq);
        // the matched/cancelled history being compacted away carried
        // the allocation high-water mark; persist it explicitly so a
        // post-checkpoint recovery never re-issues a handed-out id or
        // regresses the sequence clock
        let watermark = CoordEvent::Watermark {
            qid: QueryId(self.next_id.load(Ordering::Relaxed).saturating_sub(1)),
            seq: self.seq.load(Ordering::Relaxed),
        };
        let mut payloads: Vec<Vec<u8>> = vec![watermark.encode()];
        payloads.extend(events.iter().map(|(_, e)| e.encode()));
        self.engine
            .db
            .checkpoint_with_coordination(&payloads)
            .map_err(CoreError::Storage)?;
        // reset the log-surface gauges while still quiesced
        self.wal_len_at_checkpoint
            .store(self.engine.db.wal_len().unwrap_or(0), Ordering::Relaxed);
        self.last_checkpoint_at
            .store(self.clock.now_millis(), Ordering::Relaxed);
        Ok(())
    }

    /// Runs [`ShardedCoordinator::checkpoint`] when the
    /// [`CheckpointPolicy`] says one is due. Called in-line after
    /// group commits with `age_millis == 0` (only the size criterion
    /// can fire: the submit path reads no clock for this) and from the
    /// sweeper tick with the real age. Concurrent triggers collapse
    /// into one run. Failures are swallowed (the log keeps growing and
    /// the next trigger retries) — compaction is an optimization,
    /// never a correctness requirement.
    fn checkpoint_if_due(&self, age_millis: u64) {
        let policy = self.checkpoint_policy;
        if policy == CheckpointPolicy::default() {
            return;
        }
        let Some(len) = self.engine.db.wal_len() else {
            return; // non-durable database: nothing to compact
        };
        let since = len.saturating_sub(self.wal_len_at_checkpoint.load(Ordering::Relaxed));
        if !policy.due(since, age_millis) {
            return;
        }
        if self
            .checkpointing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread is already checkpointing
        }
        if self.checkpoint().is_ok() {
            self.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        self.checkpointing.store(false, Ordering::Release);
    }

    /// Verifies the routing invariants at a quiescent point, returning
    /// a description of the first violation: (a) every pending query
    /// lives on the shard its relation component routes to, (b) a
    /// query's whole signature maps to a single component, and (c)
    /// every pending query is tracked in its component's membership
    /// set. Used by the invariant unit tests and the concurrency soak.
    pub fn check_routing_invariants(&self) -> Result<(), String> {
        // collect shard placements first, then consult the router —
        // the lock order forbids taking the router lock while holding
        // a shard lock
        let mut placements: Vec<(usize, QueryId, BTreeSet<String>)> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let state = shard.state.lock();
            for p in state.registry.iter() {
                placements.push((si, p.id, p.query.answer_relations()));
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

impl DeadlineHost for ShardedCoordinator {
    fn next_deadline_millis(&self) -> Option<u64> {
        self.next_deadline()
    }

    fn expire_due(&self, now_millis: u64) -> Vec<QueryId> {
        ShardedCoordinator::expire_due(self, now_millis)
    }

    fn sweep_signal(&self) -> Arc<SweepSignal> {
        Arc::clone(&self.sweep_signal)
    }

    fn sweep_tick(&self, now_millis: u64) {
        // refresh the lock-free monitor mirrors so admin gauge reads
        // stay live on an idle system (no drain has released a shard
        // lock to republish them). try_lock only: a busy shard's own
        // guard drop publishes fresher numbers anyway, and the sweeper
        // must never stall behind a drain.
        for slot in &self.shards {
            if let Some(state) = slot.state.try_lock() {
                slot.monitor.publish(&state);
            }
        }
        // evaluated here too (not only after group commits) so a quiet
        // coordinator still compacts its WAL on schedule
        self.checkpoint_if_due(
            now_millis.saturating_sub(self.last_checkpoint_at.load(Ordering::Relaxed)),
        );
    }
}

/// The ids of the pending queries matching `keep`.
fn ids_where(registry: &Registry, keep: impl Fn(&Pending) -> bool) -> Vec<QueryId> {
    registry.iter().filter(|p| keep(p)).map(|p| p.id).collect()
}

/// Compiles a batch of `(owner, sql)` requests, keeping each entry's
/// compile error in its slot.
fn compile_batch(requests: &[(String, String)]) -> Vec<(String, CoreResult<EntangledQuery>)> {
    requests
        .iter()
        .map(|(owner, sql)| (owner.clone(), compile_sql(sql)))
        .collect()
}

/// Attaches default [`SubmitOptions`] to every batch entry.
fn default_options<Q>(requests: Vec<(String, Q)>) -> Vec<(String, Q, SubmitOptions)> {
    requests
        .into_iter()
        .map(|(owner, query)| (owner, query, SubmitOptions::default()))
        .collect()
}

/// Borrows the shared hook as the engine's `&dyn Fn`.
type HookDyn<'a> = &'a dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()>;

fn hook_ref(hook: &Option<SharedApplyHook>) -> Option<HookDyn<'_>> {
    hook.as_ref()
        .map(|h| h.as_ref() as &dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()>)
}

/// The audit submit stamp a checkpoint re-emits for a surviving
/// registration (`None` when auditing is off, or when the sink never
/// saw the registration — e.g. it was logged before auditing was
/// enabled).
fn co_stamp(engine: &Engine, qid: QueryId) -> Option<RegStamp> {
    engine.audit.as_ref().and_then(|a| a.reg_stamp_of(qid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_exec::run_sql;

    fn flights_db() -> Database {
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

    fn pair_sql_on(rel: &str, me: &str, friend: &str) -> String {
        format!(
            "SELECT '{me}', fno INTO ANSWER {rel} \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('{friend}', fno) IN ANSWER {rel} CHOOSE 1"
        )
    }

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
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert!(co.retry_all().unwrap().is_empty());
        run_sql(&db, "INSERT INTO Flights VALUES (122, 'Paris')").unwrap();
        assert_eq!(co.retry_all().unwrap().len(), 2);
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }

    fn flights_db_wal() -> Database {
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
    fn checkpoint_compacts_the_coordination_log() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        // churn: 20 matched pairs plus 3 survivors
        for p in 0..20 {
            co.submit_sql("l", &pair_sql_on("Res", &format!("L{p}"), &format!("R{p}")))
                .unwrap();
            co.submit_sql("r", &pair_sql_on("Res", &format!("R{p}"), &format!("L{p}")))
                .unwrap();
        }
        for k in 0..3 {
            co.submit_sql(
                &format!("s{k}"),
                &pair_sql_on(&format!("Surv{k}"), &format!("S{k}"), "Ghost"),
            )
            .unwrap();
        }
        let before = db.wal_bytes().unwrap().len();
        co.checkpoint().unwrap();
        let after = db.wal_bytes().unwrap().len();
        assert!(
            after < before / 2,
            "checkpoint must shrink the log: {before} -> {after}"
        );
        // recovery from the compacted log reproduces the state
        let bytes = db.wal_bytes().unwrap();
        drop(co);
        let (co2, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 3);
        assert_eq!(co2.pending_count(), 3);
        assert_eq!(co2.answers("Res").len(), 40);
        co2.check_routing_invariants().unwrap();
    }

    #[test]
    fn checkpoint_preserves_the_id_and_seq_watermark() {
        // the survivor is submitted FIRST, so the matched pair holds
        // the highest qids/seqs — which the checkpoint compacts away.
        // Recovery must still resume allocation above them.
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        let survivor = co
            .submit_sql("s", &pair_sql_on("Surv", "S", "Ghost"))
            .unwrap();
        co.submit_sql("m1", &pair_sql_on("Done", "M1", "M2"))
            .unwrap();
        co.submit_sql("m2", &pair_sql_on("Done", "M2", "M1"))
            .unwrap(); // matches: qids 2,3 retired
        let seq_before = co.current_seq();
        co.checkpoint().unwrap();
        let bytes = db.wal_bytes().unwrap();
        drop(co);

        let (co2, _) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(
            co2.current_seq(),
            seq_before,
            "sequence clock must not regress past handed-out values"
        );
        let next = co2
            .submit_sql("n", &pair_sql_on("New", "N", "Ghost"))
            .unwrap();
        assert!(
            next.id().0 > 3,
            "fresh ids must not collide with pre-crash ids (got {})",
            next.id().0
        );
        // the pre-crash client's handle still refers to its own query
        co2.cancel(survivor.id()).unwrap();
        assert_eq!(co2.pending_count(), 1);
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

    /// Regression (async-submission PR, satellite 1): sharded `cancel`
    /// and `expire_before` must wake parked future waiters with their
    /// terminal outcomes.
    #[test]
    fn sharded_cancel_and_expire_wake_parked_futures() {
        use crate::future::CoordinationOutcome;

        let co = ShardedCoordinator::new(flights_db());
        let mut a = co
            .submit_sql_async("a", &pair_sql_on("Res0", "A", "GhostA"))
            .unwrap();
        let mut b = co
            .submit_sql_async("b", &pair_sql_on("Res1", "B", "GhostB"))
            .unwrap();
        let mut c = co
            .submit_sql_async("c", &pair_sql_on("Res2", "C", "GhostC"))
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
        let mut fx = co.submit_sql_async("x", x).unwrap();
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

    #[test]
    fn recover_then_reattach_resumes_futures() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        let f0 = co
            .submit_sql_async("kramer", &pair_sql_on("Res0", "Kramer", "Jerry"))
            .unwrap();
        let f1 = co
            .submit_sql_async("kramer", &pair_sql_on("Res1", "Kramer", "Elaine"))
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

    #[test]
    fn checkpoint_policy_due_semantics() {
        let off = CheckpointPolicy::default();
        assert!(!off.due(u64::MAX, u64::MAX), "default policy never fires");

        let by_size = CheckpointPolicy {
            max_wal_bytes: 100,
            max_age_millis: 0,
        };
        assert!(!by_size.due(99, u64::MAX), "age leg disabled at 0");
        assert!(by_size.due(100, 0));

        let by_age = CheckpointPolicy {
            max_wal_bytes: 0,
            max_age_millis: 50,
        };
        assert!(!by_age.due(u64::MAX, 49), "size leg disabled at 0");
        assert!(by_age.due(0, 50));
    }

    /// The age leg of [`CheckpointPolicy`] fires from the sweeper tick
    /// alone — no group commit involved — so a quiet coordinator still
    /// compacts its WAL on schedule.
    #[test]
    fn sweep_tick_checkpoints_by_age() {
        use crate::lifecycle::MockClock;

        let db = flights_db_wal();
        let clock = Arc::new(MockClock::new(1_000));
        let config = ShardedConfig {
            checkpoint: CheckpointPolicy {
                max_wal_bytes: 0,
                max_age_millis: 5_000,
            },
            ..Default::default()
        };
        let co = ShardedCoordinator::with_clock(db.clone(), config, clock.clone());
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();

        // young enough: the tick is a no-op
        co.sweep_tick(clock.now_millis());
        let stats = co.stats();
        assert_eq!(stats.auto_checkpoints, 0);
        assert!(stats.wal_bytes_since_checkpoint > 0, "submit hit the log");

        // past the age bound: the tick checkpoints and resets gauges
        clock.advance(5_000);
        co.sweep_tick(clock.now_millis());
        let stats = co.stats();
        assert_eq!(stats.auto_checkpoints, 1);
        assert_eq!(stats.wal_bytes_since_checkpoint, 0);
        assert_eq!(stats.checkpoint_age_millis, 0);

        // the compacted log still carries the surviving registration
        let (co2, report) = ShardedCoordinator::recover(
            Wal::from_bytes(db.wal_bytes().unwrap()),
            ShardedConfig::default(),
        )
        .unwrap();
        assert_eq!(report.restored_pending, 1);
        assert_eq!(co2.pending_count(), 1);

        // another tick inside the fresh window does nothing
        co.sweep_tick(clock.now_millis());
        assert_eq!(co.stats().auto_checkpoints, 1);
    }

    /// An idle coordinator's lock-free gauge mirrors can go stale (no
    /// drain releases a shard lock to republish them); the sweeper tick
    /// must refresh every shard's monitor from its true registry.
    #[test]
    fn sweep_tick_republishes_stale_monitor_gauges() {
        let co = ShardedCoordinator::new(flights_db());
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        assert_eq!(co.pending_count(), 1);

        // simulate a stale mirror: clobber every shard's published
        // gauges (the test module sees the private atomics)
        for slot in &co.shards {
            slot.monitor.pending.store(99, Ordering::Relaxed);
            slot.monitor.min_deadline.store(0, Ordering::Relaxed);
        }
        assert_ne!(co.pending_count(), 1, "reads serve the stale mirror");

        co.sweep_tick(0);
        assert_eq!(co.pending_count(), 1, "tick republished the registry");
        assert_eq!(co.pending_per_shard().iter().sum::<usize>(), 1);
        let min = co
            .shards
            .iter()
            .map(|s| s.monitor.min_deadline.load(Ordering::Relaxed))
            .min()
            .unwrap();
        assert_eq!(min, u64::MAX, "no deadline set: sentinel restored");
    }
}
