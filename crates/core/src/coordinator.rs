//! The coordinator's public vocabulary — configuration, statistics,
//! submission outcomes, the admin-interface views — and
//! [`Coordinator`], the one-shard spelling of
//! [`crate::ShardedCoordinator`].
//!
//! The paper's architecture (Figure 2) has one coordination component
//! between the query compiler and the execution engine. That component
//! is [`crate::ShardedCoordinator`] (see [`crate::shard`] for routing,
//! locking and batch draining); `Coordinator::new(db)` builds it with a
//! single shard, which *is* the serial algorithm: one registry, arrival
//! order, one RNG seeded with `CoordinatorConfig::seed`.
//!
//! **Do not submit while holding a
//! [`youtopia_storage::ReadTransaction`] on the same database** — the
//! apply phase needs the write lock and would deadlock with your read
//! guard.

use std::ops::Deref;
use std::sync::Arc;

use youtopia_storage::{Database, Tuple, Wal};

use crate::audit::AuditConfig;
use crate::error::CoreResult;
use crate::future::{CoordinationFuture, CoordinationOutcome};
use crate::ir::QueryId;
use crate::lifecycle::{Clock, SystemClock};
use crate::matcher::{MatchConfig, MatchStats};
use crate::safety::SafetyMode;
use crate::shard::{ShardedConfig, ShardedCoordinator, SharedApplyHook};

/// Which matching algorithm the coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherKind {
    /// The incremental, index-pruned matcher (the system's algorithm).
    #[default]
    Incremental,
    /// The exhaustive subset baseline (for experiments).
    Naive,
}

/// Coordinator construction options.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Safety condition enforced at submission.
    pub safety: SafetyMode,
    /// Matcher tuning (group-size bound, randomize).
    pub match_config: MatchConfig,
    /// Which matcher runs on arrival.
    pub matcher: MatcherKind,
    /// RNG seed for the nondeterministic `CHOOSE`.
    pub seed: u64,
    /// Coordination audit trail (the `sys_audit` / `sys_tenant_latency`
    /// system relations). Disabled by default.
    pub audit: AuditConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            safety: SafetyMode::Relaxed,
            match_config: MatchConfig::default(),
            matcher: MatcherKind::Incremental,
            seed: 0xD3C0_FFEE,
            audit: AuditConfig::default(),
        }
    }
}

/// Cumulative system counters, exposed to the admin interface and the
/// benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SystemStats {
    /// Entangled queries accepted (registered or answered).
    pub submitted: u64,
    /// Queries rejected by the safety analysis.
    pub rejected_unsafe: u64,
    /// Submissions rejected by a tenant quota
    /// ([`crate::TenantRegistry`]) before registration.
    pub rejected_quota: u64,
    /// Queries answered so far.
    pub answered: u64,
    /// Groups matched so far.
    pub groups_matched: u64,
    /// Match attempts (one per arrival, plus retries).
    pub match_attempts: u64,
    /// Total time spent inside the matcher, in nanoseconds.
    pub matching_nanos: u128,
    /// Aggregated matcher work counters.
    pub match_work: MatchStats,
    /// Queries retired by deadline sweeps (`expire_due`), as opposed
    /// to answered or cancelled.
    pub expired: u64,
    /// WAL size in bytes at the time of the stats read (0 without a
    /// WAL). A log-surface gauge set by `stats()` itself — per-shard
    /// counters never carry it and [`SystemStats::merge`] never sums
    /// it.
    pub wal_bytes: u64,
    /// Bytes appended to the WAL since the last coordinator
    /// checkpoint (since construction when none ran yet). Gauge, like
    /// `wal_bytes`.
    pub wal_bytes_since_checkpoint: u64,
    /// Milliseconds since the last coordinator checkpoint (since
    /// construction when none ran yet), by the coordinator's clock.
    /// Gauge.
    pub checkpoint_age_millis: u64,
    /// Checkpoints triggered automatically by the
    /// [`crate::CheckpointPolicy`].
    pub auto_checkpoints: u64,
}

impl SystemStats {
    /// Accumulates `other`'s counters into `self` (used to merge
    /// per-shard stats). The log-surface gauges (`wal_bytes`,
    /// `wal_bytes_since_checkpoint`, `checkpoint_age_millis`,
    /// `auto_checkpoints`) describe the whole coordinator, not a
    /// shard, and are deliberately not summed — `stats()` sets them
    /// once after merging.
    pub fn merge(&mut self, other: &SystemStats) {
        self.submitted += other.submitted;
        self.rejected_unsafe += other.rejected_unsafe;
        self.rejected_quota += other.rejected_quota;
        self.answered += other.answered;
        self.groups_matched += other.groups_matched;
        self.match_attempts += other.match_attempts;
        self.matching_nanos += other.matching_nanos;
        self.match_work.merge(&other.match_work);
        self.expired += other.expired;
    }
}

/// What a submitter gets back when its group matches: its own answers.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchNotification {
    /// This query's id.
    pub id: QueryId,
    /// Every member of the matched group.
    pub group: Vec<QueryId>,
    /// This query's answers: one `(relation, tuple)` per head.
    pub answers: Vec<(String, Tuple)>,
}

/// Outcome of a submission.
#[derive(Debug)]
pub enum Submission {
    /// The query was answered immediately (its arrival completed a
    /// group).
    Answered(MatchNotification),
    /// The query is pending; the future resolves when a later arrival
    /// completes a group (or the query is cancelled, expired, or its
    /// handle superseded by a reattach).
    Pending(CoordinationFuture),
}

impl From<CoordinationFuture> for Submission {
    /// The blocking conveniences' view of a handle: `Answered` when
    /// the query's own arrival completed a group, the future otherwise
    /// (a query registered as pending stays `Pending` even if a later
    /// arrival of the same batch has resolved it since).
    fn from(mut future: CoordinationFuture) -> Submission {
        if future.answered_on_arrival() {
            if let Some(CoordinationOutcome::Answered(n)) = future.try_take() {
                return Submission::Answered(n);
            }
        }
        Submission::Pending(future)
    }
}

impl Submission {
    /// The query id in either case.
    pub fn id(&self) -> QueryId {
        match self {
            Submission::Answered(n) => n.id,
            Submission::Pending(f) => f.id(),
        }
    }

    /// The notification if already answered.
    pub fn answered(self) -> Option<MatchNotification> {
        match self {
            Submission::Answered(n) => Some(n),
            Submission::Pending(_) => None,
        }
    }
}

/// One potential-satisfaction edge of the match graph: `from`'s
/// constraint could be satisfied by `to`'s head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchEdge {
    /// The constrained (waiting) query.
    pub from: QueryId,
    /// Rendering of the constraint atom.
    pub constraint: String,
    /// The query whose head could satisfy it.
    pub to: QueryId,
    /// Rendering of that head atom.
    pub head: String,
}

/// The admin interface's view of matcher state (§3.2): which pending
/// queries could entangle with which.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MatchGraph {
    /// Potential-satisfaction edges.
    pub edges: Vec<MatchEdge>,
    /// Constraints with no possible provider right now:
    /// `(query, constraint index, rendered atom)` — the reason those
    /// queries wait.
    pub dangling: Vec<(QueryId, usize, String)>,
}

/// A row of the admin interface's pending-query view.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingInfo {
    /// Query id.
    pub id: QueryId,
    /// Submitting user.
    pub owner: String,
    /// Original SQL text.
    pub sql: String,
    /// Rendered IR (heads / predicates / constraints).
    pub ir: String,
    /// Submission sequence number.
    pub seq: u64,
    /// Absolute deadline in clock milliseconds, when the submission
    /// carried one.
    pub deadline: Option<u64>,
}

/// What a coordinator recovery replayed and rebuilt (diagnostics; the
/// e2e `recovery` workload reports it as `core.recover_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Coordination events decoded from the log.
    pub events_replayed: usize,
    /// Registrations that survived (pending at the crash) and were
    /// restored into the registry.
    pub restored_pending: usize,
    /// Groups matched by the post-restore matching sweep (arrivals that
    /// were logged but whose match had not committed before the crash).
    pub rematched_groups: u64,
    /// Restored queries whose logged deadline was already past due at
    /// recovery time and were expired immediately (their expiry is
    /// logged like any sweep's).
    pub expired_at_recovery: usize,
    /// Sweep triggers the matcher's stage 1 refuted: some positive
    /// constraint had neither a candidate head nor a committed answer
    /// in the answer index (`MatchStats::triggers_pruned`).
    pub triggers_pruned: u64,
    /// Wall-clock duration of the post-restore matching sweep, in
    /// microseconds.
    pub sweep_micros: u64,
    /// Survivors compiled from scratch because they missed their
    /// recompile task's template map; the others were rewritten from a
    /// stored query of the same template.
    pub fresh_compiles: usize,
}

/// The one-shard coordinator: a [`ShardedCoordinator`] built with
/// `ShardedConfig { shards: 1, base: config, .. }` — one registry,
/// serial arrival order, and an RNG seeded with `config.seed` itself
/// (`seed ^ 0`), so seed-pinned `CHOOSE` outcomes are those of the
/// paper's single coordination component. Everything but construction
/// is the sharded coordinator's own surface, reached through `Deref`.
pub struct Coordinator(ShardedCoordinator);

fn one_shard(base: CoordinatorConfig) -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        base,
        ..ShardedConfig::default()
    }
}

impl Coordinator {
    /// A one-shard coordinator over `db` with default options.
    pub fn new(db: Database) -> Coordinator {
        Coordinator::with_config(db, CoordinatorConfig::default())
    }

    /// A one-shard coordinator over `db` with custom options.
    pub fn with_config(db: Database, config: CoordinatorConfig) -> Coordinator {
        Coordinator(ShardedCoordinator::with_config(db, one_shard(config)))
    }

    /// [`ShardedCoordinator::recover`] into one shard.
    pub fn recover(
        wal: Wal,
        config: CoordinatorConfig,
    ) -> CoreResult<(Coordinator, RecoveryReport)> {
        Coordinator::recover_with(wal, config, None, Arc::new(SystemClock))
    }

    /// [`ShardedCoordinator::recover_with`] into one shard.
    pub fn recover_with(
        wal: Wal,
        config: CoordinatorConfig,
        hook: Option<SharedApplyHook>,
        clock: Arc<dyn Clock>,
    ) -> CoreResult<(Coordinator, RecoveryReport)> {
        let (co, report) = ShardedCoordinator::recover_with(wal, one_shard(config), hook, clock)?;
        Ok((Coordinator(co), report))
    }
}

impl Deref for Coordinator {
    type Target = ShardedCoordinator;

    fn deref(&self) -> &ShardedCoordinator {
        &self.0
    }
}

impl From<Coordinator> for ShardedCoordinator {
    fn from(co: Coordinator) -> ShardedCoordinator {
        co.0
    }
}

/// What the serial coordinator's unit tests checked and the sharded
/// coordinator's (`shard/`) do not: run here against one shard.
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Duration;

    use super::*;
    use crate::engine::Ack;
    use crate::lifecycle::{MockClock, SubmitOptions};
    use crate::shard::testing::single;
    use youtopia_exec::run_sql;

    fn seed_flights(db: &Database) {
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), \
             (136, 'Rome')",
        ] {
            run_sql(db, sql).unwrap();
        }
    }

    fn flights_db() -> Database {
        let db = Database::new();
        seed_flights(&db);
        db
    }

    fn flights_db_wal() -> Database {
        let db = Database::with_wal(Wal::in_memory());
        seed_flights(&db);
        db
    }

    fn pair_sql(me: &str, friend: &str) -> String {
        format!(
            "SELECT '{me}', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
        )
    }

    #[test]
    fn coordinator_is_one_shard_of_the_sharded_coordinator() {
        let co = Coordinator::new(flights_db());
        assert_eq!(co.shard_count(), 1);
        co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        // the conversion hands over the same coordinator, state included
        let sharded: ShardedCoordinator = co.into();
        assert_eq!(sharded.pending_count(), 1);
        sharded.check_routing_invariants().unwrap();
    }

    #[test]
    fn cancelled_query_no_longer_matches() {
        let co = Coordinator::new(flights_db());
        let s = co
            .submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        co.cancel(s.id()).unwrap();
        assert_eq!(co.pending_count(), 0);
        // Jerry now waits — no partner
        let s2 = co
            .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
            .unwrap();
        assert!(matches!(s2, Submission::Pending(_)));
    }

    #[test]
    fn pending_snapshot_shows_sql_and_ir() {
        let co = Coordinator::new(flights_db());
        co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        let snap = co.pending_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].owner, "kramer");
        assert!(snap[0].sql.contains("INTO ANSWER Reservation"));
        assert!(snap[0].ir.contains("Reservation('Kramer'"));
    }

    #[test]
    fn failing_hook_reinstates_the_group() {
        let co = Coordinator::new(flights_db());
        co.set_apply_hook(Arc::new(|_, _| {
            Err(youtopia_storage::StorageError::Internal("no seats".into()))
        }));
        let Submission::Pending(mut kramer) = co
            .submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap()
        else {
            panic!("Kramer waits for Jerry");
        };
        let Submission::Pending(mut jerry) = co
            .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
            .unwrap()
        else {
            panic!("a rejected apply leaves the arrival pending");
        };
        // both queries are still pending; no answers were written
        assert_eq!(co.pending_count(), 2);
        assert!(co.answers("Reservation").is_empty());
        assert_eq!(co.stats().groups_matched, 0);
        assert!(jerry.try_take().is_none());
        // once the hook admits the group, both handles get the answer
        co.set_apply_hook(Arc::new(|_, _| Ok(())));
        assert_eq!(co.retry_all().unwrap().len(), 2);
        for future in [&mut kramer, &mut jerry] {
            assert!(matches!(
                future.try_take(),
                Some(CoordinationOutcome::Answered(_))
            ));
        }
        assert_eq!(co.answers("Reservation").len(), 2);
    }

    #[test]
    fn pre_created_answer_table_is_reused() {
        let db = flights_db();
        run_sql(&db, "CREATE TABLE Reservation (traveler STRING, fno INT)").unwrap();
        let co = Coordinator::new(db.clone());
        co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
            .unwrap();
        let read = db.read();
        let t = read.table("Reservation").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().columns()[0].name, "traveler");
    }

    #[test]
    fn naive_matcher_config_works_end_to_end() {
        let config = CoordinatorConfig {
            matcher: MatcherKind::Naive,
            ..Default::default()
        };
        let co = Coordinator::with_config(flights_db(), config);
        co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        let s = co
            .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
            .unwrap();
        assert!(matches!(s, Submission::Answered(_)));
        assert!(co.stats().match_work.subsets_tested > 0);
    }

    #[test]
    fn concurrent_submissions_from_threads() {
        let co = Arc::new(Coordinator::new(flights_db()));
        let mut handles = Vec::new();
        for pair in 0..8 {
            for side in 0..2 {
                let co = co.clone();
                handles.push(std::thread::spawn(move || {
                    let (me, friend) = if side == 0 {
                        (format!("L{pair}"), format!("R{pair}"))
                    } else {
                        (format!("R{pair}"), format!("L{pair}"))
                    };
                    match co.submit_sql(&me, &pair_sql(&me, &friend)).unwrap() {
                        Submission::Answered(n) => n,
                        Submission::Pending(mut f) => f
                            .wait_timeout(Duration::from_secs(5))
                            .and_then(CoordinationOutcome::answered)
                            .unwrap(),
                    }
                }));
            }
        }
        let notifications: Vec<MatchNotification> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(notifications.len(), 16);
        assert_eq!(co.pending_count(), 0);
        assert_eq!(co.stats().groups_matched, 8);
        // each pair shares a flight
        let by_id: HashMap<QueryId, &MatchNotification> =
            notifications.iter().map(|n| (n.id, n)).collect();
        for n in &notifications {
            assert_eq!(n.group.len(), 2);
            let partner = n.group.iter().find(|&&g| g != n.id).unwrap();
            let pn = by_id[partner];
            assert_eq!(n.answers[0].1.values()[1], pn.answers[0].1.values()[1]);
        }
    }

    #[test]
    fn recover_drops_matched_and_cancelled_queries() {
        let db = flights_db_wal();
        let co = Coordinator::new(db.clone());
        co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
            .unwrap(); // matches
        let c = co.submit_sql("a", &pair_sql("A", "GhostA")).unwrap();
        co.cancel(c.id()).unwrap();
        co.submit_sql("b", &pair_sql("B", "GhostB")).unwrap(); // survives
        co.expire_before(0); // no-op sweep, logs nothing harmful
        let seq_before = co.current_seq();
        let bytes = db.wal_bytes().unwrap();
        drop(co);

        let (co2, report) =
            Coordinator::recover(Wal::from_bytes(bytes), CoordinatorConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 1);
        let snap = co2.pending_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].owner, "b");
        // answers from the pre-crash match were replayed from storage
        assert_eq!(co2.answers("Reservation").len(), 2);
        // id/seq allocation resumes after the watermark
        assert_eq!(co2.current_seq(), seq_before);
        let next = co2.submit_sql("c", &pair_sql("C", "GhostC")).unwrap();
        assert!(next.id().0 > snap[0].id.0);
    }

    #[test]
    fn reattach_supersedes_previous_future() {
        let co = Coordinator::new(flights_db());
        let mut old = single(
            &co,
            "kramer",
            &pair_sql("Kramer", "Jerry"),
            SubmitOptions::default(),
            Ack::Wait,
        )
        .unwrap();
        let mut fresh = co.reattach("kramer");
        assert_eq!(fresh.len(), 1);
        assert_eq!(
            old.try_take(),
            Some(CoordinationOutcome::Superseded),
            "the replaced handle resolves instead of hanging"
        );
        // the fresh future receives the answer
        co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
            .unwrap();
        let outcome = fresh[0].try_take().unwrap();
        assert!(outcome.answered().is_some());
        // a handle from a blocking-style submit is superseded the same way
        let Submission::Pending(mut h) = co.submit_sql("b", &pair_sql("B", "GhostB")).unwrap()
        else {
            panic!("no partner: must pend")
        };
        assert_eq!(co.reattach("b").len(), 1);
        assert_eq!(h.try_take(), Some(CoordinationOutcome::Superseded));
    }

    /// `expire_due` retires exactly the pending queries whose deadline
    /// has passed, resolves their futures with `Expired`, and leaves
    /// deadline-less queries alone.
    #[test]
    fn expire_due_sweeps_past_deadlines_only() {
        let co = Coordinator::new(flights_db());
        let mut early = single(
            &co,
            "a",
            &pair_sql("A", "GhostA"),
            SubmitOptions::with_deadline(100),
            Ack::Wait,
        )
        .unwrap();
        single(
            &co,
            "b",
            &pair_sql("B", "GhostB"),
            SubmitOptions::with_deadline(200),
            Ack::Wait,
        )
        .unwrap();
        co.submit_sql("c", &pair_sql("C", "GhostC")).unwrap();
        assert_eq!(co.next_deadline(), Some(100));

        assert!(co.expire_due(99).is_empty(), "nothing due yet");
        let expired = co.expire_due(150);
        assert_eq!(expired, vec![early.id()]);
        assert_eq!(early.try_take(), Some(CoordinationOutcome::Expired));
        assert_eq!(co.next_deadline(), Some(200));
        assert_eq!(co.expire_due(1_000).len(), 1);
        assert_eq!(co.pending_count(), 1, "deadline-less query survives");
        assert_eq!(co.next_deadline(), None);
        assert_eq!(co.stats().expired, 2);
    }

    /// A deadline logged at submission survives kill + recover, and a
    /// deadline already past due at recovery time is expired before
    /// any client can reattach to it.
    #[test]
    fn recovery_restores_and_enforces_deadlines() {
        let db = flights_db_wal();
        let co = Coordinator::new(db.clone());
        single(
            &co,
            "a",
            &pair_sql("A", "GhostA"),
            SubmitOptions::with_deadline(100),
            Ack::Wait,
        )
        .unwrap();
        single(
            &co,
            "b",
            &pair_sql("B", "GhostB"),
            SubmitOptions::with_deadline(5_000),
            Ack::Wait,
        )
        .unwrap();
        let bytes = db.wal_bytes().unwrap();
        drop(co);

        // recover "at" t=900: a's deadline (100) lapsed while down
        let clock = Arc::new(MockClock::new(900));
        let (co2, report) = Coordinator::recover_with(
            Wal::from_bytes(bytes),
            CoordinatorConfig::default(),
            None,
            clock.clone(),
        )
        .unwrap();
        assert_eq!(report.restored_pending, 2);
        assert_eq!(report.expired_at_recovery, 1);
        let snap = co2.pending_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].owner, "b");
        assert_eq!(snap[0].deadline, Some(5_000), "deadline rebuilt from log");
        // the recovery-time expiry was logged: a second recovery agrees
        let bytes2 = co2.db().wal_bytes().unwrap();
        drop(co2);
        let (co3, report3) = Coordinator::recover_with(
            Wal::from_bytes(bytes2),
            CoordinatorConfig::default(),
            None,
            clock,
        )
        .unwrap();
        assert_eq!(report3.restored_pending, 1);
        assert_eq!(report3.expired_at_recovery, 0);
        assert_eq!(co3.pending_count(), 1);
    }
}
