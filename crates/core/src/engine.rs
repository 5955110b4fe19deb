//! The match engine: the per-registry coordination logic every shard
//! of the [`crate::ShardedCoordinator`] runs — plus the **coordination
//! log**, the durable event stream that makes the coordinator
//! crash-recoverable.
//!
//! A [`ShardState`] is one independent matching domain: a pending-query
//! registry, the RNG that resolves `CHOOSE` nondeterminism, the parked
//! waiter slots, and counters. The [`Engine`] owns nothing that matching
//! mutates — it borrows a `ShardState` for each operation, and the
//! coordinator holds that shard's mutex around the call.
//!
//! # The coordination log
//!
//! Every registry mutation is recorded as a [`CoordEvent`] in the
//! storage WAL, and nothing that depends on it is acknowledged before
//! the log covers it: registrations, cancellations and expirations are
//! group-committed through the [`Database`] writer, and a
//! [`CoordEvent::MatchCommitted`] frame rides *inside* the storage
//! transaction that inserts the match's answer tuples, so a match and
//! its answers are exactly as durable as each other. Replaying the log
//! (`registered − (matched ∪ cancelled ∪ expired)`) reconstructs the
//! pending set; see `docs/recovery.md`.
//!
//! Each log write is enqueued under the same locks either way; the
//! caller's [`Ack`] decides whether it then waits. [`Ack::Wait`] blocks
//! until the group is durable and keeps today's rollback paths, so
//! whoever the call returns to may acknowledge at once.
//! [`Ack::Pipelined`] returns after the enqueue: the caller holds every
//! acknowledgement until [`Database::durable_lsn`] reaches the
//! [`Database::enqueued_lsn`] it read after the call.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::{Buf, BufMut, BytesMut};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use youtopia_storage::codec::{get_opt_u64, get_str, get_u64, put_opt_u64, put_str};
use youtopia_storage::{
    Column, DataType, Database, Schema, StorageError, StorageResult, Transaction, Tuple,
};

use crate::coordinator::{
    CoordinatorConfig, MatchEdge, MatchGraph, MatchNotification, MatcherKind,
};
use crate::error::{CoreError, CoreResult};
use crate::future::{CoordinationFuture, CoordinationOutcome, TicketShared};
use crate::ir::{QueryId, Term};
use crate::matcher::ground::MembershipCache;
use crate::matcher::{baseline, search, GroupMatch, MatchStats};
use crate::registry::{Pending, Registry};
use crate::tenant::{TenantOutcome, TenantRegistry};
use crate::SystemStats;

/// The audit annotation of a registration frame: the wall-clock submit
/// time and the shard that accepted the query. Present only when the
/// audit sink is enabled ([`crate::AuditConfig`]); with auditing off the
/// frame's stamp presence byte reads "absent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegStamp {
    /// Submit time in clock milliseconds.
    pub at: u64,
    /// Shard index that accepted the query.
    pub shard: u32,
}

/// One durable event of the coordination log.
///
/// Events are encoded into opaque payloads carried by the storage WAL's
/// coordination frames ([`youtopia_storage::WalRecord::Coordination`]).
/// The pending set of a crashed coordinator is exactly
/// `registered − (matched ∪ cancelled ∪ expired)` over its log.
///
/// Each variant has one layout under one tag byte: `QueryRegistered`
/// 10, `QueryCancelled` 11, `QueryExpired` 12, `MatchCommitted` 13,
/// `Watermark` 4. Every optional field is a presence byte followed by
/// its value when present. Any other tag fails [`CoordEvent::decode`]
/// as `WalCorrupt`.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordEvent {
    /// A pending entangled query was registered (logged before the
    /// submission is acknowledged).
    QueryRegistered {
        /// Submitting user.
        owner: String,
        /// Original SQL text (re-compiled on recovery).
        sql: String,
        /// The id the query was registered under.
        qid: QueryId,
        /// Monotonic submission sequence number.
        seq: u64,
        /// Absolute deadline in clock milliseconds, logged so a
        /// recovered coordinator still knows when the query should
        /// die (checkpoints re-emit it with the surviving
        /// registration).
        deadline: Option<u64>,
        /// Audit annotation (submit time + shard); `None` when the
        /// audit sink is disabled.
        stamp: Option<RegStamp>,
    },
    /// A pending query was cancelled by its owner.
    QueryCancelled {
        /// The withdrawn query.
        qid: QueryId,
        /// Cancellation time in clock milliseconds; `None` when the
        /// audit sink is disabled.
        at: Option<u64>,
    },
    /// A pending query was expired by a deadline sweep.
    QueryExpired {
        /// The expired query.
        qid: QueryId,
        /// Expiry time in clock milliseconds; `None` when the audit
        /// sink is disabled.
        at: Option<u64>,
    },
    /// A group match committed. This event is written **inside** the
    /// storage transaction that inserts the match's answer tuples, so
    /// the match and its answers reach the log atomically; the answers
    /// are logged once, as that transaction's storage inserts.
    MatchCommitted {
        /// Every member of the matched group.
        qids: Vec<QueryId>,
        /// Commit time in clock milliseconds; `None` when the audit
        /// sink is disabled.
        at: Option<u64>,
    },
    /// An id/sequence watermark: ids at or below `qid` and sequence
    /// numbers at or below `seq` have been handed out. Written by
    /// coordinator checkpoints, whose compacted logs would otherwise
    /// lose the allocation high-water mark along with the matched
    /// registrations — recovery must never re-issue an id a pre-crash
    /// client may still hold.
    Watermark {
        /// Highest query id allocated so far.
        qid: QueryId,
        /// Highest submission sequence number allocated so far.
        seq: u64,
    },
}

impl CoordEvent {
    /// Serializes the event to the opaque payload stored in a WAL
    /// coordination frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            CoordEvent::QueryRegistered {
                owner,
                sql,
                qid,
                seq,
                deadline,
                stamp,
            } => {
                buf.put_u8(10);
                put_str(&mut buf, owner);
                put_str(&mut buf, sql);
                buf.put_u64(qid.0);
                buf.put_u64(*seq);
                put_opt_u64(&mut buf, *deadline);
                put_opt_u64(&mut buf, stamp.map(|s| s.at));
                if let Some(stamp) = stamp {
                    buf.put_u32(stamp.shard);
                }
            }
            CoordEvent::QueryCancelled { qid, at } => {
                buf.put_u8(11);
                buf.put_u64(qid.0);
                put_opt_u64(&mut buf, *at);
            }
            CoordEvent::QueryExpired { qid, at } => {
                buf.put_u8(12);
                buf.put_u64(qid.0);
                put_opt_u64(&mut buf, *at);
            }
            CoordEvent::MatchCommitted { qids, at } => {
                buf.put_u8(13);
                buf.put_u32(qids.len() as u32);
                for qid in qids {
                    buf.put_u64(qid.0);
                }
                put_opt_u64(&mut buf, *at);
            }
            CoordEvent::Watermark { qid, seq } => {
                buf.put_u8(4);
                buf.put_u64(qid.0);
                buf.put_u64(*seq);
            }
        }
        buf.to_vec()
    }

    /// Decodes an event from a WAL coordination payload.
    pub fn decode(mut payload: &[u8]) -> StorageResult<CoordEvent> {
        let buf = &mut payload;
        if buf.remaining() < 1 {
            return Err(StorageError::WalCorrupt("empty coordination event".into()));
        }
        let event = match buf.get_u8() {
            10 => {
                let owner = get_str(buf)?;
                let sql = get_str(buf)?;
                let qid = QueryId(get_u64(buf)?);
                let seq = get_u64(buf)?;
                let deadline = get_opt_u64(buf)?;
                let stamp = match get_opt_u64(buf)? {
                    Some(at) => {
                        if buf.remaining() < 4 {
                            return Err(StorageError::WalCorrupt("truncated shard".into()));
                        }
                        Some(RegStamp {
                            at,
                            shard: buf.get_u32(),
                        })
                    }
                    None => None,
                };
                CoordEvent::QueryRegistered {
                    owner,
                    sql,
                    qid,
                    seq,
                    deadline,
                    stamp,
                }
            }
            11 => CoordEvent::QueryCancelled {
                qid: QueryId(get_u64(buf)?),
                at: get_opt_u64(buf)?,
            },
            12 => CoordEvent::QueryExpired {
                qid: QueryId(get_u64(buf)?),
                at: get_opt_u64(buf)?,
            },
            13 => {
                if buf.remaining() < 4 {
                    return Err(StorageError::WalCorrupt("truncated member count".into()));
                }
                let n = buf.get_u32() as usize;
                let mut qids = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    qids.push(QueryId(get_u64(buf)?));
                }
                CoordEvent::MatchCommitted {
                    qids,
                    at: get_opt_u64(buf)?,
                }
            }
            4 => CoordEvent::Watermark {
                qid: QueryId(get_u64(buf)?),
                seq: get_u64(buf)?,
            },
            t => {
                return Err(StorageError::WalCorrupt(format!(
                    "unknown coordination event tag {t}"
                )))
            }
        };
        if buf.has_remaining() {
            return Err(StorageError::WalCorrupt(
                "trailing bytes in coordination event".into(),
            ));
        }
        Ok(event)
    }
}

/// How a log write on the submit and cancel paths completes — the
/// second argument of [`crate::ShardedCoordinator::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    /// Block until the group is durable; a failed write rolls back
    /// before anything is acknowledged, so whoever the call returns to
    /// may acknowledge at once.
    Wait,
    /// Return once the group is enqueued: the registration and any
    /// match the arrival completes are enqueued to the WAL writer under
    /// the same locks and in the same order as under [`Ack::Wait`], but
    /// no fsync is awaited. Only a synchronous enqueue failure (a
    /// poisoned writer) rolls back. Nothing the call produced may be
    /// acknowledged until [`Database::durable_lsn`] reaches the
    /// [`Database::enqueued_lsn`] read after it returns.
    ///
    /// In-process caveat: futures the call completes — the returned
    /// one when the arrival closed a group, and the waiting members'
    /// parked ones — resolve, and the match's answer rows are readable,
    /// before the log holds them. Use it only when every future the
    /// coordinator hands out is owned by one caller that applies the
    /// same hold (the network reactor). If the write then fails, those
    /// effects stay in memory without a log record; every later log
    /// write fails, and a restart recovers the log's state.
    Pipelined,
}

/// One registration that survived log replay (never matched, cancelled
/// or expired before the crash).
pub(crate) struct Survivor {
    pub qid: QueryId,
    pub owner: String,
    pub sql: String,
    pub seq: u64,
    /// The logged deadline — recovery restores it into the registry
    /// and immediately expires anything already past due.
    pub deadline: Option<u64>,
}

/// The digest of a replayed coordination log: the registrations that
/// survive (were never matched, cancelled or expired), plus the
/// id/sequence watermarks to restart allocation from.
pub(crate) struct ReplayedLog {
    /// Surviving registrations in submission (seq) order.
    pub survivors: Vec<Survivor>,
    /// Highest query id seen anywhere in the log (0 when empty).
    pub max_qid: u64,
    /// Highest sequence number seen (0 when empty).
    pub max_seq: u64,
    /// Total events decoded.
    pub events: usize,
}

/// Folds a log's coordination payloads into the surviving pending set.
/// Order-insensitive with respect to removal events: a
/// `MatchCommitted`/`QueryCancelled`/`QueryExpired` retires its qid
/// whether it appears before or after the registration frame (batch
/// group-commit may reorder registrations relative to another bucket's
/// match commits).
pub(crate) fn replay_coordination_frames(frames: &[Vec<u8>]) -> CoreResult<ReplayedLog> {
    use std::collections::{BTreeMap, HashSet};
    let mut registered: BTreeMap<u64, (String, String, u64, Option<u64>)> = BTreeMap::new();
    let mut removed: HashSet<u64> = HashSet::new();
    let mut max_qid = 0u64;
    let mut max_seq = 0u64;
    let mut events = 0usize;
    for payload in frames {
        let event = CoordEvent::decode(payload).map_err(CoreError::Storage)?;
        events += 1;
        match event {
            CoordEvent::QueryRegistered {
                owner,
                sql,
                qid,
                seq,
                deadline,
                ..
            } => {
                max_qid = max_qid.max(qid.0);
                max_seq = max_seq.max(seq);
                registered.insert(qid.0, (owner, sql, seq, deadline));
            }
            CoordEvent::QueryCancelled { qid, .. } | CoordEvent::QueryExpired { qid, .. } => {
                max_qid = max_qid.max(qid.0);
                removed.insert(qid.0);
            }
            CoordEvent::MatchCommitted { qids, .. } => {
                for qid in qids {
                    max_qid = max_qid.max(qid.0);
                    removed.insert(qid.0);
                }
            }
            CoordEvent::Watermark { qid, seq } => {
                max_qid = max_qid.max(qid.0);
                max_seq = max_seq.max(seq);
            }
        }
    }
    let mut survivors: Vec<Survivor> = registered
        .into_iter()
        .filter(|(qid, _)| !removed.contains(qid))
        .map(|(qid, (owner, sql, seq, deadline))| Survivor {
            qid: QueryId(qid),
            owner,
            sql,
            seq,
            deadline,
        })
        .collect();
    survivors.sort_by_key(|s| s.seq);
    Ok(ReplayedLog {
        survivors,
        max_qid,
        max_seq,
        events,
    })
}

/// A borrowed apply hook: side effects executed inside the match's
/// storage transaction ([`crate::SharedApplyHook`], lent as a plain
/// `&dyn Fn`).
pub(crate) type HookRef<'a> =
    Option<&'a dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()>>;

/// One independent matching domain: one shard of the coordinator (the
/// whole system when it has one shard).
pub(crate) struct ShardState {
    /// Pending queries of this domain.
    pub registry: Registry,
    /// Membership subquery results reused across this domain's
    /// groundings while the tables they read are unchanged.
    pub memberships: MembershipCache,
    /// Resolves `CHOOSE` nondeterminism for this domain.
    pub rng: StdRng,
    /// Counters local to this domain (merge across shards for totals).
    pub stats: SystemStats,
    /// The parked completion slot of each pending query that has a
    /// live handle. Every path that removes a pending query must
    /// `complete` its slot with the terminal outcome, never drop it
    /// silently — a dropped slot leaves its future pending forever.
    pub waiters: HashMap<QueryId, Arc<TicketShared>>,
    /// Queries answered (removed) since the coordinator last drained
    /// this log; it retires their router memberships with it.
    pub answered_log: Vec<QueryId>,
    /// Match-commit audit events buffered under the shard lock; the
    /// owner flushes them in one storage transaction before releasing
    /// the lock, so a cascade of matches costs one audit transaction
    /// instead of one per group.
    pub audit_pending: Vec<CoordEvent>,
}

impl ShardState {
    pub(crate) fn new(seed: u64) -> ShardState {
        ShardState {
            registry: Registry::new(),
            memberships: MembershipCache::default(),
            rng: StdRng::seed_from_u64(seed),
            stats: SystemStats::default(),
            waiters: HashMap::new(),
            answered_log: Vec::new(),
            audit_pending: Vec::new(),
        }
    }
}

/// The core shared by all shards: configuration + database handle +
/// the coordinator-wide sinks (audit, tenant ledger). All matching
/// state goes through an explicitly borrowed [`ShardState`].
pub(crate) struct Engine {
    pub db: Database,
    pub config: CoordinatorConfig,
    /// The audit sink, when enabled: stamps coordination events with
    /// wall-clock times and mirrors them into the `sys_audit` /
    /// `sys_tenant_latency` system relations.
    pub audit: Option<Arc<crate::audit::AuditSink>>,
    /// Optional per-tenant admission control and ledger. Terminations
    /// are booked here **before** the query's waiter is completed, so
    /// a client that has seen its terminal outcome never reads a
    /// ledger that still counts the query in flight. Lock order:
    /// shard lock → registry.
    pub tenants: Mutex<Option<Arc<TenantRegistry>>>,
}

impl Engine {
    /// The installed tenant registry, if any.
    pub(crate) fn tenants(&self) -> Option<Arc<TenantRegistry>> {
        self.tenants.lock().clone()
    }

    /// The current audit timestamp, or `None` when auditing is off.
    pub(crate) fn audit_now(&self) -> Option<u64> {
        self.audit.as_ref().map(|a| a.now())
    }

    /// Mirrors logged events into the audit relations, in one storage
    /// transaction (no-op when auditing is off).
    pub(crate) fn observe_all(&self, events: &[CoordEvent]) {
        if let Some(audit) = &self.audit {
            audit.observe_batch(events);
        }
    }

    /// Group-commits `events` as one marker-delimited group, waiting
    /// for durability under [`Ack::Wait`] only. No-op without a WAL.
    pub(crate) fn log(&self, events: &[CoordEvent], ack: Ack) -> StorageResult<()> {
        let payloads: Vec<Vec<u8>> = events.iter().map(CoordEvent::encode).collect();
        let lsn = self.db.enqueue_coordination_batch(&payloads)?;
        match ack {
            Ack::Wait => self.db.wait_durable(lsn),
            Ack::Pipelined => Ok(()),
        }
    }

    /// Writes the shard's buffered match-commit audit events in one
    /// batch. Owners call this before releasing the shard lock so
    /// reads that follow the lock observe their own audit rows.
    pub(crate) fn flush_audit(&self, state: &mut ShardState) {
        if state.audit_pending.is_empty() {
            return;
        }
        let events = std::mem::take(&mut state.audit_pending);
        self.observe_all(&events);
    }
}

impl Engine {
    /// Registers an arrived (already safety-checked, namespaced)
    /// pending query and re-matches it: a [`Self::sweep`] of one, so
    /// the arrival cascades through the answers it commits like any
    /// sweep's trigger. Returns the query's handle: already resolved
    /// when the sweep answered it, otherwise parked in the waiter table
    /// — under the caller's lock on `state`, so a completion racing in
    /// from another arrival can never miss it. A group that fails to
    /// ground or to apply leaves the query pending under the sweep's
    /// rule, so its handle is parked too, and a later match resolves it.
    pub(crate) fn process_arrival(
        &self,
        state: &mut ShardState,
        pending: Pending,
        hook: HookRef,
        ack: Ack,
    ) -> CoordinationFuture {
        let qid = pending.id;
        state.registry.insert(pending);
        state.stats.submitted += 1;
        let answered = self.sweep(state, &[qid], hook, ack);
        if let Some(n) = answered.into_iter().find(|n| n.id == qid) {
            return CoordinationFuture::answered(n);
        }
        let shared = Arc::new(TicketShared::default());
        state.waiters.insert(qid, Arc::clone(&shared));
        CoordinationFuture::new(qid, shared)
    }

    /// The one loop that re-matches registered queries. Each of
    /// `triggers`, in the given order, takes one [`Self::step`]; a
    /// match's committed answers may satisfy pending queries'
    /// postconditions ("the system-wide answer relation"), so the
    /// trigger then cascades until quiescent before the next one
    /// starts. Each cascade round's triggers come from
    /// [`cascade_triggers`]: the registry's waiting index names the
    /// queries with a positive constraint filed under a key some fresh
    /// tuple carries, and only those whose constraint then unifies with
    /// a fresh tuple are retried, in ascending id order — the list a
    /// walk of the whole registry would produce, so `CHOOSE` draws do
    /// not depend on how the triggers were found. Returns the
    /// notifications of every query the sweep answered. It cannot fail:
    /// a trigger whose group fails to ground or to apply stays pending
    /// ([`Self::step`]) and the sweep goes on.
    ///
    /// A trigger no committed tuple or pending head can serve costs one
    /// index probe per positive constraint: stage 1 of the matcher
    /// refutes it before any search state is built or any `CHOOSE`
    /// draw is made, and counts it in `triggers_pruned`.
    pub(crate) fn sweep(
        &self,
        state: &mut ShardState,
        triggers: &[QueryId],
        hook: HookRef,
        ack: Ack,
    ) -> Vec<MatchNotification> {
        let mut notifications = Vec::new();
        let mut fresh = Vec::new();
        let mut round = Vec::new();
        for &qid in triggers {
            self.step(state, qid, hook, ack, &mut notifications, &mut fresh);
            while !fresh.is_empty() {
                state.stats.match_work.cascade_scanned +=
                    cascade_triggers(&state.registry, &fresh, &mut round);
                fresh.clear();
                for &qid in &round {
                    self.step(state, qid, hook, ack, &mut notifications, &mut fresh);
                }
            }
        }
        notifications
    }

    /// One re-match of `qid`, unless it is no longer pending (answered
    /// earlier in the sweep, or moved on): [`Self::try_match`], then
    /// [`Self::apply_and_notify`]. A committed match's notifications go
    /// to `notifications` and its answer tuples to `fresh`. Nothing
    /// here fails the sweep: a group that cannot be evaluated is no
    /// match (counted in `grounding_errors`), and a failed apply
    /// reinstates the group, which stays pending (e.g. inventory
    /// exhausted; counted in `applies_rejected`).
    fn step(
        &self,
        state: &mut ShardState,
        qid: QueryId,
        hook: HookRef,
        ack: Ack,
        notifications: &mut Vec<MatchNotification>,
        fresh: &mut Vec<(String, Tuple)>,
    ) {
        if state.registry.get(qid).is_none() {
            return;
        }
        let Some(m) = self.try_match(state, qid) else {
            return;
        };
        let mark = fresh.len();
        fresh.extend(m.all_answers().cloned());
        match self.apply_and_notify(state, m, hook, ack) {
            Ok(answered) => notifications.extend(answered),
            Err(_) => {
                state.stats.applies_rejected += 1;
                fresh.truncate(mark);
            }
        }
    }

    /// Runs the configured matcher for `trigger`. Callers hold the
    /// state's lock; the database is read-locked only for the matching
    /// itself.
    fn try_match(&self, state: &mut ShardState, trigger: QueryId) -> Option<GroupMatch> {
        state.stats.match_attempts += 1;
        let started = Instant::now();
        let result = {
            let read = self.db.read();
            let mut work = MatchStats::default();
            let r = match self.config.matcher {
                MatcherKind::Incremental => search::match_query_with(
                    &state.registry,
                    read.catalog(),
                    trigger,
                    &self.config.match_config,
                    &mut state.rng,
                    &mut state.memberships,
                    &mut work,
                ),
                MatcherKind::Naive => baseline::match_query_naive_with(
                    &state.registry,
                    read.catalog(),
                    trigger,
                    &self.config.match_config,
                    &mut state.rng,
                    &mut state.memberships,
                    &mut work,
                ),
            };
            state.stats.match_work.merge(&work);
            r
        };
        state.stats.matching_nanos += started.elapsed().as_nanos();
        result
    }

    /// Removes the matched queries, applies the match to the database
    /// (answer-relation inserts + apply hook, one transaction, whose
    /// commit waits for the log under [`Ack::Wait`] only), and builds
    /// per-member notifications. On apply failure the members are
    /// re-registered and the error is returned.
    fn apply_and_notify(
        &self,
        state: &mut ShardState,
        m: GroupMatch,
        hook: HookRef,
        ack: Ack,
    ) -> StorageResult<Vec<MatchNotification>> {
        // the caller holds the shard lock from match to apply, so every
        // member the matcher read is still registered
        let removed: Vec<Pending> = m
            .members
            .iter()
            .map(|&qid| state.registry.remove(qid).expect("matched query vanished"))
            .collect();

        let commit_event = CoordEvent::MatchCommitted {
            qids: m.members.clone(),
            at: self.audit_now(),
        };
        let apply_result = (|| -> StorageResult<()> {
            let mut txn = self.db.begin();
            for (relation, tuple) in m.all_answers() {
                ensure_answer_table(&mut txn, relation, tuple)?;
                txn.insert(relation, tuple.clone())?;
            }
            if let Some(hook) = hook {
                hook(&mut txn, &m)?;
            }
            // the match commit rides the same transaction as its answer
            // writes: both reach the WAL atomically, or neither does
            txn.log_coordination(commit_event.encode())?;
            match ack {
                Ack::Wait => txn.commit(),
                Ack::Pipelined => txn.commit_pipelined().map(drop),
            }
        })();

        if let Err(e) = apply_result {
            // put the group back; it stays pending
            for pending in removed {
                state.registry.insert(pending);
            }
            return Err(e);
        }
        if self.audit.is_some() {
            // deferred: the caller flushes the whole drain's commit
            // events in one audit transaction before releasing the
            // shard lock (the ledger is transient and rebuilt from the
            // WAL, so a crash between commit and flush loses nothing)
            state.audit_pending.push(commit_event);
        }

        state.stats.groups_matched += 1;
        state.stats.answered += m.members.len() as u64;
        state.answered_log.extend_from_slice(&m.members);

        let tenants = self.tenants();
        let group = m.members.clone();
        let mut notifications = Vec::with_capacity(group.len());
        for &qid in &m.members {
            let n = MatchNotification {
                id: qid,
                group: group.clone(),
                answers: m.answers.get(&qid).cloned().unwrap_or_default(),
            };
            // ledger before waiter: whoever the completion wakes must
            // already see the query as answered, not in flight
            if let Some(reg) = &tenants {
                reg.finish(qid, TenantOutcome::Answered);
            }
            if let Some(waiter) = state.waiters.remove(&qid) {
                waiter.complete(CoordinationOutcome::Answered(n.clone()));
            }
            notifications.push(n);
        }
        Ok(notifications)
    }

    /// One [`Self::sweep`] over every pending query of this domain, in
    /// ascending id order, waiting for the log. A query that is not
    /// matchable when the sweep reaches it can become matchable later
    /// in the sweep only through answers committed meanwhile (a match
    /// removes pending heads and adds answers), and the cascade already
    /// retries the queries waiting on those, so one sweep leaves
    /// nothing matchable behind.
    pub(crate) fn retry_all(
        &self,
        state: &mut ShardState,
        hook: HookRef,
    ) -> Vec<MatchNotification> {
        let ids: Vec<QueryId> = state.registry.iter().map(|p| p.id).collect();
        self.sweep(state, &ids, hook, Ack::Wait)
    }

    /// The one retirement path for cancellation and expiry: logs the
    /// `why` event of every id (one group commit, waited for under
    /// [`Ack::Wait`]), then removes each from the registry, books the
    /// tenant ledger, and completes its parked waiter with the same
    /// outcome — in that order, so a woken client already reads a
    /// settled ledger. When the log write fails, *nothing* is removed
    /// and the error is returned. Returns the ids actually retired
    /// (ids no longer pending are skipped silently, so callers may race
    /// matches without double-delivery — the registry removal under
    /// the caller's lock is the arbiter); expiries are counted in the
    /// shard's stats.
    pub(crate) fn retire_ids(
        &self,
        state: &mut ShardState,
        ids: &[QueryId],
        why: Retirement,
        ack: Ack,
    ) -> StorageResult<Vec<QueryId>> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let at = self.audit_now();
        let (tenant_outcome, waiter_outcome) = match why {
            Retirement::Cancelled => (TenantOutcome::Cancelled, CoordinationOutcome::Cancelled),
            Retirement::Expired => (TenantOutcome::Expired, CoordinationOutcome::Expired),
        };
        let events: Vec<CoordEvent> = ids
            .iter()
            .map(|&qid| match why {
                Retirement::Cancelled => CoordEvent::QueryCancelled { qid, at },
                Retirement::Expired => CoordEvent::QueryExpired { qid, at },
            })
            .collect();
        self.log(&events, ack)?; // unlogged removals never happen
        let tenants = self.tenants();
        let mut retired = Vec::with_capacity(ids.len());
        for &qid in ids {
            if state.registry.remove(qid).is_none() {
                continue; // already answered/removed under this lock
            }
            if let Some(reg) = &tenants {
                reg.finish(qid, tenant_outcome);
            }
            if let Some(waiter) = state.waiters.remove(&qid) {
                waiter.complete(waiter_outcome.clone());
            }
            retired.push(qid);
        }
        if why == Retirement::Expired {
            state.stats.expired += retired.len() as u64;
        }
        // the sink's open-entry map arbitrates ids that were already
        // answered (their entry is gone), so observing the whole batch
        // mirrors exactly what log replay would rebuild
        self.observe_all(&events);
        Ok(retired)
    }
}

/// One cascade round's triggers, into `out` (cleared first): the
/// pending queries with a positive constraint that unifies with some
/// tuple of `fresh`, ascending by id. The waiting index proposes a
/// superset ([`Registry::waiting_on`]); after sorting and
/// deduplication, [`waits_on_fresh`] keeps exactly the queries a walk
/// of the registry would keep. Returns the number of postings drawn
/// from the index (`MatchStats::cascade_scanned`).
fn cascade_triggers(registry: &Registry, fresh: &[(String, Tuple)], out: &mut Vec<QueryId>) -> u64 {
    out.clear();
    for (relation, tuple) in fresh {
        registry.waiting_on(relation, tuple.values(), out);
    }
    let drawn = out.len() as u64;
    out.sort_unstable();
    out.dedup();
    out.retain(|&qid| registry.get(qid).is_some_and(|p| waits_on_fresh(p, fresh)));
    drawn
}

/// The cascade's trigger predicate: some positive constraint of `p`
/// unifies with some fresh tuple (same relation up to ASCII case, same
/// arity, every term unifiable with the tuple's value).
fn waits_on_fresh(p: &Pending, fresh: &[(String, Tuple)]) -> bool {
    p.query.constraints.iter().filter(|c| !c.negated).any(|c| {
        fresh.iter().any(|(rel, tuple)| {
            c.atom.relation.eq_ignore_ascii_case(rel) && c.atom.arity() == tuple.arity() && {
                let mut s = crate::unify::Subst::new();
                c.atom
                    .terms
                    .iter()
                    .zip(tuple.values())
                    .all(|(t, v)| s.unify_terms(t, &Term::Const(v.clone())))
            }
        })
    })
}

/// Why [`Engine::retire_ids`] removes a pending query without an
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retirement {
    /// Withdrawn by its owner.
    Cancelled,
    /// Retired by an expiry sweep.
    Expired,
}

impl Engine {
    /// Reads the current content of an answer relation (empty when no
    /// match has touched it yet, or the table does not exist).
    pub(crate) fn answers(&self, relation: &str) -> Vec<Tuple> {
        let read = self.db.read();
        match read.table(relation) {
            Ok(t) => t.scan().map(|(_, tuple)| tuple.clone()).collect(),
            Err(_) => Vec::new(),
        }
    }
}

/// The potential-satisfaction edges and dangling constraints of one
/// registry — the per-domain slice of the admin interface's match
/// graph (§3.2).
pub(crate) fn match_graph_of(registry: &Registry) -> MatchGraph {
    let mut edges = Vec::new();
    let mut dangling = Vec::new();
    for pending in registry.iter() {
        for (cidx, constraint) in pending.query.constraints.iter().enumerate() {
            if constraint.negated {
                continue;
            }
            let mut found = false;
            for href in registry.candidates_for(&constraint.atom) {
                let Some(head) = registry.head(href) else {
                    continue;
                };
                let mut s = crate::unify::Subst::new();
                if s.unify_atoms(&constraint.atom, head) {
                    edges.push(MatchEdge {
                        from: pending.id,
                        constraint: constraint.atom.to_string(),
                        to: href.qid,
                        head: head.to_string(),
                    });
                    found = true;
                }
            }
            if !found {
                dangling.push((pending.id, cidx, constraint.atom.to_string()));
            }
        }
    }
    MatchGraph { edges, dangling }
}

/// Creates the answer-relation table on first use, and gives each of
/// its columns a single-column index (`{relation}_by_{column}`) when it
/// has none, so committed-answer lookups probe a posting rather than
/// scan (`matcher::committed`). Columns are named `c0..cN-1`, typed
/// from the first inserted tuple, all nullable (answer relations are
/// system tables; applications may pre-create them with richer schemas,
/// in which case only the arity must agree). The DDL rides the match's
/// transaction: a failed apply takes it back with the rows.
pub(crate) fn ensure_answer_table(
    txn: &mut Transaction,
    relation: &str,
    first: &Tuple,
) -> StorageResult<()> {
    if !txn.catalog().has_table(relation) {
        let columns: Vec<Column> = first
            .values()
            .iter()
            .enumerate()
            .map(|(i, v)| Column {
                name: format!("c{i}"),
                ty: v.data_type().unwrap_or(DataType::Str),
                nullable: true,
            })
            .collect();
        txn.create_table(relation, Schema::new(columns))?;
    }
    let table = txn.catalog().table(relation)?;
    let missing: Vec<(String, String)> = (table.schema().columns().iter().enumerate())
        .filter(|&(pos, _)| table.find_index_on(&[pos]).is_none())
        .map(|(_, c)| {
            let name = format!("{}_by_{}", table.name().to_ascii_lowercase(), c.name);
            (name, c.name.clone())
        })
        .filter(|(name, _)| table.index(name).is_none())
        .collect();
    for (name, column) in missing {
        txn.create_index(relation, &name, &[column.as_str()], false)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::Value;

    fn sample_events() -> Vec<CoordEvent> {
        vec![
            CoordEvent::QueryRegistered {
                owner: "kramer".into(),
                sql: "SELECT 'K', fno INTO ANSWER R CHOOSE 1".into(),
                qid: QueryId(7),
                seq: 3,
                deadline: None,
                stamp: None,
            },
            CoordEvent::QueryRegistered {
                owner: "newman".into(),
                sql: "SELECT 'N', fno INTO ANSWER R CHOOSE 1".into(),
                qid: QueryId(8),
                seq: 4,
                deadline: Some(1_234_567),
                stamp: None,
            },
            // audit-stamped registrations, with and without a deadline
            CoordEvent::QueryRegistered {
                owner: "elaine".into(),
                sql: "SELECT 'E', fno INTO ANSWER R CHOOSE 1".into(),
                qid: QueryId(9),
                seq: 5,
                deadline: Some(2_000_000),
                stamp: Some(RegStamp {
                    at: 1_999_000,
                    shard: 3,
                }),
            },
            CoordEvent::QueryRegistered {
                owner: "george".into(),
                sql: "SELECT 'G', fno INTO ANSWER R CHOOSE 1".into(),
                qid: QueryId(10),
                seq: 6,
                deadline: None,
                stamp: Some(RegStamp { at: 77, shard: 0 }),
            },
            CoordEvent::QueryCancelled {
                qid: QueryId(7),
                at: None,
            },
            CoordEvent::QueryCancelled {
                qid: QueryId(7),
                at: Some(123),
            },
            CoordEvent::QueryExpired {
                qid: QueryId(9),
                at: None,
            },
            CoordEvent::QueryExpired {
                qid: QueryId(9),
                at: Some(456),
            },
            CoordEvent::MatchCommitted {
                qids: vec![QueryId(1), QueryId(2)],
                at: None,
            },
            CoordEvent::MatchCommitted {
                qids: vec![QueryId(3)],
                at: Some(789),
            },
            CoordEvent::Watermark {
                qid: QueryId(42),
                seq: 17,
            },
        ]
    }

    #[test]
    fn coord_events_roundtrip() {
        for event in sample_events() {
            let decoded = CoordEvent::decode(&event.encode()).unwrap();
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn coord_event_decode_rejects_garbage() {
        assert!(CoordEvent::decode(&[]).is_err());
        assert!(CoordEvent::decode(&[250]).is_err());
        // truncations of every valid event fail cleanly, never panic
        for event in sample_events() {
            let bytes = event.encode();
            for cut in 0..bytes.len() {
                assert!(
                    CoordEvent::decode(&bytes[..cut]).is_err(),
                    "truncated event decoded"
                );
            }
            // trailing garbage is rejected too
            let mut extended = bytes.clone();
            extended.push(0);
            assert!(CoordEvent::decode(&extended).is_err());
        }
    }

    #[test]
    fn replay_folds_out_matched_cancelled_expired() {
        let reg = |qid: u64, seq: u64| CoordEvent::QueryRegistered {
            owner: format!("u{qid}"),
            sql: format!("q{qid}"),
            qid: QueryId(qid),
            seq,
            deadline: qid.is_multiple_of(2).then_some(qid * 100),
            stamp: None,
        };
        let frames: Vec<Vec<u8>> = [
            reg(1, 1),
            reg(2, 2),
            reg(3, 3),
            reg(4, 4),
            CoordEvent::MatchCommitted {
                qids: vec![QueryId(1), QueryId(3)],
                at: None,
            },
            CoordEvent::QueryCancelled {
                qid: QueryId(2),
                at: None,
            },
            reg(5, 5),
            CoordEvent::QueryExpired {
                qid: QueryId(4),
                at: None,
            },
        ]
        .iter()
        .map(CoordEvent::encode)
        .collect();
        let replayed = replay_coordination_frames(&frames).unwrap();
        assert_eq!(replayed.events, 8);
        assert_eq!(replayed.max_qid, 5);
        assert_eq!(replayed.max_seq, 5);
        let ids: Vec<u64> = replayed.survivors.iter().map(|s| s.qid.0).collect();
        assert_eq!(ids, vec![5]);
        assert_eq!(replayed.survivors[0].deadline, None);
    }

    #[test]
    fn replay_restores_logged_deadlines() {
        let frames: Vec<Vec<u8>> = [
            CoordEvent::QueryRegistered {
                owner: "a".into(),
                sql: "qa".into(),
                qid: QueryId(1),
                seq: 1,
                deadline: Some(500),
                stamp: None,
            },
            CoordEvent::QueryRegistered {
                owner: "b".into(),
                sql: "qb".into(),
                qid: QueryId(2),
                seq: 2,
                deadline: None,
                stamp: None,
            },
        ]
        .iter()
        .map(CoordEvent::encode)
        .collect();
        let replayed = replay_coordination_frames(&frames).unwrap();
        assert_eq!(replayed.survivors.len(), 2);
        assert_eq!(replayed.survivors[0].deadline, Some(500));
        assert_eq!(replayed.survivors[1].deadline, None);
    }

    #[test]
    fn stamped_frames_replay_like_unstamped_ones() {
        // the audit stamp is invisible to pending-set replay: the same
        // survivors fall out whether frames carry stamps or not
        let frames: Vec<Vec<u8>> = [
            CoordEvent::QueryRegistered {
                owner: "a".into(),
                sql: "qa".into(),
                qid: QueryId(1),
                seq: 1,
                deadline: Some(500),
                stamp: Some(RegStamp { at: 100, shard: 2 }),
            },
            CoordEvent::QueryRegistered {
                owner: "b".into(),
                sql: "qb".into(),
                qid: QueryId(2),
                seq: 2,
                deadline: None,
                stamp: Some(RegStamp { at: 101, shard: 0 }),
            },
            CoordEvent::QueryCancelled {
                qid: QueryId(2),
                at: Some(150),
            },
        ]
        .iter()
        .map(CoordEvent::encode)
        .collect();
        let replayed = replay_coordination_frames(&frames).unwrap();
        assert_eq!(replayed.survivors.len(), 1);
        assert_eq!(replayed.survivors[0].qid, QueryId(1));
        assert_eq!(replayed.survivors[0].deadline, Some(500));
    }

    #[test]
    fn watermark_raises_allocation_floors_without_registering() {
        let frames: Vec<Vec<u8>> = [
            CoordEvent::Watermark {
                qid: QueryId(90),
                seq: 70,
            },
            CoordEvent::QueryRegistered {
                owner: "a".into(),
                sql: "q".into(),
                qid: QueryId(3),
                seq: 2,
                deadline: None,
                stamp: None,
            },
        ]
        .iter()
        .map(CoordEvent::encode)
        .collect();
        let replayed = replay_coordination_frames(&frames).unwrap();
        assert_eq!(replayed.max_qid, 90);
        assert_eq!(replayed.max_seq, 70);
        assert_eq!(replayed.survivors.len(), 1);
    }

    #[test]
    fn replay_is_order_insensitive_for_removals() {
        // a batch group-commit can reorder registrations relative to
        // another bucket's match commit: removal-before-registration
        // must still retire the query
        let frames: Vec<Vec<u8>> = [
            CoordEvent::MatchCommitted {
                qids: vec![QueryId(2)],
                at: None,
            },
            CoordEvent::QueryRegistered {
                owner: "a".into(),
                sql: "q".into(),
                qid: QueryId(2),
                seq: 1,
                deadline: None,
                stamp: None,
            },
        ]
        .iter()
        .map(CoordEvent::encode)
        .collect();
        let replayed = replay_coordination_frames(&frames).unwrap();
        assert!(replayed.survivors.is_empty());
    }

    // ------------------------------------------------------------------ //
    // The cascade's triggers: waiting index == registry walk
    // ------------------------------------------------------------------ //

    use proptest::prelude::*;

    use crate::ir::{AnswerConstraint, Atom, EntangledQuery};

    /// The oracle: the walk the cascade used to run after every match —
    /// every pending query, in id order, kept when [`waits_on_fresh`].
    fn cascade_triggers_by_walk(registry: &Registry, fresh: &[(String, Tuple)]) -> Vec<QueryId> {
        registry
            .iter()
            .filter(|p| waits_on_fresh(p, fresh))
            .map(|p| p.id)
            .collect()
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::from("A")),
            Just(Value::from("B")),
            Just(Value::Int(0)),
            Just(Value::Int(3)),
            Just(Value::Float(3.0)),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
        ]
    }

    /// Relation names that differ only in case, and one that differs.
    fn arb_relation() -> impl Strategy<Value = String> {
        prop_oneof![Just("R"), Just("r"), Just("S")].prop_map(String::from)
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            arb_value().prop_map(Term::Const),
            // a small variable pool, so a constraint may repeat one
            (0u8..2).prop_map(|i| Term::var(format!("v{i}"))),
        ]
    }

    /// A positive or (one time in four) negated constraint of arity
    /// 1–3; all-variable constraints come up on their own.
    fn arb_constraint() -> impl Strategy<Value = AnswerConstraint> {
        (
            arb_relation(),
            proptest::collection::vec(arb_term(), 1..4),
            0u8..4,
        )
            .prop_map(|(relation, terms, n)| AnswerConstraint {
                atom: Atom::new(relation, terms),
                negated: n == 0,
            })
    }

    fn arb_fresh() -> impl Strategy<Value = Vec<(String, Tuple)>> {
        proptest::collection::vec(
            (arb_relation(), proptest::collection::vec(arb_value(), 1..4))
                .prop_map(|(relation, values)| (relation, Tuple::new(values))),
            1..5,
        )
    }

    fn waiting_query(id: u64, constraints: &[AnswerConstraint]) -> Pending {
        let qid = QueryId(id);
        let query = EntangledQuery {
            heads: vec![Atom::new("R", vec![Term::var("v0")])],
            memberships: Vec::new(),
            filters: Vec::new(),
            constraints: constraints.to_vec(),
            choose: 1,
            sql: String::new(),
        };
        Pending {
            id: qid,
            owner: format!("u{id}"),
            query: query.namespaced(qid),
            seq: id,
            deadline: None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The waiting index yields the walk's trigger list, element for
        /// element and in order, across rounds that remove and
        /// re-insert queries — so every `CHOOSE` draw of a cascade is
        /// what the walk would have drawn.
        #[test]
        fn cascade_triggers_by_index_equal_the_walk(
            queries in proptest::collection::vec(
                proptest::collection::vec(arb_constraint(), 0..4),
                1..12,
            ),
            rounds in proptest::collection::vec(
                (arb_fresh(), proptest::collection::vec(0usize..12, 0..4)),
                1..5,
            ),
        ) {
            let mut registry = Registry::new();
            for (i, constraints) in queries.iter().enumerate() {
                registry.insert(waiting_query(i as u64 + 1, constraints));
            }
            let mut by_index = Vec::new();
            for (fresh, toggles) in &rounds {
                cascade_triggers(&registry, fresh, &mut by_index);
                prop_assert_eq!(&by_index, &cascade_triggers_by_walk(&registry, fresh));
                // removes and re-inserts between rounds
                for &t in toggles {
                    let i = t % queries.len();
                    let qid = QueryId(i as u64 + 1);
                    if registry.remove(qid).is_none() {
                        registry.insert(waiting_query(qid.0, &queries[i]));
                    }
                }
                registry.check_index_invariants();
            }
        }
    }

    /// The cascade after a match reads the postings filed under the
    /// fresh tuples' keys and nothing else: queries waiting on other
    /// partners on the same relation cost it nothing, however many.
    #[test]
    fn cascade_scan_is_independent_of_standing_queries() {
        use crate::shard::testing::single;
        use crate::{compile_sql, CoordinationOutcome, Coordinator, SubmitOptions};
        use youtopia_exec::run_sql;

        let request = |me: &str, friends: &[&str]| {
            let mut sql = format!(
                "SELECT '{me}', fno INTO ANSWER Reservation \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')"
            );
            for friend in friends {
                sql.push_str(&format!(" AND ('{friend}', fno) IN ANSWER Reservation"));
            }
            sql + " CHOOSE 1"
        };
        let cascade_scanned_over = |standing: usize| {
            let db = Database::new();
            run_sql(
                &db,
                "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
            )
            .unwrap();
            run_sql(&db, "INSERT INTO Flights VALUES (122, 'Paris')").unwrap();
            let co = Coordinator::new(db);
            let noise = (0..standing)
                .map(|i| {
                    let sql = request(&format!("N{i}"), &[&format!("Ghost{i}")]);
                    (format!("n{i}"), compile_sql(&sql), SubmitOptions::default())
                })
                .collect();
            co.submit(noise, Ack::Wait);
            // waits on Jerry's tuple alone: the pair's commit answers it
            let mut follower = single(
                &co,
                "elaine",
                &request("Elaine", &["Jerry"]),
                SubmitOptions::default(),
                Ack::Wait,
            )
            .unwrap();
            co.submit_sql("kramer", &request("Kramer", &["Jerry"]))
                .unwrap();
            co.submit_sql("jerry", &request("Jerry", &["Kramer"]))
                .unwrap()
                .answered()
                .expect("the pair matches");
            assert!(matches!(
                follower.try_take(),
                Some(CoordinationOutcome::Answered(_))
            ));
            assert_eq!(co.pending_count(), standing);
            co.stats().match_work.cascade_scanned
        };
        let small = cascade_scanned_over(100);
        assert_eq!(small, 1, "one posting: Elaine's, under 'Jerry'");
        assert_eq!(cascade_scanned_over(10_000), small);
    }
}
