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

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use bytes::{Buf, BufMut, BytesMut};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use youtopia_storage::codec::{get_str, get_u64, put_str};
use youtopia_storage::{
    Catalog, Column, DataType, Database, Schema, StorageError, StorageResult, Transaction, Tuple,
    Value,
};

use crate::coordinator::{
    CoordinatorConfig, MatchEdge, MatchGraph, MatchNotification, MatcherKind,
};
use crate::error::{CoreError, CoreResult};
use crate::future::{CoordinationFuture, CoordinationOutcome, TicketShared};
use crate::ir::{Atom, QueryId, Term};
use crate::matcher::ground::MembershipCache;
use crate::matcher::{baseline, search, GroupMatch, MatchStats};
use crate::registry::{index_key, Pending, Registry};
use crate::tenant::{TenantOutcome, TenantRegistry};
use crate::SystemStats;

/// The audit annotation of a registration frame: the wall-clock submit
/// time and the shard that accepted the query. Present only when the
/// audit sink is enabled ([`crate::AuditConfig`]); frames written with
/// auditing off carry no stamp and stay byte-identical to the
/// pre-audit encodings.
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
#[derive(Debug, Clone, PartialEq)]
pub enum CoordEvent {
    /// A pending entangled query was registered (logged before the
    /// submission is acknowledged).
    ///
    /// Three wire encodings exist: **v1** (tag 0, no deadline — every
    /// frame written before the deadline-lifecycle PR), **v2**
    /// (tag 5, carrying the absolute deadline), and **v3** (tag 6,
    /// carrying an optional deadline plus the audit [`RegStamp`]).
    /// Encoding picks the oldest tag that can represent the event, so
    /// stamp-less logs stay byte-identical to the old formats;
    /// decoding accepts all three.
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
        /// Cancellation time in clock milliseconds (tag 7 on the
        /// wire); `None` when the audit sink is disabled (tag 1,
        /// byte-identical to the pre-audit encoding).
        at: Option<u64>,
    },
    /// A pending query was expired by a deadline sweep.
    QueryExpired {
        /// The expired query.
        qid: QueryId,
        /// Expiry time in clock milliseconds (tag 8 on the wire);
        /// `None` when the audit sink is disabled (tag 2).
        at: Option<u64>,
    },
    /// A group match committed. This event is written **inside** the
    /// storage transaction that inserts `answer_writes`, so the match
    /// and its answers reach the log atomically.
    MatchCommitted {
        /// Every member of the matched group.
        qids: Vec<QueryId>,
        /// The `(relation, tuple)` answer writes of the match. Recovery
        /// rebuilds answers from the storage frames of the same
        /// transaction, so this duplicates them — deliberately: it
        /// makes the coordination log self-contained (future
        /// notification re-delivery on `reattach`, audit without
        /// storage replay), and checkpointing drops it with the rest
        /// of the matched history.
        answer_writes: Vec<(String, Tuple)>,
        /// Commit time in clock milliseconds (tag 9 on the wire);
        /// `None` when the audit sink is disabled (tag 3).
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
                // oldest representable tag: v1 (tag 0) with neither
                // deadline nor stamp — byte-identical to the
                // pre-deadline format; v2 (tag 5) appends the
                // deadline; v3 (tag 6) carries a deadline-presence
                // flag plus the audit stamp
                if let Some(stamp) = stamp {
                    buf.put_u8(6);
                    put_str(&mut buf, owner);
                    put_str(&mut buf, sql);
                    buf.put_u64(qid.0);
                    buf.put_u64(*seq);
                    match deadline {
                        Some(deadline) => {
                            buf.put_u8(1);
                            buf.put_u64(*deadline);
                        }
                        None => buf.put_u8(0),
                    }
                    buf.put_u64(stamp.at);
                    buf.put_u32(stamp.shard);
                } else {
                    buf.put_u8(if deadline.is_some() { 5 } else { 0 });
                    put_str(&mut buf, owner);
                    put_str(&mut buf, sql);
                    buf.put_u64(qid.0);
                    buf.put_u64(*seq);
                    if let Some(deadline) = deadline {
                        buf.put_u64(*deadline);
                    }
                }
            }
            CoordEvent::QueryCancelled { qid, at } => {
                buf.put_u8(if at.is_some() { 7 } else { 1 });
                buf.put_u64(qid.0);
                if let Some(at) = at {
                    buf.put_u64(*at);
                }
            }
            CoordEvent::QueryExpired { qid, at } => {
                buf.put_u8(if at.is_some() { 8 } else { 2 });
                buf.put_u64(qid.0);
                if let Some(at) = at {
                    buf.put_u64(*at);
                }
            }
            CoordEvent::MatchCommitted {
                qids,
                answer_writes,
                at,
            } => {
                buf.put_u8(if at.is_some() { 9 } else { 3 });
                buf.put_u32(qids.len() as u32);
                for qid in qids {
                    buf.put_u64(qid.0);
                }
                buf.put_u32(answer_writes.len() as u32);
                for (relation, tuple) in answer_writes {
                    put_str(&mut buf, relation);
                    let enc = tuple.encode();
                    buf.put_u32(enc.len() as u32);
                    buf.put_slice(&enc);
                }
                if let Some(at) = at {
                    buf.put_u64(*at);
                }
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
        let tag = buf.get_u8();
        let event = match tag {
            0 | 5 | 6 => {
                let owner = get_str(buf)?;
                let sql = get_str(buf)?;
                let qid = QueryId(get_u64(buf)?);
                let seq = get_u64(buf)?;
                let deadline = match tag {
                    5 => Some(get_u64(buf)?),
                    6 => {
                        if buf.remaining() < 1 {
                            return Err(StorageError::WalCorrupt("truncated deadline flag".into()));
                        }
                        match buf.get_u8() {
                            0 => None,
                            1 => Some(get_u64(buf)?),
                            f => {
                                return Err(StorageError::WalCorrupt(format!(
                                    "bad deadline flag {f}"
                                )))
                            }
                        }
                    }
                    _ => None, // v1 frame: registered before deadlines existed
                };
                let stamp = if tag == 6 {
                    let at = get_u64(buf)?;
                    if buf.remaining() < 4 {
                        return Err(StorageError::WalCorrupt("truncated shard".into()));
                    }
                    Some(RegStamp {
                        at,
                        shard: buf.get_u32(),
                    })
                } else {
                    None
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
            1 | 7 => CoordEvent::QueryCancelled {
                qid: QueryId(get_u64(buf)?),
                at: if tag == 7 { Some(get_u64(buf)?) } else { None },
            },
            2 | 8 => CoordEvent::QueryExpired {
                qid: QueryId(get_u64(buf)?),
                at: if tag == 8 { Some(get_u64(buf)?) } else { None },
            },
            3 | 9 => {
                if buf.remaining() < 4 {
                    return Err(StorageError::WalCorrupt("truncated member count".into()));
                }
                let n = buf.get_u32() as usize;
                let mut qids = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    qids.push(QueryId(get_u64(buf)?));
                }
                if buf.remaining() < 4 {
                    return Err(StorageError::WalCorrupt("truncated answer count".into()));
                }
                let n = buf.get_u32() as usize;
                let mut answer_writes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let relation = get_str(buf)?;
                    if buf.remaining() < 4 {
                        return Err(StorageError::WalCorrupt("truncated tuple length".into()));
                    }
                    let len = buf.get_u32() as usize;
                    if buf.remaining() < len {
                        return Err(StorageError::WalCorrupt("truncated tuple body".into()));
                    }
                    let tuple = Tuple::decode(&buf[..len])?;
                    buf.advance(len);
                    answer_writes.push((relation, tuple));
                }
                CoordEvent::MatchCommitted {
                    qids,
                    answer_writes,
                    at: if tag == 9 { Some(get_u64(buf)?) } else { None },
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
    pub(crate) fn new(use_const_index: bool, seed: u64) -> ShardState {
        let registry = if use_const_index {
            Registry::new()
        } else {
            Registry::without_const_index()
        };
        ShardState {
            registry,
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

    /// The current audit timestamp, or `None` when auditing is off —
    /// events built with this stamp encode to the pre-audit byte
    /// format exactly when the sink is disabled.
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
    /// pending query and runs arrival-driven matching, cascading
    /// through freshly committed answers until quiescent. Returns the
    /// query's handle: already resolved when the arrival completed a
    /// group, otherwise parked in the waiter table — under the
    /// caller's lock on `state`, so a completion racing in from
    /// another arrival can never miss it.
    pub(crate) fn process_arrival(
        &self,
        state: &mut ShardState,
        pending: Pending,
        hook: HookRef,
        ack: Ack,
    ) -> CoreResult<CoordinationFuture> {
        let qid = pending.id;
        state.registry.insert(pending);
        state.stats.submitted += 1;

        let Some(m) = self.try_match(state, qid)? else {
            let shared = Arc::new(TicketShared::default());
            state.waiters.insert(qid, Arc::clone(&shared));
            return Ok(CoordinationFuture::new(qid, shared));
        };
        let fresh: Vec<(String, Tuple)> = m.all_answers().cloned().collect();
        let n = self
            .apply_and_notify(state, m, hook, ack)?
            .into_iter()
            .find(|n| n.id == qid)
            .ok_or_else(|| CoreError::Internal("trigger missing from its own match".into()))?;
        // Newly committed answers may satisfy pending queries'
        // postconditions ("the system-wide answer relation"):
        // cascade until quiescent.
        self.cascade(state, fresh, hook, ack)?;
        Ok(CoordinationFuture::answered(n))
    }

    /// Re-runs matching for pending queries that freshly committed
    /// answer tuples may have made matchable, repeating until no
    /// further matches fire. Each round's triggers come from
    /// [`cascade_triggers`]: the registry's waiting index names the
    /// queries with a positive constraint filed under a key some fresh
    /// tuple carries (the candidate index answers the opposite question
    /// for the matcher), and only those whose constraint then unifies
    /// with a fresh tuple are retried, in ascending id order. That is
    /// the list a walk of the whole registry would produce, in the same
    /// order, so `CHOOSE` draws do not depend on how the triggers were
    /// found; the work no longer grows with the number of queries
    /// waiting on other keys. Apply failures (e.g. inventory races)
    /// leave the group pending and do not abort the cascade.
    pub(crate) fn cascade(
        &self,
        state: &mut ShardState,
        mut fresh: Vec<(String, Tuple)>,
        hook: HookRef,
        ack: Ack,
    ) -> CoreResult<()> {
        if !self.config.match_config.use_committed_answers {
            return Ok(());
        }
        let mut triggers = Vec::new();
        while !fresh.is_empty() {
            state.stats.match_work.cascade_scanned +=
                cascade_triggers(&state.registry, &fresh, &mut triggers);
            fresh.clear();
            for &qid in &triggers {
                if state.registry.get(qid).is_none() {
                    continue; // answered earlier in this round
                }
                if let Some(m) = self.try_match(state, qid)? {
                    let new_tuples: Vec<(String, Tuple)> = m.all_answers().cloned().collect();
                    match self.apply_and_notify(state, m, hook, ack) {
                        Ok(_) => fresh.extend(new_tuples),
                        Err(CoreError::Storage(_)) => {
                            // group reinstated by apply_and_notify; it
                            // stays pending (e.g. inventory exhausted)
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the configured matcher for `trigger`. Callers hold the
    /// state's lock; the database is read-locked only for the matching
    /// itself.
    pub(crate) fn try_match(
        &self,
        state: &mut ShardState,
        trigger: QueryId,
    ) -> CoreResult<Option<GroupMatch>> {
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
    /// re-registered and the error propagates.
    pub(crate) fn apply_and_notify(
        &self,
        state: &mut ShardState,
        m: GroupMatch,
        hook: HookRef,
        ack: Ack,
    ) -> CoreResult<Vec<MatchNotification>> {
        let mut removed = Vec::with_capacity(m.members.len());
        for &qid in &m.members {
            let pending = state
                .registry
                .remove(qid)
                .ok_or_else(|| CoreError::Internal(format!("matched query {qid} vanished")))?;
            removed.push(pending);
        }

        let commit_event = CoordEvent::MatchCommitted {
            qids: m.members.clone(),
            answer_writes: m.all_answers().cloned().collect(),
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
            return Err(CoreError::Storage(e));
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

    /// Retries matching for every pending query of this domain until a
    /// full sweep fires no match. Returns the notifications of all
    /// queries answered by the sweep.
    ///
    /// Index-first pruning: before each round the candidate index and a
    /// value-keyed probe of the committed answer relations identify
    /// provably-unmatchable triggers, which are skipped without ever
    /// taking the db read lock. The skip set is recomputed after every
    /// fired match (a commit can make a skipped trigger viable), so a
    /// skipped `try_match` is always one that would have returned
    /// `None` — the sweep's outcome is bit-identical to the unpruned
    /// sweep.
    pub(crate) fn retry_all(
        &self,
        state: &mut ShardState,
        hook: HookRef,
    ) -> CoreResult<Vec<MatchNotification>> {
        let mut notifications = Vec::new();
        loop {
            let pending_ids: Vec<QueryId> = state.registry.iter().map(|p| p.id).collect();
            let mut skip = self.prunable_triggers(state);
            let mut matched_any = false;
            for qid in pending_ids {
                if state.registry.get(qid).is_none() {
                    continue; // answered earlier in this sweep
                }
                if skip.contains(&qid) {
                    state.stats.match_work.triggers_pruned += 1;
                    continue;
                }
                if let Some(m) = self.try_match(state, qid)? {
                    notifications.extend(self.apply_and_notify(state, m, hook, Ack::Wait)?);
                    matched_any = true;
                    skip = self.prunable_triggers(state);
                }
            }
            if !matched_any {
                return Ok(notifications);
            }
        }
    }

    /// The pending queries that provably cannot match right now: some
    /// positive obligation has neither a pending candidate head
    /// (candidate-index emptiness — a superset of the unifiable heads)
    /// nor a committed tuple compatible with its constants
    /// ([`CommittedProbe`]). Sound for both matchers: every positive
    /// constraint needs *some* provider, and both tests only report
    /// "no" when no provider can exist.
    pub(crate) fn prunable_triggers(&self, state: &ShardState) -> HashSet<QueryId> {
        let mut out = HashSet::new();
        if !state.registry.uses_const_index() {
            return out; // index ablation: sweep every trigger
        }
        let use_committed = self.config.match_config.use_committed_answers;
        let read = self.db.read();
        let probe = if use_committed {
            let rels = state.registry.iter().flat_map(|p| {
                p.query
                    .constraints
                    .iter()
                    .filter(|c| !c.negated)
                    .map(|c| c.atom.relation.as_str())
            });
            Some(CommittedProbe::build(read.catalog(), rels))
        } else {
            None
        };
        for p in state.registry.iter() {
            let unmatchable = p.query.constraints.iter().filter(|c| !c.negated).any(|c| {
                !state.registry.has_candidates(&c.atom)
                    && probe.as_ref().is_none_or(|pr| !pr.may_satisfy(&c.atom))
            });
            if unmatchable {
                out.insert(p.id);
            }
        }
        out
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

/// Value-keyed summary of the committed tuples of a set of relations,
/// used by the re-match sweep to refute "a committed tuple could
/// satisfy this constraint" without rescanning tables per trigger.
///
/// Per relation it records the arities seen and, per position, the
/// [`index_key`]s of the stored values — the registry's canonical key,
/// under which unify-equal values (`sql_eq || ==`, e.g. `Int(3)` and
/// `Float(3.0)`) coincide. The per-position test is therefore a
/// superset of unify-equality: the probe may say "maybe" for a tuple
/// that does not unify, but never "no" for one that does.
pub(crate) struct CommittedProbe {
    relations: HashMap<String, RelationProbe>,
}

#[derive(Default)]
struct RelationProbe {
    arities: HashSet<usize>,
    by_pos: HashMap<usize, HashSet<Value>>,
}

impl CommittedProbe {
    /// Scans each named relation once (missing tables are simply absent,
    /// so every probe against them answers "no tuple").
    pub(crate) fn build<'a>(
        catalog: &Catalog,
        rels: impl IntoIterator<Item = &'a str>,
    ) -> CommittedProbe {
        let mut relations: HashMap<String, RelationProbe> = HashMap::new();
        for rel in rels {
            let key = rel.to_ascii_lowercase();
            if relations.contains_key(&key) {
                continue;
            }
            let Ok(table) = catalog.table(rel) else {
                continue;
            };
            let probe = relations.entry(key).or_default();
            for (_, tuple) in table.scan() {
                let values = tuple.values();
                probe.arities.insert(values.len());
                for (pos, v) in values.iter().enumerate() {
                    probe
                        .by_pos
                        .entry(pos)
                        .or_default()
                        .insert(index_key(v).into_owned());
                }
            }
        }
        CommittedProbe { relations }
    }

    /// Whether some committed tuple *might* unify with `atom`: the
    /// relation has a tuple of matching arity whose every
    /// constant-constrained position holds a value with the same key.
    /// Positions are tested independently, so this is an
    /// over-approximation — exactly what soundness of pruning needs.
    pub(crate) fn may_satisfy(&self, atom: &Atom) -> bool {
        let Some(probe) = self.relations.get(&atom.relation.to_ascii_lowercase()) else {
            return false;
        };
        if !probe.arities.contains(&atom.terms.len()) {
            return false;
        }
        atom.terms.iter().enumerate().all(|(pos, term)| match term {
            Term::Const(v) => probe
                .by_pos
                .get(&pos)
                .is_some_and(|set| set.contains(&*index_key(v))),
            _ => true,
        })
    }
}

/// Creates the answer-relation table on first use. Columns are named
/// `c0..cN-1`, typed from the first inserted tuple, all nullable (answer
/// relations are system tables; applications may pre-create them with
/// richer schemas, in which case only the arity must agree).
pub(crate) fn ensure_answer_table(
    txn: &mut Transaction,
    relation: &str,
    first: &Tuple,
) -> StorageResult<()> {
    if txn.catalog().has_table(relation) {
        return Ok(());
    }
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
    txn.create_table(relation, Schema::new(columns))
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
            // v3 (tag 6) audit-stamped registrations, with and without
            // a deadline
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
                answer_writes: vec![
                    (
                        "Reservation".into(),
                        Tuple::new(vec![Value::from("Kramer"), Value::Int(122)]),
                    ),
                    (
                        "Reservation".into(),
                        Tuple::new(vec![Value::from("Jerry"), Value::Int(122)]),
                    ),
                ],
                at: None,
            },
            CoordEvent::MatchCommitted {
                qids: vec![QueryId(3)],
                answer_writes: vec![(
                    "Reservation".into(),
                    Tuple::new(vec![Value::from("Elaine"), Value::Int(9)]),
                )],
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
                answer_writes: Vec::new(),
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
    fn deadline_less_encoding_is_byte_identical_to_v1() {
        // v1 layout: tag 0, owner, sql, qid, seq — a deadline-less
        // registration must still produce exactly these bytes, so old
        // logs and new deadline-free logs are indistinguishable
        let event = CoordEvent::QueryRegistered {
            owner: "k".into(),
            sql: "q".into(),
            qid: QueryId(7),
            seq: 3,
            deadline: None,
            stamp: None,
        };
        let mut v1 = BytesMut::new();
        v1.put_u8(0);
        put_str(&mut v1, "k");
        put_str(&mut v1, "q");
        v1.put_u64(7);
        v1.put_u64(3);
        assert_eq!(event.encode(), v1.to_vec());
        // and hand-built v1 bytes decode with deadline = None
        assert_eq!(CoordEvent::decode(&v1).unwrap(), event);
    }

    #[test]
    fn stamp_less_terminal_encodings_are_byte_identical_to_pre_audit() {
        // cancel / expire / match frames without an audit timestamp
        // must keep the exact pre-audit layouts (tags 1/2/3)
        let cancel = CoordEvent::QueryCancelled {
            qid: QueryId(7),
            at: None,
        };
        let mut old = BytesMut::new();
        old.put_u8(1);
        old.put_u64(7);
        assert_eq!(cancel.encode(), old.to_vec());

        let expire = CoordEvent::QueryExpired {
            qid: QueryId(8),
            at: None,
        };
        let mut old = BytesMut::new();
        old.put_u8(2);
        old.put_u64(8);
        assert_eq!(expire.encode(), old.to_vec());

        let commit = CoordEvent::MatchCommitted {
            qids: vec![QueryId(1)],
            answer_writes: Vec::new(),
            at: None,
        };
        let mut old = BytesMut::new();
        old.put_u8(3);
        old.put_u32(1);
        old.put_u64(1);
        old.put_u32(0);
        assert_eq!(commit.encode(), old.to_vec());
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
                answer_writes: Vec::new(),
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

    use crate::ir::{AnswerConstraint, EntangledQuery};

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
            for mut registry in [Registry::new(), Registry::without_const_index()] {
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
