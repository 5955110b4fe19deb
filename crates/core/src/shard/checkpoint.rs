//! Checkpointing: compacting the WAL under a full quiesce, and the
//! policy that triggers it (see `docs/lifecycle.md`, "Checkpoint
//! policy").

use std::sync::atomic::Ordering;

use crate::engine::{CoordEvent, Engine, RegStamp};
use crate::error::{CoreError, CoreResult};
use crate::ir::QueryId;

use super::{ShardGuard, ShardedCoordinator};

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

impl ShardedCoordinator {
    /// Compacts the WAL under a full quiesce: the storage snapshot plus
    /// one registration frame per *surviving* pending query replace the
    /// log's history, so matched, cancelled and expired registrations
    /// stop occupying log space. Holding the router lock and every
    /// shard lock (in index order) excludes every mutation path —
    /// including the log appends they perform — so the snapshot is
    /// consistent with the rewritten log. Still quiesced, the storage
    /// checkpoint first waits until every enqueued log group is
    /// durable: a pipelined match's answer rows are already in the
    /// snapshot, so its group must not land after it.
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
    pub(super) fn checkpoint_if_due(&self, age_millis: u64) {
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
    use std::sync::Arc;

    use youtopia_storage::Wal;

    use crate::lifecycle::Clock;
    use crate::shard::testing::*;
    use crate::shard::{CheckpointPolicy, ShardedConfig, ShardedCoordinator};

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

    /// What recovery rebuilds, in a comparable form: every answer
    /// relation's rows and the surviving pending queries.
    fn recovered_state(bytes: Vec<u8>) -> (Vec<Vec<String>>, Vec<(String, String)>) {
        let (co, _) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        let answers = ["Res0", "Res1", "Res2", "Lone"]
            .iter()
            .map(|rel| {
                let mut rows: Vec<String> =
                    co.answers(rel).iter().map(|t| format!("{t:?}")).collect();
                rows.sort();
                rows
            })
            .collect();
        let pending = co
            .pending_snapshot()
            .into_iter()
            .map(|p| (p.owner, p.sql))
            .collect();
        (answers, pending)
    }

    /// The arrivals both runs submit: a lone query, then pairs whose
    /// closers commit matches.
    fn race_arrivals() -> Vec<(String, String)> {
        let mut arrivals = vec![("lone".to_string(), pair_sql_on("Lone", "L", "Ghost"))];
        for p in 0..6 {
            let rel = format!("Res{}", p % 3);
            let (a, b) = (format!("A{p}"), format!("B{p}"));
            arrivals.push((a.clone(), pair_sql_on(&rel, &a, &b)));
            arrivals.push((b.clone(), pair_sql_on(&rel, &b, &a)));
        }
        arrivals
    }

    /// A checkpoint that races pipelined submits drains the log before
    /// it snapshots: the queued match groups reach the old log instead
    /// of landing after the snapshot (which already holds their answer
    /// rows) and replaying twice. Recovery equals a control run that
    /// waited for every write.
    #[test]
    fn checkpoint_racing_pipelined_submits_recovers_like_the_control() {
        use std::sync::mpsc;
        use std::sync::Mutex;
        use std::time::Duration;

        use crate::engine::Ack;
        use crate::lifecycle::SubmitOptions;

        let control = {
            let db = flights_db_wal();
            let co = ShardedCoordinator::new(db.clone());
            for (owner, sql) in race_arrivals() {
                co.submit_sql(&owner, &sql).unwrap();
            }
            co.checkpoint().unwrap();
            recovered_state(db.wal_bytes().unwrap())
        };
        assert_eq!(control.1.len(), 1, "only the lone query survives");

        let db = flights_db_wal();
        let co = Arc::new(ShardedCoordinator::new(db.clone()));
        // the writer's first wake hook call parks it until the gate
        // opens, so the groups enqueued meanwhile stay queued
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate = Mutex::new(Some((entered_tx, gate_rx)));
        let hook: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            if let Some((entered, gate)) = gate.lock().unwrap().take() {
                entered.send(()).unwrap();
                gate.recv().unwrap();
            }
        });
        db.add_durable_hook(Arc::downgrade(&hook));

        let mut arrivals = race_arrivals().into_iter();
        let (owner, sql) = arrivals.next().unwrap();
        single(&co, &owner, &sql, SubmitOptions::default(), Ack::Pipelined).unwrap();
        entered_rx.recv().unwrap();
        for (owner, sql) in arrivals {
            single(&co, &owner, &sql, SubmitOptions::default(), Ack::Pipelined).unwrap();
        }
        assert!(
            db.durable_lsn() < db.enqueued_lsn(),
            "the matches are queued"
        );
        let checkpoint = {
            let co = Arc::clone(&co);
            std::thread::spawn(move || co.checkpoint())
        };
        // without the drain the checkpoint finishes here, before the
        // queued groups are written
        std::thread::sleep(Duration::from_millis(50));
        gate_tx.send(()).unwrap();
        checkpoint.join().unwrap().unwrap();
        db.wait_durable(db.enqueued_lsn()).unwrap();
        assert_eq!(recovered_state(db.wal_bytes().unwrap()), control);
    }
}
