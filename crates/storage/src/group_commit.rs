//! Pipelined group-commit WAL writer.
//!
//! One dedicated writer thread per durable [`crate::db::Database`]
//! absorbs append requests from every committer — shard registration
//! batches, serial-coordinator events, and transaction redo groups —
//! into a single queue. Each quantum it drains the queue, appends the
//! queued groups as marker-delimited commits (each group's records
//! followed by one [`WalRecord::CommitBoundary`] frame), syncs the log
//! **once**, and then acknowledges every request through its own
//! completion slot. N concurrent committers therefore cost ~1 fsync
//! per quantum instead of N, while each committer still blocks until
//! its own group is durable — the log-before-ack discipline of the
//! coordination layer is unchanged.
//!
//! The latency/throughput knob is [`GroupCommitConfig::quantum`]: with
//! a zero quantum (the default) the writer syncs as soon as it has at
//! least one request, and batching arises naturally from whatever
//! queued while the previous sync was in flight; a positive quantum
//! makes the writer linger that long after waking to absorb more
//! requests per sync, trading per-commit latency for fewer fsyncs
//! under bursty load.
//!
//! Ordering: a committer that must be ordered after its own reads
//! (a transaction) enqueues while still holding the database lock, so
//! queue order extends lock order; the writer preserves queue order on
//! disk. Requests that carry no ordering dependency (coordination
//! event batches) enqueue lock-free with respect to the database.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::{StorageError, StorageResult};
use crate::wal::{Wal, WalRecord};

/// Locks ignoring lock poisoning: the writer completes every slot it
/// took responsibility for even if another thread panicked, and the
/// queue/result state is valid at every await point.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning for the pipelined writer.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// How long the writer lingers after waking before it writes and
    /// syncs the absorbed batch. `Duration::ZERO` (default) syncs
    /// immediately; batching still happens for requests that queued
    /// while the previous sync was running.
    pub quantum: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            quantum: Duration::ZERO,
        }
    }
}

/// A per-request completion slot: the writer parks the request's
/// outcome here and wakes the committer blocked in [`Slot::wait`].
pub struct Slot {
    result: Mutex<Option<StorageResult<()>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn ready(result: StorageResult<()>) -> std::sync::Arc<Slot> {
        let slot = Slot::new();
        *lock(&slot.result) = Some(result);
        std::sync::Arc::new(slot)
    }

    fn complete(&self, result: StorageResult<()>) {
        *lock(&self.result) = Some(result);
        self.ready.notify_all();
    }

    /// Blocks until the writer has made this request's commit group
    /// durable (or failed trying) and returns the outcome.
    pub fn wait(&self) -> StorageResult<()> {
        let mut guard = lock(&self.result);
        while guard.is_none() {
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        guard.clone().expect("checked above")
    }
}

struct Request {
    records: Vec<WalRecord>,
    slot: std::sync::Arc<Slot>,
}

struct QueueState {
    queue: Vec<Request>,
    shutdown: bool,
    /// Set on the first append failure: the log may hold a partial
    /// group, so further appends would mis-frame it. Fail fast.
    poisoned: Option<String>,
}

struct Shared {
    state: Mutex<QueueState>,
    work: Condvar,
    wal: Mutex<Wal>,
    /// The log's length as of the writer's last sync or the last
    /// [`GroupCommit::with_wal`] — stored while the log lock is held,
    /// read without it.
    synced_len: AtomicU64,
    quantum: Duration,
}

/// Handle to one pipelined writer (one per durable database). Cloned
/// via `Arc`; dropping the last handle shuts the writer down after it
/// drains the queue.
pub struct GroupCommit {
    shared: std::sync::Arc<Shared>,
    writer: Option<JoinHandle<()>>,
}

impl GroupCommit {
    /// Wraps `wal` and starts the writer thread.
    pub fn spawn(wal: Wal, config: GroupCommitConfig) -> GroupCommit {
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: Vec::new(),
                shutdown: false,
                poisoned: None,
            }),
            work: Condvar::new(),
            synced_len: AtomicU64::new(wal.len_bytes().unwrap_or(0)),
            wal: Mutex::new(wal),
            quantum: config.quantum,
        });
        let writer_shared = shared.clone();
        let writer = std::thread::Builder::new()
            .name("wal-group-commit".into())
            .spawn(move || writer_loop(&writer_shared))
            .expect("spawning the WAL writer thread");
        GroupCommit {
            shared,
            writer: Some(writer),
        }
    }

    /// Enqueues one commit group and returns its completion slot
    /// without blocking. The group is appended in queue order, sealed
    /// with a commit-boundary marker, and acknowledged after the
    /// quantum's single sync.
    pub fn submit(&self, records: Vec<WalRecord>) -> std::sync::Arc<Slot> {
        if records.is_empty() {
            return Slot::ready(Ok(()));
        }
        let slot = std::sync::Arc::new(Slot::new());
        {
            let mut state = lock(&self.shared.state);
            if let Some(msg) = &state.poisoned {
                slot.complete(Err(StorageError::WalIo(format!(
                    "log writer poisoned: {msg}"
                ))));
                return slot;
            }
            if state.shutdown {
                slot.complete(Err(StorageError::WalIo("log writer shut down".into())));
                return slot;
            }
            state.queue.push(Request {
                records,
                slot: slot.clone(),
            });
        }
        self.shared.work.notify_all();
        slot
    }

    /// Synchronous facade: enqueue one commit group and block until
    /// it is durable. Empty groups complete immediately.
    pub fn commit(&self, records: Vec<WalRecord>) -> StorageResult<()> {
        self.submit(records).wait()
    }

    /// Runs `f` with exclusive access to the underlying log — the
    /// checkpoint/recovery/introspection escape hatch. Queued requests
    /// are not lost: the writer appends them after `f` returns, which
    /// is exactly the order a checkpoint rewrite needs (a request not
    /// yet on disk was not yet acknowledged, so it must land after
    /// the rewritten snapshot).
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        let mut wal = lock(&self.shared.wal);
        let result = f(&mut wal);
        self.shared.publish_len(&wal);
        result
    }

    /// The log's length in bytes as the writer last synced it (or as
    /// the last [`GroupCommit::with_wal`] left it). Takes no lock, so
    /// it never waits for an fsync; it covers every group whose
    /// [`GroupCommit::commit`] has returned.
    pub(crate) fn synced_len(&self) -> u64 {
        self.shared.synced_len.load(Ordering::Acquire)
    }
}

impl Shared {
    fn publish_len(&self, wal: &Wal) {
        self.synced_len
            .store(wal.len_bytes().unwrap_or(0), Ordering::Release);
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        // the writer drains the queue before exiting, but complete any
        // stragglers (e.g. enqueued against a poisoned writer) loudly
        let mut state = lock(&self.shared.state);
        for request in state.queue.drain(..) {
            request
                .slot
                .complete(Err(StorageError::WalIo("log writer shut down".into())));
        }
    }
}

fn writer_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = lock(&shared.state);
            while state.queue.is_empty() && !state.shutdown {
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.queue.is_empty() {
                break; // shutdown with nothing left to drain
            }
            if !shared.quantum.is_zero() && !state.shutdown {
                // linger one quantum to absorb more requests into
                // this sync (more wake-ups may land meanwhile)
                state = shared
                    .work
                    .wait_timeout(state, shared.quantum)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            std::mem::take(&mut state.queue)
        };

        let mut wal = lock(&shared.wal);
        // Append every group, each sealed by its marker; sync once.
        // On an append failure the log may hold a partial group, so
        // stop appending (later groups would mis-frame) and poison.
        let mut failed: Option<(usize, StorageError)> = None;
        for (i, request) in batch.iter().enumerate() {
            let appended = (|| {
                for record in &request.records {
                    wal.append_record(record)?;
                }
                wal.append_commit_boundary()
            })();
            if let Err(e) = appended {
                failed = Some((i, e));
                break;
            }
        }
        let sync_result = wal.sync();
        // before any slot completes: a committer sees its own bytes
        shared.publish_len(&wal);
        drop(wal);

        if let Some((_, e)) = &failed {
            lock(&shared.state).poisoned = Some(e.to_string());
        }
        let failed_at = failed.as_ref().map(|(i, _)| *i).unwrap_or(batch.len());
        for (i, request) in batch.into_iter().enumerate() {
            let outcome = match (&failed, i.cmp(&failed_at)) {
                // fully appended before any failure: durability is
                // whatever the sync said
                (_, std::cmp::Ordering::Less) => sync_result.clone(),
                (Some((_, e)), std::cmp::Ordering::Equal) => Err(e.clone()),
                (Some((_, e)), std::cmp::Ordering::Greater) => {
                    Err(StorageError::WalIo(format!("log writer poisoned: {e}")))
                }
                (None, _) => sync_result.clone(),
            };
            request.slot.complete(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalRecord;

    #[test]
    fn concurrent_commits_are_marker_delimited_and_ordered_per_committer() {
        let gc = std::sync::Arc::new(GroupCommit::spawn(
            Wal::in_memory(),
            GroupCommitConfig::default(),
        ));
        let threads: Vec<_> = (0u8..4)
            .map(|t| {
                let gc = gc.clone();
                std::thread::spawn(move || {
                    for i in 0u8..8 {
                        gc.commit(vec![
                            WalRecord::Coordination(vec![t, i, 0]),
                            WalRecord::Coordination(vec![t, i, 1]),
                        ])
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let gc = std::sync::Arc::into_inner(gc).expect("all clones joined");
        let records = gc.with_wal(|wal| wal.replay_records()).unwrap();
        assert_eq!(records.len(), 4 * 8 * 2);
        // the two frames of one group are adjacent: marker-delimited
        // groups are never interleaved
        for chunk in records.chunks(2) {
            match (&chunk[0], &chunk[1]) {
                (WalRecord::Coordination(a), WalRecord::Coordination(b)) => {
                    assert_eq!(&a[..2], &b[..2], "group split across other commits");
                    assert_eq!((a[2], b[2]), (0, 1));
                }
                other => panic!("unexpected records {other:?}"),
            }
        }
        // and each committer's groups are in its submission order
        for t in 0u8..4 {
            let mine: Vec<&WalRecord> = records
                .iter()
                .filter(|r| matches!(r, WalRecord::Coordination(p) if p[0] == t))
                .collect();
            let expect: Vec<WalRecord> = (0u8..8)
                .flat_map(|i| {
                    [
                        WalRecord::Coordination(vec![t, i, 0]),
                        WalRecord::Coordination(vec![t, i, 1]),
                    ]
                })
                .collect();
            assert_eq!(mine, expect.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_groups_complete_without_touching_the_log() {
        let gc = GroupCommit::spawn(Wal::in_memory(), GroupCommitConfig::default());
        gc.commit(Vec::new()).unwrap();
        assert_eq!(gc.with_wal(|wal| wal.len_bytes()).unwrap(), 0);
    }

    #[test]
    fn positive_quantum_still_acknowledges_every_commit() {
        let gc = GroupCommit::spawn(
            Wal::in_memory(),
            GroupCommitConfig {
                quantum: Duration::from_millis(2),
            },
        );
        for i in 0u8..5 {
            gc.commit(vec![WalRecord::Coordination(vec![i])]).unwrap();
        }
        let records = gc.with_wal(|wal| wal.replay_records()).unwrap();
        assert_eq!(records.len(), 5);
    }
}
