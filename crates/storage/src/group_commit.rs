//! Pipelined group-commit WAL writer.
//!
//! One dedicated writer thread per durable [`crate::db::Database`]
//! absorbs append requests from every committer — shard registration
//! batches, cancellations, and transaction redo groups — into a single
//! queue. Each group is numbered in queue order: its **LSN** (log
//! sequence number, starting at 1). Whenever it wakes, the writer drains
//! the queue, appends the queued groups as marker-delimited commits
//! (each group's records followed by one [`WalRecord::CommitBoundary`]
//! frame), syncs the log **once**, publishes the highest LSN that is
//! now durable, and runs the registered wake hooks. N committers that
//! queue during one sync therefore share the next fsync instead of
//! paying N.
//!
//! [`GroupCommit::enqueue`] returns the group's LSN at once, and a
//! committer chooses how to wait for it:
//!
//! * [`GroupCommit::wait_durable`] blocks until the LSN is durable —
//!   log-before-ack for callers that acknowledge on return;
//! * a caller that holds every acknowledgement until
//!   [`GroupCommit::durable_lsn`] reaches the LSN it depends on (the
//!   network reactor) never waits on an fsync itself, so one sync
//!   covers the groups of every session it served meanwhile.
//!
//! One watermark is enough: a committer that must be ordered after its
//! own reads (a transaction) enqueues while still holding the database
//! lock, so queue order extends lock order, and the writer makes
//! groups durable in queue order.
//!
//! The writer never lingers: it syncs as soon as it has at least one
//! request, and batching arises from whatever queued while the
//! previous sync was in flight.
//!
//! Failure: the first group that fails to append, or whose sync fails,
//! **poisons** the writer. The durable LSN never passes that group,
//! every waiter on it or a later LSN gets the error, every later
//! enqueue fails synchronously, and the writer appends nothing more —
//! after a failed `fdatasync` the kernel may have dropped the dirty
//! pages, so a later successful sync proves nothing about them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;

use crate::error::{StorageError, StorageResult};
use crate::wal::{Wal, WalRecord};

/// Locks ignoring lock poisoning: the writer publishes every batch's
/// outcome even if another thread panicked, and the queue state is
/// valid at every await point.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A callback the writer runs after every batch it finishes, durable
/// or failed. Held weakly: dropping the last strong reference
/// unregisters it.
pub type WakeHook = Weak<dyn Fn() + Send + Sync>;

struct Request {
    lsn: u64,
    records: Vec<WalRecord>,
}

struct QueueState {
    queue: Vec<Request>,
    shutdown: bool,
    /// The first LSN that will never be durable, and why. Set once.
    failed: Option<(u64, StorageError)>,
}

struct Shared {
    state: Mutex<QueueState>,
    work: Condvar,
    /// Signalled (with `state` locked) whenever `durable` advances or
    /// the writer fails.
    durable_changed: Condvar,
    wal: Mutex<Wal>,
    /// The log's length as of the writer's last sync or the last
    /// [`GroupCommit::with_wal`] — stored while the log lock is held,
    /// read without it.
    synced_len: AtomicU64,
    /// LSN of the last group enqueued (0 before the first); advanced
    /// only with `state` locked, read without it.
    enqueued: AtomicU64,
    /// Every group up to this LSN is durable.
    durable: AtomicU64,
    /// Set after `durable` took its final value, when `state.failed`
    /// is set.
    poisoned: AtomicBool,
    syncs: AtomicU64,
    groups: AtomicU64,
    hooks: Mutex<Vec<WakeHook>>,
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
    pub fn spawn(wal: Wal) -> GroupCommit {
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: Vec::new(),
                shutdown: false,
                failed: None,
            }),
            work: Condvar::new(),
            durable_changed: Condvar::new(),
            synced_len: AtomicU64::new(wal.len_bytes()),
            wal: Mutex::new(wal),
            enqueued: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            syncs: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            hooks: Mutex::new(Vec::new()),
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

    /// Enqueues one commit group and returns its LSN without blocking.
    /// The group is appended in queue order, sealed with a
    /// commit-boundary marker, and durable once
    /// [`GroupCommit::durable_lsn`] reaches the LSN. An empty group
    /// touches nothing and returns 0, which is always durable. Fails at
    /// once on a poisoned or shut-down writer.
    pub fn enqueue(&self, records: Vec<WalRecord>) -> StorageResult<u64> {
        if records.is_empty() {
            return Ok(0);
        }
        let lsn = {
            let mut state = lock(&self.shared.state);
            if let Some((_, e)) = &state.failed {
                return Err(poisoned(e));
            }
            if state.shutdown {
                return Err(StorageError::WalIo("log writer shut down".into()));
            }
            let lsn = self.shared.enqueued.load(Ordering::Relaxed) + 1;
            self.shared.enqueued.store(lsn, Ordering::Release);
            state.queue.push(Request { lsn, records });
            lsn
        };
        self.shared.work.notify_one();
        Ok(lsn)
    }

    /// Blocks until every group up to `lsn` is durable, or returns the
    /// writer's failure if `lsn` can never be.
    pub fn wait_durable(&self, lsn: u64) -> StorageResult<()> {
        if self.shared.durable.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let mut state = lock(&self.shared.state);
        loop {
            if self.shared.durable.load(Ordering::Acquire) >= lsn {
                return Ok(());
            }
            if let Some((bad, e)) = &state.failed {
                if *bad == lsn {
                    return Err(e.clone());
                }
                if *bad < lsn {
                    return Err(poisoned(e));
                }
            }
            state = self
                .shared
                .durable_changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// LSN of the last group enqueued (0 before the first). Lock-free.
    pub fn enqueued_lsn(&self) -> u64 {
        self.shared.enqueued.load(Ordering::Acquire)
    }

    /// Every group up to this LSN is durable. Lock-free; never passes
    /// a group that failed.
    pub fn durable_lsn(&self) -> u64 {
        self.shared.durable.load(Ordering::Acquire)
    }

    /// The error that poisoned the writer, if one did. When this
    /// returns `Some`, [`GroupCommit::durable_lsn`] has its final
    /// value. Lock-free until the writer has failed.
    pub fn failure(&self) -> Option<StorageError> {
        if !self.shared.poisoned.load(Ordering::Acquire) {
            return None;
        }
        lock(&self.shared.state)
            .failed
            .as_ref()
            .map(|(_, e)| e.clone())
    }

    /// Registers a hook the writer calls after every batch it
    /// finishes (see [`WakeHook`]).
    pub fn add_wake_hook(&self, hook: WakeHook) {
        lock(&self.shared.hooks).push(hook);
    }

    /// Syncs the writer has issued, one per batch.
    pub fn syncs(&self) -> u64 {
        self.shared.syncs.load(Ordering::Relaxed)
    }

    /// Commit groups the writer has appended.
    pub fn groups(&self) -> u64 {
        self.shared.groups.load(Ordering::Relaxed)
    }

    /// Runs `f` with exclusive access to the underlying log — the
    /// checkpoint/recovery/introspection escape hatch. Queued requests
    /// are not lost: the writer appends them after `f` returns. A
    /// rewrite that must not be followed by groups it already reflects
    /// (a checkpoint) waits for the queue to drain first.
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        let mut wal = lock(&self.shared.wal);
        let result = f(&mut wal);
        self.shared.publish_len(&wal);
        result
    }

    /// The log's length in bytes as the writer last synced it (or as
    /// the last [`GroupCommit::with_wal`] left it). Takes no lock, so
    /// it never waits for an fsync; it covers every durable group.
    pub(crate) fn synced_len(&self) -> u64 {
        self.shared.synced_len.load(Ordering::Acquire)
    }
}

fn poisoned(e: &StorageError) -> StorageError {
    StorageError::WalIo(format!("log writer poisoned: {e}"))
}

impl Shared {
    fn publish_len(&self, wal: &Wal) {
        self.synced_len.store(wal.len_bytes(), Ordering::Release);
    }

    /// Runs every live hook and forgets the dead ones.
    fn wake_hooks(&self) {
        lock(&self.hooks).retain(|hook| hook.upgrade().map(|hook| hook()).is_some());
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

fn writer_loop(shared: &Shared) {
    loop {
        let (batch, poisoned) = {
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
            (std::mem::take(&mut state.queue), state.failed.is_some())
        };
        if poisoned {
            // queued before the failure was known: never written, and
            // their waiters already read the failure
            continue;
        }
        let first = batch.first().expect("batches are non-empty").lsn;
        let last = batch.last().expect("batches are non-empty").lsn;

        let mut wal = lock(&shared.wal);
        // Append every group, each sealed by its marker; sync once. On
        // an append failure the log may hold a partial group, so stop
        // appending (later groups would mis-frame); the groups before
        // it can still become durable.
        let mut failure: Option<(u64, StorageError)> = None;
        let mut appended = 0;
        for request in &batch {
            let result = request
                .records
                .iter()
                .try_for_each(|record| wal.append_record(record))
                .and_then(|()| wal.append_record(&WalRecord::CommitBoundary));
            if let Err(e) = result {
                failure = Some((request.lsn, e));
                break;
            }
            appended += 1;
        }
        let synced = wal.sync();
        shared.syncs.fetch_add(1, Ordering::Relaxed);
        shared.groups.fetch_add(appended, Ordering::Relaxed);
        // before any waiter wakes: a committer sees its own bytes
        shared.publish_len(&wal);
        drop(wal);
        if let Err(e) = synced {
            // nothing this sync covered is known to be on disk
            failure = Some((first, e));
        }

        let durable = failure.as_ref().map_or(last, |(bad, _)| bad - 1);
        {
            let mut state = lock(&shared.state);
            shared.durable.store(durable, Ordering::Release);
            if let Some(failure) = failure {
                state.failed.get_or_insert(failure);
                shared.poisoned.store(true, Ordering::Release);
            }
        }
        shared.durable_changed.notify_all();
        shared.wake_hooks();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;

    /// Enqueues one group and waits until it is durable.
    fn durable_commit(gc: &GroupCommit, records: Vec<WalRecord>) -> StorageResult<()> {
        gc.wait_durable(gc.enqueue(records)?)
    }

    #[test]
    fn concurrent_commits_are_marker_delimited_and_ordered_per_committer() {
        let gc = Arc::new(GroupCommit::spawn(Wal::in_memory()));
        let threads: Vec<_> = (0u8..4)
            .map(|t| {
                let gc = gc.clone();
                std::thread::spawn(move || {
                    for i in 0u8..8 {
                        durable_commit(
                            &gc,
                            vec![
                                WalRecord::Coordination(vec![t, i, 0]),
                                WalRecord::Coordination(vec![t, i, 1]),
                            ],
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let gc = Arc::into_inner(gc).expect("all clones joined");
        assert_eq!(gc.groups(), 32);
        assert!(gc.syncs() <= 32);
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
        let gc = GroupCommit::spawn(Wal::in_memory());
        durable_commit(&gc, Vec::new()).unwrap();
        assert_eq!(gc.with_wal(|wal| wal.len_bytes()), 0);
        assert_eq!((gc.enqueued_lsn(), gc.syncs(), gc.groups()), (0, 0, 0));
    }

    /// Groups enqueued while the log is held share one sync once it is
    /// released; the durable LSN covers them all and the hook runs.
    #[test]
    fn enqueued_groups_become_durable_together_and_wake_the_hook() {
        let gc = Arc::new(GroupCommit::spawn(Wal::in_memory()));
        let woken = Arc::new(AtomicU64::new(0));
        let hook: Arc<dyn Fn() + Send + Sync> = {
            let woken = woken.clone();
            Arc::new(move || {
                woken.fetch_add(1, Ordering::SeqCst);
            })
        };
        gc.add_wake_hook(Arc::downgrade(&hook));
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let gc = gc.clone();
            std::thread::spawn(move || {
                gc.with_wal(|_| {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            })
        };
        held_rx.recv().unwrap();
        // the first group may be taken by the writer, which then blocks
        // on the held log; the rest queue behind it
        let lsns: Vec<u64> = (0u8..6)
            .map(|i| gc.enqueue(vec![WalRecord::Coordination(vec![i])]).unwrap())
            .collect();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(gc.enqueued_lsn(), 6);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            gc.durable_lsn(),
            0,
            "nothing is durable while the log is held"
        );
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        gc.wait_durable(6).unwrap();
        assert_eq!(gc.durable_lsn(), 6);
        assert!(gc.syncs() <= 2, "one sync per batch: {}", gc.syncs());
        assert_eq!(gc.groups(), 6);
        // hooks run after the waiters wake; a later batch is ordered
        // after them
        durable_commit(&gc, vec![WalRecord::Coordination(vec![8])]).unwrap();
        assert!(woken.load(Ordering::SeqCst) >= 1);
        // a dropped hook is forgotten
        drop(hook);
        for i in 9u8..11 {
            durable_commit(&gc, vec![WalRecord::Coordination(vec![i])]).unwrap();
        }
        assert!(lock(&gc.shared.hooks).is_empty());
    }

    /// A failed sync poisons the writer: nothing the failed sync
    /// covered is acknowledged, and every later commit fails — even
    /// though the sink's next sync would succeed.
    #[test]
    fn a_failed_sync_fails_every_later_commit() {
        let gc = GroupCommit::spawn(Wal::failing_sync_at(2));
        durable_commit(&gc, vec![WalRecord::Coordination(vec![1])]).unwrap();
        assert!(
            durable_commit(&gc, vec![WalRecord::Coordination(vec![2])]).is_err(),
            "the failed sync's group is not acknowledged"
        );
        for i in 3u8..6 {
            assert!(
                durable_commit(&gc, vec![WalRecord::Coordination(vec![i])]).is_err(),
                "commit {i} after a failed sync must fail"
            );
        }
        assert_eq!(
            gc.durable_lsn(),
            1,
            "the durable LSN stops before the failure"
        );
        assert!(gc.failure().is_some());
        assert!(gc.enqueue(vec![WalRecord::Coordination(vec![7])]).is_err());
    }
}
