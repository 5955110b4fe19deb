//! Poll-based coordination futures and the [`WaiterSet`] driver — the
//! one waiter mechanism of the coordinator.
//!
//! Every pending query's handle is a [`CoordinationFuture`]: a plain
//! `std::future::Future` whose completion slot is parked in the
//! coordinator's waiter table and completed by whichever code path
//! terminates the query — a match commit, a cancellation, an expiry
//! sweep (seq-based, or the deadline-driven `expire_due` run by the
//! background [`crate::DeadlineSweeper`]), or a reattach that
//! supersedes the handle. No thread blocks per in-flight coordination,
//! so a front-end can hold the "thousands of in-flight coordinations"
//! the coordination model is supposed to pay off at. The blocking
//! `submit*` conveniences hand out the same future inside
//! [`crate::Submission::Pending`]; callers that want to block use
//! [`CoordinationFuture::wait_timeout`].
//!
//! No external async runtime is required (and none is linked): the
//! future is poll-based over `std::task`, so it works under any
//! executor — or under no executor at all, via [`WaiterSet`], a small
//! driver that lets **one** thread hold thousands of in-flight futures
//! and harvest completions as they fire, and
//! [`CoordinationFuture::wait_timeout`], a single-future blocking wait
//! built on a thread-parking waker.
//!
//! # Waker lifecycle
//!
//! A future's shared slot ([`TicketShared`]) lives in two places: the
//! future itself, and the owning shard's waiter table. The coordinator
//! completes the slot **while holding the shard lock** (so a completion
//! cannot race a migration moving the waiter between shards), but fires
//! the parked waker *after* taking it out of the slot's own mutex —
//! waker callbacks never run under a slot lock, and the slot mutex is a
//! leaf: no coordinator lock is ever taken inside it. The first
//! terminal outcome wins; later completions (e.g. a reattach
//! superseding an already-answered handle) are no-ops. Dropping a
//! future without polling it is safe — the slot completes into the
//! void, which is exactly what a crashed front-end looks like;
//! [`crate::ShardedCoordinator::reattach`] hands the reconnect a fresh
//! future for the same query. See `docs/async.md`.

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::coordinator::MatchNotification;
use crate::ir::QueryId;

/// Terminal result of a submitted entangled query. Every future
/// resolves to exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinationOutcome {
    /// The query's group matched; these are its answers.
    Answered(MatchNotification),
    /// The query was withdrawn by its owner
    /// ([`crate::ShardedCoordinator::cancel`] /
    /// [`crate::ShardedCoordinator::cancel_owner`]).
    Cancelled,
    /// The query was retired by an expiry sweep — a deadline-driven
    /// `expire_due` (usually run by the background
    /// [`crate::DeadlineSweeper`] when the query's
    /// [`crate::SubmitOptions::deadline`] lapses) or the legacy
    /// seq-based [`crate::ShardedCoordinator::expire_before`].
    Expired,
    /// A newer handle for the same query was issued (the owner
    /// reattached); this future will never receive the answer.
    Superseded,
}

impl CoordinationOutcome {
    /// The notification, when the outcome is [`Answered`].
    ///
    /// [`Answered`]: CoordinationOutcome::Answered
    pub fn answered(self) -> Option<MatchNotification> {
        match self {
            CoordinationOutcome::Answered(n) => Some(n),
            _ => None,
        }
    }
}

/// The completion slot shared between a [`CoordinationFuture`] and the
/// coordinator's waiter table: the terminal outcome (set once, moved
/// out once — `taken` remembers that it was there) and the parked
/// waker of whoever polled last.
#[derive(Debug, Default)]
pub(crate) struct TicketShared {
    slot: Mutex<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    outcome: Option<CoordinationOutcome>,
    taken: bool,
    waker: Option<Waker>,
}

impl TicketShared {
    /// Sets the terminal outcome (first writer wins) and fires the
    /// parked waker, outside the slot lock. Idempotent.
    pub(crate) fn complete(&self, outcome: CoordinationOutcome) {
        let waker = {
            let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
            if slot.outcome.is_some() || slot.taken {
                return; // the first terminal result wins
            }
            slot.outcome = Some(outcome);
            slot.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// The handle of a pending (or already-answered) entangled query.
/// Resolves to its [`CoordinationOutcome`] when the coordinator
/// terminates the query — match commit, cancel, expiry, or
/// supersession by a reattach.
///
/// Plain `std::future::Future`, no runtime attached: await it under any
/// executor, drive many at once from one thread with a [`WaiterSet`],
/// or block on a single one with
/// [`CoordinationFuture::wait_timeout`]. The query id is available
/// immediately via [`CoordinationFuture::id`] (usable with
/// [`crate::ShardedCoordinator::cancel`] while in flight).
#[derive(Debug)]
pub struct CoordinationFuture {
    id: QueryId,
    shared: Arc<TicketShared>,
    /// Created already answered: the query's own arrival completed its
    /// group, so it was never registered as pending.
    answered_on_arrival: bool,
}

impl CoordinationFuture {
    pub(crate) fn new(id: QueryId, shared: Arc<TicketShared>) -> CoordinationFuture {
        CoordinationFuture {
            id,
            shared,
            answered_on_arrival: false,
        }
    }

    /// A future that is already answered (its arrival completed a
    /// group).
    pub(crate) fn answered(n: MatchNotification) -> CoordinationFuture {
        CoordinationFuture {
            id: n.id,
            shared: Arc::new(TicketShared {
                slot: Mutex::new(Slot {
                    outcome: Some(CoordinationOutcome::Answered(n)),
                    ..Slot::default()
                }),
            }),
            answered_on_arrival: true,
        }
    }

    /// Whether the query's own arrival completed its group (as opposed
    /// to registering it as pending — even if it has resolved since).
    pub(crate) fn answered_on_arrival(&self) -> bool {
        self.answered_on_arrival
    }

    /// The submitted query's id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Whether a terminal outcome has been set (the future would
    /// resolve on its next poll).
    pub fn is_complete(&self) -> bool {
        let slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        slot.outcome.is_some() || slot.taken
    }

    /// Takes the outcome if the future is complete, without a waker
    /// (non-blocking probe). Returns `None` while in flight and after
    /// the outcome was already taken.
    pub fn try_take(&mut self) -> Option<CoordinationOutcome> {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = slot.outcome.take()?;
        slot.taken = true;
        Some(outcome)
    }

    /// Blocks the calling thread until the future resolves or `timeout`
    /// elapses, on a thread-parking waker (still no runtime). Returns
    /// `None` on timeout; the future stays armed.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<CoordinationOutcome> {
        let deadline = Instant::now() + timeout;
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        loop {
            if let Poll::Ready(outcome) = Pin::new(&mut *self).poll(&mut cx) {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            std::thread::park_timeout(deadline - now);
        }
    }
}

impl Future for CoordinationFuture {
    type Output = CoordinationOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<CoordinationOutcome> {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        // the outcome is delivered exactly once across poll and
        // try_take; re-polling a consumed future is a caller bug (the
        // std Future contract allows panicking here) — never deliver
        // the same completion twice
        assert!(
            !slot.taken,
            "CoordinationFuture polled after its outcome was taken"
        );
        if let Some(outcome) = slot.outcome.take() {
            slot.taken = true;
            return Poll::Ready(outcome);
        }
        // park (or refresh) the waker; the completing path takes it out
        // under this same slot lock, so a completion either sees this
        // waker or has already set the outcome we just checked
        slot.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Wakes a parked thread ([`CoordinationFuture::wait_timeout`]).
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// The wake signal shared by a [`WaiterSet`] and the wakers of every
/// future it drives: the queue of query ids whose futures fired, the
/// condvar a blocked [`WaiterSet::wait_timeout`] sleeps on, and an
/// optional external wake hook for owners that sleep on something
/// other than the condvar (e.g. the net reactor parked in `epoll_wait`
/// — the hook writes its eventfd).
#[derive(Default)]
struct SetSignal {
    woken: Mutex<Vec<QueryId>>,
    condvar: Condvar,
    hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl SetSignal {
    fn push(&self, qid: QueryId) {
        let mut woken = self.woken.lock().unwrap_or_else(|e| e.into_inner());
        woken.push(qid);
        drop(woken);
        self.condvar.notify_all();
        let hook = self.hook.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hook) = hook.as_ref() {
            hook();
        }
    }
}

/// One future's waker inside a [`WaiterSet`]: records *which* future
/// fired and pokes the set's condvar.
struct SetWaker {
    qid: QueryId,
    signal: Arc<SetSignal>,
}

impl Wake for SetWaker {
    fn wake(self: Arc<Self>) {
        self.signal.push(self.qid);
    }
}

/// An executor-agnostic driver that lets **one** thread hold thousands
/// of in-flight [`CoordinationFuture`]s and harvest completions as
/// they fire — the front-end loop the async API exists for.
///
/// Not a general executor: it only drives coordination futures, which
/// never need re-polling except when their waker fires (a terminal
/// outcome is the only state change). The set therefore polls a future
/// exactly once on insert (parking its waker) and again only when the
/// waker fired, so a quiescent set of 10k pending futures costs zero
/// CPU.
///
/// Single-owner by design (`&mut self` everywhere): share work across
/// threads by sending futures to the owning thread, not the set.
pub struct WaiterSet {
    entries: HashMap<QueryId, CoordinationFuture>,
    /// Inserted but never polled (their wakers are not parked yet).
    fresh: Vec<QueryId>,
    signal: Arc<SetSignal>,
}

impl Default for WaiterSet {
    fn default() -> Self {
        WaiterSet::new()
    }
}

impl WaiterSet {
    /// An empty set.
    pub fn new() -> WaiterSet {
        WaiterSet {
            entries: HashMap::new(),
            fresh: Vec::new(),
            signal: Arc::new(SetSignal::default()),
        }
    }

    /// Installs a hook invoked every time one of this set's futures
    /// fires its waker — possibly from another thread, and (per the
    /// waker contract in `docs/async.md`) possibly while the
    /// completing coordinator still holds a shard lock, so the hook
    /// must be O(1) and must not call back into the coordinator. An
    /// owner that multiplexes the set with I/O readiness (the net
    /// reactor sleeping in `epoll_wait`) uses this to bridge
    /// completion wakes into its own wait primitive; pure
    /// [`WaiterSet::wait_timeout`] users never need it, the built-in
    /// condvar is always notified first.
    pub fn set_wake_hook(&mut self, hook: impl Fn() + Send + Sync + 'static) {
        let mut slot = self.signal.hook.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(Box::new(hook));
    }

    /// Adds a future to the set. It is polled (and its waker parked) on
    /// the next [`WaiterSet::poll_ready`] / [`WaiterSet::wait_timeout`];
    /// already-completed futures surface there immediately.
    ///
    /// Returns the future previously held for the same query id, if
    /// any — e.g. the pre-reattach handle when a reconnecting front-end
    /// inserts `reattach`'s fresh futures into the same set. The
    /// displaced future is still armed (it resolves
    /// [`CoordinationOutcome::Superseded`] in that pattern); resolve or
    /// drop it deliberately rather than letting its outcome vanish from
    /// the ledger.
    pub fn insert(&mut self, future: CoordinationFuture) -> Option<CoordinationFuture> {
        let qid = future.id();
        self.fresh.push(qid);
        self.entries.insert(qid, future)
    }

    /// Number of futures currently held (in-flight + completed-but-not-
    /// yet-harvested).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no futures.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ids still held by the set (the async pending set, plus any
    /// completions not yet harvested).
    pub fn ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.entries.keys().copied().collect();
        ids.sort_by_key(|q| q.0);
        ids
    }

    /// Removes a future without resolving it (e.g. after cancelling the
    /// query through the coordinator and not caring about the terminal
    /// outcome). Returns it, still armed.
    pub fn remove(&mut self, qid: QueryId) -> Option<CoordinationFuture> {
        self.entries.remove(&qid)
    }

    /// Polls every future whose waker fired (plus the freshly inserted
    /// ones), removing and returning the completed ones. Non-blocking;
    /// returns an empty vec when nothing resolved.
    pub fn poll_ready(&mut self) -> Vec<(QueryId, CoordinationOutcome)> {
        let mut candidates = std::mem::take(&mut self.fresh);
        {
            let mut woken = self.signal.woken.lock().unwrap_or_else(|e| e.into_inner());
            candidates.append(&mut woken);
        }
        let mut completed = Vec::new();
        for qid in candidates {
            let Some(future) = self.entries.get_mut(&qid) else {
                continue; // removed, or completed by an earlier duplicate wake
            };
            let waker = Waker::from(Arc::new(SetWaker {
                qid,
                signal: Arc::clone(&self.signal),
            }));
            let mut cx = Context::from_waker(&waker);
            if let Poll::Ready(outcome) = Pin::new(future).poll(&mut cx) {
                self.entries.remove(&qid);
                completed.push((qid, outcome));
            }
        }
        completed
    }

    /// Blocks until at least one future resolves or `timeout` elapses,
    /// then harvests like [`WaiterSet::poll_ready`]. Returns an empty
    /// vec on timeout or when the set is empty.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Vec<(QueryId, CoordinationOutcome)> {
        let deadline = Instant::now() + timeout;
        loop {
            let completed = self.poll_ready();
            if !completed.is_empty() || self.entries.is_empty() {
                return completed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            let woken = self.signal.woken.lock().unwrap_or_else(|e| e.into_inner());
            if woken.is_empty() {
                // a wake between the drop inside poll_ready and this
                // re-acquire lands in `woken` and is seen here, so the
                // sleep never misses a completion
                let _ = self
                    .signal
                    .condvar
                    .wait_timeout(woken, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Drives the set until it is empty or `timeout` elapses, returning
    /// everything harvested. The workhorse of tests and the example
    /// front-end.
    pub fn drain_timeout(&mut self, timeout: Duration) -> Vec<(QueryId, CoordinationOutcome)> {
        let deadline = Instant::now() + timeout;
        let mut all = Vec::new();
        while !self.entries.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            all.extend(self.wait_timeout(deadline - now));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notification(qid: u64) -> MatchNotification {
        MatchNotification {
            id: QueryId(qid),
            group: vec![QueryId(qid)],
            answers: Vec::new(),
        }
    }

    fn armed(qid: u64) -> (CoordinationFuture, Arc<TicketShared>) {
        let shared = Arc::new(TicketShared::default());
        (
            CoordinationFuture::new(QueryId(qid), Arc::clone(&shared)),
            shared,
        )
    }

    #[test]
    fn ready_future_resolves_immediately() {
        let mut f = CoordinationFuture::answered(notification(1));
        assert!(f.is_complete());
        assert!(matches!(
            f.try_take(),
            Some(CoordinationOutcome::Answered(_))
        ));
        assert!(f.try_take().is_none(), "outcome is taken once");
    }

    #[test]
    fn first_terminal_outcome_wins() {
        let (mut f, shared) = armed(2);
        shared.complete(CoordinationOutcome::Cancelled);
        shared.complete(CoordinationOutcome::Answered(notification(2)));
        assert_eq!(f.try_take(), Some(CoordinationOutcome::Cancelled));
    }

    #[test]
    fn wait_timeout_returns_none_then_outcome() {
        let (mut f, shared) = armed(3);
        assert!(f.wait_timeout(Duration::from_millis(10)).is_none());
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            shared.complete(CoordinationOutcome::Expired);
        });
        assert_eq!(
            f.wait_timeout(Duration::from_secs(5)),
            Some(CoordinationOutcome::Expired)
        );
        handle.join().unwrap();
    }

    #[test]
    fn waiter_set_harvests_completions_in_any_order() {
        let mut set = WaiterSet::new();
        let mut shares = Vec::new();
        for qid in 0..100u64 {
            let (f, s) = armed(qid);
            set.insert(f);
            shares.push(s);
        }
        assert_eq!(set.len(), 100);
        assert!(set.poll_ready().is_empty(), "nothing completed yet");

        // complete out of order, some before the next poll, some after
        for qid in (0..50usize).rev() {
            shares[qid].complete(CoordinationOutcome::Cancelled);
        }
        let first = set.poll_ready();
        assert_eq!(first.len(), 50);
        for (qid, share) in shares.iter().enumerate().skip(50) {
            share.complete(CoordinationOutcome::Answered(notification(qid as u64)));
        }
        let second = set.drain_timeout(Duration::from_secs(5));
        assert_eq!(second.len(), 50);
        assert!(set.is_empty());
    }

    #[test]
    fn waiter_set_wait_blocks_until_completion() {
        let mut set = WaiterSet::new();
        let (f, shared) = armed(7);
        set.insert(f);
        assert!(set.poll_ready().is_empty());
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            shared.complete(CoordinationOutcome::Superseded);
        });
        let got = set.wait_timeout(Duration::from_secs(5));
        assert_eq!(got, vec![(QueryId(7), CoordinationOutcome::Superseded)]);
        handle.join().unwrap();
    }

    #[test]
    fn waiter_set_remove_forgets_without_resolving() {
        let mut set = WaiterSet::new();
        let (f, shared) = armed(9);
        set.insert(f);
        let future = set.remove(QueryId(9)).expect("present");
        assert!(set.is_empty());
        shared.complete(CoordinationOutcome::Cancelled);
        let mut future = future;
        assert_eq!(future.try_take(), Some(CoordinationOutcome::Cancelled));
        // waking a removed entry must not wedge the set
        assert!(set.poll_ready().is_empty());
    }

    #[test]
    fn insert_returns_the_displaced_future_for_a_duplicate_id() {
        let mut set = WaiterSet::new();
        let (old, old_shared) = armed(13);
        let (new, _new_shared) = armed(13);
        assert!(set.insert(old).is_none());
        let mut displaced = set.insert(new).expect("duplicate id displaces");
        assert_eq!(set.len(), 1, "one entry per query id");
        // the displaced handle is still armed and resolvable
        old_shared.complete(CoordinationOutcome::Superseded);
        assert_eq!(
            displaced.try_take(),
            Some(CoordinationOutcome::Superseded),
            "the displaced future's outcome is not lost"
        );
    }

    #[test]
    #[should_panic(expected = "polled after its outcome was taken")]
    fn poll_after_try_take_panics_instead_of_double_delivering() {
        let (mut f, shared) = armed(15);
        shared.complete(CoordinationOutcome::Cancelled);
        assert_eq!(f.try_take(), Some(CoordinationOutcome::Cancelled));
        // delivering the same terminal outcome twice would corrupt any
        // exactly-once ledger; re-polling a consumed future is loud
        let _ = f.wait_timeout(Duration::from_millis(1));
    }

    #[test]
    fn wake_hook_fires_on_cross_thread_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut set = WaiterSet::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        set.set_wake_hook(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let (f, shared) = armed(21);
        set.insert(f);
        assert!(set.poll_ready().is_empty(), "waker parked, nothing fired");
        assert_eq!(hits.load(Ordering::SeqCst), 0, "no spurious hook calls");
        std::thread::spawn(move || shared.complete(CoordinationOutcome::Cancelled))
            .join()
            .unwrap();
        assert!(hits.load(Ordering::SeqCst) >= 1, "hook saw the wake");
        assert_eq!(set.poll_ready().len(), 1);
    }

    #[test]
    fn already_completed_future_surfaces_on_first_poll() {
        let mut set = WaiterSet::new();
        let (f, shared) = armed(11);
        shared.complete(CoordinationOutcome::Expired);
        set.insert(f);
        let got = set.poll_ready();
        assert_eq!(got, vec![(QueryId(11), CoordinationOutcome::Expired)]);
    }
}
