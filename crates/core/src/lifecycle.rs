//! The deadline-driven query lifecycle: clocks, the sweep signal, and
//! the background [`DeadlineSweeper`].
//!
//! The paper's entangled queries are standing registrations — "a query
//! whose postcondition is not satisfied ... waits for an opportunity to
//! retry" — but a serving system must bound that wait in time. This
//! module makes wall-clock time a first-class axis of the coordination
//! lifecycle instead of an external poke:
//!
//! * a submission may carry an absolute **deadline**
//!   ([`SubmitOptions::deadline`], milliseconds in the domain of the
//!   system's [`Clock`]);
//! * deadlines are durable — they ride the registration's WAL frame
//!   (the v2 [`crate::CoordEvent::QueryRegistered`] encoding), survive
//!   checkpoints, and are rebuilt by recovery;
//! * the coordinator exposes `expire_due(now)`, a sweep that retires
//!   every pending query whose deadline has passed, logging each
//!   expiry before the removal (log-before-ack, like every other
//!   registry mutation) and resolving the parked futures with
//!   [`crate::CoordinationOutcome::Expired`];
//! * the [`DeadlineSweeper`] drives those sweeps from a background
//!   thread, waking only when the earliest deadline is due (a
//!   min-deadline hint per shard keeps the idle cost at zero).
//!
//! # Clock injection
//!
//! Time is injected through the [`Clock`] trait so the test suite never
//! sleeps on the wall clock: [`SystemClock`] is real time (milliseconds
//! since the UNIX epoch), [`MockClock`] is a test clock whose
//! [`MockClock::advance`] both moves time and pokes the sweeper through
//! the same [`SweepSignal`] a real registration would. A sweeper on a
//! mock clock parks indefinitely between signals; a sweeper on the
//! system clock parks with a timeout to the next due deadline.
//!
//! # Wakeup protocol
//!
//! The sweeper loops: sweep (`expire_due(now)`), read the earliest
//! remaining deadline, then wait on the host's [`SweepSignal`] — with a
//! timeout to that deadline under a real clock, indefinitely under a
//! mock clock or when nothing carries a deadline. The signal's
//! generation counter is snapshotted *before* the sweep, so a deadline
//! registered while the sweeper was sweeping makes the wait return
//! immediately instead of being missed. Registrations notify the
//! signal only when they carry a deadline (and after the shard lock is
//! released, so the sweeper's next read sees the published hint); see
//! `docs/lifecycle.md`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::ir::QueryId;

/// Per-submission options, the third field of each
/// [`crate::ShardedCoordinator::submit`] request. Today this carries
/// the optional deadline; [`crate::ShardedCoordinator::submit_sql`]
/// passes `SubmitOptions::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Absolute deadline in milliseconds (in the coordinator clock's
    /// domain — UNIX-epoch milliseconds under [`SystemClock`]). A
    /// pending query past its deadline is retired by the next
    /// `expire_due` sweep: the expiry is logged, the registry entry
    /// removed, and the waiter resolved with
    /// [`crate::CoordinationOutcome::Expired`]. `None` (the default)
    /// means the query waits forever, exactly as before.
    pub deadline: Option<u64>,
}

impl SubmitOptions {
    /// Options carrying an absolute deadline.
    pub fn with_deadline(deadline_millis: u64) -> SubmitOptions {
        SubmitOptions {
            deadline: Some(deadline_millis),
        }
    }
}

/// A source of milliseconds, injectable so deadline tests are
/// deterministic (no wall-clock sleeps anywhere in the suite).
pub trait Clock: Send + Sync {
    /// The current time in milliseconds.
    fn now_millis(&self) -> u64;

    /// How long a sweeper may sleep before `deadline_millis` is due.
    /// Real clocks return `Some(duration)`; mock clocks return `None`
    /// — their time only moves through an explicit advance, which
    /// notifies the sweeper itself, so sleeping on real time would be
    /// meaningless.
    fn timeout_until(&self, deadline_millis: u64) -> Option<Duration>;

    /// Hands the clock the signal a sweeper waits on, so a mock clock
    /// can wake the sweeper when its time jumps. Real clocks ignore it.
    fn attach(&self, _signal: Arc<SweepSignal>) {}
}

/// Real time: milliseconds since the UNIX epoch.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_millis(&self) -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    fn timeout_until(&self, deadline_millis: u64) -> Option<Duration> {
        Some(Duration::from_millis(
            deadline_millis.saturating_sub(self.now_millis()).max(1),
        ))
    }
}

/// A manually advanced test clock. `advance`/`set` move time and poke
/// every attached sweeper, so a test drives expiry by advancing the
/// clock and then observing the (event-driven) outcome — never by
/// sleeping.
#[derive(Debug, Default)]
pub struct MockClock {
    now: AtomicU64,
    signals: Mutex<Vec<Arc<SweepSignal>>>,
}

impl MockClock {
    /// A mock clock starting at `now_millis`.
    pub fn new(now_millis: u64) -> MockClock {
        MockClock {
            now: AtomicU64::new(now_millis),
            signals: Mutex::new(Vec::new()),
        }
    }

    /// Moves time forward by `delta_millis` and wakes attached
    /// sweepers.
    pub fn advance(&self, delta_millis: u64) {
        self.now.fetch_add(delta_millis, Ordering::SeqCst);
        self.tick();
    }

    /// Jumps time to `now_millis` (monotonicity is the caller's
    /// responsibility) and wakes attached sweepers.
    pub fn set(&self, now_millis: u64) {
        self.now.store(now_millis, Ordering::SeqCst);
        self.tick();
    }

    fn tick(&self) {
        let signals = self.signals.lock().unwrap_or_else(|e| e.into_inner());
        for signal in signals.iter() {
            signal.notify();
        }
    }
}

impl Clock for MockClock {
    fn now_millis(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn timeout_until(&self, _deadline_millis: u64) -> Option<Duration> {
        None // mock time never advances on its own
    }

    fn attach(&self, signal: Arc<SweepSignal>) {
        self.signals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(signal);
    }
}

#[derive(Debug)]
struct SignalState {
    generation: u64,
    shutdown: bool,
}

/// The wakeup channel between a coordinator and its sweeper: a
/// generation counter bumped by every notification (deadline-carrying
/// registration, mock-clock advance, shutdown) and the condvar the
/// sweeper sleeps on. Notifications are level-triggered through the
/// generation, so one arriving *while the sweeper is mid-sweep* makes
/// the next wait return immediately instead of being lost.
#[derive(Debug)]
pub struct SweepSignal {
    state: Mutex<SignalState>,
    condvar: Condvar,
}

impl Default for SweepSignal {
    fn default() -> Self {
        SweepSignal::new()
    }
}

impl SweepSignal {
    /// A fresh signal.
    pub fn new() -> SweepSignal {
        SweepSignal {
            state: Mutex::new(SignalState {
                generation: 0,
                shutdown: false,
            }),
            condvar: Condvar::new(),
        }
    }

    /// Wakes the sweeper (something about the deadline landscape
    /// changed: an earlier deadline registered, or mock time moved).
    pub fn notify(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.generation += 1;
        drop(state);
        self.condvar.notify_all();
    }

    /// Asks the sweeper to exit its loop.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        drop(state);
        self.condvar.notify_all();
    }

    /// The current generation (snapshot before deriving the next
    /// deadline; pass to [`SweepSignal::wait_past`]).
    pub fn generation(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .generation
    }

    /// Blocks until the generation moves past `seen`, `timeout`
    /// elapses (`None` = wait indefinitely), or shutdown. Returns
    /// `true` when shutdown was requested.
    pub fn wait_past(&self, seen: u64, timeout: Option<Duration>) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            if state.shutdown {
                return true;
            }
            if state.generation != seen {
                return false;
            }
            match deadline {
                None => {
                    state = self.condvar.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        return false; // timed out: the deadline is due
                    }
                    state = self
                        .condvar
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }
}

/// What a [`DeadlineSweeper`] needs from a coordinator. Implemented by
/// [`crate::ShardedCoordinator`]; the methods are lock-free where the
/// coordinator can make them so (`next_deadline_millis` reads the
/// per-shard deadline hints).
pub trait DeadlineHost: Send + Sync {
    /// The earliest deadline of any pending query, or `None` when no
    /// pending query carries one.
    fn next_deadline_millis(&self) -> Option<u64>;

    /// Retires every pending query whose deadline is at or before
    /// `now_millis` (logged before removal; waiters resolve
    /// [`crate::CoordinationOutcome::Expired`]). Returns the expired
    /// ids.
    fn expire_due(&self, now_millis: u64) -> Vec<QueryId>;

    /// The signal this coordinator notifies when a deadline-carrying
    /// query registers (the sweeper waits on it).
    fn sweep_signal(&self) -> Arc<SweepSignal>;

    /// Periodic housekeeping, called once per sweeper wakeup right
    /// after the expiry sweep: hosts evaluate time-based maintenance
    /// policies here (the coordinator runs its
    /// [`crate::shard::CheckpointPolicy`] and nothing else — its gauges
    /// are published by every shard-lock release and need no refresh).
    /// The default does nothing.
    fn sweep_tick(&self, _now_millis: u64) {}
}

/// A background thread that drives `expire_due` sweeps off the host's
/// min-deadline hint: it wakes when the earliest deadline is due
/// (system clock) or when the host/clock notifies it (new earlier
/// deadline, mock-clock advance), sweeps, and goes back to sleep. A
/// host with no deadlines costs the sweeper zero CPU.
///
/// Dropping the sweeper shuts the thread down and joins it.
pub struct DeadlineSweeper {
    signal: Arc<SweepSignal>,
    swept: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl DeadlineSweeper {
    /// Spawns a sweeper over `host`, timed by `clock`.
    pub fn spawn(host: Arc<dyn DeadlineHost>, clock: Arc<dyn Clock>) -> DeadlineSweeper {
        let signal = host.sweep_signal();
        clock.attach(Arc::clone(&signal));
        let swept = Arc::new(AtomicU64::new(0));
        let handle = {
            let signal = Arc::clone(&signal);
            let swept = Arc::clone(&swept);
            std::thread::Builder::new()
                .name("deadline-sweeper".into())
                .spawn(move || loop {
                    // snapshot BEFORE sweeping: a deadline registered
                    // during the sweep bumps the generation and the
                    // wait below returns immediately
                    let seen = signal.generation();
                    let now = clock.now_millis();
                    let expired = host.expire_due(now);
                    swept.fetch_add(expired.len() as u64, Ordering::Release);
                    host.sweep_tick(clock.now_millis());
                    let timeout = match host.next_deadline_millis() {
                        Some(d) if d <= clock.now_millis() => {
                            if expired.is_empty() {
                                // a due deadline the sweep could not
                                // retire (log-before-ack refused: e.g.
                                // the WAL write failed): back off
                                // instead of hammering the log in a
                                // hot loop; a notify still wakes us
                                // early
                                Some(Duration::from_millis(100))
                            } else {
                                // time moved during a productive
                                // sweep: sweep again without sleeping
                                continue;
                            }
                        }
                        Some(d) => clock.timeout_until(d),
                        None => None,
                    };
                    if signal.wait_past(seen, timeout) {
                        return; // shutdown
                    }
                })
                .expect("spawn deadline sweeper")
        };
        DeadlineSweeper {
            signal,
            swept,
            handle: Some(handle),
        }
    }

    /// Total queries expired by this sweeper's sweeps. A sweep is
    /// counted after its shard locks are released, so a reader that
    /// sees it counted also sees the gauges that sweep published.
    pub fn swept(&self) -> u64 {
        self.swept.load(Ordering::Acquire)
    }

    /// Stops the sweeper thread and joins it.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.signal.shutdown();
            let _ = handle.join();
        }
    }
}

impl Drop for DeadlineSweeper {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_advances_and_notifies() {
        let clock = MockClock::new(100);
        let signal = Arc::new(SweepSignal::new());
        clock.attach(Arc::clone(&signal));
        let before = signal.generation();
        clock.advance(50);
        assert_eq!(clock.now_millis(), 150);
        assert_ne!(signal.generation(), before);
        clock.set(1000);
        assert_eq!(clock.now_millis(), 1000);
        assert_eq!(clock.timeout_until(2000), None);
    }

    #[test]
    fn system_clock_timeout_is_bounded_below() {
        let clock = SystemClock;
        let now = clock.now_millis();
        assert!(now > 0);
        // a deadline in the past still yields a (minimal) timeout
        assert!(clock.timeout_until(0).unwrap() >= Duration::from_millis(1));
    }

    #[test]
    fn wait_past_sees_notify_and_shutdown() {
        let signal = Arc::new(SweepSignal::new());
        let seen = signal.generation();
        signal.notify();
        assert!(!signal.wait_past(seen, None), "generation moved: no wait");
        let seen = signal.generation();
        // timed wait expires without a notification
        assert!(!signal.wait_past(seen, Some(Duration::from_millis(5))));
        signal.shutdown();
        assert!(signal.wait_past(seen, None), "shutdown reported");
    }
}
