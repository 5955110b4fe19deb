//! The TCP front-end server: a single-threaded readiness reactor.
//!
//! One thread owns everything: the listening socket, every connection,
//! the [`WaiterSet`] driving every in-flight session future, and the
//! timer heap that reaps idle connections. Sockets are nonblocking and
//! epoll-registered (via the [`crate::poller`] wrapper over the
//! vendored syscall shim); the reactor sleeps in `epoll_wait` until a
//! socket is ready, a timer is due, or a completion lands — the
//! coordinator's completion signal is bridged into the epoll wait
//! through [`WaiterSet::set_wake_hook`] and an eventfd, so a deadline
//! expiry on the sweeper thread wakes the reactor immediately.
//!
//! This replaces the thread-per-connection design: at 2048 sessions
//! the old front-end carried ~31 KiB of handler-thread stack per
//! session and a 5 ms accept sleep-poll; the reactor carries a few
//! hundred bytes of state per connection, accepts on readiness, and
//! scales past 8192 sessions on one thread.
//!
//! ## Write backpressure
//!
//! Responses are never written under a lock and never block. Each
//! connection owns a bounded outbound queue: a response is written
//! straight to the socket while the kernel accepts it, the remainder
//! is queued, and `EPOLLOUT` interest is armed **only while the queue
//! is non-empty**. Every accepted socket sets `TCP_NODELAY`: each flush
//! is already one `write_vectored`, and on an idle session Nagle only
//! held a push behind the peer's delayed ACK (~40 ms). A peer that
//! stops reading while completions keep arriving fills its queue to
//! [`ServerConfig::max_outbound_bytes`] and is shed — a best-effort
//! [`ErrorCode::Backpressure`] frame, then disconnect — so one slow
//! reader can no longer stall every session behind a shared writer
//! lock. Shed sessions lose nothing durable: their pending queries
//! stay registered and a `Resume` recovers them.
//!
//! ## Commit-pending frames
//!
//! The reactor never waits for the log. Submits and cancels go through
//! the coordinator's pipelined entries
//! ([`ShardedCoordinator::submit`] under [`Ack::Pipelined`],
//! [`ShardedCoordinator::cancel_pipelined`]), which enqueue their
//! registration, cancel and match groups to the WAL writer and return.
//! Every frame the reactor queues is stamped with the database's
//! enqueued LSN at that moment — it can reflect nothing the log was not
//! yet asked to hold — and a connection's frames are written only up to
//! the durable LSN, in order. The rest wait in the connection's
//! *commit-pending* queue while the reactor keeps decoding every
//! session, so one group commit covers all their submits. The writer's
//! wake hook pokes the poller's eventfd after each sync, and each
//! connection's newly covered frames — a reply plus the pushes of the
//! same tick — leave in one `write_vectored`. Held frames count against
//! [`ServerConfig::max_outbound_bytes`]. If the writer fails, every
//! held frame becomes an [`ErrorCode::Internal`] reply and its session
//! closes. Without a WAL every stamp is 0, nothing is held, and each
//! frame is written as it is queued.
//!
//! ## Compile path
//!
//! The reactor owns one [`Templates`] map and compiles every `Submit`
//! text through it, with no lock (one thread). A text whose template
//! key was stored skips lexing, parsing and compiling: it costs the key
//! pass and one clone of the stored query, re-slotted with the text's
//! own string literals. The map is bounded (the oldest key is evicted)
//! and returns exactly the query or error that compiling the text from
//! scratch returns, so `submit` namespaces and safety-checks it as it
//! does any other query.
//!
//! ## Tenancy and session tokens
//!
//! Unchanged from the threaded front-end: the server installs its
//! [`TenantRegistry`] into the coordinator so quota checks happen
//! inside `submit`, and session tokens rotate on every handshake —
//! `Resume` must present the owner's current token, and a successful
//! resume re-arms pending queries via
//! [`ShardedCoordinator::reattach`] (stale handles resolve
//! [`CoordinationOutcome::Superseded`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use youtopia_core::{
    tenant_of, Ack, Clock, CoordinationOutcome, CoreError, DeadlineSweeper, QueryId,
    ShardedCoordinator, SubmitOptions, Templates, TenantRegistry, TenantStats, WaiterSet,
};

use crate::error::NetResult;
use crate::poller::{set_send_buffer, Interest, PollEvent, PollWaker, Poller};
use crate::protocol::{
    encode_frame, ErrorCode, FrameBuf, Outcome, Request, Response, TenantSummary,
    MAX_AUDIT_REPLY_ROWS, PROTOCOL_VERSION,
};

/// Epoll token for the listening socket (connection slots count up
/// from 0 and can never reach it).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// How long a closing connection may take to drain its final frames
/// before the reactor force-closes it.
const CLOSE_LINGER_MILLIS: u64 = 5_000;

/// Frames handed to one `write_vectored` call.
const MAX_IOVECS: usize = 64;

/// Upper bound on the reactor's epoll sleep while any timer is armed
/// and the clock cannot translate deadlines into wall time (mock
/// clocks): mock-time advances are observed within one tick. With no
/// timers armed the reactor sleeps indefinitely.
const TICK: Duration = Duration::from_millis(25);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Default lifetime of a submission in milliseconds: a `Submit`
    /// without an explicit deadline gets `now + connection_timeout`,
    /// so queries stranded by a vanished client always expire.
    pub connection_timeout_millis: u64,
    /// A connection with no traffic in either direction for this long
    /// is reaped (its pending queries stay registered for `Resume`).
    /// Applies from accept, so a socket that never completes the
    /// handshake is bounded too.
    pub idle_timeout: Duration,
    /// Per-connection outbound queue cap in bytes. A connection whose
    /// queued responses exceed this is shed as a slow peer
    /// ([`ErrorCode::Backpressure`]) rather than buffered without
    /// bound.
    pub max_outbound_bytes: usize,
    /// When set, shrink each accepted socket's kernel send buffer
    /// (`SO_SNDBUF`) to this many bytes. Tests use it to make
    /// backpressure reproducible without pushing hundreds of KiB
    /// through the default kernel buffer first.
    pub send_buffer_bytes: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            connection_timeout_millis: 30_000,
            idle_timeout: Duration::from_secs(300),
            max_outbound_bytes: 256 * 1024,
            send_buffer_bytes: None,
        }
    }
}

/// Shared counters the reactor updates and [`NetServer::stats`]
/// snapshots.
#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    active: AtomicU64,
    queued_bytes: AtomicU64,
    slow_peer_disconnects: AtomicU64,
    idle_reaped: AtomicU64,
}

/// A point-in-time snapshot of the server's connection counters (see
/// [`NetServer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Bytes currently queued for write across all connections (the
    /// backpressure depth; ~0 when every peer keeps up).
    pub queued_bytes: u64,
    /// Connections shed because their outbound queue overflowed
    /// [`ServerConfig::max_outbound_bytes`].
    pub slow_peer_disconnects: u64,
    /// Connections reaped by the idle timer.
    pub idle_reaped: u64,
}

/// The running server. Dropping it (or calling
/// [`NetServer::shutdown`]) wakes and joins the reactor thread.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Arc<PollWaker>,
    reactor: Option<std::thread::JoinHandle<()>>,
    stats: Arc<StatsInner>,
    _sweeper: DeadlineSweeper,
}

impl NetServer {
    /// Binds, installs `tenants` into the coordinator, spawns the
    /// deadline sweeper (timed by `clock`) and the reactor thread.
    pub fn spawn(
        co: Arc<ShardedCoordinator>,
        tenants: Arc<TenantRegistry>,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> NetResult<NetServer> {
        co.set_tenant_registry(Arc::clone(&tenants));
        let sweeper = DeadlineSweeper::spawn(Arc::clone(&co), Arc::clone(&clock));

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let waker = poller.waker();

        let mut set = WaiterSet::new();
        {
            // bridge completion signals (including the sweeper thread's
            // deadline expiries) into the epoll wait
            let waker = poller.waker();
            set.set_wake_hook(move || waker.wake());
        }

        // the log writer wakes the reactor after every sync, so held
        // frames leave as soon as the log covers them
        let durable_hook: Arc<dyn Fn() + Send + Sync> = {
            let waker = poller.waker();
            Arc::new(move || waker.wake())
        };
        co.db().add_durable_hook(Arc::downgrade(&durable_hook));

        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());

        let mut reactor = Reactor {
            co,
            _durable_hook: durable_hook,
            tenants,
            clock,
            config,
            listener,
            poller,
            set,
            directory: Directory::default(),
            conns: Vec::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            next_gen: 0,
            route: HashMap::new(),
            session_conn: HashMap::new(),
            holding: Vec::new(),
            timers: BinaryHeap::new(),
            events: Vec::new(),
            templates: Templates::default(),
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
        };
        let handle = std::thread::Builder::new()
            .name("net-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor");

        Ok(NetServer {
            local_addr,
            shutdown,
            waker,
            reactor: Some(handle),
            stats,
            _sweeper: sweeper,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the connection counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            active: self.stats.active.load(Ordering::Relaxed),
            queued_bytes: self.stats.queued_bytes.load(Ordering::Relaxed),
            slow_peer_disconnects: self.stats.slow_peer_disconnects.load(Ordering::Relaxed),
            idle_reaped: self.stats.idle_reaped.load(Ordering::Relaxed),
        }
    }

    /// Wakes and joins the reactor, closing every connection.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------------------ //
// Reactor internals
// ------------------------------------------------------------------ //

/// Owner → current session token. Single-threaded now (only the
/// reactor touches it); tokens still rotate on every handshake.
#[derive(Default)]
struct Directory {
    next_session: u64,
    current: HashMap<String, u64>,
}

impl Directory {
    fn open(&mut self, owner: &str) -> u64 {
        self.next_session += 1;
        self.current.insert(owner.to_string(), self.next_session);
        self.next_session
    }

    fn resume(&mut self, owner: &str, token: u64) -> Option<u64> {
        match self.current.get(owner) {
            Some(&t) if t == token => {
                self.next_session += 1;
                self.current.insert(owner.to_string(), self.next_session);
                Some(self.next_session)
            }
            _ => None,
        }
    }
}

enum ConnState {
    /// Waiting for `Hello` or `Resume`.
    Handshake,
    /// Session established; `session` is the token in `session_conn`.
    Established { owner: String, session: u64 },
}

/// A queued frame the log does not cover yet.
struct Held {
    /// The database's enqueued LSN when the frame was queued.
    stamp: u64,
    /// The reply's correlation id, for the error that replaces it if
    /// the log writer fails.
    corr: u64,
    frame: Vec<u8>,
}

/// One connection's reactor-side state: a few hundred bytes plus
/// whatever is actually buffered, replacing a handler thread's stack.
struct Conn {
    stream: TcpStream,
    /// Generation stamp: timer-heap entries carry it so an entry from
    /// a previous occupant of this slot is recognised as stale.
    gen: u64,
    inbuf: FrameBuf,
    /// Encoded frames waiting for the socket; `front_off` is how much
    /// of the front frame has already been written.
    out: VecDeque<Vec<u8>>,
    front_off: usize,
    /// Commit-pending frames, in order, behind everything in `out`.
    held: VecDeque<Held>,
    /// Bytes in `out` (unwritten) and `held`.
    out_bytes: usize,
    /// Whether `EPOLLOUT` interest is currently registered.
    writable_armed: bool,
    state: ConnState,
    /// Draining final frames; no further input is processed and the
    /// connection closes when the queue empties (or the linger timer
    /// fires).
    closing: bool,
    /// Clock millis of the last traffic in either direction.
    last_activity: u64,
    /// Force-close deadline once `closing` (see `CLOSE_LINGER_MILLIS`).
    linger_due: u64,
    /// The due value of this connection's current timer-heap entry;
    /// entries whose due no longer matches are stale and dropped on
    /// pop.
    next_timer_due: u64,
}

struct Reactor {
    co: Arc<ShardedCoordinator>,
    /// Registered weakly with the log writer; dropped with the reactor.
    _durable_hook: Arc<dyn Fn() + Send + Sync>,
    tenants: Arc<TenantRegistry>,
    clock: Arc<dyn Clock>,
    config: ServerConfig,
    listener: TcpListener,
    poller: Poller,
    set: WaiterSet,
    directory: Directory,
    /// Slab of connections; the slot index is the epoll token.
    conns: Vec<Option<Conn>>,
    /// Slots free for reuse.
    free: Vec<usize>,
    /// Slots closed during the current event batch; moved to `free`
    /// only after the batch so a stale event cannot hit a reused slot.
    pending_free: Vec<usize>,
    next_gen: u64,
    /// Pending query → owning session token.
    route: HashMap<QueryId, u64>,
    /// Live session token → connection slot.
    session_conn: HashMap<u64, usize>,
    /// Slots whose connection holds commit-pending frames (may repeat
    /// or name a closed slot; checked on release).
    holding: Vec<usize>,
    /// `(due_millis, slot, gen)` min-heap; entries are validated
    /// lazily against the connection's `next_timer_due` on pop.
    timers: BinaryHeap<Reverse<(u64, usize, u64)>>,
    events: Vec<PollEvent>,
    /// Every `Submit` compiles through this one map (module docs).
    templates: Templates,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
}

impl Reactor {
    fn run(&mut self) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            for (qid, outcome) in self.set.poll_ready() {
                self.deliver(qid, outcome);
            }
            self.release_held();
            self.process_timers();
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                return; // epoll itself failed: nothing to serve with
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                let slot = ev.token as usize;
                if ev.readable {
                    self.read_ready(slot);
                }
                if ev.writable {
                    self.write_ready(slot);
                }
            }
            self.events = events;
            self.free.append(&mut self.pending_free);
        }
    }

    // ---- completions ------------------------------------------------

    /// Pushes a terminal outcome to whichever live session owns the
    /// query; sessions that disconnected without resuming miss the
    /// push (their queries expired under the sweeper to get here).
    fn deliver(&mut self, qid: QueryId, outcome: CoordinationOutcome) {
        if let Some(session) = self.route.remove(&qid) {
            self.push_to_session(session, qid, outcome);
        }
    }

    fn push_to_session(&mut self, session: u64, qid: QueryId, outcome: CoordinationOutcome) {
        if let Some(&slot) = self.session_conn.get(&session) {
            self.enqueue(
                slot,
                &Response::Done {
                    corr: 0,
                    qid: qid.0,
                    outcome: convert_outcome(outcome),
                },
            );
        }
    }

    // ---- timers -----------------------------------------------------

    fn idle_millis(&self) -> u64 {
        (self.config.idle_timeout.as_millis() as u64).max(1)
    }

    /// The deadline currently governing a connection.
    fn conn_due(conn: &Conn, idle_millis: u64) -> u64 {
        if conn.closing {
            conn.linger_due
        } else {
            conn.last_activity.saturating_add(idle_millis)
        }
    }

    /// Pops due timer entries: stale ones are dropped, refreshed ones
    /// re-pushed at their real deadline, and genuinely expired
    /// connections reaped.
    fn process_timers(&mut self) {
        let now = self.clock.now_millis();
        let idle = self.idle_millis();
        while let Some(&Reverse((due, slot, gen))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
                continue;
            };
            if conn.gen != gen || conn.next_timer_due != due {
                continue; // stale entry from a refresh or a prior occupant
            }
            let actual = Reactor::conn_due(conn, idle);
            if actual <= now {
                if !conn.closing {
                    self.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                }
                self.close(slot);
            } else {
                // inbound activity moved the deadline since the entry
                // was pushed: re-arm at the real one
                self.arm_timer(slot, actual);
            }
        }
    }

    fn arm_timer(&mut self, slot: usize, due: u64) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.next_timer_due = due;
            self.timers.push(Reverse((due, slot, conn.gen)));
        }
    }

    /// How long the epoll wait may sleep: until the earliest live
    /// timer, one [`TICK`] when the clock cannot map deadlines to wall
    /// time (mock clocks), or indefinitely with no timers armed.
    fn next_timeout(&mut self) -> Option<Duration> {
        loop {
            let &Reverse((due, slot, gen)) = self.timers.peek()?;
            match self.conns.get(slot).and_then(Option::as_ref) {
                Some(c) if c.gen == gen && c.next_timer_due == due => {
                    return Some(self.clock.timeout_until(due).unwrap_or(TICK));
                }
                _ => {
                    self.timers.pop(); // prune stale entries eagerly
                }
            }
        }
    }

    // ---- accept -----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // transient per-connection failure (e.g. aborted before
                // accept); the listener stays registered
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Nagle would hold a small write behind an unacknowledged one
        // until an idle peer's delayed ACK, ~40 ms later: a waiting
        // session's `Done` push behind its `Accepted`. Each flush already
        // hands everything queued to one `write_vectored`.
        stream.set_nodelay(true).ok();
        if let Some(bytes) = self.config.send_buffer_bytes {
            let _ = set_send_buffer(stream.as_raw_fd(), bytes);
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self
            .poller
            .add(stream.as_raw_fd(), slot as u64, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.next_gen += 1;
        let now = self.clock.now_millis();
        self.conns[slot] = Some(Conn {
            stream,
            gen: self.next_gen,
            inbuf: FrameBuf::new(),
            out: VecDeque::new(),
            front_off: 0,
            held: VecDeque::new(),
            out_bytes: 0,
            writable_armed: false,
            state: ConnState::Handshake,
            closing: false,
            last_activity: now,
            linger_due: 0,
            next_timer_due: 0,
        });
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.stats.active.fetch_add(1, Ordering::Relaxed);
        let due = now.saturating_add(self.idle_millis());
        self.arm_timer(slot, due);
    }

    // ---- reads ------------------------------------------------------

    fn read_ready(&mut self, slot: usize) {
        let mut payloads = Vec::new();
        let mut eof = false;
        let mut frame_error: Option<String> = None;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let now = self.clock.now_millis();
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match (&conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = now;
                        if conn.closing {
                            continue; // discard input while draining
                        }
                        conn.inbuf.push(&chunk[..n]);
                        loop {
                            match conn.inbuf.next_frame() {
                                Ok(Some(payload)) => payloads.push(payload),
                                Ok(None) => break,
                                Err(e) => {
                                    frame_error = Some(e.to_string());
                                    break;
                                }
                            }
                        }
                        if frame_error.is_some() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true; // connection-level failure: treat as gone
                        break;
                    }
                }
            }
        }
        // complete frames first — a peer may send Bye and close in one
        // burst, and the frames precede the EOF
        for payload in payloads {
            if self.conns.get(slot).and_then(Option::as_ref).is_none() {
                return; // a frame closed the connection (Bye, shed, ...)
            }
            self.handle_frame(slot, &payload);
        }
        if let Some(msg) = frame_error {
            self.protocol_error(slot, 0, msg);
            return;
        }
        if eof {
            self.close(slot);
        }
    }

    // ---- writes -----------------------------------------------------

    fn write_ready(&mut self, slot: usize) {
        self.flush(slot);
    }

    /// Frames and queues a response, writing as much as the socket
    /// will take right now — or holding it, commit-pending, until the
    /// log covers everything enqueued to it so far. Overflowing the
    /// queue sheds the peer.
    fn enqueue(&mut self, slot: usize, resp: &Response) {
        let stamp = self.co.db().enqueued_lsn();
        let frame = encode_frame(&resp.encode());
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.closing {
            return; // final frames already queued; nothing new after
        }
        if conn.out_bytes + frame.len() > self.config.max_outbound_bytes {
            // slow peer: it stopped reading while completions kept
            // arriving. Shed it — never buffer without bound, never
            // block the reactor. Best-effort close notice; the peer's
            // pending queries stay registered for a Resume.
            let notice = encode_frame(
                &Response::Error {
                    corr: 0,
                    code: ErrorCode::Backpressure,
                    message: format!(
                        "outbound queue overflow ({} bytes queued); resume to recover",
                        conn.out_bytes
                    ),
                }
                .encode(),
            );
            let _ = (&conn.stream).write(&notice);
            self.stats
                .slow_peer_disconnects
                .fetch_add(1, Ordering::Relaxed);
            self.close(slot);
            return;
        }
        conn.last_activity = self.clock.now_millis();
        conn.out_bytes += frame.len();
        self.stats
            .queued_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        if conn.held.is_empty() && stamp <= self.co.db().durable_lsn() {
            conn.out.push_back(frame);
            self.flush(slot);
            return;
        }
        if conn.held.is_empty() {
            self.holding.push(slot);
        }
        conn.held.push_back(Held {
            stamp,
            corr: corr_of(resp),
            frame,
        });
    }

    /// Moves every commit-pending frame the log now covers into its
    /// connection's write queue and flushes each such connection once.
    /// After a log failure, frames the log will never cover become
    /// `Internal` errors and their sessions close.
    fn release_held(&mut self) {
        if self.holding.is_empty() {
            return;
        }
        // the failure first: once it is set, the durable LSN is final
        let failure = self.co.db().log_failure();
        let durable = self.co.db().durable_lsn();
        let mut slots = std::mem::take(&mut self.holding);
        slots.sort_unstable();
        slots.dedup();
        for slot in slots {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            while conn.held.front().is_some_and(|h| h.stamp <= durable) {
                let held = conn.held.pop_front().expect("checked above");
                conn.out.push_back(held.frame);
            }
            if !conn.held.is_empty() {
                match &failure {
                    Some(e) => self.fail_held(slot, &e.to_string()),
                    None => self.holding.push(slot),
                }
            }
            self.flush(slot);
        }
    }

    /// Replaces a connection's commit-pending frames with `Internal`
    /// errors (the log writer failed, so they will never be covered)
    /// and closes the session once they are written.
    fn fail_held(&mut self, slot: usize, cause: &str) {
        let now = self.clock.now_millis();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        for held in std::mem::take(&mut conn.held) {
            let frame = encode_frame(
                &Response::Error {
                    corr: held.corr,
                    code: ErrorCode::Internal,
                    message: format!("log write failed: {cause}"),
                }
                .encode(),
            );
            conn.out_bytes = conn.out_bytes - held.frame.len() + frame.len();
            self.stats
                .queued_bytes
                .fetch_sub(held.frame.len() as u64, Ordering::Relaxed);
            self.stats
                .queued_bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
            conn.out.push_back(frame);
        }
        if !conn.closing {
            conn.closing = true;
            conn.linger_due = now.saturating_add(CLOSE_LINGER_MILLIS);
            let due = conn.linger_due;
            self.arm_timer(slot, due);
        }
    }

    /// Writes queued frames, up to [`MAX_IOVECS`] per `write_vectored`,
    /// until the socket stops accepting, then reconciles `EPOLLOUT`
    /// interest with whether anything is left.
    fn flush(&mut self, slot: usize) {
        let mut failed = false;
        let mut close_now = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            while !conn.out.is_empty() {
                let written = {
                    let mut slices = [IoSlice::new(&[]); MAX_IOVECS];
                    for (slice, frame) in slices.iter_mut().zip(&conn.out) {
                        *slice = IoSlice::new(frame);
                    }
                    slices[0] = IoSlice::new(&conn.out[0][conn.front_off..]);
                    let n = conn.out.len().min(MAX_IOVECS);
                    (&conn.stream).write_vectored(&slices[..n])
                };
                match written {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_bytes -= n;
                        self.stats
                            .queued_bytes
                            .fetch_sub(n as u64, Ordering::Relaxed);
                        let mut left = n;
                        while let Some(front) = conn.out.front() {
                            let rest = front.len() - conn.front_off;
                            if left < rest {
                                conn.front_off += left;
                                break;
                            }
                            left -= rest;
                            conn.out.pop_front();
                            conn.front_off = 0;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if !failed {
                let want_writable = !conn.out.is_empty();
                if want_writable != conn.writable_armed
                    && self
                        .poller
                        .modify(
                            conn.stream.as_raw_fd(),
                            slot as u64,
                            Interest {
                                readable: true,
                                writable: want_writable,
                            },
                        )
                        .is_ok()
                {
                    conn.writable_armed = want_writable;
                }
                close_now = conn.closing && conn.out.is_empty() && conn.held.is_empty();
            }
        }
        if failed || close_now {
            self.close(slot);
        }
    }

    // ---- lifecycle --------------------------------------------------

    /// Queues a final frame and lets the connection drain before
    /// closing (bounded by the linger timer).
    fn finish(&mut self, slot: usize, resp: &Response) {
        self.enqueue(slot, resp);
        let now = self.clock.now_millis();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // enqueue shed it
        };
        if conn.out.is_empty() && conn.held.is_empty() {
            self.close(slot);
            return;
        }
        conn.closing = true;
        conn.linger_due = now.saturating_add(CLOSE_LINGER_MILLIS);
        let due = conn.linger_due;
        self.arm_timer(slot, due);
    }

    fn protocol_error(&mut self, slot: usize, corr: u64, message: String) {
        self.finish(
            slot,
            &Response::Error {
                corr,
                code: ErrorCode::Protocol,
                message,
            },
        );
    }

    /// Tears a connection down immediately: deregisters, drops the
    /// socket and any queued bytes, and parks the slot for reuse after
    /// the current event batch.
    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.stats.active.fetch_sub(1, Ordering::Relaxed);
        self.stats
            .queued_bytes
            .fetch_sub(conn.out_bytes as u64, Ordering::Relaxed);
        if let ConnState::Established { session, .. } = conn.state {
            if self.session_conn.get(&session) == Some(&slot) {
                self.session_conn.remove(&session);
            }
        }
        self.pending_free.push(slot);
    }

    // ---- frame dispatch ---------------------------------------------

    fn handle_frame(&mut self, slot: usize, payload: &[u8]) {
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                self.protocol_error(slot, 0, e.to_string());
                return;
            }
        };
        let established = {
            let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
                return;
            };
            match &conn.state {
                ConnState::Handshake => None,
                ConnState::Established { owner, session } => Some((owner.clone(), *session)),
            }
        };
        match established {
            None => self.handle_handshake(slot, request),
            Some((owner, session)) => self.handle_established(slot, &owner, session, request),
        }
    }

    fn handle_handshake(&mut self, slot: usize, request: Request) {
        match request {
            Request::Hello { version, owner } if version == PROTOCOL_VERSION => {
                let session = self.directory.open(&owner);
                self.session_conn.insert(session, slot);
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.state = ConnState::Established { owner, session };
                }
                self.enqueue(
                    slot,
                    &Response::Welcome {
                        session,
                        reattached: 0,
                    },
                );
            }
            Request::Resume {
                version,
                owner,
                session: token,
            } if version == PROTOCOL_VERSION => {
                let Some(session) = self.directory.resume(&owner, token) else {
                    self.finish(
                        slot,
                        &Response::Error {
                            corr: 0,
                            code: ErrorCode::BadSession,
                            message: format!("stale or unknown session token {token}"),
                        },
                    );
                    return;
                };
                self.session_conn.insert(session, slot);
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.state = ConnState::Established {
                        owner: owner.clone(),
                        session,
                    };
                }
                let futures = self.co.reattach(&owner);
                let reattached = futures.len() as u32;
                for future in futures {
                    self.register_future(session, future);
                }
                self.enqueue(
                    slot,
                    &Response::Welcome {
                        session,
                        reattached,
                    },
                );
            }
            Request::Hello { .. } | Request::Resume { .. } => {
                self.protocol_error(
                    slot,
                    0,
                    format!("unsupported protocol version (want {PROTOCOL_VERSION})"),
                );
            }
            _ => {
                self.protocol_error(
                    slot,
                    0,
                    "handshake required: send Hello or Resume first".into(),
                );
            }
        }
    }

    fn handle_established(&mut self, slot: usize, owner: &str, session: u64, request: Request) {
        match request {
            Request::Submit {
                corr,
                deadline,
                sql,
            } => {
                let deadline = deadline.unwrap_or_else(|| {
                    self.clock.now_millis() + self.config.connection_timeout_millis
                });
                let request = (
                    owner.to_string(),
                    self.templates.compile(sql),
                    SubmitOptions::with_deadline(deadline),
                );
                let outcome = self.co.submit(vec![request], Ack::Pipelined).pop();
                match outcome.expect("a batch of one has one outcome") {
                    Ok(mut future) => {
                        let qid = future.id();
                        if let Some(outcome) = future.try_take() {
                            // answered on arrival: reply directly, no
                            // waiter-set round trip
                            self.enqueue(
                                slot,
                                &Response::Done {
                                    corr,
                                    qid: qid.0,
                                    outcome: convert_outcome(outcome),
                                },
                            );
                        } else {
                            self.register_future(session, future);
                            self.enqueue(slot, &Response::Accepted { corr, qid: qid.0 });
                        }
                    }
                    Err(e) => self.enqueue(slot, &error_reply(corr, &e)),
                }
            }
            Request::Cancel { corr, qid } => {
                let resp = match self.co.cancel_pipelined(QueryId(qid)) {
                    Ok(()) => Response::CancelOk { corr },
                    Err(e) => error_reply(corr, &e),
                };
                self.enqueue(slot, &resp);
            }
            Request::Stats { corr } => {
                let stats = self.tenants.tenant_stats(tenant_of(owner));
                self.enqueue(
                    slot,
                    &Response::StatsReply {
                        corr,
                        found: stats.is_some(),
                        tenant: stats.as_ref().map(summarize).unwrap_or_default(),
                    },
                );
            }
            Request::AuditQuery {
                corr,
                tenant,
                limit,
            } => {
                // tenant scoping: a session reads only its own ledger
                let resp = if tenant != tenant_of(owner) {
                    Response::Error {
                        corr,
                        code: ErrorCode::Forbidden,
                        message: format!(
                            "tenant '{tenant}' is not this session's tenant \
                             ('{}')",
                            tenant_of(owner)
                        ),
                    }
                } else {
                    let limit = limit.min(MAX_AUDIT_REPLY_ROWS) as usize;
                    let rows = youtopia_core::tenant_audit(self.co.db(), &tenant, limit);
                    Response::AuditReply { corr, rows }
                };
                self.enqueue(slot, &resp);
            }
            Request::Bye { corr } => {
                self.finish(slot, &Response::ByeOk { corr });
            }
            Request::Hello { .. } | Request::Resume { .. } => {
                self.protocol_error(slot, 0, "session already established".into());
            }
        }
    }

    /// Routes a pending future to `session` in the waiter set. If a
    /// newer handle displaces an old one (owner reattached), the stale
    /// handle is already terminal — its `Superseded` outcome is pushed
    /// to the session that used to own the query.
    fn register_future(&mut self, session: u64, future: youtopia_core::CoordinationFuture) {
        let qid = future.id();
        let prev = self.route.insert(qid, session);
        if let Some(mut old) = self.set.insert(future) {
            if let (Some(outcome), Some(prev_session)) = (old.try_take(), prev) {
                if prev_session != session {
                    self.push_to_session(prev_session, qid, outcome);
                }
            }
        }
    }
}

fn convert_outcome(outcome: CoordinationOutcome) -> Outcome {
    match outcome {
        CoordinationOutcome::Answered(n) => Outcome::Answered { answers: n.answers },
        CoordinationOutcome::Cancelled => Outcome::Cancelled,
        CoordinationOutcome::Expired => Outcome::Expired,
        CoordinationOutcome::Superseded => Outcome::Superseded,
    }
}

/// A response's correlation id (0 for frames that carry none).
fn corr_of(resp: &Response) -> u64 {
    match resp {
        Response::Welcome { .. } => 0,
        Response::Accepted { corr, .. }
        | Response::Done { corr, .. }
        | Response::CancelOk { corr }
        | Response::StatsReply { corr, .. }
        | Response::ByeOk { corr }
        | Response::Error { corr, .. }
        | Response::AuditReply { corr, .. } => *corr,
    }
}

fn summarize(stats: &TenantStats) -> TenantSummary {
    TenantSummary {
        submitted: stats.submitted,
        answered: stats.answered,
        cancelled: stats.cancelled,
        expired: stats.expired,
        aborted: stats.aborted,
        rejected: stats.rejected,
        in_flight: stats.in_flight as u64,
        standing: stats.standing as u64,
    }
}

fn error_reply(corr: u64, e: &CoreError) -> Response {
    let code = match e {
        CoreError::QuotaExceeded { .. } => ErrorCode::Quota,
        CoreError::UnknownQuery(_) => ErrorCode::UnknownQuery,
        CoreError::Parse(_)
        | CoreError::NotEntangled
        | CoreError::Compile(_)
        | CoreError::Unsafe(_) => ErrorCode::Rejected,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        corr,
        code,
        message: e.to_string(),
    }
}
