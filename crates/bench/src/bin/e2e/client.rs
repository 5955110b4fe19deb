//! The load generator: a thin pipelined client over the public
//! `protocol` module (`NetClient::call` is strictly one-at-a-time) and
//! the two-thread closed loop that drives a generated [`Stream`].
//!
//! Closed loop, stated once: two generator threads, one connection
//! each. Side A (`bench/a`) registers every unit's non-closing
//! members, sends the cancels and the lone queries; side B
//! (`bench/b`) sends a unit's closing member once A's members are
//! acknowledged, so roles never race and counters repeat. Each side
//! keeps at most `max(1, window / 2)` submits unanswered (a slot frees
//! when the direct reply is read; pushes are timed separately), and A
//! starts a unit only while fewer than that many of its units are
//! unreleased — a unit is released when its answers have been pushed,
//! its cancel acknowledged, or its lone query accepted — so the
//! standing load stays within `window` of its preload and window 1 is
//! a strict ping-pong.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use youtopia_net::{
    write_frame, FrameReader, Outcome, ReadEvent, Request, Response, TenantSummary,
    PROTOCOL_VERSION,
};
use youtopia_storage::Value;

use crate::gen::{patch_deadline, Expect, Op, Side, Stream, UnitKind, SHORT_DEADLINE_MS};
use crate::trace::Span;

pub const OWNER_A: &str = "bench/a";
pub const OWNER_B: &str = "bench/b";

/// Correlation ids at or above this are cancels (low bits: op index).
const CANCEL_BIT: u64 = 1 << 40;
/// How long a side waits without any frame before it gives up.
const PATIENCE: Duration = Duration::from_secs(8);

/// How long a read waits for data before the caller looks at its
/// clock; set once per connection.
const POLL: Duration = Duration::from_millis(200);

/// The client end of a session's socket.
struct Sock {
    stream: TcpStream,
    /// Acknowledge every segment at once (`TCP_QUICKACK`) instead of
    /// the kernel's delayed ACK. The server's accepted sockets have no
    /// `TCP_NODELAY`, so its second small write to a session waits for
    /// the first one's ACK; with delayed ACKs that is a ~40 ms stall
    /// per round which hides every other layer. The pipelined
    /// workloads bypass it this way; `pair_idle` keeps the default
    /// and carries it in full.
    quick_ack: bool,
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.quick_ack {
            // not sticky: a write soon after a read puts the socket
            // back into delayed-ACK mode, so it is re-armed before
            // every read of the socket (not of every frame: one read
            // often carries several)
            self.stream.set_quickack(true)?;
        }
        self.stream.read(buf)
    }
}

/// One session: a connected, greeted socket.
pub struct Conn {
    reader: FrameReader<Sock>,
}

impl Conn {
    pub fn open(addr: SocketAddr, owner: &str, quick_ack: bool) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(POLL))
            .map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: FrameReader::new(Sock { stream, quick_ack }),
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            owner: owner.to_string(),
        };
        match conn.call(&hello.encode())? {
            Response::Welcome { .. } => Ok(conn),
            other => Err(format!("hello answered {other:?}")),
        }
    }

    fn stream(&self) -> &TcpStream {
        &self.reader.get_ref().stream
    }

    fn send(&self, frame: &[u8]) -> Result<(), String> {
        self.stream()
            .write_all(frame)
            .map_err(|e| format!("write: {e}"))
    }

    /// Next frame, or `None` after [`POLL`] without one.
    fn read(&mut self) -> Result<Option<Response>, String> {
        match self.reader.read_event().map_err(|e| e.to_string())? {
            ReadEvent::Frame(payload) => Response::decode(&payload)
                .map(Some)
                .map_err(|e| e.to_string()),
            ReadEvent::Timeout => Ok(None),
            ReadEvent::Eof => Err("server closed the connection".into()),
        }
    }

    /// One strictly serial request/response (handshake, `Stats`, the
    /// first pair); pushes read on the way are dropped.
    fn call(&mut self, payload: &[u8]) -> Result<Response, String> {
        write_frame(&mut self.stream(), payload).map_err(|e| format!("write: {e}"))?;
        let started = Instant::now();
        loop {
            match self.read()? {
                Some(Response::Done { corr: 0, .. }) => {}
                Some(reply) => return Ok(reply),
                None if started.elapsed() > PATIENCE => return Err("no reply".into()),
                None => {}
            }
        }
    }

    /// The session tenant's ledger, over the wire.
    pub fn stats(&mut self) -> Result<TenantSummary, String> {
        match self.call(&Request::Stats { corr: 1 }.encode())? {
            Response::StatsReply {
                found: true,
                tenant,
                ..
            } => Ok(tenant),
            other => Err(format!("stats answered {other:?}")),
        }
    }

    /// Median `Stats` round trip in µs at window 1: reactor + loopback
    /// + client with no coordinator work.
    pub fn rtt_floor_us(&mut self, rounds: usize) -> Result<f64, String> {
        let payload = Request::Stats { corr: 1 }.encode();
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let started = Instant::now();
            self.call(&payload)?;
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
        Ok(crate::stats::median(&samples))
    }
}

/// Submits a one-pair stream strictly in order — A's half, B's half,
/// A's push — and returns the flight both were given.
pub fn first_pair(a: &mut Conn, b: &mut Conn, pair: &Stream) -> Result<i64, String> {
    let accepted = a.call(&pair.frame(&pair.a_ops[0])[8..])?;
    let Response::Accepted { qid, .. } = accepted else {
        return Err(format!("first half answered {accepted:?}"));
    };
    let closed = b.call(&pair.frame(&pair.b_ops[0])[8..])?;
    let Response::Done {
        outcome: Outcome::Answered { answers },
        ..
    } = closed
    else {
        return Err(format!("closing half answered {closed:?}"));
    };
    let started = Instant::now();
    loop {
        match a.read()? {
            Some(Response::Done {
                corr: 0,
                qid: pushed,
                outcome: Outcome::Answered { answers: mine },
            }) if pushed == qid => {
                return match (flight_of(&answers), flight_of(&mine)) {
                    (Some(x), Some(y)) if x == y => Ok(x),
                    other => Err(format!("first pair's flights disagree: {other:?}")),
                };
            }
            Some(other) => return Err(format!("waiting for the first push, got {other:?}")),
            None if started.elapsed() > PATIENCE => return Err("first push never came".into()),
            None => {}
        }
    }
}

fn flight_of(answers: &[(String, youtopia_storage::Tuple)]) -> Option<i64> {
    match answers.first()?.1.get(1)? {
        Value::Int(fno) => Some(*fno),
        _ => None,
    }
}

/// How a submit's direct reply came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direct {
    #[default]
    None,
    Accepted,
    Done,
}

/// Everything one side observed about one of its submits. Times are
/// ns since the pass's shared base; 0 means "never".
#[derive(Debug, Clone, Copy, Default)]
pub struct OpResult {
    pub sent_ns: u64,
    pub reply_ns: u64,
    pub push_ns: u64,
    pub cancel_sent_ns: u64,
    pub cancel_ok_ns: u64,
    /// Absolute deadline (epoch ms) sent with a short-deadline submit.
    pub deadline_ms: u64,
    pub direct: Direct,
    pub terminal: Option<Expect>,
    /// Flight in the answer, when answered.
    pub fno: i64,
}

/// State the two sides share while a pass runs.
pub struct Shared {
    /// Every A op of a unit below this has been acknowledged.
    a_acked_through: AtomicU32,
    /// First unit that will not be driven (`u32::MAX` while running).
    end_unit: AtomicU32,
    failed: AtomicBool,
    lock: Mutex<()>,
    progressed: Condvar,
}

/// How a pass is driven: the stream is always driven to its end.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Submits each side keeps unanswered, and units A keeps unreleased.
    pub half_window: usize,
    /// First unit that counts toward the metrics; earlier ones warm up.
    pub measure_from: u32,
}

/// What one side brings back from a pass.
pub struct SideLog {
    pub results: Vec<OpResult>,
    /// Frames that fit no request (unknown qid, wrong role, ...).
    pub stray: usize,
    pub error: Option<String>,
    /// Client-side spans (traced passes only).
    pub spans: Vec<Span>,
}

/// What a whole pass brings back.
pub struct PassLog {
    pub a: SideLog,
    pub b: SideLog,
    pub measure_from: u32,
    /// When A began the first measured unit.
    pub measure_start_ns: u64,
    /// The base's wall-clock time, to place deadlines on it.
    pub base_epoch_ms: f64,
    pub queued_bytes_max: u64,
}

impl PassLog {
    /// Both sides' client spans.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.a.spans.clone();
        spans.extend(self.b.spans.iter().cloned());
        spans
    }
}

struct Driver<'a> {
    side: Side,
    conn: &'a mut Conn,
    stream: &'a Stream,
    ops: &'a [Op],
    shared: &'a Shared,
    plan: Plan,
    base: Instant,
    base_epoch_ms: u64,
    results: Vec<OpResult>,
    by_qid: HashMap<u64, u32>,
    /// Per unit: events still missing before A's unit slot frees.
    release_left: Vec<u8>,
    next: usize,
    acked: usize,
    unanswered: usize,
    unreleased: usize,
    open_terminals: usize,
    open_cancels: usize,
    stopped: bool,
    measure_start_ns: u64,
    stray: usize,
    scratch: Vec<u8>,
    /// `Some` on a traced pass: a span per send→reply and send→push.
    spans: Option<Vec<Span>>,
}

impl Driver<'_> {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn publish_progress(&self) {
        let through = if self.acked < self.next {
            self.ops[self.acked].unit
        } else if self.stopped {
            self.shared.end_unit.load(Ordering::Acquire)
        } else {
            self.ops
                .get(self.next)
                .map_or(self.stream.kinds.len() as u32, |op| op.unit)
        };
        self.shared
            .a_acked_through
            .store(through, Ordering::Release);
        drop(self.shared.lock.lock());
        self.shared.progressed.notify_one();
    }

    fn trace(&mut self, name: &'static str, idx: usize, end_ns: u64) {
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start_ns: self.results[idx].sent_ns,
                end_ns,
                parent: None,
                request: u64::from(self.ops[idx].unit) << 1 | u64::from(self.side == Side::B),
            });
        }
    }

    fn stop_at(&mut self, unit: u32) {
        self.stopped = true;
        self.shared.end_unit.store(unit, Ordering::Release);
        self.publish_progress();
    }

    fn release(&mut self, unit: u32) {
        let left = &mut self.release_left[unit as usize];
        if *left > 0 {
            *left -= 1;
            if *left == 0 {
                self.unreleased -= 1;
            }
        }
    }

    fn send_op(&mut self, idx: usize) -> Result<(), String> {
        let op = &self.ops[idx];
        let frame = self.stream.frame(op);
        let sent_ns;
        if op.short_deadline {
            self.scratch.clear();
            self.scratch.extend_from_slice(frame);
            sent_ns = self.now_ns();
            let deadline = self.base_epoch_ms + sent_ns / 1_000_000 + SHORT_DEADLINE_MS;
            patch_deadline(&mut self.scratch, deadline);
            self.results[idx].deadline_ms = deadline;
            self.conn.send(&self.scratch)?;
        } else {
            sent_ns = self.now_ns();
            self.conn.send(frame)?;
        }
        self.results[idx].sent_ns = sent_ns;
        self.unanswered += 1;
        self.open_terminals += 1;
        Ok(())
    }

    /// A: sends while the time, the unit window and the submit window allow.
    fn send_a(&mut self) -> Result<(), String> {
        let mut unit = match self.next {
            0 => u32::MAX,
            n => self.ops[n - 1].unit,
        };
        while !self.stopped {
            let Some(op) = self.ops.get(self.next) else {
                self.stop_at(self.stream.kinds.len() as u32);
                break;
            };
            if op.unit != unit {
                if self.shared.failed.load(Ordering::Relaxed) {
                    self.stop_at(op.unit);
                    break;
                }
                if self.unreleased >= self.plan.half_window {
                    break;
                }
            }
            if self.unanswered >= self.plan.half_window {
                break;
            }
            if self.measure_start_ns == 0 && op.unit >= self.plan.measure_from {
                self.measure_start_ns = self.now_ns().max(1);
            }
            if op.unit != unit {
                unit = op.unit;
                self.unreleased += 1;
                self.release_left[unit as usize] = match self.stream.kinds[unit as usize] {
                    UnitKind::Pair | UnitKind::Lone => 1,
                    UnitKind::Group3 => 2,
                    UnitKind::CancelExpire => 3,
                };
            }
            self.send_op(self.next)?;
            self.next += 1;
        }
        Ok(())
    }

    /// B: sends closers of units A has fully registered. Returns
    /// whether B has sent everything it ever will.
    fn send_b(&mut self) -> Result<bool, String> {
        let through = self.shared.a_acked_through.load(Ordering::Acquire);
        while self.unanswered < self.plan.half_window {
            match self.ops.get(self.next) {
                Some(op) if op.unit < through => {
                    self.send_op(self.next)?;
                    self.next += 1;
                }
                _ => break,
            }
        }
        let end = self.shared.end_unit.load(Ordering::Acquire);
        Ok(end != u32::MAX && self.ops.get(self.next).is_none_or(|op| op.unit >= end))
    }

    fn terminal_of(outcome: &Outcome) -> (Option<Expect>, i64) {
        match outcome {
            Outcome::Answered { answers } => {
                (Some(Expect::Answered), flight_of(answers).unwrap_or(0))
            }
            Outcome::Cancelled => (Some(Expect::Cancelled), 0),
            Outcome::Expired => (Some(Expect::Expired), 0),
            Outcome::Superseded => (None, 0),
        }
    }

    fn handle(&mut self, response: Response) -> Result<(), String> {
        let now = self.now_ns();
        match response {
            Response::Accepted { corr, qid } => {
                let idx = (corr - 1) as usize;
                let Some(result) = self.results.get_mut(idx) else {
                    return Err(format!("Accepted for unknown corr {corr}"));
                };
                result.reply_ns = now;
                result.direct = Direct::Accepted;
                self.trace("client.submit", idx, now);
                self.unanswered -= 1;
                self.acked += 1;
                if self.side == Side::B {
                    // B only ever closes; a registration here is a lost race
                    self.stray += 1;
                    self.open_terminals -= 1;
                    return Ok(());
                }
                self.by_qid.insert(qid, idx as u32);
                let op = &self.ops[idx];
                let unit = op.unit;
                if op.expect != Expect::Answered {
                    self.release(unit);
                }
                if self.ops[idx].expect == Expect::Cancelled {
                    let cancel = Request::Cancel {
                        corr: CANCEL_BIT | idx as u64,
                        qid,
                    };
                    self.results[idx].cancel_sent_ns = self.now_ns();
                    write_frame(&mut self.conn.stream(), &cancel.encode())
                        .map_err(|e| format!("write: {e}"))?;
                    self.open_cancels += 1;
                }
                self.publish_progress();
            }
            Response::Done { corr, qid, outcome } => {
                let idx = if corr == 0 {
                    match self.by_qid.remove(&qid) {
                        Some(idx) => idx as usize,
                        None => {
                            self.stray += 1;
                            return Ok(());
                        }
                    }
                } else {
                    (corr - 1) as usize
                };
                let Some(result) = self.results.get_mut(idx) else {
                    return Err(format!("Done for unknown corr {corr}"));
                };
                let (terminal, fno) = Self::terminal_of(&outcome);
                result.terminal = terminal;
                result.fno = fno;
                self.open_terminals -= 1;
                if corr == 0 {
                    result.push_ns = now;
                    self.trace("client.push_wait", idx, now);
                } else {
                    result.reply_ns = now;
                    result.direct = Direct::Done;
                    self.trace("client.submit", idx, now);
                    self.unanswered -= 1;
                    self.acked += 1;
                }
                if self.side == Side::A {
                    // a direct `Expired` is a short deadline the sweeper
                    // reached before the handler looked at the future:
                    // it stands for the `Accepted` that frees the unit
                    let direct_retired = corr != 0 && self.ops[idx].expect != Expect::Answered;
                    if terminal == Some(Expect::Answered) || direct_retired {
                        self.release(self.ops[idx].unit);
                    }
                    if corr != 0 {
                        self.publish_progress();
                    }
                }
            }
            Response::CancelOk { corr } if corr & CANCEL_BIT != 0 => {
                let idx = (corr & !CANCEL_BIT) as usize;
                self.results[idx].cancel_ok_ns = now;
                self.open_cancels -= 1;
                self.release(self.ops[idx].unit);
            }
            Response::Error { code, message, .. } => {
                return Err(format!("server answered {code:?}: {message}"));
            }
            _ => self.stray += 1,
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), String> {
        let mut last_frame = Instant::now();
        loop {
            let done = match self.side {
                Side::A => {
                    self.send_a()?;
                    self.stopped
                        && self.unanswered == 0
                        && self.open_terminals == 0
                        && self.open_cancels == 0
                }
                Side::B => self.send_b()? && self.unanswered == 0,
            };
            if done {
                return Ok(());
            }
            if self.side == Side::B && self.unanswered == 0 {
                // nothing to read: sleep until A registers more
                let guard = self.shared.lock.lock().unwrap_or_else(|e| e.into_inner());
                let through = self.shared.a_acked_through.load(Ordering::Acquire);
                let end = self.shared.end_unit.load(Ordering::Acquire);
                let next = self.ops.get(self.next);
                let gate_open = next.is_some_and(|op| op.unit < through);
                // once A has announced the end, B's last closers still
                // wait for A's acknowledgements: spinning here until
                // then would take a core from the server
                let all_sent = end != u32::MAX && next.is_none_or(|op| op.unit >= end);
                if !gate_open && !all_sent {
                    let _ = self
                        .shared
                        .progressed
                        .wait_timeout(guard, Duration::from_millis(50));
                }
                if self.shared.failed.load(Ordering::Relaxed) {
                    return Err("the other side failed".into());
                }
                continue;
            }
            match self.conn.read()? {
                Some(response) => {
                    last_frame = Instant::now();
                    self.handle(response)?;
                }
                None if last_frame.elapsed() > PATIENCE => {
                    return Err(format!(
                        "no frame for {PATIENCE:?} with {} replies, {} outcomes, {} cancels open",
                        self.unanswered, self.open_terminals, self.open_cancels
                    ));
                }
                None => {}
            }
        }
    }
}

fn run_side(
    side: Side,
    conn: &mut Conn,
    stream: &Stream,
    shared: &Shared,
    plan: Plan,
    traced: bool,
    base: (Instant, u64),
) -> (SideLog, u64) {
    let ops = match side {
        Side::A => &stream.a_ops,
        Side::B => &stream.b_ops,
    };
    let mut state = Driver {
        side,
        conn,
        stream,
        ops,
        shared,
        plan,
        base: base.0,
        base_epoch_ms: base.1,
        results: vec![OpResult::default(); ops.len()],
        by_qid: HashMap::new(),
        release_left: match side {
            Side::A => vec![0; stream.kinds.len()],
            Side::B => Vec::new(),
        },
        next: 0,
        acked: 0,
        unanswered: 0,
        unreleased: 0,
        open_terminals: 0,
        open_cancels: 0,
        stopped: false,
        measure_start_ns: 0,
        stray: 0,
        scratch: Vec::new(),
        spans: traced.then(Vec::new),
    };
    let error = state.run().err();
    if error.is_some() {
        // release the other side: nothing more will be driven
        shared.failed.store(true, Ordering::Relaxed);
        if side == Side::A && !state.stopped {
            let unit = state.ops.get(state.next).map_or(u32::MAX - 1, |op| op.unit);
            state.stop_at(unit);
        }
    }
    let log = SideLog {
        results: state.results,
        stray: state.stray,
        error,
        spans: state.spans.unwrap_or_default(),
    };
    (log, state.measure_start_ns)
}

/// Drives `stream` over the two sessions to its end and waits for
/// every outstanding outcome. The calling thread samples the server's
/// outbound queue depth meanwhile.
pub fn run_pass(
    a: &mut Conn,
    b: &mut Conn,
    stream: &Stream,
    plan: Plan,
    traced: bool,
    queued_bytes: impl Fn() -> u64,
) -> PassLog {
    let shared = Shared {
        a_acked_through: AtomicU32::new(0),
        end_unit: AtomicU32::new(u32::MAX),
        failed: AtomicBool::new(false),
        lock: Mutex::new(()),
        progressed: Condvar::new(),
    };
    let base = Instant::now();
    let epoch_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let shared = &shared;
    let mut queued_bytes_max = 0;
    let ((a_log, measure_start_ns), (b_log, _)) = std::thread::scope(|scope| {
        let ta = scope
            .spawn(move || run_side(Side::A, a, stream, shared, plan, traced, (base, epoch_ms)));
        let tb = scope
            .spawn(move || run_side(Side::B, b, stream, shared, plan, traced, (base, epoch_ms)));
        while !(ta.is_finished() && tb.is_finished()) {
            queued_bytes_max = queued_bytes_max.max(queued_bytes());
            std::thread::sleep(Duration::from_millis(20));
        }
        (
            ta.join().expect("side A panicked"),
            tb.join().expect("side B panicked"),
        )
    });
    PassLog {
        a: a_log,
        b: b_log,
        measure_from: plan.measure_from,
        measure_start_ns,
        base_epoch_ms: epoch_ms as f64,
        queued_bytes_max,
    }
}
