//! The wire protocol: length-prefixed, checksummed frames carrying
//! versioned request/response payloads.
//!
//! ## Frame format
//!
//! Every frame mirrors the WAL's framing discipline byte for byte:
//!
//! ```text
//! [ u32 payload length | u32 FNV-1a(len_be ∥ payload) | payload ]
//! ```
//!
//! The checksum covers the big-endian length prefix *and* the payload
//! (same construction as `youtopia_storage`'s WAL frames), so a frame
//! whose length field was corrupted in flight fails the checksum even
//! when the corrupted length happens to describe a readable span.
//!
//! ## Robustness discipline
//!
//! Attacker-controlled lengths never drive allocations (the PR 1
//! `Tuple::decode` rule, applied to the whole surface):
//!
//! * a length prefix above [`MAX_FRAME_BYTES`] is rejected on sight —
//!   the reader buffers only bytes actually received, so a `0xFFFFFFFF`
//!   prefix costs the attacker bandwidth, not the server memory;
//! * every count or string length inside a payload is validated
//!   against the bytes remaining before any `Vec` reserve;
//! * payloads must be consumed exactly: trailing bytes are an error,
//!   as is an unknown message tag or protocol version.

use bytes::{Buf, BufMut, BytesMut};

use youtopia_core::AuditRecord;
use youtopia_storage::codec::{get_opt_u64, get_str, get_u64, put_opt_u64, put_str};
use youtopia_storage::Tuple;

use crate::error::NetError;

/// Protocol version carried by `Hello`/`Resume`; the server rejects
/// anything else.
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on a frame payload. A length prefix above this is a
/// protocol error, rejected before any allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The frame checksum: the WAL's, so the two framing layers are
/// bit-identical.
pub use youtopia_storage::wal::frame_checksum;

/// Wraps a payload in a frame: `len | checksum | payload`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.put_u32(payload.len() as u32);
    out.put_u32(frame_checksum(payload.len() as u32, payload));
    out.extend_from_slice(payload);
    out
}

/// Frames a payload and writes it to the transport in one call.
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(payload))
}

/// Tries to split one complete frame off the front of `buf`.
///
/// Returns `Ok(Some((payload, consumed)))` when a full, checksummed
/// frame is buffered, `Ok(None)` when more bytes are needed, and an
/// error for an oversized length prefix, an empty frame, or a checksum
/// mismatch. Never allocates from the length prefix alone.
pub fn split_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, NetError> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let mut header = buf;
    let len = header.get_u32() as usize;
    let checksum = header.get_u32();
    if len == 0 {
        return Err(NetError::Frame("empty frame payload".into()));
    }
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    if buf.len() < 8 + len {
        return Ok(None);
    }
    let payload = &buf[8..8 + len];
    if frame_checksum(len as u32, payload) != checksum {
        return Err(NetError::Frame("frame checksum mismatch".into()));
    }
    Ok(Some((payload.to_vec(), 8 + len)))
}

// ------------------------------------------------------------------ //
// Messages
// ------------------------------------------------------------------ //

/// Client → server messages. Every variant except the handshakes
/// carries a client-chosen correlation id echoed in the reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a fresh session for `owner` (the coordinator owner
    /// string; its tenant is the prefix before the first `/`).
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// Owner this session submits as.
        owner: String,
    },
    /// Reconnects: presents the session token issued by the previous
    /// `Welcome` for `owner`; the server supersedes the stranded
    /// session's futures via `reattach`.
    Resume {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// Owner whose pending queries to reattach.
        owner: String,
        /// Token from the last `Welcome` for this owner.
        session: u64,
    },
    /// Submits one entangled query.
    Submit {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// Absolute deadline in coordinator-clock millis; `None` lets
        /// the server apply its connection-timeout default.
        deadline: Option<u64>,
        /// The entangled SQL text.
        sql: String,
    },
    /// Cancels a pending query by id.
    Cancel {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// The query to cancel.
        qid: u64,
    },
    /// Requests this session's tenant counters.
    Stats {
        /// Correlation id echoed in the reply.
        corr: u64,
    },
    /// Ends the session cleanly (pending queries stay registered for a
    /// later `Resume` until their deadlines reap them).
    Bye {
        /// Correlation id echoed in the reply.
        corr: u64,
    },
    /// Requests the most recent `sys_audit` rows for `tenant`. The
    /// server enforces tenant scoping: a session may only read its own
    /// tenant's ledger ([`ErrorCode::Forbidden`] otherwise).
    AuditQuery {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// Tenant whose audit rows to read (must be the session
        /// owner's tenant).
        tenant: String,
        /// Maximum rows returned (most recent last); the server caps
        /// this at [`MAX_AUDIT_REPLY_ROWS`].
        limit: u32,
    },
}

/// Server-side cap on [`Request::AuditQuery`] row counts, keeping the
/// reply comfortably inside [`MAX_FRAME_BYTES`].
pub const MAX_AUDIT_REPLY_ROWS: u32 = 4096;

/// Terminal outcome of a submitted query, as delivered in
/// [`Response::Done`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The query's group matched; these are its answers.
    Answered {
        /// `(answer relation, tuple)` per head.
        answers: Vec<(String, Tuple)>,
    },
    /// Cancelled before matching.
    Cancelled,
    /// Reaped by the deadline sweeper.
    Expired,
    /// A newer session reattached this owner's queries; this handle's
    /// session no longer owns the query.
    Superseded,
}

/// Machine-readable error class in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or out-of-order message (e.g. `Submit` before
    /// `Hello`, wrong protocol version).
    Protocol,
    /// The tenant's quota rejected the submission.
    Quota,
    /// The coordinator rejected the statement (parse, safety, ...).
    Rejected,
    /// `Cancel` named a query that is not pending.
    UnknownQuery,
    /// `Resume` presented a token that does not match the owner's
    /// current session.
    BadSession,
    /// Server-side failure (storage, internal invariant).
    Internal,
    /// The session's outbound queue overflowed: the client stopped
    /// reading while completions kept arriving, so the server shed it
    /// rather than buffer without bound (pending queries stay
    /// registered — `Resume` recovers them).
    Backpressure,
    /// The request named a resource outside the session's tenant (e.g.
    /// an `AuditQuery` for another tenant's ledger).
    Forbidden,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Quota => 2,
            ErrorCode::Rejected => 3,
            ErrorCode::UnknownQuery => 4,
            ErrorCode::BadSession => 5,
            ErrorCode::Internal => 6,
            ErrorCode::Backpressure => 7,
            ErrorCode::Forbidden => 8,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode, NetError> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Quota,
            3 => ErrorCode::Rejected,
            4 => ErrorCode::UnknownQuery,
            5 => ErrorCode::BadSession,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Backpressure,
            8 => ErrorCode::Forbidden,
            other => return Err(NetError::Frame(format!("unknown error code {other}"))),
        })
    }
}

/// One tenant's counters as carried by [`Response::StatsReply`]
/// (mirrors `youtopia_core::TenantStats`, flattened to wire scalars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantSummary {
    /// Submissions admitted.
    pub submitted: u64,
    /// Admitted queries answered.
    pub answered: u64,
    /// Admitted queries cancelled.
    pub cancelled: u64,
    /// Admitted queries expired.
    pub expired: u64,
    /// Admissions rolled back on log failure.
    pub aborted: u64,
    /// Submissions rejected by quota.
    pub rejected: u64,
    /// Currently pending.
    pub in_flight: u64,
    /// Currently pending without a deadline.
    pub standing: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted; `session` is the token a later `Resume`
    /// must present.
    Welcome {
        /// The session token.
        session: u64,
        /// Pending queries reattached to this session (0 for `Hello`).
        reattached: u32,
    },
    /// The submission registered as pending; a `Done` push follows
    /// when it terminates.
    Accepted {
        /// Correlation id of the `Submit`.
        corr: u64,
        /// The registered query id.
        qid: u64,
    },
    /// A query terminated. `corr` is the originating `Submit`'s id
    /// when the query was answered on arrival, `0` for an asynchronous
    /// push from the event loop.
    Done {
        /// Correlation id, or `0` for a push.
        corr: u64,
        /// The terminated query.
        qid: u64,
        /// How it terminated.
        outcome: Outcome,
    },
    /// `Cancel` succeeded (the `Done` push carries the outcome).
    CancelOk {
        /// Correlation id of the `Cancel`.
        corr: u64,
    },
    /// This session's tenant counters; `found` is false when the
    /// server has no tenant registry entry yet.
    StatsReply {
        /// Correlation id of the `Stats`.
        corr: u64,
        /// Whether the tenant has a ledger entry.
        found: bool,
        /// The counters (zeroed when `found` is false).
        tenant: TenantSummary,
    },
    /// Clean shutdown acknowledgement.
    ByeOk {
        /// Correlation id of the `Bye`.
        corr: u64,
    },
    /// The request failed.
    Error {
        /// Correlation id of the failing request (0 for handshakes).
        corr: u64,
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The tenant's `sys_audit` rows, oldest first (already
    /// tenant-filtered and capped by the server).
    AuditReply {
        /// Correlation id of the `AuditQuery`.
        corr: u64,
        /// The ledger rows.
        rows: Vec<AuditRecord>,
    },
}

// ------------------------------------------------------------------ //
// Encode / decode
// ------------------------------------------------------------------ //

fn get_u8(buf: &mut &[u8]) -> Result<u8, NetError> {
    if buf.remaining() < 1 {
        return Err(NetError::Frame("truncated payload: missing u8".into()));
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, NetError> {
    if buf.remaining() < 2 {
        return Err(NetError::Frame("truncated payload: missing u16".into()));
    }
    Ok(buf.get_u16())
}

fn get_u32_checked(buf: &mut &[u8]) -> Result<u32, NetError> {
    if buf.remaining() < 4 {
        return Err(NetError::Frame("truncated payload: missing u32".into()));
    }
    Ok(buf.get_u32())
}

fn get_u64_checked(buf: &mut &[u8]) -> Result<u64, NetError> {
    get_u64(buf).map_err(|e| NetError::Frame(e.to_string()))
}

fn get_str_checked(buf: &mut &[u8]) -> Result<String, NetError> {
    get_str(buf).map_err(|e| NetError::Frame(e.to_string()))
}

fn finish(buf: &[u8]) -> Result<(), NetError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(NetError::Frame(format!(
            "{} trailing byte(s) after payload",
            buf.len()
        )))
    }
}

fn get_opt_u64_checked(buf: &mut &[u8]) -> Result<Option<u64>, NetError> {
    get_opt_u64(buf).map_err(|e| NetError::Frame(e.to_string()))
}

fn put_audit_row(out: &mut BytesMut, row: &AuditRecord) {
    out.put_u64(row.qid);
    put_str(out, &row.tenant);
    put_str(out, &row.owner);
    put_str(out, &row.kind);
    out.put_u64(row.submitted_at);
    put_opt_u64(out, row.resolved_at);
    put_str(out, &row.outcome);
    put_opt_u64(out, row.latency_micros);
    out.put_u32(row.shard);
}

fn get_audit_row(buf: &mut &[u8]) -> Result<AuditRecord, NetError> {
    Ok(AuditRecord {
        qid: get_u64_checked(buf)?,
        tenant: get_str_checked(buf)?,
        owner: get_str_checked(buf)?,
        kind: get_str_checked(buf)?,
        submitted_at: get_u64_checked(buf)?,
        resolved_at: get_opt_u64_checked(buf)?,
        outcome: get_str_checked(buf)?,
        latency_micros: get_opt_u64_checked(buf)?,
        shard: get_u32_checked(buf)?,
    })
}

impl Request {
    /// Encodes the request payload (tag byte first; frame it with
    /// [`encode_frame`] before writing to a socket).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        match self {
            Request::Hello { version, owner } => {
                out.put_u8(1);
                out.put_u16(*version);
                put_str(&mut out, owner);
            }
            Request::Resume {
                version,
                owner,
                session,
            } => {
                out.put_u8(2);
                out.put_u16(*version);
                put_str(&mut out, owner);
                out.put_u64(*session);
            }
            Request::Submit {
                corr,
                deadline,
                sql,
            } => {
                out.put_u8(3);
                out.put_u64(*corr);
                put_opt_u64(&mut out, *deadline);
                put_str(&mut out, sql);
            }
            Request::Cancel { corr, qid } => {
                out.put_u8(4);
                out.put_u64(*corr);
                out.put_u64(*qid);
            }
            Request::Stats { corr } => {
                out.put_u8(5);
                out.put_u64(*corr);
            }
            Request::Bye { corr } => {
                out.put_u8(6);
                out.put_u64(*corr);
            }
            Request::AuditQuery {
                corr,
                tenant,
                limit,
            } => {
                out.put_u8(7);
                out.put_u64(*corr);
                put_str(&mut out, tenant);
                out.put_u32(*limit);
            }
        }
        out.to_vec()
    }

    /// Decodes a request payload; the whole slice must be consumed.
    pub fn decode(mut buf: &[u8]) -> Result<Request, NetError> {
        let tag = get_u8(&mut buf)?;
        let req = match tag {
            1 => Request::Hello {
                version: get_u16(&mut buf)?,
                owner: get_str_checked(&mut buf)?,
            },
            2 => Request::Resume {
                version: get_u16(&mut buf)?,
                owner: get_str_checked(&mut buf)?,
                session: get_u64_checked(&mut buf)?,
            },
            3 => Request::Submit {
                corr: get_u64_checked(&mut buf)?,
                deadline: get_opt_u64_checked(&mut buf)?,
                sql: get_str_checked(&mut buf)?,
            },
            4 => Request::Cancel {
                corr: get_u64_checked(&mut buf)?,
                qid: get_u64_checked(&mut buf)?,
            },
            5 => Request::Stats {
                corr: get_u64_checked(&mut buf)?,
            },
            6 => Request::Bye {
                corr: get_u64_checked(&mut buf)?,
            },
            7 => Request::AuditQuery {
                corr: get_u64_checked(&mut buf)?,
                tenant: get_str_checked(&mut buf)?,
                limit: get_u32_checked(&mut buf)?,
            },
            other => return Err(NetError::Frame(format!("unknown request tag {other}"))),
        };
        finish(buf)?;
        Ok(req)
    }
}

fn put_outcome(out: &mut BytesMut, outcome: &Outcome) {
    match outcome {
        Outcome::Answered { answers } => {
            out.put_u8(0);
            out.put_u32(answers.len() as u32);
            for (relation, tuple) in answers {
                put_str(out, relation);
                let encoded = tuple.encode();
                out.put_u32(encoded.len() as u32);
                out.extend_from_slice(&encoded);
            }
        }
        Outcome::Cancelled => out.put_u8(1),
        Outcome::Expired => out.put_u8(2),
        Outcome::Superseded => out.put_u8(3),
    }
}

fn get_outcome(buf: &mut &[u8]) -> Result<Outcome, NetError> {
    match get_u8(buf)? {
        0 => {
            let count = get_u32_checked(buf)? as usize;
            // each answer needs ≥ 8 bytes of prefix alone; cap the
            // reserve by what was actually received
            let mut answers = Vec::with_capacity(count.min(buf.remaining() / 8 + 1));
            for _ in 0..count {
                let relation = get_str_checked(buf)?;
                let len = get_u32_checked(buf)? as usize;
                if buf.remaining() < len {
                    return Err(NetError::Frame("truncated answer tuple".into()));
                }
                let tuple = Tuple::decode(&buf[..len])
                    .map_err(|e| NetError::Frame(format!("bad answer tuple: {e}")))?;
                buf.advance(len);
                answers.push((relation, tuple));
            }
            Ok(Outcome::Answered { answers })
        }
        1 => Ok(Outcome::Cancelled),
        2 => Ok(Outcome::Expired),
        3 => Ok(Outcome::Superseded),
        other => Err(NetError::Frame(format!("unknown outcome tag {other}"))),
    }
}

impl TenantSummary {
    fn put(&self, out: &mut BytesMut) {
        for v in [
            self.submitted,
            self.answered,
            self.cancelled,
            self.expired,
            self.aborted,
            self.rejected,
            self.in_flight,
            self.standing,
        ] {
            out.put_u64(v);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<TenantSummary, NetError> {
        Ok(TenantSummary {
            submitted: get_u64_checked(buf)?,
            answered: get_u64_checked(buf)?,
            cancelled: get_u64_checked(buf)?,
            expired: get_u64_checked(buf)?,
            aborted: get_u64_checked(buf)?,
            rejected: get_u64_checked(buf)?,
            in_flight: get_u64_checked(buf)?,
            standing: get_u64_checked(buf)?,
        })
    }
}

impl Response {
    /// Encodes the response payload (tag byte first; frame it with
    /// [`encode_frame`] before writing to a socket).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        match self {
            Response::Welcome {
                session,
                reattached,
            } => {
                out.put_u8(1);
                out.put_u64(*session);
                out.put_u32(*reattached);
            }
            Response::Accepted { corr, qid } => {
                out.put_u8(2);
                out.put_u64(*corr);
                out.put_u64(*qid);
            }
            Response::Done { corr, qid, outcome } => {
                out.put_u8(3);
                out.put_u64(*corr);
                out.put_u64(*qid);
                put_outcome(&mut out, outcome);
            }
            Response::CancelOk { corr } => {
                out.put_u8(4);
                out.put_u64(*corr);
            }
            Response::StatsReply {
                corr,
                found,
                tenant,
            } => {
                out.put_u8(5);
                out.put_u64(*corr);
                out.put_u8(u8::from(*found));
                tenant.put(&mut out);
            }
            Response::ByeOk { corr } => {
                out.put_u8(6);
                out.put_u64(*corr);
            }
            Response::Error {
                corr,
                code,
                message,
            } => {
                out.put_u8(7);
                out.put_u64(*corr);
                out.put_u8(code.to_u8());
                put_str(&mut out, message);
            }
            Response::AuditReply { corr, rows } => {
                out.put_u8(8);
                out.put_u64(*corr);
                out.put_u32(rows.len() as u32);
                for row in rows {
                    put_audit_row(&mut out, row);
                }
            }
        }
        out.to_vec()
    }

    /// Decodes a response payload; the whole slice must be consumed.
    pub fn decode(mut buf: &[u8]) -> Result<Response, NetError> {
        let tag = get_u8(&mut buf)?;
        let resp = match tag {
            1 => Response::Welcome {
                session: get_u64_checked(&mut buf)?,
                reattached: get_u32_checked(&mut buf)?,
            },
            2 => Response::Accepted {
                corr: get_u64_checked(&mut buf)?,
                qid: get_u64_checked(&mut buf)?,
            },
            3 => Response::Done {
                corr: get_u64_checked(&mut buf)?,
                qid: get_u64_checked(&mut buf)?,
                outcome: get_outcome(&mut buf)?,
            },
            4 => Response::CancelOk {
                corr: get_u64_checked(&mut buf)?,
            },
            5 => Response::StatsReply {
                corr: get_u64_checked(&mut buf)?,
                found: match get_u8(&mut buf)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(NetError::Frame(format!("bad found flag {other}")));
                    }
                },
                tenant: TenantSummary::get(&mut buf)?,
            },
            6 => Response::ByeOk {
                corr: get_u64_checked(&mut buf)?,
            },
            7 => Response::Error {
                corr: get_u64_checked(&mut buf)?,
                code: ErrorCode::from_u8(get_u8(&mut buf)?)?,
                message: get_str_checked(&mut buf)?,
            },
            8 => {
                let corr = get_u64_checked(&mut buf)?;
                let count = get_u32_checked(&mut buf)? as usize;
                // each row needs ≥ 30 bytes of fixed fields alone; cap
                // the reserve by what was actually received
                let mut rows = Vec::with_capacity(count.min(buf.remaining() / 30 + 1));
                for _ in 0..count {
                    rows.push(get_audit_row(&mut buf)?);
                }
                Response::AuditReply { corr, rows }
            }
            other => return Err(NetError::Frame(format!("unknown response tag {other}"))),
        };
        finish(buf)?;
        Ok(resp)
    }
}

// ------------------------------------------------------------------ //
// Streaming frame assembly
// ------------------------------------------------------------------ //

/// Push-driven frame accumulator: the readiness-loop counterpart of
/// [`FrameReader`]. The reactor feeds it whatever a nonblocking read
/// returned ([`FrameBuf::push`]) and then drains complete frames
/// ([`FrameBuf::next_frame`]); partial frames persist across readiness
/// events. The buffer only ever grows by bytes actually received, so a
/// hostile length prefix cannot drive an allocation, and the cursor is
/// compacted lazily so a trickle of tiny reads does not shift the
/// whole buffer per byte.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes before `start` belong to already-yielded frames.
    start: usize,
}

impl FrameBuf {
    /// An empty accumulator.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // compact before growing once the dead prefix dominates
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Splits the next complete, checksum-verified frame payload off
    /// the buffered bytes, or `Ok(None)` if none is complete yet.
    /// Errors (oversized prefix, checksum mismatch) are sticky in
    /// practice: the connection is unrecoverable past a framing error.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match split_frame(&self.buf[self.start..])? {
            Some((payload, consumed)) => {
                self.start += consumed;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                Ok(Some(payload))
            }
            None => Ok(None),
        }
    }

    /// Whether any partial frame bytes are buffered (true means EOF
    /// here is a mid-frame truncation, not a clean close).
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }
}

/// What [`FrameReader::read_event`] observed.
#[derive(Debug)]
pub enum ReadEvent {
    /// One complete, checksum-verified frame payload.
    Frame(Vec<u8>),
    /// The read timed out (`WouldBlock`/`TimedOut`) with no complete
    /// frame buffered; buffered partial bytes are kept for next time.
    Timeout,
    /// Clean end of stream at a frame boundary.
    Eof,
}

/// Incremental frame reader over any [`std::io::Read`]: accumulates
/// whatever the transport delivers (partial frames survive read
/// timeouts) and yields complete frames. The buffer only ever grows by
/// bytes actually received, so a hostile length prefix cannot drive an
/// allocation.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: FrameBuf,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a transport.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: FrameBuf::new(),
        }
    }

    /// The underlying transport (e.g. to adjust socket timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads until one complete frame, a timeout, or EOF.
    pub fn read_event(&mut self) -> Result<ReadEvent, NetError> {
        loop {
            if let Some(payload) = self.buf.next_frame()? {
                return Ok(ReadEvent::Frame(payload));
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.has_partial() {
                        Err(NetError::Frame("connection closed mid-frame".into()))
                    } else {
                        Ok(ReadEvent::Eof)
                    };
                }
                Ok(n) => self.buf.push(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadEvent::Timeout);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::Value;

    fn frame_roundtrip(req: &Request) -> Request {
        let framed = encode_frame(&req.encode());
        let (payload, consumed) = split_frame(&framed).unwrap().unwrap();
        assert_eq!(consumed, framed.len());
        Request::decode(&payload).unwrap()
    }

    /// A WAL frame is a protocol frame: the bytes the log appends for
    /// one record split back into that record's payload.
    #[test]
    fn wal_frames_split_as_protocol_frames() {
        use youtopia_storage::{Wal, WalRecord};
        let mut wal = Wal::in_memory();
        wal.append_record(&WalRecord::Coordination(b"register q1".to_vec()))
            .unwrap();
        let logged = wal.raw_bytes().unwrap();
        let (payload, consumed) = split_frame(logged).unwrap().unwrap();
        assert_eq!(consumed, logged.len());
        // coordination tag, then the bytes
        let mut expected = vec![5];
        expected.extend_from_slice(b"register q1");
        assert_eq!(payload, expected);
        assert_eq!(encode_frame(&payload), logged);
    }

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::Hello {
                version: PROTOCOL_VERSION,
                owner: "acme/alice".into(),
            },
            Request::Resume {
                version: PROTOCOL_VERSION,
                owner: "acme/alice".into(),
                session: 42,
            },
            Request::Submit {
                corr: 7,
                deadline: Some(123_456),
                sql: "SELECT 'a', fno INTO ANSWER R ...".into(),
            },
            Request::Submit {
                corr: 8,
                deadline: None,
                sql: String::new(),
            },
            Request::Cancel { corr: 9, qid: 3 },
            Request::Stats { corr: 10 },
            Request::Bye { corr: 11 },
            Request::AuditQuery {
                corr: 12,
                tenant: "acme".into(),
                limit: 100,
            },
        ] {
            assert_eq!(frame_roundtrip(&req), req);
        }
    }

    #[test]
    fn response_roundtrips() {
        let tuple = Tuple::new(vec![Value::from("Kramer"), Value::Int(122)]);
        for resp in [
            Response::Welcome {
                session: 5,
                reattached: 3,
            },
            Response::Accepted { corr: 1, qid: 17 },
            Response::Done {
                corr: 0,
                qid: 17,
                outcome: Outcome::Answered {
                    answers: vec![("Reservation".into(), tuple)],
                },
            },
            Response::Done {
                corr: 2,
                qid: 18,
                outcome: Outcome::Superseded,
            },
            Response::CancelOk { corr: 3 },
            Response::StatsReply {
                corr: 4,
                found: true,
                tenant: TenantSummary {
                    submitted: 10,
                    answered: 6,
                    in_flight: 4,
                    ..TenantSummary::default()
                },
            },
            Response::ByeOk { corr: 5 },
            Response::Error {
                corr: 6,
                code: ErrorCode::Quota,
                message: "tenant 'acme' quota exceeded".into(),
            },
            Response::Error {
                corr: 7,
                code: ErrorCode::Forbidden,
                message: "tenant 'rival' is not this session's tenant".into(),
            },
            Response::AuditReply {
                corr: 8,
                rows: vec![
                    AuditRecord {
                        qid: 1,
                        tenant: "acme".into(),
                        owner: "acme/alice".into(),
                        kind: "submit".into(),
                        submitted_at: 1_000,
                        resolved_at: None,
                        outcome: "pending".into(),
                        latency_micros: None,
                        shard: 2,
                    },
                    AuditRecord {
                        qid: 1,
                        tenant: "acme".into(),
                        owner: "acme/alice".into(),
                        kind: "match".into(),
                        submitted_at: 1_000,
                        resolved_at: Some(1_250),
                        outcome: "answered".into(),
                        latency_micros: Some(250_000),
                        shard: 2,
                    },
                ],
            },
            Response::AuditReply {
                corr: 9,
                rows: Vec::new(),
            },
        ] {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn split_rejects_oversized_and_corrupt() {
        // oversized length prefix: rejected before any allocation
        let mut huge = Vec::new();
        huge.put_u32((MAX_FRAME_BYTES + 1) as u32);
        huge.put_u32(0);
        assert!(split_frame(&huge).is_err());

        // bad checksum
        let mut framed = encode_frame(&Request::Stats { corr: 1 }.encode());
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        assert!(split_frame(&framed).is_err());

        // truncation is "need more", not an error
        let framed = encode_frame(&Request::Stats { corr: 1 }.encode());
        assert!(matches!(split_frame(&framed[..framed.len() - 1]), Ok(None)));
    }

    #[test]
    fn decode_rejects_trailing_and_unknown() {
        let mut bytes = Request::Bye { corr: 1 }.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[42]).is_err());
    }
}
