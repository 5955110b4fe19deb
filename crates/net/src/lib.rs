//! # youtopia-net
//!
//! The multi-tenant TCP front-end: remote clients speak a framed,
//! checksummed binary protocol to a [`NetServer`] that drives the
//! async coordinator API. The paper's users "pose entangled queries"
//! against a shared system; this crate is the network boundary that
//! makes the coordinator an actual server rather than a library.
//!
//! Three layers:
//!
//! * [`protocol`] — the wire format: length-prefixed frames whose
//!   checksum discipline mirrors the WAL's (`len | fnv1a | payload`),
//!   carrying versioned [`Request`]/[`Response`] enums. Decoding never
//!   allocates from attacker-controlled lengths.
//! * [`server`] — the [`NetServer`]: a **single reactor thread** owns
//!   the listener, every (nonblocking) connection, and the one
//!   [`youtopia_core::WaiterSet`] driving every in-flight session's
//!   futures, sleeping in `epoll_wait` between readiness events
//!   (see `docs/networking.md` for the loop anatomy). Responses flow
//!   through bounded per-connection outbound queues — a peer that
//!   stops reading is shed with [`ErrorCode::Backpressure`] instead of
//!   stalling anyone else. Owners are tenants: submissions pass the
//!   [`youtopia_core::TenantRegistry`] quota gate, and a reconnecting
//!   client presents its session token to reattach (superseding the
//!   stranded session's handles).
//! * [`client`] — [`NetClient`], the blocking driver used by the
//!   tests, benches, and the traffic generators in `youtopia-travel`.
//!
//! ## Session lifecycle
//!
//! ```text
//! Hello{owner} ──► Welcome{session}                (fresh session)
//! Submit{sql}  ──► Accepted{qid} ... Done{qid}     (async completion)
//!              └─► Done{qid}                       (answered on arrival)
//!              └─► Error{Quota}                    (tenant over quota)
//! <disconnect>      pending queries stay registered
//! Resume{owner, session} ──► Welcome{reattached:n} (futures re-armed;
//!                                                   old handles resolve
//!                                                   Superseded)
//! ```
//!
//! A session that disconnects and never resumes is reaped by the
//! deadline sweeper: every submission carries a deadline (explicit or
//! the server's connection-timeout default), so stranded queries
//! expire rather than leak. See `docs/networking.md` for the full
//! protocol and tenant-isolation story.

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub(crate) mod poller;
pub mod protocol;
pub mod server;

pub use client::{NetClient, SubmitOutcome};
pub use error::{NetError, NetResult};
pub use poller::raise_nofile_limit;
pub use protocol::{
    encode_frame, frame_checksum, split_frame, write_frame, ErrorCode, FrameBuf, FrameReader,
    Outcome, ReadEvent, Request, Response, TenantSummary, MAX_AUDIT_REPLY_ROWS, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{NetServer, ServerConfig, ServerStats};
