//! # youtopia-core
//!
//! The coordination component of the Youtopia reproduction — the
//! primary contribution of *Coordination through Querying in the
//! Youtopia System* (SIGMOD 2011 demonstration).
//!
//! Entangled queries "can only be answered in conjunction with other
//! entangled queries posed by other users"; the system "evaluates sets
//! of such queries jointly in order to ensure coordinated answers".
//! This crate provides exactly that machinery:
//!
//! * [`mod@compile`] — lowers parsed entangled SQL into the IR ([`ir`]);
//! * [`safety`] — the range-restriction analysis that keeps matching
//!   tractable (after the companion technical paper);
//! * [`registry`] — the pending-query store, indexed both ways: heads
//!   by constant position (which heads could satisfy a constraint) and
//!   constraints by first constant (which pending queries a committed
//!   tuple could satisfy);
//! * [`matcher`] — the incremental group-matching algorithm plus the
//!   exhaustive baseline, sharing a CSP-style grounding phase;
//! * [`shard`] — the coordinator: submit / wait / notify / atomic
//!   application of matches to the database, partitioned into shards
//!   by answer relation; [`coordinator`] holds its vocabulary and
//!   [`Coordinator`], the one-shard (serial) spelling;
//! * [`future`] — the one waiter mechanism: every pending query's
//!   handle is a [`CoordinationFuture`].
//!
//! ## The paper's walkthrough, end to end
//!
//! ```
//! use youtopia_storage::Database;
//! use youtopia_exec::run_sql;
//! use youtopia_core::{Coordinator, Submission};
//!
//! let db = Database::new();
//! run_sql(&db, "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)").unwrap();
//! run_sql(&db, "INSERT INTO Flights VALUES (122,'Paris'), (123,'Paris'), \
//!               (134,'Paris'), (136,'Rome')").unwrap();
//!
//! let co = Coordinator::new(db);
//! // Kramer's query waits: nobody satisfies its postcondition yet.
//! let kramer = co.submit_sql("kramer",
//!     "SELECT 'Kramer', fno INTO ANSWER Reservation \
//!      WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
//!      AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1").unwrap();
//! let Submission::Pending(mut kramer) = kramer else { panic!() };
//!
//! // Jerry's symmetric query arrives: both are answered jointly.
//! let jerry = co.submit_sql("jerry",
//!     "SELECT 'Jerry', fno INTO ANSWER Reservation \
//!      WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
//!      AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1").unwrap();
//! let jerry = jerry.answered().expect("group completed");
//! let kramer = kramer.try_take().and_then(|o| o.answered()).expect("kramer notified");
//!
//! // Same (nondeterministically chosen) Paris flight for both.
//! assert_eq!(jerry.answers[0].1.values()[1], kramer.answers[0].1.values()[1]);
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod compile;
pub mod coordinator;
pub mod engine;
pub mod error;
pub mod future;
pub mod ir;
pub mod lifecycle;
pub mod matcher;
pub mod registry;
pub mod safety;
pub mod shard;
pub mod tenant;
pub mod unify;

pub use audit::{
    latency_bucket, latency_histogram, tenant_audit, AuditConfig, AuditRecord, LatencyBucket,
    AUDIT_TABLE, LATENCY_TABLE,
};
pub use compile::{compile, compile_sql};
pub use coordinator::{
    Coordinator, CoordinatorConfig, MatchEdge, MatchGraph, MatchNotification, MatcherKind,
    PendingInfo, RecoveryReport, Submission, SystemStats,
};
pub use engine::{Ack, CoordEvent, RegStamp};
pub use error::{CoreError, CoreResult};
pub use future::{CoordinationFuture, CoordinationOutcome, WaiterSet};
pub use ir::{AnswerConstraint, Atom, EntangledQuery, Filter, Membership, QueryId, Term, Var};
pub use lifecycle::{
    Clock, DeadlineHost, DeadlineSweeper, MockClock, SubmitOptions, SweepSignal, SystemClock,
};
pub use matcher::{GroupMatch, MatchConfig, MatchStats};
pub use registry::{CandidateScan, HeadRef, Pending, Registry};
pub use safety::{check_safety, is_self_contained, SafetyMode};
pub use shard::{CheckpointPolicy, ShardedConfig, ShardedCoordinator, SharedApplyHook};
pub use tenant::{tenant_of, TenantOutcome, TenantQuotas, TenantRegistry, TenantStats};
pub use unify::Subst;
