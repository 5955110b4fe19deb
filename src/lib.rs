//! # Youtopia
//!
//! A from-scratch Rust reproduction of *Coordination through Querying
//! in the Youtopia System* (SIGMOD 2011 demonstration): a relational
//! DBMS whose coordination component jointly answers **entangled
//! queries** — `SELECT` statements with postconditions over a shared
//! answer relation that typically refer to *other* users' queries.
//!
//! This facade crate re-exports the whole stack:
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | [`storage`] | `youtopia-storage` | values, schemas, tables, indexes, transactions, WAL |
//! | [`sql`] | `youtopia-sql` | lexer, parser, AST, printer (entangled dialect) |
//! | [`exec`] | `youtopia-exec` | expression evaluation + SELECT/DML execution |
//! | [`core`] | `youtopia-core` | entangled IR, safety, registry, matcher, coordinator |
//! | [`net`] | `youtopia-net` | the multi-tenant TCP front-end: framed protocol, server, client |
//! | [`travel`] | `youtopia-travel` | the demo travel application, admin console, workloads |
//!
//! See the runnable examples:
//!
//! * `cargo run --example quickstart` — the paper's Jerry & Kramer
//!   walkthrough (Figure 1);
//! * `cargo run --example travel_site` — every §3.1 demo scenario;
//! * `cargo run --example admin_cli` — the §3.2 SQL command line
//!   (scripted session or `--interactive`);
//! * `cargo run --release -p youtopia-bench --bin experiments` — the
//!   paper-reproduction experiments E1–E10, E7 being the §3
//!   scalability demonstration.

pub use youtopia_core as core;
pub use youtopia_exec as exec;
pub use youtopia_net as net;
pub use youtopia_sql as sql;
pub use youtopia_storage as storage;
pub use youtopia_travel as travel;

pub use youtopia_core::{
    compile_sql, latency_histogram, tenant_audit, Ack, AuditConfig, AuditRecord, CheckpointPolicy,
    Clock, CoordEvent, CoordinationFuture, CoordinationOutcome, Coordinator, CoordinatorConfig,
    DeadlineHost, DeadlineSweeper, GroupMatch, LatencyBucket, MatchNotification, MatcherKind,
    MockClock, QueryId, RecoveryReport, RegStamp, SafetyMode, ShardedConfig, ShardedCoordinator,
    Submission, SubmitOptions, SystemClock, TenantQuotas, TenantRegistry, WaiterSet, AUDIT_TABLE,
    LATENCY_TABLE,
};
pub use youtopia_exec::{run_sql, StatementOutcome};
pub use youtopia_net::{NetClient, NetServer, ServerConfig, ServerStats};
pub use youtopia_storage::Database;
pub use youtopia_travel::{AdminConsole, BookingOutcome, FlightPrefs, TravelService, WorkloadGen};
