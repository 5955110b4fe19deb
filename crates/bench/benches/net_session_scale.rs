//! Network session scaling: how fast the TCP front-end can establish
//! live sessions, and what each concurrently open session costs (the
//! tentpole experiment of the multi-tenant front-end PR).
//!
//! For each session count `K`, a real `NetServer` (sharded coordinator
//! and tenant registry behind it) accepts `K` TCP connections from a
//! pool of client threads; every session completes the `Hello`
//! handshake and submits one standing never-matching query, so at the
//! measurement point the server holds `K` live sessions whose futures
//! are all driven by the single reactor thread's epoll loop. The
//! headline series (sessions, setup seconds, sessions/s, RSS bytes per
//! open session), now up to 8192 concurrent sessions, is written to
//! `BENCH_net.json` at the repository root;
//! resident-set deltas are read from `/proc/self/status` and cover
//! both ends of every connection (client and server share the
//! process).
//!
//! Run with: `cargo bench -p youtopia-bench --bench net_session_scale`
//! (`YOUTOPIA_BENCH_FAST=1` skips the headline series, so CI never
//! rewrites the committed artifact with foreign-hardware numbers.)

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use youtopia_core::{
    Clock, CoordinatorConfig, ShardedConfig, ShardedCoordinator, SystemClock, TenantQuotas,
    TenantRegistry,
};
use youtopia_net::{raise_nofile_limit, NetClient, NetServer, ServerConfig, SubmitOutcome};
use youtopia_travel::WorkloadGen;

const RELATIONS: usize = 8;
const FLIGHTS: usize = 100;
const WORKERS: usize = 16;

fn config() -> ShardedConfig {
    let mut base = CoordinatorConfig::default();
    base.match_config.randomize = false;
    ShardedConfig {
        shards: 4,
        workers: 0,
        fair_drain: false,
        checkpoint: Default::default(),
        base,
    }
}

/// Current resident set size in bytes (0 when /proc is unavailable).
fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

struct Sample {
    sessions: usize,
    setup_seconds: f64,
    sessions_per_sec: f64,
    rss_delta_bytes: i64,
    bytes_per_session: i64,
}

/// Opens `count` live sessions (connect + `Hello` + one standing
/// submission each) against a fresh server, measures the ramp, then
/// tears everything down.
fn run_sessions(count: usize) -> Sample {
    let mut generator = WorkloadGen::new(23);
    let db = generator
        .build_database(FLIGHTS, &["Paris", "Rome"])
        .expect("database builds");
    let co = Arc::new(ShardedCoordinator::with_config(db, config()));
    let tenants = TenantRegistry::new(TenantQuotas::default());
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let mut server =
        NetServer::spawn(co, tenants, ServerConfig::default(), clock).expect("server binds");
    let addr = server.local_addr();

    let rss_before = rss_bytes();
    let started = Instant::now();
    let clients: Vec<NetClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut clients = Vec::new();
                    let mut s = w;
                    while s < count {
                        let owner = format!("bench{w}/s{s}");
                        let mut client = NetClient::connect(addr).expect("connect");
                        client.hello(&owner).expect("hello");
                        let sql = WorkloadGen::pair_request_on(
                            &format!("Reservation{}", s % RELATIONS),
                            &owner,
                            &format!("ghost{s}"),
                            "Paris",
                        )
                        .sql;
                        match client.submit(&sql, None).expect("submit") {
                            SubmitOutcome::Pending(_) => {}
                            SubmitOutcome::Done(qid, o) => panic!("q{qid} resolved early: {o:?}"),
                        }
                        clients.push(client);
                        s += WORKERS;
                    }
                    clients
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session worker"))
            .collect()
    });
    let setup_seconds = started.elapsed().as_secs_f64();
    let rss_delta = rss_bytes() as i64 - rss_before as i64;
    assert_eq!(clients.len(), count, "every session established");

    drop(clients);
    server.shutdown();
    Sample {
        sessions: count,
        setup_seconds,
        sessions_per_sec: count as f64 / setup_seconds,
        rss_delta_bytes: rss_delta,
        bytes_per_session: rss_delta / count.max(1) as i64,
    }
}

/// The headline series, written to `BENCH_net.json`.
fn headline_series() {
    let mut rows = Vec::new();
    for &count in &[256usize, 1024, 2048, 4096, 8192] {
        let s = run_sessions(count);
        println!(
            "net_session_scale: {:5} sessions in {:.3}s ({:7.0} sessions/s, {:8} bytes/session)",
            s.sessions, s.setup_seconds, s.sessions_per_sec, s.bytes_per_session
        );
        rows.push(format!(
            "    {{\n      \"sessions\": {},\n      \"setup_seconds\": {:.6},\n      \
             \"sessions_per_sec\": {:.1},\n      \"rss_delta_bytes\": {},\n      \
             \"bytes_per_session\": {}\n    }}",
            s.sessions, s.setup_seconds, s.sessions_per_sec, s.rss_delta_bytes, s.bytes_per_session
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"net_session_scale\",\n  \"workload\": {{\n    \
         \"relations\": {RELATIONS},\n    \"flights\": {FLIGHTS},\n    \
         \"client_workers\": {WORKERS},\n    \
         \"per_session\": \"TCP connect + Hello + 1 standing submission\"\n  }},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, json).expect("write BENCH_net.json");
    println!("wrote {path}");
}

fn bench_net_session_scale(c: &mut Criterion) {
    // both ends of every connection live in this process: the 8192-
    // session headline point alone needs ~16k fds
    raise_nofile_limit(20_000).expect("raise fd limit");
    let mut group = c.benchmark_group("net_session_scale");
    group.sample_size(10);

    for &count in &[64usize, 256] {
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(BenchmarkId::new("sessions", count), &count, |b, &count| {
            b.iter(|| run_sessions(count));
        });
    }
    group.finish();

    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_none() {
        headline_series();
    }
}

criterion_group!(benches, bench_net_session_scale);
criterion_main!(benches);
