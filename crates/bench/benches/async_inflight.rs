//! Async in-flight scaling: how many coordinations a front-end can
//! hold open at once, and what each one costs — futures on one
//! `WaiterSet` thread versus the thread-per-waiter sync baseline (the
//! tentpole experiment of the async-submission PR).
//!
//! For each in-flight count `N`, a sharded coordinator absorbs `N`
//! standing never-matching queries. In **async** mode every pending
//! query is a `CoordinationFuture` held by a single `WaiterSet`; in
//! **threads** mode every pending query parks one OS thread blocking
//! in `wait_timeout` on its future (the thread-per-waiter serving
//! model, capped — the cap *is* the finding). Both modes then close 200 coordinating pairs
//! through the standing load and time how long the completion fan-out
//! takes to reach every waiter. Resident-set deltas are read from
//! `/proc/self/status`, so the headline series (in-flight count vs
//! RSS bytes per waiter vs fan-out latency) is written to
//! `BENCH_async.json` at the repository root.
//!
//! Run with: `cargo bench -p youtopia-bench --bench async_inflight`
//! (`YOUTOPIA_BENCH_FAST=1` skips the headline series, so CI never
//! rewrites the committed artifact with foreign-hardware numbers.)

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use youtopia_core::{
    CoordinationOutcome, CoordinatorConfig, ShardedConfig, ShardedCoordinator, Submission,
    WaiterSet,
};
use youtopia_travel::WorkloadGen;

const RELATIONS: usize = 8;
const FLIGHTS: usize = 100;
const PAIRS: usize = 200;
const BATCH: usize = 256;

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

fn build_coordinator() -> (ShardedCoordinator, WorkloadGen) {
    let mut generator = WorkloadGen::new(17);
    let db = generator
        .build_database(FLIGHTS, &["Paris", "Rome"])
        .expect("database builds");
    (ShardedCoordinator::with_config(db, config()), generator)
}

struct Sample {
    mode: &'static str,
    in_flight: usize,
    hold_seconds: f64,
    rss_delta_bytes: i64,
    bytes_per_waiter: i64,
    fanout_seconds: f64,
}

/// Async mode: `noise` futures held by one `WaiterSet`, then 200 pairs
/// close through the standing load; fan-out latency is submit-partners
/// → every pair future harvested.
fn run_async(noise: usize) -> Sample {
    let (co, mut generator) = build_coordinator();
    let rss_before = rss_bytes();
    let started = Instant::now();
    let mut set = WaiterSet::new();
    let requests = generator.noise_multi(noise, "Paris", RELATIONS);
    for chunk in requests.chunks(BATCH) {
        let batch: Vec<(String, String)> = chunk
            .iter()
            .map(|r| (r.owner.clone(), r.sql.clone()))
            .collect();
        for outcome in co.submit_batch_sql_async(&batch) {
            set.insert(outcome.expect("noise is safe"));
        }
    }
    set.poll_ready();
    let hold_seconds = started.elapsed().as_secs_f64();
    let rss_delta = rss_bytes() as i64 - rss_before as i64;
    assert_eq!(set.len(), noise, "noise never matches");

    // close PAIRS pairs through the standing load
    let storm = generator.pair_storm_multi(PAIRS, "Paris", RELATIONS);
    let (first, second) = storm.split_at(PAIRS);
    for chunk in first.chunks(BATCH) {
        let batch: Vec<(String, String)> = chunk
            .iter()
            .map(|r| (r.owner.clone(), r.sql.clone()))
            .collect();
        for outcome in co.submit_batch_sql_async(&batch) {
            set.insert(outcome.expect("pairs are safe"));
        }
    }
    set.poll_ready();
    let fanout_started = Instant::now();
    for chunk in second.chunks(BATCH) {
        let batch: Vec<(String, String)> = chunk
            .iter()
            .map(|r| (r.owner.clone(), r.sql.clone()))
            .collect();
        for outcome in co.submit_batch_sql_async(&batch) {
            set.insert(outcome.expect("pairs are safe"));
        }
    }
    let mut answered = 0usize;
    while answered < 2 * PAIRS {
        let harvested = set.wait_timeout(Duration::from_secs(10));
        assert!(!harvested.is_empty(), "pair completions must arrive");
        answered += harvested
            .iter()
            .filter(|(_, o)| matches!(o, CoordinationOutcome::Answered(_)))
            .count();
    }
    let fanout_seconds = fanout_started.elapsed().as_secs_f64();
    Sample {
        mode: "async",
        in_flight: noise,
        hold_seconds,
        rss_delta_bytes: rss_delta,
        bytes_per_waiter: rss_delta / noise.max(1) as i64,
        fanout_seconds,
    }
}

/// Thread-per-waiter baseline: `noise` futures, each parked on by a
/// dedicated blocking thread. The pair
/// fan-out is measured the same way: partners submitted, then every
/// pair waiter thread joined.
fn run_threads(noise: usize) -> Sample {
    let (co, mut generator) = build_coordinator();
    let rss_before = rss_bytes();
    let started = Instant::now();
    let requests = generator.noise_multi(noise, "Paris", RELATIONS);
    let mut noise_threads = Vec::with_capacity(noise);
    for chunk in requests.chunks(BATCH) {
        let batch: Vec<(String, String)> = chunk
            .iter()
            .map(|r| (r.owner.clone(), r.sql.clone()))
            .collect();
        for outcome in co.submit_batch_sql(&batch) {
            let Ok(Submission::Pending(mut future)) = outcome else {
                panic!("noise pends");
            };
            noise_threads.push(std::thread::spawn(move || {
                // parked until the final expiry sweep resolves it
                let _ = future.wait_timeout(Duration::from_secs(120));
            }));
        }
    }
    let hold_seconds = started.elapsed().as_secs_f64();
    let rss_delta = rss_bytes() as i64 - rss_before as i64;

    let storm = generator.pair_storm_multi(PAIRS, "Paris", RELATIONS);
    let (first, second) = storm.split_at(PAIRS);
    let mut pair_threads = Vec::with_capacity(PAIRS);
    for request in first {
        match co
            .submit_sql(&request.owner, &request.sql)
            .expect("pairs are safe")
        {
            Submission::Pending(mut future) => pair_threads.push(std::thread::spawn(move || {
                future
                    .wait_timeout(Duration::from_secs(120))
                    .and_then(CoordinationOutcome::answered)
                    .expect("pair completes")
            })),
            Submission::Answered(_) => panic!("first halves pend"),
        }
    }
    let fanout_started = Instant::now();
    for chunk in second.chunks(BATCH) {
        let batch: Vec<(String, String)> = chunk
            .iter()
            .map(|r| (r.owner.clone(), r.sql.clone()))
            .collect();
        for outcome in co.submit_batch_sql(&batch) {
            outcome.expect("pairs are safe");
        }
    }
    for handle in pair_threads {
        handle.join().expect("pair waiter thread panicked");
    }
    let fanout_seconds = fanout_started.elapsed().as_secs_f64();

    // release the parked noise threads
    co.expire_before(u64::MAX);
    for handle in noise_threads {
        handle.join().expect("noise waiter thread panicked");
    }
    Sample {
        mode: "threads",
        in_flight: noise,
        hold_seconds,
        rss_delta_bytes: rss_delta,
        bytes_per_waiter: rss_delta / noise.max(1) as i64,
        fanout_seconds,
    }
}

/// The headline series, written to `BENCH_async.json`.
fn headline_series() {
    let mut rows = Vec::new();
    // async scales past any sane thread count; the baseline is capped
    // at 2048 parked threads (8 MiB default stacks: 8k threads would
    // reserve 64 GiB of address space and minutes of spawn time)
    let runs: Vec<Sample> = [1000usize, 4000, 8000]
        .iter()
        .map(|&n| run_async(n))
        .chain([512usize, 2048].iter().map(|&n| run_threads(n)))
        .collect();
    for s in runs {
        println!(
            "async_inflight: {:7} mode {:6} in flight in {:.3}s, {:8} bytes/waiter, \
             pair fan-out {:.4}s",
            s.mode, s.in_flight, s.hold_seconds, s.bytes_per_waiter, s.fanout_seconds
        );
        rows.push(format!(
            "    {{\n      \"mode\": \"{}\",\n      \"in_flight\": {},\n      \
             \"hold_seconds\": {:.6},\n      \"rss_delta_bytes\": {},\n      \
             \"bytes_per_waiter\": {},\n      \"pair_fanout_seconds\": {:.6}\n    }}",
            s.mode,
            s.in_flight,
            s.hold_seconds,
            s.rss_delta_bytes,
            s.bytes_per_waiter,
            s.fanout_seconds
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"async_inflight\",\n  \"workload\": {{\n    \
         \"relations\": {RELATIONS},\n    \"flights\": {FLIGHTS},\n    \
         \"closing_pairs\": {PAIRS},\n    \
         \"threads_mode_cap\": \"2048 parked threads (8 MiB default stacks)\"\n  }},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_async.json");
    std::fs::write(path, json).expect("write BENCH_async.json");
    println!("wrote {path}");
}

fn bench_async_inflight(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_inflight");
    group.sample_size(10);

    for &noise in &[256usize, 1024] {
        group.throughput(Throughput::Elements(noise as u64));
        group.bench_with_input(
            BenchmarkId::new("hold_and_close", noise),
            &noise,
            |b, &noise| {
                b.iter(|| run_async(noise));
            },
        );
    }
    group.finish();

    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_none() {
        headline_series();
    }
}

criterion_group!(benches, bench_async_inflight);
criterion_main!(benches);
