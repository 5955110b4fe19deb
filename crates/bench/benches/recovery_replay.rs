//! Recovery replay: log size vs. rebuild time for the crash-recoverable
//! coordinator (the tentpole experiment of the durable-coordination PR).
//!
//! A WAL-backed sharded coordinator absorbs a workload of `N` standing
//! registrations plus `N/4` matched pairs, the process is "killed"
//! (only the WAL bytes survive), and `ShardedCoordinator::recover`
//! rebuilds it — storage replay, survivor folding, SQL re-compilation,
//! router rebuild, and the re-match sweep, all timed together. The
//! headline series (log bytes, events, rebuild seconds, registrations
//! recovered per second) is written to `BENCH_recovery.json` at the
//! repository root.
//!
//! Run with: `cargo bench -p youtopia-bench --bench recovery_replay`
//! (`YOUTOPIA_BENCH_FAST=1` skips the headline series, so CI never
//! rewrites the committed artifact with foreign-hardware numbers.)

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use youtopia_core::{CoordinatorConfig, ShardedConfig, ShardedCoordinator};
use youtopia_storage::Wal;
use youtopia_travel::{drive_batched, WorkloadGen};

const RELATIONS: usize = 8;
const FLIGHTS: usize = 100;
const SHARDS: usize = 4;

fn config() -> ShardedConfig {
    let mut base = CoordinatorConfig::default();
    base.match_config.randomize = false;
    ShardedConfig {
        shards: SHARDS,
        workers: 0,
        fair_drain: false,
        checkpoint: Default::default(),
        base,
    }
}

/// Builds a killed coordinator's WAL: `noise` standing registrations
/// plus `noise / 4` matched pairs, all logged. Returns the salvaged
/// bytes and the number of coordination events they hold.
fn build_log(noise: usize) -> (Vec<u8>, usize) {
    let mut generator = WorkloadGen::new(11);
    let db = generator
        .build_database_with_wal(FLIGHTS, &["Paris", "Rome"], Wal::in_memory())
        .expect("database builds");
    let co = ShardedCoordinator::with_config(db.clone(), config());
    let mut requests = generator.noise_multi(noise, "Paris", RELATIONS);
    requests.extend(generator.pair_storm_multi(noise / 4, "Paris", RELATIONS));
    let events = requests.len();
    drive_batched(&co, &requests, 128);
    let bytes = db.wal_bytes().expect("WAL-backed database");
    (bytes, events)
}

/// One timed recovery; returns (seconds, restored pending count).
fn run_recovery(bytes: Vec<u8>) -> (f64, usize) {
    let started = Instant::now();
    let (co, report) =
        ShardedCoordinator::recover(Wal::from_bytes(bytes), config()).expect("recovery succeeds");
    let elapsed = started.elapsed().as_secs_f64();
    co.check_routing_invariants()
        .expect("routing invariants hold after recovery");
    (elapsed, report.restored_pending)
}

/// The headline series, written to `BENCH_recovery.json`.
fn headline_series() {
    let mut rows = Vec::new();
    for &noise in &[1000usize, 4000, 8000] {
        let (bytes, events) = build_log(noise);
        let log_bytes = bytes.len();
        // median of three timed recoveries of the same log
        let mut runs = [
            run_recovery(bytes.clone()),
            run_recovery(bytes.clone()),
            run_recovery(bytes),
        ];
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (seconds, restored) = runs[1];
        let per_sec = restored as f64 / seconds;
        println!(
            "recovery_replay: {restored:6} pending from {log_bytes:9} log bytes \
             in {seconds:.4}s ({per_sec:.0} registrations/s)"
        );
        rows.push(format!(
            "    {{\n      \"standing_noise\": {noise},\n      \"events\": {events},\n      \
             \"log_bytes\": {log_bytes},\n      \"restored_pending\": {restored},\n      \
             \"rebuild_seconds\": {seconds:.6},\n      \
             \"registrations_per_sec\": {per_sec:.1}\n    }}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"recovery_replay\",\n  \"workload\": {{\n    \
         \"relations\": {RELATIONS},\n    \"flights\": {FLIGHTS},\n    \
         \"shards\": {SHARDS},\n    \"matched_pairs\": \"noise / 4\"\n  }},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(path, json).expect("write BENCH_recovery.json");
    println!("wrote {path}");
}

fn bench_recovery_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_replay");
    group.sample_size(10);

    for &noise in &[500usize, 2000] {
        let (bytes, _) = build_log(noise);
        group.throughput(Throughput::Elements(noise as u64));
        group.bench_with_input(BenchmarkId::new("recover", noise), &bytes, |b, bytes| {
            b.iter_batched(|| bytes.clone(), run_recovery, BatchSize::PerIteration);
        });
    }
    group.finish();

    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_none() {
        headline_series();
    }
}

criterion_group!(benches, bench_recovery_replay);
criterion_main!(benches);
