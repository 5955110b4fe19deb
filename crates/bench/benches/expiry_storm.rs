//! Expiry storm: the cost of a deadline sweep retiring thousands of
//! due queries out of a larger standing load, and its impact on
//! concurrent submission throughput (the deadline-lifecycle PR's
//! headline experiment).
//!
//! The coordinator absorbs a standing load of `NOISE` never-matching,
//! deadline-less queries plus `STORM` queries whose deadlines are all
//! due. One `expire_due` sweep must then: scan only the deadline index
//! (never the full registry), group-commit the expiry frames per
//! shard, remove the entries, and resolve the waiters. The headline
//! series measures (a) the sweep alone, (b) submission throughput
//! with no sweep running, and (c) submission throughput while the
//! sweep runs on another thread — the ratio of (c) to (b) is the
//! latency impact a front-end sees when a deadline storm hits.
//! Results go to `BENCH_expiry.json` at the repository root.
//!
//! Run with: `cargo bench -p youtopia-bench --bench expiry_storm`
//! (`YOUTOPIA_BENCH_FAST=1` skips the headline series, so CI never
//! rewrites the committed artifact with foreign-hardware numbers.)

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use youtopia_core::{CoordinatorConfig, ShardedConfig, ShardedCoordinator};
use youtopia_storage::{Database, Wal};
use youtopia_travel::{drive_batched, WorkloadGen};

const RELATIONS: usize = 8;
const FLIGHTS: usize = 100;
const NOISE: usize = 8_000;
const STORM: usize = 4_000;
const PAIRS: usize = 400;
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

/// A WAL-backed coordinator carrying `noise` standing deadline-less
/// queries and `storm` queries whose deadlines are all `<= storm_t`.
fn loaded_coordinator(noise: usize, storm: usize) -> (ShardedCoordinator, WorkloadGen, Database) {
    let mut generator = WorkloadGen::new(23);
    let db = generator
        .build_database_with_wal(FLIGHTS, &["Paris", "Rome"], Wal::in_memory())
        .expect("database builds");
    let co = ShardedCoordinator::with_config(db.clone(), config());
    let standing = generator.noise_multi(noise, "Paris", RELATIONS);
    let report = drive_batched(&co, &standing, BATCH);
    assert_eq!(report.pending, noise, "standing load pends");
    let due = generator.deadline_storm(storm, "Paris", RELATIONS, 1..1_000);
    let report = drive_batched(&co, &due, BATCH);
    assert_eq!(report.pending, storm, "storm load pends");
    (co, generator, db)
}

struct Sample {
    phase: &'static str,
    sweep_seconds: f64,
    expired: usize,
    submissions: usize,
    submit_seconds: f64,
}

/// Phase (a): the sweep alone. Every storm deadline is due at
/// t=1000; the standing load must survive untouched.
fn run_sweep_only(noise: usize, storm: usize) -> Sample {
    let (co, _, _) = loaded_coordinator(noise, storm);
    let started = Instant::now();
    let expired = co.expire_due(1_000);
    let sweep_seconds = started.elapsed().as_secs_f64();
    assert_eq!(expired.len(), storm);
    assert_eq!(co.pending_count(), noise);
    Sample {
        phase: "sweep_only",
        sweep_seconds,
        expired: expired.len(),
        submissions: 0,
        submit_seconds: 0.0,
    }
}

/// Phase (b)/(c): `PAIRS` coordinating pairs driven through the loaded
/// coordinator, with (`concurrent_sweep`) or without a sweep racing on
/// a second thread.
fn run_submissions(noise: usize, storm: usize, concurrent_sweep: bool) -> Sample {
    let (co, mut generator, _) = loaded_coordinator(noise, storm);
    let requests = generator.pair_storm_multi(PAIRS, "Paris", RELATIONS);
    let (sweep_seconds, expired, submit_seconds) = std::thread::scope(|scope| {
        let sweeper = concurrent_sweep.then(|| {
            scope.spawn(|| {
                let started = Instant::now();
                let expired = co.expire_due(1_000);
                (started.elapsed().as_secs_f64(), expired.len())
            })
        });
        let started = Instant::now();
        let report = drive_batched(&co, &requests, BATCH);
        let submit_seconds = started.elapsed().as_secs_f64();
        assert_eq!(report.answered + report.pending, 2 * PAIRS);
        match sweeper {
            Some(handle) => {
                let (sweep_seconds, expired) = handle.join().expect("sweeper thread");
                (sweep_seconds, expired, submit_seconds)
            }
            None => (0.0, 0, submit_seconds),
        }
    });
    if concurrent_sweep {
        assert_eq!(expired, storm);
    }
    Sample {
        phase: if concurrent_sweep {
            "submissions_during_storm"
        } else {
            "submissions_baseline"
        },
        sweep_seconds,
        expired,
        submissions: 2 * PAIRS,
        submit_seconds,
    }
}

/// The headline series, written to `BENCH_expiry.json`.
fn headline_series() {
    let samples = vec![
        run_sweep_only(NOISE, STORM),
        run_submissions(NOISE, STORM, false),
        run_submissions(NOISE, STORM, true),
    ];
    let mut rows = Vec::new();
    for s in &samples {
        let sweep_rate = if s.sweep_seconds > 0.0 {
            s.expired as f64 / s.sweep_seconds
        } else {
            0.0
        };
        let submit_rate = if s.submit_seconds > 0.0 {
            s.submissions as f64 / s.submit_seconds
        } else {
            0.0
        };
        println!(
            "expiry_storm: {:26} sweep {:7} in {:.4}s ({:9.0}/s), \
             {:4} submissions in {:.4}s ({:8.0}/s)",
            s.phase,
            s.expired,
            s.sweep_seconds,
            sweep_rate,
            s.submissions,
            s.submit_seconds,
            submit_rate,
        );
        rows.push(format!(
            "    {{\n      \"phase\": \"{}\",\n      \"expired\": {},\n      \
             \"sweep_seconds\": {:.6},\n      \"expirations_per_second\": {:.0},\n      \
             \"submissions\": {},\n      \"submit_seconds\": {:.6},\n      \
             \"submissions_per_second\": {:.0}\n    }}",
            s.phase,
            s.expired,
            s.sweep_seconds,
            sweep_rate,
            s.submissions,
            s.submit_seconds,
            submit_rate,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"expiry_storm\",\n  \"workload\": {{\n    \
         \"standing_noise\": {NOISE},\n    \"due_deadlines\": {STORM},\n    \
         \"relations\": {RELATIONS},\n    \"flights\": {FLIGHTS},\n    \
         \"concurrent_pairs\": {PAIRS},\n    \
         \"wal\": \"in-memory, log-before-ack expiry frames group-committed per shard\"\n  }},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_expiry.json");
    std::fs::write(path, json).expect("write BENCH_expiry.json");
    println!("wrote {path}");
}

fn bench_expiry_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("expiry_storm");
    group.sample_size(10);

    for &(noise, storm) in &[(1_000usize, 512usize), (2_000, 1_024)] {
        group.throughput(Throughput::Elements(storm as u64));
        group.bench_with_input(
            BenchmarkId::new("sweep_due", format!("{storm}due_{noise}standing")),
            &(noise, storm),
            |b, &(noise, storm)| {
                b.iter(|| run_sweep_only(noise, storm));
            },
        );
    }
    group.finish();

    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_none() {
        headline_series();
    }
}

criterion_group!(benches, bench_expiry_storm);
criterion_main!(benches);
