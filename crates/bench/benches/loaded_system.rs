//! E7 — the loaded-system scalability experiment (paper §3, last
//! paragraph): latency of coordinating one fresh pair while N
//! unmatchable entangled queries are already pending.
//!
//! Series reproduced: indexed incremental matcher vs the naive
//! subset-enumeration baseline. The paper's claim is the *shape*: the
//! system's algorithm stays near-flat under load, the obvious
//! algorithm does not.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use youtopia_bench::{build_sharded_stack, preload_noise, preload_noise_sharded, Stack};
use youtopia_core::{
    Coordinator, CoordinatorConfig, MatcherKind, ShardedConfig, ShardedCoordinator, Submission,
};
use youtopia_travel::WorkloadGen;

/// Builds a coordinator with `noise` standing pending queries and the
/// first half of a probe pair already submitted; returns it with the
/// closing request.
fn loaded_stack(matcher: MatcherKind, noise: usize) -> (Coordinator, youtopia_travel::Request) {
    let mut gen = WorkloadGen::new(7);
    let db = gen.build_database(200, &["Paris", "Rome"]).unwrap();
    // Pairs workload: bound groups at 3 so the naive baseline's subset
    // enumeration terminates (at the default bound of 16 it enumerates
    // ~2^pending subsets per unmatched arrival).
    let coordinator = Coordinator::with_config(
        db,
        CoordinatorConfig {
            matcher,
            match_config: youtopia_core::MatchConfig {
                max_group_size: 3,
                ..youtopia_core::MatchConfig::default()
            },
            ..CoordinatorConfig::default()
        },
    );
    preload_noise(&coordinator, &mut gen, noise, "Paris");
    let first = WorkloadGen::pair_request("probeA", "probeB", "Paris");
    let closing = WorkloadGen::pair_request("probeB", "probeA", "Paris");
    let sub = coordinator.submit_sql(&first.owner, &first.sql).unwrap();
    assert!(matches!(sub, Submission::Pending(_)));
    (coordinator, closing)
}

/// The sharded variant of [`loaded_stack`]: `noise` standing queries
/// spread over four relation families (one per shard), with the probe
/// pair's first half already pending on `Reservation0`.
fn loaded_sharded_stack(noise: usize) -> (ShardedCoordinator, youtopia_travel::Request) {
    let stack = build_sharded_stack(
        7,
        200,
        &["Paris", "Rome"],
        ShardedConfig {
            shards: 4,
            checkpoint: Default::default(),
            base: CoordinatorConfig {
                match_config: youtopia_core::MatchConfig {
                    max_group_size: 3,
                    ..youtopia_core::MatchConfig::default()
                },
                ..CoordinatorConfig::default()
            },
            ..Default::default()
        },
    );
    let mut gen = WorkloadGen::new(7);
    preload_noise_sharded(&stack.coordinator, &mut gen, noise, "Paris", 4);
    let first = WorkloadGen::pair_request_on("Reservation0", "probeA", "probeB", "Paris");
    let closing = WorkloadGen::pair_request_on("Reservation0", "probeB", "probeA", "Paris");
    let sub = stack
        .coordinator
        .submit_sql(&first.owner, &first.sql)
        .unwrap();
    assert!(matches!(sub, Submission::Pending(_)));
    (stack.coordinator, closing)
}

fn bench_loaded_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("loaded_system_pair_latency");
    group.sample_size(10);

    for &noise in &[0usize, 10, 100, 500, 1000] {
        group.bench_with_input(BenchmarkId::new("indexed", noise), &noise, |b, &noise| {
            b.iter_batched(
                || loaded_stack(MatcherKind::Incremental, noise),
                |(coordinator, closing)| {
                    let sub = coordinator
                        .submit_sql(&closing.owner, &closing.sql)
                        .unwrap();
                    assert!(matches!(sub, Submission::Answered(_)));
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    // the sharded coordinator under the same standing load: the closing
    // arrival is matched against its own shard only (~noise/4)
    for &noise in &[0usize, 10, 100, 500, 1000] {
        group.bench_with_input(BenchmarkId::new("sharded4", noise), &noise, |b, &noise| {
            b.iter_batched(
                || loaded_sharded_stack(noise),
                |(coordinator, closing)| {
                    let sub = coordinator
                        .submit_sql(&closing.owner, &closing.sql)
                        .unwrap();
                    assert!(matches!(sub, Submission::Answered(_)));
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    // the naive baseline blows up combinatorially; bound its load so the
    // suite finishes — the asymmetry is the result
    for &noise in &[0usize, 10, 50, 100] {
        group.bench_with_input(BenchmarkId::new("naive", noise), &noise, |b, &noise| {
            b.iter_batched(
                || loaded_stack(MatcherKind::Naive, noise),
                |(coordinator, closing)| {
                    let sub = coordinator
                        .submit_sql(&closing.owner, &closing.sql)
                        .unwrap();
                    assert!(matches!(sub, Submission::Answered(_)));
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();

    // The arrival that matches nobody — the common case on a loaded
    // system and where the naive algorithm exhausts its subset space.
    let mut nomatch = c.benchmark_group("loaded_system_nomatch_arrival");
    nomatch.sample_size(10);
    for &noise in &[10usize, 100, 500] {
        nomatch.bench_with_input(BenchmarkId::new("indexed", noise), &noise, |b, &noise| {
            b.iter_batched(
                || loaded_stack(MatcherKind::Incremental, noise).0,
                |coordinator| {
                    let lonely = WorkloadGen::pair_request("lonely", "nobody", "Paris");
                    let sub = coordinator.submit_sql(&lonely.owner, &lonely.sql).unwrap();
                    assert!(matches!(sub, Submission::Pending(_)));
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    for &noise in &[10usize, 100] {
        nomatch.bench_with_input(BenchmarkId::new("naive", noise), &noise, |b, &noise| {
            b.iter_batched(
                || loaded_stack(MatcherKind::Naive, noise).0,
                |coordinator| {
                    let lonely = WorkloadGen::pair_request("lonely", "nobody", "Paris");
                    let sub = coordinator.submit_sql(&lonely.owner, &lonely.sql).unwrap();
                    assert!(matches!(sub, Submission::Pending(_)));
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    nomatch.finish();

    // Companion series: arrival-driven incremental matching vs a global
    // re-match sweep (`docs/matching.md`, "Sweep pruning").
    let mut sweep = c.benchmark_group("loaded_system_retry_all_sweep");
    sweep.sample_size(10);
    for &noise in &[10usize, 100, 500] {
        sweep.bench_with_input(BenchmarkId::new("retry_all", noise), &noise, |b, &noise| {
            b.iter_batched(
                || {
                    let Stack { coordinator, .. } = youtopia_bench::build_stack(
                        9,
                        200,
                        &["Paris", "Rome"],
                        CoordinatorConfig::default(),
                    );
                    let mut gen = WorkloadGen::new(11);
                    preload_noise(&coordinator, &mut gen, noise, "Paris");
                    coordinator
                },
                |coordinator| {
                    // a full global sweep across all pending queries
                    let answered = coordinator.retry_all().unwrap();
                    assert!(answered.is_empty());
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    sweep.finish();
}

criterion_group!(benches, bench_loaded_system);
criterion_main!(benches);
