//! Audit overhead: what the coordination audit subsystem costs on the
//! match-throughput hot path (acceptance criterion of the
//! observability PR: ≤ 5% regression with auditing enabled).
//!
//! The workload is a batched pair storm: a sharded coordinator
//! pre-loaded with `standing` never-matching registrations absorbs a
//! storm of matched pairs, run twice per load: once with
//! the audit sink disabled (the default) and once enabled. With
//! auditing on, every submission inserts a `sys_audit` row inside its
//! registration transaction and every match/cancel/expire resolves it
//! plus bumps a `sys_tenant_latency` bucket inside the match
//! transaction, so the delta between the two runs is exactly the
//! ledger's hot-path cost. The headline series (arrivals per second
//! off/on and the overhead percentage) is written to
//! `BENCH_audit.json` at the repository root.
//!
//! Run with: `cargo bench -p youtopia-bench --bench audit_overhead`
//! (`YOUTOPIA_BENCH_FAST=1` skips the headline series, so CI never
//! rewrites the committed artifact with foreign-hardware numbers.)

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use youtopia_bench::provenance_json;
use youtopia_core::{
    AuditConfig, CoordinatorConfig, ShardedConfig, ShardedCoordinator, AUDIT_TABLE,
};
use youtopia_travel::{drive_batched, WorkloadGen};

const RELATIONS: usize = 8;
const FLIGHTS: usize = 100;
const SHARDS: usize = 4;
const BATCH: usize = 128;
const PAIRS: usize = 1000;

fn config(audit: bool) -> ShardedConfig {
    let mut base = CoordinatorConfig::default();
    base.match_config.randomize = false;
    if audit {
        // retention far above the workload so rotation never fires:
        // the series measures steady-state insert cost, not churn
        base.audit = AuditConfig {
            max_rows: 1 << 20,
            ..AuditConfig::enabled()
        };
    }
    ShardedConfig {
        shards: SHARDS,
        workers: 0,
        checkpoint: Default::default(),
        base,
    }
}

/// A coordinator pre-loaded with `standing` never-matching
/// registrations across [`RELATIONS`] answer relations.
fn loaded_coordinator(standing: usize, audit: bool) -> (ShardedCoordinator, WorkloadGen) {
    let mut generator = WorkloadGen::new(23);
    let db = generator
        .build_database(FLIGHTS, &["Paris", "Rome"])
        .expect("database builds");
    let co = ShardedCoordinator::with_config(db, config(audit));
    let noise = generator.noise_multi(standing, "Paris", RELATIONS);
    drive_batched(&co, &noise, BATCH);
    (co, generator)
}

/// Drives `pairs` matched pairs into the loaded coordinator; returns
/// (seconds, arrivals driven).
fn run_storm(co: &ShardedCoordinator, generator: &mut WorkloadGen, pairs: usize) -> (f64, usize) {
    let requests = generator.pair_storm_multi(pairs, "Paris", RELATIONS);
    let started = Instant::now();
    drive_batched(co, &requests, BATCH);
    (started.elapsed().as_secs_f64(), requests.len())
}

/// One storm's rate (arrivals/s) for one audit setting; the audited
/// flavor also checks and returns the resulting ledger row count.
fn storm_rate(standing: usize, audit: bool) -> (f64, usize) {
    let (co, mut generator) = loaded_coordinator(standing, audit);
    let before = co.stats().answered;
    let (seconds, arrivals) = run_storm(&co, &mut generator, PAIRS);
    assert_eq!(
        (co.stats().answered - before) as usize,
        2 * PAIRS,
        "every pair coordinates despite the standing load"
    );
    let mut ledger_rows = 0usize;
    if audit {
        ledger_rows = co
            .db()
            .read()
            .table(AUDIT_TABLE)
            .map(|t| t.len())
            .unwrap_or(0);
        assert!(
            ledger_rows >= standing + 4 * PAIRS,
            "ledger holds a submit row per registration and a \
             submit + terminal row per pair member"
        );
    }
    (arrivals as f64 / seconds, ledger_rows)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Five paired off/on runs per load. The overhead is the median of
/// the per-pair ratios — pairing cancels the slow machine drift that
/// dominates run-to-run variance on shared hardware.
fn paired_rates(standing: usize) -> (f64, f64, f64, usize) {
    let mut offs = Vec::new();
    let mut ons = Vec::new();
    let mut overheads = Vec::new();
    let mut ledger_rows = 0usize;
    for _ in 0..5 {
        let (off, _) = storm_rate(standing, false);
        let (on, rows) = storm_rate(standing, true);
        ledger_rows = rows;
        overheads.push((off / on - 1.0) * 100.0);
        offs.push(off);
        ons.push(on);
    }
    (median(offs), median(ons), median(overheads), ledger_rows)
}

/// The headline series, written to `BENCH_audit.json`.
fn headline_series() {
    let mut rows = Vec::new();
    for &standing in &[1000usize, 4000] {
        let (off_rate, on_rate, overhead, ledger_rows) = paired_rates(standing);
        println!(
            "audit_overhead: {standing:5} standing: {off_rate:.0} arrivals/s off, \
             {on_rate:.0} on ({overhead:+.2}% overhead, {ledger_rows} ledger rows)"
        );
        rows.push(format!(
            "    {{\n      \"standing\": {standing},\n      \
             \"arrivals_per_sec_audit_off\": {off_rate:.1},\n      \
             \"arrivals_per_sec_audit_on\": {on_rate:.1},\n      \
             \"overhead_percent\": {overhead:.2},\n      \
             \"ledger_rows\": {ledger_rows}\n    }}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"audit_overhead\",\n  {},\n  \"claim\": \"audit adds <= 5% to \
         match-path latency\",\n  \"workload\": {{\n    \"relations\": {RELATIONS},\n    \
         \"flights\": {FLIGHTS},\n    \"shards\": {SHARDS},\n    \"batch\": {BATCH},\n    \
         \"pairs\": {PAIRS}\n  }},\n  \"series\": [\n{}\n  ]\n}}\n",
        provenance_json(),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    std::fs::write(path, json).expect("write BENCH_audit.json");
    println!("wrote {path}");
}

fn bench_audit_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("audit_overhead");
    group.sample_size(10);

    for audit in [false, true] {
        let label = if audit { "on" } else { "off" };
        group.throughput(Throughput::Elements(128));
        group.bench_with_input(
            BenchmarkId::new("pair_storm", label),
            &audit,
            |b, &audit| {
                b.iter_batched(
                    || loaded_coordinator(500, audit),
                    |(co, mut generator)| run_storm(&co, &mut generator, 64),
                    BatchSize::PerIteration,
                );
            },
        );
    }
    group.finish();

    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_none() {
        headline_series();
    }
}

criterion_group!(benches, bench_audit_overhead);
criterion_main!(benches);
