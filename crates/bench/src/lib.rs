//! # youtopia-bench
//!
//! Shared helpers for the benchmark harness. Each experiment of the
//! `experiments` binary (E1–E10) has a Criterion bench target under
//! `benches/`; this library holds the common setup code so the benches
//! and that binary's report stay consistent.

#![warn(missing_docs)]

use youtopia_core::{
    Coordinator, CoordinatorConfig, ShardedConfig, ShardedCoordinator, Submission,
};
use youtopia_storage::Database;
use youtopia_travel::{drive_batched, Request, WorkloadGen};

/// A prepared coordination stack: database + coordinator.
pub struct Stack {
    /// The database with the travel schema and generated flights.
    pub db: Database,
    /// The coordinator under test.
    pub coordinator: Coordinator,
}

/// Builds a stack whose database has `n_flights` flights to the given
/// cities, with the supplied coordinator configuration.
pub fn build_stack(
    seed: u64,
    n_flights: usize,
    cities: &[&str],
    config: CoordinatorConfig,
) -> Stack {
    let mut gen = WorkloadGen::new(seed);
    let db = gen
        .build_database(n_flights, cities)
        .expect("workload database builds");
    let coordinator = Coordinator::with_config(db.clone(), config);
    Stack { db, coordinator }
}

/// Submits requests in order; returns (answered, pending) counts.
/// Panics on rejection — the generators only produce safe queries.
pub fn submit_all(coordinator: &Coordinator, requests: &[Request]) -> (usize, usize) {
    let mut answered = 0;
    let mut pending = 0;
    for r in requests {
        match coordinator
            .submit_sql(&r.owner, &r.sql)
            .expect("generated queries are safe")
        {
            Submission::Answered(_) => answered += 1,
            Submission::Pending(_) => pending += 1,
        }
    }
    (answered, pending)
}

/// Pre-loads `noise` unmatchable pending queries (the standing load of
/// the loaded-system experiment).
pub fn preload_noise(coordinator: &Coordinator, gen: &mut WorkloadGen, noise: usize, dest: &str) {
    let requests = gen.noise(noise, dest);
    let (answered, pending) = submit_all(coordinator, &requests);
    assert_eq!(answered, 0, "noise must not match");
    assert_eq!(pending, noise);
}

/// A prepared sharded coordination stack: database + sharded
/// coordinator.
pub struct ShardedStack {
    /// The database with the travel schema and generated flights.
    pub db: Database,
    /// The sharded coordinator under test.
    pub coordinator: ShardedCoordinator,
}

/// Builds a sharded stack over a freshly generated travel database.
pub fn build_sharded_stack(
    seed: u64,
    n_flights: usize,
    cities: &[&str],
    config: ShardedConfig,
) -> ShardedStack {
    let mut gen = WorkloadGen::new(seed);
    let db = gen
        .build_database(n_flights, cities)
        .expect("workload database builds");
    let coordinator = ShardedCoordinator::with_config(db.clone(), config);
    ShardedStack { db, coordinator }
}

/// Pre-loads `noise` unmatchable pending queries spread over
/// `relations` answer relations (the standing load of the sharded
/// loaded-system experiment).
pub fn preload_noise_sharded(
    coordinator: &ShardedCoordinator,
    gen: &mut WorkloadGen,
    noise: usize,
    dest: &str,
    relations: usize,
) {
    let requests = gen.noise_multi(noise, dest, relations);
    let report = drive_batched(coordinator, &requests, 256);
    assert_eq!(report.answered, 0, "noise must not match");
    assert_eq!(report.pending, noise);
}

/// The provenance fields a committed `BENCH_*.json` starts with:
/// `"commit"`, the checkout's `HEAD` when the bench ran (`unknown`
/// outside a git checkout), and `"nproc"`, the CPUs it could use.
/// Returned as JSON members without braces, for splicing.
pub fn provenance_json() -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("\"commit\": \"{commit}\",\n  \"nproc\": {nproc}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_travel::WorkloadGen;

    #[test]
    fn stack_builds_and_matches_pairs() {
        let stack = build_stack(1, 50, &["Paris"], CoordinatorConfig::default());
        let mut gen = WorkloadGen::new(2);
        let reqs = gen.pair_storm(5, "Paris");
        let (answered, pending) = submit_all(&stack.coordinator, &reqs);
        assert_eq!(answered, 5, "each second half closes a pair");
        assert_eq!(pending, 5);
        assert_eq!(stack.coordinator.pending_count(), 0);
    }

    #[test]
    fn noise_preload_stays_pending() {
        let stack = build_stack(1, 50, &["Paris"], CoordinatorConfig::default());
        let mut gen = WorkloadGen::new(3);
        preload_noise(&stack.coordinator, &mut gen, 20, "Paris");
        assert_eq!(stack.coordinator.pending_count(), 20);
    }
}
