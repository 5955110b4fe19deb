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
/// outside a git checkout, `-dirty` appended when tracked files differ
/// from it), and `"nproc"`, the CPUs it could use. Returned as JSON
/// members without braces, for splicing.
pub fn provenance_json() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let head = git(&["rev-parse", "--short=12", "HEAD"]);
    let status = git(&["status", "--porcelain", "--untracked-files=no"]).unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    provenance_fields(head.as_deref(), &status, nproc)
}

/// [`provenance_json`]'s fields from `git rev-parse` output (`None`
/// outside a checkout) and `git status --porcelain` output. Changes to
/// the root `BENCH_*.json` artifacts do not make the tree dirty: a bench
/// run rewrites them, and the next bench of the same run must still
/// stamp the clean commit.
fn provenance_fields(head: Option<&str>, status: &str, nproc: usize) -> String {
    let artifact =
        |path: &str| !path.contains('/') && path.starts_with("BENCH_") && path.ends_with(".json");
    let dirty = status
        .lines()
        .filter_map(|line| line.get(3..))
        .map(|path| path.rsplit(" -> ").next().unwrap_or(path))
        .any(|path| !artifact(path));
    let commit = match head.map(str::trim) {
        Some(hash) if !hash.is_empty() => format!("{hash}{}", if dirty { "-dirty" } else { "" }),
        _ => "unknown".to_string(),
    };
    format!("\"commit\": \"{commit}\",\n  \"nproc\": {nproc}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_core::{MatchConfig, MatchStats, MatcherKind};
    use youtopia_travel::WorkloadGen;

    /// The match work one lonely arrival costs over `noise` standing
    /// queries, at E7's group bound of 3. It names the standing
    /// `noise0` as its friend, so the indexed matcher has one candidate
    /// head to examine, but `noise0` waits for someone else.
    fn lonely_arrival_work(matcher: MatcherKind, noise: usize) -> MatchStats {
        let config = CoordinatorConfig {
            matcher,
            match_config: MatchConfig {
                max_group_size: 3,
                ..MatchConfig::default()
            },
            ..CoordinatorConfig::default()
        };
        let stack = build_stack(7, 200, &["Paris", "Rome"], config);
        let mut gen = WorkloadGen::new(8);
        preload_noise(&stack.coordinator, &mut gen, noise, "Paris");
        let before = stack.coordinator.stats().match_work;
        let lonely = WorkloadGen::pair_request("lonely", "noise0", "Paris");
        assert_eq!(submit_all(&stack.coordinator, &[lonely]), (0, 1));
        let after = stack.coordinator.stats().match_work;
        MatchStats {
            subsets_tested: after.subsets_tested - before.subsets_tested,
            candidates_scanned: after.candidates_scanned - before.candidates_scanned,
            ..MatchStats::default()
        }
    }

    /// E7's shape on work counters rather than time: the naive
    /// baseline tests every subset of up to two standing queries with
    /// the arrival, while the indexed matcher's scan does not grow
    /// with the standing load.
    #[test]
    fn loaded_system_work_grows_only_for_the_naive_matcher() {
        for n in [10u64, 50] {
            let naive = lonely_arrival_work(MatcherKind::Naive, n as usize);
            assert_eq!(naive.subsets_tested, 1 + n + n * (n - 1) / 2, "n = {n}");
        }
        let scanned = |n| lonely_arrival_work(MatcherKind::Incremental, n).candidates_scanned;
        assert!(scanned(10) > 0);
        assert_eq!(scanned(10), scanned(50));
    }

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
    fn provenance_marks_a_tree_that_differs_from_head() {
        let clean = provenance_fields(Some("0123456789ab\n"), "", 2);
        assert_eq!(clean, "\"commit\": \"0123456789ab\",\n  \"nproc\": 2");
        let edited = " M crates/core/src/engine.rs\n";
        assert!(provenance_fields(Some("0123456789ab"), edited, 2)
            .starts_with("\"commit\": \"0123456789ab-dirty\""));
        let staged_rename = "R  docs/a.md -> docs/b.md\n";
        assert!(provenance_fields(Some("0123456789ab"), staged_rename, 2).contains("-dirty"));
        // rewritten artifacts alone leave the stamp clean
        let artifacts = " M BENCH_sharded.json\n M BENCH_audit.json\n";
        assert_eq!(provenance_fields(Some("0123456789ab"), artifacts, 2), clean);
        assert!(provenance_fields(None, edited, 4)
            .starts_with("\"commit\": \"unknown\",\n  \"nproc\": 4"));
    }

    #[test]
    fn noise_preload_stays_pending() {
        let stack = build_stack(1, 50, &["Paris"], CoordinatorConfig::default());
        let mut gen = WorkloadGen::new(3);
        preload_noise(&stack.coordinator, &mut gen, 20, "Paris");
        assert_eq!(stack.coordinator.pending_count(), 20);
    }
}
