//! # youtopia-bench
//!
//! Shared helpers for the benchmark crate: the stack setup of the
//! `experiments` binary (the paper's experiments E1–E10, printed) and
//! of the three paired benches under `benches/`, which write the
//! committed `BENCH_*.json` artifacts. The test module asserts the
//! experiments' paper claims on match-work counters
//! (`docs/matching.md`, "Paper experiments").

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

/// Writes a paired bench's headline `json` to `file` at the repository
/// root. With `YOUTOPIA_BENCH_FAST` set the headline still runs and
/// prints, but the committed artifact is left alone, so a smoke run
/// never rewrites it with another machine's numbers.
pub fn write_bench_json(file: &str, json: &str) {
    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_some() {
        println!("YOUTOPIA_BENCH_FAST is set: {file} not written");
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {}", path.display());
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
    use youtopia_exec::run_sql;
    use youtopia_travel::WorkloadGen;

    /// The match work `f` makes `co` do: the delta of its `match_work`
    /// counters. Fields no test reads stay zero.
    fn work_of(co: &Coordinator, f: impl FnOnce()) -> MatchStats {
        let before = co.stats().match_work;
        f();
        let after = co.stats().match_work;
        MatchStats {
            candidates_considered: after.candidates_considered - before.candidates_considered,
            unify_attempts: after.unify_attempts - before.unify_attempts,
            groundings_attempted: after.groundings_attempted - before.groundings_attempted,
            rows_scanned: after.rows_scanned - before.rows_scanned,
            nodes_expanded: after.nodes_expanded - before.nodes_expanded,
            subsets_tested: after.subsets_tested - before.subsets_tested,
            candidates_scanned: after.candidates_scanned - before.candidates_scanned,
            ..MatchStats::default()
        }
    }

    /// The stack an `experiments` section builds: `flights` Paris
    /// flights from `seed`, and the generator that built them (its
    /// draws shuffle the section's requests).
    fn paris(seed: u64, flights: usize, config: CoordinatorConfig) -> (Coordinator, WorkloadGen) {
        let mut gen = WorkloadGen::new(seed);
        let db = gen.build_database(flights, &["Paris"]).expect("builds");
        (Coordinator::with_config(db, config), gen)
    }

    /// Submits every request but the last, which must all stay
    /// pending, and returns the work of the last, which must close the
    /// group.
    fn close_work(co: &Coordinator, mut requests: Vec<Request>) -> MatchStats {
        let closing = requests.pop().expect("a closing request");
        assert_eq!(submit_all(co, &requests), (0, requests.len()));
        work_of(co, || assert_eq!(submit_all(co, &[closing]), (1, 0)))
    }

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
        let lonely = WorkloadGen::pair_request("lonely", "noise0", "Paris");
        work_of(&stack.coordinator, || {
            assert_eq!(submit_all(&stack.coordinator, &[lonely]), (0, 1))
        })
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

    /// E3: a pair whose queries carry c = 1 + k answer constraints
    /// closes in one grounding, with structural work linear in c (two
    /// candidates per constraint, one node each plus the root) and
    /// grounding work independent of c: the k extra constraints share
    /// the one `fno` membership.
    #[test]
    fn constraint_count_work_is_linear_in_constraints() {
        let mut rows = Vec::new();
        for extra in [0u64, 1, 2, 4, 8] {
            let c = 1 + extra;
            let (co, _) = paris(19, 100, CoordinatorConfig::default());
            let pair = |me, friend| {
                WorkloadGen::pair_with_constraint_count(me, friend, "Paris", extra as usize)
            };
            let work = close_work(&co, vec![pair("a", "b"), pair("b", "a")]);
            assert_eq!(work.groundings_attempted, 1, "c = {c}");
            assert_eq!(work.candidates_considered, 2 * c, "c = {c}");
            assert_eq!(work.nodes_expanded, 2 * c + 1, "c = {c}");
            rows.push(work.rows_scanned);
        }
        assert!(rows.iter().all(|&r| r == rows[0]), "rows_scanned {rows:?}");
    }

    /// E4: per submit, a storm of p simultaneous pairs costs the same
    /// work at p = 10 and p = 200, the candidate scan included: the
    /// committed-answer lookup (`matcher/committed.rs`) walks only the
    /// posting of the partner's name in `Reservation`'s index, which no
    /// committed row of another pair is filed under, so the scan is the
    /// pending-head index's 3p, 1.5 per submit at both loads.
    #[test]
    fn simultaneous_pairs_work_per_submit_is_independent_of_load() {
        for p in [10u64, 200] {
            let (co, mut gen) = paris(17, 100, CoordinatorConfig::default());
            let requests = gen.pair_storm(p as usize, "Paris");
            let expected = (p as usize, p as usize);
            let work = work_of(&co, || assert_eq!(submit_all(&co, &requests), expected));
            // 1.0, 1.0 and 1.5 per submit, over 2p submits
            assert_eq!(work.candidates_considered, 2 * p, "p = {p}");
            assert_eq!(work.unify_attempts, 2 * p, "p = {p}");
            assert_eq!(work.nodes_expanded, 3 * p, "p = {p}");
            assert_eq!(work.candidates_scanned, 3 * p, "p = {p}");
        }
    }

    /// E5: a group of n, each member naming the n - 1 others, closes in
    /// one grounding with n(n - 1) candidates, one node each plus the
    /// root. The grounding's rows grow with n (400 at n = 2, 13 700 at
    /// n = 16).
    #[test]
    fn group_size_work_grows_with_the_constraint_graph() {
        let mut rows = Vec::new();
        for n in [2u64, 3, 4, 6, 8, 12, 16] {
            let (co, mut gen) = paris(13, 100, CoordinatorConfig::default());
            let work = close_work(&co, gen.group(0, n as usize, "Paris"));
            assert_eq!(work.groundings_attempted, 1, "n = {n}");
            assert_eq!(work.candidates_considered, n * (n - 1), "n = {n}");
            assert_eq!(work.nodes_expanded, n * (n - 1) + 1, "n = {n}");
            rows.push(work.rows_scanned);
        }
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "rows_scanned {rows:?}"
        );
    }

    /// E10, fail-first grounding: the rows each instance reads, pinned.
    /// On E10's own workloads nothing backtracks, and the fail-first
    /// pick's filter passes over every unassigned domain cost rows: 800
    /// on the pair close over 200 standing queries, 3 700 on the group
    /// of 8. It pays where a wrong early pick fails late: one flight of
    /// 100 has all 50 hotels, and the smaller `(f, h)` domain goes
    /// first and binds the flight, 20 000 rows summed over 50 seeds.
    /// Domain postings (ROADMAP item 11(a)) are to lower these pins.
    #[test]
    fn forward_checking_pays_only_where_grounding_backtracks() {
        let (co, mut gen) = paris(29, 200, CoordinatorConfig::default());
        preload_noise(&co, &mut gen, 200, "Paris");
        let pair = |me, friend| WorkloadGen::pair_request(me, friend, "Paris");
        let e10_pair = close_work(
            &co,
            vec![pair("probeA", "probeB"), pair("probeB", "probeA")],
        );
        assert_eq!(e10_pair.rows_scanned, 800, "E10 pair");
        let (co, mut gen) = paris(13, 100, CoordinatorConfig::default());
        let group_of_8 = close_work(&co, gen.group(0, 8, "Paris"));
        assert_eq!(group_of_8.rows_scanned, 3_700, "E10 group of 8");

        let flights: Vec<String> = (0..100).map(|f| format!("({f}, 'Paris')")).collect();
        let hotels: Vec<String> = (0..50).map(|h| format!("({h}, 57)")).collect();
        let one_flight_has_the_hotels: u64 = (0..50)
            .map(|seed| {
                let db = Database::new();
                for sql in [
                    "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)".to_string(),
                    format!("INSERT INTO Flights VALUES {}", flights.join(", ")),
                    "CREATE TABLE Hotels (hid INT PRIMARY KEY, fno INT)".to_string(),
                    format!("INSERT INTO Hotels VALUES {}", hotels.join(", ")),
                ] {
                    run_sql(&db, &sql).expect("setup");
                }
                let co = Coordinator::with_config(
                    db,
                    CoordinatorConfig {
                        seed,
                        ..CoordinatorConfig::default()
                    },
                );
                let solo = Request {
                    owner: "solo".into(),
                    sql: "SELECT 'solo', f, h INTO ANSWER R \
                          WHERE f IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                          AND (f, h) IN (SELECT fno, hid FROM Hotels) CHOOSE 1"
                        .into(),
                };
                work_of(&co, || assert_eq!(submit_all(&co, &[solo]), (1, 0))).rows_scanned
            })
            .sum();
        assert_eq!(
            one_flight_has_the_hotels, 20_000,
            "one flight has the hotels"
        );
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
