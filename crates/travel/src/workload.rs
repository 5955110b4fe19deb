//! Workload generators for the scalability experiments (§3's "loaded
//! system, where a large number of entangled queries are trying to
//! coordinate simultaneously").
//!
//! All generators are deterministic given a seed, so benchmark runs are
//! reproducible.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use youtopia_core::{
    compile_sql, Ack, ShardedConfig, ShardedCoordinator, Submission, SubmitOptions,
};
use youtopia_exec::run_sql;
use youtopia_storage::Database;

use crate::error::{TravelError, TravelResult};
use crate::model::install_schema;

/// One entangled submission: who submits what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Submitting user.
    pub owner: String,
    /// The entangled SQL.
    pub sql: String,
}

/// Deterministic workload generator.
pub struct WorkloadGen {
    rng: StdRng,
}

impl WorkloadGen {
    /// Creates a generator with a fixed seed.
    pub fn new(seed: u64) -> WorkloadGen {
        WorkloadGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Builds a database with the travel schema and `n_flights` flights
    /// spread over `cities` (plenty of seats so inventory never blocks
    /// matching experiments).
    pub fn build_database(&mut self, n_flights: usize, cities: &[&str]) -> TravelResult<Database> {
        self.populate(Database::new(), n_flights, cities)
    }

    /// Like [`WorkloadGen::build_database`], but the database logs to
    /// `wal`, so the crash/restart scenarios can kill and recover it.
    /// Generated content is identical to a WAL-less build under the
    /// same seed.
    pub fn build_database_with_wal(
        &mut self,
        n_flights: usize,
        cities: &[&str],
        wal: youtopia_storage::Wal,
    ) -> TravelResult<Database> {
        self.populate(Database::with_wal(wal), n_flights, cities)
    }

    fn populate(
        &mut self,
        db: Database,
        n_flights: usize,
        cities: &[&str],
    ) -> TravelResult<Database> {
        install_schema(&db)?;
        let mut rows = Vec::with_capacity(n_flights);
        for i in 0..n_flights {
            let city = cities[i % cities.len()];
            let day = self.rng.random_range(1..=30);
            let price = 100.0 + self.rng.random_range(0..900) as f64;
            rows.push(format!(
                "({fno}, 'New York', '{city}', {day}, {price}, 1000000)",
                fno = 1000 + i as i64
            ));
        }
        for chunk in rows.chunks(500) {
            run_sql(
                &db,
                &format!("INSERT INTO Flights VALUES {}", chunk.join(", ")),
            )?;
        }
        let mut hotels = Vec::new();
        for (i, city) in cities.iter().enumerate() {
            hotels.push(format!(
                "({}, '{city}', 1, 100.0, 1000000)",
                10_000 + i as i64
            ));
        }
        run_sql(
            &db,
            &format!("INSERT INTO Hotels VALUES {}", hotels.join(", ")),
        )?;
        Ok(db)
    }

    /// The pair request of the paper's walkthrough, parameterized.
    pub fn pair_request(me: &str, friend: &str, dest: &str) -> Request {
        Request {
            owner: me.to_string(),
            sql: format!(
                "SELECT '{me}', fno INTO ANSWER Reservation \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
                 AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
            ),
        }
    }

    /// `pairs` mutually coordinating pairs on `dest`. Returned in
    /// submission order: all first halves, then all second halves, so a
    /// driver can measure "p pending, then p completions".
    pub fn pair_storm(&mut self, pairs: usize, dest: &str) -> Vec<Request> {
        let mut first = Vec::with_capacity(pairs);
        let mut second = Vec::with_capacity(pairs);
        for p in 0..pairs {
            let a = format!("L{p}");
            let b = format!("R{p}");
            first.push(Self::pair_request(&a, &b, dest));
            second.push(Self::pair_request(&b, &a, dest));
        }
        first.shuffle(&mut self.rng);
        second.shuffle(&mut self.rng);
        first.extend(second);
        first
    }

    /// `count` "noise" queries that never match: each waits for a
    /// partner who never arrives. These are the standing load of the
    /// loaded-system experiment.
    pub fn noise(&mut self, count: usize, dest: &str) -> Vec<Request> {
        (0..count)
            .map(|i| Self::pair_request(&format!("noise{i}"), &format!("ghost{i}"), dest))
            .collect()
    }

    /// A group of `size` friends booking one flight: each request names
    /// all other members. Submission order is randomized; only the last
    /// arrival closes the group.
    pub fn group(&mut self, group_id: usize, size: usize, dest: &str) -> Vec<Request> {
        let names: Vec<String> = (0..size).map(|i| format!("g{group_id}m{i}")).collect();
        let mut requests = Vec::with_capacity(size);
        for me in &names {
            let mut sql = format!(
                "SELECT '{me}', fno INTO ANSWER Reservation \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}')"
            );
            for other in names.iter().filter(|n| *n != me) {
                sql.push_str(&format!(" AND ('{other}', fno) IN ANSWER Reservation"));
            }
            sql.push_str(" CHOOSE 1");
            requests.push(Request {
                owner: me.clone(),
                sql,
            });
        }
        requests.shuffle(&mut self.rng);
        requests
    }

    /// The pair request on an explicit answer relation (multi-relation
    /// workloads route different relation families to different shards
    /// of the sharded coordinator).
    pub fn pair_request_on(relation: &str, me: &str, friend: &str, dest: &str) -> Request {
        Request {
            owner: me.to_string(),
            sql: format!(
                "SELECT '{me}', fno INTO ANSWER {relation} \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
                 AND ('{friend}', fno) IN ANSWER {relation} CHOOSE 1"
            ),
        }
    }

    /// `pairs` coordinating pairs spread round-robin over `relations`
    /// distinct answer relations (`Reservation0..`). Independent
    /// relation families form independent coordination components, so
    /// this is the natural workload for the sharded coordinator.
    /// Returned as all first halves (shuffled), then all second halves
    /// (shuffled), like [`WorkloadGen::pair_storm`].
    pub fn pair_storm_multi(&mut self, pairs: usize, dest: &str, relations: usize) -> Vec<Request> {
        let relations = relations.max(1);
        let mut first = Vec::with_capacity(pairs);
        let mut second = Vec::with_capacity(pairs);
        for p in 0..pairs {
            let rel = format!("Reservation{}", p % relations);
            let a = format!("L{p}");
            let b = format!("R{p}");
            first.push(Self::pair_request_on(&rel, &a, &b, dest));
            second.push(Self::pair_request_on(&rel, &b, &a, dest));
        }
        first.shuffle(&mut self.rng);
        second.shuffle(&mut self.rng);
        first.extend(second);
        first
    }

    /// `count` never-matching noise queries spread round-robin over
    /// `relations` answer relations — the standing load of the sharded
    /// loaded-system experiment.
    pub fn noise_multi(&mut self, count: usize, dest: &str, relations: usize) -> Vec<Request> {
        let relations = relations.max(1);
        (0..count)
            .map(|i| {
                let rel = format!("Reservation{}", i % relations);
                Self::pair_request_on(&rel, &format!("noise{i}"), &format!("ghost{i}"), dest)
            })
            .collect()
    }

    /// `pairs` coordinating pairs all owned by one tenant: owners are
    /// `{tenant}/p{i}a` / `{tenant}/p{i}b` (the tenant is the prefix
    /// before the first `/`), spread round-robin over `relations`
    /// answer relations. Returned interleaved — each pair's first half
    /// directly followed by its closer — so a driver can time
    /// per-pair completion latency. The building block of the
    /// multi-tenant noisy-neighbor scenarios.
    pub fn tenant_pairs(tenant: &str, pairs: usize, dest: &str, relations: usize) -> Vec<Request> {
        let relations = relations.max(1);
        let mut out = Vec::with_capacity(pairs * 2);
        for p in 0..pairs {
            let rel = format!("Reservation{}", p % relations);
            let a = format!("{tenant}/p{p}a");
            let b = format!("{tenant}/p{p}b");
            out.push(Self::pair_request_on(&rel, &a, &b, dest));
            out.push(Self::pair_request_on(&rel, &b, &a, dest));
        }
        out
    }

    /// `count` never-matching queries all owned by one tenant (owners
    /// `{tenant}/s{i}`), spread over `relations` answer relations —
    /// the flood half of the noisy-neighbor test: a tenant hammering
    /// the system with standing load that its quota should throttle.
    pub fn tenant_storm(tenant: &str, count: usize, dest: &str, relations: usize) -> Vec<Request> {
        let relations = relations.max(1);
        (0..count)
            .map(|i| {
                let rel = format!("Reservation{}", i % relations);
                Self::pair_request_on(
                    &rel,
                    &format!("{tenant}/s{i}"),
                    &format!("{tenant}/ghost{i}"),
                    dest,
                )
            })
            .collect()
    }

    /// A flight+hotel pair request (two answer relations per query).
    #[cfg(test)]
    fn pair_flight_hotel(me: &str, friend: &str, dest: &str) -> Request {
        Request {
            owner: me.to_string(),
            sql: format!(
                "SELECT '{me}', fno INTO ANSWER Reservation, \
                 '{me}', hid INTO ANSWER HotelReservation \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
                 AND hid IN (SELECT hid FROM Hotels WHERE city = '{dest}') \
                 AND ('{friend}', fno) IN ANSWER Reservation \
                 AND ('{friend}', hid) IN ANSWER HotelReservation CHOOSE 1"
            ),
        }
    }

    /// A pair request with `extra_constraints` additional answer
    /// relations per query (E3: constraint-complexity sweep). With
    /// `extra = 0` this is the plain pair.
    pub fn pair_with_constraint_count(
        me: &str,
        friend: &str,
        dest: &str,
        extra_constraints: usize,
    ) -> Request {
        let mut heads = format!("'{me}', fno INTO ANSWER Reservation");
        let mut body = format!(
            " WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
             AND ('{friend}', fno) IN ANSWER Reservation"
        );
        for k in 0..extra_constraints {
            heads.push_str(&format!(", '{me}', fno INTO ANSWER Aux{k}"));
            body.push_str(&format!(" AND ('{friend}', fno) IN ANSWER Aux{k}"));
        }
        Request {
            owner: me.to_string(),
            sql: format!("SELECT {heads}{body} CHOOSE 1"),
        }
    }
}

/// Configuration of the kill/restart scenario
/// ([`run_crash_restart`]): a deterministic multi-relation pair
/// workload over standing noise, killed after `crash_after`
/// submissions and recovered from the WAL.
#[derive(Debug, Clone, Copy)]
pub struct CrashScenario {
    /// Workload seed (drives flights, shuffles, and comparison run).
    pub seed: u64,
    /// Coordinating pairs (2 requests each).
    pub pairs: usize,
    /// Standing never-matching noise queries submitted first.
    pub noise: usize,
    /// Distinct answer relations the workload spreads over.
    pub relations: usize,
    /// Flights in the generated database.
    pub flights: usize,
    /// Batch size of the driver.
    pub batch_size: usize,
    /// Requests submitted before the kill (clamped to the total).
    pub crash_after: usize,
    /// Coordinator configuration. `randomize` must stay off for the
    /// crashed and uncrashed runs to be comparable.
    pub config: ShardedConfig,
}

impl Default for CrashScenario {
    fn default() -> Self {
        let mut config = ShardedConfig::default();
        config.base.match_config.randomize = false;
        CrashScenario {
            seed: 0x00C0_FFEE,
            pairs: 24,
            noise: 60,
            relations: 6,
            flights: 80,
            batch_size: 16,
            crash_after: 90,
            config,
        }
    }
}

/// What [`run_crash_restart`] observed.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Driver outcomes before the kill.
    pub before: DriveReport,
    /// Size of the WAL salvaged at the kill point, in bytes.
    pub wal_bytes: usize,
    /// What recovery replayed and rebuilt.
    pub recovery: youtopia_core::RecoveryReport,
    /// Futures re-issued to reconnecting owners after recovery.
    pub reattached: usize,
    /// Driver outcomes for the remainder, after recovery.
    pub after: DriveReport,
    /// Pending queries at the end of the crashed run.
    pub pending_after: usize,
    /// Whether the crashed-and-recovered run ended in exactly the
    /// uncrashed run's state: same pending set (id, owner, SQL, seq),
    /// same answer relations, and routing invariants intact.
    pub equivalent: bool,
}

/// Runs the kill/restart scenario: drives a prefix of the workload
/// into a WAL-backed sharded coordinator, "kills" it (drops every
/// in-memory structure, keeping only the salvaged WAL bytes), recovers
/// with [`ShardedCoordinator::recover`], re-attaches every owner with
/// pending queries, finishes the workload, and compares the final
/// state against an uncrashed control run under the same seed.
pub fn run_crash_restart(scenario: &CrashScenario) -> TravelResult<CrashReport> {
    use youtopia_storage::Wal;

    let cities = ["Paris", "Rome"];
    let build_requests = |generator: &mut WorkloadGen| {
        let mut requests = generator.noise_multi(scenario.noise, "Paris", scenario.relations);
        requests.extend(generator.pair_storm_multi(scenario.pairs, "Paris", scenario.relations));
        requests
    };

    // ---- control: the same workload, never killed ------------------ //
    let mut generator = WorkloadGen::new(scenario.seed);
    let control_db = generator.build_database(scenario.flights, &cities)?;
    let control = ShardedCoordinator::with_config(control_db, scenario.config);
    let control_requests = build_requests(&mut generator);
    drive_batched(&control, &control_requests, scenario.batch_size);

    // ---- crashed run ----------------------------------------------- //
    let mut generator = WorkloadGen::new(scenario.seed);
    let db = generator.build_database_with_wal(scenario.flights, &cities, Wal::in_memory())?;
    let coordinator = ShardedCoordinator::with_config(db.clone(), scenario.config);
    let requests = build_requests(&mut generator);
    let cut = scenario.crash_after.min(requests.len());
    let before = drive_batched(&coordinator, &requests[..cut], scenario.batch_size);

    // the kill: drop the coordinator and database; only the bytes that
    // reached the log survive
    let wal_bytes = db.wal_bytes().expect("scenario database is WAL-backed");
    drop(coordinator);
    drop(db);

    // the restart
    let (recovered, recovery) =
        ShardedCoordinator::recover(Wal::from_bytes(wal_bytes.clone()), scenario.config)
            .map_err(TravelError::Core)?;
    recovered
        .check_routing_invariants()
        .map_err(youtopia_core::CoreError::Internal)
        .map_err(TravelError::Core)?;
    let owners: std::collections::BTreeSet<String> = recovered
        .pending_snapshot()
        .into_iter()
        .map(|p| p.owner)
        .collect();
    let reattached: usize = owners
        .iter()
        .map(|owner| recovered.reattach(owner).len())
        .sum();
    let after = drive_batched(&recovered, &requests[cut..], scenario.batch_size);

    // ---- comparison ------------------------------------------------ //
    let snapshot = |co: &ShardedCoordinator| {
        co.pending_snapshot()
            .into_iter()
            .map(|p| (p.id, p.owner, p.sql, p.seq))
            .collect::<Vec<_>>()
    };
    let answers = |co: &ShardedCoordinator| {
        (0..scenario.relations)
            .map(|k| {
                let mut rows: Vec<Vec<u8>> = co
                    .answers(&format!("Reservation{k}"))
                    .iter()
                    .map(|t| t.encode().to_vec())
                    .collect();
                rows.sort();
                rows
            })
            .collect::<Vec<_>>()
    };
    let equivalent = snapshot(&recovered) == snapshot(&control)
        && answers(&recovered) == answers(&control)
        && recovered.check_routing_invariants().is_ok();

    Ok(CrashReport {
        before,
        wal_bytes: wal_bytes.len(),
        recovery,
        reattached,
        after,
        pending_after: recovered.pending_count(),
        equivalent,
    })
}

/// Outcome counts of a driven submission run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Requests answered on arrival (or within their batch).
    pub answered: usize,
    /// Requests left pending.
    pub pending: usize,
    /// Requests rejected (compile or safety failure).
    pub rejected: usize,
}

/// Submits `requests` to the sharded coordinator in batches of
/// `batch_size`, draining matching per shard per batch (the batched
/// submission mode of the workload driver).
pub fn drive_batched(
    coordinator: &ShardedCoordinator,
    requests: &[Request],
    batch_size: usize,
) -> DriveReport {
    let mut report = DriveReport::default();
    for chunk in requests.chunks(batch_size.max(1)) {
        let chunk = chunk
            .iter()
            .map(|r| {
                (
                    r.owner.clone(),
                    compile_sql(&r.sql),
                    SubmitOptions::default(),
                )
            })
            .collect();
        for outcome in coordinator.submit(chunk, Ack::Wait) {
            match outcome.map(Submission::from) {
                Ok(Submission::Answered(_)) => report.answered += 1,
                Ok(Submission::Pending(_)) => report.pending += 1,
                Err(_) => report.rejected += 1,
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    use youtopia_core::{QueryId, Templates};

    #[test]
    fn database_builder_is_deterministic() {
        let db1 = WorkloadGen::new(1)
            .build_database(100, &["Paris", "Rome"])
            .unwrap();
        let db2 = WorkloadGen::new(1)
            .build_database(100, &["Paris", "Rome"])
            .unwrap();
        let count = |db: &Database| db.read().table("Flights").unwrap().len();
        assert_eq!(count(&db1), 100);
        assert_eq!(count(&db1), count(&db2));
    }

    #[test]
    fn pair_storm_shape() {
        let reqs = WorkloadGen::new(2).pair_storm(10, "Paris");
        assert_eq!(reqs.len(), 20);
        // first half are all L*/R* pairs' first members (shuffled)
        for r in &reqs {
            assert!(r.sql.contains("IN ANSWER Reservation"));
            compile_sql(&r.sql).expect("generated SQL compiles");
        }
        // all 20 owners distinct
        let owners: std::collections::HashSet<&str> =
            reqs.iter().map(|r| r.owner.as_str()).collect();
        assert_eq!(owners.len(), 20);
    }

    #[test]
    fn group_requests_reference_every_other_member() {
        let reqs = WorkloadGen::new(3).group(0, 4, "Paris");
        assert_eq!(reqs.len(), 4);
        for r in &reqs {
            let q = compile_sql(&r.sql).unwrap();
            assert_eq!(q.constraints.len(), 3, "each member names 3 others");
        }
    }

    #[test]
    fn noise_queries_compile_and_never_pair_up() {
        let reqs = WorkloadGen::new(4).noise(5, "Paris");
        assert_eq!(reqs.len(), 5);
        for (i, r) in reqs.iter().enumerate() {
            compile_sql(&r.sql).unwrap();
            assert!(r.sql.contains(&format!("ghost{i}")));
        }
    }

    #[test]
    fn constraint_count_sweep() {
        for extra in 0..4 {
            let r = WorkloadGen::pair_with_constraint_count("a", "b", "Paris", extra);
            let q = compile_sql(&r.sql).unwrap();
            assert_eq!(q.constraints.len(), 1 + extra);
            assert_eq!(q.heads.len(), 1 + extra);
        }
    }

    #[test]
    fn multi_relation_storm_spreads_relations() {
        let reqs = WorkloadGen::new(5).pair_storm_multi(8, "Paris", 4);
        assert_eq!(reqs.len(), 16);
        for k in 0..4 {
            let rel = format!("Reservation{k}");
            assert_eq!(
                reqs.iter().filter(|r| r.sql.contains(&rel)).count(),
                4,
                "each relation family hosts 2 pairs = 4 requests"
            );
        }
        for r in &reqs {
            compile_sql(&r.sql).expect("generated SQL compiles");
        }
    }

    #[test]
    fn batched_driver_matches_pairs() {
        let mut generator = WorkloadGen::new(6);
        let db = generator.build_database(50, &["Paris"]).unwrap();
        let co = ShardedCoordinator::new(db);
        let reqs = generator.pair_storm_multi(6, "Paris", 3);
        let report = drive_batched(&co, &reqs, 4);
        assert_eq!(report.answered, 6);
        assert_eq!(report.pending, 6);
        assert_eq!(report.rejected, 0);
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn crash_restart_scenario_is_equivalent_to_uncrashed() {
        let scenario = CrashScenario {
            pairs: 8,
            noise: 12,
            relations: 3,
            flights: 30,
            batch_size: 5,
            crash_after: 17,
            ..CrashScenario::default()
        };
        let report = run_crash_restart(&scenario).unwrap();
        assert!(report.wal_bytes > 0);
        assert!(report.recovery.restored_pending > 0, "crash mid-workload");
        assert_eq!(
            report.reattached, report.recovery.restored_pending,
            "every surviving owner reattaches one future per pending query"
        );
        assert!(report.equivalent, "recovered state == uncrashed state");
        // every pair eventually closed; only noise is left pending
        assert_eq!(report.pending_after, scenario.noise);
    }

    #[test]
    fn crash_at_boundaries_still_equivalent() {
        for crash_after in [0, 1, 40] {
            let scenario = CrashScenario {
                pairs: 4,
                noise: 4,
                relations: 2,
                flights: 20,
                batch_size: 3,
                crash_after,
                ..CrashScenario::default()
            };
            let report = run_crash_restart(&scenario).unwrap();
            assert!(report.equivalent, "crash_after={crash_after}");
        }
    }

    #[test]
    fn flight_hotel_pair_compiles() {
        let r = WorkloadGen::pair_flight_hotel("a", "b", "Paris");
        let q = compile_sql(&r.sql).unwrap();
        assert_eq!(q.heads.len(), 2);
        assert_eq!(q.constraints.len(), 2);
        assert_eq!(q.memberships.len(), 2);
    }

    /// SQL-escaped pieces of generated string contents: `''` escapes,
    /// non-ASCII text, values equal to a relation or variable name, and
    /// comment or identifier openers that stay inside the literal.
    const ATOMS: &[&str] = &[
        "O''Hare",
        "Zoë",
        "東京",
        "Reservation",
        "Reservation1",
        "fno",
        "hid",
        "Paris",
        "-- x",
        "/* x",
        "\"q",
        " ",
    ];

    /// A generated string content: empty, one to three atoms, or
    /// (rarely) text holding a bare quote that ends the literal early.
    fn content(rng: &mut StdRng) -> String {
        match rng.random_range(0..20) {
            0 => String::new(),
            1 => "x', fno INTO ANSWER Other --".into(),
            2 => "unterminated'".into(),
            _ => (0..rng.random_range(1..4))
                .map(|_| *ATOMS.choose(rng).unwrap())
                .collect(),
        }
    }

    /// One request from a travel generator, with generated contents;
    /// `me` and `friend` (and the destination) are sometimes equal.
    fn generated_sql(rng: &mut StdRng) -> String {
        let me = content(rng);
        let friend = if rng.random_bool(0.2) {
            me.clone()
        } else {
            content(rng)
        };
        let dest = if rng.random_bool(0.1) {
            me.clone()
        } else {
            ["Paris", "Rome"].choose(rng).unwrap().to_string()
        };
        let sql = match rng.random_range(0..5) {
            0 => WorkloadGen::pair_request(&me, &friend, &dest).sql,
            1 => WorkloadGen::pair_flight_hotel(&me, &friend, &dest).sql,
            2 => {
                let size = rng.random_range(2..5);
                let mut requests =
                    WorkloadGen::new(rng.random_range(0..1_000)).group(0, size, &dest);
                requests.swap_remove(0).sql
            }
            3 => {
                WorkloadGen::tenant_storm(&me, 3, &dest, 2)
                    .swap_remove(rng.random_range(0..3))
                    .sql
            }
            _ => {
                WorkloadGen::tenant_pairs(&me, 2, &dest, 2)
                    .swap_remove(rng.random_range(0..4))
                    .sql
            }
        };
        // a compile error that the template key keeps (`CHOOSE`'s count)
        if rng.random_bool(0.05) {
            sql.replace("CHOOSE 1", "CHOOSE 2")
        } else {
            sql
        }
    }

    /// Cached == fresh: the template path returns exactly what
    /// compiling each text and namespacing it does, the same query
    /// (its `sql` included) or the same error.
    #[test]
    fn templates_equal_fresh_compiles() {
        let (mut texts, mut fresh) = (0, 0);
        for case in 0..100 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut templates = Templates::default();
            for qid in 0..80 {
                let sql = generated_sql(&mut rng);
                let qid = QueryId(qid);
                let expected = compile_sql(&sql).map(|q| q.namespaced(qid));
                assert_eq!(
                    templates.compile(sql.clone(), qid),
                    expected,
                    "case {case}: {sql}"
                );
            }
            texts += 80;
            fresh += templates.fresh;
        }
        // the hit path ran: most texts share a template with an earlier one
        assert!(fresh * 2 < texts, "{fresh} of {texts} compiled fresh");
    }
}
