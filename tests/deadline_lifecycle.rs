//! Integration tests for the deadline-driven query lifecycle
//! (deadline-lifecycle PR): the background [`DeadlineSweeper`] on an
//! injectable [`MockClock`] (no wall-clock sleeps — tests advance the
//! clock and observe event-driven outcomes), the expiry-vs-match race
//! regression (exactly one terminal outcome per waiter, at one shard
//! and at four), and the WAL-size checkpoint policy.

use std::sync::Arc;
use std::time::Duration;

use youtopia::core::SubmitOptions;
use youtopia::storage::Wal;
use youtopia::{
    run_sql, CheckpointPolicy, CoordinationOutcome, Coordinator, Database, DeadlineSweeper,
    MockClock, ShardedConfig, ShardedCoordinator, Submission,
};

fn flights_db() -> Database {
    let db = Database::new();
    for sql in [
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris')",
    ] {
        run_sql(&db, sql).unwrap();
    }
    db
}

/// Spins (yielding) until `cond` holds or ~10s pass — used only for
/// counters the sweeper thread updates just *after* waking the waiter,
/// so the condition is event-driven, not time-driven.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::yield_now();
    }
    cond()
}

fn pair_sql_on(rel: &str, me: &str, friend: &str) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER {rel} \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
         AND ('{friend}', fno) IN ANSWER {rel} CHOOSE 1"
    )
}

/// The tentpole wiring at one shard: a sweeper on a mock clock
/// expires a deadline-carrying future exactly when the clock passes
/// the deadline — driven entirely by `MockClock::advance`, which wakes
/// the parked sweeper through the coordinator's sweep signal.
#[test]
fn sweeper_expires_future_on_mock_clock_serial() {
    let clock = Arc::new(MockClock::new(0));
    let co: Arc<ShardedCoordinator> = Arc::new(Coordinator::new(flights_db()).into());
    let sweeper = DeadlineSweeper::spawn(co.clone(), clock.clone());

    let mut f = co
        .submit_sql_async_with(
            "kramer",
            &pair_sql_on("Res", "Kramer", "Jerry"),
            SubmitOptions::with_deadline(100),
        )
        .unwrap();
    assert!(!f.is_complete(), "deadline lies in the mock future");

    clock.advance(99); // t=99: not due — the sweep must not fire it
    assert!(!f.is_complete());

    clock.advance(1); // t=100: due
    assert_eq!(
        f.wait_timeout(Duration::from_secs(10)),
        Some(CoordinationOutcome::Expired),
        "the sweeper must expire the future at its deadline"
    );
    assert_eq!(co.pending_count(), 0);
    assert!(eventually(|| sweeper.swept() >= 1));
    sweeper.shutdown();
}

/// Sharded flavor: deadlines on different shards expire from one
/// sweeper; every handle resolves `Expired` (the one from a blocking
/// `submit_sql_with` included), and a deadline-less query is
/// untouched.
#[test]
fn sweeper_expires_across_shards_on_mock_clock() {
    let clock = Arc::new(MockClock::new(0));
    let co = Arc::new(ShardedCoordinator::with_clock(
        flights_db(),
        ShardedConfig::default(),
        clock.clone(),
    ));
    let sweeper = DeadlineSweeper::spawn(co.clone(), clock.clone());

    // four relation families → four shards; staggered deadlines
    let mut f0 = co
        .submit_sql_async_with(
            "a",
            &pair_sql_on("Res0", "A", "GhostA"),
            SubmitOptions::with_deadline(50),
        )
        .unwrap();
    let mut f1 = match co
        .submit_sql_with(
            "b",
            &pair_sql_on("Res1", "B", "GhostB"),
            SubmitOptions::with_deadline(80),
        )
        .unwrap()
    {
        Submission::Pending(f) => f,
        Submission::Answered(_) => panic!("no partner: must pend"),
    };
    let mut f2 = co
        .submit_sql_async_with(
            "c",
            &pair_sql_on("Res2", "C", "GhostC"),
            SubmitOptions::with_deadline(200),
        )
        .unwrap();
    co.submit_sql("d", &pair_sql_on("Res3", "D", "GhostD"))
        .unwrap(); // immortal
    assert_eq!(co.next_deadline(), Some(50));

    clock.advance(100); // t=100: f0 and f1 are due, f2 is not
    assert_eq!(
        f0.wait_timeout(Duration::from_secs(10)),
        Some(CoordinationOutcome::Expired)
    );
    assert_eq!(
        f1.wait_timeout(Duration::from_secs(10)),
        Some(CoordinationOutcome::Expired)
    );
    assert!(!f2.is_complete(), "t=100 < 200: not due");

    clock.advance(100); // t=200: f2 due
    assert_eq!(
        f2.wait_timeout(Duration::from_secs(10)),
        Some(CoordinationOutcome::Expired)
    );
    // the waiter wakes under the shard lock; the pending and deadline
    // gauges are published when the sweep releases it, before the
    // sweeper counts the sweep
    assert!(eventually(|| sweeper.swept() == 3));
    assert_eq!(co.pending_count(), 1, "the deadline-less query survives");
    assert_eq!(co.next_deadline(), None);
    co.check_routing_invariants().unwrap();
    sweeper.shutdown();
}

/// One round of the expiry-vs-match race, abstracted over the
/// coordinator: `L` holds a due deadline; one thread sweeps while
/// another submits the completing partner. Exactly one terminal
/// outcome must reach `L`'s future, consistent with the end state.
fn race_future_once<F, S, E, P>(submit_async: F, submit_sync: S, expire: E, pending: P, round: u64)
where
    F: Fn() -> youtopia::CoordinationFuture,
    S: Fn() + Sync,
    E: Fn() -> Vec<youtopia::QueryId> + Sync,
    P: Fn() -> usize,
{
    let mut future = submit_async();
    let expired = std::thread::scope(|scope| {
        let sweeper = scope.spawn(&expire);
        let partner = scope.spawn(&submit_sync);
        partner.join().expect("partner thread");
        sweeper.join().expect("sweep thread")
    });

    let outcome = future
        .wait_timeout(Duration::from_secs(10))
        .expect("the race must terminate the waiter either way");
    assert!(
        future.try_take().is_none(),
        "outcome delivered exactly once"
    );
    if expired.is_empty() {
        // match won: both queries answered, nothing pending
        assert!(
            matches!(outcome, CoordinationOutcome::Answered(_)),
            "no expiry logged → the waiter got the answer (round {round})"
        );
        assert_eq!(pending(), 0, "round {round}");
    } else {
        // expiry won: the partner found nobody and stays pending
        assert_eq!(
            outcome,
            CoordinationOutcome::Expired,
            "expiry logged → the waiter saw Expired (round {round})"
        );
        assert_eq!(pending(), 1, "round {round}");
    }
}

/// Regression: a deadline expiry racing a match commit on the same
/// query delivers **exactly one** terminal outcome to the parked
/// future — `Expired` xor `Answered`, each consistent with the
/// registry's end state — at one shard and at four.
#[test]
fn expiry_racing_match_delivers_one_outcome_to_future() {
    for round in 0..20u64 {
        let co = Coordinator::new(flights_db());
        race_future_once(
            || {
                co.submit_sql_async_with(
                    "l",
                    &pair_sql_on("Res", "L", "R"),
                    SubmitOptions::with_deadline(10),
                )
                .unwrap()
            },
            || {
                co.submit_sql("r", &pair_sql_on("Res", "R", "L")).unwrap();
            },
            || co.expire_due(10),
            || co.pending_count(),
            round,
        );
    }
    for round in 0..20u64 {
        let co = ShardedCoordinator::new(flights_db());
        race_future_once(
            || {
                co.submit_sql_async_with(
                    "l",
                    &pair_sql_on("Res", "L", "R"),
                    SubmitOptions::with_deadline(10),
                )
                .unwrap()
            },
            || {
                co.submit_sql("r", &pair_sql_on("Res", "R", "L")).unwrap();
            },
            || co.expire_due(10),
            || co.pending_count(),
            round,
        );
        co.check_routing_invariants().unwrap();
    }
}

/// Churning matched pairs past `CheckpointPolicy::max_wal_bytes`
/// triggers `checkpoint()` in-line, with no sweeper running; the log stays bounded, the
/// gauges surface through `stats()`, and recovery from the compacted
/// log reproduces the survivors (deadlines included).
#[test]
fn auto_checkpoint_bounds_the_wal_and_surfaces_gauges() {
    let clock = Arc::new(MockClock::new(1_000));
    let db = Database::with_wal(Wal::in_memory());
    for sql in [
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris')",
    ] {
        run_sql(&db, sql).unwrap();
    }
    let config = ShardedConfig {
        checkpoint: CheckpointPolicy {
            max_wal_bytes: 8 * 1024,
            max_age_millis: 0,
        },
        ..ShardedConfig::default()
    };
    let co = ShardedCoordinator::with_clock(db.clone(), config, clock.clone());

    // a survivor with a deadline, then heavy matched churn
    co.submit_sql_with(
        "s",
        &pair_sql_on("Surv", "S", "Ghost"),
        SubmitOptions::with_deadline(999_999),
    )
    .unwrap();
    clock.advance(5_000);
    for p in 0..60 {
        co.submit_sql("l", &pair_sql_on("Res", &format!("L{p}"), &format!("R{p}")))
            .unwrap();
        co.submit_sql("r", &pair_sql_on("Res", &format!("R{p}"), &format!("L{p}")))
            .unwrap();
    }

    let stats = co.stats();
    assert!(
        stats.auto_checkpoints >= 1,
        "the byte threshold must have fired (wal={} since={})",
        stats.wal_bytes,
        stats.wal_bytes_since_checkpoint
    );
    assert!(
        stats.wal_bytes_since_checkpoint < stats.wal_bytes || stats.wal_bytes_since_checkpoint == 0,
        "bytes-since-checkpoint is rebased by the checkpoint"
    );
    assert!(
        stats.checkpoint_age_millis <= 5_000,
        "age restarts at the checkpoint (got {})",
        stats.checkpoint_age_millis
    );

    // the same churn without auto-checkpointing grows a much larger log
    let control_db = Database::with_wal(Wal::in_memory());
    for sql in [
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris')",
    ] {
        run_sql(&control_db, sql).unwrap();
    }
    let control = ShardedCoordinator::new(control_db.clone());
    control
        .submit_sql_with(
            "s",
            &pair_sql_on("Surv", "S", "Ghost"),
            SubmitOptions::with_deadline(999_999),
        )
        .unwrap();
    for p in 0..60 {
        control
            .submit_sql("l", &pair_sql_on("Res", &format!("L{p}"), &format!("R{p}")))
            .unwrap();
        control
            .submit_sql("r", &pair_sql_on("Res", &format!("R{p}"), &format!("L{p}")))
            .unwrap();
    }
    assert!(
        stats.wal_bytes < control.stats().wal_bytes,
        "auto-checkpointing must bound the log ({} vs {})",
        stats.wal_bytes,
        control.stats().wal_bytes
    );

    // recovery from the compacted log: survivor + deadline intact
    let bytes = db.wal_bytes().unwrap();
    drop(co);
    let (co2, report) = ShardedCoordinator::recover_with(
        Wal::from_bytes(bytes),
        ShardedConfig::default(),
        None,
        Arc::new(MockClock::new(10_000)),
    )
    .unwrap();
    assert_eq!(report.restored_pending, 1);
    let snap = co2.pending_snapshot();
    assert_eq!(snap[0].owner, "s");
    assert_eq!(
        snap[0].deadline,
        Some(999_999),
        "the checkpointed frame carries the deadline through"
    );
    assert_eq!(co2.answers("Res").len(), 120, "answers replayed");
}

/// A deadline submitted through the batch path is logged, survives a
/// manual checkpoint, and expires at its instant after recovery.
#[test]
fn batch_deadlines_survive_checkpoint_and_recovery() {
    let clock = Arc::new(MockClock::new(0));
    let db = Database::with_wal(Wal::in_memory());
    for sql in [
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        "INSERT INTO Flights VALUES (122, 'Paris')",
    ] {
        run_sql(&db, sql).unwrap();
    }
    let co = ShardedCoordinator::with_clock(db.clone(), ShardedConfig::default(), clock.clone());
    let batch: Vec<_> = (0..6u64)
        .map(|i| {
            (
                format!("u{i}"),
                youtopia::compile_sql(&pair_sql_on(
                    &format!("Res{}", i % 3),
                    &format!("U{i}"),
                    "Nobody",
                )),
                SubmitOptions::with_deadline(100 + i * 10),
            )
        })
        .collect();
    for outcome in co.submit_batch_with(batch) {
        assert!(matches!(outcome, Ok(Submission::Pending(_))));
    }
    assert_eq!(co.next_deadline(), Some(100));
    co.checkpoint().unwrap();

    let bytes = db.wal_bytes().unwrap();
    drop(co);
    // recover at t=125: deadlines 100/110/120 lapsed while down
    let (co2, report) = ShardedCoordinator::recover_with(
        Wal::from_bytes(bytes),
        ShardedConfig::default(),
        None,
        Arc::new(MockClock::new(125)),
    )
    .unwrap();
    assert_eq!(report.restored_pending, 6);
    assert_eq!(report.expired_at_recovery, 3);
    assert_eq!(co2.pending_count(), 3);
    assert_eq!(co2.next_deadline(), Some(130));
    // the remaining three expire in deadline order
    assert_eq!(co2.expire_due(140).len(), 2);
    assert_eq!(co2.expire_due(u64::MAX).len(), 1);
    assert_eq!(co2.pending_count(), 0);
    co2.check_routing_invariants().unwrap();
}
