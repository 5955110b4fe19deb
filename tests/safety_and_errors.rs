//! Failure-path sweep through the public API: every rejection and
//! error the system can produce should be precise, non-destructive
//! (no partial state) and recoverable.

use youtopia::core::{CoreError, SafetyMode};
use youtopia::travel::{TravelError, TravelService};
use youtopia::{
    run_sql, CoordinationFuture, CoordinationOutcome, Coordinator, CoordinatorConfig, Database,
    Submission,
};

fn db() -> Database {
    let d = Database::new();
    run_sql(
        &d,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(&d, "INSERT INTO Flights VALUES (1, 'Paris')").unwrap();
    d
}

#[test]
fn every_safety_rejection_names_the_variable() {
    let co = Coordinator::new(db());
    let cases = [
        // head-only variable
        ("SELECT 'X', ghost INTO ANSWER R CHOOSE 1", "?ghost"),
        // filter-only variable
        (
            "SELECT 'X', a INTO ANSWER R WHERE a IN (SELECT fno FROM Flights) AND b < 1 CHOOSE 1",
            "?b",
        ),
        // negated membership does not restrict
        (
            "SELECT 'X', a INTO ANSWER R WHERE a NOT IN (SELECT fno FROM Flights) CHOOSE 1",
            "?a",
        ),
        // negated constraint does not restrict
        (
            "SELECT 'X', a INTO ANSWER R WHERE ('Y', a) NOT IN ANSWER R CHOOSE 1",
            "?a",
        ),
    ];
    for (sql, var) in cases {
        match co.submit_sql("u", sql) {
            Err(CoreError::Unsafe(msg)) => {
                assert!(msg.contains(var), "'{sql}' error should name {var}: {msg}")
            }
            other => panic!("'{sql}' should be unsafe, got {other:?}"),
        }
    }
    assert_eq!(co.pending_count(), 0, "rejected queries leave no state");
    assert_eq!(co.stats().rejected_unsafe, cases.len() as u64);
}

#[test]
fn strict_mode_is_stricter_than_relaxed() {
    let relaxed_only = "SELECT 'K', fno INTO ANSWER R WHERE ('J', fno) IN ANSWER R CHOOSE 1";
    let relaxed = Coordinator::new(db());
    assert!(relaxed.submit_sql("k", relaxed_only).is_ok());

    let strict = Coordinator::with_config(
        db(),
        CoordinatorConfig {
            safety: SafetyMode::Strict,
            ..Default::default()
        },
    );
    assert!(matches!(
        strict.submit_sql("k", relaxed_only),
        Err(CoreError::Unsafe(_))
    ));
}

#[test]
fn compile_rejections_are_precise() {
    let co = Coordinator::new(db());
    let cases = [
        ("SELECT 1", "not an entangled query"),
        ("SELECT 'X', a INTO ANSWER R CHOOSE 2", "CHOOSE 2"),
        ("SELECT t.a INTO ANSWER R CHOOSE 1", "t.a"),
        ("SELECT a + 1 INTO ANSWER R CHOOSE 1", "constants and"),
        (
            "SELECT 'X', a INTO ANSWER R WHERE a = 1 OR ('Y', a) IN ANSWER R CHOOSE 1",
            "top-level",
        ),
    ];
    for (sql, needle) in cases {
        let err = co.submit_sql("u", sql).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "'{sql}': expected '{needle}' in '{msg}'"
        );
    }
}

#[test]
fn parse_errors_carry_positions_through_the_coordinator() {
    let co = Coordinator::new(db());
    let err = co
        .submit_sql("u", "SELECT 'X',\n  INTO ANSWER")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
}

#[test]
fn travel_service_gates_are_enforced_in_order() {
    let s = TravelService::bootstrap_demo().unwrap();
    s.social().register("alone").unwrap();
    // unknown user first
    assert!(matches!(
        s.coordinate_flight("ghost", "alone", "Paris", Default::default()),
        Err(TravelError::UnknownUser(_))
    ));
    // then unknown friend
    assert!(matches!(
        s.coordinate_flight("alone", "ghost", "Paris", Default::default()),
        Err(TravelError::UnknownUser(_))
    ));
    // then non-friendship
    s.social().register("stranger").unwrap();
    assert!(matches!(
        s.coordinate_flight("alone", "stranger", "Paris", Default::default()),
        Err(TravelError::NotFriends { .. })
    ));
}

#[test]
fn inventory_conflicts_roll_back_the_whole_match() {
    // Force a seat conflict: the match grounds against a snapshot, then
    // the hook finds no seats left. Everything must roll back; the pair
    // stays pending; retrying later succeeds once inventory returns.
    let s = TravelService::bootstrap_demo().unwrap();
    s.social().import_friends("a", &["b"]).unwrap();
    // drain flight capacity below the pair's membership threshold
    // *after* checking what the pair would need: set every Paris flight
    // to exactly 2 seats, then have the hook race by booking directly
    run_sql(s.db(), "UPDATE Flights SET seats = 2 WHERE dest = 'Paris'").unwrap();
    s.coordinate_flight("a", "b", "Paris", Default::default())
        .unwrap();
    // a direct booking eats one seat from every flight's worth? No —
    // direct booking takes one specific flight; the pair may pick
    // another. Instead drop all seats to 1: membership (seats >= 2)
    // now excludes everything, so the closing query stays pending.
    run_sql(s.db(), "UPDATE Flights SET seats = 1 WHERE dest = 'Paris'").unwrap();
    let out = s
        .coordinate_flight("b", "a", "Paris", Default::default())
        .unwrap();
    assert!(!out.is_confirmed(), "no flight can host both");
    assert!(s.coordinator().pending_count() >= 2);
    // inventory returns: a retry sweep answers the pair
    run_sql(s.db(), "UPDATE Flights SET seats = 5 WHERE dest = 'Paris'").unwrap();
    assert_eq!(s.retry_pending().unwrap(), 2);
}

#[test]
fn cascade_does_not_mask_apply_failures_forever() {
    // A match whose hook always fails keeps the group pending without
    // poisoning later submissions: the arrival gets a pending handle,
    // and the answer reaches it once the hook heals.
    let d = db();
    let co = Coordinator::new(d.clone());
    co.set_apply_hook(std::sync::Arc::new(|_, _| {
        Err(youtopia::storage::StorageError::Internal(
            "always fails".into(),
        ))
    }));
    let mut solo = pending(co.submit_sql(
        "solo",
        "SELECT 'S', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
    ));
    assert_eq!(co.pending_count(), 1);
    assert!(co.answers("R").is_empty());
    assert!(solo.try_take().is_none());
    // healing the hook and retrying succeeds
    co.set_apply_hook(std::sync::Arc::new(|_, _| Ok(())));
    assert_eq!(co.retry_all().unwrap().len(), 1);
    assert_eq!(co.pending_count(), 0);
    assert_answered(&mut solo);
}

/// The handle of a submission that must still be pending.
fn pending(submission: youtopia::core::CoreResult<Submission>) -> CoordinationFuture {
    match submission.expect("the query is safe") {
        Submission::Pending(future) => future,
        Submission::Answered(n) => panic!("answered on arrival: {n:?}"),
    }
}

/// `future` holds an answer (taking it).
fn assert_answered(future: &mut CoordinationFuture) {
    match future.try_take() {
        Some(CoordinationOutcome::Answered(_)) => {}
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn unknown_query_operations_fail_cleanly() {
    let co = Coordinator::new(db());
    assert!(matches!(
        co.cancel(youtopia::QueryId(42)),
        Err(CoreError::UnknownQuery(42))
    ));
    assert_eq!(co.cancel_owner("nobody"), 0);
    assert!(co.expire_before(u64::MAX).is_empty());
}

#[test]
fn answer_relation_arity_conflicts_surface_as_storage_errors() {
    // the app pre-created R with arity 3; a 2-ary entangled head cannot
    // be applied — the storage error rolls the match back, and the query
    // stays pending with its handle until the schema is fixed
    let d = db();
    run_sql(&d, "CREATE TABLE R (a STRING, b INT, c INT)").unwrap();
    let co = Coordinator::new(d.clone());
    let mut solo = pending(co.submit_sql(
        "solo",
        "SELECT 'S', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
    ));
    assert_eq!(
        co.pending_count(),
        1,
        "the query survives to retry after a fix"
    );
    assert!(co.answers("R").is_empty());
    assert!(solo.try_take().is_none());
    run_sql(&d, "DROP TABLE R").unwrap();
    assert_eq!(co.retry_all().unwrap().len(), 1);
    assert_answered(&mut solo);
    assert_eq!(co.answers("R").len(), 1);
}
