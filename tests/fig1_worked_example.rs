//! E1 — the paper's worked example (Section 2.1, Figure 1), verified
//! exactly: the Kramer/Jerry queries over the four-flight database must
//! coordinate on one of the Paris flights (122, 123, 134) and never on
//! Rome's 136; both users receive the same flight number; the answer
//! relation satisfies both postconditions.

use youtopia::{run_sql, Coordinator, Database, StatementOutcome, Submission};

fn fig1_database() -> Database {
    let db = Database::new();
    for sql in [
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), \
         (136, 'Rome')",
        "CREATE TABLE Airlines (fno INT PRIMARY KEY, airline STRING NOT NULL)",
        "INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), (134, 'Lufthansa'), \
         (136, 'Alitalia')",
    ] {
        run_sql(&db, sql).unwrap();
    }
    db
}

const KRAMER: &str = "SELECT 'Kramer', fno INTO ANSWER Reservation \
     WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
     AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1";

const JERRY: &str = "SELECT 'Jerry', fno INTO ANSWER Reservation \
     WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
     AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1";

#[test]
fn kramer_alone_is_registered_not_rejected() {
    let co = Coordinator::new(fig1_database());
    // "Clearly, if this query is evaluated by itself, the answer
    //  constraint cannot be satisfied. However, the query is not
    //  rejected, but rather gets registered in the system."
    let sub = co.submit_sql("kramer", KRAMER).unwrap();
    assert!(matches!(sub, Submission::Pending(_)));
    assert_eq!(co.pending_count(), 1);
    assert!(co.answers("Reservation").is_empty());
}

#[test]
fn symmetric_queries_answer_jointly_with_shared_fno() {
    let co = Coordinator::new(fig1_database());
    let Submission::Pending(mut kramer) = co.submit_sql("kramer", KRAMER).unwrap() else {
        panic!("kramer waits");
    };
    let jerry = co
        .submit_sql("jerry", JERRY)
        .unwrap()
        .answered()
        .expect("joint answer");
    let kramer = kramer
        .try_take()
        .and_then(|outcome| outcome.answered())
        .expect("kramer notified");

    let j_fno = jerry.answers[0].1.values()[1].as_int().unwrap();
    let k_fno = kramer.answers[0].1.values()[1].as_int().unwrap();
    assert_eq!(j_fno, k_fno, "coordinated flight number choice");
    assert!([122, 123, 134].contains(&j_fno), "a Paris flight");
    assert_ne!(j_fno, 136, "never Rome's flight");
    assert_eq!(jerry.answers[0].1.values()[0].as_str(), Some("Jerry"));
    assert_eq!(kramer.answers[0].1.values()[0].as_str(), Some("Kramer"));
}

#[test]
fn figure_1b_mutual_constraint_satisfaction_in_the_answer_relation() {
    let co = Coordinator::new(fig1_database());
    co.submit_sql("kramer", KRAMER).unwrap();
    co.submit_sql("jerry", JERRY).unwrap();

    // Figure 1(b): R('Kramer', f) and R('Jerry', f) both present, with
    // the same f — each tuple satisfies the other query's constraint.
    let answers = co.answers("Reservation");
    assert_eq!(answers.len(), 2);
    let find = |name: &str| {
        answers
            .iter()
            .find(|t| t.values()[0].as_str() == Some(name))
            .unwrap_or_else(|| panic!("{name} has an answer"))
            .values()[1]
            .clone()
    };
    assert_eq!(find("Kramer"), find("Jerry"));
}

#[test]
fn each_query_receives_exactly_one_answer_tuple() {
    // "each query only receives one answer tuple, as indicated by the
    //  CHOOSE 1 clause"
    let co = Coordinator::new(fig1_database());
    co.submit_sql("kramer", KRAMER).unwrap();
    let jerry = co.submit_sql("jerry", JERRY).unwrap().answered().unwrap();
    assert_eq!(jerry.answers.len(), 1);
    assert_eq!(co.answers("Reservation").len(), 2); // one per query
}

#[test]
fn the_answer_relation_is_queryable_with_plain_sql() {
    let co = Coordinator::new(fig1_database());
    co.submit_sql("kramer", KRAMER).unwrap();
    co.submit_sql("jerry", JERRY).unwrap();
    let StatementOutcome::Rows(rs) = run_sql(
        co.db(),
        "SELECT COUNT(*) FROM Reservation r JOIN Flights f ON r.c1 = f.fno \
         WHERE f.dest = 'Paris'",
    )
    .unwrap() else {
        panic!()
    };
    assert_eq!(rs.rows[0].values()[0].as_int(), Some(2));
}

#[test]
fn nondeterministic_choice_covers_multiple_flights() {
    // "the system nondeterministically chooses either flight 122 or 123"
    // (or 134 with our seat-agnostic Figure 1 data): across seeds, more
    // than one flight must be chosen, and only Paris flights ever.
    let mut seen = std::collections::HashSet::new();
    for seed in 0..48u64 {
        let config = youtopia::CoordinatorConfig {
            seed,
            ..Default::default()
        };
        let co = Coordinator::with_config(fig1_database(), config);
        co.submit_sql("kramer", KRAMER).unwrap();
        let jerry = co.submit_sql("jerry", JERRY).unwrap().answered().unwrap();
        let fno = jerry.answers[0].1.values()[1].as_int().unwrap();
        assert!([122, 123, 134].contains(&fno));
        seen.insert(fno);
    }
    assert!(
        seen.len() >= 2,
        "CHOOSE 1 must be nondeterministic, saw only {seen:?}"
    );
}
