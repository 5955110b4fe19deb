//! E9 — the `CHOOSE 1` nondeterminism experiment: the distribution of
//! the coordinated choice over repeated runs must be non-degenerate
//! (several eligible flights actually get chosen), every choice must be
//! eligible, and each query receives exactly one answer.

use std::collections::HashMap;

use youtopia::{run_sql, Coordinator, CoordinatorConfig, Database};

fn db_with_paris_flights(n: i64) -> Database {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    let rows: Vec<String> = (0..n).map(|i| format!("({i}, 'Paris')")).collect();
    run_sql(
        &db,
        &format!("INSERT INTO Flights VALUES {}", rows.join(", ")),
    )
    .unwrap();
    run_sql(&db, "INSERT INTO Flights VALUES (900, 'Rome')").unwrap();
    db
}

fn coordinated_choice(seed: u64, n: i64) -> i64 {
    let co = Coordinator::with_config(
        db_with_paris_flights(n),
        CoordinatorConfig {
            seed,
            ..Default::default()
        },
    );
    co.submit_sql(
        "a",
        "SELECT 'A', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('B', fno) IN ANSWER R CHOOSE 1",
    )
    .unwrap();
    let n = co
        .submit_sql(
            "b",
            "SELECT 'B', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('A', fno) IN ANSWER R CHOOSE 1",
        )
        .unwrap()
        .answered()
        .expect("pair matches");
    assert_eq!(n.answers.len(), 1, "exactly one answer tuple per query");
    n.answers[0].1.values()[1].as_int().unwrap()
}

#[test]
fn choices_are_spread_over_the_eligible_domain() {
    let domain = 8i64;
    let runs = 200u64;
    let mut histogram: HashMap<i64, usize> = HashMap::new();
    for seed in 0..runs {
        let fno = coordinated_choice(seed, domain);
        assert!(
            (0..domain).contains(&fno),
            "only Paris flights are eligible"
        );
        *histogram.entry(fno).or_default() += 1;
    }
    // Non-degeneracy: with 200 runs over 8 flights, a uniform-ish choice
    // touches well more than half the domain; require at least 4.
    assert!(
        histogram.len() >= 4,
        "expected a spread-out choice distribution, got {histogram:?}"
    );
    // No single flight should absorb (almost) everything.
    let max = histogram.values().max().copied().unwrap_or(0);
    assert!(
        max < runs as usize * 3 / 4,
        "choice distribution is degenerate: {histogram:?}"
    );
}

#[test]
fn same_seed_is_reproducible() {
    let a = coordinated_choice(12345, 8);
    let b = coordinated_choice(12345, 8);
    assert_eq!(a, b, "a seeded coordinator makes deterministic choices");
}

#[test]
fn singleton_choice_is_also_nondeterministic() {
    let mut seen = std::collections::HashSet::new();
    for seed in 0..64 {
        let co = Coordinator::with_config(
            db_with_paris_flights(6),
            CoordinatorConfig {
                seed,
                ..Default::default()
            },
        );
        let n = co
            .submit_sql(
                "solo",
                "SELECT 'solo', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') CHOOSE 1",
            )
            .unwrap()
            .answered()
            .unwrap();
        seen.insert(n.answers[0].1.values()[1].as_int().unwrap());
    }
    assert!(
        seen.len() >= 3,
        "singleton grounding also randomizes: {seen:?}"
    );
}

#[test]
fn randomize_off_is_deterministic_across_seeds() {
    use youtopia::core::MatchConfig;
    let mut seen = std::collections::HashSet::new();
    for seed in 0..16 {
        let config = CoordinatorConfig {
            seed,
            match_config: MatchConfig {
                randomize: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let co = Coordinator::with_config(db_with_paris_flights(6), config);
        let n = co
            .submit_sql(
                "solo",
                "SELECT 'solo', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') CHOOSE 1",
            )
            .unwrap()
            .answered()
            .unwrap();
        seen.insert(n.answers[0].1.values()[1].as_int().unwrap());
    }
    assert_eq!(
        seen.len(),
        1,
        "with randomize=false the choice is fixed: {seen:?}"
    );
}

/// Today's `CHOOSE 1` distribution is uniform per *decision*, not over
/// the valid groundings. Flight 1 has one hotel and flight 2 has nine,
/// so the ten valid `(flight, hotel)` groundings would give flight 1 a
/// share of 0.1 if sampled uniformly; the fail-first membership (the
/// two Paris flights) is drawn first, so each flight gets half. The
/// bound is 5σ of a binomial at p = 0.5.
#[test]
fn choose_is_uniform_per_decision_not_per_grounding() {
    let flights_and_hotels = || {
        let db = Database::new();
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
            "INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris'), (3, 'Rome')",
            "CREATE TABLE Hotels (hid INT PRIMARY KEY, fno INT)",
            "INSERT INTO Hotels VALUES (10, 1), (20, 2), (21, 2), (22, 2), (23, 2), (24, 2), \
             (25, 2), (26, 2), (27, 2), (28, 2)",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    };
    let seeds = 2_000u64;
    let mut first = 0u64;
    for seed in 0..seeds {
        let co = Coordinator::with_config(
            flights_and_hotels(),
            CoordinatorConfig {
                seed,
                ..Default::default()
            },
        );
        let n = co
            .submit_sql(
                "solo",
                "SELECT 'solo', f, h INTO ANSWER R \
                 WHERE f IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND (f, h) IN (SELECT fno, hid FROM Hotels) CHOOSE 1",
            )
            .unwrap()
            .answered()
            .expect("a self-contained query answers on arrival");
        let values = n.answers[0].1.values();
        let (f, h) = (values[1].as_int().unwrap(), values[2].as_int().unwrap());
        assert!(
            (f == 1 && h == 10) || (f == 2 && (20..=28).contains(&h)),
            "only valid groundings are chosen: ({f}, {h})"
        );
        first += u64::from(f == 1);
    }
    let share = first as f64 / seeds as f64;
    let sigma = (0.25 / seeds as f64).sqrt();
    assert!(
        (share - 0.5).abs() <= 5.0 * sigma,
        "flight 1 share {share:.3}, expected 0.5 ± {:.3}",
        5.0 * sigma
    );
}
