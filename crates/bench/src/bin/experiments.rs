//! The experiment runner: runs every experiment (E1–E10) and prints
//! its table.
//!
//! Run with: `cargo run --release -p youtopia-bench --bin experiments`
//!
//! This is the one printing surface of the paper's experiments; its
//! own output is their record. Each claim is asserted on work counters
//! by a test in `youtopia-bench`'s library (`docs/matching.md`, "Paper
//! experiments").

use std::collections::HashMap;
use std::time::Instant;

use youtopia_bench::preload_noise;
use youtopia_core::{Coordinator, CoordinatorConfig, MatchConfig, MatcherKind, Submission};
use youtopia_exec::run_sql;
use youtopia_storage::Database;
use youtopia_travel::{FlightPrefs, TravelService, WorkloadGen};

fn main() {
    println!("Youtopia experiment runner — experiments E1-E10\n");
    e1_fig1_worked_example();
    e2_pair_scenario();
    e3_constraint_complexity();
    e4_simultaneous_pairs();
    e5_group_size();
    e6_adhoc();
    e7_loaded_system();
    e8_admin_surface();
    e9_choose_distribution();
    e10_fail_first();
    println!("\nAll experiments completed.");
}

fn fig1_db() -> Database {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(
        &db,
        "INSERT INTO Flights VALUES (122,'Paris'),(123,'Paris'),(134,'Paris'),(136,'Rome')",
    )
    .unwrap();
    db
}

fn pair_sql(me: &str, friend: &str) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
    )
}

/// Mean milliseconds of `f` over `trials` runs (each run gets fresh
/// state from `setup`).
fn mean_ms<S>(trials: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let mut total = 0.0;
    for _ in 0..trials {
        let state = setup();
        let t = Instant::now();
        f(state);
        total += t.elapsed().as_secs_f64();
    }
    total * 1e3 / trials as f64
}

// ---------------------------------------------------------------------- //

fn e1_fig1_worked_example() {
    println!("== E1: Figure 1 worked example (correctness) ==");
    let mut histogram: HashMap<i64, usize> = HashMap::new();
    let runs = 300u64;
    for seed in 0..runs {
        let co = Coordinator::with_config(
            fig1_db(),
            CoordinatorConfig {
                seed,
                ..Default::default()
            },
        );
        co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        let jerry = co
            .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
            .unwrap()
            .answered()
            .expect("pair matches");
        let fno = jerry.answers[0].1.values()[1].as_int().unwrap();
        assert!([122, 123, 134].contains(&fno), "only Paris flights");
        *histogram.entry(fno).or_default() += 1;
    }
    let mut flights: Vec<_> = histogram.into_iter().collect();
    flights.sort();
    println!("  {runs} runs; coordinated flight distribution (never 136/Rome):");
    for (fno, count) in flights {
        println!("    flight {fno}: {count}");
    }
    println!();
}

fn e2_pair_scenario() {
    println!("== E2: book-a-flight-with-a-friend through the middle tier ==");
    let ms = mean_ms(
        30,
        || {
            let s = TravelService::bootstrap_demo().unwrap();
            s.social().import_friends("jerry", &["kramer"]).unwrap();
            s.coordinate_flight("jerry", "kramer", "Paris", FlightPrefs::default())
                .unwrap();
            s
        },
        |s| {
            let out = s
                .coordinate_flight("kramer", "jerry", "Paris", FlightPrefs::default())
                .unwrap();
            assert!(out.is_confirmed());
        },
    );
    println!("  closing submission latency (parse->match->apply->notify): {ms:.3} ms\n");
}

fn e3_constraint_complexity() {
    println!("== E3: constraints per query (flight+hotel generalized) ==");
    println!("  {:>12} | {:>10}", "constraints", "ms/close");
    for extra in [0usize, 1, 2, 4, 8] {
        let ms = mean_ms(
            20,
            || {
                let mut gen = WorkloadGen::new(19);
                let db = gen.build_database(100, &["Paris"]).unwrap();
                let co = Coordinator::with_config(db, CoordinatorConfig::default());
                let first = WorkloadGen::pair_with_constraint_count("a", "b", "Paris", extra);
                co.submit_sql(&first.owner, &first.sql).unwrap();
                (
                    co,
                    WorkloadGen::pair_with_constraint_count("b", "a", "Paris", extra),
                )
            },
            |(co, closing)| {
                let sub = co.submit_sql(&closing.owner, &closing.sql).unwrap();
                assert!(matches!(sub, Submission::Answered(_)));
            },
        );
        println!("  {:>12} | {ms:>10.3}", 1 + extra);
    }
    println!();
}

fn e4_simultaneous_pairs() {
    println!("== E4: multiple simultaneous bookings (throughput) ==");
    println!(
        "  {:>6} | {:>12} | {:>14}",
        "pairs", "total ms", "submissions/s"
    );
    for pairs in [10usize, 50, 100, 200] {
        let ms = mean_ms(
            5,
            || {
                let mut gen = WorkloadGen::new(17);
                let db = gen.build_database(100, &["Paris"]).unwrap();
                let co = Coordinator::with_config(db, CoordinatorConfig::default());
                let reqs = gen.pair_storm(pairs, "Paris");
                (co, reqs)
            },
            |(co, reqs)| {
                let (answered, pending) = youtopia_bench::submit_all(&co, &reqs);
                assert_eq!(answered, pairs);
                assert_eq!(pending, pairs);
                assert_eq!(co.pending_count(), 0);
            },
        );
        let per_sec = (2 * pairs) as f64 / (ms / 1e3);
        println!("  {pairs:>6} | {ms:>12.2} | {per_sec:>14.0}");
    }
    println!();
}

fn e5_group_size() {
    println!("== E5: group flight booking (close latency vs group size) ==");
    println!("  {:>6} | {:>10}", "size", "ms/close");
    for size in [2usize, 3, 4, 6, 8, 12, 16] {
        let ms = mean_ms(
            10,
            || {
                let mut gen = WorkloadGen::new(13);
                let db = gen.build_database(100, &["Paris"]).unwrap();
                let co = Coordinator::with_config(db, CoordinatorConfig::default());
                let mut reqs = gen.group(0, size, "Paris");
                let closing = reqs.pop().unwrap();
                for r in &reqs {
                    co.submit_sql(&r.owner, &r.sql).unwrap();
                }
                (co, closing)
            },
            |(co, closing)| {
                let sub = co.submit_sql(&closing.owner, &closing.sql).unwrap();
                assert!(matches!(sub, Submission::Answered(_)));
            },
        );
        println!("  {size:>6} | {ms:>10.3}");
    }
    println!();
}

fn e6_adhoc() {
    println!("== E6: ad-hoc asymmetric coordination (correctness) ==");
    let s = TravelService::bootstrap_demo().unwrap();
    s.social()
        .import_friends("jerry", &["kramer", "elaine"])
        .unwrap();
    s.social().import_friends("kramer", &["elaine"]).unwrap();
    let jerry = "SELECT 'jerry', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris' AND seats >= 3) \
         AND ('kramer', fno) IN ANSWER Reservation CHOOSE 1";
    let kramer = "SELECT 'kramer', fno INTO ANSWER Reservation, \
         'kramer', hid INTO ANSWER HotelReservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris' AND seats >= 3) \
         AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris' AND rooms >= 2) \
         AND ('jerry', fno) IN ANSWER Reservation \
         AND ('elaine', hid) IN ANSWER HotelReservation CHOOSE 1";
    let elaine = "SELECT 'elaine', fno INTO ANSWER Reservation, \
         'elaine', hid INTO ANSWER HotelReservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris' AND seats >= 3) \
         AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris' AND rooms >= 2) \
         AND ('kramer', fno) IN ANSWER Reservation \
         AND ('kramer', hid) IN ANSWER HotelReservation CHOOSE 1";
    s.coordinate_custom("jerry", jerry).unwrap();
    s.coordinate_custom("kramer", kramer).unwrap();
    assert!(s
        .coordinate_custom("elaine", elaine)
        .unwrap()
        .is_confirmed());
    let j = s.account_view("jerry").unwrap();
    let k = s.account_view("kramer").unwrap();
    let e = s.account_view("elaine").unwrap();
    assert_eq!(j.flights, k.flights);
    assert_eq!(k.hotels, e.hotels);
    assert!(j.hotels.is_empty());
    println!(
        "  three-way group resolved in one match: jerry+kramer flight {:?}, \
         kramer+elaine hotel {:?} (jerry booked no hotel)\n",
        j.flights, k.hotels
    );
}

fn e7_loaded_system() {
    println!("== E7: loaded system — submission latency vs standing pending load ==");
    println!(
        "  'match' = arrival that closes a pair; 'no-match' = arrival that stays \
         pending\n  (the common case on a loaded system, and where the naive \
         algorithm pays)\n"
    );
    println!(
        "  {:>8} | {:>11} {:>11} | {:>11} {:>11}",
        "pending", "idx match", "idx nomatch", "nv match", "nv nomatch"
    );
    for noise in [0usize, 10, 50, 100, 500, 1000, 2000] {
        let trials = if noise >= 500 { 3 } else { 5 };
        // returns (pair-close ms, unmatched-arrival ms)
        let run = |matcher: MatcherKind| -> (f64, f64) {
            let mut close_total = 0.0;
            let mut nomatch_total = 0.0;
            for trial in 0..trials {
                let mut gen = WorkloadGen::new(7 + trial as u64);
                let db = gen.build_database(200, &["Paris", "Rome"]).unwrap();
                // group bound 3: at the default bound of 16 the naive
                // baseline's unmatched arrivals never terminate.
                let co = Coordinator::with_config(
                    db,
                    CoordinatorConfig {
                        matcher,
                        match_config: MatchConfig {
                            max_group_size: 3,
                            ..MatchConfig::default()
                        },
                        ..Default::default()
                    },
                );
                preload_noise(&co, &mut gen, noise, "Paris");
                let first = WorkloadGen::pair_request("probeA", "probeB", "Paris");
                co.submit_sql(&first.owner, &first.sql).unwrap();

                let closing = WorkloadGen::pair_request("probeB", "probeA", "Paris");
                let t = Instant::now();
                let sub = co.submit_sql(&closing.owner, &closing.sql).unwrap();
                close_total += t.elapsed().as_secs_f64();
                assert!(matches!(sub, Submission::Answered(_)));

                let lonely = WorkloadGen::pair_request("lonely", "nobody", "Paris");
                let t = Instant::now();
                let sub = co.submit_sql(&lonely.owner, &lonely.sql).unwrap();
                nomatch_total += t.elapsed().as_secs_f64();
                assert!(matches!(sub, Submission::Pending(_)));
            }
            (
                close_total * 1e3 / trials as f64,
                nomatch_total * 1e3 / trials as f64,
            )
        };
        let (im, inm) = run(MatcherKind::Incremental);
        if noise <= 500 {
            let (nm, nnm) = run(MatcherKind::Naive);
            println!("  {noise:>8} | {im:>11.3} {inm:>11.3} | {nm:>11.3} {nnm:>11.3}");
        } else {
            println!(
                "  {noise:>8} | {im:>11.3} {inm:>11.3} | {:>11} {:>11}",
                "(skipped)", ""
            );
        }
    }
    println!(
        "  (naive runs with its group bound lowered to 3 and is still skipped above \
         500 pending;\n   at the default bound of 16 its no-match arrivals do not \
         terminate at all)\n"
    );
}

fn e8_admin_surface() {
    println!("== E8: SQL command line + admin state inspection ==");
    use youtopia_travel::AdminConsole;
    let s = TravelService::bootstrap_demo().unwrap();
    let console = AdminConsole::new(s.db().clone(), s.coordinator().clone());
    console.execute_as("kramer", &pair_sql("Kramer", "Jerry"));
    let pending = console.execute("SHOW PENDING");
    assert!(pending.contains("owner=kramer"));
    println!("{}", indent(&pending));
    console.execute_as("jerry", &pair_sql("Jerry", "Kramer"));
    println!("{}", indent(&console.execute("SELECT * FROM Reservation")));
    println!("{}\n", indent(&console.render_stats()));
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn e9_choose_distribution() {
    println!("== E9: CHOOSE 1 nondeterminism (distribution over 8 eligible flights) ==");
    let mut histogram: HashMap<i64, usize> = HashMap::new();
    let runs = 400;
    for seed in 0..runs {
        let db = Database::new();
        run_sql(
            &db,
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
        )
        .unwrap();
        let rows: Vec<String> = (0..8).map(|i| format!("({i}, 'Paris')")).collect();
        run_sql(
            &db,
            &format!("INSERT INTO Flights VALUES {}", rows.join(",")),
        )
        .unwrap();
        let co = Coordinator::with_config(
            db,
            CoordinatorConfig {
                seed,
                ..Default::default()
            },
        );
        co.submit_sql("a", &pair_sql("A", "B")).unwrap();
        let n = co
            .submit_sql("b", &pair_sql("B", "A"))
            .unwrap()
            .answered()
            .unwrap();
        *histogram
            .entry(n.answers[0].1.values()[1].as_int().unwrap())
            .or_default() += 1;
    }
    let mut entries: Vec<_> = histogram.iter().collect();
    entries.sort();
    let shown: Vec<String> = entries
        .iter()
        .map(|(fno, count)| format!("{fno}:{count}"))
        .collect();
    println!("  {runs} runs -> {}", shown.join(" "));
    println!(
        "  distinct flights chosen: {} of 8 (non-degenerate nondeterminism)\n",
        histogram.len()
    );
}

fn e10_fail_first() {
    println!("== E10: fail-first grounding (pair close on 200 standing pending) ==");
    println!(
        "  {:>22} | {:>10} | {:>14}",
        "instance", "ms/close", "rows_scanned"
    );
    let mut last_rows = 0u64;
    let ms = mean_ms(
        5,
        || {
            let mut gen = WorkloadGen::new(29);
            let db = gen.build_database(200, &["Paris"]).unwrap();
            let co = Coordinator::new(db);
            preload_noise(&co, &mut gen, 200, "Paris");
            let first = WorkloadGen::pair_request("probeA", "probeB", "Paris");
            co.submit_sql(&first.owner, &first.sql).unwrap();
            (co, WorkloadGen::pair_request("probeB", "probeA", "Paris"))
        },
        |(co, closing)| {
            let before = co.stats().match_work.rows_scanned;
            let sub = co.submit_sql(&closing.owner, &closing.sql).unwrap();
            assert!(matches!(sub, Submission::Answered(_)));
            last_rows = co.stats().match_work.rows_scanned - before;
        },
    );
    println!("  {:>22} | {ms:>10.3} | {last_rows:>14}", "pair");
    let mut rows = 0u64;
    let ms = mean_ms(
        5,
        || {
            let mut gen = WorkloadGen::new(13);
            let db = gen.build_database(100, &["Paris"]).unwrap();
            let co = Coordinator::new(db);
            let mut reqs = gen.group(0, 8, "Paris");
            let closing = reqs.pop().unwrap();
            for r in &reqs {
                co.submit_sql(&r.owner, &r.sql).unwrap();
            }
            (co, closing)
        },
        |(co, closing)| {
            let before = co.stats().match_work.rows_scanned;
            let sub = co.submit_sql(&closing.owner, &closing.sql).unwrap();
            assert!(matches!(sub, Submission::Answered(_)));
            rows = co.stats().match_work.rows_scanned - before;
        },
    );
    println!("  {:>22} | {ms:>10.3} | {rows:>14}", "group of 8");
    // The library test `forward_checking_pays_only_where_grounding_backtracks`
    // pins these rows and the backtracking instance's.
    println!(
        "  (nothing backtracks here, and the fail-first pick filters every \
         unassigned domain;\n   it pays where grounding backtracks: one flight of 100 \
         with all 50 hotels reads\n   400 rows per grounding, mean of 50 seeds)"
    );
    println!(
        "  (the candidate index's claim is E7's: its indexed curve stays flat at \
         10-100x\n   more pending queries)\n"
    );
}
