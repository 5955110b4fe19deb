//! Soak test: a randomized mixed workload (pair coordinations, group
//! bookings, direct bookings, cancellations, retries) driven through
//! the travel middle tier, with global invariants checked at the end:
//!
//! * seat inventory never goes negative and exactly accounts for the
//!   reservations that exist;
//! * every coordination that confirmed produced reservations for all
//!   members on one shared flight;
//! * the coordinator's accounting (submitted = answered + pending +
//!   cancelled) balances.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use youtopia::core::{CoreResult, EntangledQuery};
use youtopia::travel::{FlightPrefs, TravelService};
use youtopia::{compile_sql, run_sql, Ack, StatementOutcome, SubmitOptions};

/// `(owner, sql)` pairs as requests of `ShardedCoordinator::submit`,
/// with default options.
fn compiled(
    batch: &[(String, String)],
) -> Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)> {
    batch
        .iter()
        .map(|(owner, sql)| (owner.clone(), compile_sql(sql), SubmitOptions::default()))
        .collect()
}

fn seats_by_flight(s: &TravelService) -> std::collections::HashMap<i64, i64> {
    let StatementOutcome::Rows(rs) = run_sql(s.db(), "SELECT fno, seats FROM Flights").unwrap()
    else {
        panic!()
    };
    rs.rows
        .iter()
        .map(|r| {
            (
                r.values()[0].as_int().unwrap(),
                r.values()[1].as_int().unwrap(),
            )
        })
        .collect()
}

fn reservation_count(s: &TravelService) -> usize {
    let read = s.db().read();
    read.table("Reservation").unwrap().len()
}

#[test]
fn randomized_mixed_workload_preserves_invariants() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let s = TravelService::bootstrap_demo().unwrap();
    // plenty of inventory so the workload is about coordination, not
    // sell-outs
    run_sql(s.db(), "UPDATE Flights SET seats = 500").unwrap();

    // users u0..u19, all mutually befriended
    let users: Vec<String> = (0..20).map(|i| format!("u{i}")).collect();
    for u in &users {
        let others: Vec<&str> = users
            .iter()
            .filter(|o| *o != u)
            .map(String::as_str)
            .collect();
        s.social().import_friends(u, &others).unwrap();
    }

    let seats_before = seats_by_flight(&s);
    let mut cancelled = 0u64;

    for step in 0..300 {
        let action = rng.random_range(0..100);
        let a = users[rng.random_range(0..users.len())].clone();
        let b = loop {
            let b = users[rng.random_range(0..users.len())].clone();
            if b != a {
                break b;
            }
        };
        match action {
            // 0-54: pair coordination halves (random order means many
            // match eventually, some never)
            0..=54 => {
                let _ = s
                    .coordinate_flight(&a, &b, "Paris", FlightPrefs::default())
                    .unwrap();
            }
            // 55-69: direct bookings
            55..=69 => {
                let fno = [122i64, 123, 134, 301][rng.random_range(0..4usize)];
                s.book_direct(&a, fno).unwrap();
            }
            // 70-84: group attempts (trio)
            70..=84 => {
                let c = loop {
                    let c = users[rng.random_range(0..users.len())].clone();
                    if c != a && c != b {
                        break c;
                    }
                };
                let _ = s
                    .coordinate_group_flight(&a, &[&b, &c], "Paris", FlightPrefs::default())
                    .unwrap();
            }
            // 85-92: cancel one of the submitter's pending requests
            85..=92 => {
                let view = s.account_view(&a).unwrap();
                if let Some(&qid) = view.pending.first() {
                    s.cancel(&a, qid).unwrap();
                    cancelled += 1;
                }
            }
            // 93-99: retry sweep (simulates the background retrier)
            _ => {
                s.retry_pending();
            }
        }
        // cheap incremental invariant: no flight oversold
        if step % 50 == 49 {
            for (_, seats) in seats_by_flight(&s) {
                assert!(seats >= 0, "flight oversold at step {step}");
            }
        }
    }

    // ---- final invariants ------------------------------------------- //
    let seats_after = seats_by_flight(&s);
    let consumed: i64 = seats_before
        .iter()
        .map(|(fno, before)| before - seats_after.get(fno).copied().unwrap_or(0))
        .sum();
    assert!(consumed >= 0, "inventory can only shrink");
    assert_eq!(
        consumed as usize,
        reservation_count(&s),
        "every reservation consumed exactly one seat"
    );

    // coordinator accounting balances
    let stats = s.coordinator().stats();
    assert_eq!(
        stats.submitted,
        stats.answered + s.coordinator().pending_count() as u64 + cancelled,
        "submitted = answered + pending + cancelled"
    );

    // every reservation names a real flight and a registered user
    let read = s.db().read();
    let flights: std::collections::HashSet<i64> = read
        .table("Flights")
        .unwrap()
        .scan()
        .map(|(_, t)| t.values()[0].as_int().unwrap())
        .collect();
    for (_, t) in read.table("Reservation").unwrap().scan() {
        let traveler = t.values()[0].as_str().unwrap();
        let fno = t.values()[1].as_int().unwrap();
        assert!(
            flights.contains(&fno),
            "reservation on unknown flight {fno}"
        );
        assert!(
            users.iter().any(|u| u == traveler),
            "reservation for unknown user {traveler}"
        );
    }
    drop(read);

    // the system is quiescent: an explicit sweep finds nothing new
    assert_eq!(s.retry_pending(), 0, "no matchable residue");
}

/// Concurrency soak for the sharded coordinator: several threads
/// hammer batch `submit`s with interleaved halves of coordinating pairs
/// spread over multiple relation families, plus standing noise. At
/// quiescence:
///
/// * no deadlock (the test completes) and no lost notification — every
///   query the coordinator counts as answered delivered its
///   notification either inline or through its future;
/// * every committed answer tuple traces to exactly one group: answer
///   rows across all relations equal the total notified answers, with
///   no duplicate (owner, flight) rows;
/// * the routing invariants hold (each relation component lives on
///   exactly one shard, memberships accounted).
#[test]
fn sharded_submit_batch_concurrent_soak() {
    use std::sync::Mutex;

    use youtopia::core::MatchConfig;
    use youtopia::storage::Wal;
    use youtopia::travel::WorkloadGen;
    use youtopia::{
        CoordinatorConfig, MatchNotification, ShardedConfig, ShardedCoordinator, Submission,
    };

    const THREADS: usize = 4;
    const ROUNDS: usize = 12;
    const PAIRS_PER_ROUND: usize = 6;
    const RELATIONS: usize = 5;

    let mut generator = WorkloadGen::new(0x50A4);
    let db = generator
        .build_database_with_wal(60, &["Paris", "Rome"], Wal::in_memory())
        .unwrap();
    let co = ShardedCoordinator::with_config(
        db.clone(),
        ShardedConfig {
            shards: 4,
            workers: 2,
            checkpoint: Default::default(),
            base: CoordinatorConfig {
                match_config: MatchConfig {
                    randomize: false,
                    ..MatchConfig::default()
                },
                ..CoordinatorConfig::default()
            },
        },
    );

    // Each round builds pairs whose two halves are submitted by
    // *different* threads, so completion races across shard drains.
    // Owners are globally unique, so every head tuple is unique and
    // "answer row ↔ group" tracing is exact.
    let notifications: Mutex<Vec<MatchNotification>> = Mutex::new(Vec::new());
    let mut submitted_total = 0usize;
    let mut thread_work: Vec<Vec<Vec<(String, String)>>> = vec![Vec::new(); THREADS];
    for round in 0..ROUNDS {
        let mut halves: Vec<Vec<(String, String)>> = vec![Vec::new(); THREADS];
        for p in 0..PAIRS_PER_ROUND {
            let rel = format!("Reservation{}", (round * PAIRS_PER_ROUND + p) % RELATIONS);
            let me = format!("r{round}p{p}a");
            let friend = format!("r{round}p{p}b");
            let first = WorkloadGen::pair_request_on(&rel, &me, &friend, "Paris");
            let second = WorkloadGen::pair_request_on(&rel, &friend, &me, "Paris");
            halves[p % THREADS].push((first.owner, first.sql));
            halves[(p + 1) % THREADS].push((second.owner, second.sql));
            submitted_total += 2;
        }
        // one never-matching noise query per thread per round
        for (t, half) in halves.iter_mut().enumerate() {
            let noise = WorkloadGen::pair_request_on(
                &format!("Reservation{}", (round + t) % RELATIONS),
                &format!("noise_r{round}t{t}"),
                &format!("ghost_r{round}t{t}"),
                "Paris",
            );
            half.push((noise.owner, noise.sql));
            submitted_total += 1;
        }
        for (t, half) in halves.into_iter().enumerate() {
            thread_work[t].push(half);
        }
    }

    let tickets = std::thread::scope(|scope| {
        let handles: Vec<_> = thread_work
            .into_iter()
            .map(|work| {
                let co = &co;
                let notifications = &notifications;
                scope.spawn(move || {
                    let mut tickets = Vec::new();
                    for batch in work {
                        for outcome in co.submit(compiled(&batch), Ack::Wait) {
                            match outcome
                                .map(Submission::from)
                                .expect("soak queries are safe")
                            {
                                Submission::Answered(n) => notifications.lock().unwrap().push(n),
                                Submission::Pending(t) => tickets.push(t),
                            }
                        }
                    }
                    tickets
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("soak thread panicked"))
            .collect::<Vec<_>>()
    });

    // every name has one partner, so a minimal group is a pair
    common::assert_quiescent(&db, 2);
    // quiescence sweep: racing halves that crossed thread boundaries
    // mid-drain are matched now; nothing may remain matchable after it
    co.retry_all();
    assert!(co.retry_all().is_empty(), "sweep must reach a fixpoint");

    // drain the pending handles only now: a query answered at any
    // point (by a later batch, a concurrent thread, or the sweep) must
    // have exactly one notification waiting in its future — none lost,
    // none extra
    for mut ticket in tickets {
        if let Some(youtopia::CoordinationOutcome::Answered(n)) = ticket.try_take() {
            notifications.lock().unwrap().push(n);
        }
    }

    co.check_routing_invariants()
        .expect("routing invariants at quiescence");

    let notifications = notifications.into_inner().unwrap();
    let stats = co.stats();
    assert_eq!(stats.submitted as usize, submitted_total);
    assert_eq!(
        stats.answered as usize + co.pending_count(),
        submitted_total,
        "answered + pending partitions submissions"
    );
    // no lost notification: every answered query's notification was
    // observed exactly once (inline, via its future, or via the sweep)
    let mut answered_ids: Vec<u64> = notifications.iter().map(|n| n.id.0).collect();
    answered_ids.sort_unstable();
    let unique = answered_ids.len();
    answered_ids.dedup();
    assert_eq!(answered_ids.len(), unique, "no query notified twice");
    assert_eq!(unique, stats.answered as usize, "no notification lost");

    // every committed answer tuple traces to exactly one group: totals
    // agree and no (owner, flight) row is duplicated
    let notified_answers: usize = notifications.iter().map(|n| n.answers.len()).sum();
    let read = co.db().read();
    let mut committed_rows = 0usize;
    let mut seen_rows = std::collections::HashSet::new();
    for rel in (0..RELATIONS).map(|k| format!("Reservation{k}")) {
        if let Ok(table) = read.table(&rel) {
            for (_, tuple) in table.scan() {
                committed_rows += 1;
                let owner = tuple.values()[0].as_str().unwrap().to_string();
                assert!(
                    seen_rows.insert((rel.clone(), owner)),
                    "duplicate answer row in {rel}"
                );
            }
        }
    }
    assert_eq!(
        committed_rows, notified_answers,
        "committed answer rows == notified answers (each group applied once)"
    );
    // every pair shares one flight
    let by_id: std::collections::HashMap<u64, &MatchNotification> =
        notifications.iter().map(|n| (n.id.0, n)).collect();
    for n in &notifications {
        assert_eq!(n.group.len(), 2, "pair workload groups are pairs");
        let partner = n.group.iter().find(|q| q.0 != n.id.0).unwrap();
        let pn = by_id[&partner.0];
        assert_eq!(
            n.answers[0].1.values()[1],
            pn.answers[0].1.values()[1],
            "coordinated pair shares its flight"
        );
    }
}

/// Mixed sync/async soak (async-submission PR): four submitter threads
/// — two holding `submit`'s futures, two viewing them through
/// `Submission::from` — hammer one sharded coordinator while a single
/// `WaiterSet` thread holds every async future in flight (standing
/// noise pushes it past 2k at once) and random cancels race the
/// matches. At quiescence every async future must have resolved
/// **exactly once** — no lost completion (a future still pending after
/// its query terminated) and no double delivery — and the coordinator's
/// accounting must balance across both notification styles.
#[test]
fn mixed_sync_async_soak_loses_no_completions() {
    use std::sync::mpsc;
    use std::time::Duration;

    use youtopia::core::MatchConfig;
    use youtopia::travel::WorkloadGen;
    use youtopia::{
        CoordinationFuture, CoordinationOutcome, CoordinatorConfig, QueryId, ShardedConfig,
        ShardedCoordinator, Submission, WaiterSet,
    };

    const ASYNC_THREADS: usize = 2; // plus 2 sync submitters
    const NOISE_PER_ASYNC_THREAD: usize = 1100; // keeps ≥2k futures in flight
    const PAIRS_PER_THREAD: usize = 300; // async half + sync partner half
    const RELATIONS: usize = 5;
    const BATCH: usize = 64;

    let mut generator = WorkloadGen::new(0xA51C);
    let db = generator.build_database(60, &["Paris", "Rome"]).unwrap();
    let co = ShardedCoordinator::with_config(
        db,
        ShardedConfig {
            shards: 4,
            workers: 2,
            checkpoint: Default::default(),
            base: CoordinatorConfig {
                match_config: MatchConfig {
                    randomize: false,
                    ..MatchConfig::default()
                },
                ..CoordinatorConfig::default()
            },
        },
    );

    let (future_tx, future_rx) = mpsc::channel::<CoordinationFuture>();

    // ---- the WaiterSet thread: one thread drives every future ------ //
    let waiter_thread = std::thread::spawn(move || {
        let mut set = WaiterSet::new();
        let mut completions: Vec<(QueryId, CoordinationOutcome)> = Vec::new();
        let mut max_in_flight = 0usize;
        let mut disconnected = false;
        loop {
            loop {
                match future_rx.try_recv() {
                    Ok(future) => {
                        set.insert(future);
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            max_in_flight = max_in_flight.max(set.len());
            completions.extend(set.wait_timeout(Duration::from_millis(1)));
            if disconnected && set.is_empty() {
                return (completions, max_in_flight);
            }
        }
    });

    // ---- 4 submitter threads --------------------------------------- //
    let (async_qids, cancelled_total, sync_notifications, sync_tickets) =
        std::thread::scope(|scope| {
            let mut async_handles = Vec::new();
            for t in 0..ASYNC_THREADS {
                let co = &co;
                let future_tx = future_tx.clone();
                async_handles.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xCA5C + t as u64);
                    let mut qids: Vec<u64> = Vec::new();
                    let mut cancelled = 0usize;
                    // interleave noise and pair halves in batches
                    let mut requests: Vec<(String, String, bool)> = Vec::new();
                    for i in 0..NOISE_PER_ASYNC_THREAD {
                        let r = WorkloadGen::pair_request_on(
                            &format!("Reservation{}", i % RELATIONS),
                            &format!("anoise_t{t}_{i}"),
                            &format!("aghost_t{t}_{i}"),
                            "Paris",
                        );
                        requests.push((r.owner, r.sql, false));
                    }
                    for i in 0..PAIRS_PER_THREAD {
                        let r = WorkloadGen::pair_request_on(
                            &format!("Reservation{}", (t + i) % RELATIONS),
                            &format!("pair_t{t}_{i}_a"),
                            &format!("pair_t{t}_{i}_b"),
                            "Paris",
                        );
                        requests.push((r.owner, r.sql, true));
                    }
                    for chunk in requests.chunks(BATCH) {
                        let batch: Vec<(String, String)> = chunk
                            .iter()
                            .map(|(owner, sql, _)| (owner.clone(), sql.clone()))
                            .collect();
                        let outcomes = co.submit(compiled(&batch), Ack::Wait);
                        for (outcome, (_, _, cancellable)) in outcomes.into_iter().zip(chunk) {
                            let future = outcome.expect("soak queries are safe");
                            let qid = future.id();
                            qids.push(qid.0);
                            // random cancels race the partner's arrival
                            if *cancellable && rng.random_range(0..10) == 0 {
                                cancelled += usize::from(co.cancel(qid).is_ok());
                            }
                            future_tx.send(future).expect("waiter thread alive");
                        }
                    }
                    (qids, cancelled)
                }));
            }
            let mut sync_handles = Vec::new();
            for t in 0..2 {
                let co = &co;
                sync_handles.push(scope.spawn(move || {
                    let mut notifications = Vec::new();
                    let mut tickets = Vec::new();
                    // the partner halves of async thread t's pairs
                    let requests: Vec<(String, String)> = (0..PAIRS_PER_THREAD)
                        .map(|i| {
                            let r = WorkloadGen::pair_request_on(
                                &format!("Reservation{}", (t + i) % RELATIONS),
                                &format!("pair_t{t}_{i}_b"),
                                &format!("pair_t{t}_{i}_a"),
                                "Paris",
                            );
                            (r.owner, r.sql)
                        })
                        .collect();
                    for chunk in requests.chunks(BATCH) {
                        for outcome in co.submit(compiled(chunk), Ack::Wait) {
                            match outcome
                                .map(Submission::from)
                                .expect("soak queries are safe")
                            {
                                Submission::Answered(n) => notifications.push(n),
                                Submission::Pending(ticket) => tickets.push(ticket),
                            }
                        }
                    }
                    (notifications, tickets)
                }));
            }
            let mut async_qids: Vec<u64> = Vec::new();
            let mut cancelled_total = 0usize;
            for handle in async_handles {
                let (qids, cancelled) = handle.join().expect("async submitter panicked");
                async_qids.extend(qids);
                cancelled_total += cancelled;
            }
            let mut sync_notifications = Vec::new();
            let mut sync_tickets = Vec::new();
            for handle in sync_handles {
                let (notifications, tickets) = handle.join().expect("sync submitter panicked");
                sync_notifications.extend(notifications);
                sync_tickets.extend(tickets);
            }
            (
                async_qids,
                cancelled_total,
                sync_notifications,
                sync_tickets,
            )
        });
    drop(future_tx);

    // quiescence: nothing further is matchable, then everything still
    // pending (noise, orphaned halves of cancelled pairs) is expired —
    // which must resolve every remaining future
    co.retry_all();
    let expired = co.expire_before(u64::MAX).len();
    assert_eq!(co.pending_count(), 0, "expiry sweeps the registry clean");
    co.check_routing_invariants().unwrap();

    let (completions, max_in_flight) = waiter_thread.join().expect("waiter thread panicked");

    // one WaiterSet thread genuinely held thousands of futures at once
    assert!(
        max_in_flight >= 2000,
        "expected ≥2k futures in flight on the waiter thread, saw {max_in_flight}"
    );

    // ---- no lost, no double-delivered completions ------------------ //
    let mut delivered: Vec<u64> = completions.iter().map(|(qid, _)| qid.0).collect();
    delivered.sort_unstable();
    let before_dedup = delivered.len();
    delivered.dedup();
    assert_eq!(delivered.len(), before_dedup, "a future resolved twice");
    let mut submitted: Vec<u64> = async_qids.clone();
    submitted.sort_unstable();
    assert_eq!(
        delivered, submitted,
        "every async future resolves exactly once (none lost, none invented)"
    );

    // ---- cross-mode accounting ------------------------------------- //
    let mut sync_answered = sync_notifications.len();
    for mut ticket in sync_tickets {
        sync_answered += usize::from(matches!(
            ticket.try_take(),
            Some(CoordinationOutcome::Answered(_))
        ));
    }
    let async_answered = completions
        .iter()
        .filter(|(_, o)| matches!(o, CoordinationOutcome::Answered(_)))
        .count();
    let async_cancelled = completions
        .iter()
        .filter(|(_, o)| matches!(o, CoordinationOutcome::Cancelled))
        .count();
    let async_expired = completions
        .iter()
        .filter(|(_, o)| matches!(o, CoordinationOutcome::Expired))
        .count();
    let stats = co.stats();
    assert_eq!(
        stats.answered as usize,
        async_answered + sync_answered,
        "every answered query notified exactly one waiter"
    );
    assert_eq!(
        async_cancelled, cancelled_total,
        "every cancel resolved its future"
    );
    assert_eq!(
        async_answered + async_cancelled + async_expired,
        async_qids.len(),
        "every async submission reached exactly one terminal outcome"
    );
    // expired = async noise + orphaned pair halves (sync and async)
    assert!(
        async_expired <= expired,
        "async expiries are a subset of the sweep"
    );
    assert_eq!(
        stats.submitted as usize,
        stats.answered as usize + cancelled_total + expired,
        "submitted = answered + cancelled + expired at quiescence"
    );
}

#[test]
fn soak_is_deterministic_per_seed() {
    // Two identical runs (same seed everywhere) end in identical
    // aggregate state — catching any hidden nondeterminism (iteration
    // order leaks, time dependence) in the pipeline.
    fn run(seed: u64) -> (usize, u64, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = TravelService::bootstrap_demo().unwrap();
        run_sql(s.db(), "UPDATE Flights SET seats = 500").unwrap();
        let users: Vec<String> = (0..8).map(|i| format!("u{i}")).collect();
        for u in &users {
            let others: Vec<&str> = users
                .iter()
                .filter(|o| *o != u)
                .map(String::as_str)
                .collect();
            s.social().import_friends(u, &others).unwrap();
        }
        for _ in 0..120 {
            let a = users[rng.random_range(0..users.len())].clone();
            let b = loop {
                let b = users[rng.random_range(0..users.len())].clone();
                if b != a {
                    break b;
                }
            };
            let _ = s
                .coordinate_flight(&a, &b, "Paris", FlightPrefs::default())
                .unwrap();
        }
        let stats = s.coordinator().stats();
        (reservation_count(&s), stats.answered, stats.groups_matched)
    }
    assert_eq!(run(7), run(7));
}

/// Session-reconnect soak (multi-tenant net PR, satellite 3): ~2,100
/// concurrent sessions held by **one** `WaiterSet` while a churn
/// thread randomly "disconnects" owners and reattaches them
/// (`reattach` — exactly what the network server does on
/// `Resume`), superseding the stranded handles. Run twice with the
/// same seed — once calm (the control), once under churn — the
/// reattached sessions must receive **exactly the control run's
/// answers**: same owners answered, same flights booked, zero lost and
/// zero duplicated completions. Every supersession is accounted for
/// (one `Superseded` per reattached handle) and the stranded noise
/// expires cleanly at the end.
#[test]
fn session_reconnect_soak_delivers_control_answers() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use youtopia::core::MatchConfig;
    use youtopia::storage::Tuple;
    use youtopia::travel::WorkloadGen;
    use youtopia::{
        CoordinationOutcome, CoordinatorConfig, ShardedConfig, ShardedCoordinator, Submission,
    };

    const NOISE: usize = 1500; // standing sessions whose partner never comes
    const PAIRS: usize = 600; // sessions that do get answered
    const RELATIONS: usize = 5;
    const BATCH: usize = 128;

    struct RunResult {
        answered: HashMap<String, Vec<(String, Tuple)>>,
        max_in_flight: usize,
        superseded: usize,
        expired: usize,
        reattached: usize,
    }

    fn run(churn: bool) -> RunResult {
        let mut generator = WorkloadGen::new(0x5E55);
        let db = generator.build_database(60, &["Paris", "Rome"]).unwrap();
        let co = Arc::new(ShardedCoordinator::with_config(
            db,
            ShardedConfig {
                shards: 4,
                workers: 2,
                checkpoint: Default::default(),
                base: CoordinatorConfig {
                    match_config: MatchConfig {
                        randomize: false, // deterministic CHOOSE for the control comparison
                        ..MatchConfig::default()
                    },
                    ..CoordinatorConfig::default()
                },
            },
        ));

        // ---- the single WaiterSet thread --------------------------- //
        let (tx, rx) = mpsc::channel::<youtopia::CoordinationFuture>();
        let waiter = std::thread::spawn(move || {
            let mut set = youtopia::WaiterSet::new();
            let mut completions: Vec<(youtopia::QueryId, CoordinationOutcome)> = Vec::new();
            let mut max_in_flight = 0usize;
            let mut disconnected = false;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(future) => {
                            let qid = future.id();
                            if let Some(mut old) = set.insert(future) {
                                // a reattach displaced the stranded
                                // handle: it must already be terminal
                                let outcome = old
                                    .try_take()
                                    .expect("displaced handle resolved by supersession");
                                completions.push((qid, outcome));
                            }
                        }
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            disconnected = true;
                            break;
                        }
                    }
                }
                max_in_flight = max_in_flight.max(set.len());
                completions.extend(set.wait_timeout(Duration::from_millis(1)));
                if disconnected && set.is_empty() {
                    return (completions, max_in_flight);
                }
            }
        });

        // ---- submissions (identical order in both runs) ------------ //
        let mut owner_of: HashMap<u64, String> = HashMap::new();
        let mut owners: Vec<String> = Vec::new();
        let mut requests: Vec<(String, String)> = Vec::new();
        for i in 0..NOISE {
            let r = WorkloadGen::pair_request_on(
                &format!("Reservation{}", i % RELATIONS),
                &format!("sess/n{i}"),
                &format!("sess/ghost{i}"),
                "Paris",
            );
            requests.push((r.owner, r.sql));
        }
        for i in 0..PAIRS {
            let r = WorkloadGen::pair_request_on(
                &format!("Reservation{}", i % RELATIONS),
                &format!("sess/p{i}a"),
                &format!("sess/p{i}b"),
                "Paris",
            );
            requests.push((r.owner, r.sql));
        }
        for chunk in requests.chunks(BATCH) {
            // batch outcomes come back in submission order: zip to owners
            let outcomes = co.submit(compiled(chunk), Ack::Wait);
            for (outcome, (owner, _)) in outcomes.into_iter().zip(chunk) {
                let future = outcome.expect("soak queries are safe");
                owner_of.insert(future.id().0, owner.clone());
                tx.send(future).expect("waiter alive");
            }
        }
        owners.extend(owner_of.values().cloned());

        // ---- churn thread: random disconnect/reconnect ------------- //
        let stop = Arc::new(AtomicBool::new(false));
        let churn_handle = churn.then(|| {
            let co = Arc::clone(&co);
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            let owners = owners.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0C0);
                let mut reattached = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let owner = &owners[rng.random_range(0..owners.len())];
                    for future in co.reattach(owner) {
                        reattached += 1;
                        if tx.send(future).is_err() {
                            return reattached;
                        }
                    }
                }
                reattached
            })
        });

        // ---- closers arrive while the churn is running ------------- //
        let mut answered: HashMap<String, Vec<(String, Tuple)>> = HashMap::new();
        for i in 0..PAIRS {
            let r = WorkloadGen::pair_request_on(
                &format!("Reservation{}", i % RELATIONS),
                &format!("sess/p{i}b"),
                &format!("sess/p{i}a"),
                "Paris",
            );
            match co.submit_sql(&r.owner, &r.sql).expect("closer submits") {
                Submission::Answered(n) => {
                    answered.insert(r.owner.clone(), n.answers);
                }
                Submission::Pending(_) => panic!("closer must answer its pair on arrival"),
            }
        }

        stop.store(true, Ordering::Release);
        let reattached = churn_handle
            .map(|h| h.join().expect("churn thread"))
            .unwrap_or(0);
        drop(tx);

        // quiescence: expire the stranded noise, resolving every
        // remaining future
        co.retry_all();
        co.expire_before(u64::MAX);
        assert_eq!(co.pending_count(), 0);
        let (completions, max_in_flight) = waiter.join().expect("waiter thread");

        // ---- classify ---------------------------------------------- //
        let mut superseded = 0usize;
        let mut expired = 0usize;
        let mut terminal_per_qid: HashMap<u64, usize> = HashMap::new();
        for (qid, outcome) in &completions {
            match outcome {
                CoordinationOutcome::Superseded => superseded += 1,
                CoordinationOutcome::Expired => {
                    expired += 1;
                    *terminal_per_qid.entry(qid.0).or_default() += 1;
                }
                CoordinationOutcome::Cancelled => {
                    *terminal_per_qid.entry(qid.0).or_default() += 1;
                }
                CoordinationOutcome::Answered(n) => {
                    *terminal_per_qid.entry(qid.0).or_default() += 1;
                    let owner = owner_of[&qid.0].clone();
                    answered.insert(owner, n.answers.clone());
                }
            }
        }
        // zero lost, zero duplicated: every async submission reaches
        // exactly one non-superseded terminal outcome...
        assert_eq!(
            terminal_per_qid.len(),
            NOISE + PAIRS,
            "a session lost its completion"
        );
        assert!(
            terminal_per_qid.values().all(|&n| n == 1),
            "a session's completion was delivered twice"
        );
        // ...and every reattach superseded exactly one stranded handle
        assert_eq!(
            completions.len(),
            NOISE + PAIRS + reattached,
            "supersessions accounted one-for-one"
        );
        assert_eq!(superseded, reattached);

        RunResult {
            answered,
            max_in_flight,
            superseded,
            expired,
            reattached,
        }
    }

    let control = run(false);
    let churned = run(true);

    // scale floor: one WaiterSet genuinely drove ≥2k concurrent sessions
    assert!(
        control.max_in_flight >= 2000 && churned.max_in_flight >= 2000,
        "expected ≥2k sessions in flight (control {}, churned {})",
        control.max_in_flight,
        churned.max_in_flight
    );
    assert_eq!(control.reattached, 0);
    assert_eq!(control.superseded, 0);
    assert!(
        churned.reattached > 0,
        "the churn thread must actually reattach sessions"
    );
    assert_eq!(control.expired, NOISE, "all stranded noise expires");
    assert_eq!(churned.expired, NOISE);

    // the reattach churn is invisible to the outcome: reattached
    // sessions received exactly the control run's answers
    assert_eq!(
        churned.answered, control.answered,
        "reconnect churn changed an answer"
    );
    assert_eq!(
        control.answered.len(),
        2 * PAIRS,
        "both halves of every pair answered"
    );
}
