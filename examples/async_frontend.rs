//! Async front-end demo: thousands of in-flight coordinations, one
//! waiter thread, zero threads blocked per query.
//!
//! Blocking on each pending entangled query's handle would park one OS
//! thread per query. This example is the reason every handle is a
//! future: a front-end submits a few thousand coordinations in
//! batches through `submit`, holds every resulting
//! `CoordinationFuture` in a single `WaiterSet`, and harvests
//! completions as partners arrive, cancels fire, and an expiry sweep
//! retires the stragglers — all on one thread. At the end, every
//! future must have resolved exactly once.
//!
//! Run with: `cargo run --release --example async_frontend`
//!
//! Exits non-zero (panics) if any completion is lost, duplicated, or
//! mis-typed — CI runs this as the async smoke test.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use youtopia::travel::WorkloadGen;
use youtopia::{
    compile_sql, Ack, CoordinationOutcome, QueryId, ShardedCoordinator, SubmitOptions, WaiterSet,
};

const NOISE: usize = 3000; // standing load: queries whose partner never comes
const PAIRS: usize = 400; // coordinations that do complete
const BATCH: usize = 128;

fn main() {
    let mut generator = WorkloadGen::new(0xF00D);
    let db = generator
        .build_database(100, &["Paris", "Rome"])
        .expect("database builds");
    let co = ShardedCoordinator::new(db);
    let mut set = WaiterSet::new();
    let mut outcomes: HashMap<QueryId, CoordinationOutcome> = HashMap::new();
    let record = |harvested: Vec<(QueryId, CoordinationOutcome)>,
                  outcomes: &mut HashMap<QueryId, CoordinationOutcome>| {
        for (qid, outcome) in harvested {
            assert!(
                outcomes.insert(qid, outcome).is_none(),
                "future {qid} resolved twice"
            );
        }
    };

    // ---- phase 1: build up thousands of in-flight futures ---------- //
    let started = Instant::now();
    let mut requests = generator.noise_multi(NOISE, "Paris", 8);
    let storm = generator.pair_storm_multi(PAIRS, "Paris", 8);
    let (first_halves, second_halves) = storm.split_at(PAIRS);
    requests.extend(first_halves.to_vec());
    let mut submitted = 0usize;
    for chunk in requests.chunks(BATCH) {
        let batch = chunk
            .iter()
            .map(|r| {
                (
                    r.owner.clone(),
                    compile_sql(&r.sql),
                    SubmitOptions::default(),
                )
            })
            .collect();
        for outcome in co.submit(batch, Ack::Wait) {
            set.insert(outcome.expect("generated queries are safe"));
            submitted += 1;
        }
    }
    record(set.poll_ready(), &mut outcomes);
    println!(
        "in flight   : {} futures held by one WaiterSet after {} submissions ({:.2?}; {} threads blocked)",
        set.len(),
        submitted,
        started.elapsed(),
        0
    );
    assert!(set.len() >= NOISE + PAIRS - 50, "the load is standing");

    // ---- phase 2: partners arrive, completions fan out ------------- //
    for chunk in second_halves.chunks(BATCH) {
        let batch = chunk
            .iter()
            .map(|r| {
                (
                    r.owner.clone(),
                    compile_sql(&r.sql),
                    SubmitOptions::default(),
                )
            })
            .collect();
        for outcome in co.submit(batch, Ack::Wait) {
            set.insert(outcome.expect("generated queries are safe"));
            submitted += 1;
        }
        record(set.poll_ready(), &mut outcomes);
    }
    let answered = outcomes
        .values()
        .filter(|o| matches!(o, CoordinationOutcome::Answered(_)))
        .count();
    println!(
        "matched     : {answered} futures resolved Answered ({} pairs), {} still in flight",
        answered / 2,
        set.len()
    );
    assert_eq!(answered, 2 * PAIRS, "both halves of every pair resolve");

    // ---- phase 3: a user gives up — cancel wakes the future -------- //
    let mut cancelled = 0usize;
    for i in 0..100 {
        // noise owners are unique; cancel their single pending query
        cancelled += co.cancel_owner(&format!("noise{i}"));
    }
    // wakers fired synchronously inside the cancel calls, so a
    // non-blocking poll harvests them all
    record(set.poll_ready(), &mut outcomes);
    let cancelled_seen = outcomes
        .values()
        .filter(|o| matches!(o, CoordinationOutcome::Cancelled))
        .count();
    println!(
        "cancelled   : {cancelled} queries withdrawn, {cancelled_seen} futures woke Cancelled"
    );
    assert_eq!(
        cancelled, cancelled_seen,
        "every cancel resolves its future"
    );

    // ---- phase 4: the deadline sweep retires the rest -------------- //
    let expired = co.expire_before(u64::MAX).len();
    record(set.drain_timeout(Duration::from_secs(30)), &mut outcomes);
    let expired_seen = outcomes
        .values()
        .filter(|o| matches!(o, CoordinationOutcome::Expired))
        .count();
    println!("expired     : {expired} queries swept, {expired_seen} futures woke Expired");
    assert_eq!(expired, expired_seen, "every expiry resolves its future");

    // ---- the ledger closes ----------------------------------------- //
    assert!(set.is_empty(), "no future left hanging");
    assert_eq!(
        outcomes.len(),
        submitted,
        "every future resolved exactly once"
    );
    assert_eq!(co.pending_count(), 0);
    co.check_routing_invariants()
        .expect("routing invariants hold");
    println!(
        "ledger      : {} futures submitted = {} answered + {} cancelled + {} expired ({:.2?} total)",
        submitted,
        answered,
        cancelled_seen,
        expired_seen,
        started.elapsed()
    );
    println!("async front-end smoke: OK");
}
