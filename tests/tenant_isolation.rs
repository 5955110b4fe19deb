//! Noisy-neighbor isolation (multi-tenant front-end PR, satellite 2):
//! one tenant floods the coordinator at 10x its submit quota while
//! eight well-behaved tenants run a steady pair workload. The flooder
//! must be throttled with `QuotaExceeded`, the neighbors' completion
//! latency and throughput must stay within bounds (p99 under the
//! storm < 2x the calm p99, plus a small absolute allowance for
//! scheduler jitter), and every tenant's ledger must account for every
//! submission. A second test pins the fair-drain guarantee: with
//! `fair_drain` on, batch draining interleaves tenants round-robin, so
//! a small tenant's queries register early even when a big tenant
//! fills the rest of the batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use youtopia::storage::Wal;
use youtopia::travel::WorkloadGen;
use youtopia::{
    CoordEvent, MockClock, ShardedConfig, ShardedCoordinator, Submission, TenantQuotas,
    TenantRegistry,
};

const GOOD_TENANTS: usize = 8;
const PAIRS_PER_TENANT: usize = 30;
const RELATIONS: usize = 8;
const FLOOD_SUBMITS: usize = 2000;
const FLOOD_BURST: u64 = 200; // 10x over-submission

/// One coordinating pair for `tenant`, phase-tagged so the calm and
/// storm phases never reuse an owner (answer tuples persist across
/// phases and would otherwise satisfy a repeat query on arrival).
fn phase_pair(
    tenant: &str,
    phase: &str,
    p: usize,
) -> (
    youtopia::travel::workload::Request,
    youtopia::travel::workload::Request,
) {
    let rel = format!("Reservation{}", p % RELATIONS);
    let a = format!("{tenant}/{phase}{p}a");
    let b = format!("{tenant}/{phase}{p}b");
    (
        WorkloadGen::pair_request_on(&rel, &a, &b, "Paris"),
        WorkloadGen::pair_request_on(&rel, &b, &a, "Paris"),
    )
}

/// Runs one tenant's pair workload serially, returning each pair's
/// submit-to-answer latency.
fn run_tenant(co: &ShardedCoordinator, tenant: &str, phase: &str) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(PAIRS_PER_TENANT);
    for p in 0..PAIRS_PER_TENANT {
        let (first, closer) = phase_pair(tenant, phase, p);
        let started = Instant::now();
        let pending = co
            .submit_sql(&first.owner, &first.sql)
            .expect("first half registers");
        assert!(matches!(pending, Submission::Pending(_)));
        let answered = co
            .submit_sql(&closer.owner, &closer.sql)
            .expect("closer submits");
        assert!(
            matches!(answered, Submission::Answered(_)),
            "closer answers its pair on arrival"
        );
        latencies.push(started.elapsed());
    }
    latencies
}

fn p99(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() * 99 / 100]
}

#[test]
fn flooding_tenant_is_throttled_and_neighbors_stay_within_bounds() {
    let clock = Arc::new(MockClock::new(1_000));
    let mut generator = WorkloadGen::new(0x1507);
    let db = generator
        .build_database(100, &["Paris", "Rome"])
        .expect("database builds");
    let co = Arc::new(ShardedCoordinator::with_clock(
        db,
        ShardedConfig {
            shards: 4,
            ..Default::default()
        },
        clock.clone(),
    ));
    let tenants = TenantRegistry::with_clock(TenantQuotas::default(), clock);
    // the flooder's submit-rate bucket: a burst of FLOOD_BURST tokens
    // that never refills (rate 0 + mock clock), so of FLOOD_SUBMITS
    // submissions exactly FLOOD_BURST are admitted
    tenants.set_quotas(
        "flood",
        TenantQuotas {
            rate_burst: FLOOD_BURST,
            rate_per_sec: 0,
            ..TenantQuotas::unlimited()
        },
    );
    co.set_tenant_registry(Arc::clone(&tenants));

    // ---- calm phase: 8 tenants, no flooder ------------------------- //
    let calm: Vec<Duration> = {
        let handles: Vec<_> = (0..GOOD_TENANTS)
            .map(|t| {
                let co = Arc::clone(&co);
                std::thread::spawn(move || run_tenant(&co, &format!("good{t}"), "calm"))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calm tenant thread"))
            .collect()
    };

    // ---- storm phase: same 8 tenants + the flooder ----------------- //
    let flooder = {
        let co = Arc::clone(&co);
        std::thread::spawn(move || {
            let requests = WorkloadGen::tenant_storm("flood", FLOOD_SUBMITS, "Paris", RELATIONS);
            let mut admitted = 0usize;
            let mut rejected = 0usize;
            for request in &requests {
                match co.submit_sql(&request.owner, &request.sql) {
                    Ok(Submission::Pending(_)) => admitted += 1,
                    Ok(Submission::Answered(_)) => panic!("flood queries never match"),
                    Err(youtopia::core::CoreError::QuotaExceeded { .. }) => rejected += 1,
                    Err(e) => panic!("unexpected flood failure: {e}"),
                }
            }
            (admitted, rejected)
        })
    };
    let storm: Vec<Duration> = {
        let handles: Vec<_> = (0..GOOD_TENANTS)
            .map(|t| {
                let co = Arc::clone(&co);
                std::thread::spawn(move || run_tenant(&co, &format!("good{t}"), "storm"))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("storm tenant thread"))
            .collect()
    };
    let (admitted, rejected) = flooder.join().expect("flooder thread");

    // the flooder was throttled to its burst, the rest rejected
    assert_eq!(admitted, FLOOD_BURST as usize);
    assert_eq!(rejected, FLOOD_SUBMITS - FLOOD_BURST as usize);
    assert_eq!(co.stats().rejected_quota, rejected as u64);

    // every good tenant completed every pair — zero lost completions
    assert_eq!(calm.len(), GOOD_TENANTS * PAIRS_PER_TENANT);
    assert_eq!(storm.len(), GOOD_TENANTS * PAIRS_PER_TENANT);

    // noisy-neighbor bound: storm p99 < 2x calm p99 (+ a small
    // absolute allowance — calm latencies are tens of microseconds, so
    // a pure ratio would measure scheduler jitter, not interference)
    let (calm_p99, storm_p99) = (p99(calm), p99(storm));
    assert!(
        storm_p99 < calm_p99 * 2 + Duration::from_millis(25),
        "noisy neighbor degraded p99 too far: calm {calm_p99:?}, storm {storm_p99:?}"
    );

    // per-tenant ledgers account for every outcome
    for t in 0..GOOD_TENANTS {
        let stats = tenants
            .tenant_stats(&format!("good{t}"))
            .expect("good tenant ledger");
        assert_eq!(stats.submitted, 2 * 2 * PAIRS_PER_TENANT as u64);
        assert_eq!(stats.answered, stats.submitted, "every pair answered");
        assert_eq!(stats.rejected, 0, "well-behaved tenants see no quota");
        assert_eq!(stats.in_flight, 0);
    }
    let flood = tenants.tenant_stats("flood").expect("flood ledger");
    assert_eq!(flood.submitted, FLOOD_BURST);
    assert_eq!(
        flood.rejected,
        (FLOOD_SUBMITS - FLOOD_BURST as usize) as u64
    );
    assert_eq!(flood.in_flight as u64, FLOOD_BURST, "admitted floods pend");
    assert_eq!(
        flood.submitted,
        flood.answered + flood.cancelled + flood.expired + flood.aborted + flood.in_flight as u64,
        "flood ledger closes"
    );
}

/// With `fair_drain` on, a batch holding 30 queries from a big tenant
/// and 3 from a small one registers them round-robin — the small
/// tenant's queries land at positions 1, 3, 5 of the drain instead of
/// queueing behind the big tenant's 30.
#[test]
fn fair_drain_interleaves_tenants_round_robin() {
    let registration_order = |fair: bool| -> Vec<String> {
        let mut generator = WorkloadGen::new(0xFA12);
        let db = generator
            .build_database_with_wal(50, &["Paris"], Wal::in_memory())
            .expect("database builds");
        let co = ShardedCoordinator::with_config(
            db.clone(),
            ShardedConfig {
                shards: 1, // one shard = one drain bucket
                fair_drain: fair,
                ..Default::default()
            },
        );
        let mut batch: Vec<(String, String)> = Vec::new();
        for i in 0..30 {
            let r = WorkloadGen::pair_request_on(
                "Reservation0",
                &format!("big/u{i}"),
                &format!("nobody{i}"),
                "Paris",
            );
            batch.push((r.owner, r.sql));
        }
        for i in 0..3 {
            let r = WorkloadGen::pair_request_on(
                "Reservation0",
                &format!("small/u{i}"),
                &format!("noone{i}"),
                "Paris",
            );
            batch.push((r.owner, r.sql));
        }
        for outcome in co.submit_batch_sql(&batch) {
            outcome.expect("batch entries register");
        }
        let bytes = db.wal_bytes().expect("WAL-backed database");
        Wal::from_bytes(bytes)
            .replay_records()
            .expect("log replays")
            .into_iter()
            .filter_map(|record| record.coordination())
            .filter_map(|payload| match CoordEvent::decode(&payload) {
                Ok(CoordEvent::QueryRegistered { owner, .. }) => Some(owner),
                _ => None,
            })
            .collect()
    };

    let fair = registration_order(true);
    assert_eq!(fair.len(), 33);
    let small_positions: Vec<usize> = fair
        .iter()
        .enumerate()
        .filter(|(_, owner)| owner.starts_with("small/"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        small_positions,
        vec![1, 3, 5],
        "fair drain alternates tenants until the small tenant drains"
    );
    // per-tenant FIFO is preserved under the interleave
    let small_order: Vec<&String> = fair
        .iter()
        .filter(|owner| owner.starts_with("small/"))
        .collect();
    assert_eq!(small_order, vec!["small/u0", "small/u1", "small/u2"]);

    // and with fair_drain off, the small tenant queues behind all 30
    let unfair = registration_order(false);
    let small_positions: Vec<usize> = unfair
        .iter()
        .enumerate()
        .filter(|(_, owner)| owner.starts_with("small/"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(small_positions, vec![30, 31, 32]);
}

/// The tenant ledger is settled **before** a terminated query's waiter
/// wakes (PR 11 finding: the e2e oracle saw `Expired` on the wire and
/// then read `in_flight: 1`). `WaiterSet::set_wake_hook` runs inside
/// the completion, under the shard lock, so whatever the hook reads is
/// what the fastest possible client could read: for each of answered /
/// cancelled / expired the ledger must already show the terminal count
/// and nothing in flight.
#[test]
fn ledger_is_settled_before_the_waiter_wakes() {
    use std::sync::Mutex;
    use youtopia::core::{SubmitOptions, TenantStats};
    use youtopia::{QueryId, WaiterSet};

    type Terminate = fn(&ShardedCoordinator, QueryId);
    type TerminalCount = fn(&TenantStats) -> u64;
    let cases: [(&str, Terminate, TerminalCount); 3] = [
        (
            "answered",
            |co, _| {
                let closer = WorkloadGen::pair_request_on("Res", "other/b", "acme/a", "Paris");
                let answered = co.submit_sql(&closer.owner, &closer.sql).unwrap();
                assert!(matches!(answered, Submission::Answered(_)));
            },
            |s| s.answered,
        ),
        (
            "cancelled",
            |co, qid| co.cancel(qid).unwrap(),
            |s| s.cancelled,
        ),
        (
            "expired",
            |co, qid| assert_eq!(co.expire_due(100), vec![qid]),
            |s| s.expired,
        ),
    ];
    for (name, terminate, terminal_count) in cases {
        let db = WorkloadGen::new(7)
            .build_database(10, &["Paris"])
            .expect("database builds");
        let co = ShardedCoordinator::new(db);
        let tenants = TenantRegistry::new(TenantQuotas::unlimited());
        co.set_tenant_registry(Arc::clone(&tenants));

        let seen: Arc<Mutex<Vec<TenantStats>>> = Arc::default();
        let mut set = WaiterSet::new();
        set.set_wake_hook({
            let (tenants, seen) = (Arc::clone(&tenants), Arc::clone(&seen));
            move || {
                let stats = tenants.tenant_stats("acme").expect("acme submitted");
                seen.lock().unwrap().push(stats);
            }
        });
        let first = WorkloadGen::pair_request_on("Res", "acme/a", "other/b", "Paris");
        let future = co
            .submit_sql_async_with(&first.owner, &first.sql, SubmitOptions::with_deadline(100))
            .unwrap();
        let qid = future.id();
        set.insert(future);
        assert!(set.poll_ready().is_empty(), "waker parked, still pending");
        assert_eq!(tenants.tenant_stats("acme").unwrap().in_flight, 1);

        terminate(&co, qid);

        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1, "{name}: the waiter woke exactly once");
        assert_eq!(seen[0].in_flight, 0, "{name}: in flight at wake time");
        assert_eq!(terminal_count(&seen[0]), 1, "{name}: booked at wake time");
        assert_eq!(set.poll_ready().len(), 1, "{name}: the future resolved");
    }
}
