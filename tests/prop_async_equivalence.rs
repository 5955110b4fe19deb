//! Equivalence property of the waiter path: under a fixed seed with
//! randomization disabled, harvesting a workload's futures through a
//! [`WaiterSet`] yields the **identical** coordination outcomes —
//! group members *and* answer tuples — the same expired set and the
//! same pending set as probing each pending handle directly
//! (`Submission::Pending(future)` + `try_take`), through the batch
//! drain at four shards with random deadlines and an `expire_due`
//! sweep mixed in. Same discipline as `prop_shard_equivalence.rs`.
//!
//! Both sides are the same submission path (the blocking `submit*`
//! conveniences are one-liners over the async entry), so this is one
//! cheap case, not a matrix: the only way it can fail is a bug in the
//! waiter lifecycle itself — a waker lost by a migration, a completion
//! delivered twice, a future left pending past its terminal event, or
//! `Submission::from` mis-sorting a handle.

use proptest::prelude::*;

use youtopia::core::{MatchConfig, SubmitOptions};
use youtopia::{
    compile_sql, run_sql, CoordinationOutcome, CoordinatorConfig, Database, MatchNotification,
    ShardedConfig, ShardedCoordinator, Submission, WaiterSet,
};

/// One generated workload: pair requests `(me, friend, relation,
/// dest, deadline)` over small pools — so coordinations actually fire
/// and relations form several independent components — plus the
/// mock-clock instant `sweep_at` of the `expire_due` sweep every run
/// performs after its submissions (deadline-lifecycle PR: random
/// deadlines are mixed into the equivalence workload).
#[derive(Debug, Clone)]
struct Workload {
    requests: Vec<(String, String, String, String, Option<u64>)>,
    sweep_at: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let relation = prop_oneof![Just("Res0"), Just("Res1"), Just("Res2"), Just("Res3")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    let deadline = (any::<bool>(), 1u64..100).prop_map(|(some, d)| some.then_some(d));
    (
        proptest::collection::vec((name.clone(), name, relation, dest, deadline), 1..14),
        0u64..150,
    )
        .prop_map(|(reqs, sweep_at)| Workload {
            requests: reqs
                .into_iter()
                .map(|(a, b, r, d, dl)| {
                    (
                        a.to_string(),
                        b.to_string(),
                        r.to_string(),
                        d.to_string(),
                        dl,
                    )
                })
                .collect(),
            sweep_at,
        })
}

fn scenario_db() -> Database {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(
        &db,
        "INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris'), (3, 'Rome')",
    )
    .unwrap();
    db
}

fn pair_sql(me: &str, friend: &str, relation: &str, dest: &str) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER {relation} \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
         AND ('{friend}', fno) IN ANSWER {relation} CHOOSE 1"
    )
}

fn config(seed: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        match_config: MatchConfig {
            randomize: false,
            ..MatchConfig::default()
        },
        seed,
        ..CoordinatorConfig::default()
    }
}

/// Canonical, comparable form of one query's coordination outcome:
/// `(qid, sorted group ids, answers)`.
type Outcome = (u64, Vec<u64>, Vec<(String, Vec<String>)>);

fn canonical(n: &MatchNotification) -> Outcome {
    let mut group: Vec<u64> = n.group.iter().map(|q| q.0).collect();
    group.sort_unstable();
    let answers = n
        .answers
        .iter()
        .map(|(rel, tuple)| {
            (
                rel.clone(),
                tuple.values().iter().map(|v| format!("{v:?}")).collect(),
            )
        })
        .collect();
    (n.id.0, group, answers)
}

/// Canonical result of one run: sorted answered outcomes, sorted
/// expired ids, sorted still-pending ids.
type RunResult = (Vec<Outcome>, Vec<u64>, Vec<u64>);

fn opts_of(deadline: &Option<u64>) -> SubmitOptions {
    SubmitOptions {
        deadline: *deadline,
    }
}

/// The still-pending ids straight from the registry.
fn pending_ids(snapshot: Vec<youtopia::core::PendingInfo>) -> Vec<u64> {
    let mut ids: Vec<u64> = snapshot.into_iter().map(|p| p.id.0).collect();
    ids.sort_unstable();
    ids
}

/// Harvests a [`WaiterSet`] to quiescence and splits the result into
/// canonical answered outcomes, the expired ids, and the still-pending
/// id set. Every future whose query terminated must resolve here — a
/// future still in the set *is* the async pending set.
fn harvest(mut set: WaiterSet) -> (Vec<Outcome>, Vec<u64>, Vec<u64>) {
    // completions fire synchronously inside the submit/sweep calls
    // (wakers run under the shard lock), so one non-blocking poll
    // harvests everything that will ever resolve
    let mut outcomes = Vec::new();
    let mut expired = Vec::new();
    for (qid, outcome) in set.poll_ready() {
        match outcome {
            CoordinationOutcome::Answered(n) => {
                assert_eq!(n.id, qid, "notification delivered to its own future");
                outcomes.push(canonical(&n));
            }
            CoordinationOutcome::Expired => expired.push(qid.0),
            other => panic!("workload never cancels, got {other:?} for {qid}"),
        }
    }
    expired.sort_unstable();
    let pending = set.ids().into_iter().map(|q| q.0).collect();
    (outcomes, expired, pending)
}

/// The workload as an options-carrying batch.
fn batch(
    w: &Workload,
) -> Vec<(
    String,
    youtopia::core::CoreResult<youtopia::core::EntangledQuery>,
    SubmitOptions,
)> {
    w.requests
        .iter()
        .map(|(me, friend, rel, dest, deadline)| {
            (
                me.clone(),
                compile_sql(&pair_sql(me, friend, rel, dest)),
                opts_of(deadline),
            )
        })
        .collect()
}

fn coordinator(seed: u64) -> ShardedCoordinator {
    ShardedCoordinator::with_config(
        scenario_db(),
        ShardedConfig {
            shards: 4,
            workers: 4,
            fair_drain: false,
            checkpoint: Default::default(),
            base: config(seed),
        },
    )
}

/// Runs the workload through the answered-or-pending batch view,
/// probing every pending handle directly after the sweep.
fn run_probing_handles(w: &Workload, seed: u64) -> RunResult {
    let co = coordinator(seed);
    let mut handles = Vec::new();
    let mut outcomes = Vec::new();
    for outcome in co.submit_batch_with(batch(w)) {
        match outcome.expect("generated queries are safe") {
            Submission::Answered(n) => outcomes.push(canonical(&n)),
            Submission::Pending(f) => handles.push(f),
        }
    }
    let mut swept: Vec<u64> = co.expire_due(w.sweep_at).iter().map(|q| q.0).collect();
    swept.sort_unstable();
    let mut expired = Vec::new();
    for mut f in handles {
        match f.try_take() {
            Some(CoordinationOutcome::Answered(n)) => outcomes.push(canonical(&n)),
            Some(CoordinationOutcome::Expired) => expired.push(f.id().0),
            Some(other) => panic!("workload never cancels, got {other:?}"),
            None => {}
        }
    }
    outcomes.sort();
    expired.sort_unstable();
    assert_eq!(
        expired, swept,
        "every swept query's handle resolved Expired"
    );
    (outcomes, expired, pending_ids(co.pending_snapshot()))
}

/// Runs the workload through the future-returning batch entry, all
/// futures driven by one [`WaiterSet`].
fn run_waiter_set(w: &Workload, seed: u64) -> RunResult {
    let co = coordinator(seed);
    let mut set = WaiterSet::new();
    for outcome in co.submit_batch_async_with(batch(w)) {
        set.insert(outcome.expect("generated queries are safe"));
    }
    co.expire_due(w.sweep_at);
    co.check_routing_invariants()
        .expect("routing invariants hold");
    let (mut outcomes, expired, pending) = harvest(set);
    outcomes.sort();
    assert_eq!(pending, pending_ids(co.pending_snapshot()));
    (outcomes, expired, pending)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `WaiterSet` harvest and a direct probe of every pending
    /// handle see identical matches — same answered queries, same
    /// groups, same answer tuples — the same expired set after the
    /// `expire_due` sweep, and an identical pending set.
    #[test]
    fn waiter_set_harvest_equals_probing_the_handles(
        workload in arb_workload(),
        seed in 0u64..1000,
    ) {
        prop_assert_eq!(
            run_probing_handles(&workload, seed),
            run_waiter_set(&workload, seed),
            "diverged on {:?}",
            &workload
        );
    }
}
