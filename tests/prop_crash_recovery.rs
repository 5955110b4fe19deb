//! Crash-equivalence property (acceptance criterion of the durable-
//! coordination PR): for a fixed seed with randomization disabled,
//! running a random workload prefix, killing the coordinator at an
//! arbitrary point, recovering from the WAL, and finishing the
//! workload yields **exactly** the state of an uncrashed run — the
//! same pending set (id, owner, SQL, seq), the same answer-relation
//! contents, and intact routing invariants.
//!
//! Why this should hold: every registration/cancellation is logged
//! before it is acknowledged and every match commit rides the storage
//! transaction of its answer writes, so the log determines the pending
//! set exactly; with `randomize` off the matcher is a deterministic
//! function of (registry, database), so re-running matching over the
//! recovered state reproduces precisely the matches the crash
//! swallowed; and id/seq allocation restarts from the logged
//! watermark, so the post-crash suffix of the workload sees the same
//! ids it would have seen without the crash.

use proptest::prelude::*;

use youtopia::core::{latency_bucket, CoreResult, MatchConfig, SubmitOptions};
use youtopia::storage::{Wal, WalRecord};
use youtopia::{
    compile_sql, latency_histogram, run_sql, tenant_audit, Ack, AuditConfig, AuditRecord,
    CoordEvent, CoordinationFuture, CoordinatorConfig, Database, MockClock, ShardedConfig,
    ShardedCoordinator, Submission,
};

/// Submits one SQL query with `opts`: a batch of one on `submit`.
fn single(
    co: &ShardedCoordinator,
    owner: &str,
    sql: &str,
    opts: SubmitOptions,
) -> CoreResult<CoordinationFuture> {
    co.submit(vec![(owner.to_string(), compile_sql(sql), opts)], Ack::Wait)
        .pop()
        .expect("a batch of one has one outcome")
}

/// One generated workload step: a pair request, optionally cancelled
/// right after submission (exercising `QueryCancelled` frames).
#[derive(Debug, Clone)]
struct Step {
    me: String,
    friend: String,
    relation: String,
    dest: String,
    cancel_if_pending: bool,
}

#[derive(Debug, Clone)]
struct Scenario {
    steps: Vec<Step>,
    /// Kill after this many steps (clamped to the workload length).
    crash_after: usize,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let relation = prop_oneof![Just("Res0"), Just("Res1"), Just("Res2"), Just("Res3")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    let step = (name.clone(), name, relation, dest, any::<bool>()).prop_map(
        |(me, friend, relation, dest, cancel_if_pending)| Step {
            me: me.to_string(),
            friend: friend.to_string(),
            relation: relation.to_string(),
            dest: dest.to_string(),
            cancel_if_pending,
        },
    );
    (
        proptest::collection::vec(step, 1..16),
        0usize..18,
        0u64..1000,
    )
        .prop_map(|(steps, crash_after, seed)| Scenario {
            crash_after,
            steps,
            seed,
        })
}

/// A step of the deadline-equivalence property: a pair request that
/// may carry a deadline `slack` sweeps in the future (and may be
/// cancelled right after submission, like the plain scenario's steps).
#[derive(Debug, Clone)]
struct TimedStep {
    step: Step,
    /// `Some(s)` ⇒ deadline = `sweep_time(k + s)` for the step index
    /// `k` it is submitted at: due exactly at the s-th sweep after its
    /// own (s = 0 ⇒ the very next sweep).
    deadline_slack: Option<u8>,
}

#[derive(Debug, Clone)]
struct TimedScenario {
    steps: Vec<TimedStep>,
    /// The crash lands between step `crash_after`'s submission and its
    /// sweep (clamped; past the end ⇒ crash after everything).
    crash_after: usize,
    seed: u64,
}

/// The mock-clock instant of the sweep that follows step `k`.
fn sweep_time(k: usize) -> u64 {
    (k as u64 + 1) * 10
}

fn arb_timed_scenario() -> impl Strategy<Value = TimedScenario> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let relation = prop_oneof![Just("Res0"), Just("Res1"), Just("Res2"), Just("Res3")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    let slack = (any::<bool>(), 0u8..5).prop_map(|(some, s)| some.then_some(s));
    let step = (name.clone(), name, relation, dest, any::<bool>(), slack).prop_map(
        |(me, friend, relation, dest, cancel_if_pending, deadline_slack)| TimedStep {
            step: Step {
                me: me.to_string(),
                friend: friend.to_string(),
                relation: relation.to_string(),
                dest: dest.to_string(),
                cancel_if_pending,
            },
            deadline_slack,
        },
    );
    (
        proptest::collection::vec(step, 1..16),
        0usize..18,
        0u64..1000,
    )
        .prop_map(|(steps, crash_after, seed)| TimedScenario {
            crash_after,
            steps,
            seed,
        })
}

/// Runs one timed step at index `k`: submit with the step's deadline,
/// then cancel when asked and still pending.
fn run_timed_step(co: &ShardedCoordinator, k: usize, timed: &TimedStep) {
    let opts = SubmitOptions {
        deadline: timed.deadline_slack.map(|s| sweep_time(k + s as usize)),
    };
    let outcome = single(co, &timed.step.me, &pair_sql(&timed.step), opts)
        .map(Submission::from)
        .expect("generated queries are safe");
    if timed.step.cancel_if_pending {
        if let Submission::Pending(future) = outcome {
            let _ = co.cancel(future.id());
        }
    }
}

fn scenario_db() -> Database {
    let db = Database::with_wal(Wal::in_memory());
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

fn pair_sql(step: &Step) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER {rel} \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
         AND ('{friend}', fno) IN ANSWER {rel} CHOOSE 1",
        me = step.me,
        friend = step.friend,
        rel = step.relation,
        dest = step.dest
    )
}

fn config(seed: u64) -> ShardedConfig {
    ShardedConfig {
        shards: 4,
        workers: 2,
        checkpoint: Default::default(),
        base: CoordinatorConfig {
            match_config: MatchConfig {
                randomize: false,
                ..MatchConfig::default()
            },
            seed,
            ..CoordinatorConfig::default()
        },
    }
}

/// Runs one step: submit, then cancel when asked and still pending.
fn run_step(co: &ShardedCoordinator, step: &Step) {
    let outcome = co
        .submit_sql(&step.me, &pair_sql(step))
        .expect("generated queries are safe");
    if step.cancel_if_pending {
        if let Submission::Pending(future) = outcome {
            // the partner may have raced in through a cascade; cancel
            // only what is genuinely still pending
            let _ = co.cancel(future.id());
        }
    }
}

/// Canonical end state: pending set + per-relation sorted answers.
type EndState = (Vec<(u64, String, String, u64)>, Vec<Vec<Vec<u8>>>);

fn end_state(co: &ShardedCoordinator) -> EndState {
    let pending = co
        .pending_snapshot()
        .into_iter()
        .map(|p| (p.id.0, p.owner, p.sql, p.seq))
        .collect();
    let answers = (0..4)
        .map(|k| {
            let mut rows: Vec<Vec<u8>> = co
                .answers(&format!("Res{k}"))
                .iter()
                .map(|t| t.encode().to_vec())
                .collect();
            rows.sort();
            rows
        })
        .collect();
    (pending, answers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kill-at-arbitrary-point + `recover()` == never crashed.
    #[test]
    fn crashed_and_recovered_equals_uncrashed(scenario in arb_scenario()) {
        let cfg = config(scenario.seed);
        let cut = scenario.crash_after.min(scenario.steps.len());

        // ---- control: the whole workload, no crash ----------------- //
        let control = ShardedCoordinator::with_config(scenario_db(), cfg);
        for step in &scenario.steps {
            run_step(&control, step);
        }
        control.check_routing_invariants().expect("control invariants");

        // ---- crashed run ------------------------------------------- //
        let db = scenario_db();
        let co = ShardedCoordinator::with_config(db.clone(), cfg);
        for step in &scenario.steps[..cut] {
            run_step(&co, step);
        }
        let wal_bytes = db.wal_bytes().expect("WAL-backed scenario db");
        drop(co);
        drop(db);

        let (recovered, report) =
            ShardedCoordinator::recover(Wal::from_bytes(wal_bytes), cfg)
                .expect("recovery succeeds");
        prop_assert_eq!(recovered.pending_count(), report.restored_pending);
        recovered
            .check_routing_invariants()
            .expect("invariants hold right after recovery");
        for step in &scenario.steps[cut..] {
            run_step(&recovered, step);
        }
        recovered
            .check_routing_invariants()
            .expect("invariants hold at the end of the recovered run");

        // ---- equivalence ------------------------------------------- //
        prop_assert_eq!(end_state(&recovered), end_state(&control));
    }

    /// Async flavor of the crash property (async-submission PR): the
    /// workload prefix is submitted as futures, every
    /// future held by a `WaiterSet` that is **dropped at the kill
    /// point** (the front-end dies with its wakers). After `recover`,
    /// `reattach` hands back live futures for the still-pending
    /// queries; finishing the workload resolves them with exactly the
    /// answers of the uncrashed sync control run, and the end states
    /// coincide.
    #[test]
    fn dropped_async_waiters_resume_after_crash(scenario in arb_scenario()) {
        use std::collections::HashMap;
        use youtopia::{CoordinationOutcome, WaiterSet};

        let cfg = config(scenario.seed);
        let cut = scenario.crash_after.min(scenario.steps.len());

        // ---- control: sync, no crash, notifications collected ------ //
        let control = ShardedCoordinator::with_config(scenario_db(), cfg);
        let mut control_answers: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
        let mut record = |n: &youtopia::MatchNotification| {
            let answers: Vec<Vec<u8>> =
                n.answers.iter().map(|(_, t)| t.encode().to_vec()).collect();
            control_answers.insert(n.id.0, answers);
        };
        let mut control_futures = Vec::new();
        for step in &scenario.steps {
            match control
                .submit_sql(&step.me, &pair_sql(step))
                .expect("generated queries are safe")
            {
                Submission::Answered(n) => record(&n),
                Submission::Pending(future) => {
                    if step.cancel_if_pending {
                        let _ = control.cancel(future.id());
                    } else {
                        control_futures.push(future);
                    }
                }
            }
        }
        for mut future in control_futures {
            if let Some(CoordinationOutcome::Answered(n)) = future.try_take() {
                record(&n);
            }
        }

        // ---- crashed run: async prefix, waiters die at the kill ---- //
        let db = scenario_db();
        let co = ShardedCoordinator::with_config(db.clone(), cfg);
        let mut waiters = WaiterSet::new();
        for step in &scenario.steps[..cut] {
            let future = single(&co, &step.me, &pair_sql(step), SubmitOptions::default())
                .expect("generated queries are safe");
            if step.cancel_if_pending && !future.is_complete() {
                let _ = co.cancel(future.id());
            }
            waiters.insert(future);
        }
        let wal_bytes = db.wal_bytes().expect("WAL-backed scenario db");
        drop(waiters); // the front-end dies with its futures
        drop(co);
        drop(db);

        let (recovered, _) = ShardedCoordinator::recover(Wal::from_bytes(wal_bytes), cfg)
            .expect("recovery succeeds");
        // every owner reconnects and resumes its coordinations as
        // futures; the suffix of the workload runs async as well
        let owners: std::collections::BTreeSet<String> = recovered
            .pending_snapshot()
            .into_iter()
            .map(|p| p.owner)
            .collect();
        let mut waiters = WaiterSet::new();
        for owner in owners {
            for future in recovered.reattach(&owner) {
                waiters.insert(future);
            }
        }
        prop_assert_eq!(waiters.len(), recovered.pending_count());
        for step in &scenario.steps[cut..] {
            let future = single(&recovered, &step.me, &pair_sql(step), SubmitOptions::default())
                .expect("generated queries are safe");
            if step.cancel_if_pending && !future.is_complete() {
                let _ = recovered.cancel(future.id());
            }
            waiters.insert(future);
        }

        // harvest: wakers fire synchronously inside the submit calls,
        // so one non-blocking poll sees every resolution
        for (qid, outcome) in waiters.poll_ready() {
            match outcome {
                CoordinationOutcome::Answered(n) => {
                    prop_assert_eq!(n.id.0, qid.0);
                    let answers: Vec<Vec<u8>> =
                        n.answers.iter().map(|(_, t)| t.encode().to_vec()).collect();
                    let control = control_answers.get(&qid.0).unwrap_or_else(|| {
                        panic!("query {qid} answered after recovery but not in control")
                    });
                    prop_assert_eq!(
                        &answers, control,
                        "post-recovery future resolved with different answers"
                    );
                }
                CoordinationOutcome::Cancelled => {
                    prop_assert!(
                        !control_answers.contains_key(&qid.0),
                        "cancelled in the recovered run but answered in control"
                    );
                }
                other => prop_assert!(false, "unexpected terminal outcome {:?}", other),
            }
        }
        // the futures still in flight are exactly the pending set
        let still_pending: Vec<u64> = waiters.ids().into_iter().map(|q| q.0).collect();
        let mut pending_ids: Vec<u64> = recovered
            .pending_snapshot()
            .into_iter()
            .map(|p| p.id.0)
            .collect();
        pending_ids.sort_unstable();
        prop_assert_eq!(still_pending, pending_ids);

        // ---- equivalence ------------------------------------------- //
        prop_assert_eq!(end_state(&recovered), end_state(&control));
    }

    /// Deadline-lifecycle PR: queries with **logged deadlines**, after
    /// kill + recover, expire at the same mock-clock times as the
    /// uncrashed control run. The workload runs on a step clock
    /// (`sweep_time(k) = (k+1)*10`): every step is a submission
    /// (optionally deadline-carrying, optionally cancelled) followed
    /// by an `expire_due` sweep at that step's time. The crash lands
    /// *between* step `cut`'s submission and its sweep — recovery at
    /// `MockClock::new(sweep_time(cut))` must perform exactly the
    /// sweep the crash swallowed, so the runs converge to identical
    /// end states.
    #[test]
    fn logged_deadlines_expire_at_control_times_after_crash(scenario in arb_timed_scenario()) {
        let cfg = config(scenario.seed);
        let steps = &scenario.steps;
        let cut = scenario.crash_after.min(steps.len());

        // ---- control: submissions + sweeps, never killed ----------- //
        let control = ShardedCoordinator::with_config(scenario_db(), cfg);
        for (k, step) in steps.iter().enumerate() {
            run_timed_step(&control, k, step);
            control.expire_due(sweep_time(k));
        }
        control.check_routing_invariants().expect("control invariants");

        // ---- crashed run ------------------------------------------- //
        let db = scenario_db();
        let co = ShardedCoordinator::with_config(db.clone(), cfg);
        for (k, step) in steps.iter().enumerate().take(cut) {
            run_timed_step(&co, k, step);
            co.expire_due(sweep_time(k));
        }
        if cut < steps.len() {
            // the step whose sweep the crash swallows
            run_timed_step(&co, cut, &steps[cut]);
        }
        let wal_bytes = db.wal_bytes().expect("WAL-backed scenario db");
        drop(co);
        drop(db);

        // recover "at" the time of the swallowed sweep (or the last
        // completed one when the crash fell after the final step)
        let recover_at = sweep_time(cut.min(steps.len() - 1));
        let (recovered, _) = ShardedCoordinator::recover_with(
            Wal::from_bytes(wal_bytes),
            cfg,
            None,
            std::sync::Arc::new(MockClock::new(recover_at)),
        )
        .expect("recovery succeeds");
        recovered
            .check_routing_invariants()
            .expect("invariants hold right after recovery");
        for (k, step) in steps.iter().enumerate().skip(cut + 1) {
            run_timed_step(&recovered, k, step);
            recovered.expire_due(sweep_time(k));
        }

        // ---- equivalence: same pending set, same answers ----------- //
        prop_assert_eq!(end_state(&recovered), end_state(&control));
        // and the pending deadlines themselves coincide
        let deadlines = |co: &ShardedCoordinator| -> Vec<(u64, Option<u64>)> {
            co.pending_snapshot().into_iter().map(|p| (p.id.0, p.deadline)).collect()
        };
        prop_assert_eq!(deadlines(&recovered), deadlines(&control));
    }

    /// Group-commit PR: the crash lands **mid-group-commit** — the
    /// writer's in-flight group reached the log torn and out of order
    /// (one frame damaged while a later frame, even the group's
    /// commit marker, landed intact). The group was never
    /// acknowledged, so recovery must roll it back automatically:
    /// recovering the damaged log equals recovering the clean log (no
    /// `WalCorrupt`, no manual truncation), and finishing the
    /// workload converges to the uncrashed control run.
    #[test]
    fn killed_mid_group_commit_recovers_to_last_complete_commit(scenario in arb_scenario()) {
        let cfg = config(scenario.seed);
        let cut = scenario.crash_after.min(scenario.steps.len());

        // ---- control: the whole workload, no crash ----------------- //
        let control = ShardedCoordinator::with_config(scenario_db(), cfg);
        for step in &scenario.steps {
            run_step(&control, step);
        }

        // ---- crashed run: kill inside the writer's append window --- //
        let db = scenario_db();
        let co = ShardedCoordinator::with_config(db.clone(), cfg);
        for step in &scenario.steps[..cut] {
            run_step(&co, step);
        }
        let clean = db.wal_bytes().expect("WAL-backed scenario db");
        drop(co);
        drop(db);

        // the unsynced suffix the file may hold after such a crash: a
        // two-frame commit group plus its marker, persisted with one
        // frame torn — tear each frame in turn (frame k torn with
        // frame k+1 intact models the out-of-order persistence)
        let mut side = Wal::in_memory();
        side.append_record(&WalRecord::Coordination(vec![0u8; 24]))
            .unwrap();
        let frame_starts = [0usize, side.raw_bytes().unwrap().len()];
        side.append_record(&WalRecord::Coordination(vec![1u8; 16]))
            .unwrap();
        side.append_record(&WalRecord::CommitBoundary).unwrap();
        let group = side.raw_bytes().unwrap().to_vec();

        for tear_at in frame_starts {
            let mut torn = clean.clone();
            let splice_base = torn.len();
            torn.extend_from_slice(&group);
            torn[splice_base + tear_at + 8] ^= 0xff; // first payload byte

            let (from_torn, report) =
                ShardedCoordinator::recover(Wal::from_bytes(torn), cfg)
                    .expect("mid-group-commit crash recovers automatically");
            let (from_clean, _) =
                ShardedCoordinator::recover(Wal::from_bytes(clean.clone()), cfg)
                    .expect("clean recovery");
            prop_assert_eq!(from_torn.pending_count(), report.restored_pending);
            // the un-acked group never happened
            prop_assert_eq!(end_state(&from_torn), end_state(&from_clean));

            // and the recovered run still converges to the control
            for step in &scenario.steps[cut..] {
                run_step(&from_torn, step);
            }
            from_torn
                .check_routing_invariants()
                .expect("invariants hold at the end of the recovered run");
            prop_assert_eq!(end_state(&from_torn), end_state(&control));
        }
    }

    /// Recovering a log twice (double crash, no work in between) is
    /// idempotent: same pending set, same answers.
    #[test]
    fn double_recovery_is_idempotent(scenario in arb_scenario()) {
        let cfg = config(scenario.seed);
        let db = scenario_db();
        let co = ShardedCoordinator::with_config(db.clone(), cfg);
        for step in &scenario.steps {
            run_step(&co, step);
        }
        let bytes = db.wal_bytes().unwrap();
        drop(co);
        drop(db);

        let (first, _) = ShardedCoordinator::recover(Wal::from_bytes(bytes), cfg)
            .expect("first recovery");
        let bytes2 = first.db().wal_bytes().unwrap();
        let state1 = end_state(&first);
        drop(first);
        let (second, _) = ShardedCoordinator::recover(Wal::from_bytes(bytes2), cfg)
            .expect("second recovery");
        prop_assert_eq!(end_state(&second), state1);
    }
}

// --------------------------------------------------------------------
// Observability PR: the audit ledger is an exact, durable projection
// of the coordination log.
// --------------------------------------------------------------------

/// `config(seed)` with the audit sink switched on (default retention:
/// far larger than any generated workload, so rotation never fires).
fn audited_config(seed: u64) -> ShardedConfig {
    let mut cfg = config(seed);
    cfg.base.audit = AuditConfig::enabled();
    cfg
}

/// The whole `sys_audit` relation (all four generated tenants),
/// canonically ordered by `(qid, kind)` for comparison.
fn audit_ledger(co: &ShardedCoordinator) -> Vec<AuditRecord> {
    let mut rows: Vec<AuditRecord> = ["A", "B", "C", "D"]
        .iter()
        .flat_map(|t| tenant_audit(co.db(), t, usize::MAX))
        .collect();
    rows.sort_by(|a, b| (a.qid, &a.kind).cmp(&(b.qid, &b.kind)));
    rows
}

/// The whole `sys_tenant_latency` relation as sorted `(tenant,
/// outcome, bucket, count)` tuples.
fn histogram_state(co: &ShardedCoordinator) -> Vec<(String, String, u32, u64)> {
    let mut rows: Vec<(String, String, u32, u64)> = latency_histogram(co.db(), None)
        .into_iter()
        .map(|b| (b.tenant, b.outcome, b.bucket, b.count))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ledger-closure property: after a random submit/cancel/expire/
    /// match workload with auditing on, the `sys_audit` rows reconcile
    /// exactly with (a) the coordinator's `stats()` counters, (b) the
    /// live pending set, (c) the `sys_tenant_latency` roll-up, and
    /// (d) the coordination frames actually in the WAL.
    #[test]
    fn audit_ledger_reconciles_with_stats_and_wal(scenario in arb_timed_scenario()) {
        use std::collections::{BTreeMap, BTreeSet};

        let cfg = audited_config(scenario.seed);
        let db = scenario_db();
        let co = ShardedCoordinator::with_config(db.clone(), cfg);
        for (k, step) in scenario.steps.iter().enumerate() {
            run_timed_step(&co, k, step);
            co.expire_due(sweep_time(k));
        }

        let rows = audit_ledger(&co);
        let stats = co.stats();
        let tally = |pred: &dyn Fn(&AuditRecord) -> bool| -> u64 {
            rows.iter().filter(|r| pred(r)).count() as u64
        };
        let submits = tally(&|r| r.kind == "submit");
        let answered = tally(&|r| r.outcome == "answered");
        let cancelled = tally(&|r| r.outcome == "cancelled");
        let expired = tally(&|r| r.outcome == "expired");

        // (a) counters
        prop_assert_eq!(submits, stats.submitted);
        prop_assert_eq!(answered, stats.answered);
        prop_assert_eq!(expired, stats.expired);

        // per-row shape: submit rows are open, terminal rows carry a
        // resolution time and the latency derived from it
        for r in &rows {
            if r.kind == "submit" {
                prop_assert_eq!(r.outcome.as_str(), "pending");
                prop_assert!(r.resolved_at.is_none() && r.latency_micros.is_none());
            } else {
                let resolved = r.resolved_at.expect("terminal rows carry resolved_at");
                prop_assert!(resolved >= r.submitted_at);
                prop_assert_eq!(
                    r.latency_micros,
                    Some(resolved.saturating_sub(r.submitted_at).saturating_mul(1000))
                );
            }
        }

        // (b) closure: every submitted qid is terminal xor still pending
        let submitted_ids: BTreeSet<u64> =
            rows.iter().filter(|r| r.kind == "submit").map(|r| r.qid).collect();
        let terminal_ids: BTreeSet<u64> =
            rows.iter().filter(|r| r.kind != "submit").map(|r| r.qid).collect();
        let pending_ids: BTreeSet<u64> =
            co.pending_snapshot().into_iter().map(|p| p.id.0).collect();
        prop_assert!(terminal_ids.is_subset(&submitted_ids));
        prop_assert!(pending_ids.is_disjoint(&terminal_ids));
        let closed: BTreeSet<u64> = terminal_ids.union(&pending_ids).copied().collect();
        prop_assert_eq!(submitted_ids, closed);

        // (c) the histogram roll-up is exactly the terminal rows,
        // grouped by (tenant, outcome, log2 bucket)
        let mut grouped: BTreeMap<(String, String, u32), u64> = BTreeMap::new();
        for r in rows.iter().filter(|r| r.kind != "submit") {
            let bucket = latency_bucket(r.latency_micros.unwrap());
            *grouped.entry((r.tenant.clone(), r.outcome.clone(), bucket)).or_default() += 1;
        }
        let expected: Vec<(String, String, u32, u64)> = grouped
            .into_iter()
            .map(|((t, o, b), n)| (t, o, b, n))
            .collect();
        prop_assert_eq!(histogram_state(&co), expected);

        // (d) the WAL's coordination frames tell the same story
        let mut wal = Wal::from_bytes(db.wal_bytes().expect("WAL-backed scenario db"));
        let (mut reg, mut cancels, mut expires, mut members) = (0u64, 0u64, 0u64, 0u64);
        for record in wal.replay_records().expect("log replays clean") {
            if let WalRecord::Coordination(payload) = record {
                match CoordEvent::decode(&payload).expect("frames decode") {
                    CoordEvent::QueryRegistered { .. } => reg += 1,
                    CoordEvent::QueryCancelled { .. } => cancels += 1,
                    CoordEvent::QueryExpired { .. } => expires += 1,
                    CoordEvent::MatchCommitted { qids, .. } => members += qids.len() as u64,
                    CoordEvent::Watermark { .. } => {}
                }
            }
        }
        prop_assert_eq!(reg, submits);
        prop_assert_eq!(cancels, cancelled);
        prop_assert_eq!(expires, expired);
        prop_assert_eq!(members, answered);
    }

    /// Crash-equivalence for the ledger itself: `sys_audit` and
    /// `sys_tenant_latency` are transient relations (never in the
    /// storage log), so recovery must rebuild them purely from the
    /// coordination frames — and the rebuilt relations must equal the
    /// pre-crash ones row for row, timestamps and shards included.
    #[test]
    fn crash_and_recover_reproduce_the_audit_ledger(scenario in arb_timed_scenario()) {
        let cfg = audited_config(scenario.seed);
        let db = scenario_db();
        let co = ShardedCoordinator::with_config(db.clone(), cfg);
        for (k, step) in scenario.steps.iter().enumerate() {
            run_timed_step(&co, k, step);
            co.expire_due(sweep_time(k));
        }
        let live_rows = audit_ledger(&co);
        let live_hist = histogram_state(&co);
        let bytes = db.wal_bytes().expect("WAL-backed scenario db");
        drop(co);
        drop(db);

        // recover "at" the final sweep already performed: the recovery
        // sweep re-expires nothing new, so the ledgers must coincide
        let recover_at = sweep_time(scenario.steps.len() - 1);
        let (recovered, _) = ShardedCoordinator::recover_with(
            Wal::from_bytes(bytes),
            cfg,
            None,
            std::sync::Arc::new(MockClock::new(recover_at)),
        )
        .expect("recovery succeeds");
        prop_assert_eq!(audit_ledger(&recovered), live_rows);
        prop_assert_eq!(histogram_state(&recovered), live_hist);
    }
}
