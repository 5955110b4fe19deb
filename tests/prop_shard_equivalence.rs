//! Equivalence property: with `randomize` off and a fixed seed, the
//! coordinator at four shards fed one batch produces the **identical**
//! coordination outcomes — group members *and* answer tuples, query
//! ids, sequence numbers and pending snapshot — as the coordinator at
//! one shard fed the same requests one at a time (the paper's serial
//! component), on randomized travel workloads.
//!
//! Why this should hold exactly: ids are allocated in submission order
//! in both modes; a batch drain processes each shard's bucket
//! arrival-by-arrival, which is precisely the serial algorithm
//! restricted to that shard; and queries on different shards can never
//! interact (disjoint answer relations, so neither pending heads nor
//! committed answers cross over). With randomization disabled the
//! matcher is deterministic, so the per-shard runs reproduce the
//! one-shard run verbatim.
//!
//! The one-shard side is in turn pinned to a golden captured from the
//! serial `Coordinator` implementation this coordinator replaced
//! (parent commit 5f192d2): same ids, seqs, snapshot order, counters,
//! and the same seed-by-seed `CHOOSE` picks with randomization *on*.

use proptest::prelude::*;

use youtopia::core::MatchConfig;
use youtopia::{
    run_sql, CoordinationOutcome, Coordinator, CoordinatorConfig, Database, MatchNotification,
    ShardedConfig, ShardedCoordinator, Submission,
};

/// One generated workload: pair requests `(me, friend, relation, dest)`
/// over small pools, so coordinations actually fire and relations form
/// several independent components.
#[derive(Debug, Clone)]
struct Workload {
    requests: Vec<(String, String, String, String)>,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let relation = prop_oneof![Just("Res0"), Just("Res1"), Just("Res2"), Just("Res3")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    proptest::collection::vec((name.clone(), name, relation, dest), 1..14).prop_map(|reqs| {
        Workload {
            requests: reqs
                .into_iter()
                .map(|(a, b, r, d)| (a.to_string(), b.to_string(), r.to_string(), d.to_string()))
                .collect(),
        }
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

/// `(outcomes, still-pending ids, pending snapshot as (id, seq, owner))`.
type Run = (Vec<Outcome>, Vec<u64>, Vec<(u64, u64, String)>);

/// Collects every notification (immediate or delivered through a
/// pending handle), the still-pending ids, and the pending snapshot.
fn collect(co: &ShardedCoordinator, submissions: Vec<Submission>) -> Run {
    let mut outcomes = Vec::new();
    let mut pending = Vec::new();
    for submission in submissions {
        match submission {
            Submission::Answered(n) => outcomes.push(canonical(&n)),
            Submission::Pending(mut f) => match f.try_take() {
                Some(CoordinationOutcome::Answered(n)) => outcomes.push(canonical(&n)),
                Some(other) => panic!("nothing cancels or expires here: {other:?}"),
                None => pending.push(f.id().0),
            },
        }
    }
    outcomes.sort();
    pending.sort_unstable();
    let snapshot = co
        .pending_snapshot()
        .into_iter()
        .map(|p| (p.id.0, p.seq, p.owner))
        .collect();
    (outcomes, pending, snapshot)
}

/// Runs the workload through one shard, one request at a time: the
/// serial algorithm.
fn run_serial(w: &Workload, seed: u64) -> Run {
    let co = Coordinator::with_config(scenario_db(), config(seed));
    let submissions = w
        .requests
        .iter()
        .map(|(me, friend, rel, dest)| co.submit_sql(me, &pair_sql(me, friend, rel, dest)).unwrap())
        .collect();
    collect(&co, submissions)
}

/// Runs the workload through `shards` shards as one batch.
fn run_batch(w: &Workload, seed: u64, shards: usize) -> Run {
    let co = ShardedCoordinator::with_config(
        scenario_db(),
        ShardedConfig {
            shards,
            workers: 4,
            fair_drain: false,
            checkpoint: Default::default(),
            base: config(seed),
        },
    );
    let batch: Vec<(String, String)> = w
        .requests
        .iter()
        .map(|(me, friend, rel, dest)| (me.clone(), pair_sql(me, friend, rel, dest)))
        .collect();
    let submissions = co
        .submit_batch_sql(&batch)
        .into_iter()
        .map(|outcome| outcome.expect("generated queries are safe"))
        .collect();
    co.check_routing_invariants()
        .expect("routing invariants hold");
    collect(&co, submissions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The acceptance property of sharding: four shards draining a
    /// batch and one shard taking arrivals one at a time yield
    /// identical matches — same answered queries, same groups, same
    /// answer tuples — and identical pending sets (ids, seqs, order),
    /// under a fixed seed with randomization disabled.
    #[test]
    fn sharded_batch_equals_one_shard_serial(workload in arb_workload(), seed in 0u64..1000) {
        prop_assert_eq!(
            run_serial(&workload, seed),
            run_batch(&workload, seed, 4),
            "diverged on {:?}",
            &workload
        );
    }

    /// The same equivalence with a single shard on both sides: at one
    /// shard the batch drain *is* the arrival-by-arrival algorithm.
    #[test]
    fn one_shard_batch_equals_one_shard_serial(workload in arb_workload(), seed in 0u64..200) {
        prop_assert_eq!(run_serial(&workload, seed), run_batch(&workload, seed, 1));
    }
}

// ------------------------------------------------------------------ //
// Golden: one shard == the serial coordinator it replaced
// ------------------------------------------------------------------ //

fn golden_db(flights: &str) -> Database {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(&db, &format!("INSERT INTO Flights VALUES {flights}")).unwrap();
    db
}

fn fig1_db() -> Database {
    golden_db("(122, 'Paris'), (123, 'Paris'), (134, 'Paris'), (136, 'Rome')")
}

fn paris_db(n: i64) -> Database {
    let rows: Vec<String> = (0..n).map(|i| format!("({i}, 'Paris')")).collect();
    golden_db(&format!("{}, (900, 'Rome')", rows.join(", ")))
}

fn seeded(db: Database, seed: u64) -> Coordinator {
    Coordinator::with_config(
        db,
        CoordinatorConfig {
            seed,
            ..CoordinatorConfig::default()
        },
    )
}

fn chosen_fno(n: &MatchNotification) -> i64 {
    n.answers[0].1.values()[1].as_int().unwrap()
}

/// The flight the serial coordinator chose at the parent commit for
/// seeds `0..16`, randomization on: `tests/fig1_worked_example.rs`'s
/// Kramer/Jerry pair, `tests/choose_nondeterminism.rs`'s pair over
/// eight Paris flights and its singleton over six.
const FIG1_FNO: [i64; 16] = [
    123, 134, 123, 123, 123, 123, 122, 123, 134, 122, 122, 122, 122, 134, 134, 122,
];
const CHOOSE_PAIR_FNO: [i64; 16] = [3, 7, 1, 1, 0, 5, 3, 1, 2, 2, 2, 3, 7, 4, 1, 4];
const CHOOSE_SOLO_FNO: [i64; 16] = [3, 3, 4, 5, 3, 3, 4, 3, 4, 5, 0, 3, 5, 2, 4, 3];

#[test]
fn one_shard_makes_the_serial_coordinators_seeded_choices() {
    for seed in 0..16u64 {
        let co = seeded(fig1_db(), seed);
        let kramer = co
            .submit_sql(
                "kramer",
                &pair_sql("Kramer", "Jerry", "Reservation", "Paris"),
            )
            .unwrap();
        let jerry = co
            .submit_sql(
                "jerry",
                &pair_sql("Jerry", "Kramer", "Reservation", "Paris"),
            )
            .unwrap()
            .answered()
            .expect("pair matches");
        assert_eq!((kramer.id().0, jerry.id.0), (1, 2), "ids in arrival order");
        assert_eq!(
            chosen_fno(&jerry),
            FIG1_FNO[seed as usize],
            "fig1 seed {seed}"
        );

        let co = seeded(paris_db(8), seed);
        co.submit_sql("a", &pair_sql("A", "B", "R", "Paris"))
            .unwrap();
        let b = co
            .submit_sql("b", &pair_sql("B", "A", "R", "Paris"))
            .unwrap()
            .answered()
            .expect("pair matches");
        assert_eq!(
            chosen_fno(&b),
            CHOOSE_PAIR_FNO[seed as usize],
            "pair seed {seed}"
        );

        let co = seeded(paris_db(6), seed);
        let solo = co
            .submit_sql(
                "solo",
                "SELECT 'solo', fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') CHOOSE 1",
            )
            .unwrap()
            .answered()
            .expect("singleton grounds");
        assert_eq!(
            chosen_fno(&solo),
            CHOOSE_SOLO_FNO[seed as usize],
            "solo seed {seed}"
        );
    }
}

/// A mixed script at the default seed — pending arrivals, an unsafe
/// rejection in the middle, two closing pairs — against the serial
/// coordinator's record at the parent commit: the rejection burns no
/// id or seq, answers carry the same groups and flights, the snapshot
/// lists the survivors in id order with their original seqs.
#[test]
fn one_shard_reproduces_the_serial_coordinators_ids_seqs_and_snapshot() {
    let co = Coordinator::new(fig1_db());
    let pair = |me: &str, friend: &str, rel: &str| pair_sql(me, friend, rel, "Paris");
    let script = [
        ("w1", pair("W1", "Ghost1", "ResB")),
        ("kramer", pair("Kramer", "Jerry", "Reservation")),
        ("bad", "SELECT 'X', v INTO ANSWER R CHOOSE 1".to_string()),
        ("w2", pair("W2", "Ghost2", "ResA")),
        ("jerry", pair("Jerry", "Kramer", "Reservation")),
        ("w3", pair("W3", "Ghost3", "ResB")),
        ("elaine", pair("Elaine", "George", "ResA")),
        ("george", pair("George", "Elaine", "ResA")),
    ];
    let log: Vec<String> = script
        .iter()
        .map(|(owner, sql)| match co.submit_sql(owner, sql) {
            Ok(Submission::Answered(n)) => {
                let group: Vec<u64> = n.group.iter().map(|q| q.0).collect();
                format!("A{}:{group:?}:{}", n.id.0, chosen_fno(&n))
            }
            Ok(Submission::Pending(f)) => format!("P{}", f.id().0),
            Err(_) => "E".to_string(),
        })
        .collect();
    assert_eq!(
        log,
        [
            "P1",
            "P2",
            "E",
            "P3",
            "A4:[2, 4]:122",
            "P5",
            "P6",
            "A7:[6, 7]:134"
        ]
    );
    let snapshot: Vec<(u64, u64, String)> = co
        .pending_snapshot()
        .into_iter()
        .map(|p| (p.id.0, p.seq, p.owner))
        .collect();
    assert_eq!(
        snapshot,
        [
            (1, 1, "w1".to_string()),
            (3, 3, "w2".to_string()),
            (5, 5, "w3".to_string())
        ]
    );
    assert_eq!(co.current_seq(), 7);
    let stats = co.stats();
    assert_eq!(
        (
            stats.submitted,
            stats.answered,
            stats.groups_matched,
            stats.match_attempts,
            stats.rejected_unsafe
        ),
        (7, 4, 2, 7, 1)
    );
}
