//! Equivalence property of the one arrival path: a single submit is a
//! batch of one, so how a workload is cut into calls must not matter.
//! With `randomize` off and a fixed seed, the same requests fed one at
//! a time (the paper's serial component), in any chunking of batches,
//! or as one batch — at one shard or four — produce the **identical**
//! coordination outcomes (group members *and* answer tuples), query
//! ids, sequence numbers, pending snapshot, tenant ledger and
//! coordination log, on randomized travel workloads.
//!
//! Why this should hold exactly: ids are allocated in submission order
//! in every mode; a drain processes each shard's bucket
//! arrival-by-arrival, inserting a query into the registry only when
//! its turn comes, which is precisely the serial algorithm restricted
//! to that shard; and queries on different shards can never interact
//! (disjoint answer relations, so neither pending heads nor committed
//! answers cross over). With randomization disabled the matcher is
//! deterministic, so every cut reproduces the one-at-a-time run
//! verbatim.
//!
//! The log is compared frame by frame, not as one byte string: a batch
//! commits its bucket's registrations as one group ahead of the
//! bucket's matches, and shards draining concurrently interleave their
//! groups. So commit markers are dropped, registration frames are
//! compared as a set, and every other frame is compared in log order
//! per relation it writes — one relation lives on one shard, whose
//! drain order is the arrival order.
//!
//! The one-shard side is in turn pinned to a golden captured from the
//! serial `Coordinator` implementation this coordinator replaced
//! (parent commit 5f192d2): same ids, seqs, snapshot order, counters,
//! and the same seed-by-seed `CHOOSE` picks with randomization *on*.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use youtopia::core::{MatchConfig, TenantStats};
use youtopia::storage::{Wal, WalRecord};
use youtopia::{
    compile_sql, run_sql, Ack, CoordEvent, CoordinationOutcome, Coordinator, CoordinatorConfig,
    Database, MatchNotification, ShardedConfig, ShardedCoordinator, Submission, SubmitOptions,
    TenantQuotas, TenantRegistry,
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

/// A durable scenario database: the log comparison reads its WAL.
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

/// The coordination log in the form every cut of a workload agrees on
/// (see the module docs): registration payloads sorted, every other
/// record in log order under the lowercased relation it writes. A match
/// frame is filed under the table of the insert before it, which its
/// own transaction wrote.
#[derive(Debug, PartialEq)]
struct Log {
    registrations: Vec<Vec<u8>>,
    effects: BTreeMap<String, Vec<WalRecord>>,
}

fn read_log(db: &Database) -> Log {
    let bytes = db.wal_bytes().expect("a durable database");
    let (records, _) = Wal::decode_records(&bytes).expect("the log decodes");
    let mut log = Log {
        registrations: Vec::new(),
        effects: BTreeMap::new(),
    };
    let mut last_table = String::new();
    for record in records {
        let relation = match &record {
            WalRecord::CommitBoundary => continue,
            WalRecord::Coordination(payload) => match CoordEvent::decode(payload) {
                Ok(CoordEvent::QueryRegistered { .. }) => {
                    log.registrations.push(payload.clone());
                    continue;
                }
                Ok(CoordEvent::MatchCommitted { .. }) => last_table.clone(),
                other => panic!("no cancel, expiry or watermark here: {other:?}"),
            },
            WalRecord::Storage(op) => {
                op.table().clone_into(&mut last_table);
                last_table.clone()
            }
        };
        log.effects
            .entry(relation.to_ascii_lowercase())
            .or_default()
            .push(record);
    }
    log.registrations.sort();
    log
}

/// Everything one run is compared on.
#[derive(Debug, PartialEq)]
struct Run {
    /// Every notification, immediate or delivered through a handle.
    outcomes: Vec<Outcome>,
    /// The still-pending ids.
    pending: Vec<u64>,
    /// The pending snapshot as `(id, seq, owner)`.
    snapshot: Vec<(u64, u64, String)>,
    /// The tenant ledger.
    ledger: Vec<TenantStats>,
    log: Log,
}

/// How a workload is cut into calls.
#[derive(Debug, Clone)]
enum Feed {
    /// One `submit_sql` per request.
    Singles,
    /// One `submit` per chunk, chunk sizes cycled over the
    /// workload (`vec![usize::MAX]` is one batch).
    Chunks(Vec<usize>),
}

fn one_batch() -> Feed {
    Feed::Chunks(vec![usize::MAX])
}

fn arb_chunks() -> impl Strategy<Value = Feed> {
    proptest::collection::vec(1usize..5, 1..6).prop_map(Feed::Chunks)
}

/// Runs the workload through `shards` shards, cut into calls by `feed`.
fn run(w: &Workload, seed: u64, shards: usize, feed: &Feed) -> Run {
    let db = scenario_db();
    let co = ShardedCoordinator::with_config(
        db.clone(),
        ShardedConfig {
            shards,
            workers: 4,
            checkpoint: Default::default(),
            base: config(seed),
        },
    );
    let tenants = TenantRegistry::new(TenantQuotas::unlimited());
    co.set_tenant_registry(Arc::clone(&tenants));
    let requests: Vec<(String, String)> = w
        .requests
        .iter()
        .map(|(me, friend, rel, dest)| (me.clone(), pair_sql(me, friend, rel, dest)))
        .collect();
    let safe = "generated queries are safe";
    let submissions: Vec<Submission> = match feed {
        Feed::Singles => requests
            .iter()
            .map(|(owner, sql)| co.submit_sql(owner, sql).expect(safe))
            .collect(),
        Feed::Chunks(sizes) => {
            let mut submissions = Vec::new();
            let mut rest = &requests[..];
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                let chunk = chunk
                    .iter()
                    .map(|(owner, sql)| (owner.clone(), compile_sql(sql), SubmitOptions::default()))
                    .collect();
                let outcomes = co.submit(chunk, Ack::Wait);
                submissions.extend(
                    outcomes
                        .into_iter()
                        .map(|o| Submission::from(o.expect(safe))),
                );
                rest = tail;
            }
            submissions
        }
    };
    co.check_routing_invariants()
        .expect("routing invariants hold");
    // four names, so a minimal group has at most four members
    common::assert_quiescent(&db, 4);

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
    Run {
        outcomes,
        pending,
        snapshot,
        ledger: tenants.stats(),
        log: read_log(&db),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The acceptance property of sharding: four shards draining a
    /// batch and one shard taking arrivals one at a time yield
    /// identical matches — same answered queries, same groups, same
    /// answer tuples — identical pending sets (ids, seqs, order), the
    /// same ledger and the same log frames, under a fixed seed with
    /// randomization disabled.
    #[test]
    fn sharded_batch_equals_one_shard_serial(workload in arb_workload(), seed in 0u64..1000) {
        prop_assert_eq!(
            run(&workload, seed, 1, &Feed::Singles),
            run(&workload, seed, 4, &one_batch()),
            "diverged on {:?}",
            &workload
        );
    }

    /// The same equivalence with a single shard on both sides: at one
    /// shard the batch drain *is* the arrival-by-arrival algorithm.
    #[test]
    fn one_shard_batch_equals_one_shard_serial(workload in arb_workload(), seed in 0u64..200) {
        prop_assert_eq!(
            run(&workload, seed, 1, &Feed::Singles),
            run(&workload, seed, 1, &one_batch())
        );
    }

    /// Any chunking == singles == one batch, at one shard and at four.
    #[test]
    fn any_chunking_equals_singles_and_one_batch(
        workload in arb_workload(),
        chunks in arb_chunks(),
        seed in 0u64..1000,
        shards in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let singles = run(&workload, seed, shards, &Feed::Singles);
        prop_assert_eq!(
            &singles,
            &run(&workload, seed, shards, &chunks),
            "{:?} diverged on {:?}",
            &chunks,
            &workload
        );
        prop_assert_eq!(&singles, &run(&workload, seed, shards, &one_batch()));
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
