//! Property tests for the versioned `CoordEvent` wire encoding
//! (deadline-lifecycle PR, satellite 3): round-trip over randomized
//! events — deadlines included — plus backward compatibility: a WAL
//! written with **v1** (pre-deadline, tag 0) registration frames
//! replays cleanly and recovers with `deadline = None`, and a
//! deadline-less event still encodes to exactly the v1 bytes (so old
//! and new deadline-free logs are indistinguishable). The byte-level
//! truncation corpus lives in `crates/storage/tests/`.

use proptest::prelude::*;

use std::sync::Arc;

use youtopia::storage::{Tuple, Value, Wal, WalRecord};
use youtopia::{CoordEvent, MockClock, QueryId, RegStamp, ShardedConfig, ShardedCoordinator};

fn pair_sql(me: &str, friend: &str) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER Res \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
         AND ('{friend}', fno) IN ANSWER Res CHOOSE 1"
    )
}

/// Hand-encodes a **v1** `QueryRegistered` frame: tag 0, then
/// u32-length-prefixed owner and SQL, then qid and seq as big-endian
/// u64 — the exact layout every pre-deadline log contains.
fn v1_registered_bytes(owner: &str, sql: &str, qid: u64, seq: u64) -> Vec<u8> {
    let mut buf = vec![0u8];
    for s in [owner, sql] {
        buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    buf.extend_from_slice(&qid.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf
}

fn arb_stamp() -> impl Strategy<Value = Option<RegStamp>> {
    (any::<bool>(), any::<u64>(), any::<u32>())
        .prop_map(|(some, at, shard)| some.then_some(RegStamp { at, shard }))
}

fn arb_at() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_event() -> impl Strategy<Value = CoordEvent> {
    let name = "[a-z]{1,12}";
    let deadline = (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v));
    let registered = (
        name,
        "[ -~]{0,40}",
        any::<u64>(),
        any::<u64>(),
        deadline,
        arb_stamp(),
    )
        .prop_map(
            |(owner, sql, qid, seq, deadline, stamp)| CoordEvent::QueryRegistered {
                owner,
                sql,
                qid: QueryId(qid),
                seq,
                deadline,
                stamp,
            },
        );
    let cancelled = (any::<u64>(), arb_at()).prop_map(|(qid, at)| CoordEvent::QueryCancelled {
        qid: QueryId(qid),
        at,
    });
    let expired = (any::<u64>(), arb_at()).prop_map(|(qid, at)| CoordEvent::QueryExpired {
        qid: QueryId(qid),
        at,
    });
    let matched = (
        proptest::collection::vec(any::<u64>(), 0..5),
        proptest::collection::vec(("[A-Za-z]{1,8}", any::<i64>(), "[ -~]{0,12}"), 0..4),
        arb_at(),
    )
        .prop_map(|(qids, writes, at)| CoordEvent::MatchCommitted {
            qids: qids.into_iter().map(QueryId).collect(),
            answer_writes: writes
                .into_iter()
                .map(|(rel, n, s)| {
                    (
                        rel,
                        Tuple::new(vec![Value::Int(n), Value::from(s.as_str())]),
                    )
                })
                .collect(),
            at,
        });
    let watermark = (any::<u64>(), any::<u64>()).prop_map(|(qid, seq)| CoordEvent::Watermark {
        qid: QueryId(qid),
        seq,
    });
    prop_oneof![registered, cancelled, expired, matched, watermark]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every event — v1- or v2-encoded registrations included —
    /// round-trips through encode/decode unchanged.
    #[test]
    fn coord_event_roundtrip(event in arb_event()) {
        let bytes = event.encode();
        let decoded = CoordEvent::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, event);
    }

    /// Truncating an encoded event at any byte fails cleanly (never
    /// panics, never mis-decodes), and trailing garbage is rejected.
    #[test]
    fn coord_event_truncations_fail_cleanly(event in arb_event()) {
        let bytes = event.encode();
        for cut in 0..bytes.len() {
            prop_assert!(CoordEvent::decode(&bytes[..cut]).is_err());
        }
        let mut extended = bytes;
        extended.push(0);
        prop_assert!(CoordEvent::decode(&extended).is_err());
    }

    /// A deadline-less registration encodes to the exact v1 byte
    /// layout, and hand-built v1 bytes decode to `deadline: None` —
    /// the two directions of backward compatibility.
    #[test]
    fn v1_layout_compat(owner in "[a-z]{1,10}", sql in "[ -~]{0,30}",
                        qid in any::<u64>(), seq in any::<u64>()) {
        let event = CoordEvent::QueryRegistered {
            owner: owner.clone(),
            sql: sql.clone(),
            qid: QueryId(qid),
            seq,
            deadline: None,
            stamp: None,
        };
        let v1 = v1_registered_bytes(&owner, &sql, qid, seq);
        prop_assert_eq!(event.encode(), v1.clone());
        prop_assert_eq!(CoordEvent::decode(&v1).expect("v1 decodes"), event);
    }

    /// A stamped (v3) registration and a stamp-less one differ only by
    /// the audit stamp after a round trip: stripping the stamp from the
    /// decoded v3 event yields exactly the v1/v2 event — the versions
    /// describe one registration, not two.
    #[test]
    fn stamped_and_unstamped_registrations_agree(owner in "[a-z]{1,10}",
                                                 sql in "[ -~]{0,30}",
                                                 qid in any::<u64>(), seq in any::<u64>(),
                                                 deadline in proptest::option::of(any::<u64>()),
                                                 at in any::<u64>(), shard in any::<u32>()) {
        let stamped = CoordEvent::QueryRegistered {
            owner: owner.clone(),
            sql: sql.clone(),
            qid: QueryId(qid),
            seq,
            deadline,
            stamp: Some(RegStamp { at, shard }),
        };
        let decoded = CoordEvent::decode(&stamped.encode()).expect("v3 decodes");
        let CoordEvent::QueryRegistered { stamp, .. } = &decoded else {
            panic!("registration decodes as a registration");
        };
        prop_assert_eq!(*stamp, Some(RegStamp { at, shard }));
        let stripped = match decoded {
            CoordEvent::QueryRegistered { owner, sql, qid, seq, deadline, .. } => {
                CoordEvent::QueryRegistered { owner, sql, qid, seq, deadline, stamp: None }
            }
            other => other,
        };
        let plain = CoordEvent::QueryRegistered {
            owner, sql, qid: QueryId(qid), seq, deadline, stamp: None,
        };
        prop_assert_eq!(stripped, plain);
    }
}

/// A whole WAL written with v1 registration frames (the pre-deadline
/// on-disk format) recovers into a coordinator whose restored pending
/// queries carry `deadline = None` — and are therefore immortal, as
/// they were when written.
#[test]
fn v1_wal_recovers_with_no_deadlines() {
    let mut wal = Wal::in_memory();
    for (qid, me, friend, seq) in [(1u64, "A", "GhostA", 1u64), (2, "B", "GhostB", 2)] {
        wal.append_record(&WalRecord::Coordination(v1_registered_bytes(
            &me.to_lowercase(),
            &pair_sql(me, friend),
            qid,
            seq,
        )))
        .unwrap();
    }
    let bytes = wal.raw_bytes().unwrap().to_vec();

    let (co, report) =
        ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
    assert_eq!(report.restored_pending, 2);
    assert_eq!(report.expired_at_recovery, 0, "v1 queries never expire");
    let snap = co.pending_snapshot();
    assert_eq!(snap.len(), 2);
    for p in &snap {
        assert_eq!(p.deadline, None, "v1 frame implies no deadline");
    }
    // a past-everything deadline sweep still touches nothing
    assert!(co.expire_due(u64::MAX).is_empty());
    assert_eq!(co.pending_count(), 2);
}

/// Mixed log: v1 frames interleaved with v2 (deadline-carrying)
/// frames — recovery restores exactly the logged deadline per query.
#[test]
fn mixed_v1_v2_wal_restores_per_query_deadlines() {
    let mut wal = Wal::in_memory();
    wal.append_record(&WalRecord::Coordination(v1_registered_bytes(
        "a",
        &pair_sql("A", "GhostA"),
        1,
        1,
    )))
    .unwrap();
    wal.append_record(&WalRecord::Coordination(
        CoordEvent::QueryRegistered {
            owner: "b".into(),
            sql: pair_sql("B", "GhostB"),
            qid: QueryId(2),
            seq: 2,
            deadline: Some(77_000),
            stamp: None,
        }
        .encode(),
    ))
    .unwrap();
    let bytes = wal.raw_bytes().unwrap().to_vec();

    // recover "at" t=0 (mock clock), so the 77s deadline has not lapsed
    let (co, _) = ShardedCoordinator::recover_with(
        Wal::from_bytes(bytes),
        ShardedConfig::default(),
        None,
        Arc::new(MockClock::new(0)),
    )
    .unwrap();
    let snap = co.pending_snapshot();
    assert_eq!(snap.len(), 2);
    assert_eq!(snap[0].deadline, None);
    assert_eq!(snap[1].deadline, Some(77_000));
    // the v2 deadline is live: sweeping past it expires exactly query 2
    let expired = co.expire_due(77_000);
    assert_eq!(expired, vec![QueryId(2)]);
    assert_eq!(co.pending_count(), 1);
}
