//! Property tests for the `CoordEvent` wire encoding: every event
//! round-trips through encode/decode, every truncation fails cleanly,
//! and frames under the tags of retired layouts are rejected as
//! corrupt rather than misread. The byte-level WAL truncation corpus
//! lives in `crates/storage/tests/`.

use proptest::prelude::*;

use youtopia::storage::{StorageError, Wal, WalRecord};
use youtopia::{CoordEvent, QueryId, RegStamp, ShardedConfig, ShardedCoordinator};

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_stamp() -> impl Strategy<Value = Option<RegStamp>> {
    (any::<bool>(), any::<u64>(), any::<u32>())
        .prop_map(|(some, at, shard)| some.then_some(RegStamp { at, shard }))
}

fn arb_event() -> impl Strategy<Value = CoordEvent> {
    let registered = (
        "[a-z]{1,12}",
        "[ -~]{0,40}",
        any::<u64>(),
        any::<u64>(),
        arb_opt_u64(),
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
    let cancelled =
        (any::<u64>(), arb_opt_u64()).prop_map(|(qid, at)| CoordEvent::QueryCancelled {
            qid: QueryId(qid),
            at,
        });
    let expired = (any::<u64>(), arb_opt_u64()).prop_map(|(qid, at)| CoordEvent::QueryExpired {
        qid: QueryId(qid),
        at,
    });
    let matched =
        (proptest::collection::vec(any::<u64>(), 0..5), arb_opt_u64()).prop_map(|(qids, at)| {
            CoordEvent::MatchCommitted {
                qids: qids.into_iter().map(QueryId).collect(),
                at,
            }
        });
    let watermark = (any::<u64>(), any::<u64>()).prop_map(|(qid, seq)| CoordEvent::Watermark {
        qid: QueryId(qid),
        seq,
    });
    prop_oneof![registered, cancelled, expired, matched, watermark]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every event, with and without each optional field, round-trips
    /// through encode/decode unchanged.
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
}

/// A registration body of the retired layouts: owner, SQL, qid, seq.
fn registration_body(buf: &mut Vec<u8>) {
    for s in ["kramer", "SELECT 'K', fno INTO ANSWER R CHOOSE 1"] {
        buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    buf.extend_from_slice(&7u64.to_be_bytes()); // qid
    buf.extend_from_slice(&3u64.to_be_bytes()); // seq
}

/// A well-formed frame of each retired layout, by tag: registrations
/// without a deadline (0), with one (5) and with an audit stamp (6);
/// cancel, expiry and match without (1, 2, 3) and with (7, 8, 9) a
/// timestamp. Matches carry one member and an empty answer list.
fn retired_frame(tag: u8) -> Vec<u8> {
    let mut buf = vec![tag];
    match tag {
        0 | 5 | 6 => {
            registration_body(&mut buf);
            match tag {
                5 => buf.extend_from_slice(&900u64.to_be_bytes()),
                6 => {
                    buf.extend_from_slice(&[1]);
                    buf.extend_from_slice(&900u64.to_be_bytes()); // deadline
                    buf.extend_from_slice(&800u64.to_be_bytes()); // at
                    buf.extend_from_slice(&2u32.to_be_bytes()); // shard
                }
                _ => {}
            }
        }
        1 | 2 | 7 | 8 => {
            buf.extend_from_slice(&7u64.to_be_bytes());
            if tag >= 7 {
                buf.extend_from_slice(&800u64.to_be_bytes());
            }
        }
        3 | 9 => {
            buf.extend_from_slice(&1u32.to_be_bytes());
            buf.extend_from_slice(&7u64.to_be_bytes());
            buf.extend_from_slice(&0u32.to_be_bytes());
            if tag == 9 {
                buf.extend_from_slice(&800u64.to_be_bytes());
            }
        }
        t => unreachable!("tag {t} is not retired"),
    }
    buf
}

/// Frames of the retired layouts fail as corrupt, both to the codec
/// and to a recovery whose log holds one, instead of being misread as
/// one of today's events.
#[test]
fn retired_tags_decode_to_wal_corrupt() {
    for tag in (0..=3).chain(5..=9) {
        let frame = retired_frame(tag);
        assert!(
            matches!(CoordEvent::decode(&frame), Err(StorageError::WalCorrupt(_))),
            "tag {tag}"
        );
    }
    let mut wal = Wal::in_memory();
    wal.append_record(&WalRecord::Coordination(retired_frame(0)))
        .unwrap();
    wal.append_record(&WalRecord::CommitBoundary).unwrap();
    let bytes = wal.raw_bytes().unwrap().to_vec();
    assert!(ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).is_err());
}
