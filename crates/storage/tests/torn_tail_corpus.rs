//! Torn-tail corpus: a crash can cut the WAL at *any* byte offset
//! (append-mode writes land as a prefix of the frame). Replay must
//! recover the longest committed prefix, truncate the torn bytes
//! away, and leave the log appendable — never report `WalCorrupt` for
//! a tail-only tear, and never mis-frame a subsequent append.

use youtopia_storage::{
    Column, DataType, Database, Schema, StorageError, Tuple, Value, Wal, WalOp, WalRecord,
};

fn schema() -> Schema {
    Schema::with_primary_key(
        vec![
            Column::new("fno", DataType::Int64),
            Column::new("dest", DataType::Str),
        ],
        &["fno"],
    )
}

/// A coordination payload shaped like the core layer's registration
/// events: tag 10, two u32-length-prefixed strings, qid and seq as
/// big-endian u64, then the optional deadline and audit stamp, each
/// behind a presence byte (the stamp is absent here). Storage treats
/// payloads as opaque; this shape keeps the truncation corpus
/// representative of real logs.
fn registration_payload(owner: &str, sql: &str, deadline: Option<u64>) -> Vec<u8> {
    let mut buf = vec![10];
    for s in [owner, sql] {
        buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    buf.extend_from_slice(&7u64.to_be_bytes()); // qid
    buf.extend_from_slice(&3u64.to_be_bytes()); // seq
    match deadline {
        Some(d) => {
            buf.push(1);
            buf.extend_from_slice(&d.to_be_bytes());
        }
        None => buf.push(0),
    }
    buf.push(0); // no audit stamp
    buf
}

/// A mixed log: table and index DDL and DML storage frames interleaved
/// with coordination frames of several sizes (including empty, and
/// registrations with and without a deadline).
fn corpus_records() -> Vec<WalRecord> {
    let mut records = vec![WalRecord::Storage(WalOp::CreateTable {
        name: "Flights".into(),
        schema: schema(),
        next_rid: 0,
    })];
    for i in 0..4 {
        records.push(WalRecord::Storage(WalOp::Insert {
            table: "Flights".into(),
            rid: i,
            tuple: Tuple::new(vec![Value::Int(100 + i as i64), Value::from("Paris")]),
        }));
        records.push(WalRecord::Coordination(vec![i as u8; i as usize * 7]));
    }
    records.push(WalRecord::Storage(WalOp::CreateIndex {
        table: "Flights".into(),
        name: "by_dest".into(),
        columns: vec!["dest".into()],
        unique: false,
    }));
    records.push(WalRecord::Storage(WalOp::DropIndex {
        table: "Flights".into(),
        name: "by_dest".into(),
    }));
    records.push(WalRecord::Coordination(registration_payload(
        "kramer",
        "SELECT 'K', fno INTO ANSWER R CHOOSE 1",
        None,
    )));
    records.push(WalRecord::Coordination(registration_payload(
        "newman",
        "SELECT 'N', fno INTO ANSWER R CHOOSE 1",
        Some(123_456),
    )));
    records.push(WalRecord::Storage(WalOp::Delete {
        table: "Flights".into(),
        rid: 2,
    }));
    records
}

/// The corpus log. With `seal_each`, each record is committed as a
/// group of its own (its frame, then a marker frame); without, the
/// records form one group whose marker is not written, so every frame
/// lies before the first marker. Returns the bytes and the boundaries:
/// 0, then the end of each group (sealed) or frame (unsealed).
fn corpus_bytes(seal_each: bool) -> (Vec<u8>, Vec<usize>) {
    let mut wal = Wal::in_memory();
    let mut boundaries = vec![0usize];
    for record in corpus_records() {
        wal.append_record(&record).unwrap();
        if seal_each {
            wal.append_record(&WalRecord::CommitBoundary).unwrap();
        }
        boundaries.push(wal.raw_bytes().unwrap().len());
    }
    (wal.raw_bytes().unwrap().to_vec(), boundaries)
}

/// How many whole groups fit into a prefix of `cut` bytes.
fn frames_below(boundaries: &[usize], cut: usize) -> usize {
    boundaries.iter().filter(|&&b| b != 0 && b <= cut).count()
}

/// Appends `record` as a commit group of its own.
fn commit(wal: &mut Wal, record: WalRecord) {
    wal.append_record(&record).unwrap();
    wal.append_record(&WalRecord::CommitBoundary).unwrap();
}

#[test]
fn truncation_at_every_offset_recovers_the_longest_prefix() {
    let (bytes, boundaries) = corpus_bytes(true);
    let records = corpus_records();
    for cut in 0..=bytes.len() {
        let (decoded, consumed) =
            Wal::decode_records(&bytes[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let expect = frames_below(&boundaries, cut);
        assert_eq!(decoded.len(), expect, "cut at {cut}");
        assert_eq!(consumed, boundaries[expect], "cut at {cut}");
        assert_eq!(decoded, records[..expect], "cut at {cut}");
    }
}

#[test]
fn truncated_memory_wal_is_appendable_after_replay() {
    let (bytes, boundaries) = corpus_bytes(true);
    let last_start = boundaries[boundaries.len() - 2];
    // byte-level truncations at every offset of the last group
    for cut in last_start..bytes.len() {
        let mut wal = Wal::from_bytes(bytes[..cut].to_vec());
        let recovered = wal.replay_records().unwrap();
        assert_eq!(recovered.len(), corpus_records().len() - 1, "cut at {cut}");
        assert_eq!(
            wal.raw_bytes().map(<[u8]>::len),
            Some(last_start),
            "torn bytes truncated"
        );
        // the log is clean again: appending and replaying roundtrips
        commit(&mut wal, WalRecord::Coordination(b"post-crash".to_vec()));
        let replayed = wal.replay_records().unwrap();
        assert_eq!(replayed.len(), corpus_records().len());
        assert_eq!(
            replayed.last().unwrap(),
            &WalRecord::Coordination(b"post-crash".to_vec())
        );
    }
}

#[test]
fn truncated_file_wal_is_truncated_on_disk_and_appendable() {
    let dir = std::env::temp_dir().join(format!("youtopia_torn_tail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (bytes, boundaries) = corpus_bytes(true);
    let last_start = boundaries[boundaries.len() - 2];
    // sample a handful of offsets inside the last group (full sweep is
    // the memory test's job; file IO is slower)
    let offsets: Vec<usize> = (last_start..bytes.len()).step_by(3).collect();
    for (i, &cut) in offsets.iter().enumerate() {
        let path = dir.join(format!("torn_{i}.wal"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            let recovered = wal.replay_records().unwrap();
            assert_eq!(recovered.len(), corpus_records().len() - 1, "cut at {cut}");
            // the torn bytes are gone from disk
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, last_start);
            commit(
                &mut wal,
                WalRecord::Storage(WalOp::Delete {
                    table: "Flights".into(),
                    rid: 0,
                }),
            );
            wal.sync().unwrap();
        }
        // a later process sees a clean log including the new append
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(
            wal.replay_records().unwrap().len(),
            corpus_records().len(),
            "cut at {cut}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

/// The corpus records split into two commit
/// groups, each sealed by a [`WalRecord::CommitBoundary`] frame.
/// Returns the bytes, the end of group 1 (just past its marker), and
/// the frame-start offsets of group 2: frame k, frame k+1, marker.
fn marker_corpus() -> (Vec<u8>, usize, Vec<usize>) {
    let mut group1 = corpus_records();
    let group2 = group1.split_off(group1.len() - 2);
    let mut wal = Wal::in_memory();
    for record in &group1 {
        wal.append_record(record).unwrap();
    }
    wal.append_record(&WalRecord::CommitBoundary).unwrap();
    let group1_end = wal.raw_bytes().unwrap().len();
    let mut starts = Vec::new();
    for record in &group2 {
        starts.push(wal.raw_bytes().unwrap().len());
        wal.append_record(record).unwrap();
    }
    starts.push(wal.raw_bytes().unwrap().len());
    wal.append_record(&WalRecord::CommitBoundary).unwrap();
    (wal.raw_bytes().unwrap().to_vec(), group1_end, starts)
}

#[test]
fn multi_frame_tear_rolls_back_to_the_last_commit_marker() {
    let (bytes, group1_end, starts) = marker_corpus();
    let all = corpus_records();
    let group1 = &all[..all.len() - 2];
    // A multi-frame commit group persisted out of order: frame k torn
    // while frame k+1 (and possibly the group's trailing marker) made
    // it to disk — and vice versa. Every shape must roll back to the
    // last complete commit, dropping even the intact frames of the
    // damaged group, and leave the log appendable.
    for (shape, cut) in [
        ("marker landed", bytes.len()),
        ("marker missing", starts[2]),
    ] {
        for &frame in &starts[..2] {
            let mut torn = bytes[..cut].to_vec();
            torn[frame + 8] ^= 0xff; // first payload byte of the frame
            let mut wal = Wal::from_bytes(torn);
            let recovered = wal
                .replay_records()
                .unwrap_or_else(|e| panic!("{shape}, torn frame at {frame}: {e}"));
            assert_eq!(recovered, group1, "{shape}, torn frame at {frame}");
            assert_eq!(
                wal.raw_bytes().map(<[u8]>::len),
                Some(group1_end),
                "{shape}: truncated to the last commit boundary"
            );
            // a subsequent (marker-sealed, as the group-commit writer
            // always writes) append produces a clean log again
            wal.append_record(&WalRecord::Coordination(b"post-crash".to_vec()))
                .unwrap();
            wal.append_record(&WalRecord::CommitBoundary).unwrap();
            let replayed = wal.replay_records().unwrap();
            assert_eq!(replayed.len(), group1.len() + 1);
            assert_eq!(
                replayed.last().unwrap(),
                &WalRecord::Coordination(b"post-crash".to_vec())
            );
        }
    }
}

#[test]
fn unsynced_group_without_its_marker_rolls_back_cleanly() {
    // no tear at all: both frames of group 2 are intact but the crash
    // cut the log before the group's marker — the group was never
    // acknowledged, so replay must drop it whole
    let (bytes, group1_end, starts) = marker_corpus();
    let all = corpus_records();
    let mut wal = Wal::from_bytes(bytes[..starts[2]].to_vec());
    let recovered = wal.replay_records().unwrap();
    assert_eq!(recovered, all[..all.len() - 2]);
    assert_eq!(wal.raw_bytes().map(<[u8]>::len), Some(group1_end));
}

#[test]
fn corrupt_final_frame_with_trailing_garbage_recovers_on_marker_logs() {
    // The final frame is corrupt AND followed by trailing garbage,
    // so the failure is not confined to exact end-of-buffer. After a
    // commit marker the case is decidable — everything past the last
    // marker is unsynced, so roll back to it.
    let (bytes, group1_end, starts) = marker_corpus();
    let all = corpus_records();
    let mut damaged = bytes.clone();
    damaged[starts[2] + 8] ^= 0xff; // corrupt group 2's marker frame
    damaged.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x0d]);
    let mut wal = Wal::from_bytes(damaged);
    let recovered = wal.replay_records().unwrap();
    assert_eq!(recovered, all[..all.len() - 2]);
    assert_eq!(wal.raw_bytes().map(<[u8]>::len), Some(group1_end));

    // the same pattern before any marker stays loud: with no boundary
    // to roll back to it is indistinguishable from mid-log corruption
    let (unsealed, boundaries) = corpus_bytes(false);
    let mut damaged = unsealed.clone();
    damaged[boundaries[boundaries.len() - 2] + 8] ^= 0xff;
    damaged.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x0d]);
    assert!(matches!(
        Wal::decode_records(&damaged),
        Err(StorageError::WalCorrupt(_))
    ));
}

#[test]
fn corruption_of_synced_groups_is_still_detected_on_marker_logs() {
    // corruption *before* the last commit boundary is synced-data
    // damage, not an unsynced-suffix tear: it must stay loud
    let (bytes, _group1_end, _starts) = marker_corpus();
    let mut corrupted = bytes.clone();
    corrupted[8] ^= 0xff; // first payload byte of the first frame
    assert!(matches!(
        Wal::decode_records(&corrupted),
        Err(StorageError::WalCorrupt(_))
    ));
}

#[test]
fn mid_log_corruption_is_still_detected() {
    let (bytes, boundaries) = corpus_bytes(false);
    // flip a payload byte in every frame *except the last*: corruption
    // before the first marker and before the tail must be reported,
    // never silently truncated
    for w in boundaries[..boundaries.len() - 2].windows(2) {
        let (start, _end) = (w[0], w[1]);
        let mut corrupted = bytes.clone();
        corrupted[start + 8] ^= 0xff; // first payload byte of the frame
        assert!(
            matches!(
                Wal::decode_records(&corrupted),
                Err(StorageError::WalCorrupt(_))
            ),
            "corruption at frame starting {start} must be detected"
        );
    }
}

/// The offset of every frame of `bytes`, read from the length headers.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut offset = 0;
    while offset < bytes.len() {
        starts.push(offset);
        let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap());
        offset += 8 + len as usize;
    }
    starts
}

/// The first transaction of a log creates a table and inserts two rows.
/// Cut inside its last insert, or just before its marker, it never
/// committed: recovery must apply none of it, not the frames that
/// happen to be intact, and leave an empty log that takes new commits.
#[test]
fn an_unterminated_first_group_recovers_nothing() {
    let db = Database::with_wal(Wal::in_memory());
    db.with_txn(|txn| {
        txn.create_table("Flights", schema())?;
        txn.insert(
            "Flights",
            Tuple::new(vec![Value::Int(122), Value::from("Paris")]),
        )?;
        txn.insert(
            "Flights",
            Tuple::new(vec![Value::Int(123), Value::from("Rome")]),
        )?;
        Ok(())
    })
    .unwrap();
    let bytes = db.wal_bytes().unwrap();
    let starts = frame_starts(&bytes);
    assert_eq!(starts.len(), 4, "create, two inserts, marker");
    let (last_insert, marker) = (starts[2], starts[3]);
    for (shape, cut) in [
        ("torn last insert", last_insert + 8 + 3),
        ("marker missing", marker),
    ] {
        let (recovered, coordination) =
            Database::recover(Wal::from_bytes(bytes[..cut].to_vec())).unwrap();
        assert!(coordination.is_empty(), "{shape}");
        assert!(
            !recovered.read().catalog().has_table("Flights"),
            "{shape}: the uncommitted transaction left a table"
        );
        assert_eq!(recovered.wal_bytes().map(|b| b.len()), Some(0), "{shape}");
        // the emptied log takes a new commit and replays it
        recovered
            .with_txn(|txn| txn.create_table("Hotels", schema()))
            .unwrap();
        let (again, _) =
            Database::recover(Wal::from_bytes(recovered.wal_bytes().unwrap())).unwrap();
        assert!(again.read().catalog().has_table("Hotels"), "{shape}");
        assert!(!again.read().catalog().has_table("Flights"), "{shape}");
    }
}
