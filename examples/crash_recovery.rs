//! Kill/restart demo: the coordinator itself survives a crash.
//!
//! The `durability` example shows that *committed answers* survive;
//! this one shows that *pending coordination state* does too. A
//! WAL-backed sharded coordinator takes a multi-relation pair workload
//! part-way, is killed (every in-memory structure dropped — registry,
//! router, waiters), and is rebuilt from the log with
//! `ShardedCoordinator::recover`. Reconnecting users reattach to their
//! pending queries, the rest of the workload runs, and the final state
//! is compared against an uncrashed control run under the same seed.
//! A torn tail is also simulated: the salvaged log is cut mid-frame,
//! as a real crash during an append would leave it.
//!
//! Run with: `cargo run --release --example crash_recovery`
//!
//! Exits non-zero (panics) if the recovered run diverges from the
//! uncrashed one — CI runs this as the recovery smoke test.

use youtopia::storage::{Wal, WalRecord};
use youtopia::travel::{run_crash_restart, CrashScenario};
use youtopia::{ShardedConfig, ShardedCoordinator};

fn main() {
    // ---- part 1: in-memory kill/restart with equivalence check ----- //
    let mut config = ShardedConfig::default();
    config.base.match_config.randomize = false;
    let scenario = CrashScenario {
        seed: 2024,
        pairs: 40,
        noise: 120,
        relations: 8,
        flights: 120,
        batch_size: 32,
        crash_after: 180,
        config,
    };
    println!(
        "scenario: {} pairs + {} noise over {} relations, killed after {} submissions",
        scenario.pairs, scenario.noise, scenario.relations, scenario.crash_after
    );
    let report = run_crash_restart(&scenario).expect("scenario runs");
    println!(
        "before kill : {} answered, {} pending ({} bytes of WAL salvaged)",
        report.before.answered, report.before.pending, report.wal_bytes
    );
    println!(
        "recovery    : {} events replayed, {} pending restored, {} groups re-matched",
        report.recovery.events_replayed,
        report.recovery.restored_pending,
        report.recovery.rematched_groups
    );
    println!(
        "after restart: {} reattached waiters, {} answered, {} left pending",
        report.reattached, report.after.answered, report.pending_after
    );
    assert!(
        report.equivalent,
        "recovered run must match the uncrashed control run"
    );
    println!("equivalence  : crashed+recovered == uncrashed ✓");

    // ---- part 2: file-backed WAL with a torn tail ------------------ //
    let dir = std::env::temp_dir().join("youtopia_crash_recovery_demo");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal_path = dir.join("coordinator.wal");
    let _ = std::fs::remove_file(&wal_path);

    let mut generator = youtopia::WorkloadGen::new(7);
    let db = generator
        .build_database_with_wal(60, &["Paris"], Wal::open(&wal_path).expect("open wal"))
        .expect("database builds");
    let co = ShardedCoordinator::with_config(db, config);
    for request in generator.noise_multi(25, "Paris", 4) {
        co.submit_sql(&request.owner, &request.sql)
            .expect("noise submits");
    }
    assert_eq!(co.pending_count(), 25);
    drop(co); // kill

    // simulate a crash *mid-append*: tear the last frame of the file
    let bytes = std::fs::read(&wal_path).expect("read wal");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).expect("tear wal");

    let (recovered, file_report) =
        ShardedCoordinator::recover(Wal::open(&wal_path).expect("reopen wal"), config)
            .expect("recovery from torn file WAL");
    println!(
        "file WAL     : torn tail truncated, {} of 25 registrations recovered",
        file_report.restored_pending
    );
    // the torn frame was the last registration; everything else survives
    assert_eq!(file_report.restored_pending, 24);
    recovered
        .check_routing_invariants()
        .expect("routing invariants hold after file recovery");
    // and the recovered coordinator keeps working and logging
    let outcome = recovered.submit_sql(
        "late",
        "SELECT 'late', fno INTO ANSWER Reservation0 \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('ghost0', fno) IN ANSWER Reservation0 CHOOSE 1",
    );
    assert!(outcome.is_ok());
    std::fs::remove_file(&wal_path).expect("cleanup");
    println!("file WAL     : torn-tail recovery + continued logging ✓");

    // ---- part 3: a multi-frame batch torn mid-commit --------------- //
    // The group-commit writer was killed inside its append+sync
    // window: the log's unsynced suffix holds a multi-frame commit
    // group persisted OUT OF ORDER — frame k damaged while frame k+1
    // and even the group's commit marker landed. Before commit-
    // boundary markers this state replayed as a hard `WalCorrupt` and
    // needed manual truncation; now it recovers automatically to the
    // last complete commit.
    let wal_path = dir.join("torn_batch.wal");
    let _ = std::fs::remove_file(&wal_path);
    let mut generator = youtopia::WorkloadGen::new(11);
    let db = generator
        .build_database_with_wal(60, &["Paris"], Wal::open(&wal_path).expect("open wal"))
        .expect("database builds");
    let co = ShardedCoordinator::with_config(db, config);
    for request in generator.noise_multi(20, "Paris", 4) {
        co.submit_sql(&request.owner, &request.sql)
            .expect("noise submits");
    }
    assert_eq!(co.pending_count(), 20);
    drop(co); // kill

    // splice the torn group onto the synced log: two coordination
    // frames plus the marker, with the FIRST frame's payload damaged
    let mut side = Wal::in_memory();
    side.append_record(&WalRecord::Coordination(vec![0u8; 24]))
        .expect("side frame k");
    side.append_record(&WalRecord::Coordination(vec![1u8; 16]))
        .expect("side frame k+1");
    side.append_record(&WalRecord::CommitBoundary)
        .expect("side marker");
    let mut group = side.raw_bytes().expect("memory sink").to_vec();
    group[8] ^= 0xff; // tear frame k; frame k+1 and the marker stay intact
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    bytes.extend_from_slice(&group);
    std::fs::write(&wal_path, &bytes).expect("splice torn batch");

    let (recovered, batch_report) =
        ShardedCoordinator::recover(Wal::open(&wal_path).expect("reopen wal"), config)
            .expect("torn multi-frame batch recovers automatically");
    println!(
        "torn batch   : out-of-order unsynced group rolled back, {} of 20 registrations recovered",
        batch_report.restored_pending
    );
    // the un-acknowledged group vanishes; every acked registration survives
    assert_eq!(batch_report.restored_pending, 20);
    recovered
        .check_routing_invariants()
        .expect("routing invariants hold after torn-batch recovery");
    std::fs::remove_file(&wal_path).expect("cleanup");
    println!("torn batch   : automatic mid-commit crash recovery ✓");

    println!("\ncrash recovery demo complete");
}
