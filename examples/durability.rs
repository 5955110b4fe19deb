//! Durability demo: coordinated answers survive a crash.
//!
//! Entangled matches are applied atomically inside a storage
//! transaction, and committed transactions reach the write-ahead log —
//! so the joint answers the coordinator produced are exactly as durable
//! as ordinary SQL writes. This example books a coordinated pair,
//! "crashes" (drops the process state), recovers from the WAL, verifies
//! the reservations, then compacts the log with a checkpoint.
//!
//! Run with: `cargo run --example durability`

use youtopia::storage::Wal;
use youtopia::{run_sql, Coordinator, Database, StatementOutcome};

fn main() {
    let dir = std::env::temp_dir().join("youtopia_durability_demo");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal_path = dir.join("demo.wal");
    let _ = std::fs::remove_file(&wal_path);

    // ---- session 1: build, coordinate, crash ------------------------- //
    println!(
        "session 1: creating database with WAL at {}",
        wal_path.display()
    );
    {
        let db = Database::with_wal(Wal::open(&wal_path).expect("open wal"));
        run_sql(
            &db,
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
        )
        .unwrap();
        run_sql(
            &db,
            "INSERT INTO Flights VALUES (122,'Paris'), (123,'Paris'), (136,'Rome')",
        )
        .unwrap();
        // churn to make the log worth compacting later
        for round in 0..20 {
            run_sql(
                &db,
                &format!("UPDATE Flights SET dest = 'Paris{round}' WHERE fno = 136"),
            )
            .unwrap();
        }
        run_sql(&db, "UPDATE Flights SET dest = 'Rome' WHERE fno = 136").unwrap();

        let co = Coordinator::new(db);
        co.submit_sql(
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        )
        .unwrap();
        let jerry = co
            .submit_sql(
                "jerry",
                "SELECT 'Jerry', fno INTO ANSWER Reservation \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
                 AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
            )
            .unwrap()
            .answered()
            .expect("pair matches");
        println!(
            "  coordinated on flight {} — then the process 'crashes'",
            jerry.answers[0].1.values()[1]
        );
        // db, coordinator dropped: simulated crash (the WAL has everything)
    }

    // ---- session 2: recover and verify -------------------------------- //
    println!("session 2: recovering from the WAL");
    let (recovered, _) =
        Database::recover(Wal::open(&wal_path).expect("reopen wal")).expect("replay succeeds");
    let StatementOutcome::Rows(rs) = run_sql(&recovered, "SELECT * FROM Reservation").unwrap()
    else {
        unreachable!()
    };
    assert_eq!(rs.rows.len(), 2, "both coordinated answers survived");
    println!("  recovered answer relation:");
    for row in &rs.rows {
        println!("    {row}");
    }
    let fnos: std::collections::HashSet<String> =
        rs.rows.iter().map(|r| r.values()[1].to_string()).collect();
    assert_eq!(fnos.len(), 1, "still the same coordinated flight");

    // ---- checkpoint: compact the churned log -------------------------- //
    let before = std::fs::metadata(&wal_path).unwrap().len();
    recovered.checkpoint().expect("checkpoint succeeds");
    let after = std::fs::metadata(&wal_path).unwrap().len();
    println!("checkpoint compacted the WAL: {before} -> {after} bytes");
    assert!(after < before, "dead updates were dropped");

    // the compacted log still recovers to the same state
    let (again, _) = Database::recover(Wal::open(&wal_path).unwrap()).unwrap();
    let StatementOutcome::Rows(rs2) = run_sql(&again, "SELECT COUNT(*) FROM Reservation").unwrap()
    else {
        unreachable!()
    };
    assert_eq!(rs2.rows[0].values()[0].as_int(), Some(2));
    println!("post-checkpoint recovery verified. done.");

    let _ = std::fs::remove_file(&wal_path);
}
