//! Commit-pending replies: the reactor never waits on the log, and
//! nothing leaves the server before the log holds what it depends on.
//!
//! The reactor submits and cancels through the coordinator's pipelined
//! entries and holds each frame until the database's durable LSN covers
//! the LSN enqueued when the frame was queued. These tests pin the
//! three sides of that contract: while the log is held nothing is
//! acknowledged yet every session is still decoded; a failed log turns
//! held replies into errors instead of stranding them; and because the
//! reactor no longer serialises on fsync, one sync covers many
//! sessions' submits.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use youtopia::net::{encode_frame, ErrorCode, FrameReader, ReadEvent, Request, Response};
use youtopia::storage::Wal;
use youtopia::{
    Clock, Database, NetServer, ServerConfig, ShardedCoordinator, SystemClock, TenantQuotas,
    TenantRegistry, WorkloadGen,
};

/// A session on a plain socket: requests go out without waiting for
/// their replies, and every frame is read as it comes.
struct Raw {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl Raw {
    fn hello(addr: SocketAddr, owner: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let reader = FrameReader::new(stream.try_clone().expect("clone"));
        let mut raw = Raw { stream, reader };
        raw.send(&Request::Hello {
            version: youtopia::net::PROTOCOL_VERSION,
            owner: owner.into(),
        });
        match raw.read(Duration::from_secs(10)) {
            Some(Response::Welcome { .. }) => raw,
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    fn send(&mut self, request: &Request) {
        self.stream
            .write_all(&encode_frame(&request.encode()))
            .expect("send");
    }

    fn submit(&mut self, corr: u64, sql: &str) {
        self.send(&Request::Submit {
            corr,
            deadline: None,
            sql: sql.into(),
        });
    }

    /// The next frame, or `None` when nothing arrives within `timeout`
    /// or the server closed the connection.
    fn read(&mut self, timeout: Duration) -> Option<Response> {
        self.stream
            .set_read_timeout(Some(timeout))
            .expect("read timeout");
        match self.reader.read_event() {
            Ok(ReadEvent::Frame(payload)) => Some(Response::decode(&payload).expect("decodes")),
            Ok(ReadEvent::Timeout | ReadEvent::Eof) | Err(_) => None,
        }
    }
}

fn serve(db: Database) -> (Arc<ShardedCoordinator>, NetServer) {
    let co = Arc::new(ShardedCoordinator::new(db));
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let server = NetServer::spawn(
        Arc::clone(&co),
        TenantRegistry::new(TenantQuotas::unlimited()),
        ServerConfig::default(),
        clock,
    )
    .expect("server binds");
    (co, server)
}

fn travel_db(wal: Wal) -> Database {
    WorkloadGen::new(0xD0A)
        .build_database_with_wal(50, &["Paris", "Rome"], wal)
        .expect("database builds")
}

fn pair_sql(relation: &str, me: &str, friend: &str) -> String {
    WorkloadGen::pair_request_on(relation, me, friend, "Paris").sql
}

/// Holds the log on a side thread until the returned sender is used
/// (or dropped).
fn hold_log(db: &Database) -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let db = db.clone();
    let holder = std::thread::spawn(move || {
        db.with_log(|_| {
            held_tx.send(()).unwrap();
            let _ = release_rx.recv();
        })
        .expect("durable database");
    });
    held_rx.recv().expect("log held");
    (release_tx, holder)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A frame's kind and correlation id, as the ordering checks compare them.
fn shape(resp: &Response) -> String {
    match resp {
        Response::Accepted { corr, .. } => format!("Accepted {corr}"),
        Response::Done { corr, .. } => format!("Done {corr}"),
        Response::StatsReply { corr, .. } => format!("StatsReply {corr}"),
        Response::CancelOk { corr } => format!("CancelOk {corr}"),
        other => format!("{other:?}"),
    }
}

#[test]
fn nothing_is_acknowledged_before_the_log_covers_it() {
    let db = travel_db(Wal::in_memory());
    let (co, server) = serve(db.clone());
    let addr = server.local_addr();
    let mut a = Raw::hello(addr, "t/a");
    let mut b = Raw::hello(addr, "t/b");

    let (release, holder) = hold_log(&db);
    // a's half of a pair, then b's unrelated standing queries: all
    // decoded and registered while the log is held
    a.submit(1, &pair_sql("Reservation0", "A", "B"));
    for k in 0..3u64 {
        b.submit(10 + k, &pair_sql(&format!("Solo{k}"), "B", "Ghost"));
    }
    wait_until("four pending queries", || co.pending_count() == 4);
    // a's stats reply is held behind its Accepted
    let queued = server.stats().queued_bytes;
    a.send(&Request::Stats { corr: 2 });
    wait_until("a's stats reply", || server.stats().queued_bytes > queued);
    // b closes a's pair: b's Done reply and a's push are held too
    b.submit(20, &pair_sql("Reservation0", "B", "A"));
    b.send(&Request::Stats { corr: 21 });
    wait_until("the pair to match", || co.pending_count() == 3);
    assert!(
        db.durable_lsn() < db.enqueued_lsn(),
        "the registrations and the match are still queued"
    );
    assert_eq!(
        a.read(Duration::from_millis(100)),
        None,
        "a got a frame early"
    );
    assert_eq!(
        b.read(Duration::from_millis(100)),
        None,
        "b got a frame early"
    );

    release.send(()).unwrap();
    holder.join().unwrap();
    let frames = |raw: &mut Raw, n: usize| -> Vec<String> {
        (0..n)
            .map(|_| shape(&raw.read(Duration::from_secs(10)).expect("a frame")))
            .collect()
    };
    assert_eq!(
        frames(&mut a, 3),
        ["Accepted 1", "StatsReply 2", "Done 0"],
        "a's frames in the order the server produced them"
    );
    assert_eq!(
        frames(&mut b, 5),
        [
            "Accepted 10",
            "Accepted 11",
            "Accepted 12",
            "Done 20",
            "StatsReply 21"
        ]
    );
    assert_eq!(db.durable_lsn(), db.enqueued_lsn());
    drop(server);
}

/// A cancel is acknowledged only once its frame is durable.
#[test]
fn cancel_ok_waits_for_the_cancel_frame() {
    let db = travel_db(Wal::in_memory());
    let (co, server) = serve(db.clone());
    let mut a = Raw::hello(server.local_addr(), "t/a");
    a.submit(1, &pair_sql("Solo", "A", "Ghost"));
    let qid = match a.read(Duration::from_secs(10)) {
        Some(Response::Accepted { qid, .. }) => qid,
        other => panic!("expected Accepted, got {other:?}"),
    };
    let (release, holder) = hold_log(&db);
    a.send(&Request::Cancel { corr: 2, qid });
    wait_until("the cancel", || co.pending_count() == 0);
    assert_eq!(
        a.read(Duration::from_millis(100)),
        None,
        "CancelOk came early"
    );
    release.send(()).unwrap();
    holder.join().unwrap();
    let got: Vec<String> = (0..2)
        .map(|_| shape(&a.read(Duration::from_secs(10)).expect("a frame")))
        .collect();
    assert_eq!(got, ["CancelOk 2", "Done 0"]);
    drop(server);
}

/// Writes to `/dev/full` fail with ENOSPC: the writer poisons on the
/// first group, the held reply becomes an `Internal` error, and later
/// submits are refused — no read hangs.
#[test]
fn a_failed_log_turns_held_replies_into_errors() {
    let db = Database::with_wal(Wal::open("/dev/full").expect("open /dev/full"));
    let (co, server) = serve(db.clone());
    let addr = server.local_addr();
    let mut a = Raw::hello(addr, "t/a");
    let mut b = Raw::hello(addr, "t/b");
    let lone = |me: &str| {
        format!("SELECT '{me}', 1 INTO ANSWER R WHERE ('Ghost', 1) IN ANSWER R CHOOSE 1")
    };

    a.submit(1, &lone("A"));
    match a.read(Duration::from_secs(10)) {
        Some(Response::Error { corr, code, .. }) => {
            assert_eq!((corr, code), (1, ErrorCode::Internal));
        }
        other => panic!("expected the held Accepted to fail, got {other:?}"),
    }
    assert_eq!(a.read(Duration::from_secs(10)), None, "a's session closes");
    assert!(db.log_failure().is_some());

    b.submit(7, &lone("B"));
    match b.read(Duration::from_secs(10)) {
        Some(Response::Error { corr, code, .. }) => {
            assert_eq!((corr, code), (7, ErrorCode::Internal));
        }
        other => panic!("expected the later submit to be refused, got {other:?}"),
    }
    assert_eq!(b.read(Duration::from_secs(10)), None, "b's session closes");
    // the refused submit never registered; the failed one stays in
    // memory, absent from the log, until a restart
    assert_eq!(co.pending_count(), 1);
    drop(server);
}

/// N submits cost far fewer than N syncs: the reactor keeps decoding
/// and enqueueing while the writer is busy, so one sync covers many
/// sessions' groups. The log is held while the submits arrive, so the
/// count does not depend on how fast this build processes a submit
/// relative to an fsync (the reactor of a blocking server would stall
/// on the first submit instead).
#[test]
fn pipelined_submits_share_syncs() {
    const PAIRS: u64 = 100;
    let dir = std::env::temp_dir().join(format!("youtopia_durable_ack_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let _ = std::fs::remove_file(&path);
    let db = travel_db(Wal::open(&path).unwrap());
    let (_co, server) = serve(db.clone());
    let addr = server.local_addr();
    let mut a = Raw::hello(addr, "t/a");
    let mut b = Raw::hello(addr, "t/b");
    let (syncs_before, enqueued_before) = (db.wal_syncs().unwrap(), db.enqueued_lsn());

    let (release, holder) = hold_log(&db);
    for p in 0..PAIRS {
        let rel = format!("Reservation{}", p % 4);
        a.submit(p + 1, &pair_sql(&rel, &format!("A{p}"), &format!("B{p}")));
        b.submit(p + 1, &pair_sql(&rel, &format!("B{p}"), &format!("A{p}")));
    }
    // two registrations and one match per pair, all enqueued while the
    // log is held
    wait_until("every group to be enqueued", || {
        db.enqueued_lsn() - enqueued_before == 3 * PAIRS
    });
    release.send(()).unwrap();
    holder.join().unwrap();
    // every submit gets its reply (pushes are interleaved and skipped)
    for raw in [&mut a, &mut b] {
        let mut replies = 0;
        while replies < PAIRS {
            match raw.read(Duration::from_secs(10)) {
                Some(Response::Done { corr: 0, .. }) => {}
                Some(Response::Accepted { .. } | Response::Done { .. }) => replies += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let submits = 2 * PAIRS;
    let syncs = db.wal_syncs().unwrap() - syncs_before;
    assert!(
        syncs < submits / 2,
        "{submits} pipelined submits took {syncs} syncs"
    );
    assert_eq!(db.wal_groups().unwrap() - enqueued_before, 3 * PAIRS);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
