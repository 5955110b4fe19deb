//! Slow-peer isolation under the readiness reactor.
//!
//! The threaded front-end had a latent stall: completion pushes went
//! through a per-session `Mutex<TcpStream>` with blocking writes, so
//! one peer that stopped reading could wedge the single event loop (and
//! with it every session's deliveries) once its kernel send buffer
//! filled. The reactor's contract is the opposite: writes never block,
//! per-connection outbound queues are bounded, and a peer that overruns
//! its queue is shed with a best-effort `Backpressure` close.
//!
//! This test runs one deliberately non-reading client against 64
//! healthy sessions doing request/response round trips and asserts
//! both halves of the contract: the healthy sessions' p99 stays in the
//! same regime while the flood is in progress, and the stalled peer is
//! disconnected (visible in `ServerStats::slow_peer_disconnects`).

use std::io::Write;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use youtopia::net::{FrameReader, Outcome, ReadEvent, Request, Response, SubmitOutcome};
use youtopia::{
    Clock, MockClock, NetClient, NetServer, ServerConfig, ShardedCoordinator, SystemClock,
    TenantQuotas, TenantRegistry, WorkloadGen,
};

const HEALTHY: usize = 64;
const OPS_PER_PHASE: usize = 20;
const FLOOD_FRAMES: usize = 12_000;

/// Shrink a socket's receive buffer so the flood's replies can't hide
/// in kernel buffering on the peer side (best-effort; the kernel
/// clamps).
fn shrink_rcvbuf(stream: &TcpStream, bytes: i32) {
    unsafe {
        libc::setsockopt(
            stream.as_raw_fd(),
            libc::SOL_SOCKET,
            libc::SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as libc::socklen_t,
        );
    }
}

fn spawn_server(config: ServerConfig) -> (NetServer, std::net::SocketAddr) {
    let mut generator = WorkloadGen::new(0x5EED);
    let db = generator
        .build_database(50, &["Paris", "Rome"])
        .expect("database builds");
    let co = Arc::new(ShardedCoordinator::new(db));
    let tenants = TenantRegistry::new(TenantQuotas::default());
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let server = NetServer::spawn(co, tenants, config, clock).expect("server binds");
    let addr = server.local_addr();
    (server, addr)
}

/// One timed request/response round trip per healthy session; returns
/// the latencies.
fn round_trips(clients: &mut [NetClient]) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(clients.len() * OPS_PER_PHASE);
    for _ in 0..OPS_PER_PHASE {
        for client in clients.iter_mut() {
            let started = Instant::now();
            client.stats().expect("healthy round trip");
            latencies.push(started.elapsed());
        }
    }
    latencies
}

fn p99(latencies: &mut [Duration]) -> Duration {
    latencies.sort();
    latencies[latencies.len() * 99 / 100]
}

#[test]
fn slow_peer_is_shed_and_healthy_sessions_unaffected() {
    let (server, addr) = spawn_server(ServerConfig {
        // shrink both the kernel send buffer and the outbound queue so
        // the overflow happens after tens of KiB, not megabytes
        send_buffer_bytes: Some(4 * 1024),
        max_outbound_bytes: 32 * 1024,
        ..ServerConfig::default()
    });

    let mut healthy: Vec<NetClient> = (0..HEALTHY)
        .map(|i| {
            let mut client = NetClient::connect(addr).expect("connect healthy");
            client.hello(&format!("good/s{i}")).expect("hello healthy");
            client
        })
        .collect();

    // ---- calm baseline --------------------------------------------- //
    let mut calm = round_trips(&mut healthy);
    let calm_p99 = p99(&mut calm);

    // ---- the slow peer: handshake, then flood without reading ------ //
    let mut peer = TcpStream::connect(addr).expect("connect slow peer");
    shrink_rcvbuf(&peer, 4 * 1024);
    peer.set_write_timeout(Some(Duration::from_secs(5))).ok();
    let hello = Request::Hello {
        version: youtopia::net::PROTOCOL_VERSION,
        owner: "slow/peer".into(),
    };
    peer.write_all(&youtopia::net::encode_frame(&hello.encode()))
        .expect("peer handshake");
    {
        let mut reader = FrameReader::new(peer.try_clone().expect("clone peer"));
        match reader.read_event().expect("welcome") {
            ReadEvent::Frame(payload) => {
                assert!(matches!(
                    Response::decode(&payload).expect("welcome decodes"),
                    Response::Welcome { .. }
                ));
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
    }
    // keep the socket open from this side even after the flood thread
    // finishes writing — otherwise the server sees a reset and closes
    // the connection before its outbound queue can overflow
    let peer_keepalive = peer.try_clone().expect("clone peer");
    let flood = std::thread::spawn(move || {
        // every Stats request earns a reply the peer never reads; the
        // write fails once the server sheds the connection
        let frame = youtopia::net::encode_frame(&Request::Stats { corr: 1 }.encode());
        for _ in 0..FLOOD_FRAMES {
            if peer.write_all(&frame).is_err() {
                break;
            }
        }
    });

    // ---- healthy traffic while the flood is in progress ------------ //
    let mut stalled = round_trips(&mut healthy);
    let stalled_p99 = p99(&mut stalled);

    // coordination still flows end to end: a pair posed across two of
    // the healthy sessions is answered while the peer floods
    let sql_a = WorkloadGen::pair_request_on("Reservation0", "good/s0", "good/s1", "Paris").sql;
    let sql_b = WorkloadGen::pair_request_on("Reservation0", "good/s1", "good/s0", "Paris").sql;
    let first = healthy[0].submit(&sql_a, None).expect("submit a");
    let second = healthy[1].submit(&sql_b, None).expect("submit b");
    for (idx, submitted) in [(0usize, first), (1usize, second)] {
        match submitted {
            SubmitOutcome::Done(_, Outcome::Answered { .. }) => {}
            SubmitOutcome::Done(qid, other) => panic!("q{qid} resolved {other:?}"),
            SubmitOutcome::Pending(qid) => loop {
                match healthy[idx]
                    .next_event(Duration::from_secs(10))
                    .expect("push stream healthy")
                {
                    Some((got, Outcome::Answered { .. })) if got == qid => break,
                    Some(_) => continue,
                    None => panic!("no completion push for q{qid} during flood"),
                }
            },
        }
    }

    flood.join().expect("flood thread");

    // ---- the peer was shed, the healthy world never noticed -------- //
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().slow_peer_disconnects == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.stats();
    assert!(
        stats.slow_peer_disconnects >= 1,
        "non-reading peer was never shed: {stats:?}"
    );
    // generous CI bound: same regime, not a wedge — the old design
    // stalled deliveries indefinitely here
    let bound = (calm_p99 * 4).max(Duration::from_millis(250));
    assert!(
        stalled_p99 <= bound,
        "healthy p99 degraded during flood: calm {calm_p99:?}, stalled {stalled_p99:?}"
    );

    // the shed connection's queue was released with it
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().queued_bytes > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.stats().queued_bytes,
        0,
        "queued bytes leaked after the shed"
    );

    drop(peer_keepalive);
    for client in &mut healthy {
        client.bye().ok();
    }
    drop(server);
}

/// The backpressure cap is per connection: a burst of sessions each
/// under the cap coexists with the accounting staying exact.
#[test]
fn queue_depth_accounting_settles_to_zero() {
    let (server, addr) = spawn_server(ServerConfig::default());
    let mut clients: Vec<NetClient> = (0..16)
        .map(|i| {
            let mut client = NetClient::connect(addr).expect("connect");
            client.hello(&format!("depth/s{i}")).expect("hello");
            client
        })
        .collect();
    for client in &mut clients {
        for _ in 0..8 {
            client.stats().expect("stats round trip");
        }
    }
    // the last reply's accounting races the client's read by a few
    // instructions; give the reactor a beat to settle
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().queued_bytes > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.active, 16);
    assert_eq!(stats.accepted, 16);
    assert_eq!(
        stats.queued_bytes, 0,
        "fully drained sessions must report an empty queue"
    );
    assert_eq!(stats.slow_peer_disconnects, 0);
    drop(clients);
    drop(server);
}

/// A mock-clock server still sheds a slow peer — backpressure is
/// byte-driven, not time-driven.
#[test]
fn shed_is_independent_of_the_clock() {
    let mut generator = WorkloadGen::new(7);
    let db = generator
        .build_database(20, &["Paris"])
        .expect("database builds");
    let co = Arc::new(ShardedCoordinator::new(db));
    let tenants = TenantRegistry::new(TenantQuotas::default());
    let clock: Arc<dyn Clock> = Arc::new(MockClock::new(1_000));
    let server = NetServer::spawn(
        co,
        tenants,
        ServerConfig {
            send_buffer_bytes: Some(4 * 1024),
            max_outbound_bytes: 16 * 1024,
            ..ServerConfig::default()
        },
        clock,
    )
    .expect("server binds");
    let addr = server.local_addr();

    let mut peer = TcpStream::connect(addr).expect("connect");
    shrink_rcvbuf(&peer, 4 * 1024);
    peer.set_write_timeout(Some(Duration::from_secs(5))).ok();
    let hello = Request::Hello {
        version: youtopia::net::PROTOCOL_VERSION,
        owner: "slow/mock".into(),
    };
    peer.write_all(&youtopia::net::encode_frame(&hello.encode()))
        .expect("handshake");
    let frame = youtopia::net::encode_frame(&Request::Stats { corr: 1 }.encode());
    for _ in 0..FLOOD_FRAMES {
        if peer.write_all(&frame).is_err() {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().slow_peer_disconnects == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        server.stats().slow_peer_disconnects >= 1,
        "mock-clock server failed to shed the flood: {:?}",
        server.stats()
    );
    drop(server);
}

/// Commit-pending frames count against the outbound bound: replies the
/// log has not covered yet are held, not written, so a peer that reads
/// everything it is sent is still shed once they pass
/// `max_outbound_bytes` — the hold never buffers without bound.
#[test]
fn commit_pending_frames_count_against_the_bound() {
    let db = WorkloadGen::new(0x5EED)
        .build_database_with_wal(50, &["Paris", "Rome"], youtopia::storage::Wal::in_memory())
        .expect("database builds");
    let co = Arc::new(ShardedCoordinator::new(db.clone()));
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let server = NetServer::spawn(
        co,
        TenantRegistry::new(TenantQuotas::default()),
        ServerConfig {
            max_outbound_bytes: 8 * 1024,
            ..ServerConfig::default()
        },
        clock,
    )
    .expect("server binds");

    let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = Request::Hello {
        version: youtopia::net::PROTOCOL_VERSION,
        owner: "held/peer".into(),
    };
    peer.write_all(&youtopia::net::encode_frame(&hello.encode()))
        .expect("handshake");
    let mut reader = FrameReader::new(peer.try_clone().expect("clone peer"));
    assert!(matches!(
        reader.read_event().expect("welcome"),
        ReadEvent::Frame(_)
    ));

    // hold the log: the submit's registration is enqueued but never
    // durable, so every reply from here on is commit-pending
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let holder = {
        let db = db.clone();
        std::thread::spawn(move || {
            db.with_log(|_| {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        })
    };
    held_rx.recv().expect("log held");
    let submit = Request::Submit {
        corr: 1,
        deadline: None,
        sql: WorkloadGen::pair_request_on("Reservation0", "held/peer", "ghost", "Paris").sql,
    };
    peer.write_all(&youtopia::net::encode_frame(&submit.encode()))
        .expect("submit");
    let stats = youtopia::net::encode_frame(&Request::Stats { corr: 2 }.encode());
    for _ in 0..1_000 {
        if peer.write_all(&stats).is_err() {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().slow_peer_disconnects == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.stats().slow_peer_disconnects,
        1,
        "held replies never reached the bound: {:?}",
        server.stats()
    );
    assert_eq!(server.stats().queued_bytes, 0, "the shed released the hold");
    // only the shed notice was written; nothing held ever left
    peer.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut seen = Vec::new();
    while let Ok(ReadEvent::Frame(payload)) = reader.read_event() {
        seen.push(Response::decode(&payload).expect("decodes"));
    }
    assert!(
        matches!(
            seen.as_slice(),
            [Response::Error {
                code: youtopia::net::ErrorCode::Backpressure,
                ..
            }]
        ),
        "{seen:?}"
    );
    release_tx.send(()).unwrap();
    holder.join().unwrap();
    drop(server);
}
