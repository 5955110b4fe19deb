//! The waiting friend hears back as soon as the closer is answered.
//!
//! A pair's first half is acknowledged with `Accepted` and then waits,
//! idle, for the `Done` push its partner's arrival produces. Whether
//! that push leaves at once is the server's business alone: with Nagle
//! on the accepted socket, the push waits behind the still
//! unacknowledged `Accepted` until the idle client's delayed ACK
//! releases it, about 40 ms later.
//!
//! So both clients here are plain sockets with the kernel defaults:
//! neither sets `TCP_NODELAY` nor `TCP_QUICKACK`, because either would
//! mask the server's side. Each round is one window-1 pair: the waiter
//! submits and reads `Accepted`, the closer submits and reads its own
//! `Done` reply, and the waiter reads its `Done` push.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use youtopia::net::{encode_frame, FrameReader, Outcome, ReadEvent, Request, Response};
use youtopia::{
    Clock, NetServer, ServerConfig, ShardedCoordinator, SystemClock, TenantQuotas, TenantRegistry,
    WorkloadGen,
};

const ROUNDS: u64 = 30;

/// Well under the ~40 ms delayed-ACK stall, well over a loopback
/// round trip on a loaded machine.
const BOUND: Duration = Duration::from_millis(10);

/// A session on a socket with every option at the kernel default.
struct Plain {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl Plain {
    fn hello(addr: SocketAddr, owner: &str) -> Plain {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = FrameReader::new(stream.try_clone().expect("clone"));
        let mut plain = Plain { stream, reader };
        plain.send(&Request::Hello {
            version: youtopia::net::PROTOCOL_VERSION,
            owner: owner.into(),
        });
        match plain.read() {
            Response::Welcome { .. } => plain,
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    fn send(&mut self, request: &Request) {
        self.stream
            .write_all(&encode_frame(&request.encode()))
            .expect("send");
    }

    fn submit(&mut self, corr: u64, me: &str, friend: &str) {
        self.send(&Request::Submit {
            corr,
            deadline: None,
            sql: WorkloadGen::pair_request(me, friend, "Paris").sql,
        });
    }

    fn read(&mut self) -> Response {
        match self.reader.read_event() {
            Ok(ReadEvent::Frame(payload)) => Response::decode(&payload).expect("decodes"),
            other => panic!("expected a frame, got {other:?}"),
        }
    }
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn the_waiting_friend_hears_back_without_a_delayed_ack_stall() {
    let db = WorkloadGen::new(0x9A1)
        .build_database(50, &["Paris", "Rome"])
        .expect("database builds");
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let server = NetServer::spawn(
        Arc::new(ShardedCoordinator::new(db)),
        TenantRegistry::new(TenantQuotas::unlimited()),
        ServerConfig::default(),
        clock,
    )
    .expect("server binds");
    let mut waiter = Plain::hello(server.local_addr(), "t/waiter");
    let mut closer = Plain::hello(server.local_addr(), "t/closer");

    let mut pushes = Vec::new();
    let mut replies = Vec::new();
    for round in 1..=ROUNDS {
        // fresh names every round, so no committed answer of an
        // earlier round can satisfy either half
        let (w, c) = (format!("W{round}"), format!("C{round}"));
        waiter.submit(round, &w, &c);
        let qid = match waiter.read() {
            Response::Accepted { corr, qid } if corr == round => qid,
            other => panic!("round {round}: expected Accepted, got {other:?}"),
        };
        let accepted = Instant::now();

        let sent = Instant::now();
        closer.submit(round, &c, &w);
        match closer.read() {
            Response::Done {
                corr,
                outcome: Outcome::Answered { .. },
                ..
            } if corr == round => replies.push(sent.elapsed()),
            other => panic!("round {round}: expected the closer's Done, got {other:?}"),
        }

        match waiter.read() {
            Response::Done {
                corr: 0,
                qid: pushed,
                outcome: Outcome::Answered { .. },
            } if pushed == qid => pushes.push(accepted.elapsed()),
            other => panic!("round {round}: expected the waiter's Done push, got {other:?}"),
        }
    }

    let (push, reply) = (median(pushes), median(replies));
    eprintln!(
        "median over {ROUNDS} rounds: Accepted -> Done push {push:?}, closer's Done {reply:?}"
    );
    assert!(
        push < BOUND,
        "the waiting session's Done push took {push:?} after its Accepted (median of {ROUNDS})"
    );
    assert!(
        reply < BOUND,
        "the closer's Done reply took {reply:?} (median of {ROUNDS})"
    );
    drop(server);
}
