//! Per-layer probes: each times calls into one layer's public
//! functions, from outside, on the workload's own inputs and sink.

use std::time::Instant;

use youtopia_core::{compile_sql, tenant_audit, CandidateScan, Pending, QueryId, Registry};
use youtopia_exec::run_sql;
use youtopia_net::{encode_frame, FrameBuf, Request, Response};
use youtopia_storage::{Database, Tuple, Value, Wal};

use crate::gen::{self, Sink, Stream, DEST};
use crate::stack;
use crate::stats::median;

fn us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// Queries of the stream a probe works through (enough for a stable
/// mean, few enough to stay out of the run's time budget).
const PROBE_OPS: usize = 2_000;

/// `net.codec_us`: everything both ends do to move one submit and its
/// reply across the wire format — encode, frame, reassemble, decode —
/// per submit.
pub fn codec_us(stream: &Stream) -> f64 {
    let requests: Vec<Request> = stream
        .a_ops
        .iter()
        .take(PROBE_OPS)
        .filter_map(|op| Request::decode(&stream.frame(op)[8..]).ok())
        .collect();
    let mut buf = FrameBuf::new();
    let started = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        buf.push(&encode_frame(&request.encode()));
        let payload = buf.next_frame().ok().flatten().expect("whole frame");
        std::hint::black_box(Request::decode(&payload).expect("request decodes"));
        let reply = Response::Accepted {
            corr: i as u64 + 1,
            qid: i as u64 + 1,
        };
        buf.push(&encode_frame(&reply.encode()));
        let payload = buf.next_frame().ok().flatten().expect("whole frame");
        std::hint::black_box(Response::decode(&payload).expect("reply decodes"));
    }
    us(started) / requests.len().max(1) as f64
}

/// `core.registry_insert_us`, `core.candidates_us`,
/// `core.registry_remove_us`: a standalone `Registry` loaded to the
/// workload's standing size, then the workload's own compiled queries
/// inserted, probed and removed. µs per query.
pub fn registry_us(stream: &Stream, standing: usize) -> (f64, f64, f64) {
    let pending = |id: u64, owner: &str, sql: &str| {
        let qid = QueryId(id);
        Pending {
            id: qid,
            owner: owner.to_string(),
            query: compile_sql(sql)
                .expect("generated SQL compiles")
                .namespaced(qid),
            seq: id,
            deadline: None,
        }
    };
    let mut registry = Registry::new();
    for (i, noise) in gen::standing_noise(standing).iter().enumerate() {
        registry.insert(pending(i as u64 + 1, &noise.owner, &noise.sql));
    }
    let first = standing as u64 + 1;
    let fresh: Vec<Pending> = stream
        .a_ops
        .iter()
        .take(PROBE_OPS)
        .enumerate()
        .map(|(i, op)| pending(first + i as u64, "bench/a", &stream.sql(op)))
        .collect();
    let n = fresh.len().max(1) as f64;

    // candidates: what an arriving query asks the registry
    let mut out = Vec::new();
    let mut scan = CandidateScan::default();
    let started = Instant::now();
    for p in &fresh {
        let atoms: Vec<_> = p.query.constraints.iter().map(|c| &c.atom).collect();
        registry.candidates_for_batch(&atoms, &mut out, &mut scan);
        std::hint::black_box(&out);
    }
    let candidates = us(started) / n;

    let ids: Vec<QueryId> = fresh.iter().map(|p| p.id).collect();
    let started = Instant::now();
    for p in fresh {
        registry.insert(p);
    }
    let insert = us(started) / n;

    let started = Instant::now();
    for id in ids {
        std::hint::black_box(registry.remove(id));
    }
    let remove = us(started) / n;
    (insert, candidates, remove)
}

/// A payload the size of a `QueryRegistered` event for a pair query.
fn registration_payload(stream: &Stream) -> Vec<u8> {
    let sql = stream
        .a_ops
        .first()
        .map_or(String::new(), |op| stream.sql(op));
    let mut payload = vec![0u8; 48];
    payload.extend_from_slice(sql.as_bytes());
    payload
}

fn commits_for(sink: Sink) -> usize {
    match sink {
        Sink::File => 300,
        _ => 3_000,
    }
}

fn probe_db(sink: Sink) -> (Database, Option<stack::TempDir>) {
    match sink {
        Sink::None => (Database::new(), None),
        Sink::Memory => (Database::with_wal(Wal::in_memory()), None),
        Sink::File => {
            let dir = stack::TempDir::new();
            let wal = Wal::open(dir.path().join("probe.log")).expect("open probe WAL");
            (Database::with_wal(wal), Some(dir))
        }
    }
}

/// `storage.commit_us` and `storage.commit2_us`: median µs of one
/// durable `append_coordination_batch` from one committer, and from
/// two concurrent committers sharing the group-commit writer. Zero
/// where the workload has no WAL.
pub fn commit_us(stream: &Stream, sink: Sink) -> (f64, f64) {
    if sink == Sink::None {
        return (0.0, 0.0);
    }
    let payload = registration_payload(stream);
    let n = commits_for(sink);
    let committer = |db: &Database| {
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let started = Instant::now();
            db.append_coordination_batch(&[&payload])
                .expect("probe commit succeeds");
            samples.push(us(started));
        }
        samples
    };
    let (db, _dir) = probe_db(sink);
    let one = median(&committer(&db));
    let (db, _dir) = probe_db(sink);
    let two = std::thread::scope(|scope| {
        let other = scope.spawn(|| committer(&db));
        let mut samples = committer(&db);
        samples.extend(other.join().expect("second committer panicked"));
        median(&samples)
    });
    (one, two)
}

/// `storage.txn_us`: median µs of `with_txn` inserting one answer
/// tuple and committing — the apply path — on the workload's sink.
pub fn txn_us(seed: u64, sink: Sink) -> f64 {
    let (db, _dir) = stack::build_database(seed, sink);
    let n = commits_for(sink);
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let tuple = Tuple::new(vec![Value::Str(format!("probe{i}")), Value::Int(1000)]);
        let started = Instant::now();
        db.with_txn(|txn| txn.insert("Reservation", tuple).map(|_| ()))
            .expect("probe insert commits");
        samples.push(us(started));
    }
    median(&samples)
}

/// `exec.membership_us`: median µs of the grounding subquery.
pub fn membership_us(db: &Database) -> f64 {
    let sql = format!("SELECT fno FROM Flights WHERE dest = '{DEST}'");
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(run_sql(db, &sql).expect("membership query runs"));
            us(started)
        })
        .collect();
    median(&samples)
}

/// `exec.audit_query_us`: median µs of the tenant-scoped audit read
/// at whatever size the ring has reached. Zero with auditing off.
pub fn audit_query_us(db: &Database, audit: bool) -> f64 {
    if !audit {
        return 0.0;
    }
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(tenant_audit(db, "bench", 64));
            us(started)
        })
        .collect();
    median(&samples)
}

/// `storage.replay_mb_s`: `Wal::decode_records` over the recovery log.
pub fn replay_mb_s(log: &std::path::Path) -> f64 {
    let bytes = std::fs::read(log).expect("read the recovery log");
    let started = Instant::now();
    let (records, used) = Wal::decode_records(&bytes).expect("recovery log decodes");
    let secs = started.elapsed().as_secs_f64();
    std::hint::black_box(records);
    used as f64 / (1024.0 * 1024.0) / secs.max(1e-9)
}
