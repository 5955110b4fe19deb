//! Group-commit pipeline throughput: the tentpole experiment for the
//! pipelined-WAL-writer PR, run over a **real temp-file WAL** (memory
//! sinks hide the fsync cost the pipeline exists to amortize).
//!
//! Compares two durability disciplines under N concurrent committers:
//!
//! * **fsync-per-commit** — the pre-pipeline discipline: every
//!   committer locks the shared log, appends its marker-sealed group,
//!   and syncs before acknowledging, so N committers pay N fsyncs;
//! * **pipelined** — the [`GroupCommit`] writer thread absorbs all
//!   committers into one queue and syncs each drained batch once, so
//!   concurrent commits share a single fsync per batch while every
//!   committer still blocks until its own group is durable.
//!
//! The headline numbers — commits/second for both disciplines, their
//! ratio, and an end-to-end sharded-submission run on a file-backed
//! WAL — are written to `BENCH_groupcommit.json` at the repository
//! root.
//!
//! Run with: `cargo bench -p youtopia-bench --bench group_commit`
//! (`YOUTOPIA_BENCH_FAST=1` runs the headline without writing the
//! artifact.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use youtopia_bench::{provenance_json, write_bench_json};
use youtopia_core::{ShardedConfig, ShardedCoordinator};
use youtopia_storage::group_commit::GroupCommit;
use youtopia_storage::{Wal, WalRecord};
use youtopia_travel::{drive_batched, WorkloadGen};

/// Workload shape: each committer thread issues this many commit
/// groups of `RECORDS_PER_COMMIT` coordination frames.
const COMMITS_PER_THREAD: usize = 48;
const RECORDS_PER_COMMIT: usize = 2;
const PAYLOAD_BYTES: usize = 48;
const HEADLINE_THREADS: usize = 8;

fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("youtopia_groupcommit_bench");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!(
        "{tag}_{}_{}.wal",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn commit_group(thread: usize, i: usize) -> Vec<WalRecord> {
    (0..RECORDS_PER_COMMIT)
        .map(|r| {
            let mut payload = vec![0u8; PAYLOAD_BYTES];
            payload[0] = thread as u8;
            payload[1] = i as u8;
            payload[2] = r as u8;
            WalRecord::Coordination(payload)
        })
        .collect()
}

/// The pre-pipeline discipline: every committer appends and syncs
/// under the log mutex — one fsync per commit, N committers pay N.
fn run_fsync_per_commit(threads: usize) -> f64 {
    let path = scratch_path("per_commit");
    let wal = Arc::new(Mutex::new(Wal::open(&path).expect("open scratch wal")));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let wal = wal.clone();
            scope.spawn(move || {
                for i in 0..COMMITS_PER_THREAD {
                    let mut wal = wal.lock().expect("bench lock");
                    for record in commit_group(t, i) {
                        wal.append_record(&record).expect("append");
                    }
                    wal.append_record(&WalRecord::CommitBoundary).expect("seal");
                    wal.sync().expect("sync");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    drop(wal);
    let _ = std::fs::remove_file(&path);
    elapsed
}

/// The pipelined writer: all committers share the writer thread's one
/// fsync per drained batch.
fn run_pipelined(threads: usize) -> f64 {
    let path = scratch_path("pipelined");
    let gc = Arc::new(GroupCommit::spawn(
        Wal::open(&path).expect("open scratch wal"),
    ));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let gc = gc.clone();
            scope.spawn(move || {
                for i in 0..COMMITS_PER_THREAD {
                    let lsn = gc.enqueue(commit_group(t, i)).expect("enqueue");
                    gc.wait_durable(lsn).expect("pipelined commit");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    drop(gc);
    let _ = std::fs::remove_file(&path);
    elapsed
}

/// Median of three timed runs.
fn median_of_three(run: impl Fn(usize) -> f64, threads: usize) -> f64 {
    let mut runs = [run(threads), run(threads), run(threads)];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// End-to-end context: sharded pair submission on a file-backed WAL,
/// where every shard's registration batch now rides the shared
/// pipeline instead of paying its own fsync.
fn run_sharded_file_wal() -> (f64, usize, usize) {
    let path = scratch_path("sharded");
    let mut gen = WorkloadGen::new(7);
    let db = gen
        .build_database_with_wal(120, &["Paris", "Rome"], Wal::open(&path).expect("open wal"))
        .expect("database builds");
    let co = ShardedCoordinator::with_config(
        db,
        ShardedConfig {
            shards: 4,
            ..Default::default()
        },
    );
    let storm = gen.pair_storm_multi(100, "Paris", 8);
    let started = Instant::now();
    let report = drive_batched(&co, &storm, 32);
    let elapsed = started.elapsed().as_secs_f64();
    co.check_routing_invariants().expect("routing invariants");
    drop(co);
    let _ = std::fs::remove_file(&path);
    (elapsed, storm.len(), report.answered)
}

/// The headline comparison, written to `BENCH_groupcommit.json`.
fn main() {
    let threads = HEADLINE_THREADS;
    let commits = threads * COMMITS_PER_THREAD;

    let per_commit_secs = median_of_three(run_fsync_per_commit, threads);
    let pipelined_secs = median_of_three(run_pipelined, threads);
    let per_commit_cps = commits as f64 / per_commit_secs;
    let pipelined_cps = commits as f64 / pipelined_secs;
    let speedup = pipelined_cps / per_commit_cps;

    let (sharded_secs, requests, answered) = run_sharded_file_wal();
    assert_eq!(answered * 2, requests, "every pair closes");
    let sharded_rps = requests as f64 / sharded_secs;

    println!("\n=== group_commit headline ===");
    println!("workload: {threads} committers x {COMMITS_PER_THREAD} commits, file-backed WAL");
    println!("fsync-per-commit : {per_commit_cps:10.0} commits/s  ({per_commit_secs:.3}s)");
    println!("pipelined        : {pipelined_cps:10.0} commits/s  ({pipelined_secs:.3}s)");
    println!("speedup          : {speedup:.2}x");
    println!(
        "sharded file WAL : {sharded_rps:10.0} req/s  ({sharded_secs:.3}s, {requests} requests)\n"
    );

    let json = format!(
        "{{\n  \"bench\": \"group_commit\",\n  {},\n  \"workload\": {{\n    \"threads\": {threads},\n    \"commits_per_thread\": {COMMITS_PER_THREAD},\n    \"records_per_commit\": {RECORDS_PER_COMMIT},\n    \"payload_bytes\": {PAYLOAD_BYTES},\n    \"sink\": \"temp file (fsync real)\"\n  }},\n  \"fsync_per_commit\": {{\n    \"seconds\": {per_commit_secs:.6},\n    \"commits_per_sec\": {per_commit_cps:.1}\n  }},\n  \"pipelined\": {{\n    \"quantum\": \"0 (sync immediately, batch what queued)\",\n    \"seconds\": {pipelined_secs:.6},\n    \"commits_per_sec\": {pipelined_cps:.1}\n  }},\n  \"speedup\": {speedup:.3},\n  \"sharded_file_wal\": {{\n    \"shards\": 4,\n    \"requests\": {requests},\n    \"seconds\": {sharded_secs:.6},\n    \"requests_per_sec\": {sharded_rps:.1}\n  }}\n}}\n",
        provenance_json()
    );
    write_bench_json("BENCH_groupcommit.json", &json);
}
