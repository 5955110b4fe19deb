//! `e2e`: the repository's end-to-end benchmark — from a `Submit`
//! frame on a loopback socket to the `Done` push on the waiting
//! friend's session, with a per-layer budget measured from outside.
//! See `README.md` beside this file for the workloads, the metrics and
//! how they are expected to interact.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
//! ```
//!
//! Without `--workload` all six workloads run in turn. The last line
//! of standard output is one JSON object; the process exits non-zero
//! when any answer failed the oracle.

mod client;
mod gen;
mod layers;
mod measure;
mod stack;
mod stats;
mod trace;

use std::collections::HashSet;
use std::time::{Duration, Instant};

use youtopia_core::{RecoveryReport, SystemStats};
use youtopia_net::TenantSummary;

use client::{Conn, PassLog, Plan, OWNER_A, OWNER_B};
use gen::{Mix, Spec, Stream};
use measure::{Samples, Verdict};
use stack::{Core, RecoveryLog, Stack};
use stats::{median, slice_median_rate};

/// End-to-end metrics: `(name, unit, better, regression bound)`.
/// `BENCHMARK.json` repeats this table; a unit test keeps them equal.
const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("submit_rate", "submits/s", "higher", 0.25),
    ("submit_p50_ms", "ms", "lower", 0.25),
    ("coord_p50_ms", "ms", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("rss_peak_mb", "MiB", "lower", 0.1),
];

/// Per-layer metrics: `(name, unit, better)`. Zero means "does not
/// occur on this workload" (no WAL, no cancels, ...).
const PER_LAYER: [(&str, &str, &str); 45] = [
    ("net.codec_us", "us", "lower"),
    ("net.rtt_floor_us", "us", "lower"),
    ("net.push_lag_us", "us", "lower"),
    ("net.residual_us", "us", "lower"),
    ("net.queued_bytes_max", "bytes", "lower"),
    ("net.slow_peer_disconnects", "count", "lower"),
    ("net.submit_p95_ms", "ms", "lower"),
    ("net.coord_p95_ms", "ms", "lower"),
    ("net.submit_p99_ms", "ms", "lower"),
    ("net.coord_p99_ms", "ms", "lower"),
    ("net.cancel_p50_ms", "ms", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("core.compile_us", "us", "lower"),
    ("core.safety_us", "us", "lower"),
    ("core.submit_us", "us", "lower"),
    ("core.match_us", "us", "lower"),
    ("core.match_attempts_per_submit", "count", "lower"),
    ("core.candidates_scanned_per_submit", "count", "lower"),
    ("core.index_pruned_per_submit", "count", "lower"),
    ("core.prune_ratio", "ratio", "lower"),
    ("core.unify_success_ratio", "ratio", "higher"),
    ("core.pool_miss_ratio", "ratio", "lower"),
    ("core.registry_insert_us", "us", "lower"),
    ("core.registry_remove_us", "us", "lower"),
    ("core.candidates_us", "us", "lower"),
    ("core.cancel_us", "us", "lower"),
    ("core.expire_us", "us", "lower"),
    ("core.expire_lag_ms", "ms", "lower"),
    ("core.waiter_wake_us", "us", "lower"),
    ("core.audit_rows_per_submit", "count", "lower"),
    ("core.recover_sweep_s", "s", "lower"),
    ("core.recover_events", "count", "lower"),
    ("core.recover_triggers_pruned", "count", "higher"),
    ("storage.commit_us", "us", "lower"),
    ("storage.commit2_us", "us", "lower"),
    ("storage.txn_us", "us", "lower"),
    ("storage.replay_mb_s", "MiB/s", "higher"),
    ("storage.wal_bytes_per_submit", "bytes", "lower"),
    ("exec.membership_us", "us", "lower"),
    ("exec.rows_scanned_per_grounding", "count", "lower"),
    ("exec.audit_query_us", "us", "lower"),
    ("proc.cpu_us_per_submit", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.twin_submits", "count", "higher"),
    ("run.fail_share", "ratio", "lower"),
];

/// Times `recovery` writes its log per run (`setup_s` is their
/// median). The other workloads' set-up is the bring-up every epoch
/// starts with.
const LOG_BUILDS: usize = 3;
/// Share of an epoch's units driven before its measured phase.
const WARMUP_SHARE: f64 = 0.05;
/// Spans kept in a trace file.
const TRACE_FILE_SPANS: usize = 50_000;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 15.0,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => args.trace = value()? != "0",
            "--repeat" => args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || args.repeat == 0 {
        return Err("--seconds must be in (0, 600] and --repeat at least 1".into());
    }
    Ok(args)
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples behind the value (0 where it is a single reading).
    samples: usize,
}

/// One workload run's outcome.
struct RunResult {
    spec: Spec,
    verdict: Verdict,
    metrics: Vec<Metric>,
    /// Layer metrics an untraced run prints for the reader besides its
    /// end-to-end ones; they are not in the result object.
    ungated: Vec<Metric>,
    /// Free-form facts for the human report (counts, sizes).
    facts: Vec<(&'static str, String)>,
}

/// A reported number under its declared name (end-to-end or layer)
/// and unit. Panics on an undeclared name: that is a bug here.
fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let declared = END_TO_END.iter().map(|m| (m.0, m.1));
    let (name, unit) = declared
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"));
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
    }
}

/// A served stack with both sessions greeted.
struct Session {
    a: Conn,
    b: Conn,
    stack: Stack,
}

impl Session {
    fn greet(spec: &Spec, stack: Stack) -> Result<Session, String> {
        let addr = stack.server.local_addr();
        Ok(Session {
            a: Conn::open(addr, OWNER_A, spec.quick_ack)?,
            b: Conn::open(addr, OWNER_B, spec.quick_ack)?,
            stack,
        })
    }
}

/// Counter and resource readings around one pass.
struct Gauge {
    stats: SystemStats,
    cpu_us: f64,
    wal_len: u64,
}

impl Gauge {
    fn read(stack: &Stack) -> Gauge {
        Gauge {
            stats: stack.core.co.stats(),
            cpu_us: measure::cpu_us(),
            wal_len: stack.core.db.wal_len().unwrap_or(0),
        }
    }
}

/// The pre-generated inputs of a workload: one epoch's stream (every
/// epoch drives the same one against a freshly built or restarted
/// stack) and the pair that is answered first after every bring-up.
struct Inputs {
    stream: Stream,
    cold: Stream,
}

fn generate(spec: &Spec, args: &Args) -> Inputs {
    Inputs {
        stream: gen::stream(args.seed, spec.mix, spec.epoch_units, "w"),
        cold: gen::stream(args.seed, Mix::Pairs, 1, "cold"),
    }
}

/// One epoch: the fixed-count stream driven to its end against a
/// stack in the epoch's starting state.
struct Epoch {
    traced: bool,
    samples: Samples,
    log: PassLog,
    /// Counter deltas over the pass and the submits they cover
    /// (warm-up included on both sides of the ratio).
    delta: SystemStats,
    sent: u64,
    cpu_us: f64,
    wal_bytes: u64,
    wall_s: f64,
}

/// One bring-up: a stack built or restarted, both sessions greeted,
/// the first pair answered over the wire.
struct Up {
    session: Session,
    /// Bring-up (build or restart) + two handshakes, seconds.
    up_s: f64,
    /// Bring-up start → first pair answered, seconds.
    first_answer_s: f64,
    report: Option<RecoveryReport>,
    flights: HashSet<i64>,
}

fn bring_up(
    spec: &Spec,
    source: &Source,
    inputs: &Inputs,
    seed: u64,
    verdict: &mut Verdict,
) -> Result<Up, String> {
    let started = Instant::now();
    let (core, report) = source.bring_up(spec, seed)?;
    let mut session = Session::greet(spec, Stack::serve(core))?;
    let up_s = started.elapsed().as_secs_f64();
    verdict.attempted += 2;
    let flight = client::first_pair(&mut session.a, &mut session.b, &inputs.cold)?;
    let first_answer_s = started.elapsed().as_secs_f64();
    let flights: HashSet<i64> = stack::dest_flights(&session.stack.core.db)
        .into_iter()
        .collect();
    if !flights.contains(&flight) {
        verdict.fail(2, || {
            format!(
                "first pair was given flight {flight}, not one to {}",
                gen::DEST
            )
        });
    }
    Ok(Up {
        session,
        up_s,
        first_answer_s,
        report,
        flights,
    })
}

/// How long the tenant ledger is given to settle after a pass.
const LEDGER_SETTLE: Duration = Duration::from_secs(2);

/// The tenant ledger over the wire, once it shows `expected` (or as it
/// stands after [`LEDGER_SETTLE`]). The coordinator resolves a retired
/// query's waiter under the shard lock and books the outcome in the
/// tenant ledger after releasing it, so the last `Expired` push of a
/// pass can be read before the ledger has it: the ledger is asked
/// again until it closes.
fn settled_ledger(conn: &mut Conn, expected: measure::Ledger) -> Result<TenantSummary, String> {
    let started = Instant::now();
    loop {
        let ledger = conn.stats()?;
        if measure::ledger_closes(&ledger, expected) || started.elapsed() > LEDGER_SETTLE {
            return Ok(ledger);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Probes that need a live, idle stack; taken after the first epoch's
/// pass in traced runs.
#[derive(Default, Clone, Copy)]
struct StackProbes {
    rtt_floor_us: f64,
    membership_us: f64,
    audit_query_us: f64,
}

/// Everything the epoch loop of one run produced.
struct Driven {
    epochs: Vec<Epoch>,
    up_s: Vec<f64>,
    first_answer_s: Vec<f64>,
    reports: Vec<RecoveryReport>,
    probes: StackProbes,
    /// `VmHWM` after the first epoch: a fixed amount of work, unlike
    /// the number of epochs a run fits in.
    rss_peak_mb: f64,
}

/// Runs whole epochs for about `--seconds` of wall time (at least
/// one). Every epoch starts on a stack brought up for it — built
/// afresh, or on `recovery` restarted from the log — so the state
/// trajectory, and with it the counters, repeat in every epoch and on
/// every commit, and a run times one bring-up per epoch. In traced
/// runs every other epoch records client spans, so the tracing
/// overhead is a paired same-run ratio.
fn run_epochs(
    spec: &Spec,
    inputs: &Inputs,
    source: &Source,
    args: &Args,
    verdict: &mut Verdict,
) -> Result<Driven, String> {
    let plan = Plan {
        half_window: (spec.window / 2).max(1),
        measure_from: (spec.epoch_units as f64 * WARMUP_SHARE).ceil() as u32,
    };
    let mut out = Driven {
        epochs: Vec::new(),
        up_s: Vec::new(),
        first_answer_s: Vec::new(),
        reports: Vec::new(),
        probes: StackProbes::default(),
        rss_peak_mb: 0.0,
    };
    let loop_started = Instant::now();
    let mut last_epoch_s = 0.0;
    // another epoch is started only if it can be expected to end
    // within a tenth over the budget (a traced run needs one epoch of
    // each kind whatever the budget)
    while out.epochs.len() < if args.trace { 2 } else { 1 }
        || loop_started.elapsed().as_secs_f64() + last_epoch_s <= args.seconds * 1.1
    {
        let epoch_started = Instant::now();
        let mut up = bring_up(spec, source, inputs, args.seed, verdict)?;
        out.up_s.push(up.up_s);
        out.first_answer_s.push(up.first_answer_s);
        out.reports.extend(up.report.take());
        let traced = args.trace && out.epochs.len() % 2 == 1;
        let session = &mut up.session;

        let before = Gauge::read(&session.stack);
        let server = &session.stack.server;
        let log = client::run_pass(
            &mut session.a,
            &mut session.b,
            &inputs.stream,
            plan,
            traced,
            || server.stats().queued_bytes,
        );
        let after = Gauge::read(&session.stack);
        let (pass_verdict, samples) = measure::judge(&inputs.stream, &log, &up.flights);
        let sent = pass_verdict.attempted;
        verdict.absorb(pass_verdict);

        // close the tenant ledger over the wire: the first pair's two
        // answers and what the pass must have produced
        let mut expected = measure::Ledger {
            answered: 2,
            ..measure::Ledger::default()
        };
        expected.add(samples.expected);
        match settled_ledger(&mut session.a, expected) {
            Ok(ledger) => measure::judge_ledger(&ledger, expected, verdict),
            Err(e) => verdict.fail(1, || format!("Stats request failed: {e}")),
        }
        let disconnects = session.stack.server.stats().slow_peer_disconnects;
        verdict.fail(disconnects, || {
            format!("{disconnects} slow-peer disconnects")
        });

        if args.trace && out.epochs.is_empty() {
            out.probes = StackProbes {
                rtt_floor_us: session.a.rtt_floor_us(2_000)?,
                membership_us: layers::membership_us(&session.stack.core.db),
                audit_query_us: layers::audit_query_us(&session.stack.core.db, spec.audit),
            };
        }
        if out.epochs.is_empty() {
            out.rss_peak_mb = measure::rss_peak_mb();
        }
        last_epoch_s = epoch_started.elapsed().as_secs_f64();
        out.epochs.push(Epoch {
            traced,
            delta: stats_delta(&before.stats, &after.stats),
            sent,
            cpu_us: after.cpu_us - before.cpu_us,
            wal_bytes: after.wal_len - before.wal_len,
            samples,
            log,
            wall_s: last_epoch_s,
        });
    }
    Ok(out)
}

/// Latency samples pooled over the untraced epochs.
fn pooled(epochs: &[Epoch]) -> Samples {
    let mut all = Samples::default();
    for epoch in epochs.iter().filter(|e| !e.traced) {
        all.absorb(epoch.samples.clone());
    }
    all
}

/// Median submit rate over the epochs of one kind, each one slice.
fn rate(epochs: &[Epoch], traced: bool) -> f64 {
    let slices: Vec<(usize, f64)> = epochs
        .iter()
        .filter(|e| e.traced == traced)
        .map(|e| e.samples.slice())
        .collect();
    slice_median_rate(&slices)
}

/// The workload's bring-up and, for `recovery`, the log it restarts
/// from with the time it took to write (the benchmark's set-up there).
struct Source {
    log: Option<RecoveryLog>,
    log_build_s: Vec<f64>,
}

impl Source {
    fn prepare(spec: &Spec, args: &Args, rounds: usize) -> Source {
        let mut source = Source {
            log: None,
            log_build_s: Vec::new(),
        };
        if spec.restarts {
            for _ in 0..rounds {
                drop(source.log.take());
                let started = Instant::now();
                source.log = Some(stack::build_recovery_log(spec, args.seed));
                source.log_build_s.push(started.elapsed().as_secs_f64());
            }
        }
        source
    }

    /// The stack below the network, in an epoch's starting state.
    fn bring_up(&self, spec: &Spec, seed: u64) -> Result<(Core, Option<RecoveryReport>), String> {
        let Some(log) = &self.log else {
            return Ok((Core::build(spec, seed), None));
        };
        let (core, report) = Core::recover(spec, &log.path);
        // the oracle of a restart: exactly the killed server's pending
        // set is back, and it is routed consistently
        let pending = core.co.pending_count();
        if pending != log.standing {
            return Err(format!(
                "{pending} pending after restart, the log held {}",
                log.standing
            ));
        }
        core.co
            .check_routing_invariants()
            .map_err(|e| format!("routing invariants after restart: {e}"))?;
        Ok((core, Some(report)))
    }
}

fn facts(inputs: &Inputs, source: &Source, driven: &Driven) -> Vec<(&'static str, String)> {
    let epochs = &driven.epochs;
    let all = pooled(epochs);
    let per_epoch = |count: &dyn Fn(&Epoch) -> u64| {
        format!("{:?}", epochs.iter().map(count).collect::<Vec<_>>())
    };
    let mut facts = vec![
        ("epochs", epochs.len().to_string()),
        (
            "epoch_wall_s",
            format!(
                "{:.3}",
                median(&epochs.iter().map(|e| e.wall_s).collect::<Vec<_>>())
            ),
        ),
        ("units_per_epoch", inputs.stream.kinds.len().to_string()),
        ("submits_per_epoch", epochs[0].sent.to_string()),
        ("submits_measured", all.submits().to_string()),
        ("pushes_measured", all.coord_ms.len().to_string()),
        ("percentiles_supported", {
            let top = |n: usize| {
                stats::highest_supported_percentile(n)
                    .map_or("none".to_string(), |p| format!("p{p}"))
            };
            let per_side = all.submit_ms[0].len().min(all.submit_ms[1].len());
            format!(
                "10 samples beyond: submit n={per_side} per side up to {}, coord n={} up to {}",
                top(per_side),
                all.coord_ms.len(),
                top(all.coord_ms.len())
            )
        }),
        ("rate_per_epoch", {
            let rates: Vec<f64> = epochs
                .iter()
                .filter(|e| !e.traced)
                .map(|e| slice_median_rate(&[e.samples.slice()]))
                .collect();
            format!(
                "{rates:.0?} (IQR/median {:.1}%)",
                stats::iqr_over_median(&rates) * 100.0
            )
        }),
        ("bring_up_s", format!("{:.3?}", driven.up_s)),
        (
            "candidates_scanned_per_epoch",
            per_epoch(&|e| e.delta.match_work.candidates_scanned),
        ),
        (
            "index_pruned_per_epoch",
            per_epoch(&|e| e.delta.match_work.index_pruned),
        ),
        ("wal_bytes_per_epoch", per_epoch(&|e| e.wal_bytes)),
    ];
    if let Some(log) = &source.log {
        facts.push(("log_bytes", log.bytes.to_string()));
        facts.push(("log_standing", log.standing.to_string()));
        facts.push(("log_build_s", format!("{:.3?}", source.log_build_s)));
    }
    facts
}

// ------------------------------------------------------------------ //
// Untraced runs: the end-to-end metrics
// ------------------------------------------------------------------ //

fn run_untraced(spec: &Spec, args: &Args) -> Result<RunResult, String> {
    let inputs = generate(spec, args);
    let mut verdict = Verdict::default();
    let source = Source::prepare(spec, args, LOG_BUILDS);
    let driven = run_epochs(spec, &inputs, &source, args, &mut verdict)?;
    let epochs = &driven.epochs;

    // latencies pool the samples of every epoch, so a stall in a few
    // epochs shows in the tail and `n` is what the percentile rests on
    let all = pooled(epochs);
    let (n_submit, n_coord) = (all.submits(), all.coord_ms.len());
    // set-up is what the benchmark does before it can measure: writing
    // the log for `recovery`, bringing a fresh stack up elsewhere
    let setup_s = if spec.restarts {
        &source.log_build_s
    } else {
        &driven.up_s
    };
    let metrics = vec![
        metric("setup_s", median(setup_s), setup_s.len()),
        metric("submit_rate", rate(epochs, false), n_submit),
        metric("submit_p50_ms", all.submit_percentile(50.0), n_submit),
        metric("coord_p50_ms", all.coord_percentile(50.0), n_coord),
        metric(
            "recover_s",
            median(&driven.first_answer_s),
            driven.first_answer_s.len(),
        ),
        metric("rss_peak_mb", driven.rss_peak_mb, 0),
    ];
    // counts and layer diagnostics an untraced pass has anyway: printed
    // by name for the reader, not part of the driver's result object
    let mut ungated = counter_metrics(epochs);
    ungated.extend(sample_metrics(&all));
    ungated.push(fail_share(&verdict));
    Ok(RunResult {
        spec: *spec,
        verdict,
        metrics,
        ungated,
        facts: facts(&inputs, &source, &driven),
    })
}

// ------------------------------------------------------------------ //
// Traced runs: the per-layer metrics
// ------------------------------------------------------------------ //

/// The counters the layer metrics use, as their change over a pass
/// (the rest of the result stays zero; `SystemStats::merge` sums these
/// over epochs).
fn stats_delta(before: &SystemStats, after: &SystemStats) -> SystemStats {
    let mut d = SystemStats {
        match_attempts: after.match_attempts - before.match_attempts,
        matching_nanos: after.matching_nanos - before.matching_nanos,
        ..SystemStats::default()
    };
    let (w, a, b) = (&mut d.match_work, &after.match_work, &before.match_work);
    w.unify_attempts = a.unify_attempts - b.unify_attempts;
    w.unify_successes = a.unify_successes - b.unify_successes;
    w.groundings_attempted = a.groundings_attempted - b.groundings_attempted;
    w.rows_scanned = a.rows_scanned - b.rows_scanned;
    w.candidates_scanned = a.candidates_scanned - b.candidates_scanned;
    w.index_pruned = a.index_pruned - b.index_pruned;
    w.pool_hits = a.pool_hits - b.pool_hits;
    w.pool_misses = a.pool_misses - b.pool_misses;
    d
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics read off the program's own counters, summed over the
/// untraced epochs' passes.
fn counter_metrics(epochs: &[Epoch]) -> Vec<Metric> {
    let mut delta = SystemStats::default();
    let (mut sent, mut cpu_us, mut wal_bytes) = (0, 0.0, 0);
    for epoch in epochs.iter().filter(|e| !e.traced) {
        delta.merge(&epoch.delta);
        sent += epoch.sent;
        cpu_us += epoch.cpu_us;
        wal_bytes += epoch.wal_bytes;
    }
    let n = sent as f64;
    let samples = sent as usize;
    let w = &delta.match_work;
    let per = |count: u64| ratio(count as f64, n);
    vec![
        metric(
            "core.match_us",
            ratio(delta.matching_nanos as f64 / 1e3, n),
            samples,
        ),
        metric(
            "core.match_attempts_per_submit",
            per(delta.match_attempts),
            samples,
        ),
        metric(
            "core.candidates_scanned_per_submit",
            per(w.candidates_scanned),
            samples,
        ),
        metric("core.index_pruned_per_submit", per(w.index_pruned), samples),
        metric(
            "core.prune_ratio",
            ratio(
                w.index_pruned as f64,
                (w.index_pruned + w.candidates_scanned) as f64,
            ),
            0,
        ),
        metric(
            "core.unify_success_ratio",
            ratio(w.unify_successes as f64, w.unify_attempts as f64),
            0,
        ),
        metric(
            "core.pool_miss_ratio",
            ratio(w.pool_misses as f64, (w.pool_hits + w.pool_misses) as f64),
            0,
        ),
        metric(
            "exec.rows_scanned_per_grounding",
            ratio(w.rows_scanned as f64, w.groundings_attempted as f64),
            w.groundings_attempted as usize,
        ),
        metric("proc.cpu_us_per_submit", ratio(cpu_us, n), samples),
        metric("storage.wal_bytes_per_submit", per(wal_bytes), samples),
    ]
}

/// Layer metrics from the latency samples of the untraced epochs.
fn sample_metrics(samples: &Samples) -> Vec<Metric> {
    vec![
        metric(
            "net.submit_p95_ms",
            samples.submit_percentile(95.0),
            samples.submits(),
        ),
        metric(
            "net.coord_p95_ms",
            samples.coord_percentile(95.0),
            samples.coord_ms.len(),
        ),
        metric(
            "net.submit_p99_ms",
            samples.submit_percentile(99.0),
            samples.submits(),
        ),
        metric(
            "net.coord_p99_ms",
            samples.coord_percentile(99.0),
            samples.coord_ms.len(),
        ),
        metric(
            "net.push_lag_us",
            median(&samples.push_lag_us),
            samples.push_lag_us.len(),
        ),
        metric(
            "net.cancel_p50_ms",
            median(&samples.cancel_ms),
            samples.cancel_ms.len(),
        ),
        metric(
            "core.expire_lag_ms",
            median(&samples.expire_lag_ms),
            samples.expire_lag_ms.len(),
        ),
    ]
}

fn mean_ns(xs: &[u64]) -> f64 {
    ratio(xs.iter().sum::<u64>() as f64, xs.len() as f64)
}

/// Layer metrics from the in-process twin, and the budget: each
/// layer's self time per submit, whose sum the untraced `submit_p50`
/// is compared with.
fn twin_metrics(
    twin: &trace::TwinReport,
    submit_p50_ms: f64,
    budget: &mut Vec<(String, f64)>,
) -> Vec<Metric> {
    let per_submit = twin.submits.max(1) as f64;
    let mean_span = |name: &str| {
        let total: u64 = twin
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        total as f64 / 1e3 / per_submit
    };
    let mut layer_sum_us = 0.0;
    for (name, total_ns) in trace::self_time_by_name(&twin.spans) {
        let own_us = total_ns as f64 / 1e3 / per_submit;
        // the handler span's own time is the twin's bookkeeping
        // between calls (counter reads), not a layer of the program
        if name != "twin.handler" {
            layer_sum_us += own_us;
        }
        budget.push((name.to_string(), own_us));
    }
    let residual = submit_p50_ms * 1e3 - layer_sum_us;
    budget.push(("net.residual_us".into(), residual));
    let n = twin.submits as usize;
    vec![
        metric("sql.parse_us", mean_span("sql.parse"), n),
        metric("core.compile_us", mean_span("core.compile"), n),
        metric("core.safety_us", mean_span("core.safety"), n),
        metric("core.submit_us", mean_span("core.submit"), n),
        metric("net.residual_us", residual, n),
        metric(
            "core.waiter_wake_us",
            mean_ns(&twin.waiter_wake_ns) / 1e3,
            twin.waiter_wake_ns.len(),
        ),
        metric(
            "core.cancel_us",
            mean_ns(&twin.cancel_ns) / 1e3,
            twin.cancel_ns.len(),
        ),
        metric(
            "core.expire_us",
            ratio(twin.expire_ns as f64 / 1e3, twin.expired as f64),
            twin.expired as usize,
        ),
        metric("core.audit_rows_per_submit", twin.audit_rows_per_submit, n),
        metric("trace.twin_submits", twin.submits as f64, 0),
    ]
}

fn fail_share(verdict: &Verdict) -> Metric {
    metric(
        "run.fail_share",
        ratio(verdict.failed as f64, verdict.attempted as f64),
        verdict.attempted as usize,
    )
}

/// Fills in a zero for every declared layer metric the run did not
/// produce, in declaration order.
fn complete_layers(mut have: Vec<Metric>, verdict: &Verdict) -> Vec<Metric> {
    have.push(fail_share(verdict));
    PER_LAYER
        .iter()
        .map(|(name, ..)| {
            have.iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, 0))
        })
        .collect()
}

fn write_trace(spec: &Spec, twin: &trace::TwinReport, client_spans: &[trace::Span]) {
    let path = stack::out_dir().join(format!("e2e-trace-{}.json", spec.name));
    let mut spans = twin.spans.clone();
    spans.truncate(TRACE_FILE_SPANS / 2);
    spans.extend(client_spans.iter().take(TRACE_FILE_SPANS / 2).cloned());
    trace::write_spans(&path, spec.name, &spans);
}

fn run_traced(spec: &Spec, args: &Args) -> Result<RunResult, String> {
    let inputs = generate(spec, args);
    let mut verdict = Verdict::default();
    let source = Source::prepare(spec, args, 1);

    // (1) net epochs, alternately without and with client-side spans
    let driven = run_epochs(spec, &inputs, &source, args, &mut verdict)?;
    let (epochs, probes) = (&driven.epochs, driven.probes);
    let all = pooled(epochs);
    let submit_p50_ms = all.submit_percentile(50.0);
    let mut layers = counter_metrics(epochs);
    layers.extend(sample_metrics(&all));
    let queued_max = epochs
        .iter()
        .map(|e| e.log.queued_bytes_max)
        .max()
        .unwrap_or(0);
    layers.push(metric("net.queued_bytes_max", queued_max as f64, 0));
    layers.push(metric("net.rtt_floor_us", probes.rtt_floor_us, 2_000));
    layers.push(metric("exec.membership_us", probes.membership_us, 200));
    layers.push(metric("exec.audit_query_us", probes.audit_query_us, 50));
    layers.push(metric(
        "trace.overhead_ratio",
        ratio(rate(epochs, true), rate(epochs, false)),
        epochs.iter().filter(|e| e.traced).count(),
    ));
    let reports = &driven.reports;
    let of_reports =
        |f: fn(&RecoveryReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    layers.push(metric(
        "core.recover_sweep_s",
        of_reports(|r| r.sweep_micros as f64 / 1e6),
        reports.len(),
    ));
    layers.push(metric(
        "core.recover_events",
        of_reports(|r| r.events_replayed as f64),
        reports.len(),
    ));
    layers.push(metric(
        "core.recover_triggers_pruned",
        of_reports(|r| r.triggers_pruned as f64),
        reports.len(),
    ));
    if let Some(log) = &source.log {
        layers.push(metric(
            "storage.replay_mb_s",
            layers::replay_mb_s(&log.path),
            0,
        ));
    }

    // (2) standalone probes on the workload's inputs and sink
    layers.push(metric("net.codec_us", layers::codec_us(&inputs.stream), 0));
    let (insert, candidates, remove) = layers::registry_us(&inputs.stream, spec.standing);
    layers.push(metric("core.registry_insert_us", insert, 0));
    layers.push(metric("core.candidates_us", candidates, 0));
    layers.push(metric("core.registry_remove_us", remove, 0));
    let (commit, commit2) = layers::commit_us(&inputs.stream, spec.sink);
    layers.push(metric("storage.commit_us", commit, 0));
    layers.push(metric("storage.commit2_us", commit2, 0));
    layers.push(metric(
        "storage.txn_us",
        layers::txn_us(args.seed, spec.sink),
        0,
    ));

    // (3) the in-process twin of the handler: one epoch's stream on a
    // stack brought up exactly like an epoch's
    let (core, _) = source.bring_up(spec, args.seed)?;
    let twin = trace::run_twin(&core, &inputs.stream, (commit * 1e3) as u64);
    verdict.attempted += twin.submits;
    verdict.fail(twin.errors, || {
        format!("{} twin requests failed", twin.errors)
    });
    let mut budget = Vec::new();
    layers.extend(twin_metrics(&twin, submit_p50_ms, &mut budget));
    let client_spans = epochs
        .iter()
        .find(|e| e.traced)
        .map_or(Vec::new(), |e| e.log.spans());
    write_trace(spec, &twin, &client_spans);
    print_budget(spec, &budget, submit_p50_ms);

    let metrics = complete_layers(layers, &verdict);
    Ok(RunResult {
        spec: *spec,
        verdict,
        metrics,
        ungated: Vec::new(),
        facts: facts(&inputs, &source, &driven),
    })
}

// ------------------------------------------------------------------ //
// Reporting
// ------------------------------------------------------------------ //

fn print_budget(spec: &Spec, budget: &[(String, f64)], submit_p50_ms: f64) {
    let total = submit_p50_ms * 1e3;
    println!("\nbudget {}: layer self time per submit (in-process twin) against untraced submit_p50 = {total:.1} us", spec.name);
    for (name, own_us) in budget {
        println!(
            "  {name:<24} {own_us:>10.2} us  {:>6.1}%",
            ratio(*own_us, total) * 100.0
        );
    }
    println!("  (net.residual_us = submit_p50 - sum of layer self times, twin.handler excluded: reactor, syscalls, wake-ups, TCP, queueing)");
}

fn print_run(result: &RunResult, args: &Args) {
    let spec = &result.spec;
    println!("\nworkload {} — {}", spec.name, spec.why);
    println!(
        "  closed loop: 2 generator threads, 1 connection each, window {} units ({} submits unanswered per side); loopback TCP; WAL sink: {}; audit {}; standing {}; seed {}; {} s{}",
        spec.window,
        (spec.window / 2).max(1),
        spec.sink.describe(),
        if spec.audit { "on" } else { "off" },
        spec.standing,
        args.seed,
        args.seconds,
        if args.trace { "; traced" } else { "" },
    );
    for (name, value) in &result.facts {
        println!("  {name:<36} {value}");
    }
    let print = |m: &Metric| {
        let n = if m.samples > 0 {
            format!("n={}", m.samples)
        } else {
            String::new()
        };
        println!("  {:<36} {:>16.4} {:<10} {n}", m.name, m.value, m.unit);
    };
    result.metrics.iter().for_each(print);
    if !result.ungated.is_empty() {
        println!("  ungated, also in the --trace 1 result:");
        result.ungated.iter().for_each(print);
    }
    println!(
        "  attempted {} failed {}",
        result.verdict.attempted, result.verdict.failed
    );
    for reason in &result.verdict.reasons {
        println!("  FAILED: {reason}");
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The driver's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.verdict.failed == 0,
        result.verdict.attempted.max(1),
        result.verdict.failed,
        metrics.join(",")
    )
}

fn commit_hash() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The common envelope: what a reader needs to compare two outputs.
fn envelope_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workloads: Vec<String> = gen::WORKLOADS
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"window\":{},\"wal_sink\":{},\"audit\":{},\"quick_ack\":{},\"standing\":{},\"units_per_epoch\":{}}}",
                json_string(s.name),
                s.window,
                json_string(s.sink.describe()),
                s.audit,
                s.quick_ack,
                s.standing,
                s.epoch_units,
            )
        })
        .collect();
    format!(
        "{{\"benchmark\":\"e2e\",\"commit\":{},\"nproc\":{nproc},\"seed\":{},\"seconds\":{},\"traced\":{},\"loop\":\"closed, 2 generator threads, 1 connection each; whole fixed-count epochs, each on a freshly built or restarted stack, for --seconds of wall time; rate = median over epochs, percentiles pooled over epochs; quick_ack = TCP_QUICKACK on the generator's sockets\",\"transport\":\"loopback TCP\",\"flush_policy\":\"GroupCommitConfig::default (quantum 0), fdatasync per commit group on file sinks\",\"workloads\":[{}]}}",
        json_string(&commit_hash()),
        args.seed,
        args.seconds,
        args.trace,
        workloads.join(",")
    )
}

fn run_one(spec: &Spec, args: &Args) -> RunResult {
    let outcome = if args.trace {
        run_traced(spec, args)
    } else {
        run_untraced(spec, args)
    };
    outcome.unwrap_or_else(|error| {
        // a run that could not finish: everything it was asked to do failed
        let mut verdict = Verdict {
            attempted: 1,
            ..Verdict::default()
        };
        verdict.fail(1, || format!("run aborted: {error}"));
        RunResult {
            spec: *spec,
            verdict,
            metrics: Vec::new(),
            ungated: Vec::new(),
            facts: Vec::new(),
        }
    })
}

/// `--repeat K`: the agreement self-check. Runs alternate order; for
/// every end-to-end metric the medians of the even and the odd runs
/// are compared against the metric's bound, and with four or more
/// runs the interquartile spread is printed too.
fn print_agreement(spec: &Spec, runs: &[RunResult]) -> bool {
    let mut holds = true;
    println!("\nagreement {} over {} runs (median of even runs | median of odd runs | difference | bound | IQR/median)", spec.name, runs.len());
    for (name, unit, better, bound) in END_TO_END {
        if name == "rss_peak_mb" {
            // a high-water mark of the whole process: later repeats
            // inherit earlier ones', so it only compares across processes
            continue;
        }
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.name == name).map(|m| m.value))
            .collect();
        let even: Vec<f64> = values.iter().copied().step_by(2).collect();
        let odd: Vec<f64> = values.iter().copied().skip(1).step_by(2).collect();
        let (first, second) = (median(&even), median(&odd));
        let worse = if better == "lower" {
            ratio(second - first, first)
        } else {
            ratio(first - second, first)
        };
        let ok = worse.abs() <= bound;
        holds &= ok;
        println!(
            "  {name:<16} {first:>14.4} | {second:>14.4} {unit:<10} {:>+7.2}% | {:>4.0}% | {:>5.2}% {}",
            worse * 100.0,
            bound * 100.0,
            stats::iqr_over_median(&values) * 100.0,
            if ok { "" } else { "EXCEEDS BOUND" },
        );
    }
    holds
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    let specs: Vec<Spec> = match &args.workload {
        Some(name) => match gen::spec(name) {
            Some(spec) => vec![spec],
            None => {
                let names: Vec<_> = gen::WORKLOADS.iter().map(|s| s.name).collect();
                eprintln!("e2e: unknown workload {name:?}; one of {names:?}");
                std::process::exit(2);
            }
        },
        None => gen::WORKLOADS.to_vec(),
    };
    println!("e2e envelope: {}", envelope_json(&args));

    let mut runs: Vec<Vec<RunResult>> = specs.iter().map(|_| Vec::new()).collect();
    for round in 0..args.repeat {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let result = run_one(&specs[i], &args);
            print_run(&result, &args);
            runs[i].push(result);
        }
    }
    let mut agreed = true;
    if args.repeat > 1 && !args.trace {
        for (spec, runs) in specs.iter().zip(&runs) {
            agreed &= print_agreement(spec, runs);
        }
        println!(
            "agreement: {}",
            if agreed {
                "every metric within its bound"
            } else {
                "some metric exceeded its bound"
            }
        );
    }

    let failed: u64 = runs.iter().flatten().map(|r| r.verdict.failed).sum();
    let last: Vec<&RunResult> = runs.iter().filter_map(|r| r.last()).collect();
    if let [only] = last[..] {
        println!("{}", result_json(only));
    } else {
        let per_workload: Vec<String> = last
            .iter()
            .map(|r| format!("{}:{}", json_string(r.spec.name), result_json(r)))
            .collect();
        println!(
            "{{\"envelope\":{},\"workloads\":{{{}}}}}",
            envelope_json(&args),
            per_workload.join(",")
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must declare exactly
    /// what this binary emits.
    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        };
        let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for spec in gen::WORKLOADS {
            assert!(declared(spec.name), "workload {} missing", spec.name);
        }
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}");
            assert!(text.contains(&entry), "end-to-end entry {entry} missing");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "per-layer entry {entry} missing");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            gen::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    /// The benchmark is built twice from these files: as this
    /// directory's own package (what `BENCHMARK.json` runs) and as a
    /// binary of `youtopia-bench` (what CI checks). Both must link the
    /// same crates.
    #[test]
    fn both_manifests_name_the_same_dependencies() {
        fn dependencies(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|line| line.trim() != "[dependencies]")
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .filter_map(|line| line.split(['.', ' ', '=']).next())
                .filter(|name| !name.is_empty() && !name.starts_with('#'))
                .collect()
        }
        let own = dependencies(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, dependencies(include_str!("../../../Cargo.toml")));
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let result = RunResult {
            spec: gen::WORKLOADS[0],
            verdict: Verdict {
                attempted: 10,
                failed: 0,
                reasons: Vec::new(),
            },
            metrics: vec![metric("setup_s", 0.5, 3)],
            ungated: Vec::new(),
            facts: Vec::new(),
        };
        assert_eq!(
            result_json(&result),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
