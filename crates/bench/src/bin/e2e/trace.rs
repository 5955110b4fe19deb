//! Spans recorded from the benchmark's side of every layer boundary,
//! and the in-process twin of the server's `Submit` handler that
//! produces them. Spans inside the program are a later change.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use youtopia_core::{
    check_safety, compile, QueryId, ShardedCoordinator, SubmitOptions, TenantQuotas,
    TenantRegistry, WaiterSet, AUDIT_TABLE,
};
use youtopia_net::{encode_frame, FrameBuf, Outcome, Request, Response};
use youtopia_sql::{parse_statement, Statement};

use crate::client::{OWNER_A, OWNER_B};
use crate::gen::{Expect, Op, Side, Stream, SHORT_DEADLINE_MS};

/// One timed interval. `parent` is an index into the same span list;
/// spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once, children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if end > start {
                children.entry(parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&i) {
                intervals.sort_unstable();
                let mut reach = 0;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, ns.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals
}

/// Writes spans as one JSON document.
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) {
    let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        ));
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("e2e: could not write {}: {e}", path.display());
    }
}

/// What the twin measured besides its spans.
#[derive(Debug, Default)]
pub struct TwinReport {
    pub spans: Vec<Span>,
    pub submits: u64,
    /// `poll_ready` calls that yielded waiting futures after a closer, ns.
    pub waiter_wake_ns: Vec<u64>,
    pub cancel_ns: Vec<u64>,
    /// Time inside `expire_due` and how many queries it retired.
    pub expire_ns: u64,
    pub expired: u64,
    pub errors: u64,
    /// `sys_audit` rows written per submit over the first requests
    /// (before the ring starts rotating); 0 with auditing off.
    pub audit_rows_per_submit: f64,
}

struct Twin<'a> {
    co: &'a ShardedCoordinator,
    base: Instant,
    report: TwinReport,
    set: WaiterSet,
    inbuf: FrameBuf,
    /// Median durable-commit time from the storage probe (0 without a
    /// WAL): entered as `storage.commit` under `core.submit`.
    commit_ns: u64,
}

impl Twin<'_> {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn span(&mut self, name: &'static str, start_ns: u64, parent: Option<usize>, request: u64) {
        let end_ns = self.now();
        self.report.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    /// One `Submit` through the handler's steps, exactly as
    /// `net::server` performs them, with a span around each call.
    fn submit(&mut self, stream: &Stream, op: &Op, owner: &str, request: u64) -> Option<QueryId> {
        let root = self.report.spans.len();
        let begin = self.now();
        self.report.spans.push(Span {
            name: "twin.handler",
            start_ns: begin,
            end_ns: begin,
            parent: None,
            request,
        });
        let parent = Some(root);

        let t = self.now();
        self.inbuf.push(stream.frame(op));
        let decoded = self
            .inbuf
            .next_frame()
            .ok()
            .flatten()
            .and_then(|payload| Request::decode(&payload).ok());
        self.span("net.decode", t, parent, request);
        let Some(Request::Submit { corr, sql, .. }) = decoded else {
            self.report.errors += 1;
            return None;
        };

        let t = self.now();
        let parsed = parse_statement(&sql);
        self.span("sql.parse", t, parent, request);
        let Ok(Statement::Entangled(entangled)) = parsed else {
            self.report.errors += 1;
            return None;
        };

        let t = self.now();
        let compiled = compile(&entangled, &sql);
        self.span("core.compile", t, parent, request);
        let Ok(query) = compiled else {
            self.report.errors += 1;
            return None;
        };

        let t = self.now();
        let safe = check_safety(&query, self.co.config().safety);
        self.span("core.safety", t, parent, request);
        if safe.is_err() {
            self.report.errors += 1;
            return None;
        }

        // the handler's deadline rule: explicit, else now + the
        // server's 30 s connection timeout
        let lifetime = if op.short_deadline {
            SHORT_DEADLINE_MS
        } else {
            30_000
        };
        let opts = SubmitOptions::with_deadline(epoch_ms() + lifetime);
        let before = self.co.stats().matching_nanos;
        let t = self.now();
        let submitted = self.co.submit_async_with(owner, query, opts);
        let submit_idx = self.report.spans.len();
        self.span("core.submit", t, parent, request);
        let submit_end = self.report.spans[submit_idx].end_ns;
        let matching = (self.co.stats().matching_nanos - before) as u64;
        // children of core.submit from what the program already
        // exports: the matcher's own clock, and the commit probe
        let commit = self.commit_ns.min(submit_end - t);
        let mut child = |name, start: u64, len: u64| {
            self.report.spans.push(Span {
                name,
                start_ns: start,
                end_ns: (start + len).min(submit_end),
                parent: Some(submit_idx),
                request,
            });
        };
        if commit > 0 {
            child("storage.commit", t, commit);
        }
        if matching > 0 {
            child("core.match", t + commit, matching);
        }
        let Ok(mut future) = submitted else {
            self.report.errors += 1;
            return None;
        };
        self.report.submits += 1;

        let qid = future.id();
        let t = self.now();
        let reply = match future.try_take() {
            Some(outcome) => Response::Done {
                corr,
                qid: qid.0,
                outcome: convert(outcome),
            },
            None => {
                self.set.insert(future);
                Response::Accepted { corr, qid: qid.0 }
            }
        };
        let closed = matches!(reply, Response::Done { .. });
        std::hint::black_box(encode_frame(&reply.encode()));
        self.span("net.encode", t, parent, request);

        if closed {
            // what the reactor does next: harvest the woken waiters
            // and encode their pushes
            let t = self.now();
            let woken = self.set.poll_ready();
            self.report.waiter_wake_ns.push(self.now() - t);
            for (qid, outcome) in woken {
                let push = Response::Done {
                    corr: 0,
                    qid: qid.0,
                    outcome: convert(outcome),
                };
                std::hint::black_box(encode_frame(&push.encode()));
            }
            self.span("net.push", t, parent, request);
        }
        self.report.spans[root].end_ns = self.now();
        Some(qid)
    }
}

fn convert(outcome: youtopia_core::CoordinationOutcome) -> Outcome {
    use youtopia_core::CoordinationOutcome as C;
    match outcome {
        C::Answered(n) => Outcome::Answered { answers: n.answers },
        C::Cancelled => Outcome::Cancelled,
        C::Expired => Outcome::Expired,
        C::Superseded => Outcome::Superseded,
    }
}

fn epoch_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Requests after which the twin reads the audit row count: early
/// enough that the 4096-row ring has not rotated yet.
const AUDIT_WINDOW: u64 = 1_000;

/// Drives the whole stream through the twin, unit by unit (A's
/// members, then B's closer). Cancels go through `cancel(qid)`;
/// expiries through `expire_due(now)` every 64 units and once more
/// after the last deadline has passed.
pub fn run_twin(core: &crate::stack::Core, stream: &Stream, commit_ns: u64) -> TwinReport {
    let co: &Arc<ShardedCoordinator> = &core.co;
    let audit_rows = || {
        let read = core.db.read();
        read.table(AUDIT_TABLE).map_or(0, |t| t.len())
    };
    let audit_rows_before = audit_rows();
    // the server installs a tenant registry before serving; so does the twin
    co.set_tenant_registry(TenantRegistry::new(TenantQuotas::unlimited()));
    let mut twin = Twin {
        co,
        base: Instant::now(),
        report: TwinReport::default(),
        set: WaiterSet::new(),
        inbuf: FrameBuf::new(),
        commit_ns,
    };
    let (mut a, mut b) = (0, 0);
    let mut request = 0;
    let mut any_deadline = false;
    for unit in 0..stream.kinds.len() as u32 {
        for (side, ops, next, owner) in [
            (Side::A, &stream.a_ops, &mut a, OWNER_A),
            (Side::B, &stream.b_ops, &mut b, OWNER_B),
        ] {
            while let Some(op) = ops.get(*next).filter(|op| op.unit == unit) {
                *next += 1;
                request += 1;
                any_deadline |= op.short_deadline;
                let qid = twin.submit(stream, op, owner, request);
                if let (Side::A, Expect::Cancelled, Some(qid)) = (side, op.expect, qid) {
                    let t = Instant::now();
                    if co.cancel(qid).is_err() {
                        twin.report.errors += 1;
                    }
                    twin.report.cancel_ns.push(t.elapsed().as_nanos() as u64);
                }
            }
        }
        if request >= AUDIT_WINDOW && twin.report.audit_rows_per_submit == 0.0 {
            twin.report.audit_rows_per_submit =
                (audit_rows() - audit_rows_before) as f64 / twin.report.submits.max(1) as f64;
        }
        if any_deadline && unit % 64 == 63 {
            let t = Instant::now();
            twin.report.expired += co.expire_due(epoch_ms()).len() as u64;
            twin.report.expire_ns += t.elapsed().as_nanos() as u64;
            twin.set.poll_ready();
        }
    }
    if any_deadline {
        std::thread::sleep(std::time::Duration::from_millis(SHORT_DEADLINE_MS + 5));
        let t = Instant::now();
        twin.report.expired += co.expire_due(epoch_ms()).len() as u64;
        twin.report.expire_ns += t.elapsed().as_nanos() as u64;
    }
    twin.report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // siblings under root: 10..30 and 50..80
            span("parse", 10, 30, Some(0)),
            span("submit", 50, 80, Some(0)),
            // nested under submit: 55..75, itself with a child 60..70
            span("match", 55, 75, Some(2)),
            span("ground", 60, 70, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 10, 10]);
        // self times partition the root interval
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("submit", 100, 200, None),
            // overlap each other on 140..150
            span("commit", 100, 150, Some(0)),
            span("match", 140, 180, Some(0)),
            // hangs over the parent's end: clipped to 190..200
            span("late", 190, 250, Some(0)),
            // entirely outside the parent: ignored
            span("stray", 300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("submit", 10));
        assert_eq!(by_name[1], ("commit", 50));
    }
}
