//! Turns what the two generator threads observed into latency
//! samples and a correctness verdict.

use std::collections::{HashMap, HashSet};

use youtopia_net::TenantSummary;

use crate::client::{Direct, PassLog};
use crate::gen::{Expect, Op, Stream};
use crate::stats::{self, CloseSent, PushSeen};

/// Operations attempted and operations that went wrong, with the
/// first few reasons spelled out.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, count: u64, reason: impl FnOnce() -> String) {
        if count == 0 {
            return;
        }
        self.failed += count;
        if self.reasons.len() < 8 {
            self.reasons.push(reason());
        }
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }
}

/// Latency samples and counts of one measured pass (warm-up excluded).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// `Submit` written → direct reply read, ms: side A's registering
    /// submits and side B's closing ones. They are two latency
    /// populations of similar size (a closer does the match), so a
    /// pooled median would sit on the boundary between them and flip;
    /// reports take each side's percentile and average the two.
    pub submit_ms: [Vec<f64>; 2],
    /// Closing `Submit` written → `Done` push read by a waiting member, ms.
    pub coord_ms: Vec<f64>,
    /// Push read on the waiting session − closer's reply read, µs.
    pub push_lag_us: Vec<f64>,
    /// `Cancel` written → `CancelOk` read, ms.
    pub cancel_ms: Vec<f64>,
    /// `Expired` push read − the query's absolute deadline, ms.
    pub expire_lag_ms: Vec<f64>,
    /// Direct-reply times of measured submits, seconds, ascending.
    pub completions_s: Vec<f64>,
    pub measure_start_s: f64,
    /// Outcomes the tenant ledger must show for this pass (all
    /// submits, warm-up included).
    pub expected: Ledger,
}

/// Terminal outcomes by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub answered: u64,
    pub cancelled: u64,
    pub expired: u64,
}

impl Ledger {
    pub fn add(&mut self, other: Ledger) {
        self.answered += other.answered;
        self.cancelled += other.cancelled;
        self.expired += other.expired;
    }
}

impl Samples {
    pub fn submits(&self) -> usize {
        self.submit_ms[0].len() + self.submit_ms[1].len()
    }

    /// Mean of the two sides' `p`-th submit-latency percentiles.
    pub fn submit_percentile(&self, p: f64) -> f64 {
        let side = |xs: &Vec<f64>| stats::percentile(&stats::sorted(xs.clone()), p);
        match (self.submit_ms[0].is_empty(), self.submit_ms[1].is_empty()) {
            (false, false) => (side(&self.submit_ms[0]) + side(&self.submit_ms[1])) / 2.0,
            (false, true) => side(&self.submit_ms[0]),
            _ => side(&self.submit_ms[1]),
        }
    }

    /// `p`-th percentile of the coordination latencies.
    pub fn coord_percentile(&self, p: f64) -> f64 {
        stats::percentile(&stats::sorted(self.coord_ms.clone()), p)
    }

    /// The pass as one slice for [`stats::slice_median_rate`]: measured
    /// submits completed, and the seconds from the measured phase's
    /// first send to its last direct reply.
    pub fn slice(&self) -> (usize, f64) {
        let last = self.completions_s.last().copied().unwrap_or(0.0);
        (
            self.completions_s.len(),
            (last - self.measure_start_s).max(0.0),
        )
    }

    pub fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in self.submit_ms.iter_mut().zip(other.submit_ms) {
            mine.extend(theirs);
        }
        self.coord_ms.extend(other.coord_ms);
        self.push_lag_us.extend(other.push_lag_us);
        self.cancel_ms.extend(other.cancel_ms);
        self.expire_lag_ms.extend(other.expire_lag_ms);
        self.expected.add(other.expected);
    }
}

fn ms(from_ns: u64, to_ns: u64) -> f64 {
    (to_ns as f64 - from_ns as f64) / 1e6
}

/// The oracle and the sample extraction for one pass.
pub fn judge(stream: &Stream, log: &PassLog, flights: &HashSet<i64>) -> (Verdict, Samples) {
    let mut verdict = Verdict::default();
    let mut samples = Samples {
        measure_start_s: log.measure_start_ns as f64 / 1e9,
        ..Samples::default()
    };
    for (name, side) in [("A", &log.a), ("B", &log.b)] {
        if let Some(error) = &side.error {
            verdict.fail(1, || format!("side {name} stopped: {error}"));
        }
        verdict.fail(side.stray as u64, || {
            format!("side {name} read {} frames that fit no request", side.stray)
        });
    }

    // every op against what its unit must produce
    let mut unit_flight: HashMap<u32, i64> = HashMap::new();
    let sides = [
        (&stream.a_ops, &log.a.results),
        (&stream.b_ops, &log.b.results),
    ];
    for (side, (ops, results)) in sides.into_iter().enumerate() {
        for (op, r) in ops.iter().zip(results) {
            if r.sent_ns == 0 {
                continue;
            }
            verdict.attempted += 1;
            match op.expect {
                Expect::Answered => samples.expected.answered += 1,
                Expect::Cancelled => samples.expected.cancelled += 1,
                Expect::Expired => samples.expected.expired += 1,
            }
            let problem = if r.direct == Direct::None {
                Some("no direct reply")
            } else if r.terminal != Some(op.expect) {
                Some("missing or wrong terminal outcome")
            } else if op.expect == Expect::Answered && !flights.contains(&r.fno) {
                Some("answered with a flight that does not go to the destination")
            } else if op.expect == Expect::Answered
                && *unit_flight.entry(op.unit).or_insert(r.fno) != r.fno
            {
                Some("members of one unit were given different flights")
            } else if op.expect == Expect::Cancelled && r.cancel_ok_ns == 0 {
                Some("cancel never acknowledged")
            } else {
                None
            };
            if let Some(problem) = problem {
                verdict.fail(1, || format!("unit {}: {problem} ({r:?})", op.unit));
                continue;
            }
            if op.unit < log.measure_from {
                continue;
            }
            samples.submit_ms[side].push(ms(r.sent_ns, r.reply_ns));
            samples.completions_s.push(r.reply_ns as f64 / 1e9);
            if r.cancel_ok_ns != 0 {
                samples.cancel_ms.push(ms(r.cancel_sent_ns, r.cancel_ok_ns));
            }
            if op.expect == Expect::Expired && r.push_ns != 0 {
                let read_ms = log.base_epoch_ms + r.push_ns as f64 / 1e6;
                samples.expire_lag_ms.push(read_ms - r.deadline_ms as f64);
            }
        }
    }
    samples.completions_s.sort_by(f64::total_cmp);

    // coordination latency: B's closing submit → each waiting A member's push
    let measured = |op: &Op| op.unit >= log.measure_from;
    let pushes: Vec<PushSeen> = stream
        .a_ops
        .iter()
        .zip(&log.a.results)
        .filter(|(op, r)| measured(op) && r.push_ns != 0 && op.expect == Expect::Answered)
        .map(|(op, r)| PushSeen {
            unit: op.unit,
            read_ns: r.push_ns,
        })
        .collect();
    let closers = stream
        .b_ops
        .iter()
        .zip(&log.b.results)
        .filter(|(op, r)| measured(op) && r.direct == Direct::Done);
    let close_sent: Vec<CloseSent> = closers
        .clone()
        .map(|(op, r)| CloseSent {
            unit: op.unit,
            sent_ns: r.sent_ns,
        })
        .collect();
    let (coord_ms, unmatched) = stats::join_coord(&pushes, &close_sent);
    verdict.fail(unmatched as u64, || {
        format!("{unmatched} pushes could not be joined to a closing submit")
    });
    samples.coord_ms = coord_ms;
    let closer_reply: HashMap<u32, u64> = closers.map(|(op, r)| (op.unit, r.reply_ns)).collect();
    samples.push_lag_us = pushes
        .iter()
        .filter_map(|p| closer_reply.get(&p.unit).map(|&t| ms(t, p.read_ns) * 1e3))
        .collect();
    (verdict, samples)
}

/// Closes the tenant ledger: every admitted submission is accounted
/// for, nothing is left in flight, and the terminal counts are the
/// ones the stream must produce.
pub fn judge_ledger(ledger: &TenantSummary, expected: Ledger, verdict: &mut Verdict) {
    if !ledger_closes(ledger, expected) {
        verdict.fail(1, || {
            format!("tenant ledger {ledger:?} does not close on {expected:?}")
        });
    }
}

pub fn ledger_closes(ledger: &TenantSummary, expected: Ledger) -> bool {
    let closed = ledger.submitted
        == ledger.answered + ledger.cancelled + ledger.expired + ledger.aborted + ledger.in_flight;
    let got = Ledger {
        answered: ledger.answered,
        cancelled: ledger.cancelled,
        expired: ledger.expired,
    };
    closed && ledger.in_flight == 0 && ledger.rejected == 0 && got == expected
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this process has used so far (user + system), µs.
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, in clock ticks of 1/100 s
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something_on_linux() {
        assert!(rss_peak_mb() > 0.0);
        assert!(cpu_us() >= 0.0);
    }

    #[test]
    fn ledger_must_close_and_match() {
        let expected = Ledger {
            answered: 4,
            cancelled: 1,
            expired: 1,
        };
        let mut good = Verdict::default();
        let ledger = TenantSummary {
            submitted: 6,
            answered: 4,
            cancelled: 1,
            expired: 1,
            ..TenantSummary::default()
        };
        judge_ledger(&ledger, expected, &mut good);
        assert_eq!(good.failed, 0);
        let mut bad = Verdict::default();
        let leaking = TenantSummary {
            in_flight: 1,
            submitted: 7,
            ..ledger
        };
        judge_ledger(&leaking, expected, &mut bad);
        assert_eq!(bad.failed, 1);
    }
}
