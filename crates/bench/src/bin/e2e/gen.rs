//! Workload definitions and seeded request generation. Everything the
//! program under test will see is produced here, before any clock
//! starts, from `--seed` alone.

use youtopia_net::{encode_frame, frame_checksum, Request};
use youtopia_travel::WorkloadGen;

/// Answer relations the traffic and the standing noise spread over.
pub const RELATIONS: usize = 8;
/// Destination of every generated query (the oracle checks answers
/// against its flights).
pub const DEST: &str = "Paris";
/// Relative deadline of the churn workload's expiring queries.
pub const SHORT_DEADLINE_MS: u64 = 50;

/// Where a workload's database logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// `Database::new()`: no WAL at all.
    None,
    /// `Wal::in_memory()`: events are encoded and group-committed, no fsync.
    Memory,
    /// `Wal::open` in a fresh directory: real `fdatasync` per commit group.
    File,
}

impl Sink {
    pub fn describe(self) -> &'static str {
        match self {
            Sink::None => "none (Database::new)",
            Sink::Memory => "Wal::in_memory, no fsync",
            Sink::File => "Wal::open file, fdatasync per commit group, quantum 0",
        }
    }
}

/// Which units a workload's stream is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Coordinating pairs only.
    Pairs,
    /// 50% groups of three, 25% cancel-then-expire, 25% lone expiring.
    Churn,
}

/// One workload, fully described. The names are fixed: later issues
/// cite them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Units in flight; each of the two senders keeps `max(1, window / 2)`.
    pub window: usize,
    pub sink: Sink,
    pub audit: bool,
    /// The generator's sockets acknowledge at once (`TCP_QUICKACK`);
    /// see `client::Conn`. Off only where the idle session's stall is
    /// the thing measured.
    pub quick_ack: bool,
    /// Never-matching standing queries preloaded before the server starts.
    pub standing: usize,
    pub mix: Mix,
    /// Every epoch restarts from a killed server's log (`recovery`)
    /// instead of building a fresh stack.
    pub restarts: bool,
    /// Units driven per epoch — a constant, so every epoch walks the
    /// same state trajectory (answer relations grow as reservations
    /// accumulate, and match cost follows them). Sized at the commit
    /// that added the benchmark for epochs of a third to two thirds of
    /// a second (`pair_idle`: about a second, 25 units of 44 ms), so a
    /// run holds a dozen or more of them and bringing the epoch's
    /// stack up takes less time than driving it.
    pub epoch_units: usize,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "pair_idle",
        why: "window-1 ping-pong on an idle session: unloaded service time and the waiting friend's Done push",
        window: 1,
        sink: Sink::None,
        audit: false,
        quick_ack: false,
        standing: 1_000,
        mix: Mix::Pairs,
        restarts: false,
        epoch_units: 25,
    },
    Spec {
        name: "pairs_mem",
        why: "window-16 pairs, no WAL: saturates the reactor with the cheapest matches, so codec/parse/compile/apply CPU shows",
        window: 16,
        sink: Sink::None,
        audit: false,
        quick_ack: true,
        standing: 1_000,
        mix: Mix::Pairs,
        restarts: false,
        epoch_units: 1_000,
    },
    Spec {
        name: "pairs_durable",
        why: "pairs_mem traffic over a file WAL with real fsync: isolates group commit and the log-before-ack wait",
        window: 16,
        sink: Sink::File,
        audit: false,
        quick_ack: true,
        standing: 1_000,
        mix: Mix::Pairs,
        restarts: false,
        epoch_units: 300,
    },
    Spec {
        name: "standing_16k",
        why: "pairs_mem traffic against 16k standing queries: registry candidate intersection and matcher dominate",
        window: 16,
        sink: Sink::None,
        audit: false,
        quick_ack: true,
        standing: 16_000,
        mix: Mix::Pairs,
        restarts: false,
        epoch_units: 400,
    },
    Spec {
        name: "group_churn",
        why: "groups of three, cancels and 50 ms expiries with audit on: index maintenance, deadline heap, sweeper, audit ring",
        window: 16,
        sink: Sink::Memory,
        audit: true,
        quick_ack: true,
        standing: 1_000,
        mix: Mix::Churn,
        restarts: false,
        epoch_units: 600,
    },
    Spec {
        name: "recovery",
        why: "restart from a file WAL of standing registrations, matched pairs and cancels to the first answers: replay and rebuild",
        window: 16,
        sink: Sink::File,
        audit: false,
        quick_ack: true,
        standing: 8_000,
        mix: Mix::Pairs,
        restarts: true,
        epoch_units: 100,
    },
];

/// Matched pairs and cancelled registrations the `recovery` log holds
/// besides its standing set.
pub const RECOVERY_LOG_PAIRS: usize = 1_000;
pub const RECOVERY_LOG_CANCELS: usize = 500;

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// SplitMix64: the generator's only randomness, so a seed fixes the
/// stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Which generator thread sends an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Registers first: non-closing members, cancels, lone queries.
    A,
    /// Sends each unit's closing member once side A's are acknowledged.
    B,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Two members; A registers, B closes.
    Pair,
    /// Three members naming each other; A registers two, B closes.
    Group3,
    /// Two members of a group whose third never comes: the first is
    /// cancelled once accepted, the second expires.
    CancelExpire,
    /// One query whose partner never comes; it expires.
    Lone,
}

/// What must eventually happen to a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Answered,
    Cancelled,
    Expired,
}

/// One pre-generated `Submit`.
#[derive(Debug, Clone)]
pub struct Op {
    pub unit: u32,
    pub expect: Expect,
    /// Carries [`SHORT_DEADLINE_MS`]: the absolute deadline is patched
    /// into the frame when it is sent.
    pub short_deadline: bool,
    /// Byte range of the complete frame in [`Stream::arena`].
    frame: (u32, u32),
}

/// The generated request stream of one workload run.
pub struct Stream {
    pub kinds: Vec<UnitKind>,
    pub a_ops: Vec<Op>,
    pub b_ops: Vec<Op>,
    arena: Vec<u8>,
}

impl Stream {
    pub fn frame(&self, op: &Op) -> &[u8] {
        &self.arena[op.frame.0 as usize..op.frame.1 as usize]
    }

    /// The SQL text inside an op's frame (for probes that need the
    /// statement without the envelope).
    pub fn sql(&self, op: &Op) -> String {
        match Request::decode(&self.frame(op)[8..]) {
            Ok(Request::Submit { sql, .. }) => sql,
            other => panic!("generated frame is not a Submit: {other:?}"),
        }
    }
}

/// `me` books a flight to [`DEST`] on `rel` together with `friends`.
fn member_sql(rel: &str, me: &str, friends: &[&str]) -> String {
    if let [friend] = friends {
        return WorkloadGen::pair_request_on(rel, me, friend, DEST).sql;
    }
    let mut sql = format!(
        "SELECT '{me}', fno INTO ANSWER {rel} \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{DEST}')"
    );
    for friend in friends {
        sql.push_str(&format!(" AND ('{friend}', fno) IN ANSWER {rel}"));
    }
    sql.push_str(" CHOOSE 1");
    sql
}

/// Byte offset of the deadline value inside a framed `Submit` with a
/// deadline: 8 frame header + tag + corr (8) + deadline flag.
const DEADLINE_AT: usize = 8 + 1 + 8 + 1;

/// Writes the absolute deadline into a copy of a short-deadline
/// submit's frame and re-seals its checksum.
pub fn patch_deadline(frame: &mut [u8], deadline_millis: u64) {
    frame[DEADLINE_AT..DEADLINE_AT + 8].copy_from_slice(&deadline_millis.to_be_bytes());
    let len = (frame.len() - 8) as u32;
    let sum = frame_checksum(len, &frame[8..]);
    frame[4..8].copy_from_slice(&sum.to_be_bytes());
}

struct Builder {
    stream: Stream,
    tag: String,
}

impl Builder {
    /// Appends a submit; its correlation id is its 1-based index in
    /// its side's op list (0 is reserved for pushes).
    fn push(&mut self, side: Side, unit: u32, expect: Expect, short_deadline: bool, sql: String) {
        let ops = match side {
            Side::A => &mut self.stream.a_ops,
            Side::B => &mut self.stream.b_ops,
        };
        let request = Request::Submit {
            corr: ops.len() as u64 + 1,
            deadline: short_deadline.then_some(0),
            sql,
        };
        let start = self.stream.arena.len() as u32;
        self.stream
            .arena
            .extend_from_slice(&encode_frame(&request.encode()));
        ops.push(Op {
            unit,
            expect,
            short_deadline,
            frame: (start, self.stream.arena.len() as u32),
        });
    }

    fn unit(&mut self, kind: UnitKind, relation: usize) {
        let u = self.stream.kinds.len() as u32;
        self.stream.kinds.push(kind);
        let rel = format!("Reservation{relation}");
        let name = |m: usize| format!("{}u{u}m{m}", self.tag);
        let (m0, m1, m2) = (name(0), name(1), name(2));
        match kind {
            UnitKind::Pair => {
                self.push(
                    Side::A,
                    u,
                    Expect::Answered,
                    false,
                    member_sql(&rel, &m0, &[&m1]),
                );
                self.push(
                    Side::B,
                    u,
                    Expect::Answered,
                    false,
                    member_sql(&rel, &m1, &[&m0]),
                );
            }
            UnitKind::Group3 => {
                self.push(
                    Side::A,
                    u,
                    Expect::Answered,
                    false,
                    member_sql(&rel, &m0, &[&m1, &m2]),
                );
                self.push(
                    Side::A,
                    u,
                    Expect::Answered,
                    false,
                    member_sql(&rel, &m1, &[&m0, &m2]),
                );
                self.push(
                    Side::B,
                    u,
                    Expect::Answered,
                    false,
                    member_sql(&rel, &m2, &[&m0, &m1]),
                );
            }
            UnitKind::CancelExpire => {
                self.push(
                    Side::A,
                    u,
                    Expect::Cancelled,
                    false,
                    member_sql(&rel, &m0, &[&m1, &m2]),
                );
                self.push(
                    Side::A,
                    u,
                    Expect::Expired,
                    true,
                    member_sql(&rel, &m1, &[&m0, &m2]),
                );
            }
            UnitKind::Lone => {
                self.push(
                    Side::A,
                    u,
                    Expect::Expired,
                    true,
                    member_sql(&rel, &m0, &[&m1]),
                );
            }
        }
    }
}

/// Generates `units` units of `mix`. `tag` keeps member names of
/// different streams on one server apart. The seed orders the units,
/// it does not change how hard the stream is: every block of eight
/// units visits every relation once and, for the churn mix, holds
/// exactly four groups, two cancel-expire units and two lone queries.
pub fn stream(seed: u64, mix: Mix, units: usize, tag: &str) -> Stream {
    let mut rng = Rng::new(seed ^ 0xE2E0_57EA);
    let mut b = Builder {
        stream: Stream {
            kinds: Vec::with_capacity(units),
            a_ops: Vec::new(),
            b_ops: Vec::new(),
            arena: Vec::new(),
        },
        tag: tag.to_string(),
    };
    let mut relations: Vec<usize> = (0..RELATIONS).collect();
    let mut kinds = match mix {
        Mix::Pairs => [UnitKind::Pair; 8],
        Mix::Churn => {
            use UnitKind::{CancelExpire as C, Group3 as G, Lone as L};
            [G, G, G, G, C, C, L, L]
        }
    };
    for u in 0..units {
        if u % 8 == 0 {
            rng.shuffle(&mut relations);
            rng.shuffle(&mut kinds);
        }
        b.unit(kinds[u % 8], relations[u % 8]);
    }
    b.stream
}

/// The standing load: never-matching queries owned by tenant `noise`.
pub fn standing_noise(count: usize) -> Vec<youtopia_travel::Request> {
    WorkloadGen::tenant_storm("noise", count, DEST, RELATIONS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream(11, Mix::Churn, 200, "t");
        let b = stream(11, Mix::Churn, 200, "t");
        let c = stream(12, Mix::Churn, 200, "t");
        assert_eq!(a.arena, b.arena);
        assert_eq!(a.kinds, b.kinds);
        assert_ne!(a.arena, c.arena);
    }

    #[test]
    fn patched_deadline_frame_decodes_with_a_valid_checksum() {
        let s = stream(3, Mix::Churn, 50, "t");
        let op = s.a_ops.iter().find(|op| op.short_deadline).unwrap();
        let mut frame = s.frame(op).to_vec();
        patch_deadline(&mut frame, 1_234_567_890_123);
        let (payload, used) = youtopia_net::split_frame(&frame).unwrap().unwrap();
        assert_eq!(used, frame.len());
        match Request::decode(&payload).unwrap() {
            Request::Submit { deadline, .. } => assert_eq!(deadline, Some(1_234_567_890_123)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn churn_units_put_closers_on_side_b_only() {
        let s = stream(5, Mix::Churn, 400, "t");
        for op in &s.b_ops {
            assert_eq!(s.kinds[op.unit as usize], UnitKind::Group3);
            assert_eq!(op.expect, Expect::Answered);
        }
        let groups = s.kinds.iter().filter(|k| **k == UnitKind::Group3).count();
        assert_eq!(s.b_ops.len(), groups);
        assert_eq!(groups, 200, "every block of eight holds four groups");
    }
}
