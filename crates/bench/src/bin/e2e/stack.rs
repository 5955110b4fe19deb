//! Builds the system under test, in-process: travel database →
//! sharded coordinator → `NetServer` on a loopback port.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use youtopia_core::{
    AuditConfig, Clock, CoordinatorConfig, RecoveryReport, ShardedConfig, ShardedCoordinator,
    SystemClock, TenantQuotas, TenantRegistry,
};
use youtopia_exec::{run_sql, StatementOutcome};
use youtopia_net::{NetServer, ServerConfig};
use youtopia_storage::{Database, Value, Wal};
use youtopia_travel::{drive_batched, WorkloadGen};

use crate::gen::{self, Sink, Spec, DEST};

pub const FLIGHTS: usize = 200;
pub const CITIES: [&str; 2] = ["Paris", "Rome"];
pub const SHARDS: usize = 4;

/// The coordinator configuration every workload uses.
pub fn sharded_config(audit: bool) -> ShardedConfig {
    let mut base = CoordinatorConfig::default();
    base.match_config.randomize = false;
    if audit {
        base.audit = AuditConfig {
            enabled: true,
            max_rows: 4096,
            rotate: 512,
        };
    }
    ShardedConfig {
        shards: SHARDS,
        base,
        ..ShardedConfig::default()
    }
}

/// Scratch space for file WALs: inside the build directory, because
/// the benchmark may write only inside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// A fresh directory under [`out_dir`], removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new() -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "e2e-tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch directory for the WAL");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_wal(sink: Sink, dir: &Option<TempDir>) -> Option<Wal> {
    match sink {
        Sink::None => None,
        Sink::Memory => Some(Wal::in_memory()),
        Sink::File => {
            let dir = dir.as_ref().expect("file sink has a directory");
            Some(Wal::open(dir.path().join("wal.log")).expect("open file WAL"))
        }
    }
}

/// The travel database of a workload on its sink.
pub fn build_database(seed: u64, sink: Sink) -> (Database, Option<TempDir>) {
    let dir = (sink == Sink::File).then(TempDir::new);
    let mut generator = WorkloadGen::new(seed);
    let db = match open_wal(sink, &dir) {
        None => generator.build_database(FLIGHTS, &CITIES),
        Some(wal) => generator.build_database_with_wal(FLIGHTS, &CITIES, wal),
    }
    .expect("travel database builds");
    (db, dir)
}

/// Flight numbers the oracle accepts in an answer.
pub fn dest_flights(db: &Database) -> Vec<i64> {
    let sql = format!("SELECT fno FROM Flights WHERE dest = '{DEST}'");
    match run_sql(db, &sql).expect("flights query runs") {
        StatementOutcome::Rows(rows) => rows
            .rows
            .iter()
            .filter_map(|t| match t.get(0) {
                Some(Value::Int(fno)) => Some(*fno),
                _ => None,
            })
            .collect(),
        other => panic!("flights query returned {other:?}"),
    }
}

/// Registers the standing noise; none of it may match.
pub fn preload_standing(co: &ShardedCoordinator, count: usize) {
    let report = drive_batched(co, &gen::standing_noise(count), 256);
    assert_eq!(
        (report.answered, report.pending, report.rejected),
        (0, count, 0),
        "standing noise must register and stay pending"
    );
}

/// Database + coordinator with the standing load registered: the
/// part of the stack below the network.
pub struct Core {
    pub db: Database,
    pub co: Arc<ShardedCoordinator>,
    /// Keeps a file WAL's directory alive; dropped after the handles.
    _dir: Option<TempDir>,
}

impl Core {
    pub fn build(spec: &Spec, seed: u64) -> Core {
        let (db, dir) = build_database(seed, spec.sink);
        let co = ShardedCoordinator::with_config(db.clone(), sharded_config(spec.audit));
        preload_standing(&co, spec.standing);
        Core {
            db,
            co: Arc::new(co),
            _dir: dir,
        }
    }

    /// Restart: `Wal::open` on a copy of `log` → `recover`.
    pub fn recover(spec: &Spec, log: &Path) -> (Core, RecoveryReport) {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        std::fs::copy(log, &path).expect("copy the recovery log");
        let wal = Wal::open(&path).expect("open the copied log");
        let (co, report) = ShardedCoordinator::recover(wal, sharded_config(spec.audit))
            .expect("recovery succeeds");
        let core = Core {
            db: co.db().clone(),
            co: Arc::new(co),
            _dir: Some(dir),
        };
        (core, report)
    }
}

/// A running system under test. The server is declared first so the
/// reactor stops before the coordinator goes away.
pub struct Stack {
    pub server: NetServer,
    pub core: Core,
}

fn serve(co: Arc<ShardedCoordinator>) -> NetServer {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    NetServer::spawn(
        co,
        TenantRegistry::new(TenantQuotas::unlimited()),
        ServerConfig::default(),
        clock,
    )
    .expect("server binds a loopback port")
}

impl Stack {
    /// Puts a server in front of a core.
    pub fn serve(core: Core) -> Stack {
        Stack {
            server: serve(Arc::clone(&core.co)),
            core,
        }
    }
}

/// What the `recovery` workload restarts from.
pub struct RecoveryLog {
    pub path: PathBuf,
    pub bytes: u64,
    /// Pending queries at the "kill": what every restart must restore.
    pub standing: usize,
    _dir: TempDir,
}

/// Writes the recovery log: `spec.standing` registrations, matched
/// pairs and cancelled registrations. The events go through a real
/// coordinator on an in-memory sink and the bytes are then written to
/// a file — the same frames a file sink would hold, without paying
/// 20k fsyncs of set-up per run.
pub fn build_recovery_log(spec: &Spec, seed: u64) -> RecoveryLog {
    let (db, _) = build_database(seed, Sink::Memory);
    let co = ShardedCoordinator::with_config(db.clone(), sharded_config(spec.audit));
    preload_standing(&co, spec.standing);
    let pairs = WorkloadGen::tenant_pairs("old", gen::RECOVERY_LOG_PAIRS, DEST, gen::RELATIONS);
    let report = drive_batched(&co, &pairs, 256);
    assert_eq!(report.answered + report.pending, pairs.len());
    let doomed = WorkloadGen::tenant_storm("gone", gen::RECOVERY_LOG_CANCELS, DEST, gen::RELATIONS);
    drive_batched(&co, &doomed, 256);
    for owner in doomed.iter().map(|r| &r.owner) {
        assert_eq!(co.cancel_owner(owner), 1, "each doomed owner has one query");
    }
    let standing = co.pending_count();
    assert_eq!(standing, spec.standing, "only the standing set survives");
    let bytes = db.wal_bytes().expect("memory sink exposes its bytes");
    let dir = TempDir::new();
    let path = dir.path().join("killed.log");
    std::fs::write(&path, &bytes).expect("write the recovery log");
    RecoveryLog {
        path,
        bytes: bytes.len() as u64,
        standing,
        _dir: dir,
    }
}
