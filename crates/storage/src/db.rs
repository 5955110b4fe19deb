//! The database engine: a shared catalog guarded by a reader–writer
//! lock, with undo-logged transactions and optional WAL durability.
//!
//! Concurrency model: read transactions take the shared lock and may run
//! concurrently; a write transaction takes the exclusive lock for its
//! whole lifetime, so writers are serialized and readers never observe a
//! partially applied transaction. This gives the *atomic joint
//! application* of entangled-query matches that the Youtopia coordinator
//! requires, with rollback via the undo log on abort.
//!
//! Durability rides the pipelined group-commit writer
//! ([`crate::group_commit::GroupCommit`]): every commit group — a
//! transaction's redo records, a coordination event batch — is
//! enqueued to one writer thread under the next LSN, appended as a
//! marker-delimited group and synced once per quantum. Coordination
//! appends never touch the catalog lock; transaction commits enqueue
//! while still holding it, so log order extends commit order.
//! [`Transaction::commit`] and [`Database::append_coordination_batch`]
//! block until their group is durable; [`Transaction::commit_pipelined`]
//! and [`Database::enqueue_coordination_batch`] return its LSN at once,
//! for a caller that holds its acknowledgements until
//! [`Database::durable_lsn`] covers them.

use std::sync::Arc;

use parking_lot::{ArcRwLockReadGuard, ArcRwLockWriteGuard, RawRwLock, RwLock};

use crate::catalog::Catalog;
use crate::error::{StorageError, StorageResult};
use crate::group_commit::{GroupCommit, GroupCommitConfig, WakeHook};
use crate::index::IndexKind;
use crate::schema::Schema;
use crate::table::{RowId, Table};
use crate::tuple::Tuple;
use crate::wal::{Wal, WalOp, WalRecord};

/// Name prefix that marks a table as a *transient system relation*.
///
/// Transient tables (e.g. the coordination audit relations `sys_audit`
/// and `sys_tenant_latency`) live in the catalog and are fully readable
/// and writable through normal transactions, but they are **derived
/// state**: their mutations are never WAL-logged, and checkpoints and
/// snapshots skip them. The subsystem that owns a transient table is
/// responsible for rebuilding it on recovery (the audit sink rebuilds
/// from the log's coordination frames). This keeps high-volume
/// telemetry writes off the durability path entirely — a transaction
/// that only touches transient tables commits without enqueueing a
/// group-commit request at all.
pub const TRANSIENT_PREFIX: &str = "sys_";

/// Whether `name` names a transient system relation (see
/// [`TRANSIENT_PREFIX`]).
pub fn is_transient(name: &str) -> bool {
    name.starts_with(TRANSIENT_PREFIX)
}

struct DbInner {
    catalog: Catalog,
}

/// A shared handle to one database. Cloning is cheap (`Arc` inside);
/// all clones see the same data.
#[derive(Clone)]
pub struct Database {
    inner: Arc<RwLock<DbInner>>,
    /// The group-commit pipeline; `None` for non-durable databases.
    log: Option<Arc<GroupCommit>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates an empty, non-durable (no WAL) database.
    pub fn new() -> Database {
        Database {
            inner: Arc::new(RwLock::new(DbInner {
                catalog: Catalog::new(),
            })),
            log: None,
        }
    }

    /// Creates an empty database that logs committed work to `wal`
    /// through the group-commit pipeline (default quantum).
    pub fn with_wal(wal: Wal) -> Database {
        Self::with_wal_config(wal, GroupCommitConfig::default())
    }

    /// Creates an empty database that logs to `wal` with an explicit
    /// group-commit configuration (the sync-quantum latency knob).
    pub fn with_wal_config(wal: Wal, config: GroupCommitConfig) -> Database {
        Database {
            inner: Arc::new(RwLock::new(DbInner {
                catalog: Catalog::new(),
            })),
            log: Some(Arc::new(GroupCommit::spawn(wal, config))),
        }
    }

    /// Rebuilds a database by replaying a WAL, then keeps logging to it.
    /// Coordination frames in the log are preserved but not interpreted;
    /// use [`Database::recover_full`] to obtain them.
    pub fn recover(wal: Wal) -> StorageResult<Database> {
        Ok(Self::recover_full(wal)?.0)
    }

    /// Rebuilds a database by replaying a WAL and returns the log's
    /// coordination payloads (in log order) alongside it, so the
    /// coordination layer can rebuild *its* state from the same log.
    pub fn recover_full(wal: Wal) -> StorageResult<(Database, Vec<Vec<u8>>)> {
        Self::recover_full_config(wal, GroupCommitConfig::default())
    }

    /// [`Database::recover_full`] with an explicit group-commit
    /// configuration for the post-recovery writer.
    pub fn recover_full_config(
        mut wal: Wal,
        config: GroupCommitConfig,
    ) -> StorageResult<(Database, Vec<Vec<u8>>)> {
        // replay (and truncate any damaged suffix) before the writer
        // thread takes ownership of the log
        let records = wal.replay_records()?;
        let mut catalog = Catalog::new();
        let mut coordination = Vec::new();
        for record in records {
            match record {
                WalRecord::Storage(op) => apply_wal_op(&mut catalog, op)?,
                WalRecord::Coordination(payload) => coordination.push(payload),
                WalRecord::CommitBoundary => {}
            }
        }
        let db = Database {
            inner: Arc::new(RwLock::new(DbInner { catalog })),
            log: Some(Arc::new(GroupCommit::spawn(wal, config))),
        };
        Ok((db, coordination))
    }

    /// A copy of the raw WAL bytes (memory-backed WALs only; used by
    /// crash-recovery tests that "kill" a process by dropping it and
    /// keep only what had reached the log).
    pub fn wal_bytes(&self) -> Option<Vec<u8>> {
        self.log
            .as_ref()?
            .with_wal(|wal| wal.raw_bytes().map(<[u8]>::to_vec))
    }

    /// Current WAL size in bytes (`None` without a WAL; works for file
    /// and memory sinks): the length the group-commit writer has
    /// synced, exact for every durable commit. Takes no lock, so it
    /// never waits for an fsync. Feeds the coordinator's
    /// auto-checkpoint threshold and the admin-surface log gauges.
    pub fn wal_len(&self) -> Option<u64> {
        Some(self.log.as_ref()?.synced_len())
    }

    /// Syncs the group-commit writer has issued (`None` without a
    /// WAL). Lock-free.
    pub fn wal_syncs(&self) -> Option<u64> {
        Some(self.log.as_ref()?.syncs())
    }

    /// Commit groups the group-commit writer has appended (`None`
    /// without a WAL). Lock-free.
    pub fn wal_groups(&self) -> Option<u64> {
        Some(self.log.as_ref()?.groups())
    }

    /// LSN of the last commit group enqueued to the log; 0 without a
    /// WAL. A reply that reflects state as of now is safe to send once
    /// [`Database::durable_lsn`] reaches this value. Lock-free.
    pub fn enqueued_lsn(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.enqueued_lsn())
    }

    /// Every commit group up to this LSN is durable; 0 without a WAL.
    /// Never passes a group that failed. Lock-free.
    pub fn durable_lsn(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.durable_lsn())
    }

    /// The error that poisoned the log writer, if one did: no group
    /// past [`Database::durable_lsn`] will ever be durable, and every
    /// later log write fails. `None` without a WAL.
    pub fn log_failure(&self) -> Option<StorageError> {
        self.log.as_ref()?.failure()
    }

    /// Registers a hook the log writer calls after every batch it
    /// finishes, durable or failed — the signal to re-read
    /// [`Database::durable_lsn`]. Held weakly: dropping the hook
    /// unregisters it. No-op without a WAL.
    pub fn add_durable_hook(&self, hook: WakeHook) {
        if let Some(log) = &self.log {
            log.add_wake_hook(hook);
        }
    }

    /// Blocks until every commit group up to `lsn` is durable; the
    /// writer's failure if it never will be.
    pub fn wait_durable(&self, lsn: u64) -> StorageResult<()> {
        match &self.log {
            Some(log) => log.wait_durable(lsn),
            None => Ok(()),
        }
    }

    /// Runs `f` with the log held exclusively (`None` without a WAL):
    /// the writer appends nothing meanwhile, while commits keep
    /// enqueueing behind it. An introspection and fault-injection
    /// hook; checkpoints use the same lock.
    pub fn with_log<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> Option<R> {
        Some(self.log.as_ref()?.with_wal(f))
    }

    /// Durably appends one opaque coordination payload to the WAL as
    /// its own commit group through the group-commit pipeline,
    /// returning once it is synced. No-op without a WAL.
    pub fn append_coordination(&self, payload: &[u8]) -> StorageResult<()> {
        self.append_coordination_batch(std::slice::from_ref(&payload))
    }

    /// Group-commits a batch of coordination payloads as **one**
    /// marker-delimited commit group via the pipelined writer; blocks
    /// until the group is durable. Concurrent callers (e.g. several
    /// shards draining registration buckets) share one fsync per
    /// writer quantum instead of paying one each. Never takes the
    /// catalog lock. No-op without a WAL.
    pub fn append_coordination_batch<P: AsRef<[u8]>>(&self, payloads: &[P]) -> StorageResult<()> {
        let lsn = self.enqueue_coordination_batch(payloads)?;
        self.wait_durable(lsn)
    }

    /// [`Database::append_coordination_batch`] without the wait:
    /// enqueues the group and returns its LSN (0 without a WAL, or for
    /// an empty batch). Fails at once when the writer is poisoned.
    pub fn enqueue_coordination_batch<P: AsRef<[u8]>>(&self, payloads: &[P]) -> StorageResult<u64> {
        let Some(log) = &self.log else {
            return Ok(0);
        };
        let records: Vec<WalRecord> = payloads
            .iter()
            .map(|p| WalRecord::Coordination(p.as_ref().to_vec()))
            .collect();
        log.enqueue(records)
    }

    /// Starts a read transaction (shared lock for the guard's lifetime).
    pub fn read(&self) -> ReadTransaction {
        ReadTransaction {
            guard: RwLock::read_arc(&self.inner),
        }
    }

    /// Starts a write transaction (exclusive lock until commit/abort).
    pub fn begin(&self) -> Transaction {
        Transaction {
            guard: RwLock::write_arc(&self.inner),
            log: self.log.clone(),
            undo: Vec::new(),
            redo: Vec::new(),
            finished: false,
        }
    }

    /// One-shot helper: run `f` inside a write transaction, committing on
    /// `Ok` and rolling back on `Err`.
    pub fn with_txn<T>(
        &self,
        f: impl FnOnce(&mut Transaction) -> StorageResult<T>,
    ) -> StorageResult<T> {
        let mut txn = self.begin();
        match f(&mut txn) {
            Ok(value) => {
                txn.commit()?;
                Ok(value)
            }
            Err(e) => {
                txn.abort();
                Err(e)
            }
        }
    }

    /// The logical operations that recreate the current state: one
    /// `CreateTable` per table plus one `Insert` per live row. This is
    /// exactly what checkpointing writes.
    pub fn snapshot_ops(&self) -> Vec<WalOp> {
        let inner = self.inner.read();
        let mut ops = Vec::new();
        for name in inner.catalog.table_names() {
            if is_transient(&name) {
                continue;
            }
            let table = inner
                .catalog
                .table(&name)
                .expect("name came from the catalog");
            ops.push(WalOp::CreateTable {
                name: table.name().to_string(),
                schema: table.schema().clone(),
            });
            for (rid, tuple) in table.scan() {
                ops.push(WalOp::Insert {
                    table: table.name().to_string(),
                    rid: rid.0,
                    tuple: tuple.clone(),
                });
            }
        }
        ops
    }

    /// Compacts the WAL: atomically (under the write lock) replaces the
    /// log's history with a snapshot of the live state, discarding dead
    /// updates and deletes. Coordination frames are **carried through**
    /// verbatim (in their original order) — storage cannot know which
    /// are still live, so compacting them is the coordination layer's
    /// job (see [`Database::checkpoint_with_coordination`]). No-op for
    /// databases without a WAL.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.checkpoint_inner(None)
    }

    /// Checkpoints like [`Database::checkpoint`], but replaces the
    /// log's coordination frames with the supplied (compacted) set
    /// instead of carrying the old ones through. The coordinator calls
    /// this with one registration frame per *surviving* pending query,
    /// so matched/cancelled registrations stop occupying log space.
    pub fn checkpoint_with_coordination<P: AsRef<[u8]>>(
        &self,
        coordination: &[P],
    ) -> StorageResult<()> {
        let frames: Vec<Vec<u8>> = coordination.iter().map(|p| p.as_ref().to_vec()).collect();
        self.checkpoint_inner(Some(frames))
    }

    fn checkpoint_inner(&self, coordination: Option<Vec<Vec<u8>>>) -> StorageResult<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        // take the write lock so no transaction commit interleaves
        // with the rewrite (commits enqueue under this lock)
        let inner = self.inner.write();
        // drain first: a pipelined commit's rows are already in the
        // catalog the snapshot copies, so its group must reach the old
        // log (which the rewrite replaces) rather than land after the
        // snapshot and replay a second time
        log.wait_durable(log.enqueued_lsn())?;
        // build the snapshot from the locked state (transient system
        // relations are derived state and stay out of the log)
        let mut ops = Vec::new();
        for name in inner.catalog.table_names() {
            if is_transient(&name) {
                continue;
            }
            let table = inner
                .catalog
                .table(&name)
                .expect("name came from the catalog");
            ops.push(WalOp::CreateTable {
                name: table.name().to_string(),
                schema: table.schema().clone(),
            });
            for (rid, tuple) in table.scan() {
                ops.push(WalOp::Insert {
                    table: table.name().to_string(),
                    rid: rid.0,
                    tuple: tuple.clone(),
                });
            }
        }
        // replay + reset + rewrite under ONE log-lock hold: the writer
        // thread must not append a queued group between reading the old
        // coordination frames and the reset that would destroy it.
        // A coordination group enqueued after the drain (by a caller
        // that holds no lock the checkpoint holds) is not in the
        // snapshot and lands after it, where it belongs.
        log.with_wal(|wal| {
            // preserve the log's coordination frames unless the caller
            // supplied a compacted replacement set
            let coordination = match coordination {
                Some(frames) => frames,
                None => wal
                    .replay_records()?
                    .into_iter()
                    .filter_map(WalRecord::coordination)
                    .collect(),
            };
            wal.reset()?;
            for op in &ops {
                wal.append(op)?;
            }
            for payload in &coordination {
                wal.append_coordination(payload)?;
            }
            // the snapshot is one commit group: seal it so a crash
            // mid-rewrite cannot replay a half-written snapshot past
            // the marker
            wal.append_commit_boundary()?;
            wal.sync()
        })
    }
}

fn apply_wal_op(catalog: &mut Catalog, op: WalOp) -> StorageResult<()> {
    match op {
        WalOp::CreateTable { name, schema } => catalog.create_table(&name, schema),
        WalOp::DropTable { name } => catalog.drop_table(&name).map(|_| ()),
        WalOp::Insert { table, rid, tuple } => {
            catalog.table_mut(&table)?.insert_at(RowId(rid), tuple)
        }
        WalOp::Update { table, rid, tuple } => catalog
            .table_mut(&table)?
            .update(RowId(rid), tuple)
            .map(|_| ()),
        WalOp::Delete { table, rid } => catalog.table_mut(&table)?.delete(RowId(rid)).map(|_| ()),
    }
}

/// A read-only view of the database. Holds the shared lock; drop it to
/// release.
pub struct ReadTransaction {
    guard: ArcRwLockReadGuard<RawRwLock, DbInner>,
}

impl ReadTransaction {
    /// Looks up a table.
    pub fn table(&self, name: &str) -> StorageResult<&Table> {
        self.guard.catalog.table(name)
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.guard.catalog
    }
}

enum UndoOp {
    CreateTable {
        name: String,
    },
    DropTable {
        table: Table,
    },
    Insert {
        table: String,
        rid: RowId,
    },
    Update {
        table: String,
        rid: RowId,
        old: Tuple,
    },
    Delete {
        table: String,
        rid: RowId,
        old: Tuple,
    },
}

/// A write transaction. Mutations are applied eagerly to the catalog and
/// recorded in an undo log; [`Transaction::abort`] (or dropping without
/// commit) rolls everything back, [`Transaction::commit`] appends the
/// redo records to the WAL (if any) and releases the lock.
pub struct Transaction {
    guard: ArcRwLockWriteGuard<RawRwLock, DbInner>,
    log: Option<Arc<GroupCommit>>,
    undo: Vec<UndoOp>,
    redo: Vec<WalRecord>,
    finished: bool,
}

impl Transaction {
    fn check_open(&self) -> StorageResult<()> {
        if self.finished {
            Err(StorageError::TransactionClosed)
        } else {
            Ok(())
        }
    }

    /// Creates a table. Tables named with the [`TRANSIENT_PREFIX`] are
    /// transient system relations: created in the catalog but never
    /// WAL-logged (their owner rebuilds them on recovery).
    pub fn create_table(&mut self, name: &str, schema: Schema) -> StorageResult<()> {
        self.check_open()?;
        self.guard.catalog.create_table(name, schema.clone())?;
        self.undo.push(UndoOp::CreateTable {
            name: name.to_string(),
        });
        if !is_transient(name) {
            self.redo.push(WalRecord::Storage(WalOp::CreateTable {
                name: name.to_string(),
                schema,
            }));
        }
        Ok(())
    }

    /// Drops a table.
    pub fn drop_table(&mut self, name: &str) -> StorageResult<()> {
        self.check_open()?;
        let table = self.guard.catalog.drop_table(name)?;
        if !is_transient(name) {
            self.redo.push(WalRecord::Storage(WalOp::DropTable {
                name: table.name().to_string(),
            }));
        }
        self.undo.push(UndoOp::DropTable { table });
        Ok(())
    }

    /// Creates a secondary index (not WAL-logged: indexes are derived
    /// state and are rebuilt by DDL on recovery paths that need them).
    pub fn create_index(
        &mut self,
        table: &str,
        index_name: &str,
        columns: &[&str],
        unique: bool,
        kind: IndexKind,
    ) -> StorageResult<()> {
        self.check_open()?;
        self.guard
            .catalog
            .table_mut(table)?
            .create_index(index_name, columns, unique, kind)
    }

    /// Inserts a tuple; returns its row id.
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> StorageResult<RowId> {
        self.check_open()?;
        let t = self.guard.catalog.table_mut(table)?;
        let rid = t.insert(tuple)?;
        self.undo.push(UndoOp::Insert {
            table: table.to_string(),
            rid,
        });
        if !is_transient(table) {
            // the redo record is the only consumer of the stored copy;
            // transient tables never reach the WAL, so skip the clone
            let stored = self
                .guard
                .catalog
                .table_mut(table)?
                .get(rid)
                .expect("row was just inserted")
                .clone();
            self.redo.push(WalRecord::Storage(WalOp::Insert {
                table: table.to_string(),
                rid: rid.0,
                tuple: stored,
            }));
        }
        Ok(rid)
    }

    /// Updates a row in place.
    pub fn update(&mut self, table: &str, rid: RowId, tuple: Tuple) -> StorageResult<()> {
        self.check_open()?;
        let t = self.guard.catalog.table_mut(table)?;
        let old = t.update(rid, tuple)?;
        self.undo.push(UndoOp::Update {
            table: table.to_string(),
            rid,
            old,
        });
        if !is_transient(table) {
            let stored = self
                .guard
                .catalog
                .table_mut(table)?
                .get(rid)
                .expect("row still exists")
                .clone();
            self.redo.push(WalRecord::Storage(WalOp::Update {
                table: table.to_string(),
                rid: rid.0,
                tuple: stored,
            }));
        }
        Ok(())
    }

    /// Deletes a row.
    pub fn delete(&mut self, table: &str, rid: RowId) -> StorageResult<()> {
        self.check_open()?;
        let old = self.guard.catalog.table_mut(table)?.delete(rid)?;
        self.undo.push(UndoOp::Delete {
            table: table.to_string(),
            rid,
            old,
        });
        if !is_transient(table) {
            self.redo.push(WalRecord::Storage(WalOp::Delete {
                table: table.to_string(),
                rid: rid.0,
            }));
        }
        Ok(())
    }

    /// Records an opaque coordination payload to be written to the WAL
    /// **atomically with this transaction's storage operations** at
    /// commit (the group-commit handle of the coordination layer: a
    /// match commit and its answer-tuple inserts reach the log
    /// together, or not at all). Has no in-memory effect; aborting the
    /// transaction discards the payload.
    pub fn log_coordination(&mut self, payload: Vec<u8>) -> StorageResult<()> {
        self.check_open()?;
        self.redo.push(WalRecord::Coordination(payload));
        Ok(())
    }

    /// Reads a table *within* the transaction (sees own writes).
    pub fn table(&self, name: &str) -> StorageResult<&Table> {
        self.guard.catalog.table(name)
    }

    /// The catalog as seen by this transaction.
    pub fn catalog(&self) -> &Catalog {
        &self.guard.catalog
    }

    /// Commits: submits the redo records to the group-commit pipeline
    /// as one marker-delimited commit group (if durable) and blocks —
    /// still holding the database lock — until the group is synced,
    /// then releases the lock. Enqueueing under the lock means log
    /// order extends commit order; waiting under it preserves
    /// rollback-on-WAL-failure (no reader observes state the log then
    /// refuses). On WAL failure the transaction is rolled back and the
    /// error returned.
    pub fn commit(mut self) -> StorageResult<()> {
        let lsn = self.enqueue_redo()?;
        if let Some(log) = &self.log {
            if let Err(e) = log.wait_durable(lsn) {
                self.rollback();
                self.finished = true;
                return Err(e);
            }
        }
        self.finished = true;
        Ok(())
    }

    /// Commits without waiting for the log: enqueues the redo group
    /// under the database lock (so log order still extends commit
    /// order), releases the lock and returns the group's LSN (0 when
    /// nothing was logged). Only a synchronous enqueue failure — a
    /// poisoned writer — rolls back. Other threads see the changes
    /// before they are durable; the caller must hold every
    /// acknowledgement until [`Database::durable_lsn`] reaches the LSN.
    /// If the group then fails, the changes stay in memory, absent
    /// from the log, and every later log write fails.
    pub fn commit_pipelined(mut self) -> StorageResult<u64> {
        let lsn = self.enqueue_redo()?;
        self.finished = true;
        Ok(lsn)
    }

    /// Enqueues the redo records as one commit group; on a synchronous
    /// failure rolls back and closes the transaction.
    fn enqueue_redo(&mut self) -> StorageResult<u64> {
        self.check_open()?;
        let redo = std::mem::take(&mut self.redo);
        let Some(log) = &self.log else {
            return Ok(0);
        };
        log.enqueue(redo).inspect_err(|_| {
            self.rollback();
            self.finished = true;
        })
    }

    /// Aborts: rolls back all mutations and releases the lock.
    pub fn abort(mut self) {
        if !self.finished {
            self.rollback();
            self.finished = true;
        }
    }

    fn rollback(&mut self) {
        // Undo in reverse order; failures here indicate a broken invariant.
        while let Some(op) = self.undo.pop() {
            let result: StorageResult<()> = match op {
                UndoOp::CreateTable { name } => self.guard.catalog.drop_table(&name).map(|_| ()),
                UndoOp::DropTable { table } => self.guard.catalog.restore_table(table),
                UndoOp::Insert { table, rid } => self
                    .guard
                    .catalog
                    .table_mut(&table)
                    .and_then(|t| t.delete(rid))
                    .map(|_| ()),
                UndoOp::Update { table, rid, old } => self
                    .guard
                    .catalog
                    .table_mut(&table)
                    .and_then(|t| t.update(rid, old))
                    .map(|_| ()),
                UndoOp::Delete { table, rid, old } => self
                    .guard
                    .catalog
                    .table_mut(&table)
                    .and_then(|t| t.insert_at(rid, old)),
            };
            result.expect("undo must not fail: storage invariant violated");
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
            self.finished = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn flights_schema() -> Schema {
        Schema::with_primary_key(
            vec![
                Column::new("fno", DataType::Int64),
                Column::new("dest", DataType::Str),
            ],
            &["fno"],
        )
    }

    fn row(fno: i64, dest: &str) -> Tuple {
        Tuple::new(vec![Value::Int(fno), Value::from(dest)])
    }

    fn populated() -> Database {
        let db = Database::new();
        db.with_txn(|txn| {
            txn.create_table("Flights", flights_schema())?;
            txn.insert("Flights", row(122, "Paris"))?;
            txn.insert("Flights", row(123, "Paris"))?;
            Ok(())
        })
        .unwrap();
        db
    }

    #[test]
    fn commit_makes_changes_visible() {
        let db = populated();
        let read = db.read();
        assert_eq!(read.table("Flights").unwrap().len(), 2);
    }

    #[test]
    fn abort_rolls_back_everything() {
        let db = populated();
        let mut txn = db.begin();
        txn.insert("Flights", row(200, "Oslo")).unwrap();
        txn.delete("Flights", RowId(0)).unwrap();
        txn.update("Flights", RowId(1), row(123, "Lyon")).unwrap();
        txn.create_table("Hotels", flights_schema()).unwrap();
        txn.abort();

        let read = db.read();
        let flights = read.table("Flights").unwrap();
        assert_eq!(flights.len(), 2);
        assert_eq!(
            flights.get(RowId(0)).unwrap().values()[1],
            Value::from("Paris")
        );
        assert_eq!(
            flights.get(RowId(1)).unwrap().values()[1],
            Value::from("Paris")
        );
        assert!(read.table("Hotels").is_err());
    }

    #[test]
    fn aborted_txn_leaves_a_fresh_version() {
        let db = populated();
        let before = db.read().table("Flights").unwrap().version();
        let mut txn = db.begin();
        txn.insert("Flights", row(200, "Oslo")).unwrap();
        txn.delete("Flights", RowId(0)).unwrap();
        txn.update("Flights", RowId(1), row(123, "Lyon")).unwrap();
        let inside = txn.table("Flights").unwrap().version();
        txn.abort();
        let after = db.read().table("Flights").unwrap().version();
        // the undo path mutates too: the restored content gets a
        // version neither the pre-transaction nor the aborted state had
        assert_ne!(after, before);
        assert_ne!(after, inside);
        // a dropped-then-restored table is the same content, moved back
        let mut txn = db.begin();
        txn.drop_table("Flights").unwrap();
        txn.abort();
        assert_eq!(db.read().table("Flights").unwrap().version(), after);
    }

    #[test]
    fn recovered_tables_take_fresh_versions() {
        let db = Database::with_wal(Wal::in_memory());
        db.with_txn(|txn| {
            txn.create_table("Flights", flights_schema())?;
            txn.insert("Flights", row(122, "Paris"))?;
            txn.insert("Flights", row(123, "Paris"))?;
            txn.delete("Flights", RowId(0))
        })
        .unwrap();
        let live = db.read().table("Flights").unwrap().version();
        let bytes = db.wal_bytes().unwrap();
        let (recovered, _) = Database::recover_full(Wal::from_bytes(bytes.clone())).unwrap();
        let (again, _) = Database::recover_full(Wal::from_bytes(bytes)).unwrap();
        let v1 = recovered.read().table("Flights").unwrap().version();
        let v2 = again.read().table("Flights").unwrap().version();
        assert_eq!(recovered.read().table("Flights").unwrap().len(), 1);
        assert!(v1 != live && v2 != live && v1 != v2);
    }

    #[test]
    fn drop_on_uncommitted_txn_rolls_back() {
        let db = populated();
        {
            let mut txn = db.begin();
            txn.insert("Flights", row(300, "Rome")).unwrap();
            // dropped without commit
        }
        assert_eq!(db.read().table("Flights").unwrap().len(), 2);
    }

    #[test]
    fn with_txn_rolls_back_on_error() {
        let db = populated();
        let result: StorageResult<()> = db.with_txn(|txn| {
            txn.insert("Flights", row(300, "Rome"))?;
            Err(StorageError::Internal("boom".into()))
        });
        assert!(result.is_err());
        assert_eq!(db.read().table("Flights").unwrap().len(), 2);
    }

    #[test]
    fn dropped_table_is_restored_with_rows() {
        let db = populated();
        let mut txn = db.begin();
        txn.drop_table("Flights").unwrap();
        assert!(txn.table("Flights").is_err());
        txn.abort();
        assert_eq!(db.read().table("Flights").unwrap().len(), 2);
    }

    #[test]
    fn txn_sees_own_writes() {
        let db = populated();
        let mut txn = db.begin();
        txn.insert("Flights", row(300, "Rome")).unwrap();
        assert_eq!(txn.table("Flights").unwrap().len(), 3);
        txn.commit().unwrap();
        assert_eq!(db.read().table("Flights").unwrap().len(), 3);
    }

    #[test]
    fn wal_recovery_rebuilds_database() {
        let wal = Wal::in_memory();
        let db = Database::with_wal(wal);
        db.with_txn(|txn| {
            txn.create_table("Flights", flights_schema())?;
            txn.insert("Flights", row(122, "Paris"))?;
            txn.insert("Flights", row(123, "Paris"))?;
            txn.update("Flights", RowId(0), row(122, "Lyon"))?;
            txn.delete("Flights", RowId(1))?;
            Ok(())
        })
        .unwrap();

        // Steal the WAL bytes and recover a fresh database from them.
        let bytes = db.wal_bytes().unwrap();
        let ops = Wal::decode_stream(&bytes).unwrap();
        let mut catalog = Catalog::new();
        for op in ops {
            apply_wal_op(&mut catalog, op).unwrap();
        }
        let flights = catalog.table("Flights").unwrap();
        assert_eq!(flights.len(), 1);
        assert_eq!(
            flights.get(RowId(0)).unwrap().values()[1],
            Value::from("Lyon")
        );
    }

    #[test]
    fn aborted_txn_writes_nothing_to_wal() {
        let db = Database::with_wal(Wal::in_memory());
        let mut txn = db.begin();
        txn.create_table("T", flights_schema()).unwrap();
        txn.abort();
        assert_eq!(db.wal_bytes().unwrap().len(), 0);
    }

    #[test]
    fn file_wal_recovery_end_to_end() {
        let dir = std::env::temp_dir().join(format!("youtopia_db_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.wal");
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::with_wal(Wal::open(&path).unwrap());
            db.with_txn(|txn| {
                txn.create_table("Flights", flights_schema())?;
                txn.insert("Flights", row(122, "Paris"))?;
                Ok(())
            })
            .unwrap();
        }
        let db2 = Database::recover(Wal::open(&path).unwrap()).unwrap();
        assert_eq!(db2.read().table("Flights").unwrap().len(), 1);
        // and it keeps logging
        db2.with_txn(|txn| txn.insert("Flights", row(123, "Paris")).map(|_| ()))
            .unwrap();
        let db3 = Database::recover(Wal::open(&path).unwrap()).unwrap();
        assert_eq!(db3.read().table("Flights").unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_ops_recreate_state() {
        let db = populated();
        db.with_txn(|txn| {
            txn.update("Flights", RowId(0), row(122, "Lyon"))?;
            txn.delete("Flights", RowId(1))
        })
        .unwrap();
        let ops = db.snapshot_ops();
        // 1 CreateTable + 1 live row
        assert_eq!(ops.len(), 2);
        let mut catalog = Catalog::new();
        for op in ops {
            apply_wal_op(&mut catalog, op).unwrap();
        }
        let t = catalog.table("Flights").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(RowId(0)).unwrap().values()[1], Value::from("Lyon"));
    }

    #[test]
    fn checkpoint_compacts_the_wal_and_recovery_agrees() {
        let db = Database::with_wal(Wal::in_memory());
        db.with_txn(|txn| {
            txn.create_table("Flights", flights_schema())?;
            for i in 0..50 {
                txn.insert("Flights", row(i, "Paris"))?;
            }
            Ok(())
        })
        .unwrap();
        // churn: updates and deletes bloat the log
        for round in 0..5 {
            db.with_txn(|txn| {
                for i in 0..50 {
                    txn.update("Flights", RowId(i), row(i as i64, &format!("City{round}")))?;
                }
                Ok(())
            })
            .unwrap();
        }
        db.with_txn(|txn| {
            for i in 0..25 {
                txn.delete("Flights", RowId(i))?;
            }
            Ok(())
        })
        .unwrap();

        let before = db.wal_bytes().unwrap().len();
        db.checkpoint().unwrap();
        let bytes = db.wal_bytes().unwrap();
        let after = bytes.len();
        assert!(
            after < before / 3,
            "checkpoint must shrink the log: {before} -> {after}"
        );

        // replaying the compacted log reproduces the exact state
        let ops = Wal::decode_stream(&bytes).unwrap();
        let mut catalog = Catalog::new();
        for op in ops {
            apply_wal_op(&mut catalog, op).unwrap();
        }
        let t = catalog.table("Flights").unwrap();
        assert_eq!(t.len(), 25);
        assert_eq!(t.get(RowId(30)).unwrap().values()[1], Value::from("City4"));

        // and the database keeps logging normally afterwards
        db.with_txn(|txn| txn.insert("Flights", row(999, "Oslo")).map(|_| ()))
            .unwrap();
        let bytes2 = db.wal_bytes().unwrap();
        let ops2 = Wal::decode_stream(&bytes2).unwrap();
        let mut catalog2 = Catalog::new();
        for op in ops2 {
            apply_wal_op(&mut catalog2, op).unwrap();
        }
        assert_eq!(catalog2.table("Flights").unwrap().len(), 26);
    }

    #[test]
    fn coordination_group_commits_with_the_transaction() {
        let db = Database::with_wal(Wal::in_memory());
        let mut txn = db.begin();
        txn.create_table("T", flights_schema()).unwrap();
        txn.insert("T", row(1, "Paris")).unwrap();
        txn.log_coordination(b"match q1+q2".to_vec()).unwrap();
        txn.commit().unwrap();
        // an aborted transaction's coordination frame never reaches the log
        let mut txn = db.begin();
        txn.insert("T", row(2, "Rome")).unwrap();
        txn.log_coordination(b"never".to_vec()).unwrap();
        txn.abort();

        let (db2, coordination) =
            Database::recover_full(Wal::from_bytes(db.wal_bytes().unwrap())).unwrap();
        assert_eq!(db2.read().table("T").unwrap().len(), 1);
        assert_eq!(coordination, vec![b"match q1+q2".to_vec()]);
    }

    #[test]
    fn append_coordination_batch_syncs_once_and_survives_recovery() {
        let db = Database::with_wal(Wal::in_memory());
        db.append_coordination_batch(&[b"a".as_slice(), b"bb", b"ccc"])
            .unwrap();
        db.append_coordination(b"d").unwrap();
        let (_, coordination) =
            Database::recover_full(Wal::from_bytes(db.wal_bytes().unwrap())).unwrap();
        assert_eq!(
            coordination,
            vec![
                b"a".to_vec(),
                b"bb".to_vec(),
                b"ccc".to_vec(),
                b"d".to_vec()
            ]
        );
        // non-durable databases accept and drop coordination appends
        let plain = Database::new();
        plain.append_coordination(b"x").unwrap();
        assert!(plain.wal_bytes().is_none());
    }

    #[test]
    fn checkpoint_carries_coordination_frames_through() {
        let db = Database::with_wal(Wal::in_memory());
        db.with_txn(|txn| {
            txn.create_table("T", flights_schema())?;
            for i in 0..20 {
                txn.insert("T", row(i, "Paris"))?;
            }
            Ok(())
        })
        .unwrap();
        db.append_coordination(b"reg q7").unwrap();
        // churn so the checkpoint actually rewrites history
        for _ in 0..5 {
            db.with_txn(|txn| txn.update("T", RowId(0), row(0, "Rome")))
                .unwrap();
        }
        db.checkpoint().unwrap();
        let (db2, coordination) =
            Database::recover_full(Wal::from_bytes(db.wal_bytes().unwrap())).unwrap();
        assert_eq!(db2.read().table("T").unwrap().len(), 20);
        assert_eq!(coordination, vec![b"reg q7".to_vec()]);

        // the coordinator-driven variant replaces the coordination set
        db.checkpoint_with_coordination(&[b"compacted".as_slice()])
            .unwrap();
        let (_, coordination) =
            Database::recover_full(Wal::from_bytes(db.wal_bytes().unwrap())).unwrap();
        assert_eq!(coordination, vec![b"compacted".to_vec()]);
    }

    /// `wal_len` takes no lock: it returns while another thread holds
    /// the log (as the group-commit writer does across its fsync).
    #[test]
    fn wal_len_returns_while_the_log_is_held() {
        let db = Database::with_wal(Wal::in_memory());
        db.append_coordination(b"reg q1").unwrap();
        let expected = db.wal_len();
        let log = db.log.clone().expect("durable database");
        let (answer, reader) = log.with_wal(|_held| {
            let (tx, rx) = std::sync::mpsc::channel();
            let db = db.clone();
            let reader = std::thread::spawn(move || {
                let _ = tx.send(db.wal_len());
            });
            (rx.recv_timeout(std::time::Duration::from_secs(5)), reader)
        });
        reader.join().expect("the reader thread finished");
        assert_eq!(answer, Ok(expected));
    }

    /// `wal_len` is exact as soon as a commit returns and right after a
    /// checkpoint rewrite.
    #[test]
    fn wal_len_is_exact_after_commit_and_checkpoint() {
        let db = Database::with_wal(Wal::in_memory());
        let exact = |db: &Database| Some(db.wal_bytes().unwrap().len() as u64);
        assert_eq!(db.wal_len(), Some(0));
        db.with_txn(|txn| {
            txn.create_table("Flights", flights_schema())?;
            txn.insert("Flights", row(122, "Paris")).map(|_| ())
        })
        .unwrap();
        assert_eq!(db.wal_len(), exact(&db));
        db.append_coordination_batch(&[b"reg q1".as_slice(), b"reg q2"])
            .unwrap();
        assert_eq!(db.wal_len(), exact(&db));
        let before = db.wal_len().unwrap();
        db.checkpoint_with_coordination(&[b"reg q2".as_slice()])
            .unwrap();
        assert_eq!(db.wal_len(), exact(&db));
        assert!(db.wal_len().unwrap() < before, "the rewrite dropped q1");
        // a recovered database starts from the replayed log's length
        let (recovered, _) =
            Database::recover_full(Wal::from_bytes(db.wal_bytes().unwrap())).unwrap();
        assert_eq!(recovered.wal_len(), exact(&db));
        assert_eq!(Database::new().wal_len(), None);
    }

    #[test]
    fn transient_tables_never_reach_the_wal() {
        let db = Database::with_wal(Wal::in_memory());
        db.with_txn(|txn| {
            txn.create_table("Flights", flights_schema())?;
            txn.insert("Flights", row(1, "Paris"))?;
            Ok(())
        })
        .unwrap();
        let durable_len = db.wal_bytes().unwrap().len();

        // transient writes are visible but cost zero WAL bytes
        db.with_txn(|txn| {
            txn.create_table("sys_audit_test", flights_schema())?;
            txn.insert("sys_audit_test", row(7, "submit"))?;
            txn.update("sys_audit_test", RowId(0), row(7, "answered"))?;
            txn.insert("sys_audit_test", row(8, "submit"))?;
            txn.delete("sys_audit_test", RowId(1))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(db.wal_bytes().unwrap().len(), durable_len);
        assert_eq!(db.read().table("sys_audit_test").unwrap().len(), 1);

        // abort still rolls transient mutations back
        let mut txn = db.begin();
        txn.insert("sys_audit_test", row(9, "submit")).unwrap();
        txn.abort();
        assert_eq!(db.read().table("sys_audit_test").unwrap().len(), 1);

        // checkpoints skip transient tables and recovery omits them
        db.checkpoint().unwrap();
        let (db2, _) = Database::recover_full(Wal::from_bytes(db.wal_bytes().unwrap())).unwrap();
        assert_eq!(db2.read().table("Flights").unwrap().len(), 1);
        assert!(db2.read().table("sys_audit_test").is_err());

        // snapshot_ops agrees
        assert!(db
            .snapshot_ops()
            .iter()
            .all(|op| !matches!(op, WalOp::CreateTable { name, .. } if is_transient(name))));
    }

    #[test]
    fn transient_only_txn_commits_without_log_traffic() {
        let db = Database::with_wal(Wal::in_memory());
        db.with_txn(|txn| txn.create_table("sys_only", flights_schema()))
            .unwrap();
        db.with_txn(|txn| txn.insert("sys_only", row(1, "x")).map(|_| ()))
            .unwrap();
        assert_eq!(db.wal_bytes().unwrap().len(), 0);
    }

    #[test]
    fn checkpoint_without_wal_is_a_noop() {
        let db = populated();
        db.checkpoint().unwrap();
        assert_eq!(db.read().table("Flights").unwrap().len(), 2);
    }

    #[test]
    fn operations_on_closed_txn_fail() {
        let db = populated();
        let mut txn = db.begin();
        txn.finished = true; // simulate closed
        assert!(matches!(
            txn.insert("Flights", row(1, "x")),
            Err(StorageError::TransactionClosed)
        ));
        // avoid rollback assertions on drop
        txn.undo.clear();
    }

    #[test]
    fn concurrent_readers_are_allowed() {
        let db = populated();
        let r1 = db.read();
        let r2 = db.read();
        assert_eq!(r1.table("Flights").unwrap().len(), 2);
        assert_eq!(r2.table("Flights").unwrap().len(), 2);
    }

    #[test]
    fn writer_excludes_readers_until_done() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let db = populated();
        let started = Arc::new(AtomicBool::new(false));
        let txn = db.begin();
        let db2 = db.clone();
        let started2 = started.clone();
        let handle = std::thread::spawn(move || {
            started2.store(true, Ordering::SeqCst);
            let read = db2.read(); // blocks until writer finishes
            read.table("Flights").unwrap().len()
        });
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(txn); // releases lock (rollback of nothing)
        assert_eq!(handle.join().unwrap(), 2);
    }
}
