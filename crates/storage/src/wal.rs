//! Write-ahead (redo) log.
//!
//! Committed transactions append one frame per logical operation, so a
//! database can be rebuilt by replaying the log from the start
//! ([`crate::db::Database::recover`]). Frames are checksummed; a torn
//! or unterminated suffix (crash mid-append) is *truncated away* on
//! replay so the log recovers to its last committed prefix (see the
//! failure model below).
//!
//! The log carries two namespaces of records ([`WalRecord`]):
//!
//! * **storage operations** ([`WalOp`]) — table DML/DDL, replayed by
//!   [`crate::db::Database::recover`];
//! * **coordination frames** — opaque payloads owned by the
//!   coordination layer (pending-query registrations, match commits).
//!   Storage treats them as pass-through bytes: they ride the same
//!   checksummed framing, group-commit with storage transactions, and
//!   survive checkpointing, but only the coordinator interprets them.
//!
//! Frame layout: `u32 payload_len | u32 fnv1a(payload_len ∥ payload) |
//! payload`; the payload's first byte is a record tag (`0..=4` and
//! `7..=8` storage ops, `5` coordination, `6` commit boundary). A coordination
//! payload is the tag followed by the coordination bytes, which the
//! frame length delimits. The checksum covers the length field so a
//! corrupted length that still reads as in-range is detected rather
//! than mis-framing the rest of the log.
//!
//! # Commit boundaries
//!
//! Every commit group — one transaction's redo records, or one batch
//! of coordination frames — is terminated by a one-byte
//! [`WalRecord::CommitBoundary`] marker frame before the group is
//! synced. The marker is the durability receipt the replay side keys
//! on: a record counts only when its group's marker landed, and a
//! suffix that does not end in a complete marker was never
//! acknowledged to anyone, so replay discards it wholesale.
//!
//! # Failure model
//!
//! The model is *crash consistency*, not arbitrary bit rot: after a
//! crash the log holds every synced byte intact, plus an arbitrary
//! subset of the unsynced suffix's bytes (append tears, out-of-order
//! sector persistence within an unsynced multi-frame batch).
//!
//! Recovery is automatic: the first inconsistency — a partial final
//! frame, a checksum failure, or a clean end-of-log with no
//! terminating marker — rolls the log back to the **last complete
//! commit boundary**, or to its start when no marker landed, and
//! truncates everything after it. That covers the multi-frame
//! out-of-order tear (frame k torn, frame k+1 landed — with or without
//! the group's trailing marker having landed). Discarded bytes are
//! always un-acknowledged: acknowledgment happens only after the
//! marker and the sync, so a commit whose marker is durable survives,
//! and a commit whose marker is not was never promised to anyone.
//!
//! What stays deliberately loud:
//!
//! * **A checksum failure before the first marker with frames after
//!   it** is reported as `WalCorrupt`: with no boundary to roll back
//!   to, it is indistinguishable from bit rot on synced data. A
//!   failure confined to the final frame is a tear and rolls back.
//! * **A checksum-valid frame that fails record decode** is reported
//!   everywhere: a verified checksum means the bytes are exactly what
//!   was written, so the failure is a writer bug or bit rot, never a
//!   tear.
//!
//! The inherent ambiguity of length-prefixed framing remains: a
//! corrupted length field that claims more bytes than the log holds
//! reads as a partial final frame and recovers to the preceding
//! commit boundary.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, BytesMut};

use crate::codec::{get_str, get_u64, put_str};
use crate::error::{StorageError, StorageResult};
use crate::schema::{Column, DataType, Schema};
use crate::tuple::Tuple;

/// One logical redo operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A table was created.
    CreateTable {
        /// Table name (display case).
        name: String,
        /// Its schema.
        schema: Schema,
        /// The id its next insert allocates: 0 for a new table, and a
        /// rebuilt one's own, so the ids of rows deleted before the
        /// rebuild are never handed out again.
        next_rid: u64,
    },
    /// A table was dropped.
    DropTable {
        /// Table name.
        name: String,
    },
    /// A row was inserted.
    Insert {
        /// Table name.
        table: String,
        /// Row id the row was stored under.
        rid: u64,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// A row was updated in place.
    Update {
        /// Table name.
        table: String,
        /// Row id.
        rid: u64,
        /// The new tuple.
        tuple: Tuple,
    },
    /// A row was deleted.
    Delete {
        /// Table name.
        table: String,
        /// Row id.
        rid: u64,
    },
    /// A secondary index was created.
    CreateIndex {
        /// Table name.
        table: String,
        /// Index name.
        name: String,
        /// Indexed column names, in key order.
        columns: Vec<String>,
        /// Whether the index enforces key uniqueness.
        unique: bool,
    },
    /// A secondary index was dropped.
    DropIndex {
        /// Table name.
        table: String,
        /// Index name.
        name: String,
    },
}

/// Frame checksum: fnv1a over the big-endian length field followed by
/// the payload, so a bit flip in the length prefix fails verification
/// instead of silently re-framing the log. The network protocol frames
/// its messages with the same function.
pub fn frame_checksum(len: u32, payload: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c9dc5;
    for b in len.to_be_bytes().iter().chain(payload) {
        hash ^= *b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn put_tuple(buf: &mut BytesMut, t: &Tuple) {
    let enc = t.encode();
    buf.put_u32(enc.len() as u32);
    buf.put_slice(&enc);
}

fn get_tuple(buf: &mut &[u8]) -> StorageResult<Tuple> {
    if buf.remaining() < 4 {
        return Err(StorageError::WalCorrupt("truncated tuple length".into()));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(StorageError::WalCorrupt("truncated tuple body".into()));
    }
    let t = Tuple::decode(&buf[..len])?;
    buf.advance(len);
    Ok(t)
}

fn datatype_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Bool => 0,
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Str => 3,
        DataType::Bytes => 4,
    }
}

fn datatype_from_tag(tag: u8) -> StorageResult<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int64,
        2 => DataType::Float64,
        3 => DataType::Str,
        4 => DataType::Bytes,
        t => {
            return Err(StorageError::WalCorrupt(format!(
                "unknown datatype tag {t}"
            )))
        }
    })
}

fn put_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u16(schema.columns().len() as u16);
    for col in schema.columns() {
        put_str(buf, &col.name);
        buf.put_u8(datatype_tag(col.ty));
        buf.put_u8(col.nullable as u8);
    }
    buf.put_u16(schema.primary_key().len() as u16);
    for &pos in schema.primary_key() {
        buf.put_u16(pos as u16);
    }
}

fn get_schema(buf: &mut &[u8]) -> StorageResult<Schema> {
    if buf.remaining() < 2 {
        return Err(StorageError::WalCorrupt("truncated schema".into()));
    }
    let ncols = buf.get_u16() as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = get_str(buf)?;
        if buf.remaining() < 2 {
            return Err(StorageError::WalCorrupt("truncated column".into()));
        }
        let ty = datatype_from_tag(buf.get_u8())?;
        let nullable = buf.get_u8() != 0;
        columns.push(Column { name, ty, nullable });
    }
    if buf.remaining() < 2 {
        return Err(StorageError::WalCorrupt("truncated pk count".into()));
    }
    let npk = buf.get_u16() as usize;
    let mut names: Vec<String> = Vec::with_capacity(npk);
    for _ in 0..npk {
        if buf.remaining() < 2 {
            return Err(StorageError::WalCorrupt("truncated pk entry".into()));
        }
        let pos = buf.get_u16() as usize;
        let col = columns
            .get(pos)
            .ok_or_else(|| StorageError::WalCorrupt(format!("pk position {pos} out of range")))?;
        names.push(col.name.clone());
    }
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Ok(Schema::with_primary_key(columns, &name_refs))
}

impl WalOp {
    /// The name of the table the op writes.
    pub fn table(&self) -> &str {
        match self {
            WalOp::CreateTable { name, .. } | WalOp::DropTable { name } => name,
            WalOp::Insert { table, .. }
            | WalOp::Update { table, .. }
            | WalOp::Delete { table, .. }
            | WalOp::CreateIndex { table, .. }
            | WalOp::DropIndex { table, .. } => table,
        }
    }

    fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            WalOp::CreateTable {
                name,
                schema,
                next_rid,
            } => {
                buf.put_u8(0);
                put_str(&mut buf, name);
                put_schema(&mut buf, schema);
                buf.put_u64(*next_rid);
            }
            WalOp::DropTable { name } => {
                buf.put_u8(1);
                put_str(&mut buf, name);
            }
            WalOp::Insert { table, rid, tuple } => {
                buf.put_u8(2);
                put_str(&mut buf, table);
                buf.put_u64(*rid);
                put_tuple(&mut buf, tuple);
            }
            WalOp::Update { table, rid, tuple } => {
                buf.put_u8(3);
                put_str(&mut buf, table);
                buf.put_u64(*rid);
                put_tuple(&mut buf, tuple);
            }
            WalOp::Delete { table, rid } => {
                buf.put_u8(4);
                put_str(&mut buf, table);
                buf.put_u64(*rid);
            }
            WalOp::CreateIndex {
                table,
                name,
                columns,
                unique,
            } => {
                buf.put_u8(7);
                put_str(&mut buf, table);
                put_str(&mut buf, name);
                buf.put_u16(columns.len() as u16);
                for column in columns {
                    put_str(&mut buf, column);
                }
                buf.put_u8(*unique as u8);
            }
            WalOp::DropIndex { table, name } => {
                buf.put_u8(8);
                put_str(&mut buf, table);
                put_str(&mut buf, name);
            }
        }
        buf
    }

    fn decode(mut payload: &[u8]) -> StorageResult<WalOp> {
        let buf = &mut payload;
        if buf.remaining() < 1 {
            return Err(StorageError::WalCorrupt("empty frame".into()));
        }
        let tag = buf.get_u8();
        let op = match tag {
            0 => {
                let name = get_str(buf)?;
                let schema = get_schema(buf)?;
                let next_rid = get_u64(buf)?;
                WalOp::CreateTable {
                    name,
                    schema,
                    next_rid,
                }
            }
            1 => WalOp::DropTable {
                name: get_str(buf)?,
            },
            2 => {
                let table = get_str(buf)?;
                let rid = get_u64(buf)?;
                let tuple = get_tuple(buf)?;
                WalOp::Insert { table, rid, tuple }
            }
            3 => {
                let table = get_str(buf)?;
                let rid = get_u64(buf)?;
                let tuple = get_tuple(buf)?;
                WalOp::Update { table, rid, tuple }
            }
            4 => {
                let table = get_str(buf)?;
                let rid = get_u64(buf)?;
                WalOp::Delete { table, rid }
            }
            7 => {
                let table = get_str(buf)?;
                let name = get_str(buf)?;
                if buf.remaining() < 2 {
                    return Err(StorageError::WalCorrupt("truncated index columns".into()));
                }
                let columns = (0..buf.get_u16())
                    .map(|_| get_str(buf))
                    .collect::<StorageResult<_>>()?;
                if buf.remaining() < 1 {
                    return Err(StorageError::WalCorrupt("truncated unique flag".into()));
                }
                let unique = buf.get_u8() != 0;
                WalOp::CreateIndex {
                    table,
                    name,
                    columns,
                    unique,
                }
            }
            8 => WalOp::DropIndex {
                table: get_str(buf)?,
                name: get_str(buf)?,
            },
            t => return Err(StorageError::WalCorrupt(format!("unknown op tag {t}"))),
        };
        if buf.has_remaining() {
            return Err(StorageError::WalCorrupt("trailing bytes in frame".into()));
        }
        Ok(op)
    }
}

/// Record tag for coordination frames (storage ops use `0..=4` and
/// `7..=8`).
const COORDINATION_TAG: u8 = 5;

/// Record tag for commit-boundary marker frames.
const COMMIT_BOUNDARY_TAG: u8 = 6;

/// One logical record of the log: a storage operation, an opaque
/// coordination payload, or a commit-boundary marker.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table DML/DDL operation.
    Storage(WalOp),
    /// An opaque coordination-layer payload.
    Coordination(Vec<u8>),
    /// The end marker of one commit group. Written after
    /// the group's records and before the group is synced; replay
    /// rolls a damaged or unterminated suffix back to the last one
    /// (see the module-level failure model).
    CommitBoundary,
}

impl WalRecord {
    fn encode(&self) -> BytesMut {
        match self {
            WalRecord::Storage(op) => op.encode(),
            WalRecord::Coordination(payload) => {
                let mut buf = BytesMut::with_capacity(payload.len() + 1);
                buf.put_u8(COORDINATION_TAG);
                buf.put_slice(payload);
                buf
            }
            WalRecord::CommitBoundary => {
                let mut buf = BytesMut::with_capacity(1);
                buf.put_u8(COMMIT_BOUNDARY_TAG);
                buf
            }
        }
    }

    fn decode(payload: &[u8]) -> StorageResult<WalRecord> {
        match payload.first() {
            Some(&COORDINATION_TAG) => Ok(WalRecord::Coordination(payload[1..].to_vec())),
            Some(&COMMIT_BOUNDARY_TAG) => {
                if payload.len() != 1 {
                    return Err(StorageError::WalCorrupt(
                        "trailing bytes in commit boundary".into(),
                    ));
                }
                Ok(WalRecord::CommitBoundary)
            }
            _ => WalOp::decode(payload).map(WalRecord::Storage),
        }
    }

    /// The storage op, if this is a storage record.
    pub fn storage(self) -> Option<WalOp> {
        match self {
            WalRecord::Storage(op) => Some(op),
            _ => None,
        }
    }

    /// The coordination payload, if this is a coordination record.
    pub fn coordination(self) -> Option<Vec<u8>> {
        match self {
            WalRecord::Coordination(p) => Some(p),
            _ => None,
        }
    }
}

/// The backing sink of a WAL: a real file (with the path a checkpoint
/// renames its replacement over) or an in-memory buffer (useful in
/// tests and benches).
enum WalSink {
    File { file: File, path: PathBuf },
    Memory(Vec<u8>),
}

/// Injected failures of unit tests, each `(calls so far, the 1-based
/// call that fails)`.
#[cfg(test)]
#[derive(Default)]
struct Faults {
    sync: Option<(u32, u32)>,
    append: Option<(u32, u32)>,
}

#[cfg(test)]
fn inject(fault: &mut Option<(u32, u32)>, what: &str) -> StorageResult<()> {
    if let Some((calls, fail_at)) = fault {
        *calls += 1;
        if calls == fail_at {
            return Err(StorageError::WalIo(format!("injected {what} failure")));
        }
    }
    Ok(())
}

/// Appends one checksummed frame around `payload`.
fn put_frame(out: &mut impl BufMut, payload: &[u8]) {
    out.put_u32(payload.len() as u32);
    out.put_u32(frame_checksum(payload.len() as u32, payload));
    out.put_slice(payload);
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::WalIo(e.to_string())
}

/// An append-only redo log.
pub struct Wal {
    sink: WalSink,
    /// Cached log length in bytes, maintained by every append, rewrite
    /// and tail truncation — so [`Wal::len_bytes`] (read by the
    /// group-commit writer after every sync, to publish the length
    /// `Database::wal_len` serves) never needs a file-metadata syscall.
    len_hint: u64,
    #[cfg(test)]
    faults: Faults,
}

impl Wal {
    fn with_sink(sink: WalSink, len_hint: u64) -> Wal {
        Wal {
            sink,
            len_hint,
            #[cfg(test)]
            faults: Faults::default(),
        }
    }

    /// Opens (or creates) a file-backed WAL in append mode.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(io_err)?;
        let len_hint = file.metadata().map_err(io_err)?.len();
        Ok(Wal::with_sink(WalSink::File { file, path }, len_hint))
    }

    /// Creates an in-memory WAL.
    pub fn in_memory() -> Wal {
        Wal::from_bytes(Vec::new())
    }

    /// An in-memory WAL whose `n`th sync (1-based) fails once; every
    /// other call succeeds.
    #[cfg(test)]
    pub(crate) fn failing_sync_at(n: u32) -> Wal {
        let mut wal = Wal::in_memory();
        wal.faults.sync = Some((0, n));
        wal
    }

    /// Arms a one-shot fault: the `n`th frame (1-based) this WAL
    /// appends or rewrites from now on fails.
    #[cfg(test)]
    pub(crate) fn fail_append_at(&mut self, n: u32) {
        self.faults.append = Some((0, n));
    }

    /// Creates an in-memory WAL over existing log bytes (e.g. bytes
    /// salvaged from a "killed" process in crash-recovery tests).
    pub fn from_bytes(bytes: Vec<u8>) -> Wal {
        let len_hint = bytes.len() as u64;
        Wal::with_sink(WalSink::Memory(bytes), len_hint)
    }

    /// Appends one record as a checksummed frame. A commit group is
    /// its records followed by one [`WalRecord::CommitBoundary`],
    /// appended before [`Wal::sync`]; replay rolls a damaged suffix
    /// back to the last complete marker.
    pub fn append_record(&mut self, record: &WalRecord) -> StorageResult<()> {
        #[cfg(test)]
        inject(&mut self.faults.append, "append")?;
        let payload = record.encode();
        let mut frame = BytesMut::with_capacity(payload.len() + 8);
        put_frame(&mut frame, &payload);
        match &mut self.sink {
            WalSink::File { file, .. } => file.write_all(&frame).map_err(io_err)?,
            WalSink::Memory(buf) => buf.extend_from_slice(&frame),
        }
        self.len_hint += frame.len() as u64;
        Ok(())
    }

    /// Flushes buffered bytes to stable storage (no-op for memory sinks).
    pub fn sync(&mut self) -> StorageResult<()> {
        #[cfg(test)]
        inject(&mut self.faults.sync, "sync")?;
        if let WalSink::File { file, .. } = &mut self.sink {
            file.sync_data().map_err(io_err)?;
        }
        Ok(())
    }

    /// Replaces the whole log with `records` sealed as one commit group
    /// (the checkpoint's rewrite). A file log is replaced by rename: the
    /// snapshot goes to a sibling file, is synced, and is renamed over
    /// the log, so a crash or an error at any point leaves either the
    /// old log or the complete snapshot, never a prefix of it.
    pub(crate) fn rewrite(&mut self, records: &[WalRecord]) -> StorageResult<()> {
        let mut snapshot = Vec::new();
        for record in records.iter().chain([&WalRecord::CommitBoundary]) {
            #[cfg(test)]
            inject(&mut self.faults.append, "append")?;
            put_frame(&mut snapshot, &record.encode());
        }
        let len = snapshot.len() as u64;
        match &mut self.sink {
            WalSink::Memory(buf) => {
                *buf = snapshot;
                self.len_hint = len;
                Ok(())
            }
            WalSink::File { file, path } => {
                let mut temp = path.clone().into_os_string();
                temp.push(".rewrite");
                let temp = PathBuf::from(temp);
                let replacement = write_synced(&temp, &snapshot)
                    .and_then(|f| std::fs::rename(&temp, &*path).map(|()| f))
                    .inspect_err(|_| {
                        let _ = std::fs::remove_file(&temp);
                    })
                    .map_err(io_err)?;
                // the renamed descriptor now names the log
                *file = replacement;
                self.len_hint = len;
                sync_parent_dir(path).map_err(io_err)
            }
        }
    }

    /// Reads every complete record currently in the log (see
    /// [`Wal::decode_records`]), skipping commit-boundary markers.
    /// Callers that want only storage ops or only coordination
    /// payloads filter with [`WalRecord::storage`] or
    /// [`WalRecord::coordination`].
    ///
    /// A damaged suffix (crash mid-append) is **truncated away**, so
    /// the log recovers to its last committed prefix and subsequent
    /// appends produce a clean log again. Corruption the decode
    /// reports is returned as [`StorageError::WalCorrupt`].
    pub fn replay_records(&mut self) -> StorageResult<Vec<WalRecord>> {
        let bytes = match &mut self.sink {
            WalSink::File { file, .. } => {
                let mut v = Vec::new();
                file.seek(SeekFrom::Start(0)).map_err(io_err)?;
                file.read_to_end(&mut v).map_err(io_err)?;
                v
            }
            WalSink::Memory(buf) => buf.clone(),
        };
        let (records, consumed) = Self::decode_records(&bytes)?;
        if consumed < bytes.len() {
            // torn tail: drop the partial frame so future appends are
            // framed correctly (append mode writes at the physical end)
            match &mut self.sink {
                WalSink::File { file, .. } => {
                    file.set_len(consumed as u64).map_err(io_err)?;
                    file.sync_data().map_err(io_err)?;
                }
                WalSink::Memory(buf) => buf.truncate(consumed),
            }
            self.len_hint = consumed as u64;
        }
        Ok(records)
    }

    /// Decodes a raw byte stream of frames, returning the committed
    /// records (commit-boundary markers elided — they are framing
    /// metadata, not logical records) and the length of the committed
    /// prefix.
    ///
    /// A record counts only when its group's
    /// [`WalRecord::CommitBoundary`] landed: the first inconsistency —
    /// a partial final frame, a checksum failure, or a clean
    /// end-of-log whose trailing group lacks its marker — rolls the
    /// decode back to the **last complete commit boundary** (offset 0
    /// when there is none), dropping even intact frames of the damaged
    /// group (a multi-frame batch persisted out of order is recovered,
    /// not reported).
    ///
    /// Two failures are errors: a checksum failure before the first
    /// marker with more bytes after its frame, and a record-level
    /// decode failure on a checksum-valid frame (a verified checksum
    /// means the bytes are what was written, so the failure is not a
    /// tear).
    pub fn decode_records(bytes: &[u8]) -> StorageResult<(Vec<WalRecord>, usize)> {
        let mut records = Vec::new();
        let mut offset = 0usize;
        // Last complete commit boundary seen so far: the byte offset
        // just past its frame and the record count at that point.
        let mut boundary: Option<(usize, usize)> = None;
        while bytes.len() - offset >= 8 {
            let len = (&bytes[offset..offset + 4]).get_u32() as usize;
            if bytes.len() - offset < 8 + len {
                break; // partial final frame: torn tail
            }
            let checksum = (&bytes[offset + 4..offset + 8]).get_u32();
            let payload = &bytes[offset + 8..offset + 8 + len];
            if frame_checksum(len as u32, payload) != checksum {
                if boundary.is_some() || offset + 8 + len == bytes.len() {
                    // After a commit boundary every checksum failure
                    // is an unsynced-suffix tear (crash model: synced
                    // bytes are intact). Without one, only a failure
                    // confined to the final frame is decidably a tear
                    // (e.g. out-of-order sector writes within it).
                    break;
                }
                return Err(StorageError::WalCorrupt("checksum mismatch".into()));
            }
            let record = WalRecord::decode(payload)?;
            offset += 8 + len;
            if matches!(record, WalRecord::CommitBoundary) {
                boundary = Some((offset, records.len()));
            } else {
                records.push(record);
            }
        }
        // whatever follows the last complete commit — a tear, a damaged
        // frame, or intact frames whose marker never landed — was never
        // acknowledged: roll back to that commit
        let (end, count) = boundary.unwrap_or((0, 0));
        records.truncate(count);
        Ok((records, end))
    }

    /// Current log size in bytes, for both sinks — served from the
    /// maintained length cache, so the group-commit writer's read after
    /// every sync costs no syscall (debug builds cross-check it against
    /// the sink).
    pub(crate) fn len_bytes(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            // cross-check the cache against the sink's real length —
            // for file sinks via a metadata syscall (debug builds
            // only; skipped if the syscall itself fails)
            let actual = match &self.sink {
                WalSink::Memory(buf) => Some(buf.len() as u64),
                WalSink::File { file, .. } => file.metadata().ok().map(|m| m.len()),
            };
            if let Some(actual) = actual {
                debug_assert_eq!(self.len_hint, actual, "len_hint out of sync with sink");
            }
        }
        self.len_hint
    }

    /// Raw bytes (memory sinks only; for tests).
    pub fn raw_bytes(&self) -> Option<&[u8]> {
        match &self.sink {
            WalSink::Memory(buf) => Some(buf),
            WalSink::File { .. } => None,
        }
    }
}

/// Creates (or empties) `path`, writes `bytes` and syncs them. The
/// handle is opened like [`Wal::open`]'s, for reading and appending.
fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)?;
    file.set_len(0)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    Ok(file)
}

/// Makes a rename inside `path`'s directory durable.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_schema() -> Schema {
        Schema::with_primary_key(
            vec![
                Column::new("fno", DataType::Int64),
                Column::nullable("dest", DataType::Str),
            ],
            &["fno"],
        )
    }

    /// Appends each op as a storage record.
    fn append_ops(wal: &mut Wal, ops: &[WalOp]) {
        for op in ops {
            wal.append_record(&WalRecord::Storage(op.clone())).unwrap();
        }
    }

    /// Appends `record` as a commit group of its own.
    fn commit(wal: &mut Wal, record: WalRecord) {
        wal.append_record(&record).unwrap();
        wal.append_record(&WalRecord::CommitBoundary).unwrap();
    }

    /// Commits each op as a group of its own.
    fn commit_ops(wal: &mut Wal, ops: &[WalOp]) {
        for op in ops {
            commit(wal, WalRecord::Storage(op.clone()));
        }
    }

    /// The storage ops of a replay or decode, coordination skipped.
    fn ops_of(records: Vec<WalRecord>) -> Vec<WalOp> {
        records.into_iter().filter_map(WalRecord::storage).collect()
    }

    /// The storage ops a raw byte stream decodes to.
    fn decode_ops(bytes: &[u8]) -> StorageResult<Vec<WalOp>> {
        Ok(ops_of(Wal::decode_records(bytes)?.0))
    }

    /// The storage ops a replay yields (truncating a damaged suffix).
    fn replay_ops(wal: &mut Wal) -> Vec<WalOp> {
        ops_of(wal.replay_records().unwrap())
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::CreateTable {
                name: "Flights".into(),
                schema: sample_schema(),
                next_rid: 0,
            },
            WalOp::Insert {
                table: "Flights".into(),
                rid: 0,
                tuple: Tuple::new(vec![Value::Int(122), Value::from("Paris")]),
            },
            WalOp::Update {
                table: "Flights".into(),
                rid: 0,
                tuple: Tuple::new(vec![Value::Int(122), Value::from("Rome")]),
            },
            WalOp::Delete {
                table: "Flights".into(),
                rid: 0,
            },
            WalOp::DropTable {
                name: "Flights".into(),
            },
        ]
    }

    #[test]
    fn memory_wal_roundtrip() {
        let mut wal = Wal::in_memory();
        commit_ops(&mut wal, &sample_ops());
        let replayed = replay_ops(&mut wal);
        assert_eq!(replayed, sample_ops());
    }

    #[test]
    fn file_wal_roundtrip() {
        let dir = std::env::temp_dir().join(format!("youtopia_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            commit_ops(&mut wal, &sample_ops());
            wal.sync().unwrap();
        }
        // reopen and replay
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(replay_ops(&mut wal), sample_ops());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_frame_is_tolerated() {
        let mut wal = Wal::in_memory();
        commit_ops(&mut wal, &sample_ops());
        let bytes = wal.raw_bytes().unwrap().to_vec();
        // chop off the last 3 bytes: final frame is torn
        let truncated = &bytes[..bytes.len() - 3];
        let ops = decode_ops(truncated).unwrap();
        assert_eq!(ops.len(), sample_ops().len() - 1);
    }

    #[test]
    fn corruption_is_detected() {
        let mut wal = Wal::in_memory();
        append_ops(&mut wal, &sample_ops());
        let mut bytes = wal.raw_bytes().unwrap().to_vec();
        // flip a byte inside the first frame's payload
        bytes[10] ^= 0xff;
        assert!(matches!(
            decode_ops(&bytes),
            Err(StorageError::WalCorrupt(_))
        ));
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let mut wal = Wal::in_memory();
        assert!(replay_ops(&mut wal).is_empty());
    }

    #[test]
    fn coordination_frames_roundtrip_and_interleave() {
        let mut wal = Wal::in_memory();
        commit_ops(&mut wal, &sample_ops()[..1]);
        commit(&mut wal, WalRecord::Coordination(b"register q1".to_vec()));
        commit_ops(&mut wal, &sample_ops()[1..2]);
        // empty payloads are legal
        commit(&mut wal, WalRecord::Coordination(Vec::new()));
        let records = wal.replay_records().unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[1], WalRecord::Coordination(b"register q1".to_vec()));
        assert_eq!(records[3], WalRecord::Coordination(Vec::new()));
        // storage-only replay skips the coordination frames
        assert_eq!(replay_ops(&mut wal), sample_ops()[..2].to_vec());
    }

    #[test]
    fn torn_tail_is_truncated_so_appends_recover() {
        let mut wal = Wal::in_memory();
        commit_ops(&mut wal, &sample_ops());
        let mut bytes = wal.raw_bytes().unwrap().to_vec();
        bytes.truncate(bytes.len() - 3); // tear the final frame
        let mut torn = Wal::from_bytes(bytes);
        let ops = replay_ops(&mut torn);
        assert_eq!(ops.len(), sample_ops().len() - 1);
        // the torn bytes are gone: appending after replay yields a
        // clean log instead of mid-frame garbage
        commit_ops(&mut torn, &sample_ops()[..1]);
        let ops = replay_ops(&mut torn);
        assert_eq!(ops.len(), sample_ops().len());
    }

    #[test]
    fn corrupt_final_frame_is_treated_as_torn() {
        let mut wal = Wal::in_memory();
        commit_ops(&mut wal, &sample_ops());
        let mut bytes = wal.raw_bytes().unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // checksum failure confined to the tail
        let mut torn = Wal::from_bytes(bytes);
        assert_eq!(replay_ops(&mut torn).len(), sample_ops().len() - 1);
    }

    /// A marker log of two commit groups. Returns the bytes, the
    /// offset just past group 1's marker, and the offset of each
    /// frame of group 2 (including its marker frame).
    fn two_group_log() -> (Vec<u8>, usize, Vec<usize>) {
        let mut wal = Wal::in_memory();
        // group 1: create + one insert, sealed
        append_ops(&mut wal, &sample_ops()[..1]);
        append_ops(&mut wal, &sample_ops()[1..2]);
        wal.append_record(&WalRecord::CommitBoundary).unwrap();
        let group1_end = wal.raw_bytes().unwrap().len();
        // group 2: a multi-frame batch, sealed
        let mut frame_starts = Vec::new();
        for op in &sample_ops()[2..4] {
            frame_starts.push(wal.raw_bytes().unwrap().len());
            append_ops(&mut wal, std::slice::from_ref(op));
        }
        frame_starts.push(wal.raw_bytes().unwrap().len());
        wal.append_record(&WalRecord::CommitBoundary).unwrap();
        (wal.raw_bytes().unwrap().to_vec(), group1_end, frame_starts)
    }

    #[test]
    fn commit_boundaries_are_elided_from_replay() {
        let (bytes, _, _) = two_group_log();
        let (records, consumed) = Wal::decode_records(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(ops_of(records), sample_ops()[..4].to_vec());
    }

    #[test]
    fn out_of_order_tear_rolls_back_to_last_commit() {
        // frame k of group 2 torn (checksum fails), frame k+1 and the
        // group's marker landed intact. Replay must recover to the end
        // of group 1, not report WalCorrupt.
        let (mut bytes, group1_end, frame_starts) = two_group_log();
        bytes[frame_starts[0] + 8] ^= 0xff;
        let (records, consumed) = Wal::decode_records(&bytes).unwrap();
        assert_eq!(consumed, group1_end);
        assert_eq!(ops_of(records), sample_ops()[..2].to_vec());
        // and the truncated log is appendable again
        let mut wal = Wal::from_bytes(bytes);
        assert_eq!(replay_ops(&mut wal).len(), 2);
        assert_eq!(wal.raw_bytes().map(<[u8]>::len), Some(group1_end));
        append_ops(&mut wal, &sample_ops()[4..]);
        wal.append_record(&WalRecord::CommitBoundary).unwrap();
        assert_eq!(replay_ops(&mut wal).len(), 3);
    }

    #[test]
    fn unterminated_suffix_rolls_back_to_last_commit() {
        // a commit group whose marker never landed (clean frames, no
        // boundary, e.g. a commit interrupted between append and
        // marker) is discarded on replay
        let (bytes, group1_end, frame_starts) = two_group_log();
        let unterminated = &bytes[..frame_starts[2]]; // group 2 minus its marker
        let (records, consumed) = Wal::decode_records(unterminated).unwrap();
        assert_eq!(consumed, group1_end);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn corruption_before_the_first_boundary_is_still_loud() {
        let (mut bytes, _, _) = two_group_log();
        bytes[8] ^= 0xff; // first frame, before any marker
        assert!(matches!(
            Wal::decode_records(&bytes),
            Err(StorageError::WalCorrupt(_))
        ));
    }

    #[test]
    fn reopened_torn_file_log_reconciles_len_bytes() {
        let dir = std::env::temp_dir().join(format!("youtopia_wal_len_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_len.wal");
        let (bytes, group1_end, _) = two_group_log();
        // a prior process crashed mid-batch: tear the last 5 bytes
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let mut wal = Wal::open(&path).unwrap();
        // open reconciles the hint with the on-disk length as-is
        assert_eq!(wal.len_bytes(), (bytes.len() - 5) as u64);
        // replay truncates the damaged group and the hint follows
        wal.replay_records().unwrap();
        assert_eq!(wal.len_bytes(), group1_end as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            group1_end as u64,
            "truncation reached the disk"
        );
        drop(wal);
        // a later process observes the reconciled length directly
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.len_bytes(), group1_end as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn schema_with_pk_survives_roundtrip() {
        let mut wal = Wal::in_memory();
        commit_ops(
            &mut wal,
            &[WalOp::CreateTable {
                name: "T".into(),
                schema: sample_schema(),
                next_rid: 7,
            }],
        );
        match &replay_ops(&mut wal)[0] {
            WalOp::CreateTable {
                schema, next_rid, ..
            } => {
                assert_eq!(*next_rid, 7);
                assert_eq!(schema.primary_key(), &[0]);
                assert!(schema.columns()[1].nullable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
