//! Length-prefixed primitives shared by the WAL frame codec and the
//! coordination-event payloads layered on top of it (so the two
//! layers cannot drift apart on framing or error behavior).

use bytes::{Buf, BufMut, BytesMut};

use crate::error::{StorageError, StorageResult};

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a `u32`-length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> StorageResult<String> {
    if buf.remaining() < 4 {
        return Err(StorageError::WalCorrupt("truncated string length".into()));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(StorageError::WalCorrupt("truncated string body".into()));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|e| StorageError::WalCorrupt(format!("bad utf8 in WAL record: {e}")))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

/// Reads a big-endian `u64`.
pub fn get_u64(buf: &mut &[u8]) -> StorageResult<u64> {
    if buf.remaining() < 8 {
        return Err(StorageError::WalCorrupt("truncated u64".into()));
    }
    Ok(buf.get_u64())
}

/// Appends an optional `u64`: a `0` flag byte, or a `1` flag byte and
/// the big-endian value.
pub fn put_opt_u64(buf: &mut BytesMut, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u64(v);
        }
        None => buf.put_u8(0),
    }
}

/// Reads an optional `u64` written by [`put_opt_u64`].
pub fn get_opt_u64(buf: &mut &[u8]) -> StorageResult<Option<u64>> {
    if buf.remaining() < 1 {
        return Err(StorageError::WalCorrupt("truncated option flag".into()));
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_u64(buf)?)),
        f => Err(StorageError::WalCorrupt(format!("bad option flag {f}"))),
    }
}
