//! WAL record format (§8).
//!
//! Records are *logical*: they carry the table, row id and values of the
//! operation, so recovery replays them against a fresh kernel in GSN order.
//! Every record carries its GSN (globally monotone, not unique; the
//! cross-file recovery order) and LSN (strictly monotone within one
//! writer), plus a CRC32 so torn tails are detected and cut off.
//!
//! Wire format: `[len u32][crc32 u32][payload]` with the CRC computed over
//! the payload. The exact bytes are pinned by the golden fixture in
//! `tests/fixtures/wal_records.hex` (see `tests/wal_golden.rs`): changing
//! this layout breaks recovery of logs written by earlier builds, so the
//! fixture test must be updated deliberately, never silently.

use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::ids::{Gsn, Lsn, RowId, TableId, Timestamp, Xid};
use phoebe_storage::schema::Value;

/// The operation a record describes.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordBody {
    Begin,
    Insert {
        table: TableId,
        row: RowId,
        tuple: Vec<Value>,
    },
    Update {
        table: TableId,
        row: RowId,
        delta: Vec<(u16, Value)>,
    },
    Delete {
        table: TableId,
        row: RowId,
    },
    Commit {
        cts: Timestamp,
    },
    Abort,
    /// The end of a group-commit round, stamped with the round's tick;
    /// also the first record of every segment, stamped with the clock's
    /// first value. See [`WalRecord::round_end`].
    RoundEnd,
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    pub xid: Xid,
    pub gsn: Gsn,
    pub lsn: Lsn,
    pub body: RecordBody,
}

impl WalRecord {
    /// The marker that closes a round whose tick is `tick`: every record
    /// before it in the segment is stamped below `tick`, every record
    /// after it at or above. Its GSN and LSN are both the tick, which
    /// rises from marker to marker; its xid (start timestamp 0) is no
    /// transaction's.
    pub fn round_end(tick: u64) -> WalRecord {
        WalRecord {
            xid: Xid::from_start_ts(0),
            gsn: Gsn(tick),
            lsn: Lsn(tick),
            body: RecordBody::RoundEnd,
        }
    }
}

// --- CRC32 (IEEE), table-driven; self-contained. ---

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    })
}

/// CRC32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::I64(x) => {
            out.push(0);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::I32(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(PhoebeError::corruption("wal record truncated"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::I64(i64::from_le_bytes(self.take(8)?.try_into().expect("8"))),
            1 => Value::I32(i32::from_le_bytes(self.take(4)?.try_into().expect("4"))),
            2 => Value::F64(f64::from_le_bytes(self.take(8)?.try_into().expect("8"))),
            3 => {
                let n = self.u16()? as usize;
                Value::Str(
                    String::from_utf8(self.take(n)?.to_vec())
                        .map_err(|_| PhoebeError::corruption("non-utf8 wal string"))?,
                )
            }
            t => return Err(PhoebeError::corruption(format!("bad value tag {t}"))),
        })
    }
}

impl WalRecord {
    /// Append the framed record to `out`; returns the frame length.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(&self.xid.raw().to_le_bytes());
        payload.extend_from_slice(&self.gsn.raw().to_le_bytes());
        payload.extend_from_slice(&self.lsn.raw().to_le_bytes());
        match &self.body {
            RecordBody::Begin => payload.push(0),
            RecordBody::Insert { table, row, tuple } => {
                payload.push(1);
                payload.extend_from_slice(&table.raw().to_le_bytes());
                payload.extend_from_slice(&row.raw().to_le_bytes());
                payload.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
                for v in tuple {
                    put_value(&mut payload, v);
                }
            }
            RecordBody::Update { table, row, delta } => {
                payload.push(2);
                payload.extend_from_slice(&table.raw().to_le_bytes());
                payload.extend_from_slice(&row.raw().to_le_bytes());
                payload.extend_from_slice(&(delta.len() as u16).to_le_bytes());
                for (col, v) in delta {
                    payload.extend_from_slice(&col.to_le_bytes());
                    put_value(&mut payload, v);
                }
            }
            RecordBody::Delete { table, row } => {
                payload.push(3);
                payload.extend_from_slice(&table.raw().to_le_bytes());
                payload.extend_from_slice(&row.raw().to_le_bytes());
            }
            RecordBody::Commit { cts } => {
                payload.push(4);
                payload.extend_from_slice(&cts.to_le_bytes());
            }
            RecordBody::Abort => payload.push(5),
            RecordBody::RoundEnd => payload.push(6),
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        8 + payload.len()
    }

    /// Decode one framed record at `buf[at..]`. Returns the record and the
    /// next offset, or `Ok(None)` at a clean/torn end of log.
    pub fn decode_at(buf: &[u8], at: usize) -> Result<Option<(WalRecord, usize)>> {
        if at + 8 > buf.len() {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4"));
        if len == 0 || at + 8 + len > buf.len() {
            return Ok(None); // torn tail
        }
        let payload = &buf[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            return Ok(None); // torn/corrupt tail: stop replay here
        }
        let mut c = Cursor { buf: payload, at: 0 };
        let xid = Xid::from_raw(c.u64()?)
            .ok_or_else(|| PhoebeError::corruption("record xid missing flag bit"))?;
        let gsn = Gsn(c.u64()?);
        let lsn = Lsn(c.u64()?);
        let body = match c.u8()? {
            0 => RecordBody::Begin,
            1 => {
                let table = TableId(c.u32()?);
                let row = RowId(c.u64()?);
                let n = c.u16()? as usize;
                let tuple = (0..n).map(|_| c.value()).collect::<Result<Vec<_>>>()?;
                RecordBody::Insert { table, row, tuple }
            }
            2 => {
                let table = TableId(c.u32()?);
                let row = RowId(c.u64()?);
                let n = c.u16()? as usize;
                let mut delta = Vec::with_capacity(n);
                for _ in 0..n {
                    let col = c.u16()?;
                    delta.push((col, c.value()?));
                }
                RecordBody::Update { table, row, delta }
            }
            3 => RecordBody::Delete { table: TableId(c.u32()?), row: RowId(c.u64()?) },
            4 => RecordBody::Commit { cts: c.u64()? },
            5 => RecordBody::Abort,
            6 => RecordBody::RoundEnd,
            t => return Err(PhoebeError::corruption(format!("bad record tag {t}"))),
        };
        Ok(Some((WalRecord { xid, gsn, lsn, body }, at + 8 + len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(body: RecordBody) -> WalRecord {
        WalRecord { xid: Xid::from_start_ts(10), gsn: Gsn(5), lsn: Lsn(2), body }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        let records = vec![
            rec(RecordBody::Begin),
            rec(RecordBody::Insert {
                table: TableId(3),
                row: RowId(44),
                tuple: vec![
                    Value::I64(-5),
                    Value::I32(7),
                    Value::F64(1.5),
                    Value::Str("hello".into()),
                ],
            }),
            rec(RecordBody::Update {
                table: TableId(3),
                row: RowId(44),
                delta: vec![(0, Value::I64(9)), (3, Value::Str("x".into()))],
            }),
            rec(RecordBody::Delete { table: TableId(3), row: RowId(44) }),
            rec(RecordBody::Commit { cts: 77 }),
            rec(RecordBody::Abort),
            WalRecord::round_end(6),
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode_into(&mut buf);
        }
        let mut at = 0;
        for r in &records {
            let (got, next) = WalRecord::decode_at(&buf, at).unwrap().expect("record");
            assert_eq!(&got, r);
            at = next;
        }
        assert_eq!(WalRecord::decode_at(&buf, at).unwrap(), None, "clean end");
    }

    #[test]
    fn torn_tail_stops_replay_without_error() {
        let mut buf = Vec::new();
        rec(RecordBody::Begin).encode_into(&mut buf);
        rec(RecordBody::Commit { cts: 1 }).encode_into(&mut buf);
        // Cut the second record short.
        let cut = buf.len() - 3;
        let (first, next) = WalRecord::decode_at(&buf[..cut], 0).unwrap().unwrap();
        assert_eq!(first.body, RecordBody::Begin);
        assert_eq!(WalRecord::decode_at(&buf[..cut], next).unwrap(), None);
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let mut buf = Vec::new();
        rec(RecordBody::Commit { cts: 1 }).encode_into(&mut buf);
        buf[12] ^= 0x01; // flip a payload bit
        assert_eq!(WalRecord::decode_at(&buf, 0).unwrap(), None);
    }
}
