//! The Data Block File: compressed frozen storage with the
//! `max_frozen_row_id` watermark (§5.2).
//!
//! Freezing appends a compressed block covering a contiguous, ascending
//! row-id range and advances the watermark: afterwards every row id at or
//! below `max_frozen_row_id` is served from this store (or is tombstoned).
//! Deletes and updates of frozen rows are out-of-place: the row is
//! tombstoned here and, for updates/warming, re-inserted into hot storage
//! under a fresh row id by the kernel.
//!
//! Each block counts its reads; blocks crossing the warm threshold are
//! reported by [`FrozenStore::hot_blocks`] so the kernel can warm them
//! (§5.2 case 3: "frequently accessed frozen pages ... are marked as
//! deleted and reinserted into hot storage").

use super::codec;
use crate::schema::{ColType, Value};
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::fault::{FaultFile, FaultFs};
use phoebe_common::ids::RowId;
use phoebe_common::sync::{Rank, RankedMutex, RankedRwLock};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct BlockMeta {
    start: RowId,
    end: RowId,
    offset: u64,
    len: u32,
    reads: AtomicU64,
    /// All rows tombstoned (block fully dead, skip it).
    dead: std::sync::atomic::AtomicBool,
}

/// Per-block statistics for the temperature controller.
#[derive(Debug, Clone)]
pub struct BlockStats {
    pub index: usize,
    pub start: RowId,
    pub end: RowId,
    pub reads: u64,
    pub bytes: u32,
}

/// Append-only compressed block storage for one table.
pub struct FrozenStore {
    file: Arc<dyn FaultFile>,
    append_at: AtomicU64,
    directory: RankedRwLock<Vec<BlockMeta>>,
    tombstones: RankedMutex<HashSet<u64>>,
    max_frozen_row_id: AtomicU64,
    types: Vec<ColType>,
}

/// Watermark value meaning "nothing frozen yet".
pub const NOTHING_FROZEN: u64 = 0;

impl FrozenStore {
    /// Create (or truncate) the store's file at `path` through `fs`, the
    /// kernel's one I/O seam.
    pub fn create(fs: &dyn FaultFs, path: &Path, types: Vec<ColType>) -> Result<Self> {
        Ok(FrozenStore {
            file: fs.create(path)?,
            append_at: AtomicU64::new(0),
            directory: RankedRwLock::new(Rank::FrozenTier, "frozen.directory", Vec::new()),
            tombstones: RankedMutex::new(Rank::FrozenTier, "frozen.tombstones", HashSet::new()),
            max_frozen_row_id: AtomicU64::new(NOTHING_FROZEN),
            types,
        })
    }

    /// Highest frozen row id (`NOTHING_FROZEN` if none). Rows at or below
    /// this watermark are served by this store.
    pub fn max_frozen_row_id(&self) -> u64 {
        self.max_frozen_row_id.load(Ordering::Acquire)
    }

    /// Freeze a contiguous ascending row range into one block. Ranges must
    /// arrive in ascending order (the freezer walks leaves left to right).
    pub fn append_block(&self, row_ids: &[RowId], rows: &[Vec<Value>]) -> Result<()> {
        if row_ids.is_empty() {
            return Ok(());
        }
        let start = row_ids[0];
        let end = *row_ids.last().expect("non-empty");
        if start.raw() <= self.max_frozen_row_id() {
            return Err(PhoebeError::internal(
                "frozen blocks must be appended in ascending row order",
            ));
        }
        let blob = codec::encode_block(&self.types, row_ids, rows);
        let offset = self.append_at.fetch_add(blob.len() as u64, Ordering::SeqCst);
        self.file.write_all_at(offset, &blob)?;
        self.directory.write().push(BlockMeta {
            start,
            end,
            offset,
            len: blob.len() as u32,
            reads: AtomicU64::new(0),
            dead: std::sync::atomic::AtomicBool::new(false),
        });
        self.max_frozen_row_id.fetch_max(end.raw(), Ordering::AcqRel);
        Ok(())
    }

    fn block_index_for(&self, row: RowId) -> Option<usize> {
        let dir = self.directory.read();
        let idx = dir.partition_point(|b| b.end < row);
        (idx < dir.len() && dir[idx].start <= row && row <= dir[idx].end).then_some(idx)
    }

    fn read_block(&self, idx: usize) -> Result<(Vec<RowId>, Vec<Vec<Value>>)> {
        let (offset, len) = {
            let dir = self.directory.read();
            let b = &dir[idx];
            b.reads.fetch_add(1, Ordering::Relaxed);
            (b.offset, b.len as usize)
        };
        let mut buf = vec![0u8; len];
        self.file.read_exact_at(offset, &mut buf)?;
        codec::decode_block(&buf)
    }

    /// Fetch one frozen row (decompressing its block). `None` if the row is
    /// outside the watermark, in no block, or tombstoned.
    pub fn get(&self, row: RowId) -> Result<Option<Vec<Value>>> {
        if row.raw() > self.max_frozen_row_id() || row.raw() == NOTHING_FROZEN {
            return Ok(None);
        }
        if self.tombstones.lock().contains(&row.raw()) {
            return Ok(None);
        }
        let Some(idx) = self.block_index_for(row) else {
            return Ok(None);
        };
        let (ids, mut rows) = self.read_block(idx)?;
        match ids.binary_search(&row) {
            Ok(pos) => Ok(Some(std::mem::take(&mut rows[pos]))),
            Err(_) => Ok(None),
        }
    }

    /// Tombstone a frozen row (out-of-place delete/update, §5.2).
    pub fn mark_deleted(&self, row: RowId) {
        self.tombstones.lock().insert(row.raw());
    }

    /// Whether `row` is tombstoned.
    pub fn is_deleted(&self, row: RowId) -> bool {
        self.tombstones.lock().contains(&row.raw())
    }

    /// Remove a tombstone (rollback of an aborted frozen delete).
    pub fn unmark_deleted(&self, row: RowId) {
        self.tombstones.lock().remove(&row.raw());
    }

    /// Blocks whose read count crossed `threshold` and that still hold live
    /// rows — warming candidates.
    pub fn hot_blocks(&self, threshold: u64) -> Vec<BlockStats> {
        let dir = self.directory.read();
        dir.iter()
            .enumerate()
            .filter(|(_, b)| {
                !b.dead.load(Ordering::Relaxed) && b.reads.load(Ordering::Relaxed) >= threshold
            })
            .map(|(i, b)| BlockStats {
                index: i,
                start: b.start,
                end: b.end,
                reads: b.reads.load(Ordering::Relaxed),
                bytes: b.len,
            })
            .collect()
    }

    /// Extract all live rows of a block and tombstone them (warming: the
    /// kernel re-inserts them hot under fresh row ids). The block is marked
    /// dead afterwards.
    pub fn take_block(&self, idx: usize) -> Result<(Vec<RowId>, Vec<Vec<Value>>)> {
        let (ids, rows) = self.read_block(idx)?;
        let mut tomb = self.tombstones.lock();
        let mut live_ids = Vec::new();
        let mut live_rows = Vec::new();
        for (id, row) in ids.into_iter().zip(rows) {
            if tomb.insert(id.raw()) {
                live_ids.push(id);
                live_rows.push(row);
            }
        }
        drop(tomb);
        self.directory.read()[idx].dead.store(true, Ordering::Relaxed);
        Ok((live_ids, live_rows))
    }

    /// Scan every live frozen row in row-id order (OLAP path; does not
    /// touch the buffer pool, per §5.2 "operations like table scans do not
    /// warm any data"). Read counts are *not* bumped: scans are not an OLTP
    /// access signal.
    pub fn scan(&self, mut f: impl FnMut(RowId, &[Value]) -> bool) -> Result<()> {
        let nblocks = self.directory.read().len();
        for idx in 0..nblocks {
            if self.directory.read()[idx].dead.load(Ordering::Relaxed) {
                continue;
            }
            let (offset, len) = {
                let dir = self.directory.read();
                (dir[idx].offset, dir[idx].len as usize)
            };
            let mut buf = vec![0u8; len];
            self.file.read_exact_at(offset, &mut buf)?;
            let (ids, rows) = codec::decode_block(&buf)?;
            let tomb = self.tombstones.lock();
            for (id, row) in ids.iter().zip(&rows) {
                if tomb.contains(&id.raw()) {
                    continue;
                }
                if !f(*id, row) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// (block count, live block count, total compressed bytes).
    pub fn stats(&self) -> (usize, usize, u64) {
        let dir = self.directory.read();
        let live = dir.iter().filter(|b| !b.dead.load(Ordering::Relaxed)).count();
        (dir.len(), live, self.append_at.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoebe_common::fault::OsFs;

    fn store() -> FrozenStore {
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        FrozenStore::create(&OsFs, &dir.join("frozen.db"), vec![ColType::I64, ColType::Str(10)])
            .unwrap()
    }

    fn rows(range: std::ops::Range<u64>) -> (Vec<RowId>, Vec<Vec<Value>>) {
        let ids: Vec<RowId> = range.clone().map(RowId).collect();
        let rows = range.map(|i| vec![Value::I64(i as i64 * 10), Value::Str("x".into())]).collect();
        (ids, rows)
    }

    #[test]
    fn freeze_then_read_back() {
        let s = store();
        let (ids, data) = rows(1..100);
        s.append_block(&ids, &data).unwrap();
        assert_eq!(s.max_frozen_row_id(), 99);
        assert_eq!(s.get(RowId(42)).unwrap().unwrap()[0], Value::I64(420));
        assert_eq!(s.get(RowId(100)).unwrap(), None, "beyond watermark");
    }

    #[test]
    fn multiple_blocks_are_routed_by_row_id() {
        let s = store();
        let (a_ids, a) = rows(1..50);
        let (b_ids, b) = rows(50..120);
        s.append_block(&a_ids, &a).unwrap();
        s.append_block(&b_ids, &b).unwrap();
        assert_eq!(s.get(RowId(10)).unwrap().unwrap()[0], Value::I64(100));
        assert_eq!(s.get(RowId(110)).unwrap().unwrap()[0], Value::I64(1100));
        assert_eq!(s.stats().0, 2);
    }

    #[test]
    fn out_of_order_blocks_are_rejected() {
        let s = store();
        let (b_ids, b) = rows(50..60);
        s.append_block(&b_ids, &b).unwrap();
        let (a_ids, a) = rows(1..10);
        assert!(s.append_block(&a_ids, &a).is_err());
    }

    #[test]
    fn tombstones_hide_rows() {
        let s = store();
        let (ids, data) = rows(1..20);
        s.append_block(&ids, &data).unwrap();
        s.mark_deleted(RowId(5));
        assert!(s.is_deleted(RowId(5)));
        assert_eq!(s.get(RowId(5)).unwrap(), None);
        assert!(s.get(RowId(6)).unwrap().is_some());
    }

    #[test]
    fn read_counts_drive_hot_block_detection() {
        let s = store();
        let (ids, data) = rows(1..10);
        s.append_block(&ids, &data).unwrap();
        assert!(s.hot_blocks(3).is_empty());
        for _ in 0..3 {
            s.get(RowId(2)).unwrap();
        }
        let hot = s.hot_blocks(3);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].reads, 3);
        assert_eq!((hot[0].start, hot[0].end), (RowId(1), RowId(9)));
    }

    #[test]
    fn take_block_returns_live_rows_and_kills_block() {
        let s = store();
        let (ids, data) = rows(1..10);
        s.append_block(&ids, &data).unwrap();
        s.mark_deleted(RowId(3));
        let (live_ids, live_rows) = s.take_block(0).unwrap();
        assert_eq!(live_ids.len(), 8);
        assert!(!live_ids.contains(&RowId(3)));
        assert_eq!(live_rows.len(), 8);
        // All rows now tombstoned; reads return None; block dead.
        assert_eq!(s.get(RowId(4)).unwrap(), None);
        assert!(s.hot_blocks(0).is_empty());
        assert_eq!(s.stats().1, 0);
    }

    #[test]
    fn scan_visits_live_rows_in_order() {
        let s = store();
        let (ids, data) = rows(1..30);
        s.append_block(&ids, &data).unwrap();
        s.mark_deleted(RowId(7));
        let mut seen = Vec::new();
        s.scan(|id, _| {
            seen.push(id.raw());
            true
        })
        .unwrap();
        assert_eq!(seen.len(), 28);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert!(!seen.contains(&7));
        // Scans must not bump the OLTP read counter.
        assert!(s.hot_blocks(1).is_empty());
    }

    #[test]
    fn scan_stops_early_when_requested() {
        let s = store();
        let (ids, data) = rows(1..30);
        s.append_block(&ids, &data).unwrap();
        let mut n = 0;
        s.scan(|_, _| {
            n += 1;
            n < 5
        })
        .unwrap();
        assert_eq!(n, 5);
    }
}
