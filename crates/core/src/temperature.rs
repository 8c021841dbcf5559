//! The temperature controller: freezing cold pages and warming hot frozen
//! blocks (§5.2, "Temperature-based Exchange", cases 2 and 3).
//!
//! Freezing walks a table's leaves left to right starting past the current
//! `max_frozen_row_id`. Consecutive leaves whose OLTP access count over
//! the current observation window stays below the threshold — and whose
//! rows carry no pending versions — are compressed into frozen data
//! blocks, advancing the watermark. The walk stops at the first leaf that
//! fails the criteria, so the frozen region stays a contiguous row-id
//! prefix. Frozen rows are then logically removed from the hot tree (the
//! tree keeps routing reads; `row <= max_frozen_row_id` short-circuits to
//! the block store before ever touching the buffer pool).
//!
//! Warming takes blocks whose OLTP read count crossed the threshold,
//! tombstones their rows and re-inserts them into hot storage under fresh
//! row ids, updating every secondary index (§5.2 case 3). Freezing only
//! changes where a row lives and is not logged; warming changes row ids,
//! so it logs its moves.

use crate::catalog::TableEntry;
use crate::db::Database;
use phoebe_common::error::Result;
use phoebe_common::ids::RowId;
use phoebe_common::metrics::Counter;
use phoebe_runtime::block_on;
use phoebe_storage::schema::Value;
use phoebe_wal::RecordBody;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Outcome of one freeze pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FreezeStats {
    pub pages_frozen: usize,
    pub rows_frozen: usize,
    pub new_watermark: u64,
}

/// Outcome of one warm pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WarmStats {
    pub blocks_warmed: usize,
    pub rows_warmed: usize,
}

impl Database {
    /// One freezing pass over `table` (§5.2 case 2). Returns what was
    /// frozen. Access counters of inspected leaves are reset so the next
    /// pass observes a fresh window ("access frequency over time").
    pub fn freeze_table(&self, table: &Arc<TableEntry>) -> Result<FreezeStats> {
        // Freeze only touches globally visible data: reclaim whatever UNDO
        // is already reclaimable so committed-long-ago rows shed their
        // version chains first.
        let _ = self.collect_all();
        let mut stats = FreezeStats::default();
        let threshold = self.cfg.freeze_access_threshold;
        let batch_pages = self.cfg.freeze_batch_pages;
        let mut ids: Vec<RowId> = Vec::new();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut pages = 0usize;
        let twins = Arc::clone(&self.twins);
        let pool = Arc::clone(&self.pool);
        table.tree.table_for_each_leaf(|fid, leaf| {
            // Leaves already drained by earlier freezes are skipped.
            if leaf.live_rows() == 0 {
                return true;
            }
            let first = match leaf.first_row_id() {
                Some(f) => f,
                None => return true,
            };
            // Never freeze the rightmost growth leaf: appends land there.
            // (Detect via the leaf not being full; a partially filled leaf
            // in the middle can only be the last one, since table leaves
            // fill strictly left to right.)
            if !leaf.is_full(&table.layout) {
                return false;
            }
            let meta = &pool.frame(fid).meta;
            let count = meta.access_count.swap(0, Ordering::Relaxed);
            if count >= threshold {
                return false; // hot leaf ends the contiguous prefix
            }
            // Rows with live version chains are not globally visible yet.
            if let Some(twin) = twins.get((table.id, first)) {
                if twin.live_entries() > 0 {
                    return false;
                }
            }
            for r in 0..leaf.len() {
                if leaf.is_valid(r) {
                    ids.push(leaf.row_id_at(r));
                    rows.push(leaf.read_row(&table.layout, r));
                }
            }
            pages += 1;
            pages < batch_pages
        })?;
        if ids.is_empty() {
            return Ok(stats);
        }
        table.frozen.append_block(&ids, &rows)?;
        // Drain the hot copies: reads now route through the watermark.
        for id in &ids {
            table.tree.table_modify(*id, |leaf, idx, _, _| {
                leaf.mark_deleted(idx);
            })?;
        }
        stats.pages_frozen = pages;
        stats.rows_frozen = ids.len();
        stats.new_watermark = table.frozen.max_frozen_row_id();
        self.metrics.add(Counter::PagesFrozen, pages as u64);
        Ok(stats)
    }

    /// One warming pass (§5.2 case 3): every block whose read count
    /// crossed `warm_read_threshold` is dissolved back into hot storage
    /// under fresh row ids, with index maintenance.
    ///
    /// The moves are one logged system transaction on an external slot:
    /// per row `Delete{old}` then `Insert{new, tuple}`, then a `Commit`
    /// that is durable before the first new index entry exists. Replay
    /// makes the same moves; unlogged, a later update that found a row
    /// under its new id would replay onto no row.
    pub fn warm_table(&self, table: &Arc<TableEntry>) -> Result<WarmStats> {
        let mut stats = WarmStats::default();
        let mut moved = Vec::new();
        let slot = self.checkout_external_slot();
        let (xid, _) = self.clock.begin();
        let logged = (|| -> Result<()> {
            for block in table.frozen.hot_blocks(self.cfg.warm_read_threshold) {
                let (old_ids, tuples) = table.frozen.take_block(block.index)?;
                for (old_row, tuple) in old_ids.into_iter().zip(tuples) {
                    let delete = RecordBody::Delete { table: table.id, row: old_row };
                    self.wal.log_op(slot, xid, 0, delete);
                    // The id is drawn under the leaf latch: drawn out here,
                    // a concurrent insert could append a larger one first.
                    let (new_row, _, _) = table.tree.table_append_alloc(
                        &table.layout,
                        &|| table.next_row_id(),
                        &tuple,
                        |leaf, idx, _, fid| {
                            let row = leaf.row_id_at(idx);
                            let insert =
                                RecordBody::Insert { table: table.id, row, tuple: tuple.clone() };
                            self.wal.log_page_write(&self.pool.frame(fid).meta, slot, xid, insert);
                        },
                    )?;
                    moved.push((old_row, new_row, tuple));
                }
                stats.blocks_warmed += 1;
            }
            if !moved.is_empty() {
                block_on(self.wal.commit(slot, xid, self.clock.commit_ts()))?;
            }
            Ok(())
        })();
        self.return_external_slot(slot);
        logged?;
        for (old_row, new_row, tuple) in &moved {
            // Retire the frozen row's index entries, then re-point them hot.
            table.remove_index_entries(tuple, *old_row);
            table.add_index_entries(tuple, *new_row)?;
        }
        stats.rows_warmed = moved.len();
        self.metrics.add(Counter::RowsWarmed, stats.rows_warmed as u64);
        Ok(stats)
    }
}
