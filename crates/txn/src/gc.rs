//! Garbage collection with watermarks (§7.3).
//!
//! Two watermarks drive reclamation:
//!
//! * **minimum active XID** — the smallest start timestamp among active
//!   transactions, found by scanning the per-slot active table (cheap:
//!   one atomic load per slot, no locks). UNDO logs committed before it
//!   can never be needed by any snapshot.
//! * **max frozen XID** — the highest timestamp such that everything at or
//!   below it is globally visible; computed as a by-product of UNDO GC
//!   (the minimum over slots of the last reclaimed cts). It gates twin-
//!   table reclamation.
//!
//! Deleted tuples are physically removed when the deleting UNDO log is
//! reclaimed (i.e. the deletion became globally visible): the engine calls
//! back into the kernel to drop the row from the table and its indexes.
//!
//! There is one GC step, [`GcEngine::collect_step`]: reclaim a set of
//! arenas, then retire stale twin tables from a set of registry shards
//! against the max-frozen watermark over *all* arenas. A worker's GC tick
//! runs it over the arenas it owns and its next registry shard;
//! [`GcEngine::collect_all`] runs it once over everything.

use crate::twin::TwinRegistry;
use crate::undo::{UndoArena, UndoLog, UndoOp};
use phoebe_common::ids::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Idle marker in the active table.
const IDLE: u64 = u64::MAX;

/// Lock-free table of active transactions: slot *i* holds the start
/// timestamp of the transaction currently running on task slot *i*, or
/// `IDLE`. "The minimum active XID is determined by scanning active
/// transactions" (§7.3) — a scan of plain atomics, not a locked list.
pub struct ActiveTxnTable {
    slots: Box<[AtomicU64]>,
}

impl ActiveTxnTable {
    pub fn new(total_slots: usize) -> Self {
        let mut v = Vec::with_capacity(total_slots);
        v.resize_with(total_slots, || AtomicU64::new(IDLE));
        ActiveTxnTable { slots: v.into_boxed_slice() }
    }

    pub fn begin(&self, slot: usize, start_ts: Timestamp) {
        self.slots[slot].store(start_ts, Ordering::Release);
    }

    pub fn end(&self, slot: usize) {
        self.slots[slot].store(IDLE, Ordering::Release);
    }

    /// The minimum active start timestamp, or `fallback` (usually "now")
    /// when no transaction is active.
    pub fn min_active_start(&self, fallback: Timestamp) -> Timestamp {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .filter(|&s| s != IDLE)
            .min()
            .unwrap_or(fallback)
    }

    pub fn active_count(&self) -> usize {
        self.slots.iter().filter(|s| s.load(Ordering::Acquire) != IDLE).count()
    }
}

/// What one GC round did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GcStats {
    pub undo_reclaimed: usize,
    pub twins_reclaimed: usize,
    pub tuples_deleted: usize,
    pub max_frozen: Timestamp,
}

/// The GC engine: owns nothing, orchestrates the per-slot arenas, the
/// active table and the twin registry.
pub struct GcEngine {
    arenas: Vec<Arc<UndoArena>>,
    registry: Arc<TwinRegistry>,
}

impl GcEngine {
    pub fn new(arenas: Vec<Arc<UndoArena>>, registry: Arc<TwinRegistry>) -> Self {
        GcEngine { arenas, registry }
    }

    pub fn registry(&self) -> &Arc<TwinRegistry> {
        &self.registry
    }

    /// Reclaim one slot's arena. `on_delete` physically removes a deleted tuple from table + indexes.
    fn collect_slot(
        &self,
        slot: usize,
        min_active_start: Timestamp,
        stats: &mut GcStats,
        on_delete: &mut impl FnMut(&Arc<UndoLog>),
    ) {
        let registry = &self.registry;
        let mut deleted = 0;
        stats.undo_reclaimed += self.arenas[slot].reclaim_until(min_active_start, |log| {
            // Twin cleanup: if this log is still the chain head, the base
            // tuple alone now serves every snapshot.
            if let Some(twin) = registry.get((log.table, log.page_key)) {
                twin.clear_if_head(log.row, log);
            }
            if matches!(log.op, UndoOp::Delete { .. } | UndoOp::FrozenDelete { .. }) {
                on_delete(log);
                deleted += 1;
            }
        });
        stats.tuples_deleted += deleted;
    }

    /// Unreclaimed UNDO logs across every arena (a sampling-path gauge:
    /// it takes each arena's queue lock once).
    pub fn undo_backlog(&self) -> usize {
        self.arenas.iter().map(|a| a.len()).sum()
    }

    /// Max-frozen watermark: the minimum over slots of "everything this
    /// slot has fully reclaimed". Idle/empty slots don't hold it back.
    pub fn max_frozen(&self, min_active_start: Timestamp) -> Timestamp {
        self.arenas
            .iter()
            .map(|a| if a.is_empty() { min_active_start } else { a.last_reclaimed_cts() })
            .min()
            .unwrap_or(min_active_start)
    }

    /// The one GC step (§7.3): reclaim each of `slots`' arenas, then retire stale twin tables from each of the registry `shards`
    /// against the max-frozen watermark over every arena.
    pub fn collect_step(
        &self,
        slots: impl IntoIterator<Item = usize>,
        shards: impl IntoIterator<Item = usize>,
        min_active_start: Timestamp,
        mut on_delete: impl FnMut(&Arc<UndoLog>),
    ) -> GcStats {
        let mut stats = GcStats::default();
        for slot in slots {
            self.collect_slot(slot, min_active_start, &mut stats, &mut on_delete);
        }
        stats.max_frozen = self.max_frozen(min_active_start);
        for shard in shards {
            stats.twins_reclaimed += self.registry.reclaim_shard(shard, stats.max_frozen);
        }
        stats
    }

    /// [`GcEngine::collect_step`] over every arena and every registry shard.
    pub fn collect_all(
        &self,
        min_active_start: Timestamp,
        on_delete: impl FnMut(&Arc<UndoLog>),
    ) -> GcStats {
        self.collect_step(
            0..self.arenas.len(),
            0..self.registry.shard_count(),
            min_active_start,
            on_delete,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::{TxnHandle, TxnOutcome};
    use crate::undo::UndoOp;
    use phoebe_common::ids::{RowId, TableId, Xid};
    use phoebe_storage::schema::Value;

    #[test]
    fn active_table_tracks_min() {
        let t = ActiveTxnTable::new(4);
        assert_eq!(t.min_active_start(99), 99);
        t.begin(0, 10);
        t.begin(2, 7);
        assert_eq!(t.min_active_start(99), 7);
        assert_eq!(t.active_count(), 2);
        t.end(2);
        assert_eq!(t.min_active_start(99), 10);
        t.end(0);
        assert_eq!(t.min_active_start(99), 99);
    }

    fn committed(
        arena: &UndoArena,
        registry: &TwinRegistry,
        row: u64,
        cts: u64,
        op: UndoOp,
    ) -> Arc<UndoLog> {
        let h = TxnHandle::new(Xid::from_start_ts(cts - 1));
        let prev = registry.get((TableId(1), RowId(0))).and_then(|t| t.head(RowId(row)));
        let log = UndoLog::new(TableId(1), RowId(row), RowId(0), op, Arc::clone(&h), prev);
        let twin = registry.get_or_create((TableId(1), RowId(0)));
        assert!(twin.set_head(RowId(row), Arc::clone(&log), cts - 1));
        log.stamp_commit(cts);
        h.finish(TxnOutcome::Committed(cts));
        arena.push(Arc::clone(&log));
        log
    }

    #[test]
    fn collect_clears_twin_heads_and_reports_deletes() {
        let arena = Arc::new(UndoArena::new());
        let registry = Arc::new(TwinRegistry::new());
        let gc = GcEngine::new(vec![Arc::clone(&arena)], Arc::clone(&registry));

        committed(&arena, &registry, 1, 5, UndoOp::Update { delta: vec![(0, Value::I64(9))] });
        committed(&arena, &registry, 2, 6, UndoOp::Delete { row_image: vec![Value::I64(1)] });
        committed(&arena, &registry, 3, 50, UndoOp::Insert);

        let mut deleted = Vec::new();
        let stats = gc.collect_all(10, |log| deleted.push(log.row.raw()));
        assert_eq!(stats.undo_reclaimed, 2, "cts 5 and 6 are below watermark 10");
        assert_eq!(stats.tuples_deleted, 1);
        assert_eq!(deleted, vec![2]);
        let twin = registry.get((TableId(1), RowId(0))).unwrap();
        assert!(twin.head(RowId(1)).is_none(), "reclaimed head cleared");
        assert!(twin.head(RowId(3)).is_some(), "young head kept");
    }

    #[test]
    fn newer_heads_survive_reclamation_of_old_versions() {
        let arena = Arc::new(UndoArena::new());
        let registry = Arc::new(TwinRegistry::new());
        let gc = GcEngine::new(vec![Arc::clone(&arena)], Arc::clone(&registry));

        committed(&arena, &registry, 1, 5, UndoOp::Update { delta: vec![(0, Value::I64(1))] });
        let newer =
            committed(&arena, &registry, 1, 40, UndoOp::Update { delta: vec![(0, Value::I64(2))] });
        let stats = gc.collect_all(10, |_| {});
        assert_eq!(stats.undo_reclaimed, 1);
        let twin = registry.get((TableId(1), RowId(0))).unwrap();
        let head = twin.head(RowId(1)).unwrap();
        assert!(Arc::ptr_eq(&head, &newer), "newer head must survive");
        // The reclaimed predecessor is invalid; chain traversal stops.
        assert!(head.next_version().map(|n| !n.is_valid()).unwrap_or(true));
    }

    #[test]
    fn max_frozen_is_min_over_busy_slots() {
        let a0 = Arc::new(UndoArena::new());
        let a1 = Arc::new(UndoArena::new());
        let registry = Arc::new(TwinRegistry::new());
        let gc = GcEngine::new(vec![Arc::clone(&a0), Arc::clone(&a1)], Arc::clone(&registry));
        committed(&a0, &registry, 1, 5, UndoOp::Insert);
        committed(&a0, &registry, 2, 8, UndoOp::Insert);
        committed(&a1, &registry, 3, 6, UndoOp::Insert);
        committed(&a1, &registry, 4, 30, UndoOp::Insert);
        // Watermark 10: slot0 reclaims up to 8, slot1 up to 6 (30 stays).
        let stats = gc.collect_all(10, |_| {});
        assert_eq!(stats.undo_reclaimed, 3);
        // Slot0 now empty (contributes min_active=10); slot1 last=6.
        assert_eq!(gc.max_frozen(10), 6);
        assert_eq!(stats.max_frozen, 6);
    }

    #[test]
    fn twin_tables_reclaimed_once_empty_and_cold() {
        let arena = Arc::new(UndoArena::new());
        let registry = Arc::new(TwinRegistry::new());
        let gc = GcEngine::new(vec![Arc::clone(&arena)], Arc::clone(&registry));
        committed(&arena, &registry, 1, 5, UndoOp::Update { delta: vec![] });
        assert_eq!(registry.len(), 1);
        let stats = gc.collect_all(100, |_| {});
        assert_eq!(stats.undo_reclaimed, 1);
        assert_eq!(stats.twins_reclaimed, 1, "empty + old twin goes away");
        assert_eq!(registry.len(), 0);
    }

    #[test]
    fn inflight_transactions_pin_everything() {
        let arena = Arc::new(UndoArena::new());
        let registry = Arc::new(TwinRegistry::new());
        let gc = GcEngine::new(vec![Arc::clone(&arena)], Arc::clone(&registry));
        // In-flight log at the queue head pins the arena.
        let h = TxnHandle::new(Xid::from_start_ts(3));
        let log = UndoLog::new(TableId(1), RowId(1), RowId(0), UndoOp::Insert, h, None);
        arena.push(log);
        let stats = gc.collect_all(u64::MAX >> 2, |_| {});
        assert_eq!(stats.undo_reclaimed, 0);
        assert_eq!(arena.len(), 1);
    }
}
