//! In-memory UNDO logs with before-image deltas (§6.2) and the per-slot
//! arenas that make commit stamping one scan and GC queue-like (§7.3).
//!
//! Each UNDO log stores only the *delta* between the old and new tuple
//! (before-image delta). Logs of one transaction are grouped (the
//! transaction keeps a list); logs of one tuple are chained newest→oldest
//! through `next`. Two timestamps ride along:
//!
//! * `sts` — when the *before image* was committed (copied from the
//!   predecessor's `ets`, or 0 if the predecessor was reclaimed). Its role
//!   (paper remark): traversal can stop at `sts <= snapshot` without ever
//!   touching — or keeping alive — the predecessor, which is what lets GC
//!   reclaim old logs without chasing version chains.
//! * `ets` — the writer's XID while in flight, overwritten with the commit
//!   timestamp during the commit scan.
//!
//! Because a task slot runs one transaction at a time, the logs appended to
//! a slot's arena are in commit order, so GC pops from the front until it
//! meets the watermark (§7.3 "UNDO logs can be reclaimed in a queue-like
//! manner").

use crate::locks::TxnHandle;
use phoebe_common::ids::{RowId, TableId, Timestamp, Xid};
use phoebe_common::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use phoebe_common::sync::{Arc, Rank, RankedMutex};
use phoebe_storage::schema::Value;
use std::collections::VecDeque;

/// What the transaction did to the tuple — stored as the information needed
/// to *undo* it (the before image).
#[derive(Debug, Clone, PartialEq)]
pub enum UndoOp {
    /// Tuple updated in place; the delta holds (column, old value) pairs.
    Update { delta: Vec<(usize, Value)> },
    /// Tuple freshly inserted; the before image is "no tuple".
    Insert,
    /// Tuple deleted; the before image is the full old row.
    Delete { row_image: Vec<Value> },
    /// A *frozen* row was tombstoned out-of-place (§5.2). Rollback removes
    /// the tombstone; the compressed block still holds the data (the image
    /// here is kept for index cleanup at GC). These logs never enter
    /// version chains — frozen data is globally visible.
    FrozenDelete { row_image: Vec<Value> },
}

/// One UNDO log record.
pub struct UndoLog {
    pub table: TableId,
    pub row: RowId,
    /// Stable page identity (leaf first row id) for twin-table cleanup.
    pub page_key: RowId,
    pub op: UndoOp,
    /// Commit timestamp of the before image (0 = predecessor reclaimed).
    sts: AtomicU64,
    /// Writer XID (raw) until commit, then the commit timestamp.
    ets: AtomicU64,
    /// Older version of the same tuple.
    next: RankedMutex<Option<Arc<UndoLog>>>,
    /// Cleared when GC reclaims the log (or the writer aborts).
    valid: AtomicBool,
    /// The writer's transaction-ID lock, reachable by anyone who finds this
    /// log — the decentralized replacement for a lock table (§7.2) and the
    /// mid-commit visibility bridge (see `locks`).
    pub writer: Arc<TxnHandle>,
}

impl UndoLog {
    pub fn new(
        table: TableId,
        row: RowId,
        page_key: RowId,
        op: UndoOp,
        writer: Arc<TxnHandle>,
        prev: Option<Arc<UndoLog>>,
    ) -> Arc<Self> {
        // sts := predecessor's ets (its commit ts — a predecessor in the
        // chain is always committed, otherwise we would have waited on its
        // writer), or 0 if there is no predecessor / it was reclaimed. If
        // the predecessor's commit stamp hasn't landed in its ets yet
        // (mid-commit), its handle already publishes the cts.
        let sts = match &prev {
            Some(p) if p.is_valid() => {
                let e = p.ets.load(Ordering::Acquire);
                if Xid::is_xid(e) {
                    match p.writer.outcome() {
                        Some(crate::locks::TxnOutcome::Committed(cts)) => cts,
                        _ => 0,
                    }
                } else {
                    e
                }
            }
            _ => 0,
        };
        let xid = writer.xid;
        Arc::new(UndoLog {
            table,
            row,
            page_key,
            op,
            sts: AtomicU64::new(sts),
            ets: AtomicU64::new(xid.raw()),
            next: RankedMutex::new(Rank::UndoLink, "undo.next", prev),
            valid: AtomicBool::new(true),
            writer,
        })
    }

    /// Raw `ets`: either an XID (writer in flight) or a commit timestamp.
    #[inline]
    pub fn ets(&self) -> u64 {
        self.ets.load(Ordering::Acquire)
    }

    /// Raw `sts`.
    #[inline]
    pub fn sts(&self) -> u64 {
        self.sts.load(Ordering::Acquire)
    }

    /// Stamp the commit timestamp (the single-scan commit update, §6.2).
    pub fn stamp_commit(&self, cts: Timestamp) {
        debug_assert!(Xid::is_xid(self.ets()), "stamping a non-inflight log");
        self.ets.store(cts, Ordering::Release);
    }

    #[inline]
    pub fn is_valid(&self) -> bool {
        self.valid.load(Ordering::Acquire)
    }

    /// Invalidate (abort rollback or GC reclamation). Drops the chain tail
    /// so reclaimed logs free immediately.
    pub fn invalidate(&self) {
        self.valid.store(false, Ordering::Release);
        *self.next.lock() = None;
    }

    /// The older version, if still reachable and valid.
    pub fn next_version(&self) -> Option<Arc<UndoLog>> {
        self.next.lock().clone()
    }
}

impl std::fmt::Debug for UndoLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UndoLog")
            .field("table", &self.table)
            .field("row", &self.row)
            .field("sts", &self.sts())
            .field("ets", &self.ets())
            .field("valid", &self.is_valid())
            .finish()
    }
}

/// Per-task-slot UNDO storage (§6.2 "UNDO logs generated by the same
/// transaction are stored together" + §7.1 "UNDO logs are managed and
/// garbage is collected by the same worker thread that generates them").
pub struct UndoArena {
    queue: RankedMutex<VecDeque<Arc<UndoLog>>>,
    /// Commit timestamp of the most recently reclaimed log on this slot —
    /// feeds the max-frozen-XID watermark (§7.3).
    last_reclaimed_cts: AtomicU64,
}

impl Default for UndoArena {
    fn default() -> Self {
        Self::new()
    }
}

impl UndoArena {
    pub fn new() -> Self {
        UndoArena {
            queue: RankedMutex::new(Rank::UndoArena, "undo.arena_queue", VecDeque::new()),
            last_reclaimed_cts: AtomicU64::new(0),
        }
    }

    /// Append a freshly created log (creation order = commit order on a
    /// slot, since slots run transactions serially).
    pub fn push(&self, log: Arc<UndoLog>) {
        self.queue.lock().push_back(log);
    }

    /// Number of unreclaimed logs.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    pub fn last_reclaimed_cts(&self) -> Timestamp {
        self.last_reclaimed_cts.load(Ordering::Acquire)
    }

    /// Queue-like reclamation (§7.3): pop logs from the front while they
    /// are invalid (aborted) or committed before `min_active_start`. Each
    /// reclaimed *valid* log is passed to `on_reclaim` (twin cleanup,
    /// deleted-tuple removal) before being invalidated.
    ///
    /// Safe with several collectors on one arena: a collector pops only
    /// the log it examined (address-checked under the queue lock) and only
    /// the one that popped it reclaims it, so every log is reclaimed
    /// exactly once and none is popped unchecked.
    ///
    /// Returns the number of logs reclaimed.
    pub fn reclaim_until(
        &self,
        min_active_start: Timestamp,
        mut on_reclaim: impl FnMut(&Arc<UndoLog>),
    ) -> usize {
        let mut reclaimed = 0;
        loop {
            let Some(front) = self.queue.lock().front().cloned() else {
                break;
            };
            // Only GC invalidates a committed log, and only after popping
            // it: what is checked here still holds once the pop succeeds.
            let (valid, ets) = (front.is_valid(), front.ets());
            if valid && (Xid::is_xid(ets) || ets >= min_active_start) {
                break; // in flight, or still needed by some snapshot
            }
            {
                let mut q = self.queue.lock();
                if !q.front().is_some_and(|f| Arc::ptr_eq(f, &front)) {
                    continue; // another collector took it; look again
                }
                q.pop_front();
            }
            if valid {
                on_reclaim(&front);
                self.last_reclaimed_cts.fetch_max(ets, Ordering::AcqRel);
                front.invalidate();
            }
            reclaimed += 1;
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::TxnOutcome;

    fn handle(ts: u64) -> Arc<TxnHandle> {
        TxnHandle::new(Xid::from_start_ts(ts))
    }

    fn log(row: u64, writer: &Arc<TxnHandle>, prev: Option<Arc<UndoLog>>) -> Arc<UndoLog> {
        UndoLog::new(
            TableId(1),
            RowId(row),
            RowId(row),
            UndoOp::Update { delta: vec![(0, Value::I64(row as i64))] },
            Arc::clone(writer),
            prev,
        )
    }

    #[test]
    fn new_log_carries_writer_xid_in_ets() {
        let w = handle(7);
        let l = log(1, &w, None);
        assert!(Xid::is_xid(l.ets()));
        assert_eq!(Xid::from_raw(l.ets()).unwrap(), w.xid);
        assert_eq!(l.sts(), 0, "no predecessor => sts 0");
    }

    #[test]
    fn sts_copies_predecessor_commit_ts() {
        let w1 = handle(1);
        let old = log(1, &w1, None);
        old.stamp_commit(6);
        w1.finish(TxnOutcome::Committed(6));
        let w2 = handle(7);
        let new = log(1, &w2, Some(Arc::clone(&old)));
        assert_eq!(new.sts(), 6, "paper Example 6.1: sts = predecessor ets");
        assert!(Arc::ptr_eq(&new.next_version().unwrap(), &old));
    }

    #[test]
    fn sts_is_zero_when_predecessor_reclaimed() {
        let w1 = handle(1);
        let old = log(1, &w1, None);
        old.stamp_commit(6);
        old.invalidate();
        let w2 = handle(7);
        let new = log(1, &w2, Some(old));
        assert_eq!(new.sts(), 0);
    }

    #[test]
    fn commit_stamp_replaces_xid_with_cts() {
        let w = handle(3);
        let l = log(1, &w, None);
        l.stamp_commit(9);
        assert_eq!(l.ets(), 9);
        assert!(!Xid::is_xid(l.ets()));
    }

    #[test]
    fn arena_reclaims_in_queue_order_up_to_watermark() {
        let arena = UndoArena::new();
        let mut logs = Vec::new();
        for i in 0..5u64 {
            let w = handle(i * 10);
            let l = log(i, &w, None);
            l.stamp_commit(i * 10 + 5); // cts: 5, 15, 25, 35, 45
            w.finish(TxnOutcome::Committed(i * 10 + 5));
            arena.push(Arc::clone(&l));
            logs.push(l);
        }
        let mut seen = Vec::new();
        let n = arena.reclaim_until(30, |l| seen.push(l.row.raw()));
        assert_eq!(n, 3, "cts 5,15,25 < 30 are reclaimable");
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.last_reclaimed_cts(), 25);
        assert!(!logs[0].is_valid());
        assert!(logs[3].is_valid());
    }

    #[test]
    fn arena_stops_at_inflight_logs() {
        let arena = UndoArena::new();
        let w = handle(1);
        arena.push(log(0, &w, None)); // never committed
        let n = arena.reclaim_until(u64::MAX >> 2, |_| {});
        assert_eq!(n, 0);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn aborted_logs_are_skipped_without_callback() {
        let arena = UndoArena::new();
        let w = handle(1);
        let l = log(0, &w, None);
        l.invalidate(); // abort path
        arena.push(l);
        let mut called = 0;
        let n = arena.reclaim_until(0, |_| called += 1);
        assert_eq!((n, called), (1, 0));
        assert!(arena.is_empty());
    }

    #[test]
    fn invalidate_breaks_the_chain() {
        let w1 = handle(1);
        let old = log(1, &w1, None);
        old.stamp_commit(2);
        let w2 = handle(3);
        let new = log(1, &w2, Some(Arc::clone(&old)));
        assert!(new.next_version().is_some());
        new.invalidate();
        assert!(new.next_version().is_none());
    }
}
