//! Decentralized lock management (§7.2).
//!
//! Traditional engines keep object locks in one global hash table — a
//! contention hotspot the paper singles out. PhoebeDB decentralizes its
//! lock kinds:
//!
//! * **Transaction-ID lock** ([`TxnHandle`]): a transaction implicitly
//!   holds the exclusive lock on its own XID from start to finish. A
//!   conflicting writer takes a "shared lock" by awaiting the handle, which
//!   it finds through the version chain it collided with — no lookup table.
//!   All waiters are released simultaneously when the owner finishes,
//!   matching the paper's remark (1)/(2).
//! * **Tuple lock** ([`TupleLockSlot`]): each active transaction holds at
//!   most one tuple lock at a time; the slot object lives in the co-routine
//!   task slot and is reused across transactions.
//!
//! The paper's third kind, the table lock stored with the relation, has no
//! caller yet: nothing in the kernel reorganizes a table under concurrent
//! DML. It comes back with its first caller.

use crate::clock::Snapshot;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::ids::{RowId, TableId, Timestamp, Xid};
use phoebe_runtime::Notify;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PostgreSQL-compatible snapshot isolation levels (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Snapshot re-acquired before every statement; writers re-read the
    /// latest committed version after waiting.
    ReadCommitted,
    /// One snapshot for the whole transaction; a write-write conflict with
    /// a committed newer version aborts (first-updater-wins).
    RepeatableRead,
}

/// How a transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    Committed(Timestamp),
    Aborted,
}

const STATE_RUNNING: u64 = 0;
const STATE_COMMITTED: u64 = 1 << 62;
const STATE_ABORTED: u64 = 2 << 62;
const STATE_MASK: u64 = 3 << 62;

/// The transaction-ID lock: created when a transaction starts (the implicit
/// exclusive lock on its own XID) and resolved exactly once at commit or
/// abort. Waiters await it through [`TxnHandle::wait`].
///
/// The handle also publishes the commit timestamp *atomically with* the
/// committed state, so a reader that catches a version whose `ets` still
/// holds the writer's XID mid-commit can learn the cts and apply normal
/// visibility rules instead of spuriously treating the version as
/// uncommitted.
pub struct TxnHandle {
    pub xid: Xid,
    /// `STATE_* | cts` packed into one word (cts only for committed).
    state: AtomicU64,
    notify: Notify,
}

impl TxnHandle {
    pub fn new(xid: Xid) -> Arc<Self> {
        Arc::new(TxnHandle { xid, state: AtomicU64::new(STATE_RUNNING), notify: Notify::new() })
    }

    /// Resolve the lock: record the outcome and wake every shared waiter
    /// simultaneously (paper remark 2).
    pub fn finish(&self, outcome: TxnOutcome) {
        let packed = match outcome {
            TxnOutcome::Committed(cts) => STATE_COMMITTED | cts,
            TxnOutcome::Aborted => STATE_ABORTED,
        };
        let prev = self.state.swap(packed, Ordering::AcqRel);
        debug_assert_eq!(prev & STATE_MASK, STATE_RUNNING, "transaction finished twice");
        self.notify.notify_all();
    }

    /// The outcome, if resolved.
    #[inline]
    pub fn outcome(&self) -> Option<TxnOutcome> {
        let s = self.state.load(Ordering::Acquire);
        match s & STATE_MASK {
            STATE_RUNNING => None,
            STATE_COMMITTED => Some(TxnOutcome::Committed(s & !STATE_MASK)),
            _ => Some(TxnOutcome::Aborted),
        }
    }

    /// True once the version this transaction wrote is committed and inside
    /// `snapshot` — the mid-commit visibility fix described above.
    pub fn committed_within(&self, snapshot: Snapshot) -> bool {
        matches!(self.outcome(), Some(TxnOutcome::Committed(cts)) if snapshot.sees(cts))
    }

    /// Acquire a shared lock on this transaction's ID: sleep until
    /// [`TxnHandle::finish`] wakes it, or until the timer fires `timeout`
    /// later. The sleeping waiter is not polled, and it leaves the
    /// worker's pull loop open (§7.1).
    pub async fn wait(&self, timeout: Duration) -> Result<TxnOutcome> {
        self.notify
            .wait_until(|| self.outcome(), Some(Instant::now() + timeout))
            .await
            .ok_or(PhoebeError::LockTimeout { waiting_for: self.xid })
    }
}

/// The per-task-slot tuple lock (§7.2): "each active transaction holds at
/// most one tuple lock at a time ... managed in co-routine task slots" and
/// "released immediately after operations". Holding is tracked here; the
/// mutual exclusion itself is enforced by the leaf latch + `ets` handshake.
#[derive(Default)]
pub struct TupleLockSlot {
    /// Packed (table, row) currently claimed; 0 = free.
    claim: AtomicU64,
    grants: AtomicU64,
}

impl TupleLockSlot {
    fn pack(table: TableId, row: RowId) -> u64 {
        ((table.raw() as u64) << 40) | (row.raw() & ((1 << 40) - 1)) | (1 << 63)
    }

    /// Claim the slot for `(table, row)`; the previous claim (if any) is
    /// implicitly released — at most one tuple lock per transaction.
    pub fn claim(&self, table: TableId, row: RowId) {
        self.claim.store(Self::pack(table, row), Ordering::Release);
        // ORDERING: statistic counter; the claim itself publishes via the
        // release store above.
        self.grants.fetch_add(1, Ordering::Relaxed);
    }

    /// Release after the operation completes.
    pub fn release(&self) {
        self.claim.store(0, Ordering::Release);
    }

    pub fn is_held(&self) -> bool {
        self.claim.load(Ordering::Acquire) != 0
    }

    /// Total grants through this slot (reuse across transactions).
    pub fn grant_count(&self) -> u64 {
        // ORDERING: diagnostic read of a monotonic statistic.
        self.grants.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoebe_runtime::block_on;

    #[test]
    fn handle_resolves_once_with_outcome() {
        let h = TxnHandle::new(Xid::from_start_ts(5));
        assert_eq!(h.outcome(), None);
        h.finish(TxnOutcome::Committed(9));
        assert_eq!(h.outcome(), Some(TxnOutcome::Committed(9)));
        assert!(h.committed_within(Snapshot(9)));
        assert!(!h.committed_within(Snapshot(8)));
    }

    #[test]
    fn aborted_handle_is_never_visible() {
        let h = TxnHandle::new(Xid::from_start_ts(5));
        h.finish(TxnOutcome::Aborted);
        assert_eq!(h.outcome(), Some(TxnOutcome::Aborted));
        assert!(!h.committed_within(Snapshot(u64::MAX >> 2)));
    }

    #[test]
    fn wait_returns_immediately_when_resolved() {
        let h = TxnHandle::new(Xid::from_start_ts(1));
        h.finish(TxnOutcome::Committed(2));
        let o = block_on(h.wait(Duration::from_millis(10))).unwrap();
        assert_eq!(o, TxnOutcome::Committed(2));
    }

    #[test]
    fn wait_blocks_until_finish_and_wakes_all() {
        let h = TxnHandle::new(Xid::from_start_ts(1));
        let h2 = Arc::clone(&h);
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || block_on(h.wait(Duration::from_secs(5))).unwrap())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        h2.finish(TxnOutcome::Aborted);
        for w in waiters {
            assert_eq!(w.join().unwrap(), TxnOutcome::Aborted);
        }
    }

    #[test]
    fn wait_times_out_on_stuck_transaction() {
        let h = TxnHandle::new(Xid::from_start_ts(1));
        let err = block_on(h.wait(Duration::from_millis(30))).unwrap_err();
        assert!(matches!(err, PhoebeError::LockTimeout { .. }));
        assert!(err.is_retryable());
    }

    /// The timeout is the timer's wake, not a re-poll: one worker whose
    /// other slot yields in a loop never idles, yet the sleeping waiter
    /// still times out on schedule.
    #[test]
    fn wait_times_out_under_busy_sibling_slots() {
        let rt = phoebe_runtime::Runtime::with_shape(1, 2);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let busy = {
            let stop = Arc::clone(&stop);
            rt.spawn(async move {
                while !stop.load(Ordering::Acquire) {
                    phoebe_runtime::yield_now(phoebe_runtime::Urgency::Low).await;
                }
            })
        };
        let h = TxnHandle::new(Xid::from_start_ts(1));
        let t0 = Instant::now();
        let waited = rt.spawn(async move { h.wait(Duration::from_millis(20)).await }).join();
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Release);
        busy.join();
        assert!(matches!(waited, Err(PhoebeError::LockTimeout { .. })));
        assert!(elapsed >= Duration::from_millis(15), "timed out early: {elapsed:?}");
        assert!(elapsed < Duration::from_secs(5), "timeout starved: {elapsed:?}");
        rt.shutdown();
    }

    #[test]
    fn tuple_lock_slot_claims_and_reuses() {
        let s = TupleLockSlot::default();
        assert!(!s.is_held());
        s.claim(TableId(1), RowId(10));
        assert!(s.is_held());
        s.release();
        assert!(!s.is_held());
        s.claim(TableId(2), RowId(20));
        s.release();
        assert_eq!(s.grant_count(), 2);
    }
}
