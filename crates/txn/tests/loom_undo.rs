//! Loom model for queue-like UNDO reclamation with several collectors on
//! one arena (`phoebe_txn::undo`): a worker's GC tick and a full
//! `collect_all` (the freeze path) may reclaim the same arena at once.
//!
//! Run with `scripts/loom.sh` or
//! `RUSTFLAGS="--cfg loom" cargo test -p phoebe-txn --test loom_undo`.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use phoebe_common::ids::{RowId, TableId, Xid};
use phoebe_txn::{TxnHandle, TxnOutcome, UndoArena, UndoLog, UndoOp};

/// A committed log for `row` (commit timestamp `row + 1`).
fn committed(row: u64) -> Arc<UndoLog> {
    let writer = TxnHandle::new(Xid::from_start_ts(row));
    let log =
        UndoLog::new(TableId(1), RowId(row), RowId(0), UndoOp::Insert, Arc::clone(&writer), None);
    log.stamp_commit(row + 1);
    writer.finish(TxnOutcome::Committed(row + 1));
    log
}

/// Two collectors and one pusher on one arena: every log is reclaimed —
/// handed to the callback — exactly once. A collector that popped the
/// front after a rival already took the log it examined would pop the next
/// log unchecked (never reclaimed); two collectors that both examined the
/// same front would reclaim it twice.
#[test]
fn two_collectors_and_a_pusher_reclaim_each_log_once() {
    loom::model(|| {
        const LOGS: usize = 3;
        let arena = Arc::new(UndoArena::new());
        let seen: Arc<[AtomicUsize; LOGS]> = Arc::new(std::array::from_fn(|_| AtomicUsize::new(0)));
        arena.push(committed(0));
        arena.push(committed(1));
        let collector = || {
            let (arena, seen) = (Arc::clone(&arena), Arc::clone(&seen));
            loom::thread::spawn(move || {
                arena.reclaim_until(100, |log| {
                    seen[log.row.raw() as usize].fetch_add(1, Ordering::SeqCst);
                })
            })
        };
        let (a, b) = (collector(), collector());
        let pusher = {
            let arena = Arc::clone(&arena);
            loom::thread::spawn(move || arena.push(committed(2)))
        };
        let mut reclaimed = a.join().unwrap() + b.join().unwrap();
        pusher.join().unwrap();
        // Whatever the pusher appended after both collectors finished.
        reclaimed += arena.reclaim_until(100, |log| {
            seen[log.row.raw() as usize].fetch_add(1, Ordering::SeqCst);
        });
        assert!(arena.is_empty(), "a log was left behind");
        assert_eq!(reclaimed, LOGS, "pops must match logs");
        for (row, n) in seen.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "log {row} reclaimed {n:?} times");
        }
    });
}
