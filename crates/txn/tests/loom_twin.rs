//! Loom models for the twin-table clean-read fast path and GC races
//! (`phoebe_txn::twin`).
//!
//! Run with `scripts/loom.sh` or
//! `RUSTFLAGS="--cfg loom" cargo test -p phoebe-txn --test loom_twin`.
//!
//! Under `cfg(loom)` the shard constants shrink (2 registry shards, 2
//! entry shards) so exhaustive schedule enumeration stays tractable; the
//! protocols under test are shard-count-independent.
#![cfg(loom)]

use loom::sync::Arc;
use phoebe_common::ids::{RowId, TableId, Xid};
use phoebe_txn::{TwinRegistry, TxnHandle, UndoLog, UndoOp};

fn mklog(row: u64, ts: u64) -> Arc<UndoLog> {
    UndoLog::new(
        TableId(1),
        RowId(row),
        RowId(0),
        UndoOp::Insert,
        TxnHandle::new(Xid::from_start_ts(ts)),
        None,
    )
}

/// The clean-read fast path (bloom summary, no lock) racing a first
/// attach: the reader sees either "definitely absent" or the fully
/// installed head — never a summary bit without a reachable entry.
#[test]
fn clean_read_vs_first_attach() {
    loom::model(|| {
        let reg = TwinRegistry::new();
        let table = reg.get_or_create((TableId(1), RowId(0)));
        let log = mklog(0, 5);
        let writer = {
            let table = Arc::clone(&table);
            let log = Arc::clone(&log);
            loom::thread::spawn(move || {
                assert!(table.set_head(RowId(0), log, 5), "live table must accept");
            })
        };
        match table.head(RowId(0)) {
            None => {} // raced ahead of the attach: a clean read, correct
            Some(h) => assert!(Arc::ptr_eq(&h, &log), "reader saw a foreign head"),
        }
        writer.join().unwrap();
        assert!(table.head(RowId(0)).is_some(), "attach must be visible after join");
    });
}

/// Twin-table GC racing a writer: either the write lands and the table
/// survives reclamation, or reclamation wins and the writer is told to
/// retry — never both (no write into a resurrected/dead table) and never
/// neither (no lost write).
#[test]
fn set_head_vs_reclaim_never_loses_a_write() {
    loom::model(|| {
        let reg = Arc::new(TwinRegistry::new());
        let key = (TableId(1), RowId(0));
        let table = reg.get_or_create(key);
        let log = mklog(0, 5);
        let writer = {
            let log = Arc::clone(&log);
            loom::thread::spawn(move || table.set_head(RowId(0), log, 5))
        };
        let reclaimed: usize = (0..reg.shard_count()).map(|s| reg.reclaim_shard(s, 10)).sum();
        let installed = writer.join().unwrap();
        if installed {
            assert_eq!(reclaimed, 0, "a table with an installed head must not be reclaimed");
            let t = reg.get(key).expect("installed head must stay reachable");
            assert!(t.head(RowId(0)).is_some(), "installed head vanished");
        } else {
            assert_eq!(reclaimed, 1, "set_head may only fail on a reclaimed table");
            assert!(reg.get(key).is_none(), "dead table must be unregistered");
            // The prescribed retry path: a fresh table accepts the write.
            assert!(reg.get_or_create(key).set_head(RowId(0), log, 5));
        }
    });
}

/// The drain-time summary reset racing an attach of a *different* row in
/// the same entry shard: the reset may leave a spurious 1 for the removed
/// row but must never produce a spurious 0 for the surviving one.
#[test]
fn summary_reset_vs_attach_in_same_shard() {
    loom::model(|| {
        let reg = TwinRegistry::new();
        let table = reg.get_or_create((TableId(1), RowId(0)));
        let log0 = mklog(0, 1);
        assert!(table.set_head(RowId(0), Arc::clone(&log0), 1));
        // Rows 0 and 2 land in the same shard for any power-of-two shard
        // count >= 2.
        let log2 = mklog(2, 2);
        let writer = {
            let table = Arc::clone(&table);
            let log2 = Arc::clone(&log2);
            loom::thread::spawn(move || {
                assert!(table.set_head(RowId(2), log2, 2), "live table must accept");
            })
        };
        table.clear_if_head(RowId(0), &log0);
        writer.join().unwrap();
        assert!(table.head(RowId(0)).is_none(), "cleared head resurfaced");
        let h = table.head(RowId(2)).expect("surviving row lost to the summary reset");
        assert!(Arc::ptr_eq(&h, &log2));
    });
}
