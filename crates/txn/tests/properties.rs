//! Property-based tests of the MVCC invariants: Algorithm 1 must agree
//! with a straightforward "apply history by timestamps" oracle for any
//! committed version chain, and the clock/snapshot algebra must hold.

use phoebe_common::ids::{RowId, TableId, Xid};
use phoebe_storage::schema::Value;
use phoebe_txn::locks::{TxnHandle, TxnOutcome};
use phoebe_txn::visibility::{check_visibility, VisibleVersion};
use phoebe_txn::{Snapshot, TwinRegistry, UndoLog, UndoOp};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a committed version history: write k (at cts ctss[k]) changes the
/// value from k to k+1, so each UNDO log's before image is k. Returns the
/// chain head, the commit timestamps, and the final (current) value.
fn build_chain(gaps: &[u64]) -> (Arc<UndoLog>, Vec<u64>, i64) {
    let mut prev: Option<Arc<UndoLog>> = None;
    let mut ctss = Vec::new();
    let mut ts = 0u64;
    for (k, gap) in gaps.iter().enumerate() {
        ts += gap + 1;
        let h = TxnHandle::new(Xid::from_start_ts(ts));
        let log = UndoLog::new(
            TableId(1),
            RowId(1),
            RowId(0),
            UndoOp::Update { delta: vec![(0, Value::I64(k as i64))] },
            Arc::clone(&h),
            prev.clone(),
        );
        ts += 1;
        log.stamp_commit(ts);
        h.finish(TxnOutcome::Committed(ts));
        ctss.push(ts);
        prev = Some(log);
    }
    (prev.unwrap(), ctss, gaps.len() as i64)
}

/// Twin-table GC over every registry shard.
fn reclaim_stale(reg: &TwinRegistry, max_frozen_start: u64) -> usize {
    (0..reg.shard_count()).map(|s| reg.reclaim_shard(s, max_frozen_start)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn algorithm1_matches_timestamp_oracle(
        gaps in proptest::collection::vec(0u64..3, 1..12),
        probe in 0u64..60,
    ) {
        let (head, ctss, final_val) = build_chain(&gaps);
        let current = vec![Value::I64(final_val)];
        let reader = Xid::from_start_ts(1_000_000);
        let snap = Snapshot(probe);
        // Oracle: the visible value is the number of commits <= snapshot.
        let expected = ctss.iter().filter(|&&c| c <= probe).count() as i64;
        let got = match check_visibility(&current, Some(&head), reader, snap) {
            VisibleVersion::Current => final_val,
            VisibleVersion::Rebuilt(v) => v[0].as_i64(),
            VisibleVersion::Invisible => -1,
        };
        prop_assert_eq!(got, expected, "ctss={:?} probe={}", ctss, probe);
    }

    #[test]
    fn own_writes_always_visible(gaps in proptest::collection::vec(0u64..3, 1..8)) {
        let (head, _, final_val) = build_chain(&gaps);
        let me = TxnHandle::new(Xid::from_start_ts(500_000));
        let my_log = UndoLog::new(
            TableId(1),
            RowId(1),
            RowId(0),
            UndoOp::Update { delta: vec![(0, Value::I64(final_val))] },
            Arc::clone(&me),
            Some(head),
        );
        let current = vec![Value::I64(999)]; // my in-place write
        let got = check_visibility(&current, Some(&my_log), me.xid, Snapshot(0));
        prop_assert_eq!(got, VisibleVersion::Current);
    }

    #[test]
    fn snapshots_never_see_later_commits(n in 1u64..200) {
        let clock = phoebe_txn::GlobalClock::new();
        for _ in 0..n {
            clock.tick();
        }
        let snap = clock.snapshot();
        let later = clock.commit_ts();
        prop_assert!(!snap.sees(later));
        prop_assert!(snap.sees(later.saturating_sub(2)));
    }

    #[test]
    fn reclaimed_twin_head_never_resurrected(
        rows in proptest::collection::btree_set(0u64..64, 1..8),
        watermark in 10u64..100,
    ) {
        let reg = TwinRegistry::new();
        let key = (TableId(3), RowId(7));
        let tw = reg.get_or_create(key);
        let rows: Vec<u64> = rows.into_iter().collect();
        let mut logs = Vec::new();
        for &r in &rows {
            let h = TxnHandle::new(Xid::from_start_ts(5));
            let log = UndoLog::new(TableId(3), RowId(r), RowId(7), UndoOp::Insert, h, None);
            prop_assert!(tw.set_head(RowId(r), Arc::clone(&log), 5));
            logs.push((r, log));
        }
        // Not reclaimable while entries are live.
        prop_assert_eq!(reclaim_stale(&reg, watermark), 0);
        for (r, log) in &logs {
            tw.clear_if_head(RowId(*r), log);
        }
        prop_assert_eq!(reclaim_stale(&reg, watermark), 1);
        // The dead table refuses new heads forever...
        let h = TxnHandle::new(Xid::from_start_ts(watermark + 1));
        let log = UndoLog::new(TableId(3), RowId(1), RowId(7), UndoOp::Insert, h, None);
        prop_assert!(!tw.set_head(RowId(1), log, watermark + 1));
        // ...and the registry hands out a genuinely fresh table, never the
        // reclaimed Arc, with no leftover chain heads.
        let fresh = reg.get_or_create(key);
        prop_assert!(!Arc::ptr_eq(&tw, &fresh));
        for &r in &rows {
            prop_assert!(fresh.head(RowId(r)).is_none());
        }
    }

    #[test]
    fn arena_reclaim_respects_watermark(
        ctss in proptest::collection::btree_set(1u64..1000, 1..30),
        watermark in 1u64..1000,
    ) {
        let arena = phoebe_txn::UndoArena::new();
        let ctss: Vec<u64> = ctss.into_iter().collect();
        for &cts in &ctss {
            let h = TxnHandle::new(Xid::from_start_ts(cts.saturating_sub(1)));
            let log = UndoLog::new(
                TableId(1), RowId(1), RowId(0), UndoOp::Insert, Arc::clone(&h), None,
            );
            log.stamp_commit(cts);
            h.finish(TxnOutcome::Committed(cts));
            arena.push(log);
        }
        let reclaimed = arena.reclaim_until(watermark, |_| {});
        let expected = ctss.iter().take_while(|&&c| c < watermark).count();
        prop_assert_eq!(reclaimed, expected);
        prop_assert_eq!(arena.len(), ctss.len() - expected);
    }
}

proptest! {
    // Thread-spawning cases: keep the case count low, the schedules random.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Writers attach/verify/detach chain heads on disjoint rows while a
    /// GC thread aggressively reclaims the (periodically empty) table.
    /// Invariants: a successful `set_head` is immediately observable
    /// through the registry for as long as the entry lives, a `set_head`
    /// that lost to reclamation reports failure (never a silent drop), and
    /// no reclaimed table is ever handed out again.
    #[test]
    fn concurrent_twin_attach_lookup_reclaim_integrity(
        iters in 10usize..40,
        writer_threads in 2usize..4,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};

        let reg = Arc::new(TwinRegistry::new());
        let key = (TableId(9), RowId(0));
        let stop = Arc::new(AtomicBool::new(false));

        let gc = {
            let (reg, stop) = (Arc::clone(&reg), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut dead = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let seen = reg.get(key);
                    if reclaim_stale(&reg, u64::MAX) > 0 {
                        // The table we saw just before is the one retired.
                        if let Some(t) = seen {
                            dead.push(t);
                        }
                    }
                    std::thread::yield_now();
                }
                dead
            })
        };

        let writers: Vec<_> = (0..writer_threads)
            .map(|w| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..iters {
                        let row = RowId((w * 1000 + i) as u64);
                        let mut attempts = 0;
                        loop {
                            attempts += 1;
                            assert!(attempts < 100_000, "livelock attaching a chain head");
                            let tw = reg.get_or_create(key);
                            let h = TxnHandle::new(Xid::from_start_ts(1));
                            let log = UndoLog::new(
                                TableId(9), row, RowId(0), UndoOp::Insert, h, None,
                            );
                            if !tw.set_head(row, Arc::clone(&log), 1) {
                                continue; // lost to reclamation: retry, never drop
                            }
                            // While our entry lives the table cannot retire,
                            // so the registry must surface exactly our head.
                            let seen = reg
                                .get(key)
                                .expect("live entry pins the table in the registry")
                                .head(row)
                                .expect("attached head must be visible");
                            assert!(Arc::ptr_eq(&seen, &log), "chain head corrupted");
                            tw.clear_if_head(row, &log);
                            break;
                        }
                    }
                })
            })
            .collect();
        for wtr in writers {
            wtr.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let dead = gc.join().unwrap();

        // No resurrection: every retired table stays dead and unreachable.
        let current = reg.get_or_create(key);
        for d in &dead {
            prop_assert!(!Arc::ptr_eq(d, &current), "reclaimed table resurfaced");
            let h = TxnHandle::new(Xid::from_start_ts(2));
            let log = UndoLog::new(TableId(9), RowId(1), RowId(0), UndoOp::Insert, h, None);
            prop_assert!(!d.set_head(RowId(1), log, 2), "dead table accepted a head");
        }
    }
}
