//! Kernel-level integration tests: the full MVCC transaction path over the
//! tiered storage engine, exercised both from external threads and from
//! co-routines in the pool.

use phoebe_common::ids::RowId;
use phoebe_core::prelude::*;
use phoebe_runtime::block_on;
use std::sync::Arc;

fn open_db() -> Arc<Database> {
    Database::open(KernelConfig::for_tests()).unwrap()
}

fn accounts_schema() -> Schema {
    Schema::new(vec![("id", ColType::I64), ("owner", ColType::Str(16)), ("balance", ColType::I64)])
}

fn make_accounts(db: &Arc<Database>) -> Arc<TableEntry> {
    let t = db.create_table("accounts", accounts_schema()).unwrap();
    db.create_index(&t, "accounts_pk", vec![0], true).unwrap();
    t
}

fn row(id: i64, owner: &str, balance: i64) -> Vec<Value> {
    vec![Value::I64(id), Value::Str(owner.into()), Value::I64(balance)]
}

#[test]
fn insert_commit_read_roundtrip() {
    let db = open_db();
    let t = make_accounts(&db);
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let got = tx.read(&t, rid).unwrap().unwrap();
    assert_eq!(got, row(1, "alice", 100));
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

/// After shutdown no WAL round runs again: a durable commit from an
/// external slot must fail with a non-retryable error instead of parking
/// forever. The commit runs on its own thread behind a bounded receive,
/// so a hang fails the test rather than stalling the suite.
#[test]
fn commit_after_shutdown_errors_instead_of_hanging() {
    let db = open_db();
    let t = make_accounts(&db);
    db.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    let (db2, t2) = (Arc::clone(&db), Arc::clone(&t));
    std::thread::spawn(move || {
        let result = block_on(async {
            let mut txn = db2.begin(IsolationLevel::ReadCommitted);
            txn.insert(&t2, row(1, "alice", 100)).await?;
            txn.commit().await
        });
        let _ = tx.send(result);
    });
    let result = rx.recv_timeout(std::time::Duration::from_secs(10));
    let err = result.expect("commit after shutdown hung").unwrap_err();
    assert!(matches!(err, PhoebeError::WalClosed), "got {err:?}");
    assert!(!err.is_retryable());
}

#[test]
fn uncommitted_writes_are_invisible_and_own_writes_visible() {
    let db = open_db();
    let t = make_accounts(&db);
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    block_on(async {
        let mut writer = db.begin(IsolationLevel::ReadCommitted);
        writer.update(&t, rid, &[(2, Value::I64(999))]).await.unwrap();
        // Writer sees its own write.
        assert_eq!(writer.read(&t, rid).unwrap().unwrap()[2], Value::I64(999));
        // A fresh reader still sees the committed version.
        let mut reader = db.begin(IsolationLevel::ReadCommitted);
        assert_eq!(reader.read(&t, rid).unwrap().unwrap()[2], Value::I64(100));
        reader.commit().await.unwrap();
        writer.commit().await.unwrap();
        // Now it is visible.
        let mut reader2 = db.begin(IsolationLevel::ReadCommitted);
        assert_eq!(reader2.read(&t, rid).unwrap().unwrap()[2], Value::I64(999));
        reader2.commit().await.unwrap();
    });
    db.shutdown();
}

#[test]
fn repeatable_read_keeps_its_snapshot_read_committed_refreshes() {
    let db = open_db();
    let t = make_accounts(&db);
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    block_on(async {
        let mut rr = db.begin(IsolationLevel::RepeatableRead);
        let mut rc = db.begin(IsolationLevel::ReadCommitted);
        assert_eq!(rr.read(&t, rid).unwrap().unwrap()[2], Value::I64(100));
        assert_eq!(rc.read(&t, rid).unwrap().unwrap()[2], Value::I64(100));
        // A third transaction bumps the balance and commits.
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update(&t, rid, &[(2, Value::I64(150))]).await.unwrap();
        w.commit().await.unwrap();
        // RR still sees the old version; RC sees the new one.
        assert_eq!(rr.read(&t, rid).unwrap().unwrap()[2], Value::I64(100));
        assert_eq!(rc.read(&t, rid).unwrap().unwrap()[2], Value::I64(150));
        rr.commit().await.unwrap();
        rc.commit().await.unwrap();
    });
    db.shutdown();
}

#[test]
fn abort_rolls_back_updates_inserts_and_index_entries() {
    let db = open_db();
    let t = make_accounts(&db);
    let pk = t.index("accounts_pk").unwrap();
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.update(&t, rid, &[(2, Value::I64(0))]).await.unwrap();
        let rid2 = tx.insert(&t, row(2, "bob", 50)).await.unwrap();
        assert!(tx.read(&t, rid2).unwrap().is_some());
        tx.abort();
        let mut check = db.begin(IsolationLevel::ReadCommitted);
        assert_eq!(check.read(&t, rid).unwrap().unwrap()[2], Value::I64(100));
        assert!(check.read(&t, rid2).unwrap().is_none(), "inserted row gone");
        assert!(
            check.lookup_unique(&t, &pk, &[Value::I64(2)]).unwrap().is_none(),
            "index entry rolled back"
        );
        check.commit().await.unwrap();
    });
    db.shutdown();
}

#[test]
fn delete_hides_row_then_gc_removes_it_physically() {
    let db = open_db();
    let t = make_accounts(&db);
    let pk = t.index("accounts_pk").unwrap();
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(7, "gone", 1)).await.unwrap();
        tx.commit().await.unwrap();
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.delete(&t, rid).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert!(check.read(&t, rid).unwrap().is_none());
    block_on(check.commit()).unwrap();
    // GC: the deletion is globally visible, so the tuple and its index
    // entry are physically removed.
    let stats = db.collect_all();
    assert!(stats.tuples_deleted >= 1, "GC must remove the deleted tuple");
    let visible = t.tree.table_read(rid, |_, _, _, _| ()).unwrap();
    assert!(visible.is_none(), "tuple physically gone from the leaf");
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert!(check.lookup_unique(&t, &pk, &[Value::I64(7)]).unwrap().is_none());
    block_on(check.commit()).unwrap();
    db.shutdown();
}

#[test]
fn unique_index_rejects_duplicates_atomically() {
    let db = open_db();
    let t = make_accounts(&db);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let err = tx.insert(&t, row(1, "impostor", 0)).await.unwrap_err();
        assert!(matches!(err, phoebe_common::PhoebeError::DuplicateKey { .. }));
        tx.abort();
    });
    db.shutdown();
}

#[test]
fn write_write_conflict_aborts_repeatable_read() {
    let db = open_db();
    let t = make_accounts(&db);
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    block_on(async {
        // RR transaction takes its snapshot now.
        let mut rr = db.begin(IsolationLevel::RepeatableRead);
        let _ = rr.read(&t, rid).unwrap();
        // A second transaction updates and commits.
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update(&t, rid, &[(2, Value::I64(1))]).await.unwrap();
        w.commit().await.unwrap();
        // The RR write must fail with a write conflict.
        let err = rr.update(&t, rid, &[(2, Value::I64(2))]).await.unwrap_err();
        assert!(err.is_retryable());
        rr.abort();
    });
    db.shutdown();
}

#[test]
fn read_committed_waits_and_retries_against_inflight_writer() {
    let db = open_db();
    let t = make_accounts(&db);
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    // Writer A holds the tuple from an external thread; writer B (in a
    // second thread) must wait until A commits, then apply on top.
    let db_a = db.clone();
    let t_a = t.clone();
    let a = std::thread::spawn(move || {
        block_on(async {
            let mut tx = db_a.begin(IsolationLevel::ReadCommitted);
            tx.update(&t_a, rid, &[(2, Value::I64(200))]).await.unwrap();
            std::thread::sleep(std::time::Duration::from_millis(100));
            tx.commit().await.unwrap();
        });
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    let db_b = db.clone();
    let t_b = t.clone();
    let b = std::thread::spawn(move || {
        block_on(async {
            let mut tx = db_b.begin(IsolationLevel::ReadCommitted);
            tx.update(&t_b, rid, &[(2, Value::I64(300))]).await.unwrap();
            tx.commit().await.unwrap();
        });
    });
    a.join().unwrap();
    b.join().unwrap();
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(check.read(&t, rid).unwrap().unwrap()[2], Value::I64(300));
    block_on(check.commit()).unwrap();
    db.shutdown();
}

/// A lock wait sleeps: on one worker, a writer that collides with a holder
/// pausing 50 ms before its commit is polled when it collides, when the
/// holder's commit wakes it, and around its own commit — not once per
/// scheduling round for as long as the holder takes.
#[test]
fn lock_waiter_is_not_polled_while_the_holder_runs() {
    let cfg = KernelConfig::builder()
        .workers(1)
        .slots_per_worker(4)
        .data_dir(KernelConfig::for_tests().data_dir)
        .build()
        .unwrap();
    let db = Database::open(cfg).unwrap();
    let t = make_accounts(&db);
    let rid = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        rid
    });
    let rt = db.runtime();
    let (updated, holds) = std::sync::mpsc::channel();
    let holder = {
        let (db, t) = (db.clone(), t.clone());
        rt.spawn(async move {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            tx.update(&t, rid, &[(2, Value::I64(200))]).await.unwrap();
            updated.send(()).unwrap();
            phoebe_runtime::sleep(std::time::Duration::from_millis(50)).await;
            tx.commit().await.unwrap();
        })
    };
    holds.recv().unwrap();
    let polls_before = rt.stats().polls;
    let waiter = {
        let (db, t) = (db.clone(), t.clone());
        rt.spawn(async move {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            tx.update(&t, rid, &[(2, Value::I64(300))]).await.unwrap();
            tx.commit().await.unwrap();
        })
    };
    holder.join();
    waiter.join();
    let polls = rt.stats().polls - polls_before;
    assert!(polls <= 16, "{polls} polls for one lock wait and two commits");
    let mut check = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(check.read(&t, rid).unwrap().unwrap()[2], Value::I64(300));
    block_on(check.commit()).unwrap();
    db.shutdown();
}

#[test]
fn concurrent_transfers_preserve_total_balance() {
    let db = open_db();
    let t = make_accounts(&db);
    const ACCOUNTS: i64 = 10;
    const PER: i64 = 1_000;
    let rids: Vec<_> = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let mut rids = Vec::new();
        for i in 0..ACCOUNTS {
            rids.push(tx.insert(&t, row(i, "acct", PER)).await.unwrap());
        }
        tx.commit().await.unwrap();
        rids
    });
    let rt = db.runtime();
    let handles: Vec<_> = (0..64u64)
        .map(|i| {
            let db = db.clone();
            let t = t.clone();
            let rids = rids.clone();
            rt.spawn(async move {
                let from = rids[(i % ACCOUNTS as u64) as usize];
                let to = rids[((i + 3) % ACCOUNTS as u64) as usize];
                if from == to {
                    return;
                }
                loop {
                    // Atomic read-modify-write: precomputing the new
                    // balance from a separate read would lose updates
                    // under read committed (two writers reading the same
                    // base) — the reason update_rmw exists.
                    let mut tx = db.begin(IsolationLevel::ReadCommitted);
                    let r1 = tx
                        .update_rmw(&t, from, &|cur| vec![(2, Value::I64(cur[2].as_i64() - 1))])
                        .await;
                    let r2 = tx
                        .update_rmw(&t, to, &|cur| vec![(2, Value::I64(cur[2].as_i64() + 1))])
                        .await;
                    match (r1, r2) {
                        (Ok(_), Ok(_)) => {
                            tx.commit().await.unwrap();
                            return;
                        }
                        _ => {
                            tx.abort();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let total: i64 = block_on(async {
        let mut tx = db.begin(IsolationLevel::RepeatableRead);
        let mut sum = 0;
        for rid in &rids {
            sum += tx.read(&t, *rid).unwrap().unwrap()[2].as_i64();
        }
        tx.commit().await.unwrap();
        sum
    });
    assert_eq!(total, ACCOUNTS * PER, "money must be conserved");
    db.shutdown();
}

#[test]
fn index_scans_respect_visibility() {
    let db = open_db();
    let t = db
        .create_table(
            "orders",
            Schema::new(vec![("customer", ColType::I32), ("amount", ColType::I64)]),
        )
        .unwrap();
    let by_cust = db.create_index(&t, "orders_by_customer", vec![0], false).unwrap();
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..20 {
            tx.insert(&t, vec![Value::I32(i % 4), Value::I64(i as i64)]).await.unwrap();
        }
        tx.commit().await.unwrap();
        // An uncommitted insert for customer 1 must not appear to others.
        let mut pending = db.begin(IsolationLevel::ReadCommitted);
        pending.insert(&t, vec![Value::I32(1), Value::I64(999)]).await.unwrap();
        let mut reader = db.begin(IsolationLevel::ReadCommitted);
        let rows = reader.scan_index(&t, &by_cust, &[Value::I32(1)], 100).unwrap();
        assert_eq!(rows.len(), 5, "customers 1 has 5 committed orders");
        assert!(rows.iter().all(|(_, r)| r[0] == Value::I32(1)));
        reader.commit().await.unwrap();
        pending.abort();
    });
    db.shutdown();
}

#[test]
fn freeze_then_read_from_block_store_then_warm() {
    let mut cfg = KernelConfig::for_tests();
    cfg.freeze_access_threshold = u64::MAX; // everything qualifies as cold
    cfg.freeze_batch_pages = 4;
    cfg.warm_read_threshold = 3;
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("events", Schema::new(vec![("v", ColType::I64)])).unwrap();
    // Enough rows to fill several leaves.
    let n: usize = 4000;
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..n {
            tx.insert(&t, vec![Value::I64(i as i64)]).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    let stats = db.freeze_table(&t).unwrap();
    assert!(stats.rows_frozen > 0, "cold full leaves must freeze");
    assert!(stats.new_watermark > 0);
    // Reads of frozen rows come from the Data Block File and stay correct.
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let frozen_rid = phoebe_common::ids::RowId(1);
    assert_eq!(tx.read(&t, frozen_rid).unwrap().unwrap()[0], Value::I64(0));
    for _ in 0..5 {
        let _ = tx.read(&t, frozen_rid).unwrap();
    }
    block_on(tx.commit()).unwrap();
    // The block got hot: warming moves rows back with fresh row ids.
    let warm = db.warm_table(&t).unwrap();
    assert!(warm.blocks_warmed >= 1);
    assert!(warm.rows_warmed > 0);
    // Old row id now resolves to nothing; data lives under new ids.
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    assert!(tx.read(&t, frozen_rid).unwrap().is_none());
    block_on(tx.commit()).unwrap();
    let count = db.approximate_row_count(&t).unwrap();
    assert_eq!(count, n, "no rows lost across freeze/warm");
    db.shutdown();
}

/// The Data Block File is created through the kernel's fault layer: a
/// block write that fails fails the freeze, moves no watermark and drains
/// no hot row.
#[test]
fn failed_block_write_fails_the_freeze_and_keeps_every_row() {
    let mut cfg = KernelConfig::for_tests();
    cfg.freeze_access_threshold = u64::MAX;
    cfg.freeze_batch_pages = 4;
    cfg.fault = Some(phoebe_common::fault::FaultConfig::crash_only(13));
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("events", Schema::new(vec![("v", ColType::I64)])).unwrap();
    let n = 4000u64;
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..n {
            tx.insert(&t, vec![Value::I64(i as i64)]).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    let watermark = t.frozen.max_frozen_row_id();
    // Every write from here on fails; the pool holds every page, so reads
    // need no I/O.
    db.fault_sim().expect("fault injection enabled").crash();
    assert!(db.freeze_table(&t).is_err(), "the block write must fail the freeze");
    assert_eq!(t.frozen.max_frozen_row_id(), watermark);
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..n {
        let got = tx.read(&t, RowId(i + 1)).unwrap();
        assert_eq!(got.map(|r| r[0].clone()), Some(Value::I64(i as i64)), "row {}", i + 1);
    }
    tx.abort();
    db.shutdown();
}

#[test]
fn frozen_rows_update_out_of_place() {
    let mut cfg = KernelConfig::for_tests();
    cfg.freeze_access_threshold = u64::MAX;
    cfg.freeze_batch_pages = 2;
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("log", Schema::new(vec![("v", ColType::I64)])).unwrap();
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..2500 {
            tx.insert(&t, vec![Value::I64(i)]).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    let stats = db.freeze_table(&t).unwrap();
    assert!(stats.rows_frozen > 0);
    let old = phoebe_common::ids::RowId(2);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let new_rid = tx.update(&t, old, &[(0, Value::I64(-5))]).await.unwrap();
        assert_ne!(new_rid, old, "frozen update re-inserts hot");
        tx.commit().await.unwrap();
        let mut check = db.begin(IsolationLevel::ReadCommitted);
        assert!(check.read(&t, old).unwrap().is_none(), "tombstoned");
        assert_eq!(check.read(&t, new_rid).unwrap().unwrap()[0], Value::I64(-5));
        check.commit().await.unwrap();
    });
    db.shutdown();
}

#[test]
fn wal_replay_rebuilds_committed_state() {
    let cfg = KernelConfig::for_tests();
    let (rid_keep, rid_dead) = {
        let db = Database::open(cfg.clone()).unwrap();
        let t = make_accounts(&db);
        let out = block_on(async {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            let keep = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
            tx.commit().await.unwrap();
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            tx.update(&t, keep, &[(2, Value::I64(175))]).await.unwrap();
            tx.commit().await.unwrap();
            // This one aborts: must not reappear after replay.
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            let dead = tx.insert(&t, row(2, "ghost", 1)).await.unwrap();
            tx.abort();
            (keep, dead)
        });
        db.shutdown();
        out
    };
    // Restart over the same directory: `Database::open` replays the WAL.
    let db2 = Database::open(cfg).unwrap();
    assert!(db2.recovery_info().txns >= 2);
    let t2 = make_accounts(&db2);
    let mut tx = db2.begin(IsolationLevel::ReadCommitted);
    let got = tx.read(&t2, rid_keep).unwrap().unwrap();
    assert_eq!(got, row(1, "alice", 175), "insert + update replayed");
    assert!(tx.read(&t2, rid_dead).unwrap().is_none(), "aborted txn absent");
    block_on(tx.commit()).unwrap();
    db2.shutdown();
}

#[test]
fn snapshot_acquisition_is_single_timestamp() {
    let db = open_db();
    // O(1) property smoke check: snapshot cost must not grow with the
    // number of (idle) slots; we simply assert the snapshot is the clock's
    // latest issued timestamp.
    let s1 = db.clock.snapshot();
    let _ = db.clock.tick();
    let s2 = db.clock.snapshot();
    assert!(s2 > s1);
    db.shutdown();
}

#[test]
fn metrics_report_commits_and_wal_traffic() {
    let db = open_db();
    let t = make_accounts(&db);
    block_on(async {
        for i in 0..10 {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            tx.insert(&t, row(i, "m", i)).await.unwrap();
            tx.commit().await.unwrap();
        }
    });
    let snap = db.metrics.snapshot();
    use phoebe_common::metrics::Counter;
    assert_eq!(snap.counter(Counter::Commits), 10);
    assert!(snap.counter(Counter::WalBytes) > 0);
    assert_eq!(
        snap.counter(Counter::RemoteFlushWaits),
        10,
        "every durable commit waits on the round"
    );
    db.shutdown();
}

/// `warm_table` re-appends a frozen block's rows under fresh row ids while
/// ordinary inserts append to the same rightmost leaf. The ids must be
/// drawn under that leaf's latch: drawn before it, an insert can draw and
/// append a larger id first, and the warm append then breaks the leaf's
/// ascending order (an assert, under the exclusive latch). The warm pass
/// re-appends thousands of rows against a tight insert loop, so a draw
/// outside the latch loses that race within the first few hundred.
#[test]
fn warm_table_appends_in_order_against_concurrent_inserts() {
    let mut cfg = KernelConfig::for_tests();
    cfg.freeze_access_threshold = u64::MAX; // everything qualifies as cold
    cfg.freeze_batch_pages = 8;
    cfg.warm_read_threshold = 3;
    let db = Database::open(cfg).unwrap();
    let schema = Schema::new(vec![("id", ColType::I64), ("v", ColType::I64)]);
    let t = db.create_table("events", schema).unwrap();
    let pk = db.create_index(&t, "events_pk", vec![0], true).unwrap();
    let frozen: i64 = 6_000;
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..frozen {
            tx.insert(&t, vec![Value::I64(i), Value::I64(-i)]).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    let stats = db.freeze_table(&t).unwrap();
    assert!(stats.rows_frozen > 2_000, "the race needs a long warm pass");
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    for _ in 0..5 {
        assert!(tx.read(&t, phoebe_common::ids::RowId(1)).unwrap().is_some());
    }
    block_on(tx.commit()).unwrap();

    const FIRST_INSERTED: i64 = 1_000_000;
    let start = std::sync::Barrier::new(2);
    let warm_done = std::sync::atomic::AtomicBool::new(false);
    let inserted = std::thread::scope(|s| {
        let inserter = s.spawn(|| {
            let mut next = FIRST_INSERTED;
            start.wait();
            // ORDERING: the flag only ends the loop; the join publishes.
            while !warm_done.load(std::sync::atomic::Ordering::Relaxed) {
                block_on(async {
                    let mut tx = db.begin(IsolationLevel::ReadCommitted);
                    for _ in 0..64 {
                        tx.insert(&t, vec![Value::I64(next), Value::I64(-next)]).await.unwrap();
                        next += 1;
                    }
                    tx.commit().await.unwrap();
                });
            }
            next
        });
        // Stops the inserter when the warm pass is over — also by a panic,
        // which would otherwise leave it filling the disk.
        struct SetOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                // ORDERING: see the load.
                self.0.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let stop = SetOnDrop(&warm_done);
        start.wait();
        let warm = db.warm_table(&t);
        drop(stop);
        assert_eq!(warm.unwrap().rows_warmed, stats.rows_frozen);
        inserter.join().expect("inserter panicked")
    });
    assert!(inserted > FIRST_INSERTED, "the inserter must have run during the warm pass");

    // Every row, warmed or inserted, is found by index and, through the
    // row id the index holds, by id.
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    for id in (0..frozen).chain(FIRST_INSERTED..inserted) {
        let (rid, row) = tx
            .lookup_unique(&t, &pk, &[Value::I64(id)])
            .unwrap()
            .unwrap_or_else(|| panic!("row {id} lost"));
        assert_eq!(row, vec![Value::I64(id), Value::I64(-id)]);
        assert_eq!(tx.read(&t, rid).unwrap().as_ref(), Some(&row));
    }
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

/// Insert `n` accounts from a thread outside the co-routine pool, in
/// several transactions, as a bulk loader does.
fn load_from_external_thread(db: &Arc<Database>, t: &Arc<TableEntry>, n: i64) -> Vec<RowId> {
    let (db, t) = (Arc::clone(db), Arc::clone(t));
    std::thread::spawn(move || {
        block_on(async {
            let mut rids = Vec::new();
            for batch in (0..n).collect::<Vec<_>>().chunks(500) {
                let mut tx = db.begin(IsolationLevel::ReadCommitted);
                for &i in batch {
                    rids.push(tx.insert(&t, row(i, "loaded", i)).await.unwrap());
                }
                tx.commit().await.unwrap();
            }
            rids
        })
    })
    .join()
    .unwrap()
}

/// Run `step` until GC has drained every UNDO arena and retired every
/// twin table, or fail after a bounded wait.
fn until_gc_drains(db: &Arc<Database>, mut step: impl FnMut()) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while db.undo_backlog() > 0 || !db.twins.is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "GC never drained: {} UNDO logs, {} twin tables left",
            db.undo_backlog(),
            db.twins.len()
        );
        step();
    }
}

fn assert_rows_read_back(db: &Arc<Database>, t: &Arc<TableEntry>, rids: &[RowId]) {
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    for (i, rid) in rids.iter().enumerate() {
        assert_eq!(tx.read(t, *rid).unwrap().unwrap(), row(i as i64, "loaded", i as i64));
    }
    block_on(tx.commit()).unwrap();
}

/// Rows bulk-loaded from outside the pool stop costing a twin lookup: the
/// external slot's arena has a collector (a worker), so once pool
/// transactions make that worker's GC due, the load's UNDO is reclaimed and
/// every twin table retires.
#[test]
fn rows_loaded_outside_the_pool_are_collected_by_pool_gc() {
    let db = open_db();
    let t = make_accounts(&db);
    let rids = load_from_external_thread(&db, &t, 3_000);
    assert!(db.undo_backlog() >= 3_000, "the load leaves one UNDO log per row");
    assert!(!db.twins.is_empty(), "loaded pages carry twin tables");
    let rt = db.runtime();
    until_gc_drains(&db, || {
        let handles: Vec<_> = (0..256)
            .map(|_| {
                let db = Arc::clone(&db);
                rt.spawn(async move {
                    let tx = db.begin(IsolationLevel::ReadCommitted);
                    tx.commit().await.unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
    });
    assert_rows_read_back(&db, &t, &rids);
    db.shutdown();
}

/// A kernel used only from external threads collects too: their commits
/// count toward the owning worker's GC duty.
#[test]
fn external_only_use_drains_gc() {
    let db = open_db();
    let t = make_accounts(&db);
    let rids = load_from_external_thread(&db, &t, 3_000);
    assert!(db.undo_backlog() >= 3_000, "the load leaves one UNDO log per row");
    until_gc_drains(&db, || {
        block_on(db.begin(IsolationLevel::ReadCommitted).commit()).unwrap();
    });
    assert_rows_read_back(&db, &t, &rids);
    db.shutdown();
}

/// An update that would change a column an index reads is refused before
/// anything is written: the index would otherwise keep the old key. The
/// refusal releases the tuple lock and leaves the transaction usable.
#[test]
fn update_of_an_indexed_column_is_rejected() {
    let db = open_db();
    let t = make_accounts(&db);
    let pk = t.index("accounts_pk").unwrap();
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let err = tx.update(&t, rid, &[(0, Value::I64(9))]).await.unwrap_err();
        assert!(matches!(err, PhoebeError::SchemaMismatch { .. }), "got {err:?}");
        let err = tx
            .update_rmw(&t, rid, &|cur| vec![(2, Value::I64(0)), (0, cur[0].clone())])
            .await
            .unwrap_err();
        assert!(matches!(err, PhoebeError::SchemaMismatch { .. }), "got {err:?}");
        assert!(!db.tuple_locks[tx.slot()].is_held(), "the refusal released the tuple lock");
        tx.update(&t, rid, &[(2, Value::I64(150))]).await.unwrap();
        tx.commit().await.unwrap();
        let mut check = db.begin(IsolationLevel::ReadCommitted);
        let (found, got) = check.lookup_unique(&t, &pk, &[Value::I64(1)]).unwrap().unwrap();
        assert_eq!((found, got.into_values()), (rid, row(1, "alice", 150)));
        assert!(check.lookup_unique(&t, &pk, &[Value::I64(9)]).unwrap().is_none());
        check.commit().await.unwrap();
    });
    db.shutdown();
}

/// Shut `db` down and open its data directory again: the manifest
/// rebuilds the catalog and the WAL replays into it.
fn reopen(db: Arc<Database>, cfg: &KernelConfig) -> (Arc<Database>, Arc<TableEntry>) {
    db.shutdown();
    drop(db);
    let db = Database::open(cfg.clone()).unwrap();
    let t = db.table("accounts").unwrap();
    (db, t)
}

/// The visible row whose primary key is `id`.
fn lookup_pk(db: &Arc<Database>, t: &Arc<TableEntry>, id: i64) -> Option<Vec<Value>> {
    let pk = t.index("accounts_pk").unwrap();
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let found = tx.lookup_unique(t, &pk, &[Value::I64(id)]).unwrap();
    block_on(tx.commit()).unwrap();
    found.map(|(_, r)| r.into_values())
}

/// A committed transaction that caught a unique violation and went on
/// logged an insert and its compensating delete of the same row; replay
/// must net the pair out instead of re-adding the violating key.
#[test]
fn caught_duplicate_key_survives_reopen() {
    let cfg = KernelConfig::for_tests();
    let db = Database::open(cfg.clone()).unwrap();
    let t = make_accounts(&db);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let err = tx.insert(&t, row(1, "impostor", 0)).await.unwrap_err();
        assert!(matches!(err, PhoebeError::DuplicateKey { .. }), "got {err:?}");
        tx.insert(&t, row(2, "bob", 50)).await.unwrap();
        tx.commit().await.unwrap();
    });
    let (db, t) = reopen(db, &cfg);
    assert_eq!(lookup_pk(&db, &t, 1), Some(row(1, "alice", 100)));
    assert_eq!(lookup_pk(&db, &t, 2), Some(row(2, "bob", 50)));
    db.shutdown();
}

/// A unique key freed by a collected delete and taken again: replay must
/// remove the old row's entry before the new row adds its own.
#[test]
fn key_reinserted_after_gc_survives_reopen() {
    let cfg = KernelConfig::for_tests();
    let db = Database::open(cfg.clone()).unwrap();
    let t = make_accounts(&db);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let rid = tx.insert(&t, row(7, "old", 1)).await.unwrap();
        tx.commit().await.unwrap();
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.delete(&t, rid).await.unwrap();
        tx.commit().await.unwrap();
    });
    assert!(db.collect_all().tuples_deleted >= 1, "GC frees the key");
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.insert(&t, row(7, "new", 2)).await.unwrap();
        tx.commit().await.unwrap();
    });
    let (db, t) = reopen(db, &cfg);
    assert_eq!(lookup_pk(&db, &t, 7), Some(row(7, "new", 2)));
    db.shutdown();
}

/// An insert that the second of two unique indexes rejects leaves no
/// entry in the first and no visible tuple, the transaction still
/// commits, and a reopen reproduces exactly that.
#[test]
fn insert_rejected_by_second_unique_index_leaves_nothing() {
    let cfg = KernelConfig::for_tests();
    let db = Database::open(cfg.clone()).unwrap();
    let t = make_accounts(&db);
    db.create_index(&t, "accounts_owner", vec![1], true).unwrap();
    let rejected = block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.insert(&t, row(1, "alice", 100)).await.unwrap();
        tx.commit().await.unwrap();
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let err = tx.insert(&t, row(2, "alice", 5)).await.unwrap_err();
        assert!(matches!(err, PhoebeError::DuplicateKey { .. }), "got {err:?}");
        // The rejected tuple holds the last row id drawn.
        let rejected = RowId(t.row_id_high_water() - 1);
        assert!(tx.read(&t, rejected).unwrap().is_none());
        tx.commit().await.unwrap();
        rejected
    });
    let check = |db: &Arc<Database>, t: &Arc<TableEntry>| {
        let pk = t.index("accounts_pk").unwrap();
        let owner = t.index("accounts_owner").unwrap();
        let key = pk.prefix_for(&t.schema, &[Value::I64(2)]).unwrap();
        assert_eq!(pk.tree.index_get(&key).unwrap(), None, "no primary-key entry for 2");
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        assert!(tx.read(t, rejected).unwrap().is_none(), "rejected tuple invisible");
        let (_, got) = tx.lookup_unique(t, &owner, &[Value::Str("alice".into())]).unwrap().unwrap();
        assert_eq!(got, row(1, "alice", 100));
        block_on(tx.commit()).unwrap();
        assert_eq!(lookup_pk(db, t, 2), None);
    };
    check(&db, &t);
    let (db, t) = reopen(db, &cfg);
    check(&db, &t);
    db.shutdown();
}

/// Warming moves frozen rows to fresh row ids. The moves are logged, so
/// an update that found a row under its new id survives a reopen instead
/// of replaying onto no row.
#[test]
fn update_of_a_warmed_row_survives_reopen() {
    let mut cfg = KernelConfig::for_tests();
    cfg.freeze_access_threshold = u64::MAX; // everything qualifies as cold
    cfg.freeze_batch_pages = 1;
    cfg.warm_read_threshold = 3;
    let db = Database::open(cfg.clone()).unwrap();
    let schema = Schema::new(vec![("id", ColType::I64), ("v", ColType::I64)]);
    let t = db.create_table("events", schema).unwrap();
    let pk = db.create_index(&t, "events_pk", vec![0], true).unwrap();
    let n: i64 = 4_000;
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..n {
            tx.insert(&t, vec![Value::I64(i), Value::I64(0)]).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    assert!(db.freeze_table(&t).unwrap().rows_frozen > 0);
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    for _ in 0..5 {
        assert!(tx.read(&t, RowId(1)).unwrap().is_some());
    }
    block_on(tx.commit()).unwrap();
    assert!(db.warm_table(&t).unwrap().rows_warmed > 0);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let (rid, _) = tx.lookup_unique(&t, &pk, &[Value::I64(0)]).unwrap().unwrap();
        assert_ne!(rid, RowId(1), "warming moved key 0 to a fresh row id");
        tx.update(&t, rid, &[(1, Value::I64(42))]).await.unwrap();
        tx.commit().await.unwrap();
    });
    db.shutdown();
    drop(db);

    let db = Database::open(cfg).unwrap();
    let t = db.table("events").unwrap();
    let pk = t.index("events_pk").unwrap();
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let (rid, row) = tx.lookup_unique(&t, &pk, &[Value::I64(0)]).unwrap().unwrap();
    assert_eq!(row.into_values(), vec![Value::I64(0), Value::I64(42)], "row id {rid:?}");
    assert!(tx.read(&t, RowId(1)).unwrap().is_none(), "the moved-from row stays gone");
    block_on(tx.commit()).unwrap();
    assert_eq!(db.approximate_row_count(&t).unwrap(), n as usize, "no row lost or doubled");
    db.shutdown();
}

/// Insert one `accounts` row in its own transaction and commit it.
fn commit_row(db: &Arc<Database>, t: &Arc<TableEntry>, id: i64, owner: &str) {
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.insert(t, row(id, owner, id)).await.unwrap();
        tx.commit().await.unwrap();
    });
}

/// Pull the simulated plug on a kernel opened with `cfg.fault` set.
fn crash(db: &Database) {
    db.fault_sim().expect("fault injection enabled").crash();
    db.shutdown();
}

/// The WAL segment files of a data directory, by name.
fn wal_segments(cfg: &KernelConfig) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(cfg.data_dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
        .collect()
}

/// A transaction in flight at a crash leaves its records in the log for
/// good. The clock resumes past its start timestamp, so no later
/// transaction reuses its xid and adopts those records at the next
/// recovery.
#[test]
fn orphaned_records_stay_orphaned_across_reopens() {
    let mut cfg = KernelConfig::for_tests();
    cfg.fault = Some(phoebe_common::fault::FaultConfig::crash_only(11));
    let db = Database::open(cfg.clone()).unwrap();
    let t = make_accounts(&db);
    commit_row(&db, &t, 1, "tx1");
    let mut tx2 = db.begin(IsolationLevel::ReadCommitted);
    block_on(tx2.insert(&t, row(2, "orphan", 2))).unwrap();
    db.wal.flush_all().unwrap();
    crash(&db);
    assert!(block_on(tx2.commit()).is_err(), "a commit after the crash must not ack");
    drop(db);

    let db = Database::open(cfg.clone()).unwrap();
    let t = db.table("accounts").unwrap();
    // The new incarnation's first transaction.
    commit_row(&db, &t, 3, "new");
    let (db, t) = reopen(db, &cfg);
    assert_eq!(lookup_pk(&db, &t, 1), Some(row(1, "tx1", 1)));
    assert_eq!(lookup_pk(&db, &t, 2), None, "the orphan's insert stays uncommitted");
    assert_eq!(lookup_pk(&db, &t, 3), Some(row(3, "new", 3)));
    db.shutdown();
}

/// Three incarnations, each crashed: every acknowledged commit is
/// recovered, each incarnation logs into its own segment, and GSNs keep
/// rising across them.
#[test]
fn acked_commits_survive_three_crashed_incarnations() {
    let mut cfg = KernelConfig::for_tests();
    cfg.fault = Some(phoebe_common::fault::FaultConfig::crash_only(5));
    let mut acked = Vec::new();
    for incarnation in 0..4i64 {
        let db = Database::open(cfg.clone()).unwrap();
        let info = db.recovery_info();
        assert!(
            db.wal.current_gsn() > info.max_gsn,
            "incarnation {incarnation}: GSN {} not past the recovered {}",
            db.wal.current_gsn(),
            info.max_gsn
        );
        let t = if incarnation == 0 { make_accounts(&db) } else { db.table("accounts").unwrap() };
        for &id in &acked {
            assert_eq!(
                lookup_pk(&db, &t, id),
                Some(row(id, "acked", id)),
                "incarnation {incarnation}"
            );
        }
        if incarnation == 3 {
            db.shutdown();
            break;
        }
        for k in 0..3 {
            let id = incarnation * 10 + k;
            commit_row(&db, &t, id, "acked");
            acked.push(id);
        }
        crash(&db);
    }
    let segments = wal_segments(&cfg);
    assert_eq!(segments.len(), 4, "one segment per incarnation: {:?}", segments.keys());
}

/// Recovery reads the log and writes nothing to it: reopening a directory
/// with history and running nothing leaves every earlier segment
/// byte-identical and the new one holding only its leading round marker;
/// the next open reuses that segment instead of adding another.
#[test]
fn recovery_writes_nothing_to_the_log() {
    let cfg = KernelConfig::for_tests();
    let db = Database::open(cfg.clone()).unwrap();
    let t = make_accounts(&db);
    commit_row(&db, &t, 1, "first");
    let (db, t) = reopen(db, &cfg);
    commit_row(&db, &t, 2, "second");
    db.shutdown();
    drop(db);
    let history = wal_segments(&cfg);
    assert_eq!(history.len(), 2);

    let db = Database::open(cfg.clone()).unwrap();
    assert_eq!(db.recovery_info().txns, 2);
    db.shutdown();
    drop(db);
    let after = wal_segments(&cfg);
    assert_eq!(after.len(), 3, "the reopen logs into a new segment: {:?}", after.keys());
    for (name, bytes) in &history {
        assert!(after[name] == *bytes, "{name} changed");
    }
    let marker = phoebe_wal::WalRecord::round_end(0).encode_into(&mut Vec::new());
    assert_eq!(after["wal_seg_0002.log"].len(), marker, "the new segment holds its marker only");

    let (db, t) = reopen(Database::open(cfg.clone()).unwrap(), &cfg);
    assert_eq!(lookup_pk(&db, &t, 2), Some(row(2, "second", 2)));
    db.shutdown();
    drop(db);
    assert_eq!(wal_segments(&cfg).len(), 3, "a highest segment with no round is reused");
}

/// A collected delete of a frozen row frees its unique key: the block
/// keeps the tombstone, GC removes the index entries, and the key can be
/// taken again without a restart.
#[test]
fn collected_frozen_delete_frees_its_unique_key() {
    let mut cfg = KernelConfig::for_tests();
    cfg.freeze_access_threshold = u64::MAX; // everything qualifies as cold
    cfg.freeze_batch_pages = 2;
    let db = Database::open(cfg).unwrap();
    let t = make_accounts(&db);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for id in 0..2500 {
            tx.insert(&t, row(id, "cold", id)).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    assert!(db.freeze_table(&t).unwrap().rows_frozen > 0);
    let pk = t.index("accounts_pk").unwrap();
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let (rid, _) = tx.lookup_unique(&t, &pk, &[Value::I64(1)]).unwrap().unwrap();
        tx.delete(&t, rid).await.unwrap();
        tx.commit().await.unwrap();
    });
    let stats = db.collect_all();
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.insert(&t, row(1, "again", 1)).await.unwrap();
        tx.commit().await.unwrap();
    });
    assert_eq!(stats.tuples_deleted, 1, "GC counts the frozen delete");
    assert_eq!(lookup_pk(&db, &t, 1), Some(row(1, "again", 1)));
    db.shutdown();
}

/// One run of the read-only dependency: T1 updates row 1 and commits; T2,
/// on another slot, reads row 1, sees T1 committed, updates row 2 and
/// commits — at once, or (`later`) only after T1's round wrote, so that
/// T2's records go to a later round. The disk freezes at the `crash_at`-th
/// write after the setup. Returns the writes the run made and what a
/// reopen recovers of rows 1 and 2.
fn dependent_commit_run(
    crash_at: u64,
    seed: u64,
    later: bool,
) -> (u64, Option<Vec<Value>>, Option<Vec<Value>>) {
    use std::future::Future;
    use std::task::{Context, Waker};
    let mut cfg = KernelConfig::for_tests();
    cfg.fault = Some(phoebe_common::fault::FaultConfig::crash_only(seed));
    let db = Database::open(cfg.clone()).unwrap();
    let t = make_accounts(&db);
    commit_row(&db, &t, 1, "a");
    commit_row(&db, &t, 2, "b");
    let pk = t.index("accounts_pk").unwrap();
    let rid = |id: i64| {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let (rid, _) = tx.lookup_unique(&t, &pk, &[Value::I64(id)]).unwrap().unwrap();
        block_on(tx.commit()).unwrap();
        rid
    };
    let (a, b) = (rid(1), rid(2));
    let sim = db.fault_sim().unwrap();
    sim.arm_crash_after_writes(crash_at);
    let mut t1 = db.begin(IsolationLevel::ReadCommitted);
    block_on(t1.update(&t, a, &[(2, Value::I64(10))])).unwrap();
    let mut c1 = std::pin::pin!(t1.commit());
    // The first poll appends T1's Commit record and publishes its outcome,
    // then parks on the round; T2 runs while T1 may not be durable yet.
    let first = c1.as_mut().poll(&mut Context::from_waker(Waker::noop()));
    let t0 = std::time::Instant::now();
    while later && sim.io_counts().0 == 0 && t0.elapsed() < std::time::Duration::from_secs(5) {
        std::thread::yield_now();
    }
    block_on(async {
        let mut t2 = db.begin(IsolationLevel::ReadCommitted);
        let seen = t2.read(&t, a).unwrap().unwrap();
        assert_eq!(seen[2], Value::I64(10), "T2 sees T1 committed");
        t2.update(&t, b, &[(2, Value::I64(20))]).await.unwrap();
        let _ = t2.commit().await;
    });
    if first.is_pending() {
        let _ = block_on(c1);
    }
    let (writes, _) = sim.io_counts();
    db.shutdown();
    drop(db);
    cfg.fault = None;
    let db = Database::open(cfg).unwrap();
    let t = db.table("accounts").unwrap();
    let got = (writes, lookup_pk(&db, &t, 1), lookup_pk(&db, &t, 2));
    db.shutdown();
    got
}

/// Whichever log write a crash cuts at, recovery never keeps T2's write
/// without T1's: T2 stamps its records above T1's Commit record, so its
/// round is T1's or a later one, and recovery keeps whole rounds.
#[test]
fn a_dependent_commit_never_survives_without_the_commit_it_read() {
    for later in [false, true] {
        let (writes, a, b) = dependent_commit_run(u64::MAX, 0, later);
        assert!(writes > 0, "the run logs through the simulated disk");
        assert_eq!((a, b), (Some(row(1, "a", 10)), Some(row(2, "b", 20))), "no crash keeps both");
        // One past the clean run's count too: rounds may batch differently.
        for crash_at in 1..=writes + 1 {
            for seed in 0..4 {
                let (_, a, b) = dependent_commit_run(crash_at, seed, later);
                if b == Some(row(2, "b", 20)) {
                    assert_eq!(
                        a,
                        Some(row(1, "a", 10)),
                        "crash at write {crash_at}, seed {seed}, later {later}: T2 without T1"
                    );
                }
            }
        }
    }
}
