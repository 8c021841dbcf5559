//! Focused MVCC semantics tests: the paper's isolation-level rules (§6),
//! GC/twin lifecycle (§7.3), and RFA commit accounting (§8) observed
//! through the public API.

use phoebe_common::metrics::Counter;
use phoebe_core::prelude::*;
use phoebe_runtime::block_on;
use std::sync::Arc;

fn open_db() -> Arc<Database> {
    Database::open(KernelConfig::for_tests()).unwrap()
}

fn kv(db: &Arc<Database>) -> Arc<TableEntry> {
    db.create_table("kv", Schema::new(vec![("k", ColType::I64), ("v", ColType::I64)])).unwrap()
}

fn seed(db: &Arc<Database>, t: &Arc<TableEntry>, k: i64, v: i64) -> phoebe_common::ids::RowId {
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        let r = tx.insert(t, vec![Value::I64(k), Value::I64(v)]).await.unwrap();
        tx.commit().await.unwrap();
        r
    })
}

#[test]
fn read_committed_exhibits_non_repeatable_reads_by_design() {
    let db = open_db();
    let t = kv(&db);
    let r = seed(&db, &t, 1, 10);
    block_on(async {
        let mut rc = db.begin(IsolationLevel::ReadCommitted);
        assert_eq!(rc.read(&t, r).unwrap().unwrap()[1], Value::I64(10));
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update(&t, r, &[(1, Value::I64(20))]).await.unwrap();
        w.commit().await.unwrap();
        // RC refreshes its snapshot per statement: the second read differs.
        assert_eq!(rc.read(&t, r).unwrap().unwrap()[1], Value::I64(20));
        rc.commit().await.unwrap();
    });
    db.shutdown();
}

#[test]
fn version_chains_serve_multiple_snapshot_generations() {
    let db = open_db();
    let t = kv(&db);
    let r = seed(&db, &t, 1, 100);
    block_on(async {
        // Three generations of readers pinned before successive updates.
        let mut r1 = db.begin(IsolationLevel::RepeatableRead);
        let _ = r1.read(&t, r).unwrap();
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update(&t, r, &[(1, Value::I64(200))]).await.unwrap();
        w.commit().await.unwrap();
        let mut r2 = db.begin(IsolationLevel::RepeatableRead);
        let _ = r2.read(&t, r).unwrap();
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update(&t, r, &[(1, Value::I64(300))]).await.unwrap();
        w.commit().await.unwrap();
        let mut r3 = db.begin(IsolationLevel::RepeatableRead);
        // Each reader sees its own generation from the same chain.
        assert_eq!(r1.read(&t, r).unwrap().unwrap()[1], Value::I64(100));
        assert_eq!(r2.read(&t, r).unwrap().unwrap()[1], Value::I64(200));
        assert_eq!(r3.read(&t, r).unwrap().unwrap()[1], Value::I64(300));
        r1.commit().await.unwrap();
        r2.commit().await.unwrap();
        r3.commit().await.unwrap();
    });
    db.shutdown();
}

#[test]
fn delete_respects_old_snapshots_until_gc() {
    let db = open_db();
    let t = kv(&db);
    let r = seed(&db, &t, 1, 7);
    block_on(async {
        let mut old = db.begin(IsolationLevel::RepeatableRead);
        assert!(old.read(&t, r).unwrap().is_some());
        let mut d = db.begin(IsolationLevel::ReadCommitted);
        d.delete(&t, r).await.unwrap();
        d.commit().await.unwrap();
        // The old snapshot still sees the row; new snapshots don't.
        assert!(old.read(&t, r).unwrap().is_some(), "old snapshot preserved");
        let mut fresh = db.begin(IsolationLevel::ReadCommitted);
        assert!(fresh.read(&t, r).unwrap().is_none());
        fresh.commit().await.unwrap();
        old.commit().await.unwrap();
    });
    // Once no snapshot needs it, GC removes the tuple physically.
    let stats = db.collect_all();
    assert!(stats.tuples_deleted >= 1);
    db.shutdown();
}

#[test]
fn gc_reclaims_undo_and_twin_tables_end_to_end() {
    let db = open_db();
    let t = kv(&db);
    let r = seed(&db, &t, 1, 0);
    block_on(async {
        for i in 1..=20i64 {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            tx.update(&t, r, &[(1, Value::I64(i))]).await.unwrap();
            tx.commit().await.unwrap();
        }
    });
    assert!(!db.twins.is_empty(), "twin tables exist while versions live");
    let stats = db.collect_all();
    assert!(stats.undo_reclaimed >= 20, "all committed undo reclaimable");
    // A second round may be needed for the twin watermark to advance.
    let stats2 = db.collect_all();
    assert!(
        stats.twins_reclaimed + stats2.twins_reclaimed > 0,
        "empty cold twin tables are reclaimed"
    );
    // Data still correct afterwards.
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(tx.read(&t, r).unwrap().unwrap()[1], Value::I64(20));
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

#[test]
fn every_durable_commit_waits_on_the_round() {
    let db = open_db();
    let t = kv(&db);
    block_on(async {
        for i in 0..12 {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            tx.insert(&t, vec![Value::I64(i), Value::I64(i)]).await.unwrap();
            tx.commit().await.unwrap();
        }
    });
    let snap = db.metrics.snapshot();
    assert_eq!(snap.counter(Counter::RemoteFlushWaits), 12, "one durable-GSN wait per commit");
    assert_eq!(snap.counter(Counter::RfaEarlyCommits), 0, "no commit waits on its slot alone");
    db.shutdown();
}

#[test]
fn cross_slot_writes_trigger_remote_flush_waits() {
    let db = open_db();
    let t = kv(&db);
    let r = seed(&db, &t, 1, 0);
    let before = db.metrics.snapshot().counter(Counter::RemoteFlushWaits);
    // Two external threads (distinct slots) ping-pong the same row with
    // wal_sync on, each building on the other's unflushed page. Every
    // commit that lands waits on the durable GSN; nothing else does.
    let start = Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for i in 0..2i64 {
        let db = db.clone();
        let t = t.clone();
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            block_on(async {
                for j in 0..20 {
                    loop {
                        let mut tx = db.begin(IsolationLevel::ReadCommitted);
                        match tx.update(&t, r, &[(1, Value::I64(i * 100 + j))]).await {
                            Ok(_) => {
                                tx.commit().await.unwrap();
                                break;
                            }
                            Err(_) => tx.abort(),
                        }
                    }
                }
            })
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let waits = db.metrics.snapshot().counter(Counter::RemoteFlushWaits) - before;
    assert_eq!(waits, 40, "each of the 40 write commits waits once on the round");
    db.shutdown();
}

#[test]
fn scan_sees_consistent_prefix_under_concurrent_inserts() {
    let db = open_db();
    let t = db
        .create_table("events", Schema::new(vec![("bucket", ColType::I32), ("n", ColType::I64)]))
        .unwrap();
    let idx = db.create_index(&t, "by_bucket", vec![0], false).unwrap();
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..50 {
            tx.insert(&t, vec![Value::I32(i % 5), Value::I64(i as i64)]).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let (db, t, stop) = (db.clone(), t.clone(), stop.clone());
        std::thread::spawn(move || {
            block_on(async {
                let mut i = 50i64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let mut tx = db.begin(IsolationLevel::ReadCommitted);
                    tx.insert(&t, vec![Value::I32((i % 5) as i32), Value::I64(i)]).await.unwrap();
                    tx.commit().await.unwrap();
                    i += 1;
                }
            })
        })
    };
    // Scans under load: every returned row must actually match the prefix.
    block_on(async {
        for _ in 0..30 {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            let rows = tx.scan_index(&t, &idx, &[Value::I32(2)], 1000).unwrap();
            assert!(!rows.is_empty());
            assert!(rows.iter().all(|(_, r)| r[0] == Value::I32(2)));
            tx.commit().await.unwrap();
        }
    });
    stop.store(true, std::sync::atomic::Ordering::Release);
    writer.join().unwrap();
    db.shutdown();
}

#[test]
fn update_rmw_increments_are_lost_update_free() {
    let db = open_db();
    let t = kv(&db);
    let r = seed(&db, &t, 1, 0);
    let threads = 4;
    let per = 25;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (db, t) = (db.clone(), t.clone());
            std::thread::spawn(move || {
                block_on(async {
                    for _ in 0..per {
                        loop {
                            let mut tx = db.begin(IsolationLevel::ReadCommitted);
                            let res = tx
                                .update_rmw(&t, r, &|cur| {
                                    vec![(1, Value::I64(cur[1].as_i64() + 1))]
                                })
                                .await;
                            match res {
                                Ok(_) => {
                                    tx.commit().await.unwrap();
                                    break;
                                }
                                Err(_) => tx.abort(),
                            }
                        }
                    }
                })
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        tx.read(&t, r).unwrap().unwrap()[1],
        Value::I64((threads * per) as i64),
        "every increment must land exactly once"
    );
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

#[test]
fn abort_of_rmw_leaves_counter_untouched() {
    let db = open_db();
    let t = kv(&db);
    let r = seed(&db, &t, 1, 5);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        tx.update_rmw(&t, r, &|cur| vec![(1, Value::I64(cur[1].as_i64() + 100))]).await.unwrap();
        assert_eq!(tx.read(&t, r).unwrap().unwrap()[1], Value::I64(105));
        tx.abort();
        let mut check = db.begin(IsolationLevel::ReadCommitted);
        assert_eq!(check.read(&t, r).unwrap().unwrap()[1], Value::I64(5));
        check.commit().await.unwrap();
    });
    db.shutdown();
}
