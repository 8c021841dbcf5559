//! Batch-equivalence suite: `multi_get(keys)` / `multi_lookup(keys)` /
//! `multi_update_rmw(keys)` must be observably identical to the
//! sequential per-key loop — same visibility, same conflicts, same
//! rollback behavior — while running the descents interleaved.

use phoebe_common::metrics::Counter;
use phoebe_core::prelude::*;
use phoebe_runtime::block_on;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn open_db() -> Arc<Database> {
    Database::open(KernelConfig::for_tests()).unwrap()
}

fn kv(db: &Arc<Database>) -> Arc<TableEntry> {
    db.create_table("kv", Schema::new(vec![("k", ColType::I64), ("v", ColType::I64)])).unwrap()
}

fn seed_many(db: &Arc<Database>, t: &Arc<TableEntry>, n: i64) -> Vec<phoebe_common::ids::RowId> {
    block_on(async {
        let mut rows = Vec::new();
        // Commit in chunks so UNDO stays bounded.
        for chunk_lo in (0..n).step_by(500) {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            for k in chunk_lo..n.min(chunk_lo + 500) {
                rows.push(tx.insert(t, vec![Value::I64(k), Value::I64(k * 10)]).await.unwrap());
            }
            tx.commit().await.unwrap();
        }
        rows
    })
}

#[test]
fn multi_get_matches_sequential_reads() {
    let db = open_db();
    let t = kv(&db);
    // Enough rows that the table tree has inner levels (so descents hop,
    // prefetch and suspend rather than landing on a root leaf).
    let rows = seed_many(&db, &t, 5_000);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        // Mixed batch: hits, a miss (never-allocated row id), repeats.
        let mut batch: Vec<_> = rows.iter().step_by(17).copied().collect();
        batch.push(phoebe_common::ids::RowId(1_000_000));
        batch.push(rows[3]);
        let batched = tx.multi_get(&t, &batch).await.unwrap();
        assert_eq!(batched.len(), batch.len());
        for (i, &row) in batch.iter().enumerate() {
            let seq = tx.read(&t, row).unwrap();
            match (&batched[i], &seq) {
                (Some(b), Some(s)) => assert_eq!(b.values(), s.values(), "key {i}"),
                (None, None) => {}
                _ => panic!("batched[{i}] disagrees with sequential read"),
            }
        }
        tx.commit().await.unwrap();
    });
    let snap = db.metrics.snapshot();
    assert!(snap.counter(Counter::BatchGets) >= 1);
    assert!(snap.counter(Counter::BatchKeys) >= 202);
    assert!(snap.counter(Counter::PrefetchesIssued) > 0, "interleaved descents must prefetch");
    db.shutdown();
}

#[test]
fn multi_lookup_matches_sequential_lookup_unique() {
    let db = open_db();
    let t = kv(&db);
    let idx = db.create_index(&t, "by_k", vec![0], true).unwrap();
    seed_many(&db, &t, 300);
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        // Hits and misses, shuffled order.
        let keys: Vec<Vec<Value>> = (0..320).map(|i| vec![Value::I64((i * 7) % 400)]).collect();
        let batched = tx.multi_lookup(&t, &idx, &keys).await.unwrap();
        for (i, key) in keys.iter().enumerate() {
            let seq = tx.lookup_unique(&t, &idx, key).unwrap();
            match (&batched[i], &seq) {
                (Some((br, bt)), Some((sr, st))) => {
                    assert_eq!(br, sr, "key {i} row id");
                    assert_eq!(bt.values(), st.values(), "key {i} tuple");
                }
                (None, None) => {}
                _ => panic!("batched[{i}] disagrees with lookup_unique"),
            }
        }
        tx.commit().await.unwrap();
    });
    db.shutdown();
}

/// A batch is one statement: under repeatable read it sees the pinned
/// snapshot; under read committed it sees data committed before the
/// statement began — exactly like the sequential loop's first read.
#[test]
fn multi_get_respects_isolation_levels() {
    let db = open_db();
    let t = kv(&db);
    let rows = seed_many(&db, &t, 10);
    block_on(async {
        let mut rr = db.begin(IsolationLevel::RepeatableRead);
        // Pin the snapshot with a first read.
        assert!(rr.read(&t, rows[0]).unwrap().is_some());
        let mut rc = db.begin(IsolationLevel::ReadCommitted);
        assert!(rc.read(&t, rows[0]).unwrap().is_some());
        // Concurrent committed update.
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update(&t, rows[5], &[(1, Value::I64(-1))]).await.unwrap();
        w.commit().await.unwrap();
        let rr_batch = rr.multi_get(&t, &rows).await.unwrap();
        assert_eq!(
            rr_batch[5].as_ref().unwrap().values()[1],
            Value::I64(50),
            "repeatable read must not see the later commit"
        );
        let rc_batch = rc.multi_get(&t, &rows).await.unwrap();
        assert_eq!(
            rc_batch[5].as_ref().unwrap().values()[1],
            Value::I64(-1),
            "read committed refreshes per statement"
        );
        rr.commit().await.unwrap();
        rc.commit().await.unwrap();
    });
    db.shutdown();
}

/// Writers atomically keep `v = k * factor`; every batched read must see
/// a tuple satisfying some generation's invariant — never a torn mix —
/// and agree with what a sequential read in the same statement window
/// could have returned.
#[test]
fn multi_get_is_consistent_under_concurrent_writers() {
    let db = open_db();
    let t = kv(&db);
    let rows = Arc::new(seed_many(&db, &t, 64));
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let writer = {
        let (db, t, rows, stop) = (db.clone(), t.clone(), rows.clone(), stop.clone());
        let writes = writes.clone();
        std::thread::spawn(move || {
            block_on(async {
                let mut gen = 10i64;
                while !stop.load(Ordering::Acquire) {
                    gen += 1;
                    for (k, &row) in rows.iter().enumerate() {
                        loop {
                            let mut tx = db.begin(IsolationLevel::ReadCommitted);
                            let res = tx.update(&t, row, &[(1, Value::I64(k as i64 * gen))]).await;
                            match res {
                                Ok(_) => {
                                    tx.commit().await.unwrap();
                                    writes.fetch_add(1, Ordering::Release);
                                    break;
                                }
                                Err(_) => tx.abort(),
                            }
                        }
                    }
                }
            })
        })
    };
    // The reads must race a writer that is actually committing: 50 batches
    // can finish before the spawned thread is first scheduled. Read on
    // until it has committed during the batches.
    let committed = || writes.load(Ordering::Acquire);
    block_on(async {
        let mut batches = 0;
        while batches < 50 || committed() == 0 {
            batches += 1;
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            let batch = tx.multi_get(&t, &rows).await.unwrap();
            for (k, got) in batch.iter().enumerate() {
                let vals = got.as_ref().expect("rows are never deleted").values().to_vec();
                assert_eq!(vals[0], Value::I64(k as i64), "key column never changes");
                let v = match vals[1] {
                    Value::I64(v) => v,
                    ref other => panic!("unexpected value {other:?}"),
                };
                // v is always k * <some generation> (10 at seed time).
                if k != 0 {
                    assert_eq!(v % k as i64, 0, "tuple of key {k} is torn: v={v}");
                }
            }
            tx.commit().await.unwrap();
        }
    });
    stop.store(true, Ordering::Release);
    writer.join().unwrap();
    db.shutdown();
}

#[test]
fn multi_update_rmw_increments_are_lost_update_free() {
    let db = open_db();
    let t = kv(&db);
    let rows = Arc::new(seed_many(&db, &t, 8));
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        // Zero the counters first.
        for &r in rows.iter() {
            tx.update(&t, r, &[(1, Value::I64(0))]).await.unwrap();
        }
        tx.commit().await.unwrap();
    });
    let threads = 4;
    let per = 20;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (db, t, rows) = (db.clone(), t.clone(), rows.clone());
            std::thread::spawn(move || {
                block_on(async {
                    for _ in 0..per {
                        loop {
                            let mut tx = db.begin(IsolationLevel::ReadCommitted);
                            let res = tx
                                .multi_update_rmw(&t, &rows, &|_, cur| {
                                    vec![(1, Value::I64(cur[1].as_i64() + 1))]
                                })
                                .await;
                            match res {
                                Ok(out) => {
                                    assert_eq!(out.len(), rows.len());
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
    for &r in rows.iter() {
        assert_eq!(
            tx.read(&t, r).unwrap().unwrap()[1],
            Value::I64((threads * per) as i64),
            "every batched increment must land exactly once"
        );
    }
    block_on(tx.commit()).unwrap();
    db.shutdown();
}

/// A mid-batch write conflict fails the whole statement with the same
/// error the sequential loop would hit, and aborting the transaction
/// rolls back the batch's earlier keys too — no partial batch survives.
#[test]
fn multi_update_rmw_mid_batch_conflict_rolls_back_cleanly() {
    let db = open_db();
    let t = kv(&db);
    let rows = seed_many(&db, &t, 4);
    block_on(async {
        // Pin a repeatable-read victim, then commit a rival update to
        // rows[2] that its snapshot cannot see.
        let mut victim = db.begin(IsolationLevel::RepeatableRead);
        assert!(victim.read(&t, rows[0]).unwrap().is_some());
        let mut rival = db.begin(IsolationLevel::ReadCommitted);
        rival.update(&t, rows[2], &[(1, Value::I64(999))]).await.unwrap();
        rival.commit().await.unwrap();
        let err = victim
            .multi_update_rmw(&t, &rows, &|_, cur| vec![(1, Value::I64(cur[1].as_i64() + 1))])
            .await
            .expect_err("snapshot-stale write must conflict");
        assert!(
            matches!(err, PhoebeError::WriteConflict { .. }),
            "sequential loop reports WriteConflict; batch must too, got {err:?}"
        );
        victim.abort();
        // Keys before the conflicting one were written, then rolled back.
        let mut check = db.begin(IsolationLevel::ReadCommitted);
        let vals = check.multi_get(&t, &rows).await.unwrap();
        assert_eq!(vals[0].as_ref().unwrap().values()[1], Value::I64(0));
        assert_eq!(vals[1].as_ref().unwrap().values()[1], Value::I64(10));
        assert_eq!(vals[2].as_ref().unwrap().values()[1], Value::I64(999));
        assert_eq!(vals[3].as_ref().unwrap().values()[1], Value::I64(30));
        check.commit().await.unwrap();
    });
    db.shutdown();
}

/// With a buffer pool far smaller than the data set, batched descents
/// must take the kick-fault/suspend/resume path (not block the worker)
/// and still return exactly what sequential reads return.
#[test]
fn multi_get_survives_cold_buffer_pool() {
    let mut cfg = KernelConfig::for_tests();
    cfg.buffer_frames = 32;
    let db = Database::open(cfg).unwrap();
    let t = kv(&db);
    // A two-I64 leaf holds 640 rows, so 40k rows is 60+ leaves — roughly
    // twice the pool. Every batch below strides the whole table, so by
    // pigeonhole it must cross leaves that are not resident, making the
    // suspend-path assertion deterministic rather than dependent on how
    // much seed-time eviction pressure happened to survive.
    let n = 40_000i64;
    let rows = block_on(async {
        let mut rows = Vec::new();
        // Commit in chunks so UNDO stays bounded.
        for chunk in 0..(n / 500) {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            for k in (chunk * 500)..((chunk + 1) * 500) {
                rows.push(tx.insert(&t, vec![Value::I64(k), Value::I64(k * 10)]).await.unwrap());
            }
            tx.commit().await.unwrap();
        }
        rows
    });
    let before = db.metrics.snapshot();
    block_on(async {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        // Batches that stride the whole table: mostly cold leaves.
        for start in 0..10 {
            let batch: Vec<_> = rows.iter().skip(start * 37).step_by(997).copied().collect();
            let got = tx.multi_get(&t, &batch).await.unwrap();
            for (i, &row) in batch.iter().enumerate() {
                let seq = tx.read(&t, row).unwrap().expect("row exists");
                assert_eq!(got[i].as_ref().unwrap().values(), seq.values());
            }
        }
        tx.commit().await.unwrap();
    });
    let after = db.metrics.snapshot();
    assert!(
        after.counter(Counter::FaultSuspends) > before.counter(Counter::FaultSuspends),
        "cold descents must suspend on background faults"
    );
    db.shutdown();
}

/// A batch waiting on cold-page reads parks on its fault tickets: the
/// worker polls it about once per read that lands, not in a loop for as
/// long as the read takes. One worker, so every poll the runtime counts
/// is this task's.
#[test]
fn cold_batch_parks_on_its_faults_instead_of_polling() {
    let mut cfg = KernelConfig::for_tests();
    cfg.buffer_frames = 32;
    cfg.workers = 1;
    let db = Database::open(cfg).unwrap();
    let t = kv(&db);
    // 60+ leaves against 32 frames, as in the test above.
    let rows = seed_many(&db, &t, 40_000);
    let rt = db.runtime();
    let polls_before = rt.stats().polls;
    let suspends_before = db.metrics.snapshot().counter(Counter::FaultSuspends);
    let task = {
        let (db, t) = (Arc::clone(&db), Arc::clone(&t));
        rt.spawn(async move {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            for start in 0..10 {
                let batch: Vec<_> = rows.iter().skip(start * 37).step_by(997).copied().collect();
                let got = tx.multi_get(&t, &batch).await.unwrap();
                assert!(got.iter().all(Option::is_some));
            }
            tx.commit().await.unwrap();
        })
    };
    task.join();
    let polls = rt.stats().polls - polls_before;
    let suspends = db.metrics.snapshot().counter(Counter::FaultSuspends) - suspends_before;
    assert!(suspends >= 100, "the batches must run cold: {suspends} fault suspends");
    assert!(
        polls <= 8 * suspends + 64,
        "{polls} polls for {suspends} fault suspends: the task spun on its faults"
    );
    db.shutdown();
}
