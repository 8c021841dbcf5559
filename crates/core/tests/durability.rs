//! Every durability wait makes its own progress: no commit, barrier or
//! backlog depends on another thread being free to run a group-commit
//! round. Each case runs on its own thread behind a bounded receive, so a
//! wait that hangs fails the test instead of stalling the suite.

use phoebe_core::prelude::*;
use phoebe_runtime::block_on;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f` on its own thread; fail if it has not returned within `limit`.
fn bounded<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit).expect("a durability wait hung")
}

fn table(db: &Arc<Database>) -> Arc<TableEntry> {
    let schema = Schema::new(vec![("id", ColType::I64), ("pad", ColType::Str(64))]);
    let t = db.create_table("t", schema).unwrap();
    db.create_index(&t, "t_pk", vec![0], true).unwrap();
    t
}

/// One worker, a pool of 16 frames and one transaction that writes far
/// more pages than that within one poll: no round runs between its
/// inserts, so eviction finds every dirty page's log pending and
/// `allocate` falls back to its blocking barrier on the worker itself.
/// That barrier runs the round; a parked worker would wait for itself.
#[test]
fn a_one_worker_kernel_far_smaller_than_its_data_finishes_durable_inserts() {
    const ROWS: i64 = 20_000;
    let mut cfg = KernelConfig::for_tests();
    cfg.workers = 1;
    cfg.buffer_frames = 16;
    cfg.wal_sync = true;
    let db = Database::open(cfg).unwrap();
    let t = table(&db);
    let rt = db.runtime();
    let (db2, t2) = (Arc::clone(&db), Arc::clone(&t));
    let rounds_before = db.wal.rounds();
    bounded(Duration::from_secs(120), move || {
        rt.spawn(async move {
            let mut tx = db2.begin(IsolationLevel::ReadCommitted);
            for id in 0..ROWS {
                tx.insert(&t2, vec![Value::I64(id), Value::Str(format!("{id:064}"))])
                    .await
                    .unwrap();
            }
            tx.commit().await.unwrap();
        })
        .join()
    });
    assert!(db.wal.rounds() > rounds_before);
    assert_eq!(db.approximate_row_count(&t).unwrap(), ROWS as usize);
    db.shutdown();
}

/// A commit on an external slot waits off the pool: it runs its own
/// round, whatever the workers do — here nothing at all.
#[test]
fn an_external_slot_commit_on_an_idle_kernel_returns() {
    let mut cfg = KernelConfig::for_tests();
    cfg.wal_sync = true;
    // A window no test waits out: only the commit's own round covers it.
    cfg.wal_group_commit_us = 60_000_000;
    let db = Database::open(cfg).unwrap();
    let t = table(&db);
    std::thread::sleep(Duration::from_millis(20));
    let (db2, t2) = (Arc::clone(&db), Arc::clone(&t));
    let gsn = bounded(Duration::from_secs(10), move || {
        let mut tx = db2.begin(IsolationLevel::ReadCommitted);
        block_on(tx.insert(&t2, vec![Value::I64(1), Value::Str("x".into())])).unwrap();
        block_on(tx.commit()).unwrap();
        db2.wal.current_gsn()
    });
    assert!(db.wal.durable_gsn() + 1 >= gsn, "the commit returned before its round");
    assert_eq!(db.wal.backlog_records(), 0);
    db.shutdown();
}

/// With `wal_sync` off a commit waits for nothing, and nothing waits on
/// its records. The workers' tick still makes them durable once they are
/// a window old, with no further activity.
#[test]
fn an_unsynced_commit_becomes_durable_within_a_few_windows() {
    let window = Duration::from_millis(5);
    let mut cfg = KernelConfig::for_tests();
    cfg.wal_sync = false;
    cfg.wal_group_commit_us = window.as_micros() as u64;
    let db = Database::open(cfg).unwrap();
    let t = table(&db);
    let rt = db.runtime();
    let (db2, t2) = (Arc::clone(&db), Arc::clone(&t));
    let committed = bounded(Duration::from_secs(10), move || {
        rt.spawn(async move {
            let mut tx = db2.begin(IsolationLevel::ReadCommitted);
            tx.insert(&t2, vec![Value::I64(1), Value::Str("x".into())]).await.unwrap();
            tx.commit().await.unwrap();
        })
        .join();
        Instant::now()
    });
    let db2 = Arc::clone(&db);
    let took = bounded(Duration::from_secs(10), move || {
        while db2.wal.backlog_records() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        committed.elapsed()
    });
    assert!(took < 100 * window, "the backlog took {took:?} with a {window:?} window");
    db.shutdown();
}
