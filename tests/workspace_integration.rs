//! Cross-crate integration: the full stack (runtime + storage + txn + wal +
//! kernel + TPC-C) exercised together, including restart recovery of a
//! TPC-C prefix.

use phoebe_common::KernelConfig;
use phoebe_core::Database;
use phoebe_runtime::block_on;
use phoebe_storage::schema::Value;
use phoebe_tpcc::conn::TpccConn;
use phoebe_tpcc::schema::{cols, Idx};
use phoebe_tpcc::txns::{self, Params};
use phoebe_tpcc::{gen::TpccRng, load, PhoebeEngine, TpccEngine, TpccScale};

/// A test's data directory, removed when the test body returns; a test
/// that panics leaves it behind as evidence.
struct DataDir(std::path::PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A kernel config over a new data directory, and the guard that removes
/// the directory after the test.
fn fresh(tag: &str) -> (KernelConfig, DataDir) {
    let mut cfg = KernelConfig::for_tests();
    cfg.workers = 2;
    cfg.slots_per_worker = 8;
    cfg.buffer_frames = 2048;
    cfg.data_dir = std::env::temp_dir().join(format!(
        "phoebe-ws-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    let dir = DataDir(cfg.data_dir.clone());
    (cfg, dir)
}

#[test]
fn tpcc_workload_survives_restart_via_wal_replay() {
    let (cfg, _dir) = fresh("restart");
    let wal_dir = cfg.data_dir.join("wal");
    let scale = TpccScale::micro();
    let params = Params { warehouses: 1, scale };

    // Phase 1: load + run a deterministic prefix, remember a counter.
    let next_o_id_before_crash = {
        let db = Database::open(cfg.clone()).unwrap();
        let engine = PhoebeEngine::create(db).unwrap();
        block_on(load(&engine, 1, scale, 1234)).unwrap();
        let mut rng = TpccRng::seeded(99);
        block_on(async {
            for _ in 0..15 {
                let mut conn = engine.begin();
                match txns::new_order(&mut conn, &mut rng, &params, 1).await {
                    Ok(true) => conn.commit().await.unwrap(),
                    Ok(false) => conn.abort(),
                    Err(e) => panic!("new_order: {e}"),
                }
            }
        });
        let counters: Vec<i32> = block_on(async {
            let mut c = engine.begin();
            let mut out = Vec::new();
            for d in 1..=scale.districts_per_warehouse {
                let (_, row) = c
                    .lookup(Idx::DistrictPk, vec![Value::I32(1), Value::I32(d as i32)])
                    .await
                    .unwrap()
                    .unwrap();
                out.push(row[cols::D_NEXT_O_ID].as_i32());
            }
            c.commit().await.unwrap();
            out
        });
        engine.db.shutdown();
        counters
    };

    // Phase 2: fresh kernel + schema, replay the WAL, verify the counters.
    let (cfg2, _dir2) = fresh("restart-recovered");
    let db = Database::open(cfg2).unwrap();
    let engine = PhoebeEngine::create(db).unwrap();
    let replayed = engine.db.replay_wal(&wal_dir).unwrap();
    assert!(replayed > 0, "loader + workload transactions must replay");
    let counters_after: Vec<i32> = block_on(async {
        let mut c = engine.begin();
        let mut out = Vec::new();
        for d in 1..=scale.districts_per_warehouse {
            let (_, row) = c
                .lookup(Idx::DistrictPk, vec![Value::I32(1), Value::I32(d as i32)])
                .await
                .unwrap()
                .unwrap();
            out.push(row[cols::D_NEXT_O_ID].as_i32());
        }
        c.commit().await.unwrap();
        out
    });
    assert_eq!(counters_after, next_o_id_before_crash, "replay restores counters");
    engine.db.shutdown();
}

/// Crash with fault injection, then reopen the *same* directory: recovery
/// runs automatically inside `Database::open` — catalog from the manifest,
/// data from the WAL — with committed rows visible and the uncommitted
/// tail discarded. (The seeded many-seed version of this lives in
/// `recovery_torture`; this pins the single deterministic path in-tree.)
#[test]
fn reopen_after_crash_recovers_automatically() {
    use phoebe_common::fault::FaultConfig;
    use phoebe_common::ids::RowId;
    use phoebe_core::prelude::{row, ColType, IsolationLevel, Schema};

    let (mut cfg, _dir) = fresh("auto-recover");
    cfg.fault = Some(FaultConfig::crash_only(42));

    {
        let db = Database::open(cfg.clone()).unwrap();
        let t = db
            .create_table("events", Schema::new(vec![("id", ColType::I64), ("v", ColType::I64)]))
            .unwrap();
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        block_on(tx.insert(&t, row![1i64, 10i64])).unwrap();
        block_on(tx.insert(&t, row![2i64, 20i64])).unwrap();
        block_on(tx.commit()).unwrap();

        // An in-flight transaction that never commits before the crash.
        let mut tx2 = db.begin(IsolationLevel::ReadCommitted);
        block_on(tx2.insert(&t, row![3i64, 30i64])).unwrap();

        db.fault_sim().expect("fault injection enabled").crash();
        assert!(block_on(tx2.commit()).is_err(), "post-crash commit must not ack");
        db.shutdown();
    }

    // Reopen the same directory, no fault layer: `Database::open` recovers.
    cfg.fault = None;
    let db = Database::open(cfg).unwrap();
    assert!(db.recovery_info().txns > 0, "recovery replayed the committed txn");
    let t = db.table("events").expect("catalog restored from manifest");
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    let r1 = tx.read(&t, RowId(1)).unwrap().expect("committed row 1 survives");
    assert_eq!(r1.i64("v"), 10);
    let r2 = tx.read(&t, RowId(2)).unwrap().expect("committed row 2 survives");
    assert_eq!(r2.i64("v"), 20);
    assert!(tx.read(&t, RowId(3)).unwrap().is_none(), "uncommitted tail discarded");
    db.shutdown();
}

#[test]
fn metrics_breakdown_accounts_all_components() {
    use phoebe_common::metrics::{Component, COMPONENTS};
    let (cfg, _dir) = fresh("metrics");
    let db = Database::open(cfg).unwrap();
    let engine = PhoebeEngine::create(db).unwrap();
    let scale = TpccScale::micro();
    block_on(load(&engine, 1, scale, 7)).unwrap();
    let params = Params { warehouses: 1, scale };
    let mut rng = TpccRng::seeded(3);
    let before = engine.db.metrics.snapshot();
    let t0 = std::time::Instant::now();
    block_on(async {
        for _ in 0..30 {
            let mut conn = engine.begin();
            match txns::new_order(&mut conn, &mut rng, &params, 1).await {
                Ok(true) => conn.commit().await.unwrap(),
                _ => conn.abort(),
            }
        }
    });
    let busy = t0.elapsed().as_nanos() as u64;
    let delta = engine.db.metrics.snapshot().delta_since(&before);
    let shares = delta.breakdown(busy);
    assert_eq!(shares.len(), COMPONENTS.len());
    let total: f64 = shares.iter().map(|(_, s)| *s).sum();
    assert!((total - 1.0).abs() < 1e-9, "shares sum to 1");
    assert!(delta.component_ns(Component::Wal) > 0, "WAL work was accounted");
    assert!(delta.component_ns(Component::Mvcc) > 0, "MVCC work was accounted");
    engine.db.shutdown();
}
