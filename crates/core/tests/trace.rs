//! The kernel flight recorder end to end: open a traced kernel, run real
//! transactions, and check the exported Chrome trace JSON has the tracks
//! the tooling expects; plus the recovery counters/latency site and the
//! scheduler wait-state surface added alongside it.

use phoebe_core::prelude::*;
use phoebe_core::WorkerStateSummary;
use std::sync::Arc;
use std::time::Duration;

fn traced_cfg() -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.trace = Some(phoebe_common::TraceConfig { path: None, ring_capacity: 8192 });
    cfg
}

fn accounts(db: &Arc<Database>) -> Arc<TableEntry> {
    db.create_table(
        "accounts",
        Schema::new(vec![
            ("id", ColType::I64),
            ("owner", ColType::Str(16)),
            ("balance", ColType::I64),
        ]),
    )
    .unwrap()
}

/// Commit/abort mix on the pool so every traced subsystem sees traffic.
fn churn(db: &Arc<Database>, table: &Arc<TableEntry>, txns: u64) {
    let rt = db.runtime();
    let (db2, t2) = (db.clone(), table.clone());
    rt.spawn(async move {
        for i in 0..txns {
            let mut tx = db2.begin(IsolationLevel::ReadCommitted);
            let row = tx
                .insert(&t2, vec![(i as i64).into(), format!("o{i}").into(), 100i64.into()])
                .await
                .unwrap();
            tx.read(&t2, row).unwrap();
            if i % 7 == 6 {
                tx.abort();
            } else {
                tx.commit().await.unwrap();
            }
        }
    })
    .join();
}

#[test]
fn export_has_worker_tracks_spans_and_counter() {
    let db = Database::open(traced_cfg()).unwrap();
    assert!(db.tracer().enabled());
    let table = accounts(&db);
    churn(&db, &table, 120);

    let json = db.tracer().export_chrome_json();
    // Well-formed Chrome trace document.
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    // Per-worker named tracks and the subsystems riding on them.
    assert!(json.contains("\"name\":\"worker0/sched\""), "worker 0 scheduler track");
    assert!(json.contains("\"ph\":\"X\""), "at least one complete span");
    assert!(json.contains("\"name\":\"poll\""), "task poll spans");
    assert!(json.contains("\"name\":\"spawn\""), "task spawn instants");
    assert!(json.contains("\"name\":\"txn_begin\""), "txn begin instants");
    assert!(json.contains("\"name\":\"commit\""), "txn commit spans");
    assert!(json.contains("\"name\":\"group_commit\""), "group-commit batch spans");
    // Counter tracks: queue depth (sampled at global steal) and batch bytes.
    assert!(json.contains("\"name\":\"global_queue_depth\",\"ph\":\"C\""));
    assert!(json.contains("\"name\":\"wal_batch_bytes\",\"ph\":\"C\""));
    // Every yield instant carries its urgency annotation.
    if json.contains("\"name\":\"yield\"") {
        assert!(json.contains("\"urgency\":"));
    }
    db.shutdown();
}

#[test]
fn untraced_kernel_emits_nothing() {
    let db = Database::open(KernelConfig::for_tests()).unwrap();
    let table = accounts(&db);
    churn(&db, &table, 40);
    assert!(!db.tracer().enabled());
    assert_eq!(db.tracer().total_emitted(), 0);
    db.shutdown();
}

#[test]
fn shutdown_writes_trace_file_from_config_path() {
    let mut cfg = KernelConfig::for_tests();
    let path = cfg.data_dir.join("flight.json");
    cfg.trace = Some(TraceConfig::to_file(&path));
    let db = Database::open(cfg).unwrap();
    let table = accounts(&db);
    churn(&db, &table, 40);
    db.shutdown();
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""));
}

#[test]
fn recovery_surfaces_counters_and_latency_site() {
    let cfg = KernelConfig::for_tests();
    {
        let db = Database::open(cfg.clone()).unwrap();
        let table = accounts(&db);
        churn(&db, &table, 30);
        db.shutdown();
    }
    // Same data dir: open finds the previous incarnation's WAL and replays.
    let db = Database::open(cfg).unwrap();
    let info = db.recovery_info();
    assert!(info.txns > 0, "previous commits must be recovered");
    assert!(info.records > 0, "scan must count decoded records");
    assert_eq!(info.tail_bytes_discarded, 0, "clean shutdown leaves no torn tail");

    let stats = db.stats();
    assert_eq!(stats.counter("recovery_records_replayed"), info.records);
    assert_eq!(stats.counter("recovery_tail_bytes_discarded"), 0);
    let replay = stats.latency(LatencySite::RecoveryReplay);
    assert_eq!(replay.count, 1, "one replay per recovering open");
    assert!(replay.max_ns > 0);
    db.shutdown();
}

#[test]
fn stats_surface_scheduler_gauges_and_worker_states() {
    let db = Database::open(KernelConfig::for_tests()).unwrap();
    let table = accounts(&db);
    churn(&db, &table, 80);

    let stats = db.stats();
    assert_eq!(stats.worker_states.len(), 2, "one wait-state row per worker");
    let busy: u64 =
        stats.worker_states.iter().map(|w| w.running_ns + w.ready_ns + w.parked_ns + w.io_ns).sum();
    assert!(busy > 0, "workers must have accounted time somewhere");
    assert!(stats.runtime.polls > 0);
    let json = stats.to_json().render();
    assert!(json.contains("\"global_queue_depth\""));
    assert!(json.contains("\"occupied_slots\""));
    assert!(json.contains("\"workers\""));

    // An idle worker still charges its bounded parks: every worker's
    // time-in-state total keeps advancing (the watchdog's heartbeat).
    std::thread::sleep(Duration::from_millis(30));
    let later = db.stats();
    for (before, after) in stats.worker_states.iter().zip(&later.worker_states) {
        let total = |w: &WorkerStateSummary| w.running_ns + w.ready_ns + w.parked_ns + w.io_ns;
        assert!(total(after) > total(before), "worker {} charged nothing", after.worker);
    }
    db.shutdown();
}
