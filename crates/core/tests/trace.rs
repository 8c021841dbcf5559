//! The kernel flight recorder end to end: open a traced kernel, run real
//! transactions, and check the exported Chrome trace JSON has the tracks
//! the tooling expects; plus the recovery counters/latency site and the
//! scheduler wait-state surface added alongside it, and the one-probe-per-
//! site contract between the latency histograms and the rings.

use phoebe_common::hist::SITES;
use phoebe_common::{EventKind, TraceEvent};
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

/// Every latency site is measured once: for each site that fired, the
/// flight recorder holds exactly as many of the site's events as its
/// histogram holds samples, and their durations add up to the histogram's
/// sum to the nanosecond. One worker and a pool far smaller than the data
/// make the run evict, fault cold pages back in, wait on a lock and flush.
#[test]
fn every_site_books_one_duration_to_histogram_and_ring() {
    const RING: usize = 1 << 18;
    let mut cfg = KernelConfig::for_tests();
    cfg.workers = 1;
    cfg.buffer_frames = 32;
    cfg.trace = Some(phoebe_common::TraceConfig { path: None, ring_capacity: RING });
    let db = Database::open(cfg).unwrap();
    let t =
        db.create_table("kv", Schema::new(vec![("k", ColType::I64), ("v", ColType::I64)])).unwrap();
    let idx = db.create_index(&t, "by_k", vec![0], true).unwrap();
    let rows = phoebe_runtime::block_on(async {
        let mut rows = Vec::new();
        for chunk in 0..40i64 {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            for k in chunk * 500..(chunk + 1) * 500 {
                rows.push(tx.insert(&t, vec![Value::I64(k), Value::I64(k)]).await.unwrap());
            }
            tx.commit().await.unwrap();
        }
        rows
    });

    // A lock wait: the holder keeps its write 20 ms before committing.
    let rt = db.runtime();
    let (updated, holds) = std::sync::mpsc::channel();
    let holder = {
        let (db, t, row) = (db.clone(), t.clone(), rows[0]);
        rt.spawn(async move {
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            tx.update(&t, row, &[(1, Value::I64(-1))]).await.unwrap();
            updated.send(()).unwrap();
            phoebe_runtime::sleep(Duration::from_millis(20)).await;
            tx.commit().await.unwrap();
        })
    };
    holds.recv().unwrap();
    let (db2, t2) = (db.clone(), t.clone());
    rt.spawn(async move {
        let mut tx = db2.begin(IsolationLevel::ReadCommitted);
        tx.update(&t2, rows[0], &[(1, Value::I64(-2))]).await.unwrap();
        tx.commit().await.unwrap();
        // Batches striding the whole table (cold pages), a read-only
        // commit, and an abort.
        let mut tx = db2.begin(IsolationLevel::ReadCommitted);
        let keys: Vec<Vec<Value>> = (0..20).map(|i| vec![Value::I64(i * 997)]).collect();
        assert!(tx.multi_lookup(&t2, &idx, &keys).await.unwrap().iter().all(Option::is_some));
        let batch: Vec<_> = rows.iter().skip(13).step_by(1_009).copied().collect();
        assert!(tx.multi_get(&t2, &batch).await.unwrap().iter().all(Option::is_some));
        tx.commit().await.unwrap();
        let mut tx = db2.begin(IsolationLevel::ReadCommitted);
        tx.update(&t2, rows[1], &[(1, Value::I64(-3))]).await.unwrap();
        tx.abort();
    })
    .join();
    holder.join();

    // Drain between two equal snapshots, so no probe was half-way through
    // (histogram booked, ring event not yet written) at the drain.
    let (snap, events) = loop {
        let before = db.metrics.snapshot();
        std::thread::sleep(Duration::from_millis(20));
        let events: Vec<TraceEvent> =
            db.tracer().drain().into_iter().flat_map(|(_, ring)| ring).collect();
        let after = db.metrics.snapshot();
        if SITES.iter().all(|&s| before.latency(s) == after.latency(s)) {
            break (after, events);
        }
    };
    assert!(db.tracer().total_emitted() <= RING as u64, "a ring wrapped: raise RING");
    let mut fired = Vec::new();
    for &site in SITES.iter() {
        let h = snap.latency(site);
        let ring: Vec<u64> =
            events.iter().filter(|e| e.kind() == Some(site.event())).map(|e| e.a).collect();
        assert_eq!(ring.len() as u64, h.count(), "{}: ring events vs samples", site.name());
        assert_eq!(ring.iter().sum::<u64>(), h.sum_ns(), "{}: ring time vs sum_ns", site.name());
        if h.count() > 0 {
            fired.push(site.name());
        }
    }
    for site in [
        "commit",
        "abort",
        "lock_wait",
        "batch_get",
        "buffer_fault",
        "eviction",
        "wal_flush",
        "group_commit",
    ] {
        assert!(fired.contains(&site), "{site} never fired; fired: {fired:?}");
    }
    // Pages go cold only by eviction, and an eviction names the disk page
    // it wrote — so every cold fault pairs with an eviction of its page.
    let pages = |kind| events.iter().filter(move |e| e.kind() == Some(kind)).map(|e| e.b);
    let evicted: std::collections::HashSet<u64> = pages(EventKind::Eviction).collect();
    for page in pages(EventKind::BufferFault) {
        assert!(evicted.contains(&page), "page {page} faulted in without an eviction event");
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
