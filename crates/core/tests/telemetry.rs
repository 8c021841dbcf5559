//! The live telemetry plane, end to end: Prometheus exposition
//! completeness, the HTTP endpoints against a real kernel, and the stall
//! watchdog: evidence captured for a deliberately wedged WAL, and a worker
//! judged by its heartbeat rather than by how often it polls.

use phoebe_common::hist::SITES;
use phoebe_common::metrics::{COMPONENTS, COUNTERS};
use phoebe_common::Json;
use phoebe_common::{FaultConfig, WatchdogConfig};
use phoebe_core::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Commit/abort mix so counters and histograms carry real traffic.
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
            if i % 5 == 4 {
                tx.abort();
            } else {
                tx.commit().await.unwrap();
            }
        }
    })
    .join();
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect to telemetry endpoint");
    write!(s, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    let status: u16 =
        out.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("status line");
    let body = out.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Completeness guard: every latency site and every operational counter
/// must appear in both `/metrics` text and the stats JSON — a new
/// `LatencySite` or `Counter` variant cannot silently skip export.
#[test]
fn every_site_and_counter_exports_to_prometheus_and_json() {
    let db = Database::open(KernelConfig::for_tests()).unwrap();
    let table = accounts(&db);
    churn(&db, &table, 50);

    let stats = db.stats();
    let prom = phoebe_core::telemetry::prometheus_text(&stats);
    let json = stats.to_json().render();
    for &site in SITES.iter() {
        let name = site.name();
        assert!(
            prom.contains(&format!("phoebe_latency_ns_count{{site=\"{name}\"}}")),
            "latency site {name} missing from /metrics"
        );
        assert!(json.contains(&format!("\"{name}\"")), "latency site {name} missing from JSON");
    }
    for &(_, name) in COUNTERS.iter() {
        assert!(
            prom.contains(&format!("phoebe_counter_total{{counter=\"{name}\"}}")),
            "counter {name} missing from /metrics"
        );
        assert!(json.contains(&format!("\"{name}\"")), "counter {name} missing from JSON");
    }
    // Worker time-in-state must be present for every worker and state.
    for w in 0..db.cfg.workers {
        for state in ["running", "ready", "parked", "io"] {
            assert!(
                prom.contains(&format!(
                    "phoebe_worker_state_ns_total{{worker=\"{w}\",state=\"{state}\"}}"
                )),
                "worker {w} state {state} missing from /metrics"
            );
        }
    }
    db.shutdown();
}

/// The child of a `/stats` object named `key`.
fn child<'a>(node: &'a Json, key: &str) -> &'a Json {
    let Json::Obj(fields) = node else { panic!("{key}: parent is not an object") };
    &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key} missing from /stats")).1
}

/// Leaves under a `/stats` node.
fn leaves(node: &Json) -> usize {
    match node {
        Json::Obj(fields) => fields.iter().map(|(_, v)| leaves(v)).sum(),
        _ => 1,
    }
}

/// One listing: `/metrics` and `/stats` render one snapshot's table of
/// series. Every non-histogram sample of the one is a leaf of the other
/// with the same value (and there are no other leaves), no sample is
/// listed twice, and the table holds every counter, component, site,
/// worker × state row and gauge.
#[test]
fn metrics_and_stats_render_one_table() {
    let db = Database::open(KernelConfig::for_tests()).unwrap();
    let table = accounts(&db);
    churn(&db, &table, 50);

    let stats = db.stats();
    let prom = phoebe_core::telemetry::prometheus_text(&stats);
    let json = stats.to_json();
    let mut listed = std::collections::HashSet::new();
    let mut scalars = 0;
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (key, value) = line.rsplit_once(' ').unwrap();
        assert!(listed.insert(key.to_owned()), "{key} listed twice");
        if key.starts_with("phoebe_latency_ns") {
            continue;
        }
        let (name, labels) = key.split_once('{').unwrap_or((key, ""));
        let mut node = child(&json, name);
        for label in labels.trim_end_matches('}').split(',').filter(|l| !l.is_empty()) {
            node = child(node, label.split_once('=').unwrap().1.trim_matches('"'));
        }
        assert_eq!(node, &Json::U64(value.parse().unwrap()), "/stats disagrees on {key}");
        scalars += 1;
    }
    let histograms = child(&json, "phoebe_latency_ns");
    assert_eq!(leaves(&json) - leaves(histograms), scalars, "/stats lists what /metrics does");

    let mut want: Vec<String> = Vec::new();
    for &(_, name) in COUNTERS.iter() {
        want.push(format!("phoebe_counter_total{{counter=\"{name}\"}}"));
    }
    for &c in COMPONENTS.iter() {
        for family in ["phoebe_component_busy_ns_total", "phoebe_component_ops_total"] {
            want.push(format!("{family}{{component=\"{}\"}}", c.name()));
        }
    }
    for &site in SITES.iter() {
        want.push(format!("phoebe_latency_ns_count{{site=\"{}\"}}", site.name()));
        assert!(child(histograms, site.name()) != &Json::Null);
    }
    for w in 0..db.cfg.workers {
        for state in ["running", "ready", "parked", "io"] {
            want.push(format!("phoebe_worker_state_ns_total{{worker=\"{w}\",state=\"{state}\"}}"));
        }
        want.push(format!("phoebe_worker_polls_total{{worker=\"{w}\"}}"));
        want.push(format!("phoebe_worker_occupied_slots{{worker=\"{w}\"}}"));
    }
    for name in [
        "phoebe_runtime_tasks_completed_total",
        "phoebe_runtime_polls_total",
        "phoebe_runtime_parks_total",
        "phoebe_runtime_tasks_pulled_global_total",
        "phoebe_runtime_tasks_pulled_local_total",
        "phoebe_runtime_urgent_pull_stalls_total",
        "phoebe_runtime_occupied_slots",
        "phoebe_runtime_ready_tasks",
        "phoebe_runtime_global_queue_depth",
        "phoebe_wal_durable_gsn",
        "phoebe_wal_flush_horizon_age_ns",
        "phoebe_wal_backlog_records",
        "phoebe_wal_halted",
        "phoebe_buffer_total_frames",
        "phoebe_buffer_free_frames",
        "phoebe_fault_tickets_inflight",
        "phoebe_fault_budget_limit",
        "phoebe_undo_backlog",
        "phoebe_twin_tables",
        "phoebe_trace_events_emitted_total",
    ] {
        want.push(name.to_owned());
    }
    for key in &want {
        assert!(listed.contains(key), "{key} missing from /metrics");
    }
    let series = stats.series();
    for &(_, name) in COUNTERS.iter() {
        assert!(
            series.iter().any(|s| s.name == "phoebe_counter_total" && s.labels[0].1 == name),
            "counter {name} missing from the table"
        );
    }
    db.shutdown();
}

/// Prometheus invariants on a live kernel: histogram bucket counts are
/// cumulative and agree with `_count`, and `_sum`/`_count` are consistent
/// with the recorded traffic.
#[test]
fn prometheus_histograms_are_cumulative_and_consistent() {
    let db = Database::open(KernelConfig::for_tests()).unwrap();
    let table = accounts(&db);
    churn(&db, &table, 100);

    let stats = db.stats();
    let commits = stats.counter("commits");
    assert_eq!(commits, 80);
    let prom = phoebe_core::telemetry::prometheus_text(&stats);

    // The commit histogram: every bucket line's value must be
    // non-decreasing, and the +Inf bucket must equal _count.
    let mut last = 0u64;
    let mut inf = None;
    for line in prom.lines().filter(|l| l.starts_with("phoebe_latency_ns_bucket{site=\"commit\"")) {
        let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value >= last, "bucket counts must be cumulative: {line}");
        last = value;
        if line.contains("le=\"+Inf\"") {
            inf = Some(value);
        }
    }
    let count_line = prom
        .lines()
        .find(|l| l.starts_with("phoebe_latency_ns_count{site=\"commit\"}"))
        .expect("commit _count present");
    let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(inf, Some(count), "+Inf bucket must equal _count");
    assert_eq!(count, commits, "commit histogram count matches the counter");
    let sum_line = prom
        .lines()
        .find(|l| l.starts_with("phoebe_latency_ns_sum{site=\"commit\"}"))
        .expect("commit _sum present");
    let sum: u64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(sum > 0, "committed work must have accumulated latency");
    db.shutdown();
}

/// The full HTTP surface against a live kernel on an ephemeral port.
#[test]
fn http_endpoints_serve_metrics_stats_and_live_trace() {
    let cfg = KernelConfig::builder()
        .workers(2)
        .slots_per_worker(4)
        .buffer_frames(256)
        .data_dir(KernelConfig::for_tests().data_dir)
        .telemetry_addr("127.0.0.1:0")
        .build()
        .unwrap();
    let db = Database::open(cfg).unwrap();
    let addr = db.telemetry_addr().expect("telemetry server running");
    let table = accounts(&db);
    churn(&db, &table, 60);

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE phoebe_latency_ns histogram"), "{body:.200}");
    assert!(body.contains("phoebe_counter_total{counter=\"commits\"} 48"));
    assert!(body.contains("phoebe_worker_state_ns_total{worker=\"0\",state=\"running\"}"));
    assert!(body.contains("phoebe_counter_total{counter=\"wal_flushed_bytes\"}"));

    let (status, body) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"phoebe_counter_total\":{\"commits\":48,"), "{body:.200}");

    // Live flight-recorder snapshot: telemetry auto-enables an in-memory
    // tracer, so the Perfetto document carries real events — and the
    // kernel keeps running (we churn again afterwards).
    let (status, body) = http_get(addr, "/trace?ms=30");
    assert_eq!(status, 200);
    assert!(body.contains("\"traceEvents\""), "{body:.200}");
    assert!(body.contains("\"ph\""), "trace should hold real events: {body:.200}");
    churn(&db, &table, 10);

    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    // Shutdown stops the listener; the address must stop answering.
    db.shutdown();
    assert!(db.telemetry_addr().is_none(), "shutdown tears the server down");
}

/// The watchdog satellite: wedge the WAL flush path with the SimFs
/// torture disk and assert a structured incident record — with its
/// flight-recorder snapshot and stats dump attached — appears within the
/// threshold window.
#[test]
fn wedged_wal_flush_produces_incident_with_evidence() {
    let cfg = KernelConfig::builder()
        .workers(2)
        .slots_per_worker(4)
        .buffer_frames(256)
        .data_dir(KernelConfig::for_tests().data_dir)
        .fault(FaultConfig::crash_only(7))
        .watchdog(WatchdogConfig {
            interval_ms: 10,
            worker_stall_ms: 100,
            wal_stall_ms: 40,
            cooldown_ms: 60_000,
            max_incidents: 8,
            ..WatchdogConfig::default()
        })
        .build()
        .unwrap();
    let incident_root = cfg.data_dir.join("incidents");
    let db = Database::open(cfg).unwrap();
    let table = accounts(&db);
    churn(&db, &table, 10); // healthy traffic first: no incidents yet

    // Kill the simulated disk: every subsequent WAL write/fsync fails, so
    // the next round halts the hub and the flush horizon freezes behind the
    // records the doomed commit appended.
    db.fault_sim().expect("fault-injected kernel").crash();
    let rt = db.runtime();
    let (db2, t2) = (db.clone(), table.clone());
    let commit_result = rt
        .spawn(async move {
            let mut tx = db2.begin(IsolationLevel::ReadCommitted);
            tx.insert(&t2, vec![999i64.into(), "doomed".to_string().into(), 1i64.into()]).await?;
            tx.commit().await
        })
        .join();
    assert!(commit_result.is_err(), "commit on a dead disk must fail");
    assert!(db.wal.is_halted(), "failed flush must halt the hub");

    // Within the threshold window (40 ms stall + 10 ms sampling, plus
    // slack for the capture itself) an incident must be recorded. The
    // directory appears before its files; `incident.json` is written last.
    let deadline = Instant::now() + Duration::from_secs(10);
    let incident = loop {
        if let Ok(rd) = std::fs::read_dir(&incident_root) {
            if let Some(dir) = rd.filter_map(|e| e.ok()).map(|e| e.path()).find(|p| {
                p.file_name().is_some_and(|n| n.to_string_lossy().contains("wal_"))
                    && p.join("incident.json").exists()
            }) {
                break dir;
            }
        }
        assert!(Instant::now() < deadline, "no WAL incident recorded within 10 s");
        std::thread::sleep(Duration::from_millis(10));
    };

    // The record and both evidence artifacts must be present and sane.
    let record = std::fs::read_to_string(incident.join("incident.json")).unwrap();
    assert!(
        record.contains("\"kind\":\"wal_flush_stall\"")
            || record.contains("\"kind\":\"wal_halted\""),
        "unexpected incident kind: {record}"
    );
    assert!(record.contains("\"artifacts\":"), "{record}");
    let trace = std::fs::read_to_string(incident.join("trace.json")).unwrap();
    assert!(trace.contains("\"traceEvents\""), "flight-recorder snapshot missing/invalid");
    let stats = std::fs::read_to_string(incident.join("stats.json")).unwrap();
    assert!(stats.contains("\"phoebe_wal_halted\""), "stats dump missing/invalid");

    // The incident is also visible as a counter on the scrape path.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.stats().counter("watchdog_incidents") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(db.stats().counter("watchdog_incidents") >= 1);
    db.shutdown();
}

/// How many `worker_stall` incidents are recorded under `root`.
fn worker_stalls(root: &std::path::Path) -> usize {
    std::fs::read_dir(root).map_or(0, |rd| {
        rd.filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("worker_stall"))
            .count()
    })
}

/// A worker whose only task sleeps 300 ms on a transaction-ID lock is idle,
/// not wedged: it polls nothing, but its bounded parks keep charging its
/// time-in-state, so `worker_stall` stays quiet at a 100 ms window. A task
/// that holds the worker's thread 300 ms inside one poll stops the charge
/// and is reported.
#[test]
fn worker_stall_judges_the_heartbeat_not_the_poll_count() {
    let cfg = KernelConfig::builder()
        .workers(1)
        .slots_per_worker(2)
        .data_dir(KernelConfig::for_tests().data_dir)
        .watchdog(WatchdogConfig {
            interval_ms: 10,
            worker_stall_ms: 100,
            cooldown_ms: 60_000,
            ..WatchdogConfig::default()
        })
        .build()
        .unwrap();
    let incident_root = cfg.data_dir.join("incidents");
    let db = Database::open(cfg).unwrap();
    let rt = db.runtime();

    let holder = phoebe_txn::TxnHandle::new(phoebe_common::ids::Xid::from_start_ts(1));
    let waiter = {
        let holder = Arc::clone(&holder);
        rt.spawn(async move { holder.wait(Duration::from_secs(5)).await })
    };
    std::thread::sleep(Duration::from_millis(300));
    holder.finish(phoebe_txn::TxnOutcome::Committed(2));
    assert!(waiter.join().is_ok());
    assert_eq!(worker_stalls(&incident_root), 0, "a sleeping lock wait is not a stall");

    rt.spawn(async { std::thread::sleep(Duration::from_millis(300)) }).join();
    let deadline = Instant::now() + Duration::from_secs(10);
    while worker_stalls(&incident_root) == 0 {
        assert!(Instant::now() < deadline, "a worker blocked inside a poll went unreported");
        std::thread::sleep(Duration::from_millis(10));
    }
    db.shutdown();
}
