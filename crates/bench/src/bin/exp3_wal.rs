//! Exp 3 / Figure 7(b): WAL flushing throughput over time.
//!
//! Paper: ~1800 MB/s sustained via io_uring on an NVMe SSD, stable for the
//! whole run. Here every slot buffer drains into one log file: each
//! group-commit round gathers them into one write followed by one
//! `fdatasync`. Nobody here waits on a commit, so one thread of this
//! experiment runs the rounds back to back; the shape to observe is a
//! *stable* MB/s series.

use phoebe_bench::*;
use phoebe_common::ids::Xid;
use phoebe_common::metrics::Metrics;
use phoebe_storage::schema::Value;
use phoebe_wal::{RecordBody, WalHub};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let writers: usize = env_or("PHOEBE_WAL_WRITERS", 16);
    let appenders: usize = env_or("PHOEBE_WAL_APPENDERS", 4);
    let secs: u64 = env_or("PHOEBE_DURATION_SECS", 6);
    let dir = fresh_dir("exp3");
    let hub = WalHub::new(
        &dir,
        writers,
        0, // I/O threads: none, a round's leader writes and syncs itself
        Duration::from_micros(200),
        true,
        Arc::new(Metrics::new(appenders)),
    )
    .expect("wal hub");
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..appenders)
        .map(|a| {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let tuple: Vec<Value> =
                    (0..8).map(Value::I64).chain([Value::Str("x".repeat(64))]).collect();
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let slot = (a + i as usize * appenders) % hub.writer_count();
                    let gsn = hub.current_gsn();
                    hub.log_op(
                        slot,
                        Xid::from_start_ts(i + 1),
                        gsn,
                        RecordBody::Insert {
                            table: phoebe_common::ids::TableId(1),
                            row: phoebe_common::ids::RowId(i + 1),
                            tuple: tuple.clone(),
                        },
                    );
                    i += 1;
                }
                i
            })
        })
        .collect();
    let rounds = {
        let (hub, stop) = (Arc::clone(&hub), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                hub.flush_all().expect("wal round");
            }
        })
    };
    let hub2 = Arc::clone(&hub);
    let mut last = 0u64;
    let sampler = Sampler::start(Duration::from_millis(500), move |t| {
        let now = hub2.total_bytes_flushed();
        let rate = (now - last) as f64 / 0.5 / 1e6;
        last = now;
        vec![format!("{t:.1}"), f(rate)]
    });
    std::thread::sleep(Duration::from_secs(secs));
    stop.store(true, Ordering::Release);
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    rounds.join().unwrap();
    let rows = sampler.finish();
    let headers = ["t (s)", "MB/s"];
    print_table(
        &format!(
            "Exp 3 (Fig 7b): WAL flush throughput, {writers} slot writers, {appenders} appenders"
        ),
        &headers,
        &rows,
    );
    println!("records appended: {total}; bytes flushed: {}", hub.total_bytes_flushed());
    println!("paper shape: stable throughput for the whole run (~1800 MB/s on their NVMe)");
    emit_json(
        "exp3_wal",
        phoebe_common::Json::obj()
            .with("writers", writers as u64)
            .with("appenders", appenders as u64)
            .with("records_appended", total)
            .with("bytes_flushed", hub.total_bytes_flushed())
            .with("series", rows_json(&headers, &rows))
            .with("latency", hub.metrics_snapshot().latency_json()),
    );
    hub.shutdown();
}
