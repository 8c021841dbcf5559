//! Per-layer metrics from the kernel's public counters: two snapshots, one
//! at each end of a window, and the differences per committed transaction.

use crate::client::Merged;
use crate::stats::{latencies_in, quantile, Window};
use phoebe_common::hist::LatencySite;
use phoebe_common::metrics::{Component, Counter, MetricsSnapshot};
use phoebe_core::{Database, KernelStats};

/// `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// Everything read at one end of a window.
pub struct Snap {
    pub metrics: MetricsSnapshot,
    pub stats: KernelStats,
    pub cpu_ns: u64,
}

impl Snap {
    pub fn take(db: &Database) -> Result<Snap, String> {
        Ok(Snap {
            metrics: db.metrics.snapshot(),
            stats: db.stats(),
            cpu_ns: crate::host::cpu_time_ns()?,
        })
    }
}

pub fn layer_metrics(
    a: &Snap,
    b: &Snap,
    clients: &Merged,
    kinds: &[&str],
    w: &Window,
) -> Vec<Metric> {
    let d = b.metrics.delta_since(&a.metrics);
    let txns = clients.commits_in(w).max(1) as f64;
    let per_txn = |x: u64| x as f64 / txns;
    let ctr = |c: Counter| d.counter(c);
    let busy_us = |c: Component| d.component_ns(c) as f64 / 1e3 / txns;
    let us = |site: LatencySite, q: f64| d.latency(site).quantile(q) as f64 / 1e3;
    let ratio = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };

    // Worker time-in-state: the four states partition each worker's time.
    let state = |f: fn(&phoebe_core::WorkerStateSummary) -> u64| -> u64 {
        let sum = |s: &KernelStats| s.worker_states.iter().map(f).sum::<u64>();
        sum(&b.stats).saturating_sub(sum(&a.stats))
    };
    let (run, ready, parked, io) = (
        state(|s| s.running_ns),
        state(|s| s.ready_ns),
        state(|s| s.parked_ns),
        state(|s| s.io_ns),
    );
    let all = run + ready + parked + io;

    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_owned(), v, unit));

    put("runtime.running_share", ratio(run, all), "share");
    put("runtime.ready_share", ratio(ready, all), "share");
    put("runtime.parked_share", ratio(parked, all), "share");
    put("runtime.io_share", ratio(io, all), "share");
    put("runtime.polls_per_txn", per_txn(b.stats.runtime.polls - a.stats.runtime.polls), "count");
    put("runtime.parks_per_txn", per_txn(b.stats.runtime.parks - a.stats.runtime.parks), "count");

    put("btree.restarts_per_txn", per_txn(ctr(Counter::LatchRestarts)), "count");
    put("btree.restart_p99_us", us(LatencySite::BtreeRestart, 0.99), "us");
    put("latch.busy_us_per_txn", busy_us(Component::Latch), "us");

    put("buffer.page_reads_per_txn", per_txn(ctr(Counter::PageReads)), "count");
    put("buffer.page_writes_per_txn", per_txn(ctr(Counter::PageWrites)), "count");
    put("buffer.fault_p50_us", us(LatencySite::BufferFault, 0.50), "us");
    put("buffer.fault_p99_us", us(LatencySite::BufferFault, 0.99), "us");
    put("buffer.evict_p99_us", us(LatencySite::Eviction, 0.99), "us");
    put("buffer.fault_suspends_per_txn", per_txn(ctr(Counter::FaultSuspends)), "count");
    put("buffer.busy_us_per_txn", busy_us(Component::Buffer), "us");
    put("buffer.free_frames_end", b.stats.buffer_free_frames as f64, "count");

    put("mvcc.busy_us_per_txn", busy_us(Component::Mvcc), "us");
    put("gc.busy_us_per_txn", busy_us(Component::Gc), "us");
    put("gc.undo_reclaimed_per_txn", per_txn(ctr(Counter::UndoReclaimed)), "count");

    put("locks.busy_us_per_txn", busy_us(Component::Lock), "us");
    put("locks.waits_per_txn", per_txn(d.latency(LatencySite::LockWait).count()), "count");
    put("locks.wait_p99_us", us(LatencySite::LockWait, 0.99), "us");
    put("locks.retries_per_txn", per_txn(clients.retries), "count");

    put("wal.bytes_per_txn", per_txn(ctr(Counter::WalBytes)), "bytes");
    put("wal.commits_per_flush", ratio(ctr(Counter::Commits), ctr(Counter::WalFlushes)), "count");
    put("wal.flush_p50_us", us(LatencySite::WalFlush, 0.50), "us");
    put("wal.flush_p99_us", us(LatencySite::WalFlush, 0.99), "us");
    put("wal.group_commit_p50_us", us(LatencySite::GroupCommit, 0.50), "us");
    put(
        "wal.rfa_early_share",
        ratio(ctr(Counter::RfaEarlyCommits), ctr(Counter::Commits)),
        "share",
    );
    put("wal.remote_waits_per_txn", per_txn(ctr(Counter::RemoteFlushWaits)), "count");
    put("wal.busy_us_per_txn", busy_us(Component::Wal), "us");
    put("wal.backlog_end", b.stats.wal_backlog_records as f64, "count");

    put("core.commit_p50_us", us(LatencySite::Commit, 0.50), "us");
    put("core.commit_p99_us", us(LatencySite::Commit, 0.99), "us");
    put("core.batch_keys_per_txn", per_txn(ctr(Counter::BatchKeys)), "count");

    // The non-primary TPC-C transaction types, as the client saw them
    // (0 on the key-value workloads, which have one type).
    let client_us = |kind: &str, q: f64| -> f64 {
        let Some(k) = kinds.iter().position(|&n| n == kind) else { return 0.0 };
        let lat = latencies_in(&clients.samples[k], w);
        quantile(&lat, q) / 1e3
    };
    put("client.payment_p50_us", client_us("payment", 0.50), "us");
    put("client.payment_p99_us", client_us("payment", 0.99), "us");
    put("client.order_status_p99_us", client_us("order_status", 0.99), "us");
    put("client.delivery_p99_us", client_us("delivery", 0.99), "us");
    put("client.stock_level_p99_us", client_us("stock_level", 0.99), "us");
    out
}
