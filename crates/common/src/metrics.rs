//! Per-component cycle accounting and operational counters.
//!
//! The paper's Exp 7 (Figure 12) breaks the cost of a TPC-C transaction
//! down into WAL, MVCC, latching, locking, buffer management, GC, and
//! "effective computation". We reproduce that with scoped timers: every
//! kernel subsystem wraps its hot sections in [`Metrics::timer`], and the
//! remainder of a transaction's wall time is attributed to effective
//! computation. Counters additionally track the I/O volumes needed for
//! Exp 3/4 (WAL MB/s, data page read/write MB/s). Per-event latencies go
//! through [`Metrics::probe`], one call per [`LatencySite`].
//!
//! To keep the accounting itself off the contended path, counters are
//! sharded per worker. Worker threads announce themselves once via
//! [`set_current_worker`]; all other threads fall into a shared external
//! shard. A snapshot sums the shards.

use crate::hist::{HistogramSnapshot, LatencyHistogram, LatencySite, NSITES, SITES};
use crate::json::Json;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The cost components of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Component {
    /// De-facto transaction work: everything not claimed by the others.
    Compute = 0,
    /// Building, copying and flushing WAL records (§8).
    Wal = 1,
    /// UNDO creation, version-chain traversal, visibility checks (§6.2).
    Mvcc = 2,
    /// Page latch acquisition, including optimistic restarts (§7.2).
    Latch = 3,
    /// Tuple / transaction-ID / table lock management (§7.2).
    Lock = 4,
    /// Buffer manager: frame allocation, swizzling, page swaps (§5.3).
    Buffer = 5,
    /// Garbage collection of UNDO logs, twin tables, deleted tuples (§7.3).
    Gc = 6,
}

/// All components, in display order for the breakdown figure.
pub const COMPONENTS: [Component; 7] = [
    Component::Compute,
    Component::Wal,
    Component::Mvcc,
    Component::Latch,
    Component::Lock,
    Component::Buffer,
    Component::Gc,
];

impl Component {
    pub fn name(self) -> &'static str {
        match self {
            Component::Compute => "effective computation",
            Component::Wal => "WAL",
            Component::Mvcc => "MVCC",
            Component::Latch => "latching",
            Component::Lock => "locking",
            Component::Buffer => "buffer manager",
            Component::Gc => "GC",
        }
    }
}

const NCOMP: usize = 7;

/// Operational counters used by the throughput/I/O experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    Commits = 0,
    Aborts = 1,
    /// Pages read from the Data Page File into Main Storage.
    PageReads = 2,
    /// Pages written (evicted/checkpointed) to the Data Page File.
    PageWrites = 3,
    /// Bytes appended to WAL buffers.
    WalBytes = 4,
    /// Physical WAL flush operations completed.
    WalFlushes = 5,
    /// Bytes physically flushed to WAL files.
    WalFlushedBytes = 6,
    /// UNDO logs reclaimed by GC.
    UndoReclaimed = 7,
    /// Commits that RFA allowed to skip waiting on remote WAL writers.
    RfaEarlyCommits = 8,
    /// Commits that had to wait for a remote (cross-slot) flush.
    RemoteFlushWaits = 9,
    /// Optimistic latch validation failures that forced a restart.
    LatchRestarts = 10,
    /// Leaf pages compressed into frozen data blocks.
    PagesFrozen = 11,
    /// Frozen rows warmed back into hot storage.
    RowsWarmed = 12,
    /// Committed WAL records replayed by crash recovery in
    /// `Database::open`.
    RecoveryRecordsReplayed = 13,
    /// Bytes discarded from WAL tails during recovery (torn or partial
    /// trailing records past the last CRC-valid one).
    RecoveryTailBytesDiscarded = 14,
    /// Interleaved multi-key batches executed (`multi_get`,
    /// `multi_lookup`, `multi_update_rmw`).
    BatchGets = 15,
    /// Total keys submitted across all batches; `BatchKeys / BatchGets`
    /// is the mean batch depth.
    BatchKeys = 16,
    /// Software prefetches issued by suspended descents for their next
    /// B-tree node.
    PrefetchesIssued = 17,
    /// Descents that suspended on a cold page and handed the fault to the
    /// background fault service instead of blocking.
    FaultSuspends = 18,
    /// Incident records written by the stall watchdog.
    WatchdogIncidents = 19,
}

const NCTR: usize = 20;

/// All counters with stable names (report order).
pub const COUNTERS: [(Counter, &str); NCTR] = [
    (Counter::Commits, "commits"),
    (Counter::Aborts, "aborts"),
    (Counter::PageReads, "page_reads"),
    (Counter::PageWrites, "page_writes"),
    (Counter::WalBytes, "wal_bytes"),
    (Counter::WalFlushes, "wal_flushes"),
    (Counter::WalFlushedBytes, "wal_flushed_bytes"),
    (Counter::UndoReclaimed, "undo_reclaimed"),
    (Counter::RfaEarlyCommits, "rfa_early_commits"),
    (Counter::RemoteFlushWaits, "remote_flush_waits"),
    (Counter::LatchRestarts, "latch_restarts"),
    (Counter::PagesFrozen, "pages_frozen"),
    (Counter::RowsWarmed, "rows_warmed"),
    (Counter::RecoveryRecordsReplayed, "recovery_records_replayed"),
    (Counter::RecoveryTailBytesDiscarded, "recovery_tail_bytes_discarded"),
    (Counter::BatchGets, "batch_gets"),
    (Counter::BatchKeys, "batch_keys"),
    (Counter::PrefetchesIssued, "prefetches_issued"),
    (Counter::FaultSuspends, "fault_suspends"),
    (Counter::WatchdogIncidents, "watchdog_incidents"),
];

#[derive(Default)]
struct Shard {
    comp_ns: [AtomicU64; NCOMP],
    comp_ops: [AtomicU64; NCOMP],
    counters: [AtomicU64; NCTR],
    /// Per-site latency histograms (§ Exp 7: percentile substrate).
    hists: [LatencyHistogram; NSITES],
}

thread_local! {
    static CURRENT_WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Mark the calling thread as worker `id` for metric sharding. Called once
/// by the runtime when a worker thread starts.
pub fn set_current_worker(id: usize) {
    CURRENT_WORKER.with(|c| c.set(id));
}

/// The worker index of the calling thread, if it is a pool worker.
pub fn current_worker() -> Option<usize> {
    let v = CURRENT_WORKER.with(|c| c.get());
    (v != usize::MAX).then_some(v)
}

/// Sharded metrics registry; one instance per kernel.
pub struct Metrics {
    shards: Box<[Shard]>,
    /// The kernel flight recorder, sharded the same way. Disabled by
    /// default; riding on `Metrics` lets every subsystem that already
    /// holds a metrics handle emit trace events without new plumbing.
    tracer: std::sync::Arc<crate::trace::Tracer>,
}

impl Metrics {
    /// Create a registry for `workers` pool threads (plus one shard for
    /// everything else: loaders, background threads, tests). The flight
    /// recorder is disabled; see [`Metrics::with_tracer`].
    pub fn new(workers: usize) -> Self {
        Metrics::with_tracer(workers, std::sync::Arc::new(crate::trace::Tracer::disabled()))
    }

    /// Create a registry with an attached flight recorder.
    pub fn with_tracer(workers: usize, tracer: std::sync::Arc<crate::trace::Tracer>) -> Self {
        let mut shards = Vec::with_capacity(workers + 1);
        shards.resize_with(workers + 1, Shard::default);
        Metrics { shards: shards.into_boxed_slice(), tracer }
    }

    /// The attached flight recorder (disabled unless configured).
    #[inline]
    pub fn tracer(&self) -> &crate::trace::Tracer {
        &self.tracer
    }

    #[inline]
    fn shard(&self) -> &Shard {
        let idx = CURRENT_WORKER.with(|c| c.get());
        let last = self.shards.len() - 1;
        &self.shards[if idx < last { idx } else { last }]
    }

    /// Start a scoped timer attributing elapsed time to `component`.
    #[inline]
    pub fn timer(&self, component: Component) -> ScopedTimer<'_> {
        self.timer_since(component, Instant::now())
    }

    /// [`Metrics::timer`] for work that began at `start`, a clock read the
    /// caller already made.
    #[inline]
    pub fn timer_since(&self, component: Component, start: Instant) -> ScopedTimer<'_> {
        ScopedTimer { metrics: self, component, start }
    }

    /// Record `ns` nanoseconds and one operation against `component`.
    #[inline]
    pub fn record(&self, component: Component, ns: u64) {
        let s = self.shard();
        s.comp_ns[component as usize].fetch_add(ns, Ordering::Relaxed);
        s.comp_ops[component as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Bump a counter by `n`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.shard().counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Bump a counter by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Measure one event at `site`, starting now (see [`Probe`]).
    #[inline]
    pub fn probe(&self, site: LatencySite, slot: u32, arg: u64) -> Probe<'_> {
        self.probe_since(site, slot, arg, Instant::now())
    }

    /// [`Metrics::probe`] for an event that began at `start`, a clock read
    /// the caller already made: a transaction's first instant, the round
    /// start its segment waves share, a descent attempt's start.
    #[inline]
    pub fn probe_since(&self, site: LatencySite, slot: u32, arg: u64, start: Instant) -> Probe<'_> {
        Probe { metrics: self, site, slot, arg, start }
    }

    /// One counter summed over the shards, without a full snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.shards.iter().map(|s| s.counters[counter as usize].load(Ordering::Relaxed)).sum()
    }

    /// Sum all shards into an immutable snapshot — O(workers) merges of
    /// fixed-size arrays, no locks taken.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for s in self.shards.iter() {
            for i in 0..NCOMP {
                snap.comp_ns[i] += s.comp_ns[i].load(Ordering::Relaxed);
                snap.comp_ops[i] += s.comp_ops[i].load(Ordering::Relaxed);
            }
            for i in 0..NCTR {
                snap.counters[i] += s.counters[i].load(Ordering::Relaxed);
            }
            for i in 0..NSITES {
                s.hists[i].merge_into(&mut snap.latency[i]);
            }
        }
        snap
    }
}

/// RAII guard produced by [`Metrics::timer`].
pub struct ScopedTimer<'a> {
    metrics: &'a Metrics,
    component: Component,
    start: Instant,
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.metrics.record(self.component, ns);
    }
}

/// One event being measured at a [`LatencySite`]: the kernel's single
/// emit point per site. Closing it — [`Probe::finish`] or drop — reads the
/// clock once more and books that one duration twice: as the site's
/// histogram sample in the calling worker's shard and, when the tracer is
/// on, as the site's ring event ([`LatencySite::event`], `b` = `arg`). The
/// histogram and the flight recorder therefore agree on count and time.
#[must_use = "a probe measures until it is finished or dropped"]
pub struct Probe<'a> {
    metrics: &'a Metrics,
    site: LatencySite,
    slot: u32,
    arg: u64,
    start: Instant,
}

impl Probe<'_> {
    /// Close the probe now. Returns the finish instant, so the caller can
    /// start its next measurement there without another clock read.
    pub fn finish(self) -> Instant {
        let end = self.close();
        std::mem::forget(self); // already closed; skip the drop
        end
    }

    fn close(&self) -> Instant {
        let end = Instant::now();
        let ns = end.saturating_duration_since(self.start).as_nanos() as u64;
        self.metrics.shard().hists[self.site as usize].record(ns);
        self.metrics.tracer.span(self.site.event(), self.slot, self.start, end, self.arg);
        end
    }
}

impl Drop for Probe<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A summed, point-in-time view of a [`Metrics`] registry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    comp_ns: [u64; NCOMP],
    comp_ops: [u64; NCOMP],
    counters: [u64; NCTR],
    latency: [HistogramSnapshot; NSITES],
}

impl MetricsSnapshot {
    pub fn component_ns(&self, c: Component) -> u64 {
        self.comp_ns[c as usize]
    }

    pub fn component_ops(&self, c: Component) -> u64 {
        self.comp_ops[c as usize]
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The merged latency histogram for one instrumented site.
    pub fn latency(&self, site: LatencySite) -> &HistogramSnapshot {
        &self.latency[site as usize]
    }

    /// Every site's percentile summary, one object keyed by site name.
    pub fn latency_json(&self) -> Json {
        let mut obj = Json::obj();
        for &site in SITES.iter() {
            let h = self.latency(site);
            obj.set(
                site.name(),
                Json::obj()
                    .with("count", h.count())
                    .with("mean_ns", h.mean_ns() as u64)
                    .with("max_ns", h.max_ns())
                    .with("p50_ns", h.p50())
                    .with("p95_ns", h.p95())
                    .with("p99_ns", h.p99()),
            );
        }
        obj
    }

    /// `self - earlier`, element-wise (for interval reporting).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for i in 0..NCOMP {
            out.comp_ns[i] = self.comp_ns[i].saturating_sub(earlier.comp_ns[i]);
            out.comp_ops[i] = self.comp_ops[i].saturating_sub(earlier.comp_ops[i]);
        }
        for i in 0..NCTR {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..NSITES {
            out.latency[i] = self.latency[i].delta_since(&earlier.latency[i]);
        }
        out
    }

    /// Component shares of total accounted time, as Figure 12 reports.
    /// `total_busy_ns` should be the transactions' total wall time; the part
    /// not claimed by any instrumented component is booked as Compute.
    pub fn breakdown(&self, total_busy_ns: u64) -> Vec<(Component, f64)> {
        let instrumented: u64 = COMPONENTS.iter().skip(1).map(|&c| self.component_ns(c)).sum();
        let total = total_busy_ns.max(instrumented);
        let compute = total - instrumented;
        let mut out = Vec::with_capacity(NCOMP);
        out.push((Component::Compute, compute as f64 / total.max(1) as f64));
        for &c in COMPONENTS.iter().skip(1) {
            out.push((c, self.component_ns(c) as f64 / total.max(1) as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_attributes_time_to_component() {
        let m = Metrics::new(1);
        {
            let _t = m.timer(Component::Wal);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = m.snapshot();
        assert!(s.component_ns(Component::Wal) >= 1_000_000);
        assert_eq!(s.component_ops(Component::Wal), 1);
        assert_eq!(s.component_ns(Component::Gc), 0);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let m = std::sync::Arc::new(Metrics::new(2));
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let m = m.clone();
                std::thread::spawn(move || {
                    set_current_worker(w);
                    for _ in 0..100 {
                        m.incr(Counter::Commits);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.add(Counter::Commits, 5); // external shard
        assert_eq!(m.snapshot().counter(Counter::Commits), 205);
    }

    #[test]
    fn delta_subtracts_elementwise() {
        let m = Metrics::new(1);
        m.add(Counter::WalBytes, 100);
        let a = m.snapshot();
        m.add(Counter::WalBytes, 50);
        let b = m.snapshot();
        assert_eq!(b.delta_since(&a).counter(Counter::WalBytes), 50);
    }

    #[test]
    fn breakdown_sums_to_one_and_books_remainder_as_compute() {
        let m = Metrics::new(1);
        m.record(Component::Wal, 300);
        m.record(Component::Mvcc, 200);
        let shares = m.snapshot().breakdown(1_000);
        let total: f64 = shares.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let compute = shares.iter().find(|(c, _)| *c == Component::Compute).unwrap().1;
        assert!((compute - 0.5).abs() < 1e-9);
    }

    #[test]
    fn breakdown_handles_overcounted_busy_time() {
        let m = Metrics::new(1);
        m.record(Component::Wal, 2_000);
        // busy time below instrumented time must not underflow
        let shares = m.snapshot().breakdown(1_000);
        assert!(shares.iter().all(|(_, f)| *f >= 0.0));
    }

    #[test]
    fn external_threads_use_last_shard() {
        set_current_worker(usize::MAX); // ensure unset semantics on this thread
        let m = Metrics::new(3);
        m.incr(Counter::Aborts);
        assert_eq!(m.snapshot().counter(Counter::Aborts), 1);
    }
}
