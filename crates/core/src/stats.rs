//! Kernel-wide observability: [`KernelStats`] snapshots.
//!
//! [`Database::stats`] merges the per-worker metric shards — counters,
//! Figure-12 component costs, and the per-site latency histograms — in
//! O(workers), then decorates the result with runtime, WAL and buffer-pool
//! gauges. The snapshot is plain data: serde-derived and convertible to a
//! single-line JSON document via [`KernelStats::to_json`], which is what
//! the benchmark binaries emit for machine consumption. Interval views
//! come from [`Database::stats_from_metrics`] over a
//! `MetricsSnapshot::delta_since`, or from `/metrics` scrapes.

use crate::db::Database;
use phoebe_common::hist::{LatencySite, SITES};
use phoebe_common::json::Json;
use phoebe_common::metrics::{MetricsSnapshot, COMPONENTS, COUNTERS};
use serde::{Deserialize, Serialize};

/// Percentile summary of one instrumented latency site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Stable site name (e.g. `"commit"`, `"wal_flush"`).
    pub site: &'static str,
    pub count: u64,
    pub mean_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// One Figure-12 cost component's accumulated busy time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentCost {
    pub component: &'static str,
    pub busy_ns: u64,
    pub ops: u64,
}

/// A named operational counter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterValue {
    pub name: &'static str,
    pub value: u64,
}

/// Scheduler gauges lifted from [`phoebe_runtime::RuntimeStats`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuntimeGauges {
    pub tasks_completed: u64,
    pub polls: u64,
    pub parks: u64,
    pub tasks_pulled_global: u64,
    pub tasks_pulled_local: u64,
    pub urgent_pull_stalls: u64,
    /// Task slots currently seated (gauge, sampled at snapshot time).
    #[serde(default)]
    pub occupied_slots: u64,
    /// Spawned tasks waiting for a slot: global + local queues (gauge).
    #[serde(default)]
    pub ready_tasks: u64,
    /// Depth of the global injector queue alone (gauge).
    #[serde(default)]
    pub global_queue_depth: u64,
}

/// One worker's scheduler time-in-state split (see
/// [`phoebe_runtime::WorkerTimeInState`]), cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStateSummary {
    pub worker: usize,
    /// Polling seated co-routines (useful work).
    pub running_ns: u64,
    /// Pull/bookkeeping between polls — scheduling overhead.
    pub ready_ns: u64,
    /// Parked with nothing runnable.
    pub parked_ns: u64,
    /// Worker-hook background duties: page swaps, GC.
    pub io_ns: u64,
    /// Task polls on this worker (cumulative).
    #[serde(default)]
    pub polls: u64,
    /// Task slots seated on this worker (gauge).
    #[serde(default)]
    pub occupied_slots: u64,
}

/// A merged, point-in-time view of the whole kernel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KernelStats {
    /// Operational counters (commits, aborts, page I/O, WAL volume, ...).
    pub counters: Vec<CounterValue>,
    /// Per-component busy time (the paper's Figure 12 substrate).
    pub components: Vec<ComponentCost>,
    /// Latency percentiles for every instrumented site.
    pub latency: Vec<LatencySummary>,
    /// Co-routine scheduler gauges.
    pub runtime: RuntimeGauges,
    /// Per-worker scheduler time-in-state (running/ready/parked/io).
    #[serde(default)]
    pub worker_states: Vec<WorkerStateSummary>,
    /// Bytes physically flushed across all slot WAL writers.
    pub wal_bytes_flushed: u64,
    /// Every WAL record stamped at or below this GSN is durable (the last
    /// group-commit round's tick minus one; it rises with every round).
    pub wal_durable_gsn: u64,
    /// How long the WAL flush horizon has been stuck behind the append
    /// horizon (gauge; 0 while the flusher keeps up).
    #[serde(default)]
    pub wal_flush_horizon_age_ns: u64,
    /// Records appended but not yet flushed, summed across slot writers.
    #[serde(default)]
    pub wal_backlog_records: u64,
    /// Whether the WAL hub halted after an I/O failure.
    #[serde(default)]
    pub wal_halted: bool,
    /// Physical (reads, writes) against the Data Page File.
    pub page_file_reads: u64,
    pub page_file_writes: u64,
    /// Buffer pool shape and occupancy.
    pub buffer_total_frames: u64,
    pub buffer_free_frames: u64,
    /// Asynchronous page faults currently in flight (gauge).
    #[serde(default)]
    pub fault_tickets_inflight: u64,
    /// The in-flight fault cap backpressure enforces.
    #[serde(default)]
    pub fault_budget_limit: u64,
    /// Flight-recorder events emitted since boot (0 while disabled).
    #[serde(default)]
    pub trace_events_emitted: u64,
    /// UNDO logs not yet reclaimed, across every arena (gauge). A backlog
    /// that only grows means some arena has no collector.
    #[serde(default)]
    pub undo_backlog: u64,
    /// Twin tables in the registry (gauge): pages with live versions, plus
    /// drained ones GC has not retired yet.
    #[serde(default)]
    pub twin_tables: u64,
}

impl KernelStats {
    /// Build the metric-derived part of a snapshot from a (possibly
    /// delta'd) [`MetricsSnapshot`].
    fn from_metrics(snap: &MetricsSnapshot) -> KernelStats {
        let counters = COUNTERS
            .iter()
            .map(|&(c, name)| CounterValue { name, value: snap.counter(c) })
            .collect();
        let components = COMPONENTS
            .iter()
            .map(|&c| ComponentCost {
                component: c.name(),
                busy_ns: snap.component_ns(c),
                ops: snap.component_ops(c),
            })
            .collect();
        let latency = SITES
            .iter()
            .map(|&site| {
                let h = snap.latency(site);
                LatencySummary {
                    site: site.name(),
                    count: h.count(),
                    mean_ns: h.mean_ns() as u64,
                    max_ns: h.max_ns(),
                    p50_ns: h.p50(),
                    p95_ns: h.p95(),
                    p99_ns: h.p99(),
                }
            })
            .collect();
        KernelStats { counters, components, latency, ..KernelStats::default() }
    }

    /// The summary for one latency site.
    pub fn latency(&self, site: LatencySite) -> &LatencySummary {
        // SITES order == construction order, so index by discriminant.
        &self.latency[site as usize]
    }

    /// A named counter's value (0 for unknown names).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Render as a JSON value tree (one object, no external deps).
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for c in &self.counters {
            counters = counters.with(c.name, c.value);
        }
        let mut components = Json::obj();
        for c in &self.components {
            components = components
                .with(c.component, Json::obj().with("busy_ns", c.busy_ns).with("ops", c.ops));
        }
        let mut latency = Json::obj();
        for l in &self.latency {
            latency = latency.with(
                l.site,
                Json::obj()
                    .with("count", l.count)
                    .with("mean_ns", l.mean_ns)
                    .with("max_ns", l.max_ns)
                    .with("p50_ns", l.p50_ns)
                    .with("p95_ns", l.p95_ns)
                    .with("p99_ns", l.p99_ns),
            );
        }
        Json::obj()
            .with("counters", counters)
            .with("components", components)
            .with("latency", latency)
            .with(
                "runtime",
                Json::obj()
                    .with("tasks_completed", self.runtime.tasks_completed)
                    .with("polls", self.runtime.polls)
                    .with("parks", self.runtime.parks)
                    .with("tasks_pulled_global", self.runtime.tasks_pulled_global)
                    .with("tasks_pulled_local", self.runtime.tasks_pulled_local)
                    .with("urgent_pull_stalls", self.runtime.urgent_pull_stalls)
                    .with("occupied_slots", self.runtime.occupied_slots)
                    .with("ready_tasks", self.runtime.ready_tasks)
                    .with("global_queue_depth", self.runtime.global_queue_depth)
                    .with(
                        "workers",
                        self.worker_states
                            .iter()
                            .map(|w| {
                                Json::obj()
                                    .with("worker", w.worker)
                                    .with("running_ns", w.running_ns)
                                    .with("ready_ns", w.ready_ns)
                                    .with("parked_ns", w.parked_ns)
                                    .with("io_ns", w.io_ns)
                                    .with("polls", w.polls)
                                    .with("occupied_slots", w.occupied_slots)
                            })
                            .collect::<Vec<Json>>(),
                    ),
            )
            .with(
                "wal",
                Json::obj()
                    .with("bytes_flushed", self.wal_bytes_flushed)
                    .with("durable_gsn", self.wal_durable_gsn)
                    .with("flush_horizon_age_ns", self.wal_flush_horizon_age_ns)
                    .with("backlog_records", self.wal_backlog_records)
                    .with("halted", self.wal_halted),
            )
            .with(
                "buffer",
                Json::obj()
                    .with("page_file_reads", self.page_file_reads)
                    .with("page_file_writes", self.page_file_writes)
                    .with("total_frames", self.buffer_total_frames)
                    .with("free_frames", self.buffer_free_frames)
                    .with("fault_tickets_inflight", self.fault_tickets_inflight)
                    .with("fault_budget_limit", self.fault_budget_limit),
            )
            .with("trace", Json::obj().with("events_emitted", self.trace_events_emitted))
            .with(
                "gc",
                Json::obj()
                    .with("undo_backlog", self.undo_backlog)
                    .with("twin_tables", self.twin_tables),
            )
    }
}

impl Database {
    /// Merge every worker's metric shard into one [`KernelStats`] snapshot.
    /// O(workers) array merges plus a handful of atomic gauge loads; safe
    /// to call from any thread at any frequency.
    pub fn stats(&self) -> KernelStats {
        self.stats_from_metrics(&self.metrics.snapshot())
    }

    /// Decorate a (possibly delta'd) metrics snapshot with the kernel's
    /// live gauges: counters, component time and histograms cover what
    /// `snap` covers, everything else is read now. The only reader of the
    /// runtime, WAL, buffer-pool and GC gauges: `/metrics`, `/stats` and the
    /// watchdog all see the kernel through the `KernelStats` built here.
    pub fn stats_from_metrics(&self, snap: &MetricsSnapshot) -> KernelStats {
        let mut out = KernelStats::from_metrics(snap);
        if let Some(rt) = self.try_runtime() {
            let rs = rt.stats();
            out.runtime = RuntimeGauges {
                tasks_completed: rs.tasks_completed,
                polls: rs.polls,
                parks: rs.parks,
                tasks_pulled_global: rs.tasks_pulled_global,
                tasks_pulled_local: rs.tasks_pulled_local,
                urgent_pull_stalls: rs.urgent_pull_stalls,
                occupied_slots: rs.occupied_slots,
                ready_tasks: rs.ready_tasks,
                global_queue_depth: rs.global_queue_depth,
            };
            out.worker_states = rs
                .worker_state_ns
                .iter()
                .enumerate()
                .map(|(worker, s)| WorkerStateSummary {
                    worker,
                    running_ns: s.running_ns,
                    ready_ns: s.ready_ns,
                    parked_ns: s.parked_ns,
                    io_ns: s.io_ns,
                    polls: rs.worker_polls[worker],
                    occupied_slots: rs.worker_occupied[worker],
                })
                .collect();
        }
        out.wal_bytes_flushed = self.wal.total_bytes_flushed();
        out.wal_durable_gsn = self.wal.durable_gsn();
        out.wal_flush_horizon_age_ns = self.wal.flush_horizon_age_ns();
        out.wal_backlog_records = self.wal.backlog_records();
        out.wal_halted = self.wal.is_halted();
        let (r, w) = self.pool.io_counts();
        out.page_file_reads = r;
        out.page_file_writes = w;
        out.buffer_total_frames = self.pool.total_frames() as u64;
        out.buffer_free_frames =
            (0..self.pool.partition_count()).map(|p| self.pool.free_frames(p) as u64).sum();
        out.fault_tickets_inflight = self.pool.faults_inflight() as u64;
        out.fault_budget_limit = self.pool.fault_budget_limit() as u64;
        out.trace_events_emitted = self.tracer().total_emitted();
        out.undo_backlog = self.undo_backlog() as u64;
        out.twin_tables = self.twins.len() as u64;
        out
    }
}
