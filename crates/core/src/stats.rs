//! Kernel-wide observability: [`KernelStats`] snapshots and the one table
//! of series every reader renders.
//!
//! [`Database::stats`] takes one [`MetricsSnapshot`] — counters,
//! Figure-12 component time and the per-site latency histograms, merged
//! over the worker shards in O(workers) — and reads the runtime, WAL,
//! buffer-pool, GC and flight-recorder gauges beside it, each once.
//! [`KernelStats::series`] lists every exposed scalar exactly once (name,
//! help, Prometheus type, labels, value). `/metrics`
//! ([`crate::telemetry::prometheus_text`]) renders that table plus the site
//! histograms, `/stats` ([`KernelStats::to_json`]) renders the same table
//! plus the sites' percentiles, and the watchdog reads the typed fields.
//! Interval views come from [`Database::stats_from_metrics`] over a
//! `MetricsSnapshot::delta_since`.

use crate::db::Database;
use phoebe_common::hist::{HistogramSnapshot, LatencySite};
use phoebe_common::json::Json;
use phoebe_common::metrics::{MetricsSnapshot, COMPONENTS, COUNTERS};
use phoebe_runtime::{RuntimeStats, WorkerStateSummary};

/// A point-in-time view of the whole kernel, kept as it was read.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Counters, component time and latency histograms (an interval's
    /// worth when built over a delta).
    pub metrics: MetricsSnapshot,
    /// Scheduler totals (all zero once the runtime has shut down).
    pub runtime: RuntimeStats,
    /// One scheduler row per worker (empty once the runtime has shut down).
    pub worker_states: Vec<WorkerStateSummary>,
    /// Every WAL record stamped at or below this GSN is durable (the last
    /// group-commit round's tick minus one; it rises with every round).
    pub wal_durable_gsn: u64,
    /// How long the WAL flush horizon has been stuck behind the append
    /// horizon (0 while the rounds keep up).
    pub wal_flush_horizon_age_ns: u64,
    /// Records appended but not yet flushed, summed across slot writers.
    pub wal_backlog_records: u64,
    /// Whether the WAL hub halted after an I/O failure.
    pub wal_halted: bool,
    pub buffer_total_frames: u64,
    /// Free frames across the buffer pool's partitions.
    pub buffer_free_frames: u64,
    /// Asynchronous page faults currently in flight.
    pub fault_tickets_inflight: u64,
    /// The in-flight fault cap backpressure enforces.
    pub fault_budget_limit: u64,
    /// Flight-recorder events emitted since boot (0 while disabled).
    pub trace_events_emitted: u64,
    /// UNDO logs not yet reclaimed, across every arena. A backlog that only
    /// grows means some arena has no collector.
    pub undo_backlog: u64,
    /// Twin tables in the registry: pages with live versions, plus drained
    /// ones GC has not retired yet.
    pub twin_tables: u64,
}

/// One exposed scalar: a `/metrics` sample and a `/stats` leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    pub name: &'static str,
    pub help: &'static str,
    /// The Prometheus type: `"counter"` for a `_total` name, else `"gauge"`.
    pub kind: &'static str,
    /// `(label, value)` pairs; `/stats` nests the value under the label
    /// values, in this order.
    pub labels: Vec<(&'static str, String)>,
    pub value: u64,
}

impl KernelStats {
    /// The merged histogram of one latency site.
    pub fn latency(&self, site: LatencySite) -> &HistogramSnapshot {
        self.metrics.latency(site)
    }

    /// A counter by its [`COUNTERS`] name (0 for unknown names).
    pub fn counter(&self, name: &str) -> u64 {
        COUNTERS.iter().find(|c| c.1 == name).map_or(0, |&(c, _)| self.metrics.counter(c))
    }

    /// Every exposed scalar, once, with the rows of one family adjacent.
    pub fn series(&self) -> Vec<Series> {
        let mut t = Vec::new();
        let mut row = |name: &'static str, help, labels: &[(&'static str, &str)], value| {
            let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
            let labels = labels.iter().map(|&(k, v)| (k, v.to_owned())).collect();
            t.push(Series { name, help, kind, labels, value });
        };
        let m = &self.metrics;
        for &(c, name) in COUNTERS.iter() {
            let help = "Kernel operational counters.";
            row("phoebe_counter_total", help, &[("counter", name)], m.counter(c));
        }
        for &c in COMPONENTS.iter() {
            let help = "Cumulative busy time per kernel cost component (Figure 12).";
            row(
                "phoebe_component_busy_ns_total",
                help,
                &[("component", c.name())],
                m.component_ns(c),
            );
        }
        for &c in COMPONENTS.iter() {
            let help = "Timed sections entered per kernel cost component.";
            row("phoebe_component_ops_total", help, &[("component", c.name())], m.component_ops(c));
        }
        // A kernel without a runtime (shut down) has no worker rows and
        // exports no scheduler series.
        let rt = &self.runtime;
        for (name, help, value) in [
            (
                "phoebe_runtime_tasks_completed_total",
                "Co-routines run to completion.",
                rt.tasks_completed,
            ),
            ("phoebe_runtime_polls_total", "Task polls across all workers.", rt.polls),
            ("phoebe_runtime_parks_total", "Times a worker parked empty-handed.", rt.parks),
            (
                "phoebe_runtime_tasks_pulled_global_total",
                "Tasks pulled from the global injector.",
                rt.tasks_pulled_global,
            ),
            (
                "phoebe_runtime_tasks_pulled_local_total",
                "Tasks pulled from local queues.",
                rt.tasks_pulled_local,
            ),
            (
                "phoebe_runtime_urgent_pull_stalls_total",
                "Urgent pulls that found nothing runnable.",
                rt.urgent_pull_stalls,
            ),
            ("phoebe_runtime_occupied_slots", "Task slots currently seated.", rt.occupied_slots),
            ("phoebe_runtime_ready_tasks", "Spawned tasks waiting for a slot.", rt.ready_tasks),
            (
                "phoebe_runtime_global_queue_depth",
                "Depth of the global injector queue.",
                rt.global_queue_depth,
            ),
        ] {
            if !self.worker_states.is_empty() {
                row(name, help, &[], value);
            }
        }
        let workers: Vec<String> = (0..self.worker_states.len()).map(|w| w.to_string()).collect();
        for (w, s) in workers.iter().zip(&self.worker_states) {
            let help = "Cumulative wall time per worker and scheduler state.";
            for (state, ns) in [
                ("running", s.running_ns),
                ("ready", s.ready_ns),
                ("parked", s.parked_ns),
                ("io", s.io_ns),
            ] {
                row("phoebe_worker_state_ns_total", help, &[("worker", w), ("state", state)], ns);
            }
        }
        for (w, s) in workers.iter().zip(&self.worker_states) {
            let help = "Task polls per worker (the watchdog progress heartbeat).";
            row("phoebe_worker_polls_total", help, &[("worker", w)], s.polls);
        }
        for (w, s) in workers.iter().zip(&self.worker_states) {
            row(
                "phoebe_worker_occupied_slots",
                "Seated task slots per worker.",
                &[("worker", w)],
                s.occupied_slots,
            );
        }
        for (name, help, value) in [
            (
                "phoebe_wal_durable_gsn",
                "WAL records stamped up to this GSN are durable.",
                self.wal_durable_gsn,
            ),
            (
                "phoebe_wal_flush_horizon_age_ns",
                "How long the WAL flush horizon has been stuck behind appends.",
                self.wal_flush_horizon_age_ns,
            ),
            (
                "phoebe_wal_backlog_records",
                "WAL records appended but not yet flushed.",
                self.wal_backlog_records,
            ),
            (
                "phoebe_wal_halted",
                "1 when the WAL hub halted after an I/O failure.",
                u64::from(self.wal_halted),
            ),
            (
                "phoebe_buffer_total_frames",
                "Buffer pool capacity in frames.",
                self.buffer_total_frames,
            ),
            (
                "phoebe_buffer_free_frames",
                "Free buffer frames across partitions.",
                self.buffer_free_frames,
            ),
            (
                "phoebe_fault_tickets_inflight",
                "Asynchronous page faults currently in flight.",
                self.fault_tickets_inflight,
            ),
            (
                "phoebe_fault_budget_limit",
                "In-flight fault cap enforced by buffer-pool backpressure.",
                self.fault_budget_limit,
            ),
            (
                "phoebe_undo_backlog",
                "UNDO logs not yet reclaimed, across all arenas.",
                self.undo_backlog,
            ),
            ("phoebe_twin_tables", "Twin tables in the registry.", self.twin_tables),
            (
                "phoebe_trace_events_emitted_total",
                "Flight-recorder events emitted since boot (0 while disabled).",
                self.trace_events_emitted,
            ),
        ] {
            row(name, help, &[], value);
        }
        t
    }

    /// `/stats`: the [`series`](Self::series) table as one JSON object —
    /// each family under its `/metrics` name, its value nested under its
    /// label values — plus `phoebe_latency_ns`, every site's percentiles.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        for s in self.series() {
            let mut node = out.entry(s.name);
            for (_, v) in &s.labels {
                node = node.entry(v);
            }
            *node = s.value.into();
        }
        out.with("phoebe_latency_ns", self.metrics.latency_json())
    }
}

impl Database {
    /// One [`KernelStats`] snapshot: every worker's metric shard merged,
    /// plus the live gauges. O(workers) array merges plus a handful of
    /// atomic loads; safe to call from any thread at any frequency.
    pub fn stats(&self) -> KernelStats {
        self.stats_from_metrics(self.metrics.snapshot())
    }

    /// Decorate a (possibly delta'd) metrics snapshot with the kernel's
    /// live gauges: counters, component time and histograms cover what
    /// `metrics` covers, everything else is read now. The only reader of the
    /// runtime, WAL, buffer-pool and GC gauges: `/metrics`, `/stats` and the
    /// watchdog all see the kernel through the `KernelStats` built here.
    pub fn stats_from_metrics(&self, metrics: MetricsSnapshot) -> KernelStats {
        let (runtime, worker_states) =
            self.try_runtime().map(|rt| rt.stats_by_worker()).unwrap_or_default();
        let pool = &self.pool;
        KernelStats {
            metrics,
            runtime,
            worker_states,
            wal_durable_gsn: self.wal.durable_gsn(),
            wal_flush_horizon_age_ns: self.wal.flush_horizon_age_ns(),
            wal_backlog_records: self.wal.backlog_records(),
            wal_halted: self.wal.is_halted(),
            buffer_total_frames: pool.total_frames() as u64,
            buffer_free_frames: (0..pool.partition_count())
                .map(|p| pool.free_frames(p) as u64)
                .sum(),
            fault_tickets_inflight: pool.faults_inflight() as u64,
            fault_budget_limit: pool.fault_budget_limit() as u64,
            trace_events_emitted: self.tracer().total_emitted(),
            undo_backlog: self.undo_backlog() as u64,
            twin_tables: self.twins.len() as u64,
        }
    }
}
