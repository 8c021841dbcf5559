//! Kernel-side implementation of the live telemetry plane.
//!
//! [`phoebe_common::telemetry`] owns the HTTP listener and the Prometheus
//! text encoder; this module supplies the kernel data behind it: the
//! [`KernelTelemetry`] provider renders `/metrics` from one fresh
//! [`phoebe_common::metrics::MetricsSnapshot`] and the
//! [`KernelStats`](crate::KernelStats) built over it, serves `/stats` via
//! [`KernelStats::to_json`](crate::KernelStats::to_json), and
//! answers `/trace?ms=N` by letting the flight recorder run `N` more
//! milliseconds and then draining the rings live (the seq-validated drain
//! is safe concurrent with writers — nothing stops while the snapshot is
//! taken).
//!
//! The provider holds a `Weak<Database>`: a scrape racing kernel shutdown
//! upgrades to `None` and the server answers 503 instead of touching a
//! dying kernel.

use crate::db::Database;
use phoebe_common::hist::SITES;
use phoebe_common::telemetry::{PromText, TelemetryProvider};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// [`TelemetryProvider`] over a weak kernel reference.
pub struct KernelTelemetry {
    db: Weak<Database>,
}

impl KernelTelemetry {
    pub fn new(db: &Arc<Database>) -> Arc<Self> {
        Arc::new(KernelTelemetry { db: Arc::downgrade(db) })
    }
}

impl TelemetryProvider for KernelTelemetry {
    fn metrics_text(&self) -> Option<String> {
        self.db.upgrade().map(|db| prometheus_text(&db))
    }

    fn stats_json(&self) -> Option<String> {
        self.db.upgrade().map(|db| db.stats().to_json().render())
    }

    fn trace_json(&self, window_ms: u64) -> Option<String> {
        let db = self.db.upgrade()?;
        // Let the recorder fill `window_ms` more before snapshotting. The
        // rings keep recording throughout; the export drains whatever the
        // window currently holds.
        std::thread::sleep(Duration::from_millis(window_ms));
        Some(db.tracer().export_chrome_json())
    }
}

/// Render the full Prometheus text exposition for one kernel: every
/// operational counter, every Figure-12 component, every latency-site
/// histogram (cumulative octave buckets + sum/count), per-worker
/// scheduler time-in-state and progress heartbeats, the WAL /
/// buffer-pool / fault-budget gauges the watchdog also judges, and the GC
/// backlog gauges. One metrics
/// snapshot feeds it: the histograms render from its buckets, everything
/// else from the [`KernelStats`](crate::KernelStats) built over it.
pub fn prometheus_text(db: &Database) -> String {
    let snap = db.metrics.snapshot();
    let stats = db.stats_from_metrics(&snap);
    let mut w = PromText::new();

    w.header("phoebe_counter_total", "Kernel operational counters.", "counter");
    for c in &stats.counters {
        w.sample("phoebe_counter_total", &[("counter", c.name)], c.value);
    }

    w.header(
        "phoebe_component_busy_ns_total",
        "Cumulative busy time per kernel cost component (Figure 12).",
        "counter",
    );
    for c in &stats.components {
        w.sample("phoebe_component_busy_ns_total", &[("component", c.component)], c.busy_ns);
    }
    w.header(
        "phoebe_component_ops_total",
        "Timed sections entered per kernel cost component.",
        "counter",
    );
    for c in &stats.components {
        w.sample("phoebe_component_ops_total", &[("component", c.component)], c.ops);
    }

    w.header(
        "phoebe_latency_ns",
        "Latency distribution per instrumented site, nanoseconds.",
        "histogram",
    );
    for &site in SITES.iter() {
        let h = snap.latency(site);
        w.histogram(
            "phoebe_latency_ns",
            &[("site", site.name())],
            &h.cumulative_octaves(),
            h.sum_ns(),
            h.count(),
        );
    }

    // A kernel without a runtime (shut down) has no worker rows and
    // exports no scheduler series.
    if !stats.worker_states.is_empty() {
        let rt = &stats.runtime;
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
        ] {
            w.header(name, help, "counter");
            w.sample(name, &[], value);
        }
        for (name, help, value) in [
            ("phoebe_runtime_occupied_slots", "Task slots currently seated.", rt.occupied_slots),
            ("phoebe_runtime_ready_tasks", "Spawned tasks waiting for a slot.", rt.ready_tasks),
            (
                "phoebe_runtime_global_queue_depth",
                "Depth of the global injector queue.",
                rt.global_queue_depth,
            ),
        ] {
            w.header(name, help, "gauge");
            w.sample(name, &[], value);
        }

        w.header(
            "phoebe_worker_state_ns_total",
            "Cumulative wall time per worker and scheduler state.",
            "counter",
        );
        for s in &stats.worker_states {
            let worker = s.worker.to_string();
            for (state, ns) in [
                ("running", s.running_ns),
                ("ready", s.ready_ns),
                ("parked", s.parked_ns),
                ("io", s.io_ns),
            ] {
                w.sample(
                    "phoebe_worker_state_ns_total",
                    &[("worker", &worker), ("state", state)],
                    ns,
                );
            }
        }
        w.header(
            "phoebe_worker_polls_total",
            "Task polls per worker (the watchdog progress heartbeat).",
            "counter",
        );
        for s in &stats.worker_states {
            w.sample("phoebe_worker_polls_total", &[("worker", &s.worker.to_string())], s.polls);
        }
        w.header("phoebe_worker_occupied_slots", "Seated task slots per worker.", "gauge");
        for s in &stats.worker_states {
            let worker = s.worker.to_string();
            w.sample("phoebe_worker_occupied_slots", &[("worker", &worker)], s.occupied_slots);
        }
    }

    w.header("phoebe_wal_bytes_flushed_total", "Bytes physically flushed to WAL files.", "counter");
    w.sample("phoebe_wal_bytes_flushed_total", &[], stats.wal_bytes_flushed);
    w.header("phoebe_wal_durable_gsn", "WAL records stamped up to this GSN are durable.", "gauge");
    w.sample("phoebe_wal_durable_gsn", &[], stats.wal_durable_gsn);
    w.header(
        "phoebe_wal_flush_horizon_age_ns",
        "How long the WAL flush horizon has been stuck behind appends.",
        "gauge",
    );
    w.sample("phoebe_wal_flush_horizon_age_ns", &[], stats.wal_flush_horizon_age_ns);
    w.header("phoebe_wal_backlog_records", "WAL records appended but not yet flushed.", "gauge");
    w.sample("phoebe_wal_backlog_records", &[], stats.wal_backlog_records);
    w.header("phoebe_wal_halted", "1 when the WAL hub halted after an I/O failure.", "gauge");
    w.sample("phoebe_wal_halted", &[], u64::from(stats.wal_halted));

    w.header("phoebe_page_file_reads_total", "Pages read from the Data Page File.", "counter");
    w.sample("phoebe_page_file_reads_total", &[], stats.page_file_reads);
    w.header("phoebe_page_file_writes_total", "Pages written to the Data Page File.", "counter");
    w.sample("phoebe_page_file_writes_total", &[], stats.page_file_writes);
    w.header("phoebe_buffer_total_frames", "Buffer pool capacity in frames.", "gauge");
    w.sample("phoebe_buffer_total_frames", &[], stats.buffer_total_frames);
    w.header("phoebe_buffer_free_frames", "Free buffer frames across partitions.", "gauge");
    w.sample("phoebe_buffer_free_frames", &[], stats.buffer_free_frames);
    w.header(
        "phoebe_fault_tickets_inflight",
        "Asynchronous page faults currently in flight.",
        "gauge",
    );
    w.sample("phoebe_fault_tickets_inflight", &[], stats.fault_tickets_inflight);
    w.header(
        "phoebe_fault_budget_limit",
        "In-flight fault cap enforced by buffer-pool backpressure.",
        "gauge",
    );
    w.sample("phoebe_fault_budget_limit", &[], stats.fault_budget_limit);

    w.header("phoebe_undo_backlog", "UNDO logs not yet reclaimed, across all arenas.", "gauge");
    w.sample("phoebe_undo_backlog", &[], stats.undo_backlog);
    w.header("phoebe_twin_tables", "Twin tables in the registry.", "gauge");
    w.sample("phoebe_twin_tables", &[], stats.twin_tables);

    w.header(
        "phoebe_trace_events_emitted_total",
        "Flight-recorder events emitted since boot (0 while disabled).",
        "counter",
    );
    w.sample("phoebe_trace_events_emitted_total", &[], stats.trace_events_emitted);

    w.finish()
}
