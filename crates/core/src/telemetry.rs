//! Kernel-side implementation of the live telemetry plane.
//!
//! [`phoebe_common::telemetry`] owns the HTTP listener and the Prometheus
//! text encoder; this module supplies the kernel data behind it: the
//! [`KernelTelemetry`] provider renders `/metrics` ([`prometheus_text`])
//! and `/stats` ([`KernelStats::to_json`]) from one fresh [`KernelStats`]
//! each, both from its one table of series, and answers `/trace?ms=N` by
//! letting the flight recorder run `N` more milliseconds and then draining
//! the rings live (the seq-validated drain is safe concurrent with writers
//! — nothing stops while the snapshot is taken).
//!
//! The provider holds a `Weak<Database>`: a scrape racing kernel shutdown
//! upgrades to `None` and the server answers 503 instead of touching a
//! dying kernel.

use crate::db::Database;
use crate::stats::KernelStats;
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
        self.db.upgrade().map(|db| prometheus_text(&db.stats()))
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

/// Render the Prometheus text exposition of one snapshot: every row of
/// [`KernelStats::series`], then every latency site as a histogram
/// (cumulative octave buckets + sum/count). `/stats` renders the same
/// table ([`KernelStats::to_json`]).
pub fn prometheus_text(stats: &KernelStats) -> String {
    let mut w = PromText::new();
    let mut family = "";
    for s in stats.series() {
        if s.name != family {
            w.header(s.name, s.help, s.kind);
            family = s.name;
        }
        let labels: Vec<(&str, &str)> = s.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        w.sample(s.name, &labels, s.value);
    }
    let help = "Latency distribution per instrumented site, nanoseconds.";
    w.header("phoebe_latency_ns", help, "histogram");
    for &site in SITES.iter() {
        let h = stats.latency(site);
        let labels = [("site", site.name())];
        w.histogram("phoebe_latency_ns", &labels, &h.cumulative_octaves(), h.sum_ns(), h.count());
    }
    w.finish()
}
