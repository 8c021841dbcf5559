//! The stall watchdog: a sampling thread that turns kernel wedges into
//! incident records that carry their own evidence.
//!
//! Every [`WatchdogConfig::interval_ms`] the watchdog takes one
//! `Database::stats_from_metrics` over the interval since its previous
//! tick and judges every detector from it: per-worker time-in-state
//! totals, the WAL flush-horizon age and halt flag, the buffer pool's
//! fault-ticket budget, and (optionally) the interval commit p99. None of
//! these add hot-path cost: the counters already exist for `/metrics`,
//! and the watchdog only *reads* them.
//!
//! On a threshold breach the watchdog writes a structured incident
//! record to the incident directory with the same capture payload
//! `/trace` serves live: a flight-recorder snapshot (`trace.json`) plus
//! the full stats document (`stats.json`). A stalled kernel therefore
//! arrives at the operator already diagnosed — what breached, by how
//! much, and what every worker was doing in the seconds before.
//!
//! The watchdog is a dedicated OS thread, *not* a kernel co-routine: a
//! wedged runtime is exactly what it must keep observing.

use crate::db::Database;
use phoebe_common::config::WatchdogConfig;
use phoebe_common::hist::LatencySite;
use phoebe_common::json::Json;
use phoebe_common::metrics::Counter;
use phoebe_common::telemetry::IncidentLog;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Handle to the running watchdog thread. `shutdown` (or drop) stops and
/// joins it.
pub struct WatchdogHandle {
    /// Dropping it disconnects the channel the thread sleeps on between
    /// samples, which ends the sleep at once.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
    incident_dir: PathBuf,
}

impl WatchdogHandle {
    /// Where this watchdog writes incident records.
    pub fn incident_dir(&self) -> &std::path::Path {
        &self.incident_dir
    }

    /// Stop the sampling thread and join it. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop = None;
        if let Some(t) = self.thread.take() {
            // If the watchdog thread itself held the kernel's last Arc,
            // `Database::drop` (and thus this shutdown) runs *on* the
            // watchdog thread — joining would deadlock on ourselves. The
            // disconnected channel already guarantees the thread exits.
            if t.thread().id() != std::thread::current().id() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for WatchdogHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the watchdog over a weak kernel reference. The thread exits on
/// `shutdown` or as soon as the kernel is dropped.
pub fn start_watchdog(db: &Arc<Database>, cfg: WatchdogConfig) -> WatchdogHandle {
    let incident_dir =
        cfg.incident_dir.clone().unwrap_or_else(|| db.cfg.data_dir.join("incidents"));
    let (stop, stopped) = mpsc::channel();
    let weak = Arc::downgrade(db);
    let dir = incident_dir.clone();
    let thread = std::thread::Builder::new()
        .name("phoebe-watchdog".into())
        .spawn(move || watchdog_main(weak, cfg, dir, stopped))
        .expect("spawn watchdog thread");
    WatchdogHandle { stop: Some(stop), thread: Some(thread), incident_dir }
}

/// Per-detector state: when the current breach episode started and when
/// the last incident of this kind fired (cooldown).
#[derive(Default)]
struct Episode {
    since: Option<Instant>,
    last_incident: Option<Instant>,
}

impl Episode {
    /// Feed one observation. Returns `true` when the condition has held
    /// for `window` and the kind is out of its cooldown — i.e. exactly
    /// when an incident should fire.
    fn observe(&mut self, breached: bool, window: Duration, cooldown: Duration) -> bool {
        if !breached {
            self.since = None;
            return false;
        }
        let since = *self.since.get_or_insert_with(Instant::now);
        if since.elapsed() < window {
            return false;
        }
        if self.last_incident.is_some_and(|t| t.elapsed() < cooldown) {
            return false;
        }
        self.last_incident = Some(Instant::now());
        // Restart the episode so the *next* incident needs a fresh
        // sustained breach on top of the cooldown.
        self.since = None;
        true
    }
}

fn watchdog_main(
    weak: Weak<Database>,
    cfg: WatchdogConfig,
    dir: PathBuf,
    stopped: mpsc::Receiver<()>,
) {
    let log = IncidentLog::new(dir, cfg.max_incidents);
    let interval = Duration::from_millis(cfg.interval_ms);
    let worker_window = Duration::from_millis(cfg.worker_stall_ms);
    let wal_window = Duration::from_millis(cfg.wal_stall_ms);
    let cooldown = Duration::from_millis(cfg.cooldown_ms);

    // Per-worker heartbeat: (time-in-state total last seen, Episode).
    let mut workers: Vec<(u64, Episode)> = Vec::new();
    let mut wal_stall = Episode::default();
    let mut wal_halt = Episode::default();
    let mut fault_budget = Episode::default();
    let mut p99 = Episode::default();
    let Some(mut prev) = weak.upgrade().map(|db| db.metrics.snapshot()) else { return };

    // Only a timeout continues; shutdown disconnects the channel.
    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
        let Some(db) = weak.upgrade() else { return };
        // One snapshot per tick: the interval since the previous tick plus
        // the live gauges, the same `KernelStats` `/metrics` renders.
        let now = db.metrics.snapshot();
        let s = db.stats_from_metrics(&now.delta_since(&prev));
        prev = now;

        // --- Worker progress: the worker loop charges its time-in-state
        // at every phase boundary, bounded parks included, so the total
        // stands still only while the worker is stuck inside one poll or
        // one hook tick. (Its poll count is no heartbeat: a worker whose
        // tasks all sleep on a lock or a commit rightly stops polling.)
        workers.resize_with(s.worker_states.len(), Default::default);
        for (st, ws) in workers.iter_mut().zip(&s.worker_states) {
            let charged = ws.running_ns + ws.ready_ns + ws.parked_ns + ws.io_ns;
            let stuck = charged == st.0;
            st.0 = charged;
            if st.1.observe(stuck, worker_window, cooldown) {
                capture(
                    &db,
                    &log,
                    "worker_stall",
                    Json::obj()
                        .with("worker", ws.worker)
                        .with("occupied_slots", ws.occupied_slots)
                        .with("polls", ws.polls)
                        .with("worker_stall_ms", cfg.worker_stall_ms),
                );
            }
        }

        // --- WAL flush horizon stuck behind appends.
        let age_ns = s.wal_flush_horizon_age_ns;
        if wal_stall.observe(age_ns >= wal_window.as_nanos() as u64, Duration::ZERO, cooldown) {
            capture(
                &db,
                &log,
                "wal_flush_stall",
                Json::obj()
                    .with("flush_horizon_age_ns", age_ns)
                    .with("backlog_records", s.wal_backlog_records)
                    .with("wal_stall_ms", cfg.wal_stall_ms),
            );
        }

        // --- WAL hub halted on an I/O failure (latched condition, so the
        // cooldown is what keeps this to one record per episode).
        if wal_halt.observe(s.wal_halted, Duration::ZERO, cooldown) {
            capture(
                &db,
                &log,
                "wal_halted",
                Json::obj().with("backlog_records", s.wal_backlog_records),
            );
        }

        // --- Fault-ticket budget pinned at the cap (the test
        // `BufferPool::fault_budget_available` makes, negated).
        let exhausted = s.fault_tickets_inflight >= s.fault_budget_limit;
        if fault_budget.observe(exhausted, worker_window, cooldown) {
            capture(
                &db,
                &log,
                "fault_budget_exhausted",
                Json::obj()
                    .with("faults_inflight", s.fault_tickets_inflight)
                    .with("fault_budget_limit", s.fault_budget_limit),
            );
        }

        // --- Optional commit-p99 ceiling over the sampling window.
        if let Some(limit) = cfg.p99_limit_ns {
            let commit = s.latency(LatencySite::Commit);
            if p99.observe(commit.count > 0 && commit.p99_ns > limit, Duration::ZERO, cooldown) {
                capture(
                    &db,
                    &log,
                    "p99_breach",
                    Json::obj().with("commit_p99_ns", commit.p99_ns).with("p99_limit_ns", limit),
                );
            }
        }
    }
}

/// Write one incident with its evidence: the flight-recorder snapshot and
/// the full stats document — the same payload `/trace` and `/stats`
/// serve, so live and post-hoc diagnosis read identical artifacts.
fn capture(db: &Database, log: &IncidentLog, kind: &str, detail: Json) {
    let trace = db.tracer().export_chrome_json();
    let stats = db.stats().to_json().render();
    match log.record(kind, detail, &[("trace.json", &trace), ("stats.json", &stats)]) {
        Ok(Some(dir)) => {
            db.metrics.incr(Counter::WatchdogIncidents);
            eprintln!("phoebe-watchdog: {kind} incident recorded at {}", dir.display());
        }
        Ok(None) => {} // over the incident cap: stay quiet
        Err(e) => eprintln!("phoebe-watchdog: failed to record {kind} incident: {e}"),
    }
}
