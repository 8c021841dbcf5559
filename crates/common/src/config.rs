//! Kernel configuration.
//!
//! One struct gathers every tunable the paper's evaluation varies: worker
//! count, task slots per worker (32 in the paper), buffer size, affinity,
//! temperature thresholds, and WAL behaviour. Defaults are scaled to a small
//! development machine; the benchmark harness overrides them per experiment.

use crate::error::{PhoebeError, Result};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Size of every data page. The paper does not pin a page size; 16 KiB
/// matches LeanStore-family systems and divides evenly into PAX minipages.
pub const PAGE_SIZE: usize = 16 * 1024;

/// Full kernel configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Number of worker threads in the co-routine pool. The paper matches
    /// this to the CPU core count (§7.1 fn 1).
    pub workers: usize,
    /// Task slots per worker (32 in every paper experiment, §9).
    pub slots_per_worker: usize,
    /// Total Main Storage budget in buffer frames, split evenly across
    /// worker partitions (§7.1: each worker manages its own partition).
    pub buffer_frames: usize,
    /// Workload affinity (§9): bind each warehouse's transactions to a home
    /// worker so cross-worker contention disappears. We reproduce this as
    /// partition affinity rather than CPU pinning (see DESIGN.md).
    pub affinity: bool,
    /// Directory for the Data Page File, Data Block File and WAL files.
    pub data_dir: PathBuf,
    /// Whether commits wait for their slot's WAL writer to reach the disk
    /// ("WAL sync is enabled" in §9). Off = fully asynchronous commit.
    pub wal_sync: bool,
    /// The longest pending log records wait for a group-commit round, in
    /// microseconds, while the workers stay busy: a worker's tick runs a
    /// round once records are pending and the last round ended this long
    /// ago. A commit is often covered sooner: a worker about to park runs a
    /// round while a commit waits, and a wait off the pool runs its own.
    pub wal_group_commit_us: u64,
    /// Leaf pages whose OLTP access count over the sampling window stays
    /// below this threshold are candidates for freezing (§5.2).
    pub freeze_access_threshold: u64,
    /// Number of consecutive cold leaf pages compressed into one frozen
    /// data block (§5.2).
    pub freeze_batch_pages: usize,
    /// Read count above which a frozen block's rows are warmed back into
    /// hot storage (§5.2 case 3).
    pub warm_read_threshold: u64,
    /// Deterministic fault injection for the persistence layer. `None`
    /// (production) runs on [`crate::fault::OsFs`]; `Some` routes every
    /// WAL/page-file byte through a seeded [`crate::fault::SimFs`] torture
    /// disk (crash-consistency tests only).
    pub fault: Option<crate::fault::FaultConfig>,
    /// Flight-recorder configuration. `None` (default) installs the
    /// disabled tracer: every emit site costs one relaxed atomic load.
    /// `Some` records events into per-worker rings; see
    /// [`crate::trace::Tracer`]. The `PHOEBE_TRACE=<path>` environment
    /// variable enables this without touching code.
    #[serde(default)]
    pub trace: Option<TraceConfig>,
    /// Live telemetry endpoint. `None` (default) starts no listener and
    /// adds zero hot-path cost. `Some` serves `/metrics`, `/stats` and
    /// `/trace` from a dedicated thread; the
    /// `PHOEBE_TELEMETRY=<addr>` environment variable enables this
    /// without touching code. See [`crate::telemetry`].
    #[serde(default)]
    pub telemetry: Option<TelemetryConfig>,
    /// Stall watchdog. `None` (default) runs no watchdog. `Some` samples
    /// cheap progress heartbeats on an interval and writes incident
    /// records with attached flight-recorder evidence when thresholds
    /// are breached.
    #[serde(default)]
    pub watchdog: Option<WatchdogConfig>,
}

/// Live telemetry endpoint tuning; see [`crate::telemetry`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Address to bind the HTTP listener to, e.g. `127.0.0.1:9920`.
    /// Port 0 picks an ephemeral port (the kernel logs the resolved
    /// address at startup).
    pub addr: String,
}

/// Stall-watchdog thresholds. All breach windows are measured against
/// the sampling interval, so they are effective at interval
/// granularity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Heartbeat sampling interval, milliseconds.
    pub interval_ms: u64,
    /// A worker whose time-in-state total has not advanced for this long
    /// — it is stuck inside one poll or one hook tick — is reported as
    /// stalled.
    pub worker_stall_ms: u64,
    /// A WAL flush horizon (appended ahead of flushed) that has not
    /// advanced for this long is reported as stalled.
    pub wal_stall_ms: u64,
    /// If set, a commit p99 (over the sampling window) above this many
    /// nanoseconds raises an incident.
    pub p99_limit_ns: Option<u64>,
    /// Where incident records go. `None` defaults to
    /// `<data_dir>/incidents`.
    pub incident_dir: Option<PathBuf>,
    /// Hard cap on incident records written per kernel lifetime — a
    /// wedged kernel must not fill the disk with identical evidence.
    pub max_incidents: u64,
    /// Minimum spacing between two incidents of the same kind,
    /// milliseconds.
    pub cooldown_ms: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            interval_ms: 50,
            worker_stall_ms: 500,
            wal_stall_ms: 500,
            p99_limit_ns: None,
            incident_dir: None,
            max_incidents: 16,
            cooldown_ms: 5_000,
        }
    }
}

/// Flight-recorder tuning; see [`crate::trace`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Where to write the Chrome trace-event JSON at shutdown. `None`
    /// keeps recording in memory for on-demand drains only.
    pub path: Option<PathBuf>,
    /// Events retained per worker ring (rounded up to a power of two).
    /// Older events are overwritten; the recorder always holds the most
    /// recent window.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { path: None, ring_capacity: 65_536 }
    }
}

impl TraceConfig {
    /// Record with default ring sizing and export to `path` at shutdown
    /// (what `PHOEBE_TRACE=<path>` expands to).
    pub fn to_file(path: impl Into<PathBuf>) -> Self {
        TraceConfig { path: Some(path.into()), ..TraceConfig::default() }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            slots_per_worker: 32,
            buffer_frames: 4096, // 64 MiB of 16 KiB frames
            affinity: true,
            data_dir: std::env::temp_dir().join("phoebedb"),
            wal_sync: true,
            wal_group_commit_us: 200,
            freeze_access_threshold: 2,
            freeze_batch_pages: 8,
            warm_read_threshold: 16,
            fault: None,
            trace: None,
            telemetry: None,
            watchdog: None,
        }
    }
}

/// Remove every `<prefix>…-<pid>-<n>` directory in the temp dir whose
/// process is gone: what test and benchmark processes leave behind.
/// Liveness is read from `/proc`; where there is none, nothing is removed.
pub fn remove_dead_temp_dirs(prefix: &str) {
    let proc = Path::new("/proc");
    if !proc.join("self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix))
            .and_then(|rest| rest.rsplit('-').nth(1))
            .and_then(|pid| pid.parse::<u32>().ok())
        else {
            continue;
        };
        if !proc.join(pid.to_string()).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

impl KernelConfig {
    /// Start building a configuration from the defaults. `build()`
    /// validates the result, so impossible shapes (zero workers, zero
    /// task slots, a watermark above 1.0, ...) are caught at
    /// construction instead of surfacing as kernel panics later.
    pub fn builder() -> KernelConfigBuilder {
        KernelConfigBuilder { cfg: KernelConfig::default() }
    }

    /// A configuration suitable for unit tests: tiny buffers, one worker,
    /// a fresh unique temp directory, and synchronous-but-fast WAL.
    ///
    /// The directory is `phoebedb-test-<pid>-<n>` and outlives the process
    /// (reopen tests read it back after a shutdown). The first call in a
    /// process removes the ones whose process has ended.
    pub fn for_tests() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        static SWEEP: std::sync::Once = std::sync::Once::new();
        SWEEP.call_once(|| remove_dead_temp_dirs("phoebedb-test-"));
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("phoebedb-test-{}-{}", std::process::id(), n));
        KernelConfig {
            workers: 2,
            slots_per_worker: 4,
            buffer_frames: 256,
            data_dir: dir,
            wal_group_commit_us: 50,
            ..KernelConfig::default()
        }
    }

    /// Frames in each worker's buffer partition (at least one).
    pub fn frames_per_partition(&self) -> usize {
        (self.buffer_frames / self.workers.max(1)).max(1)
    }

    /// Total task slots across the pool.
    pub fn total_slots(&self) -> usize {
        self.workers * self.slots_per_worker
    }

    /// Validate an already-constructed configuration (the builder's
    /// `build()` and `Database::open` both call this).
    pub fn validate(&self) -> Result<()> {
        fn fail(msg: impl Into<String>) -> Result<()> {
            Err(PhoebeError::Config(msg.into()))
        }
        if self.workers == 0 {
            return fail("workers must be at least 1");
        }
        if self.slots_per_worker == 0 {
            return fail("slots_per_worker must be at least 1");
        }
        if self.buffer_frames == 0 {
            return fail("buffer_frames must be at least 1");
        }
        if self.freeze_batch_pages == 0 {
            return fail("freeze_batch_pages must be at least 1");
        }
        if self.data_dir.as_os_str().is_empty() {
            return fail("data_dir must not be empty");
        }
        if let Some(trace) = &self.trace {
            if trace.ring_capacity == 0 {
                return fail("trace.ring_capacity must be at least 1");
            }
        }
        if let Some(telemetry) = &self.telemetry {
            if telemetry.addr.trim().is_empty() {
                return fail("telemetry.addr must not be empty");
            }
        }
        if let Some(watchdog) = &self.watchdog {
            if watchdog.interval_ms == 0 {
                return fail("watchdog.interval_ms must be at least 1");
            }
            if watchdog.max_incidents == 0 {
                return fail("watchdog.max_incidents must be at least 1");
            }
        }
        Ok(())
    }
}

/// Validating builder for [`KernelConfig`]; see [`KernelConfig::builder`].
#[derive(Debug, Clone)]
pub struct KernelConfigBuilder {
    cfg: KernelConfig,
}

macro_rules! builder_setters {
    ($( $(#[$doc:meta])* $name:ident : $ty:ty ),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.cfg.$name = value;
                self
            }
        )*
    };
}

impl KernelConfigBuilder {
    builder_setters! {
        /// Worker threads in the co-routine pool.
        workers: usize,
        /// Task slots per worker (the paper uses 32).
        slots_per_worker: usize,
        /// Total Main Storage budget in buffer frames.
        buffer_frames: usize,
        /// Workload affinity: pin warehouses to home workers (§9).
        affinity: bool,
        /// Whether commits wait for WAL durability.
        wal_sync: bool,
        /// The tick's bound on a pending record's wait for a round, µs.
        wal_group_commit_us: u64,
        /// Access-count threshold below which leaves freeze (§5.2).
        freeze_access_threshold: u64,
        /// Cold leaves compressed per frozen block (§5.2).
        freeze_batch_pages: usize,
        /// Reads that warm a frozen block back into hot storage.
        warm_read_threshold: u64,
    }

    /// Directory for the Data Page File, Data Block File, and WAL.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.data_dir = dir.into();
        self
    }

    /// Route all persistence through a seeded fault-injecting disk
    /// (crash-consistency torture runs).
    pub fn fault(mut self, fault: crate::fault::FaultConfig) -> Self {
        self.cfg.fault = Some(fault);
        self
    }

    /// Enable the kernel flight recorder (see [`crate::trace::Tracer`]).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.cfg.trace = Some(trace);
        self
    }

    /// Serve live telemetry (`/metrics`, `/stats`, `/trace`) on `addr`,
    /// e.g. `127.0.0.1:9920`. Port 0 picks an ephemeral port.
    pub fn telemetry_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.telemetry = Some(TelemetryConfig { addr: addr.into() });
        self
    }

    /// Run the stall watchdog with the given thresholds.
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.cfg.watchdog = Some(watchdog);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<KernelConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = KernelConfig::default();
        assert!(c.workers >= 1);
        assert_eq!(c.slots_per_worker, 32);
        assert!(c.buffer_frames > 0);
        assert!(c.wal_sync);
    }

    #[test]
    fn partition_math_never_returns_zero() {
        let c = KernelConfig { buffer_frames: 1, workers: 64, ..KernelConfig::default() };
        assert_eq!(c.frames_per_partition(), 1);
    }

    #[test]
    fn test_config_dirs_are_unique() {
        let a = KernelConfig::for_tests();
        let b = KernelConfig::for_tests();
        assert_ne!(a.data_dir, b.data_dir);
    }

    #[test]
    fn dead_processes_temp_dirs_are_swept() {
        // A tag may hold dashes; the pid is the second field from the end.
        let tmp = std::env::temp_dir();
        let dead = tmp.join(format!("phoebe-sweep-test-a-b-{}-0", u32::MAX));
        let live = tmp.join(format!("phoebe-sweep-test-a-b-{}-0", std::process::id()));
        for d in [&dead, &live] {
            std::fs::create_dir_all(d).unwrap();
        }
        remove_dead_temp_dirs("phoebe-sweep-test-");
        assert!(!dead.exists() || !Path::new("/proc/self").exists(), "dead pid's dir kept");
        assert!(live.exists(), "a live pid's dir removed");
        std::fs::remove_dir_all(&live).unwrap();
    }

    #[test]
    fn total_slots_is_product() {
        let mut c = KernelConfig::for_tests();
        c.workers = 3;
        c.slots_per_worker = 5;
        assert_eq!(c.total_slots(), 15);
    }

    #[test]
    fn builder_defaults_validate() {
        let c = KernelConfig::builder().build().expect("defaults are valid");
        assert_eq!(c.slots_per_worker, KernelConfig::default().slots_per_worker);
    }

    #[test]
    fn builder_applies_every_setter() {
        let c = KernelConfig::builder()
            .workers(3)
            .slots_per_worker(7)
            .buffer_frames(512)
            .affinity(false)
            .data_dir("/tmp/phoebe-builder")
            .wal_sync(false)
            .wal_group_commit_us(99)
            .freeze_access_threshold(5)
            .freeze_batch_pages(4)
            .warm_read_threshold(9)
            .build()
            .unwrap();
        assert_eq!(c.workers, 3);
        assert_eq!(c.slots_per_worker, 7);
        assert_eq!(c.buffer_frames, 512);
        assert!(!c.affinity);
        assert_eq!(c.data_dir, PathBuf::from("/tmp/phoebe-builder"));
        assert!(!c.wal_sync);
        assert_eq!(c.wal_group_commit_us, 99);
        assert_eq!(c.freeze_access_threshold, 5);
        assert_eq!(c.freeze_batch_pages, 4);
        assert_eq!(c.warm_read_threshold, 9);
    }

    #[test]
    fn builder_rejects_zero_slots() {
        let err = KernelConfig::builder().slots_per_worker(0).build().unwrap_err();
        assert!(matches!(err, PhoebeError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("slots_per_worker"));
    }

    #[test]
    fn builder_rejects_degenerate_shapes() {
        assert!(KernelConfig::builder().workers(0).build().is_err());
        assert!(KernelConfig::builder().buffer_frames(0).build().is_err());
        assert!(KernelConfig::builder().freeze_batch_pages(0).build().is_err());
        assert!(KernelConfig::builder().data_dir("").build().is_err());
    }

    #[test]
    fn trace_builder_and_validation() {
        let c = KernelConfig::builder().trace(TraceConfig::to_file("/tmp/t.json")).build().unwrap();
        let t = c.trace.expect("trace config set");
        assert_eq!(t.path.as_deref(), Some(std::path::Path::new("/tmp/t.json")));
        assert_eq!(t.ring_capacity, TraceConfig::default().ring_capacity);
        let bad = KernelConfig::builder()
            .trace(TraceConfig { path: None, ring_capacity: 0 })
            .build()
            .unwrap_err();
        assert!(bad.to_string().contains("ring_capacity"), "got {bad}");
    }

    #[test]
    fn telemetry_and_watchdog_builder_and_validation() {
        let c = KernelConfig::builder()
            .telemetry_addr("127.0.0.1:0")
            .watchdog(WatchdogConfig { interval_ms: 10, ..WatchdogConfig::default() })
            .build()
            .unwrap();
        assert_eq!(c.telemetry.as_ref().map(|t| t.addr.as_str()), Some("127.0.0.1:0"));
        assert_eq!(c.watchdog.as_ref().map(|w| w.interval_ms), Some(10));

        let bad = KernelConfig::builder().telemetry_addr("  ").build().unwrap_err();
        assert!(bad.to_string().contains("telemetry.addr"), "got {bad}");
        let bad = KernelConfig::builder()
            .watchdog(WatchdogConfig { interval_ms: 0, ..WatchdogConfig::default() })
            .build()
            .unwrap_err();
        assert!(bad.to_string().contains("interval_ms"), "got {bad}");
        let bad = KernelConfig::builder()
            .watchdog(WatchdogConfig { max_incidents: 0, ..WatchdogConfig::default() })
            .build()
            .unwrap_err();
        assert!(bad.to_string().contains("max_incidents"), "got {bad}");
    }

    #[test]
    fn config_errors_are_not_retryable() {
        let err = KernelConfig::builder().workers(0).build().unwrap_err();
        assert!(!err.is_retryable());
    }
}
