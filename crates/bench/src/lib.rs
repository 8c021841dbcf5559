//! Shared harness for the experiment binaries (one per figure/table of the
//! paper's §9 evaluation — see DESIGN.md's experiment index).
//!
//! Absolute numbers here are container-scale; every binary prints the same
//! *series* the paper reports so the shapes can be compared. Scale knobs
//! are overridable via environment variables (`PHOEBE_DURATION_SECS`,
//! `PHOEBE_WAREHOUSES`, ...).

use phoebe_common::hist::SITES;
use phoebe_common::metrics::MetricsSnapshot;
use phoebe_common::{Json, KernelConfig};
use phoebe_core::Database;
use phoebe_tpcc::{load, DriverConfig, PhoebeEngine, TpccScale};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Read an env override or fall back.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a comma-separated list override (`PHOEBE_EXP1_POINTS=1,4`) or fall
/// back — lets CI smoke runs measure just the points they compare.
pub fn env_points(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect::<Vec<usize>>())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Benchmark duration per measured point.
pub fn bench_duration() -> Duration {
    Duration::from_secs(env_or("PHOEBE_DURATION_SECS", 3))
}

/// A unique scratch directory for one experiment run,
/// `phoebe-bench-<tag>-<pid>-<n>`. It outlives the process; the first
/// call in a process removes the ones whose process has ended.
pub fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    static SWEEP: std::sync::Once = std::sync::Once::new();
    SWEEP.call_once(|| phoebe_common::config::remove_dead_temp_dirs("phoebe-bench-"));
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("phoebe-bench-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Open a kernel shaped for one experiment point.
pub fn open_phoebe(
    tag: &str,
    workers: usize,
    slots_per_worker: usize,
    buffer_frames: usize,
) -> Arc<Database> {
    let cfg = KernelConfig::builder()
        .workers(workers)
        .slots_per_worker(slots_per_worker)
        .buffer_frames(buffer_frames)
        .data_dir(fresh_dir(tag))
        .wal_group_commit_us(200)
        .build()
        .expect("valid bench config");
    let db = Database::open(cfg).expect("open kernel");
    // Database::open already logs the resolved listen address; repeat the
    // scrape-ready URLs here so a bench run advertises its live endpoints
    // (PHOEBE_TELEMETRY=127.0.0.1:9920 or any addr; port 0 works too).
    if let Some(addr) = db.telemetry_addr() {
        eprintln!(
            "phoebe-bench[{tag}]: scrape http://{addr}/metrics | stats http://{addr}/stats \
             | live trace http://{addr}/trace?ms=200"
        );
    }
    db
}

/// Build + load a TPC-C engine on a fresh kernel.
pub fn loaded_engine(
    tag: &str,
    workers: usize,
    slots_per_worker: usize,
    buffer_frames: usize,
    warehouses: u32,
    scale: TpccScale,
) -> PhoebeEngine {
    let db = open_phoebe(tag, workers, slots_per_worker, buffer_frames);
    let engine = PhoebeEngine::create(db).expect("create schema");
    phoebe_runtime::block_on(load(&engine, warehouses, scale, 42)).expect("load tpcc");
    engine
}

/// Default driver config for an experiment point.
pub fn driver_cfg(warehouses: u32, terminals: usize, affinity: bool) -> DriverConfig {
    DriverConfig {
        warehouses,
        scale: TpccScale::mini(),
        duration: bench_duration(),
        terminals,
        affinity,
        seed: 4242,
    }
}

/// Fixed-width table printing for experiment outputs.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// A background sampler producing one row per interval until stopped.
pub struct Sampler {
    handle: Option<std::thread::JoinHandle<Vec<Vec<String>>>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
}

impl Sampler {
    /// `probe` is called once per interval with the elapsed seconds and
    /// must return one output row.
    pub fn start(
        interval: Duration,
        probe: impl FnMut(f64) -> Vec<String> + Send + 'static,
    ) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut probe = probe;
        let handle = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let mut rows = Vec::new();
            while !stop2.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                rows.push(probe(start.elapsed().as_secs_f64()));
            }
            rows
        });
        Sampler { handle: Some(handle), stop }
    }

    pub fn finish(mut self) -> Vec<Vec<String>> {
        self.stop.store(true, Ordering::Release);
        self.handle.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default()
    }
}

/// Format a float compactly.
pub fn f(x: f64) -> String {
    if x >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

// ---------------------------------------------------------------------
// Machine-readable output
// ---------------------------------------------------------------------

/// Marker prefixing the one machine-readable line each binary emits.
pub const JSON_MARKER: &str = "PHOEBE_JSON";

/// A printed table as a JSON array of objects keyed by the headers.
/// Numeric-looking cells become numbers; everything else stays a string.
pub fn rows_json(headers: &[&str], rows: &[Vec<String>]) -> Json {
    let arr: Vec<Json> = rows
        .iter()
        .map(|row| {
            let mut obj = Json::obj();
            for (h, cell) in headers.iter().zip(row) {
                let v = if let Ok(n) = cell.parse::<u64>() {
                    Json::from(n)
                } else if let Ok(x) = cell.parse::<f64>() {
                    Json::from(x)
                } else {
                    Json::from(cell.as_str())
                };
                obj = obj.with(*h, v);
            }
            obj
        })
        .collect();
    Json::from(arr)
}

/// The `k` sites with the highest p99 latency, worst first — the "where
/// does tail latency live" summary every experiment now reports.
pub fn top_p99_sites(snap: &MetricsSnapshot, k: usize) -> Json {
    let mut sites: Vec<_> = SITES
        .iter()
        .map(|&site| (site.name(), snap.latency(site)))
        .filter(|(_, h)| h.count() > 0)
        .collect();
    sites.sort_by_key(|(_, h)| std::cmp::Reverse(h.p99()));
    let arr: Vec<Json> = sites
        .into_iter()
        .take(k)
        .map(|(name, h)| {
            Json::obj().with("site", name).with("p99_ns", h.p99()).with("count", h.count())
        })
        .collect();
    Json::from(arr)
}

/// Print the experiment's single machine-readable line:
/// `PHOEBE_JSON {"experiment":...,...}` — compact, one line, greppable.
pub fn emit_json(experiment: &str, doc: Json) {
    let doc = Json::obj().with("experiment", experiment).with("data", doc);
    println!("{JSON_MARKER} {}", doc.render());
}
