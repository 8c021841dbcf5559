//! One benchmark run: set up, warm up, measure, check, report.

use crate::client::{merge, Merged, Schedule, SUBWINDOWS};
use crate::layers::{layer_metrics, Metric, Snap};
use crate::workload::{Loaded, Sizing, Workload};
use crate::{host, kv, probes, stats, trace};
use phoebe_core::Database;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct RunSpec {
    pub workload: Workload,
    pub sizing: Sizing,
    pub seed: u64,
    /// Clients run, nothing is recorded: caches fill, the pool settles.
    pub warmup: Duration,
    /// The window the end-to-end metrics (or, on a traced run, the
    /// reference throughput for `trace.overhead_share`) come from.
    pub untraced: Duration,
    /// The window with spans on; zero on an untraced run.
    pub traced: Duration,
    /// Set-ups timed; `setup_s` is their median and the last one is kept.
    pub setups: usize,
    /// Data directories, traces: everything the run writes.
    pub out: PathBuf,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn fresh_dir(out: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = out.join("data").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Time `spec.setups` set-ups into fresh directories; keep the last.
fn set_up(spec: &RunSpec) -> Result<(Loaded, PathBuf, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<(Loaded, PathBuf)> = None;
    for i in 0..spec.setups {
        if let Some((loaded, dir)) = kept.take() {
            discard(loaded, &dir);
        }
        let dir = fresh_dir(&spec.out, &format!("{}-{i}", spec.workload.name()))?;
        let t0 = Instant::now();
        let loaded = spec
            .workload
            .setup(&spec.sizing, &dir, spec.seed)
            .map_err(|e| format!("set-up: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((loaded, dir));
    }
    let (loaded, dir) = kept.ok_or("at least one set-up is needed")?;
    Ok((loaded, dir, stats::median(&times)))
}

fn discard(loaded: Loaded, dir: &Path) {
    loaded.db().shutdown();
    drop(loaded);
    let _ = std::fs::remove_dir_all(dir);
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

pub fn run(spec: &RunSpec) -> Result<RunResult, String> {
    let w = spec.workload;
    let (loaded, dir, setup_s) = set_up(spec)?;

    // Closed loop: the clients are co-routines on the kernel's own workers;
    // this thread only sleeps, samples at the window edges and joins.
    let sched = Schedule::new(spec.warmup, spec.untraced, spec.traced);
    let handles = loaded.spawn(w, sched, spec.seed);
    sleep_until(sched.measure_from);
    let at_measure = Snap::take(loaded.db())?;
    sleep_until(sched.trace_from);
    let at_trace = Snap::take(loaded.db())?;
    sleep_until(sched.end);
    let at_end = Snap::take(loaded.db())?;
    let clients = merge(handles.into_iter().map(|h| h.join()).collect());
    let peak_rss_mb = host::peak_rss_mb()?;

    loaded.oracle(w, clients.acked).map_err(|e| format!("{} oracle: {e}", w.name()))?;

    let untraced = sched.untraced_window();
    let mut metrics: Vec<Metric> = Vec::new();
    if spec.traced.is_zero() {
        let commits = clients.commits_in(&untraced).max(1);
        let (p50, p99, n) = clients.latency_us(0, &untraced);
        let tps = clients.throughput_tps(&untraced);
        let cpu_us = (at_trace.cpu_ns - at_measure.cpu_ns) as f64 / 1e3 / commits as f64;
        println!(
            "{}: {commits} commits in {:.1} s; {} latency samples: {n}",
            w.name(),
            untraced.secs(),
            w.kinds()[0]
        );
        let per: Vec<String> = untraced
            .split(SUBWINDOWS)
            .iter()
            .map(|sw| format!("{:.0}", clients.throughput_tps(sw)))
            .collect();
        println!("sub-window tps: {}", per.join(" "));
        if w.kinds().len() > 1 {
            println!("tpmC (information): {:.0}", n as f64 * 60.0 / untraced.secs());
        }
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("throughput_tps".into(), tps, "1/s"));
        metrics.push(("lat_p50_us".into(), p50, "us"));
        metrics.push(("lat_p99_us".into(), p99, "us"));
        metrics.push(("cpu_us_per_txn".into(), cpu_us, "us"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MB"));
        discard(loaded, &dir);
    } else {
        let traced = sched.traced_window();
        metrics.extend(layer_metrics(&at_trace, &at_end, &clients, w.kinds(), &traced));
        metrics.extend(clients.spans.metrics());
        let overhead = 1.0 - clients.throughput_tps(&traced) / clients.throughput_tps(&untraced);
        metrics.push(("trace.overhead_share".into(), overhead, "share"));
        write_trace(spec, &clients)?;
        metrics.extend(restart_check(spec, loaded, &dir, &clients)?);
        metrics.extend(probes::run(&spec.out)?);
    }
    Ok(RunResult { attempted: clients.attempted, failed: clients.failed, metrics })
}

fn write_trace(spec: &RunSpec, clients: &Merged) -> Result<(), String> {
    let path = spec.out.join(format!("{}.trace.json", spec.workload.name()));
    trace::write_chrome_json(&path, &clients.raw)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let txns: usize = clients.raw.iter().map(Vec::len).sum();
    println!("trace: {txns} of {} traced transactions in {}", clients.spans.txns, path.display());
    Ok(())
}

/// After `kv_update`: shut down, reopen the directory, and hold the
/// recovered state to the same oracle. Recovery replays the whole log
/// (there is no checkpoint yet), so its time is per acknowledged commit
/// *and* per loaded row. Other workloads report zeros.
fn restart_check(
    spec: &RunSpec,
    loaded: Loaded,
    dir: &Path,
    clients: &Merged,
) -> Result<Vec<Metric>, String> {
    let w = spec.workload;
    let mut ms = 0.0;
    let mut per_txn_us = 0.0;
    if w == Workload::KvUpdate {
        loaded.db().shutdown();
        drop(loaded);
        let cfg = w.kernel_config(&spec.sizing, dir).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let db = Database::open(cfg).map_err(|e| format!("reopen: {e}"))?;
        ms = t0.elapsed().as_secs_f64() * 1e3;
        let replayed = db.recovery_info().txns;
        per_txn_us = ms * 1e3 / replayed.max(1) as f64;
        println!("restart: {replayed} transactions replayed in {ms:.0} ms");
        let recovered = Loaded::Kv(kv::attach(db, spec.sizing.kv_rows).map_err(|e| e.to_string())?);
        recovered.oracle(w, clients.acked).map_err(|e| format!("after restart: {e}"))?;
        discard(recovered, dir);
    } else {
        discard(loaded, dir);
    }
    Ok(vec![
        ("core.recovery_ms".into(), ms, "ms"),
        ("core.recovery_us_per_txn".into(), per_txn_us, "us"),
    ])
}
