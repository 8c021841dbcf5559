//! Exp 2 / Figure 8: scalability with the worker count.
//!
//! Paper: near-linear scaling up to the 52 physical cores, degraded
//! per-worker efficiency beyond (hyperthreads), total still rising. On
//! this container the "physical core" budget is what the OS reports; the
//! shape to observe is tpm rising and tpm/worker falling past the core
//! count.

use phoebe_bench::*;
use phoebe_tpcc::run_phoebe;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_workers: usize = env_or("PHOEBE_MAX_WORKERS", (cores * 4).max(4));
    let mut workers = 1usize;
    let mut points = Vec::new();
    while workers <= max_workers {
        points.push(workers);
        workers *= 2;
    }
    let wh = env_or("PHOEBE_WAREHOUSES", 4u32);
    let headers = ["workers", "tpm", "tpm/worker", "efficiency"];
    let mut rows = Vec::new();
    let mut percs = Vec::new();
    let mut base_per_worker = None;
    for &n in &points {
        let engine = loaded_engine("exp2", n, 32, 4096, wh, phoebe_tpcc::TpccScale::mini());
        let cfg = driver_cfg(wh, n * 8, false);
        let stats = run_phoebe(&engine, &cfg);
        let per_worker = stats.tpm_total() / n as f64;
        // Per-worker efficiency vs the first measured point (1.0 = perfect
        // scaling, the paper's Figure 8 framing).
        let base = *base_per_worker.get_or_insert(per_worker);
        let efficiency = if base > 0.0 { per_worker / base } else { 0.0 };
        rows.push(vec![
            n.to_string(),
            f(stats.tpm_total()),
            f(per_worker),
            format!("{efficiency:.3}"),
        ]);
        let snap = engine.db.metrics.snapshot();
        percs.push(
            phoebe_common::Json::obj()
                .with("workers", n as u64)
                .with("top_p99", top_p99_sites(&snap, 3))
                .with("latency", snap.latency_json()),
        );
        engine.db.shutdown();
    }
    print_table(
        &format!("Exp 2 (Fig 8): scalability, {wh} warehouses, {cores} cores on this host"),
        &headers,
        &rows,
    );
    println!("paper shape: near-linear to physical cores, per-worker efficiency drops beyond");
    emit_json(
        "exp2_scalability",
        phoebe_common::Json::obj()
            .with("warehouses", wh as u64)
            .with("series", rows_json(&headers, &rows))
            .with("percentiles", phoebe_common::Json::from(percs)),
    );
}
