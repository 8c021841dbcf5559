//! Exp 9 (text): comparison against a commercial disk-based RDBMS ("O-DB").
//!
//! Paper: O-DB with five NVMe SSDs and a 260 GB buffer reaches 3.2M tpm
//! and is I/O-bound at ~77% CPU utilization. O-DB is closed source; per
//! DESIGN.md the stand-in is the traditional-architecture baseline with a
//! large buffer but a capped log device — reproducing "plenty of memory,
//! bounded by the I/O path".

use phoebe_baseline::BaselineDb;
use phoebe_bench::*;
use phoebe_runtime::block_on;
use phoebe_tpcc::{load, run_baseline, run_phoebe, BaselineEngine, TpccScale};
use std::sync::atomic::Ordering;

fn main() {
    let wh: u32 = env_or("PHOEBE_WAREHOUSES", 2);
    let workers: usize = env_or("PHOEBE_WORKERS", 2);
    let terminals = workers * 16;
    let scale = TpccScale::mini();
    let mut rows = Vec::new();

    // PhoebeDB reference point.
    let phoebe = loaded_engine("exp9-phoebe", workers, 16, 4096, wh, scale);
    let cfg = driver_cfg(wh, terminals, true);
    let pstats = run_phoebe(&phoebe, &cfg);
    rows.push(vec!["PhoebeDB".into(), f(pstats.tpm_total()), "unthrottled".into()]);
    let phoebe_latency = phoebe.db.metrics.snapshot().latency_json();
    phoebe.db.shutdown();

    // O-DB stand-in: baseline engine, ample memory, capped log bandwidth.
    let cap_mbs: u64 = env_or("PHOEBE_ODB_CAP_MBS", 2);
    let bdb = BaselineDb::open(&fresh_dir("exp9-odb"), 200).expect("baseline");
    let odb = BaselineEngine::create(bdb);
    block_on(load(&odb, wh, scale, 42)).expect("load odb");
    odb.db.wal.bandwidth_cap.store(cap_mbs * 1_000_000, Ordering::Relaxed);
    let busy = std::time::Instant::now();
    let ostats = run_baseline(&odb, &cfg);
    let wall = busy.elapsed().as_secs_f64();
    // CPU-utilization proxy: committed work rate vs the uncapped baseline.
    let bdb2 = BaselineDb::open(&fresh_dir("exp9-uncapped"), 200).expect("baseline");
    let unc = BaselineEngine::create(bdb2);
    block_on(load(&unc, wh, scale, 42)).expect("load uncapped");
    let ustats = run_baseline(&unc, &cfg);
    let util = 100.0 * ostats.tpm_total() / ustats.tpm_total().max(1e-9);
    rows.push(vec![
        format!("O-DB stand-in (log {cap_mbs} MB/s)"),
        f(ostats.tpm_total()),
        format!("{util:.0}% of uncapped"),
    ]);
    rows.push(vec!["baseline uncapped".into(), f(ustats.tpm_total()), "100%".into()]);

    let headers = ["engine", "tpm", "utilization"];
    print_table("Exp 9: PhoebeDB vs commercial-style disk RDBMS (O-DB stand-in)", &headers, &rows);
    println!("elapsed (capped run): {wall:.1}s");
    println!("paper shape: O-DB I/O-bound below full CPU utilization (~77%), well under PhoebeDB");
    emit_json(
        "exp9_odb",
        phoebe_common::Json::obj()
            .with("log_cap_mbs", cap_mbs)
            .with("capped_utilization_pct", util)
            .with("series", rows_json(&headers, &rows))
            .with("percentiles", phoebe_latency),
    );
}
