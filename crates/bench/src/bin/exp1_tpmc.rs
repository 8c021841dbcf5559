//! Exp 1 / Figure 7(a): tpmC as warehouses = workers grow.
//!
//! Paper: 349k / 3,362k / 6,903k / 11,578k / 13,690k tpmC at 1/10/25/50/100
//! warehouses-and-workers. Shape to reproduce: tpmC grows with the
//! warehouse/worker count, sublinearly at the top end.
//!
//! `PHOEBE_EXP1_POINTS=1,4` overrides the measured points (CI smoke).

use phoebe_bench::*;
use phoebe_tpcc::run_phoebe;

fn main() {
    let headers = ["warehouses", "workers", "tpmC", "tpm", "tpm/worker", "aborts"];
    let points = env_points("PHOEBE_EXP1_POINTS", &[1, 2, 4, 8]);
    let mut rows = Vec::new();
    let mut percs = Vec::new();
    let mut last_stats = None;
    for &n in &points {
        let engine = loaded_engine("exp1", n, 32, 4096, n as u32, phoebe_tpcc::TpccScale::mini());
        let cfg = driver_cfg(n as u32, n * 8, true);
        let stats = run_phoebe(&engine, &cfg);
        rows.push(vec![
            n.to_string(),
            n.to_string(),
            f(stats.tpmc()),
            f(stats.tpm_total()),
            f(stats.tpm_total() / n as f64),
            stats.aborts.to_string(),
        ]);
        let snap = engine.db.metrics.snapshot();
        percs.push(
            phoebe_common::Json::obj()
                .with("warehouses", n as u64)
                .with("top_p99", top_p99_sites(&snap, 3))
                .with("latency", snap.latency_json()),
        );
        last_stats = Some(engine.db.stats().to_json());
        engine.db.shutdown();
    }
    print_table("Exp 1 (Fig 7a): tpmC vs warehouses = workers", &headers, &rows);
    println!("paper shape: tpmC rises with scale (349k -> 13.7M over 1 -> 100 WH on 104 vCPUs)");
    emit_json(
        "exp1_tpmc",
        phoebe_common::Json::obj()
            .with("series", rows_json(&headers, &rows))
            .with("percentiles", phoebe_common::Json::from(percs))
            .with("stats", last_stats.unwrap_or_else(phoebe_common::Json::obj)),
    );
}
