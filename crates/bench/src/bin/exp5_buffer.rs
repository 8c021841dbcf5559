//! Exp 5 / Figure 10: throughput vs Main Storage size.
//!
//! Paper: 100 warehouses, buffer swept 4 GB -> 100 GB; tpm climbs steeply
//! until the buffer holds the hot set (~25 GB), then flattens. Here the
//! same sweep in frames; the shape to observe is the knee.

use phoebe_bench::*;
use phoebe_tpcc::run_phoebe;

fn main() {
    let wh: u32 = env_or("PHOEBE_WAREHOUSES", 2);
    let sweep: Vec<usize> = vec![96, 192, 384, 768, 1536, 3072];
    let headers = ["frames", "MiB", "tpm", "page reads", "page writes"];
    let mut rows = Vec::new();
    let mut percs = Vec::new();
    for &frames in &sweep {
        let engine = loaded_engine("exp5", 2, 16, frames, wh, phoebe_tpcc::TpccScale::mini());
        let cfg = driver_cfg(wh, 16, true);
        let stats = run_phoebe(&engine, &cfg);
        let (r, w) = engine.db.pool.io_counts();
        rows.push(vec![
            frames.to_string(),
            format!("{}", frames * phoebe_common::config::PAGE_SIZE / (1 << 20)),
            f(stats.tpm_total()),
            r.to_string(),
            w.to_string(),
        ]);
        percs.push(
            phoebe_common::Json::obj()
                .with("frames", frames as u64)
                .with("latency", engine.db.metrics.snapshot().latency_json()),
        );
        engine.db.shutdown();
    }
    print_table("Exp 5 (Fig 10): throughput vs buffer size", &headers, &rows);
    println!("paper shape: steep rise until the hot set fits, then diminishing returns");
    emit_json(
        "exp5_buffer",
        phoebe_common::Json::obj()
            .with("warehouses", wh as u64)
            .with("series", rows_json(&headers, &rows))
            .with("percentiles", phoebe_common::Json::from(percs)),
    );
}
