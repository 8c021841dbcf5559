//! Exp 4 / Figure 7(c,d): data-page read/write throughput over time when
//! the working set exceeds Main Storage.
//!
//! Paper: with 1 GB buffer per warehouse and 12-480 GB of data, page
//! exchange starts ~2 minutes in, write throughput stabilizes, read
//! throughput ramps as the hot set spreads. Here the buffer is set far
//! below the loaded data size so the exchange starts almost immediately;
//! the shape to observe: writes ramp then stabilize, reads grow, tpmC dips
//! once eviction begins.

use phoebe_bench::*;
use phoebe_common::config::PAGE_SIZE;
use phoebe_common::metrics::Counter;
use phoebe_tpcc::run_phoebe;
use std::time::Duration;

fn main() {
    let wh: u32 = env_or("PHOEBE_WAREHOUSES", 2);
    let frames: usize = env_or("PHOEBE_BUFFER_FRAMES", 192); // deliberately tiny
    let engine = loaded_engine("exp4", 2, 16, frames, wh, phoebe_tpcc::TpccScale::mini());
    let db = engine.db.clone();
    let mut last = db.metrics.snapshot();
    let sampler = Sampler::start(Duration::from_millis(500), move |t| {
        let now = db.metrics.snapshot();
        // One `PHOEBE_STATS` line per sample, covering just that interval.
        let delta = db.stats_from_metrics(now.delta_since(&last));
        println!("PHOEBE_STATS {}", delta.to_json().render());
        let mb_per_s =
            |c: Counter| f(delta.metrics.counter(c) as f64 * PAGE_SIZE as f64 / 0.5 / 1e6);
        let row = vec![
            format!("{t:.1}"),
            mb_per_s(Counter::PageReads),
            mb_per_s(Counter::PageWrites),
            f(delta.counter("commits") as f64 * 2.0 * 60.0),
        ];
        last = now;
        row
    });
    let mut cfg = driver_cfg(wh, 16, true);
    cfg.duration = Duration::from_secs(env_or("PHOEBE_DURATION_SECS", 10));
    let stats = run_phoebe(&engine, &cfg);
    let rows = sampler.finish();
    let headers = ["t (s)", "read MB/s", "write MB/s", "tpm"];
    print_table(
        &format!(
            "Exp 4 (Fig 7c,d): disk I/O over time, buffer {frames} frames ({} MiB) << data",
            frames * PAGE_SIZE / (1 << 20)
        ),
        &headers,
        &rows,
    );
    let (r, w) = engine.db.pool.io_counts();
    println!("total page reads: {r}, page writes: {w}, committed: {}", stats.committed);
    println!("paper shape: exchange starts once the buffer fills; writes stabilize, reads ramp");
    emit_json(
        "exp4_diskio",
        phoebe_common::Json::obj()
            .with("buffer_frames", frames as u64)
            .with("page_reads", r)
            .with("page_writes", w)
            .with("committed", stats.committed)
            .with("series", rows_json(&headers, &rows))
            .with("stats", engine.db.stats().to_json()),
    );
    engine.db.shutdown();
}
