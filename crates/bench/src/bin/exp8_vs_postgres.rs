//! Exp 8 / Figure 9 + text: PhoebeDB vs the PostgreSQL-like baseline.
//!
//! Paper: 30M tpm vs 1.1M tpm (27x) under identical settings, plus 2.5x /
//! 5.6x fewer CPU cycles for Payment / NewOrder. Here: same workload, same
//! transaction code, both engines; plus per-transaction latency (the cycle
//! proxy) measured on a dedicated sequential loop.

use phoebe_baseline::BaselineDb;
use phoebe_bench::*;
use phoebe_runtime::block_on;
use phoebe_tpcc::gen::TpccRng;
use phoebe_tpcc::txns::{self, Params};
use phoebe_tpcc::{
    load, run_baseline, run_phoebe, BaselineEngine, TpccConn, TpccEngine, TpccScale,
};
use std::time::Instant;

fn latency_us<E: TpccEngine>(engine: &E, params: &Params, payment: bool, iters: u32) -> f64 {
    let mut rng = TpccRng::seeded(7);
    let start = Instant::now();
    let mut done = 0u32;
    block_on(async {
        for _ in 0..iters {
            let mut conn = engine.begin();
            let ok = if payment {
                txns::payment(&mut conn, &mut rng, params, 1).await.map(|_| true)
            } else {
                txns::new_order(&mut conn, &mut rng, params, 1).await
            };
            match ok {
                Ok(true) => {
                    let _ = conn.commit().await;
                    done += 1;
                }
                _ => conn.abort(),
            }
        }
    });
    start.elapsed().as_micros() as f64 / done.max(1) as f64
}

fn main() {
    let wh: u32 = env_or("PHOEBE_WAREHOUSES", 2);
    let workers: usize = env_or("PHOEBE_WORKERS", 2);
    let terminals = workers * 16;
    let scale = TpccScale::mini();
    let params = Params { warehouses: wh, scale };

    let phoebe = loaded_engine("exp8-phoebe", workers, 16, 4096, wh, scale);
    let cfg = driver_cfg(wh, terminals, true);
    let pstats = run_phoebe(&phoebe, &cfg);
    let p_no = latency_us(&phoebe, &params, false, 300);
    let p_pay = latency_us(&phoebe, &params, true, 300);

    let bdb = BaselineDb::open(&fresh_dir("exp8-baseline"), 200).expect("baseline");
    let baseline = BaselineEngine::create(bdb);
    block_on(load(&baseline, wh, scale, 42)).expect("load baseline");
    let bstats = run_baseline(&baseline, &cfg);
    let b_no = latency_us(&baseline, &params, false, 300);
    let b_pay = latency_us(&baseline, &params, true, 300);

    let headers = ["engine", "tpm", "tpmC", "NewOrder us/txn", "Payment us/txn"];
    let rows = [
        vec!["PhoebeDB".into(), f(pstats.tpm_total()), f(pstats.tpmc()), f(p_no), f(p_pay)],
        vec!["baseline".into(), f(bstats.tpm_total()), f(bstats.tpmc()), f(b_no), f(b_pay)],
    ];
    print_table("Exp 8 (Fig 9 + text): PhoebeDB vs PostgreSQL-like baseline", &headers, &rows);
    println!(
        "throughput ratio: {:.1}x (paper: 27x)",
        pstats.tpm_total() / bstats.tpm_total().max(1e-9)
    );
    println!(
        "cycle-proxy reduction: NewOrder {:.1}x (paper 5.6x), Payment {:.1}x (paper 2.5x)",
        b_no / p_no.max(1e-9),
        b_pay / p_pay.max(1e-9)
    );
    emit_json(
        "exp8_vs_postgres",
        phoebe_common::Json::obj()
            .with("series", rows_json(&headers, &rows))
            .with("tpm_ratio", pstats.tpm_total() / bstats.tpm_total().max(1e-9))
            .with("percentiles", phoebe.db.metrics.snapshot().latency_json())
            .with("stats", phoebe.db.stats().to_json()),
    );
    phoebe.db.shutdown();
}
