//! `tpcc_hot` / `tpcc_cold`: the TPC-C standard mix over 4 warehouses at a
//! reduced scale, 16 terminals as co-routines with warehouse affinity. The
//! two workloads share every input; only the buffer pool differs.

use crate::client::{ClientLog, Schedule, CLIENTS, MAX_TRIES, WORKERS};
use crate::gen::client_seed;
use crate::trace::{Op, Traced};
use phoebe_common::error::{PhoebeError, Result};
use phoebe_core::Database;
use phoebe_runtime::{yield_now, JoinHandle, Urgency};
use phoebe_storage::schema::Value;
use phoebe_tpcc::schema::cols;
use phoebe_tpcc::txns::{self, Params};
use phoebe_tpcc::{Idx, PhoebeEngine, TpccConn, TpccEngine, TpccRng, TpccScale};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's database: 4 warehouses, ≈64 MB, ≈4 k pages once loaded.
pub const FULL: Params = Params {
    warehouses: 4,
    scale: TpccScale {
        districts_per_warehouse: 10,
        customers_per_district: 300,
        items: 10_000,
        initial_orders_per_district: 300,
    },
};

/// Transaction types in sample-slot order; NewOrder is the primary.
pub const KINDS: [&str; 5] = ["new_order", "payment", "order_status", "delivery", "stock_level"];

pub fn load(db: Arc<Database>, p: &Params, seed: u64) -> Result<PhoebeEngine> {
    let engine = PhoebeEngine::create(db)?;
    phoebe_runtime::block_on(phoebe_tpcc::load(&engine, p.warehouses, p.scale, seed))?;
    Ok(engine)
}

/// The standard mix: 45 / 43 / 4 / 4 / 4.
fn pick_kind(rng: &mut TpccRng) -> usize {
    match rng.uniform(1, 100) {
        1..=45 => 0,
        46..=88 => 1,
        89..=92 => 2,
        93..=96 => 3,
        _ => 4,
    }
}

async fn terminal(
    engine: PhoebeEngine,
    p: Params,
    sched: Schedule,
    client: usize,
    seed: u64,
) -> ClientLog {
    let home_w = client as u32 % p.warehouses + 1;
    let mut rng = TpccRng::seeded(client_seed(seed, client));
    let mut log = ClientLog::new(&sched, client, KINDS.len());
    loop {
        let start = Instant::now();
        if start >= sched.end {
            return log;
        }
        let kind = pick_kind(&mut rng);
        log.attempted += 1;
        let traced = start >= sched.trace_from;
        log.rec.begin_txn(traced);
        let mut tries = 0;
        // Ok(true): committed. Ok(false): the 1 % NewOrder user rollback,
        // a success by the specification.
        let outcome: Result<bool> = loop {
            tries += 1;
            let t = log.rec.start();
            let conn = engine.begin();
            log.rec.end(Op::Begin, t);
            let mut conn = Traced { conn, rec: &mut log.rec };
            let ran = match kind {
                0 => txns::new_order(&mut conn, &mut rng, &p, home_w).await,
                1 => txns::payment(&mut conn, &mut rng, &p, home_w).await.map(|_| true),
                2 => txns::order_status(&mut conn, &mut rng, &p, home_w).await.map(|_| true),
                3 => txns::delivery(&mut conn, &mut rng, &p, home_w).await.map(|_| true),
                _ => txns::stock_level(&mut conn, &mut rng, &p, home_w).await.map(|_| true),
            };
            match ran {
                Ok(true) => break conn.commit().await.map(|_| true),
                Ok(false) => {
                    conn.abort();
                    break Ok(false);
                }
                Err(e) if e.is_retryable() && tries < MAX_TRIES => {
                    conn.abort();
                    if traced {
                        log.retries += 1;
                    }
                }
                Err(e) => {
                    conn.abort();
                    break Err(e);
                }
            }
        };
        let end = Instant::now();
        match outcome {
            Ok(true) => log.committed(&sched, kind, start, end),
            Ok(false) => {}
            Err(e) => {
                eprintln!("tpcc {} failed after {tries} tries: {e}", KINDS[kind]);
                log.failed += 1;
            }
        }
        log.rec.end_txn(KINDS[kind], start, end);
        yield_now(Urgency::Low).await;
    }
}

/// 16 terminals, 4 per warehouse, each on its warehouse's home worker.
pub fn spawn(
    engine: &PhoebeEngine,
    p: &Params,
    sched: Schedule,
    seed: u64,
) -> Vec<JoinHandle<ClientLog>> {
    let rt = engine.db.runtime();
    (0..CLIENTS)
        .map(|c| {
            let home_w = c % p.warehouses as usize;
            rt.spawn_on(home_w % WORKERS, terminal(engine.clone(), *p, sched, c, seed))
        })
        .collect()
}

/// TPC-C consistency conditions 1–4 (clause 3.3.2) on the quiesced kernel.
pub fn oracle(engine: &PhoebeEngine, p: &Params) -> std::result::Result<(), String> {
    phoebe_runtime::block_on(check_consistency(engine, p))
}

async fn check_consistency(engine: &PhoebeEngine, p: &Params) -> std::result::Result<(), String> {
    let key = |vals: &[u32]| vals.iter().map(|&v| Value::I32(v as i32)).collect::<Vec<_>>();
    let err = |e: PhoebeError| e.to_string();
    let mut conn = engine.begin();
    for w in 1..=p.warehouses {
        let (_, wh) = conn
            .lookup(Idx::WarehousePk, key(&[w]))
            .await
            .map_err(err)?
            .ok_or_else(|| format!("warehouse {w} missing"))?;
        let mut d_ytd_sum = 0;
        for d in 1..=p.scale.districts_per_warehouse {
            let (_, dist) = conn
                .lookup(Idx::DistrictPk, key(&[w, d]))
                .await
                .map_err(err)?
                .ok_or_else(|| format!("district {w}/{d} missing"))?;
            d_ytd_sum += dist[cols::D_YTD].as_i64();
            let last_o_id = dist[cols::D_NEXT_O_ID].as_i32() - 1;

            let orders = conn.scan(Idx::OrderPk, key(&[w, d]), usize::MAX).await.map_err(err)?;
            let max_o_id = orders.last().map_or(0, |(_, o)| o[cols::O_ID].as_i32());
            if max_o_id != last_o_id {
                return Err(format!(
                    "condition 2: {w}/{d} d_next_o_id-1 = {last_o_id}, max(o_id) = {max_o_id}"
                ));
            }
            let new_orders =
                conn.scan(Idx::NewOrderPk, key(&[w, d]), usize::MAX).await.map_err(err)?;
            if let (Some((_, lo)), Some((_, hi))) = (new_orders.first(), new_orders.last()) {
                let (lo, hi) = (lo[cols::NO_O_ID].as_i32(), hi[cols::NO_O_ID].as_i32());
                if hi != last_o_id {
                    return Err(format!(
                        "condition 2: {w}/{d} d_next_o_id-1 = {last_o_id}, max(no_o_id) = {hi}"
                    ));
                }
                if (hi - lo + 1) as usize != new_orders.len() {
                    return Err(format!(
                        "condition 3: {w}/{d} new-order ids {lo}..={hi} hold {} rows",
                        new_orders.len()
                    ));
                }
            }
            let ol_cnt_sum: i64 = orders.iter().map(|(_, o)| o[cols::O_OL_CNT].as_i64()).sum();
            let lines =
                conn.scan(Idx::OrderLinePk, key(&[w, d]), usize::MAX).await.map_err(err)?.len();
            if ol_cnt_sum != lines as i64 {
                return Err(format!(
                    "condition 4: {w}/{d} sum(o_ol_cnt) = {ol_cnt_sum}, {lines} order lines"
                ));
            }
        }
        let w_ytd = wh[cols::W_YTD].as_i64();
        if w_ytd != d_ytd_sum {
            return Err(format!(
                "condition 1: warehouse {w} w_ytd = {w_ytd}, sum(d_ytd) = {d_ytd_sum}"
            ));
        }
    }
    conn.commit().await.map_err(err)
}
