//! The four workloads: names, sizes, set-up, clients and oracles.

use crate::client::{ClientLog, Schedule, SLOTS_PER_WORKER, WORKERS};
use crate::kv::{self, Kv};
use crate::tpcc;
use phoebe_common::error::Result;
use phoebe_common::KernelConfig;
use phoebe_core::Database;
use phoebe_runtime::JoinHandle;
use phoebe_tpcc::txns::Params;
use phoebe_tpcc::PhoebeEngine;
use std::path::Path;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TpccHot,
    TpccCold,
    KvRead,
    KvUpdate,
}

pub const WORKLOADS: [Workload; 4] =
    [Workload::TpccHot, Workload::TpccCold, Workload::KvRead, Workload::KvUpdate];

/// How big the databases are. The benchmark always runs [`FULL`]; the
/// self-tests use [`smoke`] so they finish in seconds.
#[derive(Clone, Copy)]
pub struct Sizing {
    pub tpcc: Params,
    pub tpcc_hot_frames: usize,
    pub tpcc_cold_frames: usize,
    pub kv_rows: u64,
    pub kv_frames: usize,
}

pub const FULL: Sizing = Sizing {
    tpcc: tpcc::FULL,
    // Nothing evicts during the run.
    tpcc_hot_frames: 32_768,
    // A quarter of the loaded data, an eighth by the end as orders pile up.
    tpcc_cold_frames: 1_024,
    kv_rows: kv::ROWS,
    kv_frames: kv::FRAMES,
};

#[cfg(test)]
pub fn smoke() -> Sizing {
    Sizing {
        tpcc: Params { warehouses: 2, scale: phoebe_tpcc::TpccScale::mini() },
        tpcc_hot_frames: 4_096,
        tpcc_cold_frames: 256,
        kv_rows: 20_000,
        kv_frames: 2_048,
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccHot => "tpcc_hot",
            Workload::TpccCold => "tpcc_cold",
            Workload::KvRead => "kv_read",
            Workload::KvUpdate => "kv_update",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Transaction types; the first is the one `lat_*` reports.
    pub fn kinds(self) -> &'static [&'static str] {
        match self {
            Workload::TpccHot | Workload::TpccCold => &tpcc::KINDS,
            Workload::KvRead => &kv::READ_KINDS,
            Workload::KvUpdate => &kv::UPDATE_KINDS,
        }
    }

    fn frames(self, s: &Sizing) -> usize {
        match self {
            Workload::TpccHot => s.tpcc_hot_frames,
            Workload::TpccCold => s.tpcc_cold_frames,
            Workload::KvRead | Workload::KvUpdate => s.kv_frames,
        }
    }

    /// The kernel every workload runs on: 2 workers × 16 slots, durable
    /// commits with a 200 µs group-commit window — the flush policy, the
    /// same on both sides of any comparison.
    pub fn kernel_config(self, s: &Sizing, dir: &Path) -> Result<KernelConfig> {
        KernelConfig::builder()
            .workers(WORKERS)
            .slots_per_worker(SLOTS_PER_WORKER)
            .buffer_frames(self.frames(s))
            .affinity(true)
            .wal_sync(true)
            .wal_group_commit_us(200)
            .data_dir(dir)
            .build()
    }

    /// Set-up as `setup_s` times it: open, DDL, load.
    pub fn setup(self, s: &Sizing, dir: &Path, seed: u64) -> Result<Loaded> {
        let db = Database::open(self.kernel_config(s, dir)?)?;
        Ok(match self {
            Workload::TpccHot | Workload::TpccCold => {
                Loaded::Tpcc(tpcc::load(db, &s.tpcc, seed)?, s.tpcc)
            }
            Workload::KvRead | Workload::KvUpdate => Loaded::Kv(kv::load(db, s.kv_rows, seed)?),
        })
    }
}

/// A loaded database and the handles its clients need.
pub enum Loaded {
    Tpcc(PhoebeEngine, Params),
    Kv(Kv),
}

impl Loaded {
    pub fn db(&self) -> &Arc<Database> {
        match self {
            Loaded::Tpcc(engine, _) => &engine.db,
            Loaded::Kv(kv) => &kv.db,
        }
    }

    pub fn spawn(&self, w: Workload, sched: Schedule, seed: u64) -> Vec<JoinHandle<ClientLog>> {
        match self {
            Loaded::Tpcc(engine, p) => tpcc::spawn(engine, p, sched, seed),
            Loaded::Kv(kv) if w == Workload::KvRead => kv::spawn_readers(kv, sched, seed),
            Loaded::Kv(kv) => kv::spawn_updaters(kv, sched, seed),
        }
    }

    /// Check the quiesced database against what the clients were told.
    /// `acked` is the number of commits the kernel acknowledged.
    pub fn oracle(&self, w: Workload, acked: u64) -> std::result::Result<(), String> {
        match self {
            Loaded::Tpcc(engine, p) => tpcc::oracle(engine, p),
            Loaded::Kv(kv) => {
                // Readers verify every row they fetch; nothing may have
                // been written. Updaters add one per acknowledged commit.
                let want = if w == Workload::KvUpdate { acked as i64 } else { 0 };
                let sum = kv.sum_c1()?;
                if sum == want {
                    Ok(())
                } else {
                    Err(format!("sum(c1) = {sum}, acknowledged commits = {want}"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoebe_storage::schema::Value;
    use phoebe_tpcc::schema::cols;
    use phoebe_tpcc::{Idx, Tbl, TpccConn, TpccEngine};

    fn loaded(w: Workload) -> (Loaded, std::path::PathBuf) {
        let dir = std::path::PathBuf::from("out").join(format!(
            "test-{}-oracle-{}",
            std::process::id(),
            w.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (w.setup(&smoke(), &dir, 3).expect("set-up"), dir)
    }

    /// An oracle that cannot fail checks nothing: break each invariant and
    /// see it reported.
    #[test]
    fn oracles_reject_a_wrong_state() {
        let (kv, dir) = loaded(Workload::KvUpdate);
        assert_eq!(kv.oracle(Workload::KvUpdate, 0), Ok(()));
        let lost = kv.oracle(Workload::KvUpdate, 5).unwrap_err();
        assert!(lost.contains("sum(c1) = 0, acknowledged commits = 5"), "{lost}");
        kv.db().shutdown();
        let _ = std::fs::remove_dir_all(dir);

        let (tpcc, dir) = loaded(Workload::TpccHot);
        assert_eq!(tpcc.oracle(Workload::TpccHot, 0), Ok(()));
        let Loaded::Tpcc(engine, _) = &tpcc else { unreachable!() };
        phoebe_runtime::block_on(async {
            let mut conn = engine.begin();
            let (rid, _) =
                conn.lookup(Idx::WarehousePk, vec![Value::I32(1)]).await.unwrap().unwrap();
            conn.update_rmw(Tbl::Warehouse, rid, |w| {
                vec![(cols::W_YTD, Value::I64(w[cols::W_YTD].as_i64() + 1))]
            })
            .await
            .unwrap();
            conn.commit().await.unwrap();
        });
        let skewed = tpcc.oracle(Workload::TpccHot, 0).unwrap_err();
        assert!(skewed.starts_with("condition 1: warehouse 1"), "{skewed}");
        tpcc.db().shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
