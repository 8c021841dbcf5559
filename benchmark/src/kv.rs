//! `kv_read` / `kv_update`: one table `kv(k, c0, c1, pad)` with a unique
//! index on `k`, read and written through the same tree. `kv_read` never
//! touches WAL, locks, UNDO or GC; `kv_update` is almost all commit wait.

use crate::client::{ClientLog, Schedule, CLIENTS, MAX_TRIES, WORKERS};
use crate::gen::{client_seed, mix64, Rng, Zipf};
use crate::trace::Op;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_core::{Database, IndexEntry, IsolationLevel, TableEntry};
use phoebe_runtime::{yield_now, JoinHandle, Urgency};
use phoebe_storage::schema::{ColType, Schema, Value};
use std::sync::Arc;
use std::time::Instant;

pub const ROWS: u64 = 500_000;
/// 16 384 frames per worker partition. The table and its index take ≈9 k
/// frames, all drawn from the loading thread's home partition, so that one
/// partition alone has to hold them for nothing to evict.
pub const FRAMES: usize = 32_768;
pub const LOOKUPS_PER_READ_TXN: usize = 10;
pub const ZIPF_THETA: f64 = 0.9;

pub const READ_KINDS: [&str; 1] = ["kv_read"];
pub const UPDATE_KINDS: [&str; 1] = ["kv_update"];

const C0: usize = 1;
const C1: usize = 2;
const LOAD_BATCH: u64 = 5_000;

#[derive(Clone)]
pub struct Kv {
    pub db: Arc<Database>,
    table: Arc<TableEntry>,
    index: Arc<IndexEntry>,
    /// Keys are `0..rows`.
    rows: u64,
}

/// What `c0` must hold for key `k`.
fn checksum(k: u64) -> i64 {
    mix64(k) as i64
}

fn schema() -> Schema {
    Schema::new(vec![
        ("k", ColType::I64),
        ("c0", ColType::I64),
        ("c1", ColType::I64),
        ("pad", ColType::Str(100)),
    ])
}

/// Create (or, after a restart, re-resolve) the table and its index.
pub fn attach(db: Arc<Database>, rows: u64) -> Result<Kv> {
    let table = db.create_table("kv", schema())?;
    let index = db.create_index(&table, "kv_pk", vec![0], true)?;
    Ok(Kv { db, table, index, rows })
}

pub fn load(db: Arc<Database>, rows: u64, seed: u64) -> Result<Kv> {
    let kv = attach(db, rows)?;
    let mut rng = Rng::new(mix64(seed));
    phoebe_runtime::block_on(async {
        let mut tx = kv.db.begin(IsolationLevel::ReadCommitted);
        for k in 0..rows {
            let pad: String = (0..100).map(|_| char::from(b'a' + rng.below(26) as u8)).collect();
            let row =
                vec![Value::I64(k as i64), Value::I64(checksum(k)), Value::I64(0), Value::Str(pad)];
            tx.insert(&kv.table, row).await?;
            if (k + 1) % LOAD_BATCH == 0 {
                tx.commit().await?;
                tx = kv.db.begin(IsolationLevel::ReadCommitted);
            }
        }
        tx.commit().await.map(|_| ())
    })?;
    Ok(kv)
}

fn wrong(what: &'static str) -> PhoebeError {
    PhoebeError::internal(format!("kv oracle: {what}"))
}

impl Kv {
    /// Look `k` up and check the row is the one asked for.
    pub fn get(
        &self,
        tx: &mut phoebe_core::Transaction,
        k: u64,
    ) -> Result<(phoebe_common::ids::RowId, i64)> {
        let (rid, row) = tx
            .lookup_unique(&self.table, &self.index, &[Value::I64(k as i64)])?
            .ok_or_else(|| wrong("key missing"))?;
        if row[0].as_i64() != k as i64 || row[C0].as_i64() != checksum(k) {
            return Err(wrong("lookup returned another row"));
        }
        Ok((rid, row[C1].as_i64()))
    }

    /// `Σ c1` over every key, each row verified on the way.
    pub fn sum_c1(&self) -> std::result::Result<i64, String> {
        let mut tx = self.db.begin(IsolationLevel::ReadCommitted);
        let mut sum = 0;
        for k in 0..self.rows {
            sum += self.get(&mut tx, k).map_err(|e| format!("k = {k}: {e}"))?.1;
        }
        phoebe_runtime::block_on(tx.commit()).map_err(|e| e.to_string())?;
        Ok(sum)
    }
}

/// `LOOKUPS_PER_READ_TXN` uniform lookups and a read-only commit.
async fn reader(kv: Kv, sched: Schedule, client: usize, seed: u64) -> ClientLog {
    let mut rng = Rng::new(client_seed(seed, client));
    let mut log = ClientLog::new(&sched, client, 1);
    loop {
        let start = Instant::now();
        if start >= sched.end {
            return log;
        }
        log.attempted += 1;
        let traced = start >= sched.trace_from;
        log.rec.begin_txn(traced);
        let t = log.rec.start();
        let mut tx = kv.db.begin(IsolationLevel::ReadCommitted);
        log.rec.end(Op::Begin, t);
        let mut outcome = Ok(());
        for _ in 0..LOOKUPS_PER_READ_TXN {
            let k = rng.below(kv.rows);
            let t = log.rec.start();
            let got = kv.get(&mut tx, k);
            log.rec.end(Op::Lookup, t);
            if let Err(e) = got {
                outcome = Err(e);
                break;
            }
        }
        let outcome = match outcome {
            Ok(()) => {
                let t = log.rec.start();
                let r = tx.commit().await;
                log.rec.end(Op::Commit, t);
                r.map(|_| ())
            }
            Err(e) => {
                tx.abort();
                Err(e)
            }
        };
        let end = Instant::now();
        match outcome {
            Ok(()) => log.committed(&sched, 0, start, end),
            Err(e) => {
                eprintln!("kv_read failed: {e}");
                log.failed += 1;
            }
        }
        log.rec.end_txn(READ_KINDS[0], start, end);
        yield_now(Urgency::Low).await;
    }
}

/// One lookup, one `c1 += 1` on a scrambled-zipfian key, a durable commit.
async fn updater(kv: Kv, zipf: Arc<Zipf>, sched: Schedule, client: usize, seed: u64) -> ClientLog {
    let mut rng = Rng::new(client_seed(seed, client));
    let mut log = ClientLog::new(&sched, client, 1);
    loop {
        let start = Instant::now();
        if start >= sched.end {
            return log;
        }
        let k = zipf.key(&mut rng);
        log.attempted += 1;
        let traced = start >= sched.trace_from;
        log.rec.begin_txn(traced);
        let mut tries = 0;
        let outcome = loop {
            tries += 1;
            let t = log.rec.start();
            let mut tx = kv.db.begin(IsolationLevel::ReadCommitted);
            log.rec.end(Op::Begin, t);
            let t = log.rec.start();
            let got = kv.get(&mut tx, k);
            log.rec.end(Op::Lookup, t);
            let ran = match got {
                Ok((rid, _)) => {
                    let t = log.rec.start();
                    let r = tx
                        .update_rmw(&kv.table, rid, &|row| {
                            vec![(C1, Value::I64(row[C1].as_i64() + 1))]
                        })
                        .await;
                    log.rec.end(Op::Update, t);
                    r.map(|_| ())
                }
                Err(e) => Err(e),
            };
            match ran {
                Ok(()) => {
                    let t = log.rec.start();
                    let r = tx.commit().await;
                    log.rec.end(Op::Commit, t);
                    break r.map(|_| ());
                }
                Err(e) => {
                    let t = log.rec.start();
                    tx.abort();
                    log.rec.end(Op::Abort, t);
                    if !(e.is_retryable() && tries < MAX_TRIES) {
                        break Err(e);
                    }
                    if traced {
                        log.retries += 1;
                    }
                }
            }
        };
        let end = Instant::now();
        match outcome {
            Ok(()) => log.committed(&sched, 0, start, end),
            Err(e) => {
                eprintln!("kv_update failed after {tries} tries: {e}");
                log.failed += 1;
            }
        }
        log.rec.end_txn(UPDATE_KINDS[0], start, end);
        yield_now(Urgency::Low).await;
    }
}

pub fn spawn_readers(kv: &Kv, sched: Schedule, seed: u64) -> Vec<JoinHandle<ClientLog>> {
    let rt = kv.db.runtime();
    (0..CLIENTS).map(|c| rt.spawn_on(c % WORKERS, reader(kv.clone(), sched, c, seed))).collect()
}

pub fn spawn_updaters(kv: &Kv, sched: Schedule, seed: u64) -> Vec<JoinHandle<ClientLog>> {
    let rt = kv.db.runtime();
    let zipf = Arc::new(Zipf::new(kv.rows, ZIPF_THETA));
    (0..CLIENTS)
        .map(|c| rt.spawn_on(c % WORKERS, updater(kv.clone(), Arc::clone(&zipf), sched, c, seed)))
        .collect()
}
