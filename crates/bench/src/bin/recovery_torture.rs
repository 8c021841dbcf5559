//! Crash-consistency torture harness: seeded fault injection against the
//! whole kernel, end-to-end WAL recovery, oracle invariants.
//!
//! Each seed runs one round:
//!
//! 1. Open a kernel whose entire persistence layer (per-slot WAL writers
//!    *and* the Data Page File) runs on a seeded `SimFs` torture disk.
//! 2. Load a bank: `accounts` rows with a fixed starting balance, plus a
//!    `ledger` table that records one row per transfer — the oracle's
//!    ground truth for exactly which transfers committed.
//! 3. Arm a crash at a random write count and hammer the kernel with
//!    concurrent transfer transactions (each moves money between two
//!    accounts and appends its ledger row; some deliberately abort).
//!    When the simulated disk dies, pending unsynced writes are dropped
//!    or torn and every later I/O fails; committers surface `WalHalted`.
//!    Every fourth seed instead logs padded transfers, one round each,
//!    from one thread, and crashes around the first refill of the log's
//!    preallocated zero tail (about 0.5-0.7 MiB into the log), before
//!    its concurrent workers start.
//! 4. Reopen the same directory with `Database::open` — recovery is
//!    automatic — and check the oracle invariants:
//!      * every transfer whose commit was acknowledged is in the ledger
//!        (acked durability);
//!      * the ledger holds only attempted, never-aborted transfers
//!        (no resurrection, no fabrication);
//!      * every account balance equals the initial balance plus exactly
//!        the recovered ledger's effects (per-transaction atomicity);
//!      * the total balance is conserved;
//!      * no recovered record carries a GSN past the last GSN the crashed
//!        kernel issued.
//!
//! Usage: `recovery_torture [--seeds N] [--start S] [--seed S]`
//! Failures print the offending seed and exit non-zero.

use phoebe_common::fault::FaultConfig;
use phoebe_common::ids::RowId;
use phoebe_core::prelude::*;
use phoebe_runtime::block_on;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ACCOUNTS: u64 = 32;
const INITIAL_BALANCE: i64 = 1_000;
const WORKER_THREADS: u64 = 3;

fn accounts_schema() -> Schema {
    Schema::new(vec![("id", ColType::I64), ("balance", ColType::I64)])
}

fn ledger_schema() -> Schema {
    Schema::new(vec![
        ("op", ColType::I64),
        ("src", ColType::I64),
        ("dst", ColType::I64),
        ("amt", ColType::I64),
    ])
}

/// Bytes of one padding row's string.
const PAD_BYTES: u16 = 1000;

fn pad_schema() -> Schema {
    Schema::new(vec![("id", ColType::I64), ("fill", ColType::Str(PAD_BYTES))])
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Transfer {
    src: u64,
    dst: u64,
    amt: i64,
}

/// Everything the workload observed before the crash — the oracle's side
/// of the story.
#[derive(Default)]
struct Oracle {
    /// op id -> transfer, for every commit *attempt* (acked or not).
    attempted: Mutex<HashMap<i64, Transfer>>,
    /// Ops whose `commit()` returned Ok: these MUST survive.
    acked: Mutex<HashMap<i64, Transfer>>,
    /// Ops deliberately rolled back: these must NEVER resurrect.
    aborted: Mutex<HashSet<i64>>,
}

/// One transfer between two random accounts, with its ledger row and,
/// given a `pad` table, 8 rows of 1 KiB padding; one in ten is rolled
/// back on purpose. The oracle learns of it as it goes.
fn transfer(
    db: &Arc<Database>,
    accounts: &Arc<TableEntry>,
    ledger: &Arc<TableEntry>,
    pad: Option<&Arc<TableEntry>>,
    oracle: &Oracle,
    rng: &mut StdRng,
    op_id: i64,
) -> Result<()> {
    let src = rng.random_range(1..=ACCOUNTS);
    let mut dst = rng.random_range(1..=ACCOUNTS);
    while dst == src {
        dst = rng.random_range(1..=ACCOUNTS);
    }
    let amt = rng.random_range(1..=50i64);
    let abort_this = rng.random_bool(0.1);
    let mut tx = db.begin(IsolationLevel::ReadCommitted);
    block_on(
        tx.update_rmw(accounts, RowId(src), &|cur| vec![(1, Value::I64(cur[1].as_i64() - amt))]),
    )?;
    block_on(
        tx.update_rmw(accounts, RowId(dst), &|cur| vec![(1, Value::I64(cur[1].as_i64() + amt))]),
    )?;
    block_on(tx.insert(ledger, row![op_id, src as i64, dst as i64, amt]))?;
    if let Some(pad) = pad {
        for i in 0..8 {
            let fill = Value::Str("p".repeat(PAD_BYTES as usize));
            block_on(tx.insert(pad, vec![Value::I64(op_id * 8 + i), fill]))?;
        }
    }
    if abort_this {
        tx.abort();
        oracle.aborted.lock().unwrap().insert(op_id);
        return Ok(());
    }
    oracle.attempted.lock().unwrap().insert(op_id, Transfer { src, dst, amt });
    block_on(tx.commit())?;
    oracle.acked.lock().unwrap().insert(op_id, Transfer { src, dst, amt });
    Ok(())
}

fn run_seed(seed: u64) -> Result<String> {
    let dir = std::env::temp_dir().join(format!("phoebe-torture-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = KernelConfig::builder()
        .workers(2)
        .slots_per_worker(4)
        .buffer_frames(512)
        .data_dir(&dir)
        .wal_group_commit_us(50)
        .fault(FaultConfig::crash_only(seed))
        .build()?;

    // ---- Phase 1: setup + tortured workload ----------------------------
    let db = Database::open(cfg)?;
    let accounts = db.create_table("accounts", accounts_schema())?;
    let ledger = db.create_table("ledger", ledger_schema())?;
    let pad = db.create_table("pad", pad_schema())?;
    {
        let mut tx = db.begin(IsolationLevel::ReadCommitted);
        for a in 1..=ACCOUNTS {
            block_on(tx.insert(&accounts, row![a as i64, INITIAL_BALANCE]))?;
        }
        block_on(tx.commit())?;
    }

    let sim = Arc::clone(db.fault_sim().expect("opened with fault injection"));
    let mut seed_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let oracle = Arc::new(Oracle::default());
    let next_op = Arc::new(AtomicU64::new(1));
    if seed.is_multiple_of(4) {
        // A fresh segment's preallocated zero tail is first refilled
        // between rounds once its log passes 512 KiB (one write and a
        // sync). Every fourth seed logs small committed rounds (a
        // transfer and 8 KiB of padding each) from one thread and arms
        // the crash when the log passes 480 KiB, so it lands in the
        // rounds before that refill, inside it, or in the rounds just
        // after it, at about 0.5-0.7 MiB. These seeds run no concurrent
        // workload: their workers start on a dead disk. The 1.5 MiB
        // bound only stops the loop should the crash never fire.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F111);
        let mut armed = false;
        while db.wal.total_bytes_flushed() < 3 << 19 {
            if !armed && db.wal.total_bytes_flushed() >= 480 << 10 {
                sim.arm_crash_after_writes(seed_rng.random_range(1..24u64));
                armed = true;
            }
            let op_id = next_op.fetch_add(1, Ordering::Relaxed) as i64;
            match transfer(&db, &accounts, &ledger, Some(&pad), &oracle, &mut rng, op_id) {
                Ok(()) => {}
                Err(e) if e.is_retryable() => {}
                Err(_) => break,
            }
        }
    } else {
        // Let the workload get going, then kill the disk mid-flight.
        sim.arm_crash_after_writes(seed_rng.random_range(20..400u64));
    }
    let workers: Vec<_> = (0..WORKER_THREADS)
        .map(|w| {
            let db = Arc::clone(&db);
            let accounts = Arc::clone(&accounts);
            let ledger = Arc::clone(&ledger);
            let oracle = Arc::clone(&oracle);
            let next_op = Arc::clone(&next_op);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (w + 1).wrapping_mul(0xA24B_AED4));
                loop {
                    let op_id = next_op.fetch_add(1, Ordering::Relaxed) as i64;
                    if op_id > 100_000 {
                        return; // safety net; the crash should hit long before
                    }
                    match transfer(&db, &accounts, &ledger, None, &oracle, &mut rng, op_id) {
                        Ok(()) => {}
                        Err(e) if e.is_retryable() => continue,
                        // WalHalted / Io: the disk is dead; stop working.
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();

    // If the workload was too light to reach the armed write count, pull
    // the plug manually so every seed terminates.
    let t0 = Instant::now();
    while !sim.crashed() && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    if !sim.crashed() {
        sim.crash();
    }
    for w in workers {
        let _ = w.join();
    }
    let gsn_at_crash = db.wal.current_gsn();
    db.shutdown();
    drop(db);

    // Recovery does not consume the crash image: it only reads the WAL
    // segments and logs into a new one, so on failure `dir` itself holds
    // the evidence (`recovery_torture --dump <dir>`).

    // ---- Phase 2: reopen (automatic recovery) + oracle checks ----------
    let cfg2 = KernelConfig::builder()
        .workers(2)
        .slots_per_worker(4)
        .buffer_frames(512)
        .data_dir(&dir)
        .trace(TraceConfig { path: None, ring_capacity: 4096 })
        .build()?;
    let db = Database::open(cfg2)?;
    let info = db.recovery_info();
    let fail = |msg: String| Err(PhoebeError::Internal(format!("seed {seed}: {msg}")));

    // Oracle checks run in a closure so a failed invariant can dump the
    // flight recorder before the kernel (and its rings) go away.
    let verdict = (|| -> Result<String> {
        if info.max_gsn > gsn_at_crash {
            return fail(format!(
                "recovered gsn {} exceeds last issued gsn {gsn_at_crash}",
                info.max_gsn
            ));
        }

        let accounts = db.table("accounts")?;
        let ledger = db.table("ledger")?;
        let mut tx = db.begin(IsolationLevel::ReadCommitted);

        // The recovered ledger = the committed transfer set S.
        let mut recovered: HashMap<i64, Transfer> = HashMap::new();
        for rid in 1..ledger.row_id_high_water() {
            if let Some(row) = tx.read(&ledger, RowId(rid))? {
                recovered.insert(
                    row.i64("op"),
                    Transfer {
                        src: row.i64("src") as u64,
                        dst: row.i64("dst") as u64,
                        amt: row.i64("amt"),
                    },
                );
            }
        }

        let attempted = oracle.attempted.lock().unwrap();
        let acked = oracle.acked.lock().unwrap();
        let aborted = oracle.aborted.lock().unwrap();

        // Acked durability: every acknowledged commit survived.
        for (op, t) in acked.iter() {
            match recovered.get(op) {
                Some(r) if r == t => {}
                Some(r) => {
                    return fail(format!("acked op {op} recovered corrupted: {r:?} != {t:?}"))
                }
                None => return fail(format!("acked op {op} lost by recovery")),
            }
        }
        // No fabrication, no resurrection.
        for (op, t) in recovered.iter() {
            if aborted.contains(op) {
                return fail(format!("aborted op {op} resurrected by recovery"));
            }
            match attempted.get(op) {
                Some(a) if a == t => {}
                _ => return fail(format!("recovered op {op} was never attempted as {t:?}")),
            }
        }
        // Atomicity: balances equal the initial state plus exactly S's effects.
        let mut expected: HashMap<u64, i64> =
            (1..=ACCOUNTS).map(|a| (a, INITIAL_BALANCE)).collect();
        for t in recovered.values() {
            *expected.get_mut(&t.src).unwrap() -= t.amt;
            *expected.get_mut(&t.dst).unwrap() += t.amt;
        }
        let mut total = 0i64;
        for a in 1..=ACCOUNTS {
            let row = tx.read(&accounts, RowId(a))?.ok_or_else(|| {
                PhoebeError::internal(format!("seed {seed}: account {a} missing"))
            })?;
            let bal = row.i64("balance");
            total += bal;
            if bal != expected[&a] {
                return fail(format!(
                    "account {a} balance {bal} != expected {} (atomicity torn)",
                    expected[&a]
                ));
            }
        }
        if total != ACCOUNTS as i64 * INITIAL_BALANCE {
            return fail(format!("total balance {total} not conserved"));
        }
        block_on(tx.commit())?;
        Ok(format!(
            "acked={} committed={} aborted={} recovered_txns={}",
            acked.len(),
            recovered.len(),
            aborted.len(),
            info.txns
        ))
    })();

    match verdict {
        Ok(summary) => {
            db.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            Ok(summary)
        }
        Err(e) => {
            // Post-mortem evidence: the crash image stays on disk, and the
            // recovery run's flight-recorder trace lands next to it for
            // Perfetto inspection.
            let trace = dir.with_extension("trace.json");
            match db.write_trace(&trace) {
                Ok(()) => {
                    eprintln!("seed {seed}: flight recorder dumped to {}", trace.display())
                }
                Err(we) => eprintln!("seed {seed}: trace dump failed: {we}"),
            }
            db.shutdown();
            Err(e)
        }
    }
}

/// Post-mortem: decode a saved crash image's WAL and print every committed
/// transaction's ledger inserts.
fn dump(dir: &std::path::Path) -> Result<()> {
    let wal_dir = if dir.join("wal").is_dir() { dir.join("wal") } else { dir.to_path_buf() };
    let txns = phoebe_wal::recover_dir(&wal_dir)?;
    println!("{} committed transactions in {}", txns.len(), wal_dir.display());
    for t in &txns {
        let ops: Vec<String> = t
            .ops
            .iter()
            .map(|op| match op {
                phoebe_wal::RecordBody::Insert { table, row, tuple } => {
                    format!("ins {table:?}/{row:?} {tuple:?}")
                }
                phoebe_wal::RecordBody::Update { table, row, .. } => {
                    format!("upd {table:?}/{row:?}")
                }
                phoebe_wal::RecordBody::Delete { table, row } => format!("del {table:?}/{row:?}"),
                other => format!("{other:?}"),
            })
            .collect();
        println!("  xid {:?} cts {} max_gsn {}: {}", t.xid, t.cts, t.max_gsn, ops.join("; "));
    }
    Ok(())
}

fn main() {
    let mut seeds: Vec<u64> = Vec::new();
    let mut start = 1u64;
    let mut count = 50u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1).and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(|| {
                eprintln!("usage: recovery_torture [--seeds N] [--start S] [--seed S]");
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--dump" => {
                let path = std::path::PathBuf::from(args.get(i + 1).expect("--dump <dir>"));
                if let Err(e) = dump(&path) {
                    eprintln!("dump failed: {e}");
                    std::process::exit(1);
                }
                return;
            }
            "--seed" => {
                seeds.push(need(i));
                i += 2;
            }
            "--seeds" => {
                count = need(i);
                i += 2;
            }
            "--start" => {
                start = need(i);
                i += 2;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: recovery_torture [--seeds N] [--start S] [--seed S]");
                std::process::exit(2);
            }
        }
    }
    if seeds.is_empty() {
        seeds = (start..start + count).collect();
    }

    let mut failures = 0u64;
    let total = seeds.len();
    for seed in seeds {
        match run_seed(seed) {
            Ok(stats) => println!("seed {seed}: OK  {stats}"),
            Err(e) => {
                println!("seed {seed}: FAILED — {e}");
                println!("reproduce with: recovery_torture --seed {seed}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        println!("recovery torture: {failures}/{total} seeds FAILED");
        std::process::exit(1);
    }
    println!("recovery torture: {total}/{total} seeds passed");
}
