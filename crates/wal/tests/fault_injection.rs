//! WAL-layer fault injection: the hub over a [`SimFs`] torture disk.
//!
//! These tests pin the durability contract at its narrowest point — the
//! hub itself, no kernel above it: a commit acknowledgment means the
//! transaction's records survive any crash that happens afterwards, and
//! once the log device fails, commits error with `WalHalted` instead of
//! acknowledging.

use phoebe_common::error::PhoebeError;
use phoebe_common::fault::{FaultConfig, SimFs};
use phoebe_common::ids::{RowId, TableId, Xid};
use phoebe_common::metrics::Metrics;
use phoebe_common::KernelConfig;
use phoebe_runtime::block_on;
use phoebe_storage::schema::Value;
use phoebe_storage::WalBarrier;
use phoebe_wal::recovery::read_wal_file;
use phoebe_wal::{recover_dir, recover_dir_stats, RecordBody, WalHub, WalRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The kernel's slot count: 2 workers × 16 slots plus 8 external slots.
const KERNEL_SLOTS: usize = 2 * 16 + 8;

/// A hub over `fs`. Its rounds are its callers': each commit here waits
/// off the pool and so runs its own, and the window only paces the kernel
/// tick's rounds (`flush_if_due`), which no test here makes.
fn hub_over(fs: Arc<SimFs>, dir: &std::path::Path, slots: usize) -> Arc<WalHub> {
    hub_with_window(fs, dir, slots, Duration::from_micros(50))
}

fn hub_with_window(
    fs: Arc<SimFs>,
    dir: &std::path::Path,
    slots: usize,
    group_commit: Duration,
) -> Arc<WalHub> {
    WalHub::with_fs(dir, slots, group_commit, true, Arc::new(Metrics::new(1)), fs, 1).unwrap()
}

/// Log one single-insert transaction on `slot`, commit record included,
/// without waiting for durability (the caller drives `flush_all`).
fn log_txn(hub: &WalHub, slot: usize, x: u64) {
    let xid = Xid::from_start_ts(x);
    hub.log_op(slot, xid, 1, RecordBody::Begin);
    hub.log_op(
        slot,
        xid,
        1,
        RecordBody::Insert { table: TableId(1), row: RowId(x), tuple: vec![Value::I64(x as i64)] },
    );
    hub.log_op(slot, xid, 1, RecordBody::Commit { cts: x });
}

/// Acked commits survive a crash: hammer the hub from several slots,
/// freeze the disk mid-flight, then recover from the durable image and
/// check every acknowledged transaction is present.
#[test]
fn acked_commits_survive_crash() {
    for seed in 0..24u64 {
        let dir = KernelConfig::for_tests().data_dir;
        let sim = SimFs::new(FaultConfig::crash_only(seed));
        let hub = hub_over(Arc::clone(&sim), &dir, 4);
        let acked: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let next_xid = Arc::new(AtomicU64::new(1));

        let workers: Vec<_> = (0..4usize)
            .map(|slot| {
                let hub = Arc::clone(&hub);
                let acked = Arc::clone(&acked);
                let next_xid = Arc::clone(&next_xid);
                std::thread::spawn(move || loop {
                    let x = next_xid.fetch_add(1, Ordering::Relaxed);
                    if x > 10_000 {
                        return;
                    }
                    let xid = Xid::from_start_ts(x);
                    hub.log_op(slot, xid, 1, RecordBody::Begin);
                    hub.log_op(
                        slot,
                        xid,
                        1,
                        RecordBody::Insert {
                            table: TableId(1),
                            row: RowId(x),
                            tuple: vec![Value::I64(x as i64)],
                        },
                    );
                    match block_on(hub.commit(slot, xid, x)) {
                        Ok(()) => acked.lock().unwrap().push(x),
                        Err(_) => return,
                    }
                })
            })
            .collect();

        // Let some commits through, then pull the plug.
        std::thread::sleep(Duration::from_millis(20));
        sim.crash();
        for w in workers {
            w.join().unwrap();
        }
        hub.shutdown();

        let committed: std::collections::HashSet<u64> =
            recover_dir(&dir).unwrap().iter().map(|t| t.xid.start_ts()).collect();
        let acked = acked.lock().unwrap();
        for x in acked.iter() {
            assert!(
                committed.contains(x),
                "seed {seed}: acked xid {x} missing from the durable image \
                 ({} acked, {} recovered)",
                acked.len(),
                committed.len(),
            );
        }
    }
}

/// After the disk dies, a commit must fail with `WalHalted` — never hang,
/// never acknowledge.
#[test]
fn commit_after_crash_returns_wal_halted() {
    let dir = KernelConfig::for_tests().data_dir;
    let sim = SimFs::new(FaultConfig::crash_only(7));
    let hub = hub_over(Arc::clone(&sim), &dir, 1);

    let xid = Xid::from_start_ts(1);
    hub.log_op(0, xid, 1, RecordBody::Begin);
    block_on(hub.commit(0, xid, 1)).unwrap();

    sim.crash();
    let xid2 = Xid::from_start_ts(2);
    hub.log_op(0, xid2, 2, RecordBody::Begin);
    let err = block_on(hub.commit(0, xid2, 2)).unwrap_err();
    assert!(matches!(err, PhoebeError::WalHalted), "got {err:?}");
    assert!(hub.is_halted());
    // The pre-crash commit is still in the durable image.
    hub.shutdown();
    assert_eq!(recover_dir(&dir).unwrap().len(), 1);
}

/// `flush_all` + the durable-GSN barrier form a real durability line:
/// once the barrier's `ensure_durable` returns for a GSN, a crash cannot
/// lose records at or below it.
#[test]
fn durable_gsn_barrier_survives_crash() {
    for seed in 100..110u64 {
        let dir = KernelConfig::for_tests().data_dir;
        let sim = SimFs::new(FaultConfig::crash_only(seed));
        let hub = hub_over(Arc::clone(&sim), &dir, 2);

        // Two committed transactions on different slots.
        for (slot, x) in [(0usize, 1u64), (1, 2)] {
            let xid = Xid::from_start_ts(x);
            hub.log_op(slot, xid, 1, RecordBody::Begin);
            block_on(hub.commit(slot, xid, x * 10)).unwrap();
        }
        let barrier_gsn = hub.current_gsn();
        hub.ensure_durable(barrier_gsn);
        assert!(hub.durable_gsn() >= barrier_gsn);

        // Volatile tail after the barrier, then crash.
        let xid = Xid::from_start_ts(3);
        hub.log_op(0, xid, barrier_gsn + 1, RecordBody::Begin);
        sim.crash();
        hub.shutdown();

        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(
            recovered.len(),
            2,
            "seed {seed}: both barrier-covered transactions must survive"
        );
        assert!(recovered.iter().all(|t| t.max_gsn <= barrier_gsn));
    }
}

/// `(slot, lsn, gsn)` of one appended record.
type Stamped = (usize, u64, u64);

/// Four slots append with random cross-slot floors — each record either
/// rides the clock or is stamped above another slot's last record — until
/// `stop` is set or `per_slot` records each. Joining a handle yields what
/// its slot appended.
fn stamp_storm(
    hub: &Arc<WalHub>,
    seed: u64,
    per_slot: u64,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<Vec<Stamped>>> {
    let last: Arc<[AtomicU64; 4]> = Arc::new(Default::default());
    (0..4usize)
        .map(|slot| {
            let (hub, last, stop) = (Arc::clone(hub), Arc::clone(&last), Arc::clone(stop));
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed * 4 + slot as u64);
                let mut stamped = Vec::new();
                for n in 1..=per_slot {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let other = rng.random_range(0..4usize);
                    let floor = match other == slot {
                        true => 0,
                        false => last[other].load(Ordering::Acquire) + 1,
                    };
                    let x = Xid::from_start_ts((slot as u64) << 32 | n);
                    let (lsn, gsn) = hub.log_op(slot, x, floor, RecordBody::Begin);
                    assert!(gsn >= floor);
                    last[slot].fetch_max(gsn, Ordering::AcqRel);
                    stamped.push((slot, lsn.raw(), gsn));
                }
                stamped
            })
        })
        .collect()
}

fn join_storm(appenders: Vec<std::thread::JoinHandle<Vec<Stamped>>>) -> Vec<Stamped> {
    appenders.into_iter().flat_map(|a| a.join().unwrap()).collect()
}

/// The round-tick invariant: after every round, each record stamped at or
/// below `durable_gsn()` is at or below its slot's flushed LSN — whatever
/// the appenders' floors and however their appends interleave with the
/// steals. The rounds are this test's alone (nothing else runs one), so
/// reading the horizons right after one reads exactly what it
/// published; the records are checked against every round afterwards.
/// Read back from the log, each round holds exactly the records stamped
/// between the previous round's tick and its own: the steal takes every
/// slot at one instant.
#[test]
fn every_record_stamped_at_or_below_durable_gsn_is_flushed() {
    let dir = KernelConfig::for_tests().data_dir;
    let sim = SimFs::new(FaultConfig::crash_only(3));
    let hub = hub_with_window(sim, &dir, 4, Duration::from_secs(5));
    let appenders = stamp_storm(&hub, 3, 20_000, &Arc::new(AtomicBool::new(false)));
    let round = || {
        hub.flush_all().unwrap();
        let flushed: Vec<u64> = (0..4).map(|slot| hub.writer(slot).flushed_lsn()).collect();
        (hub.durable_gsn(), flushed)
    };
    let mut published = Vec::new();
    while !appenders.iter().all(|a| a.is_finished()) {
        published.push(round());
    }
    let stamped = join_storm(appenders);
    published.push(round());
    for &(slot, lsn, gsn) in &stamped {
        // The first round whose horizon covers the record (horizons only
        // rise, so it is the strictest check).
        let first = published.partition_point(|(durable, _)| *durable < gsn);
        let (durable, flushed) =
            published.get(first).expect("a round after the last append covers every record");
        assert!(
            flushed[slot] >= lsn,
            "slot {slot} lsn {lsn} stamped {gsn} <= durable {durable} but not flushed"
        );
    }
    hub.shutdown();
    let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let (mut round, mut tick, mut rounds, mut records) = (Vec::new(), None, 0, 0);
    for rec in read_wal_file(&path).unwrap() {
        if rec.body != RecordBody::RoundEnd {
            round.push(rec.gsn.raw());
            continue;
        }
        let next = rec.gsn.raw();
        match tick {
            // The segment's leading marker: nothing before it.
            None => assert!(round.is_empty()),
            Some(prev) => {
                let outside = round.iter().find(|&&g| g < prev || g >= next);
                assert!(outside.is_none(), "round [{prev}, {next}) holds stamp {outside:?}");
                rounds += 1;
            }
        }
        records += round.len();
        round.clear();
        tick = Some(next);
    }
    assert!(round.is_empty(), "a synced round without its marker");
    assert_eq!(records, stamped.len(), "every record is in exactly one round");
    assert!(rounds > 1, "the storm spanned one round");
}

/// The same invariant across a crash: the recovered image holds every
/// record stamped at or below the last `durable_gsn()` read before the
/// plug was pulled.
#[test]
fn records_stamped_at_or_below_durable_gsn_survive_crash() {
    for seed in 0..8u64 {
        let dir = KernelConfig::for_tests().data_dir;
        let sim = SimFs::new(FaultConfig::crash_only(seed));
        let hub = hub_with_window(Arc::clone(&sim), &dir, 4, Duration::from_secs(5));
        let stop = Arc::new(AtomicBool::new(false));
        let appenders = stamp_storm(&hub, seed, 50_000, &stop);
        let flusher =
            {
                let hub = Arc::clone(&hub);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) && hub.flush_all().is_ok() {}
                })
            };
        // A few rounds in, pull the plug — but not before some record is
        // covered. Under load every early round can run before any
        // appender stamps. Once a round has flushed a record, the round
        // after it ticks above that record's stamp; at most two more
        // completed rounds include that one.
        while (0..4).all(|slot| hub.writer(slot).flushed_lsn() == 0) {
            std::thread::sleep(Duration::from_micros(100));
        }
        let covering = hub.rounds() + 2;
        while hub.rounds() < covering.max(3 + seed) {
            std::thread::sleep(Duration::from_micros(100));
        }
        let durable = hub.durable_gsn();
        sim.crash();
        stop.store(true, Ordering::Release);
        flusher.join().unwrap();
        let stamped = join_storm(appenders);
        hub.shutdown();

        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let recovered: std::collections::HashSet<(u64, u64)> = read_wal_file(&path)
            .unwrap()
            .iter()
            .map(|rec| (rec.xid.start_ts() >> 32, rec.lsn.raw()))
            .collect();
        let covered: Vec<_> = stamped.iter().filter(|&&(_, _, gsn)| gsn <= durable).collect();
        assert!(!covered.is_empty(), "seed {seed}: no record covered before the crash");
        for &&(slot, lsn, gsn) in &covered {
            assert!(
                recovered.contains(&(slot as u64, lsn)),
                "seed {seed}: slot {slot} lsn {lsn} stamped {gsn} <= durable {durable} lost"
            );
        }
    }
}

/// A round costs one write and one sync whichever slots contributed —
/// both workers' and the external ones alike — and nothing when nothing
/// is pending.
#[test]
fn a_round_is_one_write_and_one_sync_whichever_slots_contributed() {
    let dir = KernelConfig::for_tests().data_dir;
    let sim = SimFs::new(FaultConfig::crash_only(1));
    // Nothing else runs a round (log_op waits for nothing), so every round
    // is ours.
    let hub = hub_with_window(Arc::clone(&sim), &dir, KERNEL_SLOTS, Duration::from_secs(5));
    let io_of = |f: &dyn Fn()| {
        let (w0, s0) = sim.io_counts();
        f();
        hub.flush_all().unwrap();
        let (w1, s1) = sim.io_counts();
        (w1 - w0, s1 - s0)
    };
    // Worker 0's first slot, worker 1's second, the last external slot.
    let slots = [0, 17, 39];
    assert_eq!(
        io_of(&|| slots.iter().for_each(|&slot| log_txn(&hub, slot, 1 + slot as u64))),
        (1, 1)
    );
    assert_eq!(io_of(&|| ()), (0, 0), "an empty round touches no file");
    hub.shutdown();
    assert_eq!(recover_dir(&dir).unwrap().len(), 3);
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 1, "every slot logs into one file");
}

/// A gathered round torn mid-write: three slots' bytes — one of each
/// worker's, one external — travel in one write, the disk dies under it
/// and keeps a seeded prefix (or nothing, or all of it). Whatever landed,
/// the earlier acknowledged round survives, nothing from the torn round
/// was acknowledged, the torn round is replayed whole or not at all, and
/// the scan accounts for every byte it cut.
#[test]
fn torn_gathered_round_keeps_the_acked_prefix_and_acks_nothing_past_the_tear() {
    let (mut torn, mut whole) = (0, 0);
    for seed in 0..48u64 {
        let dir = KernelConfig::for_tests().data_dir;
        let sim = SimFs::new(FaultConfig::crash_only(seed));
        let hub = hub_with_window(Arc::clone(&sim), &dir, KERNEL_SLOTS, Duration::from_secs(5));
        let slots = [1, 17, 33];
        // Round 1: each of the three slots commits; flushed and acknowledged.
        (0..3).for_each(|i| log_txn(&hub, slots[i], 1 + i as u64));
        hub.flush_all().unwrap();
        let flushed_lsns =
            || slots.iter().map(|&slot| hub.writer(slot).flushed_lsn()).collect::<Vec<u64>>();
        assert_eq!(flushed_lsns(), [3, 3, 3]);
        // Round 2: the same three slots again, gathered in slot order; the
        // disk freezes on that one write.
        (0..3).for_each(|i| log_txn(&hub, slots[i], 11 + i as u64));
        sim.arm_crash_after_writes(1);
        assert!(hub.flush_all().is_err(), "seed {seed}: the torn round must fail");
        assert!(hub.is_halted());
        assert_eq!(flushed_lsns(), [3, 3, 3], "seed {seed}: the torn round was acknowledged");
        hub.shutdown();

        let (recovered, stats) = recover_dir_stats(&dir).unwrap();
        let xids: Vec<u64> = recovered.iter().map(|t| t.xid.start_ts()).collect();
        let survivors = xids.iter().filter(|&&x| x > 10).count();
        assert_eq!(xids[..3], [1, 2, 3], "seed {seed}: acknowledged round lost");
        assert_eq!(xids[3..], [11, 12, 13][..survivors], "seed {seed}: replay went past the tear");
        assert!(survivors == 0 || survivors == 3, "seed {seed}: a part of a round was replayed");
        // Every byte in the file is a kept record or counted as discarded
        // tail, up to the last non-zero byte or the end of the last
        // CRC-valid record, whichever is further; the preallocated zeroes
        // past that are not counted.
        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let valid_bytes: usize =
            read_wal_file(&path).unwrap().iter().map(|rec| rec.encode_into(&mut Vec::new())).sum();
        let bytes = std::fs::read(&path).unwrap();
        let written = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let mut scan_end = 0;
        while let Some((_, next)) = WalRecord::decode_at(&bytes, scan_end).unwrap() {
            scan_end = next;
        }
        assert_eq!(
            valid_bytes + stats.tail_bytes_discarded as usize,
            written.max(scan_end),
            "seed {seed}: torn tail not accounted"
        );
        torn += (stats.tail_bytes_discarded > 0) as u32;
        whole += (survivors == 3) as u32;
    }
    assert!(torn > 0, "no seed tore the write mid-round");
    assert!(whole > 0, "no seed landed the whole round");
}

/// One transaction of `rows` inserts, each carrying a 1 KiB string,
/// committed and waited for: one round on a hub nothing else rings.
fn commit_rows(hub: &WalHub, x: u64, rows: u64) -> phoebe_common::error::Result<()> {
    let xid = Xid::from_start_ts(x);
    hub.log_op(0, xid, 0, RecordBody::Begin);
    for r in 0..rows {
        let tuple = vec![Value::I64(r as i64), Value::Str("z".repeat(1024))];
        hub.log_op(0, xid, 0, RecordBody::Insert { table: TableId(1), row: RowId(r), tuple });
    }
    block_on(hub.commit(0, xid, x))
}

/// The fill sweep's workload: a bulk round larger than a fresh segment's
/// headroom, then 17 KiB rounds until the log is past 5 MiB. Returns
/// the transactions acknowledged before the first error, and after each
/// one the write count the disk showed.
fn bulk_then_small_rounds(hub: &WalHub, sim: &SimFs) -> (Vec<u64>, Vec<u64>) {
    let (mut acked, mut writes) = (Vec::new(), Vec::new());
    for x in 1..=240 {
        let rows = if x == 1 { 1500 } else { 16 };
        if commit_rows(hub, x, rows).is_err() {
            break;
        }
        acked.push(x);
        writes.push(sim.io_counts().0);
    }
    (acked, writes)
}

/// A crash anywhere around a refill of the preallocated tail: its zero
/// writes, its sync, and the first round that writes into filled space.
/// A bulk round first writes past the headroom, so the first refill
/// must start at the round offset, not at the old allocated end, or it
/// overwrites acknowledged bytes. Every crash point keeps every
/// acknowledged transaction, and whole rounds only: each round is one
/// transaction, so what recovers is the acknowledged ones and at most
/// the one in flight, each with all its records.
#[test]
fn crash_sweep_across_refills_keeps_every_acked_commit() {
    let quiet = Duration::from_secs(5);
    // A dry run finds where the refills fall: a fill shows as writes
    // beyond one per round, counted by the sample after the round it
    // follows or the next one.
    let dir = KernelConfig::for_tests().data_dir;
    let sim = SimFs::new(FaultConfig::crash_only(0));
    let hub = hub_with_window(Arc::clone(&sim), &dir, 1, quiet);
    let created = sim.io_counts().0;
    let (acked, writes) = bulk_then_small_rounds(&hub, &sim);
    hub.shutdown();
    assert_eq!(acked.len(), 240);
    let marks: Vec<u64> = std::iter::once(created).chain(writes).map(|w| w - created).collect();
    let fills: Vec<usize> = (1..marks.len()).filter(|&k| marks[k] - marks[k - 1] > 1).collect();
    assert!(fills.len() >= 2, "the workload ran {} refills", fills.len());
    let mut points: Vec<u64> = fills
        .iter()
        .flat_map(|&k| {
            marks[k.saturating_sub(2)].saturating_sub(2)..=marks[(k + 1).min(marks.len() - 1)] + 2
        })
        .filter(|&n| n > 0)
        .collect();
    points.dedup();

    for (seed, &crash_at) in points.iter().enumerate() {
        let dir = KernelConfig::for_tests().data_dir;
        let sim = SimFs::new(FaultConfig::crash_only(seed as u64));
        let hub = hub_with_window(Arc::clone(&sim), &dir, 1, quiet);
        sim.arm_crash_after_writes(crash_at);
        let (acked, _) = bulk_then_small_rounds(&hub, &sim);
        assert!(sim.crashed(), "crash point {crash_at} never fired");
        hub.shutdown();
        let recovered = recover_dir(&dir).unwrap();
        let xids: Vec<u64> = recovered.iter().map(|t| t.xid.start_ts()).collect();
        assert_eq!(xids[..acked.len().min(xids.len())], acked, "crash at write {crash_at}");
        assert!(
            xids.len() - acked.len() <= 1,
            "crash at write {crash_at}: {} recovered past the acked {}",
            xids.len(),
            acked.len()
        );
        for t in &recovered {
            let rows = if t.xid.start_ts() == 1 { 1500 } else { 16 };
            assert_eq!(t.ops.len(), rows, "crash at write {crash_at}: a round replayed in part");
        }
    }
}

/// The segment names in `dir`, sorted.
fn segments(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A crash between a segment's creation and its first round leaves the
/// marker and the preallocated zeroes: the next open logs into that same
/// segment. A segment holding a round, or a torn scrap of one, is never
/// reused.
#[test]
fn a_crash_before_the_first_round_reopens_into_the_same_segment() {
    let dir = KernelConfig::for_tests().data_dir;
    let quiet = Duration::from_secs(5);
    let sim = SimFs::new(FaultConfig::crash_only(3));
    let hub = hub_with_window(Arc::clone(&sim), &dir, 2, quiet);
    sim.crash();
    hub.shutdown();
    let first = dir.join("wal_seg_0000.log");
    assert!(std::fs::metadata(&first).unwrap().len() >= 1 << 20, "the zero tail is untrimmed");
    assert_eq!(recover_dir_stats(&dir).unwrap().1.tail_bytes_discarded, 0);

    let sim = SimFs::new(FaultConfig::crash_only(4));
    let hub = hub_with_window(Arc::clone(&sim), &dir, 2, quiet);
    assert_eq!(segments(&dir), ["wal_seg_0000.log"], "a round-less segment is reused");
    log_txn(&hub, 1, 1);
    hub.flush_all().unwrap();
    sim.crash();
    hub.shutdown();

    let sim = SimFs::new(FaultConfig::crash_only(5));
    let hub = hub_with_window(Arc::clone(&sim), &dir, 2, quiet);
    assert_eq!(segments(&dir), ["wal_seg_0000.log", "wal_seg_0001.log"]);
    sim.crash();
    hub.shutdown();
    assert_eq!(recover_dir(&dir).unwrap().len(), 1, "the acked round survives");

    // One non-zero byte after the marker is a round that was torn.
    let torn = dir.join("wal_seg_0001.log");
    let f = std::fs::OpenOptions::new().write(true).open(&torn).unwrap();
    std::os::unix::fs::FileExt::write_all_at(&f, &[0xde], 4096).unwrap();
    let hub = hub_with_window(SimFs::new(FaultConfig::crash_only(6)), &dir, 2, quiet);
    assert_eq!(segments(&dir).len(), 3, "a torn round's segment is kept");
    hub.shutdown();
}
