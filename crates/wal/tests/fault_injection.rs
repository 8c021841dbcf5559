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
use phoebe_wal::{recover_dir, recover_dir_stats, RecordBody, RfaState, WalHub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// All `slots` in one segment, flusher on a 50 us window.
fn hub_over(fs: Arc<SimFs>, dir: &std::path::Path, slots: usize) -> Arc<WalHub> {
    segmented_hub(fs, dir, slots, slots, Duration::from_micros(50))
}

fn segmented_hub(
    fs: Arc<SimFs>,
    dir: &std::path::Path,
    slots: usize,
    slots_per_segment: usize,
    group_commit: Duration,
) -> Arc<WalHub> {
    let metrics = Arc::new(Metrics::new(1));
    WalHub::with_fs(dir, slots, slots_per_segment, 2, group_commit, true, metrics, fs).unwrap()
}

/// Log one single-insert transaction on `slot`, commit record included,
/// without waiting for durability (the caller drives `flush_all`).
fn log_txn(hub: &WalHub, slot: usize, x: u64) {
    let xid = Xid::from_start_ts(x);
    let gsn = hub.stamp_write(&mut RfaState::default(), 0, None, slot);
    hub.log_op(slot, xid, gsn, RecordBody::Begin);
    hub.log_op(
        slot,
        xid,
        gsn,
        RecordBody::Insert { table: TableId(1), row: RowId(x), tuple: vec![Value::I64(x as i64)] },
    );
    hub.log_op(slot, xid, gsn, RecordBody::Commit { cts: x });
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
                std::thread::spawn(move || {
                    loop {
                        let x = next_xid.fetch_add(1, Ordering::Relaxed);
                        if x > 10_000 {
                            return;
                        }
                        let xid = Xid::from_start_ts(x);
                        let mut rfa = RfaState::default();
                        let gsn = hub.stamp_write(&mut rfa, 0, None, slot);
                        // Odd transactions also claim a cross-slot
                        // dependency on the current global GSN, driving
                        // the remote-wait commit path.
                        if x % 2 == 1 {
                            rfa.needs_remote = true;
                            rfa.max_gsn = rfa.max_gsn.max(hub.current_gsn());
                        }
                        hub.log_op(slot, xid, gsn, RecordBody::Begin);
                        hub.log_op(
                            slot,
                            xid,
                            gsn,
                            RecordBody::Insert {
                                table: TableId(1),
                                row: RowId(x),
                                tuple: vec![Value::I64(x as i64)],
                            },
                        );
                        match block_on(hub.commit(slot, xid, x, &rfa)) {
                            Ok(()) => acked.lock().unwrap().push(x),
                            Err(_) => return,
                        }
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
    block_on(hub.commit(0, xid, 1, &RfaState::default())).unwrap();

    sim.crash();
    let xid2 = Xid::from_start_ts(2);
    hub.log_op(0, xid2, 2, RecordBody::Begin);
    let err = block_on(hub.commit(0, xid2, 2, &RfaState::default())).unwrap_err();
    assert!(matches!(err, PhoebeError::WalHalted), "got {err:?}");
    assert!(hub.is_halted());
    // The pre-crash commit is still in the durable image.
    hub.shutdown();
    assert_eq!(recover_dir(&dir).unwrap().len(), 1);
}

/// `flush_all` + the durable-GSN barrier form a real durability line:
/// once `ensure_durable_gsn_blocking` returns for a GSN, a crash cannot
/// lose records at or below it.
#[test]
fn durable_gsn_barrier_survives_crash() {
    for seed in 100..110u64 {
        let dir = KernelConfig::for_tests().data_dir;
        let sim = SimFs::new(FaultConfig::crash_only(seed));
        let hub = hub_over(Arc::clone(&sim), &dir, 2);

        // Two committed transactions on different slots.
        for (slot, x) in [(0u64, 1u64), (1, 2)] {
            let xid = Xid::from_start_ts(x);
            let mut rfa = RfaState::default();
            let gsn = hub.stamp_write(&mut rfa, 0, None, slot as usize);
            hub.log_op(slot as usize, xid, gsn, RecordBody::Begin);
            block_on(hub.commit(slot as usize, xid, x * 10, &rfa)).unwrap();
        }
        let barrier_gsn = hub.current_gsn();
        hub.ensure_durable_gsn_blocking(barrier_gsn);
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

/// A round costs one write and one sync per segment with pending bytes —
/// never one per slot — and nothing when nothing is pending.
#[test]
fn a_round_syncs_once_per_busy_segment() {
    let dir = KernelConfig::for_tests().data_dir;
    let sim = SimFs::new(FaultConfig::crash_only(1));
    // Two segments of four slots; a 5 s window keeps the flusher asleep
    // (log_op does not ring the doorbell), so every round is ours.
    let hub = segmented_hub(Arc::clone(&sim), &dir, 8, 4, Duration::from_secs(5));
    let io_of = |f: &dyn Fn()| {
        let (w0, s0) = sim.io_counts();
        f();
        hub.flush_all().unwrap();
        let (w1, s1) = sim.io_counts();
        (w1 - w0, s1 - s0)
    };
    // One busy worker: three of its slots have records.
    assert_eq!(io_of(&|| (0..3).for_each(|slot| log_txn(&hub, slot, 1 + slot as u64))), (1, 1));
    // Both workers busy, every slot.
    assert_eq!(io_of(&|| (0..8).for_each(|slot| log_txn(&hub, slot, 10 + slot as u64))), (2, 2));
    assert_eq!(io_of(&|| ()), (0, 0), "an empty round touches no file");
    hub.shutdown();
    assert_eq!(recover_dir(&dir).unwrap().len(), 11);
}

/// A gathered round torn mid-write: three slots' bytes travel in one
/// write, the disk dies under it and keeps a seeded prefix (or nothing, or
/// all of it). Whatever landed, the earlier acknowledged round survives,
/// nothing from the torn round was acknowledged, only an intact prefix of
/// the gathered bytes is replayed, and the scan accounts for the rest.
#[test]
fn torn_gathered_round_keeps_the_acked_prefix_and_acks_nothing_past_the_tear() {
    let (mut torn, mut partial) = (0, 0);
    for seed in 0..48u64 {
        let dir = KernelConfig::for_tests().data_dir;
        let sim = SimFs::new(FaultConfig::crash_only(seed));
        let hub = segmented_hub(Arc::clone(&sim), &dir, 4, 4, Duration::from_secs(5));
        // Round 1: slots 0..3 each commit; flushed and acknowledged.
        (0..3).for_each(|slot| log_txn(&hub, slot, 1 + slot as u64));
        hub.flush_all().unwrap();
        let flushed_lsns =
            || (0..3).map(|slot| hub.writer(slot).flushed_lsn()).collect::<Vec<u64>>();
        assert_eq!(flushed_lsns(), [3, 3, 3]);
        // Round 2: the same three slots again, gathered in slot order; the
        // disk freezes on that one write.
        (0..3).for_each(|slot| log_txn(&hub, slot, 11 + slot as u64));
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
        // Every byte in the file is either a CRC-valid record or counted
        // as discarded tail.
        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let valid_bytes: usize = phoebe_wal::recovery::read_wal_file(&path)
            .unwrap()
            .iter()
            .map(|rec| rec.encode_into(&mut Vec::new()))
            .sum();
        assert_eq!(
            valid_bytes as u64 + stats.tail_bytes_discarded,
            std::fs::metadata(&path).unwrap().len(),
            "seed {seed}: torn tail not accounted"
        );
        torn += (stats.tail_bytes_discarded > 0) as u32;
        partial += (survivors > 0 && survivors < 3) as u32;
    }
    assert!(torn > 0, "no seed tore the write mid-record");
    assert!(partial > 0, "no seed kept a strict prefix of the gathered slots");
}
