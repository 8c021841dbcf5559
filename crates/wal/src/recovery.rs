//! Recovery: read the WAL files and reassemble committed transactions
//! (§8).
//!
//! The scan reads every WAL file once, in file order, and never writes.
//! File order is enough: a transaction logs only on its own slot, so all
//! its records sit in one file, in LSN order; records are grouped by xid,
//! and committed transactions come back sorted by commit timestamp, so
//! the order across files never matters. Records are self-describing, so
//! the scan does not care how slots were mapped to files — one
//! `wal_seg_NNNN.log` per incarnation today, the per-worker `wal_seg_*`
//! files and the per-slot `wal_slot_*` ones of older directories all
//! recover through the same code. Because PhoebeDB's records are logical,
//! replay re-applies the transactions in commit-timestamp order, which
//! reproduces the serial history the MVCC engine admitted. Transactions
//! without a commit record (in flight at the crash, or aborted) are
//! discarded — their in-place page effects were never checkpointed, and
//! UNDO was memory-only, exactly the "Non-Force" contract.
//!
//! Recovery keeps whole group-commit rounds. A segment that starts with a
//! round marker ([`RecordBody::RoundEnd`]) ends every round with one, and
//! the scan keeps it only up to its last marker:
//!
//! * a commit is acknowledged only after its round, marker included, was
//!   synced, so the cut drops nothing that was acknowledged;
//! * whoever saw a commit's outcome stamped at or above its Commit record,
//!   so its own commit is in the same round or a later one, and is cut
//!   with it.
//!
//! A segment without a leading marker, written before markers existed,
//! keeps its whole CRC-valid prefix.
//!
//! A segment the writer preallocated ends in zeroes no round reached (a
//! crash leaves them; a clean shutdown cuts them off). The first zero
//! length is the end of the log, so the zeroes are neither read into
//! memory nor counted as a torn tail.

use crate::record::{RecordBody, WalRecord};
use phoebe_common::error::Result;
use phoebe_common::ids::{Timestamp, Xid};
use std::collections::HashMap;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// One committed transaction reassembled from the logs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredTxn {
    pub xid: Xid,
    pub cts: Timestamp,
    /// Highest GSN across this transaction's records — for the oracle
    /// invariant that recovery never resurrects anything past the durable
    /// GSN the crashed incarnation acknowledged.
    pub max_gsn: u64,
    /// Operations in original (LSN) order.
    pub ops: Vec<RecordBody>,
}

/// Volume accounting for one recovery scan: how much log the scan read
/// and how much torn tail it discarded (surfaced as kernel counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalScanStats {
    /// Records kept across all scanned files: the CRC-valid prefix, cut
    /// at the last round marker in a marked segment.
    pub records: u64,
    /// Bytes past the last record kept, summed across files (torn or
    /// partial trailing writes the crash left behind, and a marked
    /// segment's records after its last marker), up to the last non-zero
    /// byte or CRC-valid record: a preallocated zero tail is not counted.
    pub tail_bytes_discarded: u64,
    /// Highest GSN on any CRC-valid record, committed, cut or not.
    pub max_gsn: u64,
    /// Highest start timestamp of any CRC-valid record's xid, committed,
    /// cut or not.
    pub max_start_ts: Timestamp,
}

/// True for the file names the log scan reads: `wal_seg_NNNN.log`, and
/// the per-slot `wal_slot_NNNN.log` of directories written before slots
/// shared a file.
pub fn is_wal_file(name: &str) -> bool {
    name.starts_with("wal_") && name.ends_with(".log")
}

/// Read one WAL file into records: its CRC-valid prefix, and in a marked
/// segment only up to the last round marker (markers included).
pub fn read_wal_file(path: &Path) -> Result<Vec<WalRecord>> {
    read_wal_file_stats(path, &mut WalScanStats::default())
}

/// [`read_wal_file`], accumulating scan volume into `stats`.
pub fn read_wal_file_stats(path: &Path, stats: &mut WalScanStats) -> Result<Vec<WalRecord>> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let written = written_len(&file)? as usize;
    let mut buf = vec![0; written];
    file.read_exact_at(&mut buf, 0)?;
    let mut out = Vec::new();
    let mut at = 0;
    // (records, bytes) up to and including the last round marker.
    let mut whole_rounds = (0, 0);
    loop {
        let Some((rec, next)) = WalRecord::decode_at(&buf, at)? else {
            // A record can end in zero bytes, which the scan for the last
            // non-zero byte left out: its length says how many. (Every
            // record's header is in `buf`: the xid's flag bit is non-zero.)
            let frame = buf
                .get(at..at + 4)
                .map(|h| at + 8 + u32::from_le_bytes(h.try_into().expect("4")) as usize);
            match frame {
                Some(end) if end > buf.len() && end as u64 <= len => {
                    buf.resize(end, 0);
                    continue;
                }
                _ => break,
            }
        };
        stats.max_gsn = stats.max_gsn.max(rec.gsn.raw());
        stats.max_start_ts = stats.max_start_ts.max(rec.xid.start_ts());
        let marker = rec.body == RecordBody::RoundEnd;
        out.push(rec);
        at = next;
        if marker {
            whole_rounds = (out.len(), at);
        }
    }
    let valid = at;
    if out.first().is_some_and(|r| r.body == RecordBody::RoundEnd) {
        out.truncate(whole_rounds.0);
        at = whole_rounds.1;
    }
    // A file interleaves several slots' LSN sequences; what replay relies
    // on is each transaction's own records being in order.
    debug_assert!(
        {
            let mut last = HashMap::new();
            out.iter().all(|r| last.insert(r.xid.raw(), r.lsn).is_none_or(|prev| prev < r.lsn))
        },
        "{}: a transaction's records must be LSN-ordered",
        path.display()
    );
    stats.records += out.len() as u64;
    stats.tail_bytes_discarded += (written.max(valid) - at) as u64;
    Ok(out)
}

/// The length of `file` less its trailing zero bytes: read backwards a
/// chunk at a time, so a zero tail is never held whole.
pub(crate) fn written_len(file: &std::fs::File) -> Result<u64> {
    let mut end = file.metadata()?.len();
    let mut chunk = vec![0u8; 64 << 10];
    while end > 0 {
        let n = chunk.len().min(end as usize);
        let start = end - n as u64;
        file.read_exact_at(&mut chunk[..n], start)?;
        if let Some(i) = chunk[..n].iter().rposition(|&b| b != 0) {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

/// Every [`is_wal_file`] in `dir`, in name order.
fn wal_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(is_wal_file))
        .collect();
    files.sort();
    Ok(files)
}

/// `fdatasync` every WAL file in `dir`.
pub fn sync_wal_files(dir: &Path) -> Result<()> {
    for path in wal_files(dir)? {
        std::fs::File::open(path)?.sync_data()?;
    }
    Ok(())
}

/// Scan a WAL directory (every [`is_wal_file`]) and reassemble every
/// committed transaction, ordered by commit timestamp.
pub fn recover_dir(dir: &Path) -> Result<Vec<RecoveredTxn>> {
    recover_dir_stats(dir).map(|(txns, _)| txns)
}

/// [`recover_dir`], additionally returning scan volume accounting.
pub fn recover_dir_stats(dir: &Path) -> Result<(Vec<RecoveredTxn>, WalScanStats)> {
    let mut stats = WalScanStats::default();
    let mut txns: HashMap<u64, RecoveredTxn> = HashMap::new();
    let mut committed: Vec<RecoveredTxn> = Vec::new();
    let fresh = |xid: Xid| RecoveredTxn { xid, cts: 0, max_gsn: 0, ops: Vec::new() };
    for path in wal_files(dir)? {
        for rec in read_wal_file_stats(&path, &mut stats)? {
            match rec.body {
                RecordBody::Begin => {
                    let t = txns.entry(rec.xid.raw()).or_insert_with(|| fresh(rec.xid));
                    t.max_gsn = t.max_gsn.max(rec.gsn.raw());
                }
                RecordBody::Commit { cts } => {
                    if let Some(mut t) = txns.remove(&rec.xid.raw()) {
                        t.cts = cts;
                        t.max_gsn = t.max_gsn.max(rec.gsn.raw());
                        committed.push(t);
                    }
                }
                RecordBody::Abort => {
                    txns.remove(&rec.xid.raw());
                }
                RecordBody::RoundEnd => {}
                op => {
                    // A transaction that logs no Begin (a system move) starts
                    // with its first op.
                    let t = txns.entry(rec.xid.raw()).or_insert_with(|| fresh(rec.xid));
                    t.max_gsn = t.max_gsn.max(rec.gsn.raw());
                    t.ops.push(op);
                }
            }
        }
    }
    committed.sort_by_key(|t| t.cts);
    Ok((committed, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::WalHub;
    use phoebe_common::ids::{RowId, TableId};
    use phoebe_common::metrics::Metrics;
    use phoebe_common::KernelConfig;
    use phoebe_runtime::block_on;
    use phoebe_storage::schema::Value;
    use std::sync::Arc;
    use std::time::Duration;

    fn hub_in(dir: &Path, slots: usize) -> Arc<WalHub> {
        WalHub::new(dir, slots, 2, Duration::from_micros(100), true, Arc::new(Metrics::new(1)))
            .unwrap()
    }

    fn xid(n: u64) -> Xid {
        Xid::from_start_ts(n)
    }

    /// The hub's one log file.
    fn only_wal_file(dir: &Path) -> std::path::PathBuf {
        let mut files = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| is_wal_file(p.file_name().unwrap().to_str().unwrap()));
        let path = files.next().expect("a WAL file");
        assert!(files.next().is_none(), "one log file expected");
        path
    }

    #[test]
    fn committed_transactions_are_recovered_in_cts_order() {
        let dir = KernelConfig::for_tests().data_dir;
        let h = hub_in(&dir, 2);
        // Txn A on slot 0: insert + update, commit @20.
        h.log_op(0, xid(1), 1, RecordBody::Begin);
        h.log_op(
            0,
            xid(1),
            1,
            RecordBody::Insert { table: TableId(1), row: RowId(1), tuple: vec![Value::I64(1)] },
        );
        block_on(h.commit(0, xid(1), 20)).unwrap();
        // Txn B on slot 1 commits earlier (@10).
        h.log_op(1, xid(2), 1, RecordBody::Begin);
        h.log_op(
            1,
            xid(2),
            1,
            RecordBody::Update {
                table: TableId(1),
                row: RowId(9),
                delta: vec![(0, Value::I64(5))],
            },
        );
        block_on(h.commit(1, xid(2), 10)).unwrap();
        // Txn C never commits.
        h.log_op(0, xid(3), 1, RecordBody::Begin);
        h.log_op(0, xid(3), 1, RecordBody::Delete { table: TableId(1), row: RowId(2) });
        h.flush_all().unwrap();
        h.shutdown();

        let recovered = recover_dir(&dir).unwrap();
        assert_eq!(recovered.len(), 2, "uncommitted txn discarded");
        assert_eq!(recovered[0].cts, 10);
        assert_eq!(recovered[1].cts, 20);
        assert_eq!(recovered[1].ops.len(), 1);
        assert!(matches!(recovered[1].ops[0], RecordBody::Insert { .. }));
    }

    #[test]
    fn aborted_transactions_are_discarded() {
        let dir = KernelConfig::for_tests().data_dir;
        let h = hub_in(&dir, 1);
        h.log_op(0, xid(1), 1, RecordBody::Begin);
        h.log_op(0, xid(1), 1, RecordBody::Delete { table: TableId(1), row: RowId(1) });
        h.log_op(0, xid(1), 1, RecordBody::Abort);
        h.flush_all().unwrap();
        h.shutdown();
        assert!(recover_dir(&dir).unwrap().is_empty());
    }

    #[test]
    fn checksum_failing_garbage_tail_is_end_of_log() {
        // A crashed device can leave arbitrary junk after the last good
        // record (torn sector, recycled block). The CRC must classify any
        // such tail as end-of-log rather than an error or a phantom record.
        let dir = KernelConfig::for_tests().data_dir;
        let h = hub_in(&dir, 1);
        h.log_op(0, xid(1), 1, RecordBody::Begin);
        h.log_op(
            0,
            xid(1),
            1,
            RecordBody::Insert { table: TableId(1), row: RowId(1), tuple: vec![Value::I64(7)] },
        );
        block_on(h.commit(0, xid(1), 9)).unwrap();
        h.flush_all().unwrap();
        h.shutdown();
        let path = only_wal_file(&dir);
        let clean = std::fs::read(&path).unwrap();
        // Several shapes of garbage: plausible-length frame with bad CRC,
        // huge length prefix, zero padding, and raw noise.
        let garbages: Vec<Vec<u8>> = vec![
            {
                // Well-formed length, corrupted payload => CRC mismatch.
                let mut g = 8u32.to_le_bytes().to_vec();
                g.extend_from_slice(&0xdead_beefu32.to_le_bytes());
                g.extend_from_slice(&[0xaa; 8]);
                g
            },
            (u32::MAX).to_le_bytes().to_vec(),
            vec![0u8; 64],
            vec![0x5a; 13],
        ];
        for (i, garbage) in garbages.iter().enumerate() {
            let mut bytes = clean.clone();
            bytes.extend_from_slice(garbage);
            std::fs::write(&path, &bytes).unwrap();
            let recovered = recover_dir(&dir).unwrap();
            assert_eq!(recovered.len(), 1, "garbage shape {i}: intact prefix must survive");
            assert_eq!(recovered[0].cts, 9, "garbage shape {i}");
            assert_eq!(recovered[0].ops.len(), 1, "garbage shape {i}");
        }
    }

    #[test]
    fn shuffled_worker_interleavings_recover_identical_committed_set() {
        // Property: the committed set reassembled from the per-slot logs
        // is a pure function of what committed — not of how the concurrent
        // workers' appends interleaved. Emit the same transactions under
        // seed-shuffled slot assignments and op interleavings and demand
        // bit-identical recovery.
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{RngExt, SeedableRng};

        // Nor of how slots map to files: the hub's one log file and a
        // hand-built directory of one `wal_slot_*` file per slot (the
        // layout before slots shared a file) must recover bit-identically,
        // which keeps the scan's multi-file path covered.
        let canonical: Vec<RecoveredTxn> = emit_interleaved(0).0;
        assert_eq!(canonical.len(), 6, "all six committed transactions recovered");
        for seed in 0..12u64 {
            let (one_file, per_slot) = emit_interleaved(seed);
            assert_eq!(one_file, canonical, "seed {seed}: committed set depends on interleaving");
            assert_eq!(per_slot, canonical, "seed {seed}: committed set depends on file layout");
        }

        /// Log 8 transactions (6 commit, 1 aborts, 1 stays in flight)
        /// with seed-driven slot assignment and round-robin shuffling,
        /// then recover the hub's directory and its per-slot split.
        /// Returns committed txns with per-run fields (gsn) normalised
        /// away.
        fn emit_interleaved(seed: u64) -> (Vec<RecoveredTxn>, Vec<RecoveredTxn>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = KernelConfig::for_tests().data_dir;
            let h = hub_in(&dir, 4);
            let slots: Vec<usize> = (0..8).map(|_| rng.random_range(0..4usize)).collect();
            // Each txn runs three phases: Begin, one Insert, then
            // Commit/Abort/nothing. Shuffling the txn order inside each
            // phase wave permutes the cross-worker interleaving while
            // preserving every txn's own op order.
            let mut phases: Vec<(usize, u8)> =
                (0..8).flat_map(|t| [(t, 0u8), (t, 1), (t, 2)]).collect();
            phases.sort_by_key(|&(_, p)| p);
            let mut waves: Vec<Vec<(usize, u8)>> =
                vec![phases[0..8].to_vec(), phases[8..16].to_vec(), phases[16..24].to_vec()];
            for w in &mut waves {
                w.shuffle(&mut rng);
            }
            for (t, phase) in waves.concat() {
                let slot = slots[t];
                let x = xid(t as u64 + 1);
                match phase {
                    0 => {
                        h.log_op(slot, x, 1, RecordBody::Begin);
                    }
                    1 => {
                        h.log_op(
                            slot,
                            x,
                            1,
                            RecordBody::Insert {
                                table: TableId(1),
                                row: RowId(t as u64 + 1),
                                tuple: vec![Value::I64(t as i64)],
                            },
                        );
                    }
                    _ => match t {
                        6 => {
                            h.log_op(slot, x, 1, RecordBody::Abort);
                        }
                        7 => {} // stays in flight; discarded at recovery
                        _ => {
                            block_on(h.commit(slot, x, (t as u64 + 1) * 10)).unwrap();
                        }
                    },
                }
            }
            h.flush_all().unwrap();
            h.shutdown();
            // Split the one file by slot, each slot's records in file order
            // and without round markers, as that layout was written.
            let split = KernelConfig::for_tests().data_dir;
            std::fs::create_dir_all(&split).unwrap();
            let mut files = vec![Vec::new(); 4];
            let records = read_wal_file(&only_wal_file(&dir)).unwrap();
            for rec in records.iter().filter(|r| r.body != RecordBody::RoundEnd) {
                rec.encode_into(&mut files[slots[rec.xid.start_ts() as usize - 1]]);
            }
            for (slot, bytes) in files.iter().enumerate() {
                std::fs::write(split.join(format!("wal_slot_{slot:04}.log")), bytes).unwrap();
            }
            let recovered = |dir: &Path| {
                let mut got = recover_dir(dir).unwrap();
                for t in &mut got {
                    t.max_gsn = 0; // GSNs differ run to run; the *set* must not
                }
                got
            };
            (recovered(&dir), recovered(&split))
        }
    }

    #[test]
    fn legacy_per_slot_directory_recovers_through_the_same_scan() {
        // A directory as written before slots shared segments: one
        // `wal_slot_NNNN.log` per slot, LSNs per file. Hand-built, so the
        // test does not depend on any writer still producing that layout.
        let dir = KernelConfig::for_tests().data_dir;
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, recs: &[(u64, u64, u64, RecordBody)]| {
            let mut bytes = Vec::new();
            for (x, gsn, lsn, body) in recs {
                WalRecord {
                    xid: xid(*x),
                    gsn: phoebe_common::ids::Gsn(*gsn),
                    lsn: phoebe_common::ids::Lsn(*lsn),
                    body: body.clone(),
                }
                .encode_into(&mut bytes);
            }
            std::fs::write(dir.join(name), bytes).unwrap();
        };
        let ins = |row| RecordBody::Insert {
            table: TableId(1),
            row: RowId(row),
            tuple: vec![Value::I64(row as i64)],
        };
        write(
            "wal_slot_0000.log",
            &[
                (1, 1, 1, RecordBody::Begin),
                (1, 1, 2, ins(1)),
                (1, 1, 3, RecordBody::Commit { cts: 20 }),
                (3, 2, 4, RecordBody::Begin), // in flight at the crash
            ],
        );
        write(
            "wal_slot_0001.log",
            &[
                (2, 1, 1, RecordBody::Begin),
                (2, 2, 2, ins(2)),
                (2, 2, 3, RecordBody::Commit { cts: 10 }),
            ],
        );
        std::fs::write(dir.join("not_a_wal.txt"), b"ignored").unwrap();
        let (recovered, stats) = recover_dir_stats(&dir).unwrap();
        assert_eq!(stats.records, 7);
        assert_eq!(stats.max_gsn, 2);
        assert_eq!(stats.max_start_ts, 3, "the in-flight transaction's xid counts too");
        assert_eq!(recovered.iter().map(|t| t.cts).collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(recovered[0].ops, vec![ins(2)]);
        assert_eq!(recovered[1].ops, vec![ins(1)]);
    }

    #[test]
    fn a_zero_tail_is_the_end_of_the_log_not_damage() {
        // A preallocated segment that no clean shutdown trimmed.
        let dir = KernelConfig::for_tests().data_dir;
        let h = hub_in(&dir, 1);
        h.log_op(0, xid(1), 1, RecordBody::Begin);
        block_on(h.commit(0, xid(1), 5)).unwrap();
        h.shutdown();
        let path = only_wal_file(&dir);
        let clean = recover_dir_stats(&dir).unwrap();
        let extend = |path: &Path| {
            let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            f.set_len(f.metadata().unwrap().len() + (3 << 20)).unwrap();
        };
        extend(&path);
        let (recovered, stats) = recover_dir_stats(&dir).unwrap();
        assert_eq!((recovered, stats), clean, "the zeroes change nothing");
        assert_eq!(stats.tail_bytes_discarded, 0);
        // A record may itself end in zeroes (a Commit's cts): the scan
        // for the last non-zero byte must not cut it off. An unmarked
        // segment keeps its last record without a marker to end on it.
        let legacy = dir.join("wal_slot_0000.log");
        let mut bytes = Vec::new();
        for (n, body) in [(1, RecordBody::Begin), (2, RecordBody::Commit { cts: 9 })] {
            let (gsn, lsn) = (phoebe_common::ids::Gsn(1), phoebe_common::ids::Lsn(n));
            WalRecord { xid: xid(2), gsn, lsn, body }.encode_into(&mut bytes);
        }
        assert_eq!(bytes.last(), Some(&0), "the Commit record ends in zero bytes");
        std::fs::write(&legacy, &bytes).unwrap();
        extend(&legacy);
        let (recovered, stats) = recover_dir_stats(&dir).unwrap();
        assert_eq!(recovered.iter().map(|t| t.cts).collect::<Vec<_>>(), [5, 9]);
        assert_eq!(stats.tail_bytes_discarded, 0);
    }

    #[test]
    fn torn_tail_loses_only_the_tail() {
        let dir = KernelConfig::for_tests().data_dir;
        let h = hub_in(&dir, 1);
        h.log_op(0, xid(1), 1, RecordBody::Begin);
        block_on(h.commit(0, xid(1), 5)).unwrap();
        h.flush_all().unwrap();
        h.shutdown();
        // Corrupt the file tail.
        let path = only_wal_file(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe]);
        std::fs::write(&path, bytes).unwrap();
        let (recovered, stats) = recover_dir_stats(&dir).unwrap();
        assert_eq!(recovered.len(), 1, "intact prefix survives a torn tail");
        assert_eq!(stats.tail_bytes_discarded, 3, "the torn tail is accounted");
        assert_eq!(stats.records, 4, "the segment's marker, Begin, Commit, the round's marker");
    }

    #[test]
    fn torn_round_never_keeps_a_later_commit_without_an_earlier_one() {
        // T1 commits on slot 1, then T2 on slot 0: T2 may have built on
        // T1, since T1's outcome was public once its Commit was appended.
        // One round gathers both, slot 0's bytes first, and the crash
        // keeps the write only up to the end of T2's Commit record.
        let dir = KernelConfig::for_tests().data_dir;
        let h = WalHub::new(&dir, 2, 2, Duration::from_secs(5), true, Arc::new(Metrics::new(1)))
            .unwrap();
        for (slot, x) in [(1, 1), (0, 2)] {
            h.log_op(slot, xid(x), 0, RecordBody::Begin);
            h.log_op(slot, xid(x), 0, RecordBody::Commit { cts: 10 * x });
        }
        h.flush_all().unwrap();
        h.shutdown();
        let path = only_wal_file(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mut at = 0;
        let cut = loop {
            let (rec, next) = WalRecord::decode_at(&bytes, at).unwrap().expect("T2's Commit");
            if rec.xid == xid(2) && matches!(rec.body, RecordBody::Commit { .. }) {
                break next;
            }
            at = next;
        };
        bytes.truncate(cut);
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, stats) = recover_dir_stats(&dir).unwrap();
        let xids: Vec<u64> = recovered.iter().map(|t| t.xid.start_ts()).collect();
        assert!(!xids.contains(&2) || xids.contains(&1), "T2 recovered without T1: {xids:?}");
        let marker = WalRecord::round_end(1).encode_into(&mut Vec::new());
        assert_eq!(stats.tail_bytes_discarded, (cut - marker) as u64, "the torn round is cut");
    }
}
