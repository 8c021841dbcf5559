//! Per-task-slot WAL writers and group commit (§8 "Phoebe's Parallel WAL
//! Design").
//!
//! Every task slot owns a [`WalWriter`]: an in-memory buffer plus its own
//! LSN sequence, so log *appends* never contend across slots. All slots
//! share one segment file per incarnation: a fresh directory starts at
//! `wal_seg_0000.log`, and each reopen logs into the next number, leaving
//! the segments it recovered from untouched. Records are self-describing
//! (xid, GSN, LSN), so nothing about ordering depends on which file holds
//! them. A background flusher runs group-commit rounds, one at a time; a
//! round makes its bytes durable with **one write and one `fdatasync`**
//! made by the flusher itself.
//!
//! Rounds write into space that is already there. The flusher keeps the
//! segment zero-filled and synced some way past the append offset, and
//! refills it between rounds, so a round overwrites allocated blocks and
//! its `fdatasync` carries data only, not a new file size. Recovery reads
//! the first zero length as the end of the log, and a clean shutdown cuts
//! the zero tail off.
//!
//! The GSN clock orders everything. A record is stamped under its slot's
//! buffer lock with the clock's value, raised first to the caller's floor
//! when that is higher; the clock starts past every GSN the recovered
//! segments hold, so GSNs rise across incarnations. A round takes every
//! slot's buffer lock at once, in slot order, advances the clock by one
//! (its *tick*), swaps each non-empty buffer for a spare and lets the locks
//! go; only then does it concatenate and write. No record is stamped while
//! the locks are held, so round k holds exactly the records stamped in
//! [T(k−1), T(k)). Once its write and sync landed the round publishes
//! `durable_gsn = T(k) − 1`, so "is every record stamped ≤ g durable?" is
//! one atomic load.
//!
//! Each non-empty round ends with a [`RecordBody::RoundEnd`] stamped with
//! its tick, in the same write; empty rounds write nothing. A new segment
//! starts with a marker stamped with the clock's first value, written and
//! synced when the segment is created. Recovery keeps a marked segment only
//! up to its last marker, so it replays whole rounds or nothing of them.
//!
//! A commit appends its Commit record, then publishes its outcome, then
//! waits until `durable_gsn()` reaches the record's stamp: one wait for
//! every commit, parked on the hub's [`CommitBell`] at that stamp, which
//! only the round that covers it wakes. Whoever saw the outcome stamps at
//! or above that record, so its own commit lands in the same round or a
//! later one, and a crash that keeps the dependent's round keeps the
//! dependency's too. This deviates
//! from the paper's RFA, where a commit that built on no other slot's
//! unflushed write waits for its own slot's log alone: here every slot's
//! bytes share one write and one sync, so that wait could end no earlier.

use crate::record::{RecordBody, WalRecord};
use crate::recovery::written_len;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::fault::{FaultFile, FaultFs, OsFs};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::{Gsn, Lsn, Timestamp, Xid};
use phoebe_common::metrics::{Component, Counter, Metrics};
use phoebe_common::sync::{Condvar, Rank, RankedMutex};
use phoebe_runtime::block_on;
use phoebe_storage::buffer::FrameMeta;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// The commit bell: where committers and the flusher meet (event-driven
/// group commit).
///
/// A durability wait checks its condition, registers the stamp it waits
/// for with its waker, and rings, all in one critical section. The
/// flusher sleeps on the condvar with the group-commit window as a
/// *timeout*, so a lone commit waits one physical flush, not one window;
/// the rings that arrive while a round's sync is in flight start the next
/// round the moment it completes. After each round the flusher publishes
/// `durable_gsn`, then takes the waiters whose stamp it covers and wakes
/// them outside the lock: a commit whose record is in the next round
/// stays parked. Publishing before draining is what makes the check under
/// the lock sufficient (`wal/tests/loom_bell.rs`): a waiter that checked
/// before the publication is on the list when the drain takes it.
pub struct CommitBell {
    state: RankedMutex<BellState>,
    cv: Condvar,
}

#[derive(Default)]
struct BellState {
    /// Rings so far; the flusher runs a round whenever it moved.
    rings: u64,
    /// Parked waits, each with the stamp it needs durable. A wait dropped
    /// while parked stays until a drain takes it: one spurious wake.
    waiters: Vec<(u64, Waker)>,
}

impl Default for CommitBell {
    fn default() -> Self {
        CommitBell {
            state: RankedMutex::new(Rank::WalDoorbell, "wal.bell", BellState::default()),
            cv: Condvar::new(),
        }
    }
}

impl CommitBell {
    /// Check `done` under the lock; while it yields nothing, park the
    /// task until a drain covers `stamp`, and ring the flusher.
    pub fn park<T>(&self, stamp: u64, cx: &Context, done: impl FnOnce() -> Option<T>) -> Poll<T> {
        let mut state = self.state.lock();
        let Some(out) = done() else {
            state.waiters.push((stamp, cx.waker().clone()));
            state.rings += 1;
            drop(state);
            self.cv.notify_one();
            return Poll::Pending;
        };
        Poll::Ready(out)
    }

    /// Wake the flusher with nobody parked: someone wants a round now.
    fn ring(&self) {
        self.state.lock().rings += 1;
        self.cv.notify_one();
    }

    /// Wake every waiter whose stamp is at or below `through` (all of
    /// them for `u64::MAX`); call it after publishing what it covers.
    pub fn wake_through(&self, through: u64) {
        let due: Vec<_> = self.state.lock().waiters.extract_if(.., |w| w.0 <= through).collect();
        due.into_iter().for_each(|(_, waker)| waker.wake());
    }

    /// The flusher's sleep: until the ring count moves past `seen` or
    /// `timeout` elapses (a spurious wakeup only runs a round early).
    /// Returns the latest count.
    fn sleep(&self, seen: u64, timeout: Duration) -> u64 {
        let mut state = self.state.lock();
        if state.rings == seen {
            state.wait_for(&self.cv, timeout);
        }
        state.rings
    }
}

/// Whether the hub still acknowledges durability; it only rises.
#[derive(Default)]
struct Liveness(AtomicU8);

impl Liveness {
    /// Shut down: the flusher ran its final round and no other follows.
    const CLOSED: u8 = 1;
    /// A log write or fsync failed: nothing more can be proven durable.
    const HALTED: u8 = 2;

    fn stop(&self, why: u8) {
        self.0.fetch_max(why, Ordering::AcqRel);
    }

    /// `Ok` while rounds still run; afterwards the terminal,
    /// non-retryable error that says why they stopped.
    fn check(&self) -> Result<()> {
        match self.0.load(Ordering::Acquire) {
            0 => Ok(()),
            Self::CLOSED => Err(PhoebeError::WalClosed),
            _ => Err(PhoebeError::WalHalted),
        }
    }
}

/// Initial capacity of a slot's append buffer.
const SLOT_BUF_BYTES: usize = 16 * 1024;

/// The zero-filled headroom the flusher keeps past the append offset: a
/// new segment starts with one step, and once less than half a step is
/// left the flusher writes and syncs one more. A fill delays only the
/// next round.
const FILL_STEP: u64 = 1 << 20;

/// What fills write from, one chunk per write. A zeroed heap buffer of a
/// whole step stayed resident (`peak_rss_mb` about 1.3 MB higher on
/// `tpcc_hot`, `tpcc_cold` and `kv_read`), so a step is written from
/// this small one.
static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

/// The segment this incarnation logs into: `wal_seg_0000.log` in a fresh
/// directory, else one past the highest `wal_seg_NNNN.log` — which is
/// reused instead when it holds nothing but zeroes past its leading round
/// marker (an open that logged nothing, or crashed before its first
/// round). A segment holding a record or a torn round is never truncated.
fn next_segment(dir: &Path) -> Result<PathBuf> {
    let marker_len = WalRecord::round_end(0).encode_into(&mut Vec::new()) as u64;
    let mut highest: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let n = name.to_str().and_then(|n| n.strip_prefix("wal_seg_")?.strip_suffix(".log"));
        if let Some(n) = n.and_then(|n| n.parse::<u64>().ok()) {
            if highest.as_ref().is_none_or(|(h, _)| n > *h) {
                highest = Some((n, entry.path()));
            }
        }
    }
    let n = match highest {
        None => 0,
        Some((n, path)) if written_len(&std::fs::File::open(&path)?)? <= marker_len => n,
        Some((n, _)) => n + 1,
    };
    Ok(dir.join(format!("wal_seg_{n:04}.log")))
}

/// Write `len` zero bytes at `from`, a chunk of [`ZEROS`] per write.
fn write_zeros(file: &dyn FaultFile, from: u64, len: u64) -> std::io::Result<()> {
    let mut at = from;
    while at < from + len {
        let n = ZEROS.len().min((from + len - at) as usize);
        file.write_all_at(at, &ZEROS[..n])?;
        at += n as u64;
    }
    Ok(())
}

/// One slot's WAL writer: the append buffer and the slot's LSN marks.
/// The bytes reach disk through the hub's group-commit rounds.
pub struct WalWriter {
    buf: RankedMutex<Vec<u8>>,
    next_lsn: AtomicU64,
    /// The append mark of the last round that landed: a statistic
    /// ([`WalHub::backlog_records`]), never a durability condition.
    flushed_lsn: AtomicU64,
}

impl WalWriter {
    fn new() -> Arc<Self> {
        Arc::new(WalWriter {
            buf: RankedMutex::new(
                Rank::WalSlot,
                "wal.slot_buf",
                Vec::with_capacity(SLOT_BUF_BYTES),
            ),
            next_lsn: AtomicU64::new(1),
            flushed_lsn: AtomicU64::new(0),
        })
    }

    /// Append a record to the in-memory buffer, stamped
    /// `max(floor, clock)` with the clock raised to the stamp; returns
    /// the record's LSN, GSN and size. Stamping under the buffer lock is
    /// what makes the round tick a durability line: a round ticks while it
    /// holds every slot's lock, so a record stamped below the tick was
    /// appended before the steal, and one appended after it stamps at or
    /// above the tick.
    fn append(
        &self,
        xid: Xid,
        floor: u64,
        clock: &AtomicU64,
        body: RecordBody,
    ) -> (Lsn, u64, usize) {
        let mut buf = self.buf.lock();
        // ORDERING: the counter only needs unique, monotone values; the
        // flusher reads it under this lock.
        let lsn = Lsn(self.next_lsn.fetch_add(1, Ordering::Relaxed));
        // The lock orders this load after any earlier steal's tick, so
        // only a floor above the clock needs the read-modify-write.
        let now = clock.load(Ordering::Acquire);
        let gsn =
            if floor > now { clock.fetch_max(floor, Ordering::AcqRel).max(floor) } else { now };
        let rec = WalRecord { xid, gsn: Gsn(gsn), lsn, body };
        let n = rec.encode_into(&mut buf);
        (lsn, gsn, n)
    }

    /// The LSN of the last record appended.
    pub fn appended_lsn(&self) -> u64 {
        // ORDERING: exact under the buffer lock (the steal); elsewhere a
        // statistic.
        self.next_lsn.load(Ordering::Relaxed) - 1
    }

    pub fn flushed_lsn(&self) -> u64 {
        // ORDERING: diagnostic read of a monotonic statistic.
        self.flushed_lsn.load(Ordering::Relaxed)
    }
}

/// The state a round works on, under the hub's `round` lock.
#[derive(Default)]
struct Round {
    /// The log file's append offset.
    offset: u64,
    /// Every byte from `offset` up to here is a zero that was written and
    /// synced, so a round that ends below it changes no file size. A round
    /// larger than the headroom (a bulk load) writes past it, and the next
    /// refill starts at `offset`.
    alloc_end: u64,
    /// The gathered write, reused round after round (empty between rounds).
    buf: Vec<u8>,
    /// One buffer per slot, swapped with the slot's own at the steal: the
    /// stolen bytes wait here while the slot appends into the spare.
    spares: Vec<Vec<u8>>,
    /// The slots this round stole from, each with the append mark its
    /// stolen bytes end at (empty between rounds).
    stolen: Vec<(usize, u64)>,
}

/// The WAL hub: all slot writers, the GSN clock, and the group-commit
/// flusher.
pub struct WalHub {
    writers: Vec<Arc<WalWriter>>,
    file: Arc<dyn FaultFile>,
    /// The GSN clock: raised by every stamp to its floor, ticked by one
    /// at the start of every round.
    gsn: AtomicU64,
    /// Every record stamped at or below this is durable: the last
    /// completed round's tick minus one.
    durable_gsn: AtomicU64,
    metrics: Arc<Metrics>,
    sync: bool,
    /// Asks the flusher to run its final round and exit.
    shutdown: AtomicBool,
    /// Closed after the flusher's final round; halted when a log write or
    /// fsync fails. Either way every waiter errors instead of sleeping.
    live: Liveness,
    flusher: RankedMutex<Option<std::thread::JoinHandle<()>>>,
    /// Every durability wait parks here; the flusher sleeps on it.
    bell: CommitBell,
    /// Holding this lock *is* running a round: rounds never overlap, which
    /// keeps at most one write→sync in flight on the log file.
    round: RankedMutex<Round>,
    /// Rounds completed so far (empty and failed ones included).
    rounds: AtomicU64,
    /// Watchdog probe: tracks how long the durable GSN has been stuck
    /// while records are pending. Off the commit/flush paths — only the
    /// telemetry/watchdog samplers lock it.
    horizon_probe: RankedMutex<HorizonProbe>,
}

/// State for [`WalHub::flush_horizon_age_ns`].
#[derive(Default)]
struct HorizonProbe {
    /// The durable GSN at the last observation.
    last_durable: u64,
    /// When the horizon was last seen advancing (or fully caught up).
    since: Option<Instant>,
}

impl WalHub {
    /// Create writers for `slots` task slots over a new segment under
    /// `dir` on the real filesystem and start the group-commit flusher.
    ///
    /// `_io_threads` is ignored: the flusher makes each round's write
    /// and sync itself. It stays only because `benchmark/src/probes.rs`
    /// passes it, and goes with the next change to that crate.
    pub fn new(
        dir: &Path,
        slots: usize,
        _io_threads: usize,
        group_commit: Duration,
        sync: bool,
        metrics: Arc<Metrics>,
    ) -> Result<Arc<Self>> {
        Self::with_fs(dir, slots, group_commit, sync, metrics, Arc::new(OsFs), 1)
    }

    /// [`WalHub::new`] over an injected filesystem — the seam the
    /// crash-torture harness uses to put a [`phoebe_common::fault::SimFs`]
    /// under the log file — with the GSN clock starting at `first_gsn`
    /// (at least 1): everything stamped below it is taken as durable.
    pub fn with_fs(
        dir: &Path,
        slots: usize,
        group_commit: Duration,
        sync: bool,
        metrics: Arc<Metrics>,
        fs: Arc<dyn FaultFs>,
        first_gsn: u64,
    ) -> Result<Arc<Self>> {
        std::fs::create_dir_all(dir)?;
        let file = fs.create(&next_segment(dir)?)?;
        // The leading marker tells recovery that this segment ends every
        // round with one, so only whole rounds are replayed from it.
        let mut marker = Vec::new();
        let offset = WalRecord::round_end(first_gsn).encode_into(&mut marker) as u64;
        file.write_all_at(0, &marker)?;
        // The first headroom rides on the sync the segment makes anyway.
        let headroom = if sync { FILL_STEP } else { 0 };
        write_zeros(&*file, offset, headroom)?;
        file.sync_data()?;
        // Rounds sync the segment's data, not its directory entry; without
        // this a power cut could drop a new segment with its acked commits.
        std::fs::File::open(dir)?.sync_all()?;
        let round = Round {
            offset,
            alloc_end: offset + headroom,
            spares: vec![Vec::new(); slots],
            ..Round::default()
        };
        let hub = Arc::new(WalHub {
            writers: (0..slots).map(|_| WalWriter::new()).collect(),
            file,
            gsn: AtomicU64::new(first_gsn),
            durable_gsn: AtomicU64::new(first_gsn - 1),
            metrics,
            sync,
            shutdown: AtomicBool::new(false),
            live: Liveness::default(),
            flusher: RankedMutex::new(Rank::WalHub, "wal.hub_flusher", None),
            bell: CommitBell::default(),
            round: RankedMutex::new(Rank::WalHub, "wal.hub_round", round),
            rounds: AtomicU64::new(0),
            horizon_probe: RankedMutex::new(
                Rank::WalHub,
                "wal.hub_horizon",
                HorizonProbe::default(),
            ),
        });
        let h = Arc::clone(&hub);
        *hub.flusher.lock() = Some(
            std::thread::Builder::new()
                .name("phoebe-wal-flusher".into())
                .spawn(move || {
                    // Event-driven group commit: sleep on the bell with
                    // the configured window as an upper bound. A commit at
                    // an idle moment is flushed immediately; the rings of a
                    // commit storm accumulate while a round's sync is in
                    // flight and the next round takes them all, so a batch
                    // is whatever arrived during one sync. Timed-out empty
                    // rounds back the window off (x2, up to x64) so an idle
                    // kernel is not woken thousands of times a second to
                    // find every buffer empty; un-rung backlog still waits
                    // at most that long. After each round, once its waits
                    // are woken, the headroom is topped up.
                    let mut seen = 0u64;
                    let mut window = group_commit;
                    while !h.shutdown.load(Ordering::Acquire) {
                        let rings = h.bell.sleep(seen, window);
                        if h.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let rung = rings != seen;
                        seen = rings;
                        window = match h.flush_all().and_then(|n| h.keep_headroom().map(|()| n)) {
                            Ok(0) if !rung => (window * 2).min(group_commit * 64),
                            Ok(_) => group_commit,
                            // The failed round or fill already halted the
                            // hub; retrying against a dead log device is
                            // pointless.
                            Err(_) => break,
                        };
                    }
                    let _ = h.flush_all();
                    h.trim();
                    // No round runs after this one: whoever still waits
                    // (a commit racing shutdown, or one begun after it)
                    // must error out, not sleep forever.
                    h.stop(Liveness::CLOSED);
                })
                .expect("spawn wal flusher"),
        );
        Ok(hub)
    }

    pub fn writer(&self, slot: usize) -> &Arc<WalWriter> {
        &self.writers[slot]
    }

    pub fn writer_count(&self) -> usize {
        self.writers.len()
    }

    pub fn current_gsn(&self) -> u64 {
        self.gsn.load(Ordering::Acquire)
    }

    /// Append an operation record on the transaction's slot writer,
    /// stamped with a GSN of at least `floor`; returns its LSN and GSN.
    pub fn log_op(&self, slot: usize, xid: Xid, floor: u64, body: RecordBody) -> (Lsn, u64) {
        let _t = self.metrics.timer(Component::Wal);
        let (lsn, gsn, n) = self.writers[slot].append(xid, floor, &self.gsn, body);
        self.metrics.add(Counter::WalBytes, n as u64);
        (lsn, gsn)
    }

    /// Log a write to the page whose frame metadata is `meta` (the caller
    /// holds the page's exclusive latch) and make the page carry it: the
    /// page's GSN rises to the record's stamp, which eviction's
    /// WAL-before-data barrier waits on. The page's GSN is some earlier
    /// stamp and the clock never falls, so the record needs no floor to
    /// stamp at or above it.
    pub fn log_page_write(&self, meta: &FrameMeta, slot: usize, xid: Xid, body: RecordBody) {
        let (_, gsn) = self.log_op(slot, xid, 0, body);
        // ORDERING: the page's exclusive latch orders every access to
        // this field; relaxed is enough under it.
        meta.page_gsn.fetch_max(gsn, Ordering::Relaxed);
    }

    /// The commit wait (when `wal_sync`): until every record stamped at
    /// or below `gsn`, a Commit record's stamp, is durable — at most the
    /// round after the one running when the record was appended. The
    /// Commit record takes floor 0: the clock is at or above every stamp
    /// its transaction made. A transaction publishes its outcome between
    /// the append and this wait, so whoever sees it committed stamps at or
    /// above its Commit record.
    pub async fn wait_commit(&self, gsn: u64) -> Result<()> {
        if !self.sync {
            return Ok(());
        }
        self.metrics.incr(Counter::RemoteFlushWaits);
        self.ensure_durable_gsn_async(gsn).await
    }

    /// Append a Commit record and [`WalHub::wait_commit`] for it, for a
    /// caller with no outcome to publish in between.
    pub async fn commit(&self, slot: usize, xid: Xid, cts: Timestamp) -> Result<()> {
        let (_, gsn) = self.log_op(slot, xid, 0, RecordBody::Commit { cts });
        self.wait_commit(gsn).await
    }

    /// True once the hub refused further durability after a log I/O error.
    pub fn is_halted(&self) -> bool {
        self.live.0.load(Ordering::Acquire) == Liveness::HALTED
    }

    /// Stop acknowledging durability — a log write or fsync failed, or the
    /// flusher ran its final round — and wake every parked waiter so it
    /// observes why and errors out instead of sleeping on a round that
    /// will never come.
    fn stop(&self, why: u8) {
        self.live.stop(why);
        self.bell.wake_through(u64::MAX);
    }

    /// Run one group-commit round on the calling thread: steal every
    /// writer's pending bytes into one write, closed by a round marker, and
    /// make it durable with one `fdatasync`. Returns bytes flushed. A concurrent caller waits its
    /// turn, so on return everything appended before the call is durable.
    pub fn flush_all(&self) -> Result<u64> {
        let flushed = self.run_round(&mut self.round.lock());
        // ORDERING: statistic counter; waiters synchronize through the
        // horizon and the bell, never through this count.
        self.rounds.fetch_add(1, Ordering::Relaxed);
        // The round published its horizon (a failed one stopped the hub,
        // which woke everyone): wake the waits it covered.
        self.bell.wake_through(self.durable_gsn());
        flushed
    }

    /// Group-commit rounds run so far, empty ones included (diagnostics:
    /// an idle hub barely moves this).
    pub fn rounds(&self) -> u64 {
        // ORDERING: diagnostic read of a monotonic statistic.
        self.rounds.load(Ordering::Relaxed)
    }

    /// The body of a round, under the `round` lock. An I/O error leaves
    /// the stolen bytes unacknowledged and halts the hub.
    fn run_round(&self, round: &mut Round) -> Result<u64> {
        // After a log I/O failure no later flush can prove anything
        // durable; stealing more bytes would only widen the loss. After
        // the final round nobody is left to be told.
        self.live.check()?;
        let round_start = Instant::now();
        // The steal: every slot's lock at once, in slot order. No record is
        // stamped while they are held, so the tick splits the log cleanly:
        // every record stamped below it is in this round or an earlier
        // one, every later record stamps at or above it. The swaps are
        // O(1); the copying waits until the locks are gone.
        let tick = {
            let mut bufs: Vec<_> = self.writers.iter().map(|w| w.buf.lock()).collect();
            let tick = self.gsn.fetch_add(1, Ordering::AcqRel) + 1;
            for ((slot, w), buf) in self.writers.iter().enumerate().zip(&mut bufs) {
                if !buf.is_empty() {
                    std::mem::swap(&mut **buf, &mut round.spares[slot]);
                    round.stolen.push((slot, w.appended_lsn()));
                }
            }
            tick
        };
        if round.stolen.is_empty() {
            self.durable_gsn.store(tick - 1, Ordering::Release);
            return Ok(0);
        }
        for &(slot, _) in &round.stolen {
            let spare = &mut round.spares[slot];
            round.buf.extend_from_slice(spare);
            // Keep the capacity, so the append path stops allocating once
            // warm — but a burst (a bulk load) must not pin its high-water
            // mark.
            spare.clear();
            if spare.capacity() > 16 * SLOT_BUF_BYTES {
                spare.shrink_to(SLOT_BUF_BYTES);
            }
        }
        WalRecord::round_end(tick).encode_into(&mut round.buf);
        let n = round.buf.len() as u64;
        let mut written = self.file.write_all_at(round.offset, &round.buf);
        if self.sync && written.is_ok() {
            written = self.file.sync_data();
        }
        // Keep the buffer warm, but not a bulk load's high-water mark.
        round.buf.clear();
        round.buf.shrink_to(16 * SLOT_BUF_BYTES);
        if let Err(e) = written {
            round.stolen.clear();
            self.stop(Liveness::HALTED);
            return Err(e.into());
        }
        round.offset += n;
        // Durability latency as the committers saw it.
        self.metrics.probe_since(LatencySite::WalFlush, 0, n, round_start).finish();
        self.durable_gsn.store(tick - 1, Ordering::Release);
        // ORDERING: statistics; durability is published by the release
        // store above, never through these.
        for (slot, mark) in round.stolen.drain(..) {
            self.writers[slot].flushed_lsn.fetch_max(mark, Ordering::Relaxed);
        }
        self.metrics.incr(Counter::WalFlushes);
        self.metrics.add(Counter::WalFlushedBytes, n);
        // The whole round is one group-commit window's worth of work.
        self.metrics.probe_since(LatencySite::GroupCommit, 0, n, round_start).finish();
        Ok(n)
    }

    /// Top up the zero-filled headroom, between rounds (the flusher calls
    /// it once a round has woken its waits). Once less than half a
    /// [`FILL_STEP`] is left, write one step of zeroes from
    /// `max(alloc_end, offset)` and sync them. The `round` lock keeps every
    /// round out meanwhile, and the fill never writes below the offset. An
    /// I/O error halts the hub, as a failed round does.
    fn keep_headroom(&self) -> Result<()> {
        if !self.sync {
            return Ok(());
        }
        let mut round = self.round.lock();
        if round.alloc_end.saturating_sub(round.offset) >= FILL_STEP / 2 {
            return Ok(());
        }
        self.live.check()?;
        let from = round.alloc_end.max(round.offset);
        let filled = write_zeros(&*self.file, from, FILL_STEP).and_then(|()| self.file.sync_data());
        if let Err(e) = filled {
            self.stop(Liveness::HALTED);
            return Err(e.into());
        }
        round.alloc_end = from + FILL_STEP;
        Ok(())
    }

    /// Cut the zero tail off after the final round, so a cleanly closed
    /// segment ends at its last round. A cut that a power loss undoes
    /// leaves zeroes, which recovery reads as the end of the log.
    fn trim(&self) {
        let mut round = self.round.lock();
        if round.alloc_end > round.offset && self.live.check().is_ok() {
            let _ = self.file.set_len(round.offset);
            round.alloc_end = round.offset;
        }
    }

    /// Every record stamped at or below this GSN is durable: published by
    /// each completed round as its tick minus one.
    pub fn durable_gsn(&self) -> u64 {
        self.durable_gsn.load(Ordering::Acquire)
    }

    /// Await durability of every record stamped ≤ `gsn` (the commit
    /// wait): park on the bell at `gsn` and ring it, woken by the round
    /// that covers it; spinning at high urgency here starved the flusher
    /// of CPU on small machines.
    ///
    /// Errs with [`PhoebeError::WalHalted`] or [`PhoebeError::WalClosed`]
    /// if rounds stopped before the horizon reached `gsn`.
    pub async fn ensure_durable_gsn_async(&self, gsn: u64) -> Result<()> {
        // `Ok` once the horizon reached `gsn`, the stop error once no
        // round will run again, else keep waiting.
        let done = || {
            if self.durable_gsn() >= gsn {
                return Some(Ok(()));
            }
            self.live.check().err().map(Err)
        };
        std::future::poll_fn(|cx| self.bell.park(gsn, cx, done)).await
    }

    /// Non-blocking write barrier (Steal): whether all WAL up to `gsn` is
    /// durable. If not, rings the bell so a round is under way by the
    /// time the caller looks again — eviction skips the page meanwhile
    /// instead of sleeping on the round with latches held.
    pub fn try_ensure_durable_gsn(&self, gsn: u64) -> bool {
        let durable = self.durable_gsn() >= gsn;
        if !durable {
            self.bell.ring();
        }
        durable
    }

    /// Blocking variant of the write barrier, for the buffer pool's
    /// last-resort allocation pass (called with no latch held). Returns
    /// early (without reaching `gsn`) once rounds stopped; the caller
    /// re-checks with [`WalHub::try_ensure_durable_gsn`] before any page
    /// write, so a halted or closed log fails the allocation instead of
    /// breaking WAL-before-page.
    pub fn ensure_durable_gsn_blocking(&self, gsn: u64) {
        let _ = block_on(self.ensure_durable_gsn_async(gsn));
    }

    /// Records appended but not yet physically flushed, summed across
    /// writers (LSNs are per-slot record sequence numbers).
    pub fn backlog_records(&self) -> u64 {
        self.writers.iter().map(|w| w.appended_lsn().saturating_sub(w.flushed_lsn())).sum()
    }

    /// How long the flush horizon has been stuck, in nanoseconds.
    ///
    /// Returns 0 while nothing is pending or rounds keep completing; once
    /// there is a backlog and the durable GSN stops moving between
    /// observations, the age grows until the flusher makes progress again.
    /// Telemetry/watchdog sampling path only — the probe is stateful, so
    /// concurrent callers share one clock (fine: both want the same
    /// answer).
    pub fn flush_horizon_age_ns(&self) -> u64 {
        let durable = self.durable_gsn();
        let mut probe = self.horizon_probe.lock();
        if self.backlog_records() == 0 {
            // Fully caught up: nothing pending, nothing stuck.
            probe.last_durable = durable;
            probe.since = None;
            return 0;
        }
        if durable > probe.last_durable || probe.since.is_none() {
            // Progress since last look (or first look at a backlog):
            // restart the stall clock.
            probe.last_durable = durable;
            probe.since = Some(Instant::now());
            return 0;
        }
        probe.since.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }

    /// Bytes written by rounds that landed, round markers included: the
    /// `WalFlushedBytes` counter.
    pub fn total_bytes_flushed(&self) -> u64 {
        self.metrics.counter(Counter::WalFlushedBytes)
    }

    /// Snapshot of the hub's metrics registry (tests/diagnostics).
    pub fn metrics_snapshot(&self) -> phoebe_common::metrics::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Stop the flusher (final flush included); afterwards every
    /// durability wait errs with [`PhoebeError::WalClosed`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the flusher out of its sleep so shutdown does not stall for
        // a full group-commit window.
        self.bell.ring();
        if let Some(t) = self.flusher.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for WalHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoebe_runtime::block_on;

    fn hub(slots: usize) -> Arc<WalHub> {
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        WalHub::new(&dir, slots, 2, Duration::from_micros(100), true, Arc::new(Metrics::new(1)))
            .unwrap()
    }

    /// A hub whose flusher sleeps until rung (a 5 s window): the rounds a
    /// test does not ask for do not run.
    fn quiet_hub(slots: usize) -> Arc<WalHub> {
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        WalHub::new(&dir, slots, 2, Duration::from_secs(5), true, Arc::new(Metrics::new(1)))
            .unwrap()
    }

    fn xid(n: u64) -> Xid {
        Xid::from_start_ts(n)
    }

    fn write(h: &WalHub, page: &FrameMeta, slot: usize, x: u64) {
        h.log_page_write(page, slot, xid(x), RecordBody::Begin);
    }

    fn page_gsn(page: &FrameMeta) -> u64 {
        page.page_gsn.load(Ordering::Acquire)
    }

    #[test]
    fn append_assigns_monotonic_lsns_per_writer() {
        let h = hub(2);
        let (a, _) = h.log_op(0, xid(1), 1, RecordBody::Begin);
        let (b, _) = h.log_op(0, xid(1), 1, RecordBody::Abort);
        let (c, _) = h.log_op(1, xid(2), 1, RecordBody::Begin);
        assert!(b > a);
        assert_eq!(c, Lsn(1), "LSNs are per-writer");
        h.shutdown();
    }

    #[test]
    fn each_round_ends_with_a_marker_stamped_with_its_tick() {
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        let h = WalHub::with_fs(
            &dir,
            2,
            Duration::from_secs(5),
            true,
            Arc::new(Metrics::new(1)),
            Arc::new(OsFs),
            7,
        )
        .unwrap();
        h.log_op(1, xid(1), 0, RecordBody::Begin);
        h.log_op(0, xid(2), 0, RecordBody::Begin);
        h.flush_all().unwrap();
        assert_eq!(h.flush_all().unwrap(), 0, "an empty round writes nothing");
        h.log_op(0, xid(3), 0, RecordBody::Begin);
        h.flush_all().unwrap();
        h.shutdown();
        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let got: Vec<_> = crate::recovery::read_wal_file(&path)
            .unwrap()
            .into_iter()
            .map(|r| (r.xid.start_ts(), r.gsn.raw(), r.body == RecordBody::RoundEnd))
            .collect();
        // The segment's marker, then round one in slot order and its
        // marker; the empty round ticks the clock but leaves no trace.
        let want = [(0, 7, true), (2, 7, false), (1, 7, false), (0, 8, true)];
        assert_eq!(got[..4], want);
        assert_eq!(got[4..], [(3, 9, false), (0, 10, true)]);
    }

    #[test]
    fn the_segment_is_preallocated_and_a_clean_shutdown_trims_it() {
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        let h = WalHub::new(&dir, 1, 2, Duration::from_secs(5), true, Arc::new(Metrics::new(1)))
            .unwrap();
        let path = dir.join("wal_seg_0000.log");
        let len = || std::fs::metadata(&path).unwrap().len();
        let marker = WalRecord::round_end(0).encode_into(&mut Vec::new()) as u64;
        assert_eq!(len(), marker + FILL_STEP, "the marker and the first headroom");
        block_on(h.commit(0, xid(1), 1)).unwrap();
        assert_eq!(len(), marker + FILL_STEP, "a round writes into the headroom");
        h.shutdown();
        assert_eq!(len(), marker + h.total_bytes_flushed(), "the zeroes are cut, and not counted");
    }

    #[test]
    fn page_write_stamps_at_or_above_the_page_and_raises_it() {
        let h = quiet_hub(2);
        let page = FrameMeta::default();
        write(&h, &page, 1, 1);
        let g1 = page_gsn(&page);
        assert_eq!(g1, h.current_gsn(), "the page carries its newest stamp");
        h.flush_all().unwrap();
        write(&h, &page, 0, 2);
        assert!(page_gsn(&page) > g1, "a write after a round stamps above the tick");
        h.shutdown();
    }

    #[test]
    fn remote_dependent_commit_waits_for_global_horizon() {
        let h = quiet_hub(2);
        let page = FrameMeta::default();
        write(&h, &page, 1, 1);
        write(&h, &page, 0, 2);
        block_on(h.commit(0, xid(2), 9)).unwrap();
        assert!(h.durable_gsn() >= page_gsn(&page), "every record on the page is durable");
        assert_eq!(h.writer(1).flushed_lsn(), 1, "the earlier writer's record is durable");
        assert_eq!(h.writer(0).flushed_lsn(), 2, "the Commit record is durable");
        let snap = h.metrics_snapshot();
        assert_eq!(snap.counter(Counter::RemoteFlushWaits), 1, "every commit waits on rounds");
        assert_eq!(snap.counter(Counter::RfaEarlyCommits), 0, "no commit takes an early path");
        h.shutdown();
    }

    #[test]
    fn remote_commit_returns_within_two_rounds_while_another_slot_appends() {
        // Slot 1 appends without pause, each record stamped above
        // everything before it — a stream of writes that keeps the GSN
        // moving and slot 1's buffer never empty. The commit's one
        // condition is fixed at its Commit append, so the stream cannot
        // make it chase. Only the commit rings this quiet hub's bell,
        // so every round counted here is one the commit could have needed.
        let h = quiet_hub(2);
        let stop = Arc::new(AtomicBool::new(false));
        let appender = {
            let (h, stop) = (Arc::clone(&h), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut n = 0;
                while !stop.load(Ordering::Acquire) {
                    n += 1;
                    h.log_op(1, xid(1_000 + n), h.current_gsn() + 1, RecordBody::Begin);
                }
            })
        };
        for x in 0..20 {
            let page = FrameMeta::default();
            write(&h, &page, 1, 1);
            write(&h, &page, 0, 2 + x);
            let before = h.rounds();
            block_on(h.commit(0, xid(2 + x), 9)).unwrap();
            let slept = h.rounds() - before;
            assert!(slept <= 2, "remote commit slept {slept} rounds");
        }
        stop.store(true, Ordering::Release);
        appender.join().unwrap();
        h.shutdown();
    }

    #[test]
    fn flush_all_reports_bytes_and_files_grow() {
        let h = hub(1);
        for i in 0..50 {
            h.log_op(0, xid(i), 1, RecordBody::Commit { cts: i });
        }
        // Either the background flusher or this call drains the buffer.
        h.flush_all().unwrap();
        assert!(h.total_bytes_flushed() > 0);
        h.shutdown();
    }

    #[test]
    fn flush_horizon_age_tracks_stuck_backlog() {
        // A 5 s group-commit window keeps the background flusher asleep
        // for the whole test, so the backlog we append stays unflushed
        // until we drain it explicitly.
        let h = quiet_hub(1);
        assert_eq!(h.backlog_records(), 0);
        assert_eq!(h.flush_horizon_age_ns(), 0, "caught up: no age");

        h.log_op(0, xid(1), 1, RecordBody::Begin);
        h.log_op(0, xid(1), 1, RecordBody::Abort);
        assert_eq!(h.backlog_records(), 2);
        assert_eq!(h.flush_horizon_age_ns(), 0, "first sight of a backlog starts the clock");
        std::thread::sleep(Duration::from_millis(20));
        let age = h.flush_horizon_age_ns();
        assert!(age >= 10_000_000, "stuck horizon must age, got {age} ns");

        h.flush_all().unwrap();
        assert_eq!(h.backlog_records(), 0);
        assert_eq!(h.flush_horizon_age_ns(), 0, "flushing resets the age");
        h.shutdown();
    }

    #[test]
    fn doorbell_commit_beats_the_group_commit_window() {
        // With a 5 s window, a sleeping-flusher design would hold every
        // sync commit for seconds; the bell must make it ~one flush.
        let h = quiet_hub(1);
        let commit = |n: u64| {
            write(&h, &FrameMeta::default(), 0, n);
            let t0 = Instant::now();
            block_on(h.commit(0, xid(n), n)).unwrap();
            t0.elapsed()
        };
        let first = commit(7);
        assert!(
            first < Duration::from_secs(1),
            "commit took {first:?}: flusher still sleeping out the window"
        );
        // No linger: a lone commit whose predecessor round was non-empty
        // costs one flush plus the wake-ups, not a sleep of the previous
        // round's length on top (which would be >= 2 flushes). Best of
        // many interleaved trials on each side, so neither a noisy
        // neighbour nor the sibling tests' load can decide it.
        let (mut flush, mut lone) = (Duration::MAX, Duration::MAX);
        for n in 0..32 {
            h.log_op(0, xid(100 + n), 1, RecordBody::Commit { cts: 100 + n });
            let t0 = Instant::now();
            h.flush_all().unwrap();
            flush = flush.min(t0.elapsed());
            lone = lone.min(commit(200 + n));
        }
        assert!(lone < 2 * flush, "lone commit {lone:?} vs flush_all {flush:?}: lingering");
        let t1 = Instant::now();
        h.shutdown();
        assert!(t1.elapsed() < Duration::from_secs(1), "shutdown must ring the bell");
    }

    #[test]
    fn idle_flusher_backs_off_but_unrung_backlog_still_flushes() {
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        let h =
            WalHub::new(&dir, 4, 2, Duration::from_micros(200), true, Arc::new(Metrics::new(1)))
                .unwrap();
        // Let the window back off to its cap (200 us doubling to 12.8 ms
        // takes ~25 ms), then count: a fixed 200 us cadence would run
        // ~1000 rounds in 200 ms, the cap allows ~16.
        std::thread::sleep(Duration::from_millis(50));
        let before = h.rounds();
        std::thread::sleep(Duration::from_millis(200));
        let idle_rounds = h.rounds() - before;
        assert!(idle_rounds < 20, "idle hub ran {idle_rounds} rounds in 200 ms");

        // Backlog nobody rings the bell for (log_op only, no commit)
        // must still become durable at the backed-off cadence — far
        // inside the watchdog's wal_stall_ms.
        let stall_ns = phoebe_common::config::WatchdogConfig::default().wal_stall_ms * 1_000_000;
        h.log_op(1, xid(1), 1, RecordBody::Begin);
        let t0 = Instant::now();
        while h.backlog_records() > 0 {
            assert!(h.flush_horizon_age_ns() < stall_ns, "horizon looked stalled");
            assert!(t0.elapsed() < Duration::from_millis(50), "un-rung backlog not flushed");
            std::thread::sleep(Duration::from_micros(500));
        }
        assert_eq!(h.writer(1).flushed_lsn(), 1);
        h.shutdown();
    }

    #[test]
    fn remote_dependent_commit_parks_until_its_round_lands() {
        // Same low-latency requirement for the remote wait.
        let h = quiet_hub(2);
        let page = FrameMeta::default();
        write(&h, &page, 1, 1);
        write(&h, &page, 0, 2);
        let t0 = std::time::Instant::now();
        block_on(h.commit(0, xid(2), 9)).unwrap();
        assert!(h.durable_gsn() >= page_gsn(&page));
        assert!(t0.elapsed() < Duration::from_secs(1), "remote wait took {:?}", t0.elapsed());
        h.shutdown();
    }

    #[test]
    fn durability_waits_err_after_shutdown_instead_of_hanging() {
        // No round runs after shutdown. Each wait runs on its own thread
        // behind a bounded receive, so a hang fails the test instead of
        // stalling the suite.
        fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(f());
            });
            rx.recv_timeout(Duration::from_secs(10)).expect("durability wait hung after shutdown")
        }
        let h = hub(2);
        h.shutdown();
        // Never flushed now: stamped above the final round's tick.
        let (_, g) = h.log_op(1, xid(1), 1, RecordBody::Begin);
        assert!(h.durable_gsn() < g);
        let commit = Arc::clone(&h);
        let err = bounded(move || block_on(commit.commit(0, xid(2), 2)));
        let err = err.unwrap_err();
        assert!(matches!(err, PhoebeError::WalClosed), "got {err:?}");
        assert!(!err.is_retryable());
        let wait = Arc::clone(&h);
        let err = bounded(move || block_on(wait.ensure_durable_gsn_async(g))).unwrap_err();
        assert!(matches!(err, PhoebeError::WalClosed), "got {err:?}");
        let barrier = Arc::clone(&h);
        bounded(move || barrier.ensure_durable_gsn_blocking(g));
        assert!(!h.is_halted(), "a clean shutdown is not a device failure");
        assert!(matches!(h.flush_all(), Err(PhoebeError::WalClosed)));
    }

    /// Records that it was woken.
    struct Flag(AtomicBool);

    impl std::task::Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::Release);
        }
    }

    #[test]
    fn a_round_wakes_only_the_waits_it_covers_and_stop_wakes_the_rest() {
        let h = quiet_hub(1);
        let g = h.current_gsn();
        let flags = [(); 2].map(|_| Arc::new(Flag(AtomicBool::new(false))));
        let woken = |i: usize| flags[i].0.load(Ordering::Acquire);
        // Parked as a durability wait parks, minus the ring: this quiet
        // hub runs only the round the test asks for.
        let mut state = h.bell.state.lock();
        for (stamp, flag) in [g, g + 1].into_iter().zip(&flags) {
            state.waiters.push((stamp, Waker::from(Arc::clone(flag))));
        }
        drop(state);
        h.flush_all().unwrap();
        assert_eq!(h.durable_gsn(), g);
        assert!(woken(0), "the round covered stamp g");
        assert!(!woken(1), "stamp g + 1 is the next round's");
        h.stop(Liveness::CLOSED);
        assert!(woken(1), "stop wakes every waiter");
        h.shutdown();
    }

    #[test]
    fn durable_gsn_ignores_idle_writers() {
        let h = quiet_hub(4);
        let (_, g) = h.log_op(0, xid(1), 1, RecordBody::Begin);
        assert!(h.durable_gsn() < g);
        h.flush_all().unwrap();
        assert!(h.durable_gsn() >= g, "idle writers must not pin the horizon");
        // Nothing pending anywhere: an empty round still ticks and
        // publishes, so a barrier on the current GSN passes.
        let now = h.current_gsn();
        h.flush_all().unwrap();
        assert!(h.durable_gsn() >= now);
        h.shutdown();
    }
}
