//! Per-task-slot WAL writers, group commit, and Remote Flush Avoidance
//! (§8 "Phoebe's Parallel WAL Design").
//!
//! Every task slot owns a [`WalWriter`]: an in-memory buffer plus its own
//! LSN sequence and durable horizons, so log *appends* never contend
//! across slots. All slots share one append-only log file
//! (`wal_seg_0000.log`); records are self-describing (xid, GSN, LSN), so
//! nothing about ordering or RFA depends on which file holds them. A
//! background flusher runs group-commit rounds: a round steals every
//! pending slot buffer into one reusable buffer, makes it durable with
//! **one write and one `fdatasync`** made by the flusher itself, and
//! then publishes each contributing slot's horizons. Rounds never
//! overlap, so the file has at most one write→sync in flight and its
//! CRC-valid prefix is always a prefix of acknowledged rounds.
//!
//! GSN/LSN: every record carries the slot-local, strictly monotonic LSN
//! and a GSN that only advances on *cross-slot* modifications — touching a
//! page last written by another slot. Recovery merges all records by GSN;
//! commit-time flush waiting uses it for RFA:
//!
//! * no cross-slot dependency, or the remote writer already flushed the
//!   version we built on ⇒ commit waits only for the *own* slot's writer
//!   (the RFA early commit);
//! * otherwise the commit waits until every writer's durable horizon
//!   passes the transaction's max GSN.

use crate::record::{RecordBody, WalRecord};
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::fault::{FaultFile, FaultFs, OsFs};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::{Gsn, Lsn, Timestamp, Xid};
use phoebe_common::metrics::{Component, Counter, Metrics};
use phoebe_common::sync::{Condvar, Rank, RankedMutex};
use phoebe_common::trace::EventKind;
use phoebe_runtime::{block_on, Notify};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The group-commit doorbell (event-driven flushing).
///
/// Committing transactions ring it; the flusher thread sleeps on the
/// condvar with the group-commit window as a *timeout* instead of
/// unconditionally sleeping the whole window. A lone commit therefore
/// waits one physical flush, not one full window; under load the rings
/// that arrive while a round's sync is in flight start the next round the
/// moment it completes, so concurrent commits batch into one fsync with
/// no added linger.
///
/// The counter lives under a ranked mutex; the flusher's timed block goes
/// through the ranked guard's condvar projection.
struct Doorbell {
    rings: RankedMutex<u64>,
    cv: Condvar,
}

impl Default for Doorbell {
    fn default() -> Self {
        Doorbell {
            rings: RankedMutex::new(Rank::WalDoorbell, "wal.doorbell", 0),
            cv: Condvar::new(),
        }
    }
}

impl Doorbell {
    /// Wake the flusher: a commit (or barrier) wants durability now.
    fn ring(&self) {
        *self.rings.lock() += 1;
        self.cv.notify_one();
    }

    /// Block until the ring count advances past `seen` or `timeout`
    /// elapses. Returns the latest count.
    fn wait(&self, seen: u64, timeout: Duration) -> u64 {
        let mut rings = self.rings.lock();
        let deadline = Instant::now() + timeout;
        while *rings == seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if rings.wait_for(&self.cv, deadline - now).timed_out() {
                break;
            }
        }
        *rings
    }
}

/// Whether the hub still acknowledges durability. Shared by the hub and
/// every writer so each durability wait can check it; it only rises.
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

    fn halted(&self) -> bool {
        self.0.load(Ordering::Acquire) == Self::HALTED
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

/// The condition of every durability wait: `Ok` once the horizon reached
/// the target, the stop error once no round will run again, else keep
/// waiting.
fn durable_or_stopped(durable: bool, live: &Liveness) -> Option<Result<()>> {
    if durable {
        Some(Ok(()))
    } else {
        live.check().err().map(Err)
    }
}

/// Initial capacity of a slot's append buffer.
const SLOT_BUF_BYTES: usize = 16 * 1024;

/// The one log file every slot's records go to.
const LOG_FILE: &str = "wal_seg_0000.log";

/// One slot's WAL writer: the append buffer and the slot's horizons. The
/// bytes reach disk through the hub's group-commit rounds.
pub struct WalWriter {
    pub slot: usize,
    buf: RankedMutex<Vec<u8>>,
    next_lsn: AtomicU64,
    appended_lsn: AtomicU64,
    appended_gsn: AtomicU64,
    flushed_lsn: AtomicU64,
    flushed_gsn: AtomicU64,
    bytes_flushed: AtomicU64,
    durable: Notify,
    /// The hub's liveness: durability waiters check it so they error out
    /// instead of parking forever once no round will run again.
    live: Arc<Liveness>,
}

/// What one slot contributed to a round: the append marks its stolen
/// bytes end at, published as the slot's durable horizons once the
/// round's write→sync landed.
struct Stolen {
    len: u64,
    lsn_mark: u64,
    gsn_mark: u64,
}

impl WalWriter {
    fn new(slot: usize, live: Arc<Liveness>) -> Arc<Self> {
        Arc::new(WalWriter {
            slot,
            buf: RankedMutex::new(
                Rank::WalSlot,
                "wal.slot_buf",
                Vec::with_capacity(SLOT_BUF_BYTES),
            ),
            next_lsn: AtomicU64::new(1),
            appended_lsn: AtomicU64::new(0),
            appended_gsn: AtomicU64::new(0),
            flushed_lsn: AtomicU64::new(0),
            flushed_gsn: AtomicU64::new(0),
            bytes_flushed: AtomicU64::new(0),
            durable: Notify::new(),
            live,
        })
    }

    /// Append a record to the in-memory buffer; returns its LSN and size.
    pub fn append(&self, xid: Xid, gsn: Gsn, body: RecordBody) -> (Lsn, usize) {
        let mut buf = self.buf.lock();
        // ORDERING: the counter only needs unique, monotone values; all
        // inter-thread publication happens via the release store below,
        // under the buffer lock.
        let lsn = Lsn(self.next_lsn.fetch_add(1, Ordering::Relaxed));
        let rec = WalRecord { xid, gsn, lsn, body };
        let n = rec.encode_into(&mut buf);
        // Publish append marks under the buffer lock so the flusher's
        // snapshot (also under the lock) is consistent.
        self.appended_lsn.store(lsn.raw(), Ordering::Release);
        self.appended_gsn.fetch_max(gsn.raw(), Ordering::AcqRel);
        (lsn, n)
    }

    /// Move the pending bytes onto the end of `out` (the round's gathered
    /// write). `None` when nothing was pending — and then, rounds being
    /// serial and a failed one halting the hub for good, everything this
    /// slot ever appended is already durable and published.
    fn steal_into(&self, out: &mut Vec<u8>) -> Option<Stolen> {
        let mut buf = self.buf.lock();
        if buf.is_empty() {
            return None;
        }
        out.extend_from_slice(&buf);
        let len = buf.len() as u64;
        // Keep the capacity, so the append path stops allocating once
        // warm — but a burst (a bulk load) must not pin its high-water mark.
        buf.clear();
        if buf.capacity() > 16 * SLOT_BUF_BYTES {
            buf.shrink_to(SLOT_BUF_BYTES);
        }
        Some(Stolen {
            len,
            lsn_mark: self.appended_lsn.load(Ordering::Acquire),
            gsn_mark: self.appended_gsn.load(Ordering::Acquire),
        })
    }

    /// Publish durability once the round's write (and fsync) landed.
    fn publish(&self, s: &Stolen) {
        self.flushed_lsn.fetch_max(s.lsn_mark, Ordering::AcqRel);
        self.flushed_gsn.fetch_max(s.gsn_mark, Ordering::AcqRel);
        // ORDERING: statistic counter; durability is published by the
        // AcqRel horizon bumps above plus the notify below.
        self.bytes_flushed.fetch_add(s.len, Ordering::Relaxed);
        self.durable.notify_all();
    }

    /// Durable horizon for RFA: `u64::MAX` when nothing is pending,
    /// otherwise the highest GSN known durable.
    pub fn durable_horizon(&self) -> u64 {
        if self.flushed_lsn.load(Ordering::Acquire) >= self.appended_lsn.load(Ordering::Acquire) {
            u64::MAX
        } else {
            self.flushed_gsn.load(Ordering::Acquire)
        }
    }

    pub fn appended_lsn(&self) -> u64 {
        self.appended_lsn.load(Ordering::Acquire)
    }

    pub fn flushed_lsn(&self) -> u64 {
        self.flushed_lsn.load(Ordering::Acquire)
    }

    pub fn flushed_gsn(&self) -> u64 {
        self.flushed_gsn.load(Ordering::Acquire)
    }

    pub fn bytes_flushed(&self) -> u64 {
        // ORDERING: diagnostic read of a monotonic statistic.
        self.bytes_flushed.load(Ordering::Relaxed)
    }

    /// Await durability of `lsn` (own-slot commit wait): sleep on the
    /// writer's durable [`Notify`], which every round that publishes this
    /// slot's horizon fires. Parking rather than spin-yielding matters: on
    /// a loaded machine a spinning committer competes with the flusher for
    /// CPU, which is exactly backwards.
    ///
    /// Errs with [`PhoebeError::WalHalted`] if the log device failed, or
    /// [`PhoebeError::WalClosed`] if the hub shut down, before `lsn`
    /// became durable: the commit must NOT be acknowledged.
    pub async fn wait_lsn(&self, lsn: Lsn) -> Result<()> {
        self.durable
            .wait_until(|| durable_or_stopped(self.flushed_lsn() >= lsn.raw(), &self.live), None)
            .await
            .expect("a wait without a deadline ends on its condition")
    }
}

/// Per-transaction RFA state (§8 "decoupled dependencies").
#[derive(Debug, Default, Clone)]
pub struct RfaState {
    /// Set when this transaction built on an unflushed version written by
    /// another slot.
    pub needs_remote: bool,
    /// Highest GSN among this transaction's own records.
    pub max_gsn: u64,
}

/// The state a round works on, under the hub's `round` lock.
#[derive(Default)]
struct Round {
    /// The log file's append offset.
    offset: u64,
    /// The gathered write, reused round after round (empty between rounds).
    buf: Vec<u8>,
}

/// The WAL hub: all slot writers, the GSN clock, and the group-commit
/// flusher.
pub struct WalHub {
    writers: Vec<Arc<WalWriter>>,
    file: Arc<dyn FaultFile>,
    gsn: AtomicU64,
    metrics: Arc<Metrics>,
    sync: bool,
    /// Asks the flusher to run its final round and exit.
    shutdown: AtomicBool,
    /// Closed after the flusher's final round; halted when a log write or
    /// fsync fails. Either way every waiter errors instead of sleeping.
    live: Arc<Liveness>,
    flusher: RankedMutex<Option<std::thread::JoinHandle<()>>>,
    /// Commit-side wakeup for the flusher thread.
    doorbell: Doorbell,
    /// Holding this lock *is* running a round: rounds never overlap, which
    /// keeps at most one write→sync in flight on the log file.
    round: RankedMutex<Round>,
    /// Rounds completed so far (empty and failed ones included).
    rounds: AtomicU64,
    /// Notified after every flush round, failed ones included: what
    /// remote-dependency commits and the blocking write barrier sleep on.
    round_done: Notify,
    /// Watchdog probe: tracks how long the flushed-LSN horizon has been
    /// stuck behind the appended horizon. Off the commit/flush paths —
    /// only the telemetry/watchdog samplers lock it.
    horizon_probe: RankedMutex<HorizonProbe>,
}

/// State for [`WalHub::flush_horizon_age_ns`].
#[derive(Default)]
struct HorizonProbe {
    /// Sum of flushed LSNs across writers at the last observation.
    last_flushed: u64,
    /// When the horizon was last seen advancing (or fully caught up).
    since: Option<Instant>,
}

impl WalHub {
    /// Create writers for `slots` task slots over one log file under
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
        Self::with_fs(dir, slots, group_commit, sync, metrics, Arc::new(OsFs))
    }

    /// [`WalHub::new`] over an injected filesystem — the seam the
    /// crash-torture harness uses to put a [`phoebe_common::fault::SimFs`]
    /// under the log file.
    pub fn with_fs(
        dir: &Path,
        slots: usize,
        group_commit: Duration,
        sync: bool,
        metrics: Arc<Metrics>,
        fs: Arc<dyn FaultFs>,
    ) -> Result<Arc<Self>> {
        std::fs::create_dir_all(dir)?;
        let live = Arc::new(Liveness::default());
        let hub = Arc::new(WalHub {
            writers: (0..slots).map(|s| WalWriter::new(s, Arc::clone(&live))).collect(),
            file: fs.create(&dir.join(LOG_FILE))?,
            gsn: AtomicU64::new(1),
            metrics,
            sync,
            shutdown: AtomicBool::new(false),
            live,
            flusher: RankedMutex::new(Rank::WalHub, "wal.hub_flusher", None),
            doorbell: Doorbell::default(),
            round: RankedMutex::new(Rank::WalHub, "wal.hub_round", Round::default()),
            rounds: AtomicU64::new(0),
            round_done: Notify::new(),
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
                    // Event-driven group commit: sleep on the doorbell with
                    // the configured window as an upper bound. A commit at
                    // an idle moment is flushed immediately; the rings of a
                    // commit storm accumulate while a round's sync is in
                    // flight and the next round takes them all, so a batch
                    // is whatever arrived during one sync. Timed-out empty
                    // rounds back the window off (x2, up to x64) so an idle
                    // kernel is not woken thousands of times a second to
                    // find every buffer empty; un-rung backlog still waits
                    // at most that long.
                    let mut seen = 0u64;
                    let mut window = group_commit;
                    while !h.shutdown.load(Ordering::Acquire) {
                        let rings = h.doorbell.wait(seen, window);
                        if h.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let rung = rings != seen;
                        seen = rings;
                        window = match h.flush_all() {
                            Ok(0) if !rung => (window * 2).min(group_commit * 64),
                            Ok(_) => group_commit,
                            // flush_all already halted the hub; retrying
                            // against a dead log device is pointless.
                            Err(_) => break,
                        };
                    }
                    let _ = h.flush_all();
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

    /// Record a write against a page for RFA purposes and return the GSN to
    /// stamp on the WAL record and the page.
    ///
    /// `page_gsn`/`last_writer` describe the page *before* this write;
    /// `my_slot` is the flat slot index of the writing transaction.
    pub fn stamp_write(
        &self,
        rfa: &mut RfaState,
        page_gsn: u64,
        last_writer: Option<usize>,
        my_slot: usize,
    ) -> u64 {
        let cross = last_writer.is_some_and(|w| w != my_slot);
        let gsn = if cross {
            // Cross-slot modification: advance the global GSN past the
            // page's current GSN so recovery orders us after the remote
            // writer.
            let mut g = self.gsn.fetch_add(1, Ordering::AcqRel) + 1;
            while g <= page_gsn {
                g = self.gsn.fetch_add(1, Ordering::AcqRel) + 1;
            }
            // RFA check: if the previous writer's version is already
            // durable, no remote dependency arises.
            if let Some(w) = last_writer {
                if self.writers[w].durable_horizon() < page_gsn {
                    rfa.needs_remote = true;
                }
            }
            g
        } else {
            // Same-slot (or fresh) page: stay on the current GSN.
            self.gsn.load(Ordering::Acquire).max(page_gsn)
        };
        rfa.max_gsn = rfa.max_gsn.max(gsn);
        gsn
    }

    /// Append an operation record on the transaction's slot writer.
    pub fn log_op(&self, slot: usize, xid: Xid, gsn: u64, body: RecordBody) -> Lsn {
        let _t = self.metrics.timer(Component::Wal);
        let (lsn, n) = self.writers[slot].append(xid, Gsn(gsn), body);
        self.metrics.add(Counter::WalBytes, n as u64);
        lsn
    }

    /// Append the commit record and wait per RFA rules (when `wal_sync`).
    pub async fn commit(
        &self,
        slot: usize,
        xid: Xid,
        cts: Timestamp,
        rfa: &RfaState,
    ) -> Result<()> {
        // Time only the synchronous record-building section: the flush
        // *wait* parks the co-routine and must not be booked as WAL work
        // (the paper's Figure 12 counts instructions, not idle time).
        let gsn = rfa.max_gsn.max(self.gsn.load(Ordering::Acquire));
        let (lsn, n) = {
            let _t = self.metrics.timer(Component::Wal);
            self.writers[slot].append(xid, Gsn(gsn), RecordBody::Commit { cts })
        };
        self.metrics.add(Counter::WalBytes, n as u64);
        if !self.sync {
            return Ok(());
        }
        // Ring the doorbell *before* parking so the flusher starts a round
        // for this commit rather than waiting out the group-commit window.
        self.doorbell.ring();
        if rfa.needs_remote {
            self.metrics.incr(Counter::RemoteFlushWaits);
            // Own slot first: RFA only relaxes which *remote* logs a
            // commit waits on, never its own — the commit record itself
            // must be durable before acknowledging. The global horizon
            // can already cover `rfa.max_gsn` from earlier rounds while
            // this record still sits in the volatile buffer.
            self.writers[slot].wait_lsn(lsn).await?;
            let tracer = self.metrics.tracer();
            let wait_start = tracer.enabled().then(Instant::now);
            let waited = self.ensure_durable_gsn_async(rfa.max_gsn).await;
            if let Some(start) = wait_start {
                tracer.span(
                    EventKind::RfaRemoteWait,
                    slot as u32,
                    start,
                    Instant::now(),
                    rfa.max_gsn,
                );
            }
            waited?;
        } else {
            self.metrics.incr(Counter::RfaEarlyCommits);
            self.writers[slot].wait_lsn(lsn).await?;
        }
        Ok(())
    }

    /// True once the hub refused further durability after a log I/O error.
    pub fn is_halted(&self) -> bool {
        self.live.halted()
    }

    /// Stop acknowledging durability — a log write or fsync failed, or the
    /// flusher ran its final round — and wake every parked waiter so it
    /// observes why and errors out instead of sleeping on a round that
    /// will never come.
    fn stop(&self, why: u8) {
        self.live.stop(why);
        for w in &self.writers {
            w.durable.notify_all();
        }
        self.round_done.notify_all();
    }

    /// Run one group-commit round on the calling thread: steal every
    /// writer's pending bytes into one write and make it durable with one
    /// `fdatasync`. Returns bytes flushed. A concurrent caller waits its
    /// turn, so on return everything appended before the call is durable.
    pub fn flush_all(&self) -> Result<u64> {
        let flushed = self.run_round(&mut self.round.lock());
        // ORDERING: statistic counter; waiters synchronize through the
        // horizons and `round_done`, never through this count.
        self.rounds.fetch_add(1, Ordering::Relaxed);
        // Wake remote-dependency waiters and the write barrier after
        // every round, failed ones included (they re-check liveness).
        self.round_done.notify_all();
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
        // Gather: one slot lock at a time, in slot order.
        let stolen: Vec<_> = self
            .writers
            .iter()
            .filter_map(|w| w.steal_into(&mut round.buf).map(|s| (w, s)))
            .collect();
        if stolen.is_empty() {
            return Ok(0);
        }
        let n = round.buf.len() as u64;
        let written = self.file.write_all_at(round.offset, &round.buf).and_then(|()| {
            if self.sync {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        // Keep the buffer warm, but not a bulk load's high-water mark.
        round.buf.clear();
        round.buf.shrink_to(16 * SLOT_BUF_BYTES);
        if let Err(e) = written {
            self.stop(Liveness::HALTED);
            return Err(e.into());
        }
        round.offset += n;
        // Durability latency as the committers saw it.
        self.metrics.probe_since(LatencySite::WalFlush, 0, n, round_start).finish();
        for (w, s) in &stolen {
            w.publish(s);
        }
        self.metrics.incr(Counter::WalFlushes);
        self.metrics.add(Counter::WalFlushedBytes, n);
        // The whole round is one group-commit window's worth of work.
        self.metrics.probe_since(LatencySite::GroupCommit, 0, n, round_start).finish();
        Ok(n)
    }

    /// The global durable horizon: every writer has flushed at least this
    /// GSN (writers with nothing pending don't hold it back).
    pub fn durable_gsn(&self) -> u64 {
        self.writers.iter().map(|w| w.durable_horizon()).min().unwrap_or(u64::MAX)
    }

    /// Await global durability of `gsn` (remote-dependency commits):
    /// sleep on the per-round notification; spinning at high urgency here
    /// starved the flusher of CPU on small machines.
    ///
    /// Errs with [`PhoebeError::WalHalted`] or [`PhoebeError::WalClosed`]
    /// if rounds stopped before the horizon reached `gsn`.
    pub async fn ensure_durable_gsn_async(&self, gsn: u64) -> Result<()> {
        self.round_done
            .wait_until(|| durable_or_stopped(self.durable_gsn() >= gsn, &self.live), None)
            .await
            .expect("a wait without a deadline ends on its condition")
    }

    /// Non-blocking write barrier (Steal): whether all WAL up to `gsn` is
    /// durable. If not, rings the doorbell so a round is under way by the
    /// time the caller looks again — eviction skips the page meanwhile
    /// instead of sleeping on the round with latches held.
    pub fn try_ensure_durable_gsn(&self, gsn: u64) -> bool {
        let durable = self.durable_gsn() >= gsn;
        if !durable {
            self.doorbell.ring();
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
        // The async barrier's wait, on the calling thread; the condition
        // rings once per round it still needs.
        let cond = || {
            let done = durable_or_stopped(self.durable_gsn() >= gsn, &self.live);
            if done.is_none() {
                self.doorbell.ring();
            }
            done
        };
        let _ = block_on(self.round_done.wait_until(cond, None));
    }

    /// Records appended but not yet physically flushed, summed across
    /// writers (LSNs are per-slot record sequence numbers).
    pub fn backlog_records(&self) -> u64 {
        self.writers.iter().map(|w| w.appended_lsn().saturating_sub(w.flushed_lsn())).sum()
    }

    /// How long the flush horizon has been stuck, in nanoseconds.
    ///
    /// Returns 0 while the flushed horizon keeps up with (or advances
    /// toward) the appended horizon; once there is a backlog and the
    /// flushed-LSN sum stops moving between observations, the age grows
    /// until the flusher makes progress again. Telemetry/watchdog
    /// sampling path only — the probe is stateful, so concurrent callers
    /// share one clock (fine: both want the same answer).
    pub fn flush_horizon_age_ns(&self) -> u64 {
        let flushed: u64 = self.writers.iter().map(|w| w.flushed_lsn()).sum();
        let mut probe = self.horizon_probe.lock();
        if self.backlog_records() == 0 {
            // Fully caught up: nothing pending, nothing stuck.
            probe.last_flushed = flushed;
            probe.since = None;
            return 0;
        }
        if flushed > probe.last_flushed || probe.since.is_none() {
            // Progress since last look (or first look at a backlog):
            // restart the stall clock.
            probe.last_flushed = flushed;
            probe.since = Some(Instant::now());
            return 0;
        }
        probe.since.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }

    /// Total bytes physically flushed across writers.
    pub fn total_bytes_flushed(&self) -> u64 {
        self.writers.iter().map(|w| w.bytes_flushed()).sum()
    }

    /// Snapshot of the hub's metrics registry (tests/diagnostics).
    pub fn metrics_snapshot(&self) -> phoebe_common::metrics::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Stop the flusher (final flush included); afterwards every
    /// durability wait errs with [`PhoebeError::WalClosed`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the flusher out of its doorbell wait so shutdown does not
        // stall for a full group-commit window.
        self.doorbell.ring();
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

    fn xid(n: u64) -> Xid {
        Xid::from_start_ts(n)
    }

    #[test]
    fn append_assigns_monotonic_lsns_per_writer() {
        let h = hub(2);
        let a = h.log_op(0, xid(1), 1, RecordBody::Begin);
        let b = h.log_op(0, xid(1), 1, RecordBody::Abort);
        let c = h.log_op(1, xid(2), 1, RecordBody::Begin);
        assert!(b > a);
        assert_eq!(c, Lsn(1), "LSNs are per-writer");
        h.shutdown();
    }

    #[test]
    fn same_slot_writes_never_need_remote_flush() {
        let h = hub(2);
        let mut rfa = RfaState::default();
        let g1 = h.stamp_write(&mut rfa, 0, None, 0);
        let g2 = h.stamp_write(&mut rfa, g1, Some(0), 0);
        assert!(!rfa.needs_remote);
        assert!(g2 >= g1);
        h.shutdown();
    }

    #[test]
    fn cross_slot_unflushed_dependency_sets_remote() {
        let h = hub(2);
        // Slot 1 writes a page (gsn stamped, not yet flushed).
        let mut rfa1 = RfaState::default();
        let g1 = h.stamp_write(&mut rfa1, 0, None, 1);
        h.log_op(1, xid(1), g1, RecordBody::Begin);
        // Slot 0 then modifies the same page before slot 1 flushed.
        let mut rfa0 = RfaState::default();
        let g0 = h.stamp_write(&mut rfa0, g1, Some(1), 0);
        assert!(g0 > g1, "cross-slot write advances the GSN");
        assert!(rfa0.needs_remote);
        h.shutdown();
    }

    #[test]
    fn cross_slot_flushed_dependency_avoids_remote_wait() {
        let h = hub(2);
        let mut rfa1 = RfaState::default();
        let g1 = h.stamp_write(&mut rfa1, 0, None, 1);
        h.log_op(1, xid(1), g1, RecordBody::Begin);
        h.flush_all().unwrap();
        // Now slot 1's version is durable: no remote dependency.
        let mut rfa0 = RfaState::default();
        let _ = h.stamp_write(&mut rfa0, g1, Some(1), 0);
        assert!(!rfa0.needs_remote, "RFA: durable remote writes don't block");
        h.shutdown();
    }

    #[test]
    fn commit_waits_for_own_flush_only_without_remote_deps() {
        let h = hub(2);
        let mut rfa = RfaState::default();
        let g = h.stamp_write(&mut rfa, 0, None, 0);
        h.log_op(0, xid(5), g, RecordBody::Begin);
        block_on(h.commit(0, xid(5), 9, &rfa)).unwrap();
        assert!(h.writer(0).flushed_lsn() >= 2, "commit record durable");
        let snap = h.metrics_snapshot();
        assert_eq!(snap.counter(Counter::RfaEarlyCommits), 1);
        assert_eq!(snap.counter(Counter::RemoteFlushWaits), 0);
        h.shutdown();
    }

    #[test]
    fn remote_dependent_commit_waits_for_global_horizon() {
        let h = hub(2);
        let mut rfa1 = RfaState::default();
        let g1 = h.stamp_write(&mut rfa1, 0, None, 1);
        h.log_op(1, xid(1), g1, RecordBody::Begin);
        let mut rfa0 = RfaState::default();
        let g0 = h.stamp_write(&mut rfa0, g1, Some(1), 0);
        h.log_op(0, xid(2), g0, RecordBody::Begin);
        assert!(rfa0.needs_remote);
        block_on(h.commit(0, xid(2), 9, &rfa0)).unwrap();
        assert!(h.durable_gsn() >= rfa0.max_gsn);
        assert_eq!(h.metrics_snapshot().counter(Counter::RemoteFlushWaits), 1);
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
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        let h = WalHub::new(&dir, 1, 2, Duration::from_secs(5), true, Arc::new(Metrics::new(1)))
            .unwrap();
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
        // sync commit for seconds; the doorbell must make it ~one flush.
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        let h = WalHub::new(&dir, 1, 2, Duration::from_secs(5), true, Arc::new(Metrics::new(1)))
            .unwrap();
        let commit = |n: u64| {
            let mut rfa = RfaState::default();
            let g = h.stamp_write(&mut rfa, 0, None, 0);
            h.log_op(0, xid(n), g, RecordBody::Begin);
            let t0 = Instant::now();
            block_on(h.commit(0, xid(n), n, &rfa)).unwrap();
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
        assert!(t1.elapsed() < Duration::from_secs(1), "shutdown must ring the doorbell");
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

        // Backlog nobody rings the doorbell for (log_op only, no commit)
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
    fn remote_dependent_commit_parks_until_round_done() {
        // Same low-latency requirement for the ensure_durable_gsn path.
        let dir = phoebe_common::KernelConfig::for_tests().data_dir;
        let h = WalHub::new(&dir, 2, 2, Duration::from_secs(5), true, Arc::new(Metrics::new(1)))
            .unwrap();
        let mut rfa1 = RfaState::default();
        let g1 = h.stamp_write(&mut rfa1, 0, None, 1);
        h.log_op(1, xid(1), g1, RecordBody::Begin);
        let mut rfa0 = RfaState::default();
        let g0 = h.stamp_write(&mut rfa0, g1, Some(1), 0);
        h.log_op(0, xid(2), g0, RecordBody::Begin);
        assert!(rfa0.needs_remote);
        let t0 = std::time::Instant::now();
        block_on(h.commit(0, xid(2), 9, &rfa0)).unwrap();
        assert!(h.durable_gsn() >= rfa0.max_gsn);
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
        // Never flushed now: holds the global horizon below GSN 1.
        h.log_op(1, xid(1), 1, RecordBody::Begin);
        let own = Arc::clone(&h);
        let err = bounded(move || block_on(own.commit(0, xid(2), 2, &RfaState::default())));
        let err = err.unwrap_err();
        assert!(matches!(err, PhoebeError::WalClosed), "got {err:?}");
        assert!(!err.is_retryable());
        let remote = Arc::clone(&h);
        let err = bounded(move || block_on(remote.ensure_durable_gsn_async(1))).unwrap_err();
        assert!(matches!(err, PhoebeError::WalClosed), "got {err:?}");
        let barrier = Arc::clone(&h);
        bounded(move || barrier.ensure_durable_gsn_blocking(1));
        assert!(!h.is_halted(), "a clean shutdown is not a device failure");
        assert!(matches!(h.flush_all(), Err(PhoebeError::WalClosed)));
    }

    #[test]
    fn durable_gsn_ignores_idle_writers() {
        let h = hub(4);
        let mut rfa = RfaState::default();
        let g = h.stamp_write(&mut rfa, 0, None, 0);
        h.log_op(0, xid(1), g, RecordBody::Begin);
        h.flush_all().unwrap();
        assert!(h.durable_gsn() >= g, "idle writers must not pin the horizon");
        h.shutdown();
    }
}
