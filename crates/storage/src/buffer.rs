//! Main Storage: the partitioned buffer pool (§5.3, §7.1).
//!
//! All B-Tree nodes live in fixed buffer frames. There is deliberately *no
//! global hash table* mapping page ids to frames — the paper's central
//! storage claim: a page is found only by following swizzled pointers from
//! its parent, so the lookup path is contention-free. Consequently eviction
//! must go through the parent too: each frame keeps a *parent hint* that is
//! validated under the parent's latch before unswizzling.
//!
//! Frames are partitioned per worker (§7.1 "a worker thread manages its own
//! buffer pool partition and handles page swaps locally"): allocation draws
//! from the calling worker's partition, and the cooling queue + clock hand
//! are per partition, so page swaps do not contend across workers.
//!
//! Eviction follows the paper's three swizzle states: a clock pass over the
//! partition *stages* candidates by setting the cooling bit in the parent's
//! child swip (Hot → Cooling) until the partition's cooling stage holds
//! [`COOLING_SHARE`] of its frames; accessors that reach a cooling page heat
//! it back (second chance); when frames are needed, staged candidates still
//! cooling are written out from the stage's front and their swips turned
//! cold (Cooling → Cold). [`BufferPool::page_swap`] is that one routine.

use crate::latch::HybridLatch;
use crate::node::Page;
use crate::pagefile::PageFile;
use crate::swip::{FrameId, Swip, SwipState};
use phoebe_common::config::PAGE_SIZE;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::PageId;
use phoebe_common::metrics::{Component, Counter, Metrics};
use phoebe_common::sync::{Rank, RankedMutex, RankedRwLock};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel for "no parent": the frame is a tree root and never evictable.
pub const NO_PARENT: u64 = u64::MAX;

/// Sentinel for "no disk slot assigned yet".
const NO_DISK: u64 = u64::MAX;

/// Fraction of a partition's frames kept free: dropping below it triggers
/// the worker's page swaps (§7.1).
const FREE_FRAME_WATERMARK: f64 = 0.10;

/// Fraction of a partition's frames its cooling stage holds. LeanStore's
/// Hot → Cooling → Cold keeps about a tenth of the pool Cooling; a quarter
/// gave `tpcc_cold` fewer page reads and more throughput than a tenth.
/// Staging tops the stage up to this share and stops there: without a
/// size, nearly every evictable frame ended up Cooling, and each later
/// top-up swept the whole partition for a Hot one.
const COOLING_SHARE: f64 = 0.25;

/// Least number of frames the cooling stage holds, so that a small pool
/// still stages a useful batch.
const COOLING_FLOOR: usize = 8;

/// Shards of the per-PageId fault-epoch table. Collisions are harmless:
/// they can only make an in-flight fault's install reject spuriously
/// (forcing a restart + re-fault), never accept a stale frame.
const FAULT_EPOCH_SHARDS: usize = 1024;

/// Bookkeeping carried outside the latch so it can be touched without
/// latching the page content.
pub struct FrameMeta {
    /// Page modified since last write-out.
    pub dirty: AtomicBool,
    /// OLTP access counter for temperature classification (§5.2).
    pub access_count: AtomicU64,
    /// Frame id of the (probable) parent; validated under the parent latch.
    pub parent: AtomicU64,
    /// Disk slot this page occupies in the Data Page File, if any.
    disk_page: AtomicU64,
    /// GSN of the newest WAL record touching this page — the write barrier
    /// ensures WAL reaches disk before the page does (Steal, §8).
    pub page_gsn: AtomicU64,
    /// Bumped every time the frame is recycled (release or eviction), so
    /// a suspended batch descent can detect that a frame id it captured
    /// no longer names the node it validated — see
    /// `BTree::parent_routes_to`, which would otherwise accept a
    /// repurposed frame via `child_index`'s slot clamping.
    reuse_epoch: AtomicU64,
}

impl Default for FrameMeta {
    fn default() -> Self {
        FrameMeta {
            dirty: AtomicBool::new(false),
            access_count: AtomicU64::new(0),
            parent: AtomicU64::new(NO_PARENT),
            disk_page: AtomicU64::new(NO_DISK),
            page_gsn: AtomicU64::new(0),
            reuse_epoch: AtomicU64::new(0),
        }
    }
}

impl FrameMeta {
    /// Detach the frame from its disk slot *without* freeing the slot —
    /// used when a racing loader discards its duplicate copy while the
    /// winner's frame still references the same slot.
    pub fn disk_page_forget(&self) {
        self.disk_page.store(NO_DISK, Ordering::Relaxed);
    }

    /// Recycle generation of this frame (see the field doc). A reader
    /// that captures the epoch while the frame is known to hold a given
    /// node, and later sees it unchanged, knows the frame still holds
    /// that node.
    #[inline]
    pub fn reuse_epoch(&self) -> u64 {
        // ORDERING: acquire pairs with the release bump in `reset`; the
        // surrounding latch version protocol (a recycled frame's content
        // is only reachable after a write-latch release) carries the bump
        // to any reader whose optimistic read validated.
        self.reuse_epoch.load(Ordering::Acquire)
    }

    fn reset(&self) {
        self.dirty.store(false, Ordering::Relaxed);
        self.access_count.store(0, Ordering::Relaxed);
        self.parent.store(NO_PARENT, Ordering::Relaxed);
        self.disk_page.store(NO_DISK, Ordering::Relaxed);
        self.page_gsn.store(0, Ordering::Relaxed);
        // ORDERING: release pairs with the acquire in `reuse_epoch`.
        self.reuse_epoch.fetch_add(1, Ordering::Release);
    }
}

/// One buffer frame: a latched page plus its metadata.
pub struct Frame {
    pub latch: HybridLatch<Page>,
    pub meta: FrameMeta,
}

/// Callback the WAL layer installs so dirty-page write-out obeys
/// write-ahead ordering ("Non-Force, Steal", §8).
pub trait WalBarrier: Send + Sync + 'static {
    /// Whether all WAL up to `gsn` is durable. If not, nudge the flusher
    /// and return at once — this is the only barrier call eviction makes
    /// while it holds a latch.
    fn try_ensure_durable(&self, gsn: u64) -> bool;
    /// Block until all WAL up to `gsn` is durable. Called with no latch
    /// held, and only from [`BufferPool::allocate`]'s last-resort pass.
    fn ensure_durable(&self, gsn: u64);
}

/// Outcome of one eviction attempt on a cooling candidate.
enum Evict {
    /// The frame went back to its partition's free list.
    Freed,
    /// Dirty, and its log up to this GSN is not durable yet: not written,
    /// still cooling, worth another look once the flusher's round lands.
    LogPending(u64),
    /// Lost a latch race, heated, or no longer evictable.
    Skipped,
}

thread_local! {
    /// One page image per thread for Data Page File I/O: faults and
    /// write-backs run back to back on workers and loaders, and a fresh
    /// zeroed 16 KiB allocation per I/O cost as much as a cached read.
    static PAGE_BUF: std::cell::RefCell<Vec<u8>> = std::cell::RefCell::new(vec![0u8; PAGE_SIZE]);
}

struct Partition {
    free: RankedMutex<Vec<FrameId>>,
    cooling: RankedMutex<CoolingQueue>,
    clock: AtomicUsize,
}

/// A partition's staged eviction candidates in staging order, each frame
/// at most once. A candidate heated since staging leaves a stale entry
/// behind until it reaches the front; when the clock stages that frame
/// again the entry simply stands for it again. Without the once-only rule
/// every heat-and-restage cycle added an entry, and a 512-frame partition
/// under steady page swaps grew a queue of 10⁵ frame ids.
struct CoolingQueue {
    fifo: VecDeque<FrameId>,
    /// Whether each of the partition's frames (by offset from `first`) is
    /// in `fifo`.
    queued: Box<[bool]>,
    first: FrameId,
}

impl CoolingQueue {
    /// Queue `fid` unless an entry already stands for it; whether the
    /// queue grew.
    fn push(&mut self, fid: FrameId) -> bool {
        let queued = &mut self.queued[(fid - self.first) as usize];
        if *queued {
            return false;
        }
        *queued = true;
        self.fifo.push_back(fid);
        true
    }

    fn pop(&mut self) -> Option<FrameId> {
        let fid = self.fifo.pop_front()?;
        self.queued[(fid - self.first) as usize] = false;
        Some(fid)
    }
}

/// The buffer pool.
pub struct BufferPool {
    frames: Box<[Frame]>,
    partitions: Vec<Partition>,
    frames_per_partition: usize,
    page_file: PageFile,
    barrier: RankedRwLock<Option<Arc<dyn WalBarrier>>>,
    metrics: Arc<Metrics>,
    /// Lazily-started background loader for asynchronous page faults
    /// (interleaved batch descents, see [`crate::fault_service`]). The
    /// sender drops with the pool, which ends the loader thread.
    fault_tx: RankedMutex<Option<std::sync::mpsc::Sender<crate::fault_service::FaultRequest>>>,
    /// Asynchronous faults currently holding (or about to hold) a frame.
    /// Loaded-but-not-yet-installed frames are parentless — eviction
    /// cannot reclaim them — so a wide batch kicking one fault per key
    /// could eat the whole pool and starve even the blocking fault path.
    /// [`BufferPool::fault_budget_available`] caps them.
    faults_inflight: AtomicUsize,
    /// Per-PageId (sharded) unswizzle epochs, bumped under the parent
    /// latch whenever a slot turns Cooling → Cold. Faulting paths capture
    /// the epoch before issuing the disk read and re-check it at install
    /// time: a bump in between means the page went through a concurrent
    /// install / modify / evict cycle while the fault was in flight, so
    /// the loaded image predates committed writes even though the parent
    /// slot holds a byte-identical cold swip (PageId ABA).
    fault_epochs: Box<[AtomicU64]>,
}

impl BufferPool {
    /// Build a pool of `total_frames` split over `partitions` partitions,
    /// backed by a Data Page File under `dir` on the real filesystem.
    pub fn new(
        total_frames: usize,
        partitions: usize,
        dir: &Path,
        metrics: Arc<Metrics>,
    ) -> Result<Arc<Self>> {
        Self::new_with_fs(total_frames, partitions, dir, metrics, &phoebe_common::fault::OsFs)
    }

    /// [`BufferPool::new`] over an injected filesystem — the seam the
    /// crash-torture harness uses to route the Data Page File through a
    /// [`phoebe_common::fault::SimFs`] torture disk.
    pub fn new_with_fs(
        total_frames: usize,
        partitions: usize,
        dir: &Path,
        metrics: Arc<Metrics>,
        fs: &dyn phoebe_common::fault::FaultFs,
    ) -> Result<Arc<Self>> {
        let partitions = partitions.max(1);
        let fpp = (total_frames / partitions).max(2);
        let total = fpp * partitions;
        let mut frames = Vec::with_capacity(total);
        frames.resize_with(total, || Frame {
            latch: HybridLatch::new(Page::Free),
            meta: FrameMeta::default(),
        });
        let parts = (0..partitions)
            .map(|p| Partition {
                free: RankedMutex::new(
                    Rank::BufferPartition,
                    "buffer.partition_free",
                    (p * fpp..(p + 1) * fpp).map(|f| f as FrameId).collect(),
                ),
                cooling: RankedMutex::new(
                    Rank::BufferPartition,
                    "buffer.partition_cooling",
                    CoolingQueue {
                        fifo: VecDeque::new(),
                        queued: vec![false; fpp].into_boxed_slice(),
                        first: (p * fpp) as FrameId,
                    },
                ),
                clock: AtomicUsize::new(p * fpp),
            })
            .collect();
        Ok(Arc::new(BufferPool {
            frames: frames.into_boxed_slice(),
            partitions: parts,
            frames_per_partition: fpp,
            page_file: PageFile::create_with(fs, &dir.join("data_pages.db"))?,
            faults_inflight: AtomicUsize::new(0),
            barrier: RankedRwLock::new(Rank::BufferPool, "buffer.wal_barrier", None),
            metrics,
            fault_tx: RankedMutex::new(Rank::BufferPool, "buffer.fault_tx", None),
            fault_epochs: (0..FAULT_EPOCH_SHARDS).map(|_| AtomicU64::new(0)).collect(),
        }))
    }

    /// Install the WAL write barrier.
    pub fn set_wal_barrier(&self, b: Arc<dyn WalBarrier>) {
        *self.barrier.write() = Some(b);
    }

    #[inline]
    pub fn frame(&self, fid: FrameId) -> &Frame {
        &self.frames[fid as usize]
    }

    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Free frames remaining in `partition` (drives the page-swap trigger,
    /// §7.1: "page swaps are triggered when buffer frames drop below a
    /// threshold").
    pub fn free_frames(&self, partition: usize) -> usize {
        self.partitions[partition].free.lock().len()
    }

    /// Physical (reads, writes) against the Data Page File.
    pub fn io_counts(&self) -> (u64, u64) {
        self.page_file.io_counts()
    }

    /// Record an OLTP access on a frame (temperature tracking, §5.2).
    #[inline]
    pub fn touch(&self, fid: FrameId) {
        self.frames[fid as usize].meta.access_count.fetch_add(1, Ordering::Relaxed);
    }

    /// The partition the calling thread allocates from: its worker's own
    /// partition, or a thread-id-hashed one for external threads (a fixed
    /// fallback would make one partition a contention magnet whenever many
    /// non-worker threads allocate).
    pub fn home_partition(&self) -> usize {
        thread_local! {
            static THREAD_HASH: usize = {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                std::thread::current().id().hash(&mut h);
                h.finish() as usize
            };
        }
        let slot = match phoebe_common::metrics::current_worker() {
            Some(w) => w,
            None => THREAD_HASH.with(|h| *h),
        };
        slot % self.partitions.len()
    }

    /// Allocate a free frame, evicting from the home partition if needed.
    /// The returned frame contains `Page::Free` and belongs to the caller,
    /// who must install content under an exclusive latch.
    pub fn allocate(&self) -> Result<FrameId> {
        self.allocate_in(self.home_partition())
    }

    /// [`BufferPool::allocate`] with `home` as the partition to take from
    /// and evict in first.
    fn allocate_in(&self, home: usize) -> Result<FrameId> {
        let _t = self.metrics.timer(Component::Buffer);
        if let Some(f) = self.partitions[home].free.lock().pop() {
            return Ok(f);
        }
        // Try to make room locally.
        for _ in 0..3 {
            if self.page_swap(home)?.0 {
                if let Some(f) = self.partitions[home].free.lock().pop() {
                    return Ok(f);
                }
            }
        }
        // Steal a free frame from another partition rather than fail.
        for p in 0..self.partitions.len() {
            if p == home {
                continue;
            }
            if let Some(f) = self.partitions[p].free.lock().pop() {
                return Ok(f);
            }
        }
        // Last resort: evict from any partition, and — the one place the
        // pool waits for the log — if all that stands between a partition
        // and a free frame is a WAL round, sleep for it. No latch is held
        // here; the retry re-checks durability like any other eviction.
        for p in 0..self.partitions.len() {
            let (mut freed, log_pending) = self.page_swap(p)?;
            if let (false, Some(gsn)) = (freed, log_pending) {
                if let Some(b) = self.wal_barrier() {
                    b.ensure_durable(gsn);
                }
                freed = self.evict_pass(p)?.0;
            }
            if freed {
                if let Some(f) = self.partitions[p].free.lock().pop() {
                    return Ok(f);
                }
            }
        }
        Err(PhoebeError::OutOfFrames)
    }

    /// Return a frame to its partition's free list. Caller must have made
    /// the page unreachable and hold no latch on it.
    pub fn release(&self, fid: FrameId) {
        {
            let mut guard = self.frames[fid as usize].latch.write();
            *guard = Page::Free;
        }
        if let Some(disk) = self.take_disk_slot(fid) {
            self.page_file.release(disk);
        }
        self.frames[fid as usize].meta.reset();
        let p = fid as usize / self.frames_per_partition;
        self.partitions[p].free.lock().push(fid);
    }

    /// Current unswizzle epoch for `page` (see the `fault_epochs` field).
    /// Capture *before* kicking the fault's disk read; pass the captured
    /// value to the swizzle install so it can reject a stale frame.
    #[inline]
    pub fn fault_epoch(&self, page: PageId) -> u64 {
        // ORDERING: acquire pairs with the release bump in `try_evict`.
        // Install-vs-evict ordering is additionally serialized by the
        // parent latch both sides hold when they touch the slot.
        self.fault_epochs[page.raw() as usize % self.fault_epochs.len()].load(Ordering::Acquire)
    }

    fn take_disk_slot(&self, fid: FrameId) -> Option<PageId> {
        let raw = self.frames[fid as usize].meta.disk_page.swap(NO_DISK, Ordering::Relaxed);
        (raw != NO_DISK).then_some(PageId(raw))
    }

    /// Load a cold page into a fresh frame. Returns the frame id; the
    /// caller re-swizzles the parent's child slot.
    ///
    /// Allocation and the read I/O happen here, *before* the caller holds
    /// the parent latch, so eviction (which needs parent latches) is never
    /// starved by a loader.
    pub fn load_cold(&self, page: PageId, parent: FrameId) -> Result<FrameId> {
        self.load_cold_in(self.home_partition(), page, parent)
    }

    /// [`BufferPool::load_cold`] into a frame of partition `home`.
    pub(crate) fn load_cold_in(
        &self,
        home: usize,
        page: PageId,
        parent: FrameId,
    ) -> Result<FrameId> {
        let fid = self.allocate_in(home)?;
        if let Err(e) = self.read_into_frame(fid, page, parent) {
            self.release(fid);
            return Err(e);
        }
        Ok(fid)
    }

    /// Fill a pre-allocated frame with the image of `page`.
    pub fn read_into_frame(&self, fid: FrameId, page: PageId, parent: FrameId) -> Result<()> {
        // The whole fault — read I/O, decode, frame install — is what a
        // transaction stalls on when it hits a cold swip.
        let _fault = self.metrics.probe(LatencySite::BufferFault, 0, page.raw());
        PAGE_BUF.with(|buf| {
            let buf = &mut *buf.borrow_mut();
            self.page_file.read_page(page, buf)?;
            // The frame is parentless until the caller installs it, so
            // nothing can reach it: decoding under its latch blocks no one.
            self.frames[fid as usize].latch.write().decode_from(buf)
        })?;
        let meta = &self.frames[fid as usize].meta;
        meta.parent.store(parent, Ordering::Relaxed);
        meta.disk_page.store(page.raw(), Ordering::Relaxed);
        meta.dirty.store(false, Ordering::Relaxed);
        self.metrics.incr(Counter::PageReads);
        Ok(())
    }

    /// Kick an asynchronous fault-in of `page` (a child of `parent`) and
    /// return its ticket. The background loader runs the allocate-and-read
    /// half of [`BufferPool::load_cold`]; the caller performs the swizzle
    /// install under the parent latch once the ticket completes, exactly
    /// as the blocking path does — and the frame comes from the caller's
    /// home partition, as the blocking path's would, not from one picked
    /// by the loader thread's id. If the loader thread is gone (pool
    /// shutting down) the load happens inline and the ticket returns
    /// already complete.
    pub fn start_fault(
        self: &Arc<Self>,
        page: PageId,
        parent: FrameId,
    ) -> Arc<crate::fault_service::FaultTicket> {
        self.faults_inflight.fetch_add(1, Ordering::Relaxed);
        let ticket = crate::fault_service::FaultTicket::counted(Arc::downgrade(self));
        let home = self.home_partition();
        let req =
            crate::fault_service::FaultRequest { home, page, parent, ticket: Arc::clone(&ticket) };
        let mut tx = self.fault_tx.lock();
        let sender = tx.get_or_insert_with(|| {
            let (s, r) = std::sync::mpsc::channel();
            // Unranked on purpose: serializes the mpsc receiver between
            // loader threads, only ever held while blocked in recv(),
            // never around another kernel lock.
            // LINT-ALLOW(lock-order): std mutex over an mpsc receiver only.
            let r = std::sync::Arc::new(std::sync::Mutex::new(r));
            let loaders =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 4);
            for i in 0..loaders {
                let weak = Arc::downgrade(self);
                let r = std::sync::Arc::clone(&r);
                std::thread::Builder::new()
                    .name(format!("phoebe-fault-{i}"))
                    // LINT-ALLOW(lock-order): loader_loop runs on the spawned thread — the fault_tx guard live here is not held there.
                    .spawn(move || crate::fault_service::loader_loop(weak, r))
                    .expect("spawn fault loader");
            }
            s
        });
        if sender.send(req).is_err() {
            drop(tx);
            ticket.complete(self.load_cold(page, parent));
        }
        ticket
    }

    /// Whether a new asynchronous fault may be kicked without risking
    /// pool exhaustion: in-flight faults are capped at half a partition,
    /// leaving the other half (plus every other partition) for the tree
    /// itself and for blocking faults. Callers over budget back off and
    /// retry — the budget frees as loads are installed or abandoned.
    pub fn fault_budget_available(&self) -> bool {
        self.faults_inflight.load(Ordering::Relaxed) < self.fault_budget_limit()
    }

    /// Gauge: asynchronous page faults currently in flight (telemetry).
    pub fn faults_inflight(&self) -> usize {
        // ORDERING: diagnostic read of a statistics gauge.
        self.faults_inflight.load(Ordering::Relaxed)
    }

    /// The in-flight fault cap [`Self::fault_budget_available`] enforces.
    pub fn fault_budget_limit(&self) -> usize {
        (self.frames_per_partition / 2).max(2)
    }

    /// Give back one in-flight fault budget slot (ticket drop).
    pub(crate) fn fault_done(&self) {
        self.faults_inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Pre-allocate up to `want` frames for a structure-modifying operation
    /// so that no allocation (and thus no eviction) happens while the
    /// caller holds exclusive latches. Best effort: the reserve may come up
    /// short on tiny pools; [`FrameReserve::take`] then falls back to a
    /// live allocation.
    pub fn reserve(self: &Arc<Self>, want: usize) -> FrameReserve {
        let mut frames = Vec::with_capacity(want);
        for _ in 0..want {
            match self.allocate() {
                Ok(f) => frames.push(f),
                Err(_) => break,
            }
        }
        FrameReserve { pool: self.clone(), frames }
    }

    /// The worker's page-swap duty (§7.1): while `partition` is below the
    /// free-frame watermark, swap pages, at most 8 per call.
    pub fn page_swap_duty(&self, partition: usize) {
        let watermark = (self.frames_per_partition as f64 * FREE_FRAME_WATERMARK) as usize;
        if self.free_frames(partition) >= watermark {
            return;
        }
        let _t = self.metrics.timer(Component::Buffer);
        for _ in 0..8 {
            if !matches!(self.page_swap(partition), Ok((true, _)))
                || self.free_frames(partition) >= watermark
            {
                break;
            }
        }
    }

    /// One page swap in `partition`: top its cooling stage up, then evict
    /// from the stage's front until a frame is freed. Returns whether one
    /// was, and the highest page GSN passed over because its log was not
    /// durable. The worker's duty and `allocate`'s slow path both swap
    /// pages through here.
    pub fn page_swap(&self, partition: usize) -> Result<(bool, Option<u64>)> {
        self.stage_cooling(partition);
        self.evict_pass(partition)
    }

    /// Top `partition`'s cooling stage up to [`COOLING_SHARE`] of its
    /// frames (at least [`COOLING_FLOOR`]) by a clock pass that flips Hot
    /// swips to Cooling. A full stage costs one lock: the clock does not
    /// move and no frame is probed. The stage is measured by its queue,
    /// stale entries of candidates heated since staging included; the
    /// eviction pass drops those when it reaches them.
    pub fn stage_cooling(&self, partition: usize) {
        let part = &self.partitions[partition];
        let target =
            ((self.frames_per_partition as f64 * COOLING_SHARE) as usize).max(COOLING_FLOOR);
        let want = target.saturating_sub(part.cooling.lock().fifo.len());
        let lo = partition * self.frames_per_partition;
        let hi = lo + self.frames_per_partition;
        let mut staged = 0;
        for _ in 0..self.frames_per_partition {
            if staged >= want {
                break;
            }
            let at = {
                let cur = part.clock.fetch_add(1, Ordering::Relaxed);
                lo + (cur - lo) % (hi - lo)
            };
            let fid = at as FrameId;
            if self.try_stage(fid) && part.cooling.lock().push(fid) {
                staged += 1;
            }
        }
    }

    /// Attempt to flip `fid`'s swip in its parent from Hot to Cooling. The
    /// parent is read optimistically first: a frame that is already
    /// Cooling, or whose hint is stale, leaves the parent's latch and
    /// version alone. Only a parent whose swip will flip is write-latched.
    fn try_stage(&self, fid: FrameId) -> bool {
        let meta = &self.frames[fid as usize].meta;
        let parent = meta.parent.load(Ordering::Relaxed);
        if parent == NO_PARENT {
            return false; // root or free
        }
        // Only leaves, or inners whose children are all cold, may cool.
        if !self.frames[fid as usize].latch.optimistic(Self::evictable).unwrap_or(false) {
            return false;
        }
        let hot = Swip::hot(fid).raw();
        let platch = &self.frames[parent as usize].latch;
        if !platch.optimistic(|p| Self::holds_child(p, hot)).unwrap_or(false) {
            return false; // stale hint, already cooling, or latched
        }
        let Some(mut pguard) = platch.try_write() else {
            return false;
        };
        let Page::Inner(pnode) = &mut *pguard else {
            return false; // changed since the read
        };
        let Some(slot) = pnode.find_child_slot(hot) else {
            return false;
        };
        pnode.set_child(slot, Swip::cooling(fid).raw());
        true
    }

    /// Whether `page` is an inner node with the swip `raw` among its
    /// children. Clamped: it runs on unvalidated racy reads.
    fn holds_child(page: &Page, raw: u64) -> bool {
        match page {
            Page::Inner(n) => n.children().any(|c| c == raw),
            _ => false,
        }
    }

    /// Evict one staged (still-cooling) page from `partition`
    /// (Cooling → Cold). Returns true if a frame was freed. Never sleeps
    /// and never waits for the log: a dirty candidate whose WAL is not
    /// durable yet is passed over (the flusher is nudged) in favour of
    /// clean and already-durable ones.
    pub fn evict_one(&self, partition: usize) -> Result<bool> {
        Ok(self.evict_pass(partition)?.0)
    }

    /// One pass over `partition`'s cooling queue: whether a frame was
    /// freed, and the highest page GSN among the candidates passed over
    /// because their log was not durable.
    ///
    /// Candidates heated since staging are dropped from the queue (second
    /// chance — [`BufferPool::stage_cooling`] finds them again once Hot).
    /// A candidate that merely lost a latch race or waits for the log but
    /// is *still cooling* goes back to the queue tail: its swip is no
    /// longer Hot, so `try_stage` can never re-stage it — dropping it here
    /// would strand the frame as permanently unevictable, and enough latch
    /// churn (a batch fault storm) can strand a whole partition that way.
    fn evict_pass(&self, partition: usize) -> Result<(bool, Option<u64>)> {
        let cooling = &self.partitions[partition].cooling;
        let mut log_pending = None;
        // Bound the pass to the entries present at the start so re-queued
        // candidates don't make this call spin on a contended parent.
        let mut budget = cooling.lock().fifo.len();
        while budget > 0 {
            budget -= 1;
            let Some(fid) = cooling.lock().pop() else { break };
            match self.try_evict(fid)? {
                Evict::Freed => return Ok((true, log_pending)),
                Evict::LogPending(gsn) => log_pending = log_pending.max(Some(gsn)),
                Evict::Skipped => {}
            }
            if self.still_cooling(fid) {
                cooling.lock().push(fid);
            }
        }
        Ok((false, log_pending))
    }

    /// Best-effort check that `fid`'s parent still carries a Cooling swip
    /// for it. `true` on a latched parent: that is exactly the contention
    /// that failed `try_evict`, and keeping the candidate queued is the
    /// safe side (a stale entry self-invalidates in `try_evict` later).
    fn still_cooling(&self, fid: FrameId) -> bool {
        let parent = self.frames[fid as usize].meta.parent.load(Ordering::Relaxed);
        if parent == NO_PARENT {
            return false;
        }
        self.frames[parent as usize]
            .latch
            .optimistic(|p| Self::holds_child(p, Swip::cooling(fid).raw()))
            .unwrap_or(true)
    }

    fn wal_barrier(&self) -> Option<Arc<dyn WalBarrier>> {
        self.barrier.read().clone()
    }

    /// Leaves, and inners whose children are all cold, may leave memory:
    /// a resident child is reachable only through its parent's frame.
    fn evictable(page: &Page) -> bool {
        match page {
            Page::Free => false,
            Page::TableLeaf(_) | Page::IndexLeaf(_) => true,
            // Clamped: `try_stage` runs this on an unvalidated racy read.
            Page::Inner(n) => {
                n.children().all(|c| matches!(Swip::from_raw(c).state(), SwipState::Cold(_)))
            }
        }
    }

    /// One eviction attempt, victim first. The invariant this order buys:
    /// **no sleep and no I/O under a parent's write latch** — a parent
    /// latched for the length of a page write (let alone a WAL round)
    /// stalls every descent through it. All acquisitions are `try_*`, so
    /// taking the child before the parent cannot deadlock with descents
    /// and SMOs that couple parent → child.
    ///
    /// 1. Latch the victim; under it `page_gsn`, `dirty` and the content
    ///    are stable (every writer holds this latch).
    /// 2. Dirty: the log must already be durable up to `page_gsn` (Steal,
    ///    §8) or the attempt ends here. Then write the image back with
    ///    only the victim latched. The page is clean from here on whether
    ///    or not the rest goes through, so a retry writes nothing.
    /// 3. Latch the parent for a few instructions: re-check the Cooling
    ///    swip, bump the fault epoch, flip the swip Cold.
    fn try_evict(&self, fid: FrameId) -> Result<Evict> {
        let frame = &self.frames[fid as usize];
        let meta = &frame.meta;
        let parent = meta.parent.load(Ordering::Relaxed);
        if parent == NO_PARENT {
            return Ok(Evict::Skipped);
        }
        let Some(mut vguard) = frame.latch.try_write() else {
            return Ok(Evict::Skipped);
        };
        // An inner staged with all-cold children may have had one faulted
        // back in since (the heat on the way down is best effort).
        if !Self::evictable(&vguard) {
            return Ok(Evict::Skipped);
        }
        let mut disk_raw = meta.disk_page.load(Ordering::Relaxed);
        let needs_write = meta.dirty.load(Ordering::Relaxed) || disk_raw == NO_DISK;
        if needs_write {
            let gsn = meta.page_gsn.load(Ordering::Relaxed);
            if self.wal_barrier().is_some_and(|b| !b.try_ensure_durable(gsn)) {
                return Ok(Evict::LogPending(gsn));
            }
        }
        if disk_raw == NO_DISK {
            disk_raw = self.page_file.alloc().raw();
        }
        // Past this point the page leaves memory unless the parent is
        // contended; time the write-out and unswizzle. The event names the
        // disk page, so it pairs with that page's later `buffer_fault`.
        let _evict = self.metrics.probe(LatencySite::Eviction, 0, disk_raw);
        if needs_write {
            PAGE_BUF.with(|buf| {
                let buf = &mut *buf.borrow_mut();
                vguard.encode(buf);
                self.page_file.write_page(PageId(disk_raw), buf)
            })?;
            meta.disk_page.store(disk_raw, Ordering::Relaxed);
            meta.dirty.store(false, Ordering::Relaxed);
            self.metrics.incr(Counter::PageWrites);
        }
        let Some(mut pguard) = self.frames[parent as usize].latch.try_write() else {
            return Ok(Evict::Skipped);
        };
        let Page::Inner(pnode) = &mut *pguard else {
            return Ok(Evict::Skipped); // stale hint
        };
        // Still cooling? (An access would have heated the swip.)
        let Some(slot) = pnode.find_child_slot(Swip::cooling(fid).raw()) else {
            return Ok(Evict::Skipped);
        };
        // ORDERING: release pairs with the acquire in `fault_epoch`. The
        // bump sits after the write-back above and before the slot turns
        // cold, under the parent latch: an install that captured its
        // epoch before this bump sees the mismatch and rejects its frame;
        // one that captured after it necessarily issued its disk read
        // after the write-back and loaded current bytes.
        self.fault_epochs[disk_raw as usize % self.fault_epochs.len()]
            .fetch_add(1, Ordering::Release);
        pnode.set_child(slot, Swip::cold(PageId(disk_raw)).raw());
        drop(pguard);
        // Clear the frame and hand it back. The disk slot now belongs to
        // the cold swip, not to the frame.
        *vguard = Page::Free;
        drop(vguard);
        meta.reset();
        let p = fid as usize / self.frames_per_partition;
        self.partitions[p].free.lock().push(fid);
        Ok(Evict::Freed)
    }

    /// Heat a cooling swip back to hot (second chance). The caller holds
    /// the parent exclusively and passes the child slot.
    pub fn heat_in_parent(pnode: &mut crate::node::InnerNode, slot: usize) {
        let s = Swip::from_raw(pnode.child(slot));
        if matches!(s.state(), SwipState::Cooling(_)) {
            pnode.set_child(slot, s.heated().raw());
        }
    }
}

/// A batch of pre-allocated frames (see [`BufferPool::reserve`]). Unused
/// frames return to the pool on drop.
pub struct FrameReserve {
    pool: Arc<BufferPool>,
    frames: Vec<FrameId>,
}

impl FrameReserve {
    /// Take one reserved frame, or fall back to a live allocation.
    pub fn take(&mut self) -> Result<FrameId> {
        match self.frames.pop() {
            Some(f) => Ok(f),
            None => self.pool.allocate(),
        }
    }

    /// Frames still held.
    pub fn remaining(&self) -> usize {
        self.frames.len()
    }
}

impl Drop for FrameReserve {
    fn drop(&mut self) {
        for f in self.frames.drain(..) {
            self.pool.release(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoebe_common::KernelConfig;

    fn pool(frames: usize, parts: usize) -> Arc<BufferPool> {
        let cfg = KernelConfig::for_tests();
        BufferPool::new(frames, parts, &cfg.data_dir, Arc::new(Metrics::new(parts))).unwrap()
    }

    #[test]
    fn allocate_and_release_cycle() {
        let p = pool(8, 2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_ne!(a, b);
        p.release(a);
        p.release(b);
        assert_eq!(p.free_frames(0) + p.free_frames(1), p.total_frames());
    }

    #[test]
    fn exhaustion_without_evictables_reports_out_of_frames() {
        let p = pool(4, 1);
        let mut held = Vec::new();
        // Occupy every frame with unevictable (parentless) pages.
        loop {
            match p.allocate() {
                Ok(f) => {
                    *p.frame(f).latch.write() = Page::Inner(crate::node::InnerNode::default());
                    held.push(f);
                }
                Err(PhoebeError::OutOfFrames) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(held.len(), p.total_frames());
        for f in held {
            p.release(f);
        }
    }

    #[test]
    fn touch_updates_temperature_metadata() {
        let p = pool(4, 1);
        let f = p.allocate().unwrap();
        p.touch(f);
        p.touch(f);
        assert_eq!(p.frame(f).meta.access_count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn eviction_roundtrips_a_leaf_through_disk() {
        use crate::node::InnerNode;
        use crate::schema::{ColType, Schema, Value};
        use phoebe_common::ids::RowId;

        let p = pool(8, 1);
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let layout = crate::pax::PaxLayout::for_schema(&schema);

        // Build a tiny parent -> leaf structure by hand.
        let parent = p.allocate().unwrap();
        let leaf = p.allocate().unwrap();
        {
            let mut lg = p.frame(leaf).latch.write();
            let mut pax = crate::pax::PaxLeaf::new();
            pax.append(&layout, RowId(1), &[Value::I64(42)]);
            *lg = Page::TableLeaf(pax);
        }
        {
            let mut pg = p.frame(parent).latch.write();
            let mut inner = InnerNode::default();
            inner.set_child(0, Swip::hot(leaf).raw());
            *pg = Page::Inner(inner);
        }
        p.frame(leaf).meta.parent.store(parent, Ordering::Relaxed);
        p.frame(leaf).meta.dirty.store(true, Ordering::Relaxed);

        // Stage + evict.
        p.stage_cooling(0);
        assert!(p.evict_one(0).unwrap(), "must evict the leaf");
        let cold = {
            let g = p.frame(parent).latch.read();
            let Page::Inner(n) = &*g else { panic!("parent gone") };
            match Swip::from_raw(n.child(0)).state() {
                SwipState::Cold(pid) => pid,
                s => panic!("expected cold swip, got {s:?}"),
            }
        };

        // Load it back and verify content.
        let back = p.load_cold(cold, parent).unwrap();
        let g = p.frame(back).latch.read();
        let Page::TableLeaf(l) = &*g else { panic!("expected leaf") };
        assert_eq!(l.find(RowId(1)), Some(0));
        assert_eq!(l.read_col(&layout, 0, 0), Value::I64(42));
        let (reads, writes) = p.io_counts();
        assert_eq!((reads, writes), (1, 1));
    }

    #[test]
    fn reuse_epoch_bumps_when_a_frame_is_recycled() {
        let p = pool(8, 2);
        let f = p.allocate().unwrap();
        let e0 = p.frame(f).meta.reuse_epoch();
        p.release(f);
        assert!(p.frame(f).meta.reuse_epoch() > e0, "release must bump the reuse epoch");
    }

    /// Dropping an unconsumed fault ticket (batch abandoned mid-fault) must
    /// hand the frame back *without* freeing its disk PageId: the parent's
    /// child slot still holds a cold swip referencing it. A freed slot
    /// would be reallocated for the next evicted page and the cold swip
    /// would then resolve to unrelated bytes.
    #[test]
    fn abandoned_fault_ticket_keeps_disk_slot_reserved() {
        use crate::fault_service::FaultTicket;
        use crate::node::InnerNode;
        use crate::schema::{ColType, Schema, Value};
        use phoebe_common::ids::RowId;

        let p = pool(16, 1);
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let layout = crate::pax::PaxLayout::for_schema(&schema);
        let make = |val: i64| {
            let parent = p.allocate().unwrap();
            let leaf = p.allocate().unwrap();
            {
                let mut lg = p.frame(leaf).latch.write();
                let mut pax = crate::pax::PaxLeaf::new();
                pax.append(&layout, RowId(1), &[Value::I64(val)]);
                *lg = Page::TableLeaf(pax);
            }
            {
                let mut pg = p.frame(parent).latch.write();
                let mut inner = InnerNode::default();
                inner.set_child(0, Swip::hot(leaf).raw());
                *pg = Page::Inner(inner);
            }
            p.frame(leaf).meta.parent.store(parent, Ordering::Relaxed);
            p.frame(leaf).meta.dirty.store(true, Ordering::Relaxed);
            parent
        };
        let cold_child = |parent: FrameId| {
            let g = p.frame(parent).latch.read();
            let Page::Inner(n) = &*g else { panic!("parent gone") };
            match Swip::from_raw(n.child(0)).state() {
                SwipState::Cold(pid) => pid,
                s => panic!("expected cold swip, got {s:?}"),
            }
        };

        let parent1 = make(42);
        p.stage_cooling(0);
        assert!(p.evict_one(0).unwrap());
        let pid1 = cold_child(parent1);

        // A background loader completes the fault, but the batch abandons
        // the descent: the ticket is dropped unconsumed.
        let free_before = p.free_frames(0);
        let loaded = p.load_cold(pid1, parent1).unwrap();
        let ticket = FaultTicket::new(Arc::downgrade(&p));
        ticket.complete(Ok(loaded));
        drop(ticket);
        assert_eq!(p.free_frames(0), free_before, "frame must come back to the pool");

        // The next page-out must draw a *different* disk slot…
        let parent2 = make(7);
        p.stage_cooling(0);
        assert!(p.evict_one(0).unwrap());
        let pid2 = cold_child(parent2);
        assert_ne!(pid1, pid2, "abandoned fault freed a disk slot that is still cold-referenced");

        // …and the still-cold swip must resolve to the original bytes.
        let back = p.load_cold(pid1, parent1).unwrap();
        let g = p.frame(back).latch.read();
        let Page::TableLeaf(l) = &*g else { panic!("expected leaf") };
        assert_eq!(l.read_col(&layout, 0, 0), Value::I64(42));
    }

    /// An asynchronous fault's frame comes from the requester's home
    /// partition, as a blocking fault's would — not from whichever
    /// partition the loader thread's id happens to hash to.
    #[test]
    fn async_fault_allocates_in_the_requesters_partition() {
        use crate::node::InnerNode;

        let p = pool(32, 2);
        // A cold leaf under a resident parent, both first placed in `part`.
        let cold_leaf = |part: usize| {
            let parent = p.allocate_in(part).unwrap();
            let leaf = p.allocate_in(part).unwrap();
            *p.frame(leaf).latch.write() = Page::TableLeaf(crate::pax::PaxLeaf::new());
            let mut inner = InnerNode::default();
            inner.set_child(0, Swip::hot(leaf).raw());
            *p.frame(parent).latch.write() = Page::Inner(inner);
            p.frame(leaf).meta.parent.store(parent, Ordering::Relaxed);
            p.frame(leaf).meta.dirty.store(true, Ordering::Relaxed);
            p.stage_cooling(part);
            assert!(p.evict_one(part).unwrap());
            let SwipState::Cold(pid) = child_state(&p, parent, 0) else { panic!("leaf not cold") };
            (parent, pid)
        };
        let pages: Vec<_> = (0..8).map(|i| cold_leaf(i % 2)).collect();
        for part in 0..2 {
            let free = || [p.free_frames(0), p.free_frames(1)];
            // Fault from a thread whose home partition is `part`; thread
            // ids hash at random, so a few tries find one.
            let (before, after) = loop {
                let run = std::thread::scope(|s| {
                    s.spawn(|| {
                        if p.home_partition() != part {
                            return None;
                        }
                        let before = free();
                        let tickets: Vec<_> =
                            pages.iter().map(|&(parent, pid)| p.start_fault(pid, parent)).collect();
                        while !tickets.iter().all(|t| t.is_done()) {
                            std::thread::yield_now();
                        }
                        Some((before, free()))
                    })
                    .join()
                    .unwrap()
                });
                if let Some(run) = run {
                    break run;
                }
            };
            assert_eq!(after[part], before[part] - pages.len(), "home partition {part}");
            assert_eq!(after[1 - part], before[1 - part], "home partition {part}: foreign frames");
        }
    }

    /// A cooling candidate that loses its eviction attempt to a latch
    /// race must return to the cooling queue: its swip is no longer Hot,
    /// so `stage_cooling` can never find it again — dropping it would
    /// leave the frame permanently unevictable, and a batch fault storm
    /// generates enough latch churn to strand a whole partition that way.
    #[test]
    fn contended_cooling_candidate_is_requeued_not_stranded() {
        use crate::node::InnerNode;
        use crate::schema::{ColType, Schema, Value};
        use phoebe_common::ids::RowId;

        let p = pool(8, 1);
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let layout = crate::pax::PaxLayout::for_schema(&schema);
        let parent = p.allocate().unwrap();
        let leaf = p.allocate().unwrap();
        {
            let mut lg = p.frame(leaf).latch.write();
            let mut pax = crate::pax::PaxLeaf::new();
            pax.append(&layout, RowId(1), &[Value::I64(42)]);
            *lg = Page::TableLeaf(pax);
        }
        {
            let mut pg = p.frame(parent).latch.write();
            let mut inner = InnerNode::default();
            inner.set_child(0, Swip::hot(leaf).raw());
            *pg = Page::Inner(inner);
        }
        p.frame(leaf).meta.parent.store(parent, Ordering::Relaxed);

        p.stage_cooling(0);
        {
            let _hold = p.frame(leaf).latch.write();
            assert!(!p.evict_one(0).unwrap(), "eviction must back off from a latched victim");
        }
        assert!(p.evict_one(0).unwrap(), "candidate lost to a latch race must stay evictable");
    }

    /// A parent with `n` dirty, empty table leaves as its hot children.
    /// Frames come off the free list highest first, so the leaves are
    /// returned in descending frame order — the clock stages the *last*
    /// one first.
    fn parent_with_dirty_leaves(p: &BufferPool, n: usize) -> (FrameId, Vec<FrameId>) {
        let parent = p.allocate().unwrap();
        let mut inner = crate::node::InnerNode::default();
        let leaves: Vec<FrameId> = (0..n)
            .map(|i| {
                let leaf = p.allocate().unwrap();
                *p.frame(leaf).latch.write() = Page::TableLeaf(crate::pax::PaxLeaf::new());
                p.frame(leaf).meta.parent.store(parent, Ordering::Relaxed);
                p.frame(leaf).meta.dirty.store(true, Ordering::Relaxed);
                let raw = Swip::hot(leaf).raw();
                match i {
                    0 => inner.set_child(0, raw),
                    _ => inner.insert_separator(i - 1, &(i as u64).to_be_bytes(), raw).unwrap(),
                }
                leaf
            })
            .collect();
        *p.frame(parent).latch.write() = Page::Inner(inner);
        (parent, leaves)
    }

    fn child_state(p: &BufferPool, parent: FrameId, slot: usize) -> SwipState {
        let g = p.frame(parent).latch.read();
        let Page::Inner(n) = &*g else { panic!("parent gone") };
        Swip::from_raw(n.child(slot)).state()
    }

    /// A log that is durable up to a horizon the test moves and counts
    /// the nudges it gets. Sleeping on it (which catches the horizon up)
    /// is a test failure unless `may_wait`.
    struct StubLog {
        durable: AtomicU64,
        rings: AtomicU64,
        may_wait: bool,
    }

    impl StubLog {
        fn durable_to(gsn: u64, may_wait: bool) -> Arc<StubLog> {
            Arc::new(StubLog { durable: AtomicU64::new(gsn), rings: AtomicU64::new(0), may_wait })
        }
    }

    impl WalBarrier for StubLog {
        fn try_ensure_durable(&self, gsn: u64) -> bool {
            let durable = self.durable.load(Ordering::Relaxed) >= gsn;
            if !durable {
                self.rings.fetch_add(1, Ordering::Relaxed);
            }
            durable
        }
        fn ensure_durable(&self, gsn: u64) {
            assert!(self.may_wait, "evict_one must not wait for the log");
            self.durable.fetch_max(gsn, Ordering::Relaxed);
        }
    }

    /// Steal (§8) without the sleep: a dirty page whose log is not durable
    /// is neither written nor waited for — eviction takes the next
    /// candidate, nudges the flusher once, and comes back for the page
    /// when the horizon has passed it.
    #[test]
    fn eviction_skips_a_page_whose_log_is_not_durable() {
        let p = pool(8, 1);
        let log = StubLog::durable_to(5, false);
        p.set_wal_barrier(log.clone());
        let (parent, leaves) = parent_with_dirty_leaves(&p, 2);
        // The clock reaches `leaves[1]` first: make it the one ahead of
        // the log, so the pass has to step over it.
        let (ahead, durable) = (leaves[1], leaves[0]);
        p.frame(ahead).meta.page_gsn.store(9, Ordering::Relaxed);
        p.frame(durable).meta.page_gsn.store(5, Ordering::Relaxed);

        p.stage_cooling(0);
        assert!(p.evict_one(0).unwrap(), "the durable leaf must go");
        assert!(matches!(child_state(&p, parent, 0), SwipState::Cold(_)));
        assert_eq!(child_state(&p, parent, 1), SwipState::Cooling(ahead), "still staged");
        assert_eq!(log.rings.load(Ordering::Relaxed), 1, "one nudge for the one page passed over");
        assert_eq!(p.io_counts().1, 1, "no image may reach disk ahead of its log");
        assert!(p.frame(ahead).meta.dirty.load(Ordering::Relaxed));

        // Still not durable: nothing to evict, nothing written.
        assert!(!p.evict_one(0).unwrap());
        assert_eq!(p.io_counts().1, 1);

        log.durable.store(9, Ordering::Relaxed);
        assert!(p.evict_one(0).unwrap(), "re-queued page goes once its log is durable");
        assert!(matches!(child_state(&p, parent, 1), SwipState::Cold(_)));
        assert_eq!(p.io_counts().1, 2);
        assert_eq!(log.rings.load(Ordering::Relaxed), 2, "one per pass that found it not durable");
    }

    /// Only an allocation that has nothing else left sleeps for the log,
    /// and the page it was waiting on is then evicted the ordinary way.
    #[test]
    fn allocate_waits_for_the_log_as_a_last_resort() {
        let p = pool(4, 1);
        let log = StubLog::durable_to(5, true);
        p.set_wal_barrier(log.clone());
        let (_parent, leaves) = parent_with_dirty_leaves(&p, 3);
        for &leaf in &leaves {
            p.frame(leaf).meta.page_gsn.store(9, Ordering::Relaxed);
        }
        assert_eq!(p.free_frames(0), 0);
        let got = p.allocate().expect("the log catches up, a leaf is evicted");
        assert!(leaves.contains(&got));
        assert_eq!(log.durable.load(Ordering::Relaxed), 9, "allocate slept for the round");
        assert_eq!(p.io_counts().1, 1);
    }

    /// The write-back needs only the victim: a busy parent delays the
    /// unswizzle, not the I/O, and the retry finds the page clean.
    #[test]
    fn write_back_does_not_need_the_parent_latch() {
        let p = pool(8, 1);
        let (parent, leaves) = parent_with_dirty_leaves(&p, 1);
        p.stage_cooling(0);
        {
            let _reader = p.frame(parent).latch.read();
            assert!(!p.evict_one(0).unwrap(), "a latched parent keeps its child resident");
            assert_eq!(p.io_counts().1, 1, "but the image is already on disk");
            assert!(!p.frame(leaves[0]).meta.dirty.load(Ordering::Relaxed));
        }
        assert_eq!(child_state(&p, parent, 0), SwipState::Cooling(leaves[0]));
        assert!(p.evict_one(0).unwrap(), "evicted once the parent is free");
        assert!(matches!(child_state(&p, parent, 0), SwipState::Cold(_)));
        assert_eq!(p.io_counts().1, 1, "clean page: no second write");
    }

    /// Heat-and-restage cycles must not pile up queue entries: the stale
    /// entry a heated candidate leaves behind stands for the frame when
    /// the clock stages it again.
    #[test]
    fn cooling_queue_holds_a_frame_at_most_once() {
        let p = pool(8, 1);
        let (parent, leaves) = parent_with_dirty_leaves(&p, 2);
        for _ in 0..100 {
            p.stage_cooling(0);
            let mut pg = p.frame(parent).latch.write();
            let Page::Inner(n) = &mut *pg else { unreachable!() };
            BufferPool::heat_in_parent(n, 0);
            BufferPool::heat_in_parent(n, 1);
        }
        assert_eq!(p.partitions[0].cooling.lock().fifo.len(), leaves.len());
        // Both entries are stale (heated): a pass drops them.
        assert!(!p.evict_one(0).unwrap());
        assert!(p.partitions[0].cooling.lock().fifo.is_empty());
        // And the frames are stageable and evictable again.
        p.stage_cooling(0);
        assert!(p.evict_one(0).unwrap());
    }

    /// A full cooling stage is left alone: no clock step, no probe, no
    /// parent latch. One eviction later the stage takes one frame more.
    #[test]
    fn stage_cooling_stops_at_the_stage_target() {
        let p = pool(16, 1);
        let (parent, leaves) = parent_with_dirty_leaves(&p, COOLING_FLOOR + 1);
        let hot = |p: &BufferPool| {
            (0..leaves.len())
                .filter(|&i| matches!(child_state(p, parent, i), SwipState::Hot(_)))
                .count()
        };
        p.stage_cooling(0);
        assert_eq!(p.partitions[0].cooling.lock().fifo.len(), COOLING_FLOOR);
        assert_eq!(hot(&p), 1);

        let clock = p.partitions[0].clock.load(Ordering::Relaxed);
        let version = p.frame(parent).latch.optimistic_version();
        p.stage_cooling(0);
        assert_eq!(p.partitions[0].clock.load(Ordering::Relaxed), clock, "the clock moved");
        assert_eq!(p.frame(parent).latch.optimistic_version(), version, "a parent was latched");
        assert_eq!(hot(&p), 1, "a full stage staged more");

        assert!(p.evict_one(0).unwrap());
        p.stage_cooling(0);
        assert_eq!(p.partitions[0].cooling.lock().fifo.len(), COOLING_FLOOR);
        assert_eq!(hot(&p), 0);
    }

    /// Probing a frame that is already Cooling reads its parent and
    /// leaves it: a write latch there would bump the version every
    /// optimistic reader of that parent validates against.
    #[test]
    fn staging_never_write_latches_a_parent_it_does_not_change() {
        let p = pool(8, 1);
        let (parent, leaves) = parent_with_dirty_leaves(&p, 1);
        p.stage_cooling(0);
        assert_eq!(child_state(&p, parent, 0), SwipState::Cooling(leaves[0]));
        let version = p.frame(parent).latch.optimistic_version();
        // The stage is below its target, so this pass probes every frame.
        p.stage_cooling(0);
        assert_eq!(p.frame(parent).latch.optimistic_version(), version);
        assert_eq!(child_state(&p, parent, 0), SwipState::Cooling(leaves[0]));
    }

    #[test]
    fn heated_swips_survive_eviction_attempts() {
        use crate::node::InnerNode;
        let p = pool(8, 1);
        let parent = p.allocate().unwrap();
        let leaf = p.allocate().unwrap();
        {
            let mut lg = p.frame(leaf).latch.write();
            *lg = Page::TableLeaf(crate::pax::PaxLeaf::new());
        }
        {
            let mut pg = p.frame(parent).latch.write();
            let mut inner = InnerNode::default();
            inner.set_child(0, Swip::hot(leaf).raw());
            *pg = Page::Inner(inner);
        }
        p.frame(leaf).meta.parent.store(parent, Ordering::Relaxed);

        p.stage_cooling(0);
        // Simulate an access heating the swip before eviction runs.
        {
            let mut pg = p.frame(parent).latch.write();
            let Page::Inner(n) = &mut *pg else { unreachable!() };
            BufferPool::heat_in_parent(n, 0);
        }
        assert!(!p.evict_one(0).unwrap(), "heated page must not be evicted");
        let g = p.frame(parent).latch.read();
        let Page::Inner(n) = &*g else { unreachable!() };
        assert_eq!(Swip::from_raw(n.child(0)).state(), SwipState::Hot(leaf));
    }
}
