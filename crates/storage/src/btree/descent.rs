//! Optimistic descent (§7.2): one hop, two ways to drive it.
//!
//! [`DescentCursor::hop`] is the only code that follows a swip downwards
//! without holding its parent: it owns the swip-state decision, the leaf
//! latch, every validation and the rescue that follows a failed one. It
//! never waits, sleeps or reads the disk; it reports what it met and a
//! *drive policy* — the one loop, [`DescentCursor::drive`], told whether
//! it may suspend — decides what that costs:
//!
//! * [`DescentCursor::run`] — the blocking policy behind every
//!   single-key operation: hops back to back, a cold child is read
//!   inline, a conflict waits for the writer and restarts.
//! * [`DescentCursor::step`] — the suspending policy behind interleaved
//!   batches (§7.1): after each hop it prefetches the child and hands the
//!   CPU to a sibling descent, a cold child goes to the background loader.
//!
//! What every descent relies on, whichever policy drives it:
//!
//! * **fault epoch before read** — the page's fault epoch is captured
//!   before its disk read is issued and re-checked by the install, so
//!   bytes read before an install → modify → evict cycle of the same
//!   PageId never overwrite that cycle's writes;
//! * **reuse epoch before optimistic read** — a node's frame reuse epoch
//!   is captured before the validated read that makes it the parent, so
//!   an unchanged epoch later proves the frame still holds that node;
//! * **no latch held across a suspend** — between hops the cursor holds
//!   plain values only (swip, level, parent frame id and stamps); guards
//!   are locals of one hop, and the leaf guard leaves inside the
//!   [`LatchedLeaf`], at which point the descent is over;
//! * **no sleep or I/O under a parent write latch** — a write-latched
//!   inner node fails every optimistic read through it, so reads and
//!   allocation happen with nothing held and the install holds the parent
//!   for a slot scan and one store.

use super::leaf::LatchedLeaf;
use super::BTree;
use crate::buffer::BufferPool;
use crate::fault_service::FaultTicket;
use crate::latch::{HybridLatch, LatchVersion};
use crate::node::Page;
use crate::smallkey::SmallKey;
use crate::swip::{FrameId, Swip, SwipState};
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::PageId;
use phoebe_common::metrics::{Component, Counter};
use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy)]
pub(super) enum ParentRef {
    Meta,
    Node(FrameId),
}

impl BTree {
    /// Swizzle-install half of a cold-page fault: swing the parent's child
    /// slot from `cold` to the freshly loaded `fid`, or discard the
    /// duplicate if a racing loader won. The exact cold swip value
    /// identifies the slot thanks to the single-parent invariant.
    /// `fault_epoch` is the page's [`BufferPool::fault_epoch`] captured
    /// before the disk read was issued; if it has moved, the page was
    /// installed, possibly modified, and evicted again while the fault was
    /// in flight, so `fid` holds bytes read before those committed writes —
    /// installing it over the (byte-identical) cold swip would silently
    /// lose them. The stale frame is discarded like a lost race.
    ///
    /// On success, returns the parent's post-install version and its
    /// reuse epoch (read under the latch) so the descent can re-arm right
    /// at the parent instead of re-descending from the root; `None` means
    /// the caller must restart to re-route (the slot stays cold in the
    /// stale-epoch case, so the restart re-faults and reads current
    /// bytes).
    pub(super) fn install_loaded(
        &self,
        pfid: FrameId,
        cold: Swip,
        fid: FrameId,
        fault_epoch: u64,
    ) -> Option<(LatchVersion, u64)> {
        let SwipState::Cold(pid) = cold.state() else {
            unreachable!("install_loaded takes the cold swip being replaced")
        };
        let parent = self.pool.frame(pfid);
        let mut pguard = parent.latch.write();
        if self.pool.fault_epoch(pid) == fault_epoch {
            if let Page::Inner(pnode) = &mut *pguard {
                if let Some(slot) = pnode.find_child_slot(cold.raw()) {
                    pnode.set_child(slot, Swip::hot(fid).raw());
                    parent.meta.dirty.store(true, Ordering::Relaxed);
                    // Under the write latch the frame cannot be recycled,
                    // so this epoch read names the node just installed into.
                    return Some((pguard.version_on_release(), parent.meta.reuse_epoch()));
                }
            }
        }
        drop(pguard);
        // Stale epoch, slot gone (someone else already loaded the page) or
        // parent relocated: drop the copy we loaded; forget its disk slot
        // first so release() does not free a PageId that is still
        // referenced.
        self.pool.frame(fid).meta.disk_page_forget();
        self.pool.release(fid);
        None
    }

    /// Best-effort Cooling → Hot promotion through the parent.
    fn heat(&self, pfid: FrameId, fid: FrameId) {
        if let Some(mut pguard) = self.pool.frame(pfid).latch.try_write() {
            if let Page::Inner(pnode) = &mut *pguard {
                if let Some(slot) = pnode.find_child_slot(Swip::cooling(fid).raw()) {
                    BufferPool::heat_in_parent(pnode, slot);
                }
            }
        }
    }

    /// One descent restart: the counter and the wasted-work histogram are
    /// two views of the same event and must stay in lockstep (asserted by
    /// `restart_counter_matches_restart_latency_samples`). The next attempt
    /// starts where the probe finished — one clock read per restart.
    fn note_restart(&self, attempt: &mut Instant) {
        self.metrics.incr(Counter::LatchRestarts);
        *attempt = self.metrics.probe_since(LatencySite::BtreeRestart, 0, 0, *attempt).finish();
    }

    /// A descent for `key`, not yet started. `write` selects the leaf
    /// latch mode. `want_fence` makes it carry the *next separator* down
    /// the path: the tightest upper bound on the leaf's key range, which
    /// is exactly the first key of the next leaf — the resume point for
    /// range scans. Point operations leave it off, so their hops never
    /// copy separator bytes; scans get it in a [`SmallKey`] that keeps
    /// short separators (every table key, most index prefixes) on the
    /// stack.
    pub(super) fn cursor<K: Deref<Target = [u8]>>(
        &self,
        key: K,
        write: bool,
        want_fence: bool,
    ) -> DescentCursor<'_, K> {
        DescentCursor {
            tree: self,
            key,
            write,
            want_fence,
            fence: None,
            state: CursorState::Start,
            parent: ParentRef::Meta,
            parent_ver: LatchVersion::default(),
            parent_epoch: 0,
            cur: Swip::NULL,
            level: 0,
            attempt: Instant::now(),
        }
    }
}

/// Spin, bounded, until no writer holds `latch`. A blocking descent that
/// found an on-path node write-latched calls this before it restarts, so
/// one conflict is one restart rather than one per spin iteration. Node
/// critical sections are in-memory and short; the bound only keeps a
/// descheduled writer from pinning this thread in here — past it the
/// caller restarts (counted) and comes back.
fn wait_unlatched(latch: &HybridLatch<Page>) {
    for _ in 0..2_000 {
        if latch.optimistic_version().is_some() {
            return;
        }
        std::hint::spin_loop();
    }
}

/// Where a descent currently stands.
enum CursorState {
    /// Not yet started, or restarting after optimistic validation failed.
    Start,
    /// Mid-descent: `cur`/`level`/`parent` identify the next hop.
    Hop,
    /// Suspended on a cold-page read running in the background loader.
    /// `epoch` is the page's fault epoch captured before the read was
    /// kicked, re-checked by the install (PageId ABA guard).
    Fault { ticket: Arc<FaultTicket>, pfid: FrameId, epoch: u64 },
    /// The leaf was delivered; the cursor is spent.
    Done,
}

/// What one [`DescentCursor::hop`] met.
enum Hop<'t> {
    /// Arrived: the responsible leaf, latched and validated.
    Leaf(LatchedLeaf<'t>),
    /// Moved one level down; the cursor's swip now names the child.
    Descended,
    /// The cursor's swip is cold: page `pid` under parent `pfid` must be
    /// loaded and installed before the hop can be made.
    Cold { pid: PageId, pfid: FrameId },
    /// A writer interfered and the path can no longer be trusted. `busy`
    /// names the node found write-latched, if that is what happened —
    /// re-running the descent while the writer is still in would fail at
    /// the same node again.
    Conflict { busy: Option<FrameId> },
}

/// One descent to the leaf responsible for `key` (see
/// [`BTree::batch_cursor`] for the resumable use).
///
/// `K` is how the key is held: the blocking driver borrows the caller's
/// slice for the duration of the call, a batch cursor owns a copy because
/// it outlives the call that made it.
pub struct DescentCursor<'t, K = SmallKey> {
    tree: &'t BTree,
    key: K,
    write: bool,
    want_fence: bool,
    /// Tightest separator above `key` seen on the current path.
    fence: Option<SmallKey>,
    state: CursorState,
    pub(super) parent: ParentRef,
    parent_ver: LatchVersion,
    /// The parent frame's [`crate::buffer::FrameMeta::reuse_epoch`],
    /// captured while the hop into it was validated.
    /// [`DescentCursor::parent_routes_to`] compares it before trusting a
    /// slot re-read: the parent frame may have been evicted and recycled
    /// as an unrelated node since, which would still "route" any key
    /// somewhere because `child_index` clamps. Meaningless while `parent`
    /// is `Meta`.
    pub(super) parent_epoch: u64,
    cur: Swip,
    level: u32,
    /// Start of the current attempt, for the restart wasted-work histogram.
    attempt: Instant,
}

/// Outcome of one [`DescentCursor::step`] call.
pub enum DescentStep<'t> {
    /// Descent finished: the responsible leaf, latched per the cursor's
    /// `write` mode. The cursor must not be stepped again.
    Leaf(LatchedLeaf<'t>),
    /// Made a hop and issued a software prefetch for the next node (or
    /// backed off a contended latch): run a sibling, then step again —
    /// the line will have arrived by the time the round-robin returns.
    Prefetched,
    /// Waiting on the background loader: this cursor's cold-page read is
    /// in flight, or the pool's fault budget is spent and it could not
    /// kick one. Stepping again is a cheap poll, but the caller should
    /// prefer siblings; when only such cursors are left it should park
    /// on them ([`DescentCursor::register_fault_waker`]).
    FaultPending,
}

impl<'t, K: Deref<Target = [u8]>> DescentCursor<'t, K> {
    /// The blocking drive policy: run the descent to its leaf on this
    /// thread, waiting out whatever is in the way. A cold child is read
    /// inline and the descent resumes mid-path; a conflict is one counted
    /// restart, taken once the writer that caused it is out. Returns the
    /// latched leaf and, when `want_fence`, the next separator (`None` on
    /// the rightmost leaf).
    pub(super) fn run(mut self) -> Result<(LatchedLeaf<'t>, Option<SmallKey>)> {
        // Figure 12's "latching" component: traversal latch work.
        let _t = self.tree.metrics.timer_since(Component::Latch, self.attempt);
        match self.drive(false)? {
            DescentStep::Leaf(leaf) => Ok((leaf, self.fence.take())),
            _ => unreachable!("the blocking policy stops at the leaf only"),
        }
    }

    /// The suspending drive policy: advance the descent as far as it can
    /// go without waiting, then report why it stopped. After a hop it
    /// prefetches the child and returns, so a batch of cursors stepped
    /// round-robin overlap each other's cache misses; a cold child is
    /// kicked to the background loader, overlapping the disk reads too.
    /// A conflict restarts from the root like the blocking policy's, but
    /// returns `Prefetched` first so sibling descents get the CPU while
    /// it drains.
    pub fn step(&mut self) -> Result<DescentStep<'t>> {
        // No per-step component timer: a batch makes height+1 short steps
        // per key and two clock reads each would dominate the hop itself.
        // Batch descent cost is visible under the `batch_get` latency site.
        self.drive(true)
    }

    /// The one loop both policies run: hop, and pay for what the hop met
    /// by suspending (`suspend`) or by waiting here.
    fn drive(&mut self, suspend: bool) -> Result<DescentStep<'t>> {
        let tree = self.tree;
        loop {
            match &self.state {
                CursorState::Done => {
                    return Err(PhoebeError::internal("step on a finished descent cursor"))
                }
                CursorState::Start => {
                    // Meta write-latched (root split in flight): back off
                    // to a sibling, or spin.
                    if !self.begin() {
                        if suspend {
                            return Ok(DescentStep::Prefetched);
                        }
                        std::hint::spin_loop();
                    }
                }
                CursorState::Hop => match self.hop()? {
                    Hop::Leaf(leaf) => {
                        self.state = CursorState::Done;
                        return Ok(DescentStep::Leaf(leaf));
                    }
                    Hop::Descended if suspend => {
                        // Pull the child frame's header and first node
                        // lines toward L1, then suspend: a sibling descent
                        // runs while the lines arrive, hiding the stall
                        // (§7.1). A cold child has nothing to prefetch on
                        // the way to a disk read — loop, so this same step
                        // kicks the fault (one suspend, not two).
                        if let Some(child) = self.cur.frame() {
                            phoebe_common::prefetch_read_span(tree.pool.frame(child), 4);
                            tree.metrics.incr(Counter::PrefetchesIssued);
                            return Ok(DescentStep::Prefetched);
                        }
                    }
                    Hop::Descended => {}
                    Hop::Cold { pid, pfid } if suspend => {
                        // Over the in-flight fault budget: back off to the
                        // siblings instead of kicking yet another
                        // frame-holding load. The state stays `Hop`, so the
                        // next step re-checks the budget — it frees as
                        // sibling faults install, and a batch left with
                        // nothing else to do waits for exactly those
                        // installs, hence `FaultPending`.
                        if tree.pool.fault_budget_available() {
                            let epoch = tree.pool.fault_epoch(pid);
                            let ticket = tree.pool.start_fault(pid, pfid);
                            tree.metrics.incr(Counter::FaultSuspends);
                            self.state = CursorState::Fault { ticket, pfid, epoch };
                        }
                        return Ok(DescentStep::FaultPending);
                    }
                    Hop::Cold { pid, pfid } => {
                        let epoch = tree.pool.fault_epoch(pid);
                        let fid = tree.pool.load_cold(pid, pfid)?;
                        self.resume_loaded(pfid, fid, epoch);
                    }
                    Hop::Conflict { busy } => {
                        self.restart();
                        if suspend {
                            return Ok(DescentStep::Prefetched);
                        }
                        if let Some(fid) = busy {
                            wait_unlatched(&tree.pool.frame(fid).latch);
                        }
                    }
                },
                CursorState::Fault { ticket, pfid, epoch } => {
                    if !ticket.is_done() {
                        return Ok(DescentStep::FaultPending);
                    }
                    let (pfid, epoch) = (*pfid, *epoch);
                    match ticket.take().expect("completed fault has a result") {
                        Ok(fid) => self.resume_loaded(pfid, fid, epoch),
                        // The loader could not allocate: a wide batch can
                        // have more faults in flight than the pool has
                        // frames (loaded-but-uninstalled frames are
                        // parentless, so eviction cannot reclaim them).
                        // That is backpressure, not failure — back off to
                        // the siblings; their installs put pages back under
                        // parents, where the retry's allocate can evict.
                        Err(PhoebeError::OutOfFrames) => {
                            self.restart();
                            return Ok(DescentStep::Prefetched);
                        }
                        Err(e) => {
                            self.state = CursorState::Start;
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// If this cursor is suspended on a read of its own, leave `waker`
    /// with the ticket and report whether the read has finished by now
    /// ([`FaultTicket::register_waker`]: `false` promises a wake).
    /// `None`: nothing of this cursor's is in flight.
    pub fn register_fault_waker(&self, waker: &std::task::Waker) -> Option<bool> {
        match &self.state {
            CursorState::Fault { ticket, .. } => Some(ticket.register_waker(waker)),
            _ => None,
        }
    }

    /// Open an attempt: the root swip and height, stamped with the meta
    /// latch's version. `false`: a root split holds the meta latch.
    fn begin(&mut self) -> bool {
        let Some(((root, height), meta_ver)) =
            self.tree.meta.optimistic_versioned(|m| (m.root, m.height))
        else {
            return false;
        };
        self.parent = ParentRef::Meta;
        self.parent_ver = meta_ver;
        self.parent_epoch = 0;
        self.cur = root;
        self.level = height;
        self.fence = None;
        self.state = CursorState::Hop;
        true
    }

    /// Abandon the attempt (counted) and start over from the root.
    fn restart(&mut self) {
        self.tree.note_restart(&mut self.attempt);
        self.state = CursorState::Start;
    }

    /// The page behind the cold swip `self.cur` was read into `fid`:
    /// install it under parent `pfid` and resume mid-path — the child is
    /// hot in the slot just written and the parent stamp is the install's
    /// own release version, so there is no root re-descent through
    /// parents the page-swap duty is churning. A lost install race
    /// re-routes from the root (uncounted: nothing was invalidated).
    fn resume_loaded(&mut self, pfid: FrameId, fid: FrameId, fault_epoch: u64) {
        match self.tree.install_loaded(pfid, self.cur, fid, fault_epoch) {
            Some((rearm, pepoch)) => {
                self.parent = ParentRef::Node(pfid);
                self.parent_ver = rearm;
                self.parent_epoch = pepoch;
                self.cur = Swip::hot(fid);
                self.state = CursorState::Hop;
            }
            None => self.state = CursorState::Start,
        }
    }

    /// One level of optimistic lock coupling: follow `self.cur`, validate
    /// the parent it was read from, and either latch the leaf or read the
    /// next child slot. Waits for nothing.
    fn hop(&mut self) -> Result<Hop<'t>> {
        let tree = self.tree;
        let fid = match self.cur.state() {
            SwipState::Hot(f) => f,
            SwipState::Cooling(f) => {
                // Second chance: heat through the parent, best effort.
                if let ParentRef::Node(pfid) = self.parent {
                    tree.heat(pfid, f);
                }
                f
            }
            SwipState::Cold(pid) => {
                let ParentRef::Node(pfid) = self.parent else {
                    return Err(PhoebeError::internal("root swip went cold"));
                };
                return Ok(Hop::Cold { pid, pfid });
            }
        };
        if self.level == 1 {
            let leaf = LatchedLeaf::latch(tree, fid, self.write);
            // Version stamp first (cheap). We hold the leaf latch, so if
            // the parent routes this key here *right now*, this is the
            // right leaf no matter how often the stamp was bumped since.
            return Ok(if self.parent_unchanged() || self.rescued(fid) {
                Hop::Leaf(leaf)
            } else {
                Hop::Conflict { busy: None }
            });
        }
        // Inner hop: read the child slot optimistically. The reuse epoch
        // is captured *before* the read: if it still matches at a later
        // `parent_routes_to` check, no recycle happened in between, so
        // the frame still holds the node this validated read saw.
        let frame = tree.pool.frame(fid);
        let fid_epoch = frame.meta.reuse_epoch();
        let (key, want_fence) = (&*self.key, self.want_fence);
        let Some((read, ver)) = frame.latch.optimistic_versioned(|p| match p {
            Page::Inner(n) => {
                let i = n.child_index(key);
                let sep = (want_fence && i < n.len()).then(|| n.key(i));
                Some((n.child(i), sep))
            }
            _ => None,
        }) else {
            return Ok(Hop::Conflict { busy: Some(fid) });
        };
        // Same slow-path revalidation as the leaf, with one extra check:
        // no latch is held here, so the child slot just read is only
        // trustworthy if this frame's own version is also unchanged.
        if !(self.parent_unchanged() || (self.rescued(fid) && frame.latch.validate(ver))) {
            return Ok(Hop::Conflict { busy: None });
        }
        let Some((child_raw, sep)) = read else {
            // Frame was repurposed under us.
            return Ok(Hop::Conflict { busy: None });
        };
        if sep.is_some() {
            self.fence = sep;
        }
        self.parent = ParentRef::Node(fid);
        self.parent_ver = ver;
        self.parent_epoch = fid_epoch;
        self.cur = Swip::from_raw(child_raw);
        self.level -= 1;
        Ok(Hop::Descended)
    }

    /// Has nobody write-latched the parent since `self.cur` was read?
    fn parent_unchanged(&self) -> bool {
        match self.parent {
            ParentRef::Meta => self.tree.meta.validate(self.parent_ver),
            ParentRef::Node(pfid) => self.tree.pool.frame(pfid).latch.validate(self.parent_ver),
        }
    }

    /// The parent's stamp failed: may the hop to `fid` stand anyway?
    /// Slot-level revalidation — unless a fence is being carried: it
    /// proves the routing, not that the separators captured on the way
    /// are still the tightest (the child may have split since), and a
    /// stale fence would make a scan skip the new sibling.
    fn rescued(&self, fid: FrameId) -> bool {
        !self.want_fence && self.parent_routes_to(fid)
    }

    /// Does the parent *currently* route this cursor's key to `fid`?
    ///
    /// Slot-level revalidation for when the version stamp fails. A
    /// stamp goes stale on *any* write latch of the parent — and under
    /// memory pressure the page-swap duty stages children through parent
    /// write latches constantly, so near the root every suspend window
    /// eats a bump. Most of those writes never touch our slot: re-read it
    /// and accept the descent if the key still routes here.
    ///
    /// The re-read alone is *not* sound against frame recycling:
    /// `InnerNode::child_index` clamps rather than range-checks, so if
    /// the parent frame was evicted and reused as an unrelated inner
    /// node (the pool is shared across trees), it would still route any
    /// key to *some* slot, which could spuriously hold `Hot(fid)` if the
    /// child frame was recycled into that node's subtree too. The
    /// `reuse_epoch` comparison closes this: the epoch was captured at
    /// hop time, while a validated optimistic read proved the frame held
    /// the on-path node, so an unchanged epoch means it still does — and
    /// a same-node parent routes `key` correctly by the fence invariant
    /// (splits move the key's range, and its child reference, out
    /// together). The caller separately guarantees the *child's* content
    /// is current: leaf arrival holds the leaf latch, the inner hop
    /// revalidates the frame's own version.
    pub(super) fn parent_routes_to(&self, fid: FrameId) -> bool {
        let hit = |raw: u64| Swip::from_raw(raw).frame() == Some(fid);
        match self.parent {
            ParentRef::Meta => self.tree.meta.optimistic(|m| m.root.raw()).is_some_and(hit),
            ParentRef::Node(pfid) => {
                let parent = self.tree.pool.frame(pfid);
                let routed = parent
                    .latch
                    .optimistic(|p| match p {
                        Page::Inner(n) => Some(n.child(n.child_index(&self.key))),
                        _ => None,
                    })
                    .flatten()
                    .is_some_and(hit);
                // Epoch after the re-read: a recycle before the read
                // bumps the epoch under a write latch whose release the
                // validated read observed (see FrameMeta::reuse_epoch).
                routed && parent.meta.reuse_epoch() == self.parent_epoch
            }
        }
    }
}
