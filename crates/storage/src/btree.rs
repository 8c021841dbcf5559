//! The swizzling B-Tree (§5.1, §5.3).
//!
//! Each relation is one B-Tree rooted in Main Storage. Table trees are
//! keyed by the monotonically increasing row id (big-endian encoded so byte
//! order equals numeric order); index trees map arbitrary byte keys to row
//! ids. Child references are swips, so a hot traversal never consults a
//! mapping table — the paper's replacement for the global buffer hash map.
//!
//! Concurrency follows the paper's hybrid lock strategy (§7.2): descents
//! use optimistic lock coupling (read versions, validate the parent after
//! each hop, restart on interference); leaf operations take shared or
//! exclusive latches. Structure modifications (splits) run on a pessimistic
//! path that holds the tree-meta latch and crabs exclusive latches with
//! preemptive splitting, so they coexist with optimistic readers simply by
//! bumping versions.
//!
//! Two invariants keep swizzling sound:
//! * **single parent** — every swip value (hot frame id or cold page id)
//!   appears in exactly one child slot, so eviction/loading can relocate a
//!   page by searching the (validated) parent for the exact swip value;
//! * **append-only table leaves** — table splits never move rows, they add
//!   a fresh rightmost leaf; a table leaf's row-id range is immutable,
//!   giving upper layers a stable page identity for twin tables (§6.2).

use crate::buffer::{BufferPool, NO_PARENT};
use crate::latch::{HybridLatch, LatchVersion, ReadGuard, WriteGuard};
use crate::node::{IndexLeaf, InnerNode, Page};
use crate::pax::{PaxLayout, PaxLeaf};
use crate::schema::Value;
use crate::smallkey::SmallKey;
use crate::swip::{FrameId, Swip, SwipState};
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::hist::LatencySite;
use phoebe_common::ids::{RowId, TableId};
use phoebe_common::metrics::{Counter, Metrics};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which leaf kind the tree stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    Table,
    Index,
}

struct TreeMeta {
    root: Swip,
    /// Levels in the tree; 1 ⇒ the root is a leaf.
    height: u32,
}

/// A B-Tree over buffer frames.
pub struct BTree {
    pub table: TableId,
    kind: TreeKind,
    pool: Arc<BufferPool>,
    meta: crate::latch::HybridLatch<TreeMeta>,
    metrics: Arc<Metrics>,
}

/// Encode a row id as a byte-comparable table key.
#[inline]
pub fn row_key(row: RowId) -> [u8; 8] {
    row.raw().to_be_bytes()
}

#[derive(Clone, Copy)]
enum ParentRef {
    Meta,
    Node(FrameId),
}

impl BTree {
    /// Create a tree whose root is a fresh empty leaf.
    pub fn create(
        pool: Arc<BufferPool>,
        table: TableId,
        kind: TreeKind,
        metrics: Arc<Metrics>,
    ) -> Result<Self> {
        let root = pool.allocate()?;
        {
            let mut g = pool.frame(root).latch.write();
            *g = match kind {
                TreeKind::Table => Page::TableLeaf(PaxLeaf::new()),
                TreeKind::Index => Page::IndexLeaf(IndexLeaf::default()),
            };
        }
        pool.frame(root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
        Ok(BTree {
            table,
            kind,
            pool,
            meta: crate::latch::HybridLatch::new(TreeMeta { root: Swip::hot(root), height: 1 }),
            metrics,
        })
    }

    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Current tree height (levels).
    pub fn height(&self) -> u32 {
        self.meta.optimistic_or_shared(3, |m| m.height)
    }

    // ------------------------------------------------------------------
    // Optimistic descent
    // ------------------------------------------------------------------

    fn validate_parent(&self, parent: &ParentRef, ver: LatchVersion) -> bool {
        match parent {
            ParentRef::Meta => self.meta.validate(ver),
            ParentRef::Node(fid) => self.pool.frame(*fid).latch.validate(ver),
        }
    }

    /// Descend to the leaf responsible for `key` and latch it.
    ///
    /// Returns the leaf frame, its guard (shared or exclusive per `WRITE`),
    /// and — only when `FENCE` — the *next separator*: the tightest upper
    /// bound on this leaf's key range seen on the path, which is exactly
    /// the first key of the next leaf, the resume point for range scans.
    /// Point operations pass `FENCE = false` so the hop loop never copies
    /// separator bytes at all; range scans get the fence in a [`SmallKey`]
    /// that keeps short separators (every table key, most index prefixes)
    /// on the stack.
    fn descend<const WRITE: bool, const FENCE: bool>(
        &self,
        key: &[u8],
    ) -> Result<(FrameId, LeafGuard<'_>, Option<SmallKey>)> {
        // Figure 12's "latching" component: traversal latch work.
        let _t = self.metrics.timer(phoebe_common::metrics::Component::Latch);
        // Each restarted attempt's wasted traversal time feeds the
        // btree_restart latency histogram.
        let mut attempt = std::time::Instant::now();
        let restart = |attempt: &mut std::time::Instant| self.note_restart(attempt);
        'restart: loop {
            let Some(((root, height), meta_ver)) =
                self.meta.optimistic_versioned(|m| (m.root, m.height))
            else {
                std::hint::spin_loop();
                continue 'restart;
            };
            let mut parent = ParentRef::Meta;
            let mut parent_ver = meta_ver;
            let mut cur = root;
            let mut level = height;
            let mut next_sep: Option<SmallKey> = None;
            loop {
                let fid = match cur.state() {
                    SwipState::Hot(f) => f,
                    SwipState::Cooling(f) => {
                        // Second chance: heat through the parent, best effort.
                        if let ParentRef::Node(pfid) = parent {
                            self.heat(pfid, f);
                        }
                        f
                    }
                    SwipState::Cold(pid) => {
                        let ParentRef::Node(pfid) = parent else {
                            return Err(PhoebeError::internal("root swip went cold"));
                        };
                        self.fix_cold(pfid, cur, pid)?;
                        continue 'restart;
                    }
                };
                let frame = self.pool.frame(fid);
                if level == 1 {
                    let guard = if WRITE {
                        LeafGuard::Write(frame.latch.write())
                    } else {
                        LeafGuard::Read(frame.latch.read())
                    };
                    if !self.validate_parent(&parent, parent_ver) {
                        drop(guard);
                        restart(&mut attempt);
                        continue 'restart;
                    }
                    return Ok((fid, guard, next_sep));
                }
                // Inner hop: read the child slot optimistically.
                let Some((read, ver)) = frame.latch.optimistic_versioned(|p| match p {
                    Page::Inner(n) => {
                        let i = n.child_index(key);
                        let sep =
                            (FENCE && i < n.count as usize).then(|| SmallKey::from_slice(n.key(i)));
                        Some((n.children[i], sep))
                    }
                    _ => None,
                }) else {
                    // Write-latched (or changed under the read): one
                    // restart, taken once the writer is out — re-running
                    // the descent while it is still in would fail at this
                    // same node again.
                    restart(&mut attempt);
                    wait_unlatched(&frame.latch);
                    continue 'restart;
                };
                if !self.validate_parent(&parent, parent_ver) {
                    restart(&mut attempt);
                    continue 'restart;
                }
                let Some((child_raw, sep)) = read else {
                    // Frame was repurposed under us.
                    restart(&mut attempt);
                    continue 'restart;
                };
                if let Some(s) = sep {
                    next_sep = Some(s);
                }
                parent = ParentRef::Node(fid);
                parent_ver = ver;
                cur = Swip::from_raw(child_raw);
                level -= 1;
            }
        }
    }

    /// Re-swizzle a cold child in (validated) parent `pfid`. The exact cold
    /// swip value identifies the slot thanks to the single-parent invariant.
    ///
    /// The frame allocation and read I/O run *before* the parent latch is
    /// taken (the caller holds nothing here), so eviction — which needs
    /// parent latches — can always make progress.
    fn fix_cold(&self, pfid: FrameId, cold: Swip, pid: phoebe_common::ids::PageId) -> Result<()> {
        // Epoch before the read: install_loaded rejects the frame if the
        // page goes through an install/evict cycle while we read stale
        // bytes (PageId ABA behind a byte-identical cold swip).
        let epoch = self.pool.fault_epoch(pid);
        let fid = self.pool.load_cold(pid, pfid)?;
        // The blocking descent restarts unconditionally after a fault, so
        // the re-arm stamp is only for the batch cursor.
        let _ = self.install_loaded(pfid, cold, fid, epoch);
        Ok(())
    }

    /// Swizzle-install half of a cold-page fault: swing the parent's child
    /// slot from `cold` to the freshly loaded `fid`, or discard the
    /// duplicate if a racing loader won. Shared by the blocking
    /// [`BTree::fix_cold`] path and the asynchronous ticket resume in
    /// [`DescentCursor::step`]. `fault_epoch` is the page's
    /// [`BufferPool::fault_epoch`] captured before the disk read was
    /// issued; if it has moved, the page was installed, possibly
    /// modified, and evicted again while the fault was in flight, so
    /// `fid` holds bytes read before those committed writes — installing
    /// it over the (byte-identical) cold swip would silently lose them.
    /// The stale frame is discarded like a lost race.
    ///
    /// On success, returns the parent's post-install version and its
    /// reuse epoch (read under the latch) so a suspended cursor can
    /// re-arm its optimistic descent right at the parent instead of
    /// re-descending from the root; `None` means the caller must restart
    /// to re-route (the slot stays cold in the stale-epoch case, so the
    /// restart re-faults and reads current bytes).
    fn install_loaded(
        &self,
        pfid: FrameId,
        cold: Swip,
        fid: FrameId,
        fault_epoch: u64,
    ) -> Option<(LatchVersion, u64)> {
        let SwipState::Cold(pid) = cold.state() else {
            unreachable!("install_loaded takes the cold swip being replaced")
        };
        let mut pguard = self.pool.frame(pfid).latch.write();
        let installed = self.pool.fault_epoch(pid) == fault_epoch
            && match &mut *pguard {
                Page::Inner(pnode) => match pnode.find_child_slot(cold.raw()) {
                    Some(slot) => {
                        pnode.children[slot] = Swip::hot(fid).raw();
                        true
                    }
                    None => false, // someone else already loaded it
                },
                _ => false, // parent relocated; restart will re-route
            };
        if installed {
            self.pool.frame(pfid).meta.dirty.store(true, Ordering::Relaxed);
            let rearm = pguard.version_on_release();
            // Under the write latch the frame cannot be recycled, so this
            // epoch read names the parent node we just installed into.
            let pepoch = self.pool.frame(pfid).meta.reuse_epoch();
            drop(pguard);
            Some((rearm, pepoch))
        } else {
            drop(pguard);
            // Drop the duplicate (or stale) copy we loaded; forget its disk
            // slot first so release() does not free a PageId that is still
            // referenced.
            self.pool.frame(fid).meta.disk_page_forget();
            self.pool.release(fid);
            None
        }
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
    /// `restart_counter_matches_restart_latency_samples`).
    fn note_restart(&self, attempt: &mut std::time::Instant) {
        self.metrics.incr(Counter::LatchRestarts);
        self.metrics.record_latency(LatencySite::BtreeRestart, attempt.elapsed().as_nanos() as u64);
        self.metrics.tracer().instant(
            phoebe_common::trace::EventKind::LatchRestart,
            0,
            attempt.elapsed().as_nanos() as u64,
            0,
        );
        *attempt = std::time::Instant::now();
    }

    // ------------------------------------------------------------------
    // Resumable descent (interleaved batch execution)
    // ------------------------------------------------------------------

    /// Open a resumable point-lookup descent for `key`. The cursor runs
    /// the same optimistic-lock-coupling hop loop as the blocking descent
    /// but suspends between hops (after prefetching the next node) and on
    /// cold-page faults (after kicking the read to the background
    /// loader), so a batch of cursors can overlap each other's cache
    /// misses and disk I/O. `write` selects the leaf latch mode.
    pub fn batch_cursor(&self, key: &[u8], write: bool) -> DescentCursor<'_> {
        DescentCursor {
            tree: self,
            key: SmallKey::from_slice(key),
            write,
            state: CursorState::Start,
            parent: ParentRef::Meta,
            parent_ver: LatchVersion::default(),
            parent_epoch: 0,
            cur: Swip::NULL,
            level: 0,
            attempt: std::time::Instant::now(),
        }
    }

    // ------------------------------------------------------------------
    // Table operations
    // ------------------------------------------------------------------

    /// Append a tuple under a row id drawn *inside* the rightmost leaf's
    /// exclusive latch, so allocation order equals append order — the
    /// invariant behind the monotonically increasing row-id key (§5.1).
    /// Returns `(row_id, leaf frame, first row id)`; `under_latch` runs
    /// after the append while the leaf is still latched (twin install).
    pub fn table_append_alloc(
        &self,
        layout: &PaxLayout,
        alloc: &(dyn Fn() -> RowId + Sync),
        tuple: &[Value],
        under_latch: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId),
    ) -> Result<(RowId, FrameId, RowId)> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        // Rightmost descent: longer than any 8-byte row key.
        const MAX_KEY_SENTINEL: [u8; 9] = [0xff; 9];
        {
            let (fid, mut guard, _) = self.descend::<true, false>(&MAX_KEY_SENTINEL)?;
            if let Page::TableLeaf(leaf) = guard.page_mut() {
                if !leaf.is_full(layout) {
                    let row_id = alloc();
                    let idx = leaf.append(layout, row_id, tuple);
                    let first = leaf.first_row_id().expect("non-empty leaf");
                    under_latch(leaf, idx, first, fid);
                    self.mark_dirty(fid);
                    return Ok((row_id, fid, first));
                }
            } else {
                return Err(PhoebeError::internal("table descend hit non-table leaf"));
            }
        }
        self.grow_table_alloc(layout, alloc, tuple, under_latch)
    }

    /// Pessimistic variant of [`BTree::table_append_alloc`]: walk the right
    /// spine under the meta latch, splitting full inners preemptively, and
    /// allocate the row id once the target leaf is exclusively held.
    fn grow_table_alloc(
        &self,
        layout: &PaxLayout,
        alloc: &(dyn Fn() -> RowId + Sync),
        tuple: &[Value],
        under_latch: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId),
    ) -> Result<(RowId, FrameId, RowId)> {
        const MAX_KEY_SENTINEL: [u8; 9] = [0xff; 9];
        let key: &[u8] = &MAX_KEY_SENTINEL;
        let mut reserve = self.pool.reserve(6);
        let mut meta = self.meta.write();
        // Root-is-leaf: either append in place or grow a root above it.
        if meta.height == 1 {
            let root_fid = meta.root.frame().expect("root is always hot");
            let mut root_guard = self.pool.frame(root_fid).latch.write();
            let Page::TableLeaf(leaf) = &mut *root_guard else {
                return Err(PhoebeError::internal("corrupt root"));
            };
            if !leaf.is_full(layout) {
                let row_id = alloc();
                let idx = leaf.append(layout, row_id, tuple);
                let first = leaf.first_row_id().expect("non-empty leaf");
                under_latch(leaf, idx, first, root_fid);
                drop(root_guard);
                self.mark_dirty(root_fid);
                return Ok((row_id, root_fid, first));
            }
            drop(root_guard);
            let new_root = reserve.take()?;
            {
                let mut g = self.pool.frame(new_root).latch.write();
                let mut inner = InnerNode::default();
                inner.children[0] = Swip::hot(root_fid).raw();
                *g = Page::Inner(inner);
            }
            self.pool.frame(new_root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
            self.pool.frame(root_fid).meta.parent.store(new_root, Ordering::Relaxed);
            self.mark_dirty(new_root);
            meta.root = Swip::hot(new_root);
            meta.height += 1;
        }
        // Crab down the right spine.
        let mut cur = meta.root.frame().expect("root hot");
        let mut level = meta.height;
        let mut guard = self.pool.frame(cur).latch.write();
        loop {
            if let Page::Inner(n) = &*guard {
                if n.is_full() {
                    let parent_hint = self.pool.frame(cur).meta.parent.load(Ordering::Relaxed);
                    let (right_fid, sep) = self.split_inner(&mut reserve, &mut guard)?;
                    if parent_hint == NO_PARENT {
                        let new_root = reserve.take()?;
                        {
                            let mut g = self.pool.frame(new_root).latch.write();
                            let mut inner = InnerNode::default();
                            inner.children[0] = Swip::hot(cur).raw();
                            inner.insert_separator(0, &sep, Swip::hot(right_fid).raw());
                            *g = Page::Inner(inner);
                        }
                        self.pool.frame(new_root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
                        self.pool.frame(cur).meta.parent.store(new_root, Ordering::Relaxed);
                        self.pool.frame(right_fid).meta.parent.store(new_root, Ordering::Relaxed);
                        self.mark_dirty(new_root);
                        meta.root = Swip::hot(new_root);
                        meta.height += 1;
                    } else {
                        let mut pg = self.pool.frame(parent_hint).latch.write();
                        let Page::Inner(pn) = &mut *pg else {
                            return Err(PhoebeError::internal("parent hint corrupt"));
                        };
                        let slot = pn
                            .find_child_slot(Swip::hot(cur).raw())
                            .ok_or_else(|| PhoebeError::internal("child slot missing"))?;
                        pn.insert_separator(slot, &sep, Swip::hot(right_fid).raw());
                        self.pool
                            .frame(right_fid)
                            .meta
                            .parent
                            .store(parent_hint, Ordering::Relaxed);
                        self.mark_dirty(parent_hint);
                    }
                    // Rightmost descent always follows the right half.
                    drop(guard);
                    cur = right_fid;
                    guard = self.pool.frame(cur).latch.write();
                    continue;
                }
            }
            match &mut *guard {
                Page::Inner(n) => {
                    let idx = n.child_index(key);
                    let child = Swip::from_raw(n.children[idx]);
                    let next = match child.state() {
                        SwipState::Hot(f) | SwipState::Cooling(f) => f,
                        SwipState::Cold(pid) => {
                            let f = reserve.take()?;
                            self.pool.read_into_frame(f, pid, cur)?;
                            n.children[idx] = Swip::hot(f).raw();
                            self.mark_dirty(cur);
                            f
                        }
                    };
                    if level == 2 {
                        // The child is the rightmost leaf.
                        let mut leaf_guard = self.pool.frame(next).latch.write();
                        let Page::TableLeaf(leaf) = &mut *leaf_guard else {
                            return Err(PhoebeError::internal("expected table leaf"));
                        };
                        if !leaf.is_full(layout) {
                            let row_id = alloc();
                            let idx0 = leaf.append(layout, row_id, tuple);
                            let first = leaf.first_row_id().expect("non-empty leaf");
                            under_latch(leaf, idx0, first, next);
                            drop(leaf_guard);
                            self.mark_dirty(next);
                            return Ok((row_id, next, first));
                        }
                        drop(leaf_guard);
                        // Hang a fresh rightmost leaf; the row id drawn now
                        // is strictly greater than everything appended so
                        // far (we hold the parent, the old leaf is full).
                        let row_id = alloc();
                        let new_leaf = reserve.take()?;
                        {
                            let mut g = self.pool.frame(new_leaf).latch.write();
                            let mut fresh = PaxLeaf::new();
                            let idx0 = fresh.append(layout, row_id, tuple);
                            under_latch(&mut fresh, idx0, row_id, new_leaf);
                            *g = Page::TableLeaf(fresh);
                        }
                        self.pool.frame(new_leaf).meta.parent.store(cur, Ordering::Relaxed);
                        n.insert_separator(idx, &row_key(row_id), Swip::hot(new_leaf).raw());
                        self.mark_dirty(cur);
                        self.mark_dirty(new_leaf);
                        return Ok((row_id, new_leaf, row_id));
                    }
                    let next_guard = self.pool.frame(next).latch.write();
                    drop(guard);
                    cur = next;
                    guard = next_guard;
                    level -= 1;
                }
                Page::TableLeaf(_) => {
                    return Err(PhoebeError::internal("leaf above level 1 in table tree"));
                }
                _ => return Err(PhoebeError::internal("unexpected page kind in table tree")),
            }
        }
    }

    /// Append a tuple under `row_id` (must exceed every existing row id).
    /// Returns the leaf frame and its first row id (the page identity the
    /// twin table keys on). `under_latch` runs right after the append while
    /// the leaf is still exclusively latched — MVCC uses it to install the
    /// twin entry before the tuple becomes readable. Single-writer only
    /// (loader/recovery); concurrent inserts go through
    /// [`BTree::table_append_alloc`].
    pub fn table_append(
        &self,
        layout: &PaxLayout,
        row_id: RowId,
        tuple: &[Value],
        under_latch: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId),
    ) -> Result<(FrameId, RowId)> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        let key = row_key(row_id);
        {
            let (fid, mut guard, _) = self.descend::<true, false>(&key)?;
            if let Page::TableLeaf(leaf) = guard.page_mut() {
                if !leaf.is_full(layout) {
                    let idx = leaf.append(layout, row_id, tuple);
                    let first = leaf.first_row_id().expect("non-empty leaf");
                    under_latch(leaf, idx, first, fid);
                    self.mark_dirty(fid);
                    return Ok((fid, first));
                }
            } else {
                return Err(PhoebeError::internal("table descend hit non-table leaf"));
            }
        }
        // Leaf full: grow a fresh rightmost leaf on the pessimistic path.
        self.grow_table(layout, row_id, tuple, under_latch)
    }

    /// Read `row_id` under a shared leaf latch. `f` also receives the
    /// leaf's first row id — the stable page identity twin tables key on.
    pub fn table_read<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        let key = row_key(row_id);
        let (fid, guard, _) = self.descend::<false, false>(&key)?;
        let Page::TableLeaf(leaf) = guard.page() else {
            return Err(PhoebeError::internal("table descend hit non-table leaf"));
        };
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, fid)
        });
        if out.is_some() {
            self.pool.touch(fid);
        }
        Ok(out)
    }

    /// Mutate the row under an exclusive leaf latch (in-place update path).
    pub fn table_modify<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        let key = row_key(row_id);
        let (fid, mut guard, _) = self.descend::<true, false>(&key)?;
        let Page::TableLeaf(leaf) = guard.page_mut() else {
            return Err(PhoebeError::internal("table descend hit non-table leaf"));
        };
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, fid)
        });
        if out.is_some() {
            self.mark_dirty(fid);
            self.pool.touch(fid);
        }
        Ok(out)
    }

    /// Visit every leaf left-to-right under shared latches (one at a time).
    /// `f` returns `false` to stop early. Used by temperature scans (§5.2).
    pub fn table_for_each_leaf(&self, mut f: impl FnMut(FrameId, &PaxLeaf) -> bool) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        let mut lo = SmallKey::from_slice(&[0u8; 8]);
        loop {
            let (fid, guard, next) = self.descend::<false, true>(&lo)?;
            let Page::TableLeaf(leaf) = guard.page() else {
                return Err(PhoebeError::internal("table descend hit non-table leaf"));
            };
            if !f(fid, leaf) {
                return Ok(());
            }
            drop(guard);
            match next {
                Some(s) => lo = s,
                None => return Ok(()),
            }
        }
    }

    fn mark_dirty(&self, fid: FrameId) {
        self.pool.frame(fid).meta.dirty.store(true, Ordering::Relaxed);
    }

    /// Record `gsn` as the newest WAL touching the leaf holding `fid`
    /// (write-barrier input for Steal eviction, §8).
    pub fn stamp_gsn(&self, fid: FrameId, gsn: u64) {
        self.pool.frame(fid).meta.page_gsn.fetch_max(gsn, Ordering::Relaxed);
    }

    /// Pessimistic growth for table trees: walk the right spine with
    /// exclusive crabbing, splitting full inner nodes preemptively, then
    /// hang a fresh empty leaf for `row_id` and append into it.
    fn grow_table(
        &self,
        layout: &PaxLayout,
        row_id: RowId,
        tuple: &[Value],
        under_latch: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId),
    ) -> Result<(FrameId, RowId)> {
        let key = row_key(row_id);
        // Pre-reserve frames before taking any latch: allocating under an
        // exclusive latch would starve eviction of every child of that node.
        let mut reserve = self.pool.reserve(6);
        let mut meta = self.meta.write();
        // Root may itself be the full leaf.
        let root_fid = meta.root.frame().expect("root is always hot");
        if meta.height == 1 {
            let root_guard = self.pool.frame(root_fid).latch.write();
            let Page::TableLeaf(leaf) = &*root_guard else {
                return Err(PhoebeError::internal("corrupt root"));
            };
            if !leaf.is_full(layout) {
                drop(root_guard);
                drop(meta);
                return self.table_append(layout, row_id, tuple, under_latch);
            }
            drop(root_guard);
            let new_root = reserve.take()?;
            {
                let mut g = self.pool.frame(new_root).latch.write();
                let mut inner = InnerNode::default();
                inner.children[0] = Swip::hot(root_fid).raw();
                *g = Page::Inner(inner);
            }
            self.pool.frame(new_root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
            self.pool.frame(root_fid).meta.parent.store(new_root, Ordering::Relaxed);
            self.mark_dirty(new_root);
            meta.root = Swip::hot(new_root);
            meta.height += 1;
        }

        // Crab down the right spine.
        let mut cur = meta.root.frame().expect("root hot");
        let mut level = meta.height;
        let mut guard = self.pool.frame(cur).latch.write();
        loop {
            // Preemptively split a full inner so a child split always fits.
            if let Page::Inner(n) = &*guard {
                if n.is_full() {
                    let parent_hint = self.pool.frame(cur).meta.parent.load(Ordering::Relaxed);
                    let (right_fid, sep) = self.split_inner(&mut reserve, &mut guard)?;
                    if parent_hint == NO_PARENT {
                        // cur was the root: grow a new root.
                        let new_root = reserve.take()?;
                        {
                            let mut g = self.pool.frame(new_root).latch.write();
                            let mut inner = InnerNode::default();
                            inner.children[0] = Swip::hot(cur).raw();
                            inner.insert_separator(0, &sep, Swip::hot(right_fid).raw());
                            *g = Page::Inner(inner);
                        }
                        self.pool.frame(new_root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
                        self.pool.frame(cur).meta.parent.store(new_root, Ordering::Relaxed);
                        self.pool.frame(right_fid).meta.parent.store(new_root, Ordering::Relaxed);
                        self.mark_dirty(new_root);
                        meta.root = Swip::hot(new_root);
                        meta.height += 1;
                    } else {
                        // Parent has room (preemptive invariant).
                        let mut pg = self.pool.frame(parent_hint).latch.write();
                        let Page::Inner(pn) = &mut *pg else {
                            return Err(PhoebeError::internal("parent hint corrupt"));
                        };
                        let slot = pn
                            .find_child_slot(Swip::hot(cur).raw())
                            .ok_or_else(|| PhoebeError::internal("child slot missing"))?;
                        pn.insert_separator(slot, &sep, Swip::hot(right_fid).raw());
                        self.pool
                            .frame(right_fid)
                            .meta
                            .parent
                            .store(parent_hint, Ordering::Relaxed);
                        self.mark_dirty(parent_hint);
                    }
                    // Re-route: the key may now belong right of the split.
                    if key.as_slice() >= sep.as_slice() {
                        drop(guard);
                        cur = right_fid;
                        guard = self.pool.frame(cur).latch.write();
                    }
                    continue;
                }
            }
            match &mut *guard {
                Page::Inner(n) => {
                    if level == 2 {
                        // The child is the (full) rightmost leaf: hang a new
                        // empty leaf for row ids >= row_id.
                        let idx = n.child_index(&key);
                        let child = Swip::from_raw(n.children[idx]);
                        let full = match child.state() {
                            SwipState::Hot(f) | SwipState::Cooling(f) => {
                                self.pool.frame(f).latch.read().table_leaf_full(layout)
                            }
                            SwipState::Cold(_) => false, // must load to know
                        };
                        if !full {
                            // Either not full (raced) or cold: retry fast path.
                            drop(guard);
                            drop(meta);
                            return self.table_append(layout, row_id, tuple, under_latch);
                        }
                        let new_leaf = reserve.take()?;
                        {
                            let mut g = self.pool.frame(new_leaf).latch.write();
                            let mut leaf = PaxLeaf::new();
                            let idx0 = leaf.append(layout, row_id, tuple);
                            under_latch(&mut leaf, idx0, row_id, new_leaf);
                            *g = Page::TableLeaf(leaf);
                        }
                        self.pool.frame(new_leaf).meta.parent.store(cur, Ordering::Relaxed);
                        n.insert_separator(idx, &key, Swip::hot(new_leaf).raw());
                        self.mark_dirty(cur);
                        self.mark_dirty(new_leaf);
                        return Ok((new_leaf, row_id));
                    }
                    let idx = n.child_index(&key);
                    let child = Swip::from_raw(n.children[idx]);
                    let next = match child.state() {
                        SwipState::Hot(f) | SwipState::Cooling(f) => f,
                        SwipState::Cold(pid) => {
                            let f = reserve.take()?;
                            self.pool.read_into_frame(f, pid, cur)?;
                            n.children[idx] = Swip::hot(f).raw();
                            self.mark_dirty(cur);
                            f
                        }
                    };
                    let next_guard = self.pool.frame(next).latch.write();
                    drop(guard);
                    cur = next;
                    guard = next_guard;
                    level -= 1;
                }
                Page::TableLeaf(leaf) => {
                    // height == 1 case resolved above; reaching a leaf here
                    // means it has room (preemptive splits above).
                    if leaf.is_full(layout) {
                        return Err(PhoebeError::internal("leaf full on pessimistic path"));
                    }
                    let idx = leaf.append(layout, row_id, tuple);
                    let first = leaf.first_row_id().expect("non-empty leaf");
                    under_latch(leaf, idx, first, cur);
                    self.mark_dirty(cur);
                    return Ok((cur, first));
                }
                _ => return Err(PhoebeError::internal("unexpected page kind in table tree")),
            }
        }
    }

    /// Split an exclusively held inner node; returns the new right sibling's
    /// frame and the promoted separator. Updates moved children's parent
    /// hints.
    fn split_inner(
        &self,
        reserve: &mut crate::buffer::FrameReserve,
        guard: &mut WriteGuard<'_, Page>,
    ) -> Result<(FrameId, Vec<u8>)> {
        let right_fid = reserve.take()?;
        let Page::Inner(n) = &mut **guard else {
            return Err(PhoebeError::internal("split_inner on non-inner"));
        };
        let (right, sep) = n.split();
        for i in 0..=right.count as usize {
            if let Some(f) = Swip::from_raw(right.children[i]).frame() {
                self.pool.frame(f).meta.parent.store(right_fid, Ordering::Relaxed);
            }
        }
        {
            let mut g = self.pool.frame(right_fid).latch.write();
            *g = Page::Inner(right);
        }
        self.mark_dirty(right_fid);
        Ok((right_fid, sep))
    }

    // ------------------------------------------------------------------
    // Index operations
    // ------------------------------------------------------------------

    /// Insert `(key, row_id)`; `Err(DuplicateKey)` if the key exists.
    pub fn index_insert(&self, key: &[u8], row_id: RowId) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        {
            let (fid, mut guard, _) = self.descend::<true, false>(key)?;
            if let Page::IndexLeaf(leaf) = guard.page_mut() {
                if !leaf.is_full() {
                    return if leaf.insert(key, row_id.raw()) {
                        self.mark_dirty(fid);
                        self.pool.touch(fid);
                        Ok(())
                    } else {
                        Err(PhoebeError::DuplicateKey { index: self.table })
                    };
                }
            } else {
                return Err(PhoebeError::internal("index descend hit non-index leaf"));
            }
        }
        self.index_insert_pessimistic(key, row_id)
    }

    /// Exact lookup.
    pub fn index_get(&self, key: &[u8]) -> Result<Option<RowId>> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        let (_fid, guard, _) = self.descend::<false, false>(key)?;
        let Page::IndexLeaf(leaf) = guard.page() else {
            return Err(PhoebeError::internal("index descend hit non-index leaf"));
        };
        Ok(leaf.get(key).map(RowId))
    }

    /// Remove `key`; returns the row id it mapped to.
    pub fn index_remove(&self, key: &[u8]) -> Result<Option<RowId>> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        let (fid, mut guard, _) = self.descend::<true, false>(key)?;
        let Page::IndexLeaf(leaf) = guard.page_mut() else {
            return Err(PhoebeError::internal("index descend hit non-index leaf"));
        };
        let out = leaf.remove(key).map(RowId);
        if out.is_some() {
            self.mark_dirty(fid);
        }
        Ok(out)
    }

    /// Visit entries with `low <= key <= high` in order; `f` returns
    /// `false` to stop. Latches one leaf at a time; resumes across leaves
    /// via the descent's next-separator fence key.
    pub fn index_range(
        &self,
        low: &[u8],
        high: &[u8],
        mut f: impl FnMut(&[u8], RowId) -> bool,
    ) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        let mut lo = SmallKey::from_slice(low);
        loop {
            let (_fid, guard, next) = self.descend::<false, true>(&lo)?;
            let Page::IndexLeaf(leaf) = guard.page() else {
                return Err(PhoebeError::internal("index descend hit non-index leaf"));
            };
            let start = leaf.lower_bound(&lo);
            for i in start..leaf.count as usize {
                let k = leaf.key(i);
                if k > high {
                    return Ok(());
                }
                if !f(k, RowId(leaf.row_ids[i])) {
                    return Ok(());
                }
            }
            drop(guard);
            match next {
                Some(s) if s.as_slice() <= high => lo = s,
                _ => return Ok(()),
            }
        }
    }

    /// Pessimistic insert with preemptive splitting (index trees).
    fn index_insert_pessimistic(&self, key: &[u8], row_id: RowId) -> Result<()> {
        // See grow_table: frames must be reserved before latching.
        let mut reserve = self.pool.reserve(8);
        let mut meta = self.meta.write();
        let root_fid = meta.root.frame().expect("root is always hot");
        // Root leaf split.
        if meta.height == 1 {
            let mut root_guard = self.pool.frame(root_fid).latch.write();
            let Page::IndexLeaf(leaf) = &mut *root_guard else {
                return Err(PhoebeError::internal("corrupt root"));
            };
            if leaf.is_full() {
                let (right, sep) = leaf.split();
                let right_fid = reserve.take()?;
                {
                    let mut g = self.pool.frame(right_fid).latch.write();
                    *g = Page::IndexLeaf(right);
                }
                let new_root = reserve.take()?;
                {
                    let mut g = self.pool.frame(new_root).latch.write();
                    let mut inner = InnerNode::default();
                    inner.children[0] = Swip::hot(root_fid).raw();
                    inner.insert_separator(0, &sep, Swip::hot(right_fid).raw());
                    *g = Page::Inner(inner);
                }
                self.pool.frame(new_root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
                self.pool.frame(root_fid).meta.parent.store(new_root, Ordering::Relaxed);
                self.pool.frame(right_fid).meta.parent.store(new_root, Ordering::Relaxed);
                self.mark_dirty(root_fid);
                self.mark_dirty(right_fid);
                self.mark_dirty(new_root);
                meta.root = Swip::hot(new_root);
                meta.height += 1;
            }
            drop(root_guard);
        }
        if meta.height == 1 {
            // Still a leaf root (it had room after all); plain insert.
            let mut g = self.pool.frame(meta.root.frame().expect("hot")).latch.write();
            let Page::IndexLeaf(leaf) = &mut *g else {
                return Err(PhoebeError::internal("corrupt root"));
            };
            return if leaf.insert(key, row_id.raw()) {
                Ok(())
            } else {
                Err(PhoebeError::DuplicateKey { index: self.table })
            };
        }

        // Crab down, splitting full nodes preemptively.
        let mut cur = meta.root.frame().expect("hot");
        let mut guard = self.pool.frame(cur).latch.write();
        loop {
            if let Page::Inner(n) = &*guard {
                if n.is_full() {
                    let parent_hint = self.pool.frame(cur).meta.parent.load(Ordering::Relaxed);
                    let (right_fid, sep) = self.split_inner(&mut reserve, &mut guard)?;
                    if parent_hint == NO_PARENT {
                        let new_root = reserve.take()?;
                        {
                            let mut g = self.pool.frame(new_root).latch.write();
                            let mut inner = InnerNode::default();
                            inner.children[0] = Swip::hot(cur).raw();
                            inner.insert_separator(0, &sep, Swip::hot(right_fid).raw());
                            *g = Page::Inner(inner);
                        }
                        self.pool.frame(new_root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
                        self.pool.frame(cur).meta.parent.store(new_root, Ordering::Relaxed);
                        self.pool.frame(right_fid).meta.parent.store(new_root, Ordering::Relaxed);
                        self.mark_dirty(new_root);
                        meta.root = Swip::hot(new_root);
                        meta.height += 1;
                    } else {
                        let mut pg = self.pool.frame(parent_hint).latch.write();
                        let Page::Inner(pn) = &mut *pg else {
                            return Err(PhoebeError::internal("parent hint corrupt"));
                        };
                        let slot = pn
                            .find_child_slot(Swip::hot(cur).raw())
                            .ok_or_else(|| PhoebeError::internal("child slot missing"))?;
                        pn.insert_separator(slot, &sep, Swip::hot(right_fid).raw());
                        self.pool
                            .frame(right_fid)
                            .meta
                            .parent
                            .store(parent_hint, Ordering::Relaxed);
                        self.mark_dirty(parent_hint);
                    }
                    if key >= sep.as_slice() {
                        drop(guard);
                        cur = right_fid;
                        guard = self.pool.frame(cur).latch.write();
                    }
                    continue;
                }
            }
            match &mut *guard {
                Page::Inner(n) => {
                    let idx = n.child_index(key);
                    let child = Swip::from_raw(n.children[idx]);
                    let next = match child.state() {
                        SwipState::Hot(f) | SwipState::Cooling(f) => f,
                        SwipState::Cold(pid) => {
                            let f = reserve.take()?;
                            self.pool.read_into_frame(f, pid, cur)?;
                            n.children[idx] = Swip::hot(f).raw();
                            self.mark_dirty(cur);
                            f
                        }
                    };
                    let mut next_guard = self.pool.frame(next).latch.write();
                    // Split a full child leaf while we still hold its parent.
                    if let Page::IndexLeaf(leaf) = &mut *next_guard {
                        if leaf.is_full() {
                            let (right, sep) = leaf.split();
                            let right_fid = reserve.take()?;
                            {
                                let mut g = self.pool.frame(right_fid).latch.write();
                                *g = Page::IndexLeaf(right);
                            }
                            self.pool.frame(right_fid).meta.parent.store(cur, Ordering::Relaxed);
                            n.insert_separator(idx, &sep, Swip::hot(right_fid).raw());
                            self.mark_dirty(cur);
                            self.mark_dirty(next);
                            self.mark_dirty(right_fid);
                            if key >= sep.as_slice() {
                                drop(next_guard);
                                drop(guard);
                                cur = right_fid;
                                guard = self.pool.frame(cur).latch.write();
                                continue;
                            }
                        }
                    }
                    drop(guard);
                    cur = next;
                    guard = next_guard;
                }
                Page::IndexLeaf(leaf) => {
                    return if leaf.insert(key, row_id.raw()) {
                        self.mark_dirty(cur);
                        Ok(())
                    } else {
                        Err(PhoebeError::DuplicateKey { index: self.table })
                    };
                }
                _ => return Err(PhoebeError::internal("unexpected page kind in index tree")),
            }
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

/// Either-latched leaf guard.
pub enum LeafGuard<'a> {
    Read(ReadGuard<'a, Page>),
    Write(WriteGuard<'a, Page>),
}

impl LeafGuard<'_> {
    fn page(&self) -> &Page {
        match self {
            LeafGuard::Read(g) => g,
            LeafGuard::Write(g) => g,
        }
    }

    fn page_mut(&mut self) -> &mut Page {
        match self {
            LeafGuard::Read(_) => panic!("page_mut on a shared guard"),
            LeafGuard::Write(g) => g,
        }
    }
}

// ----------------------------------------------------------------------
// Resumable descent state machine
// ----------------------------------------------------------------------

/// Where a resumable descent currently stands.
enum CursorState {
    /// Not yet started, or restarting after optimistic validation failed.
    Start,
    /// Mid-descent: `cur`/`level`/`parent` identify the next hop.
    Hop,
    /// Suspended on a cold-page read running in the background loader.
    /// `epoch` is the page's fault epoch captured before the read was
    /// kicked, re-checked by the install (PageId ABA guard).
    Fault { ticket: Arc<crate::fault_service::FaultTicket>, pfid: FrameId, cold: Swip, epoch: u64 },
    /// The leaf was delivered; the cursor is spent.
    Done,
}

/// One resumable point-lookup descent (see [`BTree::batch_cursor`]).
///
/// The cursor carries only plain values between [`DescentCursor::step`]
/// calls — swip, level, parent frame id plus its optimistic version stamp,
/// never a latch guard — so suspending it costs nothing and holds nothing.
/// Guards exist solely as locals inside a single `step` call (the leaf
/// guard escapes *into* the returned [`BatchLeaf`], at which point the
/// descent is over).
pub struct DescentCursor<'t> {
    tree: &'t BTree,
    key: SmallKey,
    write: bool,
    state: CursorState,
    parent: ParentRef,
    parent_ver: LatchVersion,
    /// The parent frame's [`FrameMeta::reuse_epoch`], captured while the
    /// hop into it was validated. [`DescentCursor::parent_routes_to`]
    /// compares it before trusting a slot re-read: a suspended cursor's
    /// parent frame may have been evicted and recycled as an unrelated
    /// node, which would still "route" any key somewhere because
    /// `child_index` clamps. Meaningless while `parent` is `Meta`.
    parent_epoch: u64,
    cur: Swip,
    level: u32,
    /// Start of the current attempt, for the restart wasted-work histogram.
    attempt: std::time::Instant,
}

/// Outcome of one [`DescentCursor::step`] call.
pub enum DescentStep<'t> {
    /// Descent finished: the responsible leaf, latched per the cursor's
    /// `write` mode. The cursor must not be stepped again.
    Leaf(BatchLeaf<'t>),
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

impl<'t> DescentCursor<'t> {
    /// Advance the descent as far as it can go without waiting, then
    /// report why it stopped. Mirrors [`BTree::descend`] hop for hop; on
    /// any optimistic validation failure it restarts from the root (same
    /// restart bookkeeping), but returns `Prefetched` first so sibling
    /// descents get the CPU while the conflict drains.
    pub fn step(&mut self) -> Result<DescentStep<'t>> {
        // No per-step component timer: a batch makes height+1 short steps
        // per key and two clock reads each would dominate the hop itself.
        // Batch descent cost is visible under the `batch_get` latency site.
        loop {
            match &self.state {
                CursorState::Done => {
                    return Err(PhoebeError::internal("step on a finished descent cursor"))
                }
                CursorState::Start => {
                    let Some(((root, height), meta_ver)) =
                        self.tree.meta.optimistic_versioned(|m| (m.root, m.height))
                    else {
                        // Meta is write-latched (split in flight): back off
                        // to a sibling instead of spinning.
                        return Ok(DescentStep::Prefetched);
                    };
                    self.parent = ParentRef::Meta;
                    self.parent_ver = meta_ver;
                    self.parent_epoch = 0;
                    self.cur = root;
                    self.level = height;
                    self.state = CursorState::Hop;
                }
                CursorState::Hop => {
                    if let Some(stop) = self.hop()? {
                        return Ok(stop);
                    }
                    // `None`: cold child discovered right after a hop —
                    // loop so the fault branch runs in this same call
                    // (one suspend, not a prefetch suspend followed by a
                    // fault suspend).
                }
                CursorState::Fault { ticket, .. } => {
                    if !ticket.is_done() {
                        return Ok(DescentStep::FaultPending);
                    }
                    let CursorState::Fault { ticket, pfid, cold, epoch } =
                        std::mem::replace(&mut self.state, CursorState::Start)
                    else {
                        unreachable!()
                    };
                    let fid = match ticket.take().expect("completed fault has a result") {
                        Ok(fid) => fid,
                        // The loader could not allocate: a wide batch can
                        // have more faults in flight than the pool has
                        // frames (loaded-but-uninstalled frames are
                        // parentless, so eviction cannot reclaim them).
                        // That is backpressure, not failure — back off to
                        // the siblings; their installs put pages back under
                        // parents, where the retry's allocate can evict.
                        Err(PhoebeError::OutOfFrames) => return Ok(self.restart()),
                        Err(e) => return Err(e),
                    };
                    if let Some((rearm, pepoch)) = self.tree.install_loaded(pfid, cold, fid, epoch)
                    {
                        // Resume mid-path: the child is hot in the slot we
                        // just wrote, and the parent stamp is our own
                        // install's release version — no root re-descent
                        // through parents the page-swap duty is churning.
                        self.parent = ParentRef::Node(pfid);
                        self.parent_ver = rearm;
                        self.parent_epoch = pepoch;
                        self.cur = Swip::hot(fid);
                        self.state = CursorState::Hop;
                    }
                    // Lost the install race: state is already `Start`, so
                    // the descent re-routes from the root, exactly like
                    // the blocking `fix_cold` path's `continue 'restart`.
                }
            }
        }
    }

    /// If this cursor is suspended on a read of its own, leave `waker`
    /// with the ticket and report whether the read has finished by now
    /// ([`crate::fault_service::FaultTicket::register_waker`]: `false`
    /// promises a wake). `None`: nothing of this cursor's is in flight.
    pub fn register_fault_waker(&self, waker: &std::task::Waker) -> Option<bool> {
        match &self.state {
            CursorState::Fault { ticket, .. } => Some(ticket.register_waker(waker)),
            _ => None,
        }
    }

    /// One hop of the descent. `Ok(Some(_))` stops the step (suspend or
    /// leaf); `Ok(None)` means "loop again within this step".
    fn hop(&mut self) -> Result<Option<DescentStep<'t>>> {
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
                // Over the in-flight fault budget: back off to the
                // siblings instead of kicking yet another frame-holding
                // load. The state stays `Hop`, so the next step re-checks
                // the budget — it frees as sibling faults install, and a
                // batch left with nothing else to do waits for exactly
                // those installs, hence `FaultPending`.
                if !tree.pool.fault_budget_available() {
                    return Ok(Some(DescentStep::FaultPending));
                }
                // Kick the read to the background loader and suspend —
                // the blocking path would eat the whole I/O right here.
                // Epoch before the kick, so the loader's read is ordered
                // after the capture and the install can reject a frame
                // made stale by a concurrent install/evict cycle.
                let epoch = tree.pool.fault_epoch(pid);
                let ticket = tree.pool.start_fault(pid, pfid);
                tree.metrics.incr(Counter::FaultSuspends);
                self.state = CursorState::Fault { ticket, pfid, cold: self.cur, epoch };
                return Ok(Some(DescentStep::FaultPending));
            }
        };
        let frame = tree.pool.frame(fid);
        if self.level == 1 {
            let guard = if self.write {
                LeafGuard::Write(frame.latch.write())
            } else {
                LeafGuard::Read(frame.latch.read())
            };
            // Version stamp first (cheap); on failure fall back to
            // re-reading the parent slot: we hold the leaf latch, so if
            // the parent routes this key here *right now*, this is the
            // right leaf no matter how often the stamp was bumped while
            // we were suspended.
            let on_track =
                tree.validate_parent(&self.parent, self.parent_ver) || self.parent_routes_to(fid);
            if !on_track {
                drop(guard);
                return Ok(Some(self.restart()));
            }
            self.state = CursorState::Done;
            return Ok(Some(DescentStep::Leaf(BatchLeaf { tree, fid, guard })));
        }
        // Inner hop: read the child slot optimistically. The reuse epoch
        // is captured *before* the read: if it still matches at a later
        // `parent_routes_to` check, no recycle happened in between, so
        // the frame still holds the node this validated read saw.
        let fid_epoch = frame.meta.reuse_epoch();
        let key = &self.key;
        let Some((read, ver)) = frame.latch.optimistic_versioned(|p| match p {
            Page::Inner(n) => Some(n.children[n.child_index(key)]),
            _ => None,
        }) else {
            return Ok(Some(self.restart()));
        };
        // Same slow-path revalidation as the leaf, with one extra check:
        // no latch is held here, so the child slot we just read is only
        // trustworthy if this frame's own version is also unchanged.
        let on_track = tree.validate_parent(&self.parent, self.parent_ver)
            || (self.parent_routes_to(fid) && frame.latch.validate(ver));
        if !on_track {
            return Ok(Some(self.restart()));
        }
        let Some(child_raw) = read else {
            // Frame was repurposed under us.
            return Ok(Some(self.restart()));
        };
        self.parent = ParentRef::Node(fid);
        self.parent_ver = ver;
        self.parent_epoch = fid_epoch;
        self.cur = Swip::from_raw(child_raw);
        self.level -= 1;
        match self.cur.state() {
            SwipState::Hot(cf) | SwipState::Cooling(cf) => {
                // Pull the child frame's header and first node lines
                // toward L1, then suspend: a sibling descent runs while
                // the lines arrive, hiding the stall (§7.1).
                phoebe_common::prefetch_read_span(tree.pool.frame(cf), 4);
                tree.metrics.incr(Counter::PrefetchesIssued);
                Ok(Some(DescentStep::Prefetched))
            }
            // Cold child: no point prefetch-suspending on the way to a
            // disk read — loop so this same step kicks the fault.
            SwipState::Cold(_) => Ok(None),
        }
    }

    /// Restart bookkeeping (shared with the blocking descent via
    /// [`BTree::note_restart`]), then back off to the siblings.
    fn restart(&mut self) -> DescentStep<'t> {
        self.tree.note_restart(&mut self.attempt);
        self.state = CursorState::Start;
        DescentStep::Prefetched
    }

    /// Does the parent *currently* route this cursor's key to `fid`?
    ///
    /// Slot-level revalidation for when the version stamp fails. A
    /// suspended cursor's stamp goes stale on *any* write latch of the
    /// parent — and under memory pressure the page-swap duty stages
    /// children through parent write latches constantly, so near the
    /// root every suspend window eats a bump. Most of those writes never
    /// touch our slot: re-read it and accept the descent if the key
    /// still routes here.
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
    fn parent_routes_to(&self, fid: FrameId) -> bool {
        let hit = |raw: u64| {
            matches!(Swip::from_raw(raw).state(),
                SwipState::Hot(f) | SwipState::Cooling(f) if f == fid)
        };
        match self.parent {
            ParentRef::Meta => self.tree.meta.optimistic(|m| m.root.raw()).is_some_and(hit),
            ParentRef::Node(pfid) => {
                let routed = self
                    .tree
                    .pool
                    .frame(pfid)
                    .latch
                    .optimistic(|p| match p {
                        Page::Inner(n) => Some(n.children[n.child_index(&self.key)]),
                        _ => None,
                    })
                    .flatten()
                    .is_some_and(hit);
                // Epoch after the re-read: a recycle before the read
                // bumps the epoch under a write latch whose release the
                // validated read observed (see FrameMeta::reuse_epoch).
                routed && self.tree.pool.frame(pfid).meta.reuse_epoch() == self.parent_epoch
            }
        }
    }
}

/// A latched leaf delivered by a finished [`DescentCursor`]: the same
/// entry points as [`BTree::table_read`] / [`BTree::table_modify`] /
/// [`BTree::index_get`] minus the descent, so the touch/dirty bookkeeping
/// stays inside the storage crate. Dropping it releases the leaf latch.
pub struct BatchLeaf<'t> {
    tree: &'t BTree,
    fid: FrameId,
    guard: LeafGuard<'t>,
}

impl BatchLeaf<'_> {
    /// Read `row_id` in this leaf (leaf-local [`BTree::table_read`]).
    pub fn table_read<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        let Page::TableLeaf(leaf) = self.guard.page() else {
            return Err(PhoebeError::internal("table descend hit non-table leaf"));
        };
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, self.fid)
        });
        if out.is_some() {
            self.tree.pool.touch(self.fid);
        }
        Ok(out)
    }

    /// Mutate `row_id` in this leaf (leaf-local [`BTree::table_modify`];
    /// requires a `write` cursor).
    pub fn table_modify<R>(
        &mut self,
        row_id: RowId,
        f: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        let fid = self.fid;
        let Page::TableLeaf(leaf) = self.guard.page_mut() else {
            return Err(PhoebeError::internal("table descend hit non-table leaf"));
        };
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, fid)
        });
        if out.is_some() {
            self.tree.mark_dirty(fid);
            self.tree.pool.touch(fid);
        }
        Ok(out)
    }

    /// Exact lookup in this leaf (leaf-local [`BTree::index_get`]).
    pub fn index_get(&self, key: &[u8]) -> Result<Option<RowId>> {
        let Page::IndexLeaf(leaf) = self.guard.page() else {
            return Err(PhoebeError::internal("index descend hit non-index leaf"));
        };
        Ok(leaf.get(key).map(RowId))
    }
}

trait TableLeafFull {
    fn table_leaf_full(&self, layout: &PaxLayout) -> bool;
}

impl TableLeafFull for ReadGuard<'_, Page> {
    fn table_leaf_full(&self, layout: &PaxLayout) -> bool {
        matches!(&**self, Page::TableLeaf(l) if l.is_full(layout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Schema};
    use phoebe_common::KernelConfig;

    fn pool(frames: usize) -> Arc<BufferPool> {
        let cfg = KernelConfig::for_tests();
        BufferPool::new(frames, 2, &cfg.data_dir, Arc::new(Metrics::new(2))).unwrap()
    }

    fn table_tree(frames: usize) -> (BTree, PaxLayout) {
        let p = pool(frames);
        let schema = Schema::new(vec![("v", ColType::I64), ("s", ColType::Str(8))]);
        let layout = PaxLayout::for_schema(&schema);
        let t = BTree::create(p.clone(), TableId(1), TreeKind::Table, Arc::new(Metrics::new(2)))
            .unwrap();
        (t, layout)
    }

    fn index_tree(frames: usize) -> BTree {
        let p = pool(frames);
        BTree::create(p, TableId(2), TreeKind::Index, Arc::new(Metrics::new(2))).unwrap()
    }

    fn tup(i: u64) -> Vec<Value> {
        vec![Value::I64(i as i64), Value::Str(format!("s{}", i % 100))]
    }

    #[test]
    fn table_append_and_point_reads() {
        let (t, l) = table_tree(256);
        for i in 1..=5_000u64 {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        assert!(t.height() >= 2, "5k rows must split the root leaf");
        for i in (1..=5_000u64).step_by(97) {
            let v = t
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present");
            assert_eq!(v, Value::I64(i as i64));
        }
        assert!(t.table_read(RowId(0), |_, _, _, _| ()).unwrap().is_none());
        assert!(t.table_read(RowId(99_999), |_, _, _, _| ()).unwrap().is_none());
    }

    #[test]
    fn table_modify_updates_in_place() {
        let (t, l) = table_tree(64);
        t.table_append(&l, RowId(7), &tup(7), |_, _, _, _| {}).unwrap();
        let changed = t
            .table_modify(RowId(7), |leaf, row, _, _| {
                leaf.write_col(&l, row, 0, &Value::I64(-1));
            })
            .unwrap();
        assert!(changed.is_some());
        let v = t.table_read(RowId(7), |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(-1)));
    }

    #[test]
    fn table_page_identity_is_stable_across_splits() {
        let (t, l) = table_tree(256);
        t.table_append(&l, RowId(1), &tup(1), |_, _, _, _| {}).unwrap();
        let first_identity = t.table_read(RowId(1), |_, _, first, _| first).unwrap().unwrap();
        for i in 2..=4_000u64 {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        // Row 1's leaf never changed identity despite thousands of appends.
        let identity_after = t.table_read(RowId(1), |_, _, first, _| first).unwrap().unwrap();
        assert_eq!(first_identity, identity_after);
    }

    #[test]
    fn table_for_each_leaf_walks_in_order() {
        let (t, l) = table_tree(256);
        for i in 1..=3_000u64 {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        let mut firsts = Vec::new();
        t.table_for_each_leaf(|_, leaf| {
            firsts.push(leaf.first_row_id().unwrap().raw());
            true
        })
        .unwrap();
        assert!(firsts.len() > 2);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "leaves must ascend");
        // Early stop works.
        let mut n = 0;
        t.table_for_each_leaf(|_, _| {
            n += 1;
            false
        })
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn index_insert_get_remove_with_splits() {
        let t = index_tree(256);
        let n = 20_000u64;
        for i in 0..n {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            let _ = t.index_insert(&k, RowId(i)); // dups possible, ignore
        }
        assert!(t.height() >= 2);
        // Spot-check round trips on keys we know are present.
        let mut found = 0;
        for i in 0..n {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            if let Some(r) = t.index_get(&k).unwrap() {
                // Remove and verify gone.
                if i % 1000 == 0 {
                    assert_eq!(t.index_remove(&k).unwrap(), Some(r));
                    assert_eq!(t.index_get(&k).unwrap(), None);
                }
                found += 1;
            }
        }
        assert!(found > n as usize / 2);
    }

    #[test]
    fn index_duplicate_key_is_rejected() {
        let t = index_tree(64);
        t.index_insert(b"alpha", RowId(1)).unwrap();
        match t.index_insert(b"alpha", RowId(2)) {
            Err(PhoebeError::DuplicateKey { .. }) => {}
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        assert_eq!(t.index_get(b"alpha").unwrap(), Some(RowId(1)));
    }

    #[test]
    fn index_range_scans_across_leaves() {
        let t = index_tree(512);
        let n = 2_000u64;
        for i in 0..n {
            t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
        }
        assert!(t.height() >= 2, "need multiple leaves to test resume");
        let mut seen = Vec::new();
        t.index_range(&100u64.to_be_bytes(), &1_500u64.to_be_bytes(), |_, r| {
            seen.push(r.raw());
            true
        })
        .unwrap();
        assert_eq!(seen, (100..=1_500).collect::<Vec<_>>());
        // Early termination.
        let mut count = 0;
        t.index_range(&0u64.to_be_bytes(), &u64::MAX.to_be_bytes(), |_, _| {
            count += 1;
            count < 10
        })
        .unwrap();
        assert_eq!(count, 10);
        // Empty range.
        let mut empty = 0;
        t.index_range(&5_000u64.to_be_bytes(), &6_000u64.to_be_bytes(), |_, _| {
            empty += 1;
            true
        })
        .unwrap();
        assert_eq!(empty, 0);
    }

    /// Drive a cursor to its leaf the way the batch round-robin would,
    /// counting how it suspended along the way.
    fn drive<'t>(mut c: DescentCursor<'t>) -> (BatchLeaf<'t>, u64, u64) {
        let (mut prefetches, mut faults) = (0u64, 0u64);
        loop {
            match c.step().unwrap() {
                DescentStep::Leaf(l) => return (l, prefetches, faults),
                DescentStep::Prefetched => prefetches += 1,
                DescentStep::FaultPending => {
                    faults += 1;
                    // A real batch would run siblings here; give the
                    // background loader the same window.
                    std::thread::yield_now();
                }
            }
        }
    }

    #[test]
    fn batch_cursor_matches_blocking_reads_hot() {
        let (t, l) = table_tree(256);
        for i in 1..=5_000u64 {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        assert!(t.height() >= 2);
        let mut suspended = 0u64;
        for i in (1..=5_000u64).step_by(97) {
            let (leaf, prefetches, _) = drive(t.batch_cursor(&row_key(RowId(i)), false));
            suspended += prefetches;
            let v = leaf
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present");
            assert_eq!(v, Value::I64(i as i64));
        }
        assert!(suspended > 0, "multi-level descents must suspend at least once per hop");
        // Misses behave like the blocking path too.
        let (leaf, _, _) = drive(t.batch_cursor(&row_key(RowId(99_999)), false));
        assert!(leaf.table_read(RowId(99_999), |_, _, _, _| ()).unwrap().is_none());
    }

    #[test]
    fn batch_cursor_write_mode_modifies_in_place() {
        let (t, l) = table_tree(256);
        for i in 1..=3_000u64 {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        let (mut leaf, _, _) = drive(t.batch_cursor(&row_key(RowId(1_500)), true));
        let changed = leaf
            .table_modify(RowId(1_500), |leaf, row, _, _| {
                leaf.write_col(&l, row, 0, &Value::I64(-42));
            })
            .unwrap();
        assert!(changed.is_some());
        drop(leaf);
        let v = t.table_read(RowId(1_500), |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(-42)));
    }

    #[test]
    fn batch_cursor_index_lookup_matches_blocking() {
        let t = index_tree(256);
        for i in 0..20_000u64 {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            t.index_insert(&k, RowId(i)).unwrap();
        }
        for i in (0..20_000u64).step_by(331) {
            let k = (i * 2_654_435_761 % 1_000_003).to_be_bytes();
            let (leaf, _, _) = drive(t.batch_cursor(&k, false));
            assert_eq!(leaf.index_get(&k).unwrap(), t.index_get(&k).unwrap());
        }
    }

    #[test]
    fn batch_cursor_suspends_on_cold_pages_and_resumes() {
        // Pool far smaller than the data: most leaves are cold, so the
        // cursor must go through kick-fault / suspend / resume instead of
        // blocking, and still read every row correctly.
        let p = pool(24);
        let schema = Schema::new(vec![("v", ColType::I64), ("s", ColType::Str(8))]);
        let l = PaxLayout::for_schema(&schema);
        let m = Arc::new(Metrics::new(2));
        let t = BTree::create(p, TableId(1), TreeKind::Table, m.clone()).unwrap();
        let n = 20_000u64;
        for i in 1..=n {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        let before = m.snapshot();
        for i in (1..=n).step_by(513) {
            let (leaf, _, _) = drive(t.batch_cursor(&row_key(RowId(i)), false));
            let v = leaf
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present after eviction cycles");
            assert_eq!(v, Value::I64(i as i64));
        }
        let after = m.snapshot();
        assert!(
            after.counter(Counter::FaultSuspends) > before.counter(Counter::FaultSuspends),
            "cold reads must take the suspend path"
        );
        assert!(
            after.counter(Counter::PrefetchesIssued) > before.counter(Counter::PrefetchesIssued)
        );
    }

    #[test]
    fn table_survives_eviction_pressure() {
        // Pool far smaller than the data: leaves must cycle through the
        // Data Page File and come back intact.
        let (t, l) = table_tree(24);
        let n = 20_000u64;
        for i in 1..=n {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        let (reads, writes) = t.pool().io_counts();
        assert!(writes > 0, "eviction must have written pages");
        for i in (1..=n).step_by(513) {
            let v = t
                .table_read(RowId(i), |leaf, row, _, _| leaf.read_col(&l, row, 0))
                .unwrap()
                .expect("row present after eviction cycles");
            assert_eq!(v, Value::I64(i as i64));
        }
        let (reads2, _) = t.pool().io_counts();
        assert!(reads2 > reads, "point reads of cold rows must load pages");
    }

    #[test]
    fn index_survives_eviction_pressure() {
        let t = index_tree(24);
        let n = 30_000u64;
        for i in 0..n {
            t.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
        }
        for i in (0..n).step_by(997) {
            assert_eq!(t.index_get(&i.to_be_bytes()).unwrap(), Some(RowId(i)));
        }
        let (_, writes) = t.pool().io_counts();
        assert!(writes > 0);
    }

    #[test]
    fn concurrent_index_readers_and_writers() {
        let t = Arc::new(index_tree(512));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let k = (w * 1_000_000 + i).to_be_bytes();
                        t.index_insert(&k, RowId(i)).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..20_000u64 {
                        let k = (i % 2 * 1_000_000 + i % 5_000).to_be_bytes();
                        if t.index_get(&k).unwrap().is_some() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        // Everything inserted must be found afterwards.
        for w in 0..2u64 {
            for i in (0..5_000u64).step_by(111) {
                let k = (w * 1_000_000 + i).to_be_bytes();
                assert_eq!(t.index_get(&k).unwrap(), Some(RowId(i)));
            }
        }
    }

    #[test]
    fn concurrent_table_appenders_on_disjoint_trees() {
        // Two tables sharing one pool: appends must not interfere.
        let p = pool(128);
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let l = PaxLayout::for_schema(&schema);
        let m = Arc::new(Metrics::new(2));
        let t1 =
            Arc::new(BTree::create(p.clone(), TableId(1), TreeKind::Table, m.clone()).unwrap());
        let t2 = Arc::new(BTree::create(p, TableId(2), TreeKind::Table, m).unwrap());
        let h1 = {
            let (t, l) = (t1.clone(), l.clone());
            std::thread::spawn(move || {
                for i in 1..=5_000u64 {
                    t.table_append(&l, RowId(i), &[Value::I64(i as i64)], |_, _, _, _| {}).unwrap();
                }
            })
        };
        let h2 = {
            let (t, l) = (t2.clone(), l.clone());
            std::thread::spawn(move || {
                for i in 1..=5_000u64 {
                    t.table_append(&l, RowId(i), &[Value::I64(-(i as i64))], |_, _, _, _| {})
                        .unwrap();
                }
            })
        };
        h1.join().unwrap();
        h2.join().unwrap();
        let v1 = t1.table_read(RowId(4_999), |leaf, r, _, _| leaf.read_col(&l, r, 0)).unwrap();
        let v2 = t2.table_read(RowId(4_999), |leaf, r, _, _| leaf.read_col(&l, r, 0)).unwrap();
        assert_eq!(v1, Some(Value::I64(4_999)));
        assert_eq!(v2, Some(Value::I64(-4_999)));
    }

    #[test]
    fn sequential_workload_records_zero_restarts() {
        let p = pool(256);
        let metrics = Arc::new(Metrics::new(2));
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let layout = PaxLayout::for_schema(&schema);
        let t = BTree::create(p, TableId(1), TreeKind::Table, Arc::clone(&metrics)).unwrap();
        for i in 1..=2_000u64 {
            t.table_append(&layout, RowId(i), &[Value::I64(i as i64)], |_, _, _, _| {}).unwrap();
        }
        for i in (1..=2_000u64).step_by(37) {
            t.table_read(RowId(i), |leaf, r, _, _| leaf.read_col(&layout, r, 0)).unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(Counter::LatchRestarts), 0, "no interference, no restarts");
        assert_eq!(snap.latency(LatencySite::BtreeRestart).count(), 0);
    }

    #[test]
    fn restart_counter_matches_restart_latency_samples() {
        // Every descent restart must feed the counter AND the wasted-work
        // histogram exactly once (the observability layer treats them as
        // two views of the same event). Hammer point reads while an
        // appender forces splits (each split bumps versions on the path),
        // then check the two stay in lockstep.
        let p = pool(512);
        let metrics = Arc::new(Metrics::new(4));
        let schema = Schema::new(vec![("v", ColType::I64)]);
        let layout = PaxLayout::for_schema(&schema);
        let t =
            Arc::new(BTree::create(p, TableId(1), TreeKind::Table, Arc::clone(&metrics)).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 1u64;
                    // ORDERING: stop flag only gates loop exit.
                    while !stop.load(Ordering::Relaxed) {
                        let _ = t.table_read(RowId(i % 4_000 + 1), |_, _, _, _| ());
                        i += 1;
                    }
                })
            })
            .collect();
        for i in 1..=8_000u64 {
            t.table_append(&layout, RowId(i), &[Value::I64(i as i64)], |_, _, _, _| {}).unwrap();
        }
        // ORDERING: stop flag; the joins below order everything else.
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter(Counter::LatchRestarts),
            snap.latency(LatencySite::BtreeRestart).count(),
            "restart counter and restart latency samples must agree"
        );
    }

    /// Any cold child of the root, as `(slot swip, page id)`.
    fn find_cold_child(t: &BTree, root_fid: FrameId) -> Option<(Swip, phoebe_common::ids::PageId)> {
        let g = t.pool.frame(root_fid).latch.read();
        let Page::Inner(n) = &*g else { panic!("root is not inner") };
        (0..=n.count as usize).find_map(|i| {
            let s = Swip::from_raw(n.children[i]);
            match s.state() {
                SwipState::Cold(pid) => Some((s, pid)),
                _ => None,
            }
        })
    }

    /// PageId ABA across a suspended fault: while a batch cursor's read is
    /// in flight, the same page is faulted in by someone else, modified,
    /// and evicted back to the *same* PageId — restoring a byte-identical
    /// cold swip. The suspended cursor's install must reject its stale
    /// frame (fault-epoch mismatch) instead of clobbering the slot and
    /// losing the committed write.
    #[test]
    fn stale_fault_install_is_rejected_after_page_cycle() {
        let (t, l) = table_tree(256);
        for i in 1..=5_000u64 {
            t.table_append(&l, RowId(i), &tup(i), |_, _, _, _| {}).unwrap();
        }
        assert!(t.height() >= 2);
        let root_fid = {
            let root = t.meta.optimistic(|m| m.root).unwrap();
            let SwipState::Hot(f) = root.state() else { panic!("root not hot") };
            f
        };
        // Page one leaf out.
        let (cold, pid) = loop {
            for part in 0..t.pool.partition_count() {
                t.pool.stage_cooling(part, 8);
                let _ = t.pool.evict_one(part).unwrap();
            }
            if let Some(found) = find_cold_child(&t, root_fid) {
                break found;
            }
        };

        // Suspended cursor: epoch captured, loader reads the old bytes.
        let epoch0 = t.pool.fault_epoch(pid);
        let stale = t.pool.load_cold(pid, root_fid).unwrap();

        // Concurrent blocking descent wins the fault, a writer modifies a
        // row, and the page-swap duty evicts the page again.
        let fresh = t.pool.load_cold(pid, root_fid).unwrap();
        assert!(t.install_loaded(root_fid, cold, fresh, t.pool.fault_epoch(pid)).is_some());
        let victim = {
            let g = t.pool.frame(fresh).latch.read();
            let Page::TableLeaf(leaf) = &*g else { panic!("expected table leaf") };
            leaf.first_row_id().unwrap()
        };
        t.table_modify(victim, |leaf, row, _, _| leaf.write_col(&l, row, 0, &Value::I64(-7)))
            .unwrap()
            .expect("victim row present");
        let mut cycled = false;
        'out: for _ in 0..1_000 {
            for part in 0..t.pool.partition_count() {
                t.pool.stage_cooling(part, 8);
                let _ = t.pool.evict_one(part).unwrap();
            }
            let g = t.pool.frame(root_fid).latch.read();
            let Page::Inner(n) = &*g else { panic!("root is not inner") };
            for i in 0..=n.count as usize {
                if Swip::from_raw(n.children[i]).state() == SwipState::Cold(pid) {
                    cycled = true;
                    break 'out;
                }
            }
        }
        assert!(cycled, "page must evict back to the same PageId");

        // The resumed cursor's install must lose: its frame predates the
        // committed write even though the cold swip is byte-identical.
        assert!(
            t.install_loaded(root_fid, cold, stale, epoch0).is_none(),
            "stale frame installed over a cycled page (ABA)"
        );
        let v = t.table_read(victim, |leaf, row, _, _| leaf.read_col(&l, row, 0)).unwrap();
        assert_eq!(v, Some(Value::I64(-7)), "committed write lost to a stale install");
    }

    /// A suspended cursor's parent frame can be evicted and recycled as an
    /// unrelated inner node; `child_index` clamps, so the recycled node
    /// still "routes" any key to some slot. Slot-level revalidation must
    /// therefore refuse a parent whose reuse epoch moved since hop time,
    /// even if the re-read lands on the expected child frame.
    #[test]
    fn recycled_parent_frame_is_not_trusted_by_slot_revalidation() {
        let (t, _l) = table_tree(64);
        let route_to = |pfid: FrameId, leaf: FrameId| {
            let mut g = t.pool.frame(pfid).latch.write();
            let mut inner = InnerNode::default();
            inner.children[0] = Swip::hot(leaf).raw();
            *g = Page::Inner(inner);
        };
        let pfid = t.pool.allocate().unwrap();
        let leaf = t.pool.allocate().unwrap();
        *t.pool.frame(leaf).latch.write() = Page::TableLeaf(PaxLeaf::new());
        route_to(pfid, leaf);

        let mut cur = t.batch_cursor(b"k", false);
        cur.parent = ParentRef::Node(pfid);
        cur.parent_epoch = t.pool.frame(pfid).meta.reuse_epoch();
        assert!(cur.parent_routes_to(leaf), "live parent must pass slot revalidation");

        // Recycle pfid (release + reallocate) as a different inner node
        // that happens to route to the same child frame.
        t.pool.release(pfid);
        let mut held = Vec::new();
        let back = loop {
            let f = t.pool.allocate().unwrap();
            if f == pfid {
                break f;
            }
            held.push(f);
        };
        for f in held {
            t.pool.release(f);
        }
        route_to(back, leaf);
        assert!(
            !cur.parent_routes_to(leaf),
            "recycled parent frame accepted by slot revalidation (clamped routing)"
        );
    }
}
