//! The swizzling B-Tree (§5.1, §5.3).
//!
//! Each relation is one B-Tree rooted in Main Storage. Table trees are
//! keyed by the monotonically increasing row id (big-endian encoded so byte
//! order equals numeric order); index trees map arbitrary byte keys to row
//! ids. Child references are swips, so a hot traversal never consults a
//! mapping table — the paper's replacement for the global buffer hash map.
//!
//! Concurrency follows the paper's hybrid lock strategy (§7.2), and each
//! part of it is written once:
//!
//! * [`descent`] — optimistic lock coupling: one hop (read versions,
//!   validate the parent, restart on interference), driven either to
//!   completion on the calling thread or one suspendable step at a time;
//! * [`leaf`] — what happens under the shared or exclusive latch of the
//!   leaf a descent delivers, the same whichever way it was driven;
//! * [`smo`] — structure modifications: one pessimistic crab that holds
//!   the tree-meta latch and couples exclusive latches with preemptive
//!   splitting, so it coexists with optimistic readers simply by bumping
//!   versions.
//!
//! Every operation below is "descend, then act on the leaf"; an insert
//! that finds its leaf full re-runs on the crab.
//!
//! Two invariants keep swizzling sound:
//! * **single parent** — every swip value (hot frame id or cold page id)
//!   appears in exactly one child slot, so eviction/loading can relocate a
//!   page by searching the (validated) parent for the exact swip value;
//! * **append-only table leaves** — table splits never move rows, they add
//!   a fresh rightmost leaf; a table leaf's row-id range is immutable,
//!   giving upper layers a stable page identity for twin tables (§6.2).

mod descent;
mod leaf;
mod smo;
#[cfg(test)]
mod tests;

pub use descent::{DescentCursor, DescentStep};
pub use leaf::LatchedLeaf;

use crate::buffer::{BufferPool, NO_PARENT};
use crate::latch::HybridLatch;
use crate::node::{IndexLeaf, Page, WidthMismatch, KEY_CAP};
use crate::pax::{PaxLayout, PaxLeaf};
use crate::schema::Value;
use crate::smallkey::SmallKey;
use crate::swip::{FrameId, Swip};
use leaf::{IndexInsert, LeafOp, TableAppend};
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::ids::{RowId, TableId};
use phoebe_common::metrics::Metrics;
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
    meta: HybridLatch<TreeMeta>,
    metrics: Arc<Metrics>,
}

/// Encode a row id as a byte-comparable table key.
#[inline]
pub fn row_key(row: RowId) -> [u8; 8] {
    row.raw().to_be_bytes()
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
            meta: HybridLatch::new(TreeMeta { root: Swip::hot(root), height: 1 }),
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

    /// Open a resumable point-lookup descent for `key`: the same hop as
    /// every blocking operation below, driven by [`DescentCursor::step`],
    /// which suspends between hops (after prefetching the next node) and
    /// on cold-page faults (after kicking the read to the background
    /// loader), so a batch of cursors can overlap each other's cache
    /// misses and disk I/O. `write` selects the leaf latch mode.
    pub fn batch_cursor(&self, key: &[u8], write: bool) -> DescentCursor<'_> {
        self.cursor(SmallKey::from_slice(key), write, false)
    }

    fn leaf_for(&self, key: &[u8], write: bool) -> Result<LatchedLeaf<'_>> {
        Ok(self.cursor(key, write, false).run()?.0)
    }

    /// A stored key whose width is not the tree's, as a typed error.
    fn width_mismatch(&self, e: WidthMismatch) -> PhoebeError {
        let WidthMismatch { width, got } = e;
        let detail = format!("{got}-byte key in a tree of {width}-byte keys (cap {KEY_CAP})");
        PhoebeError::SchemaMismatch { table: self.table, detail }
    }

    fn mark_dirty(&self, fid: FrameId) {
        self.pool.frame(fid).meta.dirty.store(true, Ordering::Relaxed);
    }

    /// Run `op` on the leaf responsible for `key`: optimistically while
    /// the leaf has room, on the crab once it does not.
    fn insert<O: LeafOp>(&self, key: &[u8], mut op: O) -> Result<O::Out> {
        let fast = op.apply(&mut self.leaf_for(key, true)?)?;
        match fast {
            Some(out) => Ok(out),
            None => self.crab(key, op),
        }
    }

    /// Visit the leaves from the one responsible for `low` rightwards,
    /// one shared latch at a time, resuming across leaves via the
    /// descent's next-separator fence key. `visit` gets the key the leaf
    /// was reached by and returns `false` to stop; the walk also stops
    /// before a leaf whose every key exceeds `high`.
    fn scan_leaves(
        &self,
        low: &[u8],
        high: Option<&[u8]>,
        mut visit: impl FnMut(&LatchedLeaf<'_>, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let mut lo = SmallKey::from_slice(low);
        loop {
            let (leaf, next) = self.cursor(&*lo, false, true).run()?;
            if !visit(&leaf, &lo)? {
                return Ok(());
            }
            drop(leaf);
            match next {
                Some(s) if high.is_none_or(|h| s.as_slice() <= h) => lo = s,
                _ => return Ok(()),
            }
        }
    }

    // ------------------------------------------------------------------
    // Table operations
    // ------------------------------------------------------------------

    /// Append a tuple under a row id drawn *inside* the rightmost leaf's
    /// exclusive latch, so allocation order equals append order — the
    /// invariant behind the monotonically increasing row-id key (§5.1).
    /// Returns `(row_id, leaf frame, first row id)` — the first row id is
    /// the page identity the twin table keys on. `under_latch` runs right
    /// after the append while the leaf is still exclusively latched —
    /// MVCC uses it to install the twin entry before the tuple becomes
    /// readable.
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
        let under_latch = Some(under_latch);
        self.insert(&MAX_KEY_SENTINEL, TableAppend { layout, alloc, tuple, under_latch })
    }

    /// [`BTree::table_append_alloc`] under a row id the caller already
    /// holds (loader, recovery); it must exceed every existing row id.
    /// Returns the leaf frame and its first row id.
    pub fn table_append(
        &self,
        layout: &PaxLayout,
        row_id: RowId,
        tuple: &[Value],
        under_latch: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId),
    ) -> Result<(FrameId, RowId)> {
        let (_, fid, first) = self.table_append_alloc(layout, &|| row_id, tuple, under_latch)?;
        Ok((fid, first))
    }

    /// Read `row_id` under a shared leaf latch. `f` also receives the
    /// leaf's first row id — the stable page identity twin tables key on.
    pub fn table_read<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        self.leaf_for(&row_key(row_id), false)?.table_read(row_id, f)
    }

    /// Mutate the row under an exclusive leaf latch (in-place update path).
    pub fn table_modify<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        self.leaf_for(&row_key(row_id), true)?.table_modify(row_id, f)
    }

    /// Visit every leaf left-to-right under shared latches (one at a time).
    /// `f` returns `false` to stop early. Used by temperature scans (§5.2).
    pub fn table_for_each_leaf(&self, mut f: impl FnMut(FrameId, &PaxLeaf) -> bool) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Table);
        self.scan_leaves(&[0u8; 8], None, |leaf, _| Ok(f(leaf.fid, leaf.table_leaf()?)))
    }

    // ------------------------------------------------------------------
    // Index operations
    // ------------------------------------------------------------------

    /// Insert `(key, row_id)`; `Err(DuplicateKey)` if the key exists.
    pub fn index_insert(&self, key: &[u8], row_id: RowId) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        self.insert(key, IndexInsert { key, row_id })
    }

    /// Exact lookup.
    pub fn index_get(&self, key: &[u8]) -> Result<Option<RowId>> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        self.leaf_for(key, false)?.index_get(key)
    }

    /// Remove `key`; returns the row id it mapped to.
    pub fn index_remove(&self, key: &[u8]) -> Result<Option<RowId>> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        self.leaf_for(key, true)?.index_remove(key)
    }

    /// Visit entries with `low <= key <= high` in order; `f` returns
    /// `false` to stop. Latches one leaf at a time.
    pub fn index_range(
        &self,
        low: &[u8],
        high: &[u8],
        mut f: impl FnMut(&[u8], RowId) -> bool,
    ) -> Result<()> {
        debug_assert_eq!(self.kind, TreeKind::Index);
        let mut buf = [0; KEY_CAP];
        self.scan_leaves(low, Some(high), |leaf, lo| {
            let leaf = leaf.index_leaf()?;
            for i in leaf.lower_bound(lo)..leaf.len() {
                let k = leaf.key_into(i, &mut buf);
                if k > high || !f(k, RowId(leaf.row_id(i))) {
                    return Ok(false);
                }
            }
            Ok(true)
        })
    }
}
