//! A latched leaf, and the leaf-local half of every tree operation.
//!
//! Every descent — blocking or resumable — ends in a [`LatchedLeaf`], so
//! what happens *inside* the leaf (find the row, run the caller's
//! closure, touch/dirty bookkeeping) is written once here. The two
//! inserting operations are [`LeafOp`]s: the optimistic fast path applies
//! them to the leaf it descended to, and the pessimistic crab
//! (`smo.rs`) applies the same op to the leaf it crabbed to, or makes it
//! room.

use super::{row_key, BTree};
use crate::latch::{ReadGuard, WriteGuard};
use crate::node::{IndexLeaf, Page, WidthMismatch};
use crate::pax::{PaxLayout, PaxLeaf};
use crate::schema::Value;
use crate::swip::FrameId;
use phoebe_common::error::{PhoebeError, Result};
use phoebe_common::ids::RowId;

enum LeafGuard<'a> {
    Read(ReadGuard<'a, Page>),
    Write(WriteGuard<'a, Page>),
}

/// The leaf a descent arrived at, latched shared or exclusive: the
/// leaf-local entry points, with the touch/dirty bookkeeping kept inside
/// the storage crate. Dropping it releases the latch.
pub struct LatchedLeaf<'t> {
    tree: &'t BTree,
    pub(super) fid: FrameId,
    guard: LeafGuard<'t>,
}

impl<'t> LatchedLeaf<'t> {
    /// Latch frame `fid` as a leaf of `tree`. Whether it *is* the leaf
    /// the caller wants is the caller's to validate, under this latch.
    pub(super) fn latch(tree: &'t BTree, fid: FrameId, write: bool) -> Self {
        let latch = &tree.pool.frame(fid).latch;
        let guard =
            if write { LeafGuard::Write(latch.write()) } else { LeafGuard::Read(latch.read()) };
        LatchedLeaf { tree, fid, guard }
    }

    fn page(&self) -> &Page {
        match &self.guard {
            LeafGuard::Read(g) => g,
            LeafGuard::Write(g) => g,
        }
    }

    fn page_mut(&mut self) -> &mut Page {
        match &mut self.guard {
            LeafGuard::Read(_) => panic!("page_mut on a shared guard"),
            LeafGuard::Write(g) => g,
        }
    }

    pub(super) fn table_leaf(&self) -> Result<&PaxLeaf> {
        match self.page() {
            Page::TableLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("table descend hit non-table leaf")),
        }
    }

    fn table_leaf_mut(&mut self) -> Result<&mut PaxLeaf> {
        match self.page_mut() {
            Page::TableLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("table descend hit non-table leaf")),
        }
    }

    pub(super) fn index_leaf(&self) -> Result<&IndexLeaf> {
        match self.page() {
            Page::IndexLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("index descend hit non-index leaf")),
        }
    }

    fn index_leaf_mut(&mut self) -> Result<&mut IndexLeaf> {
        match self.page_mut() {
            Page::IndexLeaf(leaf) => Ok(leaf),
            _ => Err(PhoebeError::internal("index descend hit non-index leaf")),
        }
    }

    /// Read `row_id` in this leaf. `f` also receives the leaf's first row
    /// id — the stable page identity twin tables key on.
    pub fn table_read<R>(
        &self,
        row_id: RowId,
        f: impl FnOnce(&PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        let leaf = self.table_leaf()?;
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, self.fid)
        });
        if out.is_some() {
            self.tree.pool.touch(self.fid);
        }
        Ok(out)
    }

    /// Mutate `row_id` in this leaf (requires an exclusive latch).
    pub fn table_modify<R>(
        &mut self,
        row_id: RowId,
        f: impl FnOnce(&mut PaxLeaf, usize, RowId, FrameId) -> R,
    ) -> Result<Option<R>> {
        let (tree, fid) = (self.tree, self.fid);
        let leaf = self.table_leaf_mut()?;
        let out = leaf.find(row_id).map(|row| {
            let first = leaf.first_row_id().expect("non-empty leaf");
            f(leaf, row, first, fid)
        });
        if out.is_some() {
            tree.mark_dirty(fid);
            tree.pool.touch(fid);
        }
        Ok(out)
    }

    /// Exact lookup in this index leaf.
    pub fn index_get(&self, key: &[u8]) -> Result<Option<RowId>> {
        Ok(self.index_leaf()?.get(key).map(RowId))
    }

    /// Remove `key` from this index leaf if it maps to `row`; whether it
    /// did.
    pub(super) fn index_remove(&mut self, key: &[u8], row: RowId) -> Result<bool> {
        let removed = self.index_leaf_mut()?.remove(key, row.raw());
        if removed {
            self.tree.mark_dirty(self.fid);
        }
        Ok(removed)
    }
}

/// An insert, seen from the leaf it lands in.
pub(super) trait LeafOp {
    type Out;

    /// Frames the crab sets aside before it latches anything.
    const RESERVE: usize;

    /// Do the insert if `leaf` (exclusively latched) has room. `Ok(None)`:
    /// it is full and nothing was changed.
    fn apply(&mut self, leaf: &mut LatchedLeaf<'_>) -> Result<Option<Self::Out>>;

    /// `full` has no room and the caller holds its parent exclusively:
    /// build the right sibling that will live in frame `new_fid`, with the
    /// insert already done on whichever side it belongs. Returns the
    /// sibling, the separator between the two, and the insert's outcome —
    /// which the caller reports only once the sibling is linked in, since
    /// `full` may already have given half its entries to it.
    fn overflow(
        &mut self,
        full: &mut LatchedLeaf<'_>,
        new_fid: FrameId,
    ) -> Result<(Page, Vec<u8>, Result<Self::Out>)>;
}

/// Append a tuple to the rightmost table leaf under a row id drawn
/// *inside* that leaf's exclusive latch, so allocation order equals append
/// order — the invariant behind the monotonically increasing row-id key
/// (§5.1). Yields `(row_id, leaf frame, first row id)`.
pub(super) struct TableAppend<'a, F> {
    pub layout: &'a PaxLayout,
    pub alloc: &'a (dyn Fn() -> RowId + Sync),
    pub tuple: &'a [Value],
    /// Runs right after the append while the leaf is still exclusively
    /// latched (twin install); `None` once it has.
    pub under_latch: Option<F>,
}

impl<F: FnOnce(&mut PaxLeaf, usize, RowId, FrameId)> TableAppend<'_, F> {
    fn append_to(&mut self, leaf: &mut PaxLeaf, fid: FrameId) -> (RowId, FrameId, RowId) {
        let row_id = (self.alloc)();
        let idx = leaf.append(self.layout, row_id, self.tuple);
        let first = leaf.first_row_id().expect("non-empty leaf");
        let under_latch = self.under_latch.take().expect("a table append lands once");
        under_latch(leaf, idx, first, fid);
        (row_id, fid, first)
    }
}

impl<F: FnOnce(&mut PaxLeaf, usize, RowId, FrameId)> LeafOp for TableAppend<'_, F> {
    type Out = (RowId, FrameId, RowId);
    const RESERVE: usize = 6;

    fn apply(&mut self, leaf: &mut LatchedLeaf<'_>) -> Result<Option<Self::Out>> {
        let (tree, fid) = (leaf.tree, leaf.fid);
        let page = leaf.table_leaf_mut()?;
        if page.is_full(self.layout) {
            return Ok(None);
        }
        let out = self.append_to(page, fid);
        tree.mark_dirty(fid);
        Ok(Some(out))
    }

    /// Table splits never move rows: the sibling is a fresh leaf holding
    /// only the new tuple. The row id drawn here is strictly greater than
    /// everything appended so far — the parent is held, and the old
    /// rightmost leaf is full.
    fn overflow(
        &mut self,
        full: &mut LatchedLeaf<'_>,
        new_fid: FrameId,
    ) -> Result<(Page, Vec<u8>, Result<Self::Out>)> {
        full.table_leaf()?;
        let mut fresh = PaxLeaf::new();
        let out = self.append_to(&mut fresh, new_fid);
        Ok((Page::TableLeaf(fresh), row_key(out.0).to_vec(), Ok(out)))
    }
}

/// Insert `(key, row_id)` into an index leaf; `Err(DuplicateKey)` if the
/// key exists.
pub(super) struct IndexInsert<'a> {
    pub key: &'a [u8],
    pub row_id: RowId,
}

impl IndexInsert<'_> {
    fn insert_into(&self, leaf: &mut IndexLeaf, tree: &BTree) -> Result<()> {
        match leaf.insert(self.key, self.row_id.raw()) {
            Ok(true) => Ok(()),
            Ok(false) => Err(PhoebeError::DuplicateKey { index: tree.table }),
            Err(e) => Err(tree.width_mismatch(e)),
        }
    }
}

impl LeafOp for IndexInsert<'_> {
    type Out = ();
    const RESERVE: usize = 8;

    fn apply(&mut self, leaf: &mut LatchedLeaf<'_>) -> Result<Option<()>> {
        let (tree, fid) = (leaf.tree, leaf.fid);
        let page = leaf.index_leaf_mut()?;
        if page.is_full() {
            if page.width() != self.key.len() {
                return Err(
                    tree.width_mismatch(WidthMismatch { width: page.width(), got: self.key.len() })
                );
            }
            return Ok(None);
        }
        self.insert_into(page, tree)?;
        tree.mark_dirty(fid);
        tree.pool.touch(fid);
        Ok(Some(()))
    }

    fn overflow(
        &mut self,
        full: &mut LatchedLeaf<'_>,
        _new_fid: FrameId,
    ) -> Result<(Page, Vec<u8>, Result<()>)> {
        let (tree, fid) = (full.tree, full.fid);
        let left = full.index_leaf_mut()?;
        let (mut right, sep) = left.split(self.key);
        let half = if self.key >= sep.as_slice() { &mut right } else { left };
        let out = self.insert_into(half, tree);
        tree.mark_dirty(fid);
        Ok((Page::IndexLeaf(right), sep, out))
    }
}
