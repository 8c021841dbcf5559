//! Structure modifications: the one pessimistic crab.
//!
//! An insert whose leaf is full leaves the optimistic path and comes here.
//! The crab holds the tree-meta latch for its whole run (one structure
//! modification per tree at a time), walks down `key`'s path coupling
//! exclusive latches, and splits every full inner node it passes
//! *preemptively*, so a split below always finds room for its separator
//! in the node above. It coexists with optimistic readers simply by
//! bumping the versions of what it latches. At the leaf it hands over to
//! the [`LeafOp`]: insert if there is room after all, else build the right
//! sibling — a fresh rightmost leaf for a table append, the upper half
//! for an index insert.

use super::leaf::{LatchedLeaf, LeafOp};
use super::{BTree, TreeMeta};
use crate::buffer::{FrameReserve, NO_PARENT};
use crate::node::{InnerNode, Page};
use crate::swip::{FrameId, Swip, SwipState};
use phoebe_common::error::{PhoebeError, Result};
use std::sync::atomic::Ordering;

impl BTree {
    pub(super) fn crab<O: LeafOp>(&self, key: &[u8], mut op: O) -> Result<O::Out> {
        // Pre-reserve frames before taking any latch: allocating under an
        // exclusive latch would starve eviction of every child of that node.
        let mut reserve = self.pool.reserve(O::RESERVE);
        let mut meta = self.meta.write();
        if meta.height == 1 {
            let root_fid = meta.root.frame().expect("root is always hot");
            let mut root = LatchedLeaf::latch(self, root_fid, true);
            if let Some(out) = op.apply(&mut root)? {
                return Ok(out);
            }
            drop(root);
            // A full root leaf gets an inner root above it and is from
            // then on a full leaf like any other.
            self.grow_root(&mut meta, &mut reserve, root_fid, None)?;
        }
        let mut cur = meta.root.frame().expect("root is always hot");
        let mut level = meta.height;
        let mut guard = self.pool.frame(cur).latch.write();
        loop {
            let Page::Inner(n) = &mut *guard else {
                return Err(PhoebeError::internal(
                    "crab met a non-inner page above the leaf level",
                ));
            };
            if n.is_full() {
                let right_fid = reserve.take()?;
                let sep = self.split_inner(n, right_fid);
                self.publish_split(&mut meta, &mut reserve, cur, &sep, right_fid)?;
                // Re-route: the key may now belong right of the split.
                if key >= sep.as_slice() {
                    cur = right_fid;
                    guard = self.pool.frame(cur).latch.write();
                }
                continue;
            }
            let idx = n.child_index(key);
            let next = match Swip::from_raw(n.child(idx)).state() {
                SwipState::Hot(f) | SwipState::Cooling(f) => f,
                SwipState::Cold(pid) => {
                    let f = reserve.take()?;
                    self.pool.read_into_frame(f, pid, cur)?;
                    n.set_child(idx, Swip::hot(f).raw());
                    self.mark_dirty(cur);
                    f
                }
            };
            if level > 2 {
                let next_guard = self.pool.frame(next).latch.write();
                cur = next;
                guard = next_guard;
                level -= 1;
                continue;
            }
            // The child is the leaf; `n`, its parent, stays latched.
            let mut leaf = LatchedLeaf::latch(self, next, true);
            if let Some(out) = op.apply(&mut leaf)? {
                return Ok(out);
            }
            let new_fid = reserve.take()?;
            let (sibling, sep, out) = op.overflow(&mut leaf, new_fid)?;
            *self.pool.frame(new_fid).latch.write() = sibling;
            self.pool.frame(new_fid).meta.parent.store(cur, Ordering::Relaxed);
            n.insert_separator(idx, &sep, Swip::hot(new_fid).raw())
                .map_err(|e| self.width_mismatch(e))?;
            self.mark_dirty(cur);
            self.mark_dirty(new_fid);
            return out;
        }
    }

    /// Split the exclusively held inner node `n` into frame `right_fid`;
    /// returns the promoted separator. Updates the moved children's parent
    /// hints.
    fn split_inner(&self, n: &mut InnerNode, right_fid: FrameId) -> Vec<u8> {
        let (right, sep) = n.split();
        for child in right.children() {
            if let Some(f) = Swip::from_raw(child).frame() {
                self.pool.frame(f).meta.parent.store(right_fid, Ordering::Relaxed);
            }
        }
        *self.pool.frame(right_fid).latch.write() = Page::Inner(right);
        self.mark_dirty(right_fid);
        sep
    }

    /// `left` (exclusively held by the caller) has split off `right` at
    /// `sep`: put the separator into its parent, which has room by the
    /// preemptive-split invariant — or, if `left` was the root, grow a new
    /// root over the two.
    fn publish_split(
        &self,
        meta: &mut TreeMeta,
        reserve: &mut FrameReserve,
        left: FrameId,
        sep: &[u8],
        right: FrameId,
    ) -> Result<()> {
        let parent = self.pool.frame(left).meta.parent.load(Ordering::Relaxed);
        if parent == NO_PARENT {
            return self.grow_root(meta, reserve, left, Some((sep, right)));
        }
        let mut pguard = self.pool.frame(parent).latch.write();
        let Page::Inner(pnode) = &mut *pguard else {
            return Err(PhoebeError::internal("parent hint corrupt"));
        };
        let slot = pnode
            .find_child_slot(Swip::hot(left).raw())
            .ok_or_else(|| PhoebeError::internal("child slot missing"))?;
        pnode
            .insert_separator(slot, sep, Swip::hot(right).raw())
            .map_err(|e| self.width_mismatch(e))?;
        self.pool.frame(right).meta.parent.store(parent, Ordering::Relaxed);
        self.mark_dirty(parent);
        Ok(())
    }

    /// Put a new inner root above the old root `left` — and above the
    /// `(separator, right sibling)` it just split off, if any. The caller
    /// holds the meta latch exclusively.
    fn grow_root(
        &self,
        meta: &mut TreeMeta,
        reserve: &mut FrameReserve,
        left: FrameId,
        split: Option<(&[u8], FrameId)>,
    ) -> Result<()> {
        let new_root = reserve.take()?;
        let mut inner = InnerNode::default();
        inner.set_child(0, Swip::hot(left).raw());
        self.pool.frame(left).meta.parent.store(new_root, Ordering::Relaxed);
        if let Some((sep, right)) = split {
            inner
                .insert_separator(0, sep, Swip::hot(right).raw())
                .map_err(|e| self.width_mismatch(e))?;
            self.pool.frame(right).meta.parent.store(new_root, Ordering::Relaxed);
        }
        *self.pool.frame(new_root).latch.write() = Page::Inner(inner);
        self.pool.frame(new_root).meta.parent.store(NO_PARENT, Ordering::Relaxed);
        self.mark_dirty(new_root);
        meta.root = Swip::hot(new_root);
        meta.height += 1;
        Ok(())
    }
}
