//! The twin table: page-level tuple → version-chain mapping (§6.2).
//!
//! Appending a chain pointer to every tuple would waste space and inflate
//! recovery cost, because most tuples never have UNDO logs. Instead each
//! *page* that gets modified lazily grows a twin table mapping row ids to
//! chain heads; pages never written under MVCC have no twin table and their
//! tuples are trivially visible (Algorithm 1 line 1–2).
//!
//! The twin key is `(table, first_row_id_of_leaf)` — stable because table
//! leaves are append-only and never redistribute rows. A sharded registry
//! resolves page identity to its twin table; sharding keeps this off the
//! global-contention path the paper avoids.
//!
//! Both layers are built for the *clean read*: a visibility check on a
//! tuple with no in-flight or recent writer. Each lock shard (registry and
//! per-table) carries an atomic bloom-style summary of the keys it holds;
//! a reader whose key hashes to a zero bit learns "definitely absent"
//! from one atomic load and never touches the mutex. Only writers, and
//! readers of genuinely versioned tuples, serialize on a shard lock — and
//! sharding by row-id bits keeps even those mostly un-contended.

use crate::undo::UndoLog;
use phoebe_common::ids::{RowId, TableId, Timestamp};
use phoebe_common::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use phoebe_common::sync::{Arc, Rank, RankedMutex};
use std::collections::HashMap;

/// Page identity: the relation and the leaf's first row id.
pub type TwinKey = (TableId, RowId);

/// Lock shards inside one twin table (power of two). Rows of a leaf are
/// consecutive, so the low row-id bits spread them perfectly. Shrunk
/// under the loom model checker so exhaustive schedule enumeration stays
/// tractable — the protocol is shard-count-independent.
#[cfg(not(loom))]
const ENTRY_SHARDS: usize = 8;
#[cfg(loom)]
const ENTRY_SHARDS: usize = 2;

/// Fibonacci-hash mix for bloom-bit selection.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One lock shard: a guarded map plus an atomic bloom summary of the row
/// ids present. `summary == 0` means the shard is definitely empty; a set
/// bit means "possibly present — take the lock". Bits are set under the
/// shard lock and the whole word is reset to zero whenever the map drains,
/// so the summary never goes stale in the direction that matters (a clean
/// read can see a spurious 1, never a spurious 0 for a present key).
struct EntryShard {
    summary: AtomicU64,
    map: RankedMutex<HashMap<u64, Arc<UndoLog>>>,
}

impl EntryShard {
    fn new() -> Self {
        EntryShard {
            summary: AtomicU64::new(0),
            map: RankedMutex::new(Rank::TwinShard, "twin.entry_shard", HashMap::new()),
        }
    }
}

#[inline]
fn row_bloom_bit(row: u64) -> u64 {
    1u64 << (row.wrapping_mul(MIX) >> 58)
}

/// Per-page mapping from row id to version-chain head, plus the largest
/// writer XID (the twin GC watermark) the paper hangs off it.
pub struct TwinTable {
    shards: [EntryShard; ENTRY_SHARDS],
    /// Largest start-ts among writers that modified this page (§7.3).
    max_writer_start: AtomicU64,
    /// Set by registry GC after removal; writers that raced fetch a fresh
    /// table from the registry.
    dead: AtomicBool,
}

impl TwinTable {
    fn new() -> Arc<Self> {
        Arc::new(TwinTable {
            shards: std::array::from_fn(|_| EntryShard::new()),
            max_writer_start: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        })
    }

    #[inline]
    fn shard(&self, row: RowId) -> &EntryShard {
        &self.shards[row.raw() as usize & (ENTRY_SHARDS - 1)]
    }

    /// Version-chain head for `row`, if any. The common "clean tuple" case
    /// answers from the shard summary alone — no lock.
    pub fn head(&self, row: RowId) -> Option<Arc<UndoLog>> {
        let shard = self.shard(row);
        if shard.summary.load(Ordering::Acquire) & row_bloom_bit(row.raw()) == 0 {
            return None;
        }
        shard.map.lock().get(&row.raw()).cloned()
    }

    /// Install a new chain head. Returns false if this table was reclaimed
    /// concurrently (caller re-fetches from the registry and retries).
    #[must_use]
    pub fn set_head(&self, row: RowId, log: Arc<UndoLog>, writer_start: Timestamp) -> bool {
        let shard = self.shard(row);
        let mut map = shard.map.lock();
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        map.insert(row.raw(), log);
        shard.summary.fetch_or(row_bloom_bit(row.raw()), Ordering::Release);
        self.max_writer_start.fetch_max(writer_start, Ordering::AcqRel);
        true
    }

    /// Abort rollback: if `row`'s head is exactly `log`, replace it with
    /// the predecessor (or drop the entry).
    pub fn pop_head_if(&self, row: RowId, log: &Arc<UndoLog>) {
        let shard = self.shard(row);
        let mut map = shard.map.lock();
        if let Some(cur) = map.get(&row.raw()) {
            if Arc::ptr_eq(cur, log) {
                match log.next_version() {
                    Some(prev) if prev.is_valid() => {
                        map.insert(row.raw(), prev);
                    }
                    _ => {
                        map.remove(&row.raw());
                    }
                }
            }
        }
        if map.is_empty() {
            shard.summary.store(0, Ordering::Release);
        }
    }

    /// GC: drop the entry if its head is exactly `log` (the paper's
    /// pointer-validation-by-address, §7.3 remark). Once the head itself is
    /// globally visible, the base tuple alone serves every snapshot.
    pub fn clear_if_head(&self, row: RowId, log: &Arc<UndoLog>) {
        let shard = self.shard(row);
        let mut map = shard.map.lock();
        if let Some(cur) = map.get(&row.raw()) {
            if Arc::ptr_eq(cur, log) {
                map.remove(&row.raw());
            }
        }
        // Bloom bits can't be cleared individually (other rows may share
        // them); a drained shard resets the whole summary.
        if map.is_empty() {
            shard.summary.store(0, Ordering::Release);
        }
    }

    pub fn max_writer_start(&self) -> Timestamp {
        self.max_writer_start.load(Ordering::Acquire)
    }

    pub fn live_entries(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    /// Registry GC helper: atomically verify the table is empty and below
    /// the watermark, and if so mark it dead. Holds every shard lock for
    /// the check+mark so a racing `set_head` either landed before (some
    /// shard non-empty ⇒ not stale) or observes `dead` and retries against
    /// a fresh table from the registry.
    fn try_retire(&self, max_frozen_start: Timestamp) -> bool {
        let guards: Vec<_> = self.shards.iter().map(|s| s.map.lock()).collect();
        let stale = guards.iter().all(|m| m.is_empty())
            && self.max_writer_start.load(Ordering::Acquire) <= max_frozen_start;
        if stale {
            self.dead.store(true, Ordering::Release);
        }
        stale
    }
}

// Registry shard count; shrunk under loom like `ENTRY_SHARDS`.
#[cfg(not(loom))]
const SHARDS: usize = 64;
#[cfg(loom)]
const SHARDS: usize = 2;

/// One registry shard: guarded key→table map plus an atomic bloom summary
/// of the page keys present, so "page never written" reads skip the lock.
struct RegistryShard {
    summary: AtomicU64,
    map: RankedMutex<HashMap<TwinKey, Arc<TwinTable>>>,
}

/// Sharded registry resolving page identities to twin tables.
pub struct TwinRegistry {
    shards: Box<[RegistryShard]>,
}

impl Default for TwinRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn key_hash(key: &TwinKey) -> u64 {
    (key.0.raw() as u64 ^ key.1.raw()).wrapping_mul(MIX)
}

#[inline]
fn key_bloom_bit(h: u64) -> u64 {
    1u64 << ((h >> 32) & 63)
}

impl TwinRegistry {
    pub fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || RegistryShard {
            summary: AtomicU64::new(0),
            map: RankedMutex::new(Rank::TwinRegistry, "twin.registry_shard", HashMap::new()),
        });
        TwinRegistry { shards: shards.into_boxed_slice() }
    }

    #[inline]
    fn shard(&self, h: u64) -> &RegistryShard {
        &self.shards[(h >> 58) as usize % SHARDS]
    }

    /// The page's twin table, if it has one (Algorithm 1 line 2). Pages
    /// never modified under MVCC — the overwhelming majority — answer from
    /// the shard summary with a single atomic load and no lock.
    pub fn get(&self, key: TwinKey) -> Option<Arc<TwinTable>> {
        let h = key_hash(&key);
        let shard = self.shard(h);
        if shard.summary.load(Ordering::Acquire) & key_bloom_bit(h) == 0 {
            return None;
        }
        shard.map.lock().get(&key).cloned()
    }

    /// The page's twin table, created lazily on first modification (§6.2
    /// "a twin table is created if it doesn't already exist").
    pub fn get_or_create(&self, key: TwinKey) -> Arc<TwinTable> {
        let h = key_hash(&key);
        let shard = self.shard(h);
        let mut map = shard.map.lock();
        let t = Arc::clone(map.entry(key).or_insert_with(TwinTable::new));
        shard.summary.fetch_or(key_bloom_bit(h), Ordering::Release);
        t
    }

    /// Lock shards in the registry: the unit of one GC tick's twin-table
    /// retirement ([`TwinRegistry::reclaim_shard`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Twin-table GC (§7.3) over one registry shard: retire tables with no
    /// live entries whose largest writer is at or below the max-frozen
    /// watermark. Returns the number retired.
    pub fn reclaim_shard(&self, shard: usize, max_frozen_start: Timestamp) -> usize {
        let shard = &self.shards[shard];
        let mut map = shard.map.lock();
        let before = map.len();
        map.retain(|_, t| !t.try_retire(max_frozen_start));
        let reclaimed = before - map.len();
        if reclaimed > 0 {
            // Rebuild the summary from the survivors (still under the
            // shard lock, so no insert can race the recomputation).
            let mut summary = 0u64;
            for key in map.keys() {
                summary |= key_bloom_bit(key_hash(key));
            }
            shard.summary.store(summary, Ordering::Release);
        }
        reclaimed
    }

    /// Total registered twin tables (diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::TxnHandle;
    use crate::undo::UndoOp;
    use phoebe_common::ids::Xid;

    fn mklog(row: u64, ts: u64) -> Arc<UndoLog> {
        UndoLog::new(
            TableId(1),
            RowId(row),
            RowId(0),
            UndoOp::Insert,
            TxnHandle::new(Xid::from_start_ts(ts)),
            None,
        )
    }

    #[test]
    fn lazily_created_and_found() {
        let reg = TwinRegistry::new();
        let key = (TableId(1), RowId(100));
        assert!(reg.get(key).is_none());
        let t = reg.get_or_create(key);
        assert!(Arc::ptr_eq(&reg.get(key).unwrap(), &t));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn head_roundtrip_and_writer_watermark() {
        let reg = TwinRegistry::new();
        let t = reg.get_or_create((TableId(1), RowId(0)));
        let l = mklog(5, 42);
        assert!(t.set_head(RowId(5), Arc::clone(&l), 42));
        assert!(Arc::ptr_eq(&t.head(RowId(5)).unwrap(), &l));
        assert_eq!(t.max_writer_start(), 42);
        assert!(t.head(RowId(6)).is_none());
    }

    #[test]
    fn pop_head_if_restores_predecessor() {
        let t = TwinTable::new();
        let old = mklog(5, 1);
        old.stamp_commit(2);
        let new = UndoLog::new(
            TableId(1),
            RowId(5),
            RowId(0),
            UndoOp::Insert,
            TxnHandle::new(Xid::from_start_ts(3)),
            Some(Arc::clone(&old)),
        );
        assert!(t.set_head(RowId(5), Arc::clone(&new), 3));
        t.pop_head_if(RowId(5), &new);
        assert!(Arc::ptr_eq(&t.head(RowId(5)).unwrap(), &old));
        t.pop_head_if(RowId(5), &old);
        assert!(t.head(RowId(5)).is_none());
    }

    #[test]
    fn pop_head_if_ignores_non_head() {
        let t = TwinTable::new();
        let a = mklog(5, 1);
        let b = mklog(5, 2);
        assert!(t.set_head(RowId(5), Arc::clone(&a), 1));
        t.pop_head_if(RowId(5), &b); // not the head: no-op
        assert!(Arc::ptr_eq(&t.head(RowId(5)).unwrap(), &a));
    }

    #[test]
    fn clear_if_head_validates_by_address() {
        let t = TwinTable::new();
        let a = mklog(5, 1);
        let b = mklog(5, 2);
        assert!(t.set_head(RowId(5), Arc::clone(&a), 1));
        t.clear_if_head(RowId(5), &b);
        assert!(t.head(RowId(5)).is_some(), "different address: keep");
        t.clear_if_head(RowId(5), &a);
        assert!(t.head(RowId(5)).is_none());
    }

    /// Twin-table GC over every registry shard.
    fn reclaim_stale(reg: &TwinRegistry, max_frozen_start: Timestamp) -> usize {
        (0..reg.shard_count()).map(|s| reg.reclaim_shard(s, max_frozen_start)).sum()
    }

    #[test]
    fn reclaim_stale_respects_watermark_and_liveness() {
        let reg = TwinRegistry::new();
        let empty_old = reg.get_or_create((TableId(1), RowId(0)));
        empty_old.max_writer_start.store(5, Ordering::Release);
        let empty_young = reg.get_or_create((TableId(1), RowId(1000)));
        empty_young.max_writer_start.store(50, Ordering::Release);
        let live = reg.get_or_create((TableId(1), RowId(2000)));
        assert!(live.set_head(RowId(2000), mklog(2000, 7), 7));

        let n = reclaim_stale(&reg, 10);
        assert_eq!(n, 1, "only the empty old table goes");
        assert!(reg.get((TableId(1), RowId(0))).is_none());
        assert!(reg.get((TableId(1), RowId(1000))).is_some());
        assert!(reg.get((TableId(1), RowId(2000))).is_some());
    }

    #[test]
    fn set_head_fails_on_dead_table_so_caller_retries() {
        let reg = TwinRegistry::new();
        let key = (TableId(1), RowId(0));
        let t = reg.get_or_create(key);
        assert_eq!(reclaim_stale(&reg, u64::MAX >> 2), 1);
        assert!(!t.set_head(RowId(1), mklog(1, 1), 1), "dead table rejects");
        // A fresh table from the registry works.
        let t2 = reg.get_or_create(key);
        assert!(t2.set_head(RowId(1), mklog(1, 1), 1));
    }

    #[test]
    fn clean_read_fast_path_after_drain() {
        let t = TwinTable::new();
        // Many rows in one shard, then drain: the summary resets and the
        // lock-free miss path serves every row again.
        let logs: Vec<_> = (0..32u64).map(|i| mklog(i * 8, i + 1)).collect();
        for (i, l) in logs.iter().enumerate() {
            assert!(t.set_head(RowId(i as u64 * 8), Arc::clone(l), i as u64 + 1));
        }
        assert_eq!(t.live_entries(), 32);
        for (i, l) in logs.iter().enumerate() {
            t.clear_if_head(RowId(i as u64 * 8), l);
        }
        assert_eq!(t.live_entries(), 0);
        assert_eq!(t.shards[0].summary.load(Ordering::Acquire), 0);
        assert!(t.head(RowId(0)).is_none());
    }

    #[test]
    fn registry_summary_rebuilt_after_reclaim() {
        let reg = TwinRegistry::new();
        // Two keys, drive one stale and reclaim it; the other must still
        // be reachable through the (rebuilt) summary.
        let _stale = reg.get_or_create((TableId(1), RowId(0)));
        let live = reg.get_or_create((TableId(1), RowId(64)));
        assert!(live.set_head(RowId(64), mklog(64, 9), 9));
        assert_eq!(reclaim_stale(&reg, u64::MAX >> 2), 1);
        assert!(reg.get((TableId(1), RowId(0))).is_none());
        assert!(reg.get((TableId(1), RowId(64))).is_some());
    }
}
