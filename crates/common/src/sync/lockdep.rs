//! Kernel lockdep: declared lock ranks plus (under `--features lockdep`)
//! runtime acquisition-order enforcement, Linux-lockdep style.
//!
//! Every kernel `Mutex`/`RwLock` is constructed through [`RankedMutex`] /
//! [`RankedRwLock`] and declares a [`Rank`] and a class name at the
//! construction site. Release builds compile the wrappers down to the
//! plain shim lock — no extra fields, no extra branches. With the
//! `lockdep` feature on (debug/CI), two checkers run on every blocking
//! acquisition:
//!
//! 1. **Per-thread held-rank stack.** Acquiring a lock whose rank is
//!    *below* the highest rank already held on the calling thread panics
//!    immediately, naming both locks and both acquisition sites. Equal
//!    ranks are allowed across *distinct* classes (the wait-for graph
//!    arbitrates those), and within the *same* class only for ranks that
//!    declare self-nesting ([`Rank::allows_self_nesting`]) — e.g. B-tree
//!    parent/child latch coupling, or `try_retire` holding every twin
//!    entry shard at once.
//! 2. **Process-global wait-for graph.** Each acquisition records an
//!    edge from every lock class held on this thread to the class being
//!    acquired. A cycle in that graph is a potential deadlock even if no
//!    single thread ever looks locally inconsistent (A→B on one thread,
//!    B→A on another, never co-held); closing a cycle panics with the
//!    full class chain and first-seen sites.
//!
//! `try_*` acquisitions never block, so they can never be the waiting
//! side of a deadlock: they skip both checks but still push onto the
//! held stack so later *blocking* acquisitions are checked against them.
//! This is what makes deliberate out-of-order `try_write` (eviction
//! probing victim frames) legal.
//!
//! Under `--cfg loom` the wrappers are thin pass-throughs over the loom
//! primitives with no tracking: loom explores tiny bounded schedules
//! where the ordering discipline is the *subject* of other tests, and
//! global statics do not fit the model-checker lifecycle. The wait-for
//! graph structure itself (`WaitForGraph`) does compile under loom so
//! the `loom_lockdep` suite can verify it is race-free.
//!
//! See DESIGN.md "Lock ordering" for the rank lattice and waiver policy.

#![allow(clippy::new_without_default)]

use super::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use core::fmt;
use core::ops::{Deref, DerefMut};

use super::Condvar;

/// Total rank order for kernel locks, lowest acquired first.
///
/// Discriminants are spaced so future ranks can slot in without
/// renumbering. A blocking acquisition must never descend this order
/// while another kernel lock is held. The lattice and the reason each
/// edge exists are documented in DESIGN.md "Lock ordering".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Rank {
    /// `Database` control-plane state: name map, DDL log, runtime handle,
    /// telemetry/watchdog slots (`core/db.rs`).
    Db = 10,
    /// Catalog/table registry state (`core/catalog.rs`).
    Catalog = 15,
    /// Hybrid-latch internals guarding frame payloads. Low in the order:
    /// tuple operations hold a leaf latch while consulting twin tables,
    /// UNDO chains, the buffer pool, and the WAL. Self-nesting:
    /// parent/child latch coupling during B-tree descent and SMOs
    /// (`storage/latch.rs`).
    FrameMeta = 25,
    /// Twin-table registry shards — consulted under leaf latches; held
    /// while retiring tables, which takes entry-shard locks underneath
    /// (`txn/twin.rs`).
    TwinRegistry = 30,
    /// Twin-table entry shards. Self-nesting: `try_retire` holds every
    /// shard of one table simultaneously (`txn/twin.rs`).
    TwinShard = 35,
    /// Slot-local UNDO arena free queue (`txn/undo.rs`).
    UndoArena = 40,
    /// UNDO log chain links (`txn/undo.rs`).
    UndoLink = 45,
    /// Buffer-pool control state: WAL barrier hook, fault-service sender —
    /// consulted during eviction while frame latches are held
    /// (`storage/buffer.rs`).
    BufferPool = 50,
    /// Buffer partition free/cooling lists — taken under frame latches on
    /// the eviction/release paths (`storage/buffer.rs`).
    BufferPartition = 55,
    /// Page-file free-page list (`storage/pagefile.rs`).
    PageFile = 60,
    /// Frozen-tier block directory and tombstones (`storage/tier/frozen.rs`).
    FrozenTier = 65,
    /// Page-fault service tickets (`storage/fault_service.rs`).
    FaultService = 70,
    /// WAL hub control state: flusher handle, horizon probe
    /// (`wal/writer.rs`).
    WalHub = 75,
    /// Per-slot WAL writer buffers (`wal/writer.rs`). Self-nesting: a
    /// group-commit round holds every slot's buffer at once.
    WalSlot = 80,
    /// WAL commit bell: the flusher's ring count and the parked
    /// durability waits; rung under frame latches by eviction, drained
    /// under the hub's round lock by a failed round (`wal/writer.rs`).
    WalDoorbell = 82,
    /// Runtime shared control state: worker-thread registry, hooks
    /// (`runtime/runtime.rs`).
    RuntimeShared = 88,
    /// Per-worker injection queues (`runtime/runtime.rs`).
    RuntimeQueue = 90,
    /// Timer wheel state (`runtime/timer.rs`).
    Timer = 95,
    /// Async notification waiter lists — near-leaf: signalled from many
    /// subsystems while their own locks are held (`runtime/notify.rs`).
    Notify = 100,
    /// Join-handle result slots — terminal hand-off, nothing is acquired
    /// under them (`runtime/task.rs`).
    JoinTask = 105,
    /// True leaves: diagnostics and miscellany that never acquire
    /// another kernel lock while held.
    Leaf = 110,
}

impl Rank {
    /// Every rank, in ascending order. The static lock-order pass
    /// (`cargo xtask lint-kernel`) resolves `Rank::<Name>` tokens it finds
    /// at construction sites against this table, so rank values are never
    /// duplicated outside this file.
    pub const ALL: [Rank; 21] = [
        Rank::Db,
        Rank::Catalog,
        Rank::FrameMeta,
        Rank::TwinRegistry,
        Rank::TwinShard,
        Rank::UndoArena,
        Rank::UndoLink,
        Rank::BufferPool,
        Rank::BufferPartition,
        Rank::PageFile,
        Rank::FrozenTier,
        Rank::FaultService,
        Rank::WalHub,
        Rank::WalSlot,
        Rank::WalDoorbell,
        Rank::RuntimeShared,
        Rank::RuntimeQueue,
        Rank::Timer,
        Rank::Notify,
        Rank::JoinTask,
        Rank::Leaf,
    ];

    /// Ranks whose *same class* may legally be acquired while already
    /// held on the same thread.
    #[must_use]
    pub const fn allows_self_nesting(self) -> bool {
        matches!(self, Rank::TwinShard | Rank::FrameMeta | Rank::WalSlot)
    }

    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Rank::Db => "Db",
            Rank::Catalog => "Catalog",
            Rank::TwinRegistry => "TwinRegistry",
            Rank::TwinShard => "TwinShard",
            Rank::UndoArena => "UndoArena",
            Rank::UndoLink => "UndoLink",
            Rank::FrameMeta => "FrameMeta",
            Rank::BufferPool => "BufferPool",
            Rank::BufferPartition => "BufferPartition",
            Rank::PageFile => "PageFile",
            Rank::FrozenTier => "FrozenTier",
            Rank::FaultService => "FaultService",
            Rank::WalHub => "WalHub",
            Rank::WalSlot => "WalSlot",
            Rank::WalDoorbell => "WalDoorbell",
            Rank::RuntimeShared => "RuntimeShared",
            Rank::RuntimeQueue => "RuntimeQueue",
            Rank::Timer => "Timer",
            Rank::Notify => "Notify",
            Rank::JoinTask => "JoinTask",
            Rank::Leaf => "Leaf",
        }
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Wait-for graph: compiled whenever the lockdep feature is on (including
// under loom, so the loom_lockdep suite can model it).
// ---------------------------------------------------------------------------

#[cfg(feature = "lockdep")]
pub use graph::{ClassId, CycleError, WaitForGraph};

#[cfg(feature = "lockdep")]
pub mod graph {
    //! The cross-thread wait-for edge set.
    //!
    //! Nodes are lock *classes* (one per distinct `(Rank, name)` pair),
    //! edges mean "some thread held `from` while blocking to acquire
    //! `to`". Inserting an edge that closes a cycle reports the full
    //! chain instead of inserting it; a cycle here is a potential
    //! deadlock even if every individual thread's acquisition history is
    //! locally rank-consistent.

    use crate::sync::Mutex;
    use std::panic::Location;

    /// Dense class identifier handed out by the class registry.
    pub type ClassId = u32;

    #[derive(Clone, Copy)]
    struct Edge {
        from: ClassId,
        to: ClassId,
        /// Where `to` was being acquired when the edge was first observed.
        to_site: &'static Location<'static>,
    }

    /// A would-be edge closed a cycle in the wait-for graph.
    #[derive(Debug)]
    pub struct CycleError {
        /// The class chain `to → … → from` already present in the graph;
        /// the rejected edge `from → to` closes it. Each hop carries the
        /// first-seen acquisition site of its target class.
        pub chain: Vec<(ClassId, &'static Location<'static>)>,
        pub from: ClassId,
        pub to: ClassId,
    }

    /// Process-global wait-for edge set with cycle detection.
    ///
    /// Edge storage is a flat `Vec` behind one shim mutex: the set is
    /// small (one entry per distinct ordered class pair ever observed),
    /// deduplication makes inserts rare after warm-up, and the flat
    /// representation keeps `new` const-constructible for the global
    /// static. The mutex comes from the sync shim so loom can
    /// exhaustively interleave concurrent `record_edge` calls.
    pub struct WaitForGraph {
        edges: Mutex<Vec<Edge>>,
    }

    impl WaitForGraph {
        #[must_use]
        pub fn new() -> Self {
            WaitForGraph { edges: Mutex::new(Vec::new()) }
        }

        /// Record `from → to` ("held `from` while acquiring `to`").
        ///
        /// Returns `Err` — without inserting — if the edge would close a
        /// cycle. Idempotent for already-present edges. Self-edges are
        /// the caller's responsibility to filter (same-class nesting is
        /// arbitrated by `Rank::allows_self_nesting`, not the graph).
        pub fn record_edge(
            &self,
            from: ClassId,
            to: ClassId,
            to_site: &'static Location<'static>,
        ) -> Result<(), CycleError> {
            let mut edges = self.edges.lock();
            if edges.iter().any(|e| e.from == from && e.to == to) {
                return Ok(());
            }
            // Adding from→to creates a cycle iff `from` is already
            // reachable from `to`. DFS over the (small) flat edge list.
            if let Some(chain) = reach_chain(&edges, to, from) {
                return Err(CycleError { chain, from, to });
            }
            edges.push(Edge { from, to, to_site });
            Ok(())
        }

        /// Number of distinct edges recorded (test/diagnostic hook).
        #[must_use]
        pub fn edge_count(&self) -> usize {
            self.edges.lock().len()
        }

        /// Snapshot of the edge set as `(from, to)` pairs.
        #[must_use]
        pub fn edge_pairs(&self) -> Vec<(ClassId, ClassId)> {
            self.edges.lock().iter().map(|e| (e.from, e.to)).collect()
        }
    }

    /// DFS path `start → … → goal` over `edges`, if one exists. Each hop
    /// reports the first-seen site at which its target class was being
    /// acquired.
    fn reach_chain(
        edges: &[Edge],
        start: ClassId,
        goal: ClassId,
    ) -> Option<Vec<(ClassId, &'static Location<'static>)>> {
        let mut stack = vec![start];
        let mut visited = vec![start];
        // parent[i] = (class, edge used to reach it) for path recovery.
        let mut parents: Vec<(ClassId, ClassId, &'static Location<'static>)> = Vec::new();
        while let Some(node) = stack.pop() {
            if node == goal {
                // Recover the path goal ← … ← start.
                let mut path = vec![];
                let mut cur = goal;
                while cur != start {
                    let &(child, parent, site) =
                        parents.iter().find(|&&(c, _, _)| c == cur).expect("parent recorded");
                    path.push((child, site));
                    cur = parent;
                }
                path.push((
                    start,
                    edges
                        .iter()
                        .find(|e| e.to == start)
                        .map_or_else(|| Location::caller(), |e| e.to_site),
                ));
                path.reverse();
                return Some(path);
            }
            for e in edges.iter().filter(|e| e.from == node) {
                if !visited.contains(&e.to) {
                    visited.push(e.to);
                    parents.push((e.to, node, e.to_site));
                    stack.push(e.to);
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Active checker: class registry, per-thread held stack, global graph.
// Native (non-loom) lockdep builds only.
// ---------------------------------------------------------------------------

#[cfg(all(feature = "lockdep", not(loom)))]
mod active {
    use super::graph::{ClassId, WaitForGraph};
    use super::Rank;
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::panic::Location;

    /// Class registry: one `ClassId` per distinct `(rank, name)` pair.
    /// Linear scan — a few dozen classes, debug builds only. Uses a raw
    /// parking_lot mutex (not a ranked wrapper) so the checker never
    /// recurses into itself.
    static CLASSES: Mutex<Vec<(Rank, &'static str)>> = Mutex::new(Vec::new());

    static GRAPH: std::sync::LazyLock<WaitForGraph> = std::sync::LazyLock::new(WaitForGraph::new);

    pub(super) fn class_of(rank: Rank, name: &'static str) -> ClassId {
        let mut classes = CLASSES.lock();
        if let Some(i) = classes.iter().position(|&(r, n)| r == rank && n == name) {
            return i as ClassId;
        }
        classes.push((rank, name));
        (classes.len() - 1) as ClassId
    }

    fn class_name(id: ClassId) -> (Rank, &'static str) {
        CLASSES.lock()[id as usize]
    }

    pub(super) struct Held {
        token: u64,
        class: ClassId,
        rank: Rank,
        name: &'static str,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// RAII token: pops the matching held-stack entry when the guard drops.
    pub(super) struct HeldToken {
        token: u64,
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                // Guards may drop out of push order; search from the top.
                if let Some(i) = held.iter().rposition(|e| e.token == self.token) {
                    held.remove(i);
                }
            });
        }
    }

    fn push(
        rank: Rank,
        name: &'static str,
        class: ClassId,
        site: &'static Location<'static>,
    ) -> HeldToken {
        let token = NEXT_TOKEN.with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        });
        HELD.with(|h| h.borrow_mut().push(Held { token, class, rank, name, site }));
        HeldToken { token }
    }

    /// A non-blocking acquisition succeeded: no order checks (a trylock
    /// can never be the waiting side of a deadlock), but the guard still
    /// joins the held stack so later blocking acquisitions see it.
    pub(super) fn acquired_try(
        rank: Rank,
        name: &'static str,
        class: ClassId,
        site: &'static Location<'static>,
    ) -> HeldToken {
        push(rank, name, class, site)
    }

    /// A blocking acquisition is about to park: run both checkers.
    pub(super) fn acquire_blocking(
        rank: Rank,
        name: &'static str,
        class: ClassId,
        site: &'static Location<'static>,
    ) -> HeldToken {
        let violation: Option<String> = HELD.with(|h| {
            let held = h.borrow();
            // Rank check against the highest rank currently held.
            if let Some(top) = held.iter().max_by_key(|e| e.rank) {
                if rank < top.rank {
                    return Some(format!(
                        "lockdep: lock order violation — acquiring \"{name}\" (rank {rank}) at \
                         {site} while holding \"{}\" (rank {}) acquired at {}; ranks must not \
                         descend",
                        top.name, top.rank, top.site,
                    ));
                }
            }
            // Same-class recursion needs an explicit self-nesting rank.
            if let Some(prev) = held.iter().find(|e| e.class == class) {
                if !rank.allows_self_nesting() {
                    return Some(format!(
                        "lockdep: recursive acquisition — \"{name}\" (rank {rank}) at {site} is \
                         already held by this thread (acquired at {}), and rank {rank} does not \
                         allow self-nesting",
                        prev.site,
                    ));
                }
            }
            // Wait-for edges from every held class to the new one.
            for e in held.iter() {
                if e.class == class {
                    continue;
                }
                if let Err(cycle) = GRAPH.record_edge(e.class, class, site) {
                    let mut msg = format!(
                        "lockdep: wait-for cycle — acquiring \"{name}\" (rank {rank}) at {site} \
                         while holding \"{}\" (rank {}) acquired at {} would close the cycle:",
                        e.name, e.rank, e.site,
                    );
                    for (cid, csite) in &cycle.chain {
                        let (crank, cname) = class_name(*cid);
                        msg.push_str(&format!("\n  -> \"{cname}\" (rank {crank}) at {csite}"));
                    }
                    let (frank, fname) = class_name(cycle.from);
                    msg.push_str(&format!("\n  -> \"{fname}\" (rank {frank}) closing the loop"));
                    return Some(msg);
                }
            }
            None
        });
        if let Some(msg) = violation {
            panic!("{msg}");
        }
        push(rank, name, class, site)
    }

    /// Diagnostic: names of locks currently held by this thread.
    pub fn held_locks() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().iter().map(|e| e.name).collect())
    }
}

#[cfg(all(feature = "lockdep", not(loom)))]
pub use active::held_locks;

// ---------------------------------------------------------------------------
// Lock metadata embedded in the wrappers (lockdep builds only).
// ---------------------------------------------------------------------------

#[cfg(all(feature = "lockdep", not(loom)))]
struct LockMeta {
    rank: Rank,
    name: &'static str,
    /// Cached class id + 1 (0 = unresolved), filled on first acquisition.
    class: std::sync::atomic::AtomicU32,
}

#[cfg(all(feature = "lockdep", not(loom)))]
impl LockMeta {
    fn new(rank: Rank, name: &'static str) -> Self {
        LockMeta { rank, name, class: std::sync::atomic::AtomicU32::new(0) }
    }

    fn class(&self) -> graph::ClassId {
        use std::sync::atomic::Ordering;
        // ORDERING: Relaxed is enough — class_of is idempotent for a
        // given (rank, name), so racing threads cache the same id.
        let cached = self.class.load(Ordering::Relaxed);
        if cached != 0 {
            return cached - 1;
        }
        let id = active::class_of(self.rank, self.name);
        self.class.store(id + 1, Ordering::Relaxed);
        id
    }

    #[track_caller]
    fn acquire_blocking(&self) -> active::HeldToken {
        active::acquire_blocking(self.rank, self.name, self.class(), std::panic::Location::caller())
    }

    #[track_caller]
    fn acquired_try(&self) -> active::HeldToken {
        active::acquired_try(self.rank, self.name, self.class(), std::panic::Location::caller())
    }
}

// ---------------------------------------------------------------------------
// RankedMutex
// ---------------------------------------------------------------------------

/// A mutex with a declared kernel lock rank. See the module docs.
pub struct RankedMutex<T> {
    #[cfg(all(feature = "lockdep", not(loom)))]
    meta: LockMeta,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Construct with a declared rank and class name. The arguments are
    /// discarded entirely in non-lockdep builds.
    #[must_use]
    pub fn new(rank: Rank, name: &'static str, value: T) -> Self {
        #[cfg(not(all(feature = "lockdep", not(loom))))]
        let _ = (rank, name);
        RankedMutex {
            #[cfg(all(feature = "lockdep", not(loom)))]
            meta: LockMeta::new(rank, name),
            inner: Mutex::new(value),
        }
    }

    #[track_caller]
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        #[cfg(all(feature = "lockdep", not(loom)))]
        let token = self.meta.acquire_blocking();
        RankedMutexGuard {
            inner: self.inner.lock(),
            #[cfg(all(feature = "lockdep", not(loom)))]
            _token: token,
        }
    }

    #[track_caller]
    pub fn try_lock(&self) -> Option<RankedMutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        Some(RankedMutexGuard {
            inner,
            #[cfg(all(feature = "lockdep", not(loom)))]
            _token: self.meta.acquired_try(),
        })
    }
}

/// Guard for [`RankedMutex`]; pops the held-rank stack on drop.
pub struct RankedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(all(feature = "lockdep", not(loom)))]
    _token: active::HeldToken,
}

impl<T> Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(not(loom))]
impl<T> RankedMutexGuard<'_, T> {
    /// Block on `cv`, releasing and re-acquiring the mutex. The lock
    /// stays on the held stack across the wait: the only kernel condvar
    /// sites (timer, WAL commit bell, join handles) hold exactly this one
    /// lock, so the approximation cannot mask an ordering bug.
    pub fn wait(&mut self, cv: &Condvar) {
        cv.wait(&mut self.inner);
    }

    /// Timed variant of [`Self::wait`].
    pub fn wait_for(
        &mut self,
        cv: &Condvar,
        timeout: core::time::Duration,
    ) -> parking_lot::WaitTimeoutResult {
        cv.wait_for(&mut self.inner, timeout)
    }
}

#[cfg(loom)]
impl<T> RankedMutexGuard<'_, T> {
    /// Condvars are not modeled under loom; these exist only so
    /// condvar-owning modules compile in `--cfg loom` builds. Loom models
    /// never exercise them.
    pub fn wait(&mut self, _cv: &Condvar) {
        unreachable!("condvar waits are not modeled under loom")
    }

    /// See [`Self::wait`].
    pub fn wait_for(
        &mut self,
        _cv: &Condvar,
        _timeout: core::time::Duration,
    ) -> parking_lot::WaitTimeoutResult {
        unreachable!("condvar waits are not modeled under loom")
    }
}

// ---------------------------------------------------------------------------
// RankedRwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock with a declared kernel lock rank.
pub struct RankedRwLock<T> {
    #[cfg(all(feature = "lockdep", not(loom)))]
    meta: LockMeta,
    inner: RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Construct with a declared rank and class name. The arguments are
    /// discarded entirely in non-lockdep builds.
    #[must_use]
    pub fn new(rank: Rank, name: &'static str, value: T) -> Self {
        #[cfg(not(all(feature = "lockdep", not(loom))))]
        let _ = (rank, name);
        RankedRwLock {
            #[cfg(all(feature = "lockdep", not(loom)))]
            meta: LockMeta::new(rank, name),
            inner: RwLock::new(value),
        }
    }

    #[track_caller]
    pub fn read(&self) -> RankedReadGuard<'_, T> {
        #[cfg(all(feature = "lockdep", not(loom)))]
        let token = self.meta.acquire_blocking();
        RankedReadGuard {
            inner: self.inner.read(),
            #[cfg(all(feature = "lockdep", not(loom)))]
            _token: token,
        }
    }

    #[track_caller]
    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        #[cfg(all(feature = "lockdep", not(loom)))]
        let token = self.meta.acquire_blocking();
        RankedWriteGuard {
            inner: self.inner.write(),
            #[cfg(all(feature = "lockdep", not(loom)))]
            _token: token,
        }
    }

    #[track_caller]
    pub fn try_read(&self) -> Option<RankedReadGuard<'_, T>> {
        let inner = self.inner.try_read()?;
        Some(RankedReadGuard {
            inner,
            #[cfg(all(feature = "lockdep", not(loom)))]
            _token: self.meta.acquired_try(),
        })
    }

    #[track_caller]
    pub fn try_write(&self) -> Option<RankedWriteGuard<'_, T>> {
        let inner = self.inner.try_write()?;
        Some(RankedWriteGuard {
            inner,
            #[cfg(all(feature = "lockdep", not(loom)))]
            _token: self.meta.acquired_try(),
        })
    }
}

/// Shared guard for [`RankedRwLock`].
pub struct RankedReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    #[cfg(all(feature = "lockdep", not(loom)))]
    _token: active::HeldToken,
}

impl<T> Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard for [`RankedRwLock`].
pub struct RankedWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    #[cfg(all(feature = "lockdep", not(loom)))]
    _token: active::HeldToken,
}

impl<T> Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(all(test, feature = "lockdep", not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn expect_panic<F: FnOnce() + Send + 'static>(f: F) -> String {
        let err = std::thread::spawn(f).join().expect_err("lockdep should have panicked");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(other) => other.downcast::<&str>().map(|s| s.to_string()).unwrap(),
        }
    }

    #[test]
    fn ascending_order_is_clean() {
        let a = RankedMutex::new(Rank::Db, "t.asc.db", 1u32);
        let b = RankedMutex::new(Rank::WalSlot, "t.asc.wal", 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn two_thread_rank_inversion_panics_with_both_names() {
        let low = Arc::new(RankedMutex::new(Rank::Catalog, "t.inv.catalog", ()));
        let high = Arc::new(RankedRwLock::new(Rank::Notify, "t.inv.notify", ()));
        // Thread 1 takes them in rank order: fine.
        {
            let (low, high) = (low.clone(), high.clone());
            std::thread::spawn(move || {
                let _l = low.lock();
                let _h = high.read();
            })
            .join()
            .unwrap();
        }
        // Thread 2 descends the order: must panic naming both locks.
        let msg = expect_panic(move || {
            let _h = high.write();
            let _l = low.lock();
        });
        assert!(msg.contains("t.inv.catalog"), "missing acquired lock name: {msg}");
        assert!(msg.contains("t.inv.notify"), "missing held lock name: {msg}");
        assert!(msg.contains("lock order violation"), "wrong kind: {msg}");
    }

    #[test]
    fn three_lock_wait_for_cycle_is_detected_across_threads() {
        // Three classes at the same rank: each pairwise acquisition is
        // locally rank-consistent, and no two threads ever co-hold the
        // same pair — only the global wait-for graph sees the cycle.
        let a = Arc::new(RankedMutex::new(Rank::Leaf, "t.cyc.a", ()));
        let b = Arc::new(RankedMutex::new(Rank::Leaf, "t.cyc.b", ()));
        let c = Arc::new(RankedMutex::new(Rank::Leaf, "t.cyc.c", ()));
        for (x, y) in [(a.clone(), b.clone()), (b.clone(), c.clone())] {
            std::thread::spawn(move || {
                let _x = x.lock();
                let _y = y.lock();
            })
            .join()
            .unwrap();
        }
        let msg = expect_panic(move || {
            let _c = c.lock();
            let _a = a.lock();
        });
        assert!(msg.contains("wait-for cycle"), "wrong kind: {msg}");
        for name in ["t.cyc.a", "t.cyc.b", "t.cyc.c"] {
            assert!(msg.contains(name), "cycle report missing {name}: {msg}");
        }
    }

    #[test]
    fn recursive_acquisition_needs_self_nesting_rank() {
        let l = Arc::new(RankedMutex::new(Rank::PageFile, "t.rec.pagefile", ()));
        let l2 = l.clone();
        let msg = expect_panic(move || {
            let _a = l2.lock();
            let _b = l2.lock();
        });
        assert!(msg.contains("recursive acquisition"), "wrong kind: {msg}");
        drop(l);
    }

    #[test]
    fn self_nesting_rank_may_hold_all_instances() {
        // Mirrors twin-table try_retire holding every entry shard.
        let shards: Vec<_> =
            (0..4).map(|_| RankedMutex::new(Rank::TwinShard, "t.nest.shard", ())).collect();
        let _guards: Vec<_> = shards.iter().map(|s| s.lock()).collect();
    }

    #[test]
    fn try_lock_out_of_order_is_allowed() {
        // Eviction-style probing: try_write on a victim while a higher
        // rank is held must not fire.
        let high = RankedMutex::new(Rank::Notify, "t.try.notify", ());
        let low = RankedRwLock::new(Rank::FrameMeta, "t.try.frame", ());
        let _h = high.lock();
        let g = low.try_write();
        assert!(g.is_some());
    }

    #[test]
    fn out_of_order_guard_drops_unwind_cleanly() {
        let a = RankedMutex::new(Rank::Db, "t.ooo.a", ());
        let b = RankedMutex::new(Rank::Catalog, "t.ooo.b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        drop(gb);
        assert!(held_locks().is_empty());
    }

    #[test]
    fn condvar_wait_roundtrips_through_ranked_guard() {
        let m = Arc::new(RankedMutex::new(Rank::Timer, "t.cv.state", false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                g.wait(&cv2);
            }
        });
        std::thread::sleep(core::time::Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
