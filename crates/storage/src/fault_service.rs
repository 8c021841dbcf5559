//! Asynchronous page fault-in for interleaved batch descents.
//!
//! A sequential descent that hits a cold swip blocks its co-routine on
//! the Data Page File read. The batch descent
//! ([`crate::btree::DescentCursor`]) must not: it kicks the fault to a
//! background loader and *suspends*, letting sibling descents in the same
//! batch run while the read is in flight. The handshake is a
//! [`FaultTicket`]:
//!
//! * the loader thread runs the allocate-and-read half of
//!   [`crate::buffer::BufferPool::load_cold`] and publishes the outcome
//!   with [`FaultTicket::complete`] — result and a release store of
//!   `done` under the mutex, then, the mutex dropped, a wake of the
//!   registered waker;
//! * while siblings in the batch can still run, the round-robin skips
//!   the suspended cursor on [`FaultTicket::is_done`] (one acquire load,
//!   no lock). Once the whole batch is waiting on faults, the task
//!   *parks*: it leaves its waker with [`FaultTicket::register_waker`]
//!   on every pending ticket and returns `Pending`, so its worker runs
//!   other slots or sleeps and the loaders get the CPU. Registration
//!   re-checks `is_done` after storing the waker: the waiter is either
//!   woken or sees the completion itself, never neither;
//! * the cursor takes the loaded frame with [`FaultTicket::take`] and
//!   performs the swizzle-install half under the parent latch, exactly
//!   as the blocking path does.
//!
//! The publish/consume protocol lives behind `phoebe_common::sync`, so
//! the `loom_fault_ticket` suite model-checks it exhaustively. Dropping
//! the last ticket handle releases an unconsumed loaded frame back to the
//! pool (the batch may abandon a descent mid-fault on error), so frames
//! never leak.

use crate::buffer::BufferPool;
use crate::swip::FrameId;
use phoebe_common::error::Result;
use phoebe_common::ids::PageId;
use phoebe_common::sync::atomic::{AtomicBool, Ordering};
use phoebe_common::sync::{Rank, RankedMutex};
use std::sync::{Arc, Weak};
use std::task::Waker;

/// Completion state of one in-flight asynchronous page fault.
pub struct FaultTicket {
    /// Flipped (release) once `result` is published; polled (acquire) by
    /// the suspended cursor.
    done: AtomicBool,
    state: RankedMutex<TicketState>,
    /// Owner pool, for releasing an unconsumed frame on drop. Empty in
    /// protocol-only tests (loom).
    pool: Weak<BufferPool>,
    /// Whether this ticket occupies a slot in the pool's in-flight fault
    /// budget ([`BufferPool::fault_budget_available`]) — true only for
    /// tickets minted by `start_fault`; `Drop` gives the slot back.
    counted: bool,
}

#[derive(Default)]
struct TicketState {
    result: Option<Result<FrameId>>,
    /// The parked batch task, if its whole batch is waiting on faults.
    waker: Option<Waker>,
}

impl FaultTicket {
    fn build(pool: Weak<BufferPool>, counted: bool) -> Arc<FaultTicket> {
        Arc::new(FaultTicket {
            done: AtomicBool::new(false),
            state: RankedMutex::new(
                Rank::FaultService,
                "fault.ticket_state",
                TicketState::default(),
            ),
            pool,
            counted,
        })
    }

    /// A ticket owned by `pool` (the normal path).
    pub fn new(pool: Weak<BufferPool>) -> Arc<FaultTicket> {
        FaultTicket::build(pool, false)
    }

    /// A ticket counted against `pool`'s in-flight fault budget. The
    /// caller must have incremented the budget already.
    pub(crate) fn counted(pool: Weak<BufferPool>) -> Arc<FaultTicket> {
        FaultTicket::build(pool, true)
    }

    /// A pool-less ticket for protocol tests.
    pub fn detached() -> Arc<FaultTicket> {
        FaultTicket::new(Weak::new())
    }

    /// Publish the fault's outcome. Called exactly once, by the loader.
    pub fn complete(&self, r: Result<FrameId>) {
        let waker = {
            let mut state = self.state.lock();
            state.result = Some(r);
            // ORDERING: release pairs with the acquire in `is_done`/`take`;
            // a consumer that observes `done == true` must also observe
            // the result written above (and the frame contents the loader
            // wrote before handing us the frame id). Stored *inside* the
            // critical section: a waiter that registers after it re-checks
            // `is_done` and sees true; one that registered before it left
            // its waker for the `take` below.
            self.done.store(true, Ordering::Release);
            state.waker.take()
        };
        // Woken with the ticket lock dropped: a wake takes runtime locks.
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Leave `waker` to be woken by [`FaultTicket::complete`], then
    /// re-check: returns [`FaultTicket::is_done`] as of *after* the
    /// registration. `false` promises a wake; on `true` the caller must
    /// not wait (the completion may have come first and found no waker).
    pub fn register_waker(&self, waker: &Waker) -> bool {
        {
            let mut state = self.state.lock();
            if !state.waker.as_ref().is_some_and(|w| w.will_wake(waker)) {
                state.waker = Some(waker.clone());
            }
        }
        self.is_done()
    }

    /// Whether the fault has finished (one acquire load, no lock) — the
    /// cheap poll the batch round-robin uses to skip still-cold cursors.
    #[inline]
    pub fn is_done(&self) -> bool {
        // ORDERING: acquire pairs with the release in `complete`.
        self.done.load(Ordering::Acquire)
    }

    /// Take the outcome once complete. `None` while the fault is still in
    /// flight; `Some` exactly once after completion (the frame's
    /// ownership transfers to the caller).
    pub fn take(&self) -> Option<Result<FrameId>> {
        if !self.is_done() {
            return None;
        }
        self.state.lock().result.take()
    }
}

impl Drop for FaultTicket {
    fn drop(&mut self) {
        // Last handle: the loader is finished with its clone, so a
        // present result can no longer be consumed — hand the loaded
        // frame back instead of leaking it.
        // Take the result out before touching the pool: `release` acquires
        // the frame latch, which ranks below the ticket lock.
        let abandoned = self.state.lock().result.take();
        if let Some(Ok(fid)) = abandoned {
            if let Some(pool) = self.pool.upgrade() {
                // The swizzle install never ran, so the parent's child slot
                // still holds a cold swip referencing this frame's disk
                // PageId. Forget the slot before release() — freeing it
                // would let the page file hand the PageId to an unrelated
                // page while the cold swip still points at it (same hazard
                // as the install_loaded lost-race path).
                pool.frame(fid).meta.disk_page_forget();
                pool.release(fid);
            }
        }
        if self.counted {
            if let Some(pool) = self.pool.upgrade() {
                pool.fault_done();
            }
        }
    }
}

/// One queued fault request.
pub(crate) struct FaultRequest {
    /// The requester's home partition, which the frame is allocated from.
    pub home: usize,
    pub page: PageId,
    pub parent: FrameId,
    pub ticket: Arc<FaultTicket>,
}

/// Run one loader loop: drain requests until every sender is gone or the
/// pool itself has been dropped. Each request is the allocate-and-read
/// half of `load_cold`; the requesting cursor performs the swizzle
/// install once it consumes the ticket.
///
/// Several loaders share one queue (a fault storm from a batch must not
/// serialize behind a single reader — the sequential path gets one
/// blocking read *per worker*, so the service needs comparable
/// parallelism). The receiver mutex is held only while waiting: the
/// loader that wins a request drops it before touching the page file,
/// letting the next loader wait concurrently.
pub(crate) fn loader_loop(
    pool: Weak<BufferPool>,
    rx: Arc<std::sync::Mutex<std::sync::mpsc::Receiver<FaultRequest>>>,
) {
    loop {
        let req = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return, // poisoned: a sibling loader panicked
        };
        let Ok(req) = req else { return };
        let Some(pool) = pool.upgrade() else { return };
        req.ticket.complete(pool.load_cold_in(req.home, req.page, req.parent));
    }
}
