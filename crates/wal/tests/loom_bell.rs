//! Loom model for leader rounds over the [`CommitBell`]: a committer on a
//! worker, and two would-be leaders racing it — an idle worker, which runs
//! a round only while a wait is parked, and a tick, which runs one while a
//! record is pending. Each takes the round lock with `try_lock` and gives
//! up when it is taken; the committer's own worker tries too once its
//! commit parked.
//!
//! Run with `scripts/loom.sh` or
//! `RUSTFLAGS="--cfg loom" cargo test -p phoebe-wal --test loom_bell`.
//!
//! Two properties, in every schedule:
//! - no commit is acknowledged before a sync that covers its stamp;
//! - no waiter stays parked after a round that covered it. The
//!   edge-triggered executors poll a task only when its waker fires, so a
//!   covered waiter left parked is a commit that never returns.
//!
//! A round publishes its horizon, then drains the bell. The second model
//! drains first and must fail: a committer can check the horizon after
//! the drain and register before the publication.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use phoebe_wal::CommitBell;
use std::task::{Context, Wake, Waker};

/// Records that it was woken; a model-checked flag so the wake is a
/// scheduling point like any other access.
struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }
}

/// The hub, cut down to what a round orders.
struct Hub {
    bell: CommitBell,
    /// Holding it is running a round.
    round: Mutex<()>,
    /// The committer's slot buffer: the stamps appended and not stolen.
    slot: Mutex<Vec<u64>>,
    /// The GSN clock; a round ticks it under the slot lock.
    clock: AtomicU64,
    /// What the log file's last sync covers.
    synced: AtomicU64,
    /// The published horizon.
    durable: AtomicU64,
}

impl Hub {
    /// One round, under the round lock: steal and tick, write and sync,
    /// then publish and drain — in the order `drain_first` picks.
    fn round(&self, drain_first: bool) {
        let tick = {
            let mut slot = self.slot.lock();
            slot.clear();
            self.clock.fetch_add(1, Ordering::AcqRel) + 1
        };
        self.synced.store(tick - 1, Ordering::Release);
        if drain_first {
            self.bell.wake_through(tick - 1);
            self.durable.store(tick - 1, Ordering::Release);
        } else {
            self.durable.store(tick - 1, Ordering::Release);
            self.bell.wake_through(tick - 1);
        }
    }

    /// A would-be leader: when `due`, run a round unless one is running.
    fn try_lead(&self, due: bool, drain_first: bool) {
        if !due {
            return;
        }
        if let Some(_round) = self.round.try_lock() {
            self.round(drain_first);
        }
    }

    /// The idle worker's duty: due while a wait is parked.
    fn idle(&self, drain_first: bool) {
        self.try_lead(self.bell.is_awaited(), drain_first);
    }

    /// The tick's duty: due while a record is pending.
    fn tick(&self, drain_first: bool) {
        let pending = !self.slot.lock().is_empty();
        self.try_lead(pending, drain_first);
    }

    /// The commit wait's check: `Some` once the horizon covers `stamp`,
    /// which a sync covering it must precede.
    fn acked(&self, stamp: u64) -> Option<()> {
        (self.durable.load(Ordering::Acquire) >= stamp).then(|| {
            let synced = self.synced.load(Ordering::Acquire);
            assert!(synced >= stamp, "acknowledged stamp {stamp} before a sync covering it");
        })
    }
}

fn leader_rounds(drain_first: bool) {
    loom::model(move || {
        let hub = Arc::new(Hub {
            bell: CommitBell::default(),
            round: Mutex::new(()),
            slot: Mutex::new(Vec::new()),
            clock: AtomicU64::new(1),
            synced: AtomicU64::new(0),
            durable: AtomicU64::new(0),
        });
        let leaders: Vec<_> = [Hub::idle, Hub::tick]
            .into_iter()
            .map(|duty| {
                let hub = Arc::clone(&hub);
                loom::thread::spawn(move || duty(&hub, drain_first))
            })
            .collect();
        // The committer: append the Commit record, then wait for it.
        let stamp = {
            let mut slot = hub.slot.lock();
            let stamp = hub.clock.load(Ordering::Acquire);
            slot.push(stamp);
            stamp
        };
        let woken = Arc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&woken));
        let cx = Context::from_waker(&waker);
        let mut ready = hub.bell.park(stamp, &cx, || hub.acked(stamp)).is_ready();
        if !ready {
            // Its worker has nothing else to run: it would lead.
            hub.idle(drain_first);
        }
        for leader in leaders {
            leader.join().unwrap();
        }
        if woken.0.load(Ordering::Acquire) {
            // Polled again on the wake: the horizon covers it now.
            ready = hub.bell.park(stamp, &cx, || hub.acked(stamp)).is_ready();
            assert!(ready, "woken before the horizon covered stamp {stamp}");
        }
        let covered = hub.durable.load(Ordering::Acquire) >= stamp;
        assert!(
            ready || !covered,
            "lost wakeup: a round covered stamp {stamp}, yet the committer was neither ready nor woken"
        );
    });
}

#[test]
fn no_commit_is_acked_early_and_no_covered_waiter_stays_parked() {
    leader_rounds(false);
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn draining_before_the_publish_loses_the_wakeup() {
    leader_rounds(true);
}
