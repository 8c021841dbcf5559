//! Loom model for [`CommitBell`]: a round that publishes its horizon and
//! then drains, racing a committer that checks the horizon and then
//! registers.
//!
//! Run with `scripts/loom.sh` or
//! `RUSTFLAGS="--cfg loom" cargo test -p phoebe-wal --test loom_bell`.
//!
//! The property under test: the committer either sees its stamp durable
//! or is woken by the drain — never left parked on a stamp the round
//! covered. The edge-triggered executors poll a task only when its waker
//! fires, so "neither" is a commit that never returns. The second model
//! checks the horizon outside the bell's lock and must fail: the round
//! can publish and drain between that check and the registration.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::Arc;
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

/// The committer's stamp, which the racing round covers.
const STAMP: u64 = 1;

/// Run one committer against a concurrent round and report whether it
/// saw its stamp durable or was woken after it parked.
fn race(committer: fn(&CommitBell, &AtomicU64, &Context<'_>) -> bool) {
    loom::model(move || {
        let bell = Arc::new(CommitBell::default());
        let durable = Arc::new(AtomicU64::new(0));
        let round = {
            let (bell, durable) = (Arc::clone(&bell), Arc::clone(&durable));
            loom::thread::spawn(move || {
                durable.store(STAMP, Ordering::Release);
                bell.wake_through(STAMP);
            })
        };
        let woken = Arc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&woken));
        let ready = committer(&bell, &durable, &Context::from_waker(&waker));
        round.join().unwrap();
        assert!(
            ready || woken.0.load(Ordering::Acquire),
            "lost wakeup: the round covered the stamp, yet the committer was neither ready nor woken"
        );
    });
}

#[test]
fn committer_is_woken_or_sees_its_stamp_durable() {
    race(|bell, durable, cx| {
        bell.park(STAMP, cx, || (durable.load(Ordering::Acquire) >= STAMP).then_some(())).is_ready()
    });
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn checking_outside_the_lock_loses_the_wakeup() {
    race(|bell, durable, cx| {
        if durable.load(Ordering::Acquire) >= STAMP {
            return true;
        }
        bell.park(STAMP, cx, || None::<()>).is_ready()
    });
}
