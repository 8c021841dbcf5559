//! Loom model for the [`FaultTicket`] publish/consume protocol.
//!
//! Run with `scripts/loom.sh` or
//! `RUSTFLAGS="--cfg loom" cargo test -p phoebe-storage --test loom_fault_ticket`.
//!
//! The property under test: a consumer whose `is_done()` poll observes
//! completion must also observe the published result (release store pairs
//! with acquire load), the result is consumed exactly once, and the
//! protocol never deadlocks or panics under any interleaving of the
//! loader's `complete` with the cursor's poll/take cycle. And for the
//! parked wait: a waiter that registers its waker while the loader
//! completes is either woken or sees the completion on its re-check.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use phoebe_storage::FaultTicket;
use std::task::{Wake, Waker};

/// The core handshake: loader publishes, cursor polls then takes. If the
/// poll says done, the take must yield the result — never `None`, never a
/// stale value.
#[test]
fn done_implies_result_visible() {
    loom::model(|| {
        let ticket = FaultTicket::detached();
        let loader = {
            let ticket = Arc::clone(&ticket);
            loom::thread::spawn(move || {
                ticket.complete(Ok(42));
            })
        };
        if ticket.is_done() {
            let r = ticket.take().expect("done ticket must have a result");
            assert_eq!(r.unwrap(), 42, "acquire must see the published frame id");
        }
        loader.join().unwrap();
        // After the loader is joined the result is definitely published;
        // it may already have been consumed by the branch above, but a
        // second take never panics and never yields a result twice.
        match ticket.take() {
            Some(r) => assert_eq!(r.unwrap(), 42),
            None => {} // consumed above
        }
    });
}

/// Concurrent pollers (the batch round-robin may poll from the worker
/// while the drop path also checks): the result is handed out at most
/// once across racing `take` calls.
#[test]
fn take_is_exactly_once_across_racers() {
    loom::model(|| {
        let ticket = FaultTicket::detached();
        let loader = {
            let ticket = Arc::clone(&ticket);
            loom::thread::spawn(move || {
                ticket.complete(Ok(7));
            })
        };
        let racer = {
            let ticket = Arc::clone(&ticket);
            loom::thread::spawn(move || ticket.take().map(|r| r.unwrap()))
        };
        let mine = ticket.take().map(|r| r.unwrap());
        let theirs = racer.join().unwrap();
        loader.join().unwrap();
        let wins = [mine, theirs].iter().filter(|t| t.is_some()).count();
        assert!(wins <= 1, "result consumed more than once: {mine:?} {theirs:?}");
        for t in [mine, theirs].into_iter().flatten() {
            assert_eq!(t, 7);
        }
    });
}

/// Records that it was woken; a model-checked flag so the wake is a
/// scheduling point like any other access.
struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }
}

/// "register waker ‖ complete": the batch task leaves its waker and then
/// re-checks. Whatever the interleaving, it must not end up asleep on a
/// finished fault — either the loader found the waker and woke it, or the
/// re-check saw `done` and the task does not wait. Never neither.
#[test]
fn registered_waiter_is_woken_or_sees_done() {
    loom::model(|| {
        let ticket = FaultTicket::detached();
        let woken = Arc::new(Flag(AtomicBool::new(false)));
        let loader = {
            let ticket = Arc::clone(&ticket);
            loom::thread::spawn(move || {
                ticket.complete(Ok(42));
            })
        };
        let saw_done = ticket.register_waker(&Waker::from(Arc::clone(&woken)));
        loader.join().unwrap();
        assert!(
            saw_done || woken.0.load(Ordering::Acquire),
            "lost wakeup: registered before completion yet neither woken nor told"
        );
        assert_eq!(ticket.take().expect("completed").unwrap(), 42);
    });
}
