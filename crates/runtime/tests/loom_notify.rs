//! Loom model for [`Notify::wait_until`]'s subscribe → re-check → await.
//!
//! Run with `scripts/loom.sh` or
//! `RUSTFLAGS="--cfg loom" cargo test -p phoebe-runtime --test loom_notify`.
//!
//! The property under test: a waiter racing a finisher that makes the
//! condition true and then calls `notify_all` either completes on its
//! poll or is woken — never left asleep on a condition that holds. The
//! edge-triggered executors poll a task only when its waker fires, so
//! "neither" is a task that never runs again. The second model checks the
//! condition only *before* subscribing and must fail: that order loses
//! the notification issued in between.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use phoebe_runtime::Notify;
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Wake, Waker};

/// Records that it was woken; a model-checked flag so the wake is a
/// scheduling point like any other access.
struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }
}

/// Run one waiter poll against a concurrent finisher and report whether
/// the waiter was ready on that poll or woken after it.
fn race(waiter: fn(&Notify, &AtomicBool, &mut Context<'_>) -> bool) {
    loom::model(move || {
        let notify = Arc::new(Notify::new());
        let done = Arc::new(AtomicBool::new(false));
        let finisher = {
            let (notify, done) = (Arc::clone(&notify), Arc::clone(&done));
            loom::thread::spawn(move || {
                done.store(true, Ordering::Release);
                notify.notify_all();
            })
        };
        let woken = Arc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&woken));
        let ready = waiter(&notify, &done, &mut Context::from_waker(&waker));
        finisher.join().unwrap();
        assert!(
            ready || woken.0.load(Ordering::Acquire),
            "lost wakeup: the condition holds, yet the waiter was neither ready nor woken"
        );
    });
}

#[test]
fn waiter_is_woken_or_sees_the_condition() {
    race(|notify, done, cx| {
        let wait = pin!(notify.wait_until(|| done.load(Ordering::Acquire).then_some(()), None));
        wait.poll(cx).is_ready()
    });
}

#[test]
#[should_panic(expected = "lost wakeup")]
fn checking_only_before_subscribing_loses_the_wakeup() {
    race(|notify, done, cx| {
        if done.load(Ordering::Acquire) {
            return true;
        }
        let notified = pin!(notify.notified());
        matches!(notified.poll(cx), Poll::Ready(()))
    });
}
