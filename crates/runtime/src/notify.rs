//! The kernel's one wait mechanism: a wait/notify cell for co-routines.
//!
//! Used wherever one transaction must sleep until another signals — most
//! importantly the transaction-ID lock (§7.2): waiters on a finishing
//! transaction "remain in a sleeping state until B completes and wakes
//! [them] up", and all shared waiters are released simultaneously. Every
//! kernel wait on a condition another thread makes true goes through
//! [`Notify::wait_until`]; DESIGN.md "What wakes each wait" lists them.
//!
//! The implementation is generation-counted: `notified()` snapshots the
//! generation, and completes once the generation has advanced, so a
//! notification that races ahead of the waiter's first poll is never lost.

use crate::timer::sleep_until;
use crate::yield_point::{note_urgency, Urgency};
use phoebe_common::sync::atomic::{AtomicU64, Ordering};
use phoebe_common::sync::{Rank, RankedMutex};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// A multi-waiter notification cell.
pub struct Notify {
    generation: AtomicU64,
    waiters: RankedMutex<Vec<Waker>>,
}

impl Default for Notify {
    fn default() -> Self {
        Notify::new()
    }
}

impl Notify {
    pub fn new() -> Self {
        Notify {
            generation: AtomicU64::new(0),
            waiters: RankedMutex::new(Rank::Notify, "notify.waiters", Vec::new()),
        }
    }

    /// Wake every current waiter. Waiters that subscribe after this call
    /// wait for the *next* notification.
    pub fn notify_all(&self) {
        self.generation.fetch_add(1, Ordering::Release);
        let waiters = std::mem::take(&mut *self.waiters.lock());
        for w in waiters {
            w.wake();
        }
    }

    /// A future that completes at the next [`Notify::notify_all`] after its
    /// creation.
    pub fn notified(&self) -> Notified<'_> {
        Notified { notify: self, seen: self.generation.load(Ordering::Acquire) }
    }

    /// Number of notifications issued so far (diagnostics/tests).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Sleep until `cond` yields a value, re-checking it after every
    /// [`Notify::notify_all`]; `None` once `deadline` passes with `cond`
    /// still unmet. The signalling side must make the condition true
    /// *before* it notifies.
    ///
    /// Each round subscribes, then checks, then awaits: a notification
    /// issued after the check completes the subscription, and one issued
    /// before it made the condition the check saw. Checking only before
    /// subscribing would lose exactly the wakeup in between (the loom
    /// suite `loom_notify` shows it). The deadline is served by the
    /// timer thread, so a busy sibling slot cannot starve a timeout, and a
    /// pending wait declares [`Urgency::Low`]: the worker keeps pulling
    /// new tasks while it sleeps (§7.1).
    pub async fn wait_until<T>(
        &self,
        mut cond: impl FnMut() -> Option<T>,
        deadline: Option<Instant>,
    ) -> Option<T> {
        let mut timer = deadline.map(sleep_until);
        loop {
            let mut notified = self.notified();
            if let Some(v) = cond() {
                return Some(v);
            }
            let timed_out = std::future::poll_fn(|cx| {
                if Pin::new(&mut notified).poll(cx).is_ready() {
                    return Poll::Ready(false);
                }
                if timer.as_mut().is_some_and(|t| Pin::new(t).poll(cx).is_ready()) {
                    return Poll::Ready(true);
                }
                note_urgency(Urgency::Low);
                Poll::Pending
            })
            .await;
            if timed_out {
                return cond();
            }
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified<'a> {
    notify: &'a Notify,
    seen: u64,
}

impl Future for Notified<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.notify.generation.load(Ordering::Acquire) != self.seen {
            return Poll::Ready(());
        }
        let mut waiters = self.notify.waiters.lock();
        // Re-check under the lock: notify_all may have fired in between.
        if self.notify.generation.load(Ordering::Acquire) != self.seen {
            return Poll::Ready(());
        }
        waiters.push(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use std::sync::Arc;

    #[test]
    fn notified_after_notify_completes_immediately_if_generation_moved() {
        let n = Notify::new();
        let fut = n.notified();
        n.notify_all();
        block_on(fut);
    }

    #[test]
    fn notified_created_after_notify_waits_for_next() {
        let n = Arc::new(Notify::new());
        n.notify_all();
        let n2 = n.clone();
        let waiter = std::thread::spawn(move || block_on(n2.notified()));
        // Give the waiter time to subscribe, then release it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        n.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn notify_all_releases_every_waiter_simultaneously() {
        let n = Arc::new(Notify::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let n = n.clone();
                std::thread::spawn(move || block_on(n.notified()))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        n.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.generation(), 1);
    }
}
