//! Voluntary yield points with the paper's urgency classification (§7.1).
//!
//! Co-routines cannot be preempted, so PhoebeDB transactions yield
//! explicitly at wait points. The scheduler treats the classes
//! differently: a *high*-urgency yield (latch spin, async read in flight)
//! tells the worker to stop accepting new transactions and drive its current
//! tasks to resolution; a *low*-urgency wait (a transaction-ID lock or a
//! commit's durability wait, which can take arbitrarily long) leaves the
//! pull loop open so the worker keeps its slots utilized. The *prefetch*
//! class sits below both: the wait is a cache-line fill measured in
//! nanoseconds, so it would be wasteful to pause pulls for it — the yield
//! exists only to give a sibling interleaved descent the CPU while the
//! line arrives.
//!
//! [`yield_now`] wakes itself, so its task runs again next round: it is a
//! turn given up, not a wait. A task that waits for another thread sleeps
//! in [`crate::Notify::wait_until`], which declares `Low` while pending.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Why a co-routine is yielding; drives the pull-based scheduler's decision
/// whether to keep accepting new tasks (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Urgency {
    /// Short wait expected: latch spin, asynchronous read. The worker pauses
    /// pulling new tasks until this task resolves.
    High,
    /// Potentially long wait: transaction-ID lock, commit durability.
    /// Pulling continues.
    Low,
    /// Software prefetch in flight (interleaved batch descent): the wait
    /// is a cache-line fill, far cheaper than either class above. Pulling
    /// continues; the task is re-polled on the very next round.
    Prefetch,
}

impl Urgency {
    /// Stickiness rank: a poll may cross several yield points and the
    /// most urgent one must win when the worker reads the thread-local.
    fn rank(self) -> u8 {
        match self {
            Urgency::High => 2,
            Urgency::Low => 1,
            Urgency::Prefetch => 0,
        }
    }
}

thread_local! {
    static LAST_YIELD_URGENCY: std::cell::Cell<Urgency> =
        const { std::cell::Cell::new(Urgency::Prefetch) };
}

/// The urgency the most recent yield on this thread declared. The worker
/// loop reads (and resets) this right after a poll returns `Pending` to
/// decide whether the slot blocks new-task pulls.
pub(crate) fn take_last_urgency() -> Urgency {
    LAST_YIELD_URGENCY.with(|c| c.replace(Urgency::Prefetch))
}

pub(crate) fn note_urgency(u: Urgency) {
    LAST_YIELD_URGENCY.with(|c| {
        // Sticky until the worker consumes it: a poll may pass several
        // yield points and the most urgent one wins.
        if u.rank() > c.get().rank() {
            c.set(u);
        }
    });
}

/// Yield once to the scheduler and resume on the next round.
pub fn yield_now(urgency: Urgency) -> YieldNow {
    YieldNow { yielded: false, urgency }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
    urgency: Urgency,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            note_urgency(self.urgency);
            // A self-wake: the next round re-polls us (nothing else would —
            // the executor polls only woken slots); the yield still gives
            // other slots a turn. Not a way to wait for a condition.
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;

    #[test]
    fn yield_now_completes_after_one_pending() {
        block_on(async {
            yield_now(Urgency::Low).await;
            yield_now(Urgency::High).await;
        });
    }

    #[test]
    fn urgency_is_sticky_until_taken() {
        let _ = take_last_urgency();
        note_urgency(Urgency::High);
        note_urgency(Urgency::Low); // must not downgrade
        assert_eq!(take_last_urgency(), Urgency::High);
        assert_eq!(take_last_urgency(), Urgency::Prefetch); // reset after take
    }

    #[test]
    fn prefetch_is_the_cheapest_class() {
        let _ = take_last_urgency();
        note_urgency(Urgency::Prefetch);
        assert_eq!(take_last_urgency(), Urgency::Prefetch);
        note_urgency(Urgency::Prefetch);
        note_urgency(Urgency::Low); // Low outranks Prefetch
        note_urgency(Urgency::Prefetch); // must not downgrade back
        assert_eq!(take_last_urgency(), Urgency::Low);
    }

    #[test]
    fn many_sequential_yields_make_progress() {
        let n = block_on(async {
            let mut n = 0u32;
            for _ in 0..100 {
                yield_now(Urgency::Low).await;
                n += 1;
            }
            n
        });
        assert_eq!(n, 100);
    }
}
