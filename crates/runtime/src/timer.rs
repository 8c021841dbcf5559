//! A process-wide timer service: `sleep`/`sleep_until` futures for
//! co-routines running on the pool.
//!
//! The executor polls only woken slots, so a deadline needs a waker of its
//! own: one lazily-spawned background thread holds a deadline heap and at
//! each deadline fires the registered wakers, which mark the slots ready
//! and unpark the owning workers — however busy their sibling slots are.
//! The kernel's user is the lock-wait timeout in
//! [`crate::Notify::wait_until`]. An entry is not withdrawn when its
//! future completes early; it fires at its deadline as one spurious wake.

use phoebe_common::sync::{Condvar, Rank, RankedMutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::sync::OnceLock;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

struct Entry {
    deadline: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

#[derive(Default)]
struct TimerState {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
}

struct Timer {
    state: RankedMutex<TimerState>,
    cv: Condvar,
}

impl Timer {
    fn global() -> &'static Timer {
        static TIMER: OnceLock<&'static Timer> = OnceLock::new();
        TIMER.get_or_init(|| {
            let timer: &'static Timer = Box::leak(Box::new(Timer {
                state: RankedMutex::new(Rank::Timer, "timer.state", TimerState::default()),
                cv: Condvar::new(),
            }));
            std::thread::Builder::new()
                .name("phoebe-timer".into())
                .spawn(move || timer.run())
                .expect("spawn timer thread");
            timer
        })
    }

    fn register(&self, deadline: Instant, waker: Waker) {
        let mut s = self.state.lock();
        let seq = s.next_seq;
        s.next_seq += 1;
        s.heap.push(Reverse(Entry { deadline, seq, waker }));
        drop(s);
        self.cv.notify_one();
    }

    fn run(&self) {
        let mut due: Vec<Waker> = Vec::new();
        loop {
            {
                let mut s = self.state.lock();
                loop {
                    let now = Instant::now();
                    match s.heap.peek() {
                        None => {
                            s.wait(&self.cv);
                        }
                        Some(Reverse(e)) if e.deadline <= now => {
                            while let Some(Reverse(e)) = s.heap.peek() {
                                if e.deadline > now {
                                    break;
                                }
                                due.push(s.heap.pop().expect("peeked").0.waker);
                            }
                            break;
                        }
                        Some(Reverse(e)) => {
                            let wait = e.deadline - now;
                            s.wait_for(&self.cv, wait);
                        }
                    }
                }
            }
            for w in due.drain(..) {
                w.wake();
            }
        }
    }
}

/// Future that resolves at `deadline`. It registers its (cheaply cloned)
/// waker on every pending poll, so whichever waker polled it last is
/// woken; a spurious poll costs one heap push, a late poll resolves
/// immediately.
pub struct Sleep {
    deadline: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            Poll::Ready(())
        } else {
            Timer::global().register(self.deadline, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Sleep until a specific instant.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep { deadline }
}

/// Sleep for a duration from now.
pub fn sleep(duration: Duration) -> Sleep {
    Sleep { deadline: Instant::now() + duration }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn sleep_resolves_after_duration() {
        let rt = Runtime::with_shape(1, 2);
        let t0 = Instant::now();
        rt.spawn(async {
            sleep(Duration::from_millis(30)).await;
        })
        .join();
        assert!(t0.elapsed() >= Duration::from_millis(25), "woke too early");
        rt.shutdown();
    }

    #[test]
    fn sleep_does_not_starve_under_busy_sibling_slots() {
        // One worker, two slots: a busy-yielding task occupies one slot
        // while the sleeper waits in the other. The timer thread must
        // wake the sleeper even though the worker never parks.
        let rt = Runtime::with_shape(1, 2);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let busy = rt.spawn(async move {
            while !stop2.load(std::sync::atomic::Ordering::Acquire) {
                crate::yield_point::yield_now(crate::yield_point::Urgency::Low).await;
            }
        });
        let t0 = Instant::now();
        rt.spawn(async {
            sleep(Duration::from_millis(20)).await;
        })
        .join();
        let waited = t0.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Release);
        busy.join();
        assert!(waited >= Duration::from_millis(15), "woke too early: {waited:?}");
        assert!(waited < Duration::from_secs(5), "starved: {waited:?}");
        rt.shutdown();
    }

    #[test]
    fn many_concurrent_sleeps_fire() {
        let rt = Runtime::with_shape(2, 8);
        let handles: Vec<_> = (0..16u64)
            .map(|i| {
                rt.spawn(async move {
                    sleep(Duration::from_millis(5 + i % 7)).await;
                    i
                })
            })
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, (0..16).sum::<u64>());
        rt.shutdown();
    }
}
