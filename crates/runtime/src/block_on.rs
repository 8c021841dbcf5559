//! A minimal single-future executor for tests and external callers.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

struct ThreadWaker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Drive `future` to completion on the calling thread.
///
/// This is the escape hatch for code outside the co-routine pool (tests,
/// examples, loaders). Like the pool's workers it is edge-triggered: after
/// a `Pending` poll the thread parks until the future's waker fires, so a
/// future must leave its waker with whatever will complete it.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = pin!(future);
    let tw =
        Arc::new(ThreadWaker { thread: std::thread::current(), notified: AtomicBool::new(false) });
    let waker = Waker::from(tw.clone());
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            // `park` may also return spuriously (or on an unpark meant for
            // something else on this thread): only the flag means a wake.
            Poll::Pending => {
                while !tw.notified.swap(false, Ordering::AcqRel) {
                    std::thread::park();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_value() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn block_on_drives_pending_futures() {
        struct CountDown(u32);
        impl Future for CountDown {
            type Output = u32;
            fn poll(mut self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.0 == 0 {
                    Poll::Ready(0)
                } else {
                    self.0 -= 1;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(CountDown(50)), 0);
    }

    /// Edge-triggered: a future that returns `Pending` without waking
    /// itself is polled once, then again only when its waker fires — here
    /// from another thread 20 ms later. A timed re-poll would poll it
    /// every park interval in between.
    #[test]
    fn block_on_survives_wakes_from_other_threads() {
        let fired = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<Waker>();
        let waker_side = {
            let fired = Arc::clone(&fired);
            std::thread::spawn(move || {
                let waker = rx.recv().expect("first poll sends its waker");
                std::thread::sleep(std::time::Duration::from_millis(20));
                fired.store(true, Ordering::Release);
                waker.wake();
            })
        };
        let mut polls = 0;
        block_on(std::future::poll_fn(|cx| {
            polls += 1;
            if fired.load(Ordering::Acquire) {
                return Poll::Ready(());
            }
            let _ = tx.send(cx.waker().clone());
            Poll::Pending
        }));
        waker_side.join().unwrap();
        assert_eq!(polls, 2, "polled without a wake");
    }
}
