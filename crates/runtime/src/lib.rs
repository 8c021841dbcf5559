//! Co-routine pool runtime (§7.1 of the PhoebeDB paper).
//!
//! PhoebeDB executes every transaction as a lightweight co-routine. A fixed
//! pool of worker threads each owns a fixed number of *task slots*; a slot
//! runs one co-routine at a time, to completion, without migrating. New
//! transactions are submitted to a global queue and *pulled* by workers when
//! a slot becomes vacant — the paper's pull-based scheduler. Yields carry an
//! urgency: a high-urgency yield (latch spin, async read) makes the worker
//! pause pulling new work until the current tasks resolve, while a
//! low-urgency yield (tuple lock wait) does not block the pull.
//!
//! In Rust, the natural co-routine is a [`std::future::Future`]; this crate
//! is a purpose-built executor for them — no tokio, no work stealing, no
//! dynamic task migration, because the paper's design deliberately avoids
//! all three. The executor is *edge-triggered*: a scheduling round polls
//! only the slots whose waker fired since their last poll, and a worker
//! with nothing woken parks until a wake, a spawn, or the tick of its
//! background duties. Every wait therefore needs a named waker — a
//! [`Notify`] (through [`Notify::wait_until`], the one subscribe →
//! re-check → await loop), the WAL's commit bell (durability waits, woken
//! by the round that covers their stamp), a timer deadline, a fault
//! ticket, or a self-waking [`yield_now`] — and a lost wakeup hangs the task instead of
//! being papered over by a periodic re-poll.
//!
//! The same executor reproduces the *thread model* of Exp 6: configure one
//! slot per worker and as many workers as desired, and each transaction gets
//! a dedicated OS thread, scheduler switches and all.

mod block_on;
mod notify;
mod runtime;
mod task;
mod timer;
mod yield_point;

pub use block_on::block_on;
pub use notify::Notify;
pub use runtime::{Runtime, RuntimeConfig, RuntimeStats, WorkerHook, WorkerStateSummary};
pub use task::{current_slot, JoinHandle};
pub use timer::{sleep, sleep_until, Sleep};
pub use yield_point::{yield_now, Urgency};
