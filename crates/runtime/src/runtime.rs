//! The worker pool and pull-based scheduler (§7.1).

use crate::task::{enter_slot, waker_for, Completer, JoinHandle, Task, WakeState};
use crate::yield_point::{take_last_urgency, Urgency};
use crossbeam::deque::{Injector, Steal};
use phoebe_common::sync::{Rank, RankedMutex, RankedRwLock};
use phoebe_common::trace::{EventKind, Tracer};
use std::collections::VecDeque;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Pool shape. `workers × slots_per_worker` bounds transaction concurrency,
/// exactly as §7.1 describes ("the configured number of worker threads and
/// the task slots determine transaction concurrency").
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    pub workers: usize,
    pub slots_per_worker: usize,
    /// Flight recorder the worker loop emits scheduler events into
    /// (task polls, yields, parks, global-queue depth). Disabled by
    /// default: each emit site then costs one relaxed atomic load.
    pub tracer: Arc<Tracer>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            slots_per_worker: 32,
            tracer: Arc::new(Tracer::disabled()),
        }
    }
}

impl RuntimeConfig {
    pub fn new(workers: usize, slots_per_worker: usize) -> Self {
        RuntimeConfig { workers, slots_per_worker, ..RuntimeConfig::default() }
    }
}

/// Per-worker duties run between scheduling rounds. The kernel installs a
/// hook that performs the paper's dedicated-slot work: page swaps when free
/// frames drop below the watermark, and UNDO GC every N transactions
/// (§7.1, Figure 6).
pub trait WorkerHook: Send + Sync + 'static {
    fn tick(&self, worker: usize);
}

/// Scheduler statistics (observability + tests). Counters are cumulative;
/// `occupied_slots`, `ready_tasks` and `global_queue_depth` are gauges
/// sampled at call time.
#[derive(Debug, Default, Clone)]
pub struct RuntimeStats {
    pub tasks_completed: u64,
    pub polls: u64,
    pub parks: u64,
    pub tasks_pulled_global: u64,
    pub tasks_pulled_local: u64,
    pub urgent_pull_stalls: u64,
    /// Task slots currently holding a seated co-routine, summed over
    /// workers.
    pub occupied_slots: u64,
    /// Spawned tasks waiting for a slot (global queue + local queues).
    pub ready_tasks: u64,
    /// Depth of the global injector queue alone.
    pub global_queue_depth: u64,
    /// Cumulative wall time each worker spent per scheduler state,
    /// indexed by worker. Charged at every phase boundary of the worker
    /// loop, bounded parks included, so its total is the watchdog's
    /// progress heartbeat: it stops only while the worker is stuck inside
    /// one poll or one hook tick.
    pub worker_state_ns: Vec<WorkerTimeInState>,
    /// Cumulative poll count per worker.
    pub worker_polls: Vec<u64>,
    /// Seated-slot gauge per worker (same data `occupied_slots` sums).
    pub worker_occupied: Vec<u64>,
}

/// Cumulative per-worker wall time split by what the worker was doing:
/// polling seated tasks (`running`), pulling/bookkeeping between polls
/// (`ready`), parked with nothing runnable (`parked`), or running the
/// kernel hook's background duties — page swaps, GC (`io`). The four
/// always sum to the worker's lifetime, so interval deltas give a
/// utilization profile.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerTimeInState {
    pub running_ns: u64,
    pub ready_ns: u64,
    pub parked_ns: u64,
    pub io_ns: u64,
}

/// Indices into `WorkerStats::state_ns`.
const ST_RUNNING: usize = 0;
const ST_READY: usize = 1;
const ST_PARKED: usize = 2;
const ST_IO: usize = 3;

#[derive(Default)]
struct WorkerStats {
    tasks_completed: AtomicU64,
    polls: AtomicU64,
    parks: AtomicU64,
    pulled_global: AtomicU64,
    pulled_local: AtomicU64,
    urgent_pull_stalls: AtomicU64,
    /// Gauge: slots currently seated on this worker (stored each round).
    occupied: AtomicU64,
    /// Cumulative ns per scheduler state (`ST_*` indices).
    state_ns: [AtomicU64; 4],
}

struct Shared {
    cfg: RuntimeConfig,
    injector: Injector<Task>,
    locals: Vec<RankedMutex<VecDeque<Task>>>,
    worker_threads: RankedRwLock<Vec<std::thread::Thread>>,
    hook: RankedRwLock<Option<Arc<dyn WorkerHook>>>,
    shutdown: AtomicBool,
    stats: Vec<WorkerStats>,
}

impl Shared {
    fn unpark_all(&self) {
        for t in self.worker_threads.read().iter() {
            t.unpark();
        }
    }

    fn unpark_one(&self, worker: usize) {
        if let Some(t) = self.worker_threads.read().get(worker) {
            t.unpark();
        }
    }
}

/// The co-routine pool runtime. Spawned futures are transactions; they are
/// seated in task slots and run to completion on one worker.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: RankedMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Runtime {
    pub fn new(cfg: RuntimeConfig) -> Arc<Self> {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.slots_per_worker > 0, "need at least one task slot");
        let shared = Arc::new(Shared {
            locals: (0..cfg.workers)
                .map(|_| {
                    RankedMutex::new(Rank::RuntimeQueue, "runtime.local_queue", VecDeque::new())
                })
                .collect(),
            worker_threads: RankedRwLock::new(
                Rank::RuntimeShared,
                "runtime.worker_threads",
                Vec::with_capacity(cfg.workers),
            ),
            injector: Injector::new(),
            hook: RankedRwLock::new(Rank::RuntimeShared, "runtime.hook", None),
            shutdown: AtomicBool::new(false),
            stats: (0..cfg.workers).map(|_| WorkerStats::default()).collect(),
            cfg,
        });
        let rt = Arc::new(Runtime {
            shared: shared.clone(),
            threads: RankedMutex::new(Rank::RuntimeShared, "runtime.thread_handles", Vec::new()),
        });
        let mut threads = rt.threads.lock();
        for w in 0..shared.cfg.workers {
            let sh = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("phoebe-worker-{w}"))
                .spawn(move || worker_main(sh, w))
                .expect("spawn worker thread");
            threads.push(handle);
        }
        // Wait until every worker has registered its Thread handle so that
        // early spawns can unpark them.
        while shared.worker_threads.read().len() < shared.cfg.workers {
            std::thread::yield_now();
        }
        drop(threads);
        rt
    }

    /// Convenience constructor matching a kernel configuration.
    pub fn with_shape(workers: usize, slots_per_worker: usize) -> Arc<Self> {
        Runtime::new(RuntimeConfig::new(workers, slots_per_worker))
    }

    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.cfg
    }

    /// Install the per-worker background duty hook (page swaps, GC).
    pub fn set_hook(&self, hook: Arc<dyn WorkerHook>) {
        *self.shared.hook.write() = Some(hook);
    }

    /// Submit a transaction co-routine to the global task queue.
    pub fn spawn<F, T>(&self, future: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        self.spawn_inner(future, None)
    }

    /// Submit a co-routine bound to a specific worker — workload affinity
    /// (§9): with affinity on, each warehouse's transactions run on a home
    /// worker, eliminating cross-worker contention on its pages.
    pub fn spawn_on<F, T>(&self, worker: usize, future: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        self.spawn_inner(future, Some(worker % self.shared.cfg.workers))
    }

    fn spawn_inner<F, T>(&self, future: F, affinity: Option<usize>) -> JoinHandle<T>
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        assert!(!self.shared.shutdown.load(Ordering::Acquire), "spawn on a shut-down runtime");
        let (handle, completer) = JoinHandle::pair();
        let wrapped = CompletionFuture { inner: Box::pin(future), completer: Some(completer) };
        let task = Task { future: Box::pin(wrapped) };
        self.shared.cfg.tracer.instant(EventKind::TaskSpawn, 0, 0, 0);
        match affinity {
            Some(w) => {
                self.shared.locals[w].lock().push_back(task);
                self.shared.unpark_one(w);
            }
            None => {
                self.shared.injector.push(task);
                self.shared.unpark_all();
            }
        }
        handle
    }

    /// Aggregate scheduler statistics across workers.
    pub fn stats(&self) -> RuntimeStats {
        let mut out = RuntimeStats::default();
        // ORDERING: statistics reads; each counter is independent and a
        // slightly stale aggregate is fine — nothing synchronizes on it.
        for s in &self.shared.stats {
            out.tasks_completed += s.tasks_completed.load(Ordering::Relaxed);
            let polls = s.polls.load(Ordering::Relaxed);
            out.polls += polls;
            out.worker_polls.push(polls);
            out.parks += s.parks.load(Ordering::Relaxed);
            out.tasks_pulled_global += s.pulled_global.load(Ordering::Relaxed);
            out.tasks_pulled_local += s.pulled_local.load(Ordering::Relaxed);
            out.urgent_pull_stalls += s.urgent_pull_stalls.load(Ordering::Relaxed);
            let occupied = s.occupied.load(Ordering::Relaxed);
            out.occupied_slots += occupied;
            out.worker_occupied.push(occupied);
            // ORDERING: as above — independent statistic reads.
            out.worker_state_ns.push(WorkerTimeInState {
                running_ns: s.state_ns[ST_RUNNING].load(Ordering::Relaxed),
                ready_ns: s.state_ns[ST_READY].load(Ordering::Relaxed),
                parked_ns: s.state_ns[ST_PARKED].load(Ordering::Relaxed),
                io_ns: s.state_ns[ST_IO].load(Ordering::Relaxed),
            });
        }
        out.global_queue_depth = self.shared.injector.len() as u64;
        out.ready_tasks = out.global_queue_depth
            + self.shared.locals.iter().map(|l| l.lock().len() as u64).sum::<u64>();
        out
    }

    /// Stop accepting work, drain current tasks, and join the workers.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.unpark_all();
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wraps a user future so its result (or panic) lands in the join handle.
struct CompletionFuture<T> {
    inner: Pin<Box<dyn Future<Output = T> + Send + 'static>>,
    completer: Option<Completer<T>>,
}

impl<T: Send + 'static> Future for CompletionFuture<T> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let poll = std::panic::catch_unwind(AssertUnwindSafe(|| this.inner.as_mut().poll(cx)));
        match poll {
            Ok(Poll::Pending) => Poll::Pending,
            Ok(Poll::Ready(v)) => {
                this.completer.take().expect("polled after completion").complete(Ok(v));
                Poll::Ready(())
            }
            Err(panic) => {
                this.completer.take().expect("polled after completion").complete(Err(panic));
                Poll::Ready(())
            }
        }
    }
}

/// A co-routine seated in a task slot.
struct Seated {
    future: Pin<Box<dyn Future<Output = ()> + Send + 'static>>,
    wake: Arc<WakeState>,
    waker: Waker,
    /// Set when the task's last yield was high-urgency: the worker must not
    /// pull new tasks until this task resolves (§7.1).
    urgent: bool,
}

/// The longest a worker with nothing to run parks: the cadence of the
/// worker hook's page-swap and GC duties while the worker is idle. It
/// re-polls nothing — only slots a waker marked ready run after a park.
const HOOK_CADENCE: Duration = Duration::from_micros(100);

fn worker_main(shared: Arc<Shared>, worker: usize) {
    phoebe_common::metrics::set_current_worker(worker);
    shared.worker_threads.write().push(std::thread::current());
    let slots_n = shared.cfg.slots_per_worker;
    let mut slots: Vec<Option<Seated>> = (0..slots_n).map(|_| None).collect();
    let stats = &shared.stats[worker];
    let tracer = shared.cfg.tracer.clone();
    // Time-in-state accounting: every instant of the worker's life is
    // charged to exactly one `ST_*` bucket at the phase boundaries below.
    let mut mark = Instant::now();
    let charge = |state: usize, mark: &mut Instant| {
        let now = Instant::now();
        // ORDERING: statistic counter, read only by `stats()` aggregation.
        stats.state_ns[state].fetch_add((now - *mark).as_nanos() as u64, Ordering::Relaxed);
        *mark = now;
    };

    loop {
        // Clone the hook out so its guard is not held across the tick —
        // hooks reach into pool/db state whose locks rank below the
        // runtime's.
        let hook = shared.hook.read().clone();
        if let Some(hook) = hook {
            hook.tick(worker);
        }
        charge(ST_IO, &mut mark);

        // Poll every occupied slot that has been woken.
        let mut progressed = false;
        let mut urgent_slots = 0usize;
        let mut occupied = 0usize;
        // Index-driven on purpose: the body re-borrows `slots[i]` mutably
        // and immutably across the poll, which `iter_mut` can't express.
        #[allow(clippy::needless_range_loop)]
        for i in 0..slots_n {
            let ready = match &slots[i] {
                Some(seated) => seated.wake.ready.swap(false, Ordering::AcqRel),
                None => continue,
            };
            occupied += 1;
            if !ready {
                if slots[i].as_ref().is_some_and(|s| s.urgent) {
                    urgent_slots += 1;
                }
                continue;
            }
            progressed = true;
            // ORDERING: statistic counter; the poll itself is ordered by
            // the `ready` AcqRel swap above.
            stats.polls.fetch_add(1, Ordering::Relaxed);
            let seated = slots[i].as_mut().expect("occupied slot");
            let _guard = enter_slot(worker, i);
            let mut cx = Context::from_waker(&seated.waker);
            let poll_start = tracer.enabled().then(Instant::now);
            let poll = seated.future.as_mut().poll(&mut cx);
            if let Some(start) = poll_start {
                tracer.span(EventKind::TaskPoll, i as u32, start, Instant::now(), 0);
            }
            match poll {
                Poll::Ready(()) => {
                    tracer.instant(EventKind::TaskDone, i as u32, 0, 0);
                    slots[i] = None;
                    occupied -= 1;
                    // ORDERING: statistic counter (completion publishing
                    // happens through the join handle, not this counter).
                    stats.tasks_completed.fetch_add(1, Ordering::Relaxed);
                }
                Poll::Pending => {
                    seated.urgent = take_last_urgency() == Urgency::High;
                    tracer.instant(EventKind::Yield, i as u32, !seated.urgent as u64, 0);
                    if seated.urgent {
                        urgent_slots += 1;
                    }
                }
            }
        }
        charge(ST_RUNNING, &mut mark);

        // Pull-based scheduling: fill vacant slots from the local (affinity)
        // queue first, then the global queue — unless a high-urgency task is
        // pending resolution, in which case pause new-task acceptance.
        let mut pulled_any = false;
        if urgent_slots == 0 {
            #[allow(clippy::needless_range_loop)]
            for i in 0..slots_n {
                if slots[i].is_some() {
                    continue;
                }
                let task = {
                    let mut local = shared.locals[worker].lock();
                    local.pop_front()
                };
                let (task, from_local) = match task {
                    Some(t) => (t, true),
                    None => match pop_global(&shared.injector) {
                        Some(t) => (t, false),
                        None => break,
                    },
                };
                if from_local {
                    // ORDERING: statistic counters; task handoff is ordered
                    // by the local-queue mutex / injector internally.
                    stats.pulled_local.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.pulled_global.fetch_add(1, Ordering::Relaxed);
                }
                pulled_any = true;
                let wake = WakeState::new(std::thread::current());
                let waker = waker_for(&wake);
                slots[i] = Some(Seated { future: task.future, wake, waker, urgent: false });
                occupied += 1;
                progressed = true;
            }
        } else {
            // ORDERING: statistic counter.
            stats.urgent_pull_stalls.fetch_add(1, Ordering::Relaxed);
        }
        if pulled_any || occupied > 0 {
            // Global-queue depth, sampled at the pull point (§7.1). Sampling
            // every busy round (not just rounds that stole) keeps the counter
            // fresh in the ring for long-lived tasks, whose pulls all happen
            // at startup and would otherwise be overwritten on wrap.
            tracer.instant(EventKind::QueueDepth, 0, shared.injector.len() as u64, 0);
        }
        // ORDERING: statistic gauge, read only by `stats()`.
        stats.occupied.store(occupied as u64, Ordering::Relaxed);

        // Nothing woke and nothing was pulled: every seated task sleeps on
        // a waker, and any vacant slot found the queues empty. A waker stores
        // `ready` before it unparks, so one that fires after this round's
        // scan leaves the unpark token and the park returns at once.
        if !progressed {
            if occupied == 0 && shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // ORDERING: statistic counter; parking itself synchronizes
            // through `park_timeout`/`unpark`.
            stats.parks.fetch_add(1, Ordering::Relaxed);
            charge(ST_READY, &mut mark);
            let park_start = mark;
            std::thread::park_timeout(HOOK_CADENCE);
            // The park span reuses the time-in-state boundary reads.
            charge(ST_PARKED, &mut mark);
            tracer.span(EventKind::Park, 0, park_start, mark, 0);
            tracer.instant(EventKind::Unpark, 0, 0, 0);
        }
        charge(ST_READY, &mut mark);
    }
}

fn pop_global(injector: &Injector<Task>) -> Option<Task> {
    loop {
        match injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yield_point::yield_now;
    use crate::Notify;

    #[test]
    fn runs_a_simple_task() {
        let rt = Runtime::with_shape(1, 2);
        let h = rt.spawn(async { 1 + 1 });
        assert_eq!(h.join(), 2);
        rt.shutdown();
    }

    #[test]
    fn runs_many_tasks_across_workers() {
        let rt = Runtime::with_shape(2, 4);
        let handles: Vec<_> = (0..200u64)
            .map(|i| {
                rt.spawn(async move {
                    yield_now(Urgency::Low).await;
                    i * 2
                })
            })
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, (0..200u64).map(|i| i * 2).sum());
        let stats = rt.stats();
        assert_eq!(stats.tasks_completed, 200);
        rt.shutdown();
    }

    #[test]
    fn concurrency_exceeds_slot_count_via_queueing() {
        // 1 worker × 2 slots but 50 tasks: the pull scheduler must drain all.
        let rt = Runtime::with_shape(1, 2);
        let n = Arc::new(Notify::new());
        let handles: Vec<_> = (0..50)
            .map(|_| {
                let n = n.clone();
                rt.spawn(async move {
                    // Mixed yields to exercise the scheduler paths.
                    yield_now(Urgency::High).await;
                    let _ = n.generation();
                    yield_now(Urgency::Low).await;
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        rt.shutdown();
    }

    #[test]
    fn affinity_tasks_run_on_their_worker() {
        let rt = Runtime::with_shape(3, 2);
        let mut handles = Vec::new();
        for w in 0..3usize {
            for _ in 0..10 {
                handles.push((
                    w,
                    rt.spawn_on(w, async move {
                        yield_now(Urgency::Low).await;
                        crate::current_slot().expect("has slot").worker.raw() as usize
                    }),
                ));
            }
        }
        for (expect, h) in handles {
            assert_eq!(h.join(), expect);
        }
        let stats = rt.stats();
        assert_eq!(stats.tasks_pulled_local, 30);
        assert_eq!(stats.tasks_pulled_global, 0);
        rt.shutdown();
    }

    #[test]
    fn current_slot_is_visible_inside_tasks_only() {
        let rt = Runtime::with_shape(1, 1);
        assert!(crate::current_slot().is_none());
        let h = rt.spawn(async { crate::current_slot().is_some() });
        assert!(h.join());
        rt.shutdown();
    }

    #[test]
    fn panicking_task_propagates_through_join() {
        let rt = Runtime::with_shape(1, 1);
        let h = rt.spawn(async { panic!("boom") });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| h.join()));
        assert!(err.is_err());
        // The worker must survive the panic and run further tasks.
        let h2 = rt.spawn(async { 5 });
        assert_eq!(h2.join(), 5);
        rt.shutdown();
    }

    #[test]
    fn tasks_blocked_on_notify_resume() {
        let rt = Runtime::with_shape(2, 2);
        let gate = Arc::new(Notify::new());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let gate = gate.clone();
                rt.spawn(async move {
                    gate.notified().await;
                    1u32
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        gate.notify_all();
        let total: u32 = waiters.into_iter().map(|h| h.join()).sum();
        assert_eq!(total, 4);
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let rt = Runtime::with_shape(1, 1);
        rt.spawn(async {}).join();
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }

    #[test]
    fn worker_hook_ticks() {
        struct Hook(AtomicU64);
        impl WorkerHook for Hook {
            fn tick(&self, _worker: usize) {
                // ORDERING: test counter; the join below orders the read.
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rt = Runtime::with_shape(1, 1);
        let hook = Arc::new(Hook(AtomicU64::new(0)));
        rt.set_hook(hook.clone());
        rt.spawn(async {
            for _ in 0..5 {
                yield_now(Urgency::Low).await;
            }
        })
        .join();
        // ORDERING: test read, ordered by the task join above.
        assert!(hook.0.load(Ordering::Relaxed) > 0);
        rt.shutdown();
    }
}
