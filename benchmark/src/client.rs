//! What every client co-routine shares: the run's schedule, the per-client
//! log, and the roll-up of sixteen logs into the end-to-end numbers.

use crate::stats::{latencies_in, quantile, subwindow_quantile_us, Sample, Window};
use crate::trace::{Recorder, SpanAgg, TxnSpan};
use std::time::{Duration, Instant};

/// Closed loop: this many client co-routines, each with one transaction
/// outstanding, spread evenly over the workers.
pub const CLIENTS: usize = 16;
pub const WORKERS: usize = 2;
pub const SLOTS_PER_WORKER: usize = 16;
/// Attempts before a transaction that keeps aborting counts as failed.
pub const MAX_TRIES: u32 = 50;
/// `lat_p99_us` is the median of this many sub-windows' p99s.
pub const SUBWINDOWS: u64 = 6;

/// When clients start recording, start tracing and stop. All clients and
/// the sampling main thread derive their windows from the same instants.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub epoch: Instant,
    /// End of warm-up: start of the untraced window.
    pub measure_from: Instant,
    /// Start of the traced window (== `end` on an untraced run).
    pub trace_from: Instant,
    pub end: Instant,
}

impl Schedule {
    pub fn new(warmup: Duration, untraced: Duration, traced: Duration) -> Self {
        let epoch = Instant::now();
        let measure_from = epoch + warmup;
        let trace_from = measure_from + untraced;
        Schedule { epoch, measure_from, trace_from, end: trace_from + traced }
    }

    fn us(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_micros() as u64
    }

    pub fn untraced_window(&self) -> Window {
        Window { start_us: self.us(self.measure_from), end_us: self.us(self.trace_from) }
    }

    pub fn traced_window(&self) -> Window {
        Window { start_us: self.us(self.trace_from), end_us: self.us(self.end) }
    }
}

/// One client's record of its run.
pub struct ClientLog {
    /// Committed transactions per transaction type (warm-up excluded).
    pub samples: Vec<Vec<Sample>>,
    /// Transactions started, warm-up included.
    pub attempted: u64,
    /// Errors, exhausted retries and wrong results, warm-up included.
    pub failed: u64,
    /// Commits the kernel acknowledged, warm-up included (the oracles'
    /// ground truth).
    pub acked: u64,
    /// Aborted attempts that were retried, inside the traced window.
    pub retries: u64,
    pub rec: Recorder,
}

impl ClientLog {
    pub fn new(sched: &Schedule, client: usize, kinds: usize) -> Self {
        ClientLog {
            samples: vec![Vec::new(); kinds],
            attempted: 0,
            failed: 0,
            acked: 0,
            retries: 0,
            rec: Recorder::new(sched.epoch, client),
        }
    }

    /// Book a committed transaction of type `kind` that ran `start..end`.
    pub fn committed(&mut self, sched: &Schedule, kind: usize, start: Instant, end: Instant) {
        self.acked += 1;
        if end >= sched.measure_from {
            self.samples[kind].push(Sample {
                end_us: sched.us(end).min(u32::MAX as u64) as u32,
                lat_ns: (end - start).as_nanos().min(u32::MAX as u128) as u32,
            });
        }
    }
}

/// Sixteen logs merged.
pub struct Merged {
    pub samples: Vec<Vec<Sample>>,
    pub attempted: u64,
    pub failed: u64,
    pub acked: u64,
    pub retries: u64,
    pub spans: SpanAgg,
    pub raw: Vec<Vec<TxnSpan>>,
}

pub fn merge(logs: Vec<ClientLog>) -> Merged {
    let kinds = logs[0].samples.len();
    let mut m = Merged {
        samples: vec![Vec::new(); kinds],
        attempted: 0,
        failed: 0,
        acked: 0,
        retries: 0,
        spans: SpanAgg::default(),
        raw: Vec::new(),
    };
    for log in logs {
        for (all, mine) in m.samples.iter_mut().zip(log.samples) {
            all.extend(mine);
        }
        m.attempted += log.attempted;
        m.failed += log.failed;
        m.acked += log.acked;
        m.retries += log.retries;
        m.spans.merge(&log.rec.agg);
        m.raw.push(log.rec.raw);
    }
    m
}

impl Merged {
    /// Transactions of every type committed inside `w`.
    pub fn commits_in(&self, w: &Window) -> u64 {
        self.samples.iter().flatten().filter(|s| w.contains(s)).count() as u64
    }

    pub fn throughput_tps(&self, w: &Window) -> f64 {
        self.commits_in(w) as f64 / w.secs()
    }

    /// `(p50_us, p99_us, samples)` of transaction type `kind` over `w`:
    /// the p50 over the whole window, the p99 as the sub-window median.
    pub fn latency_us(&self, kind: usize, w: &Window) -> (f64, f64, usize) {
        let lat = latencies_in(&self.samples[kind], w);
        let p99 = subwindow_quantile_us(&self.samples[kind], w, SUBWINDOWS, 0.99);
        (quantile(&lat, 0.5) / 1e3, p99, lat.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_follow_the_schedule_and_warmup_is_dropped() {
        let s = Schedule::new(
            Duration::from_millis(100),
            Duration::from_millis(300),
            Duration::from_millis(200),
        );
        let (u, t) = (s.untraced_window(), s.traced_window());
        assert_eq!((u.start_us, u.end_us), (100_000, 400_000));
        assert_eq!((t.start_us, t.end_us), (400_000, 600_000));

        let mut log = ClientLog::new(&s, 0, 2);
        let at = |ms: u64| s.epoch + Duration::from_millis(ms);
        log.committed(&s, 0, at(10), at(50)); // warm-up: acknowledged, not sampled
        log.committed(&s, 0, at(90), at(150));
        log.committed(&s, 1, at(400), at(450));
        assert_eq!(log.acked, 3);
        let m = merge(vec![log]);
        assert_eq!(m.commits_in(&u), 1);
        assert_eq!(m.commits_in(&t), 1);
        assert_eq!(m.samples[0][0].lat_ns, 60_000_000);
        assert_eq!(m.latency_us(0, &u).2, 1);
    }
}
