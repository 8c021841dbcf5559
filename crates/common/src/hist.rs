//! Lock-free log-bucketed latency histograms (the measurement substrate
//! for Exp 7-style breakdowns and the `Database::stats()` percentiles).
//!
//! Each histogram is a fixed array of relaxed `AtomicU64` buckets whose
//! boundaries grow geometrically: values keep their top
//! [`SUB_BUCKET_BITS`] mantissa bits, giving every octave `2^SUB_BUCKET_BITS`
//! linear sub-buckets (~12% worst-case relative error). Recording is a
//! single index computation plus one relaxed `fetch_add`, so the hot
//! paths (commit, WAL flush, buffer fault, ...) pay a handful of
//! nanoseconds. Histograms are sharded per worker alongside the
//! counters in [`crate::metrics::Metrics`] and merged in O(workers) at
//! snapshot time; merged snapshots expose p50/p95/p99 estimates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave (2^3 = 8).
pub const SUB_BUCKET_BITS: usize = 3;

/// Total bucket count: covers the full `u64` nanosecond domain.
pub const NUM_BUCKETS: usize = (64 - SUB_BUCKET_BITS + 1) << SUB_BUCKET_BITS;

/// Instrumented latency sites across the kernel.
///
/// Every variant maps to one paper mechanism (see DESIGN.md
/// "Observability" for the section-by-section mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum LatencySite {
    /// `Transaction::commit` end-to-end (WAL commit record + durability wait).
    Commit = 0,
    /// `Transaction::rollback` end-to-end (UNDO replay + abort record).
    Abort = 1,
    /// One per-slot WAL writer flush (write + optional fsync).
    WalFlush = 2,
    /// One group-commit round flushing all dirty slot writers.
    GroupCommit = 3,
    /// Cold page fault: read from the Data Page File into a frame.
    BufferFault = 4,
    /// Page eviction: write-back (if dirty) + unswizzle.
    Eviction = 5,
    /// Wasted work in one optimistic B-Tree descent that had to restart.
    BtreeRestart = 6,
    /// Time a transaction spent blocked on another writer's tuple lock.
    LockWait = 7,
    /// End-to-end WAL recovery replay in `Database::open` (scan + apply
    /// + re-log). At most one observation per crash-recovering open.
    RecoveryReplay = 8,
    /// One `Transaction::multi_get`/`multi_lookup` batch end-to-end
    /// (interleaved descents, including any fault-suspend waits).
    BatchGet = 9,
}

pub const NSITES: usize = 10;

/// All sites in display/report order.
pub const SITES: [LatencySite; NSITES] = [
    LatencySite::Commit,
    LatencySite::Abort,
    LatencySite::WalFlush,
    LatencySite::GroupCommit,
    LatencySite::BufferFault,
    LatencySite::Eviction,
    LatencySite::BtreeRestart,
    LatencySite::LockWait,
    LatencySite::RecoveryReplay,
    LatencySite::BatchGet,
];

impl LatencySite {
    pub fn name(self) -> &'static str {
        match self {
            LatencySite::Commit => "commit",
            LatencySite::Abort => "abort",
            LatencySite::WalFlush => "wal_flush",
            LatencySite::GroupCommit => "group_commit",
            LatencySite::BufferFault => "buffer_fault",
            LatencySite::Eviction => "eviction",
            LatencySite::BtreeRestart => "btree_restart",
            LatencySite::LockWait => "lock_wait",
            LatencySite::RecoveryReplay => "recovery_replay",
            LatencySite::BatchGet => "batch_get",
        }
    }
}

/// Bucket index for a nanosecond value. Small values (below
/// `2^SUB_BUCKET_BITS`) index directly; larger values keep their top
/// `SUB_BUCKET_BITS` bits after the leading one.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    let v = ns.max(1);
    let msb = 63 - v.leading_zeros() as usize;
    if msb < SUB_BUCKET_BITS {
        v as usize
    } else {
        let sub = ((v >> (msb - SUB_BUCKET_BITS)) & ((1 << SUB_BUCKET_BITS) - 1)) as usize;
        ((msb - SUB_BUCKET_BITS + 1) << SUB_BUCKET_BITS) + sub
    }
}

/// Inclusive lower bound of a bucket (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    let octave = index >> SUB_BUCKET_BITS;
    let sub = (index & ((1 << SUB_BUCKET_BITS) - 1)) as u64;
    if octave == 0 {
        sub
    } else {
        let msb = octave - 1 + SUB_BUCKET_BITS;
        (1u64 << msb) | (sub << (msb - SUB_BUCKET_BITS))
    }
}

/// A lock-free histogram: one relaxed `fetch_add` per record.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: {
                let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
                v.into_boxed_slice().try_into().map_err(|_| ()).expect("exact length")
            },
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Add this shard's contents into a merge-in-progress snapshot.
    pub fn merge_into(&self, out: &mut HistogramSnapshot) {
        for (i, b) in self.buckets.iter().enumerate() {
            out.buckets[i] += b.load(Ordering::Relaxed);
        }
        out.count += self.count.load(Ordering::Relaxed);
        out.sum_ns += self.sum_ns.load(Ordering::Relaxed);
        out.max_ns = out.max_ns.max(self.max_ns.load(Ordering::Relaxed));
    }
}

/// An immutable merged histogram with quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: vec![0; NUM_BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Record a value directly into a snapshot (used by tests and
    /// offline aggregation; the hot path goes through
    /// [`LatencyHistogram::record`]).
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the
    /// lower bound of the bucket containing the q·count-th sample,
    /// clamped by the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Cumulative bucket view for Prometheus-style exposition: one
    /// `(upper_bound_ns, cumulative_count)` pair per power-of-two octave
    /// (the `2^SUB_BUCKET_BITS` linear sub-buckets of an octave are
    /// collapsed), upper bounds inclusive and strictly increasing. The
    /// `+Inf` bucket is not included — it always equals [`Self::count`].
    ///
    /// Octave granularity keeps a 10-site exposition around ~600 lines
    /// instead of ~5000 while staying within 2x relative bound error,
    /// which is plenty for dashboard heatmaps; exact quantiles come from
    /// [`Self::quantile`] over the full-resolution buckets.
    pub fn cumulative_octaves(&self) -> Vec<(u64, u64)> {
        let per_octave = 1usize << SUB_BUCKET_BITS;
        let mut out = Vec::with_capacity(NUM_BUCKETS / per_octave);
        let mut cum = 0u64;
        let mut i = 0;
        while i + per_octave <= NUM_BUCKETS {
            let end = i + per_octave;
            for &c in &self.buckets[i..end] {
                cum += c;
            }
            // Buckets cover [lower_bound(i), lower_bound(end)), so the
            // inclusive upper bound of this group is lower_bound(end) - 1.
            // The final octave's bound would be 2^64: clamp to u64::MAX
            // (bucket_lower_bound would shift out of range there).
            let upper = if end == NUM_BUCKETS { u64::MAX } else { bucket_lower_bound(end) - 1 };
            out.push((upper, cum));
            i = end;
        }
        out
    }

    /// Merge another snapshot into this one (bucket-wise sum). `sum_ns`
    /// saturates: a pinned mean beats a panic after ~580 years of
    /// accumulated latency.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Bucket-wise `self - earlier` (interval deltas).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for i in 0..NUM_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        // The interval max is unknowable from bucket deltas; report the
        // highest non-empty bucket's upper region via the overall max.
        out.max_ns = if out.count > 0 { self.max_ns } else { 0 };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_roundtrips_with_bounded_error() {
        for &v in &[0u64, 1, 2, 7, 8, 9, 100, 1_000, 65_535, 1 << 30, u64::MAX / 2] {
            let idx = bucket_index(v);
            let lo = bucket_lower_bound(idx);
            assert!(lo <= v.max(1), "lower bound {lo} above value {v}");
            // Relative error bounded by one sub-bucket (~12.5%).
            if v > 8 {
                assert!((v - lo) as f64 / v as f64 <= 0.125 + 1e-9, "v={v} lo={lo} idx={idx}");
            }
            assert!(idx < NUM_BUCKETS);
        }
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for i in 1..NUM_BUCKETS {
            let b = bucket_lower_bound(i);
            assert!(b >= prev, "bucket {i} bound {b} < {prev}");
            prev = b;
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = LatencyHistogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let mut s = HistogramSnapshot::default();
        h.merge_into(&mut s);
        assert_eq!(s.count(), 10_000);
        let (p50, p95, p99) = (s.p50(), s.p95(), s.p99());
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert!(p99 <= s.max_ns());
        // p50 of uniform 100..=1_000_000 should be near 500_000.
        assert!((400_000..=600_000).contains(&p50), "p50={p50}");
    }

    #[test]
    fn merge_preserves_count_and_bounds_quantiles() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        for v in 1..=100u64 {
            a.record(v * 10); // 10..=1000
        }
        for v in 1..=100u64 {
            b.record(v * 1000); // 1000..=100_000
        }
        let (qa, qb) = (a.p50(), b.p50());
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 200);
        let qm = m.p50();
        assert!(qm >= qa.min(qb) && qm <= qa.max(qb), "qa={qa} qb={qb} qm={qm}");
    }

    #[test]
    fn delta_since_isolates_the_interval() {
        let h = LatencyHistogram::default();
        for _ in 0..50 {
            h.record(1_000);
        }
        let mut early = HistogramSnapshot::default();
        h.merge_into(&mut early);
        for _ in 0..50 {
            h.record(1_000_000);
        }
        let mut late = HistogramSnapshot::default();
        h.merge_into(&mut late);
        let d = late.delta_since(&early);
        assert_eq!(d.count(), 50);
        assert!(d.p50() >= 500_000, "delta p50 {} should reflect the slow interval", d.p50());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn cumulative_octaves_are_monotone_and_total_to_count() {
        let mut s = HistogramSnapshot::default();
        for &v in &[0u64, 1, 7, 8, 100, 10_000, 1 << 40, u64::MAX] {
            s.record(v);
        }
        let octaves = s.cumulative_octaves();
        assert_eq!(octaves.len(), NUM_BUCKETS >> SUB_BUCKET_BITS);
        let mut prev_bound = 0u64;
        let mut prev_cum = 0u64;
        for &(bound, cum) in &octaves {
            assert!(bound > prev_bound || prev_bound == 0, "bounds must increase");
            assert!(cum >= prev_cum, "cumulative counts must be non-decreasing");
            prev_bound = bound;
            prev_cum = cum;
        }
        let (last_bound, last_cum) = *octaves.last().unwrap();
        assert_eq!(last_bound, u64::MAX);
        assert_eq!(last_cum, s.count(), "final octave must equal the total count");
        // Small values land under the first bound (7), which covers 0..=7.
        assert_eq!(octaves[0].0, 7);
        assert_eq!(octaves[0].1, 3, "0, 1 and 7 sit in the first octave; 8 does not");
    }

    #[test]
    fn site_names_are_stable() {
        let names: Vec<&str> = SITES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "commit",
                "abort",
                "wal_flush",
                "group_commit",
                "buffer_fault",
                "eviction",
                "btree_restart",
                "lock_wait",
                "recovery_replay",
                "batch_get"
            ]
        );
    }
}
