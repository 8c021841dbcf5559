//! Order statistics over latency samples and measurement sub-windows.

/// One finished transaction: when it ended (µs since the run's epoch) and
/// how long it took from `begin` to the commit acknowledgement, retries
/// included. Latencies saturate at ~4.29 s, far above any lock timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub end_us: u32,
    pub lat_ns: u32,
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty, so an idle sub-window reads as "no latency", never as a panic.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median; the mean of the middle pair for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A half-open measurement window in µs since the run's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    pub start_us: u64,
    pub end_us: u64,
}

impl Window {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }

    pub fn contains(&self, s: &Sample) -> bool {
        (self.start_us..self.end_us).contains(&(s.end_us as u64))
    }

    /// `n` equal consecutive sub-windows covering the window exactly.
    pub fn split(&self, n: u64) -> Vec<Window> {
        let len = self.end_us - self.start_us;
        (0..n)
            .map(|i| Window {
                start_us: self.start_us + len * i / n,
                end_us: self.start_us + len * (i + 1) / n,
            })
            .collect()
    }
}

/// Ascending latencies (ns) of the samples that ended inside `w`.
pub fn latencies_in(samples: &[Sample], w: &Window) -> Vec<u32> {
    let mut v: Vec<u32> = samples.iter().filter(|s| w.contains(s)).map(|s| s.lat_ns).collect();
    v.sort_unstable();
    v
}

/// The median over `n` sub-windows of each sub-window's `q`-quantile, in
/// µs. One noisy-neighbour hiccup lands in one sub-window and is voted out.
pub fn subwindow_quantile_us(samples: &[Sample], w: &Window, n: u64, q: f64) -> f64 {
    let per: Vec<f64> =
        w.split(n).iter().map(|sw| quantile(&latencies_in(samples, sw), q) / 1e3).collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_vectors() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn split_covers_window_without_gaps() {
        let w = Window { start_us: 10, end_us: 1_000_011 };
        let parts = w.split(6);
        assert_eq!(parts.len(), 6);
        assert_eq!(parts[0].start_us, 10);
        assert_eq!(parts[5].end_us, 1_000_011);
        for pair in parts.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
        }
    }

    #[test]
    fn subwindow_median_votes_out_one_bad_subwindow() {
        // Six 1 s sub-windows of 100 samples at 1000 ns; the third also
        // holds a burst at 1 ms that would own the whole-window p99.
        let mut samples = Vec::new();
        for sw in 0..6u32 {
            for i in 0..100u32 {
                samples.push(Sample { end_us: sw * 1_000_000 + i * 1000, lat_ns: 1000 });
            }
        }
        for i in 0..50u32 {
            samples.push(Sample { end_us: 2_000_000 + i, lat_ns: 1_000_000 });
        }
        let w = Window { start_us: 0, end_us: 6_000_000 };
        assert_eq!(quantile(&latencies_in(&samples, &w), 0.99), 1_000_000.0);
        assert_eq!(subwindow_quantile_us(&samples, &w, 6, 0.99), 1.0);
        // Samples outside the window are ignored.
        samples.push(Sample { end_us: 6_000_000, lat_ns: 5 });
        assert_eq!(latencies_in(&samples, &w).len(), 650);
    }
}
