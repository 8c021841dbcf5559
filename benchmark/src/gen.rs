//! Seeded input generators. `--seed` reaches the kernel only through these
//! streams (and through `phoebe_tpcc`'s `TpccRng` for the TPC-C inputs).

/// SplitMix64: the finaliser doubles as the key scrambler and the `c0`
/// checksum, the stream as the benchmark's own PRNG. Written out here so
/// the streams stay byte-identical whatever the workspace's `rand` does.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias at n ≤ 2^32 is < 2^-32).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of client `client`'s stream under run seed `seed`.
pub fn client_seed(seed: u64, client: usize) -> u64 {
    mix64(seed ^ mix64(client as u64 + 1))
}

/// Zipfian ranks over `[0, n)` (Gray et al., the YCSB generator): rank 0 is
/// the hottest. The zeta sums cost O(n) once; clients share one table.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Scrambled zipfian: the hot ranks are spread over the key space so
    /// the skew does not coincide with load order (leaf locality).
    pub fn key(&self, rng: &mut Rng) -> u64 {
        mix64(self.rank(rng)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<u8> {
        let zipf = Zipf::new(10_000, 0.9);
        let mut rng = Rng::new(client_seed(seed, 3));
        let mut out = Vec::new();
        for _ in 0..500 {
            out.extend(rng.below(500_000).to_le_bytes());
            out.extend(zipf.key(&mut rng).to_le_bytes());
        }
        out
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        // Pinned values: a change to the generator is a change to every
        // workload's inputs and must be deliberate.
        let mut rng = Rng::new(42);
        assert_eq!(rng.next_u64(), 13679457532755275413);
        assert_eq!(rng.below(500_000), 79955);
    }

    #[test]
    fn client_streams_are_distinct() {
        assert_ne!(client_seed(1, 0), client_seed(1, 1));
        assert_ne!(client_seed(1, 0), client_seed(2, 0));
    }

    #[test]
    fn zipf_is_bounded_and_skewed() {
        let n = 10_000;
        let zipf = Zipf::new(n, 0.9);
        let mut rng = Rng::new(1);
        let mut head = 0;
        for _ in 0..20_000 {
            let r = zipf.rank(&mut rng);
            assert!(r < n);
            if r < n / 100 {
                head += 1;
            }
        }
        // θ = 0.9 sends roughly half of all draws to the hottest 1 %.
        assert!(head > 20_000 * 4 / 10, "head share {head}");
        assert!((0..1000).all(|_| zipf.key(&mut rng) < n));
    }
}
