//! Deterministic input generation from the workload seed.

/// SplitMix64: a small, fast generator whose whole stream is fixed by its
/// seed, so one workload seed always yields the same job list.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream derived from `seed` and a `stream` label, so independent
    /// draws (job mix, gains, learning seeds) do not share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values drawn from `1..=population`, in draw order
    /// (a partial Fisher–Yates shuffle).
    pub fn sample_distinct(&mut self, population: u64, k: usize) -> Vec<u64> {
        let mut pool: Vec<u64> = (1..=population).collect();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(7, 1).next_u64(),
            SplitMix::new(7, 2).next_u64()
        );
        let s = SplitMix::new(3, 0).sample_distinct(10, 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=10).collect::<Vec<_>>());
    }
}
