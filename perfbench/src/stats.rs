//! Seeded randomness and order statistics.

/// SplitMix64: a tiny, fully specified generator, so the request
/// sequence a seed produces does not depend on any library version.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for one purpose (`tag`) and index, derived from the workload seed.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ tag.rotate_left(17) ^ index.rotate_left(41));
    r.next_u64()
}

/// Samples indices from fixed non-negative weights.
#[derive(Clone, Debug)]
pub struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    pub fn new(weights: &[f64]) -> Weighted {
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Weighted { cumulative }
    }

    /// Zipf(`s`) popularity over `n` ranks: rank `k` has weight `1/k^s`.
    pub fn zipf(n: usize, s: f64) -> Weighted {
        let w: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        Weighted::new(&w)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x = rng.unit() * total;
        self.cumulative
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `samples` (0 with none).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.5), 1.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.99), 2.0);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Weighted::zipf(8, 1.1);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 8];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[7]);
    }
}
