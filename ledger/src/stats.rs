//! Latency samples, percentiles with their sample-count rule, and the
//! seeded generator behind every script.

/// The tail percentiles a latency metric may report, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 is unsupported.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|p| {
        // In whole per-mille, so 10 000 samples at p99.9 count ten.
        let beyond_permille = ((100.0 - p) * 10.0).round() as usize;
        samples * beyond_permille / 1000 >= MIN_BEYOND
    })
}

/// Latency samples of one op class, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile in milliseconds (0 without samples).
    pub fn pct_ms(&mut self, p: f64) -> f64 {
        self.sort();
        percentile(&self.ns, p) as f64 / 1e6
    }

    pub fn p50_ms(&mut self) -> f64 {
        self.pct_ms(50.0)
    }

    pub fn mean_ms(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64 / 1e6
        }
    }

    pub fn max_ms(&mut self) -> f64 {
        self.pct_ms(100.0)
    }

    /// Whether the sample supports reporting percentile `p`.
    pub fn supports(&self, p: f64) -> bool {
        supported_tail(self.ns.len()).is_some_and(|best| best >= p)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let m = data.len();
    if m == 0 {
        0.0
    } else if m % 2 == 1 {
        data[m / 2]
    } else {
        (data[m / 2 - 1] + data[m / 2]) / 2.0
    }
}

/// Deterministic generator for scripts and documents (SplitMix64): the
/// same seed gives the same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
