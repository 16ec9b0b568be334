//! Measurement primitives: counters, running summaries and histograms.
//!
//! Every experiment harness reports through these so that the tables and
//! figures are produced from one consistent measurement path.

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming summary of a series of samples: count, min, max, mean and
/// (exactly, by retention) percentiles.
///
/// Samples are kept in full — experiment populations here are at most a
/// few hundred thousand — so percentiles are exact rather than sketched.
///
/// # Examples
///
/// ```
/// use qpip_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.percentile(50.0), Some(2.0)); // nearest rank
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        self.samples.push(v);
        self.sorted = false;
        self.sum += v;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Exact `p`-th percentile (nearest-rank), `0 <= p <= 100`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        Some(self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Population standard deviation, or 0.0 with < 2 samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
    }
}

/// A fixed-width-bucket histogram over `[0, width * buckets)` with an
/// overflow bucket; useful for latency distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: f64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram of `buckets` buckets each `width` wide.
    ///
    /// # Panics
    ///
    /// Panics if `width <= 0` or `buckets == 0`.
    pub fn new(width: f64, buckets: usize) -> Self {
        assert!(width > 0.0 && buckets > 0);
        Histogram { width, buckets: vec![0; buckets], overflow: 0, count: 0 }
    }

    /// Records a sample (negative samples land in bucket 0).
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        let idx = (v.max(0.0) / self.width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterator over `(bucket_lower_bound, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets.iter().enumerate().map(move |(i, &c)| (i as f64 * self.width, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_percentiles_nearest_rank() {
        let mut s = Summary::new();
        for v in 1..=100 {
            s.record(f64::from(v));
        }
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
    }

    #[test]
    fn summary_empty_behaviour() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10.0, 3); // [0,10) [10,20) [20,30)
        for v in [0.0, 5.0, 15.0, 25.0, 99.0, -1.0] {
            h.record(v);
        }
        let counts: Vec<u64> = h.iter().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![3, 1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 6);
    }
}
