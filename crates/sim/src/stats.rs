//! Measurement primitive: a running summary of samples.
//!
//! Every experiment harness reports through it so that the tables and
//! figures are produced from one consistent measurement path.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
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
}
