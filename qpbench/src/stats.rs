//! Order statistics for timing samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail
/// figure resting on a handful of samples is noise, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` (0–1) of `values`, interpolated linearly between the
/// two nearest order statistics.
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `q` outside 0–1.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0-1");
    let mut v = values.to_vec();
    sort(&mut v);
    let x = q * (v.len() - 1) as f64;
    let (i, f) = (x.floor() as usize, x.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * f,
        None => v[i],
    }
}

/// Sorts timing samples in place, ascending.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Latency histogram with 64 log-spaced buckets per octave (each under
/// 1.6 % wide) and fixed memory whatever the sample count, so a long run
/// costs no more memory than a short one.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

const SUB_BITS: u32 = 6;

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; (64 << SUB_BITS) as usize], n: 0 }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let e = 63 - v.leading_zeros();
        let m = if e >= SUB_BITS { v >> (e - SUB_BITS) } else { v << (SUB_BITS - e) };
        ((e << SUB_BITS) as u64 + (m & ((1 << SUB_BITS) - 1))) as usize
    }

    /// Midpoint of bucket `b`.
    fn value(b: usize) -> f64 {
        let (e, m) = ((b >> SUB_BITS) as i32, (b & ((1 << SUB_BITS) - 1)) as f64);
        let sub = f64::from(1u32 << SUB_BITS);
        (sub + m + 0.5) / sub * 2f64.powi(e)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile `p` (0–100], read at its bucket's
    /// midpoint, or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it — the same rule as [`percentile`].
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 || !(p > 0.0 && p <= 100.0) {
            return None;
        }
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        if self.n - rank < MIN_BEYOND as u64 {
            return None;
        }
        let mut seen = 0;
        self.counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .map(Self::value)
    }
}
