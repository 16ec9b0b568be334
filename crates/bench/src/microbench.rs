//! Minimal wall-clock micro-benchmark harness.
//!
//! A self-contained replacement for Criterion: adaptive batch sizing so
//! each sample runs long enough for the OS timer to resolve, a handful
//! of samples, and the median ns/op. No external crates, no statistics
//! beyond a median. Simulation results never
//! depend on this module — it measures the simulator, not the model.

use std::hint::black_box;
use std::time::Instant;

/// Target wall-clock time per sample batch.
const BATCH_NANOS: u128 = 20_000_000; // 20 ms
/// Samples taken per benchmark (median reported).
const SAMPLES: usize = 9;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name, e.g. `checksum/9000`.
    pub name: String,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Iterations per sample batch (diagnostic).
    pub batch_iters: u64,
}

fn time_batch<R>(iters: u64, f: &mut impl FnMut() -> R) -> u128 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos()
}

/// Measures `f`, returning the median ns per call.
///
/// Warm-up doubles the batch size until one batch takes at least
/// `BATCH_NANOS`; then `SAMPLES` batches run and the median
/// per-iteration time is reported, which rejects scheduler noise in
/// either direction.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    let mut iters = 1u64;
    loop {
        let nanos = time_batch(iters, &mut f);
        if nanos >= BATCH_NANOS || iters >= 1 << 40 {
            break;
        }
        // jump straight towards the target rather than doubling blindly
        let factor = (BATCH_NANOS / nanos.max(1)).clamp(2, 1 << 10) as u64;
        iters = iters.saturating_mul(factor);
    }
    let mut samples: Vec<f64> =
        (0..SAMPLES).map(|_| time_batch(iters, &mut f) as f64 / iters as f64).collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    Measurement { name: name.to_string(), ns_per_op: samples[SAMPLES / 2], batch_iters: iters }
}

/// A baseline/current pair measured in the same run, so their ratio
/// varies far less across machines than either time does.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Baseline (pre-optimization reference implementation) ns/op.
    pub baseline_ns: f64,
    /// Current implementation ns/op.
    pub current_ns: f64,
}

impl Comparison {
    /// How many times faster the current implementation is.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.current_ns
    }
}

/// Benchmarks `current` against `baseline` under one name.
pub fn compare<R, S>(
    name: &str,
    mut baseline: impl FnMut() -> R,
    mut current: impl FnMut() -> S,
) -> Comparison {
    let b = bench(&format!("{name}/baseline"), &mut baseline);
    let c = bench(&format!("{name}/current"), &mut current);
    Comparison { name: name.to_string(), baseline_ns: b.ns_per_op, current_ns: c.ns_per_op }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let m = bench("noop_add", || black_box(1u64) + black_box(2u64));
        assert!(m.ns_per_op > 0.0);
        assert!(m.batch_iters >= 1);
    }

    #[test]
    fn speedup_is_ratio() {
        let c = Comparison { name: "x".into(), baseline_ns: 30.0, current_ns: 10.0 };
        assert!((c.speedup() - 3.0).abs() < 1e-12);
    }
}
