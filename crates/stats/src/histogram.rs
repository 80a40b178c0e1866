//! Log-bucketed latency histograms.
//!
//! The serving layer (`xplain-serve`) tracks per-route request latency;
//! storing every sample would grow without bound on a long-lived server,
//! so observations land in logarithmically spaced buckets instead —
//! constant memory, and quantile estimates whose relative error is
//! bounded by the bucket growth factor. Offline reports (perfbench, the
//! paced fairness test) prefer exact percentiles over the raw samples;
//! [`percentile_exact`] covers that case.
//!
//! Everything here is deterministic and single-threaded; concurrent
//! recorders wrap a [`Histogram`] in a mutex (one `record` is a handful
//! of comparisons, so contention is negligible next to I/O).

/// A fixed-bucket histogram over positive values.
///
/// Buckets are defined by their inclusive upper bounds; a final implicit
/// overflow bucket catches everything beyond the last bound. Quantiles
/// interpolate linearly inside the containing bucket, which keeps the
/// relative error below the bucket growth factor (default ~33%, i.e.
/// the p99 of a 10ms route reads as 10ms-ish, never as 100ms).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Strictly increasing inclusive upper bounds, one per bucket.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` counters (the last is the overflow bucket).
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Build from explicit bucket upper bounds (must be finite, positive,
    /// and strictly increasing).
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing — histogram shape
    /// is a programmer decision, not runtime data.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for w in bounds.windows(2) {
            assert!(
                w[0] < w[1],
                "histogram bounds must be strictly increasing ({} !< {})",
                w[0],
                w[1]
            );
        }
        assert!(
            bounds[0] > 0.0 && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and positive"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The serving default: latency in **milliseconds** from 1µs to 60s,
    /// log-spaced at 8 buckets per decade (growth factor ≈ 1.33, so
    /// interpolated quantiles carry at most ~33% relative error).
    pub fn latency_ms() -> Self {
        let mut bounds = Vec::new();
        let per_decade = 8;
        // 10^-3 ms (1µs) .. 10^4.625 ms (~42s), then a 60s cap bucket.
        for step in 0..=((3 + 4) * per_decade + per_decade / 2) {
            let exp = -3.0 + step as f64 / per_decade as f64;
            bounds.push(10f64.powf(exp));
        }
        bounds.push(60_000.0);
        Histogram::with_bounds(bounds)
    }

    /// Record one observation. Non-finite or negative values are clamped
    /// into the first bucket (a latency can't be negative; a NaN from a
    /// broken clock shouldn't poison the whole histogram).
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of the recorded values (exact — tracked outside the buckets).
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the containing bucket, clamped to the observed min/max so
    /// sparse histograms never report values outside the data range.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if idx == 0 { 0.0 } else { self.bounds[idx - 1] };
                let hi = if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    // Overflow bucket: the max observation bounds it.
                    self.max
                };
                let within = (rank - seen) as f64 / c as f64;
                let est = lo + (hi - lo) * within;
                return Some(est.clamp(self.min, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Fold another histogram with identical bounds into this one.
    ///
    /// # Panics
    /// If the bucket layouts differ — merging incompatible histograms is
    /// a programmer error.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket layouts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile over raw samples (nearest-rank with linear
/// interpolation, the "type 7" estimator spreadsheets use). For offline
/// reports where the full sample set is at hand — perfbench's
/// percentiles come from here, not from bucket interpolation. `None` when
/// empty.
pub fn percentile_exact(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_log_buckets_with_bounded_error() {
        let mut h = Histogram::latency_ms();
        for v in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(256.0));
        // The median of the 10 samples is between 8 and 16; the bucketed
        // estimate must land within the growth-factor tolerance.
        let p50 = h.quantile(0.5).unwrap();
        assert!((4.0..=16.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((128.0..=256.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn quantile_tracks_uniform_data_closely() {
        let mut h = Histogram::latency_ms();
        for i in 1..=1000 {
            h.record(i as f64 / 100.0); // 0.01 .. 10.0 ms
        }
        // Log buckets at 8/decade: relative error below ~33%.
        for (q, expect) in [(0.5, 5.0), (0.9, 9.0), (0.99, 9.9)] {
            let got = h.quantile(q).unwrap();
            assert!(
                (got / expect - 1.0).abs() < 0.34,
                "q{q}: got {got}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::latency_ms();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_observation_is_every_quantile() {
        let mut h = Histogram::latency_ms();
        h.record(3.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert_eq!(v, 3.0, "q{q} of a single sample must be the sample");
        }
        assert_eq!(h.mean(), Some(3.0));
    }

    #[test]
    fn overflow_and_degenerate_values_are_absorbed() {
        let mut h = Histogram::latency_ms();
        h.record(1e9); // beyond the last bound → overflow bucket
        h.record(-5.0); // clamped to 0
        h.record(f64::NAN); // clamped to 0
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(1e9));
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(1e9));
    }

    #[test]
    fn merge_sums_counts_and_extremes() {
        let mut a = Histogram::latency_ms();
        let mut b = Histogram::latency_ms();
        a.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_bounds_panic() {
        Histogram::with_bounds(vec![1.0, 1.0]);
    }

    #[test]
    fn percentile_exact_matches_hand_values() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_exact(&data, 0.5), Some(3.0));
        assert_eq!(percentile_exact(&data, 0.0), Some(1.0));
        assert_eq!(percentile_exact(&data, 1.0), Some(5.0));
        // Interpolated: p25 of 1..5 sits at rank 2.
        assert_eq!(percentile_exact(&data, 0.25), Some(2.0));
        assert_eq!(percentile_exact(&[], 0.5), None);
        // Unsorted input is handled.
        assert_eq!(percentile_exact(&[5.0, 1.0, 3.0], 0.5), Some(3.0));
    }
}
