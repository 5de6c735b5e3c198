//! A deterministic log2-bucketed histogram with percentile queries.
//!
//! It is plain data — no atomics, no clocks, no allocation. Determinism is
//! the contract: the same samples produce the same histogram, bit for bit.
//!
//! ## Bucketing math
//!
//! A [`Histogram`] has 65 buckets indexed by the *bit length* of the
//! sample: bucket 0 holds exactly the value 0, and bucket `i` (1 ≤ i ≤ 64)
//! holds values in `[2^(i-1), 2^i - 1]`. Recording is a `leading_zeros`
//! instruction, and a percentile query walks the buckets to the requested
//! rank and reports the containing bucket's upper bound clamped into
//! `[min, max]` (min and max are tracked exactly). The reported quantile
//! is therefore *exact within its bucket*: the true rank statistic lies in
//! the same power-of-two bucket, so the relative error is bounded by the
//! bucket width — strictly less than 2×.

use crate::json::Json;

/// Number of histogram buckets: one for zero plus one per possible bit
/// length of a `u64` sample.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A deterministic log2-bucketed histogram of `u64` samples (nanoseconds,
/// bytes, counts — any non-negative magnitude).
///
/// Tracks exact `count`, `sum`, `min` and `max` alongside the buckets, so
/// extreme statistics are exact and interior percentiles are exact within
/// their power-of-two bucket (see the module docs for the math).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a sample: 0 for the value 0, else the bit length.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: 0 for bucket 0, else `2^i - 1`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100, integer), or `None` if the
    /// histogram is empty.
    ///
    /// Computed in pure integer arithmetic: the rank is
    /// `ceil(count * p / 100)` (at least 1), and the result is the upper
    /// bound of the bucket containing that rank, clamped into
    /// `[min, max]`. Guarantees `percentile(p) <= max()` and
    /// `percentile(p) >= min()` for every `p`.
    pub fn percentile(&self, p: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.min(100);
        let rank = (self.count.saturating_mul(p).saturating_add(99) / 100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Renders the summary the stats JSON embeds: exact count/sum/min/max
    /// plus bucket-resolution p50/p90/p99. Empty histograms render all
    /// five magnitude fields as 0 with `count` 0.
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("count", self.count)
            .set("sum", self.sum)
            .set("min", self.min().unwrap_or(0))
            .set("max", self.max().unwrap_or(0))
            .set("p50", self.percentile(50).unwrap_or(0))
            .set("p90", self.percentile(90).unwrap_or(0))
            .set("p99", self.percentile(99).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(50), None);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("p99").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn single_sample_every_percentile_is_the_sample() {
        let mut h = Histogram::new();
        h.record(777);
        for p in [0, 1, 50, 90, 99, 100] {
            assert_eq!(h.percentile(p), Some(777), "p{p}");
        }
        assert_eq!(h.min(), Some(777));
        assert_eq!(h.max(), Some(777));
        assert_eq!(h.sum(), 777);
    }

    #[test]
    fn percentiles_bounded_by_min_and_max() {
        let mut h = Histogram::new();
        for v in [3u64, 17, 900, 901, 5000, 123_456, 7] {
            h.record(v);
        }
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        for p in 0..=100 {
            let q = h.percentile(p).unwrap();
            assert!(q >= min && q <= max, "p{p} = {q} outside [{min}, {max}]");
        }
        assert!(h.percentile(50).unwrap() <= h.percentile(90).unwrap());
        assert!(h.percentile(90).unwrap() <= h.percentile(99).unwrap());
        assert_eq!(h.percentile(100), Some(max));
    }

    #[test]
    fn percentile_exact_within_bucket() {
        // The reported quantile must share a power-of-two bucket with the
        // true rank statistic: error < bucket width < true value.
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=100u64).map(|i| i * 37).collect();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [50u64, 90, 99] {
            let rank = (h.count() * p).div_ceil(100).max(1) as usize;
            let truth = sorted[rank - 1];
            let got = h.percentile(p).unwrap();
            assert_eq!(
                bucket_index(got),
                bucket_index(truth),
                "p{p}: {got} vs true {truth} in different buckets"
            );
            assert!(got >= truth, "upper-bound estimate must not undershoot");
        }
    }
}
