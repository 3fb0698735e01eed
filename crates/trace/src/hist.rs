//! Fixed-bucket log2 cycle histograms.
//!
//! A [`CycleHist`] is a constant-size array of power-of-two buckets:
//! recording a sample is a `leading_zeros` plus an array increment, with
//! no allocation and no branching beyond a clamp. The sample count is
//! not kept beside the buckets: [`CycleHist::count`] sums them, and only
//! a report reads it. Percentiles are read back as the upper bound of
//! the bucket containing the requested rank, which is exact to within a
//! factor of two — plenty for "did this gate cost 100 or 4000 cycles"
//! questions.

use crate::span::nearest_rank;

/// Number of log2 buckets. Bucket 0 holds the value 0; bucket `i` (for
/// `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`. 48 buckets cover every
/// latency the simulated clock can express in a benchmark run.
pub const HIST_BUCKETS: usize = 48;

/// A log2-bucketed histogram of cycle counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHist {
    counts: [u64; HIST_BUCKETS],
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for CycleHist {
    fn default() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl CycleHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, otherwise the bit length of the
    /// value, clamped to the last bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (the value reported for
    /// percentiles landing in that bucket).
    #[inline]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HIST_BUCKETS - 1 {
            // The last bucket is a catch-all for everything larger.
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.counts[Self::bucket_index(value)] += 1;
            self.sum = self.sum.saturating_add(value);
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Number of recorded samples: the buckets' sum.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty: `min` is then still
    /// `u64::MAX` and `max` 0).
    pub fn min(&self) -> u64 {
        self.min.min(self.max)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The value at percentile `num/den`: the upper bound of the first
    /// bucket whose cumulative count reaches the sample's nearest rank
    /// (the rank [`crate::percentile`] reads), capped at the observed
    /// maximum, so the top bucket reports it instead of its (huge)
    /// nominal bound. Returns 0 for an empty histogram.
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = nearest_rank(n, num, den);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Convenience: (p50, p90, p99).
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (
            self.percentile(50, 100),
            self.percentile(90, 100),
            self.percentile(99, 100),
        )
    }

    /// Raw bucket counts (for serialization).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "trace-off"))]
    use {crate::percentile, proptest::prelude::*};

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for i in 1..HIST_BUCKETS {
            let ub = CycleHist::bucket_upper_bound(i);
            assert!(ub > prev, "bucket {i} bound {ub} <= {prev}");
            prev = ub;
        }
    }

    #[test]
    fn values_land_in_their_bucket() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = CycleHist::bucket_index(v);
            assert!(v <= CycleHist::bucket_upper_bound(i));
            if i > 0 {
                assert!(v > CycleHist::bucket_upper_bound(i - 1));
            }
        }
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn percentiles_are_ordered() {
        let mut h = CycleHist::new();
        for v in [90u64, 100, 110, 5000, 5100, 5200, 5300, 90000] {
            h.record(v);
        }
        let (p50, p90, p99) = h.quantiles();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
        assert_eq!(h.count(), 8);
    }

    #[cfg(not(feature = "trace-off"))]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A bucketed percentile is the bucket of the exact one: over
        /// random samples (each of a random bit width, so ranks straddle
        /// bucket edges), `percentile(num, den)` reports the upper bound
        /// of the bucket the sorted sample's nearest-rank value lands
        /// in, capped at the maximum.
        #[test]
        fn percentile_is_the_bucket_of_the_exact_nearest_rank(
            sample in prop::collection::vec((any::<u64>(), 0u32..64), 1..300),
            num in 0u64..=1000,
        ) {
            let mut sorted: Vec<u64> = sample.iter().map(|&(v, shift)| v >> shift).collect();
            let mut h = CycleHist::new();
            for &v in &sorted {
                h.record(v);
            }
            sorted.sort_unstable();
            prop_assert_eq!(h.count(), sorted.len() as u64);
            prop_assert_eq!((h.min(), h.max()), (sorted[0], sorted[sorted.len() - 1]));
            let fixed = [(50, 100), (90, 100), (99, 100), (999, 1000), (0, 1), (1, 1)];
            for (num, den) in fixed.into_iter().chain([(num, 1000)]) {
                let exact = percentile(&sorted, num, den);
                let bucket = CycleHist::bucket_upper_bound(CycleHist::bucket_index(exact));
                prop_assert_eq!(h.percentile(num, den), bucket.min(h.max()), "{}/{}", num, den);
            }
        }
    }

    #[cfg(feature = "trace-off")]
    #[test]
    fn record_is_a_no_op_when_traced_off() {
        let mut h = CycleHist::new();
        h.record(12345);
        assert_eq!(h.count(), 0);
    }
}
