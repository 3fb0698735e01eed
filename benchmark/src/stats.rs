//! Order statistics and the serving-ladder rules, kept free of any
//! FlexOS type so they are unit-testable on plain numbers.

/// Latency limit a ladder rung must meet: p99 ≤ this many cycles
/// (≈ 95 µs at 2.1 GHz). The issue proposed 100 000, but the p99 at
/// gap 16 000 is 91–102 k depending on the arrival seed, so the pick
/// flipped between rungs (a 25 % jump) from seed to seed; 200 000 sits
/// in the wide gap between the 14 000 rung (128–148 k) and the 12 000
/// rung (300–330 k).
pub const P99_LIMIT_CYCLES: f64 = 200_000.0;

/// Slack on the backlog rule: served cycles per burst may exceed the
/// mean arrival gap by 2 % before the backlog counts as growing.
pub const BACKLOG_SLACK: f64 = 1.02;

/// Exact nearest-rank percentile (`q` in 0..=1) of a sorted sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The floor of repeated timings of identical work: the second fastest.
/// Interference from the host only ever adds time, so the fast end of
/// the sample is where the work's own cost shows (the repo's own
/// min-estimator doctrine, EXPERIMENTS.md E13/E17); the second fastest
/// rather than the fastest, so that it takes two freak readings, not
/// one, to set the figure. On the shared container this was written in,
/// the floor of 21 rounds of `serve_c10k` spread 2–3 % from run to run
/// where their median spread 4–6 %.
pub fn floor(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "floor of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[1.min(v.len() - 1)]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). Empty samples have no median.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// because that is what the driver applies to the benchmark's outputs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One rung of the open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Mean arrival gap between bursts, simulated cycles.
    pub gap: u64,
    /// Requests per burst.
    pub pipeline: u64,
    /// Measured simulated cycles per completed request.
    pub cycles_per_op: f64,
    /// Measured median and 99th-percentile burst latency, simulated cycles.
    pub p50: f64,
    pub p99: f64,
}

impl Rung {
    /// Offered load in requests per million simulated cycles.
    pub fn rate(&self) -> f64 {
        self.pipeline as f64 / self.gap as f64 * 1e6
    }

    /// Whether the server kept up: it spent no more than the arrival gap
    /// (plus slack) per burst, so the queue did not grow over the run.
    pub fn backlog_stable(&self) -> bool {
        self.cycles_per_op * self.pipeline as f64 <= BACKLOG_SLACK * self.gap as f64
    }

    /// Whether the rung meets the latency limit without a growing backlog.
    pub fn sustainable(&self) -> bool {
        self.p99 <= P99_LIMIT_CYCLES && self.backlog_stable()
    }
}

/// The highest offered rate among the sustainable rungs, or `None` when
/// no rung is sustainable.
pub fn max_rate(ladder: &[Rung]) -> Option<f64> {
    ladder
        .iter()
        .filter(|r| r.sustainable())
        .map(Rung::rate)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_the_edges() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.50), 50);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank(&s, 0.999), 100);
        assert_eq!(nearest_rank(&s, 0.0), 1);
        assert_eq!(nearest_rank(&s, 1.0), 100);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn floor_is_the_second_fastest() {
        assert_eq!(floor(&[7.0, 3.0, 9.0, 4.0]), 4.0);
        assert_eq!(floor(&[7.0, 3.0]), 7.0);
        assert_eq!(floor(&[7.0]), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from CPython 3.12:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` is
    /// `[2.75, 5.5, 8.25]`, and for `[10, 20, 30]` it is `[10, 20, 30]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        assert!((iqr_ratio(&v) - 1.0).abs() < 1e-12);
    }

    fn rung(gap: u64, cycles_per_op: f64, p99: f64) -> Rung {
        Rung {
            gap,
            pipeline: 4,
            cycles_per_op,
            p50: 0.0,
            p99,
        }
    }

    #[test]
    fn backlog_rule_allows_two_percent_slack() {
        assert!(rung(12_000, 2_999.0, 0.0).backlog_stable());
        assert!(rung(10_000, 2_550.0, 0.0).backlog_stable());
        assert!(!rung(10_000, 2_551.0, 0.0).backlog_stable());
        assert!(!rung(8_000, 2_574.0, 0.0).backlog_stable());
    }

    #[test]
    fn max_rate_picks_the_highest_sustainable_rung() {
        let ladder = [
            rung(50_000, 12_496.0, 30_587.0),
            rung(20_000, 4_998.0, 63_460.0),
            rung(14_000, 3_499.0, 128_757.0),
            rung(12_000, 2_999.0, 320_734.0), // p99 over the limit
            rung(10_000, 2_625.0, 150_000.0), // meets p99 but backlog grows
        ];
        let best = max_rate(&ladder).expect("a rung is sustainable");
        assert!((best - 4.0 / 14_000.0 * 1e6).abs() < 1e-9);
        assert_eq!(max_rate(&ladder[3..]), None);
    }
}
