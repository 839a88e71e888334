//! Order statistics the benchmark reports: nearest-rank percentiles of
//! latency samples, and the median / quartiles of per-repetition values.

use serde::{Deserialize, Serialize};

/// Nearest-rank `p`-quantile (`rank = ⌈p·n⌉`, 1-based) of an ascending
/// slice; `0.0` for an empty one.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts latency samples ascending (total order, so NaN cannot panic).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median with the mean of the two middle values for even counts — the
/// definition of Python's `statistics.median`, which the driver uses.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method: position `i·(n+1)/4`, linear
/// interpolation, extrapolating past the ends for tiny samples as Python
/// does). Fewer than two values have no spread: both quartiles are the
/// value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The measured part of a per-client record list: the first `warmup`
/// entries ran before caches and lazy set-up settled and are discarded.
pub fn after_warmup<T>(records: &[T], warmup: usize) -> &[T] {
    &records[warmup.min(records.len())..]
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// Smaller is better (latencies, CPU, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// The per-repetition values of one metric and their summary.
///
/// `value` is what the benchmark reports and what `compare` gates: the
/// quartile on the metric's good side (first for lower-is-better, third
/// for higher-is-better). Interference on a shared box only ever slows a
/// repetition down, and it comes in bursts of tens of seconds, so the good
/// quartile repeats better than the median: over 19 windows of 12
/// repetitions of `admit_direct`, the windows' medians ranged over 20 %
/// (`ops_per_sec`) and 26 % (`op_p90_us`), their good quartiles over 14 %
/// and 18 %. A change that slows every repetition moves both alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub unit: String,
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub runs: Vec<f64>,
}

impl Summary {
    pub fn of(unit: &str, better: Better, runs: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&runs);
        Summary {
            unit: unit.to_string(),
            value: match better {
                Better::Lower => q1,
                Better::Higher => q3,
            },
            median: median(&runs),
            min: runs.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            q3,
            max: runs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            runs,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.90), 90.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        // The median of four samples is the second, not the third.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) on the same data.
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn warmup_trimming_drops_exactly_the_prefix() {
        let samples = [9, 9, 1, 2, 3];
        assert_eq!(after_warmup(&samples, 2), [1, 2, 3]);
        assert_eq!(after_warmup(&samples, 0), samples);
        assert!(after_warmup(&samples, 10).is_empty());
    }

    #[test]
    fn summary_reports_the_good_quartile_and_the_spread() {
        let runs = vec![100.0, 102.0, 98.0, 101.0, 99.0];
        let s = Summary::of("us", Better::Lower, runs.clone());
        assert_eq!((s.value, s.median), (98.5, 100.0));
        assert_eq!((s.min, s.max), (98.0, 102.0));
        assert_eq!((s.q1, s.q3), (98.5, 101.5));
        assert!((s.spread() - 0.03).abs() < 1e-12);
        assert_eq!(Summary::of("1/s", Better::Higher, runs).value, 101.5);
    }
}
