//! Order statistics over latency samples: medians, quartiles, and the
//! tail rule every `*_tail_ms` metric follows.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; all-zero for an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            q1,
            median,
            q3,
        }
    }

    /// Inter-quartile spread as a share of the median (0 when the median
    /// is 0) — the quantity `check` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median of `samples` (mean of the two middle values for even
/// counts); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `samples`; 0 for an empty slice.
///
/// Every bounded timing is the fastest request of its kind in a run, not
/// the median one. The host is shared, and what its other tenants do to a
/// request only ever adds time — for stretches of a few requests up to
/// minutes, by half as much again — so a run's median says how busy the
/// neighbours were during that half minute, and over ten runs it spreads
/// by a quarter of itself. The fastest request is the one that met a quiet
/// moment, and with dozens of requests per run nearly every run has one
/// (see `BENCHMARK.md`, *Steadiness*). A change to the program shifts the
/// whole distribution, its low end included.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance procedure
/// uses: quartile `k` sits at position `k(n+1)/4` (1-based) with linear
/// interpolation, clamped to the sample range. Fewer than two samples
/// yield the single value three times.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let at = |k: usize| {
        // j is the 1-based lower index, delta the numerator of the
        // fraction between v[j-1] and v[j], both clamped as CPython does.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// The tail statistic of `samples` and the percentile it stands for.
///
/// A tail is only as trustworthy as the samples beyond it, so the rule is
/// "the highest percentile with at least ten samples beyond it", capped at
/// p90: with `n >= 100` samples that is p90 (nearest-rank); below, it is
/// the order statistic with exactly ten samples above it (p83 at n = 60).
/// With ten samples or fewer there is no tail to speak of and the maximum
/// is returned as p100.
pub fn tail(samples: &[f64]) -> (f64, u32) {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return (0.0, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100);
    }
    let rank = if n >= 100 {
        (n * 9).div_ceil(10)
    } else {
        n - 10
    };
    (v[rank - 1], (rank * 100 / n) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&seq(3)), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4)
        let v: Vec<f64> = (1..=7).map(|i| (i * 10) as f64).collect();
        assert_eq!(quartiles(&v), (20.0, 40.0, 60.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&seq(10));
        assert_eq!(s.n, 10);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::of(&[7.0]).spread(), 0.0);
        assert_eq!(Summary::of(&[]).spread(), 0.0);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond_below_a_hundred() {
        // n = 60: the 50th order statistic, ten above it, p83.
        assert_eq!(tail(&seq(60)), (50.0, 83));
        assert_eq!(tail(&seq(11)), (1.0, 9));
        assert_eq!(tail(&seq(99)), (89.0, 89));
    }

    #[test]
    fn tail_is_p90_from_a_hundred_samples_up() {
        assert_eq!(tail(&seq(100)), (90.0, 90));
        assert_eq!(tail(&seq(150)), (135.0, 90));
        assert_eq!(tail(&seq(1000)), (900.0, 90));
    }

    #[test]
    fn tail_of_tiny_sets_is_the_maximum() {
        assert_eq!(tail(&[]), (0.0, 0));
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (9.0, 100));
        assert_eq!(tail(&seq(10)), (10.0, 100));
    }
}
