//! Sample statistics: median, the tail band, geometric mean, and the
//! quartile spread the driver uses to accept a metric.

/// The `q`-quantile (0..=1) of an ascending-sorted sample, by linear
/// interpolation between closest ranks. Empty samples give 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// An ascending copy of `samples` (NaNs are a harness bug and panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The tail of a latency sample: the mean of its slowest tenth (at least
/// ten samples), not counting the slowest hundredth (at least one sample).
/// Returns the value and the percentile the band starts at.
///
/// A single high percentile is the usual tail, and the wrong one here. The
/// op streams are mixes of a few classes of op, so a percentile sits on
/// one class or on the edge between two: p95 of `interactive_mix` falls
/// between two of its recursive queries and spread by 0.18 between ten
/// runs whose band mean spread by 0.03. The slowest hundredth of ten
/// thousand sub-millisecond ops are the ones the scheduler preempted, and
/// p99 sits where they begin: 0.20 on `table1_datalog`, against 0.12 for
/// the band. And a time-boxed window completes another number of ops each
/// time, which moves a rank but hardly moves a mean over a tenth of them.
/// Ten samples are the fewest worth averaging; dropping the slowest keeps
/// the box's worst hiccup of the window out. A sample too small for that
/// reports its median as its tail.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    let band = (n / 10).max(10);
    let dropped = (n / 100).max(1);
    if n < 2 * (band + dropped) {
        return (quantile_sorted(&s, 0.5), 50.0);
    }
    let (lo, hi) = (n - dropped - band, n - dropped);
    (s[lo..hi].iter().sum::<f64>() / band as f64, 100.0 * lo as f64 / n as f64)
}

/// The geometric mean of strictly positive values (0 when empty or when
/// any value is not positive — a zero time is a measurement bug, not data).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_mean_of_the_slowest_tenth_without_the_slowest_hundredth() {
        // 0..1000: drop 990..1000, average 890..990.
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&samples), (939.5, 89.0));
        // 0..50: the band is ten samples wide and one sample is dropped.
        let samples: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&samples), (43.5, 78.0));
        // Order does not matter, one wild outlier does not either.
        let mut shuffled: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        shuffled[0] = 1e9;
        assert_eq!(tail(&shuffled).0, 939.5);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_the_median() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 50.0));
        assert_eq!(tail(&[]), (0.0, 50.0));
        // 21 samples: band and dropped sample would reach below the median.
        assert_eq!(tail(&(0..21).map(f64::from).collect::<Vec<_>>()), (10.0, 50.0));
        assert_eq!(tail(&(0..22).map(f64::from).collect::<Vec<_>>()).1, 50.0);
    }

    #[test]
    fn tail_moves_little_per_extra_sample() {
        // No cliff: one more sample of a ramp moves the tail by about one.
        let mut prev = tail(&(0..22).map(f64::from).collect::<Vec<_>>()).0;
        for n in 23..6000 {
            let cur = tail(&(0..n).map(f64::from).collect::<Vec<_>>()).0;
            assert!((cur - prev).abs() <= 1.5, "n={n}: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn geomean_matches_hand_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 4.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
