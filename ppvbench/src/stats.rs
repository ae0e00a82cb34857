//! The statistics every metric is reduced with. All of them work on
//! plain `f64` samples so they can be unit-tested without a clock.

/// Nearest-rank `p`-quantile (0 < p ≤ 1) of an ascending-sorted sample:
/// the smallest value with at least `p·n` of the sample at or below it.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank `p`-quantile of an unsorted sample; `None` when it is
/// empty (a phase that produced no valid answer has no statistic).
pub fn quantile(sample: &[f64], p: f64) -> Option<f64> {
    (!sample.is_empty()).then(|| quantile_sorted(&sorted(sample), p))
}

/// Sorts a copy of `sample` ascending (NaN-free by construction: every
/// sample is a measured duration or a count).
pub fn sorted(sample: &[f64]) -> Vec<f64> {
    let mut s = sample.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// The percentile picker for tails: the highest of the usual tail
/// percentiles that still has at least ten samples beyond it (so one
/// outlier cannot be the reported number). Falls back to the median for
/// samples too small to have any tail.
pub fn tail_percentile(n: usize) -> f64 {
    for p in [0.999, 0.99, 0.95, 0.90, 0.75] {
        // The same nearest rank `quantile_sorted` picks.
        let rank = (n as f64 * p).ceil() as usize;
        if n >= rank + 10 {
            return p;
        }
    }
    0.5
}

/// Per-block request rates (requests per second) of a closed loop, one
/// per block of `block_len` requests; each block's time is everything
/// between its first send and its last receive, stalls included.
pub fn block_rates(block_seconds: &[f64], block_len: usize) -> Vec<f64> {
    block_seconds
        .iter()
        .map(|&s| block_len as f64 / s.max(1e-12))
        .collect()
}

/// Upper quartile of a sample of rates — the fast-end statistic `qps`
/// is gated on (this host's disturbances only ever slow a block down).
pub fn upper_quartile(rates: &[f64]) -> Option<f64> {
    quantile(rates, 0.75)
}

/// The middle-half spread the driver judges steadiness by: of the sorted
/// values, the 8th minus the 3rd of ten (in general the nearest ranks at
/// 0.75·n and 0.25·n, which is 8 and 3 for n = 10), as a share of the
/// median.
pub fn middle_half_spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 4, "the middle half needs at least four values");
    let hi = ((n as f64 * 0.75).ceil() as usize).clamp(1, n);
    let lo = ((n as f64 * 0.25).ceil() as usize).clamp(1, n);
    let median = median_sorted(&s);
    (s[hi - 1] - s[lo - 1]) / median.abs().max(1e-300)
}

/// Median with the midpoint rule for even counts (what
/// `statistics.median` gives).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (its default, exclusive method): positions `(n+1)·k/4` with linear
/// interpolation. The driver judges spread with these.
pub fn python_quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (n + 1) as f64 * (k + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * frac;
    }
    out
}

/// Of two per-core estimates, the better one (`higher` says which way is
/// better). A core with no samples never wins.
pub fn better_of(a: Option<f64>, b: Option<f64>, higher: bool) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if higher { x.max(y) } else { x.min(y) }),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.05), 5.0);
        assert_eq!(quantile_sorted(&s, 0.5), 50.0);
        assert_eq!(quantile_sorted(&s, 0.95), 95.0);
        assert_eq!(quantile_sorted(&s, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.05), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 0.5);
        assert_eq!(tail_percentile(39), 0.5);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
        // Whatever is picked really has ten samples beyond it.
        for n in [40usize, 57, 100, 250, 999, 1_000, 12_345] {
            let p = tail_percentile(n);
            let rank = (n as f64 * p).ceil() as usize;
            assert!(n - rank >= 10 || p == 0.5, "n={n} p={p}");
        }
    }

    #[test]
    fn block_rate_upper_quartile() {
        // Eight blocks of 100 requests: seven take 0.5 s, one stalls to 2 s.
        let mut secs = vec![0.5; 7];
        secs.push(2.0);
        let rates = block_rates(&secs, 100);
        assert_eq!(rates[0], 200.0);
        assert_eq!(rates[7], 50.0);
        // The stall is inside its block's rate but cannot move the upper
        // quartile.
        assert_eq!(upper_quartile(&rates), Some(200.0));
        let mixed = block_rates(&[1.0, 0.5, 0.25, 0.2], 100);
        assert_eq!(upper_quartile(&mixed), Some(400.0));
        assert_eq!(upper_quartile(&[]), None);
    }

    #[test]
    fn middle_half_is_eighth_minus_third_of_ten() {
        let v = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0];
        // sorted 1..10: 8th = 8, 3rd = 3, median 5.5.
        assert!((middle_half_spread(&v) - 5.0 / 5.5).abs() < 1e-12);
        let flat = [4.0; 10];
        assert_eq!(middle_half_spread(&flat), 0.0);
    }

    #[test]
    fn python_quartiles_match_the_reference() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = python_quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
    }

    #[test]
    fn better_core_wins() {
        assert_eq!(better_of(Some(1.0), Some(2.0), true), Some(2.0));
        assert_eq!(better_of(Some(1.0), Some(2.0), false), Some(1.0));
        assert_eq!(better_of(None, Some(2.0), false), Some(2.0));
        assert_eq!(better_of(None, None, true), None);
    }
}
