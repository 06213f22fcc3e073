//! Order statistics for host-time samples: the median, the tail rule
//! of the choosing-metrics guide, and the quartile spread the
//! acceptance driver computes.

/// Ascending copy of `xs`.
///
/// # Panics
///
/// Panics if a sample is NaN (host times never are).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("host-time samples are never NaN"));
    v
}

/// Median of `xs` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank position (1-based) of the `permille`-th per-mille
/// point among `n` samples, in integers so that p99 of 1000 is rank
/// 990 on every platform.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The tail of a timing distribution: the highest of p99.9 / p99 /
/// p95 / p90 that still has **at least ten samples beyond it**, and
/// the slowest sample when none qualifies (fewer than ~100 samples —
/// the crash-epoch cliff of the tiled workloads). Returns the value
/// and the name of the statistic chosen.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn tail(xs: &[f64]) -> (f64, &'static str) {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    for (permille, name) in [(999, "p99.9"), (990, "p99"), (950, "p95"), (900, "p90")] {
        let r = rank(permille, v.len());
        if v.len() - r >= 10 {
            return (v[r - 1], name);
        }
    }
    (v[v.len() - 1], "max")
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) — the
/// spread the acceptance driver holds against each metric's bound.
/// `0.0` for fewer than two samples or a zero median.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let v = sorted(xs);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 leaves only 9 beyond, so nothing qualifies.
        assert_eq!(tail(&ramp(99)), (99.0, "max"));
        // 100 samples: p90 is rank 90 with exactly 10 beyond.
        assert_eq!(tail(&ramp(100)), (90.0, "p90"));
        // 999 samples: p99 is rank 990 with 9 beyond; p95 qualifies.
        assert_eq!(tail(&ramp(999)), (950.0, "p95"));
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), (990.0, "p99"));
        assert_eq!(tail(&ramp(10_000)), (9990.0, "p99.9"));
        // The crash-epoch cliff: a handful of steps report the slowest.
        assert_eq!(tail(&[0.7, 0.8, 11.0, 0.8]), (11.0, "max"));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0, 7.0, 7.0, 7.0]), 0.0);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }
}
