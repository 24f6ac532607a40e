//! Order statistics for the benchmark's timings.
//!
//! A latency is reported as a median and a tail percentile that has at
//! least [`TAIL_BEYOND`] samples beyond it; with fewer samples the tail
//! would be one or two outliers. [`beyond`] counts them, and each
//! workload checks its tail against it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest rank (1-based) of permille `q` over `n` samples.
fn rank(n: usize, q: u32) -> usize {
    (n * q as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest rank of permille `q` among `n`.
pub fn beyond(n: usize, q: u32) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Nearest-rank percentile (permille) of unsorted samples.
pub fn percentile(samples: &[f64], q: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), q) - 1]
}

/// Median with midpoint interpolation for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The highest of p75/p90/p95/p99 with ten samples beyond it.
    fn highest_tail(n: usize) -> Option<u32> {
        [990, 950, 900, 750]
            .into_iter()
            .find(|&q| beyond(n, q) >= TAIL_BEYOND)
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // Under forty samples not even p75 has ten beyond: median only.
        assert_eq!(highest_tail(0), None);
        assert_eq!(highest_tail(39), None);
        assert_eq!(highest_tail(40), Some(750));
        // p90 needs 100 samples (rank 90, ten beyond).
        assert_eq!(beyond(99, 900), 9);
        assert_eq!(beyond(100, 900), 10);
        // A tier-1 soak week is 176 cycles: p90 has 17 beyond, p95 only 8,
        // so p90 is the highest tail it can report.
        assert_eq!(beyond(176, 900), 17);
        assert_eq!(beyond(176, 950), 8);
        assert_eq!(highest_tail(176), Some(900));
        // A chaos-soak month is 728 cycles: p99 leaves only 7 beyond.
        assert_eq!(beyond(728, 990), 7);
        assert_eq!(highest_tail(728), Some(950));
        assert_eq!(highest_tail(999), Some(950));
        assert_eq!(highest_tail(1000), Some(990));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
