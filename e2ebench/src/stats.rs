//! Order statistics for the reported timings: medians, nearest-rank percentiles, and the
//! rule for how deep into the tail a sample set may be read.

/// Percentiles the benchmark may report for a latency distribution, lowest first.
pub const PERCENTILES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// A percentile is only reported when at least this many samples lie beyond it; fewer
/// would make the value one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer parts per
/// million so that e.g. p99.999 of a million samples is exactly rank 999,990.
fn rank(n: usize, p: f64) -> usize {
    let ppm = (p * 10_000.0).round() as u128;
    let r = (ppm * n as u128).div_ceil(1_000_000) as usize;
    r.clamp(1, n.max(1))
}

/// Number of samples strictly beyond the nearest rank of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile `p` of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest of [`PERCENTILES`] that still has [`MIN_BEYOND`] samples beyond it, or
/// `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Summary of one latency distribution, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub samples: usize,
    /// Median.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// The deepest supported percentile and its value.
    pub tail_pct: f64,
    /// Value at [`tail_pct`](Self::tail_pct).
    pub tail_ms: f64,
}

impl LatencySummary {
    /// Summarizes nanosecond samples (sorted in place).  `None` when there are too few
    /// samples to support the 99th percentile.
    pub fn from_nanos(samples: &mut [u64]) -> Option<Self> {
        let tail_pct = highest_supported_percentile(samples.len())?;
        if tail_pct < 99.0 {
            return None;
        }
        samples.sort_unstable();
        let ms = |ns: u64| ns as f64 / 1e6;
        Some(LatencySummary {
            samples: samples.len(),
            p50_ms: ms(percentile(samples, 50.0)),
            p99_ms: ms(percentile(samples, 99.0)),
            tail_pct,
            tail_ms: ms(percentile(samples, tail_pct)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 99.9), 7);
    }

    #[test]
    fn reports_the_highest_percentile_with_ten_samples_beyond() {
        // Under ten samples beyond even the median: nothing is reportable.
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // 100 samples: p90 leaves exactly ten beyond, p99 only one.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // The boundary of p99: 1000 samples leave ten beyond, 999 leave nine.
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99.999));
    }

    #[test]
    fn latency_summary_needs_enough_samples_for_p99() {
        let mut few: Vec<u64> = (0..999).collect();
        assert!(LatencySummary::from_nanos(&mut few).is_none());
        let mut many: Vec<u64> = (0..10_000u64).rev().map(|i| i * 1_000).collect();
        let s = LatencySummary::from_nanos(&mut many).expect("10k samples support p99");
        assert_eq!(s.samples, 10_000);
        assert_eq!(s.tail_pct, 99.9);
        assert!((s.p50_ms - 4.999).abs() < 1e-9);
        assert!((s.p99_ms - 9.899).abs() < 1e-9);
        assert!((s.tail_ms - 9.989).abs() < 1e-9);
    }
}
