//! Order statistics used by every metric: nearest-rank percentiles, the
//! "enough samples beyond it" rule for tail percentiles, and quartiles.

/// Samples a tail percentile needs beyond it before it is worth reporting.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100]`) of unsorted samples: the
/// smallest sample with at least `p` % of the samples at or below it.
/// `NaN` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank percentile
/// `p` — the support a tail percentile has.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Median (nearest rank on an odd count, midpoint on an even one).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same cut points
/// Python's `statistics.quantiles(values, n=4)` returns, so spreads computed
/// here and by the acceptance driver agree. One sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    match samples.len() {
        0 => return (f64::NAN, f64::NAN),
        1 => return (samples[0], samples[0]),
        _ => {}
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        // Signed on purpose: beyond the clamp Python extrapolates.
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median with its quartiles: what the ledger stores for every metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples summarized.
    pub n: usize,
}

impl Summary {
    /// Summarize pass-level samples.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A value that has no spread (a count, a deterministic total, or a
    /// statistic already pooled over the passes).
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 || !self.value.is_finite() {
            0.0
        } else {
            ((self.q3 - self.q1) / self.value).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_the_textbook_example() {
        // The canonical nearest-rank example: 15, 20, 35, 40, 50.
        let v = [35.0, 20.0, 15.0, 50.0, 40.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_is_supported(1000, 99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!tail_is_supported(999, 99.0));
        // p50 of 20 samples is rank 10: 10 beyond; of 19, rank 10: 9 beyond.
        assert!(tail_is_supported(20, 50.0));
        assert!(!tail_is_supported(19, 50.0));
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summaries_report_median_and_relative_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.value, 3.0);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(4.0).spread(), 0.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }
}
