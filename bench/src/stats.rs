//! Order statistics for the benchmark's timing samples.
//!
//! Every reported timing is a median with `min`/`max`/`n`; tails are
//! reported at the highest percentile that still has at least ten
//! samples beyond it ([`highest_percentile`]), so a "p99" over 40
//! samples can never be printed.

/// Percentiles a tail may be reported at, ascending.
pub const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reportable.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in `0..=100`) of `xs`; `NaN` on
/// an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs` (mean of the two middle samples for even `n`).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The highest entry of [`TAIL_PERCENTILES`] with at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, or `None` when even
/// the median is not resolved (`n < 20`).
pub fn highest_percentile(n: usize) -> Option<f64> {
    // In integer per-mille: `n × (1 − 0.9)` is 9.999… in floating point.
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n * (1000 - (p * 10.0).round() as usize) / 1000 >= MIN_SAMPLES_BEYOND)
}

/// `percentile(xs, p)` when `p` is reportable for `xs.len()` samples,
/// otherwise the highest reportable percentile (the median when none is).
pub fn reportable_percentile(xs: &[f64], p: f64) -> f64 {
    let cap = highest_percentile(xs.len()).unwrap_or(50.0);
    percentile(xs, p.min(cap))
}

/// Median with its quartiles, range and sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `xs`; all-`NaN` with `n = 0` on an empty slice.
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        Summary {
            median: median(&v),
            p25: percentile(&v, 25.0),
            p75: percentile(&v, 75.0),
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
            n: v.len(),
        }
    }

    /// A single exact value (counts, shares computed from medians).
    pub fn exact(x: f64) -> Summary {
        Summary {
            median: x,
            p25: x,
            p75: x,
            min: x,
            max: x,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 75.0), 75.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(5), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(2000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn reportable_percentile_clamps_to_what_the_sample_resolves() {
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        // 40 samples resolve p75, not p99.
        assert_eq!(reportable_percentile(&xs, 99.0), percentile(&xs, 75.0));
        assert_eq!(reportable_percentile(&xs, 50.0), percentile(&xs, 50.0));
    }

    #[test]
    fn summary_reports_range_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
        assert_eq!((s.p25, s.p75), (3.0, 6.5));
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
