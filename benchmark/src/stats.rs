//! Order statistics over timing samples.
//!
//! Every timing is reported as a median plus the highest percentile that still
//! has at least ten samples beyond it, with the sample count beside both: a
//! "p99" over 200 samples rests on two of them and says nothing.

/// Median of `samples` (mean of the middle pair for even counts). Panics on an
/// empty slice — every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest percentile of `n` samples that has at least ten samples beyond
/// it, from the usual ladder. `None` below twenty samples (the median itself
/// would have fewer than ten beyond it).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` sorted samples lie strictly beyond the `p`-th percentile's
/// nearest-rank position.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest-rank index of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary noise in `p` (99.9 is not a dyadic number) from
    // pushing an exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile of `samples` by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median, extremes and the admissible tail percentile of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            median: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: samples.len(),
            tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn summary_reports_extremes_count_and_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.min, s.max, s.samples), (1.0, 200.0, 200));
        assert_eq!(s.median, 100.5);
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert_eq!(Summary::of(&[1.0, 2.0]).tail, None);
    }
}
