//! Order statistics over benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance
//! protocol computes over a set of runs — `compare` must print the same
//! spread the reviewer's tooling does.

/// Median, quartiles and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Summarises `values`; `None` when empty. One sample is its own
/// quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let m = v.len();
    if m == 0 {
        return None;
    }
    if m == 1 {
        return Some(Summary {
            n: 1,
            q1: v[0],
            median: v[0],
            q3: v[0],
        });
    }
    // Exclusive method: the i-th cut point sits at rank i·(m+1)/4,
    // interpolated linearly and clamped to the sample range.
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n: m,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    })
}

/// Median of `values` (0 when empty — callers only pass measured sets).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Whether a sample of `n` supports percentile `p`: at least ten samples
/// must lie beyond it, or the figure is one outlier's latency.
pub fn supports(n: usize, p: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 = 0.09999999999999998`.
    (n as f64 * (1.0 - p) + 1e-9).floor() >= 10.0
}

/// Nearest-rank percentile `p` of `values`, stepped down to the highest
/// percentile the sample supports (see [`supports`]); returns the
/// percentile actually used and its value. `None` when empty.
pub fn tail(values: &[f64], p: f64) -> Option<(f64, f64)> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let used = [p, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| q <= p && supports(v.len(), q))
        .unwrap_or(0.5);
    let rank = ((used * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some((used, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_and_empty() {
        assert!(summarize(&[]).is_none());
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[90.0, 100.0, 110.0]).unwrap();
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some((0.99, 990.0)));
        // 500 samples cannot carry a p99: step down to p95.
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some((0.95, 475.0)));
        // A handful of samples only supports the median.
        assert_eq!(tail(&[5.0, 1.0, 3.0], 0.99), Some((0.5, 3.0)));
        assert_eq!(tail(&[], 0.99), None);
    }
}
