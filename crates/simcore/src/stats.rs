//! Statistical estimators used by the measurement analysis (paper §3).
//!
//! * [`Cdf`] — empirical cumulative distribution with percentile queries; the
//!   paper reports almost every result as a CDF or as 5th/median/95th
//!   percentiles.
//! * [`pearson`] — the correlation the paper computes between provider-server
//!   distance and consistency ratio (r = 0.11, Fig. 8).
//! * [`rmse`] — the trace-vs-theory deviation used to validate the inferred
//!   TTL (Fig. 6(b): 0.0462 @ 60 s vs 0.0955 @ 80 s).

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution function over `f64` samples.
///
/// # Examples
///
/// ```
/// use cdnc_simcore::stats::Cdf;
///
/// let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_most(2.0), 0.5);
/// assert_eq!(cdf.percentile(50.0), Some(2.5));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from any collection of samples. Non-finite samples are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN or infinite.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(sorted.iter().all(|x| x.is_finite()), "non-finite sample");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Fraction of samples `<= x`, in `[0, 1]`. Returns 0 for an empty CDF.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-th percentile with linear interpolation. `p` is clamped into
    /// `[0, 100]` (a NaN `p` clamps to 0); an empty CDF yields `None`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let n = self.sorted.len();
        if n == 1 {
            return Some(self.sorted[0]);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// The median (50th percentile), or `None` for an empty CDF.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Arithmetic mean of the samples.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.sorted.is_empty(), "mean of empty CDF");
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Evaluates the CDF at evenly spaced points across `[lo, hi]`; handy for
    /// printing figure series.
    pub fn series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2 && lo < hi, "bad series spec");
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_most(x))
            })
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::from_samples(iter)
    }
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns 0 when either series has zero variance (a flat series carries no
/// correlation signal), matching the convention used for paper Fig. 8.
///
/// # Panics
///
/// Panics if the series lengths differ or are empty.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(!xs.is_empty(), "empty series");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Root-mean-square error between two equal-length series.
///
/// # Panics
///
/// Panics if the series lengths differ or are empty.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "length mismatch");
    assert!(!actual.is_empty(), "empty series");
    let sum: f64 = actual.iter().zip(predicted).map(|(a, p)| (a - p).powi(2)).sum();
    (sum / actual.len() as f64).sqrt()
}

/// Ordinary least-squares line fit; returns `(slope, intercept)`.
///
/// # Panics
///
/// Panics if the series lengths differ, are shorter than 2, or `xs` has zero
/// variance.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
    }
    assert!(vx > 0.0, "x has zero variance");
    let slope = cov / vx;
    (slope, my - slope * mx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cdf_fractions() {
        let cdf = Cdf::from_samples([10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(cdf.fraction_at_most(5.0), 0.0);
        assert_eq!(cdf.fraction_at_most(10.0), 0.2);
        assert_eq!(cdf.fraction_at_most(35.0), 0.6);
        assert_eq!(cdf.fraction_at_most(100.0), 1.0);
    }

    #[test]
    fn cdf_percentiles_interpolate() {
        let cdf = Cdf::from_samples([0.0, 10.0]);
        assert_eq!(cdf.percentile(0.0), Some(0.0));
        assert_eq!(cdf.percentile(50.0), Some(5.0));
        assert_eq!(cdf.percentile(100.0), Some(10.0));
        assert_eq!(cdf.median(), Some(5.0));
        // Out-of-range ranks clamp; an empty CDF yields None.
        assert_eq!(cdf.percentile(-5.0), Some(0.0));
        assert_eq!(cdf.percentile(250.0), Some(10.0));
        assert_eq!(Cdf::from_samples([]).percentile(50.0), None);
    }

    #[test]
    fn cdf_single_sample() {
        let cdf = Cdf::from_samples([7.0]);
        assert_eq!(cdf.percentile(0.0), Some(7.0));
        assert_eq!(cdf.percentile(95.0), Some(7.0));
        assert_eq!(cdf.mean(), 7.0);
        assert_eq!(cdf.min(), Some(7.0));
        assert_eq!(cdf.max(), Some(7.0));
    }

    #[test]
    fn cdf_series_endpoints() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0]);
        let s = cdf.series(0.0, 3.0, 4);
        assert_eq!(s[0], (0.0, 0.0));
        assert_eq!(s[3], (3.0, 1.0));
    }

    #[test]
    fn empty_cdf_is_safe_for_fraction() {
        let cdf = Cdf::default();
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_most(1.0), 0.0);
    }

    #[test]
    fn pearson_perfect_and_flat() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
        let flat = [5.0; 4];
        assert_eq!(pearson(&xs, &flat), 0.0);
    }

    #[test]
    fn rmse_zero_for_identical() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&xs, &xs), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let (m, b) = linear_fit(&xs, &ys);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn cdf_rejects_nan() {
        let _ = Cdf::from_samples([1.0, f64::NAN]);
    }

    proptest! {
        /// fraction_at_most is monotone non-decreasing in x.
        #[test]
        fn prop_cdf_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                             a in -1e6f64..1e6, b in -1e6f64..1e6) {
            xs.iter_mut().for_each(|x| *x = x.abs());
            let cdf = Cdf::from_samples(xs);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(cdf.fraction_at_most(lo) <= cdf.fraction_at_most(hi));
        }

        /// Percentile is bounded by min/max and monotone in p.
        #[test]
        fn prop_percentile_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                  p in 0.0f64..100.0, q in 0.0f64..100.0) {
            let cdf = Cdf::from_samples(xs);
            let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
            prop_assert!(cdf.percentile(lo).unwrap() <= cdf.percentile(hi).unwrap() + 1e-9);
            prop_assert!(cdf.percentile(0.0).unwrap() >= cdf.min().unwrap() - 1e-9);
            prop_assert!(cdf.percentile(100.0).unwrap() <= cdf.max().unwrap() + 1e-9);
        }

        /// Pearson correlation is always within [-1, 1].
        #[test]
        fn prop_pearson_bounded(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..64)) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = pearson(&xs, &ys);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}
