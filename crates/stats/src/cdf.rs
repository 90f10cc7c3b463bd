//! Empirical cumulative distribution functions.
//!
//! Figure 1 of the paper plots the distribution of *event distance*
//! (events between root cause and manifestation point) over the 40
//! studied ABD cases, reporting that the 90th percentile is ≤ 3. The
//! benchmark harness regenerates that figure as an [`Ecdf`] series.

use crate::error::{validate, StatsError};
use crate::percentile::percentile_of_sorted;

/// An empirical CDF over a sample, supporting evaluation at arbitrary
/// points and inverse lookup (quantiles).
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] / [`StatsError::NanInInput`]
    /// on invalid input.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::cdf::Ecdf;
    /// let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(e.eval(2.0), 0.5);
    /// # Ok::<(), energydx_stats::StatsError>(())
    /// ```
    pub fn new(sample: &[f64]) -> Result<Self, StatsError> {
        validate(sample)?;
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| {
            a.partial_cmp(b).expect("NaN filtered by validate")
        });
        Ok(Ecdf { sorted })
    }

    /// Fraction of the sample `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `p`-th percentile of the sample (R-7 interpolation).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::PercentileOutOfRange`] when `p` is outside
    /// `[0, 100]`.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(0.0..=100.0).contains(&p) || p.is_nan() {
            return Err(StatsError::PercentileOutOfRange {
                requested: format!("{p}"),
            });
        }
        Ok(percentile_of_sorted(&self.sorted, p))
    }

    /// Number of observations in the sample.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for a constructed `Ecdf`).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The distinct support points paired with cumulative probability,
    /// i.e. the step coordinates one would plot for this ECDF.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::cdf::Ecdf;
    /// let e = Ecdf::new(&[1.0, 1.0, 2.0])?;
    /// assert_eq!(e.steps(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    /// # Ok::<(), energydx_stats::StatsError>(())
    /// ```
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &v) in self.sorted.iter().enumerate() {
            let p = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = p,
                _ => out.push((v, p)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_below_min_is_zero_and_above_max_is_one() {
        let e = Ecdf::new(&[2.0, 4.0, 6.0]).unwrap();
        assert_eq!(e.eval(1.0), 0.0);
        assert_eq!(e.eval(6.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn eval_is_right_continuous_step() {
        let e = Ecdf::new(&[1.0, 2.0]).unwrap();
        assert_eq!(e.eval(1.0), 0.5);
        assert_eq!(e.eval(1.5), 0.5);
        assert_eq!(e.eval(2.0), 1.0);
    }

    #[test]
    fn quantile_matches_percentile() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(e.quantile(50.0).unwrap(), 3.0);
        assert!(e.quantile(101.0).is_err());
    }

    #[test]
    fn duplicate_values_collapse_in_steps() {
        let e = Ecdf::new(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(e.steps(), vec![(3.0, 1.0)]);
    }

    #[test]
    fn len_reports_sample_size() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn figure1_style_distance_distribution() {
        // 40 synthetic event distances whose 90th percentile is <= 3,
        // matching the paper's headline statistic for Fig. 1.
        let mut distances = vec![0.0; 10];
        distances.extend(vec![1.0; 12]);
        distances.extend(vec![2.0; 9]);
        distances.extend(vec![3.0; 6]);
        distances.extend(vec![5.0, 7.0, 9.0]);
        let e = Ecdf::new(&distances).unwrap();
        assert!(e.quantile(90.0).unwrap() <= 3.0);
    }
}
