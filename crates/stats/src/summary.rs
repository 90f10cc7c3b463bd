//! One-pass summary statistics used by the evaluation harness.

use crate::error::{validate, StatsError};

/// Count, mean, standard deviation, and extrema of a sample.
///
/// Built with Welford's online algorithm so it can also be accumulated
/// incrementally while a trace streams in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::Summary;
    /// let mut s = Summary::new();
    /// s.push(1.0);
    /// s.push(3.0);
    /// assert_eq!(s.mean(), 2.0);
    /// ```
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a complete sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] / [`StatsError::NanInInput`]
    /// on invalid input.
    pub fn from_data(data: &[f64]) -> Result<Self, StatsError> {
        validate(data)?;
        let mut s = Summary::new();
        for &v in data {
            s.push(v);
        }
        Ok(s)
    }

    /// Adds an observation. NaN observations are ignored (they carry no
    /// ordering information); callers that must reject NaN should use
    /// [`Summary::from_data`].
    pub fn push(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; +inf for an empty accumulator.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; -inf for an empty accumulator.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::Summary;
    /// let a = Summary::from_data(&[1.0, 2.0])?;
    /// let b = Summary::from_data(&[3.0, 4.0])?;
    /// let mut m = a;
    /// m.merge(&b);
    /// assert_eq!(m.mean(), 2.5);
    /// assert_eq!(m.count(), 4);
    /// # Ok::<(), energydx_stats::StatsError>(())
    /// ```
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2
            + delta * delta * (self.count as f64 * other.count as f64)
                / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_match_closed_form() {
        let s = Summary::from_data(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
            .unwrap();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.stddev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_accumulator_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn single_value_has_zero_variance() {
        let s = Summary::from_data(&[5.0]).unwrap();
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), s.max());
    }

    #[test]
    fn merge_equals_single_pass() {
        let data = [1.0, 5.0, -3.0, 8.0, 2.5, 2.5, 0.0];
        let whole = Summary::from_data(&data).unwrap();
        let left = Summary::from_data(&data[..3]).unwrap();
        let right = Summary::from_data(&data[3..]).unwrap();
        let mut merged = left;
        merged.merge(&right);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-12);
        assert!((merged.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = Summary::from_data(&[1.0, 2.0]).unwrap();
        let mut m = a;
        m.merge(&Summary::new());
        assert_eq!(m, a);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn push_ignores_nan() {
        let mut s = Summary::new();
        s.push(1.0);
        s.push(f64::NAN);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn from_data_rejects_invalid() {
        assert!(Summary::from_data(&[]).is_err());
        assert!(Summary::from_data(&[f64::NAN]).is_err());
    }
}
