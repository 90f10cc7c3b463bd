//! Tukey-fence outlier detection (EnergyDx Step 4).
//!
//! The paper selects manifestation points as the event instances whose
//! variation amplitude exceeds the *upper outer fence* `Q3 + 3·IQR`
//! (Section III-A, Step 4). The fence multiplier `k = 3` corresponds to
//! Tukey's "far out" threshold; `k = 1.5` would be the conventional
//! "outside" threshold. The multiplier is kept configurable because the
//! paper notes the parameters "are decided through experiments".

use crate::error::StatsError;
use crate::percentile::quartiles;

/// Lower/upper Tukey fences computed from a data set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TukeyFences {
    /// The lower fence `Q1 - k·IQR`.
    pub lower: f64,
    /// The upper fence `Q3 + k·IQR`.
    pub upper: f64,
    /// The interquartile range the fences were derived from.
    pub iqr: f64,
    /// The fence multiplier `k` used.
    pub k: f64,
}

impl TukeyFences {
    /// Computes fences from raw data with fence multiplier `k`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] / [`StatsError::NanInInput`]
    /// when the data set is unusable.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::outlier::TukeyFences;
    /// let f = TukeyFences::from_data(&[1.0, 2.0, 3.0, 4.0, 100.0], 3.0)?;
    /// assert!(f.is_upper_outlier(100.0));
    /// # Ok::<(), energydx_stats::StatsError>(())
    /// ```
    pub fn from_data(data: &[f64], k: f64) -> Result<Self, StatsError> {
        let q = quartiles(data)?;
        let iqr = q.iqr();
        Ok(TukeyFences {
            lower: q.q1 - k * iqr,
            upper: q.q3 + k * iqr,
            iqr,
            k,
        })
    }

    /// Whether `value` lies strictly above the upper fence.
    pub fn is_upper_outlier(&self, value: f64) -> bool {
        value > self.upper
    }

    /// Whether `value` lies strictly below the lower fence.
    pub fn is_lower_outlier(&self, value: f64) -> bool {
        value < self.lower
    }
}

/// Indices of values in `data` strictly above the upper outer fence
/// `Q3 + k·IQR`, in ascending index order.
///
/// When the IQR degenerates to zero (more than half of the values
/// identical — the common case for flat normalized traces), the fence
/// collapses to `Q3`, and any strictly greater value is an outlier;
/// `min_excess` guards against flagging numerical noise: a value must
/// exceed the fence by more than `min_excess` to be reported.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::NanInInput`] on
/// invalid input.
///
/// # Examples
///
/// ```
/// # use energydx_stats::outlier::upper_outlier_indices;
/// let data = [0.1, 0.0, 0.2, 0.1, 0.0, 9.5];
/// assert_eq!(upper_outlier_indices(&data, 3.0, 0.0).unwrap(), vec![5]);
/// ```
pub fn upper_outlier_indices(
    data: &[f64],
    k: f64,
    min_excess: f64,
) -> Result<Vec<usize>, StatsError> {
    let fences = TukeyFences::from_data(data, k)?;
    Ok(data
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > fences.upper + min_excess)
        .map(|(i, _)| i)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_outliers_in_uniform_spread() {
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert!(upper_outlier_indices(&data, 3.0, 0.0).unwrap().is_empty());
    }

    #[test]
    fn single_spike_is_detected() {
        let mut data = vec![1.0; 30];
        data[17] = 50.0;
        assert_eq!(upper_outlier_indices(&data, 3.0, 0.0).unwrap(), vec![17]);
    }

    #[test]
    fn two_similar_spikes_are_both_detected() {
        // Mirrors Fig. 8: points A and B have similar amplitudes, both
        // far above the rest; both must be reported.
        let mut data = vec![0.05; 40];
        data[10] = 8.0;
        data[30] = 7.5;
        assert_eq!(
            upper_outlier_indices(&data, 3.0, 0.0).unwrap(),
            vec![10, 30]
        );
    }

    #[test]
    fn constant_data_has_no_outliers() {
        let data = vec![2.0; 10];
        assert!(upper_outlier_indices(&data, 3.0, 0.0).unwrap().is_empty());
    }

    #[test]
    fn min_excess_suppresses_marginal_points_on_degenerate_iqr() {
        // IQR == 0, fence == Q3 == 1.0; 1.05 is within the 0.1 guard.
        let data = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.05];
        assert!(upper_outlier_indices(&data, 3.0, 0.1).unwrap().is_empty());
        assert_eq!(upper_outlier_indices(&data, 3.0, 0.0).unwrap(), vec![6]);
    }

    #[test]
    fn fences_are_symmetric_about_quartiles() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let f = TukeyFences::from_data(&data, 1.5).unwrap();
        assert_eq!(f.iqr, 2.0);
        assert_eq!(f.lower, 2.0 - 3.0);
        assert_eq!(f.upper, 4.0 + 3.0);
        assert!(f.is_lower_outlier(-2.0));
        assert!(!f.is_lower_outlier(-1.0));
    }

    #[test]
    fn empty_and_nan_inputs_error() {
        assert!(TukeyFences::from_data(&[], 3.0).is_err());
        assert!(TukeyFences::from_data(&[f64::NAN], 3.0).is_err());
    }

    #[test]
    fn larger_k_detects_fewer_outliers() {
        let mut data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        data.push(16.0);
        let strict = upper_outlier_indices(&data, 1.0, 0.0).unwrap();
        let lax = upper_outlier_indices(&data, 3.0, 0.0).unwrap();
        assert!(lax.len() <= strict.len());
    }
}
