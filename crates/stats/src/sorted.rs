//! A sort-once view of an event group's power population.
//!
//! The fleet pipeline needs several order statistics of the *same*
//! population per event group: the Step-3 normalization base (10th
//! percentile), the group median, quartiles for sketch summaries, and
//! the Step-2 average ranks. Computed independently, each of those
//! sorts the population again — `percentile` sorts a copy per call and
//! `average_ranks` builds its own argsort. [`SortedGroup`] sorts the
//! population exactly once and serves every statistic from that one
//! sorted view.
//!
//! Every answer is **bit-identical** to the standalone functions: the
//! construction uses the same stable argsort as [`crate::rank`], the
//! percentile queries evaluate the same R-7 interpolation expression as
//! [`crate::percentile::percentile`], and the rank reconstruction
//! performs the same tie-run averaging arithmetic (in the same order)
//! as [`crate::rank::average_ranks`]. The differential harness depends
//! on this equivalence byte-for-byte.

use crate::error::{validate, StatsError};
use crate::percentile::{percentile_of_sorted, Quartiles};

/// A population sorted once, answering percentile and rank queries
/// without re-sorting.
///
/// Construction validates the data (rejecting empty and NaN inputs), so
/// every query on a constructed group is infallible except for
/// out-of-range percentile requests.
///
/// # Examples
///
/// ```
/// # use energydx_stats::sorted::SortedGroup;
/// let g = SortedGroup::new(&[10.0, 20.0, 20.0, 30.0]).unwrap();
/// assert_eq!(g.percentile(0.0).unwrap(), 10.0);
/// assert_eq!(g.median(), 20.0);
/// assert_eq!(g.average_ranks(), vec![1.0, 2.5, 2.5, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SortedGroup {
    /// The population in ascending order.
    sorted: Vec<f64>,
    /// The stable argsort: `order[k]` is the original index of
    /// `sorted[k]`. `u32` keeps the permutation at half the width of
    /// `usize` indices; group populations are bounded by the fleet's
    /// instance count, which the pipeline caps well below `u32::MAX`.
    order: Vec<u32>,
}

impl SortedGroup {
    /// Sorts `data` once and retains the permutation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] if `data` is empty and
    /// [`StatsError::NanInInput`] if it contains NaN.
    ///
    /// # Panics
    ///
    /// Panics if `data` has more than `u32::MAX` elements.
    pub fn new(data: &[f64]) -> Result<Self, StatsError> {
        validate(data)?;
        assert!(
            data.len() <= u32::MAX as usize,
            "group population exceeds u32 index space"
        );
        // The same stable argsort as `rank::sorted_indices`, narrowed
        // to u32: stability makes the permutation — and therefore the
        // arrangement of bitwise-distinct but equal-comparing values
        // such as -0.0/0.0 — identical to the standalone functions.
        let mut order: Vec<u32> = (0..data.len() as u32).collect();
        order.sort_by(|&a, &b| {
            data[a as usize]
                .partial_cmp(&data[b as usize])
                .expect("NaN filtered by validate")
        });
        let sorted = order.iter().map(|&i| data[i as usize]).collect();
        Ok(SortedGroup { sorted, order })
    }

    /// The population size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty input.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The population in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// The `p`-th percentile (R-7), bit-identical to
    /// [`crate::percentile::percentile`] on the original data.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::PercentileOutOfRange`] if `p` is outside
    /// `[0, 100]` or NaN.
    pub fn percentile(&self, p: f64) -> Result<f64, StatsError> {
        if !(0.0..=100.0).contains(&p) || p.is_nan() {
            return Err(StatsError::PercentileOutOfRange {
                requested: format!("{p}"),
            });
        }
        Ok(percentile_of_sorted(&self.sorted, p))
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        percentile_of_sorted(&self.sorted, 50.0)
    }

    /// The three quartiles, bit-identical to
    /// [`crate::percentile::quartiles`] on the original data.
    pub fn quartiles(&self) -> Quartiles {
        Quartiles {
            q1: percentile_of_sorted(&self.sorted, 25.0),
            q2: percentile_of_sorted(&self.sorted, 50.0),
            q3: percentile_of_sorted(&self.sorted, 75.0),
        }
    }

    /// 1-based fractional ranks in original data order, bit-identical
    /// to [`crate::rank::average_ranks`] on the original data.
    ///
    /// Tie runs are found on the sorted view and the averaged rank is
    /// scattered back through the retained permutation — no re-sort.
    pub fn average_ranks(&self) -> Vec<f64> {
        let n = self.sorted.len();
        let mut ranks = vec![0.0; n];
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && self.sorted[j + 1] == self.sorted[i] {
                j += 1;
            }
            // Ordinal ranks i+1 ..= j+1 share this value; average them
            // with the exact arithmetic of `rank::average_ranks`.
            let avg = (i + 1 + j + 1) as f64 / 2.0;
            for &idx in &self.order[i..=j] {
                ranks[idx as usize] = avg;
            }
            i = j + 1;
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::{percentile, quartiles};
    use crate::rank::average_ranks;

    /// A population with duplicates, negatives, ties at several values,
    /// and sub-integer spacing — enough structure to catch any drift
    /// from the standalone implementations.
    fn population() -> Vec<f64> {
        vec![
            50.0, 15.0, 40.0, 20.0, 35.0, 35.0, 0.125, -3.5, 20.0, 20.0, 1e-9,
            50.0,
        ]
    }

    #[test]
    fn percentiles_match_the_standalone_function_bitwise() {
        let data = population();
        let g = SortedGroup::new(&data).unwrap();
        for p in [0.0, 10.0, 25.0, 33.3, 50.0, 75.0, 90.0, 99.9, 100.0] {
            assert_eq!(
                g.percentile(p).unwrap().to_bits(),
                percentile(&data, p).unwrap().to_bits(),
                "p = {p}"
            );
        }
    }

    #[test]
    fn average_ranks_match_the_standalone_function_bitwise() {
        let data = population();
        let g = SortedGroup::new(&data).unwrap();
        let expected = average_ranks(&data).unwrap();
        let got = g.average_ranks();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn quartiles_match_the_standalone_function() {
        let data = population();
        let g = SortedGroup::new(&data).unwrap();
        assert_eq!(g.quartiles(), quartiles(&data).unwrap());
        assert_eq!(g.median(), quartiles(&data).unwrap().q2);
    }

    #[test]
    fn signed_zeros_keep_their_stable_arrangement() {
        let data = [0.0, -0.0, 0.0, -0.0];
        let g = SortedGroup::new(&data).unwrap();
        let expect: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = g.sorted().iter().map(|v| v.to_bits()).collect();
        // All compare equal, so the stable sort preserves input order.
        assert_eq!(got, expect);
        assert_eq!(g.average_ranks(), vec![2.5; 4]);
    }

    #[test]
    fn single_element_group() {
        let g = SortedGroup::new(&[7.5]).unwrap();
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
        assert_eq!(g.percentile(0.0).unwrap(), 7.5);
        assert_eq!(g.percentile(100.0).unwrap(), 7.5);
        assert_eq!(g.average_ranks(), vec![1.0]);
    }

    #[test]
    fn invalid_input_is_rejected_at_construction() {
        assert_eq!(SortedGroup::new(&[]), Err(StatsError::EmptyInput));
        assert_eq!(
            SortedGroup::new(&[1.0, f64::NAN]),
            Err(StatsError::NanInInput)
        );
    }

    #[test]
    fn out_of_range_percentile_is_rejected() {
        let g = SortedGroup::new(&[1.0, 2.0]).unwrap();
        assert!(matches!(
            g.percentile(100.5),
            Err(StatsError::PercentileOutOfRange { .. })
        ));
        assert!(matches!(
            g.percentile(f64::NAN),
            Err(StatsError::PercentileOutOfRange { .. })
        ));
    }
}
