//! Ranking of observations, as used by EnergyDx Step 2 (event ranking).
//!
//! Step 2 ranks every instance of the same event across all collected
//! traces by its estimated power. The rank vector is what makes the
//! subsequent normalization meaningful: instances with an unusually high
//! rank relative to their siblings are the ones plausibly impacted by
//! the ABD. EnergyDx uses fractional ranking ([`average_ranks`]) so
//! that ties (common after power quantization) do not introduce
//! arbitrary ordering artifacts.

use crate::error::{validate, StatsError};

/// Returns 1-based ranks where tied values receive the *average* of the
/// ordinal ranks they span (fractional ranking, like R's `rank`).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::NanInInput`] on
/// invalid input.
///
/// # Examples
///
/// ```
/// # use energydx_stats::rank::average_ranks;
/// let ranks = average_ranks(&[10.0, 20.0, 20.0, 30.0]).unwrap();
/// assert_eq!(ranks, vec![1.0, 2.5, 2.5, 4.0]);
/// ```
pub fn average_ranks(data: &[f64]) -> Result<Vec<f64>, StatsError> {
    validate(data)?;
    let order = sorted_indices(data);
    let mut ranks = vec![0.0; data.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && data[order[j + 1]] == data[order[i]] {
            j += 1;
        }
        // Ordinal ranks i+1 ..= j+1 share this value; average them.
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    Ok(ranks)
}

/// Indices of `data` sorted ascending by value, stable on ties.
fn sorted_indices(data: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.sort_by(|&a, &b| {
        data[a]
            .partial_cmp(&data[b])
            .expect("NaN filtered by validate")
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_ranks_without_ties_are_a_permutation() {
        let ranks = average_ranks(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(ranks, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn average_ranks_sum_is_preserved_under_ties() {
        // Sum of ranks must always be n(n+1)/2 regardless of ties.
        let data = [2.0, 2.0, 2.0, 5.0, 1.0];
        let ranks = average_ranks(&data).unwrap();
        let sum: f64 = ranks.iter().sum();
        assert_eq!(sum, 15.0);
        assert_eq!(ranks[0], 3.0);
        assert_eq!(ranks[3], 5.0);
        assert_eq!(ranks[4], 1.0);
    }

    #[test]
    fn all_equal_values_share_the_middle_rank() {
        let ranks = average_ranks(&[7.0; 4]).unwrap();
        assert_eq!(ranks, vec![2.5; 4]);
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(average_ranks(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn nan_is_rejected() {
        assert_eq!(average_ranks(&[f64::NAN]), Err(StatsError::NanInInput));
    }

    #[test]
    fn single_element_gets_rank_one() {
        assert_eq!(average_ranks(&[42.0]).unwrap(), vec![1.0]);
    }
}
