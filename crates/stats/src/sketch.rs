//! A mergeable, exact quantile sketch for sharded fleet analysis.
//!
//! When the backend analyzes the fleet in shards, each shard summarizes
//! the power populations it saw and the partials are merged before the
//! global percentile queries of Step 3 run. [`QuantileSketch`] is the
//! summary: a run-length-encoded sorted multiset. Event power values
//! are heavily quantized (they come out of a table-driven power model),
//! so collapsing ties to `(value, count)` pairs compresses real fleet
//! populations by orders of magnitude while keeping percentile queries
//! **exact** — unlike GK/t-digest style sketches there is no error
//! bound to reason about, which is what makes the sequential-vs-sharded
//! differential guarantee provable.
//!
//! Merge laws (checked by proptests in `tests/properties.rs`):
//!
//! - **Commutative and associative, exactly**: a merge only reorders
//!   `(value, count)` runs and adds integer counts, so any merge tree
//!   over any shard split yields the same sketch.
//! - **Exact percentiles**: [`QuantileSketch::percentile`] returns the
//!   same bits as [`crate::percentile()`] on the concatenation of every
//!   pushed value (negative zero is canonicalized to `+0.0` on entry so
//!   the tie-collapsed representative is unique).

use crate::error::StatsError;
use crate::percentile::percentile_of_sorted_counts;

/// A run-length-encoded sorted multiset of finite `f64` observations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantileSketch {
    /// Strictly increasing values with positive multiplicities.
    entries: Vec<(f64, u64)>,
    /// Total observation count (the sum of multiplicities).
    count: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Builds a sketch from a complete sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty slice and
    /// [`StatsError::NanInInput`] if any value is NaN.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::QuantileSketch;
    /// let s = QuantileSketch::from_data(&[2.0, 1.0, 2.0])?;
    /// assert_eq!(s.count(), 3);
    /// assert_eq!(s.distinct(), 2);
    /// # Ok::<(), energydx_stats::StatsError>(())
    /// ```
    pub fn from_data(data: &[f64]) -> Result<Self, StatsError> {
        crate::error::validate(data)?;
        Ok(QuantileSketch::from_values(data.to_vec()))
    }

    /// Builds a sketch in one sort: NaN observations are dropped,
    /// `-0.0` is stored as `+0.0`, and the rest is sorted by
    /// `total_cmp` and run-length encoded. Equal to pushing every value
    /// in turn, in O(n log n) rather than [`push`](Self::push)'s
    /// O(n · distinct).
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::QuantileSketch;
    /// let s = QuantileSketch::from_values(vec![2.0, f64::NAN, -0.0, 2.0]);
    /// assert_eq!(s.count(), 3);
    /// assert_eq!(s.min().map(f64::to_bits), Some(0.0f64.to_bits()));
    /// ```
    pub fn from_values(mut values: Vec<f64>) -> Self {
        values.retain(|v| !v.is_nan());
        for v in &mut values {
            if *v == 0.0 {
                *v = 0.0;
            }
        }
        values.sort_unstable_by(f64::total_cmp);
        let mut entries: Vec<(f64, u64)> = Vec::new();
        for &value in &values {
            match entries.last_mut() {
                Some(last) if last.0 == value => last.1 += 1,
                _ => entries.push((value, 1)),
            }
        }
        QuantileSketch {
            entries,
            count: values.len() as u64,
        }
    }

    /// Adds one observation. NaN observations are ignored (they carry
    /// no ordering information); `-0.0` is stored as `+0.0` so equal
    /// values share one canonical representative regardless of
    /// insertion or merge order.
    pub fn push(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let value = if value == 0.0 { 0.0 } else { value };
        let pos = self.entries.binary_search_by(|(v, _)| v.total_cmp(&value));
        match pos {
            Ok(i) => self.entries[i].1 += 1,
            Err(i) => self.entries.insert(i, (value, 1)),
        }
        self.count += 1;
    }

    /// Total observations accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch holds no observations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of distinct values stored (the compressed size).
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Merges another sketch into this one (two-way sorted-run merge;
    /// counts of equal values add).
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx_stats::QuantileSketch;
    /// let mut a = QuantileSketch::from_data(&[1.0, 3.0])?;
    /// let b = QuantileSketch::from_data(&[2.0, 3.0])?;
    /// a.merge(&b);
    /// assert_eq!(a.count(), 4);
    /// assert_eq!(a.percentile(100.0)?, 3.0);
    /// # Ok::<(), energydx_stats::StatsError>(())
    /// ```
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged =
            Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (va, ca) = self.entries[i];
            let (vb, cb) = other.entries[j];
            match va.total_cmp(&vb) {
                std::cmp::Ordering::Less => {
                    merged.push((va, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((vb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((va, ca + cb));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        self.entries = merged;
        self.count += other.count;
    }

    /// The `p`-th percentile (`0 <= p <= 100`) of the accumulated
    /// multiset, with the same R-7 semantics — and the same bits — as
    /// [`crate::percentile()`] over the expanded data.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] on an empty sketch and
    /// [`StatsError::PercentileOutOfRange`] for `p` outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Result<f64, StatsError> {
        if self.count == 0 {
            return Err(StatsError::EmptyInput);
        }
        if !(0.0..=100.0).contains(&p) || p.is_nan() {
            return Err(StatsError::PercentileOutOfRange {
                requested: format!("{p}"),
            });
        }
        Ok(percentile_of_sorted_counts(&self.entries, self.count, p))
    }

    /// The smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.entries.first().map(|&(v, _)| v)
    }

    /// The largest observation.
    pub fn max(&self) -> Option<f64> {
        self.entries.last().map(|&(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile;

    #[test]
    fn percentiles_match_the_exact_estimator() {
        let data = [5.0, 1.0, 3.0, 3.0, 2.0, 8.0, 3.0, 1.0];
        let s = QuantileSketch::from_data(&data).unwrap();
        for p in [0.0, 10.0, 25.0, 33.0, 50.0, 75.0, 90.0, 100.0] {
            assert_eq!(
                s.percentile(p).unwrap().to_bits(),
                percentile(&data, p).unwrap().to_bits(),
                "p={p}"
            );
        }
    }

    #[test]
    fn ties_compress() {
        let s = QuantileSketch::from_data(&[4.2; 1000]).unwrap();
        assert_eq!(s.distinct(), 1);
        assert_eq!(s.count(), 1000);
        assert_eq!(s.percentile(50.0).unwrap(), 4.2);
    }

    #[test]
    fn merge_is_concatenation() {
        let all = [9.0, 1.0, 4.0, 4.0, 2.0, 7.0];
        let mut a = QuantileSketch::from_data(&all[..3]).unwrap();
        let b = QuantileSketch::from_data(&all[3..]).unwrap();
        a.merge(&b);
        let whole = QuantileSketch::from_data(&all).unwrap();
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = QuantileSketch::from_data(&[1.0, 2.0]).unwrap();
        let mut m = a.clone();
        m.merge(&QuantileSketch::new());
        assert_eq!(m, a);
        let mut e = QuantileSketch::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn negative_zero_is_canonicalized() {
        let mut a = QuantileSketch::new();
        a.push(-0.0);
        let mut b = QuantileSketch::new();
        b.push(0.0);
        assert_eq!(a, b);
        assert_eq!(a.percentile(50.0).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nan_is_ignored_on_push() {
        let mut s = QuantileSketch::new();
        s.push(f64::NAN);
        assert!(s.is_empty());
        assert!(s.percentile(50.0).is_err());
    }

    #[test]
    fn min_max_track_extrema() {
        let s = QuantileSketch::from_data(&[3.0, -1.0, 9.0]).unwrap();
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(9.0));
        assert!(QuantileSketch::new().min().is_none());
    }

    #[test]
    fn out_of_range_percentile_is_rejected() {
        let s = QuantileSketch::from_data(&[1.0]).unwrap();
        assert!(matches!(
            s.percentile(-1.0),
            Err(StatsError::PercentileOutOfRange { .. })
        ));
    }
}
