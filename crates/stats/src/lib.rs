//! Order statistics, ranking, and outlier detection for EnergyDx.
//!
//! The EnergyDx manifestation analysis (paper Section III) is built on a
//! small number of statistical primitives:
//!
//! - **Percentiles** ([`percentile()`]) with R-7 linear interpolation, used
//!   by Step 3 (normalize every event instance to the 10th percentile of
//!   its event group) and Step 4 (quartiles of variation amplitudes).
//! - **Ranking with tie averaging** ([`rank`]), used by Step 2 to rank
//!   all instances of the same event across all traces.
//! - **Tukey-fence outlier detection** ([`outlier`]), used by Step 4 to
//!   select manifestation points whose variation amplitude exceeds the
//!   upper outer fence `Q3 + 3·IQR`.
//! - **Empirical CDFs** ([`cdf`]), used to reproduce Figure 1 (event
//!   distance distribution over the 40 ABD cases).
//! - **Summary statistics** ([`summary`]), used throughout the
//!   evaluation harness.
//! - **Sort-once group views** ([`sorted`]), the hot-path kernel that
//!   sorts an event group's population exactly once and serves the
//!   normalization base, median, quartiles, and average ranks from the
//!   same sorted view, bit-identical to the standalone functions.
//! - **Mergeable quantile sketches** ([`sketch`]), the per-shard
//!   partials of the fleet-parallel backend: exact, commutative, and
//!   associative under merge, so shards of the fleet can be summarized
//!   independently and combined in any order.
//! - **Fixed-bucket histograms** ([`histogram`]), the cell math behind
//!   the `energydx-obsv` duration/size recorders: Prometheus-style
//!   upper bounds, cells that merge commutatively like the sketches.
//!
//! # Examples
//!
//! ```
//! use energydx_stats::{percentile, outlier::TukeyFences};
//!
//! let amplitudes = [0.1, 0.0, 0.2, 0.1, 0.0, 9.5];
//! let fences = TukeyFences::from_data(&amplitudes, 3.0).unwrap();
//! assert!(fences.is_upper_outlier(9.5));
//! assert!(!fences.is_upper_outlier(0.2));
//!
//! let p10 = percentile::percentile(&[1.0, 2.0, 3.0, 4.0], 10.0).unwrap();
//! assert!(p10 >= 1.0 && p10 <= 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod error;
pub mod histogram;
pub mod outlier;
pub mod percentile;
pub mod rank;
pub mod sketch;
pub mod sorted;
pub mod summary;

pub use cdf::Ecdf;
pub use error::StatsError;
pub use histogram::{Buckets, HistogramCells};
pub use outlier::TukeyFences;
pub use percentile::{
    median, percentile, percentile_many, quartiles, Quartiles,
};
pub use rank::{average_ranks, dense_ranks, ordinal_ranks};
pub use sketch::QuantileSketch;
pub use sorted::SortedGroup;
pub use summary::Summary;
