//! Umbrella crate for the EnergyDx reproduction workspace.
//!
//! Re-exports the member crates so that root-level examples and
//! integration tests can use a single dependency. See the individual
//! crates for documentation:
//!
//! - [`energydx`] — the 5-step manifestation analysis (the paper's core).
//! - [`energydx_stats`] — percentile/quartile/outlier statistics.
//! - [`energydx_dexir`] — Dalvik-like IR and the APK instrumenter.
//! - [`energydx_droidsim`] — simulated Android runtime.
//! - [`energydx_powermodel`] — component power model and sampler.
//! - [`energydx_trace`] — event/utilization/power trace formats.
//! - [`energydx_workload`] — user simulation, fault injection, app fleet.
//! - [`energydx_baselines`] — CheckAll, No-sleep Detection, eDelta.
//! - [`energydx_fleetd`] — incremental fleet-analysis daemon.
//! - [`energydx_obsv`] — metrics registry and Prometheus exposition.
//! - [`energydx_regress`] — differential (release-to-release) diagnosis.
//! - [`energydx_report`] — deterministic operator report (HTML + JSON).
//! - [`energydx_segment`] — the one byte encoding of a shard partial
//!   (checkpoints, cluster frames) and the on-disk segment format.

pub mod fixtures;

pub use energydx;
pub use energydx_baselines;
pub use energydx_dexir;
pub use energydx_droidsim;
pub use energydx_fleetd;
pub use energydx_obsv;
pub use energydx_powermodel;
pub use energydx_regress;
pub use energydx_report;
pub use energydx_segment;
pub use energydx_stats;
pub use energydx_trace;
pub use energydx_workload;
