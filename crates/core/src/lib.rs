//! EnergyDx: diagnosing energy anomaly in mobile apps by identifying
//! the manifestation point.
//!
//! This crate implements the paper's core contribution — the 5-step
//! manifestation analysis of Section III — over traces collected from
//! many users:
//!
//! 1. **Power estimation of events** ([`input`]): event instances are
//!    joined with the app power trace by timestamp (the join itself
//!    lives in [`energydx_trace::join`]).
//! 2. **Event ranking** ([`pipeline::step2_rank`]): all instances of
//!    the same event across all traces are ranked by power.
//! 3. **Event normalization** ([`pipeline::step3_normalize`]): each
//!    instance is normalized to the 10th-percentile power of its event
//!    group, removing raw inter-event power differences.
//! 4. **Manifestation point detection**
//!    ([`pipeline::step4_detect`]): variation amplitudes over
//!    monotone runs of normalized power, then Tukey outlier detection
//!    with the upper outer fence `Q3 + 3·IQR`.
//! 5. **Reporting problematic events**
//!    ([`pipeline::step5_report`]): events inside the manifestation
//!    window, sorted by how closely the fraction of impacted traces
//!    matches the developer-reported fraction of impacted users.
//!
//! The pipeline scales past a single core: [`par`] is the
//! deterministic worker pool, [`shard`] the map/merge/finish dataflow
//! that analyzes the fleet in mergeable shards, and [`json`] the
//! canonical report rendering the differential harness compares byte
//! for byte — sequential, parallel, and sharded execution produce
//! identical reports.
//!
//! The façade type is [`EnergyDx`]; the evaluation metric is
//! [`report::CodeIndex::code_reduction`]; [`distance`] computes the
//! Fig.-1 *event distance* between the known root cause and the
//! detected manifestation point.
//!
//! # Examples
//!
//! ```
//! use energydx::{AnalysisConfig, DiagnosisInput, EnergyDx};
//! use energydx_trace::event::EventInstance;
//! use energydx_trace::join::PoweredInstance;
//!
//! // Two synthetic user traces: the second shows an ABD after "Cfg".
//! let normal: Vec<PoweredInstance> = (0..20)
//!     .map(|i| PoweredInstance {
//!         instance: EventInstance::new("LA;->onResume", i * 1000, i * 1000 + 10),
//!         power_mw: 100.0,
//!     })
//!     .collect();
//! let mut faulty = normal.clone();
//! for p in faulty.iter_mut().skip(10) {
//!     p.power_mw = 500.0; // abnormal from instance 10 on
//! }
//! let input = DiagnosisInput::new(vec![normal, faulty]);
//! let report = EnergyDx::new(AnalysisConfig::default()).diagnose(&input);
//! assert_eq!(report.traces[1].manifestation_points.len(), 1);
//! assert!(report.traces[0].manifestation_points.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amplitude;
pub mod config;
pub mod distance;
pub mod explain;
pub mod input;
pub mod json;
pub mod par;
pub mod pipeline;
pub mod report;
pub mod shard;
pub mod summary;

pub use config::AnalysisConfig;
pub use input::DiagnosisInput;
pub use json::JsonWriter;
pub use pipeline::EnergyDx;
pub use report::{
    AnalysisStats, CodeIndex, DiagnosisReport, RankedEvent, SkippedTrace,
    TraceAnalysis,
};
pub use shard::{AnalyzedFleet, ShardError, ShardPartial};
pub use summary::{EventSummary, FleetSummary};
