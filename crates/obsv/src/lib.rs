//! Observability for the EnergyDx pipeline and fleet daemon.
//!
//! A hand-rolled, offline metrics + tracing layer: no external crates,
//! nothing that phones home, cheap enough to leave compiled in and
//! enabled. Three pieces:
//!
//! - [`MetricsRegistry`] — named families of atomic counters, gauges,
//!   and fixed-bucket histograms. Registration takes a write lock
//!   once per series; after that every increment/observation is a
//!   handful of atomic ops on shared [`Counter`]/[`Gauge`]/
//!   [`Histogram`] handles, so the hot path never blocks.
//! - Span timing — [`MetricsRegistry::span`] returns an RAII
//!   [`SpanGuard`] that records elapsed seconds into the per-stage
//!   duration histogram when dropped. Under
//!   `ENERGYDX_DETERMINISTIC_TIME=1` (or a registry built with
//!   [`MetricsRegistry::deterministic`]) durations record as zero, so
//!   expositions are byte-stable and golden-testable.
//! - [`EventRing`] — a bounded ring of recent notable events
//!   (quarantine, shed, RetryAfter, checkpoint save/load, spill,
//!   epoch rollover) with a monotone sequence number, mirrored into
//!   an `energydx_events_total{kind=...}` counter family.
//!
//! Exposition is Prometheus text format ([`render_prometheus`]), with
//! families and series in sorted order so two registries holding the
//! same numbers render the same bytes. [`parse_exposition`] is the
//! matching validator used by scrape smoke tests.
//!
//! Shard-local registries fold into a global one with
//! [`MetricsRegistry::merge_from`]; counters, gauges, and histogram
//! cells all merge by addition, so the fold is order-independent
//! (property-tested in `tests/properties.rs`).
//!
//! # Example
//!
//! ```
//! use energydx_obsv::{EventKind, MetricsRegistry};
//!
//! let reg = MetricsRegistry::deterministic();
//! reg.counter("uploads_total", &[("outcome", "clean")]).inc();
//! {
//!     let _span = reg.span("detect"); // records on drop
//! }
//! reg.event(EventKind::Quarantine, "app=mail reason=bad-magic");
//! let text = reg.render_prometheus();
//! assert!(text.contains("uploads_total{outcome=\"clean\"} 1"));
//! assert!(energydx_obsv::parse_exposition(&text).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo;
mod metrics;
mod ring;

pub use expo::{parse_exposition, render_prometheus};
pub use metrics::{
    duration_buckets, Counter, Gauge, Histogram, Metrics, MetricsRegistry,
    SpanGuard, STAGE_FAMILY,
};
pub use ring::{EventKind, EventRing, ObsEvent};

use std::sync::{Arc, OnceLock};

/// The process-wide registry, for call sites with no natural owner to
/// thread a registry through (the trace crate's upload retry loop, the
/// power join). Created on first use; honors
/// `ENERGYDX_DETERMINISTIC_TIME` at that moment.
pub fn global() -> &'static Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}
