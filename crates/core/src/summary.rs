//! The per-event fleet summary the release gate and the operator
//! report read.
//!
//! Step 5 ends in a ranked event list, and the fleet products built on
//! it need only per-event aggregates: the regression gate compares
//! normalized-power quantiles and impacted fractions, the report shows
//! per-event p50/p90, detection counts and peak amplitude, plus one
//! pooled p90 per epoch. A [`FleetSummary`] holds exactly that, so
//! neither product has to render a [`DiagnosisReport`] with one owned
//! event string and three floats per instance.
//!
//! Two constructors compute the same value:
//!
//! - [`EnergyDx::summarize`] reads an [`AnalyzedFleet`] by reference,
//!   in one pass over its id-indexed tables; names are resolved once
//!   per event, never per instance.
//! - [`FleetSummary::of_report`] reads a rendered report, keyed by
//!   event name. It is the reference the first is tested against
//!   (`tests/summary_props.rs`), and what
//!   `energydx_regress::compare` still accepts.

use crate::pipeline::EnergyDx;
use crate::report::{DiagnosisReport, RankedEvent};
use crate::shard::AnalyzedFleet;
use energydx_stats::QuantileSketch;
use std::collections::BTreeMap;

/// One event's instances in a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventSummary {
    /// Exact normalized power of the event's instances.
    pub power: QuantileSketch,
    /// Manifestation points at an instance of the event.
    pub detections: usize,
    /// Largest amplitude among those points (0 when there are none).
    pub peak_amplitude: f64,
}

/// Per-event aggregates of one analyzed fleet (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Step 5's ranked events (as [`DiagnosisReport::events`]).
    pub events: Vec<RankedEvent>,
    /// How many events [`FleetSummary::reported_events`] returns.
    pub top_k: usize,
    /// Traces in the input.
    pub total_traces: usize,
    /// Traces that took part in the analysis.
    pub analyzed_traces: usize,
    /// Traces with at least one manifestation point.
    pub impacted_traces: usize,
    /// Manifestation points across the fleet.
    pub manifestation_points: usize,
    /// Every event with at least one instance, by name.
    pub by_event: BTreeMap<String, EventSummary>,
    /// Normalized power of every instance: the merge of the per-event
    /// sketches.
    pub power: QuantileSketch,
}

impl FleetSummary {
    /// The events handed to the developer, as
    /// [`DiagnosisReport::reported_events`].
    pub fn reported_events(&self) -> &[RankedEvent] {
        &self.events[..self.events.len().min(self.top_k)]
    }

    /// The summary of a rendered report, keyed by event name. Equal
    /// to [`EnergyDx::summarize`] of the analysis the report was
    /// rendered from.
    pub fn of_report(report: &DiagnosisReport) -> FleetSummary {
        let mut powers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut points: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for trace in &report.traces {
            for (event, &mw) in trace.events.iter().zip(&trace.normalized_power)
            {
                powers.entry(event).or_default().push(mw);
            }
            for point in &trace.manifestation_points {
                count_point(
                    points.entry(&point.event).or_default(),
                    point.amplitude,
                );
            }
        }
        let by_event: BTreeMap<String, EventSummary> = powers
            .into_iter()
            .map(|(event, powers)| {
                let points = points.get(event).copied().unwrap_or_default();
                (event.to_string(), EventSummary::new(powers, points))
            })
            .collect();
        FleetSummary {
            events: report.events.clone(),
            top_k: report.top_k,
            total_traces: report.stats.total_traces,
            analyzed_traces: report.stats.analyzed_traces,
            impacted_traces: report.impacted_traces().len(),
            manifestation_points: report.manifestation_point_count(),
            power: pooled(&by_event),
            by_event,
        }
    }
}

impl EventSummary {
    fn new(
        powers: Vec<f64>,
        (detections, peak_amplitude): (usize, f64),
    ) -> Self {
        EventSummary {
            power: QuantileSketch::from_values(powers),
            detections,
            peak_amplitude,
        }
    }
}

/// Counts one manifestation point into its event's
/// `(detections, peak amplitude)`; the peak starts at 0.
fn count_point((detections, peak): &mut (usize, f64), amplitude: f64) {
    *detections += 1;
    if amplitude > *peak {
        *peak = amplitude;
    }
}

/// Every instance's normalized power: the merge of the per-event
/// sketches.
fn pooled(by_event: &BTreeMap<String, EventSummary>) -> QuantileSketch {
    by_event
        .values()
        .fold(QuantileSketch::new(), |mut pooled, e| {
            pooled.merge(&e.power);
            pooled
        })
}

impl EnergyDx {
    /// The [`FleetSummary`] of an analyzed fleet, in one pass over its
    /// id-indexed tables: per-event populations and detections are
    /// gathered by event id, and each name is resolved once. Equal to
    /// [`FleetSummary::of_report`] of the rendered fleet, without the
    /// rendering.
    pub fn summarize(&self, fleet: &AnalyzedFleet) -> FleetSummary {
        let vocab = fleet.interner.len();
        let mut powers: Vec<Vec<f64>> = vec![Vec::new(); vocab];
        let mut points: Vec<(usize, f64)> = vec![(0, 0.0); vocab];
        let mut impacted_traces = 0;
        let mut manifestation_points = 0;
        for (trace, outcome) in fleet.traces.iter().zip(&fleet.outcomes) {
            for (&id, &mw) in trace.ids().iter().zip(&outcome.normalized) {
                powers[id.index()].push(mw);
            }
            impacted_traces += usize::from(!outcome.outliers.is_empty());
            manifestation_points += outcome.outliers.len();
            for &idx in &outcome.outliers {
                let amplitude = outcome.amplitudes[idx];
                count_point(&mut points[trace.ids()[idx].index()], amplitude);
            }
        }
        let by_event: BTreeMap<String, EventSummary> = powers
            .into_iter()
            .zip(points)
            .enumerate()
            .filter(|(_, (powers, _))| !powers.is_empty())
            .map(|(id, (powers, points))| {
                let name = fleet.interner.names()[id].clone();
                (name, EventSummary::new(powers, points))
            })
            .collect();
        let traces = fleet.traces.len();
        FleetSummary {
            events: fleet.step5.ranked(&fleet.interner, self.config()),
            top_k: self.config().top_k,
            total_traces: traces,
            analyzed_traces: traces - fleet.skipped.len(),
            impacted_traces,
            manifestation_points,
            power: pooled(&by_event),
            by_event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DiagnosisInput;
    use energydx_trace::event::EventInstance;
    use energydx_trace::join::PoweredInstance;

    fn fleet() -> DiagnosisInput {
        let traces = (0..6)
            .map(|t| {
                (0..24)
                    .map(|i| {
                        let event = ["A", "B", "C"][i % 3];
                        let boost = if t >= 4 && i >= 12 { 5.0 } else { 1.0 };
                        PoweredInstance {
                            instance: EventInstance::new(
                                event,
                                i as u64 * 100,
                                i as u64 * 100 + 10,
                            ),
                            power_mw: (100.0 + (i % 4) as f64) * boost,
                        }
                    })
                    .collect()
            })
            .collect();
        DiagnosisInput::new(traces)
    }

    #[test]
    fn summarize_equals_the_summary_of_the_rendered_report() {
        let input = fleet();
        let dx = EnergyDx::default();
        let analyzed = dx.analyze(dx.map_shard(input.traces(), 0)).unwrap();
        let summary = dx.summarize(&analyzed);
        let report = dx.render(analyzed);
        assert_eq!(summary, FleetSummary::of_report(&report));
        assert_eq!(summary.impacted_traces, report.impacted_traces().len());
        assert!(summary.manifestation_points > 0);
        assert_eq!(summary.reported_events(), report.reported_events());
        let detections: usize =
            summary.by_event.values().map(|e| e.detections).sum();
        assert_eq!(detections, summary.manifestation_points);
    }

    #[test]
    fn the_empty_fleet_summarizes_to_nothing() {
        let dx = EnergyDx::default();
        let analyzed = dx.analyze(crate::ShardPartial::empty()).unwrap();
        let summary = dx.summarize(&analyzed);
        assert!(summary.by_event.is_empty() && summary.power.is_empty());
        assert_eq!(summary, FleetSummary::of_report(&dx.render(analyzed)));
    }
}
