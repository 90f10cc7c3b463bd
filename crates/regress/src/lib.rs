//! Differential energy regression analysis between two app releases.
//!
//! EnergyDx diagnoses an anomaly *within* one fleet snapshot; this
//! crate answers the differential question a release gate asks: "did
//! v2 make the app burn more power than v1, and which event manifests
//! it?" It compares two [`FleetSummary`]s — one per release — event
//! by event ([`compare_summaries`]; [`compare`] takes two rendered
//! [`DiagnosisReport`]s and summarizes each first):
//!
//! 1. **Align** the event vocabularies. Both summaries key their
//!    events by name, so the union of names (a `BTreeSet`, for
//!    deterministic order) is the comparison axis; no interner has to
//!    be shared between the releases.
//! 2. **Read** one configurable quantile off each event's exact
//!    normalized-power [`QuantileSketch`] on each side.
//! 3. **Classify** each event by two signals: the quantile shift
//!    (relative to the v1 level, floored at 1 mW so near-zero
//!    baselines don't explode the ratio) and the delta in the
//!    impacted-trace fraction (the paper's `%` column). Either signal
//!    beyond its threshold flags the event.
//!
//! Every verdict is one of four stable strings — `regressed`,
//! `improved`, `unchanged`, `insufficient-data` — and the report
//! renders through the workspace's canonical [`JsonWriter`], so the
//! output is byte-deterministic and golden-testable like every other
//! artifact in the repo.

#![forbid(unsafe_code)]

use energydx::report::DiagnosisReport;
use energydx::{FleetSummary, JsonWriter};
use energydx_stats::QuantileSketch;
use std::collections::{BTreeMap, BTreeSet};

/// Thresholds and knobs for the differential comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressConfig {
    /// Which percentile of the per-event normalized-power population
    /// to compare (0–100). The default watches the distribution tail,
    /// where energy bugs live, rather than the median, which sleeps
    /// through rare-but-expensive paths.
    pub quantile: f64,
    /// Relative quantile shift beyond which an event is flagged
    /// (`0.1` = ±10% of the v1 level, floored at 1 mW).
    pub shift_threshold: f64,
    /// Absolute change in impacted-trace fraction beyond which an
    /// event is flagged (`0.05` = five percentage points).
    pub impact_threshold: f64,
    /// Minimum per-side sample count below which an event's verdict
    /// is `insufficient-data` instead of a guess.
    pub min_samples: u64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig {
            quantile: 90.0,
            shift_threshold: 0.10,
            impact_threshold: 0.05,
            min_samples: 8,
        }
    }
}

/// The four-way outcome of a differential comparison, for one event
/// or for the release as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// The new release spends detectably more energy.
    Regressed,
    /// The new release spends detectably less energy.
    Improved,
    /// Neither signal crossed its threshold.
    Unchanged,
    /// Too few samples on at least one side to say anything.
    InsufficientData,
}

impl Verdict {
    /// The stable wire/JSON spelling of the verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::InsufficientData => "insufficient-data",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One side (one release) of an event's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSide {
    /// Normalized-power observations for this event in this release.
    pub samples: u64,
    /// The configured quantile of the population; `None` when the
    /// event never ran in this release.
    pub quantile_mw: Option<f64>,
    /// Fraction of this release's traces whose manifestation window
    /// contains the event (0 when the event was never implicated).
    pub impacted_fraction: f64,
}

/// The differential result for one event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDelta {
    /// The event identifier (shared vocabulary of both releases).
    pub event: String,
    /// How this event changed between the releases.
    pub verdict: Verdict,
    /// The v1 ("from") side.
    pub from: EventSide,
    /// The v2 ("to") side.
    pub to: EventSide,
    /// `(to − from) / max(|from|, 1 mW)` of the compared quantile;
    /// `None` when either side has no population at all.
    pub quantile_shift: Option<f64>,
    /// `to.impacted_fraction − from.impacted_fraction`.
    pub impact_delta: f64,
}

/// The complete differential report between two releases.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// The baseline release label.
    pub from_version: String,
    /// The candidate release label.
    pub to_version: String,
    /// Analyzed traces on the baseline side.
    pub from_traces: usize,
    /// Analyzed traces on the candidate side.
    pub to_traces: usize,
    /// The release-level verdict: `regressed` if any event regressed,
    /// else `improved` if any improved, else `unchanged` — or
    /// `insufficient-data` when no event had enough samples to judge.
    pub verdict: Verdict,
    /// Per-event deltas: regressions first, each class ordered by
    /// shift magnitude (then name), so the headline is line one.
    pub events: Vec<EventDelta>,
    /// The thresholds the comparison ran under, echoed so a stored
    /// report is self-describing.
    pub config: RegressConfig,
}

impl RegressionReport {
    /// Events whose verdict is [`Verdict::Regressed`].
    pub fn regressions(&self) -> impl Iterator<Item = &EventDelta> {
        self.events
            .iter()
            .filter(|e| e.verdict == Verdict::Regressed)
    }
}

/// Per-event impacted fractions of one summary (events outside the
/// ranked list were never implicated: fraction 0).
fn impacted_fractions(summary: &FleetSummary) -> BTreeMap<&str, f64> {
    summary
        .events
        .iter()
        .map(|e| (e.event.as_str(), e.impacted_fraction))
        .collect()
}

/// Compares two per-release diagnosis reports: [`compare_summaries`]
/// over [`FleetSummary::of_report`] of each.
pub fn compare(
    from_version: &str,
    from: &DiagnosisReport,
    to_version: &str,
    to: &DiagnosisReport,
    config: &RegressConfig,
) -> RegressionReport {
    compare_summaries(
        from_version,
        &FleetSummary::of_report(from),
        to_version,
        &FleetSummary::of_report(to),
        config,
    )
}

/// Compares two per-release fleet summaries.
///
/// Pure: the result is a function of the two summaries and the config
/// alone, so daemon, coordinator, and batch CLI produce identical
/// bytes for identical inputs.
pub fn compare_summaries(
    from_version: &str,
    from: &FleetSummary,
    to_version: &str,
    to: &FleetSummary,
    config: &RegressConfig,
) -> RegressionReport {
    let from_impact = impacted_fractions(from);
    let to_impact = impacted_fractions(to);

    let names: BTreeSet<&str> = from
        .by_event
        .keys()
        .chain(to.by_event.keys())
        .map(String::as_str)
        .collect();

    let mut events = Vec::with_capacity(names.len());
    for name in names {
        let side = |summary: &FleetSummary, impact: &BTreeMap<&str, f64>| {
            let sketch = summary.by_event.get(name).map(|e| &e.power);
            EventSide {
                samples: sketch.map_or(0, QuantileSketch::count),
                quantile_mw: sketch
                    .and_then(|s| s.percentile(config.quantile).ok()),
                impacted_fraction: impact.get(name).copied().unwrap_or(0.0),
            }
        };
        let from_side = side(from, &from_impact);
        let to_side = side(to, &to_impact);
        let quantile_shift = match (from_side.quantile_mw, to_side.quantile_mw)
        {
            (Some(f), Some(t)) => Some((t - f) / f.abs().max(1.0)),
            _ => None,
        };
        let impact_delta =
            to_side.impacted_fraction - from_side.impacted_fraction;
        let verdict = if from_side.samples < config.min_samples
            || to_side.samples < config.min_samples
        {
            Verdict::InsufficientData
        } else {
            let shift = quantile_shift.unwrap_or(0.0);
            if shift > config.shift_threshold
                || impact_delta > config.impact_threshold
            {
                Verdict::Regressed
            } else if shift < -config.shift_threshold
                || impact_delta < -config.impact_threshold
            {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        };
        events.push(EventDelta {
            event: name.to_string(),
            verdict,
            from: from_side,
            to: to_side,
            quantile_shift,
            impact_delta,
        });
    }

    // Regressions first, then improvements, then the quiet rest; each
    // class by descending shift magnitude, name as the total-order
    // tiebreak. `total_cmp` keeps the sort byte-deterministic.
    events.sort_by(|a, b| {
        let magnitude = |e: &EventDelta| e.quantile_shift.unwrap_or(0.0).abs();
        a.verdict
            .cmp(&b.verdict)
            .then(magnitude(b).total_cmp(&magnitude(a)))
            .then_with(|| a.event.cmp(&b.event))
    });

    let verdict = if events.iter().any(|e| e.verdict == Verdict::Regressed) {
        Verdict::Regressed
    } else if events.iter().any(|e| e.verdict == Verdict::Improved) {
        Verdict::Improved
    } else if events.iter().any(|e| e.verdict == Verdict::Unchanged) {
        Verdict::Unchanged
    } else {
        Verdict::InsufficientData
    };

    RegressionReport {
        from_version: from_version.to_string(),
        to_version: to_version.to_string(),
        from_traces: from.analyzed_traces,
        to_traces: to.analyzed_traces,
        verdict,
        events,
        config: config.clone(),
    }
}

/// Renders a regression report as canonical, byte-deterministic JSON
/// (same writer, same conventions as [`energydx::json::report_json`]).
pub fn regression_json(report: &RegressionReport) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.key("from_version");
        w.string(&report.from_version);
        w.key("to_version");
        w.string(&report.to_version);
        w.key("from_traces");
        w.usize(report.from_traces);
        w.key("to_traces");
        w.usize(report.to_traces);
        w.key("verdict");
        w.string(report.verdict.as_str());
        w.key("events");
        w.arr(&report.events, event_delta_json);
        w.key("config");
        w.obj(|w| {
            w.key("quantile");
            w.float(report.config.quantile);
            w.key("shift_threshold");
            w.float(report.config.shift_threshold);
            w.key("impact_threshold");
            w.float(report.config.impact_threshold);
            w.key("min_samples");
            w.u64(report.config.min_samples);
        });
    });
    w.into_line()
}

fn event_delta_json(w: &mut JsonWriter, e: &EventDelta) {
    w.obj(|w| {
        w.key("event");
        w.string(&e.event);
        w.key("verdict");
        w.string(e.verdict.as_str());
        w.key("from");
        event_side_json(w, &e.from);
        w.key("to");
        event_side_json(w, &e.to);
        w.key("quantile_shift");
        match e.quantile_shift {
            Some(v) => w.float(v),
            None => w.raw("null"),
        }
        w.key("impact_delta");
        w.float(e.impact_delta);
    });
}

fn event_side_json(w: &mut JsonWriter, s: &EventSide) {
    w.obj(|w| {
        w.key("samples");
        w.u64(s.samples);
        w.key("quantile_mw");
        match s.quantile_mw {
            Some(v) => w.float(v),
            None => w.raw("null"),
        }
        w.key("impacted_fraction");
        w.float(s.impacted_fraction);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use energydx::input::DiagnosisInput;
    use energydx::EnergyDx;
    use energydx_trace::event::EventInstance;
    use energydx_trace::join::PoweredInstance;

    fn instance(event: &str, start: u64, mw: f64) -> PoweredInstance {
        PoweredInstance {
            instance: EventInstance::new(event, start, start + 10),
            power_mw: mw,
        }
    }

    /// A fleet where `hot`'s power scales with `boost` in the back
    /// half of the traces while `cold` stays flat. Step 3 normalizes
    /// each event by its own group base, so a *uniform* boost is
    /// ratio-invariant — only a boost that hits a subset of sessions
    /// (like a real injected bug) fattens the normalized tail, and
    /// that is what the comparison must catch.
    fn fleet(boost: f64) -> DiagnosisInput {
        let traces: Vec<Vec<PoweredInstance>> = (0..6)
            .map(|t| {
                let boosted = t >= 3;
                (0..16)
                    .map(|i| {
                        let hot = i % 4 == 3;
                        let event = if hot { "hot" } else { "cold" };
                        let base = if hot && boosted {
                            260.0 * boost
                        } else if hot {
                            260.0
                        } else {
                            100.0
                        };
                        instance(event, i * 100, base + (t + i) as f64)
                    })
                    .collect()
            })
            .collect();
        DiagnosisInput::new(traces)
    }

    fn report(boost: f64) -> DiagnosisReport {
        EnergyDx::default().diagnose(&fleet(boost))
    }

    #[test]
    fn identical_releases_are_unchanged() {
        let r = report(1.0);
        let cmp = compare("v1", &r, "v2", &r, &RegressConfig::default());
        assert_eq!(cmp.verdict, Verdict::Unchanged);
        assert!(cmp.events.iter().all(|e| e.verdict == Verdict::Unchanged));
        assert_eq!(cmp.from_traces, cmp.to_traces);
    }

    #[test]
    fn boosted_event_regresses_and_only_it() {
        let cmp = compare(
            "v1",
            &report(1.0),
            "v2",
            &report(1.6),
            &RegressConfig::default(),
        );
        assert_eq!(cmp.verdict, Verdict::Regressed);
        let flagged: Vec<_> =
            cmp.regressions().map(|e| e.event.as_str()).collect();
        assert_eq!(flagged, ["hot"]);
        // Regressions sort first.
        assert_eq!(cmp.events[0].event, "hot");
        assert!(cmp.events[0].quantile_shift.unwrap() > 0.1);
    }

    #[test]
    fn comparison_is_antisymmetric() {
        let cfg = RegressConfig::default();
        let v1 = report(1.0);
        let v2 = report(1.6);
        let fwd = compare("v1", &v1, "v2", &v2, &cfg);
        let rev = compare("v2", &v2, "v1", &v1, &cfg);
        assert_eq!(fwd.verdict, Verdict::Regressed);
        assert_eq!(rev.verdict, Verdict::Improved);
    }

    #[test]
    fn tiny_populations_yield_insufficient_data() {
        let small = EnergyDx::default().diagnose(&DiagnosisInput::new(vec![
            vec![instance("hot", 0, 100.0), instance("hot", 100, 110.0)],
        ]));
        let cmp =
            compare("v1", &small, "v2", &small, &RegressConfig::default());
        assert_eq!(cmp.verdict, Verdict::InsufficientData);
    }

    #[test]
    fn event_absent_on_one_side_has_null_shift() {
        let v1 = FleetSummary::of_report(&report(1.0));
        let mut v2 = v1.clone();
        let hot = v2.by_event.remove("hot").unwrap();
        v2.by_event.insert("hot2".to_string(), hot);
        let cmp =
            compare_summaries("v1", &v1, "v2", &v2, &RegressConfig::default());
        let hot = cmp.events.iter().find(|e| e.event == "hot").unwrap();
        assert_eq!(hot.to.samples, 0);
        assert_eq!(hot.quantile_shift, None);
        assert_eq!(hot.verdict, Verdict::InsufficientData);
        assert!(cmp.events.iter().any(|e| e.event == "hot2"));
    }

    #[test]
    fn json_is_deterministic_and_structurally_sound() {
        let cmp = compare(
            "v1",
            &report(1.0),
            "v2",
            &report(1.6),
            &RegressConfig::default(),
        );
        let a = regression_json(&cmp);
        let b = regression_json(&cmp);
        assert_eq!(a, b);
        assert!(a.ends_with("}\n"));
        assert_eq!(a.matches('"').count() % 2, 0);
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(a.matches(open).count(), a.matches(close).count());
        }
        assert!(a.contains("\"verdict\": \"regressed\""));
        assert!(a.contains("\"from_version\": \"v1\""));
    }
}
