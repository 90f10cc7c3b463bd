//! Diagnosis reports and the code-reduction metric.

use std::collections::BTreeMap;

/// One detected manifestation point in one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestationPoint {
    /// Index of the instance in the trace's chronological order.
    pub instance_index: usize,
    /// The event whose instance sits at the point.
    pub event: String,
    /// The variation amplitude that crossed the fence.
    pub amplitude: f64,
}

/// An event reported to the developer with the fraction of traces it
/// impacted (the `%` column of Tables II, IV, V, VI).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEvent {
    /// The event identifier.
    pub event: String,
    /// Fraction of collected traces whose manifestation window
    /// contains this event.
    pub impacted_fraction: f64,
    /// Smallest observed distance (in events) between an instance of
    /// this event and a manifestation point; ties on the fraction are
    /// broken by proximity, so the events closest to the transition
    /// surface first.
    pub proximity: usize,
}

/// Per-trace intermediate series — everything needed to re-plot the
/// paper's per-app diagnosis figures (7a/b/c, 8, 9, 10, 12, 13, 15).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Raw per-instance power (Fig. 7a).
    pub raw_power_mw: Vec<f64>,
    /// The event of each instance, parallel to the series.
    pub events: Vec<String>,
    /// Normalized power after Steps 2–3 (Fig. 7b).
    pub normalized_power: Vec<f64>,
    /// Variation amplitudes (Fig. 7c).
    pub amplitudes: Vec<f64>,
    /// The Tukey upper outer fence used for detection (Fig. 8), when
    /// the trace was long enough to compute quartiles.
    pub upper_fence: Option<f64>,
    /// Detected manifestation points.
    pub manifestation_points: Vec<ManifestationPoint>,
}

/// One trace the analysis excluded rather than crashed on.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedTrace {
    /// Index of the trace in the input.
    pub index: usize,
    /// Why it was excluded (e.g. non-finite power values).
    pub reason: String,
}

/// How the analysis coped with its input: what ran, what was isolated.
///
/// Fleet traces pass through lossy radios and salvaged decodes before
/// they reach analysis, so a damaged trace is an expected input, not a
/// programming error — it is skipped and accounted for here instead of
/// panicking the whole diagnosis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisStats {
    /// Traces in the input.
    pub total_traces: usize,
    /// Traces that took part in the analysis.
    pub analyzed_traces: usize,
    /// Traces excluded, with reasons; their [`TraceAnalysis`] entries
    /// are empty placeholders so the report stays parallel to the
    /// input.
    pub skipped: Vec<SkippedTrace>,
    /// Event groups whose statistics were degenerate and dropped from
    /// the rankings (zero with sane input; non-zero only if a caller
    /// bypasses input sanitation).
    pub degenerate_groups: usize,
}

impl AnalysisStats {
    /// Whether every input trace was analyzed cleanly.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty() && self.degenerate_groups == 0
    }
}

/// The complete output of [`crate::EnergyDx::diagnose`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// Per-trace analysis, parallel to the input traces.
    pub traces: Vec<TraceAnalysis>,
    /// All impacted events sorted by closeness to the developer
    /// fraction (Step 5).
    pub events: Vec<RankedEvent>,
    /// Step-2 rankings per event group (exposed for the figures).
    pub rankings: BTreeMap<String, Vec<f64>>,
    /// How many events [`DiagnosisReport::reported_events`] returns.
    pub top_k: usize,
    /// What the analysis skipped or isolated along the way.
    pub stats: AnalysisStats,
}

impl DiagnosisReport {
    /// The events handed to the developer: the `top_k` whose impacted
    /// fraction is closest to the developer-reported fraction.
    pub fn reported_events(&self) -> &[RankedEvent] {
        &self.events[..self.events.len().min(self.top_k)]
    }

    /// Total manifestation points across traces.
    pub fn manifestation_point_count(&self) -> usize {
        self.traces
            .iter()
            .map(|t| t.manifestation_points.len())
            .sum()
    }

    /// Indices of traces with at least one detection.
    pub fn impacted_traces(&self) -> Vec<usize> {
        self.traces
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.manifestation_points.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Source-line accounting for the code-reduction metric (§IV-B):
/// `code reduction = (N_All − N_Diagnosis) / N_All`.
///
/// Built from the app package by the caller (so the analysis crate does
/// not depend on the IR crate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CodeIndex {
    /// Total source lines of the app (`N_All`).
    pub total_lines: u64,
    /// Event identifier → source lines of its callback.
    pub lines_by_event: BTreeMap<String, u64>,
}

impl CodeIndex {
    /// Creates an index.
    pub fn new(total_lines: u64) -> Self {
        CodeIndex {
            total_lines,
            lines_by_event: BTreeMap::new(),
        }
    }

    /// Registers one event's callback size.
    pub fn insert(&mut self, event: impl Into<String>, lines: u64) {
        self.lines_by_event.insert(event.into(), lines);
    }

    /// Lines the developer must inspect for a set of reported events
    /// (`N_Diagnosis`). Events without line info (e.g. the synthetic
    /// `Idle(No_Display)`) contribute 0 — there is no app code behind
    /// them.
    pub fn diagnosis_lines(&self, events: &[RankedEvent]) -> u64 {
        let mut seen = std::collections::BTreeSet::new();
        events
            .iter()
            .filter(|e| seen.insert(e.event.as_str()))
            .filter_map(|e| self.lines_by_event.get(&e.event))
            .sum()
    }

    /// The code-reduction metric for a set of reported events.
    ///
    /// # Examples
    ///
    /// ```
    /// # use energydx::report::{CodeIndex, RankedEvent};
    /// let mut idx = CodeIndex::new(1000);
    /// idx.insert("LA;->onResume", 70);
    /// let reported = vec![RankedEvent {
    ///     event: "LA;->onResume".into(),
    ///     impacted_fraction: 0.2,
    ///     proximity: 0,
    /// }];
    /// assert_eq!(idx.code_reduction(&reported), 0.93);
    /// ```
    pub fn code_reduction(&self, events: &[RankedEvent]) -> f64 {
        if self.total_lines == 0 {
            return 0.0;
        }
        let diag = self.diagnosis_lines(events).min(self.total_lines);
        (self.total_lines - diag) as f64 / self.total_lines as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(event: &str) -> RankedEvent {
        RankedEvent {
            event: event.to_string(),
            impacted_fraction: 0.1,
            proximity: 0,
        }
    }

    #[test]
    fn reported_events_truncate_to_top_k() {
        let report = DiagnosisReport {
            traces: vec![],
            events: (0..10).map(|i| ranked(&format!("E{i}"))).collect(),
            rankings: BTreeMap::new(),
            top_k: 6,
            stats: Default::default(),
        };
        assert_eq!(report.reported_events().len(), 6);
    }

    #[test]
    fn reported_events_handle_fewer_than_top_k() {
        let report = DiagnosisReport {
            traces: vec![],
            events: vec![ranked("A")],
            rankings: BTreeMap::new(),
            top_k: 6,
            stats: Default::default(),
        };
        assert_eq!(report.reported_events().len(), 1);
    }

    #[test]
    fn code_reduction_counts_unique_events_once() {
        let mut idx = CodeIndex::new(100);
        idx.insert("A", 10);
        let events = vec![ranked("A"), ranked("A")];
        assert_eq!(idx.diagnosis_lines(&events), 10);
        assert_eq!(idx.code_reduction(&events), 0.9);
    }

    #[test]
    fn unknown_events_cost_nothing() {
        let idx = CodeIndex::new(100);
        assert_eq!(idx.code_reduction(&[ranked("Idle(No_Display)")]), 1.0);
    }

    #[test]
    fn zero_total_lines_yields_zero_reduction() {
        let idx = CodeIndex::new(0);
        assert_eq!(idx.code_reduction(&[]), 0.0);
    }

    #[test]
    fn diagnosis_lines_never_exceed_total() {
        let mut idx = CodeIndex::new(5);
        idx.insert("A", 10);
        assert_eq!(idx.code_reduction(&[ranked("A")]), 0.0);
    }

    #[test]
    fn impacted_traces_lists_detections() {
        let hit = TraceAnalysis {
            raw_power_mw: vec![],
            events: vec![],
            normalized_power: vec![],
            amplitudes: vec![],
            upper_fence: None,
            manifestation_points: vec![ManifestationPoint {
                instance_index: 0,
                event: "E".into(),
                amplitude: 9.0,
            }],
        };
        let miss = TraceAnalysis {
            manifestation_points: vec![],
            ..hit.clone()
        };
        let report = DiagnosisReport {
            traces: vec![miss.clone(), hit, miss],
            events: vec![],
            rankings: BTreeMap::new(),
            top_k: 6,
            stats: Default::default(),
        };
        assert_eq!(report.impacted_traces(), vec![1]);
        assert_eq!(report.manifestation_point_count(), 1);
    }
}
