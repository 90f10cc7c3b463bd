//! The 5-step manifestation analysis pipeline.
//!
//! Each step is a standalone public function (C-INTERMEDIATE: callers
//! — the figures-regeneration benches in particular — need the
//! intermediate series, not just the final report); [`EnergyDx`] is the
//! façade chaining them.

use crate::amplitude::{sustained_amplitudes, variation_amplitudes};
use crate::config::AnalysisConfig;
use crate::input::DiagnosisInput;
use crate::report::{
    AnalysisStats, DiagnosisReport, ManifestationPoint, RankedEvent,
    SkippedTrace, TraceAnalysis,
};
use energydx_obsv::Metrics;
use energydx_stats::outlier::TukeyFences;
use energydx_stats::{average_ranks, percentile_many};
use energydx_trace::intern::{EventId, InternedTrace};
use energydx_trace::join::PoweredInstance;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Per-event-group power statistics shared by Steps 2 and 3.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventGroups {
    /// Event key → power of every instance of that event, across all
    /// traces, in trace order.
    pub powers: BTreeMap<String, Vec<f64>>,
}

impl EventGroups {
    /// Collects per-event power populations from the input.
    pub fn collect(input: &DiagnosisInput) -> Self {
        Self::collect_traces(input.traces())
    }

    /// Collects per-event power populations from a run of traces (a
    /// shard of the fleet, or the whole of it).
    pub fn collect_traces(traces: &[Vec<PoweredInstance>]) -> Self {
        let mut powers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for trace in traces {
            for p in trace {
                powers
                    .entry(p.instance.event.clone())
                    .or_default()
                    .push(p.power_mw);
            }
        }
        EventGroups { powers }
    }

    /// Appends another partial's populations after this one's.
    ///
    /// When `later` was collected from the traces that immediately
    /// follow this partial's in fleet order, the result is identical to
    /// one [`EventGroups::collect_traces`] pass over the concatenated
    /// run — group vectors stay in trace order, which is what makes
    /// shard-level collection equivalent to sequential collection.
    pub fn merge(&mut self, later: EventGroups) {
        for (event, powers) in later.powers {
            self.powers.entry(event).or_default().extend(powers);
        }
    }
}

/// Step 2: ranks all instances of each event across all traces by
/// power (average ranks on ties). Returned in the same grouping as
/// [`EventGroups::collect`].
///
/// # Examples
///
/// ```
/// # use energydx::pipeline::{step2_rank, EventGroups};
/// # use energydx::DiagnosisInput;
/// # use energydx_trace::event::EventInstance;
/// # use energydx_trace::join::PoweredInstance;
/// let mk = |mw: f64| PoweredInstance {
///     instance: EventInstance::new("E", 0, 1),
///     power_mw: mw,
/// };
/// let input = DiagnosisInput::new(vec![vec![mk(10.0), mk(30.0), mk(20.0)]]);
/// let ranks = step2_rank(&EventGroups::collect(&input));
/// assert_eq!(ranks["E"], vec![1.0, 3.0, 2.0]);
/// ```
pub fn step2_rank(groups: &EventGroups) -> BTreeMap<String, Vec<f64>> {
    groups
        .powers
        .iter()
        .filter_map(|(event, powers)| {
            // Groups are non-empty and finite after input sanitation;
            // a degenerate group (NaN smuggled past it) is dropped
            // rather than panicking mid-analysis.
            let ranks = average_ranks(powers).ok()?;
            Some((event.clone(), ranks))
        })
        .collect()
}

/// Step 3: normalizes every instance to the configured percentile
/// (default 10th) of its event group. Returns one normalized-power
/// series per trace, parallel to the input.
pub fn step3_normalize(
    input: &DiagnosisInput,
    groups: &EventGroups,
    config: &AnalysisConfig,
) -> Vec<Vec<f64>> {
    let bases = group_bases(groups, config);
    input
        .traces()
        .iter()
        .map(|trace| normalize_trace(trace, &bases, config))
        .collect()
}

/// The Step-3 normalization base of every non-degenerate event group:
/// the configured percentile, guarded from below by a fraction of the
/// median and by the absolute floor.
pub(crate) fn group_bases<'a>(
    groups: &'a EventGroups,
    config: &AnalysisConfig,
) -> BTreeMap<&'a str, f64> {
    groups
        .powers
        .iter()
        .filter_map(|(event, powers)| {
            // One sort serves both the percentile and the median;
            // `percentile_many` is bit-identical to two independent
            // `percentile` calls.
            let pm = percentile_many(powers, &[config.base_percentile, 50.0])
                .ok()?;
            let base = pm[0]
                .max(pm[1] * config.base_guard_fraction)
                .max(config.min_base_mw);
            (base.is_finite() && base > 0.0).then_some((event.as_str(), base))
        })
        .collect()
}

/// Normalizes one trace against the per-event bases — the pure
/// per-trace unit of Step 3.
pub(crate) fn normalize_trace(
    trace: &[PoweredInstance],
    bases: &BTreeMap<&str, f64>,
    config: &AnalysisConfig,
) -> Vec<f64> {
    trace
        .iter()
        .map(|p| {
            // An event missing its base (degenerate group, or groups
            // computed over different input) falls back to the
            // configured floor instead of panicking.
            let base = bases
                .get(p.instance.event.as_str())
                .copied()
                .unwrap_or(config.min_base_mw.max(f64::MIN_POSITIVE));
            p.power_mw / base
        })
        .collect()
}

/// [`normalize_trace`] over the interned representation: bases are a
/// dense table indexed by [`EventId`], `None` marking a degenerate
/// group. Performs the identical division (same fallback), so the
/// output is bit-identical to the string-keyed path.
pub(crate) fn normalize_interned(
    trace: &InternedTrace,
    bases: &[Option<f64>],
    config: &AnalysisConfig,
) -> Vec<f64> {
    trace
        .ids()
        .iter()
        .zip(trace.powers())
        .map(|(&id, &mw)| {
            let base = bases[id.index()]
                .unwrap_or(config.min_base_mw.max(f64::MIN_POSITIVE));
            mw / base
        })
        .collect()
}

/// Step 4: variation amplitudes and Tukey-fence outlier detection.
/// Returns, per trace, `(amplitudes, fence, outlier indices)`; traces
/// with fewer than 4 instances cannot produce meaningful quartiles and
/// yield no detections. Detection runs on the sustained amplitude when
/// `config.sustained_window > 0`, and on the paper's raw run-difference
/// amplitude otherwise.
pub fn step4_detect(
    normalized: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Vec<(Vec<f64>, Option<TukeyFences>, Vec<usize>)> {
    normalized
        .iter()
        .map(|series| detect_series(series, config))
        .collect()
}

/// Detection over one normalized series — the pure per-trace unit of
/// Step 4.
pub(crate) fn detect_series(
    series: &[f64],
    config: &AnalysisConfig,
) -> (Vec<f64>, Option<TukeyFences>, Vec<usize>) {
    let amplitudes = if config.sustained_window > 0 {
        sustained_amplitudes(series, config.sustained_window)
    } else {
        variation_amplitudes(series)
    };
    if amplitudes.len() < 4 {
        return (amplitudes, None, Vec::new());
    }
    // Degenerate amplitude data (possible only when a caller bypasses
    // input sanitation) yields no detections rather than a panic.
    let Ok(fences) = TukeyFences::from_data(&amplitudes, config.fence_k) else {
        return (amplitudes, None, Vec::new());
    };
    let raw_outliers: Vec<usize> = amplitudes
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > fences.upper + config.min_fence_excess)
        .map(|(i, _)| i)
        .collect();
    // One level shift makes several adjacent instances cross the fence
    // (the windowed median moves over the onset); collapse each
    // consecutive run to its strongest instance so one transition is
    // one manifestation point.
    let mut outliers: Vec<usize> = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    for &idx in &raw_outliers {
        if run.last().is_some_and(|&last| idx > last + 1) {
            outliers.extend(argmax_of(&run, &amplitudes));
            run.clear();
        }
        run.push(idx);
    }
    outliers.extend(argmax_of(&run, &amplitudes));
    (amplitudes, Some(fences), outliers)
}

/// The index (from `candidates`) with the largest amplitude; `None`
/// for an empty run. `total_cmp` keeps the comparison total even if a
/// NaN slips through, so this can never panic.
fn argmax_of(candidates: &[usize], amplitudes: &[f64]) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .max_by(|&a, &b| amplitudes[a].total_cmp(&amplitudes[b]))
}

/// Step 5: gathers the events inside each manifestation window,
/// computes per-event impacted-trace fractions, and sorts by distance
/// to the developer-reported fraction. The tie-break chain after the
/// fraction distance is total and deterministic: higher impacted
/// fraction, then smaller window proximity, then event name.
pub fn step5_report(
    input: &DiagnosisInput,
    detections: &[(Vec<f64>, Option<TukeyFences>, Vec<usize>)],
    config: &AnalysisConfig,
) -> Vec<RankedEvent> {
    let mut total = 0usize;
    let mut by_event: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (trace, (_, _, outliers)) in input.traces().iter().zip(detections) {
        total += 1;
        for (event, distance) in trace_impact(trace, outliers, config) {
            let entry = by_event.entry(event).or_insert((0, usize::MAX));
            entry.0 += 1;
            entry.1 = entry.1.min(distance);
        }
    }
    if total == 0 {
        return Vec::new();
    }
    let mut ranked: Vec<RankedEvent> = by_event
        .into_iter()
        .map(|(event, (count, proximity))| RankedEvent {
            event,
            impacted_fraction: count as f64 / total as f64,
            proximity,
        })
        .collect();
    sort_ranked_events(&mut ranked, config);
    ranked
}

/// The Step-5 ordering shared by the reference and the dense hot path:
/// distance to the developer fraction, then higher impacted fraction,
/// then smaller proximity, then event name. The final name tie-break
/// makes the chain total, so the result does not depend on the
/// pre-sort order.
pub(crate) fn sort_ranked_events(
    ranked: &mut [RankedEvent],
    config: &AnalysisConfig,
) {
    ranked.sort_by(|a, b| {
        let da = (a.impacted_fraction - config.developer_fraction).abs();
        let db = (b.impacted_fraction - config.developer_fraction).abs();
        da.total_cmp(&db)
            .then_with(|| b.impacted_fraction.total_cmp(&a.impacted_fraction))
            .then_with(|| a.proximity.cmp(&b.proximity))
            .then_with(|| a.event.cmp(&b.event))
    });
}

/// The events whose instances fall inside any of one trace's
/// manifestation windows, with their smallest distance to a window
/// center — the pure per-trace unit of Step 5. Fold the results
/// (counts add, distances take the minimum), in any order, to recover
/// the global Step-5 aggregation.
pub(crate) fn trace_impact(
    trace: &[PoweredInstance],
    outliers: &[usize],
    config: &AnalysisConfig,
) -> BTreeMap<String, usize> {
    let mut impact: BTreeMap<String, usize> = BTreeMap::new();
    for &center in outliers {
        let lo = center.saturating_sub(config.window);
        let hi = (center + config.window).min(trace.len().saturating_sub(1));
        for (i, p) in trace[lo..=hi].iter().enumerate() {
            let distance = (lo + i).abs_diff(center);
            impact
                .entry(p.instance.event.clone())
                .and_modify(|d| *d = (*d).min(distance))
                .or_insert(distance);
        }
    }
    impact
}

/// [`trace_impact`] over the interned representation. Returns
/// `(event, smallest distance)` pairs — each event at most once — as a
/// small vector with linear-scan dedup: manifestation windows span a
/// handful of instances, so a map would cost more than it saves, and
/// the consumer indexes by id anyway.
pub(crate) fn trace_impact_interned(
    trace: &InternedTrace,
    outliers: &[usize],
    config: &AnalysisConfig,
) -> Vec<(EventId, usize)> {
    let mut impact: Vec<(EventId, usize)> = Vec::new();
    for &center in outliers {
        let lo = center.saturating_sub(config.window);
        let hi = (center + config.window).min(trace.len().saturating_sub(1));
        for (i, &id) in trace.ids()[lo..=hi].iter().enumerate() {
            let distance = (lo + i).abs_diff(center);
            match impact.iter_mut().find(|(e, _)| *e == id) {
                Some((_, d)) => *d = (*d).min(distance),
                None => impact.push((id, distance)),
            }
        }
    }
    impact
}

/// The EnergyDx analyzer: configuration plus the chained pipeline.
#[derive(Debug, Clone, Default)]
pub struct EnergyDx {
    config: AnalysisConfig,
    /// The worker-pool size: the count [`EnergyDx::with_jobs`] set, or
    /// the automatic one, resolved on first use and kept, so the
    /// environment and cgroup files are read at most once per analyzer.
    jobs: OnceLock<usize>,
    pub(crate) metrics: Metrics,
}

impl EnergyDx {
    /// Creates an analyzer with the given configuration and automatic
    /// worker-pool sizing (see [`crate::par::resolve_jobs`]).
    pub fn new(config: AnalysisConfig) -> Self {
        EnergyDx {
            config,
            jobs: OnceLock::new(),
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a metrics handle: every pipeline stage then records
    /// its duration into `energydx_stage_duration_seconds{stage=...}`.
    /// The default handle is disabled and stage timing costs nothing.
    /// Timing wraps whole stages, never per-instance work, so reports
    /// stay byte-identical with metrics on or off.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The attached metrics handle (disabled by default).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Sets the worker-pool size for [`EnergyDx::diagnose`]. `0` (the
    /// default) auto-sizes from the environment; `1` forces sequential
    /// execution. The report is byte-identical at every setting.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = match jobs {
            0 => OnceLock::new(),
            n => OnceLock::from(n),
        };
        self
    }

    /// The resolved worker-pool size, at least 1.
    ///
    /// # Panics
    ///
    /// Panics as [`crate::par::resolve_jobs`] does when the size is
    /// automatic and `ENERGYDX_JOBS` holds garbage.
    pub fn jobs(&self) -> usize {
        *self.jobs.get_or_init(|| crate::par::resolve_jobs(0))
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Runs Steps 2–5 over joined traces (Step 1 happens when the
    /// input is constructed) and assembles the full report, including
    /// the per-trace intermediate series needed to regenerate
    /// Figs. 7–10, 12, 13, and 15.
    ///
    /// Per-trace and per-event-group work runs on a worker pool of
    /// [`EnergyDx::jobs`] threads (see [`crate::par`]); the report is
    /// byte-identical to [`EnergyDx::diagnose_reference`] at every
    /// thread count — the guarantee the differential harness in
    /// `tests/diff_harness.rs` enforces.
    ///
    /// Diagnosis never panics on damaged input: traces carrying
    /// non-finite power are excluded (their report slot stays, empty)
    /// and accounted for in [`DiagnosisReport::stats`], so one corrupt
    /// upload cannot take down the analysis of an entire fleet.
    pub fn diagnose(&self, input: &DiagnosisInput) -> DiagnosisReport {
        let partial = self.map_shard(input.traces(), 0);
        self.finish(partial)
            .expect("a single shard at offset 0 is a complete fleet")
    }

    /// The textbook sequential implementation of Steps 2–5 — the ground
    /// truth the parallel and sharded paths are differentially tested
    /// against. Prefer [`EnergyDx::diagnose`]; this one exists so the
    /// equivalence claim is checked against an independent, straight-
    /// line implementation rather than against the parallel code with
    /// one thread.
    pub fn diagnose_reference(
        &self,
        input: &DiagnosisInput,
    ) -> DiagnosisReport {
        let (input, skipped) = input.sanitized();
        let input = &input;
        let groups = EventGroups::collect(input);
        let rankings = {
            let _span = self.metrics.span("rank");
            step2_rank(&groups)
        };
        let normalized = {
            let _span = self.metrics.span("normalize");
            step3_normalize(input, &groups, &self.config)
        };
        let detections = {
            let _span = self.metrics.span("detect");
            step4_detect(&normalized, &self.config)
        };
        let ranked_events = {
            let _span = self.metrics.span("report");
            step5_report(input, &detections, &self.config)
        };

        let stats = AnalysisStats {
            total_traces: input.len(),
            analyzed_traces: input.len() - skipped.len(),
            skipped: skipped
                .into_iter()
                .map(|(index, count)| SkippedTrace {
                    index,
                    reason: format!("{count} non-finite power value(s)"),
                })
                .collect(),
            degenerate_groups: groups.powers.len() - rankings.len(),
        };

        let traces: Vec<TraceAnalysis> = input
            .traces()
            .iter()
            .zip(normalized.iter())
            .zip(detections.iter())
            .map(|((trace, norm), (amplitudes, fences, outliers))| {
                let manifestation_points = outliers
                    .iter()
                    .map(|&idx| ManifestationPoint {
                        instance_index: idx,
                        event: trace[idx].instance.event.clone(),
                        amplitude: amplitudes[idx],
                    })
                    .collect();
                TraceAnalysis {
                    raw_power_mw: trace.iter().map(|p| p.power_mw).collect(),
                    events: trace
                        .iter()
                        .map(|p| p.instance.event.clone())
                        .collect(),
                    normalized_power: norm.clone(),
                    amplitudes: amplitudes.clone(),
                    upper_fence: fences.map(|f| f.upper),
                    manifestation_points,
                }
            })
            .collect();

        DiagnosisReport {
            traces,
            events: ranked_events,
            rankings,
            top_k: self.config.top_k,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energydx_trace::event::EventInstance;
    use energydx_trace::join::PoweredInstance;

    fn instance(event: &str, start: u64, mw: f64) -> PoweredInstance {
        PoweredInstance {
            instance: EventInstance::new(event, start, start + 10),
            power_mw: mw,
        }
    }

    /// One normal trace: mostly cheap "circle" events with an
    /// occasional expensive "square" (the paper's Checkmail-style
    /// high-power-by-functionality event).
    fn normal_trace(seed: u64) -> Vec<PoweredInstance> {
        (0..24)
            .map(|i| {
                if i == 11 {
                    instance(
                        "square",
                        i * 1000,
                        400.0 + ((i + seed) % 3) as f64,
                    )
                } else {
                    instance(
                        "circle",
                        i * 1000,
                        100.0 + ((i + seed) % 3) as f64,
                    )
                }
            })
            .collect()
    }

    /// The paper's running scenario (Fig. 6): two event kinds with
    /// different raw power; one trace is hit by an ABD after a
    /// "triangle" trigger event and stays high.
    fn fig6_input() -> DiagnosisInput {
        let mut faulty = normal_trace(0);
        // The trigger at instance 12, after which everything runs hot.
        faulty[12] = instance("triangle", 12_000, 120.0);
        for p in faulty.iter_mut().skip(13) {
            p.power_mw *= 5.0;
        }
        DiagnosisInput::new(vec![
            normal_trace(0),
            faulty,
            normal_trace(1),
            normal_trace(0),
        ])
    }

    #[test]
    fn normalization_flattens_raw_power_differences() {
        let input = fig6_input();
        let groups = EventGroups::collect(&input);
        let config = AnalysisConfig::default();
        let normalized = step3_normalize(&input, &groups, &config);
        // Normal traces (0, 2, 3) are now flat: every value near 1.
        for t in [0usize, 2, 3] {
            for &v in &normalized[t] {
                assert!(
                    (0.9..=1.2).contains(&v),
                    "trace {t} value {v} not flat"
                );
            }
        }
        // The faulty trace still shows the jump.
        let max = normalized[1].iter().cloned().fold(0.0, f64::max);
        assert!(max > 3.0, "ABD must survive normalization, max {max}");
    }

    #[test]
    fn detection_finds_the_abd_and_only_the_abd() {
        let input = fig6_input();
        let report = EnergyDx::default().diagnose(&input);
        assert!(report.traces[0].manifestation_points.is_empty());
        assert!(report.traces[2].manifestation_points.is_empty());
        assert!(report.traces[3].manifestation_points.is_empty());
        let points = &report.traces[1].manifestation_points;
        assert_eq!(points.len(), 1, "exactly one manifestation point");
        // The rise begins at the trigger (index 12) or the instance
        // right after it.
        assert!(
            (12..=13).contains(&points[0].instance_index),
            "detected at {}",
            points[0].instance_index
        );
    }

    #[test]
    fn raw_transition_points_would_be_misdetected_without_normalization() {
        // Sanity check of the paper's motivation: running Step 4
        // directly on RAW power finds outliers even in normal traces
        // (circle→square transitions), which normalization removes.
        // Uses the paper's raw run-difference amplitude (sustained
        // smoothing off) and no degenerate-IQR guard, as the paper's
        // Step 4 would.
        let input = fig6_input();
        let config = AnalysisConfig {
            sustained_window: 0,
            min_fence_excess: 0.0,
            ..AnalysisConfig::default()
        };
        let raw: Vec<Vec<f64>> = input
            .traces()
            .iter()
            .map(|t| t.iter().map(|p| p.power_mw).collect())
            .collect();
        let raw_detections = step4_detect(&raw, &config);
        let normal_raw_outliers: usize = [0usize, 2, 3]
            .iter()
            .map(|&t| raw_detections[t].2.len())
            .sum();
        assert!(
            normal_raw_outliers > 0,
            "raw power must show misleading transitions"
        );
    }

    #[test]
    fn step5_fraction_matches_impacted_traces() {
        // Besides the ABD trace, give one normal trace a sustained
        // user spike (several hot circle instances — e.g. the user
        // recorded a video). Its window also contains circles and
        // squares, so those events impact 50 % of the windowed traces
        // while the trigger impacts only 25 % — and the
        // developer-reported 25 % sorts the trigger first, exactly the
        // Step-5 filtering story.
        let mut traces = fig6_input().traces().to_vec();
        for p in &mut traces[2][7..=11] {
            p.power_mw = 520.0;
        }
        let input = DiagnosisInput::new(traces);
        let config = AnalysisConfig::default().with_developer_fraction(0.25);
        let report = EnergyDx::new(config).diagnose(&input);
        let triangle = report
            .events
            .iter()
            .find(|e| e.event == "triangle")
            .expect("trigger event reported");
        // Exactly 1 of 4 traces is impacted — the paper's 25 % example.
        assert_eq!(triangle.impacted_fraction, 0.25);
        let circle = report
            .events
            .iter()
            .find(|e| e.event == "circle")
            .expect("normal event also windowed");
        assert_eq!(circle.impacted_fraction, 0.5);
        // With developer_fraction = 0.25 the trigger sorts first.
        assert_eq!(report.events[0].event, "triangle");
    }

    #[test]
    fn rankings_expose_the_anomalous_instances() {
        let input = fig6_input();
        let groups = EventGroups::collect(&input);
        let ranks = step2_rank(&groups);
        // The faulty trace's post-trigger circle instances (running at
        // 5× power) occupy the top ranks of the circle population —
        // the "7th instance ranked much higher" observation of Fig. 6.
        let circles = &ranks["circle"];
        let n = circles.len() as f64;
        let hot = circles.iter().filter(|&&r| r > n * 0.75).count();
        assert!(hot >= 10, "expected the 11 hot circles on top, got {hot}");
    }

    #[test]
    fn short_traces_yield_no_detections() {
        let input = DiagnosisInput::new(vec![vec![
            instance("A", 0, 1.0),
            instance("B", 10, 100.0),
        ]]);
        let report = EnergyDx::default().diagnose(&input);
        assert!(report.traces[0].manifestation_points.is_empty());
        assert!(report.traces[0].upper_fence.is_none());
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let report = EnergyDx::default().diagnose(&DiagnosisInput::default());
        assert!(report.traces.is_empty());
        assert!(report.events.is_empty());
    }

    #[test]
    fn flat_traces_never_alarm() {
        let input = DiagnosisInput::new(vec![(0..50)
            .map(|i| instance("E", i * 500, 150.0))
            .collect()]);
        let report = EnergyDx::default().diagnose(&input);
        assert!(report.traces[0].manifestation_points.is_empty());
    }

    #[test]
    fn corrupt_trace_is_isolated_not_fatal() {
        // One trace carries NaN power (a corrupt float that survived a
        // salvaged decode). Diagnosis must complete, skip that trace,
        // and still find the ABD in the healthy ones.
        let mut traces = fig6_input().traces().to_vec();
        traces.push(vec![
            instance("circle", 0, f64::NAN),
            instance("circle", 1000, 100.0),
        ]);
        let report = EnergyDx::default().diagnose(&DiagnosisInput::new(traces));
        assert_eq!(report.stats.total_traces, 5);
        assert_eq!(report.stats.analyzed_traces, 4);
        assert_eq!(report.stats.skipped.len(), 1);
        assert_eq!(report.stats.skipped[0].index, 4);
        assert!(report.stats.skipped[0].reason.contains("non-finite"));
        // The skipped trace's slot stays, empty, so the report remains
        // parallel to the input.
        assert_eq!(report.traces.len(), 5);
        assert!(report.traces[4].raw_power_mw.is_empty());
        // The healthy traces still diagnose.
        assert_eq!(report.impacted_traces(), vec![1]);
    }

    #[test]
    fn all_nan_input_yields_empty_but_sound_report() {
        let traces = vec![
            (0..8).map(|i| instance("E", i * 100, f64::NAN)).collect(),
            (0..8)
                .map(|i| instance("E", i * 100, f64::INFINITY))
                .collect::<Vec<_>>(),
        ];
        let report = EnergyDx::default().diagnose(&DiagnosisInput::new(traces));
        assert_eq!(report.stats.analyzed_traces, 0);
        assert_eq!(report.stats.skipped.len(), 2);
        assert!(report.events.is_empty());
        assert!(!report.stats.is_clean());
    }

    #[test]
    fn clean_input_reports_clean_stats() {
        let report = EnergyDx::default().diagnose(&fig6_input());
        assert!(report.stats.is_clean());
        assert_eq!(report.stats.total_traces, 4);
        assert_eq!(report.stats.analyzed_traces, 4);
        assert_eq!(report.stats.degenerate_groups, 0);
    }

    #[test]
    fn parallel_diagnose_matches_the_reference() {
        let input = fig6_input();
        let reference = EnergyDx::default().diagnose_reference(&input);
        for jobs in [1, 2, 3, 8] {
            let report = EnergyDx::default().with_jobs(jobs).diagnose(&input);
            assert_eq!(report, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn the_job_count_is_resolved_once() {
        assert!(EnergyDx::default().jobs() >= 1);
        assert_eq!(EnergyDx::default().with_jobs(3).jobs(), 3);
    }

    #[test]
    fn metrics_record_stage_durations_without_changing_the_report() {
        use energydx_obsv::{MetricsRegistry, STAGE_FAMILY};
        use std::sync::Arc;

        let input = DiagnosisInput::new(vec![(0..20)
            .map(|i| {
                instance("E", i * 100, if i == 10 { 400.0 } else { 100.0 })
            })
            .collect()]);
        let plain = EnergyDx::default().diagnose(&input);

        let reg = Arc::new(MetricsRegistry::deterministic());
        let dx = EnergyDx::default()
            .with_metrics(Metrics::enabled(Arc::clone(&reg)));
        assert_eq!(dx.diagnose(&input), plain, "metrics changed the report");
        assert_eq!(
            dx.diagnose_reference(&input),
            plain,
            "metrics changed the reference report"
        );
        assert_eq!(dx.diagnose_sharded(&input, 2), plain);

        // diagnose + reference + sharded(2) touched every stage.
        for stage in [
            "map",
            "merge",
            "analyze",
            "render",
            "finish",
            "rank",
            "normalize",
            "detect",
            "report",
        ] {
            let snap = reg
                .histogram_snapshot(STAGE_FAMILY, &[("stage", stage)])
                .unwrap_or_else(|| panic!("stage {stage} not recorded"));
            assert!(snap.count() > 0, "stage {stage} has no observations");
            assert_eq!(snap.sum(), 0.0, "deterministic time must zero {stage}");
        }
    }

    #[test]
    fn window_bounds_are_clamped_at_trace_edges() {
        // ABD at the very last instances: window must not index past
        // the end.
        let mut trace: Vec<PoweredInstance> =
            (0..20).map(|i| instance("E", i * 500, 100.0)).collect();
        let n = trace.len();
        trace[n - 1].power_mw = 900.0;
        let input = DiagnosisInput::new(vec![trace]);
        let report = EnergyDx::default().diagnose(&input);
        // Must not panic; the event is reported.
        assert!(report.events.iter().any(|e| e.event == "E"));
    }
}
