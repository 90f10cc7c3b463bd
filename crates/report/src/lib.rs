//! Deterministic operator report: one fleet, two byte-stable artifacts.
//!
//! This crate turns analyzed fleet state — per-epoch
//! [`FleetSummary`]s, per-version summaries for regression verdicts,
//! and ingest/ops accounting — into a [`ReportModel`], then renders
//! that model two ways:
//!
//! - [`render_html`]: a self-contained static HTML page (inline CSS,
//!   inline SVG sparklines, **no JavaScript**) with every untrusted
//!   string (app names, event names, version labels, quarantine
//!   reasons) HTML-escaped;
//! - [`render_json`]: a machine-readable `report.json` written through
//!   the canonical core [`JsonWriter`](energydx::JsonWriter).
//!
//! Both renderers are pure functions of the model: same model, same
//! bytes, on every platform. The model builder is in turn a pure
//! function of its [`AppInput`]s, so any two surfaces (batch CLI,
//! single daemon, cluster coordinator) that assemble the same inputs
//! produce byte-identical artifacts — the property the repo's diff
//! harness and goldens pin.
//!
//! The one deliberately surface-*dependent* corner is the deployment
//! panel (shed / spill / cache counters): those describe a serving
//! process, not the fleet's data, so they are **pinned to zero** (with
//! `"live": false`) unless the serving surface opts in with live
//! values. Under `ENERGYDX_DETERMINISTIC_TIME` every surface pins, and
//! byte identity holds end to end; a real wall-clock daemon shows its
//! true counters and is honest about it in the artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use energydx::shard::ShardPartial;
use energydx::{EnergyDx, EventSummary, FleetSummary, ShardError};
use energydx_regress::{compare_summaries, RegressConfig};
use energydx_stats::sketch::QuantileSketch;
use energydx_trace::join::PoweredInstance;

mod html;
mod json;

pub use html::{check_well_formed, escape_html, render_html};
pub use json::render_json;

/// Default number of ranked app sections a report keeps.
pub const DEFAULT_TOP_APPS: usize = 16;

/// Schema tag stamped into `report.json`.
pub const REPORT_SCHEMA: &str = "energydx-report-v1";

/// One epoch's worth of input for an app: the epoch's diagnosis
/// summary plus its ingest accounting (clean/recovered acceptance
/// counts and the quarantine reason taxonomy).
#[derive(Debug, Clone)]
pub struct EpochInput {
    /// Epoch id.
    pub epoch: u64,
    /// The epoch's diagnosis, summarized.
    pub summary: FleetSummary,
    /// Uploads accepted without repair.
    pub clean: u64,
    /// Uploads accepted after salvage/repair.
    pub recovered: u64,
    /// Quarantine counts by reason label, sorted by reason.
    pub quarantine: Vec<(String, u64)>,
}

/// One app version's diagnosis over the detail epoch, for regression
/// verdicts between adjacent releases.
#[derive(Debug, Clone)]
pub struct VersionInput {
    /// Version label as reported by uploads.
    pub version: String,
    /// Diagnosis restricted to this version's traces, summarized.
    pub summary: FleetSummary,
}

/// Everything the builder needs about one app.
#[derive(Debug, Clone)]
pub struct AppInput {
    /// App name (untrusted; escaped by the HTML renderer).
    pub app: String,
    /// The epoch whose diagnosis feeds the app's detail section
    /// (events, version verdicts). Trends span all epochs.
    pub detail_epoch: u64,
    /// Per-epoch inputs; the builder sorts them by epoch id.
    pub epochs: Vec<EpochInput>,
    /// Per-version inputs over the detail epoch; the builder sorts
    /// them by version label and compares adjacent pairs.
    pub versions: Vec<VersionInput>,
}

/// One query-cache layer's hit/miss counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLine {
    /// Layer label (`state`).
    pub layer: String,
    /// Memoized answers served.
    pub hits: u64,
    /// Answers recomputed.
    pub misses: u64,
}

/// Deployment-side counters: facts about a serving process (load
/// shedding, spill residency, cache efficiency), not about the fleet's
/// data. See the crate docs for why these pin to zero in deterministic
/// mode.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPanel {
    /// Whether the counters are live process values (`true`) or pinned
    /// zeros for byte-deterministic artifacts (`false`).
    pub live: bool,
    /// Submissions shed with `RetryAfter`.
    pub shed: u64,
    /// Spilled segment runs currently on disk.
    pub spilled_runs: u64,
    /// Traces resident in spilled runs.
    pub spilled_traces: u64,
    /// Per-layer query-cache counters, in layer order.
    pub cache: Vec<CacheLine>,
}

impl DeploymentPanel {
    /// The pinned panel: all counters zero, with the one cache layer a
    /// live panel carries (`state`), so the artifact's shape never
    /// depends on the serving surface.
    pub fn pinned() -> Self {
        DeploymentPanel {
            live: false,
            shed: 0,
            spilled_runs: 0,
            spilled_traces: 0,
            cache: vec![CacheLine {
                layer: "state".to_string(),
                hits: 0,
                misses: 0,
            }],
        }
    }
}

/// Fleet-wide operational summary rendered as the report's ops panel.
#[derive(Debug, Clone)]
pub struct OpsPanel {
    /// Distinct apps with state.
    pub apps: usize,
    /// Epochs across all apps.
    pub epochs: usize,
    /// Total accepted uploads (clean + recovered).
    pub accepted: u64,
    /// Accepted without repair.
    pub clean: u64,
    /// Accepted after repair.
    pub recovered: u64,
    /// Total quarantined uploads.
    pub quarantined: u64,
    /// Quarantine counts by reason, sorted by reason label.
    pub quarantine_reasons: Vec<(String, u64)>,
    /// Serving-process counters (see [`DeploymentPanel`]).
    pub deployment: DeploymentPanel,
}

/// One ranked event row in an app's detail section.
#[derive(Debug, Clone)]
pub struct EventRow {
    /// Event name (untrusted; escaped by the HTML renderer).
    pub event: String,
    /// Fraction of analyzed traces whose manifestation window starts
    /// at this event.
    pub impacted_fraction: f64,
    /// Median distance (in instances) from the event to its
    /// manifestation point.
    pub proximity: usize,
    /// Manifestation points attributed to this event across the
    /// detail epoch.
    pub detections: usize,
    /// Largest amplitude among those manifestation points (0 if none).
    pub peak_amplitude: f64,
    /// Median normalized power over the event's instances, mW.
    pub p50_mw: f64,
    /// 90th-percentile normalized power over the event's instances.
    pub p90_mw: f64,
}

/// One epoch sample in an app's trend sparkline.
#[derive(Debug, Clone)]
pub struct EpochPoint {
    /// Epoch id.
    pub epoch: u64,
    /// Traces analyzed in the epoch.
    pub traces: usize,
    /// Fraction of analyzed traces with a manifestation point.
    pub impacted_fraction: f64,
    /// 90th-percentile normalized power across the epoch's instances.
    pub p90_mw: f64,
}

/// One adjacent-release comparison verdict.
#[derive(Debug, Clone)]
pub struct VersionVerdict {
    /// Older release label.
    pub from: String,
    /// Newer release label.
    pub to: String,
    /// Overall verdict (`regressed`, `improved`, `unchanged`,
    /// `insufficient-data`).
    pub verdict: String,
    /// Events that regressed under the default thresholds.
    pub regressed_events: usize,
    /// The worst regressed event, if any.
    pub top_event: Option<String>,
}

/// One app's rendered section.
#[derive(Debug, Clone)]
pub struct AppSection {
    /// App name.
    pub app: String,
    /// Epoch the detail section describes.
    pub epoch: u64,
    /// Traces submitted to the detail epoch.
    pub total_traces: usize,
    /// Traces that survived analysis filters.
    pub analyzed_traces: usize,
    /// Analyzed traces with at least one manifestation point.
    pub impacted_traces: usize,
    /// `impacted / analyzed` (0 when nothing analyzed) — the app
    /// ranking key.
    pub impacted_fraction: f64,
    /// Manifestation points across the detail epoch.
    pub manifestation_points: usize,
    /// Ranked anomalous events (top-k from the diagnosis).
    pub events: Vec<EventRow>,
    /// Epoch history feeding the sparkline, ascending by epoch.
    pub trend: Vec<EpochPoint>,
    /// Adjacent-release verdicts over the detail epoch.
    pub regressions: Vec<VersionVerdict>,
}

/// The fully assembled report, ready for either renderer.
#[derive(Debug, Clone)]
pub struct ReportModel {
    /// Worker ids that could not be reached (cluster reports only);
    /// sorted and deduplicated. Non-empty triggers the Degraded banner.
    pub missing_shards: Vec<u32>,
    /// Apps in the fleet before top-N truncation.
    pub apps_total: usize,
    /// The configured section budget.
    pub top_n: usize,
    /// Ranked app sections (impacted-fraction descending, name
    /// ascending), truncated to `top_n`.
    pub apps: Vec<AppSection>,
    /// Fleet-wide ops summary.
    pub ops: OpsPanel,
}

/// Percentile of a sketch, or 0 when it holds no samples.
fn percentile_or_zero(sketch: &QuantileSketch, p: f64) -> f64 {
    sketch.percentile(p).unwrap_or(0.0)
}

/// `impacted / analyzed` traces, 0 when nothing was analyzed.
fn impacted_fraction(summary: &FleetSummary) -> f64 {
    if summary.analyzed_traces == 0 {
        0.0
    } else {
        summary.impacted_traces as f64 / summary.analyzed_traces as f64
    }
}

/// Builds an [`AppSection`] from one app's inputs, or `None` when the
/// app carries no epochs at all.
fn build_app(input: &AppInput) -> Option<AppSection> {
    let mut epochs: Vec<&EpochInput> = input.epochs.iter().collect();
    epochs.sort_by_key(|e| e.epoch);
    let detail = *epochs
        .iter()
        .find(|e| e.epoch == input.detail_epoch)
        .or_else(|| epochs.last())?;
    let summary = &detail.summary;

    // A ranked event always has instances; the default only guards a
    // hand-built summary.
    let absent = EventSummary::default();
    let events = summary
        .reported_events()
        .iter()
        .map(|ranked| {
            let e = summary.by_event.get(&ranked.event).unwrap_or(&absent);
            EventRow {
                event: ranked.event.clone(),
                impacted_fraction: ranked.impacted_fraction,
                proximity: ranked.proximity,
                detections: e.detections,
                peak_amplitude: e.peak_amplitude,
                p50_mw: percentile_or_zero(&e.power, 50.0),
                p90_mw: percentile_or_zero(&e.power, 90.0),
            }
        })
        .collect();

    let trend = epochs
        .iter()
        .map(|e| EpochPoint {
            epoch: e.epoch,
            traces: e.summary.analyzed_traces,
            impacted_fraction: impacted_fraction(&e.summary),
            p90_mw: percentile_or_zero(&e.summary.power, 90.0),
        })
        .collect();

    let mut versions: Vec<&VersionInput> = input.versions.iter().collect();
    versions.sort_by(|a, b| a.version.cmp(&b.version));
    let regressions = versions
        .windows(2)
        .map(|pair| {
            let (from, to) = (pair[0], pair[1]);
            let report = compare_summaries(
                &from.version,
                &from.summary,
                &to.version,
                &to.summary,
                &RegressConfig::default(),
            );
            let top_event =
                report.regressions().next().map(|d| d.event.clone());
            VersionVerdict {
                from: from.version.clone(),
                to: to.version.clone(),
                verdict: report.verdict.as_str().to_string(),
                regressed_events: report.regressions().count(),
                top_event,
            }
        })
        .collect();

    Some(AppSection {
        app: input.app.clone(),
        epoch: detail.epoch,
        total_traces: summary.total_traces,
        analyzed_traces: summary.analyzed_traces,
        impacted_traces: summary.impacted_traces,
        impacted_fraction: impacted_fraction(summary),
        manifestation_points: summary.manifestation_points,
        events,
        trend,
        regressions,
    })
}

/// Assembles the deterministic [`ReportModel`]: ranks apps by
/// impacted-user fraction (name ascending on ties), truncates to
/// `top_n`, aggregates the ops panel from every epoch's accounting,
/// and sorts/dedups `missing_shards`.
pub fn build_model(
    inputs: &[AppInput],
    deployment: DeploymentPanel,
    mut missing_shards: Vec<u32>,
    top_n: usize,
) -> ReportModel {
    missing_shards.sort_unstable();
    missing_shards.dedup();

    let mut clean = 0u64;
    let mut recovered = 0u64;
    let mut epochs = 0usize;
    let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
    for input in inputs {
        epochs += input.epochs.len();
        for e in &input.epochs {
            clean += e.clean;
            recovered += e.recovered;
            for (reason, n) in &e.quarantine {
                *reasons.entry(reason.clone()).or_insert(0) += n;
            }
        }
    }
    let quarantined: u64 = reasons.values().sum();

    let mut apps: Vec<AppSection> =
        inputs.iter().filter_map(build_app).collect();
    apps.sort_by(|a, b| {
        b.impacted_fraction
            .total_cmp(&a.impacted_fraction)
            .then_with(|| a.app.cmp(&b.app))
    });
    let apps_total = apps.len();
    apps.truncate(top_n);

    ReportModel {
        missing_shards,
        apps_total,
        top_n,
        apps,
        ops: OpsPanel {
            apps: apps_total,
            epochs,
            accepted: clean + recovered,
            clean,
            recovered,
            quarantined,
            quarantine_reasons: reasons.into_iter().collect(),
            deployment,
        },
    }
}

/// Streams accepted batch traces into the same per-epoch / per-version
/// folds a daemon keeps, so `energydx report --bundles` renders the
/// exact bytes a daemon would for the same accepted uploads.
///
/// Traces are merged at dense local offsets in acceptance order; each
/// named version additionally gets its own fold at dense
/// version-local offsets, mirroring the daemon's per-release fold,
/// which rebases each of the release's runs onto the fold's end.
#[derive(Debug)]
pub struct BatchAssembler {
    dx: EnergyDx,
    fold: ShardPartial,
    versions: BTreeMap<String, ShardPartial>,
    clean: u64,
    recovered: u64,
    quarantine: BTreeMap<String, u64>,
}

impl BatchAssembler {
    /// An empty assembler analyzing with `dx`.
    pub fn new(dx: EnergyDx) -> Self {
        BatchAssembler {
            dx,
            fold: ShardPartial::empty(),
            versions: BTreeMap::new(),
            clean: 0,
            recovered: 0,
            quarantine: BTreeMap::new(),
        }
    }

    /// Traces accepted so far.
    pub fn accepted(&self) -> usize {
        self.fold.trace_count()
    }

    /// Folds one accepted trace. `recovered` marks uploads that needed
    /// repair; `version` may be empty for unversioned uploads (they
    /// join the main fold but no version fold).
    pub fn accept(
        &mut self,
        version: &str,
        trace: Vec<PoweredInstance>,
        recovered: bool,
    ) {
        let delta = self.dx.map_shard(&[trace], self.fold.end_offset());
        if recovered {
            self.recovered += 1;
        } else {
            self.clean += 1;
        }
        if !version.is_empty() {
            let fold = self.versions.entry(version.to_string()).or_default();
            let end = fold.end_offset();
            *fold = std::mem::take(fold).merge(delta.clone().rebase_to(end));
        }
        self.fold = std::mem::take(&mut self.fold).merge(delta);
    }

    /// Counts one quarantined upload under `reason`.
    pub fn reject(&mut self, reason: &str) {
        *self.quarantine.entry(reason.to_string()).or_insert(0) += 1;
    }

    /// Analyzes and summarizes every fold into an [`AppInput`] for
    /// `app` (single epoch 0, like a daemon that never rolled over).
    pub fn finish(self, app: &str) -> Result<AppInput, ShardError> {
        let BatchAssembler {
            dx,
            fold,
            versions,
            clean,
            recovered,
            quarantine,
            ..
        } = self;
        let summarize =
            |fold| dx.analyze(fold).map(|fleet| dx.summarize(&fleet));
        let summary = summarize(fold)?;
        let mut version_inputs = Vec::new();
        for (version, fold) in versions {
            version_inputs.push(VersionInput {
                version,
                summary: summarize(fold)?,
            });
        }
        Ok(AppInput {
            app: app.to_string(),
            detail_epoch: 0,
            epochs: vec![EpochInput {
                epoch: 0,
                summary,
                clean,
                recovered,
                quarantine: quarantine.into_iter().collect(),
            }],
            versions: version_inputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energydx::report::{
        AnalysisStats, ManifestationPoint, RankedEvent, TraceAnalysis,
    };
    use energydx::DiagnosisReport;

    /// A minimal hand-built diagnosis with one impacted trace.
    pub(crate) fn tiny_report(event: &str) -> DiagnosisReport {
        DiagnosisReport {
            traces: vec![TraceAnalysis {
                raw_power_mw: vec![100.0, 400.0, 120.0],
                events: vec![
                    "Idle".to_string(),
                    event.to_string(),
                    "Idle".to_string(),
                ],
                normalized_power: vec![100.0, 400.0, 120.0],
                amplitudes: vec![0.0, 300.0, 20.0],
                upper_fence: Some(250.0),
                manifestation_points: vec![ManifestationPoint {
                    instance_index: 1,
                    event: event.to_string(),
                    amplitude: 300.0,
                }],
            }],
            events: vec![RankedEvent {
                event: event.to_string(),
                impacted_fraction: 1.0,
                proximity: 0,
            }],
            rankings: BTreeMap::new(),
            top_k: 5,
            stats: AnalysisStats {
                total_traces: 1,
                analyzed_traces: 1,
                skipped: Vec::new(),
                degenerate_groups: 0,
            },
        }
    }

    pub(crate) fn tiny_input(app: &str, event: &str) -> AppInput {
        let summary = || FleetSummary::of_report(&tiny_report(event));
        AppInput {
            app: app.to_string(),
            detail_epoch: 0,
            epochs: vec![EpochInput {
                epoch: 0,
                summary: summary(),
                clean: 1,
                recovered: 0,
                quarantine: vec![("duplicate".to_string(), 2)],
            }],
            versions: vec![
                VersionInput {
                    version: "1.0.0".to_string(),
                    summary: summary(),
                },
                VersionInput {
                    version: "1.1.0".to_string(),
                    summary: summary(),
                },
            ],
        }
    }

    #[test]
    fn builder_ranks_by_impacted_fraction_then_name() {
        let mut quiet = tiny_input("zzz", "Wifi");
        quiet.epochs[0].summary.impacted_traces = 0;
        let inputs = vec![
            tiny_input("beta", "Gps"),
            quiet.clone(),
            tiny_input("alpha", "Gps"),
        ];
        let model = build_model(&inputs, DeploymentPanel::pinned(), vec![], 10);
        let names: Vec<&str> =
            model.apps.iter().map(|a| a.app.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "zzz"]);
        assert_eq!(model.apps_total, 3);
    }

    #[test]
    fn builder_truncates_to_top_n_but_counts_all() {
        let inputs: Vec<AppInput> = (0..5)
            .map(|i| tiny_input(&format!("app{i}"), "Gps"))
            .collect();
        let model = build_model(&inputs, DeploymentPanel::pinned(), vec![], 2);
        assert_eq!(model.apps.len(), 2);
        assert_eq!(model.apps_total, 5);
        assert_eq!(model.ops.apps, 5);
    }

    #[test]
    fn ops_panel_sums_accounting_across_epochs() {
        let inputs = vec![tiny_input("a", "Gps"), tiny_input("b", "Wifi")];
        let model = build_model(&inputs, DeploymentPanel::pinned(), vec![], 10);
        assert_eq!(model.ops.clean, 2);
        assert_eq!(model.ops.accepted, 2);
        assert_eq!(model.ops.quarantined, 4);
        assert_eq!(
            model.ops.quarantine_reasons,
            vec![("duplicate".to_string(), 4)]
        );
    }

    #[test]
    fn missing_shards_are_sorted_and_deduped() {
        let model =
            build_model(&[], DeploymentPanel::pinned(), vec![2, 0, 2, 1], 10);
        assert_eq!(model.missing_shards, vec![0, 1, 2]);
    }

    #[test]
    fn adjacent_versions_get_verdicts() {
        let model = build_model(
            &[tiny_input("a", "Gps")],
            DeploymentPanel::pinned(),
            vec![],
            10,
        );
        let regs = &model.apps[0].regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].from, "1.0.0");
        assert_eq!(regs[0].to, "1.1.0");
    }

    #[test]
    fn batch_assembler_matches_whole_shard_analysis() {
        use energydx::DiagnosisInput;
        // Synthesize a few deterministic traces via the trace joiner
        // is overkill here; hand-build powered instances instead.
        fn inst(event: &str, i: u64, mw: f64) -> PoweredInstance {
            PoweredInstance {
                instance: energydx_trace::EventInstance::new(
                    event,
                    i * 10,
                    i * 10 + 5,
                ),
                power_mw: mw,
            }
        }
        let traces: Vec<Vec<PoweredInstance>> = (0..6)
            .map(|t| {
                (0..8)
                    .map(|i| {
                        let name = if i == 3 { "Gps" } else { "Idle" };
                        inst(
                            name,
                            i,
                            100.0
                                + (t as f64) * 3.0
                                + if i == 3 { 900.0 } else { 0.0 },
                        )
                    })
                    .collect()
            })
            .collect();
        let dx = EnergyDx::default();
        let whole = FleetSummary::of_report(
            &dx.diagnose(&DiagnosisInput::new(traces.clone())),
        );
        let mut asm = BatchAssembler::new(EnergyDx::default());
        for trace in traces {
            asm.accept("1.0.0", trace, false);
        }
        let input = asm.finish("app").unwrap();
        assert_eq!(input.epochs[0].summary, whole);
        // Every trace carried version 1.0.0, so the version fold must
        // reproduce the same analysis too.
        assert_eq!(input.versions.len(), 1);
        assert_eq!(input.versions[0].summary, whole);
    }
}
