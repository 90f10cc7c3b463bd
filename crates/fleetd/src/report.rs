//! [`FleetState`] → deterministic operator report.
//!
//! Assembles `energydx-report` inputs from resident daemon state: one
//! [`AppInput`] per app (every epoch's diagnosis summary for the
//! trend, every current-epoch version's summary for regression
//! verdicts, the quarantine taxonomy from epoch accounting), and
//! renders both artifacts through the shared renderer.
//!
//! Byte identity: every summary here goes through the memoized
//! [`FleetState::summary`], which reads the same analysis the query
//! protocol's [`FleetState::diagnose_json`] renders (proven
//! batch-identical by the diff harness), and the coordinator fans out
//! the same [`report_selections`] of its workers' merged catalogs and
//! assembles with the same [`report_inputs`] — so the report inherits
//! the repo's cross-surface byte-identity story for free. The only
//! surface-dependent values, the deployment counters, follow the
//! pinning rule documented in `energydx-report`: they render as live
//! numbers only when the state's registry runs on the wall clock; under
//! `ENERGYDX_DETERMINISTIC_TIME` (or a deterministic test registry)
//! they pin to zero so batch, daemon, and cluster artifacts match.

use energydx::FleetSummary;
use energydx_obsv::Metrics;
use energydx_report::{
    build_model, render_html, render_json, AppInput, CacheLine,
    DeploymentPanel, EpochInput, VersionInput, DEFAULT_TOP_APPS,
};

use crate::protocol::{AppCatalog, DeploymentCounters, EpochCatalog};
use crate::state::{FleetState, QueryError, Selector};

/// Both rendered artifacts for one fleet snapshot.
#[derive(Debug, Clone)]
pub struct RenderedReport {
    /// The self-contained static HTML page.
    pub html: String,
    /// The canonical `report.json` document.
    pub json: String,
}

/// Assembles one [`AppInput`] per app from resident state, in app
/// order: each of [`report_selections`] over the state's own catalog
/// answered by the memoized [`FleetState::summary`], then
/// [`report_inputs`].
///
/// # Errors
///
/// Propagates the first [`QueryError`] from a summary.
pub fn state_inputs(state: &FleetState) -> Result<Vec<AppInput>, QueryError> {
    let catalog = state_catalog(state);
    let summaries = report_selections(&catalog)
        .iter()
        .map(|sel| state.summary(sel))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(report_inputs(&catalog, summaries))
}

/// Every selection a report summarizes, in the one order the daemon and
/// the coordinator both follow: per catalog entry, each epoch (trend
/// history), then each release of the current epoch on its own
/// (regression verdicts).
pub fn report_selections(catalog: &[AppCatalog]) -> Vec<Selector> {
    let mut selections = Vec::new();
    for cat in catalog {
        for e in &cat.epochs {
            selections.push(Selector::new(&cat.app, Some(e.epoch), None));
        }
        for version in current_versions(cat) {
            selections.push(Selector::new(
                &cat.app,
                Some(cat.current_epoch),
                Some(version),
            ));
        }
    }
    selections
}

/// The release labels of `cat`'s current epoch.
fn current_versions(cat: &AppCatalog) -> impl Iterator<Item = &String> {
    let current = cat.epochs.iter().find(|e| e.epoch == cat.current_epoch);
    current.into_iter().flat_map(|e| &e.versions)
}

/// Assembles one [`AppInput`] per catalog entry, in catalog order —
/// the one input builder of the daemon's and the coordinator's
/// reports. `summaries` answer [`report_selections`]`(catalog)`, in
/// its order.
///
/// # Panics
///
/// If `summaries` holds fewer entries than the catalog's selections.
pub fn report_inputs(
    catalog: &[AppCatalog],
    summaries: Vec<FleetSummary>,
) -> Vec<AppInput> {
    let mut summaries = summaries.into_iter();
    let mut next = || summaries.next().expect("one summary per selection");
    catalog
        .iter()
        .map(|cat| AppInput {
            app: cat.app.clone(),
            detail_epoch: cat.current_epoch,
            epochs: cat
                .epochs
                .iter()
                .map(|e| EpochInput {
                    epoch: e.epoch,
                    summary: next(),
                    clean: e.clean,
                    recovered: e.recovered,
                    quarantine: e.quarantine.clone(),
                })
                .collect(),
            versions: current_versions(cat)
                .map(|version| VersionInput {
                    version: version.clone(),
                    summary: next(),
                })
                .collect(),
        })
        .collect()
}

/// The state's report catalog for coordinator fan-out: per-app /
/// per-epoch accounting and version labels, no partials.
pub fn state_catalog(state: &FleetState) -> Vec<AppCatalog> {
    state
        .apps()
        .iter()
        .map(|(app, astate)| AppCatalog {
            app: app.clone(),
            current_epoch: astate.current_epoch(),
            epochs: astate
                .epochs()
                .iter()
                .map(|(&id, epoch)| EpochCatalog {
                    epoch: id,
                    clean: epoch.clean() as u64,
                    recovered: epoch.recovered() as u64,
                    quarantine: epoch
                        .quarantine_counters()
                        .into_iter()
                        .map(|(reason, n)| (reason.to_string(), n as u64))
                        .collect(),
                    versions: epoch
                        .versions()
                        .keys()
                        .filter(|v| !v.is_empty())
                        .cloned()
                        .collect(),
                })
                .collect(),
        })
        .collect()
}

/// Raw deployment counters for this state (always live values; the
/// pinning decision belongs to whoever renders).
pub fn deployment_counters(
    state: &FleetState,
    shed: u64,
) -> DeploymentCounters {
    let mut spilled_runs = 0u64;
    let mut spilled_traces = 0u64;
    for astate in state.apps().values() {
        for epoch in astate.epochs().values() {
            spilled_runs += epoch.spilled_runs() as u64;
            spilled_traces += epoch.spilled_traces() as u64;
        }
    }
    let cache = state.query_cache_stats();
    DeploymentCounters {
        shed,
        spilled_runs,
        spilled_traces,
        cache: vec![("state".to_string(), cache.hits, cache.misses)],
    }
}

/// Whether a registry may contribute live (surface-dependent) values
/// to the deployment panel: only a wall-clock registry qualifies; a
/// deterministic registry pins, keeping the artifacts byte-identical
/// across surfaces.
pub fn deployment_is_live(metrics: &Metrics) -> bool {
    match metrics.registry() {
        Some(reg) => !reg.is_deterministic(),
        None => false,
    }
}

/// Converts raw counters into the renderer's panel under the pinning
/// rule: pinned zeros unless `live`.
pub fn deployment_panel(
    counters: &DeploymentCounters,
    live: bool,
) -> DeploymentPanel {
    if !live {
        return DeploymentPanel::pinned();
    }
    DeploymentPanel {
        live: true,
        shed: counters.shed,
        spilled_runs: counters.spilled_runs,
        spilled_traces: counters.spilled_traces,
        cache: counters
            .cache
            .iter()
            .map(|(layer, hits, misses)| CacheLine {
                layer: layer.clone(),
                hits: *hits,
                misses: *misses,
            })
            .collect(),
    }
}

/// Renders both artifacts over the whole fleet, recording
/// `fleetd_report_renders_total` and a render-duration histogram into
/// the state's registry.
///
/// # Errors
///
/// Propagates the first [`QueryError`] from a summary.
pub fn fleet_report(
    state: &FleetState,
    shed: u64,
    top: Option<u32>,
) -> Result<RenderedReport, QueryError> {
    let metrics = state.metrics().clone();
    let _timer = metrics.timer("fleetd_report_render_duration_seconds", &[]);
    let inputs = state_inputs(state)?;
    let counters = deployment_counters(state, shed);
    let panel = deployment_panel(&counters, deployment_is_live(&metrics));
    let model = build_model(
        &inputs,
        panel,
        Vec::new(),
        top.map_or(DEFAULT_TOP_APPS, |t| t as usize),
    );
    let rendered = RenderedReport {
        html: render_html(&model),
        json: render_json(&model),
    };
    metrics.inc("fleetd_report_renders_total", &[]);
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::state::FleetConfig;
    use energydx_obsv::MetricsRegistry;
    use std::sync::Arc;

    fn seeded_state() -> FleetState {
        let mut state = FleetState::with_registry(
            FleetConfig::default(),
            Arc::new(MetricsRegistry::deterministic()),
        );
        for i in 0..12u64 {
            let version = if i % 2 == 0 { "1.9.0" } else { "2.0.0" };
            let payload = fixture::payload_versioned(
                &format!("u{:02}", i / 3),
                i % 3,
                version,
            );
            state.submit("maps", &payload);
        }
        state
    }

    #[test]
    fn fleet_report_is_deterministic_and_counts_renders() {
        let state = seeded_state();
        let a = fleet_report(&state, 0, None).unwrap();
        let b = fleet_report(&state, 0, None).unwrap();
        assert_eq!(a.html, b.html);
        assert_eq!(a.json, b.json);
        assert!(a.html.contains("maps"));
        assert!(a.json.contains("\"1.9.0\""));
        let reg = state.metrics().registry().unwrap();
        assert_eq!(
            reg.counter_value("fleetd_report_renders_total", &[]),
            Some(2)
        );
    }

    #[test]
    fn deterministic_registry_pins_the_deployment_panel() {
        let state = seeded_state();
        assert!(!deployment_is_live(state.metrics()));
        let report = fleet_report(&state, 99, None).unwrap();
        assert!(report.json.contains("\"live\": false"));
        assert!(report.json.contains("\"shed\": 0"));
    }

    #[test]
    fn catalog_mirrors_state_accounting() {
        let state = seeded_state();
        let catalog = state_catalog(&state);
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].app, "maps");
        let epoch = &catalog[0].epochs[0];
        assert_eq!(epoch.clean + epoch.recovered, 12);
        assert_eq!(
            epoch.versions,
            vec!["1.9.0".to_string(), "2.0.0".to_string()]
        );
    }

    #[test]
    fn rendered_html_passes_the_well_formedness_checker() {
        let state = seeded_state();
        let report = fleet_report(&state, 0, Some(4)).unwrap();
        energydx_report::check_well_formed(&report.html).unwrap();
    }
}
