//! Operator-report benchmark: render latency, peak heap and artifact
//! weight.
//!
//! Ingests a deterministic versioned corpus once and measures what an
//! operator's crontab actually pays: the **cold** render (every
//! epoch's and every release's analysis folds fresh and is
//! summarized, then both artifacts render) and the **warm** repeat
//! (all analyses are cache hits — the figure is summarizing and
//! rendering). A counting allocator records the cold render's peak
//! live-heap growth on one thread, so a report path that starts
//! materializing per-instance data again fails CI whatever the
//! machine's speed. Both artifacts' byte sizes are recorded and
//! budgeted, so an accidentally-bloated page (a quadratic sparkline,
//! an unescaped blob dumped twice) fails CI even on a fast machine.
//! The byte-identity story is asserted, not timed: the render is
//! repeated (identical bytes) and replayed through the batch
//! surface's [`BatchAssembler`] (identical bytes again).
//!
//! Gates (`BENCH_report.json`): the warm render at least
//! `budget_min_warm_speedup` times faster than cold; the cold render's
//! peak heap growth under `budget_cold_peak_bytes`; each artifact under
//! its `budget_max_*_kib`; and the corpus-determined fields (uploads,
//! accepted, html and json bytes) exactly. The timing gate compares
//! summarizing cached analyses and rendering against full refolds of
//! the whole fleet, so the margin absorbs scheduler noise, not
//! regressions; the peak and size gates are byte counts.

use energydx_bench::harness::{self, timed, Report};
use energydx_fleetd::convert::bundle_to_trace;
use energydx_fleetd::fixture;
use energydx_fleetd::report::{fleet_report, RenderedReport};
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_obsv::MetricsRegistry;
use energydx_report::{
    build_model, render_html, render_json, BatchAssembler, DeploymentPanel,
    DEFAULT_TOP_APPS,
};
use energydx_trace::repair::RepairPolicy;
use energydx_trace::store::{prepare_wire, PreparedUpload, RejectReason};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

#[path = "../counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// The two releases the corpus alternates, so the rendered page
/// carries regression verdicts like a real release week would.
const RELEASES: [&str; 2] = ["1.9.0", "2.0.0"];

/// The damaged-corpus recipe shared with the ingest/query benchmarks,
/// version-stamped: every 23rd payload cut below the wire header,
/// every 9th reduced to a duplicate session (quarantined as such), so
/// the ops panel's taxonomy has something to say.
fn corpus(users: usize, sessions: u64) -> Vec<Vec<u8>> {
    let mut payloads = Vec::with_capacity(users * sessions as usize);
    for user in 0..users {
        for session in 0..sessions {
            let version = RELEASES[user % RELEASES.len()];
            let i = payloads.len();
            let mut payload = fixture::payload_versioned(
                &format!("u{user:04}"),
                if i % 9 == 4 { 0 } else { session },
                version,
            );
            if i % 23 == 7 {
                payload.truncate(6);
            }
            payloads.push(payload);
        }
    }
    payloads
}

/// Warm repeats per measurement: the minimum over this many runs is
/// the figure, so one preempted run cannot inflate it.
const WARM_REPEATS: usize = 32;

/// The batch surface over the same corpus: the exact assembler
/// `energydx report --bundles` drives, for the byte-identity
/// assertion.
fn batch_render(payloads: &[Vec<u8>]) -> RenderedReport {
    let policy = RepairPolicy::default();
    let mut assembler = BatchAssembler::new(energydx::EnergyDx::default());
    let mut seen: BTreeSet<(String, u64)> = BTreeSet::new();
    for payload in payloads {
        match prepare_wire(payload, &policy) {
            PreparedUpload::Ready {
                bundle,
                repairs,
                salvage,
            } => {
                if !seen.insert((bundle.user.clone(), bundle.session)) {
                    assembler.reject(&RejectReason::Duplicate.to_string());
                    continue;
                }
                let recovered = !repairs.is_empty() || salvage.is_some();
                let version = bundle.app_version.clone();
                assembler.accept(&version, bundle_to_trace(&bundle), recovered);
            }
            PreparedUpload::Rejected(entry) => {
                assembler.reject(&entry.reason.to_string());
            }
        }
    }
    let input = assembler.finish("bench").expect("batch folds finish");
    let model = build_model(
        &[input],
        DeploymentPanel::pinned(),
        Vec::new(),
        DEFAULT_TOP_APPS,
    );
    RenderedReport {
        html: render_html(&model),
        json: render_json(&model),
    }
}

fn run(smoke: bool) -> Report {
    let (users, sessions) = if smoke { (48, 2) } else { (400, 5) };
    let payloads = corpus(users, sessions);

    // A deterministic registry pins the deployment panel — the same
    // switch a deployed daemon flips with ENERGYDX_DETERMINISTIC_TIME
    // — so the renders below are comparable byte for byte.
    let mut state = FleetState::with_registry(
        FleetConfig {
            jobs: 1,
            ..FleetConfig::default()
        },
        Arc::new(MetricsRegistry::deterministic()),
    );
    for payload in &payloads {
        black_box(state.submit("bench", payload));
    }
    let accepted = state.accepted_total();

    // Cold: every selection folds and is analyzed fresh, then both
    // artifacts render. One thread, so the peak is a pure function of
    // the corpus and the code.
    let (cold, cold_render) = measured(|| fleet_report(&state, 0, None));
    let cold = cold.expect("the bench fleet renders");

    // Warm: analyses are cache hits; the minimum isolates summarizing
    // and rendering. Every repeat must serve the cold bytes exactly.
    let warm_render_secs = (0..WARM_REPEATS)
        .map(|_| {
            let (warm, secs) = timed(|| fleet_report(&state, 0, None));
            let warm = warm.expect("the bench fleet renders");
            assert_eq!(warm.html, cold.html, "a repeat render drifted");
            assert_eq!(warm.json, cold.json, "a repeat render drifted");
            secs
        })
        .fold(f64::INFINITY, f64::min);

    // The batch surface must serve the same bytes for the same corpus.
    let batch = batch_render(&payloads);
    assert_eq!(
        batch.html, cold.html,
        "the batch surface's HTML diverged from the daemon's"
    );
    assert_eq!(
        batch.json, cold.json,
        "the batch surface's report.json diverged from the daemon's"
    );

    let (html_bytes, json_bytes) = (cold.html.len(), cold.json.len());
    Report::default()
        .exact("uploads", payloads.len())
        .exact("accepted", accepted)
        .field("cold_render_secs", format!("{:.6}", cold_render.secs))
        .field("warm_render_secs", format!("{warm_render_secs:.6}"))
        .field("cold_peak_bytes", cold_render.peak)
        .exact("html_bytes", html_bytes)
        .exact("json_bytes", json_bytes)
        // Cold refolds the whole fleet per release and per epoch; warm
        // summarizes cached analyses. The real gap is far wider than
        // 2x.
        .field("budget_min_warm_speedup", 2)
        .at_least(
            "budget_min_warm_speedup",
            cold_render.secs / warm_render_secs,
        )
        // 1.5x this run's peak: room for allocator-visible drift in
        // code the report does not own, not for a return to rendering
        // every selection's per-instance report.
        .field("budget_cold_peak_bytes", cold_render.peak * 3 / 2)
        .at_most("budget_cold_peak_bytes", cold_render.peak as f64)
        // The smoke corpus renders a few KiB per artifact; these caps
        // catch a page that starts embedding per-trace data.
        .field("budget_max_html_kib", 64)
        .at_most("budget_max_html_kib", html_bytes as f64 / 1024.0)
        .field("budget_max_json_kib", 64)
        .at_most("budget_max_json_kib", json_bytes as f64 / 1024.0)
}

fn main() {
    harness::main("report", false, |smoke, _| run(smoke));
}
