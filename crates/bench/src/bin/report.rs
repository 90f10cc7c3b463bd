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
//! ```text
//! report [--smoke] [--write <path>] [--check <path>]
//! ```
//!
//! `--write` stores the report as JSON (see `BENCH_report.json` at the
//! repo root); `--check` re-runs the smoke measurement and fails
//! (exit 1) when the warm render is less than the stored
//! `budget_min_warm_speedup` times faster than cold, when the cold
//! render's peak heap growth exceeds the stored
//! `budget_cold_peak_bytes`, when either artifact outgrows its stored
//! KiB budget, or when a corpus-determined field (uploads, accepted,
//! html and json bytes) differs from the stored one. The timing gate
//! compares summarizing cached analyses and rendering against full
//! refolds of the whole fleet, so the margin absorbs scheduler noise,
//! not regressions; the peak and size gates are byte counts.

use energydx_bench::harness::{exact_fields_match, stored_u64, timed};
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
use std::path::PathBuf;
use std::sync::Arc;

#[path = "../peak_alloc.rs"]
mod peak_alloc;
use peak_alloc::{peak_region, PeakAlloc};

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

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

struct Report {
    mode: &'static str,
    uploads: usize,
    accepted: usize,
    cold_render_secs: f64,
    warm_render_secs: f64,
    cold_peak_bytes: u64,
    html_bytes: usize,
    json_bytes: usize,
    budget_min_warm_speedup: u64,
    budget_cold_peak_bytes: u64,
    budget_max_html_kib: u64,
    budget_max_json_kib: u64,
}

impl Report {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"uploads\": {},\n  \
             \"accepted\": {},\n  \"cold_render_secs\": {:.6},\n  \
             \"warm_render_secs\": {:.6},\n  \"cold_peak_bytes\": {},\n  \
             \"html_bytes\": {},\n  \"json_bytes\": {},\n  \
             \"budget_min_warm_speedup\": {},\n  \
             \"budget_cold_peak_bytes\": {},\n  \
             \"budget_max_html_kib\": {},\n  \
             \"budget_max_json_kib\": {}\n}}\n",
            self.mode,
            self.uploads,
            self.accepted,
            self.cold_render_secs,
            self.warm_render_secs,
            self.cold_peak_bytes,
            self.html_bytes,
            self.json_bytes,
            self.budget_min_warm_speedup,
            self.budget_cold_peak_bytes,
            self.budget_max_html_kib,
            self.budget_max_json_kib,
        )
    }
}

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
    let (cold, cold_peak_bytes, cold_render_secs) =
        peak_region(|| fleet_report(&state, 0, None));
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

    Report {
        mode: if smoke { "smoke" } else { "full" },
        uploads: payloads.len(),
        accepted,
        cold_render_secs,
        warm_render_secs,
        cold_peak_bytes,
        html_bytes: cold.html.len(),
        json_bytes: cold.json.len(),
        // Cold refolds the whole fleet per release and per epoch; warm
        // summarizes cached analyses. The real gap is far wider than
        // 2x.
        budget_min_warm_speedup: 2,
        // 1.5x this run's peak: room for allocator-visible drift in
        // code the report does not own, not for a return to rendering
        // every selection's per-instance report.
        budget_cold_peak_bytes: cold_peak_bytes * 3 / 2,
        // The smoke corpus renders a few KiB per artifact; these caps
        // catch a page that starts embedding per-trace data.
        budget_max_html_kib: 64,
        budget_max_json_kib: 64,
    }
}

fn main() {
    let mut smoke = false;
    let mut write: Option<String> = None;
    let mut check: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--write" => write = args.next(),
            "--check" => check = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: report [--smoke] [--write <path>] [--check <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    // The regression gate always runs the fast corpus: the budgets
    // are checked in from a smoke run.
    if check.is_some() {
        smoke = true;
    }

    let report = run(smoke);
    print!("{}", report.to_json());

    if let Some(path) = write {
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if let Some(path) = check {
        let stored = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let exact = exact_fields_match(
            &stored,
            &[
                (&["uploads"], report.uploads as u64),
                (&["accepted"], report.accepted as u64),
                (&["html_bytes"], report.html_bytes as u64),
                (&["json_bytes"], report.json_bytes as u64),
            ],
        );
        let budget = |key: &str| {
            stored_u64(&stored, &[key])
                .unwrap_or_else(|| panic!("no {key} in {}", path.display()))
        };
        let min_speedup = budget("budget_min_warm_speedup") as f64;
        let max_cold_peak = budget("budget_cold_peak_bytes");
        let max_html = budget("budget_max_html_kib") as usize * 1024;
        let max_json = budget("budget_max_json_kib") as usize * 1024;
        let speedup = report.cold_render_secs / report.warm_render_secs;
        let mut failed = !exact;
        if speedup < min_speedup {
            eprintln!(
                "warm-render regression: a repeat render is only \
                 {speedup:.1}x faster than cold (budget: >= {min_speedup}x) \
                 — the renderer is refolding the fleet"
            );
            failed = true;
        }
        if report.cold_peak_bytes > max_cold_peak {
            eprintln!(
                "memory regression: the cold render's peak heap grew by {} \
                 bytes (budget: <= {max_cold_peak})",
                report.cold_peak_bytes
            );
            failed = true;
        }
        if report.html_bytes > max_html {
            eprintln!(
                "artifact-weight regression: report.html is {} bytes \
                 (budget: <= {max_html})",
                report.html_bytes
            );
            failed = true;
        }
        if report.json_bytes > max_json {
            eprintln!(
                "artifact-weight regression: report.json is {} bytes \
                 (budget: <= {max_json})",
                report.json_bytes
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "warm render {speedup:.0}x faster than cold; cold peak heap {}B; \
             report.html {}B, report.json {}B",
            report.cold_peak_bytes, report.html_bytes, report.json_bytes,
        );
    }
}
