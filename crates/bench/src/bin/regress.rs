//! Release-gate benchmark: ground-truth detector quality plus the
//! latency of a differential (`from` → `to`) query on a versioned
//! daemon.
//!
//! The quality half runs the [`energydx_workload::release_fleet`]
//! ground truth — one injected treatment per ABD class (loop,
//! no-sleep, configuration) plus bug-free controls — through the
//! differential detector at its default thresholds, and counts
//! recall (treatments whose verdict is `regressed`) and false
//! positives (controls flagged). The flagged events are the bug's
//! *manifestation points* (backgrounding callbacks, `Idle`), not its
//! root-cause trigger: the trigger runs too rarely for the per-event
//! sample floor, which is the paper's motivation for separating the
//! two — finding the root cause from a manifestation point is the
//! within-version diagnosis's job.
//!
//! The latency half ingests a damaged versioned
//! corpus into a daemon and measures the **cold** regression query
//! (two per-version folds + analyses + comparison) against the
//! **warm** repeat, which must be two analyzed-cache hits plus the
//! cheap comparison.
//!
//! Gates (`BENCH_regress.json`): every treatment flagged, no control
//! flagged, the corpus-determined counts (cases, treatments, controls
//! and their flagged counts, uploads, accepted) exactly, and the warm
//! differential query at least `budget_min_warm_speedup` times faster
//! than cold. The detector gates are exact counts over a deterministic
//! fleet; only the speedup gate involves timing, and it compares a
//! microsecond-scale cache hit against a millisecond-scale double
//! fold.

use energydx::{AnalysisConfig, EnergyDx};
use energydx_bench::harness::{self, timed, Report};
use energydx_fleetd::fixture;
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_regress::{compare, RegressConfig, Verdict};
use energydx_trace::fault::{FaultInjector, FaultKind};
use energydx_workload::release_fleet;
use std::hint::black_box;

/// The two releases the latency corpus interleaves.
const FROM: &str = "1.9.0";
const TO: &str = "2.0.0";

/// The damaged-corpus recipe of the other daemon benchmarks — every
/// 9th payload salvageable, every 23rd cut below the wire header —
/// with an app-version stamp alternating between two releases, so the
/// differential query folds a realistically mixed accepted set per
/// side.
fn corpus(users: usize, sessions: u64) -> Vec<Vec<u8>> {
    let mut injector = FaultInjector::new(0x1276, 1.0);
    let mut payloads = Vec::with_capacity(users * sessions as usize);
    for user in 0..users {
        for session in 0..sessions {
            let i = payloads.len();
            let version = if i % 2 == 0 { FROM } else { TO };
            let mut payload = fixture::payload_versioned(
                &format!("u{user:04}"),
                session,
                version,
            );
            if i % 23 == 7 {
                payload.truncate(6);
            } else if i % 9 == 4 {
                let kind = if (i / 9) % 2 == 0 {
                    FaultKind::Truncate
                } else {
                    FaultKind::BitFlip
                };
                payload = injector
                    .corrupt(&payload, kind)
                    .pop()
                    .expect("one payload in, one out");
            }
            payloads.push(payload);
        }
    }
    payloads
}

/// Warm repeats per measurement: the minimum over this many runs is
/// the figure, so one preempted run cannot inflate it.
const WARM_REPEATS: usize = 32;

fn ingest(config: FleetConfig, payloads: &[Vec<u8>]) -> FleetState {
    let mut state = FleetState::new(config);
    for payload in payloads {
        black_box(state.submit("bench", payload));
    }
    state
}

/// Runs the ground-truth fleet through the detector and returns
/// `(treatments, treatments flagged, controls, controls flagged)`.
fn ground_truth() -> (usize, usize, usize, usize) {
    let mut treatments = 0;
    let mut treatments_flagged = 0;
    let mut controls = 0;
    let mut controls_flagged = 0;
    for case in release_fleet() {
        let pair = case.collect_pair().expect("ground-truth cases are valid");
        let config = AnalysisConfig::default()
            .with_developer_fraction(case.scenario.developer_fraction());
        let dx = EnergyDx::new(config);
        let v1 = dx.diagnose(&pair.v1.diagnosis_input());
        let v2 = dx.diagnose(&pair.v2.diagnosis_input());
        let report = compare("v1", &v1, "v2", &v2, &RegressConfig::default());
        let regressed = report.verdict == Verdict::Regressed;
        if case.buggy() {
            treatments += 1;
            if regressed && report.regressions().next().is_some() {
                treatments_flagged += 1;
            }
        } else {
            controls += 1;
            if regressed {
                controls_flagged += 1;
            }
        }
    }
    (treatments, treatments_flagged, controls, controls_flagged)
}

fn run(smoke: bool) -> Report {
    let (treatments, treatments_flagged, controls, controls_flagged) =
        ground_truth();

    // --- Differential query latency on a versioned daemon. -----------
    let (users, sessions) = if smoke { (48, 2) } else { (400, 5) };
    let payloads = corpus(users, sessions);
    let config = FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    };
    let mut state = ingest(config, &payloads);
    let thresholds = RegressConfig::default();
    let (cold_json, cold_secs) =
        timed(|| state.regressions_json("bench", None, FROM, TO, &thresholds));
    let cold_json = cold_json.expect("bench app has both releases");
    let warm_secs = (0..WARM_REPEATS)
        .map(|_| {
            let (json, secs) = timed(|| {
                state.regressions_json("bench", None, FROM, TO, &thresholds)
            });
            black_box(json.expect("bench app serves"));
            secs
        })
        .fold(f64::INFINITY, f64::min);
    let stats = state.query_cache_stats();
    assert!(
        stats.hits as usize >= 2 * WARM_REPEATS,
        "warm differential queries must hit the per-version analyzed \
         cache twice each, saw {} hits",
        stats.hits
    );
    // The cache must not change a byte: the warm answer equals the
    // cold one, and the same state's answer recomputed with the cache
    // dropped.
    let warm_json = state
        .regressions_json("bench", None, FROM, TO, &thresholds)
        .unwrap();
    state.invalidate_query_cache();
    let recomputed = state
        .regressions_json("bench", None, FROM, TO, &thresholds)
        .unwrap();
    for json in [cold_json, recomputed] {
        assert_eq!(
            json, warm_json,
            "the query cache changed the served regression bytes"
        );
    }

    Report::default()
        .exact("cases", treatments + controls)
        .exact("treatments", treatments)
        .exact("treatments_flagged", treatments_flagged)
        .exact("controls", controls)
        .exact("controls_flagged", controls_flagged)
        .exact("uploads", payloads.len())
        .exact("accepted", state.accepted_total())
        .field("cold_secs", format!("{cold_secs:.6}"))
        .field("warm_secs", format!("{warm_secs:.6}"))
        // A warm differential query is two analyzed-cache hits plus
        // the event alignment and rendering; cold is two full folds
        // and analyses — measured ~6x on the smoke corpus, gated at
        // 3x so the margin absorbs scheduler noise, not regressions.
        .field("budget_min_warm_speedup", 3)
        .at_least("budget_min_warm_speedup", cold_secs / warm_secs)
        .holds(
            format!("{treatments_flagged}/{treatments} release bugs flagged"),
            treatments_flagged >= treatments,
        )
        .holds(
            format!("{controls_flagged}/{controls} bug-free controls flagged"),
            controls_flagged == 0,
        )
}

fn main() {
    harness::main("regress", false, |smoke, _| run(smoke));
}
