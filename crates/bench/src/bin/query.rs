//! Warm-query benchmark of the fleetd generation-keyed query cache.
//!
//! Ingests a deterministic corpus once and measures what a dashboard
//! actually pays: the **cold** query (full fold and analysis, after
//! dropping the query cache), the **warm** repeat (an analyzed-cache
//! hit — a copy of the rendered JSON only), and the **1-delta** query
//! (a fresh fold and analysis after one new upload). Each figure is a
//! minimum over repeats (`COLD_REPEATS`, `WARM_REPEATS`), so one
//! preempted run cannot inflate it. The cold and warm measurements
//! also run against a fully spilled daemon, whose warm queries must
//! not pay the disk again. The **history ratio** checks that a fresh
//! query's cost does not depend on how often the state was queried
//! before: the minimum over
//! `HISTORY_SAMPLES` fresh Diagnoses (one more upload each) on a state
//! diagnosed after every upload, over the same figure for a state
//! diagnosed once. The wire half of the story is measured
//! byte-exactly: a coordinator's `PartialNotModified` reply versus the
//! full `PartialState` it replaces.
//!
//! Gates (`BENCH_query.json`): the warm repeat at least
//! `budget_min_warm_speedup` times faster than cold; the spilled warm
//! query within `budget_spilled_warm_ratio` of the resident one; the
//! history ratio under `budget_history_ratio`; `NotModified` at least
//! `budget_min_wire_shrink` times smaller on the wire than a full
//! partial; and the corpus-determined fields (uploads, accepted,
//! spilled segments, both wire sizes) exactly. The warm gates compare
//! a minimum over many repeats of a microsecond-scale path against a
//! millisecond-scale one, and the history gate compares two minima of
//! the same millisecond-scale path, so the margins absorb scheduler
//! noise, not regressions.

use energydx_bench::harness::{self, corpus, timed, Report};
use energydx_fleetd::fixture;
use energydx_fleetd::protocol::{PartialStatus, Response};
use energydx_fleetd::state::{
    FleetConfig, FleetState, PartialSinceOutcome, QueryError, Selector,
};
use energydx_fleetd::SpillConfig;
use std::hint::black_box;

/// Warm repeats per measurement: the minimum over this many runs is
/// the figure, so one preempted run cannot inflate it.
const WARM_REPEATS: usize = 32;

/// Minimum seconds over `WARM_REPEATS` runs of one query.
fn warm_secs(state: &FleetState, app: &str) -> f64 {
    (0..WARM_REPEATS)
        .map(|_| {
            let (json, secs) = timed(|| state.diagnose_json(app, None));
            black_box(json.expect("app serves"));
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// Cold and 1-delta runs per measurement; the minimum is the figure.
const COLD_REPEATS: usize = 16;

/// The cold answer and the minimum seconds over `COLD_REPEATS` runs of
/// one query, each after dropping the query cache, so every run pays
/// the full fold + analysis (and, spilled, the segment reads).
fn cold_secs(state: &mut FleetState, app: &str) -> (String, f64) {
    let mut json = String::new();
    let mut best = f64::INFINITY;
    for _ in 0..COLD_REPEATS {
        state.invalidate_query_cache();
        let (answer, secs) = timed(|| state.diagnose_json(app, None));
        json = answer.expect("app serves");
        best = best.min(secs);
    }
    (json, best)
}

fn ingest(config: FleetConfig, payloads: &[Vec<u8>]) -> FleetState {
    let mut state = FleetState::new(config);
    for payload in payloads {
        black_box(state.submit("bench", payload));
    }
    state
}

/// Fresh Diagnoses per state in the history measurement.
const HISTORY_SAMPLES: usize = 16;

/// `(users, sessions)` of the history measurement's corpus, in both
/// modes: 400 uploads, so 400 queries of history stand behind the
/// queried state's fresh Diagnoses.
const HISTORY_CORPUS: (usize, u64) = (200, 2);

/// Seconds of a fresh Diagnose: one more upload (so the analyzed
/// cache misses), then one timed query.
fn fresh_secs(state: &mut FleetState, payload: &[u8]) -> f64 {
    assert!(state.submit("bench", payload).accepted());
    let (json, secs) = timed(|| state.diagnose_json("bench", None));
    black_box(json.expect("bench app serves"));
    secs
}

/// The history ratio: the minimum fresh-query cost on a state
/// diagnosed after every upload, over that on one diagnosed once. The
/// two states take their samples in turn, so a drift in machine speed
/// lands on both.
fn history_ratio(config: &FleetConfig) -> f64 {
    let payloads = &corpus(HISTORY_CORPUS.0, HISTORY_CORPUS.1);
    let mut queried = FleetState::new(config.clone());
    for payload in payloads {
        black_box(queried.submit("bench", payload));
        black_box(queried.diagnose_json("bench", None).ok());
    }
    let mut once = ingest(config.clone(), payloads);
    black_box(once.diagnose_json("bench", None).ok());
    let (mut queried_secs, mut once_secs) = (f64::INFINITY, f64::INFINITY);
    for n in 0..HISTORY_SAMPLES {
        let payload = fixture::payload(&format!("h{n:04}"), 0);
        queried_secs = queried_secs.min(fresh_secs(&mut queried, &payload));
        once_secs = once_secs.min(fresh_secs(&mut once, &payload));
    }
    queried_secs / once_secs
}

fn run(smoke: bool) -> Report {
    let (users, sessions) = if smoke { (48, 2) } else { (400, 5) };
    let payloads = corpus(users, sessions);
    let spool = std::env::temp_dir()
        .join(format!("energydx-bench-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);

    // --- Resident daemon: cold, warm, 1-delta. -----------------------
    let resident_config = FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    };
    let mut resident = ingest(resident_config.clone(), &payloads);
    let (cold_json, resident_cold_secs) = cold_secs(&mut resident, "bench");
    let resident_warm_secs = warm_secs(&resident, "bench");
    let state_stats = resident.query_cache_stats();
    assert!(
        state_stats.hits as usize >= WARM_REPEATS,
        "warm queries must be cache hits, saw {} hits",
        state_stats.hits
    );
    // The cache must not change a byte: the warm answer equals the
    // same state's answer recomputed with the cache dropped.
    let warm_json = resident.diagnose_json("bench", None).unwrap();
    resident.invalidate_query_cache();
    assert_eq!(
        resident.diagnose_json("bench", None).unwrap(),
        warm_json,
        "the query cache changed the served bytes"
    );
    // 1-delta: one fresh upload, then a fresh fold + analysis.
    let resident_delta_secs = (0..COLD_REPEATS)
        .map(|n| {
            let extra = fixture::payload(&format!("d{n:04}"), 0);
            fresh_secs(&mut resident, &extra)
        })
        .fold(f64::INFINITY, f64::min);

    // --- Spilled daemon: cold pays the disk once, warm never again. --
    let spilling_config = FleetConfig {
        jobs: 1,
        spill: Some(SpillConfig {
            dir: spool.clone(),
            // An unbounded budget: the spill below is explicit, and
            // the caches are allowed to retain what they fold.
            mem_budget: usize::MAX,
        }),
        ..FleetConfig::default()
    };
    let mut spilling = ingest(spilling_config, &payloads);
    spilling.spill_all();
    let spilled_segments = spilling.spilled_segments();
    assert!(spilled_segments > 0, "the corpus must spill something");
    let (spilled_json, spilled_cold_secs) = cold_secs(&mut spilling, "bench");
    assert_eq!(spilled_json, cold_json, "spilling changed the served bytes");
    let spilled_warm_secs = warm_secs(&spilling, "bench");
    let accepted = spilling.accepted_total();

    // --- Wire sizes: byte-exact, no timing involved. -----------------
    let (notmod_wire_bytes, full_partial_wire_bytes) =
        wire_sizes(&spilling).expect("bench app answers a partial query");
    let _ = std::fs::remove_dir_all(&spool);

    // --- Query history must not change a fresh query's cost. ---------
    let history_ratio = history_ratio(&resident_config);

    Report::default()
        .exact("uploads", payloads.len())
        .exact("accepted", accepted)
        .field("resident_cold_secs", format!("{resident_cold_secs:.6}"))
        .field("resident_warm_secs", format!("{resident_warm_secs:.6}"))
        .field("resident_delta_secs", format!("{resident_delta_secs:.6}"))
        .field("spilled_cold_secs", format!("{spilled_cold_secs:.6}"))
        .field("spilled_warm_secs", format!("{spilled_warm_secs:.6}"))
        .exact("spilled_segments", spilled_segments)
        .field("history_ratio", format!("{history_ratio:.3}"))
        .exact("notmod_wire_bytes", notmod_wire_bytes)
        .exact("full_partial_wire_bytes", full_partial_wire_bytes)
        // A warm repeat copies the cached JSON; a cold query pays a
        // full fold, Steps 2-5 and the render. The real gap is far
        // wider than 10x.
        .field("budget_min_warm_speedup", 10)
        .at_least(
            "budget_min_warm_speedup",
            resident_cold_secs / resident_warm_secs,
        )
        // Warm queries are analyzed-cache hits on both daemons, so
        // the ratio budget is pure scheduler-noise allowance.
        .field("budget_spilled_warm_ratio", 2)
        .at_most(
            "budget_spilled_warm_ratio",
            spilled_warm_secs / resident_warm_secs,
        )
        // Both sides run the same fold + analysis over the same
        // traces; anything a query leaves behind that a later fresh
        // query must pay for shows as a ratio above 1.
        .field("budget_history_ratio", 1.3)
        .at_most("budget_history_ratio", history_ratio)
        .field("budget_min_wire_shrink", 4)
        .at_least(
            "budget_min_wire_shrink",
            full_partial_wire_bytes as f64 / notmod_wire_bytes as f64,
        )
}

/// Encoded frame sizes of a `PartialNotModified` reply and the full
/// `PartialState` it stands in for — what one unchanged worker costs
/// a polling coordinator per query, before and after the delta
/// protocol.
fn wire_sizes(state: &FleetState) -> Result<(usize, usize), QueryError> {
    match state.partial_since(&Selector::new("bench", None, None), None)? {
        PartialSinceOutcome::Changed {
            epoch,
            incarnation,
            generation,
            partial,
        } => {
            let full = Response::PartialState {
                status: PartialStatus::Found,
                epoch,
                incarnation,
                generation,
                partial,
            }
            .encode()
            .len();
            let notmod = Response::PartialNotModified { epoch }.encode().len();
            Ok((notmod, full))
        }
        PartialSinceOutcome::Unchanged { .. } => {
            unreachable!("a token-free query always returns the partial")
        }
    }
}

fn main() {
    harness::main("query", false, |smoke, _| run(smoke));
}
