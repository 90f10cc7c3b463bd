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
//! ```text
//! query [--smoke] [--write <path>] [--check <path>]
//! ```
//!
//! `--write` stores the report as JSON (see `BENCH_query.json` at the
//! repo root); `--check` re-runs the smoke measurement and fails
//! (exit 1) when the warm repeat is less than the stored
//! `budget_min_warm_speedup` times faster than cold, when the spilled
//! warm query is slower than the resident one beyond the stored
//! noise ratio, when the history ratio exceeds the stored
//! `budget_history_ratio`, when `NotModified` stops being measurably
//! smaller on the wire than a full partial, or when a
//! corpus-determined field (uploads, accepted, spilled segments, both
//! wire sizes) differs from the stored one. The warm gates compare a
//! minimum over many repeats of a microsecond-scale path against a
//! millisecond-scale one, and the history gate compares two minima of
//! the same millisecond-scale path, so the margins absorb scheduler
//! noise, not regressions.

use energydx_bench::harness::{
    corpus, exact_fields_match, stored_f64, stored_u64, timed,
};
use energydx_fleetd::fixture;
use energydx_fleetd::protocol::{PartialStatus, Response};
use energydx_fleetd::state::{
    FleetConfig, FleetState, PartialSinceOutcome, QueryError, Selector,
};
use energydx_fleetd::SpillConfig;
use std::hint::black_box;
use std::path::PathBuf;

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

struct Report {
    mode: &'static str,
    uploads: usize,
    accepted: usize,
    resident_cold_secs: f64,
    resident_warm_secs: f64,
    resident_delta_secs: f64,
    spilled_cold_secs: f64,
    spilled_warm_secs: f64,
    spilled_segments: usize,
    history_ratio: f64,
    notmod_wire_bytes: usize,
    full_partial_wire_bytes: usize,
    budget_min_warm_speedup: u64,
    budget_spilled_warm_ratio: u64,
    budget_history_ratio: f64,
    budget_min_wire_shrink: u64,
}

impl Report {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"uploads\": {},\n  \
             \"accepted\": {},\n  \"resident_cold_secs\": {:.6},\n  \
             \"resident_warm_secs\": {:.6},\n  \
             \"resident_delta_secs\": {:.6},\n  \
             \"spilled_cold_secs\": {:.6},\n  \
             \"spilled_warm_secs\": {:.6},\n  \"spilled_segments\": {},\n  \
             \"history_ratio\": {:.3},\n  \
             \"notmod_wire_bytes\": {},\n  \
             \"full_partial_wire_bytes\": {},\n  \
             \"budget_min_warm_speedup\": {},\n  \
             \"budget_spilled_warm_ratio\": {},\n  \
             \"budget_history_ratio\": {},\n  \
             \"budget_min_wire_shrink\": {}\n}}\n",
            self.mode,
            self.uploads,
            self.accepted,
            self.resident_cold_secs,
            self.resident_warm_secs,
            self.resident_delta_secs,
            self.spilled_cold_secs,
            self.spilled_warm_secs,
            self.spilled_segments,
            self.history_ratio,
            self.notmod_wire_bytes,
            self.full_partial_wire_bytes,
            self.budget_min_warm_speedup,
            self.budget_spilled_warm_ratio,
            self.budget_history_ratio,
            self.budget_min_wire_shrink,
        )
    }
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

    Report {
        mode: if smoke { "smoke" } else { "full" },
        uploads: payloads.len(),
        accepted,
        resident_cold_secs,
        resident_warm_secs,
        resident_delta_secs,
        spilled_cold_secs,
        spilled_warm_secs,
        spilled_segments,
        history_ratio,
        notmod_wire_bytes,
        full_partial_wire_bytes,
        // A warm repeat copies the cached JSON; a cold query pays a
        // full fold, Steps 2-5 and the render. The real gap is far
        // wider than 10x.
        budget_min_warm_speedup: 10,
        // Warm queries are analyzed-cache hits on both daemons, so
        // the ratio budget is pure scheduler-noise allowance.
        budget_spilled_warm_ratio: 2,
        // Both sides run the same fold + analysis over the same
        // traces; anything a query leaves behind that a later fresh
        // query must pay for shows as a ratio above 1.
        budget_history_ratio: 1.3,
        budget_min_wire_shrink: 4,
    }
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
                    "usage: query [--smoke] [--write <path>] [--check <path>]"
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
                (&["spilled_segments"], report.spilled_segments as u64),
                (&["notmod_wire_bytes"], report.notmod_wire_bytes as u64),
                (
                    &["full_partial_wire_bytes"],
                    report.full_partial_wire_bytes as u64,
                ),
            ],
        );
        let budget = |key: &str| {
            stored_u64(&stored, &[key])
                .unwrap_or_else(|| panic!("no {key} in {}", path.display()))
        };
        let min_speedup = budget("budget_min_warm_speedup") as f64;
        let warm_ratio = budget("budget_spilled_warm_ratio") as f64;
        let wire_shrink = budget("budget_min_wire_shrink") as usize;
        let max_history = stored_f64(&stored, &["budget_history_ratio"])
            .unwrap_or_else(|| {
                panic!("no budget_history_ratio in {}", path.display())
            });
        let speedup = report.resident_cold_secs / report.resident_warm_secs;
        let mut failed = !exact;
        if speedup < min_speedup {
            eprintln!(
                "warm-query regression: a repeat query is only {speedup:.1}x \
                 faster than cold (budget: >= {min_speedup}x)"
            );
            failed = true;
        }
        if report.spilled_warm_secs > report.resident_warm_secs * warm_ratio {
            eprintln!(
                "spilled-warm regression: {:.6}s vs resident {:.6}s — a warm \
                 spilled query is paying the disk again (noise budget: \
                 {warm_ratio}x)",
                report.spilled_warm_secs, report.resident_warm_secs
            );
            failed = true;
        }
        if report.history_ratio > max_history {
            eprintln!(
                "query-history regression: a fresh query on a state queried \
                 after every upload costs {:.2}x one on a state queried once \
                 (budget: <= {max_history}x)",
                report.history_ratio
            );
            failed = true;
        }
        if report.notmod_wire_bytes * wire_shrink
            > report.full_partial_wire_bytes
        {
            eprintln!(
                "delta-protocol regression: NotModified is {} wire bytes vs \
                 {} for a full partial (budget: >= {wire_shrink}x smaller)",
                report.notmod_wire_bytes, report.full_partial_wire_bytes
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "warm {speedup:.0}x faster than cold; spilled warm {:.6}s vs \
             resident warm {:.6}s; history ratio {:.2}; NotModified {}B vs \
             full partial {}B",
            report.spilled_warm_secs,
            report.resident_warm_secs,
            report.history_ratio,
            report.notmod_wire_bytes,
            report.full_partial_wire_bytes,
        );
    }
}
