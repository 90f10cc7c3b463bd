//! Warm-query benchmark of the fleetd generation-keyed query cache.
//!
//! Ingests a deterministic corpus once and measures what a dashboard
//! actually pays: the **cold** query (full fold + analysis), the
//! **warm** repeat (an analyzed-cache hit — clone + render only), and
//! the **1-delta** query (one new upload folded onto the cached
//! prefix). The same three measurements run against a fully spilled
//! daemon, whose warm queries must not pay the disk again. The wire
//! half of the story is measured byte-exactly: a coordinator's
//! `PartialNotModified` reply versus the full `PartialState` it
//! replaces.
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
//! noise ratio, or when `NotModified` stops being measurably smaller
//! on the wire than a full partial. Every timing gate compares a
//! minimum over many repeats of a microsecond-scale path against a
//! millisecond-scale one, so the margins absorb scheduler noise, not
//! regressions.

use energydx_bench::harness::{corpus, timed};
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

fn ingest(config: FleetConfig, payloads: &[Vec<u8>]) -> FleetState {
    let mut state = FleetState::new(config);
    for payload in payloads {
        black_box(state.submit("bench", payload));
    }
    state
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
    notmod_wire_bytes: usize,
    full_partial_wire_bytes: usize,
    budget_min_warm_speedup: u64,
    budget_spilled_warm_ratio: u64,
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
             \"notmod_wire_bytes\": {},\n  \
             \"full_partial_wire_bytes\": {},\n  \
             \"budget_min_warm_speedup\": {},\n  \
             \"budget_spilled_warm_ratio\": {},\n  \
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
            self.notmod_wire_bytes,
            self.full_partial_wire_bytes,
            self.budget_min_warm_speedup,
            self.budget_spilled_warm_ratio,
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
    let mut resident = ingest(resident_config, &payloads);
    let (cold_json, resident_cold_secs) =
        timed(|| resident.diagnose_json("bench", None));
    let cold_json = cold_json.expect("bench app has accepted traces");
    let resident_warm_secs = warm_secs(&resident, "bench");
    let state_stats = resident.query_cache_stats();
    assert!(
        state_stats.hits as usize >= WARM_REPEATS,
        "warm queries must be cache hits, saw {} hits",
        state_stats.hits
    );
    // The cache must not change a byte: a cache-disabled daemon over
    // the same corpus serves the identical report.
    let plain = ingest(
        FleetConfig {
            jobs: 1,
            query_cache: false,
            ..FleetConfig::default()
        },
        &payloads,
    );
    assert_eq!(
        plain.diagnose_json("bench", None).unwrap(),
        cold_json,
        "the query cache changed the served bytes"
    );
    // 1-delta: one fresh upload folds onto the cached prefix.
    let extra = fixture::payload("u9999", 0);
    assert!(resident.submit("bench", &extra).accepted());
    let (delta_json, resident_delta_secs) =
        timed(|| resident.diagnose_json("bench", None));
    black_box(delta_json.expect("bench app serves"));

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
    let (spilled_json, spilled_cold_secs) =
        timed(|| spilling.diagnose_json("bench", None));
    assert_eq!(
        spilled_json.expect("bench app serves"),
        cold_json,
        "spilling changed the served bytes"
    );
    let spilled_warm_secs = warm_secs(&spilling, "bench");
    let accepted = spilling.accepted_total();

    // --- Wire sizes: byte-exact, no timing involved. -----------------
    let (notmod_wire_bytes, full_partial_wire_bytes) =
        wire_sizes(&spilling).expect("bench app answers a partial query");
    let _ = std::fs::remove_dir_all(&spool);

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
        notmod_wire_bytes,
        full_partial_wire_bytes,
        // A warm repeat is a clone + render against a cold full
        // fold + Steps 2-5; the real gap is far wider than 10x.
        budget_min_warm_speedup: 10,
        // Warm queries are analyzed-cache hits on both daemons, so
        // the ratio budget is pure scheduler-noise allowance.
        budget_spilled_warm_ratio: 2,
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

/// Pulls `"<key>": <n>` out of a stored report without a JSON
/// dependency.
fn parse_num(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let digits: String =
        rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
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
        let budget = |key: &str| {
            parse_num(&stored, key)
                .unwrap_or_else(|| panic!("no {key} in {}", path.display()))
        };
        let min_speedup = budget("budget_min_warm_speedup") as f64;
        let warm_ratio = budget("budget_spilled_warm_ratio") as f64;
        let wire_shrink = budget("budget_min_wire_shrink") as usize;
        let speedup = report.resident_cold_secs / report.resident_warm_secs;
        let mut failed = false;
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
             resident warm {:.6}s; NotModified {}B vs full partial {}B",
            report.spilled_warm_secs,
            report.resident_warm_secs,
            report.notmod_wire_bytes,
            report.full_partial_wire_bytes,
        );
    }
}
