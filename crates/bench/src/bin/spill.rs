//! Bounded-memory benchmark of the fleetd spill path.
//!
//! Drives two [`FleetState`]s through the same deterministic corpus —
//! one fully resident, one spilling every cold epoch to columnar
//! segments under a zero memory budget — and measures **peak live
//! heap growth** during ingest with a counting allocator. The
//! resident daemon's peak grows with the fleet; the spilling daemon's
//! peak stays bounded by one delta plus the segment encode buffer.
//! Both must serve byte-identical reports, so the numbers are only
//! published for a spill path that keeps the batch-identity
//! guarantee.
//!
//! ```text
//! spill [--smoke] [--write <path>] [--check <path>]
//! ```
//!
//! `--write` stores the report as JSON (see `BENCH_spill.json` at the
//! repo root); `--check` re-runs the measurement and fails (exit 1)
//! if the accepted count, segment count or segment bytes on disk
//! differ from the stored report at all (they are pure functions of
//! the corpus), if the spilling daemon's ingest peak exceeds the
//! stored `budget_spill_peak_bytes` — a deterministic byte count for
//! a fixed corpus on one thread, so the gate cannot flake on machine
//! speed — or if spilling stops being cheaper than staying resident.

use energydx_bench::harness::{corpus, exact_fields_match, stored_u64};
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_fleetd::SpillConfig;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

#[path = "../peak_alloc.rs"]
mod peak_alloc;
use peak_alloc::{peak_region, PeakAlloc};

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

struct Report {
    mode: &'static str,
    uploads: usize,
    accepted: usize,
    resident_peak_bytes: u64,
    spill_peak_bytes: u64,
    spilled_segments: usize,
    spilled_disk_bytes: u64,
    resident_query_secs: f64,
    spill_query_secs: f64,
    budget_spill_peak_bytes: u64,
}

impl Report {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"uploads\": {},\n  \
             \"accepted\": {},\n  \"resident_peak_bytes\": {},\n  \
             \"spill_peak_bytes\": {},\n  \"spilled_segments\": {},\n  \
             \"spilled_disk_bytes\": {},\n  \
             \"resident_query_secs\": {:.6},\n  \
             \"spill_query_secs\": {:.6},\n  \
             \"budget_spill_peak_bytes\": {}\n}}\n",
            self.mode,
            self.uploads,
            self.accepted,
            self.resident_peak_bytes,
            self.spill_peak_bytes,
            self.spilled_segments,
            self.spilled_disk_bytes,
            self.resident_query_secs,
            self.spill_query_secs,
            self.budget_spill_peak_bytes,
        )
    }
}

fn run(smoke: bool) -> Report {
    let (users, sessions) = if smoke { (48, 2) } else { (400, 5) };
    let payloads = corpus(users, sessions);

    let spool = std::env::temp_dir()
        .join(format!("energydx-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);

    let resident_config = FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    };
    let spilling_config = FleetConfig {
        jobs: 1,
        spill: Some(SpillConfig {
            dir: spool.clone(),
            mem_budget: 0,
        }),
        ..FleetConfig::default()
    };

    // Ingest under measurement: the state itself is allocated inside
    // the region so its growth counts against the figure.
    let (resident, resident_peak_bytes, _) = peak_region(|| {
        let mut state = FleetState::new(resident_config);
        for payload in &payloads {
            black_box(state.submit("bench", payload));
        }
        state
    });
    let (spilling, spill_peak_bytes, _) = peak_region(|| {
        let mut state = FleetState::new(spilling_config);
        for payload in &payloads {
            black_box(state.submit("bench", payload));
        }
        state
    });
    assert_eq!(
        spilling.resident_bytes(),
        0,
        "a zero budget must leave nothing resident"
    );

    // Batch identity: both residencies serve the same bytes — the
    // spilling daemon folds its segments back from disk to do so.
    let t0 = Instant::now();
    let resident_report = resident
        .diagnose_json("bench", None)
        .expect("bench app has accepted traces");
    let resident_query_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let spill_report = spilling
        .diagnose_json("bench", None)
        .expect("bench app has accepted traces");
    let spill_query_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        spill_report, resident_report,
        "spilling changed the served bytes"
    );

    let spilled_disk_bytes: u64 = std::fs::read_dir(&spool)
        .expect("spool exists after spilling")
        .map(|e| e.expect("spool entry").metadata().expect("metadata").len())
        .sum();
    let spilled_segments = spilling.spilled_segments();
    assert!(spilled_segments > 0, "the corpus must spill something");
    let accepted = spilling.accepted_total();
    let _ = std::fs::remove_dir_all(&spool);

    let mut out = Report {
        mode: if smoke { "smoke" } else { "full" },
        uploads: payloads.len(),
        accepted,
        resident_peak_bytes,
        spill_peak_bytes,
        spilled_segments,
        spilled_disk_bytes,
        resident_query_secs,
        spill_query_secs,
        budget_spill_peak_bytes: 0,
    };
    // The gate metric is a peak byte count — deterministic for a
    // fixed corpus on one thread — so a modest margin only absorbs
    // intentional representation changes, not timing noise.
    out.budget_spill_peak_bytes = out.spill_peak_bytes * 3 / 2;
    out
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
                    "usage: spill [--smoke] [--write <path>] [--check <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    // The regression gate always runs the fast corpus: the budget is
    // checked in from a smoke run.
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
                (&["accepted"], report.accepted as u64),
                (&["spilled_segments"], report.spilled_segments as u64),
                (&["spilled_disk_bytes"], report.spilled_disk_bytes),
            ],
        );
        if !exact {
            std::process::exit(1);
        }
        let budget = stored_u64(&stored, &["budget_spill_peak_bytes"])
            .unwrap_or_else(|| {
                panic!("no budget_spill_peak_bytes in {}", path.display())
            });
        if report.spill_peak_bytes > budget {
            eprintln!(
                "spill-memory regression: ingest peak {} bytes exceeds \
                 the checked-in budget of {budget}",
                report.spill_peak_bytes
            );
            std::process::exit(1);
        }
        if report.spill_peak_bytes >= report.resident_peak_bytes {
            eprintln!(
                "spilling stopped being cheaper than staying resident: \
                 {} >= {} peak bytes",
                report.spill_peak_bytes, report.resident_peak_bytes
            );
            std::process::exit(1);
        }
        eprintln!(
            "spill peak within budget: {} <= {budget} bytes (resident \
             peak {})",
            report.spill_peak_bytes, report.resident_peak_bytes
        );
    }
}
