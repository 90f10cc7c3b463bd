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
//! Gates (`BENCH_spill.json`): the accepted count, segment count and
//! segment bytes on disk exactly (pure functions of the corpus); the
//! spilling daemon's ingest peak under `budget_spill_peak_bytes` — a
//! deterministic byte count for a fixed corpus on one thread, so the
//! gate cannot flake on machine speed; and that peak under the
//! resident one.

use energydx_bench::harness::{self, corpus, Report};
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_fleetd::SpillConfig;
use std::hint::black_box;
use std::time::Instant;

#[path = "../counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

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
    let (resident, resident_ingest) = measured(|| {
        let mut state = FleetState::new(resident_config);
        for payload in &payloads {
            black_box(state.submit("bench", payload));
        }
        state
    });
    let (spilling, spill_ingest) = measured(|| {
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
    let _ = std::fs::remove_dir_all(&spool);

    let (resident_peak, spill_peak) = (resident_ingest.peak, spill_ingest.peak);
    Report::default()
        .field("uploads", payloads.len())
        .exact("accepted", spilling.accepted_total())
        .field("resident_peak_bytes", resident_peak)
        .field("spill_peak_bytes", spill_peak)
        .exact("spilled_segments", spilled_segments)
        .exact("spilled_disk_bytes", spilled_disk_bytes as usize)
        .field("resident_query_secs", format!("{resident_query_secs:.6}"))
        .field("spill_query_secs", format!("{spill_query_secs:.6}"))
        // A peak byte count — deterministic for a fixed corpus on one
        // thread — so a modest margin only absorbs intentional
        // representation changes, not timing noise.
        .field("budget_spill_peak_bytes", spill_peak * 3 / 2)
        .at_most("budget_spill_peak_bytes", spill_peak as f64)
        .holds(
            format!("spill peak {spill_peak} < resident peak {resident_peak}"),
            spill_peak < resident_peak,
        )
}

fn main() {
    harness::main("spill", false, |smoke, _| run(smoke));
}
