//! Throughput/latency benchmark of the fleetd ingest pipeline.
//!
//! Drives the in-process daemon handle (`FleetdHandle`: bounded
//! queue, each upload committed on its caller's thread under the state
//! lock) with a deterministic fixture corpus — a fraction of it
//! damaged through the fault injector, so salvage and quarantine are
//! on the measured path, exactly as in production.
//! Everything runs on one CPU (`jobs = 1`, one producer): the numbers
//! are per-core figures, not a parallel-speedup showcase.
//!
//! Reported:
//!
//! - sustained `uploads_per_sec` through submit → admit → commit →
//!   fold, with p50/p99 end-to-end submit latency (a `submit` call
//!   blocks until its upload's outcome, so this is the full path);
//! - `query_secs` — one snapshot-consistent `diagnose` over the
//!   resident epoch state;
//! - checkpoint encode/decode time and size per accepted trace;
//! - `upload_growth` — the median `FleetState::submit` time of
//!   [`GROWTH_UPLOADS`] further uploads into an epoch of two
//!   interleaved releases that already holds 200 traces, the same
//!   into one holding 2,000, and their ratio. An upload extends the
//!   epoch's last same-release run in place, so its cost should not
//!   grow with the epoch.
//!
//! Gates (`BENCH_ingest.json`): the accepted and quarantined counts
//! and the checkpoint size exactly (pure functions of the corpus); the
//! checkpoint under `budget_checkpoint_bytes_per_trace`; and the
//! upload-growth ratio under `budget_upload_growth` — a ratio of two
//! medians on one machine, so host speed cancels out and only cost
//! that grows with the epoch trips it. `--obsv` also records every
//! submit latency into a metrics histogram on the measured path,
//! cross-checks the histogram against the exact sorted percentiles,
//! and gates its p50 under 100x the stored `submit_p50_us` — a
//! wide-margin sanity gate on the instrumented path, not a tight
//! timing assertion.

use energydx::EnergyDx;
use energydx_bench::harness::{self, corpus, percentile, Report};
use energydx_fleetd::checkpoint::{checkpoint_bytes, restore_bytes};
use energydx_fleetd::convert::bundles_to_input;
use energydx_fleetd::fixture::payload_versioned;
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_fleetd::{FleetdHandle, ServerConfig, SubmitReply};
use energydx_trace::store::TraceStore;
use std::hint::black_box;
use std::time::Instant;

/// Timed uploads per epoch size in the growth measurement.
const GROWTH_UPLOADS: usize = 200;
/// Epoch sizes (traces already held) the growth ratio compares.
const GROWTH_EPOCHS: [usize; 2] = [200, 2_000];
/// Largest allowed ratio of the two medians. The run-extending commit
/// measures about 1; a commit that rewrites the epoch on every upload
/// (the compaction it replaced) measured 6 to 13 here.
const BUDGET_UPLOAD_GROWTH: f64 = 2.0;

fn run(smoke: bool, obsv: bool) -> Report {
    let (users, sessions) = if smoke { (48, 2) } else { (400, 5) };
    let payloads = corpus(users, sessions);

    // Finer-than-default buckets (factor 2 from 1 µs) so the latency
    // histogram resolves sub-millisecond submits; the registry lives
    // outside the timed loop, the per-submit `observe` inside it —
    // that recording cost is exactly what `--obsv --check` gates.
    let submit_hist = obsv.then(|| {
        let reg = std::sync::Arc::new(energydx_obsv::MetricsRegistry::new());
        let buckets = energydx_stats::Buckets::exponential(1e-6, 2.0, 24)
            .expect("static bucket layout");
        reg.histogram("bench_submit_latency_seconds", &[], &buckets)
    });

    let fleet = FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    };
    let handle = FleetdHandle::start(ServerConfig {
        fleet: fleet.clone(),
        // Deep enough that a single blocking producer never sheds:
        // this measures the pipeline, not the backpressure valve.
        queue_depth: 16,
        ..ServerConfig::default()
    })
    .expect("no state dir, start cannot fail");

    // Ingest: one producer, end-to-end latency per upload (submit
    // blocks until the worker has folded the upload into the state).
    let mut latencies_us = Vec::with_capacity(payloads.len());
    let mut accepted = 0usize;
    let mut quarantined = 0usize;
    let t0 = Instant::now();
    for payload in &payloads {
        let t = Instant::now();
        let reply = handle.submit("bench", payload.clone());
        let secs = t.elapsed().as_secs_f64();
        if let Some(hist) = &submit_hist {
            hist.observe(secs);
        }
        latencies_us.push(secs * 1e6);
        match reply {
            SubmitReply::Outcome(outcome) => {
                if outcome.accepted() {
                    accepted += 1;
                } else {
                    quarantined += 1;
                }
            }
            other => panic!("unexpected submit reply: {other:?}"),
        }
    }
    let ingest_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let served = handle
        .diagnose_json("bench", None)
        .expect("bench app has accepted traces");
    let query_secs = t0.elapsed().as_secs_f64();

    // The report the daemon serves must equal the batch pipeline over
    // the same payloads — the numbers above are only worth publishing
    // for a daemon that keeps the batch-identity guarantee.
    let store = TraceStore::new();
    for payload in &payloads {
        black_box(store.ingest_wire(payload));
    }
    let batch = EnergyDx::new(fleet.analysis.clone())
        .with_jobs(1)
        .diagnose_reference(&bundles_to_input(&store.snapshot()))
        .to_canonical_json();
    assert_eq!(served, batch, "daemon diverged from the batch pipeline");

    // Checkpoint figures on a directly-held state (the handle owns
    // its own): same corpus, same accept order.
    let mut state = FleetState::new(fleet);
    for payload in &payloads {
        black_box(state.submit("bench", payload));
    }
    let t0 = Instant::now();
    let encoded = checkpoint_bytes(&state);
    let checkpoint_encode_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let restored = restore_bytes(&encoded, state.config().clone())
        .expect("round trip of a fresh checkpoint");
    let checkpoint_decode_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        restored
            .diagnose_json("bench", None)
            .expect("restored state serves the same app"),
        served,
        "checkpoint round trip changed the report"
    );

    latencies_us.sort_by(f64::total_cmp);
    let p50_us = percentile(&latencies_us, 0.50);

    // The histogram must agree with the exact sorted latencies it
    // observed: same count, same total, and a p50 bucket bracketing
    // the exact p50 (factor-2 buckets, so within one bucket each way).
    let obsv_submit_p50_us = submit_hist.map(|hist| {
        let snap = hist.snapshot();
        assert_eq!(snap.count(), latencies_us.len() as u64);
        let exact_sum: f64 = latencies_us.iter().sum::<f64>() / 1e6;
        assert!(
            (snap.sum() - exact_sum).abs() <= exact_sum * 1e-9 + 1e-12,
            "histogram sum {} diverged from exact {exact_sum}",
            snap.sum()
        );
        let bound = snap.quantile(0.5).expect("non-empty histogram");
        let exact_p50 = p50_us / 1e6;
        assert!(
            exact_p50 <= bound * 2.0 && bound <= exact_p50 * 2.0,
            "histogram p50 bound {bound}s is more than one factor-2 \
             bucket away from the exact p50 {exact_p50}s"
        );
        bound * 1e6
    });

    if let Some(p50) = obsv_submit_p50_us {
        eprintln!("obsv: submit latency histogram p50 <= {p50:.1} us");
    }

    let per_trace = encoded.len() as f64 / accepted.max(1) as f64;
    let growth_us = GROWTH_EPOCHS.map(upload_median_us);
    let growth = growth_us[1] / growth_us[0].max(1e-9);
    let report = Report::default()
        .field("uploads", payloads.len())
        .exact("accepted", accepted)
        .exact("quarantined", quarantined)
        .field(
            "uploads_per_sec",
            format!("{:.0}", payloads.len() as f64 / ingest_secs.max(1e-9)),
        )
        .field("submit_p50_us", format!("{p50_us:.1}"))
        .field(
            "submit_p99_us",
            format!("{:.1}", percentile(&latencies_us, 0.99)),
        )
        .field("ingest_secs", format!("{ingest_secs:.6}"))
        .field("query_secs", format!("{query_secs:.6}"))
        .object(
            "checkpoint",
            Report::default()
                .exact("bytes", encoded.len())
                .field("bytes_per_trace", format!("{per_trace:.1}"))
                .field("encode_secs", format!("{checkpoint_encode_secs:.6}"))
                .field("decode_secs", format!("{checkpoint_decode_secs:.6}")),
        )
        .object(
            "upload_growth",
            Report::default()
                .field(
                    &format!("epoch_{}_us", GROWTH_EPOCHS[0]),
                    format!("{:.1}", growth_us[0]),
                )
                .field(
                    &format!("epoch_{}_us", GROWTH_EPOCHS[1]),
                    format!("{:.1}", growth_us[1]),
                )
                .field("ratio", format!("{growth:.2}")),
        )
        // A byte count — deterministic for a fixed corpus — so a modest
        // margin only absorbs intentional format evolution, not noise.
        .field(
            "budget_checkpoint_bytes_per_trace",
            (per_trace * 1.5).ceil() as u64,
        )
        .at_most("budget_checkpoint_bytes_per_trace", per_trace)
        .field("budget_upload_growth", format!("{BUDGET_UPLOAD_GROWTH:.1}"))
        .at_most("budget_upload_growth", growth);
    // Instrumented-path sanity gate: the histogram p50 may not blow two
    // orders of magnitude past the stored p50. The 100x margin absorbs
    // machine differences; it trips on structural regressions (an
    // accidental sleep, quadratic work per submit), not on noise.
    match obsv_submit_p50_us {
        Some(p50) => report.at_most("submit_p50_us", p50 / 100.0),
        None => report,
    }
}

/// Release of the `i`-th upload of the growth epochs: a fixed
/// pseudo-random bit per upload, so the two releases interleave in
/// runs of one to a few uploads, as in a staged rollout.
fn growth_release(i: usize) -> &'static str {
    if (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0 {
        "1.9.0"
    } else {
        "2.0.0"
    }
}

/// The `i`-th upload of the growth epochs; `(user, session)` never
/// repeats, so every one is accepted.
fn growth_payload(i: usize) -> Vec<u8> {
    payload_versioned(&format!("g{:03}", i % 100), i as u64, growth_release(i))
}

/// Median µs of [`GROWTH_UPLOADS`] `FleetState::submit` calls into an
/// epoch that already holds `held` interleaved traces.
fn upload_median_us(held: usize) -> f64 {
    let mut state = FleetState::new(FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    });
    for i in 0..held {
        assert!(state.submit("rollout", &growth_payload(i)).accepted());
    }
    let mut times_us: Vec<f64> = (held..held + GROWTH_UPLOADS)
        .map(|i| {
            let payload = growth_payload(i);
            let t = Instant::now();
            black_box(state.submit("rollout", &payload));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    assert_eq!(state.accepted_total(), held + GROWTH_UPLOADS);
    times_us.sort_by(f64::total_cmp);
    times_us[times_us.len() / 2]
}

fn main() {
    harness::main("ingest", true, run);
}
