//! Allocation-counting benchmark of the zero-copy hot path.
//!
//! Instruments the global allocator and drives the two Step 2–5
//! implementations over the same deterministic synthetic fleet:
//!
//! - the **string-keyed reference** (`EventGroups` + `step2_rank` +
//!   `step3_normalize` + `step4_detect` + `step5_report`), which keys
//!   every group and every Step-5 fold by owned `String` — the
//!   pre-interning production dataflow, kept as the oracle;
//! - the **interned hot path** (`map_shard` + `analyze`), which runs
//!   the same analysis on dense `u32` event ids and `Vec`-indexed
//!   group tables, resolving names only at the `render` boundary.
//!
//! Reported per region: wall time, allocator calls, bytes requested,
//! and both normalized per powered instance. The headline figure is
//! `reduction_allocs_per_instance` — how many times fewer allocations
//! the hot path makes through Steps 2–5 than the reference.
//!
//! A `json` region measures the serving render: `render_json` writing
//! the canonical report straight from the analyzed fleet, with its
//! allocations per instance and the JSON length, and the bytes checked
//! equal to `render(..).to_canonical_json()`.
//!
//! A second pair of regions measures the daemon's wire framing: one
//! 2 MiB `Response::Report` through `Response::encode`, then through
//! `read_frame` + `Response::decode`, each reported as bytes allocated
//! per body byte. A frame built in one buffer costs ~1 body copy to
//! encode and ~2 to receive (the frame body, then the decoded string).
//! Next to them, `frame_crc32` is `wire::crc32`'s best time of 20 over
//! that frame's body: the CRC layer of every frame, reported, not
//! gated.
//!
//! A `partial_read_decode` region does the same for a cluster reply:
//! `read_frame` + `Response::decode` of one `PartialState` frame
//! carrying the fleet's mapped partial, in bytes allocated per body
//! byte. The frame body, the decoded traces and the rebuilt group
//! tables each cost about one body's worth; a decoder that copies the
//! traces again, or grows the groups by doubling, shows here.
//!
//! Gates (`BENCH_hotpath.json`): hot-path bytes per instance under
//! `budget_bytes_per_instance`, the serving render's allocations per
//! instance under `budget_json_allocs_per_instance`, each frame region
//! under its `budget_*_bytes_per_body_byte`, and the
//! corpus-determined fields (traces, instances, vocab, JSON bytes,
//! both frames' body bytes) exactly. Allocator counts repeat exactly,
//! so the gate does not flake. `--obsv` attaches a live metrics registry to
//! the pipeline, so the measured regions include the per-stage span
//! instrumentation; `--obsv --check` is the metrics-overhead gate.

use energydx::pipeline::{
    step2_rank, step3_normalize, step4_detect, step5_report, EventGroups,
};
use energydx::{AnalysisConfig, DiagnosisInput, EnergyDx};
use energydx_bench::harness::{self, Report};
use energydx_fleetd::protocol::{read_frame, PartialStatus, Response};
use energydx_trace::event::{Direction, EventRecord, EventTrace};
use energydx_trace::join_power;
use energydx_trace::power::{PowerSample, PowerTrace};
use energydx_trace::util::Component;
use energydx_trace::wire;
use std::hint::black_box;
use std::time::Instant;

#[path = "../counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{measured, Region};

/// SplitMix64 — deterministic fleet synthesis, no RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const VOCAB: [&str; 12] = [
    "Lcom/app/MainActivity;->onResume",
    "Lcom/app/MainActivity;->onPause",
    "Lcom/app/net/Sync;->poll",
    "Lcom/app/net/Sync;->flush",
    "Lcom/app/db/Store;->query",
    "Lcom/app/db/Store;->commit",
    "Lcom/app/ui/Feed;->onDraw",
    "Lcom/app/ui/Feed;->onScroll",
    "Lcom/app/gps/Fix;->onLocation",
    "Lcom/app/media/Decoder;->decode",
    "Lcom/app/push/Recv;->onMessage",
    "Idle(No_Display)",
];

/// One user's raw traces: `instances` balanced callback pairs against
/// a power trace sampled every 500 ms, with a sustained anomaly in a
/// third of the users.
fn user_trace(
    user: usize,
    instances: usize,
    seed: &mut u64,
) -> (EventTrace, PowerTrace) {
    let mut events = EventTrace::new();
    for i in 0..instances as u64 {
        let name = VOCAB[(splitmix(seed) % VOCAB.len() as u64) as usize];
        let start = i * 400;
        events.push(EventRecord::new(start, Direction::Enter, name));
        events.push(EventRecord::new(start + 150, Direction::Exit, name));
    }
    let duration = instances as u64 * 400 + 1_000;
    let anomalous = user.is_multiple_of(3);
    let power: PowerTrace = (1..=duration / 500)
        .map(|tick| {
            let mut s = PowerSample::new(tick * 500);
            let jitter = (splitmix(seed) % 40) as f64;
            let mw = if anomalous && tick > duration / 1_000 {
                900.0 + jitter
            } else {
                140.0 + jitter
            };
            s.set_component(Component::Cpu, mw);
            s
        })
        .collect();
    (events, power)
}

/// Allocation budget of the serving render, per instance: the output
/// buffer and one escaped name per vocabulary id make it a small
/// constant per fleet, where building a report costs about one per
/// instance.
const BUDGET_JSON_ALLOCS: f64 = 0.05;

/// JSON bytes of the framed `Report` the frame regions move.
const FRAME_JSON_BYTES: usize = 2 << 20;
/// Allocation budgets of the frame regions, in bytes per body byte:
/// one body copy to encode, two to receive, plus a tenth of headroom.
const BUDGET_FRAME_ENCODE: f64 = 1.1;
const BUDGET_FRAME_DECODE: f64 = 2.1;

/// Allocation budget of the partial-frame region, in bytes per body
/// byte: the frame body, the decoded traces and the exact-size group
/// tables, plus a tenth of headroom. Copying the traces again, or
/// growing the groups by doubling, each cost more than the headroom.
const BUDGET_PARTIAL_DECODE: f64 = 2.9;

/// `read_frame` + `Response::decode` of one encoded frame: the frame's
/// body length and the response.
fn read_decode(bytes: &[u8]) -> (usize, Response) {
    let frame = read_frame(&mut &bytes[..])
        .expect("frame reads")
        .expect("one frame");
    (
        frame.body.len(),
        Response::decode(&frame).expect("frame decodes"),
    )
}

/// The frame regions: encode, then read + decode, of one `Report`.
/// Returns the frame's body length with the two regions and the CRC
/// kernel's best time of 20 over the body.
fn frame_regions() -> (usize, Region, Region, f64) {
    let unit = "{\"amplitudes\": [1.5, 2.25, 3.125]}\n";
    let resp = Response::Report {
        json: unit.repeat(FRAME_JSON_BYTES / unit.len()),
    };
    let (bytes, encode) = measured(|| resp.encode());
    // magic 4 | version 1 | kind 1 | length 4 | body | crc 4
    let body = &bytes[10..bytes.len() - 4];
    let crc_secs = (0..20)
        .map(|_| harness::timed(|| wire::crc32(black_box(body))).1)
        .fold(f64::INFINITY, f64::min);
    let ((body, decoded), decode) = measured(|| read_decode(&bytes));
    assert_eq!(decoded, resp, "frame round trip");
    (body, encode, decode, crc_secs)
}

/// The partial-frame region: read + decode of one `PartialState`
/// frame carrying `partial`. Returns the frame's body length with the
/// region.
fn partial_region(partial: energydx::ShardPartial) -> (usize, Region) {
    let resp = Response::PartialState {
        status: PartialStatus::Found,
        epoch: 1,
        incarnation: 2,
        generation: 3,
        partial,
    };
    let bytes = resp.encode();
    let ((body, decoded), region) = measured(|| read_decode(&bytes));
    assert_eq!(decoded, resp, "partial frame round trip");
    (body, region)
}

fn run(smoke: bool, obsv: bool) -> Report {
    let (users, per_trace) = if smoke { (16, 240) } else { (64, 2_000) };
    let mut seed = 0x0E17_ED01u64;
    let raw: Vec<(EventTrace, PowerTrace)> = (0..users)
        .map(|u| user_trace(u, per_trace, &mut seed))
        .collect();

    // Step 1, measured in isolation: pairing happens outside the
    // region; the join itself is move-only over the paired instances.
    let paired: Vec<_> = raw
        .iter()
        .map(|(events, power)| {
            let mut instances = events.pair_instances();
            instances.sort_by_key(|i| i.start_ms);
            (instances, power)
        })
        .collect();
    let instances: usize = paired.iter().map(|(i, _)| i.len()).sum();
    let (mut traces, join) = measured(|| {
        paired
            .into_iter()
            .map(|(instances, power)| join_power(instances, power))
            .collect::<Vec<_>>()
    });

    // One corrupt trace exercises the sanitation path in both
    // pipelines identically.
    traces[1][3].power_mw = f64::NAN;
    let input = DiagnosisInput::new(traces);

    let config = AnalysisConfig::default();
    let mut dx = EnergyDx::new(config.clone()).with_jobs(1);
    // The registry itself is built outside the measured regions; what
    // the regions then see is exactly the per-stage recording cost.
    if obsv {
        dx = dx.with_metrics(energydx_obsv::Metrics::enabled(
            std::sync::Arc::new(energydx_obsv::MetricsRegistry::new()),
        ));
    }

    // Baseline: the string-keyed reference pipeline, Steps 2–5, report
    // materialization excluded on both sides.
    let (_, reference) = measured(|| {
        let (clean, skipped) = input.sanitized();
        let groups = EventGroups::collect(&clean);
        let rankings = step2_rank(&groups);
        let normalized = step3_normalize(&clean, &groups, &config);
        let detections = step4_detect(&normalized, &config);
        let ranked = step5_report(&clean, &detections, &config);
        black_box((skipped, rankings, detections, ranked));
    });

    // Hot path: interned map + dense analyze, same steps, no strings.
    let (analyzed, hotpath) = measured(|| {
        let partial = dx.map_shard(input.traces(), 0);
        dx.analyze(partial).expect("whole fleet is complete")
    });
    assert!(analyzed.trace_count() == users);
    black_box(analyzed.detection_count());

    let (json, json_region) = measured(|| dx.render_json(&analyzed));
    let (report, render) = measured(|| dx.render(analyzed));
    assert_eq!(
        json,
        report.to_canonical_json(),
        "render_json diverged from the rendered report"
    );

    // End-to-end wall time (join excluded), and the differential check
    // that the measured paths agree byte for byte.
    let t0 = Instant::now();
    let full = dx.diagnose(&input);
    let diagnose_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        full.to_canonical_json(),
        report.to_canonical_json(),
        "hot path diverged from diagnose()"
    );
    assert_eq!(
        full.to_canonical_json(),
        dx.diagnose_reference(&input).to_canonical_json(),
        "hot path diverged from the reference"
    );
    if let Some(reg) = dx.metrics().registry() {
        for stage in ["map", "analyze", "render", "finish"] {
            let snap = reg
                .histogram_snapshot(
                    energydx_obsv::STAGE_FAMILY,
                    &[("stage", stage)],
                )
                .unwrap_or_else(|| panic!("stage {stage} not recorded"));
            assert!(snap.count() > 0, "stage {stage} recorded no spans");
        }
        eprintln!("obsv: per-stage spans recorded for map/analyze/render");
    }

    let (frame_body_bytes, frame_encode, frame_decode, crc_secs) =
        frame_regions();
    let (partial_body_bytes, partial_decode) =
        partial_region(dx.map_shard(input.traces(), 0));

    let n = instances as f64;
    let region = |r: &Region| {
        Report::default()
            .field("secs", format!("{:.6}", r.secs))
            .field("allocs", r.allocs)
            .field("bytes", r.bytes)
    };
    let per = |r: &Region| {
        region(r)
            .field("allocs_per_instance", format!("{:.3}", r.allocs as f64 / n))
            .field("bytes_per_instance", format!("{:.1}", r.bytes as f64 / n))
    };
    let per_body_byte = |r: &Region| r.bytes as f64 / frame_body_bytes as f64;
    let frame = |r: &Region| {
        region(r)
            .field("bytes_per_body_byte", format!("{:.3}", per_body_byte(r)))
    };
    let partial_per_body_byte =
        partial_decode.bytes as f64 / partial_body_bytes as f64;
    let reduction =
        |reference: u64, hot: u64| reference as f64 / (hot as f64).max(1.0);
    let reduction_allocs = reduction(reference.allocs, hotpath.allocs);
    if reduction_allocs < 5.0 {
        eprintln!(
            "warning: Steps 2-5 allocation reduction {reduction_allocs:.2}x \
             is below the 5x target"
        );
    }
    let hot_bytes_per_instance = hotpath.bytes as f64 / n;
    Report::default()
        .exact("traces", users)
        .exact("instances", instances)
        .exact("vocab", VOCAB.len())
        .field("joins_per_sec", format!("{:.0}", n / join.secs.max(1e-9)))
        .object("step1_join", per(&join))
        .object("reference_steps2_5", per(&reference))
        .object("hotpath_steps2_5", per(&hotpath))
        .object("render", per(&render))
        .object("json", per(&json_region))
        .exact("json_bytes", json.len())
        .field("diagnose_secs", format!("{diagnose_secs:.6}"))
        .field(
            "reduction_allocs_per_instance",
            format!("{reduction_allocs:.2}"),
        )
        .field(
            "reduction_bytes_per_instance",
            format!("{:.2}", reduction(reference.bytes, hotpath.bytes)),
        )
        // Double the measured footprint, so the gate trips on an
        // accidental return to per-instance cloning without flaking on
        // allocator jitter.
        .field(
            "budget_bytes_per_instance",
            (hot_bytes_per_instance * 2.0).ceil() as u64,
        )
        .at_most("budget_bytes_per_instance", hot_bytes_per_instance)
        .field("budget_json_allocs_per_instance", BUDGET_JSON_ALLOCS)
        .at_most(
            "budget_json_allocs_per_instance",
            json_region.allocs as f64 / n,
        )
        .exact("frame_body_bytes", frame_body_bytes)
        .object("frame_encode", frame(&frame_encode))
        .object("frame_read_decode", frame(&frame_decode))
        .object(
            "frame_crc32",
            Report::default()
                .field("secs", format!("{crc_secs:.6}"))
                .field(
                    "gb_per_sec",
                    format!("{:.2}", frame_body_bytes as f64 / crc_secs / 1e9),
                ),
        )
        .field(
            "budget_frame_encode_bytes_per_body_byte",
            BUDGET_FRAME_ENCODE,
        )
        .at_most(
            "budget_frame_encode_bytes_per_body_byte",
            per_body_byte(&frame_encode),
        )
        .field(
            "budget_frame_decode_bytes_per_body_byte",
            BUDGET_FRAME_DECODE,
        )
        .at_most(
            "budget_frame_decode_bytes_per_body_byte",
            per_body_byte(&frame_decode),
        )
        .exact("partial_frame_body_bytes", partial_body_bytes)
        .object(
            "partial_read_decode",
            region(&partial_decode).field(
                "bytes_per_body_byte",
                format!("{partial_per_body_byte:.3}"),
            ),
        )
        .field(
            "budget_partial_decode_bytes_per_body_byte",
            BUDGET_PARTIAL_DECODE,
        )
        .at_most(
            "budget_partial_decode_bytes_per_body_byte",
            partial_per_body_byte,
        )
}

fn main() {
    harness::main("hotpath", true, run);
}
