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
//! ```text
//! hotpath [--smoke] [--obsv] [--write <path>] [--check <path>]
//! ```
//!
//! A second pair of regions measures the daemon's wire framing: one
//! 2 MiB `Response::Report` through `Response::encode`, then through
//! `read_frame` + `Response::decode`, each reported as bytes allocated
//! per body byte. A frame built in one buffer costs ~1 body copy to
//! encode and ~2 to receive (the frame body, then the decoded string).
//!
//! `--smoke` shrinks the fleet for CI; `--write` stores the report as
//! JSON (see `BENCH_hotpath.json` at the repo root); `--check` re-runs
//! the measurement and fails (exit 1) if bytes allocated per instance
//! on the hot path exceed the `budget_bytes_per_instance` recorded in
//! the given JSON file, or either frame region exceeds its
//! `budget_frame_*_bytes_per_body_byte`, or if a corpus-determined
//! field (traces, instances, vocab, frame body bytes) differs from the
//! stored one — the CI regression gate. Allocator counts repeat
//! exactly, so the gate does not flake.
//! `--obsv` attaches a live metrics registry to the pipeline, so the
//! measured regions include the per-stage span instrumentation;
//! `--obsv --check` against the stored budget is the metrics-overhead
//! gate.

use energydx::pipeline::{
    step2_rank, step3_normalize, step4_detect, step5_report, EventGroups,
};
use energydx::{AnalysisConfig, DiagnosisInput, EnergyDx};
use energydx_bench::harness::{exact_fields_match, stored_f64};
use energydx_fleetd::protocol::{read_frame, Response};
use energydx_trace::event::{Direction, EventRecord, EventTrace};
use energydx_trace::join_power;
use energydx_trace::power::{PowerSample, PowerTrace};
use energydx_trace::util::Component;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts calls and requested bytes.
/// `Relaxed` is sufficient: the benchmark reads the counters only
/// around single-threaded regions (`jobs = 1`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter
// updates have no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: Layout,
        new_size: usize,
    ) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls, bytes, and wall seconds of one closure run.
#[derive(Debug, Clone, Copy)]
struct Region {
    allocs: u64,
    bytes: u64,
    secs: f64,
}

fn measured<R>(f: impl FnOnce() -> R) -> (R, Region) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let result = f();
    let secs = t0.elapsed().as_secs_f64();
    let region = Region {
        allocs: ALLOCS.load(Ordering::Relaxed) - a0,
        bytes: BYTES.load(Ordering::Relaxed) - b0,
        secs,
    };
    (result, region)
}

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

/// JSON bytes of the framed `Report` the frame regions move.
const FRAME_JSON_BYTES: usize = 2 << 20;
/// Allocation budgets of the frame regions, in bytes per body byte:
/// one body copy to encode, two to receive, plus a tenth of headroom.
const BUDGET_FRAME_ENCODE: f64 = 1.1;
const BUDGET_FRAME_DECODE: f64 = 2.1;

/// The frame regions: encode, then read + decode, of one `Report`.
/// Returns the frame's body length with the two regions.
fn frame_regions() -> (usize, Region, Region) {
    let unit = "{\"amplitudes\": [1.5, 2.25, 3.125]}\n";
    let resp = Response::Report {
        json: unit.repeat(FRAME_JSON_BYTES / unit.len()),
    };
    let (bytes, encode) = measured(|| resp.encode());
    let ((body, decoded), decode) = measured(|| {
        let frame = read_frame(&mut bytes.as_slice())
            .expect("frame reads")
            .expect("one frame");
        let decoded = Response::decode(&frame).expect("frame decodes");
        (frame.body.len(), decoded)
    });
    assert_eq!(decoded, resp, "frame round trip");
    (body, encode, decode)
}

struct Report {
    mode: &'static str,
    traces: usize,
    instances: usize,
    joins_per_sec: f64,
    join: Region,
    reference: Region,
    hotpath: Region,
    render: Region,
    diagnose_secs: f64,
    budget_bytes_per_instance: u64,
    frame_body_bytes: usize,
    frame_encode: Region,
    frame_decode: Region,
}

impl Report {
    fn reduction_allocs(&self) -> f64 {
        let hot = (self.hotpath.allocs as f64).max(1.0);
        self.reference.allocs as f64 / hot
    }

    fn reduction_bytes(&self) -> f64 {
        let hot = (self.hotpath.bytes as f64).max(1.0);
        self.reference.bytes as f64 / hot
    }

    fn hotpath_bytes_per_instance(&self) -> f64 {
        self.hotpath.bytes as f64 / self.instances as f64
    }

    fn per_body_byte(&self, r: &Region) -> f64 {
        r.bytes as f64 / self.frame_body_bytes as f64
    }

    fn to_json(&self) -> String {
        let per = |r: &Region| {
            format!(
                "{{\"secs\": {:.6}, \"allocs\": {}, \"bytes\": {}, \
                 \"allocs_per_instance\": {:.3}, \
                 \"bytes_per_instance\": {:.1}}}",
                r.secs,
                r.allocs,
                r.bytes,
                r.allocs as f64 / self.instances as f64,
                r.bytes as f64 / self.instances as f64,
            )
        };
        let frame = |r: &Region| {
            format!(
                "{{\"secs\": {:.6}, \"allocs\": {}, \"bytes\": {}, \
                 \"bytes_per_body_byte\": {:.3}}}",
                r.secs,
                r.allocs,
                r.bytes,
                self.per_body_byte(r),
            )
        };
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"traces\": {},\n  \
             \"instances\": {},\n  \"vocab\": {},\n  \
             \"joins_per_sec\": {:.0},\n  \"step1_join\": {},\n  \
             \"reference_steps2_5\": {},\n  \"hotpath_steps2_5\": {},\n  \
             \"render\": {},\n  \"diagnose_secs\": {:.6},\n  \
             \"reduction_allocs_per_instance\": {:.2},\n  \
             \"reduction_bytes_per_instance\": {:.2},\n  \
             \"budget_bytes_per_instance\": {},\n  \
             \"frame_body_bytes\": {},\n  \"frame_encode\": {},\n  \
             \"frame_read_decode\": {},\n  \
             \"budget_frame_encode_bytes_per_body_byte\": {},\n  \
             \"budget_frame_decode_bytes_per_body_byte\": {}\n}}\n",
            self.mode,
            self.traces,
            self.instances,
            VOCAB.len(),
            self.joins_per_sec,
            per(&self.join),
            per(&self.reference),
            per(&self.hotpath),
            per(&self.render),
            self.diagnose_secs,
            self.reduction_allocs(),
            self.reduction_bytes(),
            self.budget_bytes_per_instance,
            self.frame_body_bytes,
            frame(&self.frame_encode),
            frame(&self.frame_decode),
            BUDGET_FRAME_ENCODE,
            BUDGET_FRAME_DECODE,
        )
    }
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

    let (report, render) = measured(|| dx.render(analyzed));

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

    let (frame_body_bytes, frame_encode, frame_decode) = frame_regions();

    let mut out = Report {
        mode: if smoke { "smoke" } else { "full" },
        traces: users,
        instances,
        joins_per_sec: instances as f64 / join.secs.max(1e-9),
        join,
        reference,
        hotpath,
        render,
        diagnose_secs,
        budget_bytes_per_instance: 0,
        frame_body_bytes,
        frame_encode,
        frame_decode,
    };
    // Regression budget: double the measured footprint, so the gate
    // trips on an accidental return to per-instance cloning without
    // flaking on allocator jitter.
    out.budget_bytes_per_instance =
        (out.hotpath_bytes_per_instance() * 2.0).ceil() as u64;
    out
}

fn main() {
    let mut smoke = false;
    let mut obsv = false;
    let mut write: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--obsv" => obsv = true,
            "--write" => write = args.next(),
            "--check" => check = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: hotpath [--smoke] [--obsv] [--write <path>] \
                     [--check <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    // The regression gate always runs the fast fleet: the budget is
    // checked in from a smoke run and per-instance figures are
    // size-stable.
    if check.is_some() {
        smoke = true;
    }

    let report = run(smoke, obsv);
    print!("{}", report.to_json());
    if report.reduction_allocs() < 5.0 {
        eprintln!(
            "warning: Steps 2-5 allocation reduction {:.2}x is below \
             the 5x target",
            report.reduction_allocs()
        );
    }

    if let Some(path) = write {
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if let Some(path) = check {
        let stored = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let budget = |key: &str| {
            stored_f64(&stored, &[key])
                .unwrap_or_else(|| panic!("no {key} in {path}"))
        };
        let gates = [
            (
                "hot path",
                report.hotpath_bytes_per_instance(),
                budget("budget_bytes_per_instance"),
                "bytes/instance",
            ),
            (
                "frame encode",
                report.per_body_byte(&report.frame_encode),
                budget("budget_frame_encode_bytes_per_body_byte"),
                "bytes allocated per body byte",
            ),
            (
                "frame read + decode",
                report.per_body_byte(&report.frame_decode),
                budget("budget_frame_decode_bytes_per_body_byte"),
                "bytes allocated per body byte",
            ),
        ];
        let mut failed = !exact_fields_match(
            &stored,
            &[
                (&["traces"], report.traces as u64),
                (&["instances"], report.instances as u64),
                (&["vocab"], VOCAB.len() as u64),
                (&["frame_body_bytes"], report.frame_body_bytes as u64),
            ],
        );
        for (what, measured, budget, unit) in gates {
            if measured > budget {
                eprintln!(
                    "{what} regression: {measured:.3} {unit} exceeds the \
                     checked-in budget of {budget}"
                );
                failed = true;
            } else {
                eprintln!(
                    "{what} within budget: {measured:.3} <= {budget} {unit}"
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
