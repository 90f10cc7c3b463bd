//! Throughput/latency benchmark of the fleetd cluster path: an
//! in-process coordinator routing a deterministic fixture corpus (a
//! fraction damaged, as in the ingest bench) across three workers,
//! then answering one merged query and one replication sweep.
//!
//! Reported:
//!
//! - sustained `uploads_per_sec` through route → transport → worker
//!   submit → outcome, with p50/p99 end-to-end submit latency — the
//!   full coordinator hop, not just worker ingest;
//! - `query_secs` — one merged diagnose fanned across all shards and
//!   rebased into a single fleet answer;
//! - `replicate_secs` — one full checkpoint-replication sweep;
//! - `replica_bytes_per_trace` — total replicated checkpoint bytes
//!   over accepted traces, the deterministic regression gate.
//!
//! ```text
//! cluster [--smoke] [--write <path>] [--check <path>]
//! ```
//!
//! `--write` stores the report as JSON (see `BENCH_cluster.json` at
//! the repo root); `--check` re-runs the measurement (smoke corpus)
//! and fails (exit 1) if the accepted and quarantined counts or the
//! replicated bytes differ from the stored report at all (they are
//! pure functions of the corpus), or if replicated checkpoints grow
//! past the stored `budget_replica_bytes_per_trace` — a byte count,
//! fully deterministic, so the gate cannot flake on machine speed. The
//! merged answer is asserted byte-identical to the batch pipeline
//! before any number is printed.

use energydx_bench::harness::{corpus, exact_fields_match, stored_u64};
use energydx_fleetd::cluster::shard_for_payload;
use energydx_fleetd::coordinator::{Coordinator, CoordinatorConfig};
use energydx_fleetd::protocol::{OutcomeCode, Request, Response};
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_fleetd::{
    Dispatch, FleetdHandle, InProcessTransport, ServerConfig, WorkerSlot,
    WorkerTransport,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const WORKERS: usize = 3;
const APP: &str = "bench";

struct Report {
    mode: &'static str,
    workers: usize,
    uploads: usize,
    accepted: usize,
    quarantined: usize,
    uploads_per_sec: f64,
    submit_p50_us: f64,
    submit_p99_us: f64,
    ingest_secs: f64,
    query_secs: f64,
    replicate_secs: f64,
    replica_bytes: usize,
    budget_replica_bytes_per_trace: u64,
}

impl Report {
    fn replica_bytes_per_trace(&self) -> f64 {
        self.replica_bytes as f64 / self.accepted.max(1) as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"workers\": {},\n  \
             \"uploads\": {},\n  \"accepted\": {},\n  \
             \"quarantined\": {},\n  \"uploads_per_sec\": {:.0},\n  \
             \"submit_p50_us\": {:.1},\n  \"submit_p99_us\": {:.1},\n  \
             \"ingest_secs\": {:.6},\n  \"query_secs\": {:.6},\n  \
             \"replicate_secs\": {:.6},\n  \"replica\": \
             {{\"bytes\": {}, \"bytes_per_trace\": {:.1}}},\n  \
             \"budget_replica_bytes_per_trace\": {}\n}}\n",
            self.mode,
            self.workers,
            self.uploads,
            self.accepted,
            self.quarantined,
            self.uploads_per_sec,
            self.submit_p50_us,
            self.submit_p99_us,
            self.ingest_secs,
            self.query_secs,
            self.replicate_secs,
            self.replica_bytes,
            self.replica_bytes_per_trace(),
            self.budget_replica_bytes_per_trace,
        )
    }
}

fn run(smoke: bool) -> Report {
    let (users, sessions) = if smoke { (48, 2) } else { (400, 5) };
    let payloads = corpus(users, sessions);

    let fleet = FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    };
    let slots: Vec<WorkerSlot> = (0..WORKERS)
        .map(|_| {
            let handle = FleetdHandle::start(ServerConfig {
                fleet: fleet.clone(),
                queue_depth: 16,
                ..ServerConfig::default()
            })
            .expect("no state dir, start cannot fail");
            Arc::new(Mutex::new(Some(Arc::new(handle))))
        })
        .collect();
    let transports: Vec<Box<dyn WorkerTransport>> = slots
        .iter()
        .map(|slot| {
            Box::new(InProcessTransport::new(Arc::clone(slot)))
                as Box<dyn WorkerTransport>
        })
        .collect();
    let coordinator = Coordinator::new(
        CoordinatorConfig {
            fleet: fleet.clone(),
            ..CoordinatorConfig::default()
        },
        transports,
    )
    .expect("in-memory replicas, startup cannot fail");

    // Ingest: one producer through the full coordinator hop.
    let mut latencies_us = Vec::with_capacity(payloads.len());
    let mut accepted = 0usize;
    let mut quarantined = 0usize;
    let t0 = Instant::now();
    for payload in &payloads {
        let t = Instant::now();
        let resp = coordinator.handle_request(Request::Submit {
            app: APP.to_string(),
            payload: payload.clone(),
        });
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        match resp {
            Response::Outcome {
                code: OutcomeCode::Rejected,
                ..
            } => quarantined += 1,
            Response::Outcome { .. } => accepted += 1,
            other => panic!("unexpected submit response: {other:?}"),
        }
    }
    let ingest_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let served = match coordinator.handle_request(Request::Diagnose {
        app: APP.to_string(),
        epoch: None,
    }) {
        Response::Report { json } => json,
        other => panic!("unexpected diagnose response: {other:?}"),
    };
    let query_secs = t0.elapsed().as_secs_f64();

    // The merged answer must equal one daemon fed the same payloads
    // in shard-partition order (the coordinator concatenates
    // per-worker accepted sequences by worker index) — the numbers
    // above are only worth publishing for a cluster that keeps the
    // batch-identity guarantee.
    let mut state = FleetState::new(fleet.clone());
    for shard in 0..WORKERS {
        for payload in &payloads {
            if shard_for_payload(APP, payload, &fleet.repair, WORKERS) == shard
            {
                black_box(state.submit(APP, payload));
            }
        }
    }
    let batch = state
        .diagnose_json(APP, None)
        .expect("reference diagnosis over the bench app");
    assert_eq!(served, batch, "cluster diverged from the batch pipeline");

    // One replication sweep, then the replicated bytes re-fetched
    // directly from each worker (identical checkpoints — the sweep
    // just moved them) for the deterministic size figure.
    let t0 = Instant::now();
    match coordinator.handle_request(Request::Checkpoint) {
        Response::Done => {}
        other => panic!("unexpected checkpoint response: {other:?}"),
    }
    let replicate_secs = t0.elapsed().as_secs_f64();
    let replica_bytes: usize = slots
        .iter()
        .map(|slot| {
            let handle =
                Arc::clone(slot.lock().unwrap().as_ref().expect("live worker"));
            match handle.handle_request(Request::FetchCheckpoint) {
                Response::CheckpointData { data } => data.len(),
                other => panic!("unexpected fetch response: {other:?}"),
            }
        })
        .sum();

    latencies_us.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let idx = ((latencies_us.len() as f64 * p) as usize)
            .min(latencies_us.len() - 1);
        latencies_us[idx]
    };

    let mut out = Report {
        mode: if smoke { "smoke" } else { "full" },
        workers: WORKERS,
        uploads: payloads.len(),
        accepted,
        quarantined,
        uploads_per_sec: payloads.len() as f64 / ingest_secs.max(1e-9),
        submit_p50_us: pct(0.50),
        submit_p99_us: pct(0.99),
        ingest_secs,
        query_secs,
        replicate_secs,
        replica_bytes,
        budget_replica_bytes_per_trace: 0,
    };
    // A byte count over a fixed corpus — deterministic, so the margin
    // only absorbs intentional checkpoint-format evolution.
    out.budget_replica_bytes_per_trace =
        (out.replica_bytes_per_trace() * 1.5).ceil() as u64;
    out
}

fn main() {
    let mut smoke = false;
    let mut write: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--write" => write = args.next(),
            "--check" => check = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: cluster [--smoke] [--write <path>] \
                     [--check <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    // The regression gate always runs the fast corpus: the budget is
    // checked in from a smoke run and per-trace figures are
    // size-stable.
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
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let exact = exact_fields_match(
            &stored,
            &[
                (&["accepted"], report.accepted as u64),
                (&["quarantined"], report.quarantined as u64),
                (&["replica", "bytes"], report.replica_bytes as u64),
            ],
        );
        if !exact {
            std::process::exit(1);
        }
        let budget = stored_u64(&stored, &["budget_replica_bytes_per_trace"])
            .unwrap_or_else(|| {
                panic!("no budget_replica_bytes_per_trace in {path}")
            });
        let measured = report.replica_bytes_per_trace();
        if measured > budget as f64 {
            eprintln!(
                "replica regression: {measured:.1} bytes/trace exceeds \
                 the checked-in budget of {budget}"
            );
            std::process::exit(1);
        }
        eprintln!(
            "replicas within budget: {measured:.1} <= {budget} bytes/trace"
        );
    }
}
