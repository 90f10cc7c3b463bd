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
//! Gates (`BENCH_cluster.json`): the accepted and quarantined counts
//! and the replicated bytes exactly (pure functions of the corpus), and
//! replicated checkpoints under `budget_replica_bytes_per_trace` — a
//! byte count, fully deterministic, so the gate cannot flake on machine
//! speed. The merged answer is asserted byte-identical to the batch
//! pipeline before any number is printed.

use energydx_bench::harness::{self, corpus, percentile, Report};
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
    let replica_per_trace = replica_bytes as f64 / accepted.max(1) as f64;
    Report::default()
        .field("workers", WORKERS)
        .field("uploads", payloads.len())
        .exact("accepted", accepted)
        .exact("quarantined", quarantined)
        .field(
            "uploads_per_sec",
            format!("{:.0}", payloads.len() as f64 / ingest_secs.max(1e-9)),
        )
        .field(
            "submit_p50_us",
            format!("{:.1}", percentile(&latencies_us, 0.50)),
        )
        .field(
            "submit_p99_us",
            format!("{:.1}", percentile(&latencies_us, 0.99)),
        )
        .field("ingest_secs", format!("{ingest_secs:.6}"))
        .field("query_secs", format!("{query_secs:.6}"))
        .field("replicate_secs", format!("{replicate_secs:.6}"))
        .object(
            "replica",
            Report::default()
                .exact("bytes", replica_bytes)
                .field("bytes_per_trace", format!("{replica_per_trace:.1}")),
        )
        // A byte count over a fixed corpus — deterministic, so the
        // margin only absorbs intentional checkpoint-format evolution.
        .field(
            "budget_replica_bytes_per_trace",
            (replica_per_trace * 1.5).ceil() as u64,
        )
        .at_most("budget_replica_bytes_per_trace", replica_per_trace)
}

fn main() {
    harness::main("cluster", false, |smoke, _| run(smoke));
}
