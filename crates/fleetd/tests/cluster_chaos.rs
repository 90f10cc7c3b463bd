//! Cluster chaos: a 3-worker in-process cluster driven through
//! tampering transports (bit-flipped, truncated, and delayed
//! inter-node frames), with ~15% damaged upload payloads, a kill -9
//! mid-stream, and a blank replacement worker seeded by checkpoint
//! handoff. After the dust settles the coordinator's answer must be
//! **byte-identical** to a batch daemon fed the same payload bytes in
//! the same per-worker order — frame damage may cost retries and
//! resends, never correctness (worker-side dedup absorbs the
//! resends).

use energydx_fleetd::cluster::{
    shard_for_payload, InProcessTransport, Leg, WorkerSlot, WorkerTransport,
};
use energydx_fleetd::coordinator::{Coordinator, CoordinatorConfig};
use energydx_fleetd::fixture;
use energydx_fleetd::protocol::{Request, Response};
use energydx_fleetd::server::{FleetdHandle, ServerConfig};
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_fleetd::{Dispatch, RetryBudget};
use energydx_trace::RepairPolicy;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const APP: &str = "mail";
const WORKERS: usize = 3;

/// A deterministic frame tamper: while enabled, every 7th frame gets
/// one bit flipped mid-body, every 11th is truncated to half, and
/// every 13th is delayed a moment (a slow worker, not a dead one).
fn tamper(
    enabled: Arc<AtomicBool>,
    counter: Arc<AtomicU64>,
) -> Box<dyn FnMut(Vec<u8>, Leg) -> Vec<u8> + Send> {
    Box::new(move |mut frame, _leg| {
        if !enabled.load(Ordering::Relaxed) {
            return frame;
        }
        let n = counter.fetch_add(1, Ordering::Relaxed);
        match n % 35 {
            7 | 14 => {
                let mid = frame.len() / 2;
                frame[mid] ^= 0x10;
            }
            11 | 22 => frame.truncate(frame.len() / 2),
            13 => std::thread::sleep(std::time::Duration::from_millis(2)),
            _ => {}
        }
        frame
    })
}

struct Chaos {
    coordinator: Coordinator,
    slots: Vec<WorkerSlot>,
    tamper_on: Arc<AtomicBool>,
}

fn chaos_cluster() -> Chaos {
    let tamper_on = Arc::new(AtomicBool::new(true));
    let counter = Arc::new(AtomicU64::new(0));
    let slots: Vec<WorkerSlot> = (0..WORKERS)
        .map(|_| {
            let handle =
                FleetdHandle::start(ServerConfig::default()).expect("worker");
            Arc::new(Mutex::new(Some(Arc::new(handle))))
        })
        .collect();
    let transports: Vec<Box<dyn WorkerTransport>> = slots
        .iter()
        .map(|slot| {
            Box::new(InProcessTransport::new(Arc::clone(slot)).with_tamper(
                tamper(Arc::clone(&tamper_on), Arc::clone(&counter)),
            )) as Box<dyn WorkerTransport>
        })
        .collect();
    let config = CoordinatorConfig {
        retry: RetryBudget {
            max_attempts: 3,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        },
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::new(config, transports).expect("cluster");
    Chaos {
        coordinator,
        slots,
        tamper_on,
    }
}

/// The scripted uploads: 60 payloads over 10 users, every 7th
/// truncated (salvage or quarantine on the worker — either way
/// deterministic).
fn payloads() -> Vec<Vec<u8>> {
    (0..60u64)
        .map(|i| {
            let user = format!("u{:02}", i % 10);
            let mut payload = fixture::payload(&user, i / 10);
            if i % 7 == 3 {
                let keep = payload.len() - payload.len() / 4;
                payload.truncate(keep);
            }
            payload
        })
        .collect()
}

enum Drive {
    Landed,
    ShardDown,
}

/// Pushes one payload through the coordinator until the cluster has
/// durably classified it: accepted, quarantined, or already seen (a
/// resend of an upload whose response frame was damaged). A shard
/// that answers only `RetryAfter` is reported, never spun on.
fn drive_one(coordinator: &Coordinator, payload: &[u8]) -> Drive {
    for _ in 0..20 {
        match coordinator.submit(APP, payload.to_vec()) {
            Response::Outcome { .. } => return Drive::Landed,
            Response::RetryAfter { .. } => return Drive::ShardDown,
            Response::Error { .. } => continue, // damaged request frame
            other => panic!("unexpected submit response {other:?}"),
        }
    }
    panic!("an upload never settled under chaos");
}

/// The batch reference: one daemon fed the same bytes grouped by the
/// worker that owns them, in the per-worker arrival order the cluster
/// saw.
fn reference_json(per_worker: &[Vec<Vec<u8>>]) -> String {
    let mut state = FleetState::new(FleetConfig::default());
    for accepted in per_worker {
        for payload in accepted {
            state.submit(APP, payload);
        }
    }
    state.diagnose_json(APP, None).expect("reference diagnosis")
}

#[test]
fn chaos_schedule_stays_byte_identical_to_batch() {
    let cluster = chaos_cluster();
    let repair = RepairPolicy::default();
    let mut per_worker: Vec<Vec<Vec<u8>>> = vec![Vec::new(); WORKERS];
    let mut held_back: Vec<Vec<u8>> = Vec::new();

    let all = payloads();
    let (first_half, second_half) = all.split_at(all.len() / 2);

    // Phase 1: drive half the fleet through damaged frames.
    for payload in first_half {
        let shard = shard_for_payload(APP, payload, &repair, WORKERS);
        match drive_one(&cluster.coordinator, payload) {
            Drive::Landed => per_worker[shard].push(payload.clone()),
            Drive::ShardDown => panic!("no worker is down yet"),
        }
    }

    // Phase 2: kill -9 worker 1 mid-stream and keep driving. Uploads
    // owned by the dead shard come back as explicit backpressure.
    let killed = cluster.slots[1].lock().unwrap().take().expect("live");
    for payload in second_half {
        let shard = shard_for_payload(APP, payload, &repair, WORKERS);
        match drive_one(&cluster.coordinator, payload) {
            Drive::Landed => per_worker[shard].push(payload.clone()),
            Drive::ShardDown => {
                assert_eq!(shard, 1, "only the dead shard may push back");
                held_back.push(payload.clone());
            }
        }
    }
    assert!(
        !held_back.is_empty(),
        "the schedule must exercise the dead shard"
    );

    // Phase 3: the worker returns (state intact — a network partition,
    // not a disk loss). The held-back uploads drain in order.
    *cluster.slots[1].lock().unwrap() = Some(killed);
    for payload in &held_back {
        let shard = shard_for_payload(APP, payload, &repair, WORKERS);
        match drive_one(&cluster.coordinator, payload) {
            Drive::Landed => per_worker[shard].push(payload.clone()),
            Drive::ShardDown => panic!("revived shard still pushing back"),
        }
    }

    // Quiet the frames: the answer must be exact, not approximately
    // right. (Mid-chaos queries may degrade or error; they must never
    // be silently wrong, which the exact comparison below proves for
    // the surviving merge path.)
    cluster.tamper_on.store(false, Ordering::Relaxed);
    let expected = reference_json(&per_worker);
    match cluster.coordinator.diagnose(APP, None) {
        Response::Report { json } => assert_eq!(json, expected),
        other => panic!("unexpected response {other:?}"),
    }

    // Phase 4: replicate, kill -9 worker 0 for good, and seed a blank
    // replacement from the replica. The answer is unchanged.
    assert!(matches!(
        cluster.coordinator.replicate_all(),
        Response::Done
    ));
    cluster.slots[0].lock().unwrap().take();
    assert!(matches!(
        cluster.coordinator.diagnose(APP, None),
        Response::Degraded { .. }
    ));
    let blank = FleetdHandle::start(ServerConfig::default()).expect("blank");
    *cluster.slots[0].lock().unwrap() = Some(Arc::new(blank));
    match cluster.coordinator.diagnose(APP, None) {
        Response::Report { json } => assert_eq!(json, expected),
        other => panic!("unexpected response {other:?}"),
    }
}

/// Sanity under tamper alone: a query stream through damaged frames
/// either succeeds exactly or fails typed — across many attempts at
/// least one succeeds (retries work) and every success is identical.
#[test]
fn tampered_queries_are_exact_or_typed_errors() {
    let cluster = chaos_cluster();
    let repair = RepairPolicy::default();
    let mut per_worker: Vec<Vec<Vec<u8>>> = vec![Vec::new(); WORKERS];
    for payload in payloads().iter().take(20) {
        let shard = shard_for_payload(APP, payload, &repair, WORKERS);
        match drive_one(&cluster.coordinator, payload) {
            Drive::Landed => per_worker[shard].push(payload.clone()),
            Drive::ShardDown => panic!("no worker is down"),
        }
    }
    let expected = reference_json(&per_worker);
    let mut successes = 0;
    for _ in 0..12 {
        match cluster.coordinator.handle_request(Request::Diagnose {
            app: APP.to_string(),
            epoch: None,
        }) {
            Response::Report { json } => {
                assert_eq!(json, expected, "a damaged frame changed bytes");
                successes += 1;
            }
            Response::Degraded { json, .. } => {
                // A response-leg tamper can exhaust one shard's
                // retries; the partial answer is explicit and covers
                // the shards it names — never silently short.
                assert_ne!(json, "", "degraded answer must carry a report");
            }
            Response::Error { .. } | Response::RetryAfter { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(successes > 0, "retries never produced a full answer");
    assert_eq!(
        cluster.coordinator.handle_request(Request::Counts),
        Response::Error {
            message: "worker-only request sent to a coordinator".to_string()
        }
    );
}
