//! Golden test for the coordinator's Prometheus exposition: a fixed
//! cluster script — routed uploads, a replication sweep, a dead
//! worker, a degraded query, a blank replacement seeded by handoff —
//! against a deterministic registry must render byte-for-byte stable
//! text, release after release.
//!
//! Durations are pinned to zero by [`MetricsRegistry::deterministic`]
//! and every retry runs with zero backoff, so the only moving parts
//! are counters and gauges — all pure functions of the script below.
//! To accept an intentional change, regenerate and review the diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p energydx-fleetd \
//!     --test cluster_metrics_golden
//! ```

use energydx_fleetd::cluster::{
    shard_for_payload, InProcessTransport, WorkerSlot, WorkerTransport,
};
use energydx_fleetd::coordinator::{Coordinator, CoordinatorConfig};
use energydx_fleetd::fixture;
use energydx_fleetd::protocol::{Request, Response};
use energydx_fleetd::server::{FleetdHandle, ServerConfig};
use energydx_fleetd::{Dispatch, RetryBudget};
use energydx_obsv::{parse_exposition, MetricsRegistry};
use energydx_trace::RepairPolicy;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const WORKERS: usize = 3;
const APP: &str = "mail";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/cluster_metrics.prom")
}

fn blank_worker() -> Arc<FleetdHandle> {
    Arc::new(FleetdHandle::start(ServerConfig::default()).expect("worker"))
}

/// The fixed scenario, written against the dispatcher interface so
/// the per-request-kind histogram is exercised exactly as a served
/// cluster would.
fn scripted_exposition() -> String {
    let reg = Arc::new(MetricsRegistry::deterministic());
    let slots: Vec<WorkerSlot> = (0..WORKERS)
        .map(|_| Arc::new(Mutex::new(Some(blank_worker()))))
        .collect();
    let transports: Vec<Box<dyn WorkerTransport>> = slots
        .iter()
        .map(|slot| {
            Box::new(InProcessTransport::new(Arc::clone(slot)))
                as Box<dyn WorkerTransport>
        })
        .collect();
    let config = CoordinatorConfig {
        retry: RetryBudget {
            max_attempts: 2,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        },
        ..CoordinatorConfig::default()
    };
    let coordinator =
        Coordinator::with_registry(config, transports, Arc::clone(&reg))
            .expect("cluster");

    // Eight uploads across eight users: enough that every shard owns
    // at least one (asserted below — the handoff depends on it).
    let repair = RepairPolicy::default();
    let mut routed = vec![0usize; WORKERS];
    for user in 0..8u64 {
        let payload = fixture::payload(&format!("u{user}"), 0);
        routed[shard_for_payload(APP, &payload, &repair, WORKERS)] += 1;
        let resp = coordinator.handle_request(Request::Submit {
            app: APP.to_string(),
            payload,
        });
        assert!(matches!(resp, Response::Outcome { .. }), "{resp:?}");
    }
    assert!(routed.iter().all(|&n| n > 0), "uneven script: {routed:?}");

    // One full answer, then a replication sweep.
    let full = match coordinator.handle_request(Request::Diagnose {
        app: APP.to_string(),
        epoch: None,
    }) {
        Response::Report { json } => json,
        other => panic!("unexpected {other:?}"),
    };
    assert!(matches!(
        coordinator.handle_request(Request::Checkpoint),
        Response::Done
    ));

    // Kill worker 2: a query degrades explicitly, a submit owned by
    // the dead shard comes back as backpressure.
    let killed = slots[2].lock().unwrap().take().expect("live worker");
    drop(killed);
    assert!(matches!(
        coordinator.handle_request(Request::Diagnose {
            app: APP.to_string(),
            epoch: None,
        }),
        Response::Degraded { .. }
    ));
    let dead_shard_payload = (0..64u64)
        .map(|user| fixture::payload(&format!("d{user}"), 0))
        .find(|p| shard_for_payload(APP, p, &repair, WORKERS) == 2)
        .expect("some payload routes to shard 2");
    assert!(matches!(
        coordinator.handle_request(Request::Submit {
            app: APP.to_string(),
            payload: dead_shard_payload,
        }),
        Response::RetryAfter { .. }
    ));

    // A blank replacement: the next query probes, hands the replica
    // off, and serves the same bytes as before the crash.
    *slots[2].lock().unwrap() = Some(blank_worker());
    match coordinator.handle_request(Request::Diagnose {
        app: APP.to_string(),
        epoch: None,
    }) {
        Response::Report { json } => assert_eq!(json, full),
        other => panic!("unexpected {other:?}"),
    }

    // Version-stamped uploads and one differential query through the
    // per-release fan-out: the coordinator-side regress counters and
    // the regress stage of the duration histogram must render.
    for (user, version) in [("v1", "1.9.0"), ("v2", "2.0.0")] {
        let resp = coordinator.handle_request(Request::Submit {
            app: APP.to_string(),
            payload: fixture::payload_versioned(user, 0, version),
        });
        assert!(matches!(resp, Response::Outcome { .. }), "{resp:?}");
    }
    match coordinator.handle_request(Request::Regressions {
        app: APP.to_string(),
        epoch: None,
        from: "1.9.0".to_string(),
        to: "2.0.0".to_string(),
        threshold: None,
    }) {
        Response::Report { .. } => {}
        other => panic!("unexpected {other:?}"),
    }

    // One cluster-wide operator report through the dispatcher: the
    // report render counters and its request-kind histogram must
    // render.
    match coordinator.handle_request(Request::Report { top: None }) {
        Response::ReportArtifacts { missing, .. } => {
            assert!(missing.is_empty(), "whole cluster, nothing missing")
        }
        other => panic!("unexpected {other:?}"),
    }

    match coordinator.handle_request(Request::Metrics) {
        Response::Metrics { text } => text,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn cluster_exposition_matches_golden_byte_for_byte() {
    let text = scripted_exposition();
    // Structural sanity independent of the pinned bytes.
    let samples = parse_exposition(&text).expect("valid exposition");
    // Routing decisions, not deliveries: the eight accepted uploads,
    // the one that came back as backpressure from the dead shard, and
    // the two version-stamped uploads.
    let routed_total: f64 = (0..WORKERS)
        .filter_map(|k| {
            samples
                .get(&format!("cluster_submits_routed_total;worker={k}"))
                .copied()
        })
        .sum();
    assert_eq!(routed_total, 11.0, "{text}");
    assert_eq!(
        samples.get("cluster_replications_total;worker=1").copied(),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        samples.get("cluster_handoffs_total;worker=2").copied(),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        samples.get("cluster_degraded_queries_total").copied(),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        samples
            .get("cluster_submits_unavailable_total;worker=2")
            .copied(),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        samples.get("cluster_worker_healthy;worker=2").copied(),
        Some(1.0),
        "a handed-off replacement must report healthy: {text}"
    );
    assert_eq!(
        samples
            .get("cluster_request_duration_seconds_sum;kind=diagnose")
            .copied(),
        Some(0.0),
        "deterministic time must pin request durations to zero: {text}"
    );
    assert_eq!(
        samples.get("fleetd_regress_queries_total").copied(),
        Some(1.0),
        "{text}"
    );
    assert!(
        samples
            .keys()
            .any(|k| k.starts_with("fleetd_regress_verdicts_total")),
        "the differential fan-out must record a verdict: {text}"
    );
    assert_eq!(
        samples.get("fleetd_report_renders_total").copied(),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        samples
            .get("cluster_request_duration_seconds_sum;kind=report")
            .copied(),
        Some(0.0),
        "the report request kind must land in the duration histogram: {text}"
    );
    assert_eq!(
        samples
            .get(&format!(
                "energydx_build_info;version={}",
                env!("CARGO_PKG_VERSION")
            ))
            .copied(),
        Some(1.0),
        "the build-info gauge must carry the crate version: {text}"
    );

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with `UPDATE_GOLDEN=1 \
             cargo test -p energydx-fleetd --test cluster_metrics_golden`",
            path.display()
        )
    });
    assert!(
        text == expected,
        "exposition drifted from {}; if intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p energydx-fleetd --test \
         cluster_metrics_golden` and review the diff\n--- got ---\n{text}",
        path.display()
    );
}

#[test]
fn cluster_exposition_is_reproducible_within_a_process() {
    assert_eq!(scripted_exposition(), scripted_exposition());
}
