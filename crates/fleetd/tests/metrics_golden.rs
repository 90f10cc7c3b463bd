//! Golden test for the Prometheus exposition: a fixed ingest script
//! against a deterministic registry must render byte-for-byte stable
//! text, release after release.
//!
//! Durations are pinned to zero by [`MetricsRegistry::deterministic`]
//! (the same switch `ENERGYDX_DETERMINISTIC_TIME=1` flips for a live
//! daemon), so the only moving parts are counters, gauges, and bucket
//! counts — all pure functions of the script below. To accept an
//! intentional change, regenerate and review the diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p energydx-fleetd --test metrics_golden
//! ```

use energydx_fleetd::fixture;
use energydx_fleetd::{
    checkpoint_bytes, render_metrics, FleetConfig, FleetState, IngestQueue,
};
use energydx_obsv::{parse_exposition, Metrics, MetricsRegistry};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.prom")
}

/// The fixed scenario: clean uploads for two apps, one duplicate, one
/// undecodable payload, a rollover, a diagnosis, two
/// version-stamped uploads with a differential query, a checkpoint,
/// and one shed on a depth-1 queue sharing the registry.
fn scripted_exposition() -> String {
    let reg = Arc::new(MetricsRegistry::deterministic());
    let mut state =
        FleetState::with_registry(FleetConfig::default(), Arc::clone(&reg));
    for session in 0..4 {
        assert!(state
            .submit("mail", &fixture::payload("u1", session))
            .accepted());
    }
    for session in 0..2 {
        assert!(state
            .submit("gps", &fixture::payload("u2", session))
            .accepted());
    }
    // Quarantines: an exact duplicate and a truncated payload.
    assert!(!state.submit("mail", &fixture::payload("u1", 0)).accepted());
    let mut corrupt = fixture::payload("u3", 0);
    corrupt.truncate(6);
    assert!(!state.submit("mail", &corrupt).accepted());
    state.rollover("mail");
    assert!(state.submit("mail", &fixture::payload("u1", 9)).accepted());
    state.diagnose_json("mail", Some(0)).expect("report");
    // Version-stamped uploads and one differential query: the regress
    // counter, its per-verdict counter, and the regress stage of the
    // duration histogram must all render.
    for (session, version) in [(20, "1.9.0"), (21, "2.0.0")] {
        assert!(state
            .submit("mail", &fixture::payload_versioned("u4", session, version))
            .accepted());
    }
    state
        .regressions_json(
            "mail",
            None,
            "1.9.0",
            "2.0.0",
            &energydx_regress::RegressConfig::default(),
        )
        .expect("differential report");
    // One operator-report render: the renders counter, its duration
    // histogram, and the build-info gauge must all reach the
    // exposition.
    energydx_fleetd::report::fleet_report(&state, 0, None)
        .expect("operator report");
    let ckpt = checkpoint_bytes(&state);
    assert!(!ckpt.is_empty());
    let queue = IngestQueue::with_metrics(1, Metrics::enabled(reg));
    let _keep = queue.submit("mail");
    let _shed = queue.submit("mail");
    render_metrics(&state, &queue, Some(0.0))
}

#[test]
fn exposition_matches_golden_byte_for_byte() {
    let text = scripted_exposition();
    // Structural sanity independent of the pinned bytes.
    let samples = parse_exposition(&text).expect("valid exposition");
    assert_eq!(
        samples.get("fleetd_uploads_total;outcome=clean").copied(),
        Some(9.0)
    );
    assert_eq!(
        samples
            .get("fleetd_uploads_quarantined_total;reason=duplicate")
            .copied(),
        Some(1.0)
    );
    assert_eq!(samples.get("fleetd_uploads_shed_total").copied(), Some(1.0));
    assert_eq!(
        samples.get("fleetd_checkpoint_saves_total").copied(),
        Some(1.0)
    );
    assert!(samples.get("fleetd_checkpoint_size_bytes").copied() > Some(0.0));
    assert_eq!(
        samples.get("fleetd_checkpoint_age_seconds").copied(),
        Some(0.0)
    );
    assert_eq!(samples.get("fleetd_queue_depth").copied(), Some(1.0));
    assert_eq!(
        samples
            .get("energydx_stage_duration_seconds_sum;stage=ingest")
            .copied(),
        Some(0.0),
        "deterministic time must pin stage sums to zero"
    );
    assert_eq!(
        samples.get("fleetd_regress_queries_total").copied(),
        Some(1.0)
    );
    assert!(
        samples
            .keys()
            .any(|k| k.starts_with("fleetd_regress_verdicts_total")),
        "the differential query must record a verdict"
    );
    assert_eq!(
        samples
            .get("energydx_stage_duration_seconds_sum;stage=regress")
            .copied(),
        Some(0.0),
        "the regress stage must land in the duration histogram"
    );
    assert_eq!(
        samples.get("fleetd_report_renders_total").copied(),
        Some(1.0)
    );
    assert_eq!(
        samples
            .get("fleetd_report_render_duration_seconds_sum")
            .copied(),
        Some(0.0),
        "deterministic time must pin the report render duration to zero"
    );
    assert_eq!(
        samples
            .get(&format!(
                "energydx_build_info;version={}",
                env!("CARGO_PKG_VERSION")
            ))
            .copied(),
        Some(1.0),
        "the build-info gauge must carry the crate version"
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
             cargo test -p energydx-fleetd --test metrics_golden`",
            path.display()
        )
    });
    assert!(
        text == expected,
        "exposition drifted from {}; if intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p energydx-fleetd --test \
         metrics_golden` and review the diff\n--- got ---\n{text}",
        path.display()
    );
}

#[test]
fn exposition_is_reproducible_within_a_process() {
    assert_eq!(scripted_exposition(), scripted_exposition());
}
