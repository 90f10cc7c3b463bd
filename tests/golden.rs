//! Golden-report regression tests: the canonical JSON of three fixture
//! fleets is pinned byte-for-byte under `tests/golden/`.
//!
//! Any behavioural change to the pipeline — a different tie-break, a
//! reordered map iteration, a float computed in another order — shows
//! up here as a byte diff. To accept an intentional change, regenerate
//! the files and review the diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use energydx_suite::energydx::shard::ShardPartial;
use energydx_suite::energydx::{AnalysisConfig, DiagnosisInput, EnergyDx};
use energydx_suite::energydx_fleetd::cluster::{
    InProcessTransport, WorkerSlot, WorkerTransport,
};
use energydx_suite::energydx_fleetd::coordinator::{
    Coordinator, CoordinatorConfig,
};
use energydx_suite::energydx_fleetd::fixture;
use energydx_suite::energydx_fleetd::protocol::{Request, Response};
use energydx_suite::energydx_fleetd::server::{FleetdHandle, ServerConfig};
use energydx_suite::energydx_fleetd::{Dispatch, RetryBudget};
use energydx_suite::energydx_obsv::MetricsRegistry;
use energydx_suite::energydx_regress::{
    compare, regression_json, RegressConfig,
};
use energydx_suite::energydx_report;
use energydx_suite::energydx_segment;
use energydx_suite::energydx_workload::release_fleet;
use energydx_suite::fixtures::{chaos_fleet, fig6_fleet, k9_fleet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn golden_path(name: &str) -> PathBuf {
    golden_file(&format!("{name}.json"))
}

fn golden_file(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn check_golden_bytes(name: &str, json: &str) {
    check_golden_file(&format!("{name}.json"), json);
}

/// Pins `text` to `tests/golden/<file>` byte for byte, honouring
/// `UPDATE_GOLDEN` — the artifact-agnostic core of
/// [`check_golden_bytes`], for goldens that are not JSON documents.
fn check_golden_file(file: &str, text: &str) {
    let path = golden_file(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden`",
            path.display()
        )
    });
    assert!(
        text == expected,
        "{file} drifted from {}; if the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test golden` \
         and review the diff",
        path.display()
    );
}

fn check_golden(name: &str, input: &DiagnosisInput) {
    let json = EnergyDx::default().diagnose(input).to_canonical_json();
    check_golden_bytes(name, &json);
}

#[test]
fn fig6_report_matches_golden() {
    check_golden("fig6", &fig6_fleet());
}

#[test]
fn k9_report_matches_golden() {
    check_golden("k9", &k9_fleet());
}

#[test]
fn chaos_report_matches_golden() {
    check_golden("chaos", &chaos_fleet());
}

/// The spilled path — fleets written to on-disk segments,
/// read back run by run and merged in sequence order — must reproduce
/// the **same pinned bytes** as the resident path.
/// This is the `analyze --bundles <segment dir>` dataflow without the
/// process boundary.
#[test]
fn streamed_segments_reproduce_the_goldens_byte_for_byte() {
    let fixtures = [
        ("fig6", fig6_fleet()),
        ("k9", k9_fleet()),
        ("chaos", chaos_fleet()),
    ];
    let dir = std::env::temp_dir()
        .join(format!("energydx-golden-stream-{}", std::process::id()));
    for (name, input) in fixtures {
        let spool = dir.join(name);
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).unwrap();
        let dx = EnergyDx::default();
        let traces = input.traces();
        // Three contiguous runs, like three spill passes over one
        // growing epoch.
        let cut_a = traces.len() / 3;
        let cut_b = 2 * traces.len() / 3;
        for (seq, (start, end)) in [
            (0usize, (0, cut_a)),
            (1, (cut_a, cut_b)),
            (2, (cut_b, traces.len())),
        ] {
            let partial = dx.map_shard(&traces[start..end], start);
            energydx_segment::save_to(
                &spool.join(format!("run-{seq:012}.seg")),
                &partial.to_parts(),
            )
            .unwrap();
        }
        let mut runs: Vec<PathBuf> = std::fs::read_dir(&spool)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        runs.sort();
        let fold = runs.iter().fold(ShardPartial::empty(), |fold, run| {
            fold.merge(energydx_segment::load_from(run).unwrap())
        });
        let streamed = dx.finish(fold).unwrap().to_canonical_json();
        let expected = std::fs::read_to_string(golden_path(name)).unwrap();
        assert!(
            streamed == expected,
            "{name}: the streamed-segment path drifted from the pinned \
             golden bytes"
        );
        let _ = std::fs::remove_dir_all(&spool);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The release-gate answer over the ground-truth fleet, pinned byte
/// for byte: every [`release_fleet`] case's differential report under
/// the default thresholds, keyed by case name. Any change to the
/// detector's math, its rendering, or the ground-truth workloads shows
/// up here as a byte diff — including a treatment quietly losing its
/// `regressed` verdict or a control gaining one.
#[test]
fn release_fleet_regressions_match_golden() {
    let cases = release_fleet();
    let mut doc = String::from("{\n");
    for (i, case) in cases.iter().enumerate() {
        let pair = case.collect_pair().expect("ground-truth cases are valid");
        let config = AnalysisConfig::default()
            .with_developer_fraction(case.scenario.developer_fraction());
        let dx = EnergyDx::new(config);
        let v1 = dx.diagnose(&pair.v1.diagnosis_input());
        let v2 = dx.diagnose(&pair.v2.diagnosis_input());
        let report = compare("v1", &v1, "v2", &v2, &RegressConfig::default());
        doc.push_str(&format!(
            "  \"{}\": {}{}\n",
            case.name,
            regression_json(&report).trim_end(),
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    doc.push_str("}\n");
    check_golden_bytes("regressions", &doc);
}

/// A degraded cluster's differential answer, pinned byte for byte: a
/// 3-worker cluster loses one worker to kill -9, and the coordinator
/// must *name* the missing shard while still serving the survivors'
/// deterministic comparison — so neither the `Degraded` shape nor the
/// partial answer's bytes can silently change.
#[test]
fn degraded_cluster_regressions_answer_matches_golden() {
    let slots: Vec<WorkerSlot> = (0..3)
        .map(|_| {
            let handle =
                FleetdHandle::start(ServerConfig::default()).expect("worker");
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
    let config = CoordinatorConfig {
        retry: RetryBudget {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        },
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::new(config, transports).expect("cluster");
    for i in 0..24u64 {
        let version = if i % 2 == 0 { "1.9.0" } else { "2.0.0" };
        let payload = fixture::payload_versioned(
            &format!("u{:02}", i / 4),
            i % 4,
            version,
        );
        match coordinator.submit("app", payload) {
            Response::Outcome { .. } => {}
            other => panic!("unexpected submit response {other:?}"),
        }
    }
    // kill -9 one worker: the answer must degrade, not guess.
    slots[1].lock().unwrap().take();
    let response = coordinator.handle_request(Request::Regressions {
        app: "app".to_string(),
        epoch: None,
        from: "1.9.0".to_string(),
        to: "2.0.0".to_string(),
        threshold: None,
    });
    let (missing, json) = match response {
        Response::Degraded { missing, json } => (missing, json),
        other => panic!("expected a degraded answer, got {other:?}"),
    };
    assert_eq!(missing, vec![1], "the lost shard must be named");
    let doc = format!(
        "{{\n  \"missing\": {missing:?},\n  \"report\": {}\n}}\n",
        json.trim_end()
    );
    check_golden_bytes("regressions_degraded", &doc);
}

/// A degraded cluster's operator report, pinned byte for byte — both
/// artifacts: a 3-worker cluster loses one worker to kill -9, and the
/// cluster-wide report must carry the survivors' exact analytics while
/// *naming* the missing shard in the HTML banner and the JSON
/// `degraded` block. The coordinator renders under a deterministic
/// registry (the in-process stand-in for
/// `ENERGYDX_DETERMINISTIC_TIME=1`), so the deployment panel pins and
/// every byte is a pure function of the script below.
#[test]
fn degraded_cluster_report_matches_golden() {
    let slots: Vec<WorkerSlot> = (0..3)
        .map(|_| {
            let handle =
                FleetdHandle::start(ServerConfig::default()).expect("worker");
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
    let config = CoordinatorConfig {
        retry: RetryBudget {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        },
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::with_registry(
        config,
        transports,
        Arc::new(MetricsRegistry::deterministic()),
    )
    .expect("cluster");
    for i in 0..24u64 {
        let version = if i % 2 == 0 { "1.9.0" } else { "2.0.0" };
        let payload = fixture::payload_versioned(
            &format!("u{:02}", i / 4),
            i % 4,
            version,
        );
        match coordinator.submit("app", payload) {
            Response::Outcome { .. } => {}
            other => panic!("unexpected submit response {other:?}"),
        }
    }
    // kill -9 one worker: the report must degrade, not guess.
    slots[1].lock().unwrap().take();
    let (missing, html, json) =
        match coordinator.handle_request(Request::Report { top: Some(8) }) {
            Response::ReportArtifacts {
                missing,
                html,
                json,
            } => (missing, html, json),
            other => panic!("expected report artifacts, got {other:?}"),
        };
    assert_eq!(missing, vec![1], "the lost shard must be named");
    assert!(
        html.contains("Degraded: shard(s) 1 unreachable"),
        "the HTML banner must name the missing shard"
    );
    energydx_report::check_well_formed(&html)
        .expect("the degraded page stays well-formed");
    check_golden_file("report_degraded.html", &html);
    check_golden_bytes("report_degraded", &json);
}
