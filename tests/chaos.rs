//! Chaos test: a fifth of the fleet's uploads are corrupted in flight,
//! and the pipeline must degrade gracefully — no panics, every payload
//! accounted for, and a diagnosis within a few points of the clean run.

use energydx_suite::energydx::{AnalysisConfig, DiagnosisInput, EnergyDx};
use energydx_suite::energydx_powermodel::{
    scale_trace, DeviceProfile, PowerModel, UtilizationSampler,
};
use energydx_suite::energydx_trace::fault::FaultInjector;
use energydx_suite::energydx_trace::store::{TraceBundle, TraceStore};
use energydx_suite::energydx_trace::wire;
use energydx_suite::energydx_workload::{Scenario, SessionRunner};

const USERS: usize = 12;
const IMPACTED: usize = 4;

/// Phone side of the §II-B workflow: run every volunteer's session and
/// bundle the traces, exactly as the clean end-to-end test does.
fn collect_fleet_bundles() -> Vec<TraceBundle> {
    let mut scenario = Scenario::opengps();
    scenario.n_users = USERS;
    let module = Scenario::instrument(&scenario.faulty_module());
    let hooks = scenario.fault.faulty_hooks();
    let sampler = UtilizationSampler::default();

    (0..USERS)
        .map(|user| {
            let impacted = user < IMPACTED;
            let script = scenario.script_gen.generate(
                scenario.seed.wrapping_add(user as u64),
                if impacted { &scenario.trigger } else { &[] },
            );
            let device =
                energydx_suite::energydx_droidsim::Device::new(module.clone());
            let session = SessionRunner::new(device, hooks.clone())
                .run(&script)
                .unwrap();
            let mut bundle =
                TraceBundle::new(format!("volunteer-{user}"), 0, "nexus5");
            bundle.events = session.events;
            bundle.utilization =
                sampler.sample(&session.timeline, session.duration_ms);
            bundle
        })
        .collect()
}

/// Server side: power estimation + scaling per stored bundle, then the
/// 5-step diagnosis at the nominal developer fraction.
fn diagnose(
    bundles: &[TraceBundle],
) -> energydx_suite::energydx::DiagnosisReport {
    let reference = DeviceProfile::nexus6();
    let pairs: Vec<_> = bundles
        .iter()
        .map(|bundle| {
            let profile = DeviceProfile::by_name(&bundle.device);
            let model = PowerModel::new(profile.clone(), 99);
            let measured = model.estimate_trace(&bundle.utilization);
            let power = scale_trace(&measured, &profile, &reference);
            (bundle.events.clone(), power)
        })
        .collect();
    let input = DiagnosisInput::from_traces(&pairs);
    let config = AnalysisConfig::default()
        .with_developer_fraction(IMPACTED as f64 / USERS as f64);
    EnergyDx::new(config).diagnose(&input)
}

#[test]
fn corrupted_fleet_uploads_degrade_gracefully() {
    let scenario = {
        let mut s = Scenario::opengps();
        s.n_users = USERS;
        s
    };
    let code_index = scenario.code_index();
    let bundles = collect_fleet_bundles();

    // Clean baseline: every bundle survives the wire untouched.
    let clean_report = diagnose(&bundles);
    assert!(clean_report.manifestation_point_count() > 0);
    assert!(clean_report.stats.is_clean());
    let clean_reduction =
        code_index.code_reduction(clean_report.reported_events());

    // Chaos run: 20% of the fleet's payloads are corrupted in flight.
    let payloads: Vec<Vec<u8>> = bundles.iter().map(wire::encode_v2).collect();
    let injection = FaultInjector::new(6, 0.20).inject(payloads);
    assert!(
        injection.total_injected() > 0,
        "injector must actually fire"
    );
    let delivered = injection.payloads.len();

    let batches: Vec<Vec<Vec<u8>>> =
        injection.payloads.chunks(3).map(<[_]>::to_vec).collect();
    let store = std::sync::Arc::new(TraceStore::new());
    let report = store.ingest_wire_concurrently(batches);

    // Every delivered payload has exactly one outcome, and the store
    // plus the quarantine account for all of them.
    assert_eq!(report.total(), delivered);
    assert_eq!(report.accepted(), store.snapshot().len());
    assert_eq!(report.rejected(), store.quarantine_len());
    let counter_sum: usize = store.quarantine_counters().values().sum();
    assert_eq!(counter_sum, report.rejected());
    assert_eq!(report.accepted() + report.rejected(), delivered);
    // This seed exercises every fault kind: the truncated payload is
    // salvaged, the reordered and skewed ones repaired, the duplicate
    // quarantined — recovery and rejection paths both fire.
    assert!(report.recovered() > 0, "no salvage/repair exercised");
    assert!(report.rejected() > 0, "no quarantine exercised");

    // The diagnosis still completes without panicking, still finds the
    // anomaly, and lands within 5 points of the clean code reduction.
    let survivors = store.snapshot();
    assert!(survivors.len() >= USERS - injection.dropped() - report.rejected());
    let chaos_report = diagnose(&survivors);
    assert!(chaos_report.manifestation_point_count() > 0);
    let chaos_reduction =
        code_index.code_reduction(chaos_report.reported_events());
    assert!(
        (clean_reduction - chaos_reduction).abs() <= 0.05,
        "clean {clean_reduction:.3} vs chaos {chaos_reduction:.3}"
    );
}
