//! The differential harness: sequential, parallel, and
//! sharded-then-merged diagnosis must produce **byte-identical**
//! canonical reports for any input, any thread count, any shard split,
//! and any merge order.
//!
//! The comparison key is [`DiagnosisReport::to_canonical_json`] — a
//! byte string — so there is no tolerance to hide behind: one ULP of
//! drift anywhere in the pipeline fails the harness.
//!
//! [`DiagnosisReport::to_canonical_json`]:
//! energydx::DiagnosisReport::to_canonical_json

use energydx_suite::energydx::shard::ShardPartial;
use energydx_suite::energydx::{DiagnosisInput, DiagnosisReport, EnergyDx};
use energydx_suite::energydx_fleetd::checkpoint::{
    checkpoint_bytes, restore_bytes,
};
use energydx_suite::energydx_fleetd::convert::bundles_to_input;
use energydx_suite::energydx_fleetd::fixture;
use energydx_suite::energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_suite::energydx_trace::event::EventInstance;
use energydx_suite::energydx_trace::join::PoweredInstance;
use energydx_suite::energydx_trace::repair::RepairPolicy;
use energydx_suite::energydx_trace::store::{
    prepare_wire, PreparedUpload, TraceBundle,
};
use energydx_suite::fixtures::{chaos_fleet, fig6_fleet, k9_fleet};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Every fixture the harness sweeps: the paper's running example, a
/// full seeded case-study fleet, and a corrupted fleet that exercises
/// the sanitation paths.
fn fixtures() -> Vec<(&'static str, DiagnosisInput)> {
    vec![
        ("fig6", fig6_fleet()),
        ("k9", k9_fleet()),
        ("chaos", chaos_fleet()),
    ]
}

/// Deterministic SplitMix64-driven Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// Maps the fleet in segments split at `cuts` (indices into the trace
/// list), then merges the partials in a seed-shuffled order.
fn diagnose_split(
    dx: &EnergyDx,
    input: &DiagnosisInput,
    cuts: &[usize],
    merge_seed: u64,
) -> String {
    let traces = input.traces();
    let mut bounds: Vec<usize> = cuts
        .iter()
        .map(|&c| c.min(traces.len()))
        .chain([0, traces.len()])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut partials: Vec<ShardPartial> = bounds
        .windows(2)
        .map(|w| dx.map_shard(&traces[w[0]..w[1]], w[0]))
        .collect();
    shuffle(&mut partials, merge_seed);
    let merged = partials
        .into_iter()
        .fold(ShardPartial::empty(), ShardPartial::merge);
    dx.finish(merged)
        .expect("a partition of the fleet merges complete")
        .to_canonical_json()
}

#[test]
fn parallel_matches_sequential_reference_byte_for_byte() {
    for (name, input) in fixtures() {
        let reference = EnergyDx::default()
            .diagnose_reference(&input)
            .to_canonical_json();
        for jobs in [1usize, 2, 8] {
            let parallel = EnergyDx::default()
                .with_jobs(jobs)
                .diagnose(&input)
                .to_canonical_json();
            assert!(
                parallel == reference,
                "{name}: jobs={jobs} diverged from the reference"
            );
        }
    }
}

#[test]
fn sharded_matches_sequential_reference_byte_for_byte() {
    for (name, input) in fixtures() {
        let reference = EnergyDx::default()
            .diagnose_reference(&input)
            .to_canonical_json();
        for shards in 1..=6 {
            let sharded = EnergyDx::default()
                .diagnose_sharded(&input, shards)
                .to_canonical_json();
            assert!(
                sharded == reference,
                "{name}: shards={shards} diverged from the reference"
            );
        }
    }
}

#[test]
fn permuting_trace_order_does_not_change_the_diagnosis() {
    for (name, input) in fixtures() {
        let reference = EnergyDx::default().diagnose(&input);
        for seed in [1u64, 7, 0xfeed] {
            let mut order: Vec<usize> = (0..input.len()).collect();
            shuffle(&mut order, seed);
            let permuted_traces: Vec<_> =
                order.iter().map(|&i| input.traces()[i].clone()).collect();
            let permuted = EnergyDx::default()
                .diagnose(&DiagnosisInput::new(permuted_traces));

            // The fleet-level verdict is order-invariant: same ranked
            // events, same totals.
            assert_eq!(permuted.events, reference.events, "{name}/{seed}");
            assert_eq!(
                permuted.stats.total_traces, reference.stats.total_traces,
                "{name}/{seed}"
            );
            assert_eq!(
                permuted.stats.analyzed_traces, reference.stats.analyzed_traces,
                "{name}/{seed}"
            );
            assert_eq!(
                permuted.stats.skipped.len(),
                reference.stats.skipped.len(),
                "{name}/{seed}"
            );
            // Per-trace analyses follow their traces exactly.
            for (new_index, &old_index) in order.iter().enumerate() {
                assert_eq!(
                    permuted.traces[new_index], reference.traces[old_index],
                    "{name}/{seed}: trace {old_index} changed under permutation"
                );
            }
            // Rankings are per-instance values in trace order, so they
            // permute with the input; as sorted multisets per event
            // they are identical.
            assert_eq!(
                permuted.rankings.keys().collect::<Vec<_>>(),
                reference.rankings.keys().collect::<Vec<_>>(),
                "{name}/{seed}"
            );
            for (event, ranks) in &reference.rankings {
                let mut a = ranks.clone();
                let mut b = permuted.rankings[event].clone();
                a.sort_by(f64::total_cmp);
                b.sort_by(f64::total_cmp);
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{name}/{seed}: ranking multiset changed for {event}"
                );
            }
        }
    }
}

fn powered(event: &str, index: u64, mw: f64) -> PoweredInstance {
    let start = index * 500;
    PoweredInstance {
        instance: EventInstance::new(event, start, start + 100),
        power_mw: mw,
    }
}

/// A trace over the given vocabulary: each element picks an event by
/// index and a power — finite in `1.0..800.0`, or occasionally `NaN`
/// to exercise the sanitation path.
fn random_fleet() -> impl Strategy<Value = DiagnosisInput> {
    const VOCAB: [&str; 8] = [
        "net.poll",
        "ui.draw",
        "db.query",
        "gps.fix",
        "idle",
        "push.recv",
        "media.decode",
        "sync.flush",
    ];
    let power = (0u8..20, 1.0f64..800.0).prop_map(|(roll, mw)| {
        if roll == 0 {
            f64::NAN
        } else {
            mw
        }
    });
    let trace = prop::collection::vec((0usize..VOCAB.len(), power), 0..40)
        .prop_map(|items| {
            items
                .into_iter()
                .enumerate()
                .map(|(i, (event, mw))| powered(VOCAB[event], i as u64, mw))
                .collect::<Vec<_>>()
        });
    prop::collection::vec(trace, 0..10).prop_map(DiagnosisInput::new)
}

/// Two shards whose event vocabularies do not overlap at all: the
/// merge must express both sides in the sorted union (ids remapped)
/// from either direction, and finishing either merge order must equal
/// the string-keyed reference byte for byte.
#[test]
fn disjoint_vocabulary_shards_merge_into_the_reference() {
    let traces: Vec<Vec<PoweredInstance>> = vec![
        (0..24)
            .map(|i| {
                powered(
                    if i % 5 == 0 { "zz.late" } else { "mm.mid" },
                    i,
                    120.0 + (i % 6) as f64 * 40.0,
                )
            })
            .collect(),
        (0..24)
            .map(|i| {
                powered(
                    if i % 4 == 0 { "aa.early" } else { "bb.next" },
                    i,
                    300.0 + (i % 5) as f64 * 25.0,
                )
            })
            .collect(),
    ];
    let input = DiagnosisInput::new(traces);
    let dx = EnergyDx::default();
    let a = dx.map_shard(&input.traces()[..1], 0);
    let b = dx.map_shard(&input.traces()[1..], 1);
    assert_eq!(a.vocabulary(), ["mm.mid", "zz.late"]);
    assert_eq!(b.vocabulary(), ["aa.early", "bb.next"]);
    let forward = a.clone().merge(b.clone());
    let backward = b.merge(a);
    assert_eq!(forward, backward, "merge order changed the partial");
    assert_eq!(
        forward.vocabulary(),
        ["aa.early", "bb.next", "mm.mid", "zz.late"]
    );
    assert_eq!(
        dx.finish(forward).unwrap().to_canonical_json(),
        dx.diagnose_reference(&input).to_canonical_json()
    );
}

/// Two shards sharing part of their vocabulary: the shared events'
/// populations must concatenate in trace order under the remap, the
/// unique events must land in their union slots, and both merge
/// orders must finish to the reference.
#[test]
fn overlapping_vocabulary_shards_merge_into_the_reference() {
    let traces: Vec<Vec<PoweredInstance>> = vec![
        (0..30)
            .map(|i| {
                powered(
                    if i % 3 == 0 {
                        "shared.tick"
                    } else {
                        "left.only"
                    },
                    i,
                    100.0 + (i % 7) as f64 * 30.0,
                )
            })
            .collect(),
        (0..30)
            .map(|i| {
                powered(
                    if i % 3 == 0 {
                        "shared.tick"
                    } else {
                        "right.only"
                    },
                    i,
                    500.0 + (i % 4) as f64 * 60.0,
                )
            })
            .collect(),
    ];
    let input = DiagnosisInput::new(traces);
    let dx = EnergyDx::default();
    let a = dx.map_shard(&input.traces()[..1], 0);
    let b = dx.map_shard(&input.traces()[1..], 1);
    let forward = a.clone().merge(b.clone());
    let backward = b.merge(a);
    assert_eq!(forward, backward, "merge order changed the partial");
    assert_eq!(
        forward.vocabulary(),
        ["left.only", "right.only", "shared.tick"]
    );
    assert_eq!(
        dx.finish(forward).unwrap().to_canonical_json(),
        dx.diagnose_reference(&input).to_canonical_json()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property: **no shard split and no merge order**
    /// changes a single byte of the report.
    #[test]
    fn any_shard_split_yields_the_reference_report(
        cuts in prop::collection::vec(0usize..16, 0..6),
        merge_seed in any::<u64>(),
        jobs in 1usize..5,
    ) {
        for (name, input) in fixtures() {
            let dx = EnergyDx::default().with_jobs(jobs);
            let reference = dx.diagnose_reference(&input).to_canonical_json();
            let split = diagnose_split(&dx, &input, &cuts, merge_seed);
            prop_assert!(
                split == reference,
                "{} diverged for cuts {:?} (merge seed {})",
                name, cuts, merge_seed
            );
        }
    }

    /// The interned production path (worker pool or shard-merge, any
    /// split, any merge order) matches the string-keyed reference on
    /// arbitrary fleets — random vocabularies, random powers, random
    /// NaN corruption — byte for byte.
    #[test]
    fn random_fleets_diagnose_identically_on_every_path(
        input in random_fleet(),
        cuts in prop::collection::vec(0usize..12, 0..4),
        merge_seed in any::<u64>(),
    ) {
        let reference =
            EnergyDx::default().diagnose_reference(&input).to_canonical_json();
        for jobs in [1usize, 2] {
            let parallel = EnergyDx::default()
                .with_jobs(jobs)
                .diagnose(&input)
                .to_canonical_json();
            prop_assert!(parallel == reference, "jobs={} diverged", jobs);
        }
        let dx = EnergyDx::default();
        let sharded = dx.diagnose_sharded(&input, 3).to_canonical_json();
        prop_assert!(sharded == reference, "3-shard run diverged");
        let split = diagnose_split(&dx, &input, &cuts, merge_seed);
        prop_assert!(
            split == reference,
            "random fleet diverged for cuts {:?} (merge seed {})",
            cuts, merge_seed
        );
    }
}

// ---------------------------------------------------------------------
// The incremental daemon: any interleaving of {upload, checkpoint,
// restart, query} over `fleetd`'s state must serve reports
// byte-identical to `diagnose_reference` over the same accepted
// traces. The model below replays each payload through the *same*
// shared prepare pipeline the daemon uses plus the same dedup rule, so
// "the same accepted traces" is computed independently of the state
// under test.
// ---------------------------------------------------------------------

/// One step of a daemon schedule.
#[derive(Debug, Clone, Copy)]
enum FleetOp {
    /// Submit payload `i` from the pool (repeats exercise dedup).
    Upload(usize),
    /// Snapshot the state to checkpoint bytes.
    Checkpoint,
    /// Crash: discard the live state, restore the last checkpoint
    /// (or start fresh if none was ever taken).
    Restart,
    /// Serve a report and compare it to the batch reference.
    Query,
}

/// The upload pool: 12 deterministic payloads, some damaged — index
/// `%4 == 3` is truncated (undecodable), index `%5 == 4` has a flipped
/// bit mid-payload (salvaged or quarantined, the pipeline decides).
fn payload_pool() -> Vec<Vec<u8>> {
    (0..12usize)
        .map(|i| {
            let mut payload =
                fixture::payload(&format!("u{:02}", i / 2), (i % 2) as u64);
            if i % 4 == 3 {
                payload.truncate(7);
            } else if i % 5 == 4 {
                let mid = payload.len() / 2;
                payload[mid] ^= 0x10;
            }
            payload
        })
        .collect()
}

/// What the daemon *should* have accepted: the same prepare pipeline
/// plus the same (user, session) dedup, tracked outside the state
/// under test.
#[derive(Debug, Clone, Default)]
struct FleetModel {
    accepted: Vec<TraceBundle>,
    seen: BTreeSet<(String, u64)>,
}

impl FleetModel {
    /// Returns whether the payload should be accepted.
    fn apply(&mut self, payload: &[u8]) -> bool {
        match prepare_wire(payload, &RepairPolicy::default()) {
            PreparedUpload::Ready { bundle, .. } => {
                if self.seen.insert((bundle.user.clone(), bundle.session)) {
                    self.accepted.push(bundle);
                    true
                } else {
                    false
                }
            }
            PreparedUpload::Rejected(_) => false,
        }
    }
}

/// The daemon's report over `app` must equal the batch reference over
/// the model's accepted bundles, byte for byte.
fn assert_fleet_matches_reference(state: &FleetState, model: &FleetModel) {
    if !state.apps().contains_key("app") {
        assert!(
            model.accepted.is_empty(),
            "daemon lost every upload the model accepted"
        );
        return;
    }
    let reference = EnergyDx::default()
        .diagnose_reference(&bundles_to_input(&model.accepted))
        .to_canonical_json();
    let served = state
        .diagnose_json("app", None)
        .expect("an app that exists serves a report");
    assert_eq!(
        served, reference,
        "incremental daemon diverged from the batch reference"
    );
}

/// Runs one schedule against a live [`FleetState`], checking the
/// upload-by-upload acceptance class against the model and the served
/// report against the batch reference at every `Query` and at the end.
fn run_fleet_schedule(ops: &[FleetOp], pool: &[Vec<u8>]) {
    let mut state = FleetState::new(FleetConfig::default());
    let mut model = FleetModel::default();
    let mut snapshot: Option<(Vec<u8>, FleetModel)> = None;
    for op in ops {
        match *op {
            FleetOp::Upload(i) => {
                let payload = &pool[i % pool.len()];
                let accepted = state.submit("app", payload).accepted();
                assert_eq!(
                    accepted,
                    model.apply(payload),
                    "daemon and model disagree on payload {i}"
                );
            }
            FleetOp::Checkpoint => {
                snapshot = Some((checkpoint_bytes(&state), model.clone()));
            }
            FleetOp::Restart => match &snapshot {
                Some((bytes, at_checkpoint)) => {
                    state = restore_bytes(bytes, FleetConfig::default())
                        .expect("a daemon checkpoint restores");
                    model = at_checkpoint.clone();
                }
                None => {
                    state = FleetState::new(FleetConfig::default());
                    model = FleetModel::default();
                }
            },
            FleetOp::Query => {
                assert_fleet_matches_reference(&state, &model);
            }
        }
    }
    assert_fleet_matches_reference(&state, &model);
}

fn fleet_ops() -> impl Strategy<Value = Vec<FleetOp>> {
    // Uploads are weighted heaviest so schedules actually grow state
    // between the structural ops.
    let op = (0u8..16, 0usize..12).prop_map(|(kind, i)| match kind {
        0..=9 => FleetOp::Upload(i),
        10 | 11 => FleetOp::Checkpoint,
        12 | 13 => FleetOp::Restart,
        _ => FleetOp::Query,
    });
    prop::collection::vec(op, 0..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The daemon headline property: **any** interleaving of uploads
    /// (clean, damaged, duplicated), checkpoints, crash restarts, and
    /// queries serves byte-identical reports to the
    /// batch reference over the same accepted traces.
    #[test]
    fn any_daemon_schedule_serves_the_batch_reference(
        ops in fleet_ops(),
    ) {
        run_fleet_schedule(&ops, &payload_pool());
    }
}

/// Fixed scenario: quarantined uploads (undecodable, bit-flipped,
/// duplicated) never leak a byte into the report — it equals the
/// reference over the accepted traces only.
#[test]
fn quarantined_uploads_never_change_the_report() {
    let pool = payload_pool();
    let mut ops: Vec<FleetOp> = (0..pool.len()).map(FleetOp::Upload).collect();
    // Re-upload everything: accepted ones dedup, damaged ones
    // quarantine again.
    ops.extend((0..pool.len()).map(FleetOp::Upload));
    ops.push(FleetOp::Query);
    run_fleet_schedule(&ops, &pool);

    // The quarantine really filled up: replay and count.
    let mut state = FleetState::new(FleetConfig::default());
    for i in 0..pool.len() * 2 {
        state.submit("app", &pool[i % pool.len()]);
    }
    assert!(
        state.quarantined_total() > 0,
        "the damaged pool must quarantine something"
    );
    assert!(
        state.accepted_total() > 0,
        "the damaged pool must still accept something"
    );
}

/// Fixed scenario: a crash after the checkpoint loses the uploads that
/// followed it; the restored daemon equals the reference *as of the
/// checkpoint*, and re-driving the lost tail (plus some already-
/// accepted resends, deduped by the restored seen-set) converges to
/// the full-fleet reference.
#[test]
fn crash_and_restore_converges_to_the_full_reference() {
    let pool = payload_pool();
    let mut ops: Vec<FleetOp> = Vec::new();
    ops.extend((0..8).map(FleetOp::Upload));
    ops.push(FleetOp::Checkpoint);
    ops.extend((8..12).map(FleetOp::Upload)); // lost in the crash
    ops.push(FleetOp::Restart); // kill -9, restore
    ops.push(FleetOp::Query); // == reference as of the checkpoint
    ops.extend((6..12).map(FleetOp::Upload)); // re-drive incl. resends
    ops.push(FleetOp::Query); // == full-fleet reference
    run_fleet_schedule(&ops, &pool);
}

// ---------------------------------------------------------------------
// The sharded cluster: any interleaving of {upload, replicate,
// worker-crash, worker-replace, query} over a K-worker
// coordinator must serve reports byte-identical to the batch
// reference over the traces the cluster actually holds — including
// kill -9 + replicated-checkpoint resume, where a replaced worker
// holds its partition *as of the last replica* and the model says
// exactly which uploads that is.
// ---------------------------------------------------------------------

use energydx_suite::energydx_fleetd::cluster::{
    shard_for_payload, InProcessTransport, WorkerSlot, WorkerTransport,
};
use energydx_suite::energydx_fleetd::coordinator::{
    Coordinator, CoordinatorConfig,
};
use energydx_suite::energydx_fleetd::protocol::{
    OutcomeCode, Request, Response,
};
use energydx_suite::energydx_fleetd::server::{FleetdHandle, ServerConfig};
use energydx_suite::energydx_fleetd::{Dispatch, RetryBudget};
use std::sync::{Arc, Mutex};

/// One step of a cluster schedule. Worker indices are taken mod K so
/// one schedule drives every cluster width.
#[derive(Debug, Clone, Copy)]
enum ClusterOp {
    /// Submit payload `i` from the pool through the coordinator.
    Upload(usize),
    /// Replicate every live worker's checkpoint to the coordinator.
    Replicate,
    /// kill -9 worker `w`: its slot empties mid-conversation.
    Crash(usize),
    /// A blank replacement takes worker `w`'s slot and the operator
    /// runs the explicit recover path (probe + replica handoff).
    Restart(usize),
    /// Fan out a diagnosis and compare to the batch reference.
    Query,
}

struct ClusterUnderTest {
    coordinator: Coordinator,
    slots: Vec<WorkerSlot>,
}

fn new_cluster(workers: usize) -> ClusterUnderTest {
    let slots: Vec<WorkerSlot> = (0..workers)
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
            max_attempts: 2,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        },
        ..CoordinatorConfig::default()
    };
    let coordinator =
        Coordinator::new(config, transports).expect("cluster starts");
    ClusterUnderTest { coordinator, slots }
}

/// One worker's model: the shared prepare + dedup pipeline, plus
/// whether the worker has ever *seen* the app — a quarantined upload
/// creates the app entry without accepting a trace, and an app that
/// exists with zero traces serves the empty report, not "unknown".
#[derive(Debug, Clone, Default)]
struct WorkerModel {
    fleet: FleetModel,
    knows_app: bool,
}

/// The cluster's independent model: per-worker accept lists, app
/// existence, liveness, and the replica snapshots a handoff would
/// restore.
struct ClusterModel {
    workers: Vec<WorkerModel>,
    dead: Vec<bool>,
    replicas: Vec<Option<WorkerModel>>,
}

impl ClusterModel {
    fn new(workers: usize) -> Self {
        ClusterModel {
            workers: (0..workers).map(|_| WorkerModel::default()).collect(),
            dead: vec![false; workers],
            replicas: vec![None; workers],
        }
    }

    fn missing(&self) -> Vec<u32> {
        (0..self.dead.len())
            .filter(|&k| self.dead[k])
            .map(|k| k as u32)
            .collect()
    }

    /// The batch reference over the shards that would answer: each
    /// live worker's accepted traces, concatenated in worker order.
    /// `None` when no live worker even knows the app (the cluster
    /// answers the typed unknown-app error, exactly like one daemon).
    fn live_reference(&self) -> Option<String> {
        if !self
            .workers
            .iter()
            .zip(&self.dead)
            .any(|(worker, dead)| !dead && worker.knows_app)
        {
            return None;
        }
        let mut accepted: Vec<TraceBundle> = Vec::new();
        for (worker, dead) in self.workers.iter().zip(&self.dead) {
            if !dead {
                accepted.extend(worker.fleet.accepted.iter().cloned());
            }
        }
        Some(
            EnergyDx::default()
                .diagnose_reference(&bundles_to_input(&accepted))
                .to_canonical_json(),
        )
    }
}

fn assert_cluster_matches_reference(
    cluster: &ClusterUnderTest,
    model: &ClusterModel,
) {
    let expected = model.live_reference();
    let missing = model.missing();
    let response = cluster.coordinator.handle_request(Request::Diagnose {
        app: "app".to_string(),
        epoch: None,
    });
    match (expected, missing.is_empty()) {
        (None, _) => assert!(
            matches!(response, Response::Error { .. }),
            "an empty cluster must answer a typed error, got {response:?}"
        ),
        (Some(reference), true) => match response {
            Response::Report { json } => assert_eq!(
                json, reference,
                "cluster diverged from the batch reference"
            ),
            other => panic!("expected a full report, got {other:?}"),
        },
        (Some(reference), false) => match response {
            Response::Degraded {
                missing: reported,
                json,
            } => {
                assert_eq!(reported, missing, "wrong shards reported missing");
                assert_eq!(
                    json, reference,
                    "degraded answer diverged from the surviving reference"
                );
            }
            other => panic!("expected a degraded report, got {other:?}"),
        },
    }
}

/// Runs one schedule over a K-worker cluster, checking acceptance
/// classes against the model upload by upload and the report against
/// the batch reference at every `Query` and at the end.
fn run_cluster_schedule(workers: usize, ops: &[ClusterOp], pool: &[Vec<u8>]) {
    let cluster = new_cluster(workers);
    let mut model = ClusterModel::new(workers);
    apply_cluster_ops(&cluster, &mut model, ops, pool);
    assert_cluster_matches_reference(&cluster, &model);
}

/// Applies `ops` to the cluster and its model in lockstep, checking
/// each upload's acceptance class and each `Query`'s answer.
fn apply_cluster_ops(
    cluster: &ClusterUnderTest,
    model: &mut ClusterModel,
    ops: &[ClusterOp],
    pool: &[Vec<u8>],
) {
    let workers = cluster.slots.len();
    let repair = RepairPolicy::default();
    for op in ops {
        match *op {
            ClusterOp::Upload(i) => {
                let payload = &pool[i % pool.len()];
                let shard = shard_for_payload("app", payload, &repair, workers);
                let response =
                    cluster.coordinator.submit("app", payload.clone());
                if model.dead[shard] {
                    assert!(
                        matches!(response, Response::RetryAfter { .. }),
                        "a dead shard must push back, got {response:?}"
                    );
                } else {
                    let accepted = match response {
                        Response::Outcome { code, .. } => {
                            code != OutcomeCode::Rejected
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    };
                    model.workers[shard].knows_app = true;
                    assert_eq!(
                        accepted,
                        model.workers[shard].fleet.apply(payload),
                        "cluster and model disagree on payload {i}"
                    );
                }
            }
            ClusterOp::Replicate => {
                let response =
                    cluster.coordinator.handle_request(Request::Checkpoint);
                if model.missing().is_empty() {
                    assert!(matches!(response, Response::Done));
                } else {
                    // Unreachable workers are reported; live ones
                    // still replicated (checked via the model below).
                    assert!(matches!(response, Response::Error { .. }));
                }
                for k in 0..workers {
                    if !model.dead[k] {
                        model.replicas[k] = Some(model.workers[k].clone());
                    }
                }
            }
            ClusterOp::Crash(w) => {
                let k = w % workers;
                cluster.slots[k].lock().unwrap().take();
                model.dead[k] = true;
            }
            ClusterOp::Restart(w) => {
                let k = w % workers;
                let blank = FleetdHandle::start(ServerConfig::default())
                    .expect("replacement worker");
                *cluster.slots[k].lock().unwrap() = Some(Arc::new(blank));
                cluster
                    .coordinator
                    .recover_worker(k)
                    .expect("recovery over a live transport succeeds");
                model.workers[k] =
                    model.replicas[k].clone().unwrap_or_default();
                model.dead[k] = false;
            }
            ClusterOp::Query => {
                assert_cluster_matches_reference(cluster, model);
            }
        }
    }
}

fn cluster_ops() -> impl Strategy<Value = Vec<ClusterOp>> {
    let op =
        (0u8..16, 0usize..12, 0usize..3).prop_map(|(kind, i, w)| match kind {
            0..=8 => ClusterOp::Upload(i),
            9 | 10 => ClusterOp::Replicate,
            11 | 12 => ClusterOp::Crash(w),
            13 => ClusterOp::Restart(w),
            _ => ClusterOp::Query,
        });
    prop::collection::vec(op, 0..28)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cluster headline property: over K ∈ {1, 2, 3} workers,
    /// **any** interleaving of uploads, replications, kill -9 crashes,
    /// blank-replacement handoffs, and queries serves byte-identical
    /// reports to the batch reference over the traces the cluster
    /// holds — and degraded answers name exactly the dead shards while
    /// matching the reference over the rest.
    #[test]
    fn any_cluster_schedule_serves_the_batch_reference(
        ops in cluster_ops(),
    ) {
        for workers in 1..=3usize {
            run_cluster_schedule(workers, &ops, &payload_pool());
        }
    }
}

/// Fixed scenario, the acceptance bar for the cluster: kill -9 one
/// worker after a replication, hand a blank replacement its replica,
/// and prove the resumed cluster equals the batch reference — first
/// as of the replica, then (after re-driving the lost tail) over the
/// full fleet.
#[test]
fn kill_dash_nine_with_replica_resume_stays_byte_identical() {
    let pool = payload_pool();
    let mut ops: Vec<ClusterOp> = Vec::new();
    ops.extend((0..8).map(ClusterOp::Upload));
    ops.push(ClusterOp::Replicate);
    ops.extend((8..12).map(ClusterOp::Upload)); // at risk past the replica
    ops.push(ClusterOp::Query);
    ops.push(ClusterOp::Crash(1));
    ops.push(ClusterOp::Query); // degraded, exact over survivors
    ops.push(ClusterOp::Restart(1)); // blank node + replica handoff
    ops.push(ClusterOp::Query); // worker 1 is back at the replica point
    ops.extend((0..12).map(ClusterOp::Upload)); // re-drive; dedup absorbs
    ops.push(ClusterOp::Query); // full fleet again
    run_cluster_schedule(3, &ops, &pool);
}

// ---------------------------------------------------------------------
// The spilling daemon: a fleet under a memory budget spills cold
// epochs to columnar segments and folds them back on query. Any
// interleaving of {upload, spill, checkpoint, restart, query} under **any** budget — including zero, where nothing stays
// resident — must serve reports byte-identical to the batch reference
// over the same accepted traces, including kill -9 + restart with the
// segment files on disk.
// ---------------------------------------------------------------------

use energydx_suite::energydx_fleetd::checkpoint::{load_from, save_to};
use energydx_suite::energydx_fleetd::SpillConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// RAII scratch directory: unique per use, removed on drop even when
/// the test fails, so no stray state directories accumulate.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "energydx-diff-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One step of a spilling-daemon schedule.
#[derive(Debug, Clone, Copy)]
enum SpillOp {
    /// Submit payload `i`; the budget may spill as a side effect.
    Upload(usize),
    /// Evict everything: write every epoch's resident runs to disk.
    Spill,
    /// Durable snapshot referencing the spilled segments.
    Checkpoint,
    /// kill -9: discard the live state, reload from disk — the
    /// restored state must re-verify and re-use the segment files.
    Restart,
    /// Fold back from disk and compare to the batch reference, then
    /// serve the warm repeat from the query cache and compare again.
    Query,
}

/// Runs one schedule against a spilling [`FleetState`] under the
/// given budget, checking acceptance against the model and the served
/// report against the batch reference at every `Query` and at the end.
fn run_spill_schedule(ops: &[SpillOp], pool: &[Vec<u8>], mem_budget: usize) {
    let root = TempDir::new("spill");
    let state_dir = root.path().join("state");
    let config = FleetConfig {
        spill: Some(SpillConfig {
            dir: root.path().join("spool"),
            mem_budget,
        }),
        ..FleetConfig::default()
    };
    let mut state = FleetState::new(config.clone());
    let mut model = FleetModel::default();
    let mut checkpointed: Option<FleetModel> = None;
    for op in ops {
        match *op {
            SpillOp::Upload(i) => {
                let payload = &pool[i % pool.len()];
                let accepted = state.submit("app", payload).accepted();
                assert_eq!(
                    accepted,
                    model.apply(payload),
                    "spilling daemon and model disagree on payload {i}"
                );
            }
            SpillOp::Spill => {
                state.spill_all();
            }
            SpillOp::Checkpoint => {
                save_to(&state, &state_dir).expect("checkpoint writes");
                checkpointed = Some(model.clone());
            }
            SpillOp::Restart => {
                drop(state);
                match load_from(&state_dir, config.clone())
                    .expect("a daemon checkpoint restores with its segments")
                {
                    Some(restored) => {
                        state = restored;
                        model = checkpointed
                            .clone()
                            .expect("a checkpoint file implies a snapshot");
                    }
                    None => {
                        state = FleetState::new(config.clone());
                        model = FleetModel::default();
                    }
                }
            }
            SpillOp::Query => {
                assert_fleet_matches_reference(&state, &model);
                assert_fleet_matches_reference(&state, &model);
            }
        }
    }
    assert_fleet_matches_reference(&state, &model);
}

fn spill_ops() -> impl Strategy<Value = Vec<SpillOp>> {
    let op = (0u8..16, 0usize..12).prop_map(|(kind, i)| match kind {
        0..=7 => SpillOp::Upload(i),
        8 | 9 => SpillOp::Spill,
        10 | 11 => SpillOp::Checkpoint,
        12 | 13 => SpillOp::Restart,
        _ => SpillOp::Query,
    });
    prop::collection::vec(op, 0..28)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The bounded-memory headline property: **any** schedule of
    /// uploads, spills, checkpoints, kill -9 restarts,
    /// and queries under **any** budget — zero (fully spilled), small
    /// (mixed resident/spilled), or unbounded (explicit spills only)
    /// — serves byte-identical reports to the batch reference.
    #[test]
    fn any_spill_schedule_serves_the_batch_reference(
        ops in spill_ops(),
        budget in prop_oneof![
            Just(0usize),
            256usize..8192,
            Just(usize::MAX),
        ],
    ) {
        run_spill_schedule(&ops, &payload_pool(), budget);
    }
}

/// Fixed scenario, the acceptance bar for bounded memory: a zero
/// budget spills every upload to disk; a crash after the checkpoint
/// loses the tail; the restored daemon re-verifies the referenced
/// segments, garbage-collects the post-checkpoint orphans, answers
/// byte-identically as of the checkpoint, and converges to the full
/// reference when the tail is re-driven (re-using the freed sequence
/// numbers for fresh segment files).
#[test]
fn kill_dash_nine_with_segments_on_disk_stays_byte_identical() {
    let pool = payload_pool();
    let mut ops: Vec<SpillOp> = Vec::new();
    ops.extend((0..8).map(SpillOp::Upload));
    ops.push(SpillOp::Checkpoint);
    ops.extend((8..12).map(SpillOp::Upload)); // spilled, then lost
    ops.push(SpillOp::Restart); // kill -9, restore from disk
    ops.push(SpillOp::Query); // == reference as of the checkpoint
    ops.extend((6..12).map(SpillOp::Upload)); // re-drive incl. resends
    ops.push(SpillOp::Query); // == full-fleet reference
    run_spill_schedule(&ops, &pool, 0);
}

/// Fixed scenario: a zero-budget daemon keeps nothing resident, yet
/// every query folds the segments back to the exact reference — and
/// the resident and spilled daemons serve the same bytes for the same
/// uploads.
#[test]
fn a_fully_spilled_daemon_equals_a_resident_one() {
    let pool = payload_pool();
    let ops: Vec<SpillOp> = (0..pool.len())
        .map(SpillOp::Upload)
        .chain([SpillOp::Query])
        .collect();
    run_spill_schedule(&ops, &pool, 0);

    let root = TempDir::new("residency");
    let spilling_config = FleetConfig {
        spill: Some(SpillConfig {
            dir: root.path().to_path_buf(),
            mem_budget: 0,
        }),
        ..FleetConfig::default()
    };
    let mut spilling = FleetState::new(spilling_config);
    let mut resident = FleetState::new(FleetConfig::default());
    for payload in &pool {
        spilling.submit("app", payload);
        resident.submit("app", payload);
    }
    assert_eq!(spilling.resident_bytes(), 0, "budget 0 must spill all");
    assert!(spilling.spilled_segments() > 0);
    assert_eq!(
        spilling.diagnose_json("app", None).unwrap(),
        resident.diagnose_json("app", None).unwrap(),
        "residency changed the served bytes"
    );
}

// ---------------------------------------------------------------------
// The query cache: a daemon must serve byte-identical reports to the
// batch reference at every query — cold, and again as a warm repeat
// served from the cache — under any interleaving of {upload, spill,
// checkpoint, kill -9 restart, query} and any budget. These are spill
// schedules (whose every `Query` serves twice) weighted towards
// queries. A restart may empty the cache; it must never change a query
// byte. The cluster variant proves the same for the delta protocol: a
// coordinator riding `NotModified` replies answers byte-identically to
// the reference.
// ---------------------------------------------------------------------

fn cache_ops() -> impl Strategy<Value = Vec<SpillOp>> {
    // Queries are weighted heavier than in the spill schedule: the
    // property under test is the warm path, so back-to-back queries
    // (pure cache hits) must be common.
    let op = (0u8..16, 0usize..12).prop_map(|(kind, i)| match kind {
        0..=6 => SpillOp::Upload(i),
        7 | 8 => SpillOp::Spill,
        9 | 10 => SpillOp::Checkpoint,
        11 => SpillOp::Restart,
        _ => SpillOp::Query,
    });
    prop::collection::vec(op, 0..28)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The query-cache headline property: under **any** schedule and
    /// **any** budget, the daemon serves byte-identical reports to the
    /// batch reference — cold, warm, delta-folded, spilled, and across
    /// kill -9 restarts.
    #[test]
    fn any_cache_schedule_serves_identical_bytes(
        ops in cache_ops(),
        budget in prop_oneof![
            Just(0usize),
            256usize..8192,
            Just(usize::MAX),
        ],
    ) {
        run_spill_schedule(&ops, &payload_pool(), budget);
    }
}

/// Fixed scenario, the acceptance bar for the cache: warm repeats,
/// a delta fold after new uploads, and a kill -9 restart (which
/// empties the cache) all serve the batch reference's bytes.
#[test]
fn a_restart_may_empty_the_cache_but_never_changes_query_bytes() {
    let pool = payload_pool();
    let mut ops: Vec<SpillOp> = Vec::new();
    ops.extend((0..8).map(SpillOp::Upload));
    ops.push(SpillOp::Query); // cold: populates the cache
    ops.push(SpillOp::Query); // warm: pure hit
    ops.extend((8..10).map(SpillOp::Upload));
    ops.push(SpillOp::Query); // new content: a fresh fold and analysis
    ops.push(SpillOp::Spill);
    ops.push(SpillOp::Query); // spilled: the fold reads the segments
    ops.push(SpillOp::Query); // warm again: pure hit
    ops.push(SpillOp::Checkpoint);
    ops.extend((10..12).map(SpillOp::Upload)); // lost at the crash
    ops.push(SpillOp::Restart); // kill -9: cache gone, segments on disk
    ops.push(SpillOp::Query); // == reference as of the checkpoint
    ops.extend((0..12).map(SpillOp::Upload)); // re-drive; dedup absorbs
    ops.push(SpillOp::Query);
    ops.push(SpillOp::Query);
    // Budget 0 keeps nothing cached; an unbounded one keeps it all.
    for budget in [0, usize::MAX] {
        run_spill_schedule(&ops, &pool, budget);
    }
}

/// The delta-protocol acceptance bar: a coordinator whose repeat
/// queries ride `NotModified` serves the batch reference over a
/// 3-worker cluster — through warm repeats, a single-shard delta, and
/// a kill -9 crash + replica handoff.
#[test]
fn coordinator_not_modified_replies_serve_identical_bytes() {
    use ClusterOp::*;
    let pool = payload_pool();
    let cluster = new_cluster(3);
    let mut model = ClusterModel::new(3);
    // Payload 10 (clean, a session nothing else claims) is held back
    // to dirty exactly one shard later.
    let uploads: Vec<ClusterOp> =
        (0..pool.len()).filter(|&i| i != 10).map(Upload).collect();
    apply_cluster_ops(&cluster, &mut model, &uploads, &pool);
    // Cold (full partials), then warm (every holder NotModified).
    apply_cluster_ops(&cluster, &mut model, &[Query, Query], &pool);
    let hits = cluster
        .coordinator
        .metrics()
        .registry()
        .and_then(|r| {
            r.counter_value(
                "fleetd_query_cache_hits_total",
                &[("layer", "coordinator")],
            )
        })
        .unwrap_or(0);
    assert!(hits > 0, "the warm repeat must ride NotModified");
    // A single new upload dirties one shard; the others stay cached.
    // Then replicate, kill -9 a worker and hand a blank replacement
    // its replica: its incarnation is fresh, so stale tokens re-fetch.
    let rest = [
        Upload(10),
        Query,
        Replicate,
        Crash(1),
        Restart(1),
        Query,
        Query,
    ];
    apply_cluster_ops(&cluster, &mut model, &rest, &pool);
}

// ---------------------------------------------------------------------
// The version dimension: any interleaving of version-stamped uploads
// with {spill, checkpoint, kill -9 restart} under any budget
// must leave each release's diagnosis byte-identical to the batch
// reference over that release's accepted traces, the unversioned
// query byte-identical to the reference over *all* accepted traces in
// accept order, and the differential (from → to) answer byte-identical
// to `energydx_regress::compare` over the two per-release references.
// ---------------------------------------------------------------------

use energydx_suite::energydx_regress::{
    compare, regression_json, RegressConfig,
};

/// The two releases the versioned pool interleaves.
const RELEASES: [&str; 2] = ["1.9.0", "2.0.0"];

/// The versioned upload pool: [`payload_pool`]'s damage recipe with an
/// app-version stamp alternating by index. Session ids are offset by
/// release so a `(user, session)` claim can only repeat *within* one
/// release — the daemon deliberately dedups cross-version retries of
/// the same session, which a per-release reference could never see —
/// while within-release duplicates stay in the pool.
fn versioned_pool() -> Vec<(usize, Vec<u8>)> {
    (0..12usize)
        .map(|i| {
            let release = i % RELEASES.len();
            let session =
                (i % 2) as u64 * RELEASES.len() as u64 + release as u64;
            let mut payload = fixture::payload_versioned(
                &format!("u{:02}", i / 2),
                session,
                RELEASES[release],
            );
            if i % 4 == 3 {
                payload.truncate(7);
            } else if i % 5 == 4 {
                let mid = payload.len() / 2;
                payload[mid] ^= 0x10;
            }
            (release, payload)
        })
        .collect()
}

/// What the versioned daemon *should* have accepted: the shared
/// prepare pipeline plus the daemon's global `(user, session)` dedup,
/// with each accepted bundle remembered in accept order alongside its
/// release, so both the per-release and the whole-app reference can be
/// recomputed from scratch.
#[derive(Debug, Clone, Default)]
struct VersionedModel {
    accepted: Vec<(usize, TraceBundle)>,
    seen: BTreeSet<(String, u64)>,
}

impl VersionedModel {
    /// Returns whether the payload should be accepted.
    fn apply(&mut self, release: usize, payload: &[u8]) -> bool {
        match prepare_wire(payload, &RepairPolicy::default()) {
            PreparedUpload::Ready { bundle, .. } => {
                if self.seen.insert((bundle.user.clone(), bundle.session)) {
                    self.accepted.push((release, bundle));
                    true
                } else {
                    false
                }
            }
            PreparedUpload::Rejected(_) => false,
        }
    }

    /// The batch reference for one release: the accepted bundles that
    /// carried its stamp, in accept order.
    fn release_reference(&self, release: usize) -> DiagnosisReport {
        let bundles: Vec<TraceBundle> = self
            .accepted
            .iter()
            .filter(|(r, _)| *r == release)
            .map(|(_, b)| b.clone())
            .collect();
        EnergyDx::default().diagnose_reference(&bundles_to_input(&bundles))
    }
}

/// Every query the versioned daemon serves must match the model: each
/// release's diagnosis projects onto its own batch reference, the
/// unversioned query folds across releases, and the differential
/// answer equals `compare` over the two projections.
fn assert_versioned_matches_reference(
    state: &FleetState,
    model: &VersionedModel,
) {
    if !state.apps().contains_key("app") {
        assert!(
            model.accepted.is_empty(),
            "daemon lost every upload the model accepted"
        );
        return;
    }
    let per_release: Vec<DiagnosisReport> = (0..RELEASES.len())
        .map(|r| model.release_reference(r))
        .collect();
    for (r, release) in RELEASES.iter().enumerate() {
        let served = state
            .diagnose_version("app", None, release)
            .expect("an app that exists serves every release")
            .to_canonical_json();
        assert_eq!(
            served,
            per_release[r].to_canonical_json(),
            "release {release} diverged from its batch reference"
        );
    }
    let all: Vec<TraceBundle> =
        model.accepted.iter().map(|(_, b)| b.clone()).collect();
    assert_eq!(
        state
            .diagnose_json("app", None)
            .expect("an app that exists serves a report"),
        EnergyDx::default()
            .diagnose_reference(&bundles_to_input(&all))
            .to_canonical_json(),
        "the unversioned query stopped folding across releases"
    );
    let thresholds = RegressConfig::default();
    assert_eq!(
        state
            .regressions_json(
                "app",
                None,
                RELEASES[0],
                RELEASES[1],
                &thresholds
            )
            .expect("an app that exists serves a differential answer"),
        regression_json(&compare(
            RELEASES[0],
            &per_release[0],
            RELEASES[1],
            &per_release[1],
            &thresholds,
        )),
        "the differential answer diverged from compare over the references"
    );
}

/// One step of a versioned-daemon schedule.
#[derive(Debug, Clone, Copy)]
enum VersionOp {
    /// Submit versioned payload `i`; the budget may spill it.
    Upload(usize),
    /// Evict everything: write every release's resident runs to disk.
    Spill,
    /// Durable snapshot carrying the version split.
    Checkpoint,
    /// kill -9: discard the live state, reload from disk.
    Restart,
    /// Differential (from → to) query against the model's references.
    Regressions,
    /// Per-release and unversioned queries against the references.
    Query,
}

/// Runs one schedule against a spilling versioned [`FleetState`] under
/// the given budget, checking acceptance against the model at every
/// upload and every query class against its reference at `Query`,
/// `Regressions`, and the end.
fn run_version_schedule(
    ops: &[VersionOp],
    pool: &[(usize, Vec<u8>)],
    mem_budget: usize,
) {
    let root = TempDir::new("version");
    let state_dir = root.path().join("state");
    let config = FleetConfig {
        spill: Some(SpillConfig {
            dir: root.path().join("spool"),
            mem_budget,
        }),
        ..FleetConfig::default()
    };
    let mut state = FleetState::new(config.clone());
    let mut model = VersionedModel::default();
    let mut checkpointed: Option<VersionedModel> = None;
    for op in ops {
        match *op {
            VersionOp::Upload(i) => {
                let (release, payload) = &pool[i % pool.len()];
                let accepted = state.submit("app", payload).accepted();
                assert_eq!(
                    accepted,
                    model.apply(*release, payload),
                    "versioned daemon and model disagree on payload {i}"
                );
            }
            VersionOp::Spill => {
                state.spill_all();
            }
            VersionOp::Checkpoint => {
                save_to(&state, &state_dir).expect("checkpoint writes");
                checkpointed = Some(model.clone());
            }
            VersionOp::Restart => {
                drop(state);
                match load_from(&state_dir, config.clone())
                    .expect("a daemon checkpoint restores with its segments")
                {
                    Some(restored) => {
                        state = restored;
                        model = checkpointed
                            .clone()
                            .expect("a checkpoint file implies a snapshot");
                    }
                    None => {
                        state = FleetState::new(config.clone());
                        model = VersionedModel::default();
                    }
                }
            }
            VersionOp::Regressions => {
                if state.apps().contains_key("app") {
                    let thresholds = RegressConfig::default();
                    let served = state
                        .regressions_json(
                            "app",
                            None,
                            RELEASES[0],
                            RELEASES[1],
                            &thresholds,
                        )
                        .expect("an app that exists serves a differential");
                    let expected = regression_json(&compare(
                        RELEASES[0],
                        &model.release_reference(0),
                        RELEASES[1],
                        &model.release_reference(1),
                        &thresholds,
                    ));
                    assert_eq!(
                        served, expected,
                        "mid-schedule differential diverged"
                    );
                }
            }
            VersionOp::Query => {
                assert_versioned_matches_reference(&state, &model);
            }
        }
    }
    assert_versioned_matches_reference(&state, &model);
}

fn version_ops() -> impl Strategy<Value = Vec<VersionOp>> {
    let op = (0u8..16, 0usize..12).prop_map(|(kind, i)| match kind {
        0..=7 => VersionOp::Upload(i),
        8 => VersionOp::Spill,
        9 | 10 => VersionOp::Checkpoint,
        11 | 12 => VersionOp::Restart,
        13 | 14 => VersionOp::Regressions,
        _ => VersionOp::Query,
    });
    prop::collection::vec(op, 0..28)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The version-dimension headline property: **any** schedule of
    /// version-stamped uploads, spills, checkpoints,
    /// kill -9 restarts, differential queries, and per-release /
    /// unversioned queries under **any** budget — zero, small, or
    /// unbounded — serves byte-identical answers to the references
    /// recomputed from scratch.
    #[test]
    fn any_versioned_schedule_serves_the_batch_references(
        ops in version_ops(),
        budget in prop_oneof![
            Just(0usize),
            256usize..8192,
            Just(usize::MAX),
        ],
    ) {
        run_version_schedule(&ops, &versioned_pool(), budget);
    }
}

/// Fixed scenario, the acceptance bar for release gating under
/// duress: a zero-budget daemon spills every versioned upload; the
/// differential answer holds cold, folded back from disk, across a
/// checkpoint + kill -9 that loses the tail, and after the tail is
/// re-driven (dedup absorbing the resends) into the restored runs.
#[test]
fn a_release_gate_survives_spill_and_kill_dash_nine() {
    let pool = versioned_pool();
    let mut ops: Vec<VersionOp> = Vec::new();
    ops.extend((0..8).map(VersionOp::Upload));
    ops.push(VersionOp::Regressions); // cold: both releases fold fresh
    ops.push(VersionOp::Spill);
    ops.push(VersionOp::Regressions); // folded back from segments
    ops.push(VersionOp::Checkpoint);
    ops.extend((8..12).map(VersionOp::Upload)); // lost at the crash
    ops.push(VersionOp::Restart); // kill -9, restore from disk
    ops.push(VersionOp::Query); // == references as of the checkpoint
    ops.push(VersionOp::Regressions);
    ops.extend((6..12).map(VersionOp::Upload)); // re-drive incl. resends
    ops.push(VersionOp::Regressions); // == full-fleet differential
    ops.push(VersionOp::Query);
    run_version_schedule(&ops, &pool, 0);
}

// ---------------------------------------------------------------------
// The operator report: any interleaving of version-stamped uploads
// with {spill, checkpoint, kill -9 restart, report} under any
// budget must render both artifacts — the static HTML page and
// report.json — byte-identical to the batch surface
// (`energydx report --bundles`) rebuilt from scratch over the same
// accepted and quarantined uploads. Both sides run pinned: the daemon
// under a deterministic registry (the in-process stand-in for
// `ENERGYDX_DETERMINISTIC_TIME=1`) and the batch assembler with the
// pinned deployment panel it always uses.
// ---------------------------------------------------------------------

use energydx_suite::energydx_fleetd::checkpoint::load_from_with;
use energydx_suite::energydx_fleetd::convert::bundle_to_trace;
use energydx_suite::energydx_fleetd::report::fleet_report;
use energydx_suite::energydx_obsv::MetricsRegistry;
use energydx_suite::energydx_report::{
    build_model, render_html, render_json, BatchAssembler, DeploymentPanel,
    DEFAULT_TOP_APPS,
};
use energydx_suite::energydx_trace::store::RejectReason;

/// What the batch surface would assemble: every accepted upload's
/// (version, bundle, recovered) triple in accept order plus every
/// quarantine reason, tracked through the same prepare + dedup
/// pipeline outside the state under test.
#[derive(Debug, Clone, Default)]
struct ReportModel {
    accepted: Vec<(String, TraceBundle, bool)>,
    quarantined: Vec<String>,
    seen: BTreeSet<(String, u64)>,
}

impl ReportModel {
    /// Returns whether the payload should be accepted.
    fn apply(&mut self, payload: &[u8]) -> bool {
        match prepare_wire(payload, &RepairPolicy::default()) {
            PreparedUpload::Ready {
                bundle,
                repairs,
                salvage,
            } => {
                if !self.seen.insert((bundle.user.clone(), bundle.session)) {
                    self.quarantined.push(RejectReason::Duplicate.to_string());
                    return false;
                }
                let recovered = !repairs.is_empty() || salvage.is_some();
                self.accepted.push((
                    bundle.app_version.clone(),
                    bundle,
                    recovered,
                ));
                true
            }
            PreparedUpload::Rejected(entry) => {
                self.quarantined.push(entry.reason.to_string());
                false
            }
        }
    }

    /// The batch reference from scratch: the exact assembler
    /// `energydx report --bundles` drives, pinned deployment panel.
    fn render(&self) -> (String, String) {
        let inputs = if self.accepted.is_empty() && self.quarantined.is_empty()
        {
            // No submit ever happened, so the daemon never created the
            // app entry: the reference is the empty-fleet report.
            Vec::new()
        } else {
            let mut assembler = BatchAssembler::new(EnergyDx::default());
            for (version, bundle, recovered) in &self.accepted {
                assembler.accept(version, bundle_to_trace(bundle), *recovered);
            }
            for reason in &self.quarantined {
                assembler.reject(reason);
            }
            vec![assembler.finish("app").expect("batch folds finish")]
        };
        let model = build_model(
            &inputs,
            DeploymentPanel::pinned(),
            Vec::new(),
            DEFAULT_TOP_APPS,
        );
        (render_html(&model), render_json(&model))
    }
}

/// The daemon's rendered artifacts must equal the batch surface's,
/// byte for byte — HTML and JSON both.
fn assert_report_matches_batch(state: &FleetState, model: &ReportModel) {
    let served =
        fleet_report(state, 0, None).expect("a daemon renders its report");
    let (html, json) = model.render();
    assert_eq!(
        served.html, html,
        "daemon HTML diverged from the batch surface"
    );
    assert_eq!(
        served.json, json,
        "daemon report.json diverged from the batch surface"
    );
}

/// One step of a report schedule.
#[derive(Debug, Clone, Copy)]
enum ReportOp {
    /// Submit versioned payload `i`; the budget may spill it.
    Upload(usize),
    /// Evict everything: write every release's resident runs to disk.
    Spill,
    /// Durable snapshot carrying the version split and accounting.
    Checkpoint,
    /// kill -9: discard the live state, reload from disk.
    Restart,
    /// Render both artifacts and compare to the batch surface.
    Report,
}

/// Runs one schedule against a spilling, deterministically-registered
/// [`FleetState`] under the given budget, checking acceptance against
/// the model at every upload and both artifacts against the batch
/// surface at every `Report` and at the end.
fn run_report_schedule(
    ops: &[ReportOp],
    pool: &[(usize, Vec<u8>)],
    mem_budget: usize,
) {
    let root = TempDir::new("report");
    let state_dir = root.path().join("state");
    let config = FleetConfig {
        spill: Some(SpillConfig {
            dir: root.path().join("spool"),
            mem_budget,
        }),
        ..FleetConfig::default()
    };
    let registry = Arc::new(MetricsRegistry::deterministic());
    let mut state =
        FleetState::with_registry(config.clone(), Arc::clone(&registry));
    let mut model = ReportModel::default();
    let mut checkpointed: Option<ReportModel> = None;
    for op in ops {
        match *op {
            ReportOp::Upload(i) => {
                let (_, payload) = &pool[i % pool.len()];
                let accepted = state.submit("app", payload).accepted();
                assert_eq!(
                    accepted,
                    model.apply(payload),
                    "daemon and model disagree on payload {i}"
                );
            }
            ReportOp::Spill => {
                state.spill_all();
            }
            ReportOp::Checkpoint => {
                save_to(&state, &state_dir).expect("checkpoint writes");
                checkpointed = Some(model.clone());
            }
            ReportOp::Restart => {
                drop(state);
                match load_from_with(
                    &state_dir,
                    config.clone(),
                    Arc::clone(&registry),
                )
                .expect("a daemon checkpoint restores with its segments")
                {
                    Some(restored) => {
                        state = restored;
                        model = checkpointed
                            .clone()
                            .expect("a checkpoint file implies a snapshot");
                    }
                    None => {
                        state = FleetState::with_registry(
                            config.clone(),
                            Arc::clone(&registry),
                        );
                        model = ReportModel::default();
                    }
                }
            }
            ReportOp::Report => {
                assert_report_matches_batch(&state, &model);
            }
        }
    }
    assert_report_matches_batch(&state, &model);
}

fn report_ops() -> impl Strategy<Value = Vec<ReportOp>> {
    let op = (0u8..16, 0usize..12).prop_map(|(kind, i)| match kind {
        0..=7 => ReportOp::Upload(i),
        8 | 9 => ReportOp::Spill,
        10 | 11 => ReportOp::Checkpoint,
        12 | 13 => ReportOp::Restart,
        _ => ReportOp::Report,
    });
    prop::collection::vec(op, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The operator-report headline property: **any** schedule of
    /// version-stamped uploads (clean, damaged, duplicated), spills,
    /// checkpoints, and kill -9 restarts under **any**
    /// budget renders both artifacts byte-identical to the batch
    /// surface rebuilt from scratch over the same accepted uploads.
    #[test]
    fn any_report_schedule_renders_the_batch_surface(
        ops in report_ops(),
        budget in prop_oneof![
            Just(0usize),
            256usize..8192,
            Just(usize::MAX),
        ],
    ) {
        run_report_schedule(&ops, &versioned_pool(), budget);
    }
}

/// Fixed scenario, the acceptance bar for the report surface: a
/// zero-budget daemon spills every versioned upload; the rendered
/// artifacts hold cold, folded back from disk, across a checkpoint +
/// kill -9 that loses the tail, and after the tail is re-driven
/// (dedup absorbing the resends) into the restored runs.
#[test]
fn a_report_survives_spill_and_kill_dash_nine() {
    let pool = versioned_pool();
    let mut ops: Vec<ReportOp> = Vec::new();
    ops.extend((0..8).map(ReportOp::Upload));
    ops.push(ReportOp::Report); // cold: every release folds fresh
    ops.push(ReportOp::Spill);
    ops.push(ReportOp::Report); // folded back from segments
    ops.push(ReportOp::Checkpoint);
    ops.extend((8..12).map(ReportOp::Upload)); // lost at the crash
    ops.push(ReportOp::Restart); // kill -9, restore from disk
    ops.push(ReportOp::Report); // == batch as of the checkpoint
    ops.extend((6..12).map(ReportOp::Upload)); // re-drive incl. resends
    ops.push(ReportOp::Report); // == full-fleet batch surface
    run_report_schedule(&ops, &pool, 0);
}
