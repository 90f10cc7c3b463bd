//! The backend trace store.
//!
//! After instrumented apps upload their bundles, the EnergyDx backend
//! aggregates traces "collected from different users under various
//! contexts" (§I) before running the manifestation analysis. The store
//! is thread-safe: the collection server ingests bundles from many
//! connections concurrently ([`TraceStore::ingest_concurrently`] models
//! this with one thread per upload batch).
//!
//! Ingestion is corruption-aware. Every upload lands in exactly one
//! bucket of the [`IngestOutcome`] taxonomy:
//!
//! - **Clean** — decoded, validated, stored verbatim.
//! - **Recovered** — stored after a bounded repair
//!   ([`crate::repair`]) and/or a partial salvage of a damaged wire
//!   payload ([`crate::wire::decode_salvage`]).
//! - **Rejected** — quarantined with a [`RejectReason`]; the
//!   quarantine keeps per-reason counters so operators can see *what*
//!   the fleet's failure modes are, not just a drop count.

use crate::anonymize;
use crate::error::TraceError;
use crate::event::EventTrace;
use crate::repair::{repair, RepairAction, RepairPolicy};
use crate::util::UtilizationTrace;
use crate::wire::{self, SalvageReport};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One uploaded session: who, which session, which device, plus the
/// two raw traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBundle {
    /// Pseudonymous user id (assigned at install; never a phone number).
    pub user: String,
    /// Per-user session counter.
    pub session: u64,
    /// Device profile name, used for power-model scaling.
    pub device: String,
    /// App release the session ran under (`""` when the upload
    /// predates versioned uploads — wire v1/v2 payloads decode to the
    /// implicit unversioned release).
    pub app_version: String,
    /// The event trace.
    pub events: EventTrace,
    /// The utilization trace.
    pub utilization: UtilizationTrace,
}

impl TraceBundle {
    /// Creates an empty bundle.
    pub fn new(
        user: impl Into<String>,
        session: u64,
        device: impl Into<String>,
    ) -> Self {
        TraceBundle {
            user: user.into(),
            session,
            device: device.into(),
            app_version: String::new(),
            events: EventTrace::new(),
            utilization: UtilizationTrace::new(),
        }
    }

    /// Stamps the bundle with the app release it was recorded under.
    pub fn with_app_version(mut self, version: impl Into<String>) -> Self {
        self.app_version = version.into();
        self
    }

    /// Scrubs user identifiers from every string payload (§II-B
    /// preprocessing). Event identifiers are class/method names and
    /// survive unchanged; embedded IPs/emails/phone numbers do not.
    pub fn anonymize(&mut self) {
        self.user = anonymize::scrub(&self.user);
        let records: Vec<_> = self
            .events
            .records()
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.event = anonymize::scrub(&r.event);
                r
            })
            .collect();
        self.events = records.into_iter().collect();
    }

    /// Validates internal consistency (timestamp ordering of the
    /// event *and* utilization traces, strict enter/exit pairing).
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError::OutOfOrder`] /
    /// [`TraceError::UnmatchedExit`].
    pub fn validate(&self) -> Result<(), TraceError> {
        self.events.validate()?;
        self.events.pair_instances_strict()?;
        // The power model walks utilization samples in order; a
        // disordered sample that slipped past repair must quarantine
        // here, not corrupt every downstream power estimate.
        let samples = self.utilization.samples();
        for (index, pair) in samples.windows(2).enumerate() {
            if pair[1].timestamp_ms < pair[0].timestamp_ms {
                return Err(TraceError::OutOfOrder { index: index + 1 });
            }
        }
        Ok(())
    }
}

/// Why an upload was quarantined.
///
/// Each reason has one label ([`RejectReason::label`], what `Display`
/// prints, the daemon's wire outcome carries and its catalog counts
/// under) and one code ([`RejectReason::code`], its byte in EDXC
/// checkpoints). Both are pinned: stored checkpoints and served
/// reports carry them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// The wire payload could not be decoded at all (bad magic,
    /// unsupported version, or an unrecoverable identity header).
    Undecodable = 0,
    /// Records were displaced beyond the repair policy's
    /// out-of-order bound.
    OutOfOrderBeyondRepair = 1,
    /// More unmatched exit records than the repair policy allows.
    UnmatchedBeyondRepair = 2,
    /// A bundle for this `(user, session)` was already accepted.
    Duplicate = 3,
    /// The bundle failed validation in a way repair does not cover.
    Invalid = 4,
}

impl RejectReason {
    /// Every reason, in code order.
    pub const ALL: [RejectReason; 5] = [
        RejectReason::Undecodable,
        RejectReason::OutOfOrderBeyondRepair,
        RejectReason::UnmatchedBeyondRepair,
        RejectReason::Duplicate,
        RejectReason::Invalid,
    ];

    /// The reason's label.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Undecodable => "undecodable",
            RejectReason::OutOfOrderBeyondRepair => {
                "out-of-order-beyond-repair"
            }
            RejectReason::UnmatchedBeyondRepair => "unmatched-beyond-repair",
            RejectReason::Duplicate => "duplicate",
            RejectReason::Invalid => "invalid",
        }
    }

    /// The reason a label names; `None` for an unknown label.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.label() == label)
    }

    /// The reason's checkpoint code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The reason a checkpoint code names; `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(usize::from(code)).copied()
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of ingesting one upload.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOutcome {
    /// Stored verbatim.
    Clean,
    /// Stored after repair and/or salvage.
    Recovered {
        /// Repairs applied to the decoded bundle.
        repairs: Vec<RepairAction>,
        /// Wire-level salvage report, when the payload needed one.
        salvage: Option<SalvageReport>,
    },
    /// Quarantined, not stored.
    Rejected(RejectReason),
}

impl IngestOutcome {
    /// Whether the bundle made it into the store.
    pub fn accepted(&self) -> bool {
        !matches!(self, IngestOutcome::Rejected(_))
    }
}

/// One quarantined upload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// Why it was rejected.
    pub reason: RejectReason,
    /// User id, when the payload decoded far enough to know it.
    pub user: Option<String>,
    /// Session id, when known.
    pub session: Option<u64>,
    /// Human-readable detail (the underlying error).
    pub detail: String,
}

/// Per-bundle outcomes of a concurrent ingest, batch structure
/// preserved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// `outcomes[i][j]` is the outcome of batch `i`'s `j`-th upload.
    pub outcomes: Vec<Vec<IngestOutcome>>,
}

impl IngestReport {
    /// Iterates over all outcomes, across batches.
    pub fn iter(&self) -> impl Iterator<Item = &IngestOutcome> {
        self.outcomes.iter().flatten()
    }

    /// Uploads that made it into the store (clean or recovered).
    pub fn accepted(&self) -> usize {
        self.iter().filter(|o| o.accepted()).count()
    }

    /// Uploads stored verbatim.
    pub fn clean(&self) -> usize {
        self.iter()
            .filter(|o| matches!(o, IngestOutcome::Clean))
            .count()
    }

    /// Uploads stored after repair/salvage.
    pub fn recovered(&self) -> usize {
        self.iter()
            .filter(|o| matches!(o, IngestOutcome::Recovered { .. }))
            .count()
    }

    /// Uploads quarantined.
    pub fn rejected(&self) -> usize {
        self.iter()
            .filter(|o| matches!(o, IngestOutcome::Rejected(_)))
            .count()
    }

    /// Total uploads processed.
    pub fn total(&self) -> usize {
        self.iter().count()
    }
}

/// A wire upload after the full salvaging decode → anonymize → repair
/// → validate pipeline, *before* dedup and commit.
///
/// This is the reusable half of ingestion: [`TraceStore`] and the
/// fleet daemon share it, so a payload that salvages (or quarantines)
/// one way in the batch store salvages exactly the same way in the
/// incremental path. What differs between consumers is only where the
/// dedup set and the accepted bundle live.
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedUpload {
    /// Decoded, anonymized, repaired, and validated — ready to dedup
    /// and store.
    Ready {
        /// The bundle as it would be stored.
        bundle: TraceBundle,
        /// Repairs applied to the decoded bundle.
        repairs: Vec<RepairAction>,
        /// Wire-level salvage report, when the payload needed one.
        salvage: Option<SalvageReport>,
    },
    /// Rejected before reaching the store; the entry says why.
    Rejected(QuarantineEntry),
}

impl PreparedUpload {
    /// The outcome this preparation maps to, pre-dedup: `Ready` is
    /// clean or recovered, `Rejected` carries its reason.
    pub fn outcome(&self) -> IngestOutcome {
        match self {
            PreparedUpload::Ready {
                repairs, salvage, ..
            } => {
                if repairs.is_empty() && salvage.is_none() {
                    IngestOutcome::Clean
                } else {
                    IngestOutcome::Recovered {
                        repairs: repairs.clone(),
                        salvage: salvage.clone(),
                    }
                }
            }
            PreparedUpload::Rejected(entry) => {
                IngestOutcome::Rejected(entry.reason)
            }
        }
    }
}

/// Runs one wire payload through decode → anonymize → repair →
/// validate. Pure: no store, no dedup, deterministic in the payload
/// and policy alone.
///
/// One [`wire::decode_salvage`] parse serves every payload: an intact
/// salvage is exactly what a strict [`wire::decode`] returns, and
/// keeps no salvage report.
pub fn prepare_wire(payload: &[u8], policy: &RepairPolicy) -> PreparedUpload {
    match wire::decode_salvage(payload) {
        Ok(salvaged) => {
            prepare_decoded(salvaged.bundle, Some(salvaged.report), policy)
        }
        Err(e) => PreparedUpload::Rejected(QuarantineEntry {
            reason: RejectReason::Undecodable,
            user: None,
            session: None,
            detail: e.to_string(),
        }),
    }
}

/// Runs one already-decoded bundle through anonymize → repair →
/// validate (the wire-less variant of [`prepare_wire`]).
pub fn prepare_bundle(
    bundle: TraceBundle,
    policy: &RepairPolicy,
) -> PreparedUpload {
    prepare_decoded(bundle, None, policy)
}

fn prepare_decoded(
    mut bundle: TraceBundle,
    salvage: Option<SalvageReport>,
    policy: &RepairPolicy,
) -> PreparedUpload {
    bundle.anonymize();
    let reject =
        |bundle: &TraceBundle, reason: RejectReason, detail: String| {
            PreparedUpload::Rejected(QuarantineEntry {
                reason,
                user: Some(bundle.user.clone()),
                session: Some(bundle.session),
                detail,
            })
        };
    let repairs = match repair(&mut bundle, policy) {
        Ok(actions) => actions,
        Err(e) => {
            let reason = match e {
                crate::repair::RepairReject::OutOfOrderBeyondBound {
                    ..
                } => RejectReason::OutOfOrderBeyondRepair,
                crate::repair::RepairReject::TooManyStrayExits { .. } => {
                    RejectReason::UnmatchedBeyondRepair
                }
            };
            return reject(&bundle, reason, e.to_string());
        }
    };
    // Repair guarantees validity; keep the check as a backstop so a
    // policy bug quarantines instead of poisoning analysis.
    if let Err(e) = bundle.validate() {
        return reject(&bundle, RejectReason::Invalid, e.to_string());
    }
    PreparedUpload::Ready {
        bundle,
        repairs,
        salvage: salvage.filter(|s| !s.is_intact()),
    }
}

/// Read-locks one of a [`TraceStore`]'s locks, recovering from poison:
/// each guarded update is one push or insert, so a panic on another
/// thread never leaves the data half-changed.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks one of a [`TraceStore`]'s locks; see [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Thread-safe collection of uploaded bundles.
#[derive(Debug, Default)]
pub struct TraceStore {
    bundles: RwLock<Vec<TraceBundle>>,
    /// `(user, session)` keys already accepted, for retry dedup.
    seen: RwLock<HashSet<(String, u64)>>,
    quarantine: RwLock<Vec<QuarantineEntry>>,
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Ingests one bundle resiliently: anonymizes, repairs within the
    /// default [`RepairPolicy`], dedups, stores. Never panics, never
    /// errors — every possible input maps to an [`IngestOutcome`].
    pub fn ingest_bundle(&self, bundle: TraceBundle) -> IngestOutcome {
        self.apply_prepared(prepare_bundle(bundle, &RepairPolicy::default()))
    }

    /// Ingests one wire payload resiliently: salvage of whatever valid
    /// prefix it holds (all of an intact payload), then repair. This is
    /// the path fleet uploads take.
    pub fn ingest_wire(&self, payload: &[u8]) -> IngestOutcome {
        self.apply_prepared(prepare_wire(payload, &RepairPolicy::default()))
    }

    /// Commits a prepared upload: atomically claims a `Ready` bundle's
    /// `(user, session)` key and stores it, quarantines a duplicate
    /// and everything else.
    fn apply_prepared(&self, prepared: PreparedUpload) -> IngestOutcome {
        let outcome = prepared.outcome();
        let entry = match prepared {
            PreparedUpload::Ready { bundle, .. } => {
                let key = (bundle.user.clone(), bundle.session);
                if write(&self.seen).insert(key) {
                    write(&self.bundles).push(bundle);
                    return outcome;
                }
                QuarantineEntry {
                    reason: RejectReason::Duplicate,
                    detail: format!(
                        "session {} for user {} already accepted",
                        bundle.session, bundle.user
                    ),
                    user: Some(bundle.user),
                    session: Some(bundle.session),
                }
            }
            PreparedUpload::Rejected(entry) => entry,
        };
        let reason = entry.reason;
        write(&self.quarantine).push(entry);
        IngestOutcome::Rejected(reason)
    }

    /// Ingests many upload batches concurrently, one thread per batch,
    /// as the collection server would. Returns every bundle's
    /// [`IngestOutcome`], batch structure preserved.
    pub fn ingest_concurrently(
        self: &Arc<Self>,
        batches: Vec<Vec<TraceBundle>>,
    ) -> IngestReport {
        self.ingest_batches(batches, |store, bundle| {
            store.ingest_bundle(bundle)
        })
    }

    /// Wire-payload variant of [`TraceStore::ingest_concurrently`].
    pub fn ingest_wire_concurrently(
        self: &Arc<Self>,
        batches: Vec<Vec<Vec<u8>>>,
    ) -> IngestReport {
        self.ingest_batches(batches, |store, payload| {
            store.ingest_wire(&payload)
        })
    }

    fn ingest_batches<T>(
        self: &Arc<Self>,
        batches: Vec<T>,
        ingest_one: impl Fn(&TraceStore, <T as IntoIterator>::Item) -> IngestOutcome
            + Send
            + Copy,
    ) -> IngestReport
    where
        T: IntoIterator + Send,
        <T as IntoIterator>::Item: Send,
    {
        let mut slots: Vec<Vec<IngestOutcome>> =
            Vec::with_capacity(batches.len());
        slots.resize_with(batches.len(), Vec::new);
        std::thread::scope(|scope| {
            for (batch, slot) in batches.into_iter().zip(slots.iter_mut()) {
                let store = Arc::clone(self);
                scope.spawn(move || {
                    *slot = batch
                        .into_iter()
                        .map(|item| ingest_one(&store, item))
                        .collect();
                });
            }
        });
        IngestReport { outcomes: slots }
    }

    /// Number of stored bundles.
    pub fn len(&self) -> usize {
        read(&self.bundles).len()
    }

    /// Whether the store holds no bundles.
    pub fn is_empty(&self) -> bool {
        read(&self.bundles).is_empty()
    }

    /// Snapshot of all bundles, sorted by `(user, session)` so analysis
    /// input order is deterministic regardless of upload interleaving.
    pub fn snapshot(&self) -> Vec<TraceBundle> {
        let mut v = read(&self.bundles).clone();
        v.sort_by(|a, b| (&a.user, a.session).cmp(&(&b.user, b.session)));
        v
    }

    /// Distinct users that have uploaded at least one bundle.
    pub fn users(&self) -> Vec<String> {
        let mut users: Vec<String> =
            read(&self.bundles).iter().map(|b| b.user.clone()).collect();
        users.sort();
        users.dedup();
        users
    }

    /// Snapshot of the quarantine, in arrival order.
    pub fn quarantine(&self) -> Vec<QuarantineEntry> {
        read(&self.quarantine).clone()
    }

    /// Number of quarantined uploads.
    pub fn quarantine_len(&self) -> usize {
        read(&self.quarantine).len()
    }

    /// Per-reason counts of quarantined uploads.
    pub fn quarantine_counters(&self) -> BTreeMap<RejectReason, usize> {
        let mut counters = BTreeMap::new();
        for entry in read(&self.quarantine).iter() {
            *counters.entry(entry.reason).or_insert(0) += 1;
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Direction, EventRecord};

    fn bundle(user: &str, session: u64) -> TraceBundle {
        let mut b = TraceBundle::new(user, session, "nexus6");
        b.events
            .push(EventRecord::new(10, Direction::Enter, "LA;->onResume"));
        b.events
            .push(EventRecord::new(20, Direction::Exit, "LA;->onResume"));
        b
    }

    #[test]
    fn ingest_bundle_accepts_valid_bundles() {
        let store = TraceStore::new();
        assert_eq!(store.ingest_bundle(bundle("u1", 0)), IngestOutcome::Clean);
        assert_eq!(store.ingest_bundle(bundle("u1", 1)), IngestOutcome::Clean);
        assert_eq!(store.len(), 2);
        assert_eq!(store.users(), vec!["u1".to_string()]);
    }

    #[test]
    fn every_reject_reason_round_trips_its_label_and_code() {
        for (code, reason) in RejectReason::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(reason.code()), code);
            assert_eq!(RejectReason::from_code(reason.code()), Some(reason));
            assert_eq!(RejectReason::from_label(reason.label()), Some(reason));
            assert_eq!(reason.to_string(), reason.label());
        }
        // Stored checkpoints and served catalogs carry these.
        let labels = RejectReason::ALL.map(RejectReason::label);
        assert_eq!(
            labels,
            [
                "undecodable",
                "out-of-order-beyond-repair",
                "unmatched-beyond-repair",
                "duplicate",
                "invalid",
            ]
        );
        assert_eq!(RejectReason::from_label("bogus"), None);
        assert_eq!(RejectReason::from_code(5), None);
    }

    #[test]
    fn validate_rejects_disordered_utilization() {
        use crate::util::UtilizationSample;
        let mut b = bundle("u1", 0);
        b.utilization.push(UtilizationSample::new(1_000));
        b.utilization.push(UtilizationSample::new(500));
        assert_eq!(b.validate(), Err(TraceError::OutOfOrder { index: 1 }));
    }

    #[test]
    fn prepare_wire_repairs_disordered_utilization() {
        // A damaged sample clock must come back *sorted* — the power
        // model walks samples in order, and before this repair such a
        // payload crashed the ingest worker instead of recovering.
        use crate::util::UtilizationSample;
        let mut b = bundle("u1", 0);
        for ts in [0u64, 1_000, 500] {
            b.utilization.push(UtilizationSample::new(ts));
        }
        let payload = crate::wire::encode(&b);
        match prepare_wire(&payload, &RepairPolicy::default()) {
            PreparedUpload::Ready {
                bundle, repairs, ..
            } => {
                assert_eq!(
                    repairs,
                    vec![crate::repair::RepairAction::SortedUtilization {
                        displacement_ms: 500
                    }]
                );
                assert!(bundle.validate().is_ok());
            }
            other => panic!("expected a repaired upload, got {other:?}"),
        }
    }

    #[test]
    fn ingest_bundle_repairs_bounded_disorder() {
        let store = TraceStore::new();
        let mut b = TraceBundle::new("u1", 0, "nexus6");
        b.events
            .push(EventRecord::new(20, Direction::Enter, "LB;->b"));
        b.events
            .push(EventRecord::new(10, Direction::Enter, "LA;->a"));
        b.events
            .push(EventRecord::new(15, Direction::Exit, "LA;->a"));
        b.events
            .push(EventRecord::new(25, Direction::Exit, "LB;->b"));
        let outcome = store.ingest_bundle(b);
        assert!(
            matches!(outcome, IngestOutcome::Recovered { ref repairs, .. } if !repairs.is_empty())
        );
        assert_eq!(store.len(), 1);
        assert!(store.snapshot()[0].validate().is_ok());
    }

    #[test]
    fn ingest_bundle_rejects_disorder_beyond_policy() {
        let store = TraceStore::new();
        let mut b = TraceBundle::new("u1", 0, "nexus6");
        b.events
            .push(EventRecord::new(60_000, Direction::Enter, "LA;->a"));
        b.events
            .push(EventRecord::new(10, Direction::Exit, "LA;->a"));
        let outcome = store.ingest_bundle(b);
        assert_eq!(
            outcome,
            IngestOutcome::Rejected(RejectReason::OutOfOrderBeyondRepair)
        );
        assert!(store.is_empty());
        assert_eq!(
            store
                .quarantine_counters()
                .get(&RejectReason::OutOfOrderBeyondRepair),
            Some(&1)
        );
    }

    #[test]
    fn ingest_bundle_dedups_retried_uploads() {
        let store = TraceStore::new();
        assert_eq!(store.ingest_bundle(bundle("u1", 0)), IngestOutcome::Clean);
        assert_eq!(
            store.ingest_bundle(bundle("u1", 0)),
            IngestOutcome::Rejected(RejectReason::Duplicate)
        );
        assert_eq!(store.len(), 1);
        let q = store.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].reason, RejectReason::Duplicate);
        assert_eq!((q[0].user.as_deref(), q[0].session), (Some("u1"), Some(0)));
    }

    #[test]
    fn ingest_wire_accepts_clean_payload() {
        let store = TraceStore::new();
        let payload = wire::encode_v2(&bundle("u1", 0));
        assert_eq!(store.ingest_wire(&payload), IngestOutcome::Clean);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn ingest_wire_salvages_truncated_payload() {
        let store = TraceStore::new();
        let mut b = TraceBundle::new("u1", 0, "nexus6");
        for i in 0..20u64 {
            b.events.push(EventRecord::new(
                i * 10,
                Direction::Enter,
                format!("LA;->c{i}"),
            ));
            b.events.push(EventRecord::new(
                i * 10 + 5,
                Direction::Exit,
                format!("LA;->c{i}"),
            ));
        }
        let payload = wire::encode_v2(&b);
        let cut = payload.len() * 2 / 3;
        let outcome = store.ingest_wire(&payload[..cut]);
        match outcome {
            IngestOutcome::Recovered {
                salvage: Some(report),
                ..
            } => {
                assert!(report.lost_records() > 0);
            }
            other => panic!("expected salvaged recovery, got {other:?}"),
        }
        assert_eq!(store.len(), 1);
        assert!(store.snapshot()[0].validate().is_ok());
    }

    #[test]
    fn ingest_wire_quarantines_garbage() {
        let store = TraceStore::new();
        let outcome = store.ingest_wire(&[0xAB; 32]);
        assert_eq!(outcome, IngestOutcome::Rejected(RejectReason::Undecodable));
        assert!(store.is_empty());
        let q = store.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].user, None);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let store = TraceStore::new();
        for (user, session) in [("u2", 0), ("u1", 1), ("u1", 0)] {
            assert!(store.ingest_bundle(bundle(user, session)).accepted());
        }
        let snap = store.snapshot();
        let keys: Vec<(String, u64)> =
            snap.iter().map(|b| (b.user.clone(), b.session)).collect();
        assert_eq!(
            keys,
            vec![
                ("u1".to_string(), 0),
                ("u1".to_string(), 1),
                ("u2".to_string(), 0)
            ]
        );
    }

    #[test]
    fn ingest_bundle_anonymizes_payloads() {
        let store = TraceStore::new();
        let mut b = TraceBundle::new("u1", 0, "nexus6");
        b.events.push(EventRecord::new(
            10,
            Direction::Enter,
            "LA;->connect 192.168.0.9",
        ));
        b.events.push(EventRecord::new(
            20,
            Direction::Exit,
            "LA;->connect 192.168.0.9",
        ));
        assert_eq!(store.ingest_bundle(b), IngestOutcome::Clean);
        let snap = store.snapshot();
        assert!(snap[0].events.records()[0].event.contains("<redacted>"));
    }

    #[test]
    fn concurrent_ingest_accepts_all_valid_bundles() {
        let store = Arc::new(TraceStore::new());
        let batches: Vec<Vec<TraceBundle>> = (0..8)
            .map(|u| (0..25).map(|s| bundle(&format!("user-{u}"), s)).collect())
            .collect();
        let report = store.ingest_concurrently(batches);
        assert_eq!(report.accepted(), 200);
        assert_eq!(report.clean(), 200);
        assert_eq!(report.rejected(), 0);
        assert_eq!(store.len(), 200);
        assert_eq!(store.users().len(), 8);
    }

    #[test]
    fn concurrent_ingest_reports_per_bundle_outcomes() {
        let store = Arc::new(TraceStore::new());
        let mut beyond_repair = TraceBundle::new("bad", 0, "nexus6");
        beyond_repair.events.push(EventRecord::new(
            60_000,
            Direction::Enter,
            "LA;->x",
        ));
        beyond_repair.events.push(EventRecord::new(
            10,
            Direction::Exit,
            "LA;->x",
        ));
        let report = store.ingest_concurrently(vec![
            vec![bundle("ok", 0)],
            vec![beyond_repair],
        ]);
        assert_eq!(report.total(), 2);
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.outcomes[0][0], IngestOutcome::Clean);
        assert_eq!(
            report.outcomes[1][0],
            IngestOutcome::Rejected(RejectReason::OutOfOrderBeyondRepair)
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn concurrent_duplicate_sessions_accept_exactly_one() {
        let store = Arc::new(TraceStore::new());
        // Eight threads all racing to upload the same session.
        let batches: Vec<Vec<TraceBundle>> =
            (0..8).map(|_| vec![bundle("u1", 0)]).collect();
        let report = store.ingest_concurrently(batches);
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.rejected(), 7);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.quarantine_counters().get(&RejectReason::Duplicate),
            Some(&7)
        );
    }
}
