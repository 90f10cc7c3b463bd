//! Merge laws of the version dimension.
//!
//! Keying epoch state by `(app, version)` must be invisible to every
//! pre-existing consumer and exact for the new one:
//!
//! 1. **Projection** — diagnosing one release of a mixed-version
//!    daemon serves byte-for-byte what a fresh daemon fed only that
//!    release's uploads (same relative order, same damage) serves.
//! 2. **Fold-across** — an *unversioned* query over a versioned
//!    daemon is byte-identical to the same query over a version-blind
//!    daemon whose payloads differ only in the stamp.
//! 3. **Persistence** — a checkpoint round trip preserves every
//!    per-version diagnosis, not just the version-blind one.
//!
//! Each law is quantified over arbitrary interleavings of apps,
//! users, sessions, releases, damage, and a mid-script checkpoint
//! restore, so the version split cannot quietly depend on upload order
//! or on whether the resident runs were rebuilt from a checkpoint.

use energydx_fleetd::checkpoint::{checkpoint_bytes, restore_bytes};
use energydx_fleetd::fixture;
use energydx_fleetd::state::{FleetConfig, FleetState};
use proptest::prelude::*;

const APPS: [&str; 2] = ["mail", "maps"];
const USERS: [&str; 5] = ["u00", "u01", "u02", "u03", "u04"];
const VERSIONS: [&str; 3] = ["1.9.0", "2.0.0", "2.1.0-rc1"];

/// One scripted submission. Damage modes: 0-1 clean, 2 cut below the
/// wire header (rejected whatever the encoding), 3 bit-flipped.
#[derive(Debug, Clone)]
struct Submission {
    app: usize,
    user: usize,
    session: u64,
    version: usize,
    damage: u8,
}

impl Submission {
    /// The session id as uploaded. Offsetting by release keeps
    /// duplicate `(user, session)` claims *within* one version — where
    /// both sides of every law see them — while ruling out
    /// cross-version claims, which the daemon deliberately dedups
    /// (one session is one session, whatever stamp a retry carries)
    /// and which a single-version reference daemon can never observe.
    fn session_id(&self) -> u64 {
        self.session * VERSIONS.len() as u64 + self.version as u64
    }
}

fn submissions(max_damage: u8) -> impl Strategy<Value = Vec<Submission>> {
    prop::collection::vec(
        (
            0usize..APPS.len(),
            0usize..USERS.len(),
            0u64..4,
            0usize..VERSIONS.len(),
            0u8..=max_damage,
        )
            .prop_map(|(app, user, session, version, damage)| {
                Submission {
                    app,
                    user,
                    session,
                    version,
                    damage,
                }
            }),
        0..24,
    )
}

fn damaged(mut payload: Vec<u8>, damage: u8) -> Vec<u8> {
    match damage {
        2 => payload.truncate(6),
        3 => {
            let mid = payload.len() / 2;
            payload[mid] ^= 0x40;
        }
        _ => {}
    }
    payload
}

/// Restores `state` from its own checkpoint, as a restart would.
fn restarted(state: &FleetState) -> FleetState {
    restore_bytes(&checkpoint_bytes(state), FleetConfig::default())
        .expect("a daemon checkpoint restores")
}

/// Ingests the script's version-stamped payloads, restarting from a
/// checkpoint midway when asked so laws hold over live and restored
/// runs alike.
fn versioned_state(script: &[Submission], restart: bool) -> FleetState {
    let mut state = FleetState::new(FleetConfig::default());
    for (i, s) in script.iter().enumerate() {
        let payload = damaged(
            fixture::payload_versioned(
                USERS[s.user],
                s.session_id(),
                VERSIONS[s.version],
            ),
            s.damage,
        );
        state.submit(APPS[s.app], &payload);
        if restart && i == script.len() / 2 {
            state = restarted(&state);
        }
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Law 1: `diagnose_version(v)` over the mixed daemon equals a
    /// fresh daemon fed only `v`'s uploads. Bit flips are fair game —
    /// both sides see identical bytes, so salvage decisions agree.
    #[test]
    fn per_version_diagnosis_is_a_projection(
        script in submissions(3),
        restart in any::<bool>(),
    ) {
        let mixed = versioned_state(&script, restart);
        for (v, version) in VERSIONS.iter().enumerate() {
            let mut only = FleetState::new(FleetConfig::default());
            for s in script.iter().filter(|s| s.version == v) {
                let payload = damaged(
                    fixture::payload_versioned(
                        USERS[s.user],
                        s.session_id(),
                        version,
                    ),
                    s.damage,
                );
                only.submit(APPS[s.app], &payload);
            }
            for app in APPS {
                if !mixed.apps().contains_key(app) {
                    continue;
                }
                let from_mixed = mixed
                    .diagnose_version(app, None, version)
                    .map(|r| r.to_canonical_json());
                if !only.apps().contains_key(app) {
                    // No upload at all carried this app+version pair:
                    // there is no single-version daemon to project
                    // onto, and the mixed daemon must serve the
                    // documented empty report, not an error.
                    prop_assert!(from_mixed.is_ok());
                    continue;
                }
                prop_assert_eq!(
                    from_mixed,
                    only.diagnose_version(app, None, version)
                        .map(|r| r.to_canonical_json()),
                    "projection diverged for {} {}", app, version
                );
            }
        }
    }

    /// Law 2: the unversioned query folds across versions — it serves
    /// the bytes a version-blind daemon serves over payloads that
    /// differ only in the stamp. Damage is restricted to modes whose
    /// accept/reject outcome cannot depend on the encoding (clean, or
    /// cut below the header), since a salvaged half of a v3 payload
    /// is legitimately not a salvaged half of a v2 one.
    #[test]
    fn unversioned_queries_fold_across_versions(
        script in submissions(2),
        restart in any::<bool>(),
    ) {
        let versioned = versioned_state(&script, restart);
        let mut blind = FleetState::new(FleetConfig::default());
        for (i, s) in script.iter().enumerate() {
            let payload = damaged(
                fixture::payload(USERS[s.user], s.session_id()),
                s.damage,
            );
            blind.submit(APPS[s.app], &payload);
            if restart && i == script.len() / 2 {
                blind = restarted(&blind);
            }
        }
        prop_assert_eq!(
            versioned.apps().keys().collect::<Vec<_>>(),
            blind.apps().keys().collect::<Vec<_>>()
        );
        for app in versioned.apps().keys() {
            prop_assert_eq!(
                versioned.diagnose_json(app, None),
                blind.diagnose_json(app, None),
                "unversioned fold diverged for {}", app
            );
        }
    }

    /// Law 3: checkpoints carry the version split. Every per-version
    /// diagnosis survives a save/restore byte for byte.
    #[test]
    fn checkpoints_preserve_per_version_diagnoses(
        script in submissions(3),
        restart in any::<bool>(),
    ) {
        let state = versioned_state(&script, restart);
        let restored =
            restore_bytes(&checkpoint_bytes(&state), FleetConfig::default())
                .expect("round trip must restore");
        for app in state.apps().keys() {
            for version in VERSIONS {
                prop_assert_eq!(
                    restored
                        .diagnose_version(app, None, version)
                        .map(|r| r.to_canonical_json()),
                    state
                        .diagnose_version(app, None, version)
                        .map(|r| r.to_canonical_json()),
                    "restored per-version diagnosis diverged for {} {}",
                    app, version
                );
            }
        }
    }
}
