//! Checkpoint format coverage: round-trip fidelity plus
//! fault-tolerance. A checkpoint restored from disk must be
//! *structurally identical* to the live in-memory state (same apps,
//! epochs, dedup sets, quarantine, partials), and every damaged
//! file — truncated at any byte, any single bit flipped, trailing
//! garbage — must surface as a typed [`CheckpointError`], never a
//! panic and never a silently-wrong fleet.

use energydx_fleetd::checkpoint::{
    checkpoint_bytes, load_from, restore_bytes, save_to, CheckpointError,
};
use energydx_fleetd::fixture;
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_trace::fault::{FaultInjector, FaultKind};
use proptest::prelude::*;
use std::path::PathBuf;

const APPS: [&str; 3] = ["mail", "maps", "podcasts"];
const USERS: [&str; 5] = ["u00", "u01", "u02", "u03", "u04"];

/// One scripted submission: which app/user/session, and how (if at
/// all) the payload is damaged before it reaches the daemon.
#[derive(Debug, Clone)]
struct Submission {
    app: usize,
    user: usize,
    session: u64,
    damage: u8,
}

fn submissions() -> impl Strategy<Value = Vec<Submission>> {
    prop::collection::vec(
        (0usize..APPS.len(), 0usize..USERS.len(), 0u64..4, 0u8..4).prop_map(
            |(app, user, session, damage)| Submission {
                app,
                user,
                session,
                damage,
            },
        ),
        0..24,
    )
}

/// Builds a state by pushing every scripted submission through the
/// real ingest path (damage modes: 0-1 clean, 2 truncated, 3
/// bit-flipped). Ingestion already keeps each epoch as the maximal
/// same-release runs a restore produces, so no reshaping is needed
/// before comparing the two structurally.
fn state_of(script: &[Submission]) -> FleetState {
    let mut state = FleetState::new(FleetConfig::default());
    for s in script {
        let mut payload = fixture::payload(USERS[s.user], s.session);
        match s.damage {
            2 => payload.truncate(payload.len() / 2),
            3 => {
                let mid = payload.len() / 2;
                payload[mid] ^= 0x40;
            }
            _ => {}
        }
        state.submit(APPS[s.app], &payload);
    }
    state
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("energydx-ckpt-{tag}-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round trip: restore(checkpoint(state)) reproduces the apps map
    /// structurally — partials included — and every app's diagnosis
    /// byte for byte.
    #[test]
    fn checkpoint_round_trips_arbitrary_fleet_states(
        script in submissions(),
    ) {
        let state = state_of(&script);
        let restored =
            restore_bytes(&checkpoint_bytes(&state), FleetConfig::default())
                .expect("round trip must restore");
        prop_assert_eq!(restored.apps(), state.apps());
        prop_assert_eq!(
            restored.accepted_total(),
            state.accepted_total()
        );
        for app in state.apps().keys() {
            prop_assert_eq!(
                restored.diagnose_json(app, None),
                state.diagnose_json(app, None),
                "diagnosis diverged for {}", app
            );
        }
    }

    /// Every strict prefix of a checkpoint file is a typed error —
    /// the reader never runs off the end, whatever byte the cut
    /// lands on.
    #[test]
    fn any_truncation_is_a_typed_error(script in submissions()) {
        let bytes = checkpoint_bytes(&state_of(&script));
        for cut in 0..bytes.len() {
            let err = restore_bytes(&bytes[..cut], FleetConfig::default())
                .expect_err("a strict prefix must not restore");
            prop_assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::Malformed(_)
                ),
                "cut at {} gave unexpected error {:?}", cut, err
            );
        }
    }
}

#[test]
fn empty_state_round_trips() {
    let state = FleetState::new(FleetConfig::default());
    let restored =
        restore_bytes(&checkpoint_bytes(&state), FleetConfig::default())
            .expect("empty state restores");
    assert!(restored.apps().is_empty());
}

/// Exhaustive single-bit damage: the CRC (or a header check) catches
/// every flip. No flipped checkpoint may restore, and none may panic.
#[test]
fn every_single_bit_flip_is_rejected() {
    let script = vec![
        Submission {
            app: 0,
            user: 0,
            session: 0,
            damage: 0,
        },
        Submission {
            app: 1,
            user: 1,
            session: 0,
            damage: 0,
        },
        Submission {
            app: 0,
            user: 2,
            session: 1,
            damage: 2,
        },
    ];
    let bytes = checkpoint_bytes(&state_of(&script));
    for index in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut flipped = bytes.clone();
            flipped[index] ^= 1 << bit;
            assert!(
                restore_bytes(&flipped, FleetConfig::default()).is_err(),
                "flip at byte {index} bit {bit} restored anyway"
            );
        }
    }
}

/// The shared fault injector (the same one the wire-v2 salvage tests
/// use) run against checkpoint files: bit flips past the header and
/// random truncations all come back as typed errors.
#[test]
fn fault_injector_damage_is_survivable() {
    let script: Vec<Submission> = (0..10)
        .map(|i| Submission {
            app: i % APPS.len(),
            user: i % USERS.len(),
            session: (i / USERS.len()) as u64,
            damage: 0,
        })
        .collect();
    let bytes = checkpoint_bytes(&state_of(&script));
    let mut injector = FaultInjector::new(0xC4EC, 1.0);
    for kind in [FaultKind::BitFlip, FaultKind::Truncate] {
        for _ in 0..100 {
            for damaged in injector.corrupt(&bytes, kind) {
                let err = restore_bytes(&damaged, FleetConfig::default())
                    .expect_err("damaged checkpoint must not restore");
                assert!(
                    matches!(
                        err,
                        CheckpointError::Truncated
                            | CheckpointError::CrcMismatch
                            | CheckpointError::Malformed(_)
                    ),
                    "{kind}: unexpected error {err:?}"
                );
            }
        }
    }
}

#[test]
fn header_damage_is_classified_precisely() {
    let state = state_of(&[Submission {
        app: 0,
        user: 0,
        session: 0,
        damage: 0,
    }]);
    let bytes = checkpoint_bytes(&state);

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert_eq!(
        restore_bytes(&wrong_magic, FleetConfig::default()).unwrap_err(),
        CheckpointError::BadMagic
    );

    // Only version 3 restores: 0 and 9 were never written, and 1 and 2
    // are retired.
    for version in [0, 1, 2, 9] {
        let mut other_version = bytes.clone();
        other_version[4] = version;
        assert_eq!(
            restore_bytes(&other_version, FleetConfig::default()).unwrap_err(),
            CheckpointError::UnsupportedVersion(version)
        );
    }

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(
        restore_bytes(&trailing, FleetConfig::default()),
        Err(CheckpointError::Malformed(_))
    ));
}

#[test]
fn disk_round_trip_and_fresh_directory() {
    let dir = tmp_dir("disk");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        load_from(&dir, FleetConfig::default())
            .expect("a missing checkpoint is not an error")
            .is_none(),
        "a missing checkpoint is a fresh daemon"
    );
    let state = state_of(&[
        Submission {
            app: 2,
            user: 3,
            session: 0,
            damage: 0,
        },
        Submission {
            app: 2,
            user: 4,
            session: 0,
            damage: 3,
        },
    ]);
    let path = save_to(&state, &dir).expect("save");
    assert!(path.ends_with("fleet.ckpt"));
    let loaded = load_from(&dir, FleetConfig::default())
        .expect("load")
        .expect("checkpoint exists");
    assert_eq!(loaded.apps(), state.apps());
    let _ = std::fs::remove_dir_all(&dir);
}
