//! Cluster protocol coverage, matching the checkpoint suite's rigor:
//! every inter-node message (PartialSince / PartialState /
//! PartialNotModified / FetchCheckpoint / InstallCheckpoint / Counts /
//! CheckpointData / Catalog / Degraded / ReportArtifacts) must
//! round-trip byte-perfectly through the frame codec, and every
//! damaged frame — truncated at any byte, any single bit flipped,
//! injector-corrupted — must surface as a typed [`ProtocolError`],
//! never a panic and never a silently different message.

use energydx_fleetd::convert::bundles_to_input;
use energydx_fleetd::fixture;
use energydx_fleetd::protocol::{
    read_frame, AppCatalog, DeploymentCounters, EpochCatalog, PartialStatus,
    ProtocolError, Request, Response,
};
use energydx_trace::fault::{FaultInjector, FaultKind};
use proptest::prelude::*;
use std::io::Cursor;

const APPS: [&str; 3] = ["mail", "maps", "podcasts"];
const USERS: [&str; 4] = ["u00", "u01", "u02", "u03"];

/// A real (non-toy) partial built through the actual map pipeline,
/// sized by the script so the encoded body length varies per case.
fn partial_of(script: &[(usize, u64)]) -> energydx::ShardPartial {
    let bundles: Vec<_> = script
        .iter()
        .map(|&(user, session)| fixture::bundle(USERS[user], session))
        .collect();
    let input = bundles_to_input(&bundles);
    energydx::EnergyDx::default().map_shard(input.traces(), 0)
}

fn scripts() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..USERS.len(), 0u64..4), 0..6)
}

#[derive(Debug, Clone)]
enum Wire {
    Req(Request),
    Resp(Response),
}

impl Wire {
    fn encode(&self) -> Vec<u8> {
        match self {
            Wire::Req(r) => r.encode(),
            Wire::Resp(r) => r.encode(),
        }
    }

    /// Decodes one frame back into the same side of the protocol.
    fn decode(&self, bytes: &[u8]) -> Result<Wire, ProtocolError> {
        let frame = match read_frame(&mut Cursor::new(bytes))? {
            Some(frame) => frame,
            None => return Err(ProtocolError::Io("empty stream".into())),
        };
        Ok(match self {
            Wire::Req(_) => Wire::Req(Request::decode(&frame)?),
            Wire::Resp(_) => Wire::Resp(Response::decode(&frame)?),
        })
    }

    fn same_as(&self, other: &Wire) -> bool {
        match (self, other) {
            (Wire::Req(a), Wire::Req(b)) => a == b,
            (Wire::Resp(a), Wire::Resp(b)) => a == b,
            _ => false,
        }
    }
}

/// `None` or a value drawn from `values`, each half the time.
fn maybe<S>(values: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), values.prop_map(Some)]
}

/// A report catalog shaped by the case: per-app epochs, quarantine
/// reasons, version labels, and the deployment counters.
fn catalog() -> impl Strategy<Value = Response> {
    let epoch = (
        0u64..5,
        0u64..50,
        0u64..5,
        prop::collection::vec(("[a-z-]{1,12}", 0u64..9), 0..3),
        prop::collection::vec("[0-9.]{0,6}", 0..3),
    )
        .prop_map(|(epoch, clean, recovered, quarantine, versions)| {
            EpochCatalog {
                epoch,
                clean,
                recovered,
                quarantine,
                versions,
            }
        });
    let app = (
        (0usize..APPS.len()).prop_map(|i| APPS[i].to_string()),
        0u64..5,
        prop::collection::vec(epoch, 0..3),
    )
        .prop_map(|(app, current_epoch, epochs)| AppCatalog {
            app,
            current_epoch,
            epochs,
        });
    let deployment = (
        0u64..9,
        0u64..9,
        0u64..99,
        prop::collection::vec(("[a-z]{1,10}", 0u64..99, 0u64..99), 0..3),
    )
        .prop_map(|(shed, spilled_runs, spilled_traces, cache)| {
            DeploymentCounters {
                shed,
                spilled_runs,
                spilled_traces,
                cache,
            }
        });
    (prop::collection::vec(app, 0..3), deployment)
        .prop_map(|(apps, deployment)| Response::Catalog { apps, deployment })
}

/// Every cluster message, parameterized by the proptest case.
fn cluster_messages() -> impl Strategy<Value = Wire> {
    let app = (0usize..APPS.len()).prop_map(|i| APPS[i].to_string());
    let status = prop_oneof![
        Just(PartialStatus::Found),
        Just(PartialStatus::UnknownApp),
        Just(PartialStatus::UnknownEpoch),
    ];
    let blob = prop::collection::vec(any::<u8>(), 0..256);
    let missing = prop::collection::vec(0u32..8, 0..4);
    prop_oneof![
        (
            app.clone(),
            maybe(0u64..5),
            maybe("[0-9.]{0,6}"),
            maybe((0u64..5, any::<u64>(), any::<u64>())),
        )
            .prop_map(|(app, epoch, version, token)| {
                Wire::Req(Request::PartialSince {
                    app,
                    epoch,
                    version,
                    token,
                })
            }),
        Just(Wire::Req(Request::FetchCheckpoint)),
        blob.clone().prop_map(|data| {
            Wire::Req(Request::InstallCheckpoint { data })
        }),
        Just(Wire::Req(Request::Counts)),
        (status, 0u64..5, any::<u64>(), any::<u64>(), scripts()).prop_map(
            |(status, epoch, incarnation, generation, script)| {
                Wire::Resp(Response::PartialState {
                    status,
                    epoch,
                    incarnation,
                    generation,
                    partial: partial_of(&script),
                })
            }
        ),
        any::<u64>().prop_map(|epoch| {
            Wire::Resp(Response::PartialNotModified { epoch })
        }),
        blob.prop_map(|data| Wire::Resp(Response::CheckpointData { data })),
        (0u64..100, 0u64..100).prop_map(|(accepted, quarantined)| {
            Wire::Resp(Response::Counts {
                accepted,
                quarantined,
            })
        }),
        (missing.clone(), "[a-z0-9{}:,\"]{0,64}").prop_map(
            |(missing, json)| {
                Wire::Resp(Response::Degraded { missing, json })
            }
        ),
        catalog().prop_map(Wire::Resp),
        (missing, "[a-z<>/ ]{0,64}", "[a-z0-9{}:,\"]{0,64}").prop_map(
            |(missing, html, json)| {
                Wire::Resp(Response::ReportArtifacts {
                    missing,
                    html,
                    json,
                })
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round trip: every cluster message decodes back to itself.
    #[test]
    fn cluster_messages_round_trip(msg in cluster_messages()) {
        let wire = msg.encode();
        let back = msg.decode(&wire).expect("clean frame must decode");
        prop_assert!(msg.same_as(&back), "{msg:?} decoded differently");
    }

    /// Every strict prefix of a frame is a typed error (cut 0 is the
    /// clean-EOF `Ok(None)` a closed connection produces — mapped to
    /// an Io error by the helper). The decoder never runs off the
    /// end, whatever byte the cut lands on.
    #[test]
    fn any_truncation_is_a_typed_error(msg in cluster_messages()) {
        let wire = msg.encode();
        for cut in 0..wire.len() {
            let err = msg
                .decode(&wire[..cut])
                .expect_err("a strict prefix must not decode");
            prop_assert!(
                matches!(
                    err,
                    ProtocolError::Truncated
                        | ProtocolError::BadMagic
                        | ProtocolError::Io(_)
                ),
                "cut at {} gave unexpected error {:?}", cut, err
            );
        }
    }

    /// Injector damage (the same faults the wire-v2 salvage tests
    /// use): bit flips and truncations all come back typed, and a
    /// frame that still decodes must decode to the original message
    /// (the CRC makes "decodes but differs" unreachable).
    #[test]
    fn fault_injector_damage_is_survivable(msg in cluster_messages()) {
        let wire = msg.encode();
        let mut injector = FaultInjector::new(0xC105, 1.0);
        for kind in [FaultKind::BitFlip, FaultKind::Truncate] {
            for _ in 0..20 {
                for damaged in injector.corrupt(&wire, kind) {
                    if let Ok(back) = msg.decode(&damaged) {
                        prop_assert!(
                            msg.same_as(&back),
                            "{kind}: damage decoded to a different message"
                        );
                    }
                }
            }
        }
    }
}

/// Exhaustive single-bit damage over one sample of every cluster
/// message kind (and each optional field present and absent): the
/// frame CRC (or a header check) catches each flip — no flipped frame
/// may decode to a *different* message, and none may panic.
#[test]
fn every_single_bit_flip_is_caught() {
    let partial_since = |version: Option<&str>, token| {
        Wire::Req(Request::PartialSince {
            app: "mail".to_string(),
            epoch: Some(2),
            version: version.map(str::to_string),
            token,
        })
    };
    let partial_state = |status, partial| {
        Wire::Resp(Response::PartialState {
            status,
            epoch: 1,
            incarnation: 0x5EED,
            generation: 9,
            partial,
        })
    };
    let samples = vec![
        partial_since(None, None),
        partial_since(Some("2.0.0"), None),
        partial_since(None, Some((2, 0x5EED, 9))),
        partial_since(Some(""), Some((2, 0x5EED, 9))),
        Wire::Req(Request::FetchCheckpoint),
        Wire::Req(Request::InstallCheckpoint {
            data: vec![0xAB; 24],
        }),
        Wire::Req(Request::Counts),
        partial_state(
            PartialStatus::Found,
            partial_of(&[(0, 0), (1, 0), (2, 1)]),
        ),
        partial_state(
            PartialStatus::UnknownApp,
            energydx::ShardPartial::empty(),
        ),
        partial_state(
            PartialStatus::UnknownEpoch,
            energydx::ShardPartial::empty(),
        ),
        Wire::Resp(Response::PartialNotModified { epoch: 3 }),
        Wire::Resp(Response::CheckpointData {
            data: vec![0x5A; 24],
        }),
        Wire::Resp(Response::Counts {
            accepted: 7,
            quarantined: 2,
        }),
        Wire::Resp(Response::Degraded {
            missing: vec![1, 2],
            json: "{\"x\":1}".to_string(),
        }),
        Wire::Resp(Response::Catalog {
            apps: vec![AppCatalog {
                app: "mail".to_string(),
                current_epoch: 1,
                epochs: vec![EpochCatalog {
                    epoch: 1,
                    clean: 6,
                    recovered: 1,
                    quarantine: vec![("duplicate".to_string(), 2)],
                    versions: vec!["1.9.0".to_string(), "2.0.0".to_string()],
                }],
            }],
            deployment: DeploymentCounters {
                shed: 1,
                spilled_runs: 2,
                spilled_traces: 12,
                cache: vec![("state".to_string(), 4, 3)],
            },
        }),
        Wire::Resp(Response::ReportArtifacts {
            missing: vec![2],
            html: "<p>x</p>".to_string(),
            json: "{}\n".to_string(),
        }),
    ];
    for msg in samples {
        let wire = msg.encode();
        for index in 0..wire.len() {
            for bit in 0..8u8 {
                let mut flipped = wire.clone();
                flipped[index] ^= 1 << bit;
                assert!(
                    msg.decode(&flipped).is_err(),
                    "{msg:?}: flip at byte {index} bit {bit} decoded anyway"
                );
            }
        }
    }
}
