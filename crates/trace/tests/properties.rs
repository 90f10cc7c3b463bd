//! Property tests for the trace infrastructure: log and wire round
//! trips, upload preparation, pairing invariants, and join bounds
//! (DESIGN.md §6).

use energydx_trace::event::{Direction, EventRecord, EventTrace};
use energydx_trace::join_power;
use energydx_trace::power::{PowerSample, PowerTrace};
use energydx_trace::store::{
    prepare_bundle, prepare_wire, PreparedUpload, QuarantineEntry,
    RejectReason, TraceBundle,
};
use energydx_trace::util::{Component, UtilizationSample};
use energydx_trace::{wire, RepairPolicy};
use proptest::prelude::*;

fn event_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[A-Za-z][A-Za-z0-9]{0,6}"
            .prop_map(|s| format!("Lcom/p/{s};->onResume")),
        Just("Idle(No_Display)".to_string()),
    ]
}

/// Well-formed traces: balanced enter/exit pairs at non-decreasing
/// timestamps.
fn balanced_trace() -> impl Strategy<Value = EventTrace> {
    prop::collection::vec((event_name(), 1u64..2_000), 0..30).prop_map(
        |items| {
            let mut trace = EventTrace::new();
            let mut t = 0u64;
            for (event, dur) in items {
                trace.push(EventRecord::new(
                    t,
                    Direction::Enter,
                    event.clone(),
                ));
                t += dur;
                trace.push(EventRecord::new(t, Direction::Exit, event));
                t += 1;
            }
            trace
        },
    )
}

fn bundle() -> impl Strategy<Value = TraceBundle> {
    (
        "[a-z0-9-]{1,12}",
        any::<u64>(),
        prop_oneof![Just("nexus6"), Just("nexus5"), Just("galaxy_s5")],
        balanced_trace(),
        prop::collection::vec(
            (0u64..100_000, prop::array::uniform6(0.0f64..1.0)),
            0..20,
        ),
    )
        .prop_map(|(user, session, device, events, samples)| {
            let mut b = TraceBundle::new(user, session, device);
            b.events = events;
            for (ts, util) in samples {
                let mut s = UtilizationSample::new(ts);
                for (i, c) in Component::ALL.into_iter().enumerate() {
                    s.set(c, util[i]);
                }
                b.utilization.push(s);
            }
            b
        })
}

/// Upload preparation written out as a strict decode, then a salvage
/// only when the strict decode fails.
fn strict_then_salvage(
    payload: &[u8],
    policy: &RepairPolicy,
) -> PreparedUpload {
    let salvaged = match wire::decode(payload) {
        Ok(bundle) => return prepare_bundle(bundle, policy),
        Err(_) => match wire::decode_salvage(payload) {
            Ok(salvaged) => salvaged,
            Err(e) => {
                return PreparedUpload::Rejected(QuarantineEntry {
                    reason: RejectReason::Undecodable,
                    user: None,
                    session: None,
                    detail: e.to_string(),
                })
            }
        },
    };
    let mut prepared = prepare_bundle(salvaged.bundle, policy);
    if let PreparedUpload::Ready { salvage, .. } = &mut prepared {
        *salvage = Some(salvaged.report).filter(|r| !r.is_intact());
    }
    prepared
}

proptest! {
    #[test]
    fn prepare_wire_equals_strict_then_salvage(
        b in bundle(),
        version in 1u8..4,
        damage in 0u8..3,
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = match version {
            1 => wire::encode(&b),
            2 => wire::encode_v2(&b),
            _ => wire::encode_v3(&b),
        };
        let i = at % bytes.len();
        match damage {
            0 => bytes.truncate(i),
            1 => bytes[i] ^= 1 << bit,
            _ => {
                let end = (i + 4).min(bytes.len());
                bytes[i..end].fill(0xFF);
            }
        }
        let policy = RepairPolicy::default();
        prop_assert_eq!(
            prepare_wire(&bytes, &policy),
            strict_then_salvage(&bytes, &policy)
        );
    }

    #[test]
    fn wire_round_trips_any_bundle(b in bundle()) {
        let bytes = wire::encode(&b);
        prop_assert_eq!(wire::decode(&bytes).unwrap(), b);
    }

    #[test]
    fn truncated_wire_never_panics(b in bundle(), cut_fraction in 0.0f64..1.0) {
        let bytes = wire::encode(&b);
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        // Either a clean decode (cut == len) or an error; never a panic.
        let _ = wire::decode(&bytes[..cut.min(bytes.len())]);
    }

    #[test]
    fn wire_v2_round_trips_any_bundle(b in bundle()) {
        let bytes = wire::encode_v2(&b);
        prop_assert_eq!(wire::decode(&bytes).unwrap(), b.clone());
        // The salvage path agrees with the strict one on intact input.
        let salvaged = wire::decode_salvage(&bytes).unwrap();
        prop_assert!(salvaged.report.is_intact());
        prop_assert_eq!(salvaged.report.lost_records(), 0);
        prop_assert_eq!(salvaged.bundle, b);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = wire::decode(&bytes);
        let _ = wire::decode_salvage(&bytes);
    }

    #[test]
    fn decode_never_panics_past_a_valid_magic(
        version in 0u8..4,
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Drive the parser deeper by handing it a plausible frame start.
        let mut payload = b"EDXT".to_vec();
        payload.push(version);
        payload.extend_from_slice(&bytes);
        let _ = wire::decode(&payload);
        let _ = wire::decode_salvage(&payload);
    }

    #[test]
    fn truncated_v2_salvage_never_fabricates_records(
        b in bundle(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = wire::encode_v2(&b);
        let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len());
        if let Ok(salvaged) = wire::decode_salvage(&bytes[..cut]) {
            prop_assert!(salvaged.bundle.events.len() <= b.events.len());
            prop_assert!(salvaged.bundle.utilization.len() <= b.utilization.len());
            let report = &salvaged.report;
            prop_assert!(report.events_recovered <= b.events.len());
            prop_assert!(report.samples_recovered <= b.utilization.len());
        }
    }

    #[test]
    fn bit_flips_never_panic_either_decoder(
        b in bundle(),
        byte_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = wire::encode_v2(&b);
        let idx = byte_seed % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = wire::decode(&bytes);
        if let Ok(salvaged) = wire::decode_salvage(&bytes) {
            // A single bit flip is at most one section's damage: the
            // salvage must never report more records than were encoded
            // unless the flip hit a count field, which the CRC flags.
            let report = salvaged.report;
            if report.events_crc_ok == Some(true) {
                prop_assert!(report.events_recovered <= b.events.len());
            }
        }
    }

    #[test]
    fn log_format_round_trips(t in balanced_trace()) {
        let log = t.to_log();
        prop_assert_eq!(EventTrace::from_log(&log).unwrap(), t);
    }

    #[test]
    fn pairing_yields_one_instance_per_enter(t in balanced_trace()) {
        let enters = t
            .records()
            .iter()
            .filter(|r| r.direction == Direction::Enter)
            .count();
        let instances = t.pair_instances_strict().unwrap();
        prop_assert_eq!(instances.len(), enters);
        for i in &instances {
            prop_assert!(i.end_ms >= i.start_ms);
        }
    }

    #[test]
    fn lenient_pairing_matches_strict_on_balanced_traces(t in balanced_trace()) {
        prop_assert_eq!(t.pair_instances(), t.pair_instances_strict().unwrap());
    }

    #[test]
    fn joined_power_is_within_sample_range(
        t in balanced_trace(),
        powers in prop::collection::vec(0.0f64..2_000.0, 1..50),
    ) {
        let power: PowerTrace = powers
            .iter()
            .enumerate()
            .map(|(i, &mw)| {
                let mut s = PowerSample::new((i as u64 + 1) * 500);
                s.set_component(Component::Cpu, mw);
                s
            })
            .collect();
        let lo = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = powers.iter().cloned().fold(0.0f64, f64::max);
        let instances = t.pair_instances();
        for joined in join_power(instances, &power) {
            prop_assert!(
                joined.power_mw >= lo - 1e-9 && joined.power_mw <= hi + 1e-9,
                "joined {} outside [{lo}, {hi}]",
                joined.power_mw
            );
        }
    }

    #[test]
    fn anonymization_is_idempotent(s in "[ -~]{0,60}") {
        let once = energydx_trace::anonymize::scrub(&s);
        let twice = energydx_trace::anonymize::scrub(&once);
        prop_assert_eq!(&once, &twice);
        prop_assert!(energydx_trace::anonymize::is_clean(&once));
    }
}
