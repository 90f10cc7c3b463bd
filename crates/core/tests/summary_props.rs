//! Property test for the fleet summary: [`EnergyDx::summarize`] over
//! the id-indexed analysis equals [`FleetSummary::of_report`] over the
//! rendered report, on random fleets with emptied (NaN) traces, tied
//! powers, zeros of both signs and level shifts that make detections.

use energydx::{DiagnosisInput, EnergyDx, FleetSummary};
use energydx_stats::QuantileSketch;
use energydx_trace::event::EventInstance;
use energydx_trace::join::PoweredInstance;
use proptest::prelude::*;

const VOCAB: [&str; 5] = ["net.poll", "ui.draw", "db.query", "gps.fix", "idle"];

/// Instance powers from a small pool, so ties are common, with both
/// zeros and an occasional NaN (which empties its trace).
fn power() -> impl Strategy<Value = f64> {
    (0u8..24, 1u8..6, 1.0f64..800.0).prop_map(|(roll, k, mw)| match roll {
        0 => f64::NAN,
        1..=2 => 0.0,
        3..=4 => -0.0,
        5..=14 => f64::from(k) * 40.0,
        _ => mw,
    })
}

/// One trace; `shift` multiplies its second half, so some traces carry
/// a level change Step 4 can flag.
fn trace() -> impl Strategy<Value = Vec<PoweredInstance>> {
    (
        prop::collection::vec((0usize..VOCAB.len(), power()), 0..32),
        prop_oneof![Just(1.0), Just(6.0)],
    )
        .prop_map(|(items, shift)| {
            let half = items.len() / 2;
            items
                .into_iter()
                .enumerate()
                .map(|(i, (event, mw))| {
                    let start = i as u64 * 500;
                    PoweredInstance {
                        instance: EventInstance::new(
                            VOCAB[event],
                            start,
                            start + 100,
                        ),
                        power_mw: if i >= half { mw * shift } else { mw },
                    }
                })
                .collect()
        })
}

fn random_fleet() -> impl Strategy<Value = DiagnosisInput> {
    prop::collection::vec(trace(), 0..10).prop_map(DiagnosisInput::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn summarize_equals_the_summary_of_the_rendered_report(
        input in random_fleet(),
    ) {
        let dx = EnergyDx::default();
        let analyzed = dx.analyze(dx.map_shard(input.traces(), 0)).unwrap();
        let summary = dx.summarize(&analyzed);
        let report = dx.finish(dx.map_shard(input.traces(), 0)).unwrap();
        prop_assert_eq!(&summary, &FleetSummary::of_report(&report));
        // The pooled sketch is every instance's normalized power, as
        // the report's trend used to push it one by one.
        let pushed = report
            .traces
            .iter()
            .flat_map(|t| &t.normalized_power)
            .fold(QuantileSketch::new(), |mut s, &v| {
                s.push(v);
                s
            });
        prop_assert_eq!(&summary.power, &pushed);
        prop_assert_eq!(
            summary.power.min().map(f64::to_bits),
            pushed.min().map(f64::to_bits)
        );
    }
}
