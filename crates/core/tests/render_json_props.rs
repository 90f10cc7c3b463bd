//! Property test for the serving renderer: [`EnergyDx::render_json`]
//! over the id-indexed analysis writes the bytes of the rendered
//! report's canonical JSON, on random fleets with event names that
//! need escaping (quotes, backslashes, control characters) and names
//! that do not (non-ASCII text), emptied (NaN) traces, traces too short
//! for a fence, tied powers, zeros of both signs, and the empty fleet.

use energydx::{DiagnosisInput, EnergyDx};
use energydx_trace::event::EventInstance;
use energydx_trace::join::PoweredInstance;
use proptest::prelude::*;

const VOCAB: [&str; 6] = [
    "Lcom/app/Sync;->poll",
    "say \"hi\"",
    "C:\\path\\cb",
    "tab\tnew\nline\r\u{1}\u{1f}",
    "ünïcödé → 電池",
    "Idle(No_Display)",
];

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

/// One trace, from empty to long enough for Step 4's fence; `shift`
/// multiplies its second half, so some traces carry a level change
/// Step 4 can flag.
fn trace() -> impl Strategy<Value = Vec<PoweredInstance>> {
    (
        prop::collection::vec((0usize..VOCAB.len(), power()), 0..40),
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

fn served_and_reference(input: &DiagnosisInput) -> (String, String) {
    let dx = EnergyDx::default();
    let analyzed = dx.analyze(dx.map_shard(input.traces(), 0)).unwrap();
    let served = dx.render_json(&analyzed);
    (served, dx.render(analyzed).to_canonical_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn render_json_writes_the_rendered_reports_bytes(
        input in random_fleet(),
    ) {
        let (served, reference) = served_and_reference(&input);
        prop_assert_eq!(served, reference);
    }
}

#[test]
fn the_empty_fleet_renders_the_empty_report() {
    let (served, reference) = served_and_reference(&DiagnosisInput::default());
    assert_eq!(served, reference);
    assert!(served.contains("\"traces\": []"));
}

#[test]
fn the_fleet_exercises_every_section() {
    // One fleet, deterministic, hitting what the property draws at
    // random: a detection, an escaped name, a skipped trace, a trace
    // with no fence.
    let mk = |event: &str, i: u64, mw: f64| PoweredInstance {
        instance: EventInstance::new(event, i * 500, i * 500 + 100),
        power_mw: mw,
    };
    let steady: Vec<PoweredInstance> = (0..24)
        .map(|i| mk(VOCAB[i as usize % 4], i, 100.0))
        .collect();
    let mut shifted = steady.clone();
    for p in shifted.iter_mut().skip(12) {
        p.power_mw = 500.0;
    }
    let mut corrupt = steady.clone();
    corrupt[2].power_mw = f64::NAN;
    let short = vec![mk(VOCAB[4], 0, 50.0)];
    let input = DiagnosisInput::new(vec![
        steady.clone(),
        steady,
        shifted,
        corrupt,
        short,
    ]);
    let (served, reference) = served_and_reference(&input);
    assert_eq!(served, reference);
    for needle in [
        "\"manifestation_points\": [\n",
        "\"say \\\"hi\\\"\"",
        "\\u0001",
        "non-finite",
        "\"upper_fence\": null",
    ] {
        assert!(served.contains(needle), "{needle:?} missing");
    }
}
