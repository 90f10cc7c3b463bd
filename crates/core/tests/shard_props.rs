//! Property tests for the shard-partial algebra and its serializable
//! parts form.
//!
//! The merge law (`tests/diff_harness.rs` at the workspace root) makes
//! any shard split finish to the reference report; these tests pin the
//! pieces the fleet daemon leans on: the **unit element**
//! ([`ShardPartial::empty`] merges as an identity from either side),
//! **one-trace merges** (every commit extends a run by one trace; the
//! subset-vocabulary fast path must build what the general path
//! builds), the **parts round trip** (`to_parts` → `from_parts`
//! rebuilds a structurally equal partial, so a checkpointed epoch
//! analyzes to the same bytes after a restore) and the **size
//! estimate** (counted from the group tables, it must equal the
//! per-trace count the spill budget was defined by).

use energydx::shard::{PartsError, ShardPartial, ShardPartialParts};
use energydx::{DiagnosisInput, EnergyDx};
use energydx_trace::event::EventInstance;
use energydx_trace::intern::{EventId, InternedTrace};
use energydx_trace::join::PoweredInstance;
use proptest::prelude::*;

fn powered(event: &str, index: u64, mw: f64) -> PoweredInstance {
    let start = index * 500;
    PoweredInstance {
        instance: EventInstance::new(event, start, start + 100),
        power_mw: mw,
    }
}

const VOCAB: [&str; 6] = [
    "net.poll",
    "ui.draw",
    "db.query",
    "gps.fix",
    "idle",
    "push.recv",
];

/// Instance powers, with occasional NaNs so the skip list is
/// exercised.
fn power() -> impl Strategy<Value = f64> {
    (0u8..16, 1.0f64..800.0).prop_map(
        |(roll, mw)| {
            if roll == 0 {
                f64::NAN
            } else {
                mw
            }
        },
    )
}

/// Random fleets over a small vocabulary.
fn random_fleet() -> impl Strategy<Value = DiagnosisInput> {
    let trace = prop::collection::vec((0usize..VOCAB.len(), power()), 0..24)
        .prop_map(|items| {
            items
                .into_iter()
                .enumerate()
                .map(|(i, (event, mw))| powered(VOCAB[event], i as u64, mw))
                .collect::<Vec<_>>()
        });
    prop::collection::vec(trace, 0..8).prop_map(DiagnosisInput::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The unit element of the merge law: merging the empty partial
    /// into any partial — from either side — changes nothing, and an
    /// empty-seeded fold equals the partial itself. Folds start from
    /// `ShardPartial::empty()`, so this identity is what makes a fold
    /// of an epoch's runs equal the runs themselves.
    #[test]
    fn empty_partial_is_a_two_sided_merge_identity(
        input in random_fleet(),
        offset in 0usize..32,
    ) {
        let dx = EnergyDx::default();
        let mapped = dx.map_shard(input.traces(), offset);
        prop_assert!(ShardPartial::empty().is_empty());
        prop_assert_eq!(
            mapped.clone().merge(ShardPartial::empty()),
            mapped.clone(),
            "right identity violated"
        );
        prop_assert_eq!(
            ShardPartial::empty().merge(mapped.clone()),
            mapped.clone(),
            "left identity violated"
        );
        prop_assert_eq!(
            ShardPartial::empty().merge(ShardPartial::empty()),
            ShardPartial::empty()
        );
        // is_empty agrees with the identity: only the unit reports it.
        prop_assert_eq!(
            mapped.is_empty(),
            mapped == ShardPartial::empty()
        );
    }

    /// `to_parts` → `from_parts` is lossless: the rebuilt partial is
    /// structurally equal (groups re-derived from traces included) and
    /// finishes to byte-identical reports.
    #[test]
    fn parts_round_trip_is_lossless(
        input in random_fleet(),
        cut in 0usize..8,
    ) {
        let dx = EnergyDx::default();
        let traces = input.traces();
        let cut = cut.min(traces.len());
        // A two-segment partial (when the cut is interior) exercises
        // the multi-segment encoding; merging after restoring each
        // side must still finish to the reference.
        let left = dx.map_shard(&traces[..cut], 0);
        let right = dx.map_shard(&traces[cut..], cut);
        for partial in [left.clone(), right.clone(), left.merge(right)] {
            let rebuilt = ShardPartial::from_parts(partial.to_parts())
                .expect("parts of a real partial must validate");
            prop_assert_eq!(&rebuilt, &partial);
        }
        let whole = dx.map_shard(traces, 0);
        let rebuilt = ShardPartial::from_parts(whole.to_parts()).unwrap();
        prop_assert_eq!(
            dx.finish(rebuilt).unwrap().to_canonical_json(),
            dx.diagnose_reference(&input).to_canonical_json()
        );
    }

    /// A one-trace partial merged into a many-trace one — the shape of
    /// every commit that extends a run — is the batch map of the
    /// concatenation, in both merge orders. Without a new name the
    /// receiver's vocabulary already holds every incoming name, so
    /// `merge` takes its subset-vocabulary fast path; with one it
    /// takes the general union. Both must build the same structure.
    #[test]
    fn one_trace_merges_equal_the_batch_map(
        input in random_fleet(),
        picks in prop::collection::vec((0usize..64, power()), 0..12),
        new_name in any::<bool>(),
    ) {
        let dx = EnergyDx::default();
        let traces = input.traces();
        let many = dx.map_shard(traces, 0);
        let names = many.vocabulary().to_vec();
        let mut trace: Vec<PoweredInstance> = picks
            .iter()
            .filter(|_| !names.is_empty())
            .enumerate()
            .map(|(i, (pick, mw))| {
                powered(&names[pick % names.len()], i as u64, *mw)
            })
            .collect();
        if new_name {
            trace.push(powered("zz.fresh", trace.len() as u64, 42.0));
        }
        let one = dx.map_shard(std::slice::from_ref(&trace), traces.len());
        let mut all = traces.to_vec();
        all.push(trace);
        let batch = dx.map_shard(&all, 0);
        prop_assert_eq!(many.clone().merge(one.clone()), batch.clone());
        prop_assert_eq!(one.merge(many), batch);
    }

    /// `approx_bytes` counts instances from the group tables; on
    /// every partial the algebra builds — mapped (NaN traces emptied),
    /// merged across a gap with differing vocabularies, rebased, and
    /// rebuilt from parts — that equals the per-trace count.
    #[test]
    fn approx_bytes_equals_the_per_trace_count(
        input in random_fleet(),
        offset in 0usize..16,
        cut in 0usize..9,
        gap in 0usize..3,
    ) {
        let dx = EnergyDx::default();
        let traces = input.traces();
        let cut = cut.min(traces.len());
        let head = dx.map_shard(&traces[..cut], offset);
        let tail = dx.map_shard(&traces[cut..], offset + cut + gap);
        let merged = tail.clone().merge(head.clone());
        let rebased = merged.clone().rebase_to(0);
        let restored = ShardPartial::from_parts(merged.to_parts()).unwrap();
        for partial in [head, tail, merged, rebased, restored] {
            prop_assert_eq!(partial.approx_bytes(), per_trace_bytes(&partial));
        }
    }
}

/// The spill budget's size estimate by its per-trace definition: per
/// name its length plus 64; per segment 64, plus 48 per trace, 20 per
/// instance (id, power, group entry) and 16 per skip entry.
fn per_trace_bytes(partial: &ShardPartial) -> usize {
    let parts = partial.to_parts();
    let names: usize = parts.names.iter().map(|n| n.len() + 64).sum();
    let segments: usize = parts
        .segments
        .iter()
        .map(|s| {
            let instances: usize = s.traces.iter().map(|t| t.ids().len()).sum();
            64 + s.traces.len() * 48 + instances * 20 + s.skipped.len() * 16
        })
        .sum();
    names + segments
}

#[test]
fn from_parts_rejects_unsorted_vocabulary() {
    let parts = ShardPartialParts {
        names: vec!["b".into(), "a".into()],
        segments: vec![],
    };
    assert_eq!(
        ShardPartial::from_parts(parts),
        Err(PartsError::VocabularyNotCanonical)
    );
    let dup = ShardPartialParts {
        names: vec!["a".into(), "a".into()],
        segments: vec![],
    };
    assert_eq!(
        ShardPartial::from_parts(dup),
        Err(PartsError::VocabularyNotCanonical)
    );
}

#[test]
fn from_parts_rejects_out_of_range_ids() {
    let trace = InternedTrace::from_columns(
        vec![EventId::from_index(0), EventId::from_index(3)],
        vec![10.0, 20.0],
    )
    .unwrap();
    let parts = ShardPartialParts {
        names: vec!["a".into(), "b".into()],
        segments: vec![energydx::shard::SegmentParts {
            offset: 0,
            traces: vec![trace],
            skipped: vec![],
        }],
    };
    assert_eq!(
        ShardPartial::from_parts(parts),
        Err(PartsError::IdOutOfRange {
            trace: 0,
            id: 3,
            vocab: 2
        })
    );
}

#[test]
fn from_parts_rejects_overlapping_segments() {
    let t = || {
        InternedTrace::from_columns(vec![EventId::from_index(0)], vec![1.0])
            .unwrap()
    };
    let seg = |offset: usize| energydx::shard::SegmentParts {
        offset,
        traces: vec![t(), t()],
        skipped: vec![],
    };
    let parts = ShardPartialParts {
        names: vec!["a".into()],
        segments: vec![seg(0), seg(1)],
    };
    assert_eq!(
        ShardPartial::from_parts(parts),
        Err(PartsError::OverlappingSegments {
            first: 0,
            second: 1
        })
    );
}

#[test]
fn from_parts_rejects_malformed_skip_entries() {
    let full =
        InternedTrace::from_columns(vec![EventId::from_index(0)], vec![1.0])
            .unwrap();
    // Skip entry outside the segment range.
    let outside = ShardPartialParts {
        names: vec!["a".into()],
        segments: vec![energydx::shard::SegmentParts {
            offset: 2,
            traces: vec![InternedTrace::default()],
            skipped: vec![(9, 1)],
        }],
    };
    assert_eq!(
        ShardPartial::from_parts(outside),
        Err(PartsError::SkippedOutOfSegment { index: 9 })
    );
    // Skip entry naming a trace that still has instances.
    let not_emptied = ShardPartialParts {
        names: vec!["a".into()],
        segments: vec![energydx::shard::SegmentParts {
            offset: 0,
            traces: vec![full],
            skipped: vec![(0, 2)],
        }],
    };
    assert_eq!(
        ShardPartial::from_parts(not_emptied),
        Err(PartsError::SkippedNotEmptied { index: 0 })
    );
}

#[test]
fn from_parts_of_empty_parts_is_the_empty_partial() {
    let parts = ShardPartialParts {
        names: vec![],
        segments: vec![],
    };
    let partial = ShardPartial::from_parts(parts).unwrap();
    assert!(partial.is_empty());
    assert_eq!(partial, ShardPartial::empty());
}
