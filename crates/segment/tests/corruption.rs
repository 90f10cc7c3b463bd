//! Segment format coverage: round-trip fidelity plus fault tolerance.
//! A segment read back from disk must be structurally identical to
//! the partial that was spilled, and every damaged file — truncated
//! at any byte, any single bit flipped, trailing garbage — must
//! surface as a typed [`SegmentError`], never a panic and never
//! silently wrong data. Mirrors the EDXC checkpoint suite
//! (`fleetd/tests/checkpoint_props.rs`). Behind a valid CRC, the one
//! partial decoder checkpoints and `PartialState` frames share is
//! fuzzed with body mutations the CRCs are recomputed over.

use energydx::shard::ShardPartial;
use energydx::EnergyDx;
use energydx_segment::{
    open_meta, read_partial, save_to, segment_bytes, SegmentError,
};
use energydx_trace::event::EventInstance;
use energydx_trace::fault::{FaultInjector, FaultKind};
use energydx_trace::join::PoweredInstance;
use energydx_trace::wire::crc32;
use proptest::prelude::*;

/// The fixed header: magic, version, trace count, body length, CRC.
const HEADER: usize = 21;

const EVENTS: [&str; 6] = ["net", "gps", "cpu", "wake", "sensor", "render"];

fn powered(names: &[(usize, f64)]) -> Vec<PoweredInstance> {
    names
        .iter()
        .enumerate()
        .map(|(i, &(n, p))| PoweredInstance {
            instance: EventInstance::new(
                EVENTS[n % EVENTS.len()],
                i as u64 * 10,
                i as u64 * 10 + 5,
            ),
            power_mw: p,
        })
        .collect()
}

/// One scripted trace: which events it touches and their powers; a
/// damage mode 1 turns one power non-finite so the partial records a
/// skipped slot.
fn script_strategy() -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0usize..EVENTS.len(), 1.0f64..500.0), 1..6),
        1..8,
    )
}

/// Maps a script into a partial the way the daemon would: one
/// map_shard per trace, merged in order, occasionally split into two
/// rebased runs so multi-run segments are exercised.
fn partial_of(script: &[Vec<(usize, f64)>], gap: bool) -> ShardPartial {
    let dx = EnergyDx::default().with_jobs(1);
    let mut partial = ShardPartial::empty();
    for (i, trace) in script.iter().enumerate() {
        let mut instances = powered(trace);
        if i == 1 {
            instances[0].power_mw = f64::NAN;
        }
        // A gap in the middle produces a segment with two runs.
        let offset = if gap && i >= script.len() / 2 {
            i + 3
        } else {
            i
        };
        partial = partial.merge(dx.map_shard(&[instances], offset));
    }
    partial
}

/// The canonical damaged-test vector: multiple runs, a merged
/// vocabulary, and a skipped (emptied) trace slot.
fn sample_bytes() -> Vec<u8> {
    let script: Vec<Vec<(usize, f64)>> = (0..5)
        .map(|i| {
            (0..=i % 3)
                .map(|j| ((i + j) % EVENTS.len(), 40.0 * (i + j + 1) as f64))
                .collect()
        })
        .collect();
    segment_bytes(&partial_of(&script, true).to_parts())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round trip: reading a written segment reproduces the partial's
    /// parts exactly, and the header's trace count agrees with them.
    #[test]
    fn segments_round_trip_arbitrary_partials(
        script in script_strategy(), gap in any::<bool>()
    ) {
        let partial = partial_of(&script, gap);
        let parts = partial.to_parts();
        let bytes = segment_bytes(&parts);
        prop_assert_eq!(read_partial(&bytes).unwrap().to_parts(), parts);
        let count = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
        prop_assert_eq!(count, partial.trace_count() as u64);
    }

    /// Every strict prefix of a segment is a typed error — the reader
    /// never runs off the end, whatever byte the cut lands on.
    #[test]
    fn any_truncation_is_a_typed_error(
        script in script_strategy(), gap in any::<bool>()
    ) {
        let bytes = segment_bytes(&partial_of(&script, gap).to_parts());
        for cut in 0..bytes.len() {
            let err = read_partial(&bytes[..cut])
                .expect_err("a strict prefix must not read");
            prop_assert!(
                matches!(
                    err,
                    SegmentError::Truncated { .. }
                        | SegmentError::BadMagic
                        | SegmentError::Malformed { .. }
                        | SegmentError::CrcMismatch { .. }
                ),
                "cut at {} gave unexpected error {:?}", cut, err
            );
        }
    }
}

/// Cases for the body fuzz: `PROPTEST_CASES` when set, else 256. The
/// vendored proptest lets that variable only lower a configured case
/// count, so the property reads it itself; `ci.sh` runs it at 100,000
/// cases in a debug build, where an arithmetic overflow panics.
fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// `header` with its body length and CRC recomputed for `body`, then
/// `body` and its CRC: a segment every frame check passes.
fn reframe(header: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = header[..13].to_vec();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&out[4..]).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// The CRCs stop every other damage test before the partial decoder
    /// reads a field. Here the body is mutated — one byte set to any
    /// value, or a 4- or 8-byte window set to all ones (a count, an
    /// offset, an id or a power at its largest; an all-ones power is a
    /// NaN) — and framed again with correct CRCs: the decoder must
    /// answer with a partial or a typed content error, never a panic.
    #[test]
    fn body_mutations_behind_valid_crcs_decode_or_fail_typed(
        script in script_strategy(),
        gap in any::<bool>(),
        at in any::<usize>(),
        width in prop_oneof![Just(1usize), Just(4), Just(8)],
        byte in any::<u8>(),
    ) {
        let bytes = segment_bytes(&partial_of(&script, gap).to_parts());
        let mut body = bytes[HEADER..bytes.len() - 4].to_vec();
        let at = at % body.len();
        if width == 1 {
            body[at] = byte;
        } else {
            let end = (at + width).min(body.len());
            body[at..end].fill(0xFF);
        }
        let framed = reframe(&bytes[..HEADER], &body);
        match read_partial(&framed) {
            Ok(_)
            | Err(SegmentError::Malformed { .. })
            | Err(SegmentError::Invalid(_)) => {}
            Err(other) => {
                prop_assert!(false, "a framed body gave {:?}", other);
            }
        }
    }
}

/// Exhaustive single-bit damage: the header's CRC covers every header
/// field after the version, the body's CRC the body, and the file
/// size both lengths, so there is no byte a flip can hide in. No
/// flipped segment may read, and none may panic.
#[test]
fn every_single_bit_flip_is_rejected() {
    let bytes = sample_bytes();
    for index in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut flipped = bytes.clone();
            flipped[index] ^= 1 << bit;
            assert!(
                read_partial(&flipped).is_err(),
                "flip at byte {index} bit {bit} read anyway"
            );
        }
    }
}

/// The shared fault injector (the same one the wire-v2 salvage and
/// checkpoint tests use) run against segments: bit flips and random
/// truncations all come back as typed errors.
#[test]
fn fault_injector_damage_is_survivable() {
    let bytes = sample_bytes();
    let mut injector = FaultInjector::new(0x5E61, 1.0);
    for kind in [FaultKind::BitFlip, FaultKind::Truncate] {
        for _ in 0..100 {
            for damaged in injector.corrupt(&bytes, kind) {
                let err = read_partial(&damaged)
                    .expect_err("damaged segment must not read");
                assert!(
                    matches!(
                        err,
                        SegmentError::Truncated { .. }
                            | SegmentError::BadMagic
                            | SegmentError::CrcMismatch { .. }
                            | SegmentError::Malformed { .. }
                    ),
                    "{kind}: unexpected error {err:?}"
                );
            }
        }
    }
}

#[test]
fn header_damage_is_classified_precisely() {
    let bytes = sample_bytes();
    let body = &bytes[HEADER..bytes.len() - 4];

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert_eq!(
        read_partial(&wrong_magic).unwrap_err(),
        SegmentError::BadMagic
    );

    // A future version and the retired columnar version 1 alike.
    for version in [9, 1] {
        let mut other = bytes.clone();
        other[4] = version;
        assert_eq!(
            read_partial(&other).unwrap_err(),
            SegmentError::UnsupportedVersion(version)
        );
    }

    let mut wrong_count = bytes.clone();
    wrong_count[5] ^= 0x01;
    assert_eq!(
        read_partial(&wrong_count).unwrap_err(),
        SegmentError::CrcMismatch { block: "header" }
    );

    // A body length that disagrees with the file, under a header CRC
    // that vouches for it: one byte more is a cut file, one byte less
    // leaves a trailing byte.
    let with_body_len = |len: usize| {
        let mut out = bytes.clone();
        out[13..17].copy_from_slice(&(len as u32).to_le_bytes());
        let crc = crc32(&out[4..17]);
        out[17..21].copy_from_slice(&crc.to_le_bytes());
        out
    };
    assert_eq!(
        read_partial(&with_body_len(body.len() + 1)).unwrap_err(),
        SegmentError::Truncated { field: "body" }
    );
    assert!(matches!(
        read_partial(&with_body_len(body.len() - 1)).unwrap_err(),
        SegmentError::Malformed { .. }
    ));

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(
        read_partial(&trailing).unwrap_err(),
        SegmentError::Malformed { .. }
    ));

    let mut wrong_body_crc = bytes.clone();
    let last = wrong_body_crc.len() - 1;
    wrong_body_crc[last] ^= 0x01;
    assert_eq!(
        read_partial(&wrong_body_crc).unwrap_err(),
        SegmentError::CrcMismatch { block: "body" }
    );
}

/// The header-only open path classifies header damage and a length
/// mismatch the way the full reader does; a damaged body — invisible
/// to the header — is still caught by the full read.
#[test]
fn open_meta_and_full_read_split_the_damage_surface() {
    let dir = std::env::temp_dir()
        .join(format!("energydx-seg-damage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let bytes = sample_bytes();
    let partial = read_partial(&bytes).unwrap();
    let path = dir.join("000001.seg");
    save_to(&path, &partial.to_parts()).unwrap();
    let meta = open_meta(&path).unwrap();
    assert_eq!(meta.trace_count, partial.trace_count() as u64);

    // Damage one byte of the body: open_meta (which never reads it)
    // still succeeds, the full read fails typed.
    let mut damaged = bytes.clone();
    damaged[HEADER + 8] ^= 0x01;
    std::fs::write(&path, &damaged).unwrap();
    assert!(open_meta(&path).is_ok());
    assert_eq!(
        read_partial(&damaged).unwrap_err(),
        SegmentError::CrcMismatch { block: "body" }
    );

    // Damage the header, cut the file, grow it, or mark it version 1:
    // both paths fail, with the same error.
    let mut bad_header = bytes.clone();
    bad_header[9] ^= 0x01;
    let mut version_1 = bytes.clone();
    version_1[4] = 1;
    let mut grown = bytes.clone();
    grown.push(0);
    for bad in [
        bad_header,
        version_1,
        bytes[..bytes.len() - 1].to_vec(),
        grown,
        bytes[..HEADER - 1].to_vec(),
    ] {
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(
            open_meta(&path).unwrap_err(),
            read_partial(&bad).unwrap_err()
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
