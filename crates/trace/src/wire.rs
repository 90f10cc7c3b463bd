//! Binary wire format for uploading trace bundles.
//!
//! Phones upload `(event trace, utilization trace)` bundles to the
//! backend "when the smartphone is in charge with WiFi" (§II-B). Three
//! frame versions are understood; [`decode`] negotiates on the version
//! byte. Every version is written and read with [`crate::codec`], the
//! byte codec the workspace's other binary formats share.
//!
//! **v1** (legacy, written by [`encode`]) is a simple length-prefixed
//! little-endian encoding with no integrity protection:
//!
//! ```text
//! magic "EDXT" | version u8 = 1 | user str | session u64 | device str
//! | event count u32 | { ts u64, dir u8, event str }*
//! | period u64 | sample count u32 | { ts u64, util f64 ×6 }*
//! ```
//!
//! **v2** (written by [`encode_v2`], preferred for fleet uploads) adds
//! CRC32 section framing so that corruption is detected and confined:
//!
//! ```text
//! magic "EDXT" | version u8 = 2
//! | header len u32 | header { user str, session u64, device str, period u64 } | crc32 u32
//! | events  { count u32, { ts u64, dir u8, event str }* } | crc32 u32
//! | samples { count u32, { ts u64, util f64 ×6 }* }       | crc32 u32
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes. Each v2 CRC covers the
//! whole preceding section (count included), so a bit flip pinpoints
//! the damaged section while the others stay trustworthy, and a
//! truncated payload still yields its valid record prefix through
//! [`decode_salvage`].
//!
//! **v3** (written by [`encode_v3`]) is v2 with one addition: the
//! CRC-covered header carries the app release the session ran under,
//! appended after the sampling period:
//!
//! ```text
//! header { user str, session u64, device str, period u64, app_version str }
//! ```
//!
//! v1/v2 payloads decode with an empty `app_version` (the implicit
//! unversioned release), so pre-v3 uploaders keep working unchanged.
//!
//! Both decoders bound every declared count against the bytes actually
//! remaining, so a corrupt count field cannot drive pre-allocation or
//! a long parse loop (no "4 billion records" DoS from a 40-byte
//! payload).

use crate::codec::{CodecError, Reader, Writer};
use crate::error::TraceError;
use crate::event::{Direction, EventRecord};
use crate::store::TraceBundle;
use crate::util::{Component, UtilizationSample, UtilizationTrace};

const MAGIC: &[u8; 4] = b"EDXT";
/// The legacy unframed format version.
pub const VERSION_V1: u8 = 1;
/// The CRC32-framed format version.
pub const VERSION_V2: u8 = 2;
/// The CRC32-framed format version that carries an app-version stamp.
pub const VERSION_V3: u8 = 3;

/// Smallest possible encoded event record: ts u64 + dir u8 + empty str.
const MIN_EVENT_BYTES: usize = 8 + 1 + 4;
/// Encoded utilization sample: ts u64 + six f64 readings.
const SAMPLE_BYTES: usize = 8 + 6 * 8;
/// Upper bound on one event identifier; real identifiers are class
/// paths well under this, and the bound keeps salvage from treating a
/// corrupt length as a huge string.
const MAX_STRING_BYTES: usize = 4096;

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

/// The reflected IEEE polynomial (`zlib`, Ethernet, PNG).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `T[0]` is the classic bytewise table, and
/// `T[k][b]` is `T[0][b]` carried on through `k` more zero bytes, so
/// eight lookups advance the CRC register over eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC32 (the `zlib`/`crc32` polynomial) of `data`.
///
/// Every CRC in the workspace — upload sections, daemon frames,
/// checkpoints and segment blocks — is computed here.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends the CRC32 `crc` of some bytes `a` over `data`, returning
/// the CRC32 of `a ++ data`, so a checksum over non-contiguous pieces
/// needs no joined copy. `crc32_update(0, data) == crc32(data)`.
///
/// On an x86_64 CPU that reports `pclmulqdq` and `sse4.1`, an input of
/// 128 bytes or more is folded with carry-less multiplies, 64 bytes a
/// step; anything else takes the slice-by-8 table kernel. Both give
/// the same CRC.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32_update(crc, data) {
        return crc;
    }
    crc32_update_table(crc, data)
}

/// The slice-by-8 table kernel: the only path off x86_64, the tail of
/// the hardware fold, and the reference its tests compare against.
fn crc32_update_table(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][hi as u8 as usize]
            ^ t[2][(hi >> 8) as u8 as usize]
            ^ t[1][(hi >> 16) as u8 as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ byte) as usize];
    }
    !crc
}

/// The carry-less-multiply CRC32 kernel: Intel's "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" in its
/// bit-reflected form, with the constants zlib and Linux use for the
/// IEEE polynomial. Four 128-bit lanes each fold 64 bytes per step,
/// the lanes fold into one, and a Barrett reduction takes the last
/// 128 bits to the 32-bit CRC; a tail under 16 bytes goes through the
/// table kernel.
///
/// The crate's one `unsafe` block is here: the call into the
/// `#[target_feature]` fold, made only once the CPU has reported both
/// features. The fold itself is safe code: register intrinsics inside
/// a function compiled for their features, and loads through
/// `i64::from_le_bytes`, never a raw pointer.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// The shortest input the fold takes; below it the table kernel is
    /// as fast.
    pub(super) const MIN_LEN: usize = 128;

    // Fold constants, each x^n mod P bit-reflected into 33 bits:
    // `K1`/`K2` (n = 512 ± 32) carry a lane 512 bits forward,
    // `K3`/`K4` (n = 128 ± 32) carry 128 bits, and `K5` (n = 64)
    // takes 96 bits to 64.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// The polynomial itself, all 33 bits, reflected.
    const P: i64 = 0x1_DB71_0641;
    /// Barrett's constant, floor(x^64 / P), reflected.
    const MU: i64 = 0x1_F701_1641;

    #[cfg(test)]
    thread_local! {
        /// Folds run on this thread, so a test can tell which kernel a
        /// call took.
        pub(super) static FOLDS: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    /// Whether this CPU can run [`fold`].
    fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::crc32_update`] by the fold, or `None` when `data` is
    /// shorter than [`MIN_LEN`] or the CPU lacks a feature.
    pub(super) fn crc32_update(crc: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN || !detected() {
            return None;
        }
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: `fold` is compiled for `pclmulqdq` and `sse4.1`, and
        // `detected()` has just seen the CPU report both. `fold` reads
        // memory only through the safe slice it is given.
        let crc = unsafe { fold(crc, blocks) };
        #[cfg(test)]
        FOLDS.with(|n| n.set(n.get() + 1));
        Some(super::crc32_update_table(crc, tail))
    }

    /// Extends `crc` over `blocks`, at least four of them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks.split_at(4);
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!crc as i32));
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_onto(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold_onto(x, lane, k3k4);
        }
        for block in singles {
            x = fold_onto(x, load(block), k3k4);
        }

        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 bits to 96, then 96 to 64.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(x, k3k4, 0x10),
            _mm_srli_si128(x, 8),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(
                _mm_and_si128(x, low32),
                _mm_set_epi64x(0, K5),
                0x00,
            ),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 bits to the 32-bit remainder, which the reflected
        // form leaves in the second 32-bit word.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        !(_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32)
    }

    /// `acc` carried forward by the distance `keys` encode, plus
    /// `block`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(acc: __m128i, block: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(block, lo), hi)
    }

    /// One block as a vector, first byte lowest.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let [lo, hi] = [0, 8].map(|at| {
            i64::from_le_bytes(
                block[at..at + 8].try_into().expect("8 of the 16 bytes"),
            )
        });
        _mm_set_epi64x(hi, lo)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes a bundle in the legacy v1 format.
///
/// # Panics
///
/// Panics if any count or string length exceeds `u32::MAX` (use
/// [`try_encode`] to handle that case as an error instead). No bundle
/// that fits in memory on a phone comes anywhere near the limit.
///
/// # Examples
///
/// ```
/// # use energydx_trace::{TraceBundle, wire};
/// let bundle = TraceBundle::new("user-1", 7, "nexus6");
/// let bytes = wire::encode(&bundle);
/// let decoded = wire::decode(&bytes)?;
/// assert_eq!(decoded, bundle);
/// # Ok::<(), energydx_trace::TraceError>(())
/// ```
pub fn encode(bundle: &TraceBundle) -> Vec<u8> {
    match try_encode(bundle) {
        Ok(bytes) => bytes,
        Err(e) => panic!("bundle not encodable: {e}"),
    }
}

/// Encodes a bundle in the legacy v1 format, with all count and length
/// fields checked rather than truncated.
///
/// # Errors
///
/// Returns [`TraceError::Wire`] if a count or string length exceeds
/// `u32::MAX`.
pub fn try_encode(bundle: &TraceBundle) -> Result<Vec<u8>, TraceError> {
    let mut w = Writer::with_capacity(
        64 + bundle.events.len() * 48 + bundle.utilization.len() * 56,
    );
    w.raw(MAGIC);
    w.u8(VERSION_V1);
    put_str(&mut w, &bundle.user)?;
    w.u64(bundle.session);
    put_str(&mut w, &bundle.device)?;
    put_events(&mut w, bundle)?;
    w.u64(bundle.utilization.period_ms);
    put_samples(&mut w, bundle)?;
    Ok(w.into_vec())
}

/// Encodes a bundle in the CRC32-framed v2 format.
///
/// # Panics
///
/// Panics if any count or string length exceeds `u32::MAX` (use
/// [`try_encode_v2`] to handle that case as an error instead).
///
/// # Examples
///
/// ```
/// # use energydx_trace::{TraceBundle, wire};
/// let bundle = TraceBundle::new("user-1", 7, "nexus6");
/// let decoded = wire::decode(&wire::encode_v2(&bundle))?;
/// assert_eq!(decoded, bundle);
/// # Ok::<(), energydx_trace::TraceError>(())
/// ```
pub fn encode_v2(bundle: &TraceBundle) -> Vec<u8> {
    match try_encode_v2(bundle) {
        Ok(bytes) => bytes,
        Err(e) => panic!("bundle not encodable: {e}"),
    }
}

/// Encodes a bundle in the CRC32-framed v2 format with checked counts.
///
/// The v2 header has no app-version field; a bundle's `app_version`
/// is silently dropped. Use [`try_encode_v3`] to preserve it.
///
/// # Errors
///
/// Returns [`TraceError::Wire`] if a count or string length exceeds
/// `u32::MAX`.
pub fn try_encode_v2(bundle: &TraceBundle) -> Result<Vec<u8>, TraceError> {
    try_encode_framed(bundle, VERSION_V2)
}

/// Encodes a bundle in the v3 format: v2 framing plus the app-version
/// stamp in the CRC-covered header.
///
/// # Panics
///
/// Panics if any count or string length exceeds `u32::MAX` (use
/// [`try_encode_v3`] to handle that case as an error instead).
///
/// # Examples
///
/// ```
/// # use energydx_trace::{TraceBundle, wire};
/// let bundle = TraceBundle::new("user-1", 7, "nexus6").with_app_version("2.4.1");
/// let decoded = wire::decode(&wire::encode_v3(&bundle))?;
/// assert_eq!(decoded.app_version, "2.4.1");
/// # Ok::<(), energydx_trace::TraceError>(())
/// ```
pub fn encode_v3(bundle: &TraceBundle) -> Vec<u8> {
    match try_encode_v3(bundle) {
        Ok(bytes) => bytes,
        Err(e) => panic!("bundle not encodable: {e}"),
    }
}

/// Encodes a bundle in the v3 format with checked counts.
///
/// # Errors
///
/// Returns [`TraceError::Wire`] if a count or string length exceeds
/// `u32::MAX`.
pub fn try_encode_v3(bundle: &TraceBundle) -> Result<Vec<u8>, TraceError> {
    try_encode_framed(bundle, VERSION_V3)
}

fn try_encode_framed(
    bundle: &TraceBundle,
    version: u8,
) -> Result<Vec<u8>, TraceError> {
    let mut header = Writer::with_capacity(64);
    put_str(&mut header, &bundle.user)?;
    header.u64(bundle.session);
    put_str(&mut header, &bundle.device)?;
    header.u64(bundle.utilization.period_ms);
    if version >= VERSION_V3 {
        put_str(&mut header, &bundle.app_version)?;
    }
    let header = header.into_vec();

    let mut events = Writer::with_capacity(4 + bundle.events.len() * 48);
    put_events(&mut events, bundle)?;
    let events = events.into_vec();

    let mut samples =
        Writer::with_capacity(4 + bundle.utilization.len() * SAMPLE_BYTES);
    put_samples(&mut samples, bundle)?;
    let samples = samples.into_vec();

    let mut w = Writer::with_capacity(
        4 + 1 + 4 + header.len() + events.len() + samples.len() + 12,
    );
    w.raw(MAGIC);
    w.u8(version);
    w.u32(checked_count(header.len(), "header byte")?);
    for section in [header, events, samples] {
        w.raw(&section);
        w.u32(crc32(&section));
    }
    Ok(w.into_vec())
}

fn checked_count(len: usize, what: &str) -> Result<u32, TraceError> {
    u32::try_from(len).map_err(|_| {
        wire_error(format!("{what} count {len} exceeds the u32 wire limit"))
    })
}

/// The event count, then every record.
fn put_events(w: &mut Writer, bundle: &TraceBundle) -> Result<(), TraceError> {
    w.u32(checked_count(bundle.events.len(), "event")?);
    for r in bundle.events.records() {
        w.u64(r.timestamp_ms);
        w.u8(match r.direction {
            Direction::Enter => 0,
            Direction::Exit => 1,
        });
        put_str(w, &r.event)?;
    }
    Ok(())
}

/// The sample count, then every sample.
fn put_samples(w: &mut Writer, bundle: &TraceBundle) -> Result<(), TraceError> {
    w.u32(checked_count(bundle.utilization.len(), "sample")?);
    for s in bundle.utilization.samples() {
        w.u64(s.timestamp_ms);
        for c in Component::ALL {
            w.f64(s.get(c));
        }
    }
    Ok(())
}

fn put_str(w: &mut Writer, s: &str) -> Result<(), TraceError> {
    checked_count(s.len(), "string byte")?;
    w.str(s);
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl From<CodecError> for TraceError {
    // The wire decoders read only fixed-width fields and raw slices
    // through the codec, whose one failure there is an underrun.
    fn from(e: CodecError) -> Self {
        wire_error(format!("truncated {}", e.field))
    }
}

fn wire_error(message: impl Into<String>) -> TraceError {
    TraceError::Wire {
        message: message.into(),
    }
}

fn read_str(r: &mut Reader<'_>) -> Result<String, TraceError> {
    let len = r.u32("string length")? as usize;
    if len > MAX_STRING_BYTES {
        return Err(wire_error(format!(
            "string length {len} exceeds the {MAX_STRING_BYTES}-byte bound"
        )));
    }
    let bytes = r.raw(len, "string body")?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| wire_error("string is not UTF-8"))
}

fn read_event(r: &mut Reader<'_>) -> Result<EventRecord, TraceError> {
    let ts = r.u64("event record")?;
    let direction = match r.u8("event record")? {
        0 => Direction::Enter,
        1 => Direction::Exit,
        d => return Err(wire_error(format!("invalid direction byte {d}"))),
    };
    Ok(EventRecord::new(ts, direction, read_str(r)?))
}

fn read_sample(r: &mut Reader<'_>) -> Result<UtilizationSample, TraceError> {
    let mut s = UtilizationSample::new(r.u64("utilization sample")?);
    for c in Component::ALL {
        s.set(c, r.f64("utilization sample")?);
    }
    Ok(s)
}

/// Reads a declared element count, rejecting one that could not
/// possibly fit in the bytes that remain.
fn read_count(
    r: &mut Reader<'_>,
    field: &'static str,
    min_bytes: usize,
) -> Result<usize, TraceError> {
    let declared = r.u32(field)? as usize;
    if declared.saturating_mul(min_bytes) > r.remaining() {
        return Err(wire_error(format!(
            "declared {field} {declared} exceeds remaining payload ({} bytes)",
            r.remaining()
        )));
    }
    Ok(declared)
}

/// Decodes a bundle strictly, negotiating the frame version.
///
/// v1 payloads must parse completely; v2 payloads must additionally
/// pass all three section CRCs. Use [`decode_salvage`] to recover what
/// can be recovered from a damaged payload instead.
///
/// # Errors
///
/// Returns [`TraceError::Wire`] on truncated or corrupt payloads,
/// wrong magic, unsupported version, CRC mismatch, or counts that
/// exceed the remaining payload.
pub fn decode(data: &[u8]) -> Result<TraceBundle, TraceError> {
    let mut r = Reader::new(data);
    let version = decode_version(&mut r)?;
    let framed = version != VERSION_V1;
    let mut bundle = if framed {
        decode_v2_header(&mut r, version)?
    } else {
        decode_v1_identity(&mut r)?
    };

    let events_start = r.clone();
    let n_events = read_count(&mut r, "event count", MIN_EVENT_BYTES)?;
    for _ in 0..n_events {
        bundle.events.push(read_event(&mut r)?);
    }
    if !framed {
        bundle.utilization.period_ms = r.u64("utilization header")?;
    } else if !section_crc_matches(events_start, &mut r)? {
        return Err(wire_error("events crc mismatch"));
    }

    let samples_start = r.clone();
    let n_samples = read_count(&mut r, "sample count", SAMPLE_BYTES)?;
    for _ in 0..n_samples {
        bundle.utilization.push(read_sample(&mut r)?);
    }
    if framed && !section_crc_matches(samples_start, &mut r)? {
        return Err(wire_error("samples crc mismatch"));
    }

    if r.remaining() > 0 {
        return Err(wire_error("trailing bytes after bundle"));
    }
    Ok(bundle)
}

fn decode_version(r: &mut Reader<'_>) -> Result<u8, TraceError> {
    if r.raw(4, "magic")? != MAGIC {
        return Err(wire_error("bad magic"));
    }
    let version = r.u8("version")?;
    if !matches!(version, VERSION_V1 | VERSION_V2 | VERSION_V3) {
        return Err(wire_error(format!("unsupported version {version}")));
    }
    Ok(version)
}

/// Parses the v1 identity fields into an identity-only bundle.
fn decode_v1_identity(r: &mut Reader<'_>) -> Result<TraceBundle, TraceError> {
    let user = read_str(r)?;
    let session = r.u64("session id")?;
    let device = read_str(r)?;
    Ok(TraceBundle::new(user, session, device))
}

/// Parses and CRC-verifies the v2/v3 header into an identity-only
/// bundle. On v3 the header additionally carries the app-version
/// stamp; on v2 it decodes as the implicit unversioned release.
fn decode_v2_header(
    r: &mut Reader<'_>,
    version: u8,
) -> Result<TraceBundle, TraceError> {
    let header_len = r.u32("header length")? as usize;
    if header_len + 4 > r.remaining() {
        return Err(wire_error(format!(
            "declared header length {header_len} exceeds remaining payload \
             ({} bytes)",
            r.remaining()
        )));
    }
    let header_bytes = r.raw(header_len, "header")?;
    if crc32(header_bytes) != r.u32("header crc")? {
        return Err(wire_error("header crc mismatch"));
    }
    let mut h = Reader::new(header_bytes);
    let user = read_str(&mut h)?;
    let session = h.u64("session id")?;
    let device = read_str(&mut h)?;
    let period_ms = h.u64("sampling period")?;
    let mut bundle = TraceBundle::new(user, session, device);
    if version >= VERSION_V3 {
        bundle.app_version = read_str(&mut h)?;
    }
    if h.remaining() > 0 {
        return Err(wire_error("trailing bytes in header"));
    }
    bundle.utilization = UtilizationTrace::with_period(period_ms);
    Ok(bundle)
}

/// Reads the section CRC that follows `r`'s position and checks it
/// against the bytes read since `start`, a clone of `r` taken where
/// the section began.
fn section_crc_matches(
    mut start: Reader<'_>,
    r: &mut Reader<'_>,
) -> Result<bool, TraceError> {
    let section = start.raw(start.remaining() - r.remaining(), "section")?;
    Ok(crc32(section) == r.u32("section crc")?)
}

// ---------------------------------------------------------------------------
// Salvage
// ---------------------------------------------------------------------------

/// What [`decode_salvage`] recovered and how trustworthy it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Frame version of the payload.
    pub version: u8,
    /// Events the payload declared vs. events actually recovered.
    pub events_declared: usize,
    /// Recovered prefix length of the event records.
    pub events_recovered: usize,
    /// Samples the payload declared vs. samples actually recovered.
    pub samples_declared: usize,
    /// Recovered prefix length of the utilization samples.
    pub samples_recovered: usize,
    /// v2 only: whether the events section CRC verified (`None` on v1,
    /// which carries no integrity data).
    pub events_crc_ok: Option<bool>,
    /// v2 only: whether the samples section CRC verified.
    pub samples_crc_ok: Option<bool>,
}

impl SalvageReport {
    /// Whether the payload decoded completely with all integrity
    /// checks passing — i.e. salvage recovered everything and a strict
    /// decode would have agreed.
    pub fn is_intact(&self) -> bool {
        self.events_recovered == self.events_declared
            && self.samples_recovered == self.samples_declared
            && self.events_crc_ok != Some(false)
            && self.samples_crc_ok != Some(false)
    }

    /// Whether any records at all were lost.
    pub fn lost_records(&self) -> usize {
        (self.events_declared - self.events_recovered)
            + (self.samples_declared - self.samples_recovered)
    }
}

/// A bundle recovered by [`decode_salvage`] plus its damage report.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvaged {
    /// The recovered (possibly partial) bundle.
    pub bundle: TraceBundle,
    /// What was recovered and what was lost.
    pub report: SalvageReport,
}

/// Best-effort decode: recovers the valid record prefix of a damaged
/// payload instead of discarding it wholesale.
///
/// The identity header must parse (and, on v2, CRC-verify): a bundle
/// whose user/session cannot be trusted is useless for aggregation.
/// Past the header, every record that parses before the first defect
/// is kept, and section CRCs are reported rather than enforced.
///
/// # Errors
///
/// Returns [`TraceError::Wire`] when nothing can be salvaged: bad
/// magic, unsupported version, or an unparseable/corrupt identity
/// header.
pub fn decode_salvage(data: &[u8]) -> Result<Salvaged, TraceError> {
    let mut r = Reader::new(data);
    let version = decode_version(&mut r)?;
    let framed = version != VERSION_V1;
    let mut bundle = if framed {
        decode_v2_header(&mut r, version)?
    } else {
        decode_v1_identity(&mut r)?
    };

    // Past the identity, keep every record that parses before the first
    // defect. A section's CRC is read only after the whole section.
    let events_start = r.clone();
    let events_declared = r.u32("event count").unwrap_or(0) as usize;
    for _ in 0..events_declared {
        match read_event(&mut r) {
            Ok(record) => bundle.events.push(record),
            Err(_) => break,
        }
    }
    let events_complete = bundle.events.len() == events_declared;
    let events_crc_ok = framed.then(|| {
        events_complete
            && section_crc_matches(events_start, &mut r).unwrap_or(false)
    });
    if !framed {
        bundle.utilization.period_ms = r.u64("utilization header").unwrap_or(0);
    }

    let samples_start = r.clone();
    let samples_declared = r.u32("sample count").unwrap_or(0) as usize;
    // Capped by what the remaining bytes could hold, so a corrupt
    // count never loops past the payload.
    for _ in 0..samples_declared.min(r.remaining() / SAMPLE_BYTES) {
        match read_sample(&mut r) {
            Ok(sample) => bundle.utilization.push(sample),
            Err(_) => break,
        }
    }
    let samples_complete = bundle.utilization.len() == samples_declared;
    let samples_crc_ok = framed.then(|| {
        samples_complete
            && section_crc_matches(samples_start, &mut r).unwrap_or(false)
    });

    let report = SalvageReport {
        version,
        events_declared,
        events_recovered: bundle.events.len(),
        samples_declared,
        samples_recovered: bundle.utilization.len(),
        events_crc_ok,
        samples_crc_ok,
    };
    Ok(Salvaged { bundle, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_bundle() -> TraceBundle {
        let mut bundle = TraceBundle::new("volunteer-03", 42, "nexus6");
        bundle.events.push(EventRecord::new(
            28223867,
            Direction::Enter,
            "Lcom/fsck/k9/service/MailService;->onDestroy",
        ));
        bundle.events.push(EventRecord::new(
            28223867,
            Direction::Exit,
            "Lcom/fsck/k9/service/MailService;->onDestroy",
        ));
        let mut s = UtilizationSample::new(28223500);
        s.set(Component::Cpu, 0.35);
        s.set(Component::Wifi, 0.8);
        bundle.utilization.push(s);
        bundle
    }

    fn busy_bundle(n: usize) -> TraceBundle {
        let mut bundle = TraceBundle::new("volunteer-07", 9, "nexus5");
        for i in 0..n as u64 {
            bundle.events.push(EventRecord::new(
                i * 10,
                Direction::Enter,
                format!("LA;->cb{i}"),
            ));
            bundle.events.push(EventRecord::new(
                i * 10 + 5,
                Direction::Exit,
                format!("LA;->cb{i}"),
            ));
            let mut s = UtilizationSample::new(i * 10);
            s.set(Component::Cpu, 0.5);
            bundle.utilization.push(s);
        }
        bundle
    }

    #[test]
    fn round_trip() {
        let bundle = sample_bundle();
        let decoded = decode(&encode(&bundle)).unwrap();
        assert_eq!(decoded, bundle);
    }

    #[test]
    fn v2_round_trip() {
        let bundle = sample_bundle();
        let decoded = decode(&encode_v2(&bundle)).unwrap();
        assert_eq!(decoded, bundle);
    }

    #[test]
    fn empty_bundle_round_trips() {
        let bundle = TraceBundle::new("u", 0, "d");
        assert_eq!(decode(&encode(&bundle)).unwrap(), bundle);
        assert_eq!(decode(&encode_v2(&bundle)).unwrap(), bundle);
        assert_eq!(decode(&encode_v3(&bundle)).unwrap(), bundle);
    }

    #[test]
    fn v3_round_trips_the_app_version() {
        let bundle = sample_bundle().with_app_version("2.4.1");
        let decoded = decode(&encode_v3(&bundle)).unwrap();
        assert_eq!(decoded, bundle);
        assert_eq!(decoded.app_version, "2.4.1");
    }

    #[test]
    fn v2_drops_the_app_version_silently() {
        let bundle = sample_bundle().with_app_version("2.4.1");
        let decoded = decode(&encode_v2(&bundle)).unwrap();
        assert_eq!(decoded.app_version, "");
        assert_eq!(decoded, sample_bundle());
    }

    #[test]
    fn v3_truncation_anywhere_is_an_error_not_a_panic() {
        let bytes = encode_v3(&sample_bundle().with_app_version("v9"));
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), Err(TraceError::Wire { .. })),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn v3_salvage_reports_version_and_keeps_the_stamp() {
        let bundle = busy_bundle(20).with_app_version("1.9");
        let bytes = encode_v3(&bundle);
        let cut = bytes.len() * 2 / 3;
        let salvaged = decode_salvage(&bytes[..cut]).unwrap();
        assert_eq!(salvaged.report.version, VERSION_V3);
        assert_eq!(salvaged.bundle.app_version, "1.9");
        assert!(salvaged.report.events_recovered > 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_bundle());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(TraceError::Wire { .. })));
        assert!(decode_salvage(&bytes).is_err());
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = encode(&sample_bundle());
        bytes[4] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        for bytes in [encode(&sample_bundle()), encode_v2(&sample_bundle())] {
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        decode(&bytes[..cut]),
                        Err(TraceError::Wire { .. })
                    ),
                    "truncation at {cut} must error"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for mut bytes in [encode(&sample_bundle()), encode_v2(&sample_bundle())]
        {
            bytes.push(0);
            assert!(matches!(decode(&bytes), Err(TraceError::Wire { .. })));
        }
    }

    #[test]
    fn invalid_direction_byte_is_rejected() {
        let bundle = sample_bundle();
        let bytes = encode(&bundle);
        // Find the first direction byte: after magic(4) + ver(1) +
        // user(4+12) + session(8) + device(4+6) + count(4) + ts(8).
        let offset =
            4 + 1 + 4 + bundle.user.len() + 8 + 4 + bundle.device.len() + 4 + 8;
        let mut corrupted = bytes.clone();
        corrupted[offset] = 7;
        assert!(matches!(decode(&corrupted), Err(TraceError::Wire { .. })));
    }

    #[test]
    fn huge_declared_count_is_rejected_without_allocation() {
        let bundle = sample_bundle();
        let bytes = encode(&bundle);
        let count_offset =
            4 + 1 + 4 + bundle.user.len() + 8 + 4 + bundle.device.len();
        let mut corrupted = bytes.clone();
        corrupted[count_offset..count_offset + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&corrupted).unwrap_err();
        assert!(
            err.to_string().contains("exceeds remaining payload"),
            "{err}"
        );
    }

    #[test]
    fn v2_bitflip_in_events_fails_strict_decode() {
        let bundle = busy_bundle(10);
        let bytes = encode_v2(&bundle);
        // Flip one bit somewhere in the middle of the events section.
        let mut corrupted = bytes.clone();
        let mid = bytes.len() / 2;
        corrupted[mid] ^= 0x10;
        assert!(decode(&corrupted).is_err());
    }

    #[test]
    fn v2_truncation_salvages_the_event_prefix() {
        let bundle = busy_bundle(20);
        let bytes = encode_v2(&bundle);
        // Cut the payload somewhere inside the events section.
        let cut = bytes.len() * 2 / 3;
        let salvaged = decode_salvage(&bytes[..cut]).unwrap();
        assert_eq!(salvaged.bundle.user, bundle.user);
        assert_eq!(salvaged.bundle.session, bundle.session);
        assert!(salvaged.report.events_recovered > 0);
        assert!(salvaged.report.lost_records() > 0);
        assert!(!salvaged.report.is_intact());
        // Recovered records are a true prefix.
        assert_eq!(
            salvaged.bundle.events.records(),
            &bundle.events.records()[..salvaged.report.events_recovered]
        );
    }

    #[test]
    fn v1_truncation_salvages_the_event_prefix() {
        let bundle = busy_bundle(20);
        let bytes = encode(&bundle);
        let cut = bytes.len() / 2;
        let salvaged = decode_salvage(&bytes[..cut]).unwrap();
        assert_eq!(salvaged.bundle.user, bundle.user);
        assert!(salvaged.report.events_recovered > 0);
        assert!(!salvaged.report.is_intact());
    }

    #[test]
    fn salvage_of_intact_payload_reports_intact() {
        for bytes in [encode(&sample_bundle()), encode_v2(&sample_bundle())] {
            let salvaged = decode_salvage(&bytes).unwrap();
            assert_eq!(salvaged.bundle, sample_bundle());
            assert!(salvaged.report.is_intact());
            assert_eq!(salvaged.report.lost_records(), 0);
        }
    }

    #[test]
    fn v2_corrupt_header_is_unsalvageable() {
        let bytes = encode_v2(&sample_bundle());
        // Corrupt a byte inside the user string (header body starts at
        // magic + version + header_len = offset 9).
        let mut corrupted = bytes.clone();
        corrupted[13] ^= 0xFF;
        let err = decode_salvage(&corrupted).unwrap_err();
        assert!(err.to_string().contains("crc"), "{err}");
    }

    #[test]
    fn v2_bitflip_in_samples_leaves_events_trusted() {
        let bundle = busy_bundle(8);
        let bytes = encode_v2(&bundle);
        // Flip the last sample's low utilization byte (just before the
        // trailing samples CRC).
        let mut corrupted = bytes.clone();
        let idx = bytes.len() - 12;
        corrupted[idx] ^= 0x01;
        let salvaged = decode_salvage(&corrupted).unwrap();
        assert_eq!(salvaged.report.events_crc_ok, Some(true));
        assert_eq!(salvaged.report.samples_crc_ok, Some(false));
        assert_eq!(salvaged.bundle.events, bundle.events);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn encodings_are_pinned_byte_for_byte() {
        let user = "0c000000 766f6c756e746565722d3033";
        let session = "2a00000000000000";
        let device = "06000000 6e6578757336";
        let period = "f401000000000000";
        let name = "2c000000 4c636f6d2f6673636b2f6b392f7365727669\
                    63652f4d61696c536572766963653b2d3e6f6e44657374726f79";
        let ts = "7ba9ae0100000000";
        let events = format!("02000000 {ts} 00 {name} {ts} 01 {name}");
        let samples = "01000000 0ca8ae0100000000 666666666666d63f \
                       0000000000000000 9a9999999999e93f 0000000000000000 \
                       0000000000000000 0000000000000000";
        let v1 = format!(
            "45445854 01 {user} {session} {device} {events} {period} \
             {samples}"
        );
        let header = format!("{user} {session} {device} {period}");
        let v2 = format!(
            "45445854 02 2a000000 {header} 5072c49b {events} da157a09 \
             {samples} 33fb86d2"
        );
        let v3 = format!(
            "45445854 03 33000000 {header} 05000000 322e342e31 d3acfd9d \
             {events} da157a09 {samples} 33fb86d2"
        );
        let bundle = sample_bundle().with_app_version("2.4.1");
        for (bytes, pinned) in [
            (encode(&bundle), v1),
            (encode_v2(&bundle), v2),
            (encode_v3(&bundle), v3),
        ] {
            assert_eq!(hex(&bytes), pinned.replace(' ', ""));
        }
    }

    /// A v2/v3 frame whose header is `header` under a valid CRC,
    /// followed by empty event and sample sections.
    fn frame_with_header(version: u8, header: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(version);
        out.extend((header.len() as u32).to_le_bytes());
        out.extend(header);
        out.extend(crc32(header).to_le_bytes());
        for _ in 0..2 {
            out.extend(0u32.to_le_bytes());
            out.extend(crc32(&0u32.to_le_bytes()).to_le_bytes());
        }
        out
    }

    #[test]
    fn every_decode_error_text_is_pinned() {
        let v1 = encode(&sample_bundle());
        let v2 = encode_v2(&sample_bundle());
        let v3 = encode_v3(&sample_bundle().with_app_version("2.4.1"));
        let patch = |base: &[u8], at: usize, with: &[u8]| {
            let mut bytes = base.to_vec();
            bytes[at..at + with.len()].copy_from_slice(with);
            bytes
        };
        let grown = |base: &[u8]| [base, &[0]].concat();
        // Header bytes that stop before the sampling period.
        let short_header = [&v2[9..47], &[0; 2][..]].concat();
        // (payload, strict error, salvage error: None when salvage
        // recovers a bundle)
        let cases: Vec<(Vec<u8>, &str, Option<&str>)> =
            vec![
            (patch(&v1, 0, b"X"), "bad magic", Some("bad magic")),
            (
                patch(&v1, 4, &[99]),
                "unsupported version 99",
                Some("unsupported version 99"),
            ),
            (v1[..3].to_vec(), "truncated magic", Some("truncated magic")),
            (v1[..4].to_vec(), "truncated version", Some("truncated version")),
            (
                v1[..7].to_vec(),
                "truncated string length",
                Some("truncated string length"),
            ),
            (
                v1[..12].to_vec(),
                "truncated string body",
                Some("truncated string body"),
            ),
            (
                v1[..25].to_vec(),
                "truncated session id",
                Some("truncated session id"),
            ),
            (v1[..41].to_vec(), "truncated event count", None),
            (v1[..101].to_vec(), "truncated event record", None),
            (v1[..160].to_vec(), "truncated utilization header", None),
            (v1[..167].to_vec(), "truncated sample count", None),
            (
                patch(&v1, 5, &5000u32.to_le_bytes()),
                "string length 5000 exceeds the 4096-byte bound",
                Some("string length 5000 exceeds the 4096-byte bound"),
            ),
            (
                patch(&v1, 9, &[0xFF]),
                "string is not UTF-8",
                Some("string is not UTF-8"),
            ),
            (patch(&v1, 51, &[7]), "invalid direction byte 7", None),
            (
                patch(&v1, 39, &u32::MAX.to_le_bytes()),
                "declared event count 4294967295 exceeds remaining payload \
                 (182 bytes)",
                None,
            ),
            (
                patch(&v1, 165, &2u32.to_le_bytes()),
                "declared sample count 2 exceeds remaining payload (56 bytes)",
                None,
            ),
            (grown(&v1), "trailing bytes after bundle", None),
            (
                v2[..7].to_vec(),
                "truncated header length",
                Some("truncated header length"),
            ),
            (
                v2[..20].to_vec(),
                "declared header length 42 exceeds remaining payload \
                 (11 bytes)",
                Some(
                    "declared header length 42 exceeds remaining payload \
                     (11 bytes)",
                ),
            ),
            (
                patch(&v2, 13, &[v2[13] ^ 0xFF]),
                "header crc mismatch",
                Some("header crc mismatch"),
            ),
            (
                patch(&v3, 4, &[VERSION_V2]),
                "trailing bytes in header",
                Some("trailing bytes in header"),
            ),
            (
                patch(&v2, 4, &[VERSION_V3]),
                "truncated string length",
                Some("truncated string length"),
            ),
            (
                frame_with_header(VERSION_V2, &short_header),
                "truncated sampling period",
                Some("truncated sampling period"),
            ),
            (patch(&v2, 100, &[v2[100] ^ 1]), "events crc mismatch", None),
            (patch(&v2, 200, &[v2[200] ^ 1]), "samples crc mismatch", None),
            (v2[..175].to_vec(), "truncated section crc", None),
            (grown(&v2), "trailing bytes after bundle", None),
        ];
        for (i, (payload, strict, salvage)) in cases.iter().enumerate() {
            let text = |e: TraceError| match e {
                TraceError::Wire { message } => message,
                other => panic!("case {i}: not a wire error: {other}"),
            };
            assert_eq!(text(decode(payload).unwrap_err()), *strict, "case {i}");
            match (decode_salvage(payload), salvage) {
                (Err(e), Some(expected)) => {
                    assert_eq!(text(e), *expected, "case {i}")
                }
                (Ok(_), None) => {}
                (got, _) => panic!("case {i}: salvage gave {got:?}"),
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// `len` pseudo-random bytes, the same on every run and host.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend(rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_of_a_fixed_mebibyte_is_pinned() {
        // zlib's `crc32` of these bytes, which the table kernel also
        // gives: a fold that drifts on long inputs changes it.
        let data = noise(1 << 20, 0x00C0_FFEE);
        assert_eq!(crc32(&data), 0x3A30_B92E);
    }

    /// Bit-at-a-time CRC32 straight from the polynomial, extending
    /// `crc` over `data`: the reference both kernels must reproduce.
    fn crc32_bitwise(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC32_POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The hardware kernel's answer, where this CPU runs it for `data`.
    #[cfg(target_arch = "x86_64")]
    use super::clmul::crc32_update as crc32_hardware;
    #[cfg(not(target_arch = "x86_64"))]
    fn crc32_hardware(_: u32, _: &[u8]) -> Option<u32> {
        None
    }

    #[test]
    fn every_kernel_equals_the_bitwise_reference_at_every_length() {
        let data = noise(1024 + 16, 7);
        for len in 0..=1024 {
            for align in 0..16 {
                let s = &data[align..align + len];
                let want = crc32_bitwise(0, s);
                let at = format!("length {len}, alignment {align}");
                assert_eq!(crc32_update_table(0, s), want, "table, {at}");
                assert_eq!(crc32(s), want, "dispatch, {at}");
                if let Some(got) = crc32_hardware(0, s) {
                    assert_eq!(got, want, "hardware, {at}");
                }
            }
        }
        // Several MB: every fold loop runs for a long time, and the
        // odd length leaves a tail for the table kernel.
        let big = noise((3 << 20) + 13, 8);
        let want = crc32_bitwise(0, &big);
        assert_eq!(crc32_update_table(0, &big), want, "table");
        assert_eq!(crc32(&big), want, "dispatch");
        if let Some(got) = crc32_hardware(0, &big) {
            assert_eq!(got, want, "hardware");
        }
    }

    #[test]
    fn crc32_update_chains_a_seed_across_the_kernel_boundaries() {
        // 16: one fold block; 64: the four lanes; 128: the hardware
        // threshold. Each piece lands on, under and over each.
        let lens = [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200, 257];
        let data = noise(2 * 257, 9);
        for (k, &a) in lens.iter().enumerate() {
            for &b in &lens {
                let seed = 0x9E37_79B9 ^ (k as u32);
                let (x, y) = (&data[..a], &data[a..a + b]);
                let whole = crc32_bitwise(seed, &data[..a + b]);
                assert_eq!(crc32_update(seed, &data[..a + b]), whole);
                let chained = crc32_update(crc32_update(seed, x), y);
                assert_eq!(chained, whole, "pieces {a} + {b}");
                if let Some(got) = crc32_hardware(seed, y) {
                    assert_eq!(got, crc32_bitwise(seed, y), "hardware, {b}");
                }
            }
        }
    }

    /// Where the CPU has both features, a call of 128 bytes or more
    /// must reach the fold: a dispatch that silently keeps to the
    /// tables fails here rather than only running slower.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn long_inputs_take_the_hardware_kernel_where_the_cpu_has_it() {
        let cpu_has_it = is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1");
        let folds = || clmul::FOLDS.with(std::cell::Cell::get);
        let data = noise(4096, 10);
        for len in [0, 16, 64, 127, 128, 129, 1000, 4096] {
            let before = folds();
            crc32_update(0x1234_5678, &data[..len]);
            let hardware = len >= clmul::MIN_LEN && cpu_has_it;
            assert_eq!(folds() - before, u64::from(hardware), "length {len}");
        }
    }

    proptest! {
        #[test]
        fn crc32_equals_the_bitwise_reference_at_every_alignment(
            data in prop::collection::vec(any::<u8>(), 4096 + 8),
            len in 0usize..=4096,
        ) {
            for align in 0..8 {
                let s = &data[align..align + len];
                prop_assert_eq!(crc32(s), crc32_bitwise(0, s), "align {}", align);
            }
        }

        #[test]
        fn crc32_update_over_any_split_equals_one_shot(
            data in prop::collection::vec(any::<u8>(), 0..4097),
            a in any::<usize>(),
            b in any::<usize>(),
        ) {
            let whole = crc32(&data);
            let (x, y) = (a % (data.len() + 1), b % (data.len() + 1));
            let (i, j) = (x.min(y), x.max(y));
            prop_assert_eq!(crc32_update(crc32(&data[..i]), &data[i..]), whole);
            let three = crc32_update(
                crc32_update(crc32(&data[..i]), &data[i..j]),
                &data[j..],
            );
            prop_assert_eq!(three, whole);
        }
    }
}
