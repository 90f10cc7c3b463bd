//! Binary wire format for uploading trace bundles.
//!
//! Phones upload `(event trace, utilization trace)` bundles to the
//! backend "when the smartphone is in charge with WiFi" (§II-B). Two
//! frame versions are understood; [`decode`] negotiates on the version
//! byte.
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

use crate::error::TraceError;
use crate::event::{Direction, EventRecord, EventTrace};
use crate::store::TraceBundle;
use crate::util::{Component, UtilizationSample, UtilizationTrace};
use bytes::{BufMut, Bytes, BytesMut};

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
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
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
pub fn encode(bundle: &TraceBundle) -> Bytes {
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
pub fn try_encode(bundle: &TraceBundle) -> Result<Bytes, TraceError> {
    let mut buf = BytesMut::with_capacity(
        64 + bundle.events.len() * 48 + bundle.utilization.len() * 56,
    );
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION_V1);
    put_str(&mut buf, &bundle.user)?;
    buf.put_u64_le(bundle.session);
    put_str(&mut buf, &bundle.device)?;

    buf.put_u32_le(checked_count(bundle.events.len(), "event")?);
    for r in bundle.events.records() {
        put_event_record(&mut buf, r)?;
    }

    buf.put_u64_le(bundle.utilization.period_ms);
    buf.put_u32_le(checked_count(bundle.utilization.len(), "sample")?);
    for s in bundle.utilization.samples() {
        put_sample(&mut buf, s);
    }
    Ok(buf.freeze())
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
pub fn encode_v2(bundle: &TraceBundle) -> Bytes {
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
pub fn try_encode_v2(bundle: &TraceBundle) -> Result<Bytes, TraceError> {
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
pub fn encode_v3(bundle: &TraceBundle) -> Bytes {
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
pub fn try_encode_v3(bundle: &TraceBundle) -> Result<Bytes, TraceError> {
    try_encode_framed(bundle, VERSION_V3)
}

fn try_encode_framed(
    bundle: &TraceBundle,
    version: u8,
) -> Result<Bytes, TraceError> {
    let mut header = BytesMut::with_capacity(64);
    put_str(&mut header, &bundle.user)?;
    header.put_u64_le(bundle.session);
    put_str(&mut header, &bundle.device)?;
    header.put_u64_le(bundle.utilization.period_ms);
    if version >= VERSION_V3 {
        put_str(&mut header, &bundle.app_version)?;
    }

    let mut events = BytesMut::with_capacity(4 + bundle.events.len() * 48);
    events.put_u32_le(checked_count(bundle.events.len(), "event")?);
    for r in bundle.events.records() {
        put_event_record(&mut events, r)?;
    }

    let mut samples =
        BytesMut::with_capacity(4 + bundle.utilization.len() * SAMPLE_BYTES);
    samples.put_u32_le(checked_count(bundle.utilization.len(), "sample")?);
    for s in bundle.utilization.samples() {
        put_sample(&mut samples, s);
    }

    let mut buf = BytesMut::with_capacity(
        4 + 1 + 4 + header.len() + events.len() + samples.len() + 12,
    );
    buf.put_slice(MAGIC);
    buf.put_u8(version);
    buf.put_u32_le(checked_count(header.len(), "header byte")?);
    let header_crc = crc32(&header);
    buf.put_slice(&header);
    buf.put_u32_le(header_crc);
    let events_crc = crc32(&events);
    buf.put_slice(&events);
    buf.put_u32_le(events_crc);
    let samples_crc = crc32(&samples);
    buf.put_slice(&samples);
    buf.put_u32_le(samples_crc);
    Ok(buf.freeze())
}

fn checked_count(len: usize, what: &str) -> Result<u32, TraceError> {
    u32::try_from(len).map_err(|_| TraceError::Wire {
        message: format!("{what} count {len} exceeds the u32 wire limit"),
    })
}

fn put_event_record(
    buf: &mut BytesMut,
    r: &EventRecord,
) -> Result<(), TraceError> {
    buf.put_u64_le(r.timestamp_ms);
    buf.put_u8(match r.direction {
        Direction::Enter => 0,
        Direction::Exit => 1,
    });
    put_str(buf, &r.event)
}

fn put_sample(buf: &mut BytesMut, s: &UtilizationSample) {
    buf.put_u64_le(s.timestamp_ms);
    for c in Component::ALL {
        buf.put_f64_le(s.get(c));
    }
}

fn put_str(buf: &mut BytesMut, s: &str) -> Result<(), TraceError> {
    buf.put_u32_le(checked_count(s.len(), "string byte")?);
    buf.put_slice(s.as_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A byte cursor that reports errors instead of panicking.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::Wire {
                message: format!("truncated {what}"),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn get_u8(&mut self, what: &str) -> Result<u8, TraceError> {
        Ok(self.take(1, what)?[0])
    }

    fn get_u32_le(&mut self, what: &str) -> Result<u32, TraceError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64_le(&mut self, what: &str) -> Result<u64, TraceError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn get_f64_le(&mut self, what: &str) -> Result<f64, TraceError> {
        Ok(f64::from_bits(self.get_u64_le(what)?))
    }

    fn get_str(&mut self) -> Result<String, TraceError> {
        let len = self.get_u32_le("string length")? as usize;
        if len > MAX_STRING_BYTES {
            return Err(TraceError::Wire {
                message: format!("string length {len} exceeds the {MAX_STRING_BYTES}-byte bound"),
            });
        }
        let bytes = self.take(len, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Wire {
            message: "string is not UTF-8".to_string(),
        })
    }

    fn get_event_record(&mut self) -> Result<EventRecord, TraceError> {
        let ts = self.get_u64_le("event record")?;
        let direction = match self.get_u8("event record")? {
            0 => Direction::Enter,
            1 => Direction::Exit,
            d => {
                return Err(TraceError::Wire {
                    message: format!("invalid direction byte {d}"),
                })
            }
        };
        let event = self.get_str()?;
        Ok(EventRecord::new(ts, direction, event))
    }

    fn get_sample(&mut self) -> Result<UtilizationSample, TraceError> {
        let mut s =
            UtilizationSample::new(self.get_u64_le("utilization sample")?);
        for c in Component::ALL {
            s.set(c, self.get_f64_le("utilization sample")?);
        }
        Ok(s)
    }

    /// Rejects a declared element count that could not possibly fit in
    /// the bytes that remain.
    fn bound_count(
        &self,
        declared: u32,
        min_bytes: usize,
        what: &str,
    ) -> Result<usize, TraceError> {
        let declared = declared as usize;
        if declared.saturating_mul(min_bytes) > self.remaining() {
            return Err(TraceError::Wire {
                message: format!(
                    "declared {what} count {declared} exceeds remaining payload ({} bytes)",
                    self.remaining()
                ),
            });
        }
        Ok(declared)
    }
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
    match decode_version(&mut r)? {
        VERSION_V1 => decode_v1_strict(&mut r),
        version => decode_v2_strict(&mut r, version),
    }
}

fn decode_version(r: &mut Reader<'_>) -> Result<u8, TraceError> {
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(TraceError::Wire {
            message: "bad magic".to_string(),
        });
    }
    let version = r.get_u8("version")?;
    if !matches!(version, VERSION_V1 | VERSION_V2 | VERSION_V3) {
        return Err(TraceError::Wire {
            message: format!("unsupported version {version}"),
        });
    }
    Ok(version)
}

fn decode_v1_strict(r: &mut Reader<'_>) -> Result<TraceBundle, TraceError> {
    let user = r.get_str()?;
    let session = r.get_u64_le("session id")?;
    let device = r.get_str()?;

    let declared = r.get_u32_le("event count")?;
    let n_events = r.bound_count(declared, MIN_EVENT_BYTES, "event")?;
    let mut events = EventTrace::new();
    for _ in 0..n_events {
        events.push(r.get_event_record()?);
    }

    let period_ms = r.get_u64_le("utilization header")?;
    let declared = r.get_u32_le("sample count")?;
    let n_samples = r.bound_count(declared, SAMPLE_BYTES, "sample")?;
    let mut utilization = UtilizationTrace::with_period(period_ms);
    for _ in 0..n_samples {
        utilization.push(r.get_sample()?);
    }
    if r.remaining() > 0 {
        return Err(TraceError::Wire {
            message: "trailing bytes after bundle".to_string(),
        });
    }

    let mut bundle = TraceBundle::new(user, session, device);
    bundle.events = events;
    bundle.utilization = utilization;
    Ok(bundle)
}

fn decode_v2_strict(
    r: &mut Reader<'_>,
    version: u8,
) -> Result<TraceBundle, TraceError> {
    let (mut bundle, events_start) = decode_v2_header(r, version)?;

    // Events section: bytes are CRC-covered from the count field on.
    let declared = r.get_u32_le("event count")?;
    let n_events = r.bound_count(declared, MIN_EVENT_BYTES, "event")?;
    let mut events = EventTrace::new();
    for _ in 0..n_events {
        events.push(r.get_event_record()?);
    }
    check_section_crc(r, events_start, "events")?;

    let samples_start = r.pos;
    let declared = r.get_u32_le("sample count")?;
    let n_samples = r.bound_count(declared, SAMPLE_BYTES, "sample")?;
    let mut utilization =
        UtilizationTrace::with_period(bundle.utilization.period_ms);
    for _ in 0..n_samples {
        utilization.push(r.get_sample()?);
    }
    check_section_crc(r, samples_start, "samples")?;

    if r.remaining() > 0 {
        return Err(TraceError::Wire {
            message: "trailing bytes after bundle".to_string(),
        });
    }
    bundle.events = events;
    bundle.utilization = utilization;
    Ok(bundle)
}

/// Parses and CRC-verifies the v2/v3 header; returns the
/// identity-only bundle and the offset where the events section
/// starts. On v3 the header additionally carries the app-version
/// stamp; on v2 it decodes as the implicit unversioned release.
fn decode_v2_header(
    r: &mut Reader<'_>,
    version: u8,
) -> Result<(TraceBundle, usize), TraceError> {
    let header_len = r.get_u32_le("header length")? as usize;
    if header_len + 4 > r.remaining() {
        return Err(TraceError::Wire {
            message: format!(
                "declared header length {header_len} exceeds remaining payload ({} bytes)",
                r.remaining()
            ),
        });
    }
    let header_start = r.pos;
    let header_bytes = r.take(header_len, "header")?;
    let stored_crc = r.get_u32_le("header crc")?;
    if crc32(header_bytes) != stored_crc {
        return Err(TraceError::Wire {
            message: "header crc mismatch".to_string(),
        });
    }
    let mut h = Reader::new(header_bytes);
    let user = h.get_str()?;
    let session = h.get_u64_le("session id")?;
    let device = h.get_str()?;
    let period_ms = h.get_u64_le("sampling period")?;
    let app_version = if version >= VERSION_V3 {
        h.get_str()?
    } else {
        String::new()
    };
    if h.remaining() > 0 {
        return Err(TraceError::Wire {
            message: "trailing bytes in header".to_string(),
        });
    }
    let _ = header_start;
    let mut bundle = TraceBundle::new(user, session, device);
    bundle.app_version = app_version;
    bundle.utilization = UtilizationTrace::with_period(period_ms);
    Ok((bundle, r.pos))
}

fn check_section_crc(
    r: &mut Reader<'_>,
    start: usize,
    what: &str,
) -> Result<(), TraceError> {
    let section = &r.data[start..r.pos];
    let stored = r.get_u32_le("section crc")?;
    if crc32(section) != stored {
        return Err(TraceError::Wire {
            message: format!("{what} crc mismatch"),
        });
    }
    Ok(())
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
    match decode_version(&mut r)? {
        VERSION_V1 => decode_v1_salvage(&mut r),
        version => decode_v2_salvage(&mut r, version),
    }
}

fn decode_v1_salvage(r: &mut Reader<'_>) -> Result<Salvaged, TraceError> {
    let user = r.get_str()?;
    let session = r.get_u64_le("session id")?;
    let device = r.get_str()?;
    let mut bundle = TraceBundle::new(user, session, device);

    let events_declared = r.get_u32_le("event count").unwrap_or(0) as usize;
    let mut events = EventTrace::new();
    for _ in 0..events_declared {
        match r.get_event_record() {
            Ok(record) => events.push(record),
            Err(_) => break,
        }
    }

    let period_ms = r.get_u64_le("utilization header").unwrap_or(0);
    let samples_declared = r.get_u32_le("sample count").unwrap_or(0) as usize;
    let mut utilization = UtilizationTrace::with_period(period_ms);
    for _ in 0..samples_declared.min(usable_count(r.remaining(), SAMPLE_BYTES))
    {
        match r.get_sample() {
            Ok(sample) => utilization.push(sample),
            Err(_) => break,
        }
    }

    let report = SalvageReport {
        version: VERSION_V1,
        events_declared,
        events_recovered: events.len(),
        samples_declared,
        samples_recovered: utilization.len(),
        events_crc_ok: None,
        samples_crc_ok: None,
    };
    bundle.events = events;
    bundle.utilization = utilization;
    Ok(Salvaged { bundle, report })
}

fn decode_v2_salvage(
    r: &mut Reader<'_>,
    version: u8,
) -> Result<Salvaged, TraceError> {
    let (mut bundle, events_start) = decode_v2_header(r, version)?;

    let events_declared = r.get_u32_le("event count").unwrap_or(0) as usize;
    let mut events = EventTrace::new();
    for _ in 0..events_declared {
        match r.get_event_record() {
            Ok(record) => events.push(record),
            Err(_) => break,
        }
    }
    let events_complete = events.len() == events_declared;
    let events_crc_ok = events_complete && section_crc_matches(r, events_start);

    let samples_start = r.pos;
    let samples_declared = r.get_u32_le("sample count").unwrap_or(0) as usize;
    let mut utilization =
        UtilizationTrace::with_period(bundle.utilization.period_ms);
    for _ in 0..samples_declared.min(usable_count(r.remaining(), SAMPLE_BYTES))
    {
        match r.get_sample() {
            Ok(sample) => utilization.push(sample),
            Err(_) => break,
        }
    }
    let samples_complete = utilization.len() == samples_declared;
    let samples_crc_ok =
        samples_complete && section_crc_matches(r, samples_start);

    let report = SalvageReport {
        version,
        events_declared,
        events_recovered: events.len(),
        samples_declared,
        samples_recovered: utilization.len(),
        events_crc_ok: Some(events_crc_ok),
        samples_crc_ok: Some(samples_crc_ok),
    };
    bundle.events = events;
    bundle.utilization = utilization;
    Ok(Salvaged { bundle, report })
}

/// Caps a (possibly corrupt) declared count by how many whole elements
/// the remaining bytes could hold, so salvage never loops past the
/// payload.
fn usable_count(remaining: usize, min_bytes: usize) -> usize {
    remaining / min_bytes
}

/// Reads the trailing section CRC (consuming it) and checks it against
/// the bytes from `start` to just before the CRC field.
fn section_crc_matches(r: &mut Reader<'_>, start: usize) -> bool {
    let section = &r.data[start..r.pos];
    match r.get_u32_le("section crc") {
        Ok(stored) => crc32(section) == stored,
        Err(_) => false,
    }
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
        let bytes = encode_v3(&bundle).to_vec();
        let cut = bytes.len() * 2 / 3;
        let salvaged = decode_salvage(&bytes[..cut]).unwrap();
        assert_eq!(salvaged.report.version, VERSION_V3);
        assert_eq!(salvaged.bundle.app_version, "1.9");
        assert!(salvaged.report.events_recovered > 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_bundle()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(TraceError::Wire { .. })));
        assert!(decode_salvage(&bytes).is_err());
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = encode(&sample_bundle()).to_vec();
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
        for encoded in [encode(&sample_bundle()), encode_v2(&sample_bundle())] {
            let mut bytes = encoded.to_vec();
            bytes.push(0);
            assert!(matches!(decode(&bytes), Err(TraceError::Wire { .. })));
        }
    }

    #[test]
    fn invalid_direction_byte_is_rejected() {
        let bundle = sample_bundle();
        let bytes = encode(&bundle).to_vec();
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
        let bytes = encode(&bundle).to_vec();
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
        let bytes = encode_v2(&bundle).to_vec();
        // Flip one bit somewhere in the middle of the events section.
        let mut corrupted = bytes.clone();
        let mid = bytes.len() / 2;
        corrupted[mid] ^= 0x10;
        assert!(decode(&corrupted).is_err());
    }

    #[test]
    fn v2_truncation_salvages_the_event_prefix() {
        let bundle = busy_bundle(20);
        let bytes = encode_v2(&bundle).to_vec();
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
        let bytes = encode(&bundle).to_vec();
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
        let bytes = encode_v2(&sample_bundle()).to_vec();
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
        let bytes = encode_v2(&bundle).to_vec();
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

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC32 straight from the polynomial: the reference
    /// the table-driven kernel must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
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

    proptest! {
        #[test]
        fn crc32_equals_the_bitwise_reference_at_every_alignment(
            data in prop::collection::vec(any::<u8>(), 4096 + 8),
            len in 0usize..=4096,
        ) {
            for align in 0..8 {
                let s = &data[align..align + len];
                prop_assert_eq!(crc32(s), crc32_bitwise(s), "align {}", align);
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
