//! The one byte encoding of a [`ShardPartial`], and the segment file
//! that carries it to disk.
//!
//! A partial is written in **row layout** ([`encode_partial`]): its
//! canonical vocabulary, then per contiguous run its global offset,
//! each trace's event ids and powers, and the run's emptied slots.
//! EDXC checkpoints, the cluster protocol's `PartialState` frames and
//! spill segments all carry these bytes, so one decoder
//! ([`decode_partial`], over the workspace's bounds-checked
//! [`codec::Reader`](energydx_trace::codec::Reader),
//! validated by [`ShardPartial::from_parts`]) guards all three.
//!
//! ```text
//! partial := names:u32 (len:u32 utf8)*
//!            runs:u32 (offset:u64 traces:u32 trace* skips:u32 skip*)*
//! trace   := len:u32 id:u32 * len power:f64 * len
//! skip    := index:u64 nonfinite_count:u64
//! ```
//!
//! A **segment** (EDXS version 2) is one partial framed for disk:
//!
//! ```text
//! "EDXS" | 2 | trace_count u64 | body_len u32 | crc32(version..body_len) u32
//! body: one partial | crc32(body) u32
//! ```
//!
//! [`open_meta`] reads only the fixed 21-byte header, so a restart
//! accounts for a spilled run without reading its body. Every byte is
//! covered by a check — magic and version by comparison, the rest of
//! the header and the body by their CRCs, their lengths by the file
//! size — so any truncated prefix and any single-bit flip surfaces as
//! a typed [`SegmentError`], never a panic and never silently wrong
//! data (`tests/corruption.rs`). An EDXS version-1 file is refused as
//! [`SegmentError::UnsupportedVersion`], not read.
//!
//! Durability: [`save_to`] publishes through [`write_atomic`] — temp
//! file, fsync, rename into place, best-effort directory fsync — so a
//! crash can never publish a torn segment. The same routine publishes
//! the daemon's checkpoints, the coordinator's replicas and the CLI's
//! report artifacts.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs::{self, File};
use std::io::{Read as _, Write as _};
use std::path::Path;

use energydx::shard::{
    PartsError, SegmentParts, ShardPartial, ShardPartialParts,
};
use energydx_trace::codec::{CodecError, Reader, Writer};
use energydx_trace::intern::{EventId, InternedTrace};
use energydx_trace::wire;

/// Leading magic of every segment file.
const MAGIC: [u8; 4] = *b"EDXS";
/// The segment format this build writes and reads.
const VERSION: u8 = 2;
/// Fixed header: magic, version, trace count, body length, header CRC.
const HEADER_LEN: usize = 21;

/// Why partial bytes or a segment could not be read. Every corrupt,
/// truncated, or adversarial input maps to one of these — reading
/// never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The underlying file operation failed.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The OS error text.
        detail: String,
    },
    /// The header magic is not a segment's.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u8),
    /// The file ends before the named field is complete.
    Truncated {
        /// The field being read when the data ran out.
        field: &'static str,
    },
    /// A CRC32 does not match the bytes it covers.
    CrcMismatch {
        /// The part that failed the check: `header` or `body`.
        block: &'static str,
    },
    /// The bytes are structurally inconsistent: a length or count
    /// disagrees with the data or the file.
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
    /// The bytes decode to parts that describe no valid partial.
    Invalid(PartsError),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io { op, detail } => {
                write!(f, "segment io failure during {op}: {detail}")
            }
            SegmentError::BadMagic => {
                write!(f, "not a segment file (bad magic)")
            }
            SegmentError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment version {v}")
            }
            SegmentError::Truncated { field } => {
                write!(f, "segment truncated while reading {field}")
            }
            SegmentError::CrcMismatch { block } => {
                write!(f, "segment {block} fails its crc32 check")
            }
            SegmentError::Malformed { detail } => {
                write!(f, "malformed partial: {detail}")
            }
            SegmentError::Invalid(e) => {
                write!(f, "bytes decode to an invalid partial: {e}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<CodecError> for SegmentError {
    // Inside a length-checked, CRC-verified body an underrun means a
    // length field lies, which is malformed content.
    fn from(e: CodecError) -> Self {
        SegmentError::malformed(e.to_string())
    }
}

impl SegmentError {
    fn io(op: &'static str, e: &std::io::Error) -> Self {
        SegmentError::Io {
            op,
            detail: e.to_string(),
        }
    }

    fn malformed(detail: impl Into<String>) -> Self {
        SegmentError::Malformed {
            detail: detail.into(),
        }
    }
}

/// What [`open_meta`] reads from a segment's fixed header: enough to
/// account for the segment (checkpoint references, restore
/// validation) without reading its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Total traces across all runs, emptied slots included.
    pub trace_count: u64,
}

// ---------------------------------------------------------------------------
// The partial's row layout
// ---------------------------------------------------------------------------

/// Appends `parts` to `w` in row layout: the one encoder of a
/// partial's bytes, inverse of [`decode_partial`].
pub fn encode_partial(w: &mut Writer, parts: &ShardPartialParts) {
    w.u32(parts.names.len() as u32);
    for name in &parts.names {
        w.str(name);
    }
    w.u32(parts.segments.len() as u32);
    for run in &parts.segments {
        w.u64(run.offset as u64);
        w.u32(run.traces.len() as u32);
        for trace in &run.traces {
            w.u32(trace.ids().len() as u32);
            for id in trace.ids() {
                w.u32(id.index() as u32);
            }
            for &p in trace.powers() {
                w.f64(p);
            }
        }
        w.u32(run.skipped.len() as u32);
        for &(index, count) in &run.skipped {
            w.u64(index as u64);
            w.u64(count as u64);
        }
    }
}

/// Reads one partial written by [`encode_partial`] and validates it
/// with [`ShardPartial::from_parts`]: the one decoder of a partial's
/// bytes. Each trace's ids and powers are read as one slice apiece,
/// and no count sizes an allocation beyond what the input can hold.
///
/// # Errors
///
/// [`SegmentError::Malformed`] when the bytes run out or a field does
/// not decode; [`SegmentError::Invalid`] when they decode to parts
/// that describe no valid partial.
pub fn decode_partial(
    r: &mut Reader<'_>,
) -> Result<ShardPartial, SegmentError> {
    let name_count = r.u32("vocab count")? as usize;
    let mut names = Vec::with_capacity(name_count.min(r.remaining() / 4));
    for _ in 0..name_count {
        names.push(r.str("vocab name")?);
    }
    let run_count = r.u32("run count")? as usize;
    let mut segments = Vec::with_capacity(run_count.min(r.remaining() / 16));
    for _ in 0..run_count {
        let offset = r.usize("run offset")?;
        let trace_count = r.u32("run trace count")? as usize;
        let mut traces = Vec::with_capacity(trace_count.min(r.remaining() / 4));
        for _ in 0..trace_count {
            let len = r.u32("trace length")? as usize;
            // Saturating: on a 32-bit target an overlong length must
            // still be a short read, not a wrapped one.
            let ids = r.raw(len.saturating_mul(4), "event ids")?;
            let powers = r.raw(len.saturating_mul(8), "powers")?;
            let ids = ids
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .map(|id| EventId::from_index(id as usize))
                .collect();
            let powers = powers
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            traces.push(
                InternedTrace::from_columns(ids, powers)
                    .expect("one id and one power per instance"),
            );
        }
        let skip_count = r.u32("skip count")? as usize;
        let mut skipped =
            Vec::with_capacity(skip_count.min(r.remaining() / 16));
        for _ in 0..skip_count {
            let index = r.usize("skip index")?;
            skipped.push((index, r.usize("skip value count")?));
        }
        segments.push(SegmentParts {
            offset,
            traces,
            skipped,
        });
    }
    ShardPartial::from_parts(ShardPartialParts { names, segments })
        .map_err(SegmentError::Invalid)
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// Serializes `parts` as one segment: the fixed header, then the
/// partial's row layout as the body. The inverse of [`read_partial`].
///
/// # Panics
///
/// If the body does not fit the header's `u32` length field.
pub fn segment_bytes(parts: &ShardPartialParts) -> Vec<u8> {
    let mut body = Writer::new();
    encode_partial(&mut body, parts);
    let body = body.into_vec();
    let body_len = u32::try_from(body.len())
        .expect("segment body exceeds u32 length framing");
    let traces: usize = parts.segments.iter().map(|s| s.traces.len()).sum();
    let mut head = Writer::with_capacity(HEADER_LEN + body.len() + 4);
    head.raw(&MAGIC);
    head.u8(VERSION);
    head.u64(traces as u64);
    head.u32(body_len);
    let mut out = head.into_vec();
    out.extend_from_slice(&wire::crc32(&out[MAGIC.len()..]).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&wire::crc32(&body).to_le_bytes());
    out
}

/// Checks a segment's header — `head` is the file's first bytes, up
/// to [`HEADER_LEN`] of them — against the file's length.
fn parse_header(
    head: &[u8],
    file_len: u64,
) -> Result<SegmentMeta, SegmentError> {
    if head.len() <= MAGIC.len() {
        return Err(SegmentError::Truncated { field: "header" });
    }
    if head[..MAGIC.len()] != MAGIC {
        return Err(SegmentError::BadMagic);
    }
    if head[MAGIC.len()] != VERSION {
        return Err(SegmentError::UnsupportedVersion(head[MAGIC.len()]));
    }
    let head = head
        .get(..HEADER_LEN)
        .ok_or(SegmentError::Truncated { field: "header" })?;
    let mut r = Reader::new(&head[MAGIC.len() + 1..]);
    let trace_count = r.u64("trace count")?;
    let body_len = r.u32("body length")?;
    if wire::crc32(&head[MAGIC.len()..HEADER_LEN - 4]) != r.u32("crc")? {
        return Err(SegmentError::CrcMismatch { block: "header" });
    }
    let whole = (HEADER_LEN + 4) as u64 + u64::from(body_len);
    if file_len < whole {
        return Err(SegmentError::Truncated { field: "body" });
    }
    if file_len > whole {
        return Err(SegmentError::malformed(format!(
            "{} trailing byte(s) after the body's crc",
            file_len - whole
        )));
    }
    Ok(SegmentMeta { trace_count })
}

/// Decodes a whole in-memory segment into a validated [`ShardPartial`].
///
/// # Errors
///
/// Header damage, a length that disagrees with the data, or a body
/// that fails its CRC yields the matching [`SegmentError`]; a body
/// that decodes but disagrees with the header's trace count is
/// [`SegmentError::Malformed`]; the rest as [`decode_partial`].
pub fn read_partial(bytes: &[u8]) -> Result<ShardPartial, SegmentError> {
    let meta = parse_header(bytes, bytes.len() as u64)?;
    let (body, crc) =
        bytes[HEADER_LEN..].split_at(bytes.len() - HEADER_LEN - 4);
    if wire::crc32(body).to_le_bytes() != crc {
        return Err(SegmentError::CrcMismatch { block: "body" });
    }
    let mut r = Reader::new(body);
    let partial = decode_partial(&mut r)?;
    if r.remaining() != 0 {
        return Err(SegmentError::malformed(format!(
            "{} trailing byte(s) after the partial",
            r.remaining()
        )));
    }
    if partial.trace_count() as u64 != meta.trace_count {
        return Err(SegmentError::malformed(format!(
            "the header counts {} trace(s), the body holds {}",
            meta.trace_count,
            partial.trace_count()
        )));
    }
    Ok(partial)
}

/// Atomically and durably publishes `bytes` at `path`: writes a
/// sibling `<name>.tmp`, fsyncs it, renames it over `path`, then
/// best-effort fsyncs the directory. A crash at any point leaves
/// either the old file or the new one, never a torn one; any failure
/// removes the temp file and leaves whatever was at `path` untouched.
///
/// # Errors
///
/// The first file-system step that failed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} names no file", path.display()),
            )
        })?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let publish = || -> std::io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        // Contents reach the disk before the rename makes them
        // visible under the final name.
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    };
    if let Err(e) = publish() {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Making the rename itself durable; failure here only delays
    // durability until the next sync, so it is not fatal.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = File::open(dir.unwrap_or(Path::new("."))) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Serializes `parts` and publishes the segment at `path` through
/// [`write_atomic`]; returns the file's size.
///
/// # Errors
///
/// Surfaces file-system failures as [`SegmentError::Io`].
pub fn save_to(
    path: &Path,
    parts: &ShardPartialParts,
) -> Result<u64, SegmentError> {
    let bytes = segment_bytes(parts);
    write_atomic(path, &bytes)
        .map_err(|e| SegmentError::io("publish segment", &e))?;
    Ok(bytes.len() as u64)
}

/// Reads and validates a whole segment file into a [`ShardPartial`].
///
/// # Errors
///
/// File-system failures surface as [`SegmentError::Io`]; damaged
/// contents as [`read_partial`] reports them.
pub fn load_from(path: &Path) -> Result<ShardPartial, SegmentError> {
    let bytes =
        fs::read(path).map_err(|e| SegmentError::io("read segment", &e))?;
    read_partial(&bytes)
}

/// Opens a segment file and reads only its fixed header, checked
/// against the file's size — O(1) however many traces the segment
/// holds. Damage inside the body is left to [`load_from`].
///
/// # Errors
///
/// File-system failures surface as [`SegmentError::Io`]; a damaged
/// header, or a file size the header disagrees with, as
/// [`read_partial`] reports it.
pub fn open_meta(path: &Path) -> Result<SegmentMeta, SegmentError> {
    let file =
        File::open(path).map_err(|e| SegmentError::io("open segment", &e))?;
    let file_len = file
        .metadata()
        .map_err(|e| SegmentError::io("stat segment", &e))?
        .len();
    let mut head = Vec::with_capacity(HEADER_LEN);
    file.take(HEADER_LEN as u64)
        .read_to_end(&mut head)
        .map_err(|e| SegmentError::io("read header", &e))?;
    parse_header(&head, file_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use energydx::shard::ShardPartial;
    use energydx::EnergyDx;
    use energydx_trace::event::EventInstance;
    use energydx_trace::join::PoweredInstance;

    fn powered(names: &[(&str, f64)]) -> Vec<PoweredInstance> {
        names
            .iter()
            .enumerate()
            .map(|(i, &(n, p))| PoweredInstance {
                instance: EventInstance::new(n, i as u64 * 10, i as u64 * 10),
                power_mw: p,
            })
            .collect()
    }

    fn sample_partial() -> ShardPartial {
        let dx = EnergyDx::default();
        let traces = vec![
            powered(&[("net", 120.0), ("gps", 300.0), ("net", 90.0)]),
            powered(&[("cpu", 40.0), ("net", f64::NAN)]),
            powered(&[("gps", 280.0), ("cpu", 55.0)]),
        ];
        dx.map_shard(&traces, 0)
    }

    #[test]
    fn round_trips_bit_for_bit() {
        let partial = sample_partial();
        let bytes = segment_bytes(&partial.to_parts());
        let restored = read_partial(&bytes).unwrap();
        assert_eq!(restored.to_parts(), partial.to_parts());
        // And the serialization of the round-trip is stable.
        assert_eq!(segment_bytes(&restored.to_parts()), bytes);
    }

    #[test]
    fn empty_partial_round_trips() {
        let parts = ShardPartial::empty().to_parts();
        let bytes = segment_bytes(&parts);
        assert_eq!(read_partial(&bytes).unwrap().to_parts(), parts);
        let meta = parse_header(&bytes, bytes.len() as u64).unwrap();
        assert_eq!(meta.trace_count, 0);
    }

    /// Two names, two traces and one emptied slot between them, in one
    /// run at offset 3: the partial the protocol's frame-layout test
    /// pins inside a `PartialState` frame.
    fn pinned_partial() -> ShardPartial {
        let trace = |ids: &[usize], powers: &[f64]| {
            let ids = ids.iter().map(|&i| EventId::from_index(i)).collect();
            InternedTrace::from_columns(ids, powers.to_vec()).unwrap()
        };
        ShardPartial::from_parts(ShardPartialParts {
            names: vec!["gps".into(), "net".into()],
            segments: vec![SegmentParts {
                offset: 3,
                traces: vec![
                    trace(&[1, 0], &[120.5, 310.0]),
                    InternedTrace::default(),
                    trace(&[1], &[42.25]),
                ],
                skipped: vec![(4, 1)],
            }],
        })
        .unwrap()
    }

    #[test]
    fn segment_layout_is_pinned_byte_for_byte() {
        // magic | version | trace count | body length | header crc |
        // the partial's row layout | body crc; both CRCs computed
        // independently (zlib).
        let bytes = segment_bytes(&pinned_partial().to_parts());
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4544585302030000000000000066000000e689fb06\
             0200000003000000677073030000006e657401000000030000000000\
             0000030000000200000001000000000000000000000000205e400000\
             0000006073400000000001000000010000000000000000204540\
             0100000004000000000000000100000000000000\
             f8252cf3"
        );
    }

    #[test]
    fn rebased_runs_keep_their_offsets() {
        let partial = sample_partial().rebase(100);
        let bytes = segment_bytes(&partial.to_parts());
        let restored = read_partial(&bytes).unwrap();
        assert_eq!(restored.to_parts(), partial.to_parts());
        assert_eq!(restored.to_parts().segments[0].offset, 100);
    }

    #[test]
    fn save_load_and_open_meta_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("energydx-segment-unit");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("000001.seg");
        let partial = sample_partial();
        let written = save_to(&path, &partial.to_parts()).unwrap();
        assert_eq!(written, fs::metadata(&path).unwrap().len());
        let meta = open_meta(&path).unwrap();
        assert_eq!(meta.trace_count, partial.trace_count() as u64);
        let restored = load_from(&path).unwrap();
        assert_eq!(restored.to_parts(), partial.to_parts());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh scratch directory for one test.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("energydx-segment-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every `*.tmp` entry left in `dir`.
    fn temp_files(dir: &Path) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = scratch("atomic-ok");
        let path = dir.join("fleet.ckpt");
        fs::write(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert!(temp_files(&dir).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_publish_leaves_the_previous_file_and_no_temp() {
        let dir = scratch("atomic-fail");
        // The rename fails after the temp file was written and synced:
        // the target is a non-empty directory.
        let blocked = dir.join("blocked.ckpt");
        fs::create_dir(&blocked).unwrap();
        fs::write(blocked.join("keep"), b"old").unwrap();
        assert!(write_atomic(&blocked, b"new").is_err());
        assert_eq!(fs::read(blocked.join("keep")).unwrap(), b"old");
        // The temp file cannot be created at all: the target's name
        // leaves no room for the `.tmp` suffix within NAME_MAX (255).
        let long = dir.join("x".repeat(253));
        fs::write(&long, b"old").unwrap();
        assert!(write_atomic(&long, b"new").is_err());
        assert_eq!(fs::read(&long).unwrap(), b"old");
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_vocabularies_round_trip() {
        let dx = EnergyDx::default();
        let a = dx.map_shard(&[powered(&[("zz", 10.0), ("aa", 20.0)])], 0);
        let b = dx.map_shard(&[powered(&[("mm", 5.0), ("aa", 1.0)])], 1);
        let merged = a.merge(b);
        let bytes = segment_bytes(&merged.to_parts());
        assert_eq!(read_partial(&bytes).unwrap().to_parts(), merged.to_parts());
    }
}
