//! On-disk columnar segment format for interned trace partials.
//!
//! A **segment** is one [`ShardPartial`] serialized column-by-column:
//! the same SoA layout as [`InternedTrace`] (one block of event ids,
//! one block of powers per contiguous run) instead of the per-trace
//! interleaving the EDXC checkpoint uses. Every block is CRC32-framed
//! exactly like the wire-v2 and checkpoint formats, and a footer index
//! lists every block's position so a segment can be *opened* — its
//! trace count and run layout recovered — without scanning the column
//! data ([`open_meta`]).
//!
//! ```text
//! "EDXS" version:u8
//! block*                      one VOCAB, then RUN IDS POWERS SKIPS per run
//! footer block (INDEX)        trace_count, run count, (kind,offset,len)*
//! footer_len:u32 "EDXF"       fixed-size trailer: find the footer from EOF
//!
//! block := kind:u8 body_len:u32 body crc32(body):u32
//! ```
//!
//! The reader enforces that the index entries tile the file exactly —
//! header, blocks, footer, trailer, with no gaps — so **every byte of
//! a segment is covered by a check**: magic/version/kind/length fields
//! by structural comparison, bodies by CRC. Any truncated prefix and
//! any single-bit flip therefore surfaces as a typed [`SegmentError`],
//! never a panic and never silently wrong data; the corruption suite
//! in `tests/corruption.rs` proves both exhaustively, mirroring the
//! EDXC checkpoint tests.
//!
//! Durability: [`save_to`] publishes through [`write_atomic`] — temp
//! file, fsync, rename into place, best-effort directory fsync — so a
//! crash can never publish a torn segment. The same routine publishes
//! the daemon's checkpoints, the coordinator's replicas and the CLI's
//! report artifacts.

use std::fmt;
use std::fs::{self, File};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;

use energydx::shard::{
    PartsError, SegmentParts, ShardPartial, ShardPartialParts,
};
use energydx_trace::intern::{EventId, InternedTrace};
use energydx_trace::wire;

/// Leading magic of every segment file.
pub const MAGIC: [u8; 4] = *b"EDXS";
/// Trailing magic, last four bytes of every segment file.
pub const FOOTER_MAGIC: [u8; 4] = *b"EDXF";
/// Current format version.
pub const VERSION: u8 = 1;
/// File extension segments are written with.
pub const SEGMENT_EXT: &str = "seg";

/// Header length: magic + version byte.
const HEADER_LEN: usize = 5;
/// Trailer length: footer_len u32 + footer magic.
const TRAILER_LEN: usize = 8;
/// Framing overhead per block: kind u8 + body_len u32 + crc u32.
const BLOCK_OVERHEAD: usize = 9;

/// Block kinds, in the order they appear in a segment.
const K_VOCAB: u8 = 1;
const K_RUN: u8 = 2;
const K_IDS: u8 = 3;
const K_POWERS: u8 = 4;
const K_SKIPS: u8 = 5;
const K_INDEX: u8 = 6;

/// Why a segment could not be read. Every corrupt, truncated, or
/// adversarial input maps to one of these — reading never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The underlying file operation failed.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The OS error text.
        detail: String,
    },
    /// The header or trailer magic is not a segment's.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u8),
    /// The data ends before the named field is complete.
    Truncated {
        /// The field being read when the data ran out.
        field: &'static str,
    },
    /// A block's CRC32 does not match its body.
    CrcMismatch {
        /// The block that failed the check.
        block: &'static str,
    },
    /// The data is structurally inconsistent (lengths, kinds, or
    /// counts disagree with each other).
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
    /// The decoded columns do not describe a valid partial.
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
                write!(f, "segment crc mismatch in {block} block")
            }
            SegmentError::Malformed { detail } => {
                write!(f, "malformed segment: {detail}")
            }
            SegmentError::Invalid(e) => {
                write!(f, "segment decodes to an invalid partial: {e:?}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

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

/// What [`open_meta`] recovers from a segment's footer alone: enough
/// to account for the segment (budget, checkpoint references, restore
/// validation) without reading any column data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Total traces across all runs, emptied slots included.
    pub trace_count: u64,
    /// Number of contiguous runs.
    pub runs: u32,
    /// Whole-file size in bytes.
    pub file_bytes: u64,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends one CRC-framed block and records it in the index.
fn push_block(
    out: &mut Vec<u8>,
    index: &mut Vec<(u8, u64, u64)>,
    kind: u8,
    body: &[u8],
) {
    assert!(
        body.len() <= u32::MAX as usize,
        "segment block exceeds u32 length framing"
    );
    index.push((kind, out.len() as u64, (body.len() + BLOCK_OVERHEAD) as u64));
    out.push(kind);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&wire::crc32(body).to_le_bytes());
}

/// Serializes a partial's parts into the columnar segment byte format.
///
/// The inverse of [`read_segment`]; round-trips bit-for-bit.
pub fn segment_bytes(parts: &ShardPartialParts) -> Vec<u8> {
    let mut out = Vec::new();
    let mut index: Vec<(u8, u64, u64)> = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);

    // VOCAB: the canonical (name-sorted) vocabulary.
    let mut body = Vec::new();
    body.extend_from_slice(&(parts.names.len() as u32).to_le_bytes());
    for name in &parts.names {
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
    }
    push_block(&mut out, &mut index, K_VOCAB, &body);

    let mut trace_count: u64 = 0;
    for run in &parts.segments {
        trace_count += run.traces.len() as u64;

        // RUN: global offset plus the per-trace length column, which
        // delimits the ids/powers columns that follow.
        let mut body = Vec::new();
        body.extend_from_slice(&(run.offset as u64).to_le_bytes());
        body.extend_from_slice(&(run.traces.len() as u32).to_le_bytes());
        for trace in &run.traces {
            body.extend_from_slice(&(trace.ids().len() as u32).to_le_bytes());
        }
        push_block(&mut out, &mut index, K_RUN, &body);

        // IDS: every trace's event ids, concatenated.
        let mut body = Vec::new();
        for trace in &run.traces {
            for id in trace.ids() {
                body.extend_from_slice(&(id.index() as u32).to_le_bytes());
            }
        }
        push_block(&mut out, &mut index, K_IDS, &body);

        // POWERS: every trace's powers, concatenated.
        let mut body = Vec::new();
        for trace in &run.traces {
            for p in trace.powers() {
                body.extend_from_slice(&p.to_le_bytes());
            }
        }
        push_block(&mut out, &mut index, K_POWERS, &body);

        // SKIPS: emptied-trace bookkeeping.
        let mut body = Vec::new();
        body.extend_from_slice(&(run.skipped.len() as u32).to_le_bytes());
        for &(index, nonfinite) in &run.skipped {
            body.extend_from_slice(&(index as u64).to_le_bytes());
            body.extend_from_slice(&(nonfinite as u64).to_le_bytes());
        }
        push_block(&mut out, &mut index, K_SKIPS, &body);
    }

    // INDEX footer: summary plus the block table, itself CRC-framed,
    // followed by the fixed trailer that locates it from EOF.
    let mut body = Vec::new();
    body.extend_from_slice(&trace_count.to_le_bytes());
    body.extend_from_slice(&(parts.segments.len() as u32).to_le_bytes());
    body.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for &(kind, offset, len) in &index {
        body.push(kind);
        body.extend_from_slice(&offset.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
    }
    let footer_len = (body.len() + BLOCK_OVERHEAD) as u32;
    let mut discard = Vec::new();
    push_block(&mut out, &mut discard, K_INDEX, &body);
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian cursor over a block body.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(
        &mut self,
        n: usize,
        field: &'static str,
    ) -> Result<&'a [u8], SegmentError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(SegmentError::Truncated { field })?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, SegmentError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, SegmentError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, SegmentError> {
        let b = self.take(8, field)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn finish(self, block: &'static str) -> Result<(), SegmentError> {
        if self.pos != self.data.len() {
            return Err(SegmentError::malformed(format!(
                "{block} block has {} trailing bytes",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// One footer-index entry: where a block lives in the file.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    kind: u8,
    offset: usize,
    len: usize,
}

/// The parsed footer: summary counts plus the block table.
struct Footer {
    trace_count: u64,
    runs: u32,
    entries: Vec<IndexEntry>,
}

fn usize_of(v: u64, what: &str) -> Result<usize, SegmentError> {
    usize::try_from(v)
        .map_err(|_| SegmentError::malformed(format!("{what} overflows")))
}

/// Checks the header magic/version and returns nothing else.
fn check_header(bytes: &[u8]) -> Result<(), SegmentError> {
    if bytes.len() < HEADER_LEN {
        return Err(SegmentError::Truncated { field: "header" });
    }
    if bytes[..4] != MAGIC {
        return Err(SegmentError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(SegmentError::UnsupportedVersion(bytes[4]));
    }
    Ok(())
}

/// Locates the footer block from the trailer and returns its byte
/// range within the file.
fn footer_range(
    file_len: usize,
    trailer: &[u8; 8],
) -> Result<(usize, usize), SegmentError> {
    if trailer[4..] != FOOTER_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let footer_len = usize_of(
        u64::from(u32::from_le_bytes(trailer[..4].try_into().expect("4"))),
        "footer length",
    )?;
    if footer_len < BLOCK_OVERHEAD {
        return Err(SegmentError::malformed("footer shorter than a block"));
    }
    let trailer_start = file_len - TRAILER_LEN;
    let footer_start = trailer_start
        .checked_sub(footer_len)
        .filter(|&s| s >= HEADER_LEN)
        .ok_or(SegmentError::Truncated { field: "footer" })?;
    Ok((footer_start, trailer_start))
}

/// Verifies one block's framing against its index entry and returns
/// the body slice. `bytes` is the whole file.
fn block_body<'a>(
    bytes: &'a [u8],
    entry: IndexEntry,
    expect_kind: u8,
    name: &'static str,
) -> Result<&'a [u8], SegmentError> {
    let end = entry
        .offset
        .checked_add(entry.len)
        .filter(|&e| e <= bytes.len())
        .ok_or(SegmentError::Truncated { field: "block" })?;
    if entry.len < BLOCK_OVERHEAD {
        return Err(SegmentError::malformed(format!(
            "{name} block shorter than its framing"
        )));
    }
    let block = &bytes[entry.offset..end];
    if entry.kind != expect_kind || block[0] != expect_kind {
        return Err(SegmentError::malformed(format!(
            "expected {name} block, found kind {} (index kind {})",
            block[0], entry.kind
        )));
    }
    let body_len =
        u32::from_le_bytes(block[1..5].try_into().expect("4 bytes")) as usize;
    if body_len != entry.len - BLOCK_OVERHEAD {
        return Err(SegmentError::malformed(format!(
            "{name} block length disagrees with the index"
        )));
    }
    let body = &block[5..5 + body_len];
    let crc =
        u32::from_le_bytes(block[5 + body_len..].try_into().expect("4 bytes"));
    if wire::crc32(body) != crc {
        return Err(SegmentError::CrcMismatch { block: name });
    }
    Ok(body)
}

/// Parses and CRC-checks the footer block body into the block table.
fn parse_footer_body(
    body: &[u8],
    file_len: usize,
) -> Result<Footer, SegmentError> {
    let mut c = Cursor::new(body);
    let trace_count = c.u64("footer trace count")?;
    let runs = c.u32("footer run count")?;
    let entry_count = c.u32("footer entry count")? as usize;
    if entry_count != 1 + 4 * runs as usize {
        return Err(SegmentError::malformed(
            "footer entry count disagrees with run count",
        ));
    }
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let kind = c.take(1, "index entry kind")?[0];
        let offset = usize_of(c.u64("index entry offset")?, "block offset")?;
        let len = usize_of(c.u64("index entry length")?, "block length")?;
        entries.push(IndexEntry { kind, offset, len });
    }
    c.finish("index")?;
    // The entries must tile the file contiguously from the header on:
    // any gap would be bytes no check covers. Callers additionally
    // verify the last entry ends exactly where the footer begins.
    let mut expected = HEADER_LEN;
    for e in &entries {
        if e.offset != expected {
            return Err(SegmentError::malformed(
                "index entries do not tile the file",
            ));
        }
        expected = e
            .offset
            .checked_add(e.len)
            .filter(|&end| end <= file_len)
            .ok_or_else(|| {
            SegmentError::malformed("block range overflows")
        })?;
    }
    Ok(Footer {
        trace_count,
        runs,
        entries,
    })
}

/// Parses a whole in-memory segment's footer.
fn read_footer(bytes: &[u8]) -> Result<Footer, SegmentError> {
    check_header(bytes)?;
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(SegmentError::Truncated { field: "trailer" });
    }
    let trailer: [u8; 8] = bytes[bytes.len() - TRAILER_LEN..]
        .try_into()
        .expect("8 bytes");
    let (footer_start, trailer_start) = footer_range(bytes.len(), &trailer)?;
    let entry = IndexEntry {
        kind: K_INDEX,
        offset: footer_start,
        len: trailer_start - footer_start,
    };
    let body = block_body(bytes, entry, K_INDEX, "index")?;
    let footer = parse_footer_body(body, bytes.len())?;
    // The block table must end exactly where the footer begins.
    let covered = footer
        .entries
        .last()
        .map(|e| e.offset + e.len)
        .unwrap_or(HEADER_LEN);
    if covered != footer_start {
        return Err(SegmentError::malformed(
            "index entries do not reach the footer",
        ));
    }
    Ok(footer)
}

/// Decodes the columnar byte format back into parts.
///
/// Every block is CRC-verified and the footer index must tile the file
/// exactly; see the module docs for the corruption guarantees.
///
/// # Errors
///
/// Any structural damage yields a typed [`SegmentError`].
pub fn read_segment(bytes: &[u8]) -> Result<ShardPartialParts, SegmentError> {
    let footer = read_footer(bytes)?;
    let mut entries = footer.entries.iter().copied();

    // VOCAB.
    let entry = entries
        .next()
        .ok_or_else(|| SegmentError::malformed("missing vocab block"))?;
    let body = block_body(bytes, entry, K_VOCAB, "vocab")?;
    let mut c = Cursor::new(body);
    let name_count = c.u32("vocab count")? as usize;
    let mut names = Vec::with_capacity(name_count.min(body.len()));
    for _ in 0..name_count {
        let len = c.u32("name length")? as usize;
        let raw = c.take(len, "name bytes")?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| SegmentError::malformed("name is not UTF-8"))?;
        names.push(name.to_string());
    }
    c.finish("vocab")?;

    // One RUN/IDS/POWERS/SKIPS quartet per run.
    let mut segments = Vec::with_capacity(footer.runs as usize);
    let mut total: u64 = 0;
    for _ in 0..footer.runs {
        let entry = entries
            .next()
            .ok_or_else(|| SegmentError::malformed("missing run block"))?;
        let body = block_body(bytes, entry, K_RUN, "run")?;
        let mut c = Cursor::new(body);
        let offset = usize_of(c.u64("run offset")?, "run offset")?;
        let count = c.u32("run trace count")? as usize;
        let mut lengths = Vec::with_capacity(count.min(body.len()));
        let mut instances: usize = 0;
        for _ in 0..count {
            let len = c.u32("trace length")? as usize;
            instances = instances.checked_add(len).ok_or_else(|| {
                SegmentError::malformed("instance count overflows")
            })?;
            lengths.push(len);
        }
        c.finish("run")?;

        let entry = entries
            .next()
            .ok_or_else(|| SegmentError::malformed("missing ids block"))?;
        let ids_body = block_body(bytes, entry, K_IDS, "ids")?;
        if ids_body.len() != instances * 4 {
            return Err(SegmentError::malformed(
                "ids column length disagrees with the length column",
            ));
        }

        let entry = entries
            .next()
            .ok_or_else(|| SegmentError::malformed("missing powers block"))?;
        let powers_body = block_body(bytes, entry, K_POWERS, "powers")?;
        if powers_body.len() != instances * 8 {
            return Err(SegmentError::malformed(
                "powers column length disagrees with the length column",
            ));
        }

        let entry = entries
            .next()
            .ok_or_else(|| SegmentError::malformed("missing skips block"))?;
        let skips_body = block_body(bytes, entry, K_SKIPS, "skips")?;
        let mut c = Cursor::new(skips_body);
        let skip_count = c.u32("skip count")? as usize;
        let mut skipped = Vec::with_capacity(skip_count.min(skips_body.len()));
        for _ in 0..skip_count {
            let index = usize_of(c.u64("skip index")?, "skip index")?;
            let nonfinite = usize_of(c.u64("skip nonfinite")?, "skip count")?;
            skipped.push((index, nonfinite));
        }
        c.finish("skips")?;

        // Rebuild the traces from the three columns.
        let mut ids_c = Cursor::new(ids_body);
        let mut powers_c = Cursor::new(powers_body);
        let mut traces = Vec::with_capacity(count);
        for &len in &lengths {
            let mut ids = Vec::with_capacity(len);
            let mut powers = Vec::with_capacity(len);
            for _ in 0..len {
                ids.push(EventId::from_index(ids_c.u32("id")? as usize));
                let p = powers_c.f64("power")?;
                if !p.is_finite() {
                    return Err(SegmentError::malformed(
                        "non-finite power in column",
                    ));
                }
                powers.push(p);
            }
            let trace = InternedTrace::from_columns(ids, powers)
                .expect("columns built with equal lengths");
            traces.push(trace);
        }
        total += count as u64;
        segments.push(SegmentParts {
            offset,
            traces,
            skipped,
        });
    }
    if total != footer.trace_count {
        return Err(SegmentError::malformed(
            "run trace counts disagree with the footer",
        ));
    }
    Ok(ShardPartialParts { names, segments })
}

/// Decodes a segment and validates it into a [`ShardPartial`].
///
/// # Errors
///
/// Structural damage yields the reader's typed error; columns that
/// decode but do not describe a valid partial yield
/// [`SegmentError::Invalid`].
pub fn read_partial(bytes: &[u8]) -> Result<ShardPartial, SegmentError> {
    let parts = read_segment(bytes)?;
    ShardPartial::from_parts(parts).map_err(SegmentError::Invalid)
}

/// Reads only the footer of an in-memory segment.
///
/// # Errors
///
/// Same taxonomy as [`read_segment`], but only header/trailer/footer
/// damage is observable.
pub fn peek_meta(bytes: &[u8]) -> Result<SegmentMeta, SegmentError> {
    let footer = read_footer(bytes)?;
    Ok(SegmentMeta {
        trace_count: footer.trace_count,
        runs: footer.runs,
        file_bytes: bytes.len() as u64,
    })
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

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
/// contents surface with the byte reader's taxonomy.
pub fn load_from(path: &Path) -> Result<ShardPartial, SegmentError> {
    let bytes =
        fs::read(path).map_err(|e| SegmentError::io("read segment", &e))?;
    read_partial(&bytes)
}

/// Opens a segment file and reads only its header and footer — the
/// column blocks are never touched, so this is O(footer) regardless of
/// how many traces the segment holds.
///
/// # Errors
///
/// File-system failures surface as [`SegmentError::Io`]; a damaged
/// header, trailer, or footer surfaces with the reader's taxonomy.
pub fn open_meta(path: &Path) -> Result<SegmentMeta, SegmentError> {
    let mut file =
        File::open(path).map_err(|e| SegmentError::io("open segment", &e))?;
    let file_len = file
        .metadata()
        .map_err(|e| SegmentError::io("stat segment", &e))?
        .len();
    let file_len = usize_of(file_len, "file length")?;
    if file_len < HEADER_LEN + TRAILER_LEN {
        return Err(SegmentError::Truncated { field: "trailer" });
    }
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|e| SegmentError::io("read header", &e))?;
    check_header(&header)?;
    let mut trailer = [0u8; TRAILER_LEN];
    file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))
        .map_err(|e| SegmentError::io("seek trailer", &e))?;
    file.read_exact(&mut trailer)
        .map_err(|e| SegmentError::io("read trailer", &e))?;
    let (footer_start, trailer_start) = footer_range(file_len, &trailer)?;
    let footer_len = trailer_start - footer_start;
    let mut block = vec![0u8; footer_len];
    file.seek(SeekFrom::Start(footer_start as u64))
        .map_err(|e| SegmentError::io("seek footer", &e))?;
    file.read_exact(&mut block)
        .map_err(|e| SegmentError::io("read footer", &e))?;
    // Verify the footer block in place (offsets are file-relative, so
    // hand `block_body` a zero-based entry over the block slice).
    let entry = IndexEntry {
        kind: K_INDEX,
        offset: 0,
        len: footer_len,
    };
    let body = block_body(&block, entry, K_INDEX, "index")?;
    let footer = parse_footer_body(body, file_len)?;
    let covered = footer
        .entries
        .last()
        .map(|e| e.offset + e.len)
        .unwrap_or(HEADER_LEN);
    if covered != footer_start {
        return Err(SegmentError::malformed(
            "index entries do not reach the footer",
        ));
    }
    Ok(SegmentMeta {
        trace_count: footer.trace_count,
        runs: footer.runs,
        file_bytes: file_len as u64,
    })
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
        assert_eq!(read_segment(&bytes).unwrap(), parts);
        let meta = peek_meta(&bytes).unwrap();
        assert_eq!(meta.trace_count, 0);
        assert_eq!(meta.runs, 0);
    }

    #[test]
    fn peek_meta_matches_the_full_read() {
        let partial = sample_partial();
        let bytes = segment_bytes(&partial.to_parts());
        let meta = peek_meta(&bytes).unwrap();
        assert_eq!(meta.trace_count, partial.trace_count() as u64);
        assert_eq!(meta.runs, 1);
        assert_eq!(meta.file_bytes, bytes.len() as u64);
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
