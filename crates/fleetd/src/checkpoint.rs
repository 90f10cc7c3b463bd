//! Crash-safe checkpointing of [`FleetState`].
//!
//! The format mirrors wire v2's defensive layout: magic, a version
//! byte, an explicit body length, and a CRC32 over the body — so a
//! half-written file, a truncated disk, or a flipped bit surfaces as a
//! typed [`CheckpointError`], never a panic or a silently-wrong
//! analysis. Partials are serialized through
//! [`ShardPartial::to_parts`] and re-validated on the way back in with
//! [`ShardPartial::from_parts`], which rebuilds the derived group
//! tables and rejects any structurally impossible state.
//!
//! ```text
//! magic "EDXC" | version u8 = 3 | body_len u32 | body | crc32(body)
//! ```
//!
//! Each epoch's resident traces are written as the state holds them:
//! one partial per maximal same-release run, which ingestion keeps
//! maximal by extending the last run in place, so the on-disk size is
//! independent of how bursty ingestion was.
//! [`save_to`] writes a temp file, fsyncs it and renames it over the
//! old checkpoint, so a crash or power loss mid-write leaves the
//! previous checkpoint intact.
//!
//! Version 2 adds spill metadata: the state's next segment sequence
//! number and, per epoch, references to the spilled runs (sequence
//! number, trace count, file size). The segment *data* stays in its
//! own CRC-framed files; [`load_from`] re-opens every referenced
//! segment's footer, rejects any disagreement, and garbage-collects
//! unreferenced segment files (their traces are still resident inside
//! the checkpoint being restored). Version 1 files — no spill
//! metadata — still restore.
//!
//! Version 3 adds app releases: each spilled run carries the version
//! its traces were uploaded under plus its global start offset, and
//! the resident state is written as one partial per maximal
//! same-version run instead of a single epoch-wide fold. Version 1
//! and 2 files still restore, as a single implicit version `""` —
//! exactly how a version-blind daemon's state reads under the
//! versioned model. Restore appends the runs it reads the way
//! ingestion does, so adjacent same-release runs come back merged and
//! the restored runs are maximal whatever wrote the file.
//!
//! [`ShardPartial::to_parts`]: energydx::shard::ShardPartial::to_parts
//! [`ShardPartial::from_parts`]: energydx::shard::ShardPartial::from_parts

use crate::codec::{CodecError, Reader, Writer};
use crate::spill::{self, SpilledRun};
use crate::state::{AppState, EpochState, FleetConfig, FleetState};
use energydx::shard::{SegmentParts, ShardPartial, ShardPartialParts};
use energydx_obsv::{EventKind, MetricsRegistry};
use energydx_trace::intern::{EventId, InternedTrace};
use energydx_trace::store::{QuarantineEntry, RejectReason};
use energydx_trace::wire;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"EDXC";
const VERSION: u8 = 3;
/// Oldest version [`restore_bytes`] still reads.
const MIN_VERSION: u8 = 1;
/// File name inside the state directory.
pub const CHECKPOINT_FILE: &str = "fleet.ckpt";

/// Why a checkpoint could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message of the underlying error).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The version byte names a format this build does not speak.
    UnsupportedVersion(u8),
    /// The file ends before the framed body and trailer do.
    Truncated,
    /// The body's CRC32 does not match its trailer.
    CrcMismatch,
    /// The frame is intact but its content is inconsistent.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::BadMagic => {
                f.write_str("not a checkpoint file (bad magic)")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => {
                f.write_str("checkpoint file is truncated")
            }
            CheckpointError::CrcMismatch => {
                f.write_str("checkpoint body fails its CRC32 check")
            }
            CheckpointError::Malformed(detail) => {
                write!(f, "malformed checkpoint: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    // Inside a CRC-validated body an underrun means a length field
    // lies, which is malformed content rather than file truncation.
    fn from(e: CodecError) -> Self {
        CheckpointError::Malformed(e.to_string())
    }
}

fn reason_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::Undecodable => 0,
        RejectReason::OutOfOrderBeyondRepair => 1,
        RejectReason::UnmatchedBeyondRepair => 2,
        RejectReason::Duplicate => 3,
        RejectReason::Invalid => 4,
    }
}

fn reason_from_code(code: u8) -> Result<RejectReason, CheckpointError> {
    Ok(match code {
        0 => RejectReason::Undecodable,
        1 => RejectReason::OutOfOrderBeyondRepair,
        2 => RejectReason::UnmatchedBeyondRepair,
        3 => RejectReason::Duplicate,
        4 => RejectReason::Invalid,
        other => {
            return Err(CheckpointError::Malformed(format!(
                "unknown reject reason code {other}"
            )))
        }
    })
}

/// Serializes the whole fleet state to a framed checkpoint.
pub fn checkpoint_bytes(state: &FleetState) -> Vec<u8> {
    let mut body = Writer::new();
    body.u64(state.next_spill_seq);
    body.u32(state.apps.len() as u32);
    for (app, a) in &state.apps {
        body.str(app);
        body.u64(a.current_epoch);
        body.u32(a.epochs.len() as u32);
        for (&id, e) in &a.epochs {
            body.u64(id);
            body.u64(e.trace_count as u64);
            body.u64(e.clean as u64);
            body.u64(e.recovered as u64);
            body.u32(e.seen.len() as u32);
            for (user, session) in &e.seen {
                body.str(user);
                body.u64(*session);
            }
            body.u32(e.quarantine.len() as u32);
            for entry in &e.quarantine {
                body.u8(reason_code(entry.reason));
                match &entry.user {
                    Some(user) => {
                        body.u8(1);
                        body.str(user);
                    }
                    None => body.u8(0),
                }
                match entry.session {
                    Some(s) => {
                        body.u8(1);
                        body.u64(s);
                    }
                    None => body.u8(0),
                }
                body.str(&entry.detail);
            }
            body.u32(e.spilled.len() as u32);
            for run in &e.spilled {
                body.u64(run.seq);
                body.u64(run.traces as u64);
                body.u64(run.bytes);
                body.str(&run.version);
                body.u64(run.start as u64);
            }
            // Resident state: the runs as they are, one partial per
            // maximal same-version run, so each release's traces stay
            // separable on restore.
            body.u32(e.runs.len() as u32);
            for run in &e.runs {
                body.str(&run.version);
                write_partial(&mut body, &run.partial);
            }
        }
    }
    let body = body.into_vec();
    let mut out = Writer::new();
    out.u8(MAGIC[0]);
    out.u8(MAGIC[1]);
    out.u8(MAGIC[2]);
    out.u8(MAGIC[3]);
    out.u8(VERSION);
    out.u32(body.len() as u32);
    let mut framed = out.into_vec();
    framed.extend_from_slice(&body);
    framed.extend_from_slice(&wire::crc32(&body).to_le_bytes());
    let metrics = state.metrics();
    metrics.set_gauge("fleetd_checkpoint_size_bytes", &[], framed.len() as f64);
    metrics.inc("fleetd_checkpoint_saves_total", &[]);
    metrics.event(
        EventKind::CheckpointSave,
        format!("bytes={} apps={}", framed.len(), state.apps.len()),
    );
    framed
}

/// Serializes one partial with the checkpoint's column layout. Shared
/// with the cluster protocol's `Response::Partial`, so a partial that
/// round-trips through a checkpoint and one that crosses the wire are
/// the same bytes.
pub(crate) fn write_partial(w: &mut Writer, partial: &ShardPartial) {
    let parts = partial.to_parts();
    w.u32(parts.names.len() as u32);
    for name in &parts.names {
        w.str(name);
    }
    w.u32(parts.segments.len() as u32);
    for seg in &parts.segments {
        w.u64(seg.offset as u64);
        w.u32(seg.traces.len() as u32);
        for trace in &seg.traces {
            w.u32(trace.ids().len() as u32);
            for id in trace.ids() {
                w.u32(id.index() as u32);
            }
            for &p in trace.powers() {
                w.f64(p);
            }
        }
        w.u32(seg.skipped.len() as u32);
        for &(index, count) in &seg.skipped {
            w.u64(index as u64);
            w.u64(count as u64);
        }
    }
}

/// Inverse of [`write_partial`]; every length is validated against the
/// remaining input before use and the result re-checked by
/// `ShardPartial::from_parts`.
pub(crate) fn read_partial(
    r: &mut Reader<'_>,
) -> Result<ShardPartial, CheckpointError> {
    let name_count = r.u32("vocab count")? as usize;
    let mut names = Vec::with_capacity(name_count.min(1 << 16));
    for _ in 0..name_count {
        names.push(r.str("vocab name")?);
    }
    let seg_count = r.u32("segment count")? as usize;
    let mut segments = Vec::with_capacity(seg_count.min(1 << 16));
    for _ in 0..seg_count {
        let offset = r.usize("segment offset")?;
        let trace_count = r.u32("segment trace count")? as usize;
        let mut traces = Vec::with_capacity(trace_count.min(1 << 16));
        for _ in 0..trace_count {
            let len = r.u32("trace length")? as usize;
            let mut ids = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                ids.push(EventId::from_index(r.u32("event id")? as usize));
            }
            let mut powers = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                powers.push(r.f64("power")?);
            }
            traces.push(InternedTrace::from_columns(ids, powers).ok_or_else(
                || {
                    CheckpointError::Malformed(
                        "trace column lengths disagree".to_string(),
                    )
                },
            )?);
        }
        let skip_count = r.u32("skip count")? as usize;
        let mut skipped = Vec::with_capacity(skip_count.min(1 << 16));
        for _ in 0..skip_count {
            let index = r.usize("skip index")?;
            let count = r.usize("skip value count")?;
            skipped.push((index, count));
        }
        segments.push(SegmentParts {
            offset,
            traces,
            skipped,
        });
    }
    ShardPartial::from_parts(ShardPartialParts { names, segments })
        .map_err(|e| CheckpointError::Malformed(e.to_string()))
}

/// Restores a fleet state from checkpoint bytes, re-validating every
/// partial. The runtime `config` is supplied by the caller: analysis
/// parameters are deployment configuration, not data.
///
/// # Errors
///
/// Any frame or content problem maps to the matching
/// [`CheckpointError`]; no input panics.
pub fn restore_bytes(
    data: &[u8],
    config: FleetConfig,
) -> Result<FleetState, CheckpointError> {
    restore_bytes_with(data, config, Arc::new(MetricsRegistry::new()))
}

/// [`restore_bytes`], recording into the given registry instead of a
/// fresh env-derived one — so a restored daemon can keep the
/// deterministic registry its predecessor ran under (the golden tests'
/// hook, and the harness's stand-in for `ENERGYDX_DETERMINISTIC_TIME`).
///
/// # Errors
///
/// Same as [`restore_bytes`].
pub fn restore_bytes_with(
    data: &[u8],
    config: FleetConfig,
    registry: Arc<MetricsRegistry>,
) -> Result<FleetState, CheckpointError> {
    if data.len() < 4 {
        return Err(CheckpointError::Truncated);
    }
    if &data[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if data.len() < 9 {
        return Err(CheckpointError::Truncated);
    }
    let version = data[4];
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let body_len = u32::from_le_bytes(data[5..9].try_into().unwrap()) as usize;
    let Some(total) = body_len.checked_add(13) else {
        return Err(CheckpointError::Truncated);
    };
    if data.len() < total {
        return Err(CheckpointError::Truncated);
    }
    if data.len() > total {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing byte(s) after the checkpoint frame",
            data.len() - total
        )));
    }
    let body = &data[9..9 + body_len];
    let crc = u32::from_le_bytes(data[9 + body_len..total].try_into().unwrap());
    if wire::crc32(body) != crc {
        return Err(CheckpointError::CrcMismatch);
    }

    let mut r = Reader::new(body);
    let mut state = FleetState::with_registry(config, registry);
    let next_spill_seq = if version >= 2 {
        r.u64("next spill sequence")?
    } else {
        0
    };
    state.next_spill_seq = next_spill_seq;
    let mut referenced_seqs = BTreeSet::new();
    let app_count = r.u32("app count")? as usize;
    for _ in 0..app_count {
        let name = r.str("app name")?;
        let current_epoch = r.u64("current epoch")?;
        let epoch_count = r.u32("epoch count")? as usize;
        let mut epochs = BTreeMap::new();
        for _ in 0..epoch_count {
            let id = r.u64("epoch id")?;
            let trace_count = r.usize("trace count")?;
            let clean = r.usize("clean count")?;
            let recovered = r.usize("recovered count")?;
            let seen_count = r.u32("seen count")? as usize;
            let mut seen = BTreeSet::new();
            for _ in 0..seen_count {
                let user = r.str("seen user")?;
                let session = r.u64("seen session")?;
                seen.insert((user, session));
            }
            let q_count = r.u32("quarantine count")? as usize;
            let mut quarantine = Vec::with_capacity(q_count.min(1 << 16));
            for _ in 0..q_count {
                let reason = reason_from_code(r.u8("reject reason")?)?;
                let user = if r.u8("user flag")? != 0 {
                    Some(r.str("quarantined user")?)
                } else {
                    None
                };
                let session = if r.u8("session flag")? != 0 {
                    Some(r.u64("quarantined session")?)
                } else {
                    None
                };
                let detail = r.str("quarantine detail")?;
                quarantine.push(QuarantineEntry {
                    reason,
                    user,
                    session,
                    detail,
                });
            }
            let mut spilled = Vec::new();
            if version >= 2 {
                let run_count = r.u32("spilled run count")? as usize;
                let mut run_start = 0;
                for _ in 0..run_count {
                    let seq = r.u64("spilled run sequence")?;
                    let traces = r.usize("spilled run trace count")?;
                    let bytes = r.u64("spilled run byte count")?;
                    // Pre-version files carry no release stamps: the
                    // whole run belongs to the single implicit
                    // version, starting where its predecessors end.
                    let (run_version, start) = if version >= 3 {
                        (
                            r.str("spilled run version")?,
                            r.usize("spilled run start")?,
                        )
                    } else {
                        (String::new(), run_start)
                    };
                    if start != run_start {
                        return Err(CheckpointError::Malformed(format!(
                            "spilled run {seq} claims start offset {start} \
                             but its predecessors cover {run_start} trace(s)"
                        )));
                    }
                    run_start += traces;
                    if seq >= next_spill_seq {
                        return Err(CheckpointError::Malformed(format!(
                            "spilled run sequence {seq} is not below the \
                             next sequence number {next_spill_seq}"
                        )));
                    }
                    if !referenced_seqs.insert(seq) {
                        return Err(CheckpointError::Malformed(format!(
                            "spilled run sequence {seq} is referenced twice"
                        )));
                    }
                    spilled.push(SpilledRun {
                        seq,
                        traces,
                        bytes,
                        version: run_version,
                        start,
                    });
                }
            }
            if !spilled.is_empty() && state.config.spill.is_none() {
                return Err(CheckpointError::Malformed(
                    "checkpoint references spilled segment(s) but no spill \
                     directory is configured"
                        .to_string(),
                ));
            }
            let spilled_traces: usize =
                spilled.iter().map(SpilledRun::traces).sum();
            let mut runs = Vec::new();
            if version >= 3 {
                let run_count = r.u32("resident run count")? as usize;
                for _ in 0..run_count {
                    let run_version = r.str("resident run version")?;
                    runs.push((run_version, read_partial(&mut r)?));
                }
            } else {
                let partial = read_partial(&mut r)?;
                if !partial.is_empty() {
                    runs.push((String::new(), partial));
                }
            }
            let mut epoch = EpochState {
                trace_count,
                seen,
                clean,
                recovered,
                quarantine,
                spilled,
                // Generations are scheduling state, scoped to one
                // incarnation — a restored state starts a fresh one,
                // so old tokens can never validate against it.
                generation: 0,
                ..EpochState::default()
            };
            let mut expected = spilled_traces;
            let mut resident_traces = 0;
            for (run_version, partial) in runs {
                // Each run must continue where its predecessors end,
                // without gaps, so appending it (and every later
                // upload, mapped at `trace_count`) stays contiguous.
                let (start, end) =
                    (partial.start_offset(), partial.end_offset());
                if start != expected || end - start != partial.trace_count() {
                    return Err(CheckpointError::Malformed(format!(
                        "epoch {id}'s resident runs do not tile: a run of \
                         {} trace(s) spans [{start}, {end}) where \
                         {expected} trace(s) precede it",
                        partial.trace_count()
                    )));
                }
                expected = end;
                resident_traces += partial.trace_count();
                epoch.append(run_version, partial);
            }
            if resident_traces + spilled_traces != trace_count {
                return Err(CheckpointError::Malformed(format!(
                    "epoch {id} claims {trace_count} trace(s) but its \
                     resident partial(s) cover {resident_traces} and its \
                     spilled runs {spilled_traces}"
                )));
            }
            epochs.insert(id, epoch);
        }
        state.apps.insert(
            name,
            AppState {
                current_epoch,
                epochs,
            },
        );
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} unread byte(s) at the end of the body",
            r.remaining()
        )));
    }
    let metrics = state.metrics();
    metrics.inc("fleetd_checkpoint_loads_total", &[]);
    metrics.event(
        EventKind::CheckpointLoad,
        format!("bytes={} apps={}", data.len(), state.apps.len()),
    );
    Ok(state)
}

/// Writes the checkpoint into `dir` (created if missing), published
/// as [`CHECKPOINT_FILE`] through [`energydx_segment::write_atomic`]:
/// a power loss leaves the previous checkpoint or the new one, never
/// a torn file that would refuse the next start. Returns the final
/// path.
///
/// # Errors
///
/// [`CheckpointError::Io`] on any filesystem failure.
pub fn save_to(
    state: &FleetState,
    dir: &Path,
) -> Result<PathBuf, CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
    std::fs::create_dir_all(dir).map_err(io)?;
    let final_path = dir.join(CHECKPOINT_FILE);
    energydx_segment::write_atomic(&final_path, &checkpoint_bytes(state))
        .map_err(io)?;
    Ok(final_path)
}

/// Loads the checkpoint from `dir`, or `Ok(None)` when none exists
/// yet (a fresh daemon). When the restored state references spilled
/// segments, every referenced file's footer is re-opened and checked
/// against the checkpoint's record — a daemon must refuse state it
/// cannot trust — and unreferenced segment files (spilled after the
/// checkpoint was written, so their traces are still resident inside
/// it) are garbage-collected.
///
/// # Errors
///
/// Propagates frame/content errors from [`restore_bytes`], I/O
/// failures other than the checkpoint being absent, and any missing,
/// damaged, or disagreeing spilled segment.
pub fn load_from(
    dir: &Path,
    config: FleetConfig,
) -> Result<Option<FleetState>, CheckpointError> {
    load_from_with(dir, config, Arc::new(MetricsRegistry::new()))
}

/// [`load_from`], recording into the given registry instead of a fresh
/// env-derived one. See [`restore_bytes_with`].
///
/// # Errors
///
/// Same as [`load_from`].
pub fn load_from_with(
    dir: &Path,
    config: FleetConfig,
    registry: Arc<MetricsRegistry>,
) -> Result<Option<FleetState>, CheckpointError> {
    let path = dir.join(CHECKPOINT_FILE);
    let data = match std::fs::read(&path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io(e.to_string())),
    };
    let state = restore_bytes_with(&data, config, registry)?;
    if let Some(cfg) = state.config().spill.clone() {
        let mut live = BTreeSet::new();
        for a in state.apps.values() {
            for e in a.epochs.values() {
                for run in &e.spilled {
                    let seg = spill::segment_path(&cfg.dir, run.seq);
                    let meta =
                        energydx_segment::open_meta(&seg).map_err(|err| {
                            match err {
                                energydx_segment::SegmentError::Io {
                                    ..
                                } => CheckpointError::Io(format!(
                                    "spilled segment {}: {err}",
                                    seg.display()
                                )),
                                other => CheckpointError::Malformed(format!(
                                    "spilled segment {}: {other}",
                                    seg.display()
                                )),
                            }
                        })?;
                    if meta.trace_count != run.traces as u64 {
                        return Err(CheckpointError::Malformed(format!(
                            "spilled segment {} covers {} trace(s) but the \
                             checkpoint records {}",
                            seg.display(),
                            meta.trace_count,
                            run.traces
                        )));
                    }
                    live.insert(run.seq);
                }
            }
        }
        let removed = spill::gc_orphans(&cfg.dir, &live);
        if removed > 0 {
            state.metrics().add(
                "fleetd_spill_orphans_removed_total",
                &[],
                removed as u64,
            );
        }
    }
    Ok(Some(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{payload, payload_versioned};
    use crate::spill::SpillConfig;
    use std::path::Path;

    /// The frozen version-1 layout (no spill metadata), byte for byte
    /// as PR 6 wrote it — the compatibility surface `restore_bytes`
    /// must keep reading.
    fn v1_bytes(state: &FleetState) -> Vec<u8> {
        let mut body = Writer::new();
        body.u32(state.apps.len() as u32);
        for (app, a) in &state.apps {
            body.str(app);
            body.u64(a.current_epoch);
            body.u32(a.epochs.len() as u32);
            for (&id, e) in &a.epochs {
                assert!(
                    e.spilled.is_empty(),
                    "version 1 cannot describe spilled runs"
                );
                body.u64(id);
                body.u64(e.trace_count as u64);
                body.u64(e.clean as u64);
                body.u64(e.recovered as u64);
                body.u32(e.seen.len() as u32);
                for (user, session) in &e.seen {
                    body.str(user);
                    body.u64(*session);
                }
                body.u32(e.quarantine.len() as u32);
                for entry in &e.quarantine {
                    body.u8(reason_code(entry.reason));
                    match &entry.user {
                        Some(user) => {
                            body.u8(1);
                            body.str(user);
                        }
                        None => body.u8(0),
                    }
                    match entry.session {
                        Some(s) => {
                            body.u8(1);
                            body.u64(s);
                        }
                        None => body.u8(0),
                    }
                    body.str(&entry.detail);
                }
                write_partial(&mut body, &e.folded());
            }
        }
        let body = body.into_vec();
        let mut out = Writer::new();
        out.u8(MAGIC[0]);
        out.u8(MAGIC[1]);
        out.u8(MAGIC[2]);
        out.u8(MAGIC[3]);
        out.u8(1);
        out.u32(body.len() as u32);
        let mut framed = out.into_vec();
        framed.extend_from_slice(&body);
        framed.extend_from_slice(&wire::crc32(&body).to_le_bytes());
        framed
    }

    #[test]
    fn version_1_checkpoints_still_restore() {
        let mut state = FleetState::new(FleetConfig::default());
        for s in 0..4 {
            state.submit("app", &payload("u", s));
        }
        state.submit("app", &[0xAB; 8]); // one quarantined upload too
        state.rollover("app");
        state.submit("app", &payload("u", 9));
        let old = v1_bytes(&state);
        assert_eq!(old[4], 1);
        let restored =
            restore_bytes(&old, FleetConfig::default()).expect("v1 restores");
        assert_eq!(restored.next_spill_seq, 0);
        for epoch in [Some(0), Some(1)] {
            assert_eq!(
                restored.diagnose_json("app", epoch).unwrap(),
                state.diagnose_json("app", epoch).unwrap()
            );
        }
        // Every upload was unversioned, so each live epoch is one run,
        // exactly what the single v1 partial restores to.
        assert_eq!(restored.stats_json(), state.stats_json());
        assert_eq!(restored.apps(), state.apps());
    }

    /// Restore leaves maximal same-release runs whatever wrote the
    /// file: one implicit-version run from v1 and v2, the writer's runs
    /// from v3 — also when a v3 file splits one release's run in two,
    /// which restore merges back — and later uploads keep extending
    /// them.
    #[test]
    fn restored_resident_runs_are_maximal() {
        let dir = std::env::temp_dir()
            .join(format!("energydx-ckpt-maximal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilling = FleetConfig {
            spill: Some(SpillConfig {
                dir: dir.clone(),
                mem_budget: usize::MAX,
            }),
            ..FleetConfig::default()
        };
        let mut state = FleetState::new(spilling.clone());
        for s in 0..4 {
            state.submit("app", &payload("u", s));
        }
        state.spill_all();
        state.submit("app", &payload("u", 4));
        let blind = restore_bytes(&v2_bytes(&state), spilling.clone())
            .expect("v2 restores");
        crate::state::tests::assert_runs_maximal(&blind);
        assert_eq!(blind.apps(), state.apps());

        let mut fresh = FleetState::new(FleetConfig::default());
        for s in 0..3 {
            fresh.submit("app", &payload("u", s));
        }
        let old = restore_bytes(&v1_bytes(&fresh), FleetConfig::default())
            .expect("v1 restores");
        crate::state::tests::assert_runs_maximal(&old);

        for (s, version) in ["1.9.0", "1.9.0", "2.0.0", "", "2.0.0", "2.0.0"]
            .into_iter()
            .enumerate()
        {
            let upload = payload_versioned("v", s as u64, version);
            state.submit("app", &upload);
        }
        let bytes = checkpoint_bytes(&state);
        let restored = restore_bytes(&bytes, spilling.clone()).unwrap();
        crate::state::tests::assert_runs_maximal(&restored);
        assert_eq!(restored.apps(), state.apps());

        // A v3 file whose writer split the last release's run in two.
        let mut split = state.apps["app"].epochs[&0].clone();
        let last = split.runs.pop().expect("a resident run");
        assert_eq!(last.partial.trace_count(), 2);
        let whole = last.partial.to_parts();
        let mut head = whole.clone();
        head.segments[0].traces.truncate(1);
        let cut = whole.segments[0].offset + 1;
        head.segments[0].skipped.retain(|&(i, _)| i < cut);
        let mut tail = whole;
        tail.segments[0].traces.remove(0);
        tail.segments[0].offset = cut;
        tail.segments[0].skipped.retain(|&(i, _)| i >= cut);
        for parts in [head, tail] {
            let partial = ShardPartial::from_parts(parts).unwrap();
            split.runs.push(crate::state::ResidentRun {
                version: last.version.clone(),
                partial,
            });
        }
        let mut twin = FleetState::new(spilling.clone());
        twin.apps = state.apps.clone();
        twin.apps.get_mut("app").unwrap().epochs.insert(0, split);
        twin.next_spill_seq = state.next_spill_seq;
        let restored =
            restore_bytes(&checkpoint_bytes(&twin), spilling).unwrap();
        crate::state::tests::assert_runs_maximal(&restored);
        let mut grown = restored;
        grown.submit("app", &payload_versioned("v", 9, "2.0.0"));
        state.submit("app", &payload_versioned("v", 9, "2.0.0"));
        crate::state::tests::assert_runs_maximal(&grown);
        assert_eq!(
            grown.diagnose_json("app", None).unwrap(),
            state.diagnose_json("app", None).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn current_checkpoints_carry_the_version_3_marker() {
        let state = FleetState::new(FleetConfig::default());
        assert_eq!(checkpoint_bytes(&state)[4], 3);
    }

    /// The frozen version-2 layout (spill metadata, one resident
    /// partial, no release stamps), byte for byte as PR 7 wrote it.
    fn v2_bytes(state: &FleetState) -> Vec<u8> {
        let mut body = Writer::new();
        body.u64(state.next_spill_seq);
        body.u32(state.apps.len() as u32);
        for (app, a) in &state.apps {
            body.str(app);
            body.u64(a.current_epoch);
            body.u32(a.epochs.len() as u32);
            for (&id, e) in &a.epochs {
                body.u64(id);
                body.u64(e.trace_count as u64);
                body.u64(e.clean as u64);
                body.u64(e.recovered as u64);
                body.u32(e.seen.len() as u32);
                for (user, session) in &e.seen {
                    body.str(user);
                    body.u64(*session);
                }
                body.u32(e.quarantine.len() as u32);
                for entry in &e.quarantine {
                    body.u8(reason_code(entry.reason));
                    match &entry.user {
                        Some(user) => {
                            body.u8(1);
                            body.str(user);
                        }
                        None => body.u8(0),
                    }
                    match entry.session {
                        Some(s) => {
                            body.u8(1);
                            body.u64(s);
                        }
                        None => body.u8(0),
                    }
                    body.str(&entry.detail);
                }
                body.u32(e.spilled.len() as u32);
                for run in &e.spilled {
                    body.u64(run.seq);
                    body.u64(run.traces as u64);
                    body.u64(run.bytes);
                }
                write_partial(&mut body, &e.folded());
            }
        }
        let body = body.into_vec();
        let mut out = Writer::new();
        out.u8(MAGIC[0]);
        out.u8(MAGIC[1]);
        out.u8(MAGIC[2]);
        out.u8(MAGIC[3]);
        out.u8(2);
        out.u32(body.len() as u32);
        let mut framed = out.into_vec();
        framed.extend_from_slice(&body);
        framed.extend_from_slice(&wire::crc32(&body).to_le_bytes());
        framed
    }

    #[test]
    fn version_2_checkpoints_restore_as_the_implicit_version() {
        let dir = std::env::temp_dir()
            .join(format!("energydx-ckpt-v2compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilling = FleetConfig {
            spill: Some(SpillConfig {
                dir: dir.clone(),
                mem_budget: 0,
            }),
            ..FleetConfig::default()
        };
        let mut state = FleetState::new(spilling.clone());
        for s in 0..3 {
            state.submit("app", &payload("u", s));
        }
        let old = v2_bytes(&state);
        assert_eq!(old[4], 2);
        let restored = restore_bytes(&old, spilling).expect("v2 restores");
        assert_eq!(
            restored.diagnose_json("app", None).unwrap(),
            state.diagnose_json("app", None).unwrap()
        );
        // Every restored trace lands under the implicit version "".
        assert_eq!(
            restored.apps()["app"].epochs()[&0]
                .versions()
                .into_iter()
                .collect::<Vec<_>>(),
            vec![(String::new(), 3)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_references_require_a_spill_config() {
        let dir = std::env::temp_dir()
            .join(format!("energydx-ckpt-spillref-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilling = FleetConfig {
            spill: Some(SpillConfig {
                dir: dir.clone(),
                mem_budget: 0,
            }),
            ..FleetConfig::default()
        };
        let mut state = FleetState::new(spilling.clone());
        state.submit("app", &payload("u", 0));
        assert_eq!(state.spilled_segments(), 1);
        let data = checkpoint_bytes(&state);
        // Same bytes, a config without a spill directory: refused.
        match restore_bytes(&data, FleetConfig::default()) {
            Err(CheckpointError::Malformed(detail)) => {
                assert!(detail.contains("spill"), "{detail}");
            }
            other => panic!("expected malformed, got {other:?}"),
        }
        // With the directory configured the same bytes restore.
        assert!(restore_bytes(&data, spilling).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_and_duplicate_run_sequences_are_malformed() {
        let dir = std::env::temp_dir()
            .join(format!("energydx-ckpt-badseq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilling = FleetConfig {
            spill: Some(SpillConfig {
                dir: dir.clone(),
                mem_budget: 0,
            }),
            ..FleetConfig::default()
        };
        let mut state = FleetState::new(spilling.clone());
        state.submit("app", &payload("u", 0));
        // Claim a run sequence at/above next_spill_seq: the frame is
        // internally inconsistent, whatever is on disk.
        state
            .apps
            .get_mut("app")
            .unwrap()
            .epochs
            .get_mut(&0)
            .unwrap()
            .spilled[0]
            .seq = state.next_spill_seq;
        let data = checkpoint_bytes(&state);
        assert!(matches!(
            restore_bytes(&data, spilling),
            Err(CheckpointError::Malformed(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_validates_spilled_plus_resident_trace_counts() {
        let dir = std::env::temp_dir()
            .join(format!("energydx-ckpt-counts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilling = FleetConfig {
            spill: Some(SpillConfig {
                dir: dir.clone(),
                mem_budget: 0,
            }),
            ..FleetConfig::default()
        };
        let mut state = FleetState::new(spilling.clone());
        state.submit("app", &payload("u", 0));
        state.submit("app", &payload("u", 1));
        // Lie about one spilled run's trace count.
        state
            .apps
            .get_mut("app")
            .unwrap()
            .epochs
            .get_mut(&0)
            .unwrap()
            .spilled[0]
            .traces = 7;
        let data = checkpoint_bytes(&state);
        assert!(matches!(
            restore_bytes(&data, spilling),
            Err(CheckpointError::Malformed(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("energydx-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn remove(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_verifies_referenced_segments_and_collects_orphans() {
        let root = tempdir("ckpt-spill-load");
        let spool = root.join("spool");
        let state_dir = root.join("state");
        let config = FleetConfig {
            spill: Some(SpillConfig {
                dir: spool.clone(),
                mem_budget: 0,
            }),
            ..FleetConfig::default()
        };
        let mut state = FleetState::new(config.clone());
        for s in 0..3 {
            state.submit("app", &payload("u", s));
        }
        let reference = state.diagnose_json("app", None).unwrap();
        save_to(&state, &state_dir).unwrap();
        // Two kinds of orphans: a stray sequence number and a stale
        // temp file from an interrupted spill.
        std::fs::write(spool.join("run-000000000099.seg"), b"junk").unwrap();
        std::fs::write(spool.join("run-000000000098.seg.tmp"), b"junk")
            .unwrap();

        let restored = load_from(&state_dir, config.clone())
            .expect("load succeeds")
            .expect("checkpoint exists");
        assert_eq!(restored.diagnose_json("app", None).unwrap(), reference);
        assert_eq!(restored.resident_bytes(), 0);
        assert!(!spool.join("run-000000000099.seg").exists());
        assert!(!spool.join("run-000000000098.seg.tmp").exists());

        // A damaged referenced segment refuses the whole restore.
        let seg = crate::spill::segment_path(&spool, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            load_from(&state_dir, config.clone()),
            Err(CheckpointError::Malformed(_))
        ));
        // A missing one is an I/O refusal.
        std::fs::remove_file(&seg).unwrap();
        assert!(matches!(
            load_from(&state_dir, config),
            Err(CheckpointError::Io(_))
        ));
        remove(&root);
    }
}
