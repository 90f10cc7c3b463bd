//! Crash-safe checkpointing of [`FleetState`].
//!
//! The format mirrors wire v2's defensive layout: magic, a version
//! byte, an explicit body length, and a CRC32 over the body — so a
//! half-written file, a truncated disk, or a flipped bit surfaces as a
//! typed [`CheckpointError`], never a panic or a silently-wrong
//! analysis. Partials are written in the row layout spill segments and
//! `PartialState` frames share ([`energydx_segment::encode_partial`])
//! and re-validated on the way back in by its one decoder, which ends
//! in [`ShardPartial::from_parts`]: that rebuilds the derived group
//! tables and rejects any structurally impossible state.
//!
//! ```text
//! magic "EDXC" | version u8 = 3 | body_len u32 | body | crc32(body)
//! ```
//!
//! Each epoch's resident traces are written as the state holds them:
//! one partial per maximal same-release run, each with the release its
//! traces were uploaded under, which ingestion keeps maximal by
//! extending the last run in place, so the on-disk size is independent
//! of how bursty ingestion was. Restore appends the runs it reads the
//! way ingestion does, so adjacent same-release runs come back merged
//! and the restored runs are maximal whatever wrote the file.
//! [`save_to`] writes a temp file, fsyncs it and renames it over the
//! old checkpoint, so a crash or power loss mid-write leaves the
//! previous checkpoint intact.
//!
//! The body also holds spill metadata: the state's next segment
//! sequence number and, per epoch, references to the spilled runs
//! (sequence number, trace count, file size, release and global start
//! offset). The segment *data* stays in its own CRC-framed files;
//! [`load_from`] reads every referenced segment's fixed header, rejects
//! any disagreement (a segment of a format this build does not read
//! included), and garbage-collects unreferenced segment files (their
//! traces are still resident inside the checkpoint being restored).
//!
//! The replica a worker hands a coordinator is the same frame with no
//! spill metadata but the sequence number: each spilled run is read
//! back and written inline as a resident run, so the replica restores
//! on a node that has none of the segment files.
//!
//! Only version 3 restores. Versions 1 and 2 are refused as
//! [`CheckpointError::UnsupportedVersion`], as EDXS version-1 segments
//! are.
//!
//! [`ShardPartial::from_parts`]: energydx::shard::ShardPartial::from_parts

use crate::spill::{self, SpilledRun};
use crate::state::{AppState, EpochState, FleetConfig, FleetState, QueryError};
use energydx_obsv::{EventKind, MetricsRegistry};
use energydx_segment::{decode_partial, encode_partial};
use energydx_trace::codec::{CodecError, Reader, Writer};
use energydx_trace::store::{QuarantineEntry, RejectReason};
use energydx_trace::wire;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"EDXC";
const VERSION: u8 = 3;
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

/// Serializes the whole fleet state to a framed checkpoint. Spilled
/// runs are written as references to their segment files, so the
/// checkpoint restores only next to those files: this is what
/// [`save_to`] writes.
pub fn checkpoint_bytes(state: &FleetState) -> Vec<u8> {
    encode(state, false)
        .expect("a checkpoint that references its segments reads none")
}

/// Serializes the whole fleet state to a framed checkpoint that needs
/// no segment file: each spilled run is read back (checked against its
/// record, as a query's fold does) and written inline as a resident
/// run of its release. This is what a worker hands a coordinator to
/// replicate, so the replica restores on any node, with or without a
/// spill directory. A state with nothing spilled encodes exactly as
/// [`checkpoint_bytes`].
///
/// # Errors
///
/// [`QueryError::Storage`] when a spilled run cannot be read back.
pub(crate) fn replica_bytes(state: &FleetState) -> Result<Vec<u8>, QueryError> {
    encode(state, true)
}

/// The one checkpoint encoder; `inline_spilled` picks between
/// [`checkpoint_bytes`] and [`replica_bytes`].
fn encode(
    state: &FleetState,
    inline_spilled: bool,
) -> Result<Vec<u8>, QueryError> {
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
                body.u8(entry.reason.code());
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
            let (spilled, inlined) = if inline_spilled {
                (&[][..], state.read_spilled(e, None)?)
            } else {
                (&e.spilled[..], Vec::new())
            };
            body.u32(spilled.len() as u32);
            for run in spilled {
                body.u64(run.seq);
                body.u64(run.traces as u64);
                body.u64(run.bytes);
                body.str(&run.version);
                body.u64(run.start as u64);
            }
            // Resident state: the runs as they are, one partial per
            // maximal same-version run, so each release's traces stay
            // separable on restore. Inlined spilled runs precede them,
            // as their traces do.
            body.u32((inlined.len() + e.runs.len()) as u32);
            let inlined = inlined.iter().map(|(run, p)| (&run.version, p));
            let resident =
                e.runs.iter().map(|run| (&run.version, &run.partial));
            for (version, partial) in inlined.chain(resident) {
                body.str(version);
                encode_partial(&mut body, &partial.to_parts());
            }
        }
    }
    let body = body.into_vec();
    let mut out = Writer::with_capacity(body.len() + 13);
    out.raw(MAGIC);
    out.u8(VERSION);
    out.u32(body.len() as u32);
    out.raw(&body);
    out.u32(wire::crc32(&body));
    let framed = out.into_vec();
    let metrics = state.metrics();
    metrics.set_gauge("fleetd_checkpoint_size_bytes", &[], framed.len() as f64);
    metrics.inc("fleetd_checkpoint_saves_total", &[]);
    metrics.event(
        EventKind::CheckpointSave,
        format!("bytes={} apps={}", framed.len(), state.apps.len()),
    );
    Ok(framed)
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
    if version != VERSION {
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
    let read_partial = |r: &mut Reader<'_>| {
        decode_partial(r).map_err(|e| CheckpointError::Malformed(e.to_string()))
    };
    let mut state = FleetState::with_registry(config, registry);
    let next_spill_seq = r.u64("next spill sequence")?;
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
                let code = r.u8("reject reason")?;
                let reason =
                    RejectReason::from_code(code).ok_or_else(|| {
                        CheckpointError::Malformed(format!(
                            "unknown reject reason code {code}"
                        ))
                    })?;
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
            let run_count = r.u32("spilled run count")? as usize;
            let mut spilled = Vec::new();
            let mut run_start = 0;
            for _ in 0..run_count {
                let seq = r.u64("spilled run sequence")?;
                let traces = r.usize("spilled run trace count")?;
                let bytes = r.u64("spilled run byte count")?;
                let run_version = r.str("spilled run version")?;
                let start = r.usize("spilled run start")?;
                if start != run_start {
                    return Err(CheckpointError::Malformed(format!(
                        "spilled run {seq} claims start offset {start} but \
                         its predecessors cover {run_start} trace(s)"
                    )));
                }
                run_start += traces;
                if seq >= next_spill_seq {
                    return Err(CheckpointError::Malformed(format!(
                        "spilled run sequence {seq} is not below the next \
                         sequence number {next_spill_seq}"
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
            if !spilled.is_empty() && state.config.spill.is_none() {
                return Err(CheckpointError::Malformed(
                    "checkpoint references spilled segment(s) but no spill \
                     directory is configured"
                        .to_string(),
                ));
            }
            let spilled_traces: usize =
                spilled.iter().map(SpilledRun::traces).sum();
            let run_count = r.u32("resident run count")? as usize;
            let mut runs = Vec::new();
            for _ in 0..run_count {
                let run_version = r.str("resident run version")?;
                runs.push((run_version, read_partial(&mut r)?));
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
/// segments, every referenced file's header is read and checked
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
    use energydx::shard::ShardPartial;
    use std::path::Path;

    /// Restore leaves maximal same-release runs whatever wrote the
    /// file: the writer's runs, also when a file splits one release's
    /// run in two, which restore merges back, and later uploads keep
    /// extending them.
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

        // A file whose writer split the last release's run in two.
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
    fn an_unknown_reject_reason_code_is_malformed() {
        let mut state = FleetState::new(FleetConfig::default());
        state.submit("app", b"not a payload");
        let mut with = |reason| {
            let app = state.apps.get_mut("app").unwrap();
            app.epochs.get_mut(&0).unwrap().quarantine[0].reason = reason;
            checkpoint_bytes(&state)
        };
        let (first, last) =
            (with(RejectReason::Undecodable), with(RejectReason::Invalid));
        // The frames differ in the reason's code byte and the CRC.
        let body = 9..first.len() - 4;
        let at = body
            .clone()
            .find(|&i| first[i] != last[i])
            .expect("the code byte");
        assert_eq!((first[at], last[at]), (0, 4));
        let mut bad = last;
        bad[at] = 5;
        let crc = wire::crc32(&bad[body.clone()]);
        bad[body.end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            restore_bytes(&bad, FleetConfig::default()).err(),
            Some(CheckpointError::Malformed(
                "unknown reject reason code 5".to_string()
            ))
        );
    }

    #[test]
    fn current_checkpoints_carry_the_version_3_marker() {
        let state = FleetState::new(FleetConfig::default());
        assert_eq!(checkpoint_bytes(&state)[4], 3);
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

        // A referenced segment whose header is damaged, that is cut
        // short, or that is in the retired version-1 format refuses
        // the whole restore.
        let seg = crate::spill::segment_path(&spool, 0);
        let good = std::fs::read(&seg).unwrap();
        let mut header = good.clone();
        header[5] ^= 0x01; // the trace count, under the header CRC
        let mut version_1 = good.clone();
        version_1[4] = 1;
        let short = good[..good.len() - 1].to_vec();
        for (bad, expect) in [
            (header, "header fails its crc32"),
            (short, "truncated"),
            (version_1, "unsupported segment version 1"),
        ] {
            std::fs::write(&seg, &bad).unwrap();
            match load_from(&state_dir, config.clone()) {
                Err(CheckpointError::Malformed(detail)) => {
                    assert!(detail.contains(expect), "{detail}");
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
        // Body damage is not the header's to see: the restore reads
        // none, and the first query that folds the run refuses.
        let mut body = good;
        let mid = body.len() / 2;
        body[mid] ^= 0x01;
        std::fs::write(&seg, &body).unwrap();
        let restored = load_from(&state_dir, config.clone())
            .expect("the header is intact")
            .expect("checkpoint exists");
        assert!(matches!(
            restored.diagnose_json("app", None),
            Err(crate::state::QueryError::Storage(_))
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
