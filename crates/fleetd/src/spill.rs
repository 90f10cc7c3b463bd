//! Cold-epoch spilling: bounded resident memory via on-disk segments.
//!
//! Under a configured [`SpillConfig`] the daemon keeps only the
//! hottest epochs' runs resident; the rest are written, one file per
//! run, as [`energydx_segment`] files under the spill directory.
//! Queries read spilled runs back and merge them
//! ([`energydx::shard::ShardPartial::merge`]) in accept order, ahead
//! of the resident runs, so a spilling daemon answers
//! **byte-identically** to a fully-resident one — the workspace diff
//! harness proves it over random upload/spill/query/restart
//! schedules, budget 0 included.
//!
//! The state side (victim selection, fold-back, accounting) lives in
//! [`crate::state`]; this module owns the naming scheme and the
//! orphan collector that runs on restore.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Where and how aggressively the daemon spills.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory the segment files live in (created on first spill).
    pub dir: PathBuf,
    /// Approximate resident-delta budget in bytes, as measured by
    /// [`energydx::shard::ShardPartial::approx_bytes`]. `0` spills
    /// every epoch as soon as it holds data.
    pub mem_budget: usize,
}

/// One on-disk run of an epoch: the segment's sequence number plus a
/// redundant summary the checkpoint re-validates against the file on
/// restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpilledRun {
    /// Monotone file sequence number; never reused while referenced.
    pub(crate) seq: u64,
    /// Traces the segment covers.
    pub(crate) traces: usize,
    /// Segment file size, for the spilled-bytes gauge.
    pub(crate) bytes: u64,
    /// App release the run's traces were uploaded under (`""` for
    /// unversioned uploads and runs restored from pre-version
    /// checkpoints). A spilled segment never mixes versions: the
    /// spiller cuts one segment per maximal same-version run.
    pub(crate) version: String,
    /// Global (epoch-wide, accept-order) offset of the run's first
    /// trace; the segment's partial starts at exactly this offset.
    pub(crate) start: usize,
}

impl SpilledRun {
    /// Traces the segment covers.
    pub fn traces(&self) -> usize {
        self.traces
    }
}

/// The segment file holding sequence number `seq`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("run-{seq:012}.seg"))
}

/// Removes segment files (and stale temp files) whose sequence number
/// is not in `live`: runs the restored checkpoint does not reference,
/// i.e. spilled after it was written — their traces are still resident
/// *inside* that checkpoint, so the files are redundant and their
/// sequence numbers are free to be rewritten. Returns how many files
/// were removed; a missing directory is simply empty.
pub(crate) fn gc_orphans(dir: &Path, live: &BTreeSet<u64>) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(".seg") && !name.ends_with(".seg.tmp") {
            continue;
        }
        let keep = parse_seq(name).is_some_and(|seq| live.contains(&seq));
        if !keep && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix("run-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_sort_in_sequence_order() {
        let dir = Path::new("/spool");
        let names: Vec<String> = [0, 9, 10, 1_000_000, u32::MAX as u64 + 1]
            .iter()
            .map(|&seq| {
                segment_path(dir, seq)
                    .file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        for (name, seq) in names.iter().zip([0, 9, 10, 1_000_000]) {
            assert_eq!(parse_seq(name), Some(seq));
        }
    }

    #[test]
    fn the_collector_keeps_live_runs_and_drops_the_rest() {
        let dir = std::env::temp_dir()
            .join(format!("energydx-spill-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seq in [0u64, 1, 2] {
            std::fs::write(segment_path(&dir, seq), b"x").unwrap();
        }
        std::fs::write(dir.join("run-000000000009.seg.tmp"), b"x").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let live: BTreeSet<u64> = [1u64].into_iter().collect();
        assert_eq!(gc_orphans(&dir, &live), 3);
        assert!(segment_path(&dir, 1).exists());
        assert!(!segment_path(&dir, 0).exists());
        assert!(dir.join("unrelated.txt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_directory_collects_nothing() {
        assert_eq!(
            gc_orphans(Path::new("/nonexistent/energydx"), &BTreeSet::new()),
            0
        );
    }
}
