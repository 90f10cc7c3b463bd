//! The bounded ring of recent notable events.

use std::collections::VecDeque;
use std::sync::Mutex;

/// The categories of notable events the daemon and the upload retry
/// loop record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An upload was rejected and preserved for offline inspection.
    Quarantine,
    /// An upload was dropped at the full ingest queue.
    Shed,
    /// A client (or the upload retry loop) was told to back off.
    RetryAfter,
    /// A checkpoint was encoded and persisted.
    CheckpointSave,
    /// A checkpoint was restored into a fresh state.
    CheckpointLoad,
    /// An app's epoch counter advanced.
    Rollover,
    /// A coordinator replicated one worker's checkpoint.
    Replication,
    /// A replicated checkpoint was handed off to a restarted or
    /// replacement worker.
    Handoff,
    /// A cluster query was answered without every shard.
    DegradedQuery,
    /// An epoch's resident runs were written to on-disk segments.
    Spill,
}

impl EventKind {
    /// The stable snake-case name used in labels and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Quarantine => "quarantine",
            EventKind::Shed => "shed",
            EventKind::RetryAfter => "retry_after",
            EventKind::CheckpointSave => "checkpoint_save",
            EventKind::CheckpointLoad => "checkpoint_load",
            EventKind::Rollover => "rollover",
            EventKind::Replication => "replication",
            EventKind::Handoff => "handoff",
            EventKind::DegradedQuery => "degraded_query",
            EventKind::Spill => "spill",
        }
    }
}

/// One recorded event. `seq` is monotone per ring, so a consumer can
/// tell how many events fell off the window between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotone sequence number (0 for the first event ever pushed).
    pub seq: u64,
    /// Category.
    pub kind: EventKind,
    /// Free-form context, e.g. `app=mail reason=bad-magic`.
    pub detail: String,
}

/// A bounded FIFO of recent events; pushing past capacity drops the
/// oldest. All operations take one short mutex — events are rare
/// (sheds, quarantines, checkpoints), never per-instance.
#[derive(Debug)]
pub struct EventRing {
    cap: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    next_seq: u64,
    items: VecDeque<ObsEvent>,
}

impl EventRing {
    /// A ring keeping the last `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        EventRing {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                next_seq: 0,
                items: VecDeque::new(),
            }),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, kind: EventKind, detail: String) {
        let mut inner = self.inner.lock().expect("ring lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.items.len() == self.cap {
            inner.items.pop_front();
        }
        inner.items.push_back(ObsEvent { seq, kind, detail });
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.inner
            .lock()
            .expect("ring lock")
            .items
            .iter()
            .cloned()
            .collect()
    }

    /// Total events ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.inner.lock().expect("ring lock").next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_events() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(EventKind::Shed, format!("n={i}"));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, 2);
        assert_eq!(snap[2].seq, 4);
        assert_eq!(snap[2].detail, "n=4");
        assert_eq!(ring.total_pushed(), 5);
    }

    #[test]
    fn capacity_floor_is_one() {
        let ring = EventRing::new(0);
        ring.push(EventKind::Rollover, "a".into());
        ring.push(EventKind::Rollover, "b".into());
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].detail, "b");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::Quarantine.as_str(), "quarantine");
        assert_eq!(EventKind::CheckpointSave.as_str(), "checkpoint_save");
        assert_eq!(EventKind::RetryAfter.as_str(), "retry_after");
    }
}
