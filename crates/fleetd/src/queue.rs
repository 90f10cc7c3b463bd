//! The bounded ingest queue: explicit backpressure, total accounting.
//!
//! An admitted upload holds a [`Ticket`] while its connection thread
//! waits for the fleet state, and gives it back once it holds the
//! state lock; at most `depth` uploads wait like that at once. Any
//! further submission is turned away *immediately* with
//! [`Enqueue::Full`] — the daemon never buffers unboundedly and never
//! drops silently. The server translates `Full` into a `RetryAfter`
//! response, which the phone-side retry loop
//! ([`energydx_trace::upload`]) consumes as a wait floor. Every
//! submission therefore ends in exactly one of: accepted, salvaged,
//! quarantined, or retried by the client.

use energydx_obsv::{EventKind, Metrics};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Result of [`IngestQueue::submit`].
#[derive(Debug)]
pub enum Enqueue<'q> {
    /// Admitted; the upload holds its place until the ticket drops.
    Queued(Ticket<'q>),
    /// The queue is at capacity; retry later.
    Full,
    /// The daemon is shutting down; no more submissions.
    Closed,
}

/// An admitted upload's place in the queue; dropping it frees the
/// place.
#[derive(Debug)]
pub struct Ticket<'q>(&'q IngestQueue);

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.0.inner().pending -= 1;
    }
}

#[derive(Debug, Default)]
struct Inner {
    pending: usize,
    max_seen: usize,
    shed: usize,
    shed_by_app: BTreeMap<String, usize>,
    closed: bool,
}

/// Fixed-capacity admission between connection threads and the state
/// lock they commit under.
#[derive(Debug)]
pub struct IngestQueue {
    depth: usize,
    inner: Mutex<Inner>,
    metrics: Metrics,
}

impl IngestQueue {
    /// A queue holding at most `depth` pending uploads (min 1).
    pub fn new(depth: usize) -> Self {
        Self::with_metrics(depth, Metrics::disabled())
    }

    /// Like [`IngestQueue::new`], additionally recording sheds into
    /// `metrics` (`fleetd_uploads_shed_total` plus a ring event per
    /// shed) — the server wires its state registry in here.
    pub fn with_metrics(depth: usize, metrics: Metrics) -> Self {
        IngestQueue {
            depth: depth.max(1),
            inner: Mutex::new(Inner::default()),
            metrics,
        }
    }

    /// The accounting, recovered from poison: every update leaves it
    /// valid, and [`Ticket`]'s `Drop` must not panic.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Offers one upload for `app`. Never blocks: a full queue answers
    /// [`Enqueue::Full`] right away so the caller can propagate
    /// backpressure instead of waiting invisibly.
    pub fn submit(&self, app: &str) -> Enqueue<'_> {
        let mut inner = self.inner();
        if inner.closed {
            return Enqueue::Closed;
        }
        if inner.pending >= self.depth {
            inner.shed += 1;
            *inner.shed_by_app.entry(app.to_string()).or_insert(0) += 1;
            drop(inner);
            self.metrics.inc("fleetd_uploads_shed_total", &[]);
            self.metrics.event(
                EventKind::Shed,
                format!("app={app} depth={}", self.depth),
            );
            return Enqueue::Full;
        }
        inner.pending += 1;
        inner.max_seen = inner.max_seen.max(inner.pending);
        Enqueue::Queued(Ticket(self))
    }

    /// Stops admitting submissions. An upload admitted earlier checks
    /// [`IngestQueue::is_closed`] again before it commits.
    pub fn close(&self) {
        self.inner().closed = true;
    }

    /// Whether [`IngestQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.inner().closed
    }

    /// Uploads currently queued.
    pub fn len(&self) -> usize {
        self.inner().pending
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the queue length — must never exceed
    /// [`IngestQueue::depth`].
    pub fn max_depth_seen(&self) -> usize {
        self.inner().max_seen
    }

    /// Submissions turned away with [`Enqueue::Full`].
    pub fn shed_count(&self) -> usize {
        self.inner().shed
    }

    /// Sheds broken down by app — each shed answered a specific
    /// client with `RetryAfter`, so this is also the per-client
    /// `RetryAfter` count the health document reports.
    pub fn shed_by_app(&self) -> BTreeMap<String, usize> {
        self.inner().shed_by_app.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = IngestQueue::new(2);
        let a = q.submit("app");
        let _b = q.submit("app");
        assert!(matches!(q.submit("app"), Enqueue::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.max_depth_seen(), 2);
        // A dropped ticket frees its place for the next upload.
        drop(a);
        assert_eq!(q.len(), 1);
        assert!(matches!(q.submit("app"), Enqueue::Queued(_)));
        assert_eq!(q.shed_count(), 1);
    }

    #[test]
    fn sheds_are_attributed_per_app_and_recorded() {
        use energydx_obsv::MetricsRegistry;

        let reg = Arc::new(MetricsRegistry::deterministic());
        let q =
            IngestQueue::with_metrics(1, Metrics::enabled(Arc::clone(&reg)));
        let _keep = q.submit("mail");
        assert!(matches!(q.submit("mail"), Enqueue::Full));
        assert!(matches!(q.submit("gps"), Enqueue::Full));
        assert!(matches!(q.submit("mail"), Enqueue::Full));
        let by_app = q.shed_by_app();
        assert_eq!(by_app.get("mail"), Some(&2));
        assert_eq!(by_app.get("gps"), Some(&1));
        assert_eq!(q.shed_count(), 3);
        assert_eq!(
            reg.counter_value("fleetd_uploads_shed_total", &[]),
            Some(3)
        );
        assert_eq!(
            reg.counter_value("energydx_events_total", &[("kind", "shed")]),
            Some(3)
        );
        assert!(reg
            .recent_events()
            .iter()
            .any(|e| e.detail == "app=gps depth=1"));
    }
}
