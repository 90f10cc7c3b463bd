//! Retrying wire uploads from the phone to the backend.
//!
//! Phones upload over residential WiFi: requests time out, servers
//! shed load, captive portals eat connections.
//! [`upload_payloads_with_retry`] therefore pushes each encoded payload
//! through an [`UploadBackend`] with exponential backoff and seeded
//! jitter, over a *virtual* clock — the simulation accumulates the
//! waits it would have slept instead of sleeping, so a thousand-phone
//! fleet run finishes in milliseconds and is replayable from its seed.

use crate::rng::SplitMix64;
use crate::store::IngestOutcome;
use std::fmt;

/// A transient upload failure: the payload may succeed if retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransientUploadError {
    /// What went wrong (timeout, 503, connection reset, ...).
    pub message: String,
    /// Server-directed pacing: how long the backend asked the client
    /// to wait before retrying (a `RetryAfter` response from a daemon
    /// shedding load). The retry loop waits at least this long,
    /// whichever of it and the exponential backoff is larger.
    pub retry_after_ms: Option<u64>,
}

impl TransientUploadError {
    /// A plain transient failure with no server pacing hint.
    pub fn new(message: impl Into<String>) -> Self {
        TransientUploadError {
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A failure carrying the server's `RetryAfter` pacing hint.
    pub fn with_retry_after(message: impl Into<String>, ms: u64) -> Self {
        TransientUploadError {
            message: message.into(),
            retry_after_ms: Some(ms),
        }
    }
}

impl fmt::Display for TransientUploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transient upload failure: {}", self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (server asked to retry after {ms} ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for TransientUploadError {}

/// Where encoded payloads go. `Err` means a *transient* failure worth
/// retrying; permanent rejection is an `Ok` carrying
/// [`IngestOutcome::Rejected`].
pub trait UploadBackend {
    /// Receives one wire payload.
    ///
    /// # Errors
    ///
    /// Returns [`TransientUploadError`] when the attempt failed in a
    /// retryable way.
    fn receive(
        &mut self,
        payload: &[u8],
    ) -> Result<IngestOutcome, TransientUploadError>;
}

/// Backoff schedule for retried uploads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Most attempts per bundle (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Jitter as a fraction of the backoff: each wait is scaled by a
    /// uniform factor in `[1 - jitter, 1 + jitter]`, decorrelating a
    /// fleet of phones that all lost the same server at once.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 200,
            max_backoff_ms: 30_000,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// The jittered wait before retry number `retry` (0-based).
    pub(crate) fn backoff_ms(&self, retry: u32, rng: &mut SplitMix64) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64.checked_shl(retry).unwrap_or(u64::MAX))
            .min(self.max_backoff_ms);
        let factor = 1.0 + self.jitter * (2.0 * rng.unit_f64() - 1.0);
        (exp as f64 * factor).round().max(0.0) as u64
    }
}

/// What one [`upload_payloads_with_retry`] drain did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UploadStats {
    /// Backend outcome per delivered payload, in slice order.
    pub outcomes: Vec<IngestOutcome>,
    /// Payloads delivered to the backend (any outcome).
    pub delivered: usize,
    /// Payloads whose attempts were all exhausted.
    pub gave_up: usize,
    /// Total attempts across all payloads.
    pub attempts: usize,
    /// Attempts that failed transiently and were retried.
    pub retries: usize,
    /// Transient failures that carried a server `RetryAfter` pacing
    /// hint (backpressure made visible to the phone).
    pub retry_after_hints: usize,
    /// Total backoff the phone would have slept, in milliseconds
    /// (virtual clock — nothing actually sleeps).
    pub backoff_ms: u64,
}

/// Delivers one encoded payload with retries; returns whether it made
/// it. The wait before each retry is the larger of the policy's
/// jittered exponential backoff and the server's `RetryAfter` hint, so
/// an overloaded daemon can slow a whole fleet down without any phone
/// abandoning its bundle.
fn deliver_with_retry(
    payload: &[u8],
    backend: &mut dyn UploadBackend,
    policy: &RetryPolicy,
    rng: &mut SplitMix64,
    stats: &mut UploadStats,
) -> bool {
    // Retry-loop visibility goes to the process-wide registry: the
    // loop runs phone-side (or in a soak driver) with no daemon
    // registry to report into.
    let obs = energydx_obsv::global();
    for attempt in 0..policy.max_attempts {
        stats.attempts += 1;
        obs.counter("uploader_attempts_total", &[]).inc();
        match backend.receive(payload) {
            Ok(outcome) => {
                stats.outcomes.push(outcome);
                stats.delivered += 1;
                obs.counter("uploader_delivered_total", &[]).inc();
                return true;
            }
            Err(e) => {
                stats.retries += 1;
                obs.counter("uploader_retries_total", &[]).inc();
                if let Some(ms) = e.retry_after_ms {
                    stats.retry_after_hints += 1;
                    obs.counter("uploader_retry_after_hints_total", &[]).inc();
                    obs.event(
                        energydx_obsv::EventKind::RetryAfter,
                        format!("side=client hint_ms={ms}"),
                    );
                }
                if attempt + 1 < policy.max_attempts {
                    stats.backoff_ms += policy
                        .backoff_ms(attempt, rng)
                        .max(e.retry_after_ms.unwrap_or(0));
                }
            }
        }
    }
    obs.counter("uploader_gave_up_total", &[]).inc();
    false
}

/// Drains pre-encoded wire payloads through `backend`, retrying
/// transient failures per `policy`, **in order**: each payload is
/// retried in place until delivered or its attempts are exhausted, so
/// the backend observes payloads in slice order — the property the
/// fleet daemon's accept-order/batch-order equivalence rests on.
/// Payloads whose attempts are exhausted count as `gave_up` (the
/// caller still owns the slice and can re-drive them).
pub fn upload_payloads_with_retry(
    payloads: &[Vec<u8>],
    backend: &mut dyn UploadBackend,
    policy: &RetryPolicy,
    seed: u64,
) -> UploadStats {
    let mut stats = UploadStats::default();
    let mut rng = SplitMix64::new(seed);
    for payload in payloads {
        if !deliver_with_retry(payload, backend, policy, &mut rng, &mut stats) {
            stats.gave_up += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Direction, EventRecord};
    use crate::store::{TraceBundle, TraceStore};
    use crate::wire;

    fn bundle(user: &str, session: u64) -> TraceBundle {
        let mut b = TraceBundle::new(user, session, "nexus6");
        b.events
            .push(EventRecord::new(10, Direction::Enter, "LA;->onResume"));
        b.events
            .push(EventRecord::new(20, Direction::Exit, "LA;->onResume"));
        b
    }

    /// The straightforward backend: hand payloads to a [`TraceStore`].
    struct StoreBackend<'a> {
        store: &'a TraceStore,
    }

    impl UploadBackend for StoreBackend<'_> {
        fn receive(
            &mut self,
            payload: &[u8],
        ) -> Result<IngestOutcome, TransientUploadError> {
            Ok(self.store.ingest_wire(payload))
        }
    }

    /// A backend that transiently fails a seeded fraction of attempts
    /// before delegating to the inner backend.
    struct FlakyBackend<B> {
        inner: B,
        failure_rate: f64,
        rng: SplitMix64,
        /// Attempts failed so far.
        failures: usize,
    }

    impl<B> FlakyBackend<B> {
        fn new(inner: B, failure_rate: f64, seed: u64) -> Self {
            FlakyBackend {
                inner,
                failure_rate,
                rng: SplitMix64::new(seed),
                failures: 0,
            }
        }
    }

    impl<B: UploadBackend> UploadBackend for FlakyBackend<B> {
        fn receive(
            &mut self,
            payload: &[u8],
        ) -> Result<IngestOutcome, TransientUploadError> {
            if self.rng.unit_f64() < self.failure_rate {
                self.failures += 1;
                return Err(TransientUploadError::new(
                    "simulated connection reset",
                ));
            }
            self.inner.receive(payload)
        }
    }

    fn payloads(user: &str, sessions: std::ops::Range<u64>) -> Vec<Vec<u8>> {
        sessions
            .map(|s| wire::encode_v2(&bundle(user, s)))
            .collect()
    }

    #[test]
    fn retry_loop_reports_into_the_global_registry() {
        let obs = energydx_obsv::global();
        let read = |family: &str| obs.counter_value(family, &[]).unwrap_or(0);
        let (attempts0, delivered0, hints0) = (
            read("uploader_attempts_total"),
            read("uploader_delivered_total"),
            read("uploader_retry_after_hints_total"),
        );
        let events0 = obs
            .counter_value("energydx_events_total", &[("kind", "retry_after")])
            .unwrap_or(0);

        // A backend that always hints RetryAfter before accepting.
        struct Hinting {
            store: TraceStore,
            failed_once: bool,
        }
        impl UploadBackend for Hinting {
            fn receive(
                &mut self,
                payload: &[u8],
            ) -> Result<IngestOutcome, TransientUploadError> {
                if !self.failed_once {
                    self.failed_once = true;
                    return Err(TransientUploadError::with_retry_after(
                        "busy", 25,
                    ));
                }
                self.failed_once = false;
                Ok(self.store.ingest_wire(payload))
            }
        }
        let mut backend = Hinting {
            store: TraceStore::new(),
            failed_once: false,
        };
        let payloads = vec![wire::encode_v2(&bundle("u1", 0))];
        let stats = upload_payloads_with_retry(
            &payloads,
            &mut backend,
            &RetryPolicy::default(),
            3,
        );
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.retry_after_hints, 1);

        // Counters are process-global and tests run in parallel, so
        // assert deltas as lower bounds.
        assert!(read("uploader_attempts_total") >= attempts0 + 2);
        assert!(read("uploader_delivered_total") > delivered0);
        assert!(read("uploader_retry_after_hints_total") > hints0);
        let events1 = obs
            .counter_value("energydx_events_total", &[("kind", "retry_after")])
            .unwrap_or(0);
        assert!(events1 > events0, "RetryAfter event not recorded");
    }

    #[test]
    fn reliable_backend_delivers_everything_first_try() {
        let store = TraceStore::new();
        let mut backend = StoreBackend { store: &store };
        let stats = upload_payloads_with_retry(
            &payloads("u1", 0..10),
            &mut backend,
            &RetryPolicy::default(),
            1,
        );
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.attempts, 10);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.backoff_ms, 0);
        assert_eq!(store.len(), 10);
        assert!(stats.outcomes.iter().all(|o| o == &IngestOutcome::Clean));
    }

    #[test]
    fn exhausted_attempts_count_as_gave_up() {
        struct AlwaysDown;
        impl UploadBackend for AlwaysDown {
            fn receive(
                &mut self,
                _: &[u8],
            ) -> Result<IngestOutcome, TransientUploadError> {
                Err(TransientUploadError::new("503"))
            }
        }
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let stats = upload_payloads_with_retry(
            &payloads("u1", 0..1),
            &mut AlwaysDown,
            &policy,
            5,
        );
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.gave_up, 1);
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 3);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            jitter: 0.0,
        };
        let mut rng = SplitMix64::new(0);
        let waits: Vec<u64> =
            (0..6).map(|r| policy.backoff_ms(r, &mut rng)).collect();
        assert_eq!(waits, vec![100, 200, 400, 800, 1_000, 1_000]);
    }

    #[test]
    fn jitter_spreads_waits_within_bounds() {
        let policy = RetryPolicy {
            jitter: 0.5,
            base_backoff_ms: 1_000,
            ..RetryPolicy::default()
        };
        let mut rng = SplitMix64::new(3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..32 {
            let w = policy.backoff_ms(0, &mut rng);
            assert!(
                (500..=1_500).contains(&w),
                "wait {w} outside jitter bounds"
            );
            distinct.insert(w);
        }
        assert!(distinct.len() > 1, "jitter must actually vary the waits");
    }

    #[test]
    fn retry_after_hint_raises_the_wait_floor() {
        // A backend that sheds load with a RetryAfter far above the
        // exponential backoff: the virtual waits must honor the
        // server's pacing, not the (smaller) client-side schedule.
        struct Shedding {
            remaining_failures: u32,
        }
        impl UploadBackend for Shedding {
            fn receive(
                &mut self,
                _: &[u8],
            ) -> Result<IngestOutcome, TransientUploadError> {
                if self.remaining_failures > 0 {
                    self.remaining_failures -= 1;
                    return Err(TransientUploadError::with_retry_after(
                        "queue full",
                        5_000,
                    ));
                }
                Ok(IngestOutcome::Clean)
            }
        }
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 10,
            max_backoff_ms: 100,
            jitter: 0.0,
        };
        let payloads = vec![wire::encode_v2(&bundle("u1", 0))];
        let mut backend = Shedding {
            remaining_failures: 2,
        };
        let stats =
            upload_payloads_with_retry(&payloads, &mut backend, &policy, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.retry_after_hints, 2);
        // Two waits, both floored at the server's 5 s hint.
        assert_eq!(stats.backoff_ms, 10_000);
    }

    #[test]
    fn payload_drain_preserves_delivery_order_under_flakiness() {
        // Transient failures must not reorder deliveries: each payload
        // is retried in place before the next one is attempted, so the
        // store accepts payloads in slice order even on a flaky link.
        struct Recording<'a> {
            inner: FlakyBackend<StoreBackend<'a>>,
            accepted: Vec<Vec<u8>>,
        }
        impl UploadBackend for Recording<'_> {
            fn receive(
                &mut self,
                payload: &[u8],
            ) -> Result<IngestOutcome, TransientUploadError> {
                let outcome = self.inner.receive(payload)?;
                if outcome.accepted() {
                    self.accepted.push(payload.to_vec());
                }
                Ok(outcome)
            }
        }
        let store = TraceStore::new();
        let payloads = payloads("u1", 0..30);
        let mut backend = Recording {
            inner: FlakyBackend::new(StoreBackend { store: &store }, 0.35, 11),
            accepted: Vec::new(),
        };
        let policy = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        };
        let stats =
            upload_payloads_with_retry(&payloads, &mut backend, &policy, 3);
        assert_eq!(stats.delivered, 30, "12 attempts at 35% never exhaust");
        assert_eq!(stats.gave_up, 0);
        assert!(stats.retries > 0, "the flaky link must have failed some");
        assert_eq!(backend.inner.failures, stats.retries);
        assert!(stats.backoff_ms > 0);
        assert_eq!(backend.accepted, payloads, "delivery order changed");
        assert_eq!(store.len(), 30);
    }

    #[test]
    fn duplicate_retries_are_deduped_by_the_store() {
        // A phone that gave up mid-session and retried later: the
        // second delivery of the same session is rejected as a
        // duplicate, not double-counted.
        let store = TraceStore::new();
        let mut backend = StoreBackend { store: &store };
        let stats = upload_payloads_with_retry(
            &[payloads("u1", 0..1), payloads("u1", 0..1)].concat(),
            &mut backend,
            &RetryPolicy::default(),
            1,
        );
        assert_eq!(stats.delivered, 2);
        assert_eq!(store.len(), 1);
        assert_eq!(
            stats.outcomes[1],
            IngestOutcome::Rejected(crate::store::RejectReason::Duplicate)
        );
    }
}
