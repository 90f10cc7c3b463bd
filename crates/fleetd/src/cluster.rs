//! Cluster membership plumbing: deterministic shard routing, the
//! worker transport abstraction (TCP with deadlines, or in-process
//! with injectable frame damage), an attempt-counted circuit breaker,
//! and a jittered retry budget.
//!
//! Routing invariant: a payload is routed by the *prepared* bundle's
//! `(app, user)` — the same salvage-capable pipeline the worker's
//! ingest runs — so a damaged payload that salvages to `(u, s)` lands
//! on exactly the worker that deduplicates `(u, s)`, and a clean
//! resend of the same session can never be accepted twice on two
//! different workers. Payloads the peek rejects outright are routed
//! by a hash of their raw bytes: they quarantine deterministically
//! wherever they land and never contribute traces.

use crate::client::{Client, ClientError, ClientTimeouts};
use crate::protocol::{read_frame, Frame, Request, Response};
use crate::server::{Dispatch, FleetdHandle};
use energydx_trace::repair::RepairPolicy;
use energydx_trace::store::{prepare_wire, PreparedUpload};
use std::io::Cursor;
use std::sync::{Arc, Mutex};

/// FNV-1a over a sequence of byte chunks, with a `0xFF` separator
/// between chunks. For UTF-8 string chunks — the `(app, user)` route
/// key — the separator keeps chunk boundaries unambiguous, since
/// `0xFF` never occurs in UTF-8: `("ab", "c")` and `("a", "bc")`
/// hash apart. Raw payload chunks may legitimately contain `0xFF`,
/// so no such guarantee holds for them; rejected-payload routing
/// only needs a deterministic spread, not injectivity.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut step = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    };
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 {
            step(0xFF);
        }
        for &b in *chunk {
            step(b);
        }
    }
    h
}

/// The worker index that owns `(app, user)` in a `shards`-worker
/// cluster. Stable across runs and processes (pure FNV-1a).
pub fn shard_for_user(app: &str, user: &str, shards: usize) -> usize {
    (fnv1a(&[app.as_bytes(), user.as_bytes()]) % shards.max(1) as u64) as usize
}

/// The worker index a raw payload routes to: by the prepared bundle's
/// user when the payload decodes (or salvages), by a hash of the raw
/// bytes when it is rejected outright (accounting-only traffic).
pub fn shard_for_payload(
    app: &str,
    payload: &[u8],
    policy: &RepairPolicy,
    shards: usize,
) -> usize {
    match prepare_wire(payload, policy) {
        PreparedUpload::Ready { bundle, .. } => {
            shard_for_user(app, &bundle.user, shards)
        }
        PreparedUpload::Rejected(_) => {
            (fnv1a(&[app.as_bytes(), payload]) % shards.max(1) as u64) as usize
        }
    }
}

/// One coordinator-to-worker channel. Implementations must bound
/// every call (deadlines or immediate failure) — the coordinator's
/// liveness argument rests on no call blocking forever.
///
/// A call may split into a write and a read, which is what lets the
/// coordinator's fan have every worker fold at once, and fold the next
/// selection while it analyzes this one: [`WorkerTransport::send`]
/// writes a request and [`WorkerTransport::recv`] reads its reply. The
/// provided defaults answer inside `send` through
/// [`WorkerTransport::call`], so a transport that implements only
/// `call` keeps working, one worker at a time.
pub trait WorkerTransport: Send {
    /// Sends one request and returns the worker's response.
    ///
    /// # Errors
    ///
    /// Any transport-level failure (unreachable, timed out, damaged
    /// frame); the coordinator treats these as "worker not reached".
    fn call(&mut self, req: &Request) -> Result<Response, ClientError>;

    /// Writes one request. `Ok(Some(response))` when the transport
    /// answered at once (the default, through [`WorkerTransport::call`]);
    /// `Ok(None)` when the reply waits for [`WorkerTransport::recv`].
    /// The coordinator leaves at most one reply unread per transport
    /// and reads it before any other use.
    ///
    /// # Errors
    ///
    /// As [`WorkerTransport::call`].
    fn send(&mut self, req: &Request) -> Result<Option<Response>, ClientError> {
        self.call(req).map(Some)
    }

    /// Reads the reply to the request [`WorkerTransport::send`] left
    /// pending.
    ///
    /// # Errors
    ///
    /// As [`WorkerTransport::call`]; by default, always, since the
    /// default `send` leaves nothing pending.
    fn recv(&mut self) -> Result<Response, ClientError> {
        Err(ClientError::Io("no request awaits a reply".to_string()))
    }

    /// Forgets whatever a previous holder left unread. The coordinator
    /// calls it on a transport whose holder panicked, possibly between
    /// a write and its read. A no-op by default.
    fn reset(&mut self) {}
}

/// TCP transport: a lazily-connected [`Client`] with connect/read/
/// write deadlines, reconnecting after any failure (the stream may be
/// desynchronized mid-frame). `send` and `recv` are the client's own,
/// so a reply can be read while other workers' requests are in flight.
#[derive(Debug)]
pub struct TcpTransport {
    addr: String,
    timeouts: ClientTimeouts,
    client: Option<Client>,
}

impl TcpTransport {
    /// A transport for the worker at `addr` with the given deadlines.
    pub fn new(addr: impl Into<String>, timeouts: ClientTimeouts) -> Self {
        TcpTransport {
            addr: addr.into(),
            timeouts,
            client: None,
        }
    }

    /// The connection, opened if there is none.
    fn client(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            self.client =
                Some(Client::connect_with(&self.addr, self.timeouts)?);
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// Passes `result` through, dropping the connection when it is an
    /// error.
    fn settle<T>(
        &mut self,
        result: Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        if result.is_err() {
            self.client = None;
        }
        result
    }
}

impl WorkerTransport for TcpTransport {
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let result = self.client().and_then(|client| client.request(req));
        self.settle(result)
    }

    fn send(&mut self, req: &Request) -> Result<Option<Response>, ClientError> {
        let result = self.client().and_then(|client| client.send(req));
        self.settle(result).map(|()| None)
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let result = match self.client.as_mut() {
            Some(client) => client.recv(),
            None => Err(ClientError::Io(format!(
                "{}: no connection to read a reply from",
                self.addr
            ))),
        };
        self.settle(result)
    }

    fn reset(&mut self) {
        self.client = None;
    }
}

/// Which leg of an in-process round trip a tamper sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// The encoded request frame, coordinator → worker.
    Request,
    /// The encoded response frame, worker → coordinator.
    Response,
}

/// A chaos hook: rewrites an encoded frame in flight (truncate, flip
/// bits, delay by sleeping, …). Returning the bytes unchanged is a
/// pass-through.
pub type FrameTamper = Box<dyn FnMut(Vec<u8>, Leg) -> Vec<u8> + Send>;

/// The mutable target of an [`InProcessTransport`]: `None` models a
/// kill -9'd worker (connection refused), `Some` a live daemon.
/// Tests swap the handle to simulate crash and restart.
pub type WorkerSlot = Arc<Mutex<Option<Arc<FleetdHandle>>>>;

/// In-process transport that still round-trips **every** message
/// through the real frame encode/decode path, so truncated or
/// bit-flipped inter-node frames are first-class test inputs. Used by
/// the cluster diff harness, the chaos tests, and the bench.
pub struct InProcessTransport {
    slot: WorkerSlot,
    tamper: Option<FrameTamper>,
}

impl InProcessTransport {
    /// A transport delivering to whatever handle `slot` holds.
    pub fn new(slot: WorkerSlot) -> Self {
        InProcessTransport { slot, tamper: None }
    }

    /// Installs a frame tamper on both legs.
    pub fn with_tamper(mut self, tamper: FrameTamper) -> Self {
        self.tamper = Some(tamper);
        self
    }
}

fn decode_one_frame(bytes: &[u8]) -> Result<Frame, ClientError> {
    match read_frame(&mut Cursor::new(bytes)) {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err(ClientError::ServerClosed),
        Err(e) => Err(ClientError::Protocol(e)),
    }
}

impl WorkerTransport for InProcessTransport {
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let handle = match &*self.slot.lock().unwrap() {
            Some(handle) => Arc::clone(handle),
            None => {
                return Err(ClientError::Io("connection refused".to_string()))
            }
        };
        let mut wire = req.try_encode().map_err(ClientError::Protocol)?;
        if let Some(tamper) = &mut self.tamper {
            wire = tamper(wire, Leg::Request);
        }
        // The worker's view: a framing failure on its inbound stream is
        // answered with a typed Error response (exactly what
        // `handle_connection` does), not silently dropped.
        let resp = match decode_one_frame(&wire).and_then(|frame| {
            Request::decode(&frame).map_err(ClientError::Protocol)
        }) {
            Ok(decoded) => handle.handle_request(decoded),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        };
        let mut wire = resp.encode();
        if let Some(tamper) = &mut self.tamper {
            wire = tamper(wire, Leg::Response);
        }
        decode_one_frame(&wire).and_then(|frame| {
            Response::decode(&frame).map_err(ClientError::Protocol)
        })
    }
}

/// Attempt-counted circuit breaker: `threshold` consecutive failures
/// open the circuit; while open, only every `probe_every`-th gated
/// call is let through as a probe (the first gated call always
/// probes, so a restarted worker is rediscovered on the next
/// contact). Counting attempts instead of wall-clock keeps every
/// schedule deterministic and unit-testable without sleeping.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    probe_every: u32,
    consecutive_failures: u32,
    gated_calls: u32,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive
    /// failures, probing every `probe_every`-th gated call.
    pub fn new(threshold: u32, probe_every: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            probe_every: probe_every.max(1),
            consecutive_failures: 0,
            gated_calls: 0,
        }
    }

    /// Whether the circuit is open (the worker is presumed down).
    pub fn is_open(&self) -> bool {
        self.consecutive_failures >= self.threshold
    }

    /// Failures since the last success — nonzero means the worker may
    /// have restarted (and lost state) since we last trusted it.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Asks permission for one call. Closed: always granted. Open:
    /// granted only on probe turns; a denial is an immediate, cheap
    /// failure (fail-fast is the point of the breaker).
    pub fn allow(&mut self) -> bool {
        if !self.is_open() {
            return true;
        }
        self.gated_calls = self.gated_calls.wrapping_add(1);
        self.gated_calls % self.probe_every == 1 || self.probe_every == 1
    }

    /// Records a successful call: the circuit closes.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.gated_calls = 0;
    }

    /// Records a failed call.
    pub fn record_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Bounded retries with exponential backoff and deterministic jitter
/// (seeded per worker and attempt, so two coordinators replaying the
/// same schedule wait the same milliseconds). `base_backoff_ms == 0`
/// disables sleeping entirely — the in-process harness retries at
/// full speed while the TCP coordinator paces itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Total attempts per logical call (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry, in ms.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in ms.
    pub max_backoff_ms: u64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            max_attempts: 3,
            base_backoff_ms: 10,
            max_backoff_ms: 200,
        }
    }
}

impl RetryBudget {
    /// The jittered wait before retry number `attempt` (1-based) of a
    /// call salted with `salt` (the worker index).
    pub fn backoff_ms(&self, attempt: u32, salt: u64) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_backoff_ms)
            .max(1);
        let mut state = salt
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(u64::from(attempt));
        // Jitter in [exp/2, exp]: never zero, never above the cap.
        exp / 2 + splitmix64(&mut state) % (exp / 2 + 1)
    }
}

/// What a coordinator does when a shard stays unreachable after its
/// retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Answer queries with an explicit `Degraded{missing_shards}`
    /// response covering the surviving workers.
    Degrade,
    /// Refuse: answer a typed error and let the caller retry later.
    /// Nothing partial ever leaves the coordinator under this policy.
    Hold,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_routing_is_stable_and_in_range() {
        for shards in 1..=5 {
            for user in ["u00", "u01", "alice", "bob"] {
                let a = shard_for_user("mail", user, shards);
                let b = shard_for_user("mail", user, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // Different users do spread (not a constant function).
        let spread: std::collections::BTreeSet<usize> = (0..32)
            .map(|i| shard_for_user("mail", &format!("u{i:02}"), 3))
            .collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn salvaged_payloads_route_with_their_clean_resends() {
        let policy = RepairPolicy::default();
        let clean = crate::fixture::payload("u7", 3);
        let mut damaged = clean.clone();
        damaged.truncate(damaged.len() - 7);
        let clean_shard = shard_for_payload("mail", &clean, &policy, 3);
        // Only meaningful when the damaged payload still salvages to
        // the same user; if it rejects, it routes by raw bytes and the
        // worker quarantines it — either way no trace diverges.
        if let PreparedUpload::Ready { bundle, .. } =
            prepare_wire(&damaged, &policy)
        {
            assert_eq!(bundle.user, "u7");
            assert_eq!(
                shard_for_payload("mail", &damaged, &policy, 3),
                clean_shard
            );
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_on_schedule() {
        let mut b = CircuitBreaker::new(3, 4);
        assert!(b.allow());
        b.record_failure();
        b.record_failure();
        assert!(!b.is_open(), "below threshold stays closed");
        assert!(b.allow());
        b.record_failure();
        assert!(b.is_open());
        // First gated call probes, the next probe_every-1 are denied.
        assert!(b.allow(), "first gated call is the probe");
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow(), "every probe_every-th call probes again");
        b.record_success();
        assert!(!b.is_open());
        assert!(b.allow());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_optional() {
        let budget = RetryBudget::default();
        for attempt in 1..6 {
            for salt in 0..3 {
                let a = budget.backoff_ms(attempt, salt);
                assert_eq!(a, budget.backoff_ms(attempt, salt));
                assert!(a >= 1);
                assert!(a <= budget.max_backoff_ms);
            }
        }
        let silent = RetryBudget {
            base_backoff_ms: 0,
            ..RetryBudget::default()
        };
        assert_eq!(silent.backoff_ms(1, 0), 0);
    }
}
