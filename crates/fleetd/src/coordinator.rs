//! The cluster coordinator: hash-partitions uploads across N worker
//! fleetds, fans queries out, rebases and merges the per-worker
//! [`ShardPartial`]s, and renders (or, for regressions and the
//! report, summarizes) through the same `AnalyzedFleet` boundary as a
//! single daemon — so a K-node cluster must answer byte-identically to
//! one batch run over the same accepted traces.
//!
//! Determinism argument: each worker keeps ordinary *local* offsets
//! (its n-th accepted trace of an epoch sits at offset n), and the
//! coordinator rebases worker k's folded partial by the trace counts
//! of workers `0..k` before merging (see [`ShardPartial::rebase`]).
//! The merged fleet is therefore the concatenation of the per-worker
//! accepted sequences in worker order — exactly the input the batch
//! reference is handed. Because routing is sticky by `(app, user)`
//! (dedup lives wholly on one worker) and the coordinator itself
//! holds no trace data, the answer is independent of upload
//! interleaving, retries, crashes, and handoffs — anything that does
//! not change each worker's accepted sequence. Pipelining the fan
//! changes when requests are written and replies read, never which
//! partials merge or in what order.
//!
//! Robustness: every worker call runs under the transport's deadlines
//! with a bounded, jittered [`RetryBudget`] and an attempt-counted
//! [`CircuitBreaker`]; a worker that stays unreachable degrades the
//! answer explicitly ([`Response::Degraded`]) or, under
//! [`DegradePolicy::Hold`], produces a typed error — never a silent
//! partial result. Recovery is probe-driven: after any observed
//! failure, the next contact with a worker is preceded by a `Counts`
//! probe and, when the worker holds fewer accepted uploads than its
//! latest replica, a checkpoint handoff that restores its partition
//! *before* any new request lands on its empty state.

use crate::checkpoint::restore_bytes;
use crate::client::ClientError;
use crate::cluster::{
    shard_for_payload, CircuitBreaker, DegradePolicy, RetryBudget,
    WorkerTransport,
};
use crate::protocol::{
    AppCatalog, DeploymentCounters, PartialStatus, Request, Response,
};
use crate::relock;
use crate::replicate::ReplicaStore;
use crate::server::Dispatch;
use crate::state::{FleetConfig, QueryError, Selector};
use energydx::{EnergyDx, FleetSummary, JsonWriter, ShardError, ShardPartial};
use energydx_obsv::{EventKind, Metrics, MetricsRegistry};
use energydx_report::{
    build_model, render_html, render_json, DEFAULT_TOP_APPS,
};
use energydx_trace::RepairPolicy;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Coordinator deployment configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Analysis parameters — must match the workers' so `finish`
    /// renders exactly as a single daemon would. (The routing peek
    /// prepares payloads under the default [`RepairPolicy`], as every
    /// worker's ingest does.)
    pub fleet: FleetConfig,
    /// What to do when a shard stays unreachable.
    pub policy: DegradePolicy,
    /// Per-call retry budget against one worker.
    pub retry: RetryBudget,
    /// Consecutive failures that open a worker's circuit.
    pub breaker_threshold: u32,
    /// While open, every `probe_every`-th gated call probes.
    pub probe_every: u32,
    /// Suggested client wait when a submit's shard is unreachable.
    pub retry_after_ms: u64,
    /// Directory persisting replicated checkpoints; `None` = memory.
    pub state_dir: Option<PathBuf>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            fleet: FleetConfig::default(),
            policy: DegradePolicy::Degrade,
            retry: RetryBudget::default(),
            breaker_threshold: 3,
            probe_every: 2,
            retry_after_ms: 50,
            state_dir: None,
        }
    }
}

struct WorkerSlot {
    /// The single connection to this worker. Held across transport
    /// I/O — calls to one worker serialize here, and a fan holds it
    /// from a request's write to its reply's read — so nothing that
    /// must stay responsive may ever wait on it. Taken through
    /// [`Coordinator::transport`], which resets a transport whose
    /// holder panicked.
    transport: Mutex<Box<dyn WorkerTransport>>,
    /// Health state. A leaf lock: held only long enough to read or
    /// bump counters, never across I/O, sleeps, or another lock.
    breaker: Mutex<CircuitBreaker>,
}

/// One worker's last-seen partial for one cache key — what a
/// [`Response::PartialNotModified`] lets the coordinator reuse. The
/// partial is shared, so the snapshot a fan takes before each request
/// costs a reference count.
#[derive(Clone)]
struct CoordCacheEntry {
    /// Resolved epoch id the partial belongs to.
    epoch: u64,
    /// The worker-state incarnation the generation is scoped to.
    incarnation: u64,
    /// The epoch's generation when the partial was folded.
    generation: u64,
    /// The worker's locally-offset folded partial.
    partial: Arc<ShardPartial>,
}

/// One worker's delta-query cache: last-seen partials keyed by
/// `(app, release)` — `None` for the whole-epoch partial, `Some(v)`
/// for one release's. The epoch is deliberately not in the key: the
/// entry's token names its epoch, and a worker answers `NotModified`
/// only when the whole `(epoch, incarnation, generation)` token
/// matches the epoch it resolves, so a query of another epoch just
/// refetches and replaces the entry. The cache is thereby bounded by
/// apps × releases per worker, and a rollover strands nothing.
type CoordCache = BTreeMap<(String, Option<String>), CoordCacheEntry>;

/// A merged fan that cannot be analyzed, as the daemon words it.
fn analysis_error(e: ShardError) -> Response {
    Response::Error {
        message: QueryError::Analysis(e.to_string()).to_string(),
    }
}

/// What one selection's fan-out gathered: the surviving shards (in
/// worker order) with the epoch each resolved, their partials, the
/// unreachable shard ids, and whether any worker disowned the
/// requested epoch.
#[derive(Default)]
struct Fan {
    found: Vec<(usize, u64)>,
    /// `found`'s partials: a fresh one is this fan's own, a
    /// `NotModified` one is shared with the cache.
    partials: Vec<Arc<ShardPartial>>,
    missing: Vec<u32>,
    unknown_epoch: bool,
}

/// One worker's request of a written selection.
struct Sent<'a> {
    req: Request,
    /// The cached entry whose token `req` carries.
    cached: Option<CoordCacheEntry>,
    call: Call<'a>,
}

/// Where a [`Sent`] request's call stands.
enum Call<'a> {
    /// Nothing written: the worker has failed since its last success,
    /// so [`Coordinator::call_worker`] runs the whole call, probe
    /// first, once the fan holds no transport guard.
    Deferred,
    /// Attempt 0's outcome, known at the write: a transport that
    /// answers inside `send`, or a failed write.
    Done(Result<Response, ClientError>),
    /// Written; the reply is read through this guard, held from the
    /// write to the read.
    Pending(MutexGuard<'a, Box<dyn WorkerTransport>>),
}

/// The coordinator: stateless over trace data (workers own their
/// partitions; this side owns routing, health, and replicas).
///
/// Queries fan out pipelined on the request's own thread (see
/// `Coordinator::fans`): every worker's request of a selection is
/// written before any reply is read, so the workers fold at once, and
/// the next selection's requests are written before this one is
/// analyzed, so they fold while the coordinator analyzes.
///
/// Lock discipline (deadlock freedom): a thread holding transport
/// guards only ever waits for a higher-numbered one. A fan takes its
/// guards in ascending worker order as it writes a selection's
/// requests, holds each until it reads that reply — across at most
/// the previous selection's analysis — and reads every reply, dropping
/// every guard, before any retry re-locks a transport; every other
/// caller holds one transport at a time. The handoff path holds
/// `transport[k]` and briefly locks `replicas` (or `partial_cache`, to
/// drop a handed-off worker's stale entries), and a fan's write locks
/// `partial_cache` and `breaker[k]` for a snapshot: those three are
/// leaves, never held across I/O or while taking another lock. The
/// stats/health/metrics endpoints snapshot `replicas`, the cache,
/// and each breaker separately and never touch a transport, so they
/// answer immediately even while a worker call is mid-retry against
/// a dead or slow node. Every lock is taken through `relock`, so a
/// panic while one is held costs that one request; a transport whose
/// holder panicked is reset first, since a reply may still be unread.
pub struct Coordinator {
    config: CoordinatorConfig,
    dx: EnergyDx,
    workers: Vec<WorkerSlot>,
    replicas: Mutex<ReplicaStore>,
    /// Per-worker last-seen partials for the delta-query protocol,
    /// keyed by `(app, release)`. A worker whose state still
    /// matches the cached `(epoch, incarnation, generation)` answers
    /// `PartialNotModified` and the entry here stands in for the
    /// wire transfer.
    partial_cache: Mutex<Vec<CoordCache>>,
    metrics: Metrics,
}

impl Coordinator {
    /// A coordinator over the given worker transports (index =
    /// worker/shard id), with its own metrics registry.
    ///
    /// # Errors
    ///
    /// Replica-store failures when `state_dir` is set (unreadable or
    /// corrupt persisted replicas refuse startup).
    pub fn new(
        config: CoordinatorConfig,
        transports: Vec<Box<dyn WorkerTransport>>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        Self::with_registry(
            config,
            transports,
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// As [`Coordinator::new`], recording into the given registry —
    /// the hook golden tests use for deterministic durations.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::new`].
    pub fn with_registry(
        config: CoordinatorConfig,
        transports: Vec<Box<dyn WorkerTransport>>,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        assert!(
            !transports.is_empty(),
            "a cluster needs at least one worker"
        );
        let replicas = match &config.state_dir {
            Some(dir) => {
                ReplicaStore::open(dir, transports.len(), &config.fleet)?
            }
            None => ReplicaStore::in_memory(transports.len()),
        };
        let metrics = Metrics::enabled(registry);
        let dx = EnergyDx::new(config.fleet.analysis.clone())
            .with_jobs(config.fleet.jobs)
            .with_metrics(metrics.clone());
        let workers: Vec<WorkerSlot> = transports
            .into_iter()
            .map(|transport| WorkerSlot {
                transport: Mutex::new(transport),
                breaker: Mutex::new(CircuitBreaker::new(
                    config.breaker_threshold,
                    config.probe_every,
                )),
            })
            .collect();
        let worker_count = workers.len();
        Ok(Coordinator {
            config,
            dx,
            workers,
            replicas: Mutex::new(replicas),
            partial_cache: Mutex::new(vec![BTreeMap::new(); worker_count]),
            metrics,
        })
    }

    /// Number of workers (= shards).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The metrics handle (for assertions).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn worker_label(k: usize) -> String {
        k.to_string()
    }

    /// Locks worker `k`'s transport. One whose previous holder panicked
    /// may still carry an unread reply, so it is reset before use.
    fn transport(&self, k: usize) -> MutexGuard<'_, Box<dyn WorkerTransport>> {
        let lock = &self.workers[k].transport;
        lock.lock().unwrap_or_else(|poisoned| {
            let mut transport = poisoned.into_inner();
            transport.reset();
            lock.clear_poison();
            transport
        })
    }

    /// Explicitly probes worker `k` and hands its replica off if the
    /// worker is behind — the "operator replaced the node" path. The
    /// organic path (a failed call records a failure; the next call
    /// probes first) covers crashes the coordinator *observed*; this
    /// one covers a crash-and-replace with no traffic in between,
    /// which no probe-on-failure scheme can detect on its own.
    ///
    /// # Errors
    ///
    /// Transport failures reaching the worker or installing the
    /// replica.
    pub fn recover_worker(&self, k: usize) -> Result<(), ClientError> {
        let result = {
            let mut transport = self.transport(k);
            self.probe_and_handoff(k, transport.as_mut())
        };
        match result {
            Ok(()) => {
                self.note_success(k);
                Ok(())
            }
            Err(e) => {
                self.note_failure(k, &e);
                Err(e)
            }
        }
    }

    /// One bounded, breaker-gated, retried call against worker `k`.
    /// After any observed failure, the real request is preceded by a
    /// `Counts` probe + handoff check, so a revived worker is restored
    /// before new traffic lands on it.
    fn call_worker(
        &self,
        k: usize,
        req: &Request,
    ) -> Result<Response, ClientError> {
        let none = ClientError::Io(format!("worker {k}: no attempt allowed"));
        self.call_worker_from(k, req, 0, none)
    }

    /// [`Coordinator::call_worker`]'s loop from attempt `first`;
    /// `last_err` is what the attempts before it ended in. A fan whose
    /// pipelined attempt 0 failed continues here at attempt 1.
    fn call_worker_from(
        &self,
        k: usize,
        req: &Request,
        first: u32,
        mut last_err: ClientError,
    ) -> Result<Response, ClientError> {
        let slot = &self.workers[k];
        let label = Self::worker_label(k);
        for attempt in first..self.config.retry.max_attempts {
            if attempt > 0 {
                self.metrics
                    .inc("cluster_worker_retries_total", &[("worker", &label)]);
                let ms = self.config.retry.backoff_ms(attempt, k as u64);
                if ms > 0 {
                    // No lock is held while backing off: the sleep
                    // delays this call only, never another caller and
                    // never the stats/health/metrics endpoints.
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
            let needs_probe = {
                let mut breaker = relock(&slot.breaker);
                if !breaker.allow() {
                    last_err = ClientError::Io(format!(
                        "worker {k}: circuit open, call gated"
                    ));
                    continue;
                }
                breaker.consecutive_failures() > 0
                    && !matches!(req, Request::Counts)
            };
            // Transport I/O runs without the breaker lock; the slot's
            // transport mutex alone serializes the connection.
            let outcome = {
                let mut transport = self.transport(k);
                if needs_probe {
                    match self.probe_and_handoff(k, transport.as_mut()) {
                        Ok(()) => transport.call(req),
                        Err(e) => Err(e),
                    }
                } else {
                    transport.call(req)
                }
            };
            match outcome {
                Ok(resp) => {
                    self.note_success(k);
                    return Ok(resp);
                }
                Err(e) => {
                    self.note_failure(k, &e);
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn note_success(&self, k: usize) {
        relock(&self.workers[k].breaker).record_success();
        let label = Self::worker_label(k);
        self.metrics.set_gauge(
            "cluster_worker_healthy",
            &[("worker", &label)],
            1.0,
        );
        self.metrics.set_gauge(
            "cluster_worker_consecutive_failures",
            &[("worker", &label)],
            0.0,
        );
    }

    fn note_failure(&self, k: usize, e: &ClientError) {
        let failures = {
            let mut breaker = relock(&self.workers[k].breaker);
            breaker.record_failure();
            breaker.consecutive_failures()
        };
        // A failed worker may come back as anything — restarted,
        // replaced, handed a replica — so its cached partials are no
        // longer worth holding. (Correctness never depends on this:
        // a revived worker carries a fresh incarnation, so stale
        // tokens cannot validate; this just frees the memory.)
        self.drop_cached_partials(k);
        let label = Self::worker_label(k);
        self.metrics
            .inc("cluster_worker_failures_total", &[("worker", &label)]);
        if matches!(e, ClientError::TimedOut) {
            self.metrics
                .inc("cluster_worker_timeouts_total", &[("worker", &label)]);
        }
        self.metrics.set_gauge(
            "cluster_worker_healthy",
            &[("worker", &label)],
            0.0,
        );
        self.metrics.set_gauge(
            "cluster_worker_consecutive_failures",
            &[("worker", &label)],
            f64::from(failures),
        );
    }

    /// Drops worker `k`'s delta-query cache entries, counting them as
    /// evictions. The cache lock is a leaf; this is safe to call with
    /// or without `transport[k]` held.
    fn drop_cached_partials(&self, k: usize) {
        let dropped = {
            let mut cache = relock(&self.partial_cache);
            std::mem::take(&mut cache[k]).len()
        };
        for _ in 0..dropped {
            self.metrics.inc(
                "fleetd_query_cache_evictions_total",
                &[("layer", "coordinator")],
            );
        }
    }

    /// Counts a delta-query cache outcome for one worker call.
    fn count_cache(&self, hit: bool) {
        let name = if hit {
            "fleetd_query_cache_hits_total"
        } else {
            "fleetd_query_cache_misses_total"
        };
        self.metrics.inc(name, &[("layer", "coordinator")]);
    }

    /// Current cache footprint by `approx_bytes` accounting.
    fn cached_partial_bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 96;
        let cache = relock(&self.partial_cache);
        cache
            .iter()
            .flat_map(|m| m.iter())
            .map(|((app, version), e)| {
                ENTRY_OVERHEAD
                    + app.len()
                    + version.as_ref().map_or(0, String::len)
                    + e.partial.approx_bytes()
            })
            .sum()
    }

    /// Probes worker `k` with `Counts`; when it holds fewer accepted
    /// uploads than its latest replica, installs that replica first
    /// (the handoff). Callers own the breaker bookkeeping.
    fn probe_and_handoff(
        &self,
        k: usize,
        transport: &mut dyn WorkerTransport,
    ) -> Result<(), ClientError> {
        let accepted = match transport.call(&Request::Counts)? {
            Response::Counts { accepted, .. } => accepted,
            other => {
                return Err(ClientError::Io(format!(
                    "worker {k}: unexpected probe response {other:?}"
                )))
            }
        };
        // The one transport → replicas overlap (see the lock
        // discipline note on [`Coordinator`]): the replica is copied
        // out and the guard dropped at the end of this statement,
        // before the install call below.
        let replica = relock(&self.replicas)
            .get(k)
            .map(|r| (r.data.clone(), r.accepted));
        if let Some((data, replicated)) = replica {
            if accepted < replicated {
                match transport.call(&Request::InstallCheckpoint { data })? {
                    Response::Done => {
                        // The install replaced the worker's content
                        // under a fresh incarnation; our cached
                        // partials for it are dead weight now.
                        self.drop_cached_partials(k);
                        let label = Self::worker_label(k);
                        self.metrics.inc(
                            "cluster_handoffs_total",
                            &[("worker", &label)],
                        );
                        self.metrics.event(
                            EventKind::Handoff,
                            format!(
                                "worker={k} accepted={accepted} \
                                 restored={replicated}"
                            ),
                        );
                    }
                    Response::Error { message } => {
                        return Err(ClientError::Io(format!(
                            "worker {k}: rejected handoff: {message}"
                        )))
                    }
                    other => {
                        return Err(ClientError::Io(format!(
                            "worker {k}: unexpected handoff response \
                             {other:?}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Routes one upload to its shard and forwards it. An unreachable
    /// shard answers `RetryAfter` — explicit backpressure the phone-
    /// side retry loop already understands; nothing is dropped.
    pub fn submit(&self, app: &str, payload: Vec<u8>) -> Response {
        let shard = shard_for_payload(
            app,
            &payload,
            &RepairPolicy::default(),
            self.workers.len(),
        );
        let label = Self::worker_label(shard);
        self.metrics
            .inc("cluster_submits_routed_total", &[("worker", &label)]);
        let req = Request::Submit {
            app: app.to_string(),
            payload,
        };
        match self.call_worker(shard, &req) {
            Ok(resp) => resp,
            Err(_) => {
                self.metrics.inc(
                    "cluster_submits_unavailable_total",
                    &[("worker", &label)],
                );
                Response::RetryAfter {
                    ms: self.config.retry_after_ms,
                }
            }
        }
    }

    /// Fans selections out to every worker as
    /// [`Request::PartialSince`]s — the one fan behind diagnoses,
    /// regressions and the report — and runs `each` on every
    /// selection's [`Fan`], returning its answers in selection order.
    ///
    /// Pipelined on this thread: all of a selection's requests are
    /// written before any reply is read, and selection i+1's before
    /// `each` runs on selection i, so the workers fold at once and
    /// while the coordinator analyzes. Each request carries the token
    /// cached for its worker under `(app, release)`, and a
    /// `NotModified` reply stands in for the cached partial. When
    /// `each` or a fan fails, the requests already written are drained
    /// first, so no connection is left with an unread reply.
    fn fans<T>(
        &self,
        sels: &[Selector],
        mut each: impl FnMut(Fan) -> Result<T, Response>,
    ) -> Result<Vec<T>, Response> {
        let mut answers = Vec::with_capacity(sels.len());
        let mut next = sels.first().map(|sel| self.write(sel));
        for (i, sel) in sels.iter().enumerate() {
            let written = next.take().expect("each selection is written");
            let fan = self.read(sel, written)?;
            next = sels.get(i + 1).map(|sel| self.write(sel));
            match each(fan) {
                Ok(answer) => answers.push(answer),
                Err(error) => {
                    if let Some(written) = next {
                        Self::drain(written);
                    }
                    return Err(error);
                }
            }
        }
        Ok(answers)
    }

    /// Writes `sel`'s request to every worker, taking transport guards
    /// in ascending worker order: attempt 0 of each worker's
    /// [`Coordinator::call_worker`], when that attempt would write the
    /// request at once — the worker has not failed since its last
    /// success, so its breaker neither gates nor asks for a probe.
    fn write(&self, sel: &Selector) -> Vec<Sent<'_>> {
        let key = (sel.app.clone(), sel.version.clone());
        let mut written = Vec::with_capacity(self.workers.len());
        for k in 0..self.workers.len() {
            // Snapshot this worker's cached entry before any I/O — the
            // cache lock is a leaf, never held across a call. A
            // concurrent clear can't invalidate the local copy: the
            // worker validates the exact token we send, so a
            // `NotModified` reply always vouches for this snapshot.
            let cached = relock(&self.partial_cache)[k].get(&key).cloned();
            let req = Request::PartialSince {
                app: sel.app.clone(),
                epoch: sel.epoch,
                version: sel.version.clone(),
                token: cached
                    .as_ref()
                    .map(|c| (c.epoch, c.incarnation, c.generation)),
            };
            let healthy =
                relock(&self.workers[k].breaker).consecutive_failures() == 0;
            let call = if healthy {
                let mut transport = self.transport(k);
                match transport.send(&req) {
                    Ok(None) => Call::Pending(transport),
                    Ok(Some(resp)) => Call::Done(Ok(resp)),
                    Err(e) => Call::Done(Err(e)),
                }
            } else {
                Call::Deferred
            };
            written.push(Sent { req, cached, call });
        }
        written
    }

    /// Reads a written selection's replies in worker order, dropping
    /// each guard after its read, then settles every worker's call as
    /// [`Coordinator::call_worker`] would: a failed attempt 0 counts
    /// once and continues at attempt 1, and a deferred call runs whole.
    /// Retries start only once every guard is dropped. The reads and
    /// retries are timed as the `fan_wait` stage.
    fn read(
        &self,
        sel: &Selector,
        written: Vec<Sent<'_>>,
    ) -> Result<Fan, Response> {
        let _span = self.metrics.span("fan_wait");
        let attempts: Vec<_> = written
            .into_iter()
            .map(|sent| {
                let attempt = match sent.call {
                    Call::Deferred => None,
                    Call::Done(outcome) => Some(outcome),
                    Call::Pending(mut transport) => Some(transport.recv()),
                };
                (sent.req, sent.cached, attempt)
            })
            .collect();
        let key = (sel.app.clone(), sel.version.clone());
        let mut fan = Fan::default();
        let mut updates: Vec<(usize, CoordCacheEntry)> = Vec::new();
        for (k, (req, cached, attempt)) in attempts.into_iter().enumerate() {
            let reply = match attempt {
                None => self.call_worker(k, &req),
                Some(Ok(resp)) => {
                    self.note_success(k);
                    Ok(resp)
                }
                Some(Err(e)) => {
                    self.note_failure(k, &e);
                    self.call_worker_from(k, &req, 1, e)
                }
            };
            match reply {
                Ok(Response::PartialNotModified { epoch }) => match cached {
                    Some(entry) => {
                        self.count_cache(true);
                        fan.found.push((k, epoch));
                        fan.partials.push(entry.partial);
                    }
                    None => {
                        return Err(Response::Error {
                            message: format!(
                                "worker {k}: NotModified without a token"
                            ),
                        })
                    }
                },
                Ok(Response::PartialState {
                    status,
                    epoch,
                    incarnation,
                    generation,
                    partial,
                }) => match status {
                    PartialStatus::Found => {
                        self.count_cache(false);
                        // The cache keeps a copy; the decoded partial
                        // is this fan's, for its merge to consume.
                        updates.push((
                            k,
                            CoordCacheEntry {
                                epoch,
                                incarnation,
                                generation,
                                partial: Arc::new(partial.clone()),
                            },
                        ));
                        fan.found.push((k, epoch));
                        fan.partials.push(Arc::new(partial));
                    }
                    PartialStatus::UnknownApp => {}
                    PartialStatus::UnknownEpoch => fan.unknown_epoch = true,
                },
                Ok(Response::Error { message }) => {
                    return Err(Response::Error {
                        message: format!("worker {k}: {message}"),
                    })
                }
                Ok(other) => {
                    return Err(Response::Error {
                        message: format!(
                            "worker {k}: unexpected response {other:?}"
                        ),
                    })
                }
                Err(_) => fan.missing.push(k as u32),
            }
        }
        if !updates.is_empty() {
            let mut cache = relock(&self.partial_cache);
            for (k, entry) in updates {
                cache[k].insert(key.clone(), entry);
            }
        }
        Ok(fan)
    }

    /// Reads and discards the replies a written selection still has
    /// in flight, so its connections carry nothing unread.
    fn drain(written: Vec<Sent<'_>>) {
        for sent in written {
            if let Call::Pending(mut transport) = sent.call {
                let _ = transport.recv();
            }
        }
    }

    /// Concatenates a fan's surviving partials in worker order — each
    /// worker's locally-0-based partial rebased to sit after the traces
    /// of the workers before it. A partial the cache shares is copied;
    /// a fresh one is consumed.
    fn merged(partials: Vec<Arc<ShardPartial>>) -> ShardPartial {
        let mut merged = ShardPartial::empty();
        let mut base = 0usize;
        for partial in partials {
            let n = partial.trace_count();
            merged = merged.merge(Arc::unwrap_or_clone(partial).rebase(base));
            base += n;
        }
        merged
    }

    /// Analyzes a fan's merged fleet and summarizes it, rendering
    /// nothing: what regressions and the report read.
    fn summarize(
        &self,
        partials: Vec<Arc<ShardPartial>>,
    ) -> Result<FleetSummary, Response> {
        let fleet = self
            .dx
            .analyze(Self::merged(partials))
            .map_err(analysis_error)?;
        Ok(self.dx.summarize(&fleet))
    }

    /// The unreachable shards an answer must name, sorted and each
    /// once — or, under [`DegradePolicy::Hold`], a typed error refusing
    /// any answer without them.
    fn hold(&self, mut missing: Vec<u32>) -> Result<Vec<u32>, Response> {
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() && self.config.policy == DegradePolicy::Hold {
            return Err(Response::Error {
                message: format!(
                    "shard(s) {missing:?} unreachable after {} attempt(s); \
                     held back by policy (no degraded answers)",
                    self.config.retry.max_attempts
                ),
            });
        }
        Ok(missing)
    }

    /// Vets the fans behind one query answer and returns the shards it
    /// must name as missing. Mirrors the single daemon: the policy
    /// check of [`Coordinator::hold`]; no reachable holder is its typed
    /// unknown-app/epoch error, qualified by any outage; and workers
    /// that resolved different epochs mean a rollover landed partway,
    /// which is an error rather than a merge across epochs.
    fn vet(&self, sel: &Selector, fans: &[&Fan]) -> Result<Vec<u32>, Response> {
        let missing =
            self.hold(fans.iter().flat_map(|f| f.missing.clone()).collect())?;
        if fans.iter().all(|f| f.found.is_empty()) {
            // A worker answers UnknownEpoch only for an explicit epoch
            // id (`None` resolves to the always-materialized current
            // epoch), so the unwrap below never fabricates an id.
            let mut message = if fans.iter().any(|f| f.unknown_epoch) {
                QueryError::UnknownEpoch {
                    app: sel.app.clone(),
                    epoch: sel.epoch.unwrap_or_default(),
                }
                .to_string()
            } else {
                QueryError::UnknownApp(sel.app.clone()).to_string()
            };
            if !missing.is_empty() {
                message.push_str(&format!(
                    " ({} shard(s) unreachable: {missing:?})",
                    missing.len()
                ));
            }
            return Err(Response::Error { message });
        }
        let epochs: Vec<(usize, u64)> =
            fans.iter().flat_map(|f| f.found.iter().copied()).collect();
        if epochs.iter().any(|(_, e)| *e != epochs[0].1) {
            return Err(Response::Error {
                message: format!(
                    "cluster epoch mismatch for app {:?}: {epochs:?} \
                     (a rollover did not reach every worker)",
                    sel.app
                ),
            });
        }
        Ok(missing)
    }

    /// Counts and logs an answer that leaves shards out; `detail`
    /// names the query in the event.
    fn note_degraded(&self, detail: &str, missing: &[u32]) {
        self.metrics.inc("cluster_degraded_queries_total", &[]);
        self.metrics.event(
            EventKind::DegradedQuery,
            format!("{detail} missing={missing:?}"),
        );
    }

    /// A fanned query's answer: `Report` when every shard answered,
    /// otherwise an explicitly `Degraded` one.
    fn answer(
        &self,
        json: String,
        missing: Vec<u32>,
        detail: &str,
    ) -> Response {
        if missing.is_empty() {
            return Response::Report { json };
        }
        self.note_degraded(detail, &missing);
        Response::Degraded { missing, json }
    }

    /// Fans a diagnosis out to every worker, rebases the surviving
    /// partials into one contiguous fleet, analyzes it and renders its
    /// canonical JSON from the analysis. All workers reachable →
    /// `Report`; some unreachable → `Degraded` (or a typed error under
    /// [`DegradePolicy::Hold`]).
    pub fn diagnose(&self, app: &str, epoch: Option<u64>) -> Response {
        let sel = Selector::new(app, epoch, None);
        self.fans(std::slice::from_ref(&sel), |fan| {
            let missing = self.vet(&sel, &[&fan])?;
            let json = {
                let _span = self.metrics.span("finish");
                let fleet = self
                    .dx
                    .analyze(Self::merged(fan.partials))
                    .map_err(analysis_error)?;
                self.dx.render_json(&fleet)
            };
            Ok(self.answer(json, missing, &format!("app={app}")))
        })
        .map_or_else(|error| error, |mut answers| answers.remove(0))
    }

    /// Differential query across two app releases: fans each release's
    /// partial out per worker, merges the two fleets exactly as
    /// [`Coordinator::diagnose`] would, and compares them with the
    /// same engine a single daemon uses — so a K-node cluster's
    /// regression verdict is byte-identical to one daemon holding the
    /// union of the shards. Shards unreachable in *either* fan degrade
    /// the answer explicitly, naming the missing workers once.
    pub fn regressions(
        &self,
        app: &str,
        epoch: Option<u64>,
        from: &str,
        to: &str,
        threshold: Option<f64>,
    ) -> Response {
        let config = match crate::server::regress_config(threshold) {
            Ok(config) => config,
            Err(error) => return error,
        };
        let _span = self.metrics.span("regress");
        self.metrics.inc("fleetd_regress_queries_total", &[]);
        let sels = [
            Selector::new(app, epoch, Some(from)),
            Selector::new(app, epoch, Some(to)),
        ];
        let answer = || {
            // Each release is summarized as its fan lands, the other
            // release's fetch in flight; the vetting below still
            // judges both fans before either summary is used.
            let fans = self.fans(&sels, |mut fan| {
                let summary = self.summarize(std::mem::take(&mut fan.partials));
                Ok((fan, summary))
            })?;
            let Ok([(from_fan, from_summary), (to_fan, to_summary)]) =
                <[_; 2]>::try_from(fans)
            else {
                unreachable!("two selections fan out to two answers")
            };
            // Both fans hit the same workers, so `vet` refuses to
            // compare releases across epochs as well as within one.
            let missing = self.vet(&sels[0], &[&from_fan, &to_fan])?;
            let report = energydx_regress::compare_summaries(
                from,
                &from_summary?,
                to,
                &to_summary?,
                &config,
            );
            self.metrics.inc(
                "fleetd_regress_verdicts_total",
                &[("verdict", report.verdict.as_str())],
            );
            let json = energydx_regress::regression_json(&report);
            let detail = format!("app={app} from={from} to={to}");
            Ok(self.answer(json, missing, &detail))
        };
        answer().unwrap_or_else(|error| error)
    }

    /// Renders the cluster-wide operator report: fans the catalog out,
    /// unions the per-worker accounting, fans every app epoch (and
    /// every current-epoch release) out exactly as
    /// [`Coordinator::diagnose`] does, and renders one pair of
    /// artifacts through the shared renderer. Workers that never saw
    /// an app or epoch contribute nothing; unreachable shards are
    /// named explicitly in the artifacts' Degraded banner — or, under
    /// [`DegradePolicy::Hold`], produce a typed error.
    pub fn report(&self, top: Option<u32>) -> Response {
        let _timer = self
            .metrics
            .timer("fleetd_report_render_duration_seconds", &[]);
        self.try_report(top).unwrap_or_else(|error| error)
    }

    fn try_report(&self, top: Option<u32>) -> Result<Response, Response> {
        let mut missing: Vec<u32> = Vec::new();
        let mut catalogs: Vec<AppCatalog> = Vec::new();
        let mut deployment = DeploymentCounters::default();
        for k in 0..self.workers.len() {
            match self.call_worker(k, &Request::Catalog) {
                Ok(Response::Catalog {
                    apps: worker_apps,
                    deployment: counters,
                }) => {
                    catalogs.extend(worker_apps);
                    deployment.shed += counters.shed;
                    deployment.spilled_runs += counters.spilled_runs;
                    deployment.spilled_traces += counters.spilled_traces;
                    for (layer, hits, misses) in counters.cache {
                        match deployment
                            .cache
                            .iter_mut()
                            .find(|(l, _, _)| *l == layer)
                        {
                            Some(line) => {
                                line.1 += hits;
                                line.2 += misses;
                            }
                            None => {
                                deployment.cache.push((layer, hits, misses))
                            }
                        }
                    }
                }
                Ok(Response::Error { message }) => {
                    return Err(Response::Error {
                        message: format!("worker {k}: {message}"),
                    })
                }
                Ok(other) => {
                    return Err(Response::Error {
                        message: format!(
                            "worker {k}: unexpected response {other:?}"
                        ),
                    })
                }
                Err(_) => missing.push(k as u32),
            }
        }
        let catalog = merge_catalogs(catalogs);
        let selections = crate::report::report_selections(&catalog);
        let summaries = self.fans(&selections, |fan| {
            missing.extend(&fan.missing);
            self.summarize(fan.partials)
        })?;
        let inputs = crate::report::report_inputs(&catalog, summaries);
        let missing = self.hold(missing)?;
        let panel = crate::report::deployment_panel(
            &deployment,
            crate::report::deployment_is_live(&self.metrics),
        );
        let model = build_model(
            &inputs,
            panel,
            missing.clone(),
            top.map_or(DEFAULT_TOP_APPS, |t| t as usize),
        );
        let html = render_html(&model);
        let json = render_json(&model);
        self.metrics.inc("fleetd_report_renders_total", &[]);
        if !missing.is_empty() {
            self.note_degraded("report", &missing);
        }
        Ok(Response::ReportArtifacts {
            missing,
            html,
            json,
        })
    }

    /// Fetches and stores every worker's replica checkpoint
    /// (re-validated before it enters the store). A worker that is
    /// unreachable, answers an error or sends an invalid checkpoint is
    /// not replicated; the others still are, and the answer names every
    /// miss.
    pub fn replicate_all(&self) -> Response {
        let failed: Vec<String> = (0..self.workers.len())
            .filter_map(|k| {
                self.replicate(k).err().map(|e| format!("worker {k}: {e}"))
            })
            .collect();
        if failed.is_empty() {
            Response::Done
        } else {
            Response::Error {
                message: format!(
                    "replication incomplete ({}); the other workers were \
                     replicated",
                    failed.join("; ")
                ),
            }
        }
    }

    /// Fetches, validates and stores worker `k`'s replica.
    fn replicate(&self, k: usize) -> Result<(), String> {
        let data = match self.call_worker(k, &Request::FetchCheckpoint) {
            Ok(Response::CheckpointData { data }) => data,
            Ok(Response::Error { message }) => return Err(message),
            Ok(other) => return Err(format!("unexpected response {other:?}")),
            Err(e) => return Err(format!("unreachable: {e}")),
        };
        let accepted = restore_bytes(&data, self.config.fleet.clone())
            .map_err(|e| format!("sent an invalid checkpoint: {e}"))?
            .accepted_total() as u64;
        let bytes = data.len();
        relock(&self.replicas)
            .store(k, data, accepted)
            .map_err(|e| format!("replica store failed: {e}"))?;
        let label = Self::worker_label(k);
        self.metrics
            .inc("cluster_replications_total", &[("worker", &label)]);
        self.metrics.set_gauge(
            "cluster_worker_replica_accepted",
            &[("worker", &label)],
            accepted as f64,
        );
        self.metrics.event(
            EventKind::Replication,
            format!("worker={k} accepted={accepted} bytes={bytes}"),
        );
        Ok(())
    }

    /// Broadcasts a rollover and then drives every lagging worker
    /// forward until all epochs agree (epoch alignment is what keeps
    /// cluster queries meaningful, and workers only increment). Any
    /// unreachable worker is a typed error naming it — some workers
    /// may already have rolled, and the error says so; re-running the
    /// rollover once the cluster is whole realigns them.
    fn rollover_all(&self, app: &str) -> Response {
        let req = Request::Rollover {
            app: app.to_string(),
        };
        let mut epochs: Vec<u64> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        for k in 0..self.workers.len() {
            match self.call_worker(k, &req) {
                Ok(Response::Epoch { epoch }) => epochs.push(epoch),
                Ok(other) => {
                    return Response::Error {
                        message: format!(
                            "worker {k}: unexpected response {other:?}"
                        ),
                    }
                }
                Err(_) => failed.push(k),
            }
        }
        if !failed.is_empty() {
            return Response::Error {
                message: format!(
                    "rollover incomplete: worker(s) {failed:?} unreachable \
                     ({} worker(s) already rolled — retry once the cluster \
                     is whole to realign epochs)",
                    epochs.len()
                ),
            };
        }
        // Workers only ever *increment* their epoch, so once skewed
        // (a partial rollover, or a manual roll on one worker) no
        // single broadcast can realign them. Drive every laggard
        // forward until the whole cluster sits at the max epoch seen.
        let target = *epochs.iter().max().expect("non-empty");
        for (k, epoch) in epochs.iter_mut().enumerate() {
            while *epoch < target {
                match self.call_worker(k, &req) {
                    Ok(Response::Epoch { epoch: rolled })
                        if rolled > *epoch =>
                    {
                        *epoch = rolled
                    }
                    Ok(other) => {
                        return Response::Error {
                            message: format!(
                                "worker {k}: epoch catch-up stalled at \
                                 {epoch}/{target}: {other:?}"
                            ),
                        }
                    }
                    Err(e) => {
                        return Response::Error {
                            message: format!(
                                "worker {k}: unreachable during epoch \
                                 catch-up at {epoch}/{target}: {e}"
                            ),
                        }
                    }
                }
            }
        }
        Response::Epoch { epoch: target }
    }

    fn broadcast(&self, req: &Request) -> Vec<usize> {
        let mut failed = Vec::new();
        for k in 0..self.workers.len() {
            match self.call_worker(k, req) {
                Ok(Response::Done) | Ok(Response::Epoch { .. }) => {}
                Ok(_) | Err(_) => failed.push(k),
            }
        }
        failed
    }

    /// Coordinator stats: routing/degradation counters and per-worker
    /// health + replication state, as one canonical JSON document.
    pub fn stats_json(&self) -> String {
        let degraded = self
            .metrics
            .registry()
            .and_then(|r| {
                r.counter_value("cluster_degraded_queries_total", &[])
            })
            .unwrap_or(0);
        // Replica info is snapshotted up front and breakers are read
        // one at a time below — never two locks at once, and never a
        // transport, so a stats request answers even while a worker
        // call is mid-retry.
        let replica_info: Vec<Option<(u64, usize)>> = {
            let replicas = relock(&self.replicas);
            (0..self.workers.len())
                .map(|k| replicas.get(k).map(|r| (r.accepted, r.data.len())))
                .collect()
        };
        let cache_counter = |name: &str| {
            self.metrics
                .registry()
                .and_then(|r| {
                    r.counter_value(name, &[("layer", "coordinator")])
                })
                .unwrap_or(0)
        };
        let cache_hits = cache_counter("fleetd_query_cache_hits_total");
        let cache_misses = cache_counter("fleetd_query_cache_misses_total");
        let cache_evictions =
            cache_counter("fleetd_query_cache_evictions_total");
        let cache_bytes = self.cached_partial_bytes();
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("degraded_queries");
            w.u64(degraded);
            w.key("policy");
            w.string(match self.config.policy {
                DegradePolicy::Degrade => "degrade",
                DegradePolicy::Hold => "hold",
            });
            w.key("query_cache");
            w.obj(|w| {
                w.key("coordinator");
                w.obj(|w| {
                    w.key("bytes");
                    w.usize(cache_bytes);
                    w.key("evictions");
                    w.u64(cache_evictions);
                    w.key("hits");
                    w.u64(cache_hits);
                    w.key("misses");
                    w.u64(cache_misses);
                });
            });
            w.key("workers");
            w.obj(|w| {
                for (k, replica) in replica_info.iter().enumerate() {
                    let (open, failures) = {
                        let breaker = relock(&self.workers[k].breaker);
                        (breaker.is_open(), breaker.consecutive_failures())
                    };
                    let label = Self::worker_label(k);
                    w.key(&label);
                    w.obj(|w| {
                        w.key("circuit_open");
                        w.raw(if open { "true" } else { "false" });
                        w.key("consecutive_failures");
                        w.u64(u64::from(failures));
                        w.key("healthy");
                        w.raw(if failures == 0 { "true" } else { "false" });
                        w.key("replica_accepted");
                        match replica {
                            Some((accepted, _)) => w.u64(*accepted),
                            None => w.raw("null"),
                        }
                        w.key("replica_bytes");
                        match replica {
                            Some((_, bytes)) => w.usize(*bytes),
                            None => w.raw("null"),
                        }
                    });
                }
            });
        });
        w.into_line()
    }

    /// Coordinator liveness: worker count, how many are currently
    /// trusted, and the degradation policy.
    pub fn health_json(&self) -> String {
        let healthy = self
            .workers
            .iter()
            .filter(|slot| relock(&slot.breaker).consecutive_failures() == 0)
            .count();
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("healthy_workers");
            w.usize(healthy);
            w.key("policy");
            w.string(match self.config.policy {
                DegradePolicy::Degrade => "degrade",
                DegradePolicy::Hold => "hold",
            });
            w.key("status");
            w.string(if healthy == self.workers.len() {
                "ok"
            } else {
                "degraded"
            });
            w.key("workers");
            w.usize(self.workers.len());
        });
        w.into_line()
    }

    /// Prometheus exposition of the coordinator's registry, with the
    /// per-worker health/replica gauges refreshed first.
    pub fn metrics_text(&self) -> String {
        // Same discipline as `stats_json`: snapshot replicas first,
        // then read each breaker on its own — no transport, no two
        // locks held together.
        let replica_accepted: Vec<Option<u64>> = {
            let replicas = relock(&self.replicas);
            (0..self.workers.len())
                .map(|k| replicas.get(k).map(|r| r.accepted))
                .collect()
        };
        for (k, slot) in self.workers.iter().enumerate() {
            let failures = relock(&slot.breaker).consecutive_failures();
            let label = Self::worker_label(k);
            self.metrics.set_gauge(
                "cluster_worker_healthy",
                &[("worker", &label)],
                if failures == 0 { 1.0 } else { 0.0 },
            );
            self.metrics.set_gauge(
                "cluster_worker_consecutive_failures",
                &[("worker", &label)],
                f64::from(failures),
            );
            if let Some(accepted) = replica_accepted[k] {
                self.metrics.set_gauge(
                    "cluster_worker_replica_accepted",
                    &[("worker", &label)],
                    accepted as f64,
                );
            }
        }
        self.metrics.set_gauge(
            "fleetd_query_cache_bytes",
            &[("layer", "coordinator")],
            self.cached_partial_bytes() as f64,
        );
        self.metrics.set_gauge(
            "energydx_build_info",
            &[("version", env!("CARGO_PKG_VERSION"))],
            1.0,
        );
        match self.metrics.registry() {
            Some(reg) => reg.render_prometheus(),
            None => String::new(),
        }
    }

    /// Broadcasts `Shutdown` to every worker (best effort — a dead
    /// worker is already down) before the coordinator itself stops.
    fn shutdown_workers(&self) -> Response {
        let _ = self.broadcast(&Request::Shutdown);
        Response::Done
    }
}

impl Dispatch for Coordinator {
    fn handle_request(&self, req: Request) -> Response {
        let kind = match &req {
            Request::Submit { .. } => "submit",
            Request::Diagnose { .. } => "diagnose",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::Checkpoint => "checkpoint",
            Request::Rollover { .. } => "rollover",
            Request::Shutdown => "shutdown",
            Request::Metrics => "metrics",
            Request::Regressions { .. } => "regressions",
            Request::Report { .. } => "report",
            _ => "worker_only",
        };
        let _span = self
            .metrics
            .timer("cluster_request_duration_seconds", &[("kind", kind)]);
        match req {
            Request::Submit { app, payload } => self.submit(&app, payload),
            Request::Diagnose { app, epoch } => self.diagnose(&app, epoch),
            Request::Stats => Response::Stats {
                json: self.stats_json(),
            },
            Request::Health => Response::Health {
                json: self.health_json(),
            },
            Request::Checkpoint => self.replicate_all(),
            Request::Rollover { app } => self.rollover_all(&app),
            Request::Shutdown => self.shutdown_workers(),
            Request::Metrics => Response::Metrics {
                text: self.metrics_text(),
            },
            Request::Regressions {
                app,
                epoch,
                from,
                to,
                threshold,
            } => self.regressions(&app, epoch, &from, &to, threshold),
            Request::Report { top } => self.report(top),
            Request::PartialSince { .. }
            | Request::FetchCheckpoint
            | Request::InstallCheckpoint { .. }
            | Request::Catalog
            | Request::Counts => Response::Error {
                message: "worker-only request sent to a coordinator"
                    .to_string(),
            },
        }
    }
}

/// Unions worker report catalogs into one, sorted by app and epoch:
/// per epoch, counts add, quarantine reasons sum (sorted by label)
/// and release labels union. A rollover that reached only some
/// workers leaves epochs skewed; an app's current epoch is the newest
/// any worker has opened.
fn merge_catalogs(catalogs: Vec<AppCatalog>) -> Vec<AppCatalog> {
    let mut apps: BTreeMap<String, AppCatalog> = BTreeMap::new();
    for cat in catalogs {
        let app = apps.entry(cat.app.clone()).or_insert_with(|| AppCatalog {
            app: cat.app,
            current_epoch: cat.current_epoch,
            epochs: Vec::new(),
        });
        app.current_epoch = app.current_epoch.max(cat.current_epoch);
        for epoch in cat.epochs {
            match app.epochs.binary_search_by_key(&epoch.epoch, |e| e.epoch) {
                Ok(i) => {
                    let slot = &mut app.epochs[i];
                    slot.clean += epoch.clean;
                    slot.recovered += epoch.recovered;
                    slot.quarantine.extend(epoch.quarantine);
                    slot.versions.extend(epoch.versions);
                }
                Err(i) => app.epochs.insert(i, epoch),
            }
        }
    }
    let mut merged: Vec<AppCatalog> = apps.into_values().collect();
    for epoch in merged.iter_mut().flat_map(|app| &mut app.epochs) {
        let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
        for (reason, n) in epoch.quarantine.drain(..) {
            *reasons.entry(reason).or_insert(0) += n;
        }
        epoch.quarantine = reasons.into_iter().collect();
        epoch.versions.sort();
        epoch.versions.dedup();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{shard_for_user, InProcessTransport, WorkerSlot};
    use crate::fixture;
    use crate::protocol::OutcomeCode;
    use crate::server::{FleetdHandle, ServerConfig};
    use crate::state::FleetState;

    struct TestCluster {
        coordinator: Coordinator,
        slots: Vec<WorkerSlot>,
    }

    fn test_config() -> CoordinatorConfig {
        CoordinatorConfig {
            retry: RetryBudget {
                max_attempts: 2,
                base_backoff_ms: 0, // never sleep in tests
                max_backoff_ms: 0,
            },
            ..CoordinatorConfig::default()
        }
    }

    fn cluster_on(
        config: CoordinatorConfig,
        workers: usize,
        registry: Arc<MetricsRegistry>,
    ) -> TestCluster {
        let slots: Vec<WorkerSlot> = (0..workers)
            .map(|_| {
                let handle = FleetdHandle::start(ServerConfig::default())
                    .expect("worker start");
                Arc::new(Mutex::new(Some(Arc::new(handle))))
            })
            .collect();
        let transports: Vec<Box<dyn WorkerTransport>> = slots
            .iter()
            .map(|slot| {
                Box::new(InProcessTransport::new(Arc::clone(slot)))
                    as Box<dyn WorkerTransport>
            })
            .collect();
        let coordinator =
            Coordinator::with_registry(config, transports, registry).unwrap();
        TestCluster { coordinator, slots }
    }

    fn cluster_with(config: CoordinatorConfig, workers: usize) -> TestCluster {
        cluster_on(config, workers, Arc::new(MetricsRegistry::new()))
    }

    fn cluster(workers: usize) -> TestCluster {
        cluster_with(test_config(), workers)
    }

    fn uploads(n: u64) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let user = format!("u{:02}", i % 7);
                (user.clone(), fixture::payload(&user, i / 7))
            })
            .collect()
    }

    /// Submits `uploads` to `state` in shard order: worker 0's accepted
    /// sequence, then worker 1's, and so on.
    fn feed(
        state: &mut FleetState,
        uploads: &[(String, Vec<u8>)],
        workers: usize,
    ) {
        for k in 0..workers {
            for (user, payload) in uploads {
                if shard_for_user("mail", user, workers) == k {
                    assert!(state.submit("mail", payload).accepted());
                }
            }
        }
    }

    /// The single-daemon reference for a cluster: one deterministic
    /// daemon holding the per-worker accepted sequences concatenated in
    /// worker order.
    fn reference_state(
        uploads: &[(String, Vec<u8>)],
        workers: usize,
    ) -> FleetState {
        let mut state = FleetState::with_registry(
            FleetConfig::default(),
            Arc::new(MetricsRegistry::deterministic()),
        );
        feed(&mut state, uploads, workers);
        state
    }

    /// The batch reference for a cluster's diagnosis.
    fn reference_json(uploads: &[(String, Vec<u8>)], workers: usize) -> String {
        reference_state(uploads, workers)
            .diagnose_json("mail", None)
            .unwrap()
    }

    /// A fleet whose uploads alternate between two app releases —
    /// every user contributes sessions under both, so a regression
    /// query has populations on each side.
    fn versioned_uploads(n: u64) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let user = format!("u{:02}", i % 7);
                let version = if i % 2 == 0 { "1.9.0" } else { "2.0.0" };
                (
                    user.clone(),
                    fixture::payload_versioned(&user, i / 7, version),
                )
            })
            .collect()
    }

    /// The single-daemon regression reference for a cluster.
    fn regress_reference_json(
        uploads: &[(String, Vec<u8>)],
        workers: usize,
    ) -> String {
        reference_state(uploads, workers)
            .regressions_json(
                "mail",
                None,
                "1.9.0",
                "2.0.0",
                &energydx_regress::RegressConfig::default(),
            )
            .unwrap()
    }

    fn drive(cluster: &TestCluster, uploads: &[(String, Vec<u8>)]) {
        for (_, payload) in uploads {
            match cluster.coordinator.submit("mail", payload.clone()) {
                Response::Outcome { code, .. } => {
                    assert_ne!(code, OutcomeCode::Rejected)
                }
                other => panic!("unexpected submit response {other:?}"),
            }
        }
    }

    #[test]
    fn cluster_queries_match_the_batch_reference() {
        for workers in 1..=3 {
            let cluster = cluster(workers);
            let ups = uploads(21);
            drive(&cluster, &ups);
            match cluster.coordinator.diagnose("mail", None) {
                Response::Report { json } => {
                    assert_eq!(json, reference_json(&ups, workers))
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn a_dead_shard_degrades_explicitly_then_recovers() {
        let cluster = cluster(3);
        let ups = uploads(21);
        drive(&cluster, &ups);
        let full = match cluster.coordinator.diagnose("mail", None) {
            Response::Report { json } => json,
            other => panic!("unexpected response {other:?}"),
        };
        // kill -9 worker 1: its handle vanishes mid-conversation.
        let taken = relock(&cluster.slots[1]).take();
        let keep_alive = taken.expect("worker 1 was live");
        match cluster.coordinator.diagnose("mail", None) {
            Response::Degraded { missing, json } => {
                assert_eq!(missing, vec![1]);
                // The degraded answer is the exact reference over the
                // surviving shards — no silent partial.
                let survivors: Vec<(String, Vec<u8>)> = ups
                    .iter()
                    .filter(|(u, _)| shard_for_user("mail", u, 3) != 1)
                    .cloned()
                    .collect();
                let mut state = FleetState::new(FleetConfig::default());
                for k in [0usize, 2] {
                    for (user, payload) in &survivors {
                        if shard_for_user("mail", user, 3) == k {
                            assert!(state.submit("mail", payload).accepted());
                        }
                    }
                }
                assert_eq!(json, state.diagnose_json("mail", None).unwrap());
            }
            other => panic!("unexpected response {other:?}"),
        }
        // An upload routed to the dead shard is explicit backpressure.
        let dead_user = (0..100)
            .map(|i| format!("u{i:02}"))
            .find(|u| shard_for_user("mail", u, 3) == 1)
            .unwrap();
        match cluster
            .coordinator
            .submit("mail", fixture::payload(&dead_user, 9000))
        {
            Response::RetryAfter { ms } => assert!(ms > 0),
            other => panic!("unexpected response {other:?}"),
        }
        // The worker comes back (state intact): the next query probes,
        // closes the breaker, and the full answer returns.
        *relock(&cluster.slots[1]) = Some(keep_alive);
        match cluster.coordinator.diagnose("mail", None) {
            Response::Report { json } => assert_eq!(json, full),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn hold_policy_refuses_partial_answers() {
        let config = CoordinatorConfig {
            policy: DegradePolicy::Hold,
            ..test_config()
        };
        let cluster = cluster_with(config, 2);
        let ups = uploads(14);
        drive(&cluster, &ups);
        relock(&cluster.slots[0]).take();
        match cluster.coordinator.diagnose("mail", None) {
            Response::Error { message } => {
                assert!(message.contains("unreachable"), "{message}");
                assert!(message.contains("held back"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn handoff_restores_a_replacement_worker_from_the_replica() {
        let cluster = cluster(3);
        let ups = uploads(21);
        drive(&cluster, &ups);
        let full = match cluster.coordinator.diagnose("mail", None) {
            Response::Report { json } => json,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(matches!(
            cluster.coordinator.replicate_all(),
            Response::Done
        ));
        // kill -9 worker 2; the coordinator observes the outage.
        relock(&cluster.slots[2]).take();
        assert!(matches!(
            cluster.coordinator.diagnose("mail", None),
            Response::Degraded { .. }
        ));
        // A blank replacement worker takes the slot. The next query
        // probes, sees fewer accepted uploads than the replica, and
        // installs the replica before the partial request lands.
        let replacement = FleetdHandle::start(ServerConfig::default()).unwrap();
        *relock(&cluster.slots[2]) = Some(Arc::new(replacement));
        match cluster.coordinator.diagnose("mail", None) {
            Response::Report { json } => assert_eq!(json, full),
            other => panic!("unexpected response {other:?}"),
        }
        let handoffs = cluster
            .coordinator
            .metrics()
            .registry()
            .unwrap()
            .counter_value("cluster_handoffs_total", &[("worker", "2")]);
        assert_eq!(handoffs, Some(1));
    }

    /// Workers that spill everything (budget 0) behind a coordinator
    /// with no spill directory: each replica carries its spilled runs
    /// inline, so replication succeeds, a blank replacement on a fresh
    /// disk serves the pre-kill bytes, and a coordinator restarted over
    /// its persisted replicas starts.
    #[test]
    fn spilling_workers_replicate_and_hand_off_to_a_fresh_disk() {
        let root = std::env::temp_dir()
            .join(format!("energydx-coord-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spilling = |dir: &str| {
            let config = ServerConfig {
                fleet: FleetConfig {
                    spill: Some(crate::spill::SpillConfig {
                        dir: root.join(dir),
                        mem_budget: 0,
                    }),
                    ..FleetConfig::default()
                },
                ..ServerConfig::default()
            };
            Arc::new(FleetdHandle::start(config).expect("worker start"))
        };
        let slots: Vec<WorkerSlot> = (0..2)
            .map(|k| Arc::new(Mutex::new(Some(spilling(&format!("w{k}"))))))
            .collect();
        let transports = || -> Vec<Box<dyn WorkerTransport>> {
            slots
                .iter()
                .map(|slot| {
                    Box::new(InProcessTransport::new(Arc::clone(slot)))
                        as Box<dyn WorkerTransport>
                })
                .collect()
        };
        let config = CoordinatorConfig {
            state_dir: Some(root.join("coordinator")),
            ..test_config()
        };
        let cluster = TestCluster {
            coordinator: Coordinator::new(config.clone(), transports())
                .unwrap(),
            slots: slots.clone(),
        };
        let ups = uploads(20);
        drive(&cluster, &ups);
        let diagnose = |coordinator: &Coordinator| match coordinator
            .diagnose("mail", None)
        {
            Response::Report { json } => json,
            other => panic!("unexpected response {other:?}"),
        };
        let reference = reference_json(&ups, 2);
        assert_eq!(diagnose(&cluster.coordinator), reference);
        match cluster.coordinator.replicate_all() {
            Response::Done => {}
            other => panic!("replication failed: {other:?}"),
        }
        // kill -9 worker 1; a blank node on a fresh disk takes its slot.
        *relock(&slots[1]) = Some(spilling("w1-fresh"));
        cluster.coordinator.recover_worker(1).expect("handoff");
        assert_eq!(diagnose(&cluster.coordinator), reference);
        // The replacement spilled the installed traces to its own disk.
        let spilled = std::fs::read_dir(root.join("w1-fresh"))
            .expect("the replacement's spill directory")
            .count();
        assert!(spilled > 0, "the replacement kept everything resident");
        drop(cluster);
        let restarted = Coordinator::new(config, transports())
            .expect("a coordinator restarts over its persisted replicas");
        assert_eq!(diagnose(&restarted), reference);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_apps_mirror_the_single_node_error() {
        let cluster = cluster(2);
        match cluster.coordinator.diagnose("nope", None) {
            Response::Error { message } => {
                assert_eq!(
                    message,
                    QueryError::UnknownApp("nope".to_string()).to_string()
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
        // With a shard down, "unknown" is qualified — the app might
        // live entirely on the dead worker.
        relock(&cluster.slots[1]).take();
        match cluster.coordinator.diagnose("nope", None) {
            Response::Error { message } => {
                assert!(message.contains("unknown app"), "{message}");
                assert!(message.contains("unreachable"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn epoch_misalignment_is_a_typed_error_never_a_wrong_merge() {
        let cluster = cluster(2);
        let ups = uploads(14);
        drive(&cluster, &ups);
        // Roll one worker behind the coordinator's back.
        let handle = Arc::clone(relock(&cluster.slots[0]).as_ref().unwrap());
        handle.handle_request(Request::Rollover {
            app: "mail".to_string(),
        });
        match cluster.coordinator.diagnose("mail", None) {
            Response::Error { message } => {
                assert!(message.contains("epoch mismatch"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // A cluster-wide rollover realigns and queries work again.
        match cluster.coordinator.handle_request(Request::Rollover {
            app: "mail".to_string(),
        }) {
            Response::Epoch { epoch } => assert!(epoch >= 1),
            other => panic!("unexpected response {other:?}"),
        }
        assert!(matches!(
            cluster.coordinator.diagnose("mail", None),
            Response::Report { .. }
        ));
    }

    /// As [`cluster`], but rendering through a deterministic registry
    /// so the report's deployment panel pins (the byte-identity
    /// surface contract).
    fn deterministic_cluster(workers: usize) -> TestCluster {
        cluster_on(
            test_config(),
            workers,
            Arc::new(MetricsRegistry::deterministic()),
        )
    }

    #[test]
    fn cluster_report_matches_the_single_daemon_reference() {
        let cluster = deterministic_cluster(3);
        let ups = versioned_uploads(21);
        drive(&cluster, &ups);
        let (missing, html, json) = match cluster.coordinator.report(None) {
            Response::ReportArtifacts {
                missing,
                html,
                json,
            } => (missing, html, json),
            other => panic!("unexpected response {other:?}"),
        };
        assert!(missing.is_empty());
        let state = reference_state(&ups, 3);
        let reference = crate::report::fleet_report(&state, 0, None).unwrap();
        assert_eq!(html, reference.html);
        assert_eq!(json, reference.json);
    }

    #[test]
    fn a_degraded_cluster_report_names_the_missing_shard() {
        let cluster = deterministic_cluster(3);
        let ups = versioned_uploads(21);
        drive(&cluster, &ups);
        relock(&cluster.slots[1]).take();
        match cluster.coordinator.report(Some(8)) {
            Response::ReportArtifacts {
                missing,
                html,
                json,
            } => {
                assert_eq!(missing, vec![1]);
                assert!(html.contains("Degraded: shard(s) 1 unreachable"));
                assert!(json.contains("\"degraded\": true"));
                energydx_report::check_well_formed(&html).unwrap();
            }
            other => panic!("unexpected response {other:?}"),
        }
        let degraded = cluster
            .coordinator
            .metrics()
            .registry()
            .unwrap()
            .counter_value("cluster_degraded_queries_total", &[]);
        assert_eq!(degraded, Some(1));
    }

    struct FailingTransport {
        attempts: Arc<Mutex<u32>>,
    }

    impl WorkerTransport for FailingTransport {
        fn call(&mut self, _req: &Request) -> Result<Response, ClientError> {
            *relock(&self.attempts) += 1;
            Err(ClientError::TimedOut)
        }
    }

    #[test]
    fn retries_are_bounded_so_the_coordinator_never_hangs() {
        let attempts = Arc::new(Mutex::new(0u32));
        let transport = Box::new(FailingTransport {
            attempts: Arc::clone(&attempts),
        }) as Box<dyn WorkerTransport>;
        let coordinator =
            Coordinator::new(test_config(), vec![transport]).unwrap();
        match coordinator.submit("mail", fixture::payload("u1", 0)) {
            Response::RetryAfter { ms } => assert!(ms > 0),
            other => panic!("unexpected response {other:?}"),
        }
        let max = test_config().retry.max_attempts;
        assert_eq!(*relock(&attempts), max);
        // Subsequent traffic is breaker-gated: far fewer transport
        // calls than attempts once the circuit opens.
        for _ in 0..10 {
            let _ = coordinator.submit("mail", fixture::payload("u1", 1));
        }
        let total = *relock(&attempts);
        assert!(
            total < max * 11,
            "breaker failed to shed load: {total} calls"
        );
    }

    /// A transport that parks inside `call` until released — the shape
    /// of a live-but-slow worker holding a connection open.
    struct StallingTransport {
        started: std::sync::mpsc::Sender<()>,
        release: Arc<(Mutex<bool>, std::sync::Condvar)>,
    }

    impl WorkerTransport for StallingTransport {
        fn call(&mut self, _req: &Request) -> Result<Response, ClientError> {
            let _ = self.started.send(());
            let (lock, cv) = &*self.release;
            let mut released = relock(lock);
            while !*released {
                released = cv.wait(released).unwrap();
            }
            Err(ClientError::TimedOut)
        }
    }

    /// Regression test for the stats/submit lock inversion: the
    /// observability endpoints must answer while a worker call is in
    /// flight. The old code held the whole worker slot across the
    /// transport call (and took replicas + slots in the opposite order
    /// of the probe path), so this test deadlocked.
    #[test]
    fn stats_never_wait_on_an_in_flight_worker_call() {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let release = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let transport = Box::new(StallingTransport {
            started: started_tx,
            release: Arc::clone(&release),
        }) as Box<dyn WorkerTransport>;
        let config = CoordinatorConfig {
            retry: RetryBudget {
                max_attempts: 1,
                base_backoff_ms: 0,
                max_backoff_ms: 0,
            },
            ..CoordinatorConfig::default()
        };
        let coordinator =
            Arc::new(Coordinator::new(config, vec![transport]).unwrap());
        let submitter = {
            let coordinator = Arc::clone(&coordinator);
            std::thread::spawn(move || {
                coordinator.submit("mail", fixture::payload("u1", 0))
            })
        };
        // The worker call is underway and will block until released.
        started_rx.recv().unwrap();
        assert!(coordinator.stats_json().contains("\"workers\""));
        assert!(coordinator.health_json().contains("\"status\""));
        let _ = coordinator.metrics_text();
        let (lock, cv) = &*release;
        *relock(lock) = true;
        cv.notify_all();
        match submitter.join().unwrap() {
            Response::RetryAfter { ms } => assert!(ms > 0),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn stats_and_health_report_per_worker_state() {
        let cluster = cluster(2);
        drive(&cluster, &uploads(7));
        assert!(matches!(
            cluster.coordinator.replicate_all(),
            Response::Done
        ));
        let stats = cluster.coordinator.stats_json();
        assert!(stats.contains("\"workers\""), "{stats}");
        assert!(stats.contains("\"replica_accepted\""), "{stats}");
        assert!(stats.contains("\"circuit_open\": false"), "{stats}");
        let health = cluster.coordinator.health_json();
        assert!(health.contains("\"status\": \"ok\""), "{health}");
        relock(&cluster.slots[1]).take();
        let _ = cluster.coordinator.diagnose("mail", None);
        let health = cluster.coordinator.health_json();
        assert!(health.contains("\"status\": \"degraded\""), "{health}");
        assert!(health.contains("\"healthy_workers\": 1"), "{health}");
    }

    #[test]
    fn cluster_regressions_match_the_single_daemon() {
        for workers in 1..=3 {
            let cluster = cluster(workers);
            let ups = versioned_uploads(28);
            drive(&cluster, &ups);
            let reference = regress_reference_json(&ups, workers);
            let req = Request::Regressions {
                app: "mail".to_string(),
                epoch: None,
                from: "1.9.0".to_string(),
                to: "2.0.0".to_string(),
                threshold: None,
            };
            // Cold query populates the per-release coordinator cache;
            // the warm repeat rides NotModified — both byte-identical
            // to a single daemon holding the union of the shards.
            for _ in 0..2 {
                match cluster.coordinator.handle_request(req.clone()) {
                    Response::Report { json } => assert_eq!(json, reference),
                    other => panic!("unexpected response {other:?}"),
                }
            }
            let hits = cluster
                .coordinator
                .metrics()
                .registry()
                .unwrap()
                .counter_value(
                    "fleetd_query_cache_hits_total",
                    &[("layer", "coordinator")],
                )
                .unwrap_or(0);
            // Two releases × every holding worker answered NotModified
            // on the repeat.
            assert!(hits > 0, "warm regression query must ride the cache");
        }
    }

    #[test]
    fn a_dead_shard_degrades_regression_answers_naming_it() {
        let cluster = cluster(3);
        let ups = versioned_uploads(28);
        drive(&cluster, &ups);
        // kill -9 worker 1: the regression answer must degrade
        // explicitly, naming the missing shard exactly once even
        // though both release fans observed the outage.
        relock(&cluster.slots[1]).take();
        match cluster
            .coordinator
            .regressions("mail", None, "1.9.0", "2.0.0", None)
        {
            Response::Degraded { missing, json } => {
                assert_eq!(missing, vec![1]);
                let survivors: Vec<(String, Vec<u8>)> = ups
                    .iter()
                    .filter(|(u, _)| shard_for_user("mail", u, 3) != 1)
                    .cloned()
                    .collect();
                let mut state = FleetState::new(FleetConfig::default());
                for k in [0usize, 2] {
                    for (user, payload) in &survivors {
                        if shard_for_user("mail", user, 3) == k {
                            assert!(state.submit("mail", payload).accepted());
                        }
                    }
                }
                let reference = state
                    .regressions_json(
                        "mail",
                        None,
                        "1.9.0",
                        "2.0.0",
                        &energydx_regress::RegressConfig::default(),
                    )
                    .unwrap();
                assert_eq!(json, reference);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn unknown_apps_in_regressions_mirror_the_single_node_error() {
        let cluster = cluster(2);
        match cluster
            .coordinator
            .regressions("nope", None, "v1", "v2", None)
        {
            Response::Error { message } => {
                assert_eq!(
                    message,
                    QueryError::UnknownApp("nope".to_string()).to_string()
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn a_nan_or_negative_wire_threshold_is_refused_by_value() {
        let cluster = cluster(2);
        drive(&cluster, &versioned_uploads(12));
        let request = |threshold| Request::Regressions {
            app: "mail".to_string(),
            epoch: None,
            from: "1.9.0".to_string(),
            to: "2.0.0".to_string(),
            threshold: Some(threshold),
        };
        for (threshold, shown) in [(f64::NAN, "NaN"), (-0.5, "-0.5")] {
            match cluster.coordinator.handle_request(request(threshold)) {
                Response::Error { message } => assert!(
                    message.contains(&format!("threshold {shown}:")),
                    "{message}"
                ),
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(matches!(
            cluster.coordinator.handle_request(request(0.5)),
            Response::Report { .. }
        ));
    }

    #[test]
    fn worker_only_requests_are_rejected_at_the_coordinator() {
        let cluster = cluster(1);
        for req in [
            Request::Counts,
            Request::FetchCheckpoint,
            Request::PartialSince {
                app: "mail".to_string(),
                epoch: None,
                version: None,
                token: None,
            },
            Request::PartialSince {
                app: "mail".to_string(),
                epoch: None,
                version: Some("2.0.0".to_string()),
                token: None,
            },
        ] {
            match cluster.coordinator.handle_request(req) {
                Response::Error { message } => {
                    assert!(message.contains("worker-only"), "{message}")
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn repeat_queries_ride_not_modified_and_stay_byte_identical() {
        let cluster = cluster(3);
        let mut ups = uploads(21);
        drive(&cluster, &ups);
        let counter = |name: &str| {
            cluster
                .coordinator
                .metrics()
                .registry()
                .and_then(|r| {
                    r.counter_value(name, &[("layer", "coordinator")])
                })
                .unwrap_or(0)
        };
        // Cold query: every holding worker ships a full partial.
        let first = match cluster.coordinator.diagnose("mail", None) {
            Response::Report { json } => json,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(first, reference_json(&ups, 3));
        let cold_misses = counter("fleetd_query_cache_misses_total");
        assert!(cold_misses > 0, "cold query must populate the cache");
        assert_eq!(counter("fleetd_query_cache_hits_total"), 0);
        // Warm repeat: nothing changed, so every worker answers
        // `NotModified` and the bytes come from the coordinator cache.
        match cluster.coordinator.diagnose("mail", None) {
            Response::Report { json } => assert_eq!(json, first),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(counter("fleetd_query_cache_hits_total"), cold_misses);
        assert_eq!(counter("fleetd_query_cache_misses_total"), cold_misses);
        // One more upload dirties exactly one shard: the next query
        // refetches that worker's partial and reuses the others'.
        let extra = ("u00".to_string(), fixture::payload("u00", 9001));
        match cluster.coordinator.submit("mail", extra.1.clone()) {
            Response::Outcome { code, .. } => {
                assert_ne!(code, OutcomeCode::Rejected)
            }
            other => panic!("unexpected submit response {other:?}"),
        }
        ups.push(extra);
        match cluster.coordinator.diagnose("mail", None) {
            Response::Report { json } => {
                assert_eq!(json, reference_json(&ups, 3))
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(
            counter("fleetd_query_cache_misses_total"),
            cold_misses + 1,
            "only the dirtied shard may resend its partial"
        );
        assert_eq!(
            counter("fleetd_query_cache_hits_total"),
            cold_misses + (cold_misses - 1),
        );
        // The coordinator's stats document exposes the same counters.
        let stats = cluster.coordinator.stats_json();
        assert!(stats.contains("\"query_cache\""), "{stats}");
    }

    fn coordinator_cache_counter(cluster: &TestCluster, name: &str) -> u64 {
        cluster
            .coordinator
            .metrics()
            .registry()
            .and_then(|r| r.counter_value(name, &[("layer", "coordinator")]))
            .unwrap_or(0)
    }

    #[test]
    fn a_report_rides_the_release_partials_a_regression_fetched() {
        let cluster = deterministic_cluster(3);
        let ups = versioned_uploads(28);
        drive(&cluster, &ups);
        let reference = reference_state(&ups, 3);
        let holders = (0..3)
            .filter(|&k| {
                ups.iter().any(|(u, _)| shard_for_user("mail", u, 3) == k)
            })
            .count() as u64;
        let counts = || {
            (
                coordinator_cache_counter(
                    &cluster,
                    "fleetd_query_cache_hits_total",
                ),
                coordinator_cache_counter(
                    &cluster,
                    "fleetd_query_cache_misses_total",
                ),
            )
        };
        let regressions = Request::Regressions {
            app: "mail".to_string(),
            epoch: None,
            from: "1.9.0".to_string(),
            to: "2.0.0".to_string(),
            threshold: None,
        };
        assert_eq!(
            cluster.coordinator.handle_request(regressions),
            Response::Report {
                json: regress_reference_json(&ups, 3)
            }
        );
        assert_eq!(counts(), (0, 2 * holders));
        // The report's per-release fans of the current epoch present
        // the tokens the regression stored under `(app, release)`:
        // every unchanged holder answers NotModified. Only its
        // whole-epoch fan is cold.
        let expected = crate::report::fleet_report(&reference, 0, None)
            .expect("the reference renders");
        assert_eq!(
            cluster
                .coordinator
                .handle_request(Request::Report { top: None }),
            Response::ReportArtifacts {
                missing: Vec::new(),
                html: expected.html,
                json: expected.json,
            }
        );
        assert_eq!(counts(), (2 * holders, 3 * holders));
        // One entry per release plus the whole-epoch one, per holder —
        // not one per (requested epoch, release) pair.
        let cache = relock(&cluster.coordinator.partial_cache);
        let entries: Vec<usize> = cache.iter().map(BTreeMap::len).collect();
        assert!(entries.iter().all(|&n| n == 0 || n == 3), "{entries:?}");
    }

    #[test]
    fn a_frozen_epoch_diagnose_replaces_the_whole_epoch_entry() {
        let cluster = deterministic_cluster(3);
        let ups = uploads(21);
        drive(&cluster, &ups);
        let rollover = Request::Rollover {
            app: "mail".to_string(),
        };
        let answer = cluster.coordinator.handle_request(rollover);
        assert!(matches!(answer, Response::Epoch { epoch: 1 }));
        drive(&cluster, &ups[..7]);
        let mut reference = reference_state(&ups, 3);
        reference.rollover("mail");
        feed(&mut reference, &ups[..7], 3);
        let diagnose = |epoch: Option<u64>| {
            let req = Request::Diagnose {
                app: "mail".to_string(),
                epoch,
            };
            assert_eq!(
                cluster.coordinator.handle_request(req),
                Response::Report {
                    json: reference.diagnose_json("mail", epoch).unwrap()
                }
            );
            (
                coordinator_cache_counter(
                    &cluster,
                    "fleetd_query_cache_hits_total",
                ),
                coordinator_cache_counter(
                    &cluster,
                    "fleetd_query_cache_misses_total",
                ),
            )
        };
        // The rollover reached every worker, so all three hold the app.
        assert_eq!(diagnose(None), (0, 3));
        // The frozen epoch's fetch cannot ride the current epoch's
        // token, and it takes over the `(app, None)` entry...
        assert_eq!(diagnose(Some(0)), (0, 6));
        // ...so the next current-epoch query fetches again, after
        // which the entry serves repeats.
        assert_eq!(diagnose(None), (0, 9));
        assert_eq!(diagnose(None), (3, 9));
        let cache = relock(&cluster.coordinator.partial_cache);
        assert!(cache.iter().all(|m| m.len() == 1));
    }

    /// What one of a scripted worker's pipelined reads does.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Read {
        /// The reply arrives.
        Deliver,
        /// The reply is lost: the read fails.
        Lose,
        /// The read panics.
        Panic,
    }

    /// One transport operation, as a scripted worker logs it.
    #[derive(Debug, Clone)]
    struct Op {
        worker: usize,
        /// `send`, `recv`, `call` or `reset`.
        kind: &'static str,
        /// The request written, for sends and calls.
        req: Option<Request>,
        /// Selections the coordinator had analyzed when this ran.
        analyzed: u64,
    }

    type OpLog = Arc<Mutex<Vec<Op>>>;

    /// A transport that splits every call into a write and a read, the
    /// split the in-process transports never exercise: `send` has the
    /// worker answer at once and queues the reply unread, and `recv`
    /// hands back the oldest queued reply — or loses it, or panics, as
    /// scripted. `call` goes straight through. Every operation is
    /// logged with the number of analyses the coordinator had finished.
    struct ScriptedTransport {
        worker: usize,
        inner: InProcessTransport,
        unread: std::collections::VecDeque<Response>,
        /// This worker's coming reads, first to last; past them,
        /// `then`.
        script: std::collections::VecDeque<Read>,
        then: Read,
        log: OpLog,
        registry: Arc<MetricsRegistry>,
    }

    impl ScriptedTransport {
        fn note(&self, kind: &'static str, req: Option<&Request>) {
            let analyzed = self
                .registry
                .histogram_snapshot(
                    "energydx_stage_duration_seconds",
                    &[("stage", "analyze")],
                )
                .map_or(0, |h| h.count());
            relock(&self.log).push(Op {
                worker: self.worker,
                kind,
                req: req.cloned(),
                analyzed,
            });
        }
    }

    impl WorkerTransport for ScriptedTransport {
        fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
            self.note("call", Some(req));
            self.inner.call(req)
        }

        fn send(
            &mut self,
            req: &Request,
        ) -> Result<Option<Response>, ClientError> {
            self.note("send", Some(req));
            let reply = self.inner.call(req)?;
            self.unread.push_back(reply);
            Ok(None)
        }

        fn recv(&mut self) -> Result<Response, ClientError> {
            self.note("recv", None);
            let reply = self.unread.pop_front().ok_or_else(|| {
                ClientError::Io("no reply to read".to_string())
            })?;
            match self.script.pop_front().unwrap_or(self.then) {
                Read::Deliver => Ok(reply),
                Read::Lose => Err(ClientError::TimedOut),
                Read::Panic => panic!("scripted read panic"),
            }
        }

        fn reset(&mut self) {
            self.note("reset", None);
            self.unread.clear();
        }
    }

    /// Three in-process workers behind [`ScriptedTransport`]s, worker
    /// k reading as `scripts[k]` says, logging into one shared log,
    /// with a coordinator on a deterministic registry.
    fn scripted_cluster(
        config: CoordinatorConfig,
        scripts: [(&[Read], Read); 3],
    ) -> (TestCluster, OpLog) {
        let registry = Arc::new(MetricsRegistry::deterministic());
        let log = OpLog::default();
        let slots: Vec<WorkerSlot> = (0..3)
            .map(|_| {
                let handle = FleetdHandle::start(ServerConfig::default())
                    .expect("worker start");
                Arc::new(Mutex::new(Some(Arc::new(handle))))
            })
            .collect();
        let transports: Vec<Box<dyn WorkerTransport>> = slots
            .iter()
            .zip(scripts)
            .enumerate()
            .map(|(worker, (slot, (script, then)))| {
                Box::new(ScriptedTransport {
                    worker,
                    inner: InProcessTransport::new(Arc::clone(slot)),
                    unread: Default::default(),
                    script: script.iter().copied().collect(),
                    then,
                    log: Arc::clone(&log),
                    registry: Arc::clone(&registry),
                }) as Box<dyn WorkerTransport>
            })
            .collect();
        let coordinator =
            Coordinator::with_registry(config, transports, registry).unwrap();
        (TestCluster { coordinator, slots }, log)
    }

    const DELIVER: (&[Read], Read) = (&[], Read::Deliver);

    fn report_artifacts(cluster: &TestCluster) -> Response {
        cluster
            .coordinator
            .handle_request(Request::Report { top: None })
    }

    fn reference_artifacts(ups: &[(String, Vec<u8>)]) -> Response {
        let reference =
            crate::report::fleet_report(&reference_state(ups, 3), 0, None)
                .expect("the reference renders");
        Response::ReportArtifacts {
            missing: Vec::new(),
            html: reference.html,
            json: reference.json,
        }
    }

    fn worker_counter(cluster: &TestCluster, name: &str, k: &str) -> u64 {
        cluster
            .coordinator
            .metrics()
            .registry()
            .and_then(|r| r.counter_value(name, &[("worker", k)]))
            .unwrap_or(0)
    }

    #[test]
    fn a_report_writes_the_next_selection_before_it_analyzes_this_one() {
        let (cluster, log) = scripted_cluster(test_config(), [DELIVER; 3]);
        let ups = versioned_uploads(21);
        drive(&cluster, &ups);
        relock(&log).clear();
        assert_eq!(report_artifacts(&cluster), reference_artifacts(&ups));
        let selections = crate::report::report_selections(
            &crate::report::state_catalog(&reference_state(&ups, 3)),
        )
        .len();
        assert_eq!(selections, 3, "one epoch and two releases");
        let log = relock(&log);
        let fan: Vec<&Op> = log
            .iter()
            .filter(|op| {
                op.kind == "recv"
                    || matches!(op.req, Some(Request::PartialSince { .. }))
            })
            .collect();
        // Every worker's request is written before any reply is read.
        let shape: Vec<String> = fan
            .iter()
            .map(|op| format!("{}{}", &op.kind[..1], op.worker))
            .collect();
        let step = ["s0", "s1", "s2", "r0", "r1", "r2"];
        assert_eq!(shape, step.repeat(selections), "{shape:?}");
        // Selection i+1's requests go out while selection i is still
        // unanalyzed: sequential fans would have analyzed it already.
        for (i, chunk) in fan.chunks(step.len()).enumerate() {
            for op in &chunk[..3] {
                assert_eq!(op.analyzed, i.saturating_sub(1) as u64, "{op:?}");
            }
        }
    }

    #[test]
    fn a_reply_lost_after_a_good_write_is_retried_once() {
        let (cluster, log) = scripted_cluster(
            test_config(),
            [DELIVER, (&[Read::Lose], Read::Deliver), DELIVER],
        );
        let ups = uploads(21);
        drive(&cluster, &ups);
        relock(&log).clear();
        assert_eq!(
            cluster.coordinator.diagnose("mail", None),
            Response::Report {
                json: reference_json(&ups, 3)
            }
        );
        let failures =
            |k| worker_counter(&cluster, "cluster_worker_failures_total", k);
        let retries =
            |k| worker_counter(&cluster, "cluster_worker_retries_total", k);
        assert_eq!((failures("1"), retries("1")), (1, 1));
        assert_eq!((failures("0"), retries("0")), (0, 0));
        // The lost read continues call_worker at attempt 1: a probe
        // (the worker failed since its last success), then the request
        // again, both as whole calls.
        let worker_1: Vec<String> = relock(&log)
            .iter()
            .filter(|op| op.worker == 1)
            .map(|op| match &op.req {
                Some(Request::Counts) => format!("{} counts", op.kind),
                Some(Request::PartialSince { .. }) => {
                    format!("{} partial", op.kind)
                }
                Some(other) => format!("{} {other:?}", op.kind),
                None => op.kind.to_string(),
            })
            .collect();
        assert_eq!(
            worker_1,
            ["send partial", "recv", "call counts", "call partial"]
        );
    }

    #[test]
    fn a_failing_each_leaves_no_reply_unread() {
        let (cluster, log) = scripted_cluster(test_config(), [DELIVER; 3]);
        let ups = versioned_uploads(21);
        drive(&cluster, &ups);
        relock(&log).clear();
        // The second release's requests are written before `each`
        // fails on the first; they must be drained, or the diagnosis
        // below would read that release's partials as its own.
        let sels = [
            Selector::new("mail", None, Some("1.9.0")),
            Selector::new("mail", None, Some("2.0.0")),
        ];
        let failed = cluster.coordinator.fans(&sels, |_| -> Result<(), _> {
            Err(Response::Error {
                message: "scripted".to_string(),
            })
        });
        assert!(matches!(failed, Err(Response::Error { .. })));
        let kinds =
            |kind| relock(&log).iter().filter(|op| op.kind == kind).count();
        assert_eq!((kinds("send"), kinds("recv")), (6, 6));
        assert_eq!(
            cluster.coordinator.diagnose("mail", None),
            Response::Report {
                json: reference_state(&ups, 3)
                    .diagnose_json("mail", None)
                    .unwrap()
            }
        );
    }

    #[test]
    fn concurrent_reports_against_a_worker_that_loses_every_reply_return() {
        // A backoff before each retry keeps a report that lost a reply
        // away from worker 0 long enough for the other to take worker
        // 0's guard and wait for worker 1's: a retry taken while still
        // holding worker 1's guard would then deadlock the two.
        let config = CoordinatorConfig {
            retry: RetryBudget {
                max_attempts: 2,
                base_backoff_ms: 2,
                max_backoff_ms: 4,
            },
            ..CoordinatorConfig::default()
        };
        let (cluster, _log) =
            scripted_cluster(config, [(&[], Read::Lose), DELIVER, DELIVER]);
        let ups = versioned_uploads(21);
        drive(&cluster, &ups);
        let expected = reference_artifacts(&ups);
        let coordinator = Arc::new(cluster.coordinator);
        let start = Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let coordinator = Arc::clone(&coordinator);
                let start = Arc::clone(&start);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    start.wait();
                    let answers: Vec<Response> = (0..5)
                        .map(|_| {
                            coordinator
                                .handle_request(Request::Report { top: None })
                        })
                        .collect();
                    let _ = done.send(answers);
                })
            })
            .collect();
        drop(done_tx);
        // Every read of worker 0 fails and is retried while the other
        // report holds or waits for guards. A deadlock fails on the
        // deadline instead of hanging the suite.
        for _ in 0..2 {
            let answers = done_rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("both reports return");
            for answer in answers {
                assert_eq!(answer, expected);
            }
        }
        for thread in threads {
            thread.join().expect("a report thread panicked");
        }
        let failures = coordinator
            .metrics()
            .registry()
            .unwrap()
            .counter_value("cluster_worker_failures_total", &[("worker", "0")])
            .unwrap_or(0);
        assert!(failures > 0, "worker 0's reads were lost and retried");
    }

    #[test]
    fn a_panicked_read_costs_one_report_not_the_connections() {
        let (cluster, log) = scripted_cluster(
            test_config(),
            [
                DELIVER,
                (&[Read::Deliver, Read::Panic], Read::Deliver),
                DELIVER,
            ],
        );
        let ups = versioned_uploads(21);
        drive(&cluster, &ups);
        relock(&log).clear();
        // Worker 1's read of the first release panics while worker 2's
        // reply to the same selection is still unread.
        let report =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                report_artifacts(&cluster)
            }));
        assert!(report.is_err(), "the scripted read panics");
        assert_eq!(
            cluster.coordinator.diagnose("mail", None),
            Response::Report {
                json: reference_state(&ups, 3)
                    .diagnose_json("mail", None)
                    .unwrap()
            }
        );
        // The two guards the panic poisoned were reset before reuse;
        // worker 0's, dropped before it, was not.
        let resets: Vec<usize> = relock(&log)
            .iter()
            .filter(|op| op.kind == "reset")
            .map(|op| op.worker)
            .collect();
        assert_eq!(resets, [1, 2]);
        assert_eq!(report_artifacts(&cluster), reference_artifacts(&ups));
    }
}
