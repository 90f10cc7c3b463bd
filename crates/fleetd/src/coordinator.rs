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
//! not change each worker's accepted sequence.
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
use crate::replicate::ReplicaStore;
use crate::server::Dispatch;
use crate::state::{FleetConfig, QueryError, Selector};
use energydx::{EnergyDx, FleetSummary, JsonWriter, ShardError, ShardPartial};
use energydx_obsv::{EventKind, Metrics, MetricsRegistry};
use energydx_report::{
    build_model, render_html, render_json, DEFAULT_TOP_APPS,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Coordinator deployment configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Analysis/repair parameters — must match the workers' so the
    /// routing peek prepares payloads exactly as their ingest will,
    /// and `finish` renders exactly as a single daemon would.
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
    /// I/O — calls to one worker serialize here — so nothing that
    /// must stay responsive may ever wait on it.
    transport: Mutex<Box<dyn WorkerTransport>>,
    /// Health state. A leaf lock: held only long enough to read or
    /// bump counters, never across I/O, sleeps, or another lock.
    breaker: Mutex<CircuitBreaker>,
}

/// One worker's last-seen partial for one cache key — what a
/// [`Response::PartialNotModified`] lets the coordinator reuse.
#[derive(Clone)]
struct CoordCacheEntry {
    /// Resolved epoch id the partial belongs to.
    epoch: u64,
    /// The worker-state incarnation the generation is scoped to.
    incarnation: u64,
    /// The epoch's generation when the partial was folded.
    generation: u64,
    /// The worker's locally-offset folded partial.
    partial: ShardPartial,
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

/// What one fan-out gathered: the surviving shards' partials (in
/// worker order), the unreachable shard ids, and whether any worker
/// disowned the requested epoch.
#[derive(Default)]
struct Fan {
    found: Vec<(usize, u64, ShardPartial)>,
    missing: Vec<u32>,
    unknown_epoch: bool,
}

/// The coordinator: stateless over trace data (workers own their
/// partitions; this side owns routing, health, and replicas).
///
/// Lock discipline (deadlock freedom): the only place two locks
/// overlap is the handoff path, which holds `transport[k]` and
/// briefly locks `replicas` (or `partial_cache`, to drop a handed-
/// off worker's stale entries) — so the global order is
/// `transport[k]` → {`replicas`, `partial_cache`}, and `breaker[k]`
/// is a leaf acquired on its own. `partial_cache` is itself a leaf:
/// it is never held across I/O or while taking another lock. The
/// stats/health/metrics endpoints snapshot `replicas`, the cache,
/// and each breaker separately and never touch a transport, so they
/// answer immediately even while a worker call is mid-retry against
/// a dead or slow node.
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
            let mut transport = self.workers[k].transport.lock().unwrap();
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
        let slot = &self.workers[k];
        let label = Self::worker_label(k);
        let mut last_err =
            ClientError::Io(format!("worker {k}: no attempt allowed"));
        for attempt in 0..self.config.retry.max_attempts {
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
                let mut breaker = slot.breaker.lock().unwrap();
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
                let mut transport = slot.transport.lock().unwrap();
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
        self.workers[k].breaker.lock().unwrap().record_success();
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
            let mut breaker = self.workers[k].breaker.lock().unwrap();
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
            let mut cache = self.partial_cache.lock().unwrap();
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
        let cache = self.partial_cache.lock().unwrap();
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
        let replica = self
            .replicas
            .lock()
            .unwrap()
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
            &self.config.fleet.repair,
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

    /// Fans one selection out to every worker as a
    /// [`Request::PartialSince`] — the one fan behind diagnoses,
    /// regressions and both report fans. With the query cache on, each
    /// request carries the token cached for this worker under
    /// `(app, release)`, and a `NotModified` reply stands in for the
    /// cached partial.
    fn fan(&self, sel: &Selector) -> Result<Fan, Response> {
        let mut fan = Fan::default();
        let use_cache = self.config.fleet.query_cache;
        let key = (sel.app.clone(), sel.version.clone());
        let mut updates: Vec<(usize, CoordCacheEntry)> = Vec::new();
        for k in 0..self.workers.len() {
            // Snapshot this worker's cached entry before any I/O —
            // the cache lock is a leaf, never held across a call. A
            // concurrent clear can't invalidate the local copy: the
            // worker validates the exact token we send, so a
            // `NotModified` reply always vouches for this snapshot.
            let cached: Option<CoordCacheEntry> = if use_cache {
                self.partial_cache.lock().unwrap()[k].get(&key).cloned()
            } else {
                None
            };
            let req = Request::PartialSince {
                app: sel.app.clone(),
                epoch: sel.epoch,
                version: sel.version.clone(),
                token: cached
                    .as_ref()
                    .map(|c| (c.epoch, c.incarnation, c.generation)),
            };
            match self.call_worker(k, &req) {
                Ok(Response::PartialNotModified { epoch }) => match &cached {
                    Some(entry) => {
                        self.count_cache(true);
                        fan.found.push((k, epoch, entry.partial.clone()));
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
                        if use_cache {
                            self.count_cache(false);
                            updates.push((
                                k,
                                CoordCacheEntry {
                                    epoch,
                                    incarnation,
                                    generation,
                                    partial: partial.clone(),
                                },
                            ));
                        }
                        fan.found.push((k, epoch, partial));
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
            let mut cache = self.partial_cache.lock().unwrap();
            for (k, entry) in updates {
                cache[k].insert(key.clone(), entry);
            }
        }
        Ok(fan)
    }

    /// Concatenates a fan's surviving shards in worker order — each
    /// worker's locally-0-based partial rebased to sit after the traces
    /// of the workers before it.
    fn merged(fan: Fan) -> ShardPartial {
        let mut merged = ShardPartial::empty();
        let mut base = 0usize;
        for (_, _, partial) in fan.found {
            let n = partial.trace_count();
            merged = merged.merge(partial.rebase(base));
            base += n;
        }
        merged
    }

    /// Analyzes a fan's merged fleet and summarizes it, rendering
    /// nothing: what regressions and the report read.
    fn summarize(&self, fan: Fan) -> Result<FleetSummary, Response> {
        let fleet =
            self.dx.analyze(Self::merged(fan)).map_err(analysis_error)?;
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
        let epochs: Vec<(usize, u64)> = fans
            .iter()
            .flat_map(|f| f.found.iter().map(|(k, e, _)| (*k, *e)))
            .collect();
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
        self.fan(&sel)
            .and_then(|fan| {
                let missing = self.vet(&sel, &[&fan])?;
                let json = {
                    let _span = self.metrics.span("finish");
                    let fleet = self
                        .dx
                        .analyze(Self::merged(fan))
                        .map_err(analysis_error)?;
                    self.dx.render_json(&fleet)
                };
                Ok(self.answer(json, missing, &format!("app={app}")))
            })
            .unwrap_or_else(|error| error)
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
        let from_sel = Selector::new(app, epoch, Some(from));
        let answer = || {
            let from_fan = self.fan(&from_sel)?;
            let to_fan = self.fan(&Selector::new(app, epoch, Some(to)))?;
            // Both fans hit the same workers, so `vet` refuses to
            // compare releases across epochs as well as within one.
            let missing = self.vet(&from_sel, &[&from_fan, &to_fan])?;
            let report = energydx_regress::compare_summaries(
                from,
                &self.summarize(from_fan)?,
                to,
                &self.summarize(to_fan)?,
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
        let inputs =
            crate::report::report_inputs(&merge_catalogs(catalogs), |sel| {
                let fan = self.fan(sel)?;
                missing.extend(&fan.missing);
                self.summarize(fan)
            })?;
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

    /// Fetches and stores every worker's checkpoint (re-validated
    /// before it enters the store). Live workers replicate even when
    /// others are down; any miss is an explicit error.
    pub fn replicate_all(&self) -> Response {
        let mut failed: Vec<usize> = Vec::new();
        for k in 0..self.workers.len() {
            match self.call_worker(k, &Request::FetchCheckpoint) {
                Ok(Response::CheckpointData { data }) => {
                    let accepted =
                        match restore_bytes(&data, self.config.fleet.clone()) {
                            Ok(state) => state.accepted_total() as u64,
                            Err(e) => {
                                return Response::Error {
                                    message: format!(
                                    "worker {k}: sent an invalid checkpoint: \
                                     {e}"
                                ),
                                }
                            }
                        };
                    let label = Self::worker_label(k);
                    let bytes = data.len();
                    if let Err(e) =
                        self.replicas.lock().unwrap().store(k, data, accepted)
                    {
                        return Response::Error {
                            message: format!(
                                "replica store failed for worker {k}: {e}"
                            ),
                        };
                    }
                    self.metrics.inc(
                        "cluster_replications_total",
                        &[("worker", &label)],
                    );
                    self.metrics.set_gauge(
                        "cluster_worker_replica_accepted",
                        &[("worker", &label)],
                        accepted as f64,
                    );
                    self.metrics.event(
                        EventKind::Replication,
                        format!("worker={k} accepted={accepted} bytes={bytes}"),
                    );
                }
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
        if failed.is_empty() {
            Response::Done
        } else {
            Response::Error {
                message: format!(
                    "replication incomplete: worker(s) {failed:?} \
                     unreachable (live workers were replicated)"
                ),
            }
        }
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
            let replicas = self.replicas.lock().unwrap();
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
                        let breaker = self.workers[k].breaker.lock().unwrap();
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
            .filter(|slot| {
                slot.breaker.lock().unwrap().consecutive_failures() == 0
            })
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
            let replicas = self.replicas.lock().unwrap();
            (0..self.workers.len())
                .map(|k| replicas.get(k).map(|r| r.accepted))
                .collect()
        };
        for (k, slot) in self.workers.iter().enumerate() {
            let failures = slot.breaker.lock().unwrap().consecutive_failures();
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

    /// The batch reference for a cluster: the per-worker accepted
    /// sequences concatenated in worker order.
    fn reference_json(uploads: &[(String, Vec<u8>)], workers: usize) -> String {
        let mut state = FleetState::new(FleetConfig::default());
        for k in 0..workers {
            for (user, payload) in uploads {
                if shard_for_user("mail", user, workers) == k {
                    assert!(state.submit("mail", payload).accepted());
                }
            }
        }
        state.diagnose_json("mail", None).unwrap()
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

    /// The single-daemon regression reference over the per-worker
    /// accepted sequences concatenated in worker order.
    fn regress_reference_json(
        uploads: &[(String, Vec<u8>)],
        workers: usize,
    ) -> String {
        let mut state = FleetState::new(FleetConfig::default());
        for k in 0..workers {
            for (user, payload) in uploads {
                if shard_for_user("mail", user, workers) == k {
                    assert!(state.submit("mail", payload).accepted());
                }
            }
        }
        state
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
        let taken = cluster.slots[1].lock().unwrap().take();
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
        *cluster.slots[1].lock().unwrap() = Some(keep_alive);
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
        cluster.slots[0].lock().unwrap().take();
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
        cluster.slots[2].lock().unwrap().take();
        assert!(matches!(
            cluster.coordinator.diagnose("mail", None),
            Response::Degraded { .. }
        ));
        // A blank replacement worker takes the slot. The next query
        // probes, sees fewer accepted uploads than the replica, and
        // installs the replica before the partial request lands.
        let replacement = FleetdHandle::start(ServerConfig::default()).unwrap();
        *cluster.slots[2].lock().unwrap() = Some(Arc::new(replacement));
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
        cluster.slots[1].lock().unwrap().take();
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
        let handle =
            Arc::clone(cluster.slots[0].lock().unwrap().as_ref().unwrap());
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
        deterministic_cluster_with(test_config(), workers)
    }

    fn deterministic_cluster_with(
        config: CoordinatorConfig,
        workers: usize,
    ) -> TestCluster {
        cluster_on(config, workers, Arc::new(MetricsRegistry::deterministic()))
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
        // Reference: one deterministic daemon holding the shards'
        // accepted sequences concatenated in worker order.
        let mut state = FleetState::with_registry(
            FleetConfig::default(),
            Arc::new(MetricsRegistry::deterministic()),
        );
        for k in 0..3 {
            for (user, payload) in &ups {
                if shard_for_user("mail", user, 3) == k {
                    assert!(state.submit("mail", payload).accepted());
                }
            }
        }
        let reference = crate::report::fleet_report(&state, 0, None).unwrap();
        assert_eq!(html, reference.html);
        assert_eq!(json, reference.json);
    }

    #[test]
    fn a_degraded_cluster_report_names_the_missing_shard() {
        let cluster = deterministic_cluster(3);
        let ups = versioned_uploads(21);
        drive(&cluster, &ups);
        cluster.slots[1].lock().unwrap().take();
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
            *self.attempts.lock().unwrap() += 1;
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
        assert_eq!(*attempts.lock().unwrap(), max);
        // Subsequent traffic is breaker-gated: far fewer transport
        // calls than attempts once the circuit opens.
        for _ in 0..10 {
            let _ = coordinator.submit("mail", fixture::payload("u1", 1));
        }
        let total = *attempts.lock().unwrap();
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
            let mut released = lock.lock().unwrap();
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
        *lock.lock().unwrap() = true;
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
        cluster.slots[1].lock().unwrap().take();
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
        cluster.slots[1].lock().unwrap().take();
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

    /// A deterministic cluster and its `query_cache: false` twin, driven
    /// with the same uploads: every answer of the first must equal the
    /// second's, whatever the cache did.
    fn twin_clusters(workers: usize) -> (TestCluster, TestCluster) {
        let plain = CoordinatorConfig {
            fleet: FleetConfig {
                query_cache: false,
                ..FleetConfig::default()
            },
            ..test_config()
        };
        (
            deterministic_cluster(workers),
            deterministic_cluster_with(plain, workers),
        )
    }

    #[test]
    fn a_report_rides_the_release_partials_a_regression_fetched() {
        let (cached, plain) = twin_clusters(3);
        let ups = versioned_uploads(28);
        drive(&cached, &ups);
        drive(&plain, &ups);
        let holders = (0..3)
            .filter(|&k| {
                ups.iter().any(|(u, _)| shard_for_user("mail", u, 3) == k)
            })
            .count() as u64;
        let both = |req: Request| {
            let answer = cached.coordinator.handle_request(req.clone());
            assert_eq!(answer, plain.coordinator.handle_request(req));
            answer
        };
        let regressions = Request::Regressions {
            app: "mail".to_string(),
            epoch: None,
            from: "1.9.0".to_string(),
            to: "2.0.0".to_string(),
            threshold: None,
        };
        assert!(matches!(both(regressions), Response::Report { .. }));
        let hits =
            coordinator_cache_counter(&cached, "fleetd_query_cache_hits_total");
        let misses = coordinator_cache_counter(
            &cached,
            "fleetd_query_cache_misses_total",
        );
        assert_eq!((hits, misses), (0, 2 * holders));
        // The report's per-release fans of the current epoch present
        // the tokens the regression stored under `(app, release)`:
        // every unchanged holder answers NotModified. Only its
        // whole-epoch fan is cold.
        let report = both(Request::Report { top: None });
        assert!(matches!(report, Response::ReportArtifacts { .. }));
        let hits =
            coordinator_cache_counter(&cached, "fleetd_query_cache_hits_total");
        let misses = coordinator_cache_counter(
            &cached,
            "fleetd_query_cache_misses_total",
        );
        assert_eq!((hits, misses), (2 * holders, 3 * holders));
        // One entry per release plus the whole-epoch one, per holder —
        // not one per (requested epoch, release) pair.
        let cache = cached.coordinator.partial_cache.lock().unwrap();
        let entries: Vec<usize> = cache.iter().map(BTreeMap::len).collect();
        assert!(entries.iter().all(|&n| n == 0 || n == 3), "{entries:?}");
    }

    #[test]
    fn a_frozen_epoch_diagnose_replaces_the_whole_epoch_entry() {
        let (cached, plain) = twin_clusters(3);
        let ups = uploads(21);
        drive(&cached, &ups);
        drive(&plain, &ups);
        let rollover = Request::Rollover {
            app: "mail".to_string(),
        };
        for cluster in [&cached, &plain] {
            let answer = cluster.coordinator.handle_request(rollover.clone());
            assert!(matches!(answer, Response::Epoch { epoch: 1 }));
            drive(cluster, &ups[..7]);
        }
        let diagnose = |epoch: Option<u64>| {
            let req = Request::Diagnose {
                app: "mail".to_string(),
                epoch,
            };
            let answer = cached.coordinator.handle_request(req.clone());
            assert_eq!(answer, plain.coordinator.handle_request(req));
            assert!(matches!(answer, Response::Report { .. }));
            (
                coordinator_cache_counter(
                    &cached,
                    "fleetd_query_cache_hits_total",
                ),
                coordinator_cache_counter(
                    &cached,
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
        let cache = cached.coordinator.partial_cache.lock().unwrap();
        assert!(cache.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn a_cache_disabled_coordinator_answers_identically() {
        let cached = cluster(3);
        let plain = cluster_with(
            CoordinatorConfig {
                fleet: FleetConfig {
                    query_cache: false,
                    ..FleetConfig::default()
                },
                ..test_config()
            },
            3,
        );
        let ups = uploads(21);
        drive(&cached, &ups);
        drive(&plain, &ups);
        let answer =
            |c: &TestCluster| match c.coordinator.diagnose("mail", None) {
                Response::Report { json } => json,
                other => panic!("unexpected response {other:?}"),
            };
        // Two rounds: the cached cluster's second answer rides
        // NotModified; the plain cluster never sends a token.
        for _ in 0..2 {
            assert_eq!(answer(&cached), answer(&plain));
        }
        let plain_counters = plain
            .coordinator
            .metrics()
            .registry()
            .and_then(|r| {
                r.counter_value(
                    "fleetd_query_cache_misses_total",
                    &[("layer", "coordinator")],
                )
            })
            .unwrap_or(0);
        assert_eq!(plain_counters, 0, "disabled cache must not count");
    }
}
