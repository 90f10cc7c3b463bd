//! Deterministic fleet state: per-app epochs of interned same-release
//! runs.
//!
//! [`FleetState`] is the daemon's brain with everything nondeterminism
//! stripped away: no threads, no sockets, no clocks. Each accepted
//! upload costs one [`EnergyDx::map_shard`] over a single trace plus
//! one append to the epoch's last same-release run — O(upload), never
//! a re-analysis or a rewrite of the epoch — and every query folds the
//! epoch's runs in accept order, so the report is byte-identical to a
//! batch
//! [`EnergyDx::diagnose_reference`] over the same accepted traces in
//! the same order. The differential harness drives this type directly;
//! the server wraps it in a mutex and feeds it from the ingest queue.
//!
//! The one exception to "no I/O" is spilling: under an explicit
//! [`SpillConfig`] the state writes cold epochs to
//! [`energydx_segment`] files and folds them back on query. Which
//! files exist depends on the schedule, but every answer is still
//! byte-identical to the fully-resident fold — spilling moves bytes,
//! never meaning.
//!
//! [`EnergyDx::map_shard`]: energydx::EnergyDx::map_shard
//! [`EnergyDx::diagnose_reference`]: energydx::EnergyDx::diagnose_reference

use crate::convert;
use crate::spill::{self, SpillConfig, SpilledRun};
use energydx::report::DiagnosisReport;
use energydx::shard::{AnalyzedFleet, ShardPartial};
use energydx::{AnalysisConfig, EnergyDx, FleetSummary, JsonWriter};
use energydx_obsv::{EventKind, Metrics, MetricsRegistry};
use energydx_regress::{RegressConfig, RegressionReport};
use energydx_trace::repair::RepairPolicy;
use energydx_trace::store::{
    prepare_wire, IngestOutcome, PreparedUpload, QuarantineEntry, RejectReason,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Everything that parameterizes the analysis a daemon serves.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The 5-step analysis configuration (fraction, top-k, fences...).
    pub analysis: AnalysisConfig,
    /// Worker-pool size for map/analyze phases; `0` = all cores.
    pub jobs: usize,
    /// When set, cold epochs are spilled to on-disk segments whenever
    /// resident run state exceeds the budget. `None` keeps
    /// everything resident (and the state free of I/O).
    pub spill: Option<SpillConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            analysis: AnalysisConfig::default(),
            // One worker: the daemon's latency budget is dominated by
            // single-trace maps, where a pool would only add overhead.
            jobs: 1,
            spill: None,
        }
    }
}

/// One resident run: the partial of consecutive accepted traces that
/// were all uploaded under one app release. `""` is the implicit
/// version of unversioned (pre-v3 wire) uploads. Consecutive runs tile
/// the epoch's global offset space, whatever their versions — the
/// version tag partitions the traces without perturbing accept order,
/// which is what keeps unversioned queries byte-identical to a
/// version-blind daemon.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResidentRun {
    pub(crate) version: String,
    pub(crate) partial: ShardPartial,
}

/// One epoch of one app: the accepted traces as mergeable runs plus
/// the bookkeeping that makes re-submission and audit possible.
#[derive(Debug, Clone, Default)]
pub struct EpochState {
    /// The resident traces as *maximal* same-release runs, in accept
    /// order: an upload under the last run's release extends that run
    /// in place, any other release starts a new one. This is the
    /// epoch's release column, run-length encoded — a release's fold
    /// is a concatenation of whole runs, and the version-blind fold
    /// is all of them.
    pub(crate) runs: Vec<ResidentRun>,
    /// Traces accepted so far == the next trace's global offset.
    pub(crate) trace_count: usize,
    /// `(user, session)` keys already accepted, for retry dedup.
    pub(crate) seen: BTreeSet<(String, u64)>,
    /// Uploads stored verbatim.
    pub(crate) clean: usize,
    /// Uploads stored after repair/salvage.
    pub(crate) recovered: usize,
    /// Quarantined uploads, in arrival order.
    pub(crate) quarantine: Vec<QuarantineEntry>,
    /// Runs spilled to disk, oldest first. Their traces *precede* the
    /// resident runs' in global offset order, so a query folds
    /// spilled runs first, then the resident ones.
    pub(crate) spilled: Vec<SpilledRun>,
    /// Monotone mutation stamp, bumped (from the state's shared
    /// generation clock) on every accepted upload, rollover, and
    /// spill. Within one state incarnation a given
    /// `(app, epoch, generation)` triple names exactly one content —
    /// the key the query cache and the cluster delta protocol hang
    /// off. Scheduling state, like `touch`: never checkpointed, never
    /// part of an answer.
    pub(crate) generation: u64,
}

/// Equality is over *content* only: `generation` is an
/// incarnation-scoped cache stamp (a restored state legitimately
/// restarts it at zero), so two epochs holding the same traces are
/// equal whatever their mutation histories were.
impl PartialEq for EpochState {
    fn eq(&self, other: &Self) -> bool {
        self.runs == other.runs
            && self.trace_count == other.trace_count
            && self.seen == other.seen
            && self.clean == other.clean
            && self.recovered == other.recovered
            && self.quarantine == other.quarantine
            && self.spilled == other.spilled
    }
}

impl EpochState {
    /// Traces accepted into this epoch.
    pub fn trace_count(&self) -> usize {
        self.trace_count
    }

    /// Resident runs currently held: one per release switch since
    /// the epoch's last spill.
    pub fn delta_count(&self) -> usize {
        self.runs.len()
    }

    /// Uploads stored verbatim.
    pub fn clean(&self) -> usize {
        self.clean
    }

    /// Uploads stored after repair/salvage.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Quarantined uploads, in arrival order.
    pub fn quarantine(&self) -> &[QuarantineEntry] {
        &self.quarantine
    }

    /// Per-reason counts of quarantined uploads.
    pub fn quarantine_counters(&self) -> BTreeMap<RejectReason, usize> {
        let mut counters = BTreeMap::new();
        for entry in &self.quarantine {
            *counters.entry(entry.reason).or_insert(0) += 1;
        }
        counters
    }

    /// Runs spilled to disk, oldest first.
    pub fn spilled_runs(&self) -> usize {
        self.spilled.len()
    }

    /// Traces held in spilled segments (always a prefix of the epoch).
    pub fn spilled_traces(&self) -> usize {
        self.spilled.iter().map(SpilledRun::traces).sum()
    }

    /// The epoch's current mutation stamp (see the field doc).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Approximate bytes the resident runs cost
    /// ([`ShardPartial::approx_bytes`] summed over the run list).
    pub fn resident_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.partial.approx_bytes()).sum()
    }

    /// Per-release trace counts across spilled and resident runs. The
    /// `""` key counts unversioned uploads.
    pub fn versions(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for run in &self.spilled {
            *counts.entry(run.version.clone()).or_insert(0) += run.traces;
        }
        for r in &self.runs {
            *counts.entry(r.version.clone()).or_insert(0) +=
                r.partial.trace_count();
        }
        counts
    }

    /// Appends `partial`, which must start where the epoch's resident
    /// traces end, under `version`: merged into the last run when the
    /// release matches, else as a new run — so the runs stay maximal.
    /// When the partial's names are all in the run's vocabulary (the
    /// steady state) the merge only remaps the newcomer, so the cost
    /// is O(partial), not O(run).
    pub(crate) fn append(&mut self, version: String, partial: ShardPartial) {
        match self.runs.last_mut() {
            Some(last) if last.version == version => {
                let run = std::mem::take(&mut last.partial);
                last.partial = run.merge(partial);
            }
            _ => self.runs.push(ResidentRun { version, partial }),
        }
    }
}

/// One app's epochs. Rollover freezes the current epoch (it stays
/// queryable) and starts a fresh one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppState {
    pub(crate) current_epoch: u64,
    pub(crate) epochs: BTreeMap<u64, EpochState>,
}

impl AppState {
    /// The epoch new uploads land in.
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    /// All epochs, oldest first.
    pub fn epochs(&self) -> &BTreeMap<u64, EpochState> {
        &self.epochs
    }

    fn current_mut(&mut self) -> &mut EpochState {
        self.epochs.entry(self.current_epoch).or_default()
    }
}

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// No uploads have been accepted for this app.
    UnknownApp(String),
    /// The app exists but has no such epoch.
    UnknownEpoch {
        /// The app queried.
        app: String,
        /// The epoch requested.
        epoch: u64,
    },
    /// The analysis itself failed (cannot happen for state built
    /// through [`FleetState::submit`]; kept typed for the protocol).
    Analysis(String),
    /// A spilled segment the epoch depends on could not be read back
    /// (missing, damaged, or disagreeing with its checkpoint record).
    Storage(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownApp(app) => {
                write!(f, "unknown app {app:?}")
            }
            QueryError::UnknownEpoch { app, epoch } => {
                write!(f, "app {app:?} has no epoch {epoch}")
            }
            QueryError::Analysis(e) => write!(f, "analysis failed: {e}"),
            QueryError::Storage(e) => {
                write!(f, "spilled state unavailable: {e}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// What a query selects: one app's epoch and, within it, every
/// release's traces or one release's. Every query kind — a diagnosis,
/// each half of a regression comparison, a report's trend and
/// per-release sections, a coordinator's partial fetch — is this one
/// shape, so all of them share one resolve → fold → analyze path and
/// the same cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    /// The app queried.
    pub app: String,
    /// Epoch id; `None` = the app's current epoch.
    pub epoch: Option<u64>,
    /// `None` selects every release; `Some(v)` only the traces
    /// uploaded under release `v` (`Some("")` = unversioned uploads),
    /// re-anchored to dense offsets from 0.
    pub version: Option<String>,
}

impl Selector {
    /// Selects `app`'s epoch (current when `None`), narrowed to one
    /// release when `version` is given.
    pub fn new(app: &str, epoch: Option<u64>, version: Option<&str>) -> Self {
        Selector {
            app: app.to_string(),
            epoch,
            version: version.map(str::to_string),
        }
    }
}

/// Outcome of [`FleetState::partial_since`] — the worker half of the
/// cluster delta protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum PartialSinceOutcome {
    /// The caller's `(epoch, incarnation, generation)` token still
    /// names the epoch's current content: nothing to resend.
    Unchanged {
        /// The resolved epoch id.
        epoch: u64,
    },
    /// The content changed (or the caller held no valid token): the
    /// full partial plus the token that now names it.
    Changed {
        /// The resolved epoch id.
        epoch: u64,
        /// The state incarnation the generation is scoped to.
        incarnation: u64,
        /// The epoch's current generation.
        generation: u64,
        /// The folded partial.
        partial: ShardPartial,
    },
}

/// One selection's analysis: the [`AnalyzedFleet`] and its canonical
/// JSON, rendered by the first `Diagnose` that needs it and never
/// again, so a dashboard's repeat poll copies nothing.
#[derive(Debug)]
struct Analysis {
    fleet: AnalyzedFleet,
    /// `fleet.approx_bytes()`, taken once.
    fleet_bytes: usize,
    json: OnceLock<Arc<String>>,
}

impl Analysis {
    /// What the analysis costs the cache budget: the fleet, plus the
    /// rendered JSON once there is one.
    fn bytes(&self) -> usize {
        const JSON_OVERHEAD: usize = 48;
        self.fleet_bytes
            + self.json.get().map_or(0, |json| json.len() + JSON_OVERHEAD)
    }
}

/// A cached [`Analysis`], valid only at the exact generation it was
/// computed at (analysis is a function of the *whole* selection).
/// Shared, so a summary or a render reads it outside the cache lock.
#[derive(Debug)]
struct AnalyzedEntry {
    generation: u64,
    last_used: u64,
    analysis: Arc<Analysis>,
}

/// Hit/miss/eviction counters of the state query cache — kept inside
/// the cache (not only in the metrics registry) so `query --stats` can
/// render them deterministically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLayerStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to recompute.
    pub misses: u64,
    /// Entries dropped to stay under the memory budget.
    pub evictions: u64,
    /// Bytes currently held, by `approx_bytes` accounting.
    pub bytes: usize,
}

/// What the state-layer cache is keyed by: a [`Selector`] with its
/// epoch resolved, `(app, epoch id, version)`.
type QueryKey = (String, u64, Option<String>);

/// The query cache, behind one mutex so `&self` queries can memoize.
/// Purely derived data: dropping any entry (or the whole cache) never
/// changes an answer, only its cost — which is why it is not
/// checkpointed and a restart simply starts cold.
#[derive(Debug, Default)]
struct QueryCache {
    /// Per query key: the analyzed fleet. Validated against the epoch
    /// generation, so any mutation of the epoch invalidates every
    /// release's entry (coarser than strictly necessary, never stale).
    analyzed: BTreeMap<QueryKey, AnalyzedEntry>,
    /// LRU clock feeding `last_used`.
    clock: u64,
    /// Hit/miss/eviction counters.
    stats: CacheLayerStats,
}

impl QueryCache {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn total_bytes(&self) -> usize {
        self.analyzed.values().map(|e| e.analysis.bytes()).sum()
    }

    /// The least-recently-used entry's key. Stamps are unique (one
    /// tick per use), so eviction order is deterministic.
    fn coldest(&self) -> Option<QueryKey> {
        self.analyzed
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(key, _)| key.clone())
    }
}

/// The daemon's resident state: per-app epoch state plus the shared
/// analysis pipeline. Purely deterministic; all I/O lives elsewhere.
#[derive(Debug)]
pub struct FleetState {
    pub(crate) config: FleetConfig,
    pub(crate) dx: EnergyDx,
    pub(crate) apps: BTreeMap<String, AppState>,
    pub(crate) metrics: Metrics,
    /// Sequence number the next spilled segment file gets. Monotone
    /// across the state's lifetime and checkpointed, so a restarted
    /// daemon never rewrites a file a checkpoint still references.
    pub(crate) next_spill_seq: u64,
    /// Per-app last-ingest tick, for coldest-first victim selection.
    /// Deliberately outside [`AppState`]: recency is scheduling
    /// state, not fleet data — it is not checkpointed and never
    /// affects an answer, only which segment files exist.
    pub(crate) touch: BTreeMap<String, u64>,
    /// Logical clock feeding `touch`.
    pub(crate) clock: u64,
    /// Logical clock feeding epoch generations: one shared counter,
    /// so every generation value is issued at most once per state and
    /// `(epoch id, generation)` never aliases two contents.
    pub(crate) generation_clock: u64,
    /// Process-unique state identity. Generations are only comparable
    /// within one incarnation; a restore or checkpoint install gets a
    /// fresh one, so a peer holding `(incarnation, generation)` tokens
    /// can never mistake replaced state for unchanged state.
    pub(crate) incarnation: u64,
    /// Memoized analyses (see [`QueryCache`]). Interior
    /// mutability: queries take `&self` and stay pure — the cache
    /// changes their cost, never their bytes.
    cache: Mutex<QueryCache>,
    /// Test lever: panic just before the commit point of the next
    /// accepted upload, to prove a mid-ingest panic leaves no torn
    /// state (mirrors `ingest_delay_ms` on the server side).
    #[cfg(test)]
    pub(crate) sabotage_before_commit: bool,
}

/// Issues process-unique state incarnations. Seeded with the process
/// id in the high bits so tokens from daemons in different processes
/// (the TCP cluster) do not collide either.
pub(crate) fn next_incarnation() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 32)
        ^ COUNTER.fetch_add(1, Ordering::Relaxed)
}

impl FleetState {
    /// An empty fleet under `config`, with its own metrics registry
    /// (wall-clock durations unless `ENERGYDX_DETERMINISTIC_TIME=1`).
    pub fn new(config: FleetConfig) -> Self {
        Self::with_registry(config, Arc::new(MetricsRegistry::new()))
    }

    /// An empty fleet recording into the given registry — the hook
    /// golden tests use to force deterministic durations.
    pub fn with_registry(
        config: FleetConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let metrics = Metrics::enabled(registry);
        let dx = EnergyDx::new(config.analysis.clone())
            .with_jobs(config.jobs)
            .with_metrics(metrics.clone());
        FleetState {
            config,
            dx,
            apps: BTreeMap::new(),
            metrics,
            next_spill_seq: 0,
            touch: BTreeMap::new(),
            clock: 0,
            generation_clock: 0,
            incarnation: next_incarnation(),
            cache: Mutex::new(QueryCache::default()),
            #[cfg(test)]
            sabotage_before_commit: false,
        }
    }

    /// Poison-tolerant cache access: the cache is derived data, so a
    /// panic while it was held leaves nothing worth refusing over.
    fn cache(&self) -> MutexGuard<'_, QueryCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The state's process-unique incarnation (scopes generations).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Drops every cached query result and adopts a fresh incarnation.
    /// Called when state is replaced wholesale (checkpoint install):
    /// generation tokens issued before this moment must never validate
    /// against the new content.
    pub fn invalidate_query_cache(&mut self) {
        *self.cache() = QueryCache::default();
        self.incarnation = next_incarnation();
    }

    /// The query cache's counters.
    pub fn query_cache_stats(&self) -> CacheLayerStats {
        let mut cache = self.cache();
        cache.stats.bytes = cache.total_bytes();
        cache.stats
    }

    fn count_cache(&self, hit: bool) {
        {
            let mut cache = self.cache();
            if hit {
                cache.stats.hits += 1;
            } else {
                cache.stats.misses += 1;
            }
        }
        let family = if hit {
            "fleetd_query_cache_hits_total"
        } else {
            "fleetd_query_cache_misses_total"
        };
        self.metrics.inc(family, &[("layer", "state")]);
    }

    /// Evicts least-recently-used cache entries until the cache fits
    /// `limit` bytes. Derived data only — eviction costs nothing but
    /// the next query's time.
    fn trim_cache(&self, limit: usize) {
        loop {
            {
                let mut cache = self.cache();
                if cache.total_bytes() <= limit {
                    return;
                }
                let Some(key) = cache.coldest() else {
                    return;
                };
                cache.analyzed.remove(&key);
                cache.stats.evictions += 1;
            }
            self.metrics.inc(
                "fleetd_query_cache_evictions_total",
                &[("layer", "state")],
            );
        }
    }

    /// Re-establishes `resident + cache <= budget` after a cache
    /// insert, by eviction only (queries hold `&self` and cannot
    /// spill). No spill config means no budget: the cache is bounded
    /// by the fleet it mirrors, exactly like resident state.
    fn trim_cache_to_budget(&self) {
        if let Some(cfg) = &self.config.spill {
            self.trim_cache(
                cfg.mem_budget.saturating_sub(self.resident_bytes()),
            );
        }
        self.update_cache_gauges();
    }

    /// Refreshes the `fleetd_query_cache_bytes` gauge.
    pub(crate) fn update_cache_gauges(&self) {
        let bytes = self.cache().total_bytes();
        self.metrics.set_gauge(
            "fleetd_query_cache_bytes",
            &[("layer", "state")],
            bytes as f64,
        );
    }

    /// The configuration the state was built with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The metrics handle every ingest/query records through.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Per-app state, for assertions and the checkpointer.
    pub fn apps(&self) -> &BTreeMap<String, AppState> {
        &self.apps
    }

    /// Total accepted traces across all apps and epochs.
    pub fn accepted_total(&self) -> usize {
        self.apps
            .values()
            .flat_map(|a| a.epochs.values())
            .map(EpochState::trace_count)
            .sum()
    }

    /// Total quarantined uploads across all apps and epochs.
    pub fn quarantined_total(&self) -> usize {
        self.apps
            .values()
            .flat_map(|a| a.epochs.values())
            .map(|e| e.quarantine.len())
            .sum()
    }

    /// Ingests one wire payload into `app`'s current epoch: the shared
    /// decode → salvage → anonymize → repair → validate pipeline (under
    /// the default [`RepairPolicy`]), then per-epoch `(user, session)`
    /// dedup, then one single-trace [`EnergyDx::map_shard`] at the
    /// epoch's running offset.
    ///
    /// Total accounting: every submission maps to exactly one
    /// [`IngestOutcome`]; rejected uploads land in the epoch's
    /// quarantine with a [`QuarantineEntry`], mirroring
    /// [`energydx_trace::store::TraceStore`] exactly.
    ///
    /// [`EnergyDx::map_shard`]: energydx::EnergyDx::map_shard
    pub fn submit(&mut self, app: &str, payload: &[u8]) -> IngestOutcome {
        let prepared = prepare_wire(payload, &RepairPolicy::default());
        self.submit_prepared(app, prepared)
    }

    /// The post-pipeline half of [`FleetState::submit`], for callers
    /// that already hold a [`PreparedUpload`]. When a spill budget is
    /// configured, ingestion ends with a [`FleetState::maybe_spill`]
    /// pass so resident state never outgrows the budget by more than
    /// one upload.
    pub fn submit_prepared(
        &mut self,
        app: &str,
        prepared: PreparedUpload,
    ) -> IngestOutcome {
        let outcome = self.ingest_prepared(app, prepared);
        if self.config.spill.is_some() {
            self.maybe_spill();
        }
        outcome
    }

    fn ingest_prepared(
        &mut self,
        app: &str,
        prepared: PreparedUpload,
    ) -> IngestOutcome {
        let _span = self.metrics.span("ingest");
        self.clock += 1;
        self.touch.insert(app.to_string(), self.clock);
        let epoch = self.apps.entry(app.to_string()).or_default().current_mut();
        match prepared {
            PreparedUpload::Rejected(entry) => {
                let outcome = IngestOutcome::Rejected(entry.reason);
                self.metrics.inc(
                    "fleetd_uploads_quarantined_total",
                    &[("reason", &entry.reason.to_string())],
                );
                self.metrics.event(
                    EventKind::Quarantine,
                    format!("app={app} reason={}", entry.reason),
                );
                epoch.quarantine.push(entry);
                outcome
            }
            PreparedUpload::Ready {
                bundle,
                repairs,
                salvage,
            } => {
                let key = (bundle.user.clone(), bundle.session);
                if epoch.seen.contains(&key) {
                    epoch.quarantine.push(QuarantineEntry {
                        reason: RejectReason::Duplicate,
                        user: Some(bundle.user.clone()),
                        session: Some(bundle.session),
                        detail: format!(
                            "session {} for user {} already accepted",
                            bundle.session, bundle.user
                        ),
                    });
                    self.metrics.inc(
                        "fleetd_uploads_quarantined_total",
                        &[("reason", "duplicate")],
                    );
                    self.metrics.event(
                        EventKind::Quarantine,
                        format!("app={app} reason=duplicate"),
                    );
                    return IngestOutcome::Rejected(RejectReason::Duplicate);
                }
                let trace = {
                    let _span = self.metrics.span("convert");
                    convert::bundle_to_trace(&bundle)
                };
                let delta = self.dx.map_shard(&[trace], epoch.trace_count);
                #[cfg(test)]
                if self.sabotage_before_commit {
                    panic!("test: injected panic before the commit point");
                }
                // Commit point. Everything that can panic on a hostile
                // upload (decode, convert, map) has already run; the
                // mutations below are plain collection updates plus an
                // append whose offsets are contiguous by construction
                // (the delta was mapped at `trace_count`), so a panic
                // above leaves the epoch exactly as if this upload
                // never arrived — the atomicity the server's ingest
                // catch_unwind relies on to keep a surviving daemon
                // byte-identical to the batch reference. The
                // generation bump sits with the commit, so a panicking
                // upload never invalidates (or aliases) a cache key.
                epoch.seen.insert(key);
                epoch.trace_count += 1;
                epoch.append(bundle.app_version.clone(), delta);
                self.generation_clock += 1;
                epoch.generation = self.generation_clock;
                if repairs.is_empty() && salvage.is_none() {
                    epoch.clean += 1;
                    self.metrics
                        .inc("fleetd_uploads_total", &[("outcome", "clean")]);
                    IngestOutcome::Clean
                } else {
                    epoch.recovered += 1;
                    self.metrics.inc(
                        "fleetd_uploads_total",
                        &[("outcome", "recovered")],
                    );
                    IngestOutcome::Recovered { repairs, salvage }
                }
            }
        }
    }

    /// Approximate bytes of resident (un-spilled) run state across
    /// the whole fleet — the quantity [`FleetState::maybe_spill`]
    /// holds under the configured budget.
    pub fn resident_bytes(&self) -> usize {
        self.apps
            .values()
            .flat_map(|a| a.epochs.values())
            .map(EpochState::resident_bytes)
            .sum()
    }

    /// Total bytes held in spilled segment files.
    pub fn spilled_bytes(&self) -> u64 {
        self.apps
            .values()
            .flat_map(|a| a.epochs.values())
            .flat_map(|e| &e.spilled)
            .map(|run| run.bytes)
            .sum()
    }

    /// Spilled segment files currently referenced.
    pub fn spilled_segments(&self) -> usize {
        self.apps
            .values()
            .flat_map(|a| a.epochs.values())
            .map(EpochState::spilled_runs)
            .sum()
    }

    /// Spills coldest epochs until resident run state fits the
    /// configured budget. A no-op without a spill config; with budget
    /// `0` every epoch spills as soon as it holds data. Returns how
    /// many epochs were spilled. A spill that fails (full disk,
    /// permissions) leaves its epoch resident, counts
    /// `fleetd_spill_failures_total`, and stops the pass — queries
    /// keep working either way.
    pub fn maybe_spill(&mut self) -> usize {
        let Some(cfg) = self.config.spill.clone() else {
            return 0;
        };
        let budget = cfg.mem_budget;
        self.spill_until(&cfg, budget)
    }

    /// Spills every epoch with resident runs regardless of budget —
    /// the explicit eviction the harness and an operator's pre-restart
    /// drain use.
    pub fn spill_all(&mut self) -> usize {
        let Some(cfg) = self.config.spill.clone() else {
            return 0;
        };
        self.spill_until(&cfg, 0)
    }

    fn spill_until(&mut self, cfg: &SpillConfig, budget: usize) -> usize {
        let mut spilled = 0;
        while self.resident_bytes() > budget {
            let Some((app, id)) = self.spill_victim() else {
                break;
            };
            if self.spill_epoch(&app, id, cfg).is_err() {
                break;
            }
            spilled += 1;
        }
        // Cached analyses count against the same budget. They never
        // cause a spill (only resident runs do): being purely derived,
        // they shrink, coldest first, to the room the resident runs
        // leave.
        self.trim_cache(budget.saturating_sub(self.resident_bytes()));
        self.update_spill_gauges();
        self.update_cache_gauges();
        spilled
    }

    /// Coldest epoch holding resident runs: frozen epochs before
    /// current ones, then least-recently-ingested app, then name and
    /// epoch id for a total (deterministic) order.
    fn spill_victim(&self) -> Option<(String, u64)> {
        self.apps
            .iter()
            .flat_map(|(app, a)| {
                a.epochs
                    .iter()
                    .filter(|(_, e)| !e.runs.is_empty())
                    .map(move |(&id, _)| (app, id == a.current_epoch, id))
            })
            .min_by(|x, y| {
                (x.1, self.touch.get(x.0).unwrap_or(&0), x.0, x.2).cmp(&(
                    y.1,
                    self.touch.get(y.0).unwrap_or(&0),
                    y.0,
                    y.2,
                ))
            })
            .map(|(app, _, id)| (app.clone(), id))
    }

    /// Writes each of one epoch's resident runs as its own segment
    /// file, as it is (runs are maximal same-release runs, so a
    /// spilled segment never mixes releases and a versioned query can
    /// read only its release's runs); only after *every* write
    /// succeeds (tmp + fsync + rename inside
    /// [`energydx_segment::save_to`]) is the resident state dropped,
    /// so a failed spill never loses an accepted trace. A
    /// single-version epoch spills exactly one file per pass.
    fn spill_epoch(
        &mut self,
        app: &str,
        id: u64,
        cfg: &SpillConfig,
    ) -> Result<(), energydx_segment::SegmentError> {
        let first_seq = self.next_spill_seq;
        let mut written: Vec<u64> = Vec::new();
        let write = std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| energydx_segment::SegmentError::Io {
                op: "create spill directory",
                detail: e.to_string(),
            })
            .and_then(|()| {
                for (i, run) in
                    self.apps[app].epochs[&id].runs.iter().enumerate()
                {
                    let seq = first_seq + i as u64;
                    let path = spill::segment_path(&cfg.dir, seq);
                    written.push(energydx_segment::save_to(
                        &path,
                        &run.partial.to_parts(),
                    )?);
                }
                Ok(())
            });
        match write {
            Ok(()) => {
                self.next_spill_seq += written.len() as u64;
                let epoch = self
                    .apps
                    .get_mut(app)
                    .expect("victim app exists")
                    .epochs
                    .get_mut(&id)
                    .expect("victim epoch exists");
                let mut traces = 0;
                let mut bytes = 0;
                let runs = std::mem::take(&mut epoch.runs);
                for (i, (run, file_bytes)) in
                    runs.into_iter().zip(written).enumerate()
                {
                    traces += run.partial.trace_count();
                    bytes += file_bytes;
                    epoch.spilled.push(SpilledRun {
                        seq: first_seq + i as u64,
                        traces: run.partial.trace_count(),
                        bytes: file_bytes,
                        version: run.version,
                        start: run.partial.start_offset(),
                    });
                }
                self.generation_clock += 1;
                epoch.generation = self.generation_clock;
                self.metrics.inc("fleetd_spills_total", &[]);
                self.metrics.event(
                    EventKind::Spill,
                    format!(
                        "app={app} epoch={id} seq={first_seq} \
                         traces={traces} bytes={bytes}",
                    ),
                );
                Ok(())
            }
            Err(e) => {
                // Remove any files this pass already wrote so their
                // sequence numbers (never advanced) stay rewritable.
                for i in 0..written.len() {
                    let _ = std::fs::remove_file(spill::segment_path(
                        &cfg.dir,
                        first_seq + i as u64,
                    ));
                }
                self.metrics.inc("fleetd_spill_failures_total", &[]);
                Err(e)
            }
        }
    }

    fn update_spill_gauges(&self) {
        self.metrics.set_gauge(
            "fleetd_resident_bytes",
            &[],
            self.resident_bytes() as f64,
        );
        self.metrics.set_gauge(
            "fleetd_spilled_bytes",
            &[],
            self.spilled_bytes() as f64,
        );
        self.metrics.set_gauge(
            "fleetd_spilled_segments",
            &[],
            self.spilled_segments() as f64,
        );
    }

    /// Resolves a selector to its cache key and epoch — the one
    /// app/epoch lookup every query goes through.
    fn resolve(
        &self,
        sel: &Selector,
    ) -> Result<(QueryKey, &EpochState), QueryError> {
        let state = self
            .apps
            .get(&sel.app)
            .ok_or_else(|| QueryError::UnknownApp(sel.app.clone()))?;
        let id = sel.epoch.unwrap_or(state.current_epoch);
        let e =
            state
                .epochs
                .get(&id)
                .ok_or_else(|| QueryError::UnknownEpoch {
                    app: sel.app.clone(),
                    epoch: id,
                })?;
        Ok(((sel.app.clone(), id, sel.version.clone()), e))
    }

    /// Folds the selected traces of one epoch in accept order: spilled
    /// runs first (their traces precede every resident run), then the
    /// resident runs, each merged at [`ShardPartial::rebase_to`] the
    /// fold's current end. For a whole-epoch selection the pieces
    /// already tile the epoch, so every rebase is a no-op and the fold
    /// finishes byte-identically to a never-spilled epoch; for one
    /// release it re-anchors that release's traces to a dense local
    /// offset space, which is pure offset arithmetic
    /// (`map_shard(ts, g).rebase_to(l) == map_shard(ts, l)`), so the
    /// result is byte-identical to a daemon that only ever accepted
    /// that release's uploads, in order.
    fn fold(
        &self,
        e: &EpochState,
        version: Option<&str>,
    ) -> Result<ShardPartial, QueryError> {
        let _span = self.metrics.span("merge");
        let mut fold = ShardPartial::empty();
        for (_, partial) in self.read_spilled(e, version)? {
            self.metrics.inc("fleetd_foldbacks_total", &[]);
            let end = fold.end_offset();
            fold = fold.merge(partial.rebase_to(end));
        }
        let selected = |v: &str| version.is_none_or(|want| want == v);
        for r in e.runs.iter().filter(|r| selected(&r.version)) {
            let end = fold.end_offset();
            fold = fold.merge(r.partial.clone().rebase_to(end));
        }
        Ok(fold)
    }

    /// Reads the epoch's spilled runs of release `version` (every
    /// release when `None`) back from their segment files, in epoch
    /// order, each paired with its record. The files are read in
    /// parallel (`par_map` over the analyzer's job count), then each
    /// partial is checked against its record, so damage surfaces as
    /// [`QueryError::Storage`] rather than a panic or a wrong answer.
    pub(crate) fn read_spilled<'e>(
        &self,
        e: &'e EpochState,
        version: Option<&str>,
    ) -> Result<Vec<(&'e SpilledRun, ShardPartial)>, QueryError> {
        // Each selected spilled run with its place in the epoch's
        // whole spilled prefix, which its record must match.
        let mut start = 0;
        let mut spilled: Vec<(&SpilledRun, usize)> = Vec::new();
        for run in &e.spilled {
            if version.is_none_or(|want| want == run.version) {
                spilled.push((run, start));
            }
            start += run.traces;
        }
        if spilled.is_empty() {
            return Ok(Vec::new());
        }
        let cfg = self.config.spill.as_ref().ok_or_else(|| {
            QueryError::Storage(
                "epoch holds spilled run(s) but no spill directory is \
                 configured"
                    .to_string(),
            )
        })?;
        let paths: Vec<std::path::PathBuf> = spilled
            .iter()
            .map(|(run, _)| spill::segment_path(&cfg.dir, run.seq))
            .collect();
        let loaded =
            energydx::par::par_map(&paths, self.dx.jobs(), |_, path| {
                energydx_segment::load_from(path).map_err(|err| {
                    QueryError::Storage(format!("{}: {err}", path.display()))
                })
            });
        spilled
            .into_iter()
            .zip(loaded)
            .map(|((run, start), partial)| {
                let partial = partial?;
                check_run(&cfg.dir, run, start, &partial)?;
                Ok((run, partial))
            })
            .collect()
    }

    /// Freezes `app`'s current epoch and opens the next one; returns
    /// the new epoch id. Frozen epochs stay queryable by id.
    pub fn rollover(&mut self, app: &str) -> u64 {
        self.generation_clock += 1;
        let generation = self.generation_clock;
        let state = self.apps.entry(app.to_string()).or_default();
        // Materialize the epoch being frozen even if it is empty, so
        // its id stays queryable.
        state.current_mut();
        state.current_epoch += 1;
        state.current_mut().generation = generation;
        let epoch = state.current_epoch;
        self.metrics.inc("fleetd_epoch_rollovers_total", &[]);
        self.metrics
            .event(EventKind::Rollover, format!("app={app} epoch={epoch}"));
        epoch
    }

    /// The generation-conditional partial of a selection — the worker
    /// half of the cluster delta protocol, for every query kind. When
    /// the caller's `(epoch, incarnation, generation)` token still
    /// names the resolved epoch's content (any release of it), answers
    /// [`PartialSinceOutcome::Unchanged`] without folding anything;
    /// otherwise returns the selection's locally-offset fold, starting
    /// at 0, for a coordinator to rebase and merge with its peers'.
    /// Each call counts one state-layer lookup: a hit when it answers
    /// `Unchanged`, a miss when it folds.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownApp`] / [`QueryError::UnknownEpoch`] when
    /// nothing was ever accepted under that name;
    /// [`QueryError::Storage`] when a spilled run cannot be re-read.
    pub fn partial_since(
        &self,
        sel: &Selector,
        known: Option<(u64, u64, u64)>,
    ) -> Result<PartialSinceOutcome, QueryError> {
        let (key, e) = self.resolve(sel)?;
        let epoch = key.1;
        // A stale or absent token is a miss: the answer must fold.
        let hit = known == Some((epoch, self.incarnation, e.generation));
        self.count_cache(hit);
        if hit {
            return Ok(PartialSinceOutcome::Unchanged { epoch });
        }
        let partial = self.fold(e, sel.version.as_deref())?;
        Ok(PartialSinceOutcome::Changed {
            epoch,
            incarnation: self.incarnation,
            generation: e.generation,
            partial,
        })
    }

    /// [`FleetState::partial_since`] without a token over `app`'s whole
    /// epoch (current when `None`): the resolved id and its partial.
    ///
    /// # Errors
    ///
    /// As [`FleetState::partial_since`].
    pub fn epoch_partial(
        &self,
        app: &str,
        epoch: Option<u64>,
    ) -> Result<(u64, ShardPartial), QueryError> {
        match self.partial_since(&Selector::new(app, epoch, None), None)? {
            PartialSinceOutcome::Changed { epoch, partial, .. } => {
                Ok((epoch, partial))
            }
            PartialSinceOutcome::Unchanged { .. } => {
                unreachable!("a query without a token always folds")
            }
        }
    }

    /// The analysis of a selection, generation-exact memoized: a
    /// repeat over unchanged content is the cached [`Analysis`],
    /// shared, skipping the fold and Steps 2–5 entirely; otherwise the
    /// selection is folded, analyzed and cached. Counts one
    /// state-layer lookup either way.
    ///
    /// # Errors
    ///
    /// As [`FleetState::partial_since`], plus [`QueryError::Analysis`].
    fn analyzed(&self, sel: &Selector) -> Result<Arc<Analysis>, QueryError> {
        let (key, e) = self.resolve(sel)?;
        let hit = {
            let mut cache = self.cache();
            let stamp = cache.tick();
            cache
                .analyzed
                .get_mut(&key)
                .filter(|entry| entry.generation == e.generation)
                .map(|entry| {
                    entry.last_used = stamp;
                    Arc::clone(&entry.analysis)
                })
        };
        self.count_cache(hit.is_some());
        if let Some(analysis) = hit {
            return Ok(analysis);
        }
        let fold = self.fold(e, sel.version.as_deref())?;
        let fleet = self
            .dx
            .analyze(fold)
            .map_err(|err| QueryError::Analysis(err.to_string()))?;
        let analysis = Arc::new(Analysis {
            fleet_bytes: fleet.approx_bytes(),
            fleet,
            json: OnceLock::new(),
        });
        {
            let mut cache = self.cache();
            let stamp = cache.tick();
            cache.analyzed.insert(
                key,
                AnalyzedEntry {
                    generation: e.generation,
                    last_used: stamp,
                    analysis: Arc::clone(&analysis),
                },
            );
        }
        self.trim_cache_to_budget();
        Ok(analysis)
    }

    /// Finishes a selection into a full diagnosis report — the
    /// incremental result that must equal the batch run over the same
    /// traces. A release nothing was uploaded under yields an empty
    /// report, not an error, so a differential query against a
    /// misspelled or not-yet-shipped version answers "insufficient
    /// data" honestly. Renders a clone of the memoized analysis — same
    /// input to `render`, same bytes out.
    fn diagnosis(&self, sel: &Selector) -> Result<DiagnosisReport, QueryError> {
        let _span = self.metrics.span("finish");
        let analysis = self.analyzed(sel)?;
        Ok(self.dx.render(analysis.fleet.clone()))
    }

    /// The [`FleetSummary`] of a selection: what the release gate and
    /// the operator report read. Summarizes the same memoized analysis
    /// a `Diagnose` renders, by reference, and renders nothing; an
    /// unknown release is the empty summary, as it is the empty report
    /// there.
    ///
    /// # Errors
    ///
    /// As [`FleetState::partial_since`], plus [`QueryError::Analysis`].
    pub fn summary(&self, sel: &Selector) -> Result<FleetSummary, QueryError> {
        let analysis = self.analyzed(sel)?;
        Ok(self.dx.summarize(&analysis.fleet))
    }

    /// A selection's diagnosis as canonical JSON, shared with the query
    /// cache: one memoized-analysis lookup, then the bytes
    /// [`EnergyDx::render_json`] writes from it, by reference. Rendering
    /// is a pure function of the analysis, so the bytes are
    /// generation-keyed too: they are rendered at most once per
    /// generation, and a repeat poll over unchanged content is a
    /// reference count.
    ///
    /// # Errors
    ///
    /// As [`FleetState::summary`].
    pub(crate) fn diagnosis_json_shared(
        &self,
        sel: &Selector,
    ) -> Result<Arc<String>, QueryError> {
        let analysis = self.analyzed(sel)?;
        if let Some(json) = analysis.json.get() {
            return Ok(Arc::clone(json));
        }
        let json = Arc::clone(analysis.json.get_or_init(|| {
            let _span = self.metrics.span("finish");
            Arc::new(self.dx.render_json(&analysis.fleet))
        }));
        // The entry, unless the budget already evicted it, just grew
        // by the rendered bytes.
        self.trim_cache_to_budget();
        Ok(json)
    }

    /// The canonical JSON diagnosis of `app`'s whole epoch (current
    /// when `None`) — the byte string the differential harness
    /// compares with the batch reference.
    ///
    /// # Errors
    ///
    /// As [`FleetState::summary`].
    pub fn diagnose_json(
        &self,
        app: &str,
        epoch: Option<u64>,
    ) -> Result<String, QueryError> {
        self.diagnosis_json_shared(&Selector::new(app, epoch, None))
            .map(Arc::unwrap_or_clone)
    }

    /// The diagnosis report of one release's traces of `app`'s epoch
    /// (current when `None`) — one half of a regression comparison.
    ///
    /// # Errors
    ///
    /// As [`FleetState::summary`].
    pub fn diagnose_version(
        &self,
        app: &str,
        epoch: Option<u64>,
        version: &str,
    ) -> Result<DiagnosisReport, QueryError> {
        self.diagnosis(&Selector::new(app, epoch, Some(version)))
    }

    /// Differential diagnosis between two releases of `app` within one
    /// epoch: summarizes each version's traces alone
    /// ([`FleetState::summary`]), aligns their event populations, and
    /// reports per-event normalized-power quantile shifts and
    /// impacted-user-fraction deltas under `config`'s thresholds.
    ///
    /// # Errors
    ///
    /// As [`FleetState::summary`].
    pub fn regressions(
        &self,
        app: &str,
        epoch: Option<u64>,
        from: &str,
        to: &str,
        config: &RegressConfig,
    ) -> Result<RegressionReport, QueryError> {
        let _span = self.metrics.span("regress");
        self.metrics.inc("fleetd_regress_queries_total", &[]);
        let from_summary =
            self.summary(&Selector::new(app, epoch, Some(from)))?;
        let to_summary = self.summary(&Selector::new(app, epoch, Some(to)))?;
        let report = energydx_regress::compare_summaries(
            from,
            &from_summary,
            to,
            &to_summary,
            config,
        );
        self.metrics.inc(
            "fleetd_regress_verdicts_total",
            &[("verdict", report.verdict.as_str())],
        );
        Ok(report)
    }

    /// [`FleetState::regressions`] rendered as canonical JSON — the
    /// byte string the release-gating harness compares.
    ///
    /// # Errors
    ///
    /// As [`FleetState::regressions`].
    pub fn regressions_json(
        &self,
        app: &str,
        epoch: Option<u64>,
        from: &str,
        to: &str,
        config: &RegressConfig,
    ) -> Result<String, QueryError> {
        Ok(energydx_regress::regression_json(
            &self.regressions(app, epoch, from, to, config)?,
        ))
    }

    /// Total epochs across all apps (frozen ones included).
    pub fn epochs_total(&self) -> usize {
        self.apps.values().map(|a| a.epochs.len()).sum()
    }

    /// Writes the per-app ingestion accounting as the member of an
    /// enclosing object — the shared body of [`FleetState::stats_json`]
    /// and the server's extended stats document.
    pub(crate) fn write_stats(&self, w: &mut JsonWriter) {
        w.key("apps");
        w.obj(|w| {
            for (app, state) in &self.apps {
                w.key(app);
                w.obj(|w| {
                    w.key("current_epoch");
                    w.u64(state.current_epoch);
                    w.key("epochs");
                    w.obj(|w| {
                        for (id, e) in &state.epochs {
                            w.key(&id.to_string());
                            w.obj(|w| {
                                w.key("clean");
                                w.usize(e.clean);
                                w.key("deltas");
                                w.usize(e.runs.len());
                                w.key("quarantined");
                                w.obj(|w| {
                                    for (reason, n) in e.quarantine_counters() {
                                        w.key(&reason.to_string());
                                        w.usize(n);
                                    }
                                });
                                w.key("recovered");
                                w.usize(e.recovered);
                                w.key("spilled_runs");
                                w.usize(e.spilled.len());
                                w.key("spilled_traces");
                                w.usize(e.spilled_traces());
                                w.key("traces");
                                w.usize(e.trace_count);
                                w.key("versions");
                                w.obj(|w| {
                                    for (version, n) in e.versions() {
                                        w.key(&version);
                                        w.usize(n);
                                    }
                                });
                            });
                        }
                    });
                });
            }
        });
    }

    /// Ingestion accounting as canonical JSON: per app, per epoch —
    /// clean/recovered counts, per-reason quarantine counters, trace
    /// and delta counts. Rendered through the workspace
    /// [`JsonWriter`], so key ordering, float formatting, and escaping
    /// match every other JSON surface; equal states render equal
    /// bytes.
    pub fn stats_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| self.write_stats(w));
        w.into_line()
    }

    /// Liveness summary as canonical JSON (keys sorted), through the
    /// same [`JsonWriter`] as every other JSON surface.
    pub fn health_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("apps");
            w.usize(self.apps.len());
            w.key("epochs");
            w.usize(self.epochs_total());
            w.key("quarantined");
            w.usize(self.quarantined_total());
            w.key("status");
            w.string("ok");
            w.key("traces");
            w.usize(self.accepted_total());
        });
        w.into_line()
    }
}

/// Checks a segment read back from disk against the run it was
/// spilled as: the run's recorded start must be
/// its place in the epoch's spilled prefix, and the segment must cover
/// exactly the run's traces from there.
fn check_run(
    dir: &std::path::Path,
    run: &SpilledRun,
    start: usize,
    partial: &ShardPartial,
) -> Result<(), QueryError> {
    let path = spill::segment_path(dir, run.seq);
    if run.start != start {
        return Err(QueryError::Storage(format!(
            "{}: run records start offset {} but the epoch's spilled \
             prefix places it at {}",
            path.display(),
            run.start,
            start,
        )));
    }
    if partial.trace_count() != run.traces
        || partial.start_offset() != start
        || partial.end_offset() != start + run.traces
    {
        return Err(QueryError::Storage(format!(
            "{}: segment covers trace(s) [{}, {}) where run of {} \
             trace(s) from {} was spilled",
            path.display(),
            partial.start_offset(),
            partial.end_offset(),
            run.traces,
            start,
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fixture::{bundle, payload, payload_versioned};
    use std::path::{Path, PathBuf};

    /// RAII scratch directory: unique per test, removed even when the
    /// test's assertions fail mid-way.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("energydx-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn spilling_config(dir: &Path, mem_budget: usize) -> FleetConfig {
        FleetConfig {
            spill: Some(SpillConfig {
                dir: dir.to_path_buf(),
                mem_budget,
            }),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn incremental_submissions_equal_batch_reference() {
        let mut state = FleetState::new(FleetConfig::default());
        let mut bundles = Vec::new();
        for s in 0..6 {
            let outcome = state.submit("app", &payload("u", s));
            assert_eq!(outcome, IngestOutcome::Clean);
            let mut b = bundle("u", s);
            b.anonymize();
            bundles.push(b);
        }
        let input = crate::convert::bundles_to_input(&bundles);
        let reference = EnergyDx::default()
            .diagnose_reference(&input)
            .to_canonical_json();
        assert_eq!(state.diagnose_json("app", None).unwrap(), reference);
    }

    /// Asserts that every epoch's resident runs are maximal
    /// same-release runs that tile the traces after its spilled prefix.
    pub(crate) fn assert_runs_maximal(state: &FleetState) {
        for (app, a) in state.apps() {
            for (id, e) in a.epochs() {
                let mut next = e.spilled_traces();
                for (i, run) in e.runs.iter().enumerate() {
                    let p = &run.partial;
                    assert!(p.trace_count() > 0, "{app}/{id}: empty run {i}");
                    assert_eq!(p.start_offset(), next, "{app}/{id}: run {i}");
                    assert_eq!(p.end_offset() - next, p.trace_count());
                    next = p.end_offset();
                    if i > 0 {
                        assert_ne!(
                            e.runs[i - 1].version,
                            run.version,
                            "{app}/{id}: runs {} and {i} share a release",
                            i - 1
                        );
                    }
                }
                assert_eq!(next, e.trace_count(), "{app}/{id}");
            }
        }
    }

    #[test]
    fn uploads_under_one_release_extend_one_run() {
        let mut state = FleetState::new(FleetConfig::default());
        let mut bundles = Vec::new();
        for s in 0..5 {
            assert!(state.submit("app", &payload("u", s)).accepted());
            assert_eq!(state.apps()["app"].epochs()[&0].delta_count(), 1);
            let mut b = bundle("u", s);
            b.anonymize();
            bundles.push(b);
        }
        let reference = EnergyDx::default()
            .diagnose_reference(&crate::convert::bundles_to_input(&bundles))
            .to_canonical_json();
        assert_eq!(state.diagnose_json("app", None).unwrap(), reference);
    }

    #[test]
    fn resident_runs_stay_maximal_after_every_upload() {
        let tmp = TempDir::new("state-maximal-runs");
        let mut state =
            FleetState::new(spilling_config(tmp.path(), usize::MAX));
        // Runs of one to three uploads per release, a duplicate and a
        // quarantined upload inside a run, a spill, and a rollover.
        let script = [
            "1.9.0", "1.9.0", "2.0.0", "1.9.0", "2.0.0", "2.0.0", "2.0.0", "",
            "1.9.0", "1.9.0", "2.0.0",
        ];
        for (s, version) in script.iter().enumerate() {
            let s = s as u64;
            assert!(state
                .submit("app", &payload_versioned("u", s, version))
                .accepted());
            assert_runs_maximal(&state);
            if s == 5 {
                state.submit("app", &payload_versioned("u", 0, "2.0.0"));
                state.submit("app", &[0xAB; 16]);
                assert_runs_maximal(&state);
            }
            if s == 7 {
                assert!(state.spill_all() > 0);
                assert_runs_maximal(&state);
            }
        }
        let runs: Vec<&str> = state.apps()["app"].epochs()[&0]
            .runs
            .iter()
            .map(|r| r.version.as_str())
            .collect();
        assert_eq!(runs, ["1.9.0", "2.0.0"]);
        state.rollover("app");
        state.submit("app", &payload_versioned("u", 0, "2.0.0"));
        assert_runs_maximal(&state);
    }

    #[test]
    fn duplicates_and_garbage_are_quarantined() {
        let mut state = FleetState::new(FleetConfig::default());
        assert_eq!(state.submit("app", &payload("u", 0)), IngestOutcome::Clean);
        assert_eq!(
            state.submit("app", &payload("u", 0)),
            IngestOutcome::Rejected(RejectReason::Duplicate)
        );
        assert_eq!(
            state.submit("app", &[0xAB; 16]),
            IngestOutcome::Rejected(RejectReason::Undecodable)
        );
        let epoch = &state.apps()["app"].epochs()[&0];
        assert_eq!(epoch.trace_count(), 1);
        assert_eq!(epoch.quarantine().len(), 2);
        assert_eq!(epoch.quarantine()[1].user, None);
        assert_eq!(
            epoch.quarantine_counters().get(&RejectReason::Duplicate),
            Some(&1)
        );
    }

    #[test]
    fn a_mid_ingest_panic_leaves_no_torn_state() {
        let mut state = FleetState::new(FleetConfig::default());
        assert!(state.submit("app", &payload("u", 0)).accepted());
        let before = state.apps().clone();
        state.sabotage_before_commit = true;
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.submit("app", &payload("u", 1))
            }));
        assert!(panicked.is_err(), "the sabotage must fire");
        state.sabotage_before_commit = false;
        // The epoch is exactly as if the panicking upload never
        // arrived: no half-inserted dedup key, no dangling count.
        assert_eq!(state.apps(), &before);
        // And the state keeps working — the same session is still
        // acceptable (its key was never committed).
        assert!(state.submit("app", &payload("u", 1)).accepted());
        assert_eq!(state.apps()["app"].epochs()[&0].trace_count(), 2);
    }

    #[test]
    fn rollover_freezes_the_old_epoch() {
        let mut state = FleetState::new(FleetConfig::default());
        state.submit("app", &payload("u", 0));
        let old = state.diagnose_json("app", Some(0)).unwrap();
        assert_eq!(state.rollover("app"), 1);
        // The same (user, session) is a fresh key in the new epoch.
        assert_eq!(state.submit("app", &payload("u", 0)), IngestOutcome::Clean);
        assert_eq!(state.diagnose_json("app", Some(0)).unwrap(), old);
        assert_eq!(state.apps()["app"].current_epoch(), 1);
    }

    #[test]
    fn queries_for_unknown_names_are_typed_errors() {
        let mut state = FleetState::new(FleetConfig::default());
        assert_eq!(
            state.diagnose_json("ghost", None).unwrap_err(),
            QueryError::UnknownApp("ghost".to_string())
        );
        state.submit("app", &payload("u", 0));
        assert_eq!(
            state.diagnose_json("app", Some(7)).unwrap_err(),
            QueryError::UnknownEpoch {
                app: "app".to_string(),
                epoch: 7
            }
        );
    }

    #[test]
    fn stats_and_health_render_accounting() {
        let mut state = FleetState::new(FleetConfig::default());
        state.submit("app", &payload("u", 0));
        state.submit("app", &payload("u", 0));
        state.submit("app", &[0u8; 4]);
        let stats = state.stats_json();
        assert!(stats.contains("\"clean\": 1"), "{stats}");
        assert!(stats.contains("\"duplicate\": 1"), "{stats}");
        assert!(stats.contains("\"undecodable\": 1"), "{stats}");
        let health = state.health_json();
        assert!(health.contains("\"traces\": 1"), "{health}");
        assert!(health.contains("\"quarantined\": 2"), "{health}");
        // Both documents come from the shared JsonWriter: pretty,
        // newline-terminated, balanced.
        for doc in [&stats, &health] {
            assert!(doc.starts_with("{\n"), "{doc}");
            assert!(doc.ends_with("}\n"), "{doc}");
            assert_eq!(
                doc.matches('{').count(),
                doc.matches('}').count(),
                "{doc}"
            );
        }
    }

    #[test]
    fn a_zero_budget_state_spills_everything_and_answers_identically() {
        let tmp = TempDir::new("state-spill-zero");
        let reg = Arc::new(MetricsRegistry::deterministic());
        let mut resident = FleetState::new(FleetConfig::default());
        let mut spilling = FleetState::with_registry(
            spilling_config(tmp.path(), 0),
            Arc::clone(&reg),
        );
        for s in 0..6 {
            assert!(resident.submit("app", &payload("u", s)).accepted());
            assert!(spilling.submit("app", &payload("u", s)).accepted());
            // Budget 0: nothing stays resident past its own submit.
            assert_eq!(spilling.resident_bytes(), 0);
        }
        assert_eq!(spilling.spilled_segments(), 6);
        assert!(spilling.spilled_bytes() > 0);
        assert_eq!(
            spilling.diagnose_json("app", None).unwrap(),
            resident.diagnose_json("app", None).unwrap()
        );
        // The full partial a coordinator would fetch is also equal.
        assert_eq!(
            spilling.epoch_partial("app", None).unwrap().1.to_parts(),
            resident.epoch_partial("app", None).unwrap().1.to_parts()
        );
        let stats = spilling.stats_json();
        assert!(stats.contains("\"spilled_runs\": 6"), "{stats}");
        assert!(stats.contains("\"spilled_traces\": 6"), "{stats}");
        assert_eq!(
            reg.counter_value("fleetd_spills_total", &[]).unwrap_or(0),
            6
        );
        assert!(
            reg.counter_value("fleetd_foldbacks_total", &[])
                .unwrap_or(0)
                >= 6
        );
    }

    #[test]
    fn frozen_epochs_and_cold_apps_spill_first() {
        let tmp = TempDir::new("state-spill-victims");
        // A generous budget so nothing spills during ingest; the order
        // is then observable from the sequence numbers `spill_all`
        // hands out.
        let mut state =
            FleetState::new(spilling_config(tmp.path(), usize::MAX));
        state.submit("hot", &payload("u", 0));
        state.rollover("hot");
        state.submit("hot", &payload("u", 1));
        state.submit("cold", &payload("u", 0));
        state.submit("hot", &payload("u", 2));
        assert!(state.resident_bytes() > 0);
        assert_eq!(state.spill_all(), 3);
        assert_eq!(state.resident_bytes(), 0);
        let seq =
            |app: &str, id: u64| state.apps[app].epochs[&id].spilled[0].seq;
        // Frozen epoch first, then the least-recently-ingested app's
        // current epoch, then the hot app.
        assert_eq!(seq("hot", 0), 0);
        assert_eq!(seq("cold", 0), 1);
        assert_eq!(seq("hot", 1), 2);
    }

    #[test]
    fn a_partial_budget_keeps_the_hot_epoch_resident() {
        let tmp = TempDir::new("state-spill-partial");
        let mut state =
            FleetState::new(spilling_config(tmp.path(), usize::MAX));
        let mut reference = FleetState::new(FleetConfig::default());
        for s in 0..4 {
            state.submit("cold", &payload("u", s));
            reference.submit("cold", &payload("u", s));
        }
        for s in 0..4 {
            state.submit("hot", &payload("u", s));
            reference.submit("hot", &payload("u", s));
        }
        // Budget exactly one epoch's resident bytes: the cold app
        // spills, the hot one stays.
        let one_epoch = state.apps["hot"].epochs[&0].resident_bytes();
        state.config.spill.as_mut().unwrap().mem_budget = one_epoch;
        state.maybe_spill();
        assert_eq!(state.apps["cold"].epochs[&0].spilled_runs(), 1);
        assert_eq!(state.apps["cold"].epochs[&0].delta_count(), 0);
        assert_eq!(state.apps["hot"].epochs[&0].spilled_runs(), 0);
        assert!(state.apps["hot"].epochs[&0].delta_count() > 0);
        for app in ["cold", "hot"] {
            assert_eq!(
                state.diagnose_json(app, None).unwrap(),
                reference.diagnose_json(app, None).unwrap(),
                "{app} diverged"
            );
        }
    }

    #[test]
    fn a_failed_spill_keeps_the_epoch_resident_and_answerable() {
        let tmp = TempDir::new("state-spill-fail");
        // The configured spill "directory" is a file, so every spill
        // attempt fails before any data could be lost.
        let blocked = tmp.path().join("blocked");
        std::fs::write(&blocked, b"x").unwrap();
        let reg = Arc::new(MetricsRegistry::deterministic());
        let mut state = FleetState::with_registry(
            spilling_config(&blocked, 0),
            Arc::clone(&reg),
        );
        let mut reference = FleetState::new(FleetConfig::default());
        for s in 0..3 {
            assert!(state.submit("app", &payload("u", s)).accepted());
            reference.submit("app", &payload("u", s));
        }
        assert!(state.resident_bytes() > 0);
        assert_eq!(state.spilled_segments(), 0);
        assert!(
            reg.counter_value("fleetd_spill_failures_total", &[])
                .unwrap_or(0)
                >= 3
        );
        assert_eq!(
            state.diagnose_json("app", None).unwrap(),
            reference.diagnose_json("app", None).unwrap()
        );
    }

    #[test]
    fn a_missing_segment_is_a_typed_storage_error() {
        let tmp = TempDir::new("state-spill-missing");
        let mut state = FleetState::new(spilling_config(tmp.path(), 0));
        state.submit("app", &payload("u", 0));
        assert_eq!(state.spilled_segments(), 1);
        std::fs::remove_file(spill::segment_path(tmp.path(), 0)).unwrap();
        match state.diagnose_json("app", None) {
            Err(QueryError::Storage(detail)) => {
                assert!(detail.contains("run-000000000000.seg"), "{detail}");
            }
            other => panic!("expected a storage error, got {other:?}"),
        }
        // A damaged segment is the same taxonomy, not a panic.
        let path = spill::segment_path(tmp.path(), 1);
        state.submit("app", &payload("u", 1));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            state.diagnose_json("app", None),
            Err(QueryError::Storage(_))
        ));
        // Accounting surfaces keep working while data is unreadable.
        assert!(state.stats_json().contains("\"spilled_runs\""));
        assert!(state.health_json().contains("\"traces\": 2"));
    }

    /// The partial a selector folds to, without a token.
    fn selected(state: &FleetState, sel: &Selector) -> ShardPartial {
        match state.partial_since(sel, None).unwrap() {
            PartialSinceOutcome::Changed { partial, .. } => partial,
            other => panic!("a tokenless query must fold, got {other:?}"),
        }
    }

    /// A spilling state, a resident twin fed the same uploads, and a
    /// state fed only release `2.0.0`'s uploads — what that release's
    /// fold must equal once re-anchored to offset 0.
    struct ReleaseRig {
        state: FleetState,
        scratch: FleetState,
        alone: FleetState,
        sessions: u64,
    }

    impl ReleaseRig {
        fn upload(&mut self, version: &str) {
            let payload = payload_versioned("u", self.sessions, version);
            self.sessions += 1;
            assert!(self.state.submit("app", &payload).accepted());
            assert!(self.scratch.submit("app", &payload).accepted());
            if version == "2.0.0" {
                assert!(self.alone.submit("app", &payload).accepted());
            }
        }

        fn check(&self, sel: &Selector) {
            let folded = selected(&self.state, sel).to_parts();
            assert_eq!(folded, selected(&self.scratch, sel).to_parts());
            let whole = Selector::new("app", None, None);
            assert_eq!(folded, selected(&self.alone, &whole).to_parts());
        }

        /// Traces in the epoch's last resident run.
        fn last_run(&self) -> usize {
            let e = &self.state.apps["app"].epochs[&0];
            e.runs.last().map_or(0, |r| r.partial.trace_count())
        }
    }

    #[test]
    fn a_release_fold_equals_its_references_through_growth_and_spill() {
        let tmp = TempDir::new("state-release-fold");
        let mut rig = ReleaseRig {
            state: FleetState::new(spilling_config(tmp.path(), usize::MAX)),
            scratch: FleetState::new(FleetConfig::default()),
            alone: FleetState::new(FleetConfig::default()),
            sessions: 0,
        };
        let sel = Selector::new("app", None, Some("2.0.0"));
        for version in ["1.9.0", "2.0.0", "2.0.0", "1.9.0"] {
            rig.upload(version);
        }
        rig.check(&sel);
        // K new uploads, each run new.
        for version in ["2.0.0", "1.9.0", "2.0.0"] {
            rig.upload(version);
        }
        rig.check(&sel);
        // The last run grows in place.
        rig.upload("2.0.0");
        assert_eq!(rig.last_run(), 2);
        rig.check(&sel);
        // A spill writes every run whole, the grown one included. The
        // release's cached analysis fits the room the spill leaves, so
        // it survives (the cache is trimmed, not emptied), and the
        // release's next fold reads its spilled runs back.
        rig.upload("2.0.0");
        assert_eq!(rig.last_run(), 3);
        for _ in 0..4 {
            rig.upload("1.9.0");
        }
        rig.state.diagnose_version("app", None, "2.0.0").unwrap();
        let budget = rig.state.query_cache_stats().bytes;
        assert!(budget > 0);
        assert!(rig.state.resident_bytes() > budget);
        rig.state.config.spill.as_mut().unwrap().mem_budget = budget;
        assert!(rig.state.maybe_spill() > 0);
        assert_eq!(rig.state.query_cache_stats().bytes, budget);
        let spilled = &rig.state.apps["app"].epochs[&0].spilled;
        assert_eq!(spilled[spilled.len() - 2].traces, 3);
        rig.check(&sel);
        // Growth after the spill lands in a fresh resident run.
        rig.upload("2.0.0");
        rig.check(&sel);
        assert_eq!(
            rig.state.diagnose_version("app", None, "2.0.0").unwrap(),
            rig.scratch.diagnose_version("app", None, "2.0.0").unwrap()
        );
    }

    #[test]
    fn a_partial_query_counts_a_state_hit_only_when_its_token_holds() {
        let reg = Arc::new(MetricsRegistry::deterministic());
        let mut state =
            FleetState::with_registry(FleetConfig::default(), Arc::clone(&reg));
        let sel = Selector::new("app", None, None);
        state.submit("app", &payload("u", 0));
        let counts = |state: &FleetState| {
            let stats = state.query_cache_stats();
            let layer = [("layer", "state")];
            let counter = |family| reg.counter_value(family, &layer);
            assert_eq!(
                counter("fleetd_query_cache_hits_total").unwrap_or(0),
                stats.hits
            );
            assert_eq!(
                counter("fleetd_query_cache_misses_total").unwrap_or(0),
                stats.misses
            );
            (stats.hits, stats.misses)
        };
        let token = |outcome| match outcome {
            PartialSinceOutcome::Changed {
                epoch,
                incarnation,
                generation,
                ..
            } => (epoch, incarnation, generation),
            other => panic!("expected a fold, got {other:?}"),
        };
        // No token: a miss, and the answer folds.
        let held = token(state.partial_since(&sel, None).unwrap());
        assert_eq!(counts(&state), (0, 1));
        // The token still names the content: a hit, nothing folded.
        assert!(matches!(
            state.partial_since(&sel, Some(held)).unwrap(),
            PartialSinceOutcome::Unchanged { .. }
        ));
        assert_eq!(counts(&state), (1, 1));
        // One more upload makes the token stale: a miss again.
        state.submit("app", &payload("u", 1));
        token(state.partial_since(&sel, Some(held)).unwrap());
        assert_eq!(counts(&state), (1, 2));
    }

    #[test]
    fn a_diagnose_renders_once_per_generation_under_any_budget() {
        let tmp = TempDir::new("state-one-entry");
        let mut resident = FleetState::new(FleetConfig::default());
        let mut bundles = Vec::new();
        for s in 0..4 {
            assert!(resident.submit("app", &payload("u", s)).accepted());
            let mut b = bundle("u", s);
            b.anonymize();
            bundles.push(b);
        }
        let reference = EnergyDx::default()
            .diagnose_reference(&crate::convert::bundles_to_input(&bundles))
            .to_canonical_json();
        let sel = Selector::new("app", None, None);
        let counts = |state: &FleetState| {
            let stats = state.query_cache_stats();
            (stats.hits, stats.misses)
        };
        // A summary caches the analysis alone; the first Diagnose hits
        // it and renders the JSON into the same entry.
        resident.summary(&sel).unwrap();
        let analysis_bytes = resident.query_cache_stats().bytes;
        let first = resident.diagnosis_json_shared(&sel).unwrap();
        assert_eq!(*first, reference);
        assert_eq!(counts(&resident), (1, 1));
        let entry_bytes = resident.query_cache_stats().bytes;
        assert_eq!(entry_bytes, analysis_bytes + first.len() + 48);
        // A repeat over unchanged content shares those bytes.
        let repeat = resident.diagnosis_json_shared(&sel).unwrap();
        assert!(Arc::ptr_eq(&first, &repeat));
        assert_eq!(counts(&resident), (2, 1));
        assert_eq!(resident.query_cache_stats().bytes, entry_bytes);
        // Budgets smaller than one entry: one too small for the
        // analysis, one that holds the analysis but not its JSON. A
        // fresh Diagnose still serves the batch bytes.
        for budget in [0, analysis_bytes] {
            let dir = tmp.path().join(budget.to_string());
            let mut spilling = FleetState::new(spilling_config(&dir, budget));
            for s in 0..4 {
                assert!(spilling.submit("app", &payload("u", s)).accepted());
            }
            spilling.spill_all();
            assert_eq!(spilling.resident_bytes(), 0);
            let json = spilling.diagnosis_json_shared(&sel).unwrap();
            assert_eq!(*json, reference, "budget {budget}");
            let stats = spilling.query_cache_stats();
            assert_eq!((stats.hits, stats.misses), (0, 1), "budget {budget}");
            assert!(stats.bytes <= budget, "budget {budget}: {stats:?}");
            assert_eq!(stats.evictions, 1, "budget {budget}");
        }
    }

    #[test]
    fn ingest_accounting_reaches_the_registry() {
        let reg = Arc::new(MetricsRegistry::deterministic());
        let mut state =
            FleetState::with_registry(FleetConfig::default(), Arc::clone(&reg));
        state.submit("app", &payload("u", 0));
        state.submit("app", &payload("u", 0)); // duplicate
        state.submit("app", &[0xAB; 16]); // undecodable
        state.rollover("app");
        state.submit("app", &payload("u", 1));
        let _ = state.diagnose_json("app", None).unwrap();

        let counter = |family: &str, labels: &[(&str, &str)]| {
            reg.counter_value(family, labels).unwrap_or(0)
        };
        assert_eq!(counter("fleetd_uploads_total", &[("outcome", "clean")]), 2);
        assert_eq!(
            counter(
                "fleetd_uploads_quarantined_total",
                &[("reason", "duplicate")]
            ),
            1
        );
        assert_eq!(
            counter(
                "fleetd_uploads_quarantined_total",
                &[("reason", "undecodable")]
            ),
            1
        );
        assert_eq!(counter("fleetd_epoch_rollovers_total", &[]), 1);
        assert_eq!(
            counter("energydx_events_total", &[("kind", "quarantine")]),
            2
        );
        // Ingest + pipeline stages were timed (zero under the
        // deterministic registry).
        for stage in ["ingest", "convert", "map", "merge", "finish"] {
            let snap = reg
                .histogram_snapshot(
                    energydx_obsv::STAGE_FAMILY,
                    &[("stage", stage)],
                )
                .unwrap_or_else(|| panic!("stage {stage} missing"));
            assert!(snap.count() > 0, "stage {stage} empty");
            assert_eq!(snap.sum(), 0.0);
        }
        // The quarantine events carry app and reason context.
        let events = reg.recent_events();
        assert!(events.iter().any(|e| e.kind == EventKind::Quarantine
            && e.detail == "app=app reason=duplicate"));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Rollover
                && e.detail == "app=app epoch=1"));
    }
}
