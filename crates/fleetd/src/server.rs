//! The daemon itself: the in-process [`FleetdHandle`] and a localhost
//! TCP front end.
//!
//! Architecture: connection handlers (one thread per connection)
//! decode framed requests and answer each on their own thread. Queries
//! run against a snapshot of the shared [`FleetState`]; an upload is
//! admitted by the bounded [`IngestQueue`], then commits under the
//! state lock. The lock serializes commits, and the order uploads take
//! it is "accept order". Queries lock the state only long enough to
//! fold and finish, so a report is always a consistent snapshot: it
//! sees every upload acknowledged before the query and none of the
//! ones after.
//!
//! Backpressure is explicit end to end: a full queue answers
//! `RetryAfter` immediately, the client's retry loop waits at least
//! that long, and nothing is ever dropped without an outcome.
//!
//! [`FleetdHandle`] is the in-process face of the daemon (tests and
//! benches drive it directly, no sockets); [`serve`] puts the framed
//! TCP protocol in front of it.

use crate::checkpoint::{self, CheckpointError};
use crate::protocol::{
    read_frame, OutcomeCode, PartialStatus, Request, Response,
};
use crate::queue::{Enqueue, IngestQueue};
use crate::relock;
use crate::state::{
    FleetConfig, FleetState, PartialSinceOutcome, QueryError, Selector,
};
use energydx::JsonWriter;
use energydx_obsv::Metrics;
use energydx_trace::store::{IngestOutcome, RejectReason};
use std::collections::BTreeMap;
use std::io::Write as IoWrite;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon deployment configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Analysis/repair/spill parameters of the resident state.
    pub fleet: FleetConfig,
    /// Uploads that may wait for the state lock at once; beyond it
    /// submissions get `RetryAfter`.
    pub queue_depth: usize,
    /// The wait the daemon suggests when shedding load, in ms.
    pub retry_after_ms: u64,
    /// Artificial per-upload ingest delay in ms, slept under the state
    /// lock before each commit (test lever: makes backpressure
    /// deterministic by slowing commits down).
    pub ingest_delay_ms: u64,
    /// Directory holding the checkpoint; `None` = in-memory only.
    pub state_dir: Option<PathBuf>,
    /// Auto-checkpoint after this many accepted uploads; `0` = only
    /// on request and at shutdown.
    pub checkpoint_every: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            fleet: FleetConfig::default(),
            queue_depth: 64,
            retry_after_ms: 50,
            ingest_delay_ms: 0,
            state_dir: None,
            checkpoint_every: 0,
        }
    }
}

/// What a submission came back with.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitReply {
    /// Processed; this is the real ingest outcome.
    Outcome(IngestOutcome),
    /// Shed by the full queue; retry after the given wait.
    RetryAfter {
        /// Suggested wait in milliseconds.
        ms: u64,
    },
    /// The daemon is shutting down; no new uploads.
    ShuttingDown,
}

/// The in-process daemon: the fleet state behind its ingest queue.
/// It runs no thread of its own; every request, an upload's commit
/// included, runs on its caller's thread.
#[derive(Debug)]
pub struct FleetdHandle {
    state: Mutex<FleetState>,
    queue: IngestQueue,
    metrics: Metrics,
    retry_after_ms: u64,
    ingest_delay_ms: u64,
    state_dir: Option<PathBuf>,
    checkpoint_every: usize,
    clock: Mutex<CheckpointClock>,
}

/// When the last checkpoint was saved, and how many uploads were
/// accepted since the last periodic one.
#[derive(Debug, Default)]
struct CheckpointClock {
    saved: Option<Instant>,
    accepted: usize,
}

impl FleetdHandle {
    /// Starts the daemon, restoring the checkpoint when the state
    /// directory holds one.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint restore failures — a daemon must refuse
    /// to start over state it cannot trust, rather than silently
    /// analyze a partial fleet.
    pub fn start(config: ServerConfig) -> Result<Self, CheckpointError> {
        let state = match &config.state_dir {
            Some(dir) => checkpoint::load_from(dir, config.fleet.clone())?
                .unwrap_or_else(|| FleetState::new(config.fleet.clone())),
            None => FleetState::new(config.fleet.clone()),
        };
        let metrics = state.metrics().clone();
        Ok(FleetdHandle {
            state: Mutex::new(state),
            // The queue shares the state's registry, so sheds and queue
            // gauges land in the same exposition as ingest accounting.
            queue: IngestQueue::with_metrics(
                config.queue_depth,
                metrics.clone(),
            ),
            metrics,
            retry_after_ms: config.retry_after_ms,
            ingest_delay_ms: config.ingest_delay_ms,
            state_dir: config.state_dir,
            checkpoint_every: config.checkpoint_every,
            clock: Mutex::default(),
        })
    }

    /// Offers one upload and commits it on the calling thread. A full
    /// queue returns at once; an admitted upload waits for the state
    /// lock and returns its real outcome.
    pub fn submit(&self, app: &str, payload: Vec<u8>) -> SubmitReply {
        let ticket = match self.queue.submit(app) {
            Enqueue::Queued(ticket) => ticket,
            Enqueue::Full => {
                return SubmitReply::RetryAfter {
                    ms: self.retry_after_ms,
                }
            }
            Enqueue::Closed => return SubmitReply::ShuttingDown,
        };
        let mut state = relock(&self.state);
        drop(ticket);
        // `shutdown` closes the queue before it takes the state lock for
        // its final checkpoint, so an upload that finds the queue open
        // here commits into that checkpoint.
        if self.queue.is_closed() {
            return SubmitReply::ShuttingDown;
        }
        if self.ingest_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.ingest_delay_ms));
        }
        // A panicking bundle (an ingest bug the decode/repair/validate
        // pipeline failed to catch) costs that one upload, never the
        // daemon. Sound to catch because `FleetState::submit` stages
        // all fallible work before its first mutation (see its
        // commit-point comment), so a caught panic leaves the state
        // exactly as if the upload never arrived — continuing cannot
        // serve torn per-app state, and daemon==batch byte-identity
        // over accepted traces still holds.
        let caught =
            catch_unwind(AssertUnwindSafe(|| state.submit(app, &payload)));
        let outcome = caught.unwrap_or_else(|_| {
            eprintln!(
                "fleetd: ingest panicked on an upload for {app:?}; \
                 upload rejected"
            );
            self.metrics.inc(
                "fleetd_uploads_quarantined_total",
                &[("reason", "ingest-panic")],
            );
            IngestOutcome::Rejected(RejectReason::Invalid)
        });
        if outcome.accepted() {
            let mut clock = relock(&self.clock);
            clock.accepted += 1;
            if let Some(dir) = &self.state_dir {
                let every = self.checkpoint_every;
                if every > 0 && clock.accepted >= every {
                    clock.accepted = 0;
                    // Best-effort: a failed periodic snapshot must not
                    // take ingestion down.
                    match checkpoint::save_to(&state, dir) {
                        Ok(_) => clock.saved = Some(Instant::now()),
                        Err(e) => eprintln!("fleetd: checkpoint failed: {e}"),
                    }
                }
            }
        }
        SubmitReply::Outcome(outcome)
    }

    /// Canonical-JSON diagnosis of `app`'s epoch, snapshot-consistent.
    ///
    /// # Errors
    ///
    /// As [`FleetState::diagnose_json`].
    pub fn diagnose_json(
        &self,
        app: &str,
        epoch: Option<u64>,
    ) -> Result<String, QueryError> {
        self.diagnose_json_shared(app, epoch)
            .map(Arc::unwrap_or_clone)
    }

    /// [`FleetdHandle::diagnose_json`] as the bytes the state's query
    /// cache holds, shared rather than copied; the state is locked only
    /// while they are found or rendered.
    ///
    /// # Errors
    ///
    /// As [`FleetState::diagnose_json`].
    pub(crate) fn diagnose_json_shared(
        &self,
        app: &str,
        epoch: Option<u64>,
    ) -> Result<Arc<String>, QueryError> {
        relock(&self.state)
            .diagnosis_json_shared(&Selector::new(app, epoch, None))
    }

    /// Server-level stats: queue accounting and the recent structured
    /// event ring spliced into the state's per-app accounting, as one
    /// canonical JSON document.
    pub fn stats_json(&self) -> String {
        let state = relock(&self.state);
        let events = match state.metrics().registry() {
            Some(reg) => reg.recent_events(),
            None => Vec::new(),
        };
        let mut w = JsonWriter::new();
        w.obj(|w| {
            state.write_stats(w);
            w.key("events");
            w.arr(&events, |w, e| {
                w.obj(|w| {
                    w.key("detail");
                    w.string(&e.detail);
                    w.key("kind");
                    w.string(e.kind.as_str());
                    w.key("seq");
                    w.u64(e.seq);
                });
            });
            // Rendered here (not in `FleetState::write_stats`) so the
            // state's own stats document stays a function of the
            // fleet's content: two states holding the same traces
            // render the same bytes, whatever queries each served.
            let cache = state.query_cache_stats();
            w.key("query_cache");
            w.obj(|w| {
                w.key("state");
                w.obj(|w| {
                    w.key("bytes");
                    w.usize(cache.bytes);
                    w.key("evictions");
                    w.u64(cache.evictions);
                    w.key("hits");
                    w.u64(cache.hits);
                    w.key("misses");
                    w.u64(cache.misses);
                });
            });
            w.key("queue");
            w.obj(|w| {
                w.key("depth");
                w.usize(self.queue.depth());
                w.key("max_seen");
                w.usize(self.queue.max_depth_seen());
                w.key("pending");
                w.usize(self.queue.len());
                w.key("shed");
                w.usize(self.queue.shed_count());
            });
        });
        w.into_line()
    }

    /// Liveness summary with queue occupancy, shed totals, and the
    /// per-client `RetryAfter` counts (each shed answered one client
    /// with `RetryAfter`, so the per-app shed map *is* that count).
    pub fn health_json(&self) -> String {
        let state = relock(&self.state);
        let retry_after = self.queue.shed_by_app();
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("apps");
            w.usize(state.apps().len());
            w.key("epochs");
            w.usize(state.epochs_total());
            w.key("pending");
            w.usize(self.queue.len());
            w.key("quarantined");
            w.usize(state.quarantined_total());
            w.key("retry_after");
            w.obj(|w| {
                for (app, n) in &retry_after {
                    w.key(app);
                    w.usize(*n);
                }
            });
            w.key("shed");
            w.usize(self.queue.shed_count());
            w.key("status");
            w.string("ok");
            w.key("traces");
            w.usize(state.accepted_total());
        });
        w.into_line()
    }

    /// Prometheus text exposition of the daemon's registry, with
    /// scrape-time queue and checkpoint gauges refreshed first.
    pub fn metrics_text(&self) -> String {
        let state = relock(&self.state);
        render_metrics(&state, &self.queue, self.checkpoint_age_seconds())
    }

    /// Seconds since the last successful checkpoint; `None` before the
    /// first one. Pinned to `0` under deterministic time so the
    /// exposition stays byte-stable.
    fn checkpoint_age_seconds(&self) -> Option<f64> {
        let saved = relock(&self.clock).saved?;
        let deterministic = self
            .metrics
            .registry()
            .is_some_and(|r| r.is_deterministic());
        Some(if deterministic {
            0.0
        } else {
            saved.elapsed().as_secs_f64()
        })
    }

    /// Writes a checkpoint now. `Ok(None)` when the daemon runs
    /// without a state directory.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn checkpoint_now(&self) -> Result<Option<PathBuf>, CheckpointError> {
        match &self.state_dir {
            Some(dir) => {
                let path = checkpoint::save_to(&relock(&self.state), dir)?;
                relock(&self.clock).saved = Some(Instant::now());
                Ok(Some(path))
            }
            None => Ok(None),
        }
    }

    /// Freezes `app`'s current epoch; returns the new epoch id.
    pub fn rollover(&self, app: &str) -> u64 {
        relock(&self.state).rollover(app)
    }

    /// Generation-conditional partial of one selection — this
    /// worker's locally-offset contribution to any cluster query.
    ///
    /// # Errors
    ///
    /// As [`FleetState::partial_since`].
    pub fn partial_since(
        &self,
        sel: &Selector,
        token: Option<(u64, u64, u64)>,
    ) -> Result<PartialSinceOutcome, QueryError> {
        relock(&self.state).partial_since(sel, token)
    }

    /// Canonical-JSON differential diagnosis between two releases.
    ///
    /// # Errors
    ///
    /// As [`FleetState::regressions_json`].
    pub fn regressions_json(
        &self,
        app: &str,
        epoch: Option<u64>,
        from: &str,
        to: &str,
        config: &energydx_regress::RegressConfig,
    ) -> Result<String, QueryError> {
        relock(&self.state).regressions_json(app, epoch, from, to, config)
    }

    /// Serializes the current state as checkpoint bytes (for
    /// coordinator-side replication; works without a state dir).
    pub fn checkpoint_data(&self) -> Vec<u8> {
        checkpoint::checkpoint_bytes(&relock(&self.state))
    }

    /// Replaces this daemon's fleet data with a restored checkpoint —
    /// the receiving half of a cluster handoff. The registry and
    /// analyzer are kept; only the per-app data is swapped, after the
    /// checkpoint fully validates.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from validation; on error the resident
    /// state is untouched.
    pub fn install_checkpoint(
        &self,
        data: &[u8],
    ) -> Result<(), CheckpointError> {
        let config = relock(&self.state).config().clone();
        let restored = checkpoint::restore_bytes(data, config)?;
        let mut state = relock(&self.state);
        state.apps = restored.apps;
        // Never move the segment sequence backwards: a handed-off
        // checkpoint may reference older sequence numbers, and local
        // files spilled since must not be rewritten under them.
        state.next_spill_seq =
            state.next_spill_seq.max(restored.next_spill_seq);
        // The installed data is new content under old epoch ids:
        // cached analyses and any token a coordinator still holds must
        // stop validating, so drop the cache and adopt a fresh
        // incarnation.
        state.invalidate_query_cache();
        self.metrics.inc("fleetd_checkpoint_installs_total", &[]);
        Ok(())
    }

    /// Renders both operator-report artifacts over a consistent
    /// snapshot of the resident fleet.
    ///
    /// # Errors
    ///
    /// Propagates the first [`QueryError`] from a diagnosis.
    pub fn report(
        &self,
        top: Option<u32>,
    ) -> Result<crate::report::RenderedReport, QueryError> {
        let state = relock(&self.state);
        crate::report::fleet_report(&state, self.queue.shed_count() as u64, top)
    }

    /// The report catalog + raw deployment counters a coordinator
    /// fans out for before assembling a cluster-wide report.
    pub fn catalog(
        &self,
    ) -> (
        Vec<crate::protocol::AppCatalog>,
        crate::protocol::DeploymentCounters,
    ) {
        let state = relock(&self.state);
        let apps = crate::report::state_catalog(&state);
        let deployment = crate::report::deployment_counters(
            &state,
            self.queue.shed_count() as u64,
        );
        (apps, deployment)
    }

    /// Accepted/quarantined totals across all apps and epochs — the
    /// cheap probe a coordinator uses for health and staleness checks.
    pub fn counts(&self) -> (usize, usize) {
        let state = relock(&self.state);
        (state.accepted_total(), state.quarantined_total())
    }

    /// Queue high-water mark (for backpressure assertions).
    pub fn max_queue_depth_seen(&self) -> usize {
        self.queue.max_depth_seen()
    }

    /// Submissions shed with `RetryAfter` so far.
    pub fn shed_count(&self) -> usize {
        self.queue.shed_count()
    }

    /// Graceful shutdown: stop accepting, then flush a final
    /// checkpoint. Every upload answered with an outcome is in it; one
    /// still waiting for the state lock is answered `ShuttingDown`, and
    /// none commits after it. Idempotent.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the final flush fails.
    pub fn shutdown(&self) -> Result<(), CheckpointError> {
        self.queue.close();
        self.checkpoint_now().map(drop)
    }
}

/// Renders the Prometheus exposition for a state/queue pair,
/// refreshing the scrape-time gauges (queue occupancy, capacity,
/// high-water mark, and — when known — checkpoint age) first. Split
/// out of [`FleetdHandle`] so the golden test can drive it against a
/// deterministic registry without a running daemon.
pub fn render_metrics(
    state: &FleetState,
    queue: &IngestQueue,
    checkpoint_age_seconds: Option<f64>,
) -> String {
    let metrics = state.metrics();
    metrics.set_gauge("fleetd_queue_depth", &[], queue.len() as f64);
    metrics.set_gauge("fleetd_queue_capacity", &[], queue.depth() as f64);
    metrics.set_gauge(
        "fleetd_queue_max_depth",
        &[],
        queue.max_depth_seen() as f64,
    );
    if let Some(age) = checkpoint_age_seconds {
        metrics.set_gauge("fleetd_checkpoint_age_seconds", &[], age);
    }
    metrics.set_gauge(
        "energydx_build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        1.0,
    );
    state.update_cache_gauges();
    match metrics.registry() {
        Some(reg) => reg.render_prometheus(),
        None => String::new(),
    }
}

fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::Submit { .. } => "submit",
        Request::Diagnose { .. } => "diagnose",
        Request::Stats => "stats",
        Request::Health => "health",
        Request::Checkpoint => "checkpoint",
        Request::Rollover { .. } => "rollover",
        Request::Shutdown => "shutdown",
        Request::Metrics => "metrics",
        Request::FetchCheckpoint => "fetch_checkpoint",
        Request::InstallCheckpoint { .. } => "install_checkpoint",
        Request::Counts => "counts",
        Request::PartialSince { .. } => "partial_since",
        Request::Regressions { .. } => "regressions",
        Request::Report { .. } => "report",
        Request::Catalog => "catalog",
    }
}

/// The server-side [`RegressConfig`] for a wire request: defaults,
/// with the client's quantile-shift threshold override applied when
/// present. The override must be finite and non-negative, as the
/// CLI's `--threshold` must: under NaN no event would ever be flagged
/// on the quantile shift, and under a negative one every event would.
///
/// # Errors
///
/// A [`Response::Error`] naming a rejected threshold.
///
/// [`RegressConfig`]: energydx_regress::RegressConfig
pub(crate) fn regress_config(
    threshold: Option<f64>,
) -> Result<energydx_regress::RegressConfig, Response> {
    let mut config = energydx_regress::RegressConfig::default();
    if let Some(t) = threshold {
        if !(t.is_finite() && t >= 0.0) {
            return Err(Response::Error {
                message: format!(
                    "invalid regression threshold {t}: must be a finite, \
                     non-negative fraction"
                ),
            });
        }
        config.shift_threshold = t;
    }
    Ok(config)
}

fn dispatch(handle: &FleetdHandle, req: Request) -> Response {
    let _span = handle.metrics.timer(
        "fleetd_request_duration_seconds",
        &[("kind", request_kind(&req))],
    );
    match req {
        Request::Submit { app, payload } => {
            match handle.submit(&app, payload) {
                SubmitReply::Outcome(outcome) => {
                    let (code, reason) = OutcomeCode::of(&outcome);
                    Response::Outcome { code, reason }
                }
                SubmitReply::RetryAfter { ms } => Response::RetryAfter { ms },
                SubmitReply::ShuttingDown => Response::Error {
                    message: "daemon is shutting down".to_string(),
                },
            }
        }
        Request::Diagnose { app, epoch } => {
            match handle.diagnose_json(&app, epoch) {
                Ok(json) => Response::Report { json },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        Request::Stats => Response::Stats {
            json: handle.stats_json(),
        },
        Request::Health => Response::Health {
            json: handle.health_json(),
        },
        Request::Checkpoint => match handle.checkpoint_now() {
            Ok(_) => Response::Done,
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Rollover { app } => Response::Epoch {
            epoch: handle.rollover(&app),
        },
        Request::Shutdown => Response::Done,
        Request::Metrics => Response::Metrics {
            text: handle.metrics_text(),
        },
        Request::FetchCheckpoint => Response::CheckpointData {
            data: handle.checkpoint_data(),
        },
        Request::InstallCheckpoint { data } => {
            match handle.install_checkpoint(&data) {
                Ok(()) => Response::Done,
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        Request::Counts => {
            let (accepted, quarantined) = handle.counts();
            Response::Counts {
                accepted: accepted as u64,
                quarantined: quarantined as u64,
            }
        }
        Request::PartialSince {
            app,
            epoch,
            version,
            token,
        } => {
            let sel = Selector {
                app,
                epoch,
                version,
            };
            let none = |status| Response::PartialState {
                status,
                epoch: 0,
                incarnation: 0,
                generation: 0,
                partial: energydx::ShardPartial::empty(),
            };
            match handle.partial_since(&sel, token) {
                Ok(PartialSinceOutcome::Unchanged { epoch }) => {
                    Response::PartialNotModified { epoch }
                }
                Ok(PartialSinceOutcome::Changed {
                    epoch,
                    incarnation,
                    generation,
                    partial,
                }) => Response::PartialState {
                    status: PartialStatus::Found,
                    epoch,
                    incarnation,
                    generation,
                    partial,
                },
                Err(QueryError::UnknownApp(_)) => {
                    none(PartialStatus::UnknownApp)
                }
                Err(QueryError::UnknownEpoch { .. }) => {
                    none(PartialStatus::UnknownEpoch)
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        Request::Regressions {
            app,
            epoch,
            from,
            to,
            threshold,
        } => {
            let answer = regress_config(threshold).and_then(|config| {
                handle
                    .regressions_json(&app, epoch, &from, &to, &config)
                    .map_err(|e| Response::Error {
                        message: e.to_string(),
                    })
            });
            match answer {
                Ok(json) => Response::Report { json },
                Err(error) => error,
            }
        }
        Request::Report { top } => match handle.report(top) {
            Ok(rendered) => Response::ReportArtifacts {
                missing: Vec::new(),
                html: rendered.html,
                json: rendered.json,
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Catalog => {
            let (apps, deployment) = handle.catalog();
            Response::Catalog { apps, deployment }
        }
    }
}

/// Anything that can sit behind the framed TCP front end: the daemon
/// itself, or a cluster coordinator fronting other daemons.
pub trait Dispatch: Send + Sync {
    /// Answers one decoded request.
    fn handle_request(&self, req: Request) -> Response;

    /// Answers one decoded request as the encoded frame to send back:
    /// by default [`Dispatch::handle_request`]'s response, encoded. An
    /// implementation that holds an answer's bytes by reference
    /// overrides it to encode them without copying them into a
    /// [`Response`] first.
    fn handle_frame(&self, req: Request) -> Vec<u8> {
        self.handle_request(req).encode()
    }

    /// Runs once after the accept loop stops (final flush, fan-out
    /// shutdown, …).
    ///
    /// # Errors
    ///
    /// Implementation-defined; surfaced from [`serve_dispatcher`].
    fn finish(&self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Dispatch for FleetdHandle {
    fn handle_request(&self, req: Request) -> Response {
        dispatch(self, req)
    }

    /// A `Diagnose` answer is framed straight from the query cache's
    /// shared bytes: one copy, into the frame.
    fn handle_frame(&self, req: Request) -> Vec<u8> {
        let Request::Diagnose { app, epoch } = req else {
            return dispatch(self, req).encode();
        };
        let answer = {
            let _span = self.metrics.timer(
                "fleetd_request_duration_seconds",
                &[("kind", "diagnose")],
            );
            self.diagnose_json_shared(&app, epoch)
        };
        match answer {
            Ok(json) => Response::encode_report(&json),
            Err(e) => Response::Error {
                message: e.to_string(),
            }
            .encode(),
        }
    }

    fn finish(&self) -> std::io::Result<()> {
        self.shutdown()
            .map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// Serves the framed protocol on `listener` until a `Shutdown`
/// request arrives, then checkpoints via [`FleetdHandle::shutdown`].
/// One thread per connection; each commits its uploads under the state
/// lock, which serializes state updates.
///
/// # Errors
///
/// Socket-level failures of the listener itself and final-checkpoint
/// failures.
pub fn serve(
    listener: TcpListener,
    handle: Arc<FleetdHandle>,
) -> std::io::Result<()> {
    serve_dispatcher(listener, handle)
}

/// Serves the framed protocol on `listener` in front of any
/// [`Dispatch`] implementation until a `Shutdown` request arrives,
/// then runs its [`Dispatch::finish`]. One thread per connection.
///
/// The accept loop holds a clone of each *open* connection only, so
/// it can cut idle sockets at shutdown: a handler drops its clone as
/// it exits, and finished handler threads are joined on the next
/// accept. Descriptors and threads therefore track live connections,
/// not every connection ever accepted.
///
/// # Errors
///
/// Socket-level failures of the listener itself and whatever
/// `finish` reports.
pub fn serve_dispatcher<D: Dispatch + 'static>(
    listener: TcpListener,
    dispatcher: Arc<D>,
) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let peers: Arc<Mutex<BTreeMap<u64, TcpStream>>> = Arc::default();
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Registered before the handler starts, so its removal on
        // exit always finds the entry.
        if let Ok(clone) = stream.try_clone() {
            relock(&peers).insert(id, clone);
        }
        // A finished handler's thread is gone; dropping its handle
        // releases what is left of it.
        conns.retain(|conn| !conn.is_finished());
        let dispatcher = Arc::clone(&dispatcher);
        let stop = Arc::clone(&stop);
        let peers = Arc::clone(&peers);
        conns.push(std::thread::spawn(move || {
            handle_connection(stream, &*dispatcher, &stop, local);
            relock(&peers).remove(&id);
        }));
    }
    // Unblock handlers parked in `read_frame` on idle connections —
    // every request sent before shutdown has been answered, so
    // cutting the sockets loses nothing.
    for peer in std::mem::take(&mut *relock(&peers)).into_values() {
        let _ = peer.shutdown(std::net::Shutdown::Both);
    }
    for conn in conns {
        let _ = conn.join();
    }
    dispatcher.finish()
}

fn handle_connection<D: Dispatch>(
    mut stream: TcpStream,
    dispatcher: &D,
    stop: &AtomicBool,
    local: std::net::SocketAddr,
) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                // Answer with a typed error, then drop the
                // connection: after a framing failure the stream
                // position is unreliable.
                let resp = Response::Error {
                    message: e.to_string(),
                };
                let _ = stream.write_all(&resp.encode());
                break;
            }
        };
        let (resp, is_shutdown) = match Request::decode(&frame) {
            Ok(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                (dispatcher.handle_frame(req), is_shutdown)
            }
            Err(e) => (
                Response::Error {
                    message: e.to_string(),
                }
                .encode(),
                false,
            ),
        };
        if stream.write_all(&resp).is_err() {
            break;
        }
        let _ = stream.flush();
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(local);
            break;
        }
    }
    // The accept loop holds a clone of this socket (to cut idle
    // connections at shutdown), so dropping `stream` alone leaves the
    // connection established from the peer's side. Shut the socket
    // itself down so the peer sees EOF the moment this handler exits,
    // instead of blocking until its read deadline.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
