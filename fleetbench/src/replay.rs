//! The traced run: replays the untraced run's exact operation stream
//! in one process against the library and times the calls into each
//! layer's public functions.
//!
//! A single daemon becomes a [`FleetState`]; the cluster becomes a
//! [`Coordinator`] over in-process workers, each behind a timing
//! [`WorkerTransport`]. Layers that run inside another call (prepare,
//! power join and map inside `submit`; fold, analyze, render and JSON
//! inside `diagnose_json`) are timed as probes: pure calls on the
//! upload itself, or calls on a twin state fed the same uploads, so a
//! probe never warms a cache the measured call would have missed.
//! Every timed call is a span (name, start, end, parent, operation);
//! spans stay in memory and are written out at the end.

use crate::corpus::{mix, RELEASES};
use crate::drive::{fleet_config, run_quantile, worker_dirs, Query, Run, Sent};
use crate::stats::median;
use crate::Args;
use energydx::EnergyDx;
use energydx_fleetd::checkpoint::{self, checkpoint_bytes};
use energydx_fleetd::client::ClientError;
use energydx_fleetd::cluster::{
    shard_for_payload, InProcessTransport, WorkerSlot, WorkerTransport,
};
use energydx_fleetd::convert::bundle_to_trace;
use energydx_fleetd::coordinator::{Coordinator, CoordinatorConfig};
use energydx_fleetd::protocol::{read_frame, Request, Response};
use energydx_fleetd::report::{fleet_report, state_inputs};
use energydx_fleetd::server::{Dispatch, FleetdHandle, ServerConfig};
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_regress::{compare, regression_json, RegressConfig};
use energydx_report::{
    build_model, render_html, render_json, DeploymentPanel, DEFAULT_TOP_APPS,
};
use energydx_trace::store::{prepare_wire, PreparedUpload};
use energydx_trace::{wire, RepairPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The analysis engine as the servers run it (`--jobs`).
fn engine() -> EnergyDx {
    EnergyDx::default().with_jobs(crate::procs::JOBS)
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: usize,
}

/// In-memory span recorder; disabled, it only runs the closures.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Per-name durations in milliseconds.
    times: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            times: BTreeMap::new(),
        }
    }

    /// Opens a span; returns its index.
    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Times `f` as span `name` under `parent`.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let span = self.open(name, parent, op);
        let t0 = Instant::now();
        let r = black_box(f());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.close(span);
        self.times.entry(name).or_default().push(ms);
        (r, ms)
    }

    fn record(&mut self, name: &'static str, value: f64) {
        self.times.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |v| median(v))
    }

    /// Self time per span name: duration minus what its children
    /// cover, in milliseconds.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_us - s.start_us - child[i]) / 1e3;
        }
        out
    }

    fn write(&self, path: &Path) {
        let Ok(mut f) = std::fs::File::create(path) else {
            return;
        };
        let _ = writeln!(f, "name\tstart_us\tend_us\tparent\top");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                f,
                "{}\t{:.1}\t{:.1}\t{parent}\t{}",
                s.name, s.start_us, s.end_us, s.op
            );
        }
    }
}

/// Per worker call: milliseconds, and the reply frame size when it
/// carried a worker partial.
type CallLog = Arc<Mutex<Vec<(f64, Option<usize>)>>>;

/// Times every coordinator → worker call.
struct TimedTransport {
    inner: InProcessTransport,
    log: CallLog,
}

impl WorkerTransport for TimedTransport {
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let t0 = Instant::now();
        let resp = self.inner.call(req);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let size = match &resp {
            Ok(r @ Response::PartialState { .. }) => Some(r.encode().len()),
            _ => None,
        };
        self.log.lock().expect("call log lock").push((ms, size));
        resp
    }
}

enum Target {
    Single(FleetState),
    Cluster {
        coordinator: Coordinator,
        slots: Vec<WorkerSlot>,
        calls: CallLog,
    },
}

fn copy_fresh(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    crate::drive::copy_dir(from, to);
}

/// One replay pass. With `traced`, every probe runs and every call is
/// a span; without, only the measured calls run, timed bare.
fn pass(args: &Args, run: &Run, traced: bool) -> (Tracer, f64) {
    let spec = &run.spec;
    let root = args.work.join("replay").join(format!(
        "{}-{}",
        spec.kind.name(),
        u8::from(traced)
    ));
    copy_fresh(&run.prep, &root);
    let mut tr = Tracer::new(traced);
    let regress = RegressConfig::default();
    let policy = RepairPolicy::default();

    let (mut target, _) = tr.time("checkpoint.restore", None, 0, || {
        if spec.workers == 1 {
            let dirs = worker_dirs(spec, &root, 0);
            Target::Single(
                checkpoint::load_from(&dirs.state, fleet_config(&dirs))
                    .expect("restore the prepared checkpoint")
                    .expect("a prepared checkpoint exists"),
            )
        } else {
            let calls: CallLog = Arc::default();
            let slots: Vec<WorkerSlot> = (0..spec.workers)
                .map(|k| {
                    let dirs = worker_dirs(spec, &root, k);
                    let handle = FleetdHandle::start(ServerConfig {
                        fleet: fleet_config(&dirs),
                        state_dir: Some(dirs.state.clone()),
                        ..ServerConfig::default()
                    })
                    .expect("restore a prepared worker");
                    Arc::new(Mutex::new(Some(Arc::new(handle))))
                })
                .collect();
            let transports: Vec<Box<dyn WorkerTransport>> = slots
                .iter()
                .map(|slot| {
                    Box::new(TimedTransport {
                        inner: InProcessTransport::new(Arc::clone(slot)),
                        log: Arc::clone(&calls),
                    }) as Box<dyn WorkerTransport>
                })
                .collect();
            let config = CoordinatorConfig {
                fleet: FleetConfig {
                    jobs: crate::procs::JOBS,
                    ..FleetConfig::default()
                },
                ..CoordinatorConfig::default()
            };
            Target::Cluster {
                coordinator: Coordinator::new(config, transports)
                    .expect("in-process cluster starts"),
                slots,
                calls,
            }
        }
    });
    // The twin every in-call probe runs on: a single state fed the
    // same uploads (the cluster's twin holds the merged fleet).
    let mut twin = traced.then(|| {
        if spec.workers == 1 {
            let dirs = worker_dirs(spec, &root.join("twin"), 0);
            copy_fresh(&run.prep.join("w0"), &root.join("twin").join("w0"));
            checkpoint::load_from(&dirs.state, fleet_config(&dirs))
                .expect("restore the twin")
                .expect("a prepared checkpoint exists")
        } else {
            let mut twin = FleetState::new(FleetConfig::default());
            for op in &run.preload {
                twin.submit(
                    &run.names[op.app as usize],
                    &run.corpus.payload(op),
                );
            }
            twin
        }
    });

    // Apps fresh-diagnosed since the last report probe.
    let mut diagnosed: BTreeSet<String> = BTreeSet::new();
    let mut measured_ms = 0.0;
    for (i, sent) in run.sent.iter().enumerate() {
        let root_span = tr.open("op", None, i);
        match *sent {
            Sent::Upload(op) => {
                let app = &run.names[op.app as usize];
                let payload = run.corpus.payload(&op);
                // A seeded half of the uploads is probed: thousands of
                // samples either way, half the replay time.
                let probed = traced && mix(i as u64).is_multiple_of(2);
                if probed {
                    let probe = tr.open("probe", root_span, i);
                    probe_upload(&mut tr, probe, i, app, &payload);
                    tr.close(probe);
                }
                if let Some(twin) = twin.as_mut() {
                    twin.submit(app, &payload);
                }
                let ms = match &mut target {
                    // `submit` is `prepare_wire` + `submit_prepared`:
                    // timing the halves gives the real prepare, and
                    // the commit path that the power-join and map
                    // probes are subtracted from.
                    Target::Single(state) => {
                        let (prepared, prep_ms) =
                            tr.time("trace.prepare", root_span, i, || {
                                prepare_wire(&payload, &policy)
                            });
                        let inner = probed
                            .then(|| {
                                let probe = tr.open("probe", root_span, i);
                                let inner =
                                    probe_convert(&mut tr, probe, i, &prepared);
                                tr.close(probe);
                                inner
                            })
                            .flatten();
                        let (_, commit_ms) = tr.time(
                            "state.submit_prepared",
                            root_span,
                            i,
                            || state.submit_prepared(app, prepared),
                        );
                        tr.record("state.submit", prep_ms + commit_ms);
                        if let Some(inner) = inner {
                            tr.record("state.commit_self", commit_ms - inner);
                        }
                        prep_ms + commit_ms
                    }
                    Target::Cluster { coordinator, .. } => {
                        if probed {
                            let probe = tr.open("probe", root_span, i);
                            let (prepared, _) =
                                tr.time("trace.prepare", probe, i, || {
                                    prepare_wire(&payload, &policy)
                                });
                            probe_convert(&mut tr, probe, i, &prepared);
                            tr.close(probe);
                        }
                        let (_, ms) =
                            tr.time("coordinator.submit", root_span, i, || {
                                coordinator.submit(app, payload)
                            });
                        ms
                    }
                };
                measured_ms += ms;
                if i >= run.warmup_sent {
                    tr.record("e2e.upload", ms);
                }
            }
            Sent::Query { query, app } => {
                let name = run.names[app as usize].clone();
                let req = match query {
                    Query::Fresh | Query::Repeat => Request::Diagnose {
                        app: name.clone(),
                        epoch: None,
                    },
                    Query::Regressions => Request::Regressions {
                        app: name.clone(),
                        epoch: None,
                        from: RELEASES[0].to_string(),
                        to: RELEASES[1].to_string(),
                        threshold: None,
                    },
                    Query::Report => Request::Report { top: None },
                };
                let label: &'static str = match query {
                    Query::Fresh => "query.fresh",
                    Query::Repeat => "query.repeat",
                    Query::Regressions => "query.regressions",
                    Query::Report => "query.report",
                };
                let (answer, ms) = match &mut target {
                    Target::Single(state) => {
                        tr.time(label, root_span, i, || match query {
                            Query::Fresh | Query::Repeat => state
                                .diagnose_json(&name, None)
                                .expect("a preloaded app diagnoses"),
                            Query::Regressions => state
                                .regressions_json(
                                    &name,
                                    None,
                                    RELEASES[0],
                                    RELEASES[1],
                                    &regress,
                                )
                                .expect("both releases are present"),
                            Query::Report => {
                                fleet_report(state, 0, None)
                                    .expect("the report renders")
                                    .json
                            }
                        })
                    }
                    Target::Cluster {
                        coordinator, calls, ..
                    } => {
                        calls.lock().expect("call log lock").clear();
                        let (resp, ms) = tr.time(label, root_span, i, || {
                            coordinator.handle_request(req.clone())
                        });
                        let log = std::mem::take(
                            &mut *calls.lock().expect("call log lock"),
                        );
                        let worker_ms: f64 = log.iter().map(|(ms, _)| ms).sum();
                        if traced
                            && matches!(
                                query,
                                Query::Fresh
                                    | Query::Repeat
                                    | Query::Regressions
                            )
                        {
                            tr.record("coordinator.worker_call", worker_ms);
                            tr.record("coordinator.self", ms - worker_ms);
                            for size in log.iter().filter_map(|(_, s)| *s) {
                                tr.record(
                                    "protocol.partial_frame_kb",
                                    size as f64 / 1024.0,
                                );
                            }
                        }
                        let json = match resp {
                            Response::Report { json } => json,
                            Response::ReportArtifacts { json, .. } => json,
                            other => {
                                panic!("in-process cluster answered {other:?}")
                            }
                        };
                        (json, ms)
                    }
                };
                measured_ms += ms;
                if i >= run.warmup_sent {
                    tr.record(
                        match query {
                            Query::Fresh => "e2e.fresh",
                            Query::Repeat => "e2e.repeat",
                            Query::Regressions => "e2e.regressions",
                            Query::Report => "e2e.report",
                        },
                        ms,
                    );
                }
                if !traced {
                    tr.close(root_span);
                    continue;
                }
                if let (Target::Single(_), Query::Fresh) = (&target, query) {
                    tr.record("state.diagnose", ms);
                }
                if let (Target::Single(_), Query::Repeat) = (&target, query) {
                    tr.record("state.repeat", ms);
                }
                let twin = twin.as_mut().expect("traced passes keep a twin");
                if query == Query::Report {
                    // The measured state's analyzed cache holds every
                    // app diagnosed since; bring the twin's there
                    // before timing the report's inputs.
                    for app in std::mem::take(&mut diagnosed) {
                        black_box(
                            twin.diagnose_json(&app, None)
                                .expect("twin diagnoses"),
                        );
                    }
                }
                let probe = tr.open("probe", root_span, i);
                probe_query(&mut tr, twin, probe, i, query, &name, answer);
                tr.close(probe);
                if query == Query::Fresh {
                    diagnosed.insert(name);
                }
            }
        }
        tr.close(root_span);
    }
    if traced {
        // Durable footprint per trace, and the hot epoch's delta count.
        let (bytes, traces, deltas) = match &target {
            Target::Single(state) => {
                let hot = &run.names[spec.query_apps[0] as usize];
                let deltas = state.apps()[hot]
                    .epochs()
                    .values()
                    .last()
                    .map_or(0, |e| e.delta_count());
                (
                    checkpoint_bytes(state).len(),
                    state.accepted_total(),
                    deltas,
                )
            }
            Target::Cluster { slots, .. } => {
                let mut bytes = 0;
                let mut traces = 0;
                for slot in slots {
                    let guard = slot.lock().expect("slot lock");
                    let handle = guard.as_ref().expect("worker is up");
                    bytes += handle.checkpoint_data().len();
                    traces += handle.counts().0;
                }
                let deltas = twin.as_ref().map_or(0, |t| {
                    let hot = &run.names[spec.query_apps[0] as usize];
                    t.apps()[hot]
                        .epochs()
                        .values()
                        .last()
                        .map_or(0, |e| e.delta_count())
                });
                (bytes, traces, deltas)
            }
        };
        tr.record(
            "checkpoint.bytes_per_trace",
            bytes as f64 / traces.max(1) as f64,
        );
        tr.record("state.resident_deltas", deltas as f64);
    }
    (tr, measured_ms)
}

/// Times the layers `submit` runs inside, on the upload alone, and
/// Times the layers an upload crosses before the state sees it:
/// framing, decode (and salvage) and cluster routing.
fn probe_upload(
    tr: &mut Tracer,
    probe: Option<usize>,
    i: usize,
    app: &str,
    payload: &[u8],
) {
    let req = Request::Submit {
        app: app.to_string(),
        payload: payload.to_vec(),
    };
    tr.time("protocol.submit_frame", probe, i, || {
        let bytes = req.encode();
        let frame = read_frame(&mut bytes.as_slice())
            .expect("frame reads")
            .expect("one frame");
        Request::decode(&frame).expect("request decodes")
    });
    tr.time("trace.decode", probe, i, || {
        wire::decode(payload).is_ok() || wire::decode_salvage(payload).is_ok()
    });
    tr.time("cluster.route", probe, i, || {
        shard_for_payload(app, payload, &RepairPolicy::default(), 3)
    });
}

/// Times power join and map on an accepted upload's bundle (a clone:
/// the measured call consumes the original) and returns their summed
/// milliseconds; `None` for a rejected upload.
fn probe_convert(
    tr: &mut Tracer,
    probe: Option<usize>,
    i: usize,
    prepared: &PreparedUpload,
) -> Option<f64> {
    let PreparedUpload::Ready { bundle, .. } = prepared else {
        return None;
    };
    let dx = engine();
    let (trace, join_ms) =
        tr.time("convert.power_join", probe, i, || bundle_to_trace(bundle));
    let (_, map_ms) =
        tr.time("core.map_shard", probe, i, || dx.map_shard(&[trace], 0));
    Some(join_ms + map_ms)
}

/// Times the layers a query runs inside, on the twin. The probes' own
/// folds keep the twin's fold caches where the measured calls leave
/// the measured state's; its analyzed cache is brought up to date just
/// before each report probe (in `pass`), the one probe that reads it.
fn probe_query(
    tr: &mut Tracer,
    twin: &mut FleetState,
    probe: Option<usize>,
    i: usize,
    query: Query,
    name: &str,
    answer: String,
) {
    let dx = engine();
    match query {
        Query::Fresh => {
            let resp = Response::Report { json: answer };
            let (size, _) = tr.time("protocol.report_frame", probe, i, || {
                let bytes = resp.encode();
                let frame = read_frame(&mut bytes.as_slice())
                    .expect("frame reads")
                    .expect("one frame");
                Response::decode(&frame).expect("response decodes");
                bytes.len()
            });
            tr.record("protocol.report_frame_mb", size as f64 / 1e6);
            let ((_, partial), _) = tr.time("state.fold", probe, i, || {
                twin.epoch_partial(name, None).expect("twin folds")
            });
            let (analyzed, _) = tr.time("core.analyze", probe, i, || {
                dx.analyze(partial).expect("complete fleet")
            });
            let (report, _) =
                tr.time("core.render", probe, i, || dx.render(analyzed));
            let (json, _) =
                tr.time("core.json", probe, i, || report.to_canonical_json());
            tr.record("core.json_mb", json.len() as f64 / 1e6);
        }
        Query::Repeat => {}
        Query::Regressions => {
            let mut sides = Vec::new();
            for r in RELEASES {
                let (side, _) =
                    tr.time("state.version_diagnose", probe, i, || {
                        twin.diagnose_version(name, None, r)
                            .expect("release diagnoses")
                    });
                sides.push(side);
            }
            tr.time("regress.compare", probe, i, || {
                regression_json(&compare(
                    RELEASES[0],
                    &sides[0],
                    RELEASES[1],
                    &sides[1],
                    &RegressConfig::default(),
                ))
            });
        }
        Query::Report => {
            let (inputs, _) = tr.time("report.inputs", probe, i, || {
                state_inputs(twin).expect("twin report inputs")
            });
            tr.time("report.render", probe, i, || {
                let model = build_model(
                    &inputs,
                    DeploymentPanel::pinned(),
                    Vec::new(),
                    DEFAULT_TOP_APPS,
                );
                (render_html(&model), render_json(&model))
            });
        }
    }
}

/// Segment save and load, timed over the live run's spill files.
fn segment_probe(args: &Args, run: &Run, tr: &mut Tracer) -> (usize, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let live = args.work.join("run").join(run.spec.kind.name());
    for k in 0..run.spec.workers {
        let Some((spill, _)) = worker_dirs(&run.spec, &live, k).spill else {
            continue;
        };
        let Ok(entries) = std::fs::read_dir(&spill) else {
            continue;
        };
        let mut paths: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        paths.sort();
        for (n, path) in paths.iter().enumerate() {
            files += 1;
            bytes += std::fs::metadata(path).map_or(0, |m| m.len());
            if n >= 16 {
                continue;
            }
            let (partial, _) = tr.time("segment.load", None, 0, || {
                energydx_segment::load_from(path).expect("live segment loads")
            });
            let tmp = args.work.join("replay").join("probe.seg");
            tr.time("segment.save", None, 0, || {
                energydx_segment::save_to(&tmp, &partial.to_parts())
                    .expect("segment saves")
            });
            let _ = std::fs::remove_file(&tmp);
        }
    }
    (files, bytes)
}

/// Sums a counter over scrapes, restricted to keys containing `label`.
fn counter(scrapes: &[BTreeMap<String, f64>], name: &str, label: &str) -> f64 {
    scrapes
        .iter()
        .flat_map(|s| s.iter())
        .filter(|(k, _)| {
            (k.as_str() == name || k.starts_with(&format!("{name}{{")))
                && k.contains(label)
        })
        .map(|(_, v)| v)
        .sum()
}

/// Which end-to-end metric each per-layer metric should move, on
/// which workload (the workloads that bypass the layer predict no
/// change).
const MOVES: &[(&str, &str)] = &[
    ("protocol.submit_frame_us", "upload_p50_ms on spill-cluster"),
    (
        "protocol.report_frame_ms",
        "diagnose_repeat_p50_ms on rollout-dashboard",
    ),
    (
        "protocol.report_frame_mb",
        "diagnose_repeat_p50_ms on rollout-dashboard",
    ),
    (
        "protocol.partial_frame_kb",
        "diagnose_fresh_p50_ms on spill-cluster",
    ),
    ("trace.decode_us", "uploads_per_cpu_s on spill-cluster"),
    ("trace.prepare_us", "uploads_per_cpu_s on spill-cluster"),
    (
        "trace.recovered_share",
        "uploads_per_cpu_s on spill-cluster",
    ),
    ("trace.uploads", "base of trace.recovered_share"),
    (
        "convert.power_join_us",
        "uploads_per_cpu_s on spill-cluster",
    ),
    ("core.map_shard_us", "uploads_per_cpu_s on spill-cluster"),
    (
        "core.analyze_ms",
        "diagnose_fresh_p50_ms on spill-cluster and rollout-dashboard",
    ),
    (
        "core.render_ms",
        "diagnose_fresh_p50_ms on spill-cluster and rollout-dashboard",
    ),
    (
        "core.json_ms",
        "diagnose_fresh_p50_ms on spill-cluster and rollout-dashboard",
    ),
    (
        "core.json_mb",
        "diagnose_fresh_p50_ms on spill-cluster and rollout-dashboard",
    ),
    ("state.submit_us", "upload_p50_ms on rollout-dashboard"),
    ("state.commit_self_us", "upload_p50_ms on rollout-dashboard"),
    (
        "state.resident_deltas",
        "upload_p50_ms, diagnose_fresh_p50_ms on rollout-dashboard",
    ),
    (
        "state.fold_ms",
        "diagnose_fresh_p50_ms on rollout-dashboard",
    ),
    (
        "state.diagnose_ms",
        "diagnose_fresh_p50_ms on rollout-dashboard",
    ),
    (
        "state.repeat_ms",
        "diagnose_repeat_p50_ms on rollout-dashboard",
    ),
    (
        "state.version_diagnose_ms",
        "regressions_p50_ms on rollout-dashboard",
    ),
    (
        "state.cache_hit_ratio",
        "diagnose_repeat_p50_ms on rollout-dashboard",
    ),
    ("state.cache_lookups", "base of state.cache_hit_ratio"),
    ("state.compactions", "upload_p50_ms on rollout-dashboard"),
    (
        "regress.compare_ms",
        "regressions_p50_ms on rollout-dashboard",
    ),
    ("report.inputs_ms", "report_p50_ms on rollout-dashboard"),
    (
        "report.render_ms",
        "report_p50_ms on rollout-dashboard and spill-cluster",
    ),
    (
        "checkpoint.restore_ms",
        "setup_s on rollout-dashboard and spill-cluster",
    ),
    (
        "checkpoint.bytes_per_trace",
        "disk_bytes_per_trace on both workloads",
    ),
    ("segment.save_ms", "upload_p50_ms on spill-cluster"),
    ("segment.load_ms", "diagnose_fresh_p50_ms on spill-cluster"),
    ("segment.files", "disk_bytes_per_trace on spill-cluster"),
    (
        "segment.bytes_per_trace",
        "disk_bytes_per_trace on spill-cluster",
    ),
    (
        "segment.cache_hit_ratio",
        "diagnose_fresh_p50_ms on spill-cluster",
    ),
    ("segment.cache_lookups", "base of segment.cache_hit_ratio"),
    ("segment.spills", "diagnose_fresh_p50_ms on spill-cluster"),
    (
        "segment.foldbacks",
        "diagnose_fresh_p50_ms on spill-cluster",
    ),
    ("cluster.route_us", "upload_p50_ms on spill-cluster"),
    (
        "coordinator.worker_call_ms",
        "diagnose_fresh_p50_ms, regressions_p50_ms on spill-cluster",
    ),
    (
        "coordinator.self_ms",
        "diagnose_repeat_p50_ms on spill-cluster",
    ),
    (
        "coordinator.notmodified_ratio",
        "diagnose_repeat_p50_ms on spill-cluster",
    ),
    (
        "coordinator.partial_requests",
        "base of coordinator.notmodified_ratio",
    ),
    (
        "server.upload_residual_us",
        "upload_p50_ms on spill-cluster",
    ),
    (
        "server.query_residual_ms",
        "diagnose_fresh_p50_ms on rollout-dashboard",
    ),
    (
        "replay.spans_on_s",
        "span overhead: replay total with spans on",
    ),
    (
        "replay.spans_off_s",
        "span overhead: replay total with spans off",
    ),
    ("replay.span_overhead", "span overhead: on / off - 1"),
];

pub fn per_layer(
    args: &Args,
    run: &Run,
) -> Vec<(&'static str, f64, &'static str)> {
    // The spans-off pass is the clean replay the residuals compare
    // with: no probes or twin between its calls.
    let (off, off_ms) = pass(args, run, false);
    let (mut tr, on_ms) = pass(args, run, true);
    let (seg_files, seg_bytes) = segment_probe(args, run, &mut tr);
    let stateful = if run.spec.workers == 1 {
        &run.scrapes[..]
    } else {
        &run.scrapes[1..]
    };
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let hits = |layer: &str| {
        counter(
            stateful,
            "fleetd_query_cache_hits_total",
            &format!("layer=\"{layer}\""),
        )
    };
    let misses = |layer: &str| {
        counter(
            stateful,
            "fleetd_query_cache_misses_total",
            &format!("layer=\"{layer}\""),
        )
    };
    let coord = if run.spec.workers == 1 {
        &run.scrapes[..0]
    } else {
        &run.scrapes[..1]
    };
    let coord_hits = counter(
        coord,
        "fleetd_query_cache_hits_total",
        "layer=\"coordinator\"",
    );
    let coord_misses = counter(
        coord,
        "fleetd_query_cache_misses_total",
        "layer=\"coordinator\"",
    );
    let uploads = counter(stateful, "fleetd_uploads_total", "")
        + counter(stateful, "fleetd_uploads_quarantined_total", "");
    let e2e_upload = run_quantile(&run.upload_ms, 0.5);
    // The replay's figure for the e2e upload p50: the same (measured)
    // uploads, the same windowed estimator.
    let replay_upload = off
        .times
        .get("e2e.upload")
        .map_or(0.0, |ms| run_quantile(ms, 0.5));
    let us = 1e3;
    let values: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "protocol.submit_frame_us",
            tr.median("protocol.submit_frame") * us,
            "us",
        ),
        (
            "protocol.report_frame_ms",
            tr.median("protocol.report_frame"),
            "ms",
        ),
        (
            "protocol.report_frame_mb",
            tr.median("protocol.report_frame_mb"),
            "MB",
        ),
        (
            "protocol.partial_frame_kb",
            tr.median("protocol.partial_frame_kb"),
            "KiB",
        ),
        ("trace.decode_us", tr.median("trace.decode") * us, "us"),
        ("trace.prepare_us", tr.median("trace.prepare") * us, "us"),
        (
            "trace.recovered_share",
            counter(stateful, "fleetd_uploads_total", "outcome=\"recovered\"")
                / uploads.max(1.0),
            "share",
        ),
        ("trace.uploads", uploads, "count"),
        (
            "convert.power_join_us",
            tr.median("convert.power_join") * us,
            "us",
        ),
        ("core.map_shard_us", tr.median("core.map_shard") * us, "us"),
        ("core.analyze_ms", tr.median("core.analyze"), "ms"),
        ("core.render_ms", tr.median("core.render"), "ms"),
        ("core.json_ms", tr.median("core.json"), "ms"),
        ("core.json_mb", tr.median("core.json_mb"), "MB"),
        ("state.submit_us", tr.median("state.submit") * us, "us"),
        (
            "state.commit_self_us",
            tr.median("state.commit_self") * us,
            "us",
        ),
        (
            "state.resident_deltas",
            tr.median("state.resident_deltas"),
            "count",
        ),
        ("state.fold_ms", tr.median("state.fold"), "ms"),
        ("state.diagnose_ms", tr.median("state.diagnose"), "ms"),
        ("state.repeat_ms", tr.median("state.repeat"), "ms"),
        (
            "state.version_diagnose_ms",
            tr.median("state.version_diagnose"),
            "ms",
        ),
        (
            "state.cache_hit_ratio",
            ratio(hits("state"), misses("state")),
            "share",
        ),
        (
            "state.cache_lookups",
            hits("state") + misses("state"),
            "count",
        ),
        (
            "state.compactions",
            counter(stateful, "fleetd_compactions_total", ""),
            "count",
        ),
        ("regress.compare_ms", tr.median("regress.compare"), "ms"),
        ("report.inputs_ms", tr.median("report.inputs"), "ms"),
        ("report.render_ms", tr.median("report.render"), "ms"),
        (
            "checkpoint.restore_ms",
            tr.median("checkpoint.restore"),
            "ms",
        ),
        (
            "checkpoint.bytes_per_trace",
            tr.median("checkpoint.bytes_per_trace"),
            "B",
        ),
        ("segment.save_ms", tr.median("segment.save"), "ms"),
        ("segment.load_ms", tr.median("segment.load"), "ms"),
        ("segment.files", seg_files as f64, "count"),
        (
            "segment.bytes_per_trace",
            seg_bytes as f64 / run.accepted.max(1) as f64,
            "B",
        ),
        (
            "segment.cache_hit_ratio",
            ratio(hits("segment"), misses("segment")),
            "share",
        ),
        (
            "segment.cache_lookups",
            hits("segment") + misses("segment"),
            "count",
        ),
        (
            "segment.spills",
            counter(stateful, "fleetd_spills_total", ""),
            "count",
        ),
        (
            "segment.foldbacks",
            counter(stateful, "fleetd_foldbacks_total", ""),
            "count",
        ),
        ("cluster.route_us", tr.median("cluster.route") * us, "us"),
        (
            "coordinator.worker_call_ms",
            tr.median("coordinator.worker_call"),
            "ms",
        ),
        ("coordinator.self_ms", tr.median("coordinator.self"), "ms"),
        (
            "coordinator.notmodified_ratio",
            ratio(coord_hits, coord_misses),
            "share",
        ),
        (
            "coordinator.partial_requests",
            coord_hits + coord_misses,
            "count",
        ),
        (
            "server.upload_residual_us",
            (e2e_upload - replay_upload) * us,
            "us",
        ),
        (
            "server.query_residual_ms",
            median(&run.fresh_ms) - off.median("e2e.fresh"),
            "ms",
        ),
        ("replay.spans_on_s", on_ms / 1e3, "s"),
        ("replay.spans_off_s", off_ms / 1e3, "s"),
        (
            "replay.span_overhead",
            on_ms / off_ms.max(1e-9) - 1.0,
            "share",
        ),
    ];

    let dir = args.work.join("trace");
    let _ = std::fs::create_dir_all(&dir);
    tr.write(&dir.join(format!("{}-spans.tsv", run.spec.kind.name())));
    eprintln!(
        "\nper-layer metrics of {} (replay of {} operations):",
        run.spec.kind.name(),
        run.sent.len()
    );
    eprintln!("{:<32}{:>14}  {:<6} should move", "metric", "value", "unit");
    for (name, value, unit) in &values {
        let moves =
            MOVES.iter().find(|(m, _)| m == name).map_or("", |(_, w)| w);
        eprintln!("{name:<32}{value:>14.4}  {unit:<6} {moves}");
    }
    eprintln!("\nself time per span name (ms, spans on):");
    for (name, ms) in tr.self_times() {
        eprintln!("{name:<32}{ms:>14.2}");
    }
    eprintln!("\nend-to-end medians of the untraced run against the replay:");
    for (name, e2e, replay) in [
        ("upload_p50_ms", e2e_upload, replay_upload),
        (
            "diagnose_fresh_p50_ms",
            median(&run.fresh_ms),
            off.median("e2e.fresh"),
        ),
        (
            "diagnose_repeat_p50_ms",
            median(&run.repeat_ms),
            off.median("e2e.repeat"),
        ),
        (
            "regressions_p50_ms",
            median(&run.regress_ms),
            off.median("e2e.regressions"),
        ),
        (
            "report_p50_ms",
            median(&run.report_ms),
            off.median("e2e.report"),
        ),
    ] {
        eprintln!("{name:<32} e2e {e2e:>10.3}  replay {replay:>10.3}  residual {:>10.3}", e2e - replay);
    }
    values
}
