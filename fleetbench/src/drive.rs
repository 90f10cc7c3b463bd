//! The untraced run: prepare state, start the servers several times
//! for `setup_s`, drive a fixed number of rounds (uploads, then
//! queries) over one connection, then check every answer.

use crate::corpus::{Corpus, Op, RELEASES};
use crate::model::{self, Model};
use crate::procs::{Conn, Fleet, ServerDirs};
use crate::stats::{median, windowed_quantile};
use crate::workload::Spec;
use crate::Args;
use energydx_fleetd::checkpoint;
use energydx_fleetd::cluster::shard_for_payload;
use energydx_fleetd::protocol::{OutcomeCode, Request, Response};
use energydx_fleetd::spill::SpillConfig;
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_trace::RepairPolicy;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Consecutive windows a run's upload latencies (and its fresh
/// diagnoses, for their p90) are cut into; those percentiles are
/// medians over the windows' percentiles.
const WINDOWS: usize = 10;

/// Untimed rounds before the measured ones, so caches fill and the
/// servers' heaps grow before timing; the last one runs a `Report`.
const WARMUP_ROUNDS: usize = 2;

/// A run that is still sending after this many times `--seconds`
/// stops early (and says so): a bound on a very slow host's run time.
const DEADLINE_FACTOR: f64 = 3.0;

/// Bump when a change to the generator or the preparation alters the
/// prepared state, so stale cache entries are never reused.
const PREP_FORMAT: u64 = 1;

/// One timed query of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Fresh,
    Repeat,
    Regressions,
    Report,
}

/// One operation as sent, in send order, for the replay.
#[derive(Debug, Clone, Copy)]
pub enum Sent {
    Upload(Op),
    Query { query: Query, app: u16 },
}

/// Operations sent and how they went. A failure is an error reply,
/// `RetryAfter`, a `Degraded` answer, a timeout, or a wrong answer; a
/// wrong answer (or a failed count check) is also a mismatch, which
/// makes the run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: usize,
    /// The first few failures, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: String) {
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// An operation that got no usable answer.
    fn failed(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// An operation whose answer was wrong.
    fn wrong(&mut self, what: String) {
        self.mismatches += 1;
        self.failed(what);
    }

    /// A check that is not one operation (counters, determinism).
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            self.note(what());
        }
    }
}

/// Everything the untraced run measured.
#[derive(Debug)]
pub struct Run {
    pub spec: Spec,
    pub corpus: Corpus,
    pub names: Vec<String>,
    pub preload: Vec<Op>,
    /// The prepared (pristine) state directories.
    pub prep: PathBuf,
    pub sent: Vec<Sent>,
    /// How many of `sent` the untimed warm-up rounds sent.
    pub warmup_sent: usize,
    pub setup_s: Vec<f64>,
    pub upload_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    pub repeat_ms: Vec<f64>,
    pub regress_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    /// Server CPU seconds spent while the measured uploads ran.
    pub upload_cpu_s: f64,
    pub peak_rss_mb: f64,
    pub disk_bytes: u64,
    pub accepted: usize,
    pub tally: Tally,
    /// Each server's metrics scrape, entry process first.
    pub scrapes: Vec<BTreeMap<String, f64>>,
}

/// An upload's served outcome, or why there was none.
type Served = Result<(OutcomeCode, String), String>;

fn outcome_of(resp: Result<Response, String>) -> Served {
    match resp? {
        Response::Outcome { code, reason } => Ok((code, reason)),
        other => Err(brief(&other)),
    }
}

fn brief(resp: &Response) -> String {
    match resp {
        Response::Error { message } => format!("error reply: {message}"),
        Response::RetryAfter { ms } => format!("retry-after {ms} ms"),
        Response::Degraded { missing, .. } => {
            format!("degraded answer, missing {missing:?}")
        }
        other => {
            let text = format!("{other:?}");
            format!("unexpected reply {}", &text[..text.len().min(80)])
        }
    }
}

/// The JSON of a full (not degraded) query answer.
fn answer(resp: Result<Response, String>) -> Result<String, String> {
    match resp? {
        Response::Report { json } => Ok(json),
        Response::ReportArtifacts { missing, json, .. }
            if missing.is_empty() =>
        {
            Ok(json)
        }
        other => Err(brief(&other)),
    }
}

/// Prometheus text → `name{labels}` → value (comments skipped).
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create work directory");
    for entry in std::fs::read_dir(from).expect("read prepared directory") {
        let entry = entry.expect("prepared directory entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy prepared file");
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The directories of worker `k` under `root`.
pub fn worker_dirs(spec: &Spec, root: &Path, k: usize) -> ServerDirs {
    let base = root.join(format!("w{k}"));
    ServerDirs {
        state: base.join("state"),
        spill: spec.mem_budget.map(|b| (base.join("spill"), b)),
    }
}

/// The fleet configuration every server of the workload runs with
/// (`energydx serve` defaults plus `--jobs` and the spill budget).
pub fn fleet_config(dirs: &ServerDirs) -> FleetConfig {
    FleetConfig {
        jobs: crate::procs::JOBS,
        spill: dirs.spill.as_ref().map(|(dir, budget)| SpillConfig {
            dir: dir.clone(),
            mem_budget: *budget,
        }),
        ..FleetConfig::default()
    }
}

/// Builds the prepared state directories (checkpoints, plus segments
/// under a spill budget) by feeding the preload through in-process
/// states routed like the coordinator routes, unless a directory for
/// the same workload, seed and benchmark binary already exists.
fn prepare(
    args: &Args,
    spec: &Spec,
    corpus: &Corpus,
    names: &[String],
    preload: &[Op],
) -> PathBuf {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .expect("read the benchmark binary");
    let key = fnv(&exe, fnv(&PREP_FORMAT.to_le_bytes(), 0xcbf2_9ce4_8422_2325));
    let prep_root = args.work.join("prep");
    let dir = prep_root.join(format!(
        "{}-s{}-{key:016x}",
        spec.kind.name(),
        args.seed
    ));
    if dir.join("done").exists() {
        return dir;
    }
    // Keep the cache small: drop this workload's older entries.
    if let Ok(entries) = std::fs::read_dir(&prep_root) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with(&format!("{}-s", spec.kind.name())) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let mut states: Vec<FleetState> = (0..spec.workers)
        .map(|k| FleetState::new(fleet_config(&worker_dirs(spec, &dir, k))))
        .collect();
    for op in preload {
        let payload = corpus.payload(op);
        let app = &names[op.app as usize];
        let k = if spec.workers == 1 {
            0
        } else {
            shard_for_payload(
                app,
                &payload,
                &RepairPolicy::default(),
                spec.workers,
            )
        };
        states[k].submit(app, &payload);
    }
    for (k, state) in states.iter().enumerate() {
        checkpoint::save_to(state, &worker_dirs(spec, &dir, k).state)
            .expect("save the prepared checkpoint");
    }
    std::fs::write(dir.join("done"), b"").expect("mark the prepared state");
    dir
}

/// What the rounds sent and timed. Warm-up rounds are sent and
/// checked like the others, but not timed.
#[derive(Debug, Default)]
struct Rounds {
    sent: Vec<Sent>,
    /// How many of `sent` the warm-up rounds sent.
    warmup_sent: usize,
    uploads: Vec<(Op, Served)>,
    upload_ms: Vec<f64>,
    upload_cpu_ns: u64,
    fresh_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    regress_ms: Vec<f64>,
    report_ms: Vec<f64>,
}

impl Rounds {
    /// Sends one query, timed when `timed`; returns the answer's JSON
    /// when it is a full (not degraded) answer.
    fn query(
        &mut self,
        conn: &mut Conn,
        tally: &mut Tally,
        req: &Request,
        (query, app): (Query, u16),
        timed: bool,
    ) -> Option<String> {
        let (resp, ms) = conn.timed(&req.encode());
        if timed {
            let into = match query {
                Query::Fresh => &mut self.fresh_ms,
                Query::Repeat => &mut self.repeat_ms,
                Query::Regressions => &mut self.regress_ms,
                Query::Report => &mut self.report_ms,
            };
            into.push(ms);
        }
        self.sent.push(Sent::Query { query, app });
        tally.attempted += 1;
        answer(resp)
            .map_err(|e| tally.failed(format!("{query:?} of app {app}: {e}")))
            .ok()
    }
}

fn diagnose(names: &[String], app: u16) -> Request {
    Request::Diagnose {
        app: names[app as usize].clone(),
        epoch: None,
    }
}

fn regressions(names: &[String], app: u16) -> Request {
    Request::Regressions {
        app: names[app as usize].clone(),
        epoch: None,
        from: RELEASES[0].to_string(),
        to: RELEASES[1].to_string(),
        threshold: None,
    }
}

/// The rounds, one closed-loop client: [`WARMUP_ROUNDS`] untimed, then
/// `spec.rounds(--seconds)` measured. A round visits the next query
/// app: `spread` uploads to weighted random apps and K to the visited
/// one (each timed; server CPU is read around the burst), a fresh
/// `Diagnose`, a repeat `Diagnose` (of the same app at lag 0, after
/// `Regressions` of the previous one at lag 1), `Regressions`, and a
/// `Report` every `report_every` rounds. Every kind of operation is
/// spread over the whole window, so a slow spell of the host weighs
/// on every metric alike instead of on one phase's.
fn rounds(
    args: &Args,
    spec: &Spec,
    corpus: &Corpus,
    names: &[String],
    fleet: &Fleet,
    conn: &mut Conn,
    tally: &mut Tally,
) -> Rounds {
    let mut stream = spec.round_stream(args.seed);
    let mut out = Rounds::default();
    let mut last_fresh: HashMap<u16, String> = HashMap::new();
    let mut prev_app: Option<u16> = None;
    let total = WARMUP_ROUNDS + spec.rounds(args.seconds);
    let deadline = Instant::now()
        + Duration::from_secs_f64(args.seconds * DEADLINE_FACTOR);
    for n in 0..total {
        if Instant::now() > deadline {
            tally.note(format!(
                "stopped after {n} of {total} rounds at the deadline"
            ));
            break;
        }
        let timed = n >= WARMUP_ROUNDS;
        if n == WARMUP_ROUNDS {
            out.warmup_sent = out.sent.len();
        }
        let app = spec.query_apps[n % spec.query_apps.len()];
        // At lag 1 the repeat asks the previous app, which must get
        // nothing new before it.
        let avoid = prev_app.filter(|_| spec.repeat_lag == 1);
        let mut ops: Vec<Op> = (0..spec.spread)
            .map(|_| stream.next_op(None, avoid))
            .collect();
        ops.extend((0..spec.k).map(|_| stream.next_op(Some(app), None)));
        // Encoded before the burst: the client does no work between
        // the uploads it times.
        let frames: Vec<Vec<u8>> = ops
            .iter()
            .map(|op| {
                Request::Submit {
                    app: names[op.app as usize].clone(),
                    payload: corpus.payload(op),
                }
                .encode()
            })
            .collect();
        let cpu0 = fleet.cpu_ns();
        for (op, frame) in ops.iter().zip(&frames) {
            let (resp, ms) = conn.timed(frame);
            if timed {
                out.upload_ms.push(ms);
            }
            out.sent.push(Sent::Upload(*op));
            out.uploads.push((*op, outcome_of(resp)));
        }
        if timed {
            out.upload_cpu_ns += fleet.cpu_ns().saturating_sub(cpu0);
        }
        let (repeat, steps) = if spec.repeat_lag == 0 {
            (Some(app), [Query::Fresh, Query::Repeat, Query::Regressions])
        } else {
            (prev_app, [Query::Fresh, Query::Regressions, Query::Repeat])
        };
        for step in steps {
            match (step, repeat) {
                (Query::Fresh, _) => {
                    let req = diagnose(names, app);
                    if let Some(json) =
                        out.query(conn, tally, &req, (step, app), timed)
                    {
                        last_fresh.insert(app, json);
                    }
                }
                (Query::Repeat, Some(target)) => {
                    let req = diagnose(names, target);
                    if let Some(json) =
                        out.query(conn, tally, &req, (step, target), timed)
                    {
                        if last_fresh.get(&target) != Some(&json) {
                            tally.wrong(format!(
                                "repeat of app {target} changed bytes"
                            ));
                        }
                    }
                }
                (Query::Regressions, _) => {
                    let req = regressions(names, app);
                    out.query(conn, tally, &req, (step, app), timed);
                }
                _ => {}
            }
        }
        let report = if timed {
            (n - WARMUP_ROUNDS) % spec.report_every == spec.report_every - 1
        } else {
            n == WARMUP_ROUNDS - 1
        };
        if report {
            let req = Request::Report { top: None };
            out.query(conn, tally, &req, (Query::Report, app), timed);
        }
        prev_app = Some(app);
    }
    out
}

/// Checks that the generator is a pure function of the seed: a second
/// simulation of the first query app gives the same sessions, so the
/// pure restamping gives the same payload bytes.
fn deterministic(spec: &Spec, corpus: &Corpus) -> bool {
    let app = spec.query_apps[0] as usize;
    spec.simulate_app(corpus.seed, app).sessions == corpus.apps[app].sessions
}

/// Sends an untimed query whose answer must equal `expected`.
fn verify(
    conn: &mut Conn,
    tally: &mut Tally,
    req: &Request,
    expected: &str,
    what: &str,
) {
    tally.attempted += 1;
    match answer(conn.call(req)) {
        Ok(json) if json == expected => {}
        Ok(_) => {
            tally.wrong(format!("{what} differs from the batch reference"))
        }
        Err(e) => tally.failed(format!("{what}: {e}")),
    }
}

/// Quarantine counters by reason, summed over scrapes.
fn quarantined(scrapes: &[BTreeMap<String, f64>]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for (key, value) in scrapes.iter().flatten() {
        if let Some(reason) = key
            .strip_prefix("fleetd_uploads_quarantined_total{reason=\"")
            .and_then(|r| r.strip_suffix("\"}"))
        {
            *counts.entry(reason.to_string()).or_insert(0) += *value as usize;
        }
    }
    counts.retain(|_, n| *n > 0);
    counts
}

pub fn run(args: &Args) -> Run {
    let spec = Spec::new(args.kind);
    let names = spec.names();
    let corpus = spec.simulate(args.seed);
    let preload = spec.preload_ops(args.seed);
    let prep = prepare(args, &spec, &corpus, &names, &preload);
    let mut tally = Tally::default();
    tally.check(deterministic(&spec, &corpus), || {
        "the generator gave other bytes for the same seed".to_string()
    });

    let mut model = Model::new(names.clone(), spec.workers);
    for op in &preload {
        model.apply(&corpus, op, None);
    }
    let quarantined_before = model.quarantine_counts();
    let accepted_before = model.accepted_total();

    // A live copy: servers write checkpoints and may fold or collect
    // segments, and the prepared directory must stay pristine.
    let live = args.work.join("run").join(spec.kind.name());
    let _ = std::fs::remove_dir_all(&live);
    copy_dir(&prep, &live);
    let dirs: Vec<ServerDirs> = (0..spec.workers)
        .map(|k| worker_dirs(&spec, &live, k))
        .collect();
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUPS {
        drop(fleet.take());
        let (started, secs) = Fleet::start(&args.cli, &dirs, &live);
        setup_s.push(secs);
        fleet = Some(started);
    }
    let fleet = fleet.expect("SETUPS > 0");

    let mut conn = Conn::connect(fleet.entry());
    let rounds =
        rounds(args, &spec, &corpus, &names, &fleet, &mut conn, &mut tally);

    // Every upload's served outcome against the model. An upload that
    // got no outcome never reached the state, so the model skips it.
    for (op, served) in &rounds.uploads {
        tally.attempted += 1;
        match served {
            Ok(got) => {
                let expected = OutcomeCode::of(&model.apply(&corpus, op, None));
                if *got != expected {
                    tally.wrong(format!(
                        "upload {op:?}: served {got:?}, expected {expected:?}"
                    ));
                }
            }
            Err(e) => tally.failed(format!("upload {op:?}: {e}")),
        }
    }

    // Served query bytes against the batch references, untimed.
    for &app in &spec.query_apps {
        let reference =
            model::app_reference(&model.bundles(&corpus, app as usize));
        let name = &names[app as usize];
        verify(
            &mut conn,
            &mut tally,
            &diagnose(&names, app),
            &reference.diagnose,
            &format!("diagnose {name}"),
        );
        verify(
            &mut conn,
            &mut tally,
            &regressions(&names, app),
            &reference.regressions,
            &format!("regressions {name}"),
        );
    }
    let (html, json) = model::report_reference(&model, &corpus);
    tally.attempted += 1;
    match conn.call(&Request::Report { top: None }) {
        Ok(Response::ReportArtifacts {
            missing,
            html: h,
            json: j,
        }) if missing.is_empty() => {
            if h != html || j != json {
                tally.wrong("report differs from the batch reference".into());
            }
        }
        other => tally.failed(format!(
            "report: {}",
            other.map_or_else(|e| e, |r| brief(&r))
        )),
    }

    // Durable footprint after an end-of-run checkpoint on every
    // stateful process, then the counter scrape of every process.
    for server in fleet.stateful() {
        tally.attempted += 1;
        match Conn::connect(&server.addr).call(&Request::Checkpoint) {
            Ok(Response::Done) => {}
            other => tally.failed(format!("checkpoint: {other:?}")),
        }
    }
    let disk_bytes: u64 = dirs
        .iter()
        .map(|d| {
            dir_bytes(&d.state)
                + d.spill.as_ref().map_or(0, |(spill, _)| dir_bytes(spill))
        })
        .sum();
    let scrapes: Vec<BTreeMap<String, f64>> = fleet
        .servers
        .iter()
        .map(|server| {
            match Conn::connect(&server.addr).call(&Request::Metrics) {
                Ok(Response::Metrics { text }) => parse_metrics(&text),
                _ => BTreeMap::new(),
            }
        })
        .collect();
    let peak_rss_mb = fleet.peak_rss_mb();
    drop(conn);
    drop(fleet);

    // The counters restart with the processes, so they cover the
    // timed window: quarantines by reason must equal what the
    // generator injected there, and accepted uploads the model's.
    let stateful = &scrapes[usize::from(spec.workers > 1)..];
    let mut injected = model.quarantine_counts();
    for (reason, n) in quarantined_before {
        *injected.entry(reason).or_insert(0) -= n;
    }
    injected.retain(|_, n| *n > 0);
    let counted = quarantined(stateful);
    tally.check(counted == injected, || {
        format!(
            "servers quarantined {counted:?}, generator injected {injected:?}"
        )
    });
    let accepted = model.accepted_total();
    let served: f64 = stateful
        .iter()
        .flatten()
        .filter(|(k, _)| k.starts_with("fleetd_uploads_total{"))
        .map(|(_, v)| v)
        .sum();
    tally.check(served as usize == accepted - accepted_before, || {
        format!(
            "servers accepted {served}, model {}",
            accepted - accepted_before
        )
    });

    Run {
        spec,
        corpus,
        names,
        preload,
        prep,
        sent: rounds.sent,
        warmup_sent: rounds.warmup_sent,
        setup_s,
        upload_ms: rounds.upload_ms,
        fresh_ms: rounds.fresh_ms,
        repeat_ms: rounds.repeat_ms,
        regress_ms: rounds.regress_ms,
        report_ms: rounds.report_ms,
        upload_cpu_s: rounds.upload_cpu_ns as f64 / 1e9,
        peak_rss_mb,
        disk_bytes,
        accepted,
        tally,
        scrapes,
    }
}

/// A latency percentile of a run: the median over consecutive windows
/// of each window's percentile, so a host hiccup in part of a run
/// moves only the windows it covers.
pub fn run_quantile(samples: &[f64], q: f64) -> f64 {
    windowed_quantile(samples, WINDOWS, q)
}

impl Run {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let tally = &self.tally;
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("upload_p50_ms", run_quantile(&self.upload_ms, 0.5), "ms"),
            (
                "uploads_per_cpu_s",
                self.upload_ms.len() as f64 / self.upload_cpu_s.max(1e-3),
                "1/s",
            ),
            ("diagnose_fresh_p50_ms", median(&self.fresh_ms), "ms"),
            (
                "diagnose_fresh_p90_ms",
                run_quantile(&self.fresh_ms, 0.9),
                "ms",
            ),
            ("diagnose_repeat_p50_ms", median(&self.repeat_ms), "ms"),
            ("regressions_p50_ms", median(&self.regress_ms), "ms"),
            ("report_p50_ms", median(&self.report_ms), "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
            (
                "disk_bytes_per_trace",
                self.disk_bytes as f64 / self.accepted.max(1) as f64,
                "B",
            ),
            (
                "ok_frac",
                (tally.attempted - tally.failed) as f64
                    / tally.attempted.max(1) as f64,
                "share",
            ),
        ]
    }
}
