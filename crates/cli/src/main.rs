//! The `energydx` command-line driver.
//!
//! Mirrors the paper's workflow on the simulated substrate:
//!
//! ```text
//! energydx instrument <app.smali> [-o out.smali]   # §II-C instrumenter
//! energydx simulate --app <name> [--users N] --out <dir>
//!                                                  # collect field traces
//! energydx analyze --dir <dir> [--fraction F]     # 5-step diagnosis
//! energydx demo --app <name>                      # simulate + analyze
//! energydx apps                                   # list scenarios
//! ```
//!
//! `simulate` writes one `user-N.events` (Fig.-5 text log) and one
//! `user-N.power` (CSV `timestamp_ms,total_mw`) per user; `analyze`
//! reads them back, so the two halves can run on different machines —
//! like the paper's phone-side collection and server-side analysis.
//!
//! The serving half mirrors a fleet deployment:
//!
//! ```text
//! energydx serve [--listen 127.0.0.1:0] [--state <dir>]  # daemon
//! energydx submit --addr <a> --app <name> <p.edxt>... | --dir <dir>
//! energydx query --addr <a> --app <name> [--epoch N]     # report
//! energydx analyze --bundles <dir> --json                # batch ref
//! ```
//!
//! `analyze --bundles` runs the pipeline over the same wire payloads
//! a daemon would ingest — the soak gate diffs its output against a
//! live daemon's `query` byte for byte. It *streams*: each payload is
//! prepared, converted, and folded one at a time, so memory stays
//! bounded by one trace plus the accumulated partial rather than the
//! whole fleet. Point it at a directory of `*.seg` segments (a
//! spilling daemon's spool) and it folds those instead.
//!
//! `serve --spill-dir <dir> --mem-budget <bytes>` runs the daemon in
//! bounded-memory mode: cold epochs spill to segments and fold back
//! on query, byte-identical throughout.

use energydx::par::try_resolve_jobs;
use energydx::shard::ShardPartial;
use energydx::{AnalysisConfig, DiagnosisInput, DiagnosisReport, EnergyDx};
use energydx_dexir::instrument::{EventPool, Instrumenter};
use energydx_dexir::text::{assemble_module, parse_module};
use energydx_dexir::MethodKey;
use energydx_fleetd::cluster::{TcpTransport, WorkerTransport};
use energydx_fleetd::coordinator::{Coordinator, CoordinatorConfig};
use energydx_fleetd::protocol::{Request, Response};
use energydx_fleetd::state::FleetConfig;
use energydx_fleetd::{
    Client, ClientTimeouts, DegradePolicy, FleetdHandle, RetryBudget,
    ServerConfig, SpillConfig, TcpBackend,
};
use energydx_trace::event::EventTrace;
use energydx_trace::power::{PowerSample, PowerTrace};
use energydx_trace::repair::RepairPolicy;
use energydx_trace::store::{
    prepare_wire, IngestOutcome, PreparedUpload, RejectReason,
};
use energydx_trace::upload::{upload_payloads_with_retry, RetryPolicy};
use energydx_trace::util::Component;
use energydx_trace::wire;
use energydx_workload::scenario::Variant;
use energydx_workload::Scenario;
use std::io::Write as IoWrite;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("instrument") => cmd_instrument(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("apps") => cmd_apps(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => {
            Err(format!("unknown command `{other}` (try `energydx help`)"))
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("energydx: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "EnergyDx — diagnosing energy anomalies by identifying the manifestation point

USAGE:
  energydx instrument <app.smali> [-o <out.smali>]
  energydx verify <app.smali>
  energydx simulate --app <name> [--users <n>] [--fixed] --out <dir>
  energydx analyze (--dir <dir> | --bundles <dir>) [--fraction <0..1>]
                   [--top <k>] [--explain] [--jobs <n>] [--shards <n>] [--json]
                   [--timings]
  energydx serve [--listen <addr>] [--state <dir>] [--queue-depth <n>]
                 [--retry-after-ms <ms>] [--checkpoint-every <n>]
                 [--ingest-delay-ms <ms>]
                 [--fraction <0..1>] [--top <k>] [--jobs <n>]
                 [--spill-dir <dir> [--mem-budget <bytes>]]
  energydx serve --coordinator --workers <addr,addr,...> [--listen <addr>]
                 [--state <dir>] [--degrade-policy degrade|hold]
                 [--max-attempts <n>] [--base-backoff-ms <ms>]
                 [--max-backoff-ms <ms>] [--breaker-threshold <n>]
                 [--probe-every <n>] [--connect-timeout-ms <ms>]
                 [--read-timeout-ms <ms>] [--write-timeout-ms <ms>]
                 [--retry-after-ms <ms>] [--fraction <0..1>] [--top <k>]
                 [--jobs <n>]
  energydx submit --addr <host:port> --app <name> (<payload.edxt>... | --dir <dir>)
                  [--max-attempts <n>] [--app-version <release>]
  energydx query --addr <host:port> (--app <name> [--epoch <n>] | --stats
                 | --health | metrics | --checkpoint | --rollover <app>
                 | --shutdown)
  energydx query regressions --addr <host:port> --app <name>
                 --from <release> --to <release> [--epoch <n>]
                 [--threshold <fraction>]
  energydx report (--bundles <dir> | --addr <host:port>) [--out <dir>]
                  [--app <name>] [--top <n>] [--fraction <0..1>]
  energydx demo --app <name>
  energydx apps

Scenario names: k9mail, opengps, wallabag, tinfoil, or a Table-III id (1-40)."
    );
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn scenario_by_name(name: &str) -> Result<Scenario, String> {
    match name {
        "k9mail" | "k9" => Ok(Scenario::k9mail()),
        "opengps" => Ok(Scenario::opengps()),
        "wallabag" => Ok(Scenario::wallabag()),
        "tinfoil" => Ok(Scenario::tinfoil()),
        id => {
            let idx: usize = id.parse().map_err(|_| {
                format!("unknown scenario `{id}` (try `energydx apps`)")
            })?;
            if !(1..=40).contains(&idx) {
                return Err(format!("Table III ids are 1-40, got {idx}"));
            }
            Ok(energydx_workload::fleet()[idx - 1].scenario())
        }
    }
}

fn cmd_apps() -> Result<(), String> {
    println!("case studies: k9mail opengps wallabag tinfoil");
    println!("Table III fleet:");
    for app in energydx_workload::fleet() {
        println!(
            "  {:>2}  {:<18} {:<7} {}",
            app.id, app.name, app.downloads, app.cause
        );
    }
    Ok(())
}

fn cmd_instrument(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("instrument needs an input .smali file")?;
    let source = std::fs::read_to_string(input)
        .map_err(|e| format!("cannot read {input}: {e}"))?;
    let module = parse_module(&source).map_err(|e| e.to_string())?;
    let report = Instrumenter::new(EventPool::standard())
        .instrument(&module)
        .map_err(|e| e.to_string())?;
    let out = flag_value(args, "-o")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{input}.instrumented")));
    std::fs::write(&out, assemble_module(&report.module))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "instrumented {} callbacks (+{} instructions, latency overhead {:.1}%) -> {}",
        report.instrumented_methods,
        report.added_instructions,
        report.latency_overhead() * 100.0,
        out.display()
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("verify needs an input .smali file")?;
    let source = std::fs::read_to_string(input)
        .map_err(|e| format!("cannot read {input}: {e}"))?;
    let module = parse_module(&source).map_err(|e| e.to_string())?;
    let findings = energydx_dexir::verify::verify_module(&module)
        .map_err(|e| e.to_string())?;
    if findings.is_empty() {
        println!(
            "{}: {} classes, {} lines — verifies clean",
            input,
            module.classes.len(),
            module.total_source_lines()
        );
        Ok(())
    } else {
        for finding in &findings {
            eprintln!("{finding}");
        }
        Err(format!("{} verifier finding(s)", findings.len()))
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let name =
        flag_value(args, "--app").ok_or("simulate needs --app <name>")?;
    let out_dir = PathBuf::from(
        flag_value(args, "--out").ok_or("simulate needs --out <dir>")?,
    );
    let mut scenario = scenario_by_name(name)?;
    if let Some(users) = flag_value(args, "--users") {
        scenario.n_users = users
            .parse()
            .map_err(|_| format!("invalid --users `{users}`"))?;
    }
    let variant = if args.iter().any(|a| a == "--fixed") {
        Variant::Fixed
    } else {
        Variant::Faulty
    };
    let collected = scenario.collect(variant).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    for (i, (events, power)) in collected.pairs.iter().enumerate() {
        let events_path = out_dir.join(format!("user-{i}.events"));
        std::fs::write(&events_path, events.to_log()).map_err(|e| {
            format!("cannot write {}: {e}", events_path.display())
        })?;
        let power_path = out_dir.join(format!("user-{i}.power"));
        std::fs::write(&power_path, power_to_csv(power)).map_err(|e| {
            format!("cannot write {}: {e}", power_path.display())
        })?;
    }
    println!(
        "collected {} user sessions of {} into {} (mean app power {:.0} mW)",
        collected.pairs.len(),
        scenario.name,
        out_dir.display(),
        collected.mean_power_mw()
    );
    println!(
        "hint: analyze with `energydx analyze --dir {} --fraction {}`",
        out_dir.display(),
        scenario.developer_fraction()
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let fraction: f64 = flag_value(args, "--fraction")
        .map(|f| f.parse().map_err(|_| format!("invalid --fraction `{f}`")))
        .transpose()?
        .unwrap_or(0.15);
    let top_k: usize = flag_value(args, "--top")
        .map(|t| t.parse().map_err(|_| format!("invalid --top `{t}`")))
        .transpose()?
        .unwrap_or(6);
    let jobs: usize = flag_value(args, "--jobs")
        .map(|j| j.parse().map_err(|_| format!("invalid --jobs `{j}`")))
        .transpose()?
        .unwrap_or(0);
    let shards: usize = flag_value(args, "--shards")
        .map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|&s| s > 0)
                .ok_or(format!("invalid --shards `{s}`"))
        })
        .transpose()?
        .unwrap_or(1);
    // Resolve --jobs (and a possible ENERGYDX_JOBS override) up front
    // so a garbage value is a clean CLI error, not a panic mid-run.
    let jobs = try_resolve_jobs(jobs).map_err(|e| e.to_string())?;

    let mut config =
        AnalysisConfig::default().with_developer_fraction(fraction);
    config.top_k = top_k;
    let mut dx = EnergyDx::new(config.clone()).with_jobs(jobs);
    // --timings attaches a metrics registry so every pipeline stage
    // records a duration span; the exposition goes to stderr so the
    // report bytes on stdout stay byte-identical either way.
    let timings = args.iter().any(|a| a == "--timings");
    if timings {
        dx = dx.with_metrics(energydx_obsv::Metrics::enabled(
            std::sync::Arc::new(energydx_obsv::MetricsRegistry::new()),
        ));
    }
    // The report is byte-identical for every --jobs and --shards
    // setting and for streamed vs. materialized input; the flags only
    // choose how the work is scheduled.
    let report =
        match (flag_value(args, "--dir"), flag_value(args, "--bundles")) {
            (Some(dir), None) => {
                let dir = PathBuf::from(dir);
                let pairs = load_trace_dir(&dir)?;
                if pairs.is_empty() {
                    return Err(format!(
                        "no user-*.events files in {}",
                        dir.display()
                    ));
                }
                let input = DiagnosisInput::from_traces(&pairs);
                if shards > 1 {
                    dx.diagnose_sharded(&input, shards)
                } else {
                    dx.diagnose(&input)
                }
            }
            (None, Some(dir)) => stream_bundle_dir(&dx, Path::new(dir))?,
            _ => {
                return Err("analyze needs exactly one of --dir <dir> or \
                 --bundles <dir>"
                    .to_string())
            }
        };
    if timings {
        if let Some(reg) = dx.metrics().registry() {
            eprint!("{}", reg.render_prometheus());
        }
    }

    if args.iter().any(|a| a == "--json") {
        print!("{}", report.to_canonical_json());
        return Ok(());
    }
    if args.iter().any(|a| a == "--explain") {
        print!("{}", energydx::explain::explain(&report, &config, None));
        return Ok(());
    }
    println!(
        "analyzed {} of {} traces, {} manifestation points in {} impacted traces",
        report.stats.analyzed_traces,
        report.stats.total_traces,
        report.manifestation_point_count(),
        report.impacted_traces().len()
    );
    for skipped in &report.stats.skipped {
        eprintln!(
            "warning: trace {} (user-{}) skipped: {}",
            skipped.index, skipped.index, skipped.reason
        );
    }
    println!(
        "events reported to the developer (closest to {:.0}% impacted):",
        fraction * 100.0
    );
    for (i, event) in report.reported_events().iter().enumerate() {
        let short = MethodKey::parse(&event.event)
            .map(|k| k.short())
            .unwrap_or_else(|| event.event.clone());
        println!(
            "  {}. {:<50} {:>5.1}%",
            i + 1,
            short,
            event.impacted_fraction * 100.0
        );
    }
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let name = flag_value(args, "--app").ok_or("demo needs --app <name>")?;
    let scenario = scenario_by_name(name)?;
    let collected = scenario
        .collect(Variant::Faulty)
        .map_err(|e| e.to_string())?;
    let input = collected.diagnosis_input();
    let config = AnalysisConfig::default()
        .with_developer_fraction(scenario.developer_fraction());
    let report = EnergyDx::new(config).diagnose(&input);
    let code_index = scenario.code_index();

    println!("== {} ==", scenario.name);
    println!(
        "{} traces collected; ABD detected in {} of them",
        input.len(),
        report.impacted_traces().len()
    );
    println!("reported events:");
    for (i, event) in report.reported_events().iter().enumerate() {
        let short = MethodKey::parse(&event.event)
            .map(|k| k.short())
            .unwrap_or_else(|| event.event.clone());
        println!(
            "  {}. {:<50} {:>5.1}%",
            i + 1,
            short,
            event.impacted_fraction * 100.0
        );
    }
    println!(
        "code search space: {} of {} lines (reduction {:.1}%)",
        code_index.diagnosis_lines(report.reported_events()),
        code_index.total_lines,
        code_index.code_reduction(report.reported_events()) * 100.0
    );
    println!("injected root cause: {}", scenario.root_cause_event());
    Ok(())
}

fn num_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, name) {
        Some(v) => v.parse().map_err(|_| format!("invalid {name} `{v}`")),
        None => Ok(default),
    }
}

/// The flags `serve` reads in both modes.
const SERVE_FLAGS: &[&str] = &[
    "--listen",
    "--state",
    "--fraction",
    "--top",
    "--jobs",
    "--retry-after-ms",
];

/// The flags only the single daemon reads.
const DAEMON_FLAGS: &[&str] = &[
    "--queue-depth",
    "--checkpoint-every",
    "--ingest-delay-ms",
    "--spill-dir",
    "--mem-budget",
];

/// The flags only the coordinator reads; `--coordinator` or
/// `--workers` selects its mode.
const COORDINATOR_FLAGS: &[&str] = &[
    "--coordinator",
    "--workers",
    "--degrade-policy",
    "--max-attempts",
    "--base-backoff-ms",
    "--max-backoff-ms",
    "--breaker-threshold",
    "--probe-every",
    "--connect-timeout-ms",
    "--read-timeout-ms",
    "--write-timeout-ms",
];

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let coordinator = args
        .iter()
        .any(|a| a == "--coordinator" || a == "--workers");
    let (mode, own, other) = if coordinator {
        ("coordinator", COORDINATOR_FLAGS, DAEMON_FLAGS)
    } else {
        ("daemon", DAEMON_FLAGS, COORDINATOR_FLAGS)
    };
    // A misspelled, retired or other-mode flag would otherwise be
    // ignored, and the server would run without what it asked for.
    if let Some(flag) = args.iter().find(|a| {
        a.starts_with("--")
            && !SERVE_FLAGS.contains(&a.as_str())
            && !own.contains(&a.as_str())
    }) {
        return Err(if other.contains(&flag.as_str()) {
            format!("serve flag `{flag}` is not read in {mode} mode")
        } else {
            format!("unknown serve flag `{flag}` (try `energydx help`)")
        });
    }
    let listen = flag_value(args, "--listen").unwrap_or("127.0.0.1:0");
    let fraction: f64 = num_flag(args, "--fraction", 0.15)?;
    let top_k: usize = num_flag(args, "--top", 6)?;
    let jobs = try_resolve_jobs(num_flag(args, "--jobs", 0usize)?)
        .map_err(|e| e.to_string())?;
    let mut analysis =
        AnalysisConfig::default().with_developer_fraction(fraction);
    analysis.top_k = top_k;
    let mut fleet = FleetConfig {
        analysis,
        jobs,
        ..FleetConfig::default()
    };
    if coordinator {
        return serve_coordinator(args, fleet, listen);
    }
    fleet.spill = match flag_value(args, "--spill-dir") {
        Some(dir) => Some(SpillConfig {
            dir: PathBuf::from(dir),
            mem_budget: num_flag(args, "--mem-budget", 0usize)?,
        }),
        None => {
            if flag_value(args, "--mem-budget").is_some() {
                return Err("--mem-budget needs --spill-dir <dir>".to_string());
            }
            None
        }
    };
    let config = ServerConfig {
        fleet,
        queue_depth: num_flag(args, "--queue-depth", 64usize)?,
        retry_after_ms: num_flag(args, "--retry-after-ms", 50u64)?,
        ingest_delay_ms: num_flag(args, "--ingest-delay-ms", 0u64)?,
        state_dir: flag_value(args, "--state").map(PathBuf::from),
        checkpoint_every: num_flag(args, "--checkpoint-every", 0usize)?,
    };
    let handle =
        Arc::new(FleetdHandle::start(config).map_err(|e| e.to_string())?);
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Scripts parse this line for the bound port; flush before the
    // accept loop parks.
    println!("fleetd listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    energydx_fleetd::server::serve(listener, handle).map_err(|e| e.to_string())
}

/// `serve --coordinator --workers a,b,c`: the merging coordinator in
/// front of N worker daemons. Speaks the same wire protocol as a
/// single daemon, so `submit`/`query` work unchanged against it.
fn serve_coordinator(
    args: &[String],
    fleet: FleetConfig,
    listen: &str,
) -> Result<(), String> {
    let workers = flag_value(args, "--workers")
        .ok_or("coordinator mode needs --workers <addr,addr,...>")?;
    let policy = match flag_value(args, "--degrade-policy").unwrap_or("degrade")
    {
        "degrade" => DegradePolicy::Degrade,
        "hold" => DegradePolicy::Hold,
        other => {
            return Err(format!(
                "invalid --degrade-policy `{other}` (degrade | hold)"
            ))
        }
    };
    let ms = std::time::Duration::from_millis;
    let timeouts = ClientTimeouts {
        connect: ms(num_flag(args, "--connect-timeout-ms", 5_000u64)?),
        read: ms(num_flag(args, "--read-timeout-ms", 30_000u64)?),
        write: ms(num_flag(args, "--write-timeout-ms", 30_000u64)?),
    };
    let config = CoordinatorConfig {
        fleet,
        policy,
        retry: RetryBudget {
            max_attempts: num_flag(args, "--max-attempts", 3u32)?,
            base_backoff_ms: num_flag(args, "--base-backoff-ms", 10u64)?,
            max_backoff_ms: num_flag(args, "--max-backoff-ms", 200u64)?,
        },
        breaker_threshold: num_flag(args, "--breaker-threshold", 3u32)?,
        probe_every: num_flag(args, "--probe-every", 2u32)?,
        retry_after_ms: num_flag(args, "--retry-after-ms", 50u64)?,
        state_dir: flag_value(args, "--state").map(PathBuf::from),
    };
    let transports: Vec<Box<dyn WorkerTransport>> = workers
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(|addr| {
            Box::new(TcpTransport::new(addr, timeouts))
                as Box<dyn WorkerTransport>
        })
        .collect();
    let shards = transports.len();
    if shards == 0 {
        return Err("--workers needs at least one worker address".to_string());
    }
    let coordinator = Arc::new(
        Coordinator::new(config, transports)
            .map_err(|e| format!("coordinator refused to start: {e}"))?,
    );
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Same parseable banner shape as the single daemon.
    println!("fleetd coordinator listening on {addr} ({shards} shard(s))");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    energydx_fleetd::server::serve_dispatcher(listener, coordinator)
        .map_err(|e| e.to_string())
}

fn edxt_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "edxt"))
        .collect();
    files.sort();
    Ok(files)
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let addr =
        flag_value(args, "--addr").ok_or("submit needs --addr <host:port>")?;
    let app = flag_value(args, "--app").ok_or("submit needs --app <name>")?;
    let mut files: Vec<PathBuf> = Vec::new();
    if let Some(dir) = flag_value(args, "--dir") {
        files.extend(edxt_files(Path::new(dir))?);
    }
    // Positional payload files, skipping flags and their values.
    let value_flags = [
        "--addr",
        "--app",
        "--dir",
        "--max-attempts",
        "--app-version",
    ];
    let mut i = 0;
    while i < args.len() {
        if value_flags.contains(&args[i].as_str()) {
            i += 2;
        } else if args[i].starts_with('-') {
            i += 1;
        } else {
            files.push(PathBuf::from(&args[i]));
            i += 1;
        }
    }
    if files.is_empty() {
        return Err("submit needs payload files or --dir <dir>".to_string());
    }
    let mut payloads = Vec::with_capacity(files.len());
    for path in &files {
        payloads.push(
            std::fs::read(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    // --app-version re-stamps every payload with the release it was
    // collected under and re-encodes to wire v3, so the daemon can
    // partition the epoch by release for regression queries.
    if let Some(version) = flag_value(args, "--app-version") {
        for (path, payload) in files.iter().zip(payloads.iter_mut()) {
            let bundle = wire::decode(payload)
                .map_err(|e| format!("cannot stamp {}: {e}", path.display()))?;
            *payload = wire::try_encode_v3(&bundle.with_app_version(version))
                .map_err(|e| {
                format!("cannot re-encode {}: {e}", path.display())
            })?;
        }
    }
    let max_attempts: u32 = num_flag(args, "--max-attempts", 16u32)?;
    let mut backend = TcpBackend::new(addr, app).with_pause_cap_ms(100);
    let policy = RetryPolicy {
        max_attempts,
        ..RetryPolicy::default()
    };
    let stats =
        upload_payloads_with_retry(&payloads, &mut backend, &policy, 0x5eed);
    let class = |f: fn(&IngestOutcome) -> bool| {
        stats.outcomes.iter().filter(|o| f(o)).count()
    };
    println!(
        "submitted {} payload(s) to {app} at {addr}: {} clean, \
         {} recovered, {} quarantined ({} retried, {} backpressure hints)",
        stats.delivered,
        class(|o| matches!(o, IngestOutcome::Clean)),
        class(|o| matches!(o, IngestOutcome::Recovered { .. })),
        class(|o| matches!(o, IngestOutcome::Rejected(_))),
        stats.retries,
        stats.retry_after_hints,
    );
    if stats.gave_up > 0 {
        return Err(format!(
            "{} payload(s) undelivered after {max_attempts} attempt(s) each",
            stats.gave_up
        ));
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let addr =
        flag_value(args, "--addr").ok_or("query needs --addr <host:port>")?;
    let has = |name: &str| args.iter().any(|a| a == name);
    let request = if has("--stats") {
        Request::Stats
    } else if has("--health") {
        Request::Health
    } else if has("metrics") || has("--metrics") {
        Request::Metrics
    } else if has("--checkpoint") {
        Request::Checkpoint
    } else if has("--shutdown") {
        Request::Shutdown
    } else if let Some(app) = flag_value(args, "--rollover") {
        Request::Rollover {
            app: app.to_string(),
        }
    } else if has("regressions") || has("--regressions") {
        let app = flag_value(args, "--app")
            .ok_or("query regressions needs --app <name>")?;
        let from = flag_value(args, "--from")
            .ok_or("query regressions needs --from <release>")?;
        let to = flag_value(args, "--to")
            .ok_or("query regressions needs --to <release>")?;
        let epoch = flag_value(args, "--epoch")
            .map(|e| e.parse().map_err(|_| format!("invalid --epoch `{e}`")))
            .transpose()?;
        let threshold = flag_value(args, "--threshold")
            .map(|t| {
                t.parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or(format!("invalid --threshold `{t}`"))
            })
            .transpose()?;
        Request::Regressions {
            app: app.to_string(),
            epoch,
            from: from.to_string(),
            to: to.to_string(),
            threshold,
        }
    } else if let Some(app) = flag_value(args, "--app") {
        let epoch = flag_value(args, "--epoch")
            .map(|e| e.parse().map_err(|_| format!("invalid --epoch `{e}`")))
            .transpose()?;
        Request::Diagnose {
            app: app.to_string(),
            epoch,
        }
    } else {
        return Err("query needs one of --app, regressions, --stats, \
                    --health, metrics, --checkpoint, \
                    --rollover, --shutdown"
            .to_string());
    };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    match client.request(&request).map_err(|e| e.to_string())? {
        Response::Report { json }
        | Response::Stats { json }
        | Response::Health { json } => {
            // Reports already end in a newline (canonical JSON); keep
            // the bytes identical to `analyze --json` for diffing.
            print!("{json}");
            if !json.ends_with('\n') {
                println!();
            }
        }
        Response::Degraded { missing, json } => {
            // The partial report still goes to stdout (it is exact
            // over the shards it covers), but the command fails so
            // scripts can never mistake it for the full answer.
            print!("{json}");
            if !json.ends_with('\n') {
                println!();
            }
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            return Err(format!(
                "degraded answer: shard(s) {missing:?} unreachable"
            ));
        }
        Response::Metrics { text } => print!("{text}"),
        Response::Epoch { epoch } => println!("epoch {epoch}"),
        Response::Done => println!("ok"),
        Response::Error { message } => return Err(message),
        other => return Err(format!("unexpected response: {other:?}")),
    }
    Ok(())
}

/// `energydx report`: renders the deterministic operator report
/// (self-contained `report.html` + canonical `report.json`) either
/// over batch input (`--bundles`) or from a live daemon/coordinator
/// (`--addr`, via `Request::Report`). Both artifacts are written
/// atomically (tmp → fsync → rename, like checkpoints), so a failure
/// never leaves a partial artifact on disk. A degraded cluster answer
/// still writes the artifacts — they name the missing shards — but
/// the command exits nonzero so scripts cannot mistake them for the
/// full fleet.
fn cmd_report(args: &[String]) -> Result<(), String> {
    let out_dir = PathBuf::from(flag_value(args, "--out").unwrap_or("."));
    let top: Option<u32> = flag_value(args, "--top")
        .map(|t| t.parse().map_err(|_| format!("invalid --top `{t}`")))
        .transpose()?;
    match (flag_value(args, "--bundles"), flag_value(args, "--addr")) {
        (Some(dir), None) => report_batch(args, Path::new(dir), &out_dir, top),
        (None, Some(addr)) => report_live(addr, &out_dir, top),
        _ => Err("report needs exactly one of --bundles <dir> or \
                  --addr <host:port>"
            .to_string()),
    }
}

/// The live half of `energydx report`: one `Request::Report` against
/// a daemon or coordinator, artifacts written as received.
fn report_live(
    addr: &str,
    out_dir: &Path,
    top: Option<u32>,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    match client
        .request(&Request::Report { top })
        .map_err(|e| e.to_string())?
    {
        Response::ReportArtifacts {
            missing,
            html,
            json,
        } => {
            let (html_path, json_path) =
                write_report_artifacts(out_dir, &html, &json)?;
            println!(
                "report written to {} and {}",
                html_path.display(),
                json_path.display()
            );
            if missing.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "degraded report: shard(s) {missing:?} unreachable"
                ))
            }
        }
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// The batch half of `energydx report`: assembles one [`AppInput`]
/// per app through the daemon's own prepare/dedup/convert pipeline
/// and renders with a pinned deployment panel — byte-identical to a
/// deterministic-time daemon over the same accepted payloads.
///
/// Layouts: a directory of `*.edxt` payloads (or a `*.seg` spill
/// spool) is one app, named by `--app` (default: the directory name);
/// a directory of subdirectories is one app per subdirectory.
///
/// [`AppInput`]: energydx_report::AppInput
fn report_batch(
    args: &[String],
    dir: &Path,
    out_dir: &Path,
    top: Option<u32>,
) -> Result<(), String> {
    use energydx_report::{build_model, DeploymentPanel, DEFAULT_TOP_APPS};
    let fraction: f64 = num_flag(args, "--fraction", 0.15)?;
    let jobs = try_resolve_jobs(num_flag(args, "--jobs", 0usize)?)
        .map_err(|e| e.to_string())?;
    let config = AnalysisConfig::default().with_developer_fraction(fraction);
    // One app per subdirectory holding payloads; a flat directory is
    // a single app.
    let mut apps: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .filter_map(|p| {
            let has_payloads =
                edxt_files(&p).map(|f| !f.is_empty()).unwrap_or(false)
                    || seg_files(&p).map(|f| !f.is_empty()).unwrap_or(false);
            let name = p.file_name()?.to_str()?.to_string();
            has_payloads.then_some((name, p))
        })
        .collect();
    apps.sort();
    if apps.is_empty() {
        let name = flag_value(args, "--app")
            .map(str::to_string)
            .or_else(|| {
                dir.file_name().and_then(|n| n.to_str()).map(str::to_string)
            })
            .unwrap_or_else(|| "app".to_string());
        apps.push((name, dir.to_path_buf()));
    }
    let mut inputs = Vec::new();
    for (app, adir) in &apps {
        inputs.push(assemble_app_input(&config, jobs, app, adir)?);
    }
    let model = build_model(
        &inputs,
        DeploymentPanel::pinned(),
        Vec::new(),
        top.map_or(DEFAULT_TOP_APPS, |t| t as usize),
    );
    let html = energydx_report::render_html(&model);
    let json = energydx_report::render_json(&model);
    let (html_path, json_path) = write_report_artifacts(out_dir, &html, &json)?;
    println!(
        "report over {} app(s) written to {} and {}",
        apps.len(),
        html_path.display(),
        json_path.display()
    );
    Ok(())
}

/// Runs one app directory through the daemon's ingest pipeline into a
/// report input: `*.seg` spools fold directly (no per-upload
/// accounting survives a spill, so they count as clean); `*.edxt`
/// payloads get the full prepare/dedup/quarantine treatment.
fn assemble_app_input(
    config: &AnalysisConfig,
    jobs: usize,
    app: &str,
    dir: &Path,
) -> Result<energydx_report::AppInput, String> {
    use energydx_report::{AppInput, BatchAssembler, EpochInput};
    let dx = EnergyDx::new(config.clone()).with_jobs(jobs);
    let segments = seg_files(dir)?;
    if !segments.is_empty() {
        let fleet = dx
            .analyze(fold_segments(&segments)?)
            .map_err(|e| e.to_string())?;
        let summary = dx.summarize(&fleet);
        let clean = summary.total_traces as u64;
        return Ok(AppInput {
            app: app.to_string(),
            detail_epoch: 0,
            epochs: vec![EpochInput {
                epoch: 0,
                summary,
                clean,
                recovered: 0,
                quarantine: Vec::new(),
            }],
            versions: Vec::new(),
        });
    }
    let files = edxt_files(dir)?;
    if files.is_empty() {
        return Err(format!(
            "no *.edxt payloads or *.seg segments in {}",
            dir.display()
        ));
    }
    let policy = RepairPolicy::default();
    let mut assembler = BatchAssembler::new(dx);
    let mut seen: std::collections::BTreeSet<(String, u64)> =
        std::collections::BTreeSet::new();
    for path in &files {
        let payload = std::fs::read(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        match prepare_wire(&payload, &policy) {
            PreparedUpload::Ready {
                bundle,
                repairs,
                salvage,
            } => {
                if !seen.insert((bundle.user.clone(), bundle.session)) {
                    assembler.reject(&RejectReason::Duplicate.to_string());
                    continue;
                }
                let recovered = !repairs.is_empty() || salvage.is_some();
                let version = bundle.app_version.clone();
                let trace = energydx_fleetd::convert::bundle_to_trace(&bundle);
                assembler.accept(&version, trace, recovered);
            }
            PreparedUpload::Rejected(entry) => {
                assembler.reject(&entry.reason.to_string());
            }
        }
    }
    assembler.finish(app).map_err(|e| e.to_string())
}

/// Writes both report artifacts atomically: each lands complete under
/// its final name or not at all (tmp → fsync → rename, the routine
/// checkpoints use).
fn write_report_artifacts(
    out_dir: &Path,
    html: &str,
    json: &str,
) -> Result<(PathBuf, PathBuf), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let html_path = out_dir.join("report.html");
    let json_path = out_dir.join("report.json");
    write_atomic(&html_path, html.as_bytes())?;
    write_atomic(&json_path, json.as_bytes())?;
    Ok((html_path, json_path))
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    energydx_segment::write_atomic(path, bytes)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Streams diagnosis over a directory without materializing the
/// fleet. Two layouts:
///
/// - `*.seg` segments (a spilling daemon's spool): each is loaded,
///   validated against its CRCs, and folded in file-name order, which
///   is sequence order.
/// - `*.edxt` wire payloads (sorted by file name): each runs the same
///   salvage/quarantine/dedup pipeline the daemon runs, is converted,
///   mapped at its running offset, and folded.
///
/// Either way memory holds one delta plus the accumulated fold, and
/// the finished report is byte-identical to the materialized batch
/// run over the same accepted traces — this is the batch side of the
/// daemon/batch byte-diff.
fn stream_bundle_dir(
    dx: &EnergyDx,
    dir: &Path,
) -> Result<DiagnosisReport, String> {
    let segments = seg_files(dir)?;
    if !segments.is_empty() {
        return dx
            .finish(fold_segments(&segments)?)
            .map_err(|e| e.to_string());
    }
    let files = edxt_files(dir)?;
    if files.is_empty() {
        return Err(format!(
            "no *.edxt payloads or *.seg segments in {}",
            dir.display()
        ));
    }
    let policy = RepairPolicy::default();
    // Accept order, not sorted-by-user: a daemon folds uploads in
    // arrival order and a cluster concatenates per-worker arrival
    // orders, so the byte-diff reference must preserve file order
    // (name the files to match the submit schedule).
    let mut seen: std::collections::BTreeSet<(String, u64)> =
        std::collections::BTreeSet::new();
    let mut fold = ShardPartial::empty();
    for path in &files {
        let payload = std::fs::read(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<payload>");
        match prepare_wire(&payload, &policy) {
            PreparedUpload::Ready { bundle, .. } => {
                if !seen.insert((bundle.user.clone(), bundle.session)) {
                    eprintln!(
                        "warning: {name} quarantined: {}",
                        RejectReason::Duplicate
                    );
                    continue;
                }
                let trace = energydx_fleetd::convert::bundle_to_trace(&bundle);
                let end = fold.end_offset();
                fold = fold.merge(dx.map_shard(&[trace], end));
            }
            PreparedUpload::Rejected(entry) => {
                eprintln!("warning: {name} quarantined: {}", entry.reason);
            }
        }
    }
    dx.finish(fold).map_err(|e| e.to_string())
}

/// Loads `*.seg` files (validated against their CRCs) and merges them
/// in the given order, which for a spill spool is sequence order.
fn fold_segments(paths: &[PathBuf]) -> Result<ShardPartial, String> {
    let mut fold = ShardPartial::empty();
    for path in paths {
        let partial = energydx_segment::load_from(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        fold = fold.merge(partial);
    }
    Ok(fold)
}

/// All `*.seg` files in `dir`, sorted by file name (sequence order
/// for a spill spool's `run-NNNNNNNNNNNN.seg` naming).
fn seg_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    files.sort();
    Ok(files)
}

fn power_to_csv(power: &PowerTrace) -> String {
    let mut out = String::from("timestamp_ms,total_mw\n");
    for s in power.samples() {
        out.push_str(&format!("{},{:.3}\n", s.timestamp_ms, s.total_mw));
    }
    out
}

fn power_from_csv(path: &Path, csv: &str) -> Result<PowerTrace, String> {
    let mut trace = PowerTrace::new();
    for (i, line) in csv.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| {
            format!("{}:{}: {what} in `{line}`", path.display(), i + 1)
        };
        let (ts, mw) = line.split_once(',').ok_or_else(|| {
            at("malformed row (expected `timestamp_ms,total_mw`)")
        })?;
        let ts: u64 = ts.trim().parse().map_err(|_| at("bad timestamp"))?;
        let mw: f64 = mw.trim().parse().map_err(|_| at("bad power"))?;
        if !mw.is_finite() {
            return Err(at("non-finite power"));
        }
        if mw < 0.0 {
            return Err(at("negative power"));
        }
        let mut sample = PowerSample::new(ts);
        sample.set_component(Component::Cpu, mw);
        trace.push(sample);
    }
    Ok(trace)
}

fn load_trace_dir(dir: &Path) -> Result<Vec<(EventTrace, PowerTrace)>, String> {
    let mut pairs = Vec::new();
    let mut user = 0usize;
    loop {
        let events_path = dir.join(format!("user-{user}.events"));
        if !events_path.exists() {
            break;
        }
        let events_text =
            std::fs::read_to_string(&events_path).map_err(|e| {
                format!("cannot read {}: {e}", events_path.display())
            })?;
        let events =
            EventTrace::from_log(&events_text).map_err(|e| e.to_string())?;
        let power_path = dir.join(format!("user-{user}.power"));
        let power_text = std::fs::read_to_string(&power_path).map_err(|e| {
            format!("cannot read {}: {e}", power_path.display())
        })?;
        let power = power_from_csv(&power_path, &power_text)?;
        pairs.push((events, power));
        user += 1;
    }
    Ok(pairs)
}
