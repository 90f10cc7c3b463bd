//! The fleetd soak gate (run from `ci.sh` with `-- --ignored`):
//! a real `energydx serve` process is driven through the phone-side
//! retrying uploader with 200 payloads (a deterministic ~15% of them
//! damaged), checkpointed, killed with SIGKILL mid-stream, restarted
//! from the checkpoint, and re-driven — and the final served report
//! must be **byte-identical** to `energydx analyze --bundles --json`
//! over the same payload directory. A backpressure phase with eight
//! parallel uploaders against a depth-4 queue checks the daemon sheds
//! explicitly (RetryAfter) and never exceeds its configured depth.

use energydx_fleetd::fixture;
use energydx_fleetd::{Client, Request, Response, TcpBackend};
use energydx_trace::fault::{FaultInjector, FaultKind};
use energydx_trace::upload::{upload_payloads_with_retry, RetryPolicy};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const TOTAL: usize = 200;
const CHECKPOINT_AT: usize = 120;
const KILL_AT: usize = 160;

fn energydx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_energydx"))
}

/// RAII scratch directory: removed on drop, so a failing assertion
/// anywhere in the soak no longer strands state directories in the
/// system temp dir.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(name: &str) -> TempDir {
    let dir = std::env::temp_dir()
        .join(format!("energydx-soak-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// The 200 soak payloads in upload order: sorted zero-padded users so
/// the daemon's accept order equals the batch CLI's filename order,
/// with every 7th payload damaged in a rotating, order-preserving way
/// (no drops, no duplicates — one file stays one upload).
fn soak_payloads() -> Vec<Vec<u8>> {
    let kinds = [
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::Reorder,
        FaultKind::ClockSkew,
    ];
    let mut injector = FaultInjector::new(0x50AC, 1.0);
    (0..TOTAL)
        .map(|i| {
            let payload = fixture::payload(&format!("u{i:03}"), 0);
            if i % 7 == 3 {
                let kind = kinds[(i / 7) % kinds.len()];
                injector
                    .corrupt(&payload, kind)
                    .pop()
                    .expect("order-preserving kinds deliver one payload")
            } else {
                payload
            }
        })
        .collect()
}

struct Daemon {
    child: Child,
    addr: String,
}

/// Every daemon in the soak runs in bounded-memory mode: a small
/// budget over a shared spill spool, so cold epochs hit the columnar
/// segment path and the kill -9 / restart cycle below also covers
/// checkpoints that reference segment files (and the orphan
/// collection of runs spilled after the restored checkpoint).
fn spawn_daemon(state: &Path, spool: &Path, extra: &[&str]) -> Daemon {
    let mut child = energydx()
        .args(["serve", "--listen", "127.0.0.1:0", "--state"])
        .arg(state)
        .args(["--retry-after-ms", "20"])
        .arg("--spill-dir")
        .arg(spool)
        .args(["--mem-budget", "4096"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn energydx serve");
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("fleetd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    Daemon { child, addr }
}

fn drive(addr: &str, app: &str, payloads: &[Vec<u8>]) {
    let mut backend = TcpBackend::new(addr, app).with_pause_cap_ms(50);
    let stats = upload_payloads_with_retry(
        payloads,
        &mut backend,
        &RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        },
        0xD21,
    );
    assert_eq!(stats.gave_up, 0, "the retrying uploader must drain");
    assert_eq!(stats.delivered, payloads.len());
}

fn query_report(addr: &str, app: &str) -> Vec<u8> {
    let out = energydx()
        .args(["query", "--addr", addr, "--app", app])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn shutdown(addr: &str, daemon: &mut Child) {
    let out = energydx()
        .args(["query", "--addr", addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(daemon.wait().unwrap().success());
}

#[test]
#[ignore = "soak gate: run from ci.sh with -- --ignored"]
fn fleetd_soak_survives_backpressure_crash_and_restart() {
    let state = temp_dir("state");
    let spool = temp_dir("spool");
    let payload_dir = temp_dir("payloads");
    let payloads = soak_payloads();
    for (i, payload) in payloads.iter().enumerate() {
        std::fs::write(payload_dir.join(format!("{i:03}.edxt")), payload)
            .unwrap();
    }

    // ---- Phase 1: backpressure. A deliberately slow, shallow queue
    // hammered by 8 parallel uploaders must shed explicitly and stay
    // within its depth — and still lose nothing.
    let mut daemon = spawn_daemon(
        &state,
        &spool,
        &["--queue-depth", "4", "--ingest-delay-ms", "3"],
    );
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let pressure: Vec<Vec<u8>> = (0..25)
                    .map(|s| fixture::payload(&format!("p{t}-{s:02}"), 0))
                    .collect();
                let mut backend =
                    TcpBackend::new(&addr, "pressure").with_pause_cap_ms(50);
                let stats = upload_payloads_with_retry(
                    &pressure,
                    &mut backend,
                    &RetryPolicy {
                        max_attempts: 64,
                        ..RetryPolicy::default()
                    },
                    t as u64,
                );
                assert_eq!(stats.gave_up, 0);
                (stats.retry_after_hints, backend.retry_after_seen)
            })
        })
        .collect();
    let mut hints = 0usize;
    for t in threads {
        let (h, seen) = t.join().unwrap();
        assert_eq!(h, seen, "every RetryAfter reaches the retry loop");
        hints += h;
    }
    assert!(
        hints > 0,
        "8 uploaders against a depth-4 queue must observe RetryAfter"
    );
    let stats_out = energydx()
        .args(["query", "--addr", &daemon.addr, "--stats"])
        .output()
        .unwrap();
    assert!(stats_out.status.success());
    let stats_json = String::from_utf8_lossy(&stats_out.stdout);
    assert!(
        stats_json.contains("\"depth\": 4"),
        "stats must expose the queue: {stats_json}"
    );
    let max_seen: usize = stats_json
        .split("\"max_seen\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no max_seen in stats: {stats_json}"));
    assert!(
        max_seen <= 4,
        "queue exceeded its configured depth: {stats_json}"
    );
    assert!(
        stats_json.contains(&format!("\"traces\": {}", 8 * 25)),
        "every pressure upload must be accounted for: {stats_json}"
    );

    // ---- Scrape the live daemon and parse the exposition: the ingest
    // accounting, queue gauges, stage histograms, and the sheds the
    // uploaders observed must all round-trip through the text format.
    let metrics_out = energydx()
        .args(["query", "--addr", &daemon.addr, "metrics"])
        .output()
        .unwrap();
    assert!(metrics_out.status.success());
    let text = String::from_utf8(metrics_out.stdout).expect("utf-8");
    let samples = energydx_obsv::parse_exposition(&text)
        .unwrap_or_else(|e| panic!("unparseable exposition ({e}): {text}"));
    assert_eq!(
        samples.get("fleetd_uploads_total;outcome=clean").copied(),
        Some((8 * 25) as f64),
        "{text}"
    );
    assert_eq!(
        samples.get("fleetd_uploads_shed_total").copied(),
        Some(hints as f64),
        "every shed the uploaders saw must be on the counter: {text}"
    );
    assert_eq!(
        samples.get("fleetd_queue_capacity").copied(),
        Some(4.0),
        "{text}"
    );
    let ingest_count = samples
        .get("energydx_stage_duration_seconds_count;stage=ingest")
        .copied()
        .unwrap_or(0.0);
    assert!(
        ingest_count >= (8 * 25) as f64,
        "every accepted upload records an ingest span: {text}"
    );
    shutdown(&daemon.addr, &mut daemon.child);

    // ---- Phase 2: the 200-payload diff stream with a checkpoint, a
    // SIGKILL, and a restart. The queue stays shallow (backpressure on
    // the real stream too), the worker keeps its artificial delay.
    let mut daemon = spawn_daemon(
        &state,
        &spool,
        &["--queue-depth", "4", "--ingest-delay-ms", "2"],
    );
    drive(&daemon.addr, "soak", &payloads[..CHECKPOINT_AT]);
    let mut client = Client::connect(&daemon.addr).expect("connect");
    assert_eq!(
        client.request(&Request::Checkpoint).expect("checkpoint"),
        Response::Done
    );
    drop(client);
    drive(&daemon.addr, "soak", &payloads[CHECKPOINT_AT..KILL_AT]);
    // kill -9: everything accepted after the checkpoint dies with the
    // process.
    daemon.child.kill().expect("SIGKILL");
    let _ = daemon.child.wait();

    // Restart from the checkpoint and re-drive the lost tail plus a
    // chunk of already-accepted resends (deduped by the restored
    // seen-set).
    let mut daemon = spawn_daemon(&state, &spool, &["--queue-depth", "8"]);
    drive(&daemon.addr, "soak", &payloads[CHECKPOINT_AT - 20..]);

    // ---- The verdict: daemon report == batch CLI over the payload
    // directory, byte for byte.
    let served = query_report(&daemon.addr, "soak");
    let batch = energydx()
        .args(["analyze", "--bundles"])
        .arg(&*payload_dir)
        .arg("--json")
        .output()
        .unwrap();
    assert!(
        batch.status.success(),
        "batch analyze failed: {}",
        String::from_utf8_lossy(&batch.stderr)
    );
    assert!(!served.is_empty());
    assert_eq!(
        served, batch.stdout,
        "daemon diverged from the batch CLI after crash recovery"
    );

    // ---- Graceful shutdown, one more restart: the flushed checkpoint
    // serves the same bytes again.
    shutdown(&daemon.addr, &mut daemon.child);
    let mut daemon = spawn_daemon(&state, &spool, &[]);
    assert_eq!(
        query_report(&daemon.addr, "soak"),
        served,
        "restart from the final checkpoint changed the report"
    );

    // ---- Release gating over the same live path: two stamped
    // releases of a fresh app land via `submit --app-version`, and
    // `query regressions` must serve byte-for-byte what an in-process
    // daemon fed the identical stamped payloads serves.
    let versioned = temp_dir("versioned");
    for (sub, session) in [("v1", 0u64), ("v2", 1u64)] {
        let dir = versioned.join(sub);
        std::fs::create_dir_all(&dir).unwrap();
        for user in 0..6u64 {
            std::fs::write(
                dir.join(format!("r{user:02}.edxt")),
                fixture::payload(&format!("r{user:02}"), session),
            )
            .unwrap();
        }
    }
    for (sub, release) in [("v1", "1.9.0"), ("v2", "2.0.0")] {
        let out = energydx()
            .args(["submit", "--addr", &daemon.addr, "--app", "release"])
            .args(["--dir"])
            .arg(versioned.join(sub))
            .args(["--app-version", release])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stamped submit failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = energydx()
        .args(["query", "regressions", "--addr", &daemon.addr])
        .args(["--app", "release", "--from", "1.9.0", "--to", "2.0.0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "query regressions failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut reference = energydx_fleetd::FleetState::new(
        energydx_fleetd::FleetConfig::default(),
    );
    for (session, release) in [(0u64, "1.9.0"), (1, "2.0.0")] {
        for user in 0..6u64 {
            reference.submit(
                "release",
                &fixture::payload_versioned(
                    &format!("r{user:02}"),
                    session,
                    release,
                ),
            );
        }
    }
    let expected = reference
        .regressions_json(
            "release",
            None,
            "1.9.0",
            "2.0.0",
            &energydx_regress::RegressConfig::default(),
        )
        .expect("reference differential");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "live differential diverged from the in-process reference"
    );
    shutdown(&daemon.addr, &mut daemon.child);
}
