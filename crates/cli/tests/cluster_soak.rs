//! The cluster soak gate (run from `ci.sh` with `-- --ignored`):
//! three real `energydx serve` worker processes behind a real
//! `energydx serve --coordinator` process, driven through the
//! phone-side retrying uploader with 120 payloads (a deterministic
//! ~15% of them damaged), replicated mid-stream, one worker killed
//! with SIGKILL, a **blank** replacement started on the same port and
//! seeded organically by the coordinator's probe-and-handoff — and
//! the final coordinator report must be **byte-identical** to
//! `energydx analyze --bundles --json` over the same payload
//! directory. Files are named `s{shard}-{seq:03}.edxt` so the batch
//! CLI's sorted filename order equals the cluster's merge order
//! (per-worker accepted sequences concatenated in worker-index
//! order).

use energydx_fleetd::cluster::shard_for_payload;
use energydx_fleetd::fixture;
use energydx_fleetd::state::FleetConfig;
use energydx_fleetd::TcpBackend;
use energydx_trace::fault::{FaultInjector, FaultKind};
use energydx_trace::upload::{upload_payloads_with_retry, RetryPolicy};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const WORKERS: usize = 3;
const TOTAL: usize = 120;
const REPLICATE_AT: usize = 60;
const KILL_AT: usize = 80;
const APP: &str = "soak";

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
        .join(format!("energydx-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// The 120 soak payloads in upload order: one session per zero-padded
/// user, with every 7th payload damaged in a rotating,
/// order-preserving way (no drops, no duplicates — one payload stays
/// one upload, salvaged or quarantined identically on both sides of
/// the diff).
fn soak_payloads() -> Vec<Vec<u8>> {
    let kinds = [
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::Reorder,
        FaultKind::ClockSkew,
    ];
    let mut injector = FaultInjector::new(0xC1A0, 1.0);
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

fn read_banner(child: &mut Child, prefix: &str) -> String {
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    banner
        .trim()
        .strip_prefix(prefix)
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .split(' ')
        .next()
        .unwrap()
        .to_string()
}

fn spawn_worker(state: &Path, listen: &str) -> Daemon {
    // A freed port can linger briefly after a SIGKILL; retry the bind
    // a few times before declaring the replacement unstartable.
    for attempt in 0..10 {
        let mut child = energydx()
            .args(["serve", "--listen", listen, "--state"])
            .arg(state)
            .args(["--retry-after-ms", "20"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn energydx serve");
        let mut banner = String::new();
        std::io::BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut banner)
            .unwrap();
        if let Some(rest) = banner.trim().strip_prefix("fleetd listening on ") {
            return Daemon {
                child,
                addr: rest.to_string(),
            };
        }
        let _ = child.wait();
        assert!(attempt < 9, "worker never bound {listen}: {banner}");
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    unreachable!()
}

fn spawn_coordinator(state: &Path, workers: &[String]) -> Daemon {
    let mut child = energydx()
        .args(["serve", "--coordinator", "--listen", "127.0.0.1:0"])
        .args(["--workers", &workers.join(",")])
        .args(["--state"])
        .arg(state)
        .args(["--base-backoff-ms", "5", "--max-backoff-ms", "40"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn energydx serve --coordinator");
    let addr = read_banner(&mut child, "fleetd coordinator listening on ");
    Daemon { child, addr }
}

fn drive(addr: &str, payloads: &[Vec<u8>]) {
    let mut backend = TcpBackend::new(addr, APP).with_pause_cap_ms(50);
    let stats = upload_payloads_with_retry(
        payloads,
        &mut backend,
        &RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        },
        0xD22,
    );
    assert_eq!(stats.gave_up, 0, "the retrying uploader must drain");
    assert_eq!(stats.delivered, payloads.len());
}

fn query(addr: &str, args: &[&str]) -> std::process::Output {
    energydx()
        .args(["query", "--addr", addr])
        .args(args)
        .output()
        .unwrap()
}

fn query_ok(addr: &str, args: &[&str]) -> Vec<u8> {
    let out = query(addr, args);
    assert!(
        out.status.success(),
        "query {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
#[ignore = "cluster soak gate: run from ci.sh with -- --ignored"]
fn cluster_soak_survives_kill_dash_nine_and_blank_replacement() {
    let payload_dir = temp_dir("payloads");
    let coord_state = temp_dir("coord");
    let worker_states: Vec<TempDir> =
        (0..WORKERS).map(|k| temp_dir(&format!("w{k}"))).collect();

    // Shard every payload exactly the way the coordinator will, and
    // name the files so sorted order == the cluster's merge order.
    let repair = FleetConfig::default().repair;
    let payloads = soak_payloads();
    let shards: Vec<usize> = payloads
        .iter()
        .map(|p| shard_for_payload(APP, p, &repair, WORKERS))
        .collect();
    let mut seq = vec![0usize; WORKERS];
    for (payload, &shard) in payloads.iter().zip(&shards) {
        let name = format!("s{shard}-{:03}.edxt", seq[shard]);
        seq[shard] += 1;
        std::fs::write(payload_dir.join(name), payload).unwrap();
    }
    assert!(
        seq.iter().all(|&n| n > 0),
        "the schedule must exercise every shard: {seq:?}"
    );

    let mut workers: Vec<Daemon> = worker_states
        .iter()
        .map(|state| spawn_worker(state, "127.0.0.1:0"))
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let mut coord = spawn_coordinator(&coord_state, &addrs);

    // ---- Phase 1: drive half the fleet, then replicate every
    // worker's checkpoint to the coordinator.
    drive(&coord.addr, &payloads[..REPLICATE_AT]);
    assert_eq!(query_ok(&coord.addr, &["--checkpoint"]), b"ok\n");

    // ---- Phase 2: keep driving past the replica, then kill -9
    // worker 1. Everything it accepted after the replication dies
    // with the process.
    drive(&coord.addr, &payloads[REPLICATE_AT..KILL_AT]);
    workers[1].child.kill().expect("SIGKILL");
    let _ = workers[1].child.wait();

    // A query against the wounded cluster degrades explicitly: the
    // partial report reaches stdout, the exit status says it is not
    // the full answer.
    let degraded = query(&coord.addr, &["--app", APP]);
    assert!(!degraded.status.success(), "a degraded query must fail");
    assert!(
        String::from_utf8_lossy(&degraded.stderr).contains("degraded answer"),
        "stderr must name the degradation: {}",
        String::from_utf8_lossy(&degraded.stderr)
    );
    assert!(
        !degraded.stdout.is_empty(),
        "the surviving shards' report still goes to stdout"
    );

    // ---- Phase 3: a *blank* replacement on the same port. The
    // coordinator's next contact probes, sees the replica ahead of
    // the worker, and hands the checkpoint off before any new
    // traffic lands. Re-driving the post-replica window restores the
    // killed shard's lost tail; the surviving shards dedup the
    // resends.
    let replacement_state = temp_dir("w1-replacement");
    workers[1] = spawn_worker(&replacement_state, &addrs[1]);
    drive(&coord.addr, &payloads[REPLICATE_AT..KILL_AT]);
    drive(&coord.addr, &payloads[KILL_AT..]);

    // ---- The verdict: coordinator report == batch CLI over the
    // payload directory, byte for byte.
    let served = query_ok(&coord.addr, &["--app", APP]);
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
        "cluster diverged from the batch CLI after kill -9 + handoff"
    );

    // ---- Observability: the handoff and the per-worker replica
    // state must be visible from the outside.
    let metrics = String::from_utf8(query_ok(&coord.addr, &["metrics"]))
        .expect("utf-8 exposition");
    assert!(
        metrics.contains("cluster_handoffs_total{worker=\"1\"}"),
        "the handoff must be on the counter: {metrics}"
    );
    assert!(
        metrics.contains("cluster_submits_routed_total"),
        "routing must be on the counter: {metrics}"
    );
    let stats = String::from_utf8(query_ok(&coord.addr, &["--stats"]))
        .expect("utf-8 stats");
    assert!(
        stats.contains("\"replica_accepted\""),
        "stats must expose per-worker replicas: {stats}"
    );
    let health = String::from_utf8(query_ok(&coord.addr, &["--health"]))
        .expect("utf-8 health");
    assert!(
        health.contains("\"status\": \"ok\""),
        "a healed cluster must report ok: {health}"
    );

    // ---- Release gating through the healed cluster: two stamped
    // releases of a fresh app land via `submit --app-version` at the
    // coordinator, and `query regressions` must serve byte-for-byte
    // what a single in-process daemon fed the same stamped payloads
    // *grouped by shard index* serves — the coordinator's per-version
    // fan-out concatenates worker partials in worker order.
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
            .args(["submit", "--addr", &coord.addr, "--app", "release"])
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
    let differential = query_ok(
        &coord.addr,
        &[
            "regressions",
            "--app",
            "release",
            "--from",
            "1.9.0",
            "--to",
            "2.0.0",
        ],
    );
    let stamped: Vec<Vec<u8>> = [("1.9.0", 0u64), ("2.0.0", 1)]
        .iter()
        .flat_map(|&(release, session)| {
            (0..6u64).map(move |user| {
                fixture::payload_versioned(
                    &format!("r{user:02}"),
                    session,
                    release,
                )
            })
        })
        .collect();
    let mut reference = energydx_fleetd::FleetState::new(
        energydx_fleetd::FleetConfig::default(),
    );
    for shard in 0..WORKERS {
        for payload in stamped.iter().filter(|p| {
            shard_for_payload("release", p, &repair, WORKERS) == shard
        }) {
            reference.submit("release", payload);
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
        String::from_utf8_lossy(&differential),
        expected,
        "cluster differential diverged from the in-process reference"
    );

    // ---- Graceful teardown: one shutdown at the coordinator stops
    // the workers and the coordinator itself.
    assert_eq!(query_ok(&coord.addr, &["--shutdown"]), b"ok\n");
    assert!(coord.child.wait().unwrap().success());
    for (k, worker) in workers.iter_mut().enumerate() {
        assert!(
            worker.child.wait().unwrap().success(),
            "worker {k} did not exit cleanly"
        );
    }
}
