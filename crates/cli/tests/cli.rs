//! Integration tests for the `energydx` binary: every subcommand,
//! driven through the filesystem like a user would.

use std::path::PathBuf;
use std::process::Command;

fn energydx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_energydx"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("energydx-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_lists_all_subcommands() {
    let out = energydx().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "instrument",
        "simulate",
        "analyze",
        "serve",
        "submit",
        "query",
        "demo",
        "apps",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = energydx().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn apps_lists_the_table_iii_fleet() {
    let out = energydx().arg("apps").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("K-9 Mail"));
    assert!(text.contains("Fitdice"));
    assert!(text.lines().count() > 40);
}

#[test]
fn instrument_rewrites_a_smali_file() {
    let dir = temp_dir("instrument");
    let input = dir.join("app.smali");
    std::fs::write(
        &input,
        "\
.package com.cli.test
.class Lcom/cli/test/Main;
.super Landroid/app/Activity;
.activity
.method onResume()V
  .registers 2
  .lines 9
  return-void
.end method
.end class
",
    )
    .unwrap();
    let out_path = dir.join("app.instrumented.smali");
    let out = energydx()
        .args([
            "instrument",
            input.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rewritten = std::fs::read_to_string(&out_path).unwrap();
    assert!(rewritten.contains("log-enter Lcom/cli/test/Main;->onResume"));
    assert!(rewritten.contains("log-exit"));
}

#[test]
fn verify_passes_clean_and_flags_broken_modules() {
    let dir = temp_dir("verify");
    let clean = dir.join("clean.smali");
    std::fs::write(
        &clean,
        "\
.package com.cli.test
.class Lcom/cli/test/Main;
.super Landroid/app/Activity;
.activity
.method onResume()V
  .registers 2
  .lines 9
  const v0, 1
  return-void
.end method
.end class
",
    )
    .unwrap();
    let out = energydx()
        .args(["verify", clean.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verifies clean"));

    let broken = dir.join("broken.smali");
    std::fs::write(
        &broken,
        "\
.package com.cli.test
.class Lcom/cli/test/Main;
.super Landroid/app/Activity;
.activity
.method onResume()V
  .registers 2
  .lines 9
  const v9, 1
  return-void
.end method
.end class
",
    )
    .unwrap();
    let out = energydx()
        .args(["verify", broken.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("register v9"));
}

#[test]
fn instrument_rejects_malformed_input() {
    let dir = temp_dir("badsmali");
    let input = dir.join("bad.smali");
    std::fs::write(&input, "this is not smali\n").unwrap();
    let out = energydx()
        .args(["instrument", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
}

#[test]
fn simulate_then_analyze_round_trip() {
    let dir = temp_dir("roundtrip");
    let out = energydx()
        .args([
            "simulate",
            "--app",
            "opengps",
            "--users",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // One .events and one .power file per user.
    for user in 0..5 {
        assert!(dir.join(format!("user-{user}.events")).exists());
        assert!(dir.join(format!("user-{user}.power")).exists());
    }

    let out = energydx()
        .args([
            "analyze",
            "--dir",
            dir.to_str().unwrap(),
            "--fraction",
            "0.3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("analyzed 5 of 5 traces"));
    assert!(
        text.contains("LoggerMap")
            || text.contains("ControlTracking")
            || text.contains("Idle"),
        "analysis output: {text}"
    );
}

#[test]
fn analyze_json_is_identical_across_jobs_and_shards() {
    let dir = temp_dir("diffcli");
    let out = energydx()
        .args([
            "simulate",
            "--app",
            "opengps",
            "--users",
            "6",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run = |extra: &[&str]| -> Vec<u8> {
        let mut args =
            vec!["analyze", "--dir", dir.to_str().unwrap(), "--json"];
        args.extend_from_slice(extra);
        let out = energydx().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "args {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };

    let sequential = run(&["--jobs", "1"]);
    assert!(!sequential.is_empty());
    assert_eq!(sequential.last(), Some(&b'\n'));
    for extra in [
        &["--jobs", "2"][..],
        &["--jobs", "8"],
        &["--shards", "3"],
        &["--jobs", "4", "--shards", "5"],
    ] {
        assert_eq!(run(extra), sequential, "args {extra:?}");
    }
}

#[test]
fn analyze_rejects_bad_jobs_and_shards() {
    let dir = temp_dir("badflags");
    std::fs::write(dir.join("user-0.events"), "").unwrap();
    for args in [["--jobs", "x"], ["--shards", "0"]] {
        let out = energydx()
            .args(["analyze", "--dir", dir.to_str().unwrap()])
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("invalid"),
            "args {args:?}"
        );
    }
}

#[test]
fn analyze_rejects_corrupt_power_csv_with_path_and_line() {
    let dir = temp_dir("corrupt-power");
    let out = energydx()
        .args([
            "simulate",
            "--app",
            "opengps",
            "--users",
            "1",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let power = dir.join("user-0.power");
    std::fs::write(&power, "timestamp_ms,total_mw\n0,100.0\n250,NaN\n")
        .unwrap();
    let out = energydx()
        .args(["analyze", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("user-0.power:3"), "stderr: {err}");
    assert!(err.contains("non-finite power"), "stderr: {err}");

    std::fs::write(&power, "timestamp_ms,total_mw\n0,-5.0\n").unwrap();
    let out = energydx()
        .args(["analyze", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("user-0.power:2"), "stderr: {err}");
    assert!(err.contains("negative power"), "stderr: {err}");
}

#[test]
fn analyze_fails_cleanly_on_empty_dir() {
    let dir = temp_dir("empty");
    let out = energydx()
        .args(["analyze", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no user-"));
}

/// The serving loop end to end, as a user would drive it: spawn
/// `serve`, push a payload directory through `submit` (one payload
/// corrupt), and check `query --app` serves the exact bytes
/// `analyze --bundles --json` computes over the same directory.
#[test]
fn serve_submit_query_matches_batch_analyze() {
    use std::io::BufRead;

    let dir = temp_dir("fleetd");
    for i in 0..8u64 {
        let mut payload =
            energydx_fleetd::fixture::payload(&format!("u{i:02}"), 0);
        if i == 5 {
            payload.truncate(6); // quarantined on both paths
        }
        std::fs::write(dir.join(format!("{i:03}.edxt")), payload).unwrap();
    }

    let mut daemon = energydx()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    std::io::BufReader::new(daemon.stdout.take().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line
        .trim()
        .strip_prefix("fleetd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
        .to_string();

    let out = energydx()
        .args([
            "submit",
            "--addr",
            &addr,
            "--app",
            "mail",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("7 clean"), "submit output: {text}");
    assert!(text.contains("1 quarantined"), "submit output: {text}");

    let served = energydx()
        .args(["query", "--addr", &addr, "--app", "mail"])
        .output()
        .unwrap();
    assert!(
        served.status.success(),
        "{}",
        String::from_utf8_lossy(&served.stderr)
    );
    let batch = energydx()
        .args(["analyze", "--bundles", dir.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        batch.status.success(),
        "{}",
        String::from_utf8_lossy(&batch.stderr)
    );
    assert!(!served.stdout.is_empty());
    assert_eq!(
        served.stdout, batch.stdout,
        "daemon report diverged from the batch CLI"
    );

    let health = energydx()
        .args(["query", "--addr", &addr, "--health"])
        .output()
        .unwrap();
    assert!(health.status.success());
    assert!(
        String::from_utf8_lossy(&health.stdout).contains("\"status\": \"ok\"")
    );

    let down = energydx()
        .args(["query", "--addr", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(down.status.success());
    assert!(daemon.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_without_a_daemon_fails_cleanly() {
    let out = energydx()
        .args(["query", "--addr", "127.0.0.1:1", "--health"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("energydx:"),
        "connection failure must be a clean CLI error"
    );
}

#[test]
fn analyze_rejects_dir_and_bundles_together() {
    let out = energydx()
        .args(["analyze", "--dir", "a", "--bundles", "b"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one of"));
}

#[test]
fn demo_reports_the_root_cause() {
    let out = energydx()
        .args(["demo", "--app", "tinfoil"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("menu_item_newsfeed"), "demo output: {text}");
    assert!(text.contains("code search space"));
}

#[test]
fn demo_accepts_table_iii_ids() {
    let out = energydx().args(["demo", "--app", "5"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Open Camera"));
}

#[test]
fn demo_rejects_out_of_range_ids() {
    let out = energydx().args(["demo", "--app", "41"]).output().unwrap();
    assert!(!out.status.success());
}

/// A spilling daemon under a zero memory budget (every upload folded
/// straight to an on-disk segment) must serve the same bytes as the
/// streaming batch CLI over the payload directory — and the streaming
/// CLI pointed at the daemon's own segment spool must produce those
/// bytes a third time.
#[test]
fn spilling_daemon_and_its_spool_match_the_batch_cli() {
    use std::io::BufRead;

    let dir = temp_dir("spill-payloads");
    let spool = temp_dir("spill-spool");
    for i in 0..6u64 {
        let mut payload =
            energydx_fleetd::fixture::payload(&format!("s{i:02}"), 0);
        if i == 4 {
            payload.truncate(6); // quarantined on every path
        }
        std::fs::write(dir.join(format!("{i:03}.edxt")), payload).unwrap();
    }

    let mut daemon = energydx()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--spill-dir",
            spool.to_str().unwrap(),
            "--mem-budget",
            "0",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    std::io::BufReader::new(daemon.stdout.take().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line
        .trim()
        .strip_prefix("fleetd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
        .to_string();

    let out = energydx()
        .args([
            "submit",
            "--addr",
            &addr,
            "--app",
            "mail",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let served = energydx()
        .args(["query", "--addr", &addr, "--app", "mail"])
        .output()
        .unwrap();
    assert!(
        served.status.success(),
        "{}",
        String::from_utf8_lossy(&served.stderr)
    );

    let batch = energydx()
        .args(["analyze", "--bundles", dir.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(batch.status.success());
    assert!(!served.stdout.is_empty());
    assert_eq!(
        served.stdout, batch.stdout,
        "spilling daemon diverged from the batch CLI"
    );

    // The spool holds one single-trace segment per accepted upload;
    // streaming them in sequence order is the same fleet again.
    let segments = std::fs::read_dir(&spool).unwrap().count();
    assert_eq!(segments, 5, "budget 0 must spill every accepted upload");
    let from_spool = energydx()
        .args(["analyze", "--bundles", spool.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        from_spool.status.success(),
        "{}",
        String::from_utf8_lossy(&from_spool.stderr)
    );
    assert_eq!(
        from_spool.stdout, batch.stdout,
        "streaming the segment spool diverged from the batch CLI"
    );

    let down = energydx()
        .args(["query", "--addr", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(down.status.success());
    assert!(daemon.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&spool);
}

/// The operator report across surfaces: a daemon pinned under
/// `ENERGYDX_DETERMINISTIC_TIME` must serve byte-identical
/// `report.html`/`report.json` artifacts to the batch CLI run over
/// the same payload directory.
#[test]
fn report_from_daemon_matches_batch_report() {
    use std::io::BufRead;

    let dir = temp_dir("report-payloads");
    for i in 0..8u64 {
        let version = if i % 2 == 0 { "1.9.0" } else { "2.0.0" };
        let mut payload = energydx_fleetd::fixture::payload_versioned(
            &format!("r{i:02}"),
            0,
            version,
        );
        if i == 6 {
            payload.truncate(6); // quarantined on both paths
        }
        std::fs::write(dir.join(format!("{i:03}.edxt")), payload).unwrap();
    }

    let mut daemon = energydx()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .env("ENERGYDX_DETERMINISTIC_TIME", "1")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    std::io::BufReader::new(daemon.stdout.take().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line
        .trim()
        .strip_prefix("fleetd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
        .to_string();

    let out = energydx()
        .args([
            "submit",
            "--addr",
            &addr,
            "--app",
            "mail",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let live_out = temp_dir("report-live");
    let live = energydx()
        .args([
            "report",
            "--addr",
            &addr,
            "--out",
            live_out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        live.status.success(),
        "{}",
        String::from_utf8_lossy(&live.stderr)
    );

    let batch_out = temp_dir("report-batch");
    let batch = energydx()
        .args([
            "report",
            "--bundles",
            dir.to_str().unwrap(),
            "--app",
            "mail",
            "--out",
            batch_out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        batch.status.success(),
        "{}",
        String::from_utf8_lossy(&batch.stderr)
    );

    for name in ["report.html", "report.json"] {
        let live_bytes = std::fs::read(live_out.join(name)).unwrap();
        let batch_bytes = std::fs::read(batch_out.join(name)).unwrap();
        assert!(!live_bytes.is_empty());
        assert_eq!(
            live_bytes, batch_bytes,
            "{name} diverged between the daemon and the batch CLI"
        );
    }
    let json =
        String::from_utf8(std::fs::read(live_out.join("report.json")).unwrap())
            .unwrap();
    assert!(json.contains("\"1.9.0\""), "versions missing: {json}");
    assert!(
        json.contains("\"undecodable\""),
        "quarantine missing: {json}"
    );

    let down = energydx()
        .args(["query", "--addr", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(down.status.success());
    assert!(daemon.wait().unwrap().success());
    for d in [&dir, &live_out, &batch_out] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Every `report` failure is a typed nonzero exit with `energydx:` on
/// stderr and — the atomicity contract — no partial artifact left on
/// disk.
#[test]
fn report_failures_leave_no_partial_artifact() {
    // Empty payload directory.
    let empty = temp_dir("report-empty");
    let out_dir = temp_dir("report-empty-out");
    let out = energydx()
        .args([
            "report",
            "--bundles",
            empty.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("energydx:"), "stderr: {err}");
    assert!(err.contains("no *.edxt"), "stderr: {err}");
    assert_no_artifacts(&out_dir);

    // Unreachable daemon.
    let out = energydx()
        .args([
            "report",
            "--addr",
            "127.0.0.1:1",
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("energydx:"));
    assert_no_artifacts(&out_dir);

    // A corrupt segment fails mid-assembly, after real work started.
    let spool = temp_dir("report-bad-seg");
    std::fs::write(spool.join("run-000000000000.seg"), b"not a segment")
        .unwrap();
    let out = energydx()
        .args([
            "report",
            "--bundles",
            spool.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("energydx:"));
    assert_no_artifacts(&out_dir);

    // Mutually exclusive inputs are a usage error.
    let out = energydx()
        .args(["report", "--bundles", "a", "--addr", "b"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one of"));

    for d in [&empty, &out_dir, &spool] {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn assert_no_artifacts(out_dir: &std::path::Path) {
    for name in ["report.html", "report.json"] {
        assert!(
            !out_dir.join(name).exists(),
            "failed report left {name} on disk"
        );
    }
    if let Ok(entries) = std::fs::read_dir(out_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            assert!(
                !name.ends_with(".tmp"),
                "failed report left temp file {name} on disk"
            );
        }
    }
}

/// Both serve modes refuse a flag neither reads — a retired one or a
/// typo — and a flag only the other mode reads, naming it (and the
/// mode). The listen address cannot bind, so a binary that let the
/// flag through fails on that instead of serving forever.
#[test]
fn serve_refuses_flags_it_does_not_read() {
    let daemon = ["serve", "--listen", "127.0.0.1:99999"];
    let coordinator = [
        "serve",
        "--coordinator",
        "--workers",
        "127.0.0.1:9",
        "--listen",
        "127.0.0.1:99999",
    ];
    let refused = |mode: &[&str], flag: &[&str], expect: &str| {
        let out = energydx().args(mode).args(flag).output().unwrap();
        assert!(!out.status.success(), "{mode:?} {flag:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{mode:?} {flag:?}: {stderr}");
    };
    for mode in [&daemon[..], &coordinator[..]] {
        for flag in [&["--no-query-cache"][..], &["--spill-dri", "spool"]] {
            refused(mode, flag, &format!("unknown serve flag `{}`", flag[0]));
        }
    }
    for flag in [
        &["--queue-depth", "8"][..],
        &["--checkpoint-every", "8"],
        &["--ingest-delay-ms", "8"],
        &["--spill-dir", "spool"],
        &["--mem-budget", "8"],
    ] {
        refused(
            &coordinator,
            flag,
            &format!(
                "serve flag `{}` is not read in coordinator mode",
                flag[0]
            ),
        );
    }
    for flag in [
        &["--degrade-policy", "hold"][..],
        &["--max-attempts", "8"],
        &["--base-backoff-ms", "8"],
        &["--max-backoff-ms", "8"],
        &["--breaker-threshold", "8"],
        &["--probe-every", "8"],
        &["--connect-timeout-ms", "8"],
        &["--read-timeout-ms", "8"],
        &["--write-timeout-ms", "8"],
    ] {
        refused(
            &daemon,
            flag,
            &format!("serve flag `{}` is not read in daemon mode", flag[0]),
        );
    }
}

/// `--mem-budget` without `--spill-dir` is a configuration error, not
/// a silently resident daemon.
#[test]
fn mem_budget_without_spill_dir_is_rejected() {
    let out = energydx()
        .args(["serve", "--listen", "127.0.0.1:0", "--mem-budget", "4096"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spill-dir"));
}
